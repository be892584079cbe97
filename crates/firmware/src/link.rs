//! Ground-station link supervision.
//!
//! Real autopilots declare *link loss* when ground-station heartbeats
//! stop arriving for a configured window, trigger an RC/GCS failsafe,
//! and keep trying to re-establish the link with exponentially backed-off
//! reconnect attempts. This module is that watchdog, decoupled from the
//! transport: the autopilot feeds it heartbeat arrivals and ticks it at
//! the firmware rate.

/// Seconds without a heartbeat before the link is declared lost.
pub const DEFAULT_LINK_TIMEOUT: f64 = 2.0;

/// First reconnect attempt fires this long after link loss.
pub const RECONNECT_BACKOFF_INITIAL: f64 = 0.5;

/// Reconnect backoff doubles up to this ceiling.
pub const RECONNECT_BACKOFF_MAX: f64 = 8.0;

/// What the monitor observed during one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// The heartbeat timeout just expired: the link is now lost.
    Lost,
    /// A reconnect attempt is due (the transport should try to
    /// re-establish; the next attempt waits twice as long, bounded).
    ReconnectAttempt,
    /// A heartbeat arrived while the link was down: recovered.
    Recovered,
}

/// Heartbeat watchdog with bounded-exponential reconnect backoff.
///
/// The monitor starts in a *never connected* state: until the first
/// heartbeat arrives there is no link to lose, so no failsafe fires on
/// the bench or with no ground station attached.
///
/// # Example
///
/// ```
/// use drone_firmware::link::{LinkMonitor, LinkEvent};
/// let mut link = LinkMonitor::new(2.0);
/// link.heartbeat();
/// assert!(link.is_connected());
/// let mut events = Vec::new();
/// for _ in 0..300 {
///     events.extend(link.tick(0.01)); // 3 s of silence
/// }
/// assert!(events.contains(&LinkEvent::Lost));
/// assert!(!link.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkMonitor {
    timeout: f64,
    /// Seconds since the last heartbeat.
    silence: f64,
    /// A heartbeat has been seen at least once.
    ever_connected: bool,
    connected: bool,
    /// Seconds until the next reconnect attempt (while disconnected).
    next_attempt_in: f64,
    /// Wait before the attempt after next, seconds.
    backoff: f64,
    /// Link losses observed.
    drops: u64,
    /// Reconnect attempts issued since the last loss.
    attempts_this_outage: u32,
    /// Reconnect attempts issued in total.
    attempts_total: u64,
}

impl LinkMonitor {
    /// Creates a monitor with the given heartbeat timeout, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is not positive.
    pub fn new(timeout: f64) -> LinkMonitor {
        assert!(timeout > 0.0, "link timeout must be positive");
        LinkMonitor {
            timeout,
            silence: 0.0,
            ever_connected: false,
            connected: false,
            next_attempt_in: 0.0,
            backoff: RECONNECT_BACKOFF_INITIAL,
            drops: 0,
            attempts_this_outage: 0,
            attempts_total: 0,
        }
    }

    /// Whether the link is currently up.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Whether a ground station has ever been heard. Link failsafe is
    /// meaningless before this.
    pub fn ever_connected(&self) -> bool {
        self.ever_connected
    }

    /// Link losses observed since boot.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Total reconnect attempts issued since boot.
    pub fn reconnect_attempts(&self) -> u64 {
        self.attempts_total
    }

    /// Seconds since the last heartbeat.
    pub fn silence(&self) -> f64 {
        self.silence
    }

    /// Records a ground-station heartbeat arrival. Returns
    /// [`LinkEvent::Recovered`] when this ends an outage.
    pub fn heartbeat(&mut self) -> Option<LinkEvent> {
        self.silence = 0.0;
        self.ever_connected = true;
        if self.connected {
            return None;
        }
        self.connected = true;
        self.backoff = RECONNECT_BACKOFF_INITIAL;
        self.attempts_this_outage = 0;
        Some(LinkEvent::Recovered)
    }

    /// Advances the watchdog by `dt` seconds, returning any events.
    pub fn tick(&mut self, dt: f64) -> Vec<LinkEvent> {
        let mut events = Vec::new();
        self.silence += dt;
        if self.connected && self.silence >= self.timeout {
            self.connected = false;
            self.drops += 1;
            self.next_attempt_in = self.backoff;
            events.push(LinkEvent::Lost);
        }
        if !self.connected && self.ever_connected {
            self.next_attempt_in -= dt;
            if self.next_attempt_in <= 0.0 {
                self.attempts_this_outage += 1;
                self.attempts_total += 1;
                self.backoff = (self.backoff * 2.0).min(RECONNECT_BACKOFF_MAX);
                self.next_attempt_in = self.backoff;
                events.push(LinkEvent::ReconnectAttempt);
            }
        }
        events
    }
}

impl Default for LinkMonitor {
    fn default() -> Self {
        LinkMonitor::new(DEFAULT_LINK_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tick for `seconds`, collecting events.
    fn run(link: &mut LinkMonitor, seconds: f64) -> Vec<LinkEvent> {
        let dt = 0.01;
        let mut events = Vec::new();
        for _ in 0..(seconds / dt).round() as usize {
            events.extend(link.tick(dt));
        }
        events
    }

    #[test]
    fn never_connected_never_fails() {
        let mut link = LinkMonitor::default();
        let events = run(&mut link, 60.0);
        assert!(events.is_empty(), "no GCS was ever attached: {events:?}");
        assert!(!link.is_connected());
        assert_eq!(link.drops(), 0);
    }

    #[test]
    fn heartbeats_keep_the_link_up() {
        let mut link = LinkMonitor::new(2.0);
        link.heartbeat();
        for _ in 0..100 {
            assert!(run(&mut link, 1.0).is_empty());
            link.heartbeat(); // 1 Hz GCS heartbeat, well inside timeout
        }
        assert!(link.is_connected());
        assert_eq!(link.drops(), 0);
    }

    #[test]
    fn silence_drops_the_link_after_the_timeout() {
        let mut link = LinkMonitor::new(2.0);
        link.heartbeat();
        let events = run(&mut link, 1.9);
        assert!(events.is_empty(), "still inside the timeout: {events:?}");
        let events = run(&mut link, 0.2);
        assert_eq!(events.first(), Some(&LinkEvent::Lost));
        assert!(!link.is_connected());
        assert_eq!(link.drops(), 1);
    }

    #[test]
    fn reconnect_backoff_doubles_and_saturates() {
        let mut link = LinkMonitor::new(1.0);
        link.heartbeat();
        let mut times = Vec::new();
        let dt = 0.01;
        let mut t = 0.0;
        for _ in 0..(60.0 / dt) as usize {
            t += dt;
            for e in link.tick(dt) {
                if e == LinkEvent::ReconnectAttempt {
                    times.push(t);
                }
            }
        }
        // Loss at 1 s; attempts at +0.5, then gaps 1, 2, 4, 8, 8, 8…
        assert!(times.len() >= 6, "attempts: {times:?}");
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        for (i, expect) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            assert!(
                (gaps[i] - expect).abs() < 0.03,
                "gap {i} = {} ≠ {expect}",
                gaps[i]
            );
        }
        // Saturation: every later gap pins at the ceiling.
        for g in &gaps[4..] {
            assert!(
                (g - RECONNECT_BACKOFF_MAX).abs() < 0.03,
                "saturated gap {g}"
            );
        }
        assert_eq!(link.reconnect_attempts(), times.len() as u64);
    }

    #[test]
    fn recovery_resets_the_backoff() {
        let mut link = LinkMonitor::new(1.0);
        link.heartbeat();
        run(&mut link, 10.0); // lose the link, burn through backoff
        assert!(!link.is_connected());
        assert_eq!(link.heartbeat(), Some(LinkEvent::Recovered));
        assert!(link.is_connected());
        // Second outage starts from the initial backoff again.
        let mut times = Vec::new();
        let dt = 0.01;
        let mut t = 0.0;
        for _ in 0..(3.0 / dt) as usize {
            t += dt;
            for e in link.tick(dt) {
                if e == LinkEvent::ReconnectAttempt {
                    times.push(t);
                }
            }
        }
        // Loss at 1 s, first attempt 0.5 s later.
        assert!(
            (times[0] - 1.5).abs() < 0.03,
            "first attempt at {}",
            times[0]
        );
    }

    #[test]
    #[should_panic(expected = "link timeout must be positive")]
    fn zero_timeout_panics() {
        let _ = LinkMonitor::new(0.0);
    }
}
