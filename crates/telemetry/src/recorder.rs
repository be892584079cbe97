//! The black box: a fixed-capacity ring buffer of per-tick channel
//! samples, dumped as JSONL when something goes wrong.
//!
//! Channels are registered up front; from then on the sampling path is
//! allocation-free — `begin_tick` clears a preallocated staging row,
//! `set` writes by index, `commit_tick` copies the row into the
//! preallocated ring, evicting the oldest tick once full. A dump
//! serializes whatever window is retained (the last N ticks leading up
//! to — and including — the trigger), which is exactly the evidence a
//! post-mortem needs after a failsafe or crash.

use crate::json::Json;

/// Index of a registered channel (cheap copyable handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelId(usize);

/// Why a dump was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpReason {
    /// A failsafe fired; the payload is its announcement.
    Failsafe(String),
    /// A crash was detected; the payload describes it.
    Crash(String),
    /// Explicit request (end-of-flight archival, debugging).
    Requested(String),
}

impl DumpReason {
    fn kind(&self) -> &'static str {
        match self {
            DumpReason::Failsafe(_) => "failsafe",
            DumpReason::Crash(_) => "crash",
            DumpReason::Requested(_) => "requested",
        }
    }

    fn detail(&self) -> &str {
        match self {
            DumpReason::Failsafe(s) | DumpReason::Crash(s) | DumpReason::Requested(s) => s,
        }
    }
}

/// The flight recorder ring buffer.
///
/// # Example
///
/// ```
/// use drone_telemetry::{DumpReason, FlightRecorder};
/// let mut fr = FlightRecorder::new(128);
/// let alt = fr.channel("position.z");
/// for tick in 0..200 {
///     fr.begin_tick(tick as f64 * 1e-3);
///     fr.set(alt, tick as f64);
///     fr.commit_tick();
/// }
/// assert_eq!(fr.len(), 128); // oldest 72 ticks evicted
/// let dump = fr.dump(&DumpReason::Requested("example".into()));
/// assert!(dump.lines().count() == 129); // header + one line per tick
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    channels: Vec<String>,
    capacity: usize,
    /// Flat ring storage, `capacity * channels.len()` once sealed.
    rows: Vec<f64>,
    times: Vec<f64>,
    tick_ids: Vec<u64>,
    /// Ring start (oldest row index).
    head: usize,
    /// Rows currently retained.
    len: usize,
    /// Staging row for the tick being assembled.
    staged: Vec<f64>,
    staging: bool,
    next_tick: u64,
    sealed: bool,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "recorder capacity must be positive");
        FlightRecorder {
            channels: Vec::new(),
            capacity,
            rows: Vec::new(),
            times: Vec::new(),
            tick_ids: Vec::new(),
            head: 0,
            len: 0,
            staged: Vec::new(),
            staging: false,
            next_tick: 0,
            sealed: false,
        }
    }

    /// Registers a channel. All channels must be registered before the
    /// first tick.
    ///
    /// # Panics
    ///
    /// Panics after the first `begin_tick` — the row layout is fixed
    /// once recording starts.
    pub fn channel(&mut self, name: &str) -> ChannelId {
        assert!(
            !self.sealed,
            "channels must be registered before the first tick"
        );
        self.channels.push(name.to_owned());
        ChannelId(self.channels.len() - 1)
    }

    /// Registered channel names, in [`ChannelId`] order.
    pub fn channels(&self) -> &[String] {
        &self.channels
    }

    /// Ticks retained right now.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tick has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum ticks retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Opens the staging row for one tick at simulation time `t`.
    /// Unset channels record as NaN (`null` in the dump). The first call
    /// seals channel registration and allocates the ring; subsequent
    /// ticks are allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if no channels are registered or a tick is already open.
    pub fn begin_tick(&mut self, t: f64) {
        assert!(!self.channels.is_empty(), "no channels registered");
        assert!(!self.staging, "previous tick not committed");
        if !self.sealed {
            self.sealed = true;
            self.rows = vec![f64::NAN; self.capacity * self.channels.len()];
            self.times = vec![0.0; self.capacity];
            self.tick_ids = vec![0; self.capacity];
            self.staged = vec![f64::NAN; self.channels.len() + 1];
        }
        self.staged.fill(f64::NAN);
        self.staged[0] = t;
        self.staging = true;
    }

    /// Stages a channel sample for the open tick.
    ///
    /// # Panics
    ///
    /// Panics if no tick is open.
    pub fn set(&mut self, channel: ChannelId, value: f64) {
        assert!(self.staging, "set outside begin_tick/commit_tick");
        self.staged[channel.0 + 1] = value;
    }

    /// Commits the staged tick into the ring, evicting the oldest tick
    /// when full.
    ///
    /// # Panics
    ///
    /// Panics if no tick is open.
    pub fn commit_tick(&mut self) {
        assert!(self.staging, "commit without begin_tick");
        let width = self.channels.len();
        let slot = if self.len < self.capacity {
            let slot = (self.head + self.len) % self.capacity;
            self.len += 1;
            slot
        } else {
            let slot = self.head;
            self.head = (self.head + 1) % self.capacity;
            slot
        };
        self.times[slot] = self.staged[0];
        self.tick_ids[slot] = self.next_tick;
        self.rows[slot * width..(slot + 1) * width].copy_from_slice(&self.staged[1..]);
        self.next_tick += 1;
        self.staging = false;
    }

    /// Retained ticks oldest-first as `(tick_id, time, samples)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64, &[f64])> {
        let width = self.channels.len();
        (0..self.len).map(move |i| {
            let slot = (self.head + i) % self.capacity;
            (
                self.tick_ids[slot],
                self.times[slot],
                &self.rows[slot * width..(slot + 1) * width],
            )
        })
    }

    /// The retained window as JSONL: a header line (`type: "header"`,
    /// reason, channel names, window bounds) followed by one compact
    /// line per tick — `{"tick":…,"t":…,"v":[…]}`, oldest first.
    pub fn dump(&self, reason: &DumpReason) -> String {
        let mut out = self.header(reason).render();
        out.push('\n');
        for (tick, t, samples) in self.iter() {
            let mut row = Json::obj().with("tick", tick).with("t", t);
            let mut values = Json::arr();
            for &v in samples {
                values.push(v);
            }
            row.insert("v", values);
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }

    /// The retained window as one JSON object (for embedding inside a
    /// larger artifact): `{reason, detail, channels, ticks: [...]}`.
    pub fn dump_json(&self, reason: &DumpReason) -> Json {
        let mut ticks = Json::arr();
        for (tick, t, samples) in self.iter() {
            let mut values = Json::arr();
            for &v in samples {
                values.push(v);
            }
            ticks.push(
                Json::obj()
                    .with("tick", tick)
                    .with("t", t)
                    .with("v", values),
            );
        }
        self.header(reason).with("ticks", ticks)
    }

    fn header(&self, reason: &DumpReason) -> Json {
        let mut channels = Json::arr();
        for name in &self.channels {
            channels.push(name.as_str());
        }
        let first_tick = self.iter().next().map(|(id, _, _)| id).unwrap_or(0);
        Json::obj()
            .with("type", "header")
            .with("reason", reason.kind())
            .with("detail", reason.detail())
            .with("channels", channels)
            .with("retained_ticks", self.len)
            .with("first_tick", first_tick)
            .with("last_tick", self.next_tick.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_only_the_last_capacity_ticks() {
        let mut fr = FlightRecorder::new(3);
        let ch = fr.channel("x");
        for i in 0..5 {
            fr.begin_tick(i as f64);
            fr.set(ch, i as f64 * 10.0);
            fr.commit_tick();
        }
        let ticks: Vec<u64> = fr.iter().map(|(id, _, _)| id).collect();
        assert_eq!(ticks, [2, 3, 4]);
        let values: Vec<f64> = fr.iter().map(|(_, _, v)| v[0]).collect();
        assert_eq!(values, [20.0, 30.0, 40.0]);
    }

    #[test]
    fn unset_channels_are_nan_and_dump_as_null() {
        let mut fr = FlightRecorder::new(2);
        let _a = fr.channel("a");
        let b = fr.channel("b");
        fr.begin_tick(0.0);
        fr.set(b, 1.0);
        fr.commit_tick();
        let (_, _, row) = fr.iter().next().unwrap();
        assert!(row[0].is_nan());
        assert_eq!(row[1], 1.0);
        let dump = fr.dump(&DumpReason::Requested("test".into()));
        assert!(dump.lines().nth(1).unwrap().contains("[null,1]"));
    }

    #[test]
    fn dump_header_describes_the_window() {
        let mut fr = FlightRecorder::new(4);
        let ch = fr.channel("battery.v");
        for i in 0..10 {
            fr.begin_tick(i as f64 * 0.01);
            fr.set(ch, 12.0);
            fr.commit_tick();
        }
        let dump = fr.dump_json(&DumpReason::Failsafe("battery low".into()));
        assert_eq!(dump.get("reason").unwrap().as_str(), Some("failsafe"));
        assert_eq!(dump.get("detail").unwrap().as_str(), Some("battery low"));
        assert_eq!(dump.get("retained_ticks").unwrap().as_f64(), Some(4.0));
        assert_eq!(dump.get("first_tick").unwrap().as_f64(), Some(6.0));
        assert_eq!(dump.get("last_tick").unwrap().as_f64(), Some(9.0));
        assert_eq!(dump.get("ticks").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn jsonl_dump_parses_line_by_line() {
        let mut fr = FlightRecorder::new(8);
        let ch = fr.channel("x");
        for i in 0..3 {
            fr.begin_tick(i as f64);
            fr.set(ch, i as f64);
            fr.commit_tick();
        }
        let dump = fr.dump(&DumpReason::Crash("ground impact".into()));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in lines {
            Json::parse(line).expect("every dump line is valid JSON");
        }
    }

    #[test]
    #[should_panic(expected = "before the first tick")]
    fn late_channel_registration_panics() {
        let mut fr = FlightRecorder::new(2);
        let _ = fr.channel("a");
        fr.begin_tick(0.0);
        fr.commit_tick();
        let _ = fr.channel("too-late");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::new(0);
    }
}
