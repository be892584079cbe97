//! A deterministic network-fault injector: the TCP analogue of the
//! airframe's `FaultSchedule` (PR 1), aimed at the serving stack.
//!
//! [`ChaosProxy`] is a std-only loopback relay that sits between a
//! client and a [`crate::ReactorServer`], forwarding bytes while injecting
//! one configured [`Fault`] per connection according to a
//! [`FaultSchedule`]. Faults model the classic network misbehaviors:
//!
//! * [`Fault::ResetAfter`] — connection reset mid-line: both sides
//!   dropped after N client bytes.
//! * [`Fault::SplitEvery`] — pathological framing: client bytes
//!   re-chunked into tiny writes with pauses between them, so request
//!   lines arrive split at arbitrary byte boundaries.
//! * [`Fault::Coalesce`] — the opposite: every client byte buffered
//!   until half-close, then delivered as one giant write.
//! * [`Fault::TruncateReplyAfter`] — the reply cut off mid-line.
//! * [`Fault::StallAfter`] — slow-loris: N bytes, then silence long
//!   enough to trip the server's line deadline
//!   ([`crate::ReactorConfig::line_deadline`]).
//! * [`Fault::GarbagePrefix`] — a seeded garbage line interleaved
//!   ahead of the real request.
//!
//! Everything is seeded and connection-indexed: the same
//! (schedule, seed) pair replays the same byte stream, which is what
//! lets the `repro chaos` campaign pin exact survival counts.

use drone_math::rng::Pcg32;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One per-connection network misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully.
    None,
    /// Drop both directions after forwarding this many client bytes.
    ResetAfter(usize),
    /// Re-chunk client bytes into writes of at most this many bytes,
    /// pausing briefly between them.
    SplitEvery(usize),
    /// Buffer every client byte until half-close, then forward them
    /// in one write.
    Coalesce,
    /// Close both directions after forwarding this many reply bytes.
    TruncateReplyAfter(usize),
    /// Forward this many client bytes, then go silent for `millis`
    /// before relaying the rest — the slow-loris shape.
    StallAfter {
        /// Client bytes forwarded before the stall.
        bytes: usize,
        /// Silence, in milliseconds.
        millis: u64,
    },
    /// Write a seeded garbage line of this many bytes to the server
    /// before relaying the real request.
    GarbagePrefix(usize),
}

/// Which connections get the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Every connection.
    Always(Fault),
    /// Even-indexed connections (0, 2, …) get the fault; odd ones are
    /// relayed clean — so a client's first attempt fails and its
    /// retry succeeds, deterministically.
    EveryOther(Fault),
}

impl FaultSchedule {
    fn fault_for(self, connection: u64) -> Fault {
        match self {
            FaultSchedule::Always(fault) => fault,
            FaultSchedule::EveryOther(fault) => {
                if connection.is_multiple_of(2) {
                    fault
                } else {
                    Fault::None
                }
            }
        }
    }
}

/// What a stopped proxy did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections that had a non-[`Fault::None`] fault applied.
    pub faults_injected: u64,
    /// Threads joined at stop: the acceptor plus one relay per
    /// connection. Campaign CI pins this exactly — the chaos layer
    /// itself must not leak.
    pub threads_joined: usize,
}

/// A seeded TCP fault-injection relay. See the module docs.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    relays: Arc<Mutex<Vec<JoinHandle<()>>>>,
    connections: Arc<AtomicU64>,
    faults_injected: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Starts a relay on a fresh loopback port, forwarding to
    /// `upstream` under the given schedule and seed.
    ///
    /// # Errors
    ///
    /// Fails only if the listener cannot bind.
    pub fn start(
        upstream: SocketAddr,
        schedule: FaultSchedule,
        seed: u64,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let relays: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let connections = Arc::new(AtomicU64::new(0));
        let faults_injected = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let relays = Arc::clone(&relays);
            let connections = Arc::clone(&connections);
            let faults_injected = Arc::clone(&faults_injected);
            std::thread::Builder::new()
                .name("chaos-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = stream else { continue };
                        let index = connections.fetch_add(1, Ordering::SeqCst);
                        let fault = schedule.fault_for(index);
                        if fault != Fault::None {
                            faults_injected.fetch_add(1, Ordering::SeqCst);
                        }
                        let handle = std::thread::Builder::new()
                            .name(format!("chaos-relay-{index}"))
                            .spawn(move || relay(client, upstream, fault, seed, index))
                            .expect("spawn relay thread");
                        relays
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(handle);
                    }
                })?
        };
        Ok(ChaosProxy {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            relays,
            connections,
            faults_injected,
        })
    }

    /// The loopback address clients should dial instead of the server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every thread.
    pub fn stop(mut self) -> ProxyStats {
        self.finish()
    }

    fn finish(&mut self) -> ProxyStats {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() so the acceptor can observe the flag.
        let _ = TcpStream::connect(self.addr);
        let mut joined = 0usize;
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
            joined += 1;
        }
        let relays =
            std::mem::take(&mut *self.relays.lock().unwrap_or_else(PoisonError::into_inner));
        for relay in relays {
            let _ = relay.join();
            joined += 1;
        }
        // The shutdown self-connect above is counted by the acceptor
        // before it breaks; its relay (if spawned) was joined too.
        ProxyStats {
            connections: self.connections.load(Ordering::SeqCst),
            faults_injected: self.faults_injected.load(Ordering::SeqCst),
            threads_joined: joined,
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.finish();
        }
    }
}

/// The poll tick for the full-duplex relay loop.
const POLL: Duration = Duration::from_millis(5);
/// Hard ceiling on one relayed connection's lifetime: whatever the
/// fault, the relay thread always exits.
const RELAY_DEADLINE: Duration = Duration::from_secs(10);

fn relay(client: TcpStream, upstream: SocketAddr, fault: Fault, seed: u64, index: u64) {
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let _ = client.set_read_timeout(Some(POLL));
    let _ = server.set_read_timeout(Some(POLL));
    let _ = run_relay(client, server, fault, seed, index);
}

/// Forwards both directions with the fault applied; any I/O error
/// tears the pair down, which is always an acceptable chaos outcome.
fn run_relay(
    mut client: TcpStream,
    mut server: TcpStream,
    fault: Fault,
    seed: u64,
    index: u64,
) -> std::io::Result<()> {
    if let Fault::GarbagePrefix(len) = fault {
        let mut rng = Pcg32::new(seed, index);
        let mut garbage = String::with_capacity(len + 1);
        // Printable, newline-terminated, never valid JSON.
        garbage.push('!');
        while garbage.len() < len {
            garbage.push((b'a' + (rng.below(26)) as u8) as char);
        }
        garbage.push('\n');
        server.write_all(garbage.as_bytes())?;
    }
    let started = Instant::now();
    let mut chunk = [0u8; 4096];
    let mut c2s_forwarded = 0usize; // client bytes already forwarded
    let mut s2c_forwarded = 0usize; // reply bytes already forwarded
    let mut client_done = false;
    let mut server_done = false;
    let mut coalesced: Vec<u8> = Vec::new();
    let mut stalled = false;
    while !(client_done && server_done) {
        if started.elapsed() > RELAY_DEADLINE {
            break;
        }
        if !client_done {
            match client.read(&mut chunk) {
                Ok(0) => {
                    client_done = true;
                    if fault == Fault::Coalesce && !coalesced.is_empty() {
                        server.write_all(&coalesced)?;
                    }
                    let _ = server.shutdown(Shutdown::Write);
                }
                Ok(n) => {
                    let data = &chunk[..n];
                    match fault {
                        Fault::ResetAfter(limit) => {
                            let take = limit.saturating_sub(c2s_forwarded).min(n);
                            server.write_all(&data[..take])?;
                            c2s_forwarded += take;
                            if c2s_forwarded >= limit {
                                // Drop both sides mid-line: the client
                                // sees the connection die before any
                                // correlated reply.
                                return Ok(());
                            }
                        }
                        Fault::SplitEvery(size) => {
                            for piece in data.chunks(size.max(1)) {
                                server.write_all(piece)?;
                                server.flush()?;
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            c2s_forwarded += n;
                        }
                        Fault::Coalesce => coalesced.extend_from_slice(data),
                        Fault::StallAfter { bytes, millis } => {
                            let take = bytes.saturating_sub(c2s_forwarded).min(n);
                            server.write_all(&data[..take])?;
                            c2s_forwarded += take;
                            if c2s_forwarded >= bytes && !stalled {
                                stalled = true;
                                std::thread::sleep(Duration::from_millis(millis));
                                server.write_all(&data[take..])?;
                                c2s_forwarded += n - take;
                            }
                        }
                        _ => {
                            server.write_all(data)?;
                            c2s_forwarded += n;
                        }
                    }
                }
                Err(e) if would_block(&e) => {}
                Err(_) => {
                    client_done = true;
                    let _ = server.shutdown(Shutdown::Write);
                }
            }
        }
        if !server_done {
            match server.read(&mut chunk) {
                Ok(0) => {
                    server_done = true;
                    let _ = client.shutdown(Shutdown::Write);
                }
                Ok(n) => {
                    let data = &chunk[..n];
                    if let Fault::TruncateReplyAfter(limit) = fault {
                        let take = limit.saturating_sub(s2c_forwarded).min(n);
                        client.write_all(&data[..take])?;
                        s2c_forwarded += take;
                        if s2c_forwarded >= limit {
                            return Ok(());
                        }
                    } else {
                        client.write_all(data)?;
                        s2c_forwarded += n;
                    }
                }
                Err(e) if would_block(&e) => {}
                Err(_) => {
                    server_done = true;
                    let _ = client.shutdown(Shutdown::Write);
                }
            }
        }
    }
    Ok(())
}

fn would_block(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut
}

// Socket-level: gated like the reactor the tests start.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CallError, Client, ClientConfig};
    use crate::reactor::{ReactorConfig, ReactorServer};
    use drone_components::battery::CellCount;
    use drone_explorer::{Explorer, GridRange, Objective, Query, QueryRanges};
    use drone_telemetry::Registry;

    fn query() -> Query {
        Query::new(
            "chaos",
            QueryRanges {
                wheelbase_mm: GridRange::new(250.0, 450.0, 3),
                cells: vec![CellCount::S3],
                capacity_mah: GridRange::new(2000.0, 6000.0, 5),
                compute_power_w: GridRange::fixed(20.0),
                twr: GridRange::fixed(2.0),
                payload_g: GridRange::fixed(0.0),
            },
            Objective::MaxFlightTime,
        )
    }

    fn client_config() -> ClientConfig {
        ClientConfig {
            retries: 2,
            backoff_initial_ms: 1,
            backoff_max_ms: 4,
            breaker_threshold: 0,
            reply_timeout: Duration::from_millis(800),
            ..ClientConfig::default()
        }
    }

    fn run_through(schedule: FaultSchedule) -> (Result<u32, CallError>, ProxyStats, Registry) {
        let registry = Registry::with_wall_clock();
        let server =
            ReactorServer::start(Explorer::new(2), ReactorConfig::default(), &registry).unwrap();
        let proxy = ChaosProxy::start(server.addr(), schedule, 42).unwrap();
        let mut client = Client::new(proxy.addr(), client_config(), &registry);
        let outcome = client.call(&query()).map(|s| s.attempts);
        let stats = proxy.stop();
        assert!(server.drain().clean);
        (outcome, stats, registry)
    }

    #[test]
    fn a_clean_schedule_relays_verbatim() {
        let (outcome, stats, _) = run_through(FaultSchedule::Always(Fault::None));
        assert_eq!(outcome.unwrap(), 1);
        assert_eq!(stats.faults_injected, 0);
        // Acceptor + one relay per connection (including the shutdown
        // self-connect, which may or may not produce a relay in time).
        assert!(stats.threads_joined >= 1 + stats.connections as usize - 1);
    }

    #[test]
    fn a_reset_first_connection_is_survived_by_retry() {
        let (outcome, stats, registry) =
            run_through(FaultSchedule::EveryOther(Fault::ResetAfter(8)));
        assert_eq!(outcome.unwrap(), 2, "first attempt reset, retry clean");
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(registry.counter("client.retries").get(), 1);
    }

    #[test]
    fn split_frames_reassemble_into_one_answer() {
        let (outcome, _, _) = run_through(FaultSchedule::Always(Fault::SplitEvery(7)));
        assert_eq!(outcome.unwrap(), 1, "splitting never corrupts framing");
    }

    #[test]
    fn truncated_replies_are_retried_to_success() {
        let (outcome, _, registry) =
            run_through(FaultSchedule::EveryOther(Fault::TruncateReplyAfter(20)));
        assert_eq!(outcome.unwrap(), 2);
        assert_eq!(registry.counter("client.retries").get(), 1);
    }

    #[test]
    fn garbage_prefix_lines_do_not_confuse_correlation() {
        let (outcome, _, _) = run_through(FaultSchedule::Always(Fault::GarbagePrefix(24)));
        assert_eq!(
            outcome.unwrap(),
            1,
            "the client skips the garbage's parse-error reply"
        );
    }
}
