//! A resilient query client: bounded retries with seeded-jitter
//! exponential backoff and a half-open circuit breaker.
//!
//! The retry shape mirrors the firmware link watchdog
//! (`drone_firmware::link::LinkMonitor`): delays double from an
//! initial value up to a ceiling and reset on recovery. On top of
//! that sits a circuit breaker: after `breaker_threshold` consecutive
//! transport-level call failures the client stops dialing for
//! `breaker_cooldown` calls (fast-failing each one), then lets a
//! single half-open probe through — success closes the circuit,
//! failure reopens it. The cooldown is counted in *calls*, not wall
//! time, so chaos-campaign runs are deterministic.
//!
//! Every call opens a fresh connection. That keeps one retry attempt
//! aligned with one connection — exactly the granularity the
//! [`crate::chaos::ChaosProxy`] injects faults at — and sidesteps
//! half-dead keepalive sockets entirely.
//!
//! Error classification:
//!
//! * **Transient** (retried): connect/read/write I/O errors, EOF or
//!   garbage before a correlated reply, `overloaded`, and
//!   `internal_error` — the server may well answer a fresh attempt.
//! * **Rejected** (not retried): `parse`, `bad_request`,
//!   `invalid_query`, `too_large`, `deadline_exceeded` — the server is
//!   healthy and has already said no; retrying is wasted load.
//!   A rejection also resets the breaker's failure count, since it
//!   proves the server is alive and speaking the protocol.

use crate::protocol::{self, ErrorKind, RequestError, TraceQuery};
use drone_explorer::{OptimizeRequest, Query};
use drone_math::rng::Pcg32;
use drone_telemetry::{derive_trace_id, Counter, Json, Registry};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`Client`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Retries after the first attempt fails transiently (so a call
    /// dials at most `1 + retries` connections).
    pub retries: u32,
    /// First retry delay in milliseconds; doubles per retry.
    pub backoff_initial_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_max_ms: u64,
    /// Seed for the backoff jitter stream (delays are scaled by a
    /// seeded factor in [0.5, 1.0] so synchronized clients desync).
    pub jitter_seed: u64,
    /// Consecutive failed calls before the breaker opens; `0` disables
    /// the breaker.
    pub breaker_threshold: u32,
    /// Calls fast-failed while the breaker is open, before the next
    /// half-open probe.
    pub breaker_cooldown: u32,
    /// Per-connection read timeout while waiting for the reply.
    pub reply_timeout: Duration,
    /// Seed for the causal trace ids stamped on every query call
    /// ([`drone_telemetry::derive_trace_id`] over the call id). Give
    /// concurrent clients distinct seeds so their trace ids never
    /// collide.
    pub trace_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            retries: 2,
            backoff_initial_ms: 25,
            backoff_max_ms: 400,
            jitter_seed: 1,
            breaker_threshold: 4,
            breaker_cooldown: 4,
            reply_timeout: Duration::from_secs(2),
            trace_seed: 0,
        }
    }
}

/// Why a [`Client::call`] did not return an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum CallError {
    /// The server answered with a typed, non-transient rejection.
    Rejected {
        /// The server's error object.
        error: RequestError,
        /// Connections dialed for this call.
        attempts: u32,
    },
    /// Every allowed attempt failed transiently.
    Exhausted {
        /// Connections dialed for this call.
        attempts: u32,
        /// Human-readable detail from the last attempt.
        last: String,
    },
    /// The circuit breaker is open; the call never dialed.
    BreakerOpen,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Rejected { error, attempts } => {
                write!(f, "rejected after {attempts} attempt(s): {error}")
            }
            CallError::Exhausted { attempts, last } => {
                write!(f, "exhausted {attempts} attempt(s): {last}")
            }
            CallError::BreakerOpen => write!(f, "circuit breaker open"),
        }
    }
}

impl std::error::Error for CallError {}

/// A successful [`Client::call`]: the full reply document plus how
/// hard the client had to work for it.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSuccess {
    /// The whole reply line, parsed (`id`, `ok`, `answer`).
    pub reply: Json,
    /// Connections dialed for this call (1 = no retries needed).
    pub attempts: u32,
    /// The causal trace id stamped on the request, for fetching its
    /// span tree later via [`Client::fetch_trace`]. `None` for
    /// introspection calls, which are not traced.
    pub trace_id: Option<u64>,
}

/// Circuit-breaker state, counted in calls for determinism.
enum Breaker {
    Closed { failures: u32 },
    Open { remaining: u32 },
    HalfOpen,
}

/// What the breaker lets a call do.
enum Admit {
    /// Normal operation: full retry budget.
    Normal,
    /// Half-open probe: one attempt, no retries.
    Probe,
    /// Fast-fail without dialing.
    FastFail,
}

struct ClientMetrics {
    calls: Arc<Counter>,
    retries: Arc<Counter>,
    breaker_opens: Arc<Counter>,
    breaker_fast_fails: Arc<Counter>,
}

/// The resilient DSE query client. See the module docs for the retry
/// and breaker semantics.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    jitter: Pcg32,
    breaker: Breaker,
    next_id: u64,
    metrics: ClientMetrics,
}

impl Client {
    /// A client for the server at `addr`, reporting `client.*`
    /// counters into `registry`.
    pub fn new(addr: SocketAddr, config: ClientConfig, registry: &Registry) -> Client {
        Client {
            addr,
            config,
            jitter: Pcg32::new(config.jitter_seed, 0xC11E),
            breaker: Breaker::Closed { failures: 0 },
            next_id: 1,
            metrics: ClientMetrics {
                calls: registry.counter("client.calls"),
                retries: registry.counter("client.retries"),
                breaker_opens: registry.counter("client.breaker_opens"),
                breaker_fast_fails: registry.counter("client.breaker_fast_fails"),
            },
        }
    }

    /// Sends one query and returns the correlated reply, retrying
    /// transient failures within the configured budget. The request
    /// carries a deterministic causal `trace_id` (derived from the
    /// configured seed and the call id) which the server uses to label
    /// the span tree it records; [`CallSuccess::trace_id`] echoes it
    /// so the tree can be fetched with [`Client::fetch_trace`].
    ///
    /// # Errors
    ///
    /// [`CallError::Rejected`] for typed server rejections,
    /// [`CallError::Exhausted`] when the retry budget runs out,
    /// [`CallError::BreakerOpen`] while the breaker blocks dialing.
    pub fn call(&mut self, query: &Query) -> Result<CallSuccess, CallError> {
        let id = self.fresh_id();
        let trace_id = derive_trace_id(self.config.trace_seed, id);
        let line = protocol::request_to_json_traced(id, trace_id, query).render();
        self.call_line(&line, id, Some(trace_id))
    }

    /// Sends one optimize request and returns the correlated reply,
    /// with the same retry, breaker and tracing treatment as
    /// [`Client::call`].
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn optimize(&mut self, req: &OptimizeRequest) -> Result<CallSuccess, CallError> {
        let id = self.fresh_id();
        let trace_id = derive_trace_id(self.config.trace_seed, id);
        let line = protocol::optimize_request_to_json_traced(id, trace_id, req).render();
        self.call_line(&line, id, Some(trace_id))
    }

    /// Asks the server for its live stats snapshot (registry metrics,
    /// queue depth, trace-ring bookkeeping), through the same retry
    /// and breaker machinery as [`Client::call`].
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn stats(&mut self) -> Result<CallSuccess, CallError> {
        let id = self.fresh_id();
        let line = protocol::stats_request_json(id).render();
        self.call_line(&line, id, None)
    }

    /// Fetches the completed span tree for `trace_id` from the
    /// server's trace ring. The reply's `traces` array is empty when
    /// the trace has been evicted (or never existed).
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn fetch_trace(&mut self, trace_id: u64) -> Result<CallSuccess, CallError> {
        let id = self.fresh_id();
        let fetch = TraceQuery {
            last: 1,
            trace_id: Some(trace_id),
        };
        let line = protocol::trace_request_json(id, &fetch).render();
        self.call_line(&line, id, None)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The shared retry/breaker engine behind every call kind: sends
    /// one rendered request line and returns the correlated reply.
    fn call_line(
        &mut self,
        line: &str,
        id: u64,
        trace_id: Option<u64>,
    ) -> Result<CallSuccess, CallError> {
        self.metrics.calls.inc();
        let attempts_allowed = match self.admit() {
            Admit::FastFail => {
                self.metrics.breaker_fast_fails.inc();
                return Err(CallError::BreakerOpen);
            }
            Admit::Probe => 1,
            Admit::Normal => 1 + self.config.retries,
        };
        let mut last = String::new();
        for attempt in 1..=attempts_allowed {
            if attempt > 1 {
                self.metrics.retries.inc();
                std::thread::sleep(self.backoff_delay(attempt - 1));
            }
            match self.attempt(line, id) {
                Ok(reply) => {
                    if reply.get("ok") == Some(&Json::Bool(true)) {
                        self.on_success();
                        return Ok(CallSuccess {
                            reply,
                            attempts: attempt,
                            trace_id,
                        });
                    }
                    let error = reply_error(&reply);
                    if is_transient(error.kind) {
                        last = error.to_string();
                        continue;
                    }
                    // A typed rejection proves the server is healthy:
                    // it closes the breaker but fails the call.
                    self.on_success();
                    return Err(CallError::Rejected {
                        error,
                        attempts: attempt,
                    });
                }
                Err(detail) => last = detail,
            }
        }
        if self.on_failure() {
            self.metrics.breaker_opens.inc();
        }
        Err(CallError::Exhausted {
            attempts: attempts_allowed,
            last,
        })
    }

    /// One connection: dial, send the line, read until the reply with
    /// our id shows up. Uncorrelated lines (replies to injected
    /// garbage) are skipped, a few at most.
    fn attempt(&self, line: &str, id: u64) -> Result<Json, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.reply_timeout));
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("half-close: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut null_id_error: Option<String> = None;
        for _ in 0..16 {
            let mut reply_line = String::new();
            match reader.read_line(&mut reply_line) {
                Ok(0) => {
                    return Err(null_id_error.map_or_else(
                        || "connection closed before a correlated reply".to_owned(),
                        |e| format!("closed after uncorrelated error: {e}"),
                    ))
                }
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
            let Ok(reply) = Json::parse(reply_line.trim_end()) else {
                // A truncated or garbled reply; keep reading — the
                // correlated one may still arrive intact.
                null_id_error = Some("garbled reply line".to_owned());
                continue;
            };
            match reply.get("id") {
                Some(&Json::Num(n)) if n == id as f64 => return Ok(reply),
                _ => {
                    // `id: null` errors can't be attributed (a garbage
                    // interleave, or our own line mangled in flight);
                    // remember the detail and keep reading.
                    null_id_error = Some(reply_error(&reply).to_string());
                }
            }
        }
        Err("no correlated reply within the skip budget".to_owned())
    }

    /// Delay before retry number `retry` (1-based): bounded
    /// exponential, scaled by a seeded jitter factor in [0.5, 1.0].
    /// `retry == 0` is tolerated and treated like the first retry —
    /// `retry - 1` used to underflow (a debug-build panic, and a
    /// 2^20-scaled delay in release) if a caller ever passed 0.
    fn backoff_delay(&mut self, retry: u32) -> Duration {
        let doubled = self
            .config
            .backoff_initial_ms
            .saturating_mul(1u64 << retry.saturating_sub(1).min(20));
        let base = doubled.min(self.config.backoff_max_ms);
        Duration::from_millis((base as f64 * self.jitter.uniform(0.5, 1.0)).round() as u64)
    }

    fn admit(&mut self) -> Admit {
        match &mut self.breaker {
            Breaker::Closed { .. } => Admit::Normal,
            Breaker::Open { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    Admit::FastFail
                } else {
                    self.breaker = Breaker::HalfOpen;
                    Admit::Probe
                }
            }
            Breaker::HalfOpen => Admit::Probe,
        }
    }

    fn on_success(&mut self) {
        self.breaker = Breaker::Closed { failures: 0 };
    }

    /// Records a failed call; true when this transition opened the
    /// breaker.
    fn on_failure(&mut self) -> bool {
        if self.config.breaker_threshold == 0 {
            return false;
        }
        let open = match self.breaker {
            Breaker::Closed { failures } => failures + 1 >= self.config.breaker_threshold,
            Breaker::HalfOpen => true,
            Breaker::Open { .. } => return false,
        };
        if open {
            self.breaker = Breaker::Open {
                remaining: self.config.breaker_cooldown,
            };
        } else if let Breaker::Closed { failures } = &mut self.breaker {
            *failures += 1;
        }
        open
    }
}

/// True for failures worth retrying: the server may answer next time.
fn is_transient(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::Overloaded | ErrorKind::Internal)
}

/// The error object out of a reply document, tolerating any shape.
fn reply_error(reply: &Json) -> RequestError {
    let kind = reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .and_then(ErrorKind::from_wire)
        .unwrap_or(ErrorKind::Internal);
    let message = reply
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("malformed error reply")
        .to_owned();
    RequestError { kind, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_components::battery::CellCount;
    use drone_explorer::{Explorer, GridRange, Objective, QueryRanges};
    use std::net::TcpListener;

    fn small_query(name: &str) -> Query {
        Query::new(
            name,
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

    /// Socket-level tests start a reactor, so they carry its target gate.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn live_server(registry: &Registry) -> crate::ReactorServer {
        crate::ReactorServer::start(Explorer::new(2), crate::ReactorConfig::default(), registry)
            .unwrap()
    }

    fn fast_config() -> ClientConfig {
        ClientConfig {
            backoff_initial_ms: 1,
            backoff_max_ms: 4,
            reply_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn a_clean_call_answers_on_the_first_attempt() {
        let registry = Registry::with_wall_clock();
        let server = live_server(&registry);
        let mut client = Client::new(server.addr(), fast_config(), &registry);
        let success = client.call(&small_query("clean")).unwrap();
        assert_eq!(success.attempts, 1);
        assert_eq!(success.reply.get("ok"), Some(&Json::Bool(true)));
        assert!(success.reply.get("answer").is_some());
        assert_eq!(registry.counter("client.retries").get(), 0);
        assert_eq!(registry.counter("client.calls").get(), 1);
        assert!(server.drain().clean);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn a_reset_connection_is_retried_to_success() {
        let registry = Registry::with_wall_clock();
        let server = live_server(&registry);
        // A one-shot flaky front: first connection dropped on the
        // floor, later ones relayed verbatim to the real server.
        let front = TcpListener::bind("127.0.0.1:0").unwrap();
        let front_addr = front.local_addr().unwrap();
        let upstream = server.addr();
        let relay = std::thread::spawn(move || {
            let (first, _) = front.accept().unwrap();
            drop(first); // reset mid-handshake
            let (mut downstream, _) = front.accept().unwrap();
            let mut up = TcpStream::connect(upstream).unwrap();
            let mut down_read = downstream.try_clone().unwrap();
            let mut up_write = up.try_clone().unwrap();
            let pump = std::thread::spawn(move || {
                let _ = std::io::copy(&mut down_read, &mut up_write);
                let _ = up_write.shutdown(std::net::Shutdown::Write);
            });
            let _ = std::io::copy(&mut up, &mut downstream);
            pump.join().unwrap();
        });
        let mut client = Client::new(front_addr, fast_config(), &registry);
        let success = client.call(&small_query("retry")).unwrap();
        assert_eq!(success.attempts, 2);
        assert_eq!(registry.counter("client.retries").get(), 1);
        relay.join().unwrap();
        assert!(server.drain().clean);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn typed_rejections_are_not_retried() {
        let registry = Registry::with_wall_clock();
        let server = live_server(&registry);
        let mut client = Client::new(server.addr(), fast_config(), &registry);
        // An inverted range fails validation server-side.
        let mut bad = small_query("bad");
        bad.ranges.wheelbase_mm = GridRange {
            min: 450.0,
            max: 250.0,
            steps: 3,
        };
        match client.call(&bad) {
            Err(CallError::Rejected { error, attempts }) => {
                assert_eq!(error.kind, ErrorKind::InvalidQuery);
                assert_eq!(attempts, 1, "rejections must not burn retries");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(registry.counter("client.retries").get(), 0);
        assert!(server.drain().clean);
    }

    #[test]
    fn the_breaker_opens_fast_fails_and_probes_half_open() {
        let registry = Registry::with_wall_clock();
        // A port with nothing behind it: bind, note the address, drop.
        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = ClientConfig {
            retries: 0,
            breaker_threshold: 2,
            breaker_cooldown: 2,
            ..fast_config()
        };
        let mut client = Client::new(dead, config, &registry);
        let query = small_query("dead");
        // Two failures open the breaker…
        assert!(matches!(
            client.call(&query),
            Err(CallError::Exhausted { .. })
        ));
        assert!(matches!(
            client.call(&query),
            Err(CallError::Exhausted { .. })
        ));
        assert_eq!(registry.counter("client.breaker_opens").get(), 1);
        // …the cooldown fast-fails without dialing…
        assert!(matches!(client.call(&query), Err(CallError::BreakerOpen)));
        assert!(matches!(client.call(&query), Err(CallError::BreakerOpen)));
        assert_eq!(registry.counter("client.breaker_fast_fails").get(), 2);
        // …and the half-open probe fails, reopening it.
        assert!(matches!(
            client.call(&query),
            Err(CallError::Exhausted { attempts: 1, .. })
        ));
        assert_eq!(registry.counter("client.breaker_opens").get(), 2);
        assert!(matches!(client.call(&query), Err(CallError::BreakerOpen)));
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn a_successful_probe_closes_the_breaker() {
        let registry = Registry::with_wall_clock();
        let server = live_server(&registry);
        let config = ClientConfig {
            retries: 0,
            breaker_threshold: 1,
            breaker_cooldown: 0,
            ..fast_config()
        };
        // Open the breaker against a dead port, then point the same
        // breaker state at the live server for the probe.
        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let mut client = Client::new(dead, config, &registry);
        let query = small_query("probe");
        assert!(matches!(
            client.call(&query),
            Err(CallError::Exhausted { .. })
        ));
        client.addr = server.addr();
        // Cooldown 0: the very next call is the half-open probe.
        let success = client.call(&query).unwrap();
        assert_eq!(success.attempts, 1);
        assert!(matches!(client.breaker, Breaker::Closed { failures: 0 }));
        // And the circuit stays closed for normal calls.
        assert!(client.call(&query).is_ok());
        assert!(server.drain().clean);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn a_call_stamps_a_trace_the_client_can_fetch_back() {
        let registry = Registry::with_wall_clock();
        let server = live_server(&registry);
        let config = ClientConfig {
            trace_seed: 99,
            ..fast_config()
        };
        let mut client = Client::new(server.addr(), config, &registry);
        let success = client.call(&small_query("traced")).unwrap();
        let trace_id = success.trace_id.expect("query calls are traced");
        assert_eq!(trace_id, drone_telemetry::derive_trace_id(99, 1));

        let fetched = client.fetch_trace(trace_id).unwrap();
        assert_eq!(fetched.trace_id, None, "introspection is not traced");
        let traces = fetched.reply.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].get("trace_id").and_then(Json::as_str),
            Some(drone_telemetry::id_hex(trace_id).as_str())
        );

        let stats = client.stats().unwrap();
        let counters = stats
            .reply
            .get("stats")
            .and_then(|s| s.get("registry"))
            .and_then(|r| r.get("counters"))
            .expect("registry counters");
        assert_eq!(counters.get("serve.admin_requests"), Some(&Json::Num(2.0)));
        assert!(server.drain().clean);
    }

    #[test]
    fn backoff_delays_are_pinned_for_retry_zero_one_and_past_the_cap() {
        let registry = Registry::with_wall_clock();
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut client = Client::new(addr, ClientConfig::default(), &registry);
        // Replicate the client's jitter stream so every delay pins
        // exactly, not just within bounds.
        let mut jitter = Pcg32::new(ClientConfig::default().jitter_seed, 0xC11E);
        let mut expect = |base_ms: f64| {
            let factor = jitter.uniform(0.5, 1.0);
            assert!((0.5..=1.0).contains(&factor), "jitter factor {factor}");
            Duration::from_millis((base_ms * factor).round() as u64)
        };

        // Regression: retry 0 used to compute `(0 - 1).min(20)` — a
        // debug-build panic and a 2^20-scaled delay in release. It now
        // saturates to the first-retry delay.
        let zero = client.backoff_delay(0);
        assert_eq!(zero, expect(25.0));
        assert!(
            zero <= Duration::from_millis(25),
            "retry 0 must not blow up"
        );

        let one = client.backoff_delay(1);
        assert_eq!(one, expect(25.0));
        assert!((13..=25).contains(&(one.as_millis() as u64)));

        // Past the shift cap the 400 ms ceiling bounds the base; the
        // jitter keeps the delay in [200, 400].
        let far = client.backoff_delay(21);
        assert_eq!(far, expect(400.0));
        assert!((200..=400).contains(&(far.as_millis() as u64)));
    }
}
