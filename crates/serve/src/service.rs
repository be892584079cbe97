//! The engine-backed request service behind every reactor: batching,
//! panic isolation, introspection and `serve.*` accounting.
//!
//! [`EngineService`] is the [`LineHandler`] a plain [`crate::ReactorServer`]
//! answers complete request lines with; the [`crate::Router`] front
//! answers through one built over its engine shards. The reactor owns
//! sockets, framing and deadlines; everything past a complete line is
//! deterministic protocol code from [`crate::protocol`].
//!
//! [`DrainStats`] is what a graceful shutdown reports: the join count
//! lets tests (and CI) pin "no thread leaked" as an invariant rather
//! than a hope.

use crate::protocol::{
    self, AdminRequest, Backend, BatchPolicy, BatchTracing, ErrorKind, ReplySlot, RequestError,
};
use crate::reactor::{LineHandler, ReactorConfig};
use drone_explorer::{Explorer, QueryLimits};
use drone_telemetry::{Clock, Counter, Json, Registry, SharedHistogram, TraceRing};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a completed drain looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Threads joined: the acceptor plus every reactor.
    pub threads_joined: usize,
    /// Connections still open at shutdown, closed unserved.
    pub abandoned_connections: usize,
    /// True when every thread joined without panicking.
    pub clean: bool,
}

/// The `serve.*` metric family. Every engine-backed server registers
/// against the same names, so a process running several reports
/// aggregates.
struct Metrics {
    requests: Arc<Counter>,
    batches: Arc<Counter>,
    sheds: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    query_errors: Arc<Counter>,
    panics_caught: Arc<Counter>,
    deadline_sheds: Arc<Counter>,
    idle_timeouts: Arc<Counter>,
    admin_requests: Arc<Counter>,
    optimize_requests: Arc<Counter>,
    batch_size: Arc<SharedHistogram>,
    cost_units: Arc<SharedHistogram>,
    latency_s: Arc<SharedHistogram>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests: registry.counter("serve.requests"),
            batches: registry.counter("serve.batches"),
            sheds: registry.counter("serve.sheds"),
            protocol_errors: registry.counter("serve.errors.protocol"),
            query_errors: registry.counter("serve.errors.query"),
            panics_caught: registry.counter("serve.panics_caught"),
            deadline_sheds: registry.counter("serve.deadline_sheds"),
            idle_timeouts: registry.counter("serve.idle_timeouts"),
            admin_requests: registry.counter("serve.admin_requests"),
            optimize_requests: registry.counter("serve.optimize_requests"),
            batch_size: registry.histogram("serve.batch.size"),
            cost_units: registry.histogram("serve.request.cost_units"),
            latency_s: registry.histogram("serve.request.latency_s"),
        }
    }

    /// Accounts one completed batch. Runs *before* introspection slots
    /// resolve, so a `stats` reply observes the batch it rode in on.
    fn account(&self, batch_len: usize, outcome: &protocol::BatchOutcome, elapsed: f64) {
        self.batches.inc();
        self.requests.add(batch_len as u64);
        self.protocol_errors.add(outcome.protocol_errors as u64);
        self.query_errors.add(outcome.query_errors as u64);
        self.panics_caught.add(outcome.internal_errors as u64);
        self.deadline_sheds.add(outcome.deadline_sheds as u64);
        self.admin_requests.add(outcome.admin_requests as u64);
        self.optimize_requests.add(outcome.optimize_requests as u64);
        self.batch_size.record(batch_len as f64);
        self.cost_units.record(outcome.cost_units as f64);
        if batch_len > 0 {
            self.latency_s.record(elapsed / batch_len as f64);
        }
    }
}

/// What an [`EngineService`] answers with.
pub(crate) enum Engines {
    /// One engine, answering every request kind.
    One(Box<Explorer>),
    /// A router's shards: every grid query runs over all of them (see
    /// [`drone_explorer::try_run_sharded`]), introspection is answered
    /// as usual, and optimize requests are refused with `bad_request`.
    Shards(Vec<Explorer>),
}

/// Everything needed to answer a batch of complete request lines:
/// engine, limits, tracing, metric accounting, and the reactors'
/// open-connection count for `stats` replies.
pub struct EngineService {
    engines: Engines,
    limits: QueryLimits,
    max_batch: usize,
    cost_deadline: Option<u64>,
    trace_seed: u64,
    clock: Clock,
    metrics: Metrics,
    registry: Registry,
    traces: TraceRing,
    live: Arc<AtomicUsize>,
}

impl EngineService {
    /// Wraps an engine with `config`'s batching, limits and tracing
    /// settings. `live` is the reactors' open-connection gauge; a
    /// `stats` reply reports it as `queue_depth` (the reactor has no
    /// admission queue — its backlog *is* its open connections).
    pub(crate) fn new(
        engines: Engines,
        registry: &Registry,
        config: &ReactorConfig,
        live: Arc<AtomicUsize>,
    ) -> EngineService {
        EngineService {
            engines,
            limits: config.limits,
            max_batch: config.max_batch,
            cost_deadline: config.cost_deadline,
            trace_seed: config.trace_seed,
            clock: registry.clock().clone(),
            metrics: Metrics::new(registry),
            registry: registry.clone(),
            traces: TraceRing::new(config.trace_capacity),
            live,
        }
    }

    /// Resolves one introspection slot against live server state.
    fn admin_reply(&self, id: &Json, request: &AdminRequest) -> Json {
        match request {
            AdminRequest::Stats => {
                let stats = Json::obj()
                    .with("registry", self.registry.snapshot())
                    .with("queue_depth", self.live.load(Ordering::SeqCst) as f64)
                    .with(
                        "traces",
                        Json::obj()
                            .with("completed", self.traces.completed() as f64)
                            .with("retained", self.traces.len() as f64)
                            .with("dropped_spans", self.traces.dropped_spans() as f64),
                    );
                Json::obj()
                    .with("id", id.clone())
                    .with("ok", true)
                    .with("stats", stats)
            }
            AdminRequest::Trace(fetch) => {
                let traces = match fetch.trace_id {
                    Some(trace_id) => self.traces.find(trace_id).into_iter().collect(),
                    None => self.traces.last(fetch.last),
                };
                let mut arr = Json::arr();
                for trace in &traces {
                    arr.push(trace.to_json());
                }
                Json::obj()
                    .with("id", id.clone())
                    .with("ok", true)
                    .with("traces", arr)
            }
        }
    }

    /// Answers `lines` in input order, `max_batch` lines per engine
    /// batch, appending one newline-terminated reply per line to `out`.
    /// Returns how many of the replies were errors.
    pub(crate) fn answer_lines(&self, lines: &[String], out: &mut String) -> usize {
        let policy = BatchPolicy {
            cost_deadline: self.cost_deadline,
        };
        let backend = match &self.engines {
            Engines::One(engine) => Backend::Engine(engine),
            Engines::Shards(shards) => Backend::Shards(shards),
        };
        let mut rejected = 0;
        for chunk in lines.chunks(self.max_batch.max(1)) {
            let batch: Vec<&str> = chunk.iter().map(String::as_str).collect();
            let started = self.clock.now();
            // The batch handler already converts evaluation panics
            // into per-request internal_error replies; this second
            // layer covers everything else (the protocol code, or a
            // panic re-raised from a shard's thread), answering the
            // whole batch with typed errors rather than dropping the
            // connection.
            let (slots, outcome) = catch_unwind(AssertUnwindSafe(|| {
                let tracing = BatchTracing {
                    ring: &self.traces,
                    clock: self.clock.clone(),
                    seed: self.trace_seed,
                };
                protocol::handle_batch_core(backend, &batch, &self.limits, policy, Some(&tracing))
            }))
            .unwrap_or_else(|_| {
                let error = RequestError {
                    kind: ErrorKind::Internal,
                    message: "batch processing panicked".into(),
                };
                let slots = batch
                    .iter()
                    .map(|_| ReplySlot::Line(protocol::render_error_reply(&Json::Null, &error)))
                    .collect();
                let outcome = protocol::BatchOutcome {
                    internal_errors: batch.len(),
                    ..protocol::BatchOutcome::default()
                };
                (slots, outcome)
            });
            let elapsed = self.clock.now() - started;
            self.metrics.account(batch.len(), &outcome, elapsed);
            rejected += outcome.rejected();
            for slot in &slots {
                match slot {
                    ReplySlot::Line(line) => out.push_str(line),
                    ReplySlot::Admin { id, request } => {
                        out.push_str(&self.admin_reply(id, request).render());
                    }
                }
                out.push('\n');
            }
        }
        rejected
    }
}

impl LineHandler for EngineService {
    fn handle_lines(&self, lines: &[String], out: &mut String) {
        self.answer_lines(lines, out);
    }

    /// One refusal line for a connection-level fault (oversized line,
    /// progress deadline), charged to the matching counter.
    fn refusal(&self, kind: ErrorKind, message: &str) -> String {
        let counter = match kind {
            ErrorKind::DeadlineExceeded => &self.metrics.idle_timeouts,
            _ => &self.metrics.protocol_errors,
        };
        counter.inc();
        protocol::render_error_reply(
            &Json::Null,
            &RequestError {
                kind,
                message: message.into(),
            },
        )
    }

    /// One structured overload line for a connection shed at the door.
    fn overloaded(&self) -> String {
        self.metrics.sheds.inc();
        protocol::render_error_reply(
            &Json::Null,
            &RequestError {
                kind: ErrorKind::Overloaded,
                message: "queue full; retry later".into(),
            },
        )
    }
}
