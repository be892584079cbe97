//! A batched design-space-exploration query server.
//!
//! `drone-serve` puts the [`drone_explorer`] engine behind a TCP
//! socket speaking newline-delimited JSON: one request per line, one
//! reply per request, in order. It is the serving tier the
//! paper's methodology implies but never builds — once the
//! cycle-accurate model is replaced by closed-form sizing, a
//! design-space query is cheap enough to answer interactively, and the
//! interesting systems problems move to admission control, batching
//! and tail latency.
//!
//! The crate is layered, each layer usable on its own:
//!
//! - [`protocol`] — pure request/reply code: strict parsing into
//!   validated [`drone_explorer::Query`] values, typed
//!   [`protocol::RequestError`]s for every malformed shape, and
//!   [`protocol::handle_batch`], which answers a batch of request
//!   lines one by one, in input order, against one shared engine, so
//!   pipelined queries share its memoization cache.
//! - [`framer`] — incremental newline framing: linear-time watermark
//!   scanning, one copy per line, `too_large` resynchronization, and
//!   the `has_partial` ground truth the progress deadlines are armed
//!   on.
//! - [`service`] — the engine-backed [`EngineService`]: coalesces
//!   complete lines into protocol batches, isolates panics, answers
//!   introspection, and owns the `serve.*` metric family.
//! - [`reactor`] — the serving front-end: per-core epoll reactor
//!   threads over raw readiness syscalls (no libc, no runtime crate),
//!   each owning a slab of nonblocking connections, with no idle
//!   busy-polling — an idle server makes zero `epoll_wait` returns.
//!   Past the per-reactor connection ceiling a fresh connection gets
//!   one structured `overloaded` reply, and [`ReactorServer::drain`]
//!   joins every thread. The epoll shims exist only on Linux
//!   x86_64/aarch64; other targets build but have no front-end.
//! - [`router`] — in-process sharding: the memo cache's quantized-FNV
//!   scheme lifted to N engines that each evaluate their partition of
//!   every round inside the engine's own round loop, so replies are
//!   byte-identical to one engine's at every shard count (DESIGN §14).
//! - [`workload`] — deterministic seeded client workloads, so the
//!   `repro serve` / `repro serve_scale` benchmarks replay the same
//!   byte stream every run and their artifacts stay byte-stable
//!   across thread counts.
//!
//! Nothing in the request path may panic on untrusted input;
//! `tests/properties.rs` feeds arbitrary bytes and adversarial grids
//! through both the pure batch handler and a live socket to keep that
//! true.
//!
//! On top of the request path sits the **introspection plane**: every
//! served request records a causal span tree (deterministic trace ids,
//! client-stamped or server-derived; only a client-stamped id buys the
//! per-point tree, the rest record per-stage aggregates) into a bounded
//! ring, and two
//! additional wire request kinds — `{"id":..,"stats":{}}` and
//! `{"id":..,"trace":{"last":N}}` — let a live client snapshot the
//! metrics registry, open-connection count and recent span trees
//! mid-workload.

pub mod chaos;
pub mod client;
pub mod framer;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod service;
pub(crate) mod sys;
pub mod workload;

pub use chaos::{ChaosProxy, Fault, FaultSchedule, ProxyStats};
pub use client::{CallError, CallSuccess, Client, ClientConfig};
pub use framer::{FrameEvent, LineFramer};
pub use protocol::{
    answer_to_json, cost_units, error_reply, handle_batch, handle_batch_traced, ok_optimize_reply,
    ok_reply, optimize_answer_to_json, optimize_cost_units, optimize_request_to_json,
    optimize_request_to_json_traced, parse_request, request_to_json, request_to_json_traced,
    stats_request_json, trace_request_json, AdminRequest, BatchOutcome, BatchPolicy, BatchTracing,
    ErrorKind, ReplySlot, Request, RequestBody, RequestError, TraceQuery, MAX_TRACE_FETCH,
};
pub use reactor::{LineHandler, ReactorConfig, ReactorServer};
pub use router::{Router, RouterConfig};
pub use service::{DrainStats, EngineService};
pub use workload::Workload;
