//! Flight-recorder telemetry: where the time and the power go.
//!
//! The workspace turns measured compute/power/timing numbers into
//! flight-time predictions, so being able to *see inside a run* is a
//! first-class requirement (MAVBench makes the same argument for
//! closed-loop MAV benchmarks). This crate is the zero-dependency
//! observability layer the rest of the stack records into:
//!
//! * [`metrics`] — counters, gauges and fixed-bucket log-scale
//!   histograms with p50/p90/p99/max extraction, in plain and atomic
//!   (shared-handle) flavours.
//! * [`registry`] — the named-metric [`Registry`]: lock-free-ish
//!   updates through `Arc` handles, stable sorted JSON snapshots, and
//!   RAII [`span!`] timing guards.
//! * [`clock`] — the wall/sim [`Clock`] spans measure against, so the
//!   same instrumentation works on the live server (wall time) and in
//!   deterministic fixed-step simulations (sim time).
//! * [`recorder`] — the [`FlightRecorder`] black box: a ring buffer of
//!   per-tick channel samples (attitude, motor commands, battery, EKF
//!   health…) dumped as JSONL when a failsafe fires or a crash is
//!   detected.
//! * [`trace`] — causal span-tree tracing with deterministic ids: the
//!   per-request attribution layer behind the serving stack's `trace`
//!   introspection plane ([`TraceBuilder`], RAII [`Span`]s and their
//!   block-local [`SpanBatch`]es, the bounded [`TraceRing`] of
//!   completed traces).
//! * [`json`] — the minimal JSON document model behind every export
//!   and wire message (the workspace uses no serialization crate).
//!
//! # Example
//!
//! ```
//! use drone_telemetry::{span, DumpReason, FlightRecorder, Registry};
//!
//! let registry = Registry::with_sim_clock();
//! let ticks = registry.counter("sim.ticks");
//! let mut blackbox = FlightRecorder::new(512);
//! let altitude = blackbox.channel("position.z");
//!
//! for tick in 0..1000u64 {
//!     let t = tick as f64 * 1e-3;
//!     registry.clock().set(t);
//!     let _step = span!(&registry, "sim.step");
//!     ticks.inc();
//!     blackbox.begin_tick(t);
//!     blackbox.set(altitude, 10.0);
//!     blackbox.commit_tick();
//! }
//!
//! assert_eq!(registry.counter("sim.ticks").get(), 1000);
//! let dump = blackbox.dump(&DumpReason::Requested("post-flight".into()));
//! assert_eq!(dump.lines().count(), 513); // header + the retained window
//! ```

pub mod clock;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use clock::Clock;
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, SharedHistogram};
pub use recorder::{ChannelId, DumpReason, FlightRecorder};
pub use registry::{global, Registry, SpanGuard};
pub use trace::{
    derive_trace_id, derive_trace_id_bytes, id_hex, parse_id_hex, Span, SpanBatch, SpanRecord,
    TagValue, Trace, TraceBuilder, TraceRing,
};
