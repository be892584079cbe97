//! Causal span-tree tracing with deterministic IDs.
//!
//! Aggregate counters say *how much*; traces say *where*. This module
//! is the per-request attribution layer for the serving stack: every
//! request owns one [`TraceBuilder`], stages open RAII [`Span`]s that
//! record themselves on drop, and the finished [`Trace`] is a flat span
//! table that renders as a tree.
//!
//! Three properties are load-bearing:
//!
//! * **Deterministic IDs.** A trace id is an FNV-1a digest of the
//!   workload seed and the request id ([`derive_trace_id`]); a span id
//!   is a digest of `(trace_id, parent span id, name, order)` where
//!   `order` is a *caller-supplied* structural index (round number,
//!   input point index, …) — never an arrival-order counter. Identical
//!   work therefore produces identical ids at any thread count, which
//!   is what lets `BENCH_trace.json` be byte-compared across
//!   `--threads 1` and `--threads 4`.
//! * **Closed exactly once.** A span records only from `Drop`, so
//!   unwinding (a poisoned eval panicking mid-block) still closes it,
//!   and it cannot be recorded twice.
//! * **Cheap enough to leave on: aggregate by default, detail on
//!   request.** The server traces every request, but a trace carries a
//!   *detail bit* fixed when its [`TraceBuilder`] is built and read
//!   through [`Span::detailed`]. Hot loops consult it: an aggregate
//!   trace records one span per stage, tagged with the stage's counts,
//!   where a detailed trace records one span per item. The server
//!   builds a request's trace detailed only when the client stamped
//!   its own `trace_id`, so an operator who wants a per-point tree
//!   stamps the request and fetches that id. Either way a span
//!   allocates nothing: its name is a `&'static str` and its tags are
//!   inline `Copy` [`TagValue`]s. Every span, whichever thread opened
//!   it, records into the trace's one span table on drop, under one
//!   short lock, and the span capacity applies there.
//!
//! A leaked guard (`mem::forget`) never records and never closes, so it
//! is counted in [`Trace::open_at_finish`] exactly once; its closed
//! siblings and children still appear.
//!
//! What is deterministic: the span set, ids, names, parentage, sibling
//! order, and tags. What is not: wall-clock `start_s`/`end_s` and the
//! worker index a task landed on. [`Trace::deterministic_json`] renders
//! only the former; [`Trace::to_json`] includes everything.

use crate::clock::Clock;
use crate::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Spans retained per trace before the builder starts counting drops
/// instead of recording — a runaway-query backstop, not a tuning knob.
pub const MAX_SPANS_PER_TRACE: usize = 8192;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The trace id for a request: FNV-1a over the workload seed and the
/// numeric request id. Never zero (zero means "untraced"). No
/// randomness anywhere, so the same seeded workload produces the same
/// ids on every run and at every thread count.
pub fn derive_trace_id(seed: u64, request_id: u64) -> u64 {
    let hash = fnv_bytes(
        fnv_bytes(FNV_OFFSET, &seed.to_le_bytes()),
        &request_id.to_le_bytes(),
    );
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// The trace id for a request whose id is not a plain integer: digests
/// arbitrary bytes instead. Same non-zero guarantee.
pub fn derive_trace_id_bytes(seed: u64, id_bytes: &[u8]) -> u64 {
    let hash = fnv_bytes(fnv_bytes(FNV_OFFSET, &seed.to_le_bytes()), id_bytes);
    if hash == 0 {
        1
    } else {
        hash
    }
}

fn derive_span_id(trace_id: u64, parent_id: u64, name: &str, order: u64) -> u64 {
    let mut hash = fnv_bytes(FNV_OFFSET, &trace_id.to_le_bytes());
    hash = fnv_bytes(hash, &parent_id.to_le_bytes());
    hash = fnv_bytes(hash, name.as_bytes());
    hash = fnv_bytes(hash, &order.to_le_bytes());
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// A 64-bit id rendered the way it crosses the wire: 16 lower-case hex
/// characters. `Json::Num` is an `f64` and silently loses integer
/// precision above 2^53, so ids are *always* strings in JSON.
pub fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses an id rendered by [`id_hex`]. Strict: exactly 16 lower-case
/// hex characters.
pub fn parse_id_hex(text: &str) -> Option<u64> {
    if text.len() != 16
        || !text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// A tag value: a static string, a bool or a number. `Copy`, so
/// tagging a span never allocates; renders to exactly the JSON the
/// matching [`Json`] value would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TagValue {
    /// A static string, e.g. a cache outcome.
    Str(&'static str),
    /// A flag, e.g. feasibility.
    Bool(bool),
    /// A number; stored as `f64` like [`Json::Num`].
    Num(f64),
}

impl TagValue {
    /// The string, when this is one.
    pub fn as_str(self) -> Option<&'static str> {
        match self {
            TagValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<&'static str> for TagValue {
    fn from(s: &'static str) -> TagValue {
        TagValue::Str(s)
    }
}

impl From<bool> for TagValue {
    fn from(b: bool) -> TagValue {
        TagValue::Bool(b)
    }
}

impl From<u64> for TagValue {
    /// Lossy above 2⁵³, as [`Json`]'s own conversion is.
    fn from(n: u64) -> TagValue {
        TagValue::Num(n as f64)
    }
}

impl From<usize> for TagValue {
    fn from(n: usize) -> TagValue {
        TagValue::Num(n as f64)
    }
}

impl From<TagValue> for Json {
    fn from(value: TagValue) -> Json {
        match value {
            TagValue::Str(s) => Json::from(s),
            TagValue::Bool(b) => Json::Bool(b),
            TagValue::Num(n) => Json::Num(n),
        }
    }
}

/// Tags a span holds inline — the most any call site sets (the root's
/// strategy, outcome and cost). Further tags spill to the heap.
const INLINE_TAGS: usize = 3;

/// A span's tags in insertion order, stored inline.
#[derive(Debug, Clone, PartialEq)]
pub struct Tags {
    len: usize,
    inline: [(&'static str, TagValue); INLINE_TAGS],
    spill: Vec<(&'static str, TagValue)>,
}

impl Default for Tags {
    fn default() -> Tags {
        Tags {
            len: 0,
            inline: [("", TagValue::Bool(false)); INLINE_TAGS],
            spill: Vec::new(),
        }
    }
}

impl Tags {
    fn push(&mut self, key: &'static str, value: TagValue) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = (key, value),
            None => self.spill.push((key, value)),
        }
        self.len += 1;
    }

    /// The tags in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, TagValue)> + '_ {
        self.inline[..self.len.min(INLINE_TAGS)]
            .iter()
            .chain(&self.spill)
            .copied()
    }

    /// The first value tagged under `key`.
    pub fn get(&self, key: &str) -> Option<TagValue> {
        self.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One closed span: an interval in the request's lifetime with a name,
/// a deterministic position in the tree, and deterministic tags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRecord {
    /// Deterministic id ([`derive_trace_id`]-style digest).
    pub span_id: u64,
    /// Parent span id; 0 for the root.
    pub parent_id: u64,
    /// Caller-supplied sibling index — the deterministic sort key for
    /// children of one parent.
    pub order: u64,
    /// Stage name, e.g. `serve.request`, `explore.round`, `eval.power`.
    pub name: &'static str,
    /// Deterministic annotations in insertion order (cache outcome,
    /// feasibility, cost units, …).
    pub tags: Tags,
    /// Work-stealing worker the span ran on. Scheduling-dependent:
    /// excluded from the deterministic rendering.
    pub worker: Option<usize>,
    /// Clock seconds at open. Scheduling-dependent under a wall clock.
    pub start_s: f64,
    /// Clock seconds at close.
    pub end_s: f64,
}

struct TraceCore {
    trace_id: u64,
    /// Whether hot loops record one span per item (see the module docs).
    detailed: bool,
    clock: Clock,
    capacity: usize,
    spans: Mutex<Vec<SpanRecord>>,
    open: AtomicU64,
    dropped: AtomicU64,
}

impl TraceCore {
    fn lock(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keeps the record while the trace has room and counts it as
    /// dropped otherwise.
    fn record(&self, record: SpanRecord) {
        let mut spans = self.lock();
        if spans.len() < self.capacity {
            spans.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The per-request trace under construction. Cheap to share: spans hold
/// an `Arc` of the same core, so workers on other threads can open
/// children concurrently.
pub struct TraceBuilder {
    core: Arc<TraceCore>,
}

impl TraceBuilder {
    /// A detailed builder for `trace_id`, timing spans on `clock`,
    /// retaining at most [`MAX_SPANS_PER_TRACE`] spans.
    pub fn new(trace_id: u64, clock: Clock) -> TraceBuilder {
        TraceBuilder::with_detail(trace_id, clock, true)
    }

    /// A builder whose spans report `detailed` from [`Span::detailed`]:
    /// `false` asks hot loops for one aggregate span per stage instead
    /// of one span per item.
    pub fn with_detail(trace_id: u64, clock: Clock, detailed: bool) -> TraceBuilder {
        TraceBuilder::build(trace_id, clock, MAX_SPANS_PER_TRACE, detailed)
    }

    /// A detailed builder with an explicit span capacity (tests shrink
    /// it to exercise the drop counter).
    pub fn with_capacity(trace_id: u64, clock: Clock, capacity: usize) -> TraceBuilder {
        TraceBuilder::build(trace_id, clock, capacity, true)
    }

    fn build(trace_id: u64, clock: Clock, capacity: usize, detailed: bool) -> TraceBuilder {
        TraceBuilder {
            core: Arc::new(TraceCore {
                trace_id,
                detailed,
                clock,
                capacity,
                spans: Mutex::new(Vec::new()),
                open: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// The id every span in this trace carries.
    pub fn trace_id(&self) -> u64 {
        self.core.trace_id
    }

    /// Opens the root span (parent 0, order 0).
    pub fn root(&self, name: &'static str) -> Span {
        Span::open(Arc::clone(&self.core), 0, name, 0)
    }

    /// Open guards: spans created and not yet dropped.
    pub fn open_spans(&self) -> u64 {
        self.core.open.load(Ordering::Acquire)
    }

    /// Closes the trace. Spans are sorted on the total key
    /// `(span_id, parent_id, order, name)` — a deterministic order
    /// independent of which worker finished first. Guards still open at
    /// this point are *leaked*; they are counted in
    /// [`Trace::open_at_finish`] and never appear in the span table.
    pub fn finish(self) -> Trace {
        let mut spans = std::mem::take(&mut *self.core.lock());
        // Sort thin keys, then move each record once into place.
        let mut keys: Vec<(u64, u64, u64, &'static str, usize)> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id, s.parent_id, s.order, s.name, i))
            .collect();
        keys.sort_unstable();
        let spans = keys
            .iter()
            .map(|&(.., i)| std::mem::take(&mut spans[i]))
            .collect();
        Trace {
            trace_id: self.core.trace_id,
            spans,
            dropped_spans: self.core.dropped.load(Ordering::Relaxed),
            open_at_finish: self.core.open.load(Ordering::Acquire),
        }
    }
}

/// An open span: an RAII guard that records itself on drop — exactly
/// once, even when unwinding from a panic.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span {
    trace: Arc<TraceCore>,
    /// The record under construction; `end_s` is stamped on drop.
    record: SpanRecord,
}

impl Span {
    fn open(trace: Arc<TraceCore>, parent_id: u64, name: &'static str, order: u64) -> Span {
        let span_id = derive_span_id(trace.trace_id, parent_id, name, order);
        let start_s = trace.clock.now();
        trace.open.fetch_add(1, Ordering::AcqRel);
        Span {
            trace,
            record: SpanRecord {
                span_id,
                parent_id,
                order,
                name,
                start_s,
                ..SpanRecord::default()
            },
        }
    }

    /// This span's deterministic id.
    pub fn span_id(&self) -> u64 {
        self.record.span_id
    }

    /// The id of the trace this span belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace.trace_id
    }

    /// Whether this span's trace wants one span per item (`true`) or
    /// one aggregate span per stage (`false`); fixed when its
    /// [`TraceBuilder`] was built.
    pub fn detailed(&self) -> bool {
        self.trace.detailed
    }

    /// Opens a child span. `order` is the child's structural index
    /// under this parent (round number, point index, …) and is part of
    /// its id — two children of one parent must not share
    /// `(name, order)`.
    pub fn child(&self, name: &'static str, order: u64) -> Span {
        Span::open(Arc::clone(&self.trace), self.record.span_id, name, order)
    }

    /// Attaches a deterministic annotation. Insertion order is
    /// preserved in the rendering, so tag in a deterministic order.
    pub fn tag(&mut self, key: &'static str, value: impl Into<TagValue>) {
        self.record.tags.push(key, value.into());
    }

    /// Notes which executor worker ran this span. Scheduling-dependent:
    /// kept out of the deterministic rendering.
    pub fn set_worker(&mut self, worker: usize) {
        self.record.worker = Some(worker);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let mut record = std::mem::take(&mut self.record);
        record.end_s = self.trace.clock.now();
        self.trace.record(record);
        self.trace.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A finished trace: the flat span table plus bookkeeping. Renders as
/// a tree in two flavours — full ([`Trace::to_json`]) and
/// scheduling-independent ([`Trace::deterministic_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The deterministic request-derived id.
    pub trace_id: u64,
    /// Every recorded span, sorted by `(span_id, parent_id, order,
    /// name)`.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the trace hit its capacity.
    pub dropped_spans: u64,
    /// Guards still open when `finish()` ran — always 0 in a
    /// well-formed trace.
    pub open_at_finish: u64,
}

/// The span table indexed by parent, built once per walk of the tree.
struct Tree<'a> {
    /// Every span, ordered by `(parent_id, order, span_id)`; ties keep
    /// table order.
    by_parent: Vec<&'a SpanRecord>,
}

impl<'a> Tree<'a> {
    fn new(trace: &'a Trace) -> Tree<'a> {
        let mut by_parent: Vec<&SpanRecord> = trace.spans.iter().collect();
        by_parent.sort_by_key(|s| (s.parent_id, s.order, s.span_id));
        Tree { by_parent }
    }

    /// The children of `span_id`, in rendering order.
    fn children(&self, span_id: u64) -> &[&'a SpanRecord] {
        let lo = self.by_parent.partition_point(|s| s.parent_id < span_id);
        let len = self.by_parent[lo..].partition_point(|s| s.parent_id == span_id);
        &self.by_parent[lo..lo + len]
    }

    fn depth(&self, span: &SpanRecord) -> usize {
        1 + self
            .children(span.span_id)
            .iter()
            .map(|child| self.depth(child))
            .max()
            .unwrap_or(0)
    }

    fn node_json(&self, span: &SpanRecord, scheduling: bool) -> Json {
        let mut tags = Json::obj();
        for (key, value) in span.tags.iter() {
            tags.insert(key, value);
        }
        let mut node = Json::obj()
            .with("span", id_hex(span.span_id))
            .with("name", span.name)
            .with("order", span.order)
            .with("tags", tags);
        if scheduling {
            if let Some(worker) = span.worker {
                node.insert("worker", worker);
            }
            node.insert("start_s", span.start_s);
            node.insert("end_s", span.end_s);
            node.insert("elapsed_s", span.end_s - span.start_s);
        }
        let mut arr = Json::arr();
        for child in self.children(span.span_id) {
            arr.push(self.node_json(child, scheduling));
        }
        node.insert("children", arr);
        node
    }
}

impl Trace {
    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Depth of the rendered tree (root = 1; empty trace = 0).
    pub fn depth(&self) -> usize {
        let tree = Tree::new(self);
        self.roots()
            .into_iter()
            .map(|root| tree.depth(root))
            .max()
            .unwrap_or(0)
    }

    /// Spans tagged `key == value` (string tags only).
    pub fn count_tagged(&self, key: &str, value: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.tags
                    .iter()
                    .any(|(k, v)| k == key && v.as_str() == Some(value))
            })
            .count()
    }

    /// Spans with this name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The sum of every numeric tag under `key`, across all spans —
    /// how an aggregate trace's stage counts add up.
    pub fn sum_tag(&self, key: &str) -> f64 {
        self.spans
            .iter()
            .flat_map(|s| s.tags.iter())
            .filter_map(|(k, v)| match v {
                TagValue::Num(n) if k == key => Some(n),
                _ => None,
            })
            .sum()
    }

    /// The first tag value on the root span with this key.
    pub fn root_tag(&self, key: &str) -> Option<TagValue> {
        self.roots().first().and_then(|root| root.tags.get(key))
    }

    fn roots(&self) -> Vec<&SpanRecord> {
        // Roots proper, plus orphans whose parent was dropped over
        // capacity — rendered at top level rather than lost.
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        let mut roots: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent_id == 0 || ids.binary_search(&s.parent_id).is_err())
            .collect();
        roots.sort_by_key(|s| (s.order, s.span_id));
        roots
    }

    fn tree_json(&self, scheduling: bool) -> Json {
        let tree = Tree::new(self);
        let mut roots = Json::arr();
        for root in self.roots() {
            roots.push(tree.node_json(root, scheduling));
        }
        Json::obj()
            .with("trace_id", id_hex(self.trace_id))
            .with("spans", self.span_count())
            .with("dropped_spans", self.dropped_spans)
            .with("open_at_finish", self.open_at_finish)
            .with("tree", roots)
    }

    /// The full rendering: tree shape, tags, worker indexes and wall
    /// timings. What the `trace` wire request returns.
    pub fn to_json(&self) -> Json {
        self.tree_json(true)
    }

    /// The scheduling-independent rendering: tree shape, names, orders
    /// and tags only — no timings, no worker indexes. Byte-stable
    /// across thread counts; what `BENCH_trace.json` embeds.
    pub fn deterministic_json(&self) -> Json {
        self.tree_json(false)
    }
}

struct RingState {
    traces: VecDeque<Trace>,
    completed: u64,
    dropped_spans: u64,
}

/// A bounded ring of the last N completed traces — the storage behind
/// the server's `trace` introspection request. Push-side eviction, so
/// a long-lived server holds memory proportional to the capacity, not
/// the request count.
pub struct TraceRing {
    capacity: usize,
    state: Mutex<RingState>,
}

impl TraceRing {
    /// A ring retaining the newest `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                traces: VecDeque::new(),
                completed: 0,
                dropped_spans: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds a completed trace, evicting the oldest beyond capacity.
    pub fn push(&self, trace: Trace) {
        let mut state = self.lock();
        state.completed += 1;
        state.dropped_spans += trace.dropped_spans;
        if state.traces.len() == self.capacity {
            state.traces.pop_front();
        }
        state.traces.push_back(trace);
    }

    /// The newest `n` traces, oldest first.
    pub fn last(&self, n: usize) -> Vec<Trace> {
        let state = self.lock();
        let skip = state.traces.len().saturating_sub(n);
        state.traces.iter().skip(skip).cloned().collect()
    }

    /// The retained trace with this id, if it has not been evicted.
    pub fn find(&self, trace_id: u64) -> Option<Trace> {
        let state = self.lock();
        state
            .traces
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Traces pushed over the ring's lifetime (retained or evicted).
    pub fn completed(&self) -> u64 {
        self.lock().completed
    }

    /// Total spans dropped across every pushed trace — 0 in a healthy
    /// run.
    pub fn dropped_spans(&self) -> u64 {
        self.lock().dropped_spans
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.lock().traces.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained window as JSONL, flight-recorder style: one header
    /// line with the ring's bookkeeping, then one compact line per
    /// trace, oldest first.
    pub fn dump_jsonl(&self) -> String {
        let state = self.lock();
        let header = Json::obj()
            .with("trace_dump", true)
            .with("retained", state.traces.len())
            .with("completed", state.completed)
            .with("dropped_spans", state.dropped_spans);
        let mut out = header.render();
        out.push('\n');
        for trace in &state.traces {
            out.push_str(&trace.to_json().render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_builder(trace_id: u64) -> TraceBuilder {
        TraceBuilder::new(trace_id, Clock::sim())
    }

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        let a = derive_trace_id(7, 1_000_001);
        let b = derive_trace_id(7, 1_000_001);
        let c = derive_trace_id(8, 1_000_001);
        let d = derive_trace_id(7, 1_000_002);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, 0);
        assert_ne!(derive_trace_id_bytes(7, b"\"alpha\""), 0);
    }

    #[test]
    fn id_hex_round_trips_and_is_strict() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX, derive_trace_id(3, 9)] {
            assert_eq!(parse_id_hex(&id_hex(id)), Some(id));
        }
        assert_eq!(parse_id_hex("xyz"), None);
        assert_eq!(parse_id_hex("00000000000000"), None); // too short
        assert_eq!(parse_id_hex("00000000000000AB"), None); // upper case
        assert_eq!(parse_id_hex("000000000000001g"), None);
    }

    #[test]
    fn spans_record_on_drop_and_nest() {
        let builder = sim_builder(42);
        {
            let root = builder.root("serve.request");
            builder.core.clock.advance(0.5);
            {
                let mut child = root.child("explore.round", 0);
                child.tag("points", 15u64);
                builder.core.clock.advance(0.25);
            }
            assert_eq!(builder.open_spans(), 1);
        }
        assert_eq!(builder.open_spans(), 0);
        let trace = builder.finish();
        assert_eq!(trace.span_count(), 2);
        assert_eq!(trace.open_at_finish, 0);
        assert_eq!(trace.dropped_spans, 0);
        assert_eq!(trace.depth(), 2);
        let root = trace.roots()[0];
        assert_eq!(root.name, "serve.request");
        assert_eq!(root.end_s - root.start_s, 0.75);
        assert_eq!(trace.count_named("explore.round"), 1);
    }

    #[test]
    fn span_ids_do_not_depend_on_close_order() {
        // Same structure, children closed in opposite orders.
        let collect = |reverse: bool| {
            let builder = sim_builder(99);
            let root = builder.root("r");
            let a = root.child("p", 0);
            let b = root.child("p", 1);
            if reverse {
                drop(a);
                drop(b);
            } else {
                drop(b);
                drop(a);
            }
            drop(root);
            let trace = builder.finish();
            trace.spans.iter().map(|s| s.span_id).collect::<Vec<_>>()
        };
        assert_eq!(collect(false), collect(true));
    }

    #[test]
    fn deterministic_json_hides_scheduling_facts() {
        let builder = sim_builder(7);
        {
            let root = builder.root("serve.request");
            let mut child = root.child("point", 3);
            child.set_worker(2);
            child.tag("cache", "miss");
        }
        let trace = builder.finish();
        let full = trace.to_json().render();
        let det = trace.deterministic_json().render();
        assert!(full.contains("worker"));
        assert!(full.contains("start_s"));
        assert!(!det.contains("worker"));
        assert!(!det.contains("start_s"));
        assert!(det.contains("\"cache\":\"miss\""));
        assert_eq!(trace.count_tagged("cache", "miss"), 1);
    }

    #[test]
    fn the_detail_bit_reaches_every_span_and_tags_sum() {
        for detailed in [false, true] {
            let builder = TraceBuilder::with_detail(3, Clock::sim(), detailed);
            {
                let root = builder.root("r");
                assert_eq!(root.detailed(), detailed);
                for i in 0..3u64 {
                    let mut span = root.child("p", i);
                    assert_eq!(span.child("leaf", 0).detailed(), detailed);
                    span.tag("hits", i);
                    span.tag("cache", "hit");
                }
            }
            let trace = builder.finish();
            assert_eq!(trace.sum_tag("hits"), 3.0);
            assert_eq!(trace.sum_tag("cache"), 0.0, "string tags do not sum");
            assert_eq!(trace.sum_tag("absent"), 0.0);
        }
        assert!(sim_builder(4).root("r").detailed(), "`new` stays detailed");
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let builder = TraceBuilder::with_capacity(5, Clock::sim(), 2);
        {
            let root = builder.root("r");
            for i in 0..4 {
                let _ = root.child("p", i);
            }
        }
        let trace = builder.finish();
        assert_eq!(trace.span_count(), 2);
        assert_eq!(trace.dropped_spans, 3); // 2 children + the root
        assert_eq!(trace.open_at_finish, 0);
    }

    /// The renderer before the children index: scans the whole table
    /// for every node. The indexed one must match it byte for byte.
    fn scanning_json(trace: &Trace, scheduling: bool) -> Json {
        fn sorted(mut spans: Vec<&SpanRecord>) -> Vec<&SpanRecord> {
            spans.sort_by_key(|s| (s.order, s.span_id));
            spans
        }
        fn node_of(trace: &Trace, span: &SpanRecord, scheduling: bool) -> Json {
            let mut tags = Json::obj();
            for (key, value) in span.tags.iter() {
                tags.insert(key, value);
            }
            let mut node = Json::obj()
                .with("span", id_hex(span.span_id))
                .with("name", span.name)
                .with("order", span.order)
                .with("tags", tags);
            if scheduling {
                if let Some(worker) = span.worker {
                    node.insert("worker", worker);
                }
                node.insert("start_s", span.start_s);
                node.insert("end_s", span.end_s);
                node.insert("elapsed_s", span.end_s - span.start_s);
            }
            let children = trace.spans.iter().filter(|s| s.parent_id == span.span_id);
            let mut arr = Json::arr();
            for child in sorted(children.collect()) {
                arr.push(node_of(trace, child, scheduling));
            }
            node.insert("children", arr);
            node
        }
        let roots = trace
            .spans
            .iter()
            .filter(|s| s.parent_id == 0 || !trace.spans.iter().any(|p| p.span_id == s.parent_id));
        let mut arr = Json::arr();
        for root in sorted(roots.collect()) {
            arr.push(node_of(trace, root, scheduling));
        }
        Json::obj()
            .with("trace_id", id_hex(trace.trace_id))
            .with("spans", trace.span_count())
            .with("dropped_spans", trace.dropped_spans)
            .with("open_at_finish", trace.open_at_finish)
            .with("tree", arr)
    }

    #[test]
    fn indexed_rendering_matches_the_scanning_renderer() {
        // A capacity cut leaves orphans; workers, tags and the sim
        // clock exercise every rendered field.
        let clock = Clock::sim();
        let builder = TraceBuilder::with_capacity(21, clock.clone(), 24);
        {
            let mut root = builder.root("serve.request");
            for round in 0..3u64 {
                let mut round_span = root.child("explore.round", round);
                round_span.tag("points", 6u64);
                for point in (0..6u64).rev() {
                    let mut span = round_span.child("point", point);
                    span.set_worker(point as usize % 2);
                    span.tag("cache", if point % 3 == 0 { "hit" } else { "miss" });
                    clock.advance(0.125);
                    if point % 2 == 0 {
                        let mut leaf = span.child("eval.size", 0);
                        leaf.tag("feasible", point % 4 == 0);
                    }
                }
            }
            root.tag("outcome", "ok");
        }
        let trace = builder.finish();
        assert!(trace.dropped_spans > 0, "the cut must orphan some spans");
        for scheduling in [false, true] {
            assert_eq!(
                trace.tree_json(scheduling).render(),
                scanning_json(&trace, scheduling).render()
            );
        }
        assert_eq!(trace.depth(), 3);
    }

    #[test]
    fn ring_retains_newest_and_finds_by_id() {
        let ring = TraceRing::new(2);
        for id in 1..=3u64 {
            let builder = sim_builder(id);
            let _ = builder.root("r");
            ring.push(builder.finish());
        }
        assert_eq!(ring.completed(), 3);
        assert_eq!(ring.len(), 2);
        assert!(ring.find(1).is_none(), "oldest must be evicted");
        assert!(ring.find(3).is_some());
        let last = ring.last(8);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].trace_id, 2);
        assert_eq!(last[1].trace_id, 3);
        let dump = ring.dump_jsonl();
        assert_eq!(dump.lines().count(), 3); // header + 2 traces
        for line in dump.lines() {
            assert!(Json::parse(line).is_ok());
        }
    }

    #[test]
    fn concurrent_children_from_workers_all_record() {
        let builder = TraceBuilder::new(11, Clock::wall());
        let root = builder.root("r");
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let child = root.child("p", i);
                scope.spawn(move || {
                    let mut child = child;
                    child.set_worker(i as usize % 3);
                    child.tag("cache", "miss");
                });
            }
        });
        drop(root);
        let trace = builder.finish();
        assert_eq!(trace.span_count(), 9);
        assert_eq!(trace.open_at_finish, 0);
        assert_eq!(trace.count_tagged("cache", "miss"), 8);
    }
}
