//! The traced run (`--trace 1`): per-layer numbers, measured from this
//! crate around calls into each layer's public functions.
//!
//! It first repeats the end-to-end wire pass, alternating blocks with
//! and without generator-side spans, and reads the server's own
//! `serve.*` and `explorer.cache.*` counters across it. It then replays
//! the first timed requests in process, one layer at a time, each on a
//! fresh engine brought to the exact cache state the server had, and
//! times every call into a span. Spans stay in memory and are written
//! to `.bench_out/spans-<workload>-seed<n>.jsonl` at the end, with each
//! span name's total and self time.
//!
//! A layer a workload never reaches reports 0: grid-path metrics on the
//! optimize stream, optimizer metrics on grid streams, and the router
//! comparison on the streams the router does not serve (it answers
//! grid queries only, and only the cold stream has a router twin).

use crate::machine::descriptor;
use crate::stats::{fnv1a, median};
use crate::wire::{replay_lines, warm_engine, Deployment, Topology, WireSpan, REACTORS, WIDTH};
use crate::workload::{Kind, Stream, OPTIMIZE_BUDGET};
use crate::{check_replies, HostWatch, Metric, Outcome};
use drone_dse::eval::{evaluate, evaluate_many, DesignQuery, OBJECTIVE_SENSES};
use drone_explorer::{
    optimize::sample, CacheKey, EvalCache, Explorer, Lattice, ParallelExecutor, ParetoFrontier,
    QueryLimits,
};
use drone_serve::protocol::{
    self, parse_request, request_to_json, BatchPolicy, BatchTracing, ReplySlot, Request,
    RequestBody,
};
use drone_serve::{FrameEvent, LineFramer, ReactorConfig};
use drone_telemetry::{Clock, Json, Registry, TraceRing};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Wire-pass blocks; odd blocks record a generator-side span per request.
const BLOCKS: usize = 6;
/// Requests whose wire latency the router comparison uses, per topology.
const COMPANION: usize = 100;
/// Most layer calls timed per run for `fanout`, per width.
const FANOUT_REPS: usize = 200;
/// How far the median request's in-process layer sum may exceed its
/// wire latency. On a warm 768-point grid the wire adds only 2-5 % to
/// the handler, less than one call's jitter.
const LAYER_SUM_SLACK: f64 = 0.10;
/// Shard replies `json.parse_ns_per_byte` parses.
const SHARD_REPLIES: usize = 32;

/// In-process samples: the first timed requests of the stream.
fn sample_size(kind: Kind) -> usize {
    match kind {
        Kind::GridHot => crate::workload::HOT_PALETTE,
        _ => 100,
    }
}

/// One call into a layer, timed from this crate.
struct SpanRec {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span store, written out when the run ends.
struct Spans {
    epoch: Instant,
    list: Vec<SpanRec>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.list.push(SpanRec {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.list.len() - 1
    }

    fn close(&mut self, span: usize) -> f64 {
        let rec = &mut self.list[span];
        rec.end = Instant::now();
        (rec.end - rec.start).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and duration (s).
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let span = self.open(name, parent, request);
        let out = f();
        let seconds = self.close(span);
        (out, seconds)
    }

    /// Per span name: (count, total s, self s), where self time is a
    /// span's duration minus the part its children cover.
    fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_s = vec![0.0; self.list.len()];
        for rec in &self.list {
            if let Some(parent) = rec.parent {
                child_s[parent] += (rec.end - rec.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (rec, children) in self.list.iter().zip(child_s) {
            let total = (rec.end - rec.start).as_secs_f64();
            let entry = out.entry(rec.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += (total - children).max(0.0);
        }
        out
    }

    fn write_jsonl(&self, path: &str, header: &str) -> io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, rec) in self.list.iter().enumerate() {
            let parent = rec.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                rec.name,
                us(rec.start),
                us(rec.end),
                rec.request
            )?;
        }
        for (name, (count, total, own)) in self.self_times() {
            writeln!(
                out,
                "{{\"self_time\":\"{name}\",\"count\":{count},\"total_us\":{:.3},\"self_us\":{:.3}}}",
                total * 1e6,
                own * 1e6
            )?;
        }
        out.flush()
    }
}

/// The server-side counters the wire pass moves.
#[derive(Debug, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    batches: u64,
    batched: f64,
}

impl Counters {
    fn read(registry: &Registry) -> Counters {
        let sizes = registry.histogram("serve.batch.size").snapshot();
        Counters {
            hits: registry.counter("explorer.cache.hits").get(),
            misses: registry.counter("explorer.cache.misses").get(),
            evictions: registry.counter("explorer.cache.evictions").get(),
            batches: sizes.count(),
            batched: sizes.sum(),
        }
    }
}

/// The per-request numbers the in-process replay collects, in sample
/// order (seconds unless noted).
#[derive(Default)]
struct Samples {
    framer: Vec<f64>,
    request_bytes: usize,
    traced: Vec<f64>,
    server_path: Vec<f64>,
    spans_per_req: f64,
    untraced: Vec<f64>,
    parse: Vec<f64>,
    render: Vec<f64>,
    reply_bytes: Vec<f64>,
    grid: Vec<f64>,
    evaluate_points: Vec<f64>,
    run: Vec<f64>,
    optimize: Vec<f64>,
    evaluated: Vec<f64>,
    prefiltered: Vec<f64>,
    rounds: Vec<f64>,
    kernel_s: f64,
    kernel_points: usize,
    pareto: Vec<f64>,
    frontier: Vec<f64>,
    cache_get_s: f64,
    cache_insert_s: f64,
    cache_ops: usize,
    fanout_us: f64,
    json_parse_s: f64,
    json_bytes: usize,
    /// In-process replies that differed from the served ones.
    mismatches: usize,
}

fn secs_median_us(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values) * 1e6
    }
}

fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let watch = HostWatch::start()?;
    let mut spans = Spans::new();

    // Wire pass, as in the end-to-end run but split into blocks.
    let mut stream = Stream::new(kind, seed);
    let mut deployment = Deployment::start(kind, seed, &mut stream, kind.topology())?;
    let before = Counters::read(&deployment.registry);
    let mut latencies = Vec::new();
    let mut hashes = Vec::new();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut wire_spans: Vec<WireSpan> = Vec::new();
    let block = Duration::from_secs_f64(seconds / BLOCKS as f64);
    for b in 0..BLOCKS {
        let record = b % 2 == 1;
        let deadline = Instant::now() + block;
        let pass = deployment.drive_until(
            kind.window(),
            &mut stream,
            deadline,
            record.then_some(&mut wire_spans),
            None,
        )?;
        if record { &mut spanned } else { &mut plain }.extend_from_slice(&pass.latencies);
        latencies.extend(pass.latencies);
        hashes.extend(pass.hashes);
    }
    let after = Counters::read(&deployment.registry);
    let warmup = std::mem::take(&mut deployment.warmup_hashes);
    deployment.stop();
    for w in &wire_spans {
        spans.list.push(SpanRec {
            name: "wire.request",
            start: w.start,
            end: w.end,
            parent: None,
            request: w.request,
        });
    }
    let (warm_ok, ok_replies) = check_replies(kind, seed, &warmup, &hashes);
    let matched = ok_replies.iter().filter(|&&g| g).count();
    let attempted = hashes.len();

    // The same requests through the other topology, for the router's cost.
    let mut companion_ok = true;
    let mut router_overhead_us = 0.0;
    let twin = match kind {
        Kind::GridCold => Some(Topology::Sharded { shards: WIDTH }),
        Kind::ShardedCold => Some(Topology::Direct { width: WIDTH }),
        _ => None,
    };
    if let Some(topology) = twin {
        let n = COMPANION.min(attempted);
        let mut twin_stream = Stream::new(kind, seed);
        let mut twin = Deployment::start(kind, seed, &mut twin_stream, topology)?;
        let pass = twin.drive_count(1, &mut twin_stream, n)?;
        twin.stop();
        companion_ok = pass.hashes[..] == hashes[..n];
        let own = median(&latencies[..n]);
        let other = median(&pass.latencies);
        let (sharded, direct) = if kind == Kind::ShardedCold {
            (own, other)
        } else {
            (other, own)
        };
        router_overhead_us = (sharded - direct) * 1e6;
    }

    // In-process replay of the first timed requests, layer by layer.
    let n = sample_size(kind).min(attempted);
    let lines = replay_lines(kind, seed, n);
    let (warm_lines, sample_lines) = lines.split_at(lines.len() - n);
    let served = &hashes[..n];
    let mut s = Samples::default();
    // On a fresh thread, as the server answers on its reactor thread:
    // the main thread's allocator arena has by now freed several full
    // engines, and the traced handler allocates per point.
    let paired_wire = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                paired(
                    kind,
                    seed,
                    warm_lines,
                    sample_lines,
                    served,
                    &mut s,
                    &mut spans,
                )
            })
            .join()
            .expect("paired pass panicked")
    })?;
    replay(
        kind,
        seed,
        warm_lines,
        sample_lines,
        served,
        &mut s,
        &mut spans,
    )?;

    // The check: framing plus the traced handler (what the server runs
    // for a request in process) must fit inside the request's wire
    // latency, each request timed both ways moments apart. Single pairs
    // are only counted, since one timing jitters by 10-20 % on this
    // host; the check holds the median pair to it, within
    // LAYER_SUM_SLACK.
    let ratios: Vec<f64> = s
        .server_path
        .iter()
        .zip(&paired_wire)
        .map(|(i, w)| i / w)
        .collect();
    let over_frac = ratios.iter().filter(|&&r| r > 1.0).count() as f64 / n.max(1) as f64;
    let layer_sum_ok = median(&ratios) <= 1.0 + LAYER_SUM_SLACK;

    let requests = (attempted as f64).max(1.0);
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    let hit_ratio = (after.hits - before.hits) as f64 / lookups.max(1) as f64;
    let evictions_per_req = (after.evictions - before.evictions) as f64 / requests;
    let batch_size_mean =
        (after.batched - before.batched) / (after.batches - before.batches).max(1) as f64;
    let plain_p50 = median(&plain);
    let traced_us = secs_median_us(&s.traced);
    let untraced_us = secs_median_us(&s.untraced);
    let evaluated_per_req = mean_or_zero(&s.evaluated);
    let bookkeeping: Vec<f64> = s
        .run
        .iter()
        .zip(&s.evaluate_points)
        .zip(&s.grid)
        .map(|((run, eval), grid)| run - eval - grid)
        .collect();
    let (steal, calib) = watch.finish()?;

    // What each workload is there to load; a run that does not is wrong.
    let claim = match kind {
        Kind::GridHot => ("cache.hit_ratio >= 0.99", hit_ratio >= 0.99),
        Kind::GridCold | Kind::ShardedCold => {
            ("cache.evictions_per_req > 0", evictions_per_req > 0.0)
        }
        Kind::Optimize => (
            "optimize.evaluated_per_req == 256",
            s.evaluated.iter().all(|&e| e == OPTIMIZE_BUDGET as f64),
        ),
        Kind::Mixed => (
            "cache.evictions_per_req > 0 and optimize.evaluated_per_req == 256",
            evictions_per_req > 0.0
                && !s.evaluated.is_empty()
                && s.evaluated.iter().all(|&e| e == OPTIMIZE_BUDGET as f64),
        ),
    };

    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    let metrics = vec![
        m(
            "kernel.ns_per_point",
            "ns",
            s.kernel_s * 1e9 / s.kernel_points.max(1) as f64,
        ),
        m("trace.handler_us", "us", traced_us),
        m("protocol.handler_us", "us", untraced_us),
        m(
            "trace.overhead_ratio",
            "ratio",
            if untraced_us > 0.0 {
                traced_us / untraced_us
            } else {
                0.0
            },
        ),
        m("trace.spans_per_req", "count", s.spans_per_req),
        m(
            "trace.e2e_delta_us",
            "us",
            (median(&spanned) - plain_p50) * 1e6,
        ),
        m("protocol.parse_us", "us", secs_median_us(&s.parse)),
        m("protocol.render_us", "us", secs_median_us(&s.render)),
        m(
            "protocol.reply_bytes",
            "bytes",
            mean_or_zero(&s.reply_bytes),
        ),
        m(
            "framer.ns_per_byte",
            "ns",
            s.framer.iter().sum::<f64>() * 1e9 / s.request_bytes.max(1) as f64,
        ),
        m(
            "reactor.wire_overhead_us",
            "us",
            median(&paired_wire) * 1e6 - traced_us,
        ),
        m("reactor.batch_size_mean", "count", batch_size_mean),
        m("cache.hit_ratio", "ratio", hit_ratio),
        m("cache.evictions_per_req", "count", evictions_per_req),
        m(
            "cache.get_ns",
            "ns",
            s.cache_get_s * 1e9 / s.cache_ops.max(1) as f64,
        ),
        m(
            "cache.insert_ns",
            "ns",
            s.cache_insert_s * 1e9 / s.cache_ops.max(1) as f64,
        ),
        m("query.grid_us", "us", secs_median_us(&s.grid)),
        m(
            "engine.evaluate_points_us",
            "us",
            secs_median_us(&s.evaluate_points),
        ),
        m("engine.run_us", "us", secs_median_us(&s.run)),
        m("engine.bookkeeping_us", "us", secs_median_us(&bookkeeping)),
        m("pareto.us", "us", secs_median_us(&s.pareto)),
        m("pareto.frontier_size", "count", mean_or_zero(&s.frontier)),
        m("executor.fanout_us", "us", s.fanout_us),
        m("optimize.run_us", "us", secs_median_us(&s.optimize)),
        m("optimize.evaluated_per_req", "count", evaluated_per_req),
        m(
            "optimize.prefiltered_per_req",
            "count",
            mean_or_zero(&s.prefiltered),
        ),
        m("optimize.rounds_per_req", "count", mean_or_zero(&s.rounds)),
        m("router.overhead_us", "us", router_overhead_us),
        m(
            "json.parse_ns_per_byte",
            "ns",
            s.json_parse_s * 1e9 / s.json_bytes.max(1) as f64,
        ),
        m("check.layer_sum_over_wire_frac", "fraction", over_frac),
        m("machine.steal_frac", "fraction", steal),
        m("machine.calib_ms", "ms", calib),
    ];

    let topology = kind.topology();
    let machine = descriptor(topology.width(), REACTORS, topology.shards());
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-seed{seed}.jsonl", kind.name());
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"machine\":{}}}",
        kind.name(),
        Json::from(machine.as_str()).render()
    );
    spans.write_jsonl(&path, &header)?;
    let mut notes = vec![
        format!("machine: {machine}"),
        format!(
            "workload {} seed {seed} (traced): {attempted} wire requests, {matched} matched; \
             {n} replayed in process; spans written to {path}",
            kind.name()
        ),
        format!(
            "checks: replies {} | in-process replies {} | router twin {} | \
             median in-process/wire {:.3} <= 1.1 {} ({:.0}% of requests under) | {} {}",
            ok(warm_ok && matched == attempted),
            ok(s.mismatches == 0),
            ok(companion_ok),
            median(&ratios),
            ok(layer_sum_ok),
            100.0 * (1.0 - over_frac),
            claim.0,
            ok(claim.1),
        ),
        "self time by span (count, total ms, self ms):".to_owned(),
    ];
    for (name, (count, total, own)) in spans.self_times() {
        notes.push(format!(
            "  {name:<28} {count:>7} {:>12.3} {:>12.3}",
            total * 1e3,
            own * 1e3
        ));
    }
    Ok(Outcome {
        correct: warm_ok
            && matched == attempted
            && attempted > 0
            && s.mismatches == 0
            && companion_ok
            && layer_sum_ok
            && claim.1,
        attempted,
        failed: attempted - matched,
        metrics,
        notes,
    })
}

fn ok(pass: bool) -> &'static str {
    if pass {
        "ok"
    } else {
        "FAILED"
    }
}

/// A fresh engine in the state the server had before its first timed
/// request: the same cache pre-load, then the same wire warm-up, traced
/// into `tracing` when given (as the server traces it).
fn server_state(
    kind: Kind,
    seed: u64,
    warm_lines: &[String],
    tracing: Option<&BatchTracing<'_>>,
) -> Explorer {
    let engine = warm_engine(kind, seed, WIDTH, None, None);
    let limits = QueryLimits::default();
    for chunk in warm_lines.chunks(32) {
        let batch: Vec<&str> = chunk.iter().map(|l| l.trim_end()).collect();
        match tracing {
            Some(tracing) => {
                protocol::handle_batch_traced(
                    &engine,
                    &batch,
                    &limits,
                    BatchPolicy::default(),
                    tracing,
                );
            }
            None => {
                protocol::handle_batch(&engine, &batch, &limits);
            }
        }
    }
    engine
}

/// The design points a request hands the kernel: a grid query's first
/// round, or an optimize request's sampled candidates.
fn request_points(request: &Request) -> Vec<DesignQuery> {
    match &request.body {
        RequestBody::Query(q) => q.ranges.grid(),
        RequestBody::Optimize(r) => {
            let lattice = Lattice::new(&r.ranges);
            sample(r.strategy, &lattice, r.seed, r.budget)
                .iter()
                .map(|p| lattice.query(p))
                .collect()
        }
        _ => Vec::new(),
    }
}

/// The paired pass: a fresh deployment in the same state as a fresh
/// in-process engine; each sampled request goes over the wire at
/// window 1 and then, moments later, through framing and the traced
/// handler in process. Returns the wire latencies, in sample order.
fn paired(
    kind: Kind,
    seed: u64,
    warm_lines: &[String],
    lines: &[String],
    served: &[u64],
    s: &mut Samples,
    spans: &mut Spans,
) -> io::Result<Vec<f64>> {
    let limits = QueryLimits::default();
    // The server's ring size: a ring that kept every trace would fault
    // in fresh pages for each one and run slower than the server's.
    let ring = TraceRing::new(ReactorConfig::default().trace_capacity);
    let tracing = BatchTracing {
        ring: &ring,
        clock: Clock::wall(),
        seed: 0,
    };
    let engine = server_state(kind, seed, warm_lines, Some(&tracing));
    let mut stream = Stream::new(kind, seed);
    let mut deployment = Deployment::start(kind, seed, &mut stream, kind.topology())?;
    let mut framer = LineFramer::new(64 * 1024);
    let mut events: Vec<FrameEvent> = Vec::with_capacity(1);
    let mut wire = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let id = (warm_lines.len() + i) as u64;
        let pass = deployment.drive_count(1, &mut stream, 1)?;
        wire.push(pass.latencies[0]);
        s.mismatches += usize::from(pass.hashes[0] != served[i]);
        let root = spans.open("server_path", None, id);
        events.clear();
        let (_, framing) = spans.time("framer.push", Some(root), id, || {
            framer.push(line.as_bytes(), &mut events)
        });
        let batch = [line.trim_end()];
        let ((slots, _), traced) = spans.time("trace.handler", Some(root), id, || {
            protocol::handle_batch_traced(
                &engine,
                &batch,
                &limits,
                BatchPolicy::default(),
                &tracing,
            )
        });
        s.server_path.push(spans.close(root));
        s.framer.push(framing);
        s.request_bytes += line.len();
        s.traced.push(traced);
        let same = matches!(&slots[..], [ReplySlot::Line(r)] if fnv1a(r.as_bytes()) == served[i]);
        s.mismatches += usize::from(!same || events.len() != 1);
    }
    deployment.stop();
    let traces = ring.last(lines.len());
    s.spans_per_req =
        traces.iter().map(|t| t.span_count() as f64).sum::<f64>() / traces.len().max(1) as f64;
    Ok(wire)
}

/// Times every other layer on the sampled requests, in process.
fn replay(
    kind: Kind,
    seed: u64,
    warm_lines: &[String],
    lines: &[String],
    served: &[u64],
    s: &mut Samples,
    spans: &mut Spans,
) -> io::Result<()> {
    let limits = QueryLimits::default();
    let ids: Vec<u64> = (warm_lines.len() as u64..).take(lines.len()).collect();
    let trimmed: Vec<&str> = lines.iter().map(|l| l.trim_end()).collect();
    let parsed: Vec<Request> = trimmed
        .iter()
        .map(|l| parse_request(l, &limits))
        .collect::<Result<_, _>>()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;

    // Parsing and the untraced handler.
    let mut replies = Vec::with_capacity(lines.len());
    {
        let engine = server_state(kind, seed, warm_lines, None);
        for (i, line) in trimmed.iter().enumerate() {
            let (_, parse) = spans.time("protocol.parse", None, ids[i], || {
                parse_request(line, &limits)
            });
            let ((reply, _), untraced) = spans.time("protocol.handler", None, ids[i], || {
                protocol::handle_batch(&engine, &[*line], &limits)
            });
            s.parse.push(parse);
            s.untraced.push(untraced);
            s.mismatches += usize::from(fnv1a(reply[0].as_bytes()) != served[i]);
            replies.extend(reply);
        }
    }

    // The engine's stages: grid, cached evaluation, then a whole run and
    // its render on a twin engine in the same state.
    {
        let grid_engine = server_state(kind, seed, warm_lines, None);
        let run_engine = server_state(kind, seed, warm_lines, None);
        for (i, request) in parsed.iter().enumerate() {
            let id = &request.id;
            match &request.body {
                RequestBody::Query(q) => {
                    let (grid, g) = spans.time("query.grid", None, ids[i], || q.ranges.grid());
                    let (_, e) = spans.time("engine.evaluate_points", None, ids[i], || {
                        grid_engine.evaluate_points(&grid)
                    });
                    let root = spans.open("engine.answer", None, ids[i]);
                    let (answer, r) =
                        spans.time("engine.run", Some(root), ids[i], || run_engine.run(q));
                    let (reply, rendered) =
                        spans.time("protocol.render", Some(root), ids[i], || {
                            protocol::ok_reply(id, &answer).render()
                        });
                    spans.close(root);
                    s.grid.push(g);
                    s.evaluate_points.push(e);
                    s.run.push(r);
                    s.render.push(rendered);
                    s.reply_bytes.push(reply.len() as f64);
                }
                RequestBody::Optimize(req) => {
                    let root = spans.open("engine.answer", None, ids[i]);
                    let (answer, o) = spans.time("optimize.run", Some(root), ids[i], || {
                        run_engine.optimize(req)
                    });
                    let (reply, rendered) =
                        spans.time("protocol.render", Some(root), ids[i], || {
                            protocol::ok_optimize_reply(id, &answer).render()
                        });
                    spans.close(root);
                    s.optimize.push(o);
                    s.evaluated.push(answer.evaluated as f64);
                    s.prefiltered.push(answer.prefiltered as f64);
                    s.rounds.push(answer.rounds as f64);
                    s.render.push(rendered);
                    s.reply_bytes.push(reply.len() as f64);
                }
                _ => {}
            }
        }
    }

    // Kernel, frontier and cache, on each request's points.
    let points: Vec<Vec<DesignQuery>> = parsed.iter().map(request_points).collect();
    let cache = EvalCache::new(16, 8192);
    let filler = points.iter().flatten().next().map(evaluate);
    if let Some(value) = filler {
        if kind.fills_cache() {
            for grid in crate::workload::fill_grids(seed) {
                let before = cache.len();
                for p in &grid {
                    cache.insert(CacheKey::quantize(p), value);
                }
                if cache.len() == before {
                    break;
                }
            }
        }
        for (i, (request, pts)) in parsed.iter().zip(&points).enumerate() {
            let (results, k) =
                spans.time("kernel.evaluate_many", None, ids[i], || evaluate_many(pts));
            s.kernel_s += k;
            s.kernel_points += pts.len();
            let constraints = match &request.body {
                RequestBody::Query(q) => q.constraints,
                RequestBody::Optimize(r) => r.constraints,
                _ => Default::default(),
            };
            let (size, p) = spans.time("pareto.insert", None, ids[i], || {
                let mut frontier = ParetoFrontier::new(&OBJECTIVE_SENSES);
                for (j, eval) in results.iter().flatten().enumerate() {
                    if constraints.admits(eval) {
                        frontier.insert(j, &eval.objectives());
                    }
                }
                frontier.len()
            });
            s.pareto.push(p);
            s.frontier.push(size as f64);
            let keys: Vec<CacheKey> = pts.iter().map(CacheKey::quantize).collect();
            let (_, ins) = spans.time("cache.insert", None, ids[i], || {
                for key in &keys {
                    cache.insert(*key, value);
                }
            });
            let (_, get) = spans.time("cache.get", None, ids[i], || {
                keys.iter().filter(|k| cache.get(k).is_some()).count()
            });
            s.cache_insert_s += ins;
            s.cache_get_s += get;
            s.cache_ops += keys.len();
        }
    }

    // Executor fan-out cost: a no-op map at width 2 minus width 1, over
    // as many items as a request hands the kernel.
    let items = vec![0u8; (s.kernel_points / lines.len().max(1)).max(1)];
    let fanout = |width: usize, spans: &mut Spans| {
        let executor = ParallelExecutor::new(width);
        let name = if width == 1 {
            "executor.map_w1"
        } else {
            "executor.map_w2"
        };
        let times: Vec<f64> = (0..FANOUT_REPS)
            .map(|r| {
                spans
                    .time(name, None, r as u64, || {
                        executor.try_map_blocked(&items, |_, _, block| {
                            block.iter().map(|x| Ok(*x)).collect()
                        })
                    })
                    .1
            })
            .collect();
        median(&times)
    };
    let w1 = fanout(1, spans);
    let w2 = fanout(2, spans);
    s.fanout_us = (w2 - w1) * 1e6;

    // Json::parse on replies the size a router re-parses: shard halves
    // of grid queries, or the optimize replies themselves.
    let shard_engine = Explorer::new(1);
    let mut shard_replies = Vec::new();
    for (i, request) in parsed.iter().take(SHARD_REPLIES).enumerate() {
        match &request.body {
            RequestBody::Query(q) => {
                let half = q
                    .clone()
                    .with_refinement(0, q.refine_steps)
                    .with_shard(0, 2);
                let line = request_to_json(ids[i], &half).render();
                let (reply, _) = protocol::handle_batch(&shard_engine, &[&line], &limits);
                shard_replies.extend(reply);
            }
            _ => shard_replies.push(replies[i].clone()),
        }
    }
    for (i, reply) in shard_replies.iter().enumerate() {
        let (parsed, p) = spans.time("json.parse", None, ids[i], || Json::parse(reply));
        s.mismatches += usize::from(parsed.is_err());
        s.json_parse_s += p;
        s.json_bytes += reply.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let _serial = crate::serial_test();
        let mut spans = Spans::new();
        let root = spans.open("root", None, 7);
        spans.time("child", Some(root), 7, || {
            std::thread::sleep(Duration::from_millis(20))
        });
        std::thread::sleep(Duration::from_millis(10));
        spans.close(root);
        let times = spans.self_times();
        let (count, total, own) = times["root"];
        assert_eq!(count, 1);
        assert!(
            total >= 0.03 && own >= 0.01 && own < total - 0.015,
            "{total} {own}"
        );
        let (_, child_total, child_own) = times["child"];
        assert_eq!(child_total, child_own);
    }

    #[test]
    fn traced_run_reports_every_layer_and_loads_what_each_workload_claims() {
        let _serial = crate::serial_test();
        for kind in Kind::ALL {
            let outcome = run(kind, 5, 0.6).expect("traced run");
            assert!(outcome.correct, "{}: {:?}", kind.name(), outcome.notes);
            assert_eq!(outcome.metrics.len(), 32);
            let get = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .expect("metric present")
            };
            match kind {
                Kind::GridHot => assert!(get("cache.hit_ratio") >= 0.99),
                Kind::GridCold | Kind::ShardedCold => {
                    assert!(get("cache.evictions_per_req") > 0.0);
                    assert!(get("router.overhead_us") != 0.0);
                }
                Kind::Optimize => assert_eq!(get("optimize.evaluated_per_req"), 256.0),
                Kind::Mixed => {
                    assert!(get("cache.evictions_per_req") > 0.0);
                    assert_eq!(get("optimize.evaluated_per_req"), 256.0);
                }
            }
        }
    }
}
