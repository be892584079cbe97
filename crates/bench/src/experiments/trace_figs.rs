//! The `trace` experiment: end-to-end causal tracing through the DSE
//! serving stack, plus the live introspection plane.
//!
//! Two phases:
//!
//! 1. **Deterministic span-tree campaign** — a seeded multi-client
//!    workload (plus one crafted panicking request and one crafted
//!    over-deadline request) is pushed through
//!    [`drone_serve::handle_batch_traced`] in-process against a sim
//!    clock. Every request records a span tree; the artifact holds
//!    only scheduling-independent facts about them: tree shapes, span
//!    counts, per-stage cache attribution (`hit`/`coalesced`/`miss`
//!    tallies that must *exactly* match the explorer cache counters),
//!    exact outcome tallies, and the first tree in full deterministic
//!    form.
//! 2. **Live introspection run** — client threads with distinct trace
//!    seeds drive a loopback server while `stats` and `trace` wire
//!    requests are answered mid-workload; afterwards one span tree is
//!    fetched back by its client-stamped trace id. Wall-clock numbers
//!    stay in the text report; the artifact keeps only deterministic
//!    counts, so `BENCH_trace.json` is byte-identical at `--threads 1`
//!    and `--threads 4` and CI diffs exactly that.

use super::serve_figs::{fnv_digest, wait_until};
use crate::experiments::Report;
use crate::table::{f, Table};
use drone_components::battery::CellCount;
use drone_explorer::{Explorer, GridRange, Objective, Query, QueryLimits, QueryRanges};
use drone_serve::protocol::{
    handle_batch_traced, request_to_json, request_to_json_traced, BatchPolicy, BatchTracing,
    ReplySlot,
};
use drone_serve::{Client, ClientConfig, ReactorConfig, ReactorServer, Workload};
use drone_telemetry::trace::{TagValue, Trace};
use drone_telemetry::{derive_trace_id, id_hex, Clock, Json, Registry, TraceRing};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SEED: u64 = 7;
const PHASE_A_CLIENTS: u64 = 2;
const PHASE_A_REQUESTS: usize = 10;
const PHASE_A_BATCH: usize = 8;
/// Just above the costliest workload query (~141 units), so only the
/// crafted sweep below sheds.
const COST_DEADLINE: u64 = 150;
/// A wheelbase no workload grid can produce (the palette yields
/// multiples of 50 and their midpoints), pinned by the crafted
/// poisoned request and asserted against in the eval hook.
const POISONED_WHEELBASE: f64 = 333.0;
const PHASE_B_CLIENTS: u64 = 3;
const PHASE_B_REQUESTS: usize = 12;
const PHASE_B_PROBE_ROUNDS: usize = 3;

/// A crafted single-point query pinned to the poisoned wheelbase: its
/// evaluation panics in the hook, exercising the internal-error span
/// path.
fn poisoned_query() -> Query {
    Query::new(
        "poisoned",
        QueryRanges {
            wheelbase_mm: GridRange::fixed(POISONED_WHEELBASE),
            cells: vec![CellCount::S3],
            capacity_mah: GridRange::fixed(2000.0),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(drone_components::paper::PAPER_TWR),
            payload_g: GridRange::fixed(0.0),
        },
        Objective::MaxFlightTime,
    )
}

/// A crafted sweep whose worst-case budget (9 x 9 x 3 = 243 points)
/// exceeds the phase-A cost deadline, exercising the shed span path.
fn over_deadline_query() -> Query {
    Query::new(
        "over-deadline",
        QueryRanges {
            wheelbase_mm: GridRange::new(150.0, 550.0, 9),
            cells: vec![CellCount::S3],
            capacity_mah: GridRange::new(1000.0, 5000.0, 9),
            compute_power_w: GridRange::new(2.0, 10.0, 3),
            twr: GridRange::fixed(drone_components::paper::PAPER_TWR),
            payload_g: GridRange::fixed(0.0),
        },
        Objective::MaxFlightTime,
    )
}

/// The scheduling-independent facts about one span tree.
fn trace_facts(trace: &Trace) -> Json {
    let outcome = trace
        .root_tag("outcome")
        .and_then(TagValue::as_str)
        .unwrap_or("missing")
        .to_owned();
    Json::obj()
        .with("trace_id", id_hex(trace.trace_id))
        .with("spans", trace.span_count())
        .with("depth", trace.depth())
        .with("outcome", outcome)
        .with("hits", trace.count_tagged("cache", "hit"))
        .with("coalesced", trace.count_tagged("cache", "coalesced"))
        .with("misses", trace.count_tagged("cache", "miss"))
}

/// Phase A: the seeded + crafted request stream through the traced
/// batch handler, in-process, on a sim clock.
fn deterministic_campaign() -> (Json, String) {
    super::chaos_figs::silence_poison_panics();
    let engine = Explorer::with_default_threads().with_eval_hook(Arc::new(|q| {
        assert!(
            (q.wheelbase_mm - POISONED_WHEELBASE).abs() > 1e-9,
            "trace campaign: poisoned wheelbase"
        );
    }));
    let threads = engine.threads();
    let ring = TraceRing::new(64);
    let tracing = BatchTracing {
        ring: &ring,
        clock: Clock::sim(),
        seed: SEED,
    };

    let mut lines: Vec<String> = Vec::new();
    for client in 0..PHASE_A_CLIENTS {
        let mut workload = Workload::new(SEED, client);
        for _ in 0..PHASE_A_REQUESTS {
            let mut line = workload.next_request_line();
            line.truncate(line.trim_end().len());
            lines.push(line);
        }
    }
    // One client-stamped poisoned request, one unstamped over-deadline
    // request (its trace id is server-derived from the seed).
    lines.push(
        request_to_json_traced(900_001, derive_trace_id(SEED, 900_001), &poisoned_query()).render(),
    );
    lines.push(request_to_json(900_002, &over_deadline_query()).render());

    let limits = QueryLimits::default();
    let policy = BatchPolicy {
        cost_deadline: Some(COST_DEADLINE),
    };
    let mut replies: Vec<String> = Vec::new();
    let mut outcome_totals = drone_serve::BatchOutcome::default();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for batch in refs.chunks(PHASE_A_BATCH) {
        let (slots, outcome) = handle_batch_traced(&engine, batch, &limits, policy, &tracing);
        for slot in slots {
            match slot {
                ReplySlot::Line(line) => replies.push(line),
                ReplySlot::Admin { .. } => unreachable!("no introspection in phase A"),
            }
        }
        outcome_totals.answered += outcome.answered;
        outcome_totals.internal_errors += outcome.internal_errors;
        outcome_totals.deadline_sheds += outcome.deadline_sheds;
        outcome_totals.protocol_errors += outcome.protocol_errors;
        outcome_totals.query_errors += outcome.query_errors;
        outcome_totals.admin_requests += outcome.admin_requests;
        outcome_totals.cost_units += outcome.cost_units;
    }

    let traces = ring.last(ring.len());
    let mut per_trace = Json::arr();
    let (mut hits, mut coalesced, mut misses, mut spans_total) = (0u64, 0u64, 0u64, 0u64);
    let (mut ok, mut internal, mut shed) = (0u64, 0u64, 0u64);
    let (mut eval_size, mut eval_power) = (0u64, 0u64);
    for trace in &traces {
        hits += trace.count_tagged("cache", "hit") as u64;
        coalesced += trace.count_tagged("cache", "coalesced") as u64;
        misses += trace.count_tagged("cache", "miss") as u64;
        spans_total += trace.span_count() as u64;
        eval_size += trace.count_named("eval.size") as u64;
        eval_power += trace.count_named("eval.power") as u64;
        match trace.root_tag("outcome").and_then(TagValue::as_str) {
            Some("ok") => ok += 1,
            Some("internal_error") => internal += 1,
            Some("deadline_exceeded") => shed += 1,
            other => panic!("untagged trace outcome: {other:?}"),
        }
        per_trace.push(trace_facts(trace));
    }
    let engine_hits = engine.cache().hit_count();
    let engine_misses = engine.cache().miss_count();
    let digest = fnv_digest(&mut replies);

    let metrics = Json::obj()
        .with(
            "workload",
            Json::obj()
                .with("seed", SEED)
                .with("clients", PHASE_A_CLIENTS)
                .with("requests_per_client", PHASE_A_REQUESTS)
                .with("crafted_requests", 2.0)
                .with("cost_deadline", COST_DEADLINE),
        )
        .with(
            "requests",
            Json::obj()
                .with("total", lines.len())
                .with("ok", outcome_totals.answered)
                .with("internal_errors", outcome_totals.internal_errors)
                .with("deadline_sheds", outcome_totals.deadline_sheds)
                .with("cost_units", outcome_totals.cost_units),
        )
        .with(
            "spans",
            Json::obj()
                .with("traces_completed", ring.completed())
                .with("dropped", ring.dropped_spans())
                .with("total", spans_total)
                .with("eval_size", eval_size)
                .with("eval_power", eval_power)
                .with(
                    "outcomes",
                    Json::obj()
                        .with("ok", ok)
                        .with("internal_error", internal)
                        .with("deadline_exceeded", shed),
                ),
        )
        .with(
            "cache_attribution",
            Json::obj()
                .with("span_hits", hits)
                .with("span_coalesced", coalesced)
                .with("span_misses", misses)
                .with("engine_hits", engine_hits)
                .with("engine_misses", engine_misses)
                .with("hits_match", hits + coalesced == engine_hits)
                .with("misses_match", misses == engine_misses),
        )
        .with("per_trace", per_trace)
        .with(
            "example_trace",
            traces
                .first()
                .expect("campaign traces")
                .deterministic_json(),
        )
        .with("reply_digest", digest.clone());

    let mut text = format!(
        "phase A — deterministic span-tree campaign ({threads}-thread engine, sim clock)\n"
    );
    text.push_str(&format!(
        "  {} requests ({} ok, {} internal_error, {} deadline_exceeded), {} traces, {} spans, 0 dropped\n",
        lines.len(),
        outcome_totals.answered,
        outcome_totals.internal_errors,
        outcome_totals.deadline_sheds,
        ring.completed(),
        spans_total,
    ));
    let mut table = Table::new(vec!["stage", "spans", "engine counter", "match"]);
    table.row(vec![
        "cache hit (+coalesced)".into(),
        f((hits + coalesced) as f64, 0),
        f(engine_hits as f64, 0),
        (hits + coalesced == engine_hits).to_string(),
    ]);
    table.row(vec![
        "cache miss".into(),
        f(misses as f64, 0),
        f(engine_misses as f64, 0),
        (misses == engine_misses).to_string(),
    ]);
    table.row(vec![
        "eval.size leaves".into(),
        f(eval_size as f64, 0),
        "-".into(),
        "-".into(),
    ]);
    table.row(vec![
        "eval.power leaves".into(),
        f(eval_power as f64, 0),
        "-".into(),
        "-".into(),
    ]);
    text.push_str(&table.render());
    text.push_str(&format!("  reply digest: {digest}\n"));
    (metrics, text)
}

/// Phase B: a live loopback server answering `stats` and `trace` wire
/// requests mid-workload, traced end to end from resilient clients.
fn live_introspection() -> (Json, String) {
    let registry = Registry::with_wall_clock();
    let mut engine = Explorer::with_default_threads();
    engine.attach_telemetry(&registry);
    let config = ReactorConfig {
        reactors: 2,
        trace_seed: SEED,
        trace_capacity: 64,
        ..ReactorConfig::default()
    };
    let server = ReactorServer::start(engine, config, &registry).expect("bind loopback server");
    let addr = server.addr();

    // Client 0's first request is the trace fetched back below. It runs
    // alone, against the fresh cache, so its span tree (every point a
    // miss) does not depend on how the other clients' requests
    // interleave with it; the other clients start once it is answered.
    let spawn_client = |c: u64, mut first_answered: Option<mpsc::Sender<()>>| {
        let registry = registry.clone();
        std::thread::spawn(move || {
            // Distinct trace seeds keep the clients' trace ids
            // disjoint while staying derivable by the artifact.
            let mut client = Client::new(
                addr,
                ClientConfig {
                    trace_seed: SEED ^ c,
                    ..ClientConfig::default()
                },
                &registry,
            );
            let mut workload = Workload::new(SEED, c);
            (0..PHASE_B_REQUESTS)
                .map(|_| {
                    let success = client.call(&workload.next_query()).expect("traced call");
                    if let Some(signal) = first_answered.take() {
                        signal.send(()).expect("spawner waits for the first reply");
                    }
                    success.reply.render()
                })
                .collect::<Vec<String>>()
        })
    };
    let (signal, first_answered) = mpsc::channel();
    let mut clients = vec![spawn_client(0, Some(signal))];
    first_answered
        .recv()
        .expect("client 0 answers its first request");
    clients.extend((1..PHASE_B_CLIENTS).map(|c| spawn_client(c, None)));

    // The introspection plane, probed from the side mid-workload.
    let mut probe = Client::new(addr, ClientConfig::default(), &registry);
    let mut probes_ok = 0usize;
    for _ in 0..PHASE_B_PROBE_ROUNDS {
        let stats = probe.stats().expect("stats mid-workload");
        assert_eq!(stats.reply.get("ok"), Some(&Json::Bool(true)));
        let fetched = probe.fetch_trace(derive_trace_id(SEED, 1)).expect("trace");
        assert_eq!(fetched.reply.get("ok"), Some(&Json::Bool(true)));
        probes_ok += 2;
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut replies: Vec<String> = Vec::new();
    for client in clients {
        replies.extend(client.join().expect("client thread"));
    }
    let mut cost_units_total = 0u64;
    for line in &replies {
        let doc = Json::parse(line).expect("reply is JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
        cost_units_total += doc
            .get("answer")
            .and_then(|a| a.get("cost_units"))
            .and_then(Json::as_f64)
            .expect("cost units") as u64;
    }

    // After the workload: fetch client 0's first span tree back by its
    // stamped id (client 0's trace seed is SEED ^ 0 == SEED), then take
    // the final stats snapshot.
    let wanted = derive_trace_id(SEED, 1);
    let fetched = probe.fetch_trace(wanted).expect("fetch by id");
    let traces = fetched
        .reply
        .get("traces")
        .and_then(Json::as_arr)
        .expect("traces array");
    assert_eq!(traces.len(), 1, "stamped trace must be retained");
    let fetched_spans = traces[0]
        .get("spans")
        .and_then(Json::as_f64)
        .expect("span count");
    let final_stats = probe.stats().expect("final stats");
    let wall_batches = registry.histogram("serve.request.latency_s").snapshot();
    probes_ok += 2;

    // Every call closed its connection client-side; let the reactors
    // see each close so the drain abandons nothing.
    wait_until("client closes", || server.live_connections() == 0);
    let drain = server.drain();
    let requests = registry.counter("serve.requests").get();
    let admin = registry.counter("serve.admin_requests").get();
    let panics = registry.counter("serve.panics_caught").get();
    let digest = fnv_digest(&mut replies);

    let metrics = Json::obj()
        .with(
            "workload",
            Json::obj()
                .with("seed", SEED)
                .with("clients", PHASE_B_CLIENTS)
                .with("requests_per_client", PHASE_B_REQUESTS),
        )
        .with(
            "requests",
            Json::obj()
                .with("total", requests)
                .with("answered", replies.len())
                .with("admin", admin)
                .with("panics_caught", panics)
                .with("cost_units", cost_units_total),
        )
        .with(
            "fetched_trace",
            Json::obj()
                .with("trace_id", id_hex(wanted))
                .with("spans", fetched_spans),
        )
        .with(
            "drain",
            Json::obj()
                .with("threads_joined", drain.threads_joined)
                .with("abandoned_connections", drain.abandoned_connections)
                .with("clean", drain.clean),
        )
        .with("reply_digest", digest.clone());

    let queue_depth = final_stats
        .reply
        .get("stats")
        .and_then(|s| s.get("queue_depth"))
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    let mut text = format!(
        "phase B — live introspection plane ({} clients x {} requests, {} reactors)\n",
        PHASE_B_CLIENTS, PHASE_B_REQUESTS, config.reactors
    );
    text.push_str(&format!(
        "  {requests} requests served ({} answered, {admin} introspection, {panics} panics); {probes_ok} probes all ok\n",
        replies.len(),
    ));
    text.push_str(&format!(
        "  trace {} fetched back: {fetched_spans} spans; final open connections {queue_depth}\n",
        id_hex(wanted),
    ));
    text.push_str(&format!(
        "  wall-clock: {} batches timed (values in telemetry, not in the artifact)\n",
        wall_batches.count()
    ));
    text.push_str(&format!(
        "  drain: {} thread(s) joined, clean={}\n",
        drain.threads_joined, drain.clean
    ));
    text.push_str(&format!("  reply digest: {digest}\n"));
    (metrics, text)
}

/// Runs both phases and reports the deterministic tracing facts.
pub fn trace() -> Report {
    let (phase_a, text_a) = deterministic_campaign();
    let (phase_b, text_b) = live_introspection();
    let text = format!(
        "causal tracing + live introspection across the serving stack\n\n{text_a}\n{text_b}"
    );
    let metrics = Json::obj()
        .with("phase_a", phase_a)
        .with("phase_b", phase_b);
    Report::new(text, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(doc: &Json, path: &[&str]) -> f64 {
        let mut cursor = doc;
        for key in path {
            cursor = cursor.get(key).unwrap_or_else(|| panic!("missing {key}"));
        }
        cursor
            .as_f64()
            .unwrap_or_else(|| panic!("{path:?} not a number"))
    }

    #[test]
    fn trace_campaign_attributes_every_span_and_outcome() {
        let report = trace();
        let m = &report.metrics;
        let total = (PHASE_A_CLIENTS as usize * PHASE_A_REQUESTS + 2) as f64;
        assert_eq!(num(m, &["phase_a", "requests", "total"]), total);
        assert_eq!(num(m, &["phase_a", "requests", "internal_errors"]), 1.0);
        assert_eq!(num(m, &["phase_a", "requests", "deadline_sheds"]), 1.0);
        assert_eq!(num(m, &["phase_a", "spans", "traces_completed"]), total);
        assert_eq!(num(m, &["phase_a", "spans", "dropped"]), 0.0);
        assert!(num(m, &["phase_a", "spans", "total"]) > total);
        assert_eq!(num(m, &["phase_a", "spans", "outcomes", "ok"]), total - 2.0);
        let attribution = m.get("phase_a").unwrap().get("cache_attribution").unwrap();
        assert_eq!(attribution.get("hits_match"), Some(&Json::Bool(true)));
        assert_eq!(attribution.get("misses_match"), Some(&Json::Bool(true)));

        let answered = (PHASE_B_CLIENTS as usize * PHASE_B_REQUESTS) as f64;
        assert_eq!(num(m, &["phase_b", "requests", "answered"]), answered);
        assert_eq!(num(m, &["phase_b", "requests", "panics_caught"]), 0.0);
        assert_eq!(num(m, &["phase_b", "requests", "admin"]), 8.0);
        assert!(num(m, &["phase_b", "fetched_trace", "spans"]) > 1.0);
        assert_eq!(
            m.get("phase_b").unwrap().get("drain").unwrap().get("clean"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn trace_metrics_are_thread_count_invariant() {
        crate::experiments::assert_thread_count_invariant(|| trace().metrics);
    }
}
