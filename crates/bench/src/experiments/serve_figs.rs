//! The `serve` experiment: the batched DSE query server under a
//! deterministic multi-client workload, plus a staged overload drill.
//!
//! Two phases against one live loopback reactor server:
//!
//! 1. **Overload drill** — connections held open until every reactor
//!    reaches its connection ceiling; the surplus must be shed with a
//!    structured `overloaded` reply. The held connections are all
//!    registered before the surplus dials, so the shed count is exact,
//!    not statistical.
//! 2. **Throughput run** — N client threads each pipeline a seeded
//!    [`Workload`] stream and read back one reply per request.
//!
//! The JSON artifact holds only scheduling-independent numbers:
//! request counts, per-request *cost units* (grid points dispatched —
//! the sim-deterministic latency proxy), the exact shed/error
//! counters, drain stats and an FNV digest of the sorted ok replies.
//! `BENCH_serve.json` is therefore byte-identical at `--threads 1`
//! and `--threads 4`; CI diffs exactly that. Wall-clock latency lives
//! in the `serve.request.latency_s` histogram and is reported as a
//! count only.

use crate::experiments::Report;
use crate::table::{f, Table};
use drone_explorer::Explorer;
use drone_serve::{ReactorConfig, ReactorServer, Workload};
use drone_telemetry::{Histogram, Json, Registry};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SEED: u64 = 7;
const CLIENTS: u64 = 3;
const REQUESTS_PER_CLIENT: usize = 12;
const REACTORS: usize = 2;
/// Connection ceiling per reactor during the whole run: the drill
/// fills it, and the throughput run's clients fit under it.
const DRILL_MAX_CONNECTIONS: usize = 2;
/// Connections the drill holds open: every reactor at its ceiling.
const DRILL_HELD: usize = REACTORS * DRILL_MAX_CONNECTIONS;
const DRILL_OVERFLOW: usize = 3;

/// FNV-1a over the sorted reply lines: a strong, order-independent
/// fingerprint that any two runs (at any thread count) must share.
/// Shared with the chaos campaign (`chaos_figs`).
pub(crate) fn fnv_digest(lines: &mut [String]) -> String {
    lines.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// One pipelined client: write every request, half-close, read every
/// reply line back.
fn run_client(addr: std::net::SocketAddr, client: u64) -> Vec<String> {
    let mut workload = Workload::new(SEED, client);
    let mut stream = TcpStream::connect(addr).expect("connect to serve benchmark server");
    let mut payload = String::new();
    for _ in 0..REQUESTS_PER_CLIENT {
        payload.push_str(&workload.next_request_line());
    }
    stream
        .write_all(payload.as_bytes())
        .expect("write workload");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply line"))
        .collect()
}

/// Spin-waits (10 ms granularity) for `cond`, panicking after 5 s.
/// Connection registration and teardown are asynchronous to the client
/// side of a socket, so the drill and every drain that must abandon
/// nothing wait on `live_connections()` (shared with `serve_scale` and
/// `trace`).
pub(crate) fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Holds every reactor at its connection ceiling (each held connection
/// answered, and kept open), then dials the overflow: each surplus
/// connection must be shed with one structured reply. Returns
/// (admitted, shed) counts.
fn overload_drill(server: &ReactorServer) -> (usize, usize) {
    let mut held: Vec<BufReader<TcpStream>> = Vec::new();
    for i in 0..DRILL_HELD {
        let mut stream = TcpStream::connect(server.addr()).expect("connect during drill");
        let mut workload = Workload::new(SEED + 1, i as u64);
        stream
            .write_all(workload.next_request_line().as_bytes())
            .expect("write drill request");
        held.push(BufReader::new(stream));
    }
    // The acceptor deals connections round-robin, so once all of them
    // are registered every reactor sits exactly at its ceiling.
    wait_until("drill registration", || {
        server.live_connections() == DRILL_HELD
    });
    for reader in &mut held {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read drill reply");
        let doc = Json::parse(&line).expect("drill reply is JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
    }
    let mut shed = 0usize;
    for _ in 0..DRILL_OVERFLOW {
        // Overflow connections are shed at registration: one
        // overloaded line, then close.
        let stream = TcpStream::connect(server.addr()).expect("connect during drill");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read shed reply");
        let doc = Json::parse(&line).expect("shed reply is JSON");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("overloaded".into())),
            "shed reply must be structured: {line}"
        );
        shed += 1;
    }
    let admitted = held.len();
    drop(held);
    // Free the ceiling before the throughput run dials in.
    wait_until("drill teardown", || server.live_connections() == 0);
    (admitted, shed)
}

/// Runs the server benchmark and reports deterministic throughput,
/// cost-unit latency quantiles, shed and drain behaviour.
pub fn serve() -> Report {
    let registry = Registry::with_wall_clock();
    let mut engine = Explorer::with_default_threads();
    engine.attach_telemetry(&registry);
    let engine_threads = engine.threads();
    let config = ReactorConfig {
        reactors: REACTORS,
        max_connections: DRILL_MAX_CONNECTIONS,
        ..ReactorConfig::default()
    };
    let server = ReactorServer::start(engine, config, &registry).expect("bind loopback server");

    let (drill_admitted, drill_shed) = overload_drill(&server);

    let clients: Vec<std::thread::JoinHandle<Vec<String>>> = (0..CLIENTS)
        .map(|c| {
            let addr = server.addr();
            std::thread::spawn(move || run_client(addr, c))
        })
        .collect();
    let mut replies: Vec<String> = Vec::new();
    for client in clients {
        replies.extend(client.join().expect("client thread"));
    }

    // Per-request cost units come from the replies themselves (keyed
    // by the globally unique request ids), so the latency histogram is
    // identical however the server interleaved the work.
    let mut by_id: Vec<(u64, u64)> = replies
        .iter()
        .map(|line| {
            let doc = Json::parse(line).expect("reply is JSON");
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
            let id = doc.get("id").and_then(Json::as_f64).expect("reply id") as u64;
            let cost = doc
                .get("answer")
                .and_then(|a| a.get("cost_units"))
                .and_then(Json::as_f64)
                .expect("reply cost units") as u64;
            (id, cost)
        })
        .collect();
    by_id.sort();
    let mut latency_units = Histogram::new();
    let mut cost_total = 0u64;
    for &(_, cost) in &by_id {
        latency_units.record(cost as f64);
        cost_total += cost;
    }
    let digest = fnv_digest(&mut replies);

    let stats = server.drain();
    let requests = registry.counter("serve.requests").get();
    let sheds = registry.counter("serve.sheds").get();
    let protocol_errors = registry.counter("serve.errors.protocol").get();
    let query_errors = registry.counter("serve.errors.query").get();
    let wall_latency = registry.histogram("serve.request.latency_s").snapshot();

    let quantile = |q: f64| latency_units.quantile(q).unwrap_or(0.0);
    let mut out = format!(
        "DSE query server — {} reactor(s) over a {}-thread engine\n\n",
        config.reactors, engine_threads
    );
    out.push_str(&format!(
        "overload drill: {drill_admitted} admitted, {drill_shed} shed with structured replies\n"
    ));
    out.push_str(&format!(
        "throughput run: {CLIENTS} clients x {REQUESTS_PER_CLIENT} pipelined requests, {} replies\n",
        by_id.len()
    ));
    out.push_str(&format!(
        "served {requests} requests total; {protocol_errors} protocol errors, {query_errors} query errors\n\n"
    ));
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["requests answered".into(), f(by_id.len() as f64, 0)]);
    table.row(vec!["cost units total".into(), f(cost_total as f64, 0)]);
    table.row(vec!["cost units p50".into(), f(quantile(0.5), 0)]);
    table.row(vec!["cost units p99".into(), f(quantile(0.99), 0)]);
    table.row(vec![
        "cost units max".into(),
        f(latency_units.max().unwrap_or(0.0), 0),
    ]);
    table.row(vec!["connections shed".into(), f(drill_shed as f64, 0)]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nwall-clock latency histogram: {} batches timed (values in telemetry, not printed)\n",
        wall_latency.count()
    ));
    out.push_str(&format!(
        "drain: {} thread(s) joined, clean={}\n",
        stats.threads_joined, stats.clean
    ));
    out.push_str(&format!("reply digest: {digest}\n"));

    let metrics = Json::obj()
        .with(
            "workload",
            Json::obj()
                .with("seed", SEED)
                .with("clients", CLIENTS)
                .with("requests_per_client", REQUESTS_PER_CLIENT),
        )
        .with(
            "throughput",
            Json::obj()
                .with("requests", requests)
                .with("cost_units_total", cost_total),
        )
        .with(
            "latency_units",
            Json::obj()
                .with("count", latency_units.count())
                .with("p50", quantile(0.5))
                .with("p99", quantile(0.99))
                .with("max", latency_units.max().unwrap_or(0.0)),
        )
        .with(
            "shed",
            Json::obj()
                .with("admitted", drill_admitted)
                .with("connections_shed", drill_shed)
                .with("sheds_counter", sheds),
        )
        .with(
            "errors",
            Json::obj()
                .with("protocol", protocol_errors)
                .with("query", query_errors),
        )
        .with(
            "drain",
            Json::obj()
                .with("threads_joined", stats.threads_joined)
                .with("abandoned_connections", stats.abandoned_connections)
                .with("clean", stats.clean),
        )
        .with("reply_digest", digest);
    Report::new(out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_answers_everything_and_sheds_exactly_the_overflow() {
        let report = serve();
        let m = &report.metrics;
        let num = |path: &[&str]| {
            let mut doc = m;
            for key in path {
                doc = doc.get(key).unwrap();
            }
            doc.as_f64().unwrap()
        };
        assert_eq!(
            num(&["throughput", "requests"]),
            (CLIENTS as usize * REQUESTS_PER_CLIENT + DRILL_HELD) as f64
        );
        assert_eq!(
            num(&["latency_units", "count"]),
            (CLIENTS as usize * REQUESTS_PER_CLIENT) as f64
        );
        assert!(num(&["latency_units", "p99"]) >= num(&["latency_units", "p50"]));
        assert_eq!(num(&["shed", "connections_shed"]), DRILL_OVERFLOW as f64);
        assert_eq!(num(&["shed", "sheds_counter"]), DRILL_OVERFLOW as f64);
        assert_eq!(num(&["errors", "protocol"]), 0.0);
        assert_eq!(num(&["errors", "query"]), 0.0);
        assert_eq!(
            num(&["drain", "threads_joined"]),
            3.0,
            "2 reactors + acceptor"
        );
        assert_eq!(
            m.get("drain").unwrap().get("clean"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn serve_metrics_are_thread_count_invariant() {
        crate::experiments::assert_thread_count_invariant(|| serve().metrics);
    }
}
