//! The `serve_scale` experiment: the epoll reactor front-end and the
//! sharded router under load.
//!
//! Three phases:
//!
//! 1. **Capacity drill** — every client opens a connection, sends one
//!    request and then *keeps the connection open*. The reactor
//!    multiplexes every connection onto its event loops, so all of them
//!    must be answered while all stay open. The drill also pins the
//!    no-busy-polling invariant: with connections held open but idle,
//!    the reactors' `epoll_wait` counter must not move over the
//!    observation window.
//! 2. **Router sweep** — a [`Router`] at each shard count, with seeded
//!    clients running sequential request/reply rounds. The FNV digest
//!    of the sorted replies must be identical at every shard count and
//!    equal to the digest of the same request stream answered by
//!    [`protocol::handle_batch`] on one engine: sharding partitions
//!    only the evaluation step inside the engine's round loop, so the
//!    artifact pins one digest for all counts.
//! 3. **Wall-clock measurement** — per-request latency quantiles and
//!    throughput per shard count. These are scheduling-dependent and
//!    live only under the `measured` key (CI strips it, together with
//!    the shard-count-dependent `sharding` key, before diffing
//!    artifacts across `--threads` and `--shards` values).

use crate::experiments::serve_figs::{fnv_digest, wait_until};
use crate::experiments::Report;
use crate::table::{f, Table};
use drone_explorer::Explorer;
use drone_serve::{
    protocol, DrainStats, ReactorConfig, ReactorServer, Router, RouterConfig, Workload,
};
use drone_telemetry::{Histogram, Json, Registry};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SEED: u64 = 11;
/// Connections held open simultaneously during the capacity drill.
const HELD_CONNECTIONS: usize = 24;
/// Event-loop threads for the reactor front-end and every shard.
const REACTORS: usize = 2;
/// How long a drill reader waits before declaring its connection
/// starved. Served connections answer in milliseconds.
const HOLD_READ_TIMEOUT: Duration = Duration::from_millis(2500);
/// Idle observation window for the zero-wakeup invariant.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// Router sweep: clients x sequential request/reply rounds each.
const CLIENTS: u64 = 3;
const REQUESTS_PER_CLIENT: usize = 8;
/// Shard counts swept by default; `--shards N` narrows to one.
const DEFAULT_SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// `--shards N` override: 0 means "sweep the default counts".
static SHARD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins the router sweep to a single shard count (the `repro
/// --shards N` flag). Passing 0 restores the default sweep.
pub fn set_serve_scale_shards(shards: usize) {
    SHARD_OVERRIDE.store(shards, Ordering::SeqCst);
}

fn shard_counts() -> Vec<usize> {
    match SHARD_OVERRIDE.load(Ordering::SeqCst) {
        0 => DEFAULT_SHARD_COUNTS.to_vec(),
        n => vec![n],
    }
}

/// Opens [`HELD_CONNECTIONS`] connections, sends one request on each
/// and keeps every connection open. Returns the held streams plus how
/// many connections were actually answered while all of them stayed
/// open — the front-end's sustained-connection capacity.
fn hold_and_count(addr: SocketAddr, seed: u64) -> (Vec<TcpStream>, usize) {
    let mut streams = Vec::with_capacity(HELD_CONNECTIONS);
    for i in 0..HELD_CONNECTIONS {
        let mut stream = TcpStream::connect(addr).expect("connect during capacity drill");
        let mut workload = Workload::new(seed, i as u64);
        stream
            .write_all(workload.next_request_line().as_bytes())
            .expect("write drill request");
        streams.push(stream);
    }
    let readers: Vec<_> = streams
        .iter()
        .map(|stream| {
            let clone = stream.try_clone().expect("clone drill stream");
            std::thread::spawn(move || {
                clone
                    .set_read_timeout(Some(HOLD_READ_TIMEOUT))
                    .expect("set drill read timeout");
                let mut line = String::new();
                match BufReader::new(clone).read_line(&mut line) {
                    Ok(n) if n > 0 => {
                        let doc = Json::parse(&line).expect("drill reply is JSON");
                        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
                        true
                    }
                    _ => false,
                }
            })
        })
        .collect();
    let served = readers
        .into_iter()
        .map(|r| r.join().expect("drill reader thread"))
        .filter(|&served| served)
        .count();
    (streams, served)
}

struct CapacityDrill {
    concurrent: usize,
    idle_wakeups: u64,
    drain: DrainStats,
}

/// Runs the held-connection drill: every connection multiplexed onto
/// [`REACTORS`] event loops.
fn capacity_drill() -> CapacityDrill {
    let registry = Registry::with_wall_clock();
    let config = ReactorConfig {
        reactors: REACTORS,
        ..ReactorConfig::default()
    };
    let server = ReactorServer::start(Explorer::with_default_threads(), config, &registry)
        .expect("bind reactor");
    let (streams, concurrent) = hold_and_count(server.addr(), SEED + 1);
    // All replies are in; the connections stay open but idle, and no
    // progress deadline is armed, so the reactors must sleep in
    // epoll_wait indefinitely: zero wakeups over the window.
    let before = server.wakeups();
    std::thread::sleep(IDLE_WINDOW);
    let idle_wakeups = server.wakeups() - before;
    drop(streams);
    wait_until("reactor connection teardown", || {
        server.live_connections() == 0
    });
    let drain = server.drain();

    CapacityDrill {
        concurrent,
        idle_wakeups,
        drain,
    }
}

struct RouterRun {
    shards: usize,
    replies: Vec<String>,
    latencies: Histogram,
    elapsed: Duration,
    requests: u64,
    errors: u64,
    protocol_errors: u64,
    stats: DrainStats,
}

/// One router sweep leg: a router over `shards` engines, driven by
/// [`CLIENTS`] sequential request/reply clients.
fn router_run(shards: usize) -> RouterRun {
    let registry = Registry::with_wall_clock();
    let config = RouterConfig {
        shards,
        reactor: ReactorConfig {
            reactors: REACTORS,
            ..ReactorConfig::default()
        },
    };
    let router =
        Router::start(Explorer::with_default_threads, config, &registry).expect("bind router");
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let addr = router.addr();
            std::thread::spawn(move || {
                let mut workload = Workload::new(SEED + 2, client);
                let mut stream =
                    BufReader::new(TcpStream::connect(addr).expect("connect to router"));
                let mut replies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for _ in 0..REQUESTS_PER_CLIENT {
                    let request = workload.next_request_line();
                    let sent = Instant::now();
                    stream
                        .get_mut()
                        .write_all(request.as_bytes())
                        .expect("write router request");
                    let mut line = String::new();
                    stream.read_line(&mut line).expect("read router reply");
                    latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                    let doc = Json::parse(&line).expect("router reply is JSON");
                    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
                    replies.push(line.trim_end().to_string());
                }
                (replies, latencies)
            })
        })
        .collect();
    let mut replies = Vec::new();
    let mut latencies = Histogram::new();
    for client in clients {
        let (lines, times) = client.join().expect("router client thread");
        replies.extend(lines);
        for ms in times {
            latencies.record(ms);
        }
    }
    let elapsed = started.elapsed();
    let requests = registry.counter("router.requests").get();
    let errors = registry.counter("router.errors").get();
    let protocol_errors = registry.counter("router.errors.protocol").get();
    let stats = router.drain();
    RouterRun {
        shards,
        replies,
        latencies,
        elapsed,
        requests,
        errors,
        protocol_errors,
        stats,
    }
}

/// The router sweep's request stream answered by one engine through
/// the pure batch handler: the reference the router must match.
fn direct_replies() -> Vec<String> {
    let engine = Explorer::with_default_threads();
    let limits = ReactorConfig::default().limits;
    let mut replies = Vec::new();
    for client in 0..CLIENTS {
        let mut workload = Workload::new(SEED + 2, client);
        let lines: Vec<String> = (0..REQUESTS_PER_CLIENT)
            .map(|_| workload.next_request_line())
            .collect();
        let lines: Vec<&str> = lines.iter().map(|l| l.trim_end()).collect();
        replies.extend(protocol::handle_batch(&engine, &lines, &limits).0);
    }
    replies
}

/// Runs the capacity drill and the shard sweep; reports deterministic
/// capacity/parity numbers plus wall-clock throughput under `measured`.
pub fn serve_scale() -> Report {
    let drill = capacity_drill();
    assert_eq!(
        drill.concurrent, HELD_CONNECTIONS,
        "the reactor must answer every held connection"
    );
    assert_eq!(
        drill.idle_wakeups, 0,
        "idle reactors must not busy-poll during the observation window"
    );

    let counts = shard_counts();
    let runs: Vec<RouterRun> = counts.iter().map(|&shards| router_run(shards)).collect();
    let expected = (CLIENTS as usize * REQUESTS_PER_CLIENT) as u64;
    let mut digest: Option<String> = None;
    for run in &runs {
        assert_eq!(run.requests, expected, "router must answer every request");
        assert_eq!(run.errors, 0, "router sweep must be error-free");
        assert_eq!(run.protocol_errors, 0, "router sweep must parse cleanly");
        let mut replies = run.replies.clone();
        let d = fnv_digest(&mut replies);
        match &digest {
            None => digest = Some(d),
            Some(first) => assert_eq!(
                first, &d,
                "merged replies must be byte-identical at every shard count"
            ),
        }
    }
    let digest = digest.expect("at least one shard count");
    let direct_digest = fnv_digest(&mut direct_replies());
    assert_eq!(
        digest, direct_digest,
        "router replies must equal one engine's, byte for byte"
    );

    let mut out = format!(
        "serve at scale — epoll reactor + in-process shards\n\n\
         capacity drill: {HELD_CONNECTIONS} held connections; reactor ({REACTORS} reactors) \
         sustained {}\n\
         idle reactors over {} ms: {} epoll wakeups\n\n",
        drill.concurrent,
        IDLE_WINDOW.as_millis(),
        drill.idle_wakeups,
    );
    out.push_str(&format!(
        "router sweep: {CLIENTS} clients x {REQUESTS_PER_CLIENT} sequential requests per shard count\n"
    ));
    let mut table = Table::new(vec![
        "shards",
        "requests",
        "throughput rps",
        "p50 ms",
        "p99 ms",
        "threads joined",
        "clean",
    ]);
    for run in &runs {
        let rps = run.requests as f64 / run.elapsed.as_secs_f64().max(1e-9);
        table.row(vec![
            f(run.shards as f64, 0),
            f(run.requests as f64, 0),
            f(rps, 0),
            f(run.latencies.quantile(0.5).unwrap_or(0.0), 2),
            f(run.latencies.quantile(0.99).unwrap_or(0.0), 2),
            f(run.stats.threads_joined as f64, 0),
            run.stats.clean.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nreply digest (shard-count invariant, equals one engine's): {digest}\n"
    ));

    let metrics = Json::obj()
        .with(
            "workload",
            Json::obj()
                .with("seed", SEED)
                .with("held_connections", HELD_CONNECTIONS)
                .with("clients", CLIENTS)
                .with("requests_per_client", REQUESTS_PER_CLIENT),
        )
        .with(
            "capacity",
            Json::obj()
                .with("reactors", REACTORS)
                .with("reactor_concurrent", drill.concurrent)
                .with("idle_window_ms", IDLE_WINDOW.as_millis() as u64)
                .with("idle_wakeups", drill.idle_wakeups)
                .with(
                    "reactor_drain",
                    Json::obj()
                        .with("threads_joined", drill.drain.threads_joined)
                        .with("abandoned_connections", drill.drain.abandoned_connections)
                        .with("clean", drill.drain.clean),
                ),
        )
        .with(
            "router",
            Json::obj()
                .with("requests_per_count", expected)
                .with("errors", 0u64)
                .with("protocol_errors", 0u64)
                .with("reply_digest", digest)
                .with("direct_digest", direct_digest),
        )
        .with(
            "sharding",
            Json::obj()
                .with(
                    "counts",
                    Json::Arr(counts.iter().map(|&c| Json::from(c)).collect()),
                )
                .with(
                    "per_count",
                    Json::Arr(
                        runs.iter()
                            .map(|run| {
                                Json::obj()
                                    .with("shards", run.shards)
                                    .with("threads_joined", run.stats.threads_joined)
                                    .with("clean", run.stats.clean)
                            })
                            .collect(),
                    ),
                ),
        )
        .with(
            "measured",
            Json::obj().with(
                "per_count",
                Json::Arr(
                    runs.iter()
                        .map(|run| {
                            Json::obj()
                                .with("shards", run.shards)
                                .with(
                                    "throughput_rps",
                                    run.requests as f64 / run.elapsed.as_secs_f64().max(1e-9),
                                )
                                .with("p50_ms", run.latencies.quantile(0.5).unwrap_or(0.0))
                                .with("p99_ms", run.latencies.quantile(0.99).unwrap_or(0.0))
                        })
                        .collect(),
                ),
            ),
        );
    Report::new(out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders only the sections that must not depend on thread or
    /// shard counts (everything except `sharding` and `measured`).
    fn deterministic_section(metrics: &Json) -> String {
        let mut out = String::new();
        for key in ["workload", "capacity", "router"] {
            out.push_str(&metrics.get(key).expect("section present").render_pretty());
            out.push('\n');
        }
        out
    }

    #[test]
    fn reactor_answers_every_held_connection() {
        let report = serve_scale();
        let m = &report.metrics;
        let num = |path: &[&str]| {
            let mut doc = m;
            for key in path {
                doc = doc.get(key).unwrap();
            }
            doc.as_f64().unwrap()
        };
        assert_eq!(
            num(&["capacity", "reactor_concurrent"]),
            HELD_CONNECTIONS as f64,
            "the reactor must answer every held connection"
        );
        assert_eq!(num(&["capacity", "idle_wakeups"]), 0.0);
        assert_eq!(
            num(&["router", "requests_per_count"]),
            (CLIENTS as usize * REQUESTS_PER_CLIENT) as f64
        );
        assert_eq!(num(&["router", "errors"]), 0.0);
        assert_eq!(
            m.get("capacity")
                .unwrap()
                .get("reactor_drain")
                .unwrap()
                .get("clean"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            num(&["capacity", "reactor_drain", "threads_joined"]),
            (REACTORS + 1) as f64
        );
        assert_eq!(
            num(&["capacity", "reactor_drain", "abandoned_connections"]),
            0.0,
            "the drill must leave no abandoned connections"
        );
    }

    #[test]
    fn deterministic_sections_are_shard_count_invariant() {
        set_serve_scale_shards(1);
        let one = deterministic_section(&serve_scale().metrics);
        set_serve_scale_shards(2);
        let two = deterministic_section(&serve_scale().metrics);
        set_serve_scale_shards(0);
        assert_eq!(one, two, "artifact must not depend on the shard count");
    }
}
