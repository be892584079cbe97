//! The `chaos` experiment: the serving stack under a seeded network
//! fault campaign.
//!
//! Nine fault classes run in a fixed order, each against a fresh
//! server + [`ChaosProxy`] + resilient [`Client`] triple with its own
//! telemetry registry, four requests per class, issued sequentially so
//! every counter is exact:
//!
//! | class           | injection                                    |
//! |-----------------|----------------------------------------------|
//! | `clean`         | faithful relay (control)                     |
//! | `coalesce`      | 4 pipelined requests delivered as one write  |
//! | `split`         | request bytes re-chunked into 7-byte writes  |
//! | `garbage`       | seeded garbage line ahead of each request    |
//! | `reset`         | connection reset 20 bytes into the request   |
//! | `truncate`      | reply cut off after 20 bytes                 |
//! | `slow_loris`    | 10 bytes then silence past the line deadline |
//! | `deadline_shed` | over-budget queries vs a cost-unit deadline  |
//! | `panic`         | a poisoned design point panicking the eval   |
//!
//! Connection-scoped faults use an every-other schedule: the first
//! attempt fails, the client's retry lands on a clean connection —
//! so survival, retry and shed counts are exact, not statistical.
//!
//! The artifact holds only scheduling-independent numbers (cost-unit
//! quantiles, not wall time), so `BENCH_chaos.json` is byte-identical
//! at `--threads 1` and `--threads 4`. CI diffs exactly that and
//! asserts zero uncaught panics and zero leaked threads.

use crate::experiments::serve_figs::{fnv_digest, wait_until};
use crate::experiments::Report;
use crate::table::{f, Table};
use drone_components::battery::CellCount;
use drone_explorer::{Explorer, GridRange, Objective, Query, QueryRanges};
use drone_serve::{
    CallError, ChaosProxy, Client, ClientConfig, DrainStats, ErrorKind, Fault, FaultSchedule,
    ReactorConfig, ReactorServer,
};
use drone_telemetry::{Histogram, Json, Registry};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 42;
const REQUESTS_PER_CLASS: usize = 4;
/// Cut points stay well below any request or reply line length, so a
/// truncated fragment can never parse as a complete document.
const RESET_AT: usize = 20;
const TRUNCATE_AT: usize = 20;
const SPLIT_EVERY: usize = 7;
const GARBAGE_LEN: usize = 24;
/// Server line deadline 100 ms vs a 400 ms proxy stall: 4x margin.
/// The stall starts mid-line, so the connection owes a newline and the
/// progress deadline is armed.
const LINE_DEADLINE_MS: u64 = 100;
const STALL_MS: u64 = 400;
/// Cost-unit deadline for the shed class: passes 15-point queries,
/// sheds 125-point ones.
const COST_DEADLINE: u64 = 100;

/// A 15-point query, comfortably under every deadline.
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

/// A 125-point query: valid, but over the shed class's cost deadline.
fn big_query(name: &str) -> Query {
    Query::new(
        name,
        QueryRanges {
            wheelbase_mm: GridRange::new(250.0, 450.0, 5),
            cells: vec![CellCount::S3],
            capacity_mah: GridRange::new(2000.0, 6000.0, 5),
            compute_power_w: GridRange::fixed(20.0),
            twr: GridRange::fixed(2.0),
            payload_g: GridRange::new(0.0, 200.0, 5),
        },
        Objective::MaxFlightTime,
    )
}

/// A query whose every grid point hits the poisoned 350 mm wheelbase.
fn poisoned_query(name: &str) -> Query {
    Query::new(
        name,
        QueryRanges {
            wheelbase_mm: GridRange::fixed(350.0),
            cells: vec![CellCount::S3],
            capacity_mah: GridRange::new(2000.0, 6000.0, 5),
            compute_power_w: GridRange::fixed(20.0),
            twr: GridRange::fixed(2.0),
            payload_g: GridRange::fixed(0.0),
        },
        Objective::MaxFlightTime,
    )
}

/// Typed outcome tallies for one class: every request must land in
/// exactly one bucket — the "no hang, no silent drop" invariant.
#[derive(Default)]
struct Outcomes {
    ok: usize,
    shed: usize,
    rejected: usize,
    exhausted: usize,
    breaker_open: usize,
}

struct ClassResult {
    name: &'static str,
    outcomes: Outcomes,
    attempts: u64,
    survived_replies: Vec<String>,
    registry: Registry,
    server_threads_joined: usize,
    server_clean: bool,
    proxy_connections: u64,
    proxy_faults: u64,
    proxy_threads_joined: usize,
}

impl ClassResult {
    fn requests(&self) -> usize {
        let o = &self.outcomes;
        o.ok + o.shed + o.rejected + o.exhausted + o.breaker_open
    }

    /// Expected thread count: the proxy joins its acceptor plus one
    /// relay per accepted connection; the server joins 2 reactors + 1
    /// acceptor. Any deviation is a leak.
    fn threads_leaked(&self) -> i64 {
        let expected_proxy = 1 + self.proxy_connections as i64;
        let expected_server = 3;
        (expected_proxy - self.proxy_threads_joined as i64).abs()
            + (expected_server - self.server_threads_joined as i64).abs()
    }

    fn to_json(&self) -> Json {
        let registry = &self.registry;
        let counter = |name: &str| registry.counter(name).get();
        let mut replies = self.survived_replies.clone();
        let mut latency = Histogram::new();
        for line in &replies {
            let cost = Json::parse(line)
                .ok()
                .and_then(|doc| {
                    doc.get("answer")
                        .and_then(|a| a.get("cost_units"))
                        .and_then(Json::as_f64)
                })
                .unwrap_or(0.0);
            latency.record(cost);
        }
        let quantile = |q: f64| latency.quantile(q).unwrap_or(0.0);
        Json::obj()
            .with(
                "outcomes",
                Json::obj()
                    .with("ok", self.outcomes.ok)
                    .with("deadline_shed", self.outcomes.shed)
                    .with("rejected", self.outcomes.rejected)
                    .with("exhausted", self.outcomes.exhausted)
                    .with("breaker_open", self.outcomes.breaker_open),
            )
            .with("requests", self.requests())
            .with("attempts", self.attempts)
            .with(
                "client",
                Json::obj()
                    .with("retries", counter("client.retries"))
                    .with("breaker_opens", counter("client.breaker_opens"))
                    .with("breaker_fast_fails", counter("client.breaker_fast_fails")),
            )
            .with(
                "server",
                Json::obj()
                    .with("requests", counter("serve.requests"))
                    .with("panics_caught", counter("serve.panics_caught"))
                    .with("deadline_sheds", counter("serve.deadline_sheds"))
                    .with("idle_timeouts", counter("serve.idle_timeouts"))
                    .with("protocol_errors", counter("serve.errors.protocol")),
            )
            .with(
                "latency_units",
                Json::obj()
                    .with("count", latency.count())
                    .with("p50", quantile(0.5))
                    .with("p99", quantile(0.99))
                    .with("max", latency.max().unwrap_or(0.0)),
            )
            .with(
                "proxy",
                Json::obj()
                    .with("connections", self.proxy_connections)
                    .with("faults_injected", self.proxy_faults)
                    .with("threads_joined", self.proxy_threads_joined),
            )
            .with(
                "drain",
                Json::obj()
                    .with("threads_joined", self.server_threads_joined)
                    .with("clean", self.server_clean),
            )
            .with("threads_leaked", self.threads_leaked() as f64)
            .with("reply_digest", fnv_digest(&mut replies))
    }
}

/// The per-class serving stack: a fresh registry, server (optionally
/// hooked for panics), and proxy under the given schedule.
struct Stack {
    registry: Registry,
    server: ReactorServer,
    proxy: ChaosProxy,
}

fn stack(schedule: FaultSchedule, server_config: ReactorConfig, poison: bool) -> Stack {
    let registry = Registry::with_wall_clock();
    let mut engine = Explorer::with_default_threads();
    engine.attach_telemetry(&registry);
    let engine = if poison {
        engine.with_eval_hook(Arc::new(|q| {
            assert!(
                (q.wheelbase_mm - 350.0).abs() > 1e-9,
                "chaos campaign: poisoned wheelbase"
            );
        }))
    } else {
        engine
    };
    let server = ReactorServer::start(engine, server_config, &registry).expect("bind chaos server");
    let proxy = ChaosProxy::start(server.addr(), schedule, SEED).expect("bind chaos proxy");
    Stack {
        registry,
        server,
        proxy,
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        retries: 2,
        backoff_initial_ms: 2,
        backoff_max_ms: 8,
        jitter_seed: SEED,
        breaker_threshold: 0,
        breaker_cooldown: 0,
        reply_timeout: Duration::from_millis(2000),
        trace_seed: SEED,
    }
}

/// Drains `server` once its reactors have seen every relay close. The
/// stopped proxy has closed its upstream ends, but a reactor may not
/// have read the close yet, and a reset connection's truncated line is
/// counted only when it does.
fn drain_after_closes(server: ReactorServer) -> DrainStats {
    wait_until("relay closes", || server.live_connections() == 0);
    server.drain()
}

/// Runs one class through the resilient client, one call per query,
/// sequentially.
fn run_class(
    name: &'static str,
    schedule: FaultSchedule,
    server_config: ReactorConfig,
    client_config: ClientConfig,
    poison: bool,
    queries: &[Query],
) -> ClassResult {
    let stack = stack(schedule, server_config, poison);
    let mut client = Client::new(stack.proxy.addr(), client_config, &stack.registry);
    let mut outcomes = Outcomes::default();
    let mut attempts = 0u64;
    let mut survived = Vec::new();
    for query in queries {
        match client.call(query) {
            Ok(success) => {
                outcomes.ok += 1;
                attempts += u64::from(success.attempts);
                survived.push(success.reply.render());
            }
            Err(CallError::Rejected { error, attempts: a }) => {
                attempts += u64::from(a);
                if error.kind == ErrorKind::DeadlineExceeded {
                    outcomes.shed += 1;
                } else {
                    outcomes.rejected += 1;
                }
            }
            Err(CallError::Exhausted { attempts: a, .. }) => {
                attempts += u64::from(a);
                outcomes.exhausted += 1;
            }
            Err(CallError::BreakerOpen) => outcomes.breaker_open += 1,
        }
    }
    let proxy_stats = stack.proxy.stop();
    let drain = drain_after_closes(stack.server);
    ClassResult {
        name,
        outcomes,
        attempts,
        survived_replies: survived,
        registry: stack.registry,
        server_threads_joined: drain.threads_joined,
        server_clean: drain.clean,
        proxy_connections: proxy_stats.connections,
        proxy_faults: proxy_stats.faults_injected,
        proxy_threads_joined: proxy_stats.threads_joined,
    }
}

/// The coalesce class bypasses the client: four requests pipelined in
/// one raw write, delivered to the server as one giant chunk.
fn run_coalesce_class() -> ClassResult {
    let stack = stack(
        FaultSchedule::Always(Fault::Coalesce),
        ReactorConfig::default(),
        false,
    );
    let mut payload = String::new();
    for id in 0..REQUESTS_PER_CLASS {
        let query = small_query(&format!("coalesce-{id}"));
        payload.push_str(&drone_serve::request_to_json(id as u64, &query).render());
        payload.push('\n');
    }
    let mut stream = TcpStream::connect(stack.proxy.addr()).expect("connect through proxy");
    stream
        .write_all(payload.as_bytes())
        .expect("write pipelined payload");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let replies: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect();
    let mut outcomes = Outcomes::default();
    let mut survived = Vec::new();
    for line in replies {
        let doc = Json::parse(&line).expect("reply is JSON");
        if doc.get("ok") == Some(&Json::Bool(true)) {
            outcomes.ok += 1;
            survived.push(line);
        } else {
            outcomes.rejected += 1;
        }
    }
    let proxy_stats = stack.proxy.stop();
    let drain = drain_after_closes(stack.server);
    ClassResult {
        name: "coalesce",
        outcomes,
        attempts: 1,
        survived_replies: survived,
        registry: stack.registry,
        server_threads_joined: drain.threads_joined,
        server_clean: drain.clean,
        proxy_connections: proxy_stats.connections,
        proxy_faults: proxy_stats.faults_injected,
        proxy_threads_joined: proxy_stats.threads_joined,
    }
}

fn queries(class: &str) -> Vec<Query> {
    (0..REQUESTS_PER_CLASS)
        .map(|i| small_query(&format!("{class}-{i}")))
        .collect()
}

/// Silences the default panic hook's stderr spew for *intentional*
/// poison panics only (shared with the `trace` campaign); every other
/// panic still reports. Installed once and never restored, so
/// concurrent campaign runs (the tests) cannot race on the global
/// hook.
pub(crate) fn silence_poison_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("poisoned wheelbase") {
                previous(info);
            }
        }));
    });
}

/// Runs the full fault campaign and reports per-class survival.
pub fn chaos() -> Report {
    silence_poison_panics();
    let defaults = ReactorConfig::default();
    let classes: Vec<ClassResult> = vec![
        run_class(
            "clean",
            FaultSchedule::Always(Fault::None),
            defaults,
            client_config(),
            false,
            &queries("clean"),
        ),
        run_coalesce_class(),
        run_class(
            "split",
            FaultSchedule::Always(Fault::SplitEvery(SPLIT_EVERY)),
            defaults,
            client_config(),
            false,
            &queries("split"),
        ),
        run_class(
            "garbage",
            FaultSchedule::Always(Fault::GarbagePrefix(GARBAGE_LEN)),
            defaults,
            client_config(),
            false,
            &queries("garbage"),
        ),
        run_class(
            "reset",
            FaultSchedule::EveryOther(Fault::ResetAfter(RESET_AT)),
            defaults,
            client_config(),
            false,
            &queries("reset"),
        ),
        run_class(
            "truncate",
            FaultSchedule::EveryOther(Fault::TruncateReplyAfter(TRUNCATE_AT)),
            defaults,
            client_config(),
            false,
            &queries("truncate"),
        ),
        run_class(
            "slow_loris",
            FaultSchedule::EveryOther(Fault::StallAfter {
                bytes: 10,
                millis: STALL_MS,
            }),
            ReactorConfig {
                line_deadline: Some(Duration::from_millis(LINE_DEADLINE_MS)),
                ..defaults
            },
            client_config(),
            false,
            &queries("slow_loris"),
        ),
        run_class(
            "deadline_shed",
            FaultSchedule::Always(Fault::None),
            ReactorConfig {
                cost_deadline: Some(COST_DEADLINE),
                ..defaults
            },
            client_config(),
            false,
            // Alternate under/over budget: 2 answered, 2 shed.
            &[
                small_query("shed-0"),
                big_query("shed-1"),
                small_query("shed-2"),
                big_query("shed-3"),
            ],
        ),
        run_class(
            "panic",
            FaultSchedule::Always(Fault::None),
            defaults,
            ClientConfig {
                retries: 0,
                breaker_threshold: 2,
                breaker_cooldown: 2,
                ..client_config()
            },
            true,
            &(0..REQUESTS_PER_CLASS)
                .map(|i| poisoned_query(&format!("panic-{i}")))
                .collect::<Vec<_>>(),
        ),
    ];

    let mut out =
        String::from("chaos campaign — seeded network faults against the serving stack\n\n");
    let mut table = Table::new(vec![
        "class",
        "requests",
        "ok",
        "shed",
        "exhausted",
        "breaker",
        "retries",
        "panics",
    ]);
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut classes_json = Json::obj();
    let mut uncaught = 0i64;
    let mut leaked = 0i64;
    for class in &classes {
        let retries = class.registry.counter("client.retries").get();
        let panics = class.registry.counter("serve.panics_caught").get();
        let sheds = class.registry.counter("serve.deadline_sheds").get()
            + class.registry.counter("serve.idle_timeouts").get();
        table.row(vec![
            class.name.into(),
            f(class.requests() as f64, 0),
            f(class.outcomes.ok as f64, 0),
            f(class.outcomes.shed as f64, 0),
            f(class.outcomes.exhausted as f64, 0),
            f(class.outcomes.breaker_open as f64, 0),
            f(retries as f64, 0),
            f(panics as f64, 0),
        ]);
        totals.0 += class.requests() as u64;
        totals.1 += class.outcomes.ok as u64;
        totals.2 += retries;
        totals.3 += sheds;
        totals.4 += panics;
        if !class.server_clean {
            uncaught += 1;
        }
        leaked += class.threads_leaked();
        classes_json.insert(class.name, class.to_json());
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\n{} requests total: {} answered, {} retries, {} sheds, {} panics caught\n",
        totals.0, totals.1, totals.2, totals.3, totals.4
    ));
    out.push_str(&format!(
        "uncaught panics: {uncaught}; leaked threads: {leaked}\n"
    ));

    let metrics = Json::obj()
        .with("seed", SEED)
        .with("requests_per_class", REQUESTS_PER_CLASS)
        .with("classes", classes_json)
        .with(
            "totals",
            Json::obj()
                .with("requests", totals.0)
                .with("survived", totals.1)
                .with("retries", totals.2)
                .with("sheds", totals.3)
                .with("panics_caught", totals.4)
                .with("uncaught_panics", uncaught as f64)
                .with("threads_leaked", leaked as f64),
        );
    Report::new(out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(doc: &Json, path: &[&str]) -> f64 {
        let mut cursor = doc;
        for key in path {
            cursor = cursor.get(key).unwrap_or_else(|| panic!("missing {key}"));
        }
        cursor.as_f64().unwrap()
    }

    #[test]
    fn every_fault_resolves_to_a_typed_outcome() {
        let report = chaos();
        let m = &report.metrics;
        // The hard acceptance criteria: nothing uncaught, nothing
        // leaked, and the retry/shed machinery actually exercised.
        assert_eq!(num(m, &["totals", "uncaught_panics"]), 0.0);
        assert_eq!(num(m, &["totals", "threads_leaked"]), 0.0);
        assert!(num(m, &["totals", "retries"]) > 0.0);
        assert!(num(m, &["totals", "sheds"]) > 0.0);
        assert!(num(m, &["totals", "panics_caught"]) > 0.0);

        // Exact per-class survival: connection faults are survived by
        // retry, policy faults shed, the poisoned class trips the
        // breaker.
        for class in ["clean", "coalesce", "split", "garbage"] {
            assert_eq!(
                num(m, &["classes", class, "outcomes", "ok"]),
                4.0,
                "{class}"
            );
        }
        for class in ["reset", "truncate", "slow_loris"] {
            assert_eq!(
                num(m, &["classes", class, "outcomes", "ok"]),
                4.0,
                "{class}"
            );
            assert_eq!(
                num(m, &["classes", class, "client", "retries"]),
                4.0,
                "{class}"
            );
        }
        assert_eq!(num(m, &["classes", "deadline_shed", "outcomes", "ok"]), 2.0);
        assert_eq!(
            num(
                m,
                &["classes", "deadline_shed", "outcomes", "deadline_shed"]
            ),
            2.0
        );
        assert_eq!(
            num(m, &["classes", "slow_loris", "server", "idle_timeouts"]),
            4.0
        );
        assert_eq!(num(m, &["classes", "panic", "outcomes", "exhausted"]), 2.0);
        assert_eq!(
            num(m, &["classes", "panic", "outcomes", "breaker_open"]),
            2.0
        );
        assert_eq!(
            num(m, &["classes", "panic", "server", "panics_caught"]),
            2.0
        );
        assert_eq!(
            num(m, &["classes", "panic", "client", "breaker_opens"]),
            1.0
        );
        // The garbage class rejects exactly its injected lines.
        assert_eq!(
            num(m, &["classes", "garbage", "server", "protocol_errors"]),
            4.0
        );
    }

    #[test]
    fn chaos_metrics_are_thread_count_invariant() {
        crate::experiments::assert_thread_count_invariant(|| chaos().metrics);
    }
}
