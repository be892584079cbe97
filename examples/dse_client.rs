//! `dse_client` — spin up the DSE query server on a loopback port and
//! talk to it over TCP, end to end.
//!
//! ```sh
//! cargo run --release --example dse_client
//! cargo run --release --example dse_client -- --clients 4 --requests 8
//! cargo run --release --example dse_client -- --retries 3 --backoff-ms 10 --deadline 200
//! cargo run --release --example dse_client -- --trace
//! ```
//!
//! The example starts a [`drone_serve::ReactorServer`] in-process and drives
//! it with N concurrent resilient [`drone_serve::Client`]s replaying a
//! deterministic seeded [`drone_serve::Workload`]. `--retries` and
//! `--backoff-ms` configure the clients' retry/backoff policy;
//! `--deadline` arms the server's per-request cost-unit budget, so
//! over-budget queries come back as typed `deadline_exceeded`
//! rejections instead of answers. A deliberately malformed line shows
//! the structured error path, and the run finishes with a graceful
//! drain that joins every server thread.
//!
//! `--trace` asks the live server for the causal span tree of client
//! 0's first request (by its deterministic trace id) and pretty-prints
//! it — one line per span, indented by depth, annotated with cache
//! outcomes and worker ids.
//!
//! `--optimize <monte_carlo|lhs|sobol|halving>` sends one `optimize`
//! wire request after the workload: a seeded sampling run over a small
//! reference region, capped at `--budget` engine evaluations. The
//! reply's winner and points-evaluated accounting are pretty-printed,
//! demonstrating the search subsystem end to end over TCP.

use drone_components::battery::CellCount;
use drone_explorer::{
    Constraints, Explorer, GridRange, Objective, OptimizeRequest, QueryRanges, Strategy,
};
use drone_serve::{CallError, Client, ClientConfig, ReactorConfig, ReactorServer, Workload};
use drone_telemetry::{derive_trace_id, id_hex, Json, Registry};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

struct Args {
    clients: u64,
    requests: usize,
    seed: u64,
    retries: u32,
    backoff_ms: u64,
    deadline: Option<u64>,
    trace: bool,
    optimize: Option<Strategy>,
    budget: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 3,
        requests: 5,
        seed: 7,
        retries: 2,
        backoff_ms: 25,
        deadline: None,
        trace: false,
        optimize: None,
        budget: 24,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--clients" => args.clients = value("--clients")?.max(1),
            "--requests" => args.requests = value("--requests")?.max(1) as usize,
            "--seed" => args.seed = value("--seed")?,
            "--retries" => args.retries = value("--retries")? as u32,
            "--backoff-ms" => args.backoff_ms = value("--backoff-ms")?.max(1),
            "--deadline" => args.deadline = Some(value("--deadline")?),
            "--trace" => args.trace = true,
            "--optimize" => {
                let name = it
                    .next()
                    .ok_or_else(|| "--optimize needs a strategy name".to_owned())?;
                args.optimize = Some(Strategy::from_name(&name).ok_or_else(|| {
                    format!(
                        "--optimize: unknown strategy {name} (monte_carlo, lhs, sobol, halving)"
                    )
                })?);
            }
            "--budget" => args.budget = value("--budget")?.max(1) as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Pretty-prints one span node of a server-returned trace tree:
/// indented by depth, annotated with its cache outcome and the worker
/// it ran on when present.
fn print_span(node: &Json, depth: usize) {
    let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
    let mut notes: Vec<String> = Vec::new();
    if let Some(tags) = node.get("tags").and_then(Json::as_obj) {
        for (key, value) in tags {
            let rendered = match value {
                Json::Str(s) => s.clone(),
                other => other.render(),
            };
            notes.push(format!("{key}={rendered}"));
        }
    }
    if let Some(worker) = node.get("worker").and_then(Json::as_f64) {
        notes.push(format!("worker={worker}"));
    }
    if let Some(elapsed) = node.get("elapsed_s").and_then(Json::as_f64) {
        notes.push(format!("{:.1}us", elapsed * 1e6));
    }
    let annotation = if notes.is_empty() {
        String::new()
    } else {
        format!("  [{}]", notes.join(" "))
    };
    println!("  {}{name}{annotation}", "  ".repeat(depth));
    if let Some(children) = node.get("children").and_then(Json::as_arr) {
        for child in children {
            print_span(child, depth + 1);
        }
    }
}

/// What one client thread saw: per-call outcomes plus the first ok
/// reply for display.
struct ClientRun {
    answered: usize,
    deadline_sheds: usize,
    failed: usize,
    attempts: u32,
    first_ok: Option<Json>,
}

fn run_client(addr: std::net::SocketAddr, args: &Args, client_index: u64) -> ClientRun {
    let registry = Registry::with_wall_clock();
    let config = ClientConfig {
        retries: args.retries,
        backoff_initial_ms: args.backoff_ms,
        backoff_max_ms: args.backoff_ms.saturating_mul(16),
        jitter_seed: args.seed ^ client_index,
        // Distinct per-client trace seeds keep span trees attributable:
        // client c's request n is trace derive_trace_id(seed ^ c, n).
        trace_seed: args.seed ^ client_index,
        ..ClientConfig::default()
    };
    let mut client = Client::new(addr, config, &registry);
    let mut workload = Workload::new(args.seed, client_index);
    let mut run = ClientRun {
        answered: 0,
        deadline_sheds: 0,
        failed: 0,
        attempts: 0,
        first_ok: None,
    };
    for _ in 0..args.requests {
        let query = workload.next_query();
        match client.call(&query) {
            Ok(success) => {
                run.answered += 1;
                run.attempts += success.attempts;
                if run.first_ok.is_none() {
                    run.first_ok = Some(success.reply);
                }
            }
            Err(CallError::Rejected { error, attempts })
                if error.kind == drone_serve::protocol::ErrorKind::DeadlineExceeded =>
            {
                run.deadline_sheds += 1;
                run.attempts += attempts;
            }
            Err(CallError::Rejected { attempts, .. }) => {
                run.failed += 1;
                run.attempts += attempts;
            }
            Err(CallError::Exhausted { attempts, .. }) => {
                run.failed += 1;
                run.attempts += attempts;
            }
            Err(CallError::BreakerOpen) => run.failed += 1,
        }
    }
    run
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: dse_client [--clients N] [--requests N] [--seed N] \
                 [--retries N] [--backoff-ms MS] [--deadline COST_UNITS] [--trace] \
                 [--optimize STRATEGY] [--budget N]"
            );
            return ExitCode::FAILURE;
        }
    };

    let registry = Registry::with_wall_clock();
    let mut engine = Explorer::with_default_threads();
    engine.attach_telemetry(&registry);
    let config = ReactorConfig {
        cost_deadline: args.deadline,
        ..ReactorConfig::default()
    };
    let server = ReactorServer::start(engine, config, &registry).expect("bind loopback port");
    println!("server listening on {}", server.addr());
    match args.deadline {
        Some(units) => println!("per-request deadline armed at {units} cost units"),
        None => println!("no per-request deadline"),
    }

    let args = std::sync::Arc::new(args);
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let addr = server.addr();
            let args = std::sync::Arc::clone(&args);
            std::thread::spawn(move || run_client(addr, &args, c))
        })
        .collect();
    let mut answered = 0usize;
    let mut deadline_sheds = 0usize;
    let mut failed = 0usize;
    for (c, handle) in handles.into_iter().enumerate() {
        let run = handle.join().expect("client thread");
        answered += run.answered;
        deadline_sheds += run.deadline_sheds;
        failed += run.failed;
        // Show the first reply of each client, compactly.
        if let Some(doc) = run.first_ok {
            let answer = doc.get("answer").expect("ok reply");
            let best = answer.get("best").expect("best field");
            let describe = |key: &str| {
                best.get(key)
                    .and_then(Json::as_f64)
                    .map_or("-".to_owned(), |v| format!("{v:.1}"))
            };
            println!(
                "client {c}: {} ok / {} shed over {} attempt(s); first answer evaluated {} points, best flight {} min at {} g",
                run.answered,
                run.deadline_sheds,
                run.attempts,
                answer.get("evaluated").and_then(Json::as_f64).unwrap_or(0.0),
                describe("flight_min"),
                describe("weight_g"),
            );
        } else {
            println!(
                "client {c}: {} ok / {} shed / {} failed over {} attempt(s)",
                run.answered, run.deadline_sheds, run.failed, run.attempts
            );
        }
    }

    // The error path is structured too: a malformed line gets a typed
    // reply, not a dropped connection.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"this is not a request\n")
        .expect("send junk");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read error reply");
    let doc = Json::parse(&line).expect("error reply is JSON");
    let kind = doc
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_owned();
    println!("malformed line answered with a structured '{kind}' error");

    // --trace: ask the live server for client 0's first span tree by
    // its deterministic trace id and pretty-print it.
    let mut trace_ok = true;
    if args.trace {
        let mut probe = Client::new(server.addr(), ClientConfig::default(), &registry);
        let wanted = derive_trace_id(args.seed, 1);
        match probe.fetch_trace(wanted) {
            Ok(success) => {
                let traces = success
                    .reply
                    .get("traces")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[]);
                match traces.first() {
                    Some(trace) => {
                        println!(
                            "span tree for trace {} ({} spans):",
                            id_hex(wanted),
                            trace.get("spans").and_then(Json::as_f64).unwrap_or(0.0)
                        );
                        for root in trace.get("tree").and_then(Json::as_arr).unwrap_or(&[]) {
                            print_span(root, 0);
                        }
                    }
                    None => {
                        println!("trace {} not retained by the server", id_hex(wanted));
                        trace_ok = false;
                    }
                }
            }
            Err(error) => {
                println!("trace fetch failed: {error}");
                trace_ok = false;
            }
        }
    }

    // --optimize: drive the seeded search subsystem over the wire —
    // one optimize request against a small reference region, answered
    // by the same engine (and memo cache) that served the workload.
    let mut optimize_ok = true;
    if let Some(strategy) = args.optimize {
        let request = OptimizeRequest::new(
            "example_opt",
            QueryRanges {
                wheelbase_mm: GridRange::new(250.0, 450.0, 5),
                cells: vec![CellCount::S3],
                capacity_mah: GridRange::new(2000.0, 6000.0, 9),
                compute_power_w: GridRange::fixed(10.0),
                twr: GridRange::fixed(drone_components::paper::PAPER_TWR),
                payload_g: GridRange::fixed(0.0),
            },
            Objective::MaxFlightTime,
            strategy,
            args.budget,
        )
        .with_constraints(Constraints {
            min_flight_time_min: Some(5.0),
            ..Constraints::default()
        })
        .with_seed(args.seed);
        let mut probe = Client::new(server.addr(), ClientConfig::default(), &registry);
        match probe.optimize(&request) {
            Ok(success) => {
                let answer = success.reply.get("answer").expect("ok optimize reply");
                let get = |key: &str| answer.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "optimize[{strategy}]: evaluated {} of budget {} ({} sampled, {} prefiltered, {} coarse, {} refine wave(s))",
                    get("evaluated"),
                    get("budget"),
                    get("sampled"),
                    get("prefiltered"),
                    get("coarse_evals"),
                    get("refine_waves"),
                );
                match answer.get("best") {
                    Some(best) => {
                        let field = |key: &str| {
                            best.get(key)
                                .and_then(Json::as_f64)
                                .map_or("-".to_owned(), |v| format!("{v:.1}"))
                        };
                        let frontier = answer
                            .get("frontier")
                            .and_then(Json::as_arr)
                            .map_or(0, <[Json]>::len);
                        println!(
                            "optimize[{strategy}]: winner flies {} min at {} g ({frontier} member(s) on the frontier)",
                            field("flight_min"),
                            field("weight_g"),
                        );
                    }
                    None => {
                        println!("optimize[{strategy}]: no feasible design under the budget");
                        optimize_ok = false;
                    }
                }
            }
            Err(CallError::Rejected { error, .. })
                if error.kind == drone_serve::protocol::ErrorKind::DeadlineExceeded =>
            {
                println!(
                    "optimize[{strategy}]: shed by the cost deadline (budget {} > deadline)",
                    args.budget
                );
            }
            Err(error) => {
                println!("optimize[{strategy}] failed: {error}");
                optimize_ok = false;
            }
        }
    }

    let stats = server.drain();
    let total = args.clients as usize * args.requests;
    println!(
        "{answered} answered + {deadline_sheds} deadline-shed of {total} requests; \
         drain joined {} thread(s), clean={}",
        stats.threads_joined, stats.clean
    );
    let all_accounted = answered + deadline_sheds == total && failed == 0;
    if all_accounted && stats.clean && kind == "parse" && trace_ok && optimize_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
