//! End-to-end tests of the serving front-end over loopback sockets:
//! the contract every [`ReactorServer`] caller relies on (ordering,
//! shedding, deadlines, panic isolation, introspection, drain).
//! Reactor internals are tested in `reactor::tests`. The epoll
//! front-end exists only on Linux x86_64/aarch64.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use drone_explorer::Explorer;
use drone_serve::{ReactorConfig, ReactorServer};
use drone_telemetry::{Json, Registry};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn request_line(id: u64) -> String {
    format!(
        r#"{{"id":{id},"query":{{"ranges":{{"wheelbase_mm":{{"min":250,"max":450,"steps":3}},"cells":["3S"],"capacity_mah":{{"min":2000,"max":6000,"steps":5}}}},"objective":"max_flight_time"}}}}"#
    )
}

const HEALTHY: &str = r#"{"id":9,"query":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time"}}"#;

fn start(config: ReactorConfig) -> (ReactorServer, Registry) {
    start_with(Explorer::new(2), config)
}

fn start_with(engine: Explorer, config: ReactorConfig) -> (ReactorServer, Registry) {
    let registry = Registry::with_wall_clock();
    let server = ReactorServer::start(engine, config, &registry).expect("bind loopback");
    (server, registry)
}

/// Pipelines `payload` on one fresh connection, half-closes, and
/// returns every reply, parsed.
fn round_trip(server: &ReactorServer, payload: &str) -> Vec<Json> {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    BufReader::new(stream)
        .lines()
        .map(|l| Json::parse(&l.unwrap()).unwrap())
        .collect()
}

fn error_kind(reply: &Json) -> Option<&str> {
    reply.get("error")?.get("kind")?.as_str()
}

#[test]
fn serves_pipelined_requests_in_order_and_drains_cleanly() {
    let (server, registry) = start(ReactorConfig::default());
    let mut payload = String::new();
    for id in 0..5 {
        payload.push_str(&request_line(id));
        payload.push('\n');
    }
    payload.push_str("junk line\n");
    let replies = round_trip(&server, &payload);
    assert_eq!(replies.len(), 6);
    for (id, doc) in replies[..5].iter().enumerate() {
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
        assert_eq!(doc.get("id"), Some(&Json::Num(id as f64)));
    }
    assert_eq!(replies[5].get("ok"), Some(&Json::Bool(false)));

    assert_eq!(registry.counter("serve.requests").get(), 6);
    assert_eq!(registry.counter("serve.errors.protocol").get(), 1);
    assert_eq!(registry.counter("serve.errors.query").get(), 0);

    let stats = server.drain();
    assert_eq!(stats.threads_joined, ReactorConfig::default().reactors + 1);
    assert!(stats.clean);
}

#[test]
fn sheds_with_a_structured_reply_once_the_queue_fills() {
    let config = ReactorConfig {
        reactors: 1,
        max_connections: 2,
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    // Two connections with a request in flight fill the reactor; they
    // must register before the next ones arrive.
    let held: Vec<TcpStream> = (0..2)
        .map(|i| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(format!("{}\n", request_line(i)).as_bytes())
                .unwrap();
            stream
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.live_connections() < 2 {
        assert!(
            Instant::now() < deadline,
            "held connections never registered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Past the ceiling the server sheds without waiting for a request:
    // exactly one overloaded line, then close.
    for _ in 0..2 {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(error_kind(&doc), Some("overloaded"));
    }
    assert_eq!(registry.counter("serve.sheds").get(), 2);

    // The held connections were admitted and still get served; reading
    // to EOF means the reactor has closed them before the drain.
    for (id, stream) in held.into_iter().enumerate() {
        stream.shutdown(Shutdown::Write).unwrap();
        let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        let doc = Json::parse(&replies[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("id"), Some(&Json::Num(id as f64)));
    }
    let stats = server.drain();
    assert_eq!(stats.threads_joined, 2);
    assert!(stats.clean);
    assert_eq!(stats.abandoned_connections, 0);
}

#[test]
fn oversized_lines_get_refused_not_buffered_forever() {
    let config = ReactorConfig {
        max_line_bytes: 512,
        ..ReactorConfig::default()
    };
    let (server, _registry) = start(config);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // No newline ever arrives: the refusal must not wait for one.
    stream.write_all(&[b'x'; 4096]).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    let doc = Json::parse(&line).unwrap();
    assert_eq!(error_kind(&doc), Some("too_large"));
    server.drain();
}

#[test]
fn dropping_an_undrained_server_joins_its_threads() {
    let (server, _registry) = start(ReactorConfig::default());
    // One connection mid-line, so the drop also abandons live state.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"{\"id\":1,").unwrap();
    drop(server); // must not hang or leak; nothing to assert beyond returning.
}

#[test]
fn too_large_lines_resynchronize_instead_of_closing() {
    let config = ReactorConfig {
        max_line_bytes: 512,
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // An oversized un-newlined blob, then its terminating newline,
    // then two normal pipelined requests on the same connection.
    stream.write_all(&[b'x'; 4096]).unwrap();
    std::thread::sleep(Duration::from_millis(80));
    stream.write_all(b"more oversized tail\n").unwrap();
    stream
        .write_all(format!("{}\n{}\n", request_line(1), request_line(2)).as_bytes())
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert_eq!(
        error_kind(&Json::parse(&replies[0]).unwrap()),
        Some("too_large")
    );
    for (reply, id) in replies[1..].iter().zip([1.0, 2.0]) {
        let doc = Json::parse(reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(doc.get("id"), Some(&Json::Num(id)));
    }
    assert_eq!(registry.counter("serve.requests").get(), 2);
    assert!(server.drain().clean);
}

#[test]
fn a_panicking_evaluation_never_kills_the_server() {
    // Poison the 350 mm wheelbase sample: request_line's 3-step
    // 250..450 grid hits it.
    let engine = Explorer::new(2).with_eval_hook(Arc::new(|q| {
        assert!(
            (q.wheelbase_mm - 350.0).abs() > 1e-9,
            "chaos hook: poisoned wheelbase"
        );
    }));
    let (server, registry) = start_with(engine, ReactorConfig::default());
    let replies = round_trip(&server, &format!("{}\n{HEALTHY}\n", request_line(1)));
    assert_eq!(replies.len(), 2);
    assert_eq!(replies[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(error_kind(&replies[0]), Some("internal_error"));
    assert_eq!(replies[1].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(registry.counter("serve.panics_caught").get(), 1);

    // The server is still fully alive for the next connection.
    let replies = round_trip(&server, &format!("{HEALTHY}\n"));
    assert_eq!(replies[0].get("ok"), Some(&Json::Bool(true)));
    let stats = server.drain();
    assert!(stats.clean);
    assert_eq!(stats.threads_joined, ReactorConfig::default().reactors + 1);
}

#[test]
fn drip_fed_bytes_do_not_reset_the_progress_deadline() {
    // Progress means completing a request line, so a client dripping
    // one byte at a time never resets the deadline.
    let config = ReactorConfig {
        line_deadline: Some(Duration::from_millis(150)),
        ..ReactorConfig::default()
    };
    let (server, registry) = start(config);
    let stream = TcpStream::connect(server.addr()).unwrap();
    let started = Instant::now();
    // The drip runs aside while this thread blocks in read_line,
    // consuming the refusal the moment it lands.
    let mut writer = stream.try_clone().unwrap();
    let drip = std::thread::spawn(move || {
        for _ in 0..150 {
            if writer.write_all(b"x").is_err() {
                break;
            }
            let _ = writer.flush();
            std::thread::sleep(Duration::from_millis(30));
        }
    });
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("server must refuse with a reply line, not a silent close");
    assert!(!line.is_empty(), "connection closed without a refusal");
    let doc = Json::parse(line.trim()).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(error_kind(&doc), Some("deadline_exceeded"));
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "refused before the budget elapsed"
    );
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "the drip held its connection far past the progress budget"
    );
    assert_eq!(registry.counter("serve.idle_timeouts").get(), 1);
    drip.join().unwrap();
    assert!(server.drain().clean);
}

#[test]
fn over_budget_requests_shed_before_the_engine_runs() {
    let evaluations = Arc::new(AtomicUsize::new(0));
    let engine = Explorer::new(2).with_eval_hook(Arc::new({
        let evaluations = Arc::clone(&evaluations);
        move |_| {
            evaluations.fetch_add(1, Ordering::SeqCst);
        }
    }));
    let config = ReactorConfig {
        cost_deadline: Some(10),
        ..ReactorConfig::default()
    };
    let (server, registry) = start_with(engine, config);
    // request_line sweeps 15 points; the 10-unit deadline sheds it.
    let replies = round_trip(&server, &format!("{}\n", request_line(3)));
    assert_eq!(replies[0].get("id"), Some(&Json::Num(3.0)));
    assert_eq!(error_kind(&replies[0]), Some("deadline_exceeded"));
    assert_eq!(registry.counter("serve.deadline_sheds").get(), 1);
    assert_eq!(evaluations.load(Ordering::SeqCst), 0, "engine ran");
    assert!(server.drain().clean);
}

#[test]
fn a_live_server_answers_stats_and_trace_requests_mid_workload() {
    let (server, registry) = start(ReactorConfig::default());
    // Two real queries bracketing a stats probe, then a trace fetch
    // for the span trees those queries produced — all pipelined on
    // one connection, answered in input order.
    let payload = format!(
        "{}\n{}\n{}\n{}\n",
        request_line(1),
        r#"{"id":2,"stats":{}}"#,
        request_line(3),
        r#"{"id":4,"trace":{"last":2}}"#,
    );
    let replies = round_trip(&server, &payload);
    assert_eq!(replies.len(), 4);
    for (reply, id) in replies.iter().zip([1.0, 2.0, 3.0, 4.0]) {
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        assert_eq!(reply.get("id"), Some(&Json::Num(id)));
    }

    // The stats reply observed the batch it rode in on: all four
    // requests (two queries, two introspections) were already
    // accounted when the snapshot was taken, and the one open
    // connection is the reported depth.
    let stats = replies[1].get("stats").expect("stats body");
    let counters = stats
        .get("registry")
        .and_then(|r| r.get("counters"))
        .expect("registry counters");
    assert_eq!(counters.get("serve.requests"), Some(&Json::Num(4.0)));
    assert_eq!(counters.get("serve.admin_requests"), Some(&Json::Num(2.0)));
    assert_eq!(stats.get("queue_depth"), Some(&Json::Num(1.0)));
    let traces_meta = stats.get("traces").expect("trace bookkeeping");
    assert_eq!(traces_meta.get("dropped_spans"), Some(&Json::Num(0.0)));

    // The trace fetch returned both span trees, each rooted at
    // serve.request with a derived (nonzero) trace id.
    let traces = replies[3].get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(traces.len(), 2);
    for trace in traces {
        let tree = trace.get("tree").and_then(Json::as_arr).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(
            tree[0].get("name"),
            Some(&Json::Str("serve.request".into()))
        );
        let hex = trace.get("trace_id").and_then(Json::as_str).unwrap();
        assert!(drone_telemetry::parse_id_hex(hex).is_some(), "{hex}");
        assert!(
            trace.get("spans").and_then(Json::as_f64).unwrap() > 1.0,
            "engine children recorded"
        );
    }

    assert_eq!(registry.counter("serve.admin_requests").get(), 2);
    assert!(server.drain().clean);
}

#[test]
fn trace_fetch_by_id_returns_the_stamped_trace() {
    let (server, _registry) = start(ReactorConfig::default());
    let stamped = r#"{"id":1,"trace_id":"00000000deadbeef","query":{"ranges":{"wheelbase_mm":250,"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time"}}"#;
    let fetch = r#"{"id":2,"trace":{"trace_id":"00000000deadbeef"}}"#;
    let replies = round_trip(&server, &format!("{stamped}\n{fetch}\n"));
    assert_eq!(replies.len(), 2);
    let traces = replies[1].get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(traces.len(), 1);
    assert_eq!(
        traces[0].get("trace_id"),
        Some(&Json::Str("00000000deadbeef".into()))
    );
    assert!(server.drain().clean);
}
