//! Integration tests for the live introspection plane: the `stats`
//! wire snapshot must agree exactly with the in-process registry, the
//! server must answer introspection mid-workload without panicking or
//! leaking threads, and the span trees a traced batch records must be
//! byte-identical at every engine thread count.

use drone_explorer::{Explorer, QueryLimits};
use drone_serve::protocol::{handle_batch_traced, BatchPolicy, BatchTracing, ReplySlot};
use drone_serve::{Client, ClientConfig, ReactorConfig, ReactorServer, Workload};
use drone_telemetry::{Clock, Json, Registry, TraceRing};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Pipelines `lines` on one connection and returns every reply parsed.
fn round_trip(addr: std::net::SocketAddr, lines: &[String]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let payload: String = lines.concat();
    stream.write_all(payload.as_bytes()).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| Json::parse(&l.expect("read")).expect("parseable reply"))
        .collect()
}

/// Satellite 6: the registry snapshot a `stats` wire request returns
/// must equal the in-process `Registry::snapshot()` taken after the
/// drain — byte for byte — when the stats request is the last traffic
/// the server sees. The server accounts the whole batch *before*
/// resolving the stats slot, so nothing moves between the two.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn wire_stats_equal_the_in_process_snapshot_after_drain() {
    let registry = Registry::with_wall_clock();
    let server =
        ReactorServer::start(Explorer::new(2), ReactorConfig::default(), &registry).expect("bind");
    let mut workload = Workload::new(11, 0);
    let mut lines: Vec<String> = (0..6).map(|_| workload.next_request_line()).collect();
    lines.push("{\"id\":999,\"stats\":{}}\n".to_owned());
    let replies = round_trip(server.addr(), &lines);
    assert_eq!(replies.len(), 7);
    for reply in &replies {
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    }
    let wire_registry = replies[6]
        .get("stats")
        .and_then(|s| s.get("registry"))
        .expect("stats.registry")
        .clone();
    let stats = server.drain();
    assert!(stats.clean);
    assert_eq!(
        wire_registry.render(),
        registry.snapshot().render(),
        "wire snapshot diverged from the live registry"
    );
}

/// The acceptance path: a live server answers `stats` and `trace`
/// requests *while* seeded workload clients hammer it, with zero
/// panics caught and a clean drain joining every thread.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn introspection_answers_mid_workload_without_panics_or_leaks() {
    const SEED: u64 = 7;
    const CLIENTS: u64 = 3;
    const REQUESTS_PER_CLIENT: u64 = 8;
    let registry = Registry::with_wall_clock();
    let config = ReactorConfig {
        reactors: 3,
        ..ReactorConfig::default()
    };
    let server = ReactorServer::start(Explorer::new(2), config, &registry).expect("bind");
    let addr = server.addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut workload = Workload::new(SEED, client);
                let lines: Vec<String> = (0..REQUESTS_PER_CLIENT)
                    .map(|_| workload.next_request_line())
                    .collect();
                let replies = round_trip(addr, &lines);
                assert_eq!(replies.len(), REQUESTS_PER_CLIENT as usize);
                replies
                    .iter()
                    .filter(|r| r.get("ok") == Some(&Json::Bool(true)))
                    .count()
            })
        })
        .collect();

    // Poll introspection from the side while the workload runs; every
    // probe must come back ok on a healthy server.
    let mut probe = Client::new(
        addr,
        ClientConfig {
            reply_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        &registry,
    );
    for _ in 0..4 {
        let stats = probe.stats().expect("stats mid-workload");
        assert_eq!(stats.reply.get("ok"), Some(&Json::Bool(true)));
        let fetched = probe.fetch_trace(0xdead_beef).expect("trace mid-workload");
        // Unknown id: still an ok reply, with an empty traces array.
        assert_eq!(
            fetched
                .reply
                .get("traces")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let answered: usize = workers.into_iter().map(|w| w.join().expect("client")).sum();
    assert_eq!(answered, (CLIENTS * REQUESTS_PER_CLIENT) as usize);
    assert_eq!(registry.counter("serve.panics_caught").get(), 0);
    assert_eq!(registry.counter("serve.admin_requests").get(), 8);

    let stats = server.drain();
    assert!(stats.clean);
    assert_eq!(stats.threads_joined, 3 + 1, "reactors plus acceptor");
}

/// Satellite 3, wire part: the span trees recorded for one seeded
/// workload batch must be byte-identical whatever the engine thread
/// count — scheduling may reorder execution, never the trace shape.
#[test]
fn traced_batches_are_byte_identical_across_thread_counts() {
    let render_traces = |threads: usize| -> String {
        let engine = Explorer::new(threads);
        let ring = TraceRing::new(64);
        let tracing = BatchTracing {
            ring: &ring,
            clock: Clock::sim(),
            seed: 42,
        };
        let mut workload = Workload::new(42, 1);
        let lines: Vec<String> = (0..10).map(|_| workload.next_request_line()).collect();
        let refs: Vec<&str> = lines.iter().map(|l| l.trim_end()).collect();
        let (slots, outcome) = handle_batch_traced(
            &engine,
            &refs,
            &QueryLimits::default(),
            BatchPolicy::default(),
            &tracing,
        );
        assert_eq!(slots.len(), 10);
        assert_eq!(outcome.answered, 10);
        assert!(slots.iter().all(|s| matches!(s, ReplySlot::Line(_))));
        assert_eq!(ring.dropped_spans(), 0);
        ring.last(10)
            .iter()
            .map(|t| t.deterministic_json().render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = render_traces(1);
    assert!(!serial.is_empty());
    assert_eq!(serial, render_traces(2));
    assert_eq!(serial, render_traces(8));
}
