//! Property-based tests for the server request path: no input —
//! arbitrary bytes, adversarial grids, hostile nesting — may panic
//! it, and every rejection must be a parseable structured error.

use drone_explorer::{Explorer, QueryLimits};
use drone_serve::protocol::{handle_batch, parse_request};
use drone_serve::{ReactorConfig, ReactorServer, Workload};
use drone_telemetry::{Json, Registry};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn engine() -> Explorer {
    Explorer::new(1)
}

/// Every reply line must itself be valid JSON with an `ok` bool and,
/// when `ok` is false, a structured `error` object.
fn assert_reply_shape(reply: &str) {
    let doc = Json::parse(reply).expect("reply must be valid JSON");
    match doc.get("ok") {
        Some(&Json::Bool(true)) => {
            assert!(doc.get("answer").is_some(), "ok reply missing answer");
        }
        Some(&Json::Bool(false)) => {
            let error = doc.get("error").expect("error reply missing error object");
            assert!(error.get("kind").and_then(Json::as_str).is_some());
            assert!(error.get("message").and_then(Json::as_str).is_some());
        }
        other => panic!("reply has no ok bool: {other:?} in {reply}"),
    }
}

proptest! {
    /// Arbitrary byte junk (decoded lossily, as the server does)
    /// through the batch handler: one structured reply per line, no
    /// panics.
    #[test]
    fn arbitrary_bytes_get_structured_errors(raw in prop::collection::vec(any::<u8>(), 0..400)) {
        let text = String::from_utf8_lossy(&raw);
        let lines: Vec<&str> = text.split('\n').filter(|l| !l.trim().is_empty()).collect();
        let (replies, outcome) = handle_batch(&engine(), &lines, &QueryLimits::default());
        prop_assert_eq!(replies.len(), lines.len());
        for reply in &replies {
            assert_reply_shape(reply);
        }
        prop_assert_eq!(outcome.answered + outcome.rejected(), lines.len());
    }

    /// JSON-shaped junk: fuzz the numeric fields of an otherwise valid
    /// request with extreme magnitudes, NaN-producing strings, inverted
    /// ranges and absurd step counts. Never panics; either answers or
    /// rejects with a typed error.
    #[test]
    fn hostile_grids_never_panic(
        min in prop_oneof![any::<f64>(), -1.0e12..1.0e12, Just(f64::NAN), Just(f64::INFINITY)],
        max in prop_oneof![any::<f64>(), -1.0e12..1.0e12, Just(f64::NEG_INFINITY)],
        steps in prop_oneof![0u64..10, Just(u64::MAX / 2), 1_000_000u64..2_000_000],
        capacity in -1.0e9f64..1.0e9,
        rounds in 0u64..200,
    ) {
        let fmt = |v: f64| if v.is_finite() { format!("{v}") } else { "null".to_owned() };
        let line = format!(
            r#"{{"id":1,"query":{{"ranges":{{"wheelbase_mm":{{"min":{},"max":{},"steps":{}}},"cells":["3S"],"capacity_mah":{}}},"objective":"max_flight_time","refine_rounds":{}}}}}"#,
            fmt(min), fmt(max), steps, fmt(capacity), rounds,
        );
        let (replies, _) = handle_batch(&engine(), &[line.as_str()], &QueryLimits::default());
        prop_assert_eq!(replies.len(), 1);
        assert_reply_shape(&replies[0]);
    }

    /// The workload generator and the wire protocol agree: every
    /// generated request parses back to the query that produced it.
    #[test]
    fn workload_requests_round_trip(seed in any::<u64>(), client in 0u64..64) {
        let mut workload = Workload::new(seed, client);
        for _ in 0..4 {
            let line = workload.next_request_line();
            let parsed = parse_request(line.trim_end(), &QueryLimits::default());
            prop_assert!(parsed.is_ok(), "workload produced invalid request: {:?}", parsed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mid-line disconnects and partial-UTF-8 writes: an arbitrary
    /// prefix of a valid pipelined payload, delivered in arbitrarily
    /// split chunks, must yield exactly one in-order ok reply per
    /// fully-delivered request — never losing or reordering them —
    /// plus at most one structured error for the truncated tail. One
    /// request carries a multi-byte name, so cuts can land inside a
    /// UTF-8 sequence.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn split_payloads_never_lose_or_reorder_delivered_requests(
        keep_permille in 0u32..=1000,
        cuts in prop::collection::vec(0usize..4000, 0..6),
    ) {
        use drone_components::battery::CellCount;
        use drone_explorer::{GridRange, Objective, Query, QueryRanges};
        use drone_serve::request_to_json;

        let registry = Registry::with_wall_clock();
        let server = ReactorServer::start(Explorer::new(2), ReactorConfig::default(), &registry)
            .expect("bind loopback");
        let mut payload: Vec<u8> = Vec::new();
        let mut line_ends: Vec<usize> = Vec::new();
        for id in 0..5u64 {
            let query = Query::new(
                &format!("sweep-π-{id}"),
                QueryRanges {
                    wheelbase_mm: GridRange::new(250.0, 450.0, 3),
                    cells: vec![CellCount::S3],
                    capacity_mah: GridRange::new(2000.0, 6000.0, 3),
                    compute_power_w: GridRange::fixed(20.0),
                    twr: GridRange::fixed(2.0),
                    payload_g: GridRange::fixed(0.0),
                },
                Objective::MaxFlightTime,
            );
            payload.extend_from_slice(request_to_json(id, &query).render().as_bytes());
            payload.push(b'\n');
            line_ends.push(payload.len());
        }
        let keep = (payload.len() as u64 * u64::from(keep_permille) / 1000) as usize;
        let fully_delivered = line_ends.iter().filter(|&&end| end <= keep).count();

        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (keep + 1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut sent = 0usize;
        for point in points.into_iter().chain(std::iter::once(keep)) {
            stream.write_all(&payload[sent..point]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
            sent = point;
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();

        let replies: Vec<String> = BufReader::new(stream)
            .lines()
            .map(|l| l.unwrap())
            .collect();
        prop_assert!(
            replies.len() == fully_delivered || replies.len() == fully_delivered + 1,
            "{} complete requests sent, {} replies", fully_delivered, replies.len()
        );
        for (id, reply) in replies.iter().take(fully_delivered).enumerate() {
            assert_reply_shape(reply);
            let doc = Json::parse(reply).unwrap();
            prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{}", reply);
            prop_assert_eq!(doc.get("id"), Some(&Json::Num(id as f64)), "{}", reply);
        }
        // The truncated tail, if it produced anything, produced one
        // structured error — never a bogus answer.
        if replies.len() == fully_delivered + 1 {
            assert_reply_shape(&replies[fully_delivered]);
            let doc = Json::parse(&replies[fully_delivered]).unwrap();
            prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        }
        let stats = server.drain();
        prop_assert!(stats.clean);
    }
}

/// End-to-end: junk bytes and valid requests interleaved over a real
/// socket. The server answers the valid ones, rejects the junk with
/// structured errors, and drains with every thread joined.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn socket_survives_junk_interleaved_with_valid_requests() {
    let registry = Registry::with_wall_clock();
    let server = ReactorServer::start(Explorer::new(2), ReactorConfig::default(), &registry)
        .expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut workload = Workload::new(9, 0);
    let mut expected_ok = 0usize;
    let mut expected_err = 0usize;
    let mut payload: Vec<u8> = Vec::new();
    for i in 0..12 {
        if i % 3 == 0 {
            payload.extend_from_slice(b"\x00\xffgarbage {]\n");
            expected_err += 1;
        } else {
            payload.extend_from_slice(workload.next_request_line().as_bytes());
            expected_ok += 1;
        }
    }
    stream.write_all(&payload).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = String::new();
    BufReader::new(stream).read_to_string(&mut replies).unwrap();
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), expected_ok + expected_err);
    let oks = lines
        .iter()
        .filter(|l| Json::parse(l).unwrap().get("ok") == Some(&Json::Bool(true)))
        .count();
    assert_eq!(oks, expected_ok);
    for line in &lines {
        assert_reply_shape(line);
    }
    let stats = server.drain();
    assert_eq!(
        stats.threads_joined,
        ReactorConfig::default().reactors + 1,
        "drain must join the acceptor and every reactor"
    );
    assert!(stats.clean);
}

/// Property tests for the epoll reactor front-end and the sharded
/// router. Gated like `drone_serve::sys`: the raw
/// epoll shims exist only on Linux x86_64/aarch64.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod reactor_props {
    use super::*;
    use drone_serve::{Router, RouterConfig};
    use std::time::{Duration, Instant};

    fn drip_chunks(stream: &mut TcpStream, payload: &[u8], cuts: Vec<usize>, keep: usize) {
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (keep + 1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut sent = 0usize;
        for point in points.into_iter().chain(std::iter::once(keep)) {
            stream.write_all(&payload[sent..point]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            sent = point;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The reactor analogue of the threaded split-payload
        /// property: an arbitrary prefix of a pipelined payload,
        /// delivered in arbitrarily split chunks across epoll
        /// readiness events, yields exactly one in-order ok reply per
        /// fully-delivered request — complete requests are never lost
        /// or reordered — plus at most one structured error for the
        /// truncated tail.
        #[test]
        fn reactor_never_loses_or_reorders_chunked_requests(
            keep_permille in 0u32..=1000,
            cuts in prop::collection::vec(0usize..4000, 0..6),
        ) {
            let registry = Registry::with_wall_clock();
            let server = ReactorServer::start(
                Explorer::new(2),
                ReactorConfig::default(),
                &registry,
            ).expect("bind reactor");
            let mut payload: Vec<u8> = Vec::new();
            let mut line_ends: Vec<usize> = Vec::new();
            let mut workload = Workload::new(13, 0);
            for _ in 0..5u64 {
                payload.extend_from_slice(workload.next_request_line().as_bytes());
                line_ends.push(payload.len());
            }
            let keep = (payload.len() as u64 * u64::from(keep_permille) / 1000) as usize;
            let fully_delivered = line_ends.iter().filter(|&&end| end <= keep).count();

            let mut stream = TcpStream::connect(server.addr()).unwrap();
            drip_chunks(&mut stream, &payload, cuts, keep);
            stream.shutdown(std::net::Shutdown::Write).unwrap();

            let replies: Vec<String> = BufReader::new(stream)
                .lines()
                .map(|l| l.unwrap())
                .collect();
            prop_assert!(
                replies.len() == fully_delivered || replies.len() == fully_delivered + 1,
                "{} complete requests sent, {} replies", fully_delivered, replies.len()
            );
            for (i, reply) in replies.iter().take(fully_delivered).enumerate() {
                assert_reply_shape(reply);
                let doc = Json::parse(reply).unwrap();
                prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{}", reply);
                prop_assert_eq!(doc.get("id"), Some(&Json::Num(i as f64)), "{}", reply);
            }
            if replies.len() == fully_delivered + 1 {
                let doc = Json::parse(&replies[fully_delivered]).unwrap();
                prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
            }
            let stats = server.drain();
            prop_assert!(stats.clean);
        }

        /// An oversized line that crosses the byte cap while still
        /// unterminated gets one `too_large` refusal, and the framer
        /// resynchronizes at the next newline *even when that newline
        /// lands mid-chunk*: the requests before and after the blob
        /// are both answered, in order. The pause between the two
        /// phases guarantees the reactor buffers the over-cap prefix
        /// before the terminating newline exists anywhere (a long
        /// line that completes within one buffered read is fed to the
        /// parser instead — that is the framer's documented contract).
        #[test]
        fn reactor_resynchronizes_after_an_oversized_line_split_anywhere(
            over_cap in 1usize..600,
            tail_len in 1usize..1500,
            cuts_before in prop::collection::vec(0usize..2000, 0..4),
            cuts_after in prop::collection::vec(0usize..2000, 0..4),
        ) {
            let registry = Registry::with_wall_clock();
            let config = ReactorConfig {
                max_line_bytes: 512,
                ..ReactorConfig::default()
            };
            let server = ReactorServer::start(Explorer::new(2), config, &registry)
                .expect("bind reactor");
            let mut workload = Workload::new(17, 0);
            // Phase one: a full request, then 512 + over_cap blob
            // bytes with no newline in sight.
            let mut before: Vec<u8> = Vec::new();
            before.extend_from_slice(workload.next_request_line().as_bytes());
            before.extend_from_slice(&vec![b'x'; 512 + over_cap]);
            // Phase two: the rest of the blob, its terminating
            // newline mid-chunk, and a second full request.
            let mut after: Vec<u8> = vec![b'x'; tail_len];
            after.push(b'\n');
            after.extend_from_slice(workload.next_request_line().as_bytes());

            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let keep = before.len();
            drip_chunks(&mut stream, &before, cuts_before, keep);
            std::thread::sleep(Duration::from_millis(60));
            let keep = after.len();
            drip_chunks(&mut stream, &after, cuts_after, keep);
            stream.shutdown(std::net::Shutdown::Write).unwrap();

            let replies: Vec<String> = BufReader::new(stream)
                .lines()
                .map(|l| l.unwrap())
                .collect();
            prop_assert_eq!(replies.len(), 3, "{:?}", replies);
            let first = Json::parse(&replies[0]).unwrap();
            prop_assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{}", replies[0]);
            let refusal = Json::parse(&replies[1]).unwrap();
            prop_assert_eq!(refusal.get("ok"), Some(&Json::Bool(false)));
            prop_assert_eq!(
                refusal.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("too_large"),
                "{}", replies[1]
            );
            let third = Json::parse(&replies[2]).unwrap();
            prop_assert_eq!(third.get("ok"), Some(&Json::Bool(true)), "{}", replies[2]);
            let stats = server.drain();
            prop_assert!(stats.clean);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Slow-loris drips at arbitrary cadence: a connection that
        /// keeps sending bytes but never completes a request line is
        /// refused with a typed `deadline_exceeded` no earlier than
        /// the progress deadline and well within budget — byte
        /// arrival alone must not reset the clock.
        #[test]
        fn slow_loris_drips_are_refused_within_budget(
            drip_ms in 15u64..45,
            prefix_len in 1usize..8,
        ) {
            let deadline = Duration::from_millis(150);
            let registry = Registry::with_wall_clock();
            let config = ReactorConfig {
                line_deadline: Some(deadline),
                ..ReactorConfig::default()
            };
            let server = ReactorServer::start(Explorer::new(1), config, &registry)
                .expect("bind reactor");
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all("p".repeat(prefix_len).as_bytes()).unwrap();
            let started = Instant::now();
            // Drip from a background thread while this thread blocks
            // in read_line, so the refusal is consumed the moment it
            // lands (a post-refusal drip write races an RST that could
            // discard an unread reply).
            let drip = {
                let mut clone = stream.try_clone().unwrap();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        std::thread::sleep(Duration::from_millis(drip_ms));
                        if clone.write_all(b"x").is_err() {
                            break;
                        }
                    }
                })
            };
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).unwrap();
            let elapsed = started.elapsed();
            let doc = Json::parse(&line).unwrap();
            prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{}", line);
            prop_assert_eq!(
                doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("deadline_exceeded"),
                "{}", line
            );
            prop_assert!(elapsed >= deadline, "refused early: {elapsed:?}");
            prop_assert!(elapsed < Duration::from_secs(4), "refused late: {elapsed:?}");
            drop(stream);
            drip.join().unwrap();
            let stats = server.drain();
            prop_assert!(stats.clean);
        }

        /// Shard parity: the same pipelined workload through a 1-,
        /// 2- and 4-shard router produces reply lines byte-identical
        /// to `handle_batch` on one fresh engine — frontiers, counts
        /// and incumbents do not depend on the shard count. Workload
        /// queries refine ~25% of the time, so the cross-round `seen`
        /// set behind `feasible`/`infeasible` is covered too.
        #[test]
        fn router_replies_are_byte_identical_at_one_and_four_shards(
            seed in any::<u64>(),
            client in 0u64..16,
        ) {
            let mut payload = String::new();
            let mut workload = Workload::new(seed, client);
            for _ in 0..3 {
                payload.push_str(&workload.next_request_line());
            }
            let run = |shards: usize| -> Vec<String> {
                let registry = Registry::with_wall_clock();
                let config = RouterConfig {
                    shards,
                    reactor: ReactorConfig {
                        reactors: 1,
                        ..ReactorConfig::default()
                    },
                };
                let router = Router::start(|| Explorer::new(1), config, &registry)
                    .expect("bind router");
                let mut stream = TcpStream::connect(router.addr()).unwrap();
                stream.write_all(payload.as_bytes()).unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let replies: Vec<String> = BufReader::new(stream)
                    .lines()
                    .map(|l| l.unwrap())
                    .collect();
                let stats = router.drain();
                assert!(stats.clean, "router drain must join every thread");
                replies
            };
            let lines: Vec<&str> = payload.lines().collect();
            let (direct, _) = handle_batch(&engine(), &lines, &QueryLimits::default());
            prop_assert_eq!(direct.len(), 3);
            for reply in &direct {
                assert_reply_shape(reply);
                let doc = Json::parse(reply).unwrap();
                prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{}", reply);
            }
            for shards in [1, 2, 4] {
                prop_assert_eq!(
                    &run(shards),
                    &direct,
                    "{}-shard router differs from one engine",
                    shards
                );
            }
        }
    }
}

/// A client that opens a connection, sends nothing and hangs up must
/// not wedge a reactor or leave threads behind.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn silent_clients_do_not_wedge_the_pool() {
    let registry = Registry::with_wall_clock();
    let server = ReactorServer::start(Explorer::new(1), ReactorConfig::default(), &registry)
        .expect("bind loopback");
    for _ in 0..3 {
        let stream = TcpStream::connect(server.addr()).unwrap();
        drop(stream);
    }
    // A real request still gets through afterwards.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut workload = Workload::new(1, 0);
    stream
        .write_all(workload.next_request_line().as_bytes())
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert_eq!(
        Json::parse(&line).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );
    let stats = server.drain();
    assert!(stats.clean);
}
