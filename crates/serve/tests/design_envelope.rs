//! Well-formed requests that reach outside the kernel's design envelope
//! — a capacity axis through zero and below, a payload that drives the
//! sizing's starting weight negative, a compute power that leaves no
//! positive hover power, an optimize request over a zero capacity —
//! are ordinary requests: they answer `ok: true` with those points
//! counted `infeasible` (or `prefiltered`), never `internal_error`, on
//! the pure batch path and through a live server alike.

use drone_explorer::{Explorer, QueryLimits};
use drone_serve::protocol::handle_batch;
use drone_telemetry::Json;

/// Each line with the `[evaluated, feasible, infeasible]` counts of
/// kernel calls its answer must report. The optimize request's
/// infeasible points are pre-filtered on top, before any kernel call.
const CASES: [(&str, [f64; 3]); 4] = [
    (
        // Capacities −2000, 0 and 2000 mAh: two outside the envelope.
        r#"{"id":1,"query":{"ranges":{"wheelbase_mm":450,"cells":["3S"],"capacity_mah":{"min":-2000,"max":2000,"steps":3}},"objective":"max_flight_time"}}"#,
        [3.0, 1.0, 2.0],
    ),
    (
        // A −5 kg payload leaves a negative starting weight.
        r#"{"id":2,"query":{"ranges":{"wheelbase_mm":450,"cells":["3S"],"capacity_mah":4000,"payload_g":{"min":-5000,"max":0,"steps":2}},"objective":"min_weight"}}"#,
        [2.0, 1.0, 1.0],
    ),
    (
        // The payload restores the weight; −300 W of "compute" then
        // outweighs the propulsion power.
        r#"{"id":3,"query":{"ranges":{"wheelbase_mm":450,"cells":["3S"],"capacity_mah":8000,"compute_power_w":-300,"payload_g":1500},"objective":"max_flight_time"}}"#,
        [1.0, 0.0, 1.0],
    ),
    (
        // Every candidate has a zero capacity: none reaches the kernel.
        r#"{"id":4,"optimize":{"ranges":{"wheelbase_mm":{"min":250,"max":450,"steps":3},"cells":["3S"],"capacity_mah":0},"objective":"max_flight_time","strategy":"monte_carlo","budget":8,"seed":1}}"#,
        [0.0, 0.0, 0.0],
    ),
];

fn assert_answers(replies: &[Json]) {
    assert_eq!(replies.len(), CASES.len());
    for (reply, (line, expected)) in replies.iter().zip(CASES) {
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "{line}\n{reply:?}"
        );
        let answer = reply.get("answer").expect("answer");
        let count = |key: &str| answer.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let prefiltered = count("prefiltered");
        assert_eq!(
            [
                count("evaluated"),
                count("feasible"),
                count("infeasible") - prefiltered,
            ],
            expected,
            "{line}"
        );
        assert_eq!(prefiltered > 0.0, line.contains("optimize"), "{line}");
    }
}

#[test]
fn out_of_envelope_points_answer_as_infeasible_on_the_batch_path() {
    let lines: Vec<&str> = CASES.iter().map(|(line, _)| *line).collect();
    let (replies, outcome) = handle_batch(&Explorer::new(2), &lines, &QueryLimits::default());
    assert_eq!(outcome.internal_errors, 0, "{replies:?}");
    assert_eq!(outcome.answered, CASES.len());
    let replies: Vec<Json> = replies
        .iter()
        .map(|r| Json::parse(r).expect("reply parses"))
        .collect();
    assert_answers(&replies);
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn out_of_envelope_points_catch_no_panic_in_a_live_server() {
    use drone_serve::{ReactorConfig, ReactorServer};
    use drone_telemetry::Registry;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpStream};

    let registry = Registry::with_wall_clock();
    let server = ReactorServer::start(Explorer::new(2), ReactorConfig::default(), &registry)
        .expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for (line, _) in CASES {
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies: Vec<Json> = BufReader::new(stream)
        .lines()
        .map(|l| Json::parse(&l.expect("read")).expect("reply parses"))
        .collect();
    assert_answers(&replies);
    assert_eq!(registry.counter("serve.panics_caught").get(), 0);
    assert!(server.drain().clean);
}
