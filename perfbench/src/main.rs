//! `perfbench`: the drone-serve benchmark.
//!
//! ```text
//! perfbench --workload <grid_hot|grid_cold|optimize|sharded_cold|mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the server up several times, drives one
//! timed closed-loop pass over loopback, checks every reply against an
//! in-process reference, and prints the end-to-end metrics. With
//! `--trace 1` it runs the same pass and then times calls into each
//! layer from this crate, printing the per-layer metrics and writing
//! its spans under `.bench_out/`. The last stdout line is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 only when every reply matched the reference.
//!
//! README.md next to this crate records why each workload exists and
//! which layer metric should move which end-to-end metric.

mod layers;
mod machine;
mod stats;
mod wire;
mod workload;

use machine::{calibration_ms, HostCpu};
use stats::{median, quantile};
use std::io;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::{reference_hashes, replay_lines, Deployment, Pass};
use workload::{Kind, Stream};

/// Serializes this crate's tests: the CPU-accounting tests read
/// whole-process CPU time, which parallel test threads would inflate.
#[cfg(test)]
pub fn serial_test() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The timed pass is cut into windows of this length (see [`windows`]).
const WINDOW_S: f64 = 0.5;

const USAGE: &str = "usage: perfbench --workload <grid_hot|grid_cold|optimize|sharded_cold|mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One named metric with its unit, in print order.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the metrics.
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        layers::run(args.kind, args.seed, args.seconds)
    } else {
        end_to_end(args.kind, args.seed, args.seconds)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.kind.name(), args.seed);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: replies or layer checks did not match the reference");
        ExitCode::FAILURE
    }
}

/// Full-precision JSON number (`null` for a non-finite value).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Diagnostics of the host during a run: never used to rescale or drop
/// a measurement, only printed beside it.
pub struct HostWatch {
    host: HostCpu,
    calib: Vec<f64>,
}

impl HostWatch {
    pub fn start() -> io::Result<HostWatch> {
        let host = HostCpu::now()?;
        let calib = (0..5).map(|_| calibration_ms()).collect();
        Ok(HostWatch { host, calib })
    }

    /// `(machine.steal_frac, machine.calib_ms)` over the run.
    pub fn finish(mut self) -> io::Result<(f64, f64)> {
        self.calib.extend((0..5).map(|_| calibration_ms()));
        Ok((self.host.steal_frac_since()?, median(&self.calib)))
    }
}

/// Which timed replies equal their reference, after checking the
/// warm-up replies too. Returns `(warm-up all matched, per-request)`.
pub fn check_replies(kind: Kind, seed: u64, warmup: &[u64], timed: &[u64]) -> (bool, Vec<bool>) {
    let lines = replay_lines(kind, seed, timed.len());
    let reference = reference_hashes(kind, seed, wire::WIDTH, &lines);
    let (warm_ref, timed_ref) = reference.split_at(warmup.len());
    let warm_ok = warmup.iter().zip(warm_ref).all(|(h, r)| Some(*h) == *r);
    let matched = timed
        .iter()
        .zip(timed_ref)
        .map(|(h, r)| Some(*h) == *r)
        .collect();
    (warm_ok, matched)
}

/// Server CPU per reply in each window of the timed pass, between two
/// consecutive CPU marks.
fn windows(pass: &Pass) -> Vec<f64> {
    let mut out = Vec::new();
    let mut i = 0;
    for pair in pass.cpu_marks.windows(2) {
        let ((t0, c0), (t1, c1)) = (pair[0], pair[1]);
        while i < pass.done_at.len() && pass.done_at[i] <= t0 {
            i += 1;
        }
        let first = i;
        while i < pass.done_at.len() && pass.done_at[i] <= t1 {
            i += 1;
        }
        if i > first {
            out.push((c1 - c0) / (i - first) as f64);
        }
    }
    out
}

/// One set-up, with the process CPU seconds and the wall seconds it took.
fn timed_setup(kind: Kind, seed: u64) -> io::Result<(Deployment, Stream, f64, f64)> {
    let mut stream = Stream::new(kind, seed);
    let started = Instant::now();
    let cpu = machine::process_cpu_s()?;
    let deployment = Deployment::start(kind, seed, &mut stream, kind.topology())?;
    let cpu = machine::process_cpu_s()? - cpu;
    Ok((deployment, stream, cpu, started.elapsed().as_secs_f64()))
}

/// The end-to-end run.
///
/// What it reports is CPU time, not wall time. The reference host is a
/// shared 2-vCPU VM whose steal share moves between 0 % and 35 % in
/// episodes of minutes; over one such episode `grid_cold` wall
/// throughput fell from 199 to 75 replies/s while its server CPU per
/// reply stayed within 6 %. The scheduler's CPU clocks leave stolen
/// time out, so the gated metrics are server CPU per reply (median
/// 0.5-s window) and the CPU time of one set-up (median of
/// [`SETUPS`]). Wall throughput and latency are printed beside them.
fn end_to_end(kind: Kind, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let watch = HostWatch::start()?;
    let mut setup_cpu = Vec::with_capacity(SETUPS);
    let mut setup_wall = Vec::with_capacity(SETUPS);
    let mut deployed = None;
    for _ in 0..SETUPS {
        if let Some((previous, _)) = deployed.take() {
            Deployment::stop(previous);
        }
        let (deployment, stream, cpu, wall) = timed_setup(kind, seed)?;
        setup_cpu.push(cpu);
        setup_wall.push(wall);
        deployed = Some((deployment, stream));
    }
    let (mut deployment, mut stream) = deployed.expect("SETUPS >= 1");

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let every = Duration::from_secs_f64(WINDOW_S.min(seconds / 4.0));
    let pass = deployment.drive_until(kind.window(), &mut stream, deadline, None, Some(every))?;
    let warmup = std::mem::take(&mut deployment.warmup_hashes);
    deployment.stop();
    let (steal, calib) = watch.finish()?;

    let (warm_ok, ok) = check_replies(kind, seed, &warmup, &pass.hashes);
    let attempted = pass.hashes.len();
    let matched = ok.iter().filter(|&&g| g).count();
    let cpu_per_req = windows(&pass);
    let metric = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        metric("server_cpu_ms_per_req", "ms", median(&cpu_per_req) * 1e3),
        metric(
            "ok_frac",
            "fraction",
            matched as f64 / attempted.max(1) as f64,
        ),
        metric("setup_s", "s", median(&setup_cpu)),
    ];
    let topology = kind.topology();
    let ms = |q: f64| quantile(&pass.latencies, q) * 1e3;
    let notes = vec![
        format!(
            "machine: {}",
            machine::descriptor(topology.width(), wire::REACTORS, topology.shards())
        ),
        format!(
            "workload {} seed {seed}: window {} | {attempted} timed requests in {:.3} s, \
             {matched} matched | {} CPU windows of {:.2} s",
            kind.name(),
            kind.window(),
            pass.elapsed,
            cpu_per_req.len(),
            every.as_secs_f64(),
        ),
        format!(
            "server CPU ms per reply by window p10/p50/p90: {:.3}/{:.3}/{:.3} | \
             set-up CPU s {:?}",
            quantile(&cpu_per_req, 0.1) * 1e3,
            quantile(&cpu_per_req, 0.5) * 1e3,
            quantile(&cpu_per_req, 0.9) * 1e3,
            setup_cpu
        ),
        format!(
            "wall (printed, not gated: steal moves it): throughput_rps {:.3} 1/s | \
             latency_p50_ms {:.4} ms | latency_p90_ms {:.4} ms | setup wall s {:.4}",
            matched as f64 / pass.elapsed,
            ms(0.5),
            ms(0.9),
            median(&setup_wall)
        ),
        format!(
            "diagnostics: machine.steal_frac {steal:.4} machine.calib_ms {calib:.3} \
             (reported, never used to adjust)"
        ),
    ];
    Ok(Outcome {
        correct: warm_ok && matched == attempted && attempted > 0,
        attempted,
        failed: attempted - matched,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_divide_server_cpu_by_the_replies_completing_in_them() {
        let _serial = serial_test();
        let pass = Pass {
            done_at: vec![0.1, 0.2, 0.6, 0.7, 0.8, 1.4],
            cpu_marks: vec![(0.0, 0.0), (0.5, 0.010), (1.0, 0.040), (1.5, 0.041)],
            ..Pass::default()
        };
        // 2 replies for 10 ms, 3 for 30 ms, 1 for 1 ms.
        let got = windows(&pass);
        let want = [0.005, 0.010, 0.001];
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?}");
        }
    }
}
