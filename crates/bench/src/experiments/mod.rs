//! One module per group of paper artifacts.

mod arch_figs;
mod catalog_figs;
mod chaos_figs;
mod control_figs;
mod explore_figs;
mod extension_figs;
pub mod fault_figs;
mod optimize_figs;
mod roofline_figs;
mod serve_figs;
mod serve_scale_figs;
mod slam_figs;
mod space_figs;
mod trace_figs;

pub use arch_figs::{figure15, figure16};
pub use catalog_figs::{figure7, figure8a, figure8b, figure9};
pub use chaos_figs::chaos;
pub use control_figs::{
    deadlines, gust_rejection, inner_loop, roll_overshoot, roll_rise_time, table2,
};
pub use explore_figs::explore;
pub use extension_figs::{fixed_point, lidar_payload, twr_sweep};
pub use fault_figs::faults;
pub use optimize_figs::optimize;
pub use roofline_figs::roofline;
pub use serve_figs::serve;
pub use serve_scale_figs::{serve_scale, set_serve_scale_shards};
pub use slam_figs::{figure17, profile_sequence, table5};
pub use space_figs::{claims, figure10_footprint, figure10_power, figure11, figure14};
pub use trace_figs::trace;

use crate::table::Table;
use drone_telemetry::Json;

/// The result of one experiment run: the human-readable report the
/// `repro` binary prints, plus the same numbers as a JSON document for
/// the `BENCH_<name>.json` artifacts (`repro --json <dir>`).
#[derive(Debug, Clone)]
pub struct Report {
    /// The plain-text report (tables, commentary).
    pub text: String,
    /// Machine-readable metrics; an insertion-ordered [`Json`] object,
    /// so rendering is byte-stable run to run.
    pub metrics: Json,
}

impl Report {
    /// A report whose metrics are a single table.
    pub fn from_table(text: String, table: &Table) -> Report {
        Report {
            text,
            metrics: Json::obj().with("table", table.to_json()),
        }
    }

    /// A report with explicit metrics.
    pub fn new(text: String, metrics: Json) -> Report {
        Report { text, metrics }
    }
}

/// An experiment entry: name, one-line description, runner.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI name (`repro <name>`), also the `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// One-line description for `repro list`.
    pub description: &'static str,
    /// Runs the experiment.
    pub run: fn() -> Report,
}

/// Every experiment in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    fn e(name: &'static str, description: &'static str, run: fn() -> Report) -> Experiment {
        Experiment {
            name,
            description,
            run,
        }
    }
    vec![
        e(
            "fig7",
            "LiPo capacity-to-weight fits per cell configuration",
            figure7,
        ),
        e(
            "fig8a",
            "ESC current-to-weight fits by thermal class",
            figure8a,
        ),
        e(
            "fig8b",
            "frame wheelbase-to-weight fit above 200 mm",
            figure8b,
        ),
        e(
            "fig9",
            "per-motor max current vs basic weight at TWR 2",
            figure9,
        ),
        e(
            "fig10_power",
            "total hover power vs weight per wheelbase sweep",
            figure10_power,
        ),
        e(
            "fig10_footprint",
            "computation share of total power (3 W / 20 W chips)",
            figure10_footprint,
        ),
        e(
            "fig11",
            "commercial small drones: heavy-compute power share",
            figure11,
        ),
        e(
            "fig14",
            "the paper drone's weight breakdown, re-derived",
            figure14,
        ),
        e(
            "fig15",
            "autopilot/SLAM perf-counter interference study",
            figure15,
        ),
        e(
            "fig16",
            "companion-computer and whole-drone power traces",
            figure16,
        ),
        e(
            "fig17",
            "SLAM speedup over RPi per EuRoC sequence (TX2/FPGA)",
            figure17,
        ),
        e(
            "table2",
            "sensor data rates and controller update frequencies",
            table2,
        ),
        e(
            "table5",
            "platform cost comparison for SLAM offload",
            table5,
        ),
        e(
            "claims",
            "the paper's S3.2 headline claims, measured",
            claims,
        ),
        e(
            "inner_loop",
            "inner-loop rate saturation (rise time vs Hz)",
            inner_loop,
        ),
        e(
            "deadlines",
            "deadline misses with SLAM co-located (S5.1)",
            deadlines,
        ),
        e(
            "gust_rejection",
            "PID vs INDI rate-loop gust rejection ablation",
            gust_rejection,
        ),
        e(
            "twr_sweep",
            "TWR sensitivity of the compute power share (S7)",
            twr_sweep,
        ),
        e(
            "lidar",
            "LiDAR payloads shrink the compute share (S3.1)",
            lidar_payload,
        ),
        e(
            "fixed_point",
            "Q16.16 vs f64 Cholesky on BA normal equations",
            fixed_point,
        ),
        e(
            "faults",
            "fault campaign with black-box flight recorder and task histograms",
            faults,
        ),
        e(
            "explore",
            "parallel design-space queries: Pareto frontiers, memoized evaluation",
            explore,
        ),
        e(
            "serve",
            "batched DSE query server: throughput, shed drill, graceful drain",
            serve,
        ),
        e(
            "serve_scale",
            "epoll reactor + in-process shards: capacity, single-engine replies",
            serve_scale,
        ),
        e(
            "optimize",
            "seeded sampling + multi-fidelity search vs the exhaustive grid",
            optimize,
        ),
        e(
            "chaos",
            "seeded network-fault campaign: survival, retries, sheds, panic isolation",
            chaos,
        ),
        e(
            "trace",
            "causal span trees + live stats/trace introspection over the serving stack",
            trace,
        ),
        e(
            "roofline",
            "batched-vs-scalar kernel roofline: arithmetic intensity, GFLOP/s, ceilings",
            roofline,
        ),
    ]
}

/// Builds an artifact with the default executor width at 1 and then at
/// 3 threads and asserts the two documents are identical. A failure
/// names the first differing JSON path and both values, not two whole
/// artifacts.
#[cfg(test)]
fn assert_thread_count_invariant(artifact: impl Fn() -> Json) {
    drone_explorer::set_default_threads(1);
    let serial = artifact();
    drone_explorer::set_default_threads(3);
    let parallel = artifact();
    drone_explorer::set_default_threads(0);
    if let Some((path, one, three)) = first_difference("$", &serial, &parallel) {
        panic!(
            "artifact depends on the thread count: first difference at {path}: \
             {one} at 1 thread, {three} at 3"
        );
    }
}

/// The first place two documents differ, in document order: its path
/// and the two values there, rendered.
#[cfg(test)]
fn first_difference(path: &str, a: &Json, b: &Json) -> Option<(String, String, String)> {
    let count = |path: &str, what: &str, a: usize, b: usize| {
        (a != b).then(|| (format!("{path} ({what})"), a.to_string(), b.to_string()))
    };
    match (a, b) {
        (Json::Obj(a), Json::Obj(b)) => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, ((ka, va), (kb, vb)))| match ka == kb {
                true => first_difference(&format!("{path}.{ka}"), va, vb),
                false => Some((format!("{path} (key {i})"), ka.clone(), kb.clone())),
            })
            .or_else(|| count(path, "keys", a.len(), b.len())),
        (Json::Arr(a), Json::Arr(b)) => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (va, vb))| first_difference(&format!("{path}[{i}]"), va, vb))
            .or_else(|| count(path, "length", a.len(), b.len())),
        _ => {
            let (a, b) = (a.render(), b.render());
            (a != b).then(|| (path.to_owned(), a, b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_path_and_both_values() {
        let doc = |n: f64, tail: &[f64]| {
            Json::obj().with(
                "a",
                Json::obj()
                    .with("b", Json::Arr(vec![Json::Num(1.0), Json::Num(n)]))
                    .with("c", Json::Arr(tail.iter().map(|&x| Json::Num(x)).collect())),
            )
        };
        let base = doc(2.0, &[1.0]);
        assert_eq!(first_difference("$", &base, &base.clone()), None);
        assert_eq!(
            first_difference("$", &base, &doc(3.0, &[5.0])),
            Some(("$.a.b[1]".to_owned(), "2".to_owned(), "3".to_owned()))
        );
        assert_eq!(
            first_difference("$", &base, &doc(2.0, &[1.0, 4.0])),
            Some(("$.a.c (length)".to_owned(), "1".to_owned(), "2".to_owned()))
        );
        let renamed = Json::obj().with("z", 1.0);
        assert_eq!(
            first_difference("$", &Json::obj().with("y", 1.0), &renamed),
            Some(("$ (key 0)".to_owned(), "y".to_owned(), "z".to_owned()))
        );
    }
}
