//! Preemptive rate-group scheduler with deadline accounting.
//!
//! This is the instrument behind the paper's §5.1 finding: running SLAM
//! on the same core as the autopilot inflates the autopilot's execution
//! times (cache/TLB/branch interference; Figure 15) until outer-loop
//! deadlines slip. Tasks are periodic with a worst-case execution time;
//! the simulator runs fixed-priority preemptive scheduling on one CPU
//! whose speed can be scaled, and reports per-task deadline misses and
//! utilization.

use drone_telemetry::{Histogram, Json};
use std::fmt;

/// A periodic task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable name.
    pub name: String,
    /// Release period, seconds (deadline = next release).
    pub period: f64,
    /// Execution time per job at CPU speed 1.0, seconds.
    pub execution_time: f64,
    /// Priority: lower number = higher priority.
    pub priority: u8,
    /// Whether the load-shedding policy may drop this task under
    /// overload (best-effort workloads like SLAM; never flight-critical
    /// loops).
    pub sheddable: bool,
}

impl Task {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics if period or execution time are not positive.
    pub fn new(name: impl Into<String>, period: f64, execution_time: f64, priority: u8) -> Task {
        let name = name.into();
        assert!(period > 0.0, "period must be positive");
        assert!(execution_time > 0.0, "execution time must be positive");
        Task {
            name,
            period,
            execution_time,
            priority,
            sheddable: false,
        }
    }

    /// Marks this task as droppable by the load-shedding policy.
    pub fn sheddable(mut self) -> Task {
        self.sheddable = true;
        self
    }

    /// CPU utilization demanded by this task at speed 1.0.
    pub fn utilization(&self) -> f64 {
        self.execution_time / self.period
    }
}

/// Per-task scheduling outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// Jobs released.
    pub released: u64,
    /// Jobs that finished by their deadline.
    pub completed_on_time: u64,
    /// Jobs that missed their deadline (late or unfinished).
    pub deadline_misses: u64,
    /// Worst observed response time, seconds.
    pub worst_response: f64,
    /// Full response-time distribution (seconds) of completed jobs —
    /// the per-task latency profile `worst_response` only summarized.
    pub response_times: Histogram,
}

impl TaskReport {
    /// An empty report for a task (nothing released yet).
    pub fn empty(name: impl Into<String>) -> TaskReport {
        TaskReport {
            name: name.into(),
            released: 0,
            completed_on_time: 0,
            deadline_misses: 0,
            worst_response: 0.0,
            response_times: Histogram::new(),
        }
    }

    /// Deadline-miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.released == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.released as f64
        }
    }

    /// Response-time quantile in seconds (`None` until a job completes).
    pub fn response_quantile(&self, q: f64) -> Option<f64> {
        self.response_times.quantile(q)
    }

    /// Serializes every field, histogram included.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("released", self.released)
            .with("completed_on_time", self.completed_on_time)
            .with("deadline_misses", self.deadline_misses)
            .with("miss_ratio", self.miss_ratio())
            .with("worst_response", self.worst_response)
            .with("response_times", self.response_times.to_json())
    }

    /// Rebuilds a report from [`TaskReport::to_json`] output.
    pub fn from_json(doc: &Json) -> Option<TaskReport> {
        Some(TaskReport {
            name: doc.get("name")?.as_str()?.to_owned(),
            released: doc.get("released")?.as_f64()? as u64,
            completed_on_time: doc.get("completed_on_time")?.as_f64()? as u64,
            deadline_misses: doc.get("deadline_misses")?.as_f64()? as u64,
            worst_response: doc.get("worst_response")?.as_f64()?,
            response_times: Histogram::from_json(doc.get("response_times")?)?,
        })
    }
}

/// Whole-run scheduling report.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerReport {
    /// Per-task outcomes, in task order.
    pub tasks: Vec<TaskReport>,
    /// Fraction of CPU time spent busy.
    pub cpu_utilization: f64,
}

impl SchedulerReport {
    /// Report for a task by name.
    pub fn task(&self, name: &str) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Total deadline misses across tasks.
    pub fn total_misses(&self) -> u64 {
        self.tasks.iter().map(|t| t.deadline_misses).sum()
    }

    /// Serializes the whole report, per-task histograms included.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("cpu_utilization", self.cpu_utilization)
            .with(
                "tasks",
                Json::Arr(self.tasks.iter().map(|t| t.to_json()).collect()),
            )
    }

    /// Rebuilds a report from [`SchedulerReport::to_json`] output.
    pub fn from_json(doc: &Json) -> Option<SchedulerReport> {
        let tasks = doc
            .get("tasks")?
            .as_arr()?
            .iter()
            .map(TaskReport::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(SchedulerReport {
            tasks,
            cpu_utilization: doc.get("cpu_utilization")?.as_f64()?,
        })
    }
}

impl fmt::Display for SchedulerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cpu utilization {:.1}%", self.cpu_utilization * 100.0)?;
        for t in &self.tasks {
            write!(
                f,
                "  {:<16} released {:>6}  on-time {:>6}  missed {:>5} ({:.1}%)  worst {:.1} ms",
                t.name,
                t.released,
                t.completed_on_time,
                t.deadline_misses,
                t.miss_ratio() * 100.0,
                t.worst_response * 1e3
            )?;
            if let (Some(p50), Some(p99)) = (t.response_quantile(0.50), t.response_quantile(0.99)) {
                write!(f, "  p50 {:.2} ms  p99 {:.2} ms", p50 * 1e3, p99 * 1e3)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Load-shedding policy: watch one task's windowed deadline-miss ratio
/// and drop every sheddable task the first time it crosses the
/// threshold (paper §5.1: the outer loop slipping under co-located SLAM
/// is the signal; shedding SLAM is the remedy).
#[derive(Debug, Clone, PartialEq)]
pub struct ShedPolicy {
    /// Name of the task whose miss ratio is monitored.
    pub monitor: String,
    /// Monitoring window, seconds.
    pub window: f64,
    /// Shed when the windowed miss ratio reaches this value.
    pub miss_ratio_threshold: f64,
    /// CPU speed after shedding: removing the co-located workload also
    /// removes its cache/TLB interference, so the surviving tasks run at
    /// (close to) nominal IPC again (Figure 15's 1.7× recovered).
    pub restored_cpu_speed: f64,
}

impl ShedPolicy {
    /// The paper-calibrated default: watch the 40 Hz outer loop over 1 s
    /// windows, shed at 30 % misses, recover nominal IPC.
    pub fn outer_loop_default() -> ShedPolicy {
        ShedPolicy {
            monitor: "outer-loop".into(),
            window: 1.0,
            miss_ratio_threshold: 0.3,
            restored_cpu_speed: 1.0,
        }
    }
}

/// One notable scheduling event: a shed firing, or a monitored window
/// still breaching the threshold after the shed settled. The log gives
/// the flight recorder (and post-mortem readers) the *when* that the
/// aggregate report discards.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerEvent {
    /// Simulation time of the event, seconds.
    pub at: f64,
    /// What happened, human-readable.
    pub description: String,
}

/// Result of a simulation run under a [`ShedPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShedOutcome {
    /// The usual per-task report for the whole run.
    pub report: SchedulerReport,
    /// When the sheddable tasks were dropped (None = never triggered).
    pub shed_at: Option<f64>,
    /// Names of the tasks that were shed.
    pub tasks_shed: Vec<String>,
    /// Worst windowed miss ratio of the monitored task before the shed
    /// (over the whole run when no shed happened).
    pub worst_window_before: f64,
    /// Worst windowed miss ratio of the monitored task after the shed,
    /// excluding the settling window right after it: jobs already past
    /// their deadline at shed time still drain through that window and
    /// are not evidence against the policy.
    pub worst_window_after: f64,
    /// Time-ordered log of shed firings and post-shed breaches.
    pub events: Vec<SchedulerEvent>,
}

/// Fixed-priority preemptive scheduler simulation on one CPU.
///
/// # Example
///
/// ```
/// use drone_firmware::{RateScheduler, Task};
/// let mut sched = RateScheduler::new(vec![
///     Task::new("inner-loop", 1.0 / 400.0, 0.5e-3, 0),
///     Task::new("telemetry", 0.1, 2e-3, 5),
/// ]);
/// let report = sched.simulate(10.0, 1.0);
/// assert_eq!(report.total_misses(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RateScheduler {
    tasks: Vec<Task>,
}

#[derive(Debug, Clone)]
struct Job {
    task_index: usize,
    release: f64,
    deadline: f64,
    remaining: f64,
    /// Already counted against the shed policy's window (avoids double
    /// counting a job that blows its deadline and completes later).
    counted_missed: bool,
}

impl RateScheduler {
    /// Creates a scheduler over a fixed task set.
    ///
    /// # Panics
    ///
    /// Panics if the task set is empty.
    pub fn new(tasks: Vec<Task>) -> RateScheduler {
        assert!(!tasks.is_empty(), "task set must not be empty");
        RateScheduler { tasks }
    }

    /// The task set.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total demanded utilization at the given CPU speed.
    pub fn demanded_utilization(&self, cpu_speed: f64) -> f64 {
        self.tasks.iter().map(|t| t.utilization()).sum::<f64>() / cpu_speed
    }

    /// Simulates `duration` seconds at `cpu_speed` (1.0 = nominal; values
    /// below 1.0 model interference-degraded IPC). Returns the report.
    ///
    /// # Panics
    ///
    /// Panics if duration or speed are not positive.
    pub fn simulate(&mut self, duration: f64, cpu_speed: f64) -> SchedulerReport {
        self.run(duration, cpu_speed, None).report
    }

    /// Simulates with a live load-shedding policy: the first time the
    /// monitored task's windowed miss ratio reaches the threshold, every
    /// sheddable task is dropped (queued jobs discarded, no further
    /// releases) and the CPU recovers to the policy's restored speed.
    ///
    /// # Panics
    ///
    /// Panics if duration/speed are not positive or the monitored task is
    /// not in the task set.
    pub fn simulate_with_shedding(
        &mut self,
        duration: f64,
        cpu_speed: f64,
        policy: &ShedPolicy,
    ) -> ShedOutcome {
        self.run(duration, cpu_speed, Some(policy))
    }

    fn run(&mut self, duration: f64, cpu_speed: f64, policy: Option<&ShedPolicy>) -> ShedOutcome {
        assert!(duration > 0.0, "duration must be positive");
        assert!(cpu_speed > 0.0, "cpu speed must be positive");
        let monitor_idx = policy.map(|p| {
            assert!(p.window > 0.0, "shed window must be positive");
            self.tasks
                .iter()
                .position(|t| t.name == p.monitor)
                .expect("monitored task must be in the task set")
        });

        let mut reports: Vec<TaskReport> = self
            .tasks
            .iter()
            .map(|t| TaskReport::empty(t.name.clone()))
            .collect();

        let mut ready: Vec<Job> = Vec::new();
        let mut next_release: Vec<f64> = vec![0.0; self.tasks.len()];
        let mut busy_time = 0.0;
        let mut now = 0.0;
        let mut speed = cpu_speed;

        // Shed-policy window accounting over the monitored task.
        let mut window_end = policy.map_or(f64::INFINITY, |p| p.window);
        let mut pending_deadlines: Vec<f64> = Vec::new();
        let mut window_due = 0u64;
        let mut window_missed = 0u64;
        let mut shed_at = None;
        let mut tasks_shed = Vec::new();
        let mut worst_before = 0.0f64;
        let mut worst_after = 0.0f64;
        let mut events: Vec<SchedulerEvent> = Vec::new();

        while now < duration {
            // Close the monitoring window and apply the shed policy.
            if let (Some(p), Some(mi)) = (policy, monitor_idx) {
                while now + 1e-12 >= window_end {
                    // Deadlines that fell inside this window are due.
                    pending_deadlines.retain(|d| {
                        if *d <= window_end + 1e-9 {
                            window_due += 1;
                            false
                        } else {
                            true
                        }
                    });
                    // Jobs still unfinished past a due deadline count
                    // missed now (their eventual late completion must not
                    // count twice).
                    for job in &mut ready {
                        if job.task_index == mi
                            && job.deadline <= window_end + 1e-9
                            && !job.counted_missed
                        {
                            job.counted_missed = true;
                            window_missed += 1;
                        }
                    }
                    if window_due > 0 {
                        let ratio = window_missed as f64 / window_due as f64;
                        // The window immediately after the shed is a
                        // settling window: the pre-shed backlog of
                        // already-late jobs drains through it.
                        let settling = shed_at.is_some_and(|t| window_end <= t + p.window + 1e-9);
                        if shed_at.is_none() {
                            worst_before = worst_before.max(ratio);
                            if ratio >= p.miss_ratio_threshold
                                && self.tasks.iter().any(|t| t.sheddable)
                            {
                                shed_at = Some(window_end);
                                for (i, task) in self.tasks.iter().enumerate() {
                                    if task.sheddable {
                                        tasks_shed.push(task.name.clone());
                                        next_release[i] = f64::INFINITY;
                                    }
                                }
                                let tasks = &self.tasks;
                                ready.retain(|j| {
                                    if tasks[j.task_index].sheddable {
                                        // Dropped, not missed: remove it
                                        // from the release count too.
                                        reports[j.task_index].released -= 1;
                                        false
                                    } else {
                                        true
                                    }
                                });
                                // The interference is gone with the
                                // workload: in-flight work finishes at the
                                // restored IPC.
                                for j in &mut ready {
                                    j.remaining *= speed / p.restored_cpu_speed;
                                }
                                speed = p.restored_cpu_speed;
                                events.push(SchedulerEvent {
                                    at: window_end,
                                    description: format!(
                                        "shed [{}]: {} missed {:.0}% of deadlines in the \
                                         last {:.1} s window (threshold {:.0}%)",
                                        tasks_shed.join(", "),
                                        p.monitor,
                                        ratio * 100.0,
                                        p.window,
                                        p.miss_ratio_threshold * 100.0
                                    ),
                                });
                            }
                        } else if !settling {
                            worst_after = worst_after.max(ratio);
                            if ratio >= p.miss_ratio_threshold {
                                events.push(SchedulerEvent {
                                    at: window_end,
                                    description: format!(
                                        "post-shed breach: {} still missing {:.0}% of \
                                         deadlines after the shed",
                                        p.monitor,
                                        ratio * 100.0
                                    ),
                                });
                            }
                        }
                    }
                    window_due = 0;
                    window_missed = 0;
                    window_end += p.window;
                }
            }

            // Release due jobs.
            for (i, task) in self.tasks.iter().enumerate() {
                while next_release[i] <= now + 1e-12 {
                    let release = next_release[i];
                    ready.push(Job {
                        task_index: i,
                        release,
                        deadline: release + task.period,
                        remaining: task.execution_time / speed,
                        counted_missed: false,
                    });
                    reports[i].released += 1;
                    if Some(i) == monitor_idx {
                        pending_deadlines.push(release + task.period);
                    }
                    next_release[i] += task.period;
                }
            }
            // Time of the next release event (preemption boundary).
            let next_event = next_release.iter().copied().fold(f64::INFINITY, f64::min);
            let slice_end = next_event.min(duration).min(window_end);

            // Run the highest-priority ready job until it finishes or the
            // next release preempts it.
            if let Some(best) = (0..ready.len()).min_by(|&a, &b| {
                let pa = self.tasks[ready[a].task_index].priority;
                let pb = self.tasks[ready[b].task_index].priority;
                pa.cmp(&pb).then(
                    ready[a]
                        .release
                        .partial_cmp(&ready[b].release)
                        .expect("finite release times"),
                )
            }) {
                let available = slice_end - now;
                let run = ready[best].remaining.min(available);
                ready[best].remaining -= run;
                busy_time += run;
                now += run;
                if ready[best].remaining <= 1e-12 {
                    let job = ready.swap_remove(best);
                    let response = now - job.release;
                    let r = &mut reports[job.task_index];
                    r.worst_response = r.worst_response.max(response);
                    r.response_times.record(response);
                    if now <= job.deadline + 1e-9 {
                        r.completed_on_time += 1;
                    } else {
                        r.deadline_misses += 1;
                        if Some(job.task_index) == monitor_idx && !job.counted_missed {
                            window_missed += 1;
                        }
                    }
                }
                if run <= 0.0 {
                    now = slice_end;
                }
            } else {
                now = slice_end;
            }
            if !now.is_finite() {
                break;
            }
        }

        // Unfinished jobs past their deadline are misses too.
        for job in &ready {
            if job.deadline < duration {
                reports[job.task_index].deadline_misses += 1;
            }
        }
        // Close out the final (possibly partial) window for the stats.
        if policy.is_some() {
            let due_final = window_due
                + pending_deadlines
                    .iter()
                    .filter(|d| **d <= duration + 1e-9)
                    .count() as u64;
            let missed_final = window_missed
                + ready
                    .iter()
                    .filter(|j| {
                        Some(j.task_index) == monitor_idx
                            && j.deadline <= duration + 1e-9
                            && !j.counted_missed
                    })
                    .count() as u64;
            if due_final > 0 {
                let ratio = missed_final as f64 / due_final as f64;
                let settling = policy
                    .zip(shed_at)
                    .is_some_and(|(p, t)| duration <= t + p.window + 1e-9);
                if shed_at.is_none() {
                    worst_before = worst_before.max(ratio);
                } else if !settling {
                    worst_after = worst_after.max(ratio);
                }
            }
        }

        ShedOutcome {
            report: SchedulerReport {
                tasks: reports,
                cpu_utilization: (busy_time / duration).min(1.0),
            },
            shed_at,
            tasks_shed,
            worst_window_before: worst_before,
            worst_window_after: worst_after,
            events,
        }
    }
}

/// The paper drone's autopilot task set (ArduCopter-like rate groups):
/// inner-loop at 400 Hz, EKF at 200 Hz, outer-loop navigation at 40 Hz,
/// telemetry at 10 Hz. Execution times reflect an RPi-class core.
pub fn autopilot_task_set() -> Vec<Task> {
    vec![
        Task::new("inner-loop", 1.0 / 400.0, 0.35e-3, 0),
        Task::new("ekf", 1.0 / 200.0, 0.9e-3, 1),
        Task::new("outer-loop", 1.0 / 40.0, 6.0e-3, 2),
        Task::new("telemetry", 1.0 / 10.0, 3.0e-3, 3),
    ]
}

/// A SLAM workload time-shared on the same core: ~70 ms of processing per
/// camera frame at 10 FPS (ORB-SLAM-on-RPi scale). Under Linux CFS the
/// SLAM process competes at the same footing as the autopilot's
/// outer-loop threads, so it gets the outer loop's priority level —
/// only the truly real-time inner loop and EKF sit above it.
pub fn slam_task() -> Task {
    // Sheddable: losing SLAM costs autonomy features, not the airframe.
    Task::new("slam", 0.1, 70e-3, 2).sheddable()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autopilot_alone_meets_all_deadlines() {
        let mut sched = RateScheduler::new(autopilot_task_set());
        let report = sched.simulate(30.0, 1.0);
        assert_eq!(report.total_misses(), 0, "{report}");
        assert!(report.cpu_utilization < 0.6, "{report}");
    }

    #[test]
    fn colocated_slam_causes_outer_loop_misses() {
        // §5.1: adding SLAM on the same core makes the autopilot miss
        // outer-loop deadlines. The SLAM inflation also slows autopilot
        // tasks (IPC drop ≈ 1.7× per Figure 15) — model with cpu_speed.
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let mut sched = RateScheduler::new(tasks);
        let report = sched.simulate(30.0, 1.0 / 1.7);
        let outer = report.task("outer-loop").unwrap();
        let slam = report.task("slam").unwrap();
        assert!(
            outer.deadline_misses > 0 || slam.deadline_misses > 0,
            "expected misses somewhere: {report}"
        );
        // The *inner* loop, being highest priority and tiny, still holds —
        // the paper's reason real drones keep a dedicated controller core.
        let inner = report.task("inner-loop").unwrap();
        assert_eq!(inner.deadline_misses, 0, "{report}");
    }

    #[test]
    fn overload_is_detected() {
        let mut sched = RateScheduler::new(vec![Task::new("hog", 0.01, 0.02, 0)]);
        let report = sched.simulate(1.0, 1.0);
        let hog = report.task("hog").unwrap();
        assert!(hog.deadline_misses > 40, "{report}");
        assert!((report.cpu_utilization - 1.0).abs() < 0.01);
    }

    #[test]
    fn priority_protects_the_critical_task() {
        // Two tasks, combined demand > 1: the high-priority one never
        // misses; the low-priority one starves.
        let mut sched = RateScheduler::new(vec![
            Task::new("critical", 0.01, 0.006, 0),
            Task::new("bulk", 0.05, 0.04, 9),
        ]);
        let report = sched.simulate(5.0, 1.0);
        assert_eq!(
            report.task("critical").unwrap().deadline_misses,
            0,
            "{report}"
        );
        assert!(report.task("bulk").unwrap().deadline_misses > 0, "{report}");
    }

    #[test]
    fn faster_cpu_fixes_misses() {
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let mut slow = RateScheduler::new(tasks.clone());
        let slow_misses = slow.simulate(20.0, 0.5).total_misses();
        let mut fast = RateScheduler::new(tasks);
        let fast_misses = fast.simulate(20.0, 4.0).total_misses();
        assert!(slow_misses > 0);
        assert_eq!(fast_misses, 0);
    }

    #[test]
    fn utilization_accounting() {
        let sched = RateScheduler::new(vec![
            Task::new("a", 0.1, 0.01, 0), // 10 %
            Task::new("b", 0.2, 0.03, 1), // 15 %
        ]);
        assert!((sched.demanded_utilization(1.0) - 0.25).abs() < 1e-12);
        assert!((sched.demanded_utilization(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worst_response_reported() {
        let mut sched = RateScheduler::new(vec![
            Task::new("hi", 0.01, 0.004, 0),
            Task::new("lo", 0.1, 0.01, 1),
        ]);
        let report = sched.simulate(5.0, 1.0);
        let lo = report.task("lo").unwrap();
        // lo runs only in the gaps left by hi: response > its own wcet.
        assert!(lo.worst_response >= 0.01, "{report}");
        assert_eq!(report.total_misses(), 0);
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut r = TaskReport::empty("x");
        r.released = 10;
        r.completed_on_time = 7;
        r.deadline_misses = 3;
        assert!((r.miss_ratio() - 0.3).abs() < 1e-12);
        // Pinned: a task that never released reports zero, not NaN, and
        // a fresh report has no response-time quantiles.
        let idle = TaskReport::empty("idle");
        assert_eq!(idle.miss_ratio(), 0.0);
        assert_eq!(idle.worst_response, 0.0);
        assert_eq!(idle.response_quantile(0.99), None);
    }

    #[test]
    fn response_histogram_matches_worst_response() {
        let mut sched = RateScheduler::new(vec![
            Task::new("hi", 0.01, 0.004, 0),
            Task::new("lo", 0.1, 0.01, 1),
        ]);
        let report = sched.simulate(5.0, 1.0);
        for t in &report.tasks {
            assert_eq!(
                t.response_times.count(),
                t.completed_on_time + t.deadline_misses
            );
            // p100 of the histogram is the exact worst response.
            assert_eq!(t.response_quantile(1.0), Some(t.worst_response));
            // p50 ≤ p99 ≤ worst.
            let p50 = t.response_quantile(0.5).unwrap();
            let p99 = t.response_quantile(0.99).unwrap();
            assert!(p50 <= p99 && p99 <= t.worst_response, "{report}");
        }
    }

    #[test]
    fn scheduler_report_round_trips_through_json() {
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let mut sched = RateScheduler::new(tasks);
        let mut report = sched.simulate(10.0, 1.0 / 1.7);
        // Include a never-released task to pin the released==0 edge.
        report.tasks.push(TaskReport::empty("never-ran"));
        let text = report.to_json().render();
        let back = SchedulerReport::from_json(&Json::parse(&text).expect("report JSON parses"))
            .expect("report JSON has all fields");
        assert_eq!(back, report);
        assert_eq!(back.task("never-ran").unwrap().miss_ratio(), 0.0);
    }

    #[test]
    fn shed_outcome_logs_the_shed_event() {
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let policy = ShedPolicy::outer_loop_default();
        let mut sched = RateScheduler::new(tasks);
        let outcome = sched.simulate_with_shedding(30.0, 1.0 / 1.7, &policy);
        let shed_at = outcome.shed_at.expect("overload sheds");
        let event = outcome.events.first().expect("shed is logged");
        assert_eq!(event.at, shed_at);
        assert!(event.description.contains("slam"), "{}", event.description);
        // A healthy run logs nothing.
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let calm = RateScheduler::new(tasks).simulate_with_shedding(20.0, 4.0, &policy);
        assert!(calm.events.is_empty(), "{:?}", calm.events);
    }

    #[test]
    fn shedding_slam_restores_the_outer_loop() {
        // §5.1 remedy: the outer loop misses deadlines under co-located
        // SLAM (IPC degraded 1.7×); the shed policy drops SLAM the first
        // window the miss ratio crosses the threshold, and the outer
        // loop's windowed miss ratio falls back under it.
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let policy = ShedPolicy::outer_loop_default();
        let mut sched = RateScheduler::new(tasks);
        let outcome = sched.simulate_with_shedding(30.0, 1.0 / 1.7, &policy);
        assert!(
            outcome.shed_at.is_some(),
            "overload never triggered the shed: {outcome:?}"
        );
        assert_eq!(outcome.tasks_shed, vec!["slam".to_string()]);
        assert!(
            outcome.worst_window_before >= policy.miss_ratio_threshold,
            "shed fired without cause: {outcome:?}"
        );
        assert!(
            outcome.worst_window_after < policy.miss_ratio_threshold,
            "shedding did not restore the outer loop: {outcome:?}"
        );
        // After the shed the outer loop is strictly healthier than the
        // un-shed run over the same horizon.
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let unshed = RateScheduler::new(tasks).simulate(30.0, 1.0 / 1.7);
        let shed_misses = outcome.report.task("outer-loop").unwrap().deadline_misses;
        let unshed_misses = unshed.task("outer-loop").unwrap().deadline_misses;
        assert!(
            shed_misses < unshed_misses,
            "shed {shed_misses} vs unshed {unshed_misses}"
        );
    }

    #[test]
    fn healthy_load_never_sheds() {
        let mut tasks = autopilot_task_set();
        tasks.push(slam_task());
        let mut sched = RateScheduler::new(tasks);
        // Dual-core-class speed: everything fits, SLAM must survive.
        let outcome = sched.simulate_with_shedding(20.0, 4.0, &ShedPolicy::outer_loop_default());
        assert_eq!(outcome.shed_at, None, "{outcome:?}");
        assert!(outcome.tasks_shed.is_empty());
        assert_eq!(outcome.report.total_misses(), 0);
    }

    #[test]
    fn shedding_without_sheddable_tasks_is_inert() {
        // Overloaded, but nothing is marked sheddable: the policy can
        // only watch.
        let mut sched = RateScheduler::new(vec![Task::new("outer-loop", 0.025, 0.06, 2)]);
        let outcome = sched.simulate_with_shedding(5.0, 1.0, &ShedPolicy::outer_loop_default());
        assert_eq!(outcome.shed_at, None);
        assert!(outcome.worst_window_before > 0.0);
    }

    #[test]
    #[should_panic(expected = "monitored task must be in the task set")]
    fn shedding_unknown_monitor_panics() {
        let mut sched = RateScheduler::new(autopilot_task_set());
        let policy = ShedPolicy {
            monitor: "no-such-task".into(),
            window: 1.0,
            miss_ratio_threshold: 0.3,
            restored_cpu_speed: 1.0,
        };
        let _ = sched.simulate_with_shedding(1.0, 1.0, &policy);
    }

    #[test]
    #[should_panic(expected = "task set must not be empty")]
    fn empty_task_set_panics() {
        let _ = RateScheduler::new(vec![]);
    }
}
