//! The trace-driven core: executes workload instruction streams through
//! L1 → LLC caches, a TLB and a branch predictor, producing the per-
//! workload counter picture of the paper's Figure 15.
//!
//! Co-scheduling is modelled the way the paper's RPi runs it: time-shared
//! quanta on one core, so the workloads contend for every shared
//! structure. Per-workload stats are attributed by counter deltas around
//! each quantum.

use crate::uarch::branch::GsharePredictor;
use crate::uarch::cache::{Cache, CacheConfig};
use crate::uarch::tlb::Tlb;
use crate::workload::{Op, SyntheticWorkload};
use std::fmt;

/// Core configuration: structures and penalty model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// Data-TLB entries.
    pub tlb_entries: usize,
    /// Branch-predictor index bits.
    pub predictor_bits: u32,
    /// Extra cycles on an L1 miss that hits LLC.
    pub l1_miss_penalty: u64,
    /// Extra cycles on an LLC miss (DRAM access).
    pub llc_miss_penalty: u64,
    /// Extra cycles on a TLB miss (page-walk).
    pub tlb_miss_penalty: u64,
    /// Extra cycles on a branch mispredict (flush).
    pub branch_penalty: u64,
}

impl Default for CoreConfig {
    /// An RPi-class in-order core.
    fn default() -> Self {
        CoreConfig {
            l1: CacheConfig::l1d(),
            llc: CacheConfig::llc(),
            tlb_entries: 64,
            predictor_bits: 12,
            l1_miss_penalty: 12,
            llc_miss_penalty: 120,
            tlb_miss_penalty: 40,
            branch_penalty: 14,
        }
    }
}

/// Per-workload performance counters (the Figure 15 vocabulary).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Workload name.
    pub name: String,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Memory instructions executed.
    pub memory_ops: u64,
    /// Branches executed.
    pub branches: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// LLC accesses (i.e. L1 misses).
    pub llc_accesses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Branch mispredictions.
    pub branch_mispredicts: u64,
}

impl WorkloadStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC miss rate as misses per data reference (the shape `perf`'s
    /// `LLC-load-misses / loads` reports in Figure 15). Misses *per LLC
    /// access* would be misleading for cache-resident workloads whose
    /// handful of cold misses all reach DRAM.
    pub fn llc_miss_rate(&self) -> f64 {
        if self.memory_ops == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.memory_ops as f64
        }
    }

    /// Branch misprediction rate.
    pub fn branch_miss_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// TLB misses per kilo-instruction (the §5.1 "4.5× as many TLB
    /// misses" comparison basis).
    pub fn tlb_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.tlb_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

impl fmt::Display for WorkloadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: IPC {:.3}, LLC miss {:.1}%, branch miss {:.1}%, TLB {:.2} MPKI",
            self.name,
            self.ipc(),
            self.llc_miss_rate() * 100.0,
            self.branch_miss_rate() * 100.0,
            self.tlb_mpki()
        )
    }
}

/// One simulated core with its memory-side structures.
#[derive(Debug, Clone)]
pub struct CoreSystem {
    config: CoreConfig,
    l1: Cache,
    llc: Cache,
    tlb: Tlb,
    predictor: GsharePredictor,
}

impl CoreSystem {
    /// Creates a core from a configuration.
    pub fn new(config: CoreConfig) -> CoreSystem {
        CoreSystem {
            config,
            l1: Cache::new(config.l1),
            llc: Cache::new(config.llc),
            tlb: Tlb::new(config.tlb_entries),
            predictor: GsharePredictor::new(config.predictor_bits),
        }
    }

    /// Executes one instruction, returning the cycles it consumed and
    /// updating `stats`.
    fn execute(&mut self, op: Op, stats: &mut WorkloadStats) {
        stats.instructions += 1;
        let mut cycles = 1;
        match op {
            Op::Alu => {}
            Op::Load(addr) | Op::Store(addr) => {
                stats.memory_ops += 1;
                if !self.tlb.access(addr) {
                    stats.tlb_misses += 1;
                    cycles += self.config.tlb_miss_penalty;
                }
                if self.l1.access(addr) {
                    // L1 hit: single-cycle.
                } else {
                    stats.l1_misses += 1;
                    stats.llc_accesses += 1;
                    cycles += self.config.l1_miss_penalty;
                    if !self.llc.access(addr) {
                        stats.llc_misses += 1;
                        cycles += self.config.llc_miss_penalty;
                    }
                }
            }
            Op::Branch { pc, taken } => {
                stats.branches += 1;
                if !self.predictor.predict_and_update(pc, taken) {
                    stats.branch_mispredicts += 1;
                    cycles += self.config.branch_penalty;
                }
            }
        }
        stats.cycles += cycles;
    }

    /// Runs a single workload alone for `instructions` instructions.
    pub fn run_alone(
        &mut self,
        workload: &mut SyntheticWorkload,
        instructions: u64,
    ) -> WorkloadStats {
        let mut stats = WorkloadStats {
            name: workload.spec().name.clone(),
            ..Default::default()
        };
        for _ in 0..instructions {
            let op = workload.next_op();
            self.execute(op, &mut stats);
        }
        stats
    }

    /// Time-shares the core between workloads in round-robin quanta
    /// (`quanta[i]` instructions per turn for workload `i` — real
    /// schedules are asymmetric: the autopilot runs short real-time
    /// bursts between long SLAM frame computations).
    ///
    /// Workload 0 is the **subject**: rounds continue until it retires
    /// `subject_instructions`; the background workloads keep running
    /// their full quanta every round (a co-located SLAM never stops just
    /// because the autopilot had a short tick). Returns per-workload
    /// stats in input order.
    ///
    /// # Panics
    ///
    /// Panics if any quantum is zero, no workloads are given, or the
    /// slice lengths disagree.
    pub fn run_coscheduled(
        &mut self,
        workloads: &mut [SyntheticWorkload],
        quanta: &[u64],
        subject_instructions: u64,
    ) -> Vec<WorkloadStats> {
        assert!(!workloads.is_empty(), "need at least one workload");
        assert_eq!(workloads.len(), quanta.len(), "one quantum per workload");
        assert!(quanta.iter().all(|&q| q > 0), "quantum must be positive");
        let mut stats: Vec<WorkloadStats> = workloads
            .iter()
            .map(|w| WorkloadStats {
                name: w.spec().name.clone(),
                ..Default::default()
            })
            .collect();
        let mut subject_remaining = subject_instructions;
        while subject_remaining > 0 {
            for (i, workload) in workloads.iter_mut().enumerate() {
                let burst = if i == 0 {
                    quanta[0].min(subject_remaining)
                } else {
                    quanta[i]
                };
                for _ in 0..burst {
                    let op = workload.next_op();
                    self.execute(op, &mut stats[i]);
                }
                if i == 0 {
                    subject_remaining -= burst;
                }
            }
        }
        stats
    }
}

impl Default for CoreSystem {
    fn default() -> Self {
        CoreSystem::new(CoreConfig::default())
    }
}

/// Runs the full Figure 15 experiment: autopilot alone, SLAM alone, and
/// autopilot co-scheduled with SLAM, each on a fresh core. Returns
/// `(autopilot_alone, slam_alone, autopilot_shared, slam_shared)`.
pub fn figure15_experiment(
    instructions: u64,
    seed: u64,
) -> (WorkloadStats, WorkloadStats, WorkloadStats, WorkloadStats) {
    let mut core = CoreSystem::default();
    let autopilot_alone = core.run_alone(&mut SyntheticWorkload::autopilot(seed), instructions);

    let mut core = CoreSystem::default();
    let slam_alone = core.run_alone(&mut SyntheticWorkload::slam(seed), instructions);

    let mut core = CoreSystem::default();
    let mut both = [
        SyntheticWorkload::autopilot(seed),
        SyntheticWorkload::slam(seed),
    ];
    // The autopilot runs short real-time bursts between long SLAM frame
    // computations; each SLAM turn walks enough of its 8 MiB working set
    // to flush the shared L1/LLC/TLB, so every autopilot burst restarts
    // cold — the mechanism behind the paper's Figure 15 degradation.
    let mut shared = core.run_coscheduled(&mut both, &[80_000, 600_000], instructions);
    let slam_shared = shared.pop().expect("two workloads in, two stats out");
    let autopilot_shared = shared.pop().expect("two workloads in, two stats out");
    (autopilot_alone, slam_alone, autopilot_shared, slam_shared)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 400_000;

    #[test]
    fn autopilot_alone_is_healthy() {
        let mut core = CoreSystem::default();
        let stats = core.run_alone(&mut SyntheticWorkload::autopilot(1), N);
        assert!(stats.ipc() > 0.38, "{stats}");
        assert!(stats.llc_miss_rate() < 0.05, "{stats}");
        assert!(stats.tlb_mpki() < 2.0, "{stats}");
    }

    #[test]
    fn slam_alone_is_memory_bound() {
        let mut core = CoreSystem::default();
        let stats = core.run_alone(&mut SyntheticWorkload::slam(1), N);
        assert!(stats.ipc() < 0.2, "{stats}");
        assert!(stats.llc_miss_rate() > 0.08, "{stats}");
        assert!(stats.branch_miss_rate() > 0.10, "{stats}");
    }

    #[test]
    fn coscheduling_degrades_the_autopilot() {
        // The paper's Figure 15 directions: co-located SLAM raises the
        // autopilot's TLB misses (×4.5 reported), LLC and branch miss
        // rates, and costs it ~1.7× IPC.
        let (ap_alone, _slam_alone, ap_shared, _slam_shared) = figure15_experiment(N, 2);
        let ipc_drop = ap_alone.ipc() / ap_shared.ipc();
        assert!(
            ipc_drop > 1.2,
            "IPC drop only {ipc_drop:.2}: {ap_alone} vs {ap_shared}"
        );
        // The autopilot's own TLB misses rise (the system-level 4.5x
        // figure is dominated by SLAM's absolute misses and is reported
        // by the fig15 experiment).
        let tlb_blowup = ap_shared.tlb_mpki() / ap_alone.tlb_mpki().max(1e-9);
        assert!(tlb_blowup > 1.2, "TLB blow-up only {tlb_blowup:.2}");
        assert!(ap_shared.llc_miss_rate() > ap_alone.llc_miss_rate());
    }

    #[test]
    fn stats_attribution_is_per_workload() {
        let mut core = CoreSystem::default();
        let mut both = [SyntheticWorkload::autopilot(3), SyntheticWorkload::slam(3)];
        let stats = core.run_coscheduled(&mut both, &[10_000, 10_000], 100_000);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "autopilot");
        assert_eq!(stats[1].name, "slam");
        assert_eq!(stats[0].instructions, 100_000);
        // Background workload runs a full quantum per round.
        assert_eq!(stats[1].instructions, 100_000);
        // SLAM's misses must not be billed to the autopilot: slam keeps a
        // much higher absolute LLC miss count.
        assert!(stats[1].llc_misses > stats[0].llc_misses);
    }

    #[test]
    fn cycles_are_consistent() {
        let mut core = CoreSystem::default();
        let stats = core.run_alone(&mut SyntheticWorkload::autopilot(4), 50_000);
        // Cycles ≥ instructions (base CPI 1) and bounded by worst case.
        assert!(stats.cycles >= stats.instructions);
        let cfg = CoreConfig::default();
        let worst = stats.instructions
            * (1 + cfg.llc_miss_penalty
                + cfg.l1_miss_penalty
                + cfg.tlb_miss_penalty
                + cfg.branch_penalty);
        assert!(stats.cycles < worst);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a1, s1, x1, y1) = figure15_experiment(100_000, 7);
        let (a2, s2, x2, y2) = figure15_experiment(100_000, 7);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn rate_helpers_handle_zero() {
        let empty = WorkloadStats::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.llc_miss_rate(), 0.0);
        assert_eq!(empty.branch_miss_rate(), 0.0);
        assert_eq!(empty.tlb_mpki(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_panics() {
        let mut core = CoreSystem::default();
        let mut w = [SyntheticWorkload::autopilot(1)];
        let _ = core.run_coscheduled(&mut w, &[0], 10);
    }
}
