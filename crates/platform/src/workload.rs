//! Synthetic instruction-trace workloads.
//!
//! The paper profiles two programs on the RPi with `perf`: the ArduPilot
//! autopilot (small, loop-heavy, predictable) and ORB-SLAM (large
//! working set, irregular data-dependent access over image pyramids and
//! map points). These generators produce instruction streams with those
//! *statistical* shapes; executed on the [`crate::uarch`] core they
//! reproduce the paper's Figure 15 counter picture.

use drone_math::Pcg32;

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Register-only arithmetic.
    Alu,
    /// Load from a byte address.
    Load(u64),
    /// Store to a byte address.
    Store(u64),
    /// Conditional branch at `pc` with its resolved direction.
    Branch {
        /// Branch instruction address.
        pc: u64,
        /// Resolved direction.
        taken: bool,
    },
}

/// Statistical description of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name.
    pub name: String,
    /// Total data working-set size in bytes (hot + cold regions).
    pub working_set_bytes: u64,
    /// Size of the *hot* region — the data the program reuses constantly
    /// (state vectors, current image tile). Accesses outside it roam the
    /// full working set.
    pub hot_bytes: u64,
    /// Fraction of memory accesses that land in the hot region.
    pub hot_fraction: f64,
    /// Base of this workload's address space (keeps co-scheduled
    /// workloads from sharing data).
    pub base_address: u64,
    /// Fraction of *hot* accesses that stream sequentially (the rest
    /// are uniform-random within the hot region).
    pub sequential_fraction: f64,
    /// Fraction of instructions that are loads.
    pub load_fraction: f64,
    /// Fraction of instructions that are stores.
    pub store_fraction: f64,
    /// Fraction of instructions that are branches.
    pub branch_fraction: f64,
    /// Probability that a branch is data-dependent (50/50 random) rather
    /// than a predictable loop-style branch.
    pub branch_entropy: f64,
    /// Number of distinct branch sites (code footprint proxy).
    pub branch_sites: u64,
}

impl WorkloadSpec {
    /// Validates fractions.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]` or the instruction-mix
    /// fractions exceed 1 combined.
    pub fn validated(self) -> WorkloadSpec {
        for (label, v) in [
            ("sequential", self.sequential_fraction),
            ("hot", self.hot_fraction),
            ("load", self.load_fraction),
            ("store", self.store_fraction),
            ("branch", self.branch_fraction),
            ("entropy", self.branch_entropy),
        ] {
            assert!(
                (0.0..=1.0).contains(&v),
                "{label} fraction {v} out of range"
            );
        }
        assert!(
            self.load_fraction + self.store_fraction + self.branch_fraction <= 1.0,
            "instruction mix exceeds 100 %"
        );
        assert!(self.working_set_bytes > 0, "working set must be non-empty");
        assert!(
            self.hot_bytes > 0 && self.hot_bytes <= self.working_set_bytes,
            "hot region must be non-empty and within the working set"
        );
        assert!(self.branch_sites > 0, "need at least one branch site");
        self
    }
}

/// A deterministic instruction-stream generator.
///
/// # Example
///
/// ```
/// use drone_platform::SyntheticWorkload;
/// let mut w = SyntheticWorkload::autopilot(1);
/// let ops: Vec<_> = (0..100).map(|_| w.next_op()).collect();
/// assert_eq!(ops.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: WorkloadSpec,
    rng: Pcg32,
    stream_offset: u64,
    /// Per-site loop counters: real loop branches are periodic *per
    /// site*, which history-based predictors learn.
    loop_iterations: Vec<u16>,
}

impl SyntheticWorkload {
    /// Creates a generator from a spec and seed.
    pub fn new(spec: WorkloadSpec, seed: u64) -> SyntheticWorkload {
        let spec = spec.validated();
        let loop_iterations = vec![0; spec.branch_sites as usize];
        SyntheticWorkload {
            spec,
            rng: Pcg32::seed_from(seed),
            stream_offset: 0,
            loop_iterations,
        }
    }

    /// The ArduPilot-shaped workload: a hot ~28 KiB state (vectors,
    /// gains, filters) reused constantly, a ~320 KiB total footprint
    /// (parameter tables, logging buffers) visited occasionally, mostly
    /// streaming access, highly predictable loop branches.
    pub fn autopilot(seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::new(
            WorkloadSpec {
                name: "autopilot".to_owned(),
                working_set_bytes: 280 * 1024,
                hot_bytes: 28 * 1024,
                hot_fraction: 0.97,
                base_address: 0x1000_0000,
                sequential_fraction: 0.85,
                load_fraction: 0.25,
                store_fraction: 0.10,
                branch_fraction: 0.15,
                branch_entropy: 0.02,
                branch_sites: 48,
            },
            seed,
        )
    }

    /// The ORB-SLAM-shaped workload: a hot ~512 KiB tile (current image
    /// pyramid level, active descriptors) inside an 8 MiB map/frame
    /// footprint, half-irregular access, data-dependent branching
    /// (matching, RANSAC, graph traversal).
    pub fn slam(seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::new(
            WorkloadSpec {
                name: "slam".to_owned(),
                working_set_bytes: 8 * 1024 * 1024,
                hot_bytes: 2 * 1024 * 1024,
                hot_fraction: 0.97,
                base_address: 0x4000_0000,
                sequential_fraction: 0.98,
                load_fraction: 0.33,
                store_fraction: 0.12,
                branch_fraction: 0.15,
                branch_entropy: 0.20,
                branch_sites: 4096,
            },
            seed,
        )
    }

    /// The workload's spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn next_address(&mut self) -> u64 {
        let offset = if self.rng.chance(self.spec.hot_fraction) {
            let hot = self.spec.hot_bytes;
            if self.rng.chance(self.spec.sequential_fraction) {
                // Stream in 8-byte steps, wrapping the hot region.
                self.stream_offset = (self.stream_offset + 8) % hot;
                self.stream_offset
            } else {
                self.rng.next_u64() % hot
            }
        } else {
            // Cold access roams the full working set.
            self.rng.next_u64() % self.spec.working_set_bytes
        };
        self.spec.base_address + offset
    }

    /// Produces the next dynamic instruction.
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_f64();
        let spec = &self.spec;
        if r < spec.load_fraction {
            Op::Load(self.next_address())
        } else if r < spec.load_fraction + spec.store_fraction {
            Op::Store(self.next_address())
        } else if r < spec.load_fraction + spec.store_fraction + spec.branch_fraction {
            let entropy = spec.branch_entropy;
            let site = (self.rng.next_u64() % spec.branch_sites) as usize;
            let pc = spec.base_address + 0x100_0000 + site as u64 * 4;
            let taken = if self.rng.chance(entropy) {
                self.rng.chance(0.5)
            } else {
                // Loop-style: this site is taken except every 32nd of
                // its own executions — a pattern gshare learns.
                let it = &mut self.loop_iterations[site];
                *it = it.wrapping_add(1);
                !it.is_multiple_of(32)
            };
            Op::Branch { pc, taken }
        } else {
            Op::Alu
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SyntheticWorkload::slam(9);
        let mut b = SyntheticWorkload::slam(9);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn instruction_mix_matches_spec() {
        let mut w = SyntheticWorkload::autopilot(3);
        let n = 100_000;
        let (mut loads, mut stores, mut branches) = (0, 0, 0);
        for _ in 0..n {
            match w.next_op() {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::Branch { .. } => branches += 1,
                Op::Alu => {}
            }
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(loads) - 0.25).abs() < 0.01, "loads {}", f(loads));
        assert!((f(stores) - 0.10).abs() < 0.01, "stores {}", f(stores));
        assert!(
            (f(branches) - 0.15).abs() < 0.01,
            "branches {}",
            f(branches)
        );
    }

    #[test]
    fn addresses_stay_in_declared_space() {
        let mut w = SyntheticWorkload::slam(5);
        let spec = w.spec().clone();
        for _ in 0..50_000 {
            if let Op::Load(a) | Op::Store(a) = w.next_op() {
                assert!(a >= spec.base_address);
                assert!(a < spec.base_address + spec.working_set_bytes);
            }
        }
    }

    #[test]
    fn address_spaces_are_disjoint() {
        let a = SyntheticWorkload::autopilot(1);
        let s = SyntheticWorkload::slam(1);
        let a_end = a.spec().base_address + a.spec().working_set_bytes;
        assert!(a_end <= s.spec().base_address, "address spaces overlap");
    }

    #[test]
    fn slam_is_more_irregular_than_autopilot() {
        // Count distinct 4 KiB pages touched in a fixed window — the
        // SLAM stream must touch far more.
        let pages = |mut w: SyntheticWorkload| {
            let mut set = std::collections::HashSet::new();
            for _ in 0..50_000 {
                if let Op::Load(a) | Op::Store(a) = w.next_op() {
                    set.insert(a / 4096);
                }
            }
            set.len()
        };
        let ap = pages(SyntheticWorkload::autopilot(2));
        let sl = pages(SyntheticWorkload::slam(2));
        assert!(sl > 10 * ap, "autopilot {ap} pages vs slam {sl}");
    }

    #[test]
    #[should_panic(expected = "instruction mix exceeds")]
    fn overfull_mix_panics() {
        let _ = SyntheticWorkload::new(
            WorkloadSpec {
                name: "bad".into(),
                working_set_bytes: 1024,
                hot_bytes: 1024,
                hot_fraction: 1.0,
                base_address: 0,
                sequential_fraction: 0.5,
                load_fraction: 0.6,
                store_fraction: 0.3,
                branch_fraction: 0.2,
                branch_entropy: 0.0,
                branch_sites: 1,
            },
            0,
        );
    }
}
