//! The out-of-order core scheduling model.
//!
//! The model processes micro-ops in program order and computes, for each,
//! the cycle it is fetched (bounded by fetch width and window occupancy),
//! becomes ready (data dependences), issues (issue width and
//! functional-unit pools), completes (FU latency, or the memory hierarchy
//! for loads/stores), and commits (in order, bounded by commit width).
//! This is the classic "interval" formulation of an out-of-order pipeline:
//! it captures exactly the behaviour the paper's results hinge on — an
//! L2 hit (12 cycles) hides inside the 128-entry window, while a
//! main-memory miss (~90 cycles plus bus queuing) fills the window with
//! dependants and stalls commit.

use std::collections::HashMap;

use crate::{MicroOp, OpClass};
use tcp_cache::{ConfigError, MemoryHierarchy};

/// Configuration of the out-of-order core (Table 1 defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instruction window (RUU) size.
    pub window: usize,
    /// Ops fetched per cycle.
    pub fetch_width: u32,
    /// Ops issued per cycle.
    pub issue_width: u32,
    /// Ops committed per cycle.
    pub commit_width: u32,
    /// Functional-unit pool sizes: `[int_alu, int_mult, fp_alu, fp_mult,
    /// load_store]`. Branches execute on the integer ALUs.
    pub fu_counts: [u32; 5],
    /// Non-memory execution latencies indexed by [`OpClass::index`]
    /// (`Load`/`Store` entries are ignored — the hierarchy decides).
    pub latencies: [u64; 7],
    /// Percentage (0–100) of branches that mispredict. A mispredicted
    /// branch stalls fetch until the branch resolves, plus the redirect
    /// penalty — the front-end serialisation that keeps real machines
    /// from hiding arbitrary memory latency behind a 128-entry window.
    pub branch_mispredict_pct: u8,
    /// Front-end redirect penalty in cycles after a mispredict resolves.
    pub mispredict_penalty: u64,
    /// L1 instruction cache (Table 1: 32 KB, 4-way, 32 B blocks), or
    /// `None` for an ideal front end. Modelled functionally: an I-cache
    /// miss stalls fetch for `icache_miss_penalty` cycles (an L2 hit;
    /// instruction footprints here always fit the L2).
    pub icache: Option<tcp_mem::CacheGeometry>,
    /// Fetch stall on an I-cache miss, in cycles.
    pub icache_miss_penalty: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            window: 128,
            fetch_width: 8,
            issue_width: 8,
            commit_width: 8,
            // 8 IntALU, 3 IntMult/Div, 6 FPALU, 2 FPMult/Div, 4 Load/Store.
            fu_counts: [8, 3, 6, 2, 4],
            // IntAlu, IntMult, FpAlu, FpMult, Load, Store, Branch.
            latencies: [1, 3, 2, 4, 0, 0, 1],
            branch_mispredict_pct: 5,
            mispredict_penalty: 6,
            icache: Some(tcp_mem::CacheGeometry::new(32 * 1024, 32, 4)),
            icache_miss_penalty: 12,
        }
    }
}

impl CoreConfig {
    /// Checks that the configuration describes a core the scheduling model
    /// can simulate: nonzero window, pipeline widths, and functional-unit
    /// pools, plus a valid I-cache geometry when one is attached.
    ///
    /// [`SteppedCore::new`] enforces the same constraints by panicking;
    /// this is the checked form for user-reachable paths.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    ///
    /// # Examples
    ///
    /// ```
    /// use tcp_cpu::CoreConfig;
    ///
    /// assert!(CoreConfig::default().validate().is_ok());
    /// assert!(CoreConfig { window: 0, ..CoreConfig::default() }.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("window", self.window as u64),
            ("fetch_width", u64::from(self.fetch_width)),
            ("issue_width", u64::from(self.issue_width)),
            ("commit_width", u64::from(self.commit_width)),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroField { field });
            }
        }
        if self.fu_counts.contains(&0) {
            return Err(ConfigError::ZeroField { field: "fu_counts" });
        }
        if self.branch_mispredict_pct > 100 {
            return Err(ConfigError::OutOfRange {
                field: "branch_mispredict_pct",
                value: u64::from(self.branch_mispredict_pct),
                min: 0,
                max: 100,
            });
        }
        Ok(())
    }

    fn pool_of(class: OpClass) -> usize {
        match class {
            OpClass::IntAlu | OpClass::Branch => 0,
            OpClass::IntMult => 1,
            OpClass::FpAlu => 2,
            OpClass::FpMult => 3,
            OpClass::Load | OpClass::Store => 4,
        }
    }
}

/// The result of one simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreRun {
    /// Micro-ops committed.
    pub ops: u64,
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl CoreRun {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.cycles as f64
        }
    }
}

/// Ring capacity for [`CycleBuckets`]: must be a power of two, and large
/// enough that an op's issue cycle is almost never `RING` or more ahead
/// of another still-live booked cycle (Table 1 latencies put that gap in
/// the low hundreds of cycles).
const RING: usize = 4096;

/// Per-cycle resource usage, stored as a stamped ring.
///
/// The scheduling loop books issue slots and functional units at cycles
/// strictly above the core's current fetch cycle, and the fetch cycle
/// never decreases — so once it passes a cycle, that cycle's counts can
/// never be read again. Slot `c & (RING-1)` therefore holds a
/// `(stamp, count)` pair: a stamp at or below the current fetch cycle
/// marks a dead slot that the next booking may reclaim in place. The rare
/// live collision (two live cycles `RING` apart, which needs pathological
/// latency configurations) spills to a hash map, and a cycle's count is
/// kept entirely in the ring or entirely in the spill — never split — by
/// folding the spilled count back in when the ring slot is reclaimed.
#[derive(Debug)]
struct CycleBuckets {
    stamps: Vec<u64>,
    counts: Vec<u32>,
    overflow: HashMap<u64, u32>,
}

impl Default for CycleBuckets {
    fn default() -> Self {
        // Stamp 0 with count 0 is naturally dead: bookings and queries
        // only happen at cycle >= 1 (fetch cycle + 1 at minimum).
        CycleBuckets {
            stamps: vec![0; RING],
            counts: vec![0; RING],
            overflow: HashMap::new(),
        }
    }
}

impl CycleBuckets {
    #[inline]
    fn used_at(&self, cycle: u64) -> u32 {
        let s = (cycle as usize) & (RING - 1);
        if self.stamps[s] == cycle {
            self.counts[s]
        } else if self.overflow.is_empty() {
            0
        } else {
            self.overflow.get(&cycle).copied().unwrap_or(0)
        }
    }

    /// Books one resource at `cycle`. `horizon` is the core's current
    /// fetch cycle; slots stamped at or below it are dead (see the type
    /// docs) and are reclaimed in place.
    #[inline]
    fn take(&mut self, cycle: u64, horizon: u64) {
        let s = (cycle as usize) & (RING - 1);
        if self.stamps[s] == cycle {
            self.counts[s] += 1;
        } else if self.stamps[s] <= horizon {
            self.stamps[s] = cycle;
            self.counts[s] = self.overflow.remove(&cycle).unwrap_or(0) + 1;
        } else {
            *self.overflow.entry(cycle).or_insert(0) += 1;
        }
    }

    fn prune_below(&mut self, horizon: u64) {
        if !self.overflow.is_empty() {
            self.overflow.retain(|&c, _| c >= horizon);
        }
    }
}

/// The out-of-order core model, driven one micro-op at a time: feed ops
/// with [`SteppedCore::step`] and inspect progress between steps. It is
/// the only core driver; `tcp-sim`'s `Session` adds the warm-up boundary
/// and the watchdog on top.
///
/// # Examples
///
/// ```
/// use tcp_cache::{HierarchyConfig, MemoryHierarchy, NullPrefetcher};
/// use tcp_cpu::{CoreConfig, MicroOp, SteppedCore};
/// use tcp_mem::Addr;
///
/// let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
/// let mut core = SteppedCore::new(CoreConfig::default());
/// for i in 0..100u64 {
///     core.step(MicroOp::load(Addr::new((i * 4) % 256), Addr::new(i * 8)), &mut h);
/// }
/// assert_eq!(core.ops_executed(), 100);
/// assert!(core.cycles() > 0);
/// ```
#[derive(Debug)]
pub struct SteppedCore {
    cfg: CoreConfig,
    // Scheduling state the interval model threads from op to op: the
    // rings, per-cycle resource buckets, and front-end status.
    commit_ring: Vec<u64>,
    complete_ring: Vec<u64>,
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    commit_cycle: u64,
    committed_this_cycle: u32,
    last_commit: u64,
    issue_slots: CycleBuckets,
    pools: [CycleBuckets; 5],
    mispredict_rng: tcp_mem::SplitMix64,
    fetch_blocked_until: u64,
    icache: Option<tcp_cache::Cache>,
    last_iline: Option<tcp_mem::LineAddr>,
    // Run counters: ops executed (the next op's index in program order),
    // loads/stores, and the measurement boundary.
    i: u64,
    run: CoreRun,
    measure_from_ops: u64,
    measure_from_cycle: u64,
}

impl SteppedCore {
    /// Creates a stepped core with fresh scheduling state.
    ///
    /// # Panics
    ///
    /// Panics if the window or any width is zero.
    pub fn new(cfg: CoreConfig) -> Self {
        if let Err(e) = cfg.validate() {
            // tcp-lint: allow(panic-in-library) — documented panicking constructor; fallible path is cfg.validate()
            panic!("invalid core configuration: {e}");
        }
        SteppedCore {
            commit_ring: vec![0; cfg.window],
            complete_ring: vec![0; cfg.window],
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            commit_cycle: 0,
            committed_this_cycle: 0,
            last_commit: 0,
            issue_slots: CycleBuckets::default(),
            pools: Default::default(),
            mispredict_rng: tcp_mem::SplitMix64::new(0x00DD_BA11_5EED),
            fetch_blocked_until: 0,
            icache: cfg
                .icache
                .map(|g| tcp_cache::Cache::new(g, tcp_cache::Replacement::Lru)),
            last_iline: None,
            cfg,
            i: 0,
            run: CoreRun::default(),
            measure_from_ops: 0,
            measure_from_cycle: 0,
        }
    }

    /// Marks the warm-up boundary: ops and cycles before this call are
    /// excluded from [`SteppedCore::snapshot`] and [`SteppedCore::cycles`].
    /// The caller resets hierarchy statistics at the same point.
    pub fn begin_measurement(&mut self) {
        self.measure_from_ops = self.i;
        self.measure_from_cycle = if self.i == 0 { 0 } else { self.last_commit };
        self.run.loads = 0;
        self.run.stores = 0;
    }

    /// Schedules the next micro-op in program order.
    pub fn step(&mut self, op: MicroOp, hierarchy: &mut MemoryHierarchy) {
        let cfg = &self.cfg;
        let i = self.i;
        let w = cfg.window;
        let slot = (i as usize) % w;

        // --- Instruction fetch: I-cache lookup once per new line.
        // (`icache` and its geometry are populated together, so `zip`
        // replaces the old coupled-Option `expect`.)
        if let Some((ic, g)) = self.icache.as_mut().zip(cfg.icache) {
            let iline = g.line_addr(op.pc);
            if self.last_iline != Some(iline) {
                self.last_iline = Some(iline);
                if let tcp_cache::AccessOutcome::Miss = ic.access(iline, false, self.fetch_cycle) {
                    ic.fill(iline, self.fetch_cycle, false);
                    self.fetch_blocked_until = self
                        .fetch_blocked_until
                        .max(self.fetch_cycle + cfg.icache_miss_penalty);
                }
            }
        }

        // --- Fetch: window occupancy, mispredict redirect, bandwidth.
        let window_free_at = if (i as usize) >= w {
            self.commit_ring[slot]
        } else {
            0
        };
        let earliest_fetch = window_free_at.max(self.fetch_blocked_until);
        if earliest_fetch > self.fetch_cycle {
            self.fetch_cycle = earliest_fetch;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle >= cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        self.fetched_this_cycle += 1;
        let fetch_t = self.fetch_cycle;

        // --- Ready: dispatch plus producer completion.
        let mut ready = fetch_t + 1;
        for dep in [op.dep1, op.dep2].into_iter().flatten() {
            let d = dep as u64;
            if d >= 1 && d < w as u64 && d <= i {
                let producer_slot = ((i - d) as usize) % w;
                ready = ready.max(self.complete_ring[producer_slot]);
            }
        }

        // --- Issue: first cycle with a free issue slot and FU.
        let pool = CoreConfig::pool_of(op.class);
        let pool_cap = cfg.fu_counts[pool];
        let mut c = ready;
        loop {
            if self.issue_slots.used_at(c) < cfg.issue_width
                && self.pools[pool].used_at(c) < pool_cap
            {
                break;
            }
            c += 1;
        }
        self.issue_slots.take(c, fetch_t);
        self.pools[pool].take(c, fetch_t);
        let issue_t = c;

        // --- Execute / memory access.
        let complete_t = match op.mem_access() {
            Some(acc) => {
                if acc.kind.is_store() {
                    self.run.stores += 1;
                } else {
                    self.run.loads += 1;
                }
                hierarchy.access(acc, issue_t).completes_at
            }
            None => issue_t + cfg.latencies[op.class.index()],
        };
        self.complete_ring[slot] = complete_t;

        // --- Branch misprediction: block fetch until resolution.
        if op.class == OpClass::Branch
            && cfg.branch_mispredict_pct > 0
            && self
                .mispredict_rng
                .chance(u64::from(cfg.branch_mispredict_pct), 100)
        {
            self.fetch_blocked_until = self
                .fetch_blocked_until
                .max(complete_t + cfg.mispredict_penalty);
        }

        // --- Commit: in order, bounded by commit width.
        let mut target = complete_t.max(self.last_commit);
        if target > self.commit_cycle {
            self.commit_cycle = target;
            self.committed_this_cycle = 0;
        } else {
            target = self.commit_cycle;
        }
        if self.committed_this_cycle >= cfg.commit_width {
            self.commit_cycle += 1;
            self.committed_this_cycle = 0;
            target = self.commit_cycle;
        }
        self.committed_this_cycle += 1;
        self.last_commit = target;
        self.commit_ring[slot] = target;

        if (i + 1).is_multiple_of(65536) {
            self.issue_slots.prune_below(self.fetch_cycle);
            for p in &mut self.pools {
                p.prune_below(self.fetch_cycle);
            }
        }
        self.i += 1;
    }

    /// Ops executed so far.
    pub fn ops_executed(&self) -> u64 {
        self.i
    }

    /// Cycles elapsed up to the last committed op, excluding any cycles
    /// before the [`SteppedCore::begin_measurement`] boundary.
    pub fn cycles(&self) -> u64 {
        if self.i == 0 {
            0
        } else {
            (self.last_commit + 1).saturating_sub(self.measure_from_cycle)
        }
    }

    /// Ops executed since the measurement boundary (all ops if
    /// [`SteppedCore::begin_measurement`] was never called).
    pub fn measured_ops(&self) -> u64 {
        self.i.saturating_sub(self.measure_from_ops)
    }

    /// A [`CoreRun`] snapshot of progress in the measured window.
    pub fn snapshot(&self) -> CoreRun {
        CoreRun {
            ops: self.measured_ops(),
            cycles: self.cycles(),
            loads: self.run.loads,
            stores: self.run.stores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_cache::{HierarchyConfig, MemoryHierarchy, NullPrefetcher};
    use tcp_mem::Addr;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher))
    }

    fn run_on(cfg: CoreConfig, ops: Vec<MicroOp>, h: &mut MemoryHierarchy) -> CoreRun {
        let mut core = SteppedCore::new(cfg);
        for op in ops {
            core.step(op, h);
        }
        core.snapshot()
    }

    fn run_ops(ops: Vec<MicroOp>) -> CoreRun {
        run_on(CoreConfig::default(), ops, &mut hierarchy())
    }

    /// Pure scheduling tests use an ideal front end so cold I-cache
    /// misses don't obscure the property under test.
    fn run_ops_ideal_frontend(ops: Vec<MicroOp>) -> CoreRun {
        let cfg = CoreConfig {
            icache: None,
            branch_mispredict_pct: 0,
            ..CoreConfig::default()
        };
        run_on(cfg, ops, &mut hierarchy())
    }

    #[test]
    fn empty_stream_is_zero() {
        let r = run_ops(vec![]);
        assert_eq!(r.ops, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn independent_alu_ops_reach_issue_width() {
        let ops: Vec<_> = (0..10_000)
            .map(|i| MicroOp::int_alu(Addr::new((i * 4) % 4096), None, None))
            .collect();
        let r = run_ops_ideal_frontend(ops);
        let ipc = r.ipc();
        assert!(
            ipc > 7.0,
            "independent ALU ops should approach 8 IPC, got {ipc}"
        );
        assert!(ipc <= 8.0 + 1e-9);
    }

    #[test]
    fn serial_dependence_chain_limits_ipc_to_one() {
        let ops: Vec<_> = (0..5_000)
            .map(|i| MicroOp::int_alu(Addr::new((i * 4) % 4096), Some(1), None))
            .collect();
        let r = run_ops(ops);
        let ipc = r.ipc();
        assert!(ipc < 1.1, "1-cycle chain must cap IPC at ~1, got {ipc}");
        assert!(ipc > 0.8);
    }

    #[test]
    fn fp_mult_pool_throttles() {
        // Only 2 FP multipliers: independent FpMult ops cap at 2/cycle.
        let ops: Vec<_> = (0..4_000)
            .map(|i| MicroOp {
                pc: Addr::new((i * 4) % 4096),
                class: OpClass::FpMult,
                mem_addr: None,
                dep1: None,
                dep2: None,
            })
            .collect();
        let r = run_ops_ideal_frontend(ops);
        let ipc = r.ipc();
        assert!(ipc < 2.1, "2 FP multipliers cap IPC at 2, got {ipc}");
        assert!(ipc > 1.5);
    }

    #[test]
    fn pointer_chase_misses_serialize() {
        // Dependent loads that each miss to memory: IPC collapses.
        let stride = 64 * 1024; // distinct L1 sets and L2 lines
        let chase: Vec<_> = (0..800u64)
            .map(|i| MicroOp::dependent_load(Addr::new(0x400), Addr::new(i * stride), 1))
            .collect();
        let r = run_ops(chase);
        assert!(
            r.ipc() < 0.05,
            "serialized memory misses must crush IPC, got {}",
            r.ipc()
        );
    }

    #[test]
    fn independent_loads_exploit_mlp() {
        let stride = 64 * 1024;
        let ops: Vec<_> = (0..800u64)
            .map(|i| MicroOp::load(Addr::new(0x400), Addr::new(i * stride)))
            .collect();
        let independent = run_ops(ops);
        let chase: Vec<_> = (0..800u64)
            .map(|i| MicroOp::dependent_load(Addr::new(0x400), Addr::new(i * stride), 1))
            .collect();
        let dependent = run_ops(chase);
        assert!(
            independent.ipc() > 3.0 * dependent.ipc(),
            "MLP should beat serial chasing: {} vs {}",
            independent.ipc(),
            dependent.ipc()
        );
    }

    #[test]
    fn ideal_l2_speeds_up_memory_bound_code() {
        let stride = 64 * 1024;
        let ops: Vec<_> = (0..2_000u64)
            .flat_map(|i| {
                [
                    MicroOp::load(Addr::new(0x400), Addr::new((i * stride) % (1 << 28))),
                    MicroOp::int_alu(Addr::new(0x404), Some(1), None),
                ]
            })
            .collect();
        let mut real = hierarchy();
        let r_real = run_on(CoreConfig::default(), ops.clone(), &mut real);
        let mut ideal = MemoryHierarchy::new(
            HierarchyConfig {
                ideal_l2: true,
                ..HierarchyConfig::default()
            },
            Box::new(NullPrefetcher),
        );
        let r_ideal = run_on(CoreConfig::default(), ops, &mut ideal);
        assert!(
            r_ideal.ipc() > 1.5 * r_real.ipc(),
            "ideal L2 must help memory-bound code: {} vs {}",
            r_ideal.ipc(),
            r_real.ipc()
        );
    }

    #[test]
    fn cache_friendly_loads_are_fast() {
        // Sequential loads within one line mostly hit.
        let ops: Vec<_> = (0..20_000u64)
            .map(|i| MicroOp::load(Addr::new(0x400), Addr::new((i * 4) % 16384)))
            .collect();
        let r = run_ops(ops);
        assert!(
            r.ipc() > 2.0,
            "cache-resident loads should be fast, got {}",
            r.ipc()
        );
    }

    #[test]
    fn run_counts_loads_and_stores() {
        let ops = vec![
            MicroOp::load(Addr::new(0), Addr::new(64)),
            MicroOp::store(Addr::new(4), Addr::new(128)),
            MicroOp::int_alu(Addr::new(8), None, None),
        ];
        let r = run_ops(ops);
        assert_eq!(r.ops, 3);
        assert_eq!(r.loads, 1);
        assert_eq!(r.stores, 1);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = SteppedCore::new(CoreConfig {
            window: 0,
            ..CoreConfig::default()
        });
    }

    #[test]
    fn deps_beyond_window_are_ignored() {
        let ops: Vec<_> = (0..1_000)
            .map(|i| MicroOp::int_alu(Addr::new((i * 4) % 4096), Some(5_000), Some(0)))
            .collect();
        let r = run_ops_ideal_frontend(ops);
        assert!(r.ipc() > 7.0);
    }
}
