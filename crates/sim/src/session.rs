//! The one simulation driver: a validated machine, a stepped core over its
//! memory hierarchy, the warm-up boundary, and an always-on watchdog.
//!
//! Every run path is a thin constructor over [`Session`]:
//! [`crate::run_benchmark`] and [`crate::try_run_benchmark`] feed the
//! workload generator, [`crate::stream::replay_records`] and each
//! [`crate::stream::TenantMux`] lane feed trace records as loads, and the
//! experiment harness's supervised sweeps build sessions directly. One
//! driver means one definition of the warm-up boundary, the watchdog
//! checkpoints, and finalization — and no parity contract between paths.

use crate::error::{RunError, SimError};
use crate::{RunResult, SystemConfig};
use tcp_cache::{HierarchyStats, MemoryHierarchy, Prefetcher};
use tcp_cpu::{CoreRun, MicroOp, SteppedCore};

/// Forward-progress supervision for a run.
///
/// A healthy Table 1 machine commits an op every couple of cycles; even a
/// pathological all-miss stream with full MSHR stalls stays well under a
/// few hundred cycles per committed op. A run whose cycles-per-op ratio
/// blows past [`Watchdog::max_cycles_per_op`] is wedged — a degenerate
/// configuration or adversarial workload has effectively stopped the
/// machine — and is aborted with [`RunError::Wedged`] instead of spinning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchdog {
    /// Abort when `cycles > max_cycles_per_op × committed ops` at a
    /// checkpoint.
    pub max_cycles_per_op: u64,
}

impl Watchdog {
    /// Ops between checkpoints, counted from the first op of a run
    /// (warm-up included).
    pub const CHECK_INTERVAL_OPS: u64 = 8_192;
}

impl Default for Watchdog {
    /// 10 000 cycles per committed op: two orders of magnitude above any
    /// physically meaningful machine, so real configurations never trip it.
    fn default() -> Self {
        Watchdog {
            max_cycles_per_op: 10_000,
        }
    }
}

/// One simulated run of one machine with one prefetch engine, fed by any
/// micro-op source and finished into a [`RunResult`].
///
/// The first `warmup_ops` ops warm caches and predictor tables
/// unmeasured: hierarchy statistics reset and the cycle/op counters
/// restart before op `warmup_ops` — the paper's skip-then-measure
/// methodology. The boundary fires only if that op exists, so a run that
/// never leaves warm-up reports 0 measured ops.
///
/// # Examples
///
/// ```
/// use tcp_cache::NullPrefetcher;
/// use tcp_sim::{Session, SystemConfig, Watchdog};
/// use tcp_workloads::suite;
///
/// let bench = &suite()[0];
/// let mut s = Session::new(bench.name, &SystemConfig::table1(), Box::new(NullPrefetcher),
///                          5_000, Watchdog::default()).unwrap();
/// let mut ops = bench.generator(15_000);
/// s.feed(ops.by_ref().take(4_000)).unwrap(); // still warming up
/// assert_eq!(s.ops(), 0);
/// s.feed(ops).unwrap();
/// let result = s.finish();
/// assert_eq!(result.ops, 10_000);
/// assert!(result.ipc > 0.0);
/// ```
#[derive(Debug)]
pub struct Session {
    name: String,
    prefetcher: String,
    prefetcher_bytes: usize,
    core: SteppedCore,
    hierarchy: MemoryHierarchy,
    warmup_ops: u64,
    watchdog: Watchdog,
}

impl Session {
    /// Validates `cfg` and builds a fresh session named `name` (the
    /// [`RunResult::benchmark`] it finishes into).
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the machine cannot exist.
    pub fn new(
        name: &str,
        cfg: &SystemConfig,
        prefetcher: Box<dyn Prefetcher>,
        warmup_ops: u64,
        watchdog: Watchdog,
    ) -> Result<Session, SimError> {
        cfg.validate()?;
        Ok(Session::validated(
            name, cfg, prefetcher, warmup_ops, watchdog,
        ))
    }

    /// [`Session::new`] for a `cfg` the caller has already validated.
    pub(crate) fn validated(
        name: &str,
        cfg: &SystemConfig,
        prefetcher: Box<dyn Prefetcher>,
        warmup_ops: u64,
        watchdog: Watchdog,
    ) -> Session {
        // The hierarchy is allocated before the core: on glibc the reverse
        // order cost sweeps of thousands of 2k-op runs ~1.6x the system
        // time, returning and re-faulting heap pages between runs.
        Session {
            name: name.to_owned(),
            prefetcher: prefetcher.name().to_owned(),
            prefetcher_bytes: prefetcher.storage_bytes(),
            hierarchy: MemoryHierarchy::new(cfg.hierarchy, prefetcher),
            core: SteppedCore::new(cfg.core),
            warmup_ops,
            watchdog,
        }
    }

    /// Simulates every op of `ops`. May be called repeatedly: chunked
    /// feeding is bit-identical to feeding the concatenated stream at once.
    ///
    /// The stream runs in blocks that end at the warm-up boundary and at
    /// each [`Watchdog::CHECK_INTERVAL_OPS`] checkpoint, so the per-op
    /// path is just the core step.
    ///
    /// # Errors
    ///
    /// [`SimError::Run`] ([`RunError::Wedged`]) when a checkpoint finds
    /// the run over the watchdog's cycles-per-op cap. The ops before the
    /// checkpoint stay simulated, so [`Session::finish`] still reports
    /// the prefix.
    pub fn feed<I>(&mut self, ops: I) -> Result<(), SimError>
    where
        I: IntoIterator<Item = MicroOp>,
    {
        let mut ops = ops.into_iter();
        loop {
            let done = self.core.ops_executed();
            let Some(first) = ops.next() else {
                return Ok(());
            };
            // Op `warmup_ops` exists: the warm-up boundary fires before it.
            if done == self.warmup_ops && done > 0 {
                self.core.begin_measurement();
                self.hierarchy.reset_stats();
            }
            let mut stop = (done / Watchdog::CHECK_INTERVAL_OPS + 1) * Watchdog::CHECK_INTERVAL_OPS;
            if done < self.warmup_ops {
                stop = stop.min(self.warmup_ops);
            }
            self.core.step(first, &mut self.hierarchy);
            for op in ops.by_ref().take((stop - done - 1) as usize) {
                self.core.step(op, &mut self.hierarchy);
            }
            if self
                .core
                .ops_executed()
                .is_multiple_of(Watchdog::CHECK_INTERVAL_OPS)
            {
                self.check_progress()?;
            }
        }
    }

    fn check_progress(&self) -> Result<(), SimError> {
        let (ops, cycles) = (self.core.measured_ops(), self.core.cycles());
        let cap = self.watchdog.max_cycles_per_op;
        if cycles > cap.saturating_mul(ops.max(1)) {
            return Err(RunError::Wedged {
                benchmark: self.name.clone(),
                ops,
                cycles,
                max_cycles_per_op: cap,
            }
            .into());
        }
        Ok(())
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ops measured so far: those past the warm-up boundary.
    pub fn ops(&self) -> u64 {
        let fed = self.core.ops_executed();
        fed - fed.min(self.warmup_ops)
    }

    /// Cycles so far, from the warm-up boundary once it has fired.
    pub fn cycles(&self) -> u64 {
        self.core.cycles()
    }

    /// IPC over the measured window so far.
    pub fn ipc(&self) -> f64 {
        self.run().ipc()
    }

    /// Live hierarchy statistics (not finalized: "prefetched extra" for
    /// still-resident lines is only counted by [`Session::finish`]).
    pub fn stats(&self) -> &HierarchyStats {
        self.hierarchy.stats()
    }

    fn run(&self) -> CoreRun {
        CoreRun {
            ops: self.ops(),
            ..self.core.snapshot()
        }
    }

    /// Ends the run: lands in-flight fills, finalizes the hierarchy
    /// statistics, and reports the measured window.
    pub fn finish(mut self) -> RunResult {
        let run = self.run();
        RunResult {
            benchmark: self.name,
            prefetcher: self.prefetcher,
            prefetcher_bytes: self.prefetcher_bytes,
            ipc: run.ipc(),
            cycles: run.cycles,
            ops: run.ops,
            stats: self.hierarchy.finalize(),
        }
    }
}

/// Unwraps a run for the panicking tier ([`crate::run_benchmark`],
/// [`crate::stream::replay_records`], [`crate::ipc_improvement`]), whose
/// inputs are shipped, known-good configurations.
pub(crate) fn expect_ok<T>(result: Result<T, SimError>) -> T {
    // tcp-lint: allow(panic-in-library) — documented panicking tier; every caller has a fallible twin
    result.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_cache::NullPrefetcher;
    use tcp_core::{Tcp, TcpConfig};
    use tcp_mem::SplitMix64;
    use tcp_workloads::{suite, Benchmark};

    const CHECK: u64 = Watchdog::CHECK_INTERVAL_OPS;

    fn bench(name: &str) -> Benchmark {
        suite().into_iter().find(|b| b.name == name).unwrap()
    }

    fn session(b: &Benchmark, warmup: u64, tcp: bool) -> Session {
        let engine: Box<dyn Prefetcher> = if tcp {
            Box::new(Tcp::new(TcpConfig::tcp_8k()))
        } else {
            Box::new(NullPrefetcher)
        };
        Session::new(
            b.name,
            &SystemConfig::table1(),
            engine,
            warmup,
            Watchdog::default(),
        )
        .unwrap()
    }

    /// Feeds `total` ops of `b` in chunks ending at each of `cuts`.
    fn chunked(b: &Benchmark, warmup: u64, total: u64, cuts: &[u64], tcp: bool) -> RunResult {
        let mut s = session(b, warmup, tcp);
        let mut ops = b.generator(total);
        let mut at = 0;
        for &cut in cuts {
            s.feed(ops.by_ref().take((cut - at) as usize)).unwrap();
            at = cut;
        }
        s.feed(ops).unwrap();
        s.finish()
    }

    /// Seeded warm-up and chunking properties. Each case draws a
    /// benchmark, warm-up, stream length, and chunk cuts (always including
    /// cuts exactly at the warm-up boundary and at a watchdog checkpoint);
    /// a failure names its seed.
    #[test]
    fn chunking_and_warmup_properties_hold_for_seeded_cases() {
        let names = ["gzip", "art", "mcf", "crafty"];
        let mut master = SplitMix64::new(0x5E55_1011);
        for case in 0..12 {
            let seed = master.next_u64();
            let mut rng = SplitMix64::new(seed);
            let b = bench(names[rng.next_below(names.len() as u64) as usize]);
            let tcp = case % 2 == 1;
            let warmup = rng.next_below(3 * CHECK);
            let n = 1 + rng.next_below(3 * CHECK);
            let total = warmup + n;
            let mut cuts: Vec<u64> = (0..rng.next_below(6))
                .map(|_| rng.next_below(total + 1))
                .collect();
            cuts.extend([warmup, CHECK.min(total)]);
            cuts.sort_unstable();
            let whole = chunked(&b, warmup, total, &[], tcp);
            let pieces = chunked(&b, warmup, total, &cuts, tcp);
            let ctx = format!(
                "seed {seed:#x}: {} warmup {warmup} n {n} cuts {cuts:?}",
                b.name
            );
            assert_eq!(pieces.cycles, whole.cycles, "{ctx}");
            assert_eq!(pieces.ops, whole.ops, "{ctx}");
            assert_eq!(pieces.ipc.to_bits(), whole.ipc.to_bits(), "{ctx}");
            assert_eq!(pieces.stats, whole.stats, "{ctx}");
            // Warm-up length never changes the measured op count, and a
            // split inside the stream measures the ops after it.
            assert_eq!(whole.ops, n, "{ctx}");
            let split = rng.next_below(n);
            let tail = chunked(&b, split, n, &[], tcp);
            assert_eq!(tail.ops, n - split, "seed {seed:#x}: split {split} of {n}");
            assert!(tail.cycles > 0, "seed {seed:#x}");
        }
    }

    #[test]
    fn empty_and_all_warmup_runs_measure_nothing() {
        let b = bench("gzip");
        let empty = chunked(&b, 0, 0, &[], false);
        assert_eq!((empty.ops, empty.cycles, empty.ipc), (0, 0, 0.0));
        let warm_only = chunked(&b, 5_000, 5_000, &[], false);
        assert_eq!(warm_only.ops, 0);
        assert_eq!(warm_only.ipc, 0.0);
    }

    #[test]
    fn live_progress_is_monotonic() {
        let b = bench("gzip");
        let mut s = session(&b, 0, false);
        assert_eq!(s.ipc(), 0.0);
        let mut ops = b.generator(30_000);
        let mut last = (0, 0);
        for _ in 0..3 {
            s.feed(ops.by_ref().take(10_000)).unwrap();
            assert!(s.ops() > last.0 && s.cycles() > last.1);
            last = (s.ops(), s.cycles());
        }
        assert_eq!(s.ops(), 30_000);
        assert!(s.stats().l1_misses > 0);
        assert!(s.ipc() > 0.0);
    }
}
