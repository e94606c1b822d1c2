//! Run driver: one benchmark × one prefetcher → timing and traffic
//! results; suite driver for all 26 benchmarks.
//!
//! Two tiers of API live here, both thin constructors over one
//! [`Session`]:
//!
//! * the classic panicking runners ([`run_benchmark`],
//!   [`ipc_improvement`]) used by the experiment harness where inputs are
//!   known-good; and
//! * the fault-tolerant tier ([`try_run_benchmark`],
//!   [`try_ipc_improvement`]) that returns typed [`SimError`]s instead of
//!   panicking.
//!
//! Both validate the machine and run under the default [`Watchdog`].
//!
//! The suite runners ([`run_suite`], [`run_suite_parallel`]) sit on the
//! fault-tolerant tier: every benchmark executes inside a panic boundary
//! and its result is recorded as a [`RunOutcome`], so one degenerate
//! workload produces a structured `Failed` entry instead of aborting the
//! other 25 benchmarks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::{RunError, SimError};
use crate::session::expect_ok;
use crate::{Session, SystemConfig, Watchdog};
use tcp_cache::{HierarchyStats, Prefetcher};
use tcp_workloads::Benchmark;

/// The outcome of simulating one benchmark with one prefetcher.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Prefetcher table storage in bytes.
    pub prefetcher_bytes: usize,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Total cycles.
    pub cycles: u64,
    /// Micro-ops committed.
    pub ops: u64,
    /// Hierarchy counters (finalized).
    pub stats: HierarchyStats,
}

/// Simulates `bench` for `n_ops` micro-ops on the machine `cfg` with the
/// given prefetch engine, after an unmeasured warm-up of `n_ops / 2` ops
/// (the paper's skip-then-measure methodology at a 1:2 ratio).
///
/// This is the classic panicking form; [`try_run_benchmark`] is the
/// checked equivalent and returns the same bits for healthy runs.
///
/// # Panics
///
/// Panics with the [`SimError`] that [`try_run_benchmark`] would return.
///
/// # Examples
///
/// See the crate-level example.
pub fn run_benchmark(
    bench: &Benchmark,
    n_ops: u64,
    cfg: &SystemConfig,
    prefetcher: Box<dyn Prefetcher>,
) -> RunResult {
    expect_ok(try_run_benchmark(bench, n_ops, cfg, prefetcher))
}

/// Checked run: validates `cfg`, then simulates `bench` for `n_ops`
/// micro-ops under the default [`Watchdog`] (with the usual half-length
/// warm-up), returning typed errors instead of panicking or spinning.
///
/// # Errors
///
/// [`SimError::Config`] when the machine cannot exist and
/// [`SimError::Run`] ([`RunError::Wedged`]) when the watchdog aborts a
/// run that stopped making forward progress.
///
/// # Examples
///
/// ```
/// use tcp_sim::{try_run_benchmark, SystemConfig};
/// use tcp_cache::NullPrefetcher;
/// use tcp_workloads::suite;
///
/// let bench = &suite()[0];
/// let ok = try_run_benchmark(bench, 10_000, &SystemConfig::table1(), Box::new(NullPrefetcher));
/// assert!(ok.is_ok());
///
/// let mut broken = SystemConfig::table1();
/// broken.hierarchy.l1_mshrs = 0;
/// let err = try_run_benchmark(bench, 10_000, &broken, Box::new(NullPrefetcher));
/// assert!(err.is_err());
/// ```
pub fn try_run_benchmark(
    bench: &Benchmark,
    n_ops: u64,
    cfg: &SystemConfig,
    prefetcher: Box<dyn Prefetcher>,
) -> Result<RunResult, SimError> {
    let warmup = n_ops / 2;
    let mut session = Session::new(bench.name, cfg, prefetcher, warmup, Watchdog::default())?;
    session.feed(bench.generator(warmup + n_ops))?;
    Ok(session.finish())
}

/// IPC improvement of `new` over `base`, in percent (the y-axis of
/// Figures 1, 11, and 14).
///
/// # Errors
///
/// [`RunError::ZeroBaselineIpc`] (as [`SimError::Run`]) when `base.ipc`
/// is not positive — the ratio would be meaningless.
///
/// # Examples
///
/// ```
/// # use tcp_sim::{try_ipc_improvement, RunResult};
/// # use tcp_cache::HierarchyStats;
/// # fn result(ipc: f64) -> RunResult {
/// #     RunResult { benchmark: "b".into(), prefetcher: "p".into(), prefetcher_bytes: 0,
/// #                 ipc, cycles: 1, ops: 1, stats: HierarchyStats::default() }
/// # }
/// assert!((try_ipc_improvement(&result(1.0), &result(1.2)).unwrap() - 20.0).abs() < 1e-9);
/// assert!(try_ipc_improvement(&result(0.0), &result(1.2)).is_err());
/// ```
pub fn try_ipc_improvement(base: &RunResult, new: &RunResult) -> Result<f64, SimError> {
    if base.ipc > 0.0 {
        Ok((new.ipc / base.ipc - 1.0) * 100.0)
    } else {
        Err(RunError::ZeroBaselineIpc {
            benchmark: base.benchmark.clone(),
        }
        .into())
    }
}

/// Panicking form of [`try_ipc_improvement`], for harness code with
/// known-good baselines.
///
/// # Panics
///
/// Panics if `base.ipc` is not positive.
pub fn ipc_improvement(base: &RunResult, new: &RunResult) -> f64 {
    expect_ok(try_ipc_improvement(base, new))
}

/// The recorded fate of one benchmark inside a suite run.
#[derive(Debug)]
pub enum RunOutcome {
    /// The benchmark simulated to completion.
    Ok(RunResult),
    /// The benchmark failed; the rest of the suite was unaffected.
    Failed {
        /// Benchmark that failed.
        benchmark: String,
        /// Why it failed (panic, wedge, or invalid configuration).
        reason: SimError,
    },
}

impl RunOutcome {
    /// The successful result, if any.
    pub fn ok(&self) -> Option<&RunResult> {
        match self {
            RunOutcome::Ok(r) => Some(r),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// The benchmark name, for either outcome.
    pub fn benchmark(&self) -> &str {
        match self {
            RunOutcome::Ok(r) => &r.benchmark,
            RunOutcome::Failed { benchmark, .. } => benchmark,
        }
    }
}

/// Results for a whole suite under one prefetcher configuration.
///
/// Holds one [`RunOutcome`] per requested benchmark, in suite order: a
/// suite run completes (and aggregates over its healthy members) even
/// when individual benchmarks fail.
#[derive(Debug, Default)]
pub struct SuiteResult {
    /// Per-benchmark outcomes, in suite order.
    pub outcomes: Vec<RunOutcome>,
}

impl SuiteResult {
    /// Successful per-benchmark results, in suite order.
    pub fn runs(&self) -> impl Iterator<Item = &RunResult> {
        self.outcomes.iter().filter_map(RunOutcome::ok)
    }

    /// Failed benchmarks with their errors, in suite order.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &SimError)> {
        self.outcomes.iter().filter_map(|o| match o {
            RunOutcome::Failed { benchmark, reason } => Some((benchmark.as_str(), reason)),
            RunOutcome::Ok(_) => None,
        })
    }

    /// Number of benchmarks that completed.
    pub fn ok_count(&self) -> usize {
        self.runs().count()
    }

    /// Number of benchmarks that failed.
    pub fn failed_count(&self) -> usize {
        self.outcomes.len() - self.ok_count()
    }

    /// Geometric mean IPC over the suite's successful runs, or `None`
    /// when it is undefined: no successful runs, or a run with
    /// non-positive (or non-finite) IPC.
    pub fn geomean_ipc(&self) -> Option<f64> {
        let ipcs: Vec<f64> = self.runs().map(|r| r.ipc).collect();
        if ipcs.is_empty() || ipcs.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
            return None;
        }
        let log_sum: f64 = ipcs.iter().map(|v| v.ln()).sum();
        Some((log_sum / ipcs.len() as f64).exp())
    }

    /// Finds the result for a benchmark by name.
    pub fn get(&self, benchmark: &str) -> Option<&RunResult> {
        self.runs().find(|r| r.benchmark == benchmark)
    }

    /// Geometric-mean IPC improvement over `base`, in percent, or `None`
    /// when either suite's geomean is undefined (empty suite, zero or
    /// non-finite IPC anywhere).
    pub fn geomean_improvement(&self, base: &SuiteResult) -> Option<f64> {
        match (self.geomean_ipc(), base.geomean_ipc()) {
            (Some(new), Some(base)) => Some((new / base - 1.0) * 100.0),
            _ => None,
        }
    }
}

/// Renders a panic payload as text for [`RunError::Panicked`].
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one benchmark inside a panic boundary with validation and the
/// default watchdog, converting every failure mode into a [`RunOutcome`].
fn protected_run(
    bench: &Benchmark,
    n_ops: u64,
    cfg: &SystemConfig,
    factory: impl FnOnce() -> Box<dyn Prefetcher>,
) -> RunOutcome {
    // AssertUnwindSafe: on panic the per-run core, hierarchy, and
    // prefetcher are discarded wholesale, so no witness of broken
    // invariants survives the boundary.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        try_run_benchmark(bench, n_ops, cfg, factory())
    }));
    match caught {
        Ok(Ok(result)) => RunOutcome::Ok(result),
        Ok(Err(reason)) => RunOutcome::Failed {
            benchmark: bench.name.to_owned(),
            reason,
        },
        Err(payload) => RunOutcome::Failed {
            benchmark: bench.name.to_owned(),
            reason: RunError::Panicked {
                benchmark: bench.name.to_owned(),
                reason: panic_reason(payload),
            }
            .into(),
        },
    }
}

/// Runs every benchmark in `benchmarks` for `n_ops` micro-ops, building a
/// fresh prefetcher per benchmark from `factory`. Each benchmark runs
/// inside a panic boundary: a failing benchmark yields a
/// [`RunOutcome::Failed`] entry while the others complete normally.
pub fn run_suite<F>(
    benchmarks: &[Benchmark],
    n_ops: u64,
    cfg: &SystemConfig,
    factory: F,
) -> SuiteResult
where
    F: Fn() -> Box<dyn Prefetcher>,
{
    let outcomes = benchmarks
        .iter()
        .map(|b| protected_run(b, n_ops, cfg, &factory))
        .collect();
    SuiteResult { outcomes }
}

/// Like [`run_suite`] but simulating benchmarks on worker threads, as
/// many as the machine offers. Results are identical to the sequential
/// runner (each benchmark's simulation is self-contained and
/// deterministic); only wall-clock time changes. The prefetcher factory must be callable from any thread and
/// produce thread-transferable engines — every engine in this workspace
/// qualifies.
///
/// Fault tolerance: each benchmark runs inside a panic boundary with
/// config validation and the default [`Watchdog`]. A benchmark that
/// panics, wedges, or cannot be configured becomes a
/// [`RunOutcome::Failed`] entry; the suite itself always returns.
pub fn run_suite_parallel<F>(
    benchmarks: &[Benchmark],
    n_ops: u64,
    cfg: &SystemConfig,
    factory: F,
) -> SuiteResult
where
    F: Fn() -> Box<dyn Prefetcher + Send> + Sync,
{
    run_suite_parallel_with_threads(
        benchmarks,
        crate::sweep::default_threads(),
        n_ops,
        cfg,
        factory,
    )
}

/// [`run_suite_parallel`] with an explicit worker-thread count. Outcomes
/// are identical for any `threads >= 1`: each benchmark's simulation is
/// self-contained and deterministic, and results land in suite order
/// regardless of which worker ran them.
///
/// Scheduling rides on the work-stealing pool of
/// [`crate::sweep::run_jobs_stealing`]: each worker owns a contiguous
/// block of suite indices and steals from other blocks' tails when its
/// own drains, so one pathologically slow benchmark does not leave the
/// remaining workers idle behind a shared-counter tail.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_suite_parallel_with_threads<F>(
    benchmarks: &[Benchmark],
    threads: usize,
    n_ops: u64,
    cfg: &SystemConfig,
    factory: F,
) -> SuiteResult
where
    F: Fn() -> Box<dyn Prefetcher + Send> + Sync,
{
    let outcomes = crate::sweep::run_jobs_stealing(benchmarks.len(), threads, |i| {
        protected_run(&benchmarks[i], n_ops, cfg, || {
            factory() as Box<dyn Prefetcher>
        })
    });
    SuiteResult { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_cache::NullPrefetcher;
    use tcp_core::{Tcp, TcpConfig};
    use tcp_workloads::suite;

    const TEST_OPS: u64 = 60_000;

    #[test]
    fn run_produces_sane_numbers() {
        let b = suite().into_iter().find(|b| b.name == "gzip").unwrap();
        let r = run_benchmark(
            &b,
            TEST_OPS,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        assert_eq!(r.ops, TEST_OPS);
        assert!(r.ipc > 0.05 && r.ipc < 8.0, "ipc {}", r.ipc);
        assert_eq!(r.stats.accesses(), r.stats.loads + r.stats.stores);
        assert!(r.stats.l1_misses > 0);
    }

    #[test]
    fn deterministic_runs() {
        let b = suite().into_iter().find(|b| b.name == "crafty").unwrap();
        let r1 = run_benchmark(
            &b,
            TEST_OPS,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        let r2 = run_benchmark(
            &b,
            TEST_OPS,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn checked_runner_rejects_invalid_config() {
        let b = suite().into_iter().next().unwrap();
        let mut cfg = SystemConfig::table1();
        cfg.hierarchy.l1_mshrs = 0;
        let err = try_run_benchmark(&b, 5_000, &cfg, Box::new(NullPrefetcher)).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }

    #[test]
    fn watchdog_aborts_a_wedged_run() {
        // A valid machine that makes no real progress: 25M-cycle memory
        // behind a single MSHR serialises every miss, so the ratio blows
        // past the default 10 000 cycles/op by the first checkpoint.
        let b = suite().into_iter().find(|b| b.name == "gzip").unwrap();
        let err = try_run_benchmark(
            &b,
            50_000,
            &crate::faults::wedged_config(),
            Box::new(NullPrefetcher),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Run(RunError::Wedged {
                    max_cycles_per_op: 10_000,
                    ..
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn ideal_l2_beats_real_l2_on_memory_bound_benchmark() {
        let b = suite().into_iter().find(|b| b.name == "art").unwrap();
        let real = run_benchmark(
            &b,
            TEST_OPS,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        let ideal = run_benchmark(
            &b,
            TEST_OPS,
            &SystemConfig::table1_ideal_l2(),
            Box::new(NullPrefetcher),
        );
        assert!(
            ideal.ipc > 1.5 * real.ipc,
            "art must be strongly memory bound: ideal {} vs real {}",
            ideal.ipc,
            real.ipc
        );
    }

    #[test]
    fn tcp_helps_a_correlated_benchmark() {
        let b = suite().into_iter().find(|b| b.name == "ammp").unwrap();
        let base = run_benchmark(
            &b,
            200_000,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        let tcp = run_benchmark(
            &b,
            200_000,
            &SystemConfig::table1(),
            Box::new(Tcp::new(TcpConfig::tcp_8m())),
        );
        assert!(
            ipc_improvement(&base, &tcp) > 10.0,
            "TCP-8M should clearly help ammp: base {} tcp {}",
            base.ipc,
            tcp.ipc
        );
    }

    #[test]
    fn suite_runner_covers_all_benchmarks() {
        let benches: Vec<_> = suite().into_iter().take(3).collect();
        let s = run_suite(&benches, 20_000, &SystemConfig::table1(), || {
            Box::new(NullPrefetcher)
        });
        assert_eq!(s.outcomes.len(), 3);
        assert_eq!(s.ok_count(), 3);
        assert_eq!(s.failed_count(), 0);
        assert!(s.geomean_ipc().unwrap() > 0.0);
        assert!(s.get("fma3d").is_some());
        assert!(s.get("nonexistent").is_none());
    }

    #[test]
    fn parallel_suite_matches_sequential() {
        let benches: Vec<_> = suite().into_iter().take(5).collect();
        let cfg = SystemConfig::table1();
        let seq = run_suite(&benches, 25_000, &cfg, || {
            Box::new(Tcp::new(TcpConfig::tcp_8k()))
        });
        let par = run_suite_parallel(&benches, 25_000, &cfg, || {
            Box::new(Tcp::new(TcpConfig::tcp_8k()))
        });
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        assert_eq!(par.failed_count(), 0);
        for (a, b) in seq.runs().zip(par.runs()) {
            assert_eq!(a.benchmark, b.benchmark, "order preserved");
            assert_eq!(a.cycles, b.cycles, "{}", a.benchmark);
            assert_eq!(a.stats, b.stats, "{}", a.benchmark);
        }
    }

    #[test]
    fn parallel_suite_is_deterministic_across_thread_counts() {
        let benches: Vec<_> = suite().into_iter().take(6).collect();
        let cfg = SystemConfig::table1();
        let run = |threads| {
            run_suite_parallel_with_threads(&benches, threads, 20_000, &cfg, || {
                Box::new(Tcp::new(TcpConfig::tcp_8k()))
            })
        };
        let reference = run(1);
        assert_eq!(reference.failed_count(), 0);
        for threads in [2, 8] {
            let s = run(threads);
            assert_eq!(
                s.outcomes.len(),
                reference.outcomes.len(),
                "{threads} threads"
            );
            for (a, b) in reference.runs().zip(s.runs()) {
                assert_eq!(
                    a.benchmark, b.benchmark,
                    "{threads} threads: order preserved"
                );
                assert_eq!(a.cycles, b.cycles, "{threads} threads: {}", a.benchmark);
                assert_eq!(a.ipc, b.ipc, "{threads} threads: {}", a.benchmark);
                assert_eq!(a.stats, b.stats, "{threads} threads: {}", a.benchmark);
            }
        }
    }

    #[test]
    fn parallel_suite_isolates_a_panicking_benchmark_at_any_thread_count() {
        // A detonating benchmark sandwiched between healthy ones: every
        // thread count must record exactly one Failed entry in suite
        // order and identical results for the survivors.
        let mut benches: Vec<_> = suite().into_iter().take(4).collect();
        benches.insert(2, crate::faults::panicking_benchmark());
        let cfg = SystemConfig::table1();
        let run = |threads| {
            run_suite_parallel_with_threads(&benches, threads, 15_000, &cfg, || {
                Box::new(NullPrefetcher)
            })
        };
        let reference = run(1);
        assert_eq!(reference.ok_count(), 4);
        assert_eq!(reference.failed_count(), 1);
        assert!(matches!(&reference.outcomes[2], RunOutcome::Failed { .. }));
        for threads in [2, 8] {
            let s = run(threads);
            assert_eq!(s.ok_count(), 4, "{threads} threads");
            assert!(
                matches!(
                    &s.outcomes[2],
                    RunOutcome::Failed {
                        reason: SimError::Run(RunError::Panicked { .. }),
                        ..
                    }
                ),
                "{threads} threads: failure stays at its suite position"
            );
            for (a, b) in reference.runs().zip(s.runs()) {
                assert_eq!(a.benchmark, b.benchmark, "{threads} threads");
                assert_eq!(a.cycles, b.cycles, "{threads} threads: {}", a.benchmark);
                assert_eq!(a.stats, b.stats, "{threads} threads: {}", a.benchmark);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_worker_threads_is_rejected() {
        let benches: Vec<_> = suite().into_iter().take(1).collect();
        let _ =
            run_suite_parallel_with_threads(&benches, 0, 1_000, &SystemConfig::table1(), || {
                Box::new(NullPrefetcher)
            });
    }

    #[test]
    fn empty_suite_has_no_geomean() {
        let s = SuiteResult::default();
        assert_eq!(s.geomean_ipc(), None);
        assert_eq!(s.geomean_improvement(&SuiteResult::default()), None);
    }

    #[test]
    fn zero_ipc_run_makes_geomean_undefined_not_nan() {
        let b = suite().into_iter().next().unwrap();
        let mut s = run_suite(&[b], 10_000, &SystemConfig::table1(), || {
            Box::new(NullPrefetcher)
        });
        let healthy = s.geomean_ipc().unwrap();
        assert!(healthy > 0.0);
        if let RunOutcome::Ok(r) = &mut s.outcomes[0] {
            r.ipc = 0.0;
        }
        assert_eq!(s.geomean_ipc(), None);
    }

    #[test]
    fn geomean_improvement_of_healthy_suites_is_finite() {
        let benches: Vec<_> = suite().into_iter().take(2).collect();
        let cfg = SystemConfig::table1();
        let base = run_suite(&benches, 20_000, &cfg, || Box::new(NullPrefetcher));
        let tcp = run_suite(&benches, 20_000, &cfg, || {
            Box::new(Tcp::new(TcpConfig::tcp_8k()))
        });
        let imp = tcp.geomean_improvement(&base).unwrap();
        assert!(imp.is_finite());
    }

    #[test]
    fn try_improvement_rejects_zero_base_without_panicking() {
        let b = suite().into_iter().next().unwrap();
        let mut r = run_benchmark(&b, 5_000, &SystemConfig::table1(), Box::new(NullPrefetcher));
        let good = r.clone();
        r.ipc = 0.0;
        let err = try_ipc_improvement(&r, &good).unwrap_err();
        assert!(
            matches!(err, SimError::Run(RunError::ZeroBaselineIpc { .. })),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "baseline IPC")]
    fn improvement_rejects_zero_base() {
        let b = suite().into_iter().next().unwrap();
        let mut r = run_benchmark(&b, 5_000, &SystemConfig::table1(), Box::new(NullPrefetcher));
        let good = r.clone();
        r.ipc = 0.0;
        let _ = ipc_improvement(&r, &good);
    }
}
