//! Run driver: one benchmark × one prefetcher → timing and traffic
//! results.
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
//! Batches of runs belong to the experiment harness's sweep engine, which
//! adds the panic boundary and per-job verdicts on top of this tier.

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
        // A valid machine that makes no real progress: 250G-cycle memory
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
