//! End-to-end integration: workload generation → out-of-order core →
//! memory hierarchy → prefetcher, across crates.

use tcp_repro::analysis::geometric_mean;
use tcp_repro::cache::NullPrefetcher;
use tcp_repro::core::{Tcp, TcpConfig};
use tcp_repro::experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_repro::sim::{run_benchmark, SystemConfig};
use tcp_repro::workloads::suite;

const OPS: u64 = 100_000;

#[test]
fn every_benchmark_runs_and_reports_consistent_counters() {
    let machine = SystemConfig::table1();
    for bench in suite() {
        let r = run_benchmark(&bench, OPS, &machine, Box::new(NullPrefetcher));
        assert_eq!(r.ops, OPS, "{}", bench.name);
        assert!(r.ipc > 0.0 && r.ipc <= 8.0, "{}: ipc {}", bench.name, r.ipc);
        let s = &r.stats;
        assert_eq!(
            s.l1_hits + s.l1_misses + s.l1_mshr_merges,
            s.accesses(),
            "{}: L1 outcome conservation",
            bench.name
        );
        assert_eq!(
            s.l2_demand_hits + s.l2_demand_misses,
            s.l2_demand_accesses,
            "{}: L2 outcome conservation",
            bench.name
        );
        // Without a prefetcher, nothing may be attributed to prefetching.
        assert_eq!(s.l2_breakdown.prefetched_original, 0, "{}", bench.name);
        assert_eq!(s.l2_breakdown.prefetched_extra, 0, "{}", bench.name);
        assert_eq!(s.prefetches_issued, 0, "{}", bench.name);
    }
}

#[test]
fn tcp_attached_runs_preserve_demand_accounting() {
    let machine = SystemConfig::table1();
    for bench in suite()
        .into_iter()
        .filter(|b| ["art", "crafty", "mcf", "gzip"].contains(&b.name))
    {
        let r = run_benchmark(
            &bench,
            OPS,
            &machine,
            Box::new(Tcp::new(TcpConfig::tcp_8k())),
        );
        let s = &r.stats;
        assert_eq!(
            s.l2_breakdown.original(),
            s.l2_demand_accesses,
            "{}: every original L2 access classified exactly once",
            bench.name
        );
        assert!(
            s.prefetches_to_memory + s.prefetches_already_resident + s.prefetches_dropped
                == s.prefetches_issued,
            "{}: every prefetch disposed exactly once",
            bench.name
        );
    }
}

#[test]
fn prefetcher_never_makes_demand_results_unsound() {
    // With a prefetcher attached the simulation remains causal: IPC stays
    // in physical bounds and cycle counts are nonzero.
    let machine = SystemConfig::table1();
    let bench = suite().into_iter().find(|b| b.name == "swim").unwrap();
    let r = run_benchmark(
        &bench,
        OPS,
        &machine,
        Box::new(Tcp::new(TcpConfig::tcp_8m())),
    );
    assert!(r.cycles > OPS / 8, "cannot exceed fetch width");
    assert!(r.ipc <= 8.0);
}

#[test]
fn suite_runner_is_deterministic_across_invocations() {
    let machine = SystemConfig::table1();
    let jobs: Vec<Job> = suite()
        .iter()
        .take(4)
        .map(|b| {
            Job::new(
                b,
                50_000,
                &machine,
                PrefetcherSpec::Tcp(TcpConfig::tcp_8k()),
            )
        })
        .collect();
    // Two engines, so the second invocation cannot be served from memo.
    let run = || {
        SweepEngine::new()
            .run_each(None, &jobs, &CheckpointOpts::default())
            .expect("without a store there is nothing to flush")
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("every job completes")
    };
    let (a, b) = (run(), run());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cycles, y.cycles, "{}", x.benchmark);
        assert_eq!(x.stats, y.stats, "{}", x.benchmark);
    }
    let ipcs: Vec<f64> = a.iter().map(|r| r.ipc).collect();
    assert!(geometric_mean(&ipcs) > 0.0);
}

#[test]
fn ideal_l2_is_an_upper_bound_for_l2_prefetching() {
    // No L2-prefetching engine may beat the machine where every L2 access
    // hits: prefetching into L2 can at best convert misses into hits.
    let base_cfg = SystemConfig::table1();
    let ideal_cfg = SystemConfig::table1_ideal_l2();
    for name in ["art", "ammp"] {
        let bench = suite().into_iter().find(|b| b.name == name).unwrap();
        let tcp = run_benchmark(
            &bench,
            200_000,
            &base_cfg,
            Box::new(Tcp::new(TcpConfig::tcp_8m())),
        );
        let ideal = run_benchmark(&bench, 200_000, &ideal_cfg, Box::new(NullPrefetcher));
        assert!(
            tcp.ipc <= ideal.ipc * 1.02,
            "{name}: TCP {} must not beat ideal L2 {}",
            tcp.ipc,
            ideal.ipc
        );
    }
}
