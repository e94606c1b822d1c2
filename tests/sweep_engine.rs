//! Cross-figure guarantees of the sweep engine: sharing one engine across
//! experiment harnesses is bit-identical to running each on a fresh
//! engine, memoization actually eliminates repeated simulation points,
//! and results never depend on worker-pool width.

use std::fs;
use std::path::PathBuf;

use tcp_repro::cache::NullPrefetcher;
use tcp_repro::experiments::store::SweepStore;
use tcp_repro::experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_repro::experiments::{fig01, fig11, fig14};
use tcp_repro::sim::{run_benchmark, try_run_benchmark, SystemConfig};
use tcp_repro::workloads::{suite, Benchmark};

const N_OPS: u64 = 60_000;

fn picks(names: &[&str]) -> Vec<Benchmark> {
    suite()
        .into_iter()
        .filter(|b| names.contains(&b.name))
        .collect()
}

#[test]
fn shared_engine_is_bit_identical_to_fresh_engines() {
    let benches = picks(&["art", "swim"]);
    let fresh1 = fig01::run(&benches, N_OPS);
    let fresh11 = fig11::run(&benches, N_OPS);
    let fresh14 = fig14::run(&benches, N_OPS);

    let engine = SweepEngine::new();
    let shared1 = fig01::run_with(&engine, &benches, N_OPS);
    let shared11 = fig11::run_with(&engine, &benches, N_OPS);
    let shared14 = fig14::run_with(&engine, &benches, N_OPS);

    for (a, b) in fresh1.iter().zip(&shared1) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(
            a.base_ipc.to_bits(),
            b.base_ipc.to_bits(),
            "{}",
            a.benchmark
        );
        assert_eq!(
            a.ideal_ipc.to_bits(),
            b.ideal_ipc.to_bits(),
            "{}",
            a.benchmark
        );
        assert_eq!(
            a.improvement_pct.to_bits(),
            b.improvement_pct.to_bits(),
            "{}",
            a.benchmark
        );
    }
    for (a, b) in fresh11.rows.iter().zip(&shared11.rows) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(
            a.tcp8k_pct.to_bits(),
            b.tcp8k_pct.to_bits(),
            "{}",
            a.benchmark
        );
        assert_eq!(
            a.tcp8m_pct.to_bits(),
            b.tcp8m_pct.to_bits(),
            "{}",
            a.benchmark
        );
        assert_eq!(
            a.dbcp_pct.to_bits(),
            b.dbcp_pct.to_bits(),
            "{}",
            a.benchmark
        );
    }
    for (a, b) in fresh14.iter().zip(&shared14) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(
            a.tcp8k_pct.to_bits(),
            b.tcp8k_pct.to_bits(),
            "{}",
            a.benchmark
        );
        assert_eq!(
            a.hybrid_pct.to_bits(),
            b.hybrid_pct.to_bits(),
            "{}",
            a.benchmark
        );
    }
}

#[test]
fn memo_eliminates_cross_figure_repeats() {
    let benches = picks(&["art"]);
    let engine = SweepEngine::new();

    // Figure 1: baseline + ideal-L2 per benchmark, all new.
    fig01::run_with(&engine, &benches, N_OPS);
    let s = engine.stats();
    assert_eq!(s.requested, 2);
    assert_eq!(s.executed, 2);

    // Figure 11 reuses the Table 1 baseline; only DBCP, TCP-8K and
    // TCP-8M need to simulate.
    fig11::run_with(&engine, &benches, N_OPS);
    let s = engine.stats();
    assert_eq!(s.requested, 2 + 4);
    assert_eq!(s.executed, 2 + 3);

    // Figure 14 reuses baseline and TCP-8K; only the hybrid runs.
    fig14::run_with(&engine, &benches, N_OPS);
    let s = engine.stats();
    assert_eq!(s.requested, 2 + 4 + 3);
    assert_eq!(s.executed, 2 + 3 + 1);
    assert_eq!(s.memo_hits(), 3);

    // Replaying a whole figure costs zero simulations.
    fig11::run_with(&engine, &benches, N_OPS);
    let s = engine.stats();
    assert_eq!(s.executed, 2 + 3 + 1);
    assert_eq!(s.memo_hits(), 7);
}

#[test]
fn results_do_not_depend_on_worker_count() {
    let benches = picks(&["gzip", "ammp"]);
    let machine = SystemConfig::table1();
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|b| {
            [
                Job::new(b, N_OPS, &machine, PrefetcherSpec::Null),
                Job::new(
                    b,
                    N_OPS,
                    &machine,
                    PrefetcherSpec::Tcp(tcp_repro::core::TcpConfig::tcp_8k()),
                ),
            ]
        })
        .collect();
    let narrow = SweepEngine::with_threads(1).run(&jobs);
    let wide = SweepEngine::with_threads(8).run(&jobs);
    assert_eq!(narrow.len(), wide.len());
    for (a, b) in narrow.iter().zip(&wide) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
    }
}

#[test]
fn duplicate_jobs_simulate_once_and_share_bits() {
    let benches = picks(&["art"]);
    let machine = SystemConfig::table1();
    let job = Job::new(&benches[0], N_OPS, &machine, PrefetcherSpec::Null);
    let jobs = vec![job.clone(), job.clone(), job];
    let engine = SweepEngine::new();
    let results = engine.run(&jobs);
    assert_eq!(results.len(), 3);
    assert_eq!(engine.stats().executed, 1);
    assert_eq!(engine.memo_len(), 1);
    assert_eq!(results[0].cycles, results[1].cycles);
    assert_eq!(results[1].cycles, results[2].cycles);
}

#[test]
fn zero_op_job_reports_zero_on_every_entry_point() {
    // `run` and `run_with` fill one memo, so the same job key must get
    // the same result from either — and from both direct runners.
    let bench = &picks(&["gzip"])[0];
    let machine = SystemConfig::table1();
    let job = Job::new(bench, 0, &machine, PrefetcherSpec::Null);
    let direct = run_benchmark(bench, 0, &machine, Box::new(NullPrefetcher));
    let checked =
        try_run_benchmark(bench, 0, &machine, Box::new(NullPrefetcher)).expect("valid machine");
    let memoized = SweepEngine::with_threads(1)
        .run(std::slice::from_ref(&job))
        .remove(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep-engine-zero-op");
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    let mut store = SweepStore::open(&dir).expect("open");
    let stored = SweepEngine::with_threads(1)
        .run_with(&mut store, &[job], &CheckpointOpts::default())
        .expect("a zero-op job cannot fail")
        .remove(0);
    fs::remove_dir_all(&dir).expect("cleanup");
    for (path, r) in [
        ("run_benchmark", &direct),
        ("try_run_benchmark", &checked),
        ("SweepEngine::run", &memoized),
        ("SweepEngine::run_with", &stored),
    ] {
        assert_eq!((r.cycles, r.ops), (0, 0), "{path}");
        assert_eq!(r.ipc, 0.0, "{path}");
    }
}
