//! Acceptance tests for the fault-tolerant simulation layer: deliberately
//! broken benchmarks, machines, and trace bytes must surface as typed
//! errors or per-job verdicts — never as a panic or abort of the
//! surrounding batch.

use tcp_repro::analysis::{read_trace, TraceError};
use tcp_repro::cache::NullPrefetcher;
use tcp_repro::experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_repro::mem::CacheGeometry;
use tcp_repro::sim::faults::{
    adversarial_suite, corrupt_trace, healthy_trace_bytes, panicking_benchmark, wedged_config,
    zero_ipc_baseline, TraceFault, TRACE_FAULTS,
};
use tcp_repro::sim::stream::{replay_stream, StreamOpts, SyntheticTrace, TenantMux};
use tcp_repro::sim::{
    run_benchmark, try_ipc_improvement, try_run_benchmark, RunError, RunResult, SimError,
    SystemConfig, Watchdog,
};
use tcp_repro::workloads::{suite, Benchmark};

const OPS: u64 = 20_000;

/// One verdict per benchmark, in order: each runs on `machine` without a
/// prefetcher through a fresh sweep engine with `threads` workers.
fn run_each(
    benches: &[Benchmark],
    machine: &SystemConfig,
    threads: usize,
) -> Vec<Result<RunResult, SimError>> {
    let jobs: Vec<Job> = benches
        .iter()
        .map(|b| Job::new(b, OPS, machine, PrefetcherSpec::Null))
        .collect();
    SweepEngine::with_threads(threads)
        .run_each(None, &jobs, &CheckpointOpts::default())
        .expect("without a store there is nothing to flush")
}

#[test]
fn panicking_benchmark_does_not_abort_the_parallel_suite() {
    // Healthy benchmarks surround the bomb so both orderings are covered.
    let mut benches: Vec<_> = suite().into_iter().take(2).collect();
    benches.insert(1, panicking_benchmark());
    let machine = SystemConfig::table1();

    for threads in [1, 2, 8] {
        let verdicts = run_each(&benches, &machine, threads);
        assert_eq!(
            verdicts.len(),
            3,
            "{threads} threads: every job gets a verdict"
        );
        // Verdicts stay in submission order even around a failure.
        match &verdicts[1] {
            Err(SimError::Run(RunError::Panicked { benchmark, .. })) => {
                assert_eq!(benchmark, "fault-panic", "{threads} threads");
            }
            other => panic!("{threads} threads: expected a panic verdict, got {other:?}"),
        }
        // Both healthy jobs completed, bit-identical to direct runs.
        for i in [0, 2] {
            let r = verdicts[i].as_ref().expect("healthy job completes");
            let direct = run_benchmark(&benches[i], OPS, &machine, Box::new(NullPrefetcher));
            assert_eq!(r.benchmark, benches[i].name, "{threads} threads");
            assert_eq!(
                r.cycles, direct.cycles,
                "{threads} threads: {}",
                r.benchmark
            );
            assert_eq!(r.ipc.to_bits(), direct.ipc.to_bits(), "{threads} threads");
            assert_eq!(r.stats, direct.stats, "{threads} threads: {}", r.benchmark);
            assert!(r.ipc > 0.0, "{threads} threads: {}", r.benchmark);
        }
        assert_eq!(
            verdicts[0].as_ref().map(|r| r.benchmark.as_str()).ok(),
            Some("fma3d")
        );
    }
}

#[test]
fn sequential_suite_isolates_the_same_panic() {
    let benches = vec![panicking_benchmark(), suite().remove(0)];
    let verdicts = run_each(&benches, &SystemConfig::table1(), 1);
    assert_eq!(verdicts.iter().filter(|v| v.is_ok()).count(), 1);
    let err = verdicts[0].as_ref().expect_err("the panicking job fails");
    assert!(
        matches!(err, SimError::Run(RunError::Panicked { benchmark, .. }) if benchmark == "fault-panic"),
        "{err}"
    );
    assert!(err.to_string().contains("panicked"), "{err}");
}

#[test]
fn wedged_benchmark_is_aborted_by_the_watchdog_not_the_suite() {
    let benches: Vec<_> = suite().into_iter().take(2).collect();
    let verdicts = run_each(&benches, &wedged_config(), 2);
    assert_eq!(verdicts.len(), 2);
    for verdict in &verdicts {
        // Both default retries ran (cap 10 000 × 16²) and still could not
        // rescue a wedged machine.
        assert!(
            matches!(
                verdict,
                Err(SimError::Run(RunError::Wedged {
                    max_cycles_per_op: 2_560_000,
                    ..
                }))
            ),
            "expected a watchdog abort after retries, got {verdict:?}"
        );
    }
}

/// A miss trace long enough to cross several watchdog checkpoints.
const WEDGE_RECORDS: u64 = 3 * Watchdog::CHECK_INTERVAL_OPS;

#[test]
fn wedged_stream_replay_is_a_typed_error() {
    let err = replay_stream(
        SyntheticTrace::new(WEDGE_RECORDS),
        &wedged_config(),
        Box::new(NullPrefetcher),
        StreamOpts::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::Run(RunError::Wedged { .. })),
        "expected a watchdog abort, got {err}"
    );
}

#[test]
fn wedged_mux_retires_every_lane_with_its_prefix() {
    let mut mux = TenantMux::new(wedged_config(), StreamOpts::default());
    for name in ["a", "b", "c"] {
        mux.add_tenant(
            name,
            SyntheticTrace::new(WEDGE_RECORDS),
            Box::new(NullPrefetcher),
        );
    }
    let results = mux.run();
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(
            matches!(r.error, Some(SimError::Run(RunError::Wedged { .. }))),
            "{}: expected a watchdog abort, got {:?}",
            r.name,
            r.error
        );
        assert!(
            r.records < WEDGE_RECORDS,
            "{}: replayed {} of {WEDGE_RECORDS} records",
            r.name,
            r.records
        );
        assert!(r.cycles > 0, "{}: prefix statistics survive", r.name);
    }
}

#[test]
fn invalid_config_fails_every_benchmark_with_a_typed_error() {
    let mut cfg = SystemConfig::table1();
    cfg.hierarchy.l1_mshrs = 0;
    let benches: Vec<_> = suite().into_iter().take(3).collect();
    let verdicts = run_each(&benches, &cfg, 2);
    assert_eq!(verdicts.len(), 3);
    for verdict in &verdicts {
        assert!(matches!(verdict, Err(SimError::Config(_))), "{verdict:?}");
    }

    let err = try_run_benchmark(&suite()[0], OPS, &cfg, Box::new(NullPrefetcher)).unwrap_err();
    assert!(matches!(err, SimError::Config(_)), "{err}");
}

#[test]
fn adversarial_workloads_stress_but_complete() {
    let benches = adversarial_suite();
    let verdicts = run_each(&benches, &SystemConfig::table1(), 2);
    assert_eq!(verdicts.len(), benches.len());
    for verdict in verdicts {
        let r = verdict.expect("adversarial inputs must finish, not wedge");
        assert!(
            r.ipc > 0.0 && r.ipc.is_finite(),
            "{}: ipc {}",
            r.benchmark,
            r.ipc
        );
    }
}

#[test]
fn corrupted_traces_yield_typed_errors_never_panics() {
    let geom = CacheGeometry::new(32 * 1024, 32, 1);
    for fault in TRACE_FAULTS {
        let mut bytes = healthy_trace_bytes(32);
        corrupt_trace(&mut bytes, fault);
        if fault == TraceFault::FlipTagByte {
            // The one silent corruption: format v1 has no checksum, so
            // the flipped byte still parses — into a different tag. The
            // stream-engine suite proves TenantMux keeps the blast
            // radius to the one tenant carrying it.
            let records =
                read_trace(bytes.as_slice(), geom).expect("flipped tag byte still parses");
            let healthy = read_trace(healthy_trace_bytes(32).as_slice(), geom).unwrap();
            assert_eq!(records.len(), healthy.len());
            assert_ne!(records[1].tag, healthy[1].tag);
            continue;
        }
        let err = read_trace(bytes.as_slice(), geom).expect_err("corrupted bytes must not parse");
        // Every loud corruption maps onto a specific TraceError variant.
        match (fault, &err) {
            (TraceFault::BadMagic, TraceError::BadMagic { .. })
            | (TraceFault::BadVersion, TraceError::UnsupportedVersion { .. })
            | (TraceFault::TruncatePayload, TraceError::TruncatedMidRecord { .. })
            | (TraceFault::TruncateAtBoundary, TraceError::Truncated { .. })
            | (TraceFault::LyingCount, TraceError::Truncated { .. }) => {}
            (fault, err) => panic!("{fault:?} produced unexpected {err}"),
        }
        // And it converts losslessly into the unified error type.
        let sim_err = SimError::from(err);
        assert!(matches!(sim_err, SimError::Trace(_)));
    }
}

#[test]
fn zero_ipc_baseline_surfaces_as_a_typed_error() {
    let base = zero_ipc_baseline("art");
    let better = {
        let mut r = zero_ipc_baseline("art");
        r.ipc = 1.0;
        r
    };
    match try_ipc_improvement(&base, &better) {
        Err(SimError::Run(RunError::ZeroBaselineIpc { benchmark })) => {
            assert_eq!(benchmark, "art");
        }
        other => panic!("expected ZeroBaselineIpc, got {other:?}"),
    }
}
