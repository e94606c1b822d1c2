//! Acceptance tests for the fault-tolerant simulation layer: deliberately
//! broken benchmarks, machines, and trace bytes must surface as typed
//! errors or structured `Failed` outcomes — never as a panic or abort of
//! the surrounding suite.

use tcp_repro::analysis::{read_trace, TraceError};
use tcp_repro::cache::NullPrefetcher;
use tcp_repro::mem::CacheGeometry;
use tcp_repro::sim::faults::{
    adversarial_suite, corrupt_trace, healthy_trace_bytes, panicking_benchmark, wedged_config,
    zero_ipc_baseline, TraceFault, TRACE_FAULTS,
};
use tcp_repro::sim::stream::{replay_stream, StreamOpts, SyntheticTrace, TenantMux};
use tcp_repro::sim::{
    run_suite, run_suite_parallel, try_ipc_improvement, try_run_benchmark, RunError, RunOutcome,
    SimError, SystemConfig, Watchdog,
};
use tcp_repro::workloads::suite;

const OPS: u64 = 20_000;

#[test]
fn panicking_benchmark_does_not_abort_the_parallel_suite() {
    // Healthy benchmarks surround the bomb so both orderings are covered.
    let mut benches: Vec<_> = suite().into_iter().take(2).collect();
    benches.insert(1, panicking_benchmark());

    let s = run_suite_parallel(&benches, OPS, &SystemConfig::table1(), || {
        Box::new(NullPrefetcher)
    });

    assert_eq!(s.outcomes.len(), 3, "every benchmark gets an outcome");
    assert_eq!(s.ok_count(), 2, "both healthy benchmarks completed");
    assert_eq!(s.failed_count(), 1);
    // Outcomes stay in suite order even around a failure.
    assert_eq!(s.outcomes[0].benchmark(), "fma3d");
    assert_eq!(s.outcomes[1].benchmark(), "fault-panic");
    match &s.outcomes[1] {
        RunOutcome::Failed {
            benchmark,
            reason: SimError::Run(RunError::Panicked { .. }),
        } => {
            assert_eq!(benchmark, "fault-panic");
        }
        other => panic!("expected a structured panic outcome, got {other:?}"),
    }
    // The healthy members still aggregate.
    assert!(s.geomean_ipc().expect("two healthy runs") > 0.0);
}

#[test]
fn sequential_suite_isolates_the_same_panic() {
    let benches = vec![panicking_benchmark(), suite().remove(0)];
    let s = run_suite(&benches, OPS, &SystemConfig::table1(), || {
        Box::new(NullPrefetcher)
    });
    assert_eq!(s.ok_count(), 1);
    let (name, err) = s.failures().next().expect("one failure");
    assert_eq!(name, "fault-panic");
    assert!(err.to_string().contains("panicked"), "{err}");
}

#[test]
fn wedged_benchmark_is_aborted_by_the_watchdog_not_the_suite() {
    let benches: Vec<_> = suite().into_iter().take(2).collect();
    let s = run_suite_parallel(&benches, OPS, &wedged_config(), || Box::new(NullPrefetcher));
    assert_eq!(s.outcomes.len(), 2);
    assert_eq!(s.ok_count(), 0, "a wedged machine completes nothing");
    for (_, err) in s.failures() {
        assert!(
            matches!(err, SimError::Run(RunError::Wedged { .. })),
            "expected a watchdog abort, got {err}"
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
    let s = run_suite(&benches, OPS, &cfg, || Box::new(NullPrefetcher));
    assert_eq!(s.failed_count(), 3);
    for (_, err) in s.failures() {
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }

    let err = try_run_benchmark(&suite()[0], OPS, &cfg, Box::new(NullPrefetcher)).unwrap_err();
    assert!(matches!(err, SimError::Config(_)), "{err}");
}

#[test]
fn adversarial_workloads_stress_but_complete() {
    let benches = adversarial_suite();
    let s = run_suite_parallel(&benches, OPS, &SystemConfig::table1(), || {
        Box::new(NullPrefetcher)
    });
    assert_eq!(
        s.ok_count(),
        benches.len(),
        "adversarial inputs must finish, not wedge"
    );
    for r in s.runs() {
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
