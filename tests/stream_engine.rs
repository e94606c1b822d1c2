//! Acceptance tests for the streaming simulation engine: the streaming
//! path must be bit-identical to the materialized path on real workload
//! traces, keep its ingestion memory bounded on traces far larger than
//! the ring, and isolate per-tenant corruption inside [`TenantMux`].
//!
//! The bounded-memory test here is the CI acceptance step wired into
//! `scripts/check-robustness.sh`: a synthetic trace several times the
//! ring capacity must complete through the stream path with the ring's
//! high-water mark inside its configured bound.

use tcp_repro::analysis::{
    miss_stream, read_trace, write_trace, MissRecord, TraceError, TraceStream,
};
use tcp_repro::cache::NullPrefetcher;
use tcp_repro::core::{Tcp, TcpConfig};
use tcp_repro::sim::faults::{corrupt_trace, healthy_trace_bytes, TraceFault};
use tcp_repro::sim::stream::{
    replay_records, replay_stream, StreamOpts, SyntheticTrace, TenantMux,
};
use tcp_repro::sim::{SimError, SystemConfig};
use tcp_repro::workloads::{suite, Benchmark};

/// Serialized miss trace of a real benchmark under the Table 1 L1D.
fn trace_bytes_of(bench: &Benchmark, n_ops: u64) -> Vec<u8> {
    let l1 = SystemConfig::table1().hierarchy.l1d;
    let records: Vec<MissRecord> =
        miss_stream(l1, bench.generator(n_ops).filter_map(|op| op.mem_access())).collect();
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &records).expect("in-memory trace write");
    bytes
}

fn find_bench(name: &str) -> Benchmark {
    suite().into_iter().find(|b| b.name == name).unwrap()
}

#[test]
fn streaming_replay_is_bit_identical_on_real_workloads() {
    let cfg = SystemConfig::table1();
    for name in ["art", "crafty", "swim"] {
        let bytes = trace_bytes_of(&find_bench(name), 100_000);
        let records = read_trace(bytes.as_slice(), cfg.hierarchy.l1d).unwrap();
        let materialized = replay_records(&records, &cfg, Box::new(NullPrefetcher));
        let streamed = replay_stream(
            bytes.as_slice(),
            &cfg,
            Box::new(NullPrefetcher),
            StreamOpts::default(),
        )
        .unwrap();
        assert_eq!(
            streamed.result, materialized,
            "{name}: streaming must be bit-identical to materialized"
        );
        // And deterministic across repeat streaming runs.
        let again = replay_stream(
            bytes.as_slice(),
            &cfg,
            Box::new(NullPrefetcher),
            StreamOpts::default(),
        )
        .unwrap();
        assert_eq!(streamed, again, "{name}: streaming must be deterministic");
    }
}

#[test]
fn trace_stream_iterator_agrees_with_read_trace_on_a_real_trace() {
    let l1 = SystemConfig::table1().hierarchy.l1d;
    let bytes = trace_bytes_of(&find_bench("art"), 100_000);
    let materialized = read_trace(bytes.as_slice(), l1).unwrap();
    let streamed: Vec<MissRecord> = TraceStream::new(bytes.as_slice(), l1)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(streamed, materialized);
}

/// The CI bounded-memory acceptance step: a synthetic trace several
/// times the ring capacity completes through the stream path, and the
/// observed ring high-water mark never exceeds chunk × ring depth.
#[test]
fn bounded_memory_acceptance_on_a_trace_4x_the_ring() {
    let opts = StreamOpts::default();
    let n = (4 * opts.ring_capacity()) as u64 + 917; // strictly > 4× capacity
    let out = replay_stream(
        SyntheticTrace::new(n),
        &SystemConfig::table1(),
        Box::new(NullPrefetcher),
        opts,
    )
    .expect("stream path must complete");
    assert_eq!(out.result.records, n, "every record replayed");
    assert!(out.result.cycles > 0);
    assert_eq!(out.ring_capacity, opts.ring_capacity());
    assert!(
        out.ring_high_water <= out.ring_capacity,
        "peak ingestion memory {} records exceeds the chunk × depth bound {}",
        out.ring_high_water,
        out.ring_capacity
    );
}

#[test]
fn mux_interleaving_matches_solo_runs_with_mixed_prefetchers() {
    let cfg = SystemConfig::table1();
    let art = trace_bytes_of(&find_bench("art"), 60_000);
    let swim = trace_bytes_of(&find_bench("swim"), 60_000);

    let mut mux = TenantMux::new(cfg, StreamOpts::default());
    mux.add_tenant(
        "art-tcp",
        art.as_slice(),
        Box::new(Tcp::new(TcpConfig::tcp_8k())),
    );
    mux.add_tenant("swim-null", swim.as_slice(), Box::new(NullPrefetcher));
    let results = mux.run();
    assert_eq!(results.len(), 2);

    let solo_art = replay_stream(
        art.as_slice(),
        &cfg,
        Box::new(Tcp::new(TcpConfig::tcp_8k())),
        StreamOpts::default(),
    )
    .unwrap();
    let solo_swim = replay_stream(
        swim.as_slice(),
        &cfg,
        Box::new(NullPrefetcher),
        StreamOpts::default(),
    )
    .unwrap();

    for (r, solo) in results.iter().zip([&solo_art, &solo_swim]) {
        assert!(r.error.is_none(), "{}: unexpected error", r.name);
        assert_eq!(r.cycles, solo.result.cycles, "{}: cycles diverged", r.name);
        assert_eq!(r.stats, solo.result.stats, "{}: stats diverged", r.name);
        assert_eq!(r.records, solo.result.records, "{}", r.name);
    }
    // SweepEngine-compatible conversion carries the tenant identity.
    let rr = results[0].to_run_result();
    assert_eq!(rr.benchmark, "art-tcp");
    assert_eq!(rr.cycles, solo_art.result.cycles);
    assert!(rr.prefetcher_bytes > 0, "TCP tables have real storage");
}

#[test]
fn mid_stream_corruption_stays_inside_the_faulty_tenant() {
    let cfg = SystemConfig::table1();
    let healthy = healthy_trace_bytes(2_000);
    let torn = {
        let mut b = healthy_trace_bytes(2_000);
        corrupt_trace(&mut b, TraceFault::TruncatePayload);
        b
    };
    let flipped = {
        let mut b = healthy_trace_bytes(2_000);
        corrupt_trace(&mut b, TraceFault::FlipTagByte);
        b
    };

    let mut mux = TenantMux::new(cfg, StreamOpts::default());
    mux.add_tenant("healthy", healthy.as_slice(), Box::new(NullPrefetcher));
    mux.add_tenant("torn", torn.as_slice(), Box::new(NullPrefetcher));
    mux.add_tenant("flipped", flipped.as_slice(), Box::new(NullPrefetcher));
    let results = mux.run();

    // The torn tenant surfaces its TraceError after replaying only the
    // whole-record prefix (the cut lands inside record 0).
    assert!(matches!(
        results[1].error,
        Some(SimError::Trace(TraceError::TruncatedMidRecord { .. }))
    ));
    assert_eq!(results[1].records, 0);

    // The flipped-tag trace is silently valid (format v1 has no
    // checksum): it completes without error, possibly with different
    // stats — contained to its own lane either way.
    assert!(results[2].error.is_none());
    assert_eq!(results[2].records, 2_000);

    // The healthy sibling is bit-identical to a solo run: neither the
    // torn nor the silently-corrupt lane poisoned it.
    let solo = replay_stream(
        healthy.as_slice(),
        &cfg,
        Box::new(NullPrefetcher),
        StreamOpts::default(),
    )
    .unwrap();
    assert!(results[0].error.is_none());
    assert_eq!(results[0].cycles, solo.result.cycles);
    assert_eq!(results[0].stats, solo.result.stats);
    assert_eq!(results[0].records, 2_000);
}

#[test]
fn strict_stream_path_reports_corruption_as_sim_error() {
    let mut torn = healthy_trace_bytes(64);
    corrupt_trace(&mut torn, TraceFault::TruncatePayload);
    let err = replay_stream(
        torn.as_slice(),
        &SystemConfig::table1(),
        Box::new(NullPrefetcher),
        StreamOpts::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        SimError::Trace(TraceError::TruncatedMidRecord { .. })
    ));
}

#[test]
fn snapshots_cover_every_tenant_and_respect_cadence() {
    let mut mux = TenantMux::new(
        SystemConfig::table1(),
        StreamOpts {
            snapshot_cycles: 5_000,
            ..StreamOpts::default()
        },
    );
    mux.add_tenant("a", SyntheticTrace::new(6_000), Box::new(NullPrefetcher));
    mux.add_tenant("b", SyntheticTrace::new(6_000), Box::new(NullPrefetcher));
    let mut snaps = Vec::new();
    let results = mux.run_with(|s| snaps.push(s));
    assert!(snaps.iter().any(|s| s.tenant == 0));
    assert!(snaps.iter().any(|s| s.tenant == 1));
    for s in &snaps {
        assert!(s.cycles <= results[s.tenant].cycles);
        assert!(s.records <= results[s.tenant].records);
    }
}
