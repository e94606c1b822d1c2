//! Fault-injection demo: attack the simulator with broken benchmarks,
//! wedged machines, invalid configurations, and corrupted trace bytes,
//! and show that every failure surfaces as a per-job verdict or typed
//! error while healthy work completes.
//!
//! Run with: `cargo run --release --example fault_injection`

use tcp_repro::analysis::read_trace;
use tcp_repro::experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_repro::mem::CacheGeometry;
use tcp_repro::sim::faults::{
    adversarial_suite, corrupt_trace, healthy_trace_bytes, panicking_benchmark, wedged_config,
    TRACE_FAULTS,
};
use tcp_repro::sim::SystemConfig;
use tcp_repro::workloads::{suite, Benchmark};

const OPS: u64 = 40_000;

/// Runs every benchmark on `machine` without a prefetcher through the
/// sweep engine and prints one verdict per benchmark.
fn run_and_print(title: &str, benches: &[Benchmark], machine: &SystemConfig) {
    println!("\n== {title} ==");
    let jobs: Vec<Job> = benches
        .iter()
        .map(|b| Job::new(b, OPS, machine, PrefetcherSpec::Null))
        .collect();
    let verdicts = SweepEngine::new()
        .run_each(None, &jobs, &CheckpointOpts::default())
        .expect("without a store there is nothing to flush");
    let mut failed = 0;
    for (bench, verdict) in benches.iter().zip(&verdicts) {
        match verdict {
            Ok(r) => println!("  ok      {:<22} ipc {:.3}", r.benchmark, r.ipc),
            Err(reason) => {
                failed += 1;
                println!("  FAILED  {:<22} {reason}", bench.name)
            }
        }
    }
    println!("  -> {} ok, {failed} failed", verdicts.len() - failed);
}

fn main() {
    let table1 = SystemConfig::table1();

    // 1. A benchmark that panics mid-generation, surrounded by healthy
    //    ones: the batch completes and reports the panic as that job's
    //    verdict.
    let mut benches: Vec<_> = suite().into_iter().take(3).collect();
    benches.insert(1, panicking_benchmark());
    run_and_print("panicking benchmark among healthy ones", &benches, &table1);

    // 2. A machine that validates but makes no forward progress: the
    //    watchdog aborts each run (after the relaxed retries) with a
    //    typed error.
    let benches: Vec<_> = suite().into_iter().take(2).collect();
    run_and_print(
        "wedged machine (watchdog aborts)",
        &benches,
        &wedged_config(),
    );

    // 3. A machine that cannot exist: every benchmark fails fast with the
    //    same configuration error, before any simulation happens.
    let mut broken = SystemConfig::table1();
    broken.hierarchy.l1_mshrs = 0;
    run_and_print("invalid configuration (zero MSHRs)", &benches, &broken);

    // 4. Adversarial-but-valid miss streams: they stress the hierarchy
    //    and defeat the prefetcher, but they must complete.
    run_and_print(
        "adversarial workloads (must complete)",
        &adversarial_suite(),
        &table1,
    );

    // 5. Corrupted persisted traces: each loud corruption maps to a
    //    typed TraceError (the lying-count header fails fast without
    //    allocating); the flipped tag byte is the silent one — format v1
    //    has no checksum, so it parses into a different tag.
    println!("\n== corrupted trace bytes ==");
    let geom = CacheGeometry::new(32 * 1024, 32, 1);
    for fault in TRACE_FAULTS {
        let mut bytes = healthy_trace_bytes(64);
        corrupt_trace(&mut bytes, fault);
        match read_trace(bytes.as_slice(), geom) {
            Ok(records) => println!(
                "  {fault:?}: parsed {} records (silent fault)",
                records.len()
            ),
            Err(e) => println!("  {fault:?}: {e}"),
        }
    }
}
