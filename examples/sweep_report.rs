//! Sweep-engine demonstration: run several figures on one shared engine
//! and report how much simulation the memo eliminated.
//!
//! ```text
//! cargo run --release --example sweep_report [ops] [threads]
//! ```
//!
//! Runs Figures 1, 11, and 14 on a benchmark subset twice — once on
//! fresh per-figure engines (the old harness shape) and once through a
//! single shared [`SweepEngine`] — asserts the results are bit-identical,
//! and prints the engine's requested/executed/memo-hit counters.

use tcp_repro::experiments::sweep::SweepEngine;
use tcp_repro::experiments::{fig01, fig11, fig14};
use tcp_repro::workloads::{suite, Benchmark};

fn main() {
    let mut args = std::env::args().skip(1);
    let ops: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(400_000);
    let threads: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| SweepEngine::new().threads());
    let benches: Vec<Benchmark> = suite()
        .into_iter()
        .filter(|b| ["art", "ammp", "swim", "gzip"].contains(&b.name))
        .collect();
    println!("subset: art, ammp, swim, gzip — {ops} measured ops each, {threads} worker threads\n");

    // The old harness shape: every figure pays for its own simulations.
    let fresh1 = fig01::run_with(&SweepEngine::new(), &benches, ops);
    let fresh11 = fig11::run_with(&SweepEngine::new(), &benches, ops);
    let fresh14 = fig14::run_with(&SweepEngine::new(), &benches, ops);

    // The shared engine: recurring points simulate once.
    let engine = SweepEngine::with_threads(threads);
    let shared1 = fig01::run_with(&engine, &benches, ops);
    let shared11 = fig11::run_with(&engine, &benches, ops);
    let shared14 = fig14::run_with(&engine, &benches, ops);

    for (a, b) in fresh1.iter().zip(&shared1) {
        assert_eq!(
            a.base_ipc.to_bits(),
            b.base_ipc.to_bits(),
            "{}",
            a.benchmark
        );
    }
    for (a, b) in fresh11.rows.iter().zip(&shared11.rows) {
        assert_eq!(
            a.tcp8k_pct.to_bits(),
            b.tcp8k_pct.to_bits(),
            "{}",
            a.benchmark
        );
    }
    for (a, b) in fresh14.iter().zip(&shared14) {
        assert_eq!(
            a.hybrid_pct.to_bits(),
            b.hybrid_pct.to_bits(),
            "{}",
            a.benchmark
        );
    }
    println!("shared-engine figures are bit-identical to fresh-engine figures\n");

    println!("{}", fig01::render(&shared1).render());
    println!("{}", fig11::render(&shared11).render());
    println!("{}", fig14::render(&shared14).render());

    let stats = engine.stats();
    println!(
        "sweep engine: {} simulations requested, {} executed, {} served from memo ({} distinct points held)",
        stats.requested,
        stats.executed,
        stats.memo_hits(),
        engine.memo_len()
    );
}
