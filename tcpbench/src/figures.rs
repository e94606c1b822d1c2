//! The traced `figures` run: `all`'s pipeline in-process with a span per
//! figure, then a stated sample of the figure set's distinct jobs taken
//! apart layer by layer.

use std::collections::BTreeMap;
use std::fs;
use std::time::Instant;

use tcp_baselines::DbcpConfig;
use tcp_core::{DbpConfig, TcpConfig};
use tcp_experiments::report::Table;
use tcp_experiments::store::fnv1a64;
use tcp_experiments::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_experiments::{characterize, fig01, fig09, fig11, fig12, fig13, fig14, table1};
use tcp_mem::{SetIndex, Tag};
use tcp_sim::SystemConfig;
use tcp_workloads::{suite, Benchmark};

use crate::layers::{decompose_job, totals_metrics, Totals};
use crate::{metric, per, print_result, process_cpu_s, Args};

/// Benchmarks whose every figure job is decomposed: spread over Figure
/// 1's order, from compute-bound to pointer-chasing.
const SAMPLE: [&str; 4] = ["eon", "bzip2", "gcc", "mcf"];

/// The digest `run.py` checks a block of `all`'s output against: FNV-1a
/// over the block's text without its trailing blank lines.
fn digest(block: &str) -> String {
    format!("{:016x}", fnv1a64(block.trim_end_matches('\n').as_bytes()))
}

/// Every job `all` submits, in its order (Figures 1, 11, 12, 13, 14),
/// built the way the figure modules build them.
fn figure_jobs(benches: &[Benchmark], ops: u64) -> Vec<Job> {
    let t1 = SystemConfig::table1();
    let ideal = SystemConfig::table1_ideal_l2();
    let bus = SystemConfig::table1_with_prefetch_bus();
    let (t8k, t8m) = (TcpConfig::tcp_8k(), TcpConfig::tcp_8m());
    let ops13 = (ops / 2).max(100_000);
    let mut jobs = Vec::new();
    for b in benches {
        jobs.push(Job::new(b, ops, &t1, PrefetcherSpec::Null));
        jobs.push(Job::new(b, ops, &ideal, PrefetcherSpec::Null));
        jobs.push(Job::new(
            b,
            ops,
            &t1,
            PrefetcherSpec::Dbcp(DbcpConfig::dbcp_2m()),
        ));
        jobs.push(Job::new(b, ops, &t1, PrefetcherSpec::Tcp(t8k)));
        jobs.push(Job::new(b, ops, &t1, PrefetcherSpec::Tcp(t8m)));
        for bytes in fig13::SIZES {
            let full_index = ((bytes / 32) as u32).trailing_zeros().min(10);
            for bits in [0, full_index] {
                jobs.push(Job::new(
                    b,
                    ops13,
                    &t1,
                    PrefetcherSpec::Tcp(TcpConfig::with_pht_bytes(bytes, bits)),
                ));
            }
        }
        for bits in 0..=3 {
            jobs.push(Job::new(
                b,
                ops13,
                &t1,
                PrefetcherSpec::Tcp(TcpConfig::with_pht_bytes(8 * 1024, bits)),
            ));
        }
        let hybrid = PrefetcherSpec::HybridTcp(t8k, DbpConfig::default());
        jobs.push(Job::new(b, ops, &bus, hybrid));
    }
    jobs
}

/// The figure set's distinct jobs, each once, in first-submission order.
fn distinct_jobs(benches: &[Benchmark], ops: u64) -> Vec<Job> {
    let mut seen = std::collections::BTreeSet::new();
    figure_jobs(benches, ops)
        .into_iter()
        .filter(|j| seen.insert(j.key()))
        .collect()
}

/// Prints how many distinct jobs `all` simulates at `--ops` and their
/// micro-ops, warm-up included.
pub fn ops(args: &Args) -> Result<(), String> {
    let ops: u64 = args.num("ops", None)?;
    let jobs = distinct_jobs(&suite(), ops);
    let sim_ops: u64 = jobs.iter().map(|j| j.n_ops / 2 + j.n_ops).sum();
    println!("{{\"jobs\":{},\"sim_ops\":{sim_ops}}}", jobs.len());
    Ok(())
}

/// Times `f` and returns its result with the elapsed seconds.
fn span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

pub fn trace(args: &Args) -> Result<(), String> {
    let ops: u64 = args.num("ops", None)?;
    let untraced_wall: f64 = args.num("untraced-wall", None)?;
    let digests_path = args.flags.get("digests").ok_or("--digests is required")?;
    let expected: BTreeMap<String, String> = fs::read_to_string(digests_path)
        .map_err(|e| format!("reading {digests_path}: {e}"))?
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(d, title)| (title.to_owned(), d.to_owned()))
        .collect();

    // all.rs, phase by phase, on one shared engine.
    let benches = suite();
    let engine = SweepEngine::new();
    let mut blocks: Vec<String> = Vec::new();
    let mut m = BTreeMap::new();
    let mut sweep_cpu = 0.0;
    let mut sweep_wall = 0.0;
    let mut timed = |name: &str, f: &mut dyn FnMut() -> Vec<Table>, blocks: &mut Vec<String>| {
        let cpu0 = process_cpu_s();
        let (tables, s) = span(f);
        sweep_cpu += process_cpu_s() - cpu0;
        sweep_wall += s;
        metric(&mut m, &format!("experiments.{name}_s"), s);
        blocks.extend(tables.iter().map(Table::render));
    };
    let start = Instant::now();
    blocks.push(table1::render(&SystemConfig::table1()).render());
    timed(
        "fig01",
        &mut || vec![fig01::render(&fig01::run_with(&engine, &benches, ops))],
        &mut blocks,
    );
    let (_, characterize_s) = span(|| characterize::characterize_suite(&benches, ops));
    let walkthrough = fig09::walkthrough(
        &tcp_core::PhtConfig::pht_8k(),
        &[Tag::new(0x00F3), Tag::new(0x0A41)],
        SetIndex::new(0x2A7),
    );
    std::hint::black_box(walkthrough);
    timed(
        "fig11",
        &mut || vec![fig11::render(&fig11::run_with(&engine, &benches, ops))],
        &mut blocks,
    );
    timed(
        "fig12",
        &mut || {
            let f = fig12::run_with(&engine, &benches, ops);
            vec![
                fig12::render("Figure 12 (top): TCP-8K", &f.tcp_8k),
                fig12::render("Figure 12 (bottom): TCP-8M", &f.tcp_8m),
            ]
        },
        &mut blocks,
    );
    timed(
        "fig13",
        &mut || {
            let f = fig13::run_with(&engine, &benches, (ops / 2).max(100_000));
            vec![fig13::render_sizes(&f), fig13::render_index_bits(&f)]
        },
        &mut blocks,
    );
    timed(
        "fig14",
        &mut || vec![fig14::render(&fig14::run_with(&engine, &benches, ops))],
        &mut blocks,
    );
    let stats = engine.stats();
    blocks.push(format!(
        "sweep engine: {} simulations requested, {} executed, {} served from memo",
        stats.requested,
        stats.executed,
        stats.memo_hits()
    ));
    let traced_wall = start.elapsed().as_secs_f64();

    // Simulated results: every table the pipeline rendered must match the
    // digest of the same table in `all`'s output.
    let mut failures = Vec::new();
    let mut attempted = 0;
    for block in &blocks {
        let title = block.lines().next().unwrap_or_default();
        attempted += 1;
        if expected.get(title) != Some(&digest(block)) {
            failures.push(format!("traced table differs from all's: {title}"));
        }
    }

    // The figure set's distinct jobs; the sample is all of them for the
    // SAMPLE benchmarks.
    let distinct = distinct_jobs(&benches, ops);
    attempted += 1;
    if distinct.len() != stats.executed {
        failures.push(format!(
            "figure job set has {} distinct jobs, the pipeline executed {}",
            distinct.len(),
            stats.executed
        ));
    }
    let sample: Vec<&Job> = distinct
        .iter()
        .filter(|j| SAMPLE.contains(&j.benchmark.name))
        .collect();
    let mut totals = Totals::default();
    let mut layers_ns = 0u64;
    for j in &sample {
        attempted += 1;
        match decompose_job(j, &mut totals) {
            Ok(ns) => layers_ns += ns,
            Err(e) => failures.push(e),
        }
    }
    let workers = engine.threads() as f64;
    let jobs_s = layers_ns as f64 / 1e9 * distinct.len() as f64 / sample.len().max(1) as f64;
    let layers_s = characterize_s + jobs_s / workers;

    totals_metrics(&mut m, &totals);
    metric(&mut m, "analysis.characterize_s", characterize_s);
    metric(
        &mut m,
        "sim.executor_util",
        per(sweep_cpu, workers * sweep_wall),
    );
    metric(&mut m, "experiments.jobs_requested", stats.requested as f64);
    metric(&mut m, "experiments.jobs_executed", stats.executed as f64);
    metric(&mut m, "experiments.memo_hits", stats.memo_hits() as f64);
    metric(&mut m, "experiments.store_hits", stats.store_hits as f64);
    metric(
        &mut m,
        "bench.residual_frac",
        (untraced_wall - layers_s) / untraced_wall,
    );
    metric(
        &mut m,
        "bench.trace_overhead_frac",
        traced_wall / untraced_wall - 1.0,
    );
    eprintln!(
        "tcpbench: figures sample: {} of {} distinct jobs ({})",
        sample.len(),
        distinct.len(),
        SAMPLE.join(", ")
    );
    print_result(m, attempted, &failures);
    Ok(())
}
