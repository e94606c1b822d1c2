//! Figure 12: decomposition of L2 accesses into prefetched original,
//! non-prefetched original, and prefetched extra, for TCP-8K (top) and
//! TCP-8M (bottom), normalised to original L2 accesses.

use crate::report::{pct, Table};
use crate::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_core::TcpConfig;
use tcp_sim::SystemConfig;
use tcp_workloads::Benchmark;

/// One benchmark's stacked bar.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Prefetched original, as a fraction of original L2 accesses.
    pub prefetched_original: f64,
    /// Non-prefetched original fraction.
    pub non_prefetched_original: f64,
    /// Prefetched extra fraction.
    pub prefetched_extra: f64,
}

/// Both panels of the figure.
#[derive(Clone, Debug)]
pub struct Fig12 {
    /// Top panel: TCP-8K.
    pub tcp_8k: Vec<Fig12Row>,
    /// Bottom panel: TCP-8M.
    pub tcp_8m: Vec<Fig12Row>,
}

fn panel(
    engine: &SweepEngine,
    benchmarks: &[Benchmark],
    n_ops: u64,
    cfg: TcpConfig,
) -> Vec<Fig12Row> {
    let sys = SystemConfig::table1();
    let jobs: Vec<Job> = benchmarks
        .iter()
        .map(|b| Job::new(b, n_ops, &sys, PrefetcherSpec::Tcp(cfg)))
        .collect();
    benchmarks
        .iter()
        .zip(engine.run(&jobs))
        .map(|(b, r)| {
            let (p, n, e) = r.stats.l2_breakdown.normalized();
            Fig12Row {
                benchmark: b.name.to_owned(),
                prefetched_original: p,
                non_prefetched_original: n,
                prefetched_extra: e,
            }
        })
        .collect()
}

/// Runs both panels through `engine` — at equal scale the TCP-8K and
/// TCP-8M points are the very simulations Figure 11 already ran, so a
/// shared engine serves this whole figure from memo.
pub fn run_with(engine: &SweepEngine, benchmarks: &[Benchmark], n_ops: u64) -> Fig12 {
    Fig12 {
        tcp_8k: panel(engine, benchmarks, n_ops, TcpConfig::tcp_8k()),
        tcp_8m: panel(engine, benchmarks, n_ops, TcpConfig::tcp_8m()),
    }
}

/// Renders one panel.
pub fn render(title: &str, rows: &[Fig12Row]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "benchmark",
            "prefetched original",
            "non-prefetched original",
            "prefetched extra",
        ],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            pct(100.0 * r.prefetched_original),
            pct(100.0 * r.non_prefetched_original),
            pct(100.0 * r.prefetched_extra),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn fractions_sum_to_one_over_originals() {
        let picks: Vec<Benchmark> = suite()
            .into_iter()
            .filter(|b| ["art", "crafty"].contains(&b.name))
            .collect();
        let fig = run_with(&SweepEngine::new(), &picks, 150_000);
        for r in fig.tcp_8k.iter().chain(&fig.tcp_8m) {
            let originals = r.prefetched_original + r.non_prefetched_original;
            assert!(
                (originals - 1.0).abs() < 1e-9,
                "{}: originals must sum to 1",
                r.benchmark
            );
            assert!(r.prefetched_extra >= 0.0);
        }
    }

    #[test]
    fn correlated_benchmark_has_high_coverage() {
        let picks: Vec<Benchmark> = suite().into_iter().filter(|b| b.name == "art").collect();
        let fig = run_with(&SweepEngine::new(), &picks, 400_000);
        let art = &fig.tcp_8k[0];
        assert!(
            art.prefetched_original > 0.3,
            "TCP should capture a large share of art's L2 accesses, got {:.2}",
            art.prefetched_original
        );
    }
}
