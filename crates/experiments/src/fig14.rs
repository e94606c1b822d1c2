//! Figure 14: prefetching into L2 only (TCP-8K) versus the hybrid that
//! also promotes into L1 under dead-block prediction (Hybrid-8K).

use crate::report::{pct, Table};
use crate::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_core::{DbpConfig, TcpConfig};
use tcp_sim::{ipc_improvement, SystemConfig};
use tcp_workloads::Benchmark;

/// One benchmark's pair of bars.
#[derive(Clone, Debug)]
pub struct Fig14Row {
    /// Benchmark name.
    pub benchmark: String,
    /// TCP-8K improvement over no-prefetch, percent.
    pub tcp8k_pct: f64,
    /// Hybrid-8K improvement over no-prefetch, percent.
    pub hybrid_pct: f64,
}

/// Runs the comparison through `engine` — the baseline and TCP-8K points
/// are shared with Figures 1 and 11 when the engine is.
pub fn run_with(engine: &SweepEngine, benchmarks: &[Benchmark], n_ops: u64) -> Vec<Fig14Row> {
    let base_cfg = SystemConfig::table1();
    let hybrid_cfg = SystemConfig::table1_with_prefetch_bus();
    let jobs: Vec<Job> = benchmarks
        .iter()
        .flat_map(|b| {
            [
                Job::new(b, n_ops, &base_cfg, PrefetcherSpec::Null),
                Job::new(
                    b,
                    n_ops,
                    &base_cfg,
                    PrefetcherSpec::Tcp(TcpConfig::tcp_8k()),
                ),
                Job::new(
                    b,
                    n_ops,
                    &hybrid_cfg,
                    PrefetcherSpec::HybridTcp(TcpConfig::tcp_8k(), DbpConfig::default()),
                ),
            ]
        })
        .collect();
    let results = engine.run(&jobs);
    benchmarks
        .iter()
        .zip(results.chunks_exact(3))
        .map(|(b, group)| {
            let (base, tcp, hybrid) = (&group[0], &group[1], &group[2]);
            Fig14Row {
                benchmark: b.name.to_owned(),
                tcp8k_pct: ipc_improvement(base, tcp),
                hybrid_pct: ipc_improvement(base, hybrid),
            }
        })
        .collect()
}

/// Renders the figure.
pub fn render(rows: &[Fig14Row]) -> Table {
    let mut t = Table::new(
        "Figure 14: prefetching into L2 (TCP-8K) vs into L1 (Hybrid-8K)",
        &["benchmark", "TCP-8K", "Hybrid-8K"],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            pct(r.tcp8k_pct),
            pct(r.hybrid_pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn hybrid_runs_and_does_not_collapse() {
        let picks: Vec<Benchmark> = suite().into_iter().filter(|b| b.name == "art").collect();
        let rows = run_with(&SweepEngine::new(), &picks, 250_000);
        let art = &rows[0];
        assert!(
            art.tcp8k_pct > 0.0,
            "TCP-8K helps art: {:.1}%",
            art.tcp8k_pct
        );
        // The hybrid may help more or less, but must not destroy the gain.
        assert!(
            art.hybrid_pct > art.tcp8k_pct * 0.5,
            "hybrid must not wreck performance: tcp {:.1}% hybrid {:.1}%",
            art.tcp8k_pct,
            art.hybrid_pct
        );
    }
}
