//! Figure 1: potential IPC improvement with an ideal L2 data cache.

use crate::report::{pct, Table};
use crate::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_sim::{ipc_improvement, SystemConfig};
use tcp_workloads::Benchmark;

/// One benchmark's row of Figure 1.
#[derive(Clone, Debug)]
pub struct Fig01Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// IPC with every L2 access hitting.
    pub ideal_ipc: f64,
    /// Improvement in percent (the figure's y-axis).
    pub improvement_pct: f64,
}

/// Runs the limit study through `engine`, sharing its memo — the
/// no-prefetch Table 1 baselines here are the same simulations Figures
/// 11 and 14 need.
pub fn run_with(engine: &SweepEngine, benchmarks: &[Benchmark], n_ops: u64) -> Vec<Fig01Row> {
    let base_cfg = SystemConfig::table1();
    let ideal_cfg = SystemConfig::table1_ideal_l2();
    let jobs: Vec<Job> = benchmarks
        .iter()
        .flat_map(|b| {
            [
                Job::new(b, n_ops, &base_cfg, PrefetcherSpec::Null),
                Job::new(b, n_ops, &ideal_cfg, PrefetcherSpec::Null),
            ]
        })
        .collect();
    let results = engine.run(&jobs);
    benchmarks
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(b, pair)| {
            let (base, ideal) = (&pair[0], &pair[1]);
            Fig01Row {
                benchmark: b.name.to_owned(),
                base_ipc: base.ipc,
                ideal_ipc: ideal.ipc,
                improvement_pct: ipc_improvement(base, ideal),
            }
        })
        .collect()
}

/// Renders Figure 1 rows as a table (suite order = the paper's sort).
pub fn render(rows: &[Fig01Row]) -> Table {
    let mut t = Table::new(
        "Figure 1: Potential IPC improvement with an ideal L2 data cache",
        &["benchmark", "base IPC", "ideal-L2 IPC", "improvement"],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            format!("{:.3}", r.base_ipc),
            format!("{:.3}", r.ideal_ipc),
            pct(r.improvement_pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn improvement_is_nonnegative_and_ordering_holds_at_extremes() {
        let benches = suite();
        let picks: Vec<Benchmark> = benches
            .into_iter()
            .filter(|b| ["fma3d", "mcf"].contains(&b.name))
            .collect();
        let rows = run_with(&SweepEngine::new(), &picks, 120_000);
        let fma3d = rows.iter().find(|r| r.benchmark == "fma3d").unwrap();
        let mcf = rows.iter().find(|r| r.benchmark == "mcf").unwrap();
        assert!(
            fma3d.improvement_pct >= -2.0,
            "fma3d barely changes: {}",
            fma3d.improvement_pct
        );
        assert!(fma3d.improvement_pct < 40.0);
        assert!(
            mcf.improvement_pct > 100.0,
            "mcf is memory bound: {}",
            mcf.improvement_pct
        );
        assert!(mcf.improvement_pct > 3.0 * fma3d.improvement_pct.max(1.0));
    }

    #[test]
    fn render_includes_all_rows() {
        let rows = vec![Fig01Row {
            benchmark: "x".into(),
            base_ipc: 1.0,
            ideal_ipc: 2.0,
            improvement_pct: 100.0,
        }];
        let text = render(&rows).render();
        assert!(text.contains("100.0%"));
    }
}
