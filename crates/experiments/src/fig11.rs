//! Figure 11: IPC improvement of TCP-8K and TCP-8M versus DBCP with a
//! 2 MB correlation table — the paper's headline comparison.

use crate::report::{pct, Table};
use crate::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_baselines::DbcpConfig;
use tcp_core::TcpConfig;
use tcp_sim::{ipc_improvement, SystemConfig};
use tcp_workloads::Benchmark;

/// One benchmark's bars in Figure 11.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline (no prefetch) IPC.
    pub base_ipc: f64,
    /// DBCP-2M improvement over baseline, percent.
    pub dbcp_pct: f64,
    /// TCP-8K improvement over baseline, percent.
    pub tcp8k_pct: f64,
    /// TCP-8M improvement over baseline, percent.
    pub tcp8m_pct: f64,
}

/// The full figure: per-benchmark rows plus the geometric means.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// Per-benchmark results in suite order.
    pub rows: Vec<Fig11Row>,
    /// Geomean improvement of DBCP-2M (paper: ≈ 7%).
    pub geomean_dbcp_pct: f64,
    /// Geomean improvement of TCP-8K (paper: ≈ 14%).
    pub geomean_tcp8k_pct: f64,
    /// Geomean improvement of TCP-8M (paper: ≈ 15%).
    pub geomean_tcp8m_pct: f64,
}

/// Runs the comparison through `engine`, sharing its memo: the baseline
/// and TCP-8K/8M points here also feed Figures 1, 12, and 14.
pub fn run_with(engine: &SweepEngine, benchmarks: &[Benchmark], n_ops: u64) -> Fig11 {
    let cfg = SystemConfig::table1();
    let jobs: Vec<Job> = benchmarks
        .iter()
        .flat_map(|b| {
            [
                Job::new(b, n_ops, &cfg, PrefetcherSpec::Null),
                Job::new(b, n_ops, &cfg, PrefetcherSpec::Dbcp(DbcpConfig::dbcp_2m())),
                Job::new(b, n_ops, &cfg, PrefetcherSpec::Tcp(TcpConfig::tcp_8k())),
                Job::new(b, n_ops, &cfg, PrefetcherSpec::Tcp(TcpConfig::tcp_8m())),
            ]
        })
        .collect();
    let results = engine.run(&jobs);
    let mut rows = Vec::with_capacity(benchmarks.len());
    let mut ratios = (Vec::new(), Vec::new(), Vec::new());
    for (b, group) in benchmarks.iter().zip(results.chunks_exact(4)) {
        let (base, dbcp, t8k, t8m) = (&group[0], &group[1], &group[2], &group[3]);
        rows.push(Fig11Row {
            benchmark: b.name.to_owned(),
            base_ipc: base.ipc,
            dbcp_pct: ipc_improvement(base, dbcp),
            tcp8k_pct: ipc_improvement(base, t8k),
            tcp8m_pct: ipc_improvement(base, t8m),
        });
        ratios.0.push(dbcp.ipc / base.ipc);
        ratios.1.push(t8k.ipc / base.ipc);
        ratios.2.push(t8m.ipc / base.ipc);
    }
    let geo = |v: &[f64]| (tcp_analysis::geometric_mean(v) - 1.0) * 100.0;
    Fig11 {
        rows,
        geomean_dbcp_pct: geo(&ratios.0),
        geomean_tcp8k_pct: geo(&ratios.1),
        geomean_tcp8m_pct: geo(&ratios.2),
    }
}

/// Renders the figure as a table with a trailing geomean row.
pub fn render(fig: &Fig11) -> Table {
    let mut t = Table::new(
        "Figure 11: IPC improvement, TCP-8K / TCP-8M vs DBCP-2M",
        &["benchmark", "base IPC", "DBCP-2M", "TCP-8K", "TCP-8M"],
    );
    for r in &fig.rows {
        t.row(vec![
            r.benchmark.clone(),
            format!("{:.3}", r.base_ipc),
            pct(r.dbcp_pct),
            pct(r.tcp8k_pct),
            pct(r.tcp8m_pct),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        String::from("-"),
        pct(fig.geomean_dbcp_pct),
        pct(fig.geomean_tcp8k_pct),
        pct(fig.geomean_tcp8m_pct),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn tcp_beats_baseline_on_correlated_benchmarks() {
        let picks: Vec<Benchmark> = suite()
            .into_iter()
            .filter(|b| ["ammp", "art"].contains(&b.name))
            .collect();
        let fig = run_with(&SweepEngine::new(), &picks, 250_000);
        let ammp = fig.rows.iter().find(|r| r.benchmark == "ammp").unwrap();
        // ammp's chase retraverses within 250k ops; the private PHT learns.
        assert!(
            ammp.tcp8m_pct > 5.0,
            "ammp: TCP-8M should help, got {:.1}%",
            ammp.tcp8m_pct
        );
        let art = fig.rows.iter().find(|r| r.benchmark == "art").unwrap();
        // art's sequences are shared across sets, so the 8 KB shared PHT
        // predicts even before a full sweep finishes (TCP-8M needs a full
        // per-set pass and only catches up at larger scales).
        assert!(
            art.tcp8k_pct > 5.0,
            "art's shared patterns suit TCP-8K: {:.1}%",
            art.tcp8k_pct
        );
    }

    #[test]
    fn render_has_geomean_row() {
        let fig = Fig11 {
            rows: vec![],
            geomean_dbcp_pct: 7.0,
            geomean_tcp8k_pct: 14.0,
            geomean_tcp8m_pct: 15.0,
        };
        let text = render(&fig).render();
        assert!(text.contains("geomean"));
        assert!(text.contains("14.0%"));
    }
}
