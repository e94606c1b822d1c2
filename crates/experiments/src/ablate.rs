//! System-parameter ablations: how sensitive are the paper's conclusions
//! to machine parameters Table 1 fixes (or leaves unstated)?
//!
//! For each knob the sweep reports the no-prefetch baseline and TCP-8K
//! geomean IPC over a representative subset, so the *robustness of the
//! TCP win* — not just raw IPC — is visible per point.

use crate::report::{f, Table};
use crate::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_analysis::geometric_mean;
use tcp_core::TcpConfig;
use tcp_sim::SystemConfig;
use tcp_workloads::Benchmark;

/// One sweep point.
#[derive(Clone, Debug)]
pub struct AblatePoint {
    /// Knob label, e.g. `mshrs=16`.
    pub label: String,
    /// Geomean IPC without prefetching.
    pub base_ipc: f64,
    /// Geomean IPC with TCP-8K.
    pub tcp_ipc: f64,
}

impl AblatePoint {
    /// TCP-8K improvement at this point, percent.
    pub fn improvement_pct(&self) -> f64 {
        (self.tcp_ipc / self.base_ipc - 1.0) * 100.0
    }
}

/// A named sweep over one machine parameter.
#[derive(Clone, Debug)]
pub struct AblateSweep {
    /// Parameter name.
    pub knob: &'static str,
    /// Sweep points in order.
    pub points: Vec<AblatePoint>,
}

/// One planned sweep point: which knob group it belongs to, its label,
/// and the machine it measures.
struct PlannedPoint {
    knob: &'static str,
    label: String,
    cfg: SystemConfig,
}

/// Plans all six sweeps: MSHR count, memory-bus occupancy, prefetch
/// buffer depth, branch-mispredict rate, victim-cache size, and L2
/// replacement policy.
fn plan() -> Vec<PlannedPoint> {
    let mut points = Vec::new();
    let mut point = |knob, label: String, cfg| points.push(PlannedPoint { knob, label, cfg });

    for mshrs in [4usize, 16, 64] {
        let mut cfg = SystemConfig::table1();
        cfg.hierarchy.l1_mshrs = mshrs;
        point("L1 MSHRs", format!("mshrs={mshrs}"), cfg);
    }
    for cycles in [2u64, 4, 8, 16] {
        let mut cfg = SystemConfig::table1();
        cfg.hierarchy.mem_bus_cycles = cycles;
        point(
            "memory bus occupancy / line",
            format!("mem_bus={cycles}cyc"),
            cfg,
        );
    }
    for buf in [8usize, 32, 64] {
        let mut cfg = SystemConfig::table1();
        cfg.hierarchy.prefetch_buffer = buf;
        point("in-flight prefetch budget", format!("pf_buffer={buf}"), cfg);
    }
    for pct in [0u8, 5, 10] {
        let mut cfg = SystemConfig::table1();
        cfg.core.branch_mispredict_pct = pct;
        point("branch mispredict rate", format!("mispredict={pct}%"), cfg);
    }
    for vc in [None, Some(8usize), Some(32)] {
        let mut cfg = SystemConfig::table1();
        cfg.hierarchy.victim_cache_entries = vc;
        let label = match vc {
            None => "victim=off".to_owned(),
            Some(n) => format!("victim={n}"),
        };
        point("victim cache (Jouppi)", label, cfg);
    }
    for (name, policy) in [
        ("lru", tcp_cache::Replacement::Lru),
        ("tree-plru", tcp_cache::Replacement::TreePlru),
        ("random", tcp_cache::Replacement::random(7)),
    ] {
        let mut cfg = SystemConfig::table1();
        cfg.hierarchy.l2_replacement = policy;
        point("L2 replacement policy", format!("l2={name}"), cfg);
    }
    points
}

/// Runs all six sweeps through `engine` as one batch: every
/// (point × benchmark × {baseline, TCP-8K}) simulation fans out across
/// the executor's workers together — the Table 1 points that repeat
/// across knob sweeps (e.g. `mshrs=64` *is* Table 1) dedup in the memo.
pub fn run_with(engine: &SweepEngine, benches: &[Benchmark], n_ops: u64) -> Vec<AblateSweep> {
    let planned = plan();
    let jobs: Vec<Job> =
        planned
            .iter()
            .flat_map(|p| {
                benches
                    .iter()
                    .map(|b| Job::new(b, n_ops, &p.cfg, PrefetcherSpec::Null))
                    .chain(benches.iter().map(|b| {
                        Job::new(b, n_ops, &p.cfg, PrefetcherSpec::Tcp(TcpConfig::tcp_8k()))
                    }))
            })
            .collect();
    let results = engine.run(&jobs);
    let mut sweeps: Vec<AblateSweep> = Vec::new();
    for (p, group) in planned.iter().zip(results.chunks_exact(2 * benches.len())) {
        let ipcs =
            |runs: &[tcp_sim::RunResult]| -> Vec<f64> { runs.iter().map(|r| r.ipc).collect() };
        let point = AblatePoint {
            label: p.label.clone(),
            base_ipc: geometric_mean(&ipcs(&group[..benches.len()])),
            tcp_ipc: geometric_mean(&ipcs(&group[benches.len()..])),
        };
        match sweeps.last_mut() {
            Some(s) if s.knob == p.knob => s.points.push(point),
            _ => sweeps.push(AblateSweep {
                knob: p.knob,
                points: vec![point],
            }),
        }
    }
    sweeps
}

/// Renders one sweep.
pub fn render(sweep: &AblateSweep) -> Table {
    let mut t = Table::new(
        &format!("Ablation: {}", sweep.knob),
        &["point", "base IPC", "TCP-8K IPC", "TCP gain"],
    );
    for p in &sweep.points {
        t.row(vec![
            p.label.clone(),
            f(p.base_ipc, 4),
            f(p.tcp_ipc, 4),
            format!("{:+.1}%", p.improvement_pct()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn sweeps_cover_all_knobs_and_points() {
        let benches: Vec<Benchmark> = suite().into_iter().filter(|b| b.name == "art").collect();
        let sweeps = run_with(&SweepEngine::new(), &benches, 60_000);
        assert_eq!(sweeps.len(), 6);
        assert_eq!(sweeps[0].points.len(), 3);
        assert_eq!(sweeps[1].points.len(), 4);
        for s in &sweeps {
            for p in &s.points {
                assert!(p.base_ipc > 0.0 && p.tcp_ipc > 0.0, "{}: {:?}", s.knob, p);
            }
            assert!(!render(s).render().is_empty());
        }
    }

    #[test]
    fn fewer_mshrs_never_help_the_baseline() {
        let benches: Vec<Benchmark> = suite().into_iter().filter(|b| b.name == "swim").collect();
        let sweeps = run_with(&SweepEngine::new(), &benches, 120_000);
        let mshr = &sweeps[0].points;
        assert!(
            mshr[0].base_ipc <= mshr[2].base_ipc * 1.02,
            "4 MSHRs ({:.3}) must not beat 64 ({:.3})",
            mshr[0].base_ipc,
            mshr[2].base_ipc
        );
    }
}
