//! Section 6 extensions: the paper's future-work directions, implemented
//! and measured.
//!
//! * **Strided sequences** — a per-set stride fast path
//!   ([`tcp_core::StrideAugmentedTcp`]) serves strided tag sequences from
//!   three small fields per set, sparing the PHT; the interesting
//!   question is how small the PHT can get before losing to plain
//!   TCP-8K.
//! * **Multiple prefetch targets** — Markov-style entries holding two
//!   successors (`PhtConfig::targets = 2`), trading extra traffic for
//!   accuracy exactly as the paper anticipates.

use crate::report::{pct, Table};
use crate::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_core::{PhtConfig, TcpConfig};
use tcp_sim::{ipc_improvement, SystemConfig};
use tcp_workloads::Benchmark;

/// One benchmark's improvements under each extension.
#[derive(Clone, Debug)]
pub struct Sec6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Plain TCP-8K (the baseline design).
    pub tcp8k_pct: f64,
    /// Plain TCP with only a 2 KB PHT.
    pub tcp2k_pct: f64,
    /// Stride-augmented TCP with the 2 KB PHT.
    pub strided2k_pct: f64,
    /// TCP-8K with two targets per entry (16 KB of PHT storage).
    pub multi_target_pct: f64,
}

/// Runs the comparison through `engine`, sharing the no-prefetch baseline
/// and TCP-8K points with the main figures.
pub fn run_with(engine: &SweepEngine, benchmarks: &[Benchmark], n_ops: u64) -> Vec<Sec6Row> {
    let machine = SystemConfig::table1();
    let two_target = TcpConfig {
        pht: PhtConfig {
            targets: 2,
            ..PhtConfig::pht_8k()
        },
        ..TcpConfig::tcp_8k()
    };
    let tcp_2k = TcpConfig::with_pht_bytes(2 * 1024, 0);
    let jobs: Vec<Job> = benchmarks
        .iter()
        .flat_map(|b| {
            [
                Job::new(b, n_ops, &machine, PrefetcherSpec::Null),
                Job::new(b, n_ops, &machine, PrefetcherSpec::Tcp(TcpConfig::tcp_8k())),
                Job::new(b, n_ops, &machine, PrefetcherSpec::Tcp(tcp_2k)),
                Job::new(b, n_ops, &machine, PrefetcherSpec::StrideTcp(tcp_2k)),
                Job::new(b, n_ops, &machine, PrefetcherSpec::Tcp(two_target)),
            ]
        })
        .collect();
    let results = engine.run(&jobs);
    benchmarks
        .iter()
        .zip(results.chunks_exact(5))
        .map(|(b, group)| {
            let base = &group[0];
            Sec6Row {
                benchmark: b.name.to_owned(),
                tcp8k_pct: ipc_improvement(base, &group[1]),
                tcp2k_pct: ipc_improvement(base, &group[2]),
                strided2k_pct: ipc_improvement(base, &group[3]),
                multi_target_pct: ipc_improvement(base, &group[4]),
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(rows: &[Sec6Row]) -> Table {
    let mut t = Table::new(
        "Section 6 extensions: stride fast path and multi-target entries",
        &[
            "benchmark",
            "TCP-8K",
            "TCP-2K",
            "TCP-2K+stride",
            "TCP-8K x2 targets",
        ],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            pct(r.tcp8k_pct),
            pct(r.tcp2k_pct),
            pct(r.strided2k_pct),
            pct(r.multi_target_pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn stride_fast_path_rescues_a_small_pht_on_strided_workload() {
        // mgrid's column walk is stride-heavy: with only 2 KB of PHT the
        // stride path should not lose to the plain 2 KB TCP.
        let picks: Vec<Benchmark> = suite().into_iter().filter(|b| b.name == "mgrid").collect();
        let rows = run_with(&SweepEngine::new(), &picks, 400_000);
        let r = &rows[0];
        assert!(
            r.strided2k_pct >= r.tcp2k_pct - 2.0,
            "stride augmentation should not lose: {:.1}% vs {:.1}%",
            r.strided2k_pct,
            r.tcp2k_pct
        );
    }

    #[test]
    fn multi_target_runs_and_reports() {
        let picks: Vec<Benchmark> = suite().into_iter().filter(|b| b.name == "art").collect();
        let rows = run_with(&SweepEngine::new(), &picks, 200_000);
        assert_eq!(rows.len(), 1);
        let text = render(&rows).render();
        assert!(text.contains("art"));
    }
}
