//! Figure 13: average SPEC2000 IPC as a function of PHT size (top) and
//! of the number of miss-index bits in the PHT index (bottom).

use crate::report::{f, Table};
use crate::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_core::TcpConfig;
use tcp_sim::{RunResult, SystemConfig};
use tcp_workloads::Benchmark;

/// One point of the PHT-size sweep.
#[derive(Clone, Debug)]
pub struct SizePoint {
    /// PHT bytes.
    pub pht_bytes: usize,
    /// Geomean IPC with no miss-index bits (shared PHT).
    pub ipc_shared: f64,
    /// Geomean IPC with the full miss index (private PHT).
    pub ipc_full_index: f64,
}

/// One point of the miss-index-bit sweep at 8 KB.
#[derive(Clone, Debug)]
pub struct IndexBitsPoint {
    /// Miss-index bits mixed into the PHT index.
    pub bits: u32,
    /// Geomean IPC.
    pub ipc: f64,
}

/// Both panels of Figure 13.
#[derive(Clone, Debug)]
pub struct Fig13 {
    /// Top: PHT sizes 2 KB … 8 MB, shared vs full-index.
    pub sizes: Vec<SizePoint>,
    /// Bottom: 0–3 miss-index bits at 8 KB.
    pub index_bits: Vec<IndexBitsPoint>,
}

/// The paper's size axis.
pub const SIZES: [usize; 7] = [
    2 * 1024,
    8 * 1024,
    32 * 1024,
    128 * 1024,
    512 * 1024,
    2 * 1024 * 1024,
    8 * 1024 * 1024,
];

fn full_index_bits(bytes: usize) -> u32 {
    // "Full miss index" uses all 10 bits when the table is big enough;
    // smaller tables clamp to their own index width.
    let sets = (bytes / 32) as u32; // 8-way × 4-byte entries
    sets.trailing_zeros().min(10)
}

/// Geometric-mean IPC of one configuration's chunk of suite results,
/// defined only for a non-empty chunk of positive, finite IPCs.
fn geomean_of(runs: &[RunResult]) -> f64 {
    let ipcs: Vec<f64> = runs.iter().map(|r| r.ipc).collect();
    if ipcs.is_empty() || ipcs.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
        // tcp-lint: allow(panic-in-library) — harness invariant: shipped benchmarks on the Table 1 machine always produce positive finite IPC
        panic!("Figure 13 sweeps run shipped benchmarks on the Table 1 machine");
    }
    let log_sum: f64 = ipcs.iter().map(|v| v.ln()).sum();
    (log_sum / ipcs.len() as f64).exp()
}

#[cfg(test)]
fn geomean_ipc(benchmarks: &[Benchmark], n_ops: u64, cfg: TcpConfig) -> f64 {
    let sys = SystemConfig::table1();
    let jobs: Vec<Job> = benchmarks
        .iter()
        .map(|b| Job::new(b, n_ops, &sys, PrefetcherSpec::Tcp(cfg)))
        .collect();
    geomean_of(&SweepEngine::new().run(&jobs))
}

/// Runs both sweeps on a fresh engine.
pub fn run(benchmarks: &[Benchmark], n_ops: u64) -> Fig13 {
    run_with(&SweepEngine::new(), benchmarks, n_ops)
}

/// Runs both sweeps through `engine` as **one** batch: every PHT
/// configuration of both panels fans out together, so the work-stealing
/// pool crosses configuration boundaries without a join barrier per
/// point (the bottom panel's 8 KB point also dedups against the top
/// panel's when the index widths coincide).
pub fn run_with(engine: &SweepEngine, benchmarks: &[Benchmark], n_ops: u64) -> Fig13 {
    let sys = SystemConfig::table1();
    let size_configs: Vec<TcpConfig> = SIZES
        .iter()
        .flat_map(|&bytes| {
            [
                TcpConfig::with_pht_bytes(bytes, 0),
                TcpConfig::with_pht_bytes(bytes, full_index_bits(bytes)),
            ]
        })
        .collect();
    let bit_configs: Vec<TcpConfig> = (0..=3u32)
        .map(|bits| TcpConfig::with_pht_bytes(8 * 1024, bits))
        .collect();
    let jobs: Vec<Job> = size_configs
        .iter()
        .chain(&bit_configs)
        .flat_map(|cfg| {
            benchmarks
                .iter()
                .map(|b| Job::new(b, n_ops, &sys, PrefetcherSpec::Tcp(*cfg)))
        })
        .collect();
    let results = engine.run(&jobs);
    let mut chunks = results.chunks_exact(benchmarks.len());
    let sizes = SIZES
        .iter()
        .map(|&bytes| SizePoint {
            pht_bytes: bytes,
            ipc_shared: geomean_of(chunks.next().unwrap_or_default()),
            ipc_full_index: geomean_of(chunks.next().unwrap_or_default()),
        })
        .collect();
    let index_bits = (0..=3u32)
        .map(|bits| IndexBitsPoint {
            bits,
            ipc: geomean_of(chunks.next().unwrap_or_default()),
        })
        .collect();
    Fig13 { sizes, index_bits }
}

/// Renders the size sweep (top panel).
pub fn render_sizes(fig: &Fig13) -> Table {
    let mut t = Table::new(
        "Figure 13 (top): geomean IPC vs PHT size",
        &[
            "PHT size",
            "IPC (0 miss-index bits)",
            "IPC (full miss index)",
        ],
    );
    for p in &fig.sizes {
        let label = if p.pht_bytes >= 1024 * 1024 {
            format!("{}MB", p.pht_bytes / (1024 * 1024))
        } else {
            format!("{}KB", p.pht_bytes / 1024)
        };
        t.row(vec![label, f(p.ipc_shared, 4), f(p.ipc_full_index, 4)]);
    }
    t
}

/// Renders the miss-index-bit sweep (bottom panel).
pub fn render_index_bits(fig: &Fig13) -> Table {
    let mut t = Table::new(
        "Figure 13 (bottom): geomean IPC vs miss-index bits (8KB PHT)",
        &["miss-index bits", "IPC"],
    );
    for p in &fig.index_bits {
        t.row(vec![p.bits.to_string(), f(p.ipc, 4)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn full_index_bits_clamp() {
        assert_eq!(full_index_bits(8 * 1024 * 1024), 10);
        assert_eq!(full_index_bits(2 * 1024), 6);
    }

    #[test]
    fn bigger_shared_pht_is_not_worse_on_pattern_heavy_benchmark() {
        // On a pattern-rich subset, an 8 KB shared PHT must beat a 2 KB
        // one (the paper's "quadrupling 2KB → 8KB gains 6%").
        let picks: Vec<Benchmark> = suite()
            .into_iter()
            .filter(|b| ["ammp", "gcc"].contains(&b.name))
            .collect();
        let small = geomean_ipc(&picks, 250_000, TcpConfig::with_pht_bytes(2 * 1024, 0));
        let big = geomean_ipc(&picks, 250_000, TcpConfig::with_pht_bytes(32 * 1024, 0));
        assert!(
            big >= small * 0.98,
            "larger PHT should not lose: {small} vs {big}"
        );
    }
}
