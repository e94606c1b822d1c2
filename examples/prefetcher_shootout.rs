//! Prefetcher shootout on a custom workload built from kernels.
//!
//! ```text
//! cargo run --release --example prefetcher_shootout [ops]
//! ```
//!
//! Shows how to assemble your own workload from the kernel library — here
//! a database-like mix of a repeating index chase and a table scan — and
//! race every prefetcher in the workspace on it: stride, DBCP, TCP-8K,
//! TCP-8M, and the hybrid.

use tcp_repro::baselines::{Dbcp, DbcpConfig, StrideConfig, StridePrefetcher};
use tcp_repro::cache::{NullPrefetcher, Prefetcher};
use tcp_repro::core::{DbpConfig, HybridTcp, Tcp, TcpConfig};
use tcp_repro::sim::{ipc_improvement, run_benchmark, SystemConfig};
use tcp_repro::workloads::{Benchmark, KernelSpec, WorkloadSpec};

fn custom_workload() -> Benchmark {
    let spec = WorkloadSpec::new(
        vec![
            // A B-tree-ish index chase: 2 MB of nodes in a stable order.
            (
                KernelSpec::PointerChase {
                    base: 0x0400_0000,
                    nodes: 32_768,
                    node_bytes: 64,
                    shuffle_seed: 2024,
                    noise_pct: 5,
                },
                2,
            ),
            // A table scan: 4 MB sequential.
            (
                KernelSpec::StridedSweep {
                    base: 0x0800_0000,
                    len: 4 << 20,
                    stride: 8,
                },
                1,
            ),
            // Hot metadata.
            (
                KernelSpec::HotCold {
                    base: 0x0C00_0000,
                    hot_len: 128 * 1024,
                    cold_len: 1 << 20,
                    hot_pct: 95,
                },
                1,
            ),
        ],
        7,
    )
    .with_compute_per_mem(2.0);
    Benchmark {
        name: "querydb",
        description: "index chase + table scan + hot metadata",
        spec,
    }
}

fn main() {
    let ops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let machine = SystemConfig::table1();
    let hybrid_machine = SystemConfig::table1_with_prefetch_bus();
    let bench = custom_workload();
    println!("workload: {} ({})\n", bench.name, bench.description);

    let base = run_benchmark(&bench, ops, &machine, Box::new(NullPrefetcher));
    println!(
        "{:<12} {:>8} {:>9} {:>11} {:>10}",
        "prefetcher", "IPC", "vs base", "storage", "coverage"
    );
    println!("{}", "-".repeat(55));
    println!(
        "{:<12} {:>8.4} {:>9} {:>11} {:>10}",
        "none", base.ipc, "-", "0", "-"
    );

    let entries: Vec<(Box<dyn Prefetcher>, &SystemConfig)> = vec![
        (
            Box::new(StridePrefetcher::new(StrideConfig::default())),
            &machine,
        ),
        (Box::new(Dbcp::new(DbcpConfig::dbcp_2m())), &machine),
        (Box::new(Tcp::new(TcpConfig::tcp_8k())), &machine),
        (Box::new(Tcp::new(TcpConfig::tcp_8m())), &machine),
        (
            Box::new(HybridTcp::new(TcpConfig::tcp_8k(), DbpConfig::default())),
            &hybrid_machine,
        ),
    ];
    for (engine, cfg) in entries {
        let name = engine.name().to_owned();
        let storage = engine.storage_bytes();
        let run = run_benchmark(&bench, ops, cfg, engine);
        let storage = if storage >= 1 << 20 {
            format!("{}MB", storage >> 20)
        } else if storage >= 1024 {
            format!("{}KB", storage >> 10)
        } else {
            format!("{storage}B")
        };
        println!(
            "{:<12} {:>8.4} {:>+8.1}% {:>11} {:>9.0}%",
            name,
            run.ipc,
            ipc_improvement(&base, &run),
            storage,
            run.stats.l2_breakdown.coverage() * 100.0,
        );
    }
}
