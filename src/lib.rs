//! # tcp-repro — "TCP: Tag Correlating Prefetchers" (HPCA 2003), in Rust
//!
//! A full reproduction of Hu, Kaxiras & Martonosi's Tag Correlating
//! Prefetcher paper: the prefetcher itself, the machine it was evaluated
//! on, the comparison prefetchers, synthetic stand-ins for the SPEC
//! CPU2000 workloads, the trace-characterisation analyses of Section 3,
//! and a harness that regenerates every table and figure.
//!
//! This crate is the umbrella: it re-exports the workspace crates under
//! one roof so applications can depend on a single package.
//!
//! | Module | Source crate | Contents |
//! |---|---|---|
//! | [`mem`] | `tcp-mem` | addresses, tags, cache geometry |
//! | [`cache`] | `tcp-cache` | caches, buses, MSHRs, hierarchy, `Prefetcher` trait |
//! | [`cpu`] | `tcp-cpu` | out-of-order core timing model |
//! | [`workloads`] | `tcp-workloads` | 26 SPEC2000-like benchmark generators |
//! | [`core`] | `tcp-core` | **TCP**: THT, PHT, hybrid, dead-block predictor |
//! | [`baselines`] | `tcp-baselines` | DBCP, stride |
//! | [`analysis`] | `tcp-analysis` | miss-stream censuses (Figures 2–7, 15) |
//! | [`sim`] | `tcp-sim` | full-system runner (Table 1 machine) |
//! | [`experiments`] | `tcp-experiments` | per-figure regeneration harness |
//!
//! # Quickstart
//!
//! ```
//! use tcp_repro::core::{Tcp, TcpConfig};
//! use tcp_repro::sim::{run_benchmark, SystemConfig};
//! use tcp_repro::workloads::suite;
//!
//! let benchmarks = suite();
//! let ammp = benchmarks.iter().find(|b| b.name == "ammp").unwrap();
//! let result = run_benchmark(ammp, 50_000, &SystemConfig::table1(),
//!                            Box::new(Tcp::new(TcpConfig::tcp_8k())));
//! println!("ammp with TCP-8K: {:.3} IPC", result.ipc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tcp_analysis as analysis;
pub use tcp_baselines as baselines;
pub use tcp_cache as cache;
pub use tcp_core as core;
pub use tcp_cpu as cpu;
pub use tcp_experiments as experiments;
pub use tcp_mem as mem;
pub use tcp_sim as sim;
pub use tcp_workloads as workloads;
