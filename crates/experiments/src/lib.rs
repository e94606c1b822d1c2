//! Experiment harness: one module per table and figure of "TCP: Tag
//! Correlating Prefetchers" (HPCA 2003), all printed by one binary, `all`.
//!
//! | Paper artefact | Module | `all` selector |
//! |---|---|---|
//! | Table 1 (machine config) | [`table1`] | `table1` |
//! | Figure 1 (ideal-L2 potential) | [`fig01`] | `fig01` |
//! | Figures 2–4 (tag/address censuses) | [`characterize`] | `fig02`–`fig04` |
//! | Figures 5–7 (sequence censuses) | [`characterize`] | `fig05`–`fig07` |
//! | Figure 9 (PHT indexing walkthrough) | [`fig09`] | `fig09` |
//! | Figure 11 (TCP vs DBCP IPC) | [`fig11`] | `fig11` |
//! | Figure 12 (L2 access breakdown) | [`fig12`] | `fig12` |
//! | Figure 13 (PHT size / index sweep) | [`fig13`] | `fig13` |
//! | Figure 14 (prefetching into L1) | [`fig14`] | `fig14` |
//! | Figure 15 (strided sequences) | [`characterize`] | `fig15` |
//! | Section 6 extensions (beyond the paper) | [`sec6`] | `sec6` |
//! | System-parameter ablations (beyond the paper) | [`ablate`] | `ablate` |
//! | One-benchmark deep dive | [`characterize`], `tcp_sim` | `inspect [BENCH]` |
//!
//! `all` with no selector runs Table 1 and Figures 1–15 on one shared
//! [`sweep::SweepEngine`]. The `TCP_REPRO_OPS` environment variable sets
//! the simulated micro-ops per benchmark (see [`scale`]); `all` exits 2
//! when it is set but is not a positive integer. Results print as
//! aligned text tables mirroring the paper's axes and are also written
//! as CSV under `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod characterize;
pub mod fig01;
pub mod fig09;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod plot;
pub mod report;
pub mod scale;
pub mod sec6;
pub mod store;
pub mod sweep;
pub mod table1;
