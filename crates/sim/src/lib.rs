//! Full-system simulation: the Table 1 machine assembled end to end.
//!
//! This crate wires the out-of-order core (`tcp-cpu`), the memory
//! hierarchy (`tcp-cache`), a prefetch engine (TCP from `tcp-core` or a
//! baseline from `tcp-baselines`), and a workload (`tcp-workloads`) into
//! one run. Batches of runs (Figures 1 and 11–14) are the experiment
//! harness's sweep engine, built on the runners here.
//!
//! Every run goes through one driver, [`Session`]: a validated machine, a
//! stepped core over its hierarchy, the warm-up boundary, and an
//! always-on [`Watchdog`], fed by the workload generator or by trace
//! records. The runners below and the [`stream`] replays are thin
//! constructors over it.
//!
//! # Fault tolerance
//!
//! The runner comes in two tiers. The classic functions
//! ([`run_benchmark`], [`ipc_improvement`]) panic on bad input, which is
//! right for the experiment harness where every configuration is shipped
//! and known-good. The checked tier ([`try_run_benchmark`],
//! [`try_ipc_improvement`]) returns the same failures — an invalid
//! machine ([`SystemConfig::validate`]) or a run the [`Watchdog`] found
//! wedged — as typed [`SimError`]s. The sweep engine's job runner builds
//! on the checked tier and adds the panic boundary, so a degenerate
//! workload becomes one failed job's [`RunError::Panicked`] verdict while
//! the rest of the batch completes. The [`faults`] module provides
//! deliberately broken inputs for exercising all of this.
//!
//! # Examples
//!
//! ```
//! use tcp_sim::{run_benchmark, SystemConfig};
//! use tcp_cache::NullPrefetcher;
//! use tcp_workloads::suite;
//!
//! let bench = &suite()[0]; // fma3d
//! let result = run_benchmark(bench, 20_000, &SystemConfig::table1(), Box::new(NullPrefetcher));
//! assert!(result.ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
pub mod faults;
mod runner;
mod session;
pub mod stream;

pub use config::SystemConfig;
pub use error::{ConfigError, RunError, SimError, TraceError};
pub use runner::{
    ipc_improvement, run_benchmark, try_ipc_improvement, try_run_benchmark, RunResult,
};
pub use session::{Session, Watchdog};
