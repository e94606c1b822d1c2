//! Event-driven out-of-order core timing model for the TCP reproduction.
//!
//! The paper evaluates prefetchers on a SimpleScalar 3.0 model of an
//! aggressive 8-issue out-of-order processor (Table 1): a 128-entry
//! register update unit, 128-entry load/store queue, 8 integer ALUs,
//! 3 integer multipliers, 6 FP ALUs, 2 FP multipliers, and 4 load/store
//! ports. This crate reproduces that machine's *timing behaviour* — how
//! the instruction window tolerates L2 hits but fills up and stalls on
//! main-memory misses — without interpreting an ISA: workloads supply
//! [`MicroOp`] streams with explicit data dependences, and [`SteppedCore`]
//! schedules them one at a time against the shared
//! [`tcp_cache::MemoryHierarchy`].
//!
//! # Examples
//!
//! ```
//! use tcp_cache::{HierarchyConfig, MemoryHierarchy, NullPrefetcher};
//! use tcp_cpu::{CoreConfig, MicroOp, SteppedCore};
//! use tcp_mem::Addr;
//!
//! let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
//! let mut core = SteppedCore::new(CoreConfig::default());
//! for i in 0..1000 {
//!     core.step(MicroOp::load(Addr::new(i * 4), Addr::new(i * 8)), &mut hierarchy);
//! }
//! assert!(core.snapshot().ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod uop;

pub use crate::core::{CoreConfig, CoreRun, SteppedCore};
pub use uop::{MicroOp, OpClass};
