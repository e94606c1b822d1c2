//! Baseline prefetchers TCP is compared against (Sections 5 & 7).
//!
//! * [`Dbcp`] — the Dead-Block Correlating Prefetcher of Lai, Fide &
//!   Falsafi (ISCA 2001), the paper's headline comparator at 2 MB
//!   (Figure 11). DBCP correlates the *PC trace* a cache block
//!   accumulates between fill and death with the address that next
//!   enters the block's frame; when a live block's trace matches a
//!   learned death signature, the block is predicted dead and the
//!   correlated successor is prefetched.
//! * [`StridePrefetcher`] — a PC-indexed reference-prediction table in
//!   the style of Baer & Chen (Supercomputing '91), the address-pattern
//!   point of reference in `all inspect`'s prefetcher comparison.
//!
//! Both engines implement [`tcp_cache::Prefetcher`], observe the same L1
//! miss stream as TCP, and prefetch into the L2, so Figure 11-style
//! comparisons are apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dbcp;
mod stride;

pub use dbcp::{Dbcp, DbcpConfig};
pub use stride::{StrideConfig, StridePrefetcher};
