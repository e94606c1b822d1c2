//! Miss-trace characterisation: the measurements behind Figures 2–7 and
//! 15 of the paper.
//!
//! Section 3 of the paper motivates tag correlation by profiling the L1
//! data-cache *miss stream* of a 32 KB direct-mapped cache: how many
//! unique tags and addresses appear (Figures 2–3), how far tags spread
//! across sets versus recur within one set (Figure 4), how repetitive
//! per-set three-tag sequences are and how widely they are shared between
//! sets (Figures 5–7), and what fraction of sequences are strided
//! (Figure 15). This crate reproduces those measurements:
//!
//! * [`miss_stream`] — run a reference stream through a functional L1 and
//!   yield one [`MissRecord`] per primary miss;
//! * [`TagCensus`] / [`AddressCensus`] — unique counts and recurrences;
//! * [`TagSpread`] — per-tag set spread vs within-set recurrence;
//! * [`SequenceCensus`] — per-set k-tag sequence statistics, including
//!   the strided fraction;
//! * [`geometric_mean`] — the suite-level aggregation the paper uses.
//!
//! # Examples
//!
//! ```
//! use tcp_analysis::{miss_stream, TagCensus};
//! use tcp_mem::{Addr, CacheGeometry, MemAccess};
//!
//! let l1 = CacheGeometry::new(32 * 1024, 32, 1);
//! let accesses = (0..10_000u64).map(|i| MemAccess::load(Addr::new(0x400), Addr::new((i * 64) % (1 << 22))));
//! let mut census = TagCensus::new();
//! for miss in miss_stream(l1, accesses) {
//!     census.observe_tag(miss.tag);
//! }
//! assert!(census.unique() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod census;
mod histogram;
mod rows;
mod sequences;
mod stream;
mod summary;
mod trace_io;
mod trace_stream;

pub use census::{AddressCensus, TagCensus, TagSpread};
pub use histogram::HistogramLog2;
pub use sequences::SequenceCensus;
pub use stream::{miss_stream, MissRecord, MissStream};
pub use summary::{geometric_mean, mean};
pub use trace_io::{read_trace, write_trace, TraceError};
pub use trace_stream::{TraceChunk, TraceReader, TraceStream, STREAM_CHUNK};
