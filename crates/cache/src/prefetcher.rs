//! The interface between the memory hierarchy and prefetch engines.
//!
//! The paper positions the prefetcher between the L1 data cache and the
//! L2 (Figure 10): it observes the L1 *miss* stream and issues prefetches
//! that fill the L2 (and, in the hybrid design of Section 5.2.2, the L1
//! once the resident line is predicted dead). This module defines that
//! contract; `tcp-core` implements TCP against it and `tcp-baselines`
//! implements the DBCP and stride comparators.

use tcp_mem::{LineAddr, MemAccess, SetIndex, Tag};

/// Everything a prefetcher may observe about one L1 data-cache miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1MissInfo {
    /// The demand access that missed (PC, address, load/store).
    pub access: MemAccess,
    /// L1-geometry line address of the miss.
    pub line: LineAddr,
    /// L1 tag of the miss address — TCP's raw material.
    pub tag: Tag,
    /// L1 set index of the miss address.
    pub set: SetIndex,
    /// Cycle at which the miss was detected.
    pub cycle: u64,
}

/// Where a prefetched line should land.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetchTarget {
    /// Fill the L2 only — the paper's default placement, which cannot
    /// pollute the small L1.
    L2,
    /// Fill the L2 and then promote into the L1 (hybrid design; used only
    /// when a dead-block predictor says the victim frame is dead).
    L1,
}

/// A prefetch request emitted by a prefetcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// L1-geometry line address to prefetch.
    pub line: LineAddr,
    /// Destination level.
    pub target: PrefetchTarget,
}

impl PrefetchRequest {
    /// A request targeting the L2 (the common case).
    pub const fn to_l2(line: LineAddr) -> Self {
        PrefetchRequest {
            line,
            target: PrefetchTarget::L2,
        }
    }

    /// A request that also promotes into the L1.
    pub const fn to_l1(line: LineAddr) -> Self {
        PrefetchRequest {
            line,
            target: PrefetchTarget::L1,
        }
    }
}

/// A hardware prefetch engine observing the L1 data-cache reference stream.
///
/// Implementations push zero or more [`PrefetchRequest`]s into `out` on
/// each primary L1 miss. Hit and eviction callbacks exist for predictors
/// that track per-line liveness (the timekeeping dead-block predictor) or
/// per-line PC traces (DBCP); pure miss-stream prefetchers like TCP ignore
/// them.
pub trait Prefetcher {
    /// Short engine name, e.g. `"TCP-8K"`.
    fn name(&self) -> &str;

    /// Total prediction-table storage in bytes (history + pattern tables),
    /// the cost metric the paper compares designs by.
    fn storage_bytes(&self) -> usize;

    /// Called on every primary L1 data-cache miss.
    fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>);

    /// Called on every L1 data-cache hit. Default: ignored. Engines that
    /// predict mid-generation (e.g. DBCP's dead-block signatures complete
    /// on a hit) may push prefetch requests into `out`.
    fn on_hit(
        &mut self,
        _access: &MemAccess,
        _line: LineAddr,
        _cycle: u64,
        _out: &mut Vec<PrefetchRequest>,
    ) {
    }

    /// Called on the *first demand use* of a line that a prefetch
    /// promoted into the L1. Without promotion this access would have
    /// been an L1 miss, so history-based engines treat it as a virtual
    /// miss to keep their prediction cascade rolling (the L1's
    /// prefetched bit makes this observable in hardware). Default:
    /// ignored.
    fn on_promoted_first_use(&mut self, _info: &L1MissInfo, _out: &mut Vec<PrefetchRequest>) {}

    /// Called when the L1 evicts a line. Default: ignored.
    fn on_l1_evict(&mut self, _line: LineAddr, _cycle: u64) {}

    /// Called when the L1 fills a line (demand or prefetch promotion).
    /// Default: ignored.
    fn on_l1_fill(&mut self, _line: LineAddr, _cycle: u64) {}

    /// `false` promises every callback is a no-op, letting the hierarchy
    /// skip virtual dispatch and request-buffer bookkeeping on its hot
    /// paths (the no-prefetch baseline runs every access). Default:
    /// `true`. Only override to return a constant `false`; the hierarchy
    /// caches the answer at construction.
    fn is_active(&self) -> bool {
        true
    }
}

/// A prefetcher that never prefetches: the no-prefetch baseline.
///
/// # Examples
///
/// ```
/// use tcp_cache::{NullPrefetcher, Prefetcher};
/// assert_eq!(NullPrefetcher.name(), "none");
/// assert_eq!(NullPrefetcher.storage_bytes(), 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullPrefetcher;

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &str {
        "none"
    }

    fn storage_bytes(&self) -> usize {
        0
    }

    fn on_miss(&mut self, _info: &L1MissInfo, _out: &mut Vec<PrefetchRequest>) {}

    fn is_active(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_mem::Addr;

    #[test]
    fn null_prefetcher_emits_nothing() {
        let mut p = NullPrefetcher;
        let mut out = Vec::new();
        let info = L1MissInfo {
            access: MemAccess::load(Addr::new(0), Addr::new(0x40)),
            line: LineAddr::from_line_number(2),
            tag: Tag::new(0),
            set: SetIndex::new(2),
            cycle: 0,
        };
        p.on_miss(&info, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn request_constructors_set_target() {
        let l = LineAddr::from_line_number(9);
        assert_eq!(PrefetchRequest::to_l2(l).target, PrefetchTarget::L2);
        assert_eq!(PrefetchRequest::to_l1(l).target, PrefetchTarget::L1);
    }

    #[test]
    fn prefetcher_is_object_safe() {
        let b: Box<dyn Prefetcher> = Box::new(NullPrefetcher);
        assert_eq!(b.name(), "none");
    }
}
