//! A functional set-associative cache with per-line prefetch metadata.
//!
//! Timing is owned by [`crate::MemoryHierarchy`]; this type answers the
//! purely structural questions — is the line present, which line gets
//! evicted, which lines were prefetched but never demanded.
//!
//! The storage is struct-of-arrays: each set's way tags sit in one
//! contiguous `u64` row probed by the chunked [`kernels::find_tag`]
//! kernel, occupancy is one bitmask per set (empty-way selection is a
//! single `trailing_zeros`), and the flag byte and the recency-stamp
//! plane are separate parallel arrays so a probe touches only the bytes
//! it needs. The cache keeps no cycle stamps: timing lives in the
//! hierarchy's in-flight fills, and replacement needs only the
//! last-access order stamps. The fill path is one fused probe →
//! empty-way → victim-select pass over those rows. [`LineMeta`]
//! remains the external view, assembled on demand.

use crate::{kernels, Replacement};
use tcp_mem::{CacheGeometry, LineAddr, SetIndex, Tag};

/// Metadata kept for each resident cache line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineMeta {
    /// Tag of the resident line.
    pub tag: Tag,
    /// Line has been written and must be written back on eviction.
    pub dirty: bool,
    /// Line was brought in by a prefetch rather than a demand fetch.
    pub prefetched: bool,
    /// Line has serviced at least one demand access since fill.
    pub demanded: bool,
}

/// A line pushed out of the cache by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the victim.
    pub line: LineAddr,
    /// Victim metadata at eviction time.
    pub meta: LineMeta,
}

/// Outcome of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident. `first_demand_of_prefetch` is `true` when
    /// this is the first demand touch of a line a prefetcher brought in —
    /// the event counted as "prefetched original" in Figure 12.
    Hit {
        /// First demand use of a prefetched line.
        first_demand_of_prefetch: bool,
    },
    /// The line was not resident.
    Miss,
}

const FLAG_DIRTY: u8 = 1;
const FLAG_PREFETCHED: u8 = 1 << 1;
const FLAG_DEMANDED: u8 = 1 << 2;

/// One `u64` metadata plane whose live data starts `OFF` elements into
/// its allocation.
///
/// The stagger is load-bearing for performance: every plane is a
/// page-multiple in size, large allocations are page-aligned, so with
/// all planes starting at offset 0 a given set's row would land at the
/// *same offset modulo 4 KB* in every plane — i.e. in the same
/// associativity set of the host CPU's L1 cache. A workload hammering
/// one simulated set would then pile the tag row and the stamp row into
/// one host cache set. Shifting each plane by a different whole cache
/// line (0 and 8 × `u64`) spreads the planes' rows across host sets.
/// `OFF` is a const generic so the offset folds into the addressing
/// arithmetic at compile time.
#[derive(Clone, Debug)]
struct Plane<const OFF: usize>(Vec<u64>);

impl<const OFF: usize> Plane<OFF> {
    fn new(len: usize) -> Self {
        Plane(vec![0; OFF + len])
    }

    /// The `len`-element row starting at logical index `base`.
    #[inline(always)]
    fn row(&self, base: usize, len: usize) -> &[u64] {
        &self.0[OFF + base..OFF + base + len]
    }

    #[inline(always)]
    fn at(&self, i: usize) -> u64 {
        self.0[OFF + i]
    }

    #[inline(always)]
    fn set(&mut self, i: usize, v: u64) {
        self.0[OFF + i] = v;
    }
}

/// A set-associative cache.
///
/// # Examples
///
/// ```
/// use tcp_cache::{Cache, Replacement};
/// use tcp_mem::{Addr, CacheGeometry};
///
/// let geom = CacheGeometry::new(32 * 1024, 32, 1);
/// let mut c = Cache::new(geom, Replacement::Lru);
/// let line = geom.line_addr(Addr::new(0x1000));
/// assert!(!c.contains(line));
/// c.fill(line, false);
/// assert!(c.contains(line));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    policy: Replacement,
    assoc: usize,
    // Struct-of-arrays way storage, row-major by set: `tags` holds each
    // set's way tags contiguously, `valid` one occupancy bitmask per set,
    // and the flag bytes and last-access stamp plane are parallel to
    // `tags` (the two planes at different host-cache-line staggers; see
    // [`Plane`]).
    tags: Plane<0>,
    valid: Vec<u64>,
    flags: Vec<u8>,
    last_order: Plane<8>,
    order: u64,
    // Probe memo: the line most recently *missed* by [`Cache::access`]
    // and the residency epoch it was probed under. Residency only
    // changes when a line is installed (`epoch` counts installs), so a
    // fill of the same line in the same epoch can skip its residency
    // probe — the common access-miss-then-fill sequence pays for one
    // probe, not two. Recency updates (hits) deliberately do not bump
    // the epoch: they cannot change a probe's outcome.
    missed_line: u64,
    missed_epoch: u64,
    epoch: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry and policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's associativity exceeds 64 (the per-set
    /// occupancy bitmask is one bit per way).
    pub fn new(geom: CacheGeometry, policy: Replacement) -> Self {
        assert!(
            (1..=64).contains(&geom.associativity()),
            "associativity above 64 is not supported"
        );
        let n = geom.num_sets() as usize * geom.associativity() as usize;
        Cache {
            geom,
            policy,
            assoc: geom.associativity() as usize,
            tags: Plane::new(n),
            valid: vec![0; geom.num_sets() as usize],
            flags: vec![0; n],
            last_order: Plane::new(n),
            order: 0,
            missed_line: 0,
            // `epoch` never reaches MAX, so the memo starts invalid.
            missed_epoch: u64::MAX,
            epoch: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Bitmask with one bit set per way.
    #[inline]
    fn full_mask(&self) -> u64 {
        u64::MAX >> (64 - self.assoc as u32)
    }

    /// Absolute way index of the resident line `(tag, set)`, if any.
    #[inline]
    fn find(&self, tag: Tag, set: SetIndex) -> Option<usize> {
        let base = set.as_usize() * self.assoc;
        kernels::find_tag(
            self.tags.row(base, self.assoc),
            self.valid[set.as_usize()],
            tag.raw(),
        )
        .map(|w| base + w)
    }

    /// Assembles the external metadata view of way `i`.
    #[inline(always)]
    fn meta_at(&self, i: usize) -> LineMeta {
        let f = self.flags[i];
        LineMeta {
            tag: Tag::new(self.tags.at(i)),
            dirty: f & FLAG_DIRTY != 0,
            prefetched: f & FLAG_PREFETCHED != 0,
            demanded: f & FLAG_DEMANDED != 0,
        }
    }

    /// Returns `true` if the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (tag, set) = self.geom.split_line(line);
        self.find(tag, set).is_some()
    }

    /// Performs a demand access (load or store) to the line.
    ///
    /// On a hit, the line's recency and dirty state are updated and the
    /// prefetch-credit event is reported. On a miss nothing changes: the
    /// caller decides when the fill lands (after the memory round trip).
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessOutcome {
        let (tag, set) = self.geom.split_line(line);
        let s = set.as_usize();
        let base = s * self.assoc;
        match kernels::find_tag(self.tags.row(base, self.assoc), self.valid[s], tag.raw()) {
            Some(w) => {
                let i = base + w;
                self.order += 1;
                let f = self.flags[i];
                let first = f & (FLAG_PREFETCHED | FLAG_DEMANDED) == FLAG_PREFETCHED;
                self.flags[i] = f | FLAG_DEMANDED | if write { FLAG_DIRTY } else { 0 };
                self.last_order.set(i, self.order);
                AccessOutcome::Hit {
                    first_demand_of_prefetch: first,
                }
            }
            None => {
                self.missed_line = line.line_number();
                self.missed_epoch = self.epoch;
                AccessOutcome::Miss
            }
        }
    }

    /// Installs a line, evicting a victim if the set is full.
    ///
    /// `prefetched` marks prefetcher-initiated fills for the Figure 12
    /// accounting. Filling a line that is already resident refreshes its
    /// recency and returns `None`.
    ///
    /// This is the fused probe + empty-way + victim-select pass: one trip
    /// over the set's contiguous tag row answers residency, the occupancy
    /// bitmask yields the lowest empty way without a second scan, and the
    /// victim (when the set is full) comes from the stamp rows in place.
    pub fn fill(&mut self, line: LineAddr, prefetched: bool) -> Option<Evicted> {
        let (tag, set) = self.geom.split_line(line);
        self.order += 1;
        let s = set.as_usize();
        let base = s * self.assoc;
        let vm = self.valid[s];
        // The probe memo proves non-residency when `access` missed this
        // very line and no install has happened since.
        let known_absent =
            self.missed_line == line.line_number() && self.missed_epoch == self.epoch;
        if !known_absent {
            if let Some(w) = kernels::find_tag(self.tags.row(base, self.assoc), vm, tag.raw()) {
                let i = base + w;
                self.last_order.set(i, self.order);
                return None;
            }
        }
        self.epoch += 1;
        let (i, evicted) = if vm != self.full_mask() {
            // Lowest empty way, straight from the occupancy bitmask.
            let w = (!vm).trailing_zeros() as usize;
            self.valid[s] = vm | (1 << w);
            (base + w, None)
        } else {
            let w = self
                .policy
                .choose_victim_in(self.last_order.row(base, self.assoc));
            let i = base + w;
            let old = self.meta_at(i);
            (
                i,
                Some(Evicted {
                    line: self.geom.compose(old.tag, set),
                    meta: old,
                }),
            )
        };
        self.tags.set(i, tag.raw());
        self.flags[i] = if prefetched { FLAG_PREFETCHED } else { 0 };
        self.last_order.set(i, self.order);
        evicted
    }

    /// Marks a resident line as having serviced a demand access, without
    /// updating recency. Returns `false` if the line is not resident.
    ///
    /// Used by the hierarchy to keep prefetch-credit accounting consistent
    /// when the credit was granted elsewhere (e.g. a demand miss merged
    /// into an in-flight prefetch).
    pub fn mark_demanded(&mut self, line: LineAddr) -> bool {
        let (tag, set) = self.geom.split_line(line);
        match self.find(tag, set) {
            Some(i) => {
                self.flags[i] |= FLAG_DEMANDED;
                true
            }
            None => false,
        }
    }

    /// Marks a resident line dirty without updating recency. Returns
    /// `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let (tag, set) = self.geom.split_line(line);
        match self.find(tag, set) {
            Some(i) => {
                self.flags[i] |= FLAG_DIRTY;
                true
            }
            None => false,
        }
    }

    /// Iterates over all resident lines as `(line address, metadata)`.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, LineMeta)> + '_ {
        (0..self.flags.len()).filter_map(move |i| {
            let set = i / self.assoc;
            let way = i % self.assoc;
            ((self.valid[set] >> way) & 1 == 1).then(|| {
                let set = SetIndex::new(set as u32);
                (
                    self.geom.compose(Tag::new(self.tags.at(i)), set),
                    self.meta_at(i),
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_mem::Addr;

    fn dm_l1() -> Cache {
        Cache::new(CacheGeometry::new(32 * 1024, 32, 1), Replacement::Lru)
    }

    fn small_4way() -> Cache {
        // 8 lines of 32 B, 4-way: 2 sets.
        Cache::new(CacheGeometry::new(256, 32, 4), Replacement::Lru)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = dm_l1();
        let line = c.geometry().line_addr(Addr::new(0x1000));
        assert_eq!(c.access(line, false), AccessOutcome::Miss);
        assert!(c.fill(line, false).is_none());
        assert!(matches!(c.access(line, false), AccessOutcome::Hit { .. }));
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_l1();
        let a = c.geometry().line_addr(Addr::new(0x1000));
        let b = c.geometry().line_addr(Addr::new(0x1000 + 32 * 1024)); // same set
        c.fill(a, false);
        let ev = c.fill(b, false).expect("conflict must evict");
        assert_eq!(ev.line, a);
        assert!(!c.contains(a));
        assert!(c.contains(b));
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        let mut c = small_4way();
        let g = *c.geometry();
        // Four lines in set 0 (stride = num_sets * line = 64 B).
        let lines: Vec<_> = (0..5).map(|i| g.line_addr(Addr::new(i * 64))).collect();
        for l in &lines[..4] {
            c.fill(*l, false);
        }
        // Touch 0,2,3 so line 1 is LRU.
        c.access(lines[0], false);
        c.access(lines[2], false);
        c.access(lines[3], false);
        let ev = c.fill(lines[4], false).expect("full set evicts");
        assert_eq!(ev.line, lines[1]);
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = dm_l1();
        let g = *c.geometry();
        let a = g.line_addr(Addr::new(0x2000));
        let b = g.line_addr(Addr::new(0x2000 + 32 * 1024));
        c.fill(a, false);
        c.access(a, true);
        let ev = c.fill(b, false).expect("evicts");
        assert!(ev.meta.dirty);
    }

    #[test]
    fn prefetch_credit_reported_once() {
        let mut c = dm_l1();
        let line = c.geometry().line_addr(Addr::new(0x3000));
        c.fill(line, true);
        assert_eq!(
            c.access(line, false),
            AccessOutcome::Hit {
                first_demand_of_prefetch: true
            }
        );
        assert_eq!(
            c.access(line, false),
            AccessOutcome::Hit {
                first_demand_of_prefetch: false
            }
        );
    }

    #[test]
    fn refill_of_resident_line_does_not_evict_or_duplicate() {
        let mut c = small_4way();
        let line = c.geometry().line_addr(Addr::new(0));
        c.fill(line, false);
        assert!(c.fill(line, true).is_none());
        assert_eq!(c.iter().count(), 1);
        // Refill must not clear the demand/prefetch state into a prefetch credit.
        assert_eq!(
            c.access(line, false),
            AccessOutcome::Hit {
                first_demand_of_prefetch: false
            }
        );
    }

    #[test]
    fn peek_reports_metadata() {
        let mut c = dm_l1();
        let line = c.geometry().line_addr(Addr::new(0x5000));
        assert_eq!(c.iter().count(), 0);
        c.fill(line, true);
        let (l, m) = c.iter().next().expect("resident");
        assert_eq!(l, line);
        assert!(m.prefetched && !m.demanded && !m.dirty);
    }

    #[test]
    fn iter_reports_resident_lines() {
        let mut c = small_4way();
        let g = *c.geometry();
        let a = g.line_addr(Addr::new(0));
        let b = g.line_addr(Addr::new(32)); // other set
        c.fill(a, false);
        c.fill(b, true);
        let mut lines: Vec<_> = c.iter().map(|(l, m)| (l, m.prefetched)).collect();
        lines.sort();
        assert_eq!(lines, vec![(a, false), (b, true)]);
    }
}
