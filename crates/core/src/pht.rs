//! The Pattern History Table (PHT): TCP's second level.
//!
//! The PHT is a set-associative table of `(tag, tag′)` pairs. Its index
//! (Figure 9) takes its high bits from a truncated addition of the tags
//! in the sequence and its low `n` bits from the miss index:
//!
//! ```text
//!   PHT index = (tag1 + … + tagk)[1:m]  ∥  miss_index[1:n]
//! ```
//!
//! `n` trades sharing against isolation: `n = 0` shares every entry among
//! all cache sets (TCP-8K), `n = 10` gives each L1 set private rows
//! (TCP-8M). Within the indexed PHT set, the entry whose `tag` field
//! matches the most recent tag of the sequence supplies `tag′`, the
//! predicted successor.
//!
//! The modelled table is `sets × assoc` entries, but host memory holds
//! only the sets a run has trained: a per-set directory maps each set to
//! its row in the entry planes, and a set's first train appends that row.
//! A TCP-8M job therefore allocates 4 B of directory per set plus one row
//! per set it trains, not the whole 8 MB model.
//!
//! A row stores its fields at the modelled widths: a 16-bit entry tag,
//! 16-bit successors and an 8-bit live-target count per way, a 16-bit
//! LRU stamp per way, a 64-bit occupancy mask and a 16-bit LRU clock.
//! An 8-way, one-target row is 66 B (the paper's 32 B of entries plus
//! 34 B of replacement and occupancy state), so `tag_bits` is at most 16
//! and `targets` at most 255.

use crate::truncated_sum;
use tcp_cache::kernels;
use tcp_mem::{SetIndex, Tag};

/// Geometry and indexing policy of a pattern history table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhtConfig {
    /// Number of PHT sets (power of two).
    pub sets: u32,
    /// Ways per PHT set (the paper uses 8).
    pub assoc: u32,
    /// Low bits of the L1 miss index mixed into the PHT index (`n` in
    /// Figure 9): 0 = fully shared, 10 = fully per-set for a 1024-set L1.
    pub miss_index_bits: u32,
    /// Width of the stored tag fields in bits (16 in the paper's 4-byte
    /// entries; predictions are reconstructed from these truncated tags).
    /// At most 16: the table stores each field in 16 bits.
    pub tag_bits: u32,
    /// Successor tags stored per entry, most recent first. The paper uses
    /// 1; Section 6 proposes storing multiple targets as Joseph &
    /// Grunwald's Markov prefetcher does, trading traffic for accuracy.
    /// At most 255: each entry counts its live targets in 8 bits.
    pub targets: u32,
}

impl PhtConfig {
    /// The paper's 8 KB PHT: 256 sets × 8 ways × 4-byte entries, no miss
    /// index bits (fully shared).
    pub const fn pht_8k() -> Self {
        PhtConfig {
            sets: 256,
            assoc: 8,
            miss_index_bits: 0,
            tag_bits: 16,
            targets: 1,
        }
    }

    /// The paper's idealised 8 MB PHT: 262144 sets × 8 ways, full 10-bit
    /// miss index (fully per-set).
    pub const fn pht_8m() -> Self {
        PhtConfig {
            sets: 262_144,
            assoc: 8,
            miss_index_bits: 10,
            tag_bits: 16,
            targets: 1,
        }
    }

    /// A PHT of approximately `bytes` total storage with the given miss
    /// index bits, keeping 8-way associativity and 4-byte entries (the
    /// Figure 13 sweep axis).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too small for one 8-way set.
    pub fn with_bytes(bytes: usize, miss_index_bits: u32) -> Self {
        let entry_bytes = 4;
        let assoc = 8;
        let sets = (bytes / (entry_bytes * assoc)).next_power_of_two() as u32;
        assert!(
            bytes >= entry_bytes * assoc,
            "PHT must hold at least one set"
        );
        let sets = if (sets as usize) * entry_bytes * assoc > bytes {
            sets / 2
        } else {
            sets
        };
        assert!(sets >= 1, "PHT must hold at least one set");
        PhtConfig {
            sets,
            assoc: assoc as u32,
            miss_index_bits,
            tag_bits: 16,
            targets: 1,
        }
    }

    /// Total storage in bytes: `sets × assoc × (1 + targets) × tag_bits / 8`
    /// (one entry tag plus `targets` successor tags).
    pub fn size_bytes(&self) -> usize {
        self.sets as usize
            * self.assoc as usize
            * (1 + self.targets as usize)
            * self.tag_bits as usize
            / 8
    }

    /// Index bits available above the miss-index part.
    fn sum_bits(&self) -> u32 {
        let total = self.sets.trailing_zeros();
        total.saturating_sub(self.miss_index_bits).max(1)
    }
}

/// A set-associative pattern history table.
///
/// Entry state is struct-of-arrays: the 16-bit entry tags sit in a
/// dense array so the per-set probe is one chunked [`kernels::find_tag`]
/// sweep against the set's occupancy bitmask, and LRU victim selection
/// is a chunked [`kernels::min_index`] over the contiguous 16-bit
/// `last_use` row — the same kernels the simulator's caches use (see
/// DESIGN.md §12).
///
/// LRU stamps come from a per-row clock that advances when one of the
/// row's ways is trained or hit. Only the order of a row's stamps
/// decides its victim, so when a clock reaches `u16::MAX` the row's
/// valid stamps are replaced by their ranks 1..=n (oldest first) and the
/// clock restarts at n: the victim is the exact LRU way of an unbounded
/// clock, and a lookup that misses touches no clock.
///
/// The planes hold materialized rows only. A zeroed per-set directory
/// (`dir`) stores each set's row number plus one, 0 meaning the set was
/// never trained; `train` appends a set's row on first use, in
/// first-train order. A lookup in a never-trained set misses without
/// allocating. Predictions, counters, [`occupancy`](Self::occupancy) and
/// [`size_bytes`](Self::size_bytes) are those of the full modelled table.
///
/// # Examples
///
/// ```
/// use tcp_core::{PatternHistoryTable, PhtConfig};
/// use tcp_mem::{SetIndex, Tag};
///
/// let mut pht = PatternHistoryTable::new(PhtConfig::pht_8k());
/// let seq = [Tag::new(3), Tag::new(4)];
/// let set = SetIndex::new(17);
/// pht.train(&seq, Tag::new(5), set);
/// assert_eq!(pht.lookup(&seq, set), Some(Tag::new(5)));
/// ```
#[derive(Clone, Debug)]
pub struct PatternHistoryTable {
    cfg: PhtConfig,
    /// Per-set directory: the set's row in the planes below plus one, or
    /// 0 while the set has never been trained.
    dir: Vec<u32>,
    /// Truncated entry tag per way (row-major, `rows × assoc`). Only
    /// ways whose `valid` bit is set hold a meaningful value.
    tags: Vec<u16>,
    /// Per-row occupancy bitmask (bit `w` = way `w` holds an entry).
    valid: Vec<u64>,
    /// LRU stamp per way, read from its row's `clock`.
    last_use: Vec<u16>,
    /// Per-row LRU clock: the stamp of the row's most recent touch.
    clock: Vec<u16>,
    /// Live prefix length of each way's arena row.
    n_targets: Vec<u8>,
    /// Flat truncated successor-tag arena: entry (way) `i` owns the row
    /// `targets[i * cfg.targets .. (i + 1) * cfg.targets]`, of which the
    /// first `n_targets` elements are live (most recent first). Keeping
    /// targets out of line makes training and lookup allocation-free.
    targets: Vec<u16>,
    trains: u64,
    lookups: u64,
    hits: u64,
}

impl PatternHistoryTable {
    /// Creates an empty PHT.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `assoc` is zero or above
    /// 64 (the occupancy bitmask width), `miss_index_bits` exceeds the
    /// index width, `tag_bits` is not in 1..=16 (the stored field width)
    /// or `targets` is not in 1..=255 (the live-count width).
    pub fn new(cfg: PhtConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "PHT sets must be a power of two"
        );
        assert!(
            (1..=64).contains(&cfg.assoc),
            "PHT associativity must be in 1..=64"
        );
        assert!(
            cfg.miss_index_bits <= cfg.sets.trailing_zeros(),
            "miss index bits exceed the PHT index width"
        );
        assert!(
            (1..=16).contains(&cfg.tag_bits),
            "PHT tag width must be in 1..=16"
        );
        assert!(
            (1..=255).contains(&cfg.targets),
            "PHT targets per entry must be in 1..=255"
        );
        PatternHistoryTable {
            cfg,
            dir: vec![0; cfg.sets as usize],
            tags: Vec::new(),
            valid: Vec::new(),
            last_use: Vec::new(),
            clock: Vec::new(),
            n_targets: Vec::new(),
            targets: Vec::new(),
            trains: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// The table configuration.
    pub fn config(&self) -> &PhtConfig {
        &self.cfg
    }

    /// Total storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.cfg.size_bytes()
    }

    /// `(trains, lookups, lookup hits)` since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.trains, self.lookups, self.hits)
    }

    /// The Figure 9 index function.
    fn index(&self, seq: &[Tag], miss_index: SetIndex) -> usize {
        let n = self.cfg.miss_index_bits;
        let m = self.cfg.sum_bits();
        let high = truncated_sum(seq, m);
        let low = if n == 0 {
            0
        } else {
            u64::from(miss_index.raw()) & ((1 << n) - 1)
        };
        let idx = ((high << n) | low) & u64::from(self.cfg.sets - 1);
        idx as usize
    }

    /// The row of `set` in the planes, if the set has been trained.
    fn row(&self, set: usize) -> Option<usize> {
        (self.dir[set] as usize).checked_sub(1)
    }

    /// Appends an empty row for `set` to every plane and records it in
    /// the directory.
    fn materialize(&mut self, set: usize) -> usize {
        let row = self.valid.len();
        let ways = (row + 1) * self.cfg.assoc as usize;
        self.valid.push(0);
        self.clock.push(0);
        self.tags.resize(ways, 0);
        self.last_use.resize(ways, 0);
        self.n_targets.resize(ways, 0);
        self.targets.resize(ways * self.cfg.targets as usize, 0);
        // Rows never outnumber sets, and `sets` is a power-of-two `u32`,
        // so `row + 1` fits the directory entry.
        self.dir[set] = row as u32 + 1;
        row
    }

    /// `tag` as a stored field: its low `tag_bits` bits. `new` bounds
    /// `tag_bits` to 16, so the field keeps every truncated bit.
    fn field(&self, tag: Tag) -> u16 {
        tag.truncate(self.cfg.tag_bits).raw() as u16
    }

    /// The stored field of the sequence's most recent tag, which tags
    /// its entry.
    fn entry_tag(&self, seq: &[Tag]) -> u16 {
        self.field(seq.last().copied().unwrap_or_default())
    }

    /// Stamps `way` (a way of `row`) as its row's most recent use.
    fn touch(&mut self, row: usize, way: usize) {
        let mut now = self.clock[row];
        if now == u16::MAX {
            now = self.rank_stamps(row);
        }
        now += 1;
        self.clock[row] = now;
        self.last_use[way] = now;
    }

    /// Replaces the stamps of `row`'s valid ways by their ranks 1..=n,
    /// oldest first, and returns n, where the row's clock restarts. A
    /// row's valid stamps are distinct, so the ranks keep their order
    /// exactly. It runs once per 65,535 touches of a row, so it stays
    /// out of line.
    #[cold]
    #[inline(never)]
    fn rank_stamps(&mut self, row: usize) -> u16 {
        let assoc = self.cfg.assoc as usize;
        let valid = self.valid[row];
        let stamps = &mut self.last_use[row * assoc..(row + 1) * assoc];
        let mut old = [0u16; 64];
        old[..assoc].copy_from_slice(stamps);
        let old = &old[..assoc];
        for (w, stamp) in stamps.iter_mut().enumerate() {
            if valid >> w & 1 == 1 {
                let older = old
                    .iter()
                    .enumerate()
                    .filter(|&(v, &s)| valid >> v & 1 == 1 && s < old[w])
                    .count();
                *stamp = older as u16 + 1;
            }
        }
        valid.count_ones() as u16
    }

    /// Records that sequence `seq` (oldest first, most recent last) at L1
    /// set `miss_index` was followed by `next`.
    pub fn train(&mut self, seq: &[Tag], next: Tag, miss_index: SetIndex) {
        self.trains += 1;
        let set = self.index(seq, miss_index);
        let row = match self.row(set) {
            Some(row) => row,
            None => self.materialize(set),
        };
        let etag = self.entry_tag(seq);
        let next = self.field(next);
        let assoc = self.cfg.assoc as usize;
        let base = row * assoc;
        let max_targets = self.cfg.targets as usize;
        let vm = self.valid[row];
        // Existing entry for this sequence tag?
        if let Some(w) = kernels::find_tag(&self.tags[base..base + assoc], vm, etag) {
            let way = base + w;
            let live = &mut self.targets[way * max_targets..(way + 1) * max_targets];
            let n = usize::from(self.n_targets[way]);
            if let Some(pos) = live[..n].iter().position(|&t| t == next) {
                // Move the matched target to the front of the live prefix.
                live[..=pos].rotate_right(1);
            } else {
                // Push front; the oldest target falls off a full row.
                let keep = n.min(max_targets - 1);
                live[..=keep].rotate_right(1);
                live[0] = next;
                // `keep` < `targets` ≤ 255, so the count fits its byte.
                self.n_targets[way] = keep as u8 + 1;
            }
            self.touch(row, way);
            return;
        }
        // Fill the lowest empty way, or evict the set's LRU entry.
        let full = if assoc == 64 {
            u64::MAX
        } else {
            (1 << assoc) - 1
        };
        let w = if vm != full {
            (!vm).trailing_zeros() as usize
        } else {
            kernels::min_index(&self.last_use[base..base + assoc])
        };
        let way = base + w;
        self.tags[way] = etag;
        self.valid[row] = vm | 1 << w;
        self.touch(row, way);
        self.n_targets[way] = 1;
        let slot = way * max_targets;
        debug_assert!(slot < self.targets.len(), "arena is sized ways * targets");
        self.targets[slot] = next;
    }

    /// Predicts the most recent tag observed after sequence `seq` at L1
    /// set `miss_index`.
    pub fn lookup(&mut self, seq: &[Tag], miss_index: SetIndex) -> Option<Tag> {
        let way = self.find_and_touch(seq, miss_index)?;
        // tcp-lint: allow(overflow-provenance) — way < sets·ways and targets ≤ 255, so the arena index is far below usize::MAX
        let slot = way * self.cfg.targets as usize;
        Some(Tag::new(u64::from(self.targets[slot])))
    }

    /// Appends every stored successor for the sequence (most recent
    /// first) to `out` — the Section 6 multi-target mode.
    pub fn lookup_targets(&mut self, seq: &[Tag], miss_index: SetIndex, out: &mut Vec<Tag>) {
        if let Some(way) = self.find_and_touch(seq, miss_index) {
            let n = usize::from(self.n_targets[way]);
            let start = way * self.cfg.targets as usize;
            out.extend(
                self.targets[start..start + n]
                    .iter()
                    .map(|&t| Tag::new(u64::from(t))),
            );
        }
    }

    /// One lookup's bookkeeping: counts it, finds the matching way, and
    /// refreshes its LRU stamp and the hit counter on a match. A
    /// never-trained set has no row and misses. Every trained entry has
    /// at least one live target, so a returned way always has a valid
    /// front-of-row prediction.
    fn find_and_touch(&mut self, seq: &[Tag], miss_index: SetIndex) -> Option<usize> {
        self.lookups += 1;
        let row = self.row(self.index(seq, miss_index))?;
        let etag = self.entry_tag(seq);
        let assoc = self.cfg.assoc as usize;
        let base = row * assoc;
        let w = kernels::find_tag(&self.tags[base..base + assoc], self.valid[row], etag)?;
        let way = base + w;
        self.touch(row, way);
        self.hits += 1;
        Some(way)
    }

    /// Fraction of occupied entries (table utilisation) over the full
    /// modelled table, trained or not.
    pub fn occupancy(&self) -> f64 {
        let used: u32 = self.valid.iter().map(|m| m.count_ones()).sum();
        used as f64 / (self.dir.len() * self.cfg.assoc as usize) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> Tag {
        Tag::new(x)
    }

    fn s(x: u32) -> SetIndex {
        SetIndex::new(x)
    }

    #[test]
    fn paper_sizes() {
        assert_eq!(PhtConfig::pht_8k().size_bytes(), 8 * 1024);
        assert_eq!(PhtConfig::pht_8m().size_bytes(), 8 * 1024 * 1024);
    }

    #[test]
    fn with_bytes_hits_requested_size() {
        for bytes in [
            2048usize,
            8192,
            32 * 1024,
            128 * 1024,
            512 * 1024,
            2 << 20,
            8 << 20,
        ] {
            let cfg = PhtConfig::with_bytes(bytes, 0);
            assert_eq!(cfg.size_bytes(), bytes, "requested {bytes}");
        }
    }

    #[test]
    fn train_then_lookup_roundtrip() {
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8k());
        let seq = [t(100), t(200)];
        pht.train(&seq, t(300), s(7));
        assert_eq!(pht.lookup(&seq, s(7)), Some(t(300)));
        let (tr, lu, hits) = pht.counters();
        assert_eq!((tr, lu, hits), (1, 1, 1));
    }

    #[test]
    fn retraining_overwrites_prediction() {
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8k());
        let seq = [t(1), t(2)];
        pht.train(&seq, t(3), s(0));
        pht.train(&seq, t(9), s(0));
        assert_eq!(pht.lookup(&seq, s(0)), Some(t(9)));
    }

    #[test]
    fn shared_pht_ignores_miss_index() {
        // n = 0: the same sequence trained in set 3 predicts in set 800.
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8k());
        let seq = [t(5), t(6)];
        pht.train(&seq, t(7), s(3));
        assert_eq!(pht.lookup(&seq, s(800)), Some(t(7)));
    }

    #[test]
    fn private_pht_separates_sets() {
        // n = 10: history from one set must not leak into another.
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8m());
        let seq = [t(5), t(6)];
        pht.train(&seq, t(7), s(3));
        assert_eq!(pht.lookup(&seq, s(3)), Some(t(7)));
        assert_eq!(pht.lookup(&seq, s(800)), None);
    }

    #[test]
    fn entry_tag_disambiguates_sum_collisions() {
        // (1, 4) and (2, 3) share a truncated sum of 5 but differ in their
        // most recent tag, so both fit in one PHT set without conflict.
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8k());
        pht.train(&[t(1), t(4)], t(100), s(0));
        pht.train(&[t(2), t(3)], t(200), s(0));
        assert_eq!(pht.lookup(&[t(1), t(4)], s(0)), Some(t(100)));
        assert_eq!(pht.lookup(&[t(2), t(3)], s(0)), Some(t(200)));
    }

    #[test]
    fn lru_evicts_oldest_pattern() {
        // A 1-set, 2-way PHT: the third distinct pattern evicts the LRU.
        let cfg = PhtConfig {
            sets: 1,
            assoc: 2,
            miss_index_bits: 0,
            tag_bits: 16,
            targets: 1,
        };
        let mut pht = PatternHistoryTable::new(cfg);
        pht.train(&[t(1)], t(10), s(0));
        pht.train(&[t(2)], t(20), s(0));
        assert_eq!(pht.lookup(&[t(1)], s(0)), Some(t(10))); // touch 1
        pht.train(&[t(3)], t(30), s(0)); // evicts pattern 2
        assert_eq!(pht.lookup(&[t(2)], s(0)), None);
        assert_eq!(pht.lookup(&[t(1)], s(0)), Some(t(10)));
        assert_eq!(pht.lookup(&[t(3)], s(0)), Some(t(30)));
    }

    #[test]
    fn tag_truncation_models_narrow_fields() {
        // Tags equal mod 2^16 alias in a 16-bit PHT: the paper's cost
        // model, made observable.
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8k());
        pht.train(&[t(0x10001), t(2)], t(3), s(0));
        assert_eq!(pht.lookup(&[t(0x1), t(0x10002)], s(0)), Some(t(3)));
    }

    #[test]
    fn occupancy_grows_with_training() {
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8k());
        assert_eq!(pht.occupancy(), 0.0);
        for i in 0..500u64 {
            pht.train(&[t(i), t(i + 1)], t(i + 2), s(0));
        }
        assert!(pht.occupancy() > 0.1);
    }

    #[test]
    fn training_materializes_one_row_per_trained_set() {
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8m());
        for k in 0..40u32 {
            // Distinct miss indices select distinct sets of the 8 MB PHT.
            pht.train(&[t(5), t(6)], t(7), s(k));
            pht.train(&[t(5), t(6)], t(8), s(k));
        }
        assert_eq!(pht.valid.len(), 40);
        assert_eq!(pht.tags.len(), 40 * 8);
        assert_eq!(pht.targets.len(), 40 * 8);
    }

    #[test]
    fn lookup_in_untrained_set_misses_and_materializes_nothing() {
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8m());
        let seq = [t(5), t(6)];
        let mut out = Vec::new();
        assert_eq!(pht.lookup(&seq, s(3)), None);
        pht.lookup_targets(&seq, s(3), &mut out);
        assert!(out.is_empty());
        assert_eq!(pht.counters(), (0, 2, 0));
        assert!(pht.valid.is_empty() && pht.tags.is_empty());
        // A miss touches no clock: the first train stamps its way 1.
        pht.train(&seq, t(7), s(3));
        assert_eq!((pht.clock[0], pht.last_use[0]), (1, 1));
    }

    #[test]
    fn occupancy_counts_the_full_modelled_table() {
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8m());
        pht.train(&[t(5), t(6)], t(7), s(3));
        assert_eq!(pht.occupancy(), 1.0 / (262_144.0 * 8.0));
        assert_eq!(pht.size_bytes(), 8 * 1024 * 1024);
    }

    #[test]
    fn clone_of_partly_trained_table_predicts_identically() {
        let mut pht = PatternHistoryTable::new(PhtConfig::pht_8m());
        for i in 0..200u64 {
            pht.train(&[t(i % 7), t(i % 5)], t(i % 11), s((i % 13) as u32));
        }
        let mut copy = pht.clone();
        for i in 0..400u64 {
            let (seq, set) = ([t(i % 9), t(i % 5)], s((i % 17) as u32));
            assert_eq!(pht.lookup(&seq, set), copy.lookup(&seq, set), "step {i}");
            pht.train(&seq, t(i % 3), set);
            copy.train(&seq, t(i % 3), set);
        }
        assert_eq!(pht.counters(), copy.counters());
        assert_eq!(pht.occupancy(), copy.occupancy());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = PatternHistoryTable::new(PhtConfig {
            sets: 3,
            assoc: 8,
            miss_index_bits: 0,
            tag_bits: 16,
            targets: 1,
        });
    }

    #[test]
    #[should_panic(expected = "miss index bits")]
    fn too_many_miss_index_bits_rejected() {
        let _ = PatternHistoryTable::new(PhtConfig {
            sets: 16,
            assoc: 8,
            miss_index_bits: 5,
            tag_bits: 16,
            targets: 1,
        });
    }
}
