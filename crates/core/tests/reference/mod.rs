//! A naive pattern history table written from the Figure 9 text and the
//! `PatternHistoryTable` type docs: the model `pht_reference.rs` checks
//! the table against, and the PHT of `tcp_reference.rs`'s naive TCP.
//!
//! It keeps a map from PHT index to ways, each an entry tag with a
//! successor list and a stamp from one global `u64` clock, so it needs
//! no stamp compression and checks the table's per-row 16-bit clocks
//! independently.

use std::collections::BTreeMap;
use tcp_core::PhtConfig;

/// One reference entry: the truncated most-recent tag of its sequence,
/// its successors (most recent first) and its last-use stamp.
struct Entry {
    tag: u64,
    targets: Vec<u64>,
    stamp: u64,
}

/// The naive PHT: index → ways (`None` = free way).
pub struct RefPht {
    cfg: PhtConfig,
    rows: BTreeMap<u64, Vec<Option<Entry>>>,
    order: u64,
    /// `(trains, lookups, lookup hits)`, as `PatternHistoryTable::counters`.
    pub counters: (u64, u64, u64),
    /// Trains that replaced a valid entry.
    pub evictions: u64,
}

impl RefPht {
    pub fn new(cfg: PhtConfig) -> Self {
        RefPht {
            cfg,
            rows: BTreeMap::new(),
            order: 0,
            counters: (0, 0, 0),
            evictions: 0,
        }
    }

    /// `x` cut to the table's tag field width.
    pub fn trunc(&self, x: u64) -> u64 {
        x & (u64::MAX >> (64 - self.cfg.tag_bits))
    }

    /// The sequence's most recent tag, truncated: it tags the entry.
    fn entry_tag(&self, seq: &[u64]) -> u64 {
        self.trunc(seq.last().copied().unwrap_or(0))
    }

    /// Truncated tag sum in the high bits ∥ low miss-index bits, the two
    /// parts together exactly as wide as the set index.
    fn index(&self, seq: &[u64], miss_index: u32) -> u64 {
        let n = self.cfg.miss_index_bits;
        let m = self.cfg.sets.trailing_zeros() - n;
        let sum = seq.iter().fold(0u64, |a, &t| a.wrapping_add(t));
        let low = u64::from(miss_index) & ((1u64 << n) - 1);
        ((sum & ((1u64 << m) - 1)) << n) | low
    }

    /// The row and the way matching the sequence's entry tag, if any.
    fn probe(&mut self, seq: &[u64], miss_index: u32) -> (&mut Vec<Option<Entry>>, Option<usize>) {
        let etag = self.entry_tag(seq);
        let idx = self.index(seq, miss_index);
        let assoc = self.cfg.assoc as usize;
        let row = self
            .rows
            .entry(idx)
            .or_insert_with(|| (0..assoc).map(|_| None).collect());
        let way = row
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.tag == etag));
        (row, way)
    }

    /// Records that `seq` at L1 set `miss_index` was followed by `next`.
    pub fn train(&mut self, seq: &[u64], next: u64, miss_index: u32) {
        self.counters.0 += 1;
        self.order += 1;
        let (order, max) = (self.order, self.cfg.targets as usize);
        let (etag, next) = (self.entry_tag(seq), self.trunc(next));
        let (row, way) = self.probe(seq, miss_index);
        if let Some(w) = way {
            let e = row[w].as_mut().unwrap();
            e.targets.retain(|&t| t != next);
            e.targets.insert(0, next);
            e.targets.truncate(max);
            e.stamp = order;
            return;
        }
        // The lowest free way, else the first way with the oldest stamp.
        let free = row.iter().position(Option::is_none);
        let w = free.unwrap_or_else(|| {
            (0..row.len())
                .min_by_key(|&w| row[w].as_ref().unwrap().stamp)
                .unwrap()
        });
        row[w] = Some(Entry {
            tag: etag,
            targets: vec![next],
            stamp: order,
        });
        self.evictions += u64::from(free.is_none());
    }

    /// Every stored successor of `seq` at `miss_index`, most recent
    /// first (empty on a miss); a hit refreshes the entry's stamp.
    pub fn lookup_targets(&mut self, seq: &[u64], miss_index: u32) -> Vec<u64> {
        self.counters.1 += 1;
        self.order += 1;
        let order = self.order;
        let (row, way) = self.probe(seq, miss_index);
        let Some(w) = way else { return Vec::new() };
        let e = row[w].as_mut().unwrap();
        e.stamp = order;
        let targets = e.targets.clone();
        self.counters.2 += 1;
        targets
    }

    /// Occupied entries over the whole modelled table.
    pub fn occupancy(&self) -> f64 {
        let used = self.rows.values().flatten().filter(|e| e.is_some()).count();
        used as f64 / (self.cfg.sets as f64 * self.cfg.assoc as f64)
    }
}
