//! Differential suite: `PatternHistoryTable` against a naive reference
//! PHT written from the Figure 9 text and the type docs.
//!
//! The reference keeps a map from PHT index to ways, each an entry tag
//! with a successor list and an LRU stamp. Seeded `SplitMix64` streams of
//! `train`, `lookup` and `lookup_targets` over small tag alphabets drive
//! both tables, so hits, sum aliasing, tag truncation and evictions all
//! occur. Every prediction, the final `counters()` and `occupancy()` must
//! agree; a failure names its seed and step.
//! `scripts/check-robustness.sh` runs this suite.

use std::collections::BTreeMap;
use tcp_core::{PatternHistoryTable, PhtConfig};
use tcp_mem::{SetIndex, SplitMix64, Tag};

/// One reference entry: the truncated most-recent tag of its sequence,
/// its successors (most recent first) and its last-use stamp.
struct Entry {
    tag: u64,
    targets: Vec<u64>,
    stamp: u64,
}

/// The naive PHT: index → ways (`None` = free way).
struct RefPht {
    cfg: PhtConfig,
    rows: BTreeMap<u64, Vec<Option<Entry>>>,
    order: u64,
    counters: (u64, u64, u64),
}

impl RefPht {
    fn new(cfg: PhtConfig) -> Self {
        RefPht {
            cfg,
            rows: BTreeMap::new(),
            order: 0,
            counters: (0, 0, 0),
        }
    }

    fn trunc(&self, x: u64) -> u64 {
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

    fn train(&mut self, seq: &[u64], next: u64, miss_index: u32) {
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
        let w = row.iter().position(Option::is_none).unwrap_or_else(|| {
            (0..row.len())
                .min_by_key(|&w| row[w].as_ref().unwrap().stamp)
                .unwrap()
        });
        row[w] = Some(Entry {
            tag: etag,
            targets: vec![next],
            stamp: order,
        });
    }

    fn lookup_targets(&mut self, seq: &[u64], miss_index: u32) -> Vec<u64> {
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

    fn occupancy(&self) -> f64 {
        let used = self.rows.values().flatten().filter(|e| e.is_some()).count();
        used as f64 / (self.cfg.sets as f64 * self.cfg.assoc as f64)
    }
}

/// Drives both tables with `steps` random operations from `seed` and
/// checks that every prediction and the final state agree.
fn differential(cfg: PhtConfig, seed: u64, steps: usize, alphabet: u64, miss_indices: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut pht = PatternHistoryTable::new(cfg);
    let mut reference = RefPht::new(cfg);
    let mut out = Vec::new();
    for step in 0..steps {
        // Sequences of one to three tags; an occasional high bit above
        // the 16-bit field aliases tags under truncation.
        let len = 1 + rng.next_below(3) as usize;
        let raw: Vec<u64> = (0..len)
            .map(|_| rng.next_below(alphabet) | (rng.next_below(2) << 16))
            .collect();
        let seq: Vec<Tag> = raw.iter().copied().map(Tag::new).collect();
        let miss_index = rng.next_below(miss_indices) as u32;
        let set = SetIndex::new(miss_index);
        let ctx = format!("{cfg:?} seed {seed:#x} step {step}");
        match rng.next_below(4) {
            0 | 1 => {
                let next = rng.next_below(alphabet) | (rng.next_below(2) << 16);
                pht.train(&seq, Tag::new(next), set);
                reference.train(&raw, next, miss_index);
            }
            2 => {
                let want = reference.lookup_targets(&raw, miss_index).first().copied();
                assert_eq!(pht.lookup(&seq, set).map(Tag::raw), want, "lookup, {ctx}");
            }
            _ => {
                out.clear();
                pht.lookup_targets(&seq, set, &mut out);
                let got: Vec<u64> = out.iter().map(|t| t.raw()).collect();
                assert_eq!(
                    got,
                    reference.lookup_targets(&raw, miss_index),
                    "lookup_targets, {ctx}"
                );
            }
        }
    }
    let ctx = format!("{cfg:?} seed {seed:#x}");
    let (_, lookups, hits) = reference.counters;
    assert!(
        0 < hits && hits < lookups,
        "stream must hit and miss, {ctx}"
    );
    assert_eq!(pht.counters(), reference.counters, "counters, {ctx}");
    assert_eq!(pht.occupancy(), reference.occupancy(), "occupancy, {ctx}");
}

/// Runs the differential check over several seeds derived from `base`.
fn sweep(cfg: PhtConfig, base: u64, alphabet: u64, miss_indices: u64) {
    for i in 0..8 {
        differential(
            cfg,
            base.wrapping_add(i * 0x9E37_79B9),
            4_000,
            alphabet,
            miss_indices,
        );
    }
}

#[test]
fn one_set_two_ways_matches_reference() {
    let cfg = PhtConfig {
        sets: 1,
        assoc: 2,
        miss_index_bits: 0,
        tag_bits: 16,
        targets: 1,
    };
    sweep(cfg, 0x15E7, 4, 4);
}

#[test]
fn pht_8k_matches_reference() {
    sweep(PhtConfig::pht_8k(), 0x8000, 24, 1024);
}

#[test]
fn small_table_with_miss_index_bits_matches_reference() {
    sweep(PhtConfig::with_bytes(2 * 1024, 6), 0x2006, 12, 256);
}

#[test]
fn pht_8m_matches_reference() {
    // Few miss indices so per-set rows see repeats, hits and evictions.
    sweep(PhtConfig::pht_8m(), 0x80000, 16, 4);
}

#[test]
fn multi_target_entries_match_reference() {
    let cfg = PhtConfig {
        sets: 4,
        targets: 2,
        ..PhtConfig::pht_8k()
    };
    sweep(cfg, 0x7A2, 8, 64);
}

#[test]
fn narrow_tag_fields_match_reference() {
    let cfg = PhtConfig {
        tag_bits: 4,
        ..PhtConfig::pht_8k()
    };
    sweep(cfg, 0x7A64, 40, 64);
}
