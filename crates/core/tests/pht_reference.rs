//! Differential suite: `PatternHistoryTable` against a naive reference
//! PHT written from the Figure 9 text and the type docs.
//!
//! The reference (`reference/mod.rs`) keeps a map from PHT index to
//! ways, each an entry tag with a successor list and a stamp from one
//! global `u64` clock. Seeded `SplitMix64` streams of `train`, `lookup`
//! and `lookup_targets` over small tag alphabets drive both tables, so
//! hits, sum aliasing, tag truncation and evictions all occur. Long
//! one-row streams wrap the table's 16-bit per-row clocks several times
//! between evictions, and a scripted stream wraps one in a row that
//! still has free ways. Every prediction, the final `counters()` and
//! `occupancy()` must agree; a failure names its seed and step.
//! `scripts/check-robustness.sh` runs this suite.

mod reference;

use reference::RefPht;
use tcp_core::{PatternHistoryTable, PhtConfig};
use tcp_mem::{SetIndex, SplitMix64, Tag};

/// What one seeded stream draws.
#[derive(Clone, Copy)]
struct Stream {
    /// Operations drawn.
    steps: usize,
    /// Distinct tag values below the aliasing bit 16.
    alphabet: u64,
    /// Odd multiplier taking tag value `v` to `v * spread` mod 2^16, so
    /// tags and successors fill the field's high byte (1 keeps them
    /// small).
    spread: u64,
    /// Miss indices are drawn from `0..miss_indices`.
    miss_indices: u64,
}

impl Stream {
    fn new(steps: usize, alphabet: u64, miss_indices: u64) -> Self {
        Stream {
            steps,
            alphabet,
            spread: 1,
            miss_indices,
        }
    }

    /// One tag: a value of the alphabet, spread, with an occasional high
    /// bit above the 16-bit field that aliases it under truncation.
    fn tag(&self, rng: &mut SplitMix64) -> u64 {
        ((rng.next_below(self.alphabet) * self.spread) & 0xFFFF) | (rng.next_below(2) << 16)
    }
}

/// The table and the reference, driven in lockstep: every lookup must
/// agree.
struct Pair {
    pht: PatternHistoryTable,
    reference: RefPht,
    out: Vec<Tag>,
}

fn tags(raw: &[u64]) -> Vec<Tag> {
    raw.iter().copied().map(Tag::new).collect()
}

impl Pair {
    fn new(cfg: PhtConfig) -> Self {
        Pair {
            pht: PatternHistoryTable::new(cfg),
            reference: RefPht::new(cfg),
            out: Vec::new(),
        }
    }

    fn train(&mut self, seq: &[u64], next: u64, miss_index: u32) {
        let set = SetIndex::new(miss_index);
        self.pht.train(&tags(seq), Tag::new(next), set);
        self.reference.train(seq, next, miss_index);
    }

    fn lookup(&mut self, seq: &[u64], miss_index: u32, ctx: &dyn Fn() -> String) {
        let want = self
            .reference
            .lookup_targets(seq, miss_index)
            .first()
            .copied();
        let got = self.pht.lookup(&tags(seq), SetIndex::new(miss_index));
        assert_eq!(got.map(Tag::raw), want, "lookup, {}", ctx());
    }

    fn lookup_targets(&mut self, seq: &[u64], miss_index: u32, ctx: &dyn Fn() -> String) {
        self.out.clear();
        let set = SetIndex::new(miss_index);
        self.pht.lookup_targets(&tags(seq), set, &mut self.out);
        let got: Vec<u64> = self.out.iter().map(|t| t.raw()).collect();
        let want = self.reference.lookup_targets(seq, miss_index);
        assert_eq!(got, want, "lookup_targets, {}", ctx());
    }

    /// The final `counters()` and `occupancy()` must agree too.
    fn check_state(&self, ctx: &str) {
        assert_eq!(
            self.pht.counters(),
            self.reference.counters,
            "counters, {ctx}"
        );
        let occupancy = self.reference.occupancy();
        assert_eq!(self.pht.occupancy(), occupancy, "occupancy, {ctx}");
    }
}

/// Drives both tables with the stream's random operations from `seed`,
/// checks that every prediction and the final state agree, and returns
/// the reference for the caller's coverage checks.
fn differential(cfg: PhtConfig, seed: u64, stream: Stream) -> RefPht {
    let mut rng = SplitMix64::new(seed);
    let mut pair = Pair::new(cfg);
    for step in 0..stream.steps {
        // Sequences of one to three tags.
        let len = 1 + rng.next_below(3) as usize;
        let seq: Vec<u64> = (0..len).map(|_| stream.tag(&mut rng)).collect();
        let miss_index = rng.next_below(stream.miss_indices) as u32;
        let ctx = || format!("{cfg:?} seed {seed:#x} step {step}");
        match rng.next_below(4) {
            0 | 1 => {
                let next = stream.tag(&mut rng);
                pair.train(&seq, next, miss_index);
            }
            2 => pair.lookup(&seq, miss_index, &ctx),
            _ => pair.lookup_targets(&seq, miss_index, &ctx),
        }
    }
    let ctx = format!("{cfg:?} seed {seed:#x}");
    let (_, lookups, hits) = pair.reference.counters;
    assert!(
        0 < hits && hits < lookups,
        "stream must hit and miss, {ctx}"
    );
    pair.check_state(&ctx);
    pair.reference
}

/// Runs the differential check over several seeds derived from `base`.
fn sweep(cfg: PhtConfig, base: u64, alphabet: u64, miss_indices: u64) {
    for i in 0..8 {
        let seed = base.wrapping_add(i * 0x9E37_79B9);
        differential(cfg, seed, Stream::new(4_000, alphabet, miss_indices));
    }
}

/// A one-set table, so every train and lookup hit touches its one row.
fn one_row(assoc: u32, tag_bits: u32, targets: u32) -> PhtConfig {
    PhtConfig {
        sets: 1,
        assoc,
        miss_index_bits: 0,
        tag_bits,
        targets,
    }
}

/// Touches of a row before its 16-bit LRU clock must be compressed.
const CLOCK_SPAN: u64 = u16::MAX as u64;

/// Runs a long one-row stream and checks that it touched the row often
/// enough for its clock to compress `wraps` times, with evictions
/// between them.
fn long_one_row(cfg: PhtConfig, seed: u64, stream: Stream, wraps: u64) {
    let reference = differential(cfg, seed, stream);
    let (trains, _, hits) = reference.counters;
    assert!(
        trains + hits > wraps * CLOCK_SPAN,
        "{cfg:?}: {} touches cannot wrap the clock {wraps} times",
        trains + hits
    );
    assert!(
        reference.evictions > wraps * 1_000,
        "{cfg:?}: only {} evictions",
        reference.evictions
    );
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

#[test]
fn eight_way_row_clock_compresses_and_matches_reference() {
    // Twelve entry tags contend for eight ways of one row while the
    // row's clock wraps three times.
    long_one_row(one_row(8, 16, 1), 0xC10C, Stream::new(300_000, 12, 1), 3);
}

#[test]
fn sixty_four_way_two_target_row_clock_compresses_and_matches_reference() {
    // Spread tags: successors use the field's high byte.
    let stream = Stream {
        spread: 0x9E5,
        ..Stream::new(300_000, 80, 1)
    };
    long_one_row(one_row(64, 16, 2), 0x64C10C, stream, 3);
}

#[test]
fn wide_rows_with_narrow_or_full_fields_match_reference() {
    for (assoc, tag_bits, targets) in [(64, 4, 2), (64, 16, 2), (64, 16, 1), (16, 4, 2)] {
        let cfg = PhtConfig {
            sets: 8,
            assoc,
            miss_index_bits: 1,
            tag_bits,
            targets,
        };
        let stream = Stream {
            spread: 0x9E5,
            ..Stream::new(20_000, 160, 8)
        };
        differential(cfg, 0x64_0000 + u64::from(assoc * tag_bits), stream);
    }
}

#[test]
fn clock_wrap_in_a_part_full_row_matches_reference() {
    // One entry holds a row until its clock is about to wrap, so the
    // wrap ranks a row whose other ways are free. New entries then fill
    // the row and evict the oldest; the lookups show whether each wrap
    // (before, during or after the fills) kept the stamps in order.
    for assoc in [4, 64] {
        let cfg = one_row(assoc, 16, 1);
        for extra in 0..4u64 {
            let mut pair = Pair::new(cfg);
            let ctx = || format!("{assoc} ways, {extra} touches past the span");
            for _ in 0..CLOCK_SPAN - 2 + extra {
                pair.train(&[1], 7, 0);
            }
            let tags = 1..u64::from(assoc) + 4;
            for tag in tags.clone().skip(1) {
                pair.train(&[tag], 100 + tag, 0);
            }
            for tag in tags {
                pair.lookup(&[tag], 0, &ctx);
            }
            pair.check_state(&ctx());
        }
    }
}

#[test]
#[should_panic(expected = "tag width")]
fn tag_fields_wider_than_16_bits_rejected() {
    let _ = PatternHistoryTable::new(PhtConfig {
        tag_bits: 17,
        ..PhtConfig::pht_8k()
    });
}

#[test]
#[should_panic(expected = "targets per entry")]
fn more_than_255_targets_rejected() {
    let _ = PatternHistoryTable::new(PhtConfig {
        targets: 256,
        ..PhtConfig::pht_8k()
    });
}
