//! Differential suite for the Section 3 censuses: `TagCensus`,
//! `AddressCensus`, `TagSpread` and `SequenceCensus` against the
//! map-based collectors they replaced, kept verbatim below as the
//! reference.
//!
//! Seeded miss streams vary the tag alphabet (1–8 tags, and about 10⁴),
//! the set count (1 to 1,024, plus set indices past the census's set
//! count) and the sequence length k (2 to 5). Every statistic is read
//! between observations as well as at the end and must match exactly:
//! counts equal, and every `f64` equal bit for bit.

use std::collections::BTreeSet;

use tcp_analysis::{AddressCensus, SequenceCensus, TagCensus, TagSpread};
use tcp_mem::{LineAddr, SetIndex, SplitMix64, Tag};

/// The collectors as they were before they moved onto flat row tables:
/// `HashMap`/`BTreeMap` censuses that clone each k-tag window. The code
/// is unchanged; only the rustdoc examples are left out.
mod reference {
    pub mod census {
        use std::collections::HashMap;
        use tcp_mem::{LineAddr, SetIndex, Tag};

        /// Counts unique tags and their recurrences (Figure 2).
        #[derive(Clone, Debug, Default)]
        pub struct TagCensus {
            counts: HashMap<u64, u64>,
            total: u64,
        }

        impl TagCensus {
            /// Creates an empty census.
            pub fn new() -> Self {
                TagCensus::default()
            }

            /// Records one miss-stream occurrence of `tag`.
            pub fn observe_tag(&mut self, tag: Tag) {
                *self.counts.entry(tag.raw()).or_insert(0) += 1;
                self.total += 1;
            }

            /// Number of distinct tags observed.
            pub fn unique(&self) -> u64 {
                self.counts.len() as u64
            }

            /// Total observations.
            pub fn total(&self) -> u64 {
                self.total
            }

            /// Mean number of appearances per distinct tag.
            pub fn mean_recurrences(&self) -> f64 {
                if self.counts.is_empty() {
                    0.0
                } else {
                    self.total as f64 / self.counts.len() as f64
                }
            }
        }

        /// Counts unique line addresses and their recurrences (Figure 3).
        #[derive(Clone, Debug, Default)]
        pub struct AddressCensus {
            counts: HashMap<u64, u64>,
            total: u64,
        }

        impl AddressCensus {
            /// Creates an empty census.
            pub fn new() -> Self {
                AddressCensus::default()
            }

            /// Records one miss-stream occurrence of `line`.
            pub fn observe_line(&mut self, line: LineAddr) {
                *self.counts.entry(line.line_number()).or_insert(0) += 1;
                self.total += 1;
            }

            /// Number of distinct line addresses observed.
            pub fn unique(&self) -> u64 {
                self.counts.len() as u64
            }

            /// Total observations.
            pub fn total(&self) -> u64 {
                self.total
            }

            /// Mean number of appearances per distinct address.
            pub fn mean_recurrences(&self) -> f64 {
                if self.counts.is_empty() {
                    0.0
                } else {
                    self.total as f64 / self.counts.len() as f64
                }
            }
        }

        /// Splits tag recurrences into cross-set spread and within-set reuse
        /// (Figure 4): spatial versus temporal locality of tags.
        #[derive(Clone, Debug, Default)]
        pub struct TagSpread {
            per_tag_set: HashMap<(u64, u32), u64>,
            per_tag: HashMap<u64, u64>,
            total: u64,
        }

        impl TagSpread {
            /// Creates an empty collector.
            pub fn new() -> Self {
                TagSpread::default()
            }

            /// Records a miss on `tag` in `set`.
            pub fn observe(&mut self, tag: Tag, set: SetIndex) {
                *self.per_tag_set.entry((tag.raw(), set.raw())).or_insert(0) += 1;
                *self.per_tag.entry(tag.raw()).or_insert(0) += 1;
                self.total += 1;
            }

            /// Mean number of distinct sets each tag appeared in (Figure 4, top).
            pub fn mean_sets_per_tag(&self) -> f64 {
                if self.per_tag.is_empty() {
                    0.0
                } else {
                    self.per_tag_set.len() as f64 / self.per_tag.len() as f64
                }
            }

            /// Mean number of times a tag appears within each set it touches
            /// (Figure 4, bottom).
            pub fn mean_recurrence_within_set(&self) -> f64 {
                if self.per_tag_set.is_empty() {
                    0.0
                } else {
                    self.total as f64 / self.per_tag_set.len() as f64
                }
            }

            /// Number of distinct tags observed.
            pub fn unique_tags(&self) -> u64 {
                self.per_tag.len() as u64
            }
        }

        impl TagCensus {
            /// Occurrences of `tag` (reads the map the reference counts
            /// into; not part of the verbatim code).
            pub fn count_of(&self, tag: u64) -> u64 {
                self.counts.get(&tag).copied().unwrap_or(0)
            }
        }
    }

    pub mod sequences {
        use std::collections::BTreeMap;
        use tcp_mem::{SetIndex, Tag};

        /// Streaming census of per-set tag sequences of length `k` (3 in the
        /// paper's experiments: two tags of history plus the current one).
        #[derive(Clone, Debug)]
        pub struct SequenceCensus {
            k: usize,
            windows: Vec<Vec<u64>>, // per set, most recent last
            filled: Vec<u8>,
            seq_counts: BTreeMap<Vec<u64>, u64>,
            seq_set_counts: BTreeMap<(Vec<u64>, u32), u64>,
            total: u64,
        }

        impl SequenceCensus {
            /// Creates a census for `sets` cache sets and sequence length `k`.
            ///
            /// # Panics
            ///
            /// Panics if `sets` is zero or `k < 2`.
            pub fn new(sets: u32, k: usize) -> Self {
                assert!(sets > 0, "need at least one set");
                assert!(k >= 2, "sequences shorter than 2 carry no correlation");
                SequenceCensus {
                    k,
                    windows: vec![Vec::with_capacity(k); sets as usize],
                    filled: vec![0; sets as usize],
                    seq_counts: BTreeMap::new(),
                    seq_set_counts: BTreeMap::new(),
                    total: 0,
                }
            }

            /// Sequence length `k`.
            pub fn sequence_len(&self) -> usize {
                self.k
            }

            /// Feeds one miss (its tag and set) into the census.
            pub fn observe(&mut self, tag: Tag, set: SetIndex) {
                let s = set.as_usize() % self.windows.len();
                let w = &mut self.windows[s];
                if w.len() == self.k {
                    w.remove(0);
                }
                w.push(tag.raw());
                if w.len() == self.k {
                    self.total += 1;
                    *self.seq_counts.entry(w.clone()).or_insert(0) += 1;
                    *self
                        .seq_set_counts
                        .entry((w.clone(), s as u32))
                        .or_insert(0) += 1;
                } else {
                    self.filled[s] = w.len() as u8;
                }
            }

            /// Number of distinct k-tag sequences observed (Figure 6, top).
            pub fn unique_sequences(&self) -> u64 {
                self.seq_counts.len() as u64
            }

            /// Total sequence occurrences.
            pub fn total_occurrences(&self) -> u64 {
                self.total
            }

            /// Mean recurrences per distinct sequence (Figure 6, bottom).
            pub fn mean_recurrences(&self) -> f64 {
                if self.seq_counts.is_empty() {
                    0.0
                } else {
                    self.total as f64 / self.seq_counts.len() as f64
                }
            }

            /// Observed distinct sequences as a fraction of the random upper
            /// limit `unique_tags^k` (Figure 5).
            pub fn fraction_of_upper_limit(&self, unique_tags: u64) -> f64 {
                let limit = (unique_tags as f64).powi(self.k as i32);
                if limit == 0.0 {
                    0.0
                } else {
                    self.seq_counts.len() as f64 / limit
                }
            }

            /// Mean number of distinct sets each sequence appears in (Figure 7,
            /// top).
            pub fn mean_sets_per_sequence(&self) -> f64 {
                if self.seq_counts.is_empty() {
                    0.0
                } else {
                    self.seq_set_counts.len() as f64 / self.seq_counts.len() as f64
                }
            }

            /// Mean recurrences of a sequence within each set it touches
            /// (Figure 7, bottom).
            pub fn mean_recurrence_within_set(&self) -> f64 {
                if self.seq_set_counts.is_empty() {
                    0.0
                } else {
                    self.total as f64 / self.seq_set_counts.len() as f64
                }
            }

            /// Fraction of distinct sequences whose tag deltas are constant and
            /// nonzero (Figure 15).
            pub fn strided_fraction(&self) -> f64 {
                if self.seq_counts.is_empty() {
                    return 0.0;
                }
                let strided = self
                    .seq_counts
                    .keys()
                    .filter(|seq| Self::is_strided(seq))
                    .count();
                strided as f64 / self.seq_counts.len() as f64
            }

            fn is_strided(seq: &[u64]) -> bool {
                if seq.len() < 2 {
                    return false;
                }
                let d0 = seq[1] as i64 - seq[0] as i64;
                if d0 == 0 {
                    return false;
                }
                seq.windows(2).all(|w| w[1] as i64 - w[0] as i64 == d0)
            }
        }
    }
}

/// One miss of a seeded stream.
#[derive(Clone, Copy, Debug)]
struct Miss {
    tag: Tag,
    set: SetIndex,
    line: LineAddr,
}

/// The shape of a seeded miss stream.
#[derive(Clone, Copy, Debug)]
struct StreamSpec {
    seed: u64,
    /// Distinct tags the stream draws from.
    alphabet: u64,
    /// Sets the censuses are built for.
    sets: u32,
    /// Set indices are drawn below `sets × set_span`: a span above 1
    /// feeds indices the sequence census must fold back into range.
    set_span: u32,
    misses: usize,
}

/// A miss stream with the structure the censuses measure: per-set runs
/// that step through the alphabet (strided sequences), repeats of a
/// set's last tag (zero strides), and uniform draws. Tags are
/// `base + step × index` with a seeded base below 2⁴⁰ and a seeded step,
/// so strides come out nonzero and tag differences fit in an `i64`.
fn stream(spec: StreamSpec) -> Vec<Miss> {
    let mut rng = SplitMix64::new(spec.seed);
    let base = rng.next_below(1 << 40);
    let step = [1, 3, 1 << 20][rng.next_below(3) as usize];
    let set_range = u64::from(spec.sets) * u64::from(spec.set_span);
    let mut last = vec![0u64; set_range as usize];
    (0..spec.misses)
        .map(|_| {
            let set = rng.next_below(set_range) as usize;
            let index = match rng.next_below(4) {
                0 | 1 => (last[set] + 1) % spec.alphabet,
                2 => last[set],
                _ => rng.next_below(spec.alphabet),
            };
            last[set] = index;
            let tag = base + step * index;
            Miss {
                tag: Tag::new(tag),
                set: SetIndex::new(set as u32),
                line: LineAddr::from_line_number(tag << 10 | (set as u64 & 1023)),
            }
        })
        .collect()
}

/// The four collectors under test and their four references, fed the
/// same misses.
struct Pair {
    tags: TagCensus,
    addrs: AddressCensus,
    spread: TagSpread,
    seqs: SequenceCensus,
    ref_tags: reference::census::TagCensus,
    ref_addrs: reference::census::AddressCensus,
    ref_spread: reference::census::TagSpread,
    ref_seqs: reference::sequences::SequenceCensus,
    /// Tags in first-seen order, to line up `per_tag_counts`.
    first_seen: Vec<u64>,
    seen: BTreeSet<u64>,
}

impl Pair {
    fn new(sets: u32, k: usize) -> Self {
        Pair {
            tags: TagCensus::new(),
            addrs: AddressCensus::new(),
            spread: TagSpread::new(),
            seqs: SequenceCensus::new(sets, k),
            ref_tags: reference::census::TagCensus::new(),
            ref_addrs: reference::census::AddressCensus::new(),
            ref_spread: reference::census::TagSpread::new(),
            ref_seqs: reference::sequences::SequenceCensus::new(sets, k),
            first_seen: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    fn observe(&mut self, m: Miss) {
        self.tags.observe_tag(m.tag);
        self.addrs.observe_line(m.line);
        self.spread.observe(m.tag, m.set);
        self.seqs.observe(m.tag, m.set);
        self.ref_tags.observe_tag(m.tag);
        self.ref_addrs.observe_line(m.line);
        self.ref_spread.observe(m.tag, m.set);
        self.ref_seqs.observe(m.tag, m.set);
        if self.seen.insert(m.tag.raw()) {
            self.first_seen.push(m.tag.raw());
        }
    }

    /// Every statistic of every collector against its reference.
    fn check(&self, at: &str) {
        // Compares bit patterns but prints the values.
        let bits = |x: f64| F64Bits(x);
        let (t, rt) = (&self.tags, &self.ref_tags);
        assert_eq!(t.unique(), rt.unique(), "{at}: unique tags");
        assert_eq!(t.total(), rt.total(), "{at}: tag total");
        assert_eq!(
            bits(t.mean_recurrences()),
            bits(rt.mean_recurrences()),
            "{at}: tag recurrences"
        );
        let counts: Vec<u64> = self.first_seen.iter().map(|&x| rt.count_of(x)).collect();
        assert_eq!(t.per_tag_counts(), &counts[..], "{at}: per-tag counts");

        let (a, ra) = (&self.addrs, &self.ref_addrs);
        assert_eq!(a.unique(), ra.unique(), "{at}: unique lines");
        assert_eq!(a.total(), ra.total(), "{at}: line total");
        assert_eq!(
            bits(a.mean_recurrences()),
            bits(ra.mean_recurrences()),
            "{at}: line recurrences"
        );

        let (s, rs) = (&self.spread, &self.ref_spread);
        assert_eq!(s.unique_tags(), rs.unique_tags(), "{at}: spread tags");
        assert_eq!(
            bits(s.mean_sets_per_tag()),
            bits(rs.mean_sets_per_tag()),
            "{at}: sets per tag"
        );
        assert_eq!(
            bits(s.mean_recurrence_within_set()),
            bits(rs.mean_recurrence_within_set()),
            "{at}: tag recurrence within a set"
        );

        let (q, rq) = (&self.seqs, &self.ref_seqs);
        assert_eq!(q.sequence_len(), rq.sequence_len(), "{at}: k");
        assert_eq!(
            q.unique_sequences(),
            rq.unique_sequences(),
            "{at}: unique sequences"
        );
        assert_eq!(
            q.total_occurrences(),
            rq.total_occurrences(),
            "{at}: occurrences"
        );
        assert_eq!(
            bits(q.mean_recurrences()),
            bits(rq.mean_recurrences()),
            "{at}: sequence recurrences"
        );
        for unique_tags in [0, 1, t.unique(), 10_000] {
            assert_eq!(
                bits(q.fraction_of_upper_limit(unique_tags)),
                bits(rq.fraction_of_upper_limit(unique_tags)),
                "{at}: fraction of the upper limit for {unique_tags} tags"
            );
        }
        assert_eq!(
            bits(q.mean_sets_per_sequence()),
            bits(rq.mean_sets_per_sequence()),
            "{at}: sets per sequence"
        );
        assert_eq!(
            bits(q.mean_recurrence_within_set()),
            bits(rq.mean_recurrence_within_set()),
            "{at}: sequence recurrence within a set"
        );
        assert_eq!(
            bits(q.strided_fraction()),
            bits(rq.strided_fraction()),
            "{at}: strided fraction"
        );
    }
}

/// An `f64` that compares equal only bit for bit.
#[derive(Debug)]
struct F64Bits(f64);

impl PartialEq for F64Bits {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

/// Feeds `spec`'s stream at sequence length `k` to both sides, checking
/// after each observation whose index `read_at` picks, and at the end.
fn run(spec: StreamSpec, k: usize, read_at: impl Fn(usize) -> bool) {
    let mut pair = Pair::new(spec.sets, k);
    pair.check(&format!("{spec:?} k={k} empty"));
    for (i, m) in stream(spec).into_iter().enumerate() {
        pair.observe(m);
        if read_at(i) {
            pair.check(&format!("{spec:?} k={k} after miss {i}"));
        }
    }
    pair.check(&format!("{spec:?} k={k} at the end"));
}

/// Picks geometrically spaced observations: the 1st, 2nd, 3rd, 4th, 6th,
/// 8th, 12th, 16th, …
fn sparse(i: usize) -> bool {
    let n = i + 1;
    n < 4 || n.is_power_of_two() || (n.is_multiple_of(3) && (n / 3).is_power_of_two())
}

#[test]
fn small_alphabets_match_the_reference() {
    let mut seed = 1;
    for alphabet in 1..=8 {
        for sets in [1, 2, 7, 64, 1024] {
            for k in 2..=5 {
                seed += 1;
                let spec = StreamSpec {
                    seed,
                    alphabet,
                    sets,
                    set_span: 1,
                    misses: 1_500,
                };
                run(spec, k, sparse);
            }
        }
    }
}

#[test]
fn a_large_alphabet_matches_the_reference() {
    for (i, sets) in [1, 16, 1024].into_iter().enumerate() {
        for k in 2..=5 {
            let spec = StreamSpec {
                seed: 1_000 + 10 * i as u64 + k as u64,
                alphabet: 10_000,
                sets,
                set_span: 1,
                misses: 15_000,
            };
            run(spec, k, sparse);
        }
    }
}

#[test]
fn statistics_read_after_every_miss_match_the_reference() {
    for (alphabet, sets, k) in [(3, 1, 2), (5, 4, 3), (8, 32, 4), (10_000, 8, 5)] {
        let spec = StreamSpec {
            seed: 77 + alphabet,
            alphabet,
            sets,
            set_span: 1,
            misses: 1_500,
        };
        run(spec, k, |_| true);
    }
}

#[test]
fn set_indices_past_the_census_fold_like_the_reference() {
    for (alphabet, sets, k) in [(4, 1, 3), (6, 3, 2), (10_000, 100, 3)] {
        let spec = StreamSpec {
            seed: 500 + u64::from(sets),
            alphabet,
            sets,
            set_span: 4,
            misses: 5_000,
        };
        run(spec, k, sparse);
    }
}
