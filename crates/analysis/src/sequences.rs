//! Per-set k-tag sequence statistics (Figures 5, 6, 7, and 15).
//!
//! The collector maintains a sliding window of the last `k` tags seen in
//! each set's miss stream; every time the window is full it records one
//! k-tag sequence occurrence. Sequences are tracked both globally (how
//! many distinct sequences, how often each recurs — Figures 5/6) and per
//! set (how many sets share a sequence, how often it recurs within one
//! set — Figure 7). A sequence is *strided* when its tag deltas are
//! constant and nonzero (Figure 15).

use crate::rows::RowTable;
use tcp_mem::{SetIndex, Tag};

/// Streaming census of per-set tag sequences of length `k` (3 in the
/// paper's experiments: two tags of history plus the current one).
///
/// # Examples
///
/// ```
/// use tcp_analysis::SequenceCensus;
/// use tcp_mem::{SetIndex, Tag};
///
/// let mut c = SequenceCensus::new(1024, 3);
/// for t in [1u64, 2, 3, 1, 2, 3, 1] {
///     c.observe(Tag::new(t), SetIndex::new(0));
/// }
/// assert_eq!(c.unique_sequences(), 3); // (1,2,3), (2,3,1), (3,1,2)
/// ```
#[derive(Clone, Debug)]
pub struct SequenceCensus {
    k: usize,
    /// `sets × k` tags: each set's last `k` tags, most recent last.
    windows: Vec<u64>,
    /// Tags each set has seen, saturating at `k`.
    seen: Vec<usize>,
    /// Distinct sequences, `k` tags each.
    seqs: RowTable,
    /// Distinct `(sequence id, set)` pairs, one word each.
    seq_sets: RowTable,
    /// Distinct sequences that are strided.
    strided: u64,
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
            windows: vec![0; sets as usize * k],
            seen: vec![0; sets as usize],
            seqs: RowTable::new(k),
            seq_sets: RowTable::default(),
            strided: 0,
            total: 0,
        }
    }

    /// Sequence length `k`.
    pub fn sequence_len(&self) -> usize {
        self.k
    }

    /// Feeds one miss (its tag and set) into the census.
    pub fn observe(&mut self, tag: Tag, set: SetIndex) {
        let s = set.as_usize() % self.seen.len();
        let window = &mut self.windows[s * self.k..][..self.k];
        window.copy_within(1.., 0);
        window[self.k - 1] = tag.raw();
        if self.seen[s] < self.k {
            self.seen[s] += 1;
            if self.seen[s] < self.k {
                return;
            }
        }
        self.total += 1;
        let (id, added) = self.seqs.intern(window);
        if added && Self::is_strided(window) {
            self.strided += 1;
        }
        self.seq_sets.intern(&[u64::from(id) << 32 | s as u64]);
    }

    /// Number of distinct k-tag sequences observed (Figure 6, top).
    pub fn unique_sequences(&self) -> u64 {
        self.seqs.len() as u64
    }

    /// Total sequence occurrences.
    pub fn total_occurrences(&self) -> u64 {
        self.total
    }

    /// Mean recurrences per distinct sequence (Figure 6, bottom).
    pub fn mean_recurrences(&self) -> f64 {
        if self.seqs.is_empty() {
            0.0
        } else {
            self.total as f64 / self.seqs.len() as f64
        }
    }

    /// Observed distinct sequences as a fraction of the random upper
    /// limit `unique_tags^k` (Figure 5).
    pub fn fraction_of_upper_limit(&self, unique_tags: u64) -> f64 {
        let limit = (unique_tags as f64).powi(self.k as i32);
        if limit == 0.0 {
            0.0
        } else {
            self.seqs.len() as f64 / limit
        }
    }

    /// Mean number of distinct sets each sequence appears in (Figure 7,
    /// top).
    pub fn mean_sets_per_sequence(&self) -> f64 {
        if self.seqs.is_empty() {
            0.0
        } else {
            self.seq_sets.len() as f64 / self.seqs.len() as f64
        }
    }

    /// Mean recurrences of a sequence within each set it touches
    /// (Figure 7, bottom).
    pub fn mean_recurrence_within_set(&self) -> f64 {
        if self.seq_sets.is_empty() {
            0.0
        } else {
            self.total as f64 / self.seq_sets.len() as f64
        }
    }

    /// Fraction of distinct sequences whose tag deltas are constant and
    /// nonzero (Figure 15).
    pub fn strided_fraction(&self) -> f64 {
        if self.seqs.is_empty() {
            0.0
        } else {
            self.strided as f64 / self.seqs.len() as f64
        }
    }

    fn is_strided(seq: &[u64]) -> bool {
        if seq.len() < 2 {
            return false;
        }
        let d0 = (seq[1] as i64).wrapping_sub(seq[0] as i64);
        if d0 == 0 {
            return false;
        }
        seq.windows(2)
            .all(|w| (w[1] as i64).wrapping_sub(w[0] as i64) == d0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u32) -> SetIndex {
        SetIndex::new(x)
    }

    fn t(x: u64) -> Tag {
        Tag::new(x)
    }

    #[test]
    fn windows_warm_up_per_set() {
        let mut c = SequenceCensus::new(4, 3);
        c.observe(t(1), s(0));
        c.observe(t(2), s(0));
        assert_eq!(c.unique_sequences(), 0);
        c.observe(t(3), s(0));
        assert_eq!(c.unique_sequences(), 1);
        // Another set warms independently.
        c.observe(t(1), s(1));
        c.observe(t(2), s(1));
        assert_eq!(c.unique_sequences(), 1);
    }

    #[test]
    fn repeating_cycle_has_k_unique_sequences() {
        let mut c = SequenceCensus::new(4, 3);
        for _ in 0..10 {
            for x in [1u64, 2, 3] {
                c.observe(t(x), s(2));
            }
        }
        assert_eq!(c.unique_sequences(), 3);
        // 30 observations − 2 warmup = 28 occurrences over 3 sequences.
        assert!((c.mean_recurrences() - 28.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sharing_across_sets_is_measured() {
        let mut c = SequenceCensus::new(8, 3);
        for set in 0..8u32 {
            for x in [4u64, 5, 6] {
                c.observe(t(x), s(set));
            }
        }
        assert_eq!(c.unique_sequences(), 1);
        assert!((c.mean_sets_per_sequence() - 8.0).abs() < 1e-12);
        assert!((c.mean_recurrence_within_set() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_detection() {
        assert!(SequenceCensus::is_strided(&[1, 2, 3]));
        assert!(SequenceCensus::is_strided(&[10, 7, 4]));
        assert!(
            !SequenceCensus::is_strided(&[1, 1, 1]),
            "zero stride is not strided"
        );
        assert!(!SequenceCensus::is_strided(&[1, 2, 4]));
    }

    #[test]
    fn strided_fraction_mixes() {
        let mut c = SequenceCensus::new(2, 3);
        // Set 0: strided 1,2,3. Set 1: non-strided 5,9,6.
        for x in [1u64, 2, 3] {
            c.observe(t(x), s(0));
        }
        for x in [5u64, 9, 6] {
            c.observe(t(x), s(1));
        }
        assert!((c.strided_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_upper_limit() {
        let mut c = SequenceCensus::new(2, 3);
        for x in [1u64, 2, 3, 1, 2, 3] {
            c.observe(t(x), s(0));
        }
        // 4 unique sequences? 1,2,3 / 2,3,1 / 3,1,2 / 2,3,1... count: the
        // stream 1,2,3,1,2,3 yields windows (1,2,3),(2,3,1),(3,1,2),(1,2,3).
        assert_eq!(c.unique_sequences(), 3);
        // 3 unique tags → limit 27.
        assert!((c.fraction_of_upper_limit(3) - 3.0 / 27.0).abs() < 1e-12);
    }

    #[test]
    fn longer_k_supported() {
        let mut c = SequenceCensus::new(2, 4);
        for x in 0..20u64 {
            c.observe(t(x), s(0));
        }
        assert_eq!(c.unique_sequences(), 17);
        assert!((c.strided_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn k_of_one_rejected() {
        let _ = SequenceCensus::new(4, 1);
    }
}
