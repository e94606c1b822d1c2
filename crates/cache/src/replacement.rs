//! Replacement policies for set-associative caches.

use crate::kernels;
use tcp_mem::SplitMix64;

/// Victim-selection policy within a cache set.
///
/// The paper's caches are LRU (Table 1); Random and tree-PLRU are the
/// alternative L2 policies the `ablate` sweep measures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Replacement {
    /// Evict the least-recently-used way (the paper's configuration).
    #[default]
    Lru,
    /// Evict a pseudo-random way (deterministic, seeded).
    Random(SplitMix64),
    /// Tree pseudo-LRU: the one-bit-per-node approximation real caches
    /// implement. Approximated here from access recency: follow the
    /// less-recent half of the ways at each tree level.
    TreePlru,
}

impl Replacement {
    /// Creates the deterministic random policy from a seed.
    pub fn random(seed: u64) -> Self {
        Replacement::Random(SplitMix64::new(seed))
    }

    /// Chooses a victim among occupied ways whose last-access order
    /// stamps are `last` — the cache's contiguous per-set stamp row, so
    /// LRU runs as a chunked min-reduction ([`kernels::min_index`]).
    ///
    /// Invalid (empty) ways are handled by the cache before this is
    /// called; this method only picks among occupied ways. LRU and
    /// tree-PLRU ties break toward the lowest way index.
    ///
    /// # Panics
    ///
    /// Panics if `last` is empty.
    #[inline]
    pub fn choose_victim_in(&mut self, last: &[u64]) -> usize {
        assert!(!last.is_empty(), "cannot choose a victim among zero ways");
        match self {
            Replacement::Lru => kernels::min_index(last),
            Replacement::Random(rng) => rng.next_below(last.len() as u64) as usize,
            Replacement::TreePlru => {
                // Binary descent: at each level keep the half whose most
                // recent access is older (the half the PLRU bits would
                // point away from).
                let mut lo = 0usize;
                let mut hi = last.len();
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    let newest_left = last[lo..mid].iter().copied().max().unwrap_or(0);
                    let newest_right = last[mid..hi].iter().copied().max().unwrap_or(0);
                    if newest_left <= newest_right {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                lo
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_least_recent() {
        assert_eq!(Replacement::Lru.choose_victim_in(&[5, 2, 9]), 1);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = Replacement::random(42);
        let mut b = Replacement::random(42);
        let last = [0, 1, 2, 3];
        for _ in 0..32 {
            let va = a.choose_victim_in(&last);
            assert_eq!(va, b.choose_victim_in(&last));
            assert!(va < 4);
        }
    }

    #[test]
    fn tree_plru_picks_from_the_older_half() {
        let mut p = Replacement::TreePlru;
        // Ways 0..3 with recency (5, 9, 1, 2): right half (1, 2) is older,
        // and within it way 2 (recency 1) is chosen.
        assert_eq!(p.choose_victim_in(&[5, 9, 1, 2]), 2);
        // All-left-recent: victim comes from the right.
        assert!(p.choose_victim_in(&[10, 11, 1, 3]) >= 2);
    }

    #[test]
    fn tree_plru_matches_lru_for_two_ways() {
        let mut plru = Replacement::TreePlru;
        let mut lru = Replacement::Lru;
        for last in [[3u64, 7], [9, 2], [1, 1]] {
            assert_eq!(plru.choose_victim_in(&last), lru.choose_victim_in(&last));
        }
    }

    #[test]
    fn tree_plru_never_evicts_the_most_recent_way() {
        let mut p = Replacement::TreePlru;
        for newest in 0..8usize {
            let last: Vec<u64> = (0..8)
                .map(|i| if i == newest { 100 } else { i as u64 })
                .collect();
            assert_ne!(p.choose_victim_in(&last), newest, "MRU way must survive");
        }
    }

    #[test]
    #[should_panic(expected = "zero ways")]
    fn empty_ways_panics() {
        Replacement::Lru.choose_victim_in(&[]);
    }

    #[test]
    #[should_panic(expected = "zero ways")]
    fn in_form_empty_panics() {
        // The emptiness check runs before any policy arm, so Random never
        // reaches a draw below zero.
        Replacement::random(1).choose_victim_in(&[]);
    }

    /// The obvious statement of each policy, one way at a time.
    fn reference(policy: &mut Replacement, last: &[u64]) -> usize {
        match policy {
            // First strict minimum.
            Replacement::Lru => {
                let mut best = 0;
                for (i, &x) in last.iter().enumerate() {
                    if x < last[best] {
                        best = i;
                    }
                }
                best
            }
            Replacement::Random(rng) => rng.next_below(last.len() as u64) as usize,
            // Recurse into the half whose newest stamp is older; the left
            // half on a tie.
            Replacement::TreePlru => {
                if last.len() == 1 {
                    return 0;
                }
                let (left, right) = last.split_at(last.len() / 2);
                let newest = |half: &[u64]| half.iter().copied().max().unwrap();
                if newest(left) <= newest(right) {
                    reference(policy, left)
                } else {
                    left.len() + reference(policy, right)
                }
            }
        }
    }

    #[test]
    fn in_form_matches_naive_reference_including_ties() {
        let mut rng = SplitMix64::new(0x5eed);
        for case in 0..2_000 {
            let ways = 1 + rng.next_below(64) as usize;
            // A small stamp range forces many ties within a row.
            let range = 1 + rng.next_below(if case % 2 == 0 { 4 } else { 1 << 20 });
            let last: Vec<u64> = (0..ways).map(|_| rng.next_below(range)).collect();
            for p in [
                Replacement::Lru,
                Replacement::TreePlru,
                Replacement::random(9),
            ] {
                let (mut fast, mut slow) = (p, p);
                assert_eq!(
                    fast.choose_victim_in(&last),
                    reference(&mut slow, &last),
                    "{p:?} on {last:?}"
                );
            }
        }
    }
}
