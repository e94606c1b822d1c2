//! Chunked compare/reduce kernels for the probe, fill, and victim-select
//! hot paths.
//!
//! Every structure on the simulator's inner loop — cache sets, MSHR
//! files, the TLB, the PHT — stores its keys as contiguous integer
//! arrays (struct-of-arrays), so the questions they ask ("which way
//! holds this tag?", "which entry is oldest?") reduce to three kernels:
//!
//! * [`find_tag`] — masked first-match over one cache set (≤ 64 ways);
//! * [`find_u64`] — first-match over a dense array of any length;
//! * [`min_index`] — first index of the minimum of a dense array.
//!
//! [`find_tag`] and [`min_index`] are generic over the element width:
//! the caches and the TLB probe `u64` rows, the PHT its 16-bit entry
//! tags and LRU stamps. Every element widens losslessly to `u64`
//! (`T: Into<u64>`), and the kernels compare and reduce in that width:
//! at 16 bits a narrow min chain compiles to a compare-and-branch per
//! lane, the widened one to the same branch-free conditional moves as
//! the `u64` rows.
//!
//! Each kernel walks fixed-width `[T; CHUNK]` blocks whose trip counts
//! are compile-time constants, accumulating branch-free equality
//! bitmasks; the winning lane falls out of `trailing_zeros`, which also
//! encodes the lowest-index tie-break every caller relies on. Partial
//! tails dispatch through a slice-pattern match to the same fixed-width
//! compare, so no path ever runs a variable-trip loop — that shape is
//! what keeps the compiler from wrapping a 4-way probe in a runtime
//! vector-dispatch prologue (or a `memcpy` call for a padded tail) that
//! costs more than the probe itself.
//!
//! All three kernels have scalar reference twins (`*_scalar`) that state
//! the semantics in the obvious one-element-at-a-time form; the
//! equivalence suite in `tests/kernel_equivalence.rs` pins the pairs
//! together over exhaustive chunk-boundary lengths and randomized
//! patterns. Per-kernel memory models (reads, writes, extra bytes per
//! op) live in DESIGN.md §12.

/// Elements processed per block by the chunked kernels.
pub const CHUNK: usize = 8;

/// Equality bitmask of one fixed-width block: bit `lane` is set when
/// `xs[lane] == needle`. `N` is a compile-time constant, so the chain
/// unrolls flat.
#[inline(always)]
fn fixed_eq<T: Copy + Into<u64>, const N: usize>(xs: &[T; N], needle: u64) -> u64 {
    let mut m: u64 = 0;
    let mut lane = 0;
    while lane < N {
        m |= u64::from(xs[lane].into() == needle) << lane;
        lane += 1;
    }
    m
}

/// Equality bitmask of a partial block shorter than [`CHUNK`]: each
/// possible tail length dispatches to its own fixed-width [`fixed_eq`],
/// so the compare stays straight-line code for every arm.
#[inline(always)]
fn tail_eq<T: Copy + Into<u64>>(tail: &[T], needle: u64) -> u64 {
    debug_assert!(tail.len() < CHUNK, "tails are shorter than one block");
    match *tail {
        [] => 0,
        [a] => fixed_eq(&[a], needle),
        [a, b] => fixed_eq(&[a, b], needle),
        [a, b, c] => fixed_eq(&[a, b, c], needle),
        [a, b, c, d] => fixed_eq(&[a, b, c, d], needle),
        [a, b, c, d, e] => fixed_eq(&[a, b, c, d, e], needle),
        [a, b, c, d, e, f] => fixed_eq(&[a, b, c, d, e, f], needle),
        [a, b, c, d, e, f, g] => fixed_eq(&[a, b, c, d, e, f, g], needle),
        _ => 0,
    }
}

/// Minimum of a fixed-width block, as a branch-free reduction.
#[inline(always)]
fn fixed_min<T: Copy + Into<u64>, const N: usize>(xs: &[T; N]) -> u64 {
    let mut m = u64::MAX;
    let mut lane = 0;
    while lane < N {
        m = m.min(xs[lane].into());
        lane += 1;
    }
    m
}

/// Minimum of a partial block shorter than [`CHUNK`], dispatched like
/// [`tail_eq`]. Returns `u64::MAX` for an empty tail.
#[inline(always)]
fn tail_min<T: Copy + Into<u64>>(tail: &[T]) -> u64 {
    debug_assert!(tail.len() < CHUNK, "tails are shorter than one block");
    match *tail {
        [] => u64::MAX,
        [a] => a.into(),
        [a, b] => fixed_min(&[a, b]),
        [a, b, c] => fixed_min(&[a, b, c]),
        [a, b, c, d] => fixed_min(&[a, b, c, d]),
        [a, b, c, d, e] => fixed_min(&[a, b, c, d, e]),
        [a, b, c, d, e, f] => fixed_min(&[a, b, c, d, e, f]),
        [a, b, c, d, e, f, g] => fixed_min(&[a, b, c, d, e, f, g]),
        _ => u64::MAX,
    }
}

/// Returns the lowest index `i` with `tags[i] == needle` and bit `i` of
/// `valid_mask` set, or `None`.
///
/// This is the set-probe kernel: `tags` is one cache set's way-tag row
/// and `valid_mask` its occupancy bitmask. `tags.len()` must be at most
/// 64 (one bit per way); bits of `valid_mask` at or above `tags.len()`
/// must be zero.
#[inline(always)]
pub fn find_tag<T: Copy + Into<u64>>(tags: &[T], valid_mask: u64, needle: T) -> Option<usize> {
    debug_assert!(tags.len() <= 64, "find_tag is limited to 64 ways");
    debug_assert!(tags.len() == 64 || valid_mask >> tags.len() == 0);
    let needle = needle.into();
    let (blocks, tail) = tags.as_chunks::<CHUNK>();
    let mut eq: u64 = 0;
    let mut base = 0u32;
    for block in blocks {
        eq |= fixed_eq(block, needle) << base;
        base += CHUNK as u32;
    }
    if !tail.is_empty() {
        eq |= tail_eq(tail, needle) << base;
    }
    let hit = eq & valid_mask;
    if hit == 0 {
        None
    } else {
        Some(hit.trailing_zeros() as usize)
    }
}

/// Scalar reference for [`find_tag`]: the one-way-at-a-time probe the
/// chunked kernel must match bit for bit.
pub fn find_tag_scalar<T: Copy + PartialEq>(
    tags: &[T],
    valid_mask: u64,
    needle: T,
) -> Option<usize> {
    (0..tags.len()).find(|&i| (valid_mask >> i) & 1 == 1 && tags[i] == needle)
}

/// Returns the lowest index `i` with `xs[i] == needle`, or `None`.
///
/// The dense-array probe kernel (MSHR files, the TLB, the victim cache):
/// every element is live, and `xs` may be any length.
#[inline(always)]
pub fn find_u64(xs: &[u64], needle: u64) -> Option<usize> {
    find_first(xs, needle)
}

/// [`find_u64`] at any element width: the early-exit block scan that
/// [`min_index`] also re-runs to locate its minimum.
#[inline(always)]
fn find_first<T: Copy + Into<u64>>(xs: &[T], needle: u64) -> Option<usize> {
    let (blocks, tail) = xs.as_chunks::<CHUNK>();
    let mut base = 0usize;
    for block in blocks {
        let m = fixed_eq(block, needle);
        if m != 0 {
            return Some(base + m.trailing_zeros() as usize);
        }
        base += CHUNK;
    }
    if !tail.is_empty() {
        let m = tail_eq(tail, needle);
        if m != 0 {
            return Some(base + m.trailing_zeros() as usize);
        }
    }
    None
}

/// Scalar reference for [`find_u64`].
pub fn find_u64_scalar(xs: &[u64], needle: u64) -> Option<usize> {
    xs.iter().position(|&x| x == needle)
}

/// Returns the index of the first occurrence of the minimum of `xs`, or
/// 0 when `xs` is empty.
///
/// The victim-select kernel (LRU recency stamps): a branch-free min
/// reduction followed by a first-match scan, so the "first strict
/// minimum wins" tie-break of the replacement policies is preserved.
#[inline(always)]
pub fn min_index<T: Copy + Into<u64>>(xs: &[T]) -> usize {
    let (blocks, tail) = xs.as_chunks::<CHUNK>();
    let mut m = u64::MAX;
    for block in blocks {
        m = m.min(fixed_min(block));
    }
    m = m.min(tail_min(tail));
    find_first(xs, m).unwrap_or(0)
}

/// Scalar reference for [`min_index`]: the running first-strict-minimum
/// scan the replacement policies were originally written as.
pub fn min_index_scalar<T: Copy + Ord>(xs: &[T]) -> usize {
    let Some(&first) = xs.first() else {
        return 0;
    };
    let (mut best, mut best_v) = (0, first);
    for (i, &x) in xs.iter().enumerate() {
        if x < best_v {
            best = i;
            best_v = x;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_tag_respects_valid_mask() {
        let tags = [7u64, 7, 7, 7];
        assert_eq!(find_tag(&tags, 0b0000, 7), None);
        assert_eq!(find_tag(&tags, 0b0100, 7), Some(2));
        assert_eq!(find_tag(&tags, 0b1111, 7), Some(0));
    }

    #[test]
    fn find_tag_crosses_chunk_boundary() {
        let mut tags = [0u64; 19];
        tags[17] = 42;
        let mask = (1u64 << 19) - 1;
        assert_eq!(find_tag(&tags, mask, 42), Some(17));
        assert_eq!(find_tag(&tags, mask & !(1 << 17), 42), None);
    }

    #[test]
    fn find_tag_full_64_ways() {
        let mut tags = [1u64; 64];
        tags[63] = 9;
        assert_eq!(find_tag(&tags, u64::MAX, 9), Some(63));
        assert_eq!(find_tag(&tags, u64::MAX, 1), Some(0));
    }

    #[test]
    fn find_u64_first_match_wins() {
        assert_eq!(find_u64(&[3, 1, 4, 1, 5], 1), Some(1));
        assert_eq!(find_u64(&[3, 1, 4, 1, 5], 9), None);
        assert_eq!(find_u64(&[], 0), None);
    }

    #[test]
    fn min_index_first_minimum_wins() {
        assert_eq!(min_index(&[5u64, 2, 9, 2]), 1);
        assert_eq!(min_index(&[7u64]), 0);
        assert_eq!(min_index::<u64>(&[]), 0);
    }

    #[test]
    fn every_tail_length_matches_scalar() {
        for len in 0..2 * CHUNK {
            let xs: Vec<u64> = (0..len as u64).map(|i| i % 5).collect();
            for needle in 0..6 {
                assert_eq!(
                    find_u64(&xs, needle),
                    find_u64_scalar(&xs, needle),
                    "len {len} needle {needle}"
                );
            }
            assert_eq!(min_index(&xs), min_index_scalar(&xs), "len {len}");
        }
    }
}
