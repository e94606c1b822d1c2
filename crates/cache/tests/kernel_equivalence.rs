//! Equivalence suite for the chunked probe kernels (`tcp_cache::kernels`)
//! against their scalar reference twins.
//!
//! The chunked kernels process tags in fixed blocks of 8 elements with a
//! slice-pattern tail dispatch (DESIGN.md §12); every block/tail split in
//! `0..=2×CHUNK` plus SplitMix64-randomized longer rows must agree with
//! the one-element-at-a-time scalar implementations on hit way, miss,
//! and tie-breaking. The generic `find_tag` and `min_index` are checked
//! on `u64` rows (the caches) and on `u16` rows (the PHT).
//! `scripts/check-robustness.sh` runs this suite.

use std::fmt::Debug;
use tcp_cache::kernels::{
    find_tag, find_tag_scalar, find_u64, find_u64_scalar, min_index, min_index_scalar, CHUNK,
};
use tcp_mem::SplitMix64;

/// Mask of `len` low bits (the all-valid mask for a row of `len` ways).
fn full_mask(len: usize) -> u64 {
    if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Rows exercising every block/tail split the kernels can see: every
/// length in `0..=2×CHUNK` (one full block either side of the boundary)
/// and a band of longer rows up to the 64-way kernel limit.
fn lengths() -> impl Iterator<Item = usize> {
    (0..=2 * CHUNK).chain([3 * CHUNK - 1, 3 * CHUNK, 37, 63, 64])
}

/// A row of tags drawn from a small alphabet, so duplicates and
/// repeated-minimum ties occur constantly.
fn random_row(rng: &mut SplitMix64, len: usize, alphabet: u64) -> Vec<u64> {
    (0..len).map(|_| rng.next_below(alphabet)).collect()
}

/// `find_tag` against its scalar twin on rows of `T` drawn from `seed`;
/// `lane` narrows each drawn value to `T`.
fn find_tag_matches_scalar<T: Copy + PartialEq + Into<u64> + Debug>(seed: u64, lane: fn(u64) -> T) {
    let mut rng = SplitMix64::new(seed);
    for len in lengths() {
        for round in 0..200 {
            // Narrow alphabets force hits and multi-way duplicates; wide
            // ones force misses.
            let alphabet = if round % 2 == 0 { 4 } else { 1 << 16 };
            let tags: Vec<T> = random_row(&mut rng, len, alphabet)
                .into_iter()
                .map(lane)
                .collect();
            let needle = lane(rng.next_below(alphabet));
            // All-valid, random, and empty masks.
            for mask in [full_mask(len), rng.next_u64() & full_mask(len), 0] {
                assert_eq!(
                    find_tag(&tags, mask, needle),
                    find_tag_scalar(&tags, mask, needle),
                    "len {len} mask {mask:#x} needle {needle:?} tags {tags:?}"
                );
            }
        }
    }
}

/// `min_index` against its scalar twin on rows of `T` drawn from
/// `seed`; `lane` narrows each drawn value to `T`.
fn min_index_matches_scalar<T: Copy + Ord + Into<u64> + Debug>(seed: u64, lane: fn(u64) -> T) {
    let mut rng = SplitMix64::new(seed);
    for len in lengths() {
        if len == 0 {
            continue; // min of an empty row is undefined for both forms
        }
        for round in 0..200 {
            // Tiny alphabets make duplicate minima (the tie-break case)
            // the common case rather than the rare one.
            let alphabet = if round % 2 == 0 { 3 } else { 1 << 20 };
            let xs: Vec<T> = random_row(&mut rng, len, alphabet)
                .into_iter()
                .map(lane)
                .collect();
            assert_eq!(min_index(&xs), min_index_scalar(&xs), "len {len} xs {xs:?}");
        }
    }
}

#[test]
fn find_tag_matches_scalar_exhaustively() {
    find_tag_matches_scalar(0xF1AD_7A65, |x| x);
}

#[test]
fn find_tag_matches_scalar_on_u16_rows() {
    find_tag_matches_scalar(0x16F1_AD7A, |x| x as u16);
}

#[test]
fn find_u64_matches_scalar_exhaustively() {
    let mut rng = SplitMix64::new(0x0F1D_0640);
    for len in lengths() {
        for round in 0..200 {
            let alphabet = if round % 2 == 0 { 4 } else { 1 << 16 };
            let xs = random_row(&mut rng, len, alphabet);
            let needle = rng.next_below(alphabet);
            assert_eq!(
                find_u64(&xs, needle),
                find_u64_scalar(&xs, needle),
                "len {len} needle {needle} xs {xs:?}"
            );
        }
    }
}

#[test]
fn min_index_matches_scalar_exhaustively() {
    min_index_matches_scalar(0x3133_7D06, |x| x);
}

#[test]
fn min_index_matches_scalar_on_u16_rows() {
    // The wide alphabet wraps into the full `u16` range.
    min_index_matches_scalar(0x1631_337D, |x| x as u16);
}

#[test]
fn find_tag_first_valid_duplicate_wins() {
    // Duplicates across a block boundary: the lowest *valid* way wins,
    // exactly as the scalar scan does.
    let mut tags = vec![7u64; 2 * CHUNK];
    tags[3] = 9;
    let dup = 7u64;
    let all = full_mask(tags.len());
    assert_eq!(find_tag(&tags, all, dup), Some(0));
    // Invalidate the first block entirely: the hit moves to the second.
    let mask = all & !full_mask(CHUNK);
    assert_eq!(find_tag(&tags, mask, dup), Some(CHUNK));
    assert_eq!(
        find_tag(&tags, mask, dup),
        find_tag_scalar(&tags, mask, dup)
    );
}

#[test]
fn min_index_tie_breaks_toward_lowest_index() {
    // The minimum appears in both the chunked body and the tail.
    let mut xs = vec![5u64; CHUNK + 3];
    xs[2] = 1;
    xs[CHUNK + 1] = 1;
    assert_eq!(min_index(&xs), 2);
    assert_eq!(min_index(&xs), min_index_scalar(&xs));
}
