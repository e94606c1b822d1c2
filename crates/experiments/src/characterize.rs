//! Miss-trace characterisation shared by Figures 2–7 and 15.
//!
//! One pass over each benchmark's L1 miss stream feeds all five
//! collectors from `tcp-analysis`; each of `all`'s characterisation
//! selectors (`fig02`–`fig07`, `fig15`) then prints the columns
//! corresponding to that figure's axes.

use tcp_analysis::{
    miss_stream, AddressCensus, HistogramLog2, SequenceCensus, TagCensus, TagSpread,
};
use tcp_mem::CacheGeometry;
use tcp_workloads::Benchmark;

/// Everything Section 3 measures about one benchmark's miss stream.
#[derive(Clone, Debug)]
pub struct TraceProfile {
    /// Benchmark name.
    pub benchmark: String,
    /// Total primary L1 misses observed.
    pub misses: u64,
    /// Figure 2 top: unique tags.
    pub unique_tags: u64,
    /// Figure 2 bottom: mean appearances per tag.
    pub tag_recurrence: f64,
    /// The distribution behind `tag_recurrence`: each tag's appearances,
    /// in log₂ buckets.
    pub tag_recurrence_histogram: HistogramLog2,
    /// Figure 3 top: unique line addresses.
    pub unique_addresses: u64,
    /// Figure 3 bottom: mean appearances per address.
    pub address_recurrence: f64,
    /// Figure 4 top: mean sets each tag appears in.
    pub sets_per_tag: f64,
    /// Figure 4 bottom: mean appearances of a tag within a single set.
    pub tag_recurrence_within_set: f64,
    /// Figure 6 top: unique three-tag sequences.
    pub unique_sequences: u64,
    /// Figure 6 bottom: mean appearances per sequence.
    pub sequence_recurrence: f64,
    /// Figure 5: unique sequences as a fraction of `unique_tags³`.
    pub fraction_of_upper_limit: f64,
    /// Figure 7 top: mean sets each sequence appears in.
    pub sets_per_sequence: f64,
    /// Figure 7 bottom: mean appearances of a sequence within one set.
    pub sequence_recurrence_within_set: f64,
    /// Figure 15: fraction of strided three-tag sequences.
    pub strided_fraction: f64,
}

/// Profiles `bench` over `n_ops` micro-ops through the paper's 32 KB
/// direct-mapped L1, collecting every Section 3 statistic in one pass.
///
/// # Examples
///
/// ```
/// use tcp_experiments::characterize::characterize;
/// use tcp_workloads::suite;
///
/// let profile = characterize(&suite()[0], 50_000);
/// assert!(profile.unique_tags > 0);
/// ```
pub fn characterize(bench: &Benchmark, n_ops: u64) -> TraceProfile {
    let l1 = CacheGeometry::new(32 * 1024, 32, 1);
    let mut tags = TagCensus::new();
    let mut addrs = AddressCensus::new();
    let mut spread = TagSpread::new();
    let mut seqs = SequenceCensus::new(l1.num_sets(), 3);
    let mut misses = 0u64;

    let accesses = bench.generator(n_ops).filter_map(|op| op.mem_access());
    for rec in miss_stream(l1, accesses) {
        misses += 1;
        tags.observe_tag(rec.tag);
        addrs.observe_line(rec.line);
        spread.observe(rec.tag, rec.set);
        seqs.observe(rec.tag, rec.set);
    }

    let mut tag_recurrence_histogram = HistogramLog2::new();
    tag_recurrence_histogram.extend(tags.per_tag_counts().iter().copied());
    TraceProfile {
        benchmark: bench.name.to_owned(),
        misses,
        unique_tags: tags.unique(),
        tag_recurrence: tags.mean_recurrences(),
        tag_recurrence_histogram,
        unique_addresses: addrs.unique(),
        address_recurrence: addrs.mean_recurrences(),
        sets_per_tag: spread.mean_sets_per_tag(),
        tag_recurrence_within_set: spread.mean_recurrence_within_set(),
        unique_sequences: seqs.unique_sequences(),
        sequence_recurrence: seqs.mean_recurrences(),
        fraction_of_upper_limit: seqs.fraction_of_upper_limit(tags.unique()),
        sets_per_sequence: seqs.mean_sets_per_sequence(),
        sequence_recurrence_within_set: seqs.mean_recurrence_within_set(),
        strided_fraction: seqs.strided_fraction(),
    }
}

/// Profiles every benchmark in the suite.
pub fn characterize_suite(benchmarks: &[Benchmark], n_ops: u64) -> Vec<TraceProfile> {
    benchmarks.iter().map(|b| characterize(b, n_ops)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    #[test]
    fn art_profile_matches_paper_shape() {
        let art = suite().into_iter().find(|b| b.name == "art").unwrap();
        let p = characterize(&art, 2_000_000);
        // ~96 unique tags (paper: 98), recurring heavily.
        assert!(
            (60..=130).contains(&p.unique_tags),
            "unique tags {}",
            p.unique_tags
        );
        assert!(
            p.tag_recurrence > 100.0,
            "tags recur heavily, got {}",
            p.tag_recurrence
        );
        // Orders of magnitude more unique addresses than tags.
        assert!(p.unique_addresses > 50 * p.unique_tags);
        // Streaming scans: each tag spans most of the 1024 sets.
        assert!(p.sets_per_tag > 500.0, "sets/tag {}", p.sets_per_tag);
    }

    #[test]
    fn fma3d_is_temporal_not_spatial() {
        let b = suite().into_iter().find(|b| b.name == "fma3d").unwrap();
        let p = characterize(&b, 500_000);
        assert!(
            p.sets_per_tag < 64.0,
            "fma3d tags stay in few sets, got {}",
            p.sets_per_tag
        );
        assert!(
            p.tag_recurrence_within_set > 100.0,
            "fma3d tags recur heavily per set, got {}",
            p.tag_recurrence_within_set
        );
    }

    #[test]
    fn crafty_sequences_are_random_swim_are_shared() {
        let benches = suite();
        let crafty = benches.iter().find(|b| b.name == "crafty").unwrap();
        let swim = benches.iter().find(|b| b.name == "swim").unwrap();
        let pc = characterize(crafty, 800_000);
        let ps = characterize(swim, 800_000);
        // Random sequences barely recur; shared sweeps recur across sets.
        assert!(
            ps.sets_per_sequence > 3.0 * pc.sets_per_sequence,
            "swim sequences spread over sets ({} vs crafty {})",
            ps.sets_per_sequence,
            pc.sets_per_sequence
        );
    }

    #[test]
    fn swim_has_visible_strided_fraction() {
        let b = suite().into_iter().find(|b| b.name == "swim").unwrap();
        let p = characterize(&b, 2_000_000);
        assert!(
            p.strided_fraction > 0.03,
            "swim should show strided sequences (paper: 12%), got {}",
            p.strided_fraction
        );
    }

    #[test]
    fn counts_are_internally_consistent() {
        let b = suite().into_iter().find(|b| b.name == "gzip").unwrap();
        let p = characterize(&b, 300_000);
        assert!(p.unique_addresses >= p.unique_tags);
        assert!(p.misses >= p.unique_addresses);
        assert!(p.fraction_of_upper_limit <= 1.0);
        assert!(p.strided_fraction <= 1.0);
        assert!(p.sets_per_tag >= 1.0);
        assert!(p.sets_per_sequence >= 1.0);
    }
}
