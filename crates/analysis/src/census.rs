//! Unique-item censuses over the miss stream (Figures 2, 3, and 4).

use crate::rows::RowTable;
use tcp_mem::{LineAddr, SetIndex, Tag};

/// Counts unique tags and their recurrences (Figure 2).
///
/// # Examples
///
/// ```
/// use tcp_analysis::TagCensus;
/// use tcp_mem::Tag;
///
/// let mut c = TagCensus::new();
/// for t in [1u64, 2, 1, 1] {
///     c.observe_tag(Tag::new(t));
/// }
/// assert_eq!(c.unique(), 2);
/// assert_eq!(c.mean_recurrences(), 2.0); // 4 observations / 2 tags
/// ```
#[derive(Clone, Debug, Default)]
pub struct TagCensus {
    tags: RowTable,
    /// Observations of each distinct tag, indexed by its id.
    counts: Vec<u64>,
    total: u64,
}

impl TagCensus {
    /// Creates an empty census.
    pub fn new() -> Self {
        TagCensus::default()
    }

    /// Records one miss-stream occurrence of `tag`.
    pub fn observe_tag(&mut self, tag: Tag) {
        let (id, added) = self.tags.intern(&[tag.raw()]);
        if added {
            self.counts.push(0);
        }
        self.counts[id as usize] += 1;
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

    /// Appearances of each distinct tag, in the order the tags were
    /// first observed.
    ///
    /// # Examples
    ///
    /// ```
    /// use tcp_analysis::TagCensus;
    /// use tcp_mem::Tag;
    ///
    /// let mut c = TagCensus::new();
    /// for t in [7u64, 2, 7, 7] {
    ///     c.observe_tag(Tag::new(t));
    /// }
    /// assert_eq!(c.per_tag_counts(), &[3, 1]); // tag 7, then tag 2
    /// ```
    pub fn per_tag_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Counts unique line addresses and their recurrences (Figure 3).
#[derive(Clone, Debug, Default)]
pub struct AddressCensus {
    lines: RowTable,
    total: u64,
}

impl AddressCensus {
    /// Creates an empty census.
    pub fn new() -> Self {
        AddressCensus::default()
    }

    /// Records one miss-stream occurrence of `line`.
    pub fn observe_line(&mut self, line: LineAddr) {
        self.lines.intern(&[line.line_number()]);
        self.total += 1;
    }

    /// Number of distinct line addresses observed.
    pub fn unique(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean number of appearances per distinct address.
    pub fn mean_recurrences(&self) -> f64 {
        if self.lines.is_empty() {
            0.0
        } else {
            self.total as f64 / self.lines.len() as f64
        }
    }
}

/// Splits tag recurrences into cross-set spread and within-set reuse
/// (Figure 4): spatial versus temporal locality of tags.
///
/// # Examples
///
/// ```
/// use tcp_analysis::TagSpread;
/// use tcp_mem::{SetIndex, Tag};
///
/// let mut s = TagSpread::new();
/// s.observe(Tag::new(1), SetIndex::new(0));
/// s.observe(Tag::new(1), SetIndex::new(1));
/// s.observe(Tag::new(1), SetIndex::new(1));
/// assert_eq!(s.mean_sets_per_tag(), 2.0);
/// assert_eq!(s.mean_recurrence_within_set(), 1.5); // 3 obs / 2 (tag,set)
/// ```
#[derive(Clone, Debug, Default)]
pub struct TagSpread {
    tags: RowTable,
    /// Distinct `(tag id, set)` pairs, one word each.
    tag_sets: RowTable,
    total: u64,
}

impl TagSpread {
    /// Creates an empty collector.
    pub fn new() -> Self {
        TagSpread::default()
    }

    /// Records a miss on `tag` in `set`.
    pub fn observe(&mut self, tag: Tag, set: SetIndex) {
        let (id, _) = self.tags.intern(&[tag.raw()]);
        self.tag_sets
            .intern(&[u64::from(id) << 32 | u64::from(set.raw())]);
        self.total += 1;
    }

    /// Mean number of distinct sets each tag appeared in (Figure 4, top).
    pub fn mean_sets_per_tag(&self) -> f64 {
        if self.tags.is_empty() {
            0.0
        } else {
            self.tag_sets.len() as f64 / self.tags.len() as f64
        }
    }

    /// Mean number of times a tag appears within each set it touches
    /// (Figure 4, bottom).
    pub fn mean_recurrence_within_set(&self) -> f64 {
        if self.tag_sets.is_empty() {
            0.0
        } else {
            self.total as f64 / self.tag_sets.len() as f64
        }
    }

    /// Number of distinct tags observed.
    pub fn unique_tags(&self) -> u64 {
        self.tags.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_census_counts() {
        let mut c = TagCensus::new();
        assert_eq!(c.mean_recurrences(), 0.0);
        for t in [5u64, 5, 5, 7, 7, 9] {
            c.observe_tag(Tag::new(t));
        }
        assert_eq!(c.unique(), 3);
        assert_eq!(c.total(), 6);
        assert!((c.mean_recurrences() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn address_census_counts() {
        let mut c = AddressCensus::new();
        for l in [1u64, 2, 3, 1] {
            c.observe_line(LineAddr::from_line_number(l));
        }
        assert_eq!(c.unique(), 3);
        assert!((c.mean_recurrences() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spread_separates_spatial_and_temporal() {
        let mut s = TagSpread::new();
        // Tag 1: spatial (many sets, once each). Tag 2: temporal (one set,
        // many times).
        for set in 0..10 {
            s.observe(Tag::new(1), SetIndex::new(set));
        }
        for _ in 0..10 {
            s.observe(Tag::new(2), SetIndex::new(0));
        }
        assert_eq!(s.unique_tags(), 2);
        // (10 + 1) pairs over 2 tags.
        assert!((s.mean_sets_per_tag() - 5.5).abs() < 1e-12);
        // 20 observations / 11 pairs.
        assert!((s.mean_recurrence_within_set() - 20.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_collectors_are_zero() {
        assert_eq!(TagSpread::new().mean_sets_per_tag(), 0.0);
        assert_eq!(TagSpread::new().mean_recurrence_within_set(), 0.0);
        assert_eq!(AddressCensus::new().mean_recurrences(), 0.0);
    }
}
