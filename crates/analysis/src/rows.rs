//! Distinct fixed-width rows with dense first-seen ids: the one table
//! behind every census in this crate.
//!
//! A census asks of each key (a tag, a line, a `(tag, set)` pair, a
//! k-tag window) only whether it was seen before, and some count it
//! under a small integer. [`RowTable`] stores each distinct key once as
//! `width` words, back to back, and finds it through an open-addressed
//! index of `u32` ids under a fixed multiplicative hash. Interning a key
//! the table already holds touches no allocator, and ids follow
//! first-seen order, so nothing read off the table depends on hash
//! order.
//!
//! The hash is fixed, not keyed: keys crafted to collide would make
//! every probe a scan. Census keys are the tags, lines and set indices
//! of a simulated miss stream.

/// Multiplier of the row hash: 2⁶⁴ divided by the golden ratio, odd.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// An index slot that holds no row.
const EMPTY: u32 = u32::MAX;
/// Index slots of a new table.
const FIRST_SLOTS: usize = 16;

/// Distinct rows of `width` words, each given a dense id (0, 1, 2, … in
/// first-seen order).
#[derive(Clone, Debug)]
pub(crate) struct RowTable {
    width: usize,
    /// `width` words per distinct row, in id order.
    rows: Vec<u64>,
    /// Open-addressed, linearly probed ids; a power of two in length,
    /// and never more than half full.
    index: Vec<u32>,
    /// `64 − log2(index.len())`: a hash's top bits pick a row's home
    /// slot.
    shift: u32,
}

impl Default for RowTable {
    /// An empty table of one-word rows: single keys.
    fn default() -> Self {
        RowTable::new(1)
    }
}

impl RowTable {
    /// An empty table of `width`-word rows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub(crate) fn new(width: usize) -> Self {
        assert!(width > 0, "rows need at least one word");
        RowTable {
            width,
            rows: Vec::new(),
            index: vec![EMPTY; FIRST_SLOTS],
            shift: u64::BITS - FIRST_SLOTS.trailing_zeros(),
        }
    }

    /// Number of distinct rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Whether the table holds no row.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the id of `row`, and whether this call added it.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `width` words long, or if the table
    /// already holds `u32::MAX` rows.
    pub(crate) fn intern(&mut self, row: &[u64]) -> (u32, bool) {
        assert_eq!(row.len(), self.width, "row width");
        let mask = self.index.len() - 1;
        let mut slot = self.home(row);
        loop {
            let id = self.index[slot];
            if id == EMPTY {
                break;
            }
            if self.row(id).iter().zip(row).all(|(a, b)| a == b) {
                return (id, false);
            }
            slot = (slot + 1) & mask;
        }
        assert!(self.len() < EMPTY as usize, "more than {EMPTY} rows");
        let id = self.len() as u32;
        self.rows.extend_from_slice(row);
        self.index[slot] = id;
        if 2 * self.len() > self.index.len() {
            self.grow();
        }
        (id, true)
    }

    /// The words of row `id`.
    fn row(&self, id: u32) -> &[u64] {
        let start = id as usize * self.width;
        &self.rows[start..][..self.width]
    }

    /// The slot a probe for `row` starts at.
    fn home(&self, row: &[u64]) -> usize {
        let hash = row
            .iter()
            .fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(GOLDEN));
        (hash >> self.shift) as usize
    }

    /// Doubles the index and re-homes every row.
    fn grow(&mut self) {
        let slots = 2 * self.index.len();
        self.index.clear();
        self.index.resize(slots, EMPTY);
        self.shift -= 1;
        let mask = slots - 1;
        for id in 0..self.len() as u32 {
            let mut slot = self.home(self.row(id));
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut t = RowTable::new(2);
        assert_eq!(t.intern(&[7, 1]), (0, true));
        assert_eq!(t.intern(&[1, 7]), (1, true));
        assert_eq!(t.intern(&[7, 1]), (0, false));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn growth_keeps_every_id() {
        // Keys that differ only in their high bits: a hash that kept the
        // low bits would pile them all into one probe run.
        let key = |i: u64| [i << 40, 7];
        let mut t = RowTable::new(2);
        for i in 0..10_000u64 {
            assert_eq!(t.intern(&key(i)), (i as u32, true));
        }
        for i in 0..10_000u64 {
            assert_eq!(t.intern(&key(i)), (i as u32, false));
        }
        assert_eq!(t.len(), 10_000);
        assert!(2 * t.len() <= t.index.len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn a_row_of_the_wrong_width_is_rejected() {
        RowTable::new(3).intern(&[1, 2]);
    }
}
