//! Miss status holding registers: the bound on outstanding misses.
//!
//! The simulated machine (Table 1) gives the L1 data cache 64 MSHRs. An
//! MSHR tracks one in-flight line fill; a second miss to the same line
//! merges into the existing entry instead of issuing a duplicate fetch,
//! and when all registers are busy new misses must wait for the earliest
//! completion — the mechanism that caps memory-level parallelism.

use crate::kernels;
use tcp_mem::LineAddr;

/// An in-flight fill tracked by an MSHR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InflightFill {
    /// Cycle at which the fill data arrives.
    pub ready_at: u64,
    /// The fill was initiated by a prefetch.
    pub is_prefetch: bool,
    /// A demand access has merged into this fill while it was in flight.
    pub demanded: bool,
    /// A store has merged into this fill; the line must fill dirty.
    pub dirty: bool,
}

/// A file of miss status holding registers keyed by line address.
///
/// The file holds at most `capacity` entries — 64 on the Table 1 machine
/// — stored struct-of-arrays in completion order: the live entries
/// `head..` ascend by `(ready_at, line)`, the order fills land in. So
/// [`MshrFile::pop_ready`] (called on every hierarchy access that lands
/// a fill via `advance`) takes the head entry and advances `head`, and
/// the nothing-is-ready check is one compare against the head entry. An
/// allocation appends — the usual case, since the buses serialize fills
/// — or walks back from the tail to its slot.
///
/// [`MshrFile::lookup`] runs on *every* L1 and L2 miss and almost always
/// misses, so a counting presence filter answers first: one `u32` per
/// bucket of a Fibonacci hash of the line number, 8 buckets per
/// register (at least 64), raised by `allocate` and lowered by
/// `pop_ready`. A zero count proves the line is not in flight; otherwise
/// one chunked [`kernels::find_u64`] sweep over the live line numbers,
/// which sit in their own dense `u64` array, gives the answer.
///
/// # Examples
///
/// ```
/// use tcp_cache::MshrFile;
/// use tcp_mem::LineAddr;
///
/// let mut m = MshrFile::new(2);
/// let l = LineAddr::from_line_number(7);
/// m.allocate(l, 100, false);
/// assert_eq!(m.lookup(l).unwrap().ready_at, 100);
/// assert!(m.pop_ready(99).is_none());
/// assert_eq!(m.pop_ready(100).map(|(line, _)| line), Some(l));
/// assert!(m.lookup(l).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    /// Line numbers of fills; parallel to `fills`, live from `head`.
    lines: Vec<u64>,
    fills: Vec<InflightFill>,
    /// First live entry: everything before it has drained. A pop only
    /// advances it; the dead prefix is dropped once it reaches
    /// `capacity`, so both arrays stay under twice the capacity and the
    /// live entries shift at most once per `capacity` fills drained.
    head: usize,
    /// Presence filter: live entries per line-number bucket.
    present: Vec<u32>,
    /// `64 - log2(present.len())`: keeps a bucket index's top bits.
    shift: u32,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        let buckets = (8 * capacity).max(64).next_power_of_two();
        MshrFile {
            capacity,
            lines: Vec::with_capacity(2 * capacity),
            fills: Vec::with_capacity(2 * capacity),
            head: 0,
            present: vec![0; buckets],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// The presence-filter bucket of a line number.
    #[inline]
    fn bucket(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Number of registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of fills currently in flight.
    pub fn in_use(&self) -> usize {
        self.fills.len() - self.head
    }

    /// `true` when no register is free.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.in_use() >= self.capacity
    }

    /// `true` when at least one fill has completed by `now` — the
    /// allocation-free fast-path check `advance` uses before draining.
    #[inline]
    pub fn has_ready(&self, now: u64) -> bool {
        self.fills.get(self.head).is_some_and(|f| f.ready_at <= now)
    }

    /// Index of `line`'s live entry: the filter first, the sweep only
    /// when `line`'s bucket is occupied.
    #[inline]
    fn position(&self, line: LineAddr) -> Option<usize> {
        let n = line.line_number();
        if self.present[self.bucket(n)] == 0 {
            return None;
        }
        kernels::find_u64(&self.lines[self.head..], n).map(|i| self.head + i)
    }

    /// Looks up an in-flight fill for `line`.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<&InflightFill> {
        self.position(line).map(|i| &self.fills[i])
    }

    #[inline]
    fn lookup_mut(&mut self, line: LineAddr) -> Option<&mut InflightFill> {
        self.position(line).map(|i| &mut self.fills[i])
    }

    /// Marks an in-flight fill as demanded (a demand miss merged into it).
    ///
    /// Returns `false` if no fill for `line` is in flight.
    pub fn mark_demanded(&mut self, line: LineAddr) -> bool {
        match self.lookup_mut(line) {
            Some(f) => {
                f.demanded = true;
                true
            }
            None => false,
        }
    }

    /// Allocates a register for a new fill, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if the file is full. Callers must check
    /// [`MshrFile::is_full`] and merge duplicates via
    /// [`MshrFile::lookup`] first; every call site performs that lookup
    /// as part of its merge path, so the duplicate check here is a debug
    /// assertion rather than a second release-mode scan of the file.
    pub fn allocate(&mut self, line: LineAddr, ready_at: u64, is_prefetch: bool) {
        assert!(!self.is_full(), "MSHR file is full");
        debug_assert!(
            self.lookup(line).is_none(),
            "duplicate MSHR allocation for {line}"
        );
        let key = (ready_at, line.line_number());
        let fill = InflightFill {
            ready_at,
            is_prefetch,
            demanded: !is_prefetch,
            dirty: false,
        };
        // Walk back past every live fill that completes after this one;
        // line numbers break `ready_at` ties, as they order a drain.
        let later = self.fills[self.head..]
            .iter()
            .zip(&self.lines[self.head..])
            .rev()
            .take_while(|&(f, &l)| (f.ready_at, l) > key)
            .count();
        let at = self.fills.len() - later;
        self.lines.insert(at, key.1);
        self.fills.insert(at, fill);
        let b = self.bucket(key.1);
        self.present[b] += 1;
    }

    /// Marks an in-flight fill dirty (a store merged into it).
    ///
    /// Returns `false` if no fill for `line` is in flight.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.lookup_mut(line) {
            Some(f) => {
                f.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Earliest completion cycle among in-flight fills, if any.
    pub fn earliest_ready(&self) -> Option<u64> {
        self.fills.get(self.head).map(|f| f.ready_at)
    }

    /// Removes and returns the earliest fill if it completes by `now`.
    /// Fills leave in `(ready_at, line)` order, so popping until `None`
    /// lands every ready fill in the order the hierarchy needs; a pop at
    /// `u64::MAX` always succeeds while the file is non-empty.
    #[inline]
    pub fn pop_ready(&mut self, now: u64) -> Option<(LineAddr, InflightFill)> {
        let fill = *self.fills.get(self.head).filter(|f| f.ready_at <= now)?;
        let line = self.lines[self.head];
        let b = self.bucket(line);
        self.present[b] -= 1;
        self.head += 1;
        if self.head == self.fills.len() {
            self.lines.clear();
            self.fills.clear();
            self.head = 0;
        } else if self.head >= self.capacity {
            // At most `capacity` live entries move, once per `capacity`
            // popped: amortized O(1) per fill.
            self.lines.drain(..self.head);
            self.fills.drain(..self.head);
            self.head = 0;
        }
        Some((LineAddr::from_line_number(line), fill))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn allocate_and_lookup() {
        let mut m = MshrFile::new(4);
        m.allocate(l(1), 10, false);
        m.allocate(l(2), 20, true);
        assert_eq!(m.in_use(), 2);
        assert!(m.lookup(l(1)).unwrap().demanded);
        assert!(!m.lookup(l(2)).unwrap().demanded);
        assert!(m.lookup(l(3)).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut m = MshrFile::new(2);
        m.allocate(l(1), 1, false);
        assert!(!m.is_full());
        m.allocate(l(2), 2, false);
        assert!(m.is_full());
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overflow_panics() {
        let mut m = MshrFile::new(1);
        m.allocate(l(1), 1, false);
        m.allocate(l(2), 2, false);
    }

    // The duplicate check in `allocate` is a `debug_assert!` (every call
    // site has already looked the line up), so only a build with debug
    // assertions on can panic here.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_allocation_panics() {
        let mut m = MshrFile::new(2);
        m.allocate(l(1), 1, false);
        m.allocate(l(1), 2, false);
    }

    #[test]
    fn merge_marks_demanded() {
        let mut m = MshrFile::new(2);
        m.allocate(l(5), 50, true);
        assert!(m.mark_demanded(l(5)));
        assert!(m.lookup(l(5)).unwrap().demanded);
        assert!(!m.mark_demanded(l(6)));
    }

    /// Pops every fill ready by `now`, as `advance` lands them.
    fn pop_all(m: &mut MshrFile, now: u64) -> Vec<u64> {
        std::iter::from_fn(|| m.pop_ready(now))
            .map(|(a, _)| a.line_number())
            .collect()
    }

    #[test]
    fn drain_ready_is_ordered_and_partial() {
        let mut m = MshrFile::new(8);
        m.allocate(l(1), 30, false);
        m.allocate(l(2), 10, false);
        m.allocate(l(3), 20, true);
        assert_eq!(pop_all(&mut m, 25), vec![2, 3]);
        assert_eq!(m.in_use(), 1);
        assert_eq!(m.earliest_ready(), Some(30));
        assert!(m.lookup(l(2)).is_none() && m.lookup(l(1)).is_some());
    }

    #[test]
    fn pop_ready_waits_for_the_head() {
        let mut m = MshrFile::new(4);
        m.allocate(l(1), 10, false);
        assert!(m.pop_ready(5).is_none());
        assert!(m.has_ready(10));
        let (line, fill) = m.pop_ready(10).unwrap();
        assert_eq!((line, fill.ready_at), (l(1), 10));
        assert!(m.pop_ready(u64::MAX).is_none());
        assert!(!m.has_ready(u64::MAX - 1));
    }

    #[test]
    fn drain_all_empties() {
        let mut m = MshrFile::new(4);
        m.allocate(l(1), 5, false);
        m.allocate(l(2), 6, false);
        assert_eq!(pop_all(&mut m, u64::MAX), vec![1, 2]);
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.earliest_ready(), None);
    }

    #[test]
    fn filter_sizes_by_capacity() {
        for (capacity, buckets) in [(1, 64), (4, 64), (9, 128), (64, 512), (128, 1024)] {
            let m = MshrFile::new(capacity);
            assert_eq!(m.present.len(), buckets, "capacity {capacity}");
            assert!((0..4096).all(|n| m.bucket(n) < buckets));
        }
    }

    #[test]
    fn filter_collisions_fall_through_to_the_sweep() {
        let mut m = MshrFile::new(64);
        let b = m.bucket(3);
        let twin = (4..).find(|&n| m.bucket(n) == b).unwrap();
        m.allocate(l(3), 10, false);
        assert!(m.lookup(l(twin)).is_none(), "a shared bucket is not a hit");
        m.allocate(l(twin), 20, false);
        assert_eq!(m.present[b], 2);
        assert_eq!(pop_all(&mut m, 10), vec![3]);
        assert!(m.lookup(l(3)).is_none());
        assert_eq!(m.lookup(l(twin)).unwrap().ready_at, 20);
        assert_eq!(pop_all(&mut m, 20), vec![twin]);
        assert!(m.present.iter().all(|&c| c == 0));
    }
}
