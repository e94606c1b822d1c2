//! Functional extraction of the L1 miss stream from a reference stream.

use tcp_cache::{AccessOutcome, Cache, Replacement};
use tcp_mem::{Addr, CacheGeometry, LineAddr, MemAccess, SetIndex, Tag};

/// One primary L1 miss, as the profiling of Section 3 sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissRecord {
    /// Full byte address that missed.
    pub addr: Addr,
    /// Line address of the miss.
    pub line: LineAddr,
    /// Cache tag — the quantity the paper correlates.
    pub tag: Tag,
    /// Cache set index.
    pub set: SetIndex,
    /// Program counter of the missing access.
    pub pc: Addr,
}

/// Iterator adapter produced by [`miss_stream`].
#[derive(Debug)]
pub struct MissStream<I> {
    cache: Cache,
    accesses: I,
}

impl<I: Iterator<Item = MemAccess>> Iterator for MissStream<I> {
    type Item = MissRecord;

    fn next(&mut self) -> Option<MissRecord> {
        loop {
            let acc = self.accesses.next()?;
            let geom = *self.cache.geometry();
            let line = geom.line_addr(acc.addr);
            match self.cache.access(line, acc.kind.is_store()) {
                AccessOutcome::Hit { .. } => continue,
                AccessOutcome::Miss => {
                    self.cache.fill(line, false);
                    let (tag, set) = geom.split_line(line);
                    return Some(MissRecord {
                        addr: acc.addr,
                        line,
                        tag,
                        set,
                        pc: acc.pc,
                    });
                }
            }
        }
    }
}

/// Runs `accesses` through a functional cache of the given geometry and
/// yields a [`MissRecord`] for every miss (fills happen immediately, as
/// in a trace-driven profiler — Section 3 profiles exactly this way).
///
/// # Examples
///
/// ```
/// use tcp_analysis::miss_stream;
/// use tcp_mem::{Addr, CacheGeometry, MemAccess};
///
/// let l1 = CacheGeometry::new(32 * 1024, 32, 1);
/// // Two accesses to one line: one miss.
/// let accs = vec![
///     MemAccess::load(Addr::new(4), Addr::new(0x1000)),
///     MemAccess::load(Addr::new(8), Addr::new(0x1004)),
/// ];
/// assert_eq!(miss_stream(l1, accs.into_iter()).count(), 1);
/// ```
pub fn miss_stream<I>(geom: CacheGeometry, accesses: I) -> MissStream<I::IntoIter>
where
    I: IntoIterator<Item = MemAccess>,
{
    MissStream {
        cache: Cache::new(geom, Replacement::Lru),
        accesses: accesses.into_iter(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 32, 1)
    }

    #[test]
    fn cold_misses_once_per_line() {
        let accs: Vec<_> = (0..100u64)
            .map(|i| MemAccess::load(Addr::new(0), Addr::new(i * 8)))
            .collect();
        // 100 accesses × 8 B = 800 B = 25 lines.
        assert_eq!(miss_stream(l1(), accs).count(), 25);
    }

    #[test]
    fn conflicting_lines_remiss() {
        let a = Addr::new(0x1000);
        let b = Addr::new(0x1000 + 32 * 1024); // same set, different tag
        let accs = vec![
            MemAccess::load(Addr::new(0), a),
            MemAccess::load(Addr::new(0), b),
            MemAccess::load(Addr::new(0), a),
            MemAccess::load(Addr::new(0), b),
        ];
        assert_eq!(
            miss_stream(l1(), accs).count(),
            4,
            "direct-mapped ping-pong misses every time"
        );
    }

    #[test]
    fn records_carry_split_fields() {
        let accs = vec![MemAccess::load(Addr::new(0x44), Addr::new(0x2A64))];
        let rec = miss_stream(l1(), accs).next().unwrap();
        let (tag, set) = l1().split(Addr::new(0x2A64));
        assert_eq!(rec.tag, tag);
        assert_eq!(rec.set, set);
        assert_eq!(rec.pc, Addr::new(0x44));
        assert_eq!(rec.line, l1().line_addr(Addr::new(0x2A64)));
    }

    #[test]
    fn stores_miss_too() {
        let accs = vec![MemAccess::store(Addr::new(0), Addr::new(0x9000))];
        assert_eq!(miss_stream(l1(), accs).count(), 1);
    }
}
