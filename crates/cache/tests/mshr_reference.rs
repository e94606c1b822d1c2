//! Differential suite: `MshrFile` against a naive reference MSHR file.
//!
//! The reference keeps its in-flight fills in an unordered `Vec` and, on a
//! drain, collects every ready fill and sorts the batch by
//! `(ready_at, line)` — the order the hierarchy lands fills in. Seeded
//! `SplitMix64` streams of `allocate`, `lookup`, `mark_demanded`,
//! `mark_dirty`, `pop_ready` until `None`, `earliest_ready`, `has_ready`,
//! `in_use` and `is_full` drive both files over small line alphabets, with
//! completion cycles that arrive out of order and tie, and drains that
//! empty the file. Every answer must agree; a failure names its seed and
//! step. `scripts/check-robustness.sh` runs this suite.

use tcp_cache::MshrFile;
use tcp_mem::{LineAddr, SplitMix64};

/// One in-flight fill as the reference sees it: `InflightFill`'s fields.
/// `InflightFill` reaches callers through `MshrFile`'s signatures but is
/// not re-exported, so the suite names its own copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fill {
    ready_at: u64,
    is_prefetch: bool,
    demanded: bool,
    dirty: bool,
}

/// Reads `MshrFile`'s view of a fill field by field.
macro_rules! fill {
    ($f:expr) => {{
        let f = $f;
        Fill {
            ready_at: f.ready_at,
            is_prefetch: f.is_prefetch,
            demanded: f.demanded,
            dirty: f.dirty,
        }
    }};
}

/// Pops every fill ready by `now`, one at a time as the hierarchy lands
/// them, as `(line number, fill)` pairs.
fn pop_ready_all(mshr: &mut MshrFile, now: u64) -> Vec<(u64, Fill)> {
    std::iter::from_fn(|| mshr.pop_ready(now))
        .map(|(l, f)| (l.line_number(), fill!(f)))
        .collect()
}

/// The naive MSHR file: an unordered list of `(line, fill)`.
struct RefMshr {
    capacity: usize,
    fills: Vec<(u64, Fill)>,
}

impl RefMshr {
    fn new(capacity: usize) -> Self {
        RefMshr {
            capacity,
            fills: Vec::new(),
        }
    }

    fn is_full(&self) -> bool {
        self.fills.len() >= self.capacity
    }

    fn lookup(&self, line: u64) -> Option<Fill> {
        self.fills.iter().find(|(l, _)| *l == line).map(|&(_, f)| f)
    }

    fn allocate(&mut self, line: u64, ready_at: u64, is_prefetch: bool) {
        assert!(!self.is_full() && self.lookup(line).is_none());
        self.fills.push((
            line,
            Fill {
                ready_at,
                is_prefetch,
                demanded: !is_prefetch,
                dirty: false,
            },
        ));
    }

    fn mark(&mut self, line: u64, set: impl FnOnce(&mut Fill)) -> bool {
        match self.fills.iter_mut().find(|(l, _)| *l == line) {
            Some((_, f)) => {
                set(f);
                true
            }
            None => false,
        }
    }

    fn earliest_ready(&self) -> Option<u64> {
        self.fills.iter().map(|(_, f)| f.ready_at).min()
    }

    fn drain_ready(&mut self, now: u64) -> Vec<(u64, Fill)> {
        let (mut ready, rest): (Vec<_>, Vec<_>) =
            self.fills.iter().partition(|(_, f)| f.ready_at <= now);
        self.fills = rest;
        ready.sort_by_key(|&(l, f)| (f.ready_at, l));
        ready
    }
}

/// How a stream picks completion cycles for new fills.
#[derive(Clone, Copy, Debug)]
enum Arrivals {
    /// Mostly after every fill in flight (serialized buses), with ties.
    Ascending,
    /// Anywhere in a window after the clock: out of order, tied.
    Scattered,
}

/// Drives both files with `steps` random operations from `seed` and
/// checks that every answer agrees.
fn differential(capacity: usize, arrivals: Arrivals, seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut mshr = MshrFile::new(capacity);
    let mut reference = RefMshr::new(capacity);
    let alphabet = 2 * capacity as u64 + 3;
    let mut now = 0u64;
    let mut last_ready = 0u64;
    let (mut allocated, mut drained, mut full) = (0u64, 0u64, 0u64);
    for step in 0..steps {
        let ctx = format!("capacity {capacity} {arrivals:?} seed {seed:#x} step {step}");
        let line = rng.next_below(alphabet);
        let l = LineAddr::from_line_number(line);
        match rng.next_below(16) {
            0..=5 => {
                // The hierarchy's allocation discipline: merge a duplicate,
                // allocate only into a free register.
                let is_prefetch = rng.next_below(3) == 0;
                if mshr.is_full() {
                    full += 1;
                    continue;
                }
                if mshr.lookup(l).is_some() {
                    continue;
                }
                // Fills complete faster than the clock lands them, so the
                // file runs full.
                let ready_at = match arrivals {
                    Arrivals::Ascending if rng.next_below(8) != 0 => {
                        last_ready = last_ready.max(now) + rng.next_below(8);
                        last_ready
                    }
                    _ => now + rng.next_below(8 * capacity as u64 + 8),
                };
                mshr.allocate(l, ready_at, is_prefetch);
                reference.allocate(line, ready_at, is_prefetch);
                allocated += 1;
            }
            6 => assert_eq!(
                mshr.mark_demanded(l),
                reference.mark(line, |f| f.demanded = true),
                "mark_demanded, {ctx}"
            ),
            7 => assert_eq!(
                mshr.mark_dirty(l),
                reference.mark(line, |f| f.dirty = true),
                "mark_dirty, {ctx}"
            ),
            8 | 9 => assert_eq!(
                mshr.lookup(l).map(|f| fill!(f)),
                reference.lookup(line),
                "lookup, {ctx}"
            ),
            10 => {
                let t = now + rng.next_below(8);
                assert_eq!(
                    mshr.has_ready(t),
                    reference.earliest_ready().is_some_and(|e| e <= t),
                    "has_ready({t}), {ctx}"
                );
            }
            11..=13 => {
                // Advance the clock, then land what is ready — or, now
                // and then, everything (the end-of-run drain).
                now += rng.next_below(6);
                let at = if rng.next_below(128) == 0 {
                    u64::MAX
                } else {
                    now
                };
                let want = reference.drain_ready(at);
                assert_eq!(pop_ready_all(&mut mshr, at), want, "pop_ready({at}), {ctx}");
                drained += want.len() as u64;
            }
            _ => {}
        }
        assert_eq!(mshr.in_use(), reference.fills.len(), "in_use, {ctx}");
        assert_eq!(mshr.is_full(), reference.is_full(), "is_full, {ctx}");
        assert_eq!(
            mshr.earliest_ready(),
            reference.earliest_ready(),
            "earliest_ready, {ctx}"
        );
        assert_eq!(mshr.capacity(), capacity, "capacity, {ctx}");
    }
    let ctx = format!("capacity {capacity} {arrivals:?} seed {seed:#x}");
    // The end-of-run drain lands everything still in flight.
    let want = reference.drain_ready(u64::MAX);
    assert_eq!(
        pop_ready_all(&mut mshr, u64::MAX),
        want,
        "final drain, {ctx}"
    );
    assert_eq!(mshr.in_use(), 0, "final drain empties, {ctx}");
    assert_eq!(mshr.earliest_ready(), None, "final drain empties, {ctx}");
    drained += want.len() as u64;
    assert!(
        allocated > 0 && drained == allocated && full > 0,
        "stream must allocate, fill up and drain every fill, {ctx}"
    );
}

/// Runs the differential check over several seeds derived from `base`,
/// under both arrival patterns.
fn sweep(capacity: usize, base: u64) {
    for arrivals in [Arrivals::Ascending, Arrivals::Scattered] {
        for i in 0..8 {
            differential(
                capacity,
                arrivals,
                base.wrapping_add(i * 0x9E37_79B9),
                3_000,
            );
        }
    }
}

#[test]
fn one_register_matches_reference() {
    sweep(1, 0x1);
}

#[test]
fn two_registers_match_reference() {
    sweep(2, 0x2);
}

#[test]
fn table1_l1_file_matches_reference() {
    sweep(64, 0x64);
}

#[test]
fn l2_sized_file_matches_reference() {
    sweep(128, 0x128);
}

#[test]
fn fills_ready_together_drain_by_line() {
    let mut mshr = MshrFile::new(8);
    for (line, ready_at) in [(9, 40), (3, 40), (7, 10), (1, 40), (5, 10)] {
        mshr.allocate(LineAddr::from_line_number(line), ready_at, false);
    }
    let order: Vec<(u64, u64)> = pop_ready_all(&mut mshr, u64::MAX)
        .into_iter()
        .map(|(l, f)| (f.ready_at, l))
        .collect();
    assert_eq!(order, vec![(10, 5), (10, 7), (40, 1), (40, 3), (40, 9)]);
    assert_eq!(mshr.in_use(), 0);
}
