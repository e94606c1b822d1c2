//! Property-based tests for the cache substrate: structural invariants of
//! the set-associative cache, bus causality, and hierarchy accounting.

use proptest::prelude::*;
use tcp_cache::{
    Bus, Cache, HierarchyConfig, MemoryHierarchy, NullPrefetcher, Replacement, ServicedBy,
};
use tcp_mem::{Addr, CacheGeometry, MemAccess};

fn small_cache() -> Cache {
    // 16 lines of 32 B, 4-way: 4 sets.
    Cache::new(CacheGeometry::new(512, 32, 4), Replacement::Lru)
}

proptest! {
    #[test]
    fn occupancy_never_exceeds_capacity(addrs in prop::collection::vec(0u64..4096, 1..200)) {
        let mut c = small_cache();
        let g = *c.geometry();
        for (i, &a) in addrs.iter().enumerate() {
            let line = g.line_addr(Addr::new(a));
            c.fill(line, i % 3 == 0);
            prop_assert!(c.iter().count() <= 16);
        }
    }

    #[test]
    fn filled_line_is_resident_until_evicted(addrs in prop::collection::vec(0u64..4096, 1..100)) {
        let mut c = small_cache();
        let g = *c.geometry();
        for &a in &addrs {
            let line = g.line_addr(Addr::new(a));
            let evicted = c.fill(line, false);
            prop_assert!(c.contains(line));
            if let Some(ev) = evicted {
                prop_assert!(!c.contains(ev.line));
                // Victim came from the same set.
                prop_assert_eq!(g.split_line(ev.line).1, g.split_line(line).1);
            }
        }
    }

    #[test]
    fn iter_reports_each_resident_line_once(addrs in prop::collection::vec(0u64..8192, 1..150)) {
        let mut c = small_cache();
        let g = *c.geometry();
        for &a in &addrs {
            c.fill(g.line_addr(Addr::new(a)), false);
        }
        let mut lines: Vec<_> = c.iter().map(|(l, _)| l).collect();
        let reported = lines.len();
        lines.sort();
        lines.dedup();
        prop_assert_eq!(lines.len(), reported);
        // Every reported line is found by contains().
        for l in lines {
            prop_assert!(c.contains(l));
        }
    }

    #[test]
    fn lru_stack_property(addrs in prop::collection::vec(0u64..2048, 1..120)) {
        // After any access sequence, re-accessing a line and then filling
        // conflicting lines (assoc - 1 of them) must not evict it.
        let mut c = small_cache();
        let g = *c.geometry();
        for &a in &addrs {
            let line = g.line_addr(Addr::new(a));
            c.fill(line, false);
        }
        let target = g.line_addr(Addr::new(addrs[0]));
        c.fill(target, false);
        c.access(target, false);
        let set = g.split_line(target).1;
        // Fill 3 fresh conflicting tags (4-way set): target stays.
        for j in 0..3u64 {
            let fresh = g.compose(tcp_mem::Tag::new(1000 + j), set);
            c.fill(fresh, false);
            prop_assert!(c.contains(target));
        }
    }

    #[test]
    fn bus_is_causal_and_work_conserving(reqs in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut bus = Bus::new(3);
        let mut prev_done = 0u64;
        for &t in &reqs {
            let (start, done) = bus.schedule(t);
            prop_assert!(start >= t);
            prop_assert!(start >= prev_done);
            prop_assert_eq!(done, start + 3);
            prev_done = done;
        }
        prop_assert_eq!(bus.busy_cycles(), 3 * reqs.len() as u64);
    }

    #[test]
    fn hierarchy_counters_are_conserved(addr_seeds in prop::collection::vec(0u64..(1 << 22), 20..120)) {
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
        let mut t = 0u64;
        let n = addr_seeds.len() as u64;
        for (i, &a) in addr_seeds.iter().enumerate() {
            let acc = if i % 4 == 0 {
                MemAccess::store(Addr::new(0x400000), Addr::new(a & !3))
            } else {
                MemAccess::load(Addr::new(0x400000), Addr::new(a & !3))
            };
            let r = h.access(acc, t);
            prop_assert!(r.completes_at >= t);
            t = r.completes_at + 1;
        }
        let s = h.finalize();
        prop_assert_eq!(s.accesses(), n);
        prop_assert_eq!(s.l1_hits + s.l1_misses + s.l1_mshr_merges, n);
        // Without a prefetcher every original L2 access is non-prefetched.
        prop_assert_eq!(s.l2_breakdown.prefetched_original, 0);
        prop_assert_eq!(s.l2_breakdown.prefetched_extra, 0);
        prop_assert_eq!(s.l2_breakdown.original(), s.l2_demand_accesses);
        prop_assert_eq!(s.l2_demand_hits + s.l2_demand_misses, s.l2_demand_accesses);
    }

    #[test]
    fn serialized_accesses_hit_after_fill(a in 0u64..(1 << 22)) {
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
        let r1 = h.access(MemAccess::load(Addr::new(0x400000), Addr::new(a)), 0);
        let r2 = h.access(MemAccess::load(Addr::new(0x400000), Addr::new(a)), r1.completes_at + 1);
        prop_assert_eq!(r2.serviced_by, ServicedBy::L1);
    }
}
