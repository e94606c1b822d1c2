//! Property-based tests for the baseline prefetchers.

use proptest::prelude::*;
use tcp_baselines::{Dbcp, DbcpConfig, StrideConfig, StridePrefetcher};
use tcp_cache::{L1MissInfo, PrefetchRequest, Prefetcher};
use tcp_mem::{Addr, CacheGeometry, MemAccess};

fn info(pc: u64, addr: u64) -> L1MissInfo {
    let g = CacheGeometry::new(32 * 1024, 32, 1);
    let a = Addr::new(addr);
    let (tag, set) = g.split(a);
    L1MissInfo { access: MemAccess::load(Addr::new(pc), a), line: g.line_addr(a), tag, set, cycle: 0 }
}

fn drive(engine: &mut dyn Prefetcher, misses: &[(u64, u64)]) -> Vec<u64> {
    let mut out: Vec<PrefetchRequest> = Vec::new();
    let mut lines = Vec::new();
    for &(pc, addr) in misses {
        out.clear();
        engine.on_miss(&info(pc, addr), &mut out);
        lines.extend(out.iter().map(|r| r.line.line_number()));
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_engine_is_deterministic(misses in prop::collection::vec((0u64..4096, 0u64..(1 << 26)), 1..150)) {
        let engines: Vec<fn() -> Box<dyn Prefetcher>> = vec![
            || Box::new(StridePrefetcher::new(StrideConfig::default())),
            || Box::new(Dbcp::new(DbcpConfig { table_bytes: 64 * 1024, ..DbcpConfig::dbcp_2m() })),
        ];
        for make in engines {
            let mut a = make();
            let mut b = make();
            prop_assert_eq!(drive(a.as_mut(), &misses), drive(b.as_mut(), &misses), "{}", a.name());
        }
    }

    #[test]
    fn engines_never_prefetch_the_missing_line(misses in prop::collection::vec((0u64..4096, 0u64..(1 << 26)), 1..120)) {
        // A prefetch of the line that just missed is pure waste; every
        // engine must filter it.
        let g = CacheGeometry::new(32 * 1024, 32, 1);
        let engines: Vec<Box<dyn Prefetcher>> = vec![
            Box::new(StridePrefetcher::new(StrideConfig::default())),
            Box::new(Dbcp::new(DbcpConfig { table_bytes: 64 * 1024, ..DbcpConfig::dbcp_2m() })),
        ];
        for mut e in engines {
            let mut out: Vec<PrefetchRequest> = Vec::new();
            for &(pc, addr) in &misses {
                out.clear();
                let i = info(pc, addr);
                e.on_miss(&i, &mut out);
                let miss_line = g.line_addr(Addr::new(addr));
                prop_assert!(
                    out.iter().all(|r| r.line != miss_line),
                    "{} prefetched the missing line",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn dbcp_needs_repetition_before_predicting(addrs in prop::collection::vec(0u64..(1 << 26), 2..60)) {
        // A stream of distinct, never-repeating (block, signature) pairs
        // can never produce a confirmed DBCP entry.
        let mut e = Dbcp::new(DbcpConfig::dbcp_2m());
        let misses: Vec<(u64, u64)> = addrs.iter().enumerate().map(|(i, &a)| (0x400 + i as u64 * 4, a)).collect();
        let out = drive(&mut e, &misses);
        prop_assert!(out.is_empty(), "unconfirmed transitions must not predict");
    }
}
