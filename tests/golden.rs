//! Golden regression tests: exact deterministic values pinned from a
//! known-good build. Any change to workload generation, cache behaviour,
//! or core scheduling that alters these numbers is *visible* here —
//! update them only deliberately, alongside re-validating EXPERIMENTS.md.

use tcp_repro::analysis::{miss_stream, MissRecord};
use tcp_repro::cache::{NullPrefetcher, Prefetcher, Replacement};
use tcp_repro::core::{Tcp, TcpConfig};
use tcp_repro::experiments::characterize::characterize;
use tcp_repro::sim::stream::replay_records;
use tcp_repro::sim::{run_benchmark, SystemConfig};
use tcp_repro::workloads::suite;

/// (benchmark, misses@200k, tags, addrs, seqs, cycles@100k, l1miss@100k)
const GOLDEN: &[(&str, u64, u64, u64, u64, u64, u64)] = &[
    ("art", 12378, 15, 12378, 13, 74252, 6192),
    ("crafty", 22003, 32, 16210, 12770, 72500, 8280),
    ("swim", 16802, 21, 16802, 19, 72437, 8403),
];

#[test]
fn characterisation_matches_golden_values() {
    for &(name, misses, tags, addrs, seqs, _, _) in GOLDEN {
        let b = suite().into_iter().find(|b| b.name == name).unwrap();
        let p = characterize(&b, 200_000);
        assert_eq!(p.misses, misses, "{name}: miss count drifted");
        assert_eq!(p.unique_tags, tags, "{name}: unique tags drifted");
        assert_eq!(
            p.unique_addresses, addrs,
            "{name}: unique addresses drifted"
        );
        assert_eq!(p.unique_sequences, seqs, "{name}: unique sequences drifted");
    }
}

#[test]
fn timing_matches_golden_values() {
    for &(name, _, _, _, _, cycles, l1miss) in GOLDEN {
        let b = suite().into_iter().find(|b| b.name == name).unwrap();
        let r = run_benchmark(
            &b,
            100_000,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        assert_eq!(r.cycles, cycles, "{name}: cycle count drifted");
        assert_eq!(r.stats.l1_misses, l1miss, "{name}: L1 miss count drifted");
    }
}

/// (benchmark, TCP variant, cycles, L2 demand misses, prefetches issued,
/// prefetched original L2 accesses) at 300k ops — long enough for
/// TCP-8M's per-set history to start predicting on `ammp`.
const TCP_GOLDEN: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("art", "TCP-8K", 177528, 3087, 12366, 6192),
    ("art", "TCP-8M", 219536, 9279, 0, 0),
    ("art", "TCP-2K", 177528, 3087, 12366, 6192),
    ("mcf", "TCP-8K", 6828805, 86627, 3502, 273),
    ("mcf", "TCP-8M", 6823116, 86872, 75, 7),
    ("mcf", "TCP-2K", 6827937, 86618, 3412, 281),
    ("ammp", "TCP-8K", 4358832, 50470, 14010, 5674),
    ("ammp", "TCP-8M", 2130729, 20320, 40158, 35805),
    ("ammp", "TCP-2K", 4536119, 52901, 7461, 3203),
];

#[test]
fn tcp_timing_matches_golden_values() {
    for &(name, variant, cycles, l2_misses, issued, prefetched) in TCP_GOLDEN {
        let cfg = match variant {
            "TCP-8K" => TcpConfig::tcp_8k(),
            "TCP-8M" => TcpConfig::tcp_8m(),
            _ => TcpConfig::with_pht_bytes(2 * 1024, 0),
        };
        assert_eq!(cfg.display_name(), variant);
        let b = suite().into_iter().find(|b| b.name == name).unwrap();
        let r = run_benchmark(
            &b,
            300_000,
            &SystemConfig::table1(),
            Box::new(Tcp::new(cfg)),
        );
        let s = &r.stats;
        let got = (
            r.cycles,
            s.l2_demand_misses,
            s.prefetches_issued,
            s.l2_breakdown.prefetched_original,
        );
        assert_eq!(
            got,
            (cycles, l2_misses, issued, prefetched),
            "{name} {variant}: (cycles, L2 demand misses, prefetches issued, \
             prefetched original) drifted"
        );
    }
}

/// (benchmark, engine, cycles, MSHR stall cycles, L2 demand misses,
/// prefetches issued, prefetches dropped, prefetched extra) for the first
/// 40,000 Table 1 L1D misses replayed one load each. Every record is a
/// miss, so the 64-entry L1 MSHR file runs full and the order its
/// in-flight fills drain in decides the timing: every row stalls.
const REPLAY_GOLDEN: &[(&str, &str, [u64; 6])] = &[
    ("mcf", "none", [156609, 9954153, 39128, 0, 0, 0]),
    ("mcf", "TCP-8K", [162501, 10330581, 38942, 2118, 0, 1473]),
    ("swim", "none", [80109, 5072494, 20003, 0, 0, 0]),
    ("swim", "TCP-8K", [82363, 5213690, 12557, 16167, 0, 564]),
];

#[test]
fn replay_timing_matches_golden_values() {
    const RECORDS: usize = 40_000;
    let cfg = SystemConfig::table1();
    for &(name, engine, want) in REPLAY_GOLDEN {
        let b = suite().into_iter().find(|b| b.name == name).unwrap();
        let accesses = b
            .generator(RECORDS as u64 * 64)
            .filter_map(|op| op.mem_access());
        let records: Vec<MissRecord> = miss_stream(cfg.hierarchy.l1d, accesses)
            .take(RECORDS)
            .collect();
        assert_eq!(records.len(), RECORDS, "{name}: trace ran dry");
        let prefetcher: Box<dyn Prefetcher> = match engine {
            "none" => Box::new(NullPrefetcher),
            _ => Box::new(Tcp::new(TcpConfig::tcp_8k())),
        };
        let r = replay_records(&records, &cfg, prefetcher);
        let s = &r.stats;
        let got = [
            r.cycles,
            s.mshr_stall_cycles,
            s.l2_demand_misses,
            s.prefetches_issued,
            s.prefetches_dropped,
            s.l2_breakdown.prefetched_extra,
        ];
        assert!(got[1] > 0, "{name} {engine}: the MSHR file must fill");
        assert_eq!(
            got, want,
            "{name} {engine}: (cycles, MSHR stall cycles, L2 demand misses, \
             prefetches issued, prefetches dropped, prefetched extra) drifted"
        );
    }
}

/// (benchmark, engine, L2 policy, cycles, L2 demand misses, L2
/// writebacks, prefetched original) at 200k ops for the three L2
/// replacement policies `ablate` sweeps, `random(7)` being its seed.
/// `all` with no selector never runs `ablate`, so these rows are what
/// pins a non-LRU policy at the system level. Every tree-PLRU and random
/// row differs from its LRU row: a policy that falls back to LRU fails.
const L2_POLICY_GOLDEN: &[(&str, &str, &str, [u64; 4])] = &[
    ("gcc", "none", "lru", [1642223, 26663, 1935, 0]),
    ("gcc", "none", "tree-plru", [1618106, 26311, 1924, 0]),
    ("gcc", "none", "random", [1485083, 24353, 1649, 0]),
    ("gcc", "TCP-8K", "lru", [1610605, 25728, 1979, 3670]),
    ("gcc", "TCP-8K", "tree-plru", [1590869, 25425, 1956, 3654]),
    ("gcc", "TCP-8K", "random", [1449827, 23347, 1778, 3512]),
    ("swim", "none", "lru", [158584, 14393, 3480, 0]),
    ("swim", "none", "tree-plru", [158310, 14393, 3436, 0]),
    ("swim", "none", "random", [155542, 14392, 2639, 0]),
    ("swim", "TCP-8K", "lru", [138928, 9779, 3480, 4614]),
    ("swim", "TCP-8K", "tree-plru", [138761, 9779, 3446, 4614]),
    ("swim", "TCP-8K", "random", [135848, 9764, 2632, 4628]),
];

#[test]
fn l2_replacement_matches_golden_values() {
    for &(name, engine, policy, want) in L2_POLICY_GOLDEN {
        let mut cfg = SystemConfig::table1();
        cfg.hierarchy.l2_replacement = match policy {
            "lru" => Replacement::Lru,
            "tree-plru" => Replacement::TreePlru,
            _ => Replacement::random(7),
        };
        let prefetcher: Box<dyn Prefetcher> = match engine {
            "none" => Box::new(NullPrefetcher),
            _ => Box::new(Tcp::new(TcpConfig::tcp_8k())),
        };
        let b = suite().into_iter().find(|b| b.name == name).unwrap();
        let r = run_benchmark(&b, 200_000, &cfg, prefetcher);
        let s = &r.stats;
        let got = [
            r.cycles,
            s.l2_demand_misses,
            s.l2_writebacks,
            s.l2_breakdown.prefetched_original,
        ];
        assert_eq!(
            got, want,
            "{name} {engine} l2={policy}: (cycles, L2 demand misses, \
             L2 writebacks, prefetched original) drifted"
        );
    }
}
