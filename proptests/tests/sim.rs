//! Property-based tests of the full-system runner.

use proptest::prelude::*;
use tcp_cache::NullPrefetcher;
use tcp_core::{Tcp, TcpConfig};
use tcp_sim::{run_benchmark, Session, SystemConfig, Watchdog};
use tcp_workloads::suite;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_benchmark_any_small_length_is_sane(pick in 0usize..26, n in 5_000u64..40_000) {
        let benches = suite();
        let b = &benches[pick % benches.len()];
        let r = run_benchmark(b, n, &SystemConfig::table1(), Box::new(NullPrefetcher));
        prop_assert_eq!(r.ops, n);
        prop_assert!(r.ipc > 0.0 && r.ipc <= 8.0);
        prop_assert_eq!(r.stats.l1_hits + r.stats.l1_misses + r.stats.l1_mshr_merges, r.stats.accesses());
    }

    #[test]
    fn warmup_length_never_changes_measured_op_count(warm in 0u64..60_000, n in 10_000u64..40_000) {
        let benches = suite();
        let b = &benches[3]; // crafty
        let mut s = Session::new(b.name, &SystemConfig::table1(), Box::new(NullPrefetcher), warm, Watchdog::default()).unwrap();
        s.feed(b.generator(warm + n)).unwrap();
        prop_assert_eq!(s.finish().ops, n);
    }

    #[test]
    fn tcp_never_corrupts_results_only_timing(pick in 0usize..26) {
        // Attaching a prefetcher must not change demand-access counts —
        // only hit/miss composition and cycles.
        let benches = suite();
        let b = &benches[pick % benches.len()];
        let n = 30_000;
        let base = run_benchmark(b, n, &SystemConfig::table1(), Box::new(NullPrefetcher));
        let tcp = run_benchmark(b, n, &SystemConfig::table1(), Box::new(Tcp::new(TcpConfig::tcp_8k())));
        prop_assert_eq!(base.stats.accesses(), tcp.stats.accesses(), "{}", b.name);
        prop_assert_eq!(base.stats.loads, tcp.stats.loads);
        prop_assert_eq!(base.stats.stores, tcp.stats.stores);
    }
}
