//! Property-based tests of the out-of-order core's scheduling invariants.

use proptest::prelude::*;
use tcp_cache::{HierarchyConfig, MemoryHierarchy, NullPrefetcher};
use tcp_cpu::{CoreConfig, CoreRun, MicroOp, OpClass, SteppedCore};
use tcp_mem::Addr;

/// Steps `stream` through a Table 1 core, starting measurement before op
/// `warmup` (if it exists).
fn run(stream: Vec<MicroOp>, warmup: usize, h: &mut MemoryHierarchy) -> CoreRun {
    let mut core = SteppedCore::new(CoreConfig::default());
    for (i, op) in stream.into_iter().enumerate() {
        if i == warmup && warmup > 0 {
            core.begin_measurement();
            h.reset_stats();
        }
        core.step(op, h);
    }
    core.snapshot()
}

fn arbitrary_op(i: u64, kind: u8, addr: u64, dep: u32) -> MicroOp {
    let pc = Addr::new(0x400 + i * 4);
    match kind % 6 {
        0 => MicroOp::int_alu(pc, (dep > 0).then_some(dep), None),
        1 => MicroOp::fp_alu(pc, (dep > 0).then_some(dep), None),
        2 => MicroOp::load(pc, Addr::new(addr % (1 << 26))),
        3 => MicroOp::store(pc, Addr::new(addr % (1 << 26))),
        4 => MicroOp::branch(pc, (dep > 0).then_some(dep)),
        _ => MicroOp::dependent_load(pc, Addr::new(addr % (1 << 26)), dep.max(1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ipc_is_physically_bounded(ops in prop::collection::vec((0u8..6, 0u64..(1 << 27), 0u32..16), 50..400)) {
        let stream: Vec<MicroOp> =
            ops.iter().enumerate().map(|(i, &(k, a, d))| arbitrary_op(i as u64, k, a, d)).collect();
        let n = stream.len() as u64;
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
        let run = run(stream, 0, &mut h);
        prop_assert_eq!(run.ops, n);
        prop_assert!(run.ipc() <= 8.0 + 1e-9, "cannot exceed machine width: {}", run.ipc());
        prop_assert!(run.cycles >= n / 8, "cycles {} below width floor", run.cycles);
    }

    #[test]
    fn load_store_counts_match_stream(ops in prop::collection::vec((0u8..6, 0u64..(1 << 27), 0u32..16), 20..200)) {
        let stream: Vec<MicroOp> =
            ops.iter().enumerate().map(|(i, &(k, a, d))| arbitrary_op(i as u64, k, a, d)).collect();
        let loads = stream.iter().filter(|o| o.class == OpClass::Load).count() as u64;
        let stores = stream.iter().filter(|o| o.class == OpClass::Store).count() as u64;
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
        let run = run(stream, 0, &mut h);
        prop_assert_eq!(run.loads, loads);
        prop_assert_eq!(run.stores, stores);
        prop_assert_eq!(h.finalize().accesses(), loads + stores);
    }

    #[test]
    fn adding_dependences_never_speeds_things_up(
        ops in prop::collection::vec((0u64..(1 << 24),), 50..250),
    ) {
        // Independent loads vs the same loads chained: the chained run
        // must take at least as many cycles.
        let free: Vec<MicroOp> =
            ops.iter().enumerate().map(|(i, &(a,))| MicroOp::load(Addr::new(i as u64 * 4), Addr::new(a))).collect();
        let chained: Vec<MicroOp> = ops
            .iter()
            .enumerate()
            .map(|(i, &(a,))| MicroOp::dependent_load(Addr::new(i as u64 * 4), Addr::new(a), 1))
            .collect();
        let mut h1 = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
        let r_free = run(free, 0, &mut h1);
        let mut h2 = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
        let r_chained = run(chained, 0, &mut h2);
        prop_assert!(
            r_chained.cycles >= r_free.cycles,
            "chained {} < free {}",
            r_chained.cycles,
            r_free.cycles
        );
    }

    #[test]
    fn warmup_split_measures_only_the_tail(split in 1u64..400) {
        let n = 500u64;
        let stream: Vec<MicroOp> =
            (0..n).map(|i| MicroOp::load(Addr::new(i * 4), Addr::new((i * 64) % (1 << 20)))).collect();
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
        let run = run(stream, split as usize, &mut h);
        prop_assert_eq!(run.ops, n - split);
        prop_assert!(run.cycles > 0);
    }
}
