//! Acceptance tests for the crash-safe persistent sweep store: a sweep
//! killed mid-way must resume from its checkpoints bit-identically, and
//! every [`StoreFault`] injected into the on-disk records must be
//! quarantined with the right reason while the sweep still completes with
//! correct results. A flush appends only its new records, so a crash
//! anywhere inside an append must cost at most the torn record, and the
//! file's bytes must depend only on the jobs, not on the thread count.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tcp_repro::cache::{HierarchyStats, L2AccessBreakdown};
use tcp_repro::core::TcpConfig;
use tcp_repro::experiments::store::{
    decode_record, encode_record, StoreStats, SweepStore, QUARANTINE_FILE, STORE_FILE,
    STORE_TMP_FILE,
};
use tcp_repro::experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_repro::mem::SplitMix64;
use tcp_repro::sim::faults::{corrupt_store, StoreFault, STORE_FAULTS};
use tcp_repro::sim::{RunResult, SystemConfig};
use tcp_repro::workloads::suite;

const OPS: u64 = 12_000;

fn test_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "store-persistence-{label}-{}",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

/// Four distinct jobs: two benchmarks, each with and without TCP.
fn jobs() -> Vec<Job> {
    jobs_for(&["gzip", "ammp"])
}

/// Two jobs per named benchmark: without and with TCP.
fn jobs_for(names: &[&str]) -> Vec<Job> {
    let machine = SystemConfig::table1();
    let benches = suite();
    names
        .iter()
        .map(|name| benches.iter().find(|b| b.name == *name).expect("bench"))
        .flat_map(|b| {
            [
                Job::new(b, OPS, &machine, PrefetcherSpec::Null),
                Job::new(b, OPS, &machine, PrefetcherSpec::Tcp(TcpConfig::tcp_8k())),
            ]
        })
        .collect()
}

fn assert_bit_identical(a: &[RunResult], b: &[RunResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.benchmark, y.benchmark);
        assert_eq!(x.prefetcher, y.prefetcher);
        assert_eq!(x.cycles, y.cycles, "{}/{}", x.benchmark, x.prefetcher);
        assert_eq!(x.ops, y.ops);
        assert_eq!(x.ipc.to_bits(), y.ipc.to_bits(), "IPC bit-identical");
        assert_eq!(x.stats, y.stats, "full hierarchy stats identical");
    }
}

#[test]
fn killed_sweep_resumes_from_checkpoints_bit_identically() {
    let jobs = jobs();
    let reference = SweepEngine::with_threads(2).run(&jobs);

    // Phase 1: a sweep that dies after finishing only the first half.
    // Dropping the engine and store mid-sequence models the kill — the
    // store has already checkpointed each single-job batch to disk.
    let dir = test_dir("resume");
    let opts = CheckpointOpts {
        batch_jobs: 1,
        ..CheckpointOpts::default()
    };
    {
        let engine = SweepEngine::with_threads(2);
        let mut store = SweepStore::open(&dir).expect("open");
        let half = &jobs[..jobs.len() / 2];
        engine
            .run_with(&mut store, half, &opts)
            .expect("first half completes");
        assert_eq!(store.len(), half.len());
        // No explicit flush here beyond the per-batch checkpoints: the
        // "killed" process never got to say goodbye.
    }

    // Phase 2: a fresh process resumes the full sweep from the same dir.
    let engine = SweepEngine::with_threads(2);
    let mut store = SweepStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), jobs.len() / 2, "checkpoints survived the kill");
    let resumed = engine
        .run_with(&mut store, &jobs, &opts)
        .expect("resume completes");
    let stats = engine.stats();
    assert_eq!(
        stats.executed,
        jobs.len() - jobs.len() / 2,
        "only the unfinished jobs are re-simulated"
    );
    assert_eq!(stats.store_hits, jobs.len() / 2);
    assert_bit_identical(&reference, &resumed);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Which [`StoreStats`] quarantine counter a given fault must bump.
fn quarantined_for(stats: &StoreStats, fault: StoreFault) -> usize {
    match fault {
        StoreFault::TruncatedTail => stats.quarantined_parse,
        StoreFault::BitFlip => stats.quarantined_checksum,
        StoreFault::StaleVersion => stats.quarantined_version,
        StoreFault::TornRename => stats.quarantined_torn,
        StoreFault::DuplicateKey => stats.quarantined_duplicate,
    }
}

#[test]
fn every_store_fault_is_quarantined_and_the_sweep_still_completes() {
    let jobs = jobs();
    let reference = SweepEngine::with_threads(2).run(&jobs);

    // Build one healthy store to corrupt copies of.
    let seed_dir = test_dir("fault-seed");
    let healthy = {
        let engine = SweepEngine::with_threads(2);
        let mut store = SweepStore::open(&seed_dir).expect("open");
        engine
            .run_with(&mut store, &jobs, &CheckpointOpts::default())
            .expect("seed sweep");
        fs::read(store.store_path()).expect("read healthy store")
    };

    for fault in STORE_FAULTS {
        let dir = test_dir("fault");
        fs::create_dir_all(&dir).expect("mkdir");
        let hurt = corrupt_store(&healthy, fault);
        fs::write(dir.join("store.jsonl"), &hurt.store).expect("plant store");
        if let Some(tmp) = &hurt.orphan_tmp {
            fs::write(dir.join(STORE_TMP_FILE), tmp).expect("plant orphan");
        }

        let mut store =
            SweepStore::open(&dir).unwrap_or_else(|e| panic!("open survives {fault:?}: {e}"));
        let stats = store.stats();
        assert!(
            quarantined_for(&stats, fault) >= 1,
            "{fault:?} must bump its quarantine counter: {}",
            stats.summary()
        );
        let quarantine = fs::read_to_string(dir.join(QUARANTINE_FILE))
            .unwrap_or_else(|e| panic!("{fault:?} must leave a quarantine file: {e}"));
        assert!(
            !quarantine.trim().is_empty(),
            "{fault:?} quarantine records carry their reason"
        );

        // The degraded store must still serve a correct sweep: surviving
        // records are reused, quarantined ones re-simulated.
        let engine = SweepEngine::with_threads(2);
        let recovered = engine
            .run_with(&mut store, &jobs, &CheckpointOpts::default())
            .expect("sweep over degraded store completes");
        assert_bit_identical(&reference, &recovered);

        // After recovery the store is clean: a reopen quarantines nothing.
        drop(store);
        let reopened = SweepStore::open(&dir).expect("reopen after recovery");
        assert_eq!(
            reopened.stats().total_quarantined(),
            0,
            "{fault:?} leaves a clean store behind"
        );
        assert_eq!(reopened.len(), jobs.len());
        fs::remove_dir_all(&dir).expect("cleanup");
    }
    fs::remove_dir_all(&seed_dir).expect("cleanup");
}

/// A result whose counters are drawn from `seed`, so a record that comes
/// back swapped for another cannot pass for the original.
fn synthetic_result(seed: u64) -> RunResult {
    let mut rng = SplitMix64::new(seed);
    let mut n = || rng.next_u64() >> 48;
    RunResult {
        benchmark: format!("b{seed}"),
        prefetcher: "tcp-8k".to_owned(),
        prefetcher_bytes: 8192,
        ipc: f64::from_bits(n() | 0x3ff0_0000_0000_0000),
        cycles: n(),
        ops: n(),
        stats: HierarchyStats {
            loads: n(),
            stores: n(),
            l1_hits: n(),
            l1_misses: n(),
            l2_demand_misses: n(),
            prefetches_issued: n(),
            l2_breakdown: L2AccessBreakdown {
                prefetched_original: n(),
                non_prefetched_original: n(),
                prefetched_extra: n(),
            },
            ..HierarchyStats::default()
        },
    }
}

#[test]
fn every_cut_inside_an_append_recovers() {
    // Short keys keep each record small, so the loop over every cut of
    // the append stays quick.
    let results: Vec<(String, RunResult)> = (0..6)
        .map(|i| (format!("k{i}"), synthetic_result(i)))
        .collect();
    let first = &results[..3];
    // Appended out of key order, so a rewrite (which writes key order)
    // cannot pass for an append.
    let appended = [&results[5], &results[3], &results[4]];

    let dir = test_dir("append");
    let mut store = SweepStore::open(&dir).expect("open");
    for (key, result) in first {
        store.insert(key, result);
    }
    store.flush().expect("first flush");
    let before = fs::read(store.store_path()).expect("read the first flush");
    for (key, result) in appended {
        store.insert(key, result);
    }
    store.flush().expect("append");
    let after = fs::read(store.store_path()).expect("read the append");
    drop(store);
    fs::remove_dir_all(&dir).expect("cleanup");

    // The append wrote exactly its new records, in insertion order, one
    // line each, and left the first flush's bytes as they were.
    assert!(
        after.starts_with(&before),
        "the append rewrote the bytes of an earlier flush"
    );
    let mut new_lines = String::new();
    // Byte offsets where each appended record starts and where its JSON
    // ends (just before its newline).
    let mut spans = Vec::new();
    for (key, result) in appended {
        let start = before.len() + new_lines.len();
        new_lines.push_str(&encode_record(key, result));
        spans.push((start, before.len() + new_lines.len()));
        new_lines.push('\n');
    }
    assert_eq!(
        String::from_utf8_lossy(&after[before.len()..]),
        new_lines,
        "the append holds exactly the new records, in insertion order"
    );

    // One directory serves every cut: each replaces the store file, and
    // the quarantine file only grows.
    let dir = test_dir("cut");
    fs::create_dir_all(&dir).expect("mkdir");
    for cut in before.len()..=after.len() {
        fs::write(dir.join(STORE_FILE), &after[..cut]).expect("plant the cut store");

        let mut store = SweepStore::open(&dir).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let complete = spans.iter().filter(|&&(_, end)| end <= cut).count();
        let torn = spans.iter().any(|&(start, end)| start < cut && cut < end);
        let stats = store.stats();
        assert_eq!(stats.loaded, first.len() + complete, "cut {cut}");
        assert_eq!(stats.quarantined_parse, usize::from(torn), "cut {cut}");
        assert_eq!(stats.total_quarantined(), usize::from(torn), "cut {cut}");
        for (key, result) in first.iter().chain(appended[..complete].iter().copied()) {
            let loaded = store
                .get(key)
                .unwrap_or_else(|| panic!("cut {cut}: complete record {key} lost"));
            assert_bit_identical(std::slice::from_ref(result), std::slice::from_ref(loaded));
        }

        // Resume: insert every reference result (the keys still present
        // must queue nothing) and flush.
        for (key, result) in &results {
            store.insert(key, result);
        }
        assert_eq!(
            store.stats().inserted,
            appended.len() - complete,
            "cut {cut}"
        );
        store.flush().expect("resume flush");
        drop(store);
        let reopened = SweepStore::open(&dir).expect("reopen");
        assert_eq!(reopened.stats().total_quarantined(), 0, "cut {cut}");
        assert_eq!(reopened.len(), results.len(), "cut {cut}");
        for (key, result) in &results {
            let loaded = reopened
                .get(key)
                .unwrap_or_else(|| panic!("cut {cut}: {key} missing after resume"));
            assert_bit_identical(std::slice::from_ref(result), std::slice::from_ref(loaded));
        }
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn store_bytes_do_not_depend_on_threads() {
    let jobs = jobs_for(&["gzip", "ammp", "mcf", "art", "crafty"]);
    let mut reference: Option<Vec<u8>> = None;
    for threads in [1, 2, 8] {
        for batch_jobs in [1, 8] {
            let dir = test_dir("threads");
            let mut store = SweepStore::open(&dir).expect("open");
            let opts = CheckpointOpts {
                batch_jobs,
                ..CheckpointOpts::default()
            };
            SweepEngine::with_threads(threads)
                .run_with(&mut store, &jobs, &opts)
                .expect("sweep completes");
            let bytes = fs::read(store.store_path()).expect("read store");
            drop(store);
            fs::remove_dir_all(&dir).expect("cleanup");
            match &reference {
                None => {
                    // The records land in job order: that is the order
                    // the engine inserts them, batch by batch.
                    let text = std::str::from_utf8(&bytes).expect("store is UTF-8");
                    let keys: Vec<String> = text
                        .lines()
                        .map(|line| decode_record(line).expect("clean record").0)
                        .collect();
                    let job_keys: Vec<String> = jobs.iter().map(Job::key).collect();
                    assert_eq!(keys, job_keys, "store lines follow job order");
                    reference = Some(bytes);
                }
                Some(want) => assert!(
                    *want == bytes,
                    "store.jsonl at {threads} threads, batch_jobs {batch_jobs}, \
                     differs from 1 thread, batch_jobs 1"
                ),
            }
        }
    }
}
