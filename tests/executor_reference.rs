//! The streaming sweep executor against a naive sequential reference.
//!
//! The reference walks the jobs of each call in order — memo, then store,
//! then a key seen earlier in the call, then a run — inserting every
//! fresh success into the store in job order and flushing after every
//! `batch_jobs` inserted records and once at the end. Its fresh verdicts
//! come from one-job calls. Seeded job lists mix skewed sizes (2k–20k
//! ops, so workers finish out of job order), duplicates of a job still
//! running, of a finished one and of a failing one, and keys already in
//! the store. At every thread count and checkpoint spacing the engine
//! must match the reference exactly: the verdict sequence, its
//! `EngineStats`, the store's bytes and its flush count.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use tcp_repro::experiments::store::SweepStore;
use tcp_repro::experiments::sweep::{
    CheckpointOpts, EngineStats, Job, PrefetcherSpec, SweepEngine, Verdict,
};
use tcp_repro::mem::SplitMix64;
use tcp_repro::sim::faults::panicking_benchmark;
use tcp_repro::sim::{RunResult, SystemConfig};
use tcp_repro::workloads::{suite, Benchmark};

const SEEDS: [u64; 3] = [0x5eed_0001, 0x5eed_0002, 0x5eed_0003];

/// A fresh, empty scratch directory.
fn test_dir(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("executor-ref-{label}"));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// A verdict rendered exactly: cycles, full statistics and IPC bits, or
/// the error text.
fn render(verdict: &Verdict) -> String {
    match verdict {
        Ok(r) => format!(
            "ok {} {} {} {:?} {:016x}",
            r.benchmark,
            r.prefetcher,
            r.cycles,
            r.stats,
            r.ipc.to_bits()
        ),
        Err(e) => format!("err {e}"),
    }
}

/// Two calls' worth of seeded jobs, plus the points pre-loaded into the
/// store.
struct Case {
    calls: [Vec<Job>; 2],
    stored: Vec<Job>,
}

fn case(seed: u64) -> Case {
    let mut rng = SplitMix64::new(seed);
    let benches: Vec<Benchmark> = suite()
        .into_iter()
        .filter(|b| ["gzip", "art", "swim", "mcf", "ammp", "crafty"].contains(&b.name))
        .collect();
    let machine = SystemConfig::table1();
    let point = |rng: &mut SplitMix64| {
        let bench = &benches[rng.next_below(benches.len() as u64) as usize];
        let ops = 2_000 + rng.next_below(18_001);
        let spec = if rng.chance(1, 2) {
            PrefetcherSpec::Null
        } else {
            PrefetcherSpec::Tcp(tcp_repro::core::TcpConfig::tcp_8k())
        };
        Job::new(bench, ops, &machine, spec)
    };
    let fresh: Vec<Job> = (0..6).map(|_| point(&mut rng)).collect();
    let stored: Vec<Job> = (0..2).map(|_| point(&mut rng)).collect();
    let fails = Job::new(
        &panicking_benchmark(),
        4_000,
        &machine,
        PrefetcherSpec::Null,
    );
    // The heaviest point first, then its duplicate while it still runs.
    let heavy = fresh
        .iter()
        .max_by_key(|j| j.n_ops)
        .expect("six points")
        .clone();
    let mut first = vec![heavy.clone(), heavy.clone(), fails.clone(), fails.clone()];
    first.extend(fresh[..3].iter().cloned());
    first.push(stored[0].clone());
    first.push(fails.clone());
    first.push(heavy.clone());
    // Shuffle the tail so the mix differs by seed; the in-flight pairs at
    // the front stay adjacent.
    for i in (5..first.len()).rev() {
        let j = 4 + rng.next_below((i - 3) as u64) as usize;
        first.swap(i, j);
    }
    let mut second: Vec<Job> = fresh[3..].to_vec();
    second.extend([
        stored[1].clone(),
        fresh[0].clone(),
        fails,
        stored[0].clone(),
        heavy,
    ]);
    second.extend(fresh[3..].iter().cloned());
    Case {
        calls: [first, second],
        stored,
    }
}

/// One run's observable effects.
#[derive(Debug, PartialEq)]
struct Effects {
    verdicts: Vec<String>,
    stats: EngineStats,
    store: Vec<u8>,
    flushes: usize,
}

/// A store in `dir` holding exactly the records of `stored`.
fn warm_store(dir: &Path, stored: &[Job]) -> Vec<u8> {
    let mut store = SweepStore::open(dir).expect("open warm store");
    SweepEngine::with_threads(1)
        .run_with(&mut store, stored, &CheckpointOpts::default())
        .expect("warm points run");
    fs::read(store.store_path()).expect("warm store bytes")
}

/// A fresh store in `dir` that starts with `bytes`.
fn store_from(dir: &Path, bytes: &[u8]) -> SweepStore {
    fs::create_dir_all(dir).expect("store dir");
    fs::write(dir.join("store.jsonl"), bytes).expect("seed store");
    SweepStore::open(dir).expect("open store")
}

/// The engine under test: both calls on one engine and one store.
fn engine_effects(case: &Case, dir: &Path, warm: &[u8], threads: usize, batch: usize) -> Effects {
    let mut store = store_from(dir, warm);
    let engine = SweepEngine::with_threads(threads);
    let opts = CheckpointOpts {
        batch_jobs: batch,
        ..CheckpointOpts::default()
    };
    let mut verdicts = Vec::new();
    for jobs in &case.calls {
        let got = engine
            .run_each(Some(&mut store), jobs, &opts)
            .expect("no store error");
        verdicts.extend(got.iter().map(render));
    }
    Effects {
        verdicts,
        stats: engine.stats(),
        store: fs::read(store.store_path()).expect("store bytes"),
        flushes: store.stats().flushes,
    }
}

/// The sequential reference over the same calls. `ran` caches each
/// key's fresh verdict across runs of the reference.
fn reference_effects(
    case: &Case,
    dir: &Path,
    warm: &[u8],
    batch: usize,
    ran: &mut BTreeMap<String, Verdict>,
) -> Effects {
    let mut store = store_from(dir, warm);
    let mut memo: BTreeMap<String, RunResult> = BTreeMap::new();
    let mut stats = EngineStats::default();
    let mut verdicts = Vec::new();
    for jobs in &case.calls {
        let mut seen: BTreeMap<String, String> = BTreeMap::new();
        let mut unflushed = 0;
        for job in jobs {
            stats.requested += 1;
            let key = job.key();
            let verdict = if let Some(r) = memo.get(&key) {
                render(&Ok(r.clone()))
            } else if let Some(r) = store.get(&key).cloned() {
                stats.store_hits += 1;
                memo.insert(key.clone(), r.clone());
                render(&Ok(r))
            } else if let Some(v) = seen.get(&key) {
                v.clone()
            } else {
                stats.executed += 1;
                let verdict = ran.entry(key.clone()).or_insert_with(|| {
                    let one = SweepEngine::with_threads(1)
                        .run_each(None, std::slice::from_ref(job), &CheckpointOpts::default())
                        .expect("no store");
                    one.into_iter().next().expect("one verdict")
                });
                if let Ok(r) = verdict {
                    memo.insert(key.clone(), r.clone());
                    store.insert(&key, r);
                    unflushed += 1;
                    if unflushed == batch {
                        store.flush().expect("reference flush");
                        unflushed = 0;
                    }
                }
                render(verdict)
            };
            seen.insert(key, verdict.clone());
            verdicts.push(verdict);
        }
        store.flush().expect("reference flush");
    }
    Effects {
        verdicts,
        stats,
        store: fs::read(store.store_path()).expect("store bytes"),
        flushes: store.stats().flushes,
    }
}

#[test]
fn executor_matches_the_sequential_reference() {
    for seed in SEEDS {
        let case = case(seed);
        let dir = test_dir(&format!("{seed:x}"));
        let warm = warm_store(&dir.join("warm"), &case.stored);
        let mut ran = BTreeMap::new();
        for batch in [1, 3, 8] {
            let want = reference_effects(&case, &dir.join("ref"), &warm, batch, &mut ran);
            fs::remove_dir_all(dir.join("ref")).expect("cleanup");
            assert!(
                want.verdicts.iter().any(|v| v.starts_with("err ")),
                "seed {seed:#x}: the case includes a failing job"
            );
            for threads in [1, 2, 8] {
                let got = engine_effects(&case, &dir.join("engine"), &warm, threads, batch);
                fs::remove_dir_all(dir.join("engine")).expect("cleanup");
                let at = format!("seed {seed:#x}, {threads} threads, batch_jobs {batch}");
                for (i, (w, g)) in want.verdicts.iter().zip(&got.verdicts).enumerate() {
                    assert_eq!(w, g, "{at}: verdict {i}");
                }
                assert_eq!(want.verdicts.len(), got.verdicts.len(), "{at}");
                assert_eq!(want.stats, got.stats, "{at}: EngineStats");
                assert!(want.store == got.store, "{at}: store bytes differ");
                assert_eq!(want.flushes, got.flushes, "{at}: flushes");
            }
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
