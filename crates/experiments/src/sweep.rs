//! The deterministic sweep engine: memoized simulation jobs for the whole
//! experiment harness.
//!
//! Every figure of the paper boils down to the same primitive — *simulate
//! benchmark B for N ops on machine M with prefetcher P* — and the
//! figures overlap heavily: Figures 1, 11, and 14 all need the
//! no-prefetch Table 1 baseline of every benchmark, Figures 11, 12, and
//! 14 all need TCP-8K, and so on. Run figure by figure, the harness
//! simulates those shared points again and again.
//!
//! [`SweepEngine`] fixes both the recomputation and the scheduling: a
//! figure describes its simulations as [`Job`] values and submits the
//! whole batch at once. The engine deduplicates jobs against a persistent
//! memo keyed by the job's full identity (benchmark workload spec, op
//! count, machine configuration, prefetcher configuration), executes only
//! the missing ones on the work-stealing pool of
//! [`tcp_sim::sweep::run_jobs_stealing`], and returns results in
//! submission order. Sharing one engine across figures (as `--bin all`
//! does) removes roughly half of all simulation work at zero cost in
//! fidelity: simulations are bit-deterministic, so a memoized result is
//! indistinguishable from a re-run.
//!
//! # Examples
//!
//! ```
//! use tcp_experiments::sweep::{Job, PrefetcherSpec, SweepEngine};
//! use tcp_sim::SystemConfig;
//! use tcp_workloads::suite;
//!
//! let bench = &suite()[0];
//! let machine = SystemConfig::table1();
//! let engine = SweepEngine::with_threads(2);
//! let jobs = vec![
//!     Job::new(bench, 10_000, &machine, PrefetcherSpec::Null),
//!     Job::new(bench, 10_000, &machine, PrefetcherSpec::Null),
//! ];
//! let results = engine.run(&jobs);
//! assert_eq!(results[0].cycles, results[1].cycles);
//! assert_eq!(engine.stats().executed, 1); // the duplicate was memoized
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use tcp_baselines::{Dbcp, DbcpConfig};
use tcp_cache::{NullPrefetcher, Prefetcher};
use tcp_core::{DbpConfig, HybridTcp, StrideAugmentedTcp, Tcp, TcpConfig};
use tcp_sim::{run_benchmark, RunError, RunResult, Session, SimError, SystemConfig, Watchdog};
use tcp_workloads::Benchmark;

use crate::store::{StoreError, SweepStore};

/// A buildable, comparable description of a prefetch engine.
///
/// The suite runners take opaque factory closures; the sweep engine needs
/// *values* so two jobs wanting the same engine can be recognised as
/// equal. Every prefetcher the experiment harness uses has a variant
/// here.
#[derive(Clone, Copy, Debug)]
pub enum PrefetcherSpec {
    /// No prefetching (the baseline machine).
    Null,
    /// Tag-correlating prefetcher with the given configuration.
    Tcp(TcpConfig),
    /// TCP with the per-set stride fast path (Section 6).
    StrideTcp(TcpConfig),
    /// TCP plus dead-block-predicted L1 promotion (the Figure 14 hybrid).
    HybridTcp(TcpConfig, DbpConfig),
    /// Address-based dead-block correlating prefetcher (the paper's
    /// main comparison point).
    Dbcp(DbcpConfig),
}

impl PrefetcherSpec {
    /// Instantiates a fresh engine for one simulation run.
    pub fn build(&self) -> Box<dyn Prefetcher + Send> {
        match self {
            PrefetcherSpec::Null => Box::new(NullPrefetcher),
            PrefetcherSpec::Tcp(cfg) => Box::new(Tcp::new(*cfg)),
            PrefetcherSpec::StrideTcp(cfg) => Box::new(StrideAugmentedTcp::new(*cfg)),
            PrefetcherSpec::HybridTcp(tcp, dbp) => Box::new(HybridTcp::new(*tcp, *dbp)),
            PrefetcherSpec::Dbcp(cfg) => Box::new(Dbcp::new(*cfg)),
        }
    }

    /// The named preset configurations `tcp-serve` requests can ask for,
    /// as `(name, spec)` pairs.
    pub fn presets() -> [(&'static str, PrefetcherSpec); 6] {
        [
            ("null", PrefetcherSpec::Null),
            ("tcp-8k", PrefetcherSpec::Tcp(TcpConfig::tcp_8k())),
            ("tcp-8m", PrefetcherSpec::Tcp(TcpConfig::tcp_8m())),
            (
                "stride-tcp-8k",
                PrefetcherSpec::StrideTcp(TcpConfig::tcp_8k()),
            ),
            (
                "hybrid-tcp-8k",
                PrefetcherSpec::HybridTcp(TcpConfig::tcp_8k(), DbpConfig::default()),
            ),
            ("dbcp-2m", PrefetcherSpec::Dbcp(DbcpConfig::dbcp_2m())),
        ]
    }

    /// Resolves a preset name from [`PrefetcherSpec::presets`], or `None`
    /// for an unknown name.
    pub fn from_name(name: &str) -> Option<PrefetcherSpec> {
        PrefetcherSpec::presets()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, spec)| spec)
    }
}

/// One simulation request: benchmark × scale × machine × prefetcher.
///
/// A job's identity (its memo key) covers everything that can change the
/// simulated outcome, including the benchmark's full workload spec — two
/// benchmarks that merely share a name do not alias.
#[derive(Clone, Debug)]
pub struct Job {
    /// The workload to simulate.
    pub benchmark: Benchmark,
    /// Micro-ops to simulate (half are the unmeasured warm-up, exactly as
    /// [`tcp_sim::run_benchmark`] does).
    pub n_ops: u64,
    /// The machine to simulate on.
    pub machine: SystemConfig,
    /// The prefetch engine to attach.
    pub prefetcher: PrefetcherSpec,
}

impl Job {
    /// Builds a job for `benchmark` (cloned) at `n_ops` on `machine`.
    pub fn new(
        benchmark: &Benchmark,
        n_ops: u64,
        machine: &SystemConfig,
        prefetcher: PrefetcherSpec,
    ) -> Self {
        Job {
            benchmark: benchmark.clone(),
            n_ops,
            machine: *machine,
            prefetcher,
        }
    }

    /// Canonical identity of this simulation — the memo key of both the
    /// in-process memo and the persistent [`SweepStore`]. All components
    /// are plain data with derived `Debug`, which renders every field —
    /// so equal keys imply identical simulation inputs, and the
    /// simulator's bit-determinism turns that into identical outputs.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{:?}|{:?}|{:?}",
            self.benchmark.name, self.n_ops, self.benchmark.spec, self.machine, self.prefetcher
        )
    }
}

/// Cumulative accounting across every batch an engine has served.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Simulation results requested (total jobs submitted).
    pub requested: usize,
    /// Simulations actually executed.
    pub executed: usize,
    /// Requests served by reading the persistent [`SweepStore`] (only
    /// [`SweepEngine::run_with`] produces these; one per distinct key
    /// pulled from disk).
    pub store_hits: usize,
}

impl EngineStats {
    /// Requests served from the in-process memo instead of simulating or
    /// reading the store.
    pub fn memo_hits(&self) -> usize {
        self.requested - self.executed - self.store_hits
    }
}

/// A failure from a store-backed sweep ([`SweepEngine::run_with`]).
#[derive(Debug)]
pub enum SweepError {
    /// The persistent store hit an I/O failure (checkpoints could not be
    /// written or the store could not be read).
    Store(StoreError),
    /// A job failed after exhausting its watchdog retries (first failing
    /// job in submission order). Completed work in the same batch was
    /// checkpointed before this surfaced, so a retry resumes from it.
    Job {
        /// Benchmark of the failing job.
        benchmark: String,
        /// Why the job failed.
        reason: SimError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Store(e) => write!(f, "sweep store failure: {e}"),
            SweepError::Job { benchmark, reason } => {
                write!(f, "sweep job '{benchmark}' failed: {reason}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Store(e) => Some(e),
            SweepError::Job { reason, .. } => Some(reason),
        }
    }
}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

/// Policy for a store-backed, checkpointed sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointOpts {
    /// Jobs simulated between checkpoints: after each batch of this many
    /// completed jobs the store is flushed, so a killed sweep loses at
    /// most one batch of work.
    pub batch_jobs: usize,
    /// Forward-progress supervision for each job (the PR 1 watchdog).
    pub watchdog: Watchdog,
    /// How many times a wedged job is retried with a relaxed watchdog
    /// (each retry multiplies the cycles-per-op cap by 16) before the
    /// sweep reports it failed.
    pub max_retries: u32,
}

impl Default for CheckpointOpts {
    /// Checkpoint every 8 jobs under the default watchdog with 2 retries.
    fn default() -> Self {
        CheckpointOpts {
            batch_jobs: 8,
            watchdog: Watchdog::default(),
            max_retries: 2,
        }
    }
}

/// Each watchdog retry multiplies `max_cycles_per_op` by this factor, so
/// a genuinely slow-but-progressing job eventually completes while a
/// truly wedged one still fails fast in bounded attempts.
const RETRY_RELAX_FACTOR: u64 = 16;

/// A memoizing, work-stealing runner for batches of simulation [`Job`]s.
///
/// The memo persists for the engine's lifetime, so figures that share an
/// engine share results across batches. The engine is `Sync`; concurrent
/// batches are safe (a key raced by two batches is simulated twice, both
/// producing the identical deterministic result) but the harness submits
/// batches sequentially.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    memo: Mutex<BTreeMap<String, RunResult>>,
    stats: Mutex<EngineStats>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// An engine sized to the machine's available parallelism.
    pub fn new() -> Self {
        SweepEngine::with_threads(tcp_sim::sweep::default_threads())
    }

    /// An engine with an explicit worker count. Results are independent
    /// of `threads`; only wall-clock time changes.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "sweep engine needs at least one thread");
        SweepEngine {
            threads,
            memo: Mutex::new(BTreeMap::new()),
            stats: Mutex::new(EngineStats::default()),
        }
    }

    /// Runs a batch of jobs and returns one [`RunResult`] per job, in
    /// submission order.
    ///
    /// Jobs whose key is already memoized (from this batch or any earlier
    /// one) are served by cloning the stored result; the rest execute on
    /// the work-stealing pool, each distinct key exactly once.
    ///
    /// # Panics
    ///
    /// Re-raises the first (in submission order) panic from an executing
    /// simulation, matching the panicking [`run_benchmark`] contract the
    /// figure modules rely on.
    pub fn run(&self, jobs: &[Job]) -> Vec<RunResult> {
        let keys: Vec<String> = jobs.iter().map(Job::key).collect();
        // First unmemoized occurrence of each distinct key in this batch.
        let mut to_run: Vec<usize> = Vec::new();
        {
            let memo = lock(&self.memo);
            let mut fresh: BTreeMap<&str, ()> = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                if !memo.contains_key(key) && fresh.insert(key.as_str(), ()).is_none() {
                    to_run.push(i);
                }
            }
        }
        // Simulate the missing points without holding the memo lock.
        let executed = tcp_sim::sweep::run_jobs_stealing(to_run.len(), self.threads, |u| {
            let job = &jobs[to_run[u]];
            run_benchmark(
                &job.benchmark,
                job.n_ops,
                &job.machine,
                job.prefetcher.build(),
            )
        });
        let mut memo = lock(&self.memo);
        for (&i, result) in to_run.iter().zip(executed) {
            memo.insert(keys[i].clone(), result);
        }
        let out = keys
            .iter()
            .map(|key| {
                memo.get(key)
                    .cloned()
                    // tcp-lint: allow(panic-in-library) — documented invariant: the loop above memoized every missing key
                    .expect("every submitted key was memoized or just executed")
            })
            .collect();
        let mut stats = lock(&self.stats);
        stats.requested += jobs.len();
        stats.executed += to_run.len();
        out
    }

    /// Runs a batch of jobs through the persistent `store`, returning one
    /// [`RunResult`] per job in submission order.
    ///
    /// The lookup order per key is: in-process memo, then the store
    /// (disk hits are pulled into the memo and counted as
    /// [`EngineStats::store_hits`]), then simulation. Misses execute on
    /// the work-stealing pool in batches of
    /// [`CheckpointOpts::batch_jobs`]; after each batch the new results
    /// are inserted and the store is **flushed with the crash-safe
    /// protocol**, so a sweep killed mid-run resumes from the last
    /// completed batch — bit-identically, because stored results
    /// round-trip exactly and the simulator is deterministic.
    ///
    /// Each job is supervised by the [`Watchdog`] from `opts`; a wedged
    /// job is retried up to [`CheckpointOpts::max_retries`] times with a
    /// progressively relaxed cycles-per-op cap before the sweep reports
    /// [`SweepError::Job`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Store`] when a checkpoint cannot be written, and
    /// [`SweepError::Job`] when a job fails after its bounded retries.
    /// In both cases every batch completed so far (including successes
    /// in the failing batch) has been flushed to the store.
    pub fn run_with(
        &self,
        store: &mut SweepStore,
        jobs: &[Job],
        opts: &CheckpointOpts,
    ) -> Result<Vec<RunResult>, SweepError> {
        let keys: Vec<String> = jobs.iter().map(Job::key).collect();
        let mut to_run: Vec<usize> = Vec::new();
        let mut store_hits = 0usize;
        {
            let mut memo = lock(&self.memo);
            let mut fresh: BTreeMap<&str, ()> = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                if memo.contains_key(key) {
                    continue;
                }
                if let Some(result) = store.get(key) {
                    memo.insert(key.clone(), result.clone());
                    store_hits += 1;
                    continue;
                }
                if fresh.insert(key.as_str(), ()).is_none() {
                    to_run.push(i);
                }
            }
        }
        let mut executed = 0usize;
        let mut first_failure: Option<SweepError> = None;
        'batches: for chunk in to_run.chunks(opts.batch_jobs.max(1)) {
            let outcomes = tcp_sim::sweep::run_jobs_stealing(chunk.len(), self.threads, |u| {
                run_supervised(&jobs[chunk[u]], opts)
            });
            let mut memo = lock(&self.memo);
            for (&i, outcome) in chunk.iter().zip(outcomes) {
                match outcome {
                    Ok(result) => {
                        store.insert(&keys[i], &result);
                        memo.insert(keys[i].clone(), result);
                        executed += 1;
                    }
                    Err(reason) => {
                        if first_failure.is_none() {
                            first_failure = Some(SweepError::Job {
                                benchmark: jobs[i].benchmark.name.to_owned(),
                                reason,
                            });
                        }
                    }
                }
            }
            drop(memo);
            // Checkpoint the batch's successes even when a job failed:
            // graceful degradation means a retry resumes from here.
            store.flush()?;
            if first_failure.is_some() {
                break 'batches;
            }
        }
        let mut stats = lock(&self.stats);
        stats.requested += jobs.len();
        stats.executed += executed;
        stats.store_hits += store_hits;
        drop(stats);
        if let Some(failure) = first_failure {
            return Err(failure);
        }
        let memo = lock(&self.memo);
        Ok(keys
            .iter()
            .map(|key| {
                memo.get(key)
                    .cloned()
                    // tcp-lint: allow(panic-in-library) — documented invariant: checkpoint batches memoized every missing key
                    .expect("every submitted key was memoized, stored, or just executed")
            })
            .collect())
    }

    /// Cumulative request/execution counts since the engine was built.
    pub fn stats(&self) -> EngineStats {
        *lock(&self.stats)
    }

    /// Distinct simulation points currently memoized.
    pub fn memo_len(&self) -> usize {
        lock(&self.memo).len()
    }

    /// Worker threads this engine simulates on.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Runs one job under its watchdog, retrying a wedge up to
/// `opts.max_retries` times with a relaxed cap. The job runs through the
/// same [`Session`] as [`run_benchmark`] (with the same half-length
/// warm-up), so results are interchangeable with [`SweepEngine::run`]'s.
fn run_supervised(job: &Job, opts: &CheckpointOpts) -> Result<RunResult, SimError> {
    let bench = &job.benchmark;
    let warmup = job.n_ops / 2;
    let mut watchdog = opts.watchdog;
    let mut attempt = 0u32;
    loop {
        let mut session = Session::new(
            bench.name,
            &job.machine,
            job.prefetcher.build(),
            warmup,
            watchdog,
        )?;
        let outcome = session
            .feed(bench.generator(warmup + job.n_ops))
            .map(|()| session.finish());
        match outcome {
            Err(SimError::Run(RunError::Wedged { .. })) if attempt < opts.max_retries => {
                attempt += 1;
                watchdog.max_cycles_per_op = watchdog
                    .max_cycles_per_op
                    .saturating_mul(RETRY_RELAX_FACTOR);
            }
            other => return other,
        }
    }
}

/// Locks ignoring poisoning: the guarded state (memo map, counters) is
/// only mutated by infallible inserts and additions, so a panic elsewhere
/// cannot leave it torn.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::suite;

    fn picks(names: &[&str]) -> Vec<Benchmark> {
        suite()
            .into_iter()
            .filter(|b| names.contains(&b.name))
            .collect()
    }

    #[test]
    fn engine_matches_direct_run_bit_for_bit() {
        let benches = picks(&["gzip", "art"]);
        let machine = SystemConfig::table1();
        let engine = SweepEngine::with_threads(2);
        let jobs: Vec<Job> = benches
            .iter()
            .map(|b| {
                Job::new(
                    b,
                    20_000,
                    &machine,
                    PrefetcherSpec::Tcp(TcpConfig::tcp_8k()),
                )
            })
            .collect();
        let results = engine.run(&jobs);
        for (b, r) in benches.iter().zip(&results) {
            let direct =
                run_benchmark(b, 20_000, &machine, Box::new(Tcp::new(TcpConfig::tcp_8k())));
            assert_eq!(r.cycles, direct.cycles, "{}", b.name);
            assert_eq!(r.stats, direct.stats, "{}", b.name);
            assert_eq!(r.ipc, direct.ipc, "{}", b.name);
            assert_eq!(r.prefetcher, direct.prefetcher, "{}", b.name);
        }
    }

    #[test]
    fn duplicates_within_a_batch_simulate_once() {
        let benches = picks(&["gzip"]);
        let machine = SystemConfig::table1();
        let engine = SweepEngine::with_threads(2);
        let job = Job::new(&benches[0], 10_000, &machine, PrefetcherSpec::Null);
        let results = engine.run(&[job.clone(), job.clone(), job]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].cycles, results[1].cycles);
        assert_eq!(results[0].stats, results[2].stats);
        assert_eq!(
            engine.stats(),
            EngineStats {
                requested: 3,
                executed: 1,
                store_hits: 0
            }
        );
        assert_eq!(engine.stats().memo_hits(), 2);
        assert_eq!(engine.memo_len(), 1);
    }

    #[test]
    fn memo_persists_across_batches() {
        let benches = picks(&["swim"]);
        let machine = SystemConfig::table1();
        let engine = SweepEngine::with_threads(2);
        let job = Job::new(&benches[0], 10_000, &machine, PrefetcherSpec::Null);
        let first = engine.run(std::slice::from_ref(&job));
        let second = engine.run(std::slice::from_ref(&job));
        assert_eq!(first[0].cycles, second[0].cycles);
        assert_eq!(first[0].stats, second[0].stats);
        assert_eq!(
            engine.stats(),
            EngineStats {
                requested: 2,
                executed: 1,
                store_hits: 0
            }
        );
    }

    #[test]
    fn distinct_configurations_do_not_alias() {
        let benches = picks(&["gzip"]);
        let machine = SystemConfig::table1();
        let ideal = SystemConfig::table1_ideal_l2();
        let engine = SweepEngine::with_threads(2);
        let jobs = vec![
            Job::new(&benches[0], 10_000, &machine, PrefetcherSpec::Null),
            Job::new(&benches[0], 10_000, &ideal, PrefetcherSpec::Null),
            Job::new(&benches[0], 12_000, &machine, PrefetcherSpec::Null),
            Job::new(
                &benches[0],
                10_000,
                &machine,
                PrefetcherSpec::Tcp(TcpConfig::tcp_8k()),
            ),
        ];
        let results = engine.run(&jobs);
        assert_eq!(results.len(), 4);
        assert_eq!(engine.stats().executed, 4, "all four points are distinct");
        assert!(
            results[1].cycles < results[0].cycles,
            "ideal L2 must be faster"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let benches = picks(&["gzip", "art", "swim"]);
        let machine = SystemConfig::table1();
        let jobs: Vec<Job> = benches
            .iter()
            .flat_map(|b| {
                [
                    Job::new(b, 15_000, &machine, PrefetcherSpec::Null),
                    Job::new(
                        b,
                        15_000,
                        &machine,
                        PrefetcherSpec::Tcp(TcpConfig::tcp_8k()),
                    ),
                ]
            })
            .collect();
        let reference = SweepEngine::with_threads(1).run(&jobs);
        for threads in [2, 8] {
            let got = SweepEngine::with_threads(threads).run(&jobs);
            assert_eq!(got.len(), reference.len());
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.cycles, b.cycles, "{threads} threads: {}", a.benchmark);
                assert_eq!(a.stats, b.stats, "{threads} threads: {}", a.benchmark);
                assert_eq!(a.ipc, b.ipc, "{threads} threads: {}", a.benchmark);
            }
        }
    }

    #[test]
    fn every_prefetcher_spec_builds_and_runs() {
        let benches = picks(&["ammp"]);
        let machine = SystemConfig::table1();
        let engine = SweepEngine::with_threads(2);
        let specs = [
            PrefetcherSpec::Null,
            PrefetcherSpec::Tcp(TcpConfig::tcp_8k()),
            PrefetcherSpec::StrideTcp(TcpConfig::with_pht_bytes(2 * 1024, 0)),
            PrefetcherSpec::HybridTcp(TcpConfig::tcp_8k(), DbpConfig::default()),
            PrefetcherSpec::Dbcp(DbcpConfig::dbcp_2m()),
        ];
        let jobs: Vec<Job> = specs
            .iter()
            .map(|s| Job::new(&benches[0], 10_000, &machine, *s))
            .collect();
        let results = engine.run(&jobs);
        assert_eq!(results.len(), specs.len());
        assert_eq!(engine.stats().executed, specs.len());
        for r in &results {
            assert!(r.ipc > 0.0, "{}", r.prefetcher);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = SweepEngine::with_threads(2);
        assert!(engine.run(&[]).is_empty());
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.memo_len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = SweepEngine::with_threads(0);
    }

    #[test]
    fn every_preset_resolves_and_builds() {
        for (name, spec) in PrefetcherSpec::presets() {
            let resolved = PrefetcherSpec::from_name(name).expect(name);
            assert_eq!(format!("{resolved:?}"), format!("{spec:?}"), "{name}");
            let _engine = resolved.build();
        }
        assert!(PrefetcherSpec::from_name("no-such-engine").is_none());
    }

    mod store_backed {
        use super::*;
        use crate::store::SweepStore;
        use std::sync::atomic::{AtomicU64, Ordering};

        fn test_dir(name: &str) -> std::path::PathBuf {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("tcp-sweep-unit-{}-{name}-{n}", std::process::id()));
            if dir.exists() {
                std::fs::remove_dir_all(&dir).expect("stale test dir removable");
            }
            dir
        }

        fn jobs_for(names: &[&str], n_ops: u64) -> Vec<Job> {
            let machine = SystemConfig::table1();
            picks(names)
                .iter()
                .flat_map(|b| {
                    [
                        Job::new(b, n_ops, &machine, PrefetcherSpec::Null),
                        Job::new(b, n_ops, &machine, PrefetcherSpec::Tcp(TcpConfig::tcp_8k())),
                    ]
                })
                .collect()
        }

        #[test]
        fn store_backed_run_matches_plain_run_bit_for_bit() {
            let dir = test_dir("parity");
            let jobs = jobs_for(&["gzip", "art"], 15_000);
            let plain = SweepEngine::with_threads(2).run(&jobs);
            let engine = SweepEngine::with_threads(2);
            let mut store = SweepStore::open(&dir).expect("open");
            let stored = engine
                .run_with(&mut store, &jobs, &CheckpointOpts::default())
                .expect("store-backed run");
            for (a, b) in plain.iter().zip(&stored) {
                assert_eq!(a.cycles, b.cycles, "{}", a.benchmark);
                assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{}", a.benchmark);
                assert_eq!(a.stats, b.stats, "{}", a.benchmark);
            }
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }

        #[test]
        fn second_run_is_served_entirely_from_the_store() {
            let dir = test_dir("warm");
            let jobs = jobs_for(&["swim"], 10_000);
            let first = {
                let engine = SweepEngine::with_threads(2);
                let mut store = SweepStore::open(&dir).expect("open");
                let results = engine
                    .run_with(&mut store, &jobs, &CheckpointOpts::default())
                    .expect("cold run");
                assert_eq!(engine.stats().executed, jobs.len());
                assert_eq!(engine.stats().store_hits, 0);
                results
            };
            // Fresh engine, fresh process-equivalent: only the disk knows.
            let engine = SweepEngine::with_threads(2);
            let mut store = SweepStore::open(&dir).expect("reopen");
            let second = engine
                .run_with(&mut store, &jobs, &CheckpointOpts::default())
                .expect("warm run");
            assert_eq!(engine.stats().executed, 0, "nothing re-simulates");
            assert_eq!(engine.stats().store_hits, jobs.len());
            assert_eq!(engine.stats().memo_hits(), 0);
            for (a, b) in first.iter().zip(&second) {
                assert_eq!(a.cycles, b.cycles);
                assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
                assert_eq!(a.stats, b.stats);
            }
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }

        #[test]
        fn wedged_job_fails_after_bounded_retries_and_checkpoints_survivors() {
            let dir = test_dir("wedge");
            let machine = SystemConfig::table1();
            let healthy = picks(&["gzip"]);
            let jobs = vec![
                Job::new(&healthy[0], 10_000, &machine, PrefetcherSpec::Null),
                Job::new(
                    &healthy[0],
                    50_000,
                    &tcp_sim::faults::wedged_config(),
                    PrefetcherSpec::Null,
                ),
            ];
            let engine = SweepEngine::with_threads(1);
            let mut store = SweepStore::open(&dir).expect("open");
            // batch_jobs 1: the healthy job checkpoints before the wedge
            // surfaces.
            let opts = CheckpointOpts {
                batch_jobs: 1,
                max_retries: 0,
                ..CheckpointOpts::default()
            };
            let err = engine
                .run_with(&mut store, &jobs, &opts)
                .expect_err("wedged job must fail");
            assert!(
                matches!(
                    &err,
                    SweepError::Job {
                        reason: SimError::Run(RunError::Wedged { .. }),
                        ..
                    }
                ),
                "{err}"
            );
            // The healthy job's result survived the failure.
            let store = SweepStore::open(&dir).expect("reopen");
            assert_eq!(store.len(), 1);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }

        #[test]
        fn retries_relax_the_watchdog_until_a_slow_job_completes() {
            // On a deliberately hostile machine (2 000-cycle memory, one
            // MSHR) art runs at ~60 cycles per op, so a cap of 1 wedges,
            // one ×16 relaxation (cap 16) still wedges, and the second
            // (cap 256) completes with headroom.
            let tight = Watchdog {
                max_cycles_per_op: 1,
            };
            let mut slow = SystemConfig::table1();
            slow.hierarchy.memory_latency = 2_000;
            slow.hierarchy.l1_mshrs = 1;
            let dir = test_dir("retry");
            let jobs: Vec<Job> = picks(&["art"])
                .iter()
                .map(|b| Job::new(b, 10_000, &slow, PrefetcherSpec::Null))
                .collect();
            let engine = SweepEngine::with_threads(1);
            let mut store = SweepStore::open(&dir).expect("open");
            let opts = CheckpointOpts {
                watchdog: tight,
                max_retries: 2,
                ..CheckpointOpts::default()
            };
            let results = engine
                .run_with(&mut store, &jobs, &opts)
                .expect("retries must rescue the run");
            let reference = SweepEngine::with_threads(1).run(&jobs);
            for (a, b) in reference.iter().zip(&results) {
                assert_eq!(a.cycles, b.cycles, "retried run stays cycle-exact");
            }
            // And with retries exhausted before the cap is workable, the
            // same sweep fails.
            let dir2 = test_dir("retry-fail");
            let mut store2 = SweepStore::open(&dir2).expect("open");
            let opts = CheckpointOpts {
                watchdog: tight,
                max_retries: 0,
                ..CheckpointOpts::default()
            };
            let err = SweepEngine::with_threads(1)
                .run_with(&mut store2, &jobs, &opts)
                .expect_err("no retries, impossible cap");
            assert!(matches!(err, SweepError::Job { .. }));
            std::fs::remove_dir_all(&dir).expect("cleanup");
            std::fs::remove_dir_all(&dir2).expect("cleanup");
        }
    }
}
