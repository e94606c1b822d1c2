//! The deterministic sweep engine: the one runner for batches of
//! simulation jobs in the whole experiment harness.
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
//! the missing ones on a work-stealing pool, and returns results in
//! submission order. Sharing one engine across figures (as `--bin all`
//! does) removes roughly half of all simulation work at zero cost in
//! fidelity: simulations are bit-deterministic, so a memoized result is
//! indistinguishable from a re-run.
//!
//! One executor, [`SweepEngine::run_each`], serves every batch and returns
//! one verdict per job; [`SweepEngine::run`] and [`SweepEngine::run_with`]
//! are views over it. Every job runs through one job runner that applies
//! the watchdog, its relaxing retries, and the only panic boundary, so a
//! job that panics, wedges, or cannot be configured fails alone.
//!
//! # Why work stealing
//!
//! Job durations differ by an order of magnitude (a pointer-chasing `mcf`
//! run costs far more cycles-per-op than `fma3d`, and Figure 13 mixes
//! 2 KB and 8 MB PHT configurations in one sweep). A shared-counter pool
//! keeps cores busy but makes every *batch boundary* a barrier. Here each
//! worker owns a contiguous block of job indices in a deque and steals
//! from the *tail* of other workers' deques when its own block drains, so
//! a single large batch keeps all cores busy until the global tail.
//!
//! # Why it stays deterministic
//!
//! Jobs are pure functions of their index: nothing about scheduling leaks
//! into a job's inputs, and every result lands in the slot of the index
//! that produced it. Memo keys live in a `BTreeMap`, so which index of a
//! duplicated key executes is a pure function of the input. The
//! determinism suite pins the end-to-end property (identical simulation
//! results at 1, 2, and 8 workers).
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

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use tcp_baselines::{Dbcp, DbcpConfig};
use tcp_cache::{NullPrefetcher, Prefetcher};
use tcp_core::{DbpConfig, HybridTcp, StrideAugmentedTcp, Tcp, TcpConfig};
use tcp_sim::{RunError, RunResult, Session, SimError, SystemConfig, TraceError, Watchdog};
use tcp_workloads::Benchmark;

use crate::store::{StoreError, SweepStore};

/// A buildable, comparable description of a prefetch engine.
///
/// A job holds a *value*, not a factory closure, so two jobs wanting the
/// same engine can be recognised as equal. Every prefetcher the
/// experiment harness uses has a variant here.
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
    /// Simulations actually executed: one per distinct missing key,
    /// whether it succeeded or failed.
    pub executed: usize,
    /// Requests served by reading the persistent [`SweepStore`] (only a
    /// batch run with a store produces these; one per distinct key pulled
    /// from disk).
    pub store_hits: usize,
}

impl EngineStats {
    /// Requests served from the in-process memo instead of simulating or
    /// reading the store.
    pub fn memo_hits(&self) -> usize {
        self.requested - self.executed - self.store_hits
    }
}

/// A failure from a batch run through [`SweepEngine::run_with`].
#[derive(Debug)]
pub enum SweepError {
    /// The persistent store hit an I/O failure (checkpoints could not be
    /// written or the store could not be read).
    Store(StoreError),
    /// A job failed: it panicked, its machine was invalid, or it wedged
    /// past its watchdog retries (the first failing job in submission
    /// order). Every other job in the batch ran and was checkpointed
    /// before this surfaced, so a retry resumes from them.
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

/// Policy for a batch: checkpoint spacing (when a store is given) and the
/// supervision of each job.
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
    /// An engine sized to the machine's available parallelism (4 workers
    /// when that cannot be determined).
    pub fn new() -> Self {
        SweepEngine::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
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
    /// submission order: [`SweepEngine::run_each`] without a store.
    ///
    /// # Panics
    ///
    /// Panics with the first (in submission order) failed job's error,
    /// matching the panicking [`tcp_sim::run_benchmark`] contract the
    /// figure modules rely on. Every other job still runs first.
    pub fn run(&self, jobs: &[Job]) -> Vec<RunResult> {
        let verdicts = self.run_each(None, jobs, &CheckpointOpts::default());
        // tcp-lint: allow(panic-in-library) — documented panicking contract of the figure modules; `run_with` and `run_each` are the fallible forms
        all_ok(jobs, verdicts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs a batch of jobs through the persistent `store`, returning one
    /// [`RunResult`] per job in submission order:
    /// [`SweepEngine::run_each`] with the store.
    ///
    /// # Errors
    ///
    /// [`SweepError::Store`] when a checkpoint cannot be written, and
    /// [`SweepError::Job`] for the first failed job in submission order.
    /// Every other job has run and every success has been flushed to the
    /// store by then, so a retry resumes from them.
    pub fn run_with(
        &self,
        store: &mut SweepStore,
        jobs: &[Job],
        opts: &CheckpointOpts,
    ) -> Result<Vec<RunResult>, SweepError> {
        all_ok(jobs, self.run_each(Some(store), jobs, opts))
    }

    /// The one executor: runs a batch of jobs and returns one verdict per
    /// job, in submission order.
    ///
    /// The lookup order per key is: in-process memo, then the `store`
    /// when one is given (disk hits are pulled into the memo and counted
    /// as [`EngineStats::store_hits`]), then simulation. The first
    /// occurrence of each missing key executes on the work-stealing pool;
    /// later duplicates share its verdict. Successes enter the memo.
    ///
    /// With a store, misses run in batches of
    /// [`CheckpointOpts::batch_jobs`]; after each batch the new results
    /// are inserted and the store is **flushed with the crash-safe
    /// protocol**, so a sweep killed mid-run resumes from the last
    /// completed batch — bit-identically, because stored results
    /// round-trip exactly and the simulator is deterministic. Without a
    /// store there is nothing to checkpoint, so every miss fans out as
    /// one barrier-free batch.
    ///
    /// Each job is supervised by the [`Watchdog`] from `opts`; a wedged
    /// job is retried up to [`CheckpointOpts::max_retries`] times with a
    /// progressively relaxed cycles-per-op cap. A job that panics
    /// becomes [`RunError::Panicked`]; no failure stops the batch.
    ///
    /// # Errors
    ///
    /// The outer [`StoreError`] when a checkpoint cannot be written; the
    /// batches flushed before it are kept.
    pub fn run_each(
        &self,
        mut store: Option<&mut SweepStore>,
        jobs: &[Job],
        opts: &CheckpointOpts,
    ) -> Result<Vec<Result<RunResult, SimError>>, StoreError> {
        let keys: Vec<String> = jobs.iter().map(Job::key).collect();
        // The first missing occurrence of each distinct key runs; every
        // job's slot says where its verdict comes from.
        let mut to_run: Vec<usize> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
        let mut store_hits = 0usize;
        {
            let mut memo = lock(&self.memo);
            let mut fresh: BTreeMap<&str, usize> = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                let slot = if let Some(result) = memo.get(key) {
                    Slot::Known(Box::new(result.clone()))
                } else if let Some(result) = store.as_deref().and_then(|s| s.get(key)) {
                    memo.insert(key.clone(), result.clone());
                    store_hits += 1;
                    Slot::Known(Box::new(result.clone()))
                } else {
                    Slot::Runs(*fresh.entry(key).or_insert_with(|| {
                        to_run.push(i);
                        to_run.len() - 1
                    }))
                };
                slots.push(slot);
            }
        }
        // Without a store there is nothing to checkpoint: one batch.
        let batch = match store {
            Some(_) => opts.batch_jobs.max(1),
            None => to_run.len().max(1),
        };
        let mut executed: Vec<Result<RunResult, SimError>> = Vec::with_capacity(to_run.len());
        // Simulate the missing points without holding the memo lock.
        for chunk in to_run.chunks(batch) {
            let verdicts = run_jobs_stealing(chunk.len(), self.threads, |u| {
                run_job(&jobs[chunk[u]], opts)
            });
            let mut memo = lock(&self.memo);
            for (&i, verdict) in chunk.iter().zip(&verdicts) {
                if let Ok(result) = verdict {
                    if let Some(store) = store.as_deref_mut() {
                        store.insert(&keys[i], result);
                    }
                    memo.insert(keys[i].clone(), result.clone());
                }
            }
            drop(memo);
            executed.extend(verdicts);
            // Checkpoint the batch's successes even when a job failed:
            // graceful degradation means a retry resumes from here.
            if let Some(store) = store.as_deref_mut() {
                store.flush()?;
            }
        }
        let mut stats = lock(&self.stats);
        stats.requested += jobs.len();
        stats.executed += to_run.len();
        stats.store_hits += store_hits;
        drop(stats);
        Ok(slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Known(result) => Ok(*result),
                Slot::Runs(u) => match &executed[u] {
                    Ok(result) => Ok(result.clone()),
                    Err(reason) => Err(repeat(reason)),
                },
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

/// Where one job's verdict comes from while [`SweepEngine::run_each`]
/// resolves a batch.
enum Slot {
    /// Memoized, or read from the store.
    Known(Box<RunResult>),
    /// Shared with the executing job at this position of the run list.
    Runs(usize),
}

/// The results of a batch in which every job succeeded, or the first
/// failure in submission order.
fn all_ok(
    jobs: &[Job],
    verdicts: Result<Vec<Result<RunResult, SimError>>, StoreError>,
) -> Result<Vec<RunResult>, SweepError> {
    jobs.iter()
        .zip(verdicts?)
        .map(|(job, verdict)| {
            verdict.map_err(|reason| SweepError::Job {
                benchmark: job.benchmark.name.to_owned(),
                reason,
            })
        })
        .collect()
}

/// Runs one job: the only job runner. It is [`run_supervised`] inside
/// the engine's only panic boundary, so a panic becomes the job's
/// [`RunError::Panicked`] verdict.
fn run_job(job: &Job, opts: &CheckpointOpts) -> Result<RunResult, SimError> {
    // AssertUnwindSafe: on panic the per-run core, hierarchy, and
    // prefetcher are discarded wholesale, so no witness of broken
    // invariants survives the boundary.
    catch_unwind(AssertUnwindSafe(|| run_supervised(job, opts))).unwrap_or_else(|payload| {
        Err(RunError::Panicked {
            benchmark: job.benchmark.name.to_owned(),
            reason: panic_reason(payload),
        }
        .into())
    })
}

/// Runs one job under its watchdog, retrying a wedge up to
/// `opts.max_retries` times with a relaxed cap. The job runs through the
/// same [`Session`] as [`tcp_sim::run_benchmark`] (with the same
/// half-length warm-up), so a healthy job's result is bit-identical to a
/// direct run.
// Out of line on purpose: inlined into the `catch_unwind` closure, the
// simulation loop served tcpbench's `serve` batch about 4% slower
// (2-core machine).
#[inline(never)]
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

/// Renders a panic payload as text for [`RunError::Panicked`].
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A copy of a failed job's verdict, one per job that shares its key. A
/// job fails while configuring or running, and those errors clone; it
/// reads no trace, so a `Trace` error would keep only its message.
fn repeat(reason: &SimError) -> SimError {
    match reason {
        SimError::Config(e) => SimError::Config(e.clone()),
        SimError::Run(e) => SimError::Run(e.clone()),
        SimError::Trace(e) => TraceError::Io(std::io::Error::other(e.to_string())).into(),
    }
}

/// Pops the next job index for worker `w`: its own deque's head first,
/// then the tail of the nearest non-empty victim. Returns `None` only
/// when every deque is empty — no new jobs are ever enqueued mid-run, so
/// that is a stable termination condition.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = lock(&queues[w]).pop_front() {
        return Some(i);
    }
    (1..queues.len()).find_map(|k| lock(&queues[(w + k) % queues.len()]).pop_back())
}

/// Runs jobs `0..n_jobs` on up to `threads` work-stealing workers and
/// returns `f(0), f(1), …` in index order regardless of which worker ran
/// what.
///
/// Job indices are block-distributed: worker `w` seeds its deque with a
/// contiguous chunk and only steals (from the tail of another worker's
/// chunk) once its own is exhausted, so neighbouring jobs — which in the
/// experiment harness share benchmark state shapes — tend to stay on one
/// core. The pool has no panic policy of its own: the engine's `f` is
/// [`run_job`], which turns a panic into that job's verdict.
fn run_jobs_stealing<T, F>(n_jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n_jobs).max(1);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((n_jobs * w / workers..n_jobs * (w + 1) / workers).collect()))
        .collect();
    // Each result goes straight into its index's preallocated slot:
    // collecting results per worker until the join ran a batch of ~1,100
    // small jobs 1.6–1.8× slower on a 2-core machine.
    let mut slots: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
    let slot_cells: Vec<Mutex<&mut Option<T>>> = slots.iter_mut().map(Mutex::new).collect();
    // The scope joins every worker, and panics if one did.
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queues, slot_cells, f) = (&queues, &slot_cells, &f);
            scope.spawn(move || {
                while let Some(i) = next_job(queues, w) {
                    let result = f(i);
                    **lock(&slot_cells[i]) = Some(result);
                }
            });
        }
    });
    drop(slot_cells);
    slots
        .into_iter()
        // tcp-lint: allow(panic-in-library) — every index is popped exactly once and its slot written before scope join
        .map(|slot| slot.expect("every job processed"))
        .collect()
}

/// Locks ignoring poisoning: the guarded state (memo map, counters, job
/// deques, result slots) is only mutated by infallible inserts,
/// additions, pops and stores, so a panic elsewhere cannot leave it torn.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tcp_sim::run_benchmark;
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
    fn results_land_in_job_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 31] {
            let out = run_jobs_stealing(100, threads, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn skewed_job_sizes_complete_and_preserve_order() {
        // The first block is far heavier than the rest: with block
        // distribution, workers 1.. drain their chunks and must steal
        // from worker 0's tail to finish.
        let out = run_jobs_stealing(64, 8, |i| {
            let rounds = if i < 8 { 200_000u64 } else { 100 };
            (0..rounds).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        });
        let reference: Vec<u64> = (0..64)
            .map(|i| {
                let rounds = if i < 8 { 200_000u64 } else { 100 };
                (0..rounds).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
            })
            .collect();
        assert_eq!(out, reference);
    }

    #[test]
    fn every_job_executes_exactly_once() {
        let executions = AtomicUsize::new(0);
        let out = run_jobs_stealing(32, 4, |i| {
            executions.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 32);
        assert_eq!(executions.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out: Vec<u32> = run_jobs_stealing(0, 4, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn first_panic_in_job_order_wins_and_other_jobs_still_run() {
        // Two detonating jobs among healthy ones: every job still runs,
        // each failure stays at its own index, and `run` reports the
        // earlier one.
        let machine = SystemConfig::table1();
        let early = tcp_sim::faults::panicking_benchmark();
        let late = Benchmark {
            name: "fault-panic-late",
            ..tcp_sim::faults::panicking_benchmark()
        };
        let gzip = &picks(&["gzip"])[0];
        let jobs: Vec<Job> = [gzip, &early, gzip, &late, gzip]
            .iter()
            .zip([5_000, 5_000, 6_000, 5_000, 7_000])
            .map(|(b, ops)| Job::new(b, ops, &machine, PrefetcherSpec::Null))
            .collect();
        let engine = SweepEngine::with_threads(4);
        let verdicts = engine
            .run_each(None, &jobs, &CheckpointOpts::default())
            .expect("no store, no store error");
        for (i, verdict) in verdicts.iter().enumerate() {
            match (i, verdict) {
                (1 | 3, Err(SimError::Run(RunError::Panicked { benchmark, .. }))) => {
                    assert_eq!(benchmark, jobs[i].benchmark.name);
                }
                (0 | 2 | 4, Ok(r)) => assert_eq!(r.ops, jobs[i].n_ops),
                (i, other) => panic!("job {i}: unexpected {other:?}"),
            }
        }
        let engine = SweepEngine::with_threads(4);
        let caught = catch_unwind(AssertUnwindSafe(|| engine.run(&jobs)));
        let payload = caught.expect_err("a job panicked");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("'fault-panic'") && !msg.contains("fault-panic-late"),
            "earliest job's failure is reported: {msg}"
        );
        assert_eq!(engine.stats().executed, 5, "no job was skipped");
        assert_eq!(engine.memo_len(), 3, "every healthy job was memoized");
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
        fn panicking_job_fails_alone_and_both_neighbours_are_checkpointed() {
            let dir = test_dir("panic");
            let machine = SystemConfig::table1();
            let healthy = picks(&["gzip", "swim"]);
            let jobs = vec![
                Job::new(&healthy[0], 10_000, &machine, PrefetcherSpec::Null),
                Job::new(
                    &tcp_sim::faults::panicking_benchmark(),
                    10_000,
                    &machine,
                    PrefetcherSpec::Null,
                ),
                Job::new(&healthy[1], 10_000, &machine, PrefetcherSpec::Null),
            ];
            let mut store = SweepStore::open(&dir).expect("open");
            let opts = CheckpointOpts {
                batch_jobs: 1,
                ..CheckpointOpts::default()
            };
            let err = SweepEngine::with_threads(1)
                .run_with(&mut store, &jobs, &opts)
                .expect_err("the panicking job must fail");
            assert!(
                matches!(
                    &err,
                    SweepError::Job {
                        benchmark,
                        reason: SimError::Run(RunError::Panicked { .. }),
                    } if benchmark == "fault-panic"
                ),
                "{err}"
            );
            // The job after the failure ran and was checkpointed too.
            let store = SweepStore::open(&dir).expect("reopen");
            assert_eq!(store.len(), 2);
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
