//! The deterministic sweep engine: the one runner for batches and streams
//! of simulation jobs in the whole experiment harness.
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
//! the missing ones on its workers, and returns results in submission
//! order. Sharing one engine across figures (as `--bin all`
//! does) removes roughly half of all simulation work at zero cost in
//! fidelity: simulations are bit-deterministic, so a memoized result is
//! indistinguishable from a re-run.
//!
//! One executor, [`SweepEngine::run_stream`], serves every call: it takes
//! a stream of jobs and hands back one verdict per job, in submission
//! order, as soon as that verdict and every earlier one are known.
//! [`SweepEngine::run_each`], [`SweepEngine::run_with`] and
//! [`SweepEngine::run`] are views over it that collect the verdicts of a
//! slice. Every job runs through one job runner that applies the
//! watchdog, its relaxing retries, and the only panic boundary, so a job
//! that panics, wedges, or cannot be configured fails alone.
//!
//! # The streaming executor
//!
//! The calling thread coordinates. It resolves each arriving job in
//! order: memo, then store, then a key this call already sent to a worker
//! (the job shares that verdict, success or failure). Only a fresh job
//! goes to the workers, which take jobs from one shared FIFO queue; a
//! call starts one worker per fresh job, up to the engine's thread count.
//! Job durations differ by an order of magnitude (a pointer-chasing `mcf`
//! run costs far more cycles per op than `fma3d`, and Figure 13 mixes
//! 2 KB and 8 MB PHT configurations in one sweep). A shared queue absorbs
//! that skew, since a worker that finishes early takes the next job, and
//! nothing waits at a batch boundary: while a slow job holds back the
//! verdicts behind it, the workers run the jobs after it, up to the
//! read-ahead.
//!
//! # Why it stays deterministic
//!
//! Workers only compute, and a job is a pure function of its inputs.
//! Every effect happens on the calling thread in submission order,
//! whatever order the workers finish in: store hits are taken as jobs
//! arrive, and verdicts drain in job order. As each one drains, its
//! success enters the memo and the store, and the store is flushed after
//! every [`CheckpointOpts::batch_jobs`] inserted records. So the
//! verdicts, the store's bytes and flush points, and [`EngineStats`]
//! depend only on the job sequence, never on the thread count or on
//! completion order. The determinism suite pins the end-to-end property
//! (identical simulation results at 1, 2, and 8 workers), and the
//! executor reference suite checks every effect against a sequential
//! walk of the same jobs.
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

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
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
    /// Fresh results between checkpoints: the store is flushed after
    /// every this many records inserted in job order, so a killed sweep
    /// loses at most one batch of work.
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

/// One job's verdict: its result, or why it failed.
pub type Verdict = Result<RunResult, SimError>;

/// A memoizing, streaming runner for simulation [`Job`]s.
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

    /// Runs a batch of jobs and returns one verdict per job, in
    /// submission order: [`SweepEngine::run_stream`] over a slice, which
    /// takes the whole slice as its read-ahead.
    ///
    /// A job's verdict comes from the in-process memo, then from the
    /// `store` when one is given (disk hits are pulled into the memo and
    /// counted as [`EngineStats::store_hits`]), then from a job earlier
    /// in the slice with the same key (counted as a memo hit, whether it
    /// succeeded or failed), and otherwise from simulating it. Successes
    /// enter the memo and the store in job order, and the store is
    /// **flushed** after every [`CheckpointOpts::batch_jobs`] inserted
    /// records and once at the end: each flush appends the new records
    /// to the store file with one write and one fsync
    /// ([`SweepStore::flush`]). So a sweep killed mid-run resumes from
    /// its last checkpoint — bit-identically, because stored results
    /// round-trip exactly and the simulator is deterministic — and the
    /// appended bytes depend on `jobs` and the store's contents, never
    /// on the thread count.
    ///
    /// Each job is supervised by the [`Watchdog`] from `opts`; a wedged
    /// job is retried up to [`CheckpointOpts::max_retries`] times with a
    /// progressively relaxed cycles-per-op cap. A job that panics
    /// becomes [`RunError::Panicked`]; no failure stops the batch.
    ///
    /// # Errors
    ///
    /// The outer [`StoreError`] when a checkpoint cannot be written; the
    /// records flushed before it are kept.
    pub fn run_each(
        &self,
        store: Option<&mut SweepStore>,
        jobs: &[Job],
        opts: &CheckpointOpts,
    ) -> Result<Vec<Verdict>, StoreError> {
        let mut verdicts = Vec::with_capacity(jobs.len());
        let input = Input::loaded(jobs.iter().cloned().map(Ok));
        self.run_input(store, input, opts, |answer: Result<Verdict, Infallible>| {
            verdicts.extend(answer);
        })?;
        Ok(verdicts)
    }

    /// The one executor: runs a stream of requests and calls `emit` once
    /// per request, in request order, as soon as that request and every
    /// earlier one are answered.
    ///
    /// A request is a job (`Ok`) or an item the caller answers itself
    /// (`Err`), which keeps its place in the order and comes back to
    /// `emit` unchanged. Jobs resolve, run and checkpoint exactly as in
    /// [`SweepEngine::run_each`]; the verdicts, the store's bytes and
    /// flush points, and [`EngineStats`] depend only on the request
    /// sequence.
    ///
    /// `requests` is pulled on a thread of its own, at most
    /// 2 × [`CheckpointOpts::batch_jobs`] × [`SweepEngine::threads`]
    /// requests ahead of the last one emitted. So it may block — on a
    /// pipe, say — without holding back an answer that is ready, and the
    /// requests held at once stay bounded however long it runs. What
    /// grows with the stream is the engine's memo (one result per
    /// distinct job) and the keys of failed jobs. The pulling thread is
    /// detached: a call that fails returns without waiting on a blocked
    /// `requests`.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] of a checkpoint that cannot be written. It
    /// stops intake and the running jobs finish first; answers already
    /// emitted and records already flushed stay so.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `requests` on the calling thread.
    ///
    /// # Examples
    ///
    /// ```
    /// use tcp_experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
    /// use tcp_sim::SystemConfig;
    /// use tcp_workloads::suite;
    ///
    /// let job = Job::new(&suite()[0], 5_000, &SystemConfig::table1(), PrefetcherSpec::Null);
    /// let requests = vec![Ok(job.clone()), Err("not a job"), Ok(job)];
    /// let mut answers = Vec::new();
    /// SweepEngine::with_threads(2)
    ///     .run_stream(None, requests, &CheckpointOpts::default(), |a| answers.push(a))
    ///     .expect("no store, no store error");
    /// assert!(matches!(answers[1], Err("not a job")));
    /// assert_eq!(answers.len(), 3);
    /// ```
    pub fn run_stream<P, I>(
        &self,
        store: Option<&mut SweepStore>,
        requests: I,
        opts: &CheckpointOpts,
        emit: impl FnMut(Result<Verdict, P>),
    ) -> Result<(), StoreError>
    where
        P: Send + 'static,
        I: IntoIterator<Item = Result<Job, P>>,
        I::IntoIter: Send + 'static,
    {
        let window = read_ahead(opts.batch_jobs, self.threads);
        let input = Input::pumped(requests.into_iter(), window);
        self.run_input(store, input, opts, emit)
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

    /// Runs one call over `input` with this engine's memo and workers,
    /// then adds the call's accounting to the engine's.
    fn run_input<P>(
        &self,
        store: Option<&mut SweepStore>,
        input: Input<P>,
        opts: &CheckpointOpts,
        emit: impl FnMut(Result<Verdict, P>),
    ) -> Result<(), StoreError>
    where
        P: Send,
    {
        let mut sweep = Sweep {
            engine: self,
            store,
            batch_jobs: opts.batch_jobs.max(1),
            taken: BTreeSet::new(),
            failed: BTreeMap::new(),
            unflushed: 0,
            stats: EngineStats::default(),
            emit,
        };
        let outcome = execute(&mut sweep, input, opts)
            .and_then(|()| sweep.store.map_or(Ok(()), SweepStore::flush));
        let mut stats = lock(&self.stats);
        stats.requested += sweep.stats.requested;
        stats.executed += sweep.stats.executed;
        stats.store_hits += sweep.stats.store_hits;
        outcome
    }

    fn memoized(&self, key: &str) -> Option<RunResult> {
        lock(&self.memo).get(key).cloned()
    }
}

/// The calling thread's side of one [`SweepEngine`] call.
struct Sweep<'a, F> {
    engine: &'a SweepEngine,
    store: Option<&'a mut SweepStore>,
    batch_jobs: usize,
    /// Keys this call has sent to a worker whose success has not yet
    /// drained, and the keys that failed.
    taken: BTreeSet<String>,
    /// The failures among them, as they drained; a success is memoized.
    failed: BTreeMap<String, SimError>,
    /// Records inserted into the store since its last flush.
    unflushed: usize,
    /// This call's accounting, added to the engine's when it ends.
    stats: EngineStats,
    emit: F,
}

/// A request's answer as it drains: a worker's verdict with the job's
/// key, or an answer known on arrival.
type Answer<P> = Result<(String, Verdict), Known<P>>;

/// A request answered without a worker.
enum Known<P> {
    /// Memoized, or read from the store.
    Hit(Box<RunResult>),
    /// The key of an earlier job of this call, whose verdict it shares.
    Shared(String),
    /// Not a job: handed back in its place.
    Passed(P),
}

impl<F> Sweep<'_, F> {
    /// Inserts a fresh success into the store, if there is one, and
    /// flushes after every `batch_jobs` inserted records.
    fn checkpoint(&mut self, key: &str, result: &RunResult) -> Result<(), StoreError> {
        let Some(store) = self.store.as_deref_mut() else {
            return Ok(());
        };
        store.insert(key, result);
        self.unflushed += 1;
        if self.unflushed == self.batch_jobs {
            self.unflushed = 0;
            store.flush()?;
        }
        Ok(())
    }

    /// Resolves an arriving request: a fresh job, with its key, for a
    /// worker, or its answer.
    fn admit<P>(&mut self, request: Result<Job, P>) -> Result<(String, Job), Known<P>> {
        let job = request.map_err(Known::Passed)?;
        self.stats.requested += 1;
        let key = job.key();
        if let Some(result) = self.engine.memoized(&key) {
            return Err(Known::Hit(Box::new(result)));
        }
        if let Some(result) = self.store.as_deref().and_then(|s| s.get(&key)) {
            let result = result.clone();
            lock(&self.engine.memo).insert(key, result.clone());
            self.stats.store_hits += 1;
            return Err(Known::Hit(Box::new(result)));
        }
        if !self.taken.insert(key.clone()) {
            return Err(Known::Shared(key));
        }
        self.stats.executed += 1;
        Ok((key, job))
    }

    /// Takes the next answer in request order and emits it, first
    /// checkpointing a fresh success. A store error stops the call.
    fn drain<P>(&mut self, answer: Answer<P>) -> Result<(), StoreError>
    where
        F: FnMut(Result<Verdict, P>),
    {
        let verdict = match answer {
            Ok((key, Ok(result))) => {
                self.checkpoint(&key, &result)?;
                // From here on the memo answers the key.
                self.taken.remove(&key);
                lock(&self.engine.memo).insert(key, result.clone());
                Ok(result)
            }
            Ok((key, Err(reason))) => {
                let verdict = Err(repeat(&reason));
                self.failed.insert(key, reason);
                verdict
            }
            Err(Known::Hit(result)) => Ok(*result),
            // The key's first job drained before this one: its success
            // is memoized, or its failure recorded.
            Err(Known::Shared(key)) => match self.engine.memoized(&key) {
                Some(result) => Ok(result),
                None => Err(repeat(&self.failed[&key])),
            },
            Err(Known::Passed(item)) => {
                (self.emit)(Err(item));
                return Ok(());
            }
        };
        (self.emit)(Ok(verdict));
        Ok(())
    }
}

/// The results of a batch in which every job succeeded, or the first
/// failure in submission order.
fn all_ok(
    jobs: &[Job],
    verdicts: Result<Vec<Verdict>, StoreError>,
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
fn run_job(job: &Job, opts: &CheckpointOpts) -> Verdict {
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
fn run_supervised(job: &Job, opts: &CheckpointOpts) -> Verdict {
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
fn panic_reason(payload: Box<dyn Any + Send>) -> String {
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

/// What the calling thread of an [`execute`] call waits on: requests
/// arriving and workers finishing, on one channel.
enum Event<P> {
    /// The next request, or `None` once there are no more.
    Arrived(Option<Box<Result<Job, P>>>),
    /// A worker's verdict for the request with this sequence number, and
    /// the job's key.
    Done(usize, String, Box<Verdict>),
    /// The request stream panicked, with this payload.
    Panicked(Box<dyn Any + Send>),
}

/// The requests of one [`execute`] call and the channel they arrive on.
struct Input<P> {
    events: Sender<Event<P>>,
    arrivals: Receiver<Event<P>>,
    /// For pumped requests: one credit per answer drained.
    credits: Option<Sender<()>>,
}

impl<P> Input<P> {
    /// Every request, queued before the call starts: the read-ahead is
    /// the whole list.
    fn loaded(requests: impl IntoIterator<Item = Result<Job, P>>) -> Self {
        let (events, arrivals) = mpsc::channel();
        // The receiver is alive, so these sends cannot fail.
        for request in requests {
            let _ = events.send(Event::Arrived(Some(Box::new(request))));
        }
        let _ = events.send(Event::Arrived(None));
        Input {
            events,
            arrivals,
            credits: None,
        }
    }

    /// Requests pulled from `requests` on a detached thread, at most
    /// `window` ahead of the answers drained. The call never waits on a
    /// request that has not arrived, and a call that fails returns
    /// without waiting on one that never will.
    fn pumped<I>(mut requests: I, window: usize) -> Self
    where
        I: Iterator<Item = Result<Job, P>> + Send + 'static,
        P: Send + 'static,
    {
        let (events, arrivals) = mpsc::channel();
        let (credits, credit) = mpsc::channel();
        let feed = events.clone();
        std::thread::spawn(move || {
            // Requests it may take before it needs a credit.
            let mut free = window;
            loop {
                if free > 0 {
                    free -= 1;
                } else if credit.recv().is_err() {
                    return;
                }
                let event = match catch_unwind(AssertUnwindSafe(|| requests.next())) {
                    Ok(request) => Event::Arrived(request.map(Box::new)),
                    Err(payload) => Event::Panicked(payload),
                };
                let last = !matches!(event, Event::Arrived(Some(_)));
                if feed.send(event).is_err() || last {
                    return;
                }
            }
        });
        Input {
            events,
            arrivals,
            credits: Some(credits),
        }
    }
}

/// The read-ahead of a streaming call: at most this many requests taken
/// but not yet emitted. Two checkpoints' worth per worker keeps every
/// worker busy while a slow job holds back the verdicts behind it.
fn read_ahead(batch_jobs: usize, threads: usize) -> usize {
    batch_jobs.max(1).saturating_mul(threads).saturating_mul(2)
}

/// Workers a call runs once `fresh` jobs have gone to them: one per
/// job, up to `threads`, so a call never starts a worker it has no work
/// for.
fn worker_cap(threads: usize, fresh: usize) -> usize {
    threads.min(fresh)
}

/// The executor under every call: the calling thread admits requests
/// as they arrive, workers run the fresh jobs from one shared FIFO queue,
/// and answers drain in request order as soon as each one and every
/// earlier one are known.
///
/// A store error stops intake: queued jobs are dropped unrun, running
/// ones finish, and the error is returned. A panic of the request stream
/// is re-raised on the calling thread.
fn execute<P, F>(
    sweep: &mut Sweep<'_, F>,
    input: Input<P>,
    opts: &CheckpointOpts,
) -> Result<(), StoreError>
where
    P: Send,
    F: FnMut(Result<Verdict, P>),
{
    let threads = sweep.engine.threads;
    let Input {
        events,
        arrivals,
        credits,
    } = input;
    let (queue, fresh_jobs) = mpsc::channel();
    let fresh_jobs = &Mutex::new(fresh_jobs);
    // A `move` closure: the queue's sender drops when it returns, which
    // lets idle workers exit before the scope joins them.
    std::thread::scope(move |scope| {
        // Answers not yet drained, in request order; `None` while a
        // worker has the job. `window[0]` is request number `drained`.
        let mut window: VecDeque<Option<Answer<P>>> = VecDeque::new();
        let mut drained = 0usize;
        let (mut fresh, mut workers) = (0usize, 0usize);
        let mut open = true;
        while open || !window.is_empty() {
            // The coordinator holds `events`: the channel never closes.
            let Ok(event) = arrivals.recv() else { break };
            match event {
                Event::Arrived(None) => open = false,
                Event::Arrived(Some(request)) => match sweep.admit(*request) {
                    Err(known) => window.push_back(Some(Err(known))),
                    Ok((key, job)) => {
                        // The workers' receiver outlives the scope.
                        let _ = queue.send((drained + window.len(), key, job));
                        window.push_back(None);
                        fresh += 1;
                        if workers < worker_cap(threads, fresh) {
                            workers += 1;
                            let done = events.clone();
                            scope.spawn(move || work_loop(fresh_jobs, opts, done));
                        }
                    }
                },
                Event::Done(seq, key, verdict) => {
                    if let Some(slot) = window.get_mut(seq - drained) {
                        *slot = Some(Ok((key, *verdict)));
                    }
                }
                Event::Panicked(payload) => std::panic::resume_unwind(payload),
            }
            while let Some(answer) = window.front_mut().and_then(Option::take) {
                window.pop_front();
                drained += 1;
                // On a store error, returning drops the queue and the
                // event channel: an idle worker wakes to a closed queue,
                // and a running one exits when it cannot hand its verdict
                // back. The queue is never locked here, since an idle
                // worker holds its lock while it waits.
                sweep.drain(answer)?;
                if let Some(credits) = &credits {
                    // A pump that has finished needs no more credit.
                    let _ = credits.send(());
                }
            }
        }
        Ok(())
    })
}

/// One worker: runs jobs from the shared FIFO queue until the
/// coordinator closes it, sending each verdict back as an event. A job
/// cannot panic past [`run_job`].
fn work_loop<P>(
    fresh_jobs: &Mutex<Receiver<(usize, String, Job)>>,
    opts: &CheckpointOpts,
    done: Sender<Event<P>>,
) {
    loop {
        // A temporary guard: the queue is free again before the job runs.
        let next = lock(fresh_jobs).recv();
        let Ok((seq, key, job)) = next else { return };
        let verdict = Box::new(run_job(&job, opts));
        if done.send(Event::Done(seq, key, verdict)).is_err() {
            return;
        }
    }
}

/// Locks ignoring poisoning: the guarded state (memo map, counters, the
/// fresh-job queue) is only mutated by infallible inserts, additions and
/// channel operations, so a panic elsewhere cannot leave it torn.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
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

    /// `gzip` jobs of the given op counts on the Table 1 machine.
    fn gzip_jobs(ops: impl IntoIterator<Item = u64>) -> Vec<Job> {
        let gzip = &picks(&["gzip"])[0];
        let machine = SystemConfig::table1();
        ops.into_iter()
            .map(|n| Job::new(gzip, n, &machine, PrefetcherSpec::Null))
            .collect()
    }

    #[test]
    fn results_land_in_job_order_at_any_thread_count() {
        let jobs = gzip_jobs((0..24).map(|i| 1_000 + 100 * i));
        for threads in [1, 2, 3, 8, 31] {
            let out = SweepEngine::with_threads(threads).run(&jobs);
            let ops: Vec<u64> = out.iter().map(|r| r.ops).collect();
            let want: Vec<u64> = jobs.iter().map(|j| j.n_ops).collect();
            assert_eq!(ops, want, "{threads} threads");
        }
    }

    #[test]
    fn skewed_job_sizes_complete_and_preserve_order() {
        // The first four jobs are far heavier than the rest, so the
        // workers finish out of order and the drain must wait for them.
        let jobs = gzip_jobs((0..24).map(|i| if i < 4 { 20_000 + i } else { 1_000 + i }));
        let reference = SweepEngine::with_threads(1).run(&jobs);
        let out = SweepEngine::with_threads(4).run(&jobs);
        for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(b.ops, jobs[i].n_ops, "job {i}");
            assert_eq!(a.cycles, b.cycles, "job {i}");
            assert_eq!(a.stats, b.stats, "job {i}");
        }
    }

    #[test]
    fn every_job_executes_exactly_once() {
        let jobs = gzip_jobs((0..16).map(|i| 1_000 + i));
        let engine = SweepEngine::with_threads(4);
        let out = engine.run(&jobs);
        assert_eq!(out.len(), jobs.len());
        assert_eq!(engine.stats().executed, jobs.len());
        assert_eq!(engine.stats().memo_hits(), 0);
        assert_eq!(engine.memo_len(), jobs.len());
    }

    #[test]
    fn empty_batch_returns_empty() {
        let engine = SweepEngine::with_threads(4);
        let verdicts = engine
            .run_each(None, &[], &CheckpointOpts::default())
            .expect("no store, no store error");
        assert!(verdicts.is_empty());
        let mut emitted = 0usize;
        engine
            .run_stream(
                None,
                std::iter::empty::<Result<Job, ()>>(),
                &CheckpointOpts::default(),
                |_| emitted += 1,
            )
            .expect("no store, no store error");
        assert_eq!(emitted, 0);
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn a_panicking_request_stream_is_re_raised_on_the_calling_thread() {
        let jobs = gzip_jobs([1_000, 1_100, 1_200]);
        let requests = jobs.into_iter().enumerate().map(|(i, job)| {
            assert!(i != 2, "request {i} detonates");
            Ok::<Job, ()>(job)
        });
        let caught = catch_unwind(AssertUnwindSafe(|| {
            SweepEngine::with_threads(2).run_stream(
                None,
                requests,
                &CheckpointOpts::default(),
                |_| {},
            )
        }));
        let payload = caught.expect_err("the stream's panic reaches the caller");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("request 2 detonates"), "{msg}");
    }

    #[test]
    fn workers_never_outnumber_threads_or_fresh_jobs() {
        // A pure function, so huge counts are checked without a thread.
        assert_eq!(worker_cap(10_000, 3), 3);
        assert_eq!(worker_cap(2, 140), 2);
        assert_eq!(worker_cap(8, 0), 0);
        for threads in 1..=16 {
            for fresh in 0..=32 {
                let cap = worker_cap(threads, fresh);
                assert!(
                    cap <= threads && cap <= fresh,
                    "{threads} threads, {fresh} fresh"
                );
                assert!(
                    cap == threads || cap == fresh,
                    "{threads} threads, {fresh} fresh"
                );
            }
        }
    }

    #[test]
    fn read_ahead_stays_within_its_window() {
        // Cheap jobs with repeats, so answers drain faster than the
        // stream could otherwise be read.
        let gzip = &picks(&["gzip"])[0];
        let machine = SystemConfig::table1();
        let jobs: Vec<Job> = (0..48u64)
            .map(|i| Job::new(gzip, 1_000 + 100 * (i % 7), &machine, PrefetcherSpec::Null))
            .collect();
        for (threads, batch_jobs) in [(1, 1), (2, 2), (3, 1)] {
            let opts = CheckpointOpts {
                batch_jobs,
                ..CheckpointOpts::default()
            };
            let window = read_ahead(batch_jobs, threads);
            let taken = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&taken);
            let requests = jobs.clone().into_iter().map(move |job| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok::<Job, ()>(job)
            });
            let mut emitted = 0usize;
            let mut widest = 0usize;
            SweepEngine::with_threads(threads)
                .run_stream(None, requests, &opts, |answer| {
                    assert!(answer.is_ok_and(|v| v.is_ok()));
                    let ahead = taken.load(Ordering::SeqCst) - emitted;
                    assert!(
                        ahead <= window,
                        "{ahead} taken ahead of emit, window {window}"
                    );
                    widest = widest.max(ahead);
                    emitted += 1;
                })
                .expect("no store, no store error");
            assert_eq!(emitted, jobs.len());
            assert_eq!(taken.load(Ordering::SeqCst), jobs.len());
            assert!(widest >= 1, "{threads} threads: the stream was read ahead");
        }
    }

    #[test]
    fn an_answer_never_waits_for_a_request_that_has_not_arrived() {
        // Each request is sent only once the previous answer is out, as
        // a client on a pipe would: an executor that waited for more
        // input before answering would time out here.
        let gzip = &picks(&["gzip"])[0];
        let machine = SystemConfig::table1();
        let jobs: Vec<Job> = [2_000, 3_000, 2_000]
            .iter()
            .map(|&ops| Job::new(gzip, ops, &machine, PrefetcherSpec::Null))
            .collect();
        let (send, pipe) = std::sync::mpsc::channel::<Job>();
        send.send(jobs[0].clone()).expect("pipe open");
        let requests = std::iter::from_fn(move || {
            pipe.recv_timeout(std::time::Duration::from_secs(60))
                .ok()
                .map(Ok::<Job, ()>)
        });
        let started = std::time::Instant::now();
        let mut send = Some(send);
        let mut answers = 0usize;
        SweepEngine::with_threads(2)
            .run_stream(None, requests, &CheckpointOpts::default(), |answer| {
                assert!(answer.is_ok_and(|v| v.is_ok()));
                answers += 1;
                match (jobs.get(answers), &send) {
                    (Some(next), Some(pipe)) => pipe.send(next.clone()).expect("pipe open"),
                    // Closing the pipe ends the stream.
                    _ => send = None,
                }
            })
            .expect("no store, no store error");
        assert_eq!(answers, jobs.len());
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "an answer waited for the pipe's timeout"
        );
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

        #[test]
        fn a_store_error_stops_intake_and_is_returned() {
            // The store's directory vanishes after open, so the first
            // checkpoint cannot be written.
            let dir = test_dir("vanished");
            let mut store = SweepStore::open(&dir).expect("open");
            std::fs::remove_dir_all(&dir).expect("remove the store's directory");
            let gzip = &picks(&["gzip"])[0];
            let machine = SystemConfig::table1();
            let jobs: Vec<Job> = (0..40u64)
                .map(|i| Job::new(gzip, 1_000 + i, &machine, PrefetcherSpec::Null))
                .collect();
            let taken = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&taken);
            let requests = jobs.into_iter().map(move |job| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok::<Job, ()>(job)
            });
            let opts = CheckpointOpts {
                batch_jobs: 1,
                ..CheckpointOpts::default()
            };
            let engine = SweepEngine::with_threads(2);
            let mut emitted = 0usize;
            let err = engine
                .run_stream(Some(&mut store), requests, &opts, |_| emitted += 1)
                .expect_err("the checkpoint fails");
            assert!(!err.to_string().is_empty());
            assert_eq!(emitted, 0, "the failed checkpoint's verdict is not emitted");
            let window = read_ahead(1, 2);
            assert!(
                taken.load(Ordering::SeqCst) <= window,
                "intake stopped within the read-ahead"
            );
            assert_eq!(store.stats().flushes, 0);
        }

        #[test]
        fn a_failed_last_checkpoint_returns_while_workers_wait_on_the_queue() {
            // Exactly `batch_jobs` fresh jobs, so the failing flush is the
            // call's last drain: the queue is empty and every worker waits
            // on it. The call runs on a helper thread so that a hang fails
            // the test instead of stalling it.
            let gzip = &picks(&["gzip"])[0];
            let machine = SystemConfig::table1();
            for streamed in [false, true] {
                for threads in [1, 2] {
                    for batch_jobs in [1, 3] {
                        let case = format!(
                            "streamed {streamed}, {threads} threads, batch_jobs {batch_jobs}"
                        );
                        let dir = test_dir("vanished-idle");
                        let mut store = SweepStore::open(&dir).expect("open");
                        std::fs::remove_dir_all(&dir).expect("remove the store's directory");
                        let jobs: Vec<Job> = (0..batch_jobs as u64)
                            .map(|i| Job::new(gzip, 1_000 + i, &machine, PrefetcherSpec::Null))
                            .collect();
                        let opts = CheckpointOpts {
                            batch_jobs,
                            ..CheckpointOpts::default()
                        };
                        let (send, outcome) = std::sync::mpsc::channel();
                        std::thread::spawn(move || {
                            let engine = SweepEngine::with_threads(threads);
                            let failed = if streamed {
                                let requests = jobs.into_iter().map(Ok::<Job, ()>);
                                engine
                                    .run_stream(Some(&mut store), requests, &opts, |_| {})
                                    .is_err()
                            } else {
                                matches!(
                                    engine.run_with(&mut store, &jobs, &opts),
                                    Err(SweepError::Store(_))
                                )
                            };
                            let _ = send.send(failed);
                        });
                        let failed = outcome
                            .recv_timeout(std::time::Duration::from_secs(60))
                            .unwrap_or_else(|_| panic!("{case}: the call never returned"));
                        assert!(failed, "{case}: the store error was not returned");
                    }
                }
            }
        }
    }
}
