//! Streaming simulation: bounded-memory trace replay and multi-tenant
//! interleaving.
//!
//! The materialized path decodes a whole trace into `Vec<MissRecord>`
//! and only then simulates — peak memory O(trace). The streaming path
//! couples [`tcp_analysis::TraceReader`]'s chunked decode to the
//! core/hierarchy drivers through a [`BoundedRing`], so peak ingestion
//! memory is O(chunk × ring depth) no matter how long the trace is:
//!
//! * [`replay_records`] — the materialized reference: replay decoded
//!   records through a Table 1 core + hierarchy;
//! * [`TenantMux`] — interleaves K independent tenant streams through
//!   one engine in deterministic round-robin quanta, with per-tenant
//!   statistics, incremental [`TenantSnapshot`]s, and per-tenant fault
//!   isolation (one corrupt or wedged tenant surfaces as that tenant's
//!   [`SimError`] without poisoning its siblings);
//! * [`replay_stream`] — the strict single-stream form: a one-tenant
//!   [`TenantMux`] whose error fails the whole replay; **bit-identical**
//!   results to [`replay_records`] over the same records (the
//!   `stream_engine` acceptance suite pins this);
//! * [`SyntheticTrace`] — an O(1)-memory `Read` source generating a
//!   well-formed trace of any length, for acceptance tests that must
//!   stream traces much larger than the ring.
//!
//! Replay semantics: each [`MissRecord`] becomes one load micro-op
//! (`pc`, `addr`) fed to a [`Session`] with no warm-up — the persisted
//! miss stream re-executed as a memory-bound instruction stream, under
//! the same watchdog as every other run. Everything here is
//! single-threaded and pull-model, so results are deterministic and the
//! interleaving never changes a tenant's own cycle outputs.

use std::io::{self, Read};

use crate::error::SimError;
use crate::session::expect_ok;
use crate::{RunResult, Session, SystemConfig, Watchdog};
use tcp_analysis::{write_trace, MissRecord, TraceReader, STREAM_CHUNK};
use tcp_cache::{HierarchyStats, Prefetcher};
use tcp_cpu::MicroOp;

/// Default ring depth, in chunks of [`STREAM_CHUNK`] records.
pub const DEFAULT_RING_CHUNKS: usize = 4;

/// Records a tenant replays per round-robin turn.
const QUANTUM: usize = 256;

/// Tuning for the streaming replay paths.
#[derive(Clone, Copy, Debug)]
pub struct StreamOpts {
    /// Ring capacity in chunks: the ring holds up to
    /// `ring_chunks × STREAM_CHUNK` records. At least 1.
    pub ring_chunks: usize,
    /// Emit a [`TenantSnapshot`] each time a tenant's cycle count
    /// crosses another multiple of this many cycles (0 disables
    /// snapshots).
    pub snapshot_cycles: u64,
}

impl Default for StreamOpts {
    fn default() -> Self {
        StreamOpts {
            ring_chunks: DEFAULT_RING_CHUNKS,
            snapshot_cycles: 0,
        }
    }
}

impl StreamOpts {
    fn validated(self) -> Self {
        assert!(self.ring_chunks >= 1, "ring must hold at least one chunk");
        self
    }

    /// Ring capacity in records: `ring_chunks × STREAM_CHUNK`.
    pub fn ring_capacity(&self) -> usize {
        self.ring_chunks * STREAM_CHUNK
    }
}

/// A fixed-capacity single-threaded ring of miss records: the bounded
/// hand-off between chunked decode and the replay engine. Tracks its
/// high-water mark so tests can assert the memory bound held.
#[derive(Debug)]
pub struct BoundedRing {
    /// Slot storage; grows on first use up to `cap`, then slots are
    /// reused in place — no per-record allocation in steady state.
    buf: Vec<MissRecord>,
    cap: usize,
    head: usize,
    len: usize,
    high_water: usize,
}

impl BoundedRing {
    /// An empty ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring cannot make progress");
        BoundedRing {
            buf: Vec::new(),
            cap: capacity,
            head: 0,
            len: 0,
            high_water: 0,
        }
    }

    /// Records currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum records the ring can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.cap - self.len
    }

    /// Most records ever queued at once — the observed peak of the
    /// memory bound.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Queues one record.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full; callers gate refills on
    /// [`BoundedRing::free`].
    pub fn push(&mut self, rec: MissRecord) {
        assert!(self.len < self.cap, "ring overflow");
        let slot = (self.head + self.len) % self.cap;
        // Slots are written in strictly increasing order until the first
        // wrap (pops advance `head` but never shrink `buf`), so a slot
        // equal to the current length is always the next fresh one.
        if slot == self.buf.len() {
            self.buf.push(rec);
        } else {
            self.buf[slot] = rec;
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Dequeues the oldest record, if any.
    pub fn pop(&mut self) -> Option<MissRecord> {
        if self.len == 0 {
            return None;
        }
        let rec = self.buf[self.head];
        self.head = (self.head + 1) % self.cap;
        self.len -= 1;
        Some(rec)
    }
}

/// Timing and traffic results of replaying a miss trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayResult {
    /// Records replayed (one load micro-op each).
    pub records: u64,
    /// Cycles the replay took.
    pub cycles: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Hierarchy counters (finalized).
    pub stats: HierarchyStats,
}

/// One record replayed as one load micro-op.
fn load(rec: MissRecord) -> MicroOp {
    MicroOp::load(rec.pc, rec.addr)
}

/// Replays already-materialized records through a core + hierarchy: the
/// reference the streaming path must match bit for bit.
///
/// # Panics
///
/// Panics if `cfg` is invalid or the watchdog finds the replay wedged
/// (the classic panicking tier, like [`crate::run_benchmark`]).
pub fn replay_records(
    records: &[MissRecord],
    cfg: &SystemConfig,
    prefetcher: Box<dyn Prefetcher>,
) -> ReplayResult {
    let mut session = expect_ok(Session::new(
        "replay",
        cfg,
        prefetcher,
        0,
        Watchdog::default(),
    ));
    expect_ok(session.feed(records.iter().copied().map(load)));
    let r = session.finish();
    ReplayResult {
        records: r.ops,
        cycles: r.cycles,
        ipc: r.ipc,
        stats: r.stats,
    }
}

/// A [`ReplayResult`] plus the streaming pipeline's observed memory
/// telemetry, so callers (and the CI acceptance step) can assert the
/// bound held.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReplay {
    /// The replay outcome — bit-identical to [`replay_records`] over the
    /// same records.
    pub result: ReplayResult,
    /// Most records ever queued in the ring at once.
    pub ring_high_water: usize,
    /// Ring capacity in records (`ring_chunks × STREAM_CHUNK`).
    pub ring_capacity: usize,
}

/// Replays a serialized trace *while decoding it*, through a bounded
/// ring: peak ingestion memory is `ring_capacity` records regardless of
/// trace length. Tag/set/line fields are re-derived under the L1D
/// geometry of `cfg`. This is a one-tenant [`TenantMux`] whose error
/// fails the whole replay.
///
/// # Errors
///
/// [`SimError::Config`] for an invalid machine, [`SimError::Trace`] for
/// a header or payload corruption, and [`SimError::Run`] when the
/// watchdog finds the replay wedged ([`TenantMux`] is the graceful
/// multi-stream form, which keeps the prefix statistics instead).
pub fn replay_stream<R: Read>(
    source: R,
    cfg: &SystemConfig,
    prefetcher: Box<dyn Prefetcher>,
    opts: StreamOpts,
) -> Result<StreamReplay, SimError> {
    cfg.validate()?;
    let mut mux = TenantMux::new(*cfg, opts);
    mux.add_tenant("replay", source, prefetcher);
    // One tenant in, one result out.
    let tenant = mux.run().swap_remove(0);
    if let Some(e) = tenant.error {
        return Err(e);
    }
    Ok(StreamReplay {
        result: ReplayResult {
            records: tenant.records,
            cycles: tenant.cycles,
            ipc: tenant.ipc,
            stats: tenant.stats,
        },
        ring_high_water: tenant.ring_high_water,
        ring_capacity: tenant.ring_capacity,
    })
}

/// A point-in-time progress report for one tenant, emitted whenever its
/// cycle count crosses a [`StreamOpts::snapshot_cycles`] boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Index of the tenant in submission order.
    pub tenant: usize,
    /// Tenant name.
    pub name: String,
    /// Records replayed so far.
    pub records: u64,
    /// Cycles elapsed so far.
    pub cycles: u64,
    /// L1 misses observed so far.
    pub l1_misses: u64,
}

/// Final outcome for one tenant of a [`TenantMux`] run.
///
/// Not `Clone`: [`SimError`] can wrap an `io::Error`.
#[derive(Debug)]
pub struct TenantResult {
    /// Tenant name (used as the benchmark name in
    /// [`TenantResult::to_run_result`]).
    pub name: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Prefetcher table storage in bytes.
    pub prefetcher_bytes: usize,
    /// Whole records replayed (the prefix before any error).
    pub records: u64,
    /// Cycles the tenant's replay took.
    pub cycles: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Hierarchy counters (finalized).
    pub stats: HierarchyStats,
    /// What ended this tenant's replay early, if anything: a trace
    /// corruption ([`SimError::Trace`]) or a watchdog abort
    /// ([`SimError::Run`]). Siblings are unaffected — their results are
    /// bit-identical to solo runs.
    pub error: Option<SimError>,
    /// Most records this tenant's ring ever held at once.
    pub ring_high_water: usize,
    /// This tenant's ring capacity in records.
    pub ring_capacity: usize,
}

impl TenantResult {
    /// Converts into the [`RunResult`] shape the sweep engine and
    /// `tcp-serve` already speak, with the tenant name as the benchmark.
    pub fn to_run_result(&self) -> RunResult {
        RunResult {
            benchmark: self.name.clone(),
            prefetcher: self.prefetcher.clone(),
            prefetcher_bytes: self.prefetcher_bytes,
            ipc: self.ipc,
            cycles: self.cycles,
            ops: self.records,
            stats: self.stats,
        }
    }
}

/// One tenant lane: its reader (until exhausted or errored), bounded
/// ring, and the session that replays it.
struct Lane<R> {
    reader: Option<TraceReader<R>>,
    ring: BoundedRing,
    session: Session,
    error: Option<SimError>,
    next_snapshot: u64,
    done: bool,
}

impl<R: Read> Lane<R> {
    /// One round-robin turn: refill the ring, then replay one quantum.
    fn turn(&mut self) {
        // Refill the ring by whole chunks while a chunk's worth of room
        // is free: the ring never exceeds its capacity, so this loop is
        // the lane's entire ingestion memory. A decode error retires the
        // reader but keeps the ring: whole records already decoded still
        // replay, so the tenant's final statistics cover exactly the
        // prefix before the corruption — same discipline as `TraceStream`.
        while self.ring.free() >= STREAM_CHUNK {
            let Some(reader) = self.reader.as_mut() else {
                break;
            };
            match reader.next_chunk() {
                Ok(Some(chunk)) => {
                    for rec in chunk.records() {
                        // tcp-lint: allow(alloc-in-hot-loop) — BoundedRing::push writes into a fixed-capacity buffer guarded by free() >= STREAM_CHUNK above
                        self.ring.push(rec);
                    }
                }
                Ok(None) => self.reader = None,
                Err(e) => {
                    self.error = Some(e.into());
                    self.reader = None;
                }
            }
        }
        let ring = &mut self.ring;
        let quantum = std::iter::from_fn(|| ring.pop()).take(QUANTUM).map(load);
        if let Err(e) = self.session.feed(quantum) {
            // A wedged lane retires with the statistics of the prefix it
            // did replay, as a corrupt lane does.
            self.error = Some(e);
            self.done = true;
        }
        if self.reader.is_none() && self.ring.is_empty() {
            self.done = true;
        }
    }

    fn finish(self) -> TenantResult {
        let r = self.session.finish();
        TenantResult {
            name: r.benchmark,
            prefetcher: r.prefetcher,
            prefetcher_bytes: r.prefetcher_bytes,
            records: r.ops,
            cycles: r.cycles,
            ipc: r.ipc,
            stats: r.stats,
            error: self.error,
            ring_high_water: self.ring.high_water(),
            ring_capacity: self.ring.capacity(),
        }
    }
}

/// Interleaves K independent tenant trace streams through one run:
/// deterministic round-robin quanta over per-tenant bounded rings, with
/// per-tenant statistics and fault isolation.
///
/// Each tenant owns its [`Session`], so the interleaving is an
/// engine-level multiplex — one driver loop, K machines — and a
/// tenant's cycle outputs are bit-identical to a solo [`replay_stream`]
/// of the same trace. A corrupt or wedged tenant retires early with its
/// [`SimError`] and the statistics of the whole-record prefix it did
/// replay; sibling tenants are untouched.
///
/// # Examples
///
/// ```
/// use tcp_cache::NullPrefetcher;
/// use tcp_sim::stream::{StreamOpts, SyntheticTrace, TenantMux};
/// use tcp_sim::SystemConfig;
///
/// let mut mux = TenantMux::new(SystemConfig::table1(), StreamOpts::default());
/// mux.add_tenant("a", SyntheticTrace::new(2_000), Box::new(NullPrefetcher));
/// mux.add_tenant("b", SyntheticTrace::new(1_000), Box::new(NullPrefetcher));
/// let results = mux.run();
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].records, 2_000);
/// assert!(results[1].error.is_none());
/// ```
pub struct TenantMux<R> {
    cfg: SystemConfig,
    opts: StreamOpts,
    lanes: Vec<Lane<R>>,
}

impl<R: Read> TenantMux<R> {
    /// An empty mux over the given machine and streaming options.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates the core/hierarchy construction
    /// constraints or `opts` has a zero ring depth.
    pub fn new(cfg: SystemConfig, opts: StreamOpts) -> Self {
        assert!(cfg.validate().is_ok(), "invalid machine configuration");
        TenantMux {
            cfg,
            opts: opts.validated(),
            lanes: Vec::new(),
        }
    }

    /// Registers a tenant: a named trace source replayed under its own
    /// prefetcher. A source whose *header* is already corrupt still gets
    /// a lane — the error surfaces in its [`TenantResult`], never as a
    /// construction failure that would take the batch down.
    pub fn add_tenant(&mut self, name: &str, source: R, prefetcher: Box<dyn Prefetcher>) {
        let (reader, error) = match TraceReader::new(source, self.cfg.hierarchy.l1d) {
            Ok(r) => (Some(r), None),
            Err(e) => (None, Some(e.into())),
        };
        self.lanes.push(Lane {
            reader,
            ring: BoundedRing::new(self.opts.ring_capacity()),
            session: Session::validated(name, &self.cfg, prefetcher, 0, Watchdog::default()),
            error,
            next_snapshot: self.opts.snapshot_cycles,
            done: false,
        });
    }

    /// Tenants registered so far.
    pub fn tenants(&self) -> usize {
        self.lanes.len()
    }

    /// Runs every tenant to completion without observing snapshots.
    pub fn run(self) -> Vec<TenantResult> {
        self.run_with(|_| {})
    }

    /// Runs every tenant to completion, invoking `sink` for each
    /// incremental [`TenantSnapshot`] (when
    /// [`StreamOpts::snapshot_cycles`] is non-zero).
    pub fn run_with(mut self, mut sink: impl FnMut(TenantSnapshot)) -> Vec<TenantResult> {
        let every = self.opts.snapshot_cycles;
        let mut active = true;
        while active {
            active = false;
            for (index, lane) in self.lanes.iter_mut().enumerate() {
                if lane.done {
                    continue;
                }
                active = true;
                lane.turn();
                if every > 0 {
                    let cycles = lane.session.cycles();
                    if cycles >= lane.next_snapshot {
                        sink(TenantSnapshot {
                            tenant: index,
                            name: lane.session.name().to_owned(),
                            records: lane.session.ops(),
                            cycles,
                            l1_misses: lane.session.stats().l1_misses,
                        });
                        lane.next_snapshot = cycles.saturating_add(every);
                    }
                }
            }
        }
        self.lanes.into_iter().map(Lane::finish).collect()
    }
}

/// An O(1)-memory source of well-formed trace bytes: generates the
/// header and `records` deterministic line-strided load records on
/// demand, without ever materializing the trace. Lets acceptance tests
/// stream traces many times larger than any ring or buffer.
#[derive(Debug)]
pub struct SyntheticTrace {
    total: u64,
    /// Next record index to stage.
    next: u64,
    /// Bytes generated but not yet handed to the caller.
    staged: Vec<u8>,
    pos: usize,
}

/// Records staged per refill of the internal byte buffer.
const SYNTH_BATCH: u64 = 256;

impl SyntheticTrace {
    /// A trace of exactly `records` records.
    pub fn new(records: u64) -> Self {
        let mut staged = Vec::new();
        // tcp-lint: allow(panic-in-library) — io::Write for Vec<u8> is infallible
        write_trace(&mut staged, &[]).expect("writing to a Vec cannot fail");
        // Patch the empty header's count field: same bytes `write_trace`
        // would emit for a `records`-long trace, without materializing it.
        let count_at = staged.len() - 8;
        staged[count_at..].copy_from_slice(&records.to_le_bytes());
        SyntheticTrace {
            total: records,
            next: 0,
            staged,
            pos: 0,
        }
    }

    /// Records this source will emit.
    pub fn records(&self) -> u64 {
        self.total
    }

    /// The pc/addr pair of record `i` — exposed so tests can check the
    /// decoded stream against the generator without materializing it.
    pub fn record_fields(i: u64) -> (u64, u64) {
        let pc = 0x400 + (i % 4096) * 4;
        let addr = 0x0400_0000 + (i * 64) % (1 << 26);
        (pc, addr)
    }

    fn stage_batch(&mut self) {
        self.staged.clear();
        self.pos = 0;
        let batch = (self.total - self.next).min(SYNTH_BATCH);
        for i in self.next..self.next + batch {
            let (pc, addr) = Self::record_fields(i);
            self.staged.extend_from_slice(&pc.to_le_bytes());
            self.staged.extend_from_slice(&addr.to_le_bytes());
        }
        self.next += batch;
    }
}

impl Read for SyntheticTrace {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.staged.len() {
            if self.next == self.total {
                return Ok(0);
            }
            self.stage_batch();
        }
        let (_, rest) = self.staged.split_at(self.pos);
        let n = out.len().min(rest.len());
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceError;
    use tcp_analysis::read_trace;
    use tcp_cache::NullPrefetcher;

    fn table1() -> SystemConfig {
        SystemConfig::table1()
    }

    fn synth_bytes(n: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut src = SyntheticTrace::new(n);
        src.read_to_end(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn ring_wraps_and_tracks_high_water() {
        let records = read_trace(synth_bytes(10).as_slice(), table1().hierarchy.l1d).unwrap();
        let mut ring = BoundedRing::new(4);
        assert!(ring.is_empty());
        for rep in 0..3 {
            for rec in &records[..3] {
                ring.push(*rec);
            }
            assert_eq!(ring.len(), 3, "rep {rep}");
            assert_eq!(ring.free(), 1);
            assert_eq!(ring.pop().unwrap(), records[0]);
            assert_eq!(ring.pop().unwrap(), records[1]);
            assert_eq!(ring.pop().unwrap(), records[2]);
            assert!(ring.pop().is_none());
        }
        assert_eq!(ring.high_water(), 3);
        assert_eq!(ring.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn ring_refuses_overfill() {
        let records = read_trace(synth_bytes(3).as_slice(), table1().hierarchy.l1d).unwrap();
        let mut ring = BoundedRing::new(2);
        for rec in &records {
            ring.push(*rec);
        }
    }

    #[test]
    fn synthetic_trace_round_trips_through_the_materialized_reader() {
        let n = 3_000u64;
        let records = read_trace(synth_bytes(n).as_slice(), table1().hierarchy.l1d).unwrap();
        assert_eq!(records.len() as u64, n);
        for (i, rec) in records.iter().enumerate() {
            let (pc, addr) = SyntheticTrace::record_fields(i as u64);
            assert_eq!(rec.pc.raw(), pc);
            assert_eq!(rec.addr.raw(), addr);
        }
    }

    #[test]
    fn stream_replay_is_bit_identical_to_materialized_replay() {
        let n = 2 * STREAM_CHUNK as u64 + 123;
        let bytes = synth_bytes(n);
        let cfg = table1();
        let records = read_trace(bytes.as_slice(), cfg.hierarchy.l1d).unwrap();
        let materialized = replay_records(&records, &cfg, Box::new(NullPrefetcher));
        let streamed = replay_stream(
            bytes.as_slice(),
            &cfg,
            Box::new(NullPrefetcher),
            StreamOpts::default(),
        )
        .unwrap();
        assert_eq!(streamed.result, materialized);
        assert!(streamed.ring_high_water <= streamed.ring_capacity);
    }

    #[test]
    fn stream_replay_memory_stays_bounded_on_a_long_trace() {
        let opts = StreamOpts {
            ring_chunks: 2,
            ..StreamOpts::default()
        };
        // 8× the ring capacity: the ring must wrap many times.
        let n = (8 * opts.ring_capacity()) as u64;
        let out = replay_stream(
            SyntheticTrace::new(n),
            &table1(),
            Box::new(NullPrefetcher),
            opts,
        )
        .unwrap();
        assert_eq!(out.result.records, n);
        assert!(out.result.cycles > 0);
        assert_eq!(out.ring_capacity, 2 * STREAM_CHUNK);
        assert!(
            out.ring_high_water <= out.ring_capacity,
            "high water {} must stay within capacity {}",
            out.ring_high_water,
            out.ring_capacity
        );
    }

    #[test]
    fn stream_replay_surfaces_trace_errors() {
        let mut bytes = synth_bytes(100);
        bytes.truncate(bytes.len() - 5);
        let err = replay_stream(
            bytes.as_slice(),
            &table1(),
            Box::new(NullPrefetcher),
            StreamOpts::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Trace(TraceError::TruncatedMidRecord { .. })
        ));
    }

    #[test]
    fn mux_tenants_match_solo_runs_exactly() {
        let cfg = table1();
        let sizes = [1_500u64, 700, 2_300];
        let mut mux = TenantMux::new(cfg, StreamOpts::default());
        for (i, n) in sizes.iter().enumerate() {
            mux.add_tenant(
                &format!("tenant-{i}"),
                SyntheticTrace::new(*n),
                Box::new(NullPrefetcher),
            );
        }
        let results = mux.run();
        assert_eq!(results.len(), sizes.len());
        for (i, (r, n)) in results.iter().zip(&sizes).enumerate() {
            let solo = replay_stream(
                SyntheticTrace::new(*n),
                &cfg,
                Box::new(NullPrefetcher),
                StreamOpts::default(),
            )
            .unwrap();
            assert!(r.error.is_none(), "tenant {i}");
            assert_eq!(r.records, *n);
            assert_eq!(r.cycles, solo.result.cycles, "tenant {i} cycles");
            assert_eq!(r.stats, solo.result.stats, "tenant {i} stats");
            assert_eq!(r.ipc.to_bits(), solo.result.ipc.to_bits());
            let rr = r.to_run_result();
            assert_eq!(rr.benchmark, format!("tenant-{i}"));
            assert_eq!(rr.ops, *n);
        }
    }

    #[test]
    fn corrupt_tenant_is_isolated_from_siblings() {
        let cfg = table1();
        let healthy_n = 1_800u64;
        let torn = {
            let mut b = synth_bytes(1_200);
            b.truncate(b.len() - 9);
            b
        };
        let mut mux = TenantMux::new(cfg, StreamOpts::default());
        mux.add_tenant(
            "healthy-a",
            io::Cursor::new(synth_bytes(healthy_n)),
            Box::new(NullPrefetcher),
        );
        mux.add_tenant("torn", io::Cursor::new(torn), Box::new(NullPrefetcher));
        mux.add_tenant(
            "healthy-b",
            io::Cursor::new(synth_bytes(healthy_n)),
            Box::new(NullPrefetcher),
        );
        let byte_sources = mux.run();

        let torn_result = &byte_sources[1];
        assert!(matches!(
            torn_result.error,
            Some(SimError::Trace(TraceError::TruncatedMidRecord { .. }))
        ));
        assert_eq!(
            torn_result.records, 1_199,
            "the whole-record prefix replays"
        );
        assert!(torn_result.cycles > 0, "prefix statistics survive");

        let solo = replay_stream(
            SyntheticTrace::new(healthy_n),
            &cfg,
            Box::new(NullPrefetcher),
            StreamOpts::default(),
        )
        .unwrap();
        for at in [0usize, 2] {
            assert!(byte_sources[at].error.is_none());
            assert_eq!(byte_sources[at].cycles, solo.result.cycles, "lane {at}");
            assert_eq!(byte_sources[at].stats, solo.result.stats, "lane {at}");
        }
    }

    #[test]
    fn header_corrupt_tenant_gets_an_error_lane_not_a_crash() {
        let mut mux = TenantMux::new(table1(), StreamOpts::default());
        mux.add_tenant(
            "bad-header",
            io::Cursor::new(b"XXXX\x01\0\0\0\0\0\0\0\0".to_vec()),
            Box::new(NullPrefetcher),
        );
        mux.add_tenant(
            "ok",
            io::Cursor::new(synth_bytes(64)),
            Box::new(NullPrefetcher),
        );
        let results = mux.run();
        assert!(matches!(
            results[0].error,
            Some(SimError::Trace(TraceError::BadMagic { .. }))
        ));
        assert_eq!(results[0].records, 0);
        assert!(results[1].error.is_none());
        assert_eq!(results[1].records, 64);
    }

    #[test]
    fn snapshots_are_monotone_and_deterministic() {
        let run_once = || {
            let mut mux = TenantMux::new(
                table1(),
                StreamOpts {
                    snapshot_cycles: 2_000,
                    ..StreamOpts::default()
                },
            );
            mux.add_tenant("a", SyntheticTrace::new(4_000), Box::new(NullPrefetcher));
            mux.add_tenant("b", SyntheticTrace::new(2_000), Box::new(NullPrefetcher));
            let mut snaps = Vec::new();
            let results = mux.run_with(|s| snaps.push(s));
            (snaps, results)
        };
        let (snaps, results) = run_once();
        assert!(!snaps.is_empty(), "snapshot cadence must fire");
        for pair in snaps.windows(2) {
            if pair[0].tenant == pair[1].tenant {
                assert!(pair[1].cycles > pair[0].cycles);
                assert!(pair[1].records >= pair[0].records);
            }
        }
        for s in &snaps {
            let final_r = &results[s.tenant];
            assert_eq!(s.name, final_r.name);
            assert!(s.records <= final_r.records);
            assert!(s.cycles <= final_r.cycles);
            assert!(s.l1_misses <= final_r.stats.l1_misses);
        }
        let (snaps2, _) = run_once();
        assert_eq!(snaps, snaps2, "snapshot stream is deterministic");
    }
}
