//! Layer attribution from outside the simulator.
//!
//! Timing every `WorkloadGen::next` or `SteppedCore::step` call with its
//! own pair of clock reads costs more than the call itself. Instead each
//! boundary stream is captured once and each layer is replayed in
//! isolation with one clock read per batch:
//!
//! * generator → core: the micro-ops, materialized by timing
//!   `Benchmark::generator(n).collect()`;
//! * core → hierarchy → prefetcher: `SteppedCore::step` over those ops
//!   into a fresh hierarchy (tcp-cpu, tcp-cache and the engine together);
//! * hierarchy → prefetcher: the engine callbacks, captured by a wrapper
//!   that forwards `is_active` so the hierarchy takes the same paths, then
//!   replayed into a fresh engine.
//!
//! Every capture is checked: stepping must reproduce the fused path's
//! cycles and `HierarchyStats` bit for bit, and the replayed engine must
//! re-emit exactly the prefetch requests it emitted under capture.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use tcp_cache::{HierarchyStats, L1MissInfo, MemoryHierarchy, PrefetchRequest, Prefetcher};
use tcp_cpu::{MicroOp, SteppedCore};
use tcp_experiments::sweep::PrefetcherSpec;
use tcp_json::Json;
use tcp_mem::{LineAddr, MemAccess};
use tcp_sim::SystemConfig;

use crate::{metric, per};

/// Which crate an engine comes from, for build and callback attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineLayer {
    /// No engine: the hierarchy skips every callback.
    Null,
    /// TCP and its variants (tcp-core).
    Core,
    /// DBCP (tcp-baselines).
    Baselines,
}

impl EngineLayer {
    pub fn of(spec: &PrefetcherSpec) -> EngineLayer {
        match spec {
            PrefetcherSpec::Null => EngineLayer::Null,
            PrefetcherSpec::Tcp(_)
            | PrefetcherSpec::StrideTcp(_)
            | PrefetcherSpec::HybridTcp(..) => EngineLayer::Core,
            PrefetcherSpec::Dbcp(_) => EngineLayer::Baselines,
        }
    }
}

/// Busy-waits `ns` nanoseconds in every `on_miss` of the wrapped engine.
/// Only the injected-slowdown canary builds it.
pub struct MissDelay {
    pub inner: Box<dyn Prefetcher>,
    pub ns: u64,
}

impl Prefetcher for MissDelay {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
    fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < self.ns {
            std::hint::spin_loop();
        }
        self.inner.on_miss(info, out);
    }
    fn on_hit(
        &mut self,
        a: &MemAccess,
        line: LineAddr,
        cycle: u64,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.inner.on_hit(a, line, cycle, out);
    }
    fn on_promoted_first_use(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
        self.inner.on_promoted_first_use(info, out);
    }
    fn on_l1_evict(&mut self, line: LineAddr, cycle: u64) {
        self.inner.on_l1_evict(line, cycle);
    }
    fn on_l1_fill(&mut self, line: LineAddr, cycle: u64) {
        self.inner.on_l1_fill(line, cycle);
    }
    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
}

/// One prefetcher callback as the hierarchy delivered it.
#[derive(Clone, Copy, Debug)]
enum Callback {
    Miss(L1MissInfo),
    Hit(MemAccess, LineAddr, u64),
    Promoted(L1MissInfo),
    Evict(LineAddr, u64),
    Fill(LineAddr, u64),
}

/// The captured hierarchy → prefetcher stream of one run.
#[derive(Default)]
struct CallbackLog {
    calls: Vec<Callback>,
    /// Requests each call pushed, flattened in call order.
    requests: Vec<PrefetchRequest>,
    /// Requests pushed by `on_miss` and `on_promoted_first_use`.
    miss_requests: u64,
    misses: u64,
}

/// Forwards every callback to `inner` and records it with the requests
/// it produced.
struct Capture {
    inner: Box<dyn Prefetcher>,
    log: Rc<RefCell<CallbackLog>>,
}

impl Capture {
    fn record(&self, call: Callback, out: &[PrefetchRequest], from: usize) {
        let mut log = self.log.borrow_mut();
        log.calls.push(call);
        log.requests.extend_from_slice(&out[from..]);
        if matches!(call, Callback::Miss(_) | Callback::Promoted(_)) {
            log.misses += 1;
            log.miss_requests += (out.len() - from) as u64;
        }
    }
}

impl Prefetcher for Capture {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
    fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
        let from = out.len();
        self.inner.on_miss(info, out);
        self.record(Callback::Miss(*info), out, from);
    }
    fn on_hit(
        &mut self,
        a: &MemAccess,
        line: LineAddr,
        cycle: u64,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let from = out.len();
        self.inner.on_hit(a, line, cycle, out);
        self.record(Callback::Hit(*a, line, cycle), out, from);
    }
    fn on_promoted_first_use(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
        let from = out.len();
        self.inner.on_promoted_first_use(info, out);
        self.record(Callback::Promoted(*info), out, from);
    }
    fn on_l1_evict(&mut self, line: LineAddr, cycle: u64) {
        self.inner.on_l1_evict(line, cycle);
        self.record(Callback::Evict(line, cycle), &[], 0);
    }
    fn on_l1_fill(&mut self, line: LineAddr, cycle: u64) {
        self.inner.on_l1_fill(line, cycle);
        self.record(Callback::Fill(line, cycle), &[], 0);
    }
    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
}

/// Outcome of stepping one op sequence through a fresh core + hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stepped {
    pub ns: u64,
    pub cycles: u64,
    /// Ops in the measured window (after the warm-up boundary).
    pub measured_ops: u64,
    pub stats: HierarchyStats,
}

/// Steps `ops` exactly as `tcp_sim::try_run_benchmark_warm` does: the
/// first `warmup` ops are unmeasured, then core and hierarchy statistics
/// restart. One clock read brackets the whole loop.
pub fn step_ops(
    ops: &[MicroOp],
    warmup: u64,
    machine: &SystemConfig,
    engine: Box<dyn Prefetcher>,
) -> Stepped {
    let mut hierarchy = MemoryHierarchy::new(machine.hierarchy, engine);
    let mut core = SteppedCore::new(machine.core);
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if i as u64 == warmup && warmup > 0 {
            core.begin_measurement();
            hierarchy.reset_stats();
        }
        core.step(*op, &mut hierarchy);
    }
    let ns = start.elapsed().as_nanos() as u64;
    let run = core.snapshot();
    Stepped {
        ns,
        cycles: run.cycles,
        measured_ops: (ops.len() as u64).saturating_sub(warmup.min(ops.len() as u64)),
        stats: hierarchy.finalize(),
    }
}

/// Callback-layer figures of one run's engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replayed {
    pub ns: u64,
    pub callbacks: u64,
    pub misses: u64,
    pub miss_requests: u64,
}

/// Steps `ops` with a capturing wrapper around `build()`'s engine, checks
/// the capture left the simulation unchanged (`expect`), then replays the
/// captured callbacks into a second engine from `build()` under one clock
/// read and checks it re-emits exactly the captured requests.
pub fn capture_and_replay(
    ops: &[MicroOp],
    warmup: u64,
    machine: &SystemConfig,
    build: &dyn Fn() -> Box<dyn Prefetcher>,
    expect: &Stepped,
) -> Result<Replayed, String> {
    let log = Rc::new(RefCell::new(CallbackLog::default()));
    let capture = Capture {
        inner: build(),
        log: Rc::clone(&log),
    };
    let captured = step_ops(ops, warmup, machine, Box::new(capture));
    if (captured.cycles, captured.stats) != (expect.cycles, expect.stats) {
        return Err("capturing wrapper changed the simulation".to_owned());
    }
    let log = log.take();
    let mut engine = build();
    let mut out = Vec::with_capacity(16);
    let mut emitted = Vec::with_capacity(log.requests.len());
    let start = Instant::now();
    for call in &log.calls {
        out.clear();
        match call {
            Callback::Miss(info) => engine.on_miss(info, &mut out),
            Callback::Hit(a, line, cycle) => engine.on_hit(a, *line, *cycle, &mut out),
            Callback::Promoted(info) => engine.on_promoted_first_use(info, &mut out),
            Callback::Evict(line, cycle) => engine.on_l1_evict(*line, *cycle),
            Callback::Fill(line, cycle) => engine.on_l1_fill(*line, *cycle),
        }
        emitted.extend_from_slice(&out);
    }
    let ns = start.elapsed().as_nanos() as u64;
    if emitted != log.requests {
        return Err(format!(
            "replayed engine emitted {} requests, captured {}",
            emitted.len(),
            log.requests.len()
        ));
    }
    Ok(Replayed {
        ns,
        callbacks: log.calls.len() as u64,
        misses: log.misses,
        miss_requests: log.miss_requests,
    })
}

/// Times `build` `reps` times and returns the median in nanoseconds.
pub fn build_ns(build: &dyn Fn() -> Box<dyn Prefetcher>, reps: usize) -> u64 {
    let mut times: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let engine = std::hint::black_box(build());
            let ns = start.elapsed().as_nanos() as u64;
            drop(engine);
            ns
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Per-layer totals over every decomposed job or tenant of a workload.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub gen_ns: u64,
    pub gen_ops: u64,
    pub step_ns: u64,
    pub step_ops: u64,
    pub sim_cycles: u64,
    pub measured_ops: u64,
    pub stats: HierarchyStats,
    /// Indexed by `[core, baselines]`.
    pub build_ns: [u64; 2],
    pub builds: [u64; 2],
    pub callback_ns: [u64; 2],
    pub callbacks: [u64; 2],
    pub misses: u64,
    pub miss_requests: u64,
}

impl Totals {
    pub fn add_step(&mut self, ops: u64, s: &Stepped) {
        self.step_ns += s.ns;
        self.step_ops += ops;
        self.sim_cycles += s.cycles;
        self.measured_ops += s.measured_ops;
        add_stats(&mut self.stats, &s.stats);
    }

    pub fn add_engine(&mut self, layer: EngineLayer, build_ns: Option<u64>, r: &Replayed) {
        let i = match layer {
            EngineLayer::Null => return,
            EngineLayer::Core => 0,
            EngineLayer::Baselines => 1,
        };
        if let Some(ns) = build_ns {
            self.build_ns[i] += ns;
            self.builds[i] += 1;
        }
        self.callback_ns[i] += r.ns;
        self.callbacks[i] += r.callbacks;
        if i == 0 {
            self.misses += r.misses;
            self.miss_requests += r.miss_requests;
        }
    }
}

fn add_stats(sum: &mut HierarchyStats, s: &HierarchyStats) {
    sum.loads += s.loads;
    sum.stores += s.stores;
    sum.l1_hits += s.l1_hits;
    sum.l1_misses += s.l1_misses;
    sum.l1_mshr_merges += s.l1_mshr_merges;
    sum.mshr_stall_cycles += s.mshr_stall_cycles;
    sum.l2_demand_accesses += s.l2_demand_accesses;
    sum.l2_demand_hits += s.l2_demand_hits;
    sum.l2_demand_misses += s.l2_demand_misses;
    sum.prefetches_issued += s.prefetches_issued;
    sum.prefetches_already_resident += s.prefetches_already_resident;
    sum.prefetches_dropped += s.prefetches_dropped;
    sum.prefetches_to_memory += s.prefetches_to_memory;
    sum.l1_prefetch_fills += s.l1_prefetch_fills;
    sum.l1_writebacks += s.l1_writebacks;
    sum.l2_writebacks += s.l2_writebacks;
    sum.victim_hits += s.victim_hits;
    sum.dtlb_misses += s.dtlb_misses;
    sum.store_buffer_stall_cycles += s.store_buffer_stall_cycles;
    let (b, t) = (&mut sum.l2_breakdown, &s.l2_breakdown);
    b.prefetched_original += t.prefetched_original;
    b.non_prefetched_original += t.non_prefetched_original;
    b.prefetched_extra += t.prefetched_extra;
}

/// Decomposes one sweep job into generator, engine build, step and
/// callback layers, adding them to `totals`, and checks the stepped
/// simulation against `run_benchmark`'s result for the same job. Returns
/// the job's generate + build + step nanoseconds.
pub fn decompose_job(
    job: &tcp_experiments::sweep::Job,
    totals: &mut Totals,
) -> Result<u64, String> {
    let warmup = job.n_ops / 2;
    let total = warmup + job.n_ops;
    let start = Instant::now();
    let ops: Vec<MicroOp> = job.benchmark.generator(total).collect();
    let gen_ns = start.elapsed().as_nanos() as u64;
    totals.gen_ns += gen_ns;
    totals.gen_ops += ops.len() as u64;

    let spec = job.prefetcher;
    let build = move || -> Box<dyn Prefetcher> { spec.build() };
    let layer = EngineLayer::of(&spec);
    let build_ns = build_ns(&build, 1);
    let stepped = step_ops(&ops, warmup, &job.machine, build());
    totals.add_step(ops.len() as u64, &stepped);
    let replayed = capture_and_replay(&ops, warmup, &job.machine, &build, &stepped)?;
    totals.add_engine(layer, Some(build_ns), &replayed);

    let fused = tcp_sim::run_benchmark(&job.benchmark, job.n_ops, &job.machine, build());
    if (fused.cycles, fused.ops, fused.stats)
        != (stepped.cycles, stepped.measured_ops, stepped.stats)
    {
        return Err(format!(
            "{} / {}: stepped layers disagree with run_benchmark",
            job.benchmark.name, fused.prefetcher
        ));
    }
    Ok(gen_ns + build_ns + stepped.ns)
}

/// The generator, core, cache and engine metrics of a set of decomposed
/// jobs or tenants.
pub fn totals_metrics(m: &mut BTreeMap<String, Json>, t: &Totals) {
    let s = &t.stats;
    metric(
        m,
        "workloads.gen_ns_per_op",
        per(t.gen_ns as f64, t.gen_ops as f64),
    );
    metric(m, "workloads.ops", t.gen_ops as f64);
    metric(
        m,
        "cpu.step_ns_per_op",
        per(t.step_ns as f64, t.step_ops as f64),
    );
    let callback_ns = (t.callback_ns[0] + t.callback_ns[1]) as f64;
    metric(
        m,
        "cpu.self_ns_per_op",
        per(t.step_ns as f64 - callback_ns, t.step_ops as f64),
    );
    metric(m, "cpu.ops", t.step_ops as f64);
    metric(m, "cpu.sim_cycles", t.sim_cycles as f64);
    metric(m, "cache.accesses", s.accesses() as f64);
    metric(m, "cache.l1_misses", s.l1_misses as f64);
    metric(m, "cache.l1_mshr_merges", s.l1_mshr_merges as f64);
    metric(m, "cache.mshr_stall_cycles", s.mshr_stall_cycles as f64);
    metric(m, "cache.l2_demand_misses", s.l2_demand_misses as f64);
    metric(m, "cache.prefetches_issued", s.prefetches_issued as f64);
    metric(m, "cache.prefetches_dropped", s.prefetches_dropped as f64);
    metric(m, "cache.prefetch_accuracy", s.prefetch_accuracy());
    metric(m, "cache.l2_coverage", s.l2_breakdown.coverage());
    for (i, layer) in ["core", "baselines"].iter().enumerate() {
        metric(
            m,
            &format!("{layer}.build_us"),
            per(t.build_ns[i] as f64 / 1e3, t.builds[i] as f64),
        );
        metric(
            m,
            &format!("{layer}.callback_ns"),
            per(t.callback_ns[i] as f64, t.callbacks[i] as f64),
        );
        metric(m, &format!("{layer}.callbacks"), t.callbacks[i] as f64);
    }
    metric(
        m,
        "core.requests_per_miss",
        per(t.miss_requests as f64, t.misses as f64),
    );
}
