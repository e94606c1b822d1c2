//! The `stream` workload: `TenantMux` over four seeded tenant miss traces
//! read from files, alternating TCP-8K and no prefetcher.
//!
//! Miss-dense, load-only replay: it drives the hierarchy's miss path and
//! TCP's `on_miss` far harder per op than whole-program simulation, and
//! it is the only workload that decodes traces and runs the mux. It never
//! touches the generator's op mix at replay time, the sweep executor, the
//! store or JSON.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use tcp_analysis::{miss_stream, read_trace, write_trace, MissRecord, TraceReader};
use tcp_cache::{HierarchyStats, NullPrefetcher, Prefetcher};
use tcp_core::{Tcp, TcpConfig};
use tcp_cpu::MicroOp;
use tcp_json::Json;
use tcp_mem::SplitMix64;
use tcp_sim::stream::{replay_records, StreamOpts, TenantMux};
use tcp_sim::SystemConfig;
use tcp_workloads::suite;

use crate::layers::{
    build_ns, capture_and_replay, step_ops, totals_metrics, EngineLayer, MissDelay, Totals,
};
use crate::{metric, per, print_result, Args};

/// The tenants' profiles (miss-heavy, from the right end of Figure 1) and
/// whether each runs TCP-8K or no prefetcher. The seed reseeds each
/// profile's generator, orders the tenants in the mux and sets each trace
/// length within ±1% of `RECORDS`; the host cost of a run then does not
/// depend on the seed.
const TENANTS: [(&str, bool); 4] = [
    ("art", true),
    ("mcf", false),
    ("swim", true),
    ("gcc", false),
];
const RECORDS: u64 = 560_000;

/// One tenant as setup wrote it.
struct Tenant {
    name: String,
    tcp: bool,
}

fn machine() -> SystemConfig {
    SystemConfig::table1()
}

fn trace_path(dir: &Path, i: usize) -> std::path::PathBuf {
    dir.join(format!("tenant{i}.trace"))
}

/// TCP-8K or no prefetcher; `delay_ns` > 0 wraps
/// the engine in the canary's busy-wait.
fn engine(tcp: bool, delay_ns: u64) -> Box<dyn Prefetcher> {
    let inner: Box<dyn Prefetcher> = if tcp {
        Box::new(Tcp::new(TcpConfig::tcp_8k()))
    } else {
        Box::new(NullPrefetcher)
    };
    if delay_ns == 0 {
        inner
    } else {
        Box::new(MissDelay {
            inner,
            ns: delay_ns,
        })
    }
}

/// Writes the seeded tenant traces and `tenants.json`.
pub fn setup(args: &Args) -> Result<(), String> {
    let dir = args.dir()?;
    let seed: u64 = args.num("seed", None)?;
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let benches = suite();
    let l1 = machine().hierarchy.l1d;
    let mut rng = SplitMix64::new(seed);
    let mut pool = TENANTS.to_vec();
    let mut manifest = Vec::new();
    for i in 0..TENANTS.len() {
        let (profile, tcp) = pool.remove(rng.next_below(pool.len() as u64) as usize);
        let mut bench = benches
            .iter()
            .find(|b| b.name == profile)
            .ok_or_else(|| format!("no profile {profile}"))?
            .clone();
        bench.spec.seed = rng.next_u64();
        let records = RECORDS - RECORDS / 100 + rng.next_below(RECORDS / 50 + 1);
        // The generator needs a length up front; misses are far denser
        // than one per 64 ops on these profiles, so this never runs dry.
        let accesses = bench
            .generator(records * 64)
            .filter_map(|op| op.mem_access());
        let misses: Vec<MissRecord> = miss_stream(l1, accesses).take(records as usize).collect();
        if misses.len() as u64 != records {
            return Err(format!("{profile}: only {} misses", misses.len()));
        }
        let file = File::create(trace_path(&dir, i)).map_err(|e| e.to_string())?;
        let mut w = BufWriter::new(file);
        write_trace(&mut w, &misses).map_err(|e| e.to_string())?;
        w.into_inner().map_err(|e| e.to_string())?;
        let mut obj = BTreeMap::new();
        obj.insert("name".to_owned(), Json::Str(format!("{profile}-{i}")));
        obj.insert("tcp".to_owned(), Json::Bool(tcp));
        obj.insert("records".to_owned(), Json::Num(records as f64));
        manifest.push(Json::Obj(obj));
    }
    let manifest = tcp_json::to_string(&Json::Arr(manifest));
    fs::write(dir.join("tenants.json"), &manifest).map_err(|e| e.to_string())?;
    println!("{manifest}");
    Ok(())
}

fn tenants(dir: &Path) -> Result<Vec<Tenant>, String> {
    let text = fs::read_to_string(dir.join("tenants.json"))
        .map_err(|e| format!("reading tenants: {e}"))?;
    let v = tcp_json::parse(&text).map_err(|e| e.to_string())?;
    v.as_arr()
        .ok_or("tenants.json is not an array")?
        .iter()
        .map(|t| {
            Ok(Tenant {
                name: t
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("tenant without name")?
                    .to_owned(),
                tcp: t
                    .get("tcp")
                    .and_then(Json::as_bool)
                    .ok_or("tenant without engine")?,
            })
        })
        .collect()
}

/// The checked outputs of one tenant, identical whichever path replayed it.
fn outcome(records: u64, cycles: u64, ipc: f64, stats: &HierarchyStats) -> String {
    format!(
        "records={records} cycles={cycles} ipc={:016x} {stats:?}",
        ipc.to_bits()
    )
}

fn tenant_line(name: &str, outcome: &str) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("tenant".to_owned(), Json::Str(name.to_owned()));
    obj.insert("outcome".to_owned(), Json::Str(outcome.to_owned()));
    tcp_json::to_string(&Json::Obj(obj))
}

/// One `TenantMux` run over every tenant.
struct MuxRun {
    /// Each tenant's outcome, or its trace error.
    outcomes: Vec<Result<String, String>>,
    records: u64,
    high_water: usize,
    mux_s: f64,
}

fn mux(dir: &Path, ts: &[Tenant], delay_ns: u64) -> Result<MuxRun, String> {
    let mut mux = TenantMux::new(machine(), StreamOpts::default());
    for (i, t) in ts.iter().enumerate() {
        let file = File::open(trace_path(dir, i)).map_err(|e| format!("opening trace {i}: {e}"))?;
        mux.add_tenant(&t.name, file, engine(t.tcp, delay_ns));
    }
    let start = Instant::now();
    let results = mux.run();
    let mux_s = start.elapsed().as_secs_f64();
    let records = results.iter().map(|r| r.records).sum();
    let high_water = results.iter().map(|r| r.ring_high_water).max().unwrap_or(0);
    let outcomes = results
        .iter()
        .map(|r| match &r.error {
            Some(e) => Err(e.to_string()),
            None => Ok(outcome(r.records, r.cycles, r.ipc, &r.stats)),
        })
        .collect();
    Ok(MuxRun {
        outcomes,
        records,
        high_water,
        mux_s,
    })
}

/// The measured phase: one mux over the tenant files. Prints each
/// tenant's outcome, then the replay figures.
pub fn run(args: &Args) -> Result<(), String> {
    let dir = args.dir()?;
    let delay_ns: u64 = args.num("miss-delay-ns", Some(0))?;
    let ts = tenants(&dir)?;
    let run = mux(&dir, &ts, delay_ns)?;
    for (t, o) in ts.iter().zip(&run.outcomes) {
        println!(
            "{}",
            tenant_line(&t.name, o.as_deref().unwrap_or_else(|e| e))
        );
    }
    let mut obj = BTreeMap::new();
    obj.insert("records".to_owned(), Json::Num(run.records as f64));
    obj.insert("mux_s".to_owned(), Json::Num(run.mux_s));
    obj.insert(
        "ring_high_water".to_owned(),
        Json::Num(run.high_water as f64),
    );
    println!("{}", tcp_json::to_string(&Json::Obj(obj)));
    Ok(())
}

fn decoded(dir: &Path, i: usize) -> Result<Vec<MissRecord>, String> {
    let file = File::open(trace_path(dir, i)).map_err(|e| e.to_string())?;
    read_trace(file, machine().hierarchy.l1d).map_err(|e| e.to_string())
}

/// Each tenant replayed alone through `replay_records`: the reference the
/// mux must match.
pub fn reference(args: &Args) -> Result<(), String> {
    let dir = args.dir()?;
    for (i, t) in tenants(&dir)?.iter().enumerate() {
        let recs = decoded(&dir, i)?;
        let r = replay_records(&recs, &machine(), engine(t.tcp, 0));
        println!(
            "{}",
            tenant_line(&t.name, &outcome(r.records, r.cycles, r.ipc, &r.stats))
        );
    }
    Ok(())
}

/// Rounds of decode, replay and mux in the traced run. Host speed drifts
/// over tens of seconds, so the three are interleaved and each reported
/// as its median.
const ROUNDS: usize = 3;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The traced run: decode alone, `replay_records` alone and the mux, in
/// interleaved rounds; then each tenant's ops stepped and its engine's
/// callbacks replayed into a fresh engine.
pub fn trace(args: &Args) -> Result<(), String> {
    let dir = args.dir()?;
    let delay_ns: u64 = args.num("miss-delay-ns", Some(0))?;
    let untraced_wall: f64 = args.num("untraced-wall", None)?;
    let untraced_mux: f64 = args.num("untraced-mux", None)?;
    let ts = tenants(&dir)?;
    let cfg = machine();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let (mut decode_s, mut replay_s, mut mux_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut decoded_records, mut records, mut high_water) = (0, 0, 0);

    for _ in 0..ROUNDS {
        // Decode alone: every chunk of every file, one clock read per file.
        let mut ns = 0;
        decoded_records = 0;
        for i in 0..ts.len() {
            let file = File::open(trace_path(&dir, i)).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let mut reader =
                TraceReader::new(file, cfg.hierarchy.l1d).map_err(|e| e.to_string())?;
            while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
                std::hint::black_box(chunk.len());
            }
            ns += start.elapsed().as_nanos();
            decoded_records += reader.decoded();
        }
        decode_s.push(ns as f64 / 1e9);

        // Replay alone, over records decoded beforehand.
        let mut ns = 0;
        let mut solo = Vec::new();
        for (i, t) in ts.iter().enumerate() {
            let recs = decoded(&dir, i)?;
            let start = Instant::now();
            let r = replay_records(&recs, &cfg, engine(t.tcp, delay_ns));
            ns += start.elapsed().as_nanos();
            solo.push(outcome(r.records, r.cycles, r.ipc, &r.stats));
        }
        replay_s.push(ns as f64 / 1e9);

        // The mux, checked tenant by tenant against the solo replays.
        let run = mux(&dir, &ts, delay_ns)?;
        for ((t, o), s) in ts.iter().zip(&run.outcomes).zip(&solo) {
            attempted += 1;
            if o.as_ref() != Ok(s) {
                failures.push(format!("{}: mux result differs from solo replay", t.name));
            }
        }
        mux_s.push(run.mux_s);
        (records, high_water) = (run.records, run.high_water);
    }
    attempted += 1;
    if decoded_records != records {
        failures.push(format!(
            "decoded {decoded_records} records, mux replayed {records}"
        ));
    }

    // Each tenant taken apart: step with the plain engine, checked against
    // `replay_records`, then capture and replay its callbacks.
    let mut totals = Totals::default();
    for (i, t) in ts.iter().enumerate() {
        let recs = decoded(&dir, i)?;
        let r = replay_records(&recs, &cfg, engine(t.tcp, delay_ns));
        let ops: Vec<MicroOp> = recs.iter().map(|m| MicroOp::load(m.pc, m.addr)).collect();
        drop(recs);
        let build = move || engine(t.tcp, delay_ns);
        let stepped = step_ops(&ops, 0, &cfg, build());
        totals.add_step(ops.len() as u64, &stepped);
        attempted += 1;
        if (stepped.cycles, stepped.stats) != (r.cycles, r.stats) {
            failures.push(format!(
                "{}: stepped replay disagrees with replay_records",
                t.name
            ));
        }
        let layer = if t.tcp {
            EngineLayer::Core
        } else {
            EngineLayer::Null
        };
        let built = t.tcp.then(|| build_ns(&build, 5));
        match capture_and_replay(&ops, 0, &cfg, &build, &stepped) {
            Ok(rep) => totals.add_engine(layer, built, &rep),
            Err(e) => failures.push(format!("{}: {e}", t.name)),
        }
    }

    let (decode_s, replay_s, mux_s) = (median(decode_s), median(replay_s), median(mux_s));
    let per_record = |s: f64| per(s * 1e9, records as f64);
    let mut m = BTreeMap::new();
    totals_metrics(&mut m, &totals);
    metric(
        &mut m,
        "analysis.decode_ns_per_record",
        per_record(decode_s),
    );
    metric(&mut m, "analysis.records", decoded_records as f64);
    metric(&mut m, "sim.replay_ns_per_record", per_record(replay_s));
    metric(
        &mut m,
        "sim.mux_ns_per_record",
        per_record(mux_s - decode_s - replay_s),
    );
    metric(&mut m, "sim.ring_high_water", high_water as f64);
    metric(
        &mut m,
        "bench.residual_frac",
        (untraced_wall - mux_s) / untraced_wall,
    );
    metric(
        &mut m,
        "bench.trace_overhead_frac",
        mux_s / untraced_mux - 1.0,
    );
    print_result(m, attempted, &failures);
    Ok(())
}
