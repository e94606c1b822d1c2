//! The `serve` workload: a seeded `tcp-serve` batch over a warm store.
//!
//! The batch mixes fresh jobs, repeats within the batch (memo hits) and
//! jobs already in the warm store (store hits). The warm store also holds
//! about 1.1k small filler results, so every chunk checkpoint rewrites
//! and fsyncs a store of realistic size.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tcp_experiments::store::{decode_record, encode_record, SweepStore, STORE_FILE};
use tcp_experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_json::Json;
use tcp_mem::SplitMix64;
use tcp_sim::{RunResult, SystemConfig};
use tcp_workloads::{suite, Benchmark};

use crate::layers::{decompose_job, totals_metrics, Totals};
use crate::{metric, per, print_result, process_cpu_s, threads, Args};

/// Requests per batch: p95 then has 12 samples beyond it.
const REQUESTS: usize = 240;
/// Distinct batch jobs already in the warm store.
const STORE_HITS: usize = 40;
/// Requests that repeat an earlier request of the batch.
const REPEATS: usize = 60;
/// Requests `tcp-serve` checkpoints together (its `--batch` default).
const CHUNK: usize = 8;
/// Filler records: every benchmark × these presets × these op counts.
/// Their op counts lie below any batch job's, so no key collides.
const FILLER_PRESETS: [&str; 4] = ["null", "tcp-8k", "stride-tcp-8k", "hybrid-tcp-8k"];
const FILLER_OPS: std::ops::RangeInclusive<u64> = 1_000..=2_000;
const FILLER_OPS_STEP: usize = 100;

/// One request of the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Request {
    bench: usize,
    preset: usize,
    ops: u64,
    ideal_l2: bool,
}

impl Request {
    fn line(&self, benches: &[Benchmark]) -> String {
        let mut obj = BTreeMap::new();
        obj.insert(
            "benchmark".to_owned(),
            Json::Str(benches[self.bench].name.to_owned()),
        );
        obj.insert("ops".to_owned(), Json::Num(self.ops as f64));
        let preset = PrefetcherSpec::presets()[self.preset].0;
        obj.insert("prefetcher".to_owned(), Json::Str(preset.to_owned()));
        let machine = if self.ideal_l2 {
            "table1-ideal-l2"
        } else {
            "table1"
        };
        obj.insert("machine".to_owned(), Json::Str(machine.to_owned()));
        tcp_json::to_string(&Json::Obj(obj))
    }
}

/// The seeded batch, in submission order, and which distinct requests
/// setup puts in the warm store.
///
/// The fresh and the stored jobs each cycle through every preset and op
/// count in a fixed mix, so the work does not depend on the seed; the seed
/// picks each job's benchmark, the submission order, and which earlier
/// request each repeat re-submits.
fn batch(seed: u64, n_benches: usize) -> (Vec<Request>, BTreeSet<Request>) {
    let mut rng = SplitMix64::new(seed);
    let n_presets = PrefetcherSpec::presets().len();
    let mut seen = BTreeSet::new();
    let mut distinct = Vec::new();
    for k in (0..REQUESTS - REPEATS - STORE_HITS).chain(0..STORE_HITS) {
        loop {
            let r = Request {
                bench: rng.next_below(n_benches as u64) as usize,
                preset: k % n_presets,
                ops: 10_000 + 5_000 * (k / n_presets % 7) as u64,
                ideal_l2: k % 10 == 9,
            };
            if seen.insert(r) {
                distinct.push(r);
                break;
            }
        }
    }
    let stored: BTreeSet<Request> = distinct[REQUESTS - REPEATS - STORE_HITS..]
        .iter()
        .copied()
        .collect();
    for i in (1..distinct.len()).rev() {
        distinct.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let mut repeat = vec![false; REQUESTS];
    let mut placed = 0;
    while placed < REPEATS {
        let at = 1 + rng.next_below(REQUESTS as u64 - 1) as usize;
        if !repeat[at] {
            repeat[at] = true;
            placed += 1;
        }
    }
    let mut out: Vec<Request> = Vec::with_capacity(REQUESTS);
    let mut fresh = distinct.into_iter();
    for (at, &is_repeat) in repeat.iter().enumerate() {
        let r = if is_repeat {
            out[rng.next_below(at as u64) as usize]
        } else {
            fresh
                .next()
                .expect("one distinct request per non-repeat slot")
        };
        out.push(r);
    }
    (out, stored)
}

fn job_of(r: &Request, benches: &[Benchmark]) -> Job {
    let machine = if r.ideal_l2 {
        SystemConfig::table1_ideal_l2()
    } else {
        SystemConfig::table1()
    };
    Job::new(
        &benches[r.bench],
        r.ops,
        &machine,
        PrefetcherSpec::presets()[r.preset].1,
    )
}

fn filler_jobs(benches: &[Benchmark]) -> Vec<Job> {
    let machine = SystemConfig::table1();
    let mut jobs = Vec::new();
    for b in benches {
        for name in FILLER_PRESETS {
            let spec = PrefetcherSpec::from_name(name).expect("filler presets are shipped presets");
            for ops in FILLER_OPS.step_by(FILLER_OPS_STEP) {
                jobs.push(Job::new(b, ops, &machine, spec));
            }
        }
    }
    jobs
}

/// Writes `requests.jsonl`, builds the warm store in `warm/` and copies
/// it to `store/`, where `tcp-serve` will run.
pub fn setup(args: &Args) -> Result<(), String> {
    let dir = args.dir()?;
    let seed: u64 = args.num("seed", None)?;
    let benches = suite();
    let (requests, stored) = batch(seed, benches.len());
    let mut lines = String::new();
    for r in &requests {
        lines.push_str(&r.line(&benches));
        lines.push('\n');
    }
    for sub in ["warm", "store"] {
        let _ = fs::remove_dir_all(dir.join(sub));
    }
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    fs::write(dir.join("requests.jsonl"), lines).map_err(|e| format!("writing requests: {e}"))?;

    let mut jobs = filler_jobs(&benches);
    jobs.extend(stored.iter().map(|r| job_of(r, &benches)));
    let mut store = SweepStore::open(&dir.join("warm")).map_err(|e| e.to_string())?;
    let opts = CheckpointOpts {
        batch_jobs: jobs.len(),
        ..CheckpointOpts::default()
    };
    SweepEngine::with_threads(threads())
        .run_with(&mut store, &jobs, &opts)
        .map_err(|e| e.to_string())?;
    drop(store);
    fs::create_dir_all(dir.join("store")).map_err(|e| e.to_string())?;
    fs::copy(
        dir.join("warm").join(STORE_FILE),
        dir.join("store").join(STORE_FILE),
    )
    .map_err(|e| format!("copying the warm store: {e}"))?;

    let fresh: Vec<Request> = requests
        .iter()
        .copied()
        .collect::<BTreeSet<Request>>()
        .difference(&stored)
        .copied()
        .collect();
    let simulated = fresh.len();
    // Micro-ops tcp-serve simulates: each fresh job once, warm-up included.
    let sim_ops: u64 = fresh.iter().map(|r| r.ops / 2 + r.ops).sum();
    let mut obj = BTreeMap::new();
    obj.insert("requests".to_owned(), Json::Num(requests.len() as f64));
    obj.insert("simulated".to_owned(), Json::Num(simulated as f64));
    obj.insert("store_hits".to_owned(), Json::Num(stored.len() as f64));
    obj.insert(
        "memo_hits".to_owned(),
        Json::Num((requests.len() - simulated - stored.len()) as f64),
    );
    obj.insert("sim_ops".to_owned(), Json::Num(sim_ops as f64));
    obj.insert("warm_records".to_owned(), Json::Num(jobs.len() as f64));
    println!("{}", tcp_json::to_string(&Json::Obj(obj)));
    Ok(())
}

/// The batch as `tcp-serve` reads it: one job per request line.
fn read_jobs(dir: &Path) -> Result<(Vec<String>, Vec<Job>), String> {
    let text = fs::read_to_string(dir.join("requests.jsonl"))
        .map_err(|e| format!("reading requests: {e}"))?;
    let benches: BTreeMap<&str, Benchmark> = suite().into_iter().map(|b| (b.name, b)).collect();
    let mut lines = Vec::new();
    let mut jobs = Vec::new();
    for line in text.lines() {
        let v = tcp_json::parse(line).map_err(|e| format!("request {line}: {e}"))?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("request {line}: no {k}"))
        };
        let bench = benches
            .get(field("benchmark")?)
            .ok_or("unknown benchmark")?;
        let spec = PrefetcherSpec::from_name(field("prefetcher")?).ok_or("unknown prefetcher")?;
        let machine = match field("machine")? {
            "table1-ideal-l2" => SystemConfig::table1_ideal_l2(),
            _ => SystemConfig::table1(),
        };
        let ops = v.get("ops").and_then(Json::as_f64).ok_or("no ops")? as u64;
        lines.push(line.to_owned());
        jobs.push(Job::new(bench, ops, &machine, spec));
    }
    Ok((lines, jobs))
}

/// The result line fields the benchmark checks, as `run.py` compares
/// them with `tcp-serve`'s output.
fn result_line(index: usize, r: &RunResult) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("index".to_owned(), Json::Num(index as f64));
    obj.insert("benchmark".to_owned(), Json::Str(r.benchmark.clone()));
    obj.insert("prefetcher".to_owned(), Json::Str(r.prefetcher.clone()));
    obj.insert("cycles".to_owned(), Json::Str(r.cycles.to_string()));
    obj.insert("ops".to_owned(), Json::Str(r.ops.to_string()));
    obj.insert(
        "ipc_bits".to_owned(),
        Json::Str(format!("{:016x}", r.ipc.to_bits())),
    );
    tcp_json::to_string(&Json::Obj(obj))
}

/// Prints the expected result of every request, each distinct job run
/// once through `run_benchmark` on the benchmark's worker threads.
pub fn reference(args: &Args) -> Result<(), String> {
    let dir = args.dir()?;
    let (_, jobs) = read_jobs(&dir)?;
    let mut first: BTreeMap<String, usize> = BTreeMap::new();
    for (i, j) in jobs.iter().enumerate() {
        first.entry(j.key()).or_insert(i);
    }
    let todo: Vec<usize> = first.values().copied().collect();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..threads() {
            s.spawn(|| {
                while let Some(&i) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let j = &jobs[i];
                    let r = tcp_sim::run_benchmark(
                        &j.benchmark,
                        j.n_ops,
                        &j.machine,
                        j.prefetcher.build(),
                    );
                    done.lock()
                        .expect("no reference worker panics")
                        .insert(j.key(), r);
                }
            });
        }
    });
    let done = done.into_inner().expect("no reference worker panics");
    for (i, j) in jobs.iter().enumerate() {
        println!("{}", result_line(i, &done[&j.key()]));
    }
    Ok(())
}

fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).map_err(|e| e.to_string())?;
    fs::copy(from.join(STORE_FILE), to.join(STORE_FILE))
        .map_err(|e| format!("copying store: {e}"))?;
    Ok(())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The traced run: `tcp-serve`'s loop replayed in-process on a copy of
/// the warm store with a span per phase, then each layer in isolation.
pub fn trace(args: &Args) -> Result<(), String> {
    let dir = args.dir()?;
    let untraced_wall: f64 = args.num("untraced-wall", None)?;
    let (lines, jobs) = read_jobs(&dir)?;
    let traced_dir = dir.join("traced-store");
    copy_store(&dir.join("warm"), &traced_dir)?;
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut m = BTreeMap::new();

    // tcp-serve's loop: open, then one checkpointed run_with per chunk of
    // 8 requests, each flushing the whole store if it simulated.
    let engine = SweepEngine::with_threads(threads());
    let t0 = Instant::now();
    let mut store = SweepStore::open(&traced_dir).map_err(|e| e.to_string())?;
    let cpu0 = process_cpu_s();
    let t_sweep = Instant::now();
    let mut results = Vec::with_capacity(jobs.len());
    let mut bytes_written = 0u64;
    let opts = CheckpointOpts {
        batch_jobs: CHUNK,
        ..CheckpointOpts::default()
    };
    for chunk in jobs.chunks(CHUNK) {
        let flushes = store.stats().flushes;
        let rs = engine
            .run_with(&mut store, chunk, &opts)
            .map_err(|e| e.to_string())?;
        results.extend(rs);
        if store.stats().flushes > flushes {
            bytes_written += fs::metadata(store.store_path()).map_or(0, |md| md.len());
        }
    }
    let sweep_s = t_sweep.elapsed().as_secs_f64();
    let traced_wall = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    for (i, r) in results.iter().enumerate() {
        println!("{}", result_line(i, r));
    }
    let stats = engine.stats();
    let flushes = store.stats().flushes;
    drop(store);

    // Store I/O at warm-store size: open and flush on copies.
    let probe_dir = dir.join("probe-store");
    copy_store(&dir.join("warm"), &probe_dir)?;
    let mut opens = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        SweepStore::open(&probe_dir).map_err(|e| e.to_string())?;
        opens.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let open_ms = median(opens);
    let mut probe = SweepStore::open(&probe_dir).map_err(|e| e.to_string())?;
    let sample = results.first().cloned().ok_or("empty batch")?;
    let mut flushes_ms = Vec::new();
    for k in 0..5 {
        probe.insert(&format!("flush-probe-{k}"), &sample);
        let t = Instant::now();
        probe.flush().map_err(|e| e.to_string())?;
        flushes_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let flush_ms = median(flushes_ms);
    drop(probe);
    for sub in ["probe-store", "traced-store"] {
        let _ = fs::remove_dir_all(dir.join(sub));
    }

    // Record codec over every warm-store record, checked to round-trip.
    let warm = fs::read_to_string(dir.join("warm").join(STORE_FILE)).map_err(|e| e.to_string())?;
    let records: Vec<&str> = warm.lines().collect();
    let t = Instant::now();
    let decoded: Vec<(String, RunResult)> = records
        .iter()
        .filter_map(|l| decode_record(l).ok())
        .collect();
    let decode_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let encoded: Vec<String> = decoded.iter().map(|(k, r)| encode_record(k, r)).collect();
    let encode_ns = t.elapsed().as_nanos() as f64;
    attempted += 1;
    if encoded
        .iter()
        .map(String::as_str)
        .ne(records.iter().copied())
    {
        failures.push("store records do not round-trip through the codec".to_owned());
    }

    // JSON parse per request line, repeated for clock resolution.
    const PARSE_REPS: usize = 20;
    let t = Instant::now();
    for _ in 0..PARSE_REPS {
        for l in &lines {
            std::hint::black_box(tcp_json::parse(std::hint::black_box(l)).is_ok());
        }
    }
    let parse_ns = t.elapsed().as_nanos() as f64 / (PARSE_REPS * lines.len()) as f64;

    // Every distinct job the batch simulates, taken apart layer by layer.
    // Store hits are read, never simulated, so they start out seen.
    let mut totals = Totals::default();
    let mut seen: BTreeSet<String> = decoded.iter().map(|(k, _)| k.clone()).collect();
    let mut jobs_layer_ns = 0u64;
    for j in &jobs {
        if !seen.insert(j.key()) {
            continue;
        }
        attempted += 1;
        match decompose_job(j, &mut totals) {
            Ok(ns) => jobs_layer_ns += ns,
            Err(e) => failures.push(e),
        }
    }

    let workers = engine.threads() as f64;
    let layers_s = (open_ms + flushes as f64 * flush_ms) / 1e3
        + lines.len() as f64 * parse_ns / 1e9
        + jobs_layer_ns as f64 / 1e9 / workers;
    totals_metrics(&mut m, &totals);
    metric(&mut m, "sim.executor_util", per(cpu_s, workers * sweep_s));
    metric(&mut m, "experiments.jobs_requested", stats.requested as f64);
    metric(&mut m, "experiments.jobs_executed", stats.executed as f64);
    metric(&mut m, "experiments.memo_hits", stats.memo_hits() as f64);
    metric(&mut m, "experiments.store_hits", stats.store_hits as f64);
    metric(&mut m, "experiments.store_open_ms", open_ms);
    metric(&mut m, "experiments.store_flush_ms", flush_ms);
    metric(&mut m, "experiments.store_flushes", flushes as f64);
    metric(
        &mut m,
        "experiments.store_bytes_written",
        bytes_written as f64,
    );
    metric(
        &mut m,
        "experiments.record_codec_ns",
        per(decode_ns + encode_ns, records.len() as f64),
    );
    metric(&mut m, "json.parse_ns_per_request", parse_ns);
    metric(
        &mut m,
        "bench.residual_frac",
        (untraced_wall - layers_s) / untraced_wall,
    );
    metric(
        &mut m,
        "bench.trace_overhead_frac",
        traced_wall / untraced_wall - 1.0,
    );
    print_result(m, attempted, &failures);
    Ok(())
}
