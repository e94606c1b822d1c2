//! `tcp-serve` — batch sweep service over the persistent memo store.
//!
//! Reads JSON-lines sweep requests from a file (or stdin with `-`) one
//! batch at a time, fans each batch through the sweep engine, and streams
//! one JSON result line per request in submission order. Memory stays
//! O(batch) however long the input runs, so a long-running client can
//! feed an unbounded request stream through a pipe — the serving
//! counterpart of the bounded-memory trace ingestion in
//! `tcp_sim::stream`. Repeated or previously-simulated requests are
//! served from the store without re-simulation; malformed requests and
//! failed jobs get an error line instead of killing the batch.
//!
//! ```text
//! tcp-serve [--store DIR] [--threads N] [--batch N] [FILE|-]
//! ```
//!
//! Request lines look like:
//!
//! ```text
//! {"benchmark":"gzip","ops":50000,"prefetcher":"tcp-8k","machine":"table1"}
//! ```
//!
//! `machine` (default `table1`) is `table1` or `table1-ideal-l2`;
//! `prefetcher` is any preset named by
//! [`tcp_experiments::sweep::PrefetcherSpec::presets`]; `ops` defaults to
//! 50 000. Results carry `cycles`/`ops` as decimal strings (lossless for
//! the full `u64` range) and `ipc` as a JSON number.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use tcp_experiments::store::SweepStore;
use tcp_experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_json::Json;
use tcp_sim::{RunResult, SystemConfig};
use tcp_workloads::{suite, Benchmark};

const DEFAULT_OPS: u64 = 50_000;

struct Args {
    store: Option<PathBuf>,
    threads: usize,
    batch: usize,
    input: String,
}

fn usage() -> String {
    "usage: tcp-serve [--store DIR] [--threads N] [--batch N] [FILE|-]".to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        store: None,
        threads: 0,
        batch: CheckpointOpts::default().batch_jobs,
        input: "-".to_owned(),
    };
    let mut it = argv.iter();
    let mut positional = None;
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--store" => args.store = Some(PathBuf::from(value(&mut it)?)),
            "--threads" => {
                args.threads = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--batch" => {
                args.batch = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                if args.batch == 0 {
                    return Err("--batch must be at least 1".to_owned());
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => {
                if positional.replace(other.to_owned()).is_some() {
                    return Err(format!("unexpected extra argument {other}\n{}", usage()));
                }
            }
        }
    }
    if let Some(p) = positional {
        args.input = p;
    }
    Ok(args)
}

/// Decodes one request line into a [`Job`], with a human-readable reason
/// for every way a request can be malformed.
fn parse_request(line: &str, benches: &BTreeMap<&str, Benchmark>) -> Result<Job, String> {
    let v = tcp_json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let bench_name = v
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or("missing string field \"benchmark\"")?;
    let bench = benches
        .get(bench_name)
        .ok_or_else(|| format!("unknown benchmark {bench_name:?}"))?;
    let spec_name = v
        .get("prefetcher")
        .and_then(Json::as_str)
        .ok_or("missing string field \"prefetcher\"")?;
    let spec = PrefetcherSpec::from_name(spec_name).ok_or_else(|| {
        let known: Vec<&str> = PrefetcherSpec::presets().iter().map(|(n, _)| *n).collect();
        format!("unknown prefetcher {spec_name:?} (one of {known:?})")
    })?;
    let machine = match v.get("machine").and_then(Json::as_str).unwrap_or("table1") {
        "table1" => SystemConfig::table1(),
        "table1-ideal-l2" => SystemConfig::table1_ideal_l2(),
        other => return Err(format!("unknown machine {other:?}")),
    };
    let ops = match v.get("ops") {
        None => DEFAULT_OPS,
        Some(j) => {
            let f = j.as_f64().ok_or("\"ops\" must be a number")?;
            if !(f.is_finite() && f >= 1.0 && f.fract() == 0.0) {
                return Err(format!("\"ops\" must be a positive integer, got {f}"));
            }
            // Saturates above `u64::MAX`; a run simulates `ops` plus a
            // half-length warm-up, which must fit too.
            let ops = f as u64;
            if ops.checked_add(ops / 2).is_none() {
                return Err(format!(
                    "\"ops\" {f} is too large: with its warm-up the run overflows"
                ));
            }
            ops
        }
    };
    Ok(Job::new(bench, ops, &machine, spec))
}

fn result_line(index: usize, r: &RunResult) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("index".to_owned(), Json::Num(index as f64));
    obj.insert("benchmark".to_owned(), Json::Str(r.benchmark.clone()));
    obj.insert("prefetcher".to_owned(), Json::Str(r.prefetcher.clone()));
    obj.insert(
        "prefetcher_bytes".to_owned(),
        Json::Str(r.prefetcher_bytes.to_string()),
    );
    obj.insert("ipc".to_owned(), Json::Num(r.ipc));
    obj.insert("cycles".to_owned(), Json::Str(r.cycles.to_string()));
    obj.insert("ops".to_owned(), Json::Str(r.ops.to_string()));
    tcp_json::to_string(&Json::Obj(obj))
}

fn error_line(index: usize, error: &str) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("index".to_owned(), Json::Num(index as f64));
    obj.insert("error".to_owned(), Json::Str(error.to_owned()));
    tcp_json::to_string(&Json::Obj(obj))
}

fn serve(args: &Args) -> Result<usize, String> {
    // Open the input before the store, so a bad path leaves nothing behind.
    let input: Box<dyn BufRead> = if args.input == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        let f = fs::File::open(&args.input).map_err(|e| format!("opening {}: {e}", args.input))?;
        Box::new(BufReader::new(f))
    };
    let (store_dir, ephemeral) = match &args.store {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("tcp-serve-{}", std::process::id())),
            true,
        ),
    };
    let served = SweepStore::open(&store_dir)
        .map_err(|e| e.to_string())
        .and_then(|mut store| {
            eprintln!(
                "tcp-serve: store {} ({} records{})",
                store_dir.display(),
                store.len(),
                if ephemeral { ", ephemeral" } else { "" },
            );
            serve_batches(args, input, &mut store)
        });
    // The ephemeral store goes on every exit path, errors included.
    if ephemeral {
        let _ = fs::remove_dir_all(&store_dir);
    }
    served
}

/// Answers every request in `input`, one batch at a time, and returns
/// how many requests failed.
fn serve_batches(
    args: &Args,
    input: Box<dyn BufRead>,
    store: &mut SweepStore,
) -> Result<usize, String> {
    let loaded = store.stats();
    if loaded.total_quarantined() > 0 {
        eprintln!("tcp-serve: quarantined on load: {}", loaded.summary());
    }

    let benches: BTreeMap<&str, Benchmark> = suite().into_iter().map(|b| (b.name, b)).collect();

    let engine = if args.threads == 0 {
        SweepEngine::new()
    } else {
        SweepEngine::with_threads(args.threads)
    };
    let opts = CheckpointOpts {
        batch_jobs: args.batch,
        ..CheckpointOpts::default()
    };

    let stdout = std::io::stdout();
    let mut failures = 0usize;
    let mut requests = 0usize;
    let mut lines = input.lines();
    // Each slot is a runnable job or the reason it never became one.
    let mut chunk: Vec<Result<Job, String>> = Vec::with_capacity(args.batch);
    loop {
        chunk.clear();
        while chunk.len() < args.batch {
            match lines.next() {
                Some(Ok(line)) if line.trim().is_empty() => {}
                Some(Ok(line)) => chunk.push(parse_request(&line, &benches)),
                Some(Err(e)) => return Err(format!("reading {}: {e}", args.input)),
                None => break,
            }
        }
        if chunk.is_empty() {
            break;
        }
        // Fan the chunk through the engine, which checkpoints the store,
        // and flush this chunk's lines before the next chunk starts.
        let jobs: Vec<Job> = chunk
            .iter()
            .filter_map(|s| s.as_ref().ok().cloned())
            .collect();
        let mut verdicts = engine
            .run_each(Some(store), &jobs, &opts)
            .map_err(|e| e.to_string())?
            .into_iter();
        // Take the stdout lock only for the write-out, never across a
        // simulation call (the engine locks its worker deques).
        let mut out = stdout.lock();
        for (at, slot) in chunk.iter().enumerate() {
            let verdict = match slot {
                Ok(_) => verdicts
                    .next()
                    .expect("one verdict per job")
                    .map_err(|e| e.to_string()),
                Err(reason) => Err(reason.clone()),
            };
            let line = match verdict {
                Ok(r) => result_line(requests + at, &r),
                Err(reason) => {
                    failures += 1;
                    error_line(requests + at, &reason)
                }
            };
            writeln!(out, "{line}").map_err(|e| format!("writing stdout: {e}"))?;
        }
        out.flush().map_err(|e| format!("flushing stdout: {e}"))?;
        requests += chunk.len();
    }

    let stats = engine.stats();
    eprintln!(
        "tcp-serve: {requests} requests, {} simulated, {} from store, {} from memo, {} failed",
        stats.executed,
        stats.store_hits,
        stats.memo_hits(),
        failures,
    );
    eprintln!("tcp-serve: {}", store.stats().summary());
    Ok(failures)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match serve(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("tcp-serve: {msg}");
            ExitCode::from(2)
        }
    }
}
