//! Injected-slowdown canary: a fixed busy-wait in every `on_miss` of the
//! `stream` tenants' engines must show up in `core.callback_ns`, not in
//! trace decode or the mux, and must move `records_per_s` outside the
//! bound `BENCHMARK.json` sets for it.
//!
//! Run with `cargo test --release --manifest-path tcpbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use tcp_json::Json;

/// Busy-wait per `on_miss`: about a microsecond per record on the TCP
/// tenants, more than doubling the mux's time.
const DELAY_NS: u64 = 2_000;

fn tcpbench(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpbench"))
        .args(args)
        .output()
        .expect("tcpbench runs");
    assert!(
        out.status.success(),
        "tcpbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    tcp_json::parse(stdout.lines().last().expect("a result line")).expect("JSON result")
}

fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

fn records_per_s(dir: &str, delay: u64) -> f64 {
    let r = tcpbench(&[
        "stream-run",
        "--dir",
        dir,
        "--miss-delay-ns",
        &delay.to_string(),
    ]);
    num(&r, &["records"]) / num(&r, &["mux_s"])
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn records_per_s_bound() -> f64 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec =
        tcp_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("records_per_s"))
        })
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .expect("records_per_s has a bound")
}

#[test]
fn injected_miss_delay_is_attributed_to_core_callbacks() {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("canary-stream");
    let dir = dir.to_str().expect("utf-8 path");
    tcpbench(&["stream-setup", "--seed", "1", "--dir", dir]);

    // End to end: interleaved plain and delayed muxes, medians of three.
    let (mut plain, mut delayed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(records_per_s(dir, 0));
        delayed.push(records_per_s(dir, DELAY_NS));
    }
    let (plain, delayed) = (median(plain), median(delayed));
    let bound = records_per_s_bound();
    assert!(
        delayed < plain * (1.0 - bound),
        "records_per_s fell from {plain:.0} to {delayed:.0}, within the {bound} bound"
    );

    // Traced: the added time lands in the callback layer.
    let trace = |delay: u64| {
        let r = tcpbench(&[
            "stream-trace",
            "--dir",
            dir,
            "--untraced-wall",
            "1",
            "--untraced-mux",
            "1",
            "--miss-delay-ns",
            &delay.to_string(),
        ]);
        assert_eq!(num(&r, &["failed"]), 0.0, "traced run checks failed");
        r
    };
    let (base, slow) = (trace(0), trace(DELAY_NS));
    let records = num(&base, &["metrics", "analysis.records"]);
    let added_ns = |metric: &str, per: f64| {
        (num(&slow, &["metrics", metric]) - num(&base, &["metrics", metric])) * per
    };
    // The time the delay added to a solo replay of every tenant.
    let injected = added_ns("sim.replay_ns_per_record", records);
    let in_callbacks = added_ns(
        "core.callback_ns",
        num(&base, &["metrics", "core.callbacks"]),
    );
    let in_decode = added_ns("analysis.decode_ns_per_record", records);
    let in_mux = added_ns("sim.mux_ns_per_record", records);
    eprintln!(
        "records_per_s {plain:.0} -> {delayed:.0}; added ns: replay {injected:.3e}, \
         callbacks {in_callbacks:.3e}, decode {in_decode:.3e}, mux {in_mux:.3e}"
    );
    assert!(
        in_callbacks > 0.8 * injected,
        "core.callback_ns took {in_callbacks:.3e} of {injected:.3e} injected ns"
    );
    assert!(
        in_decode.abs() < 0.25 * injected && in_mux.abs() < 0.25 * injected,
        "decode ({in_decode:.3e} ns) or mux ({in_mux:.3e} ns) took the injected {injected:.3e} ns"
    );
}
