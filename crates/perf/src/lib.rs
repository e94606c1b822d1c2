//! `tcp-perf`: the in-repo performance harness.
//!
//! The ROADMAP's north star is a simulator that runs as fast as the
//! hardware allows; this crate makes that a measured, gated property
//! rather than a hope. It times the real hot paths — [`MemoryHierarchy`]
//! demand accesses, THT/PHT train+lookup, the out-of-order core loop,
//! trace decode, and a full [`SweepEngine`] sweep — with warmup
//! and repetition, reports median and p90, and emits machine-readable
//! `BENCH.json` so every commit leaves a perf trajectory behind.
//!
//! Everything is dependency-free (std only) and the *work* each case
//! performs is deterministic: fixed seeds, fixed op counts, bit-identical
//! simulation outcomes. Only the wall-clock measurements vary between
//! runs, which is what the repetition/median machinery is for.
//!
//! [`MemoryHierarchy`]: tcp_cache::MemoryHierarchy
//! [`SweepEngine`]: tcp_experiments::sweep::SweepEngine
//!
//! # Examples
//!
//! ```
//! use tcp_perf::{measure, MeasureOpts};
//!
//! let opts = MeasureOpts { warmup_reps: 1, reps: 3 };
//! let mut acc = 0u64;
//! let result = measure("spin", "iters", 10_000, opts, || {
//!     for i in 0..10_000u64 {
//!         acc = acc.wrapping_add(i * i);
//!     }
//!     7 // the repetition's work checksum
//! });
//! assert_eq!(result.reps, 3);
//! assert_eq!(result.checksum, 7);
//! assert!(result.median_ops_per_sec() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub use tcp_json as json;

use std::time::Instant;

use json::Json;

/// Schema version stamped into every `BENCH.json`.
pub const SCHEMA_VERSION: u64 = 1;

/// Repetition policy for one measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasureOpts {
    /// Unmeasured repetitions run first (cache/branch-predictor warmup).
    pub warmup_reps: u32,
    /// Measured repetitions; median/p90 are taken over these.
    pub reps: u32,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        MeasureOpts {
            warmup_reps: 1,
            reps: 5,
        }
    }
}

/// The measured result of one benchmark case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Case name (stable across runs; the regression-gate key).
    pub name: String,
    /// What one "op" is for this case (accesses, misses, uops, ...).
    pub unit: String,
    /// Ops performed per repetition.
    pub units_per_rep: u64,
    /// Warmup repetitions that ran before measurement.
    pub warmup_reps: u32,
    /// Measured repetitions.
    pub reps: u32,
    /// Wall time of each measured repetition, in milliseconds.
    pub wall_ms: Vec<f64>,
    /// What every repetition's `work` returned: a checksum of the case's
    /// work, equal for two builds that did the same work.
    pub checksum: u64,
    /// `true` when [`checksum`](Self::checksum) is the number of
    /// simulated cycles one repetition covered.
    pub checksum_is_cycles: bool,
}

impl CaseResult {
    /// Throughput of each measured repetition, in ops/second.
    pub fn ops_per_sec(&self) -> Vec<f64> {
        self.wall_ms
            .iter()
            .map(|ms| self.units_per_rep as f64 / (ms / 1e3))
            .collect()
    }

    /// Median throughput in ops/second.
    pub fn median_ops_per_sec(&self) -> f64 {
        median(&self.ops_per_sec())
    }

    /// 90th-percentile (pessimistic-tail) wall time in milliseconds.
    pub fn p90_wall_ms(&self) -> f64 {
        percentile(&self.wall_ms, 0.90)
    }

    /// Median wall time in milliseconds.
    pub fn median_wall_ms(&self) -> f64 {
        median(&self.wall_ms)
    }

    /// Simulated cycles per repetition, or `None` when the checksum is
    /// not a cycle count.
    pub fn sim_cycles_per_rep(&self) -> Option<u64> {
        self.checksum_is_cycles.then_some(self.checksum)
    }

    /// Simulated cycles per wall-clock second at the median repetition,
    /// or `None` when the checksum is not a cycle count.
    pub fn sim_cycles_per_sec(&self) -> Option<f64> {
        self.sim_cycles_per_rep()
            .map(|c| c as f64 / (self.median_wall_ms() / 1e3))
    }
}

/// Runs `work` under the warmup/repetition policy and collects wall
/// times. `work` returns a checksum of the repetition's work; the value
/// must be identical across repetitions — the harness asserts it, which
/// doubles as a determinism check on every measured path. A case whose
/// checksum counts simulated cycles sets
/// [`CaseResult::checksum_is_cycles`] on the result.
///
/// # Panics
///
/// Panics if `reps` is zero or if `work` returns different checksums
/// across repetitions (a determinism violation).
pub fn measure(
    name: &str,
    unit: &str,
    units_per_rep: u64,
    opts: MeasureOpts,
    mut work: impl FnMut() -> u64,
) -> CaseResult {
    assert!(
        opts.reps > 0,
        "at least one measured repetition is required"
    );
    let mut checksum = None;
    for _ in 0..opts.warmup_reps {
        let c = work();
        assert_eq!(
            *checksum.get_or_insert(c),
            c,
            "{name}: nondeterministic checksum"
        );
    }
    let mut wall_ms = Vec::with_capacity(opts.reps as usize);
    for _ in 0..opts.reps {
        let start = Instant::now();
        let c = work();
        let elapsed = start.elapsed();
        assert_eq!(
            *checksum.get_or_insert(c),
            c,
            "{name}: nondeterministic checksum"
        );
        wall_ms.push(elapsed.as_secs_f64() * 1e3);
    }
    CaseResult {
        name: name.to_owned(),
        unit: unit.to_owned(),
        units_per_rep,
        warmup_reps: opts.warmup_reps,
        reps: opts.reps,
        wall_ms,
        checksum: checksum.unwrap_or(0),
        checksum_is_cycles: false,
    }
}

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `values` (`p` in `0.0..=1.0`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A full harness run: every case result plus run metadata.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Harness mode: `"full"` or `"smoke"`.
    pub mode: String,
    /// Per-case results.
    pub cases: Vec<CaseResult>,
}

impl BenchReport {
    /// Serialises the report as the `BENCH.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str("  \"generated_by\": \"tcp-perf\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", json::escape(&self.mode)));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", json::escape(&c.name)));
            out.push_str(&format!("      \"unit\": \"{}\",\n", json::escape(&c.unit)));
            out.push_str(&format!("      \"units_per_rep\": {},\n", c.units_per_rep));
            out.push_str(&format!("      \"warmup_reps\": {},\n", c.warmup_reps));
            out.push_str(&format!("      \"reps\": {},\n", c.reps));
            out.push_str(&format!(
                "      \"median_ops_per_sec\": {},\n",
                json::num(c.median_ops_per_sec())
            ));
            out.push_str(&format!(
                "      \"median_wall_ms\": {},\n",
                json::num(c.median_wall_ms())
            ));
            out.push_str(&format!(
                "      \"p90_wall_ms\": {},\n",
                json::num(c.p90_wall_ms())
            ));
            out.push_str(&format!("      \"checksum\": {},\n", c.checksum));
            out.push_str(&format!(
                "      \"sim_cycles_per_rep\": {},\n",
                c.sim_cycles_per_rep().unwrap_or(0)
            ));
            match c.sim_cycles_per_sec() {
                Some(v) => out.push_str(&format!(
                    "      \"sim_cycles_per_sec\": {},\n",
                    json::num(v)
                )),
                None => out.push_str("      \"sim_cycles_per_sec\": null,\n"),
            }
            let walls: Vec<String> = c.wall_ms.iter().map(|w| json::num(*w)).collect();
            out.push_str(&format!("      \"wall_ms\": [{}]\n", walls.join(", ")));
            out.push_str(if i + 1 == self.cases.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One case's baseline-versus-current numbers, as extracted by
/// [`compare`]. `None` sides mark cases present in only one report.
#[derive(Clone, Debug)]
pub struct CaseDelta {
    /// Case name (the regression-gate key).
    pub name: String,
    /// Baseline median throughput in ops/s; `None` for a new case.
    pub base_ops: Option<f64>,
    /// Current median throughput in ops/s; `None` for a missing case.
    pub cur_ops: Option<f64>,
    /// Baseline p90 wall time in ms, when the baseline records it.
    pub base_p90_ms: Option<f64>,
    /// Current p90 wall time in ms, when the current report records it.
    pub cur_p90_ms: Option<f64>,
    /// `true` when this delta breached the threshold (or the case went
    /// missing from the current report).
    pub regressed: bool,
}

impl CaseDelta {
    /// Median-throughput change in percent (`+` = faster), when both
    /// sides exist.
    pub fn change_pct(&self) -> Option<f64> {
        match (self.base_ops, self.cur_ops) {
            (Some(b), Some(c)) => Some((c / b - 1.0) * 100.0),
            _ => None,
        }
    }
}

/// The verdict of comparing a fresh report against a baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Per-case numbers, baseline order first, then cases new in current.
    pub deltas: Vec<CaseDelta>,
    /// Human-readable per-case lines, in baseline order.
    pub lines: Vec<String>,
    /// Cases that regressed beyond the threshold (or went missing).
    pub failures: Vec<String>,
}

impl Comparison {
    /// `true` when no case regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Serialises the per-case deltas as a JSON document (the
    /// `tcp-perf compare --json` output a CI step turns into a summary
    /// table):
    /// `{"passed": bool, "cases": [{name, base_ops, cur_ops, base_p90_ms,
    /// cur_p90_ms, change_pct, regressed}, ...]}`.
    pub fn to_json(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "null".to_owned(), json::num)
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str("  \"cases\": [\n");
        for (i, d) in self.deltas.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"base_ops\": {}, \"cur_ops\": {}, \
                 \"base_p90_ms\": {}, \"cur_p90_ms\": {}, \"change_pct\": {}, \
                 \"regressed\": {}}}{}\n",
                json::escape(&d.name),
                opt(d.base_ops),
                opt(d.cur_ops),
                opt(d.base_p90_ms),
                opt(d.cur_p90_ms),
                opt(d.change_pct()),
                d.regressed,
                if i + 1 == self.deltas.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Compares `current` against `baseline` (both parsed `BENCH.json`
/// documents). A case fails when its median throughput drops more than
/// `threshold` (a fraction: `0.10` = 10%) below the baseline, or when it
/// disappears from the current report. Cases new in `current` are noted
/// but never fail.
///
/// # Errors
///
/// Returns a message when either document does not look like a
/// `BENCH.json` report.
pub fn compare(baseline: &Json, current: &Json, threshold: f64) -> Result<Comparison, String> {
    let base_cases = report_cases(baseline, "baseline")?;
    let cur_cases = report_cases(current, "current")?;
    let mut cmp = Comparison::default();
    for base in &base_cases {
        let name = &base.name;
        match cur_cases.iter().find(|c| &c.name == name) {
            None => {
                cmp.failures.push(format!(
                    "{name}: present in baseline but missing from current"
                ));
                cmp.deltas.push(CaseDelta {
                    name: name.clone(),
                    base_ops: Some(base.ops),
                    cur_ops: None,
                    base_p90_ms: base.p90_ms,
                    cur_p90_ms: None,
                    regressed: true,
                });
            }
            Some(cur) => {
                let ratio = cur.ops / base.ops;
                let regressed = ratio < 1.0 - threshold;
                cmp.lines.push(format!(
                    "{name}: {:.0} -> {:.0} ops/s ({:+.1}%)",
                    base.ops,
                    cur.ops,
                    (ratio - 1.0) * 100.0
                ));
                if regressed {
                    cmp.failures.push(format!(
                        "{name}: median throughput regressed {:.1}% (> {:.0}% allowed): \
                         {:.0} -> {:.0} ops/s",
                        (1.0 - ratio) * 100.0,
                        threshold * 100.0,
                        base.ops,
                        cur.ops
                    ));
                }
                cmp.deltas.push(CaseDelta {
                    name: name.clone(),
                    base_ops: Some(base.ops),
                    cur_ops: Some(cur.ops),
                    base_p90_ms: base.p90_ms,
                    cur_p90_ms: cur.p90_ms,
                    regressed,
                });
            }
        }
    }
    for cur in &cur_cases {
        if !base_cases.iter().any(|b| b.name == cur.name) {
            cmp.lines
                .push(format!("{}: new case (no baseline)", cur.name));
            cmp.deltas.push(CaseDelta {
                name: cur.name.clone(),
                base_ops: None,
                cur_ops: Some(cur.ops),
                base_p90_ms: None,
                cur_p90_ms: cur.p90_ms,
                regressed: false,
            });
        }
    }
    Ok(cmp)
}

/// Median-throughput ratio `numerator / denominator` between two cases
/// of one parsed `BENCH.json` report — the speedup gate behind
/// `tcp-perf ratio` (e.g. `trace_stream_decode` over `trace_decode`).
///
/// # Errors
///
/// Returns a message when the document is not a report or either case
/// is absent from it.
pub fn throughput_ratio(doc: &Json, numerator: &str, denominator: &str) -> Result<f64, String> {
    let cases = report_cases(doc, "report")?;
    let ops_of = |name: &str| {
        cases
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.ops)
            .ok_or_else(|| format!("report has no case \"{name}\""))
    };
    Ok(ops_of(numerator)? / ops_of(denominator)?)
}

/// One case's numbers as read from a report document.
struct ReportCase {
    name: String,
    ops: f64,
    p90_ms: Option<f64>,
}

/// Extracts each case's name, median throughput, and (when recorded)
/// p90 wall time from a report document.
fn report_cases(doc: &Json, which: &str) -> Result<Vec<ReportCase>, String> {
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{which} report has no \"cases\" array"))?;
    let mut out = Vec::with_capacity(cases.len());
    for (i, c) in cases.iter().enumerate() {
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{which} report: case {i} has no \"name\""))?;
        let ops = c
            .get("median_ops_per_sec")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{which} report: case \"{name}\" has no median_ops_per_sec"))?;
        if !(ops > 0.0 && ops.is_finite()) {
            return Err(format!(
                "{which} report: case \"{name}\" has non-positive throughput"
            ));
        }
        out.push(ReportCase {
            name: name.to_owned(),
            ops,
            p90_ms: c.get("p90_wall_ms").and_then(Json::as_f64),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_result(name: &str, wall_ms: Vec<f64>) -> CaseResult {
        CaseResult {
            name: name.to_owned(),
            unit: "ops".to_owned(),
            units_per_rep: 1000,
            warmup_reps: 1,
            reps: wall_ms.len() as u32,
            wall_ms,
            checksum: 0,
            checksum_is_cycles: false,
        }
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            percentile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 0.90),
            9.0
        );
        assert_eq!(percentile(&[5.0], 0.90), 5.0);
    }

    #[test]
    fn measure_runs_and_reports() {
        let mut calls = 0u32;
        let r = measure(
            "t",
            "ops",
            100,
            MeasureOpts {
                warmup_reps: 2,
                reps: 3,
            },
            || {
                calls += 1;
                42
            },
        );
        assert_eq!(calls, 5);
        assert_eq!(r.reps, 3);
        assert_eq!(r.checksum, 42);
        assert_eq!(r.sim_cycles_per_sec(), None);
        let r = CaseResult {
            checksum_is_cycles: true,
            ..r
        };
        assert_eq!(r.sim_cycles_per_rep(), Some(42));
        assert!(r.sim_cycles_per_sec().unwrap() > 0.0);
    }

    #[test]
    #[should_panic(expected = "nondeterministic")]
    fn measure_rejects_nondeterministic_work() {
        let mut c = 0u64;
        measure(
            "t",
            "ops",
            1,
            MeasureOpts {
                warmup_reps: 0,
                reps: 2,
            },
            || {
                c += 1;
                c
            },
        );
    }

    #[test]
    fn report_json_round_trips() {
        let report = BenchReport {
            mode: "smoke".to_owned(),
            cases: vec![
                CaseResult {
                    checksum: 368_830_779,
                    ..fake_result("a", vec![10.0, 12.0, 11.0])
                },
                CaseResult {
                    checksum: 46_568,
                    checksum_is_cycles: true,
                    ..fake_result("b", vec![5.0])
                },
            ],
        };
        let doc = json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("smoke"));
        let cases = doc.get("cases").and_then(Json::as_arr).unwrap();
        assert_eq!(cases.len(), 2);
        let a = &cases[0];
        assert_eq!(a.get("name").and_then(Json::as_str), Some("a"));
        // median wall 11ms over 1000 units -> ~90909 ops/s
        let ops = a.get("median_ops_per_sec").and_then(Json::as_f64).unwrap();
        assert!((ops - 1000.0 / 0.011).abs() < 1.0);
        // Every case reports its checksum; only a cycle count also
        // reports simulated cycles.
        let field = |c: &Json, key: &str| c.get(key).and_then(Json::as_f64);
        assert_eq!(field(a, "checksum"), Some(368_830_779.0));
        assert_eq!(field(a, "sim_cycles_per_rep"), Some(0.0));
        assert_eq!(a.get("sim_cycles_per_sec"), Some(&Json::Null));
        let b = &cases[1];
        assert_eq!(field(b, "checksum"), Some(46_568.0));
        assert_eq!(field(b, "sim_cycles_per_rep"), Some(46_568.0));
        // 46,568 cycles in 5 ms.
        assert!((field(b, "sim_cycles_per_sec").unwrap() - 46_568.0 / 0.005).abs() < 1.0);
    }

    #[test]
    fn compare_passes_within_threshold_and_fails_beyond() {
        let base = BenchReport {
            mode: "full".to_owned(),
            cases: vec![fake_result("a", vec![10.0]), fake_result("b", vec![10.0])],
        };
        // "a" 5% slower (within 10%), "b" 25% slower (fails).
        let cur = BenchReport {
            mode: "full".to_owned(),
            cases: vec![fake_result("a", vec![10.5]), fake_result("b", vec![13.4])],
        };
        let cmp = compare(
            &json::parse(&base.to_json()).unwrap(),
            &json::parse(&cur.to_json()).unwrap(),
            0.10,
        )
        .unwrap();
        assert!(!cmp.passed());
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains('b'), "{:?}", cmp.failures);
    }

    #[test]
    fn compare_fails_on_missing_case_and_tolerates_new_ones() {
        let base = BenchReport {
            mode: "full".to_owned(),
            cases: vec![fake_result("gone", vec![1.0])],
        };
        let cur = BenchReport {
            mode: "full".to_owned(),
            cases: vec![fake_result("new", vec![1.0])],
        };
        let cmp = compare(
            &json::parse(&base.to_json()).unwrap(),
            &json::parse(&cur.to_json()).unwrap(),
            0.10,
        )
        .unwrap();
        assert!(!cmp.passed());
        assert!(cmp.failures[0].contains("missing"));
        assert!(cmp.lines.iter().any(|l| l.contains("new case")));
    }

    #[test]
    fn throughput_ratio_divides_medians_and_flags_missing_cases() {
        let report = BenchReport {
            mode: "full".to_owned(),
            cases: vec![
                // 1000 units in 5 ms vs 10 ms: a is 2× b.
                fake_result("a", vec![5.0]),
                fake_result("b", vec![10.0]),
            ],
        };
        let doc = json::parse(&report.to_json()).unwrap();
        let ratio = throughput_ratio(&doc, "a", "b").unwrap();
        assert!((ratio - 2.0).abs() < 1e-9, "{ratio}");
        let inverse = throughput_ratio(&doc, "b", "a").unwrap();
        assert!((inverse - 0.5).abs() < 1e-9, "{inverse}");
        let err = throughput_ratio(&doc, "a", "nope").unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn compare_deltas_carry_p90_and_round_trip_as_json() {
        let base = BenchReport {
            mode: "full".to_owned(),
            cases: vec![
                fake_result("a", vec![10.0, 20.0]),
                fake_result("gone", vec![1.0]),
            ],
        };
        let cur = BenchReport {
            mode: "full".to_owned(),
            cases: vec![
                fake_result("a", vec![5.0, 8.0]),
                fake_result("new", vec![1.0]),
            ],
        };
        let cmp = compare(
            &json::parse(&base.to_json()).unwrap(),
            &json::parse(&cur.to_json()).unwrap(),
            0.10,
        )
        .unwrap();
        assert_eq!(cmp.deltas.len(), 3);
        let a = &cmp.deltas[0];
        assert_eq!(a.name, "a");
        // Median ops/s: (100k + 50k)/2 = 75k -> (200k + 125k)/2 = 162.5k.
        assert!((a.change_pct().unwrap() - 116.7).abs() < 0.5);
        assert_eq!(a.base_p90_ms, Some(20.0));
        assert_eq!(a.cur_p90_ms, Some(8.0));
        assert!(!a.regressed);
        let gone = &cmp.deltas[1];
        assert!(gone.regressed && gone.cur_ops.is_none());
        let new = &cmp.deltas[2];
        assert!(!new.regressed && new.base_ops.is_none());

        let doc = json::parse(&cmp.to_json()).unwrap();
        assert_eq!(doc.get("passed").and_then(Json::as_bool), Some(false));
        let cases = doc.get("cases").and_then(Json::as_arr).unwrap();
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].get("name").and_then(Json::as_str), Some("a"));
        assert!(cases[1].get("cur_ops").and_then(Json::as_f64).is_none());
        assert_eq!(
            cases[2].get("regressed").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn compare_rejects_malformed_reports() {
        let good = json::parse(&BenchReport::default().to_json()).unwrap();
        let bad = json::parse("{\"cases\": [{\"name\": \"x\"}]}").unwrap();
        assert!(compare(&bad, &good, 0.1).is_err());
        assert!(compare(&good, &json::parse("{}").unwrap(), 0.1).is_err());
    }
}
