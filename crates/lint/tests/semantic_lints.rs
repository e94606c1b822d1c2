//! Fixture-based acceptance tests for the semantic (AST + call-graph)
//! passes: each lint fires on its known-bad fixture at the exact line,
//! and each allowed/waived fixture analyzes clean.
//!
//! Unlike the lexical fixtures these go through [`tcp_lint::analyze_files`],
//! which builds the workspace symbol table and call graph — the same
//! entry point `--workspace` mode uses — so cross-function and
//! cross-crate reasoning is exercised for real.

use tcp_lint::{analyze_files, Finding, SourceFile};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("reading fixture {path}: {e}"),
    }
}

/// Analyzes one fixture under a synthetic workspace-relative path (the
/// path decides crate and file kind, exactly as in `--workspace` mode).
fn analyze_one(name: &str, rel_path: &str) -> Vec<Finding> {
    analyze_files(&[SourceFile {
        rel_path: rel_path.to_string(),
        src: fixture(name),
    }])
}

/// 1-based lines at which `lint` fired, in report order.
fn lines_for(findings: &[Finding], lint: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

#[test]
fn panic_reachability_fires_on_bad_fixture() {
    let all = analyze_one("panic_reach_bad.rs", "crates/cpu/src/reach_fixture.rs");
    assert_eq!(lines_for(&all, "panic-reachability"), vec![4]);
    let f = all
        .iter()
        .find(|f| f.lint == "panic-reachability")
        .expect("reachability finding");
    assert!(
        f.message.contains("mid_step") && f.message.contains("deep_value"),
        "message should spell out the call chain: {}",
        f.message
    );
    // The direct panic site is still the lexical pass's finding.
    assert_eq!(lines_for(&all, "panic-in-library"), vec![13]);
}

#[test]
fn panic_reachability_allowed_fixture_is_clean() {
    let all = analyze_one("panic_reach_allowed.rs", "crates/cpu/src/reach_fixture.rs");
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn panic_reachability_crosses_crate_boundaries() {
    // A public `sim` entry reaches a panic that lives in `mem`, two hops
    // and one crate boundary away. The lexical pass flags the `mem` site
    // itself (manifest-derived coverage); only the call graph can tie it
    // back to the public `sim` API.
    let files = vec![
        SourceFile {
            rel_path: "crates/sim/src/lib.rs".to_string(),
            src: "#![forbid(unsafe_code)]\n\n\
                  pub fn canary_entry() -> u64 {\n    \
                  canary_mid()\n\
                  }\n\n\
                  fn canary_mid() -> u64 {\n    \
                  tcp_mem::canary_deep() + 1\n\
                  }\n"
            .to_string(),
        },
        SourceFile {
            rel_path: "crates/mem/src/lib.rs".to_string(),
            src: "#![forbid(unsafe_code)]\n\n\
                  pub fn canary_deep() -> u64 {\n    \
                  let v: Option<u64> = None;\n    \
                  v.unwrap()\n\
                  }\n"
            .to_string(),
        },
    ];
    let all = analyze_files(&files);
    let lints: Vec<&str> = all.iter().map(|f| f.lint).collect();
    assert_eq!(
        lints,
        vec!["panic-in-library", "panic-reachability"],
        "findings: {all:?}"
    );
    let f = &all[1];
    assert_eq!(f.path, "crates/sim/src/lib.rs");
    assert_eq!(f.line, 3, "finding anchors at the public entry point");
    assert!(
        f.message.contains("crates/mem/src/lib.rs:5"),
        "message should name the panic site: {}",
        f.message
    );
}

#[test]
fn stat_conservation_fires_on_bad_fixture() {
    let all = analyze_one(
        "stat_conservation_bad.rs",
        "crates/cache/src/stats_fixture.rs",
    );
    assert_eq!(lines_for(&all, "stat-conservation"), vec![5, 6]);
    let hits = all.iter().find(|f| f.line == 5).expect("hits finding");
    assert!(
        hits.message.contains("never read"),
        "hits is write-only: {}",
        hits.message
    );
    let misses = all.iter().find(|f| f.line == 6).expect("misses finding");
    assert!(
        misses.message.contains("never mutated"),
        "misses is read-only: {}",
        misses.message
    );
}

#[test]
fn stat_conservation_allowed_fixture_is_clean() {
    let all = analyze_one(
        "stat_conservation_allowed.rs",
        "crates/cache/src/stats_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn exhaustive_dispatch_fires_on_bad_fixture() {
    let all = analyze_one(
        "exhaustive_dispatch_bad.rs",
        "crates/sim/src/dispatch_fixture.rs",
    );
    assert_eq!(lines_for(&all, "exhaustive-dispatch"), vec![13]);
    let f = &all[0];
    assert!(
        f.message.contains("Closed") && f.message.contains("Locked"),
        "message should list the hidden variants: {}",
        f.message
    );
}

#[test]
fn exhaustive_dispatch_allowed_fixture_is_clean() {
    // Enumerated arms and a wildcard over a #[non_exhaustive] enum.
    let all = analyze_one(
        "exhaustive_dispatch_allowed.rs",
        "crates/sim/src/dispatch_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn discarded_result_fires_on_bad_fixture() {
    let all = analyze_one("discarded_result_bad.rs", "crates/sim/src/flush_fixture.rs");
    assert_eq!(lines_for(&all, "swallowed-error"), vec![9]);
}

#[test]
fn discarded_result_allowed_fixture_is_clean() {
    let all = analyze_one(
        "discarded_result_allowed.rs",
        "crates/sim/src/flush_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn semantic_passes_skip_test_code() {
    // The same bare-statement source under a `tests/` path is a test
    // binary: dropping a Result in a test is not a finding.
    let all = analyze_one(
        "discarded_result_bad.rs",
        "crates/sim/tests/flush_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean in test code, got: {all:?}");
}

#[test]
fn lock_discipline_fires_on_bad_fixture() {
    // Two-function sweep-executor shape: `drain_own` holds its deque
    // guard across a call into `steal_from`, which itself locks; and
    // `requeue` locks deque 0 twice on one path.
    let all = analyze_one("lock_discipline_bad.rs", "crates/sim/src/pool_fixture.rs");
    assert_eq!(lines_for(&all, "lock-discipline"), vec![27, 33]);
    let across = all
        .iter()
        .find(|f| f.lint == "lock-discipline" && f.line == 27)
        .expect("guard-across-call finding");
    assert!(
        across.message.contains("own") && across.message.contains("steal_from"),
        "message should name the guard and the locking callee: {}",
        across.message
    );
    let double = all
        .iter()
        .find(|f| f.lint == "lock-discipline" && f.line == 33)
        .expect("double-lock finding");
    assert!(
        double.message.contains("locked again") || double.message.contains("already"),
        "message should describe the re-lock: {}",
        double.message
    );
}

#[test]
fn lock_discipline_allowed_fixture_is_clean() {
    let all = analyze_one(
        "lock_discipline_allowed.rs",
        "crates/sim/src/pool_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn overflow_provenance_fires_on_bad_fixture() {
    let all = analyze_one(
        "overflow_provenance_bad.rs",
        "crates/cache/src/mix_fixture.rs",
    );
    assert_eq!(lines_for(&all, "overflow-provenance"), vec![6, 7, 8, 13]);
}

#[test]
fn overflow_provenance_allowed_fixture_is_clean() {
    let all = analyze_one(
        "overflow_provenance_allowed.rs",
        "crates/cache/src/mix_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn index_bounds_fires_on_bad_fixture() {
    let all = analyze_one("index_bounds_bad.rs", "crates/cache/src/arena_fixture.rs");
    assert_eq!(lines_for(&all, "index-bounds"), vec![6, 10]);
}

#[test]
fn index_bounds_allowed_fixture_is_clean() {
    let all = analyze_one(
        "index_bounds_allowed.rs",
        "crates/cache/src/arena_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn nondet_taint_fires_on_bad_fixture() {
    let all = analyze_one("nondet_taint_bad.rs", "crates/sim/src/taint_fixture.rs");
    assert_eq!(lines_for(&all, "nondet-taint"), vec![12, 18]);
}

#[test]
fn nondet_taint_allowed_fixture_is_clean() {
    let all = analyze_one("nondet_taint_allowed.rs", "crates/sim/src/taint_fixture.rs");
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn dataflow_passes_skip_test_code() {
    // The same lock-discipline source under a `tests/` path is a test
    // binary: holding a guard across a locking call in a test harness is
    // not a finding.
    let all = analyze_one("lock_discipline_bad.rs", "crates/sim/tests/pool_fixture.rs");
    assert!(all.is_empty(), "expected clean in test code, got: {all:?}");
}

#[test]
fn alloc_in_hot_loop_fires_on_bad_fixture() {
    let all = analyze_one("alloc_hot_loop_bad.rs", "crates/sim/src/alloc_fixture.rs");
    assert_eq!(lines_for(&all, "alloc-in-hot-loop"), vec![14, 15, 17]);
    // The call-site finding spells out the summary chain, proving the
    // allocation was found two calls deep.
    let via = all
        .iter()
        .find(|f| f.lint == "alloc-in-hot-loop" && f.line == 17)
        .expect("summarized-callee finding");
    assert!(
        via.message.contains("`helper`") && via.message.contains("`mid`"),
        "message should spell out the allocation chain: {}",
        via.message
    );
    // Every finding names the loop by its keyword, not a token index.
    for f in all.iter().filter(|f| f.lint == "alloc-in-hot-loop") {
        assert!(f.message.contains("for-loop"), "message: {}", f.message);
    }
}

#[test]
fn alloc_in_hot_loop_allowed_fixture_is_clean() {
    let all = analyze_one(
        "alloc_hot_loop_allowed.rs",
        "crates/sim/src/alloc_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn alloc_in_hot_loop_ignores_cold_crates() {
    // The identical bad source in a non-hot crate (tcp-experiments) is
    // outside the allocation contract.
    let all = analyze_one(
        "alloc_hot_loop_bad.rs",
        "crates/experiments/src/alloc_fixture.rs",
    );
    assert_eq!(lines_for(&all, "alloc-in-hot-loop"), Vec::<u32>::new());
}

#[test]
fn swallowed_error_fires_on_bad_fixture() {
    let all = analyze_one(
        "swallowed_error_bad.rs",
        "crates/sim/src/swallow_fixture.rs",
    );
    assert_eq!(lines_for(&all, "swallowed-error"), vec![10, 11, 24]);
}

#[test]
fn swallowed_error_allowed_fixture_is_clean() {
    let all = analyze_one(
        "swallowed_error_allowed.rs",
        "crates/sim/src/swallow_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn unbounded_growth_fires_on_bad_fixture() {
    let all = analyze_one("unbounded_growth_bad.rs", "crates/sim/src/replay_stream.rs");
    assert_eq!(lines_for(&all, "unbounded-growth-in-stream"), vec![15]);
}

#[test]
fn unbounded_growth_allowed_fixture_is_clean() {
    let all = analyze_one(
        "unbounded_growth_allowed.rs",
        "crates/sim/src/replay_stream.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn unbounded_growth_only_watches_stream_files() {
    // The same source outside a `*stream.rs` file is ordinary struct
    // state, not a streaming residency contract.
    let all = analyze_one("unbounded_growth_bad.rs", "crates/sim/src/replay.rs");
    assert_eq!(
        lines_for(&all, "unbounded-growth-in-stream"),
        Vec::<u32>::new()
    );
}

#[test]
fn guard_across_blocking_call_fires_on_bad_fixture() {
    let all = analyze_one("guard_blocking_bad.rs", "crates/sim/src/pool_fixture.rs");
    assert_eq!(lines_for(&all, "lock-discipline"), vec![21]);
    let f = all
        .iter()
        .find(|f| f.lint == "lock-discipline")
        .expect("blocking finding");
    assert!(
        f.message.contains("recv"),
        "message should name the blocking primitive: {}",
        f.message
    );
}

#[test]
fn guard_across_blocking_call_allowed_fixture_is_clean() {
    let all = analyze_one(
        "guard_blocking_allowed.rs",
        "crates/sim/src/pool_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}

#[test]
fn index_bounds_guard_in_sibling_branch_does_not_count() {
    // Flow sensitivity, pinned as a fixture pair: the same `xs[set * 4
    // + way]` expression fires when its bound evidence sits in a
    // non-dominating sibling branch…
    let all = analyze_one(
        "index_bounds_flow_bad.rs",
        "crates/cache/src/flow_fixture.rs",
    );
    assert_eq!(lines_for(&all, "index-bounds"), vec![10]);
}

#[test]
fn index_bounds_dominating_guard_kills_the_finding() {
    // …and is clean when the comparison is the dominating `if`
    // condition itself.
    let all = analyze_one(
        "index_bounds_flow_allowed.rs",
        "crates/cache/src/flow_fixture.rs",
    );
    assert!(all.is_empty(), "expected clean, got: {all:?}");
}
