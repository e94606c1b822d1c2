//! `all` end to end, over the paths that simulate nothing: a selector's
//! exact output and CSV, the usage and unknown-benchmark errors, and the
//! `TCP_REPRO_OPS` check.

use std::fs;
use std::process::{Command, Output};

use tcp_experiments::report::output_dir;
use tcp_experiments::table1;
use tcp_sim::SystemConfig;

const ALL: &str = env!("CARGO_BIN_EXE_all");

/// Every selector the usage line must name.
const SELECTORS: [&str; 17] = [
    "table1", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig09", "fig11",
    "fig12", "fig13", "fig14", "fig15", "sec6", "ablate", "inspect",
];

/// Runs `all args…` with `TCP_REPRO_OPS` pinned, so the caller's
/// environment cannot change the run, and small, so a path that wrongly
/// simulates stays short.
fn all(args: &[&str]) -> Output {
    all_with_ops(args, "1000")
}

fn all_with_ops(args: &[&str], ops: &str) -> Output {
    Command::new(ALL)
        .args(args)
        .env("TCP_REPRO_OPS", ops)
        .output()
        .expect("spawn all")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

#[test]
fn table1_prints_exactly_the_table_and_writes_its_csv() {
    let csv = output_dir().join("table1.csv");
    if let Err(e) = fs::remove_file(&csv) {
        assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "clear {csv:?}: {e}");
    }
    let out = all(&["table1"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let table = table1::render(&SystemConfig::table1());
    assert_eq!(text(&out.stdout), table.render());
    assert_eq!(text(&out.stderr), "");
    assert_eq!(
        fs::read_to_string(&csv).expect("table1.csv written"),
        table.to_csv()
    );
}

#[test]
fn fig09_prints_the_tcp_8k_and_the_tcp_8m_walkthrough() {
    let out = all(&["fig09"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // Per PHT: a header, six steps, a blank line.
    assert_eq!(lines.len(), 16, "{stdout}");
    assert_eq!(lines[0], "== Figure 9 indexing walkthrough: TCP-8K PHT ==");
    assert_eq!(lines[8], "== Figure 9 indexing walkthrough: TCP-8M PHT ==");
    for block in [&lines[1..8], &lines[9..16]] {
        assert!(block[..6].iter().all(|l| l.starts_with("  ")), "{block:?}");
        assert!(block[4].trim_start().starts_with("PHT set"), "{block:?}");
        assert_eq!(block[6], "");
    }
}

#[test]
fn an_unknown_selector_or_an_extra_argument_prints_the_usage_and_exits_2() {
    for args in [
        &["fig08"][..],
        &["table1", "extra"],
        &["inspect", "art", "extra"],
    ] {
        let out = all(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?}");
        let stderr = text(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "one usage line: {stderr}");
        assert!(stderr.starts_with("usage: all "), "{stderr}");
        for s in SELECTORS {
            assert!(stderr.contains(s), "usage names {s}: {stderr}");
        }
    }
}

#[test]
fn inspect_of_an_unknown_benchmark_exits_1() {
    let out = all(&["inspect", "nosuch"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert!(
        text(&out.stderr).contains("unknown benchmark nosuch"),
        "{}",
        text(&out.stderr)
    );
}

#[test]
fn a_malformed_ops_variable_exits_2_naming_it() {
    for ops in ["4e6", "1_000_000", "0", ""] {
        let out = all_with_ops(&["table1"], ops);
        assert_eq!(out.status.code(), Some(2), "TCP_REPRO_OPS={ops:?}");
        assert!(out.stdout.is_empty(), "TCP_REPRO_OPS={ops:?}");
        let stderr = text(&out.stderr);
        assert!(stderr.contains("TCP_REPRO_OPS"), "{stderr}");
    }
}
