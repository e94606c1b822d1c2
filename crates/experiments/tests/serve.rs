//! `tcp-serve` end to end: the binary driven over stdin and files — its
//! result and error lines, memo and store accounting, stderr summary,
//! exit codes, and the cleanup of its ephemeral store.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use tcp_json::Json;

const SERVE: &str = env!("CARGO_BIN_EXE_tcp-serve");

/// A fresh, empty scratch directory for one test.
fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tcp-serve-test-{name}"));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs `tcp-serve args…` with `stdin` piped in. Returns its output and
/// asserts that it left no ephemeral store behind.
fn serve(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(SERVE)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tcp-serve");
    let ephemeral = std::env::temp_dir().join(format!("tcp-serve-{}", child.id()));
    let mut pipe = child.stdin.take().expect("piped stdin");
    if !stdin.is_empty() {
        pipe.write_all(stdin).expect("write requests");
    }
    drop(pipe);
    let out = child.wait_with_output().expect("tcp-serve runs");
    let leaked = ephemeral.exists();
    if leaked {
        fs::remove_dir_all(&ephemeral).expect("remove the leaked store");
    }
    assert!(
        !leaked,
        "{} left behind (args {args:?})",
        ephemeral.display()
    );
    out
}

fn stdout_lines(out: &Output) -> Vec<Json> {
    String::from_utf8(out.stdout.clone())
        .expect("utf-8 stdout")
        .lines()
        .map(|l| tcp_json::parse(l).expect("every output line is JSON"))
        .collect()
}

/// The `tcp-serve: N requests, …` summary line from stderr.
fn summary(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find(|l| l.contains(" requests, "))
        .expect("a summary line")
        .to_owned()
}

fn index_of(line: &Json) -> f64 {
    line.get("index").and_then(Json::as_f64).expect("index")
}

fn error_of(line: &Json) -> &str {
    line.get("error").and_then(Json::as_str).unwrap_or("")
}

#[test]
fn malformed_lines_get_an_error_at_their_own_index() {
    let requests = [
        r#"{"benchmark":"gzip","ops":2000,"prefetcher":"null"}"#,
        r#"not json"#,
        r#"{"benchmark":"nosuch","ops":2000,"prefetcher":"null"}"#,
        r#"{"benchmark":"gzip","ops":2000,"prefetcher":"nosuch"}"#,
        r#"{"benchmark":"gzip","ops":2000,"prefetcher":"null","machine":"nosuch"}"#,
        r#"{"benchmark":"gzip","ops":1.5,"prefetcher":"null"}"#,
        r#"{"benchmark":"gzip","ops":18446744073709551615,"prefetcher":"null"}"#,
        r#"{"benchmark":"swim","ops":2000,"prefetcher":"null"}"#,
    ];
    let out = serve(&["-"], requests.join("\n").as_bytes());
    assert_eq!(out.status.code(), Some(1), "a failed line exits 1");
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), requests.len());
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(index_of(line), i as f64);
    }
    let expected = [
        (1, "invalid JSON"),
        (2, "unknown benchmark"),
        (3, "unknown prefetcher"),
        (4, "unknown machine"),
        (5, "\"ops\" must be a positive integer"),
        (6, "\"ops\""),
    ];
    for (i, needle) in expected {
        assert!(
            error_of(&lines[i]).contains(needle),
            "line {i}: {:?}",
            error_of(&lines[i])
        );
    }
    // The healthy neighbours of the bad lines are answered.
    for i in [0, 7] {
        assert!(lines[i].get("cycles").is_some(), "line {i}");
    }
    assert_eq!(
        summary(&out),
        "tcp-serve: 8 requests, 2 simulated, 0 from store, 0 from memo, 6 failed"
    );
}

#[test]
fn a_repeated_request_is_served_from_memo() {
    let gzip = r#"{"benchmark":"gzip","ops":2000,"prefetcher":"tcp-8k"}"#;
    let swim = r#"{"benchmark":"swim","ops":2000,"prefetcher":"null"}"#;
    let out = serve(&[], format!("{gzip}\n\n{swim}\n{gzip}\n").as_bytes());
    assert_eq!(out.status.code(), Some(0), "a clean batch exits 0");
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 3, "blank lines are not requests");
    assert_eq!(lines[0].get("cycles"), lines[2].get("cycles"));
    assert_eq!(
        summary(&out),
        "tcp-serve: 3 requests, 2 simulated, 0 from store, 1 from memo, 0 failed"
    );
}

#[test]
fn a_second_process_on_the_same_store_simulates_nothing() {
    let dir = test_dir("store");
    let store = dir.join("store");
    let requests = dir.join("requests.jsonl");
    fs::write(
        &requests,
        "{\"benchmark\":\"art\",\"ops\":2000,\"prefetcher\":\"null\"}\n\
         {\"benchmark\":\"art\",\"ops\":2000,\"prefetcher\":\"tcp-8k\"}\n",
    )
    .expect("write requests");
    let args = [
        "--store",
        store.to_str().expect("utf-8 path"),
        "--threads",
        "2",
        requests.to_str().expect("utf-8 path"),
    ];
    let cold = serve(&args, b"");
    assert_eq!(cold.status.code(), Some(0));
    assert_eq!(
        summary(&cold),
        "tcp-serve: 2 requests, 2 simulated, 0 from store, 0 from memo, 0 failed"
    );
    let warm = serve(&args, b"");
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(
        summary(&warm),
        "tcp-serve: 2 requests, 0 simulated, 2 from store, 0 from memo, 0 failed"
    );
    assert_eq!(cold.stdout, warm.stdout, "stored results are bit-identical");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn usage_and_input_errors_exit_2_and_leave_no_store_behind() {
    let dir = test_dir("input-errors");
    let missing = dir.join("missing.jsonl");
    let not_utf8 = dir.join("not-utf8.jsonl");
    fs::write(&not_utf8, b"\xff\xfe\n").expect("write bad input");
    let runs: [(&[&str], &[u8]); 6] = [
        (&["--batch", "0"], b""),
        (&["--threads"], b""),
        (&["a.jsonl", "b.jsonl"], b""),
        (&[missing.to_str().expect("utf-8 path")], b""),
        (&[not_utf8.to_str().expect("utf-8 path")], b""),
        (&["-"], b"\xff\xfe\n"),
    ];
    for (args, stdin) in runs {
        let out = serve(args, stdin);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?}");
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}
