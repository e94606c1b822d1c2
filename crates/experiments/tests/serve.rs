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

/// The request lines of one mixed batch: fresh points, repeats of a
/// point still running (adjacent) and of one long finished (far apart),
/// malformed lines, and points already in the warm store.
fn mixed_requests() -> String {
    let point = |bench: &str, ops: u32, prefetcher: &str| {
        format!(r#"{{"benchmark":"{bench}","ops":{ops},"prefetcher":"{prefetcher}"}}"#)
    };
    [
        point("gzip", 4_000, "tcp-8k"),
        point("gzip", 4_000, "tcp-8k"),
        point("art", 2_000, "null"),
        "not json".to_owned(),
        point("swim", 3_000, "null"),
        point("mcf", 5_000, "tcp-8k"),
        point("art", 2_000, "null"),
        point("gzip", 2_000, "null"),
        r#"{"benchmark":"nosuch","ops":2000,"prefetcher":"null"}"#.to_owned(),
        point("ammp", 2_500, "dbcp-2m"),
        point("swim", 3_000, "null"),
        point("art", 2_000, "tcp-8k"),
        point("gzip", 4_000, "tcp-8k"),
    ]
    .join("\n")
}

#[test]
fn output_does_not_depend_on_threads_or_batch() {
    let dir = test_dir("invariance");
    let warm = dir.join("warm");
    // The first run builds the warm store: two of its points recur in
    // the mixed batch and come back from disk.
    let warm_requests = dir.join("warm.jsonl");
    fs::write(
        &warm_requests,
        "{\"benchmark\":\"gzip\",\"ops\":2000,\"prefetcher\":\"null\"}\n\
         {\"benchmark\":\"art\",\"ops\":2000,\"prefetcher\":\"tcp-8k\"}\n",
    )
    .expect("write warm requests");
    let built = serve(
        &[
            "--store",
            warm.to_str().expect("utf-8 path"),
            warm_requests.to_str().expect("utf-8 path"),
        ],
        b"",
    );
    assert_eq!(built.status.code(), Some(0));
    let warm_store = fs::read(warm.join("store.jsonl")).expect("warm store");
    let requests = dir.join("requests.jsonl");
    fs::write(&requests, mixed_requests()).expect("write requests");

    let mut reference: Option<(Vec<u8>, String, Vec<u8>)> = None;
    for threads in ["1", "2", "4"] {
        for batch in ["1", "8", "1000"] {
            let store = dir.join(format!("store-{threads}-{batch}"));
            fs::create_dir_all(&store).expect("store dir");
            fs::write(store.join("store.jsonl"), &warm_store).expect("copy warm store");
            let out = serve(
                &[
                    "--store",
                    store.to_str().expect("utf-8 path"),
                    "--threads",
                    threads,
                    "--batch",
                    batch,
                    requests.to_str().expect("utf-8 path"),
                ],
                b"",
            );
            assert_eq!(out.status.code(), Some(1), "two malformed lines exit 1");
            let got = (
                out.stdout.clone(),
                summary(&out),
                fs::read(store.join("store.jsonl")).expect("store bytes"),
            );
            match &reference {
                None => {
                    assert_eq!(
                        got.1,
                        "tcp-serve: 13 requests, 5 simulated, 2 from store, 4 from memo, 2 failed"
                    );
                    assert_eq!(stdout_lines(&out).len(), 13);
                    reference = Some(got);
                }
                Some(want) => {
                    let at = format!("--threads {threads} --batch {batch}");
                    assert!(want.0 == got.0, "stdout differs at {at}");
                    assert_eq!(want.1, got.1, "summary differs at {at}");
                    assert!(want.2 == got.2, "store.jsonl differs at {at}");
                }
            }
        }
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_pipe_client_gets_each_answer_without_closing_stdin() {
    let mut child = Command::new(SERVE)
        .args(["--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tcp-serve");
    let ephemeral = std::env::temp_dir().join(format!("tcp-serve-{}", child.id()));
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let (lines, answers) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufRead::lines(std::io::BufReader::new(stdout)) {
            if lines.send(line.expect("utf-8 answer")).is_err() {
                return;
            }
        }
    });
    let timeout = std::time::Duration::from_secs(60);
    for (i, request) in [
        r#"{"benchmark":"gzip","ops":2000,"prefetcher":"null"}"#,
        r#"{"benchmark":"swim","ops":2000,"prefetcher":"tcp-8k"}"#,
    ]
    .iter()
    .enumerate()
    {
        writeln!(stdin, "{request}").expect("send request");
        stdin.flush().expect("flush request");
        let answer = answers
            .recv_timeout(timeout)
            .unwrap_or_else(|e| panic!("request {i} unanswered with stdin open: {e}"));
        let line = tcp_json::parse(&answer).expect("JSON answer");
        assert_eq!(index_of(&line), i as f64);
        assert!(line.get("cycles").is_some(), "{answer}");
    }
    drop(stdin);
    let status = child.wait().expect("tcp-serve exits");
    reader.join().expect("reader thread");
    assert_eq!(status.code(), Some(0));
    assert!(
        answers.try_recv().is_err(),
        "no answer beyond the two requests"
    );
    assert!(!ephemeral.exists(), "{} left behind", ephemeral.display());
}

#[test]
fn a_read_error_answers_every_earlier_request_and_exits_2() {
    let mut stdin = Vec::new();
    stdin.extend_from_slice(b"{\"benchmark\":\"gzip\",\"ops\":2000,\"prefetcher\":\"null\"}\n");
    stdin.extend_from_slice(b"not json\n");
    stdin.extend_from_slice(b"{\"benchmark\":\"art\",\"ops\":2000,\"prefetcher\":\"null\"}\n");
    stdin.extend_from_slice(b"\xff\xfe\n");
    stdin.extend_from_slice(b"{\"benchmark\":\"swim\",\"ops\":2000,\"prefetcher\":\"null\"}\n");
    let out = serve(&["-"], &stdin);
    assert_eq!(out.status.code(), Some(2));
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 3, "the three lines before the unreadable one");
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(index_of(line), i as f64);
    }
    assert!(lines[0].get("cycles").is_some());
    assert!(error_of(&lines[1]).contains("invalid JSON"));
    assert!(lines[2].get("cycles").is_some());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tcp-serve: reading -:"), "{stderr}");
}
