#!/usr/bin/env bash
# Robustness gate: lint the whole workspace at deny-warnings strictness,
# then run the fault-injection acceptance suite and the error-layer unit
# tests. Everything here works offline — the workspace has no external
# dependencies.
#
# Usage: scripts/check-robustness.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo
echo "== tcp-lint (determinism / error-discipline invariants) =="
cargo run --release -q -p tcp-lint -- --workspace

echo
echo "== fault-injection acceptance tests =="
cargo test --test fault_injection

echo
echo "== sweep-engine determinism tests (executor + memo + cross-figure) =="
cargo test --test sweep_engine

echo
echo "== sweep-executor differential suite (streaming executor vs sequential reference) =="
cargo test --test executor_reference

echo
echo "== persistent-store acceptance tests (checkpoint/resume, quarantine, torn appends) =="
cargo test --test store_persistence

echo
echo "== tcp-serve acceptance (error lines, memo/store accounting, exit codes, cleanup,"
echo "   thread/batch invariance, a pipe client without EOF, read errors) =="
cargo test -p tcp-experiments --test serve

echo
echo "== all acceptance (selector output and CSV, usage and TCP_REPRO_OPS errors) =="
cargo test -p tcp-experiments --test all

echo
echo "== store fault-injection demo (every StoreFault quarantined) =="
cargo run --release -q --example store_faults

echo
echo "== chunked-kernel equivalence suite (chunked vs scalar reference) =="
cargo test -p tcp-cache --test kernel_equivalence

echo
echo "== PHT differential suite (PatternHistoryTable vs naive reference PHT) =="
cargo test -p tcp-core --test pht_reference

echo
echo "== TCP differential suite (Tcp vs naive reference TCP over Figure 13's PHTs) =="
cargo test -p tcp-core --test tcp_reference

echo
echo "== MSHR differential suite (MshrFile vs naive reference MSHR file) =="
cargo test -p tcp-cache --test mshr_reference

echo
echo "== scheduler-ring differential test (SchedulerRing vs naive per-cycle map) =="
cargo test -p tcp-cpu --lib scheduler_ring_matches_naive_reference

echo
echo "== scheduler spill golden rows (bookings that spill, are read back and fold) =="
cargo test --release --test golden scheduler_spill_matches_golden_values

echo
echo "== JSON codec differential suite (tcp-json vs its verbatim reference codec) =="
cargo test -p tcp-json --test codec_reference

echo
echo "== census differential suite (Section 3 collectors vs their verbatim map-based reference) =="
cargo test -p tcp-analysis --test census_reference

echo
echo "== streaming-engine acceptance (bit-identity, tenant isolation,"
echo "   bounded-memory run over a synthetic trace >= 4x ring capacity) =="
cargo test --test stream_engine

echo
echo "== lint analyzer robustness properties (the pipeline is total on garbage) =="
cargo test -p tcp-lint --test robustness

echo
echo "== error-layer unit tests (tcp-sim, tcp-cache, tcp-analysis) =="
cargo test -p tcp-sim
cargo test -p tcp-cache error
cargo test -p tcp-analysis trace_io
cargo test -p tcp-analysis trace_stream

echo
echo "robustness gate passed"
