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
echo "== persistent-store acceptance tests (checkpoint/resume + quarantine) =="
cargo test --test store_persistence

echo
echo "== tcp-serve acceptance (error lines, memo/store accounting, exit codes, cleanup) =="
cargo test -p tcp-experiments --test serve

echo
echo "== store fault-injection demo (every StoreFault quarantined) =="
cargo run --release -q --example store_faults

echo
echo "== chunked-kernel equivalence suite (chunked vs scalar reference) =="
cargo test -p tcp-cache --test kernel_equivalence

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
