# Task runner for the TCP reproduction. Everything below works offline;
# targets that need crates.io (proptests, benches) say so.

# Build + run the tier-1 test suite (what CI gates on).
default: test

# The exact CI gate sequence, in CI order, so local runs and ci.yml
# cannot drift: build, tier-1 tests (the whole workspace, via the root
# manifest's default-members), formatting, clippy, tcp-lint (with the
# injected-violation self-check), the robustness gate, and the smoke
# perf gate against the committed baseline.
ci:
    cargo build --release
    cargo test -q
    cargo fmt --all --check
    cargo clippy --workspace -- -D warnings
    scripts/check-lint.sh --inject-check
    scripts/check-robustness.sh
    scripts/check-perf.sh --smoke

# Release build of the whole workspace.
build:
    cargo build --release --workspace

# Tier-1 tests: every workspace member's unit, doc, and integration tests.
test:
    cargo test -q

# Every workspace crate's unit + doc tests.
test-all:
    cargo test --workspace

# Lint gate: the whole workspace must be clippy-clean at -D warnings.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Determinism/error-discipline gate: tcp-lint over the whole workspace.
lint-tcp:
    scripts/check-lint.sh

# Robustness gate: clippy + tcp-lint + fault-injection + error-layer tests.
check-robustness:
    scripts/check-robustness.sh

# Full-size benchmark run: writes BENCH.json for before/after comparisons.
perf:
    cargo run --release -p tcp-perf

# Reduced-size benchmark run (seconds; what CI's perf job executes).
perf-smoke:
    cargo run --release -p tcp-perf -- --smoke

# Perf regression gate: smoke run compared against bench/baseline.json.
check-perf:
    scripts/check-perf.sh

# Refresh the committed perf baseline from this machine.
perf-baseline:
    scripts/check-perf.sh --update

# Fault-injection demo (panicking benchmark, wedged machine, corrupted traces).
demo-faults:
    cargo run --release --example fault_injection

# Sweep-engine demo: shared-engine figures, bit-identity check, memo savings.
demo-sweep:
    cargo run --release --example sweep_report

# Store fault-injection demo: every StoreFault quarantined, sweep recovers.
demo-store-faults:
    cargo run --release --example store_faults

# Streaming-engine demo: bounded-memory replay, bit-identity, tenant mux.
demo-stream:
    cargo run --release --example stream_demo

# Batch sweep service demo: requests on stdin, persistent store, streamed results.
demo-serve:
    printf '%s\n' \
        '{"benchmark":"gzip","ops":50000,"prefetcher":"null"}' \
        '{"benchmark":"gzip","ops":50000,"prefetcher":"tcp-8k"}' \
        '{"benchmark":"ammp","ops":50000,"prefetcher":"tcp-8k"}' \
        '{"benchmark":"ammp","ops":50000,"prefetcher":"dbcp-2m"}' \
        | cargo run --release -p tcp-experiments --bin tcp-serve -- -

# Regenerate every table and figure.
figures:
    cargo run --release -p tcp-experiments --bin all

# Property tests — standalone package, needs crates.io for proptest.
proptest:
    cargo test --manifest-path proptests/Cargo.toml

# Criterion micro-benchmarks — standalone package, needs crates.io.
bench:
    cargo bench --manifest-path crates/bench/Cargo.toml
