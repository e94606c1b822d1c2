#!/usr/bin/env bash
# Determinism/error-discipline gate: run tcp-lint over the whole
# workspace and fail on any finding, then cap the suppression debt so
# waivers cannot accumulate silently. Fully offline — tcp-lint is a
# zero-dependency workspace binary.
#
# Usage:
#   scripts/check-lint.sh                 lint the workspace (the CI gate)
#   scripts/check-lint.sh --inject-check  additionally prove the gate has
#                                         teeth: temporarily inject one
#                                         violation per lint family —
#                                         including *transitive* effects
#                                         (a panic chain that crosses a
#                                         crate boundary, an allocation
#                                         two calls deep) — and require
#                                         tcp-lint to reject each
set -euo pipefail
cd "$(dirname "$0")/.."

# Raising this number is a reviewed decision: each waiver is a documented
# exception to the determinism/error-discipline rules, and the ceiling
# keeps the debt visible in the diff of this script.
MAX_WAIVERS=20

INJECT_CHECK=0
for arg in "$@"; do
  case "$arg" in
    --inject-check) INJECT_CHECK=1 ;;
    *)
      echo "usage: scripts/check-lint.sh [--inject-check]" >&2
      exit 2
      ;;
  esac
done

# Full-workspace analysis (one pipeline: lexing and parsing each file
# once, the symbol table and call graph, effect propagation over the
# call graph's SCCs, and per-function CFG dataflow fixpoints) must stay
# interactive: the lint gate runs on every push, and a pass that creeps
# past this budget is a perf regression in the analyzer itself, not a
# reason to wait longer. The measured run is well under a second; the
# per-stage tcp-perf cases (lint_parse / lint_semantic / lint_dataflow)
# say which stage to blame when this trips.
ANALYSIS_BUDGET_SECS=20

echo "== tcp-lint (workspace) =="
cargo build --release -q -p tcp-lint
ANALYSIS_START=$(date +%s)
cargo run --release -q -p tcp-lint -- --workspace
ANALYSIS_ELAPSED=$(( $(date +%s) - ANALYSIS_START ))
if (( ANALYSIS_ELAPSED > ANALYSIS_BUDGET_SECS )); then
  echo "FAIL: workspace analysis took ${ANALYSIS_ELAPSED}s, over the ${ANALYSIS_BUDGET_SECS}s budget; profile tcp-lint before raising the budget" >&2
  exit 1
fi
echo "workspace analysis in ${ANALYSIS_ELAPSED}s (budget ${ANALYSIS_BUDGET_SECS}s)"

echo
echo "== tcp-lint suppression debt =="
WAIVERS=$(cargo run --release -q -p tcp-lint -- --waivers)
echo "$WAIVERS"
TOTAL=$(echo "$WAIVERS" | sed -n 's/^total: \([0-9]*\) waivers$/\1/p')
STALE=$(echo "$WAIVERS" | sed -n 's/^stale: \([0-9]*\) waivers$/\1/p')
if [[ -z "$TOTAL" || -z "$STALE" ]]; then
  echo "FAIL: could not parse the waiver total/stale counts" >&2
  exit 1
fi
# A stale waiver is debt twice over: it still reads as an exception, and
# it no longer suppresses anything — so it counts double against the cap
# until someone deletes it.
EFFECTIVE=$(( TOTAL + STALE ))
if (( EFFECTIVE > MAX_WAIVERS )); then
  echo "FAIL: effective waiver debt $EFFECTIVE ($TOTAL waivers + $STALE stale) exceeds the cap of $MAX_WAIVERS; delete stale waivers and fix findings instead of waiving them (or raise the cap in this script with review)" >&2
  exit 1
fi
echo "waiver debt $EFFECTIVE/$MAX_WAIVERS ($TOTAL waivers, $STALE stale)"

if [[ "$INJECT_CHECK" == 1 ]]; then
  SIM=crates/sim/src/lib.rs
  MEM=crates/mem/src/lib.rs
  STREAM=crates/sim/src/stream.rs
  SIM_BACKUP=$(mktemp)
  MEM_BACKUP=$(mktemp)
  STREAM_BACKUP=$(mktemp)
  cp "$SIM" "$SIM_BACKUP"
  cp "$MEM" "$MEM_BACKUP"
  cp "$STREAM" "$STREAM_BACKUP"
  restore() {
    cp "$SIM_BACKUP" "$SIM"
    cp "$MEM_BACKUP" "$MEM"
    cp "$STREAM_BACKUP" "$STREAM"
    rm -f "$SIM_BACKUP" "$MEM_BACKUP" "$STREAM_BACKUP"
  }
  trap restore EXIT

  # inject <lint-name>: the injected source is on stdin and has been
  # appended to the target file(s) already; run the gate and require it
  # to reject with the named lint, then restore the tree.
  expect_reject() {
    local lint="$1"
    local out
    if out=$(cargo run --release -q -p tcp-lint -- --workspace 2>&1); then
      echo "FAIL: tcp-lint accepted an injected $lint violation" >&2
      exit 1
    fi
    if ! grep -q "\[$lint\]" <<<"$out"; then
      echo "FAIL: injected violation rejected, but not by $lint:" >&2
      echo "$out" >&2
      exit 1
    fi
    cp "$SIM_BACKUP" "$SIM"
    cp "$MEM_BACKUP" "$MEM"
    cp "$STREAM_BACKUP" "$STREAM"
    echo "injected $lint violation rejected, as it must be"
  }

  echo
  echo "== tcp-lint self-check: injected violations must fail the gate =="

  # 1. File-local rows, represented by a wall-clock read in a sim crate.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary() -> std::time::Instant {
    std::time::Instant::now()
}
EOF
  expect_reject wall-clock-in-sim

  # 2. Transitive panic-reachability: the panic lives in `mem`, two
  #    calls and one crate boundary away from a public `sim` entry
  #    point. Only the panic effect propagated over the call graph can
  #    connect the two.
  cat >>"$MEM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_deep() -> u64 {
    let v: Option<u64> = None;
    v.expect("injected canary")
}
EOF
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_entry() -> u64 {
    lint_canary_mid()
}

fn lint_canary_mid() -> u64 {
    tcp_mem::lint_canary_deep() + 1
}
EOF
  expect_reject panic-reachability

  # 3. Exhaustive dispatch: a `_` arm on a closed simulator enum.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_dispatch(r: &tcp_cache::Replacement) -> u64 {
    match r {
        tcp_cache::Replacement::Lru => 0,
        _ => 1,
    }
}
EOF
  expect_reject exhaustive-dispatch

  # 4. Stat conservation: a counter that is bumped but never reported.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub struct LintCanaryStats {
    pub lint_canary_counter: u64,
}

pub fn lint_canary_bump(s: &mut LintCanaryStats) {
    s.lint_canary_counter += 1;
}
EOF
  expect_reject stat-conservation

  # 5. Swallowed error, bare-statement shape: a Result-returning call
  #    dropped as a statement.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
fn lint_canary_fallible() -> Result<u64, u8> {
    Ok(0)
}

pub fn lint_canary_drop() {
    lint_canary_fallible();
}
EOF
  expect_reject swallowed-error

  # 6. Lock discipline, lock effect: a guard held across a call into a
  #    same-file helper that itself locks — the sweep-executor deadlock
  #    shape.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub struct LintCanaryPool {
    queue: std::sync::Mutex<Vec<u64>>,
    side: std::sync::Mutex<Vec<u64>>,
}

impl LintCanaryPool {
    fn lint_canary_refill(&self) {
        let mut s = self.side.lock().unwrap_or_else(|p| p.into_inner());
        s.push(1);
    }

    pub fn lint_canary_drain(&self) -> Option<u64> {
        let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        self.lint_canary_refill();
        q.pop()
    }
}
EOF
  expect_reject lock-discipline

  # 7. Overflow provenance: bare `+` on two tagged u64s.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_overflow(cycle: u64, addr: u64) -> u64 {
    cycle + addr
}
EOF
  expect_reject overflow-provenance

  # 8. Index bounds: a composite arena index with no bound evidence.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_index(entries: &[u64], set_base: usize, way: usize) -> u64 {
    entries[set_base * 8 + way]
}
EOF
  expect_reject index-bounds

  # 9. Nondeterminism taint: a worker-identity value returned as a result.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_taint(worker: usize) -> usize {
    let chosen = worker + 1;
    return chosen;
}
EOF
  expect_reject nondet-taint

  # 10. Alloc in hot loop, hidden two calls deep: the allocation lives
  #     in `mem`, behind a same-crate shim, and only the propagated
  #     allocation effect can carry it back to the cycle loop.
  cat >>"$MEM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_alloc_deep(seed: u64) -> u64 {
    let scratch: Vec<u64> = Vec::with_capacity(4);
    (scratch.capacity() as u64).wrapping_add(seed)
}
EOF
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub fn lint_canary_alloc_entry(cycles: u64) -> u64 {
    let mut acc = 0u64;
    for cycle in 0..cycles {
        acc = acc.wrapping_add(lint_canary_alloc_mid(cycle));
    }
    acc
}

fn lint_canary_alloc_mid(seed: u64) -> u64 {
    tcp_mem::lint_canary_alloc_deep(seed)
}
EOF
  expect_reject alloc-in-hot-loop

  # 11. Swallowed error, wildcard shape: a workspace Result bound to
  #     `_`, so the Err leg vanishes without a counter bump or a
  #     propagation.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
fn lint_canary_swallow_src() -> Result<u64, u8> {
    Ok(1)
}

pub fn lint_canary_swallow() {
    let _ = lint_canary_swallow_src();
}
EOF
  expect_reject swallowed-error

  # 12. Unbounded growth in a stream file: a collection field pushed in
  #     a loop with no pop/drain/truncate relief anywhere in the file.
  cat >>"$STREAM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub struct LintCanaryStream {
    canary_backlog: Vec<u64>,
}

impl LintCanaryStream {
    pub fn lint_canary_ingest(&mut self, chunk: &[u64]) {
        for v in chunk {
            self.canary_backlog.push(*v);
        }
    }
}
EOF
  expect_reject unbounded-growth-in-stream

  # 13. Lock discipline, block effect: the lock is held while the
  #     callee's effect says it parks in a channel recv.
  cat >>"$SIM" <<'EOF'

/// Canary injected by scripts/check-lint.sh --inject-check.
pub struct LintCanaryBlockPool {
    jobs: std::sync::Mutex<Vec<u64>>,
    rx: std::sync::mpsc::Receiver<u64>,
}

impl LintCanaryBlockPool {
    fn lint_canary_take(&self) -> u64 {
        self.rx.recv().unwrap_or(0)
    }

    pub fn lint_canary_wait(&self) -> u64 {
        let guard = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let next = self.lint_canary_take();
        guard.len().wrapping_add(next as usize) as u64
    }
}
EOF
  expect_reject lock-discipline
fi

echo
echo "lint gate passed"
