//! Intra-procedural dataflow engine for the tcp-lint dataflow rows.
//!
//! Each parsed function body is lowered into a list of assignment
//! statements (`let` bindings and plain `name = …` / `name op= …`
//! re-assignments, discovered at every nesting depth), and an abstract
//! environment is iterated to fixpoint over them:
//!
//! - **Provenance tags** — a small bitset recording where a value came
//!   from: cycle counters, addresses, cache tags, stat counters, lock
//!   guards, loop indices, worker/thread identity. Tags seed from
//!   parameter and binder *names* (exact snake_case components, so
//!   `stage` never reads as `tag`) and then flow through assignments:
//!   the binder's tags become the union of its own seed and the tags of
//!   every identifier appearing in the right-hand side *outside* index
//!   brackets. Container contents are not their index — `deques[worker]`
//!   taints nothing — which is what keeps a deterministic executor's
//!   per-worker state clean.
//!
//! On top of the fixpoint environment the engine extracts the *fact
//! lists* the dataflow rows consume: live `Mutex`-guard ranges and
//! `.lock()` call sites (lock-discipline), tagged unchecked arithmetic
//! (overflow-provenance), unguarded composite index expressions
//! (index-bounds), and worker-identity values reaching returns or stat
//! fields (nondet-taint).
//!
//! The conservatism rule of the whole linter applies here unchanged: no
//! edge/no tag ⇒ no finding. Patterns the lowering cannot follow
//! (destructuring `let`, `if let` guards, trailing-expression data flow
//! through nested blocks) degrade to "no facts", i.e. under-reporting,
//! never to invented findings.

use crate::ast::{BodyFacts, Callee, FnDef};
use crate::cfg::Cfg;
use crate::lexer::{
    is_ident, is_open, is_punct, matching, starts_statement, stmt_end, TokKind, Token,
};
use std::collections::BTreeMap;

/// Provenance tag bitset.
pub type Tags = u8;

/// Value derives from a cycle counter.
pub const TAG_CYCLE: Tags = 1 << 0;
/// Value derives from a memory address.
pub const TAG_ADDR: Tags = 1 << 1;
/// Value derives from a cache tag.
pub const TAG_TAG: Tags = 1 << 2;
/// Value derives from a statistics counter.
pub const TAG_STAT: Tags = 1 << 3;
/// Value derives from worker/thread identity (scheduling-dependent).
pub const TAG_WORKER: Tags = 1 << 4;
/// Value is a lock guard.
pub const TAG_GUARD: Tags = 1 << 5;
/// Value is a loop index.
pub const TAG_LOOP: Tags = 1 << 6;

/// The tags that make unchecked arithmetic a finding.
const ARITH_TAGS: Tags = TAG_CYCLE | TAG_ADDR | TAG_TAG | TAG_STAT;

/// A `let`-bound lock guard and the token range it is live over.
#[derive(Debug)]
pub struct GuardRange {
    /// Binder name.
    pub name: String,
    /// 1-based line of the binder.
    pub line: u32,
    /// Normalized receiver text of the `.lock()` that made the guard
    /// (`m`, `self.deques[victim]`, …) — textual identity, so distinct
    /// index expressions never alias.
    pub mutex: String,
    /// Token index where the guard becomes live (just past the `;`).
    pub start: usize,
    /// Token index where the guard dies: `drop(name)` or the `}` of the
    /// enclosing block.
    pub end: usize,
}

/// One `.lock()` call site in the body.
#[derive(Debug)]
pub struct LockSite {
    /// 1-based line of the `lock` token.
    pub line: u32,
    /// 1-based column of the `lock` token.
    pub col: u32,
    /// Normalized receiver text.
    pub recv: String,
    /// Token index of the argument list's `(`.
    pub paren_open: usize,
}

/// A violating site found by one of the intra-procedural passes.
#[derive(Debug)]
pub struct Violation {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description (the finding message body).
    pub what: String,
}

/// Everything the dataflow engine learned about one function body.
#[derive(Debug, Default)]
pub struct FnFlow {
    /// Fixpoint provenance environment: identifier → tags.
    pub tags: BTreeMap<String, Tags>,
    /// Live `let`-bound lock-guard ranges.
    pub guards: Vec<GuardRange>,
    /// Every `.lock()` call site.
    pub locks: Vec<LockSite>,
    /// overflow-provenance violations.
    pub overflow: Vec<Violation>,
    /// index-bounds violations.
    pub index: Vec<Violation>,
    /// nondet-taint violations.
    pub taint: Vec<Violation>,
}

/// One lowered assignment statement.
struct Assign {
    /// Bound/assigned identifier.
    binder: String,
    /// RHS token range (start inclusive, end exclusive).
    rhs: (usize, usize),
}

/// Whether a name is const/type-like (contains an uppercase letter):
/// `L1_SIZE` or `TAG_WORKER` is compile-time configuration, not a
/// runtime counter, so it neither seeds provenance nor counts as a
/// runtime operand.
fn const_like(name: &str) -> bool {
    name.chars().any(|c| c.is_ascii_uppercase())
}

/// Keywords the lexer reports as `Ident` tokens; never value operands.
fn keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "else"
            | "while"
            | "for"
            | "in"
            | "return"
            | "match"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "loop"
            | "break"
            | "continue"
            | "as"
            | "where"
            | "fn"
            | "impl"
            | "use"
            | "pub"
    )
}

/// Provenance seed from an identifier's name: exact snake_case
/// components only, so `stage` does not read as `tag` and `n_workers`
/// (a thread *count*, which is configuration) does not read as worker
/// identity. Const/type-like names never seed.
pub fn seed_tags(name: &str) -> Tags {
    if const_like(name) {
        return 0;
    }
    let lower = name.to_ascii_lowercase();
    if lower == "tid" || lower == "thread_id" {
        return TAG_WORKER;
    }
    let mut tags = 0;
    for part in lower.split('_') {
        tags |= match part {
            "cycle" | "cycles" => TAG_CYCLE,
            "addr" | "addrs" | "address" => TAG_ADDR,
            "tag" | "tags" => TAG_TAG,
            "stat" | "stats" => TAG_STAT,
            "worker" => TAG_WORKER,
            _ => 0,
        };
    }
    tags
}

/// Assignment operators that keep the binder's prior tags (`op=`) or
/// replace them (`=`) — for tag joining both behave the same, since the
/// environment is a per-name join over all paths anyway.
const ASSIGN_OPS: [&str; 11] = [
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Runs the engine over one function body; `None` when the function
/// has no body. `call_tags` maps a call site's `(` token index
/// to the provenance tags the callee returns (from the interprocedural
/// summaries) — an assignment whose RHS contains such a call seeds the
/// binder with those tags, so taint and overflow provenance survive
/// function boundaries. With `full == false` only the environment and
/// lock facts are computed (the cheap phase the summary pass needs);
/// the violation passes and the CFG are skipped.
pub fn analyze_with(
    toks: &[Token],
    in_test: &[bool],
    def: &FnDef,
    call_tags: &BTreeMap<usize, Tags>,
    full: bool,
) -> Option<FnFlow> {
    let body = def.body.as_ref()?;
    let mut flow = FnFlow::default();

    // ---- Seed: parameters and their names. -------------------------
    for p in &def.params {
        let entry = flow.tags.entry(p.clone()).or_insert(0);
        *entry |= seed_tags(p);
    }

    // ---- Lower: assignment statements and loop binders. ------------
    let assigns = collect_assigns(toks, body, &mut flow);

    // ---- Fixpoint over the tag environment. --------------------------
    // A linear pass can miss chains that appear in reverse source
    // order (`a = b; let b = cycle;` in a loop), so iterate until
    // stable; the domain is finite and joins are monotone, so this
    // terminates — the cap is a belt against pathological inputs.
    for _ in 0..10 {
        let mut changed = false;
        for a in &assigns {
            let mut rhs_tags = span_tags(toks, a.rhs.0, a.rhs.1, &flow.tags);
            for (_, t) in call_tags.range(a.rhs.0..a.rhs.1) {
                rhs_tags |= t;
            }
            let want = seed_tags(&a.binder) | rhs_tags;
            let entry = flow.tags.entry(a.binder.clone()).or_insert(0);
            if *entry | want != *entry {
                *entry |= want;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- Fact extraction on the stable environment. ----------------
    collect_locks(toks, body, &mut flow);
    collect_guards(toks, body, &mut flow);
    if full {
        overflow_pass(toks, in_test, body, &mut flow);
        index_pass(toks, in_test, body, &Cfg::build(toks, body), &mut flow);
        taint_pass(toks, in_test, body, call_tags, &mut flow);
    }
    Some(flow)
}

/// Provenance tags of a body's returned values: the union over every
/// `return` statement's expression and a simple trailing expression
/// (one with no nested block — a braced tail would over-taint, so it
/// contributes nothing, per the under-matching contract). `call_rets`
/// adds the return tags of summarized calls appearing in those spans.
pub fn return_tags(
    toks: &[Token],
    body: &BodyFacts,
    flow: &FnFlow,
    call_rets: &BTreeMap<usize, Tags>,
) -> Tags {
    let mut tags = 0;
    let mut i = body.open + 1;
    while i < body.close {
        if is_ident(&toks[i], "return") && !(i > 0 && is_punct(&toks[i - 1], ".")) {
            let end = stmt_end(toks, i + 1, body.close);
            tags |= span_tags(toks, i + 1, end, &flow.tags);
            for (_, t) in call_rets.range(i + 1..end) {
                tags |= t;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    // Trailing expression: whatever follows the last statement
    // boundary (a depth-zero `;`, or the `}` of a braced statement).
    let mut tail_start = body.open + 1;
    let mut j = body.open + 1;
    while j < body.close {
        let t = &toks[j];
        if is_punct(t, ";") {
            j += 1;
            tail_start = j;
            continue;
        }
        if is_open(t) {
            let c = matching(toks, j).unwrap_or(body.close);
            let braced = is_punct(t, "{");
            j = c + 1;
            if braced && j <= body.close {
                tail_start = j;
            }
            continue;
        }
        j += 1;
    }
    let tail = &toks[tail_start..body.close.min(toks.len())];
    if !tail.is_empty() && !tail.iter().any(|t| is_punct(t, "{")) {
        tags |= span_tags(toks, tail_start, body.close, &flow.tags);
        for (_, t) in call_rets.range(tail_start..body.close) {
            tags |= t;
        }
    }
    tags
}

/// Finds every assignment statement in the body, at any nesting depth
/// (closure and block bodies included), and seeds loop binders.
fn collect_assigns(toks: &[Token], body: &BodyFacts, flow: &mut FnFlow) -> Vec<Assign> {
    let mut out = Vec::new();
    let mut i = body.open + 1;
    while i < body.close {
        let t = &toks[i];
        // `for binder in …` — the binder is a loop index.
        if is_ident(t, "for")
            && !(i > 0 && is_punct(&toks[i - 1], "."))
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
        {
            let binder = &toks[i + 1];
            if toks.get(i + 2).is_some_and(|n| is_ident(n, "in")) {
                let e = flow.tags.entry(binder.text.clone()).or_insert(0);
                *e |= TAG_LOOP | seed_tags(&binder.text);
            }
        }
        // `let [mut] name [: ty] = rhs ;`
        if is_ident(t, "let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| is_ident(n, "mut")) {
                j += 1;
            }
            let Some(binder) = toks.get(j) else {
                break;
            };
            if binder.kind == TokKind::Ident
                && toks
                    .get(j + 1)
                    .is_some_and(|n| is_punct(n, ":") || is_punct(n, "="))
            {
                let mut k = j + 1;
                if is_punct(&toks[k], ":") {
                    // Skip the type annotation to the `=` (or give up
                    // at `;` — `let x: T;` has no RHS).
                    k += 1;
                    while k < body.close && !is_punct(&toks[k], "=") && !is_punct(&toks[k], ";") {
                        if is_open(&toks[k]) {
                            k = matching(toks, k).map_or(body.close, |c| c + 1);
                        } else {
                            k += 1;
                        }
                    }
                }
                if k < body.close && is_punct(&toks[k], "=") {
                    let rhs_start = k + 1;
                    let rhs_end = stmt_end(toks, rhs_start, body.close);
                    out.push(Assign {
                        binder: binder.text.clone(),
                        rhs: (rhs_start, rhs_end),
                    });
                }
            }
            i += 1;
            continue;
        }
        // Re-assignment at a statement start: `name = rhs ;` (but not
        // `name = = …`) or `name op= rhs ;`.
        let assign_op = toks
            .get(i + 1)
            .filter(|n| n.kind == TokKind::Punct && ASSIGN_OPS.contains(&n.text.as_str()));
        if t.kind == TokKind::Ident
            && starts_statement(toks, i)
            && assign_op.is_some_and(|op| {
                op.text != "=" || !toks.get(i + 2).is_some_and(|n| is_punct(n, "="))
            })
        {
            let rhs_start = i + 2;
            let rhs_end = stmt_end(toks, rhs_start, body.close);
            out.push(Assign {
                binder: t.text.clone(),
                rhs: (rhs_start, rhs_end),
            });
        }
        i += 1;
    }
    out
}

/// Union of tags over identifiers in `[start, end)` that sit *outside*
/// index brackets — a container's contents do not carry its index's
/// provenance.
fn span_tags(toks: &[Token], start: usize, end: usize, env: &BTreeMap<String, Tags>) -> Tags {
    let mut tags = 0;
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        if is_punct(t, "[") {
            i = matching(toks, i).map_or(end, |c| c + 1);
            continue;
        }
        if t.kind == TokKind::Ident {
            tags |= seed_tags(&t.text) | env.get(&t.text).copied().unwrap_or(0);
        }
        i += 1;
    }
    tags
}

/// Whether a worker-tainted identifier appears in `[start, end)`
/// outside index brackets; returns its name.
fn tainted_ident_in(
    toks: &[Token],
    start: usize,
    end: usize,
    env: &BTreeMap<String, Tags>,
) -> Option<String> {
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        if is_punct(t, "[") {
            i = matching(toks, i).map_or(end, |c| c + 1);
            continue;
        }
        if t.kind == TokKind::Ident {
            let tags = seed_tags(&t.text) | env.get(&t.text).copied().unwrap_or(0);
            if tags & TAG_WORKER != 0 {
                return Some(t.text.clone());
            }
        }
        i += 1;
    }
    None
}

/// Records every `.lock()` call with its normalized receiver text.
fn collect_locks(toks: &[Token], body: &BodyFacts, flow: &mut FnFlow) {
    for c in &body.calls {
        let Callee::Method { name, .. } = &c.callee else {
            continue;
        };
        if name != "lock" {
            continue;
        }
        // Receiver: everything from the expression start up to the `.`
        // before the method name (the name sits right before the `(`).
        let name_idx = c.paren_open.saturating_sub(1);
        let dot_idx = name_idx.saturating_sub(1);
        let recv: String = toks[c.expr_start..dot_idx]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join("");
        flow.locks.push(LockSite {
            line: c.line,
            col: c.col,
            recv,
            paren_open: c.paren_open,
        });
    }
}

/// Finds `let [mut] g = ….lock()…;` statements and computes the token
/// range over which the guard is live: to `drop(g)` in the same block,
/// or to the `}` closing the enclosing block.
fn collect_guards(toks: &[Token], body: &BodyFacts, flow: &mut FnFlow) {
    let mut i = body.open + 1;
    while i < body.close {
        if !is_ident(&toks[i], "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| is_ident(n, "mut")) {
            j += 1;
        }
        let Some(binder) = toks.get(j) else { break };
        if !(binder.kind == TokKind::Ident && toks.get(j + 1).is_some_and(|n| is_punct(n, "="))) {
            i += 1;
            continue;
        }
        let rhs_start = j + 2;
        let rhs_end = stmt_end(toks, rhs_start, body.close);
        // Is there a `.lock(` in the RHS? Use the collected lock sites
        // so the receiver text comes out normalized the same way.
        let lock = flow
            .locks
            .iter()
            .find(|l| l.paren_open > rhs_start && l.paren_open < rhs_end);
        if let Some(lock) = lock {
            let start = rhs_end + 1;
            let end = guard_end(toks, &binder.text, start, body.close);
            flow.guards.push(GuardRange {
                name: binder.text.clone(),
                line: binder.line,
                mutex: lock.recv.clone(),
                start,
                end,
            });
            let e = flow.tags.entry(binder.text.clone()).or_insert(0);
            *e |= TAG_GUARD;
        }
        i = rhs_end + 1;
    }
}

/// Where a guard bound at statement end `start` dies: at `drop(name)`
/// or at the first `}` that closes a block opened before the binding.
fn guard_end(toks: &[Token], name: &str, start: usize, close: usize) -> usize {
    let mut i = start;
    while i < close {
        let t = &toks[i];
        if is_ident(t, "drop")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "("))
            && toks.get(i + 2).is_some_and(|n| is_ident(n, name))
            && toks.get(i + 3).is_some_and(|n| is_punct(n, ")"))
        {
            return i;
        }
        if is_open(t) {
            i = matching(toks, i).map_or(close, |c| c + 1);
            continue;
        }
        if is_punct(t, "}") {
            return i;
        }
        i += 1;
    }
    close
}

/// overflow-provenance: unchecked `+`/`*`/`<<` where provenance-tagged
/// operands make wraparound a real hazard. `+` needs both operands
/// tagged (a `cycle + 1` tick is reviewable at sight); `*` fires with a
/// tagged operand unless the other side is a literal constant (a
/// reviewable scale factor); `<<` fires whenever the shifted value is
/// tagged — a shift of a tagged u64 discards high bits silently.
fn overflow_pass(toks: &[Token], in_test: &[bool], body: &BodyFacts, flow: &mut FnFlow) {
    for i in body.open + 1..body.close {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+" | "*" | "<<") {
            continue;
        }
        // Binary position only: the previous token must end an operand
        // (`*x` deref, `&x`, `if *entry`, `)`-ended chains under-match).
        let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
            continue;
        };
        if !(prev.kind == TokKind::Ident || prev.kind == TokKind::Int) || keyword(&prev.text) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        // A const-like operand (`L1_SIZE`) is a reviewable compile-time
        // constant, same as a literal.
        let operand = |tok: &Token| -> (Tags, bool) {
            match tok.kind {
                TokKind::Ident => (
                    seed_tags(&tok.text) | flow.tags.get(&tok.text).copied().unwrap_or(0),
                    const_like(&tok.text),
                ),
                TokKind::Int => (0, true),
                TokKind::Lifetime
                | TokKind::Str
                | TokKind::Char
                | TokKind::Float
                | TokKind::Punct => (0, false),
            }
        };
        let (lhs_tags, lhs_lit) = operand(prev);
        let (rhs_tags, rhs_lit) = operand(next);
        if next.kind != TokKind::Ident && next.kind != TokKind::Int {
            continue;
        }
        let fires = match t.text.as_str() {
            "+" => lhs_tags & ARITH_TAGS != 0 && rhs_tags & ARITH_TAGS != 0,
            "*" => {
                ((lhs_tags & ARITH_TAGS != 0) && !rhs_lit)
                    || ((rhs_tags & ARITH_TAGS != 0) && !lhs_lit)
            }
            "<<" => lhs_tags & ARITH_TAGS != 0,
            _ => false,
        };
        if !fires {
            continue;
        }
        let describe = |tags: Tags| -> &'static str {
            if tags & TAG_CYCLE != 0 {
                "cycle"
            } else if tags & TAG_ADDR != 0 {
                "addr"
            } else if tags & TAG_TAG != 0 {
                "tag"
            } else {
                "stat"
            }
        };
        let prov = describe(if lhs_tags & ARITH_TAGS != 0 {
            lhs_tags
        } else {
            rhs_tags
        });
        flow.overflow.push(Violation {
            line: t.line,
            col: t.col,
            what: format!(
                "unchecked `{} {} {}` on a {prov}-provenance u64 can wrap silently",
                prev.text, t.text, next.text
            ),
        });
    }
}

/// index-bounds: `recv[a op b …]` composite index expressions with no
/// dominating bound evidence. The expression must be entirely
/// identifiers/integers joined by `+`/`-`/`*`/`<<` (anything else —
/// ranges, calls, `%`, masks — is treated as its own bound discipline
/// and skipped). Bound evidence that clears a site: the exact
/// expression followed by `<`/`<=` (an `assert!`, `if`, `while`, or
/// `for` header) in a basic block that *dominates* the index site — a
/// check inside a sibling branch clears nothing.
fn index_pass(toks: &[Token], in_test: &[bool], body: &BodyFacts, cfg: &Cfg, flow: &mut FnFlow) {
    for i in body.open + 1..body.close {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !is_punct(&toks[i], "[") {
            continue;
        }
        // Indexing, not an array literal / attribute: previous token
        // must be a plain identifier (chains ending in `)`/`]` are
        // under-matched away).
        let Some(recv_idx) = i.checked_sub(1) else {
            continue;
        };
        if toks[recv_idx].kind != TokKind::Ident {
            continue;
        }
        let Some(close) = matching(toks, i) else {
            continue;
        };
        let expr = &toks[i + 1..close];
        if expr.len() < 3 {
            continue; // a composite expression is at least `a op b`
        }
        let simple = expr.iter().all(|t| {
            t.kind == TokKind::Ident
                || t.kind == TokKind::Int
                || (t.kind == TokKind::Punct && matches!(t.text.as_str(), "+" | "-" | "*" | "<<"))
        });
        let n_ops = expr
            .iter()
            .filter(|t| {
                t.kind == TokKind::Punct && matches!(t.text.as_str(), "+" | "-" | "*" | "<<")
            })
            .count();
        if !simple || n_ops == 0 {
            continue;
        }
        // Token-scan offsets (`toks[i + 1]`, `v[rank - 1]`) have one
        // runtime quantity and a constant; the SoA plane/chunk hazard
        // this lint exists for multiplies/adds *several* runtime
        // quantities. Require at least two.
        let n_runtime = expr
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !const_like(&t.text))
            .count();
        if n_runtime < 2 {
            continue;
        }
        // Bound evidence: the same token spelling followed by `<`/`<=`
        // earlier in the body (assert!/debug_assert!/if/while/for
        // headers all produce exactly this shape), *and* in a block
        // that dominates the index site — evidence on a sibling path
        // does not bound this one.
        let spelled: Vec<&str> = expr.iter().map(|t| t.text.as_str()).collect();
        let mut bounded = false;
        'scan: for w in body.open + 1..i.saturating_sub(spelled.len()) {
            let window = &toks[w..w + spelled.len()];
            for (win_tok, s) in window.iter().zip(&spelled) {
                if win_tok.text != *s {
                    continue 'scan;
                }
            }
            if toks
                .get(w + spelled.len())
                .is_some_and(|t| is_punct(t, "<") || is_punct(t, "<="))
                && cfg.dominates(w, i)
            {
                bounded = true;
                break;
            }
        }
        if bounded {
            continue;
        }
        let recv = &toks[recv_idx];
        let expr_text = spelled.join(" ");
        flow.index.push(Violation {
            line: toks[i].line,
            col: toks[i].col,
            what: format!(
                "`{}[{expr_text}]` indexes with a composite expression that no \
                 dominating check such as `{expr_text} < {}.len()` bounds",
                recv.text, recv.text
            ),
        });
    }
}

/// nondet-taint: worker-identity values reaching a `return` statement
/// or a stats field write. `call_tags` extends the sink scan through
/// summarized calls: `return worker_of(...)` is as tainted as
/// `return worker`.
fn taint_pass(
    toks: &[Token],
    in_test: &[bool],
    body: &BodyFacts,
    call_tags: &BTreeMap<usize, Tags>,
    flow: &mut FnFlow,
) {
    // A worker-tagged call site in `[start, end)`: named for messages.
    let tainted_call_in = |start: usize, end: usize| -> Option<String> {
        call_tags
            .range(start..end)
            .find(|(_, t)| *t & TAG_WORKER != 0)
            .map(|(&p, _)| {
                toks.get(p.wrapping_sub(1))
                    .map(|t| format!("{}(…)", t.text))
                    .unwrap_or_else(|| "a call".to_owned())
            })
    };
    // `return <tainted>;`
    let mut i = body.open + 1;
    while i < body.close {
        if in_test.get(i).copied().unwrap_or(false) || !is_ident(&toks[i], "return") {
            i += 1;
            continue;
        }
        let end = stmt_end(toks, i + 1, body.close);
        let hit =
            tainted_ident_in(toks, i + 1, end, &flow.tags).or_else(|| tainted_call_in(i + 1, end));
        if let Some(name) = hit {
            flow.taint.push(Violation {
                line: toks[i].line,
                col: toks[i].col,
                what: format!(
                    "worker/thread-identity value `{name}` flows into this function's \
                     return value"
                ),
            });
        }
        i = end + 1;
    }
    // `…stats….field op= <tainted>;` — a stats sink. Statement-start
    // field chains whose receiver mentions a stats name.
    let mut i = body.open + 1;
    while i < body.close {
        if !(starts_statement(toks, i) && toks[i].kind == TokKind::Ident)
            || in_test.get(i).copied().unwrap_or(false)
        {
            i += 1;
            continue;
        }
        // Walk a `a.b.c` chain.
        let mut k = i;
        let mut chain_has_stat = seed_tags(&toks[k].text) & TAG_STAT != 0;
        while toks.get(k + 1).is_some_and(|t| is_punct(t, "."))
            && toks.get(k + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            k += 2;
            chain_has_stat |= seed_tags(&toks[k].text) & TAG_STAT != 0;
        }
        let is_assign = toks
            .get(k + 1)
            .is_some_and(|t| t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text.as_str()));
        if k > i && chain_has_stat && is_assign {
            let rhs_start = k + 2;
            let rhs_end = stmt_end(toks, rhs_start, body.close);
            let hit = tainted_ident_in(toks, rhs_start, rhs_end, &flow.tags)
                .or_else(|| tainted_call_in(rhs_start, rhs_end));
            if let Some(name) = hit {
                flow.taint.push(Violation {
                    line: toks[i].line,
                    col: toks[i].col,
                    what: format!(
                        "worker/thread-identity value `{name}` is written into a stats field"
                    ),
                });
            }
            i = rhs_end + 1;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lints::test_mask;

    fn flow_of(src: &str) -> FnFlow {
        let lx = lex(src);
        let mask = test_mask(&lx.tokens, crate::FileKind::Lib);
        let ast = crate::ast::parse(&lx.tokens, &mask);
        for it in &ast.items {
            if let crate::ast::Item::Fn(f) = it {
                return analyze_with(&lx.tokens, &mask, f, &BTreeMap::new(), true).expect("body");
            }
        }
        panic!("no fn in source");
    }

    #[test]
    fn seeds_are_component_exact() {
        assert_eq!(seed_tags("cycle"), TAG_CYCLE);
        assert_eq!(seed_tags("commit_cycles"), TAG_CYCLE);
        assert_eq!(seed_tags("addr"), TAG_ADDR);
        assert_eq!(seed_tags("stage"), 0, "`stage` must not read as `tag`");
        assert_eq!(seed_tags("n_workers"), 0, "a worker *count* is config");
        assert_eq!(seed_tags("worker_id"), TAG_WORKER);
        assert_eq!(seed_tags("tid"), TAG_WORKER);
        assert_eq!(seed_tags("stats"), TAG_STAT);
    }

    #[test]
    fn tags_propagate_through_assignment_chains() {
        let flow = flow_of("fn f(cycle: u64) -> u64 { let a = cycle; let b = a; b }");
        assert_eq!(
            flow.tags.get("a").copied().unwrap_or(0) & TAG_CYCLE,
            TAG_CYCLE
        );
        assert_eq!(
            flow.tags.get("b").copied().unwrap_or(0) & TAG_CYCLE,
            TAG_CYCLE
        );
    }

    #[test]
    fn fixpoint_handles_reverse_order_chains() {
        // `a` is assigned from `b` before `b` is ever tagged; only a
        // second iteration can see it.
        let flow = flow_of(
            "fn f(cycle: u64) -> u64 { let mut a = 0; let mut b = 0; \
             loop { a = b; b = cycle; if a > 0 { break; } } a }",
        );
        assert_eq!(
            flow.tags.get("a").copied().unwrap_or(0) & TAG_CYCLE,
            TAG_CYCLE
        );
    }

    #[test]
    fn container_reads_do_not_carry_index_provenance() {
        let flow =
            flow_of("fn f(worker: usize, jobs: Vec<u64>) -> u64 { let j = jobs[worker]; j }");
        assert_eq!(
            flow.tags.get("j").copied().unwrap_or(0) & TAG_WORKER,
            0,
            "indexing by worker must not taint the element"
        );
    }

    #[test]
    fn guard_ranges_and_lock_sites() {
        let flow = flow_of(
            "fn f(m: &std::sync::Mutex<u64>) -> u64 {\n\
                let g = m.lock().unwrap_or_else(|p| p.into_inner());\n\
                let v = *g;\n\
                drop(g);\n\
                v\n\
             }",
        );
        assert_eq!(flow.locks.len(), 1);
        assert_eq!(flow.locks[0].recv, "m");
        assert_eq!(flow.guards.len(), 1);
        let g = &flow.guards[0];
        assert_eq!(g.name, "g");
        assert_eq!(g.mutex, "m");
        assert!(g.end > g.start, "guard must be live over a nonempty range");
        assert_eq!(
            flow.tags.get("g").copied().unwrap_or(0) & TAG_GUARD,
            TAG_GUARD
        );
    }

    #[test]
    fn temporary_guards_create_no_range() {
        let flow = flow_of(
            "fn f(m: &std::sync::Mutex<u64>) -> u64 {\n\
                *m.lock().unwrap_or_else(|p| p.into_inner())\n\
             }",
        );
        assert_eq!(flow.locks.len(), 1);
        assert!(flow.guards.is_empty(), "temporaries die at the statement");
    }

    #[test]
    fn overflow_rules() {
        let flow = flow_of(
            "fn f(cycle: u64, addr: u64, n: u64) -> u64 {\n\
                let a = cycle + 1;\n\
                let b = cycle + addr;\n\
                let c = addr * n;\n\
                let d = addr * 8;\n\
                let e = addr << n;\n\
                a + b + c + d + e\n\
             }",
        );
        let lines: Vec<u32> = flow.overflow.iter().map(|v| v.line).collect();
        assert!(!lines.contains(&2), "cycle + 1 is a reviewable tick");
        assert!(lines.contains(&3), "tagged + tagged fires");
        assert!(lines.contains(&4), "tagged * variable fires");
        assert!(!lines.contains(&5), "tagged * literal is a scale factor");
        assert!(lines.contains(&6), "shifting a tagged value fires");
    }

    #[test]
    fn index_bounds_rules() {
        let flow = flow_of(
            "fn f(xs: &[u64], base: usize, way: usize, set: usize) -> u64 {\n\
                let a = xs[base + way];\n\
                debug_assert!(set * 8 + way < xs.len());\n\
                let b = xs[set * 8 + way];\n\
                let c = xs[way];\n\
                let d = xs[4 + 3];\n\
                let e = xs[way + 1];\n\
                let w = 8;\n\
                let f = xs[w - 1];\n\
                a + b + c + d + e + f\n\
             }",
        );
        let lines: Vec<u32> = flow.index.iter().map(|v| v.line).collect();
        assert!(lines.contains(&2), "unguarded composite index fires");
        assert!(!lines.contains(&4), "asserted bound clears the site");
        assert!(!lines.contains(&5), "single-ident index is out of scope");
        assert!(!lines.contains(&6), "all-constant index is rustc's job");
        assert!(
            !lines.contains(&7),
            "one runtime ident + offset is a scan idiom"
        );
        assert!(
            !lines.contains(&9),
            "one runtime ident + offset clears it without constant folding"
        );
    }

    #[test]
    fn index_bounds_guard_must_dominate() {
        // The same expression, once with evidence on a sibling path
        // (fires) and once under a dominating condition (clean).
        let flow = flow_of(
            "fn f(xs: &[u64], way: usize, set: usize, other: bool) -> u64 {\n\
                if other {\n\
                    debug_assert!(set * 8 + way < xs.len());\n\
                }\n\
                let a = xs[set * 8 + way];\n\
                let b = if set * 4 + way < xs.len() { xs[set * 4 + way] } else { 0 };\n\
                a + b\n\
             }",
        );
        let lines: Vec<u32> = flow.index.iter().map(|v| v.line).collect();
        assert!(
            lines.contains(&5),
            "evidence inside a sibling branch must not clear the site: {:?}",
            flow.index
        );
        assert!(
            !lines.contains(&6),
            "a dominating `if` condition clears the guarded use: {:?}",
            flow.index
        );
    }

    #[test]
    fn call_tags_seed_assignments_and_returns() {
        // `analyze_with` seeds `c` from the call's summarized return
        // tags, so the downstream `c + d` add fires overflow and the
        // worker-returning call taints the return.
        let lx = lex("fn f(d_cycle: u64) -> u64 {\n\
                let c = helper();\n\
                let s = c + d_cycle;\n\
                return wid();\n\
             }");
        let mask = test_mask(&lx.tokens, crate::FileKind::Lib);
        let ast = crate::ast::parse(&lx.tokens, &mask);
        let crate::ast::Item::Fn(f) = &ast.items[0] else {
            panic!("fn expected")
        };
        let body = f.body.as_ref().expect("body");
        let mut call_tags = BTreeMap::new();
        for c in &body.calls {
            let name = match &c.callee {
                Callee::Path(segs) => segs.join("::"),
                Callee::Method { name, .. } => name.clone(),
            };
            match name.as_str() {
                "helper" => call_tags.insert(c.paren_open, TAG_CYCLE),
                "wid" => call_tags.insert(c.paren_open, TAG_WORKER),
                _ => None,
            };
        }
        let flow = analyze_with(&lx.tokens, &mask, f, &call_tags, true).expect("flow");
        assert_eq!(
            flow.tags.get("c").copied().unwrap_or(0) & TAG_CYCLE,
            TAG_CYCLE,
            "call return tags seed the binder"
        );
        assert_eq!(flow.overflow.len(), 1, "overflow: {:?}", flow.overflow);
        assert_eq!(flow.taint.len(), 1, "taint: {:?}", flow.taint);
        assert!(flow.taint[0].what.contains("wid"));
    }

    #[test]
    fn taint_rules() {
        let flow = flow_of(
            "fn f(worker: usize, jobs: Vec<u64>) -> usize {\n\
                let w2 = worker + 1;\n\
                let job = jobs[worker];\n\
                if job > 0 {\n\
                    return w2;\n\
                }\n\
                0\n\
             }",
        );
        assert_eq!(flow.taint.len(), 1, "taint: {:?}", flow.taint);
        assert_eq!(flow.taint[0].line, 5);
        assert!(flow.taint[0].what.contains("w2"));
    }

    #[test]
    fn stats_write_sink() {
        let flow = flow_of(
            "fn f(worker: usize, stats: &mut RunStats) {\n\
                stats.owner += worker;\n\
             }",
        );
        assert_eq!(flow.taint.len(), 1, "taint: {:?}", flow.taint);
        assert_eq!(flow.taint[0].line, 2);
    }
}
