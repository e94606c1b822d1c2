//! The workspace rows: lints that need the symbol table and call graph
//! ([`crate::symbols`]), the per-function effects
//! ([`crate::summaries`]) and the dataflow facts ([`crate::dataflow`]).
//!
//! Most rows check one *effect* inside one *region*, each computed once:
//!
//! | row                        | effect                              | region                |
//! |----------------------------|-------------------------------------|-----------------------|
//! | panic-reachability         | panic, through callees              | public-API root       |
//! | lock-discipline            | lock or block, through callees; a same-mutex `.lock()` | live guard range |
//! | alloc-in-hot-loop          | allocation, direct or through callees | hot loop            |
//! | unbounded-growth-in-stream | push into a never-drained field     | stream-file loop      |
//! | nondet-taint               | worker identity                     | return/stat sink      |
//!
//! The rest are direct shapes: stat-conservation (write-only or dead
//! `*Stats` counters), exhaustive-dispatch (`_` arms over closed
//! workspace enums), overflow-provenance and index-bounds (dataflow
//! facts), and swallowed-error (a workspace `Result` bound to `_`,
//! dropped as a bare statement, `.ok()`d away, or matched by an empty
//! `Err` arm).
//!
//! Two stages, timed separately by `tcp-perf`: [`run_core`] (symbol
//! table and call-graph rows) and [`run_dataflow`] (the dataflow rows).
//! Findings are produced unsuppressed and unscoped; the pipeline filters
//! them through the lint table and each file's waivers. `run_core` also
//! reports which waiver lines did work inside a pass (panic-site waivers
//! that stop reachability propagation), so the stale-waiver report can
//! tell live suppressions from rotten ones.

use crate::ast::ArmHead;
use crate::dataflow::{self, FnFlow};
use crate::lexer::{is_ident, is_open, is_punct, matching, starts_statement, TokKind, Token};
use crate::lints::{
    suppressed_by, FileKind, Finding, Suppressions, ALLOC_IN_HOT_LOOP, EXHAUSTIVE_DISPATCH,
    INDEX_BOUNDS, LOCK_DISCIPLINE, NONDET_TAINT, OVERFLOW_PROVENANCE, PANIC_IN_LIBRARY,
    PANIC_REACHABILITY, STAT_CONSERVATION, SWALLOWED_ERROR, UNBOUNDED_GROWTH_IN_STREAM,
};
use crate::summaries::{self, alloc_shape, Reach, Summaries};
use crate::symbols::{CallEdge, FileInput, FnNode, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Integer/float types a stats counter may carry.
const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Compound/plain assignment operators, as single lexer tokens.
const ASSIGN_OPS: [&str; 11] = [
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// The symbol-table and call-graph rows. `sups` are the files' waivers
/// (parallel to `files`); the directive lines of waivers that stopped
/// panic propagation are recorded per file path into `used`.
pub fn run_core(
    ws: &Workspace<'_>,
    files: &[FileInput<'_>],
    sups: &[&Suppressions],
    used: &mut BTreeMap<String, BTreeSet<u32>>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    panic_reachability(ws, files, sups, used, &mut out);
    stat_conservation(ws, files, &mut out);
    exhaustive_dispatch(ws, files, &mut out);
    out
}

/// The dataflow rows, over per-function [`FnFlow`]s and the effect
/// [`Summaries`]. Tests are masked, and example programs are demo code
/// outside the determinism/robustness contract, so only library and
/// binary functions get a flow.
pub fn run_dataflow(ws: &Workspace<'_>, files: &[FileInput<'_>]) -> Vec<Finding> {
    let flows_with = |seed: &dyn Fn(usize) -> BTreeMap<usize, dataflow::Tags>, full: bool| {
        (0..ws.fns.len())
            .map(|i| {
                let node = &ws.fns[i];
                let file = &files[node.file];
                if node.in_test || !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
                    return None;
                }
                dataflow::analyze_with(file.toks, file.in_test, node.def, &seed(i), full)
            })
            .collect::<Vec<Option<FnFlow>>>()
    };
    // Phase A: the cheap environment-only pass the return-tag summaries
    // need; then phase B, the full flow-sensitive pass seeded with the
    // callees' return tags so provenance crosses function boundaries.
    let sums = summaries::summarize(ws, files, &flows_with(&|_| BTreeMap::new(), false));
    let flows = flows_with(
        &|i| summaries::call_return_tags(ws, &sums.returns_tags, i),
        true,
    );

    let mut out = Vec::new();
    for (i, node) in ws.fns.iter().enumerate() {
        let Some(flow) = &flows[i] else { continue };
        let file = &files[node.file];
        lock_discipline(ws, &sums, node, file, flow, &mut out);
        for (row, found) in [
            (&OVERFLOW_PROVENANCE, &flow.overflow),
            (&INDEX_BOUNDS, &flow.index),
            (&NONDET_TAINT, &flow.taint),
        ] {
            out.extend(
                found
                    .iter()
                    .map(|v| row.at(file.path, v.line, v.col, &v.what)),
            );
        }
        alloc_in_hot_loop(ws, &sums, node, file, &mut out);
        swallowed_error(ws, node, file, &mut out);
    }
    unbounded_growth_in_stream(ws, files, &flows, &mut out);
    out
}

/// **panic-reachability** — no public API of a typed-error crate may
/// reach an unwaived panic through the in-workspace call graph. The
/// panic effect is each function's first unwaived direct panic site,
/// lifted bottom-up over the call graph's SCCs.
fn panic_reachability(
    ws: &Workspace<'_>,
    files: &[FileInput<'_>],
    sups: &[&Suppressions],
    used: &mut BTreeMap<String, BTreeSet<u32>>,
    out: &mut Vec<Finding>,
) {
    let waivers = [PANIC_REACHABILITY.name, PANIC_IN_LIBRARY.name];
    let mut direct = Vec::with_capacity(ws.fns.len());
    for (i, node) in ws.fns.iter().enumerate() {
        let file = &files[node.file];
        let mut first = None;
        let sites = node.def.body.iter().filter(|_| !node.in_test);
        for p in sites.flat_map(|b| &b.panics) {
            let line = file.toks[p.tok].line;
            // A waived site does not propagate; its waiver did real work.
            match suppressed_by(sups[node.file], &waivers, line) {
                Some(dl) => {
                    used.entry(file.path.to_owned()).or_default().insert(dl);
                }
                None => {
                    first.get_or_insert_with(|| Reach {
                        what: p.what.clone(),
                        sink: i,
                        line,
                        via: Vec::new(),
                    });
                }
            }
        }
        direct.push(first);
    }
    let reach = summaries::propagate(ws, &summaries::tarjan(ws), direct);

    for (root, node) in ws.fns.iter().enumerate() {
        let file = &files[node.file];
        if !node.def.is_pub || node.in_test || !PANIC_REACHABILITY.covers(file.kind, file.crate_dir)
        {
            continue;
        }
        // The root's own panic sites are panic-in-library's concern, so
        // only a callee's reach reports here.
        let hit = node.calls.iter().flat_map(|c| &c.targets).find_map(|&t| {
            let r = reach[t].as_ref().filter(|r| r.sink != root)?;
            Some((t, r))
        });
        let Some((t, r)) = hit else { continue };
        let chain: Vec<String> = [node.display_name(), ws.fns[t].display_name()]
            .into_iter()
            .chain(r.via.iter().cloned())
            .collect();
        let what = format!(
            "public `{}` can transitively reach `{}` at {}:{} (call chain: {})",
            node.def.name,
            r.what,
            files[ws.fns[r.sink].file].path,
            r.line,
            chain.join(" → "),
        );
        out.push(PANIC_REACHABILITY.at(file.path, node.def.line, node.def.col, what));
    }
}

/// **stat-conservation** — every numeric field of a `*Stats` struct
/// must be both mutated somewhere and read/reported somewhere.
fn stat_conservation(ws: &Workspace<'_>, files: &[FileInput<'_>], out: &mut Vec<Finding>) {
    for &(fi, s) in &ws.structs {
        if !s.name.ends_with("Stats")
            || !STAT_CONSERVATION.covers(files[fi].kind, files[fi].crate_dir)
        {
            continue;
        }
        let fields: Vec<&crate::ast::FieldDef> = s
            .fields
            .iter()
            .filter(|f| f.ty.len() == 1 && NUMERIC_TYPES.contains(&f.ty[0].as_str()))
            .collect();
        if fields.is_empty() {
            continue;
        }
        let names: BTreeSet<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        let mut written: BTreeSet<String> = BTreeSet::new();
        let mut read: BTreeSet<String> = BTreeSet::new();
        for file in files {
            field_accesses(
                file.toks,
                file.in_test,
                &s.name,
                &names,
                &mut written,
                &mut read,
            );
        }
        for f in fields {
            let missing_write = !written.contains(&f.name);
            let missing_read = !read.contains(&f.name);
            let problem = match (missing_write, missing_read) {
                (true, true) => "is never mutated and never read",
                (true, false) => "is never mutated — it can only ever report zero",
                (false, true) => "is written but never read or reported",
                (false, false) => continue,
            };
            let what = format!("stat counter `{}.{}` {problem}", s.name, f.name);
            out.push(STAT_CONSERVATION.at(files[fi].path, f.line, f.col, what));
        }
    }
}

/// Scans one token stream for writes/reads of the given stat fields:
/// `.field <assign-op>` is a write (non-test only), `.field` otherwise a
/// read (tests count — assertions are a legitimate consumer), and field
/// inits inside `StructName { … }` literals are writes.
fn field_accesses(
    toks: &[Token],
    in_test: &[bool],
    struct_name: &str,
    fields: &BTreeSet<&str>,
    written: &mut BTreeSet<String>,
    read: &mut BTreeSet<String>,
) {
    for i in 0..toks.len() {
        // `.field …`
        if is_punct(&toks[i], ".")
            && toks
                .get(i + 1)
                .is_some_and(|t| fields.contains(t.text.as_str()))
        {
            let name = toks[i + 1].text.clone();
            let assigned = toks
                .get(i + 2)
                .is_some_and(|t| ASSIGN_OPS.contains(&t.text.as_str()));
            if assigned {
                if !in_test.get(i + 1).copied().unwrap_or(false) {
                    written.insert(name);
                }
            } else {
                read.insert(name);
            }
        }
        // `StructName { field: …, shorthand, .. }` literals.
        if is_ident(&toks[i], struct_name)
            && toks.get(i + 1).is_some_and(|t| is_punct(t, "{"))
            && !(i > 0 && (is_ident(&toks[i - 1], "struct") || is_ident(&toks[i - 1], "enum")))
        {
            let Some(close) = matching(toks, i + 1) else {
                continue;
            };
            let mut k = i + 2;
            while k < close {
                let t = &toks[k];
                if is_open(t) {
                    k = matching(toks, k).map_or(close, |c| c + 1);
                    continue;
                }
                if fields.contains(t.text.as_str())
                    && !in_test.get(k).copied().unwrap_or(false)
                    && toks
                        .get(k + 1)
                        .is_some_and(|n| is_punct(n, ":") || is_punct(n, ",") || is_punct(n, "}"))
                {
                    written.insert(t.text.clone());
                }
                k += 1;
            }
        }
    }
}

/// **exhaustive-dispatch** — a `match` over a closed workspace enum
/// must not hide variants behind a `_` arm.
fn exhaustive_dispatch(ws: &Workspace<'_>, files: &[FileInput<'_>], out: &mut Vec<Finding>) {
    for node in ws.fns.iter().filter(|n| !n.in_test) {
        let file = &files[node.file];
        for m in node.def.body.iter().flat_map(|b| b.matches.iter()) {
            // Identify the matched enum from a qualified variant arm.
            let mut enum_name: Option<&str> = None;
            let mut covered: BTreeSet<&str> = BTreeSet::new();
            for arm in &m.arms {
                let ArmHead::Path(segs) = &arm.head else {
                    continue;
                };
                if segs.len() < 2 {
                    continue;
                }
                let cand = segs[segs.len() - 2].as_str();
                if !ws.closed_enums.contains_key(cand) || enum_name.is_some_and(|e| e != cand) {
                    continue;
                }
                enum_name = Some(cand);
                covered.insert(segs[segs.len() - 1].as_str());
            }
            let Some(name) = enum_name else { continue };
            let Some(wild) = m
                .arms
                .iter()
                .find(|a| a.head == ArmHead::Wildcard && !a.guarded)
            else {
                continue;
            };
            let Some(variants) = ws.closed_enums.get(name) else {
                continue;
            };
            let missing: Vec<&str> = variants
                .iter()
                .map(String::as_str)
                .filter(|v| !covered.contains(*v))
                .collect();
            let hidden = if missing.is_empty() {
                "no remaining variants — the arm is dead".to_owned()
            } else {
                missing.join(", ")
            };
            let t = &file.toks[wild.pat];
            let what = format!("`_` arm on closed enum `{name}` hides variants ({hidden})");
            out.push(EXHAUSTIVE_DISPATCH.at(file.path, t.line, t.col, what));
        }
    }
}

/// **lock-discipline** — inside each live guard range, a call into a
/// function whose summary locks (the deadlock shape) or blocks (the
/// lock-convoy shape), or a second `.lock()` of the guarded mutex (a
/// self-deadlock on that path).
fn lock_discipline(
    ws: &Workspace<'_>,
    sums: &Summaries,
    node: &FnNode<'_>,
    file: &FileInput<'_>,
    flow: &FnFlow,
    out: &mut Vec<Finding>,
) {
    for g in &flow.guards {
        let live = |tok: usize| g.start < tok && tok < g.end;
        let held = format!(
            "guard `{}` (locking `{}`, bound at line {})",
            g.name, g.mutex, g.line
        );
        for edge in node.calls.iter().filter(|e| live(e.site.paren_open)) {
            let hit = edge.targets.iter().find_map(|&t| {
                let lock = sums.lock[t]
                    .as_ref()
                    .map(|r| (r, "the deadlock shape".to_owned()));
                let block = || {
                    let stall = format!(
                        "every other thread touching `{}` stalls for the wait",
                        g.mutex
                    );
                    sums.block[t].as_ref().map(|r| (r, stall))
                };
                Some((t, lock.or_else(block)?))
            });
            let Some((t, (r, shape))) = hit else { continue };
            let what = format!(
                "{held} is still live across this call to `{}`, which {} — {shape}",
                ws.fns[t].display_name(),
                reaches(r),
            );
            out.push(LOCK_DISCIPLINE.at(file.path, edge.site.line, edge.site.col, what));
        }
        for l in flow
            .locks
            .iter()
            .filter(|l| live(l.paren_open) && l.recv == g.mutex)
        {
            let what = format!(
                "`{}` is locked again while {held} still holds it — self-deadlock on this path",
                l.recv
            );
            out.push(LOCK_DISCIPLINE.at(file.path, l.line, l.col, what));
        }
    }
}

/// How a callee reaches an effect, for messages: directly, or through
/// the chain of calls below it.
fn reaches(r: &Reach) -> String {
    if r.via.is_empty() {
        format!("calls `{}` itself", r.what)
    } else {
        format!("reaches `{}` through `{}`", r.what, r.via.join("` → `"))
    }
}

/// Idents in `toks[..]` that have *capacity evidence* somewhere in the
/// file: `x: Vec::with_capacity(..)`, `let x = Vec::with_capacity(..)`
/// (or `String::`/`Box::` forms), or an `x.reserve(..)` call. A push
/// into such a vector is amortised-free by contract, so it is exempt
/// from the allocation lints. Under-matches: evidence in *another* file
/// (e.g. a constructor in a sibling module) is invisible, which errs
/// toward reporting — callers pair this with a waiver escape hatch.
fn capacity_evidenced(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `x . reserve (`
        if toks[i].text == "reserve"
            && i >= 2
            && is_punct(&toks[i - 1], ".")
            && toks[i - 2].kind == TokKind::Ident
        {
            out.insert(toks[i - 2].text.clone());
            continue;
        }
        // `x :` or `x =` followed by `Type :: with_capacity`
        if toks[i].text == "with_capacity"
            && i >= 4
            && is_punct(&toks[i - 1], "::")
            && toks[i - 2].kind == TokKind::Ident
            && (is_punct(&toks[i - 3], ":") || is_punct(&toks[i - 3], "="))
            && toks[i - 4].kind == TokKind::Ident
        {
            out.insert(toks[i - 4].text.clone());
        }
    }
    out
}

/// **alloc-in-hot-loop** — inside each hot loop of the hot crates, an
/// allocating shape, a `.clone()` or an unreserved `push`/`extend` (these
/// two only at the loop site), or a call whose summary reaches an
/// allocation — however many calls deep.
fn alloc_in_hot_loop(
    ws: &Workspace<'_>,
    sums: &Summaries,
    node: &FnNode<'_>,
    file: &FileInput<'_>,
    out: &mut Vec<Finding>,
) {
    let Some(body) = &node.def.body else { return };
    if !ALLOC_IN_HOT_LOOP.covers(file.kind, file.crate_dir)
        || !body.loops.iter().any(|l| l.is_hot())
    {
        return;
    }
    let toks = file.toks;
    let reserved = capacity_evidenced(toks);
    // `(`-positions of calls that resolve to workspace functions with no
    // allocation in their summary — a `.push(..)` landing on, say,
    // `BoundedRing::push` is a fixed-capacity write, not a `Vec` growth,
    // and the callee check below covers any resolved callee that does
    // allocate.
    let nonalloc_calls: BTreeSet<usize> = node
        .calls
        .iter()
        .filter(|e| !e.targets.is_empty() && e.targets.iter().all(|&t| sums.alloc[t].is_none()))
        .map(|e| e.site.paren_open)
        .collect();
    for lp in body.loops.iter().filter(|l| l.is_hot()) {
        let kw = &toks[lp.keyword];
        let region = format!(
            "inside this {}-loop over `{}` (line {})",
            kw.text,
            lp.header_idents.join(" "),
            kw.line
        );
        for t in lp.body_open + 1..lp.body_close {
            if file.in_test[t] {
                continue;
            }
            let what = alloc_shape(toks, t)
                .map(|shape| format!("`{shape}` allocates"))
                .or_else(|| loop_site_alloc(toks, t, &reserved, &nonalloc_calls));
            if let Some(what) = what {
                let what = format!("{what} {region}");
                out.push(ALLOC_IN_HOT_LOOP.at(file.path, toks[t].line, toks[t].col, what));
            }
        }
        for edge in &node.calls {
            let s = edge.site;
            if s.paren_open <= lp.body_open || s.paren_open >= lp.body_close {
                continue;
            }
            let Some((t, r)) = edge
                .targets
                .iter()
                .find_map(|&t| Some((t, sums.alloc[t].as_ref()?)))
            else {
                continue;
            };
            let chain: Vec<String> = std::iter::once(ws.fns[t].display_name())
                .chain(r.via.iter().cloned())
                .map(|c| format!("`{c}`"))
                .collect();
            let what = format!(
                "this call allocates via {} — `{}` at line {} of its defining file — {region}",
                chain.join(" → "),
                r.what,
                r.line,
            );
            out.push(ALLOC_IN_HOT_LOOP.at(file.path, s.line, s.col, what));
        }
    }
}

/// The loop-site-only allocation shapes at `toks[t]`: `.clone()`, and a
/// `push`/`extend` into a vector with no capacity evidence whose call
/// does not resolve to a non-allocating workspace method.
fn loop_site_alloc(
    toks: &[Token],
    t: usize,
    reserved: &BTreeSet<String>,
    nonalloc_calls: &BTreeSet<usize>,
) -> Option<String> {
    let method = toks[t].text.as_str();
    let called =
        t >= 2 && is_punct(&toks[t - 1], ".") && toks.get(t + 1).is_some_and(|n| is_punct(n, "("));
    if !called || toks[t].kind != TokKind::Ident {
        return None;
    }
    if method == "clone" {
        return Some("`.clone()` copies into a fresh allocation".to_owned());
    }
    let recv = &toks[t - 2];
    (matches!(method, "push" | "extend")
        && recv.kind == TokKind::Ident
        && !reserved.contains(&recv.text)
        && !nonalloc_calls.contains(&(t + 1)))
    .then(|| {
        format!(
            "`{0}.{method}(..)` may reallocate — no `with_capacity`/`reserve` evidence for `{0}` \
             in this file",
            recv.text
        )
    })
}

/// **swallowed-error** — a `Result` from a workspace function discarded
/// without the error reaching any sink: `let _ = f();`, a bare `f();`
/// statement, a bare `f().ok();`, or a `match` on the call with an empty
/// `Err` arm.
fn swallowed_error(
    ws: &Workspace<'_>,
    node: &FnNode<'_>,
    file: &FileInput<'_>,
    out: &mut Vec<Finding>,
) {
    let toks = file.toks;
    let returns_result = |e: &CallEdge<'_>| {
        !e.targets.is_empty() && e.targets.iter().all(|&t| ws.fns[t].def.returns_result)
    };
    for edge in node.calls.iter().filter(|e| returns_result(e)) {
        let s = edge.site;
        if file.in_test[s.paren_open] {
            continue;
        }
        let after = |k: usize, p: &str| toks.get(s.paren_close + k).is_some_and(|t| is_punct(t, p));
        let stmt = starts_statement(toks, s.expr_start);
        let how = if s.expr_start >= 3
            && is_ident(&toks[s.expr_start - 3], "let")
            && toks[s.expr_start - 2].text == "_"
            && is_punct(&toks[s.expr_start - 1], "=")
            && after(1, ";")
        {
            "is bound to `_`"
        } else if stmt && after(1, ";") {
            "is dropped as a bare statement"
        } else if stmt
            && after(1, ".")
            && toks
                .get(s.paren_close + 2)
                .is_some_and(|t| is_ident(t, "ok"))
            && after(3, "(")
            && after(4, ")")
            && after(5, ";")
        {
            "is `.ok()`d away as a statement"
        } else {
            continue;
        };
        let what = format!("the Result of `{}` {how}", edge.name);
        out.push(SWALLOWED_ERROR.at(file.path, s.line, s.col, what));
    }
    for m in node.def.body.iter().flat_map(|b| &b.matches) {
        let scrutinee_has_result = node
            .calls
            .iter()
            .any(|e| (m.keyword..m.body_open).contains(&e.site.paren_open) && returns_result(e));
        if file.in_test[m.keyword] || !scrutinee_has_result {
            continue;
        }
        for arm in &m.arms {
            let body = &toks[arm.arrow + 1..arm.body_end.min(toks.len())];
            let empty = body.len() == 2
                && ((is_punct(&body[0], "{") && is_punct(&body[1], "}"))
                    || (is_punct(&body[0], "(") && is_punct(&body[1], ")")));
            // The pattern ends in `Err` or `Err(..)`.
            let err = (arm.pat..arm.arrow).find(|&k| {
                is_ident(&toks[k], "Err")
                    && (k + 1 == arm.arrow
                        || (is_punct(&toks[k + 1], "(")
                            && matching(toks, k + 1) == Some(arm.arrow - 1)))
            });
            if let Some(k) = err.filter(|_| empty) {
                let what = "this `Err` arm silently drops the error";
                out.push(SWALLOWED_ERROR.at(file.path, toks[k].line, toks[k].col, what));
            }
        }
    }
}

/// **unbounded-growth-in-stream** — a field of a struct defined in a
/// `*stream.rs` file is `.push(..)`/`.extend(..)`-ed inside a loop of
/// that file, and no path in the file ever drains it (`pop`/`clear`/
/// `truncate`/`drain`/`remove`) nor carries capacity evidence. That is
/// the stays-resident-forever shape the bounded-memory streaming
/// contract (BoundedRing) exists to prevent.
fn unbounded_growth_in_stream(
    ws: &Workspace<'_>,
    files: &[FileInput<'_>],
    flows: &[Option<FnFlow>],
    out: &mut Vec<Finding>,
) {
    // Fields of structs defined in each stream file.
    let mut stream_fields: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for &(file, sd) in &ws.structs {
        if files[file].path.ends_with("stream.rs") {
            let fields = stream_fields.entry(file).or_default();
            fields.extend(sd.fields.iter().map(|f| f.name.clone()));
        }
    }
    // Relief evidence per file: any `.field.pop()`-style drain call, or
    // capacity evidence, anywhere in the file (any path suffices — the
    // lint under-matches by design).
    let mut relieved: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (&file, fields) in &stream_fields {
        let toks = files[file].toks;
        let mut set = capacity_evidenced(toks);
        for t in 2..toks.len() {
            if matches!(
                toks[t].text.as_str(),
                "pop"
                    | "pop_front"
                    | "pop_back"
                    | "clear"
                    | "truncate"
                    | "drain"
                    | "remove"
                    | "swap_remove"
            ) && toks[t].kind == TokKind::Ident
                && is_punct(&toks[t - 1], ".")
                && fields.contains(&toks[t - 2].text)
            {
                set.insert(toks[t - 2].text.clone());
            }
        }
        relieved.insert(file, set);
    }

    for (i, node) in ws.fns.iter().enumerate() {
        let (Some(_), Some(fields), Some(body)) =
            (&flows[i], stream_fields.get(&node.file), &node.def.body)
        else {
            continue;
        };
        let file = &files[node.file];
        let toks = file.toks;
        for lp in &body.loops {
            for t in lp.body_open + 1..lp.body_close {
                let grows = matches!(toks[t].text.as_str(), "push" | "extend" | "push_back")
                    && toks[t].kind == TokKind::Ident
                    && toks.get(t + 1).is_some_and(|n| is_punct(n, "("))
                    && t >= 2
                    && is_punct(&toks[t - 1], ".");
                if file.in_test[t] || !grows {
                    continue;
                }
                let field = &toks[t - 2].text;
                if !fields.contains(field) || relieved[&node.file].contains(field) {
                    continue;
                }
                let what = format!(
                    "streaming-struct field `{field}` grows inside this loop (line {}) and nothing \
                     in this file ever pops, clears, truncates, or drains it",
                    toks[lp.keyword].line,
                );
                out.push(UNBOUNDED_GROWTH_IN_STREAM.at(file.path, toks[t].line, toks[t].col, what));
            }
        }
    }
}
