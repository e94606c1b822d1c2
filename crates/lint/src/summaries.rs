//! Per-function effects and their bottom-up propagation over call-graph
//! strongly connected components.
//!
//! Each effect has exactly one recognizer over a function's own body:
//!
//! * **panic** — the parser's direct panic sites (`unwrap`/`expect`/
//!   `panic!` family), minus the waived ones (the caller filters those,
//!   since waivers live with the file);
//! * **lock** — a `.lock()` call;
//! * **block** — a call that parks the thread (`recv`/`wait`/`sleep`/
//!   blocking reads);
//! * **alloc** — an allocating shape ([`alloc_shape`]).
//!
//! [`propagate`] then walks the condensation bottom-up — Tarjan emits an
//! SCC only after everything it calls into — so a function inherits an
//! effect from the first callee that has it, with that callee prepended
//! to the `via` chain the finding messages print. Within an SCC the
//! members iterate to a fixpoint; effects only ever go from absent to
//! present, so the walk terminates. [`return_tags`] runs the same walk
//! for the provenance tags of returned values, so `let x =
//! current_cycle();` seeds `x` with `TAG_CYCLE` in the caller's dataflow.
//!
//! Conservatism contract: summaries under-match like everything else in
//! this linter. An unresolved call contributes nothing (no edge ⇒ no
//! effect), `.clone()` is deliberately *not* an allocation effect (too
//! many cheap `Copy`-adjacent clones — hot-loop clones are still caught
//! directly at the loop site), and a tail expression containing nested
//! blocks contributes no return tags rather than over-tainting.

use std::collections::BTreeMap;

use crate::ast::{BodyFacts, Callee};
use crate::dataflow::{self, FnFlow, Tags};
use crate::lexer::{is_punct, TokKind, Token};
use crate::symbols::{FileInput, Workspace};

/// Method calls that block the calling thread. Deliberately tight:
/// `join` is excluded (slice/path `join` would swamp it with false
/// positives) — an under-match, per the contract.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "read_to_end",
    "read_to_string",
    "read_line",
];

/// One effect reachable from a function.
#[derive(Clone, Debug)]
pub struct Reach {
    /// The effect's site shape, e.g. `unwrap`, `.recv()`, `Vec::new`.
    pub what: String,
    /// Function holding the site.
    pub sink: usize,
    /// 1-based line of the site in its own file.
    pub line: u32,
    /// Display names of the callees between this function and the
    /// site, outermost first (empty for a direct effect).
    pub via: Vec<String>,
}

/// The lock, block and allocation effects of every function, plus the
/// provenance tags of its returned values (all indexed like `ws.fns`).
pub struct Summaries {
    /// Acquires a lock.
    pub lock: Vec<Option<Reach>>,
    /// Reaches a blocking call.
    pub block: Vec<Option<Reach>>,
    /// Reaches an allocation.
    pub alloc: Vec<Option<Reach>>,
    /// Provenance tags of the function's returned values.
    pub returns_tags: Vec<Tags>,
}

/// Computes the dataflow-stage summaries. `flows` are the phase-1
/// intra-procedural results (parallel to `ws.fns`), which seed the
/// return tags.
pub fn summarize(
    ws: &Workspace<'_>,
    files: &[FileInput<'_>],
    flows: &[Option<FnFlow>],
) -> Summaries {
    let sccs = tarjan(ws);
    let lock = direct(ws, files, |_, body| {
        body.calls.iter().find_map(|c| match &c.callee {
            Callee::Method { name, .. } if name == "lock" => Some((".lock()".to_owned(), c.line)),
            Callee::Method { .. } | Callee::Path(_) => None,
        })
    });
    let block = direct(ws, files, |_, body| {
        body.calls.iter().find_map(|c| match &c.callee {
            Callee::Method { name, .. } if BLOCKING_METHODS.contains(&name.as_str()) => {
                Some((format!(".{name}()"), c.line))
            }
            Callee::Path(segs) if segs.last().is_some_and(|l| l == "sleep") => {
                Some((segs.join("::") + "()", c.line))
            }
            Callee::Method { .. } | Callee::Path(_) => None,
        })
    });
    let alloc = direct(ws, files, |toks, body| {
        (body.open + 1..body.close.min(toks.len()))
            .find_map(|i| alloc_shape(toks, i).map(|what| (what, toks[i].line)))
    });
    Summaries {
        lock: propagate(ws, &sccs, lock),
        block: propagate(ws, &sccs, block),
        alloc: propagate(ws, &sccs, alloc),
        returns_tags: return_tags(ws, &sccs, files, flows),
    }
}

/// One effect's direct sites: the first `(what, line)` the recognizer
/// finds in each function's own body. Test-only functions keep no
/// effects: they are never call-resolution targets, and their bodies
/// (assert scaffolding, Vec-heavy setup) must not leak effects into
/// product findings.
fn direct<F>(ws: &Workspace<'_>, files: &[FileInput<'_>], recognize: F) -> Vec<Option<Reach>>
where
    F: Fn(&[Token], &BodyFacts) -> Option<(String, u32)>,
{
    ws.fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let body = f.def.body.as_ref().filter(|_| !f.in_test)?;
            let (what, line) = recognize(files[f.file].toks, body)?;
            Some(Reach {
                what,
                sink: i,
                line,
                via: Vec::new(),
            })
        })
        .collect()
}

/// Lifts direct effects (one per function, indexed like `ws.fns`) to
/// transitive ones: bottom-up over the SCCs of `sccs`, a function
/// without a direct effect inherits the first effect among its callees.
pub fn propagate(
    ws: &Workspace<'_>,
    sccs: &[Vec<usize>],
    mut reach: Vec<Option<Reach>>,
) -> Vec<Option<Reach>> {
    for scc in sccs {
        loop {
            let mut changed = false;
            for &i in scc {
                if reach[i].is_some() || ws.fns[i].in_test {
                    continue;
                }
                let inherited = ws.fns[i]
                    .calls
                    .iter()
                    .flat_map(|c| c.targets.iter())
                    .find_map(|&t| {
                        let r = reach[t].as_ref()?;
                        let mut via = vec![ws.fns[t].display_name()];
                        via.extend(r.via.iter().cloned());
                        Some(Reach { via, ..r.clone() })
                    });
                if inherited.is_some() {
                    reach[i] = inherited;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    reach
}

/// Return tags per function: the intra-procedural tags of each body's
/// returned values, grown bottom-up by the return tags of the calls
/// appearing in those values.
fn return_tags(
    ws: &Workspace<'_>,
    sccs: &[Vec<usize>],
    files: &[FileInput<'_>],
    flows: &[Option<FnFlow>],
) -> Vec<Tags> {
    let tags_with = |i: usize, call_rets: &BTreeMap<usize, Tags>| -> Tags {
        let f = &ws.fns[i];
        match (flows[i].as_ref(), f.def.body.as_ref()) {
            (Some(flow), Some(body)) => {
                dataflow::return_tags(files[f.file].toks, body, flow, call_rets)
            }
            _ => 0,
        }
    };
    let mut tags: Vec<Tags> = (0..ws.fns.len())
        .map(|i| tags_with(i, &BTreeMap::new()))
        .collect();
    for scc in sccs {
        loop {
            let mut changed = false;
            for &i in scc {
                let call_rets = call_return_tags(ws, &tags, i);
                if call_rets.is_empty() {
                    continue;
                }
                let grown = tags[i] | tags_with(i, &call_rets);
                changed |= grown != tags[i];
                tags[i] = grown;
            }
            if !changed {
                break;
            }
        }
    }
    tags
}

/// Per-caller map from call-site `paren_open` token to the union of the
/// targets' return tags — the seed for the caller's phase-2 dataflow.
pub fn call_return_tags(ws: &Workspace<'_>, tags: &[Tags], fn_id: usize) -> BTreeMap<usize, Tags> {
    let mut map = BTreeMap::new();
    for c in &ws.fns[fn_id].calls {
        let ret = c.targets.iter().fold(0, |acc, &t| acc | tags[t]);
        if ret != 0 {
            map.insert(c.site.paren_open, ret);
        }
    }
    map
}

/// The allocating shape whose first token is `toks[i]`, if any:
/// `vec![…]`/`format!(…)`, an allocating constructor (`Vec::new(`,
/// `String::from(`, … — a `::<T>` turbofish is tolerated), or a copying
/// `.to_vec()`/`.to_owned()`/`.to_string()`. `.clone()` is not one (see
/// the module docs).
pub fn alloc_shape(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next_is = |j: usize, p: &str| toks.get(j).is_some_and(|n| is_punct(n, p));
    if matches!(t.text.as_str(), "vec" | "format") && next_is(i + 1, "!") {
        return Some(format!("{}!", t.text));
    }
    if i > 0
        && is_punct(&toks[i - 1], ".")
        && matches!(t.text.as_str(), "to_vec" | "to_owned" | "to_string")
        && next_is(i + 1, "(")
    {
        return Some(format!(".{}()", t.text));
    }
    if !matches!(t.text.as_str(), "Vec" | "Box" | "String" | "VecDeque") || !next_is(i + 1, "::") {
        return None;
    }
    let mut j = i + 2;
    if next_is(j, "<") {
        // Turbofish: skip to the matching `>` (`>>` closes two levels).
        let mut depth = 0i32;
        while let Some(n) = toks.get(j) {
            depth += match n.text.as_str() {
                "<" => 1,
                ">" => -1,
                ">>" => -2,
                _ => 0,
            };
            j += 1;
            if depth <= 0 {
                break;
            }
        }
        if !next_is(j, "::") {
            return None;
        }
        j += 1;
    }
    let ctor = toks.get(j)?;
    (ctor.kind == TokKind::Ident
        && matches!(ctor.text.as_str(), "new" | "with_capacity" | "from")
        && next_is(j + 1, "("))
    .then(|| format!("{}::{}", t.text, ctor.text))
}

/// Tarjan's SCC algorithm over the call graph, iterative to keep deep
/// call chains off the native stack. Emission order is bottom-up: every
/// SCC is produced after all SCCs it has edges into.
pub fn tarjan(ws: &Workspace<'_>) -> Vec<Vec<usize>> {
    let n = ws.fns.len();
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, edge cursor over flattened targets).
    let succs: Vec<Vec<usize>> = ws
        .fns
        .iter()
        .map(|f| {
            let mut out: Vec<usize> = f.calls.iter().flat_map(|c| c.targets.clone()).collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(&w) = succs[v].get(*cursor) {
                *cursor += 1;
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                // `v` is on the stack by construction, so the pop loop
                // terminates at `w == v`; an empty stack would be a
                // Tarjan invariant violation and simply ends the SCC.
                let mut scc = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                scc.sort_unstable();
                sccs.push(scc);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;
    use crate::lints::{test_mask, FileKind};
    use crate::symbols;

    struct Built {
        toks: Vec<crate::lexer::Token>,
        mask: Vec<bool>,
        ast: crate::ast::Ast,
    }

    fn build_one(src: &str) -> Built {
        let lx = lex(src);
        let mask = test_mask(&lx.tokens, FileKind::Lib);
        let ast = parse(&lx.tokens, &mask);
        Built {
            toks: lx.tokens,
            mask,
            ast,
        }
    }

    /// One function's summary, gathered from the parallel vectors.
    struct FnSummary {
        lock: Option<Reach>,
        block: Option<Reach>,
        alloc: Option<Reach>,
        returns_tags: Tags,
    }

    fn summaries_for(src: &str) -> (Vec<String>, Vec<FnSummary>) {
        let b = build_one(src);
        let files = vec![FileInput {
            path: "crates/sim/src/lib.rs",
            crate_dir: "sim",
            kind: FileKind::Lib,
            toks: &b.toks,
            in_test: &b.mask,
            ast: &b.ast,
        }];
        let ws = symbols::build(&files);
        let flows: Vec<Option<FnFlow>> = ws
            .fns
            .iter()
            .map(|f| {
                let (toks, mask) = (files[f.file].toks, files[f.file].in_test);
                dataflow::analyze_with(toks, mask, f.def, &BTreeMap::new(), true)
            })
            .collect();
        let names = ws.fns.iter().map(|f| f.display_name()).collect();
        let s = summarize(&ws, &files, &flows);
        let sums = (0..ws.fns.len())
            .map(|i| FnSummary {
                lock: s.lock[i].clone(),
                block: s.block[i].clone(),
                alloc: s.alloc[i].clone(),
                returns_tags: s.returns_tags[i],
            })
            .collect();
        (names, sums)
    }

    fn sum_of<'s>(names: &[String], sums: &'s [FnSummary], name: &str) -> &'s FnSummary {
        let i = names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no fn {name}"));
        &sums[i]
    }

    #[test]
    fn alloc_effect_propagates_two_calls_deep_with_chain() {
        let (names, sums) = summaries_for(
            "pub fn deep() -> Vec<u64> { Vec::new() }\n\
             pub fn mid() -> Vec<u64> { deep() }\n\
             pub fn top() -> Vec<u64> { mid() }\n",
        );
        let deep = sum_of(&names, &sums, "deep");
        assert_eq!(
            deep.alloc.as_ref().map(|a| a.what.as_str()),
            Some("Vec::new")
        );
        assert!(deep.alloc.as_ref().is_some_and(|a| a.via.is_empty()));
        let top = sum_of(&names, &sums, "top");
        let a = top.alloc.as_ref().expect("alloc reaches top");
        assert_eq!(a.what, "Vec::new");
        assert_eq!(a.via, vec!["mid".to_owned(), "deep".to_owned()]);
    }

    #[test]
    fn clone_is_not_a_summarized_allocation() {
        let (names, sums) = summaries_for(
            "pub fn copies(xs: &[u64]) -> u64 { let ys = xs.first().cloned(); ys.unwrap_or(0) }\n\
             pub fn cloner(s: &str) -> u64 { let t = s.clone(); t.len() as u64 }\n",
        );
        assert!(sum_of(&names, &sums, "cloner").alloc.is_none());
        assert!(sum_of(&names, &sums, "copies").alloc.is_none());
    }

    #[test]
    fn lock_and_blocking_effects_cross_function_boundaries() {
        let (names, sums) = summaries_for(
            "use std::sync::Mutex;\n\
             pub struct P { inner: Mutex<u64> }\n\
             impl P {\n\
                 pub fn bump(&self) -> u64 { let g = self.inner.lock().unwrap(); *g + 1 }\n\
                 pub fn outer(&self) -> u64 { self.bump() }\n\
             }\n\
             pub fn waits(rx: &std::sync::mpsc::Receiver<u64>) -> u64 { rx.recv().unwrap_or(0) }\n\
             pub fn calls_waits(rx: &std::sync::mpsc::Receiver<u64>) -> u64 { waits(rx) }\n",
        );
        let direct = |r: &Option<Reach>| r.as_ref().is_some_and(|r| r.via.is_empty());
        let transitive = |r: &Option<Reach>| r.as_ref().is_some_and(|r| !r.via.is_empty());
        let bump = sum_of(&names, &sums, "P::bump");
        assert!(direct(&bump.lock));
        let outer = sum_of(&names, &sums, "P::outer");
        assert!(transitive(&outer.lock), "lock effect is transitive");
        let waits = sum_of(&names, &sums, "waits");
        assert!(direct(&waits.block));
        let cw = sum_of(&names, &sums, "calls_waits");
        assert!(transitive(&cw.block), "blocking effect is transitive");
        assert!(cw
            .block
            .as_ref()
            .is_some_and(|r| r.via.contains(&"waits".to_owned())));
    }

    #[test]
    fn return_tags_transfer_through_calls() {
        let (names, sums) = summaries_for(
            "pub fn current_cycle(cycle: u64) -> u64 { cycle }\n\
             pub fn relayed(cycle: u64) -> u64 { let c = current_cycle(cycle); c }\n",
        );
        let direct = sum_of(&names, &sums, "current_cycle");
        assert_ne!(direct.returns_tags & dataflow::TAG_CYCLE, 0);
        let relayed = sum_of(&names, &sums, "relayed");
        assert_ne!(
            relayed.returns_tags & dataflow::TAG_CYCLE,
            0,
            "tags flow through the call and back out"
        );
    }

    #[test]
    fn recursive_scc_reaches_a_fixpoint() {
        let (names, sums) = summaries_for(
            "pub fn ping(n: u64) -> Vec<u64> { if n == 0 { Vec::new() } else { pong(n - 1) } }\n\
             pub fn pong(n: u64) -> Vec<u64> { ping(n) }\n",
        );
        assert!(sum_of(&names, &sums, "ping").alloc.is_some());
        assert!(sum_of(&names, &sums, "pong").alloc.is_some());
    }
}
