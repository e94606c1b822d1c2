//! Per-function basic-block control-flow graphs over the raw token
//! stream, for the flow-sensitive index-bounds rule.
//!
//! The builder walks a function body (the token range recorded by the
//! parser in [`crate::ast::BodyFacts`]) and assigns every token to a
//! basic block, splitting at the constructs the lints care about:
//! `if`/`else if`/`else` chains, `match` arms, `for`/`while`/`loop`
//! bodies (with back edges), and the early exits `return`/`break`/
//! `continue`. Anything the walker cannot follow stays in the current
//! block — the same under-matching posture as the parser: a token the
//! builder mislabels can only land in a block with *more* dominators
//! than the truth, never fewer findings' worth of evidence (see below).
//!
//! On the block graph the module computes dominator sets (iterative
//! bit-set dataflow) and answers one question: does the block holding
//! token A dominate the block holding token B (`dominates`). Loops are
//! recorded once, by the parser ([`crate::ast::LoopSite`]); the walker
//! here only needs their bodies and back edges.
//!
//! Conservatism: dominance is used to *kill* findings (a dominating
//! bound check clears an index site), and killing is the safe,
//! under-reporting direction. Unreachable blocks (code after `return`,
//! or a branch the walker orphaned) keep the ⊤ dominator set, so
//! evidence anywhere clears sites inside them — degrading to the old
//! flow-insensitive behavior rather than inventing findings.

use crate::ast::{find_body_open, BodyFacts};
use crate::lexer::{is_ident, is_open, is_punct, matching, stmt_end, TokKind, Token};

/// A function body's control-flow graph with dominator sets.
#[derive(Debug)]
pub struct Cfg {
    /// Token index of the body's `{`.
    open: usize,
    /// Token index of the body's `}`.
    close: usize,
    /// Block id per token offset from `open`.
    label: Vec<u32>,
    /// Dominator bit sets, one `Vec<u64>` row per block; empty when the
    /// block cap was exceeded.
    dom: Vec<Vec<u64>>,
}

/// Blocks past this count abandon flow sensitivity for the function:
/// every dominance query answers `true` (the flow-insensitive, finding-
/// killing default). No workspace function comes close.
const MAX_BLOCKS: usize = 4096;

/// Loop context during the walk: where `continue` and `break` go.
#[derive(Clone, Copy)]
struct LoopCtx {
    header: u32,
    exit: u32,
}

struct Builder<'a> {
    toks: &'a [Token],
    open: usize,
    close: usize,
    label: Vec<u32>,
    preds: Vec<Vec<u32>>,
}

/// Block id 0 is the entry; block 1 the virtual exit.
const ENTRY: u32 = 0;
const EXIT: u32 = 1;

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> u32 {
        self.preds.push(Vec::new());
        (self.preds.len() - 1) as u32
    }

    fn edge(&mut self, from: u32, to: u32) {
        let p = &mut self.preds[to as usize];
        if !p.contains(&from) {
            p.push(from);
        }
    }

    fn set(&mut self, tok: usize, blk: u32) {
        if tok >= self.open && tok <= self.close {
            self.label[tok - self.open] = blk;
        }
    }

    fn label_range(&mut self, from: usize, to: usize, blk: u32) {
        for k in from..to.min(self.close + 1) {
            self.set(k, blk);
        }
    }

    /// Walks `[i, end)` as a statement sequence in block `cur`; returns
    /// the block control falls out of.
    fn walk(&mut self, mut i: usize, end: usize, mut cur: u32, lctx: Option<LoopCtx>) -> u32 {
        while i < end {
            let t = &self.toks[i];
            let prev_dot = i > 0 && is_punct(&self.toks[i - 1], ".");
            if t.kind == TokKind::Ident && !prev_dot {
                match t.text.as_str() {
                    "if" => {
                        let (next, out) = self.walk_if(i, end, cur, lctx);
                        cur = out;
                        i = next;
                        continue;
                    }
                    "match" => {
                        if let Some((next, out)) = self.walk_match(i, end, cur, lctx) {
                            cur = out;
                            i = next;
                            continue;
                        }
                    }
                    "for" | "while" | "loop" => {
                        if let Some((next, out)) = self.walk_loop(i, end, cur) {
                            cur = out;
                            i = next;
                            continue;
                        }
                    }
                    "return" => {
                        // Label to the statement end, edge to exit, and
                        // fall into a fresh (initially unreachable)
                        // block for whatever follows.
                        let stop = self.stmt_end(i, end);
                        self.label_range(i, stop, cur);
                        self.edge(cur, EXIT);
                        cur = self.new_block();
                        i = stop;
                        continue;
                    }
                    "break" | "continue" => {
                        let stop = self.stmt_end(i, end);
                        self.label_range(i, stop, cur);
                        if let Some(ctx) = lctx {
                            let to = if t.text == "break" {
                                ctx.exit
                            } else {
                                ctx.header
                            };
                            self.edge(cur, to);
                        }
                        cur = self.new_block();
                        i = stop;
                        continue;
                    }
                    _ => {}
                }
            }
            if is_punct(t, "{") {
                // A plain block / struct literal / closure body: same
                // block, recurse for nested control flow.
                let close = match matching(self.toks, i) {
                    Some(c) if c <= end => c,
                    _ => {
                        self.set(i, cur);
                        i += 1;
                        continue;
                    }
                };
                self.set(i, cur);
                self.set(close, cur);
                cur = self.walk(i + 1, close, cur, lctx);
                i = close + 1;
                continue;
            }
            self.set(i, cur);
            i += 1;
        }
        cur
    }

    /// Index just past the `;` ending the statement at `i` (or `end`).
    fn stmt_end(&self, i: usize, end: usize) -> usize {
        (stmt_end(self.toks, i, end) + 1).min(end)
    }

    /// At the `if` keyword. Returns (index past the construct, join
    /// block).
    fn walk_if(&mut self, i: usize, end: usize, cur: u32, lctx: Option<LoopCtx>) -> (usize, u32) {
        let Some(then_open) = find_body_open(self.toks, i + 1, end) else {
            // `if` we cannot follow: stay in the current block.
            self.set(i, cur);
            return (i + 1, cur);
        };
        let Some(then_close) = matching(self.toks, then_open).filter(|&c| c <= end) else {
            self.set(i, cur);
            return (i + 1, cur);
        };
        // Condition tokens belong to the current block — which is what
        // lets a condition's bound evidence dominate the then-branch.
        self.label_range(i, then_open, cur);
        let then_blk = self.new_block();
        self.edge(cur, then_blk);
        self.set(then_open, then_blk);
        self.set(then_close, then_blk);
        let then_out = self.walk(then_open + 1, then_close, then_blk, lctx);
        let join = self.new_block();
        self.edge(then_out, join);
        let mut next = then_close + 1;
        let has_else = next < end && is_ident(&self.toks[next], "else");
        if has_else {
            self.set(next, cur);
            if next + 1 < end && is_ident(&self.toks[next + 1], "if") {
                // `else if …`: a nested if whose branches join here.
                let (after, out) = self.walk_if(next + 1, end, cur, lctx);
                self.edge(out, join);
                next = after;
            } else if next + 1 < end && is_punct(&self.toks[next + 1], "{") {
                let else_open = next + 1;
                match matching(self.toks, else_open).filter(|&c| c <= end) {
                    Some(else_close) => {
                        let else_blk = self.new_block();
                        self.edge(cur, else_blk);
                        self.set(else_open, else_blk);
                        self.set(else_close, else_blk);
                        let else_out = self.walk(else_open + 1, else_close, else_blk, lctx);
                        self.edge(else_out, join);
                        next = else_close + 1;
                    }
                    None => {
                        self.edge(cur, join);
                        next += 1;
                    }
                }
            } else {
                self.edge(cur, join);
                next += 1;
            }
        } else {
            // No else: control may skip the then-branch entirely.
            self.edge(cur, join);
        }
        (next, join)
    }

    /// At the `match` keyword. Every arm is a block from the scrutinee
    /// block to the join; `None` when the construct cannot be followed.
    fn walk_match(
        &mut self,
        i: usize,
        end: usize,
        cur: u32,
        lctx: Option<LoopCtx>,
    ) -> Option<(usize, u32)> {
        let body_open = find_body_open(self.toks, i + 1, end)?;
        let body_close = matching(self.toks, body_open).filter(|&c| c <= end)?;
        self.label_range(i, body_open + 1, cur);
        self.set(body_close, cur);
        let join = self.new_block();
        let mut a = body_open + 1;
        let mut any_arm = false;
        while a < body_close {
            // Pattern: up to the depth-zero `=>`.
            let pat_start = a;
            let mut pat_end = a;
            let mut found = false;
            while pat_end < body_close {
                let t = &self.toks[pat_end];
                if is_punct(t, "=>") {
                    found = true;
                    break;
                }
                if is_open(t) {
                    pat_end = matching(self.toks, pat_end).map_or(body_close, |c| c + 1);
                    continue;
                }
                pat_end += 1;
            }
            if !found {
                break;
            }
            let arm_blk = self.new_block();
            self.edge(cur, arm_blk);
            self.label_range(pat_start, pat_end + 1, arm_blk);
            // Arm body: a block, or an expression up to the depth-zero
            // comma.
            let mut b = pat_end + 1;
            if b < body_close && is_punct(&self.toks[b], "{") {
                let c = matching(self.toks, b).map_or(body_close, |c| c);
                self.set(b, arm_blk);
                self.set(c, arm_blk);
                let out = self.walk(b + 1, c.min(body_close), arm_blk, lctx);
                self.edge(out, join);
                b = c + 1;
                if b < body_close && is_punct(&self.toks[b], ",") {
                    self.set(b, arm_blk);
                    b += 1;
                }
            } else {
                let expr_start = b;
                while b < body_close {
                    let t = &self.toks[b];
                    if is_punct(t, ",") {
                        break;
                    }
                    if is_open(t) {
                        b = matching(self.toks, b).map_or(body_close, |c| c + 1);
                        continue;
                    }
                    b += 1;
                }
                let out = self.walk(expr_start, b.min(body_close), arm_blk, lctx);
                self.edge(out, join);
                if b < body_close {
                    self.set(b, arm_blk); // the `,`
                    b += 1;
                }
            }
            any_arm = true;
            a = b;
        }
        if !any_arm {
            self.edge(cur, join);
        }
        Some((body_close + 1, join))
    }

    /// At a `for`/`while`/`loop` keyword: header block, body block(s)
    /// with a back edge, and an exit block.
    fn walk_loop(&mut self, i: usize, end: usize, cur: u32) -> Option<(usize, u32)> {
        let body_open = find_body_open(self.toks, i + 1, end)?;
        let body_close = matching(self.toks, body_open).filter(|&c| c <= end)?;
        let header = self.new_block();
        self.edge(cur, header);
        self.label_range(i, body_open + 1, header);
        self.set(body_close, header);
        let exit = self.new_block();
        self.edge(header, exit);
        let body_blk = self.new_block();
        self.edge(header, body_blk);
        let ctx = LoopCtx { header, exit };
        let out = self.walk(body_open + 1, body_close, body_blk, Some(ctx));
        self.edge(out, header);
        Some((body_close + 1, exit))
    }
}

impl Cfg {
    /// Builds the CFG of one function body.
    pub fn build(toks: &[Token], body: &BodyFacts) -> Cfg {
        let open = body.open.min(toks.len().saturating_sub(1));
        let close = body.close.min(toks.len().saturating_sub(1));
        let n_toks = close.saturating_sub(open) + 1;
        let mut b = Builder {
            toks,
            open,
            close,
            label: vec![ENTRY; n_toks],
            preds: vec![Vec::new(), Vec::new()], // entry, exit
        };
        if close > open {
            let out = b.walk(open + 1, close, ENTRY, None);
            b.edge(out, EXIT);
        }
        // Past the block cap `dominates` answers true (see module docs).
        let n = b.preds.len();
        let dom = if n > MAX_BLOCKS {
            Vec::new()
        } else {
            dominators(&b.preds, n.div_ceil(64))
        };
        Cfg {
            open,
            close,
            label: b.label,
            dom,
        }
    }

    /// Block id of a token (entry for tokens outside the body).
    fn block_at(&self, tok: usize) -> usize {
        if tok < self.open || tok > self.close {
            return ENTRY as usize;
        }
        self.label[tok - self.open] as usize
    }

    /// Whether the block holding `a_tok` dominates the block holding
    /// `b_tok`. Degenerate CFGs (block cap exceeded) answer `true` —
    /// the flow-insensitive, finding-killing default.
    pub fn dominates(&self, a_tok: usize, b_tok: usize) -> bool {
        if self.dom.is_empty() {
            return true;
        }
        let a = self.block_at(a_tok);
        let b = self.block_at(b_tok);
        bit(&self.dom[b], a)
    }
}

fn bit(row: &[u64], i: usize) -> bool {
    row.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

/// Iterative dominator sets. Entry is its own singleton; every other
/// block starts at ⊤ and intersects its predecessors' sets until
/// stable, so unreachable blocks keep ⊤ (dominated by everything).
fn dominators(preds: &[Vec<u32>], words: usize) -> Vec<Vec<u64>> {
    let n = preds.len();
    let top = vec![u64::MAX; words];
    let mut dom: Vec<Vec<u64>> = vec![top; n];
    let entry = ENTRY as usize;
    dom[entry] = vec![0; words];
    dom[entry][entry / 64] |= 1 << (entry % 64);
    loop {
        let mut changed = false;
        for b in 0..n {
            if b == entry {
                continue;
            }
            let mut next = vec![u64::MAX; words];
            for &p in &preds[b] {
                for (w, pw) in next.iter_mut().zip(&dom[p as usize]) {
                    *w &= pw;
                }
            }
            next[b / 64] |= 1 << (b % 64);
            if next != dom[b] {
                dom[b] = next;
                changed = true;
            }
        }
        if !changed {
            return dom;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{parse, Item, LoopSite};
    use crate::lexer::lex;
    use crate::lints::test_mask;

    /// Builds the CFG of the first fn in `src` and returns it with the
    /// token stream and the parser's loop list.
    fn cfg_of(src: &str) -> (Vec<Token>, Cfg, Vec<LoopSite>) {
        let lx = lex(src);
        let mask = test_mask(&lx.tokens, crate::FileKind::Lib);
        let ast = parse(&lx.tokens, &mask);
        for it in ast.items {
            if let Item::Fn(f) = it {
                let body = f.body.expect("body");
                let cfg = Cfg::build(&lx.tokens, &body);
                return (lx.tokens, cfg, body.loops);
            }
        }
        panic!("no fn in source");
    }

    /// Token index of the `n`th occurrence of `text` (0-based).
    fn tok_at(toks: &[Token], text: &str, n: usize) -> usize {
        toks.iter()
            .enumerate()
            .filter(|(_, t)| t.text == text)
            .map(|(i, _)| i)
            .nth(n)
            .unwrap_or_else(|| panic!("no occurrence {n} of `{text}`"))
    }

    #[test]
    fn straight_line_is_one_dominating_block() {
        let (toks, cfg, loops) = cfg_of("fn f(a: u64) -> u64 { let b = a; let c = b; c }");
        let b = tok_at(&toks, "b", 0);
        let c = tok_at(&toks, "c", 0);
        assert!(cfg.dominates(b, c));
        assert!(cfg.dominates(c, b), "same block dominates both ways");
        assert!(loops.is_empty());
    }

    #[test]
    fn condition_dominates_then_branch_but_branch_not_join() {
        let (toks, cfg, _) = cfg_of(
            "fn f(n: u64) -> u64 {\n\
                let pre = 1;\n\
                if n > pre {\n\
                    let inside = 2;\n\
                    return inside;\n\
                }\n\
                let after = 3;\n\
                after\n\
             }",
        );
        let pre = tok_at(&toks, "pre", 0);
        let cond_n = tok_at(&toks, "n", 1); // `n` in the condition
        let inside = tok_at(&toks, "inside", 0);
        let after = tok_at(&toks, "after", 0);
        assert!(cfg.dominates(pre, inside), "entry dominates the branch");
        assert!(cfg.dominates(cond_n, inside), "condition dominates then");
        assert!(cfg.dominates(pre, after), "entry dominates the join");
        assert!(
            !cfg.dominates(inside, after),
            "a then-branch must not dominate code after the join"
        );
    }

    #[test]
    fn else_branches_do_not_dominate_each_other() {
        let (toks, cfg, _) = cfg_of(
            "fn f(n: u64) -> u64 {\n\
                let mut out = 0;\n\
                if n > 1 { let a = 1; out += a; } else { let b = 2; out += b; }\n\
                out\n\
             }",
        );
        let a = tok_at(&toks, "a", 0);
        let b = tok_at(&toks, "b", 0);
        let out_last = tok_at(&toks, "out", 3);
        assert!(!cfg.dominates(a, b));
        assert!(!cfg.dominates(b, a));
        assert!(!cfg.dominates(a, out_last), "branch does not dominate join");
    }

    #[test]
    fn match_arms_are_parallel_blocks() {
        let (toks, cfg, _) = cfg_of(
            "fn f(n: u64) -> u64 {\n\
                match n {\n\
                    0 => { let x = 1; x }\n\
                    1 => { let y = 2; y }\n\
                    _ => 0,\n\
                }\n\
             }",
        );
        let x = tok_at(&toks, "x", 0);
        let y = tok_at(&toks, "y", 0);
        let scrutinee = tok_at(&toks, "n", 1);
        assert!(!cfg.dominates(x, y));
        assert!(!cfg.dominates(y, x));
        assert!(cfg.dominates(scrutinee, x), "scrutinee dominates every arm");
        assert!(cfg.dominates(scrutinee, y));
    }

    #[test]
    fn loop_headers_dominate_bodies_and_loops_nest_with_depth() {
        let (toks, cfg, loops) = cfg_of(
            "fn f(n: u64) -> u64 {\n\
                let mut acc = 0;\n\
                for cycle in 0..n {\n\
                    while acc < cycle {\n\
                        acc += 1;\n\
                    }\n\
                }\n\
                acc\n\
             }",
        );
        assert_eq!(loops.len(), 2, "both loops are natural loops");
        let outer = &loops[0];
        assert!(outer.header_idents.contains(&"cycle".to_owned()));
        let acc_in_body = tok_at(&toks, "acc", 2); // acc += 1
        let hdr_cycle = tok_at(&toks, "cycle", 0);
        assert!(
            cfg.dominates(hdr_cycle, acc_in_body),
            "loop header dominates the body"
        );
        let acc_last = tok_at(&toks, "acc", 3); // trailing `acc` expression
        assert!(
            !cfg.dominates(acc_in_body, acc_last),
            "a loop body must not dominate code after the loop"
        );
    }

    #[test]
    fn code_after_return_degrades_to_dominated_by_everything() {
        // Orphaned code keeps the ⊤ dominator set: evidence anywhere
        // kills findings inside it — the safe direction.
        let (toks, cfg, _) = cfg_of(
            "fn f(n: u64) -> u64 {\n\
                if n > 0 { let a = 1; return a; }\n\
                let b = 2;\n\
                b\n\
             }",
        );
        let a = tok_at(&toks, "a", 0);
        let b = tok_at(&toks, "b", 0);
        // `b` is reachable (the if may not fire), so the branch must
        // still not dominate it.
        assert!(!cfg.dominates(a, b));
    }
}
