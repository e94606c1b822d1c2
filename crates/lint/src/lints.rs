//! The lint table, and the file-local rows: project invariants of the
//! TCP reproduction that one file's tokens and AST decide.
//!
//! Every lint is one row of [`LINTS`]: its name, a one-line description,
//! the file kinds and crates it covers, and the remedy every finding's
//! message ends with. Passes only say *what* they found and where; the
//! pipeline drops findings outside the row's scope and appends its
//! remedy, so scope and wording live in exactly one place.
//!
//! No rule has type information, so each is written to under-approximate:
//! nondeterministic iteration tracks names declared as hash containers
//! in the same file rather than guessing at receivers, and the other
//! rows anchor to exact token shapes or parser facts. False negatives are
//! possible; false positives should be rare, and every finding can be
//! waived per site with a justified suppression comment:
//!
//! ```text
//! // tcp-lint: allow(<lint-name>) — <reason>
//! ```
//!
//! A suppression covers findings on its own line and on the line
//! directly below it. A malformed suppression (unknown lint name or a
//! missing reason) is itself reported, as `bad-suppression`.

use crate::ast::{visit_fns, Ast};
use crate::dataflow::{seed_tags, TAG_ADDR, TAG_CYCLE, TAG_TAG};
use crate::lexer::{is_ident, is_punct, matching, Lexed, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

/// Which workspace crates a lint row covers (`crates/<dir>` names; the
/// root package is `""`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Crates {
    /// Every crate.
    All,
    /// Only these crates.
    Only(&'static [&'static str]),
    /// Every crate except these.
    Except(&'static [&'static str]),
}

/// One row of the lint table.
#[derive(Debug)]
pub(crate) struct Lint {
    /// The name findings and waivers use.
    pub(crate) name: &'static str,
    /// One-line description, for `--list-lints` and SARIF rules.
    pub(crate) about: &'static str,
    /// File kinds the row reports in.
    kinds: &'static [FileKind],
    /// Crates the row reports in.
    crates: Crates,
    /// The remedy appended to every finding's message.
    remedy: &'static str,
}

impl Lint {
    /// Whether this row reports in a file of `kind` in crate `crate_dir`.
    pub(crate) fn covers(&self, kind: FileKind, crate_dir: &str) -> bool {
        self.kinds.contains(&kind)
            && match self.crates {
                Crates::All => true,
                Crates::Only(list) => list.contains(&crate_dir),
                Crates::Except(list) => !list.contains(&crate_dir),
            }
    }

    /// A finding of this lint at `path:line:col`: `what` is wrong, and
    /// the row's remedy says what to do. The snippet is filled in by the
    /// pipeline, which holds the source.
    pub(crate) fn at(
        &'static self,
        path: &str,
        line: u32,
        col: u32,
        what: impl Display,
    ) -> Finding {
        Finding {
            lint: self.name,
            path: path.to_owned(),
            line,
            col,
            message: format!("{what}; {}", self.remedy),
            snippet: String::new(),
        }
    }
}

/// Every build role: test files are masked token by token instead.
const ANY: &[FileKind] = &[
    FileKind::Lib,
    FileKind::Bin,
    FileKind::Test,
    FileKind::Example,
];
/// Library and binary code: the dataflow rows' scope (examples are demo
/// code outside the determinism/robustness contract).
const CODE: &[FileKind] = &[FileKind::Lib, FileKind::Bin];
/// Library code only.
const LIB: &[FileKind] = &[FileKind::Lib];
/// The perf harness: a measurement binary that times real executions,
/// with no typed-error API of its own.
const PERF: &[&str] = &["perf"];

pub(crate) const NONDET_ITERATION: Lint = Lint {
    name: "nondet-iteration",
    about: "iteration over a hash-ordered container in simulator code",
    kinds: ANY,
    crates: Crates::All,
    remedy: "use BTreeMap/BTreeSet, or collect and sort before iterating",
};
pub(crate) const WALL_CLOCK_IN_SIM: Lint = Lint {
    name: "wall-clock-in-sim",
    about: "wall-clock time or ambient randomness outside the perf crate",
    kinds: ANY,
    crates: Crates::Except(PERF),
    remedy: "simulated time and seeded RNGs only (the perf harness in crates/perf is the sole \
             exception)",
};
pub(crate) const PANIC_IN_LIBRARY: Lint = Lint {
    name: "panic-in-library",
    about: "panic/unwrap/expect in library code of a typed-error crate",
    kinds: LIB,
    crates: Crates::Except(PERF),
    remedy: "return the crate's error type, or justify the invariant with a suppression",
};
pub(crate) const LOSSY_CYCLE_CAST: Lint = Lint {
    name: "lossy-cycle-cast",
    about: "truncating cast of a cycle/addr/tag quantity",
    kinds: ANY,
    crates: Crates::All,
    remedy: "keep u64 end to end, use `TryFrom`, or mask explicitly before casting",
};
pub(crate) const FLOAT_ACCUM_IN_HOT_LOOP: Lint = Lint {
    name: "float-accum-in-hot-loop",
    about: "floating-point accumulation inside a per-cycle loop",
    kinds: ANY,
    crates: Crates::All,
    remedy: "accumulate in integers and convert once at reporting time",
};
pub(crate) const MISSING_FORBID_UNSAFE: Lint = Lint {
    name: "missing-forbid-unsafe",
    about: "crate root missing #![forbid(unsafe_code)]",
    kinds: ANY,
    crates: Crates::All,
    remedy: "every workspace library crate must forbid unsafe code",
};
pub(crate) const BAD_SUPPRESSION: Lint = Lint {
    name: "bad-suppression",
    about: "malformed or unjustified tcp-lint suppression comment",
    kinds: ANY,
    crates: Crates::All,
    remedy: "write `// tcp-lint: allow(<lint-name>) — <reason>` with a known lint name",
};
pub(crate) const PANIC_REACHABILITY: Lint = Lint {
    name: "panic-reachability",
    about: "public API transitively reaches a panic through the call graph",
    kinds: LIB,
    crates: Crates::Only(&["cache", "cpu", "sim"]),
    remedy: "return a typed error, or waive panic-reachability at the panic site with the \
             invariant that makes it unreachable",
};
pub(crate) const STAT_CONSERVATION: Lint = Lint {
    name: "stat-conservation",
    about: "a *Stats counter that is never mutated or never read",
    kinds: LIB,
    crates: Crates::All,
    remedy: "every `*Stats` field must flow from an increment to a report (or carry a waiver)",
};
pub(crate) const EXHAUSTIVE_DISPATCH: Lint = Lint {
    name: "exhaustive-dispatch",
    about: "wildcard match arm hiding variants of a closed workspace enum",
    kinds: ANY,
    crates: Crates::All,
    remedy: "enumerate them so a new variant fails to compile instead of silently falling \
             through",
};
pub(crate) const LOCK_DISCIPLINE: Lint = Lint {
    name: "lock-discipline",
    about: "guard held across a locking or blocking call, or a same-mutex re-lock",
    kinds: CODE,
    crates: Crates::All,
    remedy: "drop or scope the guard first",
};
pub(crate) const OVERFLOW_PROVENANCE: Lint = Lint {
    name: "overflow-provenance",
    about: "unchecked arithmetic on cycle/addr/tag/stat-tagged values",
    kinds: CODE,
    crates: Crates::All,
    remedy: "use `wrapping_*`/`checked_*` to state the intent, or waive with the bound that \
             rules the overflow out",
};
pub(crate) const INDEX_BOUNDS: Lint = Lint {
    name: "index-bounds",
    about: "composite index expression without a dominating bound check",
    kinds: CODE,
    crates: Crates::All,
    remedy: "assert the bound first, bind the index to a name and check it, or waive with the \
             invariant that bounds it",
};
pub(crate) const NONDET_TAINT: Lint = Lint {
    name: "nondet-taint",
    about: "worker/thread identity flowing into results or stats",
    kinds: CODE,
    crates: Crates::All,
    remedy: "results and reported statistics must not depend on which worker computed them — \
             derive the value from the job, not the worker",
};
pub(crate) const ALLOC_IN_HOT_LOOP: Lint = Lint {
    name: "alloc-in-hot-loop",
    about: "allocation (direct or via callees) inside a cycle/chunk hot loop",
    kinds: CODE,
    crates: Crates::Only(&["cache", "cpu", "sim", "analysis"]),
    remedy: "hot-path loops must reuse buffers (TraceChunk/BoundedRing contract); hoist the \
             allocation out of the loop, pre-reserve, or restructure the callee",
};
pub(crate) const SWALLOWED_ERROR: Lint = Lint {
    name: "swallowed-error",
    about: "workspace Result discarded without the error reaching any sink",
    kinds: CODE,
    crates: Crates::All,
    remedy: "the error never reaches a return, a stat, or the quarantine log; propagate it \
             with `?`, record it, or waive with the reason the failure is benign",
};
pub(crate) const UNBOUNDED_GROWTH_IN_STREAM: Lint = Lint {
    name: "unbounded-growth-in-stream",
    about: "streaming struct field grown in a loop and never drained",
    kinds: CODE,
    crates: Crates::All,
    remedy: "memory stays resident for the whole replay; bound it (BoundedRing) or add a \
             drain path",
};

/// The lint table, in stable order: the file-local rows, then the
/// workspace rows of the semantic stage, then those of the dataflow
/// stage.
pub(crate) const LINTS: [&Lint; 17] = [
    &NONDET_ITERATION,
    &WALL_CLOCK_IN_SIM,
    &PANIC_IN_LIBRARY,
    &LOSSY_CYCLE_CAST,
    &FLOAT_ACCUM_IN_HOT_LOOP,
    &MISSING_FORBID_UNSAFE,
    &BAD_SUPPRESSION,
    &PANIC_REACHABILITY,
    &STAT_CONSERVATION,
    &EXHAUSTIVE_DISPATCH,
    &LOCK_DISCIPLINE,
    &OVERFLOW_PROVENANCE,
    &INDEX_BOUNDS,
    &NONDET_TAINT,
    &ALLOC_IN_HOT_LOOP,
    &SWALLOWED_ERROR,
    &UNBOUNDED_GROWTH_IN_STREAM,
];

/// Every lint name, in table order.
pub const ALL_LINTS: [&str; LINTS.len()] = {
    let mut names = [""; LINTS.len()];
    let mut i = 0;
    while i < LINTS.len() {
        names[i] = LINTS[i].name;
        i += 1;
    }
    names
};

/// The table row named `name`.
pub(crate) fn lint_row(name: &str) -> Option<&'static Lint> {
    LINTS.iter().copied().find(|l| l.name == name)
}

/// One-line description of a lint, for `--list-lints` and the SARIF
/// rules table; empty for an unknown name.
pub fn lint_about(name: &str) -> &'static str {
    lint_row(name).map_or("", |l| l.about)
}

/// Identifiers that mean wall-clock time or ambient randomness.
const WALL_CLOCK_IDENTS: [&str; 6] = [
    "Instant",
    "SystemTime",
    "ThreadRng",
    "thread_rng",
    "RandomState",
    "getrandom",
];

/// Hash-container methods whose visit order is nondeterministic.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Cast targets narrower than the u64 cycle/address domain.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// How a file participates in the build, which decides lint scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/*.rs` except `main.rs`/`src/bin`).
    Lib,
    /// Binary source (`src/main.rs`, `src/bin/*.rs`).
    Bin,
    /// Integration test (`tests/*.rs`).
    Test,
    /// Example (`examples/*.rs`).
    Example,
}

/// Where a file sits in the workspace; drives which lints apply.
#[derive(Clone, Debug)]
pub struct FileSpec<'a> {
    /// Display path (workspace-relative).
    pub path: &'a str,
    /// `crates/<dir>` component, or `""` for the root package.
    pub crate_dir: &'a str,
    /// Build role of the file.
    pub kind: FileKind,
    /// `true` for a crate's `src/lib.rs`.
    pub crate_root: bool,
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Lint name (one of [`ALL_LINTS`]).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// The file-local rows over one lexed, test-masked and parsed file,
/// unfiltered: `bad` are the malformed directives of the file.
pub(crate) fn file_rows(
    spec: &FileSpec<'_>,
    toks: &[Token],
    in_test: &[bool],
    ast: &Ast,
    bad: &[(u32, String)],
) -> Vec<Finding> {
    let mut out: Vec<Finding> = bad
        .iter()
        .map(|(line, why)| {
            BAD_SUPPRESSION.at(
                spec.path,
                *line,
                1,
                format!("unusable tcp-lint suppression: {why}"),
            )
        })
        .collect();
    let code = |i: usize| !in_test[i];
    let hashed = hash_container_names(toks);
    for (i, t) in toks.iter().enumerate() {
        if !code(i) || t.kind != TokKind::Ident {
            continue;
        }
        if hashed.contains(&t.text) {
            out.extend(nondet_iteration(spec.path, toks, i));
        }
        if WALL_CLOCK_IDENTS.contains(&t.text.as_str()) {
            let what = format!(
                "`{}` injects wall-clock time or ambient randomness into simulation code",
                t.text
            );
            out.push(WALL_CLOCK_IN_SIM.at(spec.path, t.line, t.col, what));
        }
        if t.text == "as" {
            out.extend(lossy_cast(spec.path, toks, i));
        }
    }
    let floats = float_names(toks);
    for fr in visit_fns(ast) {
        let Some(body) = fr.f.body.as_ref() else {
            continue;
        };
        for p in body.panics.iter().filter(|p| code(p.tok)) {
            let t = &toks[p.tok];
            let what = if p.what == "unwrap" || p.what == "expect" {
                format!(
                    "`.{}()` can panic in library code of a typed-error crate",
                    p.what
                )
            } else {
                format!("`{}!` aborts library code of a typed-error crate", p.what)
            };
            out.push(PANIC_IN_LIBRARY.at(spec.path, t.line, t.col, what));
        }
        for lp in body.loops.iter().filter(|lp| lp.is_hot()) {
            for k in lp.body_open + 1..lp.body_close {
                if code(k)
                    && is_punct(&toks[k], "+=")
                    && float_accum(toks, k, lp.body_close, &floats)
                {
                    let what = "floating-point accumulation inside a per-cycle loop loses \
                                precision as the run grows";
                    out.push(FLOAT_ACCUM_IN_HOT_LOOP.at(
                        spec.path,
                        toks[k].line,
                        toks[k].col,
                        what,
                    ));
                }
            }
        }
    }
    if spec.crate_root && !forbids_unsafe(toks) {
        let what = "crate root is missing `#![forbid(unsafe_code)]`";
        out.push(MISSING_FORBID_UNSAFE.at(spec.path, 1, 1, what));
    }
    out
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items (and whole test
/// files) so test-only code is exempt from the code lints.
pub(crate) fn test_mask(toks: &[Token], kind: FileKind) -> Vec<bool> {
    let mut mask = vec![kind == FileKind::Test; toks.len()];
    if kind == FileKind::Test {
        return mask;
    }
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(is_punct(&toks[i], "#") && is_punct(&toks[i + 1], "[")) {
            i += 1;
            continue;
        }
        let attr_end = match matching(toks, i + 1) {
            Some(e) => e,
            None => break,
        };
        let body = &toks[i + 2..attr_end];
        let mentions_test = body.iter().any(|t| is_ident(t, "test"));
        let negated = body.iter().any(|t| is_ident(t, "not"));
        if !mentions_test || negated {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = attr_end + 1;
        while j + 1 < toks.len() && is_punct(&toks[j], "#") && is_punct(&toks[j + 1], "[") {
            match matching(toks, j + 1) {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        // The item extends to its closing brace, or to `;` for items
        // without a body (`mod tests;`).
        let mut end = j;
        while end < toks.len() {
            if is_punct(&toks[end], ";") {
                break;
            }
            if is_punct(&toks[end], "{") {
                end = matching(toks, end).unwrap_or(toks.len() - 1);
                break;
            }
            end += 1;
        }
        let stop = end.min(toks.len() - 1);
        for m in mask.iter_mut().take(stop + 1).skip(i) {
            *m = true;
        }
        i = stop + 1;
    }
    mask
}

/// Parsed suppressions: line → lint names waived on that line and the
/// next.
pub(crate) type Suppressions = BTreeMap<u32, Vec<String>>;

/// Directive line of a suppression naming one of `lints` that covers
/// `line`, if any (a directive covers its own line and the line directly
/// below it).
pub(crate) fn suppressed_by(sups: &Suppressions, lints: &[&str], line: u32) -> Option<u32> {
    let hit = |l: u32| {
        sups.get(&l)
            .is_some_and(|names| names.iter().any(|n| lints.contains(&n.as_str())))
    };
    if hit(line) {
        Some(line)
    } else if line > 1 && hit(line - 1) {
        Some(line - 1)
    } else {
        None
    }
}

/// Everything the directive scan learns about one file.
pub(crate) struct ParsedDirectives {
    /// Active suppressions by line.
    pub(crate) sups: Suppressions,
    /// Well-formed waivers: (line, lint names, justification text).
    pub(crate) waivers: Vec<(u32, Vec<String>, String)>,
    /// Malformed directives: (line, what is wrong).
    pub(crate) bad: Vec<(u32, String)>,
}

/// Parses `tcp-lint: allow(...)` comments. Well-formed directives become
/// suppressions (and waiver records for the `--waivers` report);
/// malformed ones (bad syntax, unknown lint, missing reason) are
/// reported as `bad-suppression`. Comments that mention tcp-lint without
/// `: allow` are prose and ignored.
pub(crate) fn scan_directives(lx: &Lexed) -> ParsedDirectives {
    let mut parsed = ParsedDirectives {
        sups: Suppressions::new(),
        waivers: Vec::new(),
        bad: Vec::new(),
    };
    for d in &lx.directives {
        // Doc comments are documentation — only plain comments suppress.
        let doc = d.text.starts_with("///")
            || d.text.starts_with("//!")
            || d.text.starts_with("/**")
            || d.text.starts_with("/*!");
        if doc {
            continue;
        }
        match classify_directive(&d.text) {
            DirectiveParse::NotADirective => {}
            DirectiveParse::Malformed(why) => parsed.bad.push((d.line, why)),
            DirectiveParse::Allow(names, reason) => {
                parsed.sups.entry(d.line).or_default().extend(names.clone());
                parsed.waivers.push((d.line, names, reason));
            }
        }
    }
    parsed
}

enum DirectiveParse {
    NotADirective,
    Malformed(String),
    Allow(Vec<String>, String),
}

fn classify_directive(text: &str) -> DirectiveParse {
    let Some(pos) = text.find("tcp-lint") else {
        return DirectiveParse::NotADirective;
    };
    let rest = text[pos + "tcp-lint".len()..].trim_start();
    let Some(rest) = rest.strip_prefix(':') else {
        return DirectiveParse::NotADirective;
    };
    let rest = rest.trim_start();
    if !rest.starts_with("allow") {
        // Prose like "tcp-lint: a custom linter" — not a directive.
        return DirectiveParse::NotADirective;
    }
    let rest = rest["allow".len()..].trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return DirectiveParse::Malformed("expected `allow(<lint-name>)`".to_owned());
    };
    let Some((names_str, tail)) = rest.split_once(')') else {
        return DirectiveParse::Malformed("unclosed `allow(` list".to_owned());
    };
    let mut names = Vec::new();
    for raw in names_str.split(',') {
        let name = raw.trim();
        if name.is_empty() {
            return DirectiveParse::Malformed("empty lint name in allow(...)".to_owned());
        }
        if !ALL_LINTS.contains(&name) {
            return DirectiveParse::Malformed(format!("unknown lint `{name}`"));
        }
        names.push(name.to_owned());
    }
    // A reason is mandatory: some text with at least one alphanumeric
    // character after the closing paren (conventionally "— why").
    let has_reason = tail.chars().filter(|c| c.is_alphanumeric()).count() >= 3;
    if !has_reason {
        return DirectiveParse::Malformed("missing justification".to_owned());
    }
    let reason = tail
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
        .trim_end()
        .trim_end_matches("*/")
        .trim_end()
        .to_owned();
    DirectiveParse::Allow(names, reason)
}

/// Names in this file declared (or annotated) as `HashMap`/`HashSet`:
/// `name: HashMap<…>`, `name: &HashMap<…>`, `name = HashMap::new()`.
fn hash_container_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if !(is_ident(&toks[i], "HashMap") || is_ident(&toks[i], "HashSet")) {
            continue;
        }
        // Walk back over a `std :: collections ::` path prefix.
        let mut j = i;
        while j >= 2 && is_punct(&toks[j - 1], "::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        // Skip reference/mutability noise between the binder and type.
        let mut k = j;
        while k >= 1 && (is_punct(&toks[k - 1], "&") || is_ident(&toks[k - 1], "mut")) {
            k -= 1;
        }
        if k >= 2
            && (is_punct(&toks[k - 1], ":") || is_punct(&toks[k - 1], "="))
            && toks[k - 2].kind == TokKind::Ident
        {
            names.insert(toks[k - 2].text.clone());
        }
    }
    names
}

/// A nondeterministic visit of the hash container named by `toks[i]`:
/// `name.iter()`-style calls, or `for … in [&[mut]] [self.]name`.
fn nondet_iteration(path: &str, toks: &[Token], i: usize) -> Option<Finding> {
    let name = &toks[i].text;
    if i + 3 < toks.len()
        && is_punct(&toks[i + 1], ".")
        && toks[i + 2].kind == TokKind::Ident
        && ITER_METHODS.contains(&toks[i + 2].text.as_str())
        && is_punct(&toks[i + 3], "(")
    {
        let m = &toks[i + 2];
        let what = format!(
            "`{name}.{}()` visits a hash-ordered container in nondeterministic order",
            m.text
        );
        return Some(NONDET_ITERATION.at(path, m.line, m.col, what));
    }
    let mut j = i;
    while j >= 2 && is_punct(&toks[j - 1], ".") && toks[j - 2].kind == TokKind::Ident {
        j -= 2;
    }
    while j >= 1 && (is_punct(&toks[j - 1], "&") || is_ident(&toks[j - 1], "mut")) {
        j -= 1;
    }
    (j >= 1 && is_ident(&toks[j - 1], "in")).then(|| {
        let what = format!(
            "`for … in {name}` iterates a hash-ordered container in nondeterministic order"
        );
        NONDET_ITERATION.at(path, toks[i].line, toks[i].col, what)
    })
}

/// `operand as <narrow int>` at the `as` token `toks[i]`, where the
/// operand is named as a cycle/address/tag quantity (exact snake_case
/// components, so `stage` and `percentage` are not tags).
fn lossy_cast(path: &str, toks: &[Token], i: usize) -> Option<Finding> {
    let operand = &toks[i.checked_sub(1)?];
    let target = toks.get(i + 1)?;
    let narrow = target.kind == TokKind::Ident && NARROW_INTS.contains(&target.text.as_str());
    let quantity = operand.kind == TokKind::Ident
        && seed_tags(&operand.text) & (TAG_CYCLE | TAG_ADDR | TAG_TAG) != 0;
    (narrow && quantity).then(|| {
        let what = format!(
            "`{} as {}` truncates a cycle/address/tag quantity",
            operand.text, target.text
        );
        LOSSY_CYCLE_CAST.at(path, operand.line, operand.col, what)
    })
}

/// Names in this file declared as floats (`name: f64`, `name = 0.0`).
fn float_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 2..toks.len() {
        let is_float_ty = is_ident(&toks[i], "f64") || is_ident(&toks[i], "f32");
        let binder = &toks[i - 2];
        if binder.kind != TokKind::Ident {
            continue;
        }
        if (is_float_ty && is_punct(&toks[i - 1], ":"))
            || (toks[i].kind == TokKind::Float
                && is_punct(&toks[i - 1], "=")
                && !matches!(binder.text.as_str(), "f64" | "f32"))
        {
            names.insert(binder.text.clone());
        }
    }
    names
}

/// Whether the `+=` at `k` accumulates a float: a float-declared left
/// side, or a float literal/type anywhere in the right side.
fn float_accum(toks: &[Token], k: usize, close: usize, floats: &BTreeSet<String>) -> bool {
    let lhs = &toks[k - 1];
    (lhs.kind == TokKind::Ident && floats.contains(&lhs.text))
        || toks[k + 1..close]
            .iter()
            .take_while(|t| !is_punct(t, ";"))
            .any(|t| t.kind == TokKind::Float || is_ident(t, "f64") || is_ident(t, "f32"))
}

/// Whether the file carries `forbid(… unsafe_code …)`.
fn forbids_unsafe(toks: &[Token]) -> bool {
    (0..toks.len()).any(|i| {
        is_ident(&toks[i], "forbid")
            && toks.get(i + 1).is_some_and(|t| is_punct(t, "("))
            && matching(toks, i + 1).is_some_and(|close| {
                toks[i + 2..close]
                    .iter()
                    .any(|t| is_ident(t, "unsafe_code"))
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lint_has_an_about_line() {
        assert_eq!(ALL_LINTS.len(), 17, "the lint table");
        for l in ALL_LINTS {
            assert!(
                !lint_about(l).is_empty(),
                "lint `{l}` is missing its one-line description"
            );
        }
        assert!(
            lint_about("not-a-lint").is_empty(),
            "unknown names describe as empty, not panic"
        );
    }
}
