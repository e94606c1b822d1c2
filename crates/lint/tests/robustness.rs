//! Robustness properties of the tcp-lint pipeline: the lexer, parser and
//! every analysis stage after them are total functions — no input,
//! however mangled, may make them panic. The linter runs on every push
//! over files a contributor just edited, so "malformed source" is the
//! common case, not the corner case. Findings on garbage input are fine
//! (and expected to be empty or nonsense); aborts are not.
//!
//! Inputs are drawn from a seeded `SplitMix64`, so every case is
//! reproducible offline; a failing case names its seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tcp_lint::{analyze_files, SourceFile};
use tcp_mem::SplitMix64;

/// Cases per property.
const CASES: u64 = 64;

/// Runs the full pipeline — lex, test-mask, parse, symbol table, call
/// graph, effect summaries, CFG dataflow — on one source under several
/// path specs, so every file kind's row set sees the input. The
/// property is simply "returns".
fn full_pipeline_survives(src: &str) {
    for path in [
        "crates/sim/src/lib.rs",
        "crates/cache/src/kernel.rs",
        "crates/lint/src/main.rs",
        "crates/sim/src/stream.rs",
        "crates/cache/tests/spliced.rs",
    ] {
        let files = [SourceFile {
            rel_path: path.to_string(),
            src: src.to_string(),
        }];
        analyze_files(&files);
    }
}

/// Checks `property` on `CASES` inputs from `generate`, each drawn from
/// its own seed, and names the seed and input of the first failure.
fn check(name: &str, base_seed: u64, generate: impl Fn(&mut SplitMix64) -> String) {
    for case in 0..CASES {
        let seed = base_seed.wrapping_add(case);
        let src = generate(&mut SplitMix64::new(seed));
        let outcome = catch_unwind(AssertUnwindSafe(|| full_pipeline_survives(&src)));
        assert!(
            outcome.is_ok(),
            "{name}: the pipeline panicked on the input of seed {seed}: {src:?}"
        );
    }
}

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    rng.next_below(bound as u64) as usize
}

/// Arbitrary bytes (lossily decoded, so invalid UTF-8 becomes
/// replacement characters) never panic the lexer, the parser, or
/// anything downstream of them.
#[test]
fn analyzer_never_panics_on_arbitrary_bytes() {
    check("arbitrary bytes", 0xB17E5, |rng| {
        let bytes: Vec<u8> = (0..below(rng, 2048))
            .map(|_| rng.next_u64() as u8)
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    });
}

/// Arbitrary unicode — printable ASCII, combining marks, multi-byte code
/// points — exercises the byte-vs-char offset bookkeeping in the lexer's
/// span arithmetic.
#[test]
fn analyzer_never_panics_on_arbitrary_unicode() {
    // Code-point ranges to draw from: ASCII, Latin-1, combining marks,
    // CJK, and astral-plane symbols.
    const RANGES: [(u32, u32); 5] = [
        (0x20, 0x7F),
        (0xA0, 0x100),
        (0x300, 0x370),
        (0x4E00, 0x4F00),
        (0x1F300, 0x1F400),
    ];
    check("arbitrary unicode", 0xC0DE, |rng| {
        (0..below(rng, 512))
            .filter_map(|_| {
                let (lo, hi) = RANGES[below(rng, RANGES.len())];
                char::from_u32(lo + rng.next_below(u64::from(hi - lo)) as u32)
            })
            .collect()
    });
}

/// A delimiter-balanced token soup: leaves are idents, literals, puncts,
/// comments, and keyword fragments the parser keys on (`fn`, `match`,
/// `=>`); branches wrap sub-soups in matched `{}`/`()`/`[]`. Balanced
/// nesting is what lets the input reach deep into the recursive-descent
/// paths instead of bouncing off the first stray close-delimiter.
fn balanced_soup(rng: &mut SplitMix64, depth: u32) -> String {
    const FRAGMENTS: [&str; 22] = [
        "fn",
        "match",
        "if",
        "let",
        "loop",
        "for",
        "return",
        "impl",
        "=>",
        "::",
        ";",
        ",",
        "+",
        "=",
        ".",
        "&",
        "0xFF",
        "42u64",
        "\"a string\"",
        "'c'",
        "/* block */",
        "// tcp-lint: allow(wall-clock-in-sim) — spliced\n",
    ];
    const IDENT_START: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    const IDENT_CONT: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789";
    if depth == 0 || rng.chance(1, 3) {
        if rng.chance(1, 2) {
            return FRAGMENTS[below(rng, FRAGMENTS.len())].to_string();
        }
        let mut ident = String::from(IDENT_START[below(rng, IDENT_START.len())] as char);
        for _ in 0..below(rng, 9) {
            ident.push(IDENT_CONT[below(rng, IDENT_CONT.len())] as char);
        }
        return ident;
    }
    let (open, close) = [("{", "}"), ("(", ")"), ("[", "]")][below(rng, 3)];
    let inner: Vec<String> = (0..below(rng, 6))
        .map(|_| balanced_soup(rng, depth - 1))
        .collect();
    format!("{open} {} {close}", inner.join(" "))
}

/// Delimiter-balanced splices of keyword/punct soup into a plausible
/// workspace file shape: balanced nesting drives the parser's recursive
/// paths (fn bodies, match arms, call groups) far deeper than flat
/// garbage can, and the dataflow rows then run over whatever AST came
/// out.
#[test]
fn analyzer_never_panics_on_balanced_splices() {
    check("balanced splices", 0x5011CE, |rng| {
        let soup = balanced_soup(rng, 4);
        let tail = balanced_soup(rng, 4);
        format!(
            "#![forbid(unsafe_code)]\n\
             pub fn spliced(cycle: u64) -> u64 {{\n{soup}\n}}\n\
             impl Spliced {{ fn helper(&self) {{ {tail} }} }}\n"
        )
    });
}
