//! A hand-rolled Rust lexer — just enough of the language to walk real
//! source reliably without `syn` or rustc internals.
//!
//! Handles the token-level ambiguities that break naive regex scanners:
//! nested block comments, raw strings (`r#"…"#` with any hash count),
//! byte and byte-string literals, char literals vs lifetimes (`'a'` vs
//! `<'a>`), raw identifiers (`r#type`), numeric literals with suffixes
//! and exponents, and compound operators (`::`, `+=`, `..=`) as single
//! tokens. Comments and string contents never produce identifier tokens,
//! so a doc example mentioning `unwrap()` cannot trip a lint.
//!
//! Positions are 1-based line/column; columns count bytes.

/// What a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, the `type` of `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`); `text` omits the quote.
    Lifetime,
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// A char or byte literal (`'x'`, `'\n'`, `b'0'`).
    Char,
    /// An integer literal (`42`, `0xFF_u64`).
    Int,
    /// A floating-point literal (`0.5`, `1e9`, `2f64`).
    Float,
    /// Punctuation; compound operators are a single token.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text. For `Str`/`Char` this is the raw literal including
    /// quotes; for `Lifetime` the name without the leading quote.
    pub text: String,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte.
    pub col: u32,
}

/// A comment that mentions `tcp-lint` (candidate suppression directive).
/// Ordinary comments are consumed and dropped.
#[derive(Clone, Debug)]
pub struct DirectiveComment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Full comment text including the `//` or `/* */` markers.
    pub text: String,
}

/// Output of [`lex`]: the token stream plus candidate directives.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-trivia tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments containing the substring `tcp-lint`.
    pub directives: Vec<DirectiveComment>,
}

fn ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

fn ident_cont(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor<'_> {
    /// Byte `k` positions ahead, or 0 at end of input.
    fn peek(&self, k: usize) -> u8 {
        self.b.get(self.i + k).copied().unwrap_or(0)
    }

    fn eof(&self) -> bool {
        self.i >= self.b.len()
    }

    /// Consumes one byte, tracking line/column.
    fn bump(&mut self) -> u8 {
        let c = self.peek(0);
        if !self.eof() {
            self.i += 1;
            if c == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }
}

/// Tokenizes `src`. Never fails: unrecognized bytes are skipped, an
/// unterminated literal or comment simply ends at end of input. The
/// lints only ever under-match on malformed source, which rustc will
/// reject anyway.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while !c.eof() {
        let line = c.line;
        let col = c.col;
        let start = c.i;
        let ch = c.peek(0);
        match ch {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek(1) == b'/' => {
                while !c.eof() && c.peek(0) != b'\n' {
                    c.bump();
                }
                push_directive(&mut out, src, start, c.i, line);
            }
            b'/' if c.peek(1) == b'*' => {
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while !c.eof() && depth > 0 {
                    if c.peek(0) == b'/' && c.peek(1) == b'*' {
                        c.bump();
                        c.bump();
                        depth += 1;
                    } else if c.peek(0) == b'*' && c.peek(1) == b'/' {
                        c.bump();
                        c.bump();
                        depth -= 1;
                    } else {
                        c.bump();
                    }
                }
                push_directive(&mut out, src, start, c.i, line);
            }
            b'"' => {
                lex_string_body(&mut c);
                push_tok(&mut out, TokKind::Str, src, start, c.i, line, col);
            }
            b'\'' => {
                lex_quote(&mut c, &mut out, src, line, col);
            }
            _ if ch.is_ascii_digit() => {
                let float = lex_number(&mut c, src);
                let kind = if float { TokKind::Float } else { TokKind::Int };
                push_tok(&mut out, kind, src, start, c.i, line, col);
            }
            _ if ident_start(ch) => {
                lex_ident_or_prefixed(&mut c, &mut out, src, line, col);
            }
            _ if ch.is_ascii() => {
                lex_punct(&mut c, &mut out, line, col);
            }
            _ => {
                // Non-ASCII outside strings/comments: skip the byte.
                c.bump();
            }
        }
    }
    out
}

fn push_tok(
    out: &mut Lexed,
    kind: TokKind,
    src: &str,
    start: usize,
    end: usize,
    line: u32,
    col: u32,
) {
    let text = src.get(start..end).unwrap_or("").to_owned();
    out.tokens.push(Token {
        kind,
        text,
        line,
        col,
    });
}

fn push_directive(out: &mut Lexed, src: &str, start: usize, end: usize, line: u32) {
    if let Some(text) = src.get(start..end) {
        if text.contains("tcp-lint") {
            out.directives.push(DirectiveComment {
                line,
                text: text.to_owned(),
            });
        }
    }
}

/// Consumes a `"…"` body starting at the opening quote.
fn lex_string_body(c: &mut Cursor) {
    c.bump(); // opening quote
    while !c.eof() {
        match c.bump() {
            b'\\' => {
                c.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw-string body starting at the opening quote, terminated
/// by `"` followed by `hashes` hash signs.
fn lex_raw_string_body(c: &mut Cursor, hashes: usize) {
    c.bump(); // opening quote
    while !c.eof() {
        if c.bump() == b'"' {
            let mut k = 0;
            while k < hashes && c.peek(k) == b'#' {
                k += 1;
            }
            if k == hashes {
                for _ in 0..hashes {
                    c.bump();
                }
                break;
            }
        }
    }
}

/// At a `'`: disambiguates char literals from lifetimes.
fn lex_quote(c: &mut Cursor, out: &mut Lexed, src: &str, line: u32, col: u32) {
    let start = c.i;
    if c.peek(1) == b'\\' {
        // Escaped char literal: consume through the closing quote.
        c.bump(); // '
        c.bump(); // backslash
        c.bump(); // escape head (n, t, ', u, x, …)
        while !c.eof() && c.peek(0) != b'\'' {
            c.bump();
        }
        c.bump(); // closing quote
        push_tok(out, TokKind::Char, src, start, c.i, line, col);
    } else if ident_start(c.peek(1)) {
        // `'a'` is a char; `'a` followed by anything else is a lifetime.
        let mut k = 2;
        while ident_cont(c.peek(k)) {
            k += 1;
        }
        if c.peek(k) == b'\'' {
            for _ in 0..=k {
                c.bump();
            }
            push_tok(out, TokKind::Char, src, start, c.i, line, col);
        } else {
            c.bump(); // quote
            let name_start = c.i;
            while ident_cont(c.peek(0)) {
                c.bump();
            }
            let text = src.get(name_start..c.i).unwrap_or("").to_owned();
            out.tokens.push(Token {
                kind: TokKind::Lifetime,
                text,
                line,
                col,
            });
        }
    } else {
        // Non-ident char literal: ' ', '+', multi-byte unicode, …
        c.bump(); // quote
        while !c.eof() && c.peek(0) != b'\'' && c.peek(0) != b'\n' {
            c.bump();
        }
        c.bump(); // closing quote (or stray newline recovery)
        push_tok(out, TokKind::Char, src, start, c.i, line, col);
    }
}

/// Consumes a numeric literal; returns `true` if it is floating-point.
fn lex_number(c: &mut Cursor, src: &str) -> bool {
    let mut float = false;
    if c.peek(0) == b'0' && matches!(c.peek(1), b'x' | b'o' | b'b') {
        c.bump();
        c.bump();
        while ident_cont(c.peek(0)) {
            c.bump();
        }
        return false;
    }
    while c.peek(0).is_ascii_digit() || c.peek(0) == b'_' {
        c.bump();
    }
    if c.peek(0) == b'.' && c.peek(1).is_ascii_digit() {
        float = true;
        c.bump();
        while c.peek(0).is_ascii_digit() || c.peek(0) == b'_' {
            c.bump();
        }
    }
    if matches!(c.peek(0), b'e' | b'E') {
        let k = if matches!(c.peek(1), b'+' | b'-') {
            2
        } else {
            1
        };
        if c.peek(k).is_ascii_digit() {
            float = true;
            for _ in 0..k {
                c.bump();
            }
            while c.peek(0).is_ascii_digit() || c.peek(0) == b'_' {
                c.bump();
            }
        }
    }
    // Type suffix (u64, f32, …).
    let s = c.i;
    while ident_cont(c.peek(0)) {
        c.bump();
    }
    if matches!(src.get(s..c.i), Some("f32") | Some("f64")) {
        float = true;
    }
    float
}

/// Lexes an identifier, or a string/char literal introduced by the
/// prefixes `r`, `b`, `br` (raw strings, byte literals, raw idents).
fn lex_ident_or_prefixed(c: &mut Cursor, out: &mut Lexed, src: &str, line: u32, col: u32) {
    let start = c.i;
    while ident_cont(c.peek(0)) {
        c.bump();
    }
    let word = src.get(start..c.i).unwrap_or("");
    let is_r = word == "r";
    let is_b = word == "b";
    let is_br = word == "br";
    if (is_r || is_b || is_br) && c.peek(0) == b'"' {
        if is_b {
            lex_string_body(c);
        } else {
            lex_raw_string_body(c, 0);
        }
        push_tok(out, TokKind::Str, src, start, c.i, line, col);
        return;
    }
    if (is_r || is_br) && c.peek(0) == b'#' {
        let mut k = 0;
        while c.peek(k) == b'#' {
            k += 1;
        }
        if c.peek(k) == b'"' {
            for _ in 0..k {
                c.bump();
            }
            lex_raw_string_body(c, k);
            push_tok(out, TokKind::Str, src, start, c.i, line, col);
            return;
        }
        if is_r && ident_start(c.peek(1)) {
            // Raw identifier r#type: token text is the bare name.
            c.bump(); // '#'
            let name_start = c.i;
            while ident_cont(c.peek(0)) {
                c.bump();
            }
            let text = src.get(name_start..c.i).unwrap_or("").to_owned();
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            return;
        }
    }
    if is_b && c.peek(0) == b'\'' {
        // Byte literal b'x'.
        lex_quote(c, out, src, line, col);
        // Rewrite the just-pushed token to include the `b` prefix.
        if let Some(last) = out.tokens.last_mut() {
            last.text = src.get(start..c.i).unwrap_or("").to_owned();
            last.col = col;
        }
        return;
    }
    push_tok(out, TokKind::Ident, src, start, c.i, line, col);
}

const PUNCTS3: [&str; 3] = ["..=", "<<=", ">>="];
const PUNCTS2: [&str; 19] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=",
    "|=", "<<", ">>",
];

fn lex_punct(c: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let w3 = [c.peek(0), c.peek(1), c.peek(2)];
    let w2 = [c.peek(0), c.peek(1)];
    for p in PUNCTS3 {
        if p.as_bytes() == w3 {
            for _ in 0..3 {
                c.bump();
            }
            out.tokens.push(Token {
                kind: TokKind::Punct,
                text: p.to_owned(),
                line,
                col,
            });
            return;
        }
    }
    // ".." must not steal the dot of "..=" (handled above) and must
    // yield to "..=" only; two dots followed by '=' never reach here.
    if w2 == [b'.', b'.'] {
        c.bump();
        c.bump();
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: "..".to_owned(),
            line,
            col,
        });
        return;
    }
    for p in PUNCTS2 {
        if p.as_bytes() == w2 {
            c.bump();
            c.bump();
            out.tokens.push(Token {
                kind: TokKind::Punct,
                text: p.to_owned(),
                line,
                col,
            });
            return;
        }
    }
    let b = c.bump();
    out.tokens.push(Token {
        kind: TokKind::Punct,
        text: (b as char).to_string(),
        line,
        col,
    });
}

// ---- Token-stream helpers shared by every pass. ----------------------

/// Is this token the punctuation `s`?
pub fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Is this token the identifier/keyword `s`?
pub fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Is this token an opening delimiter?
pub fn is_open(t: &Token) -> bool {
    is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")
}

/// Is this token a closing delimiter?
pub fn is_close(t: &Token) -> bool {
    is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")
}

/// Index of the delimiter closing the group opened at `open`, counting
/// every delimiter kind; `None` on unbalanced input.
pub fn matching(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Whether `toks[i]` starts a statement: it follows `;`, `{` or `}`.
pub fn starts_statement(toks: &[Token], i: usize) -> bool {
    i > 0
        && (is_punct(&toks[i - 1], ";")
            || is_punct(&toks[i - 1], "{")
            || is_punct(&toks[i - 1], "}"))
}

/// Index of the `;` ending the statement that starts at `i`, skipping
/// nested delimiter groups; `end` when the statement runs to the limit.
pub fn stmt_end(toks: &[Token], mut i: usize, end: usize) -> usize {
    while i < end {
        let t = &toks[i];
        if is_punct(t, ";") {
            return i;
        }
        if is_open(t) {
            i = matching(toks, i).map_or(end, |c| c + 1);
            continue;
        }
        i += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens_and_positions() {
        let lx = lex("fn main() {}\nlet x = 1;\n");
        let t0 = &lx.tokens[0];
        assert_eq!(
            (t0.kind, t0.text.as_str(), t0.line, t0.col),
            (TokKind::Ident, "fn", 1, 1)
        );
        let let_tok = lx.tokens.iter().find(|t| t.text == "let").unwrap();
        assert_eq!((let_tok.line, let_tok.col), (2, 1));
    }

    #[test]
    fn line_comments_hide_identifiers() {
        assert_eq!(idents("// unwrap() HashMap\nfn f() {}"), vec!["fn", "f"]);
    }

    #[test]
    fn nested_block_comments() {
        // The inner /* */ must not terminate the outer comment.
        let src = "/* outer /* inner */ still comment unwrap() */ fn g() {}";
        assert_eq!(idents(src), vec!["fn", "g"]);
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// calls `.unwrap()` on HashMap\npub fn h() {}";
        assert_eq!(idents(src), vec!["pub", "fn", "h"]);
    }

    #[test]
    fn plain_strings_hide_contents_and_handle_escapes() {
        let src = r#"let s = "quote \" unwrap() /* not a comment"; let t = 1;"#;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"contains "quotes" and unwrap()"#; next"###;
        assert_eq!(idents(src), vec!["let", "s", "next"]);
    }

    #[test]
    fn raw_string_zero_hashes_and_byte_strings() {
        assert_eq!(idents(r#"r"no unwrap here" x"#), vec!["x"]);
        assert_eq!(idents(r#"b"bytes unwrap" y"#), vec!["y"]);
        assert_eq!(idents(r###"br#"raw bytes unwrap"# z"###), vec!["z"]);
    }

    #[test]
    fn raw_identifier() {
        let ks = kinds("let r#type = 3;");
        assert!(ks.contains(&(TokKind::Ident, "type".to_owned())));
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
        let lx = lex(src);
        let lifetimes: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, vec!["'a'"]);
    }

    #[test]
    fn static_lifetime_and_escaped_chars() {
        let src = r"let s: &'static str = x; let c = '\''; let n = '\n'; let u = '\u{1F600}';";
        let lx = lex(src);
        assert!(lx
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
        let chars = lx.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn underscore_char_and_anonymous_lifetime() {
        let lx = lex("let _x: Foo<'_> = f('_');");
        assert!(lx
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "_"));
        assert!(lx
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "'_'"));
    }

    #[test]
    fn numbers_int_vs_float() {
        let ks = kinds("let a = 42; let b = 0xFF_u64; let c = 0.5; let d = 1e9; let e = 2f64; let f = 1.max(2);");
        let nums: Vec<_> = ks
            .iter()
            .filter(|(k, _)| matches!(k, TokKind::Int | TokKind::Float))
            .collect();
        assert_eq!(nums[0], &(TokKind::Int, "42".to_owned()));
        assert_eq!(nums[1], &(TokKind::Int, "0xFF_u64".to_owned()));
        assert_eq!(nums[2], &(TokKind::Float, "0.5".to_owned()));
        assert_eq!(nums[3], &(TokKind::Float, "1e9".to_owned()));
        assert_eq!(nums[4], &(TokKind::Float, "2f64".to_owned()));
        // `1.max(2)`: the int must not swallow the method call.
        assert_eq!(nums[5], &(TokKind::Int, "1".to_owned()));
        assert!(ks.contains(&(TokKind::Ident, "max".to_owned())));
    }

    #[test]
    fn ranges_do_not_become_floats() {
        let ks = kinds("for i in 0..10 {} for j in 0..=n {}");
        assert!(ks.contains(&(TokKind::Int, "0".to_owned())));
        assert!(ks.contains(&(TokKind::Punct, "..".to_owned())));
        assert!(ks.contains(&(TokKind::Punct, "..=".to_owned())));
    }

    #[test]
    fn compound_operators() {
        let ks = kinds("a += 1; b::c; d -> e; f >>= 2; g && h;");
        for op in ["+=", "::", "->", ">>=", "&&"] {
            assert!(
                ks.contains(&(TokKind::Punct, op.to_owned())),
                "missing {op}"
            );
        }
    }

    #[test]
    fn directive_comments_are_collected() {
        let lx =
            lex("let x = 1; // tcp-lint: allow(nondet-iteration) — reason\n// plain comment\n");
        assert_eq!(lx.directives.len(), 1);
        assert_eq!(lx.directives[0].line, 1);
        assert!(lx.directives[0].text.contains("allow"));
    }

    #[test]
    fn unterminated_literals_do_not_hang() {
        let _ = lex("let s = \"unterminated");
        let _ = lex("/* unterminated");
        let _ = lex("let c = '");
        let _ = lex("r#\"unterminated");
    }
}
