//! A hand-rolled recursive-descent parser over the [`crate::lexer`]
//! token stream, producing the lightweight AST the semantic lints run
//! on.
//!
//! This is deliberately not a full Rust grammar: it recognises exactly
//! the structure the workspace invariants need — items (`fn`, `struct`,
//! `enum`, `impl`, `trait`, `mod`), struct fields with their type
//! tokens, enum variants, and inside function bodies the *facts* the
//! lints consume: call sites (path and method form, turbofish included),
//! `match` expressions with classified arm patterns, loop headers, and
//! panic sites. Everything else is skipped by delimiter matching, so
//! unknown syntax degrades to "no facts extracted" rather than a parse
//! error — the lints only ever under-match on source this parser cannot
//! follow, and rustc rejects genuinely malformed source anyway.
//!
//! Token indices into the original stream are preserved on call sites so
//! statement-shape analysis (is this call's result discarded?) can be
//! done against the raw tokens without re-lexing.

use crate::lexer::{is_close, is_ident as ident, is_open, is_punct as punct, matching, stmt_end};
use crate::lexer::{TokKind, Token};

/// Parsed view of one source file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item. Items the lints do not care about are not represented.
#[derive(Debug)]
pub enum Item {
    /// A free function.
    Fn(FnDef),
    /// A struct with named fields (tuple/unit structs carry no fields).
    Struct(StructDef),
    /// An enum and its variant names.
    Enum(EnumDef),
    /// An `impl` block, or a `trait` block with its default methods.
    Impl(ImplBlock),
    /// The nested items of an inline `mod name { … }`.
    Mod(Vec<Item>),
}

/// A function definition (free, impl method, or trait default method).
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// `true` only for unrestricted `pub` (not `pub(crate)` etc.).
    pub is_pub: bool,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Whether the definition sits in `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
    /// Names of plain `name: Type` parameters, in order (`self`
    /// receivers and pattern parameters are skipped — the dataflow
    /// seeding only needs named value parameters).
    pub params: Vec<String>,
    /// Extracted body facts; `None` for bodiless trait declarations.
    pub body: Option<BodyFacts>,
}

/// The facts extracted from one function body.
#[derive(Debug, Default)]
pub struct BodyFacts {
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the matching `}`.
    pub close: usize,
    /// Every call site, in source order (includes calls nested anywhere
    /// in the body: closures, match arms, loop bodies).
    pub calls: Vec<CallSite>,
    /// Every `match` expression, outer and nested alike.
    pub matches: Vec<MatchSite>,
    /// Direct panic sites (`unwrap`/`expect`/`panic!` family).
    pub panics: Vec<PanicSite>,
    /// Loops (`for`/`while`/`loop`) whose body braces were found.
    pub loops: Vec<LoopSite>,
}

/// One call expression.
#[derive(Debug)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
    /// Token index where the whole call expression starts (path head,
    /// or the start of a method call's receiver chain).
    pub expr_start: usize,
    /// Token index of the argument list's `(`.
    pub paren_open: usize,
    /// Token index of the argument list's `)`.
    pub paren_close: usize,
}

/// Callee classification.
#[derive(Debug)]
pub enum Callee {
    /// `a::b::c(…)` — path segments with leading `crate`/`self`/`super`
    /// stripped. A bare `c(…)` is a one-segment path.
    Path(Vec<String>),
    /// `recv.name(…)`; `on_self` when the receiver chain starts at
    /// `self`.
    Method {
        /// Method name.
        name: String,
        /// Whether the receiver chain is rooted at `self`.
        on_self: bool,
    },
}

/// One `match` expression.
#[derive(Debug)]
pub struct MatchSite {
    /// Token index of the `match` keyword.
    pub keyword: usize,
    /// Token index of the arm list's `{`; the scrutinee lies between.
    pub body_open: usize,
    /// The arms, in source order.
    pub arms: Vec<Arm>,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Classified head of the (first alternative of the) pattern.
    pub head: ArmHead,
    /// Whether the arm carries an `if` guard.
    pub guarded: bool,
    /// Token index of the pattern's first token.
    pub pat: usize,
    /// Token index of the arm's `=>`.
    pub arrow: usize,
    /// Token index just past the arm body (before any trailing `,`).
    pub body_end: usize,
}

/// What kind of pattern heads a match arm.
#[derive(Debug, PartialEq, Eq)]
pub enum ArmHead {
    /// `_`.
    Wildcard,
    /// A lone lowercase identifier — a catch-all binding.
    Binding(String),
    /// `A::B` or `A::B::C` — a (possibly qualified) variant path.
    Path(Vec<String>),
    /// A literal pattern (`0`, `"x"`, `'c'`, `true`).
    Literal,
    /// Anything else: tuples, slices, struct patterns, ranges, …
    Other,
}

/// A direct panic site inside a function body.
#[derive(Debug)]
pub struct PanicSite {
    /// Which construct: `unwrap`, `expect`, `panic`, `unreachable`,
    /// `todo`, `unimplemented`.
    pub what: String,
    /// Token index of the construct's name.
    pub tok: usize,
}

/// A loop inside a function body.
#[derive(Debug)]
pub struct LoopSite {
    /// Token index of the loop keyword (`for`/`while`/`loop`).
    pub keyword: usize,
    /// Identifier tokens appearing in the loop header.
    pub header_idents: Vec<String>,
    /// Token index of the loop body's `{`.
    pub body_open: usize,
    /// Token index of the loop body's `}`.
    pub body_close: usize,
}

impl LoopSite {
    /// Whether this is a hot loop — cycle-indexed or chunk-iterating:
    /// some header identifier has an exact snake_case component `cycle`,
    /// `cycles`, `chunk` or `chunks`, so `recycled` is not hot.
    pub fn is_hot(&self) -> bool {
        self.header_idents.iter().any(|id| {
            id.split('_')
                .any(|c| matches!(c, "cycle" | "cycles" | "chunk" | "chunks"))
        })
    }
}

/// A struct definition with named fields.
#[derive(Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Whether the definition sits in test code.
    pub in_test: bool,
    /// Named fields (empty for tuple and unit structs).
    pub fields: Vec<FieldDef>,
}

/// One named struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Identifier tokens of the field's type, in order (`Option<u64>`
    /// yields `["Option", "u64"]`).
    pub ty: Vec<String>,
    /// 1-based line of the field name.
    pub line: u32,
    /// 1-based column of the field name.
    pub col: u32,
}

/// An enum definition.
#[derive(Debug)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Whether the definition sits in test code.
    pub in_test: bool,
    /// Whether the enum is `#[non_exhaustive]`.
    pub non_exhaustive: bool,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// An `impl` block (inherent or trait impl) or a `trait` block.
#[derive(Debug)]
pub struct ImplBlock {
    /// The implementing type's name (for `trait` blocks, the trait's).
    pub self_ty: String,
    /// Whether the block sits in test code.
    pub in_test: bool,
    /// Functions defined inside the block.
    pub fns: Vec<FnDef>,
}

/// One function together with its enclosing context, as produced by
/// [`visit_fns`].
#[derive(Clone, Copy, Debug)]
pub struct FnRef<'a> {
    /// The function itself.
    pub f: &'a FnDef,
    /// The `impl`/`trait` block it sits in, if any.
    pub imp: Option<&'a ImplBlock>,
}

/// Depth-first walk collecting every function in the file (free,
/// method, trait default, nested in inline modules), paired with its
/// enclosing impl block.
pub fn visit_fns(ast: &Ast) -> Vec<FnRef<'_>> {
    fn walk<'a>(items: &'a [Item], out: &mut Vec<FnRef<'a>>) {
        for it in items {
            match it {
                Item::Fn(f) => out.push(FnRef { f, imp: None }),
                Item::Impl(b) => {
                    for f in &b.fns {
                        out.push(FnRef { f, imp: Some(b) });
                    }
                }
                Item::Mod(items) => walk(items, out),
                Item::Struct(_) | Item::Enum(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&ast.items, &mut out);
    out
}

/// Depth-first walk collecting every struct in the file.
pub fn visit_structs(ast: &Ast) -> Vec<&StructDef> {
    fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a StructDef>) {
        for it in items {
            match it {
                Item::Struct(s) => out.push(s),
                Item::Mod(items) => walk(items, out),
                Item::Fn(_) | Item::Enum(_) | Item::Impl(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&ast.items, &mut out);
    out
}

/// Depth-first walk collecting every enum in the file.
pub fn visit_enums(ast: &Ast) -> Vec<&EnumDef> {
    fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a EnumDef>) {
        for it in items {
            match it {
                Item::Enum(e) => out.push(e),
                Item::Mod(items) => walk(items, out),
                Item::Fn(_) | Item::Struct(_) | Item::Impl(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&ast.items, &mut out);
    out
}

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 22] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "fn",
    "pub", "use", "where", "break", "continue", "impl", "dyn", "ref", "mut", "box",
];

/// The panic-family macro names.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Parses a token stream. `in_test` is a per-token mask (same length as
/// `toks`) marking `#[cfg(test)]`/`#[test]` regions.
pub fn parse(toks: &[Token], in_test: &[bool]) -> Ast {
    let mut p = Parser { toks, in_test };
    Ast {
        items: p.parse_items(0, toks.len()),
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    in_test: &'a [bool],
}

/// Finds the `{` opening a control-flow body (loop, `if`, `match`),
/// scanning from `i`. `Foo {` (capitalised owner) is a struct
/// pattern/literal, not a body — its group is skipped, as are paren and
/// bracket groups. Bails at a depth-zero `;` or at `limit`.
pub fn find_body_open(toks: &[Token], mut i: usize, limit: usize) -> Option<usize> {
    while i < limit {
        let t = &toks[i];
        if punct(t, ";") {
            return None;
        }
        let owner_is_type = i > 0
            && toks[i - 1].kind == TokKind::Ident
            && toks[i - 1]
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase());
        if punct(t, "{") && !owner_is_type {
            return Some(i);
        }
        if is_open(t) {
            i = matching(toks, i).map_or(limit, |c| c + 1);
            continue;
        }
        i += 1;
    }
    None
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i)
    }

    fn masked(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Index just past the delimiter group opening at `i` (which must be
    /// an opening delimiter); token count on malformed input.
    fn skip_group(&self, i: usize) -> usize {
        self.matching(i).map_or(self.toks.len(), |c| c + 1)
    }

    /// Index of the delimiter closing the group opened at `i`.
    fn matching(&self, open: usize) -> Option<usize> {
        matching(self.toks, open)
    }

    /// Index of the delimiter opening the group closed at `close`,
    /// scanning backwards.
    fn matching_back(&self, close: usize) -> Option<usize> {
        let mut depth = 0usize;
        let mut k = close;
        loop {
            let t = self.tok(k)?;
            if is_close(t) {
                depth += 1;
            } else if is_open(t) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(k);
                }
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
    }

    /// At `<`: index just past the matching `>`; understands `>>`
    /// closing two levels and skips nested bracket groups (`Fn(A) -> B`).
    fn skip_generics(&self, i: usize) -> usize {
        let mut depth: i64 = 0;
        let mut k = i;
        while let Some(t) = self.tok(k) {
            if punct(t, "<") || punct(t, "<<") {
                depth += if t.text == "<<" { 2 } else { 1 };
            } else if punct(t, ">") {
                depth -= 1;
            } else if punct(t, ">>") {
                depth -= 2;
            } else if is_open(t) {
                k = self.skip_group(k);
                continue;
            } else if punct(t, ";") {
                // Recovery: generics never contain statement boundaries.
                return k;
            }
            k += 1;
            if depth <= 0 {
                return k;
            }
        }
        self.toks.len()
    }

    /// Parses items in `[i, end)`.
    fn parse_items(&mut self, mut i: usize, end: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while i < end {
            let (next, item) = self.parse_item(i, end);
            if let Some(it) = item {
                items.push(it);
            }
            i = if next > i { next } else { i + 1 };
        }
        items
    }

    /// Parses one item starting at `i`; returns (index past it, item).
    fn parse_item(&mut self, mut i: usize, end: usize) -> (usize, Option<Item>) {
        let mut non_exhaustive = false;
        // Attributes.
        while i + 1 < end && punct(&self.toks[i], "#") {
            let open = if punct(&self.toks[i + 1], "!") {
                i + 2
            } else {
                i + 1
            };
            if self.tok(open).is_some_and(|t| punct(t, "[")) {
                let close = self.matching(open).unwrap_or(end.saturating_sub(1));
                if self.toks[open..=close.min(self.toks.len() - 1)]
                    .iter()
                    .any(|t| ident(t, "non_exhaustive"))
                {
                    non_exhaustive = true;
                }
                i = close + 1;
            } else {
                break;
            }
        }
        // Visibility.
        let mut is_pub = false;
        if i < end && ident(&self.toks[i], "pub") {
            if i + 1 < end && punct(&self.toks[i + 1], "(") {
                // pub(crate), pub(super), … — restricted, not public API.
                i = self.skip_group(i + 1);
            } else {
                is_pub = true;
                i += 1;
            }
        }
        // Modifiers before `fn`.
        while i < end
            && (ident(&self.toks[i], "async")
                || ident(&self.toks[i], "unsafe")
                || (ident(&self.toks[i], "const")
                    && self.tok(i + 1).is_some_and(|t| ident(t, "fn")))
                || (ident(&self.toks[i], "extern")
                    && self.tok(i + 1).is_some_and(|t| t.kind == TokKind::Str)))
        {
            i += if ident(&self.toks[i], "extern") { 2 } else { 1 };
        }
        let Some(head) = self.tok(i) else {
            return (end, None);
        };
        if head.kind != TokKind::Ident {
            return (i + 1, None);
        }
        match head.text.as_str() {
            "fn" => {
                let (next, f) = self.parse_fn(i, is_pub, end);
                (next, f.map(Item::Fn))
            }
            "struct" => self.parse_struct(i, end),
            "enum" => self.parse_enum(i, non_exhaustive, end),
            "impl" | "trait" => self.parse_impl(i, end),
            "mod" => self.parse_mod(i, end),
            "use" | "static" | "type" => (self.skip_to_semi(i, end), None),
            "const" => (self.skip_to_semi(i, end), None),
            "macro_rules" => {
                // macro_rules! name { … } or ( … );
                let mut k = i + 1;
                while k < end && !is_open(&self.toks[k]) && !punct(&self.toks[k], ";") {
                    k += 1;
                }
                if k < end && is_open(&self.toks[k]) {
                    (self.skip_group(k), None)
                } else {
                    (k + 1, None)
                }
            }
            _ => (i + 1, None),
        }
    }

    /// Skips to just past the next `;` at delimiter depth zero, jumping
    /// over bracket groups.
    fn skip_to_semi(&self, i: usize, end: usize) -> usize {
        (stmt_end(self.toks, i, end) + 1).min(end)
    }

    /// At the `fn` keyword: parses a function definition.
    fn parse_fn(&mut self, i: usize, is_pub: bool, end: usize) -> (usize, Option<FnDef>) {
        let Some(name_tok) = self.tok(i + 1) else {
            return (end, None);
        };
        if name_tok.kind != TokKind::Ident {
            return (i + 1, None);
        }
        let name = name_tok.text.clone();
        let (line, col) = (name_tok.line, name_tok.col);
        let in_test = self.masked(i);
        let mut k = i + 2;
        if self.tok(k).is_some_and(|t| punct(t, "<")) {
            k = self.skip_generics(k);
        }
        if !self.tok(k).is_some_and(|t| punct(t, "(")) {
            return (k, None);
        }
        let params = match self.matching(k) {
            Some(close) => self.parse_params(k + 1, close),
            None => Vec::new(),
        };
        k = self.skip_group(k);
        // Return type: tokens after `->` up to `{`, `;`, or `where`.
        let mut returns_result = false;
        if self.tok(k).is_some_and(|t| punct(t, "->")) {
            k += 1;
            while let Some(t) = self.tok(k) {
                if punct(t, "{") || punct(t, ";") || ident(t, "where") {
                    break;
                }
                if ident(t, "Result") {
                    returns_result = true;
                }
                if punct(t, "<") {
                    // Stay inside the same scan: generics in return types
                    // cannot contain `{`/`;`, so plain advance is safe.
                }
                k += 1;
                if k >= end {
                    break;
                }
            }
        }
        // Where clause.
        while k < end && !punct(&self.toks[k], "{") && !punct(&self.toks[k], ";") {
            k += 1;
        }
        let body = if self.tok(k).is_some_and(|t| punct(t, "{")) {
            let close = self
                .matching(k)
                .unwrap_or(self.toks.len().saturating_sub(1));
            let facts = self.scan_body(k, close);
            k = close + 1;
            Some(facts)
        } else {
            k += 1; // past `;`
            None
        };
        (
            k,
            Some(FnDef {
                name,
                is_pub,
                returns_result,
                line,
                col,
                in_test,
                params,
                body,
            }),
        )
    }

    /// Parses `name: Type` parameters in `[i, end)` (the argument list's
    /// interior). Receivers (`self` in any form) and pattern parameters
    /// (`(a, b): …`, `[x]: …`) are skipped — under-matching, as always.
    fn parse_params(&mut self, mut i: usize, end: usize) -> Vec<String> {
        let mut params = Vec::new();
        while i < end {
            // One parameter: up to the next depth-zero comma.
            let mut stop = i;
            while stop < end && !punct(&self.toks[stop], ",") {
                if punct(&self.toks[stop], "<") {
                    stop = self.skip_generics(stop);
                    continue;
                }
                if is_open(&self.toks[stop]) {
                    stop = self.skip_group(stop);
                    continue;
                }
                stop += 1;
            }
            let mut p = i;
            while p < stop && (ident(&self.toks[p], "mut") || punct(&self.toks[p], "&")) {
                p += 1;
            }
            if p < stop
                && self.toks[p].kind == TokKind::Ident
                && !ident(&self.toks[p], "self")
                && self.tok(p + 1).is_some_and(|t| punct(t, ":"))
                && p + 1 < stop
            {
                params.push(self.toks[p].text.clone());
            }
            i = stop + 1;
        }
        params
    }

    /// At the `struct` keyword.
    fn parse_struct(&mut self, i: usize, end: usize) -> (usize, Option<Item>) {
        let Some(name_tok) = self.tok(i + 1) else {
            return (end, None);
        };
        if name_tok.kind != TokKind::Ident {
            return (i + 1, None);
        }
        let mut def = StructDef {
            name: name_tok.text.clone(),
            in_test: self.masked(i),
            fields: Vec::new(),
        };
        let mut k = i + 2;
        if self.tok(k).is_some_and(|t| punct(t, "<")) {
            k = self.skip_generics(k);
        }
        // `where` clause before the body.
        while k < end
            && !punct(&self.toks[k], "{")
            && !punct(&self.toks[k], ";")
            && !punct(&self.toks[k], "(")
        {
            k += 1;
        }
        match self.tok(k) {
            Some(t) if punct(t, "{") => {
                let close = self
                    .matching(k)
                    .unwrap_or(self.toks.len().saturating_sub(1));
                def.fields = self.parse_fields(k + 1, close);
                (close + 1, Some(Item::Struct(def)))
            }
            Some(t) if punct(t, "(") => {
                // Tuple struct: skip the fields and the trailing `;`.
                let next = self.skip_group(k);
                (
                    self.skip_to_semi(next.saturating_sub(1), end),
                    Some(Item::Struct(def)),
                )
            }
            _ => (k + 1, Some(Item::Struct(def))),
        }
    }

    /// Parses `name: Type,` fields in `[i, end)`.
    fn parse_fields(&mut self, mut i: usize, end: usize) -> Vec<FieldDef> {
        let mut fields = Vec::new();
        while i < end {
            // Attributes and visibility on the field.
            while i + 1 < end && punct(&self.toks[i], "#") && punct(&self.toks[i + 1], "[") {
                i = self.skip_group(i + 1);
            }
            if i < end && ident(&self.toks[i], "pub") {
                i += 1;
                if i < end && punct(&self.toks[i], "(") {
                    i = self.skip_group(i);
                }
            }
            let Some(name_tok) = self.tok(i) else { break };
            if i >= end {
                break;
            }
            if name_tok.kind == TokKind::Ident && self.tok(i + 1).is_some_and(|t| punct(t, ":")) {
                let mut ty = Vec::new();
                let mut k = i + 2;
                let mut angle: i64 = 0;
                while k < end {
                    let t = &self.toks[k];
                    if punct(t, ",") && angle <= 0 {
                        break;
                    }
                    if punct(t, "<") {
                        angle += 1;
                    } else if punct(t, ">") {
                        angle -= 1;
                    } else if punct(t, ">>") {
                        angle -= 2;
                    } else if is_open(t) {
                        // Collect idents inside e.g. `Fn(A, B)` too.
                        let close = self.matching(k).unwrap_or(end);
                        for tt in &self.toks[k..close.min(end)] {
                            if tt.kind == TokKind::Ident {
                                ty.push(tt.text.clone());
                            }
                        }
                        k = close;
                    } else if t.kind == TokKind::Ident {
                        ty.push(t.text.clone());
                    }
                    k += 1;
                }
                fields.push(FieldDef {
                    name: name_tok.text.clone(),
                    ty,
                    line: name_tok.line,
                    col: name_tok.col,
                });
                i = k + 1;
            } else {
                i += 1;
            }
        }
        fields
    }

    /// At the `enum` keyword.
    fn parse_enum(&mut self, i: usize, non_exhaustive: bool, end: usize) -> (usize, Option<Item>) {
        let Some(name_tok) = self.tok(i + 1) else {
            return (end, None);
        };
        if name_tok.kind != TokKind::Ident {
            return (i + 1, None);
        }
        let mut def = EnumDef {
            name: name_tok.text.clone(),
            in_test: self.masked(i),
            non_exhaustive,
            variants: Vec::new(),
        };
        let mut k = i + 2;
        if self.tok(k).is_some_and(|t| punct(t, "<")) {
            k = self.skip_generics(k);
        }
        while k < end && !punct(&self.toks[k], "{") && !punct(&self.toks[k], ";") {
            k += 1;
        }
        if !self.tok(k).is_some_and(|t| punct(t, "{")) {
            return (k + 1, Some(Item::Enum(def)));
        }
        let close = self
            .matching(k)
            .unwrap_or(self.toks.len().saturating_sub(1));
        let mut v = k + 1;
        while v < close {
            // Variant attributes.
            while v + 1 < close && punct(&self.toks[v], "#") && punct(&self.toks[v + 1], "[") {
                v = self.skip_group(v + 1);
            }
            let Some(t) = self.tok(v) else { break };
            if v >= close {
                break;
            }
            if t.kind == TokKind::Ident {
                def.variants.push(t.text.clone());
                v += 1;
                // Variant payload / discriminant, up to the next comma.
                while v < close && !punct(&self.toks[v], ",") {
                    if is_open(&self.toks[v]) {
                        v = self.skip_group(v);
                    } else {
                        v += 1;
                    }
                }
                v += 1; // past `,`
            } else {
                v += 1;
            }
        }
        (close + 1, Some(Item::Enum(def)))
    }

    /// At the `impl` or `trait` keyword.
    fn parse_impl(&mut self, i: usize, end: usize) -> (usize, Option<Item>) {
        let in_test = self.masked(i);
        let mut k = i + 1;
        if self.tok(k).is_some_and(|t| punct(t, "<")) {
            k = self.skip_generics(k);
        }
        // Head: everything up to `{` (jumping over `where` bounds).
        let head_start = k;
        let mut angle: i64 = 0;
        while k < end {
            let t = &self.toks[k];
            if punct(t, "{") && angle <= 0 {
                break;
            }
            if punct(t, ";") {
                // `trait X;`-ish recovery.
                return (k + 1, None);
            }
            if punct(t, "<") {
                angle += 1;
            } else if punct(t, ">") {
                angle -= 1;
            } else if punct(t, ">>") {
                angle -= 2;
            } else if punct(t, "(") || punct(t, "[") {
                k = self.skip_group(k);
                continue;
            }
            k += 1;
        }
        if k >= end {
            return (end, None);
        }
        // The implementing type is the head's last depth-zero identifier,
        // counted from past a depth-zero `for` (trait impls) up to `where`.
        let mut depth: i64 = 0;
        let mut seen_for = false;
        let mut self_ty = None;
        for t in &self.toks[head_start..k] {
            if punct(t, "<") {
                depth += 1;
            } else if punct(t, ">") {
                depth -= 1;
            } else if punct(t, ">>") {
                depth -= 2;
            } else if depth > 0 || t.kind != TokKind::Ident || ident(t, "dyn") || ident(t, "mut") {
                continue;
            } else if ident(t, "where") {
                break;
            } else if ident(t, "for") && !seen_for {
                seen_for = true;
                self_ty = None;
            } else {
                self_ty = Some(t.text.clone());
            }
        }
        let Some(self_ty) = self_ty else {
            return (self.skip_group(k), None);
        };
        let close = self
            .matching(k)
            .unwrap_or(self.toks.len().saturating_sub(1));
        let fns = self
            .parse_items(k + 1, close)
            .into_iter()
            .filter_map(|it| match it {
                Item::Fn(f) => Some(f),
                Item::Struct(_) | Item::Enum(_) | Item::Impl(_) | Item::Mod(_) => None,
            })
            .collect();
        (
            close + 1,
            Some(Item::Impl(ImplBlock {
                self_ty,
                in_test,
                fns,
            })),
        )
    }

    /// At the `mod` keyword.
    fn parse_mod(&mut self, i: usize, end: usize) -> (usize, Option<Item>) {
        match self.tok(i + 2) {
            Some(t) if punct(t, "{") => {
                let close = self
                    .matching(i + 2)
                    .unwrap_or(self.toks.len().saturating_sub(1));
                let items = self.parse_items(i + 3, close);
                (close + 1, Some(Item::Mod(items)))
            }
            _ => (self.skip_to_semi(i, end), None),
        }
    }

    /// Extracts facts from a function body spanning tokens
    /// `(open, close)` exclusive of the braces themselves.
    fn scan_body(&mut self, open: usize, close: usize) -> BodyFacts {
        let mut facts = BodyFacts {
            open,
            close,
            ..BodyFacts::default()
        };
        let mut i = open + 1;
        while i < close {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let prev_dot = i > 0 && punct(&self.toks[i - 1], ".");
            match t.text.as_str() {
                "match" if !prev_dot => {
                    if let Some(site) = self.parse_match(i, close) {
                        facts.matches.push(site);
                    }
                    i += 1;
                    continue;
                }
                "for" | "while" | "loop" if !prev_dot => {
                    let body = find_body_open(self.toks, i + 1, close)
                        .and_then(|o| Some((o, self.matching(o).filter(|&c| c <= close)?)));
                    if let Some((body_open, body_close)) = body {
                        facts.loops.push(LoopSite {
                            keyword: i,
                            header_idents: self.toks[i + 1..body_open]
                                .iter()
                                .filter(|t| t.kind == TokKind::Ident)
                                .map(|t| t.text.clone())
                                .collect(),
                            body_open,
                            body_close,
                        });
                    }
                    i += 1;
                    continue;
                }
                _ => {}
            }
            // Panic macros: `name !`.
            if PANIC_MACROS.contains(&t.text.as_str())
                && self.tok(i + 1).is_some_and(|n| punct(n, "!"))
            {
                facts.panics.push(PanicSite {
                    what: t.text.clone(),
                    tok: i,
                });
                i += 2;
                continue;
            }
            // `.unwrap(` / `.expect(` panic sites.
            if prev_dot
                && matches!(t.text.as_str(), "unwrap" | "expect")
                && self.tok(i + 1).is_some_and(|n| punct(n, "("))
            {
                facts.panics.push(PanicSite {
                    what: t.text.clone(),
                    tok: i,
                });
                // Not also recorded as a method call: these are std
                // methods, and a workspace method that happens to share
                // the name (the JSON parser's `expect`) must not attract
                // edges from every `.expect(…)` in the tree.
                i += 1;
                continue;
            }
            // Call detection: ident [::<…>] ( .
            if let Some(site) = self.parse_call(i, close) {
                facts.calls.push(site);
            }
            i += 1;
        }
        facts
    }

    /// Tries to read a call whose callee name token is at `i`.
    fn parse_call(&mut self, i: usize, close: usize) -> Option<CallSite> {
        let t = &self.toks[i];
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            return None;
        }
        // Macro invocation `name!(…)` is not a function call.
        if self.tok(i + 1).is_some_and(|n| punct(n, "!")) {
            return None;
        }
        // Skip a turbofish between the name and the argument list.
        let mut p = i + 1;
        if self.tok(p).is_some_and(|n| punct(n, "::"))
            && self.tok(p + 1).is_some_and(|n| punct(n, "<"))
        {
            p = self.skip_generics(p + 1);
        }
        if !self.tok(p).is_some_and(|n| punct(n, "(")) || p >= close {
            return None;
        }
        let paren_open = p;
        let paren_close = self.matching(paren_open)?;
        // `fn name(` — a nested item definition, not a call.
        if i > 0 && ident(&self.toks[i - 1], "fn") {
            return None;
        }
        if i > 0 && punct(&self.toks[i - 1], ".") {
            let expr_start = self.receiver_start(i - 1);
            let on_self = self.tok(expr_start).is_some_and(|r| ident(r, "self"));
            return Some(CallSite {
                callee: Callee::Method {
                    name: t.text.clone(),
                    on_self,
                },
                line: t.line,
                col: t.col,
                expr_start,
                paren_open,
                paren_close,
            });
        }
        // Path call: walk back over `ident ::` pairs.
        let mut segs = vec![t.text.clone()];
        let mut k = i;
        while k >= 2 && punct(&self.toks[k - 1], "::") {
            let prev = &self.toks[k - 2];
            if prev.kind == TokKind::Ident {
                segs.push(prev.text.clone());
                k -= 2;
            } else {
                // `<T as Trait>::name(` or turbofish inside the path:
                // give up on the qualifier, keep the bare name.
                segs.truncate(1);
                k = i;
                break;
            }
        }
        segs.reverse();
        while segs.len() > 1 && matches!(segs[0].as_str(), "crate" | "self" | "super") {
            segs.remove(0);
        }
        Some(CallSite {
            callee: Callee::Path(segs),
            line: t.line,
            col: t.col,
            expr_start: k,
            paren_open,
            paren_close,
        })
    }

    /// Given the index of the `.` before a method name, walks the
    /// receiver chain left and returns the index where the whole
    /// postfix expression starts.
    fn receiver_start(&self, dot: usize) -> usize {
        let mut p = dot; // points at '.' (or '?' while stepping)
        loop {
            if p == 0 {
                return p;
            }
            let mut q = p - 1;
            // `foo()?.bar()` — step over the `?`.
            while q > 0 && punct(&self.toks[q], "?") {
                q -= 1;
            }
            let t = &self.toks[q];
            let seg_start = if is_close(t) {
                let open = match self.matching_back(q) {
                    Some(o) => o,
                    None => return q,
                };
                // `foo(…)` call or `arr[…]` index: include the owner.
                if open > 0 && self.toks[open - 1].kind == TokKind::Ident {
                    let mut s = open - 1;
                    while s >= 2 && punct(&self.toks[s - 1], "::") {
                        if self.toks[s - 2].kind == TokKind::Ident {
                            s -= 2;
                        } else {
                            break;
                        }
                    }
                    s
                } else {
                    open
                }
            } else if t.kind == TokKind::Ident || t.kind == TokKind::Str || t.kind == TokKind::Int {
                let mut s = q;
                while s >= 2 && punct(&self.toks[s - 1], "::") {
                    if self.toks[s - 2].kind == TokKind::Ident {
                        s -= 2;
                    } else {
                        break;
                    }
                }
                s
            } else {
                return p;
            };
            if seg_start > 0 && punct(&self.toks[seg_start - 1], ".") {
                p = seg_start - 1;
            } else {
                return seg_start;
            }
        }
    }

    /// At the `match` keyword: finds the arm list past the scrutinee and
    /// reads the arms.
    fn parse_match(&mut self, i: usize, limit: usize) -> Option<MatchSite> {
        let mut k = i + 1;
        while k < limit && !punct(&self.toks[k], "{") {
            if punct(&self.toks[k], ";") {
                return None; // not actually a match expression
            }
            if is_open(&self.toks[k]) {
                k = self.matching(k)? + 1;
                continue;
            }
            k += 1;
        }
        if k >= limit {
            return None;
        }
        let body_open = k;
        let body_close = self.matching(body_open)?;
        let mut arms = Vec::new();
        let mut a = body_open + 1;
        while a < body_close {
            // Pattern: tokens up to `=>` at depth zero.
            let pat_start = a;
            let mut pat_end = a;
            let mut found = false;
            while pat_end < body_close {
                let t = &self.toks[pat_end];
                if punct(t, "=>") {
                    found = true;
                    break;
                }
                if is_open(t) {
                    pat_end = self.skip_group(pat_end);
                    continue;
                }
                pat_end += 1;
            }
            if !found {
                break;
            }
            let mut pat = &self.toks[pat_start..pat_end];
            // Guard: `pat if cond =>`.
            let mut guarded = false;
            let mut depth: i64 = 0;
            for (j, t) in pat.iter().enumerate() {
                if is_open(t) {
                    depth += 1;
                } else if is_close(t) {
                    depth -= 1;
                } else if ident(t, "if") && depth <= 0 {
                    guarded = true;
                    pat = &pat[..j];
                    break;
                }
            }
            // Arm body: block, or expression up to the depth-zero comma.
            let mut b = pat_end + 1;
            if self.tok(b).is_some_and(|t| punct(t, "{")) {
                b = self.skip_group(b);
            } else {
                while b < body_close && !punct(&self.toks[b], ",") {
                    if is_open(&self.toks[b]) {
                        b = self.skip_group(b);
                    } else {
                        b += 1;
                    }
                }
            }
            arms.push(Arm {
                head: classify_pattern(pat),
                guarded,
                pat: pat_start,
                arrow: pat_end,
                body_end: b,
            });
            a = if self.tok(b).is_some_and(|t| punct(t, ",")) {
                b + 1
            } else {
                b
            };
        }
        Some(MatchSite {
            keyword: i,
            body_open,
            arms,
        })
    }
}

/// Classifies the head of a match-arm pattern.
fn classify_pattern(pat: &[Token]) -> ArmHead {
    let mut i = 0;
    // Strip leading alternation pipes, references, and binding modes.
    while i < pat.len()
        && (punct(&pat[i], "|")
            || punct(&pat[i], "&")
            || punct(&pat[i], "&&")
            || ident(&pat[i], "ref")
            || ident(&pat[i], "mut")
            || ident(&pat[i], "box"))
    {
        i += 1;
    }
    let Some(first) = pat.get(i) else {
        return ArmHead::Other;
    };
    match first.kind {
        TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char => ArmHead::Literal,
        TokKind::Punct | TokKind::Lifetime => {
            if first.text == "_" && pat.len() == i + 1 {
                ArmHead::Wildcard
            } else {
                ArmHead::Other
            }
        }
        TokKind::Ident => {
            if matches!(first.text.as_str(), "true" | "false") {
                return ArmHead::Literal;
            }
            // Depending on lexer classification `_` may arrive as an
            // identifier; it is still the wildcard pattern.
            if first.text == "_" {
                return if pat.len() == i + 1 {
                    ArmHead::Wildcard
                } else {
                    ArmHead::Other
                };
            }
            // Qualified variant path `A::B…`.
            if pat.get(i + 1).is_some_and(|t| punct(t, "::")) {
                let mut segs = vec![first.text.clone()];
                let mut k = i + 1;
                while pat.get(k).is_some_and(|t| punct(t, "::"))
                    && pat.get(k + 1).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    segs.push(pat[k + 1].text.clone());
                    k += 2;
                }
                return ArmHead::Path(segs);
            }
            // Lone identifier: `name @ …` and plain `name` are bindings
            // when lowercase; a lone capitalised ident is a unit variant
            // brought into scope, which we cannot attribute to an enum.
            let lone = pat.len() == i + 1 || pat.get(i + 1).is_some_and(|t| punct(t, "@"));
            let lowercase = first
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
            if lone && lowercase {
                ArmHead::Binding(first.text.clone())
            } else {
                ArmHead::Other
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lints::test_mask;

    fn parse_src(src: &str) -> Ast {
        let lx = lex(src);
        let mask = test_mask(&lx.tokens, crate::FileKind::Lib);
        parse(&lx.tokens, &mask)
    }

    fn first_fn(ast: &Ast) -> &FnDef {
        for it in &ast.items {
            if let Item::Fn(f) = it {
                return f;
            }
        }
        panic!("no fn parsed");
    }

    #[test]
    fn fn_signature_and_result_detection() {
        let ast = parse_src(
            "pub fn run(x: u64) -> Result<u64, SimError> { Ok(x) }\n\
             fn plain() -> u64 { 3 }\n\
             pub(crate) fn hidden() {}\n",
        );
        let fns: Vec<&FnDef> = ast
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(fns.len(), 3);
        assert!(fns[0].is_pub && fns[0].returns_result);
        assert!(!fns[1].is_pub && !fns[1].returns_result);
        assert!(!fns[2].is_pub, "pub(crate) is not public API");
    }

    #[test]
    fn struct_fields_with_generic_types() {
        let ast = parse_src(
            "pub struct Stats { pub loads: u64, map: BTreeMap<u64, Vec<u8>>, ratio: f64 }",
        );
        let Some(Item::Struct(s)) = ast.items.first() else {
            panic!("no struct");
        };
        assert_eq!(s.name, "Stats");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["loads", "map", "ratio"]);
        assert_eq!(s.fields[0].ty, vec!["u64"]);
        assert_eq!(s.fields[1].ty, vec!["BTreeMap", "u64", "Vec", "u8"]);
    }

    #[test]
    fn enum_variants_and_non_exhaustive() {
        let ast =
            parse_src("#[non_exhaustive]\npub enum E { A, B(u64), C { x: u8 } }\nenum F { Only }");
        let enums: Vec<&EnumDef> = ast
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Enum(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(enums.len(), 2);
        assert!(enums[0].non_exhaustive);
        assert_eq!(enums[0].variants, vec!["A", "B", "C"]);
        assert!(!enums[1].non_exhaustive);
    }

    #[test]
    fn impl_blocks_inherent_and_trait() {
        let ast = parse_src(
            "impl Cache { pub fn get(&self) -> u64 { 1 } }\n\
             impl fmt::Display for SimError { fn fmt(&self) -> u8 { 0 } }\n\
             impl<T: Clone> Wrapper<T> { fn inner(&self) {} }\n",
        );
        let impls: Vec<&ImplBlock> = ast
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Impl(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(impls.len(), 3);
        assert_eq!(impls[0].self_ty, "Cache");
        assert_eq!(impls[1].self_ty, "SimError");
        assert_eq!(impls[2].self_ty, "Wrapper");
    }

    #[test]
    fn calls_path_method_and_turbofish() {
        let ast = parse_src(
            "fn f() {\n\
                helper(1);\n\
                tcp_mem::addr::line_of(x);\n\
                self.step(3);\n\
                v.iter().map(g).collect::<Vec<_>>();\n\
                Cache::new(cfg);\n\
             }",
        );
        let f = first_fn(&ast);
        let body = f.body.as_ref().expect("body");
        let mut paths = Vec::new();
        let mut methods = Vec::new();
        for c in &body.calls {
            match &c.callee {
                Callee::Path(segs) => paths.push(segs.join("::")),
                Callee::Method { name, on_self } => methods.push((name.clone(), *on_self)),
            }
        }
        assert!(paths.contains(&"helper".to_owned()));
        assert!(paths.contains(&"tcp_mem::addr::line_of".to_owned()));
        assert!(paths.contains(&"Cache::new".to_owned()));
        assert!(methods.contains(&("step".to_owned(), true)));
        assert!(methods.contains(&("iter".to_owned(), false)));
        assert!(
            methods.contains(&("collect".to_owned(), false)),
            "turbofish method call must be detected: {methods:?}"
        );
    }

    #[test]
    fn method_chain_receiver_start_tracks_self() {
        let ast = parse_src("fn f() { self.inner.table.lookup(x); other.lookup(y); }");
        let f = first_fn(&ast);
        let body = f.body.as_ref().expect("body");
        let lookups: Vec<bool> = body
            .calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Method { name, on_self } if name == "lookup" => Some(*on_self),
                _ => None,
            })
            .collect();
        assert_eq!(lookups, vec![true, false]);
    }

    #[test]
    fn nested_matches_are_all_found() {
        let ast = parse_src(
            "fn f(a: E, b: F) -> u32 {\n\
                match a {\n\
                    E::X => match b {\n\
                        F::P => 1,\n\
                        _ => 2,\n\
                    },\n\
                    E::Y(inner) => 3,\n\
                    _ => 4,\n\
                }\n\
             }",
        );
        let f = first_fn(&ast);
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.matches.len(), 2, "outer and nested match");
        let outer = &body.matches[0];
        assert_eq!(outer.arms.len(), 3);
        assert_eq!(
            outer.arms[0].head,
            ArmHead::Path(vec!["E".into(), "X".into()])
        );
        assert_eq!(
            outer.arms[1].head,
            ArmHead::Path(vec!["E".into(), "Y".into()])
        );
        assert_eq!(outer.arms[2].head, ArmHead::Wildcard);
        let inner = &body.matches[1];
        assert_eq!(inner.arms.len(), 2);
        assert_eq!(inner.arms[1].head, ArmHead::Wildcard);
    }

    #[test]
    fn match_arm_guards_bindings_and_literals() {
        let ast = parse_src(
            "fn f(x: u8, o: Option<u8>) -> u8 {\n\
                match x {\n\
                    0 => 1,\n\
                    n if n > 4 => n,\n\
                    other => other,\n\
                }\n\
             }",
        );
        let f = first_fn(&ast);
        let m = &f.body.as_ref().expect("body").matches[0];
        assert_eq!(m.arms[0].head, ArmHead::Literal);
        assert_eq!(m.arms[1].head, ArmHead::Binding("n".into()));
        assert!(m.arms[1].guarded);
        assert_eq!(m.arms[2].head, ArmHead::Binding("other".into()));
        assert!(!m.arms[2].guarded);
    }

    #[test]
    fn qualified_variant_paths_in_patterns() {
        let ast = parse_src(
            "fn f(r: tcp_cache::Replacement) -> u8 {\n\
                match r {\n\
                    tcp_cache::Replacement::Lru => 0,\n\
                    Replacement::Fifo | Replacement::TreePlru => 1,\n\
                    _ => 2,\n\
                }\n\
             }",
        );
        let f = first_fn(&ast);
        let m = &f.body.as_ref().expect("body").matches[0];
        assert_eq!(
            m.arms[0].head,
            ArmHead::Path(vec!["tcp_cache".into(), "Replacement".into(), "Lru".into()])
        );
        assert_eq!(
            m.arms[1].head,
            ArmHead::Path(vec!["Replacement".into(), "Fifo".into()])
        );
        assert_eq!(m.arms[2].head, ArmHead::Wildcard);
    }

    #[test]
    fn panic_sites_in_bodies() {
        let ast = parse_src(
            "fn f(o: Option<u8>) -> u8 {\n\
                let a = o.unwrap();\n\
                let b = o.expect(\"msg\");\n\
                if a > b { panic!(\"boom\") }\n\
                unreachable!()\n\
             }",
        );
        let f = first_fn(&ast);
        let whats: Vec<&str> = f
            .body
            .as_ref()
            .expect("body")
            .panics
            .iter()
            .map(|p| p.what.as_str())
            .collect();
        assert_eq!(whats, vec!["unwrap", "expect", "panic", "unreachable"]);
    }

    #[test]
    fn loops_and_mods_and_test_masking() {
        let ast = parse_src(
            "fn f(n: u64) { for cycle in 0..n { work(cycle); } }\n\
             mod inner { pub fn g() {} }\n\
             #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n",
        );
        let f = first_fn(&ast);
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.loops.len(), 1);
        assert!(body.loops[0].header_idents.contains(&"cycle".to_owned()));
        let mods: Vec<&Vec<Item>> = ast
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Mod(items) => Some(items),
                _ => None,
            })
            .collect();
        assert_eq!(mods.len(), 2);
        let tests_mod = mods[1]; // source order: `inner`, then `tests`
        for it in tests_mod {
            if let Item::Fn(f) = it {
                assert!(f.in_test, "fns under #[cfg(test)] must be marked");
            }
        }
    }

    #[test]
    fn discard_shape_fields_are_recorded() {
        let ast = parse_src("fn f() { fallible(); let x = fallible(); }");
        let f = first_fn(&ast);
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.calls.len(), 2);
        let c = &body.calls[0];
        assert!(c.paren_close > c.paren_open);
        assert!(c.expr_start <= c.paren_open);
    }

    #[test]
    fn generic_fn_with_where_clause_parses() {
        let ast = parse_src(
            "pub fn pick<T: Ord, const N: usize>(xs: [T; N]) -> Result<T, u8>\n\
             where T: Clone { todo!() }",
        );
        let f = first_fn(&ast);
        assert_eq!(f.name, "pick");
        assert!(f.returns_result);
        assert_eq!(f.body.as_ref().expect("body").panics.len(), 1);
    }
}
