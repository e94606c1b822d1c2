//! Workspace symbol table and function call graph, built from the
//! per-file ASTs of [`crate::ast`].
//!
//! Resolution is name-based — there is no type checker here — so every
//! rule is conservative: a call resolves only when the workspace gives
//! an unambiguous answer for it (same file, then same crate, then a
//! workspace-unique name), and qualifiers the workspace does not define
//! (`Vec::`, `std::`, …) resolve to nothing rather than falling back to
//! a bare-name guess. Missing edges make the semantic lints
//! under-report; invented edges would make them lie. The maps are all
//! `BTreeMap` and functions are numbered in sorted-file visit order, so
//! the graph — and therefore every finding derived from it — is
//! deterministic.

use crate::ast::{visit_enums, visit_fns, visit_structs, Ast, Callee, FnDef, ImplBlock};
use crate::lexer::Token;
use crate::lints::FileKind;
use std::collections::{BTreeMap, BTreeSet};

/// Analyzed context of one source file, supplied by the caller.
#[derive(Clone, Copy)]
pub struct FileInput<'a> {
    /// Workspace-relative display path.
    pub path: &'a str,
    /// `crates/<dir>` component (`""` for the root package,
    /// `"proptests"` for the proptest tree).
    pub crate_dir: &'a str,
    /// Build role of the file.
    pub kind: FileKind,
    /// The file's token stream.
    pub toks: &'a [Token],
    /// Per-token test mask.
    pub in_test: &'a [bool],
    /// The parsed file.
    pub ast: &'a Ast,
}

/// One function in the workspace graph.
pub struct FnNode<'a> {
    /// Index into the input file list.
    pub file: usize,
    /// The parsed definition (body facts included).
    pub def: &'a FnDef,
    /// Enclosing impl block, if the function is a method.
    pub imp: Option<&'a ImplBlock>,
    /// Whether the function is test-only (its own mask or a test file).
    pub in_test: bool,
    /// Resolved calls out of this function.
    pub calls: Vec<CallEdge<'a>>,
}

impl FnNode<'_> {
    /// The implementing type, for methods.
    pub fn self_ty(&self) -> Option<&str> {
        self.imp.map(|b| b.self_ty.as_str())
    }

    /// `Type::name` or bare `name`, for messages.
    pub fn display_name(&self) -> String {
        match self.self_ty() {
            Some(ty) => format!("{ty}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// One call site with its resolved in-workspace targets.
pub struct CallEdge<'a> {
    /// The AST call site.
    pub site: &'a crate::ast::CallSite,
    /// Display name of the callee, for messages.
    pub name: String,
    /// Resolved target functions (empty when unknown/out-of-workspace).
    pub targets: Vec<usize>,
}

/// The workspace graph.
pub struct Workspace<'a> {
    /// Every function, in deterministic id order.
    pub fns: Vec<FnNode<'a>>,
    /// Every struct definition with its file index.
    pub structs: Vec<(usize, &'a crate::ast::StructDef)>,
    /// Closed (`#[non_exhaustive]`-free) workspace enums by name, with
    /// the union of variants across same-named definitions.
    pub closed_enums: BTreeMap<String, BTreeSet<String>>,
}

/// Key sets used during call resolution.
struct Indexes {
    /// (file, name) → free fns in that file.
    free_by_file: BTreeMap<(usize, String), Vec<usize>>,
    /// (crate_dir, name) → free fns in that crate.
    free_by_crate: BTreeMap<(String, String), Vec<usize>>,
    /// (crate_dir, module, name) → free fns in that module.
    free_by_module: BTreeMap<(String, String, String), Vec<usize>>,
    /// name → free fns anywhere.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// (self_ty, name) → impl fns anywhere.
    method_by_ty: BTreeMap<(String, String), Vec<usize>>,
    /// name → impl fns anywhere.
    method_by_name: BTreeMap<String, Vec<usize>>,
    /// fn id → its crate dir, for crate-filtered resolution.
    fn_crate: BTreeMap<usize, String>,
    /// Crate dirs that exist, for `tcp_x` → `x` mapping.
    crate_dirs: BTreeSet<String>,
}

/// Module name of a file: its stem, with crate roots mapping to `""`.
fn module_of(path: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    if matches!(stem, "lib" | "main" | "mod") {
        String::new()
    } else {
        stem.to_owned()
    }
}

/// `tcp_cache` → `cache` when such a crate exists in the inputs.
fn crate_of(seg: &str, idx: &Indexes) -> Option<String> {
    let dir = seg.strip_prefix("tcp_")?;
    if idx.crate_dirs.contains(dir) {
        Some(dir.to_owned())
    } else {
        None
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Builds the workspace graph from analyzed files. Files must be in a
/// deterministic (sorted) order; fn ids follow that order.
pub fn build<'a>(files: &[FileInput<'a>]) -> Workspace<'a> {
    let mut fns: Vec<FnNode<'a>> = Vec::new();
    let mut structs = Vec::new();
    let mut closed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut open_enums: BTreeSet<String> = BTreeSet::new();

    for (fi, file) in files.iter().enumerate() {
        let whole_file_test = file.kind == FileKind::Test;
        for fr in visit_fns(file.ast) {
            let impl_test = fr.imp.is_some_and(|b| b.in_test);
            fns.push(FnNode {
                file: fi,
                def: fr.f,
                imp: fr.imp,
                in_test: whole_file_test || fr.f.in_test || impl_test,
                calls: Vec::new(),
            });
        }
        for s in visit_structs(file.ast) {
            if !(whole_file_test || s.in_test) {
                structs.push((fi, s));
            }
        }
        // `#[non_exhaustive]` anywhere poisons the name.
        for e in visit_enums(file.ast) {
            if whole_file_test || e.in_test {
                continue;
            }
            if e.non_exhaustive {
                open_enums.insert(e.name.clone());
            } else {
                let variants = closed.entry(e.name.clone()).or_default();
                variants.extend(e.variants.iter().cloned());
            }
        }
    }
    for name in &open_enums {
        closed.remove(name);
    }

    let idx = build_indexes(files, &fns);
    let mut resolved: Vec<Vec<CallEdge<'a>>> = Vec::new();
    for node in &fns {
        let file = &files[node.file];
        let mut edges = Vec::new();
        let body_calls = node.def.body.iter().flat_map(|b| b.calls.iter());
        for site in body_calls {
            let targets = resolve(site, node, file, &idx);
            edges.push(CallEdge {
                site,
                name: callee_name(&site.callee),
                targets,
            });
        }
        resolved.push(edges);
    }
    for (node, edges) in fns.iter_mut().zip(resolved) {
        node.calls = edges;
    }

    Workspace {
        fns,
        structs,
        closed_enums: closed,
    }
}

fn build_indexes(files: &[FileInput<'_>], fns: &[FnNode<'_>]) -> Indexes {
    let mut idx = Indexes {
        free_by_file: BTreeMap::new(),
        free_by_crate: BTreeMap::new(),
        free_by_module: BTreeMap::new(),
        free_by_name: BTreeMap::new(),
        method_by_ty: BTreeMap::new(),
        method_by_name: BTreeMap::new(),
        fn_crate: BTreeMap::new(),
        crate_dirs: BTreeSet::new(),
    };
    for file in files {
        if !file.crate_dir.is_empty() {
            idx.crate_dirs.insert(file.crate_dir.to_owned());
        }
    }
    for (id, node) in fns.iter().enumerate() {
        // Test helpers are never resolution targets for non-test code.
        if node.in_test {
            continue;
        }
        let file = &files[node.file];
        let name = node.def.name.clone();
        idx.fn_crate.insert(id, file.crate_dir.to_owned());
        match node.self_ty() {
            Some(ty) => {
                idx.method_by_ty
                    .entry((ty.to_owned(), name.clone()))
                    .or_default()
                    .push(id);
                idx.method_by_name.entry(name).or_default().push(id);
            }
            None => {
                idx.free_by_file
                    .entry((node.file, name.clone()))
                    .or_default()
                    .push(id);
                idx.free_by_crate
                    .entry((file.crate_dir.to_owned(), name.clone()))
                    .or_default()
                    .push(id);
                idx.free_by_module
                    .entry((
                        file.crate_dir.to_owned(),
                        module_of(file.path),
                        name.clone(),
                    ))
                    .or_default()
                    .push(id);
                idx.free_by_name.entry(name).or_default().push(id);
            }
        }
    }
    idx
}

fn callee_name(c: &Callee) -> String {
    match c {
        Callee::Path(segs) => segs.join("::"),
        Callee::Method { name, on_self: _ } => name.clone(),
    }
}

/// Resolves one call site to target fn ids. Empty when the callee is
/// out-of-workspace or ambiguous.
fn resolve(
    site: &crate::ast::CallSite,
    node: &FnNode<'_>,
    file: &FileInput<'_>,
    idx: &Indexes,
) -> Vec<usize> {
    let out = match &site.callee {
        Callee::Method { name, on_self } => resolve_method(name, *on_self, node, file, idx),
        Callee::Path(segs) => resolve_path(segs, node, file, idx),
    };
    let mut out = out;
    out.sort_unstable();
    out.dedup();
    out
}

fn resolve_method(
    name: &str,
    on_self: bool,
    node: &FnNode<'_>,
    file: &FileInput<'_>,
    idx: &Indexes,
) -> Vec<usize> {
    if on_self {
        if let Some(ty) = node.self_ty() {
            return prefer_crate(
                idx.method_by_ty
                    .get(&(ty.to_owned(), name.to_owned()))
                    .cloned()
                    .unwrap_or_default(),
                file.crate_dir,
                idx,
            );
        }
    }
    // Unknown receiver type: resolve only a workspace-unique method name.
    match idx.method_by_name.get(name) {
        Some(ids) if ids.len() == 1 => ids.clone(),
        Some(_) | None => Vec::new(),
    }
}

fn resolve_path(
    segs: &[String],
    node: &FnNode<'_>,
    file: &FileInput<'_>,
    idx: &Indexes,
) -> Vec<usize> {
    let mut segs: Vec<String> = segs.to_vec();
    if segs.first().is_some_and(|s| s == "Self") {
        match node.self_ty() {
            Some(ty) => segs[0] = ty.to_owned(),
            None => return Vec::new(),
        }
    }
    let Some(name) = segs.last().cloned() else {
        return Vec::new();
    };
    if segs.len() == 1 {
        if let Some(ids) = idx.free_by_file.get(&(node.file, name.clone())) {
            return ids.clone();
        }
        if let Some(ids) = idx
            .free_by_crate
            .get(&(file.crate_dir.to_owned(), name.clone()))
        {
            return ids.clone();
        }
        // A use-imported free fn: accept only a workspace-unique name.
        return match idx.free_by_name.get(&name) {
            Some(ids) if ids.len() == 1 => ids.clone(),
            Some(_) | None => Vec::new(),
        };
    }
    let qualifier = segs[segs.len() - 2].clone();
    if starts_upper(&qualifier) {
        // `Type::assoc(…)`, possibly crate-prefixed.
        let mut ids = idx
            .method_by_ty
            .get(&(qualifier, name))
            .cloned()
            .unwrap_or_default();
        if segs.len() >= 3 {
            if let Some(c) = crate_of(&segs[0], idx) {
                ids.retain(|&id| idx.fn_crate.get(&id).map(String::as_str) == Some(c.as_str()));
                return ids;
            }
        }
        return prefer_crate(ids, file.crate_dir, idx);
    }
    // `module::f(…)` or `tcp_crate::f(…)` or `tcp_crate::module::f(…)`.
    let target_crate = crate_of(&segs[0], idx);
    if segs.len() == 2 {
        if let Some(c) = target_crate {
            return idx
                .free_by_crate
                .get(&(c, name))
                .cloned()
                .unwrap_or_default();
        }
        return idx
            .free_by_module
            .get(&(file.crate_dir.to_owned(), qualifier, name))
            .cloned()
            .unwrap_or_default();
    }
    let c = target_crate.unwrap_or_else(|| file.crate_dir.to_owned());
    if let Some(ids) = idx
        .free_by_module
        .get(&(c.clone(), qualifier, name.clone()))
    {
        return ids.clone();
    }
    // Root re-exports: `tcp_x::deep::path::f` resolved by crate alone.
    idx.free_by_crate
        .get(&(c, name))
        .cloned()
        .unwrap_or_default()
}

/// When multiple crates define the same `Type::method`, prefer the
/// caller's own crate; otherwise keep all candidates.
fn prefer_crate(ids: Vec<usize>, crate_dir: &str, idx: &Indexes) -> Vec<usize> {
    if ids.len() <= 1 {
        return ids;
    }
    let own: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|id| idx.fn_crate.get(id).map(String::as_str) == Some(crate_dir))
        .collect();
    if own.is_empty() {
        ids
    } else {
        own
    }
}
