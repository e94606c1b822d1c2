//! tcp-lint — project-specific static analysis for the TCP reproduction.
//!
//! The reproduction's credibility rests on bit-identical determinism and
//! on the typed-error discipline of the library crates. Clippy cannot
//! express those project rules, so this crate encodes them as a
//! dependency-free analysis engine: one table of lint rows ([`lints`])
//! evaluated over one pipeline. Each file is lexed, test-masked, parsed
//! and directive-scanned once; the file-local rows run over its tokens
//! and AST; the workspace rows then run over a symbol table and call
//! graph, per-function effects (panic, lock, block, allocation)
//! propagated over the call graph's SCCs, and per-function dataflow
//! facts. Findings are filtered once, through the table's scopes and the
//! files' waivers.
//!
//! Run it over the workspace (CI does exactly this, and a nonzero exit
//! gates the build):
//!
//! ```text
//! cargo run -p tcp-lint -- --workspace
//! ```
//!
//! Individual findings are waived per site with a justified comment on
//! the offending line or the line above; see [`lints`] for the syntax,
//! [`ALL_LINTS`] for the lint names, and `tcp-lint --waivers` for the
//! live suppression-debt report.

#![forbid(unsafe_code)]

mod ast;
mod cfg;
mod dataflow;
mod lexer;
pub mod lints;
mod semantic;
mod summaries;
mod symbols;

pub use lints::{lint_about, FileKind, FileSpec, Finding, ALL_LINTS};

use lints::{file_rows, lint_row, scan_directives, suppressed_by, test_mask, ParsedDirectives};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file handed to [`analyze_files`].
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Full source text.
    pub src: String,
}

/// One active suppression, for the `--waivers` debt report.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// Lint names the directive waives.
    pub lints: Vec<String>,
    /// The justification text after the `allow(...)`.
    pub reason: String,
    /// Whether the waived lint no longer fires on the covered lines —
    /// a rotten suppression that should be deleted.
    pub stale: bool,
}

/// Result of a whole-workspace analysis.
pub struct WorkspaceReport {
    /// All findings (every row), scope- and suppression-filtered and
    /// sorted by (path, line, col, lint).
    pub findings: Vec<Finding>,
    /// Every active waiver, sorted by (path, line).
    pub waivers: Vec<Waiver>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Source directories scanned in workspace mode: the root package, the
/// out-of-workspace `proptests/` tree (excluded from the build because
/// it needs crates.io to *compile*, not to lint), and every member the
/// root `Cargo.toml` declares — so adding a crate to the workspace adds
/// it to lint coverage in the same edit. Manifest `exclude` entries are
/// honored; lint fixtures are deliberately-bad code and are skipped at
/// collection time. A manifest with no parseable members (synthetic test
/// workspaces) falls back to listing `crates/` directly.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let members = expand_member_globs(root, &toml_str_array(&manifest, "members"));
    let exclude = expand_member_globs(root, &toml_str_array(&manifest, "exclude"));

    let mut dirs: Vec<PathBuf> = vec![
        root.join("src"),
        root.join("tests"),
        root.join("examples"),
        root.join("proptests").join("src"),
        root.join("proptests").join("tests"),
    ];
    let mut crate_dirs: Vec<PathBuf> = members
        .iter()
        .filter(|m| !exclude.contains(m))
        .map(|m| root.join(m))
        .collect();
    if crate_dirs.is_empty() {
        // Fallback: no members declared — list `crates/` directly.
        let crates = root.join("crates");
        if crates.is_dir() {
            for entry in fs::read_dir(&crates)? {
                let entry = entry?;
                if entry.path().is_dir() {
                    crate_dirs.push(entry.path());
                }
            }
        }
    }
    crate_dirs.sort();
    for c in crate_dirs {
        dirs.push(c.join("src"));
        dirs.push(c.join("tests"));
        dirs.push(c.join("examples"));
    }

    let mut files = Vec::new();
    for d in dirs {
        if d.is_dir() {
            collect_rs(&d, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Extracts the string elements of a `key = [ "…", … ]` TOML array,
/// tolerating the array spanning multiple lines. Good enough for the
/// workspace `members`/`exclude` arrays; anything unparseable yields an
/// empty list (and the caller falls back to directory listing).
fn toml_str_array(manifest: &str, key: &str) -> Vec<String> {
    let mut in_array = false;
    let mut body = String::new();
    for line in manifest.lines() {
        let trimmed = line.trim();
        if !in_array {
            let Some(rest) = trimmed.strip_prefix(key) else {
                continue;
            };
            let Some(rest) = rest.trim_start().strip_prefix('=') else {
                continue;
            };
            let Some(rest) = rest.trim_start().strip_prefix('[') else {
                continue;
            };
            body.push_str(rest);
            in_array = true;
        } else {
            body.push_str(trimmed);
        }
        if let Some(end) = body.find(']') {
            body.truncate(end);
            break;
        }
    }
    let mut out = Vec::new();
    let mut rest = body.as_str();
    while let Some(q1) = rest.find('"') {
        let Some(len) = rest[q1 + 1..].find('"') else {
            break;
        };
        out.push(rest[q1 + 1..q1 + 1 + len].to_owned());
        rest = &rest[q1 + 1 + len + 1..];
    }
    out
}

/// Expands `prefix/*` member globs against the filesystem; plain
/// entries pass through. Results are workspace-relative `/`-separated
/// strings, sorted for determinism.
fn expand_member_globs(root: &Path, patterns: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for p in patterns {
        if let Some(prefix) = p.strip_suffix("/*") {
            let Ok(entries) = fs::read_dir(root.join(prefix)) else {
                continue;
            };
            for entry in entries.flatten() {
                if entry.path().is_dir() {
                    if let Some(name) = entry.file_name().to_str() {
                        out.push(format!("{prefix}/{name}"));
                    }
                }
            }
        } else {
            out.push(p.clone());
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // Fixtures are known-bad inputs for the lint tests.
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Derives a [`FileSpec`] from a workspace-relative path like
/// `crates/cache/src/tlb.rs` or `tests/golden.rs`.
pub fn spec_for_path(rel: &str) -> FileSpec<'_> {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_dir = parts
        .windows(2)
        .find(|w| w[0] == "crates")
        .map(|w| w[1])
        .unwrap_or("");
    let kind = if parts.contains(&"tests") {
        FileKind::Test
    } else if parts.contains(&"examples") {
        FileKind::Example
    } else if parts.contains(&"bin") || parts.last().is_some_and(|f| *f == "main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    let crate_root = rel.ends_with("src/lib.rs");
    FileSpec {
        path: rel,
        crate_dir,
        kind,
        crate_root,
    }
}

/// Lints one on-disk file given the workspace root; `path` must live
/// under `root`. File-local rows only — the workspace rows need every
/// file ([`analyze_files`] / [`analyze_workspace`]).
pub fn lint_path(root: &Path, path: &Path) -> io::Result<Vec<Finding>> {
    let src = fs::read_to_string(path)?;
    let rel = rel_path(root, path);
    let spec = spec_for_path(&rel);
    Ok(lint_file(&spec, &src))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Stage-1 artifacts of one file, shared by every later stage.
struct Prepared {
    lx: lexer::Lexed,
    mask: Vec<bool>,
    ast: ast::Ast,
    directives: ParsedDirectives,
}

fn prepare(kind: FileKind, src: &str) -> Prepared {
    let lx = lexer::lex(src);
    let mask = test_mask(&lx.tokens, kind);
    let ast = ast::parse(&lx.tokens, &mask);
    let directives = scan_directives(&lx);
    Prepared {
        lx,
        mask,
        ast,
        directives,
    }
}

/// The file-local rows over one prepared file.
fn local_rows(spec: &FileSpec<'_>, p: &Prepared) -> Vec<Finding> {
    file_rows(spec, &p.lx.tokens, &p.mask, &p.ast, &p.directives.bad)
}

/// The single filter every finding passes: drops findings outside their
/// row's scope or covered by a waiver of `sups` (recording the waiver's
/// directive line into `used`), and fills in the snippet from `src`.
fn keep(
    f: &mut Finding,
    spec: &FileSpec<'_>,
    src: &str,
    sups: &lints::Suppressions,
    used: &mut BTreeSet<u32>,
) -> bool {
    if !lint_row(f.lint).is_some_and(|row| row.covers(spec.kind, spec.crate_dir)) {
        return false;
    }
    if let Some(line) = suppressed_by(sups, &[f.lint], f.line) {
        used.insert(line);
        return false;
    }
    f.snippet = src
        .lines()
        .nth(f.line as usize - 1)
        .map(|l| l.trim().to_owned())
        .unwrap_or_default();
    true
}

/// Sorts findings by (path, line, col, lint) and drops duplicates.
fn sort_dedup(findings: &mut Vec<Finding>) {
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.lint).cmp(&(&b.path, b.line, b.col, b.lint)));
    findings.dedup_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.lint) == (b.path.as_str(), b.line, b.col, b.lint)
    });
}

/// Lints one file with the file-local rows. Findings are sorted by
/// position and already filtered through the lint table's scopes and the
/// file's suppression comments.
pub fn lint_file(spec: &FileSpec<'_>, src: &str) -> Vec<Finding> {
    let p = prepare(spec.kind, src);
    let mut findings = local_rows(spec, &p);
    findings.retain_mut(|f| keep(f, spec, src, &p.directives.sups, &mut BTreeSet::new()));
    sort_dedup(&mut findings);
    findings
}

/// Lexed + parsed workspace sources with the analysis stages exposed
/// individually, so `tcp-perf` can time parse / semantic / dataflow as
/// separate cases. [`analyze_files`] composes the same stages.
pub struct ParsedWorkspace {
    files: Vec<SourceFile>,
    prepared: Vec<Prepared>,
}

impl ParsedWorkspace {
    /// Stage 1: lex, test-mask, parse, and directive-scan every file.
    pub fn parse(files: Vec<SourceFile>) -> Self {
        let prepared = files
            .iter()
            .map(|f| prepare(spec_for_path(&f.rel_path).kind, &f.src))
            .collect();
        ParsedWorkspace { files, prepared }
    }

    /// Total token count across files — a cheap determinism checksum
    /// for the parse stage.
    pub fn token_count(&self) -> u64 {
        self.prepared.iter().map(|p| p.lx.tokens.len() as u64).sum()
    }

    fn inputs(&self) -> Vec<symbols::FileInput<'_>> {
        self.files
            .iter()
            .zip(&self.prepared)
            .map(|(f, p)| {
                let spec = spec_for_path(&f.rel_path);
                symbols::FileInput {
                    path: &f.rel_path,
                    crate_dir: spec.crate_dir,
                    kind: spec.kind,
                    toks: &p.lx.tokens,
                    in_test: &p.mask,
                    ast: &p.ast,
                }
            })
            .collect()
    }

    fn core(&self, used: &mut BTreeMap<String, BTreeSet<u32>>) -> Vec<Finding> {
        let inputs = self.inputs();
        let sups: Vec<&lints::Suppressions> =
            self.prepared.iter().map(|p| &p.directives.sups).collect();
        semantic::run_core(&symbols::build(&inputs), &inputs, &sups, used)
    }

    /// Stage 2: symbol table + the call-graph rows.
    pub fn semantic_core(&self) -> Vec<Finding> {
        self.core(&mut BTreeMap::new())
    }

    /// Stage 3: the dataflow rows, over the effect summaries.
    pub fn dataflow(&self) -> Vec<Finding> {
        let inputs = self.inputs();
        semantic::run_dataflow(&symbols::build(&inputs), &inputs)
    }

    /// Every stage, then the one suppression filter. `used` collects the
    /// directive lines (per file path) whose waiver suppressed something
    /// — the complement is the stale-waiver set.
    fn analyze(&self, used: &mut BTreeMap<String, BTreeSet<u32>>) -> Vec<Finding> {
        let mut findings: Vec<Finding> = self
            .files
            .iter()
            .zip(&self.prepared)
            .flat_map(|(f, p)| local_rows(&spec_for_path(&f.rel_path), p))
            .collect();
        findings.extend(self.core(used));
        findings.extend(self.dataflow());
        let index: BTreeMap<&str, usize> = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel_path.as_str(), i))
            .collect();
        findings.retain_mut(|f| {
            let Some(&i) = index.get(f.path.as_str()) else {
                return true;
            };
            let file = &self.files[i];
            let used_here = used.entry(file.rel_path.clone()).or_default();
            let sups = &self.prepared[i].directives.sups;
            keep(
                f,
                &spec_for_path(&file.rel_path),
                &file.src,
                sups,
                used_here,
            )
        });
        sort_dedup(&mut findings);
        findings
    }
}

/// Runs the full analysis — the file-local rows per file, then the
/// workspace rows over the call graph — and returns filtered findings
/// sorted by (path, line, col, lint).
pub fn analyze_files(files: &[SourceFile]) -> Vec<Finding> {
    ParsedWorkspace::parse(files.to_vec()).analyze(&mut BTreeMap::new())
}

/// Reads every workspace source under `root`, runs the analysis, and
/// collects the waiver report.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let paths = workspace_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        files.push(SourceFile {
            rel_path: rel_path(root, p),
            src: fs::read_to_string(p)?,
        });
    }
    let ws = ParsedWorkspace::parse(files);
    let mut used: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    let findings = ws.analyze(&mut used);
    // A site that already trips `bad-suppression` must not also count
    // as a stale waiver — one broken directive line is one unit of
    // debt, not two (`check-lint.sh` weights stale waivers double).
    let bad_sites: BTreeSet<(&str, u32)> = findings
        .iter()
        .filter(|f| f.lint == lints::BAD_SUPPRESSION.name)
        .map(|f| (f.path.as_str(), f.line))
        .collect();
    let mut waivers = Vec::new();
    for (f, p) in ws.files.iter().zip(&ws.prepared) {
        for (line, lints, reason) in &p.directives.waivers {
            let path = f.rel_path.as_str();
            waivers.push(Waiver {
                path: path.to_owned(),
                line: *line,
                lints: lints.clone(),
                reason: reason.clone(),
                stale: !used.get(path).is_some_and(|l| l.contains(line))
                    && !bad_sites.contains(&(path, *line)),
            });
        }
    }
    waivers.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(WorkspaceReport {
        findings,
        waivers,
        files_scanned: ws.files.len(),
    })
}

/// Renders findings for humans: one position line plus the snippet.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            f.path, f.line, f.col, f.lint, f.message
        ));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    {}\n", f.snippet));
        }
    }
    out
}

/// Renders findings as a JSON array of objects, one per finding, through
/// `tcp-json`'s canonical writer (sorted keys, byte-stable output).
pub fn render_json(findings: &[Finding]) -> String {
    use tcp_json::Json;
    let items = findings
        .iter()
        .map(|f| {
            let fields = [
                ("path", Json::Str(f.path.clone())),
                ("line", Json::Num(f64::from(f.line))),
                ("col", Json::Num(f64::from(f.col))),
                ("lint", Json::Str(f.lint.to_owned())),
                ("message", Json::Str(f.message.clone())),
                ("snippet", Json::Str(f.snippet.clone())),
            ];
            Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        })
        .collect();
    let mut out = tcp_json::to_string(&Json::Arr(items));
    out.push('\n');
    out
}

/// Renders findings as a SARIF 2.1.0 log (the GitHub code-scanning
/// ingestion format), built on `tcp-json`'s canonical writer so the
/// output is byte-stable for identical findings. One run, one result
/// per finding, one rule per lint name with its one-line description.
pub fn render_sarif(findings: &[Finding]) -> String {
    use tcp_json::Json;

    fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
    fn s(text: &str) -> Json {
        Json::Str(text.to_owned())
    }
    fn text(t: &str) -> Json {
        obj(vec![("text", s(t))])
    }

    let rules: Vec<Json> = ALL_LINTS
        .iter()
        .map(|&name| {
            obj(vec![
                ("id", s(name)),
                ("shortDescription", text(lint_about(name))),
            ])
        })
        .collect();
    let results: Vec<Json> = findings
        .iter()
        .map(|f| {
            obj(vec![
                ("ruleId", s(f.lint)),
                ("level", s("error")),
                ("message", text(&f.message)),
                (
                    "locations",
                    Json::Arr(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            ("artifactLocation", obj(vec![("uri", s(&f.path))])),
                            (
                                "region",
                                obj(vec![
                                    ("startLine", Json::Num(f.line as f64)),
                                    ("startColumn", Json::Num(f.col as f64)),
                                ]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let driver = obj(vec![
        ("name", s("tcp-lint")),
        ("informationUri", s("https://github.com/tcp-repro/tcp")),
        ("rules", Json::Arr(rules)),
    ]);
    let run = obj(vec![
        ("tool", obj(vec![("driver", driver)])),
        ("results", Json::Arr(results)),
    ]);
    let log = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        ("runs", Json::Arr(vec![run])),
    ]);
    let mut out = tcp_json::to_string(&log);
    out.push('\n');
    out
}

/// Renders the waiver debt report: one line per directive plus totals
/// (`scripts/check-lint.sh` caps `total` + `stale` so debt cannot grow
/// silently and suppressions cannot rot in place).
pub fn render_waivers(waivers: &[Waiver]) -> String {
    let mut out = String::new();
    for w in waivers {
        out.push_str(&format!(
            "{}:{}  {}  — {}{}\n",
            w.path,
            w.line,
            w.lints.join(","),
            w.reason,
            if w.stale {
                "  [STALE: lint no longer fires here — delete this waiver]"
            } else {
                ""
            }
        ));
    }
    out.push_str(&format!("total: {} waivers\n", waivers.len()));
    out.push_str(&format!(
        "stale: {} waivers\n",
        waivers.iter().filter(|w| w.stale).count()
    ));
    out
}

/// Renders findings as GitHub Actions workflow commands, one `::error`
/// annotation per finding, so CI surfaces them inline on the PR diff.
pub fn render_gh(findings: &[Finding]) -> String {
    // Workflow-command escaping: data escapes %/\r/\n; property values
    // additionally escape `:` and `,`.
    fn esc_data(s: &str) -> String {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    }
    fn esc_prop(s: &str) -> String {
        esc_data(s).replace(':', "%3A").replace(',', "%2C")
    }
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "::error file={},line={},col={},title={}::{}\n",
            esc_prop(&f.path),
            f.line,
            f.col,
            esc_prop(&format!("tcp-lint {}", f.lint)),
            esc_data(&f.message)
        ));
    }
    out
}
