//! The crash-safe persistent sweep store: a versioned, content-addressed,
//! disk-backed memo for simulation results.
//!
//! The in-process [`SweepEngine`](crate::sweep::SweepEngine) memo dies
//! with the process; this module gives it a durable twin so repeated
//! sweeps across runs — and sweeps killed halfway — hit the cache at
//! memo-lookup speed instead of re-simulating. The store is a directory
//! holding one JSONL file (`store.jsonl`, hand-rolled JSON like
//! `BENCH.json`): one record per line, each record carrying
//!
//! * `store_version` — the on-disk format generation ([`STORE_VERSION`]);
//!   records from another generation are never trusted;
//! * `checksum` — FNV-1a 64 over the payload's canonical JSON
//!   serialization ([`tcp_json::to_string`] is deterministic, so the
//!   checksum is reproducible from a parsed record);
//! * `payload` — the memo key (the job's canonical identity string) plus
//!   the full [`RunResult`], every integer as a decimal string and the
//!   IPC as its `f64::to_bits` value, so a loaded result is
//!   **bit-identical** to the one that was stored.
//!
//! # Crash safety
//!
//! [`SweepStore::flush`] appends only the records inserted since the
//! last flush, in insertion order, with one write and one fsync of
//! `store.jsonl`; the directory is fsynced too when that append creates
//! the file. A crash mid-append can tear at most the last line, which the
//! next [`SweepStore::open`] quarantines like any damaged record, so
//! every record flushed before it survives.
//!
//! Nothing is ever appended after a torn or unterminated tail. When
//! `open` quarantines anything, or finds a last record cut just before
//! its newline, it repairs the file with the atomic rewrite: serialize
//! every record, in key order, to `store.jsonl.tmp`, fsync it, rename it
//! over `store.jsonl` and fsync the directory. A flush whose append
//! failed keeps its records and makes the next flush that rewrite. A
//! crash during a rewrite leaves either the old file or the new one, and
//! at worst an orphaned temp file, which the next `open` quarantines.
//!
//! # Graceful degradation
//!
//! Loading never aborts on bad data. A record that is truncated,
//! bit-flipped, version-skewed, duplicated, or left behind by an
//! interrupted rename is *quarantined*: appended (with a reason) to
//! `quarantine.jsonl`, counted in [`StoreStats`], and removed from the
//! store file by the repair rewrite — so the engine transparently
//! re-simulates exactly those keys. The fault-injection suite
//! (`StoreFault` in `tcp_sim::faults`, exercised by
//! `tests/store_persistence.rs`) pins this contract.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use tcp_cache::{HierarchyStats, L2AccessBreakdown};
use tcp_json::Json;
use tcp_sim::RunResult;

/// On-disk format generation. Bump on any change to the record envelope
/// or payload schema; see DESIGN.md §11 for the evolution rules (old
/// generations are quarantined and re-simulated, never migrated in
/// place).
pub const STORE_VERSION: u64 = 1;

/// The store file inside a store directory.
pub const STORE_FILE: &str = "store.jsonl";

/// The temp file the atomic-rename write protocol stages into.
pub const STORE_TMP_FILE: &str = "store.jsonl.tmp";

/// Where quarantined records are moved, one JSON object per line with
/// the rejection reason and the original record text.
pub const QUARANTINE_FILE: &str = "quarantine.jsonl";

/// Why a record was quarantined instead of loaded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The line is not valid JSON, or a required field is missing or
    /// malformed (covers truncated tails and non-UTF-8 damage).
    Parse,
    /// The record's `store_version` is not [`STORE_VERSION`].
    VersionMismatch,
    /// The payload checksum does not match its contents (bit flips,
    /// hand edits).
    ChecksumMismatch,
    /// A record for this key was already loaded; first record wins.
    DuplicateKey,
    /// An orphaned temp file from an interrupted repair rewrite
    /// (`store.jsonl.tmp` left behind between write and rename).
    TornRename,
}

impl QuarantineReason {
    /// Stable machine-readable name, used in `quarantine.jsonl`.
    pub fn as_str(&self) -> &'static str {
        match self {
            QuarantineReason::Parse => "parse",
            QuarantineReason::VersionMismatch => "version-mismatch",
            QuarantineReason::ChecksumMismatch => "checksum-mismatch",
            QuarantineReason::DuplicateKey => "duplicate-key",
            QuarantineReason::TornRename => "torn-rename",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Accounting for one store since [`SweepStore::open`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records loaded intact from disk.
    pub loaded: usize,
    /// Records inserted since open (pending or already flushed).
    pub inserted: usize,
    /// Flushes that wrote the store file (no-op flushes not counted).
    pub flushes: usize,
    /// Records quarantined as unparseable (includes truncation damage).
    pub quarantined_parse: usize,
    /// Records quarantined for a `store_version` mismatch.
    pub quarantined_version: usize,
    /// Records quarantined for a payload checksum mismatch.
    pub quarantined_checksum: usize,
    /// Records quarantined as duplicates of an already-loaded key.
    pub quarantined_duplicate: usize,
    /// Orphaned temp files quarantined from interrupted flushes.
    pub quarantined_torn: usize,
}

impl StoreStats {
    /// Total records moved to quarantine at open, over all reasons.
    pub fn total_quarantined(&self) -> usize {
        self.quarantined_parse
            + self.quarantined_version
            + self.quarantined_checksum
            + self.quarantined_duplicate
            + self.quarantined_torn
    }

    /// One-line human summary (the `tcp-serve` footer).
    pub fn summary(&self) -> String {
        format!(
            "loaded {} inserted {} flushes {} quarantined {} \
             (parse {} version {} checksum {} duplicate {} torn {})",
            self.loaded,
            self.inserted,
            self.flushes,
            self.total_quarantined(),
            self.quarantined_parse,
            self.quarantined_version,
            self.quarantined_checksum,
            self.quarantined_duplicate,
            self.quarantined_torn,
        )
    }
}

/// An I/O failure while opening or flushing a store. Damaged *data* is
/// never an error — it is quarantined — so this only surfaces when the
/// filesystem itself refuses to cooperate.
#[derive(Debug)]
pub struct StoreError {
    /// What the store was doing (`"read"`, `"write"`, `"rename"`, …).
    pub op: &'static str,
    /// The path involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep store could not {} {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// FNV-1a 64-bit over `bytes` — the store's payload checksum. Not
/// cryptographic; it detects the accidental corruption (torn writes, bit
/// rot, hand edits) this store defends against.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A disk-backed, crash-safe memo of simulation results, keyed by the
/// canonical job identity string ([`crate::sweep::Job::key`]).
///
/// # Examples
///
/// ```no_run
/// use std::path::Path;
/// use tcp_experiments::store::SweepStore;
///
/// let mut store = SweepStore::open(Path::new("target/sweep-store")).unwrap();
/// if let Some(hit) = store.get("some-key") {
///     println!("cached: {} cycles", hit.cycles);
/// }
/// ```
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    records: BTreeMap<String, RunResult>,
    /// The encoded lines of the records inserted since the last flush, in
    /// insertion order: what the next flush appends.
    pending: String,
    /// Set when an append failed and may have left a torn tail: the next
    /// flush rewrites the file instead of appending after it.
    torn_tail: bool,
    stats: StoreStats,
}

impl SweepStore {
    /// Opens (creating if needed) the store in `dir`, loading every
    /// intact record and quarantining the rest.
    ///
    /// Quarantine is repair, not failure: corrupt, truncated,
    /// version-skewed, and duplicate records are appended to
    /// `quarantine.jsonl` with a reason, the store file is rewritten
    /// without them (atomically, in key order), and the counts land in
    /// [`SweepStore::stats`]. An orphaned `store.jsonl.tmp` from an
    /// interrupted rewrite is quarantined the same way. A last record
    /// that is complete but lacks its newline is kept, and the file is
    /// rewritten so that the next append starts on a fresh line.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (unreadable directory, failed write of the
    /// repaired files) surface as [`StoreError`].
    pub fn open(dir: &Path) -> Result<SweepStore, StoreError> {
        fs::create_dir_all(dir).map_err(|source| StoreError {
            op: "create",
            path: dir.to_path_buf(),
            source,
        })?;
        let mut store = SweepStore {
            dir: dir.to_path_buf(),
            records: BTreeMap::new(),
            pending: String::new(),
            torn_tail: false,
            stats: StoreStats::default(),
        };
        let mut quarantine: Vec<(QuarantineReason, String, String)> = Vec::new();

        // An orphaned temp file means a repair rewrite was interrupted
        // between write and rename; its contents were never committed,
        // so they are evidence, not data.
        let tmp = store.dir.join(STORE_TMP_FILE);
        if tmp.exists() {
            let bytes = fs::read(&tmp).map_err(|source| StoreError {
                op: "read",
                path: tmp.clone(),
                source,
            })?;
            quarantine.push((
                QuarantineReason::TornRename,
                String::from_utf8_lossy(&bytes).into_owned(),
                "orphaned temp file from an interrupted flush".to_owned(),
            ));
            store.stats.quarantined_torn += 1;
            fs::remove_file(&tmp).map_err(|source| StoreError {
                op: "remove",
                path: tmp.clone(),
                source,
            })?;
        }

        let store_path = store.store_path();
        let mut unterminated = false;
        if store_path.exists() {
            let bytes = fs::read(&store_path).map_err(|source| StoreError {
                op: "read",
                path: store_path.clone(),
                source,
            })?;
            unterminated = bytes.last().is_some_and(|&b| b != b'\n');
            for raw in bytes.split(|&b| b == b'\n') {
                if raw.is_empty() {
                    continue;
                }
                let line = match std::str::from_utf8(raw) {
                    Ok(line) => line,
                    Err(_) => {
                        quarantine.push((
                            QuarantineReason::Parse,
                            String::from_utf8_lossy(raw).into_owned(),
                            "record is not valid UTF-8".to_owned(),
                        ));
                        store.stats.quarantined_parse += 1;
                        continue;
                    }
                };
                match decode_record(line) {
                    Ok((key, result)) => match store.records.entry(key) {
                        Entry::Occupied(seen) => {
                            quarantine.push((
                                QuarantineReason::DuplicateKey,
                                line.to_owned(),
                                format!("key already loaded: {}", seen.key()),
                            ));
                            store.stats.quarantined_duplicate += 1;
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(result);
                            store.stats.loaded += 1;
                        }
                    },
                    Err((reason, detail)) => {
                        match reason {
                            QuarantineReason::Parse => store.stats.quarantined_parse += 1,
                            QuarantineReason::VersionMismatch => {
                                store.stats.quarantined_version += 1
                            }
                            QuarantineReason::ChecksumMismatch => {
                                store.stats.quarantined_checksum += 1
                            }
                            QuarantineReason::DuplicateKey => {
                                store.stats.quarantined_duplicate += 1
                            }
                            QuarantineReason::TornRename => store.stats.quarantined_torn += 1,
                        }
                        quarantine.push((reason, line.to_owned(), detail));
                    }
                }
            }
        }

        if !quarantine.is_empty() {
            store.append_quarantine(&quarantine)?;
        }
        // Rewrite the store without the bad records so they are *moved*,
        // not merely skipped — the next open sees a clean file — and so
        // that no append is ever glued onto an unterminated last line.
        if !quarantine.is_empty() || unterminated {
            store.rewrite()?;
        }
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the store file.
    pub fn store_path(&self) -> PathBuf {
        self.dir.join(STORE_FILE)
    }

    /// Path of the quarantine file.
    pub fn quarantine_path(&self) -> PathBuf {
        self.dir.join(QUARANTINE_FILE)
    }

    /// The cached result for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&RunResult> {
        self.records.get(key)
    }

    /// Records `result` under `key` in memory and queues its line for
    /// the next [`SweepStore::flush`]. Inserting a key the store already
    /// holds does nothing: the simulator is deterministic, so the value
    /// can only be identical, and a second line for the key would be
    /// quarantined as a duplicate by the next [`SweepStore::open`].
    pub fn insert(&mut self, key: &str, result: &RunResult) {
        if let Entry::Vacant(slot) = self.records.entry(key.to_owned()) {
            self.pending.push_str(&encode_record(key, result));
            self.pending.push('\n');
            slot.insert(result.clone());
            self.stats.inserted += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Accounting since open.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Persists the records inserted since the last flush: their lines
    /// are appended to `store.jsonl`, in insertion order, with one write
    /// and one fsync (plus a directory fsync when the append creates the
    /// file). A no-op when nothing was inserted since the last flush.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any I/O failure. The records stay queued, and
    /// because a failed append may have left a torn tail, the next flush
    /// rewrites the whole file atomically instead of appending after it.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.torn_tail {
            self.rewrite()?;
        } else if let Err(e) = append_durably(&self.store_path(), &self.pending) {
            self.torn_tail = true;
            return Err(e);
        }
        self.pending.clear();
        self.stats.flushes += 1;
        Ok(())
    }

    /// Replaces `store.jsonl` with every record, in key order, through
    /// the atomic rewrite ([`write_atomic`]).
    fn rewrite(&mut self) -> Result<(), StoreError> {
        let mut out = String::new();
        for (key, result) in &self.records {
            out.push_str(&encode_record(key, result));
            out.push('\n');
        }
        write_atomic(&self.store_path(), &self.dir.join(STORE_TMP_FILE), &out)?;
        self.torn_tail = false;
        Ok(())
    }

    /// Appends quarantine entries (reason, original record text, detail)
    /// to `quarantine.jsonl` the way a flush appends records.
    fn append_quarantine(
        &self,
        entries: &[(QuarantineReason, String, String)],
    ) -> Result<(), StoreError> {
        let mut out = String::new();
        for (reason, record, detail) in entries {
            let mut obj = BTreeMap::new();
            obj.insert("reason".to_owned(), Json::Str(reason.as_str().to_owned()));
            obj.insert("detail".to_owned(), Json::Str(detail.clone()));
            obj.insert("record".to_owned(), Json::Str(record.clone()));
            out.push_str(&tcp_json::to_string(&Json::Obj(obj)));
            out.push('\n');
        }
        append_durably(&self.quarantine_path(), &out)
    }
}

/// Appends `lines` to `path` with one write and one fsync, creating the
/// file if needed; a create also fsyncs the containing directory, so the
/// new file's name is as durable as its contents.
fn append_durably(path: &Path, lines: &str) -> Result<(), StoreError> {
    let err = |op, source| StoreError {
        op,
        path: path.to_path_buf(),
        source,
    };
    let (mut file, created) = match OpenOptions::new().append(true).open(path) {
        Ok(file) => (file, false),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)
                .map_err(|source| err("create", source))?;
            (file, true)
        }
        Err(source) => return Err(err("open", source)),
    };
    file.write_all(lines.as_bytes())
        .map_err(|source| err("write", source))?;
    file.sync_all().map_err(|source| err("fsync", source))?;
    if created {
        sync_parent_dir(path);
    }
    Ok(())
}

/// Best-effort fsync of the directory holding `path`, which commits a
/// create or rename itself; skipping it on filesystems that refuse costs
/// durability of the very last write, never consistency.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// Writes `contents` to `path` crash-safely: stage into `tmp`, fsync,
/// rename over `path`, fsync the containing directory (best effort — not
/// every filesystem supports directory fsync).
fn write_atomic(path: &Path, tmp: &Path, contents: &str) -> Result<(), StoreError> {
    let mut file = File::create(tmp).map_err(|source| StoreError {
        op: "create",
        path: tmp.to_path_buf(),
        source,
    })?;
    file.write_all(contents.as_bytes())
        .map_err(|source| StoreError {
            op: "write",
            path: tmp.to_path_buf(),
            source,
        })?;
    file.sync_all().map_err(|source| StoreError {
        op: "fsync",
        path: tmp.to_path_buf(),
        source,
    })?;
    drop(file);
    fs::rename(tmp, path).map_err(|source| StoreError {
        op: "rename",
        path: path.to_path_buf(),
        source,
    })?;
    sync_parent_dir(path);
    Ok(())
}

// ---------------------------------------------------------------------
// Record encoding / decoding
// ---------------------------------------------------------------------

fn str_field(value: impl fmt::Display) -> Json {
    Json::Str(value.to_string())
}

fn stats_to_json(stats: &HierarchyStats) -> Json {
    let mut b = BTreeMap::new();
    b.insert(
        "prefetched_original".to_owned(),
        str_field(stats.l2_breakdown.prefetched_original),
    );
    b.insert(
        "non_prefetched_original".to_owned(),
        str_field(stats.l2_breakdown.non_prefetched_original),
    );
    b.insert(
        "prefetched_extra".to_owned(),
        str_field(stats.l2_breakdown.prefetched_extra),
    );
    let mut m = BTreeMap::new();
    m.insert("loads".to_owned(), str_field(stats.loads));
    m.insert("stores".to_owned(), str_field(stats.stores));
    m.insert("l1_hits".to_owned(), str_field(stats.l1_hits));
    m.insert("l1_misses".to_owned(), str_field(stats.l1_misses));
    m.insert("l1_mshr_merges".to_owned(), str_field(stats.l1_mshr_merges));
    m.insert(
        "mshr_stall_cycles".to_owned(),
        str_field(stats.mshr_stall_cycles),
    );
    m.insert(
        "l2_demand_accesses".to_owned(),
        str_field(stats.l2_demand_accesses),
    );
    m.insert("l2_demand_hits".to_owned(), str_field(stats.l2_demand_hits));
    m.insert(
        "l2_demand_misses".to_owned(),
        str_field(stats.l2_demand_misses),
    );
    m.insert(
        "prefetches_issued".to_owned(),
        str_field(stats.prefetches_issued),
    );
    m.insert(
        "prefetches_already_resident".to_owned(),
        str_field(stats.prefetches_already_resident),
    );
    m.insert(
        "prefetches_dropped".to_owned(),
        str_field(stats.prefetches_dropped),
    );
    m.insert(
        "prefetches_to_memory".to_owned(),
        str_field(stats.prefetches_to_memory),
    );
    m.insert(
        "l1_prefetch_fills".to_owned(),
        str_field(stats.l1_prefetch_fills),
    );
    m.insert("l1_writebacks".to_owned(), str_field(stats.l1_writebacks));
    m.insert("l2_writebacks".to_owned(), str_field(stats.l2_writebacks));
    m.insert("victim_hits".to_owned(), str_field(stats.victim_hits));
    m.insert("dtlb_misses".to_owned(), str_field(stats.dtlb_misses));
    m.insert(
        "store_buffer_stall_cycles".to_owned(),
        str_field(stats.store_buffer_stall_cycles),
    );
    m.insert("l2_breakdown".to_owned(), Json::Obj(b));
    Json::Obj(m)
}

fn payload_to_json(key: &str, result: &RunResult) -> Json {
    let mut m = BTreeMap::new();
    m.insert("key".to_owned(), Json::Str(key.to_owned()));
    m.insert("benchmark".to_owned(), Json::Str(result.benchmark.clone()));
    m.insert(
        "prefetcher".to_owned(),
        Json::Str(result.prefetcher.clone()),
    );
    m.insert(
        "prefetcher_bytes".to_owned(),
        str_field(result.prefetcher_bytes),
    );
    m.insert("ipc_bits".to_owned(), str_field(result.ipc.to_bits()));
    m.insert("cycles".to_owned(), str_field(result.cycles));
    m.insert("ops".to_owned(), str_field(result.ops));
    m.insert("stats".to_owned(), stats_to_json(&result.stats));
    Json::Obj(m)
}

/// Serializes one store record line (no trailing newline): envelope with
/// `store_version`, payload `checksum`, and the payload itself.
///
/// The payload is serialized once, and the envelope is written around
/// that text in the canonical form [`tcp_json::to_string`] would give the
/// whole record: its keys already sort `checksum` < `payload` <
/// `store_version`, and neither the decimal checksum nor the version
/// needs escaping.
pub fn encode_record(key: &str, result: &RunResult) -> String {
    let payload = tcp_json::to_string(&payload_to_json(key, result));
    format!(
        "{{\"checksum\":\"{}\",\"payload\":{payload},\"store_version\":{}}}",
        fnv1a64(payload.as_bytes()),
        tcp_json::num(STORE_VERSION as f64),
    )
}

type Quarantined = (QuarantineReason, String);

fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, Quarantined> {
    obj.get(name)
        .ok_or_else(|| (QuarantineReason::Parse, format!("missing field '{name}'")))
}

fn u64_field(obj: &Json, name: &str) -> Result<u64, Quarantined> {
    let text = field(obj, name)?.as_str().ok_or_else(|| {
        (
            QuarantineReason::Parse,
            format!("field '{name}' is not a string"),
        )
    })?;
    text.parse::<u64>().map_err(|_| {
        (
            QuarantineReason::Parse,
            format!("field '{name}' is not a u64: '{text}'"),
        )
    })
}

fn str_field_of(obj: &Json, name: &str) -> Result<String, Quarantined> {
    Ok(field(obj, name)?
        .as_str()
        .ok_or_else(|| {
            (
                QuarantineReason::Parse,
                format!("field '{name}' is not a string"),
            )
        })?
        .to_owned())
}

fn stats_from_json(obj: &Json) -> Result<HierarchyStats, Quarantined> {
    let b = field(obj, "l2_breakdown")?;
    Ok(HierarchyStats {
        loads: u64_field(obj, "loads")?,
        stores: u64_field(obj, "stores")?,
        l1_hits: u64_field(obj, "l1_hits")?,
        l1_misses: u64_field(obj, "l1_misses")?,
        l1_mshr_merges: u64_field(obj, "l1_mshr_merges")?,
        mshr_stall_cycles: u64_field(obj, "mshr_stall_cycles")?,
        l2_demand_accesses: u64_field(obj, "l2_demand_accesses")?,
        l2_demand_hits: u64_field(obj, "l2_demand_hits")?,
        l2_demand_misses: u64_field(obj, "l2_demand_misses")?,
        prefetches_issued: u64_field(obj, "prefetches_issued")?,
        prefetches_already_resident: u64_field(obj, "prefetches_already_resident")?,
        prefetches_dropped: u64_field(obj, "prefetches_dropped")?,
        prefetches_to_memory: u64_field(obj, "prefetches_to_memory")?,
        l1_prefetch_fills: u64_field(obj, "l1_prefetch_fills")?,
        l1_writebacks: u64_field(obj, "l1_writebacks")?,
        l2_writebacks: u64_field(obj, "l2_writebacks")?,
        victim_hits: u64_field(obj, "victim_hits")?,
        dtlb_misses: u64_field(obj, "dtlb_misses")?,
        store_buffer_stall_cycles: u64_field(obj, "store_buffer_stall_cycles")?,
        l2_breakdown: L2AccessBreakdown {
            prefetched_original: u64_field(b, "prefetched_original")?,
            non_prefetched_original: u64_field(b, "non_prefetched_original")?,
            prefetched_extra: u64_field(b, "prefetched_extra")?,
        },
    })
}

/// Decodes one store record line into its key and bit-identical
/// [`RunResult`], or the quarantine reason and a human-readable detail.
///
/// # Errors
///
/// `(QuarantineReason, detail)` describing why the record cannot be
/// trusted: not JSON / missing fields ([`QuarantineReason::Parse`]),
/// wrong generation ([`QuarantineReason::VersionMismatch`]), or payload
/// damage ([`QuarantineReason::ChecksumMismatch`]).
pub fn decode_record(line: &str) -> Result<(String, RunResult), Quarantined> {
    let doc = tcp_json::parse(line)
        .map_err(|e| (QuarantineReason::Parse, format!("invalid JSON: {e}")))?;
    let version = field(&doc, "store_version")?.as_f64().ok_or_else(|| {
        (
            QuarantineReason::Parse,
            "field 'store_version' is not a number".to_owned(),
        )
    })?;
    if version != STORE_VERSION as f64 {
        return Err((
            QuarantineReason::VersionMismatch,
            format!("store_version {version} != supported {STORE_VERSION}"),
        ));
    }
    let declared = u64_field(&doc, "checksum")?;
    let payload = field(&doc, "payload")?;
    let actual = fnv1a64(tcp_json::to_string(payload).as_bytes());
    if actual != declared {
        return Err((
            QuarantineReason::ChecksumMismatch,
            format!("payload checksum {actual} != declared {declared}"),
        ));
    }
    let key = str_field_of(payload, "key")?;
    let result = RunResult {
        benchmark: str_field_of(payload, "benchmark")?,
        prefetcher: str_field_of(payload, "prefetcher")?,
        prefetcher_bytes: usize::try_from(u64_field(payload, "prefetcher_bytes")?).map_err(
            |_| {
                (
                    QuarantineReason::Parse,
                    "prefetcher_bytes exceeds usize".to_owned(),
                )
            },
        )?,
        ipc: f64::from_bits(u64_field(payload, "ipc_bits")?),
        cycles: u64_field(payload, "cycles")?,
        ops: u64_field(payload, "ops")?,
        stats: stats_from_json(field(payload, "stats")?)?,
    };
    Ok((key, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tcp-store-unit-{}-{name}-{n}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir).expect("stale test dir removable");
        }
        dir
    }

    fn sample_result(seed: u64) -> RunResult {
        RunResult {
            benchmark: format!("bench-{seed}"),
            prefetcher: "tcp-8k".to_owned(),
            prefetcher_bytes: 8192,
            ipc: 1.25 + seed as f64 * 0.001,
            cycles: 1_000_000 + seed,
            ops: 500_000,
            stats: HierarchyStats {
                loads: 100 + seed,
                stores: 50,
                l1_hits: 90,
                l1_misses: 10,
                l2_breakdown: L2AccessBreakdown {
                    prefetched_original: 3,
                    non_prefetched_original: 7,
                    prefetched_extra: 1,
                },
                ..Default::default()
            },
        }
    }

    #[test]
    fn record_round_trips_bit_identically() {
        let result = sample_result(7);
        let line = encode_record("k|7", &result);
        let (key, back) = decode_record(&line).expect("clean record decodes");
        assert_eq!(key, "k|7");
        assert_eq!(back.benchmark, result.benchmark);
        assert_eq!(back.prefetcher, result.prefetcher);
        assert_eq!(back.prefetcher_bytes, result.prefetcher_bytes);
        assert_eq!(back.ipc.to_bits(), result.ipc.to_bits());
        assert_eq!(back.cycles, result.cycles);
        assert_eq!(back.ops, result.ops);
        assert_eq!(back.stats, result.stats);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut result = sample_result(0);
        result.cycles = u64::MAX;
        result.ops = u64::MAX - 1;
        result.ipc = f64::MIN_POSITIVE;
        result.stats.loads = u64::MAX;
        let (_, back) = decode_record(&encode_record("k", &result)).expect("decodes");
        assert_eq!(back.cycles, u64::MAX);
        assert_eq!(back.ops, u64::MAX - 1);
        assert_eq!(back.ipc.to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(back.stats.loads, u64::MAX);
    }

    #[test]
    fn open_insert_flush_reopen() {
        let dir = test_dir("roundtrip");
        let result = sample_result(1);
        let mut store = SweepStore::open(&dir).expect("open fresh");
        assert!(store.is_empty());
        store.insert("alpha", &result);
        store.insert("beta", &sample_result(2));
        store.flush().expect("flush");
        assert_eq!(store.stats().flushes, 1);
        store.flush().expect("no-op flush");
        assert_eq!(store.stats().flushes, 1, "clean store does not rewrite");

        let reopened = SweepStore::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.stats().loaded, 2);
        assert_eq!(reopened.stats().total_quarantined(), 0);
        let hit = reopened.get("alpha").expect("alpha persisted");
        assert_eq!(hit.cycles, result.cycles);
        assert_eq!(hit.ipc.to_bits(), result.ipc.to_bits());
        assert_eq!(hit.stats, result.stats);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_lines_are_quarantined_not_fatal() {
        let dir = test_dir("quarantine");
        let mut store = SweepStore::open(&dir).expect("open");
        store.insert("good", &sample_result(3));
        store.flush().expect("flush");
        // Damage: append garbage, a stale-version record, and a
        // checksum-violating record.
        let path = dir.join(STORE_FILE);
        let mut contents = fs::read_to_string(&path).expect("readable");
        contents.push_str("{not json at all\n");
        let stale = encode_record("stale", &sample_result(4))
            .replace("\"store_version\":1", "\"store_version\":99");
        contents.push_str(&stale);
        contents.push('\n');
        let flipped = encode_record("flipped", &sample_result(5))
            .replace("\"cycles\":\"1000005\"", "\"cycles\":\"1000006\"");
        contents.push_str(&flipped);
        contents.push('\n');
        fs::write(&path, contents).expect("writable");

        let store = SweepStore::open(&dir).expect("open survives damage");
        assert_eq!(store.len(), 1, "only the intact record loads");
        let stats = store.stats();
        assert_eq!(stats.quarantined_parse, 1);
        assert_eq!(stats.quarantined_version, 1);
        assert_eq!(stats.quarantined_checksum, 1);
        assert_eq!(stats.total_quarantined(), 3);
        // Moved, not skipped: the rewritten store is clean and the
        // quarantine file holds all three with reasons.
        let clean = SweepStore::open(&dir).expect("reopen");
        assert_eq!(clean.stats().total_quarantined(), 0);
        let quarantined = fs::read_to_string(dir.join(QUARANTINE_FILE)).expect("quarantine");
        assert_eq!(quarantined.lines().count(), 3);
        assert!(quarantined.contains("version-mismatch"));
        assert!(quarantined.contains("checksum-mismatch"));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn orphaned_tmp_file_is_quarantined() {
        let dir = test_dir("torn");
        let mut store = SweepStore::open(&dir).expect("open");
        store.insert("kept", &sample_result(6));
        store.flush().expect("flush");
        fs::write(dir.join(STORE_TMP_FILE), "half-written junk").expect("plant orphan");

        let store = SweepStore::open(&dir).expect("open survives orphan");
        assert_eq!(store.stats().quarantined_torn, 1);
        assert_eq!(store.len(), 1, "committed record unaffected");
        assert!(!dir.join(STORE_TMP_FILE).exists(), "orphan removed");
        let quarantined = fs::read_to_string(dir.join(QUARANTINE_FILE)).expect("quarantine");
        assert!(quarantined.contains("torn-rename"));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn duplicate_keys_keep_first_and_quarantine_rest() {
        let dir = test_dir("dup");
        let first = sample_result(10);
        let mut store = SweepStore::open(&dir).expect("open");
        store.insert("dup", &first);
        store.flush().expect("flush");
        let path = dir.join(STORE_FILE);
        let mut contents = fs::read_to_string(&path).expect("readable");
        let copy = contents.clone();
        contents.push_str(&copy);
        fs::write(&path, contents).expect("writable");

        let store = SweepStore::open(&dir).expect("open");
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().quarantined_duplicate, 1);
        assert_eq!(store.get("dup").expect("kept").cycles, first.cycles);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn truncated_tail_quarantines_only_the_torn_record() {
        let dir = test_dir("trunc");
        let mut store = SweepStore::open(&dir).expect("open");
        store.insert("a", &sample_result(20));
        store.insert("b", &sample_result(21));
        store.flush().expect("flush");
        let path = dir.join(STORE_FILE);
        let bytes = fs::read(&path).expect("readable");
        // Cut mid-way through the last record.
        fs::write(&path, &bytes[..bytes.len() - 40]).expect("writable");

        let store = SweepStore::open(&dir).expect("open survives truncation");
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().quarantined_parse, 1);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_failed_append_is_retried_as_a_rewrite() {
        let dir = test_dir("failed-append");
        let mut store = SweepStore::open(&dir).expect("open");
        store.insert("a", &sample_result(30));
        store.flush().expect("flush");
        store.insert("b", &sample_result(31));
        // A directory in the store file's place makes the append fail.
        let path = dir.join(STORE_FILE);
        fs::remove_file(&path).expect("remove store file");
        fs::create_dir(&path).expect("block the store file");
        assert!(store.flush().is_err(), "append into a directory fails");
        assert_eq!(store.stats().flushes, 1);

        // The failed append left a torn tail; appending after it would
        // glue the queued record onto it.
        fs::remove_dir(&path).expect("unblock the store file");
        let intact = encode_record("a", &sample_result(30));
        fs::write(&path, format!("{intact}\n{}", &intact[..20])).expect("plant torn tail");
        store.flush().expect("the retry rewrites");
        assert_eq!(store.stats().flushes, 2);

        let reopened = SweepStore::open(&dir).expect("reopen");
        assert_eq!(reopened.stats().total_quarantined(), 0);
        assert_eq!(reopened.len(), 2);
        assert_eq!(
            reopened.get("b").expect("queued record kept").cycles,
            1_000_031
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
