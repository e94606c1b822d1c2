//! Fault-injection inputs for exercising the resilient runner.
//!
//! Everything here is a deliberately degenerate input — a benchmark that
//! panics mid-run, a machine that wedges, trace bytes with a lying
//! header — built so tests (and the `fault_injection` example) can prove
//! that the sweep engine isolates failures instead of aborting, that the
//! [`crate::Watchdog`] catches runs with no forward progress, and that
//! [`tcp_analysis::read_trace`] rejects corruption with typed errors
//! rather than huge allocations or garbage records.
//!
//! None of these inputs are used by the experiment harness; they exist
//! purely to attack the simulator from the outside.

use crate::{RunResult, SystemConfig};
use tcp_analysis::{write_trace, MissRecord};
use tcp_mem::{Addr, CacheGeometry};
use tcp_workloads::{Benchmark, KernelSpec, WorkloadSpec};

/// A benchmark whose workload generator panics on its first micro-op.
///
/// The spec has an empty phase list, so the generator's weighted phase
/// pick divides by a zero total weight and panics deep inside
/// `tcp-workloads` — a stand-in for any internal invariant violation. The
/// sweep engine must report this job as [`crate::RunError::Panicked`]
/// without disturbing the jobs around it.
pub fn panicking_benchmark() -> Benchmark {
    // Built as a literal: `WorkloadSpec::new` rejects an empty phase list
    // up front, and the whole point here is a spec that passes
    // construction but detonates during generation.
    let spec = WorkloadSpec {
        phases: Vec::new(),
        compute_per_mem: 2.0,
        store_pct: 10,
        burst: 2048,
        fp_pct: 30,
        seed: 0,
    };
    Benchmark {
        name: "fault-panic",
        description: "Deliberately broken workload: zero total phase weight panics the \
                      generator on its first op.",
        spec,
    }
}

/// A machine configuration that passes [`SystemConfig::validate`] but
/// makes no meaningful forward progress: a 250-billion-cycle memory with
/// a single MSHR serialises every miss, so cycles-per-committed-op
/// exceeds any sane watchdog cap — the sweep engine's relaxed retry caps
/// included — within the first checkpoint intervals.
pub fn wedged_config() -> SystemConfig {
    let mut cfg = SystemConfig::table1();
    cfg.hierarchy.memory_latency = 250_000_000_000;
    cfg.hierarchy.l1_mshrs = 1;
    cfg
}

/// Adversarial-but-valid benchmarks: miss streams built to be as hostile
/// to a correlating prefetcher (and to the hierarchy's corner cases) as
/// the kernel vocabulary allows. All of them must *complete* under the
/// default watchdog on the Table 1 machine — they stress, not wedge.
pub fn adversarial_suite() -> Vec<Benchmark> {
    const MB: u64 = 1024 * 1024;
    let bench = |name, description, spec| Benchmark {
        name,
        description,
        spec,
    };
    vec![
        bench(
            "fault-random-flood",
            "Uniformly random loads over 64 MB: every access a fresh line, zero \
             correlation for any predictor to latch onto.",
            WorkloadSpec::new(
                vec![(
                    KernelSpec::RandomAccess {
                        base: 0x0400_0000,
                        len: 64 * MB,
                    },
                    1,
                )],
                0xDEAD_BEEF,
            )
            .with_compute_per_mem(0.5),
        ),
        bench(
            "fault-conflict-storm",
            "Thousands of tags rotating through a single cache set: worst-case \
             conflict pressure on a direct-mapped L1.",
            WorkloadSpec::new(
                vec![(
                    KernelSpec::ConflictLoop {
                        base: 0x0800_0000,
                        tags_in_rotation: 4_096,
                        sets_spanned: 1,
                    },
                    1,
                )],
                0xBAD_CAFE,
            )
            .with_compute_per_mem(0.5),
        ),
        bench(
            "fault-noisy-chase",
            "A dependent pointer chase whose every other step detours randomly: \
             serialised misses with maximal sequence noise.",
            WorkloadSpec::new(
                vec![(
                    KernelSpec::PointerChase {
                        base: 0x0C00_0000,
                        nodes: 1 << 16,
                        node_bytes: 64,
                        shuffle_seed: 7,
                        noise_pct: 50,
                    },
                    1,
                )],
                0xFEED_FACE,
            )
            .with_compute_per_mem(0.5),
        ),
    ]
}

/// A synthetic baseline result with zero IPC, for driving the
/// [`crate::try_ipc_improvement`] error path without simulating anything.
pub fn zero_ipc_baseline(benchmark: &str) -> RunResult {
    RunResult {
        benchmark: benchmark.to_owned(),
        prefetcher: "none".to_owned(),
        prefetcher_bytes: 0,
        ipc: 0.0,
        cycles: 0,
        ops: 0,
        stats: Default::default(),
    }
}

/// A well-formed serialized miss trace with `n` records, as a starting
/// point for [`corrupt_trace`].
pub fn healthy_trace_bytes(n: usize) -> Vec<u8> {
    let geom = CacheGeometry::new(32 * 1024, 32, 1);
    let records: Vec<MissRecord> = (0..n as u64)
        .map(|i| {
            let addr = Addr::new(0x0400_0000 + i * 64);
            let (tag, set) = geom.split(addr);
            MissRecord {
                addr,
                line: geom.line_addr(addr),
                tag,
                set,
                pc: Addr::new(0x400 + i * 4),
            }
        })
        .collect();
    let mut buf = Vec::new();
    // tcp-lint: allow(panic-in-library) — io::Write for Vec<u8> is infallible
    write_trace(&mut buf, &records).expect("writing to a Vec cannot fail");
    buf
}

/// The trace corruptions [`corrupt_trace`] can inject, mirroring the
/// [`tcp_analysis::TraceError`] variants they should provoke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFault {
    /// Overwrite the 4-byte magic — must yield `TraceError::BadMagic`.
    BadMagic,
    /// Bump the format version byte — must yield
    /// `TraceError::UnsupportedVersion`.
    BadVersion,
    /// Cut the byte stream mid-record — must yield
    /// `TraceError::TruncatedMidRecord`, with the whole-record prefix
    /// still decodable.
    TruncatePayload,
    /// Cut the byte stream exactly on a record boundary — must yield the
    /// plain `TraceError::Truncated`, distinct from the mid-record cut.
    TruncateAtBoundary,
    /// Rewrite the header's record count to `u64::MAX` while leaving the
    /// payload alone: a lying header that must fail fast as
    /// `TraceError::Truncated` without a giant up-front allocation.
    LyingCount,
    /// XOR one bit of a tag-significant byte in the second record's
    /// address. Format v1 carries no per-record checksum, so the bytes
    /// still decode — into a *different* tag. This is the silent fault:
    /// detection is the consumer's job (per-tenant isolation in
    /// [`crate::stream::TenantMux`] keeps it from spreading).
    FlipTagByte,
}

/// All [`TraceFault`] variants, for exhaustive injection loops.
pub const TRACE_FAULTS: [TraceFault; 6] = [
    TraceFault::BadMagic,
    TraceFault::BadVersion,
    TraceFault::TruncatePayload,
    TraceFault::TruncateAtBoundary,
    TraceFault::LyingCount,
    TraceFault::FlipTagByte,
];

/// Applies `fault` in place to serialized trace bytes (layout: 4-byte
/// magic, 1-byte version, 8-byte little-endian count, 16-byte records).
///
/// # Panics
///
/// Panics if `bytes` is too short for the fault — a header (13 bytes)
/// for most, two whole records for the boundary cut and the tag flip —
/// so corrupt a [`healthy_trace_bytes`] buffer, not arbitrary data.
pub fn corrupt_trace(bytes: &mut Vec<u8>, fault: TraceFault) {
    assert!(
        bytes.len() >= 13,
        "need at least a full trace header to corrupt"
    );
    match fault {
        TraceFault::BadMagic => bytes[0..4].copy_from_slice(b"XXXX"),
        TraceFault::BadVersion => bytes[4] = 0xFF,
        TraceFault::TruncatePayload => {
            let cut = 13 + 8; // half of the first record
            bytes.truncate(cut.min(bytes.len().saturating_sub(1)));
        }
        TraceFault::TruncateAtBoundary => {
            assert!(
                bytes.len() >= 13 + 32,
                "boundary cut needs at least two records"
            );
            // Drop exactly the final record: the cut lands on a record
            // boundary, so no torn bytes remain in the stream.
            bytes.truncate(bytes.len() - 16);
        }
        TraceFault::LyingCount => bytes[5..13].copy_from_slice(&u64::MAX.to_le_bytes()),
        TraceFault::FlipTagByte => {
            assert!(bytes.len() >= 13 + 32, "tag flip targets the second record");
            // Second record's addr field starts at 13 + 16 + 8; byte 2 of
            // the little-endian addr holds bits 16–23, well above the
            // 15-bit set+offset split of the 32 KB / 32 B geometry — a
            // guaranteed tag bit.
            bytes[13 + 16 + 8 + 2] ^= 0x10;
        }
    }
}

/// The memo-store corruptions [`corrupt_store`] can inject, mirroring the
/// quarantine reasons the experiment harness's persistent sweep store must
/// report when it reloads a damaged `store.jsonl`.
///
/// The injector works on raw bytes and only assumes the store's two
/// load-bearing substrings (`"payload"` and `"store_version"`), so it
/// stays decoupled from the store's exact schema: the store crate can add
/// payload fields without touching the fault vocabulary here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFault {
    /// Cut the file mid-way through its final record, as a crash during a
    /// non-atomic write would — must quarantine as a parse failure.
    TruncatedTail,
    /// Flip the low bit of a digit inside the final record's payload
    /// (a digit XOR 1 is still a digit, so the line stays well-formed
    /// JSON) — must quarantine as a checksum mismatch.
    BitFlip,
    /// Rewrite the final record's `store_version` to a different number —
    /// must quarantine as a version mismatch.
    StaleVersion,
    /// Leave the store intact but plant an orphaned `store.jsonl.tmp`
    /// holding a half-written copy, the debris of a crash between write
    /// and rename — must quarantine the orphan as a torn rename.
    TornRename,
    /// Append a byte-identical copy of the final record — the duplicate
    /// must be quarantined while the first occurrence survives.
    DuplicateKey,
}

/// All [`StoreFault`] variants, for exhaustive injection loops.
pub const STORE_FAULTS: [StoreFault; 5] = [
    StoreFault::TruncatedTail,
    StoreFault::BitFlip,
    StoreFault::StaleVersion,
    StoreFault::TornRename,
    StoreFault::DuplicateKey,
];

/// A store corrupted by [`corrupt_store`]: the bytes to write back as
/// `store.jsonl`, plus — for [`StoreFault::TornRename`] only — bytes to
/// plant as an orphaned `store.jsonl.tmp` beside it.
#[derive(Clone, Debug)]
pub struct CorruptedStore {
    /// Replacement contents for the store file itself.
    pub store: Vec<u8>,
    /// Contents for an orphaned temp file, when the fault plants one.
    pub orphan_tmp: Option<Vec<u8>>,
}

/// Applies `fault` to the serialized bytes of a healthy JSON-lines memo
/// store and returns the corrupted artefacts to write back to disk.
///
/// # Panics
///
/// Panics if `bytes` does not look like a non-empty record store (no
/// final line, or — for the faults that need them — no `"payload"` /
/// `"store_version"` substring in it). Corrupt a real store file, not
/// arbitrary data.
pub fn corrupt_store(bytes: &[u8], fault: StoreFault) -> CorruptedStore {
    let trimmed_len = bytes
        .iter()
        .rposition(|&b| b != b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    assert!(trimmed_len > 0, "cannot corrupt an empty store");
    let line_start = bytes[..trimmed_len]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    let last_line = &bytes[line_start..trimmed_len];
    let plain = |store: Vec<u8>| CorruptedStore {
        store,
        orphan_tmp: None,
    };
    match fault {
        StoreFault::TruncatedTail => {
            // Keep at least one byte of the final record so the damage is
            // a torn line, not a clean shorter store.
            let cut = line_start + 1 + (trimmed_len - line_start - 1) / 2;
            plain(bytes[..cut].to_vec())
        }
        StoreFault::BitFlip => {
            // tcp-lint: allow(panic-in-library) — documented panic: the injector demands a real store record
            let in_line = find(last_line, b"\"payload\"").expect("record has a payload field");
            let digit_at = last_line[in_line..]
                .iter()
                .position(u8::is_ascii_digit)
                // tcp-lint: allow(panic-in-library) — documented panic: the injector demands a real store record
                .expect("payload contains a digit");
            let mut out = bytes.to_vec();
            let flip_at = line_start + in_line + digit_at;
            debug_assert!(flip_at < out.len(), "offsets land inside the final line");
            out[flip_at] ^= 0x01;
            plain(out)
        }
        StoreFault::StaleVersion => {
            let marker = b"\"store_version\":";
            // tcp-lint: allow(panic-in-library) — documented panic: the injector demands a real store record
            let in_line = find(last_line, marker).expect("record has a store_version field");
            let digit_at = in_line + marker.len();
            assert!(
                last_line[digit_at].is_ascii_digit(),
                "store_version must be a bare number"
            );
            let mut out = bytes.to_vec();
            let version_at = line_start + digit_at;
            debug_assert!(version_at < out.len(), "offset lands inside the final line");
            let d = &mut out[version_at];
            *d = if *d == b'9' { b'8' } else { b'9' };
            plain(out)
        }
        StoreFault::TornRename => CorruptedStore {
            store: bytes.to_vec(),
            orphan_tmp: Some(bytes[..trimmed_len / 2].to_vec()),
        },
        StoreFault::DuplicateKey => {
            let mut out = bytes.to_vec();
            if !out.ends_with(b"\n") {
                out.push(b'\n');
            }
            out.extend_from_slice(last_line);
            out.push(b'\n');
            plain(out)
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_analysis::{read_trace, TraceError};

    #[test]
    fn healthy_bytes_round_trip() {
        let geom = CacheGeometry::new(32 * 1024, 32, 1);
        let buf = healthy_trace_bytes(10);
        let back = read_trace(buf.as_slice(), geom).unwrap();
        assert_eq!(back.len(), 10);
    }

    #[test]
    fn each_fault_provokes_its_error() {
        let geom = CacheGeometry::new(32 * 1024, 32, 1);
        for fault in TRACE_FAULTS {
            let mut buf = healthy_trace_bytes(10);
            corrupt_trace(&mut buf, fault);
            let outcome = read_trace(buf.as_slice(), geom);
            let matches = match fault {
                TraceFault::BadMagic => {
                    matches!(outcome, Err(TraceError::BadMagic { .. }))
                }
                TraceFault::BadVersion => {
                    matches!(outcome, Err(TraceError::UnsupportedVersion { .. }))
                }
                TraceFault::TruncatePayload => {
                    matches!(outcome, Err(TraceError::TruncatedMidRecord { .. }))
                }
                TraceFault::TruncateAtBoundary | TraceFault::LyingCount => {
                    matches!(outcome, Err(TraceError::Truncated { .. }))
                }
                // The silent fault: no checksum in format v1, so the
                // flipped byte decodes cleanly into a different tag.
                TraceFault::FlipTagByte => match &outcome {
                    Ok(records) => {
                        let healthy = read_trace(healthy_trace_bytes(10).as_slice(), geom).unwrap();
                        records.len() == healthy.len()
                            && records[1].tag != healthy[1].tag
                            && records[0] == healthy[0]
                            && records[2..] == healthy[2..]
                    }
                    Err(_) => false,
                },
            };
            assert!(matches, "{fault:?} gave {outcome:?}");
        }
    }

    #[test]
    fn boundary_and_mid_record_cuts_are_distinguished() {
        let geom = CacheGeometry::new(32 * 1024, 32, 1);
        let mut boundary = healthy_trace_bytes(10);
        corrupt_trace(&mut boundary, TraceFault::TruncateAtBoundary);
        match read_trace(boundary.as_slice(), geom).unwrap_err() {
            TraceError::Truncated { declared, read } => {
                assert_eq!(declared, 10);
                assert_eq!(read, 9, "every surviving record is whole");
            }
            other => panic!("expected Truncated, got {other}"),
        }
        let mut torn = healthy_trace_bytes(10);
        corrupt_trace(&mut torn, TraceFault::TruncatePayload);
        match read_trace(torn.as_slice(), geom).unwrap_err() {
            TraceError::TruncatedMidRecord {
                declared,
                read,
                partial_bytes,
            } => {
                assert_eq!(declared, 10);
                assert_eq!(read, 0);
                assert_eq!(partial_bytes, 8);
            }
            other => panic!("expected TruncatedMidRecord, got {other}"),
        }
    }

    #[test]
    fn lying_count_is_declared_max() {
        let geom = CacheGeometry::new(32 * 1024, 32, 1);
        let mut buf = healthy_trace_bytes(4);
        corrupt_trace(&mut buf, TraceFault::LyingCount);
        match read_trace(buf.as_slice(), geom).unwrap_err() {
            TraceError::Truncated { declared, read } => {
                assert_eq!(declared, u64::MAX);
                assert_eq!(read, 4);
            }
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn wedged_config_is_valid_yet_hostile() {
        let cfg = wedged_config();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.hierarchy.l1_mshrs, 1);
    }

    #[test]
    fn zero_ipc_baseline_is_degenerate() {
        assert_eq!(zero_ipc_baseline("gzip").ipc, 0.0);
    }

    /// Two synthetic records shaped like the experiment store's format —
    /// enough structure for every [`StoreFault`] without depending on the
    /// store crate (the dependency points the other way).
    fn synthetic_store() -> Vec<u8> {
        let mut out = Vec::new();
        for (checksum, key) in [("41", "job-a"), ("97", "job-b")] {
            out.extend_from_slice(
                format!(
                    "{{\"checksum\":\"{checksum}\",\"payload\":{{\"cycles\":\"1024\",\
                     \"key\":\"{key}\"}},\"store_version\":1}}\n"
                )
                .as_bytes(),
            );
        }
        out
    }

    #[test]
    fn truncated_tail_cuts_mid_record() {
        let healthy = synthetic_store();
        let hurt = corrupt_store(&healthy, StoreFault::TruncatedTail);
        assert!(hurt.orphan_tmp.is_none());
        assert!(hurt.store.len() < healthy.len());
        // The first record survives whole; the second is torn, not gone.
        let first_len = healthy.iter().position(|&b| b == b'\n').unwrap() + 1;
        assert_eq!(&hurt.store[..first_len], &healthy[..first_len]);
        assert!(hurt.store.len() > first_len);
        assert!(!hurt.store.ends_with(b"}\n"));
    }

    #[test]
    fn bit_flip_stays_inside_the_payload_digits() {
        let healthy = synthetic_store();
        let hurt = corrupt_store(&healthy, StoreFault::BitFlip);
        assert_eq!(hurt.store.len(), healthy.len());
        let diffs: Vec<usize> = healthy
            .iter()
            .zip(&hurt.store)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one byte flipped");
        assert!(healthy[diffs[0]].is_ascii_digit());
        assert!(hurt.store[diffs[0]].is_ascii_digit());
        // The flip lands after the last record's payload marker, so the
        // envelope (checksum field, version) is untouched.
        let line_start = healthy[..healthy.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let payload_at = find(&healthy[line_start..], b"\"payload\"").unwrap();
        assert!(diffs[0] >= line_start + payload_at);
    }

    #[test]
    fn stale_version_rewrites_only_the_version_digit() {
        let healthy = synthetic_store();
        let hurt = corrupt_store(&healthy, StoreFault::StaleVersion);
        let tail = b"\"store_version\":9}\n";
        assert!(hurt.store.ends_with(tail), "version digit rewritten");
        assert_eq!(hurt.store.len(), healthy.len());
    }

    #[test]
    fn torn_rename_plants_a_half_written_orphan() {
        let healthy = synthetic_store();
        let hurt = corrupt_store(&healthy, StoreFault::TornRename);
        assert_eq!(hurt.store, healthy, "store itself is untouched");
        let orphan = hurt.orphan_tmp.expect("orphan tmp planted");
        assert!(!orphan.is_empty() && orphan.len() < healthy.len());
        assert_eq!(&orphan[..], &healthy[..orphan.len()]);
        assert!(!orphan.ends_with(b"}\n"), "orphan is half-written");
    }

    #[test]
    fn duplicate_key_appends_a_byte_identical_record() {
        let healthy = synthetic_store();
        let hurt = corrupt_store(&healthy, StoreFault::DuplicateKey);
        assert!(hurt.orphan_tmp.is_none());
        let lines: Vec<&[u8]> = hurt
            .store
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], lines[2], "last record duplicated verbatim");
        assert_ne!(lines[0], lines[1]);
    }

    #[test]
    fn store_faults_lists_every_variant_once() {
        for (i, a) in STORE_FAULTS.iter().enumerate() {
            for b in STORE_FAULTS.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
