//! DBCP: the Dead-Block Correlating Prefetcher of Lai, Fide & Falsafi
//! (ISCA 2001) — the paper's main comparator (Figure 11, 2 MB table).
//!
//! DBCP observes, per L1 frame, the *trace* of instruction PCs that touch
//! the resident block between fill and eviction. The key insight of Lai
//! et al. is that a block's death is signalled by its trace: when the
//! trace of a live block equals the signature it had at death in a
//! previous generation, the block can be declared dead immediately, and
//! the address that followed it into the frame last time can be
//! prefetched. The correlation table is indexed by a hash of
//! `(block address, PC-trace signature)` — note it needs both *addresses*
//! and *PCs*, the two requirements TCP eliminates.
//!
//! As in the paper's evaluation, no critical-miss filter is applied.

use tcp_cache::{L1MissInfo, PrefetchRequest, Prefetcher};
use tcp_mem::{CacheGeometry, LineAddr, MemAccess};

/// Configuration of DBCP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbcpConfig {
    /// Correlation-table budget in bytes (2 MB in Figure 11).
    pub table_bytes: usize,
    /// Geometry of the observed L1 (frame tracking assumes the paper's
    /// direct-mapped L1: one frame per set).
    pub l1: CacheGeometry,
    /// Truncated-addition width for the PC trace signature.
    pub signature_bits: u32,
}

impl DbcpConfig {
    /// The paper's 2 MB configuration.
    pub fn dbcp_2m() -> Self {
        DbcpConfig {
            table_bytes: 2 * 1024 * 1024,
            l1: CacheGeometry::new(32 * 1024, 32, 1),
            signature_bits: 16,
        }
    }
}

impl Default for DbcpConfig {
    fn default() -> Self {
        DbcpConfig::dbcp_2m()
    }
}

#[derive(Clone, Copy, Debug)]
struct DbcpEntry {
    key: u32, // truncated verification tag of (block, signature)
    next: LineAddr,
    // Lai et al. gate predictions with saturating counters: an entry only
    // predicts once the same transition has been observed twice.
    confirmed: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct FrameState {
    line: Option<LineAddr>,
    sig: u64,
}

const ENTRY_BYTES: usize = 8;

/// The dead-block correlating prefetcher.
///
/// # Examples
///
/// ```
/// use tcp_baselines::{Dbcp, DbcpConfig};
/// use tcp_cache::Prefetcher;
///
/// let p = Dbcp::new(DbcpConfig::dbcp_2m());
/// assert_eq!(p.name(), "DBCP-2M");
/// assert_eq!(p.storage_bytes(), 2 * 1024 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct Dbcp {
    cfg: DbcpConfig,
    name: String,
    table: Vec<Option<DbcpEntry>>,
    frames: Vec<FrameState>,
    trains: u64,
    predictions: u64,
}

impl Dbcp {
    /// Creates an empty DBCP.
    ///
    /// # Panics
    ///
    /// Panics if the table budget is smaller than one entry.
    pub fn new(cfg: DbcpConfig) -> Self {
        let budget = cfg.table_bytes / ENTRY_BYTES;
        assert!(budget >= 1, "DBCP table budget too small");
        // The largest power of two that fits the budget.
        let entries = 1 << budget.ilog2();
        let name = if cfg.table_bytes >= 1024 * 1024 {
            format!("DBCP-{}M", cfg.table_bytes / (1024 * 1024))
        } else {
            format!("DBCP-{}K", cfg.table_bytes / 1024)
        };
        Dbcp {
            cfg,
            name,
            table: vec![None; entries],
            frames: vec![FrameState::default(); cfg.l1.num_sets() as usize],
            trains: 0,
            predictions: 0,
        }
    }

    /// `(death transitions learned, dead-block predictions made)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.trains, self.predictions)
    }

    fn key_hash(&self, line: LineAddr, sig: u64) -> (usize, u32) {
        let mixed = (line.line_number() ^ sig.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let idx = (mixed as usize) & (self.table.len() - 1);
        let key = (mixed >> 32) as u32;
        (idx, key)
    }

    fn frame_of(&self, line: LineAddr) -> usize {
        self.cfg.l1.split_line(line).1.as_usize()
    }

    fn mask(&self, sig: u64) -> u64 {
        if self.cfg.signature_bits >= 64 {
            sig
        } else {
            sig & ((1 << self.cfg.signature_bits) - 1)
        }
    }

    /// If the block's trace matches a learned death signature, the block
    /// is predicted dead and its historical successor is prefetched.
    fn probe(&mut self, line: LineAddr, sig: u64, out: &mut Vec<PrefetchRequest>) {
        let (idx, key) = self.key_hash(line, sig);
        if let Some(e) = self.table[idx] {
            if e.key == key && e.confirmed && e.next != line {
                self.predictions += 1;
                out.push(PrefetchRequest::to_l2(e.next));
            }
        }
    }
}

impl Prefetcher for Dbcp {
    fn name(&self) -> &str {
        &self.name
    }

    fn storage_bytes(&self) -> usize {
        self.table.len() * ENTRY_BYTES
    }

    fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
        // A miss to this frame IS the death of its resident block: learn
        // the (dying block, death signature) → incoming block transition,
        // then start the incoming block's trace with the missing PC.
        let f = self.frame_of(info.line);
        let FrameState {
            line: old_line,
            sig,
        } = self.frames[f];
        if let Some(old) = old_line {
            if old != info.line {
                self.trains += 1;
                let (idx, key) = self.key_hash(old, sig);
                let confirmed = matches!(
                    self.table[idx],
                    Some(e) if e.key == key && e.next == info.line
                );
                self.table[idx] = Some(DbcpEntry {
                    key,
                    next: info.line,
                    confirmed,
                });
            }
        }
        let sig = self.mask(info.access.pc.raw());
        self.frames[f] = FrameState {
            line: Some(info.line),
            sig,
        };
        self.probe(info.line, sig, out);
    }

    fn on_hit(
        &mut self,
        access: &MemAccess,
        line: LineAddr,
        _cycle: u64,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let f = self.frame_of(line);
        if self.frames[f].line != Some(line) {
            // The hierarchy's view and ours diverged (e.g. a prefetch
            // promotion we did not cause); resynchronise.
            self.frames[f] = FrameState {
                line: Some(line),
                sig: 0,
            };
        }
        let sig = self.mask(self.frames[f].sig.wrapping_add(access.pc.raw()));
        self.frames[f].sig = sig;
        self.probe(line, sig, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_mem::Addr;

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 32, 1)
    }

    fn line(tag: u64, set: u32) -> LineAddr {
        geometry().compose(tcp_mem::Tag::new(tag), tcp_mem::SetIndex::new(set))
    }

    fn miss_info(l: LineAddr, pc: u64) -> L1MissInfo {
        let g = geometry();
        let a = g.first_byte(l);
        let (tag, set) = g.split_line(l);
        L1MissInfo {
            access: MemAccess::load(Addr::new(pc), a),
            line: l,
            tag,
            set,
            cycle: 0,
        }
    }

    /// Simulate one generation: miss on `l` (killing the frame's previous
    /// block), then `hits` further touches from `pc`.
    fn generation(p: &mut Dbcp, l: LineAddr, pc: u64, hits: usize, out: &mut Vec<PrefetchRequest>) {
        p.on_miss(&miss_info(l, pc), out);
        let a = geometry().first_byte(l);
        for _ in 0..hits {
            p.on_hit(&MemAccess::load(Addr::new(pc), a), l, 0, out);
        }
    }

    #[test]
    fn learns_death_transition_and_predicts_on_signature_match() {
        let mut p = Dbcp::new(DbcpConfig::dbcp_2m());
        let mut out = Vec::new();
        let a = line(1, 5);
        let b = line(2, 5);
        // Generations 1 and 2: block a lives (3 hits from pc 0x400) and
        // dies to b, twice — the second death confirms the transition.
        for _ in 0..2 {
            generation(&mut p, a, 0x400, 3, &mut out);
            p.on_miss(&miss_info(b, 0x500), &mut out); // a dies; (a, sig) → b
        }
        out.clear();
        // Generation 2: block a returns with the same access pattern.
        p.on_miss(&miss_info(a, 0x400), &mut out);
        let addr = geometry().first_byte(a);
        for i in 0..3 {
            out.clear();
            p.on_hit(
                &MemAccess::load(Addr::new(0x400), addr),
                a,
                100 + i,
                &mut out,
            );
        }
        // Generation 3: on the 3rd touch the signature matches the
        // confirmed death signature → prefetch b.
        assert_eq!(out.len(), 1, "completed signature must predict");
        assert_eq!(out[0].line, b);
        let (trains, preds) = p.counters();
        assert!(trains >= 1 && preds >= 1);
    }

    #[test]
    fn different_pc_trace_does_not_predict() {
        let mut p = Dbcp::new(DbcpConfig::dbcp_2m());
        let mut out = Vec::new();
        let a = line(1, 5);
        generation(&mut p, a, 0x400, 3, &mut out);
        p.on_miss(&miss_info(line(2, 5), 0x500), &mut out); // a dies → trains
        out.clear();
        out.clear();
        // Generation 2 with a different PC: signature differs, no match.
        generation(&mut p, a, 0x999, 3, &mut out);
        assert!(out.is_empty(), "different trace must not fire");
    }

    #[test]
    fn no_training_without_a_death() {
        let mut p = Dbcp::new(DbcpConfig::dbcp_2m());
        let mut out = Vec::new();
        generation(&mut p, line(1, 0), 0x400, 5, &mut out);
        assert_eq!(p.counters().0, 0, "first fill of a frame has no victim");
    }

    #[test]
    fn frames_are_independent() {
        let mut p = Dbcp::new(DbcpConfig::dbcp_2m());
        let mut out = Vec::new();
        // Death in set 5 must not make set 6 predict.
        generation(&mut p, line(1, 5), 0x400, 2, &mut out);
        p.on_miss(&miss_info(line(2, 5), 0x500), &mut out);
        out.clear();
        generation(&mut p, line(1, 6), 0x400, 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_matches_budget() {
        let p = Dbcp::new(DbcpConfig {
            table_bytes: 64 * 1024,
            ..DbcpConfig::dbcp_2m()
        });
        assert_eq!(p.storage_bytes(), 64 * 1024);
        assert_eq!(p.name(), "DBCP-64K");
    }

    #[test]
    #[should_panic(expected = "budget too small")]
    fn budget_below_one_entry_rejected() {
        let _ = Dbcp::new(DbcpConfig {
            table_bytes: 4,
            ..DbcpConfig::dbcp_2m()
        });
    }

    #[test]
    fn small_table_loses_old_correlations() {
        // A tiny table: many distinct (block, sig) pairs overwrite each
        // other — the capacity effect that hurts address correlation.
        let mut p = Dbcp::new(DbcpConfig {
            table_bytes: 64,
            ..DbcpConfig::dbcp_2m()
        });
        let mut out = Vec::new();
        for t in 0..64u64 {
            generation(&mut p, line(t, 3), 0x400, 2, &mut out);
        }
        assert!(p.counters().0 > 0);
        // Re-run the first block's generation: its entry has almost
        // certainly been clobbered by the 63 later deaths.
        out.clear();
        generation(&mut p, line(0, 3), 0x400, 2, &mut out);
        let correct = out.iter().filter(|r| r.line == line(1, 3)).count();
        assert!(
            correct == 0 || out.len() <= 1,
            "tiny table should have forgotten"
        );
    }
}
