//! Differential suite: `Tcp` against a naive TCP written from the
//! paper's text (Section 4 and Figures 8 and 9).
//!
//! On each L1 miss `(tag, set)` the model trains the sequence held in
//! the set's tag history with `tag` as its successor, shifts `tag` into
//! the history, and looks the new sequence up in the PHT; each predicted
//! tag, joined with `set`, is a line prefetched into the L2. Each set's
//! history is a `VecDeque`, and the PHT is the naive table that
//! `pht_reference.rs` checks `PatternHistoryTable` against
//! (`reference/mod.rs`).
//!
//! Seeded `SplitMix64` miss streams over small tag alphabets drive both,
//! so sequences repeat, predictions hit and miss, and PHT sets conflict.
//! Figure 13's 17 PHT configurations run with 1 and 2 targets per entry
//! and prefetch degree 1 and 2. Every emitted request, `predictions()`
//! and the PHT's final `counters()` and `occupancy()` must agree; a
//! failure names its seed and miss. `scripts/check-robustness.sh` runs
//! this suite.

mod reference;

use reference::RefPht;
use std::collections::{BTreeMap, VecDeque};
use tcp_cache::{L1MissInfo, PrefetchRequest, Prefetcher};
use tcp_core::{PhtConfig, Tcp, TcpConfig};
use tcp_mem::{Addr, LineAddr, MemAccess, SetIndex, SplitMix64, Tag};

/// The naive TCP.
struct RefTcp {
    cfg: TcpConfig,
    /// Each THT row's last `history_len` miss tags, oldest first.
    history: BTreeMap<u32, VecDeque<u64>>,
    pht: RefPht,
    predictions: u64,
}

impl RefTcp {
    fn new(cfg: TcpConfig) -> Self {
        RefTcp {
            cfg,
            history: BTreeMap::new(),
            pht: RefPht::new(cfg.pht),
            predictions: 0,
        }
    }

    /// The line numbers prefetched into the L2 on a miss of `tag` in L1
    /// set `set`, first prefetch first.
    fn on_miss(&mut self, tag: u64, set: u32) -> Vec<u64> {
        let k = self.cfg.history_len;
        let row = self.history.entry(set % self.cfg.tht_sets).or_default();
        // Train: the k tags before this miss were followed by it.
        if row.len() == k {
            let seq: Vec<u64> = row.iter().copied().collect();
            self.pht.train(&seq, tag, set);
        }
        // Shift: this miss becomes the most recent tag of the history.
        row.push_back(tag);
        if row.len() > k {
            row.pop_front();
        }
        if row.len() < k {
            return Vec::new();
        }
        // Look up: never prefetch the line that just missed.
        let mut seq: Vec<u64> = row.iter().copied().collect();
        let missed = self.pht.trunc(tag);
        let mut predicted = Vec::new();
        if self.cfg.pht.targets > 1 {
            // Section 6's multi-target entries: every remembered
            // successor, most recent first.
            predicted = self.pht.lookup_targets(&seq, set);
            predicted.retain(|&p| p != missed);
        } else {
            // Degree d follows d predictions, each extending the
            // sequence it was predicted from.
            for _ in 0..self.cfg.degree {
                let Some(&p) = self.pht.lookup_targets(&seq, set).first() else {
                    break;
                };
                if p == missed && seq.last() == Some(&tag) {
                    break;
                }
                predicted.push(p);
                seq.remove(0);
                seq.push(p);
            }
        }
        self.predictions += predicted.len() as u64;
        let l1_sets = u64::from(self.cfg.l1.num_sets());
        predicted
            .iter()
            .map(|&p| p * l1_sets + u64::from(set))
            .collect()
    }
}

/// Figure 13's PHT configurations: seven sizes from 2 KB to 8 MB, each
/// with no miss-index bits and with the full index (as many of the L1's
/// 10 index bits as the table's index holds), and 8 KB with 1, 2 and 3
/// bits.
fn fig13_configs() -> Vec<PhtConfig> {
    let sizes = [2, 8, 32, 128, 512, 2048, 8192].map(|kb: usize| kb << 10);
    let full_index = |bytes: usize| (bytes / 32).trailing_zeros().min(10);
    let mut configs: Vec<PhtConfig> = sizes
        .iter()
        .flat_map(|&b| [0, full_index(b)].map(|n| PhtConfig::with_bytes(b, n)))
        .collect();
    configs.extend((1..=3).map(|n| PhtConfig::with_bytes(8 << 10, n)));
    configs
}

/// Drives `Tcp` and the model with `misses` random L1 misses from
/// `seed` and checks every miss's requests and the final state.
fn differential(cfg: TcpConfig, seed: u64, misses: u64) {
    let mut rng = SplitMix64::new(seed);
    // Small pools make sequences repeat: 2 to 31 tags (some above the
    // 16-bit PHT field, so truncation aliases) over 1 to 6 L1 sets. The
    // larger pools overflow the smaller tables' sets.
    let tag_pool: Vec<u64> = (0..2 + rng.next_below(30))
        .map(|_| rng.next_below(1 << 17))
        .collect();
    let set_pool: Vec<u32> = (0..1 + rng.next_below(6))
        .map(|_| rng.next_below(u64::from(cfg.l1.num_sets())) as u32)
        .collect();
    let mut tcp = Tcp::new(cfg);
    let mut model = RefTcp::new(cfg);
    let mut out = Vec::new();
    for miss in 0..misses {
        let tag = tag_pool[rng.next_below(tag_pool.len() as u64) as usize];
        let set = set_pool[rng.next_below(set_pool.len() as u64) as usize];
        let line = cfg.l1.compose(Tag::new(tag), SetIndex::new(set));
        let info = L1MissInfo {
            access: MemAccess::load(Addr::new(0x40_0000), cfg.l1.first_byte(line)),
            line,
            tag: Tag::new(tag),
            set: SetIndex::new(set),
            cycle: miss,
        };
        out.clear();
        tcp.on_miss(&info, &mut out);
        let want: Vec<PrefetchRequest> = model
            .on_miss(tag, set)
            .into_iter()
            .map(|n| PrefetchRequest::to_l2(LineAddr::from_line_number(n)))
            .collect();
        assert_eq!(
            out, want,
            "requests, {cfg:?} seed {seed:#x} miss {miss} (tag {tag:#x}, set {set})"
        );
    }
    let ctx = format!("{cfg:?} seed {seed:#x}");
    assert_eq!(tcp.predictions(), model.predictions, "predictions, {ctx}");
    assert_eq!(tcp.pht().counters(), model.pht.counters, "counters, {ctx}");
    let occupancy = model.pht.occupancy();
    assert_eq!(tcp.pht().occupancy(), occupancy, "occupancy, {ctx}");
    assert!(model.predictions > 0, "stream must predict, {ctx}");
}

/// Runs every Figure 13 configuration with `targets` targets per entry
/// and prefetch degree `degree` over several seeds.
fn fig13_sweep(targets: u32, degree: usize, base: u64) {
    let configs = fig13_configs();
    assert_eq!(configs.len(), 17, "Figure 13 runs 17 configurations");
    for (c, pht) in configs.into_iter().enumerate() {
        let cfg = TcpConfig {
            pht: PhtConfig { targets, ..pht },
            degree,
            ..TcpConfig::tcp_8k()
        };
        for s in 0..3u64 {
            let seed = base ^ (c as u64) << 8 ^ s.wrapping_mul(0x9E37_79B9);
            differential(cfg, seed, 2_000);
        }
    }
}

#[test]
fn fig13_configs_one_target_degree_one_match_reference() {
    fig13_sweep(1, 1, 0x7C01);
}

#[test]
fn fig13_configs_one_target_degree_two_match_reference() {
    fig13_sweep(1, 2, 0x7C02);
}

#[test]
fn fig13_configs_two_targets_degree_one_match_reference() {
    fig13_sweep(2, 1, 0x7C21);
}

#[test]
fn fig13_configs_two_targets_degree_two_match_reference() {
    fig13_sweep(2, 2, 0x7C22);
}

#[test]
fn history_lengths_match_reference() {
    for history_len in 1..=3 {
        for pht in [PhtConfig::pht_8k(), PhtConfig::pht_8m()] {
            let cfg = TcpConfig {
                history_len,
                pht,
                degree: 2,
                ..TcpConfig::tcp_8k()
            };
            for s in 0..3u64 {
                differential(cfg, 0x4157 + s * 0x101 + history_len as u64, 2_000);
            }
        }
    }
}
