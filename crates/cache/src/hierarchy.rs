//! The two-level memory hierarchy of Figure 10: L1 data cache, L1/L2 bus,
//! L2 cache with an attached prefetch engine, memory bus, main memory.
//!
//! Timing model. The hierarchy is driven by timestamped demand accesses
//! from the core. Misses allocate in-flight fill entries whose completion
//! cycles are computed from cache latencies, bus queuing (demand and
//! prefetch traffic share the buses), and the 70-cycle memory. Fills are
//! applied lazily: every call first lands all fills that completed before
//! the current access. The prefetch engine observes each primary L1 miss
//! and its requests enter the same machinery, filling the L2 only — or,
//! for [`PrefetchTarget::L1`], additionally promoting into the L1 over a
//! (possibly dedicated) prefetch bus.

use crate::cache::AccessOutcome;
use crate::{
    Bus, Cache, ConfigError, HierarchyStats, L1MissInfo, MshrFile, PrefetchRequest, PrefetchTarget,
    Prefetcher, Replacement, Tlb, TlbConfig, VictimCache,
};
use tcp_mem::{CacheGeometry, LineAddr, MemAccess};

/// Which level serviced a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServicedBy {
    /// L1 data-cache hit.
    L1,
    /// L1 miss swapped back from the victim cache.
    Victim,
    /// L1 miss serviced by the L2 (hit or merged into an in-flight fill).
    L2,
    /// L1 and L2 miss serviced by main memory.
    Memory,
}

/// The outcome of one demand access, as seen by the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the loaded value is available to dependents. For
    /// stores this is the cycle the store leaves the core's write buffer.
    pub completes_at: u64,
    /// The level that provided the data.
    pub serviced_by: ServicedBy,
}

/// Configuration of the hierarchy (Table 1 of the paper by default).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data-cache geometry (default 32 KB, direct-mapped, 32 B lines).
    pub l1d: CacheGeometry,
    /// L2 geometry (default 1 MB, 4-way, 64 B lines).
    pub l2: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// L2 access latency in cycles (12 in Table 1).
    pub l2_latency: u64,
    /// Main-memory access latency in cycles (70 in Table 1).
    pub memory_latency: u64,
    /// Cycles one L1 line occupies the L1/L2 bus (32 B over a 32-byte-wide
    /// 2 GHz bus: 1 cycle).
    pub l1_bus_cycles: u64,
    /// Cycles one L2 line occupies the memory bus.
    pub mem_bus_cycles: u64,
    /// Number of L1 MSHRs (64 in Table 1).
    pub l1_mshrs: usize,
    /// Maximum prefetch fetches in flight; further requests are dropped,
    /// modelling a bounded outgoing prefetch buffer.
    pub prefetch_buffer: usize,
    /// When `true`, every L2 demand access hits (the Figure 1 limit study).
    pub ideal_l2: bool,
    /// Dedicated prefetch bus for L1 promotions (Section 5.2.2 adds one so
    /// prefetches do not compete with demand traffic on the L1/L2 bus).
    pub separate_prefetch_bus: bool,
    /// L1 replacement policy.
    pub l1_replacement: Replacement,
    /// L2 replacement policy (LRU in Table 1).
    pub l2_replacement: Replacement,
    /// Optional victim cache beside the L1 (entries); `None` matches
    /// Table 1. Victim hits swap in `victim_latency` cycles and do not
    /// reach the L2 (so the prefetcher does not observe them).
    pub victim_cache_entries: Option<usize>,
    /// Victim-cache swap latency in cycles.
    pub victim_latency: u64,
    /// Optional data TLB; misses add the configured walk penalty.
    pub dtlb: Option<TlbConfig>,
    /// Optional store-buffer bound: at most this many store-initiated
    /// fills in flight before further store misses stall. `None` models
    /// the paper's unbounded write buffering.
    pub store_buffer_entries: Option<usize>,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1d: CacheGeometry::new(32 * 1024, 32, 1),
            l2: CacheGeometry::new(1024 * 1024, 64, 4),
            l1_hit_latency: 2,
            l2_latency: 12,
            memory_latency: 70,
            l1_bus_cycles: 1,
            mem_bus_cycles: 4,
            l1_mshrs: 64,
            prefetch_buffer: 64,
            ideal_l2: false,
            separate_prefetch_bus: false,
            l1_replacement: Replacement::Lru,
            l2_replacement: Replacement::Lru,
            victim_cache_entries: None,
            victim_latency: 3,
            dtlb: None,
            store_buffer_entries: None,
        }
    }
}

impl HierarchyConfig {
    /// Checks that the configuration describes a machine the timing model
    /// can simulate: power-of-two geometries, an L1 line no larger than an
    /// L2 line (an L1 fill must come from a single L2 line), and nonzero
    /// latencies, bus widths, and MSHR counts (a zero-entry MSHR file
    /// would wedge the first miss forever).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; the checks are ordered
    /// from geometry to latencies to optional structures.
    ///
    /// # Examples
    ///
    /// ```
    /// use tcp_cache::HierarchyConfig;
    ///
    /// assert!(HierarchyConfig::default().validate().is_ok());
    /// let broken = HierarchyConfig { l1_mshrs: 0, ..HierarchyConfig::default() };
    /// assert!(broken.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("l1 line size", self.l1d.line_bytes()),
            ("l1 set count", self.l1d.num_sets() as u64),
            ("l2 line size", self.l2.line_bytes()),
            ("l2 set count", self.l2.num_sets() as u64),
        ] {
            if !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { field, value });
            }
        }
        for (field, value) in [
            ("l1 associativity", u64::from(self.l1d.associativity())),
            ("l2 associativity", u64::from(self.l2.associativity())),
        ] {
            // The cache's per-set occupancy bitmask is one bit per way.
            if !(1..=64).contains(&value) {
                return Err(ConfigError::OutOfRange {
                    field,
                    value,
                    min: 1,
                    max: 64,
                });
            }
        }
        if self.l1d.line_bytes() > self.l2.line_bytes() {
            return Err(ConfigError::LineSizeMismatch {
                l1_line: self.l1d.line_bytes(),
                l2_line: self.l2.line_bytes(),
            });
        }
        for (field, value) in [
            ("l1_hit_latency", self.l1_hit_latency),
            ("l2_latency", self.l2_latency),
            ("memory_latency", self.memory_latency),
            ("l1_bus_cycles", self.l1_bus_cycles),
            ("mem_bus_cycles", self.mem_bus_cycles),
            ("l1_mshrs", self.l1_mshrs as u64),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroField { field });
            }
        }
        if let Some(entries) = self.victim_cache_entries {
            if entries == 0 {
                return Err(ConfigError::ZeroField {
                    field: "victim_cache_entries",
                });
            }
            if self.victim_latency == 0 {
                return Err(ConfigError::ZeroField {
                    field: "victim_latency",
                });
            }
        }
        if let Some(tlb) = &self.dtlb {
            if tlb.entries == 0 {
                return Err(ConfigError::ZeroField {
                    field: "dtlb entries",
                });
            }
            if tlb.page_bits < 1 || tlb.page_bits > 63 {
                return Err(ConfigError::OutOfRange {
                    field: "dtlb page_bits",
                    value: u64::from(tlb.page_bits),
                    min: 1,
                    max: 63,
                });
            }
        }
        if self.store_buffer_entries == Some(0) {
            return Err(ConfigError::ZeroField {
                field: "store_buffer_entries",
            });
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
struct PendingPromotion {
    ready_at: u64,
    line: LineAddr, // L1 geometry
    demanded: bool,
}

/// The simulated memory hierarchy below the core.
///
/// # Examples
///
/// ```
/// use tcp_cache::{HierarchyConfig, MemoryHierarchy, NullPrefetcher, ServicedBy};
/// use tcp_mem::{Addr, MemAccess};
///
/// let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher));
/// let miss = h.access(MemAccess::load(Addr::new(0x400000), Addr::new(0x1000)), 0);
/// assert_eq!(miss.serviced_by, ServicedBy::Memory);
/// // Re-access after the fill lands: L1 hit.
/// let hit = h.access(MemAccess::load(Addr::new(0x400000), Addr::new(0x1008)), miss.completes_at + 1);
/// assert_eq!(hit.serviced_by, ServicedBy::L1);
/// ```
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l1_bus: Bus,
    mem_bus: Bus,
    prefetch_bus: Option<Bus>,
    l1_fills: MshrFile, // in-flight fills into L1 (demand)
    l2_fills: MshrFile, // in-flight fills into L2 (demand + prefetch)
    promotions: Vec<PendingPromotion>,
    inflight_prefetches: usize,
    victim: Option<VictimCache>,
    dtlb: Option<Tlb>,
    store_fills: std::collections::HashSet<LineAddr>,
    prefetcher: Box<dyn Prefetcher>,
    // `prefetcher.is_active()`, cached at construction: the no-prefetch
    // baseline pays no virtual dispatch on the per-access hot path.
    engine_active: bool,
    stats: HierarchyStats,
    scratch: Vec<PrefetchRequest>,
}

impl std::fmt::Debug for MemoryHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryHierarchy")
            .field("cfg", &self.cfg)
            .field("prefetcher", &self.prefetcher.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemoryHierarchy {
    /// Builds a hierarchy around a prefetch engine.
    ///
    /// `cfg` is not checked here: an impossible machine may panic or
    /// wedge the simulation, so check it with [`HierarchyConfig::validate`]
    /// first, as `tcp_sim::Session::new` does.
    pub fn new(cfg: HierarchyConfig, prefetcher: Box<dyn Prefetcher>) -> Self {
        let l1 = Cache::new(cfg.l1d, cfg.l1_replacement);
        let l2 = Cache::new(cfg.l2, cfg.l2_replacement);
        let l1_bus = Bus::new(cfg.l1_bus_cycles);
        let mem_bus = Bus::new(cfg.mem_bus_cycles);
        let prefetch_bus = cfg
            .separate_prefetch_bus
            .then(|| Bus::new(cfg.l1_bus_cycles));
        let l1_fills = MshrFile::new(cfg.l1_mshrs);
        let l2_fills = MshrFile::new(cfg.l1_mshrs + cfg.prefetch_buffer.max(1));
        let cfg_victim = cfg.victim_cache_entries.map(VictimCache::new);
        let cfg_dtlb = cfg.dtlb.map(Tlb::new);
        let engine_active = prefetcher.is_active();
        MemoryHierarchy {
            cfg,
            l1,
            l2,
            l1_bus,
            mem_bus,
            prefetch_bus,
            l1_fills,
            l2_fills,
            promotions: Vec::new(),
            inflight_prefetches: 0,
            victim: cfg_victim,
            dtlb: cfg_dtlb,
            store_fills: std::collections::HashSet::new(),
            prefetcher,
            engine_active,
            stats: HierarchyStats::default(),
            scratch: Vec::new(),
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Accumulated statistics. Call [`MemoryHierarchy::finalize`] first at
    /// the end of a run to fold still-unused prefetched lines into the
    /// "prefetched extra" count.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// The attached prefetch engine.
    pub fn prefetcher(&self) -> &dyn Prefetcher {
        self.prefetcher.as_ref()
    }

    /// The L1/L2 bus (for occupancy reporting).
    pub fn l1_bus(&self) -> &Bus {
        &self.l1_bus
    }

    /// The L2/memory bus (for occupancy reporting).
    pub fn mem_bus(&self) -> &Bus {
        &self.mem_bus
    }

    /// Lands every in-flight fill and promotion that completes at or
    /// before `now`.
    fn advance(&mut self, now: u64) {
        // Fast path: on most accesses nothing has completed yet, and one
        // compare against each file's earliest fill answers that.
        if !self.l2_fills.has_ready(now)
            && !self.l1_fills.has_ready(now)
            && self.promotions.is_empty()
        {
            return;
        }
        // L2 fills first: an L1 fill may logically depend on the L2 copy.
        // Fills land one at a time straight off each file's head; no
        // landing reads the file it came from, so this equals landing a
        // drained batch.
        while let Some((line, fill)) = self.l2_fills.pop_ready(now) {
            if fill.is_prefetch {
                self.inflight_prefetches = self.inflight_prefetches.saturating_sub(1);
            }
            let still_prefetch_credit = fill.is_prefetch && !fill.demanded;
            let evicted = self.l2.fill(line, still_prefetch_credit);
            if fill.dirty {
                self.l2.mark_dirty(line);
            }
            if let Some(ev) = evicted {
                if ev.meta.prefetched && !ev.meta.demanded {
                    self.stats.l2_breakdown.prefetched_extra += 1;
                }
                if ev.meta.dirty {
                    self.stats.l2_writebacks += 1;
                    self.mem_bus.schedule(fill.ready_at);
                }
            }
        }
        while let Some((line, fill)) = self.l1_fills.pop_ready(now) {
            if self.cfg.store_buffer_entries.is_some() {
                self.store_fills.remove(&line);
            }
            self.fill_l1(line, fill.ready_at, false, fill.dirty, false);
        }
        if !self.promotions.is_empty() {
            let mut i = 0;
            while i < self.promotions.len() {
                if self.promotions[i].ready_at <= now {
                    let p = self.promotions.swap_remove(i);
                    if !self.l1.contains(p.line) && self.l1_fills.lookup(p.line).is_none() {
                        self.stats.l1_prefetch_fills += 1;
                        self.fill_l1(p.line, p.ready_at, true, false, p.demanded);
                    }
                } else {
                    i += 1;
                }
            }
        }
    }

    fn fill_l1(
        &mut self,
        line: LineAddr,
        cycle: u64,
        prefetched: bool,
        dirty: bool,
        already_demanded: bool,
    ) {
        let evicted = self.l1.fill(line, prefetched);
        if dirty {
            self.l1.mark_dirty(line);
        }
        if already_demanded {
            self.l1.mark_demanded(line);
        }
        if self.engine_active {
            self.prefetcher.on_l1_fill(line, cycle);
        }
        if let Some(ev) = evicted {
            if self.engine_active {
                self.prefetcher.on_l1_evict(ev.line, cycle);
            }
            // With a victim cache, evictions park beside the L1; only the
            // overflowing oldest victim continues down the hierarchy.
            let downstream = match self.victim.as_mut() {
                Some(vc) => vc.insert(ev.line, ev.meta.dirty),
                None => Some((ev.line, ev.meta.dirty)),
            };
            if let Some((down_line, down_dirty)) = downstream {
                if down_dirty {
                    self.stats.l1_writebacks += 1;
                    self.l1_bus.schedule(cycle);
                    let l2_line = self.cfg.l1d.rescale_line(down_line, &self.cfg.l2);
                    if !self.l2.mark_dirty(l2_line) {
                        self.l2_fills.mark_dirty(l2_line);
                    }
                }
            }
        }
    }

    /// Performs one demand access from the core at cycle `now`.
    pub fn access(&mut self, acc: MemAccess, now: u64) -> AccessResult {
        let mut now = now;
        if let Some(tlb) = self.dtlb.as_mut() {
            if !tlb.access(acc.addr, now) {
                self.stats.dtlb_misses += 1;
                now += tlb.config().miss_penalty;
            }
        }
        self.advance(now);
        if acc.kind.is_store() {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let l1_line = self.cfg.l1d.line_addr(acc.addr);
        let write = acc.kind.is_store();
        match self.l1.access(l1_line, write) {
            AccessOutcome::Hit {
                first_demand_of_prefetch,
            } => {
                self.stats.l1_hits += 1;
                if first_demand_of_prefetch {
                    // A promoted prefetch pays off: in the no-prefetch
                    // machine this access would have gone to L2.
                    self.stats.l2_breakdown.prefetched_original += 1;
                    let l2_line = self.cfg.l1d.rescale_line(l1_line, &self.cfg.l2);
                    self.l2.mark_demanded(l2_line);
                }
                if self.engine_active {
                    let mut requests = std::mem::take(&mut self.scratch);
                    requests.clear();
                    if first_demand_of_prefetch {
                        // Let the engine observe the miss this would have
                        // been.
                        let (tag, set) = self.cfg.l1d.split_line(l1_line);
                        let info = L1MissInfo {
                            access: acc,
                            line: l1_line,
                            tag,
                            set,
                            cycle: now,
                        };
                        self.prefetcher.on_promoted_first_use(&info, &mut requests);
                    }
                    self.prefetcher.on_hit(&acc, l1_line, now, &mut requests);
                    for req in requests.drain(..) {
                        self.handle_prefetch(req, now);
                    }
                    self.scratch = requests;
                }
                AccessResult {
                    completes_at: now + self.cfg.l1_hit_latency,
                    serviced_by: ServicedBy::L1,
                }
            }
            AccessOutcome::Miss => self.handle_l1_miss(acc, l1_line, write, now),
        }
    }

    fn handle_l1_miss(
        &mut self,
        acc: MemAccess,
        l1_line: LineAddr,
        write: bool,
        now: u64,
    ) -> AccessResult {
        // Secondary miss: merge into an in-flight demand fill. The block
        // is being delivered, so predictors observing per-block reuse
        // (DBCP traces, dead-block timekeeping) see this as a touch.
        if let Some(fill) = self.l1_fills.lookup(l1_line).copied() {
            self.stats.l1_mshr_merges += 1;
            if write {
                self.l1_fills.mark_dirty(l1_line);
            }
            if self.engine_active {
                let mut requests = std::mem::take(&mut self.scratch);
                requests.clear();
                self.prefetcher.on_hit(&acc, l1_line, now, &mut requests);
                for req in requests.drain(..) {
                    self.handle_prefetch(req, now);
                }
                self.scratch = requests;
            }
            let completes_at = fill.ready_at.max(now + self.cfg.l1_hit_latency);
            return AccessResult {
                completes_at,
                serviced_by: ServicedBy::L2,
            };
        }
        // Merge into a pending L1 promotion.
        if let Some(p) = self.promotions.iter_mut().find(|p| p.line == l1_line) {
            self.stats.l1_mshr_merges += 1;
            if !p.demanded {
                p.demanded = true;
                self.stats.l2_breakdown.prefetched_original += 1;
                let l2_line = self.cfg.l1d.rescale_line(l1_line, &self.cfg.l2);
                self.l2.mark_demanded(l2_line);
            }
            let ready = p.ready_at;
            return AccessResult {
                completes_at: ready.max(now + self.cfg.l1_hit_latency),
                serviced_by: ServicedBy::L2,
            };
        }

        // Victim-cache swap: a conflict victim parked beside the L1
        // returns in a few cycles without touching the L2 (and without
        // appearing in the miss stream the prefetcher observes).
        if let Some(vc) = self.victim.as_mut() {
            if let Some(dirty) = vc.take(l1_line) {
                self.stats.victim_hits += 1;
                let done = now + self.cfg.victim_latency + self.cfg.l1_hit_latency;
                self.fill_l1(l1_line, now, false, dirty || write, true);
                return AccessResult {
                    completes_at: done,
                    serviced_by: ServicedBy::Victim,
                };
            }
        }

        // Primary miss.
        self.stats.l1_misses += 1;
        let mut t = now;
        while self.l1_fills.is_full() {
            let earliest = self
                .l1_fills
                .earliest_ready()
                // tcp-lint: allow(panic-in-library) — is_full() guard means entries exist
                .expect("full file has entries");
            let wait_until = earliest.max(t + 1);
            self.stats.mshr_stall_cycles += wait_until - t;
            t = wait_until;
            self.advance(t);
        }

        if write {
            if let Some(cap) = self.cfg.store_buffer_entries {
                while self.store_fills.len() >= cap {
                    let earliest = self
                        .l1_fills
                        .earliest_ready()
                        // tcp-lint: allow(panic-in-library) — store_fills ⊆ l1_fills, so nonempty
                        .expect("stores are in flight");
                    let wait_until = earliest.max(t + 1);
                    self.stats.store_buffer_stall_cycles += wait_until - t;
                    t = wait_until;
                    self.advance(t);
                }
            }
        }
        let (data_at_l2, serviced_by) = self.l2_demand_access(l1_line, write, t);
        let (_, l1_done) = self.l1_bus.schedule(data_at_l2);
        self.l1_fills.allocate(l1_line, l1_done, false);
        if write {
            self.l1_fills.mark_dirty(l1_line);
            // The set only feeds the bounded-store-buffer stall check, so
            // skip the upkeep entirely when no bound is configured.
            if self.cfg.store_buffer_entries.is_some() {
                self.store_fills.insert(l1_line);
            }
        }

        // Notify the prefetch engine of the primary miss.
        if self.engine_active {
            let (tag, set) = self.cfg.l1d.split_line(l1_line);
            let info = L1MissInfo {
                access: acc,
                line: l1_line,
                tag,
                set,
                cycle: t,
            };
            let mut requests = std::mem::take(&mut self.scratch);
            requests.clear();
            self.prefetcher.on_miss(&info, &mut requests);
            for req in requests.drain(..) {
                self.handle_prefetch(req, t);
            }
            self.scratch = requests;
        }

        // Stores retire through the write buffer; loads wait for data.
        let completes_at = if write {
            t + self.cfg.l1_hit_latency
        } else {
            l1_done
        };
        AccessResult {
            completes_at,
            serviced_by,
        }
    }

    /// Demand access to the L2. Returns the cycle at which the line is
    /// available at the L2 side of the L1/L2 bus and the servicing level.
    fn l2_demand_access(&mut self, l1_line: LineAddr, write: bool, t: u64) -> (u64, ServicedBy) {
        self.stats.l2_demand_accesses += 1;
        let l2_line = self.cfg.l1d.rescale_line(l1_line, &self.cfg.l2);
        let t_tag = t + self.cfg.l2_latency;

        if self.cfg.ideal_l2 {
            self.stats.l2_demand_hits += 1;
            self.stats.l2_breakdown.non_prefetched_original += 1;
            return (t_tag, ServicedBy::L2);
        }

        match self.l2.access(l2_line, write) {
            AccessOutcome::Hit {
                first_demand_of_prefetch,
            } => {
                self.stats.l2_demand_hits += 1;
                if first_demand_of_prefetch {
                    self.stats.l2_breakdown.prefetched_original += 1;
                } else {
                    self.stats.l2_breakdown.non_prefetched_original += 1;
                }
                (t_tag, ServicedBy::L2)
            }
            AccessOutcome::Miss => {
                if let Some(fill) = self.l2_fills.lookup(l2_line).copied() {
                    // Merge into an in-flight L2 fill (demand or prefetch).
                    self.stats.l2_demand_hits += 1;
                    if fill.is_prefetch && !fill.demanded {
                        self.stats.l2_breakdown.prefetched_original += 1;
                    } else {
                        self.stats.l2_breakdown.non_prefetched_original += 1;
                    }
                    self.l2_fills.mark_demanded(l2_line);
                    (fill.ready_at.max(t_tag), ServicedBy::L2)
                } else {
                    // True L2 miss: fetch from memory.
                    self.stats.l2_demand_misses += 1;
                    self.stats.l2_breakdown.non_prefetched_original += 1;
                    let (_, data_ready) = self.mem_bus.schedule(t_tag + self.cfg.memory_latency);
                    if self.l2_fills.is_full() {
                        // Pathological backlog: complete without caching.
                        return (data_ready, ServicedBy::Memory);
                    }
                    self.l2_fills.allocate(l2_line, data_ready, false);
                    (data_ready, ServicedBy::Memory)
                }
            }
        }
    }

    fn handle_prefetch(&mut self, req: PrefetchRequest, t: u64) {
        self.stats.prefetches_issued += 1;
        let l2_line = self.cfg.l1d.rescale_line(req.line, &self.cfg.l2);
        let t_tag = t + self.cfg.l2_latency;

        // "The L2 first checks whether the target data is already in
        // itself. If found, the prefetch is completed."
        let resident = self.cfg.ideal_l2 || self.l2.contains(l2_line);
        if resident {
            self.stats.prefetches_already_resident += 1;
            if req.target == PrefetchTarget::L1 && !self.l1.contains(req.line) {
                let done = self.schedule_promotion_transfer(t_tag);
                self.promotions.push(PendingPromotion {
                    ready_at: done,
                    line: req.line,
                    demanded: false,
                });
            }
            return;
        }
        if let Some(fill) = self.l2_fills.lookup(l2_line).copied() {
            // Already being fetched; piggyback an L1 promotion if asked.
            self.stats.prefetches_already_resident += 1;
            if req.target == PrefetchTarget::L1 && !self.l1.contains(req.line) {
                let done = self.schedule_promotion_transfer(fill.ready_at);
                self.promotions.push(PendingPromotion {
                    ready_at: done,
                    line: req.line,
                    demanded: false,
                });
            }
            return;
        }
        if self.inflight_prefetches >= self.cfg.prefetch_buffer || self.l2_fills.is_full() {
            self.stats.prefetches_dropped += 1;
            return;
        }
        self.stats.prefetches_to_memory += 1;
        self.inflight_prefetches += 1;
        let (_, data_ready) = self.mem_bus.schedule(t_tag + self.cfg.memory_latency);
        self.l2_fills.allocate(l2_line, data_ready, true);
        if req.target == PrefetchTarget::L1 && !self.l1.contains(req.line) {
            let done = self.schedule_promotion_transfer(data_ready);
            self.promotions.push(PendingPromotion {
                ready_at: done,
                line: req.line,
                demanded: false,
            });
        }
    }

    fn schedule_promotion_transfer(&mut self, earliest: u64) -> u64 {
        match self.prefetch_bus.as_mut() {
            Some(bus) => bus.schedule(earliest).1,
            None => self.l1_bus.schedule(earliest).1,
        }
    }

    /// Resets accumulated statistics while keeping cache contents, bus
    /// backlog, and in-flight fills: the warm-up boundary of a measured
    /// run.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        // Lines prefetched before the boundary should not be charged as
        // "extra" to the measured window if still unused: clear credit.
        // (Their demand hits inside the window also stop counting as
        // prefetched-original, keeping the breakdown conservative.)
    }

    /// Finishes the run: lands all in-flight fills and counts prefetched
    /// lines that never saw a demand access as "prefetched extra".
    /// Returns the final statistics.
    pub fn finalize(&mut self) -> HierarchyStats {
        // `advance` only compares `now` against completion cycles, and
        // landing a fill or promotion starts no new one, so one advance to
        // the end of time lands everything still in flight.
        self.advance(u64::MAX);
        for (_, meta) in self.l2.iter() {
            if meta.prefetched && !meta.demanded {
                self.stats.l2_breakdown.prefetched_extra += 1;
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullPrefetcher;
    use tcp_mem::Addr;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher))
    }

    fn load(a: u64) -> MemAccess {
        MemAccess::load(Addr::new(0x40_0000), Addr::new(a))
    }

    fn store(a: u64) -> MemAccess {
        MemAccess::store(Addr::new(0x40_0000), Addr::new(a))
    }

    #[test]
    fn cold_miss_goes_to_memory_with_expected_latency() {
        let mut h = hierarchy();
        let r = h.access(load(0x1000), 0);
        assert_eq!(r.serviced_by, ServicedBy::Memory);
        // l2_latency + memory_latency + mem bus + l1 bus = 12 + 70 + 4 + 1
        assert_eq!(r.completes_at, 87);
    }

    #[test]
    fn fill_lands_and_second_access_hits_l1() {
        let mut h = hierarchy();
        let r = h.access(load(0x1000), 0);
        let r2 = h.access(load(0x1010), r.completes_at);
        assert_eq!(r2.serviced_by, ServicedBy::L1);
        assert_eq!(r2.completes_at, r.completes_at + 2);
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l1_misses, 1);
    }

    #[test]
    fn secondary_miss_merges_not_refetches() {
        let mut h = hierarchy();
        let r = h.access(load(0x1000), 0);
        let r2 = h.access(load(0x1008), 5); // same L1 line, fill in flight
        assert_eq!(r2.completes_at, r.completes_at);
        assert_eq!(h.stats().l1_misses, 1);
        assert_eq!(h.stats().l1_mshr_merges, 1);
        assert_eq!(h.stats().l2_demand_accesses, 1);
    }

    #[test]
    fn l1_conflict_miss_hits_l2() {
        let mut h = hierarchy();
        let r1 = h.access(load(0x1000), 0);
        // Same L1 set, different tag: evicts 0x1000 from L1 but both stay in L2.
        let r2 = h.access(load(0x1000 + 32 * 1024), r1.completes_at + 1);
        let r3 = h.access(load(0x1000), r2.completes_at + 1);
        assert_eq!(r3.serviced_by, ServicedBy::L2);
        // L2 hit: l2_latency + l1 bus transfer.
        assert_eq!(r3.completes_at - (r2.completes_at + 1), 12 + 1);
        assert_eq!(h.stats().l2_demand_hits, 1);
    }

    #[test]
    fn ideal_l2_never_accesses_memory() {
        let mut h = MemoryHierarchy::new(
            HierarchyConfig {
                ideal_l2: true,
                ..HierarchyConfig::default()
            },
            Box::new(NullPrefetcher),
        );
        let mut t = 0;
        for i in 0..100 {
            let r = h.access(load(i * 4096), t);
            assert_ne!(r.serviced_by, ServicedBy::Memory);
            t = r.completes_at + 1;
        }
        assert_eq!(h.stats().l2_demand_misses, 0);
        assert_eq!(h.mem_bus().transfers(), 0);
    }

    #[test]
    fn stores_complete_fast_but_fetch_line() {
        let mut h = hierarchy();
        let r = h.access(store(0x2000), 0);
        assert_eq!(r.completes_at, 2); // write buffer
                                       // Line still arrives; later load hits.
        let r2 = h.access(load(0x2000), 200);
        assert_eq!(r2.serviced_by, ServicedBy::L1);
    }

    #[test]
    fn store_merging_into_fill_marks_dirty_for_writeback() {
        let mut h = hierarchy();
        h.access(store(0x3000), 0);
        // After fill, evict via conflicting line; the dirty line must write back.
        h.access(load(0x3000 + 32 * 1024), 500);
        // wait for fill of conflicting line, then force another eviction round
        h.access(load(0x3000 + 2 * 32 * 1024), 1000);
        assert!(h.stats().l1_writebacks >= 1);
    }

    #[test]
    fn mshr_pressure_stalls() {
        let cfg = HierarchyConfig {
            l1_mshrs: 2,
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(NullPrefetcher));
        // Three distinct lines at the same cycle: third must wait.
        h.access(load(0x1000), 0);
        h.access(load(0x2000), 0);
        let r3 = h.access(load(0x3000), 0);
        assert!(h.stats().mshr_stall_cycles > 0);
        assert!(r3.completes_at > 87);
    }

    #[test]
    fn finalize_counts_unused_prefetches_as_extra() {
        struct NextLine;
        impl Prefetcher for NextLine {
            fn name(&self) -> &str {
                "next-line-test"
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
                // Prefetch a far-away line that is never used.
                out.push(PrefetchRequest::to_l2(info.line.offset(1 << 20)));
            }
        }
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NextLine));
        h.access(load(0x1000), 0);
        let stats = h.finalize();
        assert_eq!(stats.prefetches_to_memory, 1);
        assert_eq!(stats.l2_breakdown.prefetched_extra, 1);
        assert_eq!(stats.l2_breakdown.prefetched_original, 0);
    }

    #[test]
    fn useful_prefetch_counts_as_prefetched_original() {
        struct NextL2Line;
        impl Prefetcher for NextL2Line {
            fn name(&self) -> &str {
                "next-l2-line-test"
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
                // Next 64-byte L2 line = two L1 lines ahead.
                out.push(PrefetchRequest::to_l2(info.line.offset(2)));
            }
        }
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NextL2Line));
        let r1 = h.access(load(0x1000), 0);
        // Demand the prefetched L2 line well after it landed.
        let r2 = h.access(load(0x1040), r1.completes_at + 500);
        assert_eq!(r2.serviced_by, ServicedBy::L2);
        let stats = h.finalize();
        assert_eq!(stats.l2_breakdown.prefetched_original, 1);
        // The second miss prefetched one more line that is never demanded.
        assert_eq!(stats.l2_breakdown.prefetched_extra, 1);
        assert!((stats.prefetch_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn finalize_lands_every_inflight_fill() {
        struct FarLine;
        impl Prefetcher for FarLine {
            fn name(&self) -> &str {
                "far-line-test"
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
                // A line no access in this test demands.
                out.push(PrefetchRequest::to_l2(info.line.offset(1000)));
            }
        }
        // Fills take 3M cycles, and the second miss issues 2M cycles
        // after the first: its fills land more than 1M cycles after the
        // first miss's.
        let cfg = HierarchyConfig {
            memory_latency: 3_000_000,
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(FarLine));
        h.access(load(0x1000), 0);
        h.access(load(0x9000), 2_000_000);
        let stats = h.finalize();
        assert_eq!(stats.prefetches_to_memory, 2);
        assert_eq!(stats.l2_breakdown.prefetched_extra, 2);
    }

    #[test]
    fn demand_merging_into_inflight_prefetch_gets_partial_credit() {
        struct NextL2Line;
        impl Prefetcher for NextL2Line {
            fn name(&self) -> &str {
                "next-l2-line-test"
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
                out.push(PrefetchRequest::to_l2(info.line.offset(2)));
            }
        }
        let mut h = MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NextL2Line));
        h.access(load(0x1000), 0);
        // Demand the prefetched line immediately, while still in flight.
        let r2 = h.access(load(0x1040), 5);
        assert_eq!(r2.serviced_by, ServicedBy::L2);
        let stats = h.finalize();
        assert_eq!(stats.l2_breakdown.prefetched_original, 1);
        // Only the trailing prefetch from the second miss is unused.
        assert_eq!(stats.l2_breakdown.prefetched_extra, 1);
    }

    #[test]
    fn prefetch_buffer_limit_drops() {
        struct Blast;
        impl Prefetcher for Blast {
            fn name(&self) -> &str {
                "blast-test"
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
                for i in 1..=64i64 {
                    out.push(PrefetchRequest::to_l2(info.line.offset(i * 2)));
                }
            }
        }
        let cfg = HierarchyConfig {
            prefetch_buffer: 4,
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(Blast));
        h.access(load(0x100000), 0);
        assert_eq!(h.stats().prefetches_to_memory, 4);
        assert!(h.stats().prefetches_dropped >= 60);
    }

    #[test]
    fn l1_promotion_turns_future_miss_into_l1_hit() {
        struct PromoteNext;
        impl Prefetcher for PromoteNext {
            fn name(&self) -> &str {
                "promote-test"
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
                out.push(PrefetchRequest::to_l1(info.line.offset(2)));
            }
        }
        let cfg = HierarchyConfig {
            separate_prefetch_bus: true,
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(PromoteNext));
        let r1 = h.access(load(0x1000), 0);
        let r2 = h.access(load(0x1040), r1.completes_at + 500);
        assert_eq!(r2.serviced_by, ServicedBy::L1);
        let stats = h.finalize();
        assert_eq!(stats.l1_prefetch_fills, 1);
        // First L1 touch of a promoted line is the prefetched-original credit.
        assert_eq!(stats.l2_breakdown.prefetched_original, 1);
        assert_eq!(stats.l2_breakdown.prefetched_extra, 0);
    }

    #[test]
    fn l2_eviction_writes_back_dirty_lines_to_memory() {
        let mut h = hierarchy();
        // Dirty a line in L1, force it down to L2, then thrash the L2 set
        // until the dirty line is evicted to memory.
        let base = 0x10_0000u64;
        h.access(store(base), 0);
        let mut t = 200u64;
        // Evict from L1 (same L1 set): dirty data reaches L2.
        let r = h.access(load(base + 32 * 1024), t);
        t = r.completes_at + 1;
        // Now conflict in the L2 set: L2 is 4-way with 4096 sets of 64B,
        // so lines 256 KB apart collide.
        for i in 1..=6u64 {
            let r = h.access(load(base + i * 256 * 1024), t);
            t = r.completes_at + 1;
        }
        let stats = h.finalize();
        assert!(stats.l1_writebacks >= 1, "dirty L1 line must write back");
        assert!(
            stats.l2_writebacks >= 1,
            "dirty L2 victim must write to memory"
        );
    }

    #[test]
    fn saturated_mem_bus_queues_but_stays_causal() {
        // Fire misses far faster than the bus can serve; completion times
        // must be strictly increasing (FIFO bus) and the bus fully busy.
        let mut h = hierarchy();
        let mut last_done = 0;
        for i in 0..64u64 {
            let r = h.access(load(0x40_0000 + i * 64), i); // distinct L2 lines
            assert!(r.completes_at > last_done, "bus service must be FIFO");
            last_done = r.completes_at;
        }
        let busy = h.mem_bus().busy_cycles();
        assert_eq!(busy, 64 * 4, "every miss occupies the bus once");
    }

    #[test]
    fn ideal_l2_with_prefetcher_generates_no_memory_traffic() {
        struct Noisy;
        impl Prefetcher for Noisy {
            fn name(&self) -> &str {
                "noisy-test"
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
                out.push(PrefetchRequest::to_l2(info.line.offset(123)));
            }
        }
        let cfg = HierarchyConfig {
            ideal_l2: true,
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(Noisy));
        let mut t = 0;
        for i in 0..50u64 {
            let r = h.access(load(i * 4096), t);
            t = r.completes_at + 1;
        }
        let stats = h.finalize();
        assert_eq!(h.mem_bus().transfers(), 0, "an ideal L2 absorbs everything");
        assert_eq!(stats.prefetches_to_memory, 0);
        assert_eq!(stats.prefetches_already_resident, stats.prefetches_issued);
    }

    #[test]
    fn victim_cache_turns_conflict_misses_into_swaps() {
        let cfg = HierarchyConfig {
            victim_cache_entries: Some(8),
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(NullPrefetcher));
        // Ping-pong between two lines in the same L1 set.
        let a = 0x1000u64;
        let b = a + 32 * 1024;
        let mut t = 0;
        for i in 0..20 {
            let addr = if i % 2 == 0 { a } else { b };
            let r = h.access(load(addr), t);
            t = r.completes_at + 1;
        }
        let stats = h.finalize();
        assert!(
            stats.victim_hits >= 16,
            "ping-pong should swap, got {}",
            stats.victim_hits
        );
        // After the first two fetches the L2 sees nothing new.
        assert!(
            stats.l2_demand_accesses <= 3,
            "L2 accesses {}",
            stats.l2_demand_accesses
        );
    }

    #[test]
    fn victim_cache_swap_is_fast() {
        let cfg = HierarchyConfig {
            victim_cache_entries: Some(4),
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(NullPrefetcher));
        let a = 0x1000u64;
        let b = a + 32 * 1024;
        let r1 = h.access(load(a), 0);
        let r2 = h.access(load(b), r1.completes_at + 1);
        let r3 = h.access(load(a), r2.completes_at + 1);
        assert_eq!(r3.serviced_by, ServicedBy::Victim);
        // victim_latency + l1_hit_latency = 3 + 2.
        assert_eq!(r3.completes_at - (r2.completes_at + 1), 5);
    }

    #[test]
    fn dtlb_misses_add_walk_latency() {
        let cfg = HierarchyConfig {
            dtlb: Some(crate::TlbConfig {
                entries: 4,
                page_bits: 13,
                miss_penalty: 30,
            }),
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(NullPrefetcher));
        let r1 = h.access(load(0x1000), 0);
        // Cold TLB miss + cold cache miss: 30 + 87.
        assert_eq!(r1.completes_at, 117);
        // Same page, same line: TLB hit, L1 hit.
        let r2 = h.access(load(0x1008), r1.completes_at + 1);
        assert_eq!(r2.completes_at - (r1.completes_at + 1), 2);
        assert_eq!(h.stats().dtlb_misses, 1);
    }

    #[test]
    fn bounded_store_buffer_stalls_store_bursts() {
        let cfg = HierarchyConfig {
            store_buffer_entries: Some(2),
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg, Box::new(NullPrefetcher));
        // Four stores to distinct lines in the same cycle: the third must
        // wait for a buffer slot.
        for i in 0..4u64 {
            h.access(store(0x10_0000 + i * 4096), 0);
        }
        assert!(h.stats().store_buffer_stall_cycles > 0);
    }

    #[test]
    fn validate_accepts_table1_and_variants() {
        assert_eq!(HierarchyConfig::default().validate(), Ok(()));
        let victim = HierarchyConfig {
            victim_cache_entries: Some(8),
            ..HierarchyConfig::default()
        };
        assert_eq!(victim.validate(), Ok(()));
        let tlb = HierarchyConfig {
            dtlb: Some(TlbConfig::default()),
            ..HierarchyConfig::default()
        };
        assert_eq!(tlb.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_impossible_geometries() {
        // L1 lines wider than L2 lines: an L1 fill would span L2 lines.
        let cfg = HierarchyConfig {
            l1d: CacheGeometry::new(32 * 1024, 128, 1),
            ..HierarchyConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::LineSizeMismatch {
                l1_line: 128,
                l2_line: 64
            })
        );
    }

    #[test]
    fn validate_rejects_zero_fields() {
        for (mk, field) in [
            (
                Box::new(|| HierarchyConfig {
                    l1_mshrs: 0,
                    ..HierarchyConfig::default()
                }) as Box<dyn Fn() -> HierarchyConfig>,
                "l1_mshrs",
            ),
            (
                Box::new(|| HierarchyConfig {
                    memory_latency: 0,
                    ..HierarchyConfig::default()
                }),
                "memory_latency",
            ),
            (
                Box::new(|| HierarchyConfig {
                    l2_latency: 0,
                    ..HierarchyConfig::default()
                }),
                "l2_latency",
            ),
            (
                Box::new(|| HierarchyConfig {
                    l1_bus_cycles: 0,
                    ..HierarchyConfig::default()
                }),
                "l1_bus_cycles",
            ),
            (
                Box::new(|| HierarchyConfig {
                    victim_cache_entries: Some(0),
                    ..HierarchyConfig::default()
                }),
                "victim_cache_entries",
            ),
            (
                Box::new(|| HierarchyConfig {
                    store_buffer_entries: Some(0),
                    ..HierarchyConfig::default()
                }),
                "store_buffer_entries",
            ),
        ] {
            assert_eq!(mk().validate(), Err(ConfigError::ZeroField { field }));
        }
    }

    #[test]
    fn validate_rejects_bad_tlb() {
        let cfg = HierarchyConfig {
            dtlb: Some(TlbConfig {
                entries: 0,
                ..TlbConfig::default()
            }),
            ..HierarchyConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroField { .. })));
        let cfg = HierarchyConfig {
            dtlb: Some(TlbConfig {
                page_bits: 64,
                ..TlbConfig::default()
            }),
            ..HierarchyConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { .. })
        ));
    }

    #[test]
    fn breakdown_original_matches_primary_misses_without_prefetcher() {
        let mut h = hierarchy();
        let mut t = 0;
        for i in 0..50 {
            let r = h.access(load(i * 64), t);
            t = r.completes_at + 1;
        }
        let stats = h.finalize();
        assert_eq!(stats.l2_breakdown.original(), stats.l1_misses);
        assert_eq!(stats.l2_breakdown.prefetched_original, 0);
        assert_eq!(stats.l2_breakdown.prefetched_extra, 0);
    }
}
