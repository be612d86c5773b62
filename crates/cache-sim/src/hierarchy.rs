//! The three-level inclusive cache hierarchy with a directory-tracking LLC.
//!
//! Modelled behaviours that matter for the PiPoMonitor evaluation:
//!
//! * **Inclusivity.** L1 ⊆ L2 ⊆ L3. Evicting a line from the LLC
//!   *back-invalidates* every private copy — the cross-core eviction signal
//!   Prime+Probe relies on.
//! * **Coherence.** The LLC keeps a sharer bitmap per line; writes invalidate
//!   other cores' private copies (MESI's `M` acquisition, directory style).
//!   An L1 copy whose core holds that `M` state — sole sharer of a dirty
//!   LLC copy — carries the [`owned`](LineMeta::owned) flag, and its write
//!   hits skip the directory round trip.
//! * **Memory-controller hooks.** Every LLC→memory demand fetch and every
//!   LLC eviction is reported to a [`TrafficObserver`]; observers may tag
//!   incoming lines as protected and inject prefetches.

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::line::{LineMeta, SharerSet};
use crate::observer::TrafficObserver;
use crate::stats::HierarchyStats;
use crate::types::{AccessKind, AccessResult, Addr, CoreId, Cycle, Level, LineAddr};

/// The simulated memory system: per-core L1/L2, shared L3, DRAM.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, Addr, CoreId, Hierarchy, NullObserver, SystemConfig};
///
/// let mut h = Hierarchy::new(SystemConfig::small_test());
/// let mut obs = NullObserver;
/// let r = h.access(CoreId(0), Addr(0x40), AccessKind::Read, 0, &mut obs);
/// assert_eq!(r.served_by, cache_sim::Level::Memory);
/// let r = h.access(CoreId(0), Addr(0x40), AccessKind::Read, 10, &mut obs);
/// assert_eq!(r.served_by, cache_sim::Level::L1);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    config: SystemConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    dram: Dram,
    stats: HierarchyStats,
    /// `log2(line_size)`, hoisted so the per-access address-to-line shift
    /// does not recompute it.
    line_shift: u32,
    /// Reusable buffer for observer prefetch draining; drained lines are
    /// staged here so steady-state draining allocates nothing.
    prefetch_scratch: Vec<LineAddr>,
}

impl Hierarchy {
    /// Builds an empty hierarchy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`SystemConfig::validate`] first to handle errors gracefully.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        config.validate().expect("invalid system configuration");
        let l1 = (0..config.cores)
            .map(|_| Cache::new(config.l1, config.replacement))
            .collect();
        let l2 = (0..config.cores)
            .map(|_| Cache::new(config.l2, config.replacement))
            .collect();
        let l3 = Cache::new(config.l3, config.replacement);
        let dram = Dram::new(config.dram_latency);
        let stats = HierarchyStats::new(config.cores);
        let line_shift = (config.line_size as u64).trailing_zeros();
        Self {
            config,
            l1,
            l2,
            l3,
            dram,
            stats,
            line_shift,
            prefetch_scratch: Vec::new(),
        }
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// DRAM counters.
    #[must_use]
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> u64 {
        self.config.line_size as u64
    }

    /// LLC set index of an address (the mapping attackers use to build
    /// eviction sets).
    #[must_use]
    pub fn llc_set_of(&self, addr: Addr) -> usize {
        self.l3.set_of(addr.line(self.line_size()))
    }

    /// LLC associativity.
    #[must_use]
    pub fn llc_ways(&self) -> usize {
        self.config.l3.ways
    }

    /// Number of LLC sets.
    #[must_use]
    pub fn llc_sets(&self) -> usize {
        self.config.l3.sets
    }

    /// Whether a line is currently resident in the LLC.
    #[must_use]
    pub fn llc_contains(&self, addr: Addr) -> bool {
        self.l3.contains(addr.line(self.line_size()))
    }

    /// Whether a line is resident in `core`'s L1.
    #[must_use]
    pub fn l1_contains(&self, core: CoreId, addr: Addr) -> bool {
        self.l1[core.0].contains(addr.line(self.line_size()))
    }

    /// LLC metadata of a line, if resident (testing/diagnostics).
    #[must_use]
    pub fn llc_meta(&self, addr: Addr) -> Option<&LineMeta> {
        self.l3.peek(addr.line(self.line_size()))
    }

    /// Warms the host caches with the probe-critical set metadata of an
    /// upcoming access by `core` (the scheduler's software prefetch): a
    /// plain discarded load of the LLC fingerprint word the next
    /// [`access`](Self::access) may scan. The L1 arrays are small enough to
    /// stay host-resident on their own, so only the LLC is touched.
    #[inline]
    pub fn prefetch_hint(&self, core: CoreId, addr: Addr) {
        let _ = core;
        self.l3.prefetch_set(LineAddr(addr.0 >> self.line_shift));
    }

    /// Performs one memory access by `core` at time `now`.
    ///
    /// Returns the latency and serving level. The observer is consulted on
    /// LLC→memory fetches (to tag protected lines) and notified of LLC
    /// evictions.
    #[inline]
    pub fn access<O: TrafficObserver + ?Sized>(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        observer: &mut O,
    ) -> AccessResult {
        let line = LineAddr(addr.0 >> self.line_shift);
        let is_write = kind.is_write();

        // Each level is probed with a single `touch` lookup: on a hit it
        // returns the metadata and updates replacement state in one way scan,
        // on a miss it is exactly the residency check for the next level.

        // ---- L1 hit ----
        if let Some(meta) = self.l1[core.0].touch(line) {
            meta.or_dirty(is_write);
            let mut latency = self.config.l1.latency;
            // An owned copy's upgrade would be a no-op: its LLC copy is
            // already dirty with this core as the only sharer.
            if is_write && !meta.owned() {
                meta.set_owned(true);
                latency += self.write_upgrade(core, line);
            }
            self.stats.record_served(core, Level::L1, latency);
            return AccessResult {
                latency,
                served_by: Level::L1,
                prefetch_hit: false,
            };
        }
        self.access_miss(core, line, is_write, now, observer)
    }

    /// The L1-miss continuation of [`access`](Self::access), kept out of
    /// line: L2/L3/memory handling (fills, coherence, observer events) is an
    /// order of magnitude rarer than an L1 hit, and inlining it would bloat
    /// the per-access fast path in every instantiation of the run loop.
    #[inline(never)]
    fn access_miss<O: TrafficObserver + ?Sized>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        is_write: bool,
        now: Cycle,
        observer: &mut O,
    ) -> AccessResult {
        // Every fill below installs into a level this access has just
        // probed and missed, so none re-probes for residency.

        // ---- L2 hit ----
        if self.l2[core.0].touch(line).is_some() {
            self.fill_l1(core, line, is_write);
            let mut latency = self.config.l2.latency;
            if is_write {
                latency += self.write_upgrade(core, line);
            }
            self.stats.record_served(core, Level::L2, latency);
            return AccessResult {
                latency,
                served_by: Level::L2,
                prefetch_hit: false,
            };
        }

        // ---- L3 hit ----
        if let Some(meta) = self.l3.touch(line) {
            let prefetch_hit = meta.prefetched() && !meta.accessed();
            meta.set_accessed(true);
            meta.set_prefetched(false);
            let prior_sharers = meta.sharers;
            meta.sharers.insert(core);
            meta.or_dirty(is_write);
            if prefetch_hit {
                self.stats.prefetch_hits += 1;
            }
            let mut latency = self.config.l3.latency;
            if is_write {
                latency += self.invalidate_other_sharers(core, line);
            } else {
                self.disown(core, prior_sharers, line);
            }
            self.fill_l2(core, line);
            self.fill_l1(core, line, is_write);
            self.stats.record_served(core, Level::L3, latency);
            return AccessResult {
                latency,
                served_by: Level::L3,
                prefetch_hit,
            };
        }

        // ---- Memory ----
        let protect = observer.on_memory_fetch(line, now);
        let latency = self.config.l3.latency + self.dram.read();
        let meta = LineMeta::demand_fill(core, is_write, protect);
        self.fill_l3(line, meta, now, observer);
        self.fill_l2(core, line);
        self.fill_l1(core, line, is_write);
        self.stats.record_served(core, Level::Memory, latency);
        AccessResult {
            latency,
            served_by: Level::Memory,
            prefetch_hit: false,
        }
    }

    /// Inserts a monitor prefetch into the LLC (the paper's Prefetch step).
    ///
    /// If the line is already resident its protection tag is refreshed;
    /// otherwise a DRAM prefetch read fills it with
    /// [`LineMeta::prefetch_fill`] metadata (protected, not yet accessed).
    pub fn insert_prefetch<O: TrafficObserver + ?Sized>(
        &mut self,
        line: LineAddr,
        now: Cycle,
        observer: &mut O,
    ) {
        if let Some(meta) = self.l3.peek_mut(line) {
            meta.set_protected(true);
            return;
        }
        // Absent, as just probed: `fill_l3` installs without re-probing.
        self.dram.prefetch_read();
        self.fill_l3(line, LineMeta::prefetch_fill(), now, observer);
        self.stats.prefetch_fills += 1;
    }

    /// Drains an observer's due prefetches into the LLC.
    ///
    /// A no-op unless the observer's earliest pending prefetch is due. Due
    /// lines are staged in a reusable buffer (snapshot semantics: prefetches
    /// scheduled *during* insertion — e.g. by eviction notifications the
    /// inserts trigger — wait for the next drain), so steady-state draining
    /// performs no heap allocation.
    pub fn drain_prefetches<O: TrafficObserver + ?Sized>(&mut self, now: Cycle, observer: &mut O) {
        match observer.next_prefetch_due() {
            Some(due) if due <= now => {}
            _ => return,
        }
        let mut buf = std::mem::take(&mut self.prefetch_scratch);
        buf.clear();
        observer.drain_due_prefetches(now, &mut buf);
        for &line in &buf {
            self.insert_prefetch(line, now, observer);
        }
        self.prefetch_scratch = buf;
    }

    /// Fills an absent line into the LLC, handling eviction of a victim:
    /// inclusive back-invalidation of private copies, dirty writeback, and
    /// the pEvict notification to the observer.
    fn fill_l3<O: TrafficObserver + ?Sized>(
        &mut self,
        line: LineAddr,
        meta: LineMeta,
        now: Cycle,
        observer: &mut O,
    ) {
        if let Some(evicted) = self.l3.install(line, meta) {
            self.stats.llc_evictions += 1;
            let mut dirty = evicted.meta.dirty();
            // Private copies can only live in cores recorded as sharers
            // (inclusivity keeps the directory a superset of the private
            // holders), so iterate the sharer bitmap instead of all cores.
            for c in evicted.meta.sharers.iter() {
                if let Some(m) = self.l1[c.0].invalidate(evicted.line) {
                    self.stats.back_invalidations += 1;
                    dirty |= m.dirty();
                }
                if let Some(m) = self.l2[c.0].invalidate(evicted.line) {
                    self.stats.back_invalidations += 1;
                    dirty |= m.dirty();
                }
            }
            if dirty {
                self.dram.write();
                self.stats.writebacks += 1;
            }
            observer.on_llc_eviction(
                evicted.line,
                evicted.meta.protected(),
                evicted.meta.accessed(),
                now,
            );
        }
    }

    /// Fills an absent line into `core`'s L2, maintaining L1 ⊆ L2 by back-
    /// invalidating the L1 copy of any victim and propagating dirtiness down.
    fn fill_l2(&mut self, core: CoreId, line: LineAddr) {
        if let Some(evicted) = self.l2[core.0].install(line, LineMeta::default()) {
            let mut dirty = evicted.meta.dirty();
            if let Some(m) = self.l1[core.0].invalidate(evicted.line) {
                self.stats.back_invalidations += 1;
                dirty |= m.dirty();
            }
            self.demote_private_copy(core, evicted.line, dirty);
        }
    }

    /// Fills an absent line into `core`'s L1, propagating a dirty victim
    /// into L2. A write's copy is filled owned: every caller leaves a write
    /// with a dirty LLC copy whose only sharer is `core` (the L2-hit path by
    /// the write upgrade that follows).
    fn fill_l1(&mut self, core: CoreId, line: LineAddr, is_write: bool) {
        let mut meta = LineMeta::default().with_dirty(is_write);
        meta.set_owned(is_write);
        if let Some(evicted) = self.l1[core.0].install(line, meta) {
            if evicted.meta.dirty() {
                if let Some(m) = self.l2[core.0].peek_mut(evicted.line) {
                    m.set_dirty(true);
                } else {
                    // L2 copy vanished (back-invalidated between fills):
                    // fold the dirtiness into the LLC copy or write back.
                    self.demote_private_copy(core, evicted.line, true);
                }
            }
        }
    }

    /// A private copy of `line` left `core`'s caches; update the directory
    /// and propagate dirtiness to the LLC (or memory if the LLC copy is
    /// already gone).
    fn demote_private_copy(&mut self, core: CoreId, line: LineAddr, dirty: bool) {
        if let Some(m) = self.l3.peek_mut(line) {
            m.sharers.remove(core);
            m.or_dirty(dirty);
        } else if dirty {
            self.dram.write();
            self.stats.writebacks += 1;
        }
    }

    /// A read by `core` joined the sharers of `line`, which were `prior`:
    /// no other core's L1 copy is the sole sharer any more.
    fn disown(&mut self, core: CoreId, prior: SharerSet, line: LineAddr) {
        for other in prior.iter() {
            if other == core {
                continue;
            }
            if let Some(m) = self.l1[other.0].peek_mut(line) {
                m.set_owned(false);
            }
        }
    }

    /// A write by `core` must invalidate every other core's private copy
    /// (directory-based MESI upgrade). Returns the extra latency (one LLC
    /// round trip when an upgrade was needed, 0 otherwise).
    fn write_upgrade(&mut self, core: CoreId, line: LineAddr) -> Cycle {
        if let Some(meta) = self.l3.peek_mut(line) {
            meta.set_dirty(true);
            if !meta.sharers.is_sole(core) && !meta.sharers.is_empty() {
                return self.invalidate_other_sharers(core, line);
            }
            meta.sharers.insert(core);
        }
        0
    }

    /// Checks the inclusive-hierarchy invariants, returning a description of
    /// the first violation found (test/diagnostic hook):
    ///
    /// * every line in a core's L1 is also in that core's L2;
    /// * every line in a core's L2 is also in the L3;
    /// * every core recorded as a sharer of an L3 line is consistent with
    ///   the directory (private copies imply sharer bits);
    /// * an owned L1 copy's LLC copy is dirty with that core as its only
    ///   sharer.
    #[must_use]
    pub fn check_inclusion(&self) -> Option<String> {
        for core in 0..self.config.cores {
            for (line, meta) in self.l1[core].resident_lines() {
                if !self.l2[core].contains(line) {
                    return Some(format!("core{core} L1 holds {line} but L2 does not"));
                }
                if meta.owned() {
                    let owned_ok = self
                        .l3
                        .peek(line)
                        .is_some_and(|m| m.dirty() && m.sharers.is_sole(CoreId(core)));
                    if !owned_ok {
                        return Some(format!(
                            "core{core} L1 owns {line} but the LLC copy is not dirty and solely shared"
                        ));
                    }
                }
            }
            for (line, _) in self.l2[core].resident_lines() {
                if !self.l3.contains(line) {
                    return Some(format!("core{core} L2 holds {line} but L3 does not"));
                }
                let meta = self.l3.peek(line).expect("checked above");
                if !meta.sharers.contains(crate::types::CoreId(core)) {
                    return Some(format!(
                        "core{core} holds {line} privately but is not a directory sharer"
                    ));
                }
            }
        }
        None
    }

    /// Invalidates other cores' private copies of `line`; returns the extra
    /// latency cost (one LLC access when any invalidation was sent).
    fn invalidate_other_sharers(&mut self, core: CoreId, line: LineAddr) -> Cycle {
        // The sharer set is `Copy`, so snapshot it and walk the bits
        // directly — no allocation on this coherence path.
        let Some(meta) = self.l3.peek(line) else {
            return 0;
        };
        let sharers = meta.sharers;
        let mut any_other = false;
        for other in sharers.iter() {
            if other == core {
                continue;
            }
            any_other = true;
            if self.l1[other.0].invalidate(line).is_some() {
                self.stats.coherence_invalidations += 1;
            }
            if self.l2[other.0].invalidate(line).is_some() {
                self.stats.coherence_invalidations += 1;
            }
        }
        if !any_other {
            return 0;
        }
        if let Some(meta) = self.l3.peek_mut(line) {
            meta.sharers = SharerSet::only(core);
        }
        self.config.l3.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NullObserver, RecordingObserver};

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(SystemConfig::small_test())
    }

    #[test]
    fn cold_miss_goes_to_memory_then_l1_hits() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let r = h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut obs);
        assert_eq!(r.served_by, Level::Memory);
        assert_eq!(r.latency, 35 + 200);
        let r = h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 10, &mut obs);
        assert_eq!(r.served_by, Level::L1);
        assert_eq!(r.latency, 2);
    }

    #[test]
    fn same_line_different_byte_hits() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut obs);
        let r = h.access(CoreId(0), Addr(0x103f), AccessKind::Read, 1, &mut obs);
        assert_eq!(r.served_by, Level::L1);
    }

    #[test]
    fn cross_core_read_hits_llc() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x2000), AccessKind::Read, 0, &mut obs);
        let r = h.access(CoreId(1), Addr(0x2000), AccessKind::Read, 5, &mut obs);
        assert_eq!(r.served_by, Level::L3);
        assert_eq!(r.latency, 35);
        // Both cores are now sharers.
        let meta = h.llc_meta(Addr(0x2000)).expect("resident");
        assert!(meta.sharers.contains(CoreId(0)));
        assert!(meta.sharers.contains(CoreId(1)));
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x2000), AccessKind::Read, 0, &mut obs);
        h.access(CoreId(1), Addr(0x2000), AccessKind::Read, 1, &mut obs);
        assert!(h.l1_contains(CoreId(0), Addr(0x2000)));
        // Core 1 writes: core 0's private copies must be invalidated.
        h.access(CoreId(1), Addr(0x2000), AccessKind::Write, 2, &mut obs);
        assert!(!h.l1_contains(CoreId(0), Addr(0x2000)));
        assert!(h.stats().coherence_invalidations > 0);
        let meta = h.llc_meta(Addr(0x2000)).expect("resident");
        assert!(meta.sharers.is_sole(CoreId(1)));
        assert!(meta.dirty());
    }

    #[test]
    fn cross_core_read_disowns_and_next_write_still_invalidates() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let x = Addr(0x3000);
        let line = x.line(64);
        let owned = |h: &Hierarchy, core: usize| h.l1[core].peek(line).expect("resident").owned();
        h.access(CoreId(0), x, AccessKind::Write, 0, &mut obs);
        assert!(owned(&h, 0), "a memory-fill write owns its copy");
        h.access(CoreId(1), x, AccessKind::Read, 1, &mut obs);
        assert!(!owned(&h, 0), "a second sharer must clear ownership");
        assert!(!owned(&h, 1));
        assert_eq!(h.check_inclusion(), None);
        // Core 0 is no longer the sole sharer: its write hit must upgrade
        // and invalidate core 1's copies.
        let r = h.access(CoreId(0), x, AccessKind::Write, 2, &mut obs);
        assert_eq!(r.served_by, Level::L1);
        assert_eq!(r.latency, 2 + 35, "the upgrade costs an LLC round trip");
        assert!(!h.l1_contains(CoreId(1), x));
        assert!(h.stats().coherence_invalidations > 0);
        assert!(owned(&h, 0));
        assert!(h.llc_meta(x).expect("resident").sharers.is_sole(CoreId(0)));
        // Owned again: the next write hit pays no upgrade.
        let r = h.access(CoreId(0), x, AccessKind::Write, 3, &mut obs);
        assert_eq!(r.latency, 2);
        assert_eq!(h.check_inclusion(), None);
    }

    #[test]
    fn check_inclusion_rejects_an_owned_copy_of_a_shared_line() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let x = Addr(0x3000);
        h.access(CoreId(0), x, AccessKind::Read, 0, &mut obs);
        h.access(CoreId(1), x, AccessKind::Read, 1, &mut obs);
        assert_eq!(h.check_inclusion(), None);
        h.l1[0]
            .peek_mut(x.line(64))
            .expect("resident")
            .set_owned(true);
        let violation = h.check_inclusion().expect("bogus owned flag");
        assert!(violation.contains("owns"), "{violation}");
        h.l1[0]
            .peek_mut(x.line(64))
            .expect("resident")
            .set_owned(false);
        assert_eq!(h.check_inclusion(), None);
    }

    #[test]
    fn llc_eviction_back_invalidates_private_copies() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        let ways = h.llc_ways();
        let sets = h.llc_sets() as u64;
        let line_size = h.line_size();
        // Core 0 owns the target; core 1 thrashes the target's LLC set. The
        // conflict lines alias only in core 1's private caches, so core 0's
        // L1 copy survives until the LLC eviction back-invalidates it.
        let target = Addr(0);
        h.access(CoreId(0), target, AccessKind::Read, 0, &mut obs);
        assert!(h.l1_contains(CoreId(0), target));
        for i in 1..=(ways as u64) {
            let addr = Addr(i * sets * line_size); // same LLC set, different tag
            h.access(CoreId(1), addr, AccessKind::Read, i, &mut obs);
        }
        // The target must have been evicted from the LLC and, by
        // inclusivity, from core 0's L1 as well.
        assert!(!h.llc_contains(target));
        assert!(
            !h.l1_contains(CoreId(0), target),
            "back-invalidation failed"
        );
        assert!(h.stats().back_invalidations > 0);
        assert!(h.stats().llc_evictions >= 1);
        assert!(!obs.evictions.is_empty());
    }

    #[test]
    fn observer_tag_marks_line_protected() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        let line = Addr(0x4000).line(64);
        obs.tag_lines.push(line);
        h.access(CoreId(0), Addr(0x4000), AccessKind::Read, 0, &mut obs);
        let meta = h.llc_meta(Addr(0x4000)).expect("resident");
        assert!(meta.protected());
        assert!(meta.accessed(), "demand fill counts as accessed");
    }

    #[test]
    fn prefetch_fill_is_protected_and_unaccessed() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let line = Addr(0x8000).line(64);
        h.insert_prefetch(line, 0, &mut obs);
        let meta = h.llc_meta(Addr(0x8000)).expect("resident");
        assert!(meta.protected());
        assert!(!meta.accessed());
        assert!(meta.prefetched());
        assert_eq!(h.stats().prefetch_fills, 1);
        assert_eq!(h.dram().prefetch_reads(), 1);
    }

    #[test]
    fn demand_hit_on_prefetched_line_counts_prefetch_hit() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let addr = Addr(0x8000);
        h.insert_prefetch(addr.line(64), 0, &mut obs);
        let r = h.access(CoreId(0), addr, AccessKind::Read, 5, &mut obs);
        assert_eq!(r.served_by, Level::L3);
        assert!(r.prefetch_hit);
        assert_eq!(h.stats().prefetch_hits, 1);
        // Second access is an L1 hit, no more prefetch credit.
        let r = h.access(CoreId(0), addr, AccessKind::Read, 6, &mut obs);
        assert!(!r.prefetch_hit);
    }

    #[test]
    fn prefetch_of_resident_line_just_refreshes_tag() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut obs);
        h.insert_prefetch(Addr(0x1000).line(64), 1, &mut obs);
        assert_eq!(h.stats().prefetch_fills, 0);
        assert!(h.llc_meta(Addr(0x1000)).expect("resident").protected());
    }

    #[test]
    fn dirty_llc_eviction_writes_back() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let ways = h.llc_ways();
        let sets = h.llc_sets() as u64;
        let ls = h.line_size();
        h.access(CoreId(0), Addr(0), AccessKind::Write, 0, &mut obs);
        for i in 1..=(ways as u64) {
            h.access(
                CoreId(0),
                Addr(i * sets * ls),
                AccessKind::Read,
                i,
                &mut obs,
            );
        }
        assert!(!h.llc_contains(Addr(0)));
        assert!(h.stats().writebacks >= 1);
        assert!(h.dram().writes() >= 1);
    }

    #[test]
    fn eviction_notification_carries_tag_bits() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        let target_line = Addr(0).line(64);
        obs.tag_lines.push(target_line);
        h.access(CoreId(0), Addr(0), AccessKind::Read, 0, &mut obs);
        let ways = h.llc_ways();
        let sets = h.llc_sets() as u64;
        let ls = h.line_size();
        for i in 1..=(ways as u64) {
            h.access(
                CoreId(0),
                Addr(i * sets * ls),
                AccessKind::Read,
                i,
                &mut obs,
            );
        }
        let evict = obs
            .evictions
            .iter()
            .find(|(l, _, _, _)| *l == target_line)
            .expect("target must have been evicted");
        assert!(evict.1, "protected bit must survive to eviction");
        assert!(evict.2, "accessed bit must survive to eviction");
    }

    #[test]
    fn memory_fetch_reported_to_observer_once_per_miss() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        h.access(CoreId(0), Addr(0x40), AccessKind::Read, 0, &mut obs);
        h.access(CoreId(0), Addr(0x40), AccessKind::Read, 1, &mut obs);
        h.access(CoreId(1), Addr(0x40), AccessKind::Read, 2, &mut obs);
        assert_eq!(obs.fetches.len(), 1, "only the cold miss reaches memory");
    }

    #[test]
    fn stats_levels_are_consistent() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        for i in 0..100u64 {
            h.access(CoreId(0), Addr(i * 64), AccessKind::Read, i, &mut obs);
        }
        for i in 0..100u64 {
            h.access(CoreId(0), Addr(i * 64), AccessKind::Read, 100 + i, &mut obs);
        }
        let c = h.stats().core(CoreId(0));
        assert_eq!(c.l1.accesses(), 200);
        assert_eq!(c.memory_fetches, 100);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        // small_test L1: 2KB, 2-way, 64B lines -> 16 sets. Fill set 0 of L1
        // beyond its 2 ways but within L2 capacity.
        let l1_sets = 16u64;
        for i in 0..3u64 {
            h.access(
                CoreId(0),
                Addr(i * l1_sets * 64),
                AccessKind::Read,
                i,
                &mut obs,
            );
        }
        // First line fell out of L1 but stays in L2.
        let r = h.access(CoreId(0), Addr(0), AccessKind::Read, 10, &mut obs);
        assert_eq!(r.served_by, Level::L2);
    }
}
