//! The PiPoMonitor itself: filter queries on memory fetches, `pEvict`
//! handling, and prefetch scheduling. Implements
//! [`cache_sim::TrafficObserver`] so it plugs into the memory controller of
//! the simulated system.

use auto_cuckoo::{build_store, PatternStore};
use cache_sim::{Cycle, LineAddr, TrafficObserver};

use crate::config::{BuildMonitorError, MonitorConfig};
use crate::prefetch::PrefetchQueue;

/// Cumulative monitor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Demand fetches observed at the memory controller.
    pub fetches_observed: u64,
    /// Fetches whose filter response reached `secThr` (lines tagged as
    /// Ping-Pong on their way into the LLC).
    pub captures: u64,
    /// `pEvict` messages received (evictions of tagged lines).
    pub pevicts: u64,
    /// Prefetches actually scheduled (tagged *and* accessed evictions).
    pub prefetches_scheduled: u64,
    /// Tagged-but-never-accessed evictions: prefetch suppressed to avoid the
    /// endless-prefetch loop (paper §IV, last paragraph).
    pub prefetches_suppressed: u64,
}

impl MonitorStats {
    /// Adds another statistics block into this one.
    ///
    /// Every counter is a plain sum, so combining deltas from independent
    /// monitor instances (e.g. harness aggregation across runs) is
    /// associative and commutative: any merge order produces identical
    /// totals. The property test in `tests/observer_merge.rs` pins this
    /// contract for aggregating callers.
    pub fn absorb(&mut self, other: &MonitorStats) {
        self.fetches_observed += other.fetches_observed;
        self.captures += other.captures;
        self.pevicts += other.pevicts;
        self.prefetches_scheduled += other.prefetches_scheduled;
        self.prefetches_suppressed += other.prefetches_suppressed;
    }
}

/// The monitor deployed in the memory controller (paper Fig. 2).
///
/// Use it as the observer of a [`cache_sim::System`] (or pass it to
/// [`cache_sim::Hierarchy::access`] directly for fine-grained attack
/// experiments).
///
/// # Examples
///
/// Detecting a Ping-Pong pattern at the traffic level:
///
/// ```
/// use cache_sim::{LineAddr, TrafficObserver};
/// use pipomonitor::{MonitorConfig, PiPoMonitor};
///
/// # fn main() -> Result<(), pipomonitor::BuildMonitorError> {
/// let mut monitor = PiPoMonitor::new(MonitorConfig::paper_default())?;
/// let line = LineAddr(0x99);
/// // The same line fetched from memory four times: insert + 3 re-accesses
/// // reaches secThr = 3, so the fourth fetch tags the line.
/// assert!(!monitor.on_memory_fetch(line, 0));
/// assert!(!monitor.on_memory_fetch(line, 100));
/// assert!(!monitor.on_memory_fetch(line, 200));
/// assert!(monitor.on_memory_fetch(line, 300));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PiPoMonitor {
    config: MonitorConfig,
    store: Box<dyn PatternStore>,
    queue: PrefetchQueue,
    stats: MonitorStats,
}

impl PiPoMonitor {
    /// Builds a monitor.
    ///
    /// # Errors
    ///
    /// Returns [`BuildMonitorError`] when the filter parameters are invalid.
    pub fn new(config: MonitorConfig) -> Result<Self, BuildMonitorError> {
        let store = build_store(config.backend, config.filter)?;
        Ok(Self {
            queue: PrefetchQueue::new(config.prefetch_delay),
            store,
            config,
            stats: MonitorStats::default(),
        })
    }

    /// The monitor configuration.
    #[must_use]
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Monitor statistics.
    #[must_use]
    pub fn stats(&self) -> &MonitorStats {
        &self.stats
    }

    /// The embedded pattern store (read access for experiments), whatever
    /// backend [`MonitorConfig::backend`] selected.
    #[must_use]
    pub fn pattern_store(&self) -> &dyn PatternStore {
        self.store.as_ref()
    }

    /// Pending prefetch queue (read access for experiments).
    #[must_use]
    pub fn queue(&self) -> &PrefetchQueue {
        &self.queue
    }

    /// False positives per million instructions, given the run's instruction
    /// count. The paper counts *every* capture as a false positive in benign
    /// workloads (Fig. 8(b)).
    #[must_use]
    pub fn false_positives_per_mi(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.stats.captures as f64 * 1.0e6 / instructions as f64
        }
    }
}

impl TrafficObserver for PiPoMonitor {
    // Observer events fire on memory fetches and LLC evictions — a few
    // percent of accesses — but their inlined bodies (cuckoo query, queue
    // maintenance) would bloat every monitored instantiation of the
    // simulation hot loop. Keeping them out of line costs one call on the
    // rare path and keeps the per-access path compact.
    #[inline(never)]
    fn on_memory_fetch(&mut self, line: LineAddr, _now: Cycle) -> bool {
        self.stats.fetches_observed += 1;
        let outcome = self.store.query(line.0);
        if outcome.captured {
            self.stats.captures += 1;
        }
        outcome.captured
    }

    #[inline(never)]
    fn on_llc_eviction(&mut self, line: LineAddr, protected: bool, accessed: bool, now: Cycle) {
        if !protected {
            return;
        }
        self.stats.pevicts += 1;
        if accessed {
            self.queue.schedule(line, now);
            self.stats.prefetches_scheduled += 1;
        } else {
            // Tagged line evicted without ever being re-accessed: do not
            // prefetch again, ending the protection cycle for this line.
            self.stats.prefetches_suppressed += 1;
        }
    }

    fn next_prefetch_due(&self) -> Option<Cycle> {
        self.queue.next_due()
    }

    fn drain_due_prefetches(&mut self, now: Cycle, out: &mut Vec<LineAddr>) {
        self.queue.drain_due_into(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, Addr, CoreId, Hierarchy, SystemConfig};

    fn monitor() -> PiPoMonitor {
        PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config")
    }

    #[test]
    fn capture_after_threshold_reaccesses() {
        let mut m = monitor();
        let line = LineAddr(42);
        assert!(!m.on_memory_fetch(line, 0));
        assert!(!m.on_memory_fetch(line, 1));
        assert!(!m.on_memory_fetch(line, 2));
        assert!(m.on_memory_fetch(line, 3));
        assert_eq!(m.stats().captures, 1);
        assert_eq!(m.stats().fetches_observed, 4);
    }

    #[test]
    fn distinct_lines_do_not_capture() {
        let mut m = monitor();
        for i in 0..1000u64 {
            assert!(!m.on_memory_fetch(LineAddr(i * 17 + 3), i));
        }
        // Fingerprint collisions could in principle capture, but 1000 random
        // lines in an 8192-entry filter with f=12 make it overwhelmingly
        // unlikely; the paper's ε is 0.004 per lookup.
        assert_eq!(m.stats().captures, 0);
    }

    fn due(m: &mut PiPoMonitor, now: Cycle) -> Vec<LineAddr> {
        let mut out = Vec::new();
        m.drain_due_prefetches(now, &mut out);
        out
    }

    #[test]
    fn pevict_of_accessed_line_schedules_prefetch() {
        let mut m = monitor();
        let line = LineAddr(7);
        m.on_llc_eviction(line, true, true, 100);
        assert_eq!(m.stats().prefetches_scheduled, 1);
        assert_eq!(m.next_prefetch_due(), Some(150));
        assert!(due(&mut m, 100 + 49).is_empty());
        assert_eq!(due(&mut m, 100 + 50), vec![line]);
        assert_eq!(m.next_prefetch_due(), None);
    }

    #[test]
    fn pevict_of_unaccessed_line_is_suppressed() {
        let mut m = monitor();
        m.on_llc_eviction(LineAddr(7), true, false, 100);
        assert_eq!(m.stats().prefetches_scheduled, 0);
        assert_eq!(m.stats().prefetches_suppressed, 1);
        assert_eq!(m.next_prefetch_due(), None);
        assert!(due(&mut m, 10_000).is_empty());
    }

    #[test]
    fn unprotected_evictions_are_ignored() {
        let mut m = monitor();
        m.on_llc_eviction(LineAddr(7), false, true, 100);
        assert_eq!(m.stats().pevicts, 0);
        assert!(due(&mut m, 10_000).is_empty());
    }

    #[test]
    fn false_positive_rate_helper() {
        let mut m = monitor();
        for _ in 0..4 {
            m.on_memory_fetch(LineAddr(1), 0);
        }
        assert!((m.false_positives_per_mi(1_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(m.false_positives_per_mi(0), 0.0);
    }

    #[test]
    fn every_backend_captures_the_pattern() {
        for backend in auto_cuckoo::FilterBackend::ALL {
            let cfg = MonitorConfig::paper_default().with_backend(backend);
            let mut m = PiPoMonitor::new(cfg).expect("valid config");
            let line = LineAddr(42);
            assert!(!m.on_memory_fetch(line, 0), "{backend}: premature capture");
            assert!(!m.on_memory_fetch(line, 1), "{backend}: premature capture");
            assert!(!m.on_memory_fetch(line, 2), "{backend}: premature capture");
            assert!(m.on_memory_fetch(line, 3), "{backend}: missed capture");
            assert_eq!(m.pattern_store().backend(), backend);
            assert!(m.pattern_store().contains(42));
        }
    }

    /// End-to-end: a line ping-ponging between LLC and memory gets tagged,
    /// and its eviction is answered with a prefetch that restores it.
    #[test]
    fn end_to_end_protection_cycle() {
        let mut h = Hierarchy::new(SystemConfig::small_test());
        let mut m = monitor();
        let victim = Addr(0);
        let sets = h.llc_sets() as u64;
        let ls = h.line_size();
        let ways = h.llc_ways() as u64;

        // Repeatedly: victim touches its line, attacker core blasts the set.
        for round in 0..6u64 {
            let t = round * 10_000;
            h.access(CoreId(0), victim, AccessKind::Read, t, &mut m);
            for i in 1..=ways {
                h.access(
                    CoreId(1),
                    Addr((round * ways + i) * sets * ls),
                    AccessKind::Read,
                    t + i,
                    &mut m,
                );
            }
            // Drain any due prefetches before the next round.
            h.drain_prefetches(t + 9_000, &mut m);
        }
        assert!(
            m.stats().captures > 0,
            "ping-pong pattern must be captured: {:?}",
            m.stats()
        );
        assert!(m.stats().prefetches_scheduled > 0);
        // After the last drain, the victim line should be back in the LLC.
        assert!(
            h.llc_contains(victim),
            "prefetch must restore the victim line"
        );
    }
}
