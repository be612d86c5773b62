//! Property test of the monitor-statistics merge: harness code sums
//! [`MonitorStats`] across independent runs with [`MonitorStats::absorb`],
//! and combining them in *any* order must yield identical totals.

use cache_sim::{LineAddr, TrafficObserver};
use pipomonitor::{MonitorConfig, MonitorStats, PiPoMonitor};
use proptest::prelude::*;

/// Deterministically permutes indices `0..n` from a seed (Fisher–Yates with
/// a SplitMix64 step).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    /// Absorbing monitor statistics deltas in any order yields identical
    /// monitor/prefetch totals. The deltas come from real [`PiPoMonitor`]
    /// instances fed disjoint slices of one event stream.
    #[test]
    fn monitor_stats_merge_is_order_insensitive(
        lines in prop::collection::vec((0u64..64, any::<bool>(), any::<bool>()), 1..120),
        parts in 1usize..7,
        shuffle_seed in any::<u64>(),
    ) {
        // Partition the event stream round-robin across the monitors.
        let mut monitors: Vec<PiPoMonitor> = (0..parts)
            .map(|_| PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config"))
            .collect();
        for (i, &(line, protected, accessed)) in lines.iter().enumerate() {
            let m = &mut monitors[i % parts];
            let now = i as u64 * 10;
            m.on_memory_fetch(LineAddr(line), now);
            m.on_llc_eviction(LineAddr(line), protected, accessed, now);
        }
        let deltas: Vec<MonitorStats> = monitors.iter().map(|m| *m.stats()).collect();
        let mut in_order = MonitorStats::default();
        for delta in &deltas {
            in_order.absorb(delta);
        }
        let mut shuffled = MonitorStats::default();
        for &i in &permutation(parts, shuffle_seed) {
            shuffled.absorb(&deltas[i]);
        }
        prop_assert_eq!(in_order, shuffled);
        // And the totals really are the stream totals.
        prop_assert_eq!(in_order.fetches_observed, lines.len() as u64);
        let pevicts: u64 = lines.iter().filter(|&&(_, p, _)| p).count() as u64;
        prop_assert_eq!(in_order.pevicts, pevicts);
    }

}
