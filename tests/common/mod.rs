//! Shared helpers for the run-comparison suites.
//!
//! `tests/workload_statistics.rs` compares runs (reruns, live vs replayed
//! streams) through this one fingerprint, so a counter added to
//! `SimReport`/`HierarchyStats` widens every comparison at once instead of
//! leaving a hand-kept field list to silently narrow.

use cache_sim::SimReport;

/// Every observable of a run, flattened for exact comparison.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub completion_cycles: Vec<u64>,
    pub instructions: Vec<u64>,
    pub llc_evictions: u64,
    pub back_invalidations: u64,
    pub coherence_invalidations: u64,
    pub writebacks: u64,
    pub prefetch_fills: u64,
    pub prefetch_hits: u64,
    pub memory_fetches: Vec<u64>,
    pub l1_hits: Vec<u64>,
    pub l2_hits: Vec<u64>,
    pub l3_hits: Vec<u64>,
    pub stall_cycles: Vec<u64>,
    pub dram_reads: u64,
    pub dram_prefetch_reads: u64,
    pub dram_writes: u64,
}

/// Flattens a report into a [`Fingerprint`].
pub fn fingerprint(report: &SimReport) -> Fingerprint {
    Fingerprint {
        completion_cycles: report.completion_cycles.clone(),
        instructions: report.instructions.clone(),
        llc_evictions: report.stats.llc_evictions,
        back_invalidations: report.stats.back_invalidations,
        coherence_invalidations: report.stats.coherence_invalidations,
        writebacks: report.stats.writebacks,
        prefetch_fills: report.stats.prefetch_fills,
        prefetch_hits: report.stats.prefetch_hits,
        memory_fetches: report
            .stats
            .per_core
            .iter()
            .map(|c| c.memory_fetches)
            .collect(),
        l1_hits: report.stats.per_core.iter().map(|c| c.l1.hits).collect(),
        l2_hits: report.stats.per_core.iter().map(|c| c.l2.hits).collect(),
        l3_hits: report.stats.per_core.iter().map(|c| c.l3.hits).collect(),
        stall_cycles: report
            .stats
            .per_core
            .iter()
            .map(|c| c.stall_cycles)
            .collect(),
        dram_reads: report.dram_reads,
        dram_prefetch_reads: report.dram_prefetch_reads,
        dram_writes: report.dram_writes,
    }
}
