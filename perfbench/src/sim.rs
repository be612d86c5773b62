//! What the two simulator workloads share: building systems from sources,
//! timing `System::run`, the hierarchy replay, the capture oracle, and the
//! per-layer tally of a traced pass.

use std::collections::HashMap;
use std::time::Instant;

use cache_sim::{
    Access, AccessSource, CoreId, Hierarchy, NullObserver, SimReport, System, SystemConfig,
    TrafficObserver,
};
use pipomonitor::MonitorStats;

use crate::stats::ratio;
use crate::trace::{self, Layer, ObserverCalls, TracedMonitor, TracedSource};
use crate::LayerSample;

/// Accesses per core per timed batch of the hierarchy replay.
const REPLAY_BATCH: usize = 256;

/// Builds a system with one source per core; traced sources wrap each one.
pub fn build<O: TrafficObserver>(
    config: &SystemConfig,
    observer: O,
    sources: Vec<Box<dyn AccessSource + Send>>,
    traced: bool,
    record: bool,
) -> System<O> {
    let mut system = System::new(config.clone(), observer);
    for (core, source) in sources.into_iter().enumerate() {
        let source: Box<dyn AccessSource + Send> = if traced {
            Box::new(TracedSource::new(source, core, record))
        } else {
            source
        };
        system.set_source(CoreId(core), source);
    }
    system
}

/// A finished `System::run`: its report and host time. Traced runs also
/// carry the time their child spans (refills, sampled observer calls) took.
pub struct Run {
    pub report: SimReport,
    pub ns: u64,
    pub child_ns: f64,
}

/// Runs `system` for `instructions` per core, timing only `System::run`.
pub fn run<O: TrafficObserver>(system: &mut System<O>, instructions: u64, traced: bool) -> Run {
    if traced {
        trace::begin(Layer::Run);
        let report = system.run(instructions);
        let (ns, child_ns) = trace::end(Layer::Run);
        Run {
            report,
            ns,
            child_ns,
        }
    } else {
        let started = Instant::now();
        let report = system.run(instructions);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Run {
            report,
            ns,
            child_ns: 0.0,
        }
    }
}

/// Accesses the cores executed (every access probes its L1 once).
#[must_use]
pub fn executed(report: &SimReport) -> u64 {
    report.stats.per_core.iter().map(|c| c.l1.accesses()).sum()
}

/// A report's every field, for exact comparison.
#[must_use]
pub fn fingerprint(report: &SimReport) -> String {
    format!("{report:?}")
}

/// Replays per-core access streams through a fresh hierarchy with no
/// observer, one span per batch of [`REPLAY_BATCH`] accesses of one core;
/// cores take turns batch by batch, each on its own clock.
pub fn replay(config: &SystemConfig, streams: &[Vec<Access>]) {
    let mut hierarchy = Hierarchy::new(config.clone());
    let mut clocks = vec![0u64; streams.len()];
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let mut progressed = false;
        for (core, stream) in streams.iter().enumerate() {
            let rest = &stream[cursors[core]..];
            let batch = &rest[..rest.len().min(REPLAY_BATCH)];
            if batch.is_empty() {
                continue;
            }
            progressed = true;
            let mut now = clocks[core];
            let start = Instant::now();
            for access in batch {
                now += access.think_cycles;
                now += hierarchy
                    .access(
                        CoreId(core),
                        access.addr,
                        access.kind,
                        now,
                        &mut NullObserver,
                    )
                    .latency;
            }
            let end = Instant::now();
            trace::record(Layer::Replay, start, end, batch.len() as u64);
            clocks[core] = now;
            cursors[core] += batch.len();
        }
        if !progressed {
            return;
        }
    }
}

/// Splits captures into exact (the line really was fetched more than
/// `threshold` times so far) and false-alarm ones.
#[must_use]
pub fn attribute(fetched: &[u64], threshold: u32) -> (u64, u64) {
    let mut counts: HashMap<u64, u32> = HashMap::with_capacity(fetched.len() / 2);
    let (mut exact, mut false_alarms) = (0, 0);
    for &record in fetched {
        let (line, captured) = trace::fetched_line(record);
        let count = counts.entry(line).or_insert(0);
        *count += 1;
        if captured {
            if *count > threshold {
                exact += 1;
            } else {
                false_alarms += 1;
            }
        }
    }
    (exact, false_alarms)
}

/// Checks a monitored run's bookkeeping: the monitor saw every memory fetch,
/// and the wrapper's call counts match the monitor's own counters.
pub fn monitor_consistent(report: &SimReport, monitor: &TracedMonitor) -> Result<(), String> {
    let stats = monitor.monitor.stats();
    let calls = monitor.calls;
    let fetches = report.stats.total_memory_fetches();
    if stats.fetches_observed != fetches {
        return Err(format!(
            "monitor observed {} fetches, hierarchy made {fetches}",
            stats.fetches_observed
        ));
    }
    if calls.fetch != stats.fetches_observed
        || calls.evict != report.stats.llc_evictions
        || calls.evict_protected != stats.pevicts
    {
        return Err(format!(
            "observer calls {calls:?} disagree with {stats:?} / {} LLC evictions",
            report.stats.llc_evictions
        ));
    }
    Ok(())
}

/// Per-layer work and time of one traced simulator pass.
#[derive(Default)]
pub struct Tally {
    run_ns: u64,
    self_ns: f64,
    executed: u64,
    instructions: u64,
    sim_cycles: u64,
    l1_hits: u64,
    llc_hits: u64,
    memory_fetches: u64,
    llc_evictions: u64,
    back_invalidations: u64,
    writebacks: u64,
    prefetch_fills: u64,
    prefetch_hits: u64,
    calls: ObserverCalls,
    monitor: MonitorStats,
    filter: auto_cuckoo::FilterStats,
    occupancy_sum: f64,
    monitored_runs: u64,
    exact: u64,
    false_alarms: u64,
    /// Per-cell modelled results summed over cells: overhead % and FP/Mi.
    overhead_pct_sum: f64,
    fp_per_mi_sum: f64,
    cells: u64,
    detect_latency: u64,
}

/// Layer totals read before a pass, so the pass's own share can be taken.
pub struct Mark([trace::Total; 5]);

const MARKED: [Layer; 5] = [
    Layer::Refill,
    Layer::Fetch,
    Layer::Evict,
    Layer::Drain,
    Layer::Replay,
];

/// Reads the tracer totals the tally reports per pass.
#[must_use]
pub fn mark() -> Mark {
    Mark(MARKED.map(trace::total))
}

impl Tally {
    /// Adds one finished `System::run` of any system.
    pub fn add_run(&mut self, run: &Run) {
        let stats = &run.report.stats;
        self.run_ns += run.ns;
        self.self_ns += run.ns as f64 - run.child_ns;
        self.executed += executed(&run.report);
        self.instructions += run.report.total_instructions();
        self.sim_cycles += run.report.makespan();
        self.l1_hits += stats.per_core.iter().map(|c| c.l1.hits).sum::<u64>();
        self.llc_hits += stats.per_core.iter().map(|c| c.l3.hits).sum::<u64>();
        self.memory_fetches += stats.total_memory_fetches();
        self.llc_evictions += stats.llc_evictions;
        self.back_invalidations += stats.back_invalidations;
        self.writebacks += stats.writebacks;
        self.prefetch_fills += stats.prefetch_fills;
        self.prefetch_hits += stats.prefetch_hits;
    }

    /// Adds a monitored run's monitor, after its [`add_run`](Self::add_run).
    pub fn add_monitor(&mut self, monitor: &TracedMonitor) {
        let store = monitor.monitor.pattern_store();
        let threshold = u32::from(store.security_threshold());
        let (exact, false_alarms) = attribute(&monitor.fetched, threshold);
        self.exact += exact;
        self.false_alarms += false_alarms;
        let calls = monitor.calls;
        self.calls.fetch += calls.fetch;
        self.calls.evict += calls.evict;
        self.calls.evict_protected += calls.evict_protected;
        self.calls.drain += calls.drain;
        self.monitor.absorb(monitor.monitor.stats());
        let filter = store.stats_snapshot();
        self.filter.inserts += filter.inserts;
        self.filter.merges += filter.merges;
        self.filter.kicks += filter.kicks;
        self.filter.autonomic_deletions += filter.autonomic_deletions;
        self.occupancy_sum += store.occupancy();
        self.monitored_runs += 1;
        self.detect_latency += monitor
            .first_region_capture
            .unwrap_or(monitor.region_fetches);
    }

    /// Adds one cell's modelled result: baseline vs monitored makespan and
    /// the monitored run's captures.
    pub fn add_cell(&mut self, baseline: &SimReport, monitored: &SimReport, captures: u64) {
        let slowdown = monitored.makespan() as f64 / baseline.makespan() as f64;
        self.overhead_pct_sum += (slowdown - 1.0) * 100.0;
        self.fp_per_mi_sum += ratio(
            captures as f64 * 1.0e6,
            monitored.total_instructions() as f64,
        );
        self.cells += 1;
    }

    /// The pass's per-layer metrics; `since` was taken when it started.
    #[must_use]
    pub fn sample(&self, since: &Mark) -> LayerSample {
        let now = mark();
        let delta = |i: usize| trace::Total {
            calls: now.0[i].calls - since.0[i].calls,
            ns: now.0[i].ns - since.0[i].ns,
            items: now.0[i].items - since.0[i].items,
        };
        let (refill, fetch, evict, drain, replay) =
            (delta(0), delta(1), delta(2), delta(3), delta(4));
        let mut s = LayerSample::default();
        let executed = self.executed as f64;

        s.count("workloads.accesses", refill.items as f64);
        s.count("workloads.refills", refill.calls as f64);
        s.time(
            "workloads.refill_ns_per_access",
            ratio(refill.ns as f64, refill.items as f64),
        );

        s.time(
            "system.run_ns_per_access",
            ratio(self.run_ns as f64, executed),
        );
        s.time("system.self_ns_per_access", ratio(self.self_ns, executed));
        s.count("system.instructions", self.instructions as f64);
        s.count("system.sim_cycles", self.sim_cycles as f64);

        s.time(
            "hierarchy.replay_ns_per_access",
            ratio(replay.ns as f64, replay.items as f64),
        );
        s.count(
            "hierarchy.l1_hit_ratio",
            ratio(self.l1_hits as f64, executed),
        );
        s.count("hierarchy.llc_hits", self.llc_hits as f64);
        s.count("hierarchy.memory_fetches", self.memory_fetches as f64);
        s.count("hierarchy.llc_evictions", self.llc_evictions as f64);
        s.count(
            "hierarchy.back_invalidations",
            self.back_invalidations as f64,
        );
        s.count("hierarchy.writebacks", self.writebacks as f64);
        s.count("hierarchy.prefetch_fills", self.prefetch_fills as f64);
        s.count("hierarchy.prefetch_hits", self.prefetch_hits as f64);
        s.count(
            "hierarchy.prefetch_hit_ratio",
            ratio(self.prefetch_hits as f64, self.prefetch_fills as f64),
        );

        let m = &self.monitor;
        s.count("monitor.fetch_calls", self.calls.fetch as f64);
        s.count("monitor.evict_calls", self.calls.evict as f64);
        s.count("monitor.drain_calls", self.calls.drain as f64);
        s.time(
            "monitor.fetch_ns",
            ratio(fetch.ns as f64, fetch.calls as f64),
        );
        s.time(
            "monitor.evict_ns",
            ratio(evict.ns as f64, evict.calls as f64),
        );
        s.time(
            "monitor.drain_ns",
            ratio(drain.ns as f64, drain.calls as f64),
        );
        s.count("monitor.captures", m.captures as f64);
        s.count(
            "monitor.capture_ratio",
            ratio(m.captures as f64, m.fetches_observed as f64),
        );
        s.count("monitor.pevicts", m.pevicts as f64);
        s.count(
            "monitor.prefetches_scheduled",
            m.prefetches_scheduled as f64,
        );
        s.count(
            "monitor.prefetches_suppressed",
            m.prefetches_suppressed as f64,
        );
        let cells = self.cells as f64;
        s.count(
            "monitor.perf_overhead_pct",
            ratio(self.overhead_pct_sum, cells),
        );
        s.count("monitor.fp_per_mi", ratio(self.fp_per_mi_sum, cells));
        s.count(
            "monitor.detect_latency_fetches",
            ratio(self.detect_latency as f64, self.monitored_runs as f64),
        );

        // The monitors run the paper's Auto-Cuckoo filter.
        let f = &self.filter;
        s.count("filter.inserts.auto", f.inserts as f64);
        s.count("filter.merges.auto", f.merges as f64);
        s.count("filter.kicks.auto", f.kicks as f64);
        s.count("filter.kicks_per_insert.auto", f.kicks_per_insert());
        s.count(
            "filter.autonomic_deletions.auto",
            f.autonomic_deletions as f64,
        );
        s.count(
            "filter.occupancy.auto",
            ratio(self.occupancy_sum, self.monitored_runs as f64),
        );
        s.count("filter.false_alarms.auto", self.false_alarms as f64);
        s.count(
            "filter.exact_capture_ratio.auto",
            ratio(self.exact as f64, (self.exact + self.false_alarms) as f64),
        );
        s
    }
}
