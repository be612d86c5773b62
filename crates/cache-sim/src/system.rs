//! The multi-core system: cores + hierarchy + memory-controller observer.
//!
//! # Scheduling
//!
//! [`System::run`] is event-driven: live cores sit in a binary min-heap keyed
//! by `(local clock, core index)`, and the earliest core is popped and
//! stepped. While the popped core remains strictly earliest it keeps
//! stepping without touching the heap (the common case — cores drift apart
//! in time), so scheduler cost is amortized far below one heap operation per
//! access. Prefetch draining is likewise event-driven: the observer is asked
//! for its earliest pending release time (a static call on the concrete
//! observer type) and drained only when that time has arrived, instead of
//! being polled before every step.
//!
//! The schedule this produces is identical to the previous linear min-scan
//! (ties broken toward the lowest core index), which
//! `tests/scheduler_regression.rs` pins bit-exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

use crate::cache::Cache;
use crate::core::{AccessSource, Core};
use crate::epoch::{self, EpochScratch, EpochTelemetry, EpochWindow, ShardSpec, ShardTask};
use crate::hierarchy::Hierarchy;
use crate::observer::TrafficObserver;
use crate::pool::WorkerPool;
use crate::stats::HierarchyStats;
use crate::types::{CoreId, Cycle};

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-core completion time (local clock when the core finished its
    /// instruction quota or exhausted its source).
    pub completion_cycles: Vec<Cycle>,
    /// Per-core instructions retired.
    pub instructions: Vec<u64>,
    /// Hierarchy statistics at the end of the run.
    pub stats: HierarchyStats,
    /// Total DRAM demand reads.
    pub dram_reads: u64,
    /// Total DRAM prefetch reads.
    pub dram_prefetch_reads: u64,
    /// Total DRAM writebacks.
    pub dram_writes: u64,
}

impl SimReport {
    /// Overall execution time: the slowest core's completion time.
    #[must_use]
    pub fn makespan(&self) -> Cycle {
        self.completion_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Instructions per cycle of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn ipc(&self, core: CoreId) -> f64 {
        let cycles = self.completion_cycles[core.0];
        if cycles == 0 {
            0.0
        } else {
            self.instructions[core.0] as f64 / cycles as f64
        }
    }

    /// Total instructions retired across all cores.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }
}

/// A complete simulated machine.
///
/// Generic over the observer so callers keep typed access to their monitor
/// (e.g. PiPoMonitor statistics) after the run.
///
/// # Examples
///
/// ```
/// use cache_sim::{Access, Addr, NullObserver, System, SystemConfig};
///
/// let mut addr = 0u64;
/// let stream = move || {
///     addr += 64;
///     Some(Access::read(Addr(addr)).after(3))
/// };
/// let mut system = System::new(SystemConfig::small_test(), NullObserver);
/// system.set_source(cache_sim::CoreId(0), Box::new(stream));
/// let report = system.run(10_000);
/// assert!(report.makespan() > 0);
/// ```
#[derive(Debug)]
pub struct System<O: TrafficObserver> {
    hierarchy: Hierarchy,
    cores: Vec<Core>,
    observer: O,
    /// Reusable scheduler heap of `(next event time, core index)`; kept
    /// across runs so repeated [`run`](Self::run) calls do not reallocate.
    schedule: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Execution counters of the last [`run_sharded`](Self::run_sharded)
    /// call; `None` after a plain [`run`](Self::run).
    telemetry: Option<EpochTelemetry>,
    /// All pooled epoch-parallel state (shard logs, tapes, backups,
    /// speculation LLC copies, verify set images, annotations), reshaped
    /// only when the `(cores, shards)` layout changes and reused otherwise
    /// — steady-state epochs allocate nothing.
    scratch: EpochScratch,
    /// Persistent worker threads for the speculate and verify phases,
    /// created on the first sharded run and grown if a later run asks for
    /// more shards.
    pool: Option<WorkerPool>,
    /// Pooled observer snapshot: the commit walk is the only epoch step
    /// that mutates shared state before the epoch is fully committed (a
    /// prefetch it schedules may fall due inside the window), so the
    /// observer is `clone_from`'d here first and swapped back on that late
    /// rollback.
    observer_backup: Option<O>,
}

/// Core-count ceiling for the linear-scan scheduler; larger machines use
/// the binary heap ([`System::run_window_heap`]).
const SCAN_CORES: usize = 8;

/// Low bits of a packed scan key holding the core index (supports
/// [`SCAN_CORES`] ≤ 16). The time component occupies the remaining 60 bits;
/// the scan path is only entered while every core clock fits them (2^60
/// cycles — decades of simulated time), so the packing never wraps.
const KEY_IDX_BITS: u32 = 4;

/// Smallest and second-smallest of the two keys, branchlessly.
#[inline]
fn sort2(a: u64, b: u64) -> (u64, u64) {
    (a.min(b), a.max(b))
}

/// Smallest and second-smallest of the four keys, branchlessly: the runner-up
/// is the smaller of "larger pair-minimum" and "smaller pair-maximum".
#[inline]
fn min2_of4(k: &[u64]) -> (u64, u64) {
    let (a, b) = sort2(k[0], k[1]);
    let (c, d) = sort2(k[2], k[3]);
    (a.min(c), a.max(c).min(b.min(d)))
}

/// Smallest and second-smallest of the eight packed scan keys as a tournament
/// of `min`/`max` pairs (conditional moves, no data-dependent branches).
/// Parked slots hold `u64::MAX` and lose every match; live keys are unique
/// (the low bits carry the core index), so ties only occur among sentinels.
#[inline]
fn min_and_runner_up(keys: &[u64; SCAN_CORES]) -> (u64, u64) {
    let (ma, sa) = min2_of4(&keys[..4]);
    let (mb, sb) = min2_of4(&keys[4..]);
    let min = ma.min(mb);
    let second = if ma < mb { sa.min(mb) } else { sb.min(ma) };
    (min, second)
}

/// A source that immediately reports exhaustion (default for cores without
/// an assigned workload).
struct EmptySource;

impl AccessSource for EmptySource {
    fn next_access(&mut self) -> Option<crate::core::Access> {
        None
    }
}

impl<O: TrafficObserver> System<O> {
    /// Builds a system with idle cores; assign workloads with
    /// [`set_source`](Self::set_source).
    #[must_use]
    pub fn new(config: crate::config::SystemConfig, observer: O) -> Self {
        let cores: Vec<Core> = (0..config.cores)
            .map(|i| Core::new(CoreId(i), Box::new(EmptySource)))
            .collect();
        let schedule = BinaryHeap::with_capacity(cores.len());
        Self {
            hierarchy: Hierarchy::new(config),
            cores,
            observer,
            schedule,
            telemetry: None,
            scratch: EpochScratch::new(),
            pool: None,
            observer_backup: None,
        }
    }

    /// Assigns a workload to a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_source(&mut self, core: CoreId, source: Box<dyn AccessSource + Send>) {
        self.cores[core.0] = Core::new(core, source);
    }

    /// The underlying hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The memory-controller observer (e.g. the PiPoMonitor instance).
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Runs until every core has retired `instructions_per_core` instructions
    /// (or exhausted its source). Cores interleave in local-time order, which
    /// approximates concurrent execution on a shared hierarchy.
    ///
    /// Steady state performs no heap allocation per simulated access: the
    /// scheduler heap, the observer's prefetch queue, and the drain buffer
    /// are all reused across steps.
    pub fn run(&mut self, instructions_per_core: u64) -> SimReport {
        self.telemetry = None;
        self.run_window(instructions_per_core, Cycle::MAX);
        self.finish_run()
    }

    /// Executes every step whose start time falls before `t_end` (pass
    /// [`Cycle::MAX`] for an unbounded run). This is the sequential engine
    /// proper; [`run`](Self::run) is one unbounded window and
    /// [`run_sharded`](Self::run_sharded) re-executes rolled-back or
    /// prefetch-gated epochs through bounded windows. Because the scheduler
    /// orders steps globally by `(start time, core index)`, a run chopped
    /// into windows executes the exact step sequence of an unbounded run.
    fn run_window(&mut self, instructions_per_core: u64, t_end: Cycle) {
        // Small machines (the paper's 4-core configuration and most tests)
        // schedule through a branch-light linear scan over packed keys
        // instead of the binary heap: finding the minimum of ≤ 8 integers
        // is a handful of conditional moves, where every heap pop/push is a
        // chain of data-dependent compares and swaps that the branch
        // predictor loses on. Both paths produce the identical
        // `(time, core index)` step order.
        if self.cores.len() <= SCAN_CORES
            && self
                .cores
                .iter()
                .all(|c| c.now() < Cycle::MAX >> KEY_IDX_BITS)
        {
            self.run_window_scan(instructions_per_core, t_end);
        } else {
            self.run_window_heap(instructions_per_core, t_end);
        }
    }

    /// Linear-scan scheduler for ≤ [`SCAN_CORES`] cores. Each live core's
    /// next event is packed as `(time << KEY_IDX_BITS) | index` — an
    /// order-preserving encoding of the `(time, index)` schedule key — and
    /// retired cores park at `u64::MAX`. One pass computes the minimum and
    /// the runner-up; the minimum core then streaks until its key passes
    /// the runner-up, exactly like the heap path.
    fn run_window_scan(&mut self, instructions_per_core: u64, t_end: Cycle) {
        let mut keys = [u64::MAX; SCAN_CORES];
        for (idx, core) in self.cores.iter().enumerate() {
            if !core.is_exhausted() && core.retired() < instructions_per_core && core.now() < t_end
            {
                keys[idx] = (core.now() << KEY_IDX_BITS) | idx as u64;
            }
        }
        let small = self.cores.len() <= 4;
        let mut due = self.observer.next_prefetch_due();
        let mut evictions_seen = self.hierarchy.stats().llc_evictions;
        loop {
            // Tournament min + runner-up over the fixed key array (parked
            // slots are `u64::MAX` and lose every match). A tree of
            // `min`/`max` pairs compiles to conditional moves with ~3 levels
            // of dependency — the interleaved step order makes the "is this
            // key the new minimum?" branch inherently unpredictable, and a
            // branchy scan pays a misprediction on most iterations. Machines
            // of ≤ 4 cores (the paper configuration) run the half-width
            // network; the `small` branch itself is loop-invariant and
            // perfectly predicted.
            let (min, second) = if small {
                min2_of4(&keys[..4])
            } else {
                min_and_runner_up(&keys)
            };
            if min == u64::MAX {
                return;
            }
            let idx = (min & ((1 << KEY_IDX_BITS) - 1)) as usize;
            // Borrow the streaking core once (field-level split with
            // `hierarchy`/`observer`): the streak loop then runs without
            // re-indexing `self.cores` on every step. The first iteration's
            // clock is recovered from the packed key instead of reloaded.
            let core = &mut self.cores[idx];
            let mut now = min >> KEY_IDX_BITS;
            loop {
                if now >= t_end {
                    keys[idx] = u64::MAX;
                    break;
                }
                // The observer's earliest due time only moves when an LLC
                // eviction schedules a prefetch or a drain consumes one, so
                // the cached value is refreshed on those events instead of
                // re-queried every step (`llc_evictions` advances exactly
                // once per eviction notification).
                if due.is_some_and(|d| d <= now) {
                    self.hierarchy.drain_prefetches(now, &mut self.observer);
                    due = self.observer.next_prefetch_due();
                    evictions_seen = self.hierarchy.stats().llc_evictions;
                }
                if !core.step(&mut self.hierarchy, &mut self.observer) {
                    keys[idx] = u64::MAX;
                    break;
                }
                let evictions = self.hierarchy.stats().llc_evictions;
                if evictions != evictions_seen {
                    evictions_seen = evictions;
                    due = self.observer.next_prefetch_due();
                }
                if core.retired() >= instructions_per_core {
                    keys[idx] = u64::MAX;
                    break;
                }
                now = core.now();
                let key = (now << KEY_IDX_BITS) | idx as u64;
                if key >= second {
                    keys[idx] = key;
                    break;
                }
            }
        }
    }

    /// Binary-heap scheduler (any core count).
    fn run_window_heap(&mut self, instructions_per_core: u64, t_end: Cycle) {
        self.schedule.clear();
        for (idx, core) in self.cores.iter().enumerate() {
            if !core.is_exhausted() && core.retired() < instructions_per_core && core.now() < t_end
            {
                self.schedule.push(Reverse((core.now(), idx)));
            }
        }
        while let Some(Reverse((_, idx))) = self.schedule.pop() {
            // Warm the host cache for the set the popped core is about to
            // probe (read-only hint; cores pre-draw accesses in batches, so
            // the next address is usually already known). Issued once per
            // heap pop, not per step — the hint pays for the cold resume
            // after other cores ran, while consecutive steps of one core
            // keep the host cache warm on their own.
            if let Some(addr) = self.cores[idx].peek_addr() {
                self.hierarchy.prefetch_hint(CoreId(idx), addr);
            }
            // Step the popped core for as long as it stays the globally
            // earliest `(time, index)` event, draining due prefetches at the
            // core's clock before each step (exactly the schedule the linear
            // min-scan produced, minus the per-step scan).
            loop {
                let now = self.cores[idx].now();
                if now >= t_end {
                    break; // The core's next step belongs to a later window.
                }
                if self
                    .observer
                    .next_prefetch_due()
                    .is_some_and(|due| due <= now)
                {
                    self.hierarchy.drain_prefetches(now, &mut self.observer);
                }
                if !self.cores[idx].step(&mut self.hierarchy, &mut self.observer) {
                    break; // Source exhausted; the core leaves the schedule.
                }
                if self.cores[idx].retired() >= instructions_per_core {
                    break; // Quota reached.
                }
                let after = self.cores[idx].now();
                if let Some(&Reverse(next)) = self.schedule.peek() {
                    if (after, idx) >= next {
                        self.schedule.push(Reverse((after, idx)));
                        break;
                    }
                }
            }
        }
    }

    /// Flushes pending prefetches and assembles the report (shared tail of
    /// [`run`](Self::run) and [`run_sharded`](Self::run_sharded)).
    fn finish_run(&mut self) -> SimReport {
        let end = self.cores.iter().map(Core::now).max().unwrap_or(0);
        self.hierarchy.drain_prefetches(end, &mut self.observer);
        SimReport {
            completion_cycles: self.cores.iter().map(Core::now).collect(),
            instructions: self.cores.iter().map(Core::retired).collect(),
            stats: self.hierarchy.stats().clone(),
            dram_reads: self.hierarchy.dram().reads(),
            dram_prefetch_reads: self.hierarchy.dram().prefetch_reads(),
            dram_writes: self.hierarchy.dram().writes(),
        }
    }

    /// Telemetry of the last [`run_sharded`](Self::run_sharded) call: how
    /// many epochs ran in parallel, committed, or rolled back. `None` after
    /// a plain [`run`](Self::run).
    #[must_use]
    pub fn epoch_telemetry(&self) -> Option<&EpochTelemetry> {
        self.telemetry.as_ref()
    }
}

/// One shard's lock-protected work cell for a speculate dispatch: the pool
/// workers each lock exactly their own cell, which hands them `&mut` access
/// to the shard's disjoint core/cache slices without unsafe code or
/// per-epoch allocation (the cells live in a stack array).
struct SpecCell<'a> {
    task: ShardTask<'a>,
    scratch: &'a mut epoch::ShardScratch,
}

/// Nanoseconds elapsed since `since` (saturating, for telemetry).
fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<O: TrafficObserver + Clone> System<O> {
    /// Like [`run`](Self::run), but advances shards of cores on parallel
    /// worker threads using the optimistic epoch protocol described in the
    /// [`epoch`] module: a parallel core-partitioned speculate phase, a
    /// parallel set-partitioned read-only verify phase, and a serial
    /// mutation-only commit phase.
    ///
    /// The result is **bit-identical** to [`run`](Self::run) for any shard
    /// count and epoch length: every parallel epoch is verified against the
    /// authoritative sequential semantics of its LLC operations and rolled
    /// back to sequential re-execution on any divergence. The observer must
    /// be `Clone` so it can be snapshotted across the commit walk.
    ///
    /// Steady-state epochs perform no heap allocation: all per-epoch state
    /// lives in pooled scratch owned by the system, and the worker threads
    /// persist across epochs (pinned by `tests/no_alloc_hot_path.rs`).
    /// Inspect [`epoch_telemetry`](Self::epoch_telemetry) afterwards to see
    /// how much of the run actually committed in parallel and where the
    /// wall-clock went.
    pub fn run_sharded(&mut self, instructions_per_core: u64, spec: ShardSpec) -> SimReport {
        let shards = spec.shards.clamp(1, self.cores.len().max(1));
        let mut window = EpochWindow::new(spec.epoch_cycles);
        let mut telemetry = EpochTelemetry::default();
        // One shard is the sequential engine; more than 64 cores would
        // overflow the shard membership masks (the sharer bitmap caps the
        // whole simulator at 64 cores anyway).
        if shards <= 1 || self.cores.len() > 64 {
            self.run_window(instructions_per_core, Cycle::MAX);
            self.telemetry = Some(telemetry);
            return self.finish_run();
        }
        self.scratch.prepare(&self.hierarchy, shards);
        if self.pool.as_ref().is_none_or(|p| p.capacity() < shards) {
            self.pool = Some(WorkerPool::new(shards));
        }
        // Non-LRU replacement cannot be verified set-partitioned (tree-PLRU
        // could but is not worth a third code path; random replacement draws
        // victims from one global generator) — those policies take the
        // legacy serial verify-while-mutating replay.
        let set_parallel = self.hierarchy.l3.is_lru();
        loop {
            let cur = self
                .cores
                .iter()
                .filter(|c| !c.is_exhausted() && c.retired() < instructions_per_core)
                .map(Core::now)
                .min();
            let Some(cur) = cur else { break };
            let t_end = cur.saturating_add(window.current());
            if t_end <= cur {
                // Clock saturated; no window can make progress in parallel.
                self.run_window(instructions_per_core, Cycle::MAX);
                break;
            }
            if self
                .observer
                .next_prefetch_due()
                .is_some_and(|due| due < t_end)
            {
                // A monitor prefetch lands inside this window: its drain
                // point depends on the global step schedule, so run the
                // window sequentially.
                let t0 = Instant::now();
                self.run_window(instructions_per_core, t_end);
                telemetry.sequential_ns += elapsed_ns(t0);
                telemetry.sequential_windows += 1;
                continue;
            }
            telemetry.parallel_epochs += 1;
            let epoch_id = self.scratch.begin_epoch();
            let t0 = Instant::now();
            self.speculate_epoch(shards, instructions_per_core, t_end);
            telemetry.speculate_ns += elapsed_ns(t0);
            if self.scratch.shards.iter().any(|s| s.conflict) {
                self.rollback_epoch(&mut telemetry, instructions_per_core, t_end, &mut window);
                continue;
            }
            let committed = if set_parallel {
                self.try_commit_set_parallel(shards, epoch_id, t_end, &mut telemetry)
            } else {
                self.try_commit_legacy(t_end, &mut telemetry)
            };
            if committed {
                // The epoch's mirrors added sharers without seeing the
                // private owned flags; a rollback restores a consistent
                // pre-epoch state, so only a commit needs this.
                self.hierarchy.clear_owned();
                telemetry.committed_epochs += 1;
                window.on_commit();
            } else {
                self.rollback_epoch(&mut telemetry, instructions_per_core, t_end, &mut window);
            }
        }
        self.telemetry = Some(telemetry);
        self.finish_run()
    }

    /// Runs the speculate phase of one epoch: partitions cores and their
    /// private caches into contiguous shards and advances each on its own
    /// pool worker against a clone of the LLC. Results (logs, backups,
    /// conflict flags) land in the per-shard scratch.
    fn speculate_epoch(&mut self, shards: usize, instructions_per_core: u64, t_end: Cycle) {
        let Self {
            hierarchy,
            cores,
            scratch,
            pool,
            ..
        } = self;
        let pool = pool.as_ref().expect("worker pool sized before speculation");
        let EpochScratch {
            shards: shard_scratch,
            sizes,
            ..
        } = scratch;
        let sizes: &[usize] = sizes;
        let total_cores = cores.len();
        let Hierarchy {
            config,
            l1,
            l2,
            l3,
            line_shift,
            ..
        } = hierarchy;
        let config: &crate::config::SystemConfig = config;
        let l3: &Cache = l3;
        let line_shift = *line_shift;
        let stop = AtomicBool::new(false);
        // One lock-protected cell per shard, built on the stack: no
        // allocation, and each pool worker takes `&mut` to disjoint state
        // by locking exactly its own cell.
        let mut cells: [Option<Mutex<SpecCell<'_>>>; epoch::MAX_SHARDS] =
            std::array::from_fn(|_| None);
        {
            let mut cores_rest: &mut [Core] = cores;
            let mut l1_rest: &mut [Cache] = l1;
            let mut l2_rest: &mut [Cache] = l2;
            let mut scratch_rest: &mut [epoch::ShardScratch] = shard_scratch;
            let mut base = 0usize;
            for (cell, &size) in cells.iter_mut().zip(sizes) {
                let (shard_cores, rest) = cores_rest.split_at_mut(size);
                cores_rest = rest;
                let (shard_l1, rest) = l1_rest.split_at_mut(size);
                l1_rest = rest;
                let (shard_l2, rest) = l2_rest.split_at_mut(size);
                l2_rest = rest;
                let (shard, rest) = scratch_rest.split_at_mut(1);
                scratch_rest = rest;
                *cell = Some(Mutex::new(SpecCell {
                    task: ShardTask {
                        base,
                        total_cores,
                        cores: shard_cores,
                        l1: shard_l1,
                        l2: shard_l2,
                        llc: l3,
                        config,
                        line_shift,
                    },
                    scratch: &mut shard[0],
                }));
                base += size;
            }
        }
        let cells = &cells[..shards];
        pool.run(shards, &|worker| {
            let mut cell = cells[worker]
                .as_ref()
                .expect("one cell per participant")
                .lock()
                .expect("cell lock uncontended");
            let SpecCell { task, scratch } = &mut *cell;
            epoch::run_shard_epoch(task, scratch, instructions_per_core, t_end, &stop);
        });
    }

    /// Runs the set-partitioned verify phase on the pool workers (read-only
    /// against the live LLC) and, if every prediction held, the serial
    /// mutation-only commit. Returns whether the epoch committed.
    fn try_commit_set_parallel(
        &mut self,
        shards: usize,
        epoch_id: u64,
        t_end: Cycle,
        telemetry: &mut EpochTelemetry,
    ) -> bool {
        let t0 = Instant::now();
        {
            let Self {
                hierarchy,
                scratch,
                pool,
                ..
            } = self;
            let pool = pool.as_ref().expect("worker pool sized before verify");
            let EpochScratch {
                shards: shard_scratch,
                verify,
                masks,
                ..
            } = scratch;
            let shard_scratch: &[epoch::ShardScratch] = shard_scratch;
            let masks: &[u64] = masks;
            let llc = &hierarchy.l3;
            let config = &hierarchy.config;
            let mut cells: [Option<Mutex<&mut epoch::VerifyScratch>>; epoch::MAX_SHARDS] =
                std::array::from_fn(|_| None);
            for (cell, vs) in cells.iter_mut().zip(verify.iter_mut()) {
                *cell = Some(Mutex::new(vs));
            }
            let cells = &cells[..shards];
            pool.run(shards, &|worker| {
                let mut vs = cells[worker]
                    .as_ref()
                    .expect("one cell per participant")
                    .lock()
                    .expect("cell lock uncontended");
                epoch::verify_epoch(shard_scratch, &mut vs, llc, config, masks, epoch_id);
            });
        }
        telemetry.verify_ns += elapsed_ns(t0);
        if self.scratch.verify.iter().any(|v| v.conflict) {
            return false;
        }
        // Every prediction held: commit. The observer walk is the only step
        // that mutates shared state before the epoch is final (a prefetch
        // it schedules may fall due inside the window), so snapshot the
        // observer into the pooled backup first.
        let t1 = Instant::now();
        match &mut self.observer_backup {
            Some(backup) => backup.clone_from(&self.observer),
            None => self.observer_backup = Some(self.observer.clone()),
        }
        {
            let Self {
                scratch, observer, ..
            } = self;
            epoch::commit_observer_walk(&mut scratch.verify, &mut scratch.commit_cursor, observer);
        }
        if self
            .observer
            .next_prefetch_due()
            .is_some_and(|due| due < t_end)
        {
            // A prefetch scheduled during the walk falls due inside the
            // epoch: the sequential engine would have drained it mid-window.
            // Undo the observer — nothing else was touched — and roll back.
            let backup = self.observer_backup.as_mut().expect("snapshotted above");
            std::mem::swap(&mut self.observer, backup);
            telemetry.commit_ns += elapsed_ns(t1);
            return false;
        }
        {
            let Self {
                scratch, hierarchy, ..
            } = self;
            let EpochScratch {
                shards: shard_scratch,
                verify,
                ..
            } = scratch;
            epoch::commit_absorb(verify, shard_scratch, hierarchy);
        }
        telemetry.llc_ops_replayed += self.scratch.verify.iter().map(|v| v.ops).sum::<u64>();
        telemetry.commit_ns += elapsed_ns(t1);
        true
    }

    /// The serial verify-while-mutating replay used for non-LRU replacement
    /// policies: snapshots the LLC/DRAM/statistics/observer, replays the
    /// merged logs against them, and restores everything on divergence.
    /// Returns whether the epoch committed.
    fn try_commit_legacy(&mut self, t_end: Cycle, telemetry: &mut EpochTelemetry) -> bool {
        let t0 = Instant::now();
        // The LLC backup reuses a persistent buffer (`clone_from`); the rest
        // is cloned fresh — only the ablation configurations take this path,
        // so its per-epoch allocations are accepted.
        match &mut self.scratch.llc_backup {
            Some(backup) => backup.clone_from(&self.hierarchy.l3),
            None => self.scratch.llc_backup = Some(self.hierarchy.l3.clone()),
        }
        let dram_backup = self.hierarchy.dram.clone();
        let stats_backup = self.hierarchy.stats.clone();
        let observer_backup = self.observer.clone();
        let replayed = {
            let Self {
                scratch,
                hierarchy,
                observer,
                ..
            } = self;
            let EpochScratch {
                shards,
                commit_cursor,
                masks,
                ..
            } = scratch;
            epoch::replay_logs(shards, commit_cursor, masks, hierarchy, observer)
        };
        let committed = match replayed {
            // A prefetch scheduled during the replay that falls due inside
            // the epoch would have been drained mid-epoch by the sequential
            // engine: treat it as a conflict.
            Ok(ops) => {
                if self
                    .observer
                    .next_prefetch_due()
                    .is_some_and(|due| due < t_end)
                {
                    None
                } else {
                    Some(ops)
                }
            }
            Err(epoch::Conflict) => None,
        };
        let result = match committed {
            Some(ops) => {
                for shard in &self.scratch.shards {
                    self.hierarchy.stats.absorb(&shard.stats);
                }
                telemetry.llc_ops_replayed += ops;
                true
            }
            None => {
                // Swap the trashed LLC out for the backup; the backup buffer
                // (now holding garbage) is overwritten by `clone_from` on
                // the next epoch.
                std::mem::swap(
                    &mut self.hierarchy.l3,
                    self.scratch
                        .llc_backup
                        .as_mut()
                        .expect("backup taken above"),
                );
                self.hierarchy.dram = dram_backup;
                self.hierarchy.stats = stats_backup;
                self.observer = observer_backup;
                false
            }
        };
        // The fused serial verify+commit is this path's whole barrier cost.
        telemetry.commit_ns += elapsed_ns(t0);
        result
    }

    /// Restores every shard to its epoch-start state, re-executes the window
    /// sequentially, and resets the adaptive window.
    fn rollback_epoch(
        &mut self,
        telemetry: &mut EpochTelemetry,
        instructions_per_core: u64,
        t_end: Cycle,
        window: &mut EpochWindow,
    ) {
        telemetry.rollbacks += 1;
        {
            let Self {
                scratch,
                cores,
                hierarchy,
                ..
            } = self;
            let EpochScratch { shards, sizes, .. } = scratch;
            let mut base = 0usize;
            for (shard, &size) in shards.iter_mut().zip(sizes.iter()) {
                epoch::rollback_shard(shard, base, cores, hierarchy);
                base += size;
            }
        }
        let t0 = Instant::now();
        self.run_window(instructions_per_core, t_end);
        telemetry.sequential_ns += elapsed_ns(t0);
        telemetry.sequential_windows += 1;
        window.on_rollback();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::core::Access;
    use crate::observer::NullObserver;
    use crate::types::{Addr, CoreId};

    fn stride_source(start: u64, stride: u64, think: Cycle) -> Box<dyn AccessSource + Send> {
        let mut addr = start;
        Box::new(move || {
            addr += stride;
            Some(Access::read(Addr(addr)).after(think))
        })
    }

    #[test]
    fn run_retires_requested_instructions() {
        let mut sys = System::new(SystemConfig::small_test(), NullObserver);
        sys.set_source(CoreId(0), stride_source(0, 64, 9));
        sys.set_source(CoreId(1), stride_source(1 << 30, 64, 9));
        let report = sys.run(1_000);
        for &i in &report.instructions {
            assert!(i >= 1_000, "retired {i}");
        }
        assert!(report.makespan() >= 1_000);
        assert!(report.ipc(CoreId(0)) > 0.0);
    }

    #[test]
    fn idle_core_finishes_immediately() {
        let mut sys = System::new(SystemConfig::small_test(), NullObserver);
        sys.set_source(CoreId(0), stride_source(0, 64, 1));
        // Core 1 keeps the default empty source.
        let report = sys.run(100);
        assert_eq!(report.instructions[1], 0);
        assert_eq!(report.completion_cycles[1], 0);
        assert!(report.instructions[0] >= 100);
    }

    #[test]
    fn hot_loop_is_faster_than_streaming() {
        // A tiny working set (all L1 hits) must finish sooner than a stream
        // of cold misses.
        let hot = {
            let mut i = 0u64;
            move || {
                i += 1;
                Some(Access::read(Addr((i % 4) * 64)).after(1))
            }
        };
        let mut sys_hot = System::new(SystemConfig::small_test(), NullObserver);
        sys_hot.set_source(CoreId(0), Box::new(hot));
        let hot_time = sys_hot.run(2_000).completion_cycles[0];

        let mut sys_cold = System::new(SystemConfig::small_test(), NullObserver);
        sys_cold.set_source(CoreId(0), stride_source(0, 1 << 20, 1));
        let cold_time = sys_cold.run(2_000).completion_cycles[0];

        assert!(
            hot_time * 10 < cold_time,
            "hot {hot_time} vs cold {cold_time}"
        );
    }

    #[test]
    fn deterministic_reruns() {
        let run = || {
            let mut sys = System::new(SystemConfig::small_test(), NullObserver);
            sys.set_source(CoreId(0), stride_source(0, 4096, 3));
            sys.set_source(CoreId(1), stride_source(1 << 28, 8192, 5));
            let r = sys.run(5_000);
            (r.completion_cycles.clone(), r.stats.llc_evictions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn report_totals() {
        let mut sys = System::new(SystemConfig::small_test(), NullObserver);
        sys.set_source(CoreId(0), stride_source(0, 64, 0));
        let r = sys.run(50);
        assert_eq!(r.total_instructions(), r.instructions.iter().sum::<u64>());
        assert!(r.dram_reads > 0);
    }
}
