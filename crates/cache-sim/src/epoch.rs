//! Epoch-parallel execution of a single simulated system.
//!
//! [`System::run_sharded`](crate::System::run_sharded) splits one simulation
//! across worker threads while producing **bit-identical** results to the
//! sequential engine. The key observation is that cores couple only through
//! the shared LLC: every L1/L2 interaction is private to one core, so a
//! *shard* (a contiguous range of cores) can advance independently as long
//! as its view of the LLC stays consistent.
//!
//! # The epoch protocol
//!
//! Simulated time is cut into epochs `[T, T + W)`. Each epoch runs four
//! phases:
//!
//! 1. **Speculate (parallel, core-partitioned).** Every shard worker
//!    advances its cores through their *real* private L1/L2 caches against a
//!    private *clone* of the LLC, executing exactly the per-core schedule
//!    the sequential engine would (a `(clock, core)` min-heap restricted to
//!    the shard). Every LLC-touching operation — probes that miss L2, write
//!    upgrades, private eviction demotions — is appended to a per-shard log
//!    together with the worker's *predicted* outcome (serving level,
//!    latency, evicted victim and its sharer set, coherence invalidation
//!    set).
//! 2. **Verify (parallel, set-partitioned, read-only).** The shard logs,
//!    each already sorted by `(step start, core id)` — the exact key the
//!    sequential scheduler orders steps by — are k-way merged by a second
//!    team of workers, each owning a contiguous range of **LLC sets**.
//!    Because every logged op touches exactly one set, and LRU recency
//!    stamps (the only cross-set replacement state) are reconstructible
//!    from the merged op order alone, each worker can replay its sets'
//!    authoritative evolution in detached `SetImage` scratch — probing
//!    the live LLC read-only — and check every worker prediction exactly
//!    as the old serial replay did. Nothing shared is mutated: a failed
//!    verification costs only the shard-local rollback.
//! 3. **Commit (sequential, mutation-only).** Only verified epochs reach
//!    this slim phase, and it re-decides nothing: it walks the merge-ordered
//!    *annotations* the verify workers produced (memory fetches and
//!    evictions — the only observer-visible events), calls the observer
//!    hooks, patches the observer's protect decisions into the lines filled
//!    this epoch, memcpys the touched set images back into the live LLC,
//!    and absorbs the per-worker statistics and DRAM deltas.
//! 4. **Roll back on any divergence.** A mispredicted serving level or
//!    latency, an eviction victim whose sharer set does not match or
//!    crosses a shard boundary, a coherence invalidation reaching another
//!    shard, or a monitor prefetch becoming due inside the epoch — any of
//!    these rolls the whole epoch back (cores rewind via access tapes,
//!    private caches restore from snapshots; the LLC, DRAM, and statistics
//!    were never touched) and re-executes it with the sequential engine.
//!
//! Because every committed epoch is *verified* equivalent to sequential
//! execution and every rejected epoch is *re-executed* sequentially, the
//! final [`SimReport`](crate::SimReport) is bit-identical to
//! [`System::run`](crate::System::run) by construction — parallelism can
//! only degrade to sequential speed, never change results.
//! `tests/sharded_regression.rs` pins this across every bundled mix, trace,
//! and a cross-core conflict stress; `tests/sharded_differential.rs` pins
//! it across randomized workload mixes, core counts, shard counts, and
//! epoch bases.
//!
//! # Why the verify phase may run set-partitioned
//!
//! Every logged op addresses one line, hence one LLC set. Under LRU the only
//! state shared *between* sets is the monotone touch clock, and exactly the
//! probe ops advance it (one touch per probe, in merge order), so a worker
//! that walks the full merged stream can reconstruct the exact stamp the
//! sequential replay would assign to each touch — and therefore the exact
//! victim of every fill. Tree-PLRU keeps per-set bits (partitionable, but
//! not worth a second code path) and random replacement draws victims from
//! one global generator whose sequence depends on the cross-set eviction
//! interleaving — those policies fall back to the serial verify-while-
//! mutating replay (with its snapshot/restore cost), selected per run by
//! `Cache::is_lru`.
//!
//! # What can a worker safely *not* know?
//!
//! The verification rules are chosen so that everything a speculating shard
//! cannot predict is either recomputed authoritatively by the verify/commit
//! phases or irrelevant to the shard's own evolution:
//!
//! * The observer's protect decision on a memory fetch only changes LLC
//!   metadata the observer itself later consumes — the commit walk computes
//!   it authoritatively; workers fill a placeholder that the copyback
//!   patches.
//! * An eviction victim mispredicted by a shard is harmless when both the
//!   predicted and the authoritative victim have **empty sharer sets**: no
//!   private cache is touched either way and the commit walk notifies the
//!   observer with the authoritative victim.
//! * Statistics split cleanly: shards count private-level events (L1/L2
//!   service, back-invalidations and coherence invalidations they applied),
//!   verify workers count LLC-level events (L3/memory service, LLC
//!   evictions, writebacks, prefetch hits, DRAM traffic).
//!
//! # Zero-allocation steady state
//!
//! All per-epoch state — shard logs, access tapes, private-cache backups,
//! speculation LLC clones, set images, annotations, merge cursors — lives in
//! a `EpochScratch` owned by the `System` and is reset (never reallocated)
//! each epoch, mirroring how `Cache::clone_from` already recycles the LLC
//! snapshot buffers. Together with the persistent worker pool
//! (`crate::pool`) this makes steady-state epochs allocation-free, pinned by
//! `tests/no_alloc_hot_path.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::cache::{Cache, SetImage, NO_FILL_ANN};
use crate::config::SystemConfig;
use crate::core::{Access, Core};
use crate::hierarchy::Hierarchy;
use crate::line::{LineMeta, SharerSet};
use crate::observer::TrafficObserver;
use crate::stats::HierarchyStats;
use crate::types::{CoreId, Cycle, Level, LineAddr};

/// Default epoch window in simulated cycles.
///
/// Long enough to amortize the per-epoch snapshot and barrier cost over
/// thousands of simulated accesses, short enough that cross-shard LLC
/// interference (which forces a rollback) stays rare on mix-style workloads.
pub const DEFAULT_EPOCH_CYCLES: Cycle = 16_384;

/// Upper bound on shard (and verify-worker) count: the sharer bitmap —
/// and therefore the whole engine — supports at most 64 cores.
pub(crate) const MAX_SHARDS: usize = 64;

/// How [`System::run_sharded`](crate::System::run_sharded) splits one
/// simulation across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of worker shards. Cores are partitioned into `shards`
    /// contiguous, near-equal ranges; clamped to the core count. `0` or `1`
    /// selects the plain sequential engine.
    pub shards: usize,
    /// Base epoch window in simulated cycles (see [`DEFAULT_EPOCH_CYCLES`]).
    /// The engine adapts from here via the [`EpochWindow`] state machine:
    /// the window doubles after every committed epoch (up to 64× this base)
    /// and resets to it on rollback, so commit-heavy workloads amortize the
    /// per-epoch snapshot cost over ever longer windows while conflict-heavy
    /// ones keep wasted speculation bounded.
    pub epoch_cycles: Cycle,
}

impl ShardSpec {
    /// A spec with `shards` workers and the default epoch window.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            epoch_cycles: DEFAULT_EPOCH_CYCLES,
        }
    }

    /// A spec whose epoch window scales with the configured LLC size.
    ///
    /// The per-epoch cost of the protocol is dominated by LLC snapshots
    /// (each worker probes a private clone, plus the set copyback), which
    /// grow linearly with LLC capacity while the simulated work per cycle
    /// does not. Scaling the window by the LLC's size relative to the
    /// 4 MiB paper default keeps snapshot bytes per simulated cycle — and so
    /// the protocol's overhead ratio — roughly constant on scaled machines.
    #[must_use]
    pub fn for_config(config: &crate::config::SystemConfig, shards: usize) -> Self {
        const PAPER_LLC_BYTES: u64 = 4 << 20;
        let scale = (config.llc_bytes() / PAPER_LLC_BYTES).max(1);
        Self {
            shards,
            epoch_cycles: DEFAULT_EPOCH_CYCLES.saturating_mul(scale),
        }
    }

    /// Overrides the epoch window (clamped to at least 1 cycle at run time).
    #[must_use]
    pub fn with_epoch_cycles(mut self, epoch_cycles: Cycle) -> Self {
        self.epoch_cycles = epoch_cycles;
        self
    }
}

impl Default for ShardSpec {
    /// One shard per available host core.
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::new(threads)
    }
}

/// The adaptive epoch-window state machine: the per-epoch overhead
/// (snapshots, barriers, the commit walk) is independent of window length,
/// so commit-heavy workloads want long windows while conflict-heavy ones
/// want short windows that bound the wasted speculation.
///
/// The policy is deterministic — double on commit, capped at
/// [`MAX_GROWTH`](Self::MAX_GROWTH)× the base; reset to the base on
/// rollback — so the window sequence (and with it the simulation result)
/// depends only on the deterministic commit history, never on wall-clock
/// timing. Property-tested in this module's unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochWindow {
    base: Cycle,
    current: Cycle,
}

impl EpochWindow {
    /// Growth cap: the window never exceeds `MAX_GROWTH × base`.
    pub const MAX_GROWTH: Cycle = 64;

    /// A window starting (and resetting) at `base` cycles, clamped to ≥ 1.
    #[must_use]
    pub fn new(base: Cycle) -> Self {
        let base = base.max(1);
        Self {
            base,
            current: base,
        }
    }

    /// The current window length in cycles.
    #[must_use]
    pub fn current(&self) -> Cycle {
        self.current
    }

    /// The base (post-rollback) window length in cycles.
    #[must_use]
    pub fn base(&self) -> Cycle {
        self.base
    }

    /// An epoch committed: double the window, saturating at the growth cap.
    pub fn on_commit(&mut self) {
        let max = self.base.saturating_mul(Self::MAX_GROWTH);
        self.current = self.current.saturating_mul(2).min(max);
    }

    /// An epoch rolled back: reset to the base window.
    pub fn on_rollback(&mut self) {
        self.current = self.base;
    }
}

/// Execution counters of one [`run_sharded`](crate::System::run_sharded)
/// call: how much of the run committed in parallel, how much fell back to
/// the sequential engine, and where the wall-clock went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochTelemetry {
    /// Parallel epochs attempted (speculate phase ran).
    pub parallel_epochs: u64,
    /// Parallel epochs whose verification passed and whose effects
    /// committed.
    pub committed_epochs: u64,
    /// Parallel epochs rolled back to sequential re-execution.
    pub rollbacks: u64,
    /// Windows executed by the sequential engine (rollback re-runs plus
    /// epochs skipped because a monitor prefetch was due inside the window).
    pub sequential_windows: u64,
    /// LLC operations checked by the verify phase of committed epochs.
    pub llc_ops_replayed: u64,
    /// Wall-clock nanoseconds in the parallel speculate phase.
    pub speculate_ns: u64,
    /// Wall-clock nanoseconds in the parallel verify phase (the serial
    /// replay phase it replaced is the `commit_ns` + `verify_ns` of old).
    pub verify_ns: u64,
    /// Wall-clock nanoseconds in the sequential mutation-only commit phase
    /// (observer walk + set copyback + delta absorption).
    pub commit_ns: u64,
    /// Wall-clock nanoseconds re-executing windows sequentially (rollback
    /// re-runs and prefetch-gated windows).
    pub sequential_ns: u64,
}

impl EpochTelemetry {
    /// Fraction of the phase-attributed wall-clock spent in the serial
    /// commit phase — the residue the verify/commit split shrank the old
    /// serial replay down to. `0.0` when no phase time was recorded.
    #[must_use]
    pub fn serial_commit_share(&self) -> f64 {
        let total = self.speculate_ns + self.verify_ns + self.commit_ns + self.sequential_ns;
        if total == 0 {
            0.0
        } else {
            self.commit_ns as f64 / total as f64
        }
    }
}

/// A worker's predicted outcome of one LLC probe.
#[derive(Debug, Clone, Copy)]
struct Predicted {
    /// Serving level: `Level::L3` or `Level::Memory`.
    served: Level,
    /// Total access latency, including coherence invalidation cost.
    latency: Cycle,
    /// Other sharers invalidated by a write (empty for reads).
    coherence: SharerSet,
    /// LLC victim evicted by a memory fill, if any.
    evicted: Option<PredictedEvict>,
}

/// A worker's predicted LLC eviction.
#[derive(Debug, Clone, Copy)]
struct PredictedEvict {
    line: LineAddr,
    /// The victim's directory sharer set at eviction time.
    sharers: SharerSet,
    /// OR of the dirty bits folded out of the back-invalidated private
    /// copies (the worker applied those invalidations itself).
    private_dirty: bool,
}

/// One logged LLC-touching operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LlcOp {
    /// Step start time — the sequential scheduler's ordering key.
    start: Cycle,
    /// Core that performed the operation.
    core: CoreId,
    /// Access timestamp (step start plus think cycles) passed to the
    /// hierarchy and observer.
    now: Cycle,
    line: LineAddr,
    kind: LlcOpKind,
}

#[derive(Debug, Clone, Copy)]
enum LlcOpKind {
    /// An access that missed L2 and probed the LLC.
    Probe {
        is_write: bool,
        predicted: Predicted,
    },
    /// A write that hit L1/L2 and upgraded ownership through the directory.
    WriteUpgrade {
        predicted_extra: Cycle,
        predicted_others: SharerSet,
    },
    /// A private cache evicted its copy of `line` (directory update).
    Demote { private_dirty: bool },
}

/// Shard sizes for partitioning `cores` cores into `shards` contiguous
/// ranges: the first `cores % shards` shards take one extra core.
pub(crate) fn shard_sizes(cores: usize, shards: usize) -> Vec<usize> {
    let shards = shards.clamp(1, cores.max(1));
    let base = cores / shards;
    let rem = cores % shards;
    (0..shards).map(|s| base + usize::from(s < rem)).collect()
}

/// Per-core membership mask of the shard owning each core.
pub(crate) fn shard_masks(cores: usize, shards: usize) -> Vec<u64> {
    let mut masks = Vec::with_capacity(cores);
    let mut lo = 0usize;
    for size in shard_sizes(cores, shards) {
        let mask = mask_of_range(lo, size);
        for _ in 0..size {
            masks.push(mask);
        }
        lo += size;
    }
    masks
}

fn mask_of_range(base: usize, len: usize) -> u64 {
    debug_assert!(base + len <= 64, "sharer bitmap supports at most 64 cores");
    if len == 64 {
        u64::MAX
    } else {
        ((1u64 << len) - 1) << base
    }
}

/// Pooled per-shard state of the speculate phase, reset (never reallocated)
/// every epoch.
#[derive(Debug)]
pub(crate) struct ShardScratch {
    /// Speculation LLC: `clone_from`'d from the epoch-start snapshot.
    pub(crate) llc: Cache,
    /// Epoch-start copies of the shard cores' private L1s.
    pub(crate) backup_l1: Vec<Cache>,
    /// Epoch-start copies of the shard cores' private L2s.
    pub(crate) backup_l2: Vec<Cache>,
    /// Per-core access tapes (accesses consumed this epoch, for rewind).
    pub(crate) tapes: Vec<Vec<Access>>,
    /// The shard's LLC op log, sorted by `(start, core)`.
    pub(crate) log: Vec<LlcOp>,
    /// Shard-local statistics delta: private-level events only.
    pub(crate) stats: HierarchyStats,
    /// Epoch-start `(now, retired, exhausted)` of each shard core.
    pub(crate) saved: Vec<(Cycle, u64, bool)>,
    /// The shard-local scheduler heap, reused across epochs.
    pub(crate) heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// The shard hit a cross-shard interaction while speculating.
    pub(crate) conflict: bool,
}

/// A merge-ordered, observer-visible side effect recorded by a verify
/// worker: the commit walk replays exactly these against the observer,
/// re-deciding nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpEffect {
    /// Index of the originating op in the epoch's merged stream (the commit
    /// walk's ordering key; ties — a fetch and its eviction — stay in list
    /// order within one worker and cannot occur across workers, whose set
    /// ranges are disjoint).
    op_idx: u32,
    /// Access timestamp passed to the observer hook.
    now: Cycle,
    /// The fetched line (fetch) or the authoritative victim (evict).
    line: LineAddr,
    kind: EffectKind,
}

#[derive(Debug, Clone, Copy)]
enum EffectKind {
    /// `observer.on_memory_fetch`; `protect` is the observer's decision,
    /// written during the commit walk and read back by the copyback (and by
    /// later evictions of the same line via `protect_from`).
    Fetch { protect: bool },
    /// `observer.on_llc_eviction` of `line`.
    Evict {
        /// The victim's protect tag as of the epoch start — authoritative
        /// unless the victim was demand-filled *this epoch*.
        protected: bool,
        /// The victim's accessed tag (fully deterministic).
        accessed: bool,
        /// Annotation index (same worker) of the in-epoch fetch that filled
        /// the victim, or [`NO_FILL_ANN`]: the commit walk then uses that
        /// fetch's protect decision instead of `protected`.
        protect_from: u32,
    },
}

/// Pooled state of one set-partitioned verify worker.
#[derive(Debug)]
pub(crate) struct VerifyScratch {
    /// First LLC set this worker owns.
    pub(crate) set_lo: usize,
    /// One past the last LLC set this worker owns.
    pub(crate) set_hi: usize,
    /// Detached images of the owned sets, indexed `set - set_lo`; snapshot
    /// lazily (see `epoch_tag`) so an epoch only copies the sets it touches.
    images: Vec<SetImage>,
    /// Epoch id each image was last snapshotted for; `!= epoch_id` means
    /// the image is stale and must be re-exported before use.
    epoch_tag: Vec<u64>,
    /// Owned sets touched this epoch (the copyback list).
    touched: Vec<usize>,
    /// K-way merge cursors over the shard logs.
    cursor: Vec<usize>,
    /// Merge-ordered observer-visible effects (see [`OpEffect`]).
    ann: Vec<OpEffect>,
    /// LLC-level statistics delta (L3/memory service, evictions,
    /// writebacks, prefetch hits).
    stats: HierarchyStats,
    /// DRAM demand reads this worker's ops performed.
    dram_reads: u64,
    /// DRAM writebacks this worker's ops performed.
    dram_writes: u64,
    /// A prediction failed verification.
    pub(crate) conflict: bool,
    /// Ops this worker verified (its share of the merged stream).
    pub(crate) ops: u64,
    /// Total probe ops in the merged stream (identical across workers; the
    /// committed LRU clock advances by exactly this much).
    total_probes: u64,
}

/// All pooled epoch state owned by a `System`, rebuilt only when the
/// `(cores, shards)` shape changes and reset in place otherwise.
#[derive(Debug)]
pub(crate) struct EpochScratch {
    /// Per-shard speculate-phase state.
    pub(crate) shards: Vec<ShardScratch>,
    /// Per-worker verify-phase state.
    pub(crate) verify: Vec<VerifyScratch>,
    /// Per-core shard-membership masks.
    pub(crate) masks: Vec<u64>,
    /// Shard sizes (contiguous core ranges).
    pub(crate) sizes: Vec<usize>,
    /// Merge cursors of the commit walk (also reused by the legacy serial
    /// replay of non-LRU policies).
    pub(crate) commit_cursor: Vec<usize>,
    /// Pre-replay LLC backup — only the legacy (non-LRU) path mutates the
    /// LLC before knowing the epoch verifies, so only it needs this.
    pub(crate) llc_backup: Option<Cache>,
    /// `(cores, shards)` the scratch is currently shaped for.
    shape: (usize, usize),
    /// Monotone epoch counter versioning the lazy set-image snapshots.
    epoch_id: u64,
}

impl EpochScratch {
    /// An empty scratch; [`prepare`](Self::prepare) shapes it.
    pub(crate) fn new() -> Self {
        Self {
            shards: Vec::new(),
            verify: Vec::new(),
            masks: Vec::new(),
            sizes: Vec::new(),
            commit_cursor: Vec::new(),
            llc_backup: None,
            shape: (0, 0),
            epoch_id: 0,
        }
    }

    /// (Re)shapes the scratch for `shards` shards over the hierarchy's
    /// cores. A no-op — in particular, allocation-free — when the shape is
    /// unchanged since the last call.
    pub(crate) fn prepare(&mut self, hierarchy: &Hierarchy, shards: usize) {
        let cores = hierarchy.l1.len();
        if self.shape == (cores, shards) {
            return;
        }
        self.shape = (cores, shards);
        self.masks = shard_masks(cores, shards);
        self.sizes = shard_sizes(cores, shards);
        self.shards.clear();
        let mut base = 0usize;
        for &size in &self.sizes {
            self.shards.push(ShardScratch {
                llc: hierarchy.l3.clone(),
                backup_l1: hierarchy.l1[base..base + size].to_vec(),
                backup_l2: hierarchy.l2[base..base + size].to_vec(),
                tapes: vec![Vec::new(); size],
                log: Vec::new(),
                stats: HierarchyStats::new(cores),
                saved: Vec::with_capacity(size),
                heap: BinaryHeap::with_capacity(size),
                conflict: false,
            });
            base += size;
        }
        let sets = hierarchy.l3.geometry().sets;
        let workers = self.sizes.len();
        self.verify.clear();
        for w in 0..workers {
            let set_lo = sets * w / workers;
            let set_hi = sets * (w + 1) / workers;
            self.verify.push(VerifyScratch {
                set_lo,
                set_hi,
                images: (set_lo..set_hi).map(|_| SetImage::default()).collect(),
                epoch_tag: vec![0; set_hi - set_lo],
                touched: Vec::new(),
                cursor: Vec::new(),
                ann: Vec::new(),
                stats: HierarchyStats::new(cores),
                dram_reads: 0,
                dram_writes: 0,
                conflict: false,
                ops: 0,
                total_probes: 0,
            });
        }
        self.llc_backup = None;
    }

    /// Starts a new epoch, returning its id (used to invalidate the lazy
    /// set-image snapshots without clearing them).
    pub(crate) fn begin_epoch(&mut self) -> u64 {
        self.epoch_id += 1;
        self.epoch_id
    }
}

/// Borrowed inputs of one shard worker for one epoch.
pub(crate) struct ShardTask<'a> {
    /// Global index of the shard's first core.
    pub base: usize,
    /// Total cores in the system (sizes the shard-local statistics block).
    pub total_cores: usize,
    /// The shard's cores (authoritative — no other thread touches them).
    pub cores: &'a mut [Core],
    /// The shard cores' private L1s (authoritative).
    pub l1: &'a mut [Cache],
    /// The shard cores' private L2s (authoritative).
    pub l2: &'a mut [Cache],
    /// Epoch-start LLC snapshot; the worker probes its scratch LLC, a
    /// private copy of this.
    pub llc: &'a Cache,
    pub config: &'a SystemConfig,
    pub line_shift: u32,
}

/// Runs one shard for one epoch: advances every shard core whose next step
/// starts before `t_end`, speculating against a clone of the LLC snapshot.
/// All epoch state (backups, tapes, log, stats) lands in `scratch`.
pub(crate) fn run_shard_epoch(
    task: &mut ShardTask<'_>,
    scratch: &mut ShardScratch,
    quota: u64,
    t_end: Cycle,
    stop: &AtomicBool,
) {
    let ShardScratch {
        llc: scratch_llc,
        backup_l1,
        backup_l2,
        tapes,
        log,
        stats,
        saved,
        heap,
        conflict,
    } = scratch;
    let base = task.base;
    let n = task.cores.len();
    for (backup, live) in backup_l1.iter_mut().zip(task.l1.iter()) {
        backup.clone_from(live);
    }
    for (backup, live) in backup_l2.iter_mut().zip(task.l2.iter()) {
        backup.clone_from(live);
    }
    saved.clear();
    saved.extend(task.cores.iter().map(Core::exec_state));
    for tape in tapes.iter_mut() {
        tape.clear();
    }
    log.clear();
    stats.reset(task.total_cores);
    scratch_llc.clone_from(task.llc);
    let mut exec = ShardExec {
        base,
        mask: mask_of_range(base, n),
        l1: &mut *task.l1,
        l2: &mut *task.l2,
        llc: scratch_llc,
        config: task.config,
        line_shift: task.line_shift,
        stats,
        log,
        conflict: false,
    };

    // The shard-local scheduler mirrors the sequential engine exactly: a
    // min-heap on (local clock, global core index), stepping the popped core
    // while it stays strictly earliest. Restricted to one shard this yields
    // the global sequential order filtered to the shard's cores, so the op
    // log comes out sorted by the merge key.
    heap.clear();
    for (li, core) in task.cores.iter().enumerate() {
        if !core.is_exhausted() && core.retired() < quota && core.now() < t_end {
            heap.push(Reverse((core.now(), base + li)));
        }
    }
    'outer: while let Some(Reverse((_, idx))) = heap.pop() {
        let li = idx - base;
        loop {
            if stop.load(Ordering::Relaxed) {
                break 'outer; // Another shard conflicted; the epoch is doomed.
            }
            let start = task.cores[li].now();
            if start >= t_end {
                break; // The core's next step belongs to a later epoch.
            }
            let Some(access) = task.cores[li].begin_step(&mut tapes[li]) else {
                break; // Source exhausted.
            };
            let now = task.cores[li].now();
            let latency = exec.access(CoreId(idx), access, start, now);
            task.cores[li].finish_step(latency);
            if exec.conflict {
                stop.store(true, Ordering::Relaxed);
                break 'outer;
            }
            if task.cores[li].retired() >= quota {
                break;
            }
            let after = task.cores[li].now();
            if let Some(&Reverse(next)) = heap.peek() {
                if (after, idx) >= next {
                    heap.push(Reverse((after, idx)));
                    break;
                }
            }
        }
    }

    *conflict = exec.conflict;
}

/// Rolls one shard back to its epoch-start state. The backup buffers are
/// swapped (not copied) into the hierarchy and hold garbage afterwards; the
/// next epoch's snapshot overwrites them.
pub(crate) fn rollback_shard(
    scratch: &mut ShardScratch,
    base: usize,
    cores: &mut [Core],
    hierarchy: &mut Hierarchy,
) {
    for li in 0..scratch.saved.len() {
        let idx = base + li;
        cores[idx].rewind(scratch.saved[li], &scratch.tapes[li]);
        std::mem::swap(&mut hierarchy.l1[idx], &mut scratch.backup_l1[li]);
        std::mem::swap(&mut hierarchy.l2[idx], &mut scratch.backup_l2[li]);
    }
}

/// The speculative execution engine of one shard: the private-cache half is
/// authoritative (it mirrors [`Hierarchy::access`] exactly), the LLC half
/// runs against a clone and logs predictions for the verify phase to check.
struct ShardExec<'a> {
    base: usize,
    /// Membership mask of this shard's cores.
    mask: u64,
    l1: &'a mut [Cache],
    l2: &'a mut [Cache],
    /// Private LLC copy, mutated only by this shard's speculated ops.
    llc: &'a mut Cache,
    config: &'a SystemConfig,
    line_shift: u32,
    /// Shard-local statistics delta: private-level events only.
    stats: &'a mut HierarchyStats,
    log: &'a mut Vec<LlcOp>,
    conflict: bool,
}

impl ShardExec<'_> {
    /// Mirror of [`Hierarchy::access`] — every branch, fill, and latency
    /// term corresponds 1:1 to the sequential implementation. Divergence
    /// here is caught by the verify phase (and only costs a rollback), but
    /// the private-level halves (L1/L2 probes and fills) must stay exactly
    /// faithful: they are authoritative. The one shortcut not mirrored is
    /// the owned-line write hit, whose skipped upgrade is a no-op: the
    /// mirror always upgrades and never sets the flag, and a committed
    /// epoch clears every owned flag (`Hierarchy::clear_owned`).
    fn access(&mut self, core: CoreId, access: Access, start: Cycle, now: Cycle) -> Cycle {
        let line = LineAddr(access.addr.0 >> self.line_shift);
        let is_write = access.kind.is_write();
        let li = core.0 - self.base;

        // ---- L1 hit ----
        if let Some(meta) = self.l1[li].touch(line) {
            meta.or_dirty(is_write);
            let mut latency = self.config.l1.latency;
            if is_write {
                latency += self.write_upgrade(core, line, start, now);
            }
            self.stats.record_served(core, Level::L1, latency);
            return latency;
        }

        // ---- L2 hit ----
        if self.l2[li].touch(line).is_some() {
            self.fill_l1(core, line, is_write, start, now);
            let mut latency = self.config.l2.latency;
            if is_write {
                latency += self.write_upgrade(core, line, start, now);
            }
            self.stats.record_served(core, Level::L2, latency);
            return latency;
        }

        // ---- L3 hit (speculative: probes the LLC clone) ----
        if let Some(meta) = self.llc.touch(line) {
            meta.set_accessed(true);
            meta.set_prefetched(false);
            meta.sharers.insert(core);
            meta.or_dirty(is_write);
            let mut latency = self.config.l3.latency;
            let mut coherence = SharerSet::empty();
            if is_write {
                let (extra, others) = self.invalidate_other_sharers(core, line);
                latency += extra;
                coherence = others;
            }
            // prefetch-hit accounting and L3-level stats happen at verify,
            // from the authoritative metadata.
            self.log.push(LlcOp {
                start,
                core,
                now,
                line,
                kind: LlcOpKind::Probe {
                    is_write,
                    predicted: Predicted {
                        served: Level::L3,
                        latency,
                        coherence,
                        evicted: None,
                    },
                },
            });
            self.fill_l2(core, line, start, now);
            self.fill_l1(core, line, is_write, start, now);
            return latency;
        }

        // ---- Memory (speculative) ----
        // The observer's protect decision is unknowable here; the commit
        // walk recomputes it. It does not affect anything the worker
        // observes.
        let latency = self.config.l3.latency + self.config.dram_latency;
        let meta = LineMeta::demand_fill(core, is_write, false);
        let evicted = self.fill_llc(line, meta);
        self.log.push(LlcOp {
            start,
            core,
            now,
            line,
            kind: LlcOpKind::Probe {
                is_write,
                predicted: Predicted {
                    served: Level::Memory,
                    latency,
                    coherence: SharerSet::empty(),
                    evicted,
                },
            },
        });
        self.fill_l2(core, line, start, now);
        self.fill_l1(core, line, is_write, start, now);
        latency
    }

    fn in_shard(&self, core: CoreId) -> bool {
        self.mask & (1u64 << core.0) != 0
    }

    /// Speculative LLC fill: evict from the clone, back-invalidate the
    /// victim's private copies *within this shard*, and report the predicted
    /// victim. A victim shared outside the shard is a conflict — the other
    /// shard's cores would have needed a mid-epoch back-invalidation.
    fn fill_llc(&mut self, line: LineAddr, meta: LineMeta) -> Option<PredictedEvict> {
        let evicted = self.llc.fill(line, meta)?;
        if evicted.meta.sharers.bits() & !self.mask != 0 {
            self.conflict = true;
        }
        let mut private_dirty = false;
        for c in evicted.meta.sharers.iter() {
            if !self.in_shard(c) {
                continue;
            }
            let li = c.0 - self.base;
            if let Some(m) = self.l1[li].invalidate(evicted.line) {
                self.stats.back_invalidations += 1;
                private_dirty |= m.dirty();
            }
            if let Some(m) = self.l2[li].invalidate(evicted.line) {
                self.stats.back_invalidations += 1;
                private_dirty |= m.dirty();
            }
        }
        Some(PredictedEvict {
            line: evicted.line,
            sharers: evicted.meta.sharers,
            private_dirty,
        })
    }

    /// Mirror of `Hierarchy::fill_l2` (private levels authoritative, LLC
    /// demotion logged).
    fn fill_l2(&mut self, core: CoreId, line: LineAddr, start: Cycle, now: Cycle) {
        let li = core.0 - self.base;
        if self.l2[li].touch(line).is_some() {
            return;
        }
        if let Some(evicted) = self.l2[li].fill(line, LineMeta::default()) {
            let mut dirty = evicted.meta.dirty();
            if let Some(m) = self.l1[li].invalidate(evicted.line) {
                self.stats.back_invalidations += 1;
                dirty |= m.dirty();
            }
            self.demote(core, evicted.line, dirty, start, now);
        }
    }

    /// Mirror of `Hierarchy::fill_l1`.
    fn fill_l1(&mut self, core: CoreId, line: LineAddr, is_write: bool, start: Cycle, now: Cycle) {
        let li = core.0 - self.base;
        if let Some(meta) = self.l1[li].touch(line) {
            meta.or_dirty(is_write);
            return;
        }
        let meta = LineMeta::default().with_dirty(is_write);
        if let Some(evicted) = self.l1[li].fill(line, meta) {
            if evicted.meta.dirty() {
                if let Some(m) = self.l2[li].peek_mut(evicted.line) {
                    m.set_dirty(true);
                } else {
                    self.demote(core, evicted.line, true, start, now);
                }
            }
        }
    }

    /// Mirror of `Hierarchy::demote_private_copy`: applied to the clone and
    /// logged. Demotions carry no latency and touch no private state, so
    /// the verify phase applies them authoritatively without checking a
    /// prediction.
    fn demote(&mut self, core: CoreId, line: LineAddr, dirty: bool, start: Cycle, now: Cycle) {
        if let Some(m) = self.llc.peek_mut(line) {
            m.sharers.remove(core);
            m.or_dirty(dirty);
        }
        // Writeback accounting for a vanished LLC copy happens at verify.
        self.log.push(LlcOp {
            start,
            core,
            now,
            line,
            kind: LlcOpKind::Demote {
                private_dirty: dirty,
            },
        });
    }

    /// Mirror of `Hierarchy::write_upgrade`, always logged — even when the
    /// clone misses the line — so the verify phase can detect an upgrade
    /// that the authoritative LLC would have charged differently.
    fn write_upgrade(&mut self, core: CoreId, line: LineAddr, start: Cycle, now: Cycle) -> Cycle {
        let mut needs_invalidation = false;
        if let Some(meta) = self.llc.peek_mut(line) {
            meta.set_dirty(true);
            if !meta.sharers.is_sole(core) && !meta.sharers.is_empty() {
                needs_invalidation = true;
            } else {
                meta.sharers.insert(core);
            }
        }
        let (extra, others) = if needs_invalidation {
            self.invalidate_other_sharers(core, line)
        } else {
            (0, SharerSet::empty())
        };
        self.log.push(LlcOp {
            start,
            core,
            now,
            line,
            kind: LlcOpKind::WriteUpgrade {
                predicted_extra: extra,
                predicted_others: others,
            },
        });
        extra
    }

    /// Mirror of `Hierarchy::invalidate_other_sharers`, restricted to this
    /// shard; an out-of-shard sharer is a conflict.
    fn invalidate_other_sharers(&mut self, core: CoreId, line: LineAddr) -> (Cycle, SharerSet) {
        let Some(meta) = self.llc.peek(line) else {
            return (0, SharerSet::empty());
        };
        let sharers = meta.sharers;
        let mut others = SharerSet::empty();
        for other in sharers.iter() {
            if other == core {
                continue;
            }
            others.insert(other);
            if !self.in_shard(other) {
                self.conflict = true;
                continue;
            }
            let li = other.0 - self.base;
            if self.l1[li].invalidate(line).is_some() {
                self.stats.coherence_invalidations += 1;
            }
            if self.l2[li].invalidate(line).is_some() {
                self.stats.coherence_invalidations += 1;
            }
        }
        if others.is_empty() {
            return (0, SharerSet::empty());
        }
        if let Some(meta) = self.llc.peek_mut(line) {
            meta.sharers = SharerSet::only(core);
        }
        (self.config.l3.latency, others)
    }
}

/// A verification failure: some worker prediction diverged from the
/// authoritative outcome, or an op crossed a shard boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Conflict;

/// The parallel verify phase of one worker: k-way merges the shard logs in
/// `(step start, core id)` order — the sequential scheduler's key — and for
/// every op addressing one of this worker's LLC sets, replays the set's
/// authoritative evolution in a detached [`SetImage`] (lazily snapshotted
/// from the live LLC, which is only ever *read*), checking each shard
/// prediction exactly as the serial replay would.
///
/// LRU stamps are reconstructed from the merged stream: every probe op —
/// and only probe ops — advances the touch clock by one, so the stamp of
/// the k-th probe is `epoch-start clock + k` regardless of which set it
/// lands in. The worker counts probes globally (it walks the full stream
/// anyway) and stamps only its own sets' touches.
pub(crate) fn verify_epoch(
    shards: &[ShardScratch],
    vs: &mut VerifyScratch,
    llc: &Cache,
    config: &SystemConfig,
    masks: &[u64],
    epoch_id: u64,
) {
    let VerifyScratch {
        set_lo,
        set_hi,
        images,
        epoch_tag,
        touched,
        cursor,
        ann,
        stats,
        dram_reads,
        dram_writes,
        conflict,
        ops,
        total_probes,
    } = vs;
    let (set_lo, set_hi) = (*set_lo, *set_hi);
    touched.clear();
    ann.clear();
    stats.reset(masks.len());
    *dram_reads = 0;
    *dram_writes = 0;
    *conflict = false;
    *ops = 0;
    *total_probes = 0;
    cursor.clear();
    cursor.resize(shards.len(), 0);

    let start_clock = llc.lru_clock();
    let mut probes: u64 = 0;
    let mut op_idx: u32 = 0;
    loop {
        let mut best: Option<((Cycle, usize), usize)> = None;
        for (shard, scratch) in shards.iter().enumerate() {
            if let Some(op) = scratch.log.get(cursor[shard]) {
                let key = (op.start, op.core.0);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, shard));
                }
            }
        }
        let Some((_, shard)) = best else {
            break;
        };
        let op = shards[shard].log[cursor[shard]];
        cursor[shard] += 1;
        if matches!(op.kind, LlcOpKind::Probe { .. }) {
            probes += 1;
        }
        let set = llc.set_of(op.line);
        if set >= set_lo && set < set_hi {
            let slot = set - set_lo;
            if epoch_tag[slot] != epoch_id {
                llc.export_set(set, &mut images[slot]);
                epoch_tag[slot] = epoch_id;
                touched.push(set);
            }
            let outcome = verify_op(
                &op,
                &mut images[slot],
                set,
                llc,
                config,
                masks,
                start_clock + probes,
                op_idx,
                ann,
                stats,
                dram_reads,
                dram_writes,
            );
            if outcome.is_err() {
                *conflict = true;
                return;
            }
            *ops += 1;
        }
        op_idx += 1;
    }
    *total_probes = probes;
}

/// Checks one op against the authoritative set evolution (mirror of the
/// serial `replay_op`, with cache mutations redirected to the [`SetImage`],
/// observer calls deferred as annotations, and DRAM/statistics counted into
/// the worker's deltas).
#[allow(clippy::too_many_arguments)]
fn verify_op(
    op: &LlcOp,
    image: &mut SetImage,
    set: usize,
    llc: &Cache,
    config: &SystemConfig,
    masks: &[u64],
    stamp: Cycle,
    op_idx: u32,
    ann: &mut Vec<OpEffect>,
    stats: &mut HierarchyStats,
    dram_reads: &mut u64,
    dram_writes: &mut u64,
) -> Result<(), Conflict> {
    let core = op.core;
    let tag = llc.tag_of(op.line);
    match op.kind {
        LlcOpKind::Probe {
            is_write,
            predicted,
        } => {
            if let Some(meta) = image.touch(tag, stamp) {
                // Authoritative L3 hit.
                if predicted.served != Level::L3 {
                    return Err(Conflict);
                }
                let prefetch_hit = meta.prefetched() && !meta.accessed();
                meta.set_accessed(true);
                meta.set_prefetched(false);
                meta.sharers.insert(core);
                meta.or_dirty(is_write);
                if prefetch_hit {
                    stats.prefetch_hits += 1;
                }
                let mut latency = config.l3.latency;
                if is_write {
                    latency += verify_invalidate_others(
                        image,
                        tag,
                        core,
                        predicted.coherence,
                        masks,
                        config,
                    )?;
                } else if !predicted.coherence.is_empty() {
                    return Err(Conflict);
                }
                if latency != predicted.latency {
                    return Err(Conflict);
                }
                stats.record_served(core, Level::L3, latency);
            } else {
                // Authoritative memory fetch.
                if predicted.served != Level::Memory {
                    return Err(Conflict);
                }
                let latency = config.l3.latency + config.dram_latency;
                if latency != predicted.latency {
                    return Err(Conflict);
                }
                *dram_reads += 1;
                let fill_ann = u32::try_from(ann.len()).expect("under 4G ops per epoch");
                debug_assert_ne!(fill_ann, NO_FILL_ANN);
                ann.push(OpEffect {
                    op_idx,
                    now: op.now,
                    line: op.line,
                    kind: EffectKind::Fetch { protect: false },
                });
                // Placeholder protect bit; the copyback patches the commit
                // walk's authoritative decision in.
                let meta = LineMeta::demand_fill(core, is_write, false);
                let evicted = image.fill(tag, meta, stamp, fill_ann);
                verify_fill_outcome(
                    evicted,
                    predicted.evicted,
                    set,
                    llc,
                    core,
                    masks,
                    op_idx,
                    op.now,
                    ann,
                    stats,
                    dram_writes,
                )?;
                stats.record_served(core, Level::Memory, latency);
            }
        }
        LlcOpKind::WriteUpgrade {
            predicted_extra,
            predicted_others,
        } => {
            let mut needs_invalidation = false;
            if let Some(meta) = image.peek_mut(tag) {
                meta.set_dirty(true);
                if !meta.sharers.is_sole(core) && !meta.sharers.is_empty() {
                    needs_invalidation = true;
                } else {
                    meta.sharers.insert(core);
                }
            }
            let extra = if needs_invalidation {
                verify_invalidate_others(image, tag, core, predicted_others, masks, config)?
            } else {
                if !predicted_others.is_empty() {
                    return Err(Conflict);
                }
                0
            };
            if extra != predicted_extra {
                return Err(Conflict);
            }
        }
        LlcOpKind::Demote { private_dirty } => {
            // Demotions carry no worker-visible outcome: apply
            // authoritatively (mirror of `demote_private_copy`).
            if let Some(m) = image.peek_mut(tag) {
                m.sharers.remove(core);
                m.or_dirty(private_dirty);
            } else if private_dirty {
                *dram_writes += 1;
                stats.writebacks += 1;
            }
        }
    }
    Ok(())
}

/// Authoritative LLC-fill eviction verification (mirror of the serial
/// `replay_fill`, against the set image).
#[allow(clippy::too_many_arguments)]
fn verify_fill_outcome(
    evicted: Option<crate::cache::EvictedWay>,
    predicted: Option<PredictedEvict>,
    set: usize,
    llc: &Cache,
    core: CoreId,
    masks: &[u64],
    op_idx: u32,
    now: Cycle,
    ann: &mut Vec<OpEffect>,
    stats: &mut HierarchyStats,
    dram_writes: &mut u64,
) -> Result<(), Conflict> {
    match (evicted, predicted) {
        (None, None) => Ok(()),
        (None, Some(pe)) => {
            // The shard evicted a victim the authoritative LLC did not.
            // Harmless only if the shard's victim had no private copies.
            if pe.sharers.is_empty() {
                Ok(())
            } else {
                Err(Conflict)
            }
        }
        (Some(evicted), pred) => {
            stats.llc_evictions += 1;
            let evicted_line = llc.line_of(set, evicted.tag);
            let (pe_line, pe_sharers, pe_private_dirty) = match pred {
                Some(pe) => (Some(pe.line), pe.sharers, pe.private_dirty),
                None => (None, SharerSet::empty(), false),
            };
            let dirty;
            if pe_line == Some(evicted_line) && pe_sharers == evicted.meta.sharers {
                // Exact prediction: the shard back-invalidated precisely
                // the private copies the sequential engine would have —
                // provided none lay outside the shard.
                if evicted.meta.sharers.bits() & !masks[core.0] != 0 {
                    return Err(Conflict);
                }
                dirty = evicted.meta.dirty() | pe_private_dirty;
            } else if evicted.meta.sharers.is_empty() && pe_sharers.is_empty() {
                // Victim mismatch with no private copies on either side: no
                // back-invalidation was needed or performed, the observer is
                // notified with the authoritative victim, and the shard's
                // clone divergence is discarded at the barrier.
                dirty = evicted.meta.dirty();
            } else {
                return Err(Conflict);
            }
            if dirty {
                *dram_writes += 1;
                stats.writebacks += 1;
            }
            ann.push(OpEffect {
                op_idx,
                now,
                line: evicted_line,
                kind: EffectKind::Evict {
                    protected: evicted.meta.protected(),
                    accessed: evicted.meta.accessed(),
                    protect_from: evicted.fill_ann,
                },
            });
            Ok(())
        }
    }
}

/// Authoritative mirror of `Hierarchy::invalidate_other_sharers` against the
/// set image: updates the directory and charges latency, verifying that the
/// shard invalidated exactly the authoritative sharer set (all of it inside
/// the op's shard). The private-copy invalidations themselves were already
/// performed — and counted — by the shard.
fn verify_invalidate_others(
    image: &mut SetImage,
    tag: u64,
    core: CoreId,
    predicted_others: SharerSet,
    masks: &[u64],
    config: &SystemConfig,
) -> Result<Cycle, Conflict> {
    let Some(way) = image.find(tag) else {
        return if predicted_others.is_empty() {
            Ok(0)
        } else {
            Err(Conflict)
        };
    };
    let mut others = image.ways[way].meta.sharers;
    others.remove(core);
    if others != predicted_others {
        return Err(Conflict);
    }
    if others.bits() & !masks[core.0] != 0 {
        return Err(Conflict);
    }
    if others.is_empty() {
        return Ok(0);
    }
    image.ways[way].meta.sharers = SharerSet::only(core);
    Ok(config.l3.latency)
}

/// The first half of the commit phase: walks the verify workers' merge-
/// ordered annotations, calling the observer hooks in the exact order the
/// sequential engine would — `on_memory_fetch` (recording its protect
/// decision back into the annotation) and `on_llc_eviction` (resolving the
/// victim's protect tag via `protect_from` when the victim was filled this
/// epoch).
///
/// This is the only epoch step that mutates the observer before the epoch
/// is fully committed; the caller snapshots the observer first and restores
/// it if a prefetch scheduled here falls due inside the epoch.
pub(crate) fn commit_observer_walk(
    verify: &mut [VerifyScratch],
    cursor: &mut Vec<usize>,
    observer: &mut dyn TrafficObserver,
) {
    cursor.clear();
    cursor.resize(verify.len(), 0);
    loop {
        let mut best: Option<(u32, usize)> = None;
        for (w, vs) in verify.iter().enumerate() {
            if let Some(effect) = vs.ann.get(cursor[w]) {
                if best.is_none_or(|(bi, _)| effect.op_idx < bi) {
                    best = Some((effect.op_idx, w));
                }
            }
        }
        let Some((_, w)) = best else {
            break;
        };
        let i = cursor[w];
        cursor[w] += 1;
        let effect = verify[w].ann[i];
        match effect.kind {
            EffectKind::Fetch { .. } => {
                let protect = observer.on_memory_fetch(effect.line, effect.now);
                verify[w].ann[i].kind = EffectKind::Fetch { protect };
            }
            EffectKind::Evict {
                protected,
                accessed,
                protect_from,
            } => {
                let protected = if protect_from == NO_FILL_ANN {
                    protected
                } else {
                    // The victim was demand-filled this epoch: its protect
                    // tag is whatever the observer decided for that fetch
                    // (same worker — same set — and already walked, since
                    // the fill precedes the eviction in merge order).
                    match verify[w].ann[protect_from as usize].kind {
                        EffectKind::Fetch { protect } => protect,
                        EffectKind::Evict { .. } => {
                            unreachable!("fill_ann references a fetch annotation")
                        }
                    }
                };
                observer.on_llc_eviction(effect.line, protected, accessed, effect.now);
            }
        }
    }
}

/// The second half of the commit phase: patches the observer's protect
/// decisions into the lines demand-filled this epoch, memcpys every touched
/// set image back into the live LLC, advances the LRU touch clock by the
/// epoch's probe count, and absorbs the per-worker and per-shard statistics
/// and DRAM deltas.
pub(crate) fn commit_absorb(
    verify: &mut [VerifyScratch],
    shards: &[ShardScratch],
    hierarchy: &mut Hierarchy,
) {
    if let Some(first) = verify.first() {
        let clock = hierarchy.l3.lru_clock() + first.total_probes;
        hierarchy.l3.set_lru_clock(clock);
    }
    for vs in verify.iter_mut() {
        let VerifyScratch {
            set_lo,
            images,
            touched,
            ann,
            stats,
            dram_reads,
            dram_writes,
            ..
        } = vs;
        for &set in touched.iter() {
            let image = &mut images[set - *set_lo];
            for way in image.ways.iter_mut() {
                if way.valid && way.fill_ann != NO_FILL_ANN {
                    if let EffectKind::Fetch { protect } = ann[way.fill_ann as usize].kind {
                        way.meta.set_protected(protect);
                    }
                }
            }
            hierarchy.l3.import_set(set, image);
        }
        hierarchy.stats.absorb(stats);
        hierarchy
            .dram
            .absorb_demand_traffic(*dram_reads, *dram_writes);
    }
    for shard in shards {
        hierarchy.stats.absorb(&shard.stats);
    }
}

/// Legacy serial replay for non-LRU replacement policies (see the module
/// docs): merges the shard logs in `(step start, core id)` order and replays
/// every op against the authoritative LLC, DRAM, statistics, and observer,
/// verifying predictions *while mutating*.
///
/// On `Err(Conflict)` the hierarchy and observer are left partially mutated;
/// the caller must restore them from its epoch-start snapshots.
pub(crate) fn replay_logs(
    shards: &[ShardScratch],
    cursor: &mut Vec<usize>,
    masks: &[u64],
    hierarchy: &mut Hierarchy,
    observer: &mut dyn TrafficObserver,
) -> Result<u64, Conflict> {
    cursor.clear();
    cursor.resize(shards.len(), 0);
    let mut replayed = 0u64;
    loop {
        let mut best: Option<((Cycle, usize), usize)> = None;
        for (shard, scratch) in shards.iter().enumerate() {
            if let Some(op) = scratch.log.get(cursor[shard]) {
                let key = (op.start, op.core.0);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, shard));
                }
            }
        }
        let Some((_, shard)) = best else {
            break;
        };
        let op = shards[shard].log[cursor[shard]];
        cursor[shard] += 1;
        replay_op(&op, masks, hierarchy, observer)?;
        replayed += 1;
    }
    Ok(replayed)
}

fn replay_op(
    op: &LlcOp,
    masks: &[u64],
    hierarchy: &mut Hierarchy,
    observer: &mut dyn TrafficObserver,
) -> Result<(), Conflict> {
    let core = op.core;
    let line = op.line;
    match op.kind {
        LlcOpKind::Probe {
            is_write,
            predicted,
        } => {
            if let Some(meta) = hierarchy.l3.touch(line) {
                // Authoritative L3 hit.
                if predicted.served != Level::L3 {
                    return Err(Conflict);
                }
                let prefetch_hit = meta.prefetched() && !meta.accessed();
                meta.set_accessed(true);
                meta.set_prefetched(false);
                meta.sharers.insert(core);
                meta.or_dirty(is_write);
                if prefetch_hit {
                    hierarchy.stats.prefetch_hits += 1;
                }
                let mut latency = hierarchy.config.l3.latency;
                if is_write {
                    latency += replay_invalidate_others(
                        hierarchy,
                        core,
                        line,
                        predicted.coherence,
                        masks,
                    )?;
                } else if !predicted.coherence.is_empty() {
                    return Err(Conflict);
                }
                if latency != predicted.latency {
                    return Err(Conflict);
                }
                hierarchy.stats.record_served(core, Level::L3, latency);
            } else {
                // Authoritative memory fetch.
                if predicted.served != Level::Memory {
                    return Err(Conflict);
                }
                let protect = observer.on_memory_fetch(line, op.now);
                let latency = hierarchy.config.l3.latency + hierarchy.dram.read();
                if latency != predicted.latency {
                    return Err(Conflict);
                }
                let meta = LineMeta::demand_fill(core, is_write, protect);
                replay_fill(
                    hierarchy,
                    observer,
                    core,
                    line,
                    meta,
                    predicted.evicted,
                    op.now,
                    masks,
                )?;
                hierarchy.stats.record_served(core, Level::Memory, latency);
            }
        }
        LlcOpKind::WriteUpgrade {
            predicted_extra,
            predicted_others,
        } => {
            let mut needs_invalidation = false;
            if let Some(meta) = hierarchy.l3.peek_mut(line) {
                meta.set_dirty(true);
                if !meta.sharers.is_sole(core) && !meta.sharers.is_empty() {
                    needs_invalidation = true;
                } else {
                    meta.sharers.insert(core);
                }
            }
            let extra = if needs_invalidation {
                replay_invalidate_others(hierarchy, core, line, predicted_others, masks)?
            } else {
                if !predicted_others.is_empty() {
                    return Err(Conflict);
                }
                0
            };
            if extra != predicted_extra {
                return Err(Conflict);
            }
        }
        LlcOpKind::Demote { private_dirty } => {
            // Demotions carry no worker-visible outcome: apply
            // authoritatively (mirror of `demote_private_copy`).
            if let Some(m) = hierarchy.l3.peek_mut(line) {
                m.sharers.remove(core);
                m.or_dirty(private_dirty);
            } else if private_dirty {
                hierarchy.dram.write();
                hierarchy.stats.writebacks += 1;
            }
        }
    }
    Ok(())
}

/// Authoritative LLC fill with eviction verification (mirror of
/// `Hierarchy::fill_l3`, with the private back-invalidation replaced by the
/// check that the worker already performed exactly it).
#[allow(clippy::too_many_arguments)]
fn replay_fill(
    hierarchy: &mut Hierarchy,
    observer: &mut dyn TrafficObserver,
    core: CoreId,
    line: LineAddr,
    meta: LineMeta,
    predicted: Option<PredictedEvict>,
    now: Cycle,
    masks: &[u64],
) -> Result<(), Conflict> {
    match (hierarchy.l3.fill(line, meta), predicted) {
        (None, None) => Ok(()),
        (None, Some(pe)) => {
            // The worker evicted a victim the authoritative LLC did not.
            // Harmless only if the worker's victim had no private copies.
            if pe.sharers.is_empty() {
                Ok(())
            } else {
                Err(Conflict)
            }
        }
        (Some(evicted), pred) => {
            hierarchy.stats.llc_evictions += 1;
            let (pe_line, pe_sharers, pe_private_dirty) = match pred {
                Some(pe) => (Some(pe.line), pe.sharers, pe.private_dirty),
                None => (None, SharerSet::empty(), false),
            };
            let dirty;
            if pe_line == Some(evicted.line) && pe_sharers == evicted.meta.sharers {
                // Exact prediction: the worker back-invalidated precisely
                // the private copies the sequential engine would have —
                // provided none lay outside the worker's shard.
                if evicted.meta.sharers.bits() & !masks[core.0] != 0 {
                    return Err(Conflict);
                }
                dirty = evicted.meta.dirty() | pe_private_dirty;
            } else if evicted.meta.sharers.is_empty() && pe_sharers.is_empty() {
                // Victim mismatch with no private copies on either side: no
                // back-invalidation was needed or performed, the observer is
                // notified with the authoritative victim below, and the
                // worker's clone divergence is discarded at the barrier.
                dirty = evicted.meta.dirty();
            } else {
                return Err(Conflict);
            }
            if dirty {
                hierarchy.dram.write();
                hierarchy.stats.writebacks += 1;
            }
            observer.on_llc_eviction(
                evicted.line,
                evicted.meta.protected(),
                evicted.meta.accessed(),
                now,
            );
            Ok(())
        }
    }
}

/// Authoritative mirror of `Hierarchy::invalidate_other_sharers`: updates
/// the directory and charges latency, verifying that the worker invalidated
/// exactly the authoritative sharer set (all of it inside the op's shard).
/// The private-copy invalidations themselves were already performed — and
/// counted — by the worker.
fn replay_invalidate_others(
    hierarchy: &mut Hierarchy,
    core: CoreId,
    line: LineAddr,
    predicted_others: SharerSet,
    masks: &[u64],
) -> Result<Cycle, Conflict> {
    let Some(meta) = hierarchy.l3.peek(line) else {
        return if predicted_others.is_empty() {
            Ok(0)
        } else {
            Err(Conflict)
        };
    };
    let mut others = meta.sharers;
    others.remove(core);
    if others != predicted_others {
        return Err(Conflict);
    }
    if others.bits() & !masks[core.0] != 0 {
        return Err(Conflict);
    }
    if others.is_empty() {
        return Ok(0);
    }
    if let Some(meta) = hierarchy.l3.peek_mut(line) {
        meta.sharers = SharerSet::only(core);
    }
    Ok(hierarchy.config.l3.latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shard_sizes_partition_evenly() {
        assert_eq!(shard_sizes(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(shard_sizes(7, 4), vec![2, 2, 2, 1]);
        assert_eq!(shard_sizes(4, 8), vec![1, 1, 1, 1]);
        assert_eq!(shard_sizes(3, 1), vec![3]);
        assert_eq!(shard_sizes(1, 1), vec![1]);
        for (cores, shards) in [(13, 5), (64, 7), (2, 2)] {
            let sizes = shard_sizes(cores, shards);
            assert_eq!(sizes.iter().sum::<usize>(), cores);
            assert!(sizes.iter().all(|&s| s > 0));
        }
    }

    #[test]
    fn shard_masks_cover_all_cores_disjointly() {
        let masks = shard_masks(13, 5);
        assert_eq!(masks.len(), 13);
        for (core, mask) in masks.iter().enumerate() {
            assert_ne!(mask & (1 << core), 0, "core {core} not in its own mask");
        }
        // Masks of different shards are disjoint; within a shard, equal.
        let distinct: std::collections::BTreeSet<u64> = masks.iter().copied().collect();
        assert_eq!(distinct.len(), 5);
        assert_eq!(distinct.iter().fold(0, |a, m| a | m), (1 << 13) - 1);
        let or: u64 = distinct.iter().sum(); // disjoint ⇒ sum == or
        assert_eq!(or, (1 << 13) - 1);
    }

    #[test]
    fn mask_of_range_full_width() {
        assert_eq!(mask_of_range(0, 64), u64::MAX);
        assert_eq!(mask_of_range(0, 1), 1);
        assert_eq!(mask_of_range(62, 2), 0b11 << 62);
    }

    #[test]
    fn default_shard_spec_uses_host_parallelism() {
        let spec = ShardSpec::default();
        assert!(spec.shards >= 1);
        assert_eq!(spec.epoch_cycles, DEFAULT_EPOCH_CYCLES);
        let custom = ShardSpec::new(4).with_epoch_cycles(100);
        assert_eq!(custom.shards, 4);
        assert_eq!(custom.epoch_cycles, 100);
    }

    // ---- EpochWindow state machine (property tests) ----

    /// Replays a commit/rollback history against a window.
    fn replay_history(base: Cycle, history: &[bool]) -> EpochWindow {
        let mut w = EpochWindow::new(base);
        for &committed in history {
            if committed {
                w.on_commit();
            } else {
                w.on_rollback();
            }
        }
        w
    }

    proptest! {
        #[test]
        fn window_stays_within_bounds(
            base in 0u64..200_000,
            history in prop::collection::vec(any::<bool>(), 1..200),
        ) {
            let w = replay_history(base, &history);
            let effective_base = base.max(1);
            prop_assert!(w.current() >= effective_base);
            prop_assert!(w.current() <= effective_base.saturating_mul(EpochWindow::MAX_GROWTH));
            prop_assert_eq!(w.base(), effective_base);
        }

        #[test]
        fn window_resets_on_rollback_and_doubles_on_commit(
            base in 1u64..100_000,
            commits in 0usize..20,
        ) {
            let mut w = EpochWindow::new(base);
            for i in 0..commits {
                let before = w.current();
                w.on_commit();
                // Doubles exactly until the cap, then pins there.
                let expected = (before.saturating_mul(2)).min(base * EpochWindow::MAX_GROWTH);
                prop_assert_eq!(w.current(), expected);
                if i as u64 >= EpochWindow::MAX_GROWTH.trailing_zeros() as u64 {
                    prop_assert_eq!(w.current(), base * EpochWindow::MAX_GROWTH);
                }
            }
            w.on_rollback();
            prop_assert_eq!(w.current(), base);
        }

        #[test]
        fn window_depends_only_on_suffix_after_last_rollback(
            base in 1u64..10_000,
            prefix in prop::collection::vec(any::<bool>(), 0..40),
            commits_after in 0usize..10,
        ) {
            // Any history ending in a rollback followed by k commits equals
            // a fresh window with k commits: the state machine is memoryless
            // across rollbacks (what makes the window sequence — and the
            // simulation result — deterministic under rollback timing).
            let mut history = prefix.clone();
            history.push(false);
            history.extend(std::iter::repeat_n(true, commits_after));
            let with_prefix = replay_history(base, &history);
            let fresh = replay_history(base, &vec![true; commits_after]);
            prop_assert_eq!(with_prefix, fresh);
        }

        #[test]
        fn for_config_scales_window_with_llc_size(ways_scale in 1usize..16) {
            let mut config = SystemConfig::paper_default();
            config.l3.ways *= ways_scale;
            let spec = ShardSpec::for_config(&config, 4);
            prop_assert_eq!(spec.shards, 4);
            // paper_default LLC is the 4 MiB reference: the window scales
            // linearly with the ways multiplier.
            prop_assert_eq!(
                spec.epoch_cycles,
                DEFAULT_EPOCH_CYCLES * ways_scale as u64
            );
        }
    }

    #[test]
    fn zero_base_window_is_clamped_to_one_cycle() {
        let w = EpochWindow::new(0);
        assert_eq!(w.current(), 1);
        assert_eq!(w.base(), 1);
        let mut w = w;
        w.on_commit();
        assert_eq!(w.current(), 2);
    }

    #[test]
    fn saturating_base_window_never_overflows() {
        let mut w = EpochWindow::new(Cycle::MAX / 2);
        w.on_commit();
        w.on_commit();
        assert_eq!(w.current(), Cycle::MAX);
        w.on_rollback();
        assert_eq!(w.current(), Cycle::MAX / 2);
    }

    #[test]
    fn for_config_small_llcs_keep_default_window() {
        let spec = ShardSpec::for_config(&SystemConfig::small_test(), 2);
        assert_eq!(spec.epoch_cycles, DEFAULT_EPOCH_CYCLES);
    }

    #[test]
    fn scratch_reshapes_only_on_shape_change() {
        let hierarchy = Hierarchy::new(SystemConfig::small_test());
        let mut scratch = EpochScratch::new();
        scratch.prepare(&hierarchy, 2);
        assert_eq!(scratch.shards.len(), 2);
        assert_eq!(scratch.verify.len(), 2);
        let sets = hierarchy.l3.geometry().sets;
        assert_eq!(scratch.verify[0].set_lo, 0);
        assert_eq!(scratch.verify.last().expect("workers").set_hi, sets);
        // Verify ranges tile the sets exactly.
        for pair in scratch.verify.windows(2) {
            assert_eq!(pair[0].set_hi, pair[1].set_lo);
        }
        let id1 = scratch.begin_epoch();
        scratch.prepare(&hierarchy, 2); // same shape: nothing rebuilt
        let id2 = scratch.begin_epoch();
        assert_eq!(id2, id1 + 1, "epoch ids must survive same-shape prepare");
        scratch.prepare(&hierarchy, 1); // reshape
        assert_eq!(scratch.shards.len(), 1);
        assert_eq!(scratch.verify.len(), 1);
    }
}
