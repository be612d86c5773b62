//! The unified sweep engine behind every figure harness.
//!
//! Each figure and table of the paper is regenerated by evaluating a grid of
//! independent *cells* — a cell is one self-contained experiment (a system
//! configuration + monitor configuration + workload + seed, or a filter
//! microbenchmark, or one attack run). Cells never share mutable state, so
//! the grid is embarrassingly parallel at the harness level.
//!
//! Two layers:
//!
//! * [`run_cells`] — the generic executor: runs any slice of cells either
//!   sequentially or fanned across host threads (`std::thread::scope` plus an
//!   atomic work queue). Results always come back in cell order and each
//!   cell's result is bit-identical between the two modes, because a cell
//!   constructs every piece of simulator state it touches.
//! * [`Sweep`] over [`MixCell`] — the declarative layer for `System::run`
//!   mix replays (Fig. 8, §VII-C sensitivity, replacement ablation). It
//!   memoizes baseline (unprotected) runs keyed on
//!   `(system config, mix, instructions, seed)`: Fig. 8 evaluates five filter
//!   geometries against the same ten baselines, so memoization cuts the
//!   baseline work 5×.
//!
//! Parallelism is only ever *across* cells, never inside a `System` — the
//! simulated schedule of every cell is exactly the one the old sequential
//! harness loops produced, which `crates/bench/tests/sweep_regression.rs`
//! pins.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cache_sim::{SimReport, SystemConfig};
use pipo_workloads::Mix;
use pipomonitor::{MonitorConfig, MonitorStats};

use crate::store::{baseline_cell_key, mix_cell_key, ResultStore};
use crate::{mix_run_from_parts, run_mix_baseline_on, run_mix_monitored_only, MixRun};

/// How a sweep executes its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One cell at a time, on the calling thread (the pre-engine behaviour).
    Sequential,
    /// Cells fanned across this many worker threads via a work queue.
    Parallel(NonZeroUsize),
}

impl ExecMode {
    /// Parallel across all host cores, or sequential on a single-core host.
    #[must_use]
    pub fn host_default() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => Self::Parallel(n),
            _ => Self::Sequential,
        }
    }

    /// Parallel with an explicit thread count (`<= 1` means sequential).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(n) if n.get() > 1 => Self::Parallel(n),
            _ => Self::Sequential,
        }
    }

    /// Number of worker threads this mode uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            Self::Sequential => 1,
            Self::Parallel(n) => n.get(),
        }
    }

    /// `"sequential"` or `"parallel"`, for reports and JSON output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Sequential => "sequential",
            Self::Parallel(_) => "parallel",
        }
    }
}

/// Runs every cell through `run` and returns the results in cell order.
///
/// `run` receives `(cell index, cell)` and must be a pure function of them:
/// it is invoked exactly once per cell, from an unspecified thread in
/// [`ExecMode::Parallel`]. Execution order is unspecified in parallel mode;
/// result order is always cell order, so output built from the returned
/// `Vec` is identical in both modes.
///
/// # Panics
///
/// Propagates a panic from any cell (the scoped worker threads join first).
pub fn run_cells<C, R, F>(mode: ExecMode, cells: &[C], run: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    match mode {
        ExecMode::Sequential => cells.iter().enumerate().map(|(i, c)| run(i, c)).collect(),
        ExecMode::Parallel(threads) => {
            let workers = threads.get().min(cells.len());
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<R>>> = (0..cells.len()).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let result = run(i, cell);
                        *slots[i].lock().expect("result slot not poisoned") = Some(result);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot not poisoned")
                        .expect("every cell ran")
                })
                .collect()
        }
    }
}

/// One monitored mix replay: the unit of work of the `System::run` figures.
///
/// The seed is part of the cell, so per-cell results are deterministic
/// regardless of which worker thread evaluates the cell or in what order.
#[derive(Debug, Clone)]
pub struct MixCell {
    /// Human-readable label carried into reports (e.g. `"1024x8/mix3"`).
    pub label: String,
    /// Simulated machine configuration.
    pub system: SystemConfig,
    /// PiPoMonitor configuration for the protected run.
    pub monitor: MonitorConfig,
    /// Workload mix replayed on both the baseline and the protected system.
    pub mix: Mix,
    /// Instructions simulated per core.
    pub instructions: u64,
    /// Workload seed shared by the baseline and protected runs.
    pub seed: u64,
}

impl MixCell {
    /// A cell on the paper's default system configuration.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        mix: Mix,
        monitor: MonitorConfig,
        instructions: u64,
        seed: u64,
    ) -> Self {
        Self {
            label: label.into(),
            system: SystemConfig::paper_default(),
            monitor,
            mix,
            instructions,
            seed,
        }
    }

    /// Replaces the system configuration (used by the replacement ablation).
    #[must_use]
    pub fn on_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }
}

/// A declarative grid of [`MixCell`]s evaluated together.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    cells: Vec<MixCell>,
}

impl Sweep {
    /// An empty sweep.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: MixCell) {
        self.cells.push(cell);
    }

    /// The cells, in insertion order.
    #[must_use]
    pub fn cells(&self) -> &[MixCell] {
        &self.cells
    }

    /// Evaluates every cell and returns one [`MixRun`] per cell, in cell
    /// order.
    ///
    /// Baseline (unprotected) runs are memoized on the canonical baseline
    /// key ([`baseline_cell_key`]: system config, mix, instructions, seed):
    /// cells differing only in monitor configuration share one baseline
    /// simulation. Baseline and monitored simulations go into one work queue
    /// (results only join at the end, so there is no barrier between the two
    /// kinds) and fan across `mode`'s worker threads.
    #[must_use]
    pub fn run(&self, mode: ExecMode) -> Vec<MixRun> {
        self.run_with_store(mode, None).0
    }

    /// [`run`](Self::run), additionally answering cells out of a persistent
    /// [`ResultStore`] and writing every newly computed cell back into it.
    ///
    /// A cell whose canonical key ([`mix_cell_key`]) resolves to a stored,
    /// parsable record is a *warm* cell: its [`MixRun`] is decoded straight
    /// from the store and no simulation runs. Cold cells simulate exactly as
    /// in [`run`](Self::run) — including the baseline memoization, now
    /// restricted to cold cells — and their results are `put` back, keyed
    /// identically, so the next invocation reading the same store answers
    /// them warm. The caller is responsible
    /// for [`ResultStore::flush`]; per-cell results are bit-identical with
    /// and without a store.
    #[must_use]
    pub fn run_with_store(
        &self,
        mode: ExecMode,
        mut store: Option<&mut ResultStore>,
    ) -> (Vec<MixRun>, SweepStoreOutcome) {
        // Warm lookups first: a hit skips both halves of the cell's work.
        let keys: Vec<Option<String>> = self
            .cells
            .iter()
            .map(|cell| store.is_some().then(|| mix_cell_key(cell)))
            .collect();
        let mut results: Vec<Option<MixRun>> = self
            .cells
            .iter()
            .zip(&keys)
            .map(|(cell, key)| {
                let store = store.as_deref_mut()?;
                let payload = store.get(key.as_deref().expect("key built when store present"))?;
                MixRun::from_stored(cell.mix.name, payload)
            })
            .collect();
        let outcome = SweepStoreOutcome {
            hits: results.iter().flatten().count(),
            misses: results.iter().filter(|r| r.is_none()).count(),
        };

        // Dedup the cold cells' baselines on the canonical baseline key;
        // remember each cold cell's baseline slot.
        let cold: Vec<usize> = (0..self.cells.len())
            .filter(|&i| results[i].is_none())
            .collect();
        let mut baseline_slots: HashMap<String, usize> = HashMap::new();
        let mut baseline_cells: Vec<&MixCell> = Vec::new();
        let mut baseline_of_cold = Vec::with_capacity(cold.len());
        for &i in &cold {
            let cell = &self.cells[i];
            let key = baseline_cell_key(&cell.system, &cell.mix, cell.instructions, cell.seed);
            let slot = *baseline_slots.entry(key).or_insert_with(|| {
                baseline_cells.push(cell);
                baseline_cells.len() - 1
            });
            baseline_of_cold.push(slot);
        }

        enum Work<'a> {
            Baseline(&'a MixCell),
            Monitored(&'a MixCell),
        }
        enum Done {
            Baseline(SimReport),
            Monitored(SimReport, MonitorStats),
        }
        let work: Vec<Work> = baseline_cells
            .iter()
            .map(|cell| Work::Baseline(cell))
            .chain(cold.iter().map(|&i| Work::Monitored(&self.cells[i])))
            .collect();
        let mut done = run_cells(mode, &work, |_, work| match work {
            Work::Baseline(cell) => Done::Baseline(run_mix_baseline_on(
                &cell.mix,
                cell.system.clone(),
                cell.instructions,
                cell.seed,
            )),
            Work::Monitored(cell) => {
                let (report, stats) = run_mix_monitored_only(
                    &cell.mix,
                    cell.system.clone(),
                    cell.monitor,
                    cell.instructions,
                    cell.seed,
                );
                Done::Monitored(report, stats)
            }
        });

        let monitored = done.split_off(baseline_cells.len());
        let baselines: Vec<SimReport> = done
            .into_iter()
            .map(|done| match done {
                Done::Baseline(report) => report,
                Done::Monitored(..) => unreachable!("baseline slots hold baseline results"),
            })
            .collect();
        for ((&i, done), &slot) in cold.iter().zip(monitored).zip(&baseline_of_cold) {
            let Done::Monitored(report, stats) = done else {
                unreachable!("monitored slots hold monitored results")
            };
            let cell = &self.cells[i];
            let run = mix_run_from_parts(cell.mix.name, &baselines[slot], &report, &stats);
            if let Some(store) = store.as_deref_mut() {
                let key = keys[i].as_deref().expect("key built when store present");
                store.put(key, &run.to_json().to_pretty());
            }
            results[i] = Some(run);
        }
        let runs = results
            .into_iter()
            .map(|run| run.expect("every cell is either warm or computed"))
            .collect();
        (runs, outcome)
    }
}

/// How many of a sweep's cells a [`ResultStore`] answered vs simulated
/// (all-miss when no store was given).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStoreOutcome {
    /// Cells answered from the persistent store without simulating.
    pub hits: usize,
    /// Cells that had to be simulated (and were written back).
    pub misses: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipo_workloads::all_mixes;

    #[test]
    fn exec_mode_threads_and_names() {
        assert_eq!(ExecMode::Sequential.threads(), 1);
        assert_eq!(ExecMode::Sequential.name(), "sequential");
        assert_eq!(ExecMode::with_threads(0), ExecMode::Sequential);
        assert_eq!(ExecMode::with_threads(1), ExecMode::Sequential);
        let par = ExecMode::with_threads(3);
        assert_eq!(par.threads(), 3);
        assert_eq!(par.name(), "parallel");
        assert!(ExecMode::host_default().threads() >= 1);
    }

    #[test]
    fn run_cells_preserves_cell_order() {
        let cells: Vec<u64> = (0..37).collect();
        let square = |_: usize, c: &u64| c * c;
        let seq = run_cells(ExecMode::Sequential, &cells, square);
        let par = run_cells(ExecMode::with_threads(4), &cells, square);
        assert_eq!(seq, par);
        assert_eq!(seq[6], 36);
    }

    #[test]
    fn run_cells_with_more_threads_than_cells() {
        let cells = [10u64, 20];
        let out = run_cells(ExecMode::with_threads(16), &cells, |i, c| c + i as u64);
        assert_eq!(out, vec![10, 21]);
    }

    #[test]
    fn run_cells_on_empty_grid() {
        let cells: [u64; 0] = [];
        let out = run_cells(ExecMode::with_threads(4), &cells, |_, c| *c);
        assert!(out.is_empty());
    }

    #[test]
    fn run_cells_runs_each_cell_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_cells(ExecMode::with_threads(5), &counters, |_, c| {
            c.fetch_add(1, Ordering::Relaxed)
        });
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn sweep_memoizes_baselines_across_monitor_configs() {
        let mix = all_mixes()[2]; // mix3: light, fast
        let mut sweep = Sweep::new();
        for delay in [50, 100] {
            sweep.push(MixCell::new(
                format!("delay{delay}"),
                mix,
                MonitorConfig::paper_default().with_prefetch_delay(delay),
                20_000,
                1,
            ));
        }
        // Two cells, one shared baseline: identical baseline cycles, and both
        // match a direct unshared run.
        let runs = sweep.run(ExecMode::Sequential);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].baseline_cycles, runs[1].baseline_cycles);
        let direct = crate::run_mix_monitored(&mix, MonitorConfig::paper_default(), 20_000, 1);
        assert_eq!(runs[0].baseline_cycles, direct.baseline_cycles);
        assert_eq!(runs[0].monitored_cycles, direct.monitored_cycles);
    }

    #[test]
    fn sweep_answers_warm_cells_from_the_store() {
        let path =
            std::env::temp_dir().join(format!("pipo_sweep_store_{}.log", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mix = all_mixes()[2]; // mix3: light, fast
        let mut sweep = Sweep::new();
        for delay in [50, 100] {
            sweep.push(MixCell::new(
                format!("delay{delay}"),
                mix,
                MonitorConfig::paper_default().with_prefetch_delay(delay),
                20_000,
                1,
            ));
        }

        let mut store = ResultStore::open(&path).expect("open fresh store");
        let (cold, outcome) = sweep.run_with_store(ExecMode::Sequential, Some(&mut store));
        assert_eq!((outcome.hits, outcome.misses), (0, 2));
        store.flush().expect("flush");

        // A fresh process over the same store answers everything warm, and
        // the decoded runs are identical to the computed ones. A third cell
        // forces a mixed warm/cold sweep.
        let mut store = ResultStore::open(&path).expect("reopen store");
        let (warm, outcome) = sweep.run_with_store(ExecMode::Sequential, Some(&mut store));
        assert_eq!((outcome.hits, outcome.misses), (2, 0));
        assert_eq!(warm, cold);
        assert_eq!(
            warm,
            sweep.run(ExecMode::Sequential),
            "store must not change results"
        );

        let mut sweep3 = sweep.clone();
        sweep3.push(MixCell::new(
            "delay200",
            mix,
            MonitorConfig::paper_default().with_prefetch_delay(200),
            20_000,
            1,
        ));
        let (mixed, outcome) = sweep3.run_with_store(ExecMode::with_threads(2), Some(&mut store));
        assert_eq!((outcome.hits, outcome.misses), (2, 1));
        assert_eq!(&mixed[..2], &warm[..]);
        std::fs::remove_file(&path).ok();
    }
}
