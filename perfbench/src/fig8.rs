//! `fig8_sweep`: the Fig. 8 grid — 10 mixes × 5 filter sizes on the paper's
//! 4-core system — at a tenth of the figure's default scale.
//!
//! At the default 2 M instructions per core one cold sweep took 6–11 s on
//! a shared 2-vCPU Xeon VM, so a 30-second run held three of
//! them: too few samples of each part of the sweep for a steady per-part
//! 90th percentile (see `stats::sum_of_p90`). At a tenth of the scale a run
//! holds about thirty passes of the same cells, layers and memoization.
//!
//! An untraced pass sets up (the grid, its per-mix parts and simulation
//! plan, and a fresh store), runs the figure's cold sweep into that store,
//! puts and flush included, as one `Sweep::run_with_store` call per mix (a
//! mix's five cells share its baseline, so the ten calls simulate exactly
//! what one call over the grid does), and reopens the store for warm passes
//! that must answer the whole grid identically. It then runs the same 10
//! baseline and 50 monitored simulations directly, timing each
//! `System::run` and each system's build, and must reproduce the sweep's
//! answers.
//!
//! The traced pass runs those direct simulations with every layer wrapped,
//! plus this benchmark's own `ResultStore` calls standing in for the
//! sweep's: a miss per cell, a put per result, flush, reopen, a hit per
//! cell, and a warm `Sweep::run_with_store` over the records it wrote.
//! Traced passes alternate with untraced direct passes, which must give the
//! cold sweep's answers and the reports the traced ones must reproduce.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cache_sim::{AccessSource, NullObserver, SimReport};
use pipo_bench::store::baseline_cell_key;
use pipo_bench::{
    fig8_filter_sizes, filter_with_size, mix_cell_key, ExecMode, MixCell, MixRun, ResultStore,
    Sweep, SweepStoreOutcome, DEFAULT_INSTRUCTIONS,
};
use pipo_workloads::{all_mixes, Mix, ProfileSource};
use pipomonitor::{MonitorConfig, MonitorStats, PiPoMonitor};

use crate::sim::{self, Tally};
use crate::stats::{median, ratio, sum_of_p90};
use crate::trace::{self, Layer, TracedMonitor};
use crate::{fold_layers, out_dir, Checks, LayerSample, Opts, Outcome};

/// `fig8_performance`'s seed.
pub const DEFAULT_SEED: u64 = 42;

/// Instructions per core: a tenth of the figure's default scale.
const INSTRUCTIONS: u64 = DEFAULT_INSTRUCTIONS / 10;

/// Untraced passes per run, at least: each run's times are sums over a
/// pass's parts (the ten per-mix sweep calls and the flush; the 60
/// `System::run` calls) of each part's 90th-percentile pass.
const MIN_PASSES: usize = 3;

/// Warm passes after each cold sweep.
const WARM_PASSES: usize = 5;

/// The Fig. 8 grid as `fig8_performance` declares it, at [`INSTRUCTIONS`].
fn grid(seed: u64) -> Sweep {
    let mut sweep = Sweep::new();
    for (l, b) in fig8_filter_sizes() {
        let config = MonitorConfig::paper_default().with_filter(filter_with_size(l, b));
        for mix in all_mixes() {
            sweep.push(MixCell::new(
                format!("{l}x{b}/{}", mix.name),
                mix,
                config,
                INSTRUCTIONS,
                seed,
            ));
        }
    }
    sweep
}

fn sources(mix: &Mix, seed: u64) -> Vec<Box<dyn AccessSource + Send>> {
    mix.benchmarks
        .iter()
        .enumerate()
        .map(|(core, bench)| {
            Box::new(ProfileSource::new(bench, core, seed)) as Box<dyn AccessSource + Send>
        })
        .collect()
}

/// The simulations a cold sweep performs: each distinct baseline once (on
/// the sweep's own memoization key), then one monitored run per cell.
struct Plan {
    /// Cell index of each distinct baseline's first cell.
    baselines: Vec<usize>,
    /// Per cell, its baseline's slot in `baselines`.
    baseline_of: Vec<usize>,
}

fn plan(sweep: &Sweep) -> Plan {
    let mut slots: HashMap<String, usize> = HashMap::new();
    let mut baselines = Vec::new();
    let baseline_of = sweep
        .cells()
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let key = baseline_cell_key(&cell.system, &cell.mix, cell.instructions, cell.seed);
            *slots.entry(key).or_insert_with(|| {
                baselines.push(i);
                baselines.len() - 1
            })
        })
        .collect();
    Plan {
        baselines,
        baseline_of,
    }
}

fn store_path() -> PathBuf {
    out_dir().join("fig8-store.log")
}

/// The grid, split by mix (see [`parts`]), and its simulation plan.
struct Setup {
    grid: Sweep,
    parts: Vec<(Sweep, Vec<usize>)>,
    plan: Plan,
}

/// Builds the grid, its per-mix parts and plan, and opens a fresh store for
/// the cold sweep; returns them with the seconds this took.
fn setup(seed: u64, path: &Path) -> (Setup, ResultStore, f64) {
    let started = Instant::now();
    let grid = grid(seed);
    let parts = parts(&grid);
    let plan = plan(&grid);
    let _ = std::fs::remove_file(path);
    let store = ResultStore::open(path).expect("open a fresh store");
    let setup = Setup { grid, parts, plan };
    (setup, store, started.elapsed().as_secs_f64())
}

fn cells_json(runs: &[MixRun]) -> Vec<String> {
    runs.iter().map(|r| r.to_json().to_line()).collect()
}

/// One pass's answers, compared cell by cell against the first pass's.
fn compare(checks: &mut Checks, what: &str, got: &[String], reference: &[String]) {
    for (i, (got, want)) in got.iter().zip(reference).enumerate() {
        checks.op(got == want, || {
            format!("{what}: cell {i} is {got}, expected {want}")
        });
    }
    checks.op(got.len() == reference.len(), || {
        format!("{what}: {} cells, expected {}", got.len(), reference.len())
    });
}

/// The grid split by mix: one sweep per mix over the five filter sizes, and
/// each cell's index in the grid.
fn parts(grid: &Sweep) -> Vec<(Sweep, Vec<usize>)> {
    let mut parts: Vec<(Sweep, Vec<usize>)> = Vec::new();
    for (i, cell) in grid.cells().iter().enumerate() {
        let part = parts
            .iter_mut()
            .find(|(sweep, _)| sweep.cells()[0].mix.name == cell.mix.name);
        match part {
            Some((sweep, cells)) => {
                sweep.push(cell.clone());
                cells.push(i);
            }
            None => {
                let mut sweep = Sweep::new();
                sweep.push(cell.clone());
                parts.push((sweep, vec![i]));
            }
        }
    }
    parts
}

/// A cold sweep of the grid: one `Sweep::run_with_store` call per part into
/// a fresh store, then flush. Returns the answers in grid order and the
/// seconds of each part, with the flush last.
fn cold_pass(
    setup: &Setup,
    mut store: ResultStore,
    checks: &mut Checks,
) -> (Vec<String>, Vec<f64>) {
    let mut answers = vec![String::new(); setup.grid.cells().len()];
    let mut secs = Vec::with_capacity(setup.parts.len() + 1);
    for (sweep, indices) in &setup.parts {
        let started = Instant::now();
        let (runs, outcome) = sweep.run_with_store(ExecMode::Sequential, Some(&mut store));
        secs.push(started.elapsed().as_secs_f64());
        checks.op(outcome.hits == 0 && outcome.misses == runs.len(), || {
            format!("cold sweep: {outcome:?}")
        });
        for (&i, run) in indices.iter().zip(&runs) {
            answers[i] = run.to_json().to_line();
        }
    }
    let started = Instant::now();
    store.flush().expect("flush the store");
    secs.push(started.elapsed().as_secs_f64());
    (answers, secs)
}

/// Reopens the store and answers the whole grid from it.
fn warm_sweep(sweep: &Sweep, path: &Path) -> (Vec<MixRun>, SweepStoreOutcome) {
    let mut store = ResultStore::open(path).expect("reopen the store");
    sweep.run_with_store(ExecMode::Sequential, Some(&mut store))
}

/// Accesses one cold sweep simulates. A core stops at the first access that
/// brings its retired instructions (think cycles plus one per access) to the
/// quota, so the count follows from the sources alone; a cell's baseline and
/// monitored runs draw the same sources.
fn accesses(grid: &Sweep, plan: &Plan) -> u64 {
    let cells = grid.cells();
    plan.baselines
        .iter()
        .enumerate()
        .map(|(slot, &i)| {
            let cell = &cells[i];
            let per_run: u64 = sources(&cell.mix, cell.seed)
                .into_iter()
                .map(|mut source| {
                    let (mut retired, mut count) = (0, 0);
                    while retired < cell.instructions {
                        let access = source.next_access().expect("profile sources never run dry");
                        retired += access.think_cycles + 1;
                        count += 1;
                    }
                    count
                })
                .sum();
            let runs = 1 + plan.baseline_of.iter().filter(|&&s| s == slot).count() as u64;
            per_run * runs
        })
        .sum()
}

/// The direct pass: every simulation of a cold sweep, run by this benchmark.
struct Direct {
    runs: Vec<MixRun>,
    /// Baseline reports, then monitored reports, in plan order.
    reports: Vec<String>,
    stats: Vec<MonitorStats>,
    /// `System::run` nanoseconds of each simulation, in `reports` order.
    run_ns: Vec<f64>,
    /// Seconds spent building the systems with their sources and monitors.
    build_s: f64,
    executed: u64,
}

fn mix_run(
    mix: &'static str,
    baseline: &SimReport,
    monitored: &SimReport,
    stats: &MonitorStats,
) -> MixRun {
    MixRun {
        mix,
        baseline_cycles: baseline.makespan(),
        monitored_cycles: monitored.makespan(),
        instructions: monitored.total_instructions(),
        captures: stats.captures,
        prefetches: stats.prefetches_scheduled,
        prefetch_hits: monitored.stats.prefetch_hits,
    }
}

/// Runs the plan. With `tally`, every layer is traced into it, and each
/// baseline's access streams are replayed through a bare hierarchy.
fn direct(
    sweep: &Sweep,
    plan: &Plan,
    checks: &mut Checks,
    mut tally: Option<&mut Tally>,
) -> Direct {
    let traced = tally.is_some();
    let cells = sweep.cells();
    let mut out = Direct {
        runs: Vec::with_capacity(cells.len()),
        reports: Vec::new(),
        stats: Vec::new(),
        run_ns: Vec::with_capacity(plan.baselines.len() + cells.len()),
        build_s: 0.0,
        executed: 0,
    };
    let mut streams: Vec<Vec<cache_sim::Access>> = Vec::new();
    let mut baselines = Vec::with_capacity(plan.baselines.len());
    for (slot, &i) in plan.baselines.iter().enumerate() {
        let cell = &cells[i];
        if traced {
            // Baselines are numbered after the cells.
            trace::set_cell(cells.len() + slot);
        }
        let started = Instant::now();
        let sources = sources(&cell.mix, cell.seed);
        let mut system = sim::build(&cell.system, NullObserver, sources, traced, traced);
        out.build_s += started.elapsed().as_secs_f64();
        let run = sim::run(&mut system, cell.instructions, traced);
        if let Some(tally) = tally.as_deref_mut() {
            tally.add_run(&run);
            streams.resize_with(cell.system.cores, Vec::new);
            trace::take_recorded(&mut streams);
            sim::replay(&cell.system, &streams);
        }
        out.run_ns.push(run.ns as f64);
        out.executed += sim::executed(&run.report);
        out.reports.push(sim::fingerprint(&run.report));
        baselines.push(run.report);
    }
    let mut fetched = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let started = Instant::now();
        let monitor = PiPoMonitor::new(cell.monitor).expect("valid monitor configuration");
        let sources = sources(&cell.mix, cell.seed);
        let (run, stats) = if let Some(tally) = tally.as_deref_mut() {
            trace::set_cell(i);
            let observer = TracedMonitor::new(monitor, std::mem::take(&mut fetched), 0..0);
            let mut system = sim::build(&cell.system, observer, sources, true, false);
            out.build_s += started.elapsed().as_secs_f64();
            let run = sim::run(&mut system, cell.instructions, true);
            let observer = system.observer();
            let consistent = sim::monitor_consistent(&run.report, observer);
            checks.op(consistent.is_ok(), || {
                format!("cell {i}: {}", consistent.unwrap_err())
            });
            tally.add_run(&run);
            tally.add_monitor(observer);
            let stats = *observer.monitor.stats();
            tally.add_cell(&baselines[plan.baseline_of[i]], &run.report, stats.captures);
            fetched = std::mem::take(&mut system.observer_mut().fetched);
            (run, stats)
        } else {
            let mut system = sim::build(&cell.system, monitor, sources, false, false);
            out.build_s += started.elapsed().as_secs_f64();
            let run = sim::run(&mut system, cell.instructions, false);
            let stats = *system.observer().stats();
            let fetches = run.report.stats.total_memory_fetches();
            checks.op(stats.fetches_observed == fetches, || {
                format!(
                    "cell {i}: monitor observed {} of {fetches} fetches",
                    stats.fetches_observed
                )
            });
            (run, stats)
        };
        out.run_ns.push(run.ns as f64);
        out.executed += sim::executed(&run.report);
        out.reports.push(sim::fingerprint(&run.report));
        out.stats.push(stats);
        out.runs.push(mix_run(
            cell.mix.name,
            &baselines[plan.baseline_of[i]],
            &run.report,
            &stats,
        ));
    }
    out
}

fn us(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}

/// This benchmark's own store calls around a traced direct pass; returns the
/// pass's answers.
fn traced_pass(sweep: &Sweep, plan: &Plan, checks: &mut Checks) -> (Direct, LayerSample) {
    let path = store_path();
    let mut tally = Tally::default();
    let since = sim::mark();
    trace::begin(Layer::Pass);

    let _ = std::fs::remove_file(&path);
    let keys: Vec<String> = sweep.cells().iter().map(mix_cell_key).collect();
    let t0 = Instant::now();
    let mut store = ResultStore::open(&path).expect("open a fresh store");
    trace::record(Layer::StoreOpen, t0, Instant::now(), 0);
    for (i, key) in keys.iter().enumerate() {
        let t0 = Instant::now();
        let hit = store.get(key).is_some();
        trace::record(Layer::StoreGet, t0, Instant::now(), 0);
        checks.op(!hit, || format!("cell {i} found in a fresh store"));
    }

    let direct = direct(sweep, plan, checks, Some(&mut tally));

    let payloads: Vec<String> = direct
        .runs
        .iter()
        .map(|r| r.to_json().to_pretty())
        .collect();
    let mut put_us = Vec::with_capacity(keys.len());
    for (key, payload) in keys.iter().zip(&payloads) {
        let t0 = Instant::now();
        store.put(key, payload);
        let t1 = Instant::now();
        trace::record(Layer::StorePut, t0, t1, 0);
        put_us.push(us(t0, t1));
    }
    let t0 = Instant::now();
    store.flush().expect("flush the store");
    let t1 = Instant::now();
    trace::record(Layer::StoreFlush, t0, t1, 0);
    let flush_ms = us(t0, t1) / 1e3;
    let misses = store.telemetry().misses;
    let bytes = store.bytes();
    drop(store);

    // Reopen: recovery of every record, then one hit per cell.
    let t0 = Instant::now();
    let mut store = ResultStore::open(&path).expect("reopen the store");
    let t1 = Instant::now();
    trace::record(Layer::StoreOpen, t0, t1, 0);
    let open_ms = us(t0, t1) / 1e3;
    let mut get_us = Vec::with_capacity(keys.len());
    for (i, (key, payload)) in keys.iter().zip(&payloads).enumerate() {
        let t0 = Instant::now();
        let warm = store.get(key).map(str::to_owned);
        let t1 = Instant::now();
        trace::record(Layer::StoreGet, t0, t1, 0);
        get_us.push(us(t0, t1));
        checks.op(warm.as_deref() == Some(payload.as_str()), || {
            format!("cell {i}: warm record differs from the cold one")
        });
    }
    drop(store);

    // The sweep answers every cell warm from the records written above.
    let t0 = Instant::now();
    let (warm, outcome) = warm_sweep(sweep, &path);
    let t1 = Instant::now();
    trace::record(Layer::SweepWarm, t0, t1, 0);
    checks.op(outcome.hits == keys.len() && outcome.misses == 0, || {
        format!("warm sweep: {outcome:?}")
    });
    compare(
        checks,
        "warm sweep",
        &cells_json(&warm),
        &cells_json(&direct.runs),
    );
    trace::end(Layer::Pass);

    let mut sample = tally.sample(&since);
    sample.count("sweep.cells", keys.len() as f64);
    sample.count("sweep.baselines_simulated", plan.baselines.len() as f64);
    sample.count("sweep.monitored_simulated", direct.runs.len() as f64);
    sample.time("sweep.warm_ms", us(t0, t1) / 1e3);
    sample.time("store.open_ms", open_ms);
    sample.time("store.get_us", median(&mut get_us));
    sample.time("store.put_us", median(&mut put_us));
    sample.time("store.flush_ms", flush_ms);
    sample.count("store.hits", outcome.hits as f64);
    sample.count("store.misses", misses as f64);
    sample.count("store.bytes", bytes as f64);
    (direct, sample)
}

/// Checks an untraced direct pass: it must simulate the accesses the
/// sources predict, give the sweep's answers, and repeat the run's first
/// direct pass, which it becomes if there is none yet.
fn check_direct(
    checks: &mut Checks,
    direct: Direct,
    accesses: u64,
    swept: &[String],
    first: &mut Option<Direct>,
) {
    checks.op(direct.executed == accesses, || {
        format!(
            "{} accesses simulated, {accesses} expected",
            direct.executed
        )
    });
    compare(checks, "direct pass", &cells_json(&direct.runs), swept);
    match first {
        Some(first) => checks.op(
            first.reports == direct.reports && first.stats == direct.stats,
            || "untraced direct passes differ".to_string(),
        ),
        None => *first = Some(direct),
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let path = store_path();
    std::fs::create_dir_all(out_dir()).expect("create the output directory");
    let accesses = {
        let grid = grid(opts.seed);
        accesses(&grid, &plan(&grid))
    };
    let mut checks = Checks::default();
    let mut metrics = std::collections::BTreeMap::new();
    let mut first: Option<Direct> = None;
    let started = Instant::now();

    if !opts.trace {
        let mut swept: Option<Vec<String>> = None;
        let (mut setups, mut sweep_secs, mut run_secs) = (Vec::new(), Vec::new(), Vec::new());
        for pass in 0.. {
            if !opts.another(started, pass, MIN_PASSES) {
                break;
            }
            let (setup, store, setup_s) = setup(opts.seed, &path);
            let (cold, secs) = cold_pass(&setup, store, &mut checks);
            sweep_secs.push(secs);
            for _ in 0..WARM_PASSES {
                let (warm, outcome) = warm_sweep(&setup.grid, &path);
                checks.op(outcome.hits == cold.len() && outcome.misses == 0, || {
                    format!("warm sweep: {outcome:?}")
                });
                compare(&mut checks, "warm sweep", &cells_json(&warm), &cold);
            }
            let swept = match &swept {
                Some(reference) => {
                    compare(&mut checks, &format!("pass {pass}"), &cold, reference);
                    reference
                }
                None => swept.insert(cold),
            };
            let direct = direct(&setup.grid, &setup.plan, &mut checks, None);
            setups.push(setup_s + direct.build_s);
            run_secs.push(direct.run_ns.iter().map(|ns| ns / 1e9).collect());
            check_direct(&mut checks, direct, accesses, swept, &mut first);
        }
        metrics.insert("setup_s".into(), median(&mut setups));
        metrics.insert("wall_s".into(), sum_of_p90(&sweep_secs));
        metrics.insert(
            "maccess_per_s".into(),
            accesses as f64 / sum_of_p90(&run_secs) / 1e6,
        );
        let _ = std::fs::remove_file(&path);
        return Outcome { checks, metrics };
    }

    // The answers the direct passes must reproduce: the sweep's own.
    let (setup, store, _) = setup(opts.seed, &path);
    let (swept, _) = cold_pass(&setup, store, &mut checks);
    trace::start(setup.grid.cells()[0].system.cores);
    let timer_ns = trace::timer_ns();
    let (mut untraced_ns, mut traced_ns, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0.. {
        if !opts.another(started, pass, 2) {
            break;
        }
        if pass % 2 == 0 {
            let direct = direct(&setup.grid, &setup.plan, &mut checks, None);
            untraced_ns.push(direct.run_ns.iter().sum::<f64>());
            check_direct(&mut checks, direct, accesses, &swept, &mut first);
        } else {
            let (direct, sample) = traced_pass(&setup.grid, &setup.plan, &mut checks);
            let base = first.as_ref().expect("an untraced pass ran first");
            for (i, (got, want)) in direct.reports.iter().zip(&base.reports).enumerate() {
                checks.op(got == want, || {
                    format!("traced report {i} differs from untraced")
                });
            }
            checks.op(direct.stats == base.stats, || {
                "traced monitor statistics differ from untraced".to_string()
            });
            compare(
                &mut checks,
                "traced pass",
                &cells_json(&direct.runs),
                &cells_json(&base.runs),
            );
            traced_ns.push(direct.run_ns.iter().sum::<f64>());
            layers.push(sample);
        }
    }
    let _ = std::fs::remove_file(&path);
    metrics = fold_layers(&layers, &mut checks);
    metrics.insert("trace.timer_ns".into(), timer_ns);
    let overhead = ratio(median(&mut traced_ns), median(&mut untraced_ns)) - 1.0;
    metrics.insert("trace.overhead_pct".into(), overhead * 100.0);
    Outcome { checks, metrics }
}
