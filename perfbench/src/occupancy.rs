//! `occupancy_attack`: `trace_replay`'s `occupancy_channel` scenario, at a
//! tenth of its default scale. Core 0 sweeps `ways + 1` aliasing lines over
//! 64 LLC sets while cores 1–3 run gcc, mcf and libquantum; one pass runs
//! the unprotected baseline and then the PiPoMonitor system on the same
//! inputs.
//!
//! Nearly every core-0 access misses to memory, so the monitor (a query per
//! fetch, `pEvict`, prefetch scheduling and draining) and the hierarchy's
//! miss path do the work. At the default 2 M instructions per core a pass
//! took 0.4–1.1 s and a whole run could pass without one uncontended pass
//! (see `stats::sum_of_min`); at a tenth a run holds about a thousand.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use cache_sim::{AccessSource, NullObserver, SystemConfig};
use pipo_attacks::OccupancyChannelSource;
use pipo_bench::DEFAULT_INSTRUCTIONS;
use pipo_workloads::{benchmark, ProfileSource};
use pipomonitor::{MonitorConfig, MonitorStats, PiPoMonitor};

use crate::sim::{self, Tally};
use crate::stats::{median, ratio, sum_of_min};
use crate::trace::{self, Layer, TracedMonitor};
use crate::{fold_layers, Checks, LayerSample, Opts, Outcome};

/// `trace_replay`'s seed.
pub const DEFAULT_SEED: u64 = 2126;

/// Instructions per core: a tenth of `trace_replay`'s default scale.
const INSTRUCTIONS: u64 = DEFAULT_INSTRUCTIONS / 10;

/// `trace_replay`'s occupancy probe: LLC sets probed, the probe's base line
/// (above every benign region, a multiple of the set count), think cycles.
const PROBE_SETS: u64 = 64;
const BASE_LINE: u64 = 48 << 36;
const THINK: u64 = 2;

fn region(config: &SystemConfig) -> Range<u64> {
    let span = (config.l3.ways as u64 + 1) * config.l3.sets as u64;
    BASE_LINE..BASE_LINE + span
}

/// Core 0 probes; cores 1–3 run the benign background.
fn sources(config: &SystemConfig, seed: u64) -> Vec<Box<dyn AccessSource + Send>> {
    let mut sources: Vec<Box<dyn AccessSource + Send>> =
        vec![Box::new(OccupancyChannelSource::new(
            BASE_LINE,
            config.l3.sets as u64,
            config.l3.ways as u64,
            PROBE_SETS,
            THINK,
        ))];
    for (core, name) in ["gcc", "mcf", "libquantum"].iter().enumerate() {
        let profile = benchmark(name).expect("modelled benchmark");
        sources.push(Box::new(ProfileSource::new(profile, core + 1, seed)));
    }
    sources
}

/// What one pass produced, for exact comparison between passes.
#[derive(PartialEq)]
struct Answer {
    baseline: String,
    monitored: String,
    stats: MonitorStats,
}

struct Pass {
    answer: Answer,
    setup_s: f64,
    /// `System::run` nanoseconds of the baseline and the monitored system.
    run_ns: [u64; 2],
    executed: u64,
    sample: Option<LayerSample>,
}

fn pass(seed: u64, traced: bool, fetched: &mut Vec<u64>, checks: &mut Checks) -> Pass {
    let config = SystemConfig::paper_default();
    let started = Instant::now();
    let monitor = PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid monitor");
    let mut baseline = sim::build(
        &config,
        NullObserver,
        sources(&config, seed),
        traced,
        traced,
    );
    let setup_s;
    let (base_run, mon_run, stats, sample) = if traced {
        let observer = TracedMonitor::new(monitor, std::mem::take(fetched), region(&config));
        let mut monitored = sim::build(&config, observer, sources(&config, seed), true, false);
        setup_s = started.elapsed().as_secs_f64();
        let since = sim::mark();
        let mut tally = Tally::default();
        trace::begin(Layer::Pass);
        trace::set_cell(0);
        let base_run = sim::run(&mut baseline, INSTRUCTIONS, true);
        let mut streams = vec![Vec::new(); config.cores];
        trace::take_recorded(&mut streams);
        sim::replay(&config, &streams);
        trace::set_cell(1);
        let mon_run = sim::run(&mut monitored, INSTRUCTIONS, true);
        trace::end(Layer::Pass);
        let observer = monitored.observer();
        let consistent = sim::monitor_consistent(&mon_run.report, observer);
        checks.op(consistent.is_ok(), || consistent.unwrap_err());
        tally.add_run(&base_run);
        tally.add_run(&mon_run);
        tally.add_monitor(observer);
        let stats = *observer.monitor.stats();
        tally.add_cell(&base_run.report, &mon_run.report, stats.captures);
        *fetched = std::mem::take(&mut monitored.observer_mut().fetched);
        (base_run, mon_run, stats, Some(tally.sample(&since)))
    } else {
        let mut monitored = sim::build(&config, monitor, sources(&config, seed), false, false);
        setup_s = started.elapsed().as_secs_f64();
        let base_run = sim::run(&mut baseline, INSTRUCTIONS, false);
        let mon_run = sim::run(&mut monitored, INSTRUCTIONS, false);
        let stats = *monitored.observer().stats();
        let fetches = mon_run.report.stats.total_memory_fetches();
        checks.op(stats.fetches_observed == fetches, || {
            format!(
                "monitor observed {} of {fetches} fetches",
                stats.fetches_observed
            )
        });
        (base_run, mon_run, stats, None)
    };
    Pass {
        answer: Answer {
            baseline: sim::fingerprint(&base_run.report),
            monitored: sim::fingerprint(&mon_run.report),
            stats,
        },
        setup_s,
        run_ns: [base_run.ns, mon_run.ns],
        executed: sim::executed(&base_run.report) + sim::executed(&mon_run.report),
        sample,
    }
}

/// Untraced passes per run, at least: each run's time is the sum over the
/// two systems of each one's fastest run.
const MIN_PASSES: usize = 3;

pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        trace::start(SystemConfig::paper_default().cores);
    }
    let timer_ns = if opts.trace { trace::timer_ns() } else { 0.0 };
    let mut checks = Checks::default();
    let mut fetched = Vec::new();
    let mut reference: Option<Answer> = None;
    let (mut setups, mut run_ns, mut executed) = (Vec::new(), Vec::new(), 0);
    let (mut untraced_ns, mut traced_ns, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let min = if opts.trace { 2 } else { MIN_PASSES };
    for i in 0.. {
        if !opts.another(started, i, min) {
            break;
        }
        let traced = opts.trace && i % 2 == 1;
        let pass = pass(opts.seed, traced, &mut fetched, &mut checks);
        match &reference {
            Some(want) => checks.op(pass.answer == *want, || {
                format!("pass {i} (traced: {traced}) differs from pass 0")
            }),
            None => reference = Some(pass.answer),
        }
        let total = pass.run_ns.iter().sum::<u64>() as f64;
        if let Some(sample) = pass.sample {
            traced_ns.push(total);
            layers.push(sample);
        } else {
            setups.push(pass.setup_s);
            run_ns.push(pass.run_ns.map(|ns| ns as f64).to_vec());
            executed = pass.executed;
            untraced_ns.push(total);
        }
    }

    let mut metrics = BTreeMap::new();
    if opts.trace {
        metrics = fold_layers(&layers, &mut checks);
        metrics.insert("trace.timer_ns".into(), timer_ns);
        let overhead = ratio(median(&mut traced_ns), median(&mut untraced_ns)) - 1.0;
        metrics.insert("trace.overhead_pct".into(), overhead * 100.0);
    } else {
        let wall_s = sum_of_min(&run_ns) / 1e9;
        metrics.insert("setup_s".into(), median(&mut setups));
        metrics.insert("wall_s".into(), wall_s);
        metrics.insert("maccess_per_s".into(), executed as f64 / wall_s / 1e6);
    }
    Outcome { checks, metrics }
}
