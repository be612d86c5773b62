//! `filter_stream`: `ablation_filter`'s default stream — 2 M tracked lines
//! across 8 tenants, 6 M queries — through each of the four `PatternStore`
//! backends at 4 194 304 entries. No simulator runs, so the filter does all
//! the work, on a structure far larger than the host's caches.
//!
//! Queries are timed in fixed slices, and a run's time is the sum over
//! slices of each slice's 90th-percentile pass (see `stats::sum_of_p90`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use auto_cuckoo::{build_store, DetRng, FilterBackend, FilterParams, FilterStats, PatternStore};

use crate::stats::{median, quantile, ratio, sum_of_p90};
use crate::trace::{self, Layer};
use crate::{fold_layers, Checks, LayerSample, Opts, Outcome};

/// `ablation_filter`'s seed.
pub const DEFAULT_SEED: u64 = 2021;

/// `ablation_filter`'s default stream: tracked lines, accesses per line,
/// tenants, and the hot set (a tenth of each tenant's lines, 80% of its
/// accesses).
const TRACKED: u64 = 2_000_000;
const ACCESSES_PER_LINE: u64 = 3;
const TENANTS: u64 = 8;
const HOT_DIVISOR: u64 = 10;
const HOT_PERCENT: usize = 80;

/// Queries per timed slice (120 slices per backend).
const SLICE: usize = 50_000;
const _: () = assert!(((TRACKED * ACCESSES_PER_LINE) as usize).is_multiple_of(SLICE));

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 5;

/// Untraced passes per run, at least: each run's time is the sum over
/// slices of each slice's 90th-percentile pass.
const MIN_PASSES: usize = 3;

/// `ablation_filter`'s geometry: paper policy with ~2× headroom over the
/// tracked population.
fn params() -> FilterParams {
    let buckets = (TRACKED / 6).next_power_of_two() as usize;
    FilterParams::builder()
        .buckets(buckets)
        .build()
        .expect("scaled parameters are valid")
}

/// The multi-tenant benign stream, generated exactly as `ablation_filter`
/// generates it.
fn stream(seed: u64) -> Vec<u64> {
    let per_tenant = TRACKED / TENANTS;
    let hot_lines = per_tenant / HOT_DIVISOR;
    let total = TRACKED * ACCESSES_PER_LINE;
    let mut rng = DetRng::new(seed);
    let mut stream = Vec::with_capacity(total as usize);
    for _ in 0..total {
        let tenant = rng.below(TENANTS as usize) as u64;
        let line = if rng.below(100) < HOT_PERCENT {
            rng.below(hot_lines as usize) as u64
        } else {
            rng.below(per_tenant as usize) as u64
        };
        stream.push((tenant << 34) | line);
    }
    stream
}

/// One backend's pass over the stream.
struct BackendPass {
    /// Nanoseconds of each slice.
    slice_ns: Vec<f64>,
    phase_ns: u64,
    /// Stream positions whose query captured.
    captured_at: Vec<u32>,
    stats: FilterStats,
    occupancy: f64,
}

fn query_stream(backend: FilterBackend, stream: &[u64], traced: bool) -> BackendPass {
    let mut store: Box<dyn PatternStore> =
        build_store(backend, params()).expect("valid parameters");
    let mut captured_at = Vec::with_capacity(stream.len());
    let mut slice_ns = Vec::with_capacity(stream.len() / SLICE + 1);
    let mut phase_ns = 0;
    for (k, slice) in stream.chunks(SLICE).enumerate() {
        let offset = k * SLICE;
        let start = Instant::now();
        for (j, &line) in slice.iter().enumerate() {
            if store.query(line).captured {
                captured_at.push((offset + j) as u32);
            }
        }
        let end = Instant::now();
        if traced {
            trace::record(Layer::Query, start, end, slice.len() as u64);
        }
        let ns = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        phase_ns += ns;
        slice_ns.push(ns as f64);
    }
    BackendPass {
        slice_ns,
        phase_ns,
        captured_at,
        stats: store.stats_snapshot(),
        occupancy: store.occupancy(),
    }
}

/// Per stream position, how many times its line has been queried so far
/// (saturating): the exact count the capture oracle compares against.
fn times_seen(stream: &[u64]) -> Vec<u8> {
    let mut counts: HashMap<u64, u8> = HashMap::with_capacity(stream.len() / 2);
    stream
        .iter()
        .map(|line| {
            let count = counts.entry(*line).or_insert(0);
            *count = count.saturating_add(1);
            *count
        })
        .collect()
}

pub fn run(opts: &Opts) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let stream = stream(opts.seed);
        let stores: Vec<_> = FilterBackend::ALL
            .iter()
            .map(|&b| build_store(b, params()).expect("valid parameters"))
            .collect();
        setups.push(started.elapsed().as_secs_f64());
        drop(stores);
        built = Some(stream);
    }
    let stream = built.expect("at least one set-up");
    if opts.trace {
        trace::start(0);
    }
    let timer_ns = if opts.trace { trace::timer_ns() } else { 0.0 };
    let threshold = params().security_threshold();

    let mut checks = Checks::default();
    // Per backend: a digest of the capture positions, and the statistics.
    let mut reference: Option<Vec<(u64, FilterStats)>> = None;
    let mut seen: Option<Vec<u8>> = None;
    // Per untraced pass, every backend's slices in order.
    let mut slice_ns: Vec<Vec<f64>> = Vec::new();
    let (mut untraced_ns, mut traced_ns, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let min = if opts.trace { 2 } else { MIN_PASSES };
    for i in 0.. {
        if !opts.another(started, i, min) {
            break;
        }
        let traced = opts.trace && i % 2 == 1;
        if traced {
            trace::begin(Layer::Pass);
        }
        let mut sample = LayerSample::default();
        let mut slices = Vec::new();
        let mut answer = Vec::with_capacity(FilterBackend::ALL.len());
        let mut pass_ns = 0;
        for (b, &backend) in FilterBackend::ALL.iter().enumerate() {
            if traced {
                trace::set_cell(b);
            }
            let mut pass = query_stream(backend, &stream, traced);
            let stats = &pass.stats;
            checks.op(
                stats.queries == stream.len() as u64
                    && stats.inserts + stats.merges == stats.queries
                    && stats.captures == pass.captured_at.len() as u64,
                || format!("{backend}: inconsistent statistics {stats:?}"),
            );
            pass_ns += pass.phase_ns;
            let name = backend.name();
            if traced {
                let seen = seen.get_or_insert_with(|| times_seen(&stream));
                let exact = pass
                    .captured_at
                    .iter()
                    .filter(|&&at| seen[at as usize] > threshold)
                    .count() as u64;
                let captures = pass.captured_at.len() as u64;
                let per_query = SLICE as f64;
                sample.time(
                    format!("filter.query_ns.{name}"),
                    median(&mut pass.slice_ns) / per_query,
                );
                sample.time(
                    format!("filter.query_ns_p90.{name}"),
                    quantile(&mut pass.slice_ns, 0.9) / per_query,
                );
                sample.count(format!("filter.inserts.{name}"), stats.inserts as f64);
                sample.count(format!("filter.merges.{name}"), stats.merges as f64);
                sample.count(format!("filter.kicks.{name}"), stats.kicks as f64);
                sample.count(
                    format!("filter.kicks_per_insert.{name}"),
                    stats.kicks_per_insert(),
                );
                sample.count(
                    format!("filter.autonomic_deletions.{name}"),
                    stats.autonomic_deletions as f64,
                );
                sample.count(format!("filter.occupancy.{name}"), pass.occupancy);
                sample.count(
                    format!("filter.false_alarms.{name}"),
                    (captures - exact) as f64,
                );
                sample.count(
                    format!("filter.exact_capture_ratio.{name}"),
                    ratio(exact as f64, captures as f64),
                );
            } else {
                slices.extend_from_slice(&pass.slice_ns);
            }
            let mut digest = DefaultHasher::new();
            pass.captured_at.hash(&mut digest);
            answer.push((digest.finish(), pass.stats));
        }
        if traced {
            trace::end(Layer::Pass);
            traced_ns.push(pass_ns as f64);
            layers.push(sample);
        } else {
            slice_ns.push(slices);
            untraced_ns.push(pass_ns as f64);
        }
        match &reference {
            Some(want) => checks.op(answer == *want, || {
                format!("pass {i} (traced: {traced}) captured differently from pass 0")
            }),
            None => reference = Some(answer),
        }
    }

    let mut metrics = BTreeMap::new();
    if opts.trace {
        metrics = fold_layers(&layers, &mut checks);
        metrics.insert("trace.timer_ns".into(), timer_ns);
        let overhead = ratio(median(&mut traced_ns), median(&mut untraced_ns)) - 1.0;
        metrics.insert("trace.overhead_pct".into(), overhead * 100.0);
    } else {
        let wall_s = sum_of_p90(&slice_ns) / 1e9;
        let queries = FilterBackend::ALL.len() * stream.len();
        metrics.insert("setup_s".into(), median(&mut setups));
        metrics.insert("wall_s".into(), wall_s);
        metrics.insert("maccess_per_s".into(), queries as f64 / wall_s / 1e6);
    }
    Outcome { checks, metrics }
}
