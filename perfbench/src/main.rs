//! The repository benchmark. See `NOTES.md` beside this package.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8_sweep|occupancy_attack|filter_stream \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with nothing
//! traced; with `--trace 1` it alternates untraced and traced passes and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Everything runs on the calling thread.

mod fig8;
mod filter_stream;
mod occupancy;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipo_bench::Json;

/// End-to-end metrics, measured with tracing off, reported by every
/// workload: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("maccess_per_s", "M/s"),
    ("peak_rss_mb", "MiB"),
];

const BACKENDS: [&str; 4] = ["auto", "classic", "bloom", "xor"];

/// Per-backend filter metrics: `(metric, unit)`, named `filter.<metric>.<b>`.
const FILTER: &[(&str, &str)] = &[
    ("query_ns", "ns"),
    ("query_ns_p90", "ns"),
    ("inserts", "count"),
    ("merges", "count"),
    ("kicks", "count"),
    ("kicks_per_insert", "ratio"),
    ("autonomic_deletions", "count"),
    ("occupancy", "ratio"),
    ("false_alarms", "count"),
    ("exact_capture_ratio", "ratio"),
];

/// Whether a simulator workload reports `filter.<metric>.<backend>`: its
/// monitors run the Auto-Cuckoo filter, and their queries are timed only
/// as part of `monitor.fetch_ns`.
fn simulated(metric: &str, backend: &str) -> bool {
    backend == "auto" && !metric.starts_with("query_ns")
}

/// Per-layer metrics of the traced run, as `BENCHMARK.json` lists them:
/// `(name, unit)`. A workload that does not exercise a metric's layer
/// reports it as `0`.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("workloads.refill_ns_per_access", "ns"),
        ("workloads.accesses", "count"),
        ("workloads.refills", "count"),
        ("system.run_ns_per_access", "ns"),
        ("system.self_ns_per_access", "ns"),
        ("system.instructions", "count"),
        ("system.sim_cycles", "cycles"),
        ("hierarchy.replay_ns_per_access", "ns"),
        ("hierarchy.l1_hit_ratio", "ratio"),
        ("hierarchy.llc_hits", "count"),
        ("hierarchy.memory_fetches", "count"),
        ("hierarchy.llc_evictions", "count"),
        ("hierarchy.back_invalidations", "count"),
        ("hierarchy.writebacks", "count"),
        ("hierarchy.prefetch_fills", "count"),
        ("hierarchy.prefetch_hits", "count"),
        ("hierarchy.prefetch_hit_ratio", "ratio"),
        ("monitor.fetch_calls", "count"),
        ("monitor.fetch_ns", "ns"),
        ("monitor.evict_calls", "count"),
        ("monitor.evict_ns", "ns"),
        ("monitor.drain_calls", "count"),
        ("monitor.drain_ns", "ns"),
        ("monitor.captures", "count"),
        ("monitor.capture_ratio", "ratio"),
        ("monitor.pevicts", "count"),
        ("monitor.prefetches_scheduled", "count"),
        ("monitor.prefetches_suppressed", "count"),
        ("monitor.perf_overhead_pct", "%"),
        ("monitor.fp_per_mi", "1/Mi"),
        ("monitor.detect_latency_fetches", "count"),
    ];
    let tail: &[(&str, &str)] = &[
        ("sweep.cells", "count"),
        ("sweep.baselines_simulated", "count"),
        ("sweep.monitored_simulated", "count"),
        ("sweep.warm_ms", "ms"),
        ("store.open_ms", "ms"),
        ("store.get_us", "us"),
        ("store.put_us", "us"),
        ("store.flush_ms", "ms"),
        ("store.hits", "count"),
        ("store.misses", "count"),
        ("store.bytes", "bytes"),
        ("trace.timer_ns", "ns"),
        ("trace.overhead_pct", "%"),
    ];
    let mut all: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for &(metric, unit) in FILTER {
        if simulated(metric, "auto") {
            all.push((format!("filter.{metric}.auto"), unit));
        }
    }
    all.extend(tail.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// `filter_stream`'s per-layer metrics beyond [`per_layer`]: every
/// backend's query cost and the counts of the backends the monitors do not
/// run. No gated workload produces them, so `BENCHMARK.json` omits them.
fn filter_stream_layer() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for &(metric, unit) in FILTER {
        for backend in BACKENDS {
            if !simulated(metric, backend) {
                all.push((format!("filter.{metric}.{backend}"), unit));
            }
        }
    }
    all
}

/// Parsed command line.
pub struct Opts {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Opts {
    /// Whether a run that started at `started` and has finished `done`
    /// passes starts another: always until it has `min`, then while one
    /// more pass of the average length still fits in its time.
    #[must_use]
    pub fn another(&self, started: Instant, done: usize, min: usize) -> bool {
        if done < min {
            return true;
        }
        let elapsed = started.elapsed();
        let average = elapsed / u32::try_from(done).unwrap_or(u32::MAX);
        elapsed + average <= self.seconds
    }
}

/// Directory for the benchmark's scratch files (store logs, span dumps).
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Operations checked, and those whose output was wrong.
#[derive(Debug, Default)]
pub struct Checks {
    pub ops: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; `ok == false` counts it failed and says why.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Per-layer results of one traced pass. `counts` are deterministic (work
/// counts, ratios of counts, modelled statistics) and must repeat exactly;
/// `times` are host timings.
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    pub counts: BTreeMap<String, f64>,
    pub times: BTreeMap<String, f64>,
}

impl LayerSample {
    pub fn count(&mut self, name: impl Into<String>, value: impl Into<f64>) {
        self.counts.insert(name.into(), value.into());
    }

    pub fn time(&mut self, name: impl Into<String>, value: f64) {
        self.times.insert(name.into(), value);
    }
}

/// Folds the traced passes into per-layer metrics: counts from the first
/// pass (checked identical in every other), timings as medians.
pub fn fold_layers(samples: &[LayerSample], checks: &mut Checks) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(first) = samples.first() else {
        return out;
    };
    for (i, later) in samples.iter().enumerate().skip(1) {
        checks.op(later.counts == first.counts, || {
            format!("traced pass {i} work counts differ from pass 0")
        });
    }
    out.extend(first.counts.iter().map(|(k, &v)| (k.clone(), v)));
    for name in first.times.keys() {
        let mut values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.times.get(name))
            .copied()
            .collect();
        out.insert(name.clone(), stats::median(&mut values));
    }
    out
}

/// What a workload returns: its checks and its metrics by name.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: BTreeMap<String, f64>,
}

/// The process's resident-set high-water mark in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload fig8_sweep|occupancy_attack|filter_stream \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    // `run_seconds` in `BENCHMARK.json`, which every recorded spread used.
    let mut seconds = 55u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value);
                true
            }
            "--seed" => value.parse().map(|s| seed = Some(s)).is_ok(),
            "--seconds" => value.parse().map(|s| seconds = s).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let run: fn(&Opts) -> Outcome = match workload.as_str() {
        "fig8_sweep" => fig8::run,
        "occupancy_attack" => occupancy::run,
        "filter_stream" => filter_stream::run,
        _ => return usage(),
    };
    let default_seed = match workload.as_str() {
        "fig8_sweep" => fig8::DEFAULT_SEED,
        "occupancy_attack" => occupancy::DEFAULT_SEED,
        _ => filter_stream::DEFAULT_SEED,
    };
    let opts = Opts {
        seed: seed.unwrap_or(default_seed),
        seconds: Duration::from_secs(seconds),
        trace,
    };
    eprintln!(
        "perfbench: {workload}, seed {}, {seconds} s, trace {}",
        opts.seed,
        u8::from(trace)
    );

    let Outcome {
        checks,
        mut metrics,
    } = run(&opts);
    let table: Vec<(String, &str)> = if trace {
        let mut table = per_layer();
        if workload == "filter_stream" {
            table.extend(filter_stream_layer());
        }
        table
    } else {
        let Some(rss) = peak_rss_mb() else {
            eprintln!("error: cannot read VmHWM from /proc/self/status");
            return ExitCode::FAILURE;
        };
        metrics.insert("peak_rss_mb".to_string(), rss);
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for name in metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is missing from the metric table"
        );
    }
    if trace {
        let path = out_dir().join(format!("trace-{workload}-seed{}.tsv", opts.seed));
        let (kept, dropped) = trace::span_counts();
        match trace::write(&path) {
            Ok(()) => eprintln!(
                "spans: {kept} written to {}, {dropped} more counted but not kept",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let mut doc = Json::object();
    for (name, unit) in &table {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        doc = doc.field(
            name,
            Json::object().field("value", value).field("unit", *unit),
        );
    }
    let result = Json::object()
        .field("correct", checks.failed == 0)
        .field("attempted", checks.ops)
        .field("failed", checks.failed)
        .field("metrics", doc);
    println!("{}", result.to_line());
    ExitCode::SUCCESS
}
