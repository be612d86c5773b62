//! Simulator throughput harness: how many simulated memory accesses per
//! wall-clock second `System::run` sustains.
//!
//! Measured configurations:
//!
//! * `baseline` / `directory_monitor` / `pipomonitor` — the paper's 4-core
//!   Table II machine running mix7, with no observer, the directory-table
//!   baseline, and PiPoMonitor respectively.
//! * `pipomonitor_8c` / `pipomonitor_16c` / `pipomonitor_32c` — the same
//!   monitored machine scaled to more cores (mix7 benchmarks assigned
//!   round-robin, each core with its own disjoint address region). These are
//!   the scaling configurations the event-driven scheduler targets: the old
//!   linear min-scan charged O(cores) per simulated access, the binary-heap
//!   scheduler O(log cores) amortized.
//!
//! This is the perf trajectory anchor for the repo: every hot-path change is
//! judged against the numbers this binary emits. Results are written as JSON
//! (default `BENCH_cache_sim.json`) so CI and future PRs can diff them.
//!
//! Usage:
//!
//! ```text
//! throughput [total_instructions] [--label NAME] [--out PATH] [--compare PATH]
//!            [--samples N] [--help]
//! ```
//!
//! `--json PATH` is accepted as an alias of `--out PATH`, matching the flag
//! every figure harness shares. As in the shared parser, an unknown flag, a
//! second positional argument or an output path in a missing directory is
//! an `error:` line and exit status 2, before anything is measured.
//!
//! Each configuration is simulated `N` times (default 3, fresh system each
//! time) and the median elapsed time is reported, which tames scheduler and
//! frequency-scaling noise on shared machines. `--compare` reads a
//! previously emitted JSON file and appends a speedup section (this run vs.
//! the old file), which is how a change records its before/after delta. The file
//! is read and parsed before anything is simulated: a missing or malformed
//! file is an `error:` line and exit status 1.

use std::time::Instant;

use cache_sim::{CoreId, NullObserver, SimReport, System, SystemConfig, TrafficObserver};
use pipo_bench::args::check_output_path;
use pipo_bench::Json;
use pipo_workloads::{mixes::mix_by_name, ProfileSource};
use pipomonitor::{DirectoryMonitor, DirectoryMonitorConfig, MonitorConfig, PiPoMonitor};

const DEFAULT_INSTRUCTIONS: u64 = 2_000_000;
const MIX: &str = "mix7";
const SEED: u64 = 42;

const USAGE: &str = "\
usage: throughput [total_instructions] [--label NAME] [--out PATH] [--compare PATH]
                  [--samples N] [--help]

  total_instructions  total simulated instructions, split across cores
                      (default 2000000)
  --label NAME        label stored in the emitted JSON (default \"current\")
  --out PATH          output JSON path (default BENCH_cache_sim.json);
                      --json PATH is an alias
  --compare PATH      read a previous JSON file and append a speedup section
  --samples N         samples per configuration, median reported (default 3)
  --help, -h          print this help and exit";

struct Measurement {
    name: String,
    cores: usize,
    accesses: u64,
    instructions: u64,
    makespan: u64,
    elapsed_s: f64,
}

impl Measurement {
    fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.elapsed_s
    }
}

fn total_accesses(report: &SimReport) -> u64 {
    report.stats.per_core.iter().map(|c| c.l1.accesses()).sum()
}

/// Runs one configuration `samples` times (fresh system each time) and
/// reports the median elapsed time. `total_instructions` is split evenly
/// across cores so every configuration simulates comparable total work.
fn run_config<O: TrafficObserver>(
    name: &str,
    cores: usize,
    observer: impl Fn() -> O,
    total_instructions: u64,
    samples: usize,
) -> Measurement {
    let mix = mix_by_name(MIX).expect("mix exists");
    let mut elapsed = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let mut config = SystemConfig::paper_default();
        config.cores = cores;
        let mut system = System::new(config, observer());
        for core in 0..cores {
            let bench = mix.benchmarks[core % mix.benchmarks.len()];
            system.set_source(
                CoreId(core),
                Box::new(ProfileSource::new(bench, core, SEED)),
            );
        }
        let start = Instant::now();
        let report = system.run(total_instructions / cores as u64);
        elapsed.push(start.elapsed().as_secs_f64());
        last = Some(report);
    }
    elapsed.sort_by(f64::total_cmp);
    let report = last.expect("at least one sample");
    Measurement {
        name: name.to_string(),
        cores,
        accesses: total_accesses(&report),
        instructions: report.total_instructions(),
        makespan: report.makespan(),
        elapsed_s: elapsed[elapsed.len() / 2],
    }
}

fn pipo() -> PiPoMonitor {
    PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config")
}

/// Reads a previously emitted JSON file and returns each config's
/// `(name, accesses_per_sec)`. Configs lacking either field are skipped.
///
/// # Errors
///
/// Names the problem when the file cannot be read, is not JSON, or has no
/// `configs` array.
fn read_old_rates(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text)?;
    let configs = doc
        .get("configs")
        .and_then(Json::as_array)
        .ok_or("no \"configs\" array")?;
    Ok(configs
        .iter()
        .filter_map(|c| {
            let name = c.get("name")?.as_str()?;
            let rate = c.get("accesses_per_sec")?.as_f64()?;
            Some((name.to_string(), rate))
        })
        .collect())
}

/// Reports a CLI error the same way the shared `HarnessArgs` parser does —
/// an `error:` line naming the problem, the usage text, exit status 2 —
/// so scripts can treat every harness binary uniformly
/// (`crates/bench/tests/cli.rs` pins the contract).
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut instructions: Option<u64> = None;
    let mut label = String::from("current");
    let mut out_path = String::from("BENCH_cache_sim.json");
    let mut compare_path: Option<String> = None;
    let mut samples = 3usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--label" => {
                label = it
                    .next()
                    .unwrap_or_else(|| usage_error("--label needs a value"))
                    .clone();
            }
            "--out" | "--json" => {
                out_path = it
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a file path"))
                    .clone();
            }
            "--compare" => {
                compare_path = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--compare needs a file path"))
                        .clone(),
                );
            }
            "--samples" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| usage_error("--samples needs a sample count"));
                samples = raw.parse().unwrap_or(0);
                if samples == 0 {
                    usage_error(&format!(
                        "--samples expects a positive integer, got {raw:?}"
                    ));
                }
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag:?}")),
            other => {
                if instructions.is_some() {
                    usage_error(&format!("unexpected extra argument {other:?}"));
                }
                instructions = Some(other.parse().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "unparsable instruction count {other:?} (expected an unsigned integer)"
                    ))
                }));
            }
        }
    }
    let instructions = instructions.unwrap_or(DEFAULT_INSTRUCTIONS);
    if let Err(message) = check_output_path("--out", &out_path) {
        usage_error(&message);
    }

    // Read the comparison file before measuring anything, so a bad path
    // fails in milliseconds instead of after every configuration ran.
    let compare = compare_path.map(|path| {
        let rates = read_old_rates(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot use --compare file {path}: {e}");
            std::process::exit(1);
        });
        (path, rates)
    });

    let runs = vec![
        run_config("baseline", 4, || NullObserver, instructions, samples),
        run_config(
            "directory_monitor",
            4,
            || DirectoryMonitor::new(DirectoryMonitorConfig::paper_comparable()),
            instructions,
            samples,
        ),
        run_config("pipomonitor", 4, pipo, instructions, samples),
        run_config("pipomonitor_8c", 8, pipo, instructions, samples),
        run_config("pipomonitor_16c", 16, pipo, instructions, samples),
        run_config("pipomonitor_32c", 32, pipo, instructions, samples),
    ];

    // Decimal places match the old hand-rolled emitter: 6 for seconds, 1 for
    // rates, 2 for speedup ratios.
    let round = |x: f64, places: i32| (x * 10f64.powi(places)).round() / 10f64.powi(places);
    let configs: Vec<Json> = runs
        .iter()
        .map(|m| {
            Json::object()
                .field("name", m.name.as_str())
                .field("cores", m.cores)
                .field("accesses", m.accesses)
                .field("instructions", m.instructions)
                .field("makespan_cycles", m.makespan)
                .field("elapsed_s", round(m.elapsed_s, 6))
                .field("accesses_per_sec", round(m.accesses_per_sec(), 1))
                .field("ns_per_access", round(1e9 / m.accesses_per_sec(), 1))
        })
        .collect();
    let mut doc = Json::object()
        .field("bench", "cache_sim_throughput")
        .field("label", label.as_str())
        .field("workload", MIX)
        .field("seed", SEED)
        .field("total_instructions", instructions)
        .field("configs", configs);

    if let Some((path, old_rates)) = compare {
        let mut old_obj = Json::object();
        let mut speedup_obj = Json::object();
        for m in &runs {
            if let Some((_, old_rate)) = old_rates.iter().find(|(n, _)| n == &m.name) {
                old_obj = old_obj.field(m.name.as_str(), round(*old_rate, 1));
                speedup_obj =
                    speedup_obj.field(m.name.as_str(), round(m.accesses_per_sec() / old_rate, 2));
            }
        }
        doc = doc.field(
            "comparison",
            Json::object()
                .field("against", path.as_str())
                .field("old_accesses_per_sec", old_obj)
                .field("speedup", speedup_obj),
        );
    }
    let json = doc.to_pretty();

    pipo_bench::write_atomic(&out_path, json.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");
    for m in &runs {
        eprintln!(
            "{:<20} {:>12.0} accesses/sec  ({} accesses in {:.3}s)",
            m.name,
            m.accesses_per_sec(),
            m.accesses,
            m.elapsed_s,
        );
    }
}
