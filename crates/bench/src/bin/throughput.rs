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
//! every figure harness shares.
//!
//! Each configuration is simulated `N` times (default 3, fresh system each
//! time) and the median elapsed time is reported, which tames scheduler and
//! frequency-scaling noise on shared machines. `--compare` reads a
//! previously emitted JSON file and appends a speedup section (this run vs.
//! the old file), which is how a change records its before/after delta. The file
//! is read and parsed before anything is simulated: a missing or malformed
//! file is an `error:` line and exit status 1.

use std::time::Instant;

use cache_sim::{
    Access, AccessSource, Addr, CoreId, NullObserver, SimReport, System, SystemConfig,
    TrafficObserver,
};
use pipo_bench::Json;
use pipo_workloads::{mixes::mix_by_name, ProfileSource};
use pipomonitor::{DirectoryMonitor, DirectoryMonitorConfig, MonitorConfig, PiPoMonitor};

const DEFAULT_INSTRUCTIONS: u64 = 2_000_000;
const MIX: &str = "mix7";
const SEED: u64 = 42;

/// Monitored 4-core mix7 throughput *before* the branchless fingerprint
/// probe kernel and batched access generation landed: this harness's
/// `pipomonitor` configuration built from the pre-kernel HEAD, 20M
/// instructions, 5 samples per run, median of three runs interleaved
/// back-to-back with the post-kernel binary on the same host (the host
/// shows ±15% drift between non-adjacent runs, so only interleaved
/// before/after pairs are comparable). The `probe_kernel` section of the
/// emitted JSON reports this pair as the recorded speedup and the current
/// run's rate alongside it.
const PRE_KERNEL_PIPOMONITOR_ACCESSES_PER_SEC: f64 = 15_093_837.6;

/// The *after* half of the same interleaved measurement: the post-kernel
/// build's `pipomonitor` rate, identical protocol, same session as the
/// before runs. `after / before` = 1.51 is the recorded kernel speedup;
/// comparing a fresh run against the recorded before is only indicative
/// (cross-session host drift exceeds the effect of a small regression).
const POST_KERNEL_PIPOMONITOR_ACCESSES_PER_SEC: f64 = 22_748_314.8;

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

/// Prices access *generation* standalone: drains the four mix7
/// `ProfileSource`s (same benchmarks, cores, and seed as the simulated
/// configurations) through the batched `AccessSource::refill` path with no
/// simulator attached, until `accesses` accesses have been drawn. Returns
/// the median ns per generated access.
fn generation_ns_per_access(accesses: u64, samples: usize) -> f64 {
    let mix = mix_by_name(MIX).expect("mix exists");
    let mut per_access_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut sources: Vec<ProfileSource> = (0..4)
            .map(|core| ProfileSource::new(mix.benchmarks[core % mix.benchmarks.len()], core, SEED))
            .collect();
        let mut buf: Vec<Access> = Vec::with_capacity(64);
        let mut drawn = 0u64;
        let mut sink = 0u64;
        let start = Instant::now();
        'outer: loop {
            for source in &mut sources {
                buf.clear();
                source.refill(&mut buf, 64);
                for access in &buf {
                    sink ^= access.addr.0;
                }
                drawn += buf.len() as u64;
                if drawn >= accesses {
                    break 'outer;
                }
            }
        }
        std::hint::black_box(sink);
        per_access_ns.push(start.elapsed().as_secs_f64() / drawn as f64 * 1e9);
    }
    per_access_ns.sort_by(f64::total_cmp);
    per_access_ns[per_access_ns.len() / 2]
}

/// Prices the event-heap *scheduler* (plus the L1-hit fast path): the
/// 4-core machine run with constant per-core addresses, so every access
/// hits L1 and the LLC probe kernel never runs, while generation is a
/// closure returning a constant. Returns the median ns per access.
fn scheduler_ns_per_access(total_instructions: u64, samples: usize) -> f64 {
    let mut per_access_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut system = System::new(SystemConfig::paper_default(), NullObserver);
        for core in 0..4usize {
            system.set_source(
                CoreId(core),
                Box::new(move || Some(Access::read(Addr(core as u64 * 64)).after(3))),
            );
        }
        let start = Instant::now();
        let report = system.run(total_instructions / 4);
        let elapsed = start.elapsed().as_secs_f64();
        per_access_ns.push(elapsed / total_accesses(&report) as f64 * 1e9);
    }
    per_access_ns.sort_by(f64::total_cmp);
    per_access_ns[per_access_ns.len() / 2]
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
    let mut instructions = DEFAULT_INSTRUCTIONS;
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
                instructions = other.parse().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "unparsable instruction count {other:?} (expected an unsigned integer)"
                    ))
                });
            }
        }
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

    // ns/access budget: where the monitored wall-clock goes, split into
    // generation / scheduler / probe / observer. Two phases are priced
    // directly (generation standalone, scheduler via an L1-hit-only run);
    // the other two fall out by subtraction from the measured baseline and
    // monitored rates. The split is approximate — each subtraction inherits
    // the noise of both operands — but it localizes regressions: a probe
    // regression moves `probe` without moving `generation` or `scheduler`.
    let rate = |name: &str| {
        runs.iter()
            .find(|m| m.name == name)
            .expect("config measured")
            .accesses_per_sec()
    };
    let gen_ns = generation_ns_per_access(runs[0].accesses, samples);
    let sched_ns = scheduler_ns_per_access(instructions, samples);
    let baseline_ns = 1e9 / rate("baseline");
    let monitored_ns = 1e9 / rate("pipomonitor");
    let probe_ns = (baseline_ns - gen_ns - sched_ns).max(0.0);
    let observer_ns = (monitored_ns - baseline_ns).max(0.0);
    doc = doc.field(
        "ns_per_access_budget",
        Json::object()
            .field("monitored_ns_per_access", round(monitored_ns, 1))
            .field("baseline_ns_per_access", round(baseline_ns, 1))
            .field(
                "phases",
                Json::object()
                    .field("generation", round(gen_ns, 1))
                    .field("scheduler", round(sched_ns, 1))
                    .field("probe", round(probe_ns, 1))
                    .field("observer", round(observer_ns, 1)),
            )
            .field(
                "method",
                "generation: mix7 ProfileSources drained standalone through the \
                 batched refill path; scheduler: L1-hit-only 4-core run (includes \
                 the L1 fast path); probe = baseline - generation - scheduler; \
                 observer = pipomonitor - baseline",
            ),
    );

    // Perf anchor for the branchless probe kernel + batched generation PR:
    // monitored 4-core throughput against the recorded pre-kernel rate.
    doc = doc.field(
        "probe_kernel",
        Json::object()
            .field(
                "before_accesses_per_sec",
                PRE_KERNEL_PIPOMONITOR_ACCESSES_PER_SEC,
            )
            .field(
                "after_accesses_per_sec",
                POST_KERNEL_PIPOMONITOR_ACCESSES_PER_SEC,
            )
            .field(
                "speedup",
                round(
                    POST_KERNEL_PIPOMONITOR_ACCESSES_PER_SEC
                        / PRE_KERNEL_PIPOMONITOR_ACCESSES_PER_SEC,
                    2,
                ),
            )
            .field("target_speedup", 1.5)
            .field("run_accesses_per_sec", round(rate("pipomonitor"), 1))
            .field(
                "note",
                "pipomonitor throughput before vs after the SWAR fingerprint probe \
                 kernel + batched access generation. Both sides of the recorded \
                 pair come from one interleaved session (pre-kernel and post-kernel \
                 binaries alternated on the same host; 20M instructions, 5 samples \
                 per run, median of three runs each) because the host drifts ±15% \
                 between non-adjacent runs. run_accesses_per_sec is this run's \
                 live rate, comparable to the pair only within that noise band.",
            ),
    );

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
