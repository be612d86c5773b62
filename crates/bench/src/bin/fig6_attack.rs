//! Fig. 6: cache usage patterns of the probe addresses extracted by a
//! Prime+Probe attacker, (a) on the baseline and (b) under PiPoMonitor.
//!
//! Paper result: on the baseline the attacker reads the victim's
//! square/multiply operation sequence; with PiPoMonitor deployed the
//! attacker observes accesses regardless of victim behaviour and the genuine
//! sequence cannot be obtained.
//!
//! The two panels are two sweep-engine cells (baseline and defended attack
//! runs are independent simulations).
//!
//! Run: `cargo run --release -p pipo-bench --bin fig6_attack -- \
//!       [windows] [--json PATH] [--sequential | --threads N]`

use cache_sim::{Hierarchy, NullObserver, SystemConfig};
use pipo_attacks::{AttackConfig, PrimeProbeAttack, SquareAndMultiply, VictimLayout};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Json};
use pipomonitor::{MonitorConfig, MonitorStats, PiPoMonitor};

const SEED: u64 = 2021;

struct PanelResult {
    rendered: String,
    accuracy: f64,
    distinguishability: f64,
    monitor: Option<MonitorStats>,
}

fn main() {
    let args = HarnessArgs::parse();
    args.expect_no_trace();
    args.expect_no_store();
    let windows = args.scale_or(100) as usize;
    let backend = args.filter_backend();
    let config = AttackConfig {
        iterations: windows,
        ..AttackConfig::paper_default()
    };
    let key_bits = windows * config.bits_per_window;

    let panels = ["baseline", "pipomonitor"];
    let results = run_cells(args.mode, &panels, |_, panel| {
        let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
        let victim =
            SquareAndMultiply::with_random_key(VictimLayout::default_layout(), key_bits, SEED);
        let attack = PrimeProbeAttack::new(config);
        let (outcome, monitor_stats) = if *panel == "baseline" {
            let mut baseline = NullObserver;
            (attack.run(&mut hierarchy, victim, &mut baseline), None)
        } else {
            let mut monitor =
                PiPoMonitor::new(MonitorConfig::paper_default().with_backend(backend))
                    .expect("valid configuration");
            let outcome = attack.run(&mut hierarchy, victim, &mut monitor);
            (outcome, Some(*monitor.stats()))
        };
        let recovery = outcome.trace.recover_key();
        PanelResult {
            rendered: outcome.trace.render(),
            accuracy: recovery.accuracy,
            distinguishability: recovery.distinguishability,
            monitor: monitor_stats,
        }
    });

    println!("Fig. 6(a) — baseline: attacker-extracted usage pattern");
    println!("{}", results[0].rendered);
    println!(
        "sequence recovery accuracy {:.3}, channel distinguishability {:.3}\n",
        results[0].accuracy, results[0].distinguishability
    );

    println!("Fig. 6(b) — PiPoMonitor deployed");
    println!("{}", results[1].rendered);
    println!(
        "sequence recovery accuracy {:.3}, channel distinguishability {:.3}",
        results[1].accuracy, results[1].distinguishability
    );
    let stats = results[1].monitor.expect("monitored panel has stats");
    println!(
        "monitor: {} captures, {} prefetches scheduled, {} suppressed",
        stats.captures, stats.prefetches_scheduled, stats.prefetches_suppressed
    );
    println!();
    println!("paper: (a) operation sequence readable; (b) attacker always observes accesses");

    let cells = panels
        .iter()
        .zip(&results)
        .map(|(panel, r)| {
            let mut cell = Json::object()
                .field("panel", *panel)
                .field("recovery_accuracy", r.accuracy)
                .field("distinguishability", r.distinguishability);
            if let Some(stats) = &r.monitor {
                cell = cell
                    .field("captures", stats.captures)
                    .field("prefetches_scheduled", stats.prefetches_scheduled)
                    .field("prefetches_suppressed", stats.prefetches_suppressed);
            }
            cell
        })
        .collect();
    let meta = Json::object()
        .field("probe_windows", windows)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("fig6_attack", args.mode, meta, cells),
    );
}
