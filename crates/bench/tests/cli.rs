//! CLI contract tests for the harness binaries: which ones accept
//! `--filter` (they build pattern-store-backed monitors with a selectable
//! backend),
//! `--trace` (they replay recorded trace files), and `--store` (their
//! sweeps are content-addressed result-store cells), and which reject
//! them with exit status 2 and an error that names the offending flag.
//! Conflicting execution-mode flags (`--sequential` with `--threads`)
//! must be rejected the same way, in either order, and a flag no binary
//! declares (`--shards`) is an unknown flag everywhere.
//!
//! Cargo exposes each binary's path to this integration test through the
//! `CARGO_BIN_EXE_<name>` environment variables, so these tests exercise
//! the real executables — parser, `expect_no_*` checks, and exit codes —
//! not a reimplementation.

use std::process::Command;

/// Every harness binary. `throughput` and `pipo_serve` have their own
/// parsers (different flag surfaces) but honour the same exit-2 contract
/// for unknown flags.
const ALL_BINARIES: &[&str] = &[
    "ablation_delay",
    "ablation_filter",
    "ablation_replacement",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig6_attack",
    "fig7_reverse",
    "fig8_performance",
    "overhead_table",
    "pipo_serve",
    "sensitivity_secthr",
    "throughput",
    "trace_replay",
];

/// The binaries with their own parsers; every other binary shares
/// `pipo_bench::args`.
const OWN_PARSER: &[&str] = &["pipo_serve", "throughput"];

/// Binaries that build monitors with a selectable pattern-store backend:
/// `--filter BACKEND` selects it. Each entry carries arguments that keep the
/// run tiny.
const ACCEPTS_FILTER: &[(&str, &[&str])] = &[
    ("fig8_performance", &["1", "--sequential"]),
    ("sensitivity_secthr", &["1", "--sequential"]),
    ("ablation_replacement", &["1", "--sequential"]),
    ("ablation_delay", &["1", "--sequential"]),
    ("fig6_attack", &["1", "--sequential"]),
    ("trace_replay", &["1", "--sequential"]),
];

/// Only `trace_replay` consumes recorded trace files; every other binary —
/// shared parser or not — must reject `--trace` by name with exit 2
/// (`throughput` through its own parser's unknown-flag path).
const REJECTS_TRACE: &[&str] = &[
    "ablation_delay",
    "ablation_filter",
    "ablation_replacement",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig6_attack",
    "fig7_reverse",
    "fig8_performance",
    "overhead_table",
    "sensitivity_secthr",
    "throughput",
];

/// Binaries with no backend choice: filter microbenchmarks drive the cuckoo
/// structures directly, `baseline_stateful`/`throughput` pin the paper's
/// monitor for comparability, and `ablation_filter` sweeps every backend by
/// construction. All must reject `--filter` by name with exit 2
/// (`throughput` through its own parser's unknown-flag path).
const REJECTS_FILTER: &[&str] = &[
    "ablation_filter",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig7_reverse",
    "overhead_table",
    "throughput",
];

/// Binaries whose sweeps are content-addressed (every cell is a
/// `System::run` over inputs captured by the canonical cell key):
/// `--store PATH` answers repeat cells from the persistent result store.
const ACCEPTS_STORE: &[(&str, &[&str])] = &[
    ("fig8_performance", &["1", "--sequential"]),
    ("sensitivity_secthr", &["1", "--sequential"]),
    ("ablation_replacement", &["1", "--sequential"]),
];

/// Everything else must reject `--store` by name with exit 2:
/// non-sweep binaries through `expect_no_store`, `trace_replay` because
/// replayed traces are keyed by file path (not content) so caching them
/// would be unsound, and `throughput` through its own parser's
/// unknown-flag path.
const REJECTS_STORE: &[&str] = &[
    "ablation_delay",
    "ablation_filter",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig6_attack",
    "fig7_reverse",
    "overhead_table",
    "trace_replay",
    "throughput",
];

fn bin_path(name: &str) -> String {
    // CARGO_BIN_EXE_* is only resolvable via env! for statically known
    // names; build the lookup dynamically from the test environment Cargo
    // provides to integration tests.
    let key = format!("CARGO_BIN_EXE_{name}");
    std::env::var(&key).unwrap_or_else(|_| panic!("{key} not set — binary missing?"))
}

#[test]
fn every_binary_rejects_shards_as_an_unknown_flag() {
    for name in ALL_BINARIES {
        let output = Command::new(bin_path(name))
            .args(["--shards", "2"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on --shards"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("error: unknown") && stderr.contains("--shards"),
            "{name} must reject --shards as unknown by name, got:\n{stderr}"
        );
    }
}

#[test]
fn every_binary_helps_and_exits_zero() {
    for &name in ALL_BINARIES {
        let output = Command::new(bin_path(name))
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(output.status.code(), Some(0), "{name} --help must exit 0");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            !stdout.contains("--shards"),
            "{name} --help must not document the removed --shards"
        );
        // Binaries with their own parsers document their own flag surface;
        // every shared-parser binary's help must enumerate --filter and its
        // backends.
        if !OWN_PARSER.contains(&name) {
            assert!(
                stdout.contains("--filter"),
                "{name} --help must document --filter"
            );
            assert!(
                stdout.contains("--trace"),
                "{name} --help must document --trace"
            );
            assert!(
                stdout.contains("--store"),
                "{name} --help must document --store"
            );
            for backend in ["auto", "classic", "bloom", "xor"] {
                assert!(
                    stdout.contains(backend),
                    "{name} --help must enumerate the {backend} backend"
                );
            }
        }
    }
}

#[test]
fn filter_accepting_binaries_run_with_a_backend() {
    for (name, scale_args) in ACCEPTS_FILTER {
        let output = Command::new(bin_path(name))
            .args(*scale_args)
            .args(["--filter", "bloom"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name} must accept --filter bloom (stderr: {stderr})"
        );
    }
}

#[test]
fn filter_rejecting_binaries_exit_2_and_name_the_flag() {
    for name in REJECTS_FILTER {
        let output = Command::new(bin_path(name))
            .args(["--filter", "bloom"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on --filter"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--filter"),
            "{name}'s rejection must name the offending flag, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "{name}'s rejection must be an error line, got:\n{stderr}"
        );
    }
}

#[test]
fn bad_filter_backend_exits_2_and_names_the_value() {
    for (name, _) in ACCEPTS_FILTER {
        let output = Command::new(bin_path(name))
            .args(["--filter", "ribbon"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on a bad backend"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("ribbon"),
            "{name}'s error must name the bad value, got:\n{stderr}"
        );
        assert!(
            stderr.contains("auto") && stderr.contains("xor"),
            "{name}'s error must enumerate valid backends, got:\n{stderr}"
        );
    }
}

#[test]
fn trace_rejecting_binaries_exit_2_and_name_the_flag() {
    for name in REJECTS_TRACE {
        let output = Command::new(bin_path(name))
            .args(["--trace", "some.trace"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on --trace"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--trace"),
            "{name}'s rejection must name the offending flag, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "{name}'s rejection must be an error line, got:\n{stderr}"
        );
    }
}

/// The bundled corpus file of the given name (the corpus lives in the
/// workloads crate, next door to this one).
fn corpus_trace(name: &str) -> String {
    let path = format!("{}/../workloads/traces/{name}", env!("CARGO_MANIFEST_DIR"));
    assert!(
        std::path::Path::new(&path).exists(),
        "bundled corpus file missing: {path}"
    );
    path
}

#[test]
fn trace_replay_accepts_both_corpus_formats() {
    // One v1 text trace (the back-compat file) and one v2 binary trace.
    for trace in [
        corpus_trace("stride_l1.trace"),
        corpus_trace("mix_gcc_prefix.trace2"),
    ] {
        let output = Command::new(bin_path("trace_replay"))
            .args(["1", "--sequential", "--trace", &trace])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn trace_replay: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(0),
            "trace_replay must accept --trace {trace} (stderr: {stderr})"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(&trace),
            "the replayed trace must appear as a figure row, got:\n{stdout}"
        );
    }
}

#[test]
fn trace_replay_rejects_a_missing_or_corrupt_trace() {
    let output = Command::new(bin_path("trace_replay"))
        .args(["1", "--trace", "/nonexistent/nope.trace"])
        .output()
        .expect("spawn trace_replay");
    assert_eq!(
        output.status.code(),
        Some(2),
        "missing trace file must exit 2"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("/nonexistent/nope.trace"),
        "error must name the path, got:\n{stderr}"
    );

    // A file that is neither v2 binary nor parsable v1 text.
    let corrupt = format!(
        "{}/cli_corrupt_{}.trace",
        std::env::temp_dir().display(),
        std::process::id()
    );
    std::fs::write(&corrupt, "X 0xZZ not-a-trace\n").expect("write temp file");
    let output = Command::new(bin_path("trace_replay"))
        .args(["1", "--trace", &corrupt])
        .output()
        .expect("spawn trace_replay");
    std::fs::remove_file(&corrupt).ok();
    assert_eq!(output.status.code(), Some(2), "corrupt trace must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error:") && stderr.contains(".trace"),
        "corrupt-trace error must be reported, got:\n{stderr}"
    );
}

#[test]
fn store_rejecting_binaries_exit_2_and_name_the_flag() {
    for name in REJECTS_STORE {
        let output = Command::new(bin_path(name))
            .args(["--store", "some.store"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on --store"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--store"),
            "{name}'s rejection must name the offending flag, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "{name}'s rejection must be an error line, got:\n{stderr}"
        );
    }
}

#[test]
fn store_accepting_binaries_warm_rerun_is_byte_identical() {
    for (name, scale_args) in ACCEPTS_STORE {
        let stem = format!(
            "{}/cli_store_{}_{name}",
            std::env::temp_dir().display(),
            std::process::id()
        );
        let store = format!("{stem}.store");
        std::fs::remove_file(&store).ok();
        let run = |json: &str| {
            let output = Command::new(bin_path(name))
                .args(*scale_args)
                .args(["--store", &store, "--json", json])
                .output()
                .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
            let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
            assert_eq!(
                output.status.code(),
                Some(0),
                "{name} must accept --store (stderr: {stderr})"
            );
            stderr
        };

        let cold_json = format!("{stem}_cold.json");
        let cold_stderr = run(&cold_json);
        assert!(
            cold_stderr.contains("0 warm"),
            "{name}'s first run must be all cold, got:\n{cold_stderr}"
        );

        let warm_json = format!("{stem}_warm.json");
        let warm_stderr = run(&warm_json);
        assert!(
            warm_stderr.contains("0 cold"),
            "{name}'s rerun must be answered from the store, got:\n{warm_stderr}"
        );
        // The cache's core contract: warm results are byte-identical to the
        // cold run's, down to the emitted JSON document.
        let cold = std::fs::read(&cold_json).expect("cold --json output");
        let warm = std::fs::read(&warm_json).expect("warm --json output");
        assert_eq!(
            cold, warm,
            "{name}'s warm --json document must be byte-identical to the cold one"
        );

        std::fs::remove_file(&store).ok();
        std::fs::remove_file(&cold_json).ok();
        std::fs::remove_file(&warm_json).ok();
    }
}

#[test]
fn conflicting_execution_mode_flags_exit_2_and_name_both() {
    // Every shared-parser binary rejects `--sequential --threads N`, in
    // either order, before doing any work.
    for name in ["fig8_performance", "ablation_delay", "trace_replay"] {
        for order in [
            ["--sequential", "--threads", "2"],
            ["--threads", "2", "--sequential"],
        ] {
            let output = Command::new(bin_path(name))
                .args(order)
                .output()
                .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
            assert_eq!(
                output.status.code(),
                Some(2),
                "{name} must exit 2 on {order:?}"
            );
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("--sequential") && stderr.contains("--threads"),
                "{name}'s conflict error must name both flags, got:\n{stderr}"
            );
            assert!(
                stderr.contains("error:"),
                "{name}'s rejection must be an error line, got:\n{stderr}"
            );
        }
    }
}

/// A per-process scratch path under the system temp directory.
fn temp_path(name: &str) -> String {
    format!(
        "{}/cli_{}_{name}",
        std::env::temp_dir().display(),
        std::process::id()
    )
}

/// Runs `throughput` at a tiny scale, writing its JSON document to `out`.
fn run_throughput(out: &str, extra: &[&str]) -> std::process::Output {
    Command::new(bin_path("throughput"))
        .args(["4000", "--samples", "1", "--out", out])
        .args(extra)
        .output()
        .expect("spawn throughput")
}

#[test]
fn throughput_compare_rejects_a_missing_or_malformed_file_before_measuring() {
    let garbage = temp_path("compare_garbage.json");
    std::fs::write(&garbage, "accesses_per_sec: not json\n").expect("write temp file");
    for bad in ["/nonexistent/old_bench.json", garbage.as_str()] {
        let out = temp_path("compare_rejected_out.json");
        std::fs::remove_file(&out).ok();
        let output = run_throughput(&out, &["--compare", bad]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "throughput must exit 1 on --compare {bad}"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains(bad),
            "the error must name the --compare path, got:\n{stderr}"
        );
        assert!(
            !std::path::Path::new(&out).exists(),
            "a rejected --compare must fail before anything is measured or written"
        );
    }
    std::fs::remove_file(&garbage).ok();
}

#[test]
fn throughput_compare_reports_a_speedup_per_config() {
    let old = temp_path("compare_old.json");
    let new = temp_path("compare_new.json");
    assert_eq!(run_throughput(&old, &[]).status.code(), Some(0));
    let output = run_throughput(&new, &["--compare", &old]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let doc = pipo_bench::Json::parse(&std::fs::read_to_string(&new).expect("--out written"))
        .expect("valid JSON");
    let configs = doc
        .get("configs")
        .and_then(pipo_bench::Json::as_array)
        .expect("configs array");
    let speedup = doc
        .get("comparison")
        .and_then(|c| c.get("speedup"))
        .expect("comparison.speedup");
    assert_eq!(configs.len(), 6);
    for config in configs {
        let name = config
            .get("name")
            .and_then(pipo_bench::Json::as_str)
            .expect("name");
        let ratio = speedup.get(name).and_then(pipo_bench::Json::as_f64);
        assert!(
            ratio.is_some_and(|r| r > 0.0),
            "comparison.speedup must name {name}"
        );
    }
    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}
