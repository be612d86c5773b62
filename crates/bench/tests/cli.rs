//! CLI contract tests for the harness binaries.
//!
//! Every binary but `throughput` parses with the shared
//! `pipo_bench::args` parser and declares the optional flags it accepts.
//! [`SURFACE`] repeats those declarations, and the tests generated from it
//! check each binary against each declarable flag: a declared flag is
//! accepted, an undeclared one exits with status 2 and an error naming it
//! before any work, and `--help` lists exactly the declared flags.
//! Conflicting execution-mode flags (`--sequential` with `--threads`) are
//! rejected the same way, in either order, and a flag no binary declares
//! (`--shards`) is an unknown flag everywhere.
//!
//! Cargo exposes each binary's path to this integration test through the
//! `CARGO_BIN_EXE_<name>` environment variables, so these tests exercise
//! the real executables — parser, declarations and exit codes — not a
//! reimplementation.

use std::process::{Command, Output};

use pipo_bench::Flag::{self, Filter, Scale, Store, Trace};

/// Every shared-parser binary: its name, the flags it declares, and
/// arguments that keep a run tiny (the scale argument where declared).
const SURFACE: &[(&str, &[Flag], &[&str])] = &[
    ("ablation_delay", &[Scale, Filter], &["1", "--sequential"]),
    ("ablation_filter", &[Scale], &["1", "--sequential"]),
    (
        "ablation_replacement",
        &[Scale, Filter, Store],
        &["1", "--sequential"],
    ),
    ("baseline_stateful", &[], &["--sequential"]),
    ("fig3_occupancy", &[], &["--sequential"]),
    ("fig4_collisions", &[Scale], &["1", "--sequential"]),
    ("fig6_attack", &[Scale, Filter], &["1", "--sequential"]),
    ("fig7_reverse", &[Scale], &["1", "--sequential"]),
    (
        "fig8_performance",
        &[Scale, Filter, Store],
        &["1", "--sequential"],
    ),
    ("overhead_table", &[], &["--sequential"]),
    (
        "sensitivity_secthr",
        &[Scale, Filter, Store],
        &["1", "--sequential"],
    ),
    (
        "trace_replay",
        &[Scale, Filter, Trace],
        &["1", "--sequential"],
    ),
];

/// Every harness binary: the shared-parser ones plus `throughput`, which
/// has its own parser (a different flag surface) but honours the same
/// exit-2 contract.
fn all_binaries() -> impl Iterator<Item = &'static str> {
    SURFACE
        .iter()
        .map(|&(name, _, _)| name)
        .chain(["throughput"])
}

/// The binaries declaring `flag`, with their tiny-run arguments.
fn accepting(flag: Flag) -> impl Iterator<Item = (&'static str, &'static [&'static str])> {
    SURFACE
        .iter()
        .filter(move |(_, declared, _)| declared.contains(&flag))
        .map(|&(name, _, tiny)| (name, tiny))
}

/// The binaries not declaring `flag`.
fn rejecting(flag: Flag) -> impl Iterator<Item = &'static str> {
    SURFACE
        .iter()
        .filter(move |(_, declared, _)| !declared.contains(&flag))
        .map(|&(name, _, _)| name)
}

fn bin_path(name: &str) -> String {
    // CARGO_BIN_EXE_* is only resolvable via env! for statically known
    // names; build the lookup dynamically from the test environment Cargo
    // provides to integration tests.
    let key = format!("CARGO_BIN_EXE_{name}");
    std::env::var(&key).unwrap_or_else(|_| panic!("{key} not set — binary missing?"))
}

fn run(name: &str, args: &[&str]) -> Output {
    Command::new(bin_path(name))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"))
}

/// Asserts that `name` rejected its arguments before doing any work: exit
/// status 2, nothing on stdout, and an `error:` line containing every one
/// of `named`.
fn assert_usage_error(name: &str, output: &Output, named: &[&str]) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{name} must exit 2, stderr:\n{stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{name} must fail before any work, stdout:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let error = stderr
        .lines()
        .find(|line| line.starts_with("error:"))
        .unwrap_or_else(|| panic!("{name} must print an error: line, got:\n{stderr}"));
    for word in named {
        assert!(
            error.contains(word),
            "{name}'s error must name {word}, got:\n{stderr}"
        );
    }
}

/// Runs every binary declaring `flag` at its tiny scale with the flag
/// given, and asserts it succeeds.
fn assert_declared_flag_is_accepted(flag: Flag, flag_args: &[&str]) {
    let mut checked = 0;
    for (name, tiny) in accepting(flag) {
        let output = run(name, &[tiny, flag_args].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name} declares {} and must accept {flag_args:?} (stderr: {stderr})",
            flag.name()
        );
        checked += 1;
    }
    assert!(checked > 0, "no binary declares {}", flag.name());
}

/// Runs every binary not declaring `flag` with the flag given, and asserts
/// it is a usage error naming the flag (or, for the scale, the argument).
fn assert_undeclared_flag_is_rejected(flag: Flag, flag_args: &[&str]) {
    let mut checked = 0;
    for name in rejecting(flag) {
        let output = run(name, flag_args);
        assert_usage_error(name, &output, &[flag.name(), flag_args[0]]);
        checked += 1;
    }
    assert!(checked > 0, "every binary declares {}", flag.name());
}

#[test]
fn every_binary_rejects_shards_as_an_unknown_flag() {
    for name in all_binaries() {
        let output = run(name, &["--shards", "2"]);
        assert_usage_error(name, &output, &["unknown", "--shards"]);
    }
}

#[test]
fn every_binary_helps_and_exits_zero() {
    for name in all_binaries() {
        let output = run(name, &["--help"]);
        assert_eq!(output.status.code(), Some(0), "{name} --help must exit 0");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            !stdout.contains("--shards"),
            "{name} --help must not document the removed --shards"
        );
        // A shared-parser binary names itself and lists exactly the flags
        // it declares, plus the common ones.
        let Some(&(_, declared, _)) = SURFACE.iter().find(|(n, _, _)| *n == name) else {
            continue;
        };
        assert!(
            stdout.starts_with(&format!("usage: {name} ")),
            "{name} --help must lead with its own name, got:\n{stdout}"
        );
        for common in ["--json", "--sequential", "--threads", "--help"] {
            assert!(stdout.contains(common), "{name} --help must list {common}");
        }
        for flag in Flag::ALL {
            let token = match flag {
                Scale => "[scale]",
                other => other.name(),
            };
            assert_eq!(
                stdout.contains(token),
                declared.contains(&flag),
                "{name} --help must list {token} exactly when declared, got:\n{stdout}"
            );
        }
        if declared.contains(&Filter) {
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
fn scale_accepting_binaries_run_at_a_tiny_scale() {
    assert_declared_flag_is_accepted(Scale, &[]);
}

#[test]
fn scale_rejecting_binaries_exit_2_and_name_the_argument() {
    assert_undeclared_flag_is_rejected(Scale, &["7"]);
}

#[test]
fn filter_accepting_binaries_run_with_a_backend() {
    assert_declared_flag_is_accepted(Filter, &["--filter", "bloom"]);
}

#[test]
fn filter_rejecting_binaries_exit_2_and_name_the_flag() {
    assert_undeclared_flag_is_rejected(Filter, &["--filter", "bloom"]);
}

#[test]
fn trace_accepting_binaries_replay_a_corpus_trace() {
    let trace = corpus_trace("mix_gcc_prefix.trace2");
    assert_declared_flag_is_accepted(Trace, &["--trace", &trace]);
}

#[test]
fn trace_rejecting_binaries_exit_2_and_name_the_flag() {
    assert_undeclared_flag_is_rejected(Trace, &["--trace", "some.trace"]);
}

#[test]
fn store_rejecting_binaries_exit_2_and_name_the_flag() {
    assert_undeclared_flag_is_rejected(Store, &["--store", "some.store"]);
}

#[test]
fn bad_filter_backend_exits_2_and_names_the_value() {
    for (name, _) in accepting(Filter) {
        let output = run(name, &["--filter", "ribbon"]);
        assert_usage_error(name, &output, &["ribbon", "auto", "xor"]);
    }
}

#[test]
fn output_paths_in_a_missing_directory_fail_before_any_work() {
    let missing = "/nonexistent/dir";
    for &(name, declared, tiny) in SURFACE {
        let json = format!("{missing}/out.json");
        let output = run(name, &[tiny, &["--json", json.as_str()]].concat());
        assert_usage_error(name, &output, &["--json", &json]);
        if declared.contains(&Store) {
            let store = format!("{missing}/results.store");
            let output = run(name, &[tiny, &["--store", store.as_str()]].concat());
            assert_usage_error(name, &output, &["--store", &store]);
        }
    }
    for flag in ["--out", "--json"] {
        let out = format!("{missing}/bench.json");
        let output = run("throughput", &["4000", "--samples", "1", flag, &out]);
        assert_usage_error("throughput", &output, &[&out]);
    }
}

#[test]
fn throughput_rejects_an_extra_positional_argument() {
    let output = run("throughput", &["4000", "8000"]);
    assert_usage_error(
        "throughput",
        &output,
        &["unexpected extra argument", "8000"],
    );
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
fn store_accepting_binaries_warm_rerun_is_byte_identical() {
    for (name, scale_args) in accepting(Store) {
        let stem = format!(
            "{}/cli_store_{}_{name}",
            std::env::temp_dir().display(),
            std::process::id()
        );
        let store = format!("{stem}.store");
        std::fs::remove_file(&store).ok();
        let run = |json: &str| {
            let output = Command::new(bin_path(name))
                .args(scale_args)
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
