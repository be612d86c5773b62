//! Shared command-line parsing for the figure harness binaries.
//!
//! Every binary accepts the same surface:
//!
//! ```text
//! <binary> [scale] [--json PATH] [--sequential | --threads N]
//!          [--filter BACKEND] [--trace PATH] [--store PATH] [--help]
//! ```
//!
//! * `scale` — one optional unsigned integer whose meaning is per-binary
//!   (instructions per core, probe windows, trials, insertions, ...). Each
//!   binary's doc comment names it.
//! * `--json PATH` — additionally write machine-readable results to `PATH`.
//! * `--sequential` — evaluate sweep cells one at a time (the pre-engine
//!   behaviour; per-cell results are bit-identical either way).
//! * `--threads N` — evaluate sweep cells on `N` worker threads. The default
//!   is one thread per host core.
//! * `--filter BACKEND` — pattern-store backend for the simulated monitors
//!   (`auto`, `classic`, `bloom` or `xor`; default `auto`, the paper's
//!   hardware design). Binaries that do not build monitors — or that sweep
//!   backends themselves, like `ablation_filter` — reject the flag.
//! * `--trace PATH` — replay a recorded `pipo-trace` file (v1 text or v2
//!   binary, sniffed by magic) as an extra workload. Only `trace_replay`
//!   consumes recorded traces; every other binary rejects the flag.
//! * `--store PATH` — answer sweep cells from (and record new cells into)
//!   the persistent content-addressed result store at `PATH` — the same
//!   store a `pipo-serve` instance serves. Only the `System::run` sweep
//!   figures (`fig8_performance`, `sensitivity_secthr`,
//!   `ablation_replacement`) have store-keyed cells; the rest reject the
//!   flag.
//! * `--help` / `-h` — print the full flag list and exit 0.
//!
//! Unknown flags and unparsable values are reported on stderr and exit with
//! status 2 — they are never silently swallowed into a default. So are
//! *conflicting* flags: `--sequential` with `--threads N` (in either order)
//! is rejected instead of silently letting the last one win.

use auto_cuckoo::FilterBackend;

use crate::store::ResultStore;
use crate::sweep::ExecMode;

/// Usage string printed alongside argument errors and by `--help`.
pub const USAGE: &str = "\
usage: <binary> [scale] [--json PATH] [--sequential | --threads N]
                [--filter auto|classic|bloom|xor] [--trace PATH]
                [--store PATH] [--help]

  scale             optional unsigned integer; per-binary meaning
                    (instructions per core, probe windows, trials,
                    insertions, ...)
  --json PATH       additionally write machine-readable results to PATH
  --sequential      evaluate sweep cells one at a time
                    (conflicts with --threads)
  --threads N       evaluate sweep cells on N worker threads
                    (default: one per host core; conflicts with --sequential)
  --filter BACKEND  pattern-store backend for the simulated monitors:
                    auto (paper default), classic, bloom or xor
  --trace PATH      replay a recorded pipo-trace file (v1 text or v2
                    binary); only trace_replay consumes recorded traces
  --store PATH      persistent content-addressed result store: warm sweep
                    cells are answered from it, cold cells recorded into it
                    (only the System::run sweep figures accept it)
  --help, -h        print this help and exit";

/// Parsed harness arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// The optional positional scale argument (per-binary meaning).
    pub scale: Option<u64>,
    /// Where to write JSON results, if requested.
    pub json: Option<String>,
    /// How to execute sweep cells.
    pub mode: ExecMode,
    /// Pattern-store backend for monitors (`--filter BACKEND`); `None`
    /// leaves the [`MonitorConfig`](pipomonitor::MonitorConfig) default
    /// (`auto`) in place.
    pub filter: Option<FilterBackend>,
    /// Path to a recorded trace file to replay (`--trace PATH`); only
    /// `trace_replay` consumes it, every other binary rejects the flag.
    pub trace: Option<String>,
    /// Path to the persistent result store (`--store PATH`); only the
    /// `System::run` sweep figures consume it, every other binary rejects
    /// the flag.
    pub store: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, printing an error and exiting with status 2
    /// on an unknown flag or unparsable value. `--help`/`-h` prints the full
    /// flag list and exits 0.
    #[must_use]
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        if raw.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        match Self::try_parse(raw) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`parse`](Self::parse)).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown flag, a missing flag
    /// value, an unparsable number, or a duplicate positional argument.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self {
            scale: None,
            json: None,
            mode: ExecMode::host_default(),
            filter: None,
            trace: None,
            store: None,
        };
        // Execution-mode flags seen so far, for conflict detection: the
        // combination `--sequential --threads N` (either order) must be an
        // error naming both flags, never a silent last-one-wins.
        let mut saw_sequential = false;
        let mut saw_threads: Option<usize> = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => {
                    out.json = Some(it.next().ok_or("--json needs a file path")?);
                }
                "--sequential" => {
                    saw_sequential = true;
                    out.mode = ExecMode::Sequential;
                }
                "--threads" => {
                    let raw = it.next().ok_or("--threads needs a thread count")?;
                    let threads: usize = raw.parse().map_err(|_| {
                        format!("--threads expects a positive integer, got {raw:?}")
                    })?;
                    if threads == 0 {
                        return Err("--threads expects a positive integer, got 0".into());
                    }
                    saw_threads = Some(threads);
                    out.mode = ExecMode::with_threads(threads);
                }
                "--filter" => {
                    let raw = it.next().ok_or("--filter needs a backend name")?;
                    out.filter = Some(raw.parse().map_err(|_| {
                        format!("--filter expects one of auto, classic, bloom, xor; got {raw:?}")
                    })?);
                }
                "--trace" => {
                    out.trace = Some(it.next().ok_or("--trace needs a file path")?);
                }
                "--store" => {
                    out.store = Some(it.next().ok_or("--store needs a file path")?);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                positional => {
                    if out.scale.is_some() {
                        return Err(format!("unexpected extra argument {positional:?}"));
                    }
                    out.scale = Some(positional.parse().map_err(|_| {
                        format!("unparsable scale argument {positional:?} (expected an unsigned integer)")
                    })?);
                }
            }
        }
        if saw_sequential {
            if let Some(threads) = saw_threads {
                return Err(format!(
                    "conflicting execution-mode flags: --sequential and --threads {threads} \
                     cannot be combined (pick one)"
                ));
            }
        }
        Ok(out)
    }

    /// The scale argument, or `default` when absent.
    #[must_use]
    pub fn scale_or(&self, default: u64) -> u64 {
        self.scale.unwrap_or(default)
    }

    /// For binaries with no scale parameter: rejects a positional argument
    /// (exit 2) instead of silently ignoring it — same contract as the rest
    /// of the parser.
    pub fn expect_no_scale(&self) {
        if let Some(scale) = self.scale {
            eprintln!("error: this binary takes no scale argument (got {scale})");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }

    /// For binaries that do not build monitors (or sweep the backends
    /// themselves): rejects `--filter` (exit 2) instead of silently ignoring
    /// it. The message leads with the offending flag so a user scanning
    /// stderr (or a script grepping it) sees *which* flag was rejected, not
    /// just a usage dump (`crates/bench/tests/cli.rs` pins this for every
    /// binary).
    pub fn expect_no_filter(&self) {
        if let Some(backend) = self.filter {
            eprintln!(
                "error: unsupported flag `--filter {backend}`: this binary does not \
                 take a pattern-store backend selection"
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }

    /// For binaries that do not replay recorded traces: rejects `--trace`
    /// (exit 2) instead of silently ignoring it. Mirrors
    /// [`expect_no_filter`](Self::expect_no_filter): the message leads with
    /// the offending flag.
    pub fn expect_no_trace(&self) {
        if let Some(path) = &self.trace {
            eprintln!(
                "error: unsupported flag `--trace {path}`: this binary does not \
                 replay recorded traces (use the trace_replay binary)"
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }

    /// For binaries whose cells are not store-keyed (no `System::run` sweep
    /// grid): rejects `--store` (exit 2) instead of silently ignoring it.
    /// Mirrors [`expect_no_filter`](Self::expect_no_filter): the message
    /// leads with the offending flag.
    pub fn expect_no_store(&self) {
        if let Some(path) = &self.store {
            eprintln!(
                "error: unsupported flag `--store {path}`: this binary has no \
                 store-keyed sweep cells (use fig8_performance, \
                 sensitivity_secthr or ablation_replacement)"
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }

    /// Opens the `--store` result store, exiting 1 with a diagnostic when
    /// the file exists but cannot be read or is not a store. `None` when
    /// the flag was absent.
    #[must_use]
    pub fn open_store(&self) -> Option<ResultStore> {
        let path = self.store.as_deref()?;
        match ResultStore::open(path) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("error: cannot open result store {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// The `--filter` backend, defaulting to the paper's `auto` design.
    #[must_use]
    pub fn filter_backend(&self) -> FilterBackend {
        self.filter.unwrap_or(FilterBackend::Auto)
    }

    /// The scale argument read as instructions per core
    /// ([`DEFAULT_INSTRUCTIONS`](crate::DEFAULT_INSTRUCTIONS) when absent).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.scale_or(crate::DEFAULT_INSTRUCTIONS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn empty_args_use_defaults() {
        let args = parse(&[]).expect("valid");
        assert_eq!(args.scale, None);
        assert_eq!(args.json, None);
        assert_eq!(args.instructions(), crate::DEFAULT_INSTRUCTIONS);
        assert_eq!(args.scale_or(17), 17);
    }

    #[test]
    fn positional_scale_and_flags() {
        let args = parse(&["50000", "--json", "out.json", "--threads", "3"]).expect("valid");
        assert_eq!(args.scale, Some(50_000));
        assert_eq!(args.instructions(), 50_000);
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.mode.threads(), 3);
        assert_eq!(
            parse(&["--sequential"]).expect("valid").mode,
            ExecMode::Sequential
        );
    }

    #[test]
    fn conflicting_execution_modes_are_rejected_in_both_orders() {
        for args in [
            &["--sequential", "--threads", "4"][..],
            &["--threads", "4", "--sequential"][..],
            &["--threads", "4", "--json", "x.json", "--sequential"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.contains("--sequential") && err.contains("--threads"),
                "conflict message must name both flags: {err}"
            );
        }
        // Repeating one mode flag stays allowed (idempotent / last wins).
        assert_eq!(
            parse(&["--sequential", "--sequential"])
                .expect("valid")
                .mode,
            ExecMode::Sequential
        );
        assert_eq!(
            parse(&["--threads", "2", "--threads", "3"])
                .expect("valid")
                .mode
                .threads(),
            3
        );
    }

    #[test]
    fn store_flag_parses_a_path() {
        assert_eq!(parse(&[]).expect("valid").store, None);
        let args = parse(&["--store", "/tmp/results.store"]).expect("valid");
        assert_eq!(args.store.as_deref(), Some("/tmp/results.store"));
        assert!(parse(&["--store"]).unwrap_err().contains("file path"));
    }

    #[test]
    fn usage_enumerates_every_flag() {
        for flag in [
            "--json",
            "--sequential",
            "--threads",
            "--filter",
            "--trace",
            "--store",
            "--help",
        ] {
            assert!(USAGE.contains(flag), "usage text must mention {flag}");
        }
        for backend in FilterBackend::ALL {
            assert!(
                USAGE.contains(backend.name()),
                "usage text must enumerate backend {backend}"
            );
        }
    }

    #[test]
    fn filter_flag_parses_every_backend() {
        assert_eq!(parse(&[]).expect("valid").filter, None);
        assert_eq!(
            parse(&[]).expect("valid").filter_backend(),
            FilterBackend::Auto
        );
        for backend in FilterBackend::ALL {
            let args = parse(&["--filter", backend.name()]).expect("valid");
            assert_eq!(args.filter, Some(backend));
            assert_eq!(args.filter_backend(), backend);
        }
        assert!(parse(&["--filter"]).unwrap_err().contains("backend name"));
        let err = parse(&["--filter", "ribbon"]).unwrap_err();
        assert!(err.contains("ribbon") && err.contains("auto"), "{err}");
    }

    #[test]
    fn trace_flag_parses_a_path() {
        assert_eq!(parse(&[]).expect("valid").trace, None);
        let args = parse(&["--trace", "traces/occupancy_sweep.trace2"]).expect("valid");
        assert_eq!(args.trace.as_deref(), Some("traces/occupancy_sweep.trace2"));
        assert!(parse(&["--trace"]).unwrap_err().contains("file path"));
    }

    #[test]
    fn unparsable_scale_is_an_error_not_a_default() {
        let err = parse(&["2e6"]).unwrap_err();
        assert!(err.contains("2e6"), "message names the argument: {err}");
        assert!(parse(&["-5"]).is_err(), "negative numbers look like flags");
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(parse(&["--jsno", "x"]).unwrap_err().contains("--jsno"));
        assert!(parse(&["--json"]).unwrap_err().contains("file path"));
        assert!(parse(&["--threads", "zero"]).unwrap_err().contains("zero"));
        assert!(parse(&["--threads", "0"]).unwrap_err().contains('0'));
        assert!(parse(&["1", "2"]).unwrap_err().contains("extra"));
    }
}
