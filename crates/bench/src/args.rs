//! Shared command-line parsing for the figure harness binaries.
//!
//! Each binary declares the optional parts of its surface once, when it
//! parses:
//!
//! ```no_run
//! use pipo_bench::args::{Flag, HarnessArgs};
//!
//! let args = HarnessArgs::parse(&[Flag::Scale, Flag::Filter]);
//! ```
//!
//! The parser then accepts exactly the declared flags plus the ones every
//! binary shares:
//!
//! ```text
//! <binary> [scale] [--json PATH] [--sequential | --threads N]
//!          [--filter BACKEND] [--trace PATH] [--store PATH] [--help]
//! ```
//!
//! * `scale` ([`Flag::Scale`]) — one optional unsigned integer whose meaning
//!   is per-binary (instructions per core, probe windows, trials,
//!   insertions, ...). Each binary's doc comment names it.
//! * `--json PATH` — additionally write machine-readable results to `PATH`.
//! * `--sequential` — evaluate sweep cells one at a time (per-cell results
//!   are bit-identical either way).
//! * `--threads N` — evaluate sweep cells on `N` worker threads. The default
//!   is one thread per host core.
//! * `--filter BACKEND` ([`Flag::Filter`]) — pattern-store backend for the
//!   simulated monitors (`auto`, `classic`, `bloom` or `xor`; default
//!   `auto`, the paper's hardware design).
//! * `--trace PATH` ([`Flag::Trace`]) — replay a recorded `pipo-trace` file
//!   (v1 text or v2 binary, sniffed by magic) as an extra workload.
//! * `--store PATH` ([`Flag::Store`]) — answer sweep cells from (and record
//!   new cells into) the persistent content-addressed result store at
//!   `PATH`.
//! * `--help` / `-h` — print the binary's name and its declared flags, and
//!   exit 0.
//!
//! Unknown flags, undeclared flags and unparsable values are reported on
//! stderr and exit with status 2 — they are never silently swallowed into a
//! default. So are *conflicting* flags (`--sequential` with `--threads N`,
//! in either order) and an output path (`--json`, `--store`) that is a
//! directory or whose parent directory does not exist: all of these fail
//! before any work starts.

use std::path::Path;

use auto_cuckoo::FilterBackend;

use crate::store::ResultStore;
use crate::sweep::ExecMode;

/// An optional part of the command-line surface that a binary declares it
/// accepts. `--json`, `--sequential`, `--threads` and `--help` are common to
/// every binary and are not declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// The positional `scale` argument.
    Scale,
    /// `--filter BACKEND`.
    Filter,
    /// `--trace PATH`.
    Trace,
    /// `--store PATH`.
    Store,
}

impl Flag {
    /// Every declarable flag, in usage order.
    pub const ALL: [Flag; 4] = [Flag::Scale, Flag::Filter, Flag::Trace, Flag::Store];

    /// How the flag is written on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Flag::Scale => "scale",
            Flag::Filter => "--filter",
            Flag::Trace => "--trace",
            Flag::Store => "--store",
        }
    }

    /// The flag's token in the usage synopsis.
    fn synopsis(self) -> &'static str {
        match self {
            Flag::Scale => "[scale]",
            Flag::Filter => "[--filter auto|classic|bloom|xor]",
            Flag::Trace => "[--trace PATH]",
            Flag::Store => "[--store PATH]",
        }
    }

    /// The flag's entry in the usage description, newline-terminated.
    fn description(self) -> &'static str {
        match self {
            Flag::Scale => {
                "  scale             optional unsigned integer; per-binary meaning\n\
                 \x20                   (instructions per core, probe windows, trials,\n\
                 \x20                   insertions, ...)\n"
            }
            Flag::Filter => {
                "  --filter BACKEND  pattern-store backend for the simulated monitors:\n\
                 \x20                   auto (paper default), classic, bloom or xor\n"
            }
            Flag::Trace => {
                "  --trace PATH      replay a recorded pipo-trace file (v1 text or v2\n\
                 \x20                   binary)\n"
            }
            Flag::Store => {
                "  --store PATH      persistent content-addressed result store: warm sweep\n\
                 \x20                   cells are answered from it, cold cells recorded into it\n"
            }
        }
    }
}

/// The usage text of a binary named `binary` that declares `declared`:
/// its synopsis and one description per accepted flag, common flags
/// included. Undeclared flags do not appear.
#[must_use]
fn usage(binary: &str, declared: &[Flag]) -> String {
    let scale = declared.contains(&Flag::Scale);
    let options: Vec<Flag> = [Flag::Filter, Flag::Trace, Flag::Store]
        .into_iter()
        .filter(|flag| declared.contains(flag))
        .collect();
    let mut text = format!("usage: {binary}");
    if scale {
        text.push(' ');
        text.push_str(Flag::Scale.synopsis());
    }
    text.push_str(" [--json PATH] [--sequential | --threads N]\n      ");
    for flag in &options {
        text.push(' ');
        text.push_str(flag.synopsis());
    }
    text.push_str(" [--help]\n\n");
    if scale {
        text.push_str(Flag::Scale.description());
    }
    text.push_str(
        "  --json PATH       additionally write machine-readable results to PATH\n\
         \x20 --sequential      evaluate sweep cells one at a time\n\
         \x20                   (conflicts with --threads)\n\
         \x20 --threads N       evaluate sweep cells on N worker threads\n\
         \x20                   (default: one per host core; conflicts with --sequential)\n",
    );
    for flag in options {
        text.push_str(flag.description());
    }
    text.push_str("  --help, -h        print this help and exit");
    text
}

/// Checks that an output path can be created: it must not be a directory,
/// and its parent directory must exist (a bare file name lives in the
/// working directory). Output flags are checked at parse time, so a typo in
/// a path fails before the work rather than after it.
///
/// # Errors
///
/// Returns a message naming `flag` and `path` when the path is a directory
/// or its parent directory is missing.
pub fn check_output_path(flag: &str, path: &str) -> Result<(), String> {
    let path_ref = Path::new(path);
    if path_ref.is_dir() {
        return Err(format!("{flag} {path}: is a directory, not a file path"));
    }
    match path_ref.parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(format!(
            "{flag} {path}: directory {} does not exist",
            dir.display()
        )),
        _ => Ok(()),
    }
}

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
    /// Path to a recorded trace file to replay (`--trace PATH`).
    pub trace: Option<String>,
    /// Path to the persistent result store (`--store PATH`).
    pub store: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args` against the flags the binary declares,
    /// printing an error and exiting with status 2 on an unknown or
    /// undeclared flag, an unparsable value or a missing output directory.
    /// `--help`/`-h` prints the binary's usage and exits 0.
    #[must_use]
    pub fn parse(declared: &[Flag]) -> Self {
        let mut raw = std::env::args();
        let argv0 = raw.next().unwrap_or_default();
        let binary = Path::new(&argv0)
            .file_name()
            .map_or_else(String::new, |name| name.to_string_lossy().into_owned());
        let raw: Vec<String> = raw.collect();
        if raw.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", usage(&binary, declared));
            std::process::exit(0);
        }
        match Self::try_parse(declared, raw) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{}", usage(&binary, declared));
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list against the declared flags
    /// (testable core of [`parse`](Self::parse)).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown or undeclared flag, a
    /// missing flag value, an unparsable number, a duplicate positional
    /// argument, conflicting execution modes, or an output path whose
    /// directory does not exist.
    pub fn try_parse(
        declared: &[Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut out = Self {
            scale: None,
            json: None,
            mode: ExecMode::host_default(),
            filter: None,
            trace: None,
            store: None,
        };
        let accept = |flag: Flag| {
            if declared.contains(&flag) {
                Ok(())
            } else {
                Err(format!(
                    "unsupported flag {:?}: this binary does not declare it (see --help)",
                    flag.name()
                ))
            }
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
                    accept(Flag::Filter)?;
                    let raw = it.next().ok_or("--filter needs a backend name")?;
                    out.filter = Some(raw.parse().map_err(|_| {
                        format!("--filter expects one of auto, classic, bloom, xor; got {raw:?}")
                    })?);
                }
                "--trace" => {
                    accept(Flag::Trace)?;
                    out.trace = Some(it.next().ok_or("--trace needs a file path")?);
                }
                "--store" => {
                    accept(Flag::Store)?;
                    out.store = Some(it.next().ok_or("--store needs a file path")?);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                positional => {
                    if !declared.contains(&Flag::Scale) {
                        return Err(format!(
                            "unexpected argument {positional:?}: this binary takes no scale argument"
                        ));
                    }
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
        if let Some(path) = &out.json {
            check_output_path("--json", path)?;
        }
        if let Some(path) = &out.store {
            check_output_path("--store", path)?;
        }
        Ok(out)
    }

    /// The scale argument, or `default` when absent.
    #[must_use]
    pub fn scale_or(&self, default: u64) -> u64 {
        self.scale.unwrap_or(default)
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

    /// Parses with every flag declared.
    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        parse_declared(&Flag::ALL, args)
    }

    fn parse_declared(declared: &[Flag], args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse(declared, args.iter().map(ToString::to_string))
    }

    #[test]
    fn empty_args_use_defaults() {
        let args = parse(&[]).expect("valid");
        assert_eq!(args.scale, None);
        assert_eq!(args.json, None);
        assert_eq!(args.instructions(), crate::DEFAULT_INSTRUCTIONS);
        assert_eq!(args.scale_or(17), 17);
        assert_eq!(parse_declared(&[], &[]).expect("valid"), args);
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
        let store = std::env::temp_dir().join("results.store");
        let store = store.to_str().expect("UTF-8 temp dir");
        let args = parse(&["--store", store]).expect("valid");
        assert_eq!(args.store.as_deref(), Some(store));
        assert!(parse(&["--store"]).unwrap_err().contains("file path"));
    }

    #[test]
    fn usage_enumerates_every_flag() {
        let text = usage("fig8_performance", &Flag::ALL);
        assert!(
            text.starts_with("usage: fig8_performance [scale] "),
            "{text}"
        );
        for flag in [
            "--json",
            "--sequential",
            "--threads",
            "--filter",
            "--trace",
            "--store",
            "--help",
        ] {
            assert!(text.contains(flag), "usage text must mention {flag}");
        }
        for backend in FilterBackend::ALL {
            assert!(
                text.contains(backend.name()),
                "usage text must enumerate backend {backend}"
            );
        }
    }

    #[test]
    fn usage_lists_only_the_declared_flags() {
        let text = usage("fig3_occupancy", &[]);
        assert!(
            text.starts_with("usage: fig3_occupancy [--json PATH]"),
            "{text}"
        );
        for flag in Flag::ALL {
            assert!(
                !text.contains(flag.name()),
                "{} is undeclared: {text}",
                flag.name()
            );
        }
        for common in ["--json", "--sequential", "--threads", "--help"] {
            assert!(text.contains(common), "{common} is common to every binary");
        }
        let text = usage("trace_replay", &[Flag::Trace, Flag::Scale]);
        assert!(
            text.contains("[scale]") && text.contains("--trace"),
            "{text}"
        );
        assert!(
            !text.contains("--filter") && !text.contains("--store"),
            "{text}"
        );
    }

    #[test]
    fn undeclared_flags_are_errors_naming_the_flag() {
        for (flag, args) in [
            (Flag::Filter, &["--filter", "bloom"][..]),
            (Flag::Trace, &["--trace", "x.trace"][..]),
            (Flag::Store, &["--store", "x.store"][..]),
        ] {
            let declared: Vec<Flag> = Flag::ALL.into_iter().filter(|&f| f != flag).collect();
            let err = parse_declared(&declared, args).unwrap_err();
            assert!(
                err.contains(flag.name()) && err.contains("does not declare"),
                "{err}"
            );
            parse_declared(&[flag], args).expect("declared flag parses");
        }
        let err = parse_declared(&[Flag::Filter], &["5"]).unwrap_err();
        assert!(err.contains("scale") && err.contains('5'), "{err}");
        // An undeclared flag fails even when its value would be bad too.
        assert!(parse_declared(&[], &["--filter", "ribbon"])
            .unwrap_err()
            .contains("does not declare"));
    }

    #[test]
    fn output_paths_need_an_existing_directory() {
        for (flag, path) in [
            ("--json", "/nonexistent/dir/out.json"),
            ("--store", "/nonexistent/dir/results.store"),
        ] {
            let err = parse(&[flag, path]).unwrap_err();
            assert!(err.contains(flag) && err.contains(path), "{err}");
        }
        let dir = std::env::temp_dir();
        let dir = dir.to_str().expect("UTF-8 temp dir");
        assert!(parse(&["--json", dir]).unwrap_err().contains("directory"));
        assert!(check_output_path("--json", "out.json").is_ok());
        let here = std::env::temp_dir().join("out.json");
        assert!(check_output_path("--json", here.to_str().expect("UTF-8")).is_ok());
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
