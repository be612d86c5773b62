//! `pipo-serve`: long-running sweep service over the persistent result store.
//!
//! Server mode keeps one [`ResultStore`] resident and answers line-JSON
//! requests over TCP (see `pipo_bench::serve` for the protocol): warm sweep
//! cells come back in microseconds, cold cells are simulated across
//! `--workers` threads, streamed as they finish and written back to the
//! store. Client mode is a one-shot request sender so scripts (and the
//! CI smoke step) can exercise the socket without extra tooling.
//!
//! ```text
//! pipo_serve --store PATH [--addr HOST:PORT] [--workers N]
//!            [--budget BYTES] [--max-instructions N]
//! pipo_serve --connect HOST:PORT --request JSON
//! ```
//!
//! The server prints `pipo-serve listening on HOST:PORT` once the socket is
//! bound (with `--addr 127.0.0.1:0` this is how the chosen port is learned)
//! and runs until a client sends `{"op":"shutdown"}`. The client prints every
//! response line to stdout and exits 0 if all were `"ok":true`, 3 otherwise.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use pipo_bench::serve::{ServeOptions, Server};
use pipo_bench::{Json, ResultStore};

const USAGE: &str = "\
usage: pipo_serve --store PATH [--addr HOST:PORT] [--workers N]
                  [--budget BYTES] [--max-instructions N]
       pipo_serve --connect HOST:PORT --request JSON

server mode:
  --store PATH          persistent result store to serve (created on first
                        write if missing)
  --addr HOST:PORT      listen address (default 127.0.0.1:0 — a free port,
                        printed as `pipo-serve listening on ...`)
  --workers N           worker threads for cold sweep cells
                        (default: one per host core)
  --budget BYTES        LRU size budget for the store (default: unbounded)
  --max-instructions N  reject job cells asking for more than N instructions
                        per core (admission control)

client mode:
  --connect HOST:PORT   send one request to a running server
  --request JSON        the request object (one line); job responses are
                        read until their `done` summary line

  --help, -h            print this help and exit";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    store: Option<String>,
    addr: Option<String>,
    workers: Option<usize>,
    budget: Option<u64>,
    max_instructions: Option<u64>,
    connect: Option<String>,
    request: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        store: None,
        addr: None,
        workers: None,
        budget: None,
        max_instructions: None,
        connect: None,
        request: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--store" => args.store = Some(value("--store")),
            "--addr" => args.addr = Some(value("--addr")),
            "--workers" => {
                let raw = value("--workers");
                match raw.parse() {
                    Ok(n) if n > 0 => args.workers = Some(n),
                    _ => usage_error(&format!(
                        "--workers expects a positive integer, got {raw:?}"
                    )),
                }
            }
            "--budget" => {
                let raw = value("--budget");
                args.budget = Some(raw.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--budget expects a byte count, got {raw:?}"))
                }));
            }
            "--max-instructions" => {
                let raw = value("--max-instructions");
                match raw.parse() {
                    Ok(n) if n > 0 => args.max_instructions = Some(n),
                    _ => usage_error(&format!(
                        "--max-instructions expects a positive integer, got {raw:?}"
                    )),
                }
            }
            "--connect" => args.connect = Some(value("--connect")),
            "--request" => args.request = Some(value("--request")),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    match (&args.connect, &args.store) {
        (Some(_), _) => client_main(&args),
        (None, Some(_)) => server_main(&args),
        (None, None) => {
            usage_error("pick a mode: --store PATH (server) or --connect ADDR (client)")
        }
    }
}

fn server_main(args: &Args) {
    for (flag, set) in [("--request", args.request.is_some())] {
        if set {
            usage_error(&format!("{flag} is a client-mode flag (needs --connect)"));
        }
    }
    let path = args.store.as_deref().expect("server mode has --store");
    let store = match args.budget {
        Some(budget) => ResultStore::with_budget(path, budget),
        None => ResultStore::open(path),
    };
    let store = store.unwrap_or_else(|e| {
        eprintln!("error: cannot open result store {path}: {e}");
        std::process::exit(1);
    });
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        addr: args.addr.clone().unwrap_or(defaults.addr),
        workers: args.workers.unwrap_or(defaults.workers),
        max_instructions: args.max_instructions.unwrap_or(defaults.max_instructions),
    };
    eprintln!(
        "store {path}: {} records recovered",
        store.telemetry().recovered_records
    );
    let server = Server::bind(store, options).unwrap_or_else(|e| {
        eprintln!("error: cannot bind listen socket: {e}");
        std::process::exit(1);
    });
    // The one line scripts wait for: the resolved listen address.
    println!("pipo-serve listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("error: server failed: {e}");
        std::process::exit(1);
    }
    eprintln!("pipo-serve: shut down, store flushed");
}

fn client_main(args: &Args) {
    for (flag, set) in [
        ("--store", args.store.is_some()),
        ("--addr", args.addr.is_some()),
        ("--workers", args.workers.is_some()),
        ("--budget", args.budget.is_some()),
        ("--max-instructions", args.max_instructions.is_some()),
    ] {
        if set {
            usage_error(&format!(
                "{flag} is a server-mode flag (conflicts with --connect)"
            ));
        }
    }
    let addr = args.connect.as_deref().expect("client mode has --connect");
    let Some(request) = args.request.as_deref() else {
        usage_error("client mode needs --request JSON");
    };
    let parsed = Json::parse(request).unwrap_or_else(|e| {
        usage_error(&format!("--request is not valid JSON: {e}"));
    });
    let is_job = parsed.get("op").and_then(Json::as_str) == Some("job");

    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| {
        eprintln!("error: cannot clone socket: {e}");
        std::process::exit(1);
    }));
    let mut writer = stream;
    if let Err(e) = writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
    {
        eprintln!("error: cannot send request: {e}");
        std::process::exit(1);
    }

    // A job answers with one line per cell then a `done` summary; every
    // other op answers with exactly one line.
    let mut all_ok = true;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                eprintln!("error: server closed the connection mid-response");
                std::process::exit(1);
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: cannot read response: {e}");
                std::process::exit(1);
            }
        }
        print!("{line}");
        let doc = Json::parse(line.trim_end()).unwrap_or_else(|e| {
            eprintln!("error: unparsable response line: {e}");
            std::process::exit(1);
        });
        let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
        all_ok &= ok;
        let done = doc.get("done").and_then(Json::as_bool) == Some(true);
        if !is_job || done || !ok {
            break;
        }
    }
    std::process::exit(if all_ok { 0 } else { 3 });
}
