//! End-to-end tests of the `pipo-serve` line-JSON protocol: a real server
//! on a real socket, driven by real TCP clients.
//!
//! The cells are tiny (`mix3`, 20 k instructions per core) so a full
//! submit → recompute → resubmit-warm cycle stays in test-suite time.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use cache_sim::SystemConfig;
use pipo_bench::serve::{ServeOptions, Server};
use pipo_bench::{run_mix_monitored_on, Json, ResultStore};
use pipo_workloads::all_mixes;
use pipomonitor::MonitorConfig;

fn temp_store(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pipo_serve_it_{}_{name}.log", std::process::id()))
}

/// Binds a server on a free port and runs it on a background thread.
fn start_server(
    path: &PathBuf,
    max_instructions: u64,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    std::fs::remove_file(path).ok();
    let store = ResultStore::open(path).expect("open fresh store");
    let server = Server::bind(
        store,
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_instructions,
        },
    )
    .expect("bind server");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Self { reader, writer }
    }

    fn send(&mut self, request: &str) {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send request");
    }

    fn read_line(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        assert!(line.ends_with('\n'), "responses are newline-terminated");
        Json::parse(line.trim_end()).expect("responses are valid JSON")
    }

    /// Sends a job and reads until its `done` (or error) line. Returns
    /// `(per-cell lines, summary line)`.
    fn job(&mut self, request: &str) -> (Vec<Json>, Json) {
        self.send(request);
        let mut cells = Vec::new();
        loop {
            let doc = self.read_line();
            let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
            let done = doc.get("done").and_then(Json::as_bool) == Some(true);
            if !ok || done {
                return (cells, doc);
            }
            cells.push(doc);
        }
    }
}

fn u64_field(doc: &Json, name: &str) -> u64 {
    doc.get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{name} missing from {doc:?}"))
}

const JOB: &str = r#"{"op":"job","cells":[
    {"mix":"mix3","instructions":20000,"seed":1},
    {"mix":"mix3","instructions":20000,"seed":1,"delay":100,"label":"slow"}]}"#;

#[test]
fn second_submission_is_served_from_the_store_byte_identically() {
    let path = temp_store("warm");
    let (addr, server) = start_server(&path, 1_000_000);
    let mut client = Client::connect(addr);

    let (cold_cells, cold_done) = client.job(&JOB.replace('\n', " "));
    assert_eq!(cold_cells.len(), 2);
    for cell in &cold_cells {
        assert_eq!(cell.get("cached").and_then(Json::as_bool), Some(false));
    }
    assert_eq!(u64_field(&cold_done, "hits"), 0);
    assert_eq!(u64_field(&cold_done, "misses"), 2);
    assert_eq!(u64_field(&cold_done, "store_records"), 2);

    // Same job again, same connection: all warm, and the result objects are
    // byte-identical to the cold ones (this is the cache's core contract).
    let (warm_cells, warm_done) = client.job(&JOB.replace('\n', " "));
    assert_eq!(warm_cells.len(), 2);
    let by_cell = |cells: &[Json]| -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = cells
            .iter()
            .map(|c| {
                (
                    u64_field(c, "cell"),
                    c.get("result").expect("result present").to_line(),
                )
            })
            .collect();
        out.sort();
        out
    };
    assert_eq!(by_cell(&warm_cells), by_cell(&cold_cells));
    for cell in &warm_cells {
        assert_eq!(cell.get("cached").and_then(Json::as_bool), Some(true));
    }
    assert_eq!(u64_field(&warm_done, "hits"), 2);
    assert_eq!(u64_field(&warm_done, "misses"), 0);
    assert_eq!(u64_field(&warm_done, "total_hits"), 2);
    assert_eq!(u64_field(&warm_done, "total_misses"), 2);
    // Warm answers are store lookups, not simulations: visibly faster.
    assert!(
        u64_field(&warm_done, "wall_us") < u64_field(&cold_done, "wall_us"),
        "warm {} µs vs cold {} µs",
        u64_field(&warm_done, "wall_us"),
        u64_field(&cold_done, "wall_us"),
    );

    // The dashboard aggregates both stored records.
    client.send(r#"{"op":"dashboard"}"#);
    let dashboard = client.read_line();
    assert_eq!(u64_field(&dashboard, "records"), 2);
    let mixes = dashboard
        .get("mixes")
        .and_then(Json::as_array)
        .expect("mixes");
    assert_eq!(mixes.len(), 1);
    assert_eq!(mixes[0].get("mix").and_then(Json::as_str), Some("mix3"));
    assert_eq!(u64_field(&mixes[0], "cells"), 2);

    client.send(r#"{"op":"shutdown"}"#);
    let ack = client.read_line();
    assert_eq!(ack.get("op").and_then(Json::as_str), Some("shutdown"));
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // The store survived the shutdown flush: a fresh process reads both
    // records back.
    let reopened = ResultStore::open(&path).expect("reopen store");
    assert_eq!(reopened.len(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn cold_job_larger_than_the_worker_count_streams_every_cell_once() {
    // Five cold cells on the server's two workers: every worker takes
    // several cells, and each must stream back exactly once with the
    // result a direct simulation of the same spec produces.
    let path = temp_store("oversubscribed");
    let (addr, server) = start_server(&path, 1_000_000);
    let seeds = 1..=5u64;
    let specs: Vec<String> = seeds
        .clone()
        .map(|seed| format!(r#"{{"mix":"mix3","instructions":20000,"seed":{seed}}}"#))
        .collect();
    let job = format!(r#"{{"op":"job","cells":[{}]}}"#, specs.join(","));
    let mut client = Client::connect(addr);
    let (cells, done) = client.job(&job);
    assert_eq!(u64_field(&done, "misses"), 5, "done line: {done:?}");

    let mut streamed: Vec<u64> = cells.iter().map(|c| u64_field(c, "cell")).collect();
    streamed.sort_unstable();
    assert_eq!(
        streamed,
        vec![0, 1, 2, 3, 4],
        "each cell streams exactly once"
    );
    let mix3 = all_mixes()
        .into_iter()
        .find(|m| m.name == "mix3")
        .expect("mix3 exists");
    for (index, seed) in seeds.enumerate() {
        let expected = run_mix_monitored_on(
            &mix3,
            SystemConfig::paper_default(),
            MonitorConfig::paper_default(),
            20_000,
            seed,
        )
        .to_json()
        .to_line();
        let cell = cells
            .iter()
            .find(|c| u64_field(c, "cell") == index as u64)
            .expect("cell streamed");
        assert_eq!(
            cell.get("result").expect("result present").to_line(),
            expected,
            "cell {index} (seed {seed}) must match a direct simulation"
        );
    }

    client.send(r#"{"op":"shutdown"}"#);
    let _ = client.read_line();
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_clients_get_identical_results() {
    let path = temp_store("concurrent");
    let (addr, server) = start_server(&path, 1_000_000);
    let job = r#"{"op":"job","cells":[{"mix":"mix3","instructions":20000,"seed":1}]}"#;

    let results: Vec<(String, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr);
                    let (cells, done) = client.job(job);
                    assert_eq!(cells.len(), 1, "done line: {done:?}");
                    (cells[0].get("result").expect("result").to_line(), done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // Every client saw the same result regardless of who computed it.
    for (result, _) in &results[1..] {
        assert_eq!(result, &results[0].0);
    }
    // Lifetime counters add up across clients: three cells served, at
    // least one miss (somebody computed it), store holds exactly one record.
    let mut client = Client::connect(addr);
    client.send(r#"{"op":"stats"}"#);
    let stats = client.read_line();
    assert_eq!(u64_field(&stats, "cells"), 3);
    assert_eq!(u64_field(&stats, "jobs"), 3);
    assert!(u64_field(&stats, "misses") >= 1);
    assert_eq!(u64_field(&stats, "hits") + u64_field(&stats, "misses"), 3);
    assert_eq!(
        u64_field(stats.get("store").expect("store section"), "records"),
        1
    );

    client.send(r#"{"op":"shutdown"}"#);
    let _ = client.read_line();
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    std::fs::remove_file(&path).ok();
}

#[test]
fn protocol_errors_are_structured_and_nonfatal() {
    let path = temp_store("errors");
    let (addr, server) = start_server(&path, 50_000);
    let mut client = Client::connect(addr);

    // Unknown op, bad JSON, bad cell specs: each answers a structured
    // error and the connection stays usable.
    client.send(r#"{"op":"frobnicate"}"#);
    let err = client.read_line();
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    assert!(err
        .get("error")
        .and_then(Json::as_str)
        .expect("message")
        .contains("frobnicate"));

    client.send("this is not json");
    let err = client.read_line();
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    assert!(err
        .get("error")
        .and_then(Json::as_str)
        .expect("message")
        .contains("byte"));

    client.send(r#"{"op":"job","cells":[{"mix":"mix99"}]}"#);
    let err = client.read_line();
    let message = err.get("error").and_then(Json::as_str).expect("message");
    assert!(
        message.contains("cell 0") && message.contains("mix99"),
        "{message}"
    );

    // Admission control: the server caps instructions per cell.
    client.send(r#"{"op":"job","cells":[{"mix":"mix3","instructions":60000}]}"#);
    let err = client.read_line();
    let message = err.get("error").and_then(Json::as_str).expect("message");
    assert!(message.contains("limit of 50000"), "{message}");

    // Still alive after all that.
    client.send(r#"{"op":"ping"}"#);
    assert_eq!(
        client.read_line().get("op").and_then(Json::as_str),
        Some("pong")
    );

    client.send(r#"{"op":"shutdown"}"#);
    let _ = client.read_line();
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    std::fs::remove_file(&path).ok();
}
