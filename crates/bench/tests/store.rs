//! Integration tests for the persistent content-addressed result store.
//!
//! `src/store.rs` carries targeted unit tests (FNV vectors, canonical-key
//! pins, basic round trips); this suite attacks the log format the way the
//! trace_v2 suite attacks the trace decoder:
//!
//! * randomized record sets — keys and payloads mixing newlines, quotes,
//!   frame-magic lookalikes and multi-byte UTF-8 — must round-trip through
//!   flush + reopen with last-put-wins semantics;
//! * recovery must tolerate truncation at **every** byte offset and byte
//!   flips at every offset without panicking, and must never resurrect a
//!   record that differs from what was written;
//! * a flush writes records in insertion order, so it is deterministic,
//!   and two writers of one path get last-flush-wins with no torn record;
//! * an interrupted atomic write (temp file present, rename never happened)
//!   must leave the previous log fully readable.

use std::collections::HashMap;
use std::path::PathBuf;

use pipo_bench::ResultStore;
use proptest::collection::vec;
use proptest::prelude::*;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pipo_store_it_{}_{name}.log", std::process::id()))
}

/// Builds a string over a deliberately hostile alphabet: record-frame
/// lookalikes, newlines, JSON metacharacters, NUL, multi-byte UTF-8.
fn hostile_string(picks: Vec<u8>) -> String {
    const PIECES: [&str; 12] = [
        "rec ",
        "\n",
        "pipo-store v1",
        "\"",
        "\\",
        " ",
        "é",
        "😀",
        "k",
        "0",
        "{\"v\": 1}",
        "\u{0}",
    ];
    picks
        .into_iter()
        .map(|p| PIECES[p as usize % PIECES.len()])
        .collect()
}

fn arb_records() -> impl Strategy<Value = Vec<(String, String)>> {
    vec(
        (
            vec(any::<u8>(), 1..12).prop_map(hostile_string),
            vec(any::<u8>(), 0..20).prop_map(hostile_string),
        ),
        0..16,
    )
}

proptest! {
    #[test]
    fn arbitrary_records_round_trip_through_flush_and_reopen(
        records in arb_records(),
        case in 0u64..u64::MAX,
    ) {
        let path = temp_path(&format!("roundtrip_{case}"));
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open fresh");
        let mut expected: HashMap<&str, &str> = HashMap::new();
        for (key, payload) in &records {
            store.put(key, payload);
            expected.insert(key, payload);
        }
        store.flush().expect("flush");

        let mut reopened = ResultStore::open(&path).expect("reopen");
        prop_assert_eq!(reopened.len(), expected.len());
        prop_assert_eq!(reopened.telemetry().dropped_tail_bytes, 0);
        for (key, payload) in &expected {
            prop_assert_eq!(reopened.get(key), Some(*payload));
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The canonical on-disk fixture the corruption tests chew on: a few
/// records with distinct sizes and contents.
fn write_fixture(path: &PathBuf) -> Vec<(String, String)> {
    std::fs::remove_file(path).ok();
    let records: Vec<(String, String)> = (0..5)
        .map(|i| {
            (
                format!("pipo/v1 test key {i}"),
                format!(
                    "{{\n  \"value\": {i},\n  \"pad\": \"{}\"\n}}\n",
                    "x".repeat(i * 7)
                ),
            )
        })
        .collect();
    let mut store = ResultStore::open(path).expect("open fresh");
    for (key, payload) in &records {
        store.put(key, payload);
    }
    store.flush().expect("flush");
    records
}

#[test]
fn recovery_survives_truncation_at_every_byte() {
    const HEADER_LEN: usize = "pipo-store v1\n".len();
    let path = temp_path("truncate");
    let records = write_fixture(&path);
    let image = std::fs::read(&path).expect("read log");
    let cut_path = temp_path("truncate_cut");
    for cut in 0..=image.len() {
        std::fs::write(&cut_path, &image[..cut]).expect("write truncated log");
        // Every cut must open: a torn tail is data loss, never an error or
        // a panic.
        let mut store = ResultStore::open(&cut_path)
            .unwrap_or_else(|e| panic!("cut at {cut} failed to open: {e}"));
        let telemetry = store.telemetry();
        if cut < HEADER_LEN {
            // A torn header recovers as an empty store.
            assert_eq!(store.len(), 0, "cut {cut}");
            assert_eq!(telemetry.dropped_tail_bytes, cut as u64, "cut {cut}");
        } else {
            // Recovered log bytes + dropped tail bytes account for the
            // whole truncated file — nothing silently vanishes.
            assert_eq!(
                store.bytes() + telemetry.dropped_tail_bytes,
                cut as u64,
                "cut {cut}: bytes accounted for"
            );
        }
        // Records were flushed oldest-first, so what survives is a prefix:
        // each record is intact until the first missing one, none after.
        let survived: Vec<bool> = records
            .iter()
            .map(|(key, payload)| match store.get(key) {
                Some(got) => {
                    assert_eq!(got, payload, "cut {cut}: served payload intact");
                    true
                }
                None => false,
            })
            .collect();
        let prefix_len = survived.iter().take_while(|&&s| s).count();
        assert!(
            survived[prefix_len..].iter().all(|&s| !s),
            "cut {cut}: survivors form a prefix, got {survived:?}"
        );
        assert_eq!(
            telemetry.recovered_records as usize, prefix_len,
            "cut {cut}"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cut_path).ok();
}

#[test]
fn recovery_survives_a_flip_at_every_byte_without_resurrecting_garbage() {
    let path = temp_path("flip");
    let records = write_fixture(&path);
    let image = std::fs::read(&path).expect("read log");
    let flip_path = temp_path("flip_cut");
    for offset in 0..image.len() {
        let mut corrupt = image.clone();
        corrupt[offset] ^= 0x20;
        std::fs::write(&flip_path, &corrupt).expect("write corrupt log");
        // A flipped byte may drop records (checksum mismatch ends the scan)
        // or reject the file outright (header damage) — but every record
        // that *does* come back must be byte-identical to one we wrote.
        let Ok(mut store) = ResultStore::open(&flip_path) else {
            continue;
        };
        let recovered = store.len();
        assert!(
            recovered <= records.len(),
            "flip at {offset} resurrected extra records"
        );
        let mut matched = 0;
        for (key, payload) in &records {
            if let Some(got) = store.get(key) {
                assert_eq!(got, payload, "flip at {offset} corrupted a served payload");
                matched += 1;
            }
        }
        assert_eq!(
            matched, recovered,
            "flip at {offset}: every recovered record matches an original"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&flip_path).ok();
}

/// The store's file image after `ops` on a fresh store at `path`: `Some`
/// payloads are puts, `None` payloads are lookups.
fn image_after(path: &PathBuf, ops: &[(&str, Option<&str>)]) -> Vec<u8> {
    std::fs::remove_file(path).ok();
    let mut store = ResultStore::open(path).expect("open fresh");
    for (key, payload) in ops {
        match payload {
            Some(payload) => store.put(key, payload),
            None => {
                store.get(key);
            }
        }
    }
    store.flush().expect("flush");
    std::fs::read(path).expect("read log")
}

#[test]
fn flush_writes_records_in_insertion_order() {
    let path = temp_path("order");
    let puts = [
        ("key-c", Some("3")),
        ("key-a", Some("1")),
        ("key-b", Some("2")),
    ];
    let plain = image_after(&path, &puts);
    let text = String::from_utf8(plain.clone()).expect("UTF-8 log");
    let at = |key: &str| text.find(key).expect("record present");
    assert!(
        at("key-c") < at("key-a") && at("key-a") < at("key-b"),
        "{text}"
    );

    // Lookups do not reorder records, and an overwrite keeps its slot.
    let mut busy = puts.to_vec();
    busy.extend([("key-a", None), ("key-missing", None), ("key-c", Some("3"))]);
    assert_eq!(image_after(&path, &busy), plain, "same records, same bytes");

    // Reopening keeps the file order and appends new records after it.
    let mut store = ResultStore::open(&path).expect("reopen");
    store.put("key-0", "0");
    store.flush().expect("flush");
    let text = std::fs::read_to_string(&path).expect("read log");
    let at = |key: &str| text.find(key).expect("record present");
    assert!(at("key-b") < at("key-0"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_writers_get_last_flush_wins_without_torn_records() {
    let path = temp_path("writers");
    std::fs::remove_file(&path).ok();
    let mut first = ResultStore::open(&path).expect("open first writer");
    let mut second = ResultStore::open(&path).expect("open second writer");
    first.put("only-first", "{\"v\": 1}");
    second.put("only-second", "{\"v\": 2}");
    first.flush().expect("first flush");
    second.flush().expect("second flush");

    let mut reopened = ResultStore::open(&path).expect("reopen");
    assert_eq!(reopened.telemetry().dropped_tail_bytes, 0, "no torn record");
    assert_eq!(reopened.len(), 1, "the later flush replaced the file");
    assert_eq!(reopened.get("only-second"), Some("{\"v\": 2}"));
    assert_eq!(reopened.get("only-first"), None, "lost, not torn");
    std::fs::remove_file(&path).ok();
}

#[test]
fn interrupted_atomic_write_leaves_the_old_log_readable() {
    let path = temp_path("torn");
    let records = write_fixture(&path);
    let old_image = std::fs::read(&path).expect("read log");

    // Simulate another writer killed mid-`write_atomic`: its temp file
    // exists (with a torn half-image) but the rename never happened.
    let tmp = PathBuf::from(format!("{}.tmp.99999", path.display()));
    std::fs::write(&tmp, &old_image[..old_image.len() / 2]).expect("write torn temp");

    let mut store = ResultStore::open(&path).expect("old log opens untouched");
    assert_eq!(store.len(), records.len());
    for (key, payload) in &records {
        assert_eq!(store.get(key), Some(payload.as_str()));
    }
    // A subsequent successful flush replaces the log wholesale.
    store.put("fresh", "{\"v\": 9}");
    store.flush().expect("flush over torn state");
    let mut reopened = ResultStore::open(&path).expect("reopen");
    assert_eq!(reopened.len(), records.len() + 1);
    assert_eq!(reopened.get("fresh"), Some("{\"v\": 9}"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp).ok();
}
