//! `pipo-store`: a persistent, content-addressed result cache.
//!
//! The sweep engine's in-memory baseline memoization dies with the process;
//! this module generalises it into an on-disk cache shared by every figure
//! binary (`--store PATH`) and the long-running `pipo-serve` service. The
//! design follows the `jdb_wal`/`size_lru` append-only-log pattern named in
//! `ROADMAP.md`:
//!
//! * **Content addressing** — a record's address is the stable FNV-1a hash
//!   of its *canonical cell key*: a single-line ASCII rendering of every
//!   input that determines a cell's result (`SystemConfig`, mix + component
//!   benchmarks, `MonitorConfig` including filter geometry and backend,
//!   instructions, seed) prefixed with a schema version. How a sweep runs
//!   its cells (sequentially or on N threads) is deliberately **excluded**:
//!   per-cell results are bit-identical either way (pinned by the sweep
//!   regression suite), so every execution mode shares cache records. The
//!   full key is stored next to each record and verified on lookup, so a hash
//!   collision degrades to a miss, never a wrong answer.
//! * **Append-only log, validated on open** — the file is a header line
//!   followed by framed records (`rec <hash> <keylen> <paylen> <checksum>`
//!   then the raw key and payload bytes). Recovery follows the trace_v2
//!   decoder's validate-everything discipline: every frame's lengths,
//!   hash, checksum and terminator are checked, and the first malformed
//!   byte ends the scan — a truncated or torn tail is dropped (and counted
//!   in telemetry), never trusted and never a panic.
//! * **Atomic persistence** — [`ResultStore::flush`] rewrites the compacted
//!   log through [`write_atomic`]
//!   (write-temp-then-rename), so readers see either the previous log or
//!   the complete new one even if a flush is killed mid-write.
//! * **LRU size budget** — with [`ResultStore::with_budget`], inserting past
//!   the byte budget evicts least-recently-used records (lookups refresh
//!   recency; the newest record is never evicted). Compaction happens at
//!   flush: live records are written oldest-first, so file order *is*
//!   recency order on recovery.
//!
//! The store is single-writer: concurrent processes should go through
//! `pipo-serve`, which serialises access behind one store.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use cache_sim::{Replacement, SystemConfig};
use pipo_workloads::Mix;
use pipomonitor::MonitorConfig;

use crate::json::write_atomic;
use crate::sweep::MixCell;

/// Version stamped into both the canonical key prefix and the log header.
/// Bump it whenever the simulation semantics or the payload schema change:
/// old records then simply never match, instead of being served stale.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// First line of every store file.
const HEADER: &str = "pipo-store v1\n";

/// Upper bound on one record's framing line (`rec ` + 16-digit hash +
/// two decimal lengths + 16-digit checksum + spaces + newline). Used to
/// bound the newline scan so a corrupt tail cannot make recovery quadratic.
const MAX_FRAME_LINE: usize = 96;

/// FNV-1a 64-bit: the store's stable content hash. Hand-rolled because the
/// standard library's hasher is explicitly unstable across releases, and
/// on-disk addresses must outlive the binary that wrote them.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn replacement_part(replacement: &Replacement) -> String {
    match replacement {
        Replacement::Lru => "lru".to_string(),
        Replacement::TreePlru => "tree-plru".to_string(),
        Replacement::Random { seed } => format!("random:{seed}"),
    }
}

fn system_part(system: &SystemConfig) -> String {
    format!(
        "cores:{},line:{},l1:{}x{}@{},l2:{}x{}@{},l3:{}x{}@{},dram:{},repl:{}",
        system.cores,
        system.line_size,
        system.l1.sets,
        system.l1.ways,
        system.l1.latency,
        system.l2.sets,
        system.l2.ways,
        system.l2.latency,
        system.l3.sets,
        system.l3.ways,
        system.l3.latency,
        system.dram_latency,
        replacement_part(&system.replacement),
    )
}

fn mix_part(mix: &Mix) -> String {
    let mut benches = String::new();
    for (i, bench) in mix.benchmarks.iter().enumerate() {
        if i > 0 {
            benches.push('+');
        }
        benches.push_str(bench.name);
    }
    format!("{}:{benches}", mix.name)
}

fn monitor_part(monitor: &MonitorConfig) -> String {
    format!(
        "backend:{},l:{},b:{},f:{},mnk:{},thr:{},fseed:{:#x},delay:{}",
        monitor.backend.name(),
        monitor.filter.buckets(),
        monitor.filter.entries_per_bucket(),
        monitor.filter.fingerprint_bits(),
        monitor.filter.max_kicks(),
        monitor.filter.security_threshold(),
        monitor.filter.seed(),
        monitor.prefetch_delay,
    )
}

/// Canonical key of a baseline (unprotected) run: everything that
/// determines a `run_mix_baseline_on` result. Also the key the sweep engine
/// dedups baselines on.
#[must_use]
pub fn baseline_cell_key(system: &SystemConfig, mix: &Mix, instructions: u64, seed: u64) -> String {
    format!(
        "pipo/v{STORE_SCHEMA_VERSION} sys={} mix={} instr={instructions} seed={seed}",
        system_part(system),
        mix_part(mix),
    )
}

/// Canonical key of a monitored sweep cell: the baseline key plus the full
/// monitor configuration. This is the content address of one
/// [`MixRun`](crate::MixRun) record.
#[must_use]
pub fn mix_cell_key(cell: &MixCell) -> String {
    format!(
        "{} mon={}",
        baseline_cell_key(&cell.system, &cell.mix, cell.instructions, cell.seed),
        monitor_part(&cell.monitor),
    )
}

/// Counters describing one store session (plus what recovery found on open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTelemetry {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found no record.
    pub misses: u64,
    /// Records inserted (new keys).
    pub puts: u64,
    /// Records overwritten in place (same key, new payload).
    pub replacements: u64,
    /// Records evicted to honour the size budget.
    pub evictions: u64,
    /// Valid records recovered when the store was opened.
    pub recovered_records: u64,
    /// Bytes of invalid/truncated tail dropped when the store was opened.
    pub dropped_tail_bytes: u64,
}

#[derive(Debug)]
struct Entry {
    key: String,
    payload: String,
    /// Logical recency clock; larger = more recently touched.
    stamp: u64,
}

/// FNV-1a over the concatenated key and payload bytes: the per-record
/// integrity checksum.
fn body_checksum(key: &[u8], payload: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in key.iter().chain(payload) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn record_frame(key: &str, payload: &str) -> String {
    format!(
        "rec {:016x} {} {} {:016x}\n",
        fnv1a64(key.as_bytes()),
        key.len(),
        payload.len(),
        body_checksum(key.as_bytes(), payload.as_bytes()),
    )
}

fn record_size(key: &str, payload: &str) -> u64 {
    (record_frame(key, payload).len() + key.len() + payload.len() + 1) as u64
}

/// The persistent content-addressed result store (see module docs).
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    /// FNV key hash → entries whose keys hash there (collisions coexist).
    entries: HashMap<u64, Vec<Entry>>,
    /// Logical clock driving LRU stamps.
    clock: u64,
    /// Size budget in encoded bytes (`None` = unbounded).
    budget: Option<u64>,
    /// Encoded size of the live log (header + all live records).
    live_bytes: u64,
    /// In-memory state differs from the file on disk.
    dirty: bool,
    telemetry: StoreTelemetry,
}

impl ResultStore {
    /// Opens (or initialises) an unbounded store at `path`. The file is not
    /// created until the first [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// I/O errors reading an existing file, or a file whose header is not a
    /// `pipo-store v1` header (truncated tails — including a torn header
    /// prefix — recover instead of erroring; see module docs).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, None)
    }

    /// Opens a store bounded to `budget_bytes` of encoded log. Inserting
    /// past the budget evicts least-recently-used records; the most recent
    /// record always survives even if it alone exceeds the budget.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn with_budget(path: impl AsRef<Path>, budget_bytes: u64) -> io::Result<Self> {
        Self::open_with(path, Some(budget_bytes))
    }

    fn open_with(path: impl AsRef<Path>, budget: Option<u64>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut store = Self {
            path,
            entries: HashMap::new(),
            clock: 0,
            budget,
            live_bytes: HEADER.len() as u64,
            dirty: false,
            telemetry: StoreTelemetry::default(),
        };
        let bytes = match std::fs::read(&store.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e),
        };
        store.recover(&bytes)?;
        // Recovered entries may already exceed a (new, smaller) budget.
        store.enforce_budget();
        Ok(store)
    }

    /// Rebuilds the in-memory index from a log image, dropping the first
    /// malformed byte onward (truncation-tolerant, never panics).
    fn recover(&mut self, bytes: &[u8]) -> io::Result<()> {
        if !bytes.starts_with(HEADER.as_bytes()) {
            // A strict prefix of the header is a torn write of a fresh
            // store: recover it as empty. Anything else is not ours.
            if HEADER.as_bytes().starts_with(bytes) {
                self.telemetry.dropped_tail_bytes = bytes.len() as u64;
                self.dirty = !bytes.is_empty();
                return Ok(());
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a pipo-store v1 file", self.path.display()),
            ));
        }
        let mut offset = HEADER.len();
        while offset < bytes.len() {
            let Some((key, payload, next)) = parse_record(bytes, offset) else {
                break;
            };
            self.insert_recovered(key, payload);
            offset = next;
        }
        self.telemetry.dropped_tail_bytes = (bytes.len() - offset) as u64;
        self.telemetry.recovered_records = self.len() as u64;
        // A dropped tail (or superseded duplicate records) means the file
        // and the index disagree; rewrite on the next flush.
        self.dirty = self.telemetry.dropped_tail_bytes > 0;
        Ok(())
    }

    fn insert_recovered(&mut self, key: String, payload: String) {
        self.clock += 1;
        let hash = fnv1a64(key.as_bytes());
        let bucket = self.entries.entry(hash).or_default();
        if let Some(entry) = bucket.iter_mut().find(|e| e.key == key) {
            // Later records supersede earlier ones (append-only updates).
            self.live_bytes -= record_size(&entry.key, &entry.payload);
            self.live_bytes += record_size(&key, &payload);
            entry.payload = payload;
            entry.stamp = self.clock;
            self.dirty = true;
        } else {
            self.live_bytes += record_size(&key, &payload);
            bucket.push(Entry {
                key,
                payload,
                stamp: self.clock,
            });
        }
    }

    /// Looks up a record by its canonical key, refreshing its LRU recency.
    pub fn get(&mut self, key: &str) -> Option<&str> {
        self.clock += 1;
        let clock = self.clock;
        let hash = fnv1a64(key.as_bytes());
        let entry = self
            .entries
            .get_mut(&hash)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.key == key));
        match entry {
            Some(entry) => {
                entry.stamp = clock;
                self.telemetry.hits += 1;
                Some(&entry.payload)
            }
            None => {
                self.telemetry.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) a record, then evicts least-recently-used
    /// records if a budget is exceeded. Nothing touches disk until
    /// [`flush`](Self::flush).
    pub fn put(&mut self, key: &str, payload: &str) {
        self.clock += 1;
        let clock = self.clock;
        let hash = fnv1a64(key.as_bytes());
        let bucket = self.entries.entry(hash).or_default();
        if let Some(entry) = bucket.iter_mut().find(|e| e.key == key) {
            self.live_bytes -= record_size(&entry.key, &entry.payload);
            self.live_bytes += record_size(key, payload);
            entry.payload = payload.to_string();
            entry.stamp = clock;
            self.telemetry.replacements += 1;
        } else {
            self.live_bytes += record_size(key, payload);
            bucket.push(Entry {
                key: key.to_string(),
                payload: payload.to_string(),
                stamp: clock,
            });
            self.telemetry.puts += 1;
        }
        self.dirty = true;
        self.enforce_budget();
    }

    fn enforce_budget(&mut self) {
        let Some(budget) = self.budget else { return };
        while self.live_bytes > budget && self.len() > 1 {
            let (&hash, min_stamp) = self
                .entries
                .iter()
                .filter(|(_, bucket)| !bucket.is_empty())
                .map(|(hash, bucket)| {
                    (
                        hash,
                        bucket.iter().map(|e| e.stamp).min().expect("non-empty"),
                    )
                })
                .min_by_key(|&(_, stamp)| stamp)
                .expect("len > 1 means a bucket is non-empty");
            let bucket = self.entries.get_mut(&hash).expect("bucket exists");
            let pos = bucket
                .iter()
                .position(|e| e.stamp == min_stamp)
                .expect("stamp came from this bucket");
            let entry = bucket.swap_remove(pos);
            if bucket.is_empty() {
                self.entries.remove(&hash);
            }
            self.live_bytes -= record_size(&entry.key, &entry.payload);
            self.telemetry.evictions += 1;
            self.dirty = true;
        }
    }

    /// Writes the compacted log atomically (temp file + rename) if anything
    /// changed since the last flush. Live records are written in recency
    /// order, oldest first, so recovery reconstructs the LRU order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; the previous on-disk log is
    /// untouched on failure.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let mut records: Vec<&Entry> = self.entries.values().flatten().collect();
        records.sort_by_key(|e| e.stamp);
        let mut image = String::with_capacity(self.live_bytes as usize);
        image.push_str(HEADER);
        for entry in records {
            image.push_str(&record_frame(&entry.key, &entry.payload));
            image.push_str(&entry.key);
            image.push_str(&entry.payload);
            image.push('\n');
        }
        debug_assert_eq!(image.len() as u64, self.live_bytes);
        write_atomic(&self.path, image.as_bytes())?;
        self.dirty = false;
        Ok(())
    }

    /// Number of live records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.values().all(Vec::is_empty)
    }

    /// Encoded size of the live log in bytes (header + records).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.live_bytes
    }

    /// The store's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Session counters plus recovery statistics.
    #[must_use]
    pub fn telemetry(&self) -> StoreTelemetry {
        self.telemetry
    }

    /// Iterates `(key, payload)` over live records in unspecified order
    /// (the `pipo-serve` dashboard aggregates these).
    pub fn records(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .values()
            .flatten()
            .map(|e| (e.key.as_str(), e.payload.as_str()))
    }
}

/// Flushes a figure binary's `--store` (when present) and reports the
/// warm/cold split on stderr. Stderr, deliberately: store telemetry varies
/// between cold and warm invocations, and the `--json` documents must stay
/// byte-identical with and without a store.
pub fn finish_store(
    store: Option<&mut ResultStore>,
    outcome: crate::sweep::SweepStoreOutcome,
    elapsed: std::time::Duration,
) {
    let Some(store) = store else { return };
    if let Err(e) = store.flush() {
        eprintln!(
            "error: cannot flush result store {}: {e}",
            store.path().display()
        );
        std::process::exit(1);
    }
    eprintln!(
        "store {}: {} warm / {} cold cells in {elapsed:.1?} ({} records, {} bytes)",
        store.path().display(),
        outcome.hits,
        outcome.misses,
        store.len(),
        store.bytes(),
    );
}

/// Parses one record frame at `offset`. Returns `(key, payload, next
/// offset)` or `None` on any malformation — short frame, bad magic, bad
/// lengths, checksum/hash mismatch, invalid UTF-8, missing terminator.
fn parse_record(bytes: &[u8], offset: usize) -> Option<(String, String, usize)> {
    let rest = &bytes[offset..];
    let line_end = rest.iter().take(MAX_FRAME_LINE).position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..line_end]).ok()?;
    let mut fields = line.split(' ');
    if fields.next()? != "rec" {
        return None;
    }
    let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
    let keylen: usize = fields.next()?.parse().ok()?;
    let paylen: usize = fields.next()?.parse().ok()?;
    let check = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() {
        return None;
    }
    let body_start = line_end + 1;
    let body_end = body_start.checked_add(keylen)?.checked_add(paylen)?;
    if body_end.checked_add(1)? > rest.len() {
        return None;
    }
    if rest[body_end] != b'\n' {
        return None;
    }
    let key_bytes = &rest[body_start..body_start + keylen];
    let payload_bytes = &rest[body_start + keylen..body_end];
    if fnv1a64(key_bytes) != hash {
        return None;
    }
    if body_checksum(key_bytes, payload_bytes) != check {
        return None;
    }
    let key = std::str::from_utf8(key_bytes).ok()?.to_string();
    let payload = std::str::from_utf8(payload_bytes).ok()?.to_string();
    Some((key, payload, offset + body_end + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipo_workloads::all_mixes;

    fn temp_store(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pipo_store_unit_{}_{name}.log", std::process::id()))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors; a silent change here would orphan
        // every record ever written.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canonical_keys_are_stable() {
        let cell = MixCell::new(
            "k",
            all_mixes()[0],
            MonitorConfig::paper_default(),
            2_000_000,
            42,
        );
        let key = mix_cell_key(&cell);
        // Pin the exact canonical rendering: any accidental change silently
        // orphans all previously stored records.
        let expected = concat!(
            "pipo/v1 sys=cores:4,line:64,l1:256x4@2,l2:512x8@18,l3:4096x16@35,dram:200,repl:lru",
            " mix=mix1:libquantum+mcf+sphinx3+gobmk instr=2000000 seed=42",
            " mon=backend:auto,l:1024,b:8,f:12,mnk:4,thr:3,fseed:0x5151c0de,delay:50",
        );
        assert_eq!(
            key, expected,
            "canonical key changed — bump STORE_SCHEMA_VERSION if intended"
        );
        assert!(key.starts_with(&baseline_cell_key(
            &cell.system,
            &cell.mix,
            cell.instructions,
            cell.seed
        )));
    }

    #[test]
    fn put_get_flush_reopen_round_trip() {
        let path = temp_store("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open fresh");
        assert!(store.is_empty());
        store.put("key-a", "{\"v\": 1}");
        store.put("key-b", "{\"v\": 2}");
        assert_eq!(store.get("key-a"), Some("{\"v\": 1}"));
        assert_eq!(store.get("missing"), None);
        store.flush().expect("flush");
        store.flush().expect("idempotent flush");

        let mut reopened = ResultStore::open(&path).expect("reopen");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.telemetry().recovered_records, 2);
        assert_eq!(reopened.telemetry().dropped_tail_bytes, 0);
        assert_eq!(reopened.get("key-b"), Some("{\"v\": 2}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_puts_supersede_and_update_size() {
        let path = temp_store("supersede");
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open");
        store.put("k", "short");
        let small = store.bytes();
        store.put("k", "a considerably longer payload");
        assert!(store.bytes() > small);
        assert_eq!(store.len(), 1);
        assert_eq!(store.telemetry().replacements, 1);
        store.put("k", "short");
        assert_eq!(store.bytes(), small);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_a_foreign_file() {
        let path = temp_store("foreign");
        std::fs::write(&path, "definitely not a store\n").expect("write");
        let err = ResultStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
