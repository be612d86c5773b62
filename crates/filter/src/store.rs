//! The pluggable pattern-store boundary between the monitor and its filter.
//!
//! PiPoMonitor's defense quality is decided by one structure: the pattern
//! store that remembers which lines were fetched from memory and how often
//! they were re-fetched. The paper evaluates a single design (the
//! Auto-Cuckoo filter); [`PatternStore`] opens that axis up so the monitor
//! can run on any backend that implements the paper's *query-with-promotion*
//! contract:
//!
//! * [`query`](PatternStore::query) — the combined lookup/insert/count
//!   operation of §IV: look the item up, create a record when absent, and
//!   *promote* (increment the saturating `Security` counter of) an existing
//!   record. The outcome reports whether the item's counter reached `secThr`
//!   (a Ping-Pong capture).
//! * [`contains`](PatternStore::contains) /
//!   [`security_of`](PatternStore::security_of) — read-only probes, subject
//!   to each backend's false-positive behaviour.
//! * [`stats_snapshot`](PatternStore::stats_snapshot) /
//!   [`memory_bytes`](PatternStore::memory_bytes) — uniform observability so
//!   harnesses can compare backends on false alarms vs. memory vs. speed.
//!
//! Four backends implement the trait: the paper's [`AutoCuckooFilter`], the
//! vulnerable [`ClassicCuckooFilter`] baseline, a blocked spectral Bloom
//! store ([`BloomPatternStore`](crate::BloomPatternStore)), and a xor-filter
//! store with periodic rebuild ([`XorPatternStore`](crate::XorPatternStore)).
//! [`build_store`] constructs any of them from a [`FilterBackend`] tag plus
//! the shared [`FilterParams`] geometry.

use std::fmt;
use std::str::FromStr;

use crate::auto::AutoCuckooFilter;
use crate::classic::ClassicCuckooFilter;
use crate::params::{FilterParams, ParamsError};
use crate::stats::FilterStats;

/// Result of a single [`PatternStore::query`].
///
/// `Response` in the paper's terms is the [`security`](Self::security) field;
/// the monitor treats `security == secThr` (i.e. [`captured`](Self::captured))
/// as "this line behaves in a Ping-Pong pattern".
///
/// The [`kicks`](Self::kicks) and
/// [`autonomic_deletion`](Self::autonomic_deletion) fields describe cuckoo
/// relocation mechanics; backends without relocation (Bloom, xor) report
/// `0` / `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// `Security` value of the record after this query.
    pub security: u8,
    /// Whether the query found no record and inserted a fresh one.
    pub inserted: bool,
    /// Whether the query found an existing record (a re-access, or a
    /// false-positive collision with another address).
    pub merged: bool,
    /// Whether `security` has reached `secThr`: the line is captured as a
    /// Ping-Pong line.
    pub captured: bool,
    /// Number of relocations performed to make room for an insertion.
    pub kicks: u32,
    /// Fingerprint removed by autonomic deletion, if the relocation chain hit
    /// MNK.
    pub autonomic_deletion: Option<u16>,
}

/// Identifies a [`PatternStore`] implementation; the `--filter` CLI value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FilterBackend {
    /// The paper's Auto-Cuckoo filter (insertion never fails).
    Auto,
    /// The classic software Cuckoo filter (insertions can fail when full).
    Classic,
    /// Blocked spectral Bloom store (per-line counters, no deletion).
    Bloom,
    /// Xor-filter store: exact recent window + periodically rebuilt
    /// xor-compressed history.
    Xor,
}

impl FilterBackend {
    /// All selectable backends, in CLI enumeration order.
    pub const ALL: [FilterBackend; 4] = [
        FilterBackend::Auto,
        FilterBackend::Classic,
        FilterBackend::Bloom,
        FilterBackend::Xor,
    ];

    /// The backend's CLI name (`auto`, `classic`, `bloom`, `xor`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FilterBackend::Auto => "auto",
            FilterBackend::Classic => "classic",
            FilterBackend::Bloom => "bloom",
            FilterBackend::Xor => "xor",
        }
    }
}

impl fmt::Display for FilterBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`FilterBackend`] from its CLI name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown filter backend {:?} (expected auto, classic, bloom or xor)",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for FilterBackend {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(FilterBackend::Auto),
            "classic" => Ok(FilterBackend::Classic),
            "bloom" => Ok(FilterBackend::Bloom),
            "xor" => Ok(FilterBackend::Xor),
            other => Err(ParseBackendError {
                input: other.to_string(),
            }),
        }
    }
}

/// The query-with-promotion pattern store behind [`PiPoMonitor`].
///
/// Implementations must keep the *query path* — [`query`](Self::query),
/// [`contains`](Self::contains) — free of heap allocations, including any
/// periodic internal maintenance (the xor backend's rebuild runs entirely out
/// of buffers preallocated at construction); `tests/no_alloc_hot_path.rs` at
/// the workspace root pins this for every backend.
///
/// [`PiPoMonitor`]: https://docs.rs/pipomonitor
pub trait PatternStore: fmt::Debug + Send {
    /// The combined lookup/insert/promote operation (paper §IV): increments
    /// an existing record's `Security` counter (saturating at `secThr`) or
    /// inserts a fresh record with `Security = 0`.
    fn query(&mut self, item: u64) -> QueryOutcome;

    /// Whether a record matching the item is present. Subject to the
    /// backend's false-positive rate; a `true` may be a collision.
    fn contains(&self, item: u64) -> bool;

    /// Current `Security` value of the item's record, if present. Backends
    /// whose counters saturate below the query count report the saturated
    /// value.
    fn security_of(&self, item: u64) -> Option<u8>;

    /// The `secThr` capture threshold this store promotes toward.
    fn security_threshold(&self) -> u8;

    /// Number of records (or, for counter-based backends, distinct inserts)
    /// currently tracked.
    fn len(&self) -> usize;

    /// Whether no records are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of the store's capacity in use, in `0.0..=1.0`.
    fn occupancy(&self) -> f64;

    /// Bytes of state a hardware implementation of this backend would hold
    /// (tables and filters only; not Rust bookkeeping or scratch).
    fn memory_bytes(&self) -> usize;

    /// Snapshot of the cumulative operation statistics.
    fn stats_snapshot(&self) -> FilterStats;

    /// Removes every record and resets statistics.
    fn clear(&mut self);

    /// Which backend this store is.
    fn backend(&self) -> FilterBackend;

    /// The shared geometry/policy parameters the store was built from.
    fn params(&self) -> &FilterParams;
}

/// Builds a boxed store of the requested backend from the shared parameters.
///
/// # Errors
///
/// Returns [`ParamsError`] when `params` fails validation.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{build_store, FilterBackend, FilterParams};
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// for backend in FilterBackend::ALL {
///     let mut store = build_store(backend, FilterParams::paper_default())?;
///     assert!(store.query(0x40).inserted);
///     assert!(store.contains(0x40));
///     assert_eq!(store.backend(), backend);
/// }
/// # Ok(())
/// # }
/// ```
pub fn build_store(
    backend: FilterBackend,
    params: FilterParams,
) -> Result<Box<dyn PatternStore>, ParamsError> {
    Ok(match backend {
        FilterBackend::Auto => Box::new(AutoCuckooFilter::new(params)?),
        FilterBackend::Classic => Box::new(ClassicCuckooFilter::new(params)?),
        FilterBackend::Bloom => Box::new(crate::bloom::BloomPatternStore::new(params)?),
        FilterBackend::Xor => Box::new(crate::xor::XorPatternStore::new(params)?),
    })
}

impl PatternStore for AutoCuckooFilter {
    fn query(&mut self, item: u64) -> QueryOutcome {
        AutoCuckooFilter::query(self, item)
    }

    fn contains(&self, item: u64) -> bool {
        AutoCuckooFilter::contains(self, item)
    }

    fn security_of(&self, item: u64) -> Option<u8> {
        AutoCuckooFilter::security_of(self, item)
    }

    fn security_threshold(&self) -> u8 {
        self.params().security_threshold()
    }

    fn len(&self) -> usize {
        AutoCuckooFilter::len(self)
    }

    fn occupancy(&self) -> f64 {
        AutoCuckooFilter::occupancy(self)
    }

    fn memory_bytes(&self) -> usize {
        cuckoo_table_bytes(self.params())
    }

    fn stats_snapshot(&self) -> FilterStats {
        AutoCuckooFilter::stats(self).clone()
    }

    fn clear(&mut self) {
        AutoCuckooFilter::clear(self);
    }

    fn backend(&self) -> FilterBackend {
        FilterBackend::Auto
    }

    fn params(&self) -> &FilterParams {
        AutoCuckooFilter::params(self)
    }
}

impl PatternStore for ClassicCuckooFilter {
    fn query(&mut self, item: u64) -> QueryOutcome {
        ClassicCuckooFilter::query(self, item)
    }

    fn contains(&self, item: u64) -> bool {
        ClassicCuckooFilter::contains(self, item)
    }

    fn security_of(&self, item: u64) -> Option<u8> {
        ClassicCuckooFilter::security_of(self, item)
    }

    fn security_threshold(&self) -> u8 {
        self.params().security_threshold()
    }

    fn len(&self) -> usize {
        ClassicCuckooFilter::len(self)
    }

    fn occupancy(&self) -> f64 {
        ClassicCuckooFilter::occupancy(self)
    }

    fn memory_bytes(&self) -> usize {
        cuckoo_table_bytes(self.params())
    }

    fn stats_snapshot(&self) -> FilterStats {
        ClassicCuckooFilter::stats(self).clone()
    }

    fn clear(&mut self) {
        ClassicCuckooFilter::clear(self);
    }

    fn backend(&self) -> FilterBackend {
        FilterBackend::Classic
    }

    fn params(&self) -> &FilterParams {
        ClassicCuckooFilter::params(self)
    }
}

impl PatternStore for crate::bloom::BloomPatternStore {
    fn query(&mut self, item: u64) -> QueryOutcome {
        crate::bloom::BloomPatternStore::query(self, item)
    }

    fn contains(&self, item: u64) -> bool {
        crate::bloom::BloomPatternStore::contains(self, item)
    }

    fn security_of(&self, item: u64) -> Option<u8> {
        crate::bloom::BloomPatternStore::security_of(self, item)
    }

    fn security_threshold(&self) -> u8 {
        self.params().security_threshold()
    }

    fn len(&self) -> usize {
        crate::bloom::BloomPatternStore::len(self)
    }

    fn occupancy(&self) -> f64 {
        crate::bloom::BloomPatternStore::occupancy(self)
    }

    fn memory_bytes(&self) -> usize {
        crate::bloom::BloomPatternStore::memory_bytes(self)
    }

    fn stats_snapshot(&self) -> FilterStats {
        crate::bloom::BloomPatternStore::stats(self).clone()
    }

    fn clear(&mut self) {
        crate::bloom::BloomPatternStore::clear(self);
    }

    fn backend(&self) -> FilterBackend {
        FilterBackend::Bloom
    }

    fn params(&self) -> &FilterParams {
        crate::bloom::BloomPatternStore::params(self)
    }
}

impl PatternStore for crate::xor::XorPatternStore {
    fn query(&mut self, item: u64) -> QueryOutcome {
        crate::xor::XorPatternStore::query(self, item)
    }

    fn contains(&self, item: u64) -> bool {
        crate::xor::XorPatternStore::contains(self, item)
    }

    fn security_of(&self, item: u64) -> Option<u8> {
        crate::xor::XorPatternStore::security_of(self, item)
    }

    fn security_threshold(&self) -> u8 {
        self.params().security_threshold()
    }

    fn len(&self) -> usize {
        crate::xor::XorPatternStore::len(self)
    }

    fn occupancy(&self) -> f64 {
        crate::xor::XorPatternStore::occupancy(self)
    }

    fn memory_bytes(&self) -> usize {
        crate::xor::XorPatternStore::memory_bytes(self)
    }

    fn stats_snapshot(&self) -> FilterStats {
        crate::xor::XorPatternStore::stats(self).clone()
    }

    fn clear(&mut self) {
        crate::xor::XorPatternStore::clear(self);
    }

    fn backend(&self) -> FilterBackend {
        FilterBackend::Xor
    }

    fn params(&self) -> &FilterParams {
        crate::xor::XorPatternStore::params(self)
    }
}

/// Hardware bytes of an `l × b` cuckoo table: per entry 1 valid bit, `f`
/// fingerprint bits and a 2-bit `Security` counter (paper §VII-D).
fn cuckoo_table_bytes(params: &FilterParams) -> usize {
    let bits = params.capacity() * (1 + params.fingerprint_bits() as usize + 2);
    bits.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for backend in FilterBackend::ALL {
            assert_eq!(backend.name().parse::<FilterBackend>(), Ok(backend));
            assert_eq!(backend.to_string(), backend.name());
        }
        let err = "blom".parse::<FilterBackend>().unwrap_err();
        assert!(err.to_string().contains("blom"));
        assert!(err.to_string().contains("bloom"));
    }

    #[test]
    fn build_store_constructs_every_backend() {
        for backend in FilterBackend::ALL {
            let mut store =
                build_store(backend, FilterParams::paper_default()).expect("valid params");
            assert_eq!(store.backend(), backend);
            assert!(store.is_empty());
            let out = store.query(0x40);
            assert!(out.inserted && !out.merged && !out.captured);
            assert!(store.contains(0x40));
            assert!(!store.is_empty());
            assert!(store.memory_bytes() > 0);
            assert_eq!(store.stats_snapshot().queries, 1);
            store.clear();
            assert!(store.is_empty());
            assert_eq!(store.stats_snapshot().queries, 0);
        }
    }

    #[test]
    fn promotion_reaches_capture_on_every_backend() {
        for backend in FilterBackend::ALL {
            let mut store =
                build_store(backend, FilterParams::paper_default()).expect("valid params");
            let thr = store.security_threshold();
            let mut captured_at = None;
            for n in 1..=8u32 {
                if store.query(0x1234_5678).captured {
                    captured_at = Some(n);
                    break;
                }
            }
            // thr re-accesses after the insert: capture on query thr + 1.
            assert_eq!(
                captured_at,
                Some(u32::from(thr) + 1),
                "backend {backend} capture latency"
            );
        }
    }
}
