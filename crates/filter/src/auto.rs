//! The Auto-Cuckoo filter: a Cuckoo filter whose insertions never fail.
//!
//! When an insertion's relocation chain reaches the maximal number of kicks
//! (MNK), the classic filter reports failure; the Auto-Cuckoo filter instead
//! performs an *autonomic deletion*: the last fingerprint that would need to
//! be relocated is evicted. Because kick victims are selected at random and
//! every fingerprint has a different alternate bucket, the eventually evicted
//! record is highly unpredictable, which is what defeats reverse-engineering
//! attacks (paper §V-A, §VI-B).

use crate::entry::Entry;
use crate::hash::{alternate_bucket, fingerprint_and_buckets, DetRng, IndexPair};
use crate::params::{FilterParams, ParamsError};
use crate::stats::{CollisionCensus, FilterStats};
pub use crate::store::QueryOutcome;

/// The Auto-Cuckoo filter (paper Fig. 5).
///
/// The filter is addressed with 64-bit items; PiPoMonitor feeds it cache-line
/// addresses. All randomness (victim selection, initial bucket choice) comes
/// from a deterministic seeded generator so experiments are reproducible.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{AutoCuckooFilter, FilterParams};
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// let mut filter = AutoCuckooFilter::new(FilterParams::paper_default())?;
/// let outcome = filter.query(0x40);
/// assert!(outcome.inserted);
/// assert_eq!(outcome.security, 0);
/// assert!(filter.contains(0x40));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AutoCuckooFilter {
    params: FilterParams,
    table: Vec<Entry>,
    rng: DetRng,
    stats: FilterStats,
    occupied: usize,
}

impl AutoCuckooFilter {
    /// Creates an empty filter.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fails validation.
    pub fn new(params: FilterParams) -> Result<Self, ParamsError> {
        params.validate()?;
        Ok(Self {
            table: vec![Entry::vacant(); params.capacity()],
            rng: DetRng::new(params.seed()),
            stats: FilterStats::default(),
            occupied: 0,
            params,
        })
    }

    /// The filter's parameters.
    #[must_use]
    pub fn params(&self) -> &FilterParams {
        &self.params
    }

    /// Cumulative operation statistics.
    #[must_use]
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// Number of valid entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Fraction of entries currently valid, in `0.0..=1.0`.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.occupied as f64 / self.params.capacity() as f64
    }

    /// Removes every record and resets statistics.
    pub fn clear(&mut self) {
        self.table.fill(Entry::vacant());
        self.occupied = 0;
        self.stats = FilterStats::default();
    }

    /// The paper's combined lookup/insert/count operation (§IV, "Capturing
    /// Ping-Pong lines").
    ///
    /// * If a valid entry with the item's fingerprint exists in either
    ///   candidate bucket, its `Security` counter is incremented (saturating
    ///   at `secThr`) and returned.
    /// * Otherwise a fresh record with `Security = 0` is inserted. If both
    ///   candidate buckets are full, random kicks relocate records; when the
    ///   chain reaches MNK, the last displaced record is evicted
    ///   (autonomic deletion) so the insertion still succeeds.
    pub fn query(&mut self, item: u64) -> QueryOutcome {
        self.stats.queries += 1;
        let (fp, pair) = fingerprint_and_buckets(item, &self.params);
        let thr = self.params.security_threshold();

        if let Some(slot) = self.find_match(pair, fp) {
            let entry = &mut self.table[slot];
            entry.note_collision();
            let security = entry.bump_security(thr);
            self.stats.merges += 1;
            let captured = security >= thr;
            if captured {
                self.stats.captures += 1;
            }
            return QueryOutcome {
                security,
                inserted: false,
                merged: true,
                captured,
                kicks: 0,
                autonomic_deletion: None,
            };
        }

        let (kicks, deleted) = self.insert_new(pair, fp);
        self.stats.inserts += 1;
        self.stats.kicks += u64::from(kicks);
        if deleted.is_some() {
            self.stats.autonomic_deletions += 1;
        }
        QueryOutcome {
            security: 0,
            inserted: true,
            merged: false,
            captured: false,
            kicks,
            autonomic_deletion: deleted,
        }
    }

    /// Whether a record matching the item's fingerprint is present in either
    /// candidate bucket. Subject to the filter's false-positive rate.
    #[must_use]
    pub fn contains(&self, item: u64) -> bool {
        let (fp, pair) = fingerprint_and_buckets(item, &self.params);
        self.find_match(pair, fp).is_some()
    }

    /// Current `Security` value of the item's record, if present.
    #[must_use]
    pub fn security_of(&self, item: u64) -> Option<u8> {
        let (fp, pair) = fingerprint_and_buckets(item, &self.params);
        self.find_match(pair, fp)
            .map(|slot| self.table[slot].security())
    }

    /// Builds a census of fingerprint collisions over the currently valid
    /// entries (Fig. 4). The per-entry address tallies assume the inserted
    /// items were distinct, which holds w.h.p. for random sampling from a
    /// large address space.
    #[must_use]
    pub fn census(&self) -> CollisionCensus {
        CollisionCensus::from_entries(self.table.iter().filter(|e| e.is_valid()))
    }

    /// Iterates over the valid entries (bucket-major order).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.table.iter().filter(|e| e.is_valid())
    }

    fn bucket_range(&self, bucket: usize) -> std::ops::Range<usize> {
        let b = self.params.entries_per_bucket();
        let start = bucket * b;
        start..start + b
    }

    fn find_match(&self, pair: IndexPair, fp: u16) -> Option<usize> {
        for bucket in [pair.primary, pair.alternate] {
            for slot in self.bucket_range(bucket) {
                if self.table[slot].matches(fp) {
                    return Some(slot);
                }
            }
            if pair.primary == pair.alternate {
                break;
            }
        }
        None
    }

    fn vacant_slot(&self, bucket: usize) -> Option<usize> {
        self.bucket_range(bucket)
            .find(|&slot| !self.table[slot].is_valid())
    }

    /// Inserts a fresh record, returning `(kicks, autonomic_deletion)`.
    fn insert_new(&mut self, pair: IndexPair, fp: u16) -> (u32, Option<u16>) {
        // Fast path: a vacancy in either candidate bucket.
        for bucket in [pair.primary, pair.alternate] {
            if let Some(slot) = self.vacant_slot(bucket) {
                self.table[slot] = Entry::occupied(fp);
                self.occupied += 1;
                return (0, None);
            }
        }

        // Both candidate buckets full: displace a random victim, then walk
        // the relocation chain. The new record always lands; the record that
        // is still homeless after MNK relocations is autonomically deleted.
        let b = self.params.entries_per_bucket();
        let mnk = self.params.max_kicks();
        let mut bucket = if self.rng.coin() {
            pair.primary
        } else {
            pair.alternate
        };
        let mut homeless = Entry::occupied(fp);
        let mut kicks = 0u32;
        loop {
            let victim = bucket * b + self.rng.below(b);
            std::mem::swap(&mut homeless, &mut self.table[victim]);
            // `homeless` is now the displaced record and must be relocated.
            if kicks == mnk {
                // Autonomic deletion: drop the last record needing relocation.
                let dropped = homeless.fingerprint();
                return (kicks, Some(dropped));
            }
            kicks += 1;
            bucket = alternate_bucket(bucket, homeless.fingerprint(), &self.params);
            if let Some(slot) = self.vacant_slot(bucket) {
                self.table[slot] = homeless;
                self.occupied += 1;
                return (kicks, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FilterParams;

    fn small_params() -> FilterParams {
        FilterParams::builder()
            .buckets(16)
            .entries_per_bucket(4)
            .fingerprint_bits(12)
            .max_kicks(4)
            .build()
            .expect("valid")
    }

    #[test]
    fn fresh_filter_is_empty() {
        let f = AutoCuckooFilter::new(small_params()).expect("valid");
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.occupancy(), 0.0);
    }

    #[test]
    fn first_query_inserts_with_zero_security() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        let out = f.query(0x1000);
        assert!(out.inserted);
        assert!(!out.merged);
        assert!(!out.captured);
        assert_eq!(out.security, 0);
        assert_eq!(f.len(), 1);
        assert!(f.contains(0x1000));
    }

    #[test]
    fn reaccesses_count_up_to_threshold_and_capture() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        f.query(0x40);
        assert_eq!(f.query(0x40).security, 1);
        assert_eq!(f.query(0x40).security, 2);
        let out = f.query(0x40);
        assert_eq!(out.security, 3);
        assert!(out.captured);
        // Saturation: stays at threshold and keeps reporting captured.
        let out = f.query(0x40);
        assert_eq!(out.security, 3);
        assert!(out.captured);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn security_of_tracks_counter() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        assert_eq!(f.security_of(0x40), None);
        f.query(0x40);
        assert_eq!(f.security_of(0x40), Some(0));
        f.query(0x40);
        assert_eq!(f.security_of(0x40), Some(1));
    }

    #[test]
    fn insertion_never_fails_even_when_overfull() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        let capacity = f.params().capacity();
        // Insert 10x capacity distinct items; every query must succeed.
        for i in 0..(capacity as u64 * 10) {
            let out = f.query(i * 64 + 7);
            assert!(out.inserted || out.merged);
        }
        assert!(f.len() <= capacity);
        // After massive over-insertion the filter should be essentially full.
        assert!(f.occupancy() > 0.95, "occupancy {}", f.occupancy());
    }

    #[test]
    fn occupancy_reaches_one_for_paper_config() {
        let mut f = AutoCuckooFilter::new(FilterParams::paper_default()).expect("valid");
        for i in 0..20_000u64 {
            f.query(crate::hash::mix64(i) | 1);
        }
        assert!(
            (f.occupancy() - 1.0).abs() < 1e-9,
            "expected full filter, occupancy {}",
            f.occupancy()
        );
    }

    #[test]
    fn autonomic_deletion_reported_when_chain_exhausts() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        let mut saw_deletion = false;
        for i in 0..10_000u64 {
            if f.query(i * 64).autonomic_deletion.is_some() {
                saw_deletion = true;
            }
        }
        assert!(
            saw_deletion,
            "over-insertion must trigger autonomic deletion"
        );
        assert!(f.stats().autonomic_deletions > 0);
    }

    #[test]
    fn mnk_zero_still_inserts_new_record() {
        let p = FilterParams::builder()
            .buckets(4)
            .entries_per_bucket(2)
            .max_kicks(0)
            .build()
            .expect("valid");
        let mut f = AutoCuckooFilter::new(p).expect("valid");
        for i in 0..1000u64 {
            let item = i * 64;
            let out = f.query(item);
            if out.inserted {
                assert!(
                    f.contains(item),
                    "newly inserted item {item:#x} must be resident"
                );
            }
        }
    }

    #[test]
    fn occupancy_monotone_nondecreasing_during_fill() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        let mut last = 0.0;
        for i in 0..5_000u64 {
            f.query(crate::hash::mix64(i));
            let occ = f.occupancy();
            assert!(occ + 1e-12 >= last, "occupancy dropped: {last} -> {occ}");
            last = occ;
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        for i in 0..100u64 {
            f.query(i * 64);
        }
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.stats().queries, 0);
        assert!(!f.contains(0));
    }

    #[test]
    fn stats_account_queries_inserts_merges() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        f.query(0x40);
        f.query(0x40);
        f.query(0x80);
        let s = f.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.merges, 1);
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = || {
            let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
            for i in 0..5_000u64 {
                f.query(crate::hash::mix64(i));
            }
            (f.len(), f.stats().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn entries_iterator_counts_match_len() {
        let mut f = AutoCuckooFilter::new(small_params()).expect("valid");
        for i in 0..40u64 {
            f.query(i * 64);
        }
        assert_eq!(f.entries().count(), f.len());
    }
}
