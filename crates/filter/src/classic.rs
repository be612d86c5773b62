//! The classic software Cuckoo filter (Fan et al., CoNEXT 2014), kept as the
//! vulnerable baseline the Auto-Cuckoo filter improves on.
//!
//! Two properties distinguish it from [`AutoCuckooFilter`](crate::AutoCuckooFilter):
//!
//! * **Insertions can fail.** When the relocation chain exceeds MNK the
//!   filter reports itself full instead of evicting a record, which is why
//!   software deployments use MNK in the hundreds.
//! * **Manual deletion exists.** `delete(x)` removes *any* record matching
//!   x's fingerprint in x's candidate buckets. Because of fingerprint
//!   collisions, an adversary that controls an address colliding with a
//!   victim record can delete the victim's record — the false-deletion
//!   attack of paper §V-A.

use std::error::Error;
use std::fmt;

use crate::entry::Entry;
use crate::hash::{alternate_bucket, fingerprint_and_buckets, DetRng, IndexPair};
use crate::params::{FilterParams, ParamsError};
use crate::stats::FilterStats;
use crate::store::QueryOutcome;

/// Error returned when a classic insertion exhausts its relocation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertError {
    /// Fingerprint left homeless when the filter declared itself full.
    pub homeless_fingerprint: u16,
    /// Relocations performed before giving up.
    pub kicks: u32,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "filter full after {} kicks (homeless fingerprint {:#x})",
            self.kicks, self.homeless_fingerprint
        )
    }
}

impl Error for InsertError {}

/// Result of a [`ClassicCuckooFilter::delete`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// A matching record was removed.
    Removed,
    /// No record matched the item's fingerprint in its candidate buckets.
    NotFound,
}

/// The classic Cuckoo filter.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{ClassicCuckooFilter, DeleteOutcome, FilterParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = FilterParams::builder().max_kicks(500).build()?;
/// let mut filter = ClassicCuckooFilter::new(params)?;
/// filter.insert(0x40)?;
/// assert!(filter.contains(0x40));
/// assert_eq!(filter.delete(0x40), DeleteOutcome::Removed);
/// assert!(!filter.contains(0x40));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClassicCuckooFilter {
    params: FilterParams,
    table: Vec<Entry>,
    rng: DetRng,
    occupied: usize,
    failed_inserts: u64,
    stats: FilterStats,
}

impl ClassicCuckooFilter {
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
            occupied: 0,
            failed_inserts: 0,
            stats: FilterStats::default(),
            params,
        })
    }

    /// The filter's parameters.
    #[must_use]
    pub fn params(&self) -> &FilterParams {
        &self.params
    }

    /// Number of valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Fraction of entries valid.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.occupied as f64 / self.params.capacity() as f64
    }

    /// Number of insertions that failed because the filter was full.
    #[must_use]
    pub fn failed_inserts(&self) -> u64 {
        self.failed_inserts
    }

    /// Cumulative operation statistics (same surface as
    /// [`AutoCuckooFilter::stats`](crate::AutoCuckooFilter::stats)).
    #[must_use]
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// Removes every record and resets statistics.
    pub fn clear(&mut self) {
        self.table.fill(Entry::vacant());
        self.occupied = 0;
        self.failed_inserts = 0;
        self.stats = FilterStats::default();
    }

    /// The query-with-promotion operation of the monitor↔store contract:
    /// increments an existing record's `Security` counter (saturating at
    /// `secThr`) or inserts a fresh record with `Security = 0`.
    ///
    /// Unlike [`AutoCuckooFilter::query`](crate::AutoCuckooFilter::query),
    /// the insertion half *can fail* when the filter is full: the outcome
    /// then reports neither `inserted` nor `merged` (the line simply goes
    /// untracked), and when the failed relocation chain displaced a resident
    /// record the lost fingerprint is surfaced in `autonomic_deletion` — the
    /// classic algorithm drops it on the floor.
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

        match self.insert_at(pair, fp) {
            Ok(kicks) => QueryOutcome {
                security: 0,
                inserted: true,
                merged: false,
                captured: false,
                kicks,
                autonomic_deletion: None,
            },
            Err(e) => QueryOutcome {
                security: 0,
                inserted: false,
                merged: false,
                captured: false,
                kicks: e.kicks,
                // kicks > 0 means a resident record was displaced and lost.
                autonomic_deletion: (e.kicks > 0).then_some(e.homeless_fingerprint),
            },
        }
    }

    /// Current `Security` value of the item's record, if present.
    #[must_use]
    pub fn security_of(&self, item: u64) -> Option<u8> {
        let (fp, pair) = fingerprint_and_buckets(item, &self.params);
        self.find_match(pair, fp)
            .map(|slot| self.table[slot].security())
    }

    /// Inserts an item.
    ///
    /// # Errors
    ///
    /// Returns [`InsertError`] when both candidate buckets are full and MNK
    /// relocations fail to free a slot; the displaced fingerprint is restored
    /// nowhere (matching the classic algorithm, which loses it — another
    /// reason hardware wants autonomic deletion instead).
    pub fn insert(&mut self, item: u64) -> Result<u32, InsertError> {
        let (fp, pair) = fingerprint_and_buckets(item, &self.params);
        self.insert_at(pair, fp)
    }

    /// Insertion core shared by [`insert`](Self::insert) and
    /// [`query`](Self::query) (which already computed the hashes).
    fn insert_at(&mut self, pair: IndexPair, fp: u16) -> Result<u32, InsertError> {
        for bucket in [pair.primary, pair.alternate] {
            if let Some(slot) = self.vacant_slot(bucket) {
                self.table[slot] = Entry::occupied(fp);
                self.occupied += 1;
                self.stats.inserts += 1;
                return Ok(0);
            }
        }
        let b = self.params.entries_per_bucket();
        let mnk = self.params.max_kicks();
        let mut bucket = if self.rng.coin() {
            pair.primary
        } else {
            pair.alternate
        };
        let mut homeless = Entry::occupied(fp);
        let mut kicks = 0u32;
        while kicks < mnk {
            let victim = bucket * b + self.rng.below(b);
            std::mem::swap(&mut homeless, &mut self.table[victim]);
            kicks += 1;
            bucket = alternate_bucket(bucket, homeless.fingerprint(), &self.params);
            if let Some(slot) = self.vacant_slot(bucket) {
                self.table[slot] = homeless;
                self.occupied += 1;
                self.stats.inserts += 1;
                self.stats.kicks += u64::from(kicks);
                return Ok(kicks);
            }
        }
        if kicks > 0 {
            // A record was displaced and is now lost; occupancy shrinks by
            // one relative to before the failed insert (new fp was stored).
            self.failed_inserts += 1;
            return Err(InsertError {
                homeless_fingerprint: homeless.fingerprint(),
                kicks,
            });
        }
        self.failed_inserts += 1;
        Err(InsertError {
            homeless_fingerprint: fp,
            kicks: 0,
        })
    }

    /// Whether a record matching the item's fingerprint exists.
    #[must_use]
    pub fn contains(&self, item: u64) -> bool {
        let (fp, pair) = fingerprint_and_buckets(item, &self.params);
        self.find_match(pair, fp).is_some()
    }

    /// Removes one record matching the item's fingerprint, if any.
    ///
    /// This is the operation the Auto-Cuckoo filter deliberately omits:
    /// fingerprint collisions make it a *false deletion* primitive, letting
    /// an adversary remove a victim's record via a colliding address.
    pub fn delete(&mut self, item: u64) -> DeleteOutcome {
        let (fp, pair) = fingerprint_and_buckets(item, &self.params);
        match self.find_match(pair, fp) {
            Some(slot) => {
                self.table[slot].evict();
                self.occupied -= 1;
                DeleteOutcome::Removed
            }
            None => DeleteOutcome::NotFound,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{candidate_buckets, fingerprint_of};

    fn params(mnk: u32) -> FilterParams {
        FilterParams::builder()
            .buckets(16)
            .entries_per_bucket(4)
            .max_kicks(mnk)
            .build()
            .expect("valid")
    }

    #[test]
    fn insert_then_contains() {
        let mut f = ClassicCuckooFilter::new(params(8)).expect("valid");
        f.insert(0x40).expect("space available");
        assert!(f.contains(0x40));
        assert!(!f.contains(0x999_0000));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn delete_removes_record() {
        let mut f = ClassicCuckooFilter::new(params(8)).expect("valid");
        f.insert(0x40).expect("space available");
        assert_eq!(f.delete(0x40), DeleteOutcome::Removed);
        assert!(!f.contains(0x40));
        assert_eq!(f.delete(0x40), DeleteOutcome::NotFound);
        assert!(f.is_empty());
    }

    #[test]
    fn insert_eventually_fails_when_overfull() {
        let mut f = ClassicCuckooFilter::new(params(8)).expect("valid");
        let mut failures = 0;
        for i in 0..10_000u64 {
            if f.insert(crate::hash::mix64(i)).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "classic filter must eventually fail");
        assert_eq!(u64::from(failures > 0), 1);
        assert_eq!(f.failed_inserts(), failures);
        assert!(f.occupancy() <= 1.0);
    }

    #[test]
    fn large_mnk_reaches_high_occupancy_before_failing() {
        let p = FilterParams::builder()
            .buckets(64)
            .entries_per_bucket(4)
            .max_kicks(500)
            .build()
            .expect("valid");
        let mut f = ClassicCuckooFilter::new(p).expect("valid");
        let mut inserted = 0u32;
        for i in 0..(f.params().capacity() as u64 * 2) {
            if f.insert(crate::hash::mix64(i)).is_ok() {
                inserted += 1;
            }
        }
        // Fan et al. report ~95% load factors for b=4 with large MNK.
        assert!(
            f.occupancy() > 0.90,
            "classic filter with MNK=500 should pack >90%, got {}",
            f.occupancy()
        );
        assert!(inserted > 0);
    }

    #[test]
    fn false_deletion_via_colliding_address() {
        // Find two distinct items with identical fingerprint and candidate
        // buckets; deleting one removes the other's record.
        let p = FilterParams::builder()
            .buckets(8)
            .entries_per_bucket(4)
            .fingerprint_bits(4)
            .max_kicks(8)
            .build()
            .expect("valid");
        let mut f = ClassicCuckooFilter::new(p).expect("valid");
        let target = 0x40u64;
        let t_fp = fingerprint_of(target, &p);
        let t_pair = candidate_buckets(target, &p).canonical();
        let collider = (1..1_000_000u64)
            .map(|i| target + i * 64)
            .find(|&c| {
                fingerprint_of(c, &p) == t_fp && candidate_buckets(c, &p).canonical() == t_pair
            })
            .expect("a 4-bit fingerprint collides quickly");
        f.insert(target).expect("space available");
        assert!(f.contains(target));
        // The adversary deletes via its own colliding address...
        assert_eq!(f.delete(collider), DeleteOutcome::Removed);
        // ...and the victim's record is gone: the false-deletion attack.
        assert!(!f.contains(target));
    }

    #[test]
    fn failed_insert_error_displays() {
        let e = InsertError {
            homeless_fingerprint: 0xab,
            kicks: 7,
        };
        let msg = e.to_string();
        assert!(msg.contains('7'));
        assert!(msg.contains("full"));
    }
}
