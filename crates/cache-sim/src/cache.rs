//! A generic set-associative cache with pluggable replacement.

use crate::config::CacheGeometry;
use crate::line::LineMeta;
use crate::replacement::{Replacement, ReplacementPolicy};
use crate::types::{Cycle, LineAddr};

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Its metadata at eviction time.
    pub meta: LineMeta,
}

/// Lane-broadcast constant: the low bit of every byte of a `u64`.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// Lane-broadcast constant: the high bit of every byte of a `u64`.
const LANE_HI: u64 = 0x8080_8080_8080_8080;

/// One-byte fingerprint of a tag: seven hash bits plus the forced-set MSB.
///
/// The MSB doubles as the way's validity bit — an empty way stores `0x00`,
/// which can never equal a valid fingerprint, so the probe kernel needs no
/// separate validity bitset. The hash multiplier is the 64-bit golden-ratio
/// constant (SplitMix64's increment), whose top bits mix all tag bits.
#[inline]
fn fingerprint(tag: u64) -> u8 {
    ((tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as u8) | 0x80
}

/// SWAR zero-byte detector: returns a mask with bit `8k+7` set for (at
/// least) every byte `k` of `x` that is zero.
///
/// This is the classic `(x - 0x01…) & !x & 0x80…` trick. It can report a
/// false positive for a `0x01` byte that borrows from a lower zero byte —
/// harmless here, because every candidate lane is confirmed against the full
/// tag array before a hit is declared.
#[inline]
fn zero_byte_lanes(x: u64) -> u64 {
    x.wrapping_sub(LANE_LO) & !x & LANE_HI
}

/// One set-associative cache level.
///
/// Lines are identified by [`LineAddr`]; the set index is the low bits of the
/// line address and the tag is the remainder. The cache does not know its
/// level — the [`Hierarchy`](crate::Hierarchy) composes caches into L1/L2/L3.
///
/// Storage is flat structure-of-arrays, laid out for the probe-dominated
/// simulation hot path: one-byte tag *fingerprints* packed eight per `u64`
/// word (so a whole 8-way set is compared in a single branchless SWAR
/// operation), with the full tags, LRU stamps, and [`LineMeta`] in separate
/// parallel arrays that are only dereferenced on a fingerprint hit. A probe
/// that misses a 16-way set reads 16 bytes of fingerprints instead of 16
/// tag words.
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, CacheGeometry, LineAddr, LineMeta};
/// use cache_sim::Replacement;
///
/// let mut c = Cache::new(CacheGeometry { sets: 4, ways: 2, latency: 2 }, Replacement::Lru);
/// assert!(!c.contains(LineAddr(5)));
/// let evicted = c.fill(LineAddr(5), LineMeta::default());
/// assert!(evicted.is_none());
/// assert!(c.contains(LineAddr(5)));
/// ```
#[derive(Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    /// Packed per-way fingerprints, `words_per_set` words per set, one byte
    /// per way in ascending way order. `0x00` marks an empty way; pad bytes
    /// beyond the associativity stay `0x00` forever and are masked out of
    /// every scan by the lane masks.
    fps: Vec<u64>,
    /// Full tag of each way, indexed `set * ways + way`; meaningful only
    /// where the fingerprint byte is nonzero.
    tags: Vec<u64>,
    /// LRU recency stamp of each way, parallel to `tags`.
    stamps: Vec<Cycle>,
    /// Metadata of each way, parallel to `tags`.
    metas: Vec<LineMeta>,
    policy: ReplacementPolicy,
    set_mask: u64,
    set_shift: u32,
    /// `ways.div_ceil(8)`: fingerprint words per set.
    words_per_set: usize,
    /// `LANE_HI` restricted to the real-way bytes of a set's last
    /// fingerprint word (all words before it are fully populated).
    tail_lanes: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has a non-power-of-two set count.
    #[must_use]
    pub fn new(geometry: CacheGeometry, replacement: Replacement) -> Self {
        assert!(
            geometry.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let policy = ReplacementPolicy::new(replacement, geometry.sets, geometry.ways);
        let lines = geometry.lines();
        let words_per_set = geometry.ways.div_ceil(8);
        let tail_ways = geometry.ways - (words_per_set - 1) * 8;
        let tail_lanes = if tail_ways == 8 {
            LANE_HI
        } else {
            LANE_HI & ((1u64 << (tail_ways * 8)) - 1)
        };
        Self {
            fps: vec![0; geometry.sets * words_per_set],
            tags: vec![0; lines],
            stamps: vec![0; lines],
            metas: vec![LineMeta::default(); lines],
            set_mask: (geometry.sets as u64) - 1,
            set_shift: geometry.sets.trailing_zeros(),
            words_per_set,
            tail_lanes,
            geometry,
            policy,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Set index of a line.
    #[must_use]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// Tag of a line (the bits above the set index).
    pub(crate) fn tag_of(&self, line: LineAddr) -> u64 {
        line.0 >> self.set_shift
    }

    /// Reassembles a line address from a set index and tag.
    pub(crate) fn line_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr((tag << self.set_shift) | set as u64)
    }

    fn slot_index(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    /// Lane markers (`LANE_HI` bits) of the real ways in fingerprint word
    /// `word` of a set: full for every word but the last, `tail_lanes` there.
    #[inline]
    fn lanes_of(&self, word: usize) -> u64 {
        if word + 1 == self.words_per_set {
            self.tail_lanes
        } else {
            LANE_HI
        }
    }

    /// The fingerprint byte of `way` in `set` (`0x00` = empty way).
    #[inline]
    fn fp_byte(&self, set: usize, way: usize) -> u8 {
        (self.fps[set * self.words_per_set + (way >> 3)] >> ((way & 7) * 8)) as u8
    }

    /// Overwrites the fingerprint byte of `way` in `set`.
    #[inline]
    fn set_fp_byte(&mut self, set: usize, way: usize, fp: u8) {
        let word = &mut self.fps[set * self.words_per_set + (way >> 3)];
        let shift = (way & 7) * 8;
        *word = (*word & !(0xFFu64 << shift)) | (u64::from(fp) << shift);
    }

    /// The branchless probe kernel: way holding `tag` in `set`, if resident.
    ///
    /// Each fingerprint word is compared against a lane-broadcast of the
    /// target fingerprint in one SWAR subtract-and-mask; candidate lanes are
    /// walked lowest-way-first with `trailing_zeros` and confirmed against
    /// the full tag array. First confirmed way wins, preserving the scalar
    /// linear scan's ascending-way order exactly.
    #[inline]
    fn probe_set(&self, set: usize, tag: u64) -> Option<usize> {
        let target = u64::from(fingerprint(tag)).wrapping_mul(LANE_LO);
        let word_base = set * self.words_per_set;
        let base = set * self.geometry.ways;
        // Fast path for geometries whose ways fit one fingerprint word
        // (every L1/L2 in the shipped configs): no word loop, no per-word
        // tail-lane branch.
        if self.words_per_set == 1 {
            let mut cand = zero_byte_lanes(self.fps[word_base] ^ target) & self.tail_lanes;
            while cand != 0 {
                let way = (cand.trailing_zeros() >> 3) as usize;
                if self.tags[base + way] == tag {
                    return Some(way);
                }
                cand &= cand - 1;
            }
            return None;
        }
        for word in 0..self.words_per_set {
            let mut cand =
                zero_byte_lanes(self.fps[word_base + word] ^ target) & self.lanes_of(word);
            while cand != 0 {
                let way = word * 8 + (cand.trailing_zeros() >> 3) as usize;
                if self.tags[base + way] == tag {
                    return Some(way);
                }
                cand &= cand - 1;
            }
        }
        None
    }

    /// Lowest-index empty way of `set`, if any: one branchless complement-
    /// and-mask per fingerprint word (exact — valid fingerprints always have
    /// their MSB set, so an empty way is the only `0x00` lane).
    #[inline]
    fn first_invalid_way(&self, set: usize) -> Option<usize> {
        let word_base = set * self.words_per_set;
        for word in 0..self.words_per_set {
            let empty = !self.fps[word_base + word] & self.lanes_of(word);
            if empty != 0 {
                return Some(word * 8 + (empty.trailing_zeros() >> 3) as usize);
            }
        }
        None
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        Some((set, self.probe_set(set, self.tag_of(line))?))
    }

    /// Updates replacement state for a touch of `way` in `set`.
    #[inline]
    fn touch_way(&mut self, set: usize, way: usize) {
        if let Some(stamp) = self.policy.lru_stamp() {
            self.stamps[set * self.geometry.ways + way] = stamp;
        } else {
            self.policy.on_touch(set, way);
        }
    }

    /// Chooses the victim way of a full `set`.
    fn victim_way(&mut self, set: usize) -> usize {
        if matches!(self.policy, ReplacementPolicy::Lru { .. }) {
            // First-minimum stamp scan, matching classic LRU tie-breaking.
            let base = set * self.geometry.ways;
            let stamps = &self.stamps[base..base + self.geometry.ways];
            let mut best = 0;
            let mut best_stamp = Cycle::MAX;
            for (way, &stamp) in stamps.iter().enumerate() {
                if stamp < best_stamp {
                    best_stamp = stamp;
                    best = way;
                }
            }
            best
        } else {
            self.policy.victim(set)
        }
    }

    /// Pulls the probe-critical metadata of `line`'s set toward the host
    /// caches before the access executes: plain loads of the set's first
    /// fingerprint word, tag, and stamp, pinned by [`std::hint::black_box`]
    /// so they survive optimization. This is the scheduler's software
    /// prefetch — the crate is `forbid(unsafe_code)`, so an architectural
    /// prefetch intrinsic is out; a discarded demand load warms the same
    /// host cache lines.
    #[inline]
    pub fn prefetch_set(&self, line: LineAddr) {
        let set = self.set_of(line);
        std::hint::black_box(self.fps[set * self.words_per_set]);
    }

    /// Whether the line is resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Looks a line up *and* updates replacement state on a hit. Returns the
    /// line's metadata when resident.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        let (set, way) = self.find(line)?;
        self.touch_way(set, way);
        let idx = self.slot_index(set, way);
        Some(&mut self.metas[idx])
    }

    /// Reads a line's metadata without updating replacement state.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&LineMeta> {
        let (set, way) = self.find(line)?;
        Some(&self.metas[self.slot_index(set, way)])
    }

    /// Mutates a line's metadata without updating replacement state.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        let (set, way) = self.find(line)?;
        let idx = self.slot_index(set, way);
        Some(&mut self.metas[idx])
    }

    /// Inserts a line, evicting a victim if the set is full. The new line is
    /// marked most-recently-used. If the line is already resident its
    /// metadata is replaced in place (no eviction).
    pub fn fill(&mut self, line: LineAddr, meta: LineMeta) -> Option<EvictedLine> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        // Already resident: overwrite metadata.
        if let Some(way) = self.probe_set(set, tag) {
            self.touch_way(set, way);
            let idx = self.slot_index(set, way);
            self.metas[idx] = meta;
            return None;
        }
        self.install_in(set, tag, meta)
    }

    /// [`fill`](Self::fill) without the residency probe, for a line the
    /// caller has just probed and found absent (the hierarchy's fills follow
    /// a missed lookup of the same line at the same level).
    #[inline]
    pub(crate) fn install(&mut self, line: LineAddr, meta: LineMeta) -> Option<EvictedLine> {
        debug_assert!(!self.contains(line), "install of a resident line");
        self.install_in(self.set_of(line), self.tag_of(line), meta)
    }

    /// Places an absent `tag` into `set`: the lowest-index empty way if
    /// any, else the replacement victim's way.
    fn install_in(&mut self, set: usize, tag: u64, meta: LineMeta) -> Option<EvictedLine> {
        // Prefer the lowest-index empty way.
        if let Some(way) = self.first_invalid_way(set) {
            let idx = self.slot_index(set, way);
            self.set_fp_byte(set, way, fingerprint(tag));
            self.tags[idx] = tag;
            self.metas[idx] = meta;
            self.touch_way(set, way);
            return None;
        }
        // Evict a victim.
        let way = self.victim_way(set);
        let idx = self.slot_index(set, way);
        let victim_tag = self.tags[idx];
        let victim_meta = self.metas[idx];
        self.set_fp_byte(set, way, fingerprint(tag));
        self.tags[idx] = tag;
        self.metas[idx] = meta;
        self.touch_way(set, way);
        Some(EvictedLine {
            line: self.line_of(set, victim_tag),
            meta: victim_meta,
        })
    }

    /// Removes a line, returning its metadata if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineMeta> {
        let (set, way) = self.find(line)?;
        let idx = self.slot_index(set, way);
        let meta = self.metas[idx];
        self.set_fp_byte(set, way, 0);
        self.tags[idx] = 0;
        self.stamps[idx] = 0;
        self.metas[idx] = LineMeta::default();
        Some(meta)
    }

    /// Number of valid lines resident.
    ///
    /// Valid fingerprint bytes always have their MSB set and empty/pad bytes
    /// are zero, so this is one popcount per fingerprint word.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fps
            .iter()
            .map(|w| (w & LANE_HI).count_ones() as usize)
            .sum()
    }

    /// Whether the cache holds no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fps.iter().all(|&w| w == 0)
    }

    /// Way index the branchless fingerprint kernel resolves `line` to, if
    /// resident. Public for the differential suite in
    /// `tests/fingerprint_kernel.rs`; not part of the simulation API.
    #[doc(hidden)]
    #[must_use]
    pub fn probe_way(&self, line: LineAddr) -> Option<usize> {
        self.probe_set(self.set_of(line), self.tag_of(line))
    }

    /// Reference scalar lookup: a plain ascending linear scan over validity
    /// and full tags, retained as the oracle the SWAR kernel is
    /// differentially tested against. Public for
    /// `tests/fingerprint_kernel.rs`; not part of the simulation API.
    #[doc(hidden)]
    #[must_use]
    pub fn probe_way_scalar(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let base = set * self.geometry.ways;
        (0..self.geometry.ways)
            .find(|&way| self.fp_byte(set, way) != 0 && self.tags[base + way] == tag)
    }

    /// Iterates over resident lines and their metadata.
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, &LineMeta)> + '_ {
        let ways = self.geometry.ways;
        (0..self.geometry.sets).flat_map(move |set| {
            (0..ways).filter_map(move |way| {
                if self.fp_byte(set, way) != 0 {
                    let idx = set * ways + way;
                    Some((self.line_of(set, self.tags[idx]), &self.metas[idx]))
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> Cache {
        Cache::new(
            CacheGeometry {
                sets,
                ways,
                latency: 1,
            },
            Replacement::Lru,
        )
    }

    #[test]
    fn fill_and_lookup() {
        let mut c = cache(4, 2);
        assert!(c.fill(LineAddr(0x10), LineMeta::default()).is_none());
        assert!(c.contains(LineAddr(0x10)));
        assert!(!c.contains(LineAddr(0x11)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn set_mapping_uses_low_bits() {
        let c = cache(4, 2);
        assert_eq!(c.set_of(LineAddr(0)), 0);
        assert_eq!(c.set_of(LineAddr(5)), 1);
        assert_eq!(c.set_of(LineAddr(7)), 3);
    }

    #[test]
    fn eviction_returns_lru_victim_with_correct_address() {
        let mut c = cache(2, 2);
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        assert!(c.fill(LineAddr(0), LineMeta::default()).is_none());
        assert!(c.fill(LineAddr(2), LineMeta::default()).is_none());
        let evicted = c.fill(LineAddr(4), LineMeta::default()).expect("set full");
        assert_eq!(evicted.line, LineAddr(0));
        assert!(!c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(2)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut c = cache(2, 2);
        c.fill(LineAddr(0), LineMeta::default());
        c.fill(LineAddr(2), LineMeta::default());
        c.touch(LineAddr(0)); // now line 2 is LRU
        let evicted = c.fill(LineAddr(4), LineMeta::default()).expect("set full");
        assert_eq!(evicted.line, LineAddr(2));
    }

    #[test]
    fn refill_of_resident_line_replaces_meta_without_eviction() {
        let mut c = cache(2, 1);
        c.fill(LineAddr(0), LineMeta::default());
        let meta = LineMeta::default().with_dirty(true);
        let evicted = c.fill(LineAddr(0), meta);
        assert!(evicted.is_none());
        assert!(c.peek(LineAddr(0)).expect("resident").dirty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes_and_returns_meta() {
        let mut c = cache(2, 2);
        let meta = LineMeta::default().with_protected(true);
        c.fill(LineAddr(6), meta);
        let got = c.invalidate(LineAddr(6)).expect("resident");
        assert!(got.protected());
        assert!(!c.contains(LineAddr(6)));
        assert!(c.invalidate(LineAddr(6)).is_none());
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = cache(2, 2);
        c.fill(LineAddr(0), LineMeta::default());
        c.fill(LineAddr(2), LineMeta::default());
        let _ = c.peek(LineAddr(0));
        // Line 0 is still LRU because peek doesn't touch.
        let evicted = c.fill(LineAddr(4), LineMeta::default()).expect("set full");
        assert_eq!(evicted.line, LineAddr(0));
    }

    #[test]
    fn resident_lines_enumerates_all() {
        let mut c = cache(4, 2);
        for i in 0..5u64 {
            c.fill(LineAddr(i), LineMeta::default());
        }
        let mut lines: Vec<_> = c.resident_lines().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = cache(4, 1);
        for i in 0..4u64 {
            assert!(c.fill(LineAddr(i), LineMeta::default()).is_none());
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn meta_mutation_via_peek_mut() {
        let mut c = cache(2, 1);
        c.fill(LineAddr(1), LineMeta::default());
        c.peek_mut(LineAddr(1))
            .expect("resident")
            .set_accessed(true);
        assert!(c.peek(LineAddr(1)).expect("resident").accessed());
    }

    #[test]
    fn lru_eviction_follows_touch_order() {
        // Moved here from replacement.rs: LRU ordering now lives in the
        // cache's interleaved stamp array. Lines 0,2,4,6 all map to set 0.
        let mut c = cache(2, 4);
        for line in [6, 2, 0, 4] {
            c.fill(LineAddr(line), LineMeta::default());
        }
        // Fresh conflicting fills must evict in touch order: 6, 2, 0, 4.
        for (i, expect) in [6u64, 2, 0, 4].into_iter().enumerate() {
            let fresh = LineAddr(8 + 2 * i as u64);
            let evicted = c.fill(fresh, LineMeta::default()).expect("set full");
            assert_eq!(evicted.line, LineAddr(expect));
        }
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut c = cache(2, 2);
        // Set 0 holds lines 0, 2; set 1 holds lines 1, 3.
        c.fill(LineAddr(0), LineMeta::default());
        c.fill(LineAddr(2), LineMeta::default());
        c.fill(LineAddr(1), LineMeta::default());
        c.fill(LineAddr(3), LineMeta::default());
        c.touch(LineAddr(0)); // set 0: line 2 is now LRU
        c.touch(LineAddr(3)); // set 1: line 1 is now LRU
        assert_eq!(
            c.fill(LineAddr(4), LineMeta::default()).expect("full").line,
            LineAddr(2)
        );
        assert_eq!(
            c.fill(LineAddr(5), LineMeta::default()).expect("full").line,
            LineAddr(1)
        );
    }

    #[test]
    fn tree_plru_cache_evicts_valid_ways() {
        let mut c = Cache::new(
            CacheGeometry {
                sets: 1,
                ways: 4,
                latency: 1,
            },
            Replacement::TreePlru,
        );
        for i in 0..16u64 {
            c.fill(LineAddr(i), LineMeta::default());
            assert!(c.contains(LineAddr(i)));
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn random_cache_is_deterministic() {
        let run = || {
            let mut c = Cache::new(
                CacheGeometry {
                    sets: 2,
                    ways: 2,
                    latency: 1,
                },
                Replacement::Random { seed: 3 },
            );
            (0..100u64)
                .filter_map(|i| c.fill(LineAddr(i), LineMeta::default()))
                .map(|e| e.line.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
