//! Per-line metadata: coherence, dirtiness, and PiPoMonitor's tag bits.

use crate::types::CoreId;

/// A bitmask of cores holding a line in their private caches (the LLC's
/// directory-style sharer tracking). Supports up to 64 cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty sharer set.
    #[must_use]
    pub fn empty() -> Self {
        Self(0)
    }

    /// A set containing exactly one core.
    #[must_use]
    pub fn only(core: CoreId) -> Self {
        Self(1 << core.0)
    }

    /// Adds a core.
    pub fn insert(&mut self, core: CoreId) {
        self.0 |= 1 << core.0;
    }

    /// Removes a core.
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !(1 << core.0);
    }

    /// Whether the core is a sharer.
    #[must_use]
    pub fn contains(&self, core: CoreId) -> bool {
        self.0 & (1 << core.0) != 0
    }

    /// Whether no cores share the line.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of sharers.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether `core` is the only sharer.
    #[must_use]
    pub fn is_sole(&self, core: CoreId) -> bool {
        self.0 == 1 << core.0
    }

    /// Iterates the sharer core ids in ascending order.
    ///
    /// The iterator owns a copy of the bitmask and walks it with
    /// `trailing_zeros` + clear-lowest-set-bit, so iteration costs one step
    /// per *sharer* rather than one per possible core — this sits on the
    /// LLC-eviction back-invalidation hot path.
    #[must_use]
    pub fn iter(&self) -> SharerIter {
        SharerIter(self.0)
    }
}

/// Iterator over the members of a [`SharerSet`] (see [`SharerSet::iter`]).
#[derive(Debug, Clone, Copy)]
pub struct SharerIter(u64);

impl Iterator for SharerIter {
    type Item = CoreId;

    fn next(&mut self) -> Option<CoreId> {
        if self.0 == 0 {
            return None;
        }
        let core = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(CoreId(core))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SharerIter {}

/// Flag bit: line holds data newer than memory.
const DIRTY: u8 = 1 << 0;
/// Flag bit: PiPoMonitor Ping-Pong tag.
const PROTECTED: u8 = 1 << 1;
/// Flag bit: tagged line has been demand-accessed since entering the LLC.
const ACCESSED: u8 = 1 << 2;
/// Flag bit: line entered the LLC via prefetch, not yet demand-touched.
const PREFETCHED: u8 = 1 << 3;
/// Flag bit (private L1 copies only): this core is the LLC copy's sole
/// sharer and that copy is dirty, so a write hit needs no upgrade.
const OWNED: u8 = 1 << 4;

/// Metadata carried by a cached line, packed to nine meaningful bytes: the
/// 64-bit sharer bitmap plus one flag byte holding the five status bits.
///
/// Private caches use the dirty flag, and L1 copies the `owned` flag: the
/// core is the LLC copy's sole sharer and that copy is dirty (the state a
/// write upgrade establishes), so a write hit on an owned line skips the
/// upgrade. The LLC additionally maintains the sharer set (directory) and
/// PiPoMonitor's protection bits:
///
/// * `protected` — the line was captured as a Ping-Pong line (tagged at fill
///   time by the monitor's response).
/// * `accessed` — the tagged line has been demand-touched since it entered
///   the LLC. Only tagged-*and*-accessed lines are re-prefetched on eviction
///   (paper §IV), which prevents endless prefetch loops.
/// * `prefetched` — the line entered the LLC via the monitor's prefetch path
///   (statistics only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineMeta {
    /// Cores caching this line privately (LLC only).
    pub sharers: SharerSet,
    flags: u8,
}

impl LineMeta {
    /// Metadata for a line filled on a demand miss by `core`.
    ///
    /// The demand access itself counts as the first access.
    #[must_use]
    pub fn demand_fill(core: CoreId, is_write: bool, protected: bool) -> Self {
        Self {
            sharers: SharerSet::only(core),
            flags: ACCESSED | (DIRTY * u8::from(is_write)) | (PROTECTED * u8::from(protected)),
        }
    }

    /// Metadata for a line injected by the monitor's prefetcher: no sharers,
    /// clean, protected, not yet accessed.
    #[must_use]
    pub fn prefetch_fill() -> Self {
        Self {
            sharers: SharerSet::empty(),
            flags: PROTECTED | PREFETCHED,
        }
    }

    #[inline]
    fn put(&mut self, bit: u8, value: bool) {
        self.flags = (self.flags & !bit) | (bit * u8::from(value));
    }

    /// Line holds data newer than memory.
    #[inline]
    #[must_use]
    pub fn dirty(&self) -> bool {
        self.flags & DIRTY != 0
    }

    /// Sets the dirty flag.
    #[inline]
    pub fn set_dirty(&mut self, value: bool) {
        self.put(DIRTY, value);
    }

    /// ORs `value` into the dirty flag (branchless dirtiness propagation).
    #[inline]
    pub fn or_dirty(&mut self, value: bool) {
        self.flags |= DIRTY * u8::from(value);
    }

    /// PiPoMonitor Ping-Pong tag.
    #[inline]
    #[must_use]
    pub fn protected(&self) -> bool {
        self.flags & PROTECTED != 0
    }

    /// Sets the protection tag.
    #[inline]
    pub fn set_protected(&mut self, value: bool) {
        self.put(PROTECTED, value);
    }

    /// Tagged line has been demand-accessed since entering the LLC.
    #[inline]
    #[must_use]
    pub fn accessed(&self) -> bool {
        self.flags & ACCESSED != 0
    }

    /// Sets the accessed flag.
    #[inline]
    pub fn set_accessed(&mut self, value: bool) {
        self.put(ACCESSED, value);
    }

    /// Line entered the LLC via prefetch and has not been demand-touched yet.
    #[inline]
    #[must_use]
    pub fn prefetched(&self) -> bool {
        self.flags & PREFETCHED != 0
    }

    /// Sets the prefetched flag.
    #[inline]
    pub fn set_prefetched(&mut self, value: bool) {
        self.put(PREFETCHED, value);
    }

    /// This L1 copy's core is the sole sharer of a dirty LLC copy.
    #[inline]
    #[must_use]
    pub fn owned(&self) -> bool {
        self.flags & OWNED != 0
    }

    /// Sets the owned flag.
    #[inline]
    pub fn set_owned(&mut self, value: bool) {
        self.put(OWNED, value);
    }

    /// Builder: returns `self` with the dirty flag set to `value`.
    #[must_use]
    pub fn with_dirty(mut self, value: bool) -> Self {
        self.set_dirty(value);
        self
    }

    /// Builder: returns `self` with the protection tag set to `value`.
    #[must_use]
    pub fn with_protected(mut self, value: bool) -> Self {
        self.set_protected(value);
        self
    }

    /// Builder: returns `self` with the accessed flag set to `value`.
    #[must_use]
    pub fn with_accessed(mut self, value: bool) -> Self {
        self.set_accessed(value);
        self
    }

    /// Builder: returns `self` with the prefetched flag set to `value`.
    #[must_use]
    pub fn with_prefetched(mut self, value: bool) -> Self {
        self.set_prefetched(value);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_set_insert_remove_contains() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId(0));
        s.insert(CoreId(3));
        assert!(s.contains(CoreId(0)));
        assert!(s.contains(CoreId(3)));
        assert!(!s.contains(CoreId(1)));
        assert_eq!(s.count(), 2);
        s.remove(CoreId(0));
        assert!(!s.contains(CoreId(0)));
        assert_eq!(s.count(), 1);
        assert!(s.is_sole(CoreId(3)));
    }

    #[test]
    fn sharer_set_only() {
        let s = SharerSet::only(CoreId(2));
        assert!(s.is_sole(CoreId(2)));
        assert!(!s.is_sole(CoreId(1)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn sharer_set_iter_yields_members() {
        let mut s = SharerSet::empty();
        s.insert(CoreId(1));
        s.insert(CoreId(5));
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![CoreId(1), CoreId(5)]);
    }

    #[test]
    fn sharer_set_iter_edge_bits() {
        assert_eq!(SharerSet::empty().iter().count(), 0);
        let mut s = SharerSet::empty();
        s.insert(CoreId(0));
        s.insert(CoreId(63));
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![CoreId(0), CoreId(63)]);
        assert_eq!(s.iter().len(), 2);
    }

    #[test]
    fn demand_fill_meta() {
        let m = LineMeta::demand_fill(CoreId(1), true, false);
        assert!(m.dirty());
        assert!(m.sharers.is_sole(CoreId(1)));
        assert!(!m.protected());
        assert!(m.accessed());
        assert!(!m.prefetched());
    }

    #[test]
    fn prefetch_fill_meta() {
        let m = LineMeta::prefetch_fill();
        assert!(!m.dirty());
        assert!(m.sharers.is_empty());
        assert!(m.protected());
        assert!(!m.accessed());
        assert!(m.prefetched());
    }

    #[test]
    fn flag_setters_round_trip() {
        let mut m = LineMeta::default();
        m.set_dirty(true);
        m.set_accessed(true);
        assert!(m.dirty() && m.accessed() && !m.protected() && !m.prefetched());
        m.set_dirty(false);
        assert!(!m.dirty() && m.accessed());
        m.or_dirty(false);
        assert!(!m.dirty());
        m.or_dirty(true);
        assert!(m.dirty());
        let b = LineMeta::default()
            .with_dirty(true)
            .with_protected(true)
            .with_accessed(true)
            .with_prefetched(true);
        assert!(b.dirty() && b.protected() && b.accessed() && b.prefetched());
        assert!(!b.owned());
        let mut o = LineMeta::default().with_dirty(true);
        o.set_owned(true);
        assert!(o.owned() && o.dirty());
        o.set_owned(false);
        assert!(!o.owned() && o.dirty());
    }
}
