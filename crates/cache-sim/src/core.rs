//! A simple in-order core model driven by an address stream.

use std::collections::VecDeque;

use crate::hierarchy::Hierarchy;
use crate::observer::TrafficObserver;
use crate::types::{AccessKind, Addr, CoreId, Cycle};

/// One memory access plus the non-memory work preceding it.
///
/// `think_cycles` models the instructions between memory operations: the
/// core retires them at one instruction per cycle before issuing the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address touched.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Non-memory instructions (= cycles) executed before this access.
    pub think_cycles: Cycle,
}

impl Access {
    /// A read with no preceding compute.
    #[must_use]
    pub fn read(addr: Addr) -> Self {
        Self {
            addr,
            kind: AccessKind::Read,
            think_cycles: 0,
        }
    }

    /// A write with no preceding compute.
    #[must_use]
    pub fn write(addr: Addr) -> Self {
        Self {
            addr,
            kind: AccessKind::Write,
            think_cycles: 0,
        }
    }

    /// Sets the compute gap before the access.
    #[must_use]
    pub fn after(mut self, think_cycles: Cycle) -> Self {
        self.think_cycles = think_cycles;
        self
    }
}

/// A deterministic source of memory accesses (a workload).
///
/// Returning `None` means the workload is exhausted; the core then idles.
///
/// Sources handed to a [`Core`] or [`System`](crate::System) must be `Send`
/// (`Box<dyn AccessSource + Send>`): whole systems are then `Send`, so sweep
/// harnesses can fan independent simulations across host threads. The trait
/// itself carries no `Send` bound — non-`Send` sources still work standalone.
pub trait AccessSource {
    /// Produces the next access, or `None` when done.
    fn next_access(&mut self) -> Option<Access>;

    /// Appends up to `max` accesses to `buf`, stopping early if the source
    /// runs dry. Appending nothing means the workload is exhausted.
    ///
    /// The default implementation loops [`next_access`](Self::next_access);
    /// generators override it to amortize per-access overhead (RNG state
    /// loads, bounds setup) across the whole batch. An override must produce
    /// the *identical* access sequence as repeated `next_access` calls —
    /// callers may mix the two paths freely, and the golden suites pin the
    /// merged stream.
    fn refill(&mut self, buf: &mut Vec<Access>, max: usize) {
        for _ in 0..max {
            match self.next_access() {
                Some(access) => buf.push(access),
                None => break,
            }
        }
    }
}

impl<F> AccessSource for F
where
    F: FnMut() -> Option<Access>,
{
    fn next_access(&mut self) -> Option<Access> {
        self()
    }
}

/// How many accesses a core pulls from its source per refill. Small enough
/// that peeking the next access stays inside one batch most of the time,
/// large enough to amortize the generator's per-call overhead.
const BATCH: usize = 64;

/// An in-order, blocking core: one outstanding memory access at a time,
/// IPC = 1 for non-memory instructions.
pub struct Core {
    id: CoreId,
    source: Box<dyn AccessSource + Send>,
    /// Accesses queued ahead of the pre-drawn batch; consumed first. Nothing
    /// fills it, so it is always empty. It stays because removing it shrinks
    /// a 4-core `Vec<Core>` by 128 bytes, which moved allocator placement
    /// enough to raise the `occupancy_attack` benchmark's set-up time past
    /// its bound (`BENCH_cache_sim.md`); its removal is an open follow-up.
    lookahead: VecDeque<Access>,
    /// Pre-drawn accesses from the source ([`AccessSource::refill`]); the
    /// cursor `batch_pos` marks the next unconsumed entry.
    batch: Vec<Access>,
    batch_pos: usize,
    /// Local clock: when the core can issue its next instruction.
    now: Cycle,
    /// Instructions retired so far (memory + non-memory).
    retired: u64,
    exhausted: bool,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("now", &self.now)
            .field("retired", &self.retired)
            .field("exhausted", &self.exhausted)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core fed by `source`.
    #[must_use]
    pub fn new(id: CoreId, source: Box<dyn AccessSource + Send>) -> Self {
        Self {
            id,
            source,
            lookahead: VecDeque::new(),
            batch: Vec::with_capacity(BATCH),
            batch_pos: 0,
            now: 0,
            retired: 0,
            exhausted: false,
        }
    }

    /// Core identifier.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Current local time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the source ran dry.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Executes the next access (compute gap + memory operation).
    ///
    /// Returns `false` when the source is exhausted.
    pub fn step<O: TrafficObserver + ?Sized>(
        &mut self,
        hierarchy: &mut Hierarchy,
        observer: &mut O,
    ) -> bool {
        let Some(access) = self.pull_access() else {
            return false;
        };
        self.now += access.think_cycles;
        self.retired += access.think_cycles; // 1 instruction per think cycle
        let result = hierarchy.access(self.id, access.addr, access.kind, self.now, observer);
        self.now += result.latency;
        self.retired += 1; // the memory instruction itself
        true
    }

    /// Takes the next access from the lookahead, falling back to the
    /// pre-drawn batch (refilled from the source when empty); marks the core
    /// exhausted when all three run dry.
    #[inline]
    fn pull_access(&mut self) -> Option<Access> {
        if let Some(access) = self.lookahead.pop_front() {
            return Some(access);
        }
        if self.batch_pos == self.batch.len() {
            self.refill_batch();
            if self.batch.is_empty() {
                self.exhausted = true;
                return None;
            }
        }
        let access = self.batch[self.batch_pos];
        self.batch_pos += 1;
        Some(access)
    }

    /// The once-per-[`BATCH`] slow path of [`pull_access`](Self::pull_access),
    /// kept out of line so the per-access fast path stays compact.
    #[cold]
    fn refill_batch(&mut self) {
        self.batch.clear();
        self.batch_pos = 0;
        self.source.refill(&mut self.batch, BATCH);
    }

    /// Address of the next access the core will issue, if already known
    /// (lookahead first, then the pre-drawn batch). Never advances the
    /// source.
    pub(crate) fn peek_addr(&self) -> Option<Addr> {
        if let Some(access) = self.lookahead.front() {
            return Some(access.addr);
        }
        self.batch.get(self.batch_pos).map(|a| a.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::observer::NullObserver;

    struct FixedSource(Vec<Access>);

    impl AccessSource for FixedSource {
        fn next_access(&mut self) -> Option<Access> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    #[test]
    fn access_builders() {
        let a = Access::read(Addr(0x40)).after(10);
        assert_eq!(a.kind, AccessKind::Read);
        assert_eq!(a.think_cycles, 10);
        let w = Access::write(Addr(0x80));
        assert!(w.kind.is_write());
        assert_eq!(w.think_cycles, 0);
    }

    #[test]
    fn core_advances_clock_by_think_plus_latency() {
        let mut h = Hierarchy::new(SystemConfig::small_test());
        let mut obs = NullObserver;
        let src = FixedSource(vec![Access::read(Addr(0x40)).after(5)]);
        let mut core = Core::new(CoreId(0), Box::new(src));
        assert!(core.step(&mut h, &mut obs));
        // 5 think + 235 memory latency.
        assert_eq!(core.now(), 5 + 235);
        assert_eq!(core.retired(), 6);
    }

    #[test]
    fn core_exhausts_when_source_runs_dry() {
        let mut h = Hierarchy::new(SystemConfig::small_test());
        let mut obs = NullObserver;
        let src = FixedSource(vec![Access::read(Addr(0x40))]);
        let mut core = Core::new(CoreId(0), Box::new(src));
        assert!(core.step(&mut h, &mut obs));
        assert!(!core.step(&mut h, &mut obs));
        assert!(core.is_exhausted());
    }

    #[test]
    fn closure_is_an_access_source() {
        let mut count = 0;
        let mut src = move || {
            count += 1;
            if count <= 2 {
                Some(Access::read(Addr(0x100)))
            } else {
                None
            }
        };
        assert!(src.next_access().is_some());
        assert!(src.next_access().is_some());
        assert!(src.next_access().is_none());
    }
}
