//! Span recording for the traced runs, and the wrappers that produce spans.
//!
//! Every span is recorded by this benchmark around its own call into a
//! layer's public API; nothing inside the measured crates is instrumented.
//! Spans live in a buffer preallocated when tracing starts and are written
//! out once, at the end of the run. Per-layer totals (calls, nanoseconds,
//! items) are kept for every span, including those recorded after the
//! buffer filled, so metrics never depend on the buffer size.
//!
//! Timing costs about as much as one simulated access, so no span is ever
//! recorded per access: sources are timed per `refill` batch, the observer
//! on every [`SAMPLE_EVERY`]-th call, and the hierarchy replay per batch.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use cache_sim::{Access, AccessSource, Cycle, LineAddr, TrafficObserver};
use pipomonitor::PiPoMonitor;

/// The layer boundary a span sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One timed pass of a workload (the root span).
    Pass,
    /// `AccessSource::refill` on a wrapped source.
    Refill,
    /// `System::run`.
    Run,
    /// Sampled `TrafficObserver::on_memory_fetch` on the monitor.
    Fetch,
    /// Sampled `TrafficObserver::on_llc_eviction` on the monitor.
    Evict,
    /// Sampled `TrafficObserver::drain_due_prefetches` on the monitor.
    Drain,
    /// One batch of `Hierarchy::access` calls in the replay.
    Replay,
    /// One fixed slice of `PatternStore::query` calls.
    Query,
    /// `ResultStore::open`.
    StoreOpen,
    /// `ResultStore::get`.
    StoreGet,
    /// `ResultStore::put`.
    StorePut,
    /// `ResultStore::flush`.
    StoreFlush,
    /// `ResultStore::open` plus a warm `Sweep::run_with_store`.
    SweepWarm,
}

impl Layer {
    /// Number of layers, for per-layer total arrays.
    const COUNT: usize = Layer::SweepWarm as usize + 1;

    fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::Refill => "workloads.refill",
            Layer::Run => "system.run",
            Layer::Fetch => "monitor.fetch",
            Layer::Evict => "monitor.evict",
            Layer::Drain => "monitor.drain",
            Layer::Replay => "hierarchy.replay",
            Layer::Query => "filter.query",
            Layer::StoreOpen => "store.open",
            Layer::StoreGet => "store.get",
            Layer::StorePut => "store.put",
            Layer::StoreFlush => "store.flush",
            Layer::SweepWarm => "sweep.warm",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Sampled observer calls: one in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Capacity of the span buffer. Later spans still count in the totals.
const SPAN_CAPACITY: usize = 1 << 18;

/// Accesses recorded per core for the hierarchy replay.
pub const RECORD_PER_CORE: usize = 1 << 18;

const NO_SPAN: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    cell: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span: its buffer slot and the time its children took so far.
struct Frame {
    id: u32,
    started: Instant,
    child_ns: f64,
}

/// Calls, nanoseconds and items of one layer. For sampled layers `calls`
/// and `ns` cover the timed samples only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub calls: u64,
    pub ns: u64,
    pub items: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    totals: [Total; Layer::COUNT],
    open: Vec<Frame>,
    cell: u32,
    /// Per-core access streams captured for the hierarchy replay.
    recorded: Vec<Vec<Access>>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| f(t.borrow_mut().as_mut().expect("tracing started")))
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    fn push(&mut self, layer: Layer, start: Instant, end: Instant) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        let id = u32::try_from(self.spans.len()).expect("span capacity fits u32");
        self.spans.push(Span {
            layer,
            cell: self.cell,
            parent: self.open.last().map_or(NO_SPAN, |f| f.id),
            start_ns: ns_between(self.epoch, start),
            end_ns: ns_between(self.epoch, end),
        });
        id
    }

    /// Adds a finished child span, weighted by how many calls it stands for.
    fn child(&mut self, layer: Layer, start: Instant, end: Instant, items: u64, weight: u64) {
        let ns = ns_between(start, end);
        let total = &mut self.totals[layer.index()];
        total.calls += 1;
        total.ns += ns;
        total.items += items;
        if let Some(frame) = self.open.last_mut() {
            frame.child_ns += (ns * weight) as f64;
        }
        self.push(layer, start, end);
    }
}

/// Starts tracing on this thread with an empty, preallocated span buffer.
pub fn start(cores: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
            totals: [Total::default(); Layer::COUNT],
            open: Vec::new(),
            cell: 0,
            recorded: (0..cores)
                .map(|_| Vec::with_capacity(RECORD_PER_CORE))
                .collect(),
        });
    });
}

/// Tags the spans that follow with a cell id.
pub fn set_cell(cell: usize) {
    with(|t| t.cell = u32::try_from(cell).unwrap_or(NO_SPAN));
}

/// Opens a span; close it with [`end`].
pub fn begin(layer: Layer) {
    with(|t| {
        let now = Instant::now();
        // Reserve the slot now so children can name it as their parent.
        let id = t.push(layer, now, now);
        t.open.push(Frame {
            id,
            started: now,
            child_ns: 0.0,
        });
    });
}

/// Closes the innermost open span. Returns its duration and the part of it
/// its children took (sampled children counted at their sampling weight).
pub fn end(layer: Layer) -> (u64, f64) {
    let end = Instant::now();
    with(|t| {
        let frame = t.open.pop().expect("a span is open");
        let ns = ns_between(frame.started, end);
        if let Some(span) = t.spans.get_mut(frame.id as usize) {
            debug_assert_eq!(span.layer, layer);
            span.end_ns = ns_between(t.epoch, end);
        }
        let total = &mut t.totals[layer.index()];
        total.calls += 1;
        total.ns += ns;
        if let Some(parent) = t.open.last_mut() {
            parent.child_ns += ns as f64;
        }
        (ns, frame.child_ns)
    })
}

/// Records a finished span of `items` units of work.
pub fn record(layer: Layer, start: Instant, end: Instant, items: u64) {
    with(|t| t.child(layer, start, end, items, 1));
}

/// Totals of one layer so far.
pub fn total(layer: Layer) -> Total {
    with(|t| t.totals[layer.index()])
}

/// Spans recorded in the buffer and spans that did not fit.
pub fn span_counts() -> (u64, u64) {
    with(|t| (t.spans.len() as u64, t.dropped))
}

/// Swaps the access streams recorded since the last call (one per core)
/// into `into`, handing its buffers back for the next recording.
pub fn take_recorded(into: &mut [Vec<Access>]) {
    with(|t| {
        for (dst, src) in into.iter_mut().zip(&mut t.recorded) {
            std::mem::swap(dst, src);
            src.clear();
            src.reserve(RECORD_PER_CORE);
        }
    });
}

/// Writes every buffered span as one tab-separated line:
/// `id parent cell layer start_ns end_ns` (`-` for no parent).
pub fn write(path: &Path) -> io::Result<()> {
    let text = with(|t| {
        let mut text = String::with_capacity(t.spans.len() * 48 + 64);
        text.push_str("id\tparent\tcell\tlayer\tstart_ns\tend_ns\n");
        for (id, s) in t.spans.iter().enumerate() {
            let _ = write!(text, "{id}\t");
            if s.parent == NO_SPAN {
                text.push('-');
            } else {
                let _ = write!(text, "{}", s.parent);
            }
            let _ = writeln!(
                text,
                "\t{}\t{}\t{}\t{}",
                s.cell,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        text
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Cost of one `Instant::now()` + `elapsed()` pair, the unit every span
/// pays: the median over batches of back-to-back pairs.
#[must_use]
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 1000;
    let mut batches: Vec<f64> = (0..51)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..PAIRS {
                black_box(Instant::now().elapsed());
            }
            started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::stats::median(&mut batches)
}

/// An access source whose every `refill` is a span; optionally copies the
/// produced accesses for the hierarchy replay.
pub struct TracedSource {
    inner: Box<dyn AccessSource + Send>,
    core: usize,
    record: bool,
}

impl TracedSource {
    #[must_use]
    pub fn new(inner: Box<dyn AccessSource + Send>, core: usize, record: bool) -> Self {
        Self {
            inner,
            core,
            record,
        }
    }
}

impl AccessSource for TracedSource {
    fn next_access(&mut self) -> Option<Access> {
        self.inner.next_access()
    }

    fn refill(&mut self, buf: &mut Vec<Access>, max: usize) {
        let before = buf.len();
        let start = Instant::now();
        self.inner.refill(buf, max);
        let end = Instant::now();
        let produced = &buf[before..];
        with(|t| {
            t.child(Layer::Refill, start, end, produced.len() as u64, 1);
            if self.record {
                let dst = &mut t.recorded[self.core];
                let room = RECORD_PER_CORE.saturating_sub(dst.len());
                dst.extend_from_slice(&produced[..produced.len().min(room)]);
            }
        });
    }
}

/// Calls the system made into the monitor, counted on every call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverCalls {
    pub fetch: u64,
    pub evict: u64,
    pub evict_protected: u64,
    pub drain: u64,
}

/// [`PiPoMonitor`] behind a wrapper that counts every observer call, times
/// every [`SAMPLE_EVERY`]-th one, and keeps what the oracle needs: each
/// fetched line with its capture bit, and the fetches into an attacker
/// region until the first capture there.
pub struct TracedMonitor {
    pub monitor: PiPoMonitor,
    pub calls: ObserverCalls,
    /// Fetched line addresses, bit 63 set when the fetch was captured.
    pub fetched: Vec<u64>,
    region: std::ops::Range<u64>,
    pub region_fetches: u64,
    pub first_region_capture: Option<u64>,
}

const CAPTURED_BIT: u64 = 1 << 63;

impl TracedMonitor {
    /// Wraps `monitor`; `fetched` is a reused buffer, `region` the attacker's
    /// line addresses (empty for benign workloads).
    #[must_use]
    pub fn new(monitor: PiPoMonitor, mut fetched: Vec<u64>, region: std::ops::Range<u64>) -> Self {
        fetched.clear();
        Self {
            monitor,
            calls: ObserverCalls::default(),
            fetched,
            region,
            region_fetches: 0,
            first_region_capture: None,
        }
    }

    fn sampled(count: u64) -> bool {
        count.is_multiple_of(SAMPLE_EVERY)
    }
}

/// Splits an oracle record into its line and capture bit.
#[must_use]
pub fn fetched_line(record: u64) -> (u64, bool) {
    (record & !CAPTURED_BIT, record & CAPTURED_BIT != 0)
}

impl TrafficObserver for TracedMonitor {
    fn on_memory_fetch(&mut self, line: LineAddr, now: Cycle) -> bool {
        self.calls.fetch += 1;
        let captured = if Self::sampled(self.calls.fetch) {
            let start = Instant::now();
            let captured = self.monitor.on_memory_fetch(line, now);
            let end = Instant::now();
            with(|t| t.child(Layer::Fetch, start, end, 1, SAMPLE_EVERY));
            captured
        } else {
            self.monitor.on_memory_fetch(line, now)
        };
        self.fetched
            .push(line.0 | if captured { CAPTURED_BIT } else { 0 });
        if self.region.contains(&line.0) {
            self.region_fetches += 1;
            if captured && self.first_region_capture.is_none() {
                self.first_region_capture = Some(self.region_fetches);
            }
        }
        captured
    }

    fn on_llc_eviction(&mut self, line: LineAddr, protected: bool, accessed: bool, now: Cycle) {
        self.calls.evict += 1;
        self.calls.evict_protected += u64::from(protected);
        if Self::sampled(self.calls.evict) {
            let start = Instant::now();
            self.monitor.on_llc_eviction(line, protected, accessed, now);
            let end = Instant::now();
            with(|t| t.child(Layer::Evict, start, end, 1, SAMPLE_EVERY));
        } else {
            self.monitor.on_llc_eviction(line, protected, accessed, now);
        }
    }

    fn next_prefetch_due(&self) -> Option<Cycle> {
        self.monitor.next_prefetch_due()
    }

    fn drain_due_prefetches(&mut self, now: Cycle, out: &mut Vec<LineAddr>) {
        self.calls.drain += 1;
        if Self::sampled(self.calls.drain) {
            let before = out.len();
            let start = Instant::now();
            self.monitor.drain_due_prefetches(now, out);
            let end = Instant::now();
            let drained = (out.len() - before) as u64;
            with(|t| t.child(Layer::Drain, start, end, drained, SAMPLE_EVERY));
        } else {
            self.monitor.drain_due_prefetches(now, out);
        }
    }
}
