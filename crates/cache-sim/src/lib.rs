//! A deterministic, trace-driven multi-core cache-hierarchy simulator.
//!
//! This crate is the substrate for the PiPoMonitor reproduction — it stands in
//! for the Gem5 setup of the paper's evaluation (§VII-A, Table II). It models:
//!
//! * private, inclusive L1 and L2 caches per core;
//! * a shared, inclusive L3 (LLC) with a directory-style sharer bitmap,
//!   back-invalidation on eviction (the signal cross-core attackers exploit),
//!   and MESI-flavoured write invalidations;
//! * a fixed-latency DRAM behind a memory controller;
//! * a [`TrafficObserver`] hook at the memory controller where PiPoMonitor
//!   (or any other defense) watches LLC↔memory traffic and injects
//!   prefetches.
//!
//! Everything is deterministic: replacement randomness comes from seeded
//! generators, so every experiment is exactly reproducible.
//!
//! The simulation hot path is engineered to be allocation-free in steady
//! state: [`System::run`] schedules cores through a reusable binary min-heap
//! (popping the earliest `(clock, core)` event instead of rescanning all
//! cores), prefetch draining is event-driven through
//! [`TrafficObserver::next_prefetch_due`] and the buffer-reusing
//! [`TrafficObserver::drain_due_prefetches`] sink API, and [`Cache`] stores
//! packed tag+recency records separately from line metadata so lookups scan
//! one host cache line per set. `tests/scheduler_regression.rs` pins the
//! engine's results bit-exactly and `tests/no_alloc_hot_path.rs` counts
//! allocations to keep these properties honest.
//!
//! One simulation runs on one host thread; independent simulations (the
//! cells of a figure's sweep) are spread across threads by the harness
//! crate. See `ARCHITECTURE.md` at the repository root for the execution
//! model.
//!
//! # Examples
//!
//! ```
//! use cache_sim::{Hierarchy, NullObserver, SystemConfig, AccessKind, Addr, CoreId};
//!
//! let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
//! let mut observer = NullObserver;
//! // First access goes to memory; the second hits in L1.
//! let miss = hierarchy.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut observer);
//! let hit = hierarchy.access(CoreId(0), Addr(0x1000), AccessKind::Read, 100, &mut observer);
//! assert!(miss.latency > hit.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod hierarchy;
pub mod line;
pub mod observer;
pub mod replacement;
pub mod stats;
pub mod system;
pub mod types;

pub use cache::{Cache, EvictedLine};
pub use config::{CacheGeometry, SystemConfig};
pub use core::{Access, AccessSource, Core};
pub use dram::Dram;
pub use hierarchy::Hierarchy;
pub use line::{LineMeta, SharerSet};
pub use observer::{NullObserver, RecordingObserver, TrafficObserver};
pub use replacement::Replacement;
pub use stats::{CoreStats, HierarchyStats, LevelStats};
pub use system::{SimReport, System};
pub use types::{AccessKind, AccessResult, Addr, CoreId, Cycle, Level, LineAddr};
