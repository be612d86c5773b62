//! Randomized differential testing of the epoch-parallel engine.
//!
//! `tests/sharded_regression.rs` pins `System::run_sharded` ≡ `System::run`
//! on the *bundled* workloads; this suite attacks the same invariant with
//! randomized inputs, in the spirit of property-based regression suites:
//! arbitrary workload mixes (private/shared footprints, write ratios, think
//! gaps), core counts, shard counts, and epoch window bases — including
//! conflict-heavy address patterns chosen to hammer the rollback and
//! verification paths. For every generated case the sharded run must be
//! **bit-identical** to the sequential run: completion times, per-core
//! statistics, coherence/eviction counters, DRAM traffic, and (for the
//! monitored property) the monitor's own statistics.
//!
//! The vendored proptest shim is deterministic (fixed per-case seeds, no
//! shrinking), so any failure here reproduces exactly.

use std::sync::Arc;

use cache_sim::{
    Access, AccessSource, Addr, CoreId, NullObserver, ShardSpec, SimReport, System, SystemConfig,
    TrafficObserver,
};
use pipo_workloads::{Trace, V2Replay};
use pipomonitor::{MonitorConfig, PiPoMonitor};
use proptest::prelude::*;

mod common;
use common::{fingerprint, Fingerprint};

/// Deterministic per-core workload parameters, drawn by the properties
/// below. Both the sequential and the sharded run rebuild identical sources
/// from one `WorkloadParams` value.
#[derive(Debug, Clone, Copy)]
struct WorkloadParams {
    seed: u64,
    /// Lines in each core's private region.
    private_lines: u64,
    /// Lines in the region all cores share (the conflict knob: small shared
    /// regions force cross-shard coherence and shared-set evictions).
    shared_lines: u64,
    /// Percent of accesses that target the shared region.
    shared_pct: u64,
    /// Percent of accesses that are writes.
    write_pct: u64,
    /// Compute gap between accesses is drawn from `0..=think_max`.
    think_max: u64,
}

/// A splitmix-style step, good enough to decorrelate the draws.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn source_for(core: usize, p: WorkloadParams) -> Box<dyn AccessSource + Send> {
    let mut state = p.seed ^ (core as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    Box::new(move || {
        let r = mix(&mut state);
        let shared = r % 100 < p.shared_pct && p.shared_lines > 0;
        let line = if shared {
            (r >> 8) % p.shared_lines
        } else {
            // Private regions sit at 1 MiB strides so they are disjoint
            // across cores but still alias into the same low LLC sets —
            // benign set sharing the verify phase must prove harmless.
            (1 + core as u64) * (1 << 14) + (r >> 8) % p.private_lines
        };
        let addr = Addr(line * 64);
        let access = if (r >> 40) % 100 < p.write_pct {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        Some(access.after((r >> 52) % (p.think_max + 1)))
    })
}

/// Builds a system with `cores` cores over the scaled-down test geometry
/// (tiny caches keep eviction and conflict rates high) running `params` on
/// every core, and drives it with `run`.
fn run_case<O: TrafficObserver>(
    cores: usize,
    params: WorkloadParams,
    observer: O,
    run: impl FnOnce(&mut System<O>) -> SimReport,
) -> (Fingerprint, System<O>) {
    run_sources(cores, |core| source_for(core, params), observer, run)
}

/// [`run_case`] with core `c` running `source(c)`.
fn run_sources<O: TrafficObserver>(
    cores: usize,
    source: impl Fn(usize) -> Box<dyn AccessSource + Send>,
    observer: O,
    run: impl FnOnce(&mut System<O>) -> SimReport,
) -> (Fingerprint, System<O>) {
    let mut config = SystemConfig::small_test();
    config.cores = cores;
    let mut system = System::new(config, observer);
    for core in 0..cores {
        system.set_source(CoreId(core), source(core));
    }
    let report = run(&mut system);
    (fingerprint(&report), system)
}

fn arb_params() -> impl Strategy<Value = WorkloadParams> {
    (
        any::<u64>(),
        1u64..1024,
        0u64..256,
        0u64..=100,
        0u64..=60,
        0u64..8,
    )
        .prop_map(
            |(seed, private_lines, shared_lines, shared_pct, write_pct, think_max)| {
                WorkloadParams {
                    seed,
                    private_lines,
                    shared_lines,
                    shared_pct,
                    write_pct,
                    think_max,
                }
            },
        )
}

proptest! {
    /// Unmonitored runs: any workload mix, core count, shard count, and
    /// epoch window base must be bit-identical to the sequential engine.
    #[test]
    fn random_baseline_workloads_are_bit_identical(
        params in arb_params(),
        cores in 1usize..=6,
        shards in 1usize..=8,
        epoch_cycles in 200u64..40_000,
    ) {
        let instructions = 6_000;
        let (seq, _) = run_case(cores, params, NullObserver, |s| s.run(instructions));
        let spec = ShardSpec::new(shards).with_epoch_cycles(epoch_cycles);
        let (sharded, system) = run_case(cores, params, NullObserver, |s| {
            s.run_sharded(instructions, spec)
        });
        prop_assert_eq!(&seq, &sharded, "cores={} shards={} epoch={}", cores, shards, epoch_cycles);
        // Re-running sharded on the *same* system must also be stable
        // (scratch reuse across runs must not leak state).
        let (sharded2, _) = run_case(cores, params, NullObserver, |s| {
            s.run_sharded(instructions, spec)
        });
        prop_assert_eq!(&sharded, &sharded2);
        drop(system);
    }

    /// Conflict-heavy workloads: all cores hammer one small shared region
    /// with frequent writes, so epochs must constantly roll back — and the
    /// result must still match bit for bit.
    #[test]
    fn conflict_heavy_workloads_are_bit_identical(
        seed in any::<u64>(),
        shared_lines in 1u64..64,
        shards in 2usize..=4,
        epoch_cycles in 200u64..8_000,
    ) {
        let params = WorkloadParams {
            seed,
            private_lines: 16,
            shared_lines,
            shared_pct: 85,
            write_pct: 40,
            think_max: 4,
        };
        let instructions = 5_000;
        let (seq, _) = run_case(4, params, NullObserver, |s| s.run(instructions));
        let spec = ShardSpec::new(shards).with_epoch_cycles(epoch_cycles);
        let (sharded, system) = run_case(4, params, NullObserver, |s| {
            s.run_sharded(instructions, spec)
        });
        prop_assert_eq!(&seq, &sharded, "shards={} epoch={}", shards, epoch_cycles);
        let telemetry = system.epoch_telemetry().expect("telemetry recorded");
        // The generator above shares >2/3 of its traffic over a tiny
        // region: if this never rolls back the conflict detection is
        // suspiciously permissive (it would imply cross-shard coherence
        // was never observed).
        prop_assert!(
            telemetry.rollbacks > 0 || telemetry.parallel_epochs == 0,
            "conflict stress never rolled back: {:?}", telemetry
        );
    }

    /// Monitored runs (PiPoMonitor observing, prefetch gating active): the
    /// report *and* the monitor statistics must be bit-identical.
    #[test]
    fn random_monitored_workloads_are_bit_identical(
        params in arb_params(),
        shards in 1usize..=4,
        epoch_cycles in 500u64..20_000,
    ) {
        let instructions = 4_000;
        let monitor = || PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config");
        let (seq, seq_system) = run_case(3, params, monitor(), |s| s.run(instructions));
        let spec = ShardSpec::new(shards).with_epoch_cycles(epoch_cycles);
        let (sharded, sharded_system) = run_case(3, params, monitor(), |s| {
            s.run_sharded(instructions, spec)
        });
        prop_assert_eq!(&seq, &sharded, "shards={} epoch={}", shards, epoch_cycles);
        prop_assert_eq!(
            seq_system.observer().stats(),
            sharded_system.observer().stats(),
            "monitor stats diverged"
        );
    }

    /// Trace-replayed workloads: each core's generated stream is recorded
    /// into a v2 binary trace and replayed through the streaming `V2Replay`
    /// decoder — the path the `trace_replay` harness takes with `--shards`.
    /// Sharded must equal sequential bit for bit even when every access
    /// comes out of the frame decoder instead of a live generator.
    #[test]
    fn trace_replayed_workloads_are_bit_identical(
        params in arb_params(),
        cores in 1usize..=4,
        shards in 1usize..=4,
        epoch_cycles in 200u64..20_000,
    ) {
        let instructions = 5_000;
        // Each access retires at least one instruction, so recording
        // `instructions` accesses guarantees the replay outlasts the run.
        let traces: Vec<Arc<[u8]>> = (0..cores)
            .map(|core| {
                let trace = Trace::record(
                    source_for(core, params).as_mut(),
                    instructions as usize,
                );
                Arc::from(trace.to_v2().into_boxed_slice())
            })
            .collect();
        let run_traced = |run: &dyn Fn(&mut System<NullObserver>) -> SimReport| {
            let mut config = SystemConfig::small_test();
            config.cores = cores;
            let mut system = System::new(config, NullObserver);
            for (core, bytes) in traces.iter().enumerate() {
                let replay = V2Replay::new(Arc::clone(bytes)).expect("own encoding decodes");
                system.set_source(CoreId(core), Box::new(replay));
            }
            fingerprint(&run(&mut system))
        };
        let seq = run_traced(&|s| s.run(instructions));
        let spec = ShardSpec::new(shards).with_epoch_cycles(epoch_cycles);
        let sharded = run_traced(&|s| s.run_sharded(instructions, spec));
        prop_assert_eq!(&seq, &sharded, "cores={} shards={} epoch={}", cores, shards, epoch_cycles);
    }
}

/// Core `core`'s stream (of four) for the line-ownership case, in rounds
/// of `round` accesses. In round `r`, core `r % 4` writes shared line
/// `r % 4` first and last, and every other core reads it halfway through: a
/// line one core owns is read by other cores, then written again by its
/// owner. The rest of the stream writes and re-reads a few private lines
/// (owned L1 write hits, which let parallel epochs commit) or cycles ten
/// lines through one LLC set (memory refetches the monitor captures, so
/// its prefetches force sequential windows).
fn ownership_source(core: usize, round: u64) -> Box<dyn AccessSource + Send> {
    let region = (1 + core as u64) * (1 << 14);
    let mut n = 0u64;
    Box::new(move || {
        n += 1;
        let (r, pos) = (n / round, n % round);
        let shared = Addr((r % 4) * 64);
        let owner = r % 4 == core as u64;
        let access = if owner && (pos == 0 || pos == round - 1) {
            Access::write(shared)
        } else if !owner && pos == round / 2 {
            Access::read(shared)
        } else if n.is_multiple_of(5) {
            // `small_test`'s LLC has 128 sets of 8 ways.
            Access::read(Addr((region + 44 + core as u64 + (n / 5 % 10) * 128) * 64))
        } else {
            // L1 sets 4..10: the shared lines keep L1 sets 0..3 to
            // themselves, so an owned copy stays resident.
            let addr = Addr((region + 4 + n % 6) * 64);
            if n.is_multiple_of(2) {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        };
        Some(access.after(n % 3))
    })
}

/// Owned L1 copies (sole sharer of a dirty LLC copy, so write hits skip the
/// upgrade) must not outlive a committed parallel epoch in which another
/// core read the line: the epoch's mirrors never see the private flag. The
/// grid mixes committed epochs, rollbacks and monitor-forced sequential
/// windows, and every run must stay bit-identical to the sequential engine.
#[test]
fn owned_lines_survive_epoch_boundaries_bit_identically() {
    let instructions = 6_000;
    let (mut committed, mut rollbacks, mut sequential) = (0, 0, 0);
    for round in [24, 150, 600] {
        for shards in [2, 4] {
            for epoch_cycles in [300, 2_000, 12_000] {
                let spec = ShardSpec::new(shards).with_epoch_cycles(epoch_cycles);
                let case = format!("round={round} shards={shards} epoch={epoch_cycles}");
                let source = |core| ownership_source(core, round);

                let (seq, _) = run_sources(4, source, NullObserver, |s| s.run(instructions));
                let (sharded, system) = run_sources(4, source, NullObserver, |s| {
                    s.run_sharded(instructions, spec)
                });
                assert_eq!(seq, sharded, "unmonitored {case}");
                let t = system.epoch_telemetry().expect("telemetry recorded");
                committed += t.committed_epochs;
                rollbacks += t.rollbacks;

                let monitor =
                    || PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config");
                let (seq, seq_system) = run_sources(4, source, monitor(), |s| s.run(instructions));
                let (sharded, system) =
                    run_sources(4, source, monitor(), |s| s.run_sharded(instructions, spec));
                assert_eq!(seq, sharded, "monitored {case}");
                assert_eq!(
                    seq_system.observer().stats(),
                    system.observer().stats(),
                    "monitor stats, {case}"
                );
                let t = system.epoch_telemetry().expect("telemetry recorded");
                committed += t.committed_epochs;
                rollbacks += t.rollbacks;
                sequential += t.sequential_windows;
            }
        }
    }
    assert!(committed > 0, "no parallel epoch committed");
    assert!(rollbacks > 0, "no epoch rolled back");
    assert!(sequential > 0, "no sequential window ran");
}
