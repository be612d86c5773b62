//! Turns a [`BenchProfile`] into a deterministic infinite access stream.

use cache_sim::{Access, AccessKind, AccessSource, Addr};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::BenchProfile;

const LINE_SIZE: u64 = 64;
/// Line-number stride separating per-core address regions (2^36 lines
/// = 4 TiB of byte address space per core: regions can never overlap).
const CORE_REGION_LINES: u64 = 1 << 36;
/// Offset of the churn tier inside a core region, in lines.
const CHURN_OFFSET_LINES: u64 = 1 << 24;
/// Offset of the thrash tier inside a core region, in lines.
const THRASH_OFFSET_LINES: u64 = 1 << 26;
/// Offset of the stream tier inside a core region, in lines.
const STREAM_OFFSET_LINES: u64 = 1 << 28;
/// LLC set count of the paper's Table II configuration; thrash-tier lines
/// are spaced by this so they collide in a single LLC set.
const DEFAULT_LLC_SETS: u64 = 4096;
/// `2^53`: the resolution of the uniform draw the probabilities are
/// compared against.
const DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// Integer form of the float test `draw < p`, for a uniform `f64` draw
/// built from 53 random bits `k` as `k · 2^-53` (the `rand` shim's
/// `gen::<f64>()`): `k · 2^-53 < p` holds exactly when
/// `k < ceil(p · 2^53)`. Scaling by a power of two is exact, and an integer
/// is below a real `x` exactly when it is below `ceil(x)`.
#[inline]
fn threshold(p: f64) -> u64 {
    (p * DRAW_SCALE).ceil() as u64
}

/// A deterministic stochastic address stream for one benchmark on one core.
///
/// Each core gets a disjoint address region, so mixes share only the LLC
/// capacity (no accidental data sharing), matching independent SPEC processes
/// under a non-shared-memory OS model.
///
/// # Examples
///
/// ```
/// use cache_sim::AccessSource;
/// use pipo_workloads::{benchmark, ProfileSource};
///
/// let p = benchmark("gcc").expect("known");
/// let mut a = ProfileSource::new(p, 0, 1);
/// let mut b = ProfileSource::new(p, 0, 1);
/// // Same profile, core and seed: identical streams.
/// for _ in 0..100 {
///     assert_eq!(a.next_access(), b.next_access());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ProfileSource {
    profile: BenchProfile,
    rng: StdRng,
    /// First line of this core's region. The hot tier starts here; the
    /// other tiers start at fixed offsets from it.
    region: u64,
    churn_pos: u64,
    thrash_pos: u64,
    stream_pos: u64,
    llc_sets: u64,
    /// Precomputed hot-tier line distribution (`0..hot_lines`); drawn on
    /// ~90% of accesses, so the division is strength-reduced once here
    /// instead of per draw.
    hot_dist: Uniform,
    /// Precomputed think-gap distribution (`0..=2 * think_mean`); drawn on
    /// every access.
    think_dist: Uniform,
    /// [`threshold`]s of the cumulative tier probabilities `p_hot`,
    /// `p_hot + p_churn` and `p_hot + p_churn + p_thrash`: the tier pick
    /// compares a raw 53-bit draw with integers instead of converting it to
    /// `f64`.
    tier_below: [u64; 3],
    /// [`threshold`] of the write fraction.
    write_below: u64,
}

impl ProfileSource {
    /// Creates the stream for `profile` running on core `core_index` with a
    /// deterministic `seed`, assuming the paper's 4096-set LLC for the
    /// thrash tier.
    #[must_use]
    pub fn new(profile: &BenchProfile, core_index: usize, seed: u64) -> Self {
        Self::with_llc_sets(profile, core_index, seed, DEFAULT_LLC_SETS)
    }

    /// Like [`new`](Self::new) but for an LLC with `llc_sets` sets, so the
    /// thrash tier conflicts in one set on scaled-down configurations.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid or `llc_sets` is not a power of two.
    #[must_use]
    pub fn with_llc_sets(
        profile: &BenchProfile,
        core_index: usize,
        seed: u64,
        llc_sets: u64,
    ) -> Self {
        profile.assert_valid();
        assert!(
            llc_sets.is_power_of_two(),
            "LLC set count must be a power of two"
        );
        let region = (core_index as u64 + 1) * CORE_REGION_LINES;
        Self {
            profile: *profile,
            rng: StdRng::seed_from_u64(seed ^ ((core_index as u64) << 32)),
            region,
            churn_pos: 0,
            thrash_pos: 0,
            stream_pos: 0,
            llc_sets,
            hot_dist: Uniform::new(0, profile.hot_lines),
            think_dist: Uniform::new_inclusive(0, profile.think_mean * 2),
            tier_below: [
                threshold(profile.p_hot),
                threshold(profile.p_hot + profile.p_churn),
                threshold(profile.p_hot + profile.p_churn + profile.p_thrash),
            ],
            write_below: threshold(profile.write_fraction),
        }
    }

    /// The profile driving this stream.
    #[must_use]
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// The 53 random bits behind one uniform `f64` draw in `[0, 1)`.
    #[inline]
    fn draw53(&mut self) -> u64 {
        self.rng.gen::<u64>() >> 11
    }

    fn pick_line(&mut self) -> u64 {
        let r = self.draw53();
        let [hot, churn, thrash] = self.tier_below;
        let p = &self.profile;
        if r < hot {
            // Uniform re-reference within the private-cache-resident set.
            self.region + self.hot_dist.sample(&mut self.rng)
        } else if r < churn {
            // Sequential sweep over the LLC-scale set: every line is
            // periodically evicted and re-fetched (array-sweep behaviour).
            self.churn_pos = wrap_incr(self.churn_pos, p.churn_lines);
            self.region + CHURN_OFFSET_LINES + self.churn_pos
        } else if r < thrash {
            // Round-robin over same-LLC-set lines exceeding associativity:
            // classic LRU pathology where every access conflict-misses, so
            // the same lines are re-fetched from memory within a short
            // window — the benign Ping-Pong pattern.
            self.thrash_pos = wrap_incr(self.thrash_pos, p.thrash_lines);
            self.region + THRASH_OFFSET_LINES + self.thrash_pos * self.llc_sets
        } else {
            // Streaming through a footprint much larger than the LLC.
            self.stream_pos = wrap_incr(self.stream_pos, p.stream_lines);
            self.region + STREAM_OFFSET_LINES + self.stream_pos
        }
    }
}

/// `(pos + 1) % len` for a `pos` already in `0..len`, without the division.
#[inline]
fn wrap_incr(pos: u64, len: u64) -> u64 {
    let next = pos + 1;
    if next == len {
        0
    } else {
        next
    }
}

impl AccessSource for ProfileSource {
    fn next_access(&mut self) -> Option<Access> {
        let line = self.pick_line();
        let kind = if self.draw53() < self.write_below {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Uniform on 0..=2*mean keeps the mean while adding jitter.
        let think = self.think_dist.sample(&mut self.rng);
        Some(Access {
            addr: Addr(line * LINE_SIZE),
            kind,
            think_cycles: think,
        })
    }

    /// Batched generation: hoists the profile parameters out of the loop so
    /// the RNG and tier bookkeeping amortize across the whole batch. Draws
    /// happen in exactly the per-access order of `next_access` (tier pick,
    /// write draw, think draw), so the stream is bit-identical however the
    /// caller mixes the two entry points.
    fn refill(&mut self, buf: &mut Vec<Access>, max: usize) {
        let write_below = self.write_below;
        let think_dist = self.think_dist;
        for _ in 0..max {
            let line = self.pick_line();
            let kind = if self.draw53() < write_below {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let think = think_dist.sample(&mut self.rng);
            buf.push(Access {
                addr: Addr(line * LINE_SIZE),
                kind,
                think_cycles: think,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark;

    #[test]
    fn stream_is_deterministic() {
        let p = benchmark("libquantum").expect("known");
        let mut a = ProfileSource::new(p, 2, 99);
        let mut b = ProfileSource::new(p, 2, 99);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = benchmark("libquantum").expect("known");
        let mut a = ProfileSource::new(p, 0, 1);
        let mut b = ProfileSource::new(p, 0, 2);
        let same = (0..100)
            .filter(|_| a.next_access() == b.next_access())
            .count();
        assert!(same < 100, "seeds must change the stream");
    }

    #[test]
    fn distinct_cores_get_distinct_seed_stable_streams() {
        let p = benchmark("libquantum").expect("known");
        // Same seed, different cores: the per-core seed derivation
        // `seed ^ ((core_index as u64) << 32)` must decorrelate the RNG
        // streams, not just shift the address region.
        let draws = |core: usize, seed: u64| -> Vec<(u64, bool, u64)> {
            let mut src = ProfileSource::new(p, core, seed);
            let base = (core as u64 + 1) * CORE_REGION_LINES * LINE_SIZE;
            (0..200)
                .map(|_| {
                    let a = src.next_access().expect("infinite");
                    // Subtract the region base so streams are comparable.
                    (a.addr.0 - base, a.kind.is_write(), a.think_cycles)
                })
                .collect()
        };
        let core0 = draws(0, 7);
        let core1 = draws(1, 7);
        let core2 = draws(2, 7);
        assert_ne!(core0, core1, "cores 0/1 share an RNG stream");
        assert_ne!(core1, core2, "cores 1/2 share an RNG stream");
        assert_ne!(core0, core2, "cores 0/2 share an RNG stream");
        // And each stream is stable under reconstruction with the same seed.
        assert_eq!(core0, draws(0, 7));
        assert_eq!(core1, draws(1, 7));
        assert_eq!(core2, draws(2, 7));
    }

    #[test]
    fn refill_matches_next_access_stream() {
        for p in crate::spec::BENCHMARKS {
            for seed in [1234, 0, 7] {
                let mut scalar = ProfileSource::new(p, 3, seed);
                let mut batched = ProfileSource::new(p, 3, seed);
                let mut buf = Vec::new();
                // Mixed batch sizes, interleaved with scalar pulls on the
                // same source: the override must stay draw-for-draw
                // identical.
                for round in 0..50 {
                    let max = 1 + (round * 7) % 64;
                    buf.clear();
                    batched.refill(&mut buf, max);
                    assert_eq!(buf.len(), max, "infinite stream must fill the batch");
                    for access in &buf {
                        assert_eq!(
                            Some(*access),
                            scalar.next_access(),
                            "{} seed {seed}",
                            p.name
                        );
                    }
                    assert_eq!(batched.next_access(), scalar.next_access());
                }
            }
        }
    }

    /// The integer threshold decides exactly as the float comparison it
    /// replaces, on both sides of the boundary: `k < ceil(p·2^53)` equals
    /// `k·2^-53 < p` for every 53-bit draw `k` next to the threshold.
    #[test]
    fn integer_thresholds_match_float_comparisons() {
        let mut probabilities = vec![0.0, 1e-4, 1.0];
        for p in crate::spec::BENCHMARKS {
            probabilities.extend([
                p.p_hot,
                p.p_hot + p.p_churn,
                p.p_hot + p.p_churn + p.p_thrash,
                p.write_fraction,
            ]);
        }
        let unit = 1.0 / DRAW_SCALE;
        for p in probabilities {
            let c = threshold(p);
            // Draws are 53-bit: only `0..2^53` can occur.
            let draws = [c.checked_sub(1), Some(c), c.checked_add(1)];
            for k in draws.into_iter().flatten().filter(|&k| k < 1 << 53) {
                assert_eq!(k < c, (k as f64) * unit < p, "p = {p:e}, k = {k}");
            }
        }
    }

    #[test]
    fn cores_use_disjoint_regions() {
        let p = benchmark("mcf").expect("known");
        let mut a = ProfileSource::new(p, 0, 1);
        let mut b = ProfileSource::new(p, 1, 1);
        let max_a = (0..1000)
            .map(|_| a.next_access().expect("infinite").addr.0)
            .max()
            .expect("nonempty");
        let min_b = (0..1000)
            .map(|_| b.next_access().expect("infinite").addr.0)
            .min()
            .expect("nonempty");
        assert!(
            max_a < min_b,
            "core regions overlap: {max_a:#x} vs {min_b:#x}"
        );
    }

    #[test]
    fn tier_frequencies_match_probabilities() {
        let p = benchmark("libquantum").expect("known");
        let mut src = ProfileSource::new(p, 0, 7);
        let churn_base = src.region + CHURN_OFFSET_LINES;
        let hot_end = src.region + p.hot_lines;
        let churn_end = churn_base + p.churn_lines;
        let mut hot = 0u32;
        let mut churn = 0u32;
        let n = 100_000;
        for _ in 0..n {
            let line = src.next_access().expect("infinite").addr.0 / LINE_SIZE;
            if (src.region..hot_end).contains(&line) {
                hot += 1;
            } else if (churn_base..churn_end).contains(&line) {
                churn += 1;
            }
        }
        let hot_frac = f64::from(hot) / f64::from(n);
        let churn_frac = f64::from(churn) / f64::from(n);
        assert!((hot_frac - p.p_hot).abs() < 0.01, "hot {hot_frac}");
        assert!((churn_frac - p.p_churn).abs() < 0.01, "churn {churn_frac}");
    }

    #[test]
    fn write_fraction_is_respected() {
        let p = benchmark("hmmer").expect("known"); // 40% writes
        let mut src = ProfileSource::new(p, 0, 11);
        let n = 50_000;
        let writes = (0..n)
            .filter(|_| src.next_access().expect("infinite").kind.is_write())
            .count();
        let frac = writes as f64 / f64::from(n);
        assert!((frac - 0.40).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn think_cycles_average_near_mean() {
        let p = benchmark("gcc").expect("known");
        let mut src = ProfileSource::new(p, 0, 13);
        let n = 50_000u64;
        let total: u64 = (0..n)
            .map(|_| src.next_access().expect("infinite").think_cycles)
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - p.think_mean as f64).abs() < 0.2,
            "mean think {mean} vs {}",
            p.think_mean
        );
    }

    #[test]
    fn churn_lines_are_revisited() {
        let p = benchmark("libquantum").expect("known");
        let mut src = ProfileSource::new(p, 0, 5);
        let churn_base = src.region + CHURN_OFFSET_LINES;
        let churn_range = churn_base..churn_base + p.churn_lines;
        let mut first_seen = std::collections::HashMap::new();
        let mut revisits = 0u32;
        // Enough accesses for the churn sweep to wrap: churn_lines / p_churn.
        let needed = (p.churn_lines as f64 / p.p_churn * 1.2) as u64;
        for i in 0..needed {
            let line = src.next_access().expect("infinite").addr.0 / LINE_SIZE;
            if churn_range.contains(&line) && first_seen.insert(line, i).is_some() {
                revisits += 1;
            }
        }
        assert!(revisits > 0, "churn tier must revisit lines");
    }
}
