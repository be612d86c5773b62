//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between order
/// statistics; `0.0` for no samples.
#[must_use]
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `part / whole`, or `0.0` when nothing happened.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The time of one pass with each of its parts at its 90th-percentile pass:
/// the sum over parts of each part's 0.9-quantile across passes
/// (`passes[p][part]`).
///
/// On a shared 2-vCPU Xeon VM, other tenants kept the benchmark in
/// a contended state most of the time, broken by quiet moments of seconds
/// in which the same part runs up to 2× faster. How many quiet moments a
/// run meets varies widely, so when each part has only a few dozen samples
/// (`fig8_sweep`, `filter_stream`) minima and medians varied with it; the
/// contended state itself repeated to a few %, and the 0.9-quantile reads
/// it while ignoring a rare stall above it.
#[must_use]
pub fn sum_of_p90(passes: &[Vec<f64>]) -> f64 {
    sum_of_quantile(passes, 0.9)
}

/// The time of one pass with each of its parts at its fastest pass: the sum
/// over parts of each part's minimum across passes (`passes[p][part]`).
///
/// For parts with about a thousand short samples a run (`occupancy_attack`).
/// The host's contended state is not one speed but several, which change
/// every few seconds to minutes, so a 0.9-quantile reads whichever slow
/// state a run met: on `occupancy_attack` it spread about 30 % over ten
/// runs. Interference only ever adds time, and a run of 40–80 ms parts
/// meets an uncontended moment even in a mostly contended minute, so the
/// minimum reads the program's own speed.
#[must_use]
pub fn sum_of_min(passes: &[Vec<f64>]) -> f64 {
    sum_of_quantile(passes, 0.0)
}

fn sum_of_quantile(passes: &[Vec<f64>], q: f64) -> f64 {
    let parts = passes.first().map_or(0, Vec::len);
    (0..parts)
        .map(|part| {
            let mut times: Vec<f64> = passes.iter().map(|p| p[part]).collect();
            quantile(&mut times, q)
        })
        .sum()
}
