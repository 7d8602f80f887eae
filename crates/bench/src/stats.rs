//! Statistics for the bench tables: seeded bootstrap confidence
//! intervals and the generalized palindrome paired-run harness.
//!
//! A printed median is a claim about a distribution, so the tables show
//! it with a percentile-bootstrap confidence interval computed here.
//!
//! # Bootstrap
//!
//! [`bootstrap_ci`] is the plain percentile bootstrap: resample the
//! sample vector with replacement `resamples` times, compute the
//! statistic on each resample, and report the `(1-level)/2` and
//! `(1+level)/2` quantiles of the resampled statistics. Resampling is
//! driven by a splitmix64 generator seeded explicitly, so a given
//! `(samples, seed)` pair always yields the same interval — reruns of a
//! bench are diffable line-for-line.
//!
//! # Pairing
//!
//! [`run_palindrome`] generalizes the A-B-C-C-B-A interleaving the
//! contention bench hand-rolled: per repetition every configuration runs
//! twice, once in forward and once in reverse order, so each compared
//! pair samples adjacent host states and the geometric mean of the two
//! orderings cancels slow drift (burst-credit grants, thermal ramps) out
//! of the paired ratios. SpeedMalloc's per-configuration paired runs are
//! the model.

/// Default resample count for bootstrap intervals: enough for stable
/// 2.5 %/97.5 % quantiles, cheap enough to run per series entry.
pub const BOOTSTRAP_RESAMPLES: usize = 1000;

/// Default confidence level for reported intervals.
pub const CI_LEVEL: f64 = 0.95;

/// Fixed resampling seed used by the bench writers, so a re-run over
/// identical samples reproduces identical `ci_lo`/`ci_hi` fields.
pub const DEFAULT_SEED: u64 = 0x5EED_B007;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// splitmix64: the seeded, dependency-free resampling driver. Passes
/// through every 64-bit state exactly once; good enough for index
/// selection by a wide margin.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (n > 0) via the widening-multiply trick.
    pub fn index(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Quantile of an already **sorted** slice by the nearest-rank method the
/// recorders use (`len * q`, clamped). Empty input returns NaN.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// Median of an arbitrary slice (copies and sorts). Empty input returns
/// NaN.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quantile_sorted(&v, 0.5)
}

/// Percentile-bootstrap confidence interval for the `q`-quantile of the
/// distribution behind `samples`, at confidence `level` (e.g. 0.95),
/// using `resamples` seeded resamples.
///
/// Degenerate inputs degrade gracefully: an empty sample vector yields a
/// NaN interval; a single sample yields the point interval.
pub fn bootstrap_ci(samples: &[f64], q: f64, level: f64, resamples: usize, seed: u64) -> Ci {
    if samples.is_empty() {
        return Ci {
            lo: f64::NAN,
            hi: f64::NAN,
        };
    }
    if samples.len() == 1 {
        return Ci {
            lo: samples[0],
            hi: samples[0],
        };
    }
    let mut rng = SplitMix64::new(seed);
    let mut stats = Vec::with_capacity(resamples);
    let mut resample = vec![0.0f64; samples.len()];
    for _ in 0..resamples.max(1) {
        for slot in resample.iter_mut() {
            *slot = samples[rng.index(samples.len())];
        }
        resample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        stats.push(quantile_sorted(&resample, q));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let alpha = (1.0 - level) / 2.0;
    Ci {
        lo: quantile_sorted(&stats, alpha),
        hi: quantile_sorted(&stats, 1.0 - alpha),
    }
}

/// Median plus its bootstrap interval at the default level / resample
/// count, with the writers' fixed seed.
pub fn median_ci(samples: &[f64]) -> (f64, Ci) {
    (
        median(samples),
        bootstrap_ci(samples, 0.5, CI_LEVEL, BOOTSTRAP_RESAMPLES, DEFAULT_SEED),
    )
}

/// Per-repetition measurements of `n` configurations run in palindrome
/// order, as produced by [`run_palindrome`].
#[derive(Debug, Clone)]
pub struct Palindrome {
    /// `first[cfg][rep]`: the forward-pass metric.
    first: Vec<Vec<f64>>,
    /// `second[cfg][rep]`: the reverse-pass metric.
    second: Vec<Vec<f64>>,
}

/// Runs `n` configurations for `reps` repetitions in palindrome order —
/// per repetition, configs `0..n` forward then `n..0` reverse — calling
/// `f(config, rep, pass)` for each run and collecting its returned
/// metric. `pass` is 0 on the forward leg, 1 on the reverse leg.
///
/// The metric must be positive for the geometric pairing in
/// [`Palindrome::ratio_samples`] to make sense (throughputs and
/// latencies both are). Side data (full per-run records) is the caller's
/// to stash inside `f`.
pub fn run_palindrome<F>(n: usize, reps: usize, mut f: F) -> Palindrome
where
    F: FnMut(usize, usize, usize) -> f64,
{
    let mut first = vec![Vec::with_capacity(reps); n];
    let mut second = vec![Vec::with_capacity(reps); n];
    for rep in 0..reps {
        for (cfg, cell) in first.iter_mut().enumerate() {
            cell.push(f(cfg, rep, 0));
        }
        for (cfg, cell) in second.iter_mut().enumerate().rev() {
            cell.push(f(cfg, rep, 1));
        }
    }
    Palindrome { first, second }
}

impl Palindrome {
    /// Number of repetitions.
    pub fn reps(&self) -> usize {
        self.first.first().map_or(0, Vec::len)
    }

    /// Drift-cancelled paired ratios `num / den`, one per repetition:
    /// the geometric mean of the forward-pass and reverse-pass ratios,
    /// so a host-state drift that helps whichever config ran later is
    /// cancelled between the two orderings.
    pub fn ratio_samples(&self, num: usize, den: usize) -> Vec<f64> {
        (0..self.reps())
            .map(|r| {
                ((self.first[num][r] / self.first[den][r])
                    * (self.second[num][r] / self.second[den][r]))
                    .sqrt()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            let i = a.index(13);
            assert_eq!(i, b.index(13));
            assert!(i < 13);
        }
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn palindrome_orders_runs_and_pairs_ratios() {
        // Config 1 is deterministically 2x config 0; ratios must say so
        // exactly, in both orderings.
        let mut order = Vec::new();
        let p = run_palindrome(2, 3, |cfg, rep, pass| {
            order.push((cfg, rep, pass));
            if cfg == 1 {
                2.0
            } else {
                1.0
            }
        });
        assert_eq!(
            order[..4],
            [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],
            "A-B-B-A per repetition"
        );
        assert_eq!(p.reps(), 3);
        let (r, ci) = median_ci(&p.ratio_samples(1, 0));
        assert_eq!(r, 2.0);
        assert_eq!((ci.lo, ci.hi), (2.0, 2.0));
        let inv = p.ratio_samples(0, 1);
        assert!(inv.iter().all(|&x| (x - 0.5).abs() < 1e-12));
    }
}
