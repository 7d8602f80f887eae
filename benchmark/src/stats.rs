//! Percentiles under the ten-samples-beyond rule, medians over trials,
//! quartiles as Python's `statistics.quantiles(n=4)` computes them, and
//! the bound comparison used by `repeat.sh`.

/// The percentiles a latency metric may be reported at, highest first.
pub const LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// 1-based rank of percentile `p` among `n` samples (nearest rank).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `p` has at least ten samples beyond it among `n`. The median
/// is always reportable.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && (p <= 0.5 || n - rank(n, p) >= 10)
}

/// One reported percentile: the value, the percentile actually used
/// (lower than asked when too few samples lie beyond it) and the sample
/// count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    pub value: f64,
    pub used: f64,
    pub n: usize,
}

/// Percentile `want` of ascending `sorted`, stepping down [`LADDER`]
/// until ten samples lie beyond it. Zero samples report 0.
pub fn pctl(sorted: &[u32], want: f64) -> Pctl {
    let n = sorted.len();
    if n == 0 {
        return Pctl {
            value: 0.0,
            used: want,
            n: 0,
        };
    }
    let used = std::iter::once(want)
        .chain(LADDER.into_iter().filter(|&p| p < want))
        .find(|&p| supported(n, p))
        .unwrap_or(0.5);
    Pctl {
        value: sorted[rank(n, used) - 1] as f64,
        used,
        n,
    }
}

/// Sorts a copy and reports the asked percentiles.
pub fn pctls<const K: usize>(samples: &[u32], want: [f64; K]) -> [Pctl; K] {
    let mut v = samples.to_vec();
    v.sort_unstable();
    want.map(|p| pctl(&v, p))
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`, which the acceptance check uses.
/// Fewer than two values repeat the single value (or 0).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let q = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Interquartile distance as a share of the median (the run-to-run
/// spread the acceptance check compares with a third of the bound).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By what share of `base` the value `new` is worse (negative: better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 10_000 samples: rank(p99.9) = 9_990, exactly 10 beyond.
        assert!(supported(10_000, 0.999));
        assert!(!supported(9_999, 0.999));
        assert!(supported(1_000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(1, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn percentile_steps_down_the_ladder() {
        let v: Vec<u32> = (1..=2_000).collect();
        let p = pctl(&v, 0.999);
        assert_eq!(p.used, 0.99, "p99.9 has only 2 beyond, p99 has 20");
        assert_eq!(p.value, 1_980.0);
        assert_eq!(p.n, 2_000);
        let full: Vec<u32> = (1..=20_000).collect();
        let p = pctl(&full, 0.999);
        assert_eq!(p.used, 0.999);
        assert_eq!(p.value, 19_980.0);
        assert_eq!(pctl(&[], 0.99).value, 0.0);
        let few = pctl(&[5, 6, 7], 0.99);
        assert_eq!((few.used, few.value), (0.5, 6.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((m - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3,1,4,1,5], n=4) == [1.0, 3.0, 4.5]
        let (q1, m, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((q1, m, q3), (1.0, 3.0, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_comparison_follows_the_direction() {
        assert!((worse_by(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 100.0, 90.0) < 0.0);
        assert!(worse_by(Better::Higher, 100.0, 110.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }
}
