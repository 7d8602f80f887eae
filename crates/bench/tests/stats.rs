//! Integration tests for the stats layer: bootstrap intervals against
//! synthetic distributions with known quantiles, and sign correctness
//! of the palindrome pairing under injected host drift.

use hermes_bench::stats::{self, SplitMix64};

/// Draw `n` samples from Uniform(lo, hi) with a seeded generator.
fn uniform(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| lo + (hi - lo) * (rng.next_u64() as f64 / u64::MAX as f64))
        .collect()
}

#[test]
fn bootstrap_median_ci_covers_uniform_median() {
    // Uniform(0, 100): true median 50. With 200 samples the 95% CI of
    // the sample median must bracket it and be usefully narrow.
    let xs = uniform(200, 0.0, 100.0, 11);
    let (m, ci) = stats::median_ci(&xs);
    assert!(ci.lo <= m && m <= ci.hi, "point inside its own CI");
    assert!(
        ci.lo <= 50.0 && 50.0 <= ci.hi,
        "CI [{}, {}] brackets the true median 50",
        ci.lo,
        ci.hi
    );
    assert!(
        ci.hi - ci.lo < 30.0,
        "CI width {} is informative",
        ci.hi - ci.lo
    );
}

#[test]
fn bootstrap_p99_ci_covers_known_tail() {
    // An exact 1..=1000 grid: the p99 nearest-rank quantile is 991.
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let ci = stats::bootstrap_ci(&xs, 0.99, 0.95, 500, 3);
    let point = stats::quantile_sorted(&xs, 0.99);
    assert_eq!(point, 991.0);
    assert!(ci.lo <= point && point <= ci.hi);
    assert!(
        ci.lo >= 950.0 && ci.hi <= 1000.0,
        "tail CI [{}, {}]",
        ci.lo,
        ci.hi
    );
}

#[test]
fn bootstrap_ci_stays_within_sample_range_and_orders() {
    // Bounds hold across assorted shapes: lo <= median <= hi, and both
    // ends inside [min, max] — the resampled statistic cannot leave the
    // sample's support.
    for seed in 1..=20u64 {
        let xs = uniform(31, -5.0, 5.0, seed * 7919);
        let (m, ci) = stats::median_ci(&xs);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(ci.lo <= ci.hi);
        assert!(ci.lo <= m && m <= ci.hi);
        assert!(min <= ci.lo && ci.hi <= max);
    }
}

#[test]
fn bootstrap_is_deterministic_for_a_seed() {
    let xs = uniform(64, 10.0, 20.0, 5);
    let a = stats::bootstrap_ci(&xs, 0.5, 0.95, 300, 42);
    let b = stats::bootstrap_ci(&xs, 0.5, 0.95, 300, 42);
    assert_eq!((a.lo, a.hi), (b.lo, b.hi));
    let c = stats::bootstrap_ci(&xs, 0.5, 0.95, 300, 43);
    assert!(
        (a.lo, a.hi) != (c.lo, c.hi),
        "different seed resamples differently"
    );
}

#[test]
fn paired_ratios_cancel_linear_drift() {
    // Config 1 is truly 2x config 0, but the host slows down linearly
    // over the session: each successive run is multiplied by a growing
    // penalty. The palindrome's geometric pairing must still recover a
    // ratio near 2.0, with the right sign (config 1 faster), while a
    // naive sequential comparison of the same runs would be biased.
    let mut tick = 0.0f64;
    let p = stats::run_palindrome(2, 5, |cfg, _rep, _pass| {
        tick += 1.0;
        let drift = 1.0 + 0.03 * tick; // 3% slowdown per run
        let base = if cfg == 1 { 2.0 } else { 1.0 };
        base / drift // a throughput: higher is better, drift hurts
    });
    let (r, ci) = stats::median_ci(&p.ratio_samples(1, 0));
    assert!((r - 2.0).abs() < 0.01, "drift-cancelled ratio {r} near 2.0");
    assert!(ci.lo > 1.5, "sign is unambiguous: CI floor {}", ci.lo);
    // And the inverse comparison points the other way.
    let inv = stats::median(&p.ratio_samples(0, 1));
    assert!((inv - 0.5).abs() < 0.01, "inverse ratio {inv} near 0.5");
}

#[test]
fn palindrome_samples_expose_both_passes() {
    // Config 1 is 2x config 0 on the forward pass and 8x on the reverse
    // pass: each paired ratio is the geometric mean of both passes, 4x,
    // so neither pass alone decides it.
    let p = stats::run_palindrome(2, 4, |cfg, rep, pass| {
        let base = (rep + 1) as f64;
        match (cfg, pass) {
            (0, _) => base,
            (_, 0) => 2.0 * base,
            _ => 8.0 * base,
        }
    });
    assert_eq!(p.reps(), 4);
    let ratios = p.ratio_samples(1, 0);
    assert_eq!(ratios.len(), 4, "one paired ratio per repetition");
    assert!(
        ratios.iter().all(|&r| (r - 4.0).abs() < 1e-12),
        "{ratios:?}"
    );
}
