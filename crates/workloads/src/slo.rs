//! SLO computation and violation analysis (§5.3.1, Figures 13–14).
//!
//! The paper defines the SLO of each service/record-size pair as the
//! 90th-percentile query latency of the *default Glibc on a dedicated
//! system* — "a rather strict value" — and reports the fraction of queries
//! exceeding it at each pressure level. The latency distributions come
//! from the co-location sweep ([`crate::colocation`]), whose 0 % cell of
//! the Glibc model is the baseline.

use hermes_sim::stats::LatencyRecorder;
use hermes_sim::time::SimDuration;

/// An SLO threshold derived from a baseline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slo {
    /// The latency bound.
    pub threshold: SimDuration,
}

impl Slo {
    /// Derives the SLO from the Glibc dedicated-system baseline.
    pub fn from_baseline(baseline: &mut LatencyRecorder) -> Slo {
        Slo {
            threshold: baseline.percentile(0.90),
        }
    }

    /// Violation ratio of a run against this SLO, in percent.
    pub fn violation_pct(&self, run: &LatencyRecorder) -> f64 {
        run.violation_ratio(self.threshold) * 100.0
    }
}

/// Relative reduction of SLO violations (the "up to 84.3 %" claims):
/// `(baseline - ours) / baseline`, in percent. Zero when the baseline has
/// no violations.
pub fn violation_reduction_pct(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (1.0 - ours / baseline) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(values_us: &[u64]) -> LatencyRecorder {
        let mut r = LatencyRecorder::new("t");
        for &v in values_us {
            r.record(SimDuration::from_micros(v));
        }
        r
    }

    #[test]
    fn slo_is_baseline_p90() {
        let mut base = rec(&(1..=100).collect::<Vec<_>>());
        let slo = Slo::from_baseline(&mut base);
        assert_eq!(slo.threshold, SimDuration::from_micros(90));
    }

    #[test]
    fn violation_ratio_counts_exceeders() {
        let mut base = rec(&(1..=100).collect::<Vec<_>>());
        let slo = Slo::from_baseline(&mut base);
        let run = rec(&[10, 50, 91, 95, 200]);
        assert!((slo.violation_pct(&run) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_math() {
        assert!((violation_reduction_pct(10.0, 60.0) - 83.33).abs() < 0.01);
        assert_eq!(violation_reduction_pct(5.0, 0.0), 0.0);
        assert!(violation_reduction_pct(60.0, 10.0) < 0.0);
    }
}
