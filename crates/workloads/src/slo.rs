//! SLO computation and violation analysis (§5.3.1, Figures 13–14), plus
//! the backend-agnostic service-latency driver behind the `--backend`
//! axis.
//!
//! The paper defines the SLO of each service/record-size pair as the
//! 90th-percentile query latency of the *default Glibc on a dedicated
//! system* — "a rather strict value" — and reports the fraction of queries
//! exceeding it at each pressure level. [`run_service_latency`] produces
//! the underlying distributions on any [`BackendKind`]: sim backends
//! yield the modelled virtual-time latencies, the real backends yield
//! the repo's first wall-clock p99/p99.9 service numbers, and
//! [`run_service_slo`] pairs a run with its domain's natural baseline
//! (sim → Glibc model, real → system allocator).

use hermes_allocators::{BackendKind, BackendStats, SimEnv};
use hermes_core::HermesConfig;
use hermes_os::config::OsConfig;
use hermes_services::{build_service_on, ServiceKind};
use hermes_sim::clock::Clock;
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

/// One service-latency run on one backend.
#[derive(Debug)]
pub struct ServiceLatencyRun {
    /// The backend it ran on.
    pub backend: BackendKind,
    /// Per-query total latencies.
    pub latencies: LatencyRecorder,
    /// Median query latency.
    pub p50: SimDuration,
    /// 99th-percentile query latency.
    pub p99: SimDuration,
    /// 99.9th-percentile query latency.
    pub p999: SimDuration,
    /// The backend's statistics snapshot at the end of the run.
    pub stats: BackendStats,
}

/// Drives `queries` insert+read queries of `record_bytes` against a
/// freshly built service over `backend`, with the paper's 1-in-8 delete
/// churn. Sim backends run on a dedicated simulated node; real backends
/// on actual memory and a wall clock — the identical loop either way.
///
/// # Panics
///
/// Panics on service set-up failure or allocation failure (dedicated
/// runs do not exhaust memory at these scales).
pub fn run_service_latency(
    backend: BackendKind,
    service: ServiceKind,
    queries: usize,
    record_bytes: usize,
    seed: u64,
) -> ServiceLatencyRun {
    // The simulated substrate exists only for sim backends; real
    // backends bring their own wall clock.
    let env = matches!(backend, BackendKind::Sim(_)).then(|| {
        SimEnv::new(OsConfig {
            seed,
            ..OsConfig::paper_node()
        })
    });
    let mut svc = build_service_on(
        service,
        backend,
        env.as_ref(),
        seed,
        &HermesConfig::default(),
    )
    .expect("service set-up");
    let clock = svc.backend().clock();
    let mut rec = LatencyRecorder::new(format!("{service}-{}-{record_bytes}", backend.label()));
    for i in 0..queries {
        let q = svc.query(record_bytes).expect("dedicated query");
        rec.record(q.total());
        clock.advance(SimDuration::from_micros(5));
        if i % 8 == 7 {
            svc.delete_one();
        }
    }
    let stats = svc.backend().stats();
    let (p50, p99, p999) = (
        rec.percentile(0.50),
        rec.percentile(0.99),
        rec.percentile(0.999),
    );
    ServiceLatencyRun {
        backend,
        latencies: rec,
        p50,
        p99,
        p999,
        stats,
    }
}

/// A service run paired with its domain baseline and the derived SLO.
#[derive(Debug)]
pub struct ServiceSloReport {
    /// The run under test.
    pub run: ServiceLatencyRun,
    /// The baseline run the SLO was derived from.
    pub baseline: ServiceLatencyRun,
    /// The derived SLO (baseline p90).
    pub slo: Slo,
    /// Violation percentage of the run against the SLO.
    pub violation_pct: f64,
}

/// Runs `backend` and its domain's natural baseline — the Glibc model
/// for sims, the system allocator for real backends — and reports SLO
/// violations the way Figures 13/14 do.
pub fn run_service_slo(
    backend: BackendKind,
    service: ServiceKind,
    queries: usize,
    record_bytes: usize,
    seed: u64,
) -> ServiceSloReport {
    let baseline_kind = match backend {
        BackendKind::Sim(_) => BackendKind::Sim(hermes_allocators::AllocatorKind::Glibc),
        _ => BackendKind::RealSystem,
    };
    let mut baseline = run_service_latency(baseline_kind, service, queries, record_bytes, seed);
    let slo = Slo::from_baseline(&mut baseline.latencies);
    let run = run_service_latency(backend, service, queries, record_bytes, seed);
    let violation_pct = slo.violation_pct(&run.latencies);
    ServiceSloReport {
        run,
        baseline,
        slo,
        violation_pct,
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

    #[test]
    fn service_latency_runs_on_sim_and_real() {
        use hermes_allocators::{AllocatorKind, BackendKind};
        use hermes_services::ServiceKind;
        let sim = run_service_latency(
            BackendKind::Sim(AllocatorKind::Hermes),
            ServiceKind::Redis,
            200,
            1024,
            7,
        );
        assert!(sim.p99 >= sim.p50);
        assert!(sim.p999 >= sim.p99);
        let real = run_service_latency(BackendKind::RealSystem, ServiceKind::Redis, 200, 1024, 7);
        assert!(real.p99 > SimDuration::ZERO, "wall-clock p99 measured");
    }

    #[test]
    fn service_slo_pairs_domain_baselines() {
        use hermes_allocators::{AllocatorKind, BackendKind};
        use hermes_services::ServiceKind;
        let report = run_service_slo(
            BackendKind::Sim(AllocatorKind::Hermes),
            ServiceKind::Rocksdb,
            200,
            1024,
            7,
        );
        assert_eq!(
            report.baseline.backend,
            BackendKind::Sim(AllocatorKind::Glibc)
        );
        assert!(report.slo.threshold > SimDuration::ZERO);
        assert!((0.0..=100.0).contains(&report.violation_pct));
    }
}
