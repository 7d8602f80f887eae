//! Co-location experiments (§5.3): a latency-critical service sharing the
//! node with batch jobs at a configurable memory-pressure level.

use hermes_allocators::{AllocatorKind, MonitorDaemonSim, SimEnv};
use hermes_batch::{BatchLoad, BatchPolicy, JobSpec};
use hermes_core::HermesConfig;
use hermes_os::prelude::*;
use hermes_services::{build_service_on, QueryLatency, ServiceKind};
use hermes_sim::clock::Clock;
use hermes_sim::prelude::*;

/// Configuration of one co-location run.
#[derive(Debug, Clone)]
pub struct ColocationConfig {
    /// Service under test.
    pub service: ServiceKind,
    /// Allocator of the service.
    pub allocator: AllocatorKind,
    /// Record size (1 KB "small" or 200 KB "large").
    pub record_bytes: usize,
    /// Memory-pressure level: batch logical memory as a fraction of node
    /// RAM (0.0 = dedicated, 0.5–1.5 in the paper).
    pub pressure_level: f64,
    /// Number of queries to issue (the paper inserts 2 GB; scale down).
    pub queries: usize,
    /// Batch policy (Default for Figures 9–14; varied for Table 1).
    pub policy: BatchPolicy,
    /// Seed.
    pub seed: u64,
    /// Hermes knobs.
    pub hermes: HermesConfig,
}

impl ColocationConfig {
    /// The paper's set-up for a service/allocator/record/pressure cell,
    /// with a query count scaled for quick regeneration.
    pub fn paper(
        service: ServiceKind,
        allocator: AllocatorKind,
        record_bytes: usize,
        pressure_level: f64,
    ) -> Self {
        let queries = if record_bytes >= 64 * 1024 {
            4_000
        } else {
            20_000
        };
        ColocationConfig {
            service,
            allocator,
            record_bytes,
            pressure_level,
            queries,
            policy: if allocator == AllocatorKind::Hermes {
                BatchPolicy::Hermes
            } else {
                BatchPolicy::Default
            },
            seed: 42,
            hermes: HermesConfig::default(),
        }
    }
}

/// Result of one co-location run.
#[derive(Debug)]
pub struct ColocationResult {
    /// Total (insert+read) query latencies.
    pub totals: LatencyRecorder,
    /// Per-query breakdowns (for Figure 2).
    pub breakdown: Vec<QueryLatency>,
    /// Mean node memory utilisation over the run.
    pub utilisation: f64,
    /// OS counters.
    pub os_stats: OsStats,
}

/// Runs one co-location experiment.
///
/// # Panics
///
/// Panics if the set-up fails (indicates a configuration error).
pub fn run_colocation(cfg: &ColocationConfig) -> ColocationResult {
    let env = SimEnv::new(OsConfig {
        seed: cfg.seed,
        ..OsConfig::paper_node()
    });
    let mut service = build_service_on(cfg.service, cfg.allocator, &env, cfg.seed, &cfg.hermes)
        .expect("service set-up");
    let jobs = if cfg.pressure_level > 0.0 { 3 } else { 0 };
    let mut batch = BatchLoad::new(
        &mut env.os(),
        JobSpec::default(),
        cfg.policy,
        jobs,
        cfg.pressure_level,
        cfg.seed,
    )
    .expect("batch set-up");
    let daemon_on = cfg.allocator == AllocatorKind::Hermes && cfg.hermes.proactive_reclaim;
    let mut daemon = if daemon_on {
        MonitorDaemonSim::new(&cfg.hermes)
    } else {
        MonitorDaemonSim::disabled()
    };

    // Warm-up: let the batch jobs ramp to their working sets.
    let warmup = SimTime::from_secs(90);
    while env.now() < warmup {
        env.clock.advance(SimDuration::from_millis(500));
        batch.advance_to(env.now(), &mut env.os());
        daemon.advance_to(env.now(), &mut env.os());
        service.advance();
    }

    let mut totals = LatencyRecorder::new(format!(
        "{}-{}-{}-{:.0}%",
        cfg.service,
        cfg.allocator,
        cfg.record_bytes,
        cfg.pressure_level * 100.0
    ));
    let mut breakdown = Vec::with_capacity(cfg.queries);
    let mut rng = DetRng::new(cfg.seed, "colo-gap");
    for i in 0..cfg.queries {
        batch.advance_to(env.now(), &mut env.os());
        daemon.advance_to(env.now(), &mut env.os());
        let q = match service.query(cfg.record_bytes) {
            Ok(q) => q,
            Err(_) => {
                // Memory exhausted (swap full): the kernel OOM-kills the
                // newest batch container and the query retries after the
                // stall.
                let stall = SimDuration::from_millis(40);
                env.clock.advance(stall);
                batch.oom_kill_newest(env.now(), &mut env.os());
                match service.query(cfg.record_bytes) {
                    Ok(mut q) => {
                        q.insert += stall;
                        q
                    }
                    Err(_) => {
                        let q = QueryLatency {
                            insert: stall * 3,
                            read: SimDuration::ZERO,
                        };
                        env.clock.advance(q.total());
                        q
                    }
                }
            }
        };
        totals.record(q.total());
        breakdown.push(q);
        env.clock
            .advance(SimDuration::from_micros(5 + rng.range(0, 10)));
        // Churn: bounded data set, like the paper's insert/read/delete mix.
        if i % 8 == 7 {
            service.delete_one();
        }
    }

    let now = env.now();
    let os = env.os();
    ColocationResult {
        totals,
        breakdown,
        utilisation: os.mean_utilisation(now),
        os_stats: os.stats(),
    }
}

/// The pressure levels of Figures 9, 10, 13 and 14.
pub const PRESSURE_LEVELS: [f64; 6] = [0.0, 0.5, 0.75, 1.0, 1.25, 1.5];

/// Figure 2 helper: insert-latency share around a given percentile of the
/// total-latency distribution.
pub fn insert_share_at(breakdown: &[QueryLatency], q: f64) -> f64 {
    if breakdown.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<&QueryLatency> = breakdown.iter().collect();
    sorted.sort_by_key(|b| b.total());
    let n = sorted.len();
    let centre = ((q * n as f64) as usize).min(n - 1);
    let half = (n / 200).max(2);
    let lo = centre.saturating_sub(half);
    let hi = (centre + half).min(n - 1);
    let window = &sorted[lo..=hi];
    window.iter().map(|b| b.insert_share()).sum::<f64>() / window.len() as f64
}

/// Mean insert share (the "avg." bar of Figure 2).
pub fn insert_share_mean(breakdown: &[QueryLatency]) -> f64 {
    if breakdown.is_empty() {
        return 0.0;
    }
    breakdown.iter().map(|b| b.insert_share()).sum::<f64>() / breakdown.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(
        service: ServiceKind,
        alloc: AllocatorKind,
        level: f64,
        record: usize,
    ) -> ColocationResult {
        let mut cfg = ColocationConfig::paper(service, alloc, record, level);
        cfg.queries = if record >= 64 * 1024 { 300 } else { 1_500 };
        run_colocation(&cfg)
    }

    #[test]
    fn dedicated_rocksdb_small_magnitude() {
        let mut r = quick(ServiceKind::Rocksdb, AllocatorKind::Glibc, 0.0, 1024);
        let s = r.totals.summary();
        // Paper's SLO scale: p90 = 17.6 us.
        assert!((3_000..80_000).contains(&s.p90.as_nanos()), "p90 {}", s.p90);
    }

    #[test]
    fn pressure_raises_latency() {
        let mut ded = quick(ServiceKind::Rocksdb, AllocatorKind::Glibc, 0.0, 1024);
        let mut hot = quick(ServiceKind::Rocksdb, AllocatorKind::Glibc, 1.5, 1024);
        let d = ded.totals.summary();
        let h = hot.totals.summary();
        assert!(
            h.p90 >= d.p90,
            "150% pressure p90 {} vs dedicated {}",
            h.p90,
            d.p90
        );
    }

    #[test]
    fn hermes_helps_under_full_pressure() {
        let mut g = quick(ServiceKind::Rocksdb, AllocatorKind::Glibc, 1.0, 200 * 1024);
        let mut h = quick(ServiceKind::Rocksdb, AllocatorKind::Hermes, 1.0, 200 * 1024);
        let gs = g.totals.summary();
        let hs = h.totals.summary();
        assert!(
            hs.p90 < gs.p90,
            "hermes p90 {} vs glibc p90 {}",
            hs.p90,
            gs.p90
        );
    }

    #[test]
    fn utilisation_grows_with_pressure() {
        let lo = quick(ServiceKind::Redis, AllocatorKind::Glibc, 0.5, 1024);
        let hi = quick(ServiceKind::Redis, AllocatorKind::Glibc, 1.25, 1024);
        assert!(hi.utilisation > lo.utilisation);
        assert!(hi.utilisation > 0.5, "utilisation {}", hi.utilisation);
    }

    #[test]
    fn insert_share_helpers() {
        let b = vec![
            QueryLatency {
                insert: SimDuration::from_micros(90),
                read: SimDuration::from_micros(10),
            },
            QueryLatency {
                insert: SimDuration::from_micros(50),
                read: SimDuration::from_micros(50),
            },
        ];
        let mean = insert_share_mean(&b);
        assert!((mean - 70.0).abs() < 1e-9);
        assert!(insert_share_at(&b, 0.99) > 0.0);
        assert_eq!(insert_share_mean(&[]), 0.0);
    }
}
