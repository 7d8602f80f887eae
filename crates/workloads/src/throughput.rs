//! Batch-job throughput under co-location (Table 1, §5.3.2): 24 hours of
//! three concurrent KMeans-like jobs next to a churning KV service, under
//! the Default / Hermes / Killing policies plus the Dedicated baseline.

use hermes_allocators::{AllocatorKind, MonitorDaemonSim, SimEnv};
use hermes_batch::{BatchLoad, BatchPolicy, JobSpec};
use hermes_core::HermesConfig;
use hermes_os::prelude::*;
use hermes_services::{build_service_on, ServiceKind};
use hermes_sim::clock::Clock;
use hermes_sim::prelude::*;

/// The four Table 1 scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThroughputScenario {
    /// Default GNU/Linux stack co-location.
    Default,
    /// Co-location with Hermes (allocator + proactive reclamation).
    Hermes,
    /// Kill the newest container when memory runs short.
    Killing,
    /// No batch jobs at all.
    Dedicated,
}

impl ThroughputScenario {
    /// All scenarios in the paper's column order.
    pub const ALL: [ThroughputScenario; 4] = [
        ThroughputScenario::Default,
        ThroughputScenario::Hermes,
        ThroughputScenario::Killing,
        ThroughputScenario::Dedicated,
    ];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            ThroughputScenario::Default => "Default",
            ThroughputScenario::Hermes => "Hermes",
            ThroughputScenario::Killing => "Killing",
            ThroughputScenario::Dedicated => "Dedicated",
        }
    }
}

/// Configuration for one Table 1 cell.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Which service shares the node.
    pub service: ServiceKind,
    /// Scenario/policy.
    pub scenario: ThroughputScenario,
    /// Simulated duration (24 h in the paper).
    pub duration: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl ThroughputConfig {
    /// The paper's 24-hour cell.
    pub fn paper(service: ServiceKind, scenario: ThroughputScenario) -> Self {
        ThroughputConfig {
            service,
            scenario,
            duration: SimDuration::from_secs(24 * 3600),
            seed: 42,
        }
    }
}

/// One Table 1 cell result.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Batch jobs finished within the duration.
    pub jobs_completed: u64,
    /// Containers killed (Killing policy only).
    pub kills: u64,
    /// Mean node memory utilisation (the paper reports ≈98.5 % for
    /// Hermes co-location).
    pub utilisation: f64,
}

/// Runs one Table 1 cell.
///
/// # Panics
///
/// Panics on set-up failure.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputResult {
    let env = SimEnv::new(OsConfig {
        seed: cfg.seed,
        ..OsConfig::paper_node()
    });
    let (alloc_kind, policy, jobs) = match cfg.scenario {
        ThroughputScenario::Default => (AllocatorKind::Glibc, BatchPolicy::Default, 3),
        ThroughputScenario::Hermes => (AllocatorKind::Hermes, BatchPolicy::Hermes, 3),
        ThroughputScenario::Killing => (AllocatorKind::Glibc, BatchPolicy::Killing, 3),
        ThroughputScenario::Dedicated => (AllocatorKind::Glibc, BatchPolicy::Default, 0),
    };
    let mut service = build_service_on(
        cfg.service,
        alloc_kind,
        &env,
        cfg.seed,
        &HermesConfig::default(),
    )
    .expect("service set-up");
    // Each KMeans job requests ~40 GB over 8 containers; three concurrent
    // jobs give the paper's 100 % pressure level together with the
    // service's 20-40 GB working set.
    let level = 3.0 * (40.0 / 128.0) * (cfg.service.redis_memory_factor());
    let mut batch = BatchLoad::new(
        &mut env.os(),
        JobSpec::default(),
        policy,
        jobs,
        level,
        cfg.seed,
    )
    .expect("batch set-up");
    let mut daemon = MonitorDaemonSim::new(cfg.scenario == ThroughputScenario::Hermes);

    // Service preload: ~20 GB working set, grown with large records.
    let preload_target: usize = 20 << 30;
    while service.stored_bytes() < preload_target {
        match service.query(8 << 20) {
            Ok(q) => {
                // Preload at >= 1 ms per insert regardless of query cost.
                let t = q.total();
                if t < SimDuration::from_millis(1) {
                    env.clock.advance(SimDuration::from_millis(1) - t);
                }
            }
            Err(_) => {
                batch.oom_kill_newest(env.now(), &mut env.os());
                env.clock.advance(SimDuration::from_millis(50));
            }
        }
        batch.advance_to(env.now(), &mut env.os());
    }

    // Main phase: service churn (insert/read/delete, 20–40 GB) while the
    // batch fleet runs for the full duration.
    let end = env.now() + cfg.duration;
    let mut rng = DetRng::new(cfg.seed, "throughput");
    let tick = SimDuration::from_millis(500);
    let mut stored_cap: usize = 40 << 30;
    while env.now() < end {
        env.clock.advance(tick);
        batch.advance_to(env.now(), &mut env.os());
        daemon.advance_to(env.now(), &mut env.os());
        // A thinned sample of service queries keeps the KV store churning
        // without simulating billions of requests.
        if service.query(1 << 20).is_err() {
            batch.oom_kill_newest(env.now(), &mut env.os());
        }
        if service.stored_bytes() > stored_cap {
            for _ in 0..64 {
                service.delete_one();
            }
        }
        if rng.chance(0.01) {
            // Occasionally vary the cap within 20-40 GB.
            stored_cap = (20 << 30) + (rng.range(0, 21) as usize) * (1 << 30);
        }
    }

    let now = env.now();
    let os = env.os();
    ThroughputResult {
        jobs_completed: batch.completed_jobs(),
        kills: batch.kills(),
        utilisation: os.mean_utilisation(now),
    }
}

/// Memory factor: Redis keeps everything in DRAM, so batch jobs get less
/// and oversubscribe more (the paper's explanation for Redis' lower batch
/// throughput).
trait RedisMemoryFactor {
    fn redis_memory_factor(self) -> f64;
}

impl RedisMemoryFactor for ServiceKind {
    fn redis_memory_factor(self) -> f64 {
        match self {
            ServiceKind::Redis => 1.15,
            ServiceKind::Rocksdb => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(service: ServiceKind, scenario: ThroughputScenario) -> ThroughputResult {
        run_throughput(&ThroughputConfig {
            service,
            scenario,
            duration: SimDuration::from_secs(3600),
            seed: 7,
        })
    }

    #[test]
    fn dedicated_runs_no_jobs() {
        let r = quick(ServiceKind::Rocksdb, ThroughputScenario::Dedicated);
        assert_eq!(r.jobs_completed, 0);
        assert_eq!(r.kills, 0);
    }

    #[test]
    fn table1_ordering_default_vs_killing() {
        let def = quick(ServiceKind::Rocksdb, ThroughputScenario::Default);
        let kill = quick(ServiceKind::Rocksdb, ThroughputScenario::Killing);
        assert!(def.jobs_completed > 0);
        assert!(
            kill.jobs_completed <= def.jobs_completed,
            "killing {} vs default {}",
            kill.jobs_completed,
            def.jobs_completed
        );
    }

    #[test]
    fn hermes_utilisation_is_high() {
        let r = quick(ServiceKind::Rocksdb, ThroughputScenario::Hermes);
        assert!(r.utilisation > 0.80, "utilisation {}", r.utilisation);
    }
}
