//! The micro benchmark (§5.1–§5.2): fixed-size `malloc`s until a total
//! volume is reached, under a dedicated system, anonymous-page pressure or
//! file-cache pressure.
//!
//! [`run_micro`] drives a simulated allocator model through a
//! [`SimBackend`] in virtual time, on the simulated OS whose hogs create
//! the pressure scenarios.

use hermes_allocators::{
    AllocatorBackend, AllocatorKind, HermesAblation, MonitorDaemonSim, SimBackend, SimEnv,
};
use hermes_batch::{AnonHog, FileHog};
use hermes_core::HermesConfig;
use hermes_os::prelude::*;
use hermes_sim::clock::Clock;
use hermes_sim::prelude::*;

/// The three memory scenarios of Figures 3, 7 and 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Idle node with plenty of free memory.
    Dedicated,
    /// Anonymous-page pressure: reclaim must swap.
    AnonPressure,
    /// File-cache pressure: reclaim can drop clean cache.
    FilePressure,
}

impl Scenario {
    /// All scenarios in the paper's order.
    pub const ALL: [Scenario; 3] = [
        Scenario::Dedicated,
        Scenario::AnonPressure,
        Scenario::FilePressure,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Dedicated => "dedicated",
            Scenario::AnonPressure => "anon",
            Scenario::FilePressure => "file",
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one micro-benchmark run.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Allocator under test.
    pub allocator: AllocatorKind,
    /// Memory scenario.
    pub scenario: Scenario,
    /// Size of each request (1 KB or 256 KB in the paper).
    pub request_size: usize,
    /// Total bytes to allocate (1 GB in the paper; scale down for speed).
    pub total_bytes: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Hermes knobs (ignored by the baselines).
    pub hermes: HermesConfig,
    /// The Hermes model's ablation switches (ignored by the baselines).
    pub ablation: HermesAblation,
    /// Run the proactive-reclamation daemon (set `false` together with a
    /// Hermes allocator for the "Hermes w/o rec" series).
    pub daemon: bool,
    /// Free-memory floor the pressure hogs leave (`None` = the paper's
    /// 300 MB). Scaled-down runs lower it so reclaim still engages.
    pub free_floor: Option<usize>,
}

impl MicroConfig {
    /// The paper's configuration for a given allocator/scenario/size.
    pub fn paper(allocator: AllocatorKind, scenario: Scenario, request_size: usize) -> Self {
        MicroConfig {
            allocator,
            scenario,
            request_size,
            total_bytes: 1 << 30,
            seed: 42,
            hermes: HermesConfig::default(),
            ablation: HermesAblation::default(),
            daemon: allocator == AllocatorKind::Hermes,
            free_floor: None,
        }
    }

    /// Scales the allocation volume down (keeps shapes, saves time). The
    /// pressure floor shrinks proportionally so the run still crosses the
    /// reclaim watermarks about two-thirds of the way through, as the
    /// paper's 1 GB run does against its 300 MB floor.
    pub fn scaled(mut self, total_bytes: usize) -> Self {
        self.total_bytes = total_bytes;
        if total_bytes < (1 << 30) {
            self.free_floor = Some((total_bytes as f64 * 0.3) as usize);
        }
        self
    }
}

/// Result of one micro run.
#[derive(Debug)]
pub struct MicroResult {
    /// Per-request allocation latencies.
    pub latencies: LatencyRecorder,
    /// Virtual duration of the measured phase.
    pub wall: SimDuration,
    /// Reserved-but-unused bytes at the end (Hermes overhead, §5.5).
    pub reserved_unused: usize,
    /// Management-thread busy time (§5.5).
    pub management_busy: SimDuration,
    /// Daemon busy time (§5.5).
    pub daemon_busy: SimDuration,
    /// OS counters after the run.
    pub os_stats: OsStats,
}

/// Runs the micro benchmark over a simulated allocator model.
///
/// # Panics
///
/// Panics if the scenario set-up or an allocation fails (the paper's node
/// never OOMs under these workloads; a failure indicates a config error).
pub fn run_micro(cfg: &MicroConfig) -> MicroResult {
    let env = SimEnv::new(OsConfig {
        seed: cfg.seed,
        ..OsConfig::paper_node()
    });
    let mut backend =
        SimBackend::with_ablation(cfg.allocator, &env, cfg.seed, &cfg.hermes, cfg.ablation);
    let mut daemon = MonitorDaemonSim::new(cfg.daemon);

    // Scenario set-up; the measured phase starts when it completes.
    let floor = cfg.free_floor.unwrap_or(300 << 20);
    {
        let mut os = env.os();
        let now = env.clock.now();
        match cfg.scenario {
            Scenario::Dedicated => {}
            Scenario::AnonPressure => {
                let mut hog = AnonHog::new(&mut os).with_free_floor(floor);
                let t = hog.fill(now, &mut os).expect("anon hog set-up");
                env.clock.set(t);
            }
            Scenario::FilePressure => {
                let mut hog = FileHog::new(&mut os, 10 << 30).with_free_floor(floor);
                let t = hog.fill(now, &mut os).expect("file hog set-up");
                env.clock.set(t);
            }
        }
    }
    // Let the Hermes management thread see a clean slate before t0.
    backend.advance();
    let t0 = env.clock.now();

    let mut rec = LatencyRecorder::new(format!(
        "{}-{}-{}",
        cfg.allocator, cfg.scenario, cfg.request_size
    ));
    let mut rng = DetRng::new(cfg.seed, "micro-gap");
    let n = (cfg.total_bytes / cfg.request_size).max(1);
    for _ in 0..n {
        daemon.advance_to(env.clock.now(), &mut env.os());
        let (_, lat) = backend.malloc(cfg.request_size).expect("micro allocation");
        rec.record(lat);
        // Tight loop with minimal think time between requests.
        let gap = SimDuration::from_nanos(80 + rng.range(0, 60));
        env.clock.advance(gap);
    }

    let stats = backend.stats();
    let os_stats = env.os().stats();
    MicroResult {
        latencies: rec,
        wall: env.clock.now().duration_since(t0),
        reserved_unused: stats.reserved_unused_bytes,
        management_busy: stats.management_busy,
        daemon_busy: daemon.busy(),
        os_stats,
    }
}

/// Convenience: run all four allocators on one scenario/size and return
/// `(kind, result)` pairs in plotting order.
pub fn run_micro_all(
    scenario: Scenario,
    request_size: usize,
    total_bytes: usize,
    seed: u64,
) -> Vec<(AllocatorKind, MicroResult)> {
    AllocatorKind::ALL
        .iter()
        .map(|&k| {
            let cfg = MicroConfig::paper(k, scenario, request_size).scaled(total_bytes);
            let cfg = MicroConfig { seed, ..cfg };
            (k, run_micro(&cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_RUN: usize = 24 << 20; // 24 MiB keeps tests quick

    #[test]
    fn dedicated_glibc_magnitudes_match_paper_scale() {
        let cfg =
            MicroConfig::paper(AllocatorKind::Glibc, Scenario::Dedicated, 1024).scaled(SMALL_RUN);
        let mut r = run_micro(&cfg);
        let s = r.latencies.summary();
        // Figure 7a: small-request latencies are single-digit microseconds.
        assert!(
            (800..8_000).contains(&s.avg.as_nanos()),
            "avg {} in paper range",
            s.avg
        );
        assert!(s.p99.as_nanos() < 40_000, "p99 {}", s.p99);
    }

    #[test]
    fn anon_pressure_prolongs_latency_more_than_file() {
        let mk = |sc| {
            let cfg = MicroConfig::paper(AllocatorKind::Glibc, sc, 1024).scaled(SMALL_RUN);
            run_micro(&cfg).latencies.summary()
        };
        let ded = mk(Scenario::Dedicated);
        let anon = mk(Scenario::AnonPressure);
        let file = mk(Scenario::FilePressure);
        // Figure 3 ordering: anon > file > dedicated.
        assert!(
            anon.avg > file.avg,
            "anon {} vs file {}",
            anon.avg,
            file.avg
        );
        assert!(file.avg >= ded.avg, "file {} vs ded {}", file.avg, ded.avg);
    }

    #[test]
    fn hermes_beats_glibc_under_anon_pressure() {
        let h = run_micro(
            &MicroConfig::paper(AllocatorKind::Hermes, Scenario::AnonPressure, 1024)
                .scaled(SMALL_RUN),
        )
        .latencies
        .clone()
        .summary();
        let g = run_micro(
            &MicroConfig::paper(AllocatorKind::Glibc, Scenario::AnonPressure, 1024)
                .scaled(SMALL_RUN),
        )
        .latencies
        .clone()
        .summary();
        assert!(h.avg < g.avg, "hermes {} vs glibc {}", h.avg, g.avg);
        assert!(h.p99 < g.p99, "hermes p99 {} vs glibc {}", h.p99, g.p99);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let cfg =
            MicroConfig::paper(AllocatorKind::Hermes, Scenario::Dedicated, 1024).scaled(4 << 20);
        let a = run_micro(&cfg);
        let b = run_micro(&cfg);
        assert_eq!(a.latencies.samples_ns(), b.latencies.samples_ns());
    }
}
