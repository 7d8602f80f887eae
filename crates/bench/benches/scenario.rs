//! Pressure scenarios with fault injection: the SLO-violation-vs-
//! pressure matrix across every backend.
//!
//! A flash-crowd trace drives the Redis model into — and back out of —
//! saturation on all six backends (four sims plus both real runtimes).
//! The fault wrapper's byte budget makes exhaustion real everywhere,
//! and a seeded exhaust-rate adds transient failures on top; the
//! degradation layer answers with retry, eviction and criticality-
//! tagged shedding. Rows are per (backend, pressure level); violation
//! percentages are against each run's own green-level p90, so sim and
//! real rows are each judged in their own time domain.
//!
//! Methodology (`hermes_bench::stats`): the backend sweep runs in a
//! palindrome for `REPS` repetitions with per-repetition seeds. Each
//! (backend, level) row reports the median p50/p99 across runs with a
//! bootstrap CI on the p99; counters and degradation behavior are shown
//! for the first repetition. The paired line is the drift-cancelled
//! real:system / real:hermes green-level tail ratio.

use hermes_allocators::{AllocatorKind, BackendKind, FaultConfig};
use hermes_bench::stats::{self, Ci};
use hermes_bench::{header, pct, Checks};
use hermes_services::{PressureLevel, ServiceKind};
use hermes_sim::report::Table;
use hermes_sim::time::SimDuration;
use hermes_workloads::{run_scenario, ScenarioConfig, ScenarioResult, TraceKind};

/// Palindrome repetitions; every backend runs `2 * REPS` times.
const REPS: usize = 3;

/// All six backends, sims first.
fn backends() -> Vec<BackendKind> {
    let mut out: Vec<BackendKind> = AllocatorKind::ALL
        .iter()
        .map(|&k| BackendKind::Sim(k))
        .collect();
    out.push(BackendKind::RealSystem);
    out.push(BackendKind::RealHermes);
    out
}

fn run_one(backend: BackendKind, seed: u64) -> ScenarioResult {
    let mut cfg = ScenarioConfig::new(TraceKind::FlashCrowd, ServiceKind::Redis, backend, seed);
    cfg.ticks = 32;
    cfg.queries_per_tick = 16;
    cfg.capacity_bytes = 32 << 20;
    cfg.fault = Some(
        FaultConfig::new(1000 + seed)
            .with_exhaust_rate(0.02)
            .with_spikes(0.02, SimDuration::from_micros(80)),
    );
    run_scenario(&cfg)
}

/// p99 (ns) of the given pressure level within one run, if reached.
fn level_p99(r: &ScenarioResult, level: PressureLevel) -> Option<f64> {
    r.levels
        .iter()
        .find(|row| row.level.idx() == level.idx())
        .map(|row| row.p99.as_nanos() as f64)
}

fn main() {
    header(
        "scenario",
        "flash-crowd pressure scenario with fault injection (Redis, all backends)",
    );
    let backends = backends();
    println!("{REPS} paired repetitions per backend");
    let mut runs: Vec<Vec<ScenarioResult>> = (0..backends.len()).map(|_| Vec::new()).collect();
    let pal = stats::run_palindrome(backends.len(), REPS, |cfg, rep, pass| {
        // Per-repetition seeds so the CIs capture run-to-run variation;
        // the green level always exists (the trace starts and ends calm).
        let seed = 42 + 16 * rep as u64 + pass as u64;
        let r = run_one(backends[cfg], seed);
        let green = level_p99(&r, PressureLevel::Green).unwrap_or(0.0);
        runs[cfg].push(r);
        green
    });

    let mut t = Table::new([
        "backend", "level", "queries", "ok", "degraded", "retried", "shed", "failed", "p50(us)",
        "p99(us)", "p99 CI", "viol%",
    ]);
    // Aggregated per-(backend, level) rows: counters from the first
    // repetition, latencies as medians across all runs that reached the
    // level, CI from the per-run p99 values.
    struct Agg {
        backend: BackendKind,
        first: usize, // index of the first run's matching level row
        p50_ns: u64,
        p99_ns: u64,
        p99_ci: Ci,
    }
    let mut aggs: Vec<Agg> = Vec::new();
    for (cfg, backend) in backends.iter().enumerate() {
        let cell = &runs[cfg];
        for (first, row) in cell[0].levels.iter().enumerate() {
            let p99s: Vec<f64> = cell
                .iter()
                .filter_map(|r| level_p99(r, row.level))
                .collect();
            let p50s: Vec<f64> = cell
                .iter()
                .filter_map(|r| {
                    r.levels
                        .iter()
                        .find(|x| x.level.idx() == row.level.idx())
                        .map(|x| x.p50.as_nanos() as f64)
                })
                .collect();
            let (p99_med, p99_ci) = stats::median_ci(&p99s);
            aggs.push(Agg {
                backend: *backend,
                first,
                p50_ns: stats::median(&p50s).round() as u64,
                p99_ns: p99_med.round() as u64,
                p99_ci,
            });
        }
    }
    for (cfg, backend) in backends.iter().enumerate() {
        let first_run = &runs[cfg][0];
        for a in aggs.iter().filter(|a| a.backend == *backend) {
            let row = &first_run.levels[a.first];
            t.row_vec(vec![
                backend.label(),
                row.level.label().to_string(),
                row.counters.queries.to_string(),
                row.counters.ok.to_string(),
                row.counters.degraded.to_string(),
                row.counters.retried.to_string(),
                row.counters.shed.to_string(),
                row.counters.failed.to_string(),
                format!("{:.1}", a.p50_ns as f64 / 1e3),
                format!("{:.1}", a.p99_ns as f64 / 1e3),
                format!("[{:.1}, {:.1}]", a.p99_ci.lo / 1e3, a.p99_ci.hi / 1e3),
                pct(row.violation_pct),
            ]);
        }
    }
    print!("{}", t.render());

    // Paired green-level tail claim on the real axis.
    let idx = |b: BackendKind| backends.iter().position(|&x| x == b);
    if let (Some(s), Some(h)) = (idx(BackendKind::RealSystem), idx(BackendKind::RealHermes)) {
        let (speedup, ci) = pal.ratio_ci(s, h);
        println!(
            "paired real_hermes_vs_system_green_p99: {speedup:.3}x (CI [{:.3}, {:.3}])",
            ci.lo, ci.hi
        );
    }

    // Behavior checks run against the first repetition (seed 42), the
    // same deterministic run earlier PRs gated on.
    let mut checks = Checks::new();
    for (cfg, backend) in backends.iter().enumerate() {
        let r = &runs[cfg][0];
        let label = backend.label();
        let tot = r.totals;
        checks.check(
            &format!("{label}: every query accounted"),
            "queries == ok+degraded+shed+failed",
            &format!(
                "{} == {}+{}+{}+{}",
                tot.queries, tot.ok, tot.degraded, tot.shed, tot.failed
            ),
            tot.queries == tot.ok + tot.degraded + tot.shed + tot.failed && tot.queries > 0,
        );
        checks.check(
            &format!("{label}: degradation engaged"),
            "degraded, retried and shed all > 0",
            &format!(
                "degraded {} retried {} shed {}",
                tot.degraded, tot.retried, tot.shed
            ),
            tot.degraded > 0 && tot.retried > 0 && tot.shed > 0,
        );
        checks.check(
            &format!("{label}: spike reached red and drained"),
            "ticks at red and at green both > 0",
            &format!("{:?}", r.ticks_at),
            r.ticks_at[PressureLevel::Red.idx()] > 0 && r.ticks_at[PressureLevel::Green.idx()] > 0,
        );
        checks.check(
            &format!("{label}: faults were injected"),
            "injected + budget denials > 0",
            &format!("{:?}", r.fault),
            r.fault.total_failures() > 0,
        );
    }
    checks.finish();

    if checks.failed() > 0 {
        std::process::exit(1);
    }
}
