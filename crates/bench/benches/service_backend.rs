//! Service latency across allocation backends: the paper's Redis/RocksDB
//! query path driven over the simulated allocator models *and* the real
//! runtimes through the one `AllocatorBackend` API.
//!
//! `HERMES_BACKEND` picks the axis (`sim` default, `real` adds the
//! wall-clock backends); `repro_all --backend {sim,real}` sets it. Real
//! rows are the repo's genuine p99/p99.9 service-latency numbers:
//! `real:hermes` runs the actual arenas, thread caches and management
//! thread; `real:system` is the `std::alloc` baseline. Sim and real
//! rows are not comparable in absolute terms (model constants vs a
//! shared CI host) — the claim checked here is per-domain: Hermes keeps
//! the service's allocation tail no worse than its domain baseline.
//!
//! Methodology (`hermes_bench::stats`): per service the backends run in
//! a palindrome for `REPS` repetitions with per-repetition seeds, so
//! the reported p50/p99/p99.9 are medians across runs, every p99
//! carries a bootstrap CI, and the Hermes-vs-baseline claims are
//! drift-cancelled paired ratios rather than single-run differences.

use hermes_allocators::{AllocatorKind, BackendKind, BackendStats};
use hermes_bench::stats::{self, Ci};
use hermes_bench::{header, queries_small, Checks};
use hermes_services::ServiceKind;
use hermes_sim::report::Table;
use hermes_workloads::{run_service_latency, ServiceLatencyRun};

/// Palindrome repetitions per service; each backend runs `2 * REPS`
/// times (forward + reverse pass).
const REPS: usize = 3;

fn backends() -> Vec<BackendKind> {
    let mode = std::env::var("HERMES_BACKEND").unwrap_or_else(|_| "sim".into());
    match mode.as_str() {
        "real" | "real:hermes" | "real:system" => vec![
            BackendKind::Sim(AllocatorKind::Glibc),
            BackendKind::Sim(AllocatorKind::Hermes),
            BackendKind::RealSystem,
            BackendKind::RealHermes,
        ],
        _ => vec![
            BackendKind::Sim(AllocatorKind::Glibc),
            BackendKind::Sim(AllocatorKind::Hermes),
        ],
    }
}

/// Aggregate of one (service, backend) cell across the paired runs.
struct Row {
    service: ServiceKind,
    backend: BackendKind,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    /// Bootstrap CI of the per-run p99 values.
    p99_ci: Ci,
    /// The last run's end-of-run backend statistics.
    stats: BackendStats,
}

/// A named paired p99 speedup (baseline / treatment; > 1 means the
/// treatment's tail is shorter).
struct Paired {
    cmp: String,
    speedup: f64,
    ci: Ci,
}

fn median_ns<I: Iterator<Item = u64>>(xs: I) -> u64 {
    stats::median(&xs.map(|x| x as f64).collect::<Vec<_>>()).round() as u64
}

fn main() {
    header(
        "service-backend",
        "service p50/p99/p99.9 across sim and real backends (1 KB records)",
    );
    let backends = backends();
    println!(
        "backend axis: {} (HERMES_BACKEND={}); {REPS} paired repetitions",
        backends
            .iter()
            .map(|b| b.label())
            .collect::<Vec<_>>()
            .join(", "),
        std::env::var("HERMES_BACKEND").unwrap_or_else(|_| "unset".into()),
    );
    let queries = (queries_small() / 4).max(500);
    let mut rows: Vec<Row> = Vec::new();
    let mut paired: Vec<Paired> = Vec::new();
    for service in ServiceKind::ALL {
        let mut runs: Vec<Vec<ServiceLatencyRun>> =
            (0..backends.len()).map(|_| Vec::new()).collect();
        let pal = stats::run_palindrome(backends.len(), REPS, |cfg, rep, pass| {
            // Per-repetition seeds: run-to-run variation is the noise
            // the CIs must capture (a fixed seed would collapse the sim
            // rows to zero-width intervals around one draw).
            let seed = 42 + 16 * rep as u64 + pass as u64;
            let run = run_service_latency(backends[cfg], service, queries, 1024, seed);
            let p99 = run.p99.as_nanos() as f64;
            runs[cfg].push(run);
            p99
        });
        for (cfg, backend) in backends.iter().enumerate() {
            let (_, p99_ci) = stats::median_ci(&pal.samples(cfg));
            let cell = &runs[cfg];
            let last = cell.last().expect("ran");
            rows.push(Row {
                service,
                backend: *backend,
                p50_ns: median_ns(cell.iter().map(|r| r.p50.as_nanos())),
                p99_ns: median_ns(cell.iter().map(|r| r.p99.as_nanos())),
                p999_ns: median_ns(cell.iter().map(|r| r.p999.as_nanos())),
                p99_ci,
                stats: last.stats,
            });
        }
        // Paired tail claims: baseline p99 / Hermes p99, drift-cancelled.
        let idx = |b: BackendKind| backends.iter().position(|&x| x == b);
        let pairs = [
            (
                "sim_hermes_vs_glibc",
                BackendKind::Sim(AllocatorKind::Glibc),
                BackendKind::Sim(AllocatorKind::Hermes),
            ),
            (
                "real_hermes_vs_system",
                BackendKind::RealSystem,
                BackendKind::RealHermes,
            ),
        ];
        for (tag, base, ours) in pairs {
            if let (Some(b), Some(o)) = (idx(base), idx(ours)) {
                let (speedup, ci) = pal.ratio_ci(b, o);
                paired.push(Paired {
                    cmp: format!("{}_{tag}_p99", service.name()),
                    speedup,
                    ci,
                });
            }
        }
    }

    let mut t = Table::new([
        "service",
        "backend",
        "p50(us)",
        "p99(us)",
        "p99 CI",
        "p99.9(us)",
        "rsv(KB)",
        "cmt(MB)",
        "map(MB)",
    ]);
    for r in &rows {
        t.row_vec(vec![
            r.service.name().to_string(),
            r.backend.label(),
            format!("{:.1}", r.p50_ns as f64 / 1e3),
            format!("{:.1}", r.p99_ns as f64 / 1e3),
            format!("[{:.1}, {:.1}]", r.p99_ci.lo / 1e3, r.p99_ci.hi / 1e3),
            format!("{:.1}", r.p999_ns as f64 / 1e3),
            format!("{}", r.stats.reserved_unused_bytes / 1024),
            format!("{}", r.stats.committed_bytes >> 20),
            format!("{}", r.stats.backing_reserved_bytes >> 20),
        ]);
    }
    print!("{}", t.render());
    for p in &paired {
        println!(
            "paired {}: {:.3}x (CI [{:.3}, {:.3}])",
            p.cmp, p.speedup, p.ci.lo, p.ci.hi
        );
    }

    let mut checks = Checks::new();
    let find = |rows: &[Row], s: ServiceKind, b: BackendKind| -> Option<(u64, usize)> {
        rows.iter()
            .find(|r| r.service == s && r.backend == b)
            .map(|r| (r.p99_ns, r.stats.reserved_unused_bytes))
    };
    // Mapped-backing sanity: real Hermes rows report the committed
    // gauge inside a strictly larger reservation (growth headroom).
    for r in &rows {
        if r.backend == BackendKind::RealHermes {
            checks.check(
                &format!("{} real: committed within reservation", r.service),
                "0 < committed <= reserved",
                &format!(
                    "{} of {} B",
                    r.stats.committed_bytes, r.stats.backing_reserved_bytes
                ),
                r.stats.committed_bytes > 0
                    && r.stats.committed_bytes <= r.stats.backing_reserved_bytes,
            );
        }
    }
    for service in ServiceKind::ALL {
        if let (Some((h, rsv)), Some((g, _))) = (
            find(&rows, service, BackendKind::Sim(AllocatorKind::Hermes)),
            find(&rows, service, BackendKind::Sim(AllocatorKind::Glibc)),
        ) {
            checks.check(
                &format!("{service} sim: Hermes p99 <= 1.2x Glibc"),
                "paper: Hermes tail no worse dedicated",
                &format!("{h} vs {g} ns (medians over {} runs)", 2 * REPS),
                h <= g + g / 5,
            );
            checks.check(
                &format!("{service} sim: Hermes holds reserve"),
                "> 0 bytes",
                &format!("{rsv} B"),
                rsv > 0,
            );
        }
        if let (Some((h, rsv)), Some((s, _))) = (
            find(&rows, service, BackendKind::RealHermes),
            find(&rows, service, BackendKind::RealSystem),
        ) {
            checks.check(
                &format!("{service} real: p99s are finite"),
                "both > 0",
                &format!("hermes {h} vs system {s} ns"),
                h > 0 && s > 0,
            );
            checks.check(
                &format!("{service} real: Hermes holds reserve"),
                "> 0 bytes",
                &format!("{rsv} B"),
                rsv > 0,
            );
        }
    }
    checks.finish();

    if checks.failed() > 0 {
        std::process::exit(1);
    }
}
