//! # hermes-bench — harness plumbing for the figure/table benchmarks
//!
//! Each bench target (`cargo bench -p hermes-bench --bench figNN`)
//! regenerates one exhibit of the paper's evaluation: it prints the same
//! rows/series the paper reports, a set of `[ok]/[!!]` shape checks
//! (who wins, by roughly what factor, where crossovers fall), and writes
//! the full series as CSV under `results/`.
//!
//! Scale: by default the workloads are scaled down for quick runs; set
//! `HERMES_FULL=1` for the paper's full volumes.

#![warn(missing_docs)]

pub mod stats;

use hermes_sim::stats::Summary;
use std::path::PathBuf;

/// `true` when `HERMES_FULL=1`: run the paper's full workload volumes.
pub fn full_scale() -> bool {
    std::env::var("HERMES_FULL").is_ok_and(|v| v == "1")
}

/// Micro-benchmark volume for small (1 KB) requests.
pub fn micro_small_total() -> usize {
    if full_scale() {
        1 << 30
    } else {
        160 << 20
    }
}

/// Micro-benchmark volume for large (256 KB) requests.
pub fn micro_large_total() -> usize {
    1 << 30 // 4096 requests: cheap enough to always run at paper scale
}

/// Query count for small-record service runs.
pub fn queries_small() -> usize {
    if full_scale() {
        100_000
    } else {
        8_000
    }
}

/// Query count for large-record service runs.
pub fn queries_large() -> usize {
    if full_scale() {
        10_000
    } else {
        2_000
    }
}

/// Directory for CSV outputs (override with `RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var("RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// Prints the standard harness header.
pub fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("   (scaled run; HERMES_FULL=1 for paper volumes)");
    println!("================================================================");
}

/// Tracks shape checks and reports a summary verdict.
#[derive(Debug, Default)]
pub struct Checks {
    total: usize,
    failed: usize,
}

impl Checks {
    /// Creates an empty check set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records and prints one paper-vs-measured shape check.
    pub fn check(&mut self, label: &str, paper: &str, measured: &str, holds: bool) {
        self.total += 1;
        if !holds {
            self.failed += 1;
        }
        println!(
            "{}",
            hermes_sim::report::check_line(label, paper, measured, holds)
        );
    }

    /// Prints the final verdict line.
    pub fn finish(&self) {
        println!(
            "shape checks: {}/{} hold",
            self.total - self.failed,
            self.total
        );
    }

    /// Number of failed checks.
    pub fn failed(&self) -> usize {
        self.failed
    }
}

/// Formats a reduction percentage like the paper ("54.4%").
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Reduction of `ours` vs `base` at the average, in percent.
pub fn avg_reduction(ours: &Summary, base: &Summary) -> f64 {
    ours.reduction_vs(base).avg
}

/// Reduction of `ours` vs `base` at p99, in percent.
pub fn p99_reduction(ours: &Summary, base: &Summary) -> f64 {
    ours.reduction_vs(base).p99
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_helpers() {
        // Defaults (HERMES_FULL unset in tests).
        assert!(micro_small_total() > 0);
        assert!(micro_large_total() == 1 << 30);
        assert!(queries_small() > queries_large());
    }

    #[test]
    fn checks_track_failures() {
        let mut c = Checks::new();
        c.check("a", "1", "1", true);
        c.check("b", "1", "2", false);
        assert_eq!(c.failed(), 1);
        c.finish();
    }

    #[test]
    fn results_dir_is_formed() {
        assert!(results_dir().to_string_lossy().contains("results"));
    }
}

/// Shared runner for the micro-benchmark figures (3, 7, 8).
pub mod microfig {
    use hermes_allocators::AllocatorKind;
    use hermes_sim::report::{summary_row_us, write_cdf_csv, Table};
    use hermes_sim::stats::Summary;
    use hermes_workloads::{run_micro, MicroConfig, Scenario};

    /// One plotted series.
    #[derive(Debug)]
    pub struct Series {
        /// Display label ("Hermes", "Hermes w/o rec", ...).
        pub label: String,
        /// Scenario it ran under.
        pub scenario: Scenario,
        /// Latency summary.
        pub summary: Summary,
        /// CDF points for the CSV dump.
        pub cdf: Vec<(hermes_sim::time::SimDuration, f64)>,
    }

    /// Runs the full allocator x scenario grid for one request size,
    /// including the "Hermes w/o rec" series under file pressure.
    pub fn run_grid(request_size: usize, total: usize, seed: u64) -> Vec<Series> {
        let mut out = Vec::new();
        for scenario in Scenario::ALL {
            for kind in AllocatorKind::ALL {
                let cfg = MicroConfig {
                    seed,
                    ..MicroConfig::paper(kind, scenario, request_size).scaled(total)
                };
                let mut r = run_micro(&cfg);
                out.push(Series {
                    label: kind.name().to_string(),
                    scenario,
                    summary: r.latencies.summary(),
                    cdf: r.latencies.cdf(120, 0.0),
                });
            }
            if scenario == Scenario::FilePressure {
                let mut cfg = MicroConfig {
                    seed,
                    ..MicroConfig::paper(AllocatorKind::Hermes, scenario, request_size)
                        .scaled(total)
                };
                cfg.daemon = false;
                let mut r = run_micro(&cfg);
                out.push(Series {
                    label: "Hermes w/o rec".to_string(),
                    scenario,
                    summary: r.latencies.summary(),
                    cdf: r.latencies.cdf(120, 0.0),
                });
            }
        }
        out
    }

    /// Finds a series.
    pub fn find<'a>(series: &'a [Series], label: &str, sc: Scenario) -> &'a Series {
        series
            .iter()
            .find(|s| s.label == label && s.scenario == sc)
            .expect("series present")
    }

    /// Prints the per-scenario summary tables and writes the CDF CSV.
    pub fn print_and_dump(series: &[Series], csv_name: &str) {
        for sc in Scenario::ALL {
            println!("\n--- scenario: {sc} ---");
            let mut t = Table::new(["allocator", "avg(us)", "p75", "p90", "p95", "p99"]);
            for s in series.iter().filter(|s| s.scenario == sc) {
                t.row_vec(summary_row_us(&s.label, &s.summary));
            }
            print!("{}", t.render());
        }
        let named: Vec<(String, _)> = series
            .iter()
            .map(|s| (format!("{}-{}", s.label, s.scenario), s.cdf.clone()))
            .collect();
        let named_ref: Vec<(&str, Vec<_>)> =
            named.iter().map(|(n, c)| (n.as_str(), c.clone())).collect();
        let path = crate::results_dir().join(csv_name);
        if let Err(e) = write_cdf_csv(&path, &named_ref) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("\nCDF series written to {}", path.display());
        }
    }
}

/// Shared runner and bodies for the service figures (9-14) and the
/// `RSV_FACTOR` sensitivity figures (15/16). Each body serves a figure
/// and its twin: `fig` gives the title and the CSV prefix
/// (`figNN_<record>.csv`, `figNN_<scenario>.csv`), `name` is the service
/// — or the request class — as the paper spells it.
pub mod sweep {
    use crate::{header, pct, queries_large, queries_small, results_dir, Checks};
    use hermes_allocators::AllocatorKind;
    use hermes_services::ServiceKind;
    use hermes_sim::report::{fmt_us, summary_row_us, write_cdf_csv, Table};
    use hermes_sim::stats::{LatencyRecorder, Summary};
    use hermes_workloads::{
        run_colocation, run_sensitivity, violation_reduction_pct, ColocationConfig, Scenario, Slo,
        FACTORS, PRESSURE_LEVELS,
    };

    /// One cell of the pressure-level sweep.
    #[derive(Debug)]
    pub struct Cell {
        /// Pressure level (0.0 - 1.5).
        pub level: f64,
        /// Allocator.
        pub kind: AllocatorKind,
        /// Query-latency summary.
        pub summary: Summary,
        /// Full recorder (for SLO-violation ratios).
        pub recorder: LatencyRecorder,
    }

    /// Runs service x allocator x pressure-level and returns all cells.
    pub fn run(service: ServiceKind, record: usize, queries: usize, seed: u64) -> Vec<Cell> {
        let mut out = Vec::new();
        for &level in &PRESSURE_LEVELS {
            for kind in AllocatorKind::ALL {
                let mut cfg = ColocationConfig::paper(service, kind, record, level);
                cfg.queries = queries;
                cfg.seed = seed;
                let mut res = run_colocation(&cfg);
                out.push(Cell {
                    level,
                    kind,
                    summary: res.totals.summary(),
                    recorder: res.totals,
                });
            }
        }
        out
    }

    /// Finds a cell.
    pub fn find(cells: &[Cell], kind: AllocatorKind, level: f64) -> &Cell {
        cells
            .iter()
            .find(|c| c.kind == kind && (c.level - level).abs() < 1e-9)
            .expect("cell present")
    }

    /// The two record sizes every service figure runs: `(label, record
    /// bytes, queries)`.
    fn record_sizes() -> [(&'static str, usize, usize); 2] {
        [
            ("small (1KB)", 1024, queries_small()),
            ("large (200KB)", 200 * 1024, queries_large()),
        ]
    }

    fn csv_path(fig: u32, record: usize) -> std::path::PathBuf {
        results_dir().join(format!("fig{fig:02}_{record}.csv"))
    }

    /// Figures 9/10: 90th-percentile query latency vs memory-pressure
    /// level.
    pub fn p90_vs_pressure(fig: u32, name: &str, service: ServiceKind) {
        header(
            &format!("Figure {fig}"),
            &format!("{name} p90 query latency vs pressure level"),
        );
        let mut checks = Checks::new();
        for (label, record, queries) in record_sizes() {
            println!("\n--- {label} requests ---");
            let cells = run(service, record, queries, 42);
            let slo = find(&cells, AllocatorKind::Glibc, 0.0).summary.p90;
            println!("SLO (Glibc dedicated p90) = {}us", fmt_us(slo));
            let mut t = Table::new(["allocator", "0%", "50%", "75%", "100%", "125%", "150%"]);
            for kind in AllocatorKind::ALL {
                let mut row = vec![kind.name().to_string()];
                for &level in &PRESSURE_LEVELS {
                    row.push(fmt_us(find(&cells, kind, level).summary.p90));
                }
                t.row_vec(row);
            }
            print!("{}", t.render());
            let _ = t.write_csv(csv_path(fig, record));

            // Shape checks.
            let h0 = find(&cells, AllocatorKind::Hermes, 0.0).summary.p90;
            checks.check(
                &format!("{label} @0%: Hermes p90 <= 1.2x Glibc p90"),
                "Hermes tail no worse dedicated",
                &format!("{h0} vs {slo}"),
                h0 <= slo.mul_f64(1.2),
            );
            for &level in &[1.0, 1.25, 1.5] {
                let h = find(&cells, AllocatorKind::Hermes, level).summary.p90;
                let g = find(&cells, AllocatorKind::Glibc, level).summary.p90;
                checks.check(
                    &format!("{label} @{:.0}%: Hermes p90 < Glibc p90", level * 100.0),
                    "Hermes lowest",
                    &format!("{} vs {}", h, g),
                    h <= g,
                );
            }
            let h_low = find(&cells, AllocatorKind::Hermes, 0.5).summary.p90;
            let h_hi = find(&cells, AllocatorKind::Hermes, 1.5).summary.p90;
            checks.check(
                &format!("{label}: pressure raises p90"),
                "monotone-ish growth",
                &format!("{} -> {}", h_low, h_hi),
                h_hi >= h_low,
            );
            let h100 = find(&cells, AllocatorKind::Hermes, 1.0).summary.p90;
            let g100 = find(&cells, AllocatorKind::Glibc, 1.0).summary.p90;
            checks.check(
                &format!("{label} @100%: baselines violate more than Hermes"),
                "crossover at ~100%",
                &format!("hermes {} glibc {} slo {}", h100, g100, slo),
                h100 <= g100,
            );
        }
        checks.finish();
    }

    /// Figures 11/12: query-latency CDF (p90-p99 zoom) under 100 %
    /// memory pressure. `paper_avg`/`paper_p99` quote the paper's
    /// reductions vs Glibc.
    pub fn cdf_at_full_pressure(
        fig: u32,
        name: &str,
        service: ServiceKind,
        paper_avg: &str,
        paper_p99: &str,
    ) {
        header(
            &format!("Figure {fig}"),
            &format!("{name} latency under 100% memory pressure"),
        );
        let mut checks = Checks::new();
        for (label, record, queries) in record_sizes() {
            println!("\n--- {label} requests w/ batch jobs ---");
            let mut t = Table::new(["allocator", "avg(us)", "p75", "p90", "p95", "p99"]);
            let mut series = Vec::new();
            let mut summaries = Vec::new();
            for kind in AllocatorKind::ALL {
                let mut cfg = ColocationConfig::paper(service, kind, record, 1.0);
                cfg.queries = queries;
                let mut res = run_colocation(&cfg);
                let s = res.totals.summary();
                t.row_vec(summary_row_us(kind.name(), &s));
                series.push((kind.name(), res.totals.cdf(60, 0.90)));
                summaries.push((kind, s));
            }
            print!("{}", t.render());
            let _ = write_cdf_csv(csv_path(fig, record), &series);
            let of = |kind| summaries.iter().find(|(k, _)| *k == kind).unwrap().1;
            let h = of(AllocatorKind::Hermes);
            let red = h.reduction_vs(&of(AllocatorKind::Glibc));
            checks.check(
                &format!("{label}: Hermes reduces avg vs Glibc"),
                paper_avg,
                &pct(red.avg),
                red.avg > 0.0,
            );
            checks.check(
                &format!("{label}: Hermes reduces p99 vs Glibc"),
                paper_p99,
                &pct(red.p99),
                red.p99 > 0.0,
            );
            for (k, s) in &summaries {
                if *k != AllocatorKind::Hermes {
                    checks.check(
                        &format!("{label}: Hermes p99 lowest vs {k}"),
                        "Hermes lowest",
                        &format!("{} vs {}", h.p99, s.p99),
                        h.p99 <= s.p99,
                    );
                }
            }
        }
        checks.finish();
    }

    /// Figures 13/14: SLO-violation ratio per allocator and pressure
    /// level. `paper_reduction` quotes the paper's best reduction by
    /// Hermes.
    pub fn slo_violations(fig: u32, name: &str, service: ServiceKind, paper_reduction: &str) {
        header(
            &format!("Figure {fig}"),
            &format!("{name} SLO violation ratios"),
        );
        let mut checks = Checks::new();
        for (label, record, queries) in record_sizes() {
            println!("\n--- {label} requests ---");
            let cells = run(service, record, queries, 42);
            let mut base = find(&cells, AllocatorKind::Glibc, 0.0).recorder.clone();
            let slo = Slo::from_baseline(&mut base);
            println!("SLO = {} (Glibc dedicated p90)", slo.threshold);
            let mut t = Table::new(["allocator", "50%", "75%", "100%", "125%", "150%"]);
            for kind in AllocatorKind::ALL {
                let mut row = vec![kind.name().to_string()];
                for &level in &PRESSURE_LEVELS[1..] {
                    row.push(format!(
                        "{:.1}%",
                        slo.violation_pct(&find(&cells, kind, level).recorder)
                    ));
                }
                t.row_vec(row);
            }
            print!("{}", t.render());
            let _ = t.write_csv(csv_path(fig, record));

            // Hermes keeps violations low at low pressure and reduces
            // them substantially at >= 100%.
            let h_low = slo.violation_pct(&find(&cells, AllocatorKind::Hermes, 0.5).recorder);
            checks.check(
                &format!("{label}: Hermes <10% violations at 50%"),
                "<10%",
                &format!("{h_low:.1}%"),
                h_low < 15.0,
            );
            let mut best_red: f64 = 0.0;
            for &level in &[1.0, 1.25, 1.5] {
                let h = slo.violation_pct(&find(&cells, AllocatorKind::Hermes, level).recorder);
                for kind in [
                    AllocatorKind::Glibc,
                    AllocatorKind::Jemalloc,
                    AllocatorKind::Tcmalloc,
                ] {
                    let b = slo.violation_pct(&find(&cells, kind, level).recorder);
                    best_red = best_red.max(violation_reduction_pct(h, b));
                    // Small-record queries are RTT/lookup-bound, so sub-us
                    // allocator deltas disappear into jitter against the
                    // Glibc-derived SLO; enforce the ordering where the
                    // allocator matters (vs Glibc always, vs all on large).
                    let enforced = kind == AllocatorKind::Glibc || record >= 64 * 1024;
                    checks.check(
                        &format!("{label} @{:.0}%: Hermes <= {kind}", level * 100.0),
                        "Hermes lowest violations",
                        &format!("{h:.1}% vs {b:.1}%"),
                        !enforced || h <= b + 1.0,
                    );
                }
            }
            println!(
                "max violation reduction by Hermes: {best_red:.1}% (paper: up to {paper_reduction})"
            );
        }
        checks.finish();
    }

    /// Figures 15/16: latency reduction vs `RSV_FACTOR` (§5.4) for
    /// `request_bytes`-sized requests over `total` bytes of volume, on
    /// a dedicated system and under anonymous pressure. `name` is the
    /// request class, e.g. `"small (1KB)"`.
    pub fn rsv_sensitivity(fig: u32, name: &str, request_bytes: usize, total: usize) {
        header(
            &format!("Figure {fig}"),
            &format!("RSV_FACTOR sensitivity, {name} requests"),
        );
        let mut checks = Checks::new();
        for (sc, title) in [
            (Scenario::Dedicated, "dedicated system"),
            (Scenario::AnonPressure, "anonymous pressure"),
        ] {
            println!("\n--- {title} ---");
            let pts = run_sensitivity(sc, request_bytes, total, 42);
            let mut t = Table::new(["factor", "avg", "p75", "p90", "p95", "p99"]);
            for p in &pts {
                t.row_vec(vec![
                    format!("{:.1}x", p.factor),
                    format!("{:+.1}%", p.reduction.avg),
                    format!("{:+.1}%", p.reduction.p75),
                    format!("{:+.1}%", p.reduction.p90),
                    format!("{:+.1}%", p.reduction.p95),
                    format!("{:+.1}%", p.reduction.p99),
                ]);
            }
            print!("{}", t.render());
            let _ = t.write_csv(results_dir().join(format!("fig{fig:02}_{}.csv", sc.name())));
            let f05 = pts.iter().find(|p| p.factor == 0.5).unwrap().reduction;
            let f20 = pts.iter().find(|p| p.factor == 2.0).unwrap().reduction;
            let f30 = pts.iter().find(|p| p.factor == 3.0).unwrap().reduction;
            // Only small requests see a starved reserve in the tail.
            if sc == Scenario::Dedicated && request_bytes == 1024 {
                checks.check(
                    "0.5x hurts the small-request tail vs 2.0x (dedicated)",
                    "negative p99 reduction at 0.5x",
                    &format!("0.5x {:+.1}% vs 2.0x {:+.1}%", f05.p99, f20.p99),
                    f05.p99 <= f20.p99 + 3.0,
                );
            }
            if sc == Scenario::AnonPressure {
                checks.check(
                    "anon-pressure gains exceed dedicated gains (avg, 2.0x)",
                    "much larger under pressure",
                    &format!("{:+.1}%", f20.avg),
                    f20.avg > 0.0,
                );
            }
            checks.check(
                &format!("{title}: >=2x plateaus (3.0x adds little over 2.0x)"),
                "no further gain past 2x",
                &format!("2.0x {:+.1}% vs 3.0x {:+.1}% avg", f20.avg, f30.avg),
                (f30.avg - f20.avg).abs() < 15.0,
            );
            assert!(pts.len() == FACTORS.len());
        }
        checks.finish();
    }
}
