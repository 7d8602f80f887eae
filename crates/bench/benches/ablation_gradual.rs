//! Ablation: gradual reservation (Figure 6b) vs naive bulk reservation
//! (Figure 6a). The paper argues bulk reservation *degrades tail latency*
//! because a burst of mallocs blocks on the program-break lock while a
//! large chunk's mapping is constructed.

use hermes_allocators::AllocatorKind;
use hermes_bench::{header, micro_small_total, Checks};
use hermes_sim::report::{summary_row_us, Table};
use hermes_workloads::{run_micro, MicroConfig, Scenario};

fn main() {
    header("Ablation", "gradual vs bulk reservation (§3.2.1)");
    let mut checks = Checks::new();
    let total = micro_small_total() / 2;
    let mut t = Table::new(["variant", "avg(us)", "p75", "p90", "p95", "p99"]);
    let run = |gradual: bool| {
        let mut cfg =
            MicroConfig::paper(AllocatorKind::Hermes, Scenario::AnonPressure, 1024).scaled(total);
        cfg.ablation.gradual_reservation = gradual;
        let mut r = run_micro(&cfg);
        let p999 = r.latencies.percentile(0.999);
        (r.latencies.summary(), p999)
    };
    let (gradual, gradual_p999) = run(true);
    let (bulk, bulk_p999) = run(false);
    t.row_vec(summary_row_us("gradual", &gradual));
    t.row_vec(summary_row_us("bulk (naive)", &bulk));
    print!("{}", t.render());
    println!(
        "extreme tail: gradual p99.9 {} / max {}  vs  bulk p99.9 {} / max {}",
        gradual_p999, gradual.max, bulk_p999, bulk.max
    );
    // In a closed-loop benchmark exactly one request absorbs each bulk
    // reservation window (subsequent requests arrive after it ends), so
    // the Figure 6 blocking materialises as rare, very large outliers:
    // compare the worst-case stall, not p99.
    checks.check(
        "worst-case stall is far larger under bulk",
        "requests block behind the one big step (Figure 6)",
        &format!("gradual max {} vs bulk max {}", gradual.max, bulk.max),
        gradual.max.as_nanos() * 3 <= bulk.max.as_nanos(),
    );
    let _ = t.write_csv(hermes_bench::results_dir().join("ablation_gradual.csv"));
    checks.finish();
}
