//! Ablation: delayed (asynchronous) shrink of over-sized mmap hand-outs
//! vs shrinking synchronously on the allocation path (§3.2.2).

use hermes_allocators::AllocatorKind;
use hermes_bench::{header, Checks};
use hermes_sim::report::{summary_row_us, Table};
use hermes_workloads::{run_micro, MicroConfig, Scenario};

fn main() {
    header("Ablation", "delayed vs synchronous shrink (§3.2.2)");
    let mut checks = Checks::new();
    // Mixed large sizes force over-sized pool hand-outs; the micro driver
    // uses a fixed size, so alternate two sizes via two runs and merge.
    let run = |delayed: bool, size: usize| {
        let mut cfg =
            MicroConfig::paper(AllocatorKind::Hermes, Scenario::Dedicated, size).scaled(512 << 20);
        cfg.ablation.delayed_shrink = delayed;
        let mut r = run_micro(&cfg);
        r.latencies.summary()
    };
    let mut t = Table::new(["variant", "avg(us)", "p75", "p90", "p95", "p99"]);
    // 200 KB requests against 256 KB-grained reservations leave a tail to
    // shrink on every hand-out.
    let delayed = run(true, 200 * 1024);
    let synchronous = run(false, 200 * 1024);
    t.row_vec(summary_row_us("delayed shrink", &delayed));
    t.row_vec(summary_row_us("synchronous", &synchronous));
    print!("{}", t.render());
    checks.check(
        "delayed shrink keeps the hot path cheaper",
        "no munmap on the request path",
        &format!("{} vs {}", delayed.avg, synchronous.avg),
        delayed.avg <= synchronous.avg,
    );
    let _ = t.write_csv(hermes_bench::results_dir().join("ablation_shrink.csv"));
    checks.finish();
}
