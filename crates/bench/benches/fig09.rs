//! Figure 9: 90th-percentile query latency of Redis vs memory-pressure level.

use hermes_services::ServiceKind;

fn main() {
    hermes_bench::sweep::p90_vs_pressure(9, "Redis", ServiceKind::Redis);
}
