//! Figure 11: Redis query-latency CDF (p90-p99 zoom) under 100 % memory pressure.

use hermes_services::ServiceKind;

fn main() {
    hermes_bench::sweep::cdf_at_full_pressure(
        11,
        "Redis",
        ServiceKind::Redis,
        "up to 17.0%",
        "up to 40.6%",
    );
}
