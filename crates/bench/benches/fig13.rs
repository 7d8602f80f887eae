//! Figure 13: SLO-violation ratio of Redis requests per allocator and pressure level.

use hermes_services::ServiceKind;

fn main() {
    hermes_bench::sweep::slo_violations(13, "Redis", ServiceKind::Redis, "83.6%");
}
