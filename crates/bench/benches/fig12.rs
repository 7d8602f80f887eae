//! Figure 12: RocksDB query-latency CDF (p90-p99 zoom) under 100 % memory pressure.

use hermes_services::ServiceKind;

fn main() {
    hermes_bench::sweep::cdf_at_full_pressure(
        12,
        "RocksDB",
        ServiceKind::Rocksdb,
        "up to 20.6%",
        "up to 63.4%",
    );
}
