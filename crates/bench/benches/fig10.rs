//! Figure 10: 90th-percentile query latency of RocksDB vs memory-pressure level.

use hermes_services::ServiceKind;

fn main() {
    hermes_bench::sweep::p90_vs_pressure(10, "RocksDB", ServiceKind::Rocksdb);
}
