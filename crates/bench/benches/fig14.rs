//! Figure 14: SLO-violation ratio of RocksDB requests per allocator and pressure level.

use hermes_services::ServiceKind;

fn main() {
    hermes_bench::sweep::slo_violations(14, "RocksDB", ServiceKind::Rocksdb, "84.3%");
}
