//! # hermes-workloads — the paper's experiments as reusable drivers
//!
//! Each module reproduces a slice of the evaluation (§5):
//!
//! * [`micro`] — the fixed-size-request micro benchmark under the three
//!   memory scenarios (Figures 3, 7, 8).
//! * [`colocation`] — Redis/RocksDB queries next to batch jobs at
//!   0–150 % memory-pressure levels (Figures 2, 9–12).
//! * [`slo`] — SLO derivation (Glibc dedicated p90) and violation
//!   analysis (Figures 13, 14).
//! * [`throughput`] — 24-hour batch throughput under the Default /
//!   Hermes / Killing / Dedicated policies (Table 1).
//! * [`sensitivity`] — the `RSV_FACTOR` sweep (Figures 15, 16).
//! * [`overhead`] — management-thread, reserve and daemon overhead (§5.5).
//!
//! Every driver is deterministic for a given seed; the bench harnesses in
//! `hermes-bench` print paper-vs-measured tables from these results.

#![warn(missing_docs)]

pub mod colocation;
pub mod micro;
pub mod overhead;
pub mod sensitivity;
pub mod slo;
pub mod throughput;

pub use colocation::{run_colocation, ColocationConfig, ColocationResult, PRESSURE_LEVELS};
pub use micro::{run_micro, run_micro_all, run_micro_on, MicroConfig, MicroResult, Scenario};
pub use overhead::{measure_overhead, OverheadReport};
pub use sensitivity::{run_sensitivity, SensitivityPoint, FACTORS};
pub use slo::{
    run_service_latency, run_service_slo, violation_reduction_pct, ServiceLatencyRun,
    ServiceSloReport, Slo,
};
pub use throughput::{run_throughput, ThroughputConfig, ThroughputResult, ThroughputScenario};
