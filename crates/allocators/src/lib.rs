//! # hermes-allocators — simulated allocators over the OS substrate
//!
//! Behavioural models of the four allocators the paper compares (§5.1),
//! one per [`AllocatorKind`]:
//!
//! * Glibc — stock ptmalloc: on-demand mapping construction,
//!   exact-shortfall `sbrk`, immediate `munmap` of large chunks.
//! * jemalloc — slab runs from 2 MiB extents, dirty-page decay; stable
//!   but slower dedicated-system latency.
//! * TCMalloc — thread cache + central lists + page heap; lowest
//!   average, very long tail.
//! * Hermes — the paper's mechanism, executing the same
//!   `hermes_core::policy` thresholds and reservation plans as the real
//!   allocator: gradual reservation with per-step lock windows, plus the
//!   paper's segregated mmap pool with delayed shrink ([`policy`]; the
//!   real runtime carves its large blocks from a free map instead), and
//!   `mlock`-constructed mappings. [`HermesAblation`] turns the two §3.2
//!   mechanisms off for the ablation benches.
//!
//! Plus [`MonitorDaemonSim`], the proactive-reclamation daemon, on the
//! `hermes_core::policy::reclaim` thresholds.
//!
//! The models are handle-free policies: each decides what an allocation
//! of a given size costs and what it does to the simulated OS, and
//! nothing more. [`SimBackend::new`] builds one, and the [`SimBackend`]
//! is the one way to drive it: it keeps the sim's only handle table.
//!
//! Above the models sits the **backend-agnostic API** ([`backend`]):
//! the [`AllocatorBackend`] trait unifies the four sim models (via
//! [`SimBackend`]) with two *real* wall-clock backends — the actual
//! Hermes runtime ([`RealHermesBackend`]) and the process allocator
//! ([`RealSystemBackend`]) — so the services run one query path on
//! simulated and real memory. The paper's experiments build sim
//! backends; real ones are constructed directly by the caller (the repo
//! benchmark under `benchmark/` and the tests). Allocation failure is
//! the typed [`AllocError`] every backend returns when it really runs
//! out.

#![warn(missing_docs)]

pub mod backend;
pub mod costs;
pub mod daemon_sim;
mod glibc;
pub mod heap_model;
mod hermes;
mod jemalloc;
pub mod policy;
pub mod real;
mod tcmalloc;
pub mod traits;

pub use backend::{
    AllocError, AllocatorBackend, BackendKind, BackendStats, SharedOs, SimBackend, SimEnv,
};
pub use daemon_sim::MonitorDaemonSim;
pub use hermes::HermesAblation;
pub use real::{RealHermesBackend, RealSystemBackend};
pub use traits::{AllocHandle, AllocatorKind};
