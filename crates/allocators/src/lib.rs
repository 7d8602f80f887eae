//! # hermes-allocators — simulated allocators over the OS substrate
//!
//! Behavioural models of the four allocators the paper compares (§5.1):
//!
//! * [`GlibcSim`] — stock ptmalloc: on-demand mapping construction,
//!   exact-shortfall `sbrk`, immediate `munmap` of large chunks.
//! * [`JemallocSim`] — slab runs from 2 MiB extents, dirty-page decay;
//!   stable but slower dedicated-system latency.
//! * [`TcmallocSim`] — thread cache + central lists + page heap; lowest
//!   average, very long tail.
//! * [`HermesSim`] — the paper's mechanism, executing the same
//!   `hermes_core::policy` code as the real allocator: gradual
//!   reservation with per-step lock windows, the segregated mmap pool
//!   with delayed shrink, `mlock`-constructed mappings.
//!
//! Plus [`MonitorDaemonSim`], the proactive-reclamation daemon.
//!
//! All models implement [`SimAllocator`]; experiments drive them through
//! trait objects built by [`build_allocator`].
//!
//! Above the models sits the **backend-agnostic API** ([`backend`]):
//! the [`AllocatorBackend`] trait unifies the four sim models (via
//! [`SimBackend`]) with two *real* wall-clock backends — the actual
//! Hermes runtime ([`RealHermesBackend`]) and the process allocator
//! ([`RealSystemBackend`]) — so every service and workload runs on
//! simulated and real memory through one code path. Allocation failure
//! is the typed [`AllocError`] every backend returns when it really runs
//! out.

#![warn(missing_docs)]

pub mod backend;
pub mod costs;
pub mod daemon_sim;
pub mod glibc;
pub mod heap_model;
pub mod hermes;
pub mod jemalloc;
pub mod real;
pub mod tcmalloc;
pub mod traits;

pub use backend::{
    build_backend, AllocError, AllocatorBackend, BackendKind, BackendStats, BuildError, SharedOs,
    SimBackend, SimEnv,
};
pub use daemon_sim::MonitorDaemonSim;
pub use glibc::GlibcSim;
pub use hermes::HermesSim;
pub use jemalloc::JemallocSim;
pub use real::{RealHermesBackend, RealSystemBackend};
pub use tcmalloc::TcmallocSim;
pub use traits::{AllocHandle, AllocatorKind, SimAllocator};

use hermes_core::HermesConfig;
use hermes_os::Os;

/// Builds a boxed allocator of the requested kind, registering a new
/// latency-critical process with the OS.
pub fn build_allocator(
    kind: AllocatorKind,
    os: &mut Os,
    seed: u64,
    hermes_cfg: &HermesConfig,
) -> Box<dyn SimAllocator> {
    match kind {
        AllocatorKind::Glibc => Box::new(GlibcSim::new(os, seed)),
        AllocatorKind::Jemalloc => Box::new(JemallocSim::new(os, seed)),
        AllocatorKind::Tcmalloc => Box::new(TcmallocSim::new(os, seed)),
        AllocatorKind::Hermes => Box::new(HermesSim::new(os, seed, hermes_cfg.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;
    use hermes_sim::time::SimTime;

    #[test]
    fn factory_builds_all_kinds() {
        let mut os = Os::new(OsConfig::small_test_node());
        let cfg = HermesConfig::default();
        for kind in AllocatorKind::ALL {
            let mut a = build_allocator(kind, &mut os, 9, &cfg);
            assert_eq!(a.kind(), kind);
            let (h, lat) = a.malloc(1024, SimTime::ZERO, &mut os).unwrap();
            assert!(lat.as_nanos() > 0);
            a.free(h, SimTime::from_micros(5), &mut os);
        }
    }

    #[test]
    fn trait_objects_are_usable_across_time() {
        let mut os = Os::new(OsConfig::small_test_node());
        let cfg = HermesConfig::default();
        let mut allocs: Vec<Box<dyn SimAllocator>> = AllocatorKind::ALL
            .iter()
            .map(|&k| build_allocator(k, &mut os, 11, &cfg))
            .collect();
        let mut now = SimTime::ZERO;
        for step in 0..50u64 {
            for a in &mut allocs {
                let (h, lat) = a.malloc(2048, now, &mut os).unwrap();
                now += lat;
                let _ = a.access(h, 2048, now, &mut os);
                a.free(h, now, &mut os);
            }
            now += hermes_sim::time::SimDuration::from_micros(step);
        }
    }
}
