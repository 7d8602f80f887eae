//! Smoke test for the build surface: every allocator model and service
//! kind must be constructible through the public sim factories, and every
//! service kind by direct construction over the real backends, so a
//! manifest or feature regression fails here in tier-1 instead of only at
//! bench time. The services' behaviour over real memory is covered by
//! `crates/services/tests/real_backend.rs`.

use hermes::allocators::{
    build_allocator, AllocatorBackend, AllocatorKind, RealHermesBackend, RealSystemBackend,
    SimEnv,
};
use hermes::core::rt::HermesHeapConfig;
use hermes::core::HermesConfig;
use hermes::os::prelude::*;
use hermes::services::{
    build_service_on, RealFiles, RedisModel, RocksdbModel, Service, ServiceKind,
};
use hermes::sim::time::SimTime;

#[test]
fn every_allocator_kind_builds_and_allocates() {
    let mut os = Os::new(OsConfig::small_test_node());
    let cfg = HermesConfig::default();
    for kind in AllocatorKind::ALL {
        let mut alloc = build_allocator(kind, &mut os, 1, &cfg);
        assert_eq!(alloc.kind(), kind, "factory built the requested kind");
        let (handle, latency) = alloc
            .malloc(4096, SimTime::ZERO, &mut os)
            .unwrap_or_else(|e| panic!("{kind:?}: malloc failed: {e:?}"));
        assert!(latency.as_nanos() > 0, "{kind:?}: latency must be positive");
        alloc.free(handle, SimTime::from_micros(1), &mut os);
    }
}

#[test]
fn every_service_kind_builds_over_every_sim_backend() {
    let cfg = HermesConfig::default();
    for service in ServiceKind::ALL {
        for kind in AllocatorKind::ALL {
            let env = SimEnv::new(OsConfig::small_test_node());
            let mut svc = build_service_on(service, kind, &env, 2, &cfg)
                .unwrap_or_else(|e| panic!("{service}/{kind:?}: build failed: {e}"));
            assert_eq!(svc.name(), service.name());
            let q = svc
                .query(1024)
                .unwrap_or_else(|e| panic!("{service}/{kind:?}: query failed: {e}"));
            assert!(q.total().as_nanos() > 0);
        }
    }
}

#[test]
fn every_service_kind_builds_over_the_real_backends() {
    for service in ServiceKind::ALL {
        for on_hermes in [true, false] {
            let backend: Box<dyn AllocatorBackend> = if on_hermes {
                Box::new(
                    RealHermesBackend::with_heap_config(HermesHeapConfig::small())
                        .expect("arena reservation"),
                )
            } else {
                Box::new(RealSystemBackend::new())
            };
            let mut svc: Box<dyn Service> = match service {
                ServiceKind::Redis => Box::new(RedisModel::new(backend, 2)),
                ServiceKind::Rocksdb => Box::new(
                    RocksdbModel::new(backend, Box::new(RealFiles::new()), 2)
                        .unwrap_or_else(|e| panic!("{service}: build failed: {e}")),
                ),
            };
            let kind = svc.backend().kind();
            assert_eq!(svc.name(), service.name());
            let q = svc
                .query(1024)
                .unwrap_or_else(|e| panic!("{service}/{kind}: query failed: {e}"));
            assert!(q.total().as_nanos() > 0);
        }
    }
}

#[test]
fn facade_reexports_are_wired() {
    // One symbol per re-exported member crate, so a facade manifest
    // regression (missing dependency edge) is caught at compile time.
    let _ = hermes::core::DEFAULT_MMAP_THRESHOLD;
    let _ = hermes::sim::time::SimDuration::from_nanos(1);
    let _ = hermes::batch::DEFAULT_FREE_FLOOR;
    let _ = hermes::workloads::PRESSURE_LEVELS;
    let _ = AllocatorKind::ALL;
    let _ = ServiceKind::ALL;
}
