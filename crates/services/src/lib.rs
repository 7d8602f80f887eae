//! # hermes-services — latency-critical service models
//!
//! The two real-world services of the paper's evaluation (§5.3):
//!
//! * [`RedisModel`] — in-memory KV store; every record lives in allocator
//!   memory; clients arrive over loopback.
//! * [`RocksdbModel`] — disk-based LSM store; inserts go through an
//!   allocator-backed memtable arena and the WAL; flushes populate the
//!   file cache.
//!
//! A *query* is one insertion followed by one read of the same record,
//! with 1 KB ("small") or 200 KB ("large") values. Both services are
//! generic over [`hermes_allocators::AllocatorBackend`], so one query
//! path drives the four simulated allocator models in virtual time *and*
//! the real Hermes runtime / system allocator in wall time. Build
//! concrete models directly, or go through [`build_service_on`] with a
//! [`BackendKind`].
//!
//! When allocation *fails*, a query returns the backend's typed
//! [`AllocError`](hermes_allocators::AllocError), and nothing it
//! allocated before the failure leaks.

#![warn(missing_docs)]

pub mod files;
pub mod redis;
pub mod rocksdb;
pub mod service;

pub use files::{FileStore, RealFiles, SimFiles};
pub use redis::{RedisCosts, RedisModel};
pub use rocksdb::{RocksdbCosts, RocksdbModel};
pub use service::{QueryLatency, Service};

use hermes_allocators::{
    build_backend, AllocatorBackend, BackendKind, BuildError, SimBackend, SimEnv,
};
use hermes_core::HermesConfig;

/// Which service model to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// The in-memory store.
    Redis,
    /// The disk-based LSM store.
    Rocksdb,
}

impl ServiceKind {
    /// Both services, in the paper's order.
    pub const ALL: [ServiceKind; 2] = [ServiceKind::Redis, ServiceKind::Rocksdb];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Redis => "Redis",
            ServiceKind::Rocksdb => "Rocksdb",
        }
    }
}

impl std::fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds a service over a freshly constructed backend of `backend`
/// kind. Sim kinds join the experiment's [`SimEnv`] (shared OS +
/// virtual clock); real kinds boot actual memory and run on wall time.
///
/// # Errors
///
/// [`BuildError::NeedsSimEnv`] for a sim backend without an
/// environment; otherwise arena-reservation or set-up failures.
pub fn build_service_on(
    service: ServiceKind,
    backend: BackendKind,
    env: Option<&SimEnv>,
    seed: u64,
    cfg: &HermesConfig,
) -> Result<Box<dyn Service>, BuildError> {
    fn finish<B: AllocatorBackend + 'static>(
        service: ServiceKind,
        b: B,
        files: Box<dyn FileStore>,
        seed: u64,
    ) -> Result<Box<dyn Service>, BuildError> {
        Ok(match service {
            ServiceKind::Redis => Box::new(RedisModel::new(b, seed)),
            ServiceKind::Rocksdb => Box::new(RocksdbModel::new(b, files, seed)?),
        })
    }
    match backend {
        BackendKind::Sim(kind) => {
            let env = env.ok_or(BuildError::NeedsSimEnv)?;
            let b = SimBackend::new(kind, env, seed, cfg);
            let files: Box<dyn FileStore> = Box::new(SimFiles::new(
                env.os.clone(),
                env.clock.clone(),
                b.proc_id(),
            ));
            finish(service, b, files, seed)
        }
        real => {
            let b = build_backend(real, None, seed, cfg)?;
            finish(service, b, Box::new(RealFiles::new()), seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;
    use hermes_sim::clock::Clock;

    #[test]
    fn factory_builds_both_services_on_sim() {
        let cfg = HermesConfig::default();
        let env = SimEnv::new(OsConfig::small_test_node());
        for sk in ServiceKind::ALL {
            let mut s = build_service_on(
                sk,
                BackendKind::Sim(hermes_allocators::AllocatorKind::Hermes),
                Some(&env),
                7,
                &cfg,
            )
            .unwrap();
            assert_eq!(s.name(), sk.name());
            let q = s
                .query(1024)
                .unwrap_or_else(|e| panic!("{sk}: query must not fail on a fresh node: {e}"));
            assert!(q.total().as_nanos() > 0);
            assert!(s.stored_bytes() >= 1024);
        }
    }

    #[test]
    fn factory_builds_both_services_on_real_system() {
        let cfg = HermesConfig::default();
        for sk in ServiceKind::ALL {
            let mut s = build_service_on(sk, BackendKind::RealSystem, None, 7, &cfg).unwrap();
            let q = s
                .query(1024)
                .unwrap_or_else(|e| panic!("{sk}: query must not fail on a fresh node: {e}"));
            assert!(q.total().as_nanos() > 0, "{sk}: wall-clock latency");
            assert!(!s.backend().clock().is_virtual());
        }
    }

    #[test]
    fn sim_factory_requires_env() {
        let cfg = HermesConfig::default();
        let err = build_service_on(
            ServiceKind::Redis,
            BackendKind::Sim(hermes_allocators::AllocatorKind::Glibc),
            None,
            1,
            &cfg,
        )
        .err()
        .expect("must fail without env");
        assert!(matches!(err, BuildError::NeedsSimEnv));
    }
}
