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
//! the real Hermes runtime / system allocator in wall time. The paper's
//! experiments go through [`build_service_on`], which is sim-only; real
//! memory is built by constructing the model over a real backend (with
//! [`RealFiles`] for RocksDB), as the repo benchmark does.
//!
//! When allocation *fails*, a query returns the backend's typed
//! [`AllocError`], and nothing it
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

use hermes_allocators::{AllocError, AllocatorKind, SimBackend, SimEnv};
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

/// Builds a service over a fresh sim backend of the `allocator` model,
/// joined to the experiment's [`SimEnv`] (shared OS + virtual clock).
/// Real-memory services are built directly, e.g.
/// `RedisModel::new(RealHermesBackend::with_heap_config(..)?, seed)`.
///
/// # Errors
///
/// Service set-up failures (RocksDB's WAL creation).
pub fn build_service_on(
    service: ServiceKind,
    allocator: AllocatorKind,
    env: &SimEnv,
    seed: u64,
    cfg: &HermesConfig,
) -> Result<Box<dyn Service>, AllocError> {
    let b = SimBackend::new(allocator, env, seed, cfg);
    Ok(match service {
        ServiceKind::Redis => Box::new(RedisModel::new(b, seed)),
        ServiceKind::Rocksdb => {
            let files = SimFiles::new(env.os.clone(), env.clock.clone(), b.proc_id());
            Box::new(RocksdbModel::new(b, Box::new(files), seed)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;

    #[test]
    fn factory_builds_both_services_on_sim() {
        let cfg = HermesConfig::default();
        let env = SimEnv::new(OsConfig::small_test_node());
        for sk in ServiceKind::ALL {
            let mut s = build_service_on(sk, AllocatorKind::Hermes, &env, 7, &cfg).unwrap();
            assert_eq!(s.name(), sk.name());
            let q = s
                .query(1024)
                .unwrap_or_else(|e| panic!("{sk}: query must not fail on a fresh node: {e}"));
            assert!(q.total().as_nanos() > 0);
            assert!(s.stored_bytes() >= 1024);
        }
    }
}
