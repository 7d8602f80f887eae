//! RocksDB model: a disk-based LSM key-value store. Inserts write into an
//! allocator-backed memtable arena and append to the WAL; full memtables
//! flush to SST files (populating the file cache); reads hit the memtable
//! or the SSTs through the page cache.
//!
//! This is the service whose §2.2 case study motivates the paper: the
//! insertion (allocation) side dominates query latency (Figure 2), and
//! the memtable arena's churn of ≥128 KB blocks is exactly the mmap-path
//! pattern Hermes' segregated pool accelerates.
//!
//! Generic over its [`AllocatorBackend`]; file traffic goes through a
//! [`FileStore`] so the simulated page cache and the wall-clock
//! stand-in drive the identical code path.

use crate::files::FileStore;
use crate::service::{QueryLatency, Service};
use hermes_allocators::{AllocError, AllocHandle, AllocatorBackend};
use hermes_os::prelude::*;
use hermes_sim::clock::{Clock, ClockHandle};
use hermes_sim::rng::DetRng;
use hermes_sim::time::SimDuration;

/// Cost constants of the RocksDB model.
#[derive(Debug, Clone)]
pub struct RocksdbCosts {
    /// Per-byte memtable copy + key encoding.
    pub per_byte_ns: f64,
    /// Skiplist insert / point lookup bookkeeping.
    pub lookup: SimDuration,
    /// Arena block size (allocated through the mmap path).
    pub arena_block: usize,
    /// Memtable capacity before a flush.
    pub memtable_cap: usize,
    /// Foreground stall when a flush is scheduled (the flush itself is a
    /// background job).
    pub flush_stall: SimDuration,
    /// Maximum SST files before the oldest is compacted away.
    pub max_ssts: usize,
    /// Jitter sigma.
    pub sigma: f64,
}

impl Default for RocksdbCosts {
    fn default() -> Self {
        RocksdbCosts {
            per_byte_ns: 1.3,
            lookup: SimDuration::from_nanos(900),
            arena_block: 256 * 1024,
            memtable_cap: 64 << 20,
            flush_stall: SimDuration::from_micros(40),
            max_ssts: 24,
            sigma: 0.18,
        }
    }
}

/// The RocksDB service model over any allocation backend.
pub struct RocksdbModel<B: AllocatorBackend> {
    backend: B,
    clock: ClockHandle,
    files: Box<dyn FileStore>,
    costs: RocksdbCosts,
    wal: FileId,
    /// Live SST files, oldest first.
    ssts: Vec<FileId>,
    /// Live arena blocks backing the current memtable.
    arena_blocks: Vec<AllocHandle>,
    arena_left: usize,
    memtable_bytes: usize,
    stored: usize,
    rng: DetRng,
}

impl<B: AllocatorBackend> std::fmt::Debug for RocksdbModel<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RocksdbModel")
            .field("backend", &self.backend.kind())
            .field("memtable_bytes", &self.memtable_bytes)
            .field("ssts", &self.ssts.len())
            .field("stored", &self.stored)
            .finish()
    }
}

impl<B: AllocatorBackend> RocksdbModel<B> {
    /// Creates the store; registers its WAL with the file store.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] if the WAL cannot be created.
    pub fn new(backend: B, mut files: Box<dyn FileStore>, seed: u64) -> Result<Self, AllocError> {
        let wal = files.create()?;
        let clock = backend.clock();
        Ok(RocksdbModel {
            backend,
            clock,
            files,
            costs: RocksdbCosts::default(),
            wal,
            ssts: Vec::new(),
            arena_blocks: Vec::new(),
            arena_left: 0,
            memtable_bytes: 0,
            stored: 0,
            rng: DetRng::new(seed, "rocksdb"),
        })
    }

    /// Cost knobs (tests shrink the memtable to force flushes).
    pub fn costs_mut(&mut self) -> &mut RocksdbCosts {
        &mut self.costs
    }

    /// SST files currently live (flush/compaction observability).
    pub fn sst_count(&self) -> usize {
        self.ssts.len()
    }

    fn copy_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * self.costs.per_byte_ns) as u64)
    }

    fn flush(&mut self) -> SimDuration {
        // Background flush: SST written to the file cache, memtable arena
        // released. Only a small scheduling stall hits the foreground —
        // the SST write must not advance the foreground clock.
        if let Ok(sst) = self.files.create() {
            let _ = self.files.write_background(sst, self.memtable_bytes);
            self.ssts.push(sst);
        }
        for h in std::mem::take(&mut self.arena_blocks) {
            self.backend.free(h);
        }
        self.arena_left = 0;
        self.memtable_bytes = 0;
        while self.ssts.len() > self.costs.max_ssts {
            let victim = self.ssts.remove(0);
            self.files.delete(victim);
        }
        self.clock.advance(self.costs.flush_stall);
        self.costs.flush_stall
    }
}

impl<B: AllocatorBackend> Service for RocksdbModel<B> {
    fn name(&self) -> &'static str {
        "Rocksdb"
    }

    fn query(&mut self, value_bytes: usize) -> Result<QueryLatency, AllocError> {
        self.backend.advance();
        let contention = self.backend.contention();
        let jitter = self.rng.tail_multiplier(self.costs.sigma);
        // ---- insert ----
        let mut insert = self.costs.lookup.mul_f64(jitter * contention);
        self.clock.advance(insert);
        // Every insert allocates a skiplist node + key slice (small path).
        let (node, node_lat) = self.backend.malloc(48 + 24)?;
        self.arena_blocks.push(node);
        insert += node_lat;
        if self.arena_left < value_bytes {
            // New arena block through the allocator (mmap path for the
            // default 256 KB block — the Figure 2 hot spot).
            let block = self.costs.arena_block.max(value_bytes);
            let (h, lat) = self.backend.malloc(block)?;
            insert += lat;
            self.arena_blocks.push(h);
            self.arena_left = block;
        }
        self.arena_left -= value_bytes;
        let copy = self.copy_cost(value_bytes).mul_f64(contention);
        insert += copy;
        self.clock.advance(copy);
        // WAL append.
        insert += self.files.write(self.wal, value_bytes)?;
        self.memtable_bytes += value_bytes;
        self.stored += value_bytes;
        if self.memtable_bytes >= self.costs.memtable_cap {
            insert += self.flush();
        }
        // ---- read ----
        let mut read = self
            .costs
            .lookup
            .mul_f64(self.rng.tail_multiplier(self.costs.sigma));
        self.clock.advance(read);
        let memtable_frac = if self.stored == 0 {
            1.0
        } else {
            self.memtable_bytes as f64 / self.stored as f64
        };
        if self.rng.unit() < memtable_frac || self.ssts.is_empty() {
            // Memtable hit: touch the arena memory (swap-in risk under
            // pressure).
            if let Some(&h) = self.arena_blocks.last() {
                read += self.backend.access(h, value_bytes);
            }
            let copy = self.copy_cost(value_bytes.min(16 * 1024));
            read += copy;
            self.clock.advance(copy);
        } else {
            let idx = self.rng.index(self.ssts.len());
            let sst = self.ssts[idx];
            read += self.files.read(sst, value_bytes)?;
            let copy = self.copy_cost(value_bytes.min(16 * 1024));
            read += copy;
            self.clock.advance(copy);
        }
        Ok(QueryLatency { insert, read })
    }

    fn delete_one(&mut self) -> SimDuration {
        // Tombstone write: tiny memtable insert.
        self.stored = self.stored.saturating_sub(1024);
        self.clock.advance(self.costs.lookup);
        self.costs.lookup
    }

    fn stored_bytes(&self) -> usize {
        self.stored
    }

    fn advance(&mut self) {
        self.backend.advance();
    }

    fn backend(&self) -> &dyn AllocatorBackend {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::SimFiles;
    use hermes_allocators::{AllocatorKind, SimBackend, SimEnv};
    use hermes_core::HermesConfig;
    use hermes_os::config::OsConfig;

    fn rocks(kind: AllocatorKind) -> (SimEnv, RocksdbModel<SimBackend>) {
        let env = SimEnv::new(OsConfig::small_test_node());
        let backend = SimBackend::new(kind, &env, 6, &HermesConfig::default());
        let files = Box::new(SimFiles::new(
            env.os.clone(),
            env.clock.clone(),
            backend.proc_id(),
        ));
        let r = RocksdbModel::new(backend, files, 6).unwrap();
        (env, r)
    }

    #[test]
    fn small_queries_are_tens_of_microseconds() {
        let (env, mut r) = rocks(AllocatorKind::Glibc);
        let mut lats = Vec::new();
        for _ in 0..500 {
            let q = r
                .query(1024)
                .unwrap_or_else(|e| panic!("dedicated small query must not fail: {e}"));
            lats.push(q.total().as_nanos());
            env.clock.advance(SimDuration::from_micros(2));
        }
        lats.sort_unstable();
        let p90 = lats[lats.len() * 9 / 10] / 1000;
        assert!(
            (3..60).contains(&p90),
            "p90 {p90}us near the paper's 17.6us scale"
        );
    }

    #[test]
    fn insert_dominates_query_latency() {
        // The Figure 2 observation: allocation-heavy insertion is the
        // bulk of the query, especially for large records.
        let (_env, mut r) = rocks(AllocatorKind::Glibc);
        let mut small_share = Vec::new();
        for _ in 0..300 {
            let q = r
                .query(1024)
                .unwrap_or_else(|e| panic!("small insert must not exhaust: {e}"));
            small_share.push(q.insert_share());
        }
        let avg_small: f64 = small_share.iter().sum::<f64>() / small_share.len() as f64;
        let (_env2, mut r2) = rocks(AllocatorKind::Glibc);
        let mut large_share = Vec::new();
        for _ in 0..100 {
            let q = r2
                .query(200 * 1024)
                .unwrap_or_else(|e| panic!("large insert must not exhaust: {e}"));
            large_share.push(q.insert_share());
        }
        let avg_large: f64 = large_share.iter().sum::<f64>() / large_share.len() as f64;
        assert!(avg_small > 50.0, "small insert share {avg_small:.1}%");
        assert!(avg_large > 80.0, "large insert share {avg_large:.1}%");
        assert!(avg_large > avg_small, "large more insert-dominated");
    }

    #[test]
    fn memtable_flushes_to_sst() {
        let (env, mut r) = rocks(AllocatorKind::Glibc);
        // Shrink the memtable so the test flushes quickly.
        r.costs_mut().memtable_cap = 1 << 20;
        for _ in 0..30 {
            r.query(64 * 1024)
                .unwrap_or_else(|e| panic!("flush-path query must not fail: {e}"));
        }
        assert!(!r.ssts.is_empty(), "flush created SSTs");
        assert!(r.memtable_bytes < (1 << 20));
        assert!(
            env.os().file_cached_pages() > 0,
            "SSTs populate the file cache"
        );
    }

    #[test]
    fn background_flush_does_not_stall_the_foreground_clock() {
        let (env, mut r) = rocks(AllocatorKind::Glibc);
        r.costs_mut().memtable_cap = 256 * 1024;
        let mut flushes = 0;
        for _ in 0..40 {
            let before = r.sst_count();
            let t0 = env.now();
            let q = r
                .query(64 * 1024)
                .unwrap_or_else(|e| panic!("flush-path query must not fail: {e}"));
            let elapsed = env.now().duration_since(t0);
            // The SST write is background work: the clock may exceed the
            // reported foreground latency only by the (tiny) arena-block
            // release costs, never by the memtable-sized write.
            assert!(
                elapsed <= q.total() + SimDuration::from_micros(50),
                "clock moved {elapsed} vs reported {}",
                q.total()
            );
            if r.sst_count() > before {
                flushes += 1;
            }
        }
        assert!(flushes > 0, "the loop exercised the flush path");
    }

    #[test]
    fn compaction_caps_sst_count() {
        let (_env, mut r) = rocks(AllocatorKind::Glibc);
        r.costs_mut().memtable_cap = 256 * 1024;
        r.costs_mut().max_ssts = 3;
        for _ in 0..60 {
            r.query(64 * 1024)
                .unwrap_or_else(|e| panic!("compaction-path query must not fail: {e}"));
        }
        assert!(r.ssts.len() <= 3);
    }

    #[test]
    fn works_with_every_allocator() {
        for kind in AllocatorKind::ALL {
            let (_env, mut r) = rocks(kind);
            let q = r
                .query(200 * 1024)
                .unwrap_or_else(|e| panic!("{kind}: query must not exhaust: {e}"));
            assert!(q.total() > SimDuration::ZERO, "{kind}");
        }
    }
}
