//! Redis model: an in-memory key-value store where every record lives in
//! allocator memory and clients talk over loopback (which is why its
//! absolute query latencies are two orders of magnitude above RocksDB's
//! embedded API — compare the SLOs in Figures 9 and 10).
//!
//! The model is generic over its [`AllocatorBackend`]: the same query
//! path runs over the simulated allocator models in virtual time and
//! over the real Hermes runtime (or the system allocator) in wall time.
//! Model-side costs (loopback RTT, hash-table bookkeeping, per-byte
//! copies) are simulated constants in both domains; the allocation and
//! data-access latencies come from the backend — measured for real
//! backends, modelled for sims.

use crate::service::{QueryLatency, Service};
use hermes_allocators::{AllocError, AllocHandle, AllocatorBackend};
use hermes_sim::clock::{Clock, ClockHandle};
use hermes_sim::rng::DetRng;
use hermes_sim::time::SimDuration;

/// Cost constants of the Redis model.
#[derive(Debug, Clone)]
pub struct RedisCosts {
    /// Loopback round trip per query (client + kernel network stack).
    pub rtt: SimDuration,
    /// Server-side per-byte handling (parse, copy, reply serialisation).
    pub per_byte_ns: f64,
    /// Hash-table lookup/insert bookkeeping.
    pub lookup: SimDuration,
    /// Size of the per-record metadata entry (dictEntry + robj).
    pub entry_bytes: usize,
    /// Jitter sigma on the RTT.
    pub sigma: f64,
}

impl Default for RedisCosts {
    fn default() -> Self {
        RedisCosts {
            rtt: SimDuration::from_micros(250),
            per_byte_ns: 7.0,
            lookup: SimDuration::from_nanos(700),
            entry_bytes: 64,
            sigma: 0.10,
        }
    }
}

/// The Redis service model over any allocation backend.
pub struct RedisModel<B: AllocatorBackend> {
    backend: B,
    clock: ClockHandle,
    /// Stored records: entry-metadata handle, value handle, value size.
    /// Both handles are freed on delete — against the real backends
    /// these are actual allocations in a fixed-capacity heap, so
    /// nothing may leak per query.
    records: Vec<(AllocHandle, AllocHandle, usize)>,
    stored: usize,
    costs: RedisCosts,
    rng: DetRng,
}

impl<B: AllocatorBackend> std::fmt::Debug for RedisModel<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RedisModel")
            .field("backend", &self.backend.kind())
            .field("records", &self.records.len())
            .field("stored", &self.stored)
            .finish()
    }
}

impl<B: AllocatorBackend> RedisModel<B> {
    /// Creates the service over the given backend, adopting its clock.
    pub fn new(backend: B, seed: u64) -> Self {
        let clock = backend.clock();
        RedisModel {
            backend,
            clock,
            records: Vec::new(),
            stored: 0,
            costs: RedisCosts::default(),
            rng: DetRng::new(seed, "redis"),
        }
    }

    fn copy_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * self.costs.per_byte_ns) as u64)
    }
}

impl<B: AllocatorBackend> Service for RedisModel<B> {
    fn name(&self) -> &'static str {
        "Redis"
    }

    fn query(&mut self, value_bytes: usize) -> Result<QueryLatency, AllocError> {
        self.backend.advance();
        let contention = self.backend.contention();
        let rtt = self
            .costs
            .rtt
            .mul_f64(self.rng.tail_multiplier(self.costs.sigma) * contention);
        // ---- insert: allocate the entry metadata and the value ----
        let mut insert = rtt / 2 + self.costs.lookup;
        self.clock.advance(rtt / 2 + self.costs.lookup);
        let (entry, entry_lat) = self.backend.malloc(self.costs.entry_bytes)?;
        insert += entry_lat;
        let (h, val_lat) = match self.backend.malloc(value_bytes) {
            Ok(ok) => ok,
            Err(e) => {
                self.backend.free(entry);
                return Err(e);
            }
        };
        insert += val_lat;
        let copy = self.copy_cost(value_bytes).mul_f64(contention);
        insert += copy;
        self.clock.advance(copy);
        self.records.push((entry, h, value_bytes));
        self.stored += value_bytes;
        // ---- read the record back ----
        let mut read = rtt / 2 + self.costs.lookup;
        self.clock.advance(rtt / 2 + self.costs.lookup);
        read += self.backend.access(h, value_bytes);
        let copy = self.copy_cost(value_bytes).mul_f64(contention);
        read += copy;
        self.clock.advance(copy);
        Ok(QueryLatency { insert, read })
    }

    fn delete_one(&mut self) -> SimDuration {
        if self.records.is_empty() {
            return SimDuration::ZERO;
        }
        let idx = self.rng.index(self.records.len());
        let (entry, h, size) = self.records.swap_remove(idx);
        self.stored -= size;
        self.clock.advance(self.costs.lookup);
        self.costs.lookup + self.backend.free(h) + self.backend.free(entry)
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
    use hermes_allocators::{AllocatorKind, SimBackend, SimEnv};
    use hermes_core::HermesConfig;
    use hermes_os::config::OsConfig;

    fn redis(kind: AllocatorKind) -> (SimEnv, RedisModel<SimBackend>) {
        let env = SimEnv::new(OsConfig::small_test_node());
        let backend = SimBackend::new(kind, &env, 5, &HermesConfig::default());
        (env, RedisModel::new(backend, 5))
    }

    #[test]
    fn small_query_latency_is_rtt_dominated() {
        let (env, mut r) = redis(AllocatorKind::Glibc);
        let mut lats = Vec::new();
        for _ in 0..200 {
            let q = r
                .query(1024)
                .unwrap_or_else(|e| panic!("dedicated small query must not fail: {e}"));
            lats.push(q.total().as_micros());
            env.clock.advance(SimDuration::from_micros(5));
        }
        lats.sort_unstable();
        let p90 = lats[lats.len() * 9 / 10];
        assert!(
            (200..600).contains(&p90),
            "p90 {p90}us near the paper's 330us SLO scale"
        );
    }

    #[test]
    fn large_query_latency_in_millisecond_range() {
        let (env, mut r) = redis(AllocatorKind::Glibc);
        let mut lats = Vec::new();
        for _ in 0..50 {
            let q = r
                .query(200 * 1024)
                .unwrap_or_else(|e| panic!("dedicated large query must not fail: {e}"));
            lats.push(q.total().as_micros());
            env.clock.advance(SimDuration::from_micros(20));
        }
        lats.sort_unstable();
        let p90 = lats[lats.len() * 9 / 10];
        assert!(
            (1_000..8_000).contains(&p90),
            "p90 {p90}us near the paper's 4326us SLO scale"
        );
    }

    #[test]
    fn stored_bytes_track_inserts_and_deletes() {
        let (_env, mut r) = redis(AllocatorKind::Glibc);
        for _ in 0..10 {
            r.query(1024)
                .unwrap_or_else(|e| panic!("insert must not exhaust at this scale: {e}"));
        }
        assert_eq!(r.stored_bytes(), 10 * 1024);
        r.delete_one();
        assert_eq!(r.stored_bytes(), 9 * 1024);
        assert_eq!(r.name(), "Redis");
    }

    #[test]
    fn queries_elapse_on_the_shared_clock() {
        let (env, mut r) = redis(AllocatorKind::Glibc);
        let t0 = env.now();
        let q = r
            .query(1024)
            .unwrap_or_else(|e| panic!("query must not exhaust on an idle node: {e}"));
        assert_eq!(
            env.now(),
            t0 + q.total(),
            "query latency has already elapsed on the clock"
        );
    }

    #[test]
    fn works_with_every_allocator() {
        for kind in AllocatorKind::ALL {
            let (_env, mut r) = redis(kind);
            let q = r
                .query(2048)
                .unwrap_or_else(|e| panic!("{kind}: query must not exhaust: {e}"));
            assert!(q.total() > SimDuration::ZERO, "{kind}");
        }
    }
}
