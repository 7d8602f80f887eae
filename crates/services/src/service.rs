//! The latency-critical-service interface used by the experiment drivers.
//!
//! Since the backend redesign, a service is bound to one
//! [`AllocatorBackend`] and the backend's clock at construction; queries
//! take no time or OS parameters. Latencies returned by
//! [`Service::query`] and [`Service::delete_one`] have already elapsed
//! on the service's clock (see `hermes_sim::clock`), so drivers advance
//! only think time between queries — the identical loop drives the
//! virtual-time sims and the real wall-clock runtime.

use hermes_allocators::{AllocError, AllocatorBackend};
use hermes_sim::time::SimDuration;

/// Latency of one query, split the way Figure 2 reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryLatency {
    /// The data-insertion part (includes memory allocation).
    pub insert: SimDuration,
    /// The read part.
    pub read: SimDuration,
}

impl QueryLatency {
    /// End-to-end query latency.
    pub fn total(&self) -> SimDuration {
        self.insert + self.read
    }

    /// Insert share of the total, in percent (Figure 2's metric).
    pub fn insert_share(&self) -> f64 {
        let t = self.total().as_nanos();
        if t == 0 {
            0.0
        } else {
            self.insert.as_nanos() as f64 / t as f64 * 100.0
        }
    }
}

/// A latency-critical key-value service under test.
///
/// One *query* is the paper's unit of §5.3: a data insertion followed by a
/// read of the inserted record.
pub trait Service {
    /// Service name for reports.
    fn name(&self) -> &'static str;

    /// Runs one insert+read query with a record of `value_bytes`.
    /// The returned latency has already elapsed on the service's clock.
    ///
    /// # Errors
    ///
    /// Propagates the backend's typed [`AllocError`]. Memory the query
    /// allocated before the failure is freed or stays owned by the
    /// service; none of it leaks.
    fn query(&mut self, value_bytes: usize) -> Result<QueryLatency, AllocError>;

    /// Deletes one stored record (workload churn). Returns its latency,
    /// already elapsed on the clock.
    fn delete_one(&mut self) -> SimDuration;

    /// Bytes of user data currently stored.
    fn stored_bytes(&self) -> usize;

    /// Fast-forwards service background work to the clock's now.
    fn advance(&mut self);

    /// The underlying backend (for stats and overhead inspection).
    fn backend(&self) -> &dyn AllocatorBackend;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_latency_math() {
        let q = QueryLatency {
            insert: SimDuration::from_micros(75),
            read: SimDuration::from_micros(25),
        };
        assert_eq!(q.total(), SimDuration::from_micros(100));
        assert!((q.insert_share() - 75.0).abs() < 1e-9);
        assert_eq!(QueryLatency::default().insert_share(), 0.0);
    }
}
