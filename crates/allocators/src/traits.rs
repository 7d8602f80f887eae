//! The allocator kinds the paper compares, the opaque handle every
//! backend hands out, and the policy interface the four sim models
//! implement.

use hermes_os::prelude::*;
use hermes_sim::time::{SimDuration, SimTime};
use std::fmt;

/// Which allocator model is in use (the paper's comparison set, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// Stock Glibc ptmalloc (the paper's primary baseline).
    Glibc,
    /// jemalloc (Redis' default allocator).
    Jemalloc,
    /// TCMalloc (Google's thread-caching malloc).
    Tcmalloc,
    /// Hermes (the paper's contribution).
    Hermes,
}

impl AllocatorKind {
    /// All four kinds, in the paper's plotting order.
    pub const ALL: [AllocatorKind; 4] = [
        AllocatorKind::Hermes,
        AllocatorKind::Glibc,
        AllocatorKind::Jemalloc,
        AllocatorKind::Tcmalloc,
    ];

    /// Display name used in tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Glibc => "Glibc",
            AllocatorKind::Jemalloc => "jemalloc",
            AllocatorKind::Tcmalloc => "TCMalloc",
            AllocatorKind::Hermes => "Hermes",
        }
    }
}

impl fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Opaque handle to a live simulated allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocHandle(pub u64);

/// One allocator model's policy and cost model, bound to one process.
///
/// A model holds no handles: [`crate::backend::SimBackend`] keeps the one
/// handle table, fast-forwards the model with [`SimAllocator::advance_to`]
/// before every operation, and hands each block's size and model tag
/// back to [`SimAllocator::free`]. All operations take the current
/// virtual instant and the shared OS; they return the latency the
/// calling thread experiences.
pub(crate) trait SimAllocator: Send {
    /// Fast-forwards background work (management threads, decay
    /// purging) to `now`.
    fn advance_to(&mut self, now: SimTime, os: &mut Os);

    /// `malloc(size)` followed by the first write to the returned memory
    /// (the paper measures allocation latency through data insertion, so
    /// mapping-construction faults are part of the cost). Returns the
    /// model's tag for the block and the latency.
    fn malloc(
        &mut self,
        size: usize,
        now: SimTime,
        os: &mut Os,
    ) -> Result<(u64, SimDuration), MemError>;

    /// `free` of a live block of `size` bytes that [`SimAllocator::malloc`]
    /// tagged `tag`. Returns the (small) latency.
    fn free(&mut self, size: usize, tag: u64, now: SimTime, os: &mut Os) -> SimDuration;

    /// Reserved-but-unused bytes (Hermes overhead metric, §5.5); zero for
    /// the baselines.
    fn reserved_unused(&self) -> usize {
        0
    }

    /// Cumulative management-thread busy time (§5.5); zero for baselines.
    fn management_busy(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Advances to `now`, then mallocs, as `SimBackend` drives a model.
    #[cfg(test)]
    fn malloc_at(
        &mut self,
        size: usize,
        now: SimTime,
        os: &mut Os,
    ) -> Result<(u64, SimDuration), MemError> {
        self.advance_to(now, os);
        self.malloc(size, now, os)
    }

    /// Advances to `now`, then frees, as `SimBackend` drives a model.
    #[cfg(test)]
    fn free_at(&mut self, size: usize, tag: u64, now: SimTime, os: &mut Os) -> SimDuration {
        self.advance_to(now, os);
        self.free(size, tag, now, os)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(AllocatorKind::Glibc.name(), "Glibc");
        assert_eq!(AllocatorKind::Hermes.to_string(), "Hermes");
        assert_eq!(AllocatorKind::ALL.len(), 4);
    }
}
