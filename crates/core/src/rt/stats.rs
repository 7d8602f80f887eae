//! Lock-free counters for the real allocator (overhead reporting, §5.5).
//!
//! Since the runtime was sharded into per-thread arenas, each arena owns
//! one [`Counters`] instance; [`CountersSnapshot::accumulate`] and
//! [`ArenaStats`] provide the merged runtime-wide view and the per-arena
//! breakdown respectively.

use super::heap::HeapStats;
use super::large::LargeStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters updated by allocation fast paths and the
/// management thread.
#[derive(Debug, Default)]
pub struct Counters {
    /// Total allocations served.
    pub alloc_count: AtomicU64,
    /// Total frees.
    pub free_count: AtomicU64,
    /// Small (heap-path) allocations that required no demand fault.
    pub fast_small: AtomicU64,
    /// Small allocations that touched fresh pages (the slow path).
    pub slow_small: AtomicU64,
    /// Large allocations served from the pre-touched pool.
    pub fast_large: AtomicU64,
    /// Large allocations that carved cold memory.
    pub slow_large: AtomicU64,
    /// Management-thread rounds executed.
    pub manager_rounds: AtomicU64,
    /// Wall-clock nanoseconds the management thread spent working
    /// (its CPU overhead; the paper reports ~0.4 %).
    pub manager_busy_ns: AtomicU64,
    /// Bytes reserved (mapping-constructed) by the management thread.
    pub reserved_bytes: AtomicU64,
    /// Bytes released by trims.
    pub trimmed_bytes: AtomicU64,
    /// Bytes returned to the kernel (`madvise(DONTNEED)`) by the
    /// management thread's trim and delayed-shrink decommits.
    pub decommitted_bytes: AtomicU64,
    /// Allocations served from a warm thread cache. Live caches tally
    /// hits locally (the warm path performs no shared atomic RMW for
    /// this); a cache folds its tally in here when drained, and snapshot
    /// assembly adds the live tallies on top, so the merged counter
    /// survives thread exits. A snapshot racing a drain's swap-then-add
    /// can transiently read up to the folded amount low — same class of
    /// benign skew as the cached-bytes gauges.
    pub tcache_hits: AtomicU64,
    /// Thread-cache refill events (one shard-lock acquisition amortised
    /// over a whole magazine batch).
    pub tcache_refills: AtomicU64,
    /// Thread-cache flush events (batch returns on overflow, thread exit
    /// and idle reclaim).
    pub tcache_flushes: AtomicU64,
    /// Cross-shard frees routed through this arena's lock-free remote
    /// inbox (counted at free time, when the freeing thread pushes the
    /// block — not when it is drained).
    pub remote_frees: AtomicU64,
    /// Blocks this arena has drained out of its remote inbox and
    /// returned to the heap (owner slow path + manager rounds).
    pub remote_drained: AtomicU64,
    /// Cross-shard frees that fell back to the locked path because the
    /// freeing thread had no usable cache slot (TLS teardown in
    /// progress). Zero in steady state — the stress tests assert it.
    pub remote_lock_falls: AtomicU64,
}

/// A plain snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Total allocations served.
    pub alloc_count: u64,
    /// Total frees.
    pub free_count: u64,
    /// Fault-free small allocations.
    pub fast_small: u64,
    /// Small allocations that faulted.
    pub slow_small: u64,
    /// Pool-hit large allocations.
    pub fast_large: u64,
    /// Cold large allocations.
    pub slow_large: u64,
    /// Management rounds.
    pub manager_rounds: u64,
    /// Management busy time in nanoseconds.
    pub manager_busy_ns: u64,
    /// Bytes reserved ahead of demand.
    pub reserved_bytes: u64,
    /// Bytes trimmed back.
    pub trimmed_bytes: u64,
    /// Bytes decommitted back to the kernel.
    pub decommitted_bytes: u64,
    /// Warm thread-cache hits.
    pub tcache_hits: u64,
    /// Thread-cache refill events.
    pub tcache_refills: u64,
    /// Thread-cache flush events.
    pub tcache_flushes: u64,
    /// Cross-shard frees pushed onto the remote inbox.
    pub remote_frees: u64,
    /// Blocks drained from the remote inbox back into the heap.
    pub remote_drained: u64,
    /// Remote frees that fell back to the locked path.
    pub remote_lock_falls: u64,
    /// Gauge: bytes currently parked in thread caches for this arena
    /// (chunk granularity). In-use from the shard heap's view, reserve
    /// from the runtime's view. Aggregated from the live caches at
    /// snapshot time (`Counters` itself holds no gauge).
    pub cached_bytes: u64,
    /// Gauge: blocks currently parked in thread caches for this arena.
    pub cached_blocks: u64,
    /// Gauge: bytes sitting in this arena's remote-free inbox (queued,
    /// not yet drained). Like the cached gauges it is assembled
    /// at snapshot time from the inbox atomics, not stored here.
    pub remote_queued_bytes: u64,
    /// Gauge: blocks sitting in this arena's remote-free inbox.
    pub remote_queued_blocks: u64,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Relaxed add helper.
    #[inline]
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot (relaxed reads).
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            alloc_count: self.alloc_count.load(Ordering::Relaxed),
            free_count: self.free_count.load(Ordering::Relaxed),
            fast_small: self.fast_small.load(Ordering::Relaxed),
            slow_small: self.slow_small.load(Ordering::Relaxed),
            fast_large: self.fast_large.load(Ordering::Relaxed),
            slow_large: self.slow_large.load(Ordering::Relaxed),
            manager_rounds: self.manager_rounds.load(Ordering::Relaxed),
            manager_busy_ns: self.manager_busy_ns.load(Ordering::Relaxed),
            reserved_bytes: self.reserved_bytes.load(Ordering::Relaxed),
            trimmed_bytes: self.trimmed_bytes.load(Ordering::Relaxed),
            decommitted_bytes: self.decommitted_bytes.load(Ordering::Relaxed),
            tcache_hits: self.tcache_hits.load(Ordering::Relaxed),
            tcache_refills: self.tcache_refills.load(Ordering::Relaxed),
            tcache_flushes: self.tcache_flushes.load(Ordering::Relaxed),
            remote_frees: self.remote_frees.load(Ordering::Relaxed),
            remote_drained: self.remote_drained.load(Ordering::Relaxed),
            remote_lock_falls: self.remote_lock_falls.load(Ordering::Relaxed),
            // Gauges are magazine- and inbox-resident; the runtime front
            // end adds them when it assembles a snapshot.
            cached_bytes: 0,
            cached_blocks: 0,
            remote_queued_bytes: 0,
            remote_queued_blocks: 0,
        }
    }
}

/// One arena's statistics: heap side, mmap side and counters together.
///
/// Returned by `HermesHeap::arena_stats`; summing the parts of every
/// arena (via the `accumulate` methods) yields exactly the merged view
/// the runtime-wide accessors report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaStats {
    /// Index of the arena within the runtime's shard set.
    pub index: usize,
    /// NUMA node this arena's backing prefers (0 on single-node hosts).
    pub node: usize,
    /// Main-heap statistics of this arena.
    pub heap: HeapStats,
    /// Large-path statistics of this arena.
    pub large: LargeStats,
    /// Counter snapshot of this arena.
    pub counters: CountersSnapshot,
}

impl CountersSnapshot {
    /// Adds `other` into `self` field-wise; used to merge per-arena
    /// counters into the runtime-wide view.
    pub fn accumulate(&mut self, other: &CountersSnapshot) {
        self.alloc_count += other.alloc_count;
        self.free_count += other.free_count;
        self.fast_small += other.fast_small;
        self.slow_small += other.slow_small;
        self.fast_large += other.fast_large;
        self.slow_large += other.slow_large;
        self.manager_rounds += other.manager_rounds;
        self.manager_busy_ns += other.manager_busy_ns;
        self.reserved_bytes += other.reserved_bytes;
        self.trimmed_bytes += other.trimmed_bytes;
        self.decommitted_bytes += other.decommitted_bytes;
        self.tcache_hits += other.tcache_hits;
        self.tcache_refills += other.tcache_refills;
        self.tcache_flushes += other.tcache_flushes;
        self.remote_frees += other.remote_frees;
        self.remote_drained += other.remote_drained;
        self.remote_lock_falls += other.remote_lock_falls;
        self.cached_bytes += other.cached_bytes;
        self.cached_blocks += other.cached_blocks;
        self.remote_queued_bytes += other.remote_queued_bytes;
        self.remote_queued_blocks += other.remote_queued_blocks;
    }

    /// Fraction of small allocations served without any page fault.
    pub fn small_fast_ratio(&self) -> f64 {
        let total = self.fast_small + self.slow_small;
        if total == 0 {
            0.0
        } else {
            self.fast_small as f64 / total as f64
        }
    }

    /// Fraction of large allocations served from the pool.
    pub fn large_fast_ratio(&self) -> f64 {
        let total = self.fast_large + self.slow_large;
        if total == 0 {
            0.0
        } else {
            self.fast_large as f64 / total as f64
        }
    }

    /// Management-thread CPU share over `elapsed_ns` of wall time.
    pub fn manager_cpu_fraction(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.manager_busy_ns as f64 / elapsed_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let c = Counters::new();
        Counters::add(&c.alloc_count, 3);
        Counters::add(&c.fast_small, 2);
        Counters::add(&c.slow_small, 1);
        let s = c.snapshot();
        assert_eq!(s.alloc_count, 3);
        assert!((s.small_fast_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_handle_zero_totals() {
        let s = CountersSnapshot::default();
        assert_eq!(s.small_fast_ratio(), 0.0);
        assert_eq!(s.large_fast_ratio(), 0.0);
        assert_eq!(s.manager_cpu_fraction(0), 0.0);
    }

    #[test]
    fn cpu_fraction() {
        let s = CountersSnapshot {
            manager_busy_ns: 4,
            ..Default::default()
        };
        assert!((s.manager_cpu_fraction(1000) - 0.004).abs() < 1e-12);
    }
}
