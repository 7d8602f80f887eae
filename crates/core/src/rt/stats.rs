//! Lock-free counters for the real allocator (overhead reporting, §5.5).
//!
//! Each arena owns one [`Counters`]; [`CountersSnapshot::accumulate`]
//! merges them into the runtime-wide view and [`ArenaStats`] is the
//! per-arena breakdown.

use super::heap::HeapStats;
use super::large::LargeStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// The one field list behind [`Counters`], [`CountersSnapshot`],
/// [`Counters::snapshot`] and [`CountersSnapshot::accumulate`]: durable
/// `counters` (an atomic per arena) and snapshot-only `gauges`.
macro_rules! counter_fields {
    (
        counters { $($(#[$cdoc:meta])* $counter:ident,)* }
        gauges { $($(#[$gdoc:meta])* $gauge:ident,)* }
    ) => {
        /// Shared atomic counters updated by allocation fast paths and the
        /// management thread.
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$cdoc])* pub $counter: AtomicU64,)*
        }

        /// A plain snapshot of [`Counters`], plus the gauges: those live in
        /// the magazines and inboxes, so a bare snapshot reads them as zero
        /// and the runtime front end adds them when it assembles one.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CountersSnapshot {
            $($(#[$cdoc])* pub $counter: u64,)*
            $($(#[$gdoc])* pub $gauge: u64,)*
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
                    $($counter: self.$counter.load(Ordering::Relaxed),)*
                    $($gauge: 0,)*
                }
            }
        }

        impl CountersSnapshot {
            /// Adds `other` into `self` field-wise; used to merge per-arena
            /// counters into the runtime-wide view.
            pub fn accumulate(&mut self, other: &CountersSnapshot) {
                $(self.$counter += other.$counter;)*
                $(self.$gauge += other.$gauge;)*
            }
        }
    };
}

counter_fields! {
    counters {
        /// Total allocations served.
        alloc_count,
        /// Total frees.
        free_count,
        /// Small (heap-path) allocations that required no demand fault.
        fast_small,
        /// Small allocations that touched fresh pages (the slow path).
        slow_small,
        /// Large allocations served from the pre-touched pool.
        fast_large,
        /// Large allocations that carved cold memory.
        slow_large,
        /// Management-thread rounds executed.
        manager_rounds,
        /// Wall-clock nanoseconds the management thread spent working
        /// (its CPU overhead; the paper reports ~0.4 %).
        manager_busy_ns,
        /// Bytes reserved (mapping-constructed) by the management thread.
        reserved_bytes,
        /// Bytes released by trims.
        trimmed_bytes,
        /// Bytes returned to the kernel (`madvise(DONTNEED)`) by the
        /// management thread's trim decommits.
        decommitted_bytes,
        /// Allocations served from a warm thread cache. Live caches tally
        /// hits locally (the warm path performs no shared atomic RMW for
        /// this); a cache folds its tally in here when drained, and snapshot
        /// assembly adds the live tallies on top, so the merged counter
        /// survives thread exits. A snapshot racing a drain's swap-then-add
        /// can transiently read up to the folded amount low — same class of
        /// benign skew as the cached-bytes gauges.
        tcache_hits,
        /// Thread-cache refill events (one shard-lock acquisition amortised
        /// over a whole magazine batch).
        tcache_refills,
        /// Thread-cache flush events (batch returns on overflow, thread
        /// exit and explicit drains).
        tcache_flushes,
        /// Cross-shard frees of this arena's blocks, by either route:
        /// returned straight to the heap or queued on the remote inbox
        /// (`rt/remote.rs` has the rule). Counted at free time.
        remote_frees,
        /// Blocks this arena has drained out of its remote inbox and
        /// returned to the heap (owner slow path + manager rounds): the
        /// cross-shard frees that were queued.
        remote_drained,
        /// Cross-shard frees that fell back to the locked path because the
        /// freeing thread had no usable cache slot (TLS teardown in
        /// progress). Zero in steady state — the stress tests assert it.
        remote_lock_falls,
    }
    gauges {
        /// Gauge: bytes currently parked in thread caches for this arena
        /// (chunk granularity). In-use from the shard heap's view, reserve
        /// from the runtime's view.
        cached_bytes,
        /// Gauge: blocks currently parked in thread caches for this arena.
        cached_blocks,
        /// Gauge: bytes sitting in this arena's remote-free inbox (queued,
        /// not yet drained).
        remote_queued_bytes,
        /// Gauge: blocks sitting in this arena's remote-free inbox.
        remote_queued_blocks,
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
    /// Main-heap statistics of this arena.
    pub heap: HeapStats,
    /// Large-path statistics of this arena.
    pub large: LargeStats,
    /// Counter snapshot of this arena.
    pub counters: CountersSnapshot,
}

/// `part / whole`, or 0 when nothing was counted.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl CountersSnapshot {
    /// Fraction of small allocations served without any page fault.
    pub fn small_fast_ratio(&self) -> f64 {
        ratio(self.fast_small, self.fast_small + self.slow_small)
    }

    /// Fraction of large allocations served from the pool.
    pub fn large_fast_ratio(&self) -> f64 {
        ratio(self.fast_large, self.fast_large + self.slow_large)
    }

    /// Management-thread CPU share over `elapsed_ns` of wall time.
    pub fn manager_cpu_fraction(&self, elapsed_ns: u64) -> f64 {
        ratio(self.manager_busy_ns, elapsed_ns)
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
