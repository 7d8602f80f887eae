//! TCMalloc behavioural model: per-thread caches with batch refills from
//! the central free lists, falling through to the page heap. Reproduces
//! the paper's observation — lowest average latency of the baselines but a
//! very long tail, in all three memory scenarios.

use crate::costs::TcmallocCosts;
use crate::traits::SimAllocator;
use hermes_core::DEFAULT_MMAP_THRESHOLD;
use hermes_os::prelude::*;
use hermes_sim::rng::DetRng;
use hermes_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Simulated TCMalloc allocator bound to one process.
#[derive(Debug)]
pub(crate) struct TcmallocSim {
    proc: ProcId,
    costs: TcmallocCosts,
    /// Objects available in the thread cache, per class.
    cache: HashMap<usize, u64>,
    /// Freed span pages retained by the page heap (warm reuse).
    span_pool_pages: u64,
    rng: DetRng,
}

impl TcmallocSim {
    /// Creates the model for the latency-critical process `proc`.
    pub(crate) fn new(proc: ProcId, seed: u64) -> Self {
        TcmallocSim {
            proc,
            costs: TcmallocCosts::default(),
            cache: HashMap::new(),
            span_pool_pages: 0,
            rng: DetRng::new(seed, "tcmalloc"),
        }
    }

    fn class_of(size: usize) -> usize {
        size.next_power_of_two().max(16)
    }

    fn tail_noise(&mut self) -> f64 {
        self.rng.tail_multiplier(self.costs.sigma)
    }
}

impl SimAllocator for TcmallocSim {
    fn advance_to(&mut self, now: SimTime, os: &mut Os) {
        os.advance_to(now);
    }

    fn malloc(
        &mut self,
        size: usize,
        now: SimTime,
        os: &mut Os,
    ) -> Result<(u64, SimDuration), MemError> {
        let mut lat;
        if size >= DEFAULT_MMAP_THRESHOLD {
            let pages = pages_for(size);
            lat = self
                .costs
                .book_large
                .mul_f64(self.rng.tail_multiplier(0.10) * os.write_contention());
            if self.span_pool_pages >= pages {
                // Warm span reuse.
                self.span_pool_pages -= pages;
                lat += os.touch_resident(self.proc, pages, now);
            } else {
                lat += self.costs.span_acquire.mul_f64(self.tail_noise());
                lat += os.alloc_anon(self.proc, pages, FaultPath::MmapTouch, now)?;
            }
        } else {
            let class = Self::class_of(size);
            let cached = self.cache.entry(class).or_insert(0);
            if *cached > 0 {
                *cached -= 1;
                lat = self.costs.cache_hit.mul_f64(self.rng.tail_multiplier(0.15));
                lat += os.touch_resident(self.proc, 1, now);
            } else {
                // Refill from the central free list under its lock.
                lat = self.costs.central_refill.mul_f64(self.tail_noise());
                if self.rng.chance(self.costs.page_heap_fraction) {
                    // Central list empty too: fetch a span from the page
                    // heap and fault it in — the long-tail path.
                    lat += self.costs.span_acquire.mul_f64(self.tail_noise());
                    lat += os.alloc_anon(
                        self.proc,
                        pages_for(self.costs.span_bytes.min(32 * 1024)),
                        FaultPath::HeapTouch,
                        now,
                    )?;
                }
                *self.cache.entry(class).or_insert(0) += self.costs.batch_len - 1;
            }
        }
        Ok((0, lat))
    }

    fn free(&mut self, size: usize, _tag: u64, _now: SimTime, _os: &mut Os) -> SimDuration {
        if size >= DEFAULT_MMAP_THRESHOLD {
            self.span_pool_pages += pages_for(size);
            SimDuration::from_nanos(600)
        } else {
            *self.cache.entry(Self::class_of(size)).or_insert(0) += 1;
            SimDuration::from_nanos(150)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;

    fn setup() -> (Os, TcmallocSim) {
        let mut os = Os::new(OsConfig::small_test_node());
        let a = TcmallocSim::new(os.register_process(ProcKind::LatencyCritical), 3);
        (os, a)
    }

    #[test]
    fn average_is_low_but_tail_is_long() {
        let (mut os, mut a) = setup();
        let mut now = SimTime::ZERO;
        let mut lats: Vec<u64> = Vec::new();
        for _ in 0..2000 {
            let (_, lat) = a.malloc_at(1024, now, &mut os).unwrap();
            lats.push(lat.as_nanos());
            now += lat;
        }
        lats.sort_unstable();
        let avg = lats.iter().sum::<u64>() / lats.len() as u64;
        let p50 = lats[lats.len() / 2];
        let p999 = lats[lats.len() * 999 / 1000];
        assert!(avg < 4_000, "avg {avg}ns stays low");
        assert!(p50 <= 1_500, "p50 {p50}ns is the cache hit");
        assert!(p999 > avg * 5, "p999 {p999} much larger than avg {avg}");
    }

    #[test]
    fn span_reuse_after_free_is_warm() {
        let (mut os, mut a) = setup();
        let (tag, cold) = a.malloc_at(256 * 1024, SimTime::ZERO, &mut os).unwrap();
        a.free_at(256 * 1024, tag, SimTime::from_micros(1), &mut os);
        let (_, warm) = a
            .malloc_at(256 * 1024, SimTime::from_micros(2), &mut os)
            .unwrap();
        // Warm spans skip span acquisition and mapping construction but
        // still pay the per-request overhead.
        assert!(warm < cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn cache_hits_dominate_after_refill() {
        let (mut os, mut a) = setup();
        let mut now = SimTime::ZERO;
        let mut cheap = 0;
        for i in 0..64 {
            let (_, lat) = a.malloc_at(100, now, &mut os).unwrap();
            now += lat;
            if i > 0 && lat < SimDuration::from_micros(3) {
                cheap += 1;
            }
        }
        assert!(cheap >= 50, "cheap {cheap}/63 hits");
    }
}
