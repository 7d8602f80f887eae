//! jemalloc behavioural model: slab runs carved from 2 MiB extents for
//! small classes, size-classed large allocations with dirty-page reuse and
//! time-decay purging. Reproduces the paper's observations: stable but
//! somewhat slower latency on a dedicated system, long tails once reclaim
//! is in the fault path.

use crate::costs::JemallocCosts;
use crate::traits::SimAllocator;
use hermes_core::DEFAULT_MMAP_THRESHOLD;
use hermes_os::prelude::*;
use hermes_sim::rng::DetRng;
use hermes_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Simulated jemalloc allocator bound to one process.
#[derive(Debug)]
pub(crate) struct JemallocSim {
    proc: ProcId,
    costs: JemallocCosts,
    /// Recycled small objects per size class.
    bins: HashMap<usize, u64>,
    /// Allocations until the current run of each class is exhausted.
    run_left: HashMap<usize, u64>,
    /// Unfaulted bytes remaining in the current extent.
    extent_left: usize,
    /// Dirty (reusable, still-resident) pages from freed large chunks.
    dirty_pages: u64,
    last_decay: SimTime,
    rng: DetRng,
}

impl JemallocSim {
    /// Creates the model for the latency-critical process `proc`.
    pub(crate) fn new(proc: ProcId, seed: u64) -> Self {
        JemallocSim {
            proc,
            costs: JemallocCosts::default(),
            bins: HashMap::new(),
            run_left: HashMap::new(),
            extent_left: 0,
            dirty_pages: 0,
            last_decay: SimTime::ZERO,
            rng: DetRng::new(seed, "jemalloc"),
        }
    }

    fn noise(&mut self) -> f64 {
        self.rng.tail_multiplier(self.costs.sigma)
    }

    fn class_of(size: usize) -> usize {
        // Simplified jemalloc spacing: next power-of-two quarter.
        let mut c = 16;
        while c < size {
            c += (c / 4).max(16);
        }
        c
    }
}

impl SimAllocator for JemallocSim {
    fn advance_to(&mut self, now: SimTime, os: &mut Os) {
        os.advance_to(now);
        // Decay-based purging returns dirty pages to the kernel over time.
        if now > self.last_decay {
            let dt = now.duration_since(self.last_decay).as_secs_f64();
            let purged = (self.dirty_pages as f64 * self.costs.decay_per_sec * dt) as u64;
            let purged = purged.min(self.dirty_pages);
            if purged > 0 {
                self.dirty_pages -= purged;
                os.release_anon(self.proc, purged, false);
            }
            self.last_decay = now;
        }
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
                .mul_f64(self.rng.tail_multiplier(0.05) * os.write_contention());
            if self.dirty_pages >= pages {
                // Reuse dirty pages; decay already purged a fraction,
                // which must be faulted back cold.
                self.dirty_pages -= pages;
                let cold = (pages as f64 * self.costs.dirty_reuse_cold_fraction) as u64;
                if cold > 0 {
                    os.release_anon(self.proc, cold, false);
                    lat += os.alloc_anon(self.proc, cold, FaultPath::MmapTouch, now)?;
                }
                lat += os.touch_resident(self.proc, pages - cold, now);
            } else {
                lat += os.alloc_anon(self.proc, pages, FaultPath::MmapTouch, now)?;
            }
        } else {
            let class = Self::class_of(size);
            if let Some(n) = self.bins.get_mut(&class) {
                if *n > 0 {
                    *n -= 1;
                    let lat = self.costs.book_small.mul_f64(self.noise())
                        + os.touch_resident(self.proc, 1, now);
                    return Ok((0, lat));
                }
            }
            lat = self.costs.book_small.mul_f64(self.noise());
            if self.run_left.get(&class).copied().unwrap_or(0) == 0 {
                // Refill a run from the extent.
                let run_bytes = (class as u64 * self.costs.run_len).max(16 * 1024) as usize;
                lat += self.costs.run_refill.mul_f64(self.noise());
                if self.extent_left < run_bytes {
                    self.extent_left = self.costs.extent_bytes;
                    lat += os.syscall_cost();
                }
                self.extent_left -= run_bytes.min(self.extent_left);
                lat += os.alloc_anon(self.proc, pages_for(run_bytes), FaultPath::HeapTouch, now)?;
                self.run_left.insert(class, self.costs.run_len);
            }
            *self.run_left.get_mut(&class).expect("entry exists") -= 1;
        }
        Ok((0, lat))
    }

    fn free(&mut self, size: usize, _tag: u64, _now: SimTime, _os: &mut Os) -> SimDuration {
        if size >= DEFAULT_MMAP_THRESHOLD {
            // Pages stay resident as dirty until decay purges them.
            self.dirty_pages += pages_for(size);
            SimDuration::from_nanos(700)
        } else {
            *self.bins.entry(Self::class_of(size)).or_insert(0) += 1;
            SimDuration::from_nanos(250)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;

    fn setup() -> (Os, JemallocSim) {
        let mut os = Os::new(OsConfig::small_test_node());
        let a = JemallocSim::new(os.register_process(ProcKind::LatencyCritical), 2);
        (os, a)
    }

    #[test]
    fn class_spacing_is_monotone() {
        let mut last = 0;
        for s in [1, 16, 17, 100, 1024, 5000, 64 * 1024] {
            let c = JemallocSim::class_of(s);
            assert!(c >= s);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn small_path_amortises_run_refills() {
        let (mut os, mut a) = setup();
        let mut now = SimTime::ZERO;
        let mut lats = Vec::new();
        for _ in 0..200 {
            let (_, lat) = a.malloc_at(1024, now, &mut os).unwrap();
            lats.push(lat.as_nanos());
            now += lat;
        }
        let avg: u64 = lats.iter().sum::<u64>() / lats.len() as u64;
        assert!((1_500..15_000).contains(&avg), "avg {avg}ns");
        // Refill spikes exist.
        let max = *lats.iter().max().unwrap();
        assert!(max > avg * 2, "max {max} avg {avg}");
    }

    #[test]
    fn large_dedicated_latency_is_stable() {
        let (mut os, mut a) = setup();
        let mut now = SimTime::ZERO;
        let mut lats = Vec::new();
        for _ in 0..50 {
            let (_, lat) = a.malloc_at(256 * 1024, now, &mut os).unwrap();
            lats.push(lat.as_micros());
            now += lat;
        }
        let avg: u64 = lats.iter().sum::<u64>() / lats.len() as u64;
        let max = *lats.iter().max().unwrap();
        let min = *lats.iter().min().unwrap();
        assert!((600..4_000).contains(&avg), "avg {avg}us");
        assert!(
            (max as f64) < min as f64 * 2.5,
            "stable: min {min} max {max}"
        );
    }

    #[test]
    fn dirty_reuse_is_cheaper_than_cold() {
        let (mut os, mut a) = setup();
        let (tag, cold) = a.malloc_at(512 * 1024, SimTime::ZERO, &mut os).unwrap();
        a.free_at(512 * 1024, tag, SimTime::from_micros(1), &mut os);
        let (_, warm) = a
            .malloc_at(512 * 1024, SimTime::from_micros(2), &mut os)
            .unwrap();
        assert!(warm < cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn decay_returns_pages_to_os() {
        let (mut os, mut a) = setup();
        let (tag, _) = a.malloc_at(1 << 20, SimTime::ZERO, &mut os).unwrap();
        a.free_at(1 << 20, tag, SimTime::from_micros(1), &mut os);
        let free_before = os.free_pages();
        a.advance_to(SimTime::from_secs(30), &mut os);
        assert!(os.free_pages() > free_before, "decay purged dirty pages");
    }
}
