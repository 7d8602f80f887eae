//! The stock Glibc (ptmalloc) allocator model — the paper's primary
//! baseline (§2.1): on-demand mapping construction, exact-shortfall break
//! growth, immediate `munmap` of large chunks.

use crate::costs::GlibcCosts;
use crate::heap_model::{HeapModel, SmallAlloc};
use crate::traits::SimAllocator;
use hermes_core::DEFAULT_MMAP_THRESHOLD;
use hermes_os::prelude::*;
use hermes_sim::rng::DetRng;
use hermes_sim::time::{SimDuration, SimTime};

/// Simulated Glibc allocator bound to one process.
#[derive(Debug)]
pub(crate) struct GlibcSim {
    proc: ProcId,
    heap: HeapModel,
    costs: GlibcCosts,
    rng: DetRng,
}

impl GlibcSim {
    /// Creates the model for the latency-critical process `proc`.
    pub(crate) fn new(proc: ProcId, seed: u64) -> Self {
        GlibcSim {
            proc,
            heap: HeapModel::new(),
            costs: GlibcCosts::default(),
            rng: DetRng::new(seed, "glibc"),
        }
    }

    fn noise(&mut self) -> f64 {
        self.rng.tail_multiplier(self.costs.sigma)
    }
}

impl SimAllocator for GlibcSim {
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
            // mmap syscall + per-request overhead, then the mapping is
            // constructed page by page on the first write.
            let n = self.rng.tail_multiplier(self.costs.sigma_large);
            lat = self.costs.book_large.mul_f64(n * os.write_contention()) + os.syscall_cost();
            lat += os.alloc_anon(self.proc, pages_for(size), FaultPath::MmapTouch, now)?;
        } else {
            match self.heap.alloc_small(size) {
                SmallAlloc::Recycled { pages } => {
                    lat = self.costs.book_warm.mul_f64(self.noise());
                    // Recycled pages may have been swapped out meanwhile.
                    lat += os.touch_resident(self.proc, pages, now);
                }
                SmallAlloc::Fresh {
                    new_pages,
                    grew_break,
                } => {
                    lat = self.costs.book_small.mul_f64(self.noise());
                    if grew_break {
                        lat += os.syscall_cost();
                    }
                    if new_pages > 0 {
                        lat += os.alloc_anon(self.proc, new_pages, FaultPath::HeapTouch, now)?;
                    }
                }
            }
        }
        Ok((0, lat))
    }

    fn free(&mut self, size: usize, _tag: u64, _now: SimTime, os: &mut Os) -> SimDuration {
        if size >= DEFAULT_MMAP_THRESHOLD {
            // Glibc releases mmapped chunks straight back to the OS.
            os.release_anon(self.proc, pages_for(size), false);
            os.syscall_cost() + SimDuration::from_nanos(400)
        } else {
            self.heap.free_small(size);
            SimDuration::from_nanos(250)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;

    fn setup() -> (Os, GlibcSim) {
        let mut os = Os::new(OsConfig::small_test_node());
        let a = GlibcSim::new(os.register_process(ProcKind::LatencyCritical), 1);
        (os, a)
    }

    #[test]
    fn small_allocations_cost_microseconds() {
        let (mut os, mut a) = setup();
        let mut total = SimDuration::ZERO;
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let (_, lat) = a.malloc_at(1024, now, &mut os).unwrap();
            total += lat;
            now += lat;
        }
        let avg_ns = total.as_nanos() / 1000;
        assert!(
            (1_000..12_000).contains(&avg_ns),
            "avg small latency {avg_ns}ns"
        );
    }

    #[test]
    fn large_allocations_cost_near_millisecond() {
        let (mut os, mut a) = setup();
        let (_, lat) = a.malloc_at(256 * 1024, SimTime::ZERO, &mut os).unwrap();
        let us = lat.as_micros();
        assert!((300..4_000).contains(&us), "large latency {us}us");
    }

    #[test]
    fn mmap_free_returns_pages() {
        let (mut os, mut a) = setup();
        let before = os.free_pages();
        let (tag, _) = a.malloc_at(512 * 1024, SimTime::ZERO, &mut os).unwrap();
        assert!(os.free_pages() < before);
        a.free_at(512 * 1024, tag, SimTime::from_micros(10), &mut os);
        assert_eq!(os.free_pages(), before);
    }

    #[test]
    fn heap_free_keeps_pages_resident() {
        let (mut os, mut a) = setup();
        let (tag, _) = a.malloc_at(1024, SimTime::ZERO, &mut os).unwrap();
        let before = os.free_pages();
        a.free_at(1024, tag, SimTime::from_micros(10), &mut os);
        assert_eq!(os.free_pages(), before, "binned chunks stay resident");
    }

    #[test]
    fn recycled_chunks_are_cheaper_on_average() {
        let (mut os, mut a) = setup();
        let mut now = SimTime::ZERO;
        let mut fresh = SimDuration::ZERO;
        let mut warm = SimDuration::ZERO;
        const N: u64 = 500;
        for _ in 0..N {
            let (tag, lat) = a.malloc_at(4096, now, &mut os).unwrap();
            fresh += lat;
            now += lat;
            a.free_at(4096, tag, now, &mut os);
        }
        for _ in 0..N {
            let (tag, lat) = a.malloc_at(4096, now, &mut os).unwrap();
            warm += lat;
            now += lat;
            a.free_at(4096, tag, now, &mut os);
        }
        // The second wave is fully recycled after the first free.
        assert!(warm < fresh, "warm {warm} vs fresh {fresh}");
    }
}
