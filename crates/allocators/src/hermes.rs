//! The Hermes allocator model: the Glibc heap geometry plus the paper's
//! management thread, executing the *same* policy code
//! (`hermes_core::policy`) as the real allocator.
//!
//! Faithfulness notes:
//!
//! * The management thread wakes every `f` = 2 ms; its reservation work is
//!   budgeted — steps that would run past the next wake-up are dropped and
//!   re-planned, so a demand burst can outrun reservation (this is what
//!   keeps large-request gains modest on a dedicated system, Fig. 8d).
//! * Heap reservation steps hold the heap lock one `MEM_CHUNK` at a time
//!   (gradual reservation); a `malloc` arriving inside a lock window waits
//!   for that step only (Figure 6b).
//! * Mappings are constructed via `mlock` (§4) and `munlock`ed on
//!   hand-off, so handed-out pages become evictable again.
//! * The mmap side is asynchronous: pool refills never block requesters;
//!   over-sized hand-outs shrink on the next round (`alloc_set`).

use crate::costs::{GlibcCosts, HermesCosts};
use crate::heap_model::{HeapModel, SmallAlloc};
use crate::policy::seglist::TABLE_SIZE;
use crate::policy::{DelayedShrinkSet, MmapChunk, PoolHit, SegregatedFreeList};
use crate::traits::SimAllocator;
use hermes_core::policy::{ReservationPlan, ThresholdTracker};
use hermes_core::HermesConfig;
use hermes_os::config::PAGE_SIZE;
use hermes_os::prelude::*;
use hermes_sim::rng::DetRng;
use hermes_sim::time::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};

/// The simulated Hermes model's ablation switches: the two §3.2
/// mechanisms the `ablation_gradual` and `ablation_shrink` benches turn
/// off. Both default to on. The runtime has neither switch: it always
/// reserves gradually, and its large pool carves exact-size blocks, so it
/// has nothing to shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HermesAblation {
    /// Gradual reservation (§3.2.1). `false` reverts to the naive
    /// one-shot expansion of Figure 6(a).
    pub gradual_reservation: bool,
    /// Delayed shrink of over-sized mmap hand-outs (§3.2.2). `false`
    /// shrinks synchronously on the allocation path.
    pub delayed_shrink: bool,
}

impl Default for HermesAblation {
    fn default() -> Self {
        HermesAblation {
            gradual_reservation: true,
            delayed_shrink: true,
        }
    }
}

/// Simulated Hermes allocator bound to one latency-critical process.
#[derive(Debug)]
pub(crate) struct HermesSim {
    proc: ProcId,
    cfg: HermesConfig,
    ablation: HermesAblation,
    costs: HermesCosts,
    glibc_costs: GlibcCosts,
    heap: HeapModel,
    small_tracker: ThresholdTracker,
    large_tracker: ThresholdTracker,
    pool: SegregatedFreeList,
    /// Chunks in the pool that are still mlocked (fresh reservations).
    locked_chunks: HashSet<u64>,
    shrink: DelayedShrinkSet,
    /// Handed-out chunk id -> its current size; the id is the block's
    /// tag.
    chunks: HashMap<u64, usize>,
    /// Next chunk id; ids start at 1 so tag 0 marks a heap block.
    next_chunk: u64,
    next_wakeup: SimTime,
    lock_windows: VecDeque<(SimTime, SimTime)>,
    mgmt_busy: SimDuration,
    reserve_consumed: usize,
    rng: DetRng,
}

impl HermesSim {
    /// Creates the model for the latency-critical process `proc`.
    pub(crate) fn new(
        proc: ProcId,
        seed: u64,
        cfg: HermesConfig,
        ablation: HermesAblation,
    ) -> Self {
        let small_tracker = ThresholdTracker::new(
            cfg.rsv_factor,
            cfg.min_rsv,
            cfg.rsv_trigger_ratio,
            cfg.trim_ratio,
            PAGE_SIZE,
            1 << 20,
        );
        let large_tracker = ThresholdTracker::new(
            cfg.rsv_factor,
            cfg.min_rsv,
            cfg.rsv_trigger_ratio,
            cfg.trim_ratio,
            cfg.mmap_threshold,
            8 << 20,
        );
        let pool = SegregatedFreeList::new(cfg.mmap_threshold, TABLE_SIZE);
        let interval = SimDuration::from_nanos(cfg.interval.as_nanos() as u64);
        HermesSim {
            proc,
            costs: HermesCosts::default(),
            glibc_costs: GlibcCosts::default(),
            heap: HeapModel::new(),
            small_tracker,
            large_tracker,
            pool,
            locked_chunks: HashSet::new(),
            shrink: DelayedShrinkSet::new(),
            chunks: HashMap::new(),
            next_chunk: 1,
            next_wakeup: SimTime::ZERO + interval,
            lock_windows: VecDeque::new(),
            mgmt_busy: SimDuration::ZERO,
            reserve_consumed: 0,
            rng: DetRng::new(seed, "hermes"),
            cfg,
            ablation,
        }
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_nanos(self.cfg.interval.as_nanos() as u64)
    }

    fn noise(&mut self) -> f64 {
        self.rng.tail_multiplier(self.costs.sigma)
    }

    /// Remaining wait if `now` falls inside a management lock window.
    fn lock_wait(&mut self, now: SimTime) -> SimDuration {
        while let Some(&(_, end)) = self.lock_windows.front() {
            if end + SimDuration::from_millis(50) < now {
                self.lock_windows.pop_front();
            } else {
                break;
            }
        }
        for &(start, end) in &self.lock_windows {
            if start <= now && now < end {
                return end.duration_since(now);
            }
        }
        SimDuration::ZERO
    }

    /// One management round at wake-up instant `w` (Algorithms 1 and 2).
    fn run_round(&mut self, w: SimTime, os: &mut Os) {
        let deadline = w + self.interval();
        let mut cursor = w;

        // ---- Heap side (Algorithm 1) ----
        let th = self.small_tracker.roll_interval();
        let ready = self.heap.reserve_ready();
        if ready < th.rsv_thr {
            let deficit = th.tgt_mem - ready;
            let plan = if self.ablation.gradual_reservation {
                ReservationPlan::new(deficit, th.mem_chunk)
            } else {
                ReservationPlan::bulk(deficit)
            };
            for step in plan {
                if cursor >= deadline {
                    break; // budget exhausted; re-plan next round
                }
                let pages = self.heap.reserve(step);
                if pages > 0 {
                    match os.alloc_anon(self.proc, pages, FaultPath::HeapMlock, cursor) {
                        Ok(lat) => {
                            let lat = lat + os.syscall_cost();
                            self.lock_windows.push_back((cursor, cursor + lat));
                            cursor += lat;
                        }
                        Err(_) => break, // cannot reserve under OOM; serve on demand
                    }
                }
            }
        } else if self.heap.reserve_ready() > th.trim_thr {
            let released = self.heap.trim(th.tgt_mem);
            if released > 0 {
                os.release_anon(self.proc, released, true);
                let lat = os.syscall_cost();
                self.lock_windows.push_back((cursor, cursor + lat));
                cursor += lat;
            }
        }

        // ---- Mmap side (Algorithm 2): asynchronous, no lock windows ----
        let th = self.large_tracker.roll_interval();
        // DelayRelease(alloc_set): shrink over-sized hand-outs.
        for e in self.shrink.drain() {
            let tail_pages = (e.allocated - e.requested) as u64 / PAGE_SIZE as u64;
            if tail_pages > 0 {
                os.release_anon(self.proc, tail_pages, false);
                cursor += os.syscall_cost();
            }
            if let Some(size) = self.chunks.get_mut(&e.id) {
                *size = e.requested;
            }
        }
        if self.pool.total_size() < th.rsv_thr {
            while self.pool.total_size() < th.tgt_mem && cursor < deadline {
                let bytes = th.mem_chunk.max(self.cfg.mmap_threshold);
                match os.alloc_anon(self.proc, pages_for(bytes), FaultPath::MmapMlock, cursor) {
                    Ok(lat) => {
                        let id = self.next_chunk;
                        self.next_chunk += 1;
                        self.pool.insert(MmapChunk { id, size: bytes });
                        self.locked_chunks.insert(id);
                        cursor += lat + os.syscall_cost();
                    }
                    Err(_) => break,
                }
            }
        }
        while self.pool.total_size() > th.trim_thr {
            match self.pool.take_smallest() {
                Some(c) => {
                    let locked = self.locked_chunks.remove(&c.id);
                    os.release_anon(self.proc, pages_for(c.size), locked);
                    cursor += os.syscall_cost();
                }
                None => break,
            }
        }

        self.mgmt_busy += cursor.duration_since(w);
        self.next_wakeup = (w + self.interval()).max(cursor);
    }

    fn malloc_small(
        &mut self,
        size: usize,
        now: SimTime,
        os: &mut Os,
    ) -> Result<SimDuration, MemError> {
        self.small_tracker.on_request(size);
        match self.heap.alloc_small(size) {
            SmallAlloc::Recycled { pages } => {
                let lat = SimDuration::from_nanos(
                    (self.glibc_costs.book_warm.as_nanos() as f64 * self.noise()) as u64,
                );
                Ok(lat + os.touch_resident(self.proc, pages, now))
            }
            SmallAlloc::Fresh {
                new_pages,
                grew_break,
            } => {
                if new_pages == 0 {
                    // Served from the advance reservation: the fast path.
                    let mut lat = self.costs.book_fast.mul_f64(self.noise());
                    lat += self.lock_wait(now);
                    // munlock the consumed pages on hand-off (§4).
                    self.reserve_consumed += size;
                    let unlock = (self.reserve_consumed / PAGE_SIZE) as u64;
                    if unlock > 0 {
                        os.munlock(self.proc, unlock);
                        self.reserve_consumed %= PAGE_SIZE;
                        lat += self.costs.munlock;
                    }
                    Ok(lat)
                } else {
                    // Reserve exhausted: if the management thread is
                    // mid-step, wait on it (Figure 5), else default route.
                    let wait = self.lock_wait(now);
                    let mut lat = self.glibc_costs.book_small.mul_f64(self.noise()) + wait;
                    if grew_break {
                        lat += os.syscall_cost();
                    }
                    lat += os.alloc_anon(self.proc, new_pages, FaultPath::HeapTouch, now)?;
                    Ok(lat)
                }
            }
        }
    }

    fn malloc_large(
        &mut self,
        size: usize,
        now: SimTime,
        os: &mut Os,
    ) -> Result<(SimDuration, (u64, usize)), MemError> {
        self.large_tracker.on_request(size);
        let need = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        match self.pool.take(need) {
            PoolHit::Fit(c) => {
                // Writes to pre-faulted pages dodge most of the reclaim
                // bus contention (no page-table work mid-copy).
                let c_w = 1.0 + (os.write_contention() - 1.0) * 0.15;
                let n = self.rng.tail_multiplier(self.costs.sigma_large);
                let mut lat = self.costs.book_pool.mul_f64(n * c_w);
                if self.locked_chunks.remove(&c.id) {
                    os.munlock(self.proc, pages_for(c.size));
                    lat += self.costs.munlock;
                } else {
                    lat += os.touch_resident(self.proc, pages_for(c.size), now);
                }
                if c.size > need {
                    if self.ablation.delayed_shrink {
                        self.shrink.push(c.id, c.size, need);
                        Ok((lat, (c.id, c.size)))
                    } else {
                        // Ablation: synchronous shrink on the hot path.
                        let tail = (c.size - need) as u64 / PAGE_SIZE as u64;
                        os.release_anon(self.proc, tail, false);
                        lat += os.syscall_cost() * 2;
                        Ok((lat, (c.id, need)))
                    }
                } else {
                    Ok((lat, (c.id, c.size)))
                }
            }
            PoolHit::Expand { chunk, extra } => {
                // Expand the largest chunk in place (mremap): only the
                // extra pages need mapping construction.
                let c_w = 1.0 + (os.write_contention() - 1.0) * 0.3;
                let n = self.rng.tail_multiplier(self.costs.sigma_large);
                let mut lat = self.costs.book_pool.mul_f64(n * c_w) + os.syscall_cost();
                if self.locked_chunks.remove(&chunk.id) {
                    os.munlock(self.proc, pages_for(chunk.size));
                    lat += self.costs.munlock;
                }
                lat += os.alloc_anon(self.proc, pages_for(extra), FaultPath::MmapTouch, now)?;
                Ok((lat, (chunk.id, need)))
            }
            PoolHit::Miss => {
                // Empty pool: the default mmap allocation routine.
                let n = self.rng.tail_multiplier(self.glibc_costs.sigma_large);
                let mut lat = self
                    .glibc_costs
                    .book_large
                    .mul_f64(n * os.write_contention())
                    + os.syscall_cost();
                lat += os.alloc_anon(self.proc, pages_for(need), FaultPath::MmapTouch, now)?;
                let id = self.next_chunk;
                self.next_chunk += 1;
                Ok((lat, (id, need)))
            }
        }
    }
}

impl SimAllocator for HermesSim {
    fn advance_to(&mut self, now: SimTime, os: &mut Os) {
        os.advance_to(now);
        while self.next_wakeup <= now {
            let w = self.next_wakeup;
            self.run_round(w, os);
        }
    }

    fn malloc(
        &mut self,
        size: usize,
        now: SimTime,
        os: &mut Os,
    ) -> Result<(u64, SimDuration), MemError> {
        if size >= self.cfg.mmap_threshold {
            let (lat, (id, chunk_size)) = self.malloc_large(size, now, os)?;
            self.chunks.insert(id, chunk_size);
            Ok((id, lat))
        } else {
            Ok((0, self.malloc_small(size, now, os)?))
        }
    }

    fn free(&mut self, size: usize, tag: u64, _now: SimTime, _os: &mut Os) -> SimDuration {
        match self.chunks.remove(&tag) {
            Some(chunk_size) => {
                // Freed large chunks rejoin the segregated pool (still
                // resident, evictable).
                self.shrink.cancel(tag);
                self.pool.insert(MmapChunk {
                    id: tag,
                    size: chunk_size,
                });
                SimDuration::from_nanos(600)
            }
            None => {
                self.heap.free_small(size);
                SimDuration::from_nanos(250)
            }
        }
    }

    fn reserved_unused(&self) -> usize {
        self.heap.reserve_ready() + self.pool.total_size()
    }

    fn management_busy(&self) -> SimDuration {
        self.mgmt_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;

    fn setup() -> (Os, HermesSim) {
        let mut os = Os::new(OsConfig::small_test_node());
        let a = HermesSim::new(
            os.register_process(ProcKind::LatencyCritical),
            4,
            HermesConfig::default(),
            HermesAblation::default(),
        );
        (os, a)
    }

    fn warmup(a: &mut HermesSim, os: &mut Os, size: usize, n: usize) -> SimTime {
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            let (_, lat) = a.malloc_at(size, now, os).unwrap();
            now += lat + SimDuration::from_nanos(300);
        }
        now
    }

    #[test]
    fn reservation_builds_after_first_intervals() {
        let (mut os, mut a) = setup();
        let now = warmup(&mut a, &mut os, 1024, 200);
        a.advance_to(now + SimDuration::from_millis(10), &mut os);
        assert!(
            a.reserved_unused() >= a.cfg.min_rsv / 2,
            "reserve {} bytes",
            a.reserved_unused()
        );
        assert!(a.management_busy() > SimDuration::ZERO);
    }

    #[test]
    fn small_fast_path_beats_glibc_average() {
        let (mut os, mut a) = setup();
        // Warm up so the reserve exists, then measure.
        let mut now = warmup(&mut a, &mut os, 1024, 2000);
        let mut hermes_total = SimDuration::ZERO;
        for _ in 0..500 {
            let (_, lat) = a.malloc_at(1024, now, &mut os).unwrap();
            hermes_total += lat;
            now += lat + SimDuration::from_nanos(300);
        }
        let mut os2 = Os::new(OsConfig::small_test_node());
        let mut g = crate::glibc::GlibcSim::new(os2.register_process(ProcKind::LatencyCritical), 4);
        let mut now2 = SimTime::ZERO;
        let mut glibc_total = SimDuration::ZERO;
        for _ in 0..500 {
            let (_, lat) = g.malloc_at(1024, now2, &mut os2).unwrap();
            glibc_total += lat;
            now2 += lat + SimDuration::from_nanos(300);
        }
        assert!(
            hermes_total < glibc_total,
            "hermes {hermes_total} vs glibc {glibc_total}"
        );
    }

    #[test]
    fn locked_reserve_is_unlocked_on_handoff() {
        let (mut os, mut a) = setup();
        let now = warmup(&mut a, &mut os, 1024, 100);
        a.advance_to(now + SimDuration::from_millis(20), &mut os);
        let locked_before = os.process(a.proc).unwrap().locked;
        assert!(locked_before > 0, "reserve is mlocked");
        // Consume a lot of reserve.
        let mut t = now + SimDuration::from_millis(20);
        for _ in 0..2000 {
            let (_, lat) = a.malloc_at(1024, t, &mut os).unwrap();
            t += lat + SimDuration::from_nanos(200);
        }
        let st = os.process(a.proc).unwrap();
        assert!(st.anon_resident > 0, "handed-out pages are evictable");
    }

    #[test]
    fn large_requests_hit_pool_after_warmup() {
        let (mut os, mut a) = setup();
        let mut now = SimTime::ZERO;
        let mut lats = Vec::new();
        for _ in 0..60 {
            let (_, lat) = a.malloc_at(256 * 1024, now, &mut os).unwrap();
            lats.push(lat);
            now += lat + SimDuration::from_micros(50);
        }
        // Pool reservations kick in after the first intervals; later
        // requests should include pool hits, which skip the mapping
        // construction (~900 us) but keep the per-request overhead.
        let early: SimDuration = lats[..10].iter().copied().sum();
        let late: SimDuration = lats[lats.len() - 10..].iter().copied().sum();
        assert!(late < early, "late {late} vs early {early}");
        let fast = lats.iter().filter(|l| l.as_micros() < 900).count();
        assert!(fast > 5, "pool hits: {fast}");
    }

    #[test]
    fn freed_large_chunk_is_reused_warm() {
        let (mut os, mut a) = setup();
        let (tag, first) = a.malloc_at(300 * 1024, SimTime::ZERO, &mut os).unwrap();
        a.free_at(300 * 1024, tag, SimTime::from_micros(1), &mut os);
        let (_, second) = a
            .malloc_at(300 * 1024, SimTime::from_micros(2), &mut os)
            .unwrap();
        // The reused chunk skips mapping construction.
        assert!(second < first, "warm {second} vs cold {first}");
    }

    #[test]
    fn oversized_pool_chunk_is_shrunk_next_round() {
        let (mut os, mut a) = setup();
        // Build a pool with larger chunks than the next request.
        let mut now = warmup(&mut a, &mut os, 512 * 1024, 20);
        now += SimDuration::from_millis(10);
        a.advance_to(now, &mut os);
        let (_, _lat) = a.malloc_at(200 * 1024, now, &mut os).unwrap();
        if !a.shrink.is_empty() {
            let pending = a.shrink.len();
            a.advance_to(now + SimDuration::from_millis(5), &mut os);
            assert_eq!(a.shrink.len(), 0, "{pending} shrink entries processed");
        }
    }

    #[test]
    fn reserved_unused_stays_bounded() {
        let (mut os, mut a) = setup();
        let now = warmup(&mut a, &mut os, 1024, 2000);
        a.advance_to(now + SimDuration::from_millis(50), &mut os);
        // §5.5: reserved-but-unused memory is a few MB, not unbounded.
        assert!(
            a.reserved_unused() < 64 << 20,
            "reserved {} stays bounded",
            a.reserved_unused()
        );
    }

    #[test]
    fn idle_period_then_burst_served_from_min_rsv() {
        let (mut os, mut a) = setup();
        // Idle for 100 ms: rounds run, min_rsv reserve builds.
        a.advance_to(SimTime::from_millis(100), &mut os);
        assert!(a.reserved_unused() >= a.cfg.min_rsv / 2);
        // A burst right after idle mostly avoids demand faults.
        let mut now = SimTime::from_millis(100);
        let mut slow = 0;
        for _ in 0..500 {
            let (_, lat) = a.malloc_at(1024, now, &mut os).unwrap();
            if lat > SimDuration::from_micros(8) {
                slow += 1;
            }
            now += lat;
        }
        assert!(slow < 50, "burst after idle: {slow}/500 slow");
    }

    #[test]
    fn ablation_switches_default_on() {
        let a = HermesAblation::default();
        assert!(a.gradual_reservation);
        assert!(a.delayed_shrink);
    }
}
