//! `UpdateThreshold` (Algorithms 1 and 2): adaptive reservation targets
//! derived from the previous interval's request stream.
//!
//! The management thread calls [`ThresholdTracker::roll_interval`] once per
//! wake-up; allocation fast paths report sizes via
//! [`ThresholdTracker::on_request`].

/// Demand observed during one management interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalStats {
    /// Total bytes requested.
    pub bytes: usize,
    /// Number of requests.
    pub count: u64,
}

impl IntervalStats {
    /// Mean request size of the interval, or `fallback` when idle.
    pub fn avg_size_or(&self, fallback: usize) -> usize {
        if self.count == 0 {
            fallback
        } else {
            self.bytes / self.count as usize
        }
    }
}

/// The four derived thresholds of Algorithms 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// `TGT_MEM`: stop reserving once the free reserve reaches this.
    pub tgt_mem: usize,
    /// `RSV_THR`: reserve more when the free reserve is below this.
    pub rsv_thr: usize,
    /// `TRIM_THR`: release reserve above this.
    pub trim_thr: usize,
    /// `MEM_CHUNK`: bytes reserved per `sbrk`/`mmap` call (gradual
    /// reservation step size = last interval's mean request size).
    pub mem_chunk: usize,
}

/// Rolling demand tracker producing [`Thresholds`] each interval.
#[derive(Debug, Clone)]
pub struct ThresholdTracker {
    rsv_factor: f64,
    min_rsv: usize,
    rsv_trigger_ratio: f64,
    trim_ratio: f64,
    /// Step granularity floor/alignment (page for heap, 128 KB for mmap).
    chunk_quantum: usize,
    /// Upper bound on a single reservation step.
    chunk_cap: usize,
    window: IntervalStats,
    last: IntervalStats,
}

impl ThresholdTracker {
    /// Creates a tracker.
    ///
    /// * `chunk_quantum` — step alignment: 4 KiB for the heap path,
    ///   128 KiB for the mmap path.
    /// * `chunk_cap` — largest single reservation step.
    pub fn new(
        rsv_factor: f64,
        min_rsv: usize,
        rsv_trigger_ratio: f64,
        trim_ratio: f64,
        chunk_quantum: usize,
        chunk_cap: usize,
    ) -> Self {
        assert!(chunk_quantum > 0, "chunk quantum must be positive");
        assert!(chunk_cap >= chunk_quantum, "cap below quantum");
        ThresholdTracker {
            rsv_factor,
            min_rsv,
            rsv_trigger_ratio,
            trim_ratio,
            chunk_quantum,
            chunk_cap,
            window: IntervalStats::default(),
            last: IntervalStats::default(),
        }
    }

    /// Records one request of `size` bytes in the current interval.
    pub fn on_request(&mut self, size: usize) {
        self.window.bytes = self.window.bytes.saturating_add(size);
        self.window.count += 1;
    }

    /// Records `count` requests of `size` bytes each in one call — the
    /// thread-cache refill path books a whole magazine batch at once so
    /// Algorithms 1/2 still see the demand that cache hits will absorb
    /// before the shard lock is ever taken again.
    pub fn on_request_batch(&mut self, size: usize, count: u64) {
        self.window.bytes = self
            .window
            .bytes
            .saturating_add(size.saturating_mul(count as usize));
        self.window.count += count;
    }

    /// Records the return of `count` blocks of `size` bytes each — the
    /// thread-cache flush/drain path un-books demand that refills charged
    /// but the threads never consumed, so the reservation target tracks
    /// *net* shard demand instead of ratcheting up on churn.
    pub fn on_return(&mut self, size: usize, count: u64) {
        self.window.bytes = self
            .window
            .bytes
            .saturating_sub(size.saturating_mul(count as usize));
        self.window.count = self.window.count.saturating_sub(count);
    }

    /// Records the return of `count` blocks totalling `bytes` — the
    /// cross-shard free path, where chunk sizes vary within one drain
    /// batch so the per-size form of [`ThresholdTracker::on_return`] does
    /// not apply. A block returned straight to the heap is un-booked at
    /// once; a queued one stays booked as demand until drained, which
    /// keeps reservation sizing honest about memory the inbox is still
    /// holding away from the heap.
    pub fn on_return_bytes(&mut self, bytes: usize, count: u64) {
        self.window.bytes = self.window.bytes.saturating_sub(bytes);
        self.window.count = self.window.count.saturating_sub(count);
    }

    /// Demand accumulated in the not-yet-rolled interval.
    pub fn pending(&self) -> IntervalStats {
        self.window
    }

    /// Demand of the last completed interval.
    pub fn last_interval(&self) -> IntervalStats {
        self.last
    }

    /// Closes the current interval and recomputes the thresholds
    /// (the `UpdateThreshold` function of Algorithms 1 and 2).
    pub fn roll_interval(&mut self) -> Thresholds {
        self.last = self.window;
        self.window = IntervalStats::default();
        self.thresholds()
    }

    /// Thresholds derived from the last completed interval.
    pub fn thresholds(&self) -> Thresholds {
        let demand = (self.last.bytes as f64 * self.rsv_factor) as usize;
        // The idle floor scales with the reservation factor (at the
        // paper's default of 2x it is exactly min_rsv), so sweeping
        // RSV_FACTOR meaningfully changes the standing reserve — the
        // effect Figures 15-16 measure.
        let floor = (self.min_rsv as f64 * (self.rsv_factor / 2.0)) as usize;
        let tgt_mem = demand.max(floor).max(self.chunk_quantum);
        let rsv_thr = (tgt_mem as f64 * self.rsv_trigger_ratio) as usize;
        let trim_thr = (tgt_mem as f64 * self.trim_ratio) as usize;
        let avg = self.last.avg_size_or(self.chunk_quantum);
        let mem_chunk = round_up(avg, self.chunk_quantum)
            .clamp(self.chunk_quantum, self.chunk_cap)
            .min(round_up(tgt_mem.max(1), self.chunk_quantum));
        Thresholds {
            tgt_mem,
            rsv_thr,
            trim_thr,
            mem_chunk,
        }
    }
}

/// Management rounds a [`PeakWindow`] remembers: 256 ms at the default
/// 2 ms interval.
pub const TRIM_WINDOW_ROUNDS: usize = 128;

/// The largest of the last [`TRIM_WINDOW_ROUNDS`] values pushed, so a
/// trim threshold can follow the recent peak of demand instead of the
/// last interval alone (the large path's trim rule, DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct PeakWindow {
    ring: [usize; TRIM_WINDOW_ROUNDS],
    next: usize,
}

impl PeakWindow {
    /// An empty window: every slot reads 0 until pushed over.
    pub fn new() -> Self {
        PeakWindow {
            ring: [0; TRIM_WINDOW_ROUNDS],
            next: 0,
        }
    }

    /// Records `v` in place of the oldest value and returns the max of
    /// the last [`TRIM_WINDOW_ROUNDS`] values pushed.
    pub fn push(&mut self, v: usize) -> usize {
        self.ring[self.next] = v;
        self.next = (self.next + 1) % TRIM_WINDOW_ROUNDS;
        self.ring.iter().copied().max().unwrap_or(v)
    }
}

impl Default for PeakWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// Rounds `v` up to a multiple of `quantum`.
pub fn round_up(v: usize, quantum: usize) -> usize {
    debug_assert!(quantum > 0);
    v.div_ceil(quantum) * quantum
}

/// Splits the runtime-wide reservation floor `min_rsv` across `shards`
/// arenas so the *aggregate* idle reserve of a sharded runtime matches the
/// single-heap configuration instead of multiplying by the shard count.
/// The per-shard floor never drops below `quantum` (one reservation step).
pub fn per_shard_min_rsv(min_rsv: usize, shards: usize, quantum: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    min_rsv.div_ceil(shards).max(quantum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> ThresholdTracker {
        // rsv_factor 2, min 5 MB, trigger 0.5, trim 2.0, 4 KiB quantum,
        // 1 MiB cap — the heap-path defaults.
        ThresholdTracker::new(2.0, 5 << 20, 0.5, 2.0, 4096, 1 << 20)
    }

    #[test]
    fn idle_interval_keeps_min_rsv() {
        let mut t = tracker();
        let th = t.roll_interval();
        assert_eq!(th.tgt_mem, 5 << 20);
        assert_eq!(th.rsv_thr, (5 << 20) / 2);
        assert_eq!(th.trim_thr, (5 << 20) * 2);
        assert_eq!(th.mem_chunk, 4096, "idle interval falls back to quantum");
    }

    #[test]
    fn target_is_demand_times_factor() {
        let mut t = tracker();
        for _ in 0..1000 {
            t.on_request(8 << 20 >> 10); // 8 KiB each
        }
        let th = t.roll_interval();
        let demand = 1000 * (8 << 10);
        assert_eq!(th.tgt_mem, demand * 2);
        assert_eq!(th.mem_chunk, 8 << 10, "chunk equals mean request size");
    }

    #[test]
    fn chunk_is_rounded_and_capped() {
        let mut t = tracker();
        t.on_request(5000); // not page aligned
        let th = t.roll_interval();
        assert_eq!(th.mem_chunk, 8192, "rounded up to pages");

        let mut t = tracker();
        t.on_request(64 << 20); // one huge request
        let th = t.roll_interval();
        assert_eq!(th.mem_chunk, 1 << 20, "capped at 1 MiB");
    }

    #[test]
    fn rolling_clears_the_window() {
        let mut t = tracker();
        t.on_request(1024);
        assert_eq!(t.pending().count, 1);
        t.roll_interval();
        assert_eq!(t.pending().count, 0);
        assert_eq!(t.last_interval().count, 1);
        // A second idle roll forgets the old demand.
        let th = t.roll_interval();
        assert_eq!(th.tgt_mem, 5 << 20);
    }

    #[test]
    fn small_factor_shrinks_target_and_scales_the_floor() {
        let mut t = ThresholdTracker::new(0.5, 5 << 20, 0.5, 2.0, 4096, 1 << 20);
        for _ in 0..100 {
            t.on_request(1 << 10);
        }
        let th = t.roll_interval();
        // 100 KiB * 0.5 = 50 KiB < the scaled floor of 5 MiB * 0.25.
        assert_eq!(th.tgt_mem, (5 << 20) / 4);
        // At the paper's default factor the floor is exactly min_rsv.
        let mut t = ThresholdTracker::new(2.0, 5 << 20, 0.5, 2.0, 4096, 1 << 20);
        let th = t.roll_interval();
        assert_eq!(th.tgt_mem, 5 << 20);
    }

    #[test]
    fn batch_bookkeeping_matches_singles_and_returns_unbook() {
        let mut a = tracker();
        let mut b = tracker();
        for _ in 0..32 {
            a.on_request(512);
        }
        b.on_request_batch(512, 32);
        assert_eq!(a.pending(), b.pending());
        assert_eq!(a.roll_interval(), b.roll_interval());
        // A flush un-books exactly what a refill charged; net demand for
        // a refill-then-full-flush interval is zero.
        let mut t = tracker();
        t.on_request_batch(512, 32);
        t.on_return(512, 32);
        assert_eq!(t.pending(), IntervalStats::default());
        // Returns never underflow the window (saturating).
        t.on_return(512, 99);
        assert_eq!(t.pending(), IntervalStats::default());
    }

    #[test]
    fn byte_returns_unbook_mixed_sizes() {
        // A remote-free drain returns a chain of mixed chunk sizes; the
        // byte-form return must cancel the same demand the individual
        // requests booked, and saturate rather than underflow.
        let mut t = tracker();
        t.on_request(512);
        t.on_request(2048);
        t.on_request(96);
        t.on_return_bytes(512 + 2048 + 96, 3);
        assert_eq!(t.pending(), IntervalStats::default());
        t.on_return_bytes(1 << 30, 1000);
        assert_eq!(t.pending(), IntervalStats::default());
    }

    #[test]
    fn avg_size_fallback() {
        let s = IntervalStats::default();
        assert_eq!(s.avg_size_or(4096), 4096);
        let s = IntervalStats {
            bytes: 100,
            count: 4,
        };
        assert_eq!(s.avg_size_or(4096), 25);
    }

    #[test]
    fn per_shard_floor_splits_and_clamps() {
        // Aggregate floor is preserved (up to rounding) across shards.
        assert_eq!(per_shard_min_rsv(5 << 20, 1, 4096), 5 << 20);
        assert_eq!(
            per_shard_min_rsv(5 << 20, 4, 4096),
            (5usize << 20).div_ceil(4)
        );
        // Tiny floors never drop below one reservation quantum.
        assert_eq!(per_shard_min_rsv(1024, 8, 4096), 4096);
    }

    #[test]
    fn peak_window_first_push_is_its_own_max() {
        assert_eq!(PeakWindow::new().push(7), 7);
        assert_eq!(PeakWindow::new().push(0), 0);
    }

    #[test]
    fn peak_window_holds_a_max_for_exactly_the_window() {
        let mut w = PeakWindow::new();
        assert_eq!(w.push(100), 100);
        // The peak is one of the last TRIM_WINDOW_ROUNDS values through
        // the push that makes it the oldest...
        for _ in 1..TRIM_WINDOW_ROUNDS {
            assert_eq!(w.push(3), 100);
        }
        // ...and the next push forgets it.
        assert_eq!(w.push(3), 3);
        assert_eq!(w.push(1), 3);
    }

    #[test]
    fn peak_window_follows_a_non_decreasing_input() {
        let mut w = PeakWindow::new();
        for v in 0..3 * TRIM_WINDOW_ROUNDS {
            assert_eq!(w.push(v), v);
        }
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 4096), 0);
        assert_eq!(round_up(1, 4096), 4096);
        assert_eq!(round_up(4096, 4096), 4096);
        assert_eq!(round_up(4097, 4096), 8192);
    }
}
