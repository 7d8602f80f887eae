//! The real Hermes allocator: a user-space malloc with advance
//! reservation, usable as a [`std::alloc::GlobalAlloc`].
//!
//! Architecture (generalises Figure 4 and §3.2 of the paper from one heap
//! to an arena *set*, ptmalloc-style):
//!
//! * [`heap::RawHeap`] — a main heap (brk path) for requests below the
//!   mmap threshold: boundary-tag chunks, free bins, top chunk, emulated
//!   program break.
//! * [`large::LargePool`] — the mmap path: exact-size page-granular
//!   blocks carved from one coalescing warm/cold free map, whose warm
//!   (pre-touched) bytes are Algorithm 2's pool.
//! * [`HermesHeap`] — the synchronised front end over **N arena shards**,
//!   each holding its own `RawHeap` + `LargePool` pair behind per-shard
//!   locks. Each thread allocates from one home shard (its process-wide
//!   ticket modulo the shard count), so a multi-threaded service no
//!   longer serialises on one heap lock, and each shard's demand tracker
//!   sees only the threads homed on it; another shard serves a request
//!   only once the home shard is full. It also spawns the **memory
//!   management thread**, which wakes every `f` ms and runs Algorithm 1/2
//!   *per arena* against per-arena demand trackers.
//! * [`tcache`] — per-thread magazine caches in front of the shards:
//!   small allocations and same-shard frees are served with no shard lock
//!   at all, refilling/flushing in batches so the lock is amortised over
//!   dozens of blocks; a cross-shard free returns its block straight to
//!   the owning shard's heap when a manager runs and that shard's lock
//!   is free, and pushes it onto the shard's lock-free inbox otherwise.
//! * [`global::Hermes`] — a zero-sized `#[global_allocator]` facade that
//!   lazily boots a [`HermesHeap`] through [`HermesHeap::new`], like any
//!   other heap: lazily *mapped* per-shard arenas sized by the
//!   `HERMES_HEAP_MB`/`HERMES_LARGE_MB` knobs, growable on demand within a
//!   larger reservation.
//!
//! # Examples
//!
//! ```
//! use hermes_core::rt::{HermesHeap, HermesHeapConfig};
//! use std::alloc::Layout;
//!
//! let heap = HermesHeap::new(HermesHeapConfig::small()).unwrap();
//! let layout = Layout::from_size_align(1024, 16).unwrap();
//! let p = heap.allocate(layout).expect("allocation");
//! // SAFETY: fresh, correctly sized allocation.
//! unsafe {
//!     std::ptr::write_bytes(p.as_ptr(), 0xAA, 1024);
//!     heap.deallocate(p, layout);
//! }
//! ```

pub mod arena;
pub mod error;
pub mod global;
pub mod heap;
pub mod large;
mod manager;
mod remote;
pub mod stats;
pub mod tcache;

pub use arena::{Arena, ArenaError, PAGE};
pub use error::{AllocError, IntegrityError, IntegrityViolation};
pub use global::Hermes;
pub use heap::{HeapError, HeapStats, RawHeap};
pub use large::{LargePool, LargeStats};
pub use stats::{ArenaStats, Counters, CountersSnapshot};

use crate::config::{
    default_arena_count, default_heap_capacity, default_large_capacity, HermesConfig,
};
use crate::policy::thresholds::{per_shard_min_rsv, PeakWindow, ThresholdTracker};
use manager::ManagerHandle;
use std::alloc::Layout;
use std::cell::Cell;
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError, Weak};

/// Sizing of a [`HermesHeap`].
#[derive(Debug, Clone)]
pub struct HermesHeapConfig {
    /// Initially exposed capacity of the main-heap backing, split across
    /// arenas. With `reserve_factor > 1` this is a starting size, not a
    /// ceiling: mapped arenas grow on demand within their reservation.
    pub heap_capacity: usize,
    /// Initially exposed capacity of the large-chunk backing, split
    /// across arenas (growable, as above).
    pub large_capacity: usize,
    /// Number of arena shards. Defaults to `min(ncpus, 8)`, overridable
    /// with the `HERMES_ARENAS` environment variable; `1` reproduces the
    /// paper's single-heap prototype exactly.
    pub arenas: usize,
    /// Address-space reservation multiplier: each mapped arena reserves
    /// `capacity x this` of virtual address space and exposes `capacity`,
    /// growing on demand ([`Arena::grow`]) up to the reservation. `1`
    /// restores the fixed-ceiling behaviour (exhaustion at `capacity`).
    /// Reserved-but-unexposed space is virtual only: it costs no
    /// physical memory on an overcommitting kernel.
    pub reserve_factor: usize,
    /// Policy knobs.
    pub hermes: HermesConfig,
}

impl Default for HermesHeapConfig {
    fn default() -> Self {
        HermesHeapConfig {
            heap_capacity: default_heap_capacity(),
            large_capacity: default_large_capacity(),
            arenas: default_arena_count(),
            reserve_factor: 4,
            hermes: HermesConfig::default(),
        }
    }
}

impl HermesHeapConfig {
    /// A small configuration for tests (16 MiB + 64 MiB, fixed size:
    /// `reserve_factor` 1 keeps exhaustion semantics deterministic).
    pub fn small() -> Self {
        HermesHeapConfig {
            heap_capacity: 16 << 20,
            large_capacity: 64 << 20,
            arenas: default_arena_count(),
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        }
    }

    /// Returns a copy with a different arena count (clamped to >= 1).
    pub fn with_arena_count(mut self, arenas: usize) -> Self {
        self.arenas = arenas.max(1);
        self
    }

    /// Returns a copy with a different reservation multiplier (clamped
    /// to >= 1).
    pub fn with_reserve_factor(mut self, factor: usize) -> Self {
        self.reserve_factor = factor.max(1);
        self
    }
}

/// Locks a mutex, ignoring poisoning: the allocator's state transitions
/// are small and panic-free in release; after a caller panic the state is
/// still structurally consistent.
///
/// `std::sync::Mutex` (futex-based, allocation-free) is required here:
/// `parking_lot` allocates per-thread parking data through the *global*
/// allocator on first contention, which would recurse into the very lock
/// being taken when Hermes is installed as `#[global_allocator]`.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Non-blocking variant of [`lock`]: `None` only when the lock is held.
pub(crate) fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

pub(crate) struct HeapState {
    pub raw: RawHeap,
    pub tracker: ThresholdTracker,
}

pub(crate) struct LargeState {
    pub pool: LargePool,
    pub tracker: ThresholdTracker,
    /// The peak of `tracker`'s trim threshold over the last
    /// `TRIM_WINDOW_ROUNDS` rounds: the one the pool is trimmed against.
    pub trim_peak: PeakWindow,
    /// The largest chunk the pool missed (touched pages for) over the
    /// last `TRIM_WINDOW_ROUNDS` rounds: the request the pool reserves
    /// for.
    pub miss_peak: PeakWindow,
}

/// One arena shard: a main heap and a large pool behind their own locks,
/// plus this shard's demand counters. Frees route back to the owning
/// shard by pointer range (see [`Shared::shard_of`]).
pub(crate) struct Shard {
    pub heap: Mutex<HeapState>,
    pub large: Mutex<LargeState>,
    pub counters: Counters,
    /// Lock-free inbox of cross-shard frees destined for this shard
    /// (heap path only; see [`remote`]).
    pub remote: remote::RemoteInbox,
}

impl Shard {
    fn new(heap_arena: Arena, large_arena: Arena, cfg: &HermesConfig, shards: usize) -> Self {
        let heap_tracker = ThresholdTracker::new(
            cfg.rsv_factor,
            per_shard_min_rsv(cfg.min_rsv, shards, PAGE),
            cfg.rsv_trigger_ratio,
            cfg.trim_ratio,
            PAGE,
            1 << 20,
        );
        let large_tracker = ThresholdTracker::new(
            cfg.rsv_factor,
            per_shard_min_rsv(cfg.min_rsv, shards, cfg.mmap_threshold),
            cfg.rsv_trigger_ratio,
            cfg.trim_ratio,
            cfg.mmap_threshold,
            8 << 20,
        );
        Shard {
            heap: Mutex::new(HeapState {
                raw: RawHeap::new(heap_arena),
                tracker: heap_tracker,
            }),
            large: Mutex::new(LargeState {
                pool: LargePool::new(large_arena, cfg.mmap_threshold, 0),
                tracker: large_tracker,
                trim_peak: PeakWindow::new(),
                miss_peak: PeakWindow::new(),
            }),
            counters: Counters::new(),
            remote: remote::RemoteInbox::new(),
        }
    }
}

/// One entry of the free-routing table: a half-open address range, the
/// shard it belongs to, and whether it is that shard's large arena.
type RouteRange = (usize, usize, usize, bool);

pub(crate) struct Shared {
    pub shards: Box<[Shard]>,
    /// All arena address ranges, sorted by base, for O(log N) free
    /// routing (the ranges are disjoint, so one binary probe suffices).
    ranges: Box<[RouteRange]>,
    /// Runtime-wide counters: management-round bookkeeping lives here;
    /// allocation-path counters live on the serving shard.
    pub counters: Counters,
    pub cfg: HermesConfig,
    /// Process-unique instance id, binding thread-local caches to the
    /// heap they serve across heap create/drop cycles.
    pub id: u64,
    /// Every live thread cache of this runtime, so statistics can sum
    /// their atomic tallies (`tcache::tallies`).
    pub tcaches: Mutex<Vec<Weak<tcache::ThreadCache>>>,
    /// The largest single request any shard could ever serve (the
    /// biggest large-arena *reservation*, since arenas grow on demand);
    /// bigger requests fail fast with [`AllocError::Oversized`] instead
    /// of sweeping every shard.
    pub max_request: usize,
    /// `true` while the management thread runs: cross-shard frees may
    /// then return their blocks straight to the owner's heap
    /// (`remote::free`); without it every one queues.
    /// Relaxed throughout: it publishes no data, and either route is
    /// correct whatever value a free reads.
    pub manager_live: AtomicBool,
}

impl Shared {
    /// Index of the shard owning `addr`, and whether it is a large-path
    /// pointer.
    fn shard_of(&self, addr: usize) -> Option<(usize, bool)> {
        let i = self.ranges.partition_point(|&(_, end, _, _)| end <= addr);
        let &(base, _, shard, is_large) = self.ranges.get(i)?;
        (addr >= base).then_some((shard, is_large))
    }

    /// Summed remote-inbox gauges — `(blocks, bytes)` queued, not yet
    /// drained — for one shard, or all of them.
    fn remote_gauges(&self, shard: Option<usize>) -> (u64, u64) {
        match shard {
            Some(i) => self.shards[i].remote.gauges(),
            None => self.shards.iter().fold((0, 0), |(blocks, bytes), s| {
                let (b, by) = s.remote.gauges();
                (blocks + b, bytes + by)
            }),
        }
    }

    /// The calling thread's home shard: its affinity ticket modulo the
    /// shard count (see [`NEXT_THREAD_TICKET`]). A thread whose
    /// thread-local is gone (TLS destruction during teardown) takes
    /// ticket 0.
    pub(crate) fn home_shard(&self) -> usize {
        let ticket = THREAD_TICKET
            .try_with(|c| {
                if c.get() == usize::MAX {
                    c.set(NEXT_THREAD_TICKET.fetch_add(1, Ordering::Relaxed));
                }
                c.get()
            })
            .unwrap_or(0);
        ticket % self.shards.len()
    }
}

/// Process-wide ticket dispenser for thread→arena affinity. Each thread
/// draws one ticket on its first allocation; `ticket % arenas` is its home
/// shard in every [`HermesHeap`] instance.
static NEXT_THREAD_TICKET: AtomicUsize = AtomicUsize::new(0);

/// Process-wide heap-instance id dispenser (see [`Shared::id`]).
static NEXT_HEAP_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TICKET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A complete Hermes allocator instance.
///
/// Thread-safe: allocation paths take the calling thread's home-shard
/// lock, waiting for it when busy, and sweep the other shards only when
/// the home shard is full; the management thread contends on the same
/// locks in short, gradual steps.
pub struct HermesHeap {
    shared: Arc<Shared>,
    manager: Mutex<Option<ManagerHandle>>,
}

impl fmt::Debug for HermesHeap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HermesHeap")
            .field("arenas", &self.shared.shards.len())
            .field("counters", &self.counters())
            .field("manager_running", &lock(&self.manager).is_some())
            .finish()
    }
}

impl HermesHeap {
    /// Creates an allocator with lazily mapped arenas, splitting the
    /// configured capacities evenly across `cfg.arenas` shards. Each
    /// shard's `(heap, large)` pair reserves `reserve_factor`× its slice.
    ///
    /// Free-routing ranges span each arena's full *reservation*, so
    /// pointers handed out after on-demand growth still route home.
    ///
    /// # Errors
    ///
    /// Propagates [`ArenaError`] when a backing region cannot be reserved.
    ///
    /// # Panics
    ///
    /// Panics with [`HermesConfig::validate`]'s message when `cfg.hermes`
    /// breaks one of its constraints.
    pub fn new(cfg: HermesHeapConfig) -> Result<Self, ArenaError> {
        if let Err(msg) = cfg.hermes.validate() {
            panic!("invalid HermesConfig: {msg}");
        }
        let n = cfg.arenas.max(1);
        let factor = cfg.reserve_factor.max(1);
        let heap_per = per_shard_capacity(cfg.heap_capacity, n);
        let large_per = per_shard_capacity(cfg.large_capacity, n);
        let mut ranges: Vec<RouteRange> = Vec::with_capacity(n * 2);
        let mut max_request = 0usize;
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let h = Arena::map(heap_per, heap_per.saturating_mul(factor), false)?;
            let l = Arena::map(large_per, large_per.saturating_mul(factor), false)?;
            let hb = h.base().as_ptr() as usize;
            ranges.push((hb, hb + h.reserved(), i, false));
            let lb = l.base().as_ptr() as usize;
            ranges.push((lb, lb + l.reserved(), i, true));
            max_request = max_request.max(l.reserved());
            shards.push(Shard::new(h, l, &cfg.hermes, n));
        }
        ranges.sort_unstable_by_key(|&(base, ..)| base);
        let shared = Arc::new(Shared {
            shards: shards.into_boxed_slice(),
            ranges: ranges.into_boxed_slice(),
            counters: Counters::new(),
            cfg: cfg.hermes,
            id: NEXT_HEAP_ID.fetch_add(1, Ordering::Relaxed),
            tcaches: Mutex::new(Vec::new()),
            max_request,
            manager_live: AtomicBool::new(false),
        });
        Ok(HermesHeap {
            shared,
            manager: Mutex::new(None),
        })
    }

    /// Number of arena shards.
    pub fn arena_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The calling thread's home arena index: its process-wide thread
    /// ticket modulo [`HermesHeap::arena_count`], so a thread has the
    /// same home in every instance with the same arena count.
    pub fn home_arena(&self) -> usize {
        self.shared.home_shard()
    }

    /// Index of the arena owning `ptr`, or `None` for foreign pointers.
    pub fn arena_of(&self, ptr: NonNull<u8>) -> Option<usize> {
        self.shared.shard_of(ptr.as_ptr() as usize).map(|(i, _)| i)
    }

    /// Starts the memory management thread (idempotent). While it runs,
    /// a cross-shard free whose owner's heap lock is free returns its
    /// block to that heap at once; with no live thread every cross-shard
    /// free queues for a drain (DESIGN.md §9).
    pub fn start_manager(&self) {
        let mut guard = lock(&self.manager);
        if guard.is_none() {
            *guard = Some(ManagerHandle::spawn(Arc::clone(&self.shared)));
            self.shared.manager_live.store(true, Ordering::Relaxed);
        }
    }

    /// Stops the management thread, joining it.
    pub fn stop_manager(&self) {
        if let Some(h) = lock(&self.manager).take() {
            self.shared.manager_live.store(false, Ordering::Relaxed);
            h.stop();
        }
    }

    /// `true` while the management thread runs.
    pub fn manager_running(&self) -> bool {
        lock(&self.manager).is_some()
    }

    /// Runs one management round synchronously (useful for tests and for
    /// deterministic benchmarks that do not want a live thread).
    pub fn run_management_round(&self) {
        manager::run_round(&self.shared);
    }

    /// Adds to `c` what the durable counters of `shard` (or of every
    /// shard) have not absorbed yet — the live thread caches' gauges and
    /// pending op tallies, and the remote-inbox gauges — and returns the
    /// `(blocks, bytes)` a shard heap books as in use that no user holds:
    /// parked in magazines, or queued on an inbox.
    fn add_live(&self, c: &mut CountersSnapshot, shard: Option<usize>) -> (u64, u64) {
        let t = tcache::tallies(&self.shared, shard);
        c.accumulate(&t);
        let (rblocks, rbytes) = self.shared.remote_gauges(shard);
        c.remote_queued_blocks += rblocks;
        c.remote_queued_bytes += rbytes;
        (t.cached_blocks + rblocks, t.cached_bytes + rbytes)
    }

    /// Merged counter snapshot across all arenas, including the gauges
    /// and pending hit tallies of every live thread cache.
    pub fn counters(&self) -> CountersSnapshot {
        let mut total = self.shared.counters.snapshot();
        for s in self.shared.shards.iter() {
            total.accumulate(&s.counters.snapshot());
        }
        self.add_live(&mut total, None);
        total
    }

    /// Merged main-heap statistics across all arenas.
    ///
    /// `in_use` and `live` count memory held by *users*: blocks parked
    /// in thread caches — in-use from a shard heap's view — are reported
    /// as reserve instead (see [`HermesHeap::reserved_unused_bytes`]),
    /// and blocks queued in remote-free inboxes are already freed from
    /// the user's view and excluded the same way.
    pub fn heap_stats(&self) -> HeapStats {
        let mut total = HeapStats::default();
        for s in self.shared.shards.iter() {
            total.accumulate(&lock(&s.heap).raw.stats());
        }
        let (blocks, bytes) = self.add_live(&mut CountersSnapshot::default(), None);
        subtract_not_user_held(&mut total, blocks, bytes);
        total
    }

    /// Merged large-path statistics across all arenas.
    pub fn large_stats(&self) -> LargeStats {
        let mut total = LargeStats::default();
        for s in self.shared.shards.iter() {
            total.accumulate(&lock(&s.large).pool.stats());
        }
        total
    }

    /// Per-arena statistics breakdown for arena `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.arena_count()`.
    pub fn arena_stats(&self, index: usize) -> ArenaStats {
        let s = &self.shared.shards[index];
        let mut heap = lock(&s.heap).raw.stats();
        let mut counters = s.counters.snapshot();
        let (blocks, bytes) = self.add_live(&mut counters, Some(index));
        subtract_not_user_held(&mut heap, blocks, bytes);
        ArenaStats {
            index,
            heap,
            large: lock(&s.large).pool.stats(),
            counters,
        }
    }

    /// Bytes currently reserved-but-unused (the §5.5 overhead metric:
    /// committed top-chunk reserve plus the segregated pools plus blocks
    /// parked in thread caches, summed over all arenas).
    pub fn reserved_unused_bytes(&self) -> usize {
        let mut total = 0;
        for s in self.shared.shards.iter() {
            total += lock(&s.heap).raw.reserve_ready();
            total += lock(&s.large).pool.pool_total();
        }
        total + self.cached_bytes()
    }

    /// Bytes currently parked in thread caches across all arenas.
    pub fn cached_bytes(&self) -> usize {
        tcache::tallies(&self.shared, None).cached_bytes as usize
    }

    /// Flushes the calling thread's cache for this heap back to the
    /// arena shards (a no-op when none exists). Nothing else drains a
    /// live thread's magazines, so embedders parking a thread for a long
    /// time can return its cached blocks here instead of at thread exit.
    pub fn drain_thread_cache(&self) {
        tcache::drain_current_thread(&self.shared);
    }

    /// Drains every shard's remote-free inbox back into its heap: every
    /// cross-shard free that returned before this call, by any thread,
    /// is back in its heap afterwards. The manager does this every
    /// round; embedders quiescing for an exact accounting checkpoint can
    /// force it here.
    pub fn drain_remote_inboxes(&self) {
        for i in 0..self.shared.shards.len() {
            remote::drain(&self.shared, i, usize::MAX);
        }
    }

    /// Walks every arena's heap and large-arena free map verifying
    /// structural invariants, each under its own shard lock.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a typed
    /// [`IntegrityError`] attributed to the offending arena (its
    /// `Display` output keeps the historical `"arena {i}: ..."` prefix).
    pub fn check_integrity(&self) -> Result<(), IntegrityError> {
        for (i, s) in self.shared.shards.iter().enumerate() {
            lock(&s.heap)
                .raw
                .check_integrity()
                .map_err(|e| e.with_arena(i))?;
            lock(&s.large)
                .pool
                .check_integrity()
                .map_err(|e| e.with_arena(i))?;
        }
        Ok(())
    }

    /// Allocates per `layout`.
    ///
    /// # Errors
    ///
    /// [`AllocError::Oversized`] when no shard could ever serve the
    /// request; [`AllocError::Exhausted`] when every arena is full right
    /// now.
    pub fn allocate(&self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        let size = layout.size().max(1);
        if size > self.shared.max_request {
            return Err(AllocError::Oversized {
                requested: size,
                limit: self.shared.max_request,
            });
        }
        let large = size >= self.shared.cfg.mmap_threshold;
        // Fast path: serve cacheable requests from the thread cache, no
        // shard lock. Falls through when the cache is unavailable or the
        // home shard cannot refill.
        if !large {
            if let Some(cls) = tcache::layout_class(layout) {
                if let Some(p) = tcache::allocate(&self.shared, cls) {
                    return Ok(p);
                }
            }
        }
        let shards = &self.shared.shards;
        let home = self.home_arena();
        if !large {
            // Opportunistic inbox drain: this is already a slow path (the
            // thread cache missed), so spend a bounded amount of it
            // returning remotely freed blocks before carving new memory.
            remote::drain(&self.shared, home, remote::OPPORTUNISTIC_GROUPS);
            if let Some(p) = Self::attempt(&shards[home], false, layout, size) {
                return Ok(p);
            }
        }
        // Sweep every shard from home, so the runtime only fails once
        // *all* arenas are full. On the heap path each shard's inbox is
        // first pulled back whole — the home shard's too, even when the
        // drain above found nothing, since a concurrent one may have
        // returned the blocks after the attempt above.
        for k in 0..shards.len() {
            let j = (home + k) % shards.len();
            if !large {
                remote::drain(&self.shared, j, usize::MAX);
            }
            if let Some(p) = Self::attempt(&shards[j], large, layout, size) {
                return Ok(p);
            }
        }
        // Count the failed request on the home shard so demand is visible.
        Counters::add(&shards[home].counters.alloc_count, 1);
        Err(AllocError::Exhausted)
    }

    /// One allocation attempt against `shard`'s large pool (`large`) or
    /// main heap: records the demand, allocates, and — on success — books
    /// the fast/slow counters on that shard (the lock is released before
    /// the counter updates).
    ///
    /// A class-sized heap request gets exactly its class chunk, as a
    /// thread-cache refill would carve it: the sized free parks it by its
    /// layout alone.
    fn attempt(shard: &Shard, large: bool, layout: Layout, size: usize) -> Option<NonNull<u8>> {
        let (p, touched) = if large {
            let mut g = lock(&shard.large);
            g.tracker.on_request(size);
            let before = g.pool.cold_allocs();
            let p = g.pool.alloc(size, layout.align());
            (p, g.pool.cold_allocs() > before)
        } else {
            let mut g = lock(&shard.heap);
            g.tracker.on_request(size);
            let before = g.raw.stats().demand_touched_pages;
            let p = match tcache::layout_class(layout) {
                Some(cls) => {
                    let mut slot = [0];
                    let n = g
                        .raw
                        .malloc_batch(tcache::class_chunk(cls) - heap::HDR, &mut slot);
                    NonNull::new(slot[0] as *mut u8).filter(|_| n == 1)
                }
                None => g.raw.memalign(layout.align(), size),
            };
            (p, g.raw.stats().demand_touched_pages > before)
        };
        let p = p?;
        let c = &shard.counters;
        Counters::add(&c.alloc_count, 1);
        let path = match (large, touched) {
            (false, false) => &c.fast_small,
            (false, true) => &c.slow_small,
            (true, false) => &c.fast_large,
            (true, true) => &c.slow_large,
        };
        Counters::add(path, 1);
        Some(p)
    }

    /// Frees an allocation made by [`HermesHeap::allocate`], routing the
    /// pointer back to its owning shard by address range (cross-thread
    /// frees land on the allocating shard, not the caller's home shard).
    ///
    /// A free on the block's home shard whose layout names a thread-cache
    /// class (at most 16-byte aligned, at most a 4 KiB chunk) is *sized*:
    /// it parks the block by the class its layout names and never reads
    /// the block.
    ///
    /// # Safety
    ///
    /// `ptr` must come from this heap's `allocate` with the same `layout`
    /// and must not have been freed already. A pointer no arena owns, a
    /// large block freed twice, or one whose header is not intact,
    /// aborts the process. A home free with another class's layout
    /// aborts when its magazine flushes or drains; if the block is handed
    /// out again before that, the behaviour is undefined.
    pub unsafe fn deallocate(&self, ptr: NonNull<u8>, layout: Layout) {
        let addr = ptr.as_ptr() as usize;
        let Some((idx, is_large)) = self.shared.shard_of(addr) else {
            error::misuse_abort("hermes: free of a pointer no arena owns\n")
        };
        let shard = &self.shared.shards[idx];
        if is_large {
            Counters::add(&shard.counters.free_count, 1);
            let mut g = lock(&shard.large);
            // SAFETY: pointer belongs to this shard's large arena per the
            // range check and the caller's contract.
            let chunk = unsafe { g.pool.free(ptr) };
            // The chunk is back in the pool, ready for the next request:
            // un-book it so the reserve is sized by net demand (DESIGN §2).
            g.tracker.on_return_bytes(chunk, 1);
            return;
        }
        // Sized free: the layout names the class, as it did at `allocate`.
        match tcache::free(&self.shared, idx, tcache::layout_class(layout), addr) {
            tcache::Freed::Done => return,
            // The caller's own shard, a shape no magazine takes: the
            // lock below is uncontended by construction.
            tcache::Freed::Home => {}
            // No thread cache (TLS teardown, mid-registration): fall
            // back to the lock and record the fall.
            tcache::Freed::Unavailable => {
                Counters::add(&shard.counters.remote_lock_falls, 1);
            }
        }
        // Locked path: home blocks no magazine holds, or TLS teardown.
        Counters::add(&shard.counters.free_count, 1);
        // SAFETY: pointer belongs to this shard's main heap.
        unsafe { lock(&shard.heap).raw.free(ptr) }
    }
}

/// Splits a total backing capacity across `n` shards, keeping each shard
/// page-aligned and large enough to be useful (64 pages minimum).
fn per_shard_capacity(total: usize, n: usize) -> usize {
    ((total / n) / PAGE * PAGE).max(PAGE * 64)
}

/// Re-books blocks no user holds — parked in thread caches (reserve) or
/// queued on a remote inbox (in transit) — out of a
/// [`HeapStats`] view, where the shard heaps count them as in use.
/// Saturating: the gauges and the locked stats snapshot are read at
/// slightly different instants, so a racing pop may transiently exceed
/// the snapshot.
fn subtract_not_user_held(stats: &mut HeapStats, blocks: u64, bytes: u64) {
    stats.in_use = stats.in_use.saturating_sub(bytes as usize);
    stats.live = stats.live.saturating_sub(blocks as usize);
}

impl Drop for HermesHeap {
    fn drop(&mut self) {
        self.stop_manager();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 16).unwrap()
    }

    #[test]
    fn small_and_large_round_trip() {
        let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
        let s = h.allocate(layout(100)).unwrap();
        let l = h.allocate(layout(300 * 1024)).unwrap();
        // SAFETY: fresh allocations of the stated sizes.
        unsafe {
            std::ptr::write_bytes(s.as_ptr(), 1, 100);
            std::ptr::write_bytes(l.as_ptr(), 2, 300 * 1024);
            h.deallocate(s, layout(100));
            h.deallocate(l, layout(300 * 1024));
        }
        let c = h.counters();
        assert_eq!(c.alloc_count, 2);
        assert_eq!(c.free_count, 2);
    }

    #[test]
    #[should_panic(expected = "trim_ratio")]
    fn invalid_policy_config_is_refused() {
        // A trim threshold below the target would trim under it and
        // reserve again every round.
        let mut cfg = HermesHeapConfig::small();
        cfg.hermes.trim_ratio = 0.5;
        let _ = HermesHeap::new(cfg);
    }

    #[test]
    fn management_round_builds_reserve() {
        let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
        // Create demand so the trackers see a non-trivial interval.
        let mut ptrs = Vec::new();
        for _ in 0..100 {
            ptrs.push(h.allocate(layout(2048)).unwrap());
        }
        h.run_management_round();
        assert!(
            h.reserved_unused_bytes() >= h.shared.cfg.min_rsv / 2,
            "reserve built: {}",
            h.reserved_unused_bytes()
        );
        // Subsequent small allocations ride the fast path.
        let before = h.counters();
        for _ in 0..100 {
            ptrs.push(h.allocate(layout(2048)).unwrap());
        }
        let after = h.counters();
        assert_eq!(
            after.slow_small, before.slow_small,
            "no demand faults after reservation"
        );
        for p in ptrs {
            // SAFETY: each pointer live exactly once.
            unsafe { h.deallocate(p, layout(2048)) };
        }
    }

    #[test]
    fn a_freed_large_burst_stays_warm_for_the_window_then_trims() {
        use crate::policy::TRIM_WINDOW_ROUNDS;
        const BURST: usize = 8;
        let big = layout(1 << 20);
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(1)).unwrap();
        let ptrs: Vec<_> = (0..BURST).map(|_| h.allocate(big).unwrap()).collect();
        // The round that sees the burst live books its peak.
        h.run_management_round();
        for p in ptrs {
            // SAFETY: each pointer live exactly once.
            unsafe { h.deallocate(p, big) };
        }
        let warm = h.large_stats();
        assert!(warm.pool_bytes >= BURST << 20, "{warm:?}");
        // Idle rounds until the burst's round is the window's oldest: the
        // freed burst stays warm.
        for _ in 1..TRIM_WINDOW_ROUNDS {
            h.run_management_round();
        }
        let held = h.large_stats();
        assert_eq!(h.counters().decommitted_bytes, 0, "{held:?}");
        assert!(held.pool_bytes >= BURST << 20, "{held:?}");
        // One more round forgets the peak and trims.
        h.run_management_round();
        let trimmed = h.large_stats();
        assert!(h.counters().decommitted_bytes > 0, "{trimmed:?}");
        assert!(trimmed.committed < held.committed, "{trimmed:?}");
        h.check_integrity().unwrap();
    }

    #[test]
    fn a_missed_large_request_is_reserved_for_by_the_next_round() {
        use crate::policy::TRIM_WINDOW_ROUNDS;
        use large::FIT_UNITS;
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(1)).unwrap();
        // Warm slivers, each kept apart by a live block: bytes enough for
        // Algorithm 2's byte rule to read the pool as full, and no range a
        // 1 MiB request fits.
        let (sliver, keep, big) = (layout(256 << 10), layout(128 << 10), layout(1 << 20));
        let pairs: Vec<_> = (0..12)
            .map(|_| (h.allocate(sliver).unwrap(), h.allocate(keep).unwrap()))
            .collect();
        for &(s, _) in &pairs {
            // SAFETY: each sliver live, freed once.
            unsafe { h.deallocate(s, sliver) };
        }
        h.run_management_round();
        h.check_integrity().unwrap();
        let (before, reserved) = (h.large_stats(), h.counters().reserved_bytes);
        let missed = h.allocate(big).unwrap();
        assert_eq!(h.large_stats().cold_allocs, before.cold_allocs + 1);
        h.run_management_round();
        h.check_integrity().unwrap();
        let chunk = (1 << 20) + PAGE;
        assert!(
            h.counters().reserved_bytes >= reserved + (FIT_UNITS * chunk) as u64,
            "{:?}",
            h.large_stats()
        );
        let s = h.large_stats();
        let hits: Vec<_> = (0..FIT_UNITS).map(|_| h.allocate(big).unwrap()).collect();
        let t = h.large_stats();
        assert_eq!(t.cold_allocs, s.cold_allocs, "{t:?}");
        assert_eq!(t.pool_hits, s.pool_hits + FIT_UNITS as u64);
        h.check_integrity().unwrap();
        // Idle rounds: the miss leaves the window, and with it the reserve
        // it drove.
        for _ in 0..TRIM_WINDOW_ROUNDS {
            h.run_management_round();
        }
        let settled = h.counters().reserved_bytes;
        for _ in 0..TRIM_WINDOW_ROUNDS {
            h.run_management_round();
        }
        assert_eq!(h.counters().reserved_bytes, settled);
        h.check_integrity().unwrap();
        for p in hits.into_iter().chain([missed]) {
            // SAFETY: each pointer live, freed once.
            unsafe { h.deallocate(p, big) };
        }
        for (_, k) in pairs {
            // SAFETY: each keeper live, freed once.
            unsafe { h.deallocate(k, keep) };
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn manager_thread_runs_rounds() {
        let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
        h.start_manager();
        assert!(h.manager_running());
        for _ in 0..50 {
            let p = h.allocate(layout(4096)).unwrap();
            // SAFETY: p live.
            unsafe { h.deallocate(p, layout(4096)) };
        }
        std::thread::sleep(Duration::from_millis(80));
        h.stop_manager();
        assert!(!h.manager_running());
        let c = h.counters();
        assert!(c.manager_rounds >= 2, "rounds {}", c.manager_rounds);
        assert!(c.reserved_bytes > 0);
    }

    #[test]
    fn start_manager_is_idempotent() {
        let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
        h.start_manager();
        h.start_manager();
        h.stop_manager();
        h.stop_manager();
    }

    #[test]
    fn concurrent_allocation_with_manager() {
        let h = Arc::new(HermesHeap::new(HermesHeapConfig::small()).unwrap());
        h.start_manager();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    let mut live = Vec::new();
                    for i in 0..500usize {
                        let sz = 64 + (i * (t + 3)) % 3000;
                        let lay = layout(sz);
                        let p = h.allocate(lay).unwrap();
                        // SAFETY: fresh allocation.
                        unsafe { std::ptr::write_bytes(p.as_ptr(), t as u8, sz) };
                        live.push((p, lay));
                        if i % 2 == 0 {
                            let (q, ql) = live.swap_remove(i % live.len());
                            // SAFETY: removed from live set.
                            unsafe { h.deallocate(q, ql) };
                        }
                    }
                    for (p, l) in live {
                        // SAFETY: still live.
                        unsafe { h.deallocate(p, l) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        h.stop_manager();
        let hs = h.heap_stats();
        assert_eq!(hs.live, 0, "all freed");
        h.check_integrity().unwrap();
    }

    #[test]
    fn mmap_threshold_routes_paths() {
        let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
        let small = h.allocate(layout(127 * 1024)).unwrap();
        let large = h.allocate(layout(128 * 1024)).unwrap();
        let c = h.counters();
        assert_eq!(c.fast_small + c.slow_small, 1);
        assert_eq!(c.fast_large + c.slow_large, 1);
        // SAFETY: both live.
        unsafe {
            h.deallocate(small, layout(127 * 1024));
            h.deallocate(large, layout(128 * 1024));
        }
    }

    #[test]
    fn single_arena_mode_matches_paper_shape() {
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(1)).unwrap();
        assert_eq!(h.arena_count(), 1);
        assert_eq!(h.home_arena(), 0);
        let p = h.allocate(layout(512)).unwrap();
        assert_eq!(h.arena_of(p), Some(0));
        let a = h.arena_stats(0);
        assert_eq!(a.heap.live, 1);
        // SAFETY: p live.
        unsafe { h.deallocate(p, layout(512)) };
        assert_eq!(h.arena_stats(0).heap.live, 0);
    }

    #[test]
    fn frees_route_to_owning_shard() {
        let h = Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(4)).unwrap());
        assert_eq!(h.arena_count(), 4);
        // Allocate on worker threads (different home shards), free on the
        // main thread: every free must land on the allocating shard.
        let ptrs: Vec<(usize, usize)> = (0..8)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    let p = h.allocate(layout(2048)).unwrap();
                    (p.as_ptr() as usize, h.arena_of(p).unwrap())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        let live_before: Vec<usize> = (0..4).map(|i| h.arena_stats(i).heap.live).collect();
        assert_eq!(live_before.iter().sum::<usize>(), 8);
        for &(addr, owner) in &ptrs {
            let p = NonNull::new(addr as *mut u8).unwrap();
            assert_eq!(h.arena_of(p), Some(owner));
            // SAFETY: each pointer live exactly once, layout as allocated.
            unsafe { h.deallocate(p, layout(2048)) };
        }
        for i in 0..4 {
            assert_eq!(h.arena_stats(i).heap.live, 0, "arena {i} drained");
        }
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn threads_spread_across_arenas() {
        let heap =
            |n| Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(n)).unwrap());
        let (h2, h4, h8) = (heap(2), heap(4), heap(8));
        let homes: Vec<usize> = (0..8)
            .map(|_| {
                let (h2, h4, h8) = (Arc::clone(&h2), Arc::clone(&h4), Arc::clone(&h8));
                std::thread::spawn(move || {
                    // One ticket per thread, the same in every instance.
                    let (home2, home4, home8) = (h2.home_arena(), h4.home_arena(), h8.home_arena());
                    assert_eq!(home8 % 4, home4, "8 vs 4 arenas");
                    assert_eq!(home4 % 2, home2, "4 vs 2 arenas");
                    home4
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        let distinct: std::collections::HashSet<usize> = homes.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "8 threads over 4 arenas use >= 2 distinct homes: {homes:?}"
        );
    }

    /// Allocates `size` bytes while a helper thread holds `m`, one of the
    /// calling thread's home-shard locks, for 20 ms: the block must still
    /// come from the home arena.
    fn allocate_under_held_home_lock<T: Send>(h: &HermesHeap, m: &Mutex<T>, size: usize) {
        let home = h.home_arena();
        let (tx, rx) = std::sync::mpsc::sync_channel(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock(m);
                tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            });
            rx.recv().unwrap();
            let p = h.allocate(layout(size)).unwrap();
            assert_eq!(h.arena_of(p), Some(home), "{size} B waited for home");
            // SAFETY: p live, freed once.
            unsafe { h.deallocate(p, layout(size)) };
        });
    }

    #[test]
    fn allocation_waits_for_its_home_shard() {
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(2)).unwrap();
        let home = &h.shared.shards[h.home_arena()];
        // 8 KiB is no thread-cache class: it takes the heap lock.
        allocate_under_held_home_lock(&h, &home.heap, 8192);
        allocate_under_held_home_lock(&h, &home.large, 256 << 10);
        assert_eq!(h.counters().remote_frees, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn large_frees_unbook_demand() {
        let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
        // No management round may roll the interval under the test.
        h.stop_manager();
        let home = &h.shared.shards[h.home_arena()];
        let lay = layout(256 << 10);
        let pending = || lock(&home.large).tracker.pending().bytes;
        let churn: Vec<_> = (0..8).map(|_| h.allocate(lay).unwrap()).collect();
        for p in churn {
            // SAFETY: each pointer live, freed once.
            unsafe { h.deallocate(p, lay) };
        }
        assert_eq!(pending(), 0, "freed chunks are pool, not demand");
        let kept: Vec<_> = (0..8).map(|_| h.allocate(lay).unwrap()).collect();
        assert_eq!(pending(), 8 * (256 << 10));
        for p in kept {
            // SAFETY: each pointer live, freed once.
            unsafe { h.deallocate(p, lay) };
        }
    }

    /// Allocates `count` chunks of `chunk` bytes from a 4×minimum-size
    /// shard set, asserting the requests spilled across >= 2 arenas and
    /// drain cleanly.
    fn exhaustion_spills(chunk: usize, count: usize) -> CountersSnapshot {
        let cfg = HermesHeapConfig {
            heap_capacity: PAGE * 64 * 4,
            large_capacity: PAGE * 64 * 4,
            arenas: 4,
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        };
        let h = HermesHeap::new(cfg).unwrap();
        let mut ptrs = Vec::new();
        for _ in 0..count {
            ptrs.push(h.allocate(layout(chunk)).expect("fallback serves"));
        }
        let used_arenas: std::collections::HashSet<usize> =
            ptrs.iter().map(|p| h.arena_of(*p).unwrap()).collect();
        assert!(used_arenas.len() >= 2, "spilled across shards");
        for p in ptrs {
            // SAFETY: live.
            unsafe { h.deallocate(p, layout(chunk)) };
        }
        assert_eq!(h.heap_stats().in_use, 0);
        assert_eq!(h.large_stats().live, 0);
        h.counters()
    }

    #[test]
    fn tcache_serves_second_allocation_from_the_magazine() {
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(1)).unwrap();
        let a = h.allocate(layout(256)).unwrap();
        // The refill carved a whole batch; all but the served block are
        // parked in this thread's magazine.
        let c = h.counters();
        assert_eq!(c.tcache_refills, 1);
        assert_eq!(c.cached_blocks, (tcache::TCACHE_BATCH - 1) as u64);
        assert!(c.cached_bytes > 0);
        // Free caches the block; the next same-class allocation is a hit.
        // SAFETY: a live, freed once.
        unsafe { h.deallocate(a, layout(256)) };
        let b = h.allocate(layout(256)).unwrap();
        let c = h.counters();
        assert_eq!(c.tcache_refills, 1, "no second lock-path refill");
        assert!(c.tcache_hits >= 1);
        assert_eq!(c.alloc_count, 2);
        assert_eq!(c.free_count, 1);
        // Cached blocks count as reserve, not user memory.
        assert_eq!(h.heap_stats().live, 1);
        assert!(h.reserved_unused_bytes() >= h.cached_bytes());
        // SAFETY: b live, freed once.
        unsafe { h.deallocate(b, layout(256)) };
        h.drain_thread_cache();
        assert_eq!(h.cached_bytes(), 0);
        assert_eq!(h.heap_stats().live, 0);
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn first_touch_after_quiet_rounds_keeps_magazines() {
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(1)).unwrap();
        let a = h.allocate(layout(512)).unwrap();
        let b = h.allocate(layout(512)).unwrap();
        // SAFETY: a live, freed once.
        unsafe { h.deallocate(a, layout(512)) };
        let before = h.counters();
        assert!(before.cached_blocks > 0, "magazine populated");
        // A long quiet period from the manager's point of view: nothing
        // it does may reach into a thread's magazines.
        for _ in 0..20 {
            h.run_management_round();
        }
        // The first touch after the quiet period is an ordinary warm
        // free: it parks its block beside the others, flushing nothing.
        // SAFETY: b live, freed once.
        unsafe { h.deallocate(b, layout(512)) };
        let after = h.counters();
        assert_eq!(after.cached_blocks, before.cached_blocks + 1);
        assert_eq!(after.tcache_flushes, before.tcache_flushes);
        assert_eq!(h.heap_stats().in_use, 0);
        assert_eq!(h.heap_stats().live, 0);
        h.drain_thread_cache();
        assert_eq!(h.counters().cached_blocks, 0);
        h.check_integrity().unwrap();
    }

    /// A class-sized request the locked fallback serves occupies exactly
    /// its class chunk, as a refill would carve it, so a sized free on
    /// its shard's own thread parks it by the layout alone.
    #[test]
    fn a_class_sized_fallback_block_is_its_class_chunk_and_parks_at_home() {
        let cfg = HermesHeapConfig {
            heap_capacity: PAGE * 64 * 2,
            large_capacity: PAGE * 64 * 2,
            arenas: 2,
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        };
        let h = Arc::new(HermesHeap::new(cfg).unwrap());
        let size = 4000;
        let chunk = tcache::cache_chunk_for(size).unwrap();
        assert_ne!(chunk, RawHeap::request_chunk_size(size), "class rounds up");
        // Fill the home shard until it cannot refill: the next request
        // spills to the other shard through `attempt`.
        let home = h.home_arena();
        let mut kept = Vec::new();
        let spilled = loop {
            let p = h.allocate(layout(size)).unwrap();
            if h.arena_of(p) != Some(home) {
                break p;
            }
            kept.push(p);
        };
        let other = h.arena_of(spilled).unwrap();
        assert_eq!(h.arena_stats(other).heap.in_use, chunk, "exact class chunk");
        // Freed on a thread homed on the block's shard, it parks.
        let addr = spilled.as_ptr() as usize;
        let parked = (0..8).find_map(|_| {
            let hh = Arc::clone(&h);
            std::thread::spawn(move || {
                (hh.home_arena() == other).then(|| {
                    let before = hh.counters().cached_blocks;
                    let p = NonNull::new(addr as *mut u8).unwrap();
                    // SAFETY: live, freed once, layout as allocated.
                    unsafe { hh.deallocate(p, layout(size)) };
                    let after = hh.counters().cached_blocks;
                    hh.check_integrity().unwrap();
                    after - before
                })
            })
            .join()
            .unwrap()
        });
        assert_eq!(parked, Some(1), "the sized free parked the fallback block");
        for p in kept {
            // SAFETY: live, freed once.
            unsafe { h.deallocate(p, layout(size)) };
        }
        h.drain_thread_cache();
        assert_eq!(h.heap_stats().live, 0);
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn cross_thread_free_takes_bypass_and_balances() {
        let h = Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(4)).unwrap());
        // Allocate a cacheable block on another thread (its cache drains
        // at thread exit), free it here: the owner shard differs from
        // this thread's home for at least some of the 8 spawned threads.
        let ptrs: Vec<(usize, usize)> = (0..8)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    let p = h.allocate(layout(128)).unwrap();
                    (p.as_ptr() as usize, h.arena_of(p).unwrap())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        for &(addr, owner) in &ptrs {
            let p = NonNull::new(addr as *mut u8).unwrap();
            let before = h.arena_stats(owner).counters.free_count;
            // SAFETY: live, freed once, layout as allocated.
            unsafe { h.deallocate(p, layout(128)) };
            assert_eq!(
                h.arena_stats(owner).counters.free_count,
                before + 1,
                "free lands on the owning shard, cached or bypassed"
            );
        }
        h.drain_thread_cache();
        assert_eq!(h.cached_bytes(), 0);
        assert_eq!(h.heap_stats().live, 0);
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    /// Allocates `count` blocks of layout `lay` on a worker thread whose
    /// home shard differs from the caller's, returning the addresses and
    /// the owning shard. Panics if no such worker appears in 8 tries
    /// (ticket assignment is round-robin, so one always does).
    fn alloc_on_foreign_home(
        h: &Arc<HermesHeap>,
        lay: Layout,
        count: usize,
    ) -> (Vec<usize>, usize) {
        let my_home = h.home_arena();
        for _ in 0..8 {
            let hh = Arc::clone(h);
            let got = std::thread::spawn(move || {
                if hh.home_arena() == my_home {
                    return None;
                }
                let addrs: Vec<usize> = (0..count)
                    .map(|_| hh.allocate(lay).unwrap().as_ptr() as usize)
                    .collect();
                Some(addrs)
            })
            .join()
            .unwrap();
            if let Some(addrs) = got {
                let owner = h
                    .arena_of(NonNull::new(addrs[0] as *mut u8).unwrap())
                    .unwrap();
                return (addrs, owner);
            }
        }
        panic!("no worker landed on a foreign home shard");
    }

    /// A heap whose management thread is live but never wakes (its
    /// interval is an hour): cross-shard frees take the direct route
    /// when they can, and no round races the test.
    pub(super) fn idle_manager_heap(arenas: usize) -> Arc<HermesHeap> {
        let mut cfg = HermesHeapConfig::small().with_arena_count(arenas);
        cfg.hermes.interval = Duration::from_secs(3600);
        let h = Arc::new(HermesHeap::new(cfg).unwrap());
        h.start_manager();
        h
    }

    /// Runs `f` on the calling thread while a helper thread holds `m`
    /// (the shape of `allocate_under_held_home_lock`), and returns once
    /// the helper has let go. A cross-shard free inside `f` meets its
    /// owner's heap lock held and queues; one that waited would hang.
    fn while_held<T: Send, R>(m: &Mutex<T>, f: impl FnOnce() -> R) -> R {
        let (held_tx, held_rx) = std::sync::mpsc::sync_channel(0);
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel::<()>(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _held = lock(m);
                held_tx.send(()).unwrap();
                let _ = done_rx.recv();
            });
            held_rx.recv().unwrap();
            let r = f();
            drop(done_tx);
            r
        })
    }

    /// Cross-shard frees of `addrs` (layout `lay`) from the calling
    /// thread, each through `deallocate`.
    fn free_each(h: &HermesHeap, addrs: &[usize], lay: Layout) {
        for &addr in addrs {
            // SAFETY: live, freed once, layout as allocated.
            unsafe { h.deallocate(NonNull::new(addr as *mut u8).unwrap(), lay) };
        }
    }

    #[test]
    fn uncontended_cross_shard_free_returns_to_the_owner_heap_at_once() {
        // Every heap-path shape: a magazine class, a chunk above the
        // largest class, and an over-aligned block no magazine takes.
        for lay in [
            layout(256),
            layout(PAGE * 2),
            Layout::from_size_align(256, 64).unwrap(),
        ] {
            let h = idle_manager_heap(4);
            let n = remote::REMOTE_BATCH + 4;
            let (addrs, owner) = alloc_on_foreign_home(&h, lay, n);
            assert_ne!(owner, h.home_arena());
            for (i, &addr) in addrs.iter().enumerate() {
                let in_use = h.arena_stats(owner).heap.in_use;
                // SAFETY: `addr` heads a live heap-path allocation.
                let chunk = unsafe { RawHeap::live_chunk_size(addr) };
                let demand = lock(&h.shared.shards[owner].heap).tracker.pending();
                free_each(&h, &[addr], lay);
                // Back in the owner's heap before `deallocate` returned:
                // nothing queued, nothing left to drain.
                let c = h.counters();
                assert_eq!(c.remote_frees, (i + 1) as u64, "{lay:?}");
                assert_eq!(c.free_count, (i + 1) as u64, "{lay:?}");
                assert_eq!(c.remote_lock_falls, 0, "{lay:?}");
                assert_eq!(c.remote_drained, 0, "{lay:?}");
                assert_eq!(c.remote_queued_blocks, 0, "{lay:?}");
                assert_eq!(c.remote_queued_bytes, 0, "{lay:?}");
                assert_eq!(h.arena_stats(owner).heap.in_use, in_use - chunk, "{lay:?}");
                let after = lock(&h.shared.shards[owner].heap).tracker.pending();
                // Saturating like the tracker: requests book their size,
                // returns un-book the whole chunk.
                let bytes = demand.bytes.saturating_sub(chunk);
                assert_eq!(after.bytes, bytes, "{lay:?}: un-booked");
                assert_eq!(after.count, demand.count - 1, "{lay:?}: un-booked");
            }
            assert_eq!(h.heap_stats().live, 0, "{lay:?}");
            assert_eq!(h.heap_stats().in_use, 0, "{lay:?}");
            h.check_integrity().unwrap();
        }
    }

    #[test]
    fn cross_shard_free_under_held_owner_lock_queues_until_drained() {
        let h = idle_manager_heap(4);
        let lay = layout(256);
        let (addrs, owner) = alloc_on_foreign_home(&h, lay, 5);
        let demand = lock(&h.shared.shards[owner].heap).tracker.pending();
        while_held(&h.shared.shards[owner].heap, || {
            free_each(&h, &addrs[..3], lay)
        });
        // Queued, booked in the gauges, still booked as demand.
        let c = h.counters();
        assert_eq!(c.remote_frees, 3);
        assert_eq!(c.remote_lock_falls, 0);
        assert_eq!(c.remote_queued_blocks, 3);
        assert!(c.remote_queued_bytes >= 3 * 256);
        assert_eq!(c.remote_drained, 0);
        assert_eq!(lock(&h.shared.shards[owner].heap).tracker.pending(), demand);
        assert_eq!(h.heap_stats().live, 2, "in transit, not user-held");
        // The lock is free again, but the inbox is not: the next free
        // queues behind the others.
        free_each(&h, &addrs[3..4], lay);
        assert_eq!(h.counters().remote_queued_blocks, 4);
        h.drain_remote_inboxes();
        let c = h.counters();
        assert_eq!(c.remote_drained, 4);
        assert_eq!((c.remote_queued_blocks, c.remote_queued_bytes), (0, 0));
        let after = lock(&h.shared.shards[owner].heap).tracker.pending();
        assert_eq!(after.count, demand.count - 4, "the drain un-booked them");
        // Drained empty, the inbox lets the direct route back in.
        free_each(&h, &addrs[4..], lay);
        let c = h.counters();
        assert_eq!((c.remote_drained, c.remote_queued_blocks), (4, 0));
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn remote_free_queues_cross_thread_and_drains() {
        // Every heap-path shape queues: a magazine class, a chunk above
        // the largest class, and an over-aligned block no magazine takes.
        for lay in [
            layout(256),
            layout(PAGE * 2),
            Layout::from_size_align(256, 64).unwrap(),
        ] {
            let h =
                Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(4)).unwrap());
            let n = remote::REMOTE_BATCH + 4; // one drain group + a partial
            let (addrs, owner) = alloc_on_foreign_home(&h, lay, n);
            assert_ne!(owner, h.home_arena());
            for &addr in &addrs {
                assert_eq!(addr % lay.align(), 0, "{lay:?}");
                // SAFETY: live, freed once, layout as allocated.
                unsafe { h.deallocate(NonNull::new(addr as *mut u8).unwrap(), lay) };
            }
            let c = h.counters();
            assert_eq!(c.remote_frees, n as u64, "{lay:?}: every free staged");
            assert_eq!(c.remote_lock_falls, 0, "{lay:?}: no lock fallbacks");
            assert_eq!(c.free_count, n as u64, "{lay:?}: booked at stage time");
            assert_eq!(c.remote_queued_blocks, n as u64, "{lay:?}: staged + queued");
            assert!(c.remote_queued_bytes >= (lay.size() * n) as u64, "{lay:?}");
            // Queued blocks are in transit, not user-held: the stats views
            // balance without waiting for a drain.
            assert_eq!(h.heap_stats().live, 0, "{lay:?}");
            assert_eq!(h.heap_stats().in_use, 0, "{lay:?}");
            assert_eq!(h.arena_stats(owner).heap.live, 0, "{lay:?}");
            h.drain_remote_inboxes();
            let c = h.counters();
            assert_eq!(
                c.remote_drained, n as u64,
                "{lay:?}: drain retired the chains"
            );
            assert_eq!(c.remote_queued_blocks, 0, "{lay:?}");
            assert_eq!(c.remote_queued_bytes, 0, "{lay:?}");
            assert_eq!(h.heap_stats().live, 0, "{lay:?}");
            assert_eq!(h.heap_stats().in_use, 0, "{lay:?}");
            h.check_integrity().unwrap();
        }
    }

    #[test]
    fn home_free_of_uncacheable_block_takes_the_locked_path() {
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(4)).unwrap();
        for lay in [layout(PAGE * 2), Layout::from_size_align(256, 64).unwrap()] {
            let before = h.counters();
            let p = h.allocate(lay).unwrap();
            assert_eq!(
                h.arena_of(p),
                Some(h.home_arena()),
                "{lay:?}: served at home"
            );
            // SAFETY: p live, freed once, layout as allocated.
            unsafe { h.deallocate(p, lay) };
            // The block went straight back into the home heap: parked in
            // no magazine, queued on no inbox, nothing left to drain.
            let c = h.counters();
            assert_eq!(c.free_count, before.free_count + 1, "{lay:?}");
            assert_eq!(c.cached_blocks, before.cached_blocks, "{lay:?}");
            assert_eq!(c.remote_frees, 0, "{lay:?}");
            assert_eq!(c.remote_lock_falls, 0, "{lay:?}");
            assert_eq!(h.arena_stats(h.home_arena()).heap.in_use, 0, "{lay:?}");
            assert_eq!(h.heap_stats().in_use, 0, "{lay:?}");
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn manager_round_drains_pushed_chains() {
        let h = Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(4)).unwrap());
        // Exactly one drain group, every block on the inbox already.
        let n = remote::REMOTE_BATCH;
        let (addrs, _) = alloc_on_foreign_home(&h, layout(512), n);
        for &addr in &addrs {
            // SAFETY: live, freed once, layout as allocated.
            unsafe { h.deallocate(NonNull::new(addr as *mut u8).unwrap(), layout(512)) };
        }
        assert_eq!(h.counters().remote_queued_blocks, n as u64);
        h.run_management_round();
        let c = h.counters();
        assert_eq!(c.remote_drained, n as u64, "manager drained the inbox");
        assert_eq!(c.remote_queued_blocks, 0);
        assert_eq!(h.heap_stats().live, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn live_manager_alone_retires_queued_frees() {
        // A producer/consumer service whose owning shard never allocates
        // again: the manager's round is the only automatic way back.
        let mut cfg = HermesHeapConfig::small().with_arena_count(4);
        cfg.hermes.interval = Duration::from_millis(1);
        let h = Arc::new(HermesHeap::new(cfg).unwrap());
        h.start_manager();
        let lay = layout(256);
        let n = remote::REMOTE_BATCH + 4;
        let (addrs, owner) = alloc_on_foreign_home(&h, lay, n);
        assert_ne!(owner, h.home_arena());
        // Held owner lock: every free queues (none waits for it).
        while_held(&h.shared.shards[owner].heap, || free_each(&h, &addrs, lay));
        assert_eq!(h.counters().remote_frees, n as u64);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while h.counters().remote_drained < n as u64 {
            assert!(
                std::time::Instant::now() < deadline,
                "manager left {} of {n} queued frees",
                n as u64 - h.counters().remote_drained
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let c = h.counters();
        assert_eq!(c.remote_drained, n as u64);
        assert_eq!((c.remote_queued_blocks, c.remote_queued_bytes), (0, 0));
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    /// A two-arena, fixed-size heap filled with `layout(PAGE * 2)` blocks
    /// until `Exhausted`, and the blocks' addresses.
    fn exhausted_two_arena_heap() -> (Arc<HermesHeap>, Vec<usize>) {
        let cfg = HermesHeapConfig {
            heap_capacity: PAGE * 64 * 2,
            large_capacity: PAGE * 64 * 2,
            arenas: 2,
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        };
        let h = Arc::new(HermesHeap::new(cfg).unwrap());
        let mut live: Vec<usize> = Vec::new();
        while let Ok(p) = h.allocate(layout(PAGE * 2)) {
            live.push(p.as_ptr() as usize);
            assert!(live.len() <= 4096, "tiny config must exhaust");
        }
        (h, live)
    }

    /// Frees every block of `live` not already in `freed`, drains the
    /// inboxes, and checks that the heap of [`exhausted_two_arena_heap`]
    /// is empty and intact again.
    fn release_rest_and_check(h: &HermesHeap, live: Vec<usize>, freed: &[usize]) {
        for addr in live {
            if !freed.contains(&addr) {
                // SAFETY: still live (no worker freed it), freed once.
                unsafe { h.deallocate(NonNull::new(addr as *mut u8).unwrap(), layout(PAGE * 2)) };
            }
        }
        h.drain_remote_inboxes();
        let c = h.counters();
        assert_eq!(c.remote_queued_blocks, 0);
        assert_eq!(c.remote_queued_bytes, 0);
        assert_eq!(h.heap_stats().live, 0);
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn exhausted_shards_recover_from_queued_remote_frees() {
        let (h, live) = exhausted_two_arena_heap();
        // A worker frees every block foreign to *its* home shard: each
        // goes onto its owner's inbox. The freed memory is now parked in
        // inboxes — the heaps themselves are still full.
        let freed: Vec<usize> = {
            let hh = Arc::clone(&h);
            let all = live.clone();
            std::thread::spawn(move || {
                let mine = hh.home_arena();
                all.into_iter()
                    .filter(|&addr| {
                        let p = NonNull::new(addr as *mut u8).unwrap();
                        if hh.arena_of(p) == Some(mine) {
                            return false;
                        }
                        // SAFETY: live, freed once, layout as allocated.
                        unsafe { hh.deallocate(p, layout(PAGE * 2)) };
                        true
                    })
                    .collect()
            })
            .join()
            .unwrap()
        };
        assert!(
            freed.len() >= remote::REMOTE_BATCH,
            "enough foreign blocks to fill a chain: {}",
            freed.len()
        );
        assert_eq!(h.counters().remote_queued_blocks, freed.len() as u64);
        // The allocation slow path drains the inboxes and recovers the
        // space instead of failing.
        let p = h
            .allocate(layout(PAGE * 2))
            .expect("drain rescues the allocation");
        assert!(
            h.counters().remote_drained > 0,
            "recovery came from a drain"
        );
        // SAFETY: p live, freed once.
        unsafe { h.deallocate(p, layout(PAGE * 2)) };
        release_rest_and_check(&h, live, &freed);
    }

    #[test]
    fn parked_freer_does_not_strand_memory() {
        let (h, live) = exhausted_two_arena_heap();
        // A pure consumer: frees fewer than one drain group of blocks
        // foreign to its home shard, reports them, and blocks on its
        // queue — alive, never touching the allocator again.
        const FREED: usize = 8;
        const _: () = assert!(FREED < remote::REMOTE_BATCH);
        let (freed_tx, freed_rx) = std::sync::mpsc::channel::<Vec<usize>>();
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        let worker = {
            let hh = Arc::clone(&h);
            let all = live.clone();
            std::thread::spawn(move || {
                let mine = hh.home_arena();
                let freed: Vec<usize> = all
                    .into_iter()
                    .filter(|&addr| {
                        hh.arena_of(NonNull::new(addr as *mut u8).unwrap()) != Some(mine)
                    })
                    .take(FREED)
                    .collect();
                for &addr in &freed {
                    // SAFETY: live, freed once, layout as allocated.
                    unsafe {
                        hh.deallocate(NonNull::new(addr as *mut u8).unwrap(), layout(PAGE * 2))
                    };
                }
                freed_tx.send(freed).unwrap();
                park_rx.recv().unwrap();
            })
        };
        let freed = freed_rx.recv().unwrap();
        assert_eq!(freed.len(), FREED, "both shards hold blocks");
        assert_eq!(h.counters().remote_queued_blocks, FREED as u64);
        // The parked worker's frees are within reach of the exhaustion
        // drain...
        let p = h
            .allocate(layout(PAGE * 2))
            .expect("a parked thread's frees are reusable");
        assert!(
            h.counters().remote_drained > 0,
            "recovery came from a drain"
        );
        // ...and of a forced one from another thread.
        h.drain_remote_inboxes();
        assert_eq!(h.counters().remote_queued_blocks, 0);
        park_tx.send(()).unwrap();
        worker.join().unwrap();
        // SAFETY: p live, freed once.
        unsafe { h.deallocate(p, layout(PAGE * 2)) };
        release_rest_and_check(&h, live, &freed);
    }

    #[test]
    fn oversized_request_fails_fast_with_typed_error() {
        let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
        let huge = 10usize << 30;
        match h.allocate(Layout::from_size_align(huge, 16).unwrap()) {
            Err(AllocError::Oversized { requested, limit }) => {
                assert_eq!(requested, huge);
                assert!(limit < huge, "limit {limit} below the request");
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The heap still serves normal requests afterwards.
        let p = h.allocate(layout(64)).unwrap();
        // SAFETY: p live, freed once.
        unsafe { h.deallocate(p, layout(64)) };
    }

    #[test]
    fn exhaustion_reports_typed_error() {
        let cfg = HermesHeapConfig {
            heap_capacity: PAGE * 64,
            large_capacity: PAGE * 64,
            arenas: 1,
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        };
        let h = HermesHeap::new(cfg).unwrap();
        let mut live = Vec::new();
        let err = loop {
            match h.allocate(layout(PAGE * 8)) {
                Ok(p) => live.push(p),
                Err(e) => break e,
            }
        };
        assert_eq!(err, AllocError::Exhausted);
        for p in live {
            // SAFETY: each pointer live exactly once.
            unsafe { h.deallocate(p, layout(PAGE * 8)) };
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn exhausted_shard_falls_over_to_neighbours_large_path() {
        // 160 KB > the 128 KB mmap threshold: exercises the large sweep.
        let c = exhaustion_spills(PAGE * 40, 3);
        assert_eq!(c.fast_large + c.slow_large, 3, "served by the mmap path");
    }

    #[test]
    fn exhausted_shard_falls_over_to_neighbours_small_path() {
        // 100 KB < the mmap threshold, > a third of the 256 KB shard
        // heap: one shard cannot hold all four, so the heap-side sweep
        // must serve from neighbours.
        let c = exhaustion_spills(PAGE * 25, 4);
        assert_eq!(c.fast_small + c.slow_small, 4, "served by the heap path");
    }

    #[test]
    fn reserve_factor_grows_shards_past_initial_capacity() {
        // One shard, 1 MiB exposed, 8 MiB reserved: a 4 MiB burst must
        // be served by on-demand growth, not exhaustion.
        let cfg = HermesHeapConfig {
            heap_capacity: 1 << 20,
            large_capacity: 1 << 20,
            arenas: 1,
            reserve_factor: 8,
            hermes: HermesConfig::default(),
        };
        let h = HermesHeap::new(cfg).unwrap();
        let chunk = 64 << 10; // small path (below the mmap threshold)
        let mut ptrs = Vec::new();
        for _ in 0..64 {
            ptrs.push(h.allocate(layout(chunk)).expect("growth serves"));
        }
        let a = h.arena_stats(0);
        assert!(
            a.heap.brk > 1 << 20,
            "segment grew past the initial 1 MiB exposure: brk {}",
            a.heap.brk
        );
        assert!(
            a.heap.backing_reserved > a.heap.brk,
            "headroom remains: {} reserved vs brk {}",
            a.heap.backing_reserved,
            a.heap.brk
        );
        for p in ptrs {
            // SAFETY: live, freed once.
            unsafe { h.deallocate(p, layout(chunk)) };
        }
        h.check_integrity().unwrap();
    }
}
