//! Thread-local allocation caches (magazines) in front of the arena
//! shards.
//!
//! PR-3's sharded runtime still takes a per-arena lock on *every* small
//! allocation and free, so at high thread counts the fast path is one
//! lock acquisition away from the paper's touch-only-pre-constructed-
//! memory promise. This layer applies the standard cure (SpeedMalloc,
//! llmalloc, tcmalloc): each thread keeps per-size-class stacks of
//! pre-carved blocks — *magazines* — and serves `allocate`/`deallocate`
//! from them with no lock at all. A shard lock is only taken to move
//! [`TCACHE_BATCH`] blocks at once:
//!
//! * **refill** — an empty class carves a batch from the thread's home
//!   shard via [`RawHeap::malloc_batch`] (exact chunk sizes, one lock
//!   acquisition for the whole batch);
//! * **flush** — a full class returns its oldest half via
//!   [`RawHeap::free_batch`];
//! * **drain** — thread exit and the explicit
//!   [`HermesHeap::drain_thread_cache`](super::HermesHeap::drain_thread_cache)
//!   return everything.
//!
//! # Ownership discipline (why there is no per-cache lock)
//!
//! Magazines are **owner-only**: they live behind an [`UnsafeCell`] and
//! are touched exclusively by the thread that created them — every
//! access goes through that thread's TLS lookup, including the
//! thread-exit drain (a TLS destructor). Remote parties get one narrow,
//! always-safe window instead: the gauge tallies (`blocks`/`bytes`/
//! `hits` and the pending op counts) are atomics written only by the
//! owner and read by anyone (`tallies`), so runtime statistics stay
//! exact without stopping the owner. Nothing ever asks a cache to drain
//! from outside; what a parked thread can hold is bounded by the
//! magazine depth (DESIGN.md §5).
//!
//! Cached blocks stay visible to the paper's reservation machinery:
//! refills book the whole batch through
//! [`ThresholdTracker::on_request_batch`](crate::policy::thresholds::ThresholdTracker::on_request_batch)
//! and flushes un-book through `on_return`, so Algorithms 1/2 see the
//! *net* demand each shard must actually serve (see DESIGN.md §5). The
//! tallies keep runtime-wide statistics honest: a cached block is
//! in-use from the shard heap's view but reserve from the runtime's
//! view.
//!
//! Only same-shard frees are cached: `deallocate` routes a pointer to
//! its owning shard through the range table first, and a pointer owned
//! by a *different* shard goes straight onto that shard's remote inbox
//! (`rt/remote.rs`), so boundary-tag coalescing stays shard-local and
//! a magazine never mixes shards.

use super::heap::{RawHeap, ALIGN, HDR, MIN_CHUNK};
use super::remote;
use super::stats::Counters;
use super::{lock, Shared};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Largest boundary-tag chunk (header included) a thread cache holds.
pub const TCACHE_MAX_CHUNK: usize = 4096;
/// Number of size classes (see `class_chunk`).
pub const TCACHE_CLASSES: usize = 79;
/// Per-class magazine depth (blocks).
pub const TCACHE_DEPTH: usize = 32;
/// Blocks moved per refill and per overflow flush: half a magazine, so a
/// thread alternating alloc/free at the boundary never thrashes.
pub const TCACHE_BATCH: usize = TCACHE_DEPTH / 2;

/// Tiered size classes, tcmalloc-style: fine 16-byte strides where
/// chunks are small (waste matters most), coarser strides above so the
/// table covers up to [`TCACHE_MAX_CHUNK`] with 79 classes and at most
/// ~6 % internal fragmentation. Every class size is a chunk size the
/// batch carve produces *exactly*, so cached-byte accounting needs no
/// rounding.
///
/// | chunk range  | stride | classes |
/// |--------------|--------|---------|
/// | 32..=512     | 16     | 31      |
/// | 513..=1024   | 32     | 16      |
/// | 1025..=2048  | 64     | 16      |
/// | 2049..=4096  | 128    | 16      |
///
/// Chunk size (bytes, header included) of class `cls`.
#[inline]
fn class_chunk(cls: usize) -> usize {
    match cls {
        0..=30 => MIN_CHUNK + cls * 16,
        31..=46 => 512 + (cls - 30) * 32,
        47..=62 => 1024 + (cls - 46) * 64,
        _ => 2048 + (cls - 62) * 128,
    }
}

/// Smallest class whose chunk is >= `chunk`, or `None` above the bound.
#[inline]
fn class_for_chunk(chunk: usize) -> Option<usize> {
    debug_assert!(chunk >= MIN_CHUNK && chunk % ALIGN == 0);
    if chunk <= 512 {
        Some((chunk - MIN_CHUNK).div_ceil(16))
    } else if chunk <= 1024 {
        Some(30 + (chunk - 512).div_ceil(32))
    } else if chunk <= 2048 {
        Some(46 + (chunk - 1024).div_ceil(64))
    } else if chunk <= TCACHE_MAX_CHUNK {
        Some(62 + (chunk - 2048).div_ceil(128))
    } else {
        None
    }
}

/// Cache class serving a user request of `size` bytes (16-byte aligned),
/// or `None` when the request is too big to cache. The block handed out
/// occupies the *class* chunk ([`cache_chunk_for`]), which may exceed
/// the tight boundary-tag chunk by the tier's rounding.
#[inline]
pub(crate) fn request_class(size: usize) -> Option<usize> {
    class_for_chunk(RawHeap::request_chunk_size(size))
}

/// Chunk size a *cache-served* allocation of `size` bytes occupies:
/// the tight chunk rounded up to its size class. Public so accounting
/// tests can predict `in_use` exactly.
pub fn cache_chunk_for(size: usize) -> Option<usize> {
    request_class(size).map(class_chunk)
}

/// Cache class holding blocks of exactly `chunk` bytes, or `None` when
/// that chunk size is not a class size. Frees classify by the *actual*
/// chunk size read from the boundary tag: cache-carved blocks match a
/// class exactly; blocks carved by the locking path usually do not and
/// take the bypass, which keeps magazine accounting exact.
#[inline]
fn chunk_class(chunk: usize) -> Option<usize> {
    if !(MIN_CHUNK..=TCACHE_MAX_CHUNK).contains(&chunk) || chunk % ALIGN != 0 {
        return None;
    }
    let cls = class_for_chunk(chunk)?;
    (class_chunk(cls) == chunk).then_some(cls)
}

/// The per-class block stacks of one thread cache. Owner-only (see the
/// module docs); the remotely readable accounting lives in
/// [`ThreadCache`]'s atomic tallies instead.
struct Magazines {
    counts: [u16; TCACHE_CLASSES],
    slots: [[usize; TCACHE_DEPTH]; TCACHE_CLASSES],
}

impl Magazines {
    fn new() -> Self {
        Magazines {
            counts: [0; TCACHE_CLASSES],
            slots: [[0; TCACHE_DEPTH]; TCACHE_CLASSES],
        }
    }
}

/// Outcome of routing a heap-path free through the thread cache.
pub(crate) enum Freed {
    /// Parked in a magazine or queued on the owner's inbox; the free is
    /// complete.
    Done,
    /// The block belongs to the caller's own home shard but no magazine
    /// holds its shape (non-class chunk or over-aligned) — the home
    /// shard's lock, uncontended by construction, is the right path.
    Home,
    /// No cache slot is usable (TLS teardown or mid-registration
    /// re-entry); the caller must take the locked fallback.
    Unavailable,
}

/// Aggregated cache accounting for one shard (or the whole runtime).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CacheTallies {
    /// Blocks currently parked in magazines.
    pub blocks: u64,
    /// Bytes currently parked in magazines (chunk granularity).
    pub bytes: u64,
    /// Warm hits accumulated in live caches (not yet folded into the
    /// shard's atomic counter by a drain).
    pub hits: u64,
    /// Cache-served allocations pending fold into `alloc_count`.
    pub alloc_ops: u64,
    /// Cache-absorbed frees pending fold into `free_count`.
    pub free_ops: u64,
    /// Fault-free cache-served allocations pending fold into
    /// `fast_small`.
    pub fast_ops: u64,
}

/// One thread's cache for one `HermesHeap`: magazines over the thread's
/// home shard. Shared (via `Arc`) between the owning thread's TLS slot
/// and the runtime's registry, but the magazines themselves are touched
/// only by the owner.
pub(crate) struct ThreadCache {
    /// The shard every magazine block belongs to.
    home: usize,
    /// Back-reference for the thread-exit drain; dead once the runtime
    /// is dropped, in which case cached addresses are simply discarded
    /// (never dereferenced).
    shared: Weak<Shared>,
    /// Owner-only block stacks.
    mags: UnsafeCell<Magazines>,
    /// Gauge: blocks currently parked here (single writer: the owner).
    blocks: AtomicU64,
    /// Gauge: bytes currently parked here (chunk granularity).
    bytes: AtomicU64,
    /// Warm hits since the last drain; folded into the shard's durable
    /// `tcache_hits` counter on drain so the merged statistic survives
    /// this cache's destruction at thread exit.
    hits: AtomicU64,
    /// Op counters since the last drain, same single-writer discipline.
    /// The shard's `alloc_count`/`free_count`/`fast_small` atomics are
    /// shared by every thread homed on the shard — bumping them per
    /// cache op would bounce their cache line on exactly the path this
    /// layer de-contends — so cache ops tally here and fold on drain;
    /// snapshot assembly adds the live tallies so reported counters
    /// never lag.
    alloc_ops: AtomicU64,
    free_ops: AtomicU64,
    fast_ops: AtomicU64,
}

// SAFETY: `mags` is only ever accessed by the owning thread — every
// path to it goes through that thread's TLS entry (`with_cache`,
// `drain_current_thread`, `CacheEntry::drop`); no registry consumer
// touches it. Cross-thread access is limited to the
// atomic tallies. That confinement is exactly what makes the handle
// safe to hold in the registry (`Weak<ThreadCache>` requires Send +
// Sync) and to drop from wherever the last `Arc` dies.
unsafe impl Send for ThreadCache {}
// SAFETY: as above.
unsafe impl Sync for ThreadCache {}

/// Single-writer gauge update: plain load + store instead of an atomic
/// RMW, sound because only the owner thread ever writes these tallies.
#[inline]
fn gauge_add(gauge: &AtomicU64, v: u64) {
    gauge.store(
        gauge.load(Ordering::Relaxed).wrapping_add(v),
        Ordering::Relaxed,
    );
}

#[inline]
fn gauge_sub(gauge: &AtomicU64, v: u64) {
    gauge.store(
        gauge.load(Ordering::Relaxed).wrapping_sub(v),
        Ordering::Relaxed,
    );
}

impl ThreadCache {
    /// Serves one block of class `cls`, refilling from the home shard on
    /// a cold magazine. `None` when the home shard cannot even serve a
    /// refill (the caller falls back to the sweep path).
    ///
    /// Only called with `self` freshly looked up from the owner's TLS.
    fn allocate(&self, shared: &Shared, cls: usize) -> Option<NonNull<u8>> {
        let shard = &shared.shards[self.home];
        // SAFETY: owner-only access per the module's ownership discipline.
        let m = unsafe { &mut *self.mags.get() };
        let (addr, faulted) = if m.counts[cls] > 0 {
            let c = m.counts[cls] as usize - 1;
            m.counts[cls] = c as u16;
            gauge_add(&self.hits, 1);
            (m.slots[cls][c], false)
        } else {
            // A cold magazine is the recycling point: pull remotely freed
            // blocks back into the heap's bins before the refill carves
            // them — or, worse, carves fresh cold memory while the
            // freed working set sits parked in the inbox. Bounded, so a
            // single allocation never pays for a long backlog.
            remote::drain(shared, self.home, remote::OPPORTUNISTIC_GROUPS);
            let (n, faulted) = self.refill(shared, m, cls);
            if n == 0 {
                return None;
            }
            m.counts[cls] = (n - 1) as u16;
            (m.slots[cls][n - 1], faulted)
        };
        gauge_sub(&self.blocks, 1);
        gauge_sub(&self.bytes, class_chunk(cls) as u64);
        gauge_add(&self.alloc_ops, 1);
        if faulted {
            // Faulted refills are rare; book the slow op durably now.
            Counters::add(&shard.counters.slow_small, 1);
        } else {
            gauge_add(&self.fast_ops, 1);
        }
        NonNull::new(addr as *mut u8)
    }

    /// Carves up to [`TCACHE_BATCH`] exact-chunk blocks from the home
    /// shard into class `cls` under one heap-lock acquisition, booking
    /// the batch as demand. Returns `(blocks now in the magazine,
    /// whether the carve demand-faulted)`.
    fn refill(&self, shared: &Shared, m: &mut Magazines, cls: usize) -> (usize, bool) {
        let chunk = class_chunk(cls);
        let shard = &shared.shards[self.home];
        let mut g = lock(&shard.heap);
        g.tracker.on_request_batch(chunk, TCACHE_BATCH as u64);
        let before = g.raw.stats().demand_touched_pages;
        let n = g
            .raw
            .malloc_batch(chunk - HDR, &mut m.slots[cls][..TCACHE_BATCH]);
        let faulted = g.raw.stats().demand_touched_pages > before;
        if n < TCACHE_BATCH {
            // Un-book what the exhausted shard could not serve; the
            // triggering request re-books itself on the fallback path.
            g.tracker.on_return(chunk, (TCACHE_BATCH - n) as u64);
        }
        drop(g);
        if n > 0 {
            gauge_add(&self.blocks, n as u64);
            gauge_add(&self.bytes, (n * chunk) as u64);
            Counters::add(&shard.counters.tcache_refills, 1);
        }
        (n, faulted)
    }

    /// Caches a freed block of class `cls`, flushing the oldest half of
    /// a full magazine first.
    ///
    /// The caller guarantees `addr` heads a live allocation of exactly
    /// `class_chunk(cls)` bytes owned by this cache's home shard, and
    /// that it is the owner thread.
    fn push(&self, shared: &Shared, cls: usize, addr: usize) {
        // SAFETY: owner-only access per the module's ownership discipline.
        let m = unsafe { &mut *self.mags.get() };
        if m.counts[cls] as usize == TCACHE_DEPTH {
            self.flush(shared, m, cls, TCACHE_BATCH);
        }
        let c = m.counts[cls] as usize;
        m.slots[cls][c] = addr;
        m.counts[cls] = (c + 1) as u16;
        gauge_add(&self.blocks, 1);
        gauge_add(&self.bytes, class_chunk(cls) as u64);
        gauge_add(&self.free_ops, 1);
    }

    /// Returns the `k` oldest blocks of class `cls` to the home shard
    /// under one heap-lock acquisition, un-booking their demand.
    fn flush(&self, shared: &Shared, m: &mut Magazines, cls: usize, k: usize) {
        let count = m.counts[cls] as usize;
        let k = k.min(count);
        if k == 0 {
            return;
        }
        let chunk = class_chunk(cls);
        let shard = &shared.shards[self.home];
        {
            let mut g = lock(&shard.heap);
            // SAFETY: magazine blocks are live allocations of this
            // shard's heap, each cached exactly once.
            unsafe { g.raw.free_batch(&m.slots[cls][..k]) };
            g.tracker.on_return(chunk, k as u64);
        }
        m.slots[cls].copy_within(k..count, 0);
        m.counts[cls] = (count - k) as u16;
        gauge_sub(&self.blocks, k as u64);
        gauge_sub(&self.bytes, (k * chunk) as u64);
        Counters::add(&shard.counters.tcache_flushes, 1);
    }

    /// Flushes every magazine (thread exit, explicit
    /// [`HermesHeap::drain_thread_cache`](super::HermesHeap::drain_thread_cache))
    /// and folds the warm-hit tally into the shard's durable counter.
    /// Owner-thread only.
    fn drain(&self, shared: &Shared) {
        // SAFETY: owner-only access per the module's ownership discipline.
        let m = unsafe { &mut *self.mags.get() };
        for cls in 0..TCACHE_CLASSES {
            let count = m.counts[cls] as usize;
            if count > 0 {
                self.flush(shared, m, cls, count);
            }
        }
        let counters = &shared.shards[self.home].counters;
        for (tally, durable) in [
            (&self.hits, &counters.tcache_hits),
            (&self.alloc_ops, &counters.alloc_count),
            (&self.free_ops, &counters.free_count),
            (&self.fast_ops, &counters.fast_small),
        ] {
            let pending = tally.swap(0, Ordering::Relaxed);
            if pending > 0 {
                Counters::add(durable, pending);
            }
        }
    }
}

/// One TLS registration: a cache bound to a heap instance by id. The
/// drop runs at thread exit (TLS destruction) — still on the owner
/// thread — and drains the magazines back to the owning runtime, unless
/// that runtime is already gone, in which case the addresses are
/// discarded without being dereferenced.
struct CacheEntry {
    heap_id: u64,
    cache: Arc<ThreadCache>,
}

impl Drop for CacheEntry {
    fn drop(&mut self) {
        if let Some(shared) = self.cache.shared.upgrade() {
            self.cache.drain(&shared);
        }
    }
}

thread_local! {
    /// This thread's caches, one per live heap instance (almost always
    /// exactly one). Const-initialised so first access allocates
    /// nothing. The warm path performs exactly one TLS lookup — TLS
    /// address resolution is the dominant cost of this layer, so `BUSY`
    /// below is only touched on the registration slow path.
    static CACHES: RefCell<Vec<CacheEntry>> = const { RefCell::new(Vec::new()) };
    /// Registration re-entrancy guard. Building and registering a cache
    /// allocates (`Arc`, registry growth), and when Hermes is the
    /// `#[global_allocator]` those allocations re-enter
    /// `allocate`/`deallocate` on this thread before the entry exists;
    /// without the guard each nested call would start another
    /// registration. Nested calls bail to the uncached path instead.
    static BUSY: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` against the calling thread's cache for `shared`, creating
/// and registering the cache on first use. `None` when the cache layer
/// is unavailable: mid-registration, mid-teardown, or re-entered while
/// the `RefCell` is held (only possible during registration).
///
/// The warm path is one TLS lookup, a `try_borrow`, and a linear scan
/// of (almost always) one entry. No cache operation allocates, so `f`
/// never re-enters here.
fn with_cache<R>(shared: &Arc<Shared>, f: impl Fn(&ThreadCache) -> R + Copy) -> Option<R> {
    let warm = CACHES.try_with(|caches| {
        let b = caches.try_borrow().ok()?;
        let e = b.iter().find(|e| e.heap_id == shared.id)?;
        Some(f(&e.cache))
    });
    if let Ok(Some(r)) = warm {
        return Some(r);
    }
    register_and_run(shared, f)
}

/// Registration slow path, once per (thread, heap): build the cache,
/// register it, run `f` against it. `None` when re-entered or when the
/// TLS is being torn down.
#[cold]
fn register_and_run<R>(shared: &Arc<Shared>, f: impl FnOnce(&ThreadCache) -> R) -> Option<R> {
    if BUSY.try_with(|b| b.replace(true)).unwrap_or(true) {
        return None;
    }
    let result = (|| {
        let cache = Arc::new(ThreadCache {
            home: shared.home_shard_for(super::thread_ticket()),
            shared: Arc::downgrade(shared),
            mags: UnsafeCell::new(Magazines::new()),
            blocks: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            alloc_ops: AtomicU64::new(0),
            free_ops: AtomicU64::new(0),
            fast_ops: AtomicU64::new(0),
        });
        {
            let mut reg = lock(&shared.tcaches);
            reg.retain(|w| w.strong_count() > 0);
            reg.push(Arc::downgrade(&cache));
        }
        CACHES
            .try_with(|caches| {
                let mut caches = caches.try_borrow_mut().ok()?;
                // Entries of dropped heaps are dead weight; prune them
                // (their drops discard, since the runtime is gone).
                caches.retain(|e| e.cache.shared.strong_count() > 0);
                caches.push(CacheEntry {
                    heap_id: shared.id,
                    cache: Arc::clone(&cache),
                });
                Some(())
            })
            .ok()
            .flatten()?;
        Some(f(&cache))
    })();
    let _ = BUSY.try_with(|b| b.set(false));
    result
}

/// Cache-path allocation of class `cls`. `None` means "not served" —
/// cache unavailable or home shard unable to refill — and the caller
/// falls back to the locking sweep path.
pub(crate) fn allocate(shared: &Arc<Shared>, cls: usize) -> Option<NonNull<u8>> {
    with_cache(shared, |cache| cache.allocate(shared, cls)).flatten()
}

/// Frees `addr` — a live `chunk`-byte heap-path block of shard `owner`,
/// allocated with alignment `align` — through the calling thread's cache
/// in one TLS lookup: a foreign shard's block (any chunk size: every
/// heap-path pointer heads a real boundary-tag chunk) goes onto the
/// owner's inbox; a home block whose chunk is exactly a class size parks
/// in its magazine. See [`Freed`] for the outcomes that send the caller
/// to the owner's lock.
pub(crate) fn free(
    shared: &Arc<Shared>,
    owner: usize,
    chunk: usize,
    align: usize,
    addr: usize,
) -> Freed {
    with_cache(shared, |cache| {
        if cache.home != owner {
            // SAFETY: per this function's contract `addr` heads a live
            // `chunk`-byte block of shard `owner`, freed by this call.
            unsafe { remote::free(shared, owner, chunk, addr) };
            return Freed::Done;
        }
        match chunk_class(chunk) {
            Some(cls) if align <= ALIGN => {
                cache.push(shared, cls, addr);
                Freed::Done
            }
            _ => Freed::Home,
        }
    })
    .unwrap_or(Freed::Unavailable)
}

/// Drains the calling thread's cache for `shared`, if one exists (does
/// not create one just to drain it).
pub(crate) fn drain_current_thread(shared: &Arc<Shared>) {
    let _ = CACHES.try_with(|caches| {
        if let Ok(b) = caches.try_borrow() {
            if let Some(e) = b.iter().find(|e| e.heap_id == shared.id) {
                e.cache.drain(shared);
            }
        }
    });
}

/// Aggregates cache tallies over every registered cache of `shared`,
/// restricted to one shard's caches when `shard` is given. This is the
/// read side of the owner-only accounting: stats calls pay an
/// O(threads) registry walk over atomic tallies so the allocation path
/// pays nothing. Iterates in place without allocating (the caller may
/// *be* the process's global allocator).
pub(crate) fn tallies(shared: &Shared, shard: Option<usize>) -> CacheTallies {
    let mut total = CacheTallies::default();
    let mut reg = lock(&shared.tcaches);
    // Prune here as well as at registration: a burst of short-lived
    // threads would otherwise leave dead entries that every stats call
    // walks forever.
    reg.retain(|w| w.strong_count() > 0);
    for w in reg.iter() {
        if let Some(cache) = w.upgrade() {
            if shard.is_some_and(|s| s != cache.home) {
                continue;
            }
            total.blocks += cache.blocks.load(Ordering::Relaxed);
            total.bytes += cache.bytes.load(Ordering::Relaxed);
            total.hits += cache.hits.load(Ordering::Relaxed);
            total.alloc_ops += cache.alloc_ops.load(Ordering::Relaxed);
            total.free_ops += cache.free_ops.load(Ordering::Relaxed);
            total.fast_ops += cache.fast_ops.load(Ordering::Relaxed);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_round_trips() {
        // Class sizes are strictly increasing, tier strides as documented.
        for cls in 1..TCACHE_CLASSES {
            assert!(class_chunk(cls) > class_chunk(cls - 1), "cls {cls}");
        }
        assert_eq!(class_chunk(0), MIN_CHUNK);
        assert_eq!(class_chunk(30), 512);
        assert_eq!(class_chunk(31), 544);
        assert_eq!(class_chunk(46), 1024);
        assert_eq!(class_chunk(47), 1088);
        assert_eq!(class_chunk(62), 2048);
        assert_eq!(class_chunk(63), 2176);
        assert_eq!(class_chunk(TCACHE_CLASSES - 1), TCACHE_MAX_CHUNK);
        for cls in 0..TCACHE_CLASSES {
            let chunk = class_chunk(cls);
            // A class-sized chunk classifies back to its own class...
            assert_eq!(chunk_class(chunk), Some(cls));
            // ...and the largest payload fitting the class lands in it.
            assert_eq!(request_class(chunk - HDR), Some(cls));
            assert_eq!(cache_chunk_for(chunk - HDR), Some(chunk));
        }
        assert_eq!(request_class(1), Some(0));
        assert_eq!(
            request_class(TCACHE_MAX_CHUNK - HDR),
            Some(TCACHE_CLASSES - 1)
        );
        assert_eq!(request_class(TCACHE_MAX_CHUNK - HDR + 1), None);
        // Rounding up crosses into the next class exactly at class+1 byte.
        assert_eq!(cache_chunk_for(512 - HDR + 1), Some(544));
        // Non-class chunk sizes never classify (the free-path bypass).
        assert_eq!(chunk_class(TCACHE_MAX_CHUNK + 128), None);
        assert_eq!(chunk_class(MIN_CHUNK - ALIGN), None);
        assert_eq!(chunk_class(528), None, "16-granule between 32-classes");
        assert_eq!(chunk_class(100), None, "unaligned sizes never classify");
    }
}
