//! Cross-shard frees: straight back to the owner's heap when its lock is
//! free, onto a lock-free inbox when it is not.
//!
//! Sharding routes every free back to the arena that served it, so a
//! producer/consumer service — allocate on thread A, free on thread B —
//! frees into a shard it does not call home. Every shard has an
//! **inbox**: an intrusive singly-linked list of dead blocks that any
//! thread may push onto without the owner's lock, and that the owner
//! takes whole and returns to its heap in batches. The blocks carry the
//! list themselves, so no operation here allocates, and a queued block
//! has exactly one state. [`free`] picks one of two routes per free:
//!
//! * **direct** — while the management thread runs and the owner's inbox
//!   is empty, it *tries* the owner's heap lock. If it gets it, the block
//!   goes straight back into the owner's heap, and the freeing thread
//!   pays about one uncontended lock and one boundary-tag free.
//! * **queued** — otherwise, onto the owner's inbox. A free never waits
//!   for the lock; once one has met it held, the frees after it queue
//!   behind it until a drain empties the inbox, instead of contending
//!   for a lock the owner is using.
//!
//! Why not queue every cross-shard free: the owner would pay the inbox
//! back in bursts on its allocation slow paths, draining whole groups
//! under its heap lock or waiting for the manager's drain of the same
//! inbox. Handing the block back at free time spreads that cost evenly
//! over the freeing thread's frees (DESIGN.md §9 has the measurement).
//! Why queue every one without a live manager: that is the mode
//! `HermesHeap::run_management_round` serves, for tests and
//! deterministic benchmarks. There a free's route never depends on
//! another thread's lock timing: a batch freed across shards stays
//! staged until an explicit drain, an owner slow path or the exhaustion
//! sweep returns it.
//!
//! The flow (see DESIGN.md §9 for the full protocol):
//!
//! * **free** — the freeing thread books the owner's counters. On the
//!   direct route it frees the block and un-books its demand at once.
//!   Otherwise it books the inbox gauges and pushes the dead block onto
//!   the head of the owner's list with one CAS, threading the next
//!   pointer through the block's first payload word (dead payloads are at
//!   least one word: see the `MIN_CHUNK` assert in `heap.rs`). Everything
//!   is booked at free time, so statistics never wait for a drain, and a
//!   queued block is on the owner's list — within reach of every drain —
//!   before `free` returns.
//! * **drain** — the owner takes the whole list with one swap,
//!   opportunistically on its allocation slow path, and the management
//!   thread drains every inbox at the start of each round (once every
//!   `interval`), the way back for an owner that never allocates again. The walk re-reads each
//!   block's chunk size from its boundary tag (intact until the heap
//!   frees it) and returns the blocks [`REMOTE_BATCH`] at a time under
//!   the shard lock.
//!
//! Queued-but-undrained blocks are still *demand* from the reservation
//! machinery's point of view: the drain un-books them through
//! [`ThresholdTracker::on_return_bytes`](crate::policy::thresholds::ThresholdTracker::on_return_bytes)
//! only when they actually return to the heap, and the gauges feed the
//! `remote_queued` statistics so Algorithms 1/2 and the §5.5 overhead
//! metric stay honest about memory parked in transit.

use super::heap::RawHeap;
use super::stats::Counters;
use super::{lock, try_lock, Shard, Shared};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Blocks per drain group: one owner-side lock acquisition amortised
/// over this many cross-shard frees.
pub(crate) const REMOTE_BATCH: usize = 16;

/// [`REMOTE_BATCH`]-block groups an allocation slow path drains before
/// taking its shard lock — enough to keep inboxes short under steady
/// load while bounding the latency added to a single allocation.
pub(crate) const OPPORTUNISTIC_GROUPS: usize = 2;

/// One shard's remote-free inbox.
pub(crate) struct RemoteInbox {
    /// Address of the most recently pushed block (0 when empty); every
    /// block's first payload word holds the next address, 0-ending.
    /// Producers only ever CAS a new head on and drains only ever swap
    /// the whole list out, so no block is unlinked while another thread
    /// can still reach it: there is no ABA window to protect.
    head: AtomicUsize,
    /// Gauge: blocks queued for this shard, not yet drained. Booked per
    /// free just before the push, un-booked by the drain after the
    /// blocks return to the heap, so the runtime's `in_use`/`live` views
    /// can re-book them from "user-held" to "in transit" without waiting
    /// for a drain.
    queued_blocks: AtomicU64,
    /// Gauge: bytes queued, chunk granularity.
    queued_bytes: AtomicU64,
    /// Serialises drains of this inbox, and holds the part of a taken
    /// list that a bounded drain left unwalked (same link format as
    /// `head`); the next drain consumes it first.
    pending: Mutex<usize>,
}

impl RemoteInbox {
    pub(crate) fn new() -> Self {
        RemoteInbox {
            head: AtomicUsize::new(0),
            queued_blocks: AtomicU64::new(0),
            queued_bytes: AtomicU64::new(0),
            pending: Mutex::new(0),
        }
    }

    /// Pushes the block at `addr` onto the inbox; its first payload word
    /// becomes the link until the drain's `free_batch` reuses it.
    ///
    /// # Safety
    ///
    /// `addr` must head a boundary-tag allocation of this inbox's shard
    /// that is dead, already booked, and owned by nobody else (every
    /// payload holds at least one word: `MIN_CHUNK` assert in `heap.rs`).
    #[inline]
    unsafe fn push(&self, addr: usize) {
        debug_assert!(addr != 0);
        let mut old = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: until the CAS below publishes it, the block is
            // private to this thread per the caller's contract, and its
            // first payload word is its link slot.
            unsafe { (addr as *mut usize).write(old) };
            // Release: a drain that takes `addr` must see its link.
            match self
                .head
                .compare_exchange_weak(old, addr, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(cur) => old = cur,
            }
        }
    }

    /// Current `(blocks, bytes)` gauge readings.
    #[inline]
    pub(crate) fn gauges(&self) -> (u64, u64) {
        (
            self.queued_blocks.load(Ordering::Relaxed),
            self.queued_bytes.load(Ordering::Relaxed),
        )
    }
}

/// The whole of a cross-shard free: books shard `owner`'s counters, then
/// returns the block straight to the owner's heap if the management
/// thread runs, the owner's inbox is empty and its heap lock is free,
/// and queues it on the owner's inbox otherwise. Callable from any
/// thread; never waits for a lock.
///
/// # Safety
///
/// `addr` must head a live `chunk`-byte boundary-tag allocation of shard
/// `owner`'s heap, freed exactly once (by this call).
#[inline]
pub(crate) unsafe fn free(shared: &Shared, owner: usize, chunk: usize, addr: usize) {
    let shard = &shared.shards[owner];
    Counters::add(&shard.counters.free_count, 1);
    Counters::add(&shard.counters.remote_frees, 1);
    // A non-empty inbox means the owner's lock was recently held against
    // a free: keep queueing behind it until a drain empties it, rather
    // than trying a lock the owner is likely to want back.
    if shared.manager_live.load(Ordering::Relaxed)
        && shard.remote.queued_blocks.load(Ordering::Relaxed) == 0
    {
        if let Some(mut g) = try_lock(&shard.heap) {
            // SAFETY: per the caller's contract `addr` heads a live
            // allocation of this shard's heap, freed once, here.
            unsafe { g.raw.free(NonNull::new_unchecked(addr as *mut u8)) };
            // What the drain would have un-booked, only earlier.
            g.tracker.on_return_bytes(chunk, 1);
            return;
        }
    }
    // SAFETY: as above; the block is dead and handed to nobody else.
    unsafe { queue(shard, chunk, addr) };
}

/// Queues a cross-shard free on `shard`'s inbox: books the gauges, then
/// pushes the block. The push-only body of [`free`], for frees that do
/// not return their block at once.
///
/// # Safety
///
/// `addr` must head a live `chunk`-byte boundary-tag allocation of
/// `shard`'s heap, dead from the user's view and handed to nobody else.
#[inline]
unsafe fn queue(shard: &Shard, chunk: usize, addr: usize) {
    // Gauges before the push, so a drain that sees the block also sees
    // its gauge: the early-out reads `queued_blocks`, and the un-booking
    // never runs ahead of the booking.
    let inbox = &shard.remote;
    inbox.queued_blocks.fetch_add(1, Ordering::Relaxed);
    inbox
        .queued_bytes
        .fetch_add(chunk as u64, Ordering::Relaxed);
    // SAFETY: per the caller's contract, and booked just above.
    unsafe { inbox.push(addr) };
}

/// Returns up to `max_groups × REMOTE_BATCH` blocks from shard `idx`'s
/// inbox to its heap, and reports how many. Safe to call from any
/// thread that does not hold the shard's heap lock. Drains of one shard
/// are serialised: an unbounded drain (`max_groups == usize::MAX`) waits
/// its turn, so "drain everything" means it; a bounded one is a
/// best-effort step on an allocation path and skips instead.
pub(crate) fn drain(shared: &Shared, idx: usize, max_groups: usize) -> u64 {
    let shard = &shared.shards[idx];
    let inbox = &shard.remote;
    if inbox.queued_blocks.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    let mut pending = if max_groups == usize::MAX {
        lock(&inbox.pending)
    } else {
        match try_lock(&inbox.pending) {
            Some(gate) => gate,
            None => return 0,
        }
    };
    let mut next = std::mem::take(&mut *pending);
    let mut drained = 0u64;
    for _ in 0..max_groups {
        if next == 0 {
            // Acquire pairs with the Release in `push`.
            next = inbox.head.swap(0, Ordering::Acquire);
            if next == 0 {
                break;
            }
        }
        // Collect the links *before* freeing: `free_batch` reuses the
        // payload words the list is threaded through.
        let mut addrs = [0usize; REMOTE_BATCH];
        let mut n = 0;
        let mut bytes = 0usize;
        while next != 0 && n < REMOTE_BATCH {
            addrs[n] = next;
            n += 1;
            // SAFETY: every listed address heads a chunk the heap still
            // counts as allocated, and `push` put the next link in its
            // first payload word.
            unsafe {
                bytes += RawHeap::live_chunk_size(next);
                next = (next as *const usize).read();
            }
        }
        let mut g = lock(&shard.heap);
        // SAFETY: every address on the list heads a live boundary-tag
        // allocation of this shard's heap, queued exactly once by its
        // (former) owner's free.
        unsafe { g.raw.free_batch(&addrs[..n]) };
        g.tracker.on_return_bytes(bytes, n as u64);
        drop(g);
        // Un-booked before the gate opens, so a drain that waited for it
        // returns to gauges that already show this one's work.
        inbox.queued_blocks.fetch_sub(n as u64, Ordering::Relaxed);
        inbox
            .queued_bytes
            .fetch_sub(bytes as u64, Ordering::Relaxed);
        drained += n as u64;
    }
    *pending = next;
    if drained > 0 {
        Counters::add(&shard.counters.remote_drained, drained);
    }
    drained
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::{HermesHeap, HermesHeapConfig};
    use std::alloc::Layout;

    /// Queues every block of `blocks` on shard `owner`'s inbox, one push
    /// each, the way a cross-shard free that meets the owner's heap lock
    /// held does.
    fn queue_all(h: &HermesHeap, owner: usize, blocks: &[usize]) {
        for &addr in blocks {
            // SAFETY: `addr` heads a live allocation of shard `owner`
            // that the test owns and frees exactly once.
            unsafe {
                queue(
                    &h.shared.shards[owner],
                    RawHeap::live_chunk_size(addr),
                    addr,
                )
            };
        }
    }

    /// `count` blocks of mixed sizes allocated on the caller's home
    /// shard: magazine classes, a chunk above the largest class, and
    /// sizes that differ within one drain batch.
    fn home_blocks(h: &HermesHeap, count: usize) -> Vec<usize> {
        let sizes = [24, 200, 1000, 3000, 6000];
        (0..count)
            .map(|i| {
                let lay = Layout::from_size_align(sizes[i % sizes.len()], 16).unwrap();
                let p = h.allocate(lay).unwrap();
                assert_eq!(h.arena_of(p), Some(h.home_arena()));
                p.as_ptr() as usize
            })
            .collect()
    }

    #[test]
    fn concurrent_splices_and_mixed_drains_return_every_block_once() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 300;
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(2)).unwrap();
        let owner = h.home_arena();
        let inbox = &h.shared.shards[owner].remote;
        let mut blocks = home_blocks(&h, PRODUCERS * PER_PRODUCER + 40);
        let last = blocks.split_off(PRODUCERS * PER_PRODUCER);

        let mut drained = 0;
        std::thread::scope(|s| {
            let producers: Vec<_> = blocks
                .chunks(PER_PRODUCER)
                .map(|share| s.spawn(|| queue_all(&h, owner, share)))
                .collect();
            let mut bounded = true;
            while !producers.iter().all(|p| p.is_finished()) {
                drained += drain(&h.shared, owner, if bounded { 1 } else { usize::MAX });
                bounded = !bounded;
            }
        });
        drained += drain(&h.shared, owner, usize::MAX);
        assert_eq!(drained, blocks.len() as u64);
        assert_eq!(inbox.gauges(), (0, 0));

        // A bounded drain takes the whole list, frees its quota, and
        // parks the rest for the next drain.
        queue_all(&h, owner, &last);
        assert_eq!(drain(&h.shared, owner, 1), REMOTE_BATCH as u64);
        assert_ne!(*lock(&inbox.pending), 0);
        assert_eq!(inbox.gauges().0, (last.len() - REMOTE_BATCH) as u64);
        assert_eq!(
            drain(&h.shared, owner, usize::MAX),
            (last.len() - REMOTE_BATCH) as u64
        );
        assert_eq!(*lock(&inbox.pending), 0);
        assert_eq!(inbox.gauges(), (0, 0));

        assert_eq!(
            h.counters().remote_drained,
            (blocks.len() + last.len()) as u64
        );
        h.drain_thread_cache();
        assert_eq!(h.heap_stats().live, 0);
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn routed_frees_race_lock_holders_and_drains_and_return_every_block_once() {
        const PRODUCERS: usize = 3;
        const PER_PRODUCER: usize = 400;
        // Blocks the lock holder waits to see queued before it lets go.
        const QUEUED_FIRST: u64 = REMOTE_BATCH as u64;
        let h = crate::rt::tests::idle_manager_heap(2);
        let owner = h.home_arena();
        let shard = &h.shared.shards[owner];
        let blocks = home_blocks(&h, PRODUCERS * PER_PRODUCER);
        let before = h.counters();

        let producers_done = std::sync::atomic::AtomicUsize::new(0);
        let mut drained = 0;
        std::thread::scope(|s| {
            // The owner's heap lock is held before any free starts, and
            // released only once frees have queued: a free that waited
            // for the lock would hang the test here.
            let g = lock(&shard.heap);
            for share in blocks.chunks(PER_PRODUCER) {
                let done = &producers_done;
                let h = &h;
                s.spawn(move || {
                    for &addr in share {
                        // SAFETY: `addr` heads a live allocation of
                        // shard `owner`, freed exactly once, here.
                        unsafe { free(&h.shared, owner, RawHeap::live_chunk_size(addr), addr) };
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            while shard.remote.gauges().0 < QUEUED_FIRST
                && producers_done.load(Ordering::Acquire) < PRODUCERS
            {
                std::thread::yield_now();
            }
            drop(g);
            // Then short holds and mixed drains race the rest of the
            // frees' try-locks.
            let mut bounded = true;
            while producers_done.load(Ordering::Acquire) < PRODUCERS {
                drop(lock(&shard.heap));
                drained += drain(&h.shared, owner, if bounded { 1 } else { usize::MAX });
                bounded = !bounded;
            }
        });
        drained += drain(&h.shared, owner, usize::MAX);
        assert!(drained >= QUEUED_FIRST, "the held lock queued {drained}");
        assert!(drained <= blocks.len() as u64);
        assert_eq!(shard.remote.gauges(), (0, 0));
        let c = h.counters();
        assert_eq!(c.remote_frees - before.remote_frees, blocks.len() as u64);
        assert_eq!(c.remote_drained - before.remote_drained, drained);
        // Every block came back exactly once, by one route or the other:
        // a lost one stays live, a second return aborts.
        h.drain_thread_cache();
        assert_eq!(h.heap_stats().live, 0);
        assert_eq!(h.heap_stats().in_use, 0);
        h.check_integrity().unwrap();
    }
}
