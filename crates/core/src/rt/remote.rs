//! Lock-free remote-free inboxes: cross-shard frees without the owner's
//! lock.
//!
//! Sharding routes every free back to the arena that served it, so a
//! producer/consumer service — allocate on thread A, free on thread B —
//! pays a shard-lock acquisition per free exactly where the runtime is
//! most contended. This module gives every shard an **inbox**: an
//! intrusive singly-linked list of dead blocks that any thread may
//! splice onto without touching the owner's lock, and that the owner
//! takes whole and returns to its heap in batches. The blocks carry the
//! list themselves, so no operation here allocates.
//!
//! The flow (see DESIGN.md §9 for the full protocol):
//!
//! * **stage** — the freeing thread links the dead block into a small
//!   per-thread, per-owner staging chain ([`super::tcache`]), threading
//!   an intrusive next pointer through the block's first payload word
//!   (dead payloads are at least one word: see the `MIN_CHUNK` assert in
//!   `heap.rs`). Counters and the inbox gauges are booked per free, at
//!   stage time, so statistics never wait for a drain.
//! * **push** — at [`REMOTE_BATCH`] blocks the chain is spliced onto the
//!   head of the owner's list: one CAS for sixteen frees.
//! * **drain** — the owner takes the whole list with one swap,
//!   opportunistically on its allocation slow path, and the management
//!   thread drains every inbox each round. The walk re-reads each
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
use super::{lock, try_lock, Shared};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Blocks per chain: one inbox push (and one owner-side lock acquisition
/// at drain) amortised over this many cross-shard frees.
pub(crate) const REMOTE_BATCH: usize = 16;

/// [`REMOTE_BATCH`]-block groups an allocation slow path drains before
/// taking its shard lock — enough to keep inboxes short under steady
/// load while bounding the latency added to a single allocation.
pub(crate) const OPPORTUNISTIC_CHAINS: usize = 2;

/// One shard's remote-free inbox.
pub(crate) struct RemoteInbox {
    /// Address of the most recently pushed block (0 when empty); every
    /// block's first payload word holds the next address, 0-ending.
    /// Producers only ever CAS a new head on and drains only ever swap
    /// the whole list out, so no block is unlinked while another thread
    /// can still reach it: there is no ABA window to protect.
    head: AtomicUsize,
    /// Gauge: blocks staged or queued for this shard, not yet drained.
    /// Booked per free at stage time (before the chain is even pushed),
    /// un-booked by the drain after the blocks return to the heap, so
    /// the runtime's `in_use`/`live` views can re-book them from
    /// "user-held" to "in transit" without waiting for a drain.
    queued_blocks: AtomicU64,
    /// Gauge: bytes staged or queued, chunk granularity.
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

    /// Books one staged free into the gauges (stage time, freeing
    /// thread).
    #[inline]
    pub(crate) fn stage_account(&self, chunk: usize) {
        self.queued_blocks.fetch_add(1, Ordering::Relaxed);
        self.queued_bytes.fetch_add(chunk as u64, Ordering::Relaxed);
    }

    /// Splices a full (or flush-forced partial) chain `head → … → tail`
    /// onto the inbox. Gauges were already booked at stage time. The
    /// chain's blocks must be dead, linked through their first payload
    /// words, and owned by nobody else.
    #[inline]
    pub(crate) fn push(&self, head: usize, tail: usize) {
        debug_assert!(head != 0 && tail != 0);
        let mut old = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: until the CAS below publishes it, the chain is
            // private to this thread, and `tail`'s first payload word is
            // its link slot.
            unsafe { (tail as *mut usize).write(old) };
            // Release: a drain that takes `head` must see every link of
            // the chain, this one included.
            match self
                .head
                .compare_exchange_weak(old, head, Ordering::Release, Ordering::Relaxed)
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

/// Returns up to `max_chains × REMOTE_BATCH` blocks from shard `idx`'s
/// inbox to its heap, and reports how many. Safe to call from any
/// thread that does not hold the shard's heap lock. Drains of one shard
/// are serialised: an unbounded drain (`max_chains == usize::MAX`) waits
/// its turn, so "drain everything" means it; a bounded one is a
/// best-effort step on an allocation path and skips instead.
pub(crate) fn drain(shared: &Shared, idx: usize, max_chains: usize) -> u64 {
    let shard = &shared.shards[idx];
    let inbox = &shard.remote;
    if inbox.queued_blocks.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    let mut pending = if max_chains == usize::MAX {
        lock(&inbox.pending)
    } else {
        match try_lock(&inbox.pending) {
            Some(gate) => gate,
            None => return 0,
        }
    };
    let mut next = std::mem::take(&mut *pending);
    let mut drained = 0u64;
    for _ in 0..max_chains {
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
            // counts as allocated, and the stage path put the next link
            // in its first payload word.
            unsafe {
                bytes += RawHeap::live_chunk_size(next);
                next = (next as *const usize).read();
            }
        }
        let mut g = lock(&shard.heap);
        // SAFETY: every address on the list heads a live boundary-tag
        // allocation of this shard's heap, staged exactly once by its
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

    /// Links `chain` the way the stage layer does (newest first, gauges
    /// booked per block) and splices it onto `inbox`.
    fn splice(inbox: &RemoteInbox, chain: &[usize]) {
        let mut head = 0;
        for &addr in chain {
            // SAFETY: `addr` heads a live allocation the test owns, so
            // its payload is free to hold the link.
            unsafe {
                inbox.stage_account(RawHeap::live_chunk_size(addr));
                (addr as *mut usize).write(head);
            }
            head = addr;
        }
        inbox.push(head, chain[0]);
    }

    #[test]
    fn concurrent_splices_and_mixed_drains_return_every_block_once() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 300;
        let h = HermesHeap::new(HermesHeapConfig::small().with_arena_count(2)).unwrap();
        let owner = h.home_arena();
        let inbox = &h.shared.shards[owner].remote;
        // Magazine classes, a chunk above the largest class, and sizes
        // that differ within one drain batch.
        let sizes = [24, 200, 1000, 3000, 6000];
        let mut blocks: Vec<usize> = (0..PRODUCERS * PER_PRODUCER + 40)
            .map(|i| {
                let lay = Layout::from_size_align(sizes[i % sizes.len()], 16).unwrap();
                let p = h.allocate(lay).unwrap();
                assert_eq!(h.arena_of(p), Some(owner));
                p.as_ptr() as usize
            })
            .collect();
        let last = blocks.split_off(PRODUCERS * PER_PRODUCER);

        let mut drained = 0;
        std::thread::scope(|s| {
            let producers: Vec<_> = blocks
                .chunks(PER_PRODUCER)
                .map(|share| {
                    s.spawn(move || {
                        // Chain lengths as staging produces them: a lone
                        // block, a full batch, partial flushes.
                        let lens = [1, REMOTE_BATCH, 5, REMOTE_BATCH - 1];
                        let mut rest = share;
                        for len in lens.into_iter().cycle() {
                            if rest.is_empty() {
                                break;
                            }
                            let (chain, tail) = rest.split_at(len.min(rest.len()));
                            splice(inbox, chain);
                            rest = tail;
                        }
                    })
                })
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
        splice(inbox, &last);
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
}
