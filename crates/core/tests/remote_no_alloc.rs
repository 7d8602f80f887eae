//! Cross-shard frees never call the global allocator, by either route:
//! the inbox is threaded through the freed blocks themselves, so pushing
//! and draining touch only memory the runtime already owns, and a free
//! that returns its block straight to the owner's heap does so in place.
//! A counting wrapper over `System` is this binary's global allocator;
//! the test thread's calls into it are counted across the whole
//! remote-free path and must come to zero.

use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Global-allocator calls made by this thread (const-initialised and
    /// destructor-free, so touching it from the allocator is safe).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const REMOTE_BATCH: usize = 16; // rt::remote::REMOTE_BATCH (crate-private)

fn lay() -> Layout {
    Layout::from_size_align(256, 16).unwrap()
}

/// `n` blocks of another shard than this thread's home: allocated on a
/// worker whose home differs (tickets are round-robin, so one of a few
/// workers always lands elsewhere). Registers this thread's cache, which
/// allocates, first.
fn foreign_blocks(h: &Arc<HermesHeap>, n: usize) -> Vec<usize> {
    let warm = h.allocate(lay()).unwrap();
    // SAFETY: live, freed once, layout as allocated.
    unsafe { h.deallocate(warm, lay()) };
    let mine = h.home_arena();
    (0..8)
        .find_map(|_| {
            let hh = Arc::clone(h);
            std::thread::spawn(move || {
                (hh.home_arena() != mine).then(|| {
                    (0..n)
                        .map(|_| hh.allocate(lay()).unwrap().as_ptr() as usize)
                        .collect()
                })
            })
            .join()
            .unwrap()
        })
        .expect("a worker landed on a foreign home shard")
}

/// Frees `addrs` on this thread, then drains every inbox, and returns
/// this thread's global-allocator calls over both.
fn counted_free_and_drain(h: &HermesHeap, addrs: &[usize]) -> u64 {
    let before = CALLS.with(Cell::get);
    for &addr in addrs {
        // SAFETY: live, freed once, layout as allocated.
        unsafe { h.deallocate(NonNull::new(addr as *mut u8).unwrap(), lay()) };
    }
    h.drain_remote_inboxes();
    CALLS.with(Cell::get) - before
}

#[test]
fn push_flush_and_drain_make_no_global_allocator_calls() {
    // Five drain groups and a partial one. No live manager: every
    // cross-shard free queues.
    let n = 5 * REMOTE_BATCH + 3;
    let h = Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(4)).unwrap());
    let addrs = foreign_blocks(&h, n);
    let calls = counted_free_and_drain(&h, &addrs);

    let c = h.counters();
    assert_eq!(c.remote_frees, n as u64, "every free took the remote path");
    assert_eq!(c.remote_drained, n as u64, "and came back in the drain");
    assert_eq!(c.remote_queued_blocks, 0);
    assert_eq!(c.remote_lock_falls, 0);
    assert_eq!(calls, 0, "global-allocator calls on the remote-free path");
    h.check_integrity().unwrap();
}

#[test]
fn direct_cross_shard_frees_make_no_global_allocator_calls() {
    let n = 5 * REMOTE_BATCH + 3;
    // A live manager that never wakes: every uncontended cross-shard free
    // returns its block to the owner's heap at once.
    let mut cfg = HermesHeapConfig::small().with_arena_count(4);
    cfg.hermes.interval = Duration::from_secs(3600);
    let h = Arc::new(HermesHeap::new(cfg).unwrap());
    h.start_manager();
    let addrs = foreign_blocks(&h, n);
    let calls = counted_free_and_drain(&h, &addrs);

    let c = h.counters();
    assert_eq!(c.remote_frees, n as u64, "every free took the remote path");
    assert_eq!(c.remote_drained, 0, "none of them queued");
    assert_eq!(c.remote_lock_falls, 0);
    assert_eq!(calls, 0, "global-allocator calls on the remote-free path");
    let s = h.heap_stats();
    assert_eq!((s.live, s.in_use), (0, 0));
    h.check_integrity().unwrap();
}
