//! Cross-shard frees never call the global allocator: the inbox is
//! threaded through the freed blocks themselves, so pushing and
//! draining touch only memory the runtime already owns.
//! A counting wrapper over `System` is this binary's global allocator;
//! the test thread's calls into it are counted across the whole
//! remote-free path and must come to zero.

use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::Arc;

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

#[test]
fn push_flush_and_drain_make_no_global_allocator_calls() {
    const REMOTE_BATCH: usize = 16; // rt::remote::REMOTE_BATCH (crate-private)
    let n = 5 * REMOTE_BATCH + 3; // five drain groups and a partial one
    let lay = Layout::from_size_align(256, 16).unwrap();
    let h = Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(4)).unwrap());

    // Register this thread's cache (which allocates) ahead of the window.
    let warm = h.allocate(lay).unwrap();
    // SAFETY: live, freed once, layout as allocated.
    unsafe { h.deallocate(warm, lay) };

    // Blocks owned by another shard: allocated on a worker whose home
    // differs from this thread's (tickets are round-robin, so one of a
    // few workers always lands elsewhere).
    let mine = h.home_arena();
    let addrs: Vec<usize> = (0..8)
        .find_map(|_| {
            let hh = Arc::clone(&h);
            std::thread::spawn(move || {
                (hh.home_arena() != mine).then(|| {
                    (0..n)
                        .map(|_| hh.allocate(lay).unwrap().as_ptr() as usize)
                        .collect()
                })
            })
            .join()
            .unwrap()
        })
        .expect("a worker landed on a foreign home shard");

    let before = CALLS.with(Cell::get);
    for &addr in &addrs {
        // SAFETY: live, freed once, layout as allocated.
        unsafe { h.deallocate(NonNull::new(addr as *mut u8).unwrap(), lay) };
    }
    h.drain_remote_inboxes();
    let calls = CALLS.with(Cell::get) - before;

    let c = h.counters();
    assert_eq!(c.remote_frees, n as u64, "every free took the remote path");
    assert_eq!(c.remote_drained, n as u64, "and came back in the drain");
    assert_eq!(c.remote_queued_blocks, 0);
    assert_eq!(c.remote_lock_falls, 0);
    assert_eq!(calls, 0, "global-allocator calls on the remote-free path");
    h.check_integrity().unwrap();
}
