//! Multi-threaded stress tests for the sharded runtime: 8 threads hammer
//! one [`HermesHeap`] with mixed sizes straddling the mmap threshold,
//! including *cross-thread* frees (allocations handed to a neighbouring
//! thread for release), asserting no data corruption and that the merged
//! statistics balance out — `in_use` returns to 0 once every thread has
//! joined and every pointer is freed. Run once through the ring topology,
//! once as a producer/consumer pipeline, and once as a *pure*
//! producer/consumer pipeline — in all three, under a live manager,
//! cross-shard frees go back to the owner's heap or, when its lock is
//! held or its inbox already holds frees, onto its lock-free remote
//! inbox, and the `remote_lock_falls` counter proves no free fell back
//! to waiting for the owner's lock.

use hermes_core::config::HermesConfig;
use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::mpsc;
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 120;

/// A tagged allocation travelling between threads. Raw addresses, not
/// `NonNull`, so the payload is `Send` without unsafe impls.
struct Block {
    addr: usize,
    size: usize,
    align: usize,
    tag: u8,
}

fn layout(size: usize, align: usize) -> Layout {
    Layout::from_size_align(size, align).unwrap()
}

/// Mixed size schedule crossing the 128 KiB mmap threshold: mostly small
/// chunks with a steady trickle of 130 KiB – 642 KiB large-path requests.
fn size_for(thread: usize, round: usize) -> usize {
    match round % 10 {
        9 => 130 * 1024 + (thread * 64 * 1024),
        8 => 16 * 1024 + thread * 1111,
        r => 17 + (round * 131 + thread * 977 + r) % 6_000,
    }
}

#[test]
fn eight_threads_mixed_sizes_cross_thread_frees() {
    let heap = Arc::new(
        HermesHeap::new(HermesHeapConfig {
            heap_capacity: 128 << 20,
            large_capacity: 256 << 20,
            arenas: 4,
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        })
        .unwrap(),
    );
    heap.start_manager();

    // Ring topology: thread t frees what thread t-1 allocated.
    let (txs, rxs): (Vec<mpsc::Sender<Block>>, Vec<mpsc::Receiver<Block>>) =
        (0..THREADS).map(|_| mpsc::channel()).unzip();

    let handles: Vec<_> = rxs
        .into_iter()
        .enumerate()
        .map(|(t, rx)| {
            let heap = Arc::clone(&heap);
            let tx = txs[(t + 1) % THREADS].clone();
            std::thread::spawn(move || {
                let mut local: Vec<Block> = Vec::new();
                for round in 0..ROUNDS {
                    let size = size_for(t, round);
                    let align = if round % 4 == 0 { 64 } else { 16 };
                    let p = heap
                        .allocate(layout(size, align))
                        .expect("arena capacity suffices");
                    assert_eq!(p.as_ptr() as usize % align, 0, "misaligned");
                    let tag = (t as u8) ^ (round as u8);
                    // SAFETY: fresh allocation of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), tag, size) };
                    let block = Block {
                        addr: p.as_ptr() as usize,
                        size,
                        align,
                        tag,
                    };
                    // Every third block crosses to the neighbour; the rest
                    // churn locally so both free paths are exercised.
                    if round % 3 == 0 {
                        tx.send(block).expect("neighbour alive");
                    } else {
                        local.push(block);
                    }
                    // Drain anything the predecessor sent, verifying the
                    // contents it wrote before freeing on *this* thread.
                    while let Ok(b) = rx.try_recv() {
                        free_verified(&heap, b);
                    }
                    // Keep local liveness bounded.
                    if local.len() > 24 {
                        let b = local.swap_remove(round % 24);
                        free_verified(&heap, b);
                    }
                }
                drop(tx);
                for b in local {
                    free_verified(&heap, b);
                }
                // Final drain: predecessors may still be sending; keep
                // receiving until every sender hung up.
                while let Ok(b) = rx.recv() {
                    free_verified(&heap, b);
                }
            })
        })
        .collect();
    drop(txs);

    for h in handles {
        h.join().expect("no thread panicked");
    }
    heap.stop_manager();
    heap.drain_remote_inboxes();

    // Merged stats balance: everything allocated was freed.
    let hs = heap.heap_stats();
    assert_eq!(hs.in_use, 0, "main-heap bytes leak: {hs:?}");
    assert_eq!(hs.live, 0, "main-heap chunks leak");
    let ls = heap.large_stats();
    assert_eq!(ls.live, 0, "large chunks leak");
    assert_eq!(ls.live_bytes, 0, "large bytes leak");
    let c = heap.counters();
    assert_eq!(c.alloc_count, (THREADS * ROUNDS) as u64);
    assert_eq!(
        c.free_count, c.alloc_count,
        "every alloc freed exactly once"
    );
    // The small-path cross-shard frees all rode the inboxes: not one
    // took the owning shard's lock from a foreign thread.
    assert!(c.remote_frees > 0, "ring topology crossed shards");
    assert_eq!(c.remote_lock_falls, 0, "no remote free fell to the lock");
    assert_eq!(c.remote_queued_blocks, 0, "inboxes fully drained");
    // Per-arena breakdown sums to the merged view.
    let per_arena_allocs: u64 = (0..heap.arena_count())
        .map(|i| heap.arena_stats(i).counters.alloc_count)
        .sum();
    assert_eq!(per_arena_allocs, c.alloc_count);
    heap.check_integrity().expect("no structural corruption");
}

/// Producer/consumer pipeline: 4 producer threads allocate tagged blocks
/// (mostly cacheable sizes, with a trickle of uncacheable and large-path
/// ones) and hand *every* block to a paired consumer thread, which
/// verifies the payload and frees it. A consumer's home shard usually
/// differs from the block's owning shard, so these frees exercise the
/// remote-inbox routing; producers churn a small local set too, so
/// refills, hits and flushes all fire. After every thread has exited —
/// draining its magazines — the merged statistics must balance.
#[test]
fn producer_consumer_cross_thread_frees_with_caches() {
    const PAIRS: usize = 4;
    const PC_ROUNDS: usize = 400;
    let heap = Arc::new(
        HermesHeap::new(HermesHeapConfig {
            heap_capacity: 128 << 20,
            large_capacity: 256 << 20,
            arenas: 4,
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        })
        .unwrap(),
    );
    heap.start_manager();

    let mut handles = Vec::new();
    for pair in 0..PAIRS {
        let (tx, rx) = mpsc::channel::<Block>();
        let producer = {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                let mut local: Vec<Block> = Vec::new();
                for round in 0..PC_ROUNDS {
                    // Mostly cacheable, every 16th above the 4080 B
                    // cacheable payload bound (the uncacheable-small
                    // bypass), every 50th large-path.
                    let size = match round % 50 {
                        49 => 200 * 1024,
                        r if r % 16 == 15 => 5000 + pair * 100,
                        r => 17 + (round * 37 + pair * 131 + r) % 990,
                    };
                    let p = heap.allocate(layout(size, 16)).expect("capacity");
                    let tag = ((pair as u8) ^ (round as u8)) | 1;
                    // SAFETY: fresh allocation of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), tag, size) };
                    let block = Block {
                        addr: p.as_ptr() as usize,
                        size,
                        align: 16,
                        tag,
                    };
                    if round % 4 == 3 {
                        // Local churn: same-shard frees land in this
                        // thread's magazines and flush on overflow.
                        local.push(block);
                        if local.len() > 16 {
                            free_verified(&heap, local.swap_remove(round % 16));
                        }
                    } else {
                        tx.send(block).expect("consumer alive");
                    }
                }
                for b in local {
                    free_verified(&heap, b);
                }
            })
        };
        let consumer = {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                while let Ok(b) = rx.recv() {
                    free_verified(&heap, b);
                }
            })
        };
        handles.push(producer);
        handles.push(consumer);
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
    heap.stop_manager();
    heap.drain_remote_inboxes();

    // Thread exit drained every magazine: no block is parked anywhere.
    let c = heap.counters();
    assert_eq!(c.cached_blocks, 0, "magazines drained at thread exit");
    assert_eq!(c.cached_bytes, 0);
    assert_eq!(c.alloc_count, (PAIRS * PC_ROUNDS) as u64);
    assert_eq!(c.free_count, c.alloc_count, "every alloc freed once");
    assert!(c.tcache_refills > 0, "cache path exercised");
    // Consumer frees crossed shards by the remote path (try-lock, else
    // inbox); the uncacheable trickle (above the cacheable payload
    // bound) took it too instead of falling back to the owner's lock.
    assert!(c.remote_frees > 0, "cross-shard frees staged remotely");
    assert_eq!(c.remote_lock_falls, 0, "no remote free fell to the lock");
    assert_eq!(c.remote_queued_blocks, 0, "inboxes fully drained");
    let hs = heap.heap_stats();
    assert_eq!(hs.in_use, 0, "main-heap bytes leak: {hs:?}");
    assert_eq!(hs.live, 0, "main-heap chunks leak");
    let ls = heap.large_stats();
    assert_eq!(ls.live, 0, "large chunks leak");
    assert_eq!(ls.live_bytes, 0, "large bytes leak");
    heap.check_integrity().expect("no structural corruption");
}

/// The tentpole's target workload, distilled: 4 producers do nothing but
/// allocate and hand off, 4 consumers do nothing but verify and free —
/// every single small free is a cross-shard free from a thread that never
/// allocates. None of them may touch the owning shard's lock
/// (`remote_lock_falls == 0`); the inboxes and the manager absorb the
/// whole return flow.
#[test]
fn pure_producer_consumer_eight_threads_stays_lock_free() {
    const PAIRS: usize = 4;
    const PP_ROUNDS: usize = 600;
    let heap = Arc::new(
        HermesHeap::new(HermesHeapConfig {
            heap_capacity: 128 << 20,
            large_capacity: 256 << 20,
            arenas: 4,
            reserve_factor: 1,
            hermes: HermesConfig::default(),
        })
        .unwrap(),
    );
    heap.start_manager();

    let mut handles = Vec::new();
    for pair in 0..PAIRS {
        let (tx, rx) = mpsc::channel::<Block>();
        let producer = {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                for round in 0..PP_ROUNDS {
                    let size = 17 + (round * 53 + pair * 241) % 2_000;
                    let p = heap.allocate(layout(size, 16)).expect("capacity");
                    let tag = ((pair as u8) ^ (round as u8)) | 1;
                    // SAFETY: fresh allocation of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), tag, size) };
                    tx.send(Block {
                        addr: p.as_ptr() as usize,
                        size,
                        align: 16,
                        tag,
                    })
                    .expect("consumer alive");
                }
            })
        };
        let consumer = {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                while let Ok(b) = rx.recv() {
                    free_verified(&heap, b);
                }
            })
        };
        handles.push(producer);
        handles.push(consumer);
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
    heap.stop_manager();
    heap.drain_remote_inboxes();

    let c = heap.counters();
    assert_eq!(c.alloc_count, (PAIRS * PP_ROUNDS) as u64);
    assert_eq!(c.free_count, c.alloc_count, "every alloc freed once");
    assert_eq!(c.remote_lock_falls, 0, "no remote free fell to the lock");
    assert!(
        c.remote_frees + c.tcache_hits > 0,
        "frees crossed shards or hit a same-home magazine"
    );
    assert_eq!(c.remote_queued_blocks, 0, "inboxes fully drained");
    assert_eq!(c.cached_blocks, 0, "magazines drained at thread exit");
    let hs = heap.heap_stats();
    assert_eq!(hs.in_use, 0, "main-heap bytes leak: {hs:?}");
    assert_eq!(hs.live, 0, "main-heap chunks leak");
    heap.check_integrity().expect("no structural corruption");
}

fn free_verified(heap: &HermesHeap, b: Block) {
    let p = NonNull::new(b.addr as *mut u8).unwrap();
    // SAFETY: block is live; endpoints were written by the allocator
    // thread before the hand-off.
    unsafe {
        for off in [0, b.size / 2, b.size - 1] {
            assert_eq!(*p.as_ptr().add(off), b.tag, "corrupted at offset {off}");
        }
        heap.deallocate(p, layout(b.size, b.align));
    }
}
