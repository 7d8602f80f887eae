//! Property tests for the real allocator's heap and large pool: random
//! alloc/free interleavings never corrupt structure, never hand out
//! overlapping memory, always respect alignment — and, for the sharded
//! front end, always route a free back to the arena that served the
//! allocation, and keep sized frees whole wherever they run.

use hermes_core::rt::{Arena, HermesHeap, HermesHeapConfig, LargePool, RawHeap, PAGE};
use proptest::prelude::*;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        size: usize,
        align_pow: u8,
    },
    Free {
        victim: usize,
    },
    /// A thread-cache refill: `n` blocks of one exact chunk size.
    Batch {
        size: usize,
        n: usize,
    },
    /// The matching flush: every block of one earlier batch at once.
    FreeBatch {
        victim: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Sizes up to 40 000 over a 64 MiB arena reach the sub-slots of the
    // 1-64 KiB levels; batch sizes cover the thread cache's classes.
    prop_oneof![
        6 => (1usize..40_000, 4u8..9).prop_map(|(size, align_pow)| Op::Alloc { size, align_pow }),
        4 => any::<usize>().prop_map(|victim| Op::Free { victim }),
        2 => (1usize..4_096, 1usize..33).prop_map(|(size, n)| Op::Batch { size, n }),
        1 => any::<usize>().prop_map(|victim| Op::FreeBatch { victim }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_random_ops_keep_invariants(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut heap = RawHeap::new(Arena::reserve(64 << 20).unwrap());
        let mut live: Vec<(std::ptr::NonNull<u8>, usize, u8)> = Vec::new();
        let mut batches: Vec<(Vec<usize>, usize, u8)> = Vec::new();
        let mut stamp = 0u8;
        for op in ops {
            match op {
                Op::Alloc { size, align_pow } => {
                    let align = 1usize << align_pow;
                    if let Some(p) = heap.memalign(align, size) {
                        prop_assert_eq!(p.as_ptr() as usize % align, 0);
                        stamp = stamp.wrapping_add(1);
                        // SAFETY: fresh allocation of `size` bytes.
                        unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, size) };
                        // No overlap with any live allocation.
                        let a0 = p.as_ptr() as usize;
                        for &(q, qsize, _) in &live {
                            let b0 = q.as_ptr() as usize;
                            prop_assert!(
                                a0 + size <= b0 || b0 + qsize <= a0,
                                "overlap: [{a0:#x},{size}) vs [{b0:#x},{qsize})"
                            );
                        }
                        live.push((p, size, stamp));
                    }
                }
                Op::Free { victim } => {
                    if !live.is_empty() {
                        let idx = victim % live.len();
                        let (p, size, tag) = live.swap_remove(idx);
                        // Contents intact until the free.
                        // SAFETY: p is live with `size` valid bytes.
                        unsafe {
                            for off in [0, size / 2, size - 1] {
                                prop_assert_eq!(*p.as_ptr().add(off), tag);
                            }
                            heap.free(p);
                        }
                    }
                }
                Op::Batch { size, n } => {
                    let mut blocks = vec![0usize; n];
                    let got = heap.malloc_batch(size, &mut blocks);
                    blocks.truncate(got);
                    stamp = stamp.wrapping_add(1);
                    let chunk = RawHeap::request_chunk_size(size);
                    for &addr in &blocks {
                        let p = NonNull::new(addr as *mut u8).unwrap();
                        // SAFETY: fresh block of at least `size` bytes.
                        unsafe {
                            let usable = heap.usable_size(p);
                            prop_assert_eq!(RawHeap::request_chunk_size(usable), chunk);
                            std::ptr::write_bytes(p.as_ptr(), stamp, size);
                        }
                        for &(q, qsize, _) in &live {
                            let b0 = q.as_ptr() as usize;
                            prop_assert!(addr + size <= b0 || b0 + qsize <= addr);
                        }
                    }
                    batches.push((blocks, size, stamp));
                }
                Op::FreeBatch { victim } => {
                    if !batches.is_empty() {
                        let (blocks, size, tag) = batches.swap_remove(victim % batches.len());
                        for &addr in &blocks {
                            // SAFETY: each block is live with `size` valid bytes.
                            unsafe {
                                prop_assert_eq!(*(addr as *const u8), tag);
                                prop_assert_eq!(*(addr as *const u8).add(size - 1), tag);
                            }
                        }
                        // SAFETY: all blocks live, each listed once.
                        unsafe { heap.free_batch(&blocks) };
                    }
                }
            }
            heap.check_integrity().map_err(|e| {
                TestCaseError::fail(format!("integrity: {e}"))
            })?;
        }
        // Free everything; the heap must return to a clean state.
        for (p, _, _) in live {
            // SAFETY: still live.
            unsafe { heap.free(p) };
        }
        for (blocks, _, _) in batches {
            // SAFETY: still live.
            unsafe { heap.free_batch(&blocks) };
        }
        heap.check_integrity().map_err(|e| TestCaseError::fail(format!("final: {e}")))?;
        prop_assert_eq!(heap.stats().live, 0);
        prop_assert_eq!(heap.stats().in_use, 0);
    }

    #[test]
    fn large_pool_random_ops(sizes in prop::collection::vec(128usize*1024..1024*1024, 1..40),
                             frees in prop::collection::vec(any::<usize>(), 0..40)) {
        let mut pool = LargePool::new(Arena::reserve(256 << 20).unwrap(), 128 * 1024, 8);
        let mut live = Vec::new();
        // The periodic rounds reserve for the largest request so far, so
        // their fill ranges run under the walk below too.
        let mut largest = 0;
        for (i, &size) in sizes.iter().enumerate() {
            largest = largest.max(size);
            if let Some(p) = pool.alloc(size, PAGE) {
                prop_assert_eq!(p.as_ptr() as usize % PAGE, 0);
                // SAFETY: fresh allocation.
                unsafe {
                    *p.as_ptr() = i as u8;
                    *p.as_ptr().add(size - 1) = i as u8;
                }
                live.push((p, size, i as u8));
            }
            pool.check_integrity().map_err(|e| TestCaseError::fail(format!("alloc {i}: {e}")))?;
            if i % 5 == 4 {
                pool.management_round(1 << 20, 2 << 20, 16 << 20, 256 * 1024, largest);
                pool.check_integrity().map_err(|e| TestCaseError::fail(format!("round {i}: {e}")))?;
            }
        }
        for &f in &frees {
            if live.is_empty() { break; }
            let idx = f % live.len();
            let (p, size, tag) = live.swap_remove(idx);
            // SAFETY: p live, endpoints written at alloc time.
            unsafe {
                prop_assert_eq!(*p.as_ptr(), tag);
                prop_assert_eq!(*p.as_ptr().add(size - 1), tag);
                pool.free(p);
            }
            pool.check_integrity().map_err(|e| TestCaseError::fail(format!("free: {e}")))?;
        }
        for (p, _, _) in live {
            // SAFETY: still live.
            unsafe { pool.free(p) };
            pool.check_integrity().map_err(|e| TestCaseError::fail(format!("drain: {e}")))?;
        }
        pool.management_round(0, 0, 0, 256 * 1024, 0);
        pool.check_integrity().map_err(|e| TestCaseError::fail(format!("final round: {e}")))?;
        // Everything freed merges into warm space, and the trim hands all
        // of it back: nothing stays committed.
        let s = pool.stats();
        prop_assert_eq!((s.pool_bytes, s.extent_bytes, s.committed), (0, 0, 0));
        prop_assert_eq!(pool.stats().live, 0);
        prop_assert_eq!(pool.stats().live_bytes, 0);
    }
}

/// Per-arena `alloc_count` snapshot, used to identify the serving shard
/// without consulting the pointer-range lookup under test.
fn alloc_counts(heap: &HermesHeap) -> Vec<u64> {
    (0..heap.arena_count())
        .map(|i| heap.arena_stats(i).counters.alloc_count)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Free-routing invariant of the sharded runtime: a pointer served by
    /// shard *i* is routed back to shard *i* by `deallocate`'s
    /// pointer-range lookup. The serving shard is observed out-of-band
    /// (exactly one shard's `alloc_count` moves per single-threaded
    /// allocation); each allocation runs on a fresh thread so affinity
    /// tickets spread the requests over every shard. Sizes straddle the
    /// mmap threshold, covering both the heap and large ranges.
    #[test]
    fn frees_route_to_serving_shard(
        arenas in 2usize..7,
        ops in prop::collection::vec((1usize..400 * 1024, 0usize..8), 1..32),
    ) {
        let heap = Arc::new(
            HermesHeap::new(HermesHeapConfig::small().with_arena_count(arenas)).unwrap(),
        );
        prop_assert_eq!(heap.arena_count(), arenas);
        let mut live: Vec<(usize, Layout, usize)> = Vec::new(); // (addr, layout, shard)
        for (size, free_sel) in ops {
            let layout = Layout::from_size_align(size, 16).unwrap();
            let before = alloc_counts(&heap);
            let h = Arc::clone(&heap);
            let addr = std::thread::spawn(move || {
                h.allocate(layout).ok().map(|p| p.as_ptr() as usize)
            })
            .join()
            .expect("allocator thread");
            if let Some(addr) = addr {
                let after = alloc_counts(&heap);
                let moved: Vec<usize> = (0..arenas).filter(|&i| after[i] != before[i]).collect();
                prop_assert_eq!(moved.len(), 1, "exactly one serving shard");
                let serving = moved[0];
                let p = NonNull::new(addr as *mut u8).unwrap();
                prop_assert_eq!(
                    heap.arena_of(p),
                    Some(serving),
                    "range lookup names the serving shard"
                );
                live.push((addr, layout, serving));
            }
            if free_sel % 4 == 0 && !live.is_empty() {
                let (addr, l, shard) = live.swap_remove(free_sel % live.len());
                let frees_before = heap.arena_stats(shard).counters.free_count;
                let p = NonNull::new(addr as *mut u8).unwrap();
                prop_assert_eq!(heap.arena_of(p), Some(shard), "routing is stable");
                // SAFETY: removed from the live set; freed exactly once.
                unsafe { heap.deallocate(p, l) };
                prop_assert_eq!(
                    heap.arena_stats(shard).counters.free_count,
                    frees_before + 1,
                    "free landed on the owning shard"
                );
            }
        }
        for (addr, l, shard) in live {
            let p = NonNull::new(addr as *mut u8).unwrap();
            prop_assert_eq!(heap.arena_of(p), Some(shard));
            // SAFETY: still live; freed exactly once.
            unsafe { heap.deallocate(p, l) };
        }
        for i in 0..arenas {
            let a = heap.arena_stats(i);
            prop_assert_eq!(a.heap.live, 0, "arena {} heap drained", i);
            prop_assert_eq!(a.large.live, 0, "arena {} large drained", i);
            prop_assert_eq!(a.counters.alloc_count, a.counters.free_count);
        }
        prop_assert_eq!(heap.heap_stats().in_use, 0);
        heap.check_integrity().map_err(|e| TestCaseError::fail(format!("integrity: {e}")))?;
    }
}

/// One step of [`sized_frees_keep_the_heap_whole`].
#[derive(Debug, Clone)]
enum SizedOp {
    /// Allocate on the test thread; class-sized below a 4 KiB chunk,
    /// non-class above it, at 16- or 64-byte alignment.
    Alloc { size: usize, align64: u8 },
    /// Free on the test thread.
    FreeHere { victim: usize },
    /// Free on a long-lived worker thread.
    FreeOnWorker { victim: usize },
    /// A short-lived thread allocates `n` blocks, frees the even ones
    /// itself (parked in its magazines, drained at its exit) and hands
    /// the odd ones to the test thread's live set.
    ThreadLife { size: usize, n: usize },
}

fn sized_op_strategy() -> impl Strategy<Value = SizedOp> {
    prop_oneof![
        5 => (1usize..6_000, 0u8..2).prop_map(|(size, align64)| SizedOp::Alloc { size, align64 }),
        3 => any::<usize>().prop_map(|victim| SizedOp::FreeHere { victim }),
        2 => any::<usize>().prop_map(|victim| SizedOp::FreeOnWorker { victim }),
        1 => (1usize..6_000, 1usize..40).prop_map(|(size, n)| SizedOp::ThreadLife { size, n }),
    ]
}

/// A live block of the ledger: its address, layout and fill byte.
type Block = (usize, Layout, u8);

/// Fills a fresh block with `tag`, so a block handed out twice, or one
/// smaller than its layout, shows as a clobbered pattern.
fn fill(b: Block) -> Block {
    // SAFETY: a fresh allocation of `b.1.size()` bytes.
    unsafe { std::ptr::write_bytes(b.0 as *mut u8, b.2, b.1.size()) };
    b
}

/// Checks `b`'s fill and frees it through `heap`.
fn check_and_free(heap: &HermesHeap, b: Block) -> Result<(), TestCaseError> {
    // SAFETY: `b` is live and `b.1.size()` bytes long.
    let bytes = unsafe { std::slice::from_raw_parts(b.0 as *const u8, b.1.size()) };
    prop_assert!(
        bytes.iter().all(|&x| x == b.2),
        "block {:#x} clobbered",
        b.0
    );
    // SAFETY: removed from the ledger; freed exactly once, with its layout.
    unsafe { heap.deallocate(NonNull::new(b.0 as *mut u8).unwrap(), b.1) };
    Ok(())
}

fn integrity(heap: &HermesHeap) -> Result<(), TestCaseError> {
    heap.check_integrity()
        .map_err(|e| TestCaseError::fail(format!("integrity: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sized frees — a home free of a class-sized block parks it by its
    /// layout without reading it — keep the heap whole whoever frees:
    /// the allocating thread, a worker (its home or a foreign shard), or
    /// a thread's exit drain. Class-sized and non-class blocks at 16- and
    /// 64-byte alignment, with a manager-less heap (cross-shard frees
    /// queue) or an idle live manager (they go straight back when they
    /// can). `check_integrity` is clean after every step, and nothing is
    /// live once every cache and inbox is drained.
    #[test]
    fn sized_frees_keep_the_heap_whole(
        live_manager in 0u8..2,
        ops in prop::collection::vec(sized_op_strategy(), 1..120),
    ) {
        let mut cfg = HermesHeapConfig::small().with_arena_count(2);
        cfg.hermes.interval = std::time::Duration::from_secs(3600);
        let heap = Arc::new(HermesHeap::new(cfg).unwrap());
        if live_manager == 1 {
            heap.start_manager();
        }
        let (tx, rx) = std::sync::mpsc::channel::<Option<Block>>();
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<Result<(), TestCaseError>>();
        let h = Arc::clone(&heap);
        let worker = std::thread::spawn(move || {
            while let Ok(Some(b)) = rx.recv() {
                ack_tx.send(check_and_free(&h, b)).unwrap();
            }
            h.drain_thread_cache();
        });
        let mut live: Vec<Block> = Vec::new();
        let mut tag = 0u8;
        for op in ops {
            match op {
                SizedOp::Alloc { size, align64 } => {
                    let layout = Layout::from_size_align(size, if align64 == 1 { 64 } else { 16 }).unwrap();
                    let p = heap.allocate(layout).unwrap();
                    prop_assert_eq!(p.as_ptr() as usize % layout.align(), 0);
                    tag = tag.wrapping_add(1);
                    live.push(fill((p.as_ptr() as usize, layout, tag)));
                }
                SizedOp::FreeHere { victim } if !live.is_empty() => {
                    check_and_free(&heap, live.swap_remove(victim % live.len()))?;
                }
                SizedOp::FreeOnWorker { victim } if !live.is_empty() => {
                    tx.send(Some(live.swap_remove(victim % live.len()))).unwrap();
                    ack_rx.recv().unwrap()?;
                }
                SizedOp::ThreadLife { size, n } => {
                    let h = Arc::clone(&heap);
                    let first = tag;
                    let handed = std::thread::spawn(move || {
                        let layout = Layout::from_size_align(size, 16).unwrap();
                        let mut handed = Vec::new();
                        for i in 0..n {
                            let p = h.allocate(layout).unwrap();
                            let b = fill((p.as_ptr() as usize, layout, first.wrapping_add(i as u8)));
                            if i % 2 == 0 {
                                check_and_free(&h, b)?;
                            } else {
                                handed.push(b);
                            }
                        }
                        Ok::<_, TestCaseError>(handed)
                    })
                    .join()
                    .unwrap()?;
                    tag = first.wrapping_add(n as u8);
                    live.extend(handed);
                }
                _ => {}
            }
            integrity(&heap)?;
        }
        for b in live {
            check_and_free(&heap, b)?;
        }
        tx.send(None).unwrap();
        worker.join().unwrap();
        heap.drain_thread_cache();
        heap.drain_remote_inboxes();
        integrity(&heap)?;
        prop_assert_eq!(heap.heap_stats().live, 0);
        prop_assert_eq!(heap.heap_stats().in_use, 0);
        prop_assert_eq!(heap.cached_bytes(), 0);
    }
}
