//! Conservation property of the remote-free queue: for *any*
//! interleaving of owner-local allocations, foreign-thread allocations,
//! frees (which queue on the owner's inbox whenever the block's owner is
//! not the freeing thread's home shard: the heap has no live manager, so
//! no cross-shard free takes the direct route), management rounds (which drain
//! every inbox), explicit inbox drains and thread-cache drains (which
//! empty the magazines and leave the inboxes alone), block accounting
//! balances —
//!
//! ```text
//! user-held + cached + queued + free == carved
//! ```
//!
//! Observable form: the runtime-reported `heap_stats()` must equal the
//! user's own ledger at every step — a block parked in an inbox is *in
//! transit*, not user memory and not yet heap free space, and the gauges
//! must re-book it out of `in_use`/`live` exactly once. No byte may be lost (leak) or returned twice (double free
//! corrupting the boundary tags — `check_integrity` would see it).
//!
//! The foreign allocator is a persistent worker thread whose home shard
//! differs from the main thread's, so `Free` exercises both the
//! owner-local magazine path and the remote inbox path in one sequence.

use hermes_core::rt::tcache::cache_chunk_for;
use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use proptest::prelude::*;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::{mpsc, Arc};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate on the main thread (home shard serves; frees of these
    /// blocks park in the main thread's magazines).
    AllocLocal { size: usize },
    /// Allocate on the foreign-home worker (frees of these blocks queue
    /// on the owner's remote inbox).
    AllocRemote { size: usize },
    /// Free a ledger block on the main thread.
    Free { victim: usize },
    /// One management round: drains every inbox.
    Round,
    /// Explicit full drain: empty every inbox.
    DrainInboxes,
    /// Thread-cache drain: empties this thread's magazines *without*
    /// draining the inboxes.
    DrainCache,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1usize..4081).prop_map(|size| Op::AllocLocal { size }),
        3 => (1usize..4081).prop_map(|size| Op::AllocRemote { size }),
        4 => any::<usize>().prop_map(|victim| Op::Free { victim }),
        1 => Just(Op::Round),
        1 => Just(Op::DrainInboxes),
        1 => Just(Op::DrainCache),
    ]
}

/// A worker thread pinned (by ticket) to a home shard different from the
/// caller's, allocating on request until its command channel drops.
struct ForeignAllocator {
    tx: mpsc::Sender<usize>,
    rx: mpsc::Receiver<usize>,
    join: std::thread::JoinHandle<()>,
}

impl ForeignAllocator {
    /// Spawns workers until one lands on a foreign home shard (ticket
    /// assignment is round-robin over the shards, so with 2 arenas the
    /// second try at the latest succeeds).
    fn spawn(heap: &Arc<HermesHeap>) -> Self {
        let my_home = heap.home_arena();
        for _ in 0..8 {
            let (req_tx, req_rx) = mpsc::channel::<usize>();
            let (rsp_tx, rsp_rx) = mpsc::channel::<usize>();
            let h = Arc::clone(heap);
            let join = std::thread::spawn(move || {
                if h.home_arena() == my_home {
                    return; // wrong parity: exit, caller retries
                }
                rsp_tx.send(usize::MAX).unwrap(); // ready marker
                while let Ok(size) = req_rx.recv() {
                    let l = Layout::from_size_align(size, 16).unwrap();
                    let p = h.allocate(l).expect("capacity suffices");
                    rsp_tx.send(p.as_ptr() as usize).unwrap();
                }
            });
            if rsp_rx.recv().is_ok() {
                return ForeignAllocator {
                    tx: req_tx,
                    rx: rsp_rx,
                    join,
                };
            }
            join.join().unwrap();
        }
        panic!("no worker landed on a foreign home shard");
    }

    fn alloc(&self, size: usize) -> NonNull<u8> {
        self.tx.send(size).unwrap();
        NonNull::new(self.rx.recv().unwrap() as *mut u8).unwrap()
    }

    fn shutdown(self) {
        drop(self.tx);
        self.join.join().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn remote_queue_conserves_block_accounting(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let cfg = HermesHeapConfig::small().with_arena_count(2);
        let heap = Arc::new(HermesHeap::new(cfg).unwrap());
        let foreign = ForeignAllocator::spawn(&heap);
        // The user's ledger: every live pointer with its size and the
        // exact chunk it occupies (every size here is cache-served, so
        // the class chunk — conservation then demands that refills,
        // frees, flushes and drains net out to exactly that).
        let mut live: Vec<(NonNull<u8>, usize, usize)> = Vec::new();
        let mut expected_in_use = 0usize;
        let mut stamp = 0u8;
        for op in ops {
            match op {
                Op::AllocLocal { size } | Op::AllocRemote { size } => {
                    let p = match op {
                        Op::AllocLocal { .. } => heap
                            .allocate(Layout::from_size_align(size, 16).unwrap())
                            .expect("capacity suffices"),
                        _ => foreign.alloc(size),
                    };
                    let chunk = cache_chunk_for(size).expect("cacheable");
                    stamp = stamp.wrapping_add(1);
                    // SAFETY: fresh allocation of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, size) };
                    live.push((p, size, chunk));
                    expected_in_use += chunk;
                }
                Op::Free { victim } => {
                    if !live.is_empty() {
                        let (p, size, chunk) = live.swap_remove(victim % live.len());
                        // SAFETY: p live with `size` valid bytes, freed once.
                        unsafe {
                            prop_assert_eq!(*p.as_ptr(), *p.as_ptr().add(size - 1));
                            heap.deallocate(p, Layout::from_size_align(size, 16).unwrap());
                        }
                        expected_in_use -= chunk;
                    }
                }
                Op::Round => heap.run_management_round(),
                Op::DrainInboxes => heap.drain_remote_inboxes(),
                Op::DrainCache => heap.drain_thread_cache(),
            }
            // Conservation, checked after *every* op: blocks in inboxes
            // are in transit, never user-held and never double-counted
            // as free space.
            let hs = heap.heap_stats();
            prop_assert_eq!(hs.live, live.len(), "reported live == user live");
            prop_assert_eq!(hs.in_use, expected_in_use, "reported in_use == user bytes");
            heap.check_integrity()
                .map_err(|e| TestCaseError::fail(format!("integrity: {e}")))?;
        }
        foreign.shutdown();
        // Wind down: free the ledger, then quiesce completely.
        for (p, size, _) in live.drain(..) {
            // SAFETY: still live, freed once.
            unsafe { heap.deallocate(p, Layout::from_size_align(size, 16).unwrap()) };
        }
        heap.drain_remote_inboxes();
        let c = heap.counters();
        prop_assert_eq!(c.remote_queued_blocks, 0, "inboxes and stages empty");
        prop_assert_eq!(c.remote_queued_bytes, 0);
        prop_assert_eq!(c.remote_lock_falls, 0, "no remote free fell to the lock");
        prop_assert_eq!(heap.heap_stats().in_use, 0);
        prop_assert_eq!(heap.heap_stats().live, 0);
        prop_assert_eq!(
            c.alloc_count, c.free_count,
            "every allocation freed exactly once"
        );
        heap.check_integrity()
            .map_err(|e| TestCaseError::fail(format!("final: {e}")))?;
    }
}
