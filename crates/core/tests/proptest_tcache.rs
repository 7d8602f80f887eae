//! Conservation property of the thread-cache layer: for *any*
//! interleaving of allocations, frees, magazine refills, overflow
//! flushes, management rounds and explicit drains, block accounting
//! balances —
//!
//! ```text
//! allocated (user-held) + cached (magazines) + free == carved
//! ```
//!
//! Observable form: the runtime-reported `heap_stats()` must equal the
//! user's own ledger at every step (reported `in_use`/`live` exclude
//! cached blocks by definition), refills/flushes must move bytes between
//! the cached gauge and the shard heap without ever changing the
//! reported user totals, and a drain must zero the gauge while leaving
//! user memory untouched.

use hermes_core::rt::tcache::cache_chunk_for;
use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use proptest::prelude::*;
use std::alloc::Layout;
use std::ptr::NonNull;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a cacheable block (payload small enough that the class
    /// chunk stays inside the cacheable bound, so the ledger knows the
    /// exact chunk every block occupies).
    Alloc {
        size: usize,
    },
    Free {
        victim: usize,
    },
    /// One management round.
    Round,
    /// Explicit drain of this thread's magazines.
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..4081).prop_map(|size| Op::Alloc { size }),
        3 => any::<usize>().prop_map(|victim| Op::Free { victim }),
        1 => Just(Op::Round),
        1 => Just(Op::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn refill_flush_drain_conserve_block_accounting(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        let cfg = HermesHeapConfig::small().with_arena_count(2);
        let heap = HermesHeap::new(cfg).unwrap();
        // The user's ledger: every live pointer with its exact chunk
        // size. Single-threaded and cacheable-only, so every block is
        // served through the magazine path with an exact class chunk.
        let mut live: Vec<(NonNull<u8>, usize, usize)> = Vec::new(); // ptr, size, chunk
        let mut stamp = 0u8;
        for op in ops {
            match op {
                Op::Alloc { size } => {
                    let l = Layout::from_size_align(size, 16).unwrap();
                    let p = heap.allocate(l).expect("capacity suffices");
                    stamp = stamp.wrapping_add(1);
                    // SAFETY: fresh allocation of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, size) };
                    live.push((p, size, cache_chunk_for(size).expect("cacheable")));
                }
                Op::Free { victim } => {
                    if !live.is_empty() {
                        let (p, size, _) = live.swap_remove(victim % live.len());
                        // SAFETY: p live with `size` valid bytes, freed once.
                        unsafe {
                            prop_assert_eq!(*p.as_ptr(), *p.as_ptr().add(size - 1));
                            heap.deallocate(p, Layout::from_size_align(size, 16).unwrap());
                        }
                    }
                }
                Op::Round => heap.run_management_round(),
                Op::Drain => heap.drain_thread_cache(),
            }
            // Conservation, checked after *every* op: whatever refills,
            // flushes or drains just happened, the runtime
            // reports exactly the user's holdings — cached blocks moved
            // between shard heap and magazines, never into `in_use`.
            let hs = heap.heap_stats();
            prop_assert_eq!(hs.live, live.len(), "reported live == user live");
            let expected: usize = live.iter().map(|&(_, _, chunk)| chunk).sum();
            prop_assert_eq!(hs.in_use, expected, "reported in_use == user chunk bytes");
            heap.check_integrity()
                .map_err(|e| TestCaseError::fail(format!("integrity: {e}")))?;
        }
        // Wind down: a drain returns every magazine block to the shards
        // without touching user memory...
        heap.drain_thread_cache();
        let c = heap.counters();
        prop_assert_eq!(c.cached_blocks, 0);
        prop_assert_eq!(c.cached_bytes, 0);
        prop_assert_eq!(heap.heap_stats().live, live.len());
        // ...and freeing the ledger empties the heap completely.
        for (p, size, _) in live.drain(..) {
            // SAFETY: still live, freed once.
            unsafe { heap.deallocate(p, Layout::from_size_align(size, 16).unwrap()) };
        }
        heap.drain_thread_cache();
        prop_assert_eq!(heap.heap_stats().in_use, 0);
        prop_assert_eq!(heap.heap_stats().live, 0);
        prop_assert_eq!(heap.cached_bytes(), 0);
        prop_assert_eq!(
            heap.counters().alloc_count, heap.counters().free_count,
            "every allocation freed exactly once"
        );
        heap.check_integrity()
            .map_err(|e| TestCaseError::fail(format!("final: {e}")))?;
    }
}
