//! Property tests for the simulated Hermes model's policy layer:
//! segregated-list accounting and Equation 1 guarantees.

use hermes_allocators::policy::{MmapChunk, PoolHit, SegregatedFreeList};
use proptest::prelude::*;

proptest! {
    #[test]
    fn seglist_take_never_undersizes_and_conserves_bytes(
        chunks in prop::collection::vec(128usize*1024..2_000_000, 0..30),
        req in 128usize*1024..3_000_000,
    ) {
        let mut pool = SegregatedFreeList::new(128 * 1024, 8);
        let mut total = 0usize;
        for (i, &size) in chunks.iter().enumerate() {
            pool.insert(MmapChunk { id: i as u64, size });
            total += size;
        }
        prop_assert_eq!(pool.total_size(), total);
        match pool.take(req) {
            PoolHit::Fit(c) => {
                prop_assert!(c.size >= req);
                prop_assert_eq!(pool.total_size(), total - c.size);
            }
            PoolHit::Expand { chunk, extra } => {
                prop_assert!(chunk.size < req);
                prop_assert_eq!(chunk.size + extra, req);
                // The expand candidate must be the largest chunk.
                for rest in pool.iter() {
                    prop_assert!(rest.size <= chunk.size);
                }
            }
            PoolHit::Miss => prop_assert!(chunks.is_empty()),
        }
    }

    #[test]
    fn seglist_drain_returns_everything(
        chunks in prop::collection::vec(128usize*1024..2_000_000, 1..30),
    ) {
        let mut pool = SegregatedFreeList::new(128 * 1024, 8);
        for (i, &size) in chunks.iter().enumerate() {
            pool.insert(MmapChunk { id: i as u64, size });
        }
        let mut seen = Vec::new();
        while let Some(c) = pool.take_smallest() {
            // take_smallest yields in non-decreasing size order.
            if let Some(&last) = seen.last() {
                prop_assert!(c.size >= last);
            }
            seen.push(c.size);
        }
        prop_assert_eq!(seen.len(), chunks.len());
        prop_assert_eq!(pool.total_size(), 0);
        prop_assert!(pool.is_empty());
    }
}
