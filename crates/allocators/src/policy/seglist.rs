//! The segregated free list for mmapped memory (§3.2.2, Equation 1).
//!
//! Pre-mapped chunks are bucketed by `min(⌊size / min_mmap⌋, table_size)`.
//! A request of size `s` looks in bucket `min(bucket(s) + 1, table_size)`
//! so the first chunk found is guaranteed to fit without scanning; if the
//! list has no fitting chunk the *largest* chunk is expanded to the
//! requested size, and only if the pool is empty does allocation fall back
//! to a fresh `mmap`.
//!
//! The simulated Hermes model runs Algorithm 2 on these lists exactly as
//! the paper writes it. The runtime's large path does not use them: it
//! carves exact-size blocks from one coalescing free map
//! (`hermes_core::rt::large`, DESIGN.md §2), so it never hands out an
//! over-sized chunk and has nothing to shrink.

use std::cmp::Reverse;
use std::collections::{btree_map, BTreeMap};

/// The paper's `table_size`: buckets of the segregated free list the
/// simulated allocator builds (1 MB / 128 KB).
pub const TABLE_SIZE: usize = 8;

/// A pre-mapped chunk tracked by the pool. `id` is owned by the embedding
/// allocator (an address, an offset, or a synthetic handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmapChunk {
    /// Opaque identity for the embedder.
    pub id: u64,
    /// Chunk size in bytes (multiple of the page size in practice).
    pub size: usize,
}

/// Result of a pool lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolHit {
    /// A chunk at least as large as the request; hand it out directly.
    Fit(MmapChunk),
    /// The pool's largest chunk, smaller than the request: the embedder
    /// expands it by `extra` bytes (cheaper than a cold `mmap` because the
    /// chunk's existing pages are already mapped).
    Expand {
        /// The chunk to grow.
        chunk: MmapChunk,
        /// Additional bytes needed to satisfy the request.
        extra: usize,
    },
    /// Pool empty: fall back to the default allocation routine.
    Miss,
}

/// Segregated free list of pre-mapped chunks.
#[derive(Debug, Clone)]
pub struct SegregatedFreeList {
    /// One FIFO per bucket, keyed by insertion sequence number.
    buckets: Vec<BTreeMap<u64, MmapChunk>>,
    next_seq: u64,
    min_mmap: usize,
    table_size: usize,
    total: usize,
}

impl SegregatedFreeList {
    /// Creates a pool with the paper's parameters: `min_mmap` = 128 KB and
    /// `table_size` = 8 (1 MB / 128 KB).
    ///
    /// # Panics
    ///
    /// Panics if `min_mmap == 0` or `table_size == 0`.
    pub fn new(min_mmap: usize, table_size: usize) -> Self {
        assert!(min_mmap > 0, "min_mmap must be positive");
        assert!(table_size > 0, "table_size must be positive");
        SegregatedFreeList {
            buckets: vec![BTreeMap::new(); table_size + 1],
            next_seq: 0,
            min_mmap,
            table_size,
            total: 0,
        }
    }

    /// Equation 1: `bucket(size) = min(⌊size / min_mmap⌋, table_size)`.
    pub fn bucket_of(&self, size: usize) -> usize {
        (size / self.min_mmap).min(self.table_size)
    }

    /// Total bytes in the pool (`memory_pool.total_size` in Algorithm 2).
    pub fn total_size(&self) -> usize {
        self.total
    }

    /// Number of chunks in the pool.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(BTreeMap::len).sum()
    }

    /// `true` if the pool holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.total == 0 && self.buckets.iter().all(BTreeMap::is_empty)
    }

    /// Inserts a chunk (a fresh reservation or a freed allocation).
    pub fn insert(&mut self, chunk: MmapChunk) {
        let b = self.bucket_of(chunk.size);
        self.total += chunk.size;
        self.buckets[b].insert(self.next_seq, chunk);
        self.next_seq += 1;
    }

    /// Serves a request of `req` bytes per the paper's lookup rule.
    pub fn take(&mut self, req: usize) -> PoolHit {
        let start = (self.bucket_of(req) + 1).min(self.table_size);
        // First chunk in the best-fit bucket or any higher bucket is
        // guaranteed to be >= req (except in the capped last bucket,
        // which is checked explicitly).
        for b in start..=self.table_size {
            // Capped bucket may hold chunks smaller than very large
            // requests; leave those for the expand path.
            if let Some(front) = self.buckets[b].first_entry() {
                if front.get().size >= req {
                    let c = front.remove();
                    self.total -= c.size;
                    return PoolHit::Fit(c);
                }
            }
        }
        // No fitting chunk: use the largest chunk in the pool and expand.
        match self.take_largest() {
            Some(c) if c.size >= req => PoolHit::Fit(c),
            Some(c) => PoolHit::Expand {
                chunk: c,
                extra: req - c.size,
            },
            None => PoolHit::Miss,
        }
    }

    /// Removes and returns the largest chunk.
    pub fn take_largest(&mut self) -> Option<MmapChunk> {
        for b in (0..=self.table_size).rev() {
            if self.buckets[b].is_empty() {
                continue;
            }
            let (&seq, _) = self.buckets[b]
                .iter()
                .max_by_key(|&(&seq, c)| (c.size, Reverse(seq)))
                .expect("bucket non-empty");
            let c = self.buckets[b].remove(&seq).expect("key present");
            self.total -= c.size;
            return Some(c);
        }
        None
    }

    /// Removes and returns the smallest chunk (Algorithm 2's trim loop
    /// releases `memory_pool.smallest_space` first).
    pub fn take_smallest(&mut self) -> Option<MmapChunk> {
        for b in 0..=self.table_size {
            if self.buckets[b].is_empty() {
                continue;
            }
            let (&seq, _) = self.buckets[b]
                .iter()
                .min_by_key(|&(&seq, c)| (c.size, seq))
                .expect("bucket non-empty");
            let c = self.buckets[b].remove(&seq).expect("key present");
            self.total -= c.size;
            return Some(c);
        }
        None
    }

    /// Iterates over all chunks (diagnostics and tests).
    pub fn iter(&self) -> impl Iterator<Item = &MmapChunk> {
        self.buckets.iter().flat_map(BTreeMap::values)
    }
}

/// The `alloc_set` of Algorithm 2: over-sized chunks handed to the process
/// that the next management round shrinks back to the requested size
/// (*delayed release*, so the process never waits for the shrink).
#[derive(Debug, Clone, Default)]
pub struct DelayedShrinkSet {
    /// Pending entries by chunk id.
    entries: BTreeMap<u64, ShrinkEntry>,
}

/// One handed-out chunk pending shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkEntry {
    /// Chunk identity.
    pub id: u64,
    /// Size actually handed out.
    pub allocated: usize,
    /// Size the process asked for.
    pub requested: usize,
}

impl DelayedShrinkSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handed-out chunk; no-op when nothing would be trimmed.
    pub fn push(&mut self, id: u64, allocated: usize, requested: usize) {
        debug_assert!(allocated >= requested);
        if allocated > requested {
            let entry = ShrinkEntry {
                id,
                allocated,
                requested,
            };
            self.entries.insert(id, entry);
        }
    }

    /// Cancels a pending shrink (the chunk was freed before the round ran).
    pub fn cancel(&mut self, id: u64) -> Option<ShrinkEntry> {
        self.entries.remove(&id)
    }

    /// Takes all pending entries, in chunk-id order, for processing by
    /// the management round (`DelayRelease(alloc_set)` in Algorithm 2).
    pub fn drain(&mut self) -> btree_map::IntoValues<u64, ShrinkEntry> {
        std::mem::take(&mut self.entries).into_values()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no shrink is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes that would be released by processing the set.
    pub fn reclaimable(&self) -> usize {
        self.entries
            .values()
            .map(|e| e.allocated - e.requested)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: usize = 1024;

    fn pool() -> SegregatedFreeList {
        SegregatedFreeList::new(128 * KB, 8)
    }

    #[test]
    fn table_size_matches_paper() {
        // 1 MB / 128 KB: the paper's buckets over the default threshold.
        assert_eq!(TABLE_SIZE, (1 << 20) / hermes_core::DEFAULT_MMAP_THRESHOLD);
    }

    #[test]
    fn equation1_bucketing() {
        let p = pool();
        assert_eq!(p.bucket_of(128 * KB), 1);
        assert_eq!(p.bucket_of(200 * KB), 1);
        assert_eq!(p.bucket_of(256 * KB), 2);
        assert_eq!(p.bucket_of(524 * KB), 4);
        assert_eq!(p.bucket_of(1024 * KB), 8);
        assert_eq!(p.bucket_of(10 * 1024 * KB), 8, "capped at table_size");
    }

    #[test]
    fn paper_example_278kb_gets_524kb_chunk() {
        // §3.2.2: three chunks, a 278 KB request takes the 524 KB chunk
        // found via the bucket(req)+1 rule, never a chunk that might be
        // smaller than the request.
        let mut p = pool();
        p.insert(MmapChunk {
            id: 1,
            size: 150 * KB,
        });
        p.insert(MmapChunk {
            id: 2,
            size: 200 * KB,
        });
        p.insert(MmapChunk {
            id: 3,
            size: 524 * KB,
        });
        match p.take(278 * KB) {
            PoolHit::Fit(c) => assert_eq!(c.id, 3),
            other => panic!("expected fit, got {other:?}"),
        }
        assert_eq!(p.total_size(), 350 * KB);
    }

    #[test]
    fn fit_never_returns_too_small() {
        let mut p = pool();
        for (id, sz) in [
            (1u64, 128 * KB),
            (2, 300 * KB),
            (3, 600 * KB),
            (4, 2048 * KB),
        ] {
            p.insert(MmapChunk { id, size: sz });
        }
        for req in [128 * KB, 129 * KB, 256 * KB, 500 * KB, 1024 * KB, 2000 * KB] {
            let mut q = p.clone();
            match q.take(req) {
                PoolHit::Fit(c) => assert!(c.size >= req, "req {req} got {}", c.size),
                PoolHit::Expand { chunk, extra } => {
                    assert!(chunk.size < req);
                    assert_eq!(chunk.size + extra, req);
                }
                PoolHit::Miss => panic!("pool not empty"),
            }
        }
    }

    #[test]
    fn oversized_request_expands_largest() {
        let mut p = pool();
        p.insert(MmapChunk {
            id: 1,
            size: 256 * KB,
        });
        p.insert(MmapChunk {
            id: 2,
            size: 512 * KB,
        });
        match p.take(4 * 1024 * KB) {
            PoolHit::Expand { chunk, extra } => {
                assert_eq!(chunk.id, 2, "largest chunk chosen");
                assert_eq!(extra, 4 * 1024 * KB - 512 * KB);
            }
            other => panic!("expected expand, got {other:?}"),
        }
    }

    #[test]
    fn empty_pool_misses() {
        let mut p = pool();
        assert_eq!(p.take(256 * KB), PoolHit::Miss);
        assert!(p.is_empty());
    }

    #[test]
    fn capped_bucket_requests_still_fit_when_possible() {
        let mut p = pool();
        p.insert(MmapChunk {
            id: 1,
            size: 1100 * KB,
        }); // bucket 8
        p.insert(MmapChunk {
            id: 2,
            size: 5000 * KB,
        }); // bucket 8
            // A 2 MB request maps to bucket 8; the front chunk (1100 KB) is too
            // small, but the pool holds a fitting one.
        match p.take(2048 * KB) {
            PoolHit::Fit(c) => assert_eq!(c.id, 2),
            other => panic!("expected fit, got {other:?}"),
        }
    }

    #[test]
    fn take_smallest_and_largest() {
        let mut p = pool();
        for (id, sz) in [(1u64, 300 * KB), (2, 150 * KB), (3, 900 * KB)] {
            p.insert(MmapChunk { id, size: sz });
        }
        assert_eq!(p.take_smallest().unwrap().id, 2);
        assert_eq!(p.take_largest().unwrap().id, 3);
        assert_eq!(p.len(), 1);
        assert_eq!(p.total_size(), 300 * KB);
    }

    #[test]
    fn total_size_tracks_inserts_and_takes() {
        let mut p = pool();
        p.insert(MmapChunk {
            id: 1,
            size: 128 * KB,
        });
        p.insert(MmapChunk {
            id: 2,
            size: 256 * KB,
        });
        assert_eq!(p.total_size(), 384 * KB);
        p.take(128 * KB);
        assert!(p.total_size() < 384 * KB);
    }

    #[test]
    fn fifo_within_bucket() {
        let mut p = pool();
        p.insert(MmapChunk {
            id: 1,
            size: 300 * KB,
        });
        p.insert(MmapChunk {
            id: 2,
            size: 320 * KB,
        });
        // Both land in bucket 2; a 140 KB request reads bucket 2 and takes
        // the first chunk inserted.
        match p.take(140 * KB) {
            PoolHit::Fit(c) => assert_eq!(c.id, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delayed_shrink_set_behaviour() {
        let mut s = DelayedShrinkSet::new();
        s.push(1, 524 * KB, 278 * KB);
        s.push(2, 256 * KB, 256 * KB); // exact: ignored
        assert_eq!(s.len(), 1);
        assert_eq!(s.reclaimable(), (524 - 278) * KB);
        let drained: Vec<_> = s.drain().collect();
        assert_eq!(drained.len(), 1);
        assert!(s.is_empty());
        assert_eq!(drained[0].id, 1);
    }

    #[test]
    fn delayed_shrink_cancel() {
        let mut s = DelayedShrinkSet::new();
        s.push(1, 300 * KB, 200 * KB);
        s.push(2, 300 * KB, 150 * KB);
        assert!(s.cancel(1).is_some());
        assert!(s.cancel(1).is_none());
        assert_eq!(s.len(), 1);
        assert_eq!(s.drain().map(|e| e.id).collect::<Vec<_>>(), [2]);
    }
}
