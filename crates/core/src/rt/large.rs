//! The mmap-path allocator: page-granular large chunks (≥ 128 KB) with the
//! Hermes segregated pool (§3.2.2).
//!
//! Chunks are carved from a dedicated arena. A freed or pre-reserved chunk
//! goes into the [`SegregatedFreeList`]; handing one out is allocation-
//! latency-free because its pages were already touched. A request first
//! looks for a chunk of its own size class, then applies Equation 1's
//! rule. Over-sized hand-outs are registered in the [`DelayedShrinkSet`]
//! and trimmed back on the next management round, so the requester never
//! waits for the shrink.
//!
//! Divergence from the paper (recorded in DESIGN.md): chunks are carved
//! from one arena reservation, where `mremap`-style in-place expansion
//! would run into the next chunk, so "expand the largest chunk" falls
//! back to carving a fresh chunk. Trimmed and delayed-shrunk memory is
//! recycled through an address-ordered extent list that coalesces
//! adjacent extents, so mixed sizes cannot fragment the arena's address
//! space away. A round takes those ranges out of every list
//! ([`LargePool::detach`]), returns their pages to the kernel
//! (`madvise(DONTNEED)`) with no lock held ([`Detached::decommit`]), and
//! only then lists them as cold extents ([`LargePool::publish`]), so reuse
//! honestly pays (and counts) the mapping-construction faults again. A
//! cold extent that reaches the bump frontier is handed back to it:
//! untouched address space either way.
//!
//! Under the `#[global_allocator]` every list here is edited with the
//! shard's `large` lock held, so no edit may allocate on the large path.
//! All three lists are B-trees: an insert allocates at most one node of a
//! few hundred bytes, which the small path serves, however long the list
//! grows, and a round's [`Detached`] ranges sit in a fixed-capacity buffer
//! filled before the lock is taken (DESIGN.md §4, *Re-entrancy*).

use super::arena::{Arena, PAGE};
use crate::platform::platform;
use crate::policy::{DelayedShrinkSet, MmapChunk, PoolHit, SegregatedFreeList};
use std::collections::BTreeMap;
use std::fmt;
use std::ptr::NonNull;

const MAGIC: u64 = 0x4845_524d_4553_u64; // "HERMES"
/// Replaces [`MAGIC`] when a block is freed, so a second free of it
/// aborts instead of pooling its chunk twice.
const FREED: u64 = 0x0046_5245_4544_u64; // "FREED"

/// Leading chunks of a request's own pool bucket examined, first fit,
/// before Equation 1's `bucket + 1` rule. That rule never hands a 200 KiB
/// request a freed 204 KiB chunk; it takes a larger one whose tail the
/// next round must shrink and decommit (DESIGN.md §2).
const OWN_BUCKET_PROBE: usize = 8;

/// Most ranges one management round detaches. A round that fills the
/// buffer leaves its remaining shrink entries pending and its trim
/// unfinished for the next round.
const DETACH_CAP: usize = 256;

/// A page range taken out of the pool's lists, and whether the kernel
/// took its pages back.
#[derive(Debug, Clone, Copy, Default)]
struct Range {
    off: usize,
    size: usize,
    cold: bool,
}

/// One management round's ranges on their way back to the kernel: no
/// list holds them and no block lives in them, so no allocation can
/// reach them until [`LargePool::publish`] lists them again. The buffer
/// is inline and fixed, so filling it never allocates.
pub(crate) struct Detached {
    /// Base of the arena the offsets are relative to.
    base: NonNull<u8>,
    ranges: [Range; DETACH_CAP],
    len: usize,
}

impl Detached {
    pub(crate) fn new() -> Self {
        Detached {
            base: NonNull::dangling(),
            ranges: [Range::default(); DETACH_CAP],
            len: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_full(&self) -> bool {
        self.len == DETACH_CAP
    }

    fn push(&mut self, off: usize, size: usize) {
        self.ranges[self.len] = Range {
            off,
            size,
            cold: false,
        };
        self.len += 1;
    }

    /// Sorts the ranges by offset, merges adjacent ones, and returns each
    /// merged range's pages to the kernel with one `madvise(DONTNEED)`,
    /// recording whether it took them. Meant to run with no lock held.
    ///
    /// # Safety
    ///
    /// The pool whose [`LargePool::detach`] filled `self` must still be
    /// alive, and must not have published these ranges yet.
    pub(crate) unsafe fn decommit(&mut self) {
        let ranges = &mut self.ranges[..self.len];
        ranges.sort_unstable_by_key(|r| r.off);
        let mut merged = 0;
        for i in 0..ranges.len() {
            let r = ranges[i];
            if merged > 0 && ranges[merged - 1].off + ranges[merged - 1].size == r.off {
                ranges[merged - 1].size += r.size;
            } else {
                ranges[merged] = r;
                merged += 1;
            }
        }
        self.len = merged;
        for r in &mut self.ranges[..merged] {
            // SAFETY: the pool's arena is alive per the caller's contract,
            // the range lies inside its capacity (it was carved, and
            // capacity only grows), and it is page aligned and holds no
            // live data: it is a trimmed chunk or a shrunk tail that no
            // list holds, so nothing can be handed out from it meanwhile.
            r.cold = unsafe {
                platform().decommit(
                    NonNull::new_unchecked(self.base.as_ptr().add(r.off)),
                    r.size,
                )
            };
        }
    }
}

#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct LargeHeader {
    chunk_off: u64,
    chunk_size: u64,
    magic: u64,
}

/// Counters for the large path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LargeStats {
    /// Bytes held ready in the segregated pool.
    pub pool_bytes: usize,
    /// Live large allocations.
    pub live: usize,
    /// Bytes in live large allocations (chunk sizes).
    pub live_bytes: usize,
    /// Requests served from the pre-touched pool (no faults).
    pub pool_hits: u64,
    /// Requests that fell back to a cold carve (the default mmap path).
    pub cold_allocs: u64,
    /// Pages touched on the cold path.
    pub demand_touched_pages: u64,
    /// Bytes sitting in the extent list (space handed back to the bump
    /// frontier is not counted).
    pub extent_bytes: usize,
    /// Total reserved address range of the backing arena.
    pub backing_reserved: usize,
    /// Bytes currently committed (touched and not decommitted) by this
    /// pool — the physical footprint the large path holds.
    pub committed: usize,
    /// Bytes returned to the kernel (`madvise(DONTNEED)`) by trim and
    /// delayed shrink, cumulative.
    pub decommitted: u64,
}

impl LargeStats {
    /// Adds `other` into `self` field-wise; used to merge per-arena
    /// statistics into the runtime-wide view.
    pub fn accumulate(&mut self, other: &LargeStats) {
        self.pool_bytes += other.pool_bytes;
        self.live += other.live;
        self.live_bytes += other.live_bytes;
        self.pool_hits += other.pool_hits;
        self.cold_allocs += other.cold_allocs;
        self.demand_touched_pages += other.demand_touched_pages;
        self.extent_bytes += other.extent_bytes;
        self.backing_reserved += other.backing_reserved;
        self.committed += other.committed;
        self.decommitted += other.decommitted;
    }
}

/// A recyclable page-granular extent (its offset is its key in
/// [`LargePool::extents`]). `warm` records whether its pages are still
/// resident: decommitted extents hand out cold memory, so reuse must
/// re-touch and account the faults.
#[derive(Debug, Clone, Copy)]
struct Extent {
    size: usize,
    warm: bool,
}

/// The large-chunk allocator.
pub struct LargePool {
    arena: Arena,
    bump_off: usize,
    pool: SegregatedFreeList,
    shrink: DelayedShrinkSet,
    /// Recyclable extents by offset, page-granular, with no two
    /// same-warmth neighbours adjacent; `stats.extent_bytes` is the
    /// running sum of their sizes.
    extents: BTreeMap<usize, Extent>,
    /// Committed-bytes gauge: touched minus decommitted.
    committed: usize,
    stats: LargeStats,
    min_mmap: usize,
}

// SAFETY: LargePool exclusively owns its arena; embedders synchronise.
unsafe impl Send for LargePool {}

impl fmt::Debug for LargePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LargePool")
            .field("bump_off", &self.bump_off)
            .field("pool_total", &self.pool.total_size())
            .field("extents", &self.extents.len())
            .field("stats", &self.stats)
            .finish()
    }
}

fn round_up(v: usize, q: usize) -> usize {
    v.div_ceil(q) * q
}

impl LargePool {
    /// Creates a pool over `arena` with the given mmap threshold and
    /// segregated-table size (128 KB / 8 in the paper).
    pub fn new(arena: Arena, min_mmap: usize, table_size: usize) -> Self {
        LargePool {
            arena,
            bump_off: 0,
            pool: SegregatedFreeList::new(min_mmap, table_size),
            shrink: DelayedShrinkSet::new(),
            extents: BTreeMap::new(),
            committed: 0,
            stats: LargeStats::default(),
            min_mmap,
        }
    }

    /// Stats snapshot.
    pub fn stats(&self) -> LargeStats {
        LargeStats {
            pool_bytes: self.pool.total_size(),
            backing_reserved: self.arena.reserved(),
            committed: self.committed,
            ..self.stats
        }
    }

    /// Bytes held ready in the pool (`memory_pool.total_size`).
    pub fn pool_total(&self) -> usize {
        self.pool.total_size()
    }

    /// Requests that fell back to a cold carve, cumulative
    /// ([`LargeStats::cold_allocs`] without the snapshot).
    pub fn cold_allocs(&self) -> u64 {
        self.stats.cold_allocs
    }

    /// `true` if `ptr` belongs to this pool's arena.
    pub fn contains(&self, ptr: *const u8) -> bool {
        self.arena.contains(ptr)
    }

    fn carve(&mut self, need: usize) -> Option<(usize, bool)> {
        // Best-fit from recycled extents first; a decommitted extent is
        // reusable address space but cold memory, so its `warm` flag
        // decides whether the caller must (re-)touch.
        let best = self
            .extents
            .iter()
            .filter(|(_, e)| e.size >= need)
            .min_by_key(|(_, e)| e.size)
            .map(|(&off, &e)| (off, e));
        if let Some((off, Extent { size, warm })) = best {
            // Cut from the front: the rest stays listed behind the cut.
            self.extents.remove(&off);
            if size > need {
                let rest = Extent {
                    size: size - need,
                    warm,
                };
                self.extents.insert(off + need, rest);
            }
            self.stats.extent_bytes -= need;
            return Some((off, warm));
        }
        // Cold path: bump-allocate fresh, untouched pages, growing a
        // mapped arena's exposed capacity on demand.
        if self.bump_off + need > self.arena.capacity() {
            let shortfall = self.bump_off + need - self.arena.capacity();
            let avail = self.arena.reserved() - self.arena.capacity();
            if shortfall > avail {
                return None;
            }
            // Multi-megabyte grow steps amortise the platform calls.
            const GROW_CHUNK: usize = 16 << 20;
            let extra = round_up(shortfall, PAGE).max(GROW_CHUNK).min(avail);
            self.arena.grow(extra).ok()?;
        }
        let off = self.bump_off;
        self.bump_off += need;
        Some((off, false))
    }

    /// Recycles `[off, off+size)` into the extent list; `warm` says
    /// whether its pages are still resident.
    fn push_extent(&mut self, off: usize, size: usize, warm: bool) {
        self.stats.extent_bytes += size;
        let (mut off, mut size) = (off, size);
        // Coalesce: fold the successor into the new extent, then that into
        // its predecessor, where they touch and share warmth. Warm and cold
        // never merge — reuse of a cold extent is re-booked in `committed`,
        // reuse of a warm one is not.
        let next = off + size;
        if self.extents.get(&next).is_some_and(|e| e.warm == warm) {
            size += self.extents.remove(&next).map_or(0, |e| e.size);
        }
        if let Some((&prev, e)) = self.extents.range(..off).next_back() {
            if e.warm == warm && prev + e.size == off {
                size += e.size;
                off = prev;
            }
        }
        self.extents.insert(off, Extent { size, warm });
        // A cold extent ending at the frontier is untouched address space
        // again: un-bump it. (A warm one stays listed — the bump path
        // books every carve as newly committed.)
        if let Some((&off, &Extent { size, warm })) = self.extents.last_key_value() {
            if !warm && off + size == self.bump_off {
                self.extents.pop_last();
                self.stats.extent_bytes -= size;
                self.bump_off = off;
            }
        }
    }

    fn write_header(&mut self, payload_off: usize, chunk_off: usize, chunk_size: usize) {
        debug_assert!(payload_off >= chunk_off + PAGE);
        let hdr = LargeHeader {
            chunk_off: chunk_off as u64,
            chunk_size: chunk_size as u64,
            magic: MAGIC,
        };
        // SAFETY: the header page [payload_off-PAGE, payload_off) lies
        // within the chunk and was touched by carve/pool reservation.
        unsafe {
            (self.arena.at(payload_off - PAGE) as *mut LargeHeader).write(hdr);
        }
    }

    /// Allocates `size` bytes aligned to `align` (page-aligned payloads;
    /// larger powers of two honoured by padding).
    pub fn alloc(&mut self, size: usize, align: usize) -> Option<NonNull<u8>> {
        let pad = if align > PAGE { align } else { 0 };
        let need = round_up(size + PAGE + pad, PAGE);
        let hit = match self.pool.take_own_bucket(need, OWN_BUCKET_PROBE) {
            Some(c) => PoolHit::Fit(c),
            None => self.pool.take(need),
        };
        let (chunk_off, chunk_size, warm) = match hit {
            PoolHit::Fit(c) => (c.id as usize, c.size, true),
            PoolHit::Expand { chunk, .. } => {
                // No mremap: put the too-small chunk back, carve fresh.
                self.pool.insert(chunk);
                let (off, recycled) = self.carve(need)?;
                (off, need, recycled)
            }
            PoolHit::Miss => {
                let (off, recycled) = self.carve(need)?;
                (off, need, recycled)
            }
        };
        if warm {
            self.stats.pool_hits += 1;
        } else {
            self.stats.cold_allocs += 1;
            self.stats.demand_touched_pages += (chunk_size / PAGE) as u64;
            self.arena.touch(chunk_off, chunk_size);
            self.committed += chunk_size;
        }
        let base = self.arena.base().as_ptr() as usize;
        let payload_off = if pad == 0 {
            chunk_off + PAGE
        } else {
            round_up(base + chunk_off + PAGE, align) - base
        };
        self.write_header(payload_off, chunk_off, chunk_size);
        // Register over-sized plain hand-outs for delayed shrink (aligned
        // chunks keep their padding; the header location depends on it).
        if pad == 0 && chunk_size > need {
            self.shrink.push(chunk_off as u64, chunk_size, need);
        }
        self.stats.live += 1;
        self.stats.live_bytes += chunk_size;
        // SAFETY: payload_off is within the chunk, which is within the
        // arena, and at least `size` bytes remain after it.
        Some(unsafe { NonNull::new_unchecked(self.arena.at(payload_off)) })
    }

    /// Frees the allocation at `ptr`; the chunk returns to the pool for
    /// reuse by future requests or the trim pass. Returns the size of
    /// that chunk.
    ///
    /// # Safety
    ///
    /// `ptr` must have been returned by [`LargePool::alloc`] and not freed
    /// since. A second free is caught, and aborts, until the chunk is
    /// trimmed or handed out again.
    pub unsafe fn free(&mut self, ptr: NonNull<u8>) -> usize {
        let payload_off = ptr.as_ptr() as usize - self.arena.base().as_ptr() as usize;
        debug_assert!(payload_off >= PAGE);
        let at = self.arena.at(payload_off - PAGE) as *mut LargeHeader;
        // SAFETY: per the contract the pointer came from `alloc`, whose
        // header page precedes the payload.
        let hdr = unsafe { at.read() };
        match hdr.magic {
            MAGIC => {}
            FREED => super::error::misuse_abort("hermes: double free of a large block\n"),
            // Includes a trimmed chunk, whose decommitted header reads 0.
            _ => {
                super::error::misuse_abort("hermes: free of a large block with a corrupt header\n")
            }
        }
        // SAFETY: a live header was just read there. `write_header`
        // restores the magic when the chunk is handed out again.
        unsafe { (*at).magic = FREED };
        let id = hdr.chunk_off;
        let size = hdr.chunk_size as usize;
        self.shrink.cancel(id);
        self.stats.live -= 1;
        self.stats.live_bytes -= size;
        self.pool.insert(MmapChunk { id, size });
        size
    }

    /// Management round, mmap side (Algorithm 2), for a pool its caller
    /// owns outright: [`LargePool::detach`], [`Detached::decommit`] and
    /// [`LargePool::publish`] back to back. The runtime's manager runs
    /// the same three steps itself, with the shard lock dropped around
    /// the decommit.
    ///
    /// Returns the number of chunks newly reserved.
    pub fn management_round(
        &mut self,
        rsv_thr: usize,
        tgt_mem: usize,
        trim_thr: usize,
        mem_chunk: usize,
    ) -> usize {
        let mut detached = Detached::new();
        let reserved = self.detach(&mut detached, rsv_thr, tgt_mem, trim_thr, mem_chunk);
        // SAFETY: `self` filled `detached` and is alive; nothing has
        // published it.
        unsafe { detached.decommit() };
        self.publish(&detached);
        reserved
    }

    /// The part of a management round that runs under the shard lock
    /// before its page operations: cuts each pending delayed shrink back
    /// to its requested size, reserves pre-touched chunks up to `tgt_mem`
    /// when the pool is below `rsv_thr`, and takes the smallest chunks
    /// out of the pool while it holds more than `trim_thr`. Shrunk tails
    /// and trimmed chunks go into `out`, in no list, still committed.
    /// `mem_chunk` is the per-reservation chunk size.
    ///
    /// Returns the number of chunks newly reserved.
    pub(crate) fn detach(
        &mut self,
        out: &mut Detached,
        rsv_thr: usize,
        tgt_mem: usize,
        trim_thr: usize,
        mem_chunk: usize,
    ) -> usize {
        out.base = self.arena.base();
        while !out.is_full() {
            let Some(e) = self.shrink.pop() else { break };
            let off = e.id as usize;
            let tail = e.allocated - e.requested;
            debug_assert!(tail % PAGE == 0, "pool chunks and requests are whole pages");
            // Rewrite the header with the kept size (plain hand-outs have
            // their header in the chunk's first page).
            self.write_header(off + PAGE, off, e.requested);
            self.stats.live_bytes -= tail;
            out.push(off + e.requested, tail);
        }
        let mut reserved = 0;
        if self.pool.total_size() < rsv_thr {
            // `mem_chunk` is a request size; `alloc` adds the header page,
            // so a chunk without it would never serve a mean-sized request.
            let step = round_up(mem_chunk.max(self.min_mmap), PAGE) + PAGE;
            while self.pool.total_size() < tgt_mem {
                if !self.reserve_chunk(step) {
                    break;
                }
                reserved += 1;
            }
        }
        while self.pool.total_size() > trim_thr && !out.is_full() {
            match self.pool.take_smallest() {
                Some(c) => out.push(c.id as usize, c.size),
                None => break,
            }
        }
        reserved
    }

    /// The part of a management round that runs under the shard lock
    /// after its page operations: lists each of `done`'s ranges as an
    /// extent, cold, or warm where the kernel refused the decommit, and
    /// books the bytes returned. Returns those bytes.
    pub(crate) fn publish(&mut self, done: &Detached) -> usize {
        let mut freed = 0;
        for r in &done.ranges[..done.len] {
            if r.cold {
                freed += r.size;
            }
            self.push_extent(r.off, r.size, !r.cold);
        }
        self.committed = self.committed.saturating_sub(freed);
        self.stats.decommitted += freed as u64;
        freed
    }

    /// Carves and pre-touches one chunk of `bytes`, adding it to the pool.
    /// Returns `false` when the arena is exhausted.
    pub fn reserve_chunk(&mut self, bytes: usize) -> bool {
        let need = round_up(bytes, PAGE);
        match self.carve(need) {
            Some((off, warm)) => {
                if !warm {
                    self.arena.touch(off, need);
                    self.committed += need;
                }
                self.pool.insert(MmapChunk {
                    id: off as u64,
                    size: need,
                });
                true
            }
            None => false,
        }
    }

    /// A management round that only shrinks: [`LargePool::management_round`]
    /// with reservation and trim switched off. Returns the tail bytes
    /// released.
    pub fn process_delayed_shrink(&mut self) -> usize {
        let live = self.stats.live_bytes;
        self.management_round(0, 0, usize::MAX, 0);
        live - self.stats.live_bytes
    }

    /// Pending shrink entries (diagnostics).
    pub fn shrink_pending(&self) -> usize {
        self.shrink.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: usize = 1024;
    const THRESH: usize = 128 * KB;

    fn pool(cap_mb: usize) -> LargePool {
        LargePool::new(Arena::reserve(cap_mb << 20).unwrap(), THRESH, 8)
    }

    #[test]
    fn cold_alloc_and_free_round_trip() {
        let mut p = pool(16);
        let a = p.alloc(256 * KB, PAGE).unwrap();
        assert_eq!(a.as_ptr() as usize % PAGE, 0);
        // SAFETY: fresh allocation.
        unsafe {
            std::ptr::write_bytes(a.as_ptr(), 0xCD, 256 * KB);
            p.free(a);
        }
        let s = p.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.cold_allocs, 1);
        assert!(s.pool_bytes >= 256 * KB, "freed chunk joins the pool");
    }

    #[test]
    fn pool_hit_after_free_is_warm() {
        let mut p = pool(16);
        let a = p.alloc(256 * KB, PAGE).unwrap();
        // SAFETY: a live.
        unsafe { p.free(a) };
        let b = p.alloc(200 * KB, PAGE).unwrap();
        assert_eq!(p.stats().pool_hits, 1);
        // SAFETY: b live.
        unsafe { p.free(b) };
    }

    #[test]
    fn reserve_then_alloc_has_no_cold_path() {
        let mut p = pool(16);
        assert!(p.reserve_chunk(512 * KB));
        let before = p.stats().demand_touched_pages;
        let a = p.alloc(300 * KB, PAGE).unwrap();
        assert_eq!(p.stats().demand_touched_pages, before);
        assert_eq!(p.stats().pool_hits, 1);
        // SAFETY: a live.
        unsafe { p.free(a) };
    }

    #[test]
    fn oversized_handout_shrinks_on_next_round() {
        let mut p = pool(16);
        assert!(p.reserve_chunk(1024 * KB));
        let a = p.alloc(256 * KB, PAGE).unwrap();
        assert_eq!(p.shrink_pending(), 1);
        // A live chunk above keeps the shrunk tail off the bump frontier.
        let above = p.alloc(512 * KB, PAGE).unwrap();
        let live = p.stats().live_bytes;
        p.management_round(0, 0, usize::MAX, 256 * KB);
        let released = live - p.stats().live_bytes;
        assert!(released > 0, "tail recycled");
        assert_eq!(p.shrink_pending(), 0);
        // The chunk header now reflects the reduced size; freeing returns
        // only the kept part.
        // SAFETY: a and above live.
        unsafe {
            p.free(a);
            p.free(above);
        }
        let s = p.stats();
        assert_eq!(s.live, 0);
        assert!(s.extent_bytes >= released);
    }

    #[test]
    fn free_before_round_cancels_shrink() {
        let mut p = pool(16);
        assert!(p.reserve_chunk(1024 * KB));
        let a = p.alloc(256 * KB, PAGE).unwrap();
        assert_eq!(p.shrink_pending(), 1);
        // SAFETY: a live.
        unsafe { p.free(a) };
        assert_eq!(p.shrink_pending(), 0, "freeing cancels the shrink");
        p.management_round(0, 0, usize::MAX, 256 * KB);
        let s = p.stats();
        assert_eq!((s.extent_bytes, s.decommitted), (0, 0), "nothing shrunk");
        assert_eq!(s.pool_bytes, 1024 * KB, "the whole chunk is back");
    }

    #[test]
    fn management_round_reserves_to_target() {
        let mut p = pool(64);
        let reserved = p.management_round(1 << 20, 2 << 20, 8 << 20, 256 * KB);
        assert!(reserved >= 8, "reserved {reserved} chunks");
        assert!(p.pool_total() >= 2 << 20);
        // A second round with a one-chunk trim threshold releases the
        // rest (each chunk is 256 KiB plus its header page).
        p.management_round(0, 0, 256 * KB + PAGE, 256 * KB);
        assert!(p.pool_total() <= 256 * KB + PAGE);
        assert!(p.stats().extent_bytes > 0);
    }

    #[test]
    fn reserved_chunk_serves_a_mean_sized_request() {
        let mut p = pool(16);
        assert_eq!(p.management_round(1, 1, usize::MAX, 256 * KB), 1);
        let a = p.alloc(256 * KB, PAGE).unwrap();
        let s = p.stats();
        assert_eq!((s.pool_hits, s.cold_allocs), (1, 0), "header page included");
        assert_eq!(p.shrink_pending(), 0, "an exact fit");
        // SAFETY: a live.
        unsafe { p.free(a) };
    }

    #[test]
    fn extents_are_recycled_before_bumping() {
        let mut p = pool(16);
        let a = p.alloc(512 * KB, PAGE).unwrap();
        // A live chunk above keeps the extent off the bump frontier.
        let _above = p.alloc(512 * KB, PAGE).unwrap();
        // SAFETY: a live.
        unsafe { p.free(a) };
        // Trim everything into extents.
        p.management_round(0, 0, 0, 256 * KB);
        let bump_before = p.bump_off;
        let b = p.alloc(256 * KB, PAGE).unwrap();
        assert_eq!(p.bump_off, bump_before, "served from extents");
        assert_eq!(
            p.stats().extent_bytes,
            p.extents.values().map(|e| e.size).sum::<usize>(),
            "the gauge follows the list through push and split"
        );
        assert_eq!(p.stats().extent_bytes, 256 * KB);
        // SAFETY: b live.
        unsafe { p.free(b) };
    }

    /// The gauge must equal the list it summarises, and the list must be
    /// address-ordered with no mergeable neighbours left unmerged.
    fn assert_extents_consistent(p: &LargePool) {
        assert_eq!(
            p.stats().extent_bytes,
            p.extents.values().map(|e| e.size).sum::<usize>()
        );
        let list: Vec<_> = p.extents.iter().collect();
        for w in list.windows(2) {
            let ((&a, ea), (&b, eb)) = (w[0], w[1]);
            assert!(a + ea.size <= b, "ordered, disjoint");
            assert!(
                a + ea.size < b || ea.warm != eb.warm,
                "adjacent same-warmth extents are merged"
            );
        }
        assert!(p.extents.iter().all(|(&off, e)| off + e.size <= p.bump_off));
    }

    #[test]
    fn adjacent_extents_coalesce_in_any_order() {
        let mut p = pool(16);
        let chunk = 260 * KB; // 256 KiB payload + header page
        let [c1, c2, c3, _above] = [(); 4].map(|()| p.alloc(256 * KB, PAGE).unwrap());
        // Trim chunk 1, then 3, then the one between them.
        for (c, extents_after) in [(c1, 1), (c3, 2), (c2, 1)] {
            // SAFETY: each chunk is live and freed once.
            unsafe { p.free(c) };
            p.management_round(0, 0, 0, 256 * KB);
            assert_eq!(p.extents.len(), extents_after);
            assert_extents_consistent(&p);
        }
        let (&off, first) = p.extents.first_key_value().unwrap();
        assert_eq!((off, first.size), (0, 3 * chunk));
        assert_eq!(
            p.bump_off,
            4 * chunk,
            "the live top chunk pins the frontier"
        );
        // The merged extent serves a request none of the three could.
        let big = p.alloc(600 * KB, PAGE).unwrap();
        assert_eq!(p.bump_off, 4 * chunk, "served from the merged extent");
        assert_extents_consistent(&p);
        // SAFETY: big live.
        unsafe { p.free(big) };
    }

    #[test]
    fn trimmed_top_chunk_returns_to_the_frontier() {
        let mut p = pool(16);
        let below = p.alloc(256 * KB, PAGE).unwrap();
        let top = p.alloc(512 * KB, PAGE).unwrap();
        // SAFETY: top live.
        unsafe { p.free(top) };
        p.management_round(0, 0, 0, 256 * KB);
        assert_extents_consistent(&p);
        // Decommitted and touching the frontier: un-bumped, not listed.
        assert_eq!(p.bump_off, 260 * KB);
        assert_eq!(p.stats().extent_bytes, 0);
        // Freeing the chunk below cascades: the whole arena is fresh.
        // SAFETY: below live.
        unsafe { p.free(below) };
        p.management_round(0, 0, 0, 256 * KB);
        assert_eq!(p.bump_off, 0);
        assert!(p.extents.is_empty());
        assert_eq!(p.stats().committed, 0);
    }

    #[test]
    fn warm_extents_neither_merge_with_cold_nor_rejoin_the_frontier() {
        const MB: usize = 1 << 20;
        let mut p = pool(16);
        // Four 1 MiB chunks' worth of carved space; the second and the
        // top one already sit in the list as warm (refused-decommit)
        // extents.
        p.bump_off = 4 * MB;
        for off in [MB, 3 * MB] {
            p.extents.insert(
                off,
                Extent {
                    size: MB,
                    warm: true,
                },
            );
            p.stats.extent_bytes += MB;
        }
        // The first and third sit in the pool; a round trims both.
        for off in [0, 2 * MB] {
            p.pool.insert(MmapChunk {
                id: off as u64,
                size: MB,
            });
        }
        p.management_round(0, 0, 0, 256 * KB);
        assert_extents_consistent(&p);
        // Warm space is never un-bumped: the bump path would book it as
        // committed a second time.
        assert_eq!(p.bump_off, 4 * MB);
        assert_eq!(p.stats().extent_bytes, 4 * MB);
        // The trimmed extents were decommitted (cold): each keeps its own
        // entry between the warm ones.
        let warmth: Vec<bool> = p.extents.values().map(|e| e.warm).collect();
        assert_eq!(warmth, [false, true, false, true]);
    }

    #[test]
    fn high_alignment_honoured() {
        let mut p = pool(16);
        let a = p.alloc(256 * KB, 64 * KB).unwrap();
        assert_eq!(a.as_ptr() as usize % (64 * KB), 0);
        // SAFETY: fresh allocation.
        unsafe {
            std::ptr::write_bytes(a.as_ptr(), 1, 256 * KB);
            p.free(a);
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut p = pool(1);
        assert!(p.alloc(16 << 20, PAGE).is_none());
        // Smaller request still succeeds.
        let a = p.alloc(256 * KB, PAGE);
        assert!(a.is_some());
    }

    #[test]
    fn trim_decommits_and_reuse_is_cold() {
        let mut p = pool(16);
        let a = p.alloc(512 * KB, PAGE).unwrap();
        // SAFETY: fresh allocation.
        unsafe {
            std::ptr::write_bytes(a.as_ptr(), 0xEE, 512 * KB);
            p.free(a);
        }
        let committed_before = p.stats().committed;
        assert!(committed_before > 0);
        // Trim everything into extents: the pages go back to the kernel
        // and the committed gauge drops below reserved.
        p.management_round(0, 0, 0, 256 * KB);
        let s = p.stats();
        assert!(s.decommitted > 0, "trim performed a real decommit");
        assert!(s.committed < committed_before);
        assert!(s.committed < s.backing_reserved);
        // Decommit-then-reuse round trip: the cold extent serves a new
        // allocation, zero-filled, and the faults are accounted.
        let cold_before = p.stats().cold_allocs;
        let b = p.alloc(256 * KB, PAGE).unwrap();
        // SAFETY: fresh allocation.
        unsafe {
            assert_eq!(*b.as_ptr(), 0, "decommitted pages read back zero");
            std::ptr::write_bytes(b.as_ptr(), 0x31, 256 * KB);
            assert_eq!(*b.as_ptr(), 0x31);
            p.free(b);
        }
        assert!(p.stats().cold_allocs > cold_before, "cold reuse counted");
    }

    #[test]
    fn bump_grows_into_mapped_reservation() {
        let mut p = LargePool::new(Arena::map(1 << 20, 16 << 20, false).unwrap(), THRESH, 8);
        // 4 MiB exceeds the 1 MiB initial capacity but fits the 16 MiB
        // reservation: served via Arena::grow, not refused.
        let a = p.alloc(4 << 20, PAGE).unwrap();
        // SAFETY: fresh allocation.
        unsafe {
            std::ptr::write_bytes(a.as_ptr(), 0x44, 4 << 20);
            p.free(a);
        }
        assert_eq!(p.stats().backing_reserved, 16 << 20);
        // Beyond the reservation still refuses.
        assert!(p.alloc(32 << 20, PAGE).is_none());
    }

    #[test]
    fn live_accounting_over_many_ops() {
        let mut p = pool(64);
        let mut live = Vec::new();
        for i in 0..40 {
            let sz = THRESH + (i % 5) * 64 * KB;
            live.push((p.alloc(sz, PAGE).unwrap(), sz));
        }
        assert_eq!(p.stats().live, 40);
        for (ptr, _) in live.drain(..) {
            // SAFETY: each pointer is live exactly once.
            unsafe { p.free(ptr) };
        }
        let s = p.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn freed_chunk_is_reused_by_its_own_size() {
        let mut p = pool(16);
        let a = p.alloc(200 * KB, PAGE).unwrap();
        let b = p.alloc(512 * KB, PAGE).unwrap();
        // A live chunk above keeps both off the bump frontier.
        let above = p.alloc(256 * KB, PAGE).unwrap();
        // SAFETY: a and b live, freed once.
        unsafe {
            p.free(a);
            p.free(b);
        }
        // Equation 1 alone starts at the next bucket up and hands out b's
        // 516 KiB chunk, leaving a tail to shrink.
        let c = p.alloc(200 * KB, PAGE).unwrap();
        assert_eq!(c, a, "a's 204 KiB chunk serves the same size again");
        assert_eq!(p.shrink_pending(), 0);
        // SAFETY: c and above live, freed once.
        unsafe {
            p.free(c);
            p.free(above);
        }
    }

    /// Chunk range `[start, end)` of a block handed out by `alloc` with
    /// page alignment: the header page, then the payload.
    fn block_range(p: &LargePool, ptr: NonNull<u8>, size: usize) -> (usize, usize) {
        let off = ptr.as_ptr() as usize - p.arena.base().as_ptr() as usize;
        (off - PAGE, off + size)
    }

    fn ranges(d: &Detached) -> Vec<(usize, usize)> {
        d.ranges[..d.len]
            .iter()
            .map(|r| (r.off, r.off + r.size))
            .collect()
    }

    #[test]
    fn detached_ranges_stay_out_of_reach_until_published() {
        let mut p = pool(32);
        // Two over-sized hand-outs pending shrink, two freed chunks for
        // the trim, and a live chunk on top that pins the frontier.
        assert!(p.reserve_chunk(520 * KB));
        assert!(p.reserve_chunk(520 * KB));
        let shrunk = [(); 2].map(|()| p.alloc(200 * KB, PAGE).unwrap());
        let [c, d, top] = [300 * KB, 400 * KB, 256 * KB].map(|s| p.alloc(s, PAGE).unwrap());
        // SAFETY: c and d live, freed once.
        unsafe {
            p.free(c);
            p.free(d);
        }
        assert_eq!(p.shrink_pending(), 2);
        let (committed, decommitted) = (p.stats().committed, p.stats().decommitted);

        let mut detached = Detached::new();
        p.detach(&mut detached, 0, 0, 0, 256 * KB);
        let taken = ranges(&detached);
        assert_eq!(taken.len(), 4, "two tails and two trimmed chunks");
        let bytes: usize = taken.iter().map(|(s, e)| e - s).sum();
        assert_eq!(bytes, 2 * 316 * KB + 304 * KB + 404 * KB);
        let listed = p
            .pool
            .iter()
            .map(|c| (c.id as usize, c.size))
            .chain(p.extents.iter().map(|(&off, e)| (off, e.size)));
        for (off, size) in listed {
            assert!(
                taken.iter().all(|&(s, e)| off + size <= s || e <= off),
                "[{off}, +{size}) is listed and detached"
            );
        }
        assert_eq!(p.stats().committed, committed);
        // SAFETY: p filled `detached` and has not published it.
        unsafe { detached.decommit() };
        assert_eq!(p.stats().committed, committed);

        // Requests of the trimmed chunks' sizes, made while the ranges are
        // in flight, are carved elsewhere.
        let between: Vec<_> = [300 * KB, 400 * KB, 200 * KB, 600 * KB]
            .into_iter()
            .map(|s| (p.alloc(s, PAGE).unwrap(), s))
            .collect();
        for &(ptr, size) in &between {
            let (start, end) = block_range(&p, ptr, size);
            assert!(taken.iter().all(|&(s, e)| end <= s || e <= start));
        }
        let committed = p.stats().committed;
        assert_eq!(p.publish(&detached), bytes);
        assert_extents_consistent(&p);
        let s = p.stats();
        assert_eq!(s.decommitted, decommitted + bytes as u64);
        assert_eq!(s.committed, committed - bytes);
        for (ptr, _) in between.into_iter().chain(shrunk.map(|b| (b, 0))) {
            // SAFETY: each block is live and freed once.
            unsafe { p.free(ptr) };
        }
        // SAFETY: top live, freed once.
        unsafe { p.free(top) };
    }

    #[test]
    fn a_refused_decommit_publishes_warm() {
        let mut p = pool(16);
        let a = p.alloc(256 * KB, PAGE).unwrap();
        // A live chunk above keeps the extent off the bump frontier.
        let above = p.alloc(256 * KB, PAGE).unwrap();
        // SAFETY: a live, freed once.
        unsafe { p.free(a) };
        let committed = p.stats().committed;
        let mut detached = Detached::new();
        p.detach(&mut detached, 0, 0, 0, 256 * KB);
        // SAFETY: p filled `detached` and has not published it.
        unsafe { detached.decommit() };
        // Stand in for a kernel that refused the `madvise`.
        detached.ranges[0].cold = false;
        assert_eq!(p.publish(&detached), 0);
        assert_extents_consistent(&p);
        let s = p.stats();
        assert_eq!((s.committed, s.decommitted), (committed, 0));
        let warm: Vec<_> = p.extents.values().map(|e| (e.size, e.warm)).collect();
        assert_eq!(warm, [(260 * KB, true)]);
        // A warm extent is reused without re-touching.
        let b = p.alloc(256 * KB, PAGE).unwrap();
        assert_eq!(b, a);
        assert_eq!(p.stats().committed, committed);
        // SAFETY: b and above live, freed once.
        unsafe {
            p.free(b);
            p.free(above);
        }
    }

    #[test]
    fn a_full_detach_buffer_leaves_the_rest_for_the_next_round() {
        let mut p = pool(64);
        // One more shrink entry than the buffer holds, each a 4 KiB tail:
        // a 136 KiB chunk handed out for a 128 KiB request.
        let blocks: Vec<_> = (0..DETACH_CAP + 1)
            .map(|_| {
                assert!(p.reserve_chunk(136 * KB));
                p.alloc(128 * KB, PAGE).unwrap()
            })
            .collect();
        assert!(p.reserve_chunk(136 * KB), "one chunk for the trim");
        p.management_round(0, 0, 0, 128 * KB);
        assert_eq!(p.shrink_pending(), 1);
        assert_eq!(p.pool_total(), 136 * KB, "no room left for the trim");
        p.management_round(0, 0, 0, 128 * KB);
        assert_eq!(p.shrink_pending(), 0);
        assert_eq!(p.pool_total(), 0);
        assert_extents_consistent(&p);
        for b in blocks {
            // SAFETY: each block is live and freed once.
            unsafe { p.free(b) };
        }
    }
}
