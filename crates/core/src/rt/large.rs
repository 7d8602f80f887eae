//! The mmap-path allocator: page-granular large blocks (≥ 128 KiB) carved
//! from one free map, with Algorithm 2's reserve (§3.2.2).
//!
//! Blocks are carved from a dedicated arena. Every free page range below
//! the bump frontier sits in one address-ordered map, marked *warm* (its
//! pages are resident: a freed block, or space a round reserved and
//! pre-touched) or *cold* (its pages were returned to the kernel).
//! Same-warmth neighbours always coalesce, and every block is carved to
//! exactly its size, so no hand-out is over-sized and nothing waits for a
//! delayed shrink: cutting a free range costs no syscall. A request takes,
//! in order:
//!
//! 1. the best-fitting warm range, cut from the front: no page touched;
//! 2. else one of the `GROW_CANDIDATES` largest warm ranges, grown into
//!    its cold neighbour or the bump frontier, right or left; only the
//!    cold part is touched. This stands in for the paper's `mremap`
//!    Expand, which would run into the next block of the reservation;
//! 3. else the best-fitting cold range or a bump carve, touched whole.
//!
//! The warm bytes are Algorithm 2's pool: a management round reserves
//! pre-touched warm space while they are below `RSV_THR` and trims them
//! while they are above the trim threshold it is given. The runtime's
//! manager passes the peak `TRIM_THR` of the last
//! [`TRIM_WINDOW_ROUNDS`](crate::policy::TRIM_WINDOW_ROUNDS) rounds, not
//! the last interval's, so warm ranges a churning store reuses are not
//! decommitted at its first quiet round. A round takes the trimmed ranges
//! out of the map (`LargePool::detach`), returns their pages to the
//! kernel (`madvise(DONTNEED)`) with no lock held (`Detached::decommit`),
//! and only then lists them cold (`LargePool::publish`), so reuse
//! honestly pays (and counts) the mapping-construction faults again. A
//! cold range that reaches the bump frontier is handed back to it:
//! untouched address space either way. See DESIGN.md §2.
//!
//! Under the `#[global_allocator]` the map is edited with the shard's
//! `large` lock held, so no edit may allocate on the large path. The map
//! and its two size indices are B-trees: an edit allocates at most one
//! node of a few hundred bytes, which the small path serves, however long
//! the map grows, and a round's detached ranges sit in a
//! fixed-capacity buffer filled before the lock is taken (DESIGN.md §4,
//! *Re-entrancy*).

use super::arena::{Arena, PAGE};
use super::error::{IntegrityError, IntegrityViolation};
use crate::platform::platform;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ptr::NonNull;

const MAGIC: u64 = 0x4845_524d_4553_u64; // "HERMES"
/// Replaces [`MAGIC`] when a block is freed, so a second free of it
/// aborts instead of listing its range twice.
const FREED: u64 = 0x0046_5245_4544_u64; // "FREED"

/// Warm ranges, largest first, that a request no warm range fits tries
/// to grow into the cold space beside them.
const GROW_CANDIDATES: usize = 8;

/// Most ranges one management round detaches. A round that fills the
/// buffer leaves its trim unfinished for the next round.
const DETACH_CAP: usize = 256;

/// A page range taken out of the pool's map, and whether the kernel took
/// its pages back.
#[derive(Debug, Clone, Copy, Default)]
struct Range {
    off: usize,
    size: usize,
    cold: bool,
}

/// One management round's ranges on their way back to the kernel: the map
/// does not hold them and no block lives in them, so no allocation can
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
            // live data: it is trimmed warm space that the map no longer
            // holds, so nothing can be handed out from it meanwhile.
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
    /// Warm free bytes: listed ranges whose pages are resident, ready
    /// to serve a request with no fault (Algorithm 2's memory pool).
    pub pool_bytes: usize,
    /// Live large allocations.
    pub live: usize,
    /// Bytes in live large allocations (chunk sizes).
    pub live_bytes: usize,
    /// Allocations that touched no page.
    pub pool_hits: u64,
    /// Allocations that touched at least one page.
    pub cold_allocs: u64,
    /// Pages allocations touched (a round's pre-touch is not counted).
    pub demand_touched_pages: u64,
    /// Cold free bytes: listed ranges whose pages were returned to the
    /// kernel (space handed back to the bump frontier is not counted).
    pub extent_bytes: usize,
    /// Total reserved address range of the backing arena.
    pub backing_reserved: usize,
    /// Bytes currently committed (touched and not decommitted) by this
    /// pool — the physical footprint the large path holds.
    pub committed: usize,
    /// Bytes returned to the kernel (`madvise(DONTNEED)`) by trim,
    /// cumulative.
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

/// A free page range (its offset is its key in [`LargePool::free`]).
/// `warm` records whether its pages are still resident: a cold range
/// hands out decommitted memory, so reuse must re-touch it and account
/// the faults.
#[derive(Debug, Clone, Copy)]
struct Extent {
    size: usize,
    warm: bool,
}

/// The large-block allocator.
pub struct LargePool {
    arena: Arena,
    /// Carve frontier: every byte below it is in a live block, a listed
    /// range, or a range in flight.
    bump_off: usize,
    /// Free ranges by offset, page-granular, with no two same-warmth
    /// neighbours adjacent.
    free: BTreeMap<usize, Extent>,
    /// `(size, offset)` of every warm range in `free`: the best-fit index.
    warm: BTreeSet<(usize, usize)>,
    /// `(size, offset)` of every cold range in `free`.
    cold: BTreeSet<(usize, usize)>,
    /// Sum of the warm ranges' sizes (`stats.extent_bytes` is the cold
    /// sum).
    warm_bytes: usize,
    /// Bytes a round detached and has not published yet.
    in_flight: usize,
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
            .field("warm_ranges", &self.warm.len())
            .field("cold_ranges", &self.cold.len())
            .field("in_flight", &self.in_flight)
            .field("stats", &self.stats())
            .finish()
    }
}

fn round_up(v: usize, q: usize) -> usize {
    v.div_ceil(q) * q
}

/// Where a warm range grows to serve a request it is too small for.
#[derive(Clone, Copy)]
enum Growth {
    /// Up past the bump frontier, which it touches.
    Frontier,
    /// Into the front of its cold successor.
    Right,
    /// Into the back of its cold predecessor, at this offset.
    Left(usize),
}

impl LargePool {
    /// Creates a pool over `arena` with the given mmap threshold. The
    /// third parameter, the segregated-table size, is ignored: the map
    /// needs no size-class table (the simulated allocator keeps Equation
    /// 1's). It stays because the repo benchmark constructs pools with
    /// it.
    pub fn new(arena: Arena, min_mmap: usize, _table_size: usize) -> Self {
        LargePool {
            arena,
            bump_off: 0,
            free: BTreeMap::new(),
            warm: BTreeSet::new(),
            cold: BTreeSet::new(),
            warm_bytes: 0,
            in_flight: 0,
            committed: 0,
            stats: LargeStats::default(),
            min_mmap,
        }
    }

    /// Stats snapshot.
    pub fn stats(&self) -> LargeStats {
        LargeStats {
            pool_bytes: self.warm_bytes,
            backing_reserved: self.arena.reserved(),
            committed: self.committed,
            ..self.stats
        }
    }

    /// Warm free bytes (`memory_pool.total_size`).
    pub fn pool_total(&self) -> usize {
        self.warm_bytes
    }

    /// Allocations that touched at least one page, cumulative
    /// ([`LargeStats::cold_allocs`] without the snapshot).
    pub fn cold_allocs(&self) -> u64 {
        self.stats.cold_allocs
    }

    /// `true` if `ptr` belongs to this pool's arena.
    pub fn contains(&self, ptr: *const u8) -> bool {
        self.arena.contains(ptr)
    }

    fn gauge(&mut self, warm: bool) -> &mut usize {
        if warm {
            &mut self.warm_bytes
        } else {
            &mut self.stats.extent_bytes
        }
    }

    fn index(&self, warm: bool) -> &BTreeSet<(usize, usize)> {
        if warm {
            &self.warm
        } else {
            &self.cold
        }
    }

    fn index_mut(&mut self, warm: bool) -> &mut BTreeSet<(usize, usize)> {
        if warm {
            &mut self.warm
        } else {
            &mut self.cold
        }
    }

    /// Lists `[off, off+size)` as one range, merging nothing.
    fn insert(&mut self, off: usize, size: usize, warm: bool) {
        self.free.insert(off, Extent { size, warm });
        self.index_mut(warm).insert((size, off));
        *self.gauge(warm) += size;
    }

    /// Unlists the range at `off`, which must be listed.
    fn remove(&mut self, off: usize) -> Extent {
        let e = self.free.remove(&off).expect("a listed range");
        self.index_mut(e.warm).remove(&(e.size, off));
        *self.gauge(e.warm) -= e.size;
        e
    }

    /// Lists `[off, off+size)`, coalesced with its same-warmth
    /// neighbours. A cold range that then ends at the frontier is
    /// untouched address space again: it un-bumps the frontier instead.
    /// (A warm one stays listed — a bump carve books every byte as newly
    /// committed.)
    fn list(&mut self, off: usize, size: usize, warm: bool) {
        let (mut off, mut size) = (off, size);
        if self.free.get(&(off + size)).is_some_and(|e| e.warm == warm) {
            size += self.remove(off + size).size;
        }
        let prev = self.free.range(..off).next_back().map(|(&p, &e)| (p, e));
        if let Some((p, e)) = prev.filter(|&(p, e)| e.warm == warm && p + e.size == off) {
            self.remove(p);
            size += e.size;
            off = p;
        }
        if !warm && off + size == self.bump_off {
            self.bump_off = off;
        } else {
            self.insert(off, size, warm);
        }
    }

    /// Cuts `need` bytes from the front of the listed range at `off` and
    /// lists the rest with the same warmth. Returns `off`.
    fn cut_front(&mut self, off: usize, need: usize) -> usize {
        let e = self.remove(off);
        if e.size > need {
            self.insert(off + need, e.size - need, e.warm);
        }
        off
    }

    /// Exposes the arena up to `end`, growing a mapped arena in
    /// multi-megabyte steps to amortise the platform calls. `false` when
    /// the reservation cannot reach.
    fn reach(&mut self, end: usize) -> bool {
        const GROW_CHUNK: usize = 16 << 20;
        let cap = self.arena.capacity();
        if end <= cap {
            return true;
        }
        let avail = self.arena.reserved() - cap;
        if end - cap > avail {
            return false;
        }
        let extra = round_up(end - cap, PAGE).max(GROW_CHUNK).min(avail);
        self.arena.grow(extra).is_ok()
    }

    /// Takes `need` bytes of cold space: the best-fitting cold range, cut
    /// from the front, else fresh pages at the bump frontier.
    fn carve_cold(&mut self, need: usize) -> Option<usize> {
        if let Some(&(_, off)) = self.cold.range((need, 0)..).next() {
            return Some(self.cut_front(off, need));
        }
        if !self.reach(self.bump_off + need) {
            return None;
        }
        let off = self.bump_off;
        self.bump_off += need;
        Some(off)
    }

    /// Where the warm range `[off, off+size)` can grow by `extra` bytes
    /// of cold space: past the frontier or into its cold successor, else
    /// into its cold predecessor. A range in flight is in no list and is
    /// not the frontier, so no warm range grows into it.
    fn growth(&self, off: usize, size: usize, extra: usize) -> Option<Growth> {
        let end = off + size;
        if end == self.bump_off {
            if end + extra <= self.arena.reserved() {
                return Some(Growth::Frontier);
            }
        } else if self
            .free
            .get(&end)
            .is_some_and(|e| !e.warm && e.size >= extra)
        {
            return Some(Growth::Right);
        }
        let (&p, e) = self.free.range(..off).next_back()?;
        (!e.warm && p + e.size == off && e.size >= extra).then_some(Growth::Left(p))
    }

    /// Grows one of the [`GROW_CANDIDATES`] largest warm ranges, all
    /// smaller than `need`, by the cold space it lacks. Returns the
    /// block's offset and the cold part `(offset, len)` to touch.
    fn grow_warm(&mut self, need: usize) -> Option<(usize, usize, usize)> {
        let (off, size, growth) = self
            .warm
            .iter()
            .rev()
            .take(GROW_CANDIDATES)
            .find_map(|&(size, off)| Some((off, size, self.growth(off, size, need - size)?)))?;
        let (extra, end) = (need - size, off + size);
        if matches!(growth, Growth::Frontier) && !self.reach(end + extra) {
            return None;
        }
        self.remove(off);
        match growth {
            Growth::Frontier => {
                self.bump_off += extra;
                Some((off, end, extra))
            }
            Growth::Right => {
                self.cut_front(end, extra);
                Some((off, end, extra))
            }
            Growth::Left(p) => {
                let e = self.remove(p);
                if e.size > extra {
                    self.insert(p, e.size - extra, false);
                }
                Some((off - extra, off - extra, extra))
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
        // within the chunk, whose pages are all touched by now.
        unsafe {
            (self.arena.at(payload_off - PAGE) as *mut LargeHeader).write(hdr);
        }
    }

    /// Allocates `size` bytes aligned to `align` (page-aligned payloads;
    /// larger powers of two honoured by padding).
    pub fn alloc(&mut self, size: usize, align: usize) -> Option<NonNull<u8>> {
        let pad = if align > PAGE { align } else { 0 };
        let need = round_up(size + PAGE + pad, PAGE);
        let warm = self.warm.range((need, 0)..).next().copied();
        let (chunk_off, touch_off, touch_len) = match warm {
            Some((_, off)) => {
                self.cut_front(off, need);
                (off, off, 0)
            }
            None => match self.grow_warm(need) {
                Some(grown) => grown,
                None => {
                    let off = self.carve_cold(need)?;
                    (off, off, need)
                }
            },
        };
        if touch_len == 0 {
            self.stats.pool_hits += 1;
        } else {
            self.stats.cold_allocs += 1;
            self.stats.demand_touched_pages += (touch_len / PAGE) as u64;
            self.arena.touch(touch_off, touch_len);
            self.committed += touch_len;
        }
        let base = self.arena.base().as_ptr() as usize;
        let payload_off = if pad == 0 {
            chunk_off + PAGE
        } else {
            round_up(base + chunk_off + PAGE, align) - base
        };
        self.write_header(payload_off, chunk_off, need);
        self.stats.live += 1;
        self.stats.live_bytes += need;
        // SAFETY: payload_off is within the chunk, which is within the
        // arena, and at least `size` bytes remain after it.
        Some(unsafe { NonNull::new_unchecked(self.arena.at(payload_off)) })
    }

    /// Frees the allocation at `ptr`; its chunk is listed warm, merged
    /// with its warm neighbours, for reuse by future requests or the trim
    /// pass. Returns the size of that chunk.
    ///
    /// # Safety
    ///
    /// `ptr` must have been returned by [`LargePool::alloc`] and not freed
    /// since. A second free is caught, and aborts, until the chunk's
    /// header page is trimmed or handed out again.
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
        let size = hdr.chunk_size as usize;
        self.stats.live -= 1;
        self.stats.live_bytes -= size;
        self.list(hdr.chunk_off as usize, size, true);
        size
    }

    /// Management round, mmap side (Algorithm 2), for a pool its caller
    /// owns outright: detach, decommit and publish back to back, trimming
    /// against `trim_thr` as given. The runtime's manager runs the same
    /// three steps itself, with the shard lock dropped around the
    /// decommit, and trims against a windowed peak of `TRIM_THR`.
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
    /// before its page operations: reserves pre-touched warm space up to
    /// `tgt_mem` in `mem_chunk`-sized steps when the warm bytes are below
    /// `rsv_thr`, and trims them while they are above `trim_thr`,
    /// smallest warm range first, cutting only the excess off a range
    /// bigger than it. The trimmed ranges go into `out`, unlisted and
    /// still committed.
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
        let mut reserved = 0;
        if self.warm_bytes < rsv_thr {
            // `mem_chunk` is a request size; `alloc` adds the header page,
            // so a step without it would never serve a mean-sized request.
            let step = round_up(mem_chunk.max(self.min_mmap), PAGE) + PAGE;
            while self.warm_bytes < tgt_mem {
                if !self.reserve_chunk(step) {
                    break;
                }
                reserved += 1;
            }
        }
        while self.warm_bytes > trim_thr && !out.is_full() {
            let Some(&(size, off)) = self.warm.first() else {
                break;
            };
            // Cut the range's top, so a trimmed top range reaches the
            // frontier and the bottom stays warm.
            let cut = round_up(self.warm_bytes - trim_thr, PAGE).min(size);
            self.remove(off);
            if cut < size {
                self.insert(off, size - cut, true);
            }
            out.push(off + size - cut, cut);
            self.in_flight += cut;
        }
        reserved
    }

    /// The part of a management round that runs under the shard lock
    /// after its page operations: lists each of `done`'s ranges cold, or
    /// warm where the kernel refused the decommit, and books the bytes
    /// returned. Returns those bytes.
    pub(crate) fn publish(&mut self, done: &Detached) -> usize {
        let mut freed = 0;
        for r in &done.ranges[..done.len] {
            if r.cold {
                freed += r.size;
            }
            self.in_flight -= r.size;
            self.list(r.off, r.size, !r.cold);
        }
        self.committed = self.committed.saturating_sub(freed);
        self.stats.decommitted += freed as u64;
        freed
    }

    /// Carves `bytes` (rounded up to pages) from cold space, pre-touches
    /// them and lists them warm, so consecutive reservations coalesce.
    /// Returns `false` when the arena is exhausted.
    pub fn reserve_chunk(&mut self, bytes: usize) -> bool {
        let need = round_up(bytes, PAGE);
        let Some(off) = self.carve_cold(need) else {
            return false;
        };
        self.arena.touch(off, need);
        self.committed += need;
        self.list(off, need, true);
        true
    }

    /// Always 0: no hand-out is over-sized, so there is nothing to
    /// shrink. Kept because the repo benchmark calls it.
    pub fn process_delayed_shrink(&mut self) -> usize {
        0
    }

    /// Always 0, for the same reason as
    /// [`LargePool::process_delayed_shrink`].
    pub fn shrink_pending(&self) -> usize {
        0
    }

    /// Walks the free map verifying its invariants: ranges ordered,
    /// disjoint, page-granular and below the frontier, no two
    /// same-warmth neighbours unmerged, no cold range at the frontier,
    /// both size indices equal to the map, both gauges equal to their
    /// sums, and every byte below the frontier accounted for as live,
    /// listed or in flight.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_integrity(&self) -> Result<(), IntegrityError> {
        use IntegrityViolation as V;
        let mut listed = [0usize; 2]; // [cold, warm]
        let mut counts = [0usize; 2];
        let mut prev: Option<(usize, Extent)> = None;
        for (&off, &e) in &self.free {
            if e.size == 0 || off % PAGE != 0 || e.size % PAGE != 0 || off + e.size > self.bump_off
            {
                return Err(V::BadLargeRange { off, size: e.size }.into());
            }
            if let Some((p, pe)) = prev {
                if p + pe.size > off {
                    return Err(V::LargeRangesOverlap { prev_off: p, off }.into());
                }
                if p + pe.size == off && pe.warm == e.warm {
                    return Err(V::LargeRangesUnmerged { prev_off: p, off }.into());
                }
            }
            if !self.index(e.warm).contains(&(e.size, off)) {
                return Err(V::LargeIndexMismatch { warm: e.warm }.into());
            }
            listed[e.warm as usize] += e.size;
            counts[e.warm as usize] += 1;
            prev = Some((off, e));
        }
        if let Some((off, e)) = prev.filter(|(off, e)| !e.warm && off + e.size == self.bump_off) {
            return Err(V::ColdRangeAtFrontier { off, size: e.size }.into());
        }
        for warm in [false, true] {
            if self.index(warm).len() != counts[warm as usize] {
                return Err(V::LargeIndexMismatch { warm }.into());
            }
            let gauge = if warm {
                self.warm_bytes
            } else {
                self.stats.extent_bytes
            };
            if gauge != listed[warm as usize] {
                return Err(V::LargeGaugeMismatch {
                    warm,
                    gauge,
                    listed: listed[warm as usize],
                }
                .into());
            }
        }
        let accounted = self.stats.live_bytes + listed[0] + listed[1] + self.in_flight;
        if accounted != self.bump_off {
            return Err(V::LargeBytesUnbalanced {
                accounted,
                frontier: self.bump_off,
            }
            .into());
        }
        Ok(())
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

    /// `(offset, size, warm)` of every listed range, in address order.
    fn listed(p: &LargePool) -> Vec<(usize, usize, bool)> {
        p.free
            .iter()
            .map(|(&off, e)| (off, e.size, e.warm))
            .collect()
    }

    /// Chunk offset of a block handed out with page alignment: its header
    /// page comes first.
    fn chunk_off(p: &LargePool, ptr: NonNull<u8>) -> usize {
        ptr.as_ptr() as usize - p.arena.base().as_ptr() as usize - PAGE
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
        p.check_integrity().unwrap();
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
    fn exact_split_leaves_the_remainder_warm_and_listed() {
        let mut p = pool(16);
        assert!(p.reserve_chunk(1024 * KB));
        let a = p.alloc(256 * KB, PAGE).unwrap();
        let s = p.stats();
        assert_eq!((s.pool_hits, s.cold_allocs), (1, 0));
        assert_eq!(s.live_bytes, 260 * KB, "exactly the request and its header");
        assert_eq!(listed(&p), [(260 * KB, 764 * KB, true)]);
        assert_eq!(p.pool_total(), 764 * KB);
        p.check_integrity().unwrap();
        // SAFETY: a live.
        unsafe { p.free(a) };
        assert_eq!(listed(&p), [(0, 1024 * KB, true)], "and it merges back");
    }

    #[test]
    fn management_round_reserves_to_target() {
        let mut p = pool(64);
        let reserved = p.management_round(1 << 20, 2 << 20, 8 << 20, 256 * KB);
        assert!(reserved >= 8, "reserved {reserved} chunks");
        assert!(p.pool_total() >= 2 << 20);
        assert_eq!(listed(&p).len(), 1, "consecutive steps coalesce");
        // A second round with a one-chunk trim threshold releases the
        // rest (each chunk is 256 KiB plus its header page).
        p.management_round(0, 0, 256 * KB + PAGE, 256 * KB);
        assert!(p.pool_total() <= 256 * KB + PAGE);
        assert!(p.stats().decommitted > 0);
        p.check_integrity().unwrap();
    }

    #[test]
    fn reserved_chunk_serves_a_mean_sized_request() {
        let mut p = pool(16);
        assert_eq!(p.management_round(1, 1, usize::MAX, 256 * KB), 1);
        let a = p.alloc(256 * KB, PAGE).unwrap();
        let s = p.stats();
        assert_eq!((s.pool_hits, s.cold_allocs), (1, 0), "header page included");
        assert_eq!(p.pool_total(), 0, "an exact fit");
        // SAFETY: a live.
        unsafe { p.free(a) };
    }

    #[test]
    fn extents_are_recycled_before_bumping() {
        let mut p = pool(16);
        let a = p.alloc(512 * KB, PAGE).unwrap();
        // A live chunk above keeps the range off the bump frontier.
        let _above = p.alloc(512 * KB, PAGE).unwrap();
        // SAFETY: a live.
        unsafe { p.free(a) };
        // Trim everything: a's range is listed cold.
        p.management_round(0, 0, 0, 256 * KB);
        let bump_before = p.bump_off;
        let b = p.alloc(256 * KB, PAGE).unwrap();
        assert_eq!(p.bump_off, bump_before, "served from the cold range");
        p.check_integrity().unwrap();
        assert_eq!(p.stats().extent_bytes, 256 * KB);
        // SAFETY: b live.
        unsafe { p.free(b) };
    }

    #[test]
    fn adjacent_extents_coalesce_in_any_order() {
        let mut p = pool(16);
        let chunk = 260 * KB; // 256 KiB payload + header page
        let [c1, c2, c3, _above] = [(); 4].map(|()| p.alloc(256 * KB, PAGE).unwrap());
        // Trim chunk 1, then 3, then the one between them.
        for (c, ranges_after) in [(c1, 1), (c3, 2), (c2, 1)] {
            // SAFETY: each chunk is live and freed once.
            unsafe { p.free(c) };
            p.management_round(0, 0, 0, 256 * KB);
            assert_eq!(p.free.len(), ranges_after);
            p.check_integrity().unwrap();
        }
        assert_eq!(listed(&p), [(0, 3 * chunk, false)]);
        assert_eq!(
            p.bump_off,
            4 * chunk,
            "the live top chunk pins the frontier"
        );
        // The merged range serves a request none of the three could.
        let big = p.alloc(600 * KB, PAGE).unwrap();
        assert_eq!(p.bump_off, 4 * chunk, "served from the merged range");
        p.check_integrity().unwrap();
        // SAFETY: big live.
        unsafe { p.free(big) };
    }

    #[test]
    fn freed_neighbours_coalesce_and_serve_their_combined_size_untouched() {
        let mut p = pool(16);
        let chunk = 260 * KB;
        let [a, b, c, _above] = [(); 4].map(|()| p.alloc(256 * KB, PAGE).unwrap());
        // Freed out of address order: the middle one last.
        for x in [a, c, b] {
            // SAFETY: each block is live and freed once.
            unsafe { p.free(x) };
        }
        assert_eq!(listed(&p), [(0, 3 * chunk, true)]);
        p.check_integrity().unwrap();
        let s = p.stats();
        let big = p.alloc(3 * chunk - PAGE, PAGE).unwrap();
        let t = p.stats();
        assert_eq!(big, a);
        assert_eq!(t.pool_hits, s.pool_hits + 1);
        assert_eq!(t.demand_touched_pages, s.demand_touched_pages);
        assert_eq!(t.committed, s.committed);
        assert!(listed(&p).is_empty());
        // SAFETY: big live.
        unsafe { p.free(big) };
    }

    #[test]
    fn a_warm_range_grows_into_its_cold_successor_or_the_frontier() {
        let mut p = pool(16);
        let w = p.alloc(256 * KB, PAGE).unwrap(); // [0, 260K)
        let c = p.alloc(512 * KB, PAGE).unwrap(); // [260K, 776K)
        let top = p.alloc(256 * KB, PAGE).unwrap(); // [776K, 1036K)
                                                    // SAFETY: c live, freed once.
        unsafe { p.free(c) };
        p.management_round(0, 0, 0, 256 * KB);
        // SAFETY: w live, freed once.
        unsafe { p.free(w) };
        assert_eq!(
            listed(&p),
            [(0, 260 * KB, true), (260 * KB, 516 * KB, false)]
        );
        // 604 KiB: no warm range fits, so the warm one grows rightwards.
        let s = p.stats();
        let g = p.alloc(600 * KB, PAGE).unwrap();
        let t = p.stats();
        assert_eq!(g, w, "grown in place");
        assert_eq!(t.cold_allocs, s.cold_allocs + 1);
        assert_eq!(
            t.demand_touched_pages - s.demand_touched_pages,
            (344 * KB / PAGE) as u64,
            "only the cold part is touched"
        );
        assert_eq!(t.committed - s.committed, 344 * KB);
        assert_eq!(listed(&p), [(604 * KB, 172 * KB, false)]);
        p.check_integrity().unwrap();

        // The top block, freed, is warm at the frontier: a request it is
        // too small for grows it past the frontier.
        // SAFETY: top live, freed once.
        unsafe { p.free(top) };
        let s = p.stats();
        let h = p.alloc(400 * KB, PAGE).unwrap();
        let t = p.stats();
        assert_eq!(chunk_off(&p, h), 776 * KB);
        assert_eq!(p.bump_off, 776 * KB + 404 * KB);
        assert_eq!(t.committed - s.committed, 144 * KB);
        p.check_integrity().unwrap();
        // SAFETY: g and h live, freed once.
        unsafe {
            p.free(g);
            p.free(h);
        }
        p.check_integrity().unwrap();
    }

    #[test]
    fn a_warm_range_grows_into_its_cold_predecessor() {
        let mut p = pool(16);
        let c = p.alloc(512 * KB, PAGE).unwrap(); // [0, 516K)
        let w = p.alloc(256 * KB, PAGE).unwrap(); // [516K, 776K)
        let above = p.alloc(256 * KB, PAGE).unwrap();
        // SAFETY: c live, freed once.
        unsafe { p.free(c) };
        p.management_round(0, 0, 0, 256 * KB);
        // SAFETY: w live, freed once.
        unsafe { p.free(w) };
        let s = p.stats();
        let g = p.alloc(600 * KB, PAGE).unwrap();
        let t = p.stats();
        // The live block above blocks the right side; 344 KiB come off
        // the cold range's top.
        assert_eq!(chunk_off(&p, g), 172 * KB);
        assert_eq!(
            t.demand_touched_pages - s.demand_touched_pages,
            (344 * KB / PAGE) as u64
        );
        assert_eq!(t.committed - s.committed, 344 * KB);
        assert_eq!(listed(&p), [(0, 172 * KB, false)]);
        p.check_integrity().unwrap();
        // SAFETY: g and above live, freed once.
        unsafe {
            p.free(g);
            p.free(above);
        }
    }

    #[test]
    fn trim_cuts_only_the_excess_smallest_range_first() {
        let mut p = pool(16);
        let a = p.alloc(256 * KB, PAGE).unwrap(); // [0, 260K)
        let b = p.alloc(128 * KB, PAGE).unwrap(); // [260K, 392K)
        assert!(p.reserve_chunk(1024 * KB)); // [392K, 1416K)
                                             // SAFETY: a live, freed once.
        unsafe { p.free(a) };
        // 1 284 KiB warm against 600 KiB: the 260 KiB range goes whole,
        // then 424 KiB off the top of the reserved one.
        p.management_round(0, 0, 600 * KB, 256 * KB);
        assert_eq!(p.pool_total(), 600 * KB);
        assert_eq!(
            listed(&p),
            [(0, 260 * KB, false), (392 * KB, 600 * KB, true)]
        );
        assert_eq!(
            p.bump_off,
            992 * KB,
            "the cut top went back to the frontier"
        );
        assert_eq!(p.stats().decommitted, (260 + 424) as u64 * KB as u64);
        p.check_integrity().unwrap();
        // SAFETY: b live, freed once.
        unsafe { p.free(b) };
    }

    #[test]
    fn a_warm_range_never_grows_into_an_in_flight_neighbour() {
        let mut p = pool(16);
        let w = p.alloc(256 * KB, PAGE).unwrap(); // [0, 260K)
        let c = p.alloc(512 * KB, PAGE).unwrap(); // [260K, 776K)
        let above = p.alloc(256 * KB, PAGE).unwrap(); // [776K, 1036K)
                                                      // SAFETY: c live, freed once.
        unsafe { p.free(c) };
        let mut detached = Detached::new();
        p.detach(&mut detached, 0, 0, 0, 256 * KB);
        // SAFETY: w live, freed once.
        unsafe { p.free(w) };
        assert_eq!(listed(&p), [(0, 260 * KB, true)], "c is in flight");
        p.check_integrity().unwrap();
        // Too big for the warm range, whose successor is in flight: a
        // fresh carve above everything.
        let g = p.alloc(600 * KB, PAGE).unwrap();
        assert_eq!(chunk_off(&p, g), 1036 * KB);
        // SAFETY: p filled `detached` and has not published it.
        unsafe { detached.decommit() };
        p.publish(&detached);
        assert_eq!(
            listed(&p),
            [(0, 260 * KB, true), (260 * KB, 516 * KB, false)]
        );
        p.check_integrity().unwrap();
        // SAFETY: g and above live, freed once.
        unsafe {
            p.free(g);
            p.free(above);
        }
        p.check_integrity().unwrap();
    }

    #[test]
    fn trimmed_top_chunk_returns_to_the_frontier() {
        let mut p = pool(16);
        let below = p.alloc(256 * KB, PAGE).unwrap();
        let top = p.alloc(512 * KB, PAGE).unwrap();
        // SAFETY: top live.
        unsafe { p.free(top) };
        p.management_round(0, 0, 0, 256 * KB);
        p.check_integrity().unwrap();
        // Decommitted and touching the frontier: un-bumped, not listed.
        assert_eq!(p.bump_off, 260 * KB);
        assert_eq!(p.stats().extent_bytes, 0);
        // Freeing the chunk below cascades: the whole arena is fresh.
        // SAFETY: below live.
        unsafe { p.free(below) };
        p.management_round(0, 0, 0, 256 * KB);
        assert_eq!(p.bump_off, 0);
        assert!(p.free.is_empty());
        assert_eq!(p.stats().committed, 0);
    }

    #[test]
    fn warm_extents_neither_merge_with_cold_nor_rejoin_the_frontier() {
        const MB: usize = 1 << 20;
        let mut p = pool(16);
        // Four 1 MiB chunks; the first and third are trimmed cold.
        let [a, b, c, d] = [(); 4].map(|()| p.alloc(MB - PAGE, PAGE).unwrap());
        // SAFETY: a and c live, freed once.
        unsafe {
            p.free(a);
            p.free(c);
        }
        p.management_round(0, 0, 0, 256 * KB);
        // SAFETY: b and d live, freed once.
        unsafe {
            p.free(b);
            p.free(d);
        }
        p.check_integrity().unwrap();
        // Warm space is never un-bumped: the bump path would book it as
        // committed a second time.
        assert_eq!(p.bump_off, 4 * MB);
        assert_eq!((p.stats().extent_bytes, p.pool_total()), (2 * MB, 2 * MB));
        // Each keeps its own entry between the others.
        let warmth: Vec<bool> = p.free.values().map(|e| e.warm).collect();
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
        p.check_integrity().unwrap();
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
        // A live chunk above keeps the trimmed range listed.
        let above = p.alloc(256 * KB, PAGE).unwrap();
        // SAFETY: fresh allocation.
        unsafe {
            std::ptr::write_bytes(a.as_ptr(), 0xEE, 512 * KB);
            p.free(a);
        }
        let committed_before = p.stats().committed;
        assert!(committed_before > 0);
        // Trim everything: the pages go back to the kernel and the
        // committed gauge drops below reserved.
        p.management_round(0, 0, 0, 256 * KB);
        let s = p.stats();
        assert!(s.decommitted > 0, "trim performed a real decommit");
        assert!(s.committed < committed_before);
        assert!(s.committed < s.backing_reserved);
        // Decommit-then-reuse round trip: the cold range serves a new
        // allocation, zero-filled, and the faults are accounted.
        let cold_before = p.stats().cold_allocs;
        let b = p.alloc(256 * KB, PAGE).unwrap();
        assert_eq!(b, a, "from the cold range");
        // SAFETY: fresh allocation.
        unsafe {
            assert_eq!(*b.as_ptr(), 0, "decommitted pages read back zero");
            std::ptr::write_bytes(b.as_ptr(), 0x31, 256 * KB);
            assert_eq!(*b.as_ptr(), 0x31);
            p.free(b);
            p.free(above);
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
            p.check_integrity().unwrap();
        }
        let s = p.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn freed_chunk_is_reused_by_its_own_size() {
        let mut p = pool(16);
        // Live chunks between and above keep the freed ones apart.
        let a = p.alloc(200 * KB, PAGE).unwrap();
        let x = p.alloc(256 * KB, PAGE).unwrap();
        let b = p.alloc(512 * KB, PAGE).unwrap();
        let above = p.alloc(256 * KB, PAGE).unwrap();
        // SAFETY: a and b live, freed once.
        unsafe {
            p.free(a);
            p.free(b);
        }
        // Best fit: a's 204 KiB serves the same size again, and b's
        // 516 KiB stays whole.
        let c = p.alloc(200 * KB, PAGE).unwrap();
        assert_eq!(c, a);
        assert_eq!(p.pool_total(), 516 * KB);
        // SAFETY: c, x and above live, freed once.
        unsafe {
            p.free(c);
            p.free(x);
            p.free(above);
        }
        p.check_integrity().unwrap();
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
        // Two freed chunks for the trim, with live chunks between and on
        // top.
        let [c, x, d, top] =
            [300 * KB, 256 * KB, 400 * KB, 256 * KB].map(|s| p.alloc(s, PAGE).unwrap());
        // SAFETY: c and d live, freed once.
        unsafe {
            p.free(c);
            p.free(d);
        }
        let (committed, decommitted) = (p.stats().committed, p.stats().decommitted);

        let mut detached = Detached::new();
        p.detach(&mut detached, 0, 0, 0, 256 * KB);
        let taken = ranges(&detached);
        assert_eq!(taken.len(), 2, "two trimmed chunks");
        let bytes: usize = taken.iter().map(|(s, e)| e - s).sum();
        assert_eq!(bytes, 304 * KB + 404 * KB);
        for (&off, e) in &p.free {
            assert!(
                taken
                    .iter()
                    .all(|&(s, end)| off + e.size <= s || end <= off),
                "[{off}, +{}) is listed and detached",
                e.size
            );
        }
        p.check_integrity().unwrap();
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
            let start = chunk_off(&p, ptr);
            let end = start + PAGE + size;
            assert!(taken.iter().all(|&(s, e)| end <= s || e <= start));
        }
        let committed = p.stats().committed;
        assert_eq!(p.publish(&detached), bytes);
        p.check_integrity().unwrap();
        let s = p.stats();
        assert_eq!(s.decommitted, decommitted + bytes as u64);
        assert_eq!(s.committed, committed - bytes);
        for ptr in between.into_iter().map(|(b, _)| b).chain([x, top]) {
            // SAFETY: each block is live and freed once.
            unsafe { p.free(ptr) };
        }
        p.check_integrity().unwrap();
    }

    #[test]
    fn a_refused_decommit_publishes_warm() {
        let mut p = pool(16);
        let a = p.alloc(256 * KB, PAGE).unwrap();
        // A live chunk above keeps the range off the bump frontier.
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
        p.check_integrity().unwrap();
        let s = p.stats();
        assert_eq!((s.committed, s.decommitted), (committed, 0));
        assert_eq!(listed(&p), [(0, 260 * KB, true)]);
        // A warm range is reused without re-touching.
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
        let mut p = pool(128);
        // One more separate warm range than the buffer holds: every other
        // block of a run, freed, with a live block on top.
        let blocks: Vec<_> = (0..2 * (DETACH_CAP + 1))
            .map(|_| p.alloc(128 * KB, PAGE).unwrap())
            .collect();
        for &b in blocks.iter().step_by(2) {
            // SAFETY: each block is live and freed once.
            unsafe { p.free(b) };
        }
        p.management_round(0, 0, 0, 128 * KB);
        assert_eq!(p.pool_total(), 132 * KB, "no room left for the last");
        p.check_integrity().unwrap();
        p.management_round(0, 0, 0, 128 * KB);
        assert_eq!(p.pool_total(), 0);
        p.check_integrity().unwrap();
        for &b in blocks.iter().skip(1).step_by(2) {
            // SAFETY: each block is live and freed once.
            unsafe { p.free(b) };
        }
    }

    #[test]
    fn integrity_walk_reports_drift() {
        let mut p = pool(16);
        let [a, b, _above] = [(); 3].map(|()| p.alloc(256 * KB, PAGE).unwrap());
        // SAFETY: a live, freed once.
        unsafe { p.free(a) };
        p.check_integrity().unwrap();
        p.warm_bytes += PAGE;
        let err = p.check_integrity().unwrap_err().violation;
        assert!(matches!(
            err,
            IntegrityViolation::LargeGaugeMismatch { warm: true, .. }
        ));
        p.warm_bytes -= PAGE;
        // List b's chunk beside a's without merging them.
        p.stats.live -= 1;
        p.stats.live_bytes -= 260 * KB;
        p.insert(chunk_off(&p, b), 260 * KB, true);
        let err = p.check_integrity().unwrap_err().violation;
        assert_eq!(
            err,
            IntegrityViolation::LargeRangesUnmerged {
                prev_off: 0,
                off: 260 * KB
            }
        );
    }
}
