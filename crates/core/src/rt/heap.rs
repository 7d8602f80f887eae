//! The main-heap allocator: a boundary-tag malloc over a single arena,
//! with an emulated program break and two-level segregated-fit free lists.
//!
//! The layout mirrors Glibc's ptmalloc main heap (paper §2.1): an
//! *allocated area* of boundary-tagged chunks followed by the *top chunk*,
//! a contiguous free region ending at the program break. Small requests
//! are served from free bins or carved from the top chunk; when the top
//! chunk runs out the break is extended (`sbrk`). What makes expansion
//! slow in practice is constructing virtual-physical mappings for fresh
//! pages — modelled here by really touching never-before-touched arena
//! pages — and Hermes' management thread calls [`RawHeap::sbrk_commit`]
//! ahead of demand so allocations stay on the fast path.
//!
//! Chunk format (16-byte header, 16-byte granularity):
//!
//! ```text
//! offset 0: prev_size  — size of the physically previous chunk
//! offset 8: size|flags — chunk size (multiple of 16) | bit0 = in-use
//! offset 16: payload   — user data; when free: next/prev free-list links
//! ```
//!
//! The first word at the top-chunk offset always stamps the size of the
//! last allocated chunk, so carving from the top finds a valid `prev_size`
//! already in place.
//!
//! Free chunks are filed by size (DESIGN.md §11): 63 exact bins for
//! 32 B–1 KiB, then one bin per (⌊log2 size⌋, sixteenth of that power of
//! two). Bitmaps record which bins are non-empty, so every take path finds
//! "the lowest non-empty bin whose every chunk fits" with a mask and a
//! trailing-zero count: the time spent under the shard lock does not grow
//! with the number of free chunks.

use super::arena::{Arena, PAGE};
use super::error::{misuse_abort, IntegrityError, IntegrityViolation};
use std::fmt;
use std::ptr::NonNull;

/// Header size in bytes.
pub const HDR: usize = 16;
/// Allocation granularity.
pub const ALIGN: usize = 16;
/// Smallest chunk (header + room for the two free-list links).
pub const MIN_CHUNK: usize = 32;

// The remote-free inbox (`rt::remote`) threads an intrusive next pointer
// through the first payload word of dead blocks; every chunk payload
// must have room for it.
const _: () = assert!(MIN_CHUNK - HDR >= std::mem::size_of::<usize>());

const NIL: usize = usize::MAX;
/// Small bins: exact-size classes 32, 48, ..., 1024.
const SMALL_MAX: usize = 1024;
const SMALL_BINS: usize = (SMALL_MAX - MIN_CHUNK) / ALIGN + 1; // 63
/// Large bins: one level per power of two from 1 KiB up, each cut into
/// `SUBS` equal sub-slots. 32 levels reach 4 TiB, beyond any arena; the
/// last slot is open-ended and takes whatever is larger still.
const LEVEL0_LOG2: u32 = SMALL_MAX.ilog2();
const LEVELS: usize = 32;
const SUB_LOG2: u32 = 4;
const SUBS: usize = 1 << SUB_LOG2;
const NBINS: usize = SMALL_BINS + LEVELS * SUBS;
const LAST_BIN: usize = NBINS - 1;
/// Nodes of a request's own sub-slot examined before the search rounds
/// up to the next slot, where every chunk fits.
const PROBE: usize = 4;

/// Counters describing heap state (all byte quantities).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes handed out to live allocations (chunk sizes incl. headers).
    pub in_use: usize,
    /// Bytes sitting in free bins.
    pub binned: usize,
    /// Program-break offset (heap segment size).
    pub brk: usize,
    /// Touched (mapping-constructed) bytes.
    pub committed: usize,
    /// Total reserved address range of the backing arena — the ceiling
    /// on-demand growth can extend the heap segment to.
    pub backing_reserved: usize,
    /// Live allocation count.
    pub live: usize,
    /// Pages touched by foreground allocations (the slow path Hermes
    /// eliminates).
    pub demand_touched_pages: u64,
    /// Bytes returned to the kernel (`madvise(DONTNEED)`) by trim
    /// decommits, cumulative.
    pub decommitted: u64,
}

impl HeapStats {
    /// Adds `other` into `self` field-wise; used to merge per-arena
    /// statistics into the runtime-wide view.
    pub fn accumulate(&mut self, other: &HeapStats) {
        self.in_use += other.in_use;
        self.binned += other.binned;
        self.brk += other.brk;
        self.committed += other.committed;
        self.backing_reserved += other.backing_reserved;
        self.live += other.live;
        self.demand_touched_pages += other.demand_touched_pages;
        self.decommitted += other.decommitted;
    }
}

/// Errors from heap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The arena is exhausted: the program break cannot grow further.
    OutOfSpace,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfSpace => write!(f, "heap arena exhausted"),
        }
    }
}

impl std::error::Error for HeapError {}

/// The raw (unsynchronised) heap. Embedders wrap it in a lock; the heap
/// lock serialisation is precisely what the paper's gradual reservation
/// is designed around.
pub struct RawHeap {
    arena: Arena,
    /// Start of the top chunk.
    top_off: usize,
    /// Logical program break: end of the heap segment.
    brk_off: usize,
    /// Touched watermark: bytes `[0, committed_off)` have mappings.
    committed_off: usize,
    bins: [usize; NBINS],
    /// Bit `b` set ⇔ small bin `b` is non-empty.
    small_map: u64,
    /// Bit `l` set ⇔ `sub_map[l]` is non-zero.
    level_map: u32,
    /// Bit `s` of word `l` set ⇔ large bin `(l, s)` is non-empty.
    sub_map: [u16; LEVELS],
    stats: HeapStats,
    /// Free-list nodes examined by the take paths.
    #[cfg(test)]
    steps: usize,
}

// SAFETY: RawHeap exclusively owns its arena; raw offsets never escape
// except as allocation pointers whose lifetimes the embedder manages.
unsafe impl Send for RawHeap {}

impl fmt::Debug for RawHeap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawHeap")
            .field("top_off", &self.top_off)
            .field("brk_off", &self.brk_off)
            .field("committed_off", &self.committed_off)
            .field("stats", &self.stats)
            .finish()
    }
}

#[inline]
fn round_up(v: usize, q: usize) -> usize {
    v.div_ceil(q) * q
}

/// The bin a free chunk of `chunk_size` bytes is filed in.
#[inline]
fn bin_index(chunk_size: usize) -> usize {
    debug_assert!(chunk_size >= MIN_CHUNK);
    if chunk_size <= SMALL_MAX {
        return (chunk_size - MIN_CHUNK) / ALIGN;
    }
    let log2 = chunk_size.ilog2();
    let level = (log2 - LEVEL0_LOG2) as usize;
    if level >= LEVELS {
        return LAST_BIN;
    }
    let sub = (chunk_size >> (log2 - SUB_LOG2)) & (SUBS - 1);
    SMALL_BINS + level * SUBS + sub
}

/// The lowest bin whose every chunk is at least `need` bytes: `need`
/// rounded up to the next sub-slot boundary. `NBINS` when no bin gives
/// that guarantee (only the open-ended last slot may still hold a fit).
#[inline]
fn bin_ceil(need: usize) -> usize {
    if need <= SMALL_MAX {
        return bin_index(need);
    }
    let step = 1usize << (need.ilog2() - SUB_LOG2);
    match need.checked_add(step - 1) {
        Some(rounded) if rounded.ilog2() - LEVEL0_LOG2 < LEVELS as u32 => bin_index(rounded),
        _ => NBINS,
    }
}

/// Splits the index of a large bin into its level and sub-slot.
#[inline]
fn level_sub(b: usize) -> (usize, usize) {
    ((b - SMALL_BINS) / SUBS, (b - SMALL_BINS) % SUBS)
}

impl RawHeap {
    /// Creates a heap over `arena`.
    pub fn new(arena: Arena) -> Self {
        let mut h = RawHeap {
            arena,
            top_off: 0,
            brk_off: 0,
            committed_off: 0,
            bins: [NIL; NBINS],
            small_map: 0,
            level_map: 0,
            sub_map: [0; LEVELS],
            stats: HeapStats::default(),
            #[cfg(test)]
            steps: 0,
        };
        // Commit the first page and stamp "previous chunk size = 0" at the
        // top-chunk position so the first carve reads a valid prev_size.
        h.commit_to(PAGE);
        // SAFETY: offset 0 is committed.
        unsafe { h.write_word(0, 0) };
        h
    }

    /// Stats snapshot.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            brk: self.brk_off,
            committed: self.committed_off,
            backing_reserved: self.arena.reserved(),
            ..self.stats
        }
    }

    /// Free bytes in the top chunk (break minus top offset).
    pub fn top_free(&self) -> usize {
        self.brk_off - self.top_off
    }

    /// Bytes of the top chunk whose mappings are already constructed —
    /// the memory that can be handed out with no fault at all.
    pub fn reserve_ready(&self) -> usize {
        self.committed_off
            .min(self.brk_off)
            .saturating_sub(self.top_off)
    }

    /// `true` if `ptr` belongs to this heap.
    pub fn contains(&self, ptr: *const u8) -> bool {
        self.arena.contains(ptr)
    }

    // -- word accessors -------------------------------------------------

    /// # Safety
    /// `off + 8 <= committed_off`.
    #[inline]
    unsafe fn read_word(&self, off: usize) -> usize {
        debug_assert!(off + 8 <= self.committed_off);
        // SAFETY: per contract the address is committed arena memory.
        unsafe { (self.arena.at(off) as *const usize).read() }
    }

    /// # Safety
    /// `off + 8 <= committed_off`.
    #[inline]
    unsafe fn write_word(&mut self, off: usize, v: usize) {
        debug_assert!(off + 8 <= self.committed_off);
        // SAFETY: per contract the address is committed arena memory.
        unsafe { (self.arena.at(off) as *mut usize).write(v) }
    }

    #[inline]
    unsafe fn chunk_size(&self, off: usize) -> usize {
        // SAFETY: caller passes a valid chunk offset.
        unsafe { self.read_word(off + 8) & !1 }
    }

    #[inline]
    unsafe fn chunk_in_use(&self, off: usize) -> bool {
        // SAFETY: caller passes a valid chunk offset.
        unsafe { self.read_word(off + 8) & 1 == 1 }
    }

    #[inline]
    unsafe fn set_chunk(&mut self, off: usize, size: usize, in_use: bool) {
        debug_assert!(size % ALIGN == 0 && size >= MIN_CHUNK);
        // SAFETY: caller guarantees the chunk is committed.
        unsafe {
            self.write_word(off + 8, size | usize::from(in_use));
            // Stamp the next chunk's (or the top position's) prev_size.
            let next = off + size;
            if next + 8 <= self.committed_off {
                self.write_word(next, size);
            }
        }
    }

    #[inline]
    unsafe fn prev_size(&self, off: usize) -> usize {
        // SAFETY: caller passes a valid chunk offset.
        unsafe { self.read_word(off) }
    }

    // -- free-list intrusive links (stored in the payload) ---------------

    #[inline]
    unsafe fn fd(&self, off: usize) -> usize {
        // SAFETY: free chunks always have committed payload words.
        unsafe { self.read_word(off + HDR) }
    }

    #[inline]
    unsafe fn bk(&self, off: usize) -> usize {
        // SAFETY: as `fd`.
        unsafe { self.read_word(off + HDR + 8) }
    }

    #[inline]
    unsafe fn set_links(&mut self, off: usize, fd: usize, bk: usize) {
        // SAFETY: as `fd`.
        unsafe {
            self.write_word(off + HDR, fd);
            self.write_word(off + HDR + 8, bk);
        }
    }

    /// Marks the (just filled) bin `b` non-empty in the bitmaps.
    #[inline]
    fn set_bin_bit(&mut self, b: usize) {
        if b < SMALL_BINS {
            self.small_map |= 1 << b;
        } else {
            let (level, sub) = level_sub(b);
            self.sub_map[level] |= 1 << sub;
            self.level_map |= 1 << level;
        }
    }

    /// Marks the (just drained) bin `b` empty in the bitmaps.
    #[inline]
    fn clear_bin_bit(&mut self, b: usize) {
        if b < SMALL_BINS {
            self.small_map &= !(1 << b);
        } else {
            let (level, sub) = level_sub(b);
            self.sub_map[level] &= !(1 << sub);
            if self.sub_map[level] == 0 {
                self.level_map &= !(1 << level);
            }
        }
    }

    /// The lowest non-empty bin at or above `start`.
    #[inline]
    fn first_bin_from(&self, start: usize) -> Option<usize> {
        if start < SMALL_BINS {
            let m = self.small_map & (u64::MAX << start);
            if m != 0 {
                return Some(m.trailing_zeros() as usize);
            }
        }
        let (level, sub) = level_sub(start.max(SMALL_BINS));
        if level >= LEVELS {
            return None;
        }
        // The rest of `start`'s own level, then the lowest slot of the
        // lowest non-empty level above it.
        let own = self.sub_map[level] & (u16::MAX << sub);
        if own != 0 {
            return Some(SMALL_BINS + level * SUBS + own.trailing_zeros() as usize);
        }
        let above = u64::from(self.level_map) & (u64::MAX << (level + 1));
        if above == 0 {
            return None;
        }
        let level = above.trailing_zeros() as usize;
        Some(SMALL_BINS + level * SUBS + self.sub_map[level].trailing_zeros() as usize)
    }

    unsafe fn bin_push(&mut self, off: usize) {
        // SAFETY: `off` is a valid, free, committed chunk.
        unsafe {
            let size = self.chunk_size(off);
            let b = bin_index(size);
            let head = self.bins[b];
            self.set_links(off, head, NIL);
            if head != NIL {
                let head_fd = self.fd(head);
                self.set_links(head, head_fd, off);
            }
            self.bins[b] = off;
            if head == NIL {
                self.set_bin_bit(b);
            }
            self.stats.binned += size;
        }
    }

    unsafe fn bin_unlink(&mut self, off: usize) {
        // SAFETY: `off` is a chunk currently linked in its bin.
        unsafe {
            let size = self.chunk_size(off);
            let b = bin_index(size);
            let fd = self.fd(off);
            let bk = self.bk(off);
            if bk == NIL {
                debug_assert_eq!(self.bins[b], off, "unlink head mismatch");
                self.bins[b] = fd;
                if fd == NIL {
                    self.clear_bin_bit(b);
                }
            } else {
                let bk_fd = self.fd(bk);
                debug_assert_eq!(bk_fd, off);
                let _ = bk_fd;
                self.set_links(bk, fd, self.bk(bk));
            }
            if fd != NIL {
                let fd_bk = self.bk(fd);
                debug_assert_eq!(fd_bk, off);
                let _ = fd_bk;
                self.set_links(fd, self.fd(fd), bk);
            }
            self.stats.binned -= size;
        }
    }

    // -- commit / break management ---------------------------------------

    fn commit_to(&mut self, new_off: usize) {
        if new_off <= self.committed_off {
            return;
        }
        let target = round_up(new_off, PAGE).min(self.arena.capacity());
        self.arena
            .touch(self.committed_off, target - self.committed_off);
        self.committed_off = target;
    }

    /// Ensures the arena can hold a break at `new_brk` (plus the tail
    /// page reserved for the top-position prev_size stamp), growing a
    /// mapped arena's exposed capacity on demand. Returns `false` when
    /// even the full reservation cannot accommodate it.
    fn ensure_capacity(&mut self, new_brk: usize) -> bool {
        let limit = self.arena.capacity().saturating_sub(PAGE);
        if new_brk <= limit {
            return true;
        }
        let needed = (new_brk + PAGE).saturating_sub(self.arena.capacity());
        let avail = self.arena.reserved() - self.arena.capacity();
        if needed > avail {
            return false;
        }
        // Grow in multi-megabyte steps so a tight allocation loop does
        // not take the grow path once per page.
        const GROW_CHUNK: usize = 4 << 20;
        let extra = round_up(needed, PAGE).max(GROW_CHUNK).min(avail);
        self.arena.grow(extra).is_ok()
    }

    /// Extends the program break by `bytes` **and** constructs the
    /// mappings (the management thread's reservation step; Algorithm 1
    /// lines 11–15 run this under the heap lock). Mapped arenas grow
    /// their exposed capacity on demand, up to the reservation.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfSpace`] when the arena cannot grow that far.
    pub fn sbrk_commit(&mut self, bytes: usize) -> Result<(), HeapError> {
        let new_brk = round_up(self.brk_off + bytes, PAGE);
        // One tail page stays in reserve for the top-position prev_size stamp.
        if !self.ensure_capacity(new_brk) {
            return Err(HeapError::OutOfSpace);
        }
        self.brk_off = new_brk;
        self.commit_to(new_brk);
        Ok(())
    }

    /// Returns the committed pages above the (already trimmed) program
    /// break to the kernel, where the platform supports decommit. The
    /// page holding the top-position prev_size stamp is kept. Returns the
    /// bytes decommitted; the manager calls this after [`RawHeap::trim`]
    /// so the paper's `sbrk(-extra)` release becomes a real
    /// `madvise(DONTNEED)` instead of an accounting fiction.
    pub fn decommit_tail(&mut self) -> usize {
        // `+ HDR` keeps the 8-byte stamp at the top position (top_off <=
        // brk_off) out of the dropped range even when the break is
        // page-aligned.
        let start = round_up(self.brk_off + HDR, PAGE);
        if start >= self.committed_off {
            return 0;
        }
        // SAFETY: everything at or above the break is top-chunk tail; no
        // live chunk or stamp lies in [start, committed_off).
        let freed = unsafe { self.arena.decommit(start, self.committed_off - start) };
        if freed > 0 {
            self.committed_off = start;
            self.stats.decommitted += freed as u64;
        }
        freed
    }

    /// Shrinks the top chunk so at most `keep` bytes remain
    /// (`sbrk(-extra)` in Algorithm 1 line 20). Returns released bytes.
    ///
    /// Note: without `madvise` the released pages stay resident; the
    /// break accounting still shrinks so policy decisions see the trim.
    pub fn trim(&mut self, keep: usize) -> usize {
        let free = self.top_free();
        if free <= keep {
            return 0;
        }
        let release = round_up(free - keep, PAGE).min(free);
        self.brk_off -= release;
        debug_assert!(self.brk_off >= self.top_off);
        release
    }

    // -- allocation -------------------------------------------------------

    fn request_to_chunk(size: usize) -> usize {
        round_up(size.max(1) + HDR, ALIGN).max(MIN_CHUNK)
    }

    /// The boundary-tag chunk size (header included) that a request of
    /// `size` bytes occupies. Public so embedders — the thread-cache size
    /// classes and its accounting tests — can reason in chunk units.
    pub fn request_chunk_size(size: usize) -> usize {
        Self::request_to_chunk(size)
    }

    /// Chunk size (header included) of the live allocation whose payload
    /// starts at `payload`, read from its boundary tag without the heap
    /// lock. Sound because a live chunk's size word is written at
    /// allocation and untouched until its free — neighbours only ever
    /// write the `prev_size` word.
    ///
    /// # Safety
    ///
    /// `payload` must head an allocation of a `RawHeap` that no thread
    /// is freeing or has freed.
    #[inline]
    pub(crate) unsafe fn live_chunk_size(payload: usize) -> usize {
        // SAFETY: per the contract, the word below the payload is the
        // chunk's size|flags word.
        unsafe { (payload as *const usize).sub(1).read() & !1 }
    }

    /// Allocates `size` bytes (16-byte aligned).
    ///
    /// Returns `None` when the arena is exhausted.
    pub fn malloc(&mut self, size: usize) -> Option<NonNull<u8>> {
        let need = Self::request_to_chunk(size);
        // 1. Binned chunks: the lowest bin whose chunks all fit.
        // SAFETY: bin contents are valid free chunks by invariant.
        unsafe {
            if let Some(off) = self.bin_take(need) {
                let got = self.chunk_size(off);
                self.split_excess(off, got, need);
                let final_size = self.chunk_size(off);
                self.set_chunk(off, final_size, true);
                self.stats.in_use += final_size;
                self.stats.live += 1;
                return Some(NonNull::new_unchecked(self.arena.at(off + HDR)));
            }
        }
        // 2. Carve from the top chunk, growing the break if needed.
        self.carve_top(need)
    }

    /// Allocates up to `out.len()` blocks, each of *exactly* the chunk
    /// size implied by `size`, writing payload addresses into `out` and
    /// returning how many were carved (stopping early on exhaustion).
    ///
    /// The exactness guarantee is what lets the thread-cache layer account
    /// cached blocks at class granularity: `malloc` may hand back a chunk
    /// up to `MIN_CHUNK - ALIGN` bytes larger when splitting the remainder
    /// off a binned chunk would leave an unusable sliver; this path skips
    /// such chunks instead. One call means one lock acquisition for the
    /// whole batch — the amortisation the cache exists for.
    ///
    /// The blocks are carved as a run: first from one chunk that holds
    /// everything still missing, then from whichever chunks split exactly,
    /// then from the top. A refill's blocks are used together, so handing
    /// them out back to back keeps them on the same pages, and the
    /// remainder is binned once per chunk instead of once per block.
    pub fn malloc_batch(&mut self, size: usize, out: &mut [usize]) -> usize {
        let need = Self::request_to_chunk(size);
        let mut n = 0;
        while n < out.len() {
            let missing = out.len() - n;
            // Saturating: a product that wrapped would ask for less than
            // the run and `carve_run` would overrun the chunk.
            let run = need.saturating_mul(missing).saturating_add(MIN_CHUNK);
            // SAFETY: bin contents are valid free chunks by invariant.
            let chunk = unsafe {
                let whole = if missing > 1 {
                    self.bin_take(run)
                } else {
                    None
                };
                whole.or_else(|| self.bin_take_exact(need))
            };
            match chunk {
                // SAFETY: `off` is unlinked, free, and either exactly
                // `need` bytes or at least `need + MIN_CHUNK`.
                Some(off) => n += unsafe { self.carve_run(off, need, &mut out[n..]) },
                // Top carves are exact by construction.
                None => match self.carve_top(need) {
                    Some(p) => {
                        out[n] = p.as_ptr() as usize;
                        n += 1;
                    }
                    None => break,
                },
            }
        }
        n
    }

    /// Cuts the free chunk `off` into as many `need`-byte blocks as it
    /// holds (at most `out.len()`), back to back from its start, and bins
    /// what is left once. Returns the number of blocks written to `out`.
    ///
    /// # Safety
    /// `off` must be an unlinked free chunk whose size is exactly `need`
    /// or at least `need + MIN_CHUNK`, and `out` must not be empty.
    unsafe fn carve_run(&mut self, off: usize, need: usize, out: &mut [usize]) -> usize {
        let base = self.arena.base().as_ptr() as usize;
        // SAFETY: every block and the remainder lie inside the chunk.
        unsafe {
            let size = self.chunk_size(off);
            debug_assert!(size == need || size >= need + MIN_CHUNK);
            let k = ((size - MIN_CHUNK) / need).clamp(1, out.len());
            for (i, slot) in out[..k].iter_mut().enumerate() {
                let block = off + i * need;
                self.set_chunk(block, need, true);
                *slot = base + block + HDR;
            }
            self.stats.in_use += k * need;
            self.stats.live += k;
            let rest = size - k * need;
            if rest != 0 {
                debug_assert!(rest >= MIN_CHUNK);
                self.set_chunk(off + k * need, rest, false);
                self.bin_push(off + k * need);
            }
            k
        }
    }

    /// Frees a batch of payload addresses under one lock acquisition (the
    /// thread-cache flush path).
    ///
    /// # Safety
    ///
    /// Every address must have been returned by this heap's allocation
    /// methods, be live, and appear at most once in `addrs`.
    pub unsafe fn free_batch(&mut self, addrs: &[usize]) {
        for &a in addrs {
            // SAFETY: per the caller's contract each address heads a live
            // allocation of this heap.
            unsafe { self.free(NonNull::new_unchecked(a as *mut u8)) };
        }
    }

    /// Unlinks and returns the first of the leading `limit` nodes of bin
    /// `b` whose size `fits` accepts.
    unsafe fn bin_probe(
        &mut self,
        b: usize,
        limit: usize,
        fits: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        // SAFETY: all offsets in bins are valid free chunks.
        unsafe {
            let mut cur = self.bins[b];
            for _ in 0..limit {
                if cur == NIL {
                    break;
                }
                #[cfg(test)]
                {
                    self.steps += 1;
                }
                if fits(self.chunk_size(cur)) {
                    self.bin_unlink(cur);
                    return Some(cur);
                }
                cur = self.fd(cur);
            }
            None
        }
    }

    /// How many nodes of bin `b` a take path may examine: a small bin
    /// holds one size, so its head decides; a sub-slot gets a bounded
    /// look; only the open-ended last slot is walked to the end.
    #[inline]
    fn probe_limit(b: usize) -> usize {
        if b < SMALL_BINS {
            1
        } else if b < LAST_BIN {
            PROBE
        } else {
            usize::MAX
        }
    }

    /// Unlinks and returns a free chunk of at least `need` bytes: good
    /// fit, not best fit. A bounded look at the request's own sub-slot
    /// (whose chunks may be up to one sub-slot width too small), then the
    /// head of the lowest non-empty bin at or above the next sub-slot
    /// boundary, where every chunk fits.
    unsafe fn bin_take(&mut self, need: usize) -> Option<usize> {
        let home = bin_index(need);
        let start = bin_ceil(need);
        // SAFETY: all offsets in bins are valid free chunks.
        unsafe {
            let own = if start != home {
                self.bin_probe(home, Self::probe_limit(home), |size| size >= need)
            } else {
                None
            };
            own.or_else(|| {
                let b = self.first_bin_from(start)?;
                debug_assert!(self.chunk_size(self.bins[b]) >= need);
                self.bin_probe(b, 1, |_| true)
            })
        }
    }

    /// Exact-fit variant of [`RawHeap::bin_take`]: only returns chunks
    /// that are either exactly `need` bytes or big enough to split down to
    /// exactly `need` (`>= need + MIN_CHUNK`): the request's own bin for
    /// the former, then any chunk of `need + MIN_CHUNK` bytes or more.
    unsafe fn bin_take_exact(&mut self, need: usize) -> Option<usize> {
        let home = bin_index(need);
        // SAFETY: all offsets in bins are valid free chunks.
        unsafe {
            self.bin_probe(home, Self::probe_limit(home), |size| {
                size == need || size >= need + MIN_CHUNK
            })
            .or_else(|| self.bin_take(need + MIN_CHUNK))
        }
    }

    /// Splits chunk `off` (currently sized `got`) down to `need`, binning
    /// the remainder when it is big enough to stand alone.
    ///
    /// # Safety
    /// `off` must be an unlinked free chunk of size `got`.
    unsafe fn split_excess(&mut self, off: usize, got: usize, need: usize) {
        debug_assert!(got >= need);
        if got - need >= MIN_CHUNK {
            // SAFETY: both sub-chunks lie inside the old chunk's extent.
            unsafe {
                self.set_chunk(off, need, false);
                let rem = off + need;
                self.write_word(rem, need); // prev_size of remainder
                self.set_chunk(rem, got - need, false);
                self.bin_push(rem);
            }
        }
    }

    fn carve_top(&mut self, need: usize) -> Option<NonNull<u8>> {
        if self.top_free() < need {
            // Glibc expands by exactly the shortfall (paper §2.1).
            let grow = need - self.top_free();
            let new_brk = round_up(self.brk_off + grow, PAGE);
            if !self.ensure_capacity(new_brk) {
                return None;
            }
            self.brk_off = new_brk;
        }
        let off = self.top_off;
        let end = off + need;
        // Demand-fault any pages beyond the committed watermark: this is
        // the slow path Hermes' advance reservation avoids.
        if end + HDR > self.committed_off {
            let before = self.committed_off;
            self.commit_to(end + HDR);
            self.stats.demand_touched_pages += ((self.committed_off - before) / PAGE) as u64;
        }
        self.top_off = end;
        // SAFETY: [off, end+8) committed above; prev_size already stamped
        // at `off` by the previous carve/free.
        unsafe {
            self.set_chunk(off, need, true);
            // Stamp prev_size at the new top position for the next carve.
            self.write_word(end, need);
            self.stats.in_use += need;
            self.stats.live += 1;
            Some(NonNull::new_unchecked(self.arena.at(off + HDR)))
        }
    }

    /// Allocates `size` bytes aligned to `align` (a power of two).
    pub fn memalign(&mut self, align: usize, size: usize) -> Option<NonNull<u8>> {
        debug_assert!(align.is_power_of_two());
        if align <= ALIGN {
            return self.malloc(size);
        }
        let padded = size + align + MIN_CHUNK;
        let raw = self.malloc(padded)?;
        let payload = raw.as_ptr() as usize;
        let base = self.arena.base().as_ptr() as usize;
        let off = payload - base - HDR;
        // SAFETY: `off` is the live chunk just returned by malloc.
        unsafe {
            let chunk_size = self.chunk_size(off);
            let mut aligned_payload = round_up(payload, align);
            if aligned_payload != payload && aligned_payload - payload < MIN_CHUNK {
                aligned_payload += align;
            }
            if aligned_payload == payload {
                return Some(raw);
            }
            let new_off = aligned_payload - base - HDR;
            let prefix = new_off - off;
            debug_assert!(prefix >= MIN_CHUNK);
            let rest = chunk_size - prefix;
            debug_assert!(rest >= size + HDR);
            // Undo the in_use accounting for the original chunk; re-add
            // for the aligned one.
            self.stats.in_use -= chunk_size;
            self.stats.live -= 1;
            // Prefix becomes a free chunk.
            self.set_chunk(off, prefix, false);
            self.write_word(new_off, prefix);
            self.set_chunk(new_off, rest, true);
            self.stats.in_use += rest;
            self.stats.live += 1;
            self.bin_push(off);
            Some(NonNull::new_unchecked(self.arena.at(new_off + HDR)))
        }
    }

    /// Frees the allocation at `ptr`, coalescing with free neighbours and
    /// the top chunk.
    ///
    /// # Safety
    ///
    /// `ptr` must have been returned by this heap's `malloc`/`memalign`
    /// and not freed since. A second free of a block whose header no
    /// later allocation has reused aborts the process.
    pub unsafe fn free(&mut self, ptr: NonNull<u8>) {
        let base = self.arena.base().as_ptr() as usize;
        let mut off = ptr.as_ptr() as usize - base - HDR;
        // SAFETY: per contract `off` heads a live chunk.
        unsafe {
            let word = self.read_word(off + 8);
            if word & 1 == 0 {
                misuse_abort("hermes: double free of a heap block\n");
            }
            // Clear the bit at the block's own header, wherever the
            // coalescing below leaves it (mid-chunk or under the top), so
            // a second free of this block finds it clear.
            self.write_word(off + 8, word & !1);
            let mut size = word & !1;
            self.stats.in_use -= size;
            self.stats.live -= 1;
            // Coalesce with the physically previous chunk.
            if off > 0 {
                let psize = self.prev_size(off);
                let poff = off - psize;
                if psize != 0 && !self.chunk_in_use(poff) {
                    self.bin_unlink(poff);
                    off = poff;
                    size += psize;
                }
            }
            // Coalesce with the next chunk (or the top).
            let next = off + size;
            if next == self.top_off {
                // Merge into the top chunk.
                self.top_off = off;
                // The prev_size stamp for the new top position is already
                // the prev_size field at `off`.
                return;
            }
            if !self.chunk_in_use(next) {
                self.bin_unlink(next);
                size += self.chunk_size(next);
                let after = off + size;
                if after == self.top_off {
                    self.top_off = off;
                    return;
                }
            }
            self.set_chunk(off, size, false);
            self.bin_push(off);
        }
    }

    /// Usable payload bytes of the allocation at `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must head a live allocation of this heap.
    pub unsafe fn usable_size(&self, ptr: NonNull<u8>) -> usize {
        let base = self.arena.base().as_ptr() as usize;
        let off = ptr.as_ptr() as usize - base - HDR;
        // SAFETY: per contract.
        unsafe { self.chunk_size(off) - HDR }
    }

    /// Walks the whole heap verifying structural invariants; used by the
    /// test suite, property tests and the real backend's debug path.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a typed
    /// [`IntegrityError`] (whose `Display` keeps the historical message
    /// text).
    pub fn check_integrity(&self) -> Result<(), IntegrityError> {
        let mut off = 0usize;
        let mut prev: Option<(usize, usize, bool)> = None;
        let mut free_bytes = 0usize;
        let mut in_use_bytes = 0usize;
        let mut live = 0usize;
        while off < self.top_off {
            // SAFETY: chunks in [0, top_off) are committed by invariant.
            let (size, in_use, stamped_prev) = unsafe {
                (
                    self.chunk_size(off),
                    self.chunk_in_use(off),
                    self.prev_size(off),
                )
            };
            if size < MIN_CHUNK || size % ALIGN != 0 {
                return Err(IntegrityViolation::BadChunkSize { off, size }.into());
            }
            if let Some((poff, psize, pfree)) = prev {
                if stamped_prev != psize {
                    return Err(IntegrityViolation::PrevSizeMismatch {
                        off,
                        stamped: stamped_prev,
                        actual: psize,
                        prev_off: poff,
                    }
                    .into());
                }
                if pfree && !in_use {
                    return Err(IntegrityViolation::AdjacentFreeChunks {
                        prev_off: poff,
                        off,
                    }
                    .into());
                }
            }
            if in_use {
                in_use_bytes += size;
                live += 1;
            } else {
                free_bytes += size;
            }
            prev = Some((off, size, !in_use));
            off += size;
        }
        if off != self.top_off {
            return Err(IntegrityViolation::WalkOverrun {
                off,
                top: self.top_off,
            }
            .into());
        }
        // Free-list consistency, and bitmap bit set <=> list non-empty on
        // both levels.
        let mut linked = 0usize;
        for (b, &head) in self.bins.iter().enumerate() {
            let marked = if b < SMALL_BINS {
                self.small_map >> b & 1 == 1
            } else {
                let (level, sub) = level_sub(b);
                let level_marked = self.level_map >> level & 1 == 1;
                if level_marked != (self.sub_map[level] != 0) {
                    return Err(IntegrityViolation::BinMapMismatch { bin: b }.into());
                }
                self.sub_map[level] >> sub & 1 == 1
            };
            if marked != (head != NIL) {
                return Err(IntegrityViolation::BinMapMismatch { bin: b }.into());
            }
            let mut cur = head;
            let mut prev_link = NIL;
            while cur != NIL {
                // SAFETY: invariant — bins reference committed free chunks.
                let (size, in_use, bk) =
                    unsafe { (self.chunk_size(cur), self.chunk_in_use(cur), self.bk(cur)) };
                if in_use {
                    return Err(IntegrityViolation::InUseChunkBinned { bin: b, off: cur }.into());
                }
                if bin_index(size) != b {
                    return Err(IntegrityViolation::MisfiledChunk {
                        bin: b,
                        off: cur,
                        size,
                    }
                    .into());
                }
                if bk != prev_link {
                    return Err(IntegrityViolation::BrokenBackLink { bin: b, off: cur }.into());
                }
                linked += size;
                prev_link = cur;
                // SAFETY: as above.
                cur = unsafe { self.fd(cur) };
            }
        }
        if linked != free_bytes {
            return Err(IntegrityViolation::BinnedBytesMismatch {
                linked,
                walked: free_bytes,
            }
            .into());
        }
        if self.stats.binned != free_bytes {
            return Err(IntegrityViolation::StatsBinnedMismatch {
                stat: self.stats.binned,
                walked: free_bytes,
            }
            .into());
        }
        if self.stats.in_use != in_use_bytes || self.stats.live != live {
            return Err(IntegrityViolation::StatsDrift.into());
        }
        if self.top_off > self.brk_off {
            return Err(IntegrityViolation::TopBeyondBreak.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(pages: usize) -> RawHeap {
        RawHeap::new(Arena::reserve(PAGE * pages).unwrap())
    }

    /// The smallest chunk size filed in bin `b`.
    fn bin_floor(b: usize) -> usize {
        if b < SMALL_BINS {
            return MIN_CHUNK + b * ALIGN;
        }
        let (level, sub) = level_sub(b);
        // 1 KiB itself is the last small bin's.
        ((SUBS + sub) << (LEVEL0_LOG2 as usize + level - SUB_LOG2 as usize)).max(SMALL_MAX + ALIGN)
    }

    #[test]
    fn bin_index_classes() {
        assert_eq!(bin_index(MIN_CHUNK), 0);
        assert_eq!(bin_index(SMALL_MAX), SMALL_BINS - 1);
        assert_eq!(bin_index(SMALL_MAX + ALIGN), SMALL_BINS);
        let last_level = LEVEL0_LOG2 as usize + LEVELS - 1;
        let sizes = (MIN_CHUNK..=8 << 20)
            .step_by(ALIGN)
            .chain((24..=last_level + 2).map(|log2| 1usize << log2))
            .chain([bin_floor(LAST_BIN), bin_floor(LAST_BIN) + ALIGN]);
        let mut prev = 0;
        for size in sizes {
            let b = bin_index(size);
            assert!(b < NBINS);
            assert!(b >= prev, "bin_index is monotone at {size}");
            prev = b;
            assert!(bin_floor(b) <= size, "size {size} is below bin {b}'s floor");
            if b < LAST_BIN {
                assert!(size < bin_floor(b + 1), "size {size} belongs above bin {b}");
            }
            // The rounded-up search never starts in a bin that could hold
            // a chunk smaller than the request, and never skips further
            // than the request's own slot plus one.
            let start = bin_ceil(size);
            assert!(
                start == b || start == b + 1,
                "search for {size} starts at {start}"
            );
            if start < NBINS {
                assert!(bin_floor(start) >= size, "bin {start} may not fit {size}");
            } else {
                assert!(size > bin_floor(LAST_BIN));
            }
        }
        assert_eq!(prev, LAST_BIN, "the sweep reaches the open-ended last slot");
    }

    /// Frees `p` and returns its chunk offset.
    fn free_chunk(h: &mut RawHeap, p: NonNull<u8>) -> usize {
        let off = p.as_ptr() as usize - h.arena.base().as_ptr() as usize - HDR;
        // SAFETY: callers pass a live allocation exactly once.
        unsafe { h.free(p) };
        off
    }

    #[test]
    fn aged_heap_takes_examine_bounded_nodes() {
        const AGED: usize = 20_000;
        let mut h = RawHeap::new(Arena::reserve(128 << 20).unwrap());
        // 20 000 free chunks of 4.1-4.9 KiB, each fenced by a live guard
        // block so none coalesce, plus one 7 KiB and one 32 KiB hole.
        let mut holes = Vec::with_capacity(AGED);
        for i in 0..AGED {
            holes.push(h.malloc(4200 + (i * 16) % 800).unwrap());
            h.malloc(16).unwrap();
        }
        let seven = h.malloc(7 << 10).unwrap();
        h.malloc(16).unwrap();
        let big = h.malloc(32 << 10).unwrap();
        h.malloc(16).unwrap();
        for p in holes {
            free_chunk(&mut h, p);
        }
        let seven_off = free_chunk(&mut h, seven);
        h.check_integrity().unwrap();
        let base = h.arena.base().as_ptr() as usize;

        // A 6 KiB request passes over every 4.x KiB chunk without looking
        // at one, and lands in the 7 KiB hole instead of growing the top.
        h.steps = 0;
        let top = h.top_off;
        let p = h.malloc(6 << 10).unwrap();
        assert_eq!(p.as_ptr() as usize - base - HDR, seven_off);
        assert_eq!(h.top_off, top);
        assert!(h.steps <= PROBE + 1, "6 KiB malloc examined {}", h.steps);

        // A refill of a 1.5 KiB class with no chunk big enough for the
        // run: per-chunk exact fits, a bounded look for each.
        let need = RawHeap::request_to_chunk(1536);
        let mut out = [0usize; 16];
        h.steps = 0;
        assert_eq!(h.malloc_batch(1536, &mut out), 16);
        assert_eq!(h.top_off, top, "served from the aged chunks");
        assert!(
            h.steps <= out.len() * 2 * (PROBE + 1),
            "scattered refill examined {}",
            h.steps
        );
        // SAFETY: all 16 live, each freed once.
        unsafe { h.free_batch(&out) };

        // With one chunk that holds the whole run the blocks come out of
        // it back to back.
        let big_off = free_chunk(&mut h, big);
        h.steps = 0;
        assert_eq!(h.malloc_batch(1536, &mut out), 16);
        assert!(h.steps <= PROBE + 1, "run refill examined {}", h.steps);
        for (i, &addr) in out.iter().enumerate() {
            assert_eq!(
                addr - base - HDR,
                big_off + i * need,
                "block {i} of the run"
            );
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn integrity_check_reports_bitmap_drift() {
        let mut h = heap(64);
        let small = h.malloc(100).unwrap();
        h.malloc(16).unwrap();
        let large = h.malloc(5000).unwrap();
        h.malloc(16).unwrap();
        free_chunk(&mut h, small);
        free_chunk(&mut h, large);
        h.check_integrity().unwrap();
        let small_bin = bin_index(RawHeap::request_to_chunk(100));
        let large_bin = bin_index(RawHeap::request_to_chunk(5000));
        let (level, sub) = level_sub(large_bin);
        let violation = |h: &RawHeap| h.check_integrity().unwrap_err().violation;

        h.small_map = 0;
        assert_eq!(
            violation(&h),
            IntegrityViolation::BinMapMismatch { bin: small_bin }
        );
        h.small_map = 1 << small_bin;
        // A sub-slot bit without a list, a list without its bit, and a
        // level bit over an all-zero word are each caught.
        h.sub_map[level] |= 1 << (sub + 1);
        assert_eq!(
            violation(&h),
            IntegrityViolation::BinMapMismatch { bin: large_bin + 1 }
        );
        h.sub_map[level] = 0;
        assert!(matches!(
            violation(&h),
            IntegrityViolation::BinMapMismatch { bin } if level_sub(bin).0 == level
        ));
        h.sub_map[level] = 1 << sub;
        h.level_map = 0;
        assert!(matches!(
            violation(&h),
            IntegrityViolation::BinMapMismatch { bin } if level_sub(bin).0 == level
        ));
        h.level_map = 1 << level;
        h.check_integrity().unwrap();
    }

    #[test]
    fn alloc_writes_are_usable() {
        let mut h = heap(64);
        let p = h.malloc(100).unwrap();
        // SAFETY: fresh allocation of >= 100 bytes.
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0xAB, 100);
            assert_eq!(*p.as_ptr(), 0xAB);
            assert!(h.usable_size(p) >= 100);
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn free_and_reuse_same_chunk() {
        let mut h = heap(64);
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        // SAFETY: a is live.
        unsafe { h.free(a) };
        let c = h.malloc(64).unwrap();
        assert_eq!(a, c, "freed chunk is reused");
        // SAFETY: b, c live.
        unsafe {
            h.free(b);
            h.free(c);
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut h = heap(64);
        let a = h.malloc(48).unwrap();
        let b = h.malloc(48).unwrap();
        let _guard = h.malloc(48).unwrap(); // keep top away
                                            // SAFETY: both live.
        unsafe {
            h.free(a);
            h.free(b);
        }
        h.check_integrity().unwrap();
        // The merged chunk serves a request bigger than either part.
        let big = h.malloc(96).unwrap();
        let base = h.arena.base().as_ptr() as usize;
        assert_eq!(
            big.as_ptr() as usize,
            a.as_ptr() as usize,
            "merged in place"
        );
        let _ = base;
        h.check_integrity().unwrap();
    }

    #[test]
    fn free_adjacent_to_top_merges_into_top() {
        let mut h = heap(64);
        let a = h.malloc(1000).unwrap();
        let top_after_alloc = h.top_free();
        // SAFETY: a live.
        unsafe { h.free(a) };
        assert!(
            h.top_free() > top_after_alloc + 1000,
            "chunk merged back into top, not binned"
        );
        assert_eq!(h.stats().binned, 0);
        // The same address is carved again.
        let b = h.malloc(1000).unwrap();
        assert_eq!(a, b);
        h.check_integrity().unwrap();
    }

    #[test]
    fn top_carve_faults_fresh_pages() {
        let mut h = heap(256);
        let s0 = h.stats();
        let _p = h.malloc(PAGE * 8).unwrap();
        let s1 = h.stats();
        assert!(s1.demand_touched_pages > s0.demand_touched_pages);
        // After sbrk_commit (the manager's reservation) no demand faults.
        h.sbrk_commit(PAGE * 32).unwrap();
        let s2 = h.stats();
        let _q = h.malloc(PAGE * 8).unwrap();
        let s3 = h.stats();
        assert_eq!(
            s3.demand_touched_pages, s2.demand_touched_pages,
            "reserved memory carves without faults"
        );
        assert!(h.reserve_ready() > 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut h = heap(4);
        assert!(h.malloc(PAGE * 16).is_none());
        // Heap still works afterwards.
        assert!(h.malloc(64).is_some());
        h.check_integrity().unwrap();
    }

    #[test]
    fn trim_shrinks_break() {
        let mut h = heap(64);
        h.sbrk_commit(PAGE * 16).unwrap();
        let free = h.top_free();
        assert!(free >= PAGE * 16);
        let released = h.trim(PAGE);
        assert!(released > 0);
        assert!(h.top_free() <= PAGE + PAGE); // keep + rounding
        h.check_integrity().unwrap();
    }

    #[test]
    fn memalign_returns_aligned_and_freeable() {
        let mut h = heap(256);
        for align in [32usize, 64, 256, 4096] {
            let p = h.memalign(align, 200).unwrap();
            assert_eq!(p.as_ptr() as usize % align, 0, "align {align}");
            // SAFETY: fresh 200-byte allocation.
            unsafe {
                std::ptr::write_bytes(p.as_ptr(), 0x5A, 200);
                h.free(p);
            }
            h.check_integrity().unwrap();
        }
    }

    #[test]
    fn interleaved_pattern_keeps_invariants() {
        let mut h = heap(512);
        let mut live: Vec<NonNull<u8>> = Vec::new();
        for i in 0..300usize {
            let size = 16 + (i * 37) % 2000;
            let p = h.malloc(size).unwrap();
            // SAFETY: fresh allocation.
            unsafe { std::ptr::write_bytes(p.as_ptr(), (i & 0xff) as u8, size) };
            live.push(p);
            if i % 3 == 0 {
                let victim = live.swap_remove((i * 7) % live.len());
                // SAFETY: victim is live and removed from the set.
                unsafe { h.free(victim) };
            }
        }
        h.check_integrity().unwrap();
        for p in live {
            // SAFETY: still live.
            unsafe { h.free(p) };
        }
        h.check_integrity().unwrap();
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.stats().in_use, 0);
    }

    #[test]
    fn malloc_batch_carves_exact_chunks() {
        let mut h = heap(256);
        let mut out = [0usize; 16];
        let n = h.malloc_batch(100, &mut out);
        assert_eq!(n, 16);
        let need = RawHeap::request_to_chunk(100);
        let base = h.arena.base().as_ptr() as usize;
        for &addr in &out {
            // SAFETY: each address heads a live chunk just carved.
            let size = unsafe { h.chunk_size(addr - base - HDR) };
            assert_eq!(size, need, "batch chunks are exactly the class size");
        }
        assert_eq!(h.stats().live, 16);
        assert_eq!(h.stats().in_use, 16 * need);
        h.check_integrity().unwrap();
        // SAFETY: all 16 live, each freed once.
        unsafe { h.free_batch(&out) };
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn malloc_batch_skips_unsplittable_bin_chunks() {
        let mut h = heap(256);
        // Bin a 112-byte chunk: an exact-96 batch request must not take it
        // (112 - 96 = 16 < MIN_CHUNK would strand an oversized chunk in a
        // 96-byte class), while plain malloc happily would.
        let odd = h.malloc(96).unwrap(); // chunk 112
        let _hold = h.malloc(64).unwrap();
        // SAFETY: odd is live.
        unsafe { h.free(odd) };
        assert_eq!(h.stats().binned, 112);
        let mut out = [0usize; 1];
        let n = h.malloc_batch(80, &mut out); // chunk 96
        assert_eq!(n, 1);
        let base = h.arena.base().as_ptr() as usize;
        // SAFETY: out[0] heads a live chunk.
        let size = unsafe { h.chunk_size(out[0] - base - HDR) };
        assert_eq!(size, 96);
        assert_eq!(h.stats().binned, 112, "the 112-byte chunk stays binned");
        // SAFETY: live, freed once.
        unsafe { h.free_batch(&out) };
        h.check_integrity().unwrap();
    }

    #[test]
    fn malloc_batch_stops_at_exhaustion() {
        let mut h = heap(8);
        let mut out = [0usize; 64];
        let n = h.malloc_batch(PAGE, &mut out);
        assert!(n > 0 && n < 64, "partial batch on a tiny arena: {n}");
        // SAFETY: exactly the first n are live.
        unsafe { h.free_batch(&out[..n]) };
        assert_eq!(h.stats().live, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn break_grows_into_mapped_reservation() {
        let mut h = RawHeap::new(Arena::map(PAGE * 8, PAGE * 2048, false).unwrap());
        // Demand far beyond the initial 8-page capacity is served by
        // on-demand Arena::grow instead of OutOfSpace.
        let p = h.malloc(PAGE * 64).unwrap();
        // SAFETY: fresh allocation of 64 pages.
        unsafe { std::ptr::write_bytes(p.as_ptr(), 0x3C, PAGE * 64) };
        assert!(h.stats().brk > PAGE * 8);
        assert_eq!(h.stats().backing_reserved, PAGE * 2048);
        // Exhaustion still reports once the reservation itself is spent.
        assert!(h.malloc(PAGE * 4096).is_none());
        // SAFETY: p live.
        unsafe { h.free(p) };
        h.check_integrity().unwrap();
    }

    #[test]
    fn decommit_tail_returns_trimmed_pages() {
        let mut h = heap(64);
        h.sbrk_commit(PAGE * 32).unwrap();
        h.trim(0);
        let freed = h.decommit_tail();
        let s = h.stats();
        assert!(freed > 0, "trimmed tail pages decommit");
        assert!(s.committed < s.backing_reserved);
        assert_eq!(s.decommitted, freed as u64);
        // Decommit-then-reuse: the dropped range is re-committed on the
        // next carve and fully usable.
        let p = h.malloc(PAGE * 8).unwrap();
        // SAFETY: fresh allocation of 8 pages.
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0x7E, PAGE * 8);
            h.free(p);
        }
        h.check_integrity().unwrap();
        assert!(h.decommit_tail() == 0 || h.stats().decommitted > freed as u64);
    }

    #[test]
    fn split_leaves_usable_remainder() {
        let mut h = heap(64);
        let a = h.malloc(2048).unwrap();
        let _hold = h.malloc(64).unwrap();
        // SAFETY: a live.
        unsafe { h.free(a) };
        // A small request splits the 2 KiB free chunk.
        let b = h.malloc(100).unwrap();
        assert_eq!(b, a);
        let c = h.malloc(100).unwrap();
        // Remainder sits right after b.
        assert!(c.as_ptr() as usize > b.as_ptr() as usize);
        h.check_integrity().unwrap();
    }
}
