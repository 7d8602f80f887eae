//! Memory arenas backing the real Hermes allocator.
//!
//! An [`Arena`] is a large, page-aligned virtual region whose physical
//! pages materialise on first touch — exactly the on-demand mapping
//! behaviour the paper analyses. It is a raw `MAP_NORESERVE` mapping from
//! the [`crate::platform`] layer (`Arena::map` / `Arena::reserve`): the
//! arena reserves a large address range up front and exposes only a
//! prefix as `capacity`, which [`Arena::grow`] extends on demand without
//! moving the base. Cold ranges can be returned to the kernel with
//! [`Arena::decommit`] (`MADV_DONTNEED`). The platform layer never
//! calls back into the Rust allocator, so arenas are safe to build under
//! `#[global_allocator]`.
//!
//! "Constructing the virtual-physical mapping" is [`Arena::touch`]. The
//! paper delegates this to the kernel via `mlock(2)`, which it measures
//! as ≥40 % faster than touching pages; an arena delegates it too, with
//! one `MADV_POPULATE_WRITE` per range ([`Platform::populate`]), and
//! writes to each page itself only where the kernel refuses that (the
//! substitution is recorded in DESIGN.md §1).
//!
//! A *huge* arena (the runtime's heaps) is backed by 4 KiB pages below
//! [`THP_FLOOR`] and by transparent huge pages above it, and keeps its
//! capacity a whole number of huge pages there, so the heap can book
//! what it commits in the units the kernel backs (DESIGN.md §8).
//!
//! [`Platform::populate`]: crate::platform::Platform::populate

use crate::platform::{platform, HUGE_PAGE_SIZE};
use std::fmt;
use std::ptr::NonNull;

/// Page size assumed by the allocator (4 KiB).
pub const PAGE: usize = 4096;

/// Offset below which a huge arena stays on 4 KiB pages: four huge
/// pages. Below it, rounding each commit up to a huge page would book a
/// small heap up to 2 MiB more than it uses; above it, huge pages widen
/// the TLB's reach over a large heap (DESIGN.md §8).
pub const THP_FLOOR: usize = 4 * HUGE_PAGE_SIZE;

/// Errors from arena management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// The backing reservation failed (platform refused the mapping).
    ReserveFailed,
    /// A zero or non-page-multiple capacity was requested.
    BadCapacity,
    /// A grow request would exceed the reserved address range.
    ReservationExhausted,
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::ReserveFailed => write!(f, "arena reservation failed"),
            ArenaError::BadCapacity => write!(f, "arena capacity must be a positive page multiple"),
            ArenaError::ReservationExhausted => {
                write!(f, "arena grow would exceed its reserved address range")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// A page-aligned virtual region with explicit touch (commit) control:
/// a platform reservation of `reserved` bytes at alignment `align`, of
/// which `capacity` exposes a growable prefix.
pub struct Arena {
    base: NonNull<u8>,
    capacity: usize,
    reserved: usize,
    align: usize,
    huge: bool,
}

// SAFETY: the arena exclusively owns its region; all access goes through
// `&self`/`&mut self` methods whose callers provide synchronisation.
unsafe impl Send for Arena {}
// SAFETY: as above; `touch` takes `&self` but writes are per-page
// idempotent stores used only under the embedding allocator's locks.
unsafe impl Sync for Arena {}

impl Arena {
    /// Reserves a fixed-size arena of `capacity` bytes (page multiple).
    ///
    /// Equivalent to [`Arena::map`] with `reserved == capacity` and no
    /// huge-page hint: the region is *virtual* (no physical pages until
    /// touched on an overcommitting kernel) but cannot grow.
    ///
    /// # Errors
    ///
    /// [`ArenaError::BadCapacity`] for a zero or unaligned capacity,
    /// [`ArenaError::ReserveFailed`] if the platform refuses.
    pub fn reserve(capacity: usize) -> Result<Arena, ArenaError> {
        Arena::map(capacity, capacity, false)
    }

    /// Maps an arena that exposes `capacity` bytes out of a `reserved`
    /// byte address-range reservation (both page multiples,
    /// `capacity <= reserved`). [`Arena::grow`] extends the exposed
    /// prefix up to `reserved` without moving the base.
    ///
    /// Reservations of at least one huge page are aligned to 2 MiB. When
    /// `huge` is set, `[0, THP_FLOOR)` is hinted `MADV_NOHUGEPAGE` and
    /// `[THP_FLOOR, reserved)` `MADV_HUGEPAGE` (best-effort), and a
    /// capacity above the floor is rounded up to whole huge pages.
    ///
    /// # Errors
    ///
    /// [`ArenaError::BadCapacity`] for zero/unaligned sizes or
    /// `capacity > reserved`, [`ArenaError::ReserveFailed`] if the
    /// platform refuses the reservation.
    pub fn map(capacity: usize, reserved: usize, huge: bool) -> Result<Arena, ArenaError> {
        if capacity == 0 || capacity % PAGE != 0 || reserved % PAGE != 0 || capacity > reserved {
            return Err(ArenaError::BadCapacity);
        }
        let p = platform();
        let align = if reserved >= HUGE_PAGE_SIZE {
            HUGE_PAGE_SIZE
        } else {
            PAGE
        };
        let base = p
            .reserve(reserved, align)
            .map_err(|_| ArenaError::ReserveFailed)?;
        if huge {
            let floor = THP_FLOOR.min(reserved);
            // SAFETY: both ranges lie in the freshly reserved, unaliased
            // range.
            unsafe {
                p.huge_page_hint(base, floor, false);
                p.huge_page_hint(
                    NonNull::new_unchecked(base.as_ptr().add(floor)),
                    reserved - floor,
                    true,
                );
            }
        }
        let mut arena = Arena {
            base,
            capacity,
            reserved,
            align,
            huge,
        };
        arena.capacity = arena.backed_end(capacity).min(reserved);
        Ok(arena)
    }

    /// Base pointer of the region.
    pub fn base(&self) -> NonNull<u8> {
        self.base
    }

    /// Usable capacity in bytes (page multiple): the currently exposed
    /// prefix of [`Arena::reserved`].
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total reserved address range in bytes — the ceiling [`Arena::grow`]
    /// can extend [`Arena::capacity`] to. Equals `capacity` for fixed
    /// reservations.
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Extends the usable capacity by `extra` bytes (positive page
    /// multiple) within the existing reservation, and above
    /// [`THP_FLOOR`] of a huge arena on to the next huge-page boundary.
    /// The base pointer and all previously handed-out offsets remain
    /// valid; new pages remain virtual until touched, and no page call
    /// is made. Returns the new capacity.
    ///
    /// # Errors
    ///
    /// [`ArenaError::BadCapacity`] for a zero or unaligned `extra`,
    /// [`ArenaError::ReservationExhausted`] when the reservation cannot
    /// accommodate the growth.
    pub fn grow(&mut self, extra: usize) -> Result<usize, ArenaError> {
        if extra == 0 || extra % PAGE != 0 {
            return Err(ArenaError::BadCapacity);
        }
        let new_cap = self
            .capacity
            .checked_add(extra)
            .ok_or(ArenaError::ReservationExhausted)?;
        if new_cap > self.reserved {
            return Err(ArenaError::ReservationExhausted);
        }
        self.capacity = self.backed_end(new_cap).min(self.reserved);
        Ok(self.capacity)
    }

    /// `end` rounded up to the end of the page the kernel backs byte
    /// `end - 1` with: a huge page above [`THP_FLOOR`] of a huge arena,
    /// a 4 KiB page elsewhere. Not clamped to the capacity.
    pub(crate) fn backed_end(&self, end: usize) -> usize {
        if self.huge && end > THP_FLOOR {
            end.div_ceil(HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE
        } else {
            end.div_ceil(PAGE) * PAGE
        }
    }

    /// Returns the physical pages of `[offset, offset+len)` to the
    /// kernel. The inner page-aligned sub-range is decommitted; reads
    /// from it yield zeros afterwards and the address range stays usable.
    /// Returns the number of bytes actually decommitted (0 when the
    /// kernel refuses, or for ranges smaller than a page).
    ///
    /// # Safety
    ///
    /// The range must hold no live allocator data: on success its
    /// contents are lost (zero-filled on next touch).
    pub unsafe fn decommit(&self, offset: usize, len: usize) -> usize {
        let Some(end) = offset.checked_add(len) else {
            return 0;
        };
        if end > self.capacity {
            return 0;
        }
        // Shrink to the page-aligned interior so partial boundary pages
        // (which may hold live neighbours) are never dropped.
        let start = offset.div_ceil(PAGE) * PAGE;
        let stop = end / PAGE * PAGE;
        if stop <= start {
            return 0;
        }
        // SAFETY: the interior range is inside the live mapping; the
        // caller guarantees it holds no live data.
        let ok = unsafe {
            platform().decommit(
                NonNull::new_unchecked(self.base.as_ptr().add(start)),
                stop - start,
            )
        };
        if ok {
            stop - start
        } else {
            0
        }
    }

    /// `true` if `ptr` lies inside the region's reserved range.
    pub fn contains(&self, ptr: *const u8) -> bool {
        let a = self.base.as_ptr() as usize;
        let p = ptr as usize;
        p >= a && p < a + self.reserved
    }

    /// Pointer at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `offset > capacity`.
    #[inline]
    pub fn at(&self, offset: usize) -> *mut u8 {
        debug_assert!(offset <= self.capacity, "offset out of arena");
        // SAFETY: offset is within the reserved region per the assert;
        // callers never dereference past `capacity`.
        unsafe { self.base.as_ptr().add(offset) }
    }

    /// Constructs the virtual-physical mapping for the pages covering
    /// `[offset, offset+len)` (zero-fill commit; a page already present
    /// keeps its contents). The kernel is asked to populate them in one
    /// call; where it refuses, each page is written back to itself.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the arena.
    pub fn touch(&self, offset: usize, len: usize) {
        assert!(
            offset.checked_add(len).is_some_and(|e| e <= self.capacity),
            "touch range out of arena"
        );
        if len == 0 {
            return;
        }
        let first = offset / PAGE * PAGE;
        // `capacity` is a page multiple, so the rounded range stays
        // inside it.
        let end = (offset + len).div_ceil(PAGE) * PAGE;
        // SAFETY: `[first, end)` is page aligned and inside the live
        // reservation.
        unsafe {
            populate(
                NonNull::new_unchecked(self.base.as_ptr().add(first)),
                end - first,
            )
        };
    }
}

/// Builds the mappings of the page-aligned `[start, start+len)`: one
/// [`Platform::populate`](crate::platform::Platform::populate), or, where
/// the kernel refuses it, a write of each page back to itself. A page
/// already present keeps its contents. Needs no [`Arena`], so a range
/// taken out of a pool can be populated with no lock held.
///
/// # Safety
///
/// The range must lie inside a live reservation's exposed capacity and
/// be page aligned, and no other thread may write to it meanwhile.
pub(crate) unsafe fn populate(start: NonNull<u8>, len: usize) {
    // SAFETY: forwarded caller contract.
    if !unsafe { platform().populate(start, len) } {
        // SAFETY: forwarded caller contract.
        unsafe { write_back(start, len) };
    }
}

/// The fallback of [`populate`]: faults in each page of the page-aligned
/// `[start, start+len)` by writing it back to itself, with no page call.
///
/// # Safety
///
/// As [`populate`]: unlike `MADV_POPULATE_WRITE`, the read-then-write
/// would lose a concurrent store.
pub(crate) unsafe fn write_back(start: NonNull<u8>, len: usize) {
    let mut page = 0;
    while page < len {
        // SAFETY: the page is inside the range; volatile prevents the
        // store from being elided, forcing a real fault.
        unsafe {
            let p = start.as_ptr().add(page);
            std::ptr::write_volatile(p, std::ptr::read_volatile(p));
        }
        page += PAGE;
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("base", &self.base.as_ptr())
            .field("capacity", &self.capacity)
            .field("reserved", &self.reserved)
            .field("huge", &self.huge)
            .finish()
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // SAFETY: base/reserved/align are the platform reservation's own
        // parameters; the arena is being destroyed so nothing aliases the
        // range.
        unsafe { platform().release(self.base, self.reserved, self.align) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_validates_capacity() {
        assert!(matches!(Arena::reserve(0), Err(ArenaError::BadCapacity)));
        assert!(Arena::reserve(PAGE + 1).is_err());
        assert!(Arena::reserve(PAGE * 4).is_ok());
    }

    #[test]
    fn contains_and_at() {
        let a = Arena::reserve(PAGE * 4).unwrap();
        assert!(a.contains(a.at(0)));
        assert!(a.contains(a.at(PAGE * 4 - 1)));
        assert!(!a.contains(a.at(PAGE * 4)));
        assert_eq!(a.capacity(), PAGE * 4);
        assert_eq!(a.reserved(), PAGE * 4);
    }

    #[test]
    fn touch_commits_whole_range() {
        let a = Arena::reserve(PAGE * 8).unwrap();
        a.touch(100, PAGE * 2); // straddles three pages
        a.touch(0, 0); // no-op
                       // Write/read through the touched range to prove validity.
        unsafe {
            *a.at(100) = 7;
            assert_eq!(*a.at(100), 7);
        }
    }

    #[test]
    fn touch_keeps_contents_of_a_committed_range() {
        let a = Arena::map(PAGE * 8, PAGE * 8, false).unwrap();
        unsafe {
            *a.at(PAGE * 2 + 17) = 0x5A;
            *a.at(PAGE * 4 - 1) = 0x5B;
        }
        // Starts mid-page, covers both written pages, ends beyond them.
        a.touch(PAGE * 2 + 100, PAGE * 3);
        unsafe {
            assert_eq!(*a.at(PAGE * 2 + 17), 0x5A);
            assert_eq!(*a.at(PAGE * 4 - 1), 0x5B);
        }
    }

    #[test]
    #[should_panic(expected = "touch range out of arena")]
    fn touch_rejects_out_of_range() {
        let a = Arena::reserve(PAGE).unwrap();
        a.touch(0, PAGE + 1);
    }

    #[test]
    fn map_validates_sizes() {
        assert!(matches!(
            Arena::map(PAGE * 8, PAGE * 4, false),
            Err(ArenaError::BadCapacity)
        ));
        assert!(matches!(
            Arena::map(0, PAGE * 4, false),
            Err(ArenaError::BadCapacity)
        ));
        assert!(Arena::map(PAGE * 4, PAGE * 8, false).is_ok());
    }

    #[test]
    fn grow_extends_capacity_up_to_reservation() {
        let mut a = Arena::map(PAGE * 2, PAGE * 8, false).unwrap();
        assert_eq!(a.capacity(), PAGE * 2);
        assert_eq!(a.reserved(), PAGE * 8);
        let base_before = a.base().as_ptr();

        assert_eq!(a.grow(PAGE * 4), Ok(PAGE * 6));
        assert_eq!(a.capacity(), PAGE * 6);
        assert_eq!(
            a.base().as_ptr(),
            base_before,
            "grow must not move the base"
        );
        // The grown range is usable on-demand memory.
        a.touch(PAGE * 2, PAGE * 4);
        unsafe {
            *a.at(PAGE * 6 - 1) = 5;
            assert_eq!(*a.at(PAGE * 6 - 1), 5);
        }

        assert_eq!(a.grow(PAGE * 3), Err(ArenaError::ReservationExhausted));
        assert_eq!(a.grow(0), Err(ArenaError::BadCapacity));
        assert_eq!(a.grow(PAGE * 2), Ok(PAGE * 8));
        assert_eq!(a.grow(PAGE), Err(ArenaError::ReservationExhausted));
    }

    #[test]
    fn huge_reservations_are_huge_page_aligned() {
        use crate::platform::HUGE_PAGE_SIZE;
        let a = Arena::map(PAGE * 16, HUGE_PAGE_SIZE * 2, true).unwrap();
        assert_eq!(a.base().as_ptr() as usize % HUGE_PAGE_SIZE, 0);
        a.touch(0, PAGE * 16);
    }

    /// A huge arena's capacity above the floor is whole huge pages.
    #[test]
    fn huge_arena_capacity_rounds_above_the_floor() {
        use crate::platform::HUGE_PAGE_SIZE;
        let mut a = Arena::map(THP_FLOOR + PAGE, 2 * THP_FLOOR, true).unwrap();
        assert_eq!(a.capacity(), THP_FLOOR + HUGE_PAGE_SIZE);
        assert_eq!(a.grow(PAGE), Ok(THP_FLOOR + 2 * HUGE_PAGE_SIZE));
        assert_eq!(a.backed_end(THP_FLOOR), THP_FLOOR);
        assert_eq!(a.backed_end(PAGE + 1), 2 * PAGE);
        let small = Arena::map(PAGE * 3, THP_FLOOR * 2, false).unwrap();
        assert_eq!(small.capacity(), PAGE * 3);
        assert_eq!(small.backed_end(THP_FLOOR + 1), THP_FLOOR + PAGE);
    }

    /// The kernel sees the floor: `/proc/self/smaps` reports the range
    /// below it ineligible for huge pages, the range above it eligible.
    #[test]
    fn huge_arena_is_thp_eligible_above_the_floor_only() {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if !thp.contains("[always]") && !thp.contains("[madvise]") {
            eprintln!("skipped: transparent huge pages are off on this host ({thp:?})");
            return;
        }
        let a = Arena::map(PAGE * 16, 2 * THP_FLOOR, true).unwrap();
        let base = a.base().as_ptr() as usize;
        // Hold the smaps text in one read, so the lookups see one state.
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let eligible = |addr: usize| -> Option<bool> {
            let mut inside = false;
            for line in smaps.lines() {
                let head = line.split_whitespace().next().unwrap_or("");
                if let Some((lo, hi)) = head.split_once('-') {
                    if let (Ok(lo), Ok(hi)) =
                        (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                    {
                        inside = lo <= addr && addr < hi;
                        continue;
                    }
                }
                if inside {
                    if let Some(v) = line.strip_prefix("THPeligible:") {
                        return Some(v.trim() == "1");
                    }
                }
            }
            None
        };
        let (Some(below), Some(above)) = (eligible(base), eligible(base + THP_FLOOR)) else {
            eprintln!("skipped: this kernel's smaps has no THPeligible field");
            return;
        };
        assert!(!below, "below the floor: 4 KiB pages");
        assert!(above, "above the floor: huge pages");
        assert_eq!(eligible(base + THP_FLOOR - PAGE), Some(false));
        assert_eq!(eligible(base + 2 * THP_FLOOR - PAGE), Some(true));
    }

    #[test]
    fn decommit_then_reuse_round_trip() {
        let a = Arena::map(PAGE * 8, PAGE * 8, false).unwrap();
        a.touch(0, PAGE * 8);
        unsafe {
            *a.at(PAGE * 2) = 0x5A;
            *a.at(PAGE * 3 - 1) = 0x5B;
            // Unaligned request: only the interior pages may be dropped.
            let freed = a.decommit(PAGE * 2 + 1, PAGE * 4 - 2);
            assert_eq!(freed, PAGE * 2, "interior pages decommitted");
            // Boundary pages keep their data; interior reads as zero.
            assert_eq!(*a.at(PAGE * 2), 0x5A);
            assert_eq!(*a.at(PAGE * 3 - 1), 0x5B);
            assert_eq!(*a.at(PAGE * 3), 0);
            assert_eq!(*a.at(PAGE * 4), 0);
            // Reuse after decommit: touch and write again.
            a.touch(PAGE * 3, PAGE * 2);
            *a.at(PAGE * 3) = 0x77;
            assert_eq!(*a.at(PAGE * 3), 0x77);
        }
    }

    #[test]
    fn decommit_out_of_range_is_refused() {
        let a = Arena::map(PAGE * 2, PAGE * 4, false).unwrap();
        // Beyond current capacity (even though inside the reservation).
        unsafe {
            assert_eq!(a.decommit(PAGE * 2, PAGE), 0);
            assert_eq!(a.decommit(0, usize::MAX), 0);
        }
    }
}
