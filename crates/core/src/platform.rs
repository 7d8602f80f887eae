//! OS page-management platform layer.
//!
//! The paper's runtime owns its virtual-physical mappings: it reserves
//! large regions up front, commits lazily on demand, and returns cold
//! pages to the kernel from the management thread. This module is the
//! seam between that policy code and the operating system.
//!
//! The one implementation, [`LinuxPlatform`], issues raw `mmap`,
//! `munmap`, `madvise` and `sched_setaffinity` syscalls via inline
//! assembly — the workspace vendors no `libc`, and the global allocator
//! cannot call anything that allocates. The crate therefore builds for
//! Linux on x86_64 and aarch64 only. The trait keeps the unsafe syscalls
//! behind one interface, which a fault-injecting test platform can
//! implement too.
//!
//! All hint-style operations ([`Platform::commit`],
//! [`Platform::populate`], [`Platform::decommit`],
//! [`Platform::huge_page_hint`]) are best-effort: failure is reported
//! via the return value, never panics, and callers must stay correct
//! when a hint is refused.

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "hermes-core supports Linux on x86_64 and aarch64 only: its platform layer issues raw syscalls"
);

use std::fmt;
use std::ptr::NonNull;

/// Small-page size assumed by the allocator (4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// Transparent-huge-page size on x86_64/aarch64 Linux (2 MiB). Mapped
/// arena reservations are aligned to this so the kernel *can* back them
/// with huge pages when [`Platform::huge_page_hint`] succeeds.
pub const HUGE_PAGE_SIZE: usize = 2 << 20;

/// Errors from the platform layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformError {
    /// The kernel refused the reservation.
    ReserveFailed,
    /// A zero length, or a length/alignment that is not a page multiple.
    BadRequest,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::ReserveFailed => write!(f, "platform reservation failed"),
            PlatformError::BadRequest => {
                write!(f, "platform request must be a positive page multiple")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// Page-management primitives the runtime builds on.
///
/// Implementations must be stateless or internally synchronised: one
/// `'static` instance (see [`platform()`]) is shared by every arena and
/// by the global allocator's bootstrap, which runs before `main`.
pub trait Platform: Send + Sync {
    /// Reserves `len` bytes of address space aligned to `align` bytes.
    ///
    /// The reservation is virtual (`MAP_NORESERVE`): physical pages
    /// materialise on first touch. `align` must be a power-of-two
    /// multiple of the page size; `len` a positive page multiple.
    ///
    /// # Errors
    ///
    /// [`PlatformError::BadRequest`] for invalid sizes,
    /// [`PlatformError::ReserveFailed`] if the system refuses.
    fn reserve(&self, len: usize, align: usize) -> Result<NonNull<u8>, PlatformError>;

    /// Releases a reservation previously returned by [`Platform::reserve`]
    /// with the same `len` and `align`.
    ///
    /// # Safety
    ///
    /// `base` must come from `reserve(len, align)` on this platform and
    /// must not be used afterwards.
    unsafe fn release(&self, base: NonNull<u8>, len: usize, align: usize);

    /// Hints that `[base, base+len)` will be used soon (`MADV_WILLNEED`).
    /// Purely advisory: it builds no mapping. [`Platform::populate`] or a
    /// write to each page does.
    ///
    /// # Safety
    ///
    /// The range must lie inside a live reservation.
    unsafe fn commit(&self, base: NonNull<u8>, len: usize);

    /// Builds the mappings of `[base, base+len)` in one call
    /// (`MADV_POPULATE_WRITE`): every page is faulted in writable, and a
    /// page already present keeps its contents. Returns `false` when the
    /// kernel refuses (Linux < 5.14 answers `EINVAL`), and the caller then
    /// writes to each page itself.
    ///
    /// # Safety
    ///
    /// The range must lie inside a live reservation and be page aligned.
    unsafe fn populate(&self, base: NonNull<u8>, len: usize) -> bool;

    /// Returns the physical pages behind `[base, base+len)` to the kernel
    /// (`MADV_DONTNEED`); the range stays reserved and reads as zeros
    /// afterwards. Returns `false` when the kernel refuses (the pages
    /// then simply stay resident).
    ///
    /// # Safety
    ///
    /// The range must lie inside a live reservation, be page aligned, and
    /// hold no live data: on success its contents are lost.
    unsafe fn decommit(&self, base: NonNull<u8>, len: usize) -> bool;

    /// Asks the kernel to back the range with transparent huge pages
    /// (`MADV_HUGEPAGE`). Returns `false` when refused (THP disabled) —
    /// callers proceed on small pages.
    ///
    /// # Safety
    ///
    /// The range must lie inside a live reservation.
    unsafe fn huge_page_hint(&self, base: NonNull<u8>, len: usize) -> bool;

    /// Pins the calling thread to `cpu` (`sched_setaffinity(2)`), the
    /// SpeedMalloc dedicated-management-core model. Best-effort: returns
    /// `false` when refused (offline cpu, cgroup cpuset exclusion) and
    /// the thread stays kernel-scheduled.
    fn pin_thread_to_cpu(&self, cpu: usize) -> bool;
}

fn check_request(len: usize, align: usize) -> Result<(), PlatformError> {
    if len == 0 || len % PAGE_SIZE != 0 || !align.is_power_of_two() || align % PAGE_SIZE != 0 {
        return Err(PlatformError::BadRequest);
    }
    Ok(())
}

/// The process-wide platform instance.
pub fn platform() -> &'static dyn Platform {
    static P: LinuxPlatform = LinuxPlatform;
    &P
}

/// Linux implementation over raw syscalls (no libc).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinuxPlatform;

mod linux {
    //! Raw syscall plumbing. Numbers and flag values are part of the
    //! kernel ABI and stable per architecture.

    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const MMAP: usize = 9;
        pub const MUNMAP: usize = 11;
        pub const MADVISE: usize = 28;
        pub const SCHED_SETAFFINITY: usize = 203;
    }

    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const MMAP: usize = 222;
        pub const MUNMAP: usize = 215;
        pub const MADVISE: usize = 233;
        pub const SCHED_SETAFFINITY: usize = 122;
    }

    pub const PROT_READ: usize = 1;
    pub const PROT_WRITE: usize = 2;
    pub const MAP_PRIVATE: usize = 2;
    pub const MAP_ANONYMOUS: usize = 0x20;
    pub const MAP_NORESERVE: usize = 0x4000;
    pub const MADV_WILLNEED: usize = 3;
    pub const MADV_DONTNEED: usize = 4;
    pub const MADV_HUGEPAGE: usize = 14;
    pub const MADV_POPULATE_WRITE: usize = 23;
    pub const EINVAL: isize = 22;

    /// Set once `MADV_POPULATE_WRITE` has been answered `EINVAL`: the
    /// kernel predates it (Linux < 5.14), so later calls skip the syscall.
    pub static POPULATE_UNSUPPORTED: core::sync::atomic::AtomicBool =
        core::sync::atomic::AtomicBool::new(false);

    /// Six-argument syscall.
    ///
    /// # Safety
    ///
    /// The caller must uphold the invoked syscall's own contract; the
    /// wrapper only handles register conventions.
    #[cfg(target_arch = "x86_64")]
    pub unsafe fn syscall6(
        num: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: register constraints follow the x86_64 Linux syscall
        // ABI; rcx/r11 are clobbered by the `syscall` instruction.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") num as isize => ret,
                in("rdi") a0,
                in("rsi") a1,
                in("rdx") a2,
                in("r10") a3,
                in("r8") a4,
                in("r9") a5,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    /// Six-argument syscall.
    ///
    /// # Safety
    ///
    /// As the x86_64 variant.
    #[cfg(target_arch = "aarch64")]
    pub unsafe fn syscall6(
        num: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: register constraints follow the aarch64 Linux syscall
        // ABI (`svc 0`, number in x8, args in x0..x5, result in x0).
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") num,
                inlateout("x0") a0 => ret,
                in("x1") a1,
                in("x2") a2,
                in("x3") a3,
                in("x4") a4,
                in("x5") a5,
                options(nostack)
            );
        }
        ret
    }

    /// `true` when a raw syscall return encodes `-errno`.
    pub fn is_err(ret: isize) -> bool {
        (-4095..0).contains(&ret)
    }
}

impl LinuxPlatform {
    /// Anonymous private `MAP_NORESERVE` mapping of `len` bytes, or null
    /// address on failure.
    fn mmap(&self, len: usize) -> Option<NonNull<u8>> {
        use linux::*;
        // SAFETY: anonymous mapping; no pointers are passed in.
        let ret = unsafe {
            syscall6(
                nr::MMAP,
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                usize::MAX, // fd = -1
                0,
            )
        };
        if is_err(ret) {
            return None;
        }
        NonNull::new(ret as *mut u8)
    }

    /// # Safety
    ///
    /// `[addr, addr+len)` must be an owned, mapped range.
    unsafe fn munmap(&self, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        // SAFETY: caller owns the range.
        unsafe { linux::syscall6(linux::nr::MUNMAP, addr, len, 0, 0, 0, 0) };
    }

    /// `madvise(2)`; the error is the kernel's `errno`.
    ///
    /// # Safety
    ///
    /// The range must lie inside a live mapping owned by the caller.
    unsafe fn madvise(&self, base: NonNull<u8>, len: usize, advice: usize) -> Result<(), isize> {
        if len == 0 {
            return Ok(());
        }
        // SAFETY: caller guarantees the range is a live mapping.
        let ret = unsafe {
            linux::syscall6(
                linux::nr::MADVISE,
                base.as_ptr() as usize,
                len,
                advice,
                0,
                0,
                0,
            )
        };
        if linux::is_err(ret) {
            Err(-ret)
        } else {
            Ok(())
        }
    }
}

impl Platform for LinuxPlatform {
    fn reserve(&self, len: usize, align: usize) -> Result<NonNull<u8>, PlatformError> {
        check_request(len, align)?;
        if align <= PAGE_SIZE {
            return self.mmap(len).ok_or(PlatformError::ReserveFailed);
        }
        // Over-map by the alignment, then trim the unaligned head and the
        // surplus tail back to the kernel so exactly `len` stays mapped.
        let total = len.checked_add(align).ok_or(PlatformError::BadRequest)?;
        let raw = self.mmap(total).ok_or(PlatformError::ReserveFailed)?;
        let addr = raw.as_ptr() as usize;
        let aligned = addr.div_ceil(align) * align;
        let head = aligned - addr;
        let tail = total - head - len;
        // SAFETY: both trims are sub-ranges of the mapping we just made.
        unsafe {
            self.munmap(addr, head);
            self.munmap(aligned + len, tail);
        }
        // SAFETY: `aligned` is inside the (non-null) mapping.
        Ok(unsafe { NonNull::new_unchecked(aligned as *mut u8) })
    }

    unsafe fn release(&self, base: NonNull<u8>, len: usize, _align: usize) {
        // SAFETY: forwarded from the caller's `reserve` contract.
        unsafe { self.munmap(base.as_ptr() as usize, len) };
    }

    unsafe fn commit(&self, base: NonNull<u8>, len: usize) {
        // SAFETY: forwarded caller contract.
        let _ = unsafe { self.madvise(base, len, linux::MADV_WILLNEED) };
    }

    unsafe fn populate(&self, base: NonNull<u8>, len: usize) -> bool {
        use core::sync::atomic::Ordering::Relaxed;
        if linux::POPULATE_UNSUPPORTED.load(Relaxed) {
            return false;
        }
        // SAFETY: forwarded caller contract; populating faults pages in
        // and leaves present ones untouched.
        match unsafe { self.madvise(base, len, linux::MADV_POPULATE_WRITE) } {
            Ok(()) => true,
            Err(errno) => {
                if errno == linux::EINVAL {
                    linux::POPULATE_UNSUPPORTED.store(true, Relaxed);
                }
                false
            }
        }
    }

    unsafe fn decommit(&self, base: NonNull<u8>, len: usize) -> bool {
        // SAFETY: forwarded caller contract; DONTNEED on an anonymous
        // private mapping drops the pages and keeps the range reserved.
        unsafe { self.madvise(base, len, linux::MADV_DONTNEED) }.is_ok()
    }

    unsafe fn huge_page_hint(&self, base: NonNull<u8>, len: usize) -> bool {
        // SAFETY: forwarded caller contract.
        unsafe { self.madvise(base, len, linux::MADV_HUGEPAGE) }.is_ok()
    }

    fn pin_thread_to_cpu(&self, cpu: usize) -> bool {
        // A fixed 1024-cpu mask (128 bytes) covers every mainstream host;
        // refusing larger indices keeps the mask on the stack.
        if cpu >= 1024 {
            return false;
        }
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: pid 0 targets the calling thread; the mask pointer is
        // valid for the stated 128-byte length for the whole call.
        let ret = unsafe {
            linux::syscall6(
                linux::nr::SCHED_SETAFFINITY,
                0,
                core::mem::size_of_val(&mask),
                mask.as_ptr() as usize,
                0,
                0,
                0,
            )
        };
        !linux::is_err(ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_requests() {
        let p = platform();
        assert_eq!(p.reserve(0, PAGE_SIZE), Err(PlatformError::BadRequest));
        assert_eq!(
            p.reserve(PAGE_SIZE + 1, PAGE_SIZE),
            Err(PlatformError::BadRequest)
        );
        assert_eq!(p.reserve(PAGE_SIZE, 3), Err(PlatformError::BadRequest));
        assert_eq!(
            p.reserve(PAGE_SIZE, PAGE_SIZE / 2),
            Err(PlatformError::BadRequest)
        );
    }

    #[test]
    fn reserve_honours_huge_page_alignment() {
        let p = platform();
        let len = 4 * HUGE_PAGE_SIZE;
        let base = p.reserve(len, HUGE_PAGE_SIZE).expect("reserve");
        assert_eq!(base.as_ptr() as usize % HUGE_PAGE_SIZE, 0);
        // The whole range must be usable.
        unsafe {
            std::ptr::write_volatile(base.as_ptr(), 1);
            std::ptr::write_volatile(base.as_ptr().add(len - 1), 2);
            assert_eq!(std::ptr::read_volatile(base.as_ptr()), 1);
            p.release(base, len, HUGE_PAGE_SIZE);
        }
    }

    #[test]
    fn decommit_zeroes_resident_pages() {
        let p = platform();
        let len = 8 * PAGE_SIZE;
        let base = p.reserve(len, PAGE_SIZE).expect("reserve");
        unsafe {
            std::ptr::write_volatile(base.as_ptr().add(PAGE_SIZE), 0xAB);
            assert!(p.decommit(base, len), "the kernel decommits");
            // The page came back zero-filled.
            assert_eq!(std::ptr::read_volatile(base.as_ptr().add(PAGE_SIZE)), 0);
            // The range stays reserved and writable after decommit.
            std::ptr::write_volatile(base.as_ptr().add(PAGE_SIZE), 0xCD);
            assert_eq!(std::ptr::read_volatile(base.as_ptr().add(PAGE_SIZE)), 0xCD);
            p.release(base, len, PAGE_SIZE);
        }
    }

    #[test]
    fn huge_page_probe_degrades_gracefully() {
        // The hint may be accepted or refused depending on the host's THP
        // configuration; both outcomes are valid. This asserts only that
        // probing never faults or corrupts the mapping.
        let p = platform();
        let len = 2 * HUGE_PAGE_SIZE;
        let base = p.reserve(len, HUGE_PAGE_SIZE).expect("reserve");
        unsafe {
            let _ = p.huge_page_hint(base, len);
            std::ptr::write_volatile(base.as_ptr(), 0x11);
            assert_eq!(std::ptr::read_volatile(base.as_ptr()), 0x11);
            p.release(base, len, HUGE_PAGE_SIZE);
        }
    }

    #[test]
    fn commit_hint_is_harmless() {
        let p = platform();
        let len = 2 * PAGE_SIZE;
        let base = p.reserve(len, PAGE_SIZE).expect("reserve");
        unsafe {
            p.commit(base, len);
            std::ptr::write_volatile(base.as_ptr().add(len - 1), 3);
            p.release(base, len, PAGE_SIZE);
        }
    }

    #[test]
    fn populate_prefaults_and_keeps_contents() {
        let p = platform();
        let len = 8 * PAGE_SIZE;
        let base = p.reserve(len, PAGE_SIZE).expect("reserve");
        unsafe {
            std::ptr::write_volatile(base.as_ptr().add(PAGE_SIZE), 0xAB);
            let populated = p.populate(base, len);
            assert!(
                populated || linux::POPULATE_UNSUPPORTED.load(std::sync::atomic::Ordering::Relaxed),
                "only a kernel without MADV_POPULATE_WRITE may refuse"
            );
            assert_eq!(std::ptr::read_volatile(base.as_ptr().add(2 * PAGE_SIZE)), 0);
            // Populating never rewrites a page that was already there.
            assert_eq!(std::ptr::read_volatile(base.as_ptr().add(PAGE_SIZE)), 0xAB);
            p.release(base, len, PAGE_SIZE);
        }
    }

    #[test]
    fn thread_pinning_is_best_effort() {
        let p = platform();
        // Pinning to cpu 0 may succeed or be refused (cpuset exclusion);
        // both are valid, but the thread must keep running either way.
        // An absurd cpu index must be refused, never fault. Run from a
        // scratch thread so a successful pin cannot constrain the rest
        // of the test suite's scheduling.
        std::thread::spawn(move || {
            let _ = p.pin_thread_to_cpu(0);
            assert!(!p.pin_thread_to_cpu(usize::MAX));
            assert!(!p.pin_thread_to_cpu(1024));
        })
        .join()
        .unwrap();
    }
}
