//! `#[global_allocator]` facade (R3: applications need no source changes
//! beyond installing the allocator).
//!
//! ```ignore
//! use hermes_core::rt::Hermes;
//!
//! #[global_allocator]
//! static ALLOC: Hermes = Hermes;
//!
//! fn main() {
//!     // Optional but recommended: boots the arenas eagerly and starts
//!     // the memory management thread.
//!     Hermes::init();
//!     // ... the whole program now allocates through Hermes ...
//! }
//! ```
//!
//! # Bootstrap design
//!
//! The first allocation may arrive before `main` (e.g. from the runtime),
//! and constructing the allocator itself allocates (shard and routing
//! tables). A tiny static bump arena serves allocations while the real
//! heap is being built; its pointers are recognised by address range and
//! their frees are no-ops. The heap itself is an ordinary
//! [`HermesHeap::new`] over the default configuration: per-shard arenas
//! lazily *mapped* straight from the kernel (`mmap`, sized by
//! `HERMES_HEAP_MB` / `HERMES_LARGE_MB`, reserving `reserve_factor`× for
//! on-demand growth), so the bootstrap never calls the (self-referential)
//! system allocator.

use super::{HermesHeap, HermesHeapConfig};
use crate::config::{default_arena_count, default_heap_capacity};
use std::alloc::{GlobalAlloc, Layout};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

/// Floor on each shard's main-heap slice. Caps the global arena count at
/// `HERMES_HEAP_MB / GLOBAL_MIN_SLICE` (8 at the default 256 MiB)
/// regardless of `HERMES_ARENAS`, keeping every large slice at ≥ 64 MB at
/// the default sizes. Sharding bounds the *single largest* allocation the
/// global allocator can serve at one large slice's reservation; see
/// DESIGN.md §4.
const GLOBAL_MIN_SLICE: usize = 32 << 20;
/// Bootstrap arena capacity. Serves the heap's construction-time
/// allocations (shard and routing tables, environment reads), and any
/// other thread's, while `STATE == INITING`.
const BOOT_CAPACITY: usize = 4 << 20;

#[repr(align(4096))]
struct BootBacking(UnsafeCell<[u8; BOOT_CAPACITY]>);
// SAFETY: access is mediated by the allocator's own synchronisation.
unsafe impl Sync for BootBacking {}

static BOOT_BACKING: BootBacking = BootBacking(UnsafeCell::new([0; BOOT_CAPACITY]));
static BOOT_NEXT: AtomicUsize = AtomicUsize::new(0);

const UNINIT: u8 = 0;
const INITING: u8 = 1;
const READY: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static MANAGER_STARTED: AtomicBool = AtomicBool::new(false);

struct GlobalCell(UnsafeCell<MaybeUninit<HermesHeap>>);
// SAFETY: written once (guarded by STATE), read-only afterwards.
unsafe impl Sync for GlobalCell {}
static GLOBAL: GlobalCell = GlobalCell(UnsafeCell::new(MaybeUninit::uninit()));

fn boot_range() -> (usize, usize) {
    let base = BOOT_BACKING.0.get() as usize;
    (base, base + BOOT_CAPACITY)
}

fn boot_alloc(layout: Layout) -> *mut u8 {
    let base = BOOT_BACKING.0.get() as usize;
    let align = layout.align().max(16);
    loop {
        let cur = BOOT_NEXT.load(Ordering::Relaxed);
        let start = (base + cur).div_ceil(align) * align - base;
        let end = start + layout.size();
        if end > BOOT_CAPACITY {
            return ptr::null_mut();
        }
        if BOOT_NEXT
            .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return (base + start) as *mut u8;
        }
    }
}

/// The global heap's shard count: `HERMES_ARENAS` (or the CPU count),
/// capped by [`GLOBAL_MIN_SLICE`].
fn global_arena_count() -> usize {
    default_arena_count().clamp(1, (default_heap_capacity() / GLOBAL_MIN_SLICE).max(1))
}

fn try_init() {
    if STATE
        .compare_exchange(UNINIT, INITING, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return; // someone else is initialising or it is done
    }
    // Allocations made while constructing the heap are served by the
    // bootstrap arena because STATE == INITING.
    // A process whose allocator cannot map its backing has no way to
    // continue, and panicking here would itself allocate.
    let heap = HermesHeap::new(HermesHeapConfig {
        arenas: global_arena_count(),
        ..HermesHeapConfig::default()
    })
    .unwrap_or_else(|_| std::process::abort());
    // SAFETY: sole writer (we won the CAS); readers wait for READY.
    unsafe { (*GLOBAL.0.get()).write(heap) };
    STATE.store(READY, Ordering::Release);
}

fn global() -> Option<&'static HermesHeap> {
    if STATE.load(Ordering::Acquire) == READY {
        // SAFETY: READY implies the cell was written and is never mutated.
        Some(unsafe { (*GLOBAL.0.get()).assume_init_ref() })
    } else {
        None
    }
}

/// Zero-sized global-allocator handle. See the module docs for usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hermes;

impl Hermes {
    /// Forces initialisation and starts the memory management thread.
    ///
    /// Safe to call multiple times; returns a handle to the underlying
    /// heap for stats inspection.
    pub fn init() -> &'static HermesHeap {
        try_init();
        while STATE.load(Ordering::Acquire) != READY {
            std::hint::spin_loop();
        }
        let heap = global().expect("state is READY");
        if !MANAGER_STARTED.swap(true, Ordering::AcqRel) {
            heap.start_manager();
        }
        heap
    }

    /// The underlying heap, if initialised.
    pub fn heap() -> Option<&'static HermesHeap> {
        global()
    }

    /// Bytes served from the bootstrap arena (diagnostics).
    pub fn bootstrap_used() -> usize {
        BOOT_NEXT.load(Ordering::Relaxed)
    }
}

// SAFETY: alloc/dealloc follow the GlobalAlloc contract; pointers are
// routed by address range between the bootstrap arena and the heap, and
// layouts are honoured by the underlying allocators.
unsafe impl GlobalAlloc for Hermes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(h) = global() {
            return h
                .allocate(layout)
                .map(NonNull::as_ptr)
                .unwrap_or(ptr::null_mut());
        }
        try_init();
        match global() {
            Some(h) => h
                .allocate(layout)
                .map(NonNull::as_ptr)
                .unwrap_or(ptr::null_mut()),
            // Another thread is mid-initialisation: bootstrap serves us.
            None => boot_alloc(layout),
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (b0, b1) = boot_range();
        let addr = ptr as usize;
        if addr >= b0 && addr < b1 {
            return; // bootstrap memory is never reclaimed
        }
        if let Some(h) = global() {
            // SAFETY: non-bootstrap pointers were produced by `h.allocate`.
            unsafe { h.deallocate(NonNull::new_unchecked(ptr), layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests exercise Hermes as an *explicit* allocator object;
    // the crate's integration test `global_alloc.rs` installs it as the
    // real `#[global_allocator]` for an entire test binary.

    #[test]
    fn init_is_idempotent_and_returns_heap() {
        let h1 = Hermes::init();
        let h2 = Hermes::init();
        assert!(std::ptr::eq(h1, h2));
        assert!(Hermes::heap().is_some());
    }

    #[test]
    fn alloc_roundtrip_through_global_api() {
        let a = Hermes;
        let layout = Layout::from_size_align(777, 32).unwrap();
        // SAFETY: standard GlobalAlloc usage with matching layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(p as usize % 32, 0);
            ptr::write_bytes(p, 0x42, 777);
            a.dealloc(p, layout);
        }
    }

    #[test]
    fn large_path_through_global_api() {
        let a = Hermes;
        let layout = Layout::from_size_align(512 * 1024, 4096).unwrap();
        // SAFETY: standard GlobalAlloc usage with matching layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            ptr::write_bytes(p, 0x17, 512 * 1024);
            a.dealloc(p, layout);
        }
    }

    #[test]
    fn global_boot_is_mapped_and_lazy() {
        use crate::config::default_large_capacity;
        let h = Hermes::init();
        let n = global_arena_count();
        assert_eq!(h.arena_count(), n, "the slice floor caps the shard count");
        let factor = HermesHeapConfig::default().reserve_factor;
        let large_per = crate::rt::per_shard_capacity(default_large_capacity(), n);
        for i in 0..n {
            assert_eq!(
                h.arena_stats(i).large.backing_reserved,
                factor * large_per,
                "arena {i} reserves {factor}x its large slice"
            );
        }
        let s = h.arena_stats(0);
        assert!(
            s.heap.backing_reserved > s.heap.brk,
            "mapped boot leaves growth headroom: reserved {} vs brk {}",
            s.heap.backing_reserved,
            s.heap.brk
        );
        assert!(
            s.heap.committed <= s.heap.backing_reserved,
            "commit accounting stays within the reservation"
        );
    }

    #[test]
    fn bootstrap_pointers_are_ignored_on_free() {
        let layout = Layout::from_size_align(64, 16).unwrap();
        let p = boot_alloc(layout);
        assert!(!p.is_null());
        let a = Hermes;
        // SAFETY: freeing a bootstrap pointer must be a safe no-op.
        unsafe { a.dealloc(p, layout) };
        assert!(Hermes::bootstrap_used() >= 64);
    }
}
