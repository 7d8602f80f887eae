//! Real wall-clock backends: the Hermes runtime and the process
//! allocator behind the same [`AllocatorBackend`] handle API.
//!
//! Unlike the simulated models, these allocate *actual memory* and
//! report *measured* `Instant` latencies. Every allocation is written
//! end to end after it is obtained — the paper measures allocation
//! latency through data insertion, so mapping-construction faults are
//! part of the cost, exactly as in the sims.

use crate::backend::{AllocatorBackend, BackendKind, BackendStats};
use crate::traits::AllocHandle;
use hermes_core::rt::{AllocError, ArenaError, HermesHeap, HermesHeapConfig, IntegrityError};
use hermes_sim::clock::{ClockHandle, WallClock};
use hermes_sim::time::SimDuration;
use std::alloc::Layout;
use std::fmt;
use std::ptr::NonNull;
use std::time::Instant;

/// Alignment of every backend allocation (matches the runtime's chunk
/// granularity).
const BACKEND_ALIGN: usize = 16;

/// One live real allocation.
#[derive(Clone, Copy)]
struct Slot {
    addr: usize,
    size: usize,
}

/// Handle table: slab of live allocations, handles are slot indices.
/// Freed slots are recycled, so long churny runs do not grow the table.
#[derive(Default)]
struct HandleTable {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    live_bytes: usize,
}

impl HandleTable {
    fn insert(&mut self, addr: usize, size: usize) -> AllocHandle {
        self.live_bytes += size;
        let slot = Slot { addr, size };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                AllocHandle(i as u64)
            }
            None => {
                self.slots.push(Some(slot));
                AllocHandle((self.slots.len() - 1) as u64)
            }
        }
    }

    fn get(&self, h: AllocHandle) -> Option<Slot> {
        self.slots.get(h.0 as usize).copied().flatten()
    }

    fn remove(&mut self, h: AllocHandle) -> Option<Slot> {
        let slot = self.slots.get_mut(h.0 as usize)?.take()?;
        self.free.push(h.0 as usize);
        self.live_bytes -= slot.size;
        Some(slot)
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

fn layout_for(size: usize) -> Result<Layout, AllocError> {
    Layout::from_size_align(size.max(1), BACKEND_ALIGN).map_err(|_| AllocError::Oversized {
        requested: size,
        limit: isize::MAX as usize,
    })
}

fn elapsed(since: Instant) -> SimDuration {
    SimDuration::from_nanos(since.elapsed().as_nanos().min(u64::MAX as u128) as u64)
}

/// Touches `bytes` of the allocation at `addr` (read-sum, volatile so
/// the optimiser cannot elide the walk).
///
/// # Safety
///
/// `[addr, addr + bytes)` must be initialised memory owned by a live
/// allocation.
unsafe fn touch_read(addr: usize, bytes: usize) -> u64 {
    let mut sum = 0u64;
    let p = addr as *const u8;
    let mut i = 0;
    while i < bytes {
        // SAFETY: i < bytes, within the caller-guaranteed range.
        sum = sum.wrapping_add(unsafe { std::ptr::read_volatile(p.add(i)) } as u64);
        i += 64; // one touch per cache line
    }
    sum
}

/// The real Hermes runtime as a backend: arenas, thread caches and the
/// live memory-management thread, measured on a wall clock.
pub struct RealHermesBackend {
    heap: HermesHeap,
    clock: WallClock,
    table: HandleTable,
    allocs: u64,
    frees: u64,
    reallocs: u64,
}

impl fmt::Debug for RealHermesBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealHermesBackend")
            .field("live", &self.table.live())
            .field("heap", &self.heap)
            .finish()
    }
}

impl RealHermesBackend {
    /// Boots a heap with explicit sizing and starts the management
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates [`ArenaError`] when the backing cannot be reserved.
    pub fn with_heap_config(cfg: HermesHeapConfig) -> Result<Self, ArenaError> {
        let heap = HermesHeap::new(cfg)?;
        heap.start_manager();
        Ok(RealHermesBackend {
            heap,
            clock: WallClock::new(),
            table: HandleTable::default(),
            allocs: 0,
            frees: 0,
            reallocs: 0,
        })
    }

    /// The underlying runtime (counter and arena inspection).
    pub fn heap(&self) -> &HermesHeap {
        &self.heap
    }
}

impl AllocatorBackend for RealHermesBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::RealHermes
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::Wall(self.clock)
    }

    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        let layout = layout_for(size)?;
        let t = Instant::now();
        let p = self.heap.allocate(layout)?;
        // First write: data insertion, faulting any cold pages.
        // SAFETY: fresh allocation of `layout.size()` bytes.
        unsafe { std::ptr::write_bytes(p.as_ptr(), 0xA5, layout.size()) };
        let lat = elapsed(t);
        self.allocs += 1;
        Ok((self.table.insert(p.as_ptr() as usize, size), lat))
    }

    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        let Some(slot) = self.table.remove(handle) else {
            return SimDuration::ZERO;
        };
        let layout = layout_for(slot.size).expect("live slot had a valid layout");
        let t = Instant::now();
        // SAFETY: the slot was inserted by `malloc` with this layout and
        // is removed from the table exactly once.
        unsafe {
            self.heap
                .deallocate(NonNull::new_unchecked(slot.addr as *mut u8), layout)
        };
        self.frees += 1;
        elapsed(t)
    }

    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        let old = self.table.get(handle).ok_or(AllocError::Exhausted)?;
        let new_layout = layout_for(new_size)?;
        let t = Instant::now();
        let p = self.heap.allocate(new_layout)?;
        let keep = old.size.min(new_size);
        // SAFETY: both regions are live and at least `keep` bytes; the
        // destination is fresh, so the ranges cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(old.addr as *const u8, p.as_ptr(), keep);
            std::ptr::write_bytes(p.as_ptr().add(keep), 0xA5, new_layout.size() - keep);
        }
        let lat = elapsed(t);
        let lat = lat + self.free(handle);
        self.allocs += 1;
        self.reallocs += 1;
        Ok((self.table.insert(p.as_ptr() as usize, new_size), lat))
    }

    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        let Some(slot) = self.table.get(handle) else {
            return SimDuration::ZERO;
        };
        let t = Instant::now();
        // SAFETY: the slot is live and `malloc` initialised all of it.
        let sum = unsafe { touch_read(slot.addr, bytes.min(slot.size)) };
        std::hint::black_box(sum);
        elapsed(t)
    }

    fn advance(&mut self) {
        // The management thread runs for real; nothing to fast-forward.
    }

    fn stats(&self) -> BackendStats {
        let c = self.heap.counters();
        let hs = self.heap.heap_stats();
        let ls = self.heap.large_stats();
        BackendStats {
            alloc_count: self.allocs,
            free_count: self.frees,
            realloc_count: self.reallocs,
            live: self.table.live() as u64,
            live_bytes: self.table.live_bytes,
            reserved_unused_bytes: self.heap.reserved_unused_bytes(),
            management_busy: SimDuration::from_nanos(c.manager_busy_ns),
            manager_rounds: c.manager_rounds,
            committed_bytes: hs.committed + ls.committed,
            backing_reserved_bytes: hs.backing_reserved + ls.backing_reserved,
            decommitted_bytes: hs.decommitted + ls.decommitted,
            remote_queued: c.remote_queued_bytes as usize,
        }
    }

    fn check(&self) -> Result<(), IntegrityError> {
        self.heap.check_integrity()
    }
}

impl Drop for RealHermesBackend {
    fn drop(&mut self) {
        // Return this thread's magazines before the heap goes away, so
        // a drop-then-recreate sequence in one thread starts clean.
        self.heap.drain_thread_cache();
        self.heap.stop_manager();
    }
}

/// The process allocator (`std::alloc`) as a wall-clock baseline
/// backend: what the service would see with no reservation machinery.
pub struct RealSystemBackend {
    clock: WallClock,
    table: HandleTable,
    allocs: u64,
    frees: u64,
    reallocs: u64,
}

impl fmt::Debug for RealSystemBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealSystemBackend")
            .field("live", &self.table.live())
            .finish()
    }
}

impl RealSystemBackend {
    /// A fresh baseline backend.
    pub fn new() -> Self {
        RealSystemBackend {
            clock: WallClock::new(),
            table: HandleTable::default(),
            allocs: 0,
            frees: 0,
            reallocs: 0,
        }
    }
}

impl Default for RealSystemBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl AllocatorBackend for RealSystemBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::RealSystem
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::Wall(self.clock)
    }

    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        let layout = layout_for(size)?;
        let t = Instant::now();
        // SAFETY: layout has non-zero size by construction.
        let p = unsafe { std::alloc::alloc(layout) };
        let p = NonNull::new(p).ok_or(AllocError::Exhausted)?;
        // SAFETY: fresh allocation of `layout.size()` bytes.
        unsafe { std::ptr::write_bytes(p.as_ptr(), 0xA5, layout.size()) };
        let lat = elapsed(t);
        self.allocs += 1;
        Ok((self.table.insert(p.as_ptr() as usize, size), lat))
    }

    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        let Some(slot) = self.table.remove(handle) else {
            return SimDuration::ZERO;
        };
        let layout = layout_for(slot.size).expect("live slot had a valid layout");
        let t = Instant::now();
        // SAFETY: allocated by `std::alloc::alloc` with this layout,
        // freed exactly once.
        unsafe { std::alloc::dealloc(slot.addr as *mut u8, layout) };
        self.frees += 1;
        elapsed(t)
    }

    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        let old = self.table.get(handle).ok_or(AllocError::Exhausted)?;
        let old_layout = layout_for(old.size).expect("live slot had a valid layout");
        let new_layout = layout_for(new_size)?;
        let t = Instant::now();
        // SAFETY: the slot's pointer came from `alloc` with `old_layout`
        // and `new_layout.size()` is non-zero.
        let p = unsafe { std::alloc::realloc(old.addr as *mut u8, old_layout, new_layout.size()) };
        let p = NonNull::new(p).ok_or(AllocError::Exhausted)?;
        if new_size > old.size {
            // SAFETY: the grown tail is fresh memory of the new block.
            unsafe { std::ptr::write_bytes(p.as_ptr().add(old.size), 0xA5, new_size - old.size) };
        }
        let lat = elapsed(t);
        // The old pointer is consumed by realloc: retire the handle
        // without double-freeing.
        self.table.remove(handle);
        self.frees += 1;
        self.allocs += 1;
        self.reallocs += 1;
        Ok((self.table.insert(p.as_ptr() as usize, new_size), lat))
    }

    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        let Some(slot) = self.table.get(handle) else {
            return SimDuration::ZERO;
        };
        let t = Instant::now();
        // SAFETY: the slot is live and `malloc` initialised all of it.
        let sum = unsafe { touch_read(slot.addr, bytes.min(slot.size)) };
        std::hint::black_box(sum);
        elapsed(t)
    }

    fn advance(&mut self) {}

    fn stats(&self) -> BackendStats {
        BackendStats {
            alloc_count: self.allocs,
            free_count: self.frees,
            realloc_count: self.reallocs,
            live: self.table.live() as u64,
            live_bytes: self.table.live_bytes,
            reserved_unused_bytes: 0,
            management_busy: SimDuration::ZERO,
            manager_rounds: 0,
            committed_bytes: 0,
            backing_reserved_bytes: 0,
            decommitted_bytes: 0,
            remote_queued: 0,
        }
    }
}

impl Drop for RealSystemBackend {
    fn drop(&mut self) {
        // Leak nothing: free whatever the driver left live.
        for i in 0..self.table.slots.len() {
            if let Some(slot) = self.table.slots[i].take() {
                let layout = layout_for(slot.size).expect("live slot had a valid layout");
                // SAFETY: live allocation of this backend, freed once.
                unsafe { std::alloc::dealloc(slot.addr as *mut u8, layout) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_sim::clock::Clock;

    #[test]
    fn real_hermes_round_trip_with_live_manager() {
        let mut b = RealHermesBackend::with_heap_config(HermesHeapConfig::small()).unwrap();
        assert!(b.heap().manager_running());
        let (h, lat) = b.malloc(1024).unwrap();
        assert!(lat > SimDuration::ZERO, "measured latency is nonzero");
        let a = b.access(h, 1024);
        let _ = a;
        let (h2, _) = b.realloc(h, 4096).unwrap();
        b.free(h2);
        let s = b.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.alloc_count, 2);
        assert_eq!(s.free_count, 2);
        assert_eq!(s.realloc_count, 1);
        b.check().unwrap();
        assert!(!b.clock().is_virtual());
    }

    #[test]
    fn real_hermes_reports_oversized() {
        let mut b = RealHermesBackend::with_heap_config(HermesHeapConfig::small()).unwrap();
        match b.malloc(1 << 40) {
            Err(AllocError::Oversized { .. }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn real_system_round_trip_preserves_content() {
        let mut b = RealSystemBackend::new();
        let (h, _) = b.malloc(100).unwrap();
        let (h2, _) = b.realloc(h, 10_000).unwrap();
        let slot = b.table.get(h2).unwrap();
        // SAFETY: slot is live; first 100 bytes were written by malloc.
        let first = unsafe { std::ptr::read(slot.addr as *const u8) };
        assert_eq!(first, 0xA5, "realloc preserved the payload");
        b.free(h2);
        assert_eq!(b.stats().live, 0);
    }

    #[test]
    fn real_system_drop_frees_leftovers() {
        let mut b = RealSystemBackend::new();
        for _ in 0..16 {
            b.malloc(4096).unwrap();
        }
        assert_eq!(b.stats().live, 16);
        drop(b); // miri/asan would flag a leak here if Drop regressed
    }
}
