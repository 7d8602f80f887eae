//! The pinned API surface: every symbol of the repository the benchmark
//! touches is imported here and nowhere else, so the list below *is* the
//! contract a later change must keep (or re-point in this one file).
//!
//! The end-to-end pass may use only the service, backend and
//! `HermesHeap` entries; the direct layer drivers (`layers.rs`) also use
//! `RawHeap`, `LargePool`, `Arena` and `platform()`.

// Service layer.
pub use hermes_services::{RealFiles, RedisModel, RocksdbModel, Service};

// Backend layer (`allocators.real`).
pub use hermes_allocators::{
    AllocError, AllocHandle, AllocatorBackend, BackendKind, BackendStats, RealHermesBackend,
    RealSystemBackend,
};

// Runtime front end (`rt`).
pub use hermes_core::rt::{CountersSnapshot, HeapStats, HermesHeap, HermesHeapConfig, LargeStats};
pub use hermes_core::HermesConfig;

// Runtime layers driven directly by the `layers` pass.
pub use hermes_core::platform::platform;
pub use hermes_core::rt::{Arena, IntegrityError, LargePool, RawHeap, PAGE};

// Types the `AllocatorBackend` trait signature names; needed to
// implement the trait for the tracing, tapping and no-op backends.
pub use hermes_sim::clock::{ClockHandle, WallClock};
pub use hermes_sim::time::SimDuration;

/// The runtime's boundary between heap path and large path (the default
/// `mmap_threshold`); the shape checks fail the run if it moves.
pub const MMAP_THRESHOLD: usize = 128 * 1024;

/// The layout every direct `HermesHeap` / `std::alloc` call uses for a
/// block of `size` bytes.
pub fn block_layout(size: usize) -> std::alloc::Layout {
    std::alloc::Layout::from_size_align(size.max(16), 16)
        .expect("block sizes are far below isize::MAX")
}

/// The one heap configuration every pass measures: default capacities,
/// default policy knobs, **two arenas stated explicitly** (the shape must
/// not follow the host's core count) and the management thread pinned to
/// `manager_core` when the host has a second CPU to give it.
pub fn fixed_heap_config(manager_core: Option<usize>) -> HermesHeapConfig {
    HermesHeapConfig {
        arenas: 2,
        hermes: HermesConfig::default().with_manager_core(manager_core),
        ..HermesHeapConfig::default()
    }
}

/// Snapshot of everything the runtime reports about itself, taken
/// through `HermesHeap`'s public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapProbe {
    pub counters: CountersSnapshot,
    pub heap: HeapStats,
    pub large: LargeStats,
    pub reserved_unused: usize,
}

impl HeapProbe {
    pub fn take(heap: &HermesHeap) -> Self {
        HeapProbe {
            counters: heap.counters(),
            heap: heap.heap_stats(),
            large: heap.large_stats(),
            reserved_unused: heap.reserved_unused_bytes(),
        }
    }

    /// Committed backing bytes, both paths.
    pub fn committed(&self) -> usize {
        self.heap.committed + self.large.committed
    }
}
