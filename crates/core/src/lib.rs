//! # hermes-core — the paper's contribution
//!
//! Reproduction of the Hermes mechanism from *"Memory at Your Service:
//! Fast Memory Allocation for Latency-critical Services"* (Middleware'21):
//! a library-level memory manager that reserves memory — with its
//! virtual-physical mappings already constructed — ahead of demand for
//! latency-critical services, and proactively advises the OS to drop
//! batch-job file cache under pressure.
//!
//! Two layers:
//!
//! * [`policy`] — the algorithms as pure logic: adaptive thresholds
//!   (Algorithms 1–2), gradual reservation (§3.2.1), and the monitor
//!   daemon's largest-file-first reclamation (§3.3). The thresholds and
//!   gradual reservation are shared by both the real allocator and the
//!   simulation stack. The paper's segregated free list with Equation 1
//!   bucketing and delayed shrink (§3.2.2) is the simulation's alone and
//!   lives in `hermes-allocators`.
//! * [`rt`] — a real user-space allocator built on that policy,
//!   implementing [`std::alloc::GlobalAlloc`]: boundary-tag main heap
//!   with an emulated program break, a large pool carving exact-size
//!   blocks from one coalescing warm/cold free map, and a background
//!   management thread.
//!
//! Underneath [`rt`] sits [`platform`], the OS page-management seam:
//! mmap-backed lazy reservations, real `madvise` decommit, huge-page
//! hints and thread pinning, issued as raw Linux syscalls.
//! The crate builds for Linux on x86_64 and aarch64 only.
//!
//! # Examples
//!
//! Policy level — the Figure 6 scenario:
//!
//! ```
//! use hermes_core::policy::ReservationPlan;
//!
//! // Reserve 20 bytes in 4-byte steps instead of one big expansion.
//! let steps: Vec<usize> = ReservationPlan::new(20, 4).collect();
//! assert_eq!(steps, vec![4, 4, 4, 4, 4]);
//! ```
//!
//! Allocator level:
//!
//! ```
//! use hermes_core::rt::{HermesHeap, HermesHeapConfig};
//! use std::alloc::Layout;
//!
//! let heap = HermesHeap::new(HermesHeapConfig::small()).unwrap();
//! heap.run_management_round(); // or heap.start_manager() for a live thread
//! let layout = Layout::from_size_align(512, 16).unwrap();
//! let p = heap.allocate(layout).unwrap();
//! // SAFETY: fresh allocation, matching layout.
//! unsafe { heap.deallocate(p, layout) };
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod platform;
pub mod policy;
pub mod rt;

pub use config::{HermesConfig, DEFAULT_MMAP_THRESHOLD};
