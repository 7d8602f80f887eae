//! Policy logic that only the simulated Hermes model runs.
//!
//! The thresholds, gradual reservation and reclaim policy the model shares
//! with the real runtime live in `hermes_core::policy`. What is here is the
//! paper's large-path design, which the runtime replaces with one
//! coalescing free map (DESIGN.md §2):
//!
//! * [`seglist`] — the segregated free list and Equation 1 bucketing, plus
//!   the delayed-shrink `alloc_set` (§3.2.2).

pub mod seglist;

pub use seglist::{DelayedShrinkSet, MmapChunk, PoolHit, SegregatedFreeList, ShrinkEntry};
