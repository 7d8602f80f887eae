//! The Hermes reservation policy, as pure and testable logic.
//!
//! These modules transcribe the paper's mechanisms without any OS or
//! allocator dependencies, so both the real allocator ([`crate::rt`]) and
//! the simulated allocator (`hermes-allocators::HermesSim`) execute the
//! *same* threshold and reservation code:
//!
//! * [`thresholds`] — `UpdateThreshold` of Algorithms 1 and 2.
//! * [`gradual`] — gradual reservation step planning (§3.2.1, Figure 6).
//! * [`seglist`] — the segregated free list and Equation 1 bucketing, plus
//!   the delayed-shrink `alloc_set` (§3.2.2). The simulated allocator's
//!   only: the runtime's large path carves exact-size blocks from one
//!   coalescing free map instead (DESIGN.md §2).
//! * [`reclaim`] — the monitor daemon's largest-file-first proactive
//!   reclamation (§3.3).

pub mod gradual;
pub mod reclaim;
pub mod seglist;
pub mod thresholds;

pub use gradual::ReservationPlan;
pub use reclaim::{select_victims, FileCacheView, ReclaimDecision, ReclaimInputs};
pub use seglist::{DelayedShrinkSet, MmapChunk, PoolHit, SegregatedFreeList, ShrinkEntry};
pub use thresholds::{IntervalStats, PeakWindow, ThresholdTracker, Thresholds, TRIM_WINDOW_ROUNDS};
