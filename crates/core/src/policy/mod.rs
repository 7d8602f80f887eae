//! The Hermes reservation policy, as pure and testable logic.
//!
//! These modules transcribe the paper's mechanisms without any OS or
//! allocator dependencies. The real allocator ([`crate::rt`]) and the
//! simulated allocator (`hermes-allocators`' Hermes model) execute the
//! *same* threshold and reservation code; the reclaim policy is the
//! simulated monitor daemon's:
//!
//! * [`thresholds`] — `UpdateThreshold` of Algorithms 1 and 2.
//! * [`gradual`] — gradual reservation step planning (§3.2.1, Figure 6).
//! * [`reclaim`] — the monitor daemon's largest-file-first proactive
//!   reclamation and its thresholds (§3.3).
//!
//! The paper's segregated free list and delayed shrink (§3.2.2) are not
//! here: only the simulated model runs them, and they live beside it in
//! `hermes_allocators::policy::seglist`. The runtime's large path carves
//! exact-size blocks from one coalescing free map instead (DESIGN.md §2).

pub mod gradual;
pub mod reclaim;
pub mod thresholds;

pub use gradual::ReservationPlan;
pub use reclaim::{
    select_victims, FileCacheView, ReclaimDecision, ReclaimInputs, ADV_THR, CACHE_TARGET,
};
pub use thresholds::{IntervalStats, PeakWindow, ThresholdTracker, Thresholds, TRIM_WINDOW_ROUNDS};
