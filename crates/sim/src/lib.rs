//! # hermes-sim — virtual-time simulation engine
//!
//! Foundation crate for the Hermes reproduction: a deterministic,
//! virtual-clock simulation toolkit used by the OS-model, allocator-model,
//! service and workload crates.
//!
//! The simulation style is *lazy catch-up* rather than a central
//! actor scheduler: background activities (kswapd, the Hermes management
//! thread, batch jobs) track the last instant they were advanced to and,
//! when the foreground workload touches shared state at instant `t`, they
//! first fast-forward their effects over `(last, t]` analytically. The
//! pieces provided here are:
//!
//! * [`time`] — [`time::SimTime`] / [`time::SimDuration`] newtypes (ns).
//! * [`clock`] — the [`clock::Clock`] domain abstraction: a shared
//!   virtual clock and a wall clock behind one interface, so the same
//!   drivers run in simulated and real time.
//! * [`rng`] — seeded, stream-labelled RNG for reproducible experiments.
//! * [`stats`] — latency recorders, percentiles, CDFs, SLO-violation ratios.
//! * [`report`] — text tables, CSV/CDF dumps, paper-vs-measured check lines.
//!
//! # Examples
//!
//! ```
//! use hermes_sim::prelude::*;
//!
//! let mut rng = DetRng::new(42, "demo");
//! let mut rec = LatencyRecorder::new("demo");
//! let mut now = SimTime::ZERO;
//! for _ in 0..1000 {
//!     let service = SimDuration::from_nanos(500 + rng.range(0, 1_500));
//!     rec.record(service);
//!     now += service;
//! }
//! let s = rec.summary();
//! assert!(s.p99 >= s.p50);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the types practically every consumer needs.
pub mod prelude {
    pub use crate::clock::{Clock, ClockHandle, VirtualClock, WallClock};
    pub use crate::rng::DetRng;
    pub use crate::stats::{LatencyRecorder, OnlineStats, Reduction, Summary};
    pub use crate::time::{SimDuration, SimTime};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exports_compile() {
        let _r = DetRng::new(1, "p");
        let _l = LatencyRecorder::new("p");
        let _t = SimTime::ZERO + SimDuration::from_nanos(1);
    }
}
