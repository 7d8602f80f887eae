//! The backend-agnostic allocation API: one trait over the simulated
//! allocator models *and* the real wall-clock runtimes.
//!
//! Everything above this crate — services, workloads, benches — drives
//! allocation through [`AllocatorBackend`]: handle-based
//! `malloc`/`free`/`realloc`/`access`, `advance`-style background
//! progress, a uniform [`BackendStats`] snapshot and the typed
//! [`AllocError`] shared with `hermes_core::rt`. Two families implement
//! it:
//!
//! * [`SimBackend`] — one of the four allocator models over a shared
//!   simulated OS and [`VirtualClock`] ([`SimEnv`]). It keeps the sim's
//!   one handle table; the models are handle-free policies that see
//!   only a block's size and their own tag;
//! * [`crate::real::RealHermesBackend`] / [`crate::real::RealSystemBackend`]
//!   — real memory, measured with `std::time::Instant` on a
//!   [`WallClock`](hermes_sim::clock::WallClock).
//!
//! Sim backends are built with [`SimBackend::new`] over an experiment's
//! [`SimEnv`], real ones by their own constructors.
//!
//! # Time convention
//!
//! Latencies returned by backend operations *have already elapsed on
//! the backend's clock*: a sim backend advances its virtual clock by
//! each latency it reports, and on a wall clock the measured time has
//! passed by definition. Drivers advance only think time (a no-op in
//! the wall domain), so the identical driver loop runs in both domains.

use crate::glibc::GlibcSim;
use crate::hermes::{HermesAblation, HermesSim};
use crate::jemalloc::JemallocSim;
use crate::tcmalloc::TcmallocSim;
use crate::traits::{AllocHandle, AllocatorKind, SimAllocator};
pub use hermes_core::rt::AllocError;
use hermes_core::rt::IntegrityError;
use hermes_core::HermesConfig;
use hermes_os::prelude::*;
use hermes_sim::clock::{Clock, ClockHandle, VirtualClock};
use hermes_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The simulated OS, shared between a driver and every sim backend and
/// pressure generator of one experiment.
pub type SharedOs = Arc<Mutex<Os>>;

/// The substrate of one simulated experiment: the OS model plus the
/// virtual clock every participant advances.
#[derive(Debug, Clone)]
pub struct SimEnv {
    /// The shared kernel model.
    pub os: SharedOs,
    /// The shared virtual clock.
    pub clock: VirtualClock,
}

impl SimEnv {
    /// A fresh environment over `cfg`, with the clock at zero.
    pub fn new(cfg: OsConfig) -> Self {
        SimEnv {
            os: Arc::new(Mutex::new(Os::new(cfg))),
            clock: VirtualClock::new(),
        }
    }

    /// Locks the OS (poison-ignoring: the model's state transitions are
    /// small and a panicking test must not cascade).
    pub fn os(&self) -> MutexGuard<'_, Os> {
        self.os.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current virtual instant.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }
}

/// Which backend family and flavour an [`AllocatorBackend`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// A simulated allocator model in virtual time.
    Sim(AllocatorKind),
    /// The real Hermes runtime (`hermes_core::rt::HermesHeap`) with its
    /// live management thread, in wall time.
    RealHermes,
    /// The process allocator (`std::alloc`) baseline, in wall time.
    RealSystem,
}

impl BackendKind {
    /// Stable label, also the `Display` form (test and log messages).
    pub fn label(self) -> String {
        match self {
            BackendKind::Sim(k) => format!("sim:{k}"),
            BackendKind::RealHermes => "real:hermes".to_string(),
            BackendKind::RealSystem => "real:system".to_string(),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A uniform statistics snapshot across backend families. Counter
/// fields are monotone over a backend's lifetime; byte fields are
/// gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendStats {
    /// Allocations served (including failed attempts' successful
    /// retries, excluding failures).
    pub alloc_count: u64,
    /// Frees performed.
    pub free_count: u64,
    /// Reallocs performed.
    pub realloc_count: u64,
    /// Live handles right now.
    pub live: u64,
    /// Bytes held by live handles (request granularity).
    pub live_bytes: usize,
    /// Reserved-but-unused bytes (the §5.5 overhead metric; zero for
    /// baselines without reservation).
    pub reserved_unused_bytes: usize,
    /// Cumulative management-thread busy time (zero for baselines).
    pub management_busy: SimDuration,
    /// Management rounds executed (real Hermes only).
    pub manager_rounds: u64,
    /// Bytes of backing with mappings currently constructed (real
    /// Hermes only; zero where the backend has no mapped backing).
    pub committed_bytes: usize,
    /// Total reserved backing address space — the on-demand growth
    /// ceiling (real Hermes only).
    pub backing_reserved_bytes: usize,
    /// Bytes returned to the kernel by `madvise(DONTNEED)` decommits,
    /// cumulative (real Hermes only).
    pub decommitted_bytes: u64,
    /// Bytes parked in per-arena remote-free inboxes — freed by the
    /// application, not yet drained back into a heap (real Hermes only;
    /// zero where there is no remote-free queue).
    pub remote_queued: usize,
}

/// A user-space allocator driven through opaque handles, in either time
/// domain. See the module docs for the time convention.
pub trait AllocatorBackend: Send {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// The clock this backend's latencies elapse on. Cloning the handle
    /// gives the driver the same time base.
    fn clock(&self) -> ClockHandle;

    /// Allocates `size` bytes and performs the first write (the paper
    /// measures allocation through data insertion, so mapping
    /// construction is part of the cost). Returns the handle and the
    /// latency, which has already elapsed on the clock.
    ///
    /// # Errors
    ///
    /// Typed [`AllocError`] when the request cannot be served.
    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError>;

    /// Frees a live handle; returns the (already elapsed) latency.
    fn free(&mut self, handle: AllocHandle) -> SimDuration;

    /// Resizes a live allocation, preserving `min(old, new)` bytes of
    /// content where the domain has real content to preserve. Returns
    /// the (possibly new) handle and the latency.
    ///
    /// # Errors
    ///
    /// Typed [`AllocError`]; on error the original handle stays live.
    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError>;

    /// Touches `bytes` of a live allocation (a service reading its
    /// data); may stall on swap-in under simulated pressure.
    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration;

    /// Fast-forwards background work to the clock's now. A no-op for
    /// real backends, whose management thread runs for real.
    fn advance(&mut self);

    /// Statistics snapshot.
    fn stats(&self) -> BackendStats;

    /// Contention factor the surrounding node imposes on service CPU
    /// work (1.0 when idle / unknowable).
    fn contention(&self) -> f64 {
        1.0
    }

    /// Walks the backend's heap structures verifying invariants, where
    /// the backend has real structures to walk.
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    fn check(&self) -> Result<(), IntegrityError> {
        Ok(())
    }
}

/// `Box<dyn AllocatorBackend>` is itself a backend, so generic services
/// can be built over either a concrete backend or a boxed one.
impl<B: AllocatorBackend + ?Sized> AllocatorBackend for Box<B> {
    fn kind(&self) -> BackendKind {
        (**self).kind()
    }
    fn clock(&self) -> ClockHandle {
        (**self).clock()
    }
    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        (**self).malloc(size)
    }
    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        (**self).free(handle)
    }
    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        (**self).realloc(handle, new_size)
    }
    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        (**self).access(handle, bytes)
    }
    fn advance(&mut self) {
        (**self).advance()
    }
    fn stats(&self) -> BackendStats {
        (**self).stats()
    }
    fn contention(&self) -> f64 {
        (**self).contention()
    }
    fn check(&self) -> Result<(), IntegrityError> {
        (**self).check()
    }
}

/// Maps the simulated kernel's failure vocabulary onto the typed
/// backend vocabulary (also used by the services' simulated file
/// store).
pub fn map_mem_error(e: MemError) -> AllocError {
    match e {
        MemError::OutOfMemory | MemError::SwapFull => AllocError::Exhausted,
        MemError::UnknownProcess => AllocError::UnregisteredThread,
        MemError::UnknownFile => AllocError::UnknownFile,
    }
}

/// One allocator model as an [`AllocatorBackend`] over a [`SimEnv`]:
/// the sim's one handle table. It mints the handles, records each live
/// block's size and model tag, and fast-forwards the model before every
/// operation.
pub struct SimBackend {
    kind: AllocatorKind,
    model: Box<dyn SimAllocator>,
    proc: ProcId,
    env: SimEnv,
    /// Live handle -> (requested bytes, model tag).
    live: HashMap<AllocHandle, (usize, u64)>,
    next_handle: u64,
    allocs: u64,
    frees: u64,
    reallocs: u64,
    live_bytes: usize,
}

impl fmt::Debug for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBackend")
            .field("kind", &self.kind)
            .field("live", &self.live.len())
            .finish()
    }
}

impl SimBackend {
    /// Builds the `kind` model over `env`, registering a new
    /// latency-critical process with the simulated OS.
    pub fn new(kind: AllocatorKind, env: &SimEnv, seed: u64, cfg: &HermesConfig) -> Self {
        Self::with_ablation(kind, env, seed, cfg, HermesAblation::default())
    }

    /// [`SimBackend::new`] with the Hermes model's mechanisms switched
    /// as `ablation` says (the baselines ignore it).
    pub fn with_ablation(
        kind: AllocatorKind,
        env: &SimEnv,
        seed: u64,
        cfg: &HermesConfig,
        ablation: HermesAblation,
    ) -> Self {
        let proc = env.os().register_process(ProcKind::LatencyCritical);
        let model: Box<dyn SimAllocator> = match kind {
            AllocatorKind::Glibc => Box::new(GlibcSim::new(proc, seed)),
            AllocatorKind::Jemalloc => Box::new(JemallocSim::new(proc, seed)),
            AllocatorKind::Tcmalloc => Box::new(TcmallocSim::new(proc, seed)),
            AllocatorKind::Hermes => Box::new(HermesSim::new(proc, seed, cfg.clone(), ablation)),
        };
        SimBackend {
            kind,
            model,
            proc,
            env: env.clone(),
            live: HashMap::new(),
            next_handle: 1,
            allocs: 0,
            frees: 0,
            reallocs: 0,
            live_bytes: 0,
        }
    }

    /// The simulated process this backend's allocator belongs to.
    pub fn proc_id(&self) -> ProcId {
        self.proc
    }
}

impl AllocatorBackend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim(self.kind)
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::Virtual(self.env.clock.clone())
    }

    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        let now = self.env.now();
        let (tag, lat) = {
            let mut os = self.env.os();
            self.model.advance_to(now, &mut os);
            self.model
                .malloc(size, now, &mut os)
                .map_err(map_mem_error)?
        };
        self.env.clock.advance(lat);
        let h = AllocHandle(self.next_handle);
        self.next_handle += 1;
        self.allocs += 1;
        self.live_bytes += size;
        self.live.insert(h, (size, tag));
        Ok((h, lat))
    }

    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        let now = self.env.now();
        let lat = {
            let mut os = self.env.os();
            self.model.advance_to(now, &mut os);
            // An unknown or already-freed handle frees nothing, as on
            // the real backends.
            match self.live.remove(&handle) {
                Some((size, tag)) => {
                    self.frees += 1;
                    self.live_bytes -= size;
                    self.model.free(size, tag, now, &mut os)
                }
                None => SimDuration::ZERO,
            }
        };
        self.env.clock.advance(lat);
        lat
    }

    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        // An unknown handle changes nothing, as on the real backends.
        let &(old_size, _) = self.live.get(&handle).ok_or(AllocError::Exhausted)?;
        // The models expose no native realloc; compose it the way a
        // libc shim would: allocate, copy (modelled as touching the old
        // allocation), free.
        let (new_handle, alloc_lat) = self.malloc(new_size)?;
        let copy_lat = self.access(handle, old_size.min(new_size));
        let free_lat = self.free(handle);
        self.reallocs += 1;
        Ok((new_handle, alloc_lat + copy_lat + free_lat))
    }

    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        let now = self.env.now();
        let lat = {
            let mut os = self.env.os();
            self.model.advance_to(now, &mut os);
            if self.live.contains_key(&handle) {
                os.touch_resident(self.proc, pages_for(bytes), now)
            } else {
                SimDuration::ZERO
            }
        };
        self.env.clock.advance(lat);
        lat
    }

    fn advance(&mut self) {
        let now = self.env.now();
        self.model.advance_to(now, &mut self.env.os());
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            alloc_count: self.allocs,
            free_count: self.frees,
            realloc_count: self.reallocs,
            live: self.live.len() as u64,
            live_bytes: self.live_bytes,
            reserved_unused_bytes: self.model.reserved_unused(),
            management_busy: self.model.management_busy(),
            manager_rounds: 0,
            committed_bytes: 0,
            backing_reserved_bytes: 0,
            decommitted_bytes: 0,
            remote_queued: 0,
        }
    }

    fn contention(&self) -> f64 {
        self.env.os().service_contention()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_backend_advances_the_shared_clock() {
        let env = SimEnv::new(OsConfig::small_test_node());
        let mut b = SimBackend::new(AllocatorKind::Glibc, &env, 3, &HermesConfig::default());
        assert_eq!(env.now(), SimTime::ZERO);
        let (h, lat) = b.malloc(4096).unwrap();
        assert!(lat > SimDuration::ZERO);
        assert_eq!(env.now(), SimTime::ZERO + lat, "latency elapsed on clock");
        let free_lat = b.free(h);
        assert_eq!(env.now(), SimTime::ZERO + lat + free_lat);
        let s = b.stats();
        assert_eq!((s.alloc_count, s.free_count, s.live), (1, 1, 0));
    }

    #[test]
    fn sim_backend_maps_unknown_process_to_unregistered_thread() {
        let env = SimEnv::new(OsConfig::small_test_node());
        let mut b = SimBackend::new(AllocatorKind::Glibc, &env, 3, &HermesConfig::default());
        let proc = b.proc_id();
        env.os().remove_process(proc);
        match b.malloc(1024) {
            Err(AllocError::UnregisteredThread) => {}
            other => panic!("expected UnregisteredThread, got {other:?}"),
        }
    }

    #[test]
    fn mem_errors_map_to_distinct_alloc_errors() {
        assert_eq!(map_mem_error(MemError::OutOfMemory), AllocError::Exhausted);
        assert_eq!(map_mem_error(MemError::SwapFull), AllocError::Exhausted);
        assert_eq!(
            map_mem_error(MemError::UnknownProcess),
            AllocError::UnregisteredThread
        );
        // A bad file id must NOT masquerade as exhaustion: a caller that
        // frees memory and retries on `Exhausted` would retry a request
        // that can never succeed.
        assert_eq!(
            map_mem_error(MemError::UnknownFile),
            AllocError::UnknownFile
        );
    }
}
