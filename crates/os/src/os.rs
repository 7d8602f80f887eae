//! The simulated kernel memory manager.
//!
//! Models the GNU/Linux mechanisms the paper analyses (§2.1, §2.3):
//!
//! * **On-demand mapping construction** — `brk`/`mmap` return instantly;
//!   the expensive part is faulting pages in on first touch
//!   ([`Os::alloc_anon`]), or eagerly via `mlock`.
//! * **Watermark-driven reclaim** — `min`/`low`/`high` watermarks at ~1 ‰
//!   of the zone; kswapd wakes below `low` and reclaims to `high`;
//!   allocations below `min` enter the synchronous *direct reclaim* routine.
//! * **File-first reclaim order** — clean file-cache pages are dropped
//!   cheaply; anonymous pages must be written to the swap device first,
//!   which shares one queue between kswapd, direct reclaimers and swap-ins.
//! * **File cache retention** — file pages survive process exit and are
//!   only reclaimed under pressure (the behaviour Hermes' proactive
//!   reclamation targets), or dropped explicitly via
//!   [`Os::fadvise_dontneed`].
//!
//! Background work is integrated lazily: [`Os::advance_to`] fast-forwards
//! kswapd over the elapsed virtual time before any foreground operation.

use crate::config::{pages_for, OsConfig, PAGE_SIZE};
use crate::swap::SwapDevice;
use crate::types::{FaultPath, FileId, MemError, ProcId, ProcKind};
use hermes_sim::rng::DetRng;
use hermes_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Per-process resident-memory accounting.
#[derive(Debug, Clone)]
pub struct ProcState {
    /// Role used by reclaim policy and the monitor daemon.
    pub kind: ProcKind,
    /// Resident anonymous pages (evictable).
    pub anon_resident: u64,
    /// Resident mlocked pages (unevictable).
    pub locked: u64,
    /// Pages currently out on the swap device.
    pub swapped: u64,
}

/// Per-file cache accounting.
#[derive(Debug, Clone)]
pub struct FileState {
    /// Creating process.
    pub owner: ProcId,
    /// Role of the owner at creation time (files outlive processes).
    pub owner_kind: ProcKind,
    /// Total file size in pages.
    pub size_pages: u64,
    /// Pages currently in the page cache.
    pub cached_pages: u64,
    /// Last access instant, used as the LRU key for reclaim.
    pub last_touch: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
struct Kswapd {
    active: bool,
    clock: SimTime,
}

/// Counters exposed for reports and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsStats {
    /// Fault operations served.
    pub faults: u64,
    /// Pages faulted in.
    pub fault_pages: u64,
    /// Entries into the synchronous direct-reclaim routine.
    pub direct_reclaims: u64,
    /// Total latency spent inside direct reclaim.
    pub direct_reclaim_time: SimDuration,
    /// File pages reclaimed by kswapd.
    pub kswapd_file_pages: u64,
    /// Anonymous pages swapped out by kswapd.
    pub kswapd_anon_pages: u64,
    /// File pages dropped by direct reclaim.
    pub direct_file_pages: u64,
    /// Anonymous pages swapped out by direct reclaim.
    pub direct_anon_pages: u64,
    /// Swap-in operations.
    pub swap_ins: u64,
    /// Pages released via `fadvise(DONTNEED)`.
    pub fadvise_pages: u64,
    /// Failed allocations (would-be OOM kills).
    pub oom_events: u64,
}

/// The simulated node.
#[derive(Debug)]
pub struct Os {
    cfg: OsConfig,
    free_pages: u64,
    anon_pages: u64,
    locked_pages: u64,
    file_cached_pages: u64,
    procs: HashMap<ProcId, ProcState>,
    files: HashMap<FileId, FileState>,
    next_proc: u32,
    next_file: u64,
    kswapd: Kswapd,
    swap: SwapDevice,
    rng: DetRng,
    stats: OsStats,
    last_advance: SimTime,
    used_page_ns: f64,
    per_page_copy: SimDuration,
}

impl Os {
    /// Boots a node from its configuration.
    pub fn new(cfg: OsConfig) -> Self {
        let free = cfg.total_pages();
        let swap = SwapDevice::new(cfg.swap.clone());
        let rng = DetRng::new(cfg.seed, "os-noise");
        Os {
            free_pages: free,
            anon_pages: 0,
            locked_pages: 0,
            file_cached_pages: 0,
            procs: HashMap::new(),
            files: HashMap::new(),
            next_proc: 1,
            next_file: 1,
            kswapd: Kswapd::default(),
            swap,
            rng,
            stats: OsStats::default(),
            last_advance: SimTime::ZERO,
            used_page_ns: 0.0,
            per_page_copy: SimDuration::from_nanos(150),
            cfg,
        }
    }

    /// Boots the paper's 128 GB node.
    pub fn paper_node() -> Self {
        Os::new(OsConfig::paper_node())
    }

    /// The active configuration.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// Free physical pages.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Free physical memory in bytes.
    pub fn free_bytes(&self) -> usize {
        self.free_pages as usize * PAGE_SIZE
    }

    /// Pages in the file cache.
    pub fn file_cached_pages(&self) -> u64 {
        self.file_cached_pages
    }

    /// Fraction of physical memory in use (including file cache).
    pub fn used_fraction(&self) -> f64 {
        1.0 - self.free_pages as f64 / self.cfg.total_pages() as f64
    }

    /// Time-averaged memory utilisation since boot.
    pub fn mean_utilisation(&self, now: SimTime) -> f64 {
        let span = now.as_nanos() as f64;
        if span == 0.0 {
            return self.used_fraction();
        }
        self.used_page_ns / (span * self.cfg.total_pages() as f64)
    }

    /// `true` while kswapd is actively reclaiming.
    pub fn kswapd_active(&self) -> bool {
        self.kswapd.active
    }

    /// Registers a process of the given role.
    pub fn register_process(&mut self, kind: ProcKind) -> ProcId {
        let id = ProcId(self.next_proc);
        self.next_proc += 1;
        self.procs.insert(
            id,
            ProcState {
                kind,
                anon_resident: 0,
                locked: 0,
                swapped: 0,
            },
        );
        id
    }

    /// Looks up a process.
    pub fn process(&self, id: ProcId) -> Option<&ProcState> {
        self.procs.get(&id)
    }

    /// Terminates a process: anonymous pages are freed immediately, swap
    /// slots are discarded, but its file-cache pages *remain cached*
    /// (§2.3: "file cache pages loaded by the process are not reclaimed").
    pub fn remove_process(&mut self, id: ProcId) {
        if let Some(p) = self.procs.remove(&id) {
            self.free_pages += p.anon_resident + p.locked;
            self.anon_pages -= p.anon_resident;
            self.locked_pages -= p.locked;
            self.swap.discard(p.swapped);
        }
    }

    /// Creates a file of `size` bytes owned by `owner`; nothing is cached
    /// until it is read or written.
    pub fn create_file(&mut self, owner: ProcId, size: usize) -> Result<FileId, MemError> {
        let kind = self.procs.get(&owner).ok_or(MemError::UnknownProcess)?.kind;
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            id,
            FileState {
                owner,
                owner_kind: kind,
                size_pages: pages_for(size),
                cached_pages: 0,
                last_touch: SimTime::ZERO,
            },
        );
        Ok(id)
    }

    /// Looks up a file.
    pub fn file(&self, id: FileId) -> Option<&FileState> {
        self.files.get(&id)
    }

    /// Iterates over all files (for the monitor daemon's `lsof` scan).
    pub fn files(&self) -> impl Iterator<Item = (FileId, &FileState)> {
        self.files.iter().map(|(k, v)| (*k, v))
    }

    // ------------------------------------------------------------------
    // Time integration
    // ------------------------------------------------------------------

    /// Fast-forwards background activity (kswapd) to `now`.
    ///
    /// Foreground operations call this implicitly; drivers should call it
    /// when letting long idle periods pass.
    pub fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let span = now.duration_since(self.last_advance);
        let used = self.cfg.total_pages() - self.free_pages;
        self.used_page_ns += used as f64 * span.as_nanos() as f64;
        self.last_advance = now;
        self.run_kswapd(now);
    }

    fn wake_kswapd(&mut self, now: SimTime) {
        if !self.kswapd.active && self.free_pages < self.cfg.wm_low() {
            self.kswapd.active = true;
            self.kswapd.clock = now;
        }
    }

    fn run_kswapd(&mut self, now: SimTime) {
        if !self.kswapd.active {
            return;
        }
        let high = self.cfg.wm_high();
        loop {
            if self.free_pages >= high {
                self.kswapd.active = false;
                return;
            }
            if self.kswapd.clock >= now {
                return;
            }
            if self.file_cached_pages > 0 {
                // Clean file pages: cheap rate-based reclaim.
                let per = self.cfg.costs.kswapd_file_page;
                let budget_ns = now.duration_since(self.kswapd.clock).as_nanos();
                let can = (budget_ns / per.as_nanos().max(1)).max(1);
                let want = (high - self.free_pages).min(self.cfg.kswapd_batch_pages);
                let batch = want.min(can).min(self.file_cached_pages);
                if batch == 0 {
                    return;
                }
                let taken = self.take_file_pages(batch);
                self.stats.kswapd_file_pages += taken;
                self.kswapd.clock += per * taken.max(1);
            } else {
                // Anonymous pages: must go through the swap device.
                let batch = self
                    .cfg
                    .kswapd_batch_pages
                    .min(self.anon_pages)
                    .min(high - self.free_pages);
                if batch == 0 {
                    // Nothing reclaimable; kswapd backs off.
                    self.kswapd.active = false;
                    return;
                }
                let start = self.kswapd.clock.max(self.swap.busy_until());
                let est = self.swap.estimate_write(batch);
                if start + est > now {
                    // The batch would complete in the future; stop here and
                    // resume on the next advance.
                    return;
                }
                match self.swap.write_batch(start, batch) {
                    Some(io) => {
                        self.apply_anon_reclaim(batch);
                        self.stats.kswapd_anon_pages += batch;
                        self.kswapd.clock = io.done_at;
                    }
                    None => {
                        // Swap full: kswapd can make no progress.
                        self.kswapd.active = false;
                        return;
                    }
                }
            }
        }
    }

    /// Reclaims up to `n` file pages in LRU (oldest `last_touch`) order.
    /// Returns the number actually reclaimed.
    fn take_file_pages(&mut self, n: u64) -> u64 {
        let mut remaining = n;
        while remaining > 0 {
            // Oldest cached file. File count is small (tens), linear scan.
            let victim = self
                .files
                .iter()
                .filter(|(_, f)| f.cached_pages > 0)
                .min_by_key(|(id, f)| (f.last_touch, id.0))
                .map(|(id, _)| *id);
            let Some(id) = victim else { break };
            let f = self.files.get_mut(&id).expect("victim exists");
            let take = f.cached_pages.min(remaining);
            f.cached_pages -= take;
            self.file_cached_pages -= take;
            self.free_pages += take;
            remaining -= take;
        }
        n - remaining
    }

    /// Swaps out `batch` anonymous pages, charged proportionally across
    /// processes by resident share (aggregate-LRU simplification).
    fn apply_anon_reclaim(&mut self, batch: u64) {
        debug_assert!(batch <= self.anon_pages);
        let total = self.anon_pages;
        if total == 0 {
            return;
        }
        let mut left = batch;
        // Deterministic order: largest resident first.
        let mut ids: Vec<ProcId> = self
            .procs
            .iter()
            .filter(|(_, p)| p.anon_resident > 0)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_by_key(|id| {
            let p = &self.procs[id];
            (std::cmp::Reverse(p.anon_resident), id.0)
        });
        for id in &ids {
            if left == 0 {
                break;
            }
            let p = self.procs.get_mut(id).expect("listed");
            let share = ((p.anon_resident as u128 * batch as u128) / total as u128) as u64;
            let take = share.min(p.anon_resident).min(left);
            p.anon_resident -= take;
            p.swapped += take;
            left -= take;
        }
        // Distribute rounding remainder to the largest holders.
        for id in &ids {
            if left == 0 {
                break;
            }
            let p = self.procs.get_mut(id).expect("listed");
            let take = p.anon_resident.min(left);
            p.anon_resident -= take;
            p.swapped += take;
            left -= take;
        }
        let reclaimed = batch - left;
        self.anon_pages -= reclaimed;
        self.free_pages += reclaimed;
    }

    /// Synchronous direct reclaim of at least `target` pages starting at
    /// `now`. Returns the latency charged to the faulting process.
    fn direct_reclaim(&mut self, target: u64, now: SimTime) -> Result<SimDuration, MemError> {
        let mut lat = self.cfg.costs.direct_entry;
        let mut freed = 0u64;
        self.stats.direct_reclaims += 1;
        // File pages first: dropping clean cache needs no I/O.
        if self.file_cached_pages > 0 {
            let want = target.min(self.file_cached_pages);
            let taken = self.take_file_pages(want);
            self.stats.direct_file_pages += taken;
            lat += self.cfg.costs.direct_file_page * taken;
            freed += taken;
        }
        // Then anonymous pages through the swap device, synchronously.
        while freed < target {
            let batch = self
                .cfg
                .direct_batch_pages
                .min(self.anon_pages)
                .min(target - freed);
            if batch == 0 {
                break;
            }
            match self.swap.write_batch(now + lat, batch) {
                Some(io) => {
                    self.apply_anon_reclaim(batch);
                    self.stats.direct_anon_pages += batch;
                    lat += io.latency;
                    freed += batch;
                }
                None => return Err(MemError::SwapFull),
            }
        }
        self.stats.direct_reclaim_time += lat;
        Ok(lat)
    }

    fn pressure_multiplier(&self, path: FaultPath) -> f64 {
        // "Tight" captures the paper's pressure scenarios: free memory is
        // within a few reclaim bands of the watermarks, so faults contend
        // with reclaim on the zone and LRU locks even between kswapd
        // bursts.
        let tight = self.free_pages < self.cfg.wm_high() * 4;
        let base = if self.free_pages < self.cfg.wm_min() {
            self.cfg.costs.low_mem_mult
        } else if tight || self.kswapd.active {
            if self.anon_dominated() {
                // Anonymous pressure: swap-bound reclaim, heavy contention.
                1.0 + (self.cfg.costs.low_mem_mult - 1.0) * 0.7
            } else {
                // File-cache pressure: cheap reclaim, mild contention.
                self.cfg.costs.kswapd_active_mult
            }
        } else {
            1.0
        };
        if path.is_mmap() {
            // Batched population takes the zone locks once per batch.
            1.0 + (base - 1.0) * self.cfg.costs.mmap_mult_soften
        } else {
            base
        }
    }

    fn fault_cost(&mut self, path: FaultPath, pages: u64) -> SimDuration {
        let per = if path.is_mmap() {
            self.cfg.costs.mmap_fault_page
        } else {
            self.cfg.costs.heap_fault_page
        };
        let mut ns = per.as_nanos() as f64 * pages as f64;
        if path.is_mlock() {
            ns *= if path.is_mmap() {
                self.cfg.costs.mlock_discount_mmap
            } else {
                self.cfg.costs.mlock_discount
            };
        }
        ns *= self.pressure_multiplier(path);
        ns *= self.rng.tail_multiplier(self.cfg.costs.noise_sigma);
        SimDuration::from_nanos(ns as u64)
    }

    // ------------------------------------------------------------------
    // Foreground operations
    // ------------------------------------------------------------------

    /// Faults `pages` anonymous pages into `proc` at `now`, constructing
    /// the virtual-physical mapping via the given path.
    ///
    /// Returns the latency the faulting thread experiences: direct-reclaim
    /// time (if free memory is below the `min` watermark) plus the mapping
    /// construction itself.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] / [`MemError::SwapFull`] when the request
    /// cannot be satisfied; [`MemError::UnknownProcess`] for a bad id.
    pub fn alloc_anon(
        &mut self,
        proc: ProcId,
        pages: u64,
        path: FaultPath,
        now: SimTime,
    ) -> Result<SimDuration, MemError> {
        if !self.procs.contains_key(&proc) {
            return Err(MemError::UnknownProcess);
        }
        if pages == 0 {
            return Ok(SimDuration::ZERO);
        }
        self.advance_to(now);
        let mut lat = SimDuration::ZERO;
        if self.free_pages < self.cfg.wm_min() + pages {
            let deficit = (self.cfg.wm_min() + pages).saturating_sub(self.free_pages);
            let target = deficit.max(self.cfg.direct_batch_pages);
            match self.direct_reclaim(target, now) {
                Ok(d) => lat += d,
                Err(MemError::SwapFull) if self.free_pages >= pages => {
                    // Enough for this request even though reclaim stalled.
                }
                Err(e) => {
                    self.stats.oom_events += 1;
                    return Err(e);
                }
            }
        }
        if self.free_pages < pages {
            self.stats.oom_events += 1;
            return Err(MemError::OutOfMemory);
        }
        self.free_pages -= pages;
        let p = self.procs.get_mut(&proc).expect("checked");
        if path.is_mlock() {
            p.locked += pages;
            self.locked_pages += pages;
        } else {
            p.anon_resident += pages;
            self.anon_pages += pages;
        }
        self.stats.faults += 1;
        self.stats.fault_pages += pages;
        lat += self.fault_cost(path, pages);
        self.wake_kswapd(now + lat);
        Ok(lat)
    }

    /// Releases `pages` anonymous (or mlocked) pages of `proc` back to the
    /// kernel (`munmap` / heap trim). Resident pages are freed first, then
    /// swap slots are discarded.
    pub fn release_anon(&mut self, proc: ProcId, pages: u64, locked: bool) {
        let Some(p) = self.procs.get_mut(&proc) else {
            return;
        };
        if locked {
            let take = p.locked.min(pages);
            p.locked -= take;
            self.locked_pages -= take;
            self.free_pages += take;
            return;
        }
        let resident = p.anon_resident.min(pages);
        p.anon_resident -= resident;
        self.anon_pages -= resident;
        self.free_pages += resident;
        let rest = pages - resident;
        let from_swap = p.swapped.min(rest);
        p.swapped -= from_swap;
        self.swap.discard(from_swap);
    }

    /// Converts `pages` of `proc`'s mlocked reservation into ordinary
    /// evictable anonymous memory (`munlock` at hand-off, §4).
    pub fn munlock(&mut self, proc: ProcId, pages: u64) {
        let Some(p) = self.procs.get_mut(&proc) else {
            return;
        };
        let moved = p.locked.min(pages);
        p.locked -= moved;
        p.anon_resident += moved;
        self.locked_pages -= moved;
        self.anon_pages += moved;
    }

    /// Touches `pages` of `proc`'s anonymous data; if part of the process
    /// is swapped out the access may stall on a swap-in.
    ///
    /// Returns the stall latency (zero for fully-resident processes).
    pub fn touch_resident(&mut self, proc: ProcId, pages: u64, now: SimTime) -> SimDuration {
        self.advance_to(now);
        let Some(p) = self.procs.get(&proc) else {
            return SimDuration::ZERO;
        };
        let total = p.anon_resident + p.swapped + p.locked;
        if total == 0 || p.swapped == 0 {
            return SimDuration::ZERO;
        }
        let p_hit = p.swapped as f64 / total as f64;
        let expected = (pages as f64 * p_hit).min(1.0);
        if self.rng.unit() < expected {
            // One page group faults back in through the device queue.
            let cost = self.cfg.costs.swap_in;
            let group = pages.clamp(1, 8);
            let io = self.swap.read_group(now, cost, group);
            let p = self.procs.get_mut(&proc).expect("checked");
            let back = group.min(p.swapped);
            p.swapped -= back;
            // Swapped-in pages need frames; steal from free without reclaim
            // detail (the group is small).
            let grant = back.min(self.free_pages);
            self.free_pages -= grant;
            p.anon_resident += grant;
            self.anon_pages += grant;
            self.stats.swap_ins += 1;
            self.wake_kswapd(now + io.latency);
            io.latency
        } else {
            SimDuration::ZERO
        }
    }

    /// Reads `bytes` of `file` at `now`: cached pages are copied, uncached
    /// pages are read from disk and inserted into the page cache (faulting
    /// frames in, possibly through reclaim).
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownFile`] for a bad id; propagates reclaim errors.
    pub fn read_file(
        &mut self,
        file: FileId,
        bytes: usize,
        now: SimTime,
    ) -> Result<SimDuration, MemError> {
        self.advance_to(now);
        let f = self.files.get(&file).ok_or(MemError::UnknownFile)?;
        let want = pages_for(bytes).min(f.size_pages).max(1);
        let cached_frac = f.cached_pages as f64 / f.size_pages.max(1) as f64;
        let hit = (want as f64 * cached_frac) as u64;
        let miss = want - hit;
        let mut lat = self.per_page_copy * hit;
        if miss > 0 {
            // Need frames for the new cache pages.
            if self.free_pages < self.cfg.wm_min() + miss {
                let deficit = (self.cfg.wm_min() + miss).saturating_sub(self.free_pages);
                lat += self.direct_reclaim(deficit.max(self.cfg.direct_batch_pages), now)?;
            }
            let grant = miss.min(self.free_pages);
            self.free_pages -= grant;
            self.file_cached_pages += grant;
            let read_ns =
                (miss as u128 * PAGE_SIZE as u128 * 1_000_000_000) / self.cfg.disk.read_bw as u128;
            lat += self.cfg.disk.read_setup + SimDuration::from_nanos(read_ns as u64);
            let f = self.files.get_mut(&file).expect("checked");
            f.cached_pages = (f.cached_pages + grant).min(f.size_pages);
        }
        let f = self.files.get_mut(&file).expect("checked");
        f.last_touch = now;
        self.wake_kswapd(now + lat);
        Ok(lat)
    }

    /// Appends `bytes` to `file` (WAL/SST writes): dirty cache pages are
    /// created and the file grows.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownFile`] for a bad id; propagates reclaim errors.
    pub fn write_file(
        &mut self,
        file: FileId,
        bytes: usize,
        now: SimTime,
    ) -> Result<SimDuration, MemError> {
        self.advance_to(now);
        if !self.files.contains_key(&file) {
            return Err(MemError::UnknownFile);
        }
        let pages = pages_for(bytes).max(1);
        let mut lat = SimDuration::ZERO;
        if self.free_pages < self.cfg.wm_min() + pages {
            let deficit = (self.cfg.wm_min() + pages).saturating_sub(self.free_pages);
            lat += self.direct_reclaim(deficit.max(self.cfg.direct_batch_pages), now)?;
        }
        let grant = pages.min(self.free_pages);
        self.free_pages -= grant;
        self.file_cached_pages += grant;
        lat += self.per_page_copy * pages;
        let f = self.files.get_mut(&file).expect("checked");
        f.size_pages += pages;
        f.cached_pages += grant;
        f.last_touch = now;
        self.wake_kswapd(now + lat);
        Ok(lat)
    }

    /// `posix_fadvise(DONTNEED)`: drops the file's cached pages without
    /// touching the disk. Returns `(pages_freed, latency)`; the latency is
    /// charged to the *caller* (the monitor daemon), not to LC services.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownFile`] for a bad id.
    pub fn fadvise_dontneed(
        &mut self,
        file: FileId,
        now: SimTime,
    ) -> Result<(u64, SimDuration), MemError> {
        self.advance_to(now);
        let f = self.files.get_mut(&file).ok_or(MemError::UnknownFile)?;
        let freed = f.cached_pages;
        f.cached_pages = 0;
        self.file_cached_pages -= freed;
        self.free_pages += freed;
        self.stats.fadvise_pages += freed;
        let lat = self.cfg.costs.syscall + self.cfg.costs.fadvise_page * freed;
        Ok((freed, lat))
    }

    /// Memory-bandwidth contention factor for bulk writes: swap-bound
    /// reclaim (anonymous pressure) saturates the memory bus and slows
    /// the caller's page-sized copies; clean file-cache reclaim does not.
    pub fn write_contention(&self) -> f64 {
        if self.free_pages < self.cfg.wm_min() {
            return 2.2;
        }
        if self.is_tight() && self.anon_dominated() {
            1.8
        } else {
            1.0
        }
    }

    /// `true` when free memory sits within a few reclaim bands of the
    /// watermarks (the sustained-pressure regime of §2.2).
    pub fn is_tight(&self) -> bool {
        self.free_pages < self.cfg.wm_high() * 4
    }

    fn anon_dominated(&self) -> bool {
        let threshold = (self.cfg.total_pages() / 50).max(self.cfg.kswapd_batch_pages);
        self.file_cached_pages < threshold
    }

    /// Node-level slowdown observed by co-located services under memory
    /// pressure (scheduler and softirq interference from reclaim): 1.0 on
    /// an idle node; rises when memory is tight, most when reclaim is
    /// swap-bound. Proactive reclamation lifts it by keeping free memory
    /// high — the systemic benefit behind Figures 9-14.
    pub fn service_contention(&self) -> f64 {
        if !self.is_tight() {
            return 1.0;
        }
        if self.free_pages < self.cfg.wm_min() {
            1.6
        } else if self.anon_dominated() {
            1.35
        } else {
            1.12
        }
    }

    /// Deletes a file, dropping any cached pages (unlink + cache release).
    /// Returns the pages freed.
    pub fn delete_file(&mut self, file: FileId) -> u64 {
        if let Some(f) = self.files.remove(&file) {
            self.file_cached_pages -= f.cached_pages;
            self.free_pages += f.cached_pages;
            f.cached_pages
        } else {
            0
        }
    }

    /// Fixed syscall overhead, exposed for the allocator models.
    pub fn syscall_cost(&self) -> SimDuration {
        self.cfg.costs.syscall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OsConfig;

    fn boot() -> (Os, ProcId) {
        let mut os = Os::new(OsConfig::small_test_node());
        let p = os.register_process(ProcKind::LatencyCritical);
        (os, p)
    }

    #[test]
    fn alloc_free_round_trip_conserves_frames() {
        let (mut os, p) = boot();
        let before = os.free_pages();
        os.alloc_anon(p, 100, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        assert_eq!(os.free_pages(), before - 100);
        os.release_anon(p, 100, false);
        assert_eq!(os.free_pages(), before);
    }

    #[test]
    fn mlock_pages_are_unevictable_until_munlock() {
        let (mut os, p) = boot();
        os.alloc_anon(p, 50, FaultPath::HeapMlock, SimTime::ZERO)
            .unwrap();
        let st = os.process(p).unwrap();
        assert_eq!(st.locked, 50);
        assert_eq!(st.anon_resident, 0);
        os.munlock(p, 50);
        let st = os.process(p).unwrap();
        assert_eq!(st.locked, 0);
        assert_eq!(st.anon_resident, 50);
    }

    #[test]
    fn mlock_fault_is_cheaper_than_touch() {
        let cfg = OsConfig {
            costs: CostModelNoNoise::make(),
            ..OsConfig::small_test_node()
        };
        let mut os = Os::new(cfg);
        let p = os.register_process(ProcKind::LatencyCritical);
        let touch = os
            .alloc_anon(p, 64, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        let mlock = os
            .alloc_anon(p, 64, FaultPath::HeapMlock, SimTime::ZERO)
            .unwrap();
        assert!(
            mlock.as_nanos() <= (touch.as_nanos() as f64 * 0.65) as u64,
            "mlock {mlock} vs touch {touch}"
        );
    }

    struct CostModelNoNoise;
    impl CostModelNoNoise {
        fn make() -> crate::config::CostModel {
            crate::config::CostModel {
                noise_sigma: 0.0,
                ..crate::config::CostModel::default()
            }
        }
    }

    #[test]
    fn mmap_path_costs_more_per_page() {
        let cfg = OsConfig {
            costs: CostModelNoNoise::make(),
            ..OsConfig::small_test_node()
        };
        let mut os = Os::new(cfg);
        let p = os.register_process(ProcKind::LatencyCritical);
        let heap = os
            .alloc_anon(p, 64, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        let mmap = os
            .alloc_anon(p, 64, FaultPath::MmapTouch, SimTime::ZERO)
            .unwrap();
        assert!(mmap > heap);
    }

    #[test]
    fn kswapd_wakes_below_low_and_reclaims_file_cache() {
        let (mut os, p) = boot();
        let f = os.create_file(p, 200 << 20).unwrap(); // 200 MiB file
        os.read_file(f, 200 << 20, SimTime::ZERO).unwrap();
        let cached = os.file_cached_pages();
        assert!(cached > 0);
        // Burn almost all memory to drop below the low watermark.
        let low = os.config().wm_low();
        let burn = os.free_pages() - low + 10;
        os.alloc_anon(p, burn, FaultPath::HeapTouch, SimTime::from_millis(1))
            .unwrap();
        assert!(os.kswapd_active());
        // Give kswapd virtual time to work.
        os.advance_to(SimTime::from_secs(2));
        assert!(os.file_cached_pages() < cached, "kswapd dropped file pages");
        assert!(os.free_pages() >= os.config().wm_high() || !os.kswapd_active());
    }

    #[test]
    fn direct_reclaim_engages_below_min_watermark() {
        let (mut os, p) = boot();
        let hog = os.register_process(ProcKind::Batch);
        // Hog fills memory down to just above min.
        let target = os.config().wm_min() + 50;
        let burn = os.free_pages() - target;
        os.alloc_anon(hog, burn, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        let before = os.stats().direct_reclaims;
        let lat = os
            .alloc_anon(p, 100, FaultPath::HeapTouch, SimTime::from_millis(1))
            .unwrap();
        assert!(os.stats().direct_reclaims > before);
        // Anonymous reclaim goes through the swap device: must be slow.
        assert!(lat > SimDuration::from_micros(500), "lat {lat}");
        assert!(os.process(hog).unwrap().swapped > 0);
    }

    #[test]
    fn direct_reclaim_prefers_file_pages() {
        let (mut os, p) = boot();
        let batch = os.register_process(ProcKind::Batch);
        let f = os.create_file(batch, 100 << 20).unwrap();
        os.read_file(f, 100 << 20, SimTime::ZERO).unwrap();
        let target = os.config().wm_min() + 50;
        let burn = os.free_pages() - target;
        os.alloc_anon(batch, burn, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        os.alloc_anon(p, 100, FaultPath::HeapTouch, SimTime::from_millis(1))
            .unwrap();
        let st = os.stats();
        assert!(st.direct_file_pages > 0);
        assert_eq!(st.direct_anon_pages, 0, "file pages should cover it");
    }

    #[test]
    fn oom_when_nothing_reclaimable() {
        let mut os = Os::new(OsConfig {
            swap: crate::config::SwapConfig {
                capacity: 0,
                ..Default::default()
            },
            ..OsConfig::small_test_node()
        });
        let p = os.register_process(ProcKind::Batch);
        let all = os.free_pages();
        // Everything is anonymous and swap has no capacity.
        let r = os.alloc_anon(p, all + 1000, FaultPath::HeapTouch, SimTime::ZERO);
        assert!(r.is_err());
        assert!(os.stats().oom_events > 0);
    }

    #[test]
    fn fadvise_releases_cache_and_charges_caller() {
        let (mut os, p) = boot();
        let f = os.create_file(p, 50 << 20).unwrap();
        os.read_file(f, 50 << 20, SimTime::ZERO).unwrap();
        let free_before = os.free_pages();
        let (freed, lat) = os.fadvise_dontneed(f, SimTime::from_millis(1)).unwrap();
        assert!(freed > 0);
        assert_eq!(os.free_pages(), free_before + freed);
        assert!(lat > SimDuration::ZERO);
        assert_eq!(os.file(f).unwrap().cached_pages, 0);
    }

    #[test]
    fn file_cache_survives_process_exit() {
        let (mut os, _) = boot();
        let batch = os.register_process(ProcKind::Batch);
        let f = os.create_file(batch, 10 << 20).unwrap();
        os.read_file(f, 10 << 20, SimTime::ZERO).unwrap();
        let cached = os.file(f).unwrap().cached_pages;
        os.remove_process(batch);
        assert_eq!(os.file(f).unwrap().cached_pages, cached);
        assert!(os.file_cached_pages() >= cached);
    }

    #[test]
    fn process_exit_frees_anon_immediately() {
        let (mut os, _) = boot();
        let batch = os.register_process(ProcKind::Batch);
        let before = os.free_pages();
        os.alloc_anon(batch, 500, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        os.remove_process(batch);
        assert_eq!(os.free_pages(), before);
    }

    #[test]
    fn second_read_is_cache_hit() {
        let (mut os, p) = boot();
        let f = os.create_file(p, 20 << 20).unwrap();
        let cold = os.read_file(f, 20 << 20, SimTime::ZERO).unwrap();
        let warm = os.read_file(f, 20 << 20, SimTime::from_millis(1)).unwrap();
        assert!(warm < cold / 10, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn touch_resident_stalls_on_swapped_process() {
        let (mut os, _) = boot();
        let hog = os.register_process(ProcKind::Batch);
        let target = os.config().wm_min() + 10;
        let burn = os.free_pages() - target;
        os.alloc_anon(hog, burn, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        // Force swapping via another allocation.
        os.alloc_anon(hog, 200, FaultPath::HeapTouch, SimTime::from_millis(1))
            .unwrap();
        assert!(os.process(hog).unwrap().swapped > 0);
        // Touch enough pages that a swap-in is certain.
        let stall = os.touch_resident(hog, 1 << 20, SimTime::from_millis(2));
        assert!(stall >= SimDuration::from_millis(1), "stall {stall}");
    }

    #[test]
    fn utilisation_integrates_over_time() {
        let (mut os, p) = boot();
        let half = os.config().total_pages() / 2;
        os.alloc_anon(p, half, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        os.advance_to(SimTime::from_secs(10));
        let u = os.mean_utilisation(SimTime::from_secs(10));
        assert!((u - 0.5).abs() < 0.05, "utilisation {u}");
    }

    #[test]
    fn zero_page_alloc_is_free() {
        let (mut os, p) = boot();
        let lat = os
            .alloc_anon(p, 0, FaultPath::HeapTouch, SimTime::ZERO)
            .unwrap();
        assert_eq!(lat, SimDuration::ZERO);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (mut os, _) = boot();
        assert_eq!(
            os.alloc_anon(ProcId(999), 1, FaultPath::HeapTouch, SimTime::ZERO),
            Err(MemError::UnknownProcess)
        );
        assert!(os.read_file(FileId(999), 1, SimTime::ZERO).is_err());
        assert!(os.write_file(FileId(999), 1, SimTime::ZERO).is_err());
        assert!(os.fadvise_dontneed(FileId(999), SimTime::ZERO).is_err());
    }
}
