//! The memory monitor daemon wired to the simulated OS (§3.3).
//!
//! Periodically scans the node (the paper uses `lsof` + `/proc`); when
//! memory usage exceeds [`ADV_THR`] it advises the kernel to drop batch-job
//! file cache, largest file first, via `posix_fadvise(DONTNEED)`, down to
//! [`CACHE_TARGET`]. The scan and advising cost is charged to the daemon
//! (its own CPU), never to the latency-critical services.

use hermes_core::policy::{select_victims, FileCacheView, ReclaimInputs, ADV_THR, CACHE_TARGET};
use hermes_os::prelude::*;
use hermes_sim::time::{SimDuration, SimTime};

/// Simulated monitor daemon.
#[derive(Debug)]
pub struct MonitorDaemonSim {
    enabled: bool,
    check_interval: SimDuration,
    next_check: SimTime,
    /// Minimum spacing between advising passes: dropping the batch
    /// working set more often than this just forces continuous re-reads
    /// (and the real daemon's lsof scan is itself expensive).
    advise_cooldown: SimDuration,
    last_advise: SimTime,
    busy: SimDuration,
    fadvised_pages: u64,
    advise_calls: u64,
}

impl MonitorDaemonSim {
    /// Creates the daemon. `enabled = false` scans but never advises:
    /// the daemon of the baseline allocators and of the "Hermes w/o rec"
    /// series.
    pub fn new(enabled: bool) -> Self {
        MonitorDaemonSim {
            enabled,
            check_interval: SimDuration::from_millis(100),
            next_check: SimDuration::from_millis(100).into_time(),
            advise_cooldown: SimDuration::from_secs(5),
            last_advise: SimTime::ZERO,
            busy: SimDuration::ZERO,
            fadvised_pages: 0,
            advise_calls: 0,
        }
    }

    /// `true` when proactive reclamation is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Total pages released via fadvise.
    pub fn fadvised_pages(&self) -> u64 {
        self.fadvised_pages
    }

    /// Number of advising calls issued.
    pub fn advise_calls(&self) -> u64 {
        self.advise_calls
    }

    /// Daemon CPU time consumed (≈2.4 % in the paper's §5.5).
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Fast-forwards the daemon's periodic checks to `now`.
    pub fn advance_to(&mut self, now: SimTime, os: &mut Os) {
        while self.next_check <= now {
            let t = self.next_check;
            self.next_check += self.check_interval;
            // The lsof-style scan costs a little CPU even when idle.
            self.busy += SimDuration::from_micros(200);
            if !self.enabled {
                continue;
            }
            let used = os.used_fraction();
            if used <= ADV_THR {
                continue;
            }
            if self.last_advise > SimTime::ZERO
                && t.saturating_duration_since(self.last_advise) < self.advise_cooldown
            {
                continue;
            }
            let total = os.config().total_ram;
            let files: Vec<FileCacheView> = os
                .files()
                .map(|(id, f)| FileCacheView {
                    file: id.0,
                    cached_bytes: f.cached_pages as usize * PAGE_SIZE,
                    batch_owned: f.owner_kind == ProcKind::Batch,
                })
                .collect();
            let decision = select_victims(
                &files,
                ReclaimInputs {
                    used_fraction: used,
                    total_bytes: total,
                    file_cache_bytes: os.file_cached_pages() as usize * PAGE_SIZE,
                },
                ADV_THR,
                CACHE_TARGET,
            );
            if !decision.victims.is_empty() {
                self.last_advise = t;
            }
            for victim in decision.victims {
                if let Ok((pages, lat)) = os.fadvise_dontneed(FileId(victim), t) {
                    self.fadvised_pages += pages;
                    self.advise_calls += 1;
                    self.busy += lat;
                }
            }
        }
    }
}

/// Helper: convert a duration offset from time zero into an instant.
trait IntoTime {
    fn into_time(self) -> SimTime;
}

impl IntoTime for SimDuration {
    fn into_time(self) -> SimTime {
        SimTime::ZERO + self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_os::config::OsConfig;
    use hermes_os::types::FaultPath;

    fn pressured_node() -> (Os, ProcId) {
        let mut os = Os::new(OsConfig::small_test_node());
        let batch = os.register_process(ProcKind::Batch);
        // Big batch file fills the cache.
        let f = os.create_file(batch, 300 << 20).unwrap();
        os.read_file(f, 300 << 20, SimTime::ZERO).unwrap();
        // Anonymous load pushes usage above 90 %.
        let burn = (os.free_pages() as f64 * 0.95) as u64;
        os.alloc_anon(batch, burn, FaultPath::HeapTouch, SimTime::from_millis(1))
            .unwrap();
        (os, batch)
    }

    #[test]
    fn advises_batch_files_under_pressure() {
        let (mut os, _) = pressured_node();
        let mut d = MonitorDaemonSim::new(true);
        assert!(os.used_fraction() > 0.9);
        let cached_before = os.file_cached_pages();
        d.advance_to(SimTime::from_secs(1), &mut os);
        assert!(d.fadvised_pages() > 0);
        assert!(os.file_cached_pages() < cached_before);
        assert!(d.busy() > SimDuration::ZERO);
    }

    #[test]
    fn disabled_daemon_never_advises() {
        let (mut os, _) = pressured_node();
        let mut d = MonitorDaemonSim::new(false);
        d.advance_to(SimTime::from_secs(1), &mut os);
        assert_eq!(d.fadvised_pages(), 0);
        assert!(!d.is_enabled());
    }

    #[test]
    fn no_advice_below_threshold() {
        let mut os = Os::new(OsConfig::small_test_node());
        let batch = os.register_process(ProcKind::Batch);
        let f = os.create_file(batch, 50 << 20).unwrap();
        os.read_file(f, 50 << 20, SimTime::ZERO).unwrap();
        let mut d = MonitorDaemonSim::new(true);
        d.advance_to(SimTime::from_secs(1), &mut os);
        assert_eq!(d.fadvised_pages(), 0, "usage below ADV_THR");
    }

    #[test]
    fn lc_owned_files_survive() {
        let mut os = Os::new(OsConfig::small_test_node());
        let lc = os.register_process(ProcKind::LatencyCritical);
        let batch = os.register_process(ProcKind::Batch);
        let lc_file = os.create_file(lc, 50 << 20).unwrap();
        let batch_file = os.create_file(batch, 200 << 20).unwrap();
        os.read_file(lc_file, 50 << 20, SimTime::ZERO).unwrap();
        os.read_file(batch_file, 200 << 20, SimTime::ZERO).unwrap();
        let burn = (os.free_pages() as f64 * 0.95) as u64;
        os.alloc_anon(batch, burn, FaultPath::HeapTouch, SimTime::from_millis(1))
            .unwrap();
        let mut d = MonitorDaemonSim::new(true);
        d.advance_to(SimTime::from_secs(1), &mut os);
        assert!(os.file(lc_file).unwrap().cached_pages > 0, "LC file kept");
        assert_eq!(
            os.file(batch_file).unwrap().cached_pages,
            0,
            "batch file dropped"
        );
    }
}
