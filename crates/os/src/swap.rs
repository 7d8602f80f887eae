//! Swap-device model: a single FIFO queue shared by kswapd write-back,
//! direct reclaimers and swap-ins, so queueing delay under pressure emerges
//! from contention rather than being scripted.

use crate::config::{SwapConfig, PAGE_SIZE};
use hermes_sim::time::{SimDuration, SimTime};

/// A single-queue rotational swap device.
#[derive(Debug, Clone)]
pub struct SwapDevice {
    cfg: SwapConfig,
    busy_until: SimTime,
    used_pages: u64,
    writes: u64,
    reads: u64,
}

/// Outcome of a device operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoOutcome {
    /// When the operation completes.
    pub done_at: SimTime,
    /// Total latency experienced by a synchronous caller issuing at `now`
    /// (queue wait plus the transfer itself).
    pub latency: SimDuration,
}

impl SwapDevice {
    /// Creates a device from its configuration.
    pub fn new(cfg: SwapConfig) -> Self {
        SwapDevice {
            cfg,
            busy_until: SimTime::ZERO,
            used_pages: 0,
            writes: 0,
            reads: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        (self.cfg.capacity / PAGE_SIZE) as u64
    }

    /// Pages currently stored in the swap area.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Free pages in the swap area.
    pub fn free_pages(&self) -> u64 {
        self.capacity_pages() - self.used_pages
    }

    /// Instant the device becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Number of batch writes issued.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of reads (swap-ins) issued.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    fn transfer_time(&self, pages: u64) -> SimDuration {
        let bytes = pages as u128 * PAGE_SIZE as u128;
        let ns = bytes * 1_000_000_000 / self.cfg.write_bw as u128;
        self.cfg.batch_setup + SimDuration::from_nanos(ns as u64)
    }

    /// Duration a write batch of `pages` would occupy the device,
    /// excluding queue wait.
    pub fn estimate_write(&self, pages: u64) -> SimDuration {
        self.transfer_time(pages)
    }

    /// Queues a swap-out batch of `pages` at `now`.
    ///
    /// Returns `None` when the swap area cannot hold the batch. The caller
    /// decides whether the write is synchronous (direct reclaim waits for
    /// `latency`) or asynchronous (kswapd just advances its own clock).
    pub fn write_batch(&mut self, now: SimTime, pages: u64) -> Option<IoOutcome> {
        if pages == 0 {
            return Some(IoOutcome {
                done_at: now,
                latency: SimDuration::ZERO,
            });
        }
        if self.free_pages() < pages {
            return None;
        }
        let start = now.max(self.busy_until);
        let dur = self.transfer_time(pages);
        self.busy_until = start + dur;
        self.used_pages += pages;
        self.writes += 1;
        Some(IoOutcome {
            done_at: self.busy_until,
            latency: self.busy_until.duration_since(now),
        })
    }

    /// Queues a synchronous swap-in of one page group at `now`.
    ///
    /// `group_cost` is the configured per-fault read latency; the device
    /// queue adds any wait behind in-flight write-back.
    pub fn read_group(&mut self, now: SimTime, group_cost: SimDuration, pages: u64) -> IoOutcome {
        let start = now.max(self.busy_until);
        self.busy_until = start + group_cost;
        self.used_pages = self.used_pages.saturating_sub(pages);
        self.reads += 1;
        IoOutcome {
            done_at: self.busy_until,
            latency: self.busy_until.duration_since(now),
        }
    }

    /// Discards swapped pages without I/O (process exit frees swap slots).
    pub fn discard(&mut self, pages: u64) {
        self.used_pages = self.used_pages.saturating_sub(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> SwapDevice {
        SwapDevice::new(SwapConfig {
            capacity: 1 << 20, // 256 pages
            batch_pages: 32,
            batch_setup: SimDuration::from_micros(100),
            write_bw: 4 << 20, // 4 MiB/s => 1 page ~ 1ms
        })
    }

    #[test]
    fn write_batch_charges_setup_plus_transfer() {
        let mut d = dev();
        let out = d.write_batch(SimTime::ZERO, 4).unwrap();
        // 4 pages * 4096 B at 4 MiB/s = 16384/4194304 s ~ 3.906 ms + 100us.
        let expect_ns = 100_000 + (4 * 4096u64) * 1_000_000_000 / (4 << 20);
        assert_eq!(out.latency.as_nanos(), expect_ns);
        assert_eq!(d.used_pages(), 4);
    }

    #[test]
    fn queueing_serialises_operations() {
        let mut d = dev();
        let a = d.write_batch(SimTime::ZERO, 4).unwrap();
        let b = d.write_batch(SimTime::ZERO, 4).unwrap();
        assert_eq!(b.done_at.duration_since(a.done_at), a.latency);
        // A read issued at time zero waits behind both writes.
        let r = d.read_group(SimTime::ZERO, SimDuration::from_millis(6), 1);
        assert!(r.latency > b.done_at.duration_since(SimTime::ZERO));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut d = dev();
        assert_eq!(d.capacity_pages(), 256);
        assert!(d.write_batch(SimTime::ZERO, 256).is_some());
        assert!(d.write_batch(SimTime::ZERO, 1).is_none());
        d.discard(10);
        assert!(d.write_batch(SimTime::ZERO, 10).is_some());
    }

    #[test]
    fn zero_page_write_is_free() {
        let mut d = dev();
        let out = d.write_batch(SimTime::from_nanos(5), 0).unwrap();
        assert_eq!(out.latency, SimDuration::ZERO);
        assert_eq!(d.write_count(), 0);
    }

    #[test]
    fn read_frees_swap_slots() {
        let mut d = dev();
        d.write_batch(SimTime::ZERO, 8).unwrap();
        d.read_group(SimTime::ZERO, SimDuration::from_millis(1), 8);
        assert_eq!(d.used_pages(), 0);
        assert_eq!(d.read_count(), 1);
    }

    #[test]
    fn idle_device_has_no_queue_wait() {
        let mut d = dev();
        let t = SimTime::from_secs(1);
        let r = d.read_group(t, SimDuration::from_millis(2), 1);
        assert_eq!(r.latency, SimDuration::from_millis(2));
    }
}
