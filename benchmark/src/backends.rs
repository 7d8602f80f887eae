//! Two benchmark-owned [`AllocatorBackend`]s.
//!
//! * [`Tap`] — the untraced pass's window onto the runtime. A service
//!   owns its backend and hands out only `&dyn AllocatorBackend`, so the
//!   driver cannot reach `RealHermesBackend::heap()` directly. `Tap`
//!   delegates every call unchanged (no added work on `malloc`, `free`
//!   or `access`) and, when the driver asks for `stats()` — between
//!   trials, never inside one — also leaves a full [`HeapProbe`] in a
//!   cell the driver shares.
//! * [`NoopBackend`] — keeps the handle contract and moves no memory, so
//!   the same driver loop over it measures what the harness and the
//!   service model cost by themselves.

use crate::surface::{
    AllocError, AllocHandle, AllocatorBackend, BackendKind, BackendStats, ClockHandle, HeapProbe,
    IntegrityError, RealHermesBackend, SimDuration, WallClock,
};
use std::sync::{Arc, Mutex};

/// Where [`Tap`] leaves its probes.
pub type ProbeCell = Arc<Mutex<Option<HeapProbe>>>;

pub struct Tap {
    inner: RealHermesBackend,
    cell: ProbeCell,
}

impl Tap {
    pub fn new(inner: RealHermesBackend) -> (Self, ProbeCell) {
        let cell = ProbeCell::default();
        (
            Tap {
                inner,
                cell: Arc::clone(&cell),
            },
            cell,
        )
    }
}

impl AllocatorBackend for Tap {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn clock(&self) -> ClockHandle {
        self.inner.clock()
    }

    #[inline]
    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        self.inner.malloc(size)
    }

    #[inline]
    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        self.inner.free(handle)
    }

    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        self.inner.realloc(handle, new_size)
    }

    #[inline]
    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        self.inner.access(handle, bytes)
    }

    #[inline]
    fn advance(&mut self) {
        self.inner.advance()
    }

    fn stats(&self) -> BackendStats {
        let probe = HeapProbe::take(self.inner.heap());
        *self
            .cell
            .lock()
            .expect("the probe cell is only ever assigned") = Some(probe);
        self.inner.stats()
    }

    fn contention(&self) -> f64 {
        self.inner.contention()
    }

    fn check(&self) -> Result<(), IntegrityError> {
        self.inner.check()
    }
}

/// A backend that allocates nothing: handles are slots of a size table.
#[derive(Debug)]
pub struct NoopBackend {
    clock: WallClock,
    sizes: Vec<Option<usize>>,
    free: Vec<usize>,
    live_bytes: usize,
    allocs: u64,
    frees: u64,
}

impl NoopBackend {
    pub fn new() -> Self {
        NoopBackend {
            clock: WallClock::new(),
            sizes: Vec::new(),
            free: Vec::new(),
            live_bytes: 0,
            allocs: 0,
            frees: 0,
        }
    }
}

impl AllocatorBackend for NoopBackend {
    fn kind(&self) -> BackendKind {
        // The closest label the enum has; nothing reads it here.
        BackendKind::RealSystem
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::Wall(self.clock)
    }

    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        let slot = match self.free.pop() {
            Some(i) => i,
            None => {
                self.sizes.push(None);
                self.sizes.len() - 1
            }
        };
        self.sizes[slot] = Some(size);
        self.live_bytes += size;
        self.allocs += 1;
        Ok((AllocHandle(slot as u64), SimDuration::ZERO))
    }

    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        if let Some(size) = self.sizes.get_mut(handle.0 as usize).and_then(Option::take) {
            self.free.push(handle.0 as usize);
            self.live_bytes -= size;
            self.frees += 1;
        }
        SimDuration::ZERO
    }

    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        let slot = self
            .sizes
            .get_mut(handle.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(AllocError::Exhausted)?;
        self.live_bytes = self.live_bytes - *slot + new_size;
        *slot = new_size;
        Ok((handle, SimDuration::ZERO))
    }

    fn access(&mut self, _handle: AllocHandle, _bytes: usize) -> SimDuration {
        SimDuration::ZERO
    }

    fn advance(&mut self) {}

    fn stats(&self) -> BackendStats {
        BackendStats {
            alloc_count: self.allocs,
            free_count: self.frees,
            live: (self.sizes.len() - self.free.len()) as u64,
            live_bytes: self.live_bytes,
            ..BackendStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{RealFiles, RedisModel, RocksdbModel, Service};

    #[test]
    fn noop_backend_keeps_the_handle_contract() {
        let mut b = NoopBackend::new();
        let (h1, _) = b.malloc(100).unwrap();
        let (h2, _) = b.malloc(200).unwrap();
        assert_ne!(h1, h2, "live handles are distinct");
        assert_eq!((b.stats().live, b.stats().live_bytes), (2, 300));
        b.free(h1);
        b.free(h1); // a stale handle is ignored, as the real backends do
        assert_eq!((b.stats().live, b.stats().live_bytes), (1, 200));
        let (h3, _) = b.malloc(50).unwrap();
        assert_ne!(h3, h2, "a recycled slot never aliases a live handle");
        let (h2b, _) = b.realloc(h2, 500).unwrap();
        assert_eq!(b.stats().live_bytes, 550);
        assert!(b.realloc(AllocHandle(99), 1).is_err());
        b.free(h2b);
        b.free(h3);
        assert_eq!((b.stats().live, b.stats().live_bytes), (0, 0));
        assert_eq!(b.stats().alloc_count, b.stats().free_count);
    }

    #[test]
    fn services_run_over_the_noop_backend() {
        let mut redis = RedisModel::new(NoopBackend::new(), 1);
        for i in 0..1000usize {
            redis.query(100 + i).unwrap();
            if i % 2 == 1 {
                redis.delete_one();
            }
        }
        let s = redis.backend().stats();
        assert_eq!(s.live, 2 * 500, "entry + value per stored record");
        assert_eq!(s.live_bytes, redis.stored_bytes() + 64 * 500);
        while redis.stored_bytes() > 0 {
            redis.delete_one();
        }
        assert_eq!(redis.backend().stats().live, 0);

        let mut rocks =
            RocksdbModel::new(NoopBackend::new(), Box::new(RealFiles::new()), 1).unwrap();
        for _ in 0..1000 {
            rocks.query(1024).unwrap();
        }
        // 1000 nodes plus one 256 KiB arena block per 256 values.
        assert_eq!(rocks.backend().stats().live, 1000 + 4);
        assert_eq!(rocks.stored_bytes(), 1000 * 1024);
    }
}
