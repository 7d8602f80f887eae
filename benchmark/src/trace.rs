//! Spans recorded from the benchmark's own files, around every call into
//! a layer: the driver opens a root span per service call (`query`,
//! `delete_one`), and [`TracedBackend`] — a benchmark-owned
//! [`AllocatorBackend`] that delegates to the real one — records a child
//! span per backend call, tagging each `malloc` with the runtime path it
//! took (read off the runtime's own counters across the call).
//!
//! Spans stay in memory and are written out when the pass ends. A span's
//! self time is its duration minus what its children cover.

use crate::surface::{
    AllocError, AllocHandle, AllocatorBackend, BackendKind, BackendStats, ClockHandle,
    CountersSnapshot, IntegrityError, RealHermesBackend, SimDuration,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which call a span covers. `Probe` is the tracer reading the runtime's
/// counters: recorded so that its cost is booked to the instrument, not
/// to the service's self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Name {
    Query,
    DeleteOne,
    Malloc,
    Free,
    Access,
    Probe,
    /// `handoff`: one block's `allocate` + tag write on thread A.
    HandoffAlloc,
    /// `handoff`: one block's tag check + `deallocate` on thread B.
    HandoffFree,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Query => "query",
            Name::DeleteOne => "delete_one",
            Name::Malloc => "backend.malloc",
            Name::Free => "backend.free",
            Name::Access => "backend.access",
            Name::Probe => "trace.probe",
            Name::HandoffAlloc => "rt.allocate",
            Name::HandoffFree => "rt.deallocate",
        }
    }
}

/// The runtime path one allocation took, classified from the deltas of
/// the runtime's counters across the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    None,
    TcacheHit,
    TcacheRefill,
    SmallFast,
    SmallSlow,
    LargeFast,
    LargeSlow,
}

impl Path {
    pub const ALLOC: [Path; 6] = [
        Path::TcacheHit,
        Path::TcacheRefill,
        Path::SmallFast,
        Path::SmallSlow,
        Path::LargeFast,
        Path::LargeSlow,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Path::None => "",
            Path::TcacheHit => "tcache_hit",
            Path::TcacheRefill => "tcache_refill",
            Path::SmallFast => "small_fast",
            Path::SmallSlow => "small_slow",
            Path::LargeFast => "large_fast",
            Path::LargeSlow => "large_slow",
        }
    }
}

/// The counters that move on an allocation, and only then (the manager
/// never allocates), so the value after one `malloc` is the value before
/// the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCounts {
    hits: u64,
    refills: u64,
    fast_small: u64,
    slow_small: u64,
    fast_large: u64,
    slow_large: u64,
}

impl From<CountersSnapshot> for PathCounts {
    fn from(c: CountersSnapshot) -> Self {
        PathCounts {
            hits: c.tcache_hits,
            refills: c.tcache_refills,
            fast_small: c.fast_small,
            slow_small: c.slow_small,
            fast_large: c.fast_large,
            slow_large: c.slow_large,
        }
    }
}

impl PathCounts {
    /// `(path, grew)`: the path of the single allocation between `self`
    /// and `after`, and whether the caller's thread constructed mappings
    /// during it (the runtime books `slow_*` exactly when committed bytes
    /// rise on the allocating thread). A refill that faulted is a refill
    /// that grew.
    pub fn classify(&self, after: &PathCounts) -> (Path, bool) {
        let grew = after.slow_small > self.slow_small || after.slow_large > self.slow_large;
        let path = if after.refills > self.refills {
            Path::TcacheRefill
        } else if after.hits > self.hits {
            Path::TcacheHit
        } else if after.slow_large > self.slow_large {
            Path::LargeSlow
        } else if after.fast_large > self.fast_large {
            Path::LargeFast
        } else if after.slow_small > self.slow_small {
            Path::SmallSlow
        } else if after.fast_small > self.fast_small {
            Path::SmallFast
        } else {
            Path::None
        };
        (path, grew)
    }
}

/// One recorded span. `parent == 0` marks a root; spans of one query
/// share `query`. `inner_ns` is the latency the backend itself reported
/// for the call (its own tight timer around the runtime call and the
/// first write), 0 where there is none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub query: u32,
    pub name: Name,
    pub path: Path,
    pub grew: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub inner_ns: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// State shared by the driver (roots) and the traced backend
/// (children): the time base, the id dispenser, the current root, and
/// the sink both flush into when they are done.
#[derive(Debug)]
pub struct TraceCtx {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    root: AtomicU32,
    query: AtomicU32,
    sink: Mutex<Vec<Span>>,
}

impl TraceCtx {
    pub fn new() -> Arc<Self> {
        Arc::new(TraceCtx {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            root: AtomicU32::new(0),
            query: AtomicU32::new(0),
            sink: Mutex::new(Vec::new()),
        })
    }

    /// Spans are recorded only while enabled (not during set-up).
    pub fn enable(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn flush(&self, spans: &mut Vec<Span>) {
        self.sink
            .lock()
            .expect("no span writer panics while holding the sink")
            .append(spans);
    }

    /// All spans flushed so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut v = std::mem::take(
            &mut *self
                .sink
                .lock()
                .expect("no span writer panics while holding the sink"),
        );
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// The driver's side: opens and closes one root span per service call.
#[derive(Debug)]
pub struct RootTracer {
    ctx: Arc<TraceCtx>,
    spans: Vec<Span>,
    open: Option<(u32, Name, u64)>,
}

impl RootTracer {
    pub fn new(ctx: Arc<TraceCtx>, capacity: usize) -> Self {
        RootTracer {
            ctx,
            spans: Vec::with_capacity(capacity),
            open: None,
        }
    }

    pub fn begin(&mut self, query: u32, name: Name) {
        let id = self.ctx.id();
        self.ctx.root.store(id, Ordering::Relaxed);
        self.ctx.query.store(query, Ordering::Relaxed);
        self.open = Some((id, name, self.ctx.now()));
    }

    pub fn end(&mut self) {
        let end_ns = self.ctx.now();
        let (id, name, start_ns) = self.open.take().expect("end follows begin");
        self.spans.push(Span {
            id,
            parent: 0,
            query: self.ctx.query.load(Ordering::Relaxed),
            name,
            path: Path::None,
            grew: false,
            start_ns,
            end_ns,
            inner_ns: 0,
        });
    }

    pub fn finish(mut self) {
        self.ctx.flush(&mut self.spans);
    }
}

/// A backend that records a span around every call into the backend it
/// wraps. Child spans go to a preallocated local buffer and are flushed
/// to the shared sink when the backend is dropped.
pub struct TracedBackend<B: AllocatorBackend> {
    inner: B,
    ctx: Arc<TraceCtx>,
    probe: fn(&B) -> Option<PathCounts>,
    last: Option<PathCounts>,
    spans: Vec<Span>,
}

impl TracedBackend<RealHermesBackend> {
    /// Traces the real Hermes backend, classifying each `malloc` from
    /// the runtime's counters.
    pub fn hermes(inner: RealHermesBackend, ctx: Arc<TraceCtx>, capacity: usize) -> Self {
        TracedBackend::new(inner, ctx, capacity, |b| Some(b.heap().counters().into()))
    }
}

impl<B: AllocatorBackend> TracedBackend<B> {
    pub fn new(
        inner: B,
        ctx: Arc<TraceCtx>,
        capacity: usize,
        probe: fn(&B) -> Option<PathCounts>,
    ) -> Self {
        TracedBackend {
            inner,
            ctx,
            probe,
            last: None,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, name: Name, start_ns: u64, end_ns: u64, inner_ns: u64, tag: (Path, bool)) {
        self.spans.push(Span {
            id: self.ctx.id(),
            parent: self.ctx.root.load(Ordering::Relaxed),
            query: self.ctx.query.load(Ordering::Relaxed),
            name,
            path: tag.0,
            grew: tag.1,
            start_ns,
            end_ns,
            inner_ns: inner_ns.min(u32::MAX as u64) as u32,
        });
    }
}

impl<B: AllocatorBackend> AllocatorBackend for TracedBackend<B> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn clock(&self) -> ClockHandle {
        self.inner.clock()
    }

    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        if !self.ctx.on.load(Ordering::Relaxed) {
            self.last = None;
            return self.inner.malloc(size);
        }
        // Only the first traced malloc reads the counters beforehand.
        let before = self.last.or_else(|| (self.probe)(&self.inner));
        let t0 = self.ctx.now();
        let r = self.inner.malloc(size);
        let t1 = self.ctx.now();
        let after = (self.probe)(&self.inner);
        let tag = match (before, after) {
            (Some(b), Some(a)) => b.classify(&a),
            _ => (Path::None, false),
        };
        self.last = after;
        let t2 = self.ctx.now();
        let inner_ns = r.as_ref().map_or(0, |(_, lat)| lat.as_nanos());
        self.push(Name::Malloc, t0, t1, inner_ns, tag);
        self.push(Name::Probe, t1, t2, 0, (Path::None, false));
        r
    }

    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        if !self.ctx.on.load(Ordering::Relaxed) {
            return self.inner.free(handle);
        }
        let t0 = self.ctx.now();
        let lat = self.inner.free(handle);
        let t1 = self.ctx.now();
        self.push(Name::Free, t0, t1, lat.as_nanos(), (Path::None, false));
        lat
    }

    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        // No workload reallocs; an allocation here would stale `last`.
        self.last = None;
        self.inner.realloc(handle, new_size)
    }

    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        if !self.ctx.on.load(Ordering::Relaxed) {
            return self.inner.access(handle, bytes);
        }
        let t0 = self.ctx.now();
        let lat = self.inner.access(handle, bytes);
        let t1 = self.ctx.now();
        self.push(Name::Access, t0, t1, lat.as_nanos(), (Path::None, false));
        lat
    }

    fn advance(&mut self) {
        self.inner.advance()
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn contention(&self) -> f64 {
        self.inner.contention()
    }

    fn check(&self) -> Result<(), IntegrityError> {
        self.inner.check()
    }
}

impl<B: AllocatorBackend> Drop for TracedBackend<B> {
    fn drop(&mut self) {
        let mut spans = std::mem::take(&mut self.spans);
        self.ctx.flush(&mut spans);
    }
}

/// Self time per span, in the order given: the span's duration minus the
/// part of its interval its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let tag = if s.grew && s.path != Path::None {
            format!("{}+grow", s.path.label())
        } else {
            s.path.label().to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"inner_ns\":{},\"tag\":\"{}\"}}",
            s.id,
            s.parent,
            s.query,
            s.name.label(),
            s.start_ns,
            s.end_ns,
            s.inner_ns,
            tag
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            path: Path::None,
            grew: false,
            start_ns,
            end_ns,
            inner_ns: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // query [0,100) with malloc [10,40), probe [40,45), access
        // [60,80); a nested grandchild under malloc [20,30); a child
        // sticking out of its parent [90,120) is clipped to 10.
        let spans = [
            span(1, 0, Name::Query, 0, 100),
            span(2, 1, Name::Malloc, 10, 40),
            span(3, 1, Name::Probe, 40, 45),
            span(4, 1, Name::Access, 60, 80),
            span(5, 2, Name::Probe, 20, 30),
            span(6, 1, Name::Free, 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 30 - 5 - 20 - 10);
        assert_eq!(st[1], 30 - 10);
        assert_eq!(st[2], 5);
        assert_eq!(st[3], 20);
        assert_eq!(st[4], 10);
        assert_eq!(st[5], 30, "a span's own self time is not clipped");
        // Every nanosecond of the root is booked exactly once among the
        // spans inside it.
        let inside: u64 = st[..5].iter().sum::<u64>() + 10;
        assert_eq!(inside, 100);
    }

    #[test]
    fn paths_classify_from_counter_deltas() {
        let zero = PathCounts {
            hits: 0,
            refills: 0,
            fast_small: 0,
            slow_small: 0,
            fast_large: 0,
            slow_large: 0,
        };
        let hit = PathCounts {
            hits: 1,
            fast_small: 1,
            ..zero
        };
        assert_eq!(zero.classify(&hit), (Path::TcacheHit, false));
        let faulted_refill = PathCounts {
            refills: 1,
            slow_small: 1,
            ..zero
        };
        assert_eq!(zero.classify(&faulted_refill), (Path::TcacheRefill, true));
        let cold = PathCounts {
            slow_large: 1,
            ..zero
        };
        assert_eq!(zero.classify(&cold), (Path::LargeSlow, true));
        let pool = PathCounts {
            fast_large: 1,
            ..zero
        };
        assert_eq!(zero.classify(&pool), (Path::LargeFast, false));
        let bin = PathCounts {
            fast_small: 1,
            ..zero
        };
        assert_eq!(zero.classify(&bin), (Path::SmallFast, false));
        assert_eq!(zero.classify(&zero), (Path::None, false));
    }
}
