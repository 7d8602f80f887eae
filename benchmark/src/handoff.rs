//! The `handoff` workload: two threads in strict alternation, directly
//! on the allocator (`AllocatorBackend` is `&mut self`, so no service
//! can be shared). Thread A allocates, writes and tags a batch of 1024
//! blocks and hands it over; thread B checks every tag, frees the block
//! and hands the empty batch back. Only one of them is runnable at a
//! time, so both sit on the same CPU and the management thread keeps its
//! own.
//!
//! A query is one block; its latency is its allocate + first-write time
//! on A plus its check + free time on B.

use crate::report::PassOutput;
use crate::service::Measured;
use crate::stats::pctls;
use crate::surface::{block_layout, HeapProbe, HermesHeap, MMAP_THRESHOLD};
use crate::trace::{Name, Path, PathCounts, Span, TraceCtx};
use crate::workload::{stream_hash, Phase, Plan, Workload, HANDOFF_BATCH};
use std::ptr::NonNull;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// The allocator under the alternation: the Hermes runtime, or the
/// process allocator for the reference pass.
pub trait RawAlloc: Send + Sync + 'static {
    fn alloc(&self, size: usize) -> Option<NonNull<u8>>;

    /// # Safety
    ///
    /// `p` must come from `alloc(size)` on this allocator, freed once.
    unsafe fn dealloc(&self, p: NonNull<u8>, size: usize);

    /// The runtime's own statistics, where it has any.
    fn probe(&self) -> Option<HeapProbe> {
        None
    }

    /// The counters that classify an allocation's path, where the
    /// allocator keeps them (cheaper than a full [`RawAlloc::probe`]).
    fn path_counts(&self) -> Option<PathCounts> {
        None
    }

    /// How many arenas frees are routed between (1: no routing).
    fn arenas(&self) -> usize {
        1
    }

    /// The calling thread's home arena.
    fn home_arena(&self) -> usize {
        0
    }

    /// Walks the allocator's structures, where it can.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Blocks still held by users once every block was freed and every
    /// other thread has exited (so its staged frees are flushed).
    fn leaked(&self) -> usize {
        0
    }
}

impl RawAlloc for HermesHeap {
    fn alloc(&self, size: usize) -> Option<NonNull<u8>> {
        self.allocate(block_layout(size)).ok()
    }

    unsafe fn dealloc(&self, p: NonNull<u8>, size: usize) {
        // SAFETY: forwarded contract.
        unsafe { self.deallocate(p, block_layout(size)) }
    }

    fn probe(&self) -> Option<HeapProbe> {
        Some(HeapProbe::take(self))
    }

    fn path_counts(&self) -> Option<PathCounts> {
        Some(self.counters().into())
    }

    fn arenas(&self) -> usize {
        self.arena_count()
    }

    fn home_arena(&self) -> usize {
        HermesHeap::home_arena(self)
    }

    fn check(&self) -> Result<(), String> {
        self.check_integrity().map_err(|e| e.to_string())
    }

    fn leaked(&self) -> usize {
        self.drain_remote_inboxes();
        self.heap_stats().live + self.large_stats().live
    }
}

pub struct SystemAlloc;

impl RawAlloc for SystemAlloc {
    fn alloc(&self, size: usize) -> Option<NonNull<u8>> {
        // SAFETY: the layout has a non-zero size.
        NonNull::new(unsafe { std::alloc::alloc(block_layout(size)) })
    }

    unsafe fn dealloc(&self, p: NonNull<u8>, size: usize) {
        // SAFETY: forwarded contract.
        unsafe { std::alloc::dealloc(p.as_ptr(), block_layout(size)) }
    }
}

#[derive(Debug, Clone, Copy)]
struct Block {
    addr: usize,
    size: u32,
    tag: u64,
}

fn tag_of(seq: u64) -> u64 {
    seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

enum Msg {
    Batch(Vec<Block>),
    EndTrial,
}

enum Reply {
    Batch(Vec<Block>),
    Trial {
        lat: Vec<u32>,
        /// `(start_ns, end_ns)` per block on the trace clock, traced
        /// runs only.
        stamps: Vec<(u64, u64)>,
        bad_tags: u64,
    },
}

/// Thread B: checks and frees every block of every batch it is handed.
fn consumer<A: RawAlloc>(
    alloc: Arc<A>,
    rx: Receiver<Msg>,
    tx: SyncSender<Reply>,
    ctx: Option<Arc<TraceCtx>>,
) {
    let mut lat: Vec<u32> = Vec::new();
    let mut stamps = Vec::new();
    let mut bad_tags = 0u64;
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(mut batch) => {
                let mut prev = Instant::now();
                for b in batch.drain(..) {
                    let t0 = ctx.as_ref().map(|c| c.now());
                    let p = b.addr as *mut u8;
                    // SAFETY: A wrote `size` bytes (>= 16) at `addr`, and
                    // the block stays live until the dealloc below.
                    let ok = unsafe {
                        (p as *const u64).read() == b.tag
                            && p.add(b.size as usize - 1).read() == 0xA5
                    };
                    bad_tags += !ok as u64;
                    // SAFETY: allocated by A with this size, freed once.
                    unsafe { alloc.dealloc(NonNull::new_unchecked(p), b.size as usize) };
                    if let (Some(c), Some(t0)) = (ctx.as_ref(), t0) {
                        stamps.push((t0, c.now()));
                    }
                    let now = Instant::now();
                    lat.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
                    prev = now;
                }
                if tx.send(Reply::Batch(batch)).is_err() {
                    return;
                }
            }
            Msg::EndTrial => {
                let reply = Reply::Trial {
                    lat: std::mem::take(&mut lat),
                    stamps: std::mem::take(&mut stamps),
                    bad_tags: std::mem::take(&mut bad_tags),
                };
                if tx.send(reply).is_err() {
                    return;
                }
            }
        }
    }
}

/// One booted allocator with its consumer thread.
struct Pair<A: RawAlloc> {
    alloc: Arc<A>,
    tx: Option<SyncSender<Msg>>,
    rx: Receiver<Reply>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl<A: RawAlloc> Pair<A> {
    /// Spawns B with a home arena other than the caller's, so every
    /// small free is cross-shard. Thread tickets are consecutive, so the
    /// second candidate always differs where there are two arenas.
    fn spawn(alloc: Arc<A>, ctx: Option<Arc<TraceCtx>>) -> Self {
        let home_a = alloc.home_arena();
        for _ in 0..2 {
            let (tx, b_rx) = sync_channel::<Msg>(1);
            let (b_tx, rx) = sync_channel::<Reply>(1);
            let (home_tx, home_rx) = sync_channel::<usize>(1);
            let (a, c) = (Arc::clone(&alloc), ctx.clone());
            let join = std::thread::Builder::new()
                .name("handoff-b".into())
                .spawn(move || {
                    let _ = home_tx.send(a.home_arena());
                    consumer(a, b_rx, b_tx, c)
                })
                .expect("spawn the consumer thread");
            let home_b = home_rx.recv().expect("the consumer reports its arena");
            let pair = Pair {
                alloc: Arc::clone(&alloc),
                tx: Some(tx),
                rx,
                join: Some(join),
            };
            if home_b != home_a || alloc.arenas() < 2 {
                return pair;
            }
            drop(pair);
        }
        panic!("no consumer thread landed on another arena than the producer");
    }
}

impl<A: RawAlloc> Drop for Pair<A> {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// What thread A records per traced allocation.
struct AllocTrace {
    ctx: Arc<TraceCtx>,
    last: PathCounts,
    spans: Vec<Span>,
    /// Span id of each block of the current trial, for B's spans.
    ids: Vec<u32>,
}

/// Runs `stream` as rounds of [`HANDOFF_BATCH`] blocks. Returns the wall
/// time; latencies of A go to `a_lat`.
#[allow(clippy::too_many_arguments)]
fn run_rounds<A: RawAlloc>(
    pair: &Pair<A>,
    stream: &[u32],
    seq: &mut u64,
    a_lat: &mut Vec<u32>,
    failed: &mut u64,
    mut sample: impl FnMut(&A, usize),
    mut trace: Option<&mut AllocTrace>,
) -> u64 {
    let tx = pair.tx.as_ref().expect("the pair is live");
    let alloc = &*pair.alloc;
    let mut batch: Vec<Block> = Vec::with_capacity(HANDOFF_BATCH);
    let start = Instant::now();
    for round in stream.chunks(HANDOFF_BATCH) {
        let mut live_bytes = 0usize;
        let mut prev = Instant::now();
        for &size in round {
            let t0 = trace.as_ref().map(|t| t.ctx.now());
            let tag = tag_of(*seq);
            *seq += 1;
            match alloc.alloc(size as usize) {
                Some(p) => {
                    // SAFETY: a fresh allocation of `size` >= 16 bytes.
                    unsafe {
                        std::ptr::write_bytes(p.as_ptr(), 0xA5, size as usize);
                        (p.as_ptr() as *mut u64).write(tag);
                    }
                    live_bytes += size as usize;
                    batch.push(Block {
                        addr: p.as_ptr() as usize,
                        size,
                        tag,
                    });
                }
                None => *failed += 1,
            }
            if let (Some(t), Some(t0)) = (trace.as_deref_mut(), t0) {
                let t1 = t.ctx.now();
                let after = alloc
                    .path_counts()
                    .expect("only the Hermes runtime is traced");
                let (path, grew) = t.last.classify(&after);
                t.last = after;
                let id = t.ctx.id();
                t.ids.push(id);
                t.spans.push(Span {
                    id,
                    parent: 0,
                    query: id,
                    name: Name::HandoffAlloc,
                    path,
                    grew,
                    start_ns: t0,
                    end_ns: t1,
                    inner_ns: (t1 - t0).min(u32::MAX as u64) as u32,
                });
                // Keep the probe out of the next block's latency.
                prev = Instant::now();
                a_lat.push((t1 - t0).min(u32::MAX as u64) as u32);
                continue;
            }
            let now = Instant::now();
            a_lat.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
            prev = now;
        }
        sample(alloc, live_bytes);
        tx.send(Msg::Batch(std::mem::take(&mut batch)))
            .expect("the consumer is alive");
        match pair.rx.recv().expect("the consumer is alive") {
            Reply::Batch(b) => batch = b,
            Reply::Trial { .. } => unreachable!("no trial end was asked for"),
        }
    }
    start.elapsed().as_nanos() as u64
}

/// What a `handoff` run measured beyond the common figures.
#[derive(Debug, Default)]
pub struct Extra {
    /// Most bytes seen parked in the remote inboxes at a round boundary.
    pub peak_queued: u64,
    /// Measured blocks below the mmap threshold: the frees that should
    /// have been remote-queued.
    pub small_blocks: u64,
}

fn end_trial<A: RawAlloc>(pair: &Pair<A>) -> (Vec<u32>, Vec<(u64, u64)>, u64) {
    pair.tx
        .as_ref()
        .expect("the pair is live")
        .send(Msg::EndTrial)
        .expect("the consumer is alive");
    match pair.rx.recv().expect("the consumer is alive") {
        Reply::Trial {
            lat,
            stamps,
            bad_tags,
        } => (lat, stamps, bad_tags),
        Reply::Batch(_) => unreachable!("no batch is outstanding"),
    }
}

/// One `handoff` trial and its checks. As in the service driver, the
/// trial boots its own allocator (`boot()`), starts its own thread B on
/// the other arena and runs the warm-up rounds (together `setup_s`). With
/// `ctx` the trial is the traced one.
pub fn measure<A: RawAlloc>(
    plan: Plan,
    seed: u64,
    trial: u32,
    boot: &mut dyn FnMut() -> Arc<A>,
    ctx: Option<Arc<TraceCtx>>,
    out: &mut PassOutput,
) -> (Measured, Extra) {
    let w = Workload::Handoff;
    let warm = w.stream(seed, Phase::Warmup(trial), plan.warmup);
    let blocks = if ctx.is_some() {
        plan.traced
    } else {
        plan.trial
    };
    let stream = w.stream(seed, Phase::Measured(trial), blocks);
    let mut extra = Extra {
        peak_queued: 0,
        small_blocks: stream
            .iter()
            .filter(|&&s| (s as usize) < MMAP_THRESHOLD)
            .count() as u64,
    };
    let hash = stream_hash(&warm).rotate_left(1) ^ stream_hash(&stream).rotate_left(2);
    out.fact("op_hash", format!("{hash:016x}"));
    let at = |what: &str| format!("handoff trial {trial}: {what}");

    // ---- set-up: boot, start B on the other arena, warm-up ----
    let t0 = Instant::now();
    let pair = Pair::spawn(boot(), ctx.clone());
    let mut seq = 0u64;
    let mut a_lat = Vec::with_capacity(blocks.max(plan.warmup));
    let mut setup_failed = 0u64;
    run_rounds(
        &pair,
        &warm,
        &mut seq,
        &mut a_lat,
        &mut setup_failed,
        |_, _| {},
        None,
    );
    // B's warm-up latencies are not kept.
    end_trial(&pair);
    let setup_s = t0.elapsed().as_secs_f64();
    if setup_failed > 0 {
        out.problem(at(&format!("{setup_failed} set-up allocations failed")));
    }
    let first = pair.alloc.probe();
    let mut trace = ctx.as_ref().map(|c| AllocTrace {
        ctx: Arc::clone(c),
        last: first
            .expect("only the Hermes runtime is traced")
            .counters
            .into(),
        spans: Vec::with_capacity(2 * blocks),
        ids: Vec::with_capacity(blocks),
    });

    // ---- the measured rounds ----
    let span_start = Instant::now();
    a_lat.clear();
    let mut failed = 0u64;
    let mut ratios = Vec::with_capacity(blocks / HANDOFF_BATCH + 1);
    let wall_ns = run_rounds(
        &pair,
        &stream,
        &mut seq,
        &mut a_lat,
        &mut failed,
        |alloc, live_bytes| {
            // With the whole batch live: memory held per live byte, and
            // how much of the previous round's frees still sits in the
            // remote inboxes.
            if let Some(p) = alloc.probe() {
                extra.peak_queued = extra.peak_queued.max(p.counters.remote_queued_bytes);
                if live_bytes > 0 {
                    ratios.push(p.committed() as f64 / live_bytes as f64);
                }
            }
        },
        trace.as_mut(),
    );
    let (b_lat, stamps, bad_tags) = end_trial(&pair);
    if bad_tags > 0 {
        out.problem(at(&format!("{bad_tags} tags did not verify")));
    }
    if failed == 0 && b_lat.len() != a_lat.len() {
        out.problem(at(&format!(
            "{} blocks allocated, {} freed",
            a_lat.len(),
            b_lat.len()
        )));
    }
    let lat: Vec<u32> = a_lat
        .iter()
        .zip(&b_lat)
        .map(|(a, b)| a.saturating_add(*b))
        .collect();
    if let Some(mut tr) = trace {
        for (&id, &(start_ns, end_ns)) in tr.ids.iter().zip(&stamps) {
            tr.spans.push(Span {
                id: tr.ctx.id(),
                parent: 0,
                query: id,
                name: Name::HandoffFree,
                path: Path::None,
                grew: false,
                start_ns,
                end_ns,
                inner_ns: (end_ns - start_ns).min(u32::MAX as u64) as u32,
            });
        }
        tr.ctx.flush(&mut tr.spans);
    }
    if let Err(e) = pair.alloc.check() {
        out.problem(at(&format!("integrity: {e}")));
    }
    let probes = first
        .zip(pair.alloc.probe())
        .map(|(first, last)| (first, last, span_start.elapsed().as_nanos() as u64));

    // ---- leak check ----
    let alloc = Arc::clone(&pair.alloc);
    drop(pair); // joins B, whose exit flushes its staged frees
    let leaked = alloc.leaked();
    if leaked > 0 {
        out.problem(at(&format!("{leaked} blocks still held after every free")));
    }
    if let Err(e) = alloc.check() {
        out.problem(at(&format!("after drain: integrity: {e}")));
    }
    let m = Measured {
        setup_s,
        wall_ns,
        queries: stream.len(),
        failed: failed + bad_tags,
        p: pctls(&lat, [0.5, 0.99, 0.999]),
        mem_ratio: (!ratios.is_empty()).then(|| crate::stats::median(&ratios)),
        probes,
    };
    (m, extra)
}
