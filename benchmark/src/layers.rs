//! Direct layer drivers: each layer's public functions called from
//! outside, one layer at a time, on the sizes the workload sends it.
//! Nothing here feeds an end-to-end metric; these figures say what one
//! layer costs by itself, so a change in an end-to-end figure can be
//! laid beside the layer that moved.

use crate::backends::NoopBackend;
use crate::place::Placement;
use crate::report::PassOutput;
use crate::service::{self, NoHook, Run};
use crate::stats::{mean, pctls};
use crate::surface::{
    block_layout, fixed_heap_config, platform, AllocHandle, AllocatorBackend, Arena, HermesHeap,
    LargePool, RawHeap, RealFiles, RealHermesBackend, RedisModel, RocksdbModel, MMAP_THRESHOLD,
    PAGE,
};
use crate::workload::{Phase, Rng, Workload};
use std::ptr::NonNull;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

const MIB: usize = 1 << 20;
/// Largest request a thread-cache class serves (4096 B chunk - header).
const TCACHE_MAX_REQUEST: usize = 4080;

fn ns(t: Instant) -> u32 {
    t.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// The heap-path sizes this workload sends: its values below the mmap
/// threshold interleaved with the service's own small records (64 B
/// Redis entries, 72 B memtable nodes).
fn small_stream(w: Workload, seed: u64, n: usize) -> Vec<u32> {
    let values = w.stream(seed, Phase::Layers, n);
    let record = match w {
        Workload::LsmFlush => Some(72),
        Workload::KvSmall | Workload::KvLarge => Some(64),
        Workload::Handoff => None,
    };
    let mut out = Vec::with_capacity(n);
    for v in values {
        if out.len() >= n {
            break;
        }
        out.extend(record);
        if (v as usize) < MMAP_THRESHOLD && w != Workload::LsmFlush {
            out.push(v);
        }
    }
    out.truncate(n);
    out
}

/// The large-path sizes this workload sends (256 KiB arena blocks where
/// it sends none of its own, so the layer is still measured).
fn large_stream(w: Workload, seed: u64, n: usize) -> Vec<u32> {
    let own: Vec<u32> = w
        .stream(seed, Phase::Layers, n * 4)
        .into_iter()
        .filter(|&v| v as usize >= MMAP_THRESHOLD)
        .take(n)
        .collect();
    if own.len() == n && w == Workload::KvLarge {
        own
    } else {
        vec![256 * 1024; n]
    }
}

fn harness(w: Workload, seed: u64, scale: f64, out: &mut PassOutput) {
    let pairs = 2_000_000usize;
    let t = Instant::now();
    for _ in 0..pairs {
        std::hint::black_box(Instant::now());
        std::hint::black_box(Instant::now());
    }
    out.put(
        "harness.timer_pair_ns",
        t.elapsed().as_nanos() as f64 / pairs as f64,
        "ns",
        format!("n={pairs}"),
    );

    // The same driver loop over a backend that allocates nothing: what
    // harness and service model cost with no allocator underneath.
    let mut null = PassOutput::default();
    // As many queries as the traced trial, whose budget it is read beside.
    let plan = w.scaled_plan(scale, 0);
    let mean_ns = |m: service::Measured| m.wall_ns as f64 / m.queries.max(1) as f64;
    let mean_ns = match w {
        Workload::KvSmall | Workload::KvLarge => mean_ns(service::measure(
            Run {
                workload: w,
                plan,
                seed,
                trial: 0,
                traced: true,
                build: &mut || (RedisModel::new(NoopBackend::new(), seed), None),
                measuring: &mut |_| {},
            },
            &mut NoHook,
            &mut null,
        )),
        Workload::LsmFlush => mean_ns(service::measure(
            Run {
                workload: w,
                plan,
                seed,
                trial: 0,
                traced: true,
                build: &mut || {
                    let files = Box::new(RealFiles::new());
                    let svc = RocksdbModel::new(NoopBackend::new(), files, seed)
                        .expect("the in-memory file store creates its WAL");
                    (svc, None)
                },
                measuring: &mut |_| {},
            },
            &mut NoHook,
            &mut null,
        )),
        Workload::Handoff => 0.0,
    };
    out.problems.extend(null.problems);
    out.put(
        "harness.null_backend_query_ns",
        mean_ns,
        "ns",
        format!("n={} (0: no service in this workload)", plan.traced),
    );
}

/// `backend.malloc` against the same sizes straight on
/// `HermesHeap::allocate` plus the identical first write: the difference
/// is what handle table, timer and the backend's bookkeeping add.
fn backend_over_rt(w: Workload, seed: u64, placement: Placement, out: &mut PassOutput) {
    let name = "allocators.real.self_over_rt_ns_p50";
    if !w.is_service() {
        out.put(name, 0.0, "ns", "n=0 (no backend in this workload)");
        return;
    }
    let n = if w == Workload::KvLarge {
        20_000
    } else {
        200_000
    };
    let live_cap = if w == Workload::KvLarge { 256 } else { 8192 };
    let sizes: Vec<u32> = if w == Workload::KvLarge {
        w.stream(seed, Phase::Layers, n)
    } else {
        small_stream(w, seed, n)
    };
    let cfg = fixed_heap_config(placement.manager_core);

    let mut rng = Rng::new(seed, 901);
    let mut backend = RealHermesBackend::with_heap_config(cfg.clone()).expect("boot the heap");
    let mut live: Vec<AllocHandle> = Vec::with_capacity(live_cap);
    let mut lat = Vec::with_capacity(n);
    for &s in &sizes {
        if live.len() == live_cap {
            let victim = live.swap_remove(rng.below(live_cap as u64) as usize);
            backend.free(victim);
        }
        let t = Instant::now();
        let r = backend.malloc(s as usize);
        lat.push(ns(t));
        if let Ok((h, _)) = r {
            live.push(h);
        }
    }
    let [via_backend] = pctls(&lat, [0.5]);
    drop(backend);

    let mut rng = Rng::new(seed, 901);
    let heap = HermesHeap::new(cfg).expect("boot the heap");
    heap.start_manager();
    let mut live: Vec<(NonNull<u8>, u32)> = Vec::with_capacity(live_cap);
    lat.clear();
    for &s in &sizes {
        if live.len() == live_cap {
            let (p, sz) = live.swap_remove(rng.below(live_cap as u64) as usize);
            // SAFETY: allocated below with this layout, freed once.
            unsafe { heap.deallocate(p, block_layout(sz as usize)) };
        }
        let t = Instant::now();
        let r = heap.allocate(block_layout(s as usize));
        if let Ok(p) = r {
            // SAFETY: a fresh allocation of `s` bytes.
            unsafe { std::ptr::write_bytes(p.as_ptr(), 0xA5, s as usize) };
        }
        lat.push(ns(t));
        if let Ok(p) = r {
            live.push((p, s));
        }
    }
    let [direct] = pctls(&lat, [0.5]);
    out.put(
        name,
        via_backend.value - direct.value,
        "ns",
        format!(
            "n={n} backend_p50={} direct_p50={}",
            via_backend.value, direct.value
        ),
    );
}

fn raw_heap(w: Workload, seed: u64, out: &mut PassOutput) {
    let n = 200_000;
    let live_cap = 8192;
    let sizes = small_stream(w, seed, n);
    let arena = Arena::map(256 * MIB, 1024 * MIB, false).expect("map the heap arena");
    let mut heap = RawHeap::new(arena);
    let mut rng = Rng::new(seed, 902);
    let mut live: Vec<NonNull<u8>> = Vec::with_capacity(live_cap);
    let (mut m_lat, mut f_lat) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for &s in &sizes {
        if live.len() == live_cap {
            let p = live.swap_remove(rng.below(live_cap as u64) as usize);
            let t = Instant::now();
            // SAFETY: allocated from this heap below, freed once.
            unsafe { heap.free(p) };
            f_lat.push(ns(t));
        }
        let t = Instant::now();
        let p = heap.malloc(s as usize);
        m_lat.push(ns(t));
        live.extend(p);
    }
    let [p50, p99] = pctls(&m_lat, [0.5, 0.99]);
    out.put_pctl("rt.heap.malloc_ns_p50", p50, 1.0, "ns");
    out.put_pctl("rt.heap.malloc_ns_p99", p99, 1.0, "ns");
    let [f50] = pctls(&f_lat, [0.5]);
    out.put_pctl("rt.heap.free_ns_p50", f50, 1.0, "ns");

    // Batch carve and batch free: what one thread-cache refill and flush
    // cost per block, on the workload's cacheable sizes.
    const BATCH: usize = 16;
    let cacheable: Vec<u32> = sizes
        .iter()
        .copied()
        .filter(|&s| s as usize <= TCACHE_MAX_REQUEST)
        .take(20_000)
        .collect();
    let mut slots = [0usize; BATCH];
    let (mut carve_ns, mut free_ns, mut blocks) = (0u64, 0u64, 0u64);
    for &s in &cacheable {
        let t = Instant::now();
        let got = heap.malloc_batch(s as usize, &mut slots);
        carve_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        // SAFETY: the first `got` slots were just carved, freed once.
        unsafe { heap.free_batch(&slots[..got]) };
        free_ns += t.elapsed().as_nanos() as u64;
        blocks += got as u64;
    }
    let note = format!("n={blocks} blocks in batches of {BATCH}");
    let per = |total: u64| total as f64 / blocks.max(1) as f64;
    out.put(
        "rt.heap.malloc_batch_ns_per_block",
        per(carve_ns),
        "ns",
        note.clone(),
    );
    out.put("rt.heap.free_batch_ns_per_block", per(free_ns), "ns", note);
    if let Err(e) = heap.check_integrity() {
        out.problem(format!("layers rt.heap: integrity: {e}"));
    }

    // Algorithm 1's reservation step on a fresh heap: extend the break
    // and construct the mappings, 1 MiB at a time.
    let arena = Arena::map(4 * MIB, 1024 * MIB, false).expect("map the heap arena");
    let mut heap = RawHeap::new(arena);
    let steps = 128;
    let t = Instant::now();
    for _ in 0..steps {
        heap.sbrk_commit(MIB).expect("the reservation has room");
    }
    out.put(
        "rt.heap.sbrk_commit_us_per_mb",
        t.elapsed().as_nanos() as f64 / 1e3 / steps as f64,
        "us/MiB",
        format!("n={steps} steps of 1 MiB"),
    );
}

fn large_pool(w: Workload, seed: u64, out: &mut PassOutput) {
    let n = 192;
    let sizes = large_stream(w, seed, n);
    let arena = Arena::map(256 * MIB, 2048 * MIB, false).expect("map the large arena");
    let mut pool = LargePool::new(arena, MMAP_THRESHOLD, 8);
    let mut ptrs = Vec::with_capacity(n);
    let (mut cold, mut hit, mut free) = (Vec::new(), Vec::new(), Vec::new());
    let alloc_all = |pool: &mut LargePool, ptrs: &mut Vec<NonNull<u8>>, lat: &mut Vec<u32>| {
        for &s in &sizes {
            let t = Instant::now();
            let p = pool.alloc(s as usize, 16);
            lat.push(ns(t));
            ptrs.extend(p);
        }
    };
    let free_all = |pool: &mut LargePool, ptrs: &mut Vec<NonNull<u8>>, lat: &mut Vec<u32>| {
        for p in ptrs.drain(..) {
            let t = Instant::now();
            // SAFETY: returned by `alloc` on this pool, freed once.
            unsafe { pool.free(p) };
            lat.push(ns(t));
        }
    };
    alloc_all(&mut pool, &mut ptrs, &mut cold);
    free_all(&mut pool, &mut ptrs, &mut free);
    // Everything freed sits in the segregated list: these are pool hits.
    for _ in 0..8 {
        alloc_all(&mut pool, &mut ptrs, &mut hit);
        free_all(&mut pool, &mut ptrs, &mut free);
    }
    let s = pool.stats();
    if s.cold_allocs < n as u64 / 2 || s.pool_hits < 4 * n as u64 {
        out.problem(format!(
            "layers rt.large: expected cold then hits, got {} cold / {} hits",
            s.cold_allocs, s.pool_hits
        ));
    }
    let [c50] = pctls(&cold, [0.5]);
    out.put_pctl("rt.large.alloc_cold_us_p50", c50, 1e-3, "us");
    let [h50] = pctls(&hit, [0.5]);
    out.put_pctl("rt.large.alloc_hit_ns_p50", h50, 1.0, "ns");
    let [f50] = pctls(&free, [0.5]);
    out.put_pctl("rt.large.free_ns_p50", f50, 1.0, "ns");

    // Delayed shrink: a hand-out bigger than asked for is cut back, and
    // its tail decommitted, on the next management round.
    let mut shrink = Vec::new();
    for _ in 0..64 {
        let big = pool.alloc(1024 * 1024, 16).expect("the pool has room");
        // SAFETY: just allocated, freed once.
        unsafe { pool.free(big) };
        // The only chunk that fits 600 KiB is the 1 MiB one just freed
        // or a larger neighbour: the hand-out is over-sized.
        let p = pool.alloc(600 * 1024, 16).expect("the pool has room");
        if pool.shrink_pending() > 0 {
            let t = Instant::now();
            pool.process_delayed_shrink();
            shrink.push(ns(t));
        }
        // SAFETY: just allocated, freed once.
        unsafe { pool.free(p) };
    }
    let [s50] = pctls(&shrink, [0.5]);
    out.put_pctl("rt.large.shrink_us_p50", s50, 1e-3, "us");

    // Algorithm 2's reservation step on a fresh pool.
    let arena = Arena::map(256 * MIB, 256 * MIB, false).expect("map the large arena");
    let mut pool = LargePool::new(arena, MMAP_THRESHOLD, 8);
    let steps = 128;
    let t = Instant::now();
    for _ in 0..steps {
        if !pool.reserve_chunk(MIB) {
            out.problem("layers rt.large: reserve_chunk refused on a fresh pool");
            break;
        }
    }
    out.put(
        "rt.large.reserve_chunk_us_per_mb",
        t.elapsed().as_nanos() as f64 / 1e3 / steps as f64,
        "us/MiB",
        format!("n={steps} chunks of 1 MiB"),
    );
}

fn arena_and_platform(out: &mut PassOutput) {
    let steps = 64;
    let mut arena = Arena::map(4 * MIB, 1024 * MIB, false).expect("map an arena");
    let t = Instant::now();
    for _ in 0..steps {
        arena.grow(4 * MIB).expect("the reservation has room");
    }
    out.put(
        "rt.arena.grow_us_per_step",
        t.elapsed().as_nanos() as f64 / 1e3 / steps as f64,
        "us",
        format!("n={steps} steps of 4 MiB"),
    );
    drop(arena);

    // The platform calls by themselves, on one 64 MiB reservation,
    // several rounds so each figure is a mean over fresh pages.
    let len = 64 * MIB;
    let pages = len / PAGE;
    let align = 2 * MIB;
    let p = platform();
    let base = p
        .reserve(len, align)
        .expect("reserve 64 MiB of address space");
    let touch = || {
        let t = Instant::now();
        for i in 0..pages {
            // SAFETY: inside the live reservation reserved above.
            unsafe { base.as_ptr().add(i * PAGE).write_volatile(1) };
        }
        t.elapsed().as_nanos() as f64 / pages as f64
    };
    let (mut commit, mut first, mut decommit, mut again) = (vec![], vec![], vec![], vec![]);
    for round in 0..4 {
        let t = Instant::now();
        // SAFETY: the range is the live reservation.
        unsafe { p.commit(base, len) };
        commit.push(t.elapsed().as_nanos() as f64 / 1e3 / (len / MIB) as f64);
        let touched = touch();
        if round == 0 {
            first.push(touched);
        } else {
            again.push(touched);
        }
        let t = Instant::now();
        // SAFETY: the range is the live reservation and holds no data
        // anyone reads again.
        let ok = unsafe { p.decommit(base, len) };
        if ok {
            decommit.push(t.elapsed().as_nanos() as f64 / 1e3 / (len / MIB) as f64);
        }
    }
    // SAFETY: reserved above with this length and alignment, unused
    // from here on.
    unsafe { p.release(base, len, align) };
    let note = format!("n={pages} pages");
    out.put(
        "platform.commit_us_per_mb",
        mean(&commit),
        "us/MiB",
        "n=4 x 64 MiB",
    );
    out.put(
        "platform.decommit_us_per_mb",
        mean(&decommit),
        "us/MiB",
        "n=4 x 64 MiB",
    );
    out.put(
        "platform.first_touch_ns_per_page",
        mean(&first),
        "ns",
        note.clone(),
    );
    out.put(
        "platform.retouch_after_decommit_ns_per_page",
        mean(&again),
        "ns",
        format!("3 x {note}"),
    );
}

/// Frees `blocks` on a thread whose home arena differs from the
/// caller's, then lets that thread exit (flushing its staged chains).
fn free_on_other_arena(heap: &Arc<HermesHeap>, blocks: Vec<(usize, u32)>) {
    let home = heap.home_arena();
    let mut blocks = Some(blocks);
    for _ in 0..2 {
        let h = Arc::clone(heap);
        let (tx, rx) = sync_channel::<Option<Vec<(usize, u32)>>>(1);
        let (home_tx, home_rx) = sync_channel::<usize>(1);
        let join = std::thread::spawn(move || {
            let _ = home_tx.send(h.home_arena());
            if let Ok(Some(blocks)) = rx.recv() {
                for (addr, size) in blocks {
                    // SAFETY: allocated by the caller with this layout
                    // and handed over for exactly this free.
                    unsafe {
                        h.deallocate(
                            NonNull::new_unchecked(addr as *mut u8),
                            block_layout(size as usize),
                        )
                    };
                }
            }
        });
        let other = home_rx.recv().expect("the thread reports its arena") != home;
        let _ = tx.send(if other { blocks.take() } else { None });
        join.join().expect("the freeing thread does not panic");
        if other {
            return;
        }
    }
    panic!("no thread landed on another arena than the caller");
}

fn remote(seed: u64, scale: f64, placement: Placement, out: &mut PassOutput) {
    // A staged batch, drained by hand with no manager running.
    let n = 32_768;
    let sizes = small_stream(Workload::Handoff, seed, n);
    let heap = Arc::new(HermesHeap::new(fixed_heap_config(None)).expect("boot the heap"));
    let blocks: Vec<(usize, u32)> = sizes
        .iter()
        .filter_map(|&s| {
            let p = heap.allocate(block_layout(s as usize)).ok()?;
            Some((p.as_ptr() as usize, s))
        })
        .collect();
    let before = heap.counters();
    free_on_other_arena(&heap, blocks);
    let queued = heap.counters().remote_queued_blocks;
    let t = Instant::now();
    heap.drain_remote_inboxes();
    let drain_ns = t.elapsed().as_nanos() as f64;
    let drained = heap.counters().remote_drained - before.remote_drained;
    if drained == 0 || drained != queued {
        out.problem(format!(
            "layers rt.remote: {queued} blocks queued, {drained} drained"
        ));
    }
    out.put(
        "rt.remote.drain_ns_per_block",
        drain_ns / drained.max(1) as f64,
        "ns",
        format!("n={drained}"),
    );
    if let Err(e) = heap.check_integrity() {
        out.problem(format!("layers rt.remote: integrity: {e}"));
    }
    drop(heap);

    // Truly concurrent producer and consumer (diagnostic only: three
    // busy threads on two CPUs swing far too much to gate on). The
    // consumer takes the manager's CPU when there is one.
    let count = ((1_000_000.0 * scale) as usize).max(50_000);
    let sizes = small_stream(Workload::Handoff, seed ^ 1, count);
    let heap = Arc::new(
        HermesHeap::new(fixed_heap_config(placement.manager_core)).expect("boot the heap"),
    );
    heap.start_manager();
    let (tx, rx) = sync_channel::<Vec<(usize, u32)>>(4);
    let h = Arc::clone(&heap);
    let core = placement.manager_core;
    let consumer = std::thread::spawn(move || {
        if let Some(c) = core {
            platform().pin_thread_to_cpu(c);
        }
        for batch in rx {
            for (addr, size) in batch {
                // SAFETY: allocated by the producer with this layout and
                // sent for exactly this free.
                unsafe {
                    h.deallocate(
                        NonNull::new_unchecked(addr as *mut u8),
                        block_layout(size as usize),
                    )
                };
            }
        }
    });
    let t = Instant::now();
    for chunk in sizes.chunks(256) {
        let batch: Vec<(usize, u32)> = chunk
            .iter()
            .filter_map(|&s| {
                let p = heap.allocate(block_layout(s as usize)).ok()?;
                // SAFETY: a fresh allocation of at least 16 bytes.
                unsafe { (p.as_ptr() as *mut u64).write(s as u64) };
                Some((p.as_ptr() as usize, s))
            })
            .collect();
        tx.send(batch).expect("the consumer is alive");
    }
    drop(tx);
    consumer.join().expect("the consumer does not panic");
    out.put(
        "rt.remote.concurrent_pairs_per_s",
        count as f64 / t.elapsed().as_secs_f64(),
        "1/s",
        format!("n={count} (diagnostic, not gated)"),
    );
    heap.stop_manager();
    heap.drain_remote_inboxes();
    if let Err(e) = heap.check_integrity() {
        out.problem(format!("layers rt.remote concurrent: integrity: {e}"));
    }
}

fn manager_round(w: Workload, seed: u64, out: &mut PassOutput) {
    // One management round, run by hand with the thread stopped, after
    // each 4 MiB burst of the workload's own sizes. Bursts pile up, so
    // the round has a reserve to rebuild; every eighth round everything
    // is freed first, so it has one to trim.
    let heap = HermesHeap::new(fixed_heap_config(None)).expect("boot the heap");
    let rounds = 64;
    let sizes = if w == Workload::KvLarge {
        w.stream(seed, Phase::Layers, 4096)
    } else {
        small_stream(w, seed, 200_000)
    };
    let mut next = sizes.iter().copied().cycle();
    let mut lat = Vec::with_capacity(rounds);
    let mut live: Vec<(NonNull<u8>, u32)> = Vec::new();
    for round in 0..rounds {
        if round % 8 == 7 {
            for (p, s) in live.drain(..) {
                // SAFETY: allocated below with this layout, freed once.
                unsafe { heap.deallocate(p, block_layout(s as usize)) };
            }
        }
        let mut burst = 0;
        while burst < 4 * MIB {
            let s = next.next().expect("the size stream is not empty");
            if let Ok(p) = heap.allocate(block_layout(s as usize)) {
                // SAFETY: a fresh allocation of `s` bytes.
                unsafe { std::ptr::write_bytes(p.as_ptr(), 0xA5, s as usize) };
                live.push((p, s));
            }
            burst += s as usize;
        }
        let before = heap.counters();
        let t = Instant::now();
        heap.run_management_round();
        let took = ns(t);
        let after = heap.counters();
        // Only rounds that reserved or trimmed: an idle round is four
        // lock acquisitions and says nothing about the work.
        if (after.reserved_bytes, after.trimmed_bytes)
            != (before.reserved_bytes, before.trimmed_bytes)
        {
            lat.push(took);
        }
    }
    let c = heap.counters();
    let [p50] = pctls(&lat, [0.5]);
    out.put(
        "rt.manager.round_us_p50",
        p50.value / 1e3,
        "us",
        format!(
            "n={} working rounds of {rounds} reserved_mib={} trimmed_mib={}",
            p50.n,
            c.reserved_bytes >> 20,
            c.trimmed_bytes >> 20
        ),
    );
}

pub fn run(w: Workload, seed: u64, scale: f64, placement: Placement, out: &mut PassOutput) {
    harness(w, seed, scale, out);
    backend_over_rt(w, seed, placement, out);
    raw_heap(w, seed, out);
    large_pool(w, seed, out);
    arena_and_platform(out);
    remote(seed, scale, placement, out);
    manager_round(w, seed, out);
}
