//! Quickstart: use Hermes as the process-wide allocator.
//!
//! This is deliverable R3 of the paper: applications adopt Hermes without
//! source changes beyond installing the allocator. The global facade boots
//! a mapped heap through `HermesHeap::new` — sized by `HERMES_HEAP_MB` /
//! `HERMES_LARGE_MB` and grown on demand — and starts the memory
//! management thread, which reserves memory — mappings pre-constructed —
//! ahead of your allocation bursts.
//!
//! Run with: `cargo run --release --example quickstart`

use hermes::core::rt::Hermes;
use std::time::Instant;

#[global_allocator]
static ALLOC: Hermes = Hermes;

fn burst(label: &str, n: usize, size: usize) {
    let t0 = Instant::now();
    let mut keep: Vec<Vec<u8>> = Vec::with_capacity(n);
    for i in 0..n {
        // Writing forces the virtual-physical mapping to exist — the cost
        // Hermes moves off the critical path.
        keep.push(vec![(i & 0xff) as u8; size]);
    }
    let per = t0.elapsed().as_nanos() / n as u128;
    println!("{label}: {n} x {size} B allocations, {per} ns/alloc");
    drop(keep);
}

fn main() {
    // Boot the arenas and start the management thread (recommended; the
    // allocator also works lazily without this call).
    let heap = Hermes::init();
    println!("Hermes global allocator initialised");

    // A cold burst: the manager has had no demand history yet.
    burst("cold burst  ", 20_000, 1024);

    // Let the management thread observe demand and reserve ahead.
    std::thread::sleep(std::time::Duration::from_millis(20));
    burst("warm burst  ", 20_000, 1024);

    // Large allocations ride the segregated pool.
    burst("large (256K)", 200, 256 * 1024);

    let c = heap.counters();
    println!(
        "\ncounters: {} allocs, {} frees | small fast-path {:.1}% | large pool hits {:.1}%",
        c.alloc_count,
        c.free_count,
        c.small_fast_ratio() * 100.0,
        c.large_fast_ratio() * 100.0,
    );
    println!(
        "manager: {} rounds, reserved {} KiB, standing reserve {} KiB",
        c.manager_rounds,
        c.reserved_bytes / 1024,
        heap.reserved_unused_bytes() / 1024,
    );
}
