//! Growth stress: the real Hermes runtime pushed past its boot-time
//! capacity, proving the mapped platform layer end to end — on-demand
//! `Arena::grow` on the allocation path, then manager-driven
//! `madvise(DONTNEED)` decommit once the burst is freed.
//!
//! The former global allocator was hard-capped at a 256 MiB heap; this
//! suite allocates past that from a far smaller initial exposure.

use hermes_allocators::{AllocatorBackend, RealHermesBackend};
use hermes_core::rt::HermesHeapConfig;
use hermes_core::HermesConfig;

/// 1 MiB chunks: the large (mmap-path) side, where the burst lands.
const CHUNK: usize = 1 << 20;

fn growing_backend() -> RealHermesBackend {
    // 32 MiB + 64 MiB exposed, 8x reserved: the 288 MiB burst below can
    // only be served by growing into the reservation.
    RealHermesBackend::with_heap_config(HermesHeapConfig {
        heap_capacity: 32 << 20,
        large_capacity: 64 << 20,
        arenas: 4,
        reserve_factor: 8,
        hermes: HermesConfig::default(),
    })
    .expect("arena reservation")
}

#[test]
fn burst_past_the_former_ceiling_then_decommit() {
    let mut b = growing_backend();
    let start = b.stats();
    assert!(
        start.backing_reserved_bytes > (512 << 20),
        "8x factor reserves well past the burst: {} B",
        start.backing_reserved_bytes
    );

    // Allocate 288 MiB live — past the former 256 MiB global ceiling
    // and 3x this heap's total initial exposure.
    let mut held = Vec::new();
    for _ in 0..288 {
        let (h, _) = b.malloc(CHUNK).expect("growth serves the burst");
        held.push(h);
    }
    let peak = b.stats();
    assert_eq!(peak.live_bytes, 288 * CHUNK);
    assert!(
        peak.committed_bytes >= 288 * CHUNK,
        "the burst is mapping-constructed: {} B committed",
        peak.committed_bytes
    );
    assert!(
        peak.committed_bytes <= peak.backing_reserved_bytes,
        "commit stays within the reservation"
    );

    // Release the burst and run the manager until its trim hands pages
    // back to the kernel.
    for h in held {
        b.free(h);
    }
    assert_eq!(b.stats().live, 0);
    let mut decommitted = 0;
    for _ in 0..256 {
        b.heap().run_management_round();
        decommitted = b.stats().decommitted_bytes;
        if decommitted > 0 {
            break;
        }
    }
    assert!(decommitted > 0, "manager rounds decommit the freed burst");
    let after = b.stats();
    assert!(
        after.committed_bytes < after.backing_reserved_bytes,
        "committed {} < reserved {} after decommit",
        after.committed_bytes,
        after.backing_reserved_bytes
    );
    assert!(
        after.committed_bytes < peak.committed_bytes,
        "decommit shrank the committed gauge: {} -> {}",
        peak.committed_bytes,
        after.committed_bytes
    );
    b.check().expect("integrity after burst and decommit");
}

#[test]
fn decommitted_memory_is_reusable() {
    let mut b = growing_backend();
    // Burst, free, decommit…
    let held: Vec<_> = (0..64).map(|_| b.malloc(CHUNK).unwrap().0).collect();
    for h in held {
        b.free(h);
    }
    for _ in 0..256 {
        b.heap().run_management_round();
        if b.stats().decommitted_bytes > 0 {
            break;
        }
    }
    // …then the same range must serve (and survive writes) again.
    let held: Vec<_> = (0..64)
        .map(|_| b.malloc(CHUNK).expect("reuse after decommit").0)
        .collect();
    for h in held {
        let _ = b.access(h, CHUNK);
        b.free(h);
    }
    assert_eq!(b.stats().live, 0);
    b.check().expect("integrity after decommit-then-reuse");
}
