//! Address-space soak of the large (mmap) path: the repo benchmark's
//! `kv_large` op stream — 300 live values, 70 % 200 KiB / 30 %
//! log-uniform 128 KiB–1 MiB, one random-victim delete per insert —
//! driven straight at a default-capacity two-arena `HermesHeap` with a
//! deterministic management round every 16 queries.
//!
//! Every arena recycles address space through one address-ordered free
//! map of warm and cold page ranges. When the recycled space did not
//! coalesce, mixed sizes shredded the 2 GiB reservation until a request
//! found no range large enough and the bump frontier had nowhere to go:
//! `Exhausted` near query 36 000 with ~80 MiB live. With coalescing ranges
//! the stream runs indefinitely and the cold space parked in the map stays
//! bounded.
//!
//! The same stream also runs against a live management thread, whose
//! decommits happen with the shard lock dropped while this thread
//! allocates and frees: every value must read back intact. Both runs walk
//! every arena's heap and free map (`check_integrity`) every 4 096
//! queries.

use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use hermes_core::HermesConfig;
use std::alloc::Layout;
use std::ptr::NonNull;

const KIB: usize = 1024;
const LIVE: usize = 300;

fn heap() -> HermesHeap {
    HermesHeap::new(HermesHeapConfig {
        heap_capacity: 256 << 20,
        large_capacity: 512 << 20,
        arenas: 2,
        reserve_factor: 4,
        hermes: HermesConfig::default(),
    })
    .unwrap()
}

/// SplitMix64, as in `benchmark/src/workload.rs`.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    fn value_size(&mut self) -> usize {
        if self.below(10) < 7 {
            return 200 * KIB;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((128 * KIB) as f64 * 8f64.powf(unit)) as usize
    }
}

#[test]
fn kv_large_stream_does_not_exhaust_address_space() {
    let heap = heap();
    let queries = if cfg!(debug_assertions) {
        100_000
    } else {
        500_000
    };
    let mut rng = Rng(0x4845_524d_4553);
    let mut live: Vec<(NonNull<u8>, Layout)> = Vec::with_capacity(LIVE + 1);
    for q in 0..LIVE + queries {
        let layout = Layout::from_size_align(rng.value_size(), 16).unwrap();
        let p = heap.allocate(layout).unwrap_or_else(|e| {
            panic!("query {q}: {e} with {:?}", heap.large_stats());
        });
        // SAFETY: fresh allocation of at least one byte.
        unsafe { p.as_ptr().write(q as u8) };
        live.push((p, layout));
        if live.len() > LIVE {
            let (victim, layout) = live.swap_remove(rng.below(live.len()));
            // SAFETY: live, freed once, layout as allocated.
            unsafe { heap.deallocate(victim, layout) };
        }
        if q % 16 == 0 {
            heap.run_management_round();
        }
        if q % 4096 == 0 {
            let s = heap.large_stats();
            assert!(
                s.extent_bytes <= s.backing_reserved / 2,
                "query {q}: extents hold {} of {} reserved bytes",
                s.extent_bytes,
                s.backing_reserved
            );
            heap.check_integrity()
                .unwrap_or_else(|e| panic!("query {q}: {e}"));
        }
    }
    for (p, layout) in live {
        // SAFETY: live, freed once, layout as allocated.
        unsafe { heap.deallocate(p, layout) };
    }
    assert_eq!(heap.large_stats().live, 0);
    heap.check_integrity().unwrap();
}

/// Writes `tag` to the first, middle and last byte of a `size`-byte
/// value, or checks that they still hold it.
///
/// # Safety
///
/// `p` must be a live allocation of at least `size` bytes.
unsafe fn stamp(p: NonNull<u8>, size: usize, tag: u8, check: bool) {
    for at in [0, size / 2, size - 1] {
        // SAFETY: `at < size`, inside the caller's live allocation.
        unsafe {
            let b = p.as_ptr().add(at);
            if check {
                assert_eq!(*b, tag, "byte {at} of a {size}-byte value");
            } else {
                *b = tag;
            }
        }
    }
}

#[test]
fn kv_large_stream_under_a_live_manager_keeps_every_byte() {
    let heap = heap();
    heap.start_manager();
    let queries = if cfg!(debug_assertions) {
        50_000
    } else {
        200_000
    };
    let mut rng = Rng(0x4845_524d_4553);
    let mut live: Vec<(NonNull<u8>, Layout, u8)> = Vec::with_capacity(LIVE + 1);
    for q in 0..LIVE + queries {
        let layout = Layout::from_size_align(rng.value_size(), 16).unwrap();
        let p = heap.allocate(layout).unwrap_or_else(|e| {
            panic!("query {q}: {e} with {:?}", heap.large_stats());
        });
        // SAFETY: fresh allocation of `layout.size()` bytes.
        unsafe { stamp(p, layout.size(), q as u8, false) };
        live.push((p, layout, q as u8));
        if live.len() > LIVE {
            let (victim, layout, tag) = live.swap_remove(rng.below(live.len()));
            // SAFETY: live, stamped at allocation, freed once with its
            // layout.
            unsafe {
                stamp(victim, layout.size(), tag, true);
                heap.deallocate(victim, layout);
            }
        }
        if q % 4096 == 0 {
            heap.check_integrity()
                .unwrap_or_else(|e| panic!("query {q}: {e}"));
        }
    }
    for (p, layout, tag) in live {
        // SAFETY: as above.
        unsafe {
            stamp(p, layout.size(), tag, true);
            heap.deallocate(p, layout);
        }
    }
    heap.stop_manager();
    let c = heap.counters();
    assert!(
        c.manager_rounds > 0 && c.decommitted_bytes > 0,
        "the manager decommitted while the stream ran: {c:?}"
    );
    assert_eq!(heap.large_stats().live, 0);
    heap.check_integrity().unwrap();
}
