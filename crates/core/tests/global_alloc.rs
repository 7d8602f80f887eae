//! The headline credibility test: install Hermes as the *real*
//! `#[global_allocator]` for this entire test binary. Every allocation the
//! test harness, the standard library and the tests themselves make goes
//! through the Hermes heap.

use hermes_core::rt::Hermes;
use std::alloc::Layout;
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::ptr::NonNull;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: Hermes = Hermes;

#[test]
fn collections_work_through_hermes() {
    let heap = Hermes::init();
    let mut v: Vec<String> = Vec::new();
    for i in 0..10_000 {
        v.push(format!("value-{i}"));
    }
    assert_eq!(v.len(), 10_000);
    assert!(v[9_999].ends_with("9999"));
    let mut m: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..2_000u64 {
        m.insert(i, vec![(i & 0xff) as u8; (i as usize % 700) + 1]);
    }
    for i in 0..2_000u64 {
        let val = &m[&i];
        assert_eq!(val[0], (i & 0xff) as u8);
    }
    assert!(heap.counters().alloc_count > 0);
}

#[test]
fn large_allocations_route_to_the_pool() {
    Hermes::init();
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    for i in 0..32 {
        blocks.push(vec![i as u8; 300 * 1024]);
    }
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(b[299 * 1024], i as u8);
    }
    drop(blocks);
    let heap = Hermes::heap().expect("initialised");
    let c = heap.counters();
    assert!(c.fast_large + c.slow_large >= 32);
}

#[test]
fn data_integrity_under_churn() {
    Hermes::init();
    // Interleaved allocation patterns with verification, catching any
    // chunk overlap or header corruption.
    let mut live: Vec<(Vec<u8>, u8)> = Vec::new();
    for round in 0..50u8 {
        for k in 0..40usize {
            let size = 17 + (k * 97 + round as usize * 31) % 5_000;
            live.push((vec![round ^ k as u8; size], round ^ k as u8));
        }
        if round % 2 == 0 {
            // Free half, verifying contents first.
            for _ in 0..live.len() / 2 {
                let idx = (round as usize * 13) % live.len();
                let (buf, tag) = live.swap_remove(idx);
                assert!(buf.iter().all(|&b| b == tag), "corrupted buffer");
            }
        }
    }
    for (buf, tag) in live {
        assert!(buf.iter().all(|&b| b == tag), "corrupted at teardown");
    }
}

#[test]
fn multithreaded_churn_through_global() {
    Hermes::init();
    let handles: Vec<_> = (0..4u8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut keep = Vec::new();
                for i in 0..3_000usize {
                    let size = 1 + (i * (t as usize + 7)) % 2_048;
                    let buf = vec![t; size];
                    if i % 3 == 0 {
                        keep.push(buf);
                    }
                }
                keep.iter().all(|b| b.iter().all(|&x| x == t))
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap(), "thread saw corrupted memory");
    }
}

#[test]
fn realloc_paths_via_vec_growth() {
    Hermes::init();
    let mut v: Vec<u64> = Vec::new();
    for i in 0..200_000u64 {
        v.push(i); // repeated grow/realloc through the allocator
    }
    assert_eq!(v[123_456], 123_456);
    v.shrink_to_fit();
    assert_eq!(v.iter().next_back(), Some(&199_999));
}

/// A producer thread allocates, this thread frees: every such free is
/// cross-shard when the two homes differ, and must take the remote path
/// (the owner's heap if its lock is free and its inbox empty, the inbox
/// if not) rather than fall back to waiting for the owner's lock.
///
/// `remote_lock_falls` is process-wide here, and the other tests of this
/// binary start and end threads at arbitrary moments — a thread's cache
/// registration and TLS teardown legitimately free through the lock. So
/// the hand-off runs in rounds, each measured between the producer's
/// start-up and its exit, and one round free of falls is the proof; if
/// the pair's own frees fell to the lock, no round would be.
#[test]
fn producer_consumer_handoff_stays_off_the_owner_lock() {
    let heap = Hermes::init();
    let mine = heap.home_arena();
    let mut clean_round = false;
    for _ in 0..64 {
        let (tx, rx) = mpsc::sync_channel::<Vec<Box<[u8; 200]>>>(4);
        // Both threads meet here twice: to open the measured window once
        // the producer is up, and after the consumer has closed it.
        let window = &Barrier::new(2);
        let (before, after, cross_shard) = std::thread::scope(|s| {
            s.spawn(move || {
                drop(Box::new(0u8)); // registers this thread's cache
                window.wait();
                for batch in 0..50u8 {
                    tx.send((0..40).map(|_| Box::new([batch; 200])).collect())
                        .unwrap();
                }
                window.wait();
            });
            window.wait();
            let before = heap.counters();
            let mut cross_shard = false;
            for batch in 0..50u8 {
                let blocks = rx.recv().unwrap();
                assert!(blocks.iter().all(|b| b.iter().all(|&x| x == batch)));
                cross_shard = heap.arena_of(NonNull::from(&blocks[0][0])) != Some(mine);
            }
            let after = heap.counters();
            window.wait();
            (before, after, cross_shard)
        });
        if !cross_shard && heap.arena_count() > 1 {
            continue; // both threads share a home: nothing crossed
        }
        if cross_shard {
            assert!(after.remote_frees > before.remote_frees);
        }
        if after.remote_lock_falls == before.remote_lock_falls {
            clean_round = true;
            break;
        }
    }
    assert!(clean_round, "every round saw frees fall back to the lock");
    heap.check_integrity().unwrap();
}

/// One thread frees 4 097 large blocks of one size class into its home
/// shard's pool with no management round in between. Each free edits the
/// pool under the shard's `large` lock, so a pool list that grew by
/// reallocating would, past 4 096 entries, ask the large path for a
/// 128 KiB buffer from under that lock and hang.
///
/// The case re-runs this binary on itself with `HERMES_ARENAS=2`, so the
/// ~530 MiB of blocks fit the home shard and no manager thread runs, and
/// fails if that child has not finished within a minute.
#[test]
fn one_thread_frees_thousands_of_large_blocks() {
    const CHILD: &str = "GLOBAL_ALLOC_FREE_BURST_CHILD";
    const BLOCKS: usize = 4_097;
    if std::env::var_os(CHILD).is_none() {
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["one_thread_frees_thousands_of_large_blocks", "--exact"])
            .env(CHILD, "1")
            .env("HERMES_ARENAS", "2")
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Some(status) = child.try_wait().unwrap() {
                assert!(status.success(), "child exited {status:?}");
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        child.kill().unwrap();
        child.wait().unwrap();
        panic!("freeing {BLOCKS} large blocks did not finish within 60 s");
    }
    // The smallest large-path request: 132 KiB chunks, one pool bucket.
    let layout = Layout::from_size_align(128 << 10, 16).unwrap();
    // SAFETY: non-zero size; each pointer is checked and freed once with
    // the same layout.
    let blocks: Vec<*mut u8> = (0..BLOCKS)
        .map(|_| unsafe { std::alloc::alloc(layout) })
        .collect();
    assert!(blocks.iter().all(|p| !p.is_null()));
    for p in blocks {
        // SAFETY: see above.
        unsafe { std::alloc::dealloc(p, layout) };
    }
}
