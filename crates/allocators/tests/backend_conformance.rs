//! Backend conformance: one shared suite instantiated against every
//! `AllocatorBackend` implementation — the four sim adapters and both
//! real wall-clock backends. Any new backend gets the same contract
//! checks for free by joining `all_backends`.

use hermes_allocators::{
    AllocError, AllocatorBackend, AllocatorKind, BackendKind, RealHermesBackend, RealSystemBackend,
    SimBackend, SimEnv,
};
use hermes_core::rt::HermesHeapConfig;
use hermes_core::HermesConfig;
use hermes_os::config::OsConfig;
use hermes_sim::time::SimDuration;

/// Builds one instance of every backend implementation. Each sim
/// adapter gets its own environment; the `SimEnv` handles are kept
/// alive inside the backend via `Arc`, so dropping the locals is fine.
fn all_backends() -> Vec<Box<dyn AllocatorBackend>> {
    let cfg = HermesConfig::default();
    let mut out: Vec<Box<dyn AllocatorBackend>> = Vec::new();
    for kind in AllocatorKind::ALL {
        let env = SimEnv::new(OsConfig::small_test_node());
        out.push(Box::new(SimBackend::new(kind, &env, 11, &cfg)));
    }
    out.push(Box::new(
        RealHermesBackend::with_heap_config(HermesHeapConfig::small()).expect("arena reservation"),
    ));
    // The same contract over a *growing* mapped heap: small initial
    // exposure, 4x address-space reservation, extended on demand by
    // `Arena::grow` as the suite allocates.
    out.push(Box::new(
        RealHermesBackend::with_heap_config(HermesHeapConfig::small().with_reserve_factor(4))
            .expect("arena reservation"),
    ));
    out.push(Box::new(RealSystemBackend::new()));
    out
}

#[test]
fn malloc_free_round_trips() {
    for mut b in all_backends() {
        let label = b.kind().label();
        for size in [1usize, 64, 1024, 64 * 1024, 200 * 1024] {
            let (h, lat) = b
                .malloc(size)
                .unwrap_or_else(|e| panic!("{label}: malloc({size}) failed: {e}"));
            assert!(
                lat > SimDuration::ZERO,
                "{label}: malloc({size}) reports a positive latency"
            );
            let _ = b.access(h, size);
            b.free(h);
        }
        let s = b.stats();
        assert_eq!(s.live, 0, "{label}: everything freed");
        assert_eq!(s.live_bytes, 0, "{label}: no bytes held");
        assert_eq!(s.alloc_count, 5, "{label}");
        assert_eq!(s.free_count, 5, "{label}");
        b.check().unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn realloc_round_trips_and_counts() {
    for mut b in all_backends() {
        let label = b.kind().label();
        let (h, _) = b.malloc(100).unwrap();
        let (h, _) = b
            .realloc(h, 10_000)
            .unwrap_or_else(|e| panic!("{label}: grow failed: {e}"));
        let (h, _) = b
            .realloc(h, 50)
            .unwrap_or_else(|e| panic!("{label}: shrink failed: {e}"));
        b.free(h);
        let s = b.stats();
        assert_eq!(s.live, 0, "{label}: realloc chain fully retired");
        assert_eq!(s.realloc_count, 2, "{label}");
        assert_eq!(s.alloc_count, s.free_count, "{label}: allocs balance frees");
    }
}

#[test]
fn stats_counters_are_monotone() {
    for mut b in all_backends() {
        let label = b.kind().label();
        let mut prev = b.stats();
        let mut live = Vec::new();
        for i in 0..32usize {
            if i % 3 == 2 {
                if let Some(h) = live.pop() {
                    b.free(h);
                }
            } else {
                live.push(b.malloc(512 + i * 64).unwrap().0);
            }
            b.advance();
            let s = b.stats();
            assert!(s.alloc_count >= prev.alloc_count, "{label}: alloc_count");
            assert!(s.free_count >= prev.free_count, "{label}: free_count");
            assert!(
                s.realloc_count >= prev.realloc_count,
                "{label}: realloc_count"
            );
            assert_eq!(
                s.live as usize,
                live.len(),
                "{label}: live gauge tracks handles"
            );
            prev = s;
        }
        for h in live {
            b.free(h);
        }
    }
}

#[test]
fn cross_thread_free_lands_on_the_owner() {
    // Allocate on this thread, move the backend (handles are plain
    // ids), free on another: the free must route back to whatever owns
    // the memory — Hermes' shard range table, the sims' OS model — and
    // leave the stats balanced.
    for mut b in all_backends() {
        let label = b.kind().label();
        let (h, _) = b.malloc(2048).unwrap();
        let b = std::thread::spawn(move || {
            b.free(h);
            b
        })
        .join()
        .unwrap_or_else(|_| panic!("{label}: freeing thread panicked"));
        let s = b.stats();
        assert_eq!(s.live, 0, "{label}");
        assert_eq!(s.free_count, 1, "{label}");
        b.check().unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn cross_thread_free_under_remote_queue_stays_lock_free() {
    // The remote-free inbox contract over both real Hermes shapes
    // (fixed backing and grow-on-demand): frees from a thread whose
    // home shard differs from the owner must queue on the lock-free
    // inboxes — zero lock fallbacks — and the queued bytes must be
    // visible through the uniform `BackendStats` façade until a drain
    // returns them to the heaps.
    for base in [
        HermesHeapConfig::small(),
        HermesHeapConfig::small().with_reserve_factor(4),
    ] {
        let cfg = base.with_arena_count(4);
        let mut b = RealHermesBackend::with_heap_config(cfg).expect("arena reservation");
        // The live manager drains every inbox each round: stopped, it
        // cannot empty them between the frees and the check below.
        b.heap().stop_manager();
        let label = b.kind().label();
        let main_home = b.heap().home_arena();
        let handles: Vec<_> = (0..48).map(|i| b.malloc(512 + i * 32).unwrap().0).collect();
        // Free on a thread with a *different* home shard (tickets are
        // handed out round-robin, but parallel tests also consume them,
        // so probe until a spawned thread lands elsewhere).
        let mut state = Some((b, Some(handles)));
        for _ in 0..16 {
            let (bb, hs) = state.take().expect("backend in flight");
            state = Some(
                std::thread::spawn(move || {
                    let mut bb = bb;
                    match hs {
                        // Wrong parity: hand everything back untouched.
                        Some(hs) if bb.heap().home_arena() == main_home => (bb, Some(hs)),
                        Some(hs) => {
                            for h in hs {
                                bb.free(h);
                            }
                            (bb, None)
                        }
                        None => (bb, None),
                    }
                })
                .join()
                .unwrap_or_else(|_| panic!("{label}: freeing thread panicked")),
            );
            if state.as_ref().is_some_and(|(_, hs)| hs.is_none()) {
                break;
            }
        }
        let (b, leftovers) = state.expect("backend returned");
        assert!(
            leftovers.is_none(),
            "{label}: no foreign-home thread found in 16 tries"
        );
        let c = b.heap().counters();
        assert!(c.remote_frees > 0, "{label}: frees staged remotely");
        assert_eq!(
            c.remote_lock_falls, 0,
            "{label}: no remote free took the owner's lock"
        );
        let s = b.stats();
        assert_eq!(s.live, 0, "{label}: all handles retired");
        assert!(
            s.remote_queued > 0,
            "{label}: queued bytes visible before the drain"
        );
        b.heap().drain_remote_inboxes();
        assert_eq!(b.stats().remote_queued, 0, "{label}: drain emptied inboxes");
        b.check().unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn free_of_unknown_handle_is_a_safe_noop() {
    for mut b in all_backends() {
        let label = b.kind().label();
        let bogus = hermes_allocators::AllocHandle(12345);
        assert_eq!(b.free(bogus), SimDuration::ZERO, "{label}");
        let s = b.stats();
        assert_eq!(s.free_count, 0, "{label}: nothing was freed");
        // A double free is the same no-op once the first one retired
        // the handle.
        let (h, _) = b.malloc(256).unwrap();
        b.free(h);
        assert_eq!(b.free(h), SimDuration::ZERO, "{label}: double free");
        assert_eq!(b.stats().free_count, 1, "{label}: one real free");
    }
}

#[test]
fn oversized_requests_fail_typed_on_real_backends() {
    let mut hermes = RealHermesBackend::with_heap_config(HermesHeapConfig::small()).unwrap();
    match hermes.malloc(1 << 40) {
        Err(AllocError::Oversized { requested, .. }) => assert_eq!(requested, 1 << 40),
        other => panic!("real:hermes expected Oversized, got {other:?}"),
    }
    let mut system = RealSystemBackend::new();
    match system.malloc(isize::MAX as usize) {
        Err(AllocError::Oversized { .. }) => {}
        other => panic!("real:system expected Oversized, got {other:?}"),
    }
}

#[test]
fn real_hermes_exhausts_natively_and_recovers() {
    // Both real shapes really run out: the fixed small heap, and the
    // growing one once `Arena::grow` has used its whole 4x reservation.
    // The cap on the loop guards against an unbounded heap masking a
    // missing error.
    for cfg in [
        HermesHeapConfig::small(),
        HermesHeapConfig::small().with_reserve_factor(4),
    ] {
        let factor = cfg.reserve_factor;
        let mut b = RealHermesBackend::with_heap_config(cfg).unwrap();
        let mut held = Vec::new();
        let mut exhausted = false;
        for _ in 0..4096 {
            match b.malloc(256 * 1024) {
                Ok((h, _)) => held.push(h),
                Err(AllocError::Exhausted) => {
                    exhausted = true;
                    break;
                }
                Err(e) => panic!("reserve x{factor}: expected Exhausted, got {e}"),
            }
        }
        assert!(exhausted, "reserve x{factor}: must exhaust within the cap");
        assert!(
            !held.is_empty(),
            "reserve x{factor}: some allocations landed"
        );
        let half = held.len() / 2;
        for h in held.drain(..half.max(1)) {
            b.free(h);
        }
        let (h, _) = b
            .malloc(256 * 1024)
            .unwrap_or_else(|e| panic!("reserve x{factor}: freed memory must serve: {e}"));
        b.free(h);
        for h in held {
            b.free(h);
        }
        assert_eq!(b.stats().live, 0, "reserve x{factor}: fully drained");
        b.check()
            .unwrap_or_else(|e| panic!("reserve x{factor}: integrity after exhaustion: {e}"));
    }
}

#[test]
fn clock_domains_match_backend_families() {
    use hermes_sim::clock::Clock;
    for b in all_backends() {
        let kind = b.kind();
        assert_eq!(
            b.clock().is_virtual(),
            matches!(kind, BackendKind::Sim(_)),
            "{kind}: clock domain matches the backend family"
        );
    }
}
