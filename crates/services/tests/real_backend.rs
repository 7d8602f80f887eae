//! Acceptance: the Redis service answers queries through the *real*
//! Hermes runtime — arenas, thread caches and the live management
//! thread — on wall-clock time, fails typed and without leaking when
//! that runtime really runs out, and the identical service path runs
//! unchanged over the sim backend.

use hermes_allocators::{AllocError, AllocatorKind, BackendKind, RealHermesBackend, SimEnv};
use hermes_core::rt::HermesHeapConfig;
use hermes_core::HermesConfig;
use hermes_os::config::OsConfig;
use hermes_services::{build_service_on, RedisModel, Service, ServiceKind};
use hermes_sim::clock::Clock;
use hermes_sim::stats::LatencyRecorder;
use hermes_sim::time::SimDuration;

#[test]
fn redis_answers_queries_on_the_real_hermes_runtime() {
    let backend =
        RealHermesBackend::with_heap_config(HermesHeapConfig::small()).expect("arena reservation");
    assert!(
        backend.heap().manager_running(),
        "the management thread is live"
    );
    let mut redis = RedisModel::new(backend, 42);

    // Warm-up: populate the store, let the thread caches and the
    // manager build reserve.
    for _ in 0..256 {
        redis.query(1024).expect("warm-up query");
    }

    let mut rec = LatencyRecorder::new("redis-real-hermes");
    for i in 0..1024usize {
        let q = redis.query(1024).expect("measured query");
        rec.record(q.total());
        if i % 8 == 7 {
            redis.delete_one();
        }
    }

    let p99 = rec.percentile(0.99);
    assert!(p99 > SimDuration::ZERO, "p99 is a real measurement");
    assert!(
        p99 < SimDuration::from_secs(1),
        "p99 {p99} is finite and sane"
    );

    let stats = redis.backend().stats();
    assert!(
        stats.reserved_unused_bytes > 0,
        "after warm-up the runtime holds reserve (got {})",
        stats.reserved_unused_bytes
    );
    assert!(
        stats.alloc_count >= 2 * (256 + 1024),
        "entry+value per query"
    );
    assert!(!redis.backend().clock().is_virtual(), "wall-clock domain");
    redis.backend().check().expect("heap integrity holds");
}

#[test]
fn redis_exhausts_on_real_hermes_without_leaking() {
    // Real exhaustion through the service path: 200 KiB values fill the
    // small config's large arenas until a value allocation is refused.
    // The query must fail typed and free the entry it had already
    // allocated; one delete must make room for the next query.
    const VALUE: usize = 200 * 1024;
    let backend =
        RealHermesBackend::with_heap_config(HermesHeapConfig::small()).expect("arena reservation");
    let mut redis = RedisModel::new(backend, 7);
    let mut records = 0u64;
    let mut exhausted = false;
    for _ in 0..4096 {
        match redis.query(VALUE) {
            Ok(_) => records += 1,
            Err(AllocError::Exhausted) => {
                exhausted = true;
                break;
            }
            Err(e) => panic!("expected Exhausted, got {e}"),
        }
    }
    assert!(exhausted, "the small heap must exhaust within the cap");
    assert!(records > 0, "some queries landed first");
    assert_eq!(
        redis.backend().stats().live,
        2 * records,
        "entry + value per stored record; the failed query's entry was freed"
    );
    redis.delete_one();
    redis
        .query(VALUE)
        .expect("a deleted record's memory serves the next query");
    redis
        .backend()
        .check()
        .expect("heap integrity after exhaustion");
}

#[test]
fn the_same_service_path_runs_on_the_sim_backend() {
    // `--backend sim` takes this exact construction: same service code,
    // same query loop, virtual time instead of wall time.
    let env = SimEnv::new(OsConfig::small_test_node());
    let mut svc = build_service_on(
        ServiceKind::Redis,
        BackendKind::Sim(AllocatorKind::Hermes),
        Some(&env),
        42,
        &HermesConfig::default(),
    )
    .expect("sim service");
    let mut rec = LatencyRecorder::new("redis-sim-hermes");
    for i in 0..512usize {
        let q = svc.query(1024).expect("sim query");
        rec.record(q.total());
        if i % 8 == 7 {
            svc.delete_one();
        }
    }
    assert!(rec.percentile(0.99) > SimDuration::ZERO);
    assert!(svc.backend().clock().is_virtual(), "virtual-time domain");
}
