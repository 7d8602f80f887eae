//! The memory management thread (§3.2, Figure 5), generalised to the
//! sharded runtime.
//!
//! Wakes every `f` (2 ms by default) and visits **every arena shard**,
//! recomputing each shard's thresholds from that shard's own demand
//! trackers — reservation follows each arena's burst profile — and then:
//!
//! * **heap side** (Algorithm 1) — if the shard's committed top-chunk
//!   reserve is below `RSV_THR`, *gradually* extends and touches the break
//!   in `MEM_CHUNK`-sized steps (Figure 6(b)). Each step takes the shard's
//!   heap lock to open it, populates its pages with the lock dropped, and
//!   takes the lock again to close it, so a `malloc` never waits on the
//!   step's page call (DESIGN.md §2, *The heap's reserve, built off the
//!   lock*); trims above `TRIM_THR`;
//! * **mmap side** (Algorithm 2) — reserves warm space for the largest
//!   request the shard's pool missed in the last
//!   [`TRIM_WINDOW_ROUNDS`](crate::policy::TRIM_WINDOW_ROUNDS) rounds,
//!   until two such requests fit its warm ranges (DESIGN.md §2, *Reserve
//!   for the miss, populate off the lock*); refills the warm free space to
//!   `TGT_MEM` when it is below `RSV_THR`; and releases above the peak
//!   `TRIM_THR` of the same window rather than the last interval's, so a
//!   store whose net demand reads ≈ 0 between bursts keeps the warm
//!   ranges it reuses (*Trim against a windowed peak*). There is no
//!   delayed shrink: the large pool carves every block to exactly its
//!   size. One hold of the shard's `large` lock decides the round and
//!   takes its ranges out of reach: the reserved ones carved from cold
//!   space, the trimmed ones cut from the free map. The lock is then
//!   dropped while the first are populated and the second decommitted,
//!   and a second, short hold lists them warm and cold. An allocation or
//!   free therefore never waits on a page call of the manager's.
//!
//! Reservation and trim byte counters are recorded on the shard they
//! belong to; round bookkeeping lands on the runtime-wide counters.
//!
//! Every round starts by **draining every shard's remote-free inbox**.
//! While this thread runs, a cross-shard free returns its block to the
//! owner's heap itself when the owner's lock is free and its inbox
//! empty; only the other frees are queued. The owner's own slow paths
//! drain most of those; the round retires the rest, so a pure
//! producer/consumer service sees even its contended frees recycled
//! within one `f` when the owning shard never allocates again. (With no
//! live thread every cross-shard free queues: `rt/remote.rs`.)
//! `HERMES_MANAGER_CORE` (or `HermesConfig::manager_core`) pins the
//! thread to a CPU so the round's work stays off the application's
//! cores.

use super::large::Detached;
use super::stats::Counters;
use super::{lock, lockdep, remote, Shard, Shared};
use crate::platform::platform;
use crate::policy::ReservationPlan;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub(crate) struct ManagerHandle {
    stop_tx: SyncSender<()>,
    join: JoinHandle<()>,
}

impl ManagerHandle {
    pub(crate) fn spawn(shared: Arc<Shared>) -> Self {
        let (stop_tx, stop_rx) = sync_channel(1);
        let join = std::thread::Builder::new()
            .name("hermes-mgmt".into())
            .spawn(move || manager_loop(shared, stop_rx))
            .expect("spawn management thread");
        ManagerHandle { stop_tx, join }
    }

    pub(crate) fn stop(self) {
        let _ = self.stop_tx.send(());
        let _ = self.join.join();
    }
}

fn manager_loop(shared: Arc<Shared>, stop_rx: Receiver<()>) {
    if let Some(core) = shared.cfg.manager_core {
        // Best effort: pinning is a perf hint, not a correctness need.
        let _ = platform().pin_thread_to_cpu(core);
    }
    loop {
        match stop_rx.recv_timeout(shared.cfg.interval) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => run_round(&shared),
        }
    }
}

/// One management round over both paths of every shard. Public within the
/// crate so tests and deterministic benchmarks can drive it without a
/// live thread.
pub(crate) fn run_round(shared: &Shared) {
    let t0 = Instant::now();
    lockdep::as_manager(|| {
        for (i, shard) in shared.shards.iter().enumerate() {
            // Retire queued remote frees before sizing the reserve, so the
            // thresholds see the heap the application actually holds.
            remote::drain(shared, i, usize::MAX);
            heap_round(shard);
            large_round(shard);
        }
    });
    Counters::add(&shared.counters.manager_rounds, 1);
    Counters::add(
        &shared.counters.manager_busy_ns,
        t0.elapsed().as_nanos() as u64,
    );
}

fn heap_round(shard: &Shard) {
    // Roll the interval and read the current reserve under the lock.
    let (th, ready, top_free) = {
        let mut g = lock(&shard.heap);
        let th = g.tracker.roll_interval();
        (th, g.raw.reserve_ready(), g.raw.top_free())
    };
    if ready < th.rsv_thr {
        // Gradual reservation, one MEM_CHUNK step at a time. The lock is
        // held to open and to close a step, never for its page call.
        for step in ReservationPlan::new(th.tgt_mem - ready, th.mem_chunk) {
            let Ok(mut commit) = lock(&shard.heap).raw.begin_commit(step) else {
                return; // arena exhausted: stop reserving
            };
            // SAFETY: the shard's heap outlives the round, and only this
            // round ends the step.
            unsafe { commit.populate() };
            lock(&shard.heap).raw.end_commit(commit);
            Counters::add(&shard.counters.reserved_bytes, step as u64);
        }
    } else if top_free > th.trim_thr {
        let mut g = lock(&shard.heap);
        let released = g.raw.trim(th.tgt_mem);
        // The trim shrank the break; hand the now-unreachable committed
        // tail back to the kernel, still under the lock: a grow must not
        // re-extend over a range being decommitted (ROADMAP item 20).
        let decommitted = lockdep::allowed(|| g.raw.decommit_tail());
        drop(g);
        Counters::add(&shard.counters.trimmed_bytes, released as u64);
        Counters::add(&shard.counters.decommitted_bytes, decommitted as u64);
    }
}

fn large_round(shard: &Shard) {
    // Sized before the lock is taken; it never grows under it.
    let mut detached = Detached::new();
    let mut g = lock(&shard.large);
    let th = g.tracker.roll_interval();
    let trim_thr = g.trim_peak.push(th.trim_thr);
    let miss = g.pool.take_peak_miss();
    let fit = g.miss_peak.push(miss);
    g.pool.detach(
        &mut detached,
        th.rsv_thr,
        th.tgt_mem,
        trim_thr,
        th.mem_chunk,
        fit,
    );
    drop(g);
    if detached.is_empty() {
        return;
    }
    Counters::add(&shard.counters.trimmed_bytes, detached.trimmed() as u64);
    // SAFETY: the shard, and with it the pool that filled `detached`,
    // lives as long as `shard`; only this round publishes it.
    unsafe { detached.apply() };
    let (filled, decommitted) = lock(&shard.large).pool.publish(&detached);
    Counters::add(&shard.counters.reserved_bytes, filled as u64);
    Counters::add(&shard.counters.decommitted_bytes, decommitted as u64);
}
