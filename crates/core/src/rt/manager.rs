//! The memory management thread (§3.2, Figure 5), generalised to the
//! sharded runtime.
//!
//! Wakes every `f` (2 ms by default) and visits **every arena shard**,
//! recomputing each shard's thresholds from that shard's own demand
//! trackers — reservation follows each arena's burst profile — and then:
//!
//! * **heap side** (Algorithm 1) — if the shard's committed top-chunk
//!   reserve is below `RSV_THR`, *gradually* extends and touches the break
//!   in `MEM_CHUNK`-sized steps, taking that shard's heap lock per step so
//!   concurrent `malloc`s interleave (Figure 6(b)); trims above `TRIM_THR`;
//! * **mmap side** (Algorithm 2) — refills the shard's warm free space to
//!   `TGT_MEM`, releases above the peak `TRIM_THR` of the last
//!   [`TRIM_WINDOW_ROUNDS`](crate::policy::TRIM_WINDOW_ROUNDS) rounds
//!   rather than the last interval's, so a store whose net demand reads
//!   ≈ 0 between bursts keeps the warm ranges it reuses (DESIGN.md §2,
//!   *Trim against a windowed peak*). There is no delayed shrink:
//!   the large pool carves every block to exactly its size (DESIGN.md
//!   §2). One hold of the shard's `large` lock reserves (populating each
//!   reserved step) and takes the trimmed ranges out of the free map; the
//!   lock is then dropped while those ranges are decommitted, and a
//!   second, short hold lists them cold. An allocation or free therefore
//!   never waits on a decommit.
//!
//! Reservation and trim byte counters are recorded on the shard they
//! belong to; round bookkeeping lands on the runtime-wide counters.
//!
//! Every round starts by **draining every shard's remote-free inbox** —
//! the SpeedMalloc-style dedicated-core model: application threads push
//! cross-shard frees lock-free and this thread retires them, so a pure
//! producer/consumer service sees its memory recycled every `f` even if
//! the owning shard never allocates again. `HERMES_MANAGER_CORE` (or
//! `HermesConfig::manager_core`) pins the thread to a CPU so those
//! drains and the reservation work stay off the application's cores.

use super::large::Detached;
use super::stats::Counters;
use super::{lock, remote, Shard, Shared};
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

/// Finest drain cadence, as a fraction of the management interval: while
/// cross-shard frees are flowing the manager retires them on this tick,
/// so the backlog an application thread could ever meet on its own slow
/// path stays a few drain groups deep — the drain work lands on this
/// (pinnable) thread, not on the allocating cores.
const DRAIN_TICKS_PER_ROUND: u32 = 16;

fn manager_loop(shared: Arc<Shared>, stop_rx: Receiver<()>) {
    if let Some(core) = shared.cfg.manager_core {
        // Best effort: pinning is a perf hint, not a correctness need.
        let _ = platform().pin_thread_to_cpu(core);
    }
    let interval = shared.cfg.interval;
    let fine = interval / DRAIN_TICKS_PER_ROUND;
    // Adaptive cadence: a tick that drains something resets to `fine`;
    // an empty tick backs off exponentially toward the full interval, so
    // a heap with no cross-shard traffic pays no extra wakeups (which
    // matters when the manager shares a core with the application).
    let mut tick = interval;
    let mut last_round = Instant::now();
    loop {
        match stop_rx.recv_timeout(tick) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let mut drained = 0u64;
        for i in 0..shared.shards.len() {
            drained += remote::drain(&shared, i, usize::MAX);
        }
        tick = if drained > 0 {
            fine
        } else {
            (tick * 2).min(interval)
        };
        if last_round.elapsed() >= interval {
            run_round(&shared);
            last_round = Instant::now();
        }
    }
}

/// One management round over both paths of every shard. Public within the
/// crate so tests and deterministic benchmarks can drive it without a
/// live thread.
pub(crate) fn run_round(shared: &Shared) {
    let t0 = Instant::now();
    for (i, shard) in shared.shards.iter().enumerate() {
        // Retire queued remote frees before sizing the reserve, so the
        // thresholds see the heap the application actually holds.
        remote::drain(shared, i, usize::MAX);
        heap_round(shard);
        large_round(shard);
    }
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
        // Gradual reservation: one lock acquisition per MEM_CHUNK step, so
        // a burst of mallocs is blocked only for a single small step.
        for step in ReservationPlan::new(th.tgt_mem - ready, th.mem_chunk) {
            let mut g = lock(&shard.heap);
            if g.raw.sbrk_commit(step).is_err() {
                return; // arena exhausted: stop reserving
            }
            drop(g);
            Counters::add(&shard.counters.reserved_bytes, step as u64);
        }
    } else if top_free > th.trim_thr {
        let mut g = lock(&shard.heap);
        let released = g.raw.trim(th.tgt_mem);
        // The trim shrank the break; hand the now-unreachable committed
        // tail back to the kernel.
        let decommitted = g.raw.decommit_tail();
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
    let before = g.pool.pool_total();
    g.pool.detach(
        &mut detached,
        th.rsv_thr,
        th.tgt_mem,
        trim_thr,
        th.mem_chunk,
    );
    let after = g.pool.pool_total();
    drop(g);
    if after > before {
        Counters::add(&shard.counters.reserved_bytes, (after - before) as u64);
    } else {
        Counters::add(&shard.counters.trimmed_bytes, (before - after) as u64);
    }
    if detached.is_empty() {
        return;
    }
    // SAFETY: the shard, and with it the pool that filled `detached`,
    // lives as long as `shard`; only this round publishes it.
    unsafe { detached.decommit() };
    let decommitted = lock(&shard.large).pool.publish(&detached);
    Counters::add(&shard.counters.decommitted_bytes, decommitted as u64);
}
