//! The closed-loop driver for the three service workloads, shared by the
//! untraced, traced, reference and no-op-backend runs: set-up (boot,
//! fill, warm-up), then fixed-count trials in which one caller issues
//! the next query when the last returns.
//!
//! One timestamp is taken per query; a query's latency is the distance
//! to the next timestamp, so the latencies of a trial sum to its wall
//! time and the timer is paid once, not twice, per query.

use crate::backends::ProbeCell;
use crate::report::PassOutput;
use crate::stats::{pctls, Pctl};
use crate::surface::{BackendStats, HeapProbe, Service};
use crate::trace::{Name, RootTracer};
use crate::workload::{stream_hash, Phase, Plan, Workload};
use std::time::Instant;

/// Called around every service call; the untraced runs use [`NoHook`],
/// which compiles to nothing.
pub trait Hook {
    fn begin(&mut self, query: u32, name: Name);
    fn end(&mut self);
}

pub struct NoHook;

impl Hook for NoHook {
    #[inline(always)]
    fn begin(&mut self, _query: u32, _name: Name) {}
    #[inline(always)]
    fn end(&mut self) {}
}

impl Hook for RootTracer {
    #[inline]
    fn begin(&mut self, query: u32, name: Name) {
        RootTracer::begin(self, query, name)
    }
    #[inline]
    fn end(&mut self) {
        RootTracer::end(self)
    }
}

/// The driver's own account of what the service must be holding,
/// replayed from the op stream (never from the service's answers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ledger {
    /// Redis model: every stored record is one 64 B entry plus its value.
    Kv { records: u64 },
    /// RocksDB model at its defaults: a 72 B node per insert, a 256 KiB
    /// arena block whenever the current one cannot take the value, and
    /// everything released when the memtable reaches 64 MiB.
    Lsm {
        live: u64,
        live_bytes: usize,
        arena_left: usize,
        memtable: usize,
        stored: usize,
        flushes: u64,
    },
}

const KV_ENTRY: usize = 64;
const LSM_NODE: usize = 72;
const LSM_BLOCK: usize = 256 * 1024;
const LSM_MEMTABLE: usize = 64 << 20;

impl Ledger {
    pub fn new(w: Workload) -> Ledger {
        if w == Workload::LsmFlush {
            Ledger::Lsm {
                live: 0,
                live_bytes: 0,
                arena_left: 0,
                memtable: 0,
                stored: 0,
                flushes: 0,
            }
        } else {
            Ledger::Kv { records: 0 }
        }
    }

    /// Books one query (and its paired delete, when `deletes`). Returns
    /// `true` when this query flushed the memtable.
    pub fn book(&mut self, value: u32, deletes: bool) -> bool {
        let v = value as usize;
        match self {
            Ledger::Kv { records } => {
                if !deletes {
                    *records += 1;
                }
                false
            }
            Ledger::Lsm {
                live,
                live_bytes,
                arena_left,
                memtable,
                stored,
                flushes,
            } => {
                *live += 1;
                *live_bytes += LSM_NODE;
                if *arena_left < v {
                    let block = LSM_BLOCK.max(v);
                    *live += 1;
                    *live_bytes += block;
                    *arena_left = block;
                }
                *arena_left -= v;
                *memtable += v;
                *stored += v;
                if *memtable >= LSM_MEMTABLE {
                    (*live, *live_bytes, *arena_left, *memtable) = (0, 0, 0, 0);
                    *flushes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Indices in `stream` of the queries that will flush, given the
    /// ledger's current state (which is left untouched).
    pub fn flush_points(&self, stream: &[u32]) -> Vec<usize> {
        let mut l = self.clone();
        stream
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| l.book(v, false).then_some(i))
            .collect()
    }

    pub fn book_all(&mut self, stream: &[u32], deletes: bool) {
        for &v in stream {
            self.book(v, deletes);
        }
    }

    /// Compares the ledger with what backend and service report.
    pub fn verify(&self, stats: &BackendStats, stored: usize, at: &str, out: &mut PassOutput) {
        // Which victims the Redis model deleted is its own choice, so
        // for it the byte check is backend bytes against service bytes.
        let (live, live_bytes) = match *self {
            Ledger::Kv { records } => (2 * records, stored + KV_ENTRY * records as usize),
            Ledger::Lsm {
                live,
                live_bytes,
                stored: want,
                ..
            } => {
                if stored != want {
                    out.problem(format!(
                        "{at}: ledger stored {want} != stored_bytes() {stored}"
                    ));
                }
                (live, live_bytes)
            }
        };
        if stats.live != live {
            out.problem(format!(
                "{at}: ledger live {live} != stats().live {}",
                stats.live
            ));
        }
        if stats.live_bytes != live_bytes {
            out.problem(format!(
                "{at}: ledger live_bytes {live_bytes} != stats().live_bytes {}",
                stats.live_bytes
            ));
        }
        if stats.alloc_count != stats.free_count + stats.live {
            out.problem(format!(
                "{at}: allocs {} != frees {} + live {}",
                stats.alloc_count, stats.free_count, stats.live
            ));
        }
    }
}

/// Everything one trial measured.
#[derive(Debug)]
pub struct Measured {
    /// Boot + fill + warm-up.
    pub setup_s: f64,
    pub wall_ns: u64,
    pub queries: usize,
    pub failed: u64,
    /// p50, p99, p99.9 of the query latencies, in ns.
    pub p: [Pctl; 3],
    /// Committed backing bytes over live user bytes: at the trial's end,
    /// or on `lsm_flush` the highest of the samples taken just before
    /// each flush, with the memtable full (whether the previous
    /// memtable's pages are already back with the kernel at that moment
    /// is a coin toss per flush; the peak is what must fit). `None` where
    /// the allocator reports no committed bytes.
    pub mem_ratio: Option<f64>,
    /// The runtime's own statistics before the first and after the last
    /// measured query, and the wall time between.
    pub probes: Option<(HeapProbe, HeapProbe, u64)>,
}

impl Measured {
    /// Reports the latency and throughput figures under `prefix` (empty
    /// for the end-to-end names, `ref.system.` for the reference).
    pub fn put_latency(&self, prefix: &str, out: &mut PassOutput) {
        for (p, name) in self
            .p
            .into_iter()
            .zip(["query_p50_us", "query_p99_us", "query_p999_us"])
        {
            out.put_pctl(&format!("{prefix}{name}"), p, 1e-3, "us");
        }
        out.put(
            &format!("{prefix}queries_per_s"),
            self.queries as f64 / (self.wall_ns as f64 / 1e9),
            "1/s",
            format!("n={}", self.queries),
        );
    }
}

fn read_probe(cell: &Option<ProbeCell>) -> Option<HeapProbe> {
    cell.as_ref()
        .and_then(|c| *c.lock().expect("the probe cell is only ever assigned"))
}

/// Runs `stream[range]` as one timed segment. Returns its wall time.
fn run_segment<S: Service, H: Hook>(
    svc: &mut S,
    stream: &[u32],
    first_query: u32,
    deletes: bool,
    lat: &mut Vec<u32>,
    failed: &mut u64,
    hook: &mut H,
) -> u64 {
    let start = Instant::now();
    let mut prev = start;
    for (i, &v) in stream.iter().enumerate() {
        let q = first_query + i as u32;
        hook.begin(q, Name::Query);
        let r = svc.query(v as usize);
        hook.end();
        if deletes {
            hook.begin(q, Name::DeleteOne);
            svc.delete_one();
            hook.end();
        }
        if r.is_err() {
            *failed += 1;
        }
        let now = Instant::now();
        lat.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
        prev = now;
    }
    (prev - start).as_nanos() as u64
}

/// What [`measure`] needs to know beyond the workload.
pub struct Run<'a, S> {
    pub workload: Workload,
    pub plan: Plan,
    pub seed: u64,
    /// Which trial of the seed this is: it picks the streams.
    pub trial: u32,
    /// The traced trial runs `plan.traced` queries, not `plan.trial`.
    pub traced: bool,
    /// Boots a fresh service; the cell, when there is one, receives a
    /// [`HeapProbe`] whenever the driver calls `backend().stats()`.
    pub build: &'a mut dyn FnMut() -> (S, Option<ProbeCell>),
    /// Called with `true` once the set-up is done, before the first
    /// measured query, and with `false` after the last one.
    pub measuring: &'a mut dyn FnMut(bool),
}

/// Runs one trial: boot, fill to the steady live set, warm-up churn
/// (together `setup_s`), then the trial's fixed query count, then the
/// output checks. **Every trial has a service, and a process, of its
/// own**, so trials do not inherit each other's heap: a layout that
/// degrades with age degrades the same way in each, and the median over
/// the trials stays put.
pub fn measure<S: Service, H: Hook>(
    run: Run<'_, S>,
    hook: &mut H,
    out: &mut PassOutput,
) -> Measured {
    let Run {
        workload: w,
        plan,
        seed,
        trial,
        traced,
        build,
        measuring,
    } = run;
    let at = |what: &str| format!("{} trial {trial} {what}", w.name());

    // Every stream is generated before anything is timed.
    let fill = w.stream(seed, Phase::Fill(trial), plan.fill);
    let warm = w.stream(seed, Phase::Warmup(trial), plan.warmup);
    let queries = if traced { plan.traced } else { plan.trial };
    let stream = w.stream(seed, Phase::Measured(trial), queries);
    let hash = stream_hash(&fill)
        ^ stream_hash(&warm).rotate_left(1)
        ^ stream_hash(&stream).rotate_left(2);
    out.fact("op_hash", format!("{hash:016x}"));

    // ---- set-up: boot, fill, warm-up ----
    let t0 = Instant::now();
    let (mut svc, cell) = build();
    let mut setup_failed = 0u64;
    for &v in &fill {
        setup_failed += svc.query(v as usize).is_err() as u64;
    }
    for &v in &warm {
        setup_failed += svc.query(v as usize).is_err() as u64;
        if plan.deletes {
            svc.delete_one();
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if setup_failed > 0 {
        out.problem(at(&format!("{setup_failed} set-up queries failed")));
    }
    let mut ledger = Ledger::new(w);
    ledger.book_all(&fill, false);
    ledger.book_all(&warm, plan.deletes);
    let stats = svc.backend().stats();
    ledger.verify(&stats, svc.stored_bytes(), &at("after set-up"), out);
    let first = read_probe(&cell);

    // ---- the measured queries ----
    measuring(true);
    let span_start = Instant::now();
    let mut lat: Vec<u32> = Vec::with_capacity(stream.len());
    let mut failed = 0u64;
    let mut wall_ns = 0u64;
    // `lsm_flush` pauses just before each flushing query to sample
    // memory at the live set's peak; the others run in one segment and
    // sample at its end.
    let mut cuts = ledger.flush_points(&stream);
    cuts.push(stream.len());
    let mut from = 0;
    let mut peak_ratio = 0f64;
    for cut in cuts {
        wall_ns += run_segment(
            &mut svc,
            &stream[from..cut],
            from as u32,
            plan.deletes,
            &mut lat,
            &mut failed,
            hook,
        );
        if cut < stream.len() || w != Workload::LsmFlush {
            let s = svc.backend().stats();
            if s.live_bytes > 0 {
                peak_ratio = peak_ratio.max(s.committed_bytes as f64 / s.live_bytes as f64);
            }
        }
        from = cut;
    }
    measuring(false);
    ledger.book_all(&stream, plan.deletes);

    // ---- output checks, outside every timed segment ----
    if let Err(e) = svc.backend().check() {
        out.problem(at(&format!("integrity: {e}")));
    }
    let stats = svc.backend().stats();
    ledger.verify(&stats, svc.stored_bytes(), &at("after its queries"), out);
    let probes = first
        .zip(read_probe(&cell))
        .map(|(first, last)| (first, last, span_start.elapsed().as_nanos() as u64));

    // ---- leak check: a drained store holds nothing ----
    if let Ledger::Kv { .. } = ledger {
        while svc.stored_bytes() > 0 {
            svc.delete_one();
        }
        let s = svc.backend().stats();
        if s.live != 0 || s.live_bytes != 0 {
            out.problem(at(&format!(
                "drained store still holds {} handles / {} bytes",
                s.live, s.live_bytes
            )));
        }
        if let Err(e) = svc.backend().check() {
            out.problem(at(&format!("after drain: integrity: {e}")));
        }
    }
    Measured {
        setup_s,
        wall_ns,
        queries: stream.len(),
        failed,
        p: pctls(&lat, [0.5, 0.99, 0.999]),
        mem_ratio: (peak_ratio > 0.0).then_some(peak_ratio),
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::NoopBackend;
    use crate::surface::{RealFiles, RedisModel, RocksdbModel};

    #[test]
    fn lsm_ledger_follows_the_service_through_flushes() {
        let w = Workload::LsmFlush;
        let stream = w.stream(5, Phase::Measured(0), 120_000);
        let mut svc = RocksdbModel::new(NoopBackend::new(), Box::new(RealFiles::new()), 5).unwrap();
        let mut ledger = Ledger::new(w);
        let cuts = ledger.flush_points(&stream);
        assert!(cuts.len() >= 2, "120k values of ~1.4 KB cross 64 MiB twice");
        for &v in &stream {
            svc.query(v as usize).unwrap();
        }
        ledger.book_all(&stream, false);
        let mut out = PassOutput::default();
        ledger.verify(&svc.backend().stats(), svc.stored_bytes(), "t", &mut out);
        assert_eq!(out.problems, Vec::<String>::new());
        assert!(matches!(ledger, Ledger::Lsm { flushes, .. } if flushes as usize == cuts.len()));
    }

    #[test]
    fn measure_runs_a_quick_plan_and_checks_its_ledger() {
        let w = Workload::KvSmall;
        let plan = Plan {
            fill: 500,
            warmup: 500,
            trial: 12_000,
            traced: 0,
            deletes: true,
        };
        let mut out = PassOutput::default();
        let m = measure(
            Run {
                workload: w,
                plan,
                seed: 1,
                trial: 3,
                traced: false,
                build: &mut || (RedisModel::new(NoopBackend::new(), 1), None),
                measuring: &mut |_| {},
            },
            &mut NoHook,
            &mut out,
        );
        assert_eq!(out.problems, Vec::<String>::new());
        assert_eq!((m.queries, m.failed), (12_000, 0));
        assert_eq!(m.p[2].used, 0.999, "12k samples carry p99.9");
        assert!(m.setup_s > 0.0 && m.mem_ratio.is_none() && m.probes.is_none());
        let mut put = PassOutput::default();
        m.put_latency("", &mut put);
        assert!(put.get("queries_per_s").unwrap() > 0.0);
    }

    #[test]
    fn a_wrong_ledger_is_a_problem() {
        let mut out = PassOutput::default();
        let stats = BackendStats {
            live: 3,
            live_bytes: 10,
            alloc_count: 3,
            ..BackendStats::default()
        };
        Ledger::Kv { records: 2 }.verify(&stats, 10, "t", &mut out);
        assert_eq!(out.problems.len(), 2, "{:?}", out.problems);
    }
}
