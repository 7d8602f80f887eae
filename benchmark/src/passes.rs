//! The four passes of a workload. A pass process runs one trial, so
//! thread caches, resident memory, thread tickets and whatever else a
//! process carries (page-table layout, huge-page luck) start clean for
//! each; the orchestrator takes the median over the trial processes:
//!
//! * `e2e` — tracing off; the only source of end-to-end metrics, and of
//!   the counter deltas (`rt.tcache.*`, `rt.manager.*`, ...) read off
//!   the runtime before the first and after the last measured query;
//! * `traced` — the same driver over [`TracedBackend`];
//! * `reference` — the same driver over the process allocator;
//! * `layers` — the direct layer drivers.

use crate::backends::Tap;
use crate::handoff::{self, SystemAlloc};
use crate::layers;
use crate::place::{place_load_thread, Placement};
use crate::report::PassOutput;
use crate::service::{self, Hook, Measured, NoHook, Run};
use crate::stats::pctls;
use crate::surface::{
    fixed_heap_config, AllocatorBackend, CountersSnapshot, HermesHeap, RealFiles,
    RealHermesBackend, RealSystemBackend, RedisModel, RocksdbModel,
};
use crate::trace::{
    self_times, write_jsonl, Name, Path, RootTracer, Span, TraceCtx, TracedBackend,
};
use crate::workload::{service_seed, Plan, Workload};
use std::path::PathBuf;
use std::sync::Arc;

const MIB: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    E2e,
    Traced,
    Reference,
    Layers,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::E2e => "e2e",
            Pass::Traced => "traced",
            Pass::Reference => "reference",
            Pass::Layers => "layers",
        }
    }

    pub fn parse(s: &str) -> Option<Pass> {
        [Pass::E2e, Pass::Traced, Pass::Reference, Pass::Layers]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

#[derive(Debug, Clone)]
pub struct PassArgs {
    pub workload: Workload,
    pub seed: u64,
    /// `--seconds / 10`: trial sizes scale with it.
    pub scale: f64,
    /// Which trial of the seed this process runs.
    pub trial: u32,
    /// Tests only: drop the floor that keeps ten samples beyond p99.9.
    pub quick: bool,
    pub results: PathBuf,
}

impl PassArgs {
    fn plan(&self) -> Plan {
        // 10_010 samples put exactly ten beyond the 99.9th percentile.
        self.workload
            .scaled_plan(self.scale, if self.quick { 0 } else { 10_240 })
    }
}

/// Runs the service driver with the service the workload names, built
/// over whatever backend `backend()` boots.
fn measure_service<B: AllocatorBackend + 'static, H: Hook>(
    a: &PassArgs,
    traced: bool,
    backend: &mut dyn FnMut() -> (B, Option<crate::backends::ProbeCell>),
    measuring: &mut dyn FnMut(bool),
    hook: &mut H,
    out: &mut PassOutput,
) -> Measured {
    let (workload, plan, seed, trial) = (a.workload, a.plan(), a.seed, a.trial);
    let svc_seed = service_seed(seed, trial);
    if workload == Workload::LsmFlush {
        service::measure(
            Run {
                workload,
                plan,
                seed,
                trial,
                traced,
                build: &mut || {
                    let (b, cell) = backend();
                    let svc = RocksdbModel::new(b, Box::new(RealFiles::new()), svc_seed)
                        .expect("the in-memory file store creates its WAL");
                    (svc, cell)
                },
                measuring,
            },
            hook,
            out,
        )
    } else {
        service::measure(
            Run {
                workload,
                plan,
                seed,
                trial,
                traced,
                build: &mut || {
                    let (b, cell) = backend();
                    (RedisModel::new(b, svc_seed), cell)
                },
                measuring,
            },
            hook,
            out,
        )
    }
}

fn boot_backend(placement: Placement) -> RealHermesBackend {
    RealHermesBackend::with_heap_config(fixed_heap_config(placement.manager_core))
        .expect("the kernel grants the default arena reservations")
}

fn boot_heap(placement: Placement) -> Arc<HermesHeap> {
    let heap = HermesHeap::new(fixed_heap_config(placement.manager_core))
        .expect("the kernel grants the default arena reservations");
    heap.start_manager();
    Arc::new(heap)
}

fn placement_facts(p: Placement, out: &mut PassOutput) {
    out.fact("pinned", p.pinned as u8);
    out.fact("cpus", p.cpus);
}

/// The figures read off the runtime's own counters across the measured
/// queries, and the workload-shape checks that rest on them.
fn counter_metrics(
    a: &PassArgs,
    m: &Measured,
    peak_queued: u64,
    small_frees: u64,
    out: &mut PassOutput,
) {
    let Some((first, last, span_ns)) = m.probes else {
        out.problem("no runtime probe was taken around the measured queries");
        return;
    };
    let d = |f: fn(&CountersSnapshot) -> u64| f(&last.counters) - f(&first.counters);
    let queries = m.queries.max(1) as f64;
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let allocs = d(|c| c.alloc_count);
    let frees = d(|c| c.free_count);
    let note = format!("allocs={allocs} frees={frees} queries={}", m.queries);
    let hits = d(|c| c.tcache_hits);
    out.put(
        "rt.tcache.hit_ratio_pct",
        pct(hits, allocs),
        "%",
        note.clone(),
    );
    let per_kq = |n: u64| 1e3 * n as f64 / queries;
    out.put(
        "rt.tcache.refills_per_kq",
        per_kq(d(|c| c.tcache_refills)),
        "1/kq",
        "",
    );
    out.put(
        "rt.tcache.flushes_per_kq",
        per_kq(d(|c| c.tcache_flushes)),
        "1/kq",
        "",
    );
    out.put(
        "rt.tcache.cached_mb",
        last.counters.cached_bytes as f64 / MIB,
        "MiB",
        "after the last query",
    );
    let (fast_large, slow_large) = (d(|c| c.fast_large), d(|c| c.slow_large));
    let large = fast_large + slow_large;
    out.put(
        "rt.large.pool_hit_ratio_pct",
        pct(fast_large, large),
        "%",
        format!("large_allocs={large}"),
    );
    out.put("rt.large.cold_per_kq", per_kq(slow_large), "1/kq", "");
    let remote_frees = d(|c| c.remote_frees);
    let lock_falls = d(|c| c.remote_lock_falls);
    out.put(
        "rt.remote.queued_share_pct",
        pct(remote_frees, frees),
        "%",
        note,
    );
    out.put("rt.remote.lock_falls", lock_falls as f64, "count", "");
    out.put(
        "rt.remote.inbox_peak_mb",
        peak_queued as f64 / MIB,
        "MiB",
        "highest seen at a round boundary",
    );
    let span_s = span_ns as f64 / 1e9;
    out.put(
        "rt.manager.busy_pct",
        100.0 * d(|c| c.manager_busy_ns) as f64 / span_ns.max(1) as f64,
        "%",
        format!("over {span_s} s"),
    );
    out.put(
        "rt.manager.rounds_per_s",
        d(|c| c.manager_rounds) as f64 / span_s.max(1e-9),
        "1/s",
        "",
    );
    out.put(
        "rt.manager.reserved_mb",
        d(|c| c.reserved_bytes) as f64 / MIB,
        "MiB",
        "",
    );
    out.put(
        "rt.manager.trimmed_mb",
        d(|c| c.trimmed_bytes) as f64 / MIB,
        "MiB",
        "",
    );
    out.put(
        "rt.manager.decommitted_mb",
        d(|c| c.decommitted_bytes) as f64 / MIB,
        "MiB",
        "",
    );
    out.put(
        "rt.reserved_unused_mb",
        last.reserved_unused as f64 / MIB,
        "MiB",
        "after the last query",
    );

    // Where the memory stood after the last query (run facts, not
    // metrics: they explain `mem_committed_over_live`).
    for (key, bytes) in [
        ("heap_in_use_mib", last.heap.in_use),
        ("heap_binned_mib", last.heap.binned),
        ("heap_brk_mib", last.heap.brk),
        ("heap_committed_mib", last.heap.committed),
        ("large_live_mib", last.large.live_bytes),
        ("large_pool_mib", last.large.pool_bytes),
        ("large_extent_mib", last.large.extent_bytes),
        ("large_committed_mib", last.large.committed),
        ("large_reserved_mib", last.large.backing_reserved),
    ] {
        out.fact(key, bytes as f64 / MIB);
    }

    // A workload that stops exercising what it claims must fail loudly,
    // not report a "gain".
    let w = a.workload;
    // One load thread frees on its own arena. The few frees in a million
    // that still cross are blocks it took from the neighbour arena while
    // the manager held its own arena's lock.
    if w.is_service() && (pct(remote_frees, frees) > 0.1 || lock_falls != 0) {
        out.problem(format!(
            "{}: shape: {remote_frees} of {frees} frees remote-queued, {lock_falls} lock falls, on a single-threaded service",
            w.name()
        ));
    }
    if w == Workload::KvSmall && large != 0 {
        out.problem(format!("kv_small: shape: {large} large-path allocations"));
    }
    if w == Workload::KvLarge && (large as f64) < 0.99 * queries {
        out.problem(format!(
            "kv_large: shape: only {large} large-path allocations for {queries} values"
        ));
    }
    if w == Workload::Handoff && (remote_frees as f64) < 0.9 * small_frees as f64 {
        out.problem(format!(
            "handoff: shape: only {remote_frees} of {small_frees} small frees were remote-queued"
        ));
    }
}

fn put_common(m: &Measured, out: &mut PassOutput) {
    out.attempted += m.queries as u64;
    out.failed += m.failed;
    if m.failed > 0 {
        out.problem(format!("{} of {} queries failed", m.failed, m.queries));
    }
}

pub fn e2e(a: &PassArgs) -> PassOutput {
    let mut out = PassOutput::default();
    let placement = place_load_thread();
    placement_facts(placement, &mut out);
    let (m, peak_queued, small_frees) = if a.workload.is_service() {
        let m = measure_service(
            a,
            false,
            &mut || {
                let (tap, cell) = Tap::new(boot_backend(placement));
                (tap, Some(cell))
            },
            &mut |_| {},
            &mut NoHook,
            &mut out,
        );
        (m, 0, 0)
    } else {
        let (m, extra) = handoff::measure(
            a.plan(),
            a.seed,
            a.trial,
            &mut || boot_heap(placement),
            None,
            &mut out,
        );
        (m, extra.peak_queued, extra.small_blocks)
    };
    put_common(&m, &mut out);
    m.put_latency("", &mut out);
    match m.mem_ratio {
        Some(r) => out.put("mem_committed_over_live", r, "ratio", ""),
        None => out.problem("no memory sample was taken"),
    }
    out.put("setup_s", m.setup_s, "s", "boot + fill + warm-up");
    counter_metrics(a, &m, peak_queued, small_frees, &mut out);
    out
}

pub fn reference(a: &PassArgs) -> PassOutput {
    let mut out = PassOutput::default();
    let placement = place_load_thread();
    placement_facts(placement, &mut out);
    let m = if a.workload.is_service() {
        measure_service(
            a,
            false,
            &mut || (RealSystemBackend::new(), None),
            &mut |_| {},
            &mut NoHook,
            &mut out,
        )
    } else {
        handoff::measure(
            a.plan(),
            a.seed,
            a.trial,
            &mut || Arc::new(SystemAlloc),
            None,
            &mut out,
        )
        .0
    };
    put_common(&m, &mut out);
    m.put_latency("ref.system.", &mut out);
    out
}

/// Durations (or backend-reported inner latencies) of the spans `keep`
/// selects.
fn pick(spans: &[Span], keep: impl Fn(&Span) -> bool, inner: bool) -> Vec<u32> {
    spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| {
            if inner {
                s.inner_ns
            } else {
                s.dur().min(u32::MAX as u64) as u32
            }
        })
        .collect()
}

/// Per-layer figures from one traced trial's spans.
fn trace_metrics(w: Workload, spans: &[Span], m: &Measured, out: &mut PassOutput) {
    let selfs = self_times(spans);
    let self_of = |name: Name| -> Vec<u32> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t.min(u32::MAX as u64) as u32)
            .collect()
    };
    let total = |v: &[u32]| v.iter().map(|&x| x as u64).sum::<u64>();
    let wall = m.wall_ns;

    // services: what the service model itself spends per call.
    let (q_self, d_self) = (self_of(Name::Query), self_of(Name::DeleteOne));
    let [q50] = pctls(&q_self, [0.5]);
    out.put_pctl("services.query_self_ns_p50", q50, 1.0, "ns");
    let [d50] = pctls(&d_self, [0.5]);
    out.put_pctl("services.delete_self_ns_p50", d50, 1.0, "ns");
    let roots: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur).sum();
    let service_self = total(&q_self) + total(&d_self);
    out.put(
        "services.query_self_share_pct",
        if roots == 0 {
            0.0
        } else {
            100.0 * service_self as f64 / roots as f64
        },
        "%",
        "of the traced query time",
    );

    // allocators.real: the backend calls as the service sees them.
    let [m50, m99] = pctls(&pick(spans, |s| s.name == Name::Malloc, false), [0.5, 0.99]);
    out.put_pctl("allocators.real.malloc_ns_p50", m50, 1.0, "ns");
    out.put_pctl("allocators.real.malloc_ns_p99", m99, 1.0, "ns");
    let [f50] = pctls(&pick(spans, |s| s.name == Name::Free, false), [0.5]);
    out.put_pctl("allocators.real.free_ns_p50", f50, 1.0, "ns");
    let [a50] = pctls(&pick(spans, |s| s.name == Name::Access, false), [0.5]);
    out.put_pctl("allocators.real.access_ns_p50", a50, 1.0, "ns");

    // rt: each allocation by the path it took, timed by the tight window
    // around the runtime call and the first write.
    let is_alloc = |s: &Span| matches!(s.name, Name::Malloc | Name::HandoffAlloc);
    let allocs = spans.iter().filter(|s| is_alloc(s)).count();
    let share = |n: usize| {
        if allocs == 0 {
            0.0
        } else {
            100.0 * n as f64 / allocs as f64
        }
    };
    for p in Path::ALLOC {
        let lat = pick(spans, |s| is_alloc(s) && s.path == p, true);
        let l = p.label();
        out.put(
            &format!("rt.path.{l}.share_pct"),
            share(lat.len()),
            "%",
            format!("n={} of {allocs}", lat.len()),
        );
        let [p50, p99] = pctls(&lat, [0.5, 0.99]);
        out.put_pctl(&format!("rt.path.{l}.p50_ns"), p50, 1.0, "ns");
        out.put_pctl(&format!("rt.path.{l}.p99_ns"), p99, 1.0, "ns");
    }
    let unclassified = spans
        .iter()
        .filter(|s| is_alloc(s) && s.path == Path::None)
        .count();
    if unclassified > 0 {
        out.problem(format!(
            "{}: {unclassified} traced allocations moved no path counter",
            w.name()
        ));
    }
    let grew = pick(spans, |s| is_alloc(s) && s.grew, true);
    out.put(
        "rt.path.grow.share_pct",
        share(grew.len()),
        "%",
        format!("n={} of {allocs}", grew.len()),
    );
    let [g50] = pctls(&grew, [0.5]);
    out.put_pctl("rt.path.grow.p50_us", g50, 1e-3, "us");
    let frees = pick(
        spans,
        |s| matches!(s.name, Name::Free | Name::HandoffFree),
        true,
    );
    let [rf50, rf99] = pctls(&frees, [0.5, 0.99]);
    out.put_pctl("rt.free.p50_ns", rf50, 1.0, "ns");
    out.put_pctl("rt.free.p99_ns", rf99, 1.0, "ns");

    // The budget: every span's self time, summed, against the wall time
    // of the traced trial. What is left fell between spans.
    let booked: u64 = selfs.iter().sum();
    let residual = if w.is_service() && wall > 0 {
        100.0 * (wall as f64 - booked as f64) / wall as f64
    } else {
        0.0
    };
    out.put(
        "trace.budget_residual_pct",
        residual,
        "%",
        format!("wall_ns={wall} booked_ns={booked} spans={}", spans.len()),
    );
    if residual.abs() > 10.0 {
        out.problem(format!(
            "{}: traced self times miss the traced query time by {residual} %",
            w.name()
        ));
    }
}

pub fn traced(a: &PassArgs) -> PassOutput {
    let mut out = PassOutput::default();
    let placement = place_load_thread();
    placement_facts(placement, &mut out);
    let ctx = TraceCtx::new();
    let plan = a.plan();
    let m = if a.workload.is_service() {
        // Up to nine spans per query: two roots, and under them three
        // backend calls for the insert (two of them probed), one access,
        // two frees.
        let mut roots = RootTracer::new(Arc::clone(&ctx), 2 * plan.traced);
        let m = measure_service(
            a,
            true,
            &mut || {
                let b = boot_backend(placement);
                (
                    TracedBackend::hermes(b, Arc::clone(&ctx), 7 * plan.traced),
                    None,
                )
            },
            &mut |on| ctx.enable(on),
            &mut roots,
            &mut out,
        );
        roots.finish();
        m
    } else {
        handoff::measure(
            plan,
            a.seed,
            a.trial,
            &mut || boot_heap(placement),
            Some(Arc::clone(&ctx)),
            &mut out,
        )
        .0
    };
    put_common(&m, &mut out);
    out.fact("p50_query_ns", m.p[0].value);
    let spans = ctx.take();
    trace_metrics(a.workload, &spans, &m, &mut out);
    let path = a.results.join(format!("{}.trace.jsonl", a.workload.name()));
    if let Err(e) = write_jsonl(&path, &spans) {
        out.problem(format!("writing {}: {e}", path.display()));
    }
    out.fact("trace_file", path.display());
    out.fact("trace_spans", spans.len());
    out
}

pub fn layers(a: &PassArgs) -> PassOutput {
    let mut out = PassOutput::default();
    let placement = place_load_thread();
    placement_facts(placement, &mut out);
    layers::run(a.workload, a.seed, a.scale, placement, &mut out);
    out
}

pub fn run(pass: Pass, a: &PassArgs) -> PassOutput {
    match pass {
        Pass::E2e => e2e(a),
        Pass::Traced => traced(a),
        Pass::Reference => reference(a),
        Pass::Layers => layers(a),
    }
}

/// What only the merged passes can say: the traced run against the
/// untraced one, and Hermes against the process allocator.
pub fn derive(e2e: &PassOutput, traced: &PassOutput, reference: &PassOutput, out: &mut PassOutput) {
    // On the median query: the means are set by rare stalls that follow
    // the clock, not the number of spans.
    let plain = e2e.get("query_p50_us").map(|us| us * 1e3);
    let with_spans = traced
        .fact_of("p50_query_ns")
        .and_then(|v| v.parse::<f64>().ok());
    let overhead = match (plain, with_spans) {
        (Some(plain), Some(traced)) if plain > 0.0 => 100.0 * (traced - plain) / plain,
        _ => 0.0,
    };
    out.put(
        "trace.overhead_pct",
        overhead,
        "%",
        format!(
            "traced {} ns vs untraced {} ns median query",
            with_spans.unwrap_or(0.0),
            plain.unwrap_or(0.0)
        ),
    );
    let ratio = match (
        e2e.get("query_p999_us"),
        reference.get("ref.system.query_p999_us"),
    ) {
        (Some(h), Some(s)) if s > 0.0 => h / s,
        _ => 0.0,
    };
    out.put(
        "ref.hermes_over_system_p999",
        ratio,
        "ratio",
        "base: the reference pass",
    );
}
