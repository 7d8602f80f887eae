//! Runs every figure/table harness in sequence (same as `cargo bench
//! --workspace`, but as one binary for convenience). Positional
//! arguments select a subset — `repro_all fig02 contention` — which is
//! how CI's `bench-smoke` job runs a quick slice of the trajectory on
//! every PR.
//!
//! `--backend {sim,real}` selects the allocation-backend axis: `sim`
//! (the default) drives the simulated allocator models in virtual time;
//! `real` exports `HERMES_BACKEND=real` to the harnesses, so the
//! backend-aware benches run the actual Hermes runtime and the system
//! allocator on wall-clock time. With `--backend real` and no explicit
//! subset, only the real-capable benches run.

use hermes_core::config::default_arena_count;
use std::process::Command;

const BENCHES: [&str; 21] = [
    "fig02",
    "fig03",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table1",
    "overhead",
    "claims",
    "ablation_gradual",
    "ablation_reclaim",
    "ablation_fadvise",
    "ablation_shrink",
    "contention",
    "service_backend",
];

/// Benches that exercise real memory and honour `HERMES_BACKEND=real`.
const REAL_BENCHES: [&str; 2] = ["service_backend", "contention"];

fn usage_exit() -> ! {
    eprintln!("usage: repro_all [--backend sim|real] [bench...]\nknown benches: {BENCHES:?}");
    std::process::exit(2);
}

fn main() {
    let mut backend = "sim".to_string();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--backend" {
            match args.next() {
                Some(v) if v == "sim" || v == "real" => backend = v,
                _ => usage_exit(),
            }
        } else if let Some(v) = a.strip_prefix("--backend=") {
            if v != "sim" && v != "real" {
                usage_exit();
            }
            backend = v.to_string();
        } else {
            names.push(a);
        }
    }
    for a in &names {
        if !BENCHES.contains(&a.as_str()) {
            eprintln!("repro_all: unknown bench {a:?}; known: {BENCHES:?}");
            std::process::exit(2);
        }
    }
    let selected: Vec<&str> = if !names.is_empty() {
        names.iter().map(String::as_str).collect()
    } else if backend == "real" {
        REAL_BENCHES.to_vec()
    } else {
        BENCHES.to_vec()
    };
    println!(
        "repro_all: backend={backend} (HERMES_BACKEND={}), arenas={} (HERMES_ARENAS={}), benches={}/{}",
        std::env::var("HERMES_BACKEND").unwrap_or_else(|_| "unset".into()),
        default_arena_count(),
        std::env::var("HERMES_ARENAS").unwrap_or_else(|_| "unset".into()),
        selected.len(),
        BENCHES.len(),
    );
    let mut failures = 0;
    for b in selected {
        eprintln!(">>> running {b}");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["bench", "-p", "hermes-bench", "--bench", b])
            .env("HERMES_BACKEND", &backend)
            .status()
            .expect("spawn cargo bench");
        if !status.success() {
            failures += 1;
            eprintln!("!!! {b} failed");
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
