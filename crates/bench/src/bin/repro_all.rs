//! Runs every figure/table harness in sequence (same as `cargo bench
//! --workspace`, but as one binary for convenience). Positional
//! arguments select a subset — `repro_all fig02 contention` — which is
//! how CI's `bench-smoke` job runs a quick slice of the trajectory on
//! every PR.

use hermes_core::config::default_arena_count;
use std::process::Command;

const BENCHES: [&str; 20] = [
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
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    for a in &names {
        if !BENCHES.contains(&a.as_str()) {
            eprintln!("repro_all: unknown bench {a:?}; known: {BENCHES:?}");
            std::process::exit(2);
        }
    }
    let selected: Vec<&str> = if names.is_empty() {
        BENCHES.to_vec()
    } else {
        names.iter().map(String::as_str).collect()
    };
    println!(
        "repro_all: arenas={} (HERMES_ARENAS={}), benches={}/{}",
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
