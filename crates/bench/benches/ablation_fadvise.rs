//! Ablation: largest-file-first advising order (§3.3) vs smallest-first.
//! Largest-first frees the same memory with far fewer advising calls.

use hermes_bench::{header, Checks};
use hermes_core::policy::{select_victims, FileCacheView, ReclaimInputs, ADV_THR, CACHE_TARGET};
use hermes_sim::report::Table;

fn main() {
    header("Ablation", "largest-file-first fadvise order (§3.3)");
    let mut checks = Checks::new();
    const GB: usize = 1 << 30;
    // A node at 95% usage with a spread of batch files.
    let files: Vec<FileCacheView> = (0..64u64)
        .map(|i| FileCacheView {
            file: i,
            cached_bytes: (i as usize % 16 + 1) * (GB / 4),
            batch_owned: true,
        })
        .collect();
    let cache: usize = files.iter().map(|f| f.cached_bytes).sum();
    let inputs = ReclaimInputs {
        used_fraction: 0.95,
        total_bytes: 128 * GB,
        file_cache_bytes: cache,
    };
    let largest = select_victims(&files, inputs, ADV_THR, CACHE_TARGET);

    // Smallest-first comparison: simulate by reversing the candidate
    // order and greedily taking until reaching the same release target.
    let mut asc: Vec<&FileCacheView> = files.iter().collect();
    asc.sort_by_key(|f| (f.cached_bytes, f.file));
    let mut freed = 0usize;
    let mut calls_smallest = 0usize;
    for f in asc {
        if freed >= largest.projected_release {
            break;
        }
        freed += f.cached_bytes;
        calls_smallest += 1;
    }
    let mut t = Table::new(["order", "advise calls", "released (GB)"]);
    t.row([
        "largest-first",
        &largest.victims.len().to_string(),
        &format!("{:.1}", largest.projected_release as f64 / GB as f64),
    ]);
    t.row([
        "smallest-first",
        &calls_smallest.to_string(),
        &format!("{:.1}", freed as f64 / GB as f64),
    ]);
    print!("{}", t.render());
    checks.check(
        "largest-first needs fewer advising calls",
        "reduces the number of calls (§3.3)",
        &format!("{} vs {}", largest.victims.len(), calls_smallest),
        largest.victims.len() < calls_smallest,
    );
    checks.check(
        "largest-first frees big chunks at once",
        "large chunk available at once",
        &format!(
            "first victim {:.1} GB",
            files[largest.victims[0] as usize].cached_bytes as f64 / GB as f64
        ),
        files
            .iter()
            .find(|f| f.file == largest.victims[0])
            .unwrap()
            .cached_bytes
            >= files.iter().map(|f| f.cached_bytes).max().unwrap(),
    );
    let _ = t.write_csv(hermes_bench::results_dir().join("ablation_fadvise.csv"));
    checks.finish();
}
