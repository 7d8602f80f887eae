//! Proactive-reclamation policy of the memory monitor daemon (§3.3).
//!
//! When node memory usage exceeds `adv_thr`, the daemon advises the kernel
//! to release file-cache pages *owned by batch jobs* in **largest-file-first**
//! order, until the file-cache share drops below the target or no batch
//! file cache remains. Largest-first frees big contiguous amounts with the
//! fewest advising calls.

/// The daemon's trigger (`adv_thr`): advise reclaim when node memory
/// usage exceeds this fraction.
pub const ADV_THR: f64 = 0.90;

/// The daemon's target: release batch file cache until it is below this
/// fraction of total memory.
pub const CACHE_TARGET: f64 = 0.03;

/// The daemon's view of one open file (from its `lsof`-style scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCacheView {
    /// Opaque file identity (e.g. `hermes_os::types::FileId.0`).
    pub file: u64,
    /// Bytes of this file currently in the page cache.
    pub cached_bytes: usize,
    /// `true` when the owning process is a registered batch job.
    pub batch_owned: bool,
}

/// Inputs to one policy decision.
#[derive(Debug, Clone, Copy)]
pub struct ReclaimInputs {
    /// Node memory usage as a fraction of total (used / total).
    pub used_fraction: f64,
    /// Total physical memory in bytes.
    pub total_bytes: usize,
    /// Bytes of file cache currently resident (all owners).
    pub file_cache_bytes: usize,
}

/// Decision produced by [`select_victims`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReclaimDecision {
    /// File ids to `fadvise(DONTNEED)`, in issue order.
    pub victims: Vec<u64>,
    /// Bytes projected to be released.
    pub projected_release: usize,
}

impl ReclaimDecision {
    /// An empty decision (nothing to do).
    pub fn none() -> Self {
        ReclaimDecision {
            victims: Vec::new(),
            projected_release: 0,
        }
    }
}

/// Picks the files to advise away, largest first.
///
/// * `adv_thr` — usage fraction that triggers reclamation.
/// * `cache_target` — stop once projected file cache is below this
///   fraction of total memory.
pub fn select_victims(
    files: &[FileCacheView],
    inputs: ReclaimInputs,
    adv_thr: f64,
    cache_target: f64,
) -> ReclaimDecision {
    if inputs.used_fraction <= adv_thr {
        return ReclaimDecision::none();
    }
    let target_bytes = (inputs.total_bytes as f64 * cache_target) as usize;
    if inputs.file_cache_bytes <= target_bytes {
        return ReclaimDecision::none();
    }
    let mut candidates: Vec<&FileCacheView> = files
        .iter()
        .filter(|f| f.batch_owned && f.cached_bytes > 0)
        .collect();
    // Largest-file-first; ties broken by id for determinism.
    candidates.sort_by_key(|f| (std::cmp::Reverse(f.cached_bytes), f.file));
    let mut remaining = inputs.file_cache_bytes;
    let mut decision = ReclaimDecision::none();
    for f in candidates {
        if remaining <= target_bytes {
            break;
        }
        decision.victims.push(f.file);
        decision.projected_release += f.cached_bytes;
        remaining = remaining.saturating_sub(f.cached_bytes);
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;
    const GB: usize = 1 << 30;

    fn inputs(used: f64, cache_bytes: usize) -> ReclaimInputs {
        ReclaimInputs {
            used_fraction: used,
            total_bytes: 128 * GB,
            file_cache_bytes: cache_bytes,
        }
    }

    fn files() -> Vec<FileCacheView> {
        vec![
            FileCacheView {
                file: 1,
                cached_bytes: 4 * GB,
                batch_owned: true,
            },
            FileCacheView {
                file: 2,
                cached_bytes: 10 * GB,
                batch_owned: true,
            },
            FileCacheView {
                file: 3,
                cached_bytes: 6 * GB,
                batch_owned: true,
            },
            FileCacheView {
                file: 4,
                cached_bytes: 20 * GB,
                batch_owned: false,
            }, // LC-owned
            FileCacheView {
                file: 5,
                cached_bytes: 0,
                batch_owned: true,
            }, // nothing cached
        ]
    }

    #[test]
    fn daemon_thresholds_match_paper() {
        assert_eq!(ADV_THR, 0.90);
        assert_eq!(CACHE_TARGET, 0.03);
    }

    #[test]
    fn below_threshold_does_nothing() {
        let d = select_victims(&files(), inputs(0.5, 40 * GB), 0.9, 0.1);
        assert_eq!(d, ReclaimDecision::none());
    }

    #[test]
    fn largest_batch_file_first() {
        let d = select_victims(&files(), inputs(0.95, 40 * GB), 0.9, 0.1);
        assert_eq!(d.victims, vec![2, 3, 1], "largest-first order");
        assert_eq!(d.projected_release, 20 * GB);
    }

    #[test]
    fn stops_at_cache_target() {
        // Target = 12.8 GB. Cache 40 GB; releasing file 2 (10 GB) leaves
        // 30 GB, file 3 (6 GB) leaves 24 GB, file 1 leaves 20 GB — still
        // above target, but no batch cache remains, so all three go.
        let d = select_victims(&files(), inputs(0.95, 40 * GB), 0.9, 0.1);
        assert_eq!(d.victims.len(), 3);

        // With a big target only the largest file is needed.
        let d = select_victims(&files(), inputs(0.95, 40 * GB), 0.9, 0.25);
        assert_eq!(d.victims, vec![2]);
    }

    #[test]
    fn never_touches_lc_files() {
        let d = select_victims(&files(), inputs(0.99, 100 * GB), 0.9, 0.0);
        assert!(!d.victims.contains(&4), "LC-owned file must survive");
    }

    #[test]
    fn skips_files_with_nothing_cached() {
        let d = select_victims(&files(), inputs(0.99, 40 * GB), 0.9, 0.0);
        assert!(!d.victims.contains(&5));
    }

    #[test]
    fn cache_already_below_target_does_nothing() {
        let d = select_victims(&files(), inputs(0.95, 5 * MB), 0.9, 0.1);
        assert_eq!(d, ReclaimDecision::none());
    }

    #[test]
    fn deterministic_tie_break() {
        let fs = vec![
            FileCacheView {
                file: 9,
                cached_bytes: GB,
                batch_owned: true,
            },
            FileCacheView {
                file: 3,
                cached_bytes: GB,
                batch_owned: true,
            },
        ];
        let d = select_victims(&fs, inputs(0.95, 2 * GB), 0.9, 0.0);
        assert_eq!(d.victims, vec![3, 9], "ties broken by id");
    }
}
