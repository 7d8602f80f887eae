//! Thread placement: with two or more allowed CPUs the load threads pin
//! to the first one and the management thread gets another to itself
//! (the paper's dedicated management thread; SpeedMalloc's dedicated
//! core). With one CPU nothing is pinned, and the run says so.

use crate::surface::platform;

#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub cpus: usize,
    pub pinned: bool,
    pub manager_core: Option<usize>,
}

/// Parses the kernel's list syntax (`0-1`, `0,2-3`).
fn parse_cpu_list(s: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in s.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPUs this process may run on, from `/proc/self/status`.
fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// Pins the calling (load) thread and picks the manager's core. Threads
/// spawned afterwards inherit the caller's CPU.
pub fn place_load_thread() -> Placement {
    let cpus = allowed_cpus();
    let unpinned = Placement {
        cpus: cpus.len().max(1),
        pinned: false,
        manager_core: None,
    };
    if cpus.len() < 2 || !platform().pin_thread_to_cpu(cpus[0]) {
        return unpinned;
    }
    Placement {
        cpus: cpus.len(),
        pinned: true,
        manager_core: Some(cpus[1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), vec![0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }
}
