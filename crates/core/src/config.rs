//! Hermes configuration knobs (paper §4 defaults).

use std::sync::Once;
use std::time::Duration;

/// Smallest request size served by the mmap path (Glibc's
/// `M_MMAP_THRESHOLD`, 128 KB by default).
pub const DEFAULT_MMAP_THRESHOLD: usize = 128 * 1024;

/// Upper bound on the default arena count (ptmalloc caps its arena
/// multiplier similarly; more shards than cores only fragments reserve).
pub const MAX_DEFAULT_ARENAS: usize = 8;

/// Default global main-heap capacity (256 MiB), overridable with
/// `HERMES_HEAP_MB`. With mapped arenas this is the *initially exposed*
/// size; the reservation behind it is larger and grows on demand.
pub const DEFAULT_HEAP_CAPACITY: usize = 256 << 20;

/// Default global large-pool capacity (512 MiB), overridable with
/// `HERMES_LARGE_MB`. Initially exposed size, as above.
pub const DEFAULT_LARGE_CAPACITY: usize = 512 << 20;

/// Bounds accepted from the `HERMES_HEAP_MB`/`HERMES_LARGE_MB` knobs, in
/// MiB: below 8 MiB a sharded runtime cannot carve useful slices; above
/// 1 TiB is assumed to be a typo rather than a provisioning decision.
pub const MIN_CAPACITY_MB: usize = 8;
/// Upper clamp for the capacity knobs, in MiB.
pub const MAX_CAPACITY_MB: usize = 1 << 20;

/// Hard cap on the arena count accepted from `HERMES_ARENAS`. Splitting a
/// backing across more shards than this leaves each shard too small to
/// serve a useful request mix (the global allocator additionally bounds
/// the count by its per-shard slice floor, see `rt::global`).
pub const MAX_ARENAS: usize = 64;

/// Parses a `HERMES_ARENAS` override, clamping to `1..=MAX_ARENAS`.
/// `None` for unparsable input (empty string, garbage, negative).
fn parse_arena_count(raw: &str) -> Option<usize> {
    raw.trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.clamp(1, MAX_ARENAS))
}

/// Parses a capacity override in MiB (`HERMES_HEAP_MB`, `HERMES_LARGE_MB`),
/// clamping to `MIN_CAPACITY_MB..=MAX_CAPACITY_MB` and returning bytes.
/// `None` for unparsable input (empty string, garbage, negative, zero).
fn parse_capacity_mb(raw: &str) -> Option<usize> {
    raw.trim()
        .parse::<usize>()
        .ok()
        .filter(|&mb| mb > 0)
        .map(|mb| mb.clamp(MIN_CAPACITY_MB, MAX_CAPACITY_MB) << 20)
}

/// Warns exactly once per knob about an unparsable environment override.
/// Silently swallowing the value would leave a mistyped deployment knob
/// (`HERMES_ARENAS=eight`) undetectable in production logs.
fn warn_invalid(once: &'static Once, var: &str, value: &str, fallback: &str) {
    once.call_once(|| {
        eprintln!("hermes: ignoring invalid {var}={value:?}; using {fallback}");
    });
}

/// Default number of runtime arenas: `min(ncpus, 8)`, overridable with the
/// `HERMES_ARENAS` environment variable (values are clamped to
/// `1..=MAX_ARENAS`; unparsable values warn once on stderr and fall back
/// to the cpu-derived default).
pub fn default_arena_count() -> usize {
    static WARN: Once = Once::new();
    if let Ok(v) = std::env::var("HERMES_ARENAS") {
        match parse_arena_count(&v) {
            Some(n) => return n,
            None => warn_invalid(&WARN, "HERMES_ARENAS", &v, "the cpu-derived default"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_DEFAULT_ARENAS)
}

/// Default management-thread CPU pin: none, unless `HERMES_MANAGER_CORE`
/// names a core index. Unparsable values warn once on stderr and leave
/// the manager unpinned.
pub fn default_manager_core() -> Option<usize> {
    static WARN: Once = Once::new();
    if let Ok(v) = std::env::var("HERMES_MANAGER_CORE") {
        match v.trim().parse::<usize>() {
            Ok(core) => return Some(core),
            Err(_) => warn_invalid(&WARN, "HERMES_MANAGER_CORE", &v, "no pinning"),
        }
    }
    None
}

/// Default main-heap capacity in bytes: `DEFAULT_HEAP_CAPACITY`,
/// overridable with `HERMES_HEAP_MB` (MiB; clamped to
/// `MIN_CAPACITY_MB..=MAX_CAPACITY_MB`, unparsable values warn once on
/// stderr and fall back to the default).
pub fn default_heap_capacity() -> usize {
    static WARN: Once = Once::new();
    if let Ok(v) = std::env::var("HERMES_HEAP_MB") {
        match parse_capacity_mb(&v) {
            Some(bytes) => return bytes,
            None => warn_invalid(&WARN, "HERMES_HEAP_MB", &v, "256 MiB"),
        }
    }
    DEFAULT_HEAP_CAPACITY
}

/// Default large-pool capacity in bytes: `DEFAULT_LARGE_CAPACITY`,
/// overridable with `HERMES_LARGE_MB` (same convention as
/// [`default_heap_capacity`]).
pub fn default_large_capacity() -> usize {
    static WARN: Once = Once::new();
    if let Ok(v) = std::env::var("HERMES_LARGE_MB") {
        match parse_capacity_mb(&v) {
            Some(bytes) => return bytes,
            None => warn_invalid(&WARN, "HERMES_LARGE_MB", &v, "512 MiB"),
        }
    }
    DEFAULT_LARGE_CAPACITY
}

/// Tuning knobs of the Hermes mechanism.
///
/// The defaults reproduce the paper's implementation choices:
/// a 2 ms management-thread interval, reservation factor 2, a 5 MB
/// reservation floor and an 8-bucket segregated free list (1 MB / 128 KB).
#[derive(Debug, Clone)]
pub struct HermesConfig {
    /// Wake-up interval `f` of the memory management thread.
    pub interval: Duration,
    /// Reservation factor `RSV_FACTOR`: the reservation target is the
    /// last interval's requested bytes multiplied by this factor.
    pub rsv_factor: f64,
    /// Minimum reservation `min_rsv` kept even across idle intervals, so a
    /// burst after a quiet period is served quickly.
    pub min_rsv: usize,
    /// Boundary between the heap (brk) path and the mmap path.
    pub mmap_threshold: usize,
    /// Number of buckets in the segregated free list (`table_size`).
    /// Read by the simulated allocator only: the runtime's large path
    /// keeps one free map with no size-class table (DESIGN.md §2).
    pub table_size: usize,
    /// `RSV_THR` as a fraction of `TGT_MEM`: reserve more when the free
    /// reserve drops below this fraction of the target.
    pub rsv_trigger_ratio: f64,
    /// `TRIM_THR` as a multiple of `TGT_MEM`: release reserve above it —
    /// against the peak target of the last
    /// [`TRIM_WINDOW_ROUNDS`](crate::policy::TRIM_WINDOW_ROUNDS) rounds on
    /// the large path.
    pub trim_ratio: f64,
    /// Enable the monitor daemon's proactive file-cache reclamation. Read
    /// by the simulated allocator only.
    pub proactive_reclaim: bool,
    /// Daemon trigger: advise reclaim when node memory usage exceeds this
    /// fraction (`adv_thr`). Read by the simulated allocator only.
    pub adv_thr: f64,
    /// Daemon target: release batch file cache until it is below this
    /// fraction of total memory. Read by the simulated allocator only.
    pub cache_target: f64,
    /// Gradual reservation (§3.2.1). `false` reverts to the naive
    /// one-shot expansion of Figure 6(a); ablation knob, read by the
    /// simulated allocator only (the runtime always reserves gradually).
    pub gradual_reservation: bool,
    /// Delayed shrink of over-sized mmap hand-outs (§3.2.2). `false`
    /// shrinks synchronously on the allocation path; ablation knob, read
    /// by the simulated allocator only.
    pub delayed_shrink: bool,
    /// Pin the management thread to this CPU (SpeedMalloc's dedicated
    /// management-core model); `None` leaves scheduling to the kernel.
    /// Default from `HERMES_MANAGER_CORE` (unset = unpinned).
    pub manager_core: Option<usize>,
}

impl Default for HermesConfig {
    fn default() -> Self {
        HermesConfig {
            interval: Duration::from_millis(2),
            rsv_factor: 2.0,
            min_rsv: 5 * 1024 * 1024,
            mmap_threshold: DEFAULT_MMAP_THRESHOLD,
            table_size: 8,
            rsv_trigger_ratio: 0.5,
            trim_ratio: 2.0,
            proactive_reclaim: true,
            adv_thr: 0.90,
            cache_target: 0.03,
            gradual_reservation: true,
            delayed_shrink: true,
            manager_core: default_manager_core(),
        }
    }
}

impl HermesConfig {
    /// Returns a copy with a different reservation factor (the parameter
    /// swept in Figures 15 and 16).
    pub fn with_rsv_factor(mut self, factor: f64) -> Self {
        self.rsv_factor = factor;
        self
    }

    /// Returns a copy with proactive reclamation disabled ("Hermes w/o
    /// rec" in Figures 7c and 8c).
    pub fn without_proactive_reclaim(mut self) -> Self {
        self.proactive_reclaim = false;
        self
    }

    /// Returns a copy with the management thread pinned to `core` (or
    /// unpinned with `None`), ignoring `HERMES_MANAGER_CORE`.
    pub fn with_manager_core(mut self, core: Option<usize>) -> Self {
        self.manager_core = core;
        self
    }

    /// Validates invariant relationships between the knobs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.rsv_factor < 0.0 {
            return Err("rsv_factor must be non-negative".into());
        }
        if self.table_size == 0 {
            return Err("table_size must be at least 1".into());
        }
        if self.mmap_threshold == 0 {
            return Err("mmap_threshold must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.rsv_trigger_ratio) {
            return Err("rsv_trigger_ratio must be within [0, 1]".into());
        }
        if self.trim_ratio < 1.0 {
            return Err("trim_ratio must be >= 1 or reserves thrash".into());
        }
        if !(0.0..=1.0).contains(&self.adv_thr) || !(0.0..=1.0).contains(&self.cache_target) {
            return Err("adv_thr and cache_target are fractions in [0, 1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HermesConfig::default();
        assert_eq!(c.interval, Duration::from_millis(2));
        assert_eq!(c.rsv_factor, 2.0);
        assert_eq!(c.min_rsv, 5 * 1024 * 1024);
        assert_eq!(c.mmap_threshold, 128 * 1024);
        assert_eq!(c.table_size, 8); // 1 MB / 128 KB
        assert!(c.proactive_reclaim);
        assert!(c.gradual_reservation);
        assert!(c.delayed_shrink);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn arena_count_parsing_rejects_garbage() {
        // Unparsable overrides must be *detected* (and warned about at the
        // env-read site), never silently treated as a number.
        assert_eq!(parse_arena_count(""), None);
        assert_eq!(parse_arena_count("   "), None);
        assert_eq!(parse_arena_count("eight"), None);
        assert_eq!(parse_arena_count("4x"), None);
        assert_eq!(parse_arena_count("-2"), None);
        // Valid values parse, trim, and clamp to 1..=MAX_ARENAS.
        assert_eq!(parse_arena_count("4"), Some(4));
        assert_eq!(parse_arena_count(" 12 "), Some(12));
        assert_eq!(parse_arena_count("0"), Some(1));
        assert_eq!(parse_arena_count("9999"), Some(MAX_ARENAS));
    }

    #[test]
    fn capacity_parsing_rejects_garbage_and_clamps() {
        assert_eq!(parse_capacity_mb(""), None);
        assert_eq!(parse_capacity_mb("   "), None);
        assert_eq!(parse_capacity_mb("big"), None);
        assert_eq!(parse_capacity_mb("256MB"), None);
        assert_eq!(parse_capacity_mb("-128"), None);
        assert_eq!(parse_capacity_mb("0"), None);
        // Valid values parse, trim, clamp, and convert MiB to bytes.
        assert_eq!(parse_capacity_mb("256"), Some(256 << 20));
        assert_eq!(parse_capacity_mb(" 384 "), Some(384 << 20));
        assert_eq!(parse_capacity_mb("1"), Some(MIN_CAPACITY_MB << 20));
        assert_eq!(parse_capacity_mb("99999999"), Some(MAX_CAPACITY_MB << 20));
    }

    #[test]
    fn capacity_defaults_without_env() {
        // The suite does not set the knobs, so the defaults apply. (The
        // env-reading paths share parse_capacity_mb/warn_invalid with the
        // tested HERMES_ARENAS convention.)
        if std::env::var("HERMES_HEAP_MB").is_err() {
            assert_eq!(default_heap_capacity(), DEFAULT_HEAP_CAPACITY);
        }
        if std::env::var("HERMES_LARGE_MB").is_err() {
            assert_eq!(default_large_capacity(), DEFAULT_LARGE_CAPACITY);
        }
        if std::env::var("HERMES_MANAGER_CORE").is_err() {
            assert_eq!(default_manager_core(), None);
        }
    }

    #[test]
    fn invalid_override_warning_fires_once() {
        static ONCE: Once = Once::new();
        assert!(!ONCE.is_completed());
        warn_invalid(&ONCE, "HERMES_TEST_KNOB", "junk", "the default");
        assert!(ONCE.is_completed());
        // A second invalid value does not warn again (gate is sticky).
        warn_invalid(&ONCE, "HERMES_TEST_KNOB", "junk2", "the default");
        assert!(ONCE.is_completed());
    }

    #[test]
    fn builders_adjust_single_knobs() {
        let c = HermesConfig::default().with_rsv_factor(0.5);
        assert_eq!(c.rsv_factor, 0.5);
        let c = HermesConfig::default().without_proactive_reclaim();
        assert!(!c.proactive_reclaim);
        let c = HermesConfig::default().with_manager_core(Some(3));
        assert_eq!(c.manager_core, Some(3));
        let c = HermesConfig::default().with_manager_core(None);
        assert_eq!(c.manager_core, None);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = HermesConfig {
            rsv_factor: -1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = HermesConfig {
            table_size: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = HermesConfig {
            trim_ratio: 0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = HermesConfig {
            adv_thr: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
