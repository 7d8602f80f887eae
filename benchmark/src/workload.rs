//! The four workloads and their seed-derived op streams.
//!
//! `--seed` drives every value size here and, through the service's own
//! constructor seed, every delete victim. The program under test sees
//! only the generated ops. All work is a fixed count derived from
//! `--seconds` (never a time-bounded loop: that would let the live set
//! follow the speed of the code under test).

/// SplitMix64: tiny, seedable, and good enough for size draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed; distinct `stream`
    /// tags give independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Log-uniform in `[lo, hi]`: every octave is equally likely.
    pub fn log_uniform(&mut self, lo: u32, hi: u32) -> u32 {
        let v = lo as f64 * (hi as f64 / lo as f64).powf(self.unit());
        (v as u32).clamp(lo, hi)
    }
}

const KIB: u32 = 1024;

/// Which part of which trial a stream feeds; part of the stream's
/// identity, so every trial draws its own fill, warm-up and measured
/// sizes: a trial is an independent sample of the seed, and the median
/// over the trials does not hang on one fill's heap layout.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Fill(u32),
    Warmup(u32),
    Measured(u32),
    Layers,
}

impl Phase {
    fn tag(self) -> u64 {
        match self {
            Phase::Layers => 1,
            Phase::Fill(t) => 16 + 4 * t as u64,
            Phase::Warmup(t) => 17 + 4 * t as u64,
            Phase::Measured(t) => 18 + 4 * t as u64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvSmall,
    KvLarge,
    LsmFlush,
    Handoff,
}

/// Fixed work of one workload at the reference `--seconds 10`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Records inserted before anything is timed as a query.
    pub fill: usize,
    /// Untimed steady-state queries after the fill.
    pub warmup: usize,
    /// Queries per measured trial.
    pub trial: usize,
    /// Queries in the single traced trial (a prefix of trial 0's).
    pub traced: usize,
    /// Whether each query is followed by `delete_one()`.
    pub deletes: bool,
}

/// Blocks per `handoff` round.
pub const HANDOFF_BATCH: usize = 1024;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvSmall,
        Workload::KvLarge,
        Workload::LsmFlush,
        Workload::Handoff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvSmall => "kv_small",
            Workload::KvLarge => "kv_large",
            Workload::LsmFlush => "lsm_flush",
            Workload::Handoff => "handoff",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The one-line reason the workload exists (copied into
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::KvSmall => "Redis-like store, ~135 MB live, 128 B-32 KiB values with random-victim deletes: thread cache and heap bins do the work; large pool, remote frees and arena growth do none",
            Workload::KvLarge => "Same store with 200 KiB-1 MiB values: every query takes the large pool, Algorithm 2 reservation and delayed shrink; bypasses the small path",
            Workload::LsmFlush => "RocksDB-like memtable: nothing freed singly, 72 B nodes stream off the heap top, a 256 KiB block per ~190 queries, a burst free of a whole memtable at each flush",
            Workload::Handoff => "Two threads in strict alternation, one allocates 1024 blocks and the other frees them: every small free is cross-shard, so remote staging, inbox and drains carry the run",
        }
    }

    pub fn is_service(self) -> bool {
        self != Workload::Handoff
    }

    fn index(self) -> u64 {
        Workload::ALL.iter().position(|w| *w == self).unwrap() as u64
    }

    /// Fixed work at `--seconds 10`, sized on the reference host so that
    /// the eight trials of the three long workloads measure for ten to
    /// fourteen seconds in all. `handoff` counts blocks (a multiple of
    /// [`HANDOFF_BATCH`]); the rest count queries.
    pub fn plan(self) -> Plan {
        match self {
            Workload::KvSmall => Plan {
                fill: 100_000,
                warmup: 200_000,
                trial: 600_000,
                traced: 100_000,
                deletes: true,
            },
            // Short on purpose: at the default capacities the large
            // path's 2 GiB of address space is used up after some 40 000
            // to 57 000 of these queries (trimmed extents are decommitted
            // but never coalesced, and the trimming follows the clock),
            // and no measured operation may fail. A heap serves 14 300,
            // which leaves two thirds of the space unused.
            Workload::KvLarge => Plan {
                fill: 300,
                warmup: 2_000,
                trial: 12_000,
                traced: 12_000,
                deletes: true,
            },
            Workload::LsmFlush => Plan {
                fill: 0,
                warmup: 150_000,
                trial: 300_000,
                traced: 150_000,
                deletes: false,
            },
            Workload::Handoff => Plan {
                fill: 0,
                warmup: 512 * HANDOFF_BATCH,
                trial: 4096 * HANDOFF_BATCH,
                traced: 128 * HANDOFF_BATCH,
                deletes: false,
            },
        }
    }

    /// [`Workload::plan`] scaled to `scale = seconds / 10`. The fill and
    /// warm-up define the steady live set and never scale; trial sizes
    /// keep at least `min_trial` queries so p99.9 keeps its ten samples
    /// beyond, and `kv_large` never grows past what one heap can serve.
    pub fn scaled_plan(self, scale: f64, min_trial: usize) -> Plan {
        let p = self.plan();
        let (unit, cap) = match self {
            Workload::Handoff => (HANDOFF_BATCH, usize::MAX),
            Workload::KvLarge => (1, p.trial),
            _ => (1, usize::MAX),
        };
        let sz = |n: usize| {
            let n = ((n as f64 * scale) as usize).max(min_trial).min(cap);
            n.div_ceil(unit) * unit
        };
        Plan {
            trial: sz(p.trial),
            traced: sz(p.traced),
            ..p
        }
    }

    /// One value size of this workload's distribution.
    pub fn value_size(self, rng: &mut Rng) -> u32 {
        match self {
            // 95 % thread-cache classes around the paper's 1 KB record,
            // 5 % heap path without a cache class, all below the mmap
            // threshold.
            Workload::KvSmall => {
                if rng.below(20) == 0 {
                    rng.log_uniform(4 * KIB, 32 * KIB)
                } else {
                    rng.log_uniform(128, 2 * KIB)
                }
            }
            // 70 % the paper's 200 KB large record, 30 % spread over the
            // segregated list's size range.
            Workload::KvLarge => {
                if rng.below(10) < 7 {
                    200 * KIB
                } else {
                    rng.log_uniform(128 * KIB, 1024 * KIB)
                }
            }
            Workload::LsmFlush => rng.log_uniform(256, 4 * KIB),
            Workload::Handoff => {
                if rng.below(512) == 0 {
                    256 * KIB
                } else {
                    Workload::KvSmall.value_size(rng)
                }
            }
        }
    }

    /// The `n` sizes of one phase: the same `(seed, phase)` always gives
    /// the same stream.
    pub fn stream(self, seed: u64, phase: Phase, n: usize) -> Vec<u32> {
        let mut rng = Rng::new(seed, self.index() << 32 | phase.tag());
        (0..n).map(|_| self.value_size(&mut rng)).collect()
    }
}

/// The seed a trial's service is built with (it picks the delete
/// victims); no workload has index 7, so the stream is its own.
pub fn service_seed(seed: u64, trial: u32) -> u64 {
    Rng::new(seed, 7 << 32 | trial as u64).next_u64()
}

/// FNV-1a over a size stream, for the determinism check and the run
/// record.
pub fn stream_hash(sizes: &[u32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for s in sizes {
        for b in s.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let a = w.stream(7, Phase::Measured(0), 10_000);
            let b = w.stream(7, Phase::Measured(0), 10_000);
            assert_eq!(stream_hash(&a), stream_hash(&b), "{}", w.name());
            assert_eq!(a, b);
            let c = w.stream(8, Phase::Measured(0), 10_000);
            assert_ne!(stream_hash(&a), stream_hash(&c), "{}", w.name());
            let d = w.stream(7, Phase::Measured(1), 10_000);
            assert_ne!(stream_hash(&a), stream_hash(&d), "trials differ");
            let e = w.stream(7, Phase::Warmup(0), 10_000);
            assert_ne!(stream_hash(&a), stream_hash(&e), "phases differ");
            assert_eq!(a[..100], w.stream(7, Phase::Measured(0), 100)[..], "prefix");
        }
    }

    #[test]
    fn sizes_stay_in_their_classes() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..50_000 {
            let s = Workload::KvSmall.value_size(&mut rng);
            assert!((128..=32 * KIB).contains(&s));
            assert!(!(2 * KIB + 1..4 * KIB).contains(&s), "gap between bands");
            let l = Workload::KvLarge.value_size(&mut rng);
            assert!((128 * KIB..=1024 * KIB).contains(&l));
            let m = Workload::LsmFlush.value_size(&mut rng);
            assert!((256..=4 * KIB).contains(&m));
        }
    }

    #[test]
    fn scaling_keeps_the_floor_and_the_batch_multiple() {
        let p = Workload::Handoff.scaled_plan(0.001, 11_000);
        assert_eq!(p.trial % HANDOFF_BATCH, 0);
        assert!(p.trial >= 11_000);
        let q = Workload::KvSmall.scaled_plan(2.0, 11_000);
        assert_eq!(q.trial, 1_200_000);
        let l = Workload::KvLarge.scaled_plan(6.0, 11_000);
        assert_eq!(l.trial, Workload::KvLarge.plan().trial, "capped");
        assert_eq!(q.fill, Workload::KvSmall.plan().fill, "live set fixed");
    }
}
