//! Property tests for the pure policy layer: gradual-reservation
//! arithmetic, threshold monotonicity, the trim threshold's peak window
//! and the reclaim order. (The segregated list's live with it, in
//! `hermes-allocators`.)

use hermes_core::policy::{
    select_victims, FileCacheView, PeakWindow, ReclaimInputs, ReservationPlan, ThresholdTracker,
    TRIM_WINDOW_ROUNDS,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn reservation_plan_partitions_exactly(deficit in 0usize..10_000_000, chunk in 1usize..300_000) {
        let plan = ReservationPlan::new(deficit, chunk);
        let steps: Vec<usize> = plan.collect();
        prop_assert_eq!(steps.iter().sum::<usize>(), deficit);
        prop_assert!(steps.iter().all(|&s| s <= chunk && s > 0));
        if deficit > 0 {
            prop_assert_eq!(steps.len(), deficit.div_ceil(chunk));
        }
    }

    #[test]
    fn thresholds_scale_with_demand(
        reqs in prop::collection::vec(1usize..200_000, 0..200),
        factor in 0.5f64..4.0,
    ) {
        let mut t = ThresholdTracker::new(factor, 5 << 20, 0.5, 2.0, 4096, 1 << 20);
        for &r in &reqs {
            t.on_request(r);
        }
        let th = t.roll_interval();
        let demand: usize = reqs.iter().sum();
        prop_assert!(th.tgt_mem >= (demand as f64 * factor) as usize);
        // The idle floor scales with the factor (min_rsv at 2.0x).
        let floor = ((5usize << 20) as f64 * factor / 2.0) as usize;
        prop_assert!(th.tgt_mem >= floor, "scaled floor respected");
        prop_assert!(th.rsv_thr <= th.tgt_mem);
        prop_assert!(th.trim_thr >= th.tgt_mem);
        prop_assert!(th.mem_chunk >= 4096 && th.mem_chunk <= 1 << 20);
        prop_assert_eq!(th.mem_chunk % 4096, 0);
    }

    #[test]
    fn peak_window_is_the_max_of_the_last_window_of_pushes(
        vals in prop::collection::vec(0usize..1_000, 1..3 * TRIM_WINDOW_ROUNDS),
    ) {
        let mut w = PeakWindow::new();
        for n in 1..=vals.len() {
            let naive = vals[n.saturating_sub(TRIM_WINDOW_ROUNDS)..n]
                .iter()
                .copied()
                .max()
                .unwrap();
            prop_assert_eq!(w.push(vals[n - 1]), naive);
        }
    }

    #[test]
    fn reclaim_picks_only_batch_files_in_descending_order(
        sizes in prop::collection::vec(0usize..4_000_000_000, 1..40),
        batch_mask in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let files: Vec<FileCacheView> = sizes
            .iter()
            .zip(batch_mask.iter().cycle())
            .enumerate()
            .map(|(i, (&cached_bytes, &batch_owned))| FileCacheView {
                file: i as u64,
                cached_bytes,
                batch_owned,
            })
            .collect();
        let cache: usize = files.iter().map(|f| f.cached_bytes).sum();
        let d = select_victims(
            &files,
            ReclaimInputs {
                used_fraction: 0.99,
                total_bytes: 128 << 30,
                file_cache_bytes: cache,
            },
            0.9,
            0.0,
        );
        // Victims are batch-owned, non-empty, and in non-increasing size.
        let mut last = usize::MAX;
        for v in &d.victims {
            let f = files.iter().find(|f| f.file == *v).unwrap();
            prop_assert!(f.batch_owned);
            prop_assert!(f.cached_bytes > 0);
            prop_assert!(f.cached_bytes <= last);
            last = f.cached_bytes;
        }
        // With target 0, every batch-owned cached file is selected.
        let expect = files
            .iter()
            .filter(|f| f.batch_owned && f.cached_bytes > 0)
            .count();
        prop_assert_eq!(d.victims.len(), expect);
    }
}
