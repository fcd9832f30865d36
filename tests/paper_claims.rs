//! The paper's numbered claims, executed as integration tests: each test
//! names the lemma/theorem/corollary it checks and exercises it at a scale
//! unit tests do not.

use mergepath_suite::baselines::naive::{count_order_violations, naive_equal_split_merge};
use mergepath_suite::mergepath::diagonal::co_rank_counted;
use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
use mergepath_suite::mergepath::merge::segmented::{spm_blocks, SpmConfig};
use mergepath_suite::mergepath::partition::{partition_segments, Segment};
use mergepath_suite::mergepath::path::MergePath;
use mergepath_suite::mergepath::telemetry::TimelineRecorder;
use mergepath_suite::pram::kernels::measure_merge;
use mergepath_suite::workloads::{merge_pair, MergeWorkload};

/// Theorem 14: every partition point found in ≤ log2(min(|A|,|B|)) + 1
/// comparisons, on every workload, at 1M-element scale.
#[test]
fn theorem_14_logarithmic_partition() {
    let n = 1 << 20;
    let bound = (n as f64).log2().ceil() as u32 + 1;
    for wl in [
        MergeWorkload::Uniform,
        MergeWorkload::AllAGreater,
        MergeWorkload::DuplicateHeavy,
    ] {
        let (a, b) = merge_pair(wl, n, 14);
        let cmp = |x: &u32, y: &u32| x.cmp(y);
        for frac in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let d = ((2 * n) as f64 * frac) as usize;
            let (_, steps) = co_rank_counted(d, a.as_slice(), b.as_slice(), &cmp);
            assert!(steps <= bound, "{}: {steps} > {bound}", wl.name());
        }
    }
}

/// Corollary 7: equisized segments — perfect balance regardless of data.
#[test]
fn corollary_7_perfect_balance() {
    for wl in MergeWorkload::ALL {
        let (a, b) = merge_pair(wl, 100_000, 7);
        for p in [2usize, 12, 97] {
            let segs = partition_segments(&a, &b, p);
            let max = segs.iter().map(Segment::len).max().unwrap();
            let min = segs.iter().map(Segment::len).min().unwrap();
            assert!(max - min <= 1, "{} p={p}", wl.name());
        }
    }
}

/// §III remark: Algorithm 1 requires no inter-core communication — proven
/// by running it on the CREW simulator with full conflict detection.
#[test]
fn algorithm_1_is_crew_clean_on_all_workloads() {
    for wl in MergeWorkload::ALL {
        let (a32, b32) = merge_pair(wl, 4096, 3);
        let a: Vec<u64> = a32.iter().map(|&x| x as u64).collect();
        let b: Vec<u64> = b32.iter().map(|&x| x as u64).collect();
        for p in [2usize, 5, 12] {
            measure_merge(&a, &b, p, true)
                .unwrap_or_else(|e| panic!("{} p={p}: CREW violation {e}", wl.name()));
        }
    }
}

/// §III complexity: simulated time tracks N/p + O(log N) and work overhead
/// stays O(p log N).
#[test]
fn section_3_complexity_shape() {
    let n = 1 << 16;
    let (a32, b32) = merge_pair(MergeWorkload::Uniform, n, 31);
    let a: Vec<u64> = a32.iter().map(|&x| x as u64).collect();
    let b: Vec<u64> = b32.iter().map(|&x| x as u64).collect();
    let (r1, _) = measure_merge(&a, &b, 1, false).unwrap();
    for p in [2usize, 4, 8, 16] {
        let (rp, _) = measure_merge(&a, &b, p, false).unwrap();
        let ideal = r1.time as f64 / p as f64;
        // Within the O(log N) additive overhead of ideal.
        let logn = (2.0 * n as f64).log2();
        assert!(
            (rp.time as f64) <= ideal + 10.0 * logn,
            "p={p}: {} vs ideal {ideal}",
            rp.time
        );
        // Work overhead O(p log N).
        let overhead = rp.work as f64 - r1.work as f64;
        assert!(
            overhead <= 8.0 * p as f64 * logn,
            "p={p} overhead {overhead}"
        );
    }
}

/// Lemma 8: the d-th point of the path lies on cross diagonal d — checked
/// against the explicitly constructed path on a nontrivial instance.
#[test]
fn lemma_8_diagonal_membership() {
    let (a, b) = merge_pair(MergeWorkload::SkewedRanges, 2000, 8);
    let path = MergePath::construct(&a, &b);
    for (d, &(i, j)) in path.points().iter().enumerate() {
        assert_eq!(i + j, d);
    }
}

/// Lemma 15 / Theorem 16: every SPM block of length L consumes at most L
/// elements of each input, and L of each always suffice.
#[test]
fn lemma_15_block_feasibility() {
    for wl in MergeWorkload::ALL {
        let (a, b) = merge_pair(wl, 10_000, 15);
        let cfg = SpmConfig::new(300, 4);
        let l = cfg.segment_len();
        for blk in spm_blocks(&a, &b, &cfg, &|x, y| x.cmp(y)) {
            assert!(blk.a_consumed <= l && blk.b_consumed <= l, "{}", wl.name());
            assert!(blk.len() <= l);
        }
    }
}

/// §I: the naive equal-split merge is incorrect on the paper's adversarial
/// input — and Merge Path is not.
#[test]
fn naive_counterexample_vs_merge_path() {
    let (a, b) = merge_pair(MergeWorkload::AllAGreater, 10_000, 4);
    let naive = naive_equal_split_merge(&a, &b, 8);
    assert!(count_order_violations(&naive) > 0);

    let mut out = vec![0u32; 20_000];
    let rec = TimelineRecorder::new();
    parallel_merge_into_by(&a, &b, &mut out, 8, &|x: &u32, y: &u32| x.cmp(y), &rec);
    assert!(out.windows(2).all(|w| w[0] <= w[1]));
    // Corollary 7: the heaviest worker merges no more than the mean.
    let items: Vec<u64> = rec.finish().worker_items.iter().map(|w| w.items).collect();
    assert_eq!(items.len(), 8);
    let mean = items.iter().sum::<u64>() as f64 / items.len() as f64;
    let imbalance = *items.iter().max().unwrap() as f64 / mean;
    assert!(imbalance <= 1.0 + 1e-9, "per-worker items {items:?}");
}

/// §VI configuration sanity: the paper's memory formula 4·|A|·|type| —
/// the output is twice the input, all three arrays allocated.
#[test]
fn section_6_memory_footprint_formula() {
    let n = 1 << 12;
    let (a, b) = merge_pair(MergeWorkload::Uniform, n, 66);
    let out = vec![0u32; a.len() + b.len()];
    let bytes = core::mem::size_of_val(&a[..])
        + core::mem::size_of_val(&b[..])
        + core::mem::size_of_val(&out[..]);
    assert_eq!(bytes, 4 * n * core::mem::size_of::<u32>());
}
