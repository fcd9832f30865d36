//! Cross-crate integration: every merge implementation in the workspace —
//! core kernels, Algorithm 1 on the global pool, the segmented variants,
//! the PRAM port, and the correct baselines — produces the identical
//! stable merge on every workload family.

use mergepath_suite::baselines::akl_santoro::akl_santoro_merge_into;
use mergepath_suite::baselines::rank_partition::rank_partition_merge_into;
use mergepath_suite::baselines::sequential::textbook_merge_into;
use mergepath_suite::mergepath::merge::parallel::parallel_merge_into;
use mergepath_suite::mergepath::merge::segmented::{
    segmented_parallel_merge_into, SpmConfig, Staging,
};
use mergepath_suite::mergepath::merge::sequential::{galloping_merge_into_by, merge_into};
use mergepath_suite::pram::kernels::measure_merge;
use mergepath_suite::workloads::{is_sorted, is_stable_merge_of, merge_pair_sized, MergeWorkload};

fn check_all_implementations(a: &[u32], b: &[u32]) {
    let n = a.len() + b.len();
    let mut reference = vec![0u32; n];
    merge_into(a, b, &mut reference);
    assert!(is_sorted(&reference));
    assert!(is_stable_merge_of(&reference, a, b));

    let mut out = vec![0u32; n];
    for threads in [1usize, 3, 7] {
        parallel_merge_into(a, b, &mut out, threads);
        assert_eq!(out, reference, "parallel, threads={threads}");

        for staging in [Staging::Windowed, Staging::Cyclic] {
            let cfg = SpmConfig::new(97, threads).with_staging(staging);
            out.fill(0);
            segmented_parallel_merge_into(a, b, &mut out, &cfg);
            assert_eq!(out, reference, "segmented {staging:?}, threads={threads}");
        }

        out.fill(0);
        akl_santoro_merge_into(a, b, &mut out, threads);
        assert_eq!(out, reference, "akl-santoro, threads={threads}");

        out.fill(0);
        rank_partition_merge_into(a, b, &mut out, threads);
        assert_eq!(out, reference, "rank-partition, threads={threads}");
    }

    out.fill(0);
    textbook_merge_into(a, b, &mut out);
    assert_eq!(out, reference, "textbook");

    out.fill(0);
    galloping_merge_into_by(a, b, &mut out, &|x, y| x.cmp(y));
    assert_eq!(out, reference, "galloping");

    // PRAM port (with full CREW checking).
    let a64: Vec<u64> = a.iter().map(|&x| x as u64).collect();
    let b64: Vec<u64> = b.iter().map(|&x| x as u64).collect();
    let ref64: Vec<u64> = reference.iter().map(|&x| x as u64).collect();
    for p in [1usize, 4] {
        let (_, pram_out) = measure_merge(&a64, &b64, p, true).expect("CREW-clean");
        assert_eq!(pram_out, ref64, "pram, p={p}");
    }
}

#[test]
fn all_workloads_all_implementations() {
    for wl in MergeWorkload::ALL {
        let (a, b) = merge_pair_sized(wl, 1500, 1100, 0xE2E);
        check_all_implementations(&a, &b);
    }
}

#[test]
fn degenerate_shapes() {
    let empty: Vec<u32> = vec![];
    let one = vec![7u32];
    let many: Vec<u32> = (0..997).collect();
    check_all_implementations(&empty, &empty);
    check_all_implementations(&one, &empty);
    check_all_implementations(&empty, &many);
    check_all_implementations(&one, &many);
    let constant = vec![42u32; 500];
    check_all_implementations(&constant, &constant);
}

#[test]
fn extreme_size_asymmetry() {
    let tiny: Vec<u32> = vec![500_000, 1_000_000];
    let huge: Vec<u32> = (0..50_000).map(|x| x * 40).collect();
    check_all_implementations(&tiny, &huge);
    check_all_implementations(&huge, &tiny);
}
