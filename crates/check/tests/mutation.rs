//! Mutation self-test: prove the checker can actually *detect* a broken
//! partition, not just bless correct ones.
//!
//! Built with `RUSTFLAGS="--cfg mergepath_mutate"`, the Algorithm 1 merge
//! deliberately extends share 0's diagonal by one element before co-ranking,
//! so share 0 and share 1 both write the boundary slot. The written *value*
//! is identical either way (both shares compute the same merged element), so
//! output-diffing tests cannot see the fault — only the access-set
//! disjointness check can. This test asserts exactly that: under mutation
//! the checker must report `WriteOverlap`; in a clean build it must pass.
//!
//! A second fault inverts the tie break of the co-rank stable block kernel:
//! under the same cfg its block-split binary search advances only on
//! *strictly greater* instead of greater-or-equal, so equal B elements
//! overtake equal A elements across interior block boundaries. The mutated
//! merge is still a sorted permutation — only the provenance-tagged stable
//! oracle can see the difference, which the checker must report as an
//! `OutputMismatch` on the first schedule.
//!
//! `cargo xtask verify-schedules` runs the mutated configuration with these
//! tests.

use mergepath_check::{check_kernel, CheckConfig, CheckError, Kernel};

#[test]
fn mutation_overlap_is_detected() {
    let cfg = CheckConfig::default();
    let result = check_kernel(Kernel::Parallel, 800, &cfg);
    if cfg!(mergepath_mutate) {
        match result {
            Err(CheckError::WriteOverlap { kernel, .. }) => assert_eq!(kernel, "parallel"),
            other => {
                panic!("mutated parallel merge must be caught as a write overlap, got {other:?}")
            }
        }
    } else {
        let report = result.expect("clean build must pass the schedule check");
        assert!(report.multi_rounds > 0, "{report}");
    }
}

/// The co-rank tie-break fault only fires when a mixed tie class straddles
/// one of the kernel's interior 256-rank block cuts, so this test builds its
/// own input instead of using the default (whose per-worker segments are too
/// short to contain an interior cut): 2048 + 2048 elements with 24-element
/// tie runs per side give every worker segment (1024 outputs at the default
/// 4 threads) mixed ~48-wide tie classes across the cuts at ranks
/// 256/512/768.
#[test]
fn co_rank_tie_break_inversion_is_detected_as_an_output_mismatch() {
    use mergepath::merge::adaptive::{with_dispatch_policy, DispatchPolicy, SegmentKernel};
    use mergepath_check::{check_kernel_on, Kv};

    let tagged =
        |tag0: u32| -> Vec<Kv> { (0..2048u32).map(|i| ((i / 24) as i32, tag0 + i)).collect() };
    let (a, b) = (tagged(0), tagged(1_000_000));
    let cfg = CheckConfig::default();
    let result = with_dispatch_policy(DispatchPolicy::Fixed(SegmentKernel::CoRank), || {
        check_kernel_on(Kernel::Parallel, &a, &b, &cfg)
    });
    if cfg!(mergepath_mutate) {
        match result {
            Err(CheckError::OutputMismatch {
                kernel, schedule, ..
            }) => {
                assert_eq!(kernel, "parallel");
                assert_eq!(schedule, 0, "the fault is schedule-independent");
            }
            other => panic!(
                "mutated co-rank tie break must be caught as an output mismatch, got {other:?}"
            ),
        }
    } else {
        let report = result.expect("clean build must pass the forced-co-rank schedule check");
        assert!(report.multi_rounds > 0, "{report}");
    }
}
