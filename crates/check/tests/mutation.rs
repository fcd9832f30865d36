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

/// The co-rank tie-break fault only fires when the probe sends a segment to
/// the co-rank kernel and a mixed tie class straddles one of the kernel's
/// interior 256-rank block cuts, so this test builds its own input instead
/// of using the default (whose per-worker segments are too short to hold an
/// interior cut): 2048 + 2048 keyed elements in tie runs of 48 per side.
/// At the default 4 threads each worker segment (1024 outputs) holds mixed
/// 96-wide tie classes. Runs of 24 would send every segment to branch-lean
/// (too few of the probe's duplicate samples land in a run); runs of 32 or
/// 64 make merged tie classes of 64 or 128 outputs, which divide the block
/// size, so every block cut would fall on a class boundary and the
/// inverted tie break could not show.
#[test]
fn co_rank_tie_break_inversion_is_detected_as_an_output_mismatch() {
    use mergepath::merge::parallel::parallel_merge_into_recorded;
    use mergepath::telemetry::TimelineRecorder;
    use mergepath_check::{check_kernel_on, Kv};

    let tagged =
        |tag0: u32| -> Vec<Kv> { (0..2048u32).map(|i| ((i / 48) as i32, tag0 + i)).collect() };
    let (a, b) = (tagged(0), tagged(1_000_000));
    let cfg = CheckConfig::default();
    let result = check_kernel_on(Kernel::Parallel, &a, &b, &cfg);
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
        let report = result.expect("clean build must pass the schedule check");
        assert!(report.multi_rounds > 0, "{report}");
        // The conviction above rests on the probe choosing the co-rank
        // kernel for this input at the checker's thread count.
        let rec = TimelineRecorder::new();
        let mut out = vec![(0, 0); a.len() + b.len()];
        let by_key = |x: &Kv, y: &Kv| x.0.cmp(&y.0);
        parallel_merge_into_recorded(&a, &b, &mut out, cfg.threads, &by_key, &rec);
        let co_rank: u64 = rec
            .finish()
            .counters
            .iter()
            .filter(|c| c.kind.name() == "segments_co_rank")
            .map(|c| c.total)
            .sum();
        assert!(co_rank > 0, "the probe sent no segment to co-rank");
    }
}
