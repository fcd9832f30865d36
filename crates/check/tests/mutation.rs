//! Mutation self-test: prove the checker can actually *detect* a broken
//! partition, not just bless correct ones.
//!
//! Built with `RUSTFLAGS="--cfg mergepath_mutate"`, the Algorithm 1 merge
//! deliberately extends tile 0's diagonal by one element before co-ranking,
//! so tile 0 and tile 1 both write the boundary slot. The written *value*
//! is identical either way (both shares compute the same merged element), so
//! output-diffing tests cannot see the fault — only the access-set
//! disjointness check can. This test asserts exactly that: under mutation
//! the checker must report `WriteOverlap`; in a clean build it must pass.
//! The windowed segmented merge runs Algorithm 1's tile loop on each
//! window, so the same fault must be caught there too.
//!
//! A second fault inverts the tie break of the galloping kernel, the one
//! the probe gives every duplicate-heavy segment: under the same cfg it
//! merges `b` into `a`, so the B-side run takes each tie class and the
//! A-side run stops before it. The mutated merge is still a sorted
//! permutation — only the provenance-tagged stable oracle can see the
//! difference, which the checker must report as an `OutputMismatch` on the
//! first schedule.
//!
//! A third fault drops stage 3 of the 16-key network in the branch-lean
//! kernel's AVX2 body, so most steps write their eight keys out of order.
//! That body runs only for `u32` keys under `natural_cmp` on CPUs with
//! AVX2, which the checker reaches only through `check_kernel_keys`; on
//! such a CPU it must report an `OutputMismatch` on the first schedule,
//! and elsewhere the same check must pass.
//!
//! `cargo xtask verify-schedules` runs the mutated configuration with these
//! tests.

use mergepath_check::{check_kernel, check_kernel_keys, CheckConfig, CheckError, Kernel};

/// The overlap is tile 0's: checked where tiles are the paper's `p`
/// segments (800 keys at 4 threads) and where Algorithm 1 cuts more tiles
/// than threads (65536 keys at 2 threads, 8 tiles, and at 1 thread, 4
/// tiles that the caller runs alone); and in the windowed segmented merge,
/// whose checker windows of 30 outputs are cut into 4 tiles at 4 threads
/// (at one thread a window would be a single tile, with no cut to fault).
#[test]
fn mutation_overlap_is_detected() {
    let legs = [
        (Kernel::Parallel, 800, 4),
        (Kernel::Parallel, 65_536, 2),
        (Kernel::Parallel, 65_536, 1),
        (Kernel::Segmented, 800, 4),
    ];
    for (kernel, n, threads) in legs {
        let cfg = CheckConfig {
            threads,
            ..CheckConfig::default()
        };
        let name = kernel.name();
        let result = check_kernel(kernel, n, &cfg);
        if cfg!(mergepath_mutate) {
            match result {
                Err(CheckError::WriteOverlap { kernel, .. }) => assert_eq!(kernel, name),
                other => panic!(
                    "{name} n={n}: the mutated tile cut must be caught as a write overlap, \
                     got {other:?}"
                ),
            }
        } else {
            let report = result.expect("clean build must pass the schedule check");
            assert!(report.multi_rounds > 0, "{name} n={n}: {report}");
            if n > 4096 {
                assert!(report.max_shares > threads, "n={n} must tile: {report}");
            }
        }
    }
}

/// The galloping tie-break fault only fires when the probe sends a segment
/// holding a tie class of both sides to galloping, so this test builds its
/// own input instead of using the default (whose rare ties send its tiles
/// to branch-lean): 2048 + 2048 keyed elements in tie runs of 48 per side.
/// At the default 4 threads each tile (1024 outputs) holds mixed 96-wide
/// tie classes, and the probe's duplicate samples land inside the runs.
#[test]
fn galloping_tie_break_inversion_is_detected_as_an_output_mismatch() {
    use mergepath::merge::parallel::parallel_merge_into_by;
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
                "mutated galloping tie break must be caught as an output mismatch, got {other:?}"
            ),
        }
    } else {
        let report = result.expect("clean build must pass the schedule check");
        assert!(report.multi_rounds > 0, "{report}");
        // The conviction above rests on the probe choosing the galloping
        // kernel for this input at the checker's thread count.
        let rec = TimelineRecorder::new();
        let mut out = vec![(0, 0); a.len() + b.len()];
        let by_key = |x: &Kv, y: &Kv| x.0.cmp(&y.0);
        parallel_merge_into_by(&a, &b, &mut out, cfg.threads, &by_key, &rec);
        let galloping: u64 = rec
            .finish()
            .counters
            .iter()
            .filter(|c| c.kind.name() == "segments_galloping")
            .map(|c| c.total)
            .sum();
        assert!(galloping > 0, "the probe sent no segment to galloping");
    }
}

/// Whether this CPU runs AVX2, so the branch-lean kernel takes its vector
/// body on `u32` keys under `natural_cmp`.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The network fault fires wherever the vector body runs. `check_kernel_keys`
/// merges 4096 wide-range `u32` keys under `natural_cmp`; at the default 4
/// threads the batch merge cuts them into 1024-output tiles whose fragments
/// the probe sends to branch-lean. The batch merge carries neither of the
/// other two faults, so the mutated build fails here only through the
/// network.
#[test]
fn vector_network_fault_is_detected_as_an_output_mismatch() {
    use mergepath::merge::batch::batch_merge_into_by;
    use mergepath::merge::sequential::natural_cmp;
    use mergepath::telemetry::TimelineRecorder;
    use mergepath_check::default_key_input;

    let (n, cfg) = (4096, CheckConfig::default());
    let result = check_kernel_keys(Kernel::Batch, n, &cfg);
    if cfg!(mergepath_mutate) && avx2() {
        match result {
            Err(CheckError::OutputMismatch {
                kernel, schedule, ..
            }) => {
                assert_eq!(kernel, "batch");
                assert_eq!(schedule, 0, "the fault is schedule-independent");
            }
            other => panic!(
                "the dropped network stage must be caught as an output mismatch, got {other:?}"
            ),
        }
    } else {
        let report = result.expect("the schedule check must pass where the fault cannot fire");
        assert!(report.multi_rounds > 0, "{report}");
        // The conviction above rests on the probe sending these fragments
        // to branch-lean: the checker's batch input, traced.
        let (a, b) = default_key_input(n, cfg.seed);
        let (ha, hb) = (a.len() / 2, b.len() / 3);
        let pairs = [(&a[..ha], &b[..hb]), (&a[ha..], &b[hb..])];
        let rec = TimelineRecorder::new();
        let mut out = vec![0u32; n];
        batch_merge_into_by(&pairs, &mut out, cfg.threads, &natural_cmp, &rec);
        let branch_lean: u64 = rec
            .finish()
            .counters
            .iter()
            .filter(|c| c.kind.name() == "segments_branch_lean")
            .map(|c| c.total)
            .sum();
        assert!(branch_lean > 0, "the probe sent no segment to branch-lean");
    }
}
