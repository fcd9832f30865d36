//! Differential oracle tests for the SIMD segment merge kernel.
//!
//! The vectorized kernel is only ever selected for primitive keys under
//! the canonical comparator, so this suite drives exactly that
//! configuration — bare `u32` keys, [`natural_cmp`] — across nine
//! adversarial input families, every dispatch policy (adaptive plus each
//! kernel pinned, the SIMD kernel included), and lengths straddling the
//! lane width: `8k-1`, `8k`, `8k+1` and one-side-empty. Every output must
//! be byte-identical to the sequential reference merge.
//!
//! The suite is meaningful in both build configurations. With
//! `--features simd` the vector loop really runs; without it the entry
//! point falls back to scalar and these tests pin the fallback instead.
//! [`simd_enabled`] reports which configuration is under test, and the
//! eligibility assertions flip with it.
//!
//! A second axis proves the *negative* space: `(key, id)` pairs — any
//! non-[`SimdKey`] element type, and any comparator other than the
//! canonical one — must never dispatch a SIMD segment, which the
//! `segments_simd` telemetry counter witnesses directly.
//!
//! [`SimdKey`]: mergepath_suite::mergepath::merge::simd::SimdKey

use mergepath_suite::mergepath::merge::adaptive::{
    probe_segment, with_dispatch_policy, DispatchPolicy, SegmentKernel,
};
use mergepath_suite::mergepath::merge::parallel::{
    parallel_merge_into_by, parallel_merge_into_recorded,
};
use mergepath_suite::mergepath::merge::sequential::merge_into_by;
use mergepath_suite::mergepath::merge::simd::{natural_cmp, simd_eligible, simd_enabled, LANES};
use mergepath_suite::mergepath::telemetry::TimelineRecorder;
use mergepath_suite::workloads::prng::Prng;

/// Lengths straddling the lane width: one short of a whole number of
/// lanes, exact, one over, and empty — the tail/remainder seams where a
/// chunked kernel would break first.
fn lane_straddling_lengths() -> [usize; 4] {
    let k = 40; // 8k = 320: enough lanes for several refill iterations
    [0, LANES * k - 1, LANES * k, LANES * k + 1]
}

/// Builds one sorted `u32` input of the named family. `which` is 0 for
/// the A side and 1 for the B side so the two sides differ where the
/// family calls for it.
fn family_input(family: &str, len: usize, which: u64, rng: &mut Prng) -> Vec<u32> {
    let mut v: Vec<u32> = match family {
        "all_equal" => vec![7; len],
        "duplicate_heavy" => (0..len).map(|_| rng.below(5) as u32).collect(),
        "interleaved_runs" => (0..len).map(|i| (i as u32) * 2 + which as u32).collect(),
        "disjoint_low_high" => {
            let base = which as u32 * 1_000_000;
            (0..len).map(|i| base + i as u32).collect()
        }
        "disjoint_high_low" => {
            let base = (1 - which as u32) * 1_000_000;
            (0..len).map(|i| base + i as u32).collect()
        }
        "random_wide" => (0..len)
            .map(|_| rng.below(u32::MAX as u64) as u32)
            .collect(),
        "random_with_ties" => (0..len).map(|_| rng.below(90) as u32).collect(),
        "blocky" => (0..len)
            .map(|_| (rng.below(16) as u32) * 1000 + which as u32)
            .collect(),
        "saw_overlap" => (0..len)
            .map(|i| (i as u32 / 7) * 11 + which as u32)
            .collect(),
        other => unreachable!("unknown family {other}"),
    };
    v.sort_unstable();
    v
}

/// The nine adversarial families of the suite.
const FAMILIES: [&str; 9] = [
    "all_equal",
    "duplicate_heavy",
    "interleaved_runs",
    "disjoint_low_high",
    "disjoint_high_low",
    "random_wide",
    "random_with_ties",
    "blocky",
    "saw_overlap",
];

#[test]
fn every_policy_matches_the_oracle_on_lane_straddling_lengths() {
    let cmp = natural_cmp::<u32>;
    let policies = [
        DispatchPolicy::Adaptive,
        DispatchPolicy::Fixed(SegmentKernel::Classic),
        DispatchPolicy::Fixed(SegmentKernel::BranchLean),
        DispatchPolicy::Fixed(SegmentKernel::Galloping),
        DispatchPolicy::Fixed(SegmentKernel::Simd),
    ];
    let mut rng = Prng::seed_from_u64(0x51D0_D1FF);
    for family in FAMILIES {
        for la in lane_straddling_lengths() {
            for lb in lane_straddling_lengths() {
                let a = family_input(family, la, 0, &mut rng);
                let b = family_input(family, lb, 1, &mut rng);
                let mut oracle = vec![0u32; la + lb];
                merge_into_by(&a, &b, &mut oracle, &cmp);
                for policy in policies {
                    with_dispatch_policy(policy, || {
                        for threads in [1usize, 4] {
                            let mut out = vec![0u32; la + lb];
                            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp);
                            assert_eq!(
                                out, oracle,
                                "{family}: la={la} lb={lb} {policy:?} threads={threads}"
                            );
                        }
                    });
                }
            }
        }
    }
}

#[test]
fn eligibility_tracks_the_feature_and_the_canonical_comparator() {
    // The positive space: primitive keys under the canonical comparator
    // are eligible exactly when the feature compiled the vector loop in.
    assert_eq!(simd_eligible::<u32, _>(&natural_cmp::<u32>), simd_enabled());
    assert_eq!(simd_eligible::<i64, _>(&natural_cmp::<i64>), simd_enabled());
    // The negative space, regardless of configuration: a closure over the
    // same primitive, and the canonical comparator instantiated at a
    // non-SimdKey pair type, are both rejected.
    assert!(!simd_eligible::<u32, _>(&|x: &u32, y: &u32| x.cmp(y)));
    assert!(!simd_eligible::<(u32, u32), _>(&natural_cmp::<(u32, u32)>));
}

#[test]
fn keyed_pairs_never_dispatch_simd_segments() {
    // (key, id) pairs under a by-key comparator: the probe must never name
    // the SIMD kernel, and a traced parallel merge must record zero
    // `segments_simd` — in both build configurations.
    type Kv = (u32, u32);
    let by_key = |x: &Kv, y: &Kv| x.0.cmp(&y.0);
    let mut rng = Prng::seed_from_u64(0x9A1D);
    let mut side = |tag: u32| -> Vec<Kv> {
        let mut v: Vec<Kv> = (0..4096)
            .map(|i| (rng.below(1 << 20) as u32, tag + i))
            .collect();
        v.sort_by(by_key);
        v
    };
    let (a, b) = (side(0), side(1_000_000));
    assert_ne!(
        probe_segment(&a, &b, &by_key),
        SegmentKernel::Simd,
        "pairs must not probe to the vector kernel"
    );

    // The dispatch policy is process-wide and a sibling test forces each
    // kernel in turn: trace under adaptive dispatch, held for the merge.
    let mut out = vec![(0u32, 0u32); a.len() + b.len()];
    let rec = TimelineRecorder::new();
    with_dispatch_policy(DispatchPolicy::Adaptive, || {
        parallel_merge_into_recorded(&a, &b, &mut out, 4, &by_key, &rec)
    });
    let telemetry = rec.finish();
    let total = |name: &str| -> u64 {
        telemetry
            .counters
            .iter()
            .filter(|c| c.kind.name() == name)
            .map(|c| c.total)
            .sum()
    };
    assert_eq!(total("segments_simd"), 0, "pairs dispatched a simd segment");
    assert!(
        total("segments_classic") + total("segments_branch_lean") + total("segments_galloping") > 0,
        "the traced merge must have dispatched scalar segments"
    );

    // And the same merge stays byte-identical to the oracle even when the
    // SIMD kernel is forced: the entry point's internal fallback keeps
    // execution total for ineligible element types.
    let mut oracle = vec![(0u32, 0u32); out.len()];
    merge_into_by(&a, &b, &mut oracle, &by_key);
    assert_eq!(out, oracle);
    with_dispatch_policy(DispatchPolicy::Fixed(SegmentKernel::Simd), || {
        let mut forced = vec![(0u32, 0u32); oracle.len()];
        parallel_merge_into_by(&a, &b, &mut forced, 4, &by_key);
        assert_eq!(forced, oracle, "forced-simd fallback diverged on pairs");
    });
}

#[test]
fn uniform_primitive_keys_dispatch_simd_exactly_when_enabled() {
    // The positive telemetry witness: a traced parallel merge of fine
    // interleaved primitive keys under the canonical comparator must
    // dispatch SIMD segments exactly when the feature is on.
    let cmp = natural_cmp::<u32>;
    let mut rng = Prng::seed_from_u64(0xFEED);
    let mut side = || -> Vec<u32> {
        let mut v: Vec<u32> = (0..8192)
            .map(|_| rng.below(u32::MAX as u64) as u32)
            .collect();
        v.sort_unstable();
        v
    };
    let (a, b) = (side(), side());
    // Under adaptive dispatch, not whatever a sibling test has forced.
    let mut out = vec![0u32; a.len() + b.len()];
    let rec = TimelineRecorder::new();
    with_dispatch_policy(DispatchPolicy::Adaptive, || {
        parallel_merge_into_recorded(&a, &b, &mut out, 4, &cmp, &rec)
    });
    let telemetry = rec.finish();
    let simd_segments: u64 = telemetry
        .counters
        .iter()
        .filter(|c| c.kind.name() == "segments_simd")
        .map(|c| c.total)
        .sum();
    if simd_enabled() {
        assert!(simd_segments > 0, "feature on but no simd segments");
    } else {
        assert_eq!(simd_segments, 0, "feature off but simd segments recorded");
    }
    let mut oracle = vec![0u32; out.len()];
    merge_into_by(&a, &b, &mut oracle, &cmp);
    assert_eq!(out, oracle);
}
