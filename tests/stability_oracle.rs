//! Stability-proving differential suite: keyed `(key, original_index)`
//! pairs over nine adversarial families × every dispatch policy × three
//! thread counts, asserting **byte-identical** order with the sequential
//! stable oracle.
//!
//! `tests/oracle_differential.rs` proves every kernel equals the oracle;
//! this suite is the dedicated *stability* layer the co-rank kernel's
//! proof obligations call for (ROADMAP: keyed-pair duplicate-heavy
//! differential). Each element carries its original index as provenance
//! the comparator never sees, so equality with the stable oracle pins the
//! exact tie order: within every tie class, all of `A`'s elements precede
//! all of `B`'s, each side in original input order. The families are sized
//! past the adaptive probe's minimum (256) and the co-rank kernel's block
//! granularity (256) so every policy — including the co-rank block splits
//! this PR introduces — executes its real code path, not a short-input
//! fallback.

use std::cmp::Ordering;

use mergepath_suite::mergepath::merge::adaptive::{
    with_dispatch_policy, DispatchPolicy, SegmentKernel,
};
use mergepath_suite::mergepath::merge::batch::batch_merge_into_by;
use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
use mergepath_suite::mergepath::merge::sequential::merge_into_by;
use mergepath_suite::mergepath::merge::stable::{stable_parallel_merge_into_by, CO_RANK_BLOCK};
use mergepath_suite::workloads::prng::Prng;

/// A keyed element: compared by `.0`; `.1` is the element's original index
/// in its input (B offset by 1_000_000), invisible to the comparator.
type Kv = (i32, u32);

fn cmp(x: &Kv, y: &Kv) -> Ordering {
    x.0.cmp(&y.0)
}

/// Tags each key with its original index: `a[i] -> (key, i)`,
/// `b[i] -> (key, 1_000_000 + i)`.
fn tag(a: &[i32], b: &[i32]) -> (Vec<Kv>, Vec<Kv>) {
    let ta = a.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
    let tb = b
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, 1_000_000 + i as u32))
        .collect();
    (ta, tb)
}

/// Nine adversarial families, weighted toward duplicate-heavy shapes where
/// stability is maximally observable. All sized so per-worker segments at
/// the tested thread counts still exceed the probe minimum and hold
/// interior co-rank block cuts.
fn families() -> Vec<(&'static str, Vec<i32>, Vec<i32>)> {
    let mut rng = Prng::seed_from_u64(0x0057_AB1E);
    let mut random_sorted = |len: usize, key_space: u64| -> Vec<i32> {
        let mut v: Vec<i32> = (0..len).map(|_| rng.below(key_space) as i32).collect();
        v.sort_unstable();
        v
    };
    let block = CO_RANK_BLOCK as i32;
    vec![
        // One giant tie class: the most hostile stability input there is.
        ("all_equal", vec![7; 2600], vec![7; 2100]),
        // Tiny key space: every key is a wide mixed tie class.
        (
            "duplicate_heavy",
            random_sorted(2800, 5),
            random_sorted(2500, 5),
        ),
        // Tie runs exactly one block wide, so tie classes land precisely on
        // and around the co-rank kernel's interior block cuts.
        (
            "block_aligned_ties",
            (0..2560).map(|i| i / block).collect(),
            (0..2560).map(|i| i / block).collect(),
        ),
        // Tie runs one past the block width: every cut straddles a class.
        (
            "block_straddling_ties",
            (0..2570).map(|i| i / (block + 1)).collect(),
            (0..2570).map(|i| i / (block + 1)).collect(),
        ),
        ("one_side_empty", (0..2000).collect(), vec![]),
        (
            "interleaved_runs",
            (0..1500).map(|x| x * 2).collect(),
            (0..1500).map(|x| x * 2 + 1).collect(),
        ),
        (
            "disjoint_ranges",
            (0..1400).collect(),
            (10_000..11_400).collect(),
        ),
        (
            "random_with_ties",
            random_sorted(1731, 90),
            random_sorted(1977, 90),
        ),
        ("singleton_vs_run", vec![600], (0..1800).collect()),
    ]
}

fn policies() -> [DispatchPolicy; 5] {
    [
        DispatchPolicy::Adaptive,
        DispatchPolicy::Fixed(SegmentKernel::Classic),
        DispatchPolicy::Fixed(SegmentKernel::BranchLean),
        DispatchPolicy::Fixed(SegmentKernel::Galloping),
        DispatchPolicy::Fixed(SegmentKernel::CoRank),
    ]
}

const THREADS: [usize; 3] = [2, 4, 7];

/// Stability, asserted directly on the output rather than through the
/// oracle: within a tie class, provenance strictly increases — A's
/// elements (tags < 1_000_000, in input order) before B's (in input order).
fn assert_stable(out: &[Kv], label: &str) {
    for w in out.windows(2) {
        if w[0].0 == w[1].0 {
            assert!(
                w[0].1 < w[1].1,
                "{label}: tie class out of stable order: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn every_policy_produces_the_stable_order_on_every_family() {
    for (name, ka, kb) in families() {
        let (a, b) = tag(&ka, &kb);
        let n = a.len() + b.len();
        let mut oracle = vec![(0, 0); n];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        assert_stable(&oracle, name);
        for policy in policies() {
            with_dispatch_policy(policy, || {
                for threads in THREADS {
                    let label = format!("{name}: {policy:?}, threads={threads}");
                    let mut out = vec![(0, 0); n];
                    parallel_merge_into_by(&a, &b, &mut out, threads, &cmp);
                    assert_eq!(out, oracle, "{label}");
                    assert_stable(&out, &label);
                }
            });
        }
    }
}

#[test]
fn the_exact_balance_co_rank_merge_is_stable_on_every_family() {
    // The top-level co-rank parallel entry cuts the output at the exactly
    // balanced 1303.4312 boundaries instead of the ⌊k·n/p⌋ diagonals; its
    // stability proof is block-split uniqueness, checked here byte-for-byte
    // against the oracle under every family and thread count.
    for (name, ka, kb) in families() {
        let (a, b) = tag(&ka, &kb);
        let n = a.len() + b.len();
        let mut oracle = vec![(0, 0); n];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        for threads in THREADS {
            let label = format!("{name}: stable_parallel, threads={threads}");
            let mut out = vec![(0, 0); n];
            stable_parallel_merge_into_by(&a, &b, &mut out, threads, &cmp);
            assert_eq!(out, oracle, "{label}");
            assert_stable(&out, &label);
        }
    }
}

#[test]
fn batched_merges_keep_the_stable_order_under_every_policy() {
    // The batch kernel shares the adaptive segment dispatch; the
    // duplicate-heavy families must come out stable under every policy
    // when many pairs share one worker budget.
    let fams = families();
    let tagged: Vec<(Vec<Kv>, Vec<Kv>)> = fams.iter().map(|(_, ka, kb)| tag(ka, kb)).collect();
    let pairs: Vec<(&[Kv], &[Kv])> = tagged
        .iter()
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    let mut oracle = Vec::new();
    for (a, b) in &pairs {
        let mut m = vec![(0, 0); a.len() + b.len()];
        merge_into_by(a, b, &mut m, &cmp);
        oracle.extend(m);
    }
    for policy in policies() {
        with_dispatch_policy(policy, || {
            for threads in THREADS {
                let mut out = vec![(0, 0); oracle.len()];
                batch_merge_into_by(&pairs, &mut out, threads, &cmp);
                assert_eq!(out, oracle, "{policy:?}, threads={threads}");
            }
        });
    }
}
