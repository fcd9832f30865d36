//! Property layer for stability: the two facts a stable parallel merge
//! rests on (Siebert & Träff, arXiv 1303.4312), checked over arbitrary
//! shapes instead of the hand-picked inputs in the unit suites.
//!
//! 1. **Split uniqueness** — for every rank `k` there is *exactly one*
//!    feasible `(i, j)` with `i + j = k` satisfying the stable split
//!    predicate (`a[i-1] <= b[j]` and `b[j-1] < a[i]`, ties toward `A`),
//!    and the binary co-rank search finds it. Uniqueness is the whole
//!    argument: independently computed tile and stream cuts cannot
//!    disagree, so stability composes across workers without coordination.
//! 2. **Tie runs through galloping** — keyed tie runs one short of,
//!    exactly at, and one past a power of two (where galloping's doubling
//!    search ends) merge byte-identically to the sequential stable oracle,
//!    with provenance tags proving no equal element moved out of order,
//!    through the galloping kernel alone and under Algorithm 1's tile cuts.

use std::cmp::Ordering;

use mergepath::diagonal::{co_rank_by, split_is_valid};
use mergepath::merge::adaptive::SegmentKernel;
use mergepath::merge::parallel::parallel_merge_into_by;
use mergepath::merge::sequential::merge_into_by;
use mergepath::telemetry::NoRecorder;

use proptest::prelude::*;

type Kv = (i32, u32);

fn by_key(x: &Kv, y: &Kv) -> Ordering {
    x.0.cmp(&y.0)
}

/// Tag sorted key vectors with provenance the comparator never sees.
fn tag(a: &[i32], b: &[i32]) -> (Vec<Kv>, Vec<Kv>) {
    let ta = a.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
    let tb = b
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, 1_000_000 + i as u32))
        .collect();
    (ta, tb)
}

fn assert_stable_output(a: &[Kv], b: &[Kv], out: &[Kv]) {
    let mut oracle = vec![(0, 0); out.len()];
    merge_into_by(a, b, &mut oracle, &by_key);
    assert_eq!(out, oracle.as_slice());
    for w in out.windows(2) {
        if w[0].0 == w[1].0 {
            assert!(w[0].1 < w[1].1, "{:?} before {:?}", w[0], w[1]);
        }
    }
}

/// Keys drawn from a tiny space so nearly every rank lands inside a mixed
/// tie class — the regime where split uniqueness actually bites.
fn sorted_dup_heavy(len: usize) -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::vec(-6i32..6, 0..len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

proptest! {
    #[test]
    fn the_stable_split_is_unique_and_the_search_finds_it(
        a in sorted_dup_heavy(140),
        b in sorted_dup_heavy(140),
    ) {
        let (ta, tb) = tag(&a, &b);
        let n = ta.len() + tb.len();
        for k in 0..=n {
            let valid: Vec<usize> = (0..=ta.len().min(k))
                .filter(|&i| split_is_valid(k, ta.as_slice(), tb.as_slice(), &by_key, i))
                .collect();
            prop_assert_eq!(
                valid.len(), 1,
                "rank {} admits {:?} stable splits", k, &valid
            );
            let i = co_rank_by(k, ta.as_slice(), tb.as_slice(), &by_key);
            prop_assert_eq!(i, valid[0], "search must return the unique split at rank {}", k);
        }
    }

    #[test]
    fn tie_runs_merge_stably_through_galloping_and_tile_cuts(
        // Runs one short of, exactly at, and one past a power of two, so
        // galloping's doubling search ends inside, on the edge of, and past
        // a tie class; the offset and jitter move the tile cuts across the
        // classes.
        log_run in 5u32..10,
        run_delta in -1isize..=1,
        jitter in 0usize..40,
        b_offset in 0usize..64,
        threads in 1usize..9,
    ) {
        let run = ((1usize << log_run) as isize + run_delta) as usize;
        let len = 1024 + jitter;
        let a: Vec<i32> = (0..len).map(|i| (i / run) as i32).collect();
        let b: Vec<i32> = (0..len).map(|i| ((i + b_offset) / run) as i32).collect();
        let (ta, tb) = tag(&a, &b);
        let mut out = vec![(0, 0); ta.len() + tb.len()];
        SegmentKernel::Galloping.merge_into_by(&ta, &tb, &mut out, &by_key);
        assert_stable_output(&ta, &tb, &out);
        // Algorithm 1 cuts its tiles at the unique stable splits and runs
        // the kernel the probe picks per tile (galloping wherever a tile's
        // duplicate samples land inside runs); the composition must stay
        // stable too.
        let mut par = vec![(0, 0); out.len()];
        parallel_merge_into_by(&ta, &tb, &mut par, threads, &by_key, &NoRecorder);
        prop_assert_eq!(par, out);
    }
}
