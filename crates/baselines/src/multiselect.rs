//! Merging by multiselection (the paper's reference \[7\]: Deo, Jain,
//! Medidi — "An optimal parallel algorithm for merging using
//! multiselection").
//!
//! Instead of `p − 1` *independent* diagonal searches (Merge Path) or
//! `log p` rounds of single median bisections (Akl–Santoro), the
//! multiselection algorithm finds all `p − 1` equispaced selection points
//! in one shared recursion: select the median *rank*, split both arrays
//! there, and recurse with the left ranks into the left halves and the
//! right ranks into the right halves. Each rank is found once, but ranks
//! deeper in the recursion search ever-smaller sub-arrays, so the total
//! search work is `O(p·log(N/p) + p·log p)` — asymptotically less than
//! Merge Path's `O(p·log N)` total, at the price of a `O(log p)`-deep
//! *dependent* recursion (the EREW-friendly structure ref \[7\] targets).
//!
//! The `c1_complexity` experiment compares the three partitioners'
//! measured comparison counts and round structure.

use core::cmp::Ordering;

use mergepath::diagonal::co_rank_counted;
use mergepath::merge::sequential::merge_into_by;
use mergepath::partition::{segment_boundary, Segment};

/// Result of a multiselection partition.
#[derive(Debug, Clone)]
pub struct MultiselectPartition {
    /// The `p` merge jobs, in output order.
    pub segments: Vec<Segment>,
    /// Total comparisons spent across all selections.
    pub search_comparisons: u64,
    /// Depth of the shared recursion (sequential rounds).
    pub rounds: u32,
}

/// Finds the split points for all `ranks` (ascending, within
/// `0..=|a|+|b|`) by shared recursion; returns one `(i, j)` per rank.
pub fn multiselect_by<T, F>(
    a: &[T],
    b: &[T],
    ranks: &[usize],
    cmp: &F,
) -> (Vec<(usize, usize)>, u64, u32)
where
    F: Fn(&T, &T) -> Ordering,
{
    debug_assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks must ascend");
    let mut out = vec![(0usize, 0usize); ranks.len()];
    let mut comparisons = 0u64;
    let mut max_depth = 0u32;
    #[allow(clippy::too_many_arguments)]
    fn go<T, F>(
        a: &[T],
        b: &[T],
        a_off: usize,
        b_off: usize,
        ranks: &[usize],
        slots: &mut [(usize, usize)],
        cmp: &F,
        comparisons: &mut u64,
        depth: u32,
        max_depth: &mut u32,
    ) where
        F: Fn(&T, &T) -> Ordering,
    {
        if ranks.is_empty() {
            return;
        }
        *max_depth = (*max_depth).max(depth);
        let mid = ranks.len() / 2;
        // Select the middle rank within this sub-problem.
        let local_rank = ranks[mid] - (a_off + b_off);
        let (i, c) = co_rank_counted(local_rank, a, b, cmp);
        *comparisons += c as u64;
        let j = local_rank - i;
        slots[mid] = (a_off + i, b_off + j);
        // Left ranks live entirely in the prefixes, right ranks in the
        // suffixes — the multiselection sharing.
        let (left_ranks, rest) = ranks.split_at(mid);
        let right_ranks = &rest[1..];
        let (left_slots, rest_slots) = slots.split_at_mut(mid);
        let right_slots = &mut rest_slots[1..];
        go(
            &a[..i],
            &b[..j],
            a_off,
            b_off,
            left_ranks,
            left_slots,
            cmp,
            comparisons,
            depth + 1,
            max_depth,
        );
        go(
            &a[i..],
            &b[j..],
            a_off + i,
            b_off + j,
            right_ranks,
            right_slots,
            cmp,
            comparisons,
            depth + 1,
            max_depth,
        );
    }
    go(
        a,
        b,
        0,
        0,
        ranks,
        &mut out,
        cmp,
        &mut comparisons,
        0,
        &mut max_depth,
    );
    (out, comparisons, max_depth)
}

/// Partitions the merge into `p` equisized jobs via multiselection.
pub fn multiselect_partition<T: Ord>(a: &[T], b: &[T], p: usize) -> MultiselectPartition {
    assert!(p > 0, "at least one processor required");
    let cmp = |x: &T, y: &T| x.cmp(y);
    let n = a.len() + b.len();
    let ranks: Vec<usize> = (1..p).map(|k| segment_boundary(n, p, k)).collect();
    let (points, search_comparisons, rounds) = multiselect_by(a, b, &ranks, &cmp);
    let mut full = Vec::with_capacity(p + 1);
    full.push((0, 0));
    full.extend(points);
    full.push((a.len(), b.len()));
    let segments = full
        .windows(2)
        .map(|w| Segment {
            a_start: w[0].0,
            a_end: w[1].0,
            b_start: w[0].1,
            b_end: w[1].1,
            out_start: w[0].0 + w[0].1,
            out_end: w[1].0 + w[1].1,
        })
        .collect();
    MultiselectPartition {
        segments,
        search_comparisons,
        rounds,
    }
}

/// Parallel merge using the multiselection partition.
pub fn multiselect_merge_into<T>(a: &[T], b: &[T], out: &mut [T], p: usize)
where
    T: Ord + Clone + Send + Sync,
{
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "output length must equal |A| + |B|"
    );
    let partition = multiselect_partition(a, b, p);
    let cmp = |x: &T, y: &T| x.cmp(y);
    std::thread::scope(|scope| {
        let mut rest = out;
        for (idx, s) in partition.segments.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(s.len());
            rest = tail;
            let (sa, sb) = (&a[s.a_start..s.a_end], &b[s.b_start..s.b_end]);
            let mut work = move || merge_into_by(sa, sb, chunk, &cmp);
            if idx + 1 == partition.segments.len() {
                work();
            } else {
                scope.spawn(work);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath::partition::partition_segments;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    fn oracle(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut out = vec![0; a.len() + b.len()];
        mergepath::merge::sequential::merge_into(a, b, &mut out);
        out
    }

    #[test]
    fn same_segments_as_merge_path() {
        // Both partitioners cut at the same equispaced output ranks with
        // the same stable tie-break, so the segments must be identical.
        let a: Vec<i64> = (0..3000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..2500).map(|x| (x * 3) % 4001).collect::<Vec<_>>();
        let b = sorted(b);
        for p in [1usize, 2, 5, 12] {
            let ms = multiselect_partition(&a, &b, p);
            let mp = partition_segments(&a, &b, p);
            assert_eq!(ms.segments, mp, "p={p}");
        }
    }

    #[test]
    fn merge_is_correct() {
        let a: Vec<i64> = (0..2222).collect();
        let b: Vec<i64> = (0..3333).map(|x| x * 2 - 1000).collect();
        for p in [1usize, 3, 8] {
            let mut out = vec![0; 5555];
            multiselect_merge_into(&a, &b, &mut out, p);
            assert_eq!(out, oracle(&a, &b), "p={p}");
        }
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let a: Vec<i64> = (0..8192).collect();
        let b: Vec<i64> = (0..8192).map(|x| x + 5).collect();
        for (p, max_rounds) in [(2usize, 1u32), (8, 3), (16, 4), (64, 6)] {
            let ms = multiselect_partition(&a, &b, p);
            assert!(
                ms.rounds <= max_rounds,
                "p={p}: rounds {} > {max_rounds}",
                ms.rounds
            );
        }
    }

    #[test]
    fn shared_recursion_saves_comparisons_at_high_p() {
        // The deeper selections search shrunken sub-arrays, so the total
        // comparison count should undercut p−1 independent full searches.
        let a: Vec<i64> = (0..1 << 16).collect();
        let b: Vec<i64> = (0..1 << 16).map(|x| x * 2).collect();
        let p = 256;
        let ms = multiselect_partition(&a, &b, p);
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        let mp =
            mergepath::partition::partition_segments_counted(a.as_slice(), b.as_slice(), p, &cmp);
        let mp_total: u64 = mp.comparisons.iter().map(|&c| c as u64).sum();
        assert!(
            ms.search_comparisons < mp_total,
            "multiselect {} should undercut independent searches {}",
            ms.search_comparisons,
            mp_total
        );
    }

    proptest! {
        #[test]
        fn always_equals_stable_merge(
            a in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            p in 1usize..10,
        ) {
            let mut out = vec![0; a.len() + b.len()];
            multiselect_merge_into(&a, &b, &mut out, p);
            prop_assert_eq!(out, oracle(&a, &b));
        }

        #[test]
        fn arbitrary_rank_lists(
            a in proptest::collection::vec(-50i64..50, 0..100).prop_map(sorted),
            b in proptest::collection::vec(-50i64..50, 0..100).prop_map(sorted),
            mut ranks in proptest::collection::vec(0usize..200, 0..10),
        ) {
            let n = a.len() + b.len();
            for r in &mut ranks {
                *r %= n + 1;
            }
            ranks.sort();
            let cmp = |x: &i64, y: &i64| x.cmp(y);
            let (points, _, _) = multiselect_by(&a, &b, &ranks, &cmp);
            for (&r, &(i, j)) in ranks.iter().zip(&points) {
                prop_assert_eq!(i + j, r);
                prop_assert_eq!(
                    i,
                    mergepath::diagonal::co_rank(r, &a, &b),
                    "rank {}", r
                );
            }
        }
    }
}
