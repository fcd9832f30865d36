//! Akl–Santoro recursive median bisection (the paper's reference \[5\]).
//!
//! The original EREW algorithm finds the pair of positions `(i, j)` that
//! split the merged output at its median, then recurses on the two halves
//! with half the processors each — `O(log p)` sequential rounds of
//! `O(log N)` median searches, after which the `p` sub-array pairs are
//! merged independently and concatenated. Total time
//! `O(N/p + log N · log p)`: slightly worse than Merge Path's
//! `O(N/p + log N)` because the partition rounds are *dependent* (each
//! level needs the previous level's split), whereas Merge Path computes all
//! `p − 1` cut points independently. That asymptotic gap is the paper's §V
//! comparison, reproduced by the `c1_complexity` experiment.

use core::cmp::Ordering;

use mergepath::diagonal::co_rank_counted;
use mergepath::merge::sequential::merge_into_by;
use mergepath::partition::Segment;

/// The partition produced by the recursive bisection, plus the number of
/// *sequential rounds* of searches it needed (the `log p` factor).
#[derive(Debug, Clone)]
pub struct BisectionPartition {
    /// The `p` merge jobs, in output order.
    pub segments: Vec<Segment>,
    /// Depth of the recursion (sequential search rounds).
    pub rounds: u32,
    /// Total comparisons spent in median searches.
    pub search_comparisons: u64,
}

/// Recursively bisects the merge of `a` and `b` into `p` jobs.
///
/// Processor counts are split as evenly as possible at each level
/// (`⌈p/2⌉ / ⌊p/2⌋`), and the cut rank is proportional so job sizes stay
/// within one element of `(|A|+|B|)/p`.
pub fn bisect_partition<T: Ord>(a: &[T], b: &[T], p: usize) -> BisectionPartition {
    assert!(p > 0, "at least one processor required");
    let cmp = |x: &T, y: &T| x.cmp(y);
    let mut segments = Vec::with_capacity(p);
    let mut comparisons = 0u64;
    let mut max_depth = 0u32;
    // Recursive worker over (a-range, b-range, processors, depth).
    #[allow(clippy::too_many_arguments)]
    fn go<T, F>(
        a: &[T],
        b: &[T],
        a_off: usize,
        b_off: usize,
        p: usize,
        depth: u32,
        cmp: &F,
        segments: &mut Vec<Segment>,
        comparisons: &mut u64,
        max_depth: &mut u32,
    ) where
        F: Fn(&T, &T) -> Ordering,
    {
        *max_depth = (*max_depth).max(depth);
        if p == 1 {
            segments.push(Segment {
                a_start: a_off,
                a_end: a_off + a.len(),
                b_start: b_off,
                b_end: b_off + b.len(),
                out_start: a_off + b_off,
                out_end: a_off + b_off + a.len() + b.len(),
            });
            return;
        }
        let n = a.len() + b.len();
        let left_p = p.div_ceil(2);
        // Proportional cut keeps leaf jobs equisized even for odd p.
        let k = (n as u128 * left_p as u128 / p as u128) as usize;
        let (i, c) = co_rank_counted(k, a, b, cmp);
        *comparisons += c as u64;
        let j = k - i;
        go(
            &a[..i],
            &b[..j],
            a_off,
            b_off,
            left_p,
            depth + 1,
            cmp,
            segments,
            comparisons,
            max_depth,
        );
        go(
            &a[i..],
            &b[j..],
            a_off + i,
            b_off + j,
            p - left_p,
            depth + 1,
            cmp,
            segments,
            comparisons,
            max_depth,
        );
    }
    go(
        a,
        b,
        0,
        0,
        p,
        0,
        &cmp,
        &mut segments,
        &mut comparisons,
        &mut max_depth,
    );
    BisectionPartition {
        segments,
        rounds: max_depth,
        search_comparisons: comparisons,
    }
}

/// Parallel merge via the bisection partition (correct and balanced, but
/// with `log p` dependent partition rounds).
pub fn akl_santoro_merge_into<T>(a: &[T], b: &[T], out: &mut [T], p: usize)
where
    T: Ord + Clone + Send + Sync,
{
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "output length must equal |A| + |B|"
    );
    let partition = bisect_partition(a, b, p);
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
    fn merge_is_correct() {
        let a: Vec<i64> = (0..1111).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..999).map(|x| x * 3 + 1).collect();
        for p in [1, 2, 3, 5, 8, 12] {
            let mut out = vec![0; 2110];
            akl_santoro_merge_into(&a, &b, &mut out, p);
            assert_eq!(out, oracle(&a, &b), "p={p}");
        }
    }

    #[test]
    fn partition_is_balanced() {
        let a: Vec<i64> = (0..4000).collect();
        let b: Vec<i64> = (0..4000).map(|x| x + 7).collect();
        for p in [2, 3, 7, 8] {
            let part = bisect_partition(&a, &b, p);
            assert_eq!(part.segments.len(), p);
            let max = part.segments.iter().map(|s| s.len()).max().unwrap();
            let min = part.segments.iter().map(|s| s.len()).min().unwrap();
            assert!(max - min <= 1, "p={p}: max={max} min={min}");
        }
    }

    #[test]
    fn rounds_are_logarithmic_in_p() {
        let a: Vec<i64> = (0..1024).collect();
        let b: Vec<i64> = (0..1024).map(|x| x + 3).collect();
        for (p, expect) in [(1, 0), (2, 1), (4, 2), (8, 3), (12, 4)] {
            let part = bisect_partition(&a, &b, p);
            assert_eq!(part.rounds, expect, "p={p}");
        }
    }

    #[test]
    fn dependent_rounds_vs_mergepath_independence() {
        // The structural difference the paper emphasizes: Akl–Santoro needs
        // `rounds` SEQUENTIAL search phases; Merge Path needs exactly one
        // (all its searches are independent). We witness it through the
        // partition metadata.
        let a: Vec<i64> = (0..10_000).collect();
        let b: Vec<i64> = (0..10_000).map(|x| x * 2).collect();
        let part = bisect_partition(&a, &b, 8);
        assert_eq!(part.rounds, 3); // log2(8) dependent rounds
        assert!(part.search_comparisons > 0);
    }

    #[test]
    fn segments_are_in_output_order() {
        let a: Vec<i64> = (0..500).collect();
        let b: Vec<i64> = (250..750).collect();
        let part = bisect_partition(&a, &b, 6);
        let mut expected_start = 0;
        for s in &part.segments {
            assert_eq!(s.out_start, expected_start);
            expected_start = s.out_end;
        }
        assert_eq!(expected_start, 1000);
    }

    proptest! {
        #[test]
        fn always_equals_stable_merge(
            a in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            p in 1usize..10,
        ) {
            let mut out = vec![0; a.len() + b.len()];
            akl_santoro_merge_into(&a, &b, &mut out, p);
            prop_assert_eq!(out, oracle(&a, &b));
        }
    }
}
