//! Order statistics of the union of two sorted arrays, via the diagonal
//! search.
//!
//! The co-rank split does more than partition merges: the intersection of
//! the merge path with diagonal `k + 1` *is* a selection — the k-th
//! smallest element of `A ∪ B` in `O(log min(|A|, |B|))` comparisons,
//! without merging anything. This is the primitive the Akl–Santoro
//! baseline (paper, ref \[5\]) builds its median bisection from, exposed
//! here as a first-class API (median of two sorted arrays, percentiles,
//! …).

use core::cmp::Ordering;

use crate::diagonal::co_rank_by;

/// Returns the `k`-th smallest element (0-indexed) of the union of the two
/// sorted slices, in `O(log min(|a|, |b|))` time.
///
/// Duplicates count with multiplicity, exactly as in the merged sequence.
///
/// # Panics
/// Panics if `k >= a.len() + b.len()`.
///
/// # Examples
/// ```
/// use mergepath::select::kth_of_union;
/// let a = [1, 3, 5, 7];
/// let b = [2, 4, 6];
/// // Merged: 1 2 3 4 5 6 7
/// assert_eq!(*kth_of_union(&a, &b, 0), 1);
/// assert_eq!(*kth_of_union(&a, &b, 3), 4);
/// assert_eq!(*kth_of_union(&a, &b, 6), 7);
/// ```
pub fn kth_of_union<'a, T: Ord>(a: &'a [T], b: &'a [T], k: usize) -> &'a T {
    kth_of_union_by(a, b, k, &|x: &T, y: &T| x.cmp(y))
}

/// [`kth_of_union`] with a caller-supplied comparator.
pub fn kth_of_union_by<'a, T, F>(a: &'a [T], b: &'a [T], k: usize, cmp: &F) -> &'a T
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = a.len() + b.len();
    assert!(k < n, "selection index {k} out of range 0..{n}");
    // The stable merge's first k+1 elements take i from `a`, j from `b`;
    // the (k+1)-th (i.e. k-th, 0-indexed) is the later of the two prefix
    // maxima in merge order.
    let i = co_rank_by(k + 1, a, b, cmp);
    let j = (k + 1) - i;
    match (i, j) {
        (0, _) => &b[j - 1],
        (_, 0) => &a[i - 1],
        _ => {
            // Ties go to `a` first in the merge, so when equal the element
            // at position k is the one from `b`.
            if cmp(&a[i - 1], &b[j - 1]) == Ordering::Greater {
                &a[i - 1]
            } else {
                &b[j - 1]
            }
        }
    }
}

/// The lower median of the union (element at index `⌈n/2⌉ − 1`, matching
/// the usual "median of two sorted arrays" convention for even `n`).
///
/// # Panics
/// Panics if both slices are empty.
///
/// # Examples
/// ```
/// use mergepath::select::median_of_union;
/// assert_eq!(*median_of_union(&[1, 7, 9], &[2, 4]), 4);
/// ```
pub fn median_of_union<'a, T: Ord>(a: &'a [T], b: &'a [T]) -> &'a T {
    let n = a.len() + b.len();
    assert!(n > 0, "median of an empty union");
    kth_of_union(a, b, n.div_ceil(2) - 1)
}

/// Both median elements for an even-sized union (`(lower, upper)`), or the
/// single median twice for an odd-sized one — callers averaging numeric
/// medians want both.
pub fn medians_of_union<'a, T: Ord>(a: &'a [T], b: &'a [T]) -> (&'a T, &'a T) {
    let n = a.len() + b.len();
    assert!(n > 0, "median of an empty union");
    if n % 2 == 1 {
        let m = kth_of_union(a, b, n / 2);
        (m, m)
    } else {
        (kth_of_union(a, b, n / 2 - 1), kth_of_union(a, b, n / 2))
    }
}

/// The `(q+1)/quantiles` quantile boundary of the union: the element at
/// position `⌊(q+1)·n/quantiles⌋ − 1`. For example `q = 0, quantiles = 4`
/// is the first-quartile boundary and `q = quantiles − 1` the maximum.
///
/// # Panics
/// Panics if the union is empty, `quantiles == 0`, or `q >= quantiles`.
pub fn quantile_of_union<'a, T: Ord>(a: &'a [T], b: &'a [T], q: usize, quantiles: usize) -> &'a T {
    let n = a.len() + b.len();
    assert!(n > 0, "quantile of an empty union");
    assert!(
        quantiles > 0 && q < quantiles,
        "quantile index out of range"
    );
    let pos = quantile_position(n, q, quantiles);
    kth_of_union(a, b, pos)
}

/// Selection index of the `(q+1)/quantiles` boundary in a union of `n`
/// elements. Widened to `u128` so `(q + 1) * n` cannot overflow `usize`
/// at paper-scale inputs (the same discipline as
/// `partition::segment_boundary`).
fn quantile_position(n: usize, q: usize, quantiles: usize) -> usize {
    let scaled = ((q as u128 + 1) * n as u128 / quantiles as u128) as usize;
    scaled.saturating_sub(1).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    fn union_sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut all: Vec<i64> = a.iter().chain(b).copied().collect();
        all.sort();
        all
    }

    #[test]
    fn kth_basic() {
        let a = [1, 3, 5, 7];
        let b = [2, 4, 6];
        let merged = union_sorted(&a, &b);
        for (k, expect) in merged.iter().enumerate() {
            assert_eq!(*kth_of_union(&a, &b, k), *expect, "k={k}");
        }
    }

    #[test]
    fn kth_one_sided() {
        let a = [10, 20, 30];
        let empty: [i32; 0] = [];
        assert_eq!(*kth_of_union(&a, &empty, 1), 20);
        assert_eq!(*kth_of_union(&empty, &a, 2), 30);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kth_out_of_range() {
        kth_of_union(&[1], &[2], 2);
    }

    #[test]
    fn medians() {
        // Odd total.
        assert_eq!(*median_of_union(&[1, 3], &[2]), 2);
        // Even total: lower median.
        assert_eq!(*median_of_union(&[1, 3], &[2, 4]), 2);
        let (lo, hi) = medians_of_union(&[1, 3], &[2, 4]);
        assert_eq!((*lo, *hi), (2, 3));
        let (lo, hi) = medians_of_union(&[1, 3], &[2]);
        assert_eq!((*lo, *hi), (2, 2));
    }

    #[test]
    fn median_with_heavy_ties() {
        let a = [5i64; 100];
        let b = [5i64; 77];
        assert_eq!(*median_of_union(&a, &b), 5);
    }

    #[test]
    fn quantiles() {
        let a: Vec<i64> = (0..50).collect();
        let b: Vec<i64> = (50..100).collect();
        // Quartile boundaries of 0..100.
        assert_eq!(*quantile_of_union(&a, &b, 0, 4), 24);
        assert_eq!(*quantile_of_union(&a, &b, 1, 4), 49);
        assert_eq!(*quantile_of_union(&a, &b, 2, 4), 74);
    }

    #[test]
    fn quantile_position_no_overflow_at_paper_scale() {
        // (q + 1) * n used to be computed in usize; with n near usize::MAX
        // and many quantiles the product wraps and the boundary collapses
        // to a tiny index. The u128 widening keeps it exact.
        let n = usize::MAX - 7;
        let quantiles = 1024;
        for q in [0usize, 1, 511, 1022, 1023] {
            let expect = (((q as u128 + 1) * n as u128) / quantiles as u128) as usize;
            let expect = expect.saturating_sub(1).min(n - 1);
            assert_eq!(quantile_position(n, q, quantiles), expect, "q={q}");
        }
        // Last boundary is always the maximum element.
        assert_eq!(quantile_position(n, quantiles - 1, quantiles), n - 1);
        // Monotone across q even at the overflow scale.
        let mut prev = 0;
        for q in 0..quantiles {
            let pos = quantile_position(n, q, quantiles);
            assert!(pos >= prev, "q={q}: {pos} < {prev}");
            prev = pos;
        }
    }

    #[test]
    #[should_panic(expected = "empty union")]
    fn median_of_empty_panics() {
        let e: [i64; 0] = [];
        median_of_union(&e, &e);
    }

    proptest! {
        #[test]
        fn kth_matches_sorted_union(
            a in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            frac in 0.0f64..1.0,
        ) {
            prop_assume!(!a.is_empty() || !b.is_empty());
            let merged = union_sorted(&a, &b);
            let k = ((merged.len() as f64) * frac) as usize;
            let k = k.min(merged.len() - 1);
            prop_assert_eq!(*kth_of_union(&a, &b, k), merged[k]);
        }

        #[test]
        fn every_k_matches(
            a in proptest::collection::vec(-20i64..20, 0..60).prop_map(sorted),
            b in proptest::collection::vec(-20i64..20, 0..60).prop_map(sorted),
        ) {
            let merged = union_sorted(&a, &b);
            for (k, expect) in merged.iter().enumerate() {
                prop_assert_eq!(*kth_of_union(&a, &b, k), *expect, "k={}", k);
            }
        }
    }
}
