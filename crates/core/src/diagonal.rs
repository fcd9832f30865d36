//! The cross-diagonal binary search (paper, §II.B–II.D, Theorem 14).
//!
//! The `k`-th point of a Merge Path lies on the `k`-th cross diagonal of the
//! Merge Matrix (Lemma 8), and along any cross diagonal the entries
//! `M[i, j] = (A[i] > B[j])` form a monotonically non-increasing sequence
//! (Corollary 12). The intersection of the path with a diagonal is therefore
//! the unique `1 → 0` transition point on that diagonal, and a binary search
//! finds it in at most `log2(min(|A|, |B|)) + 1` comparisons — without
//! constructing either the path or the matrix (Theorem 14).
//!
//! We expose the search as a **co-rank**: [`co_rank`]`(k, a, b)` returns the
//! number `i` of elements the *stable* merge of `a` and `b` takes from `a`
//! among its first `k` outputs. The point on the `k`-th diagonal is then
//! `(i, k - i)`.
//!
//! [`co_rank_probed`] is the one search loop: a classical `lo/hi` binary
//! search over the diagonal, property-tested against a walk of the stable
//! merge, that reports each element it reads to a [`Probe`].
//! [`co_rank_by`] runs it under [`NoProbe`], which compiles away, and
//! [`co_rank_counted`] under a counting probe, to report its comparisons;
//! the cache simulator replays it with a tracing probe. All are
//! `O(log min(|A|, |B|))`.
//!
//! # Stability
//!
//! Ties are broken toward `A`: a split `(i, j)` is valid iff
//!
//! * `i == 0 || j == |B| || A[i-1] <= B[j]`  (every taken `A` ≤ every untaken `B`), and
//! * `j == 0 || i == |A| || B[j-1] <  A[i]`  (every taken `B` strictly < every untaken `A`).
//!
//! The strict `<` in the second condition is what makes the overall merge
//! stable — equal elements of `B` must not overtake equal elements of `A`.

use core::cmp::Ordering;

use crate::probe::{CountingProbe, NoProbe, Probe};
use crate::view::SortedView;

/// Returns the co-rank of `k` in the stable merge of `a` and `b` using the
/// natural order of `T`.
///
/// Given `k ∈ [0, |a| + |b|]`, the first `k` elements of the stable merge of
/// `a` and `b` consist of exactly `co_rank(k, a, b)` elements of `a` followed
/// (in merged order) by `k - co_rank(k, a, b)` elements of `b`.
///
/// Runs in `O(log min(|a|, |b|))` comparisons; uses no extra memory.
///
/// # Panics
/// Panics if `k > a.len() + b.len()`.
///
/// # Examples
/// ```
/// use mergepath::diagonal::co_rank;
/// let a = [1, 3, 5, 7];
/// let b = [2, 4, 6, 8];
/// // First 4 merged elements are [1, 2, 3, 4]: two from each input.
/// assert_eq!(co_rank(4, &a, &b), 2);
/// ```
pub fn co_rank<T: Ord>(k: usize, a: &[T], b: &[T]) -> usize {
    co_rank_by(k, a, b, &|x: &T, y: &T| x.cmp(y))
}

/// [`co_rank`] with a caller-supplied comparator.
///
/// `cmp` must be a strict weak ordering consistent with the sort order of
/// both inputs. Ties (`Ordering::Equal`) are broken toward `a`.
///
/// The proof of Theorem 14 is a two-sided refinement, the form the GPU
/// descendants of the paper implement: hold a candidate split, and halve
/// the uncertainty interval toward whichever split condition (module docs,
/// *Stability*) the candidate violates. Along a cross diagonal both
/// conditions are monotone (Corollary 12): the first holds exactly for
/// splits at or below the valid one, the second exactly for splits at or
/// above it. So testing the second condition alone at the midpoint decides
/// which half keeps the valid split, and this search does only that.
pub fn co_rank_by<T, A, B, F>(k: usize, a: &A, b: &B, cmp: &F) -> usize
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
{
    co_rank_probed(k, a, b, cmp, &mut NoProbe)
}

/// [`co_rank_by`] that additionally reports the number of comparisons spent,
/// for validating the `≤ log2(min(|A|, |B|)) + 1` bound of Theorem 14.
pub fn co_rank_counted<T, A, B, F>(k: usize, a: &A, b: &B, cmp: &F) -> (usize, u32)
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
{
    let mut probe = CountingProbe::default();
    let i = co_rank_probed(k, a, b, cmp, &mut probe);
    // Each comparison reads one element of `a`.
    (i, probe.reads_a as u32)
}

/// [`co_rank_by`] reporting every element access to a [`Probe`] (used by
/// the cache simulator to replay the partition phase's memory traffic).
///
/// Probe indices are logical view indices; callers rebase them to whole-
/// array or staging-buffer coordinates as needed.
pub fn co_rank_probed<T, A, B, F, P>(k: usize, a: &A, b: &B, cmp: &F, probe: &mut P) -> usize
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
    P: Probe,
{
    let (na, nb) = (a.len(), b.len());
    assert!(
        k <= na + nb,
        "diagonal index {k} out of range 0..={}",
        na + nb
    );
    // Feasible range for i (the number of elements taken from `a`).
    let mut lo = k.saturating_sub(nb);
    let mut hi = k.min(na);
    // Invariant: the valid split index is in [lo, hi].
    // too_small(i) ⇔ B[j-1] >= A[i] (with j = k - i), i.e. the split lets an
    // element of B overtake a smaller-or-equal element of A.
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = k - i;
        // j >= 1 is guaranteed here: i < hi <= k.
        debug_assert!(j >= 1 && i < na);
        probe.read_b(j - 1);
        probe.read_a(i);
        if cmp(b.get(j - 1), a.get(i)) != Ordering::Less {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    debug_assert!(split_is_valid(k, a, b, cmp, lo));
    lo
}

/// Checks the two split-validity conditions for `(i, k - i)`.
///
/// Exposed for tests and for the explicit [`crate::path::MergePath`] oracle.
pub fn split_is_valid<T, A, B, F>(k: usize, a: &A, b: &B, cmp: &F, i: usize) -> bool
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
{
    let (na, nb) = (a.len(), b.len());
    if i > na || i > k || k - i > nb {
        return false;
    }
    let j = k - i;
    let cond_a = i == 0 || j == nb || cmp(a.get(i - 1), b.get(j)) != Ordering::Greater;
    let cond_b = j == 0 || i == na || cmp(b.get(j - 1), a.get(i)) == Ordering::Less;
    cond_a && cond_b
}

/// The intersection of the Merge Path with cross diagonal `d`, as a grid
/// point `(i, j)` with `i + j = d` (paper, Theorem 9 / Proposition 13).
///
/// # Examples
/// ```
/// use mergepath::diagonal::diagonal_intersection;
/// let a = [10, 30, 50];
/// let b = [20, 40];
/// // After 3 merge steps (10, 20, 30) the path sits at 2 from A, 1 from B.
/// assert_eq!(diagonal_intersection(3, &a, &b), (2, 1));
/// ```
pub fn diagonal_intersection<T: Ord>(d: usize, a: &[T], b: &[T]) -> (usize, usize) {
    let i = co_rank(d, a, b);
    (i, d - i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference implementation: walk the stable merge for `k` steps.
    fn oracle_co_rank(k: usize, a: &[i64], b: &[i64]) -> usize {
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..k {
            if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
                i += 1;
            } else {
                j += 1;
            }
        }
        i
    }

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    #[test]
    fn co_rank_interleaved() {
        let a = [1, 3, 5, 7];
        let b = [2, 4, 6, 8];
        for k in 0..=8 {
            assert_eq!(co_rank(k, &a, &b), oracle_co_rank(k, &a, &b), "k={k}");
        }
    }

    #[test]
    fn co_rank_all_a_smaller() {
        let a = [1, 2, 3];
        let b = [10, 20, 30, 40];
        assert_eq!(co_rank(0, &a, &b), 0);
        assert_eq!(co_rank(3, &a, &b), 3);
        assert_eq!(co_rank(5, &a, &b), 3);
        assert_eq!(co_rank(7, &a, &b), 3);
    }

    #[test]
    fn co_rank_all_a_greater() {
        // The paper's motivating counterexample for naive partitioning.
        let a = [100, 200, 300];
        let b = [1, 2, 3, 4];
        assert_eq!(co_rank(4, &a, &b), 0);
        assert_eq!(co_rank(5, &a, &b), 1);
        assert_eq!(co_rank(7, &a, &b), 3);
    }

    #[test]
    fn co_rank_empty_inputs() {
        let a: [i64; 0] = [];
        let b = [1i64, 2, 3];
        assert_eq!(co_rank(2, &a, &b), 0);
        assert_eq!(co_rank(2, &b, &a), 2);
        assert_eq!(co_rank(0, &a, &a), 0);
    }

    #[test]
    fn co_rank_ties_go_to_a() {
        let a = [5, 5, 5];
        let b = [5, 5];
        // Stable merge = a[0] a[1] a[2] b[0] b[1].
        assert_eq!(co_rank(1, &a, &b), 1);
        assert_eq!(co_rank(2, &a, &b), 2);
        assert_eq!(co_rank(3, &a, &b), 3);
        assert_eq!(co_rank(4, &a, &b), 3);
        assert_eq!(co_rank(5, &a, &b), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn co_rank_rejects_out_of_range_diagonal() {
        let a = [1];
        let b = [2];
        co_rank(3, &a, &b);
    }

    #[test]
    fn counted_matches_plain_and_respects_theorem_14_bound() {
        let a: Vec<i64> = (0..1000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..300).map(|x| x * 7 + 1).collect();
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        let bound = (a.len().min(b.len()) as f64).log2().ceil() as u32 + 1;
        for k in (0..=a.len() + b.len()).step_by(13) {
            let (i, steps) = co_rank_counted(k, a.as_slice(), b.as_slice(), &cmp);
            assert_eq!(i, co_rank(k, &a, &b));
            assert!(
                steps <= bound,
                "k={k}: {steps} comparisons exceeds Theorem 14 bound {bound}"
            );
        }
    }

    #[test]
    fn diagonal_intersection_points_are_monotone() {
        let a: Vec<i64> = (0..64).map(|x| x * 3).collect();
        let b: Vec<i64> = (0..48).map(|x| x * 4 + 1).collect();
        let mut prev = (0usize, 0usize);
        for d in 0..=a.len() + b.len() {
            let (i, j) = diagonal_intersection(d, &a, &b);
            assert_eq!(i + j, d);
            assert!(i >= prev.0 && j >= prev.1, "path must move down/right only");
            assert!(i - prev.0 + j - prev.1 <= 1 || d == 0);
            prev = (i, j);
        }
        assert_eq!(prev, (a.len(), b.len()));
    }

    #[test]
    fn co_rank_handles_degenerate_shapes() {
        let a: Vec<i64> = vec![7];
        let b: Vec<i64> = (0..100).collect();
        for k in 0..=101 {
            assert_eq!(co_rank(k, &a, &b), oracle_co_rank(k, &a, &b), "k={k}");
            assert_eq!(
                co_rank(k, &b, &a),
                oracle_co_rank(k, &b, &a),
                "swapped k={k}"
            );
        }
    }

    #[test]
    fn probed_records_accesses() {
        use crate::probe::TraceProbe;
        let a: Vec<i64> = (0..128).collect();
        let b: Vec<i64> = (0..128).map(|x| x + 50).collect();
        let mut probe = TraceProbe::default();
        let i = co_rank_probed(
            128,
            a.as_slice(),
            b.as_slice(),
            &|x, y| x.cmp(y),
            &mut probe,
        );
        assert_eq!(i, co_rank(128, &a, &b));
        assert!(!probe.events.is_empty());
        // Binary search: trace length is 2 accesses per comparison, ≤ 2·(log2(128)+1).
        assert!(probe.events.len() <= 2 * 8);
    }

    proptest! {
        #[test]
        fn co_rank_matches_oracle(
            a in proptest::collection::vec(-1000i64..1000, 0..200).prop_map(sorted),
            b in proptest::collection::vec(-1000i64..1000, 0..200).prop_map(sorted),
            frac in 0.0f64..=1.0,
        ) {
            let k = ((a.len() + b.len()) as f64 * frac) as usize;
            let k = k.min(a.len() + b.len());
            prop_assert_eq!(co_rank(k, &a, &b), oracle_co_rank(k, &a, &b));
        }

        #[test]
        fn split_validity_is_unique(
            a in proptest::collection::vec(-20i64..20, 0..40).prop_map(sorted),
            b in proptest::collection::vec(-20i64..20, 0..40).prop_map(sorted),
        ) {
            let cmp = |x: &i64, y: &i64| x.cmp(y);
            for k in 0..=a.len() + b.len() {
                let valid: Vec<usize> = (0..=a.len())
                    .filter(|&i| i <= k && k - i <= b.len())
                    .filter(|&i| split_is_valid(k, a.as_slice(), b.as_slice(), &cmp, i))
                    .collect();
                prop_assert_eq!(valid.len(), 1, "k={}, valid={:?}", k, valid);
                prop_assert_eq!(valid[0], co_rank(k, &a, &b));
            }
        }

        #[test]
        fn comparison_count_is_logarithmic(
            a in proptest::collection::vec(-10_000i64..10_000, 1..500).prop_map(sorted),
            b in proptest::collection::vec(-10_000i64..10_000, 1..500).prop_map(sorted),
            frac in 0.0f64..=1.0,
        ) {
            let cmp = |x: &i64, y: &i64| x.cmp(y);
            let k = (((a.len() + b.len()) as f64) * frac) as usize;
            let k = k.min(a.len() + b.len());
            let (_, steps) = co_rank_counted(k, a.as_slice(), b.as_slice(), &cmp);
            let bound = (a.len().min(b.len()) as f64).log2().ceil() as u32 + 1;
            prop_assert!(steps <= bound);
        }
    }
}
