//! The Merge Path (paper, §II.A–II.B) as an explicit object.
//!
//! Construction of the path is equivalent to performing the whole merge, so
//! the algorithms never build it — but the tests do, because the paper's
//! lemmas are statements *about* the path. This module constructs the path
//! by the stable-merge walk (Lemma 1), exposes its segments, and provides
//! executable checks of Lemmas 1–4 and Proposition 13.

use core::cmp::Ordering;

/// One step of a merge path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Consume an element of `A` (a downward move in the paper's grid).
    Down,
    /// Consume an element of `B` (a rightward move).
    Right,
}

/// An explicitly-constructed merge path: the sequence of grid points
/// `(i, j)` from `(0, 0)` to `(|A|, |B|)`, where `i` counts consumed
/// elements of `A` and `j` of `B`.
///
/// # Examples
/// ```
/// use mergepath::path::MergePath;
/// let p = MergePath::construct(&[1, 3], &[2]);
/// assert_eq!(p.points(), [(0, 0), (1, 0), (1, 1), (2, 1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePath {
    points: Vec<(usize, usize)>,
}

impl MergePath {
    /// Constructs the path of the stable merge of `a` and `b` (Lemma 1
    /// walk) using the natural order.
    pub fn construct<T: Ord>(a: &[T], b: &[T]) -> Self {
        Self::construct_by(a, b, &|x: &T, y: &T| x.cmp(y))
    }

    /// [`MergePath::construct`] with a caller-supplied comparator.
    pub fn construct_by<T, F>(a: &[T], b: &[T], cmp: &F) -> Self
    where
        F: Fn(&T, &T) -> Ordering,
    {
        let (na, nb) = (a.len(), b.len());
        let mut points = Vec::with_capacity(na + nb + 1);
        let (mut i, mut j) = (0usize, 0usize);
        points.push((0, 0));
        while i < na || j < nb {
            // Paper (0-based): move down (consume A) unless A[i] > B[j].
            if i < na && (j >= nb || cmp(&a[i], &b[j]) != Ordering::Greater) {
                i += 1;
            } else {
                j += 1;
            }
            points.push((i, j));
        }
        MergePath { points }
    }

    /// The grid points of the path, `|A| + |B| + 1` of them.
    pub fn points(&self) -> &[(usize, usize)] {
        &self.points
    }

    /// Number of steps (`|A| + |B|`).
    pub fn len(&self) -> usize {
        self.points.len() - 1
    }

    /// Returns `true` for the empty path (both inputs empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lemma 8: the `d`-th point of the path lies on cross diagonal `d`.
    pub fn point_on_diagonal(&self, d: usize) -> (usize, usize) {
        self.points[d]
    }

    /// The sequence of moves along the path.
    pub fn moves(&self) -> impl Iterator<Item = Move> + '_ {
        self.points.windows(2).map(|w| {
            if w[1].0 > w[0].0 {
                Move::Down
            } else {
                Move::Right
            }
        })
    }

    /// The sub-arrays covered by path steps `lo..hi` (Lemma 2: both are
    /// contiguous ranges). Returned as `(a_range, b_range)`.
    pub fn segment(
        &self,
        lo: usize,
        hi: usize,
    ) -> (core::ops::Range<usize>, core::ops::Range<usize>) {
        let (i0, j0) = self.points[lo];
        let (i1, j1) = self.points[hi];
        (i0..i1, j0..j1)
    }

    /// Lemma 1: replaying the path's moves against the inputs reproduces
    /// the stable merge.
    pub fn replay<'a, T>(&self, a: &'a [T], b: &'a [T]) -> Vec<&'a T> {
        assert_eq!(self.len(), a.len() + b.len(), "path does not fit inputs");
        let mut out = Vec::with_capacity(self.len());
        let (mut i, mut j) = (0usize, 0usize);
        for m in self.moves() {
            match m {
                Move::Down => {
                    out.push(&a[i]);
                    i += 1;
                }
                Move::Right => {
                    out.push(&b[j]);
                    j += 1;
                }
            }
        }
        out
    }
}

/// Proposition 13 oracle: scans cross diagonal `d` of the merge matrix for
/// the transition point the proposition describes, in `O(diagonal length)`.
///
/// This is the brute-force counterpart of the `O(log)` search of
/// [`co_rank_by`](crate::diagonal::co_rank_by); the test suite asserts they always agree.
pub fn diagonal_transition_bruteforce<T, F>(d: usize, a: &[T], b: &[T], cmp: &F) -> (usize, usize)
where
    F: Fn(&T, &T) -> Ordering,
{
    // Path point (i, j) on diagonal d: i elements of A and j of B consumed,
    // i + j = d. Valid i per the split conditions, found by linear scan.
    let lo = d.saturating_sub(b.len());
    let hi = d.min(a.len());
    for i in lo..=hi {
        if crate::diagonal::split_is_valid(d, a, b, cmp, i) {
            return (i, d - i);
        }
    }
    unreachable!("every diagonal has exactly one transition point");
}

/// Executable form of Lemma 4: all elements of the later path segment are
/// `>=` all elements of the earlier one.
pub fn lemma4_holds<T: Ord>(path: &MergePath, a: &[T], b: &[T], cut: usize) -> bool {
    let (ar1, br1) = path.segment(0, cut);
    let (ar2, br2) = path.segment(cut, path.len());
    let early_max = a[ar1.clone()].iter().chain(&b[br1.clone()]).max();
    let late_min = a[ar2.clone()].iter().chain(&b[br2.clone()]).min();
    match (early_max, late_min) {
        (Some(hi), Some(lo)) => lo >= hi,
        _ => true, // an empty side imposes no constraint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagonal::co_rank_by;
    use crate::matrix::MergeMatrix;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    #[test]
    fn construct_simple() {
        let a = [1, 3];
        let b = [2];
        let p = MergePath::construct(&a, &b);
        assert_eq!(p.points(), [(0, 0), (1, 0), (1, 1), (2, 1)]);
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.moves().collect::<Vec<_>>(),
            [Move::Down, Move::Right, Move::Down]
        );
    }

    #[test]
    fn empty_path() {
        let a: [i64; 0] = [];
        let p = MergePath::construct(&a, &a);
        assert!(p.is_empty());
        assert_eq!(p.points(), [(0, 0)]);
    }

    #[test]
    fn lemma_1_replay_reproduces_merge() {
        let a = [1, 4, 6, 9];
        let b = [2, 4, 7];
        let p = MergePath::construct(&a, &b);
        let merged: Vec<i64> = p.replay(&a, &b).into_iter().copied().collect();
        assert_eq!(merged, [1, 2, 4, 4, 6, 7, 9]);
        // Stability: the tied 4 from A (index 1) precedes B's 4.
        let moves: Vec<Move> = p.moves().collect();
        assert_eq!(moves[2], Move::Down);
        assert_eq!(moves[3], Move::Right);
    }

    #[test]
    fn lemma_8_points_lie_on_their_diagonals() {
        let a: Vec<i64> = (0..30).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..20).map(|x| x * 3 + 1).collect();
        let p = MergePath::construct(&a, &b);
        for (d, &(i, j)) in p.points().iter().enumerate() {
            assert_eq!(i + j, d, "Lemma 8 violated at step {d}");
        }
    }

    #[test]
    fn segment_returns_contiguous_ranges() {
        let a: Vec<i64> = (0..10).collect();
        let b: Vec<i64> = (0..10).map(|x| x + 5).collect();
        let p = MergePath::construct(&a, &b);
        let (ra, rb) = p.segment(5, 15);
        assert_eq!(ra.len() + rb.len(), 10);
        // Lemma 2 is implicit in the Range return type; verify bounds.
        assert!(ra.end <= a.len() && rb.end <= b.len());
    }

    proptest! {
        #[test]
        fn proposition_13_search_equals_bruteforce(
            a in proptest::collection::vec(-50i64..50, 0..60).prop_map(sorted),
            b in proptest::collection::vec(-50i64..50, 0..60).prop_map(sorted),
        ) {
            let cmp = |x: &i64, y: &i64| x.cmp(y);
            let p = MergePath::construct_by(&a, &b, &cmp);
            for d in 0..=a.len() + b.len() {
                let fast = co_rank_by(d, a.as_slice(), b.as_slice(), &cmp);
                let brute = diagonal_transition_bruteforce(d, &a, &b, &cmp);
                prop_assert_eq!((fast, d - fast), brute);
                // And both equal the explicitly-constructed path's point.
                prop_assert_eq!(p.point_on_diagonal(d), brute);
            }
        }

        #[test]
        fn lemma_4_any_cut(
            a in proptest::collection::vec(-50i64..50, 0..60).prop_map(sorted),
            b in proptest::collection::vec(-50i64..50, 0..60).prop_map(sorted),
            frac in 0.0f64..=1.0,
        ) {
            let p = MergePath::construct(&a, &b);
            let cut = ((p.len() as f64) * frac) as usize;
            prop_assert!(lemma4_holds(&p, &a, &b, cut.min(p.len())));
        }

        #[test]
        fn replay_matches_merge_kernel(
            a in proptest::collection::vec(-100i64..100, 0..100).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..100).prop_map(sorted),
        ) {
            let p = MergePath::construct(&a, &b);
            let via_path: Vec<i64> = p.replay(&a, &b).into_iter().copied().collect();
            let mut via_kernel = vec![0i64; a.len() + b.len()];
            crate::merge::sequential::merge_into(&a, &b, &mut via_kernel);
            prop_assert_eq!(via_path, via_kernel);
        }

        #[test]
        fn matrix_path_boundary(
            a in proptest::collection::vec(-20i64..20, 1..25).prop_map(sorted),
            b in proptest::collection::vec(-20i64..20, 1..25).prop_map(sorted),
        ) {
            // The path separates the matrix: entries strictly below-left of
            // the path are 1, entries above-right are 0 (Prop. 13 geometry).
            let m = MergeMatrix::new(&a, &b);
            let p = MergePath::construct(&a, &b);
            for &(i, j) in p.points() {
                // Entry up-right of a path corner must be 0 when in range.
                if i > 0 && j < b.len() {
                    prop_assert!(!m.entry(i - 1, j), "corner ({i},{j})");
                }
                // Entry down-left of a path corner must be 1 when in range.
                if i < a.len() && j > 0 {
                    prop_assert!(m.entry(i, j - 1), "corner ({i},{j})");
                }
            }
        }
    }
}
