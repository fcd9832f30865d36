//! k-way merging via merge-path-style rank partitioning.
//!
//! The paper's partitioning generalizes beyond two inputs: to split a k-way
//! merge among `p` processors, find for each equispaced output rank `r` the
//! per-list *take counts* of the stable k-way merge's first `r` outputs —
//! the k-dimensional analogue of the cross-diagonal intersection. This
//! extension is exactly what the paper's GPU descendants (GPU Merge Path,
//! ModernGPU, Thrust/CUB) build their multi-way primitives on, and what the
//! paper's merge-sort needs once more than two runs are merged per round.
//!
//! * [`kway_rank_split_by`] — the multi-way co-rank: `O(k² log² n)` worst
//!   case, independent per rank (so computable in parallel).
//! * [`LoserTree`] — a tournament loser tree giving `O(log k)` comparisons
//!   per emitted element for the sequential k-way kernel.
//! * [`parallel_kway_merge`] — rank-partitioned parallel k-way merge, each
//!   worker running a private loser tree.

use core::cell::Cell;
use core::cmp::Ordering;

use mergepath_telemetry::{counted_cmp, span, CounterKind, NoRecorder, Recorder, SpanKind};

use crate::executor::{self, SendPtr};
use crate::partition::segment_boundary;

/// Index of the first element of `v` that is `>= key` (lower bound).
pub fn lower_bound_by<T, F>(v: &[T], key: &T, cmp: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    let (mut lo, mut hi) = (0usize, v.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(&v[mid], key) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Index of the first element of `v` that is `> key` (upper bound).
pub fn upper_bound_by<T, F>(v: &[T], key: &T, cmp: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    let (mut lo, mut hi) = (0usize, v.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(&v[mid], key) != Ordering::Greater {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Per-list take counts of the first `r` outputs of the stable k-way merge.
///
/// The stable k-way merge emits, among equal elements, those from
/// lower-indexed lists first. The returned vector `take` satisfies
/// `take[i] <= lists[i].len()`, `Σ take[i] == r`, and the multiset
/// `∪ lists[i][..take[i]]` is exactly the first `r` merged outputs.
///
/// Computed by a pivot-halving search over the lists (no output is
/// materialized), generalizing Theorem 14 to `k` inputs.
///
/// # Panics
/// Panics if `r` exceeds the total number of elements.
///
/// # Examples
/// ```
/// use mergepath::merge::kway::kway_rank_split;
/// let lists: Vec<&[u32]> = vec![&[1, 4, 7], &[2, 5, 8], &[3, 6, 9]];
/// // First 5 merged outputs are 1,2,3,4,5: takes (2, 2, 1).
/// assert_eq!(kway_rank_split(&lists, 5), vec![2, 2, 1]);
/// ```
pub fn kway_rank_split_by<T, F>(lists: &[&[T]], r: usize, cmp: &F) -> Vec<usize>
where
    F: Fn(&T, &T) -> Ordering,
{
    let k = lists.len();
    let total: usize = lists.iter().map(|l| l.len()).sum();
    assert!(r <= total, "rank {r} out of range 0..={total}");
    if r == 0 {
        return vec![0; k];
    }
    if r == total {
        return lists.iter().map(|l| l.len()).collect();
    }
    // Candidate windows: positions that may still hold the boundary value.
    let mut lo: Vec<usize> = vec![0; k];
    let mut hi: Vec<usize> = lists.iter().map(|l| l.len()).collect();
    loop {
        // Pivot from the list with the widest remaining window; its window
        // at least halves every iteration, guaranteeing termination.
        let (imax, width) = (0..k)
            .map(|i| (i, hi[i] - lo[i]))
            .max_by_key(|&(_, w)| w)
            .expect("k >= 1 because 0 < r <= total");
        debug_assert!(width > 0, "windows exhausted before boundary was found");
        let pivot = &lists[imax][lo[imax] + width / 2];
        let lt: usize = lists.iter().map(|l| lower_bound_by(l, pivot, cmp)).sum();
        let le: usize = lists.iter().map(|l| upper_bound_by(l, pivot, cmp)).sum();
        if r <= lt {
            // Boundary value is strictly less than the pivot.
            for i in 0..k {
                hi[i] = hi[i].min(lower_bound_by(lists[i], pivot, cmp)).max(lo[i]);
            }
        } else if r > le {
            // Boundary value is strictly greater than the pivot.
            for i in 0..k {
                lo[i] = lo[i].max(upper_bound_by(lists[i], pivot, cmp)).min(hi[i]);
            }
        } else {
            // lt < r <= le: the pivot's value is the boundary value. Take
            // all strictly-smaller elements, then distribute the remaining
            // ties in list order (the stable tie-break).
            let mut take: Vec<usize> = lists
                .iter()
                .map(|l| lower_bound_by(l, pivot, cmp))
                .collect();
            let mut need = r - lt;
            for i in 0..k {
                let eq = upper_bound_by(lists[i], pivot, cmp) - take[i];
                let t = eq.min(need);
                take[i] += t;
                need -= t;
                if need == 0 {
                    break;
                }
            }
            debug_assert_eq!(need, 0);
            return take;
        }
    }
}

/// [`kway_rank_split_by`] using the natural order.
pub fn kway_rank_split<T: Ord>(lists: &[&[T]], r: usize) -> Vec<usize> {
    kway_rank_split_by(lists, r, &|x: &T, y: &T| x.cmp(y))
}

/// A tournament loser tree over `k` sorted lists.
///
/// Emits the stable k-way merge one element at a time with `O(log k)`
/// comparisons per element (after an `O(k)` build). Exhausted lists lose to
/// every live list; ties are broken by list index (lower index wins), which
/// is what makes the merge stable.
pub struct LoserTree<'a, T, F> {
    lists: Vec<&'a [T]>,
    pos: Vec<usize>,
    /// `node[0]` is the current overall winner; `node[1..k]` hold the losers
    /// of each internal tournament node.
    node: Vec<usize>,
    cmp: &'a F,
    remaining: usize,
}

impl<'a, T, F> LoserTree<'a, T, F>
where
    F: Fn(&T, &T) -> Ordering,
{
    /// Builds a loser tree over `lists`.
    pub fn new(lists: &[&'a [T]], cmp: &'a F) -> Self {
        let k = lists.len();
        let remaining = lists.iter().map(|l| l.len()).sum();
        let mut tree = LoserTree {
            lists: lists.to_vec(),
            pos: vec![0; k],
            node: vec![usize::MAX; k.max(1)],
            cmp,
            remaining,
        };
        if k > 0 {
            tree.node[0] = tree.compete(1);
        }
        tree
    }

    /// Number of elements not yet emitted.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Recursively plays the tournament rooted at internal node `t`,
    /// storing losers and returning the winner.
    fn compete(&mut self, t: usize) -> usize {
        let k = self.lists.len();
        if t >= k {
            return t - k; // leaf: player index
        }
        let w1 = self.compete(2 * t);
        let w2 = self.compete(2 * t + 1);
        let (winner, loser) = if self.beats(w1, w2) {
            (w1, w2)
        } else {
            (w2, w1)
        };
        self.node[t] = loser;
        winner
    }

    /// Does player `x`'s current head beat player `y`'s?
    fn beats(&self, x: usize, y: usize) -> bool {
        let hx = self.lists[x].get(self.pos[x]);
        let hy = self.lists[y].get(self.pos[y]);
        match (hx, hy) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(vx), Some(vy)) => match (self.cmp)(vx, vy) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => x < y,
            },
        }
    }

    /// Emits the next element of the merge, or `None` when all lists are
    /// exhausted.
    pub fn next_ref(&mut self) -> Option<&'a T> {
        if self.remaining == 0 {
            return None;
        }
        let w = self.node[0];
        let item = &self.lists[w][self.pos[w]];
        self.pos[w] += 1;
        self.remaining -= 1;
        // Replay from player w's leaf to the root.
        let k = self.lists.len();
        let mut winner = w;
        let mut t = (w + k) / 2;
        while t > 0 {
            if self.beats(self.node[t], winner) {
                core::mem::swap(&mut self.node[t], &mut winner);
            }
            t /= 2;
        }
        self.node[0] = winner;
        Some(item)
    }
}

impl<'a, T, F> Iterator for LoserTree<'a, T, F>
where
    F: Fn(&T, &T) -> Ordering,
{
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.next_ref()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Stable sequential k-way merge of `lists` into `out` (natural order).
///
/// # Panics
/// Panics if `out.len()` differs from the total input length.
///
/// # Examples
/// ```
/// use mergepath::merge::kway::kway_merge;
/// let lists: Vec<&[u32]> = vec![&[1, 4], &[2, 5], &[3, 6]];
/// let mut out = [0; 6];
/// kway_merge(&lists, &mut out);
/// assert_eq!(out, [1, 2, 3, 4, 5, 6]);
/// ```
pub fn kway_merge<T: Ord + Clone>(lists: &[&[T]], out: &mut [T]) {
    kway_merge_by(lists, out, &|x: &T, y: &T| x.cmp(y));
}

/// [`kway_merge`] with a caller-supplied comparator.
pub fn kway_merge_by<T: Clone, F>(lists: &[&[T]], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    let total: usize = lists.iter().map(|l| l.len()).sum();
    assert!(
        out.len() == total,
        "output buffer length mismatch: expected {total}, got {}",
        out.len()
    );
    let mut tree = LoserTree::new(lists, cmp);
    for slot in out.iter_mut() {
        *slot = tree
            .next_ref()
            .expect("tree yields exactly `total` elements")
            .clone();
    }
    debug_assert!(tree.next_ref().is_none());
}

/// Stable parallel k-way merge: the output is rank-partitioned into
/// `threads` equisized ranges ([`kway_rank_split_by`]), and each worker
/// merges its private sub-lists with a loser tree.
///
/// # Panics
/// Panics if `out.len()` differs from the total input length or
/// `threads == 0`.
pub fn parallel_kway_merge<T>(lists: &[&[T]], out: &mut [T], threads: usize)
where
    T: Ord + Clone + Send + Sync,
{
    parallel_kway_merge_by(lists, out, threads, &|x: &T, y: &T| x.cmp(y), &NoRecorder);
}

/// [`parallel_kway_merge`] with a caller-supplied comparator, reporting
/// spans, counters and per-worker element counts into `rec` (pass
/// [`NoRecorder`] for an untraced merge).
pub fn parallel_kway_merge_by<T, F, R>(
    lists: &[&[T]],
    out: &mut [T],
    threads: usize,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let total: usize = lists.iter().map(|l| l.len()).sum();
    assert!(
        out.len() == total,
        "output buffer length mismatch: expected {total}, got {}",
        out.len()
    );
    assert!(threads > 0, "thread count must be at least 1");
    // One share, run on the caller, when there are no more outputs than
    // threads.
    let shares = if total <= threads { 1 } else { threads };
    // Cut ranks, computed independently (parallelizable, like Algorithm 1's
    // step 2; done here on the calling thread since p is tiny).
    let probes = Cell::new(0u64);
    let splits: Vec<Vec<usize>> = {
        let _partition = span(rec, 0, SpanKind::Partition);
        let counting = counted_cmp(rec, cmp, &probes);
        (0..=shares)
            .map(|t| {
                let _search = span(rec, 0, SpanKind::DiagonalSearch);
                kway_rank_split_by(lists, segment_boundary(total, shares, t), &counting)
            })
            .collect()
    };
    rec.counter_add(0, CounterKind::DiagonalProbeSteps, probes.get());
    rec.counter_add(0, CounterKind::Comparisons, probes.get());
    let base = SendPtr::new(out.as_mut_ptr());
    let splits = &splits;
    executor::global().run_indexed(shares, threads, rec, &|t| {
        let d_lo = segment_boundary(total, shares, t);
        let d_hi = segment_boundary(total, shares, t + 1);
        let lo = &splits[t];
        let hi = &splits[t + 1];
        // SAFETY: `d_lo..d_hi` ranges are disjoint across shares and tile
        // `out` exactly (`d_hi <= total == out.len()`); the pool's end
        // barrier orders the writes before this frame resumes.
        let chunk = unsafe { base.slice_mut(d_lo, d_hi - d_lo) };
        let sub: Vec<&[T]> = lists
            .iter()
            .enumerate()
            .map(|(i, l)| &l[lo[i]..hi[i]])
            .collect();
        for s in &sub {
            executor::note_read_range(s);
        }
        let hits = Cell::new(0u64);
        {
            let _merge = span(rec, t, SpanKind::SegmentMerge);
            kway_merge_by(&sub, chunk, &counted_cmp(rec, cmp, &hits));
        }
        rec.counter_add(t, CounterKind::Comparisons, hits.get());
        rec.worker_items(t, (d_hi - d_lo) as u64);
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

    /// Stability-aware oracle: concatenate in list order, stable-sort by value.
    fn oracle(lists: &[&[i64]]) -> Vec<i64> {
        let mut all: Vec<i64> = lists.iter().flat_map(|l| l.iter().copied()).collect();
        all.sort(); // i64 has no provenance; value order suffices here
        all
    }

    #[test]
    fn lower_upper_bound() {
        let v = [1, 3, 3, 3, 7];
        let cmp = |a: &i32, b: &i32| a.cmp(b);
        assert_eq!(lower_bound_by(&v, &3, &cmp), 1);
        assert_eq!(upper_bound_by(&v, &3, &cmp), 4);
        assert_eq!(lower_bound_by(&v, &0, &cmp), 0);
        assert_eq!(upper_bound_by(&v, &9, &cmp), 5);
        assert_eq!(lower_bound_by(&v, &4, &cmp), 4);
        assert_eq!(upper_bound_by(&v, &4, &cmp), 4);
        let empty: [i32; 0] = [];
        assert_eq!(lower_bound_by(&empty, &1, &cmp), 0);
    }

    #[test]
    fn loser_tree_merges_three_lists() {
        let l1 = [1i64, 4, 7];
        let l2 = [2i64, 5, 8];
        let l3 = [3i64, 6, 9];
        let lists: Vec<&[i64]> = vec![&l1, &l2, &l3];
        let mut out = vec![0; 9];
        kway_merge(&lists, &mut out);
        assert_eq!(out, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn loser_tree_stability_by_list_index() {
        let l1 = [(5, 'a')];
        let l2 = [(5, 'b')];
        let l3 = [(5, 'c')];
        let lists: Vec<&[(i32, char)]> = vec![&l1, &l2, &l3];
        let mut out = [(0, '_'); 3];
        kway_merge_by(&lists, &mut out, &|x, y| x.0.cmp(&y.0));
        assert_eq!(out, [(5, 'a'), (5, 'b'), (5, 'c')]);
    }

    #[test]
    fn kway_degenerate_cases() {
        // Zero lists.
        let lists: Vec<&[i64]> = vec![];
        let mut out: Vec<i64> = vec![];
        kway_merge(&lists, &mut out);
        // One list.
        let l = [1i64, 2, 3];
        let lists: Vec<&[i64]> = vec![&l];
        let mut out = vec![0i64; 3];
        kway_merge(&lists, &mut out);
        assert_eq!(out, [1, 2, 3]);
        // Lists with empties interspersed.
        let e: [i64; 0] = [];
        let lists: Vec<&[i64]> = vec![&e, &l, &e, &l, &e];
        let mut out = vec![0i64; 6];
        kway_merge(&lists, &mut out);
        assert_eq!(out, [1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn rank_split_basics() {
        let l1 = [1i64, 4, 7];
        let l2 = [2i64, 5, 8];
        let l3 = [3i64, 6, 9];
        let lists: Vec<&[i64]> = vec![&l1, &l2, &l3];
        assert_eq!(kway_rank_split(&lists, 0), vec![0, 0, 0]);
        assert_eq!(kway_rank_split(&lists, 9), vec![3, 3, 3]);
        // First 4 outputs are 1,2,3,4 → takes (2,1,1).
        assert_eq!(kway_rank_split(&lists, 4), vec![2, 1, 1]);
    }

    #[test]
    fn rank_split_with_heavy_ties() {
        let l1 = [5i64; 4];
        let l2 = [5i64; 3];
        let l3 = [5i64; 2];
        let lists: Vec<&[i64]> = vec![&l1, &l2, &l3];
        // Ties distribute in list order.
        assert_eq!(kway_rank_split(&lists, 3), vec![3, 0, 0]);
        assert_eq!(kway_rank_split(&lists, 5), vec![4, 1, 0]);
        assert_eq!(kway_rank_split(&lists, 8), vec![4, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_split_rejects_overlong_rank() {
        let l = [1i64];
        let lists: Vec<&[i64]> = vec![&l];
        kway_rank_split(&lists, 2);
    }

    #[test]
    fn parallel_kway_matches_sequential() {
        let lists_data: Vec<Vec<i64>> = (0..6)
            .map(|s| (0..500).map(|x| x * 6 + s).collect())
            .collect();
        let lists: Vec<&[i64]> = lists_data.iter().map(|l| l.as_slice()).collect();
        let expect = oracle(&lists);
        for threads in [1, 2, 3, 5, 8] {
            let mut out = vec![0; 3000];
            parallel_kway_merge(&lists, &mut out, threads);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_kway_is_stable() {
        let l1: Vec<(i32, u32)> = (0..40).map(|i| (i / 10, i as u32)).collect();
        let l2: Vec<(i32, u32)> = (0..40).map(|i| (i / 10, 100 + i as u32)).collect();
        let l3: Vec<(i32, u32)> = (0..40).map(|i| (i / 10, 200 + i as u32)).collect();
        let lists: Vec<&[(i32, u32)]> = vec![&l1, &l2, &l3];
        let cmp = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
        let mut seq = vec![(0, 0); 120];
        kway_merge_by(&lists, &mut seq, &cmp);
        let mut par = vec![(0, 0); 120];
        parallel_kway_merge_by(&lists, &mut par, 4, &cmp, &NoRecorder);
        assert_eq!(seq, par);
    }

    proptest! {
        #[test]
        fn kway_merge_matches_oracle(
            data in proptest::collection::vec(
                proptest::collection::vec(-100i64..100, 0..60).prop_map(sorted),
                0..8,
            ),
        ) {
            let lists: Vec<&[i64]> = data.iter().map(|l| l.as_slice()).collect();
            let expect = oracle(&lists);
            let mut out = vec![0; expect.len()];
            kway_merge(&lists, &mut out);
            prop_assert_eq!(&out, &expect);

            let mut out_p = vec![0; expect.len()];
            parallel_kway_merge(&lists, &mut out_p, 4);
            prop_assert_eq!(&out_p, &expect);
        }

        #[test]
        fn rank_split_prefix_property(
            data in proptest::collection::vec(
                proptest::collection::vec(-50i64..50, 0..40).prop_map(sorted),
                1..6,
            ),
            frac in 0.0f64..=1.0,
        ) {
            let lists: Vec<&[i64]> = data.iter().map(|l| l.as_slice()).collect();
            let total: usize = lists.iter().map(|l| l.len()).sum();
            let r = ((total as f64) * frac) as usize;
            let r = r.min(total);
            let take = kway_rank_split(&lists, r);
            prop_assert_eq!(take.iter().sum::<usize>(), r);
            // The taken prefix, sorted, must equal the first r outputs.
            let mut prefix: Vec<i64> = lists
                .iter()
                .zip(&take)
                .flat_map(|(l, &t)| l[..t].iter().copied())
                .collect();
            prefix.sort();
            let expect = oracle(&lists);
            prop_assert_eq!(&prefix[..], &expect[..r]);
        }

        #[test]
        fn rank_splits_are_monotone_prefixes(
            data in proptest::collection::vec(
                proptest::collection::vec(-20i64..20, 0..30).prop_map(sorted),
                1..5,
            ),
        ) {
            let lists: Vec<&[i64]> = data.iter().map(|l| l.as_slice()).collect();
            let total: usize = lists.iter().map(|l| l.len()).sum();
            let mut prev = vec![0usize; lists.len()];
            for r in 0..=total {
                let take = kway_rank_split(&lists, r);
                for (a, b) in prev.iter().zip(&take) {
                    prop_assert!(b >= a, "take counts must grow with rank");
                }
                prev = take;
            }
        }
    }
}
