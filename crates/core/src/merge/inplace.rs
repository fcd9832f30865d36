//! In-place merging built on the merge-path split.
//!
//! The paper's algorithms merge into a separate output array (the memory
//! formula of §VI budgets `2N` for the output). When the extra array is
//! unaffordable, the co-rank primitive still pays off: the classic
//! rotation-based in-place merge *is* a recursive application of the
//! diagonal search —
//!
//! 1. split the output at its midpoint `k = N/2`: [`co_rank`](crate::diagonal::co_rank) finds the
//!    unique `(i, j)` with `i + j = k` such that `a[..i]` and `b[..j]`
//!    form the first half of the merge;
//! 2. rotate the middle region `v[i .. mid + j]` left by `mid - i` so the
//!    two half-problems become contiguous;
//! 3. recurse on both halves — which are **independent**, so they can run
//!    in parallel (each level of the recursion doubles the available
//!    parallelism, exactly like the path partition of Algorithm 1).
//!
//! Complexity: `O(N log N)` moves worst case (`O(N)` when the rotation
//! lengths stay balanced), `O(log N)` auxiliary space (recursion), zero
//! allocation. The parallel variant runs the two sub-merges of each level
//! concurrently down to a sequential cutoff.

use core::cell::Cell;
use core::cmp::Ordering;

use mergepath_telemetry::{counted_cmp, span, CounterKind, NoRecorder, Recorder, SpanKind};

use crate::diagonal::co_rank_by;
use crate::executor::{self, SendPtr};

/// Below this many elements the recursion falls back to a simple in-place
/// insertion merge; also the parallel variant's sequential cutoff.
const INPLACE_CUTOFF: usize = 32;

/// Merges the two consecutive sorted runs `v[..mid]` and `v[mid..]` in
/// place, stably, using the natural order.
///
/// # Panics
/// Panics if `mid > v.len()`.
///
/// # Examples
/// ```
/// use mergepath::merge::inplace::inplace_merge;
/// let mut v = vec![1, 4, 7, 2, 3, 9];
/// inplace_merge(&mut v, 3);
/// assert_eq!(v, [1, 2, 3, 4, 7, 9]);
/// ```
pub fn inplace_merge<T: Ord>(v: &mut [T], mid: usize) {
    inplace_merge_by(v, mid, &|x: &T, y: &T| x.cmp(y));
}

/// [`inplace_merge`] with a caller-supplied comparator (ties keep the left
/// run's elements first — stable).
pub fn inplace_merge_by<T, F>(v: &mut [T], mid: usize, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    assert!(mid <= v.len(), "mid {mid} out of bounds {}", v.len());
    let n = v.len();
    if mid == 0 || mid == n {
        return;
    }
    if n <= INPLACE_CUTOFF {
        insertion_merge(v, mid, cmp);
        return;
    }
    let (i, _j, new_mid) = split_and_rotate(v, mid, cmp);
    let (left, right) = v.split_at_mut(new_mid);
    inplace_merge_by(left, i, cmp);
    // The right half's runs are the tail of A (length mid − i) followed by
    // the tail of B.
    inplace_merge_by(right, mid - i, cmp);
}

/// Performs the co-rank split at the output midpoint and the rotation;
/// returns `(i, j, new_mid)` where `i`/`j` are the elements of the left/
/// right run in the merged first half and `new_mid = i + j`.
fn split_and_rotate<T, F>(v: &mut [T], mid: usize, cmp: &F) -> (usize, usize, usize)
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = v.len();
    let k = n / 2;
    let (a, b) = v.split_at(mid);
    let i = co_rank_by(k, a, b, cmp);
    let j = k - i;
    // Rotate v[i .. mid + j] left by (mid - i): brings b[..j] in front of
    // a[i..], making the first k elements exactly the merge's first-half
    // inputs and the rest the second-half inputs.
    v[i..mid + j].rotate_left(mid - i);
    (i, j, i + j)
}

/// Parallel in-place merge: the two halves produced by each split are
/// merged concurrently while at least `threads` leaves remain, then
/// sequentially.
///
/// # Panics
/// Panics if `mid > v.len()` or `threads == 0`.
pub fn parallel_inplace_merge<T>(v: &mut [T], mid: usize, threads: usize)
where
    T: Ord + Send,
{
    parallel_inplace_merge_by(v, mid, threads, &|x: &T, y: &T| x.cmp(y), &NoRecorder);
}

/// [`parallel_inplace_merge`] with a caller-supplied comparator, reporting
/// spans, counters and per-leaf element counts into `rec` (pass
/// [`NoRecorder`] for an untraced merge).
pub fn parallel_inplace_merge_by<T, F, R>(v: &mut [T], mid: usize, threads: usize, cmp: &F, rec: &R)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    assert!(mid <= v.len(), "mid {mid} out of bounds {}", v.len());
    assert!(threads > 0, "thread count must be at least 1");
    let n = v.len();
    if mid == 0 || mid == n {
        return;
    }
    // Breadth-first splitting, one fork-join round per level: every level
    // splits each frontier problem at its output midpoint and rotates, so
    // after ceil(log2(threads)) levels there are >= threads independent
    // sub-merges, which a final round merges sequentially. All splits of
    // one level run in parallel on disjoint sub-slices, preserving the
    // recursive variant's doubling parallelism. One thread, or a merge
    // within the sequential cutoff, takes no level: the final round is one
    // share, run on the caller.
    let levels = if n <= INPLACE_CUTOFF {
        0
    } else {
        (usize::BITS - (threads - 1).leading_zeros()) as usize
    };
    let mut frontier = vec![Sub {
        start: 0,
        len: n,
        mid,
    }];
    let base = SendPtr::new(v.as_mut_ptr());
    for _ in 0..levels {
        let mut children = vec![
            Sub {
                start: 0,
                len: 0,
                mid: 0,
            };
            frontier.len() * 2
        ];
        let child_base = SendPtr::new(children.as_mut_ptr());
        let frontier_ref = &frontier;
        executor::global().run_indexed(frontier_ref.len(), threads, rec, &|idx| {
            let sub = frontier_ref[idx];
            let done = Sub {
                start: sub.start + sub.len,
                len: 0,
                mid: 0,
            };
            let (c0, c1) = if sub.mid == 0 || sub.mid == sub.len || sub.len <= INPLACE_CUTOFF {
                // Nothing left to split; carry the problem to the leaves.
                (sub, done)
            } else {
                // SAFETY: frontier sub-ranges are pairwise disjoint within
                // `v` (each level partitions its parent's range), so share
                // `idx` holds the only live reference to this sub-slice.
                let s = unsafe { base.slice_mut(sub.start, sub.len) };
                let probes = Cell::new(0u64);
                let (i, _j, new_mid) = {
                    let _partition = span(rec, idx, SpanKind::Partition);
                    let _search = span(rec, idx, SpanKind::DiagonalSearch);
                    split_and_rotate(s, sub.mid, &counted_cmp(rec, cmp, &probes))
                };
                rec.counter_add(idx, CounterKind::DiagonalProbeSteps, probes.get());
                rec.counter_add(idx, CounterKind::Comparisons, probes.get());
                (
                    Sub {
                        start: sub.start,
                        len: new_mid,
                        mid: i,
                    },
                    Sub {
                        start: sub.start + new_mid,
                        len: sub.len - new_mid,
                        mid: sub.mid - i,
                    },
                )
            };
            // SAFETY: child slots 2·idx and 2·idx+1 belong to this share
            // alone; the pool's end barrier publishes them to this frame.
            unsafe {
                child_base.write(2 * idx, c0);
                child_base.write(2 * idx + 1, c1);
            }
        });
        frontier = children;
    }
    let frontier_ref = &frontier;
    executor::global().run_indexed(frontier_ref.len(), threads, rec, &|idx| {
        let sub = frontier_ref[idx];
        rec.worker_items(idx, sub.len as u64);
        if sub.len == 0 || sub.mid == 0 || sub.mid == sub.len {
            return;
        }
        // SAFETY: leaf sub-ranges are pairwise disjoint within `v`.
        let s = unsafe { base.slice_mut(sub.start, sub.len) };
        let hits = Cell::new(0u64);
        {
            let _merge = span(rec, idx, SpanKind::SegmentMerge);
            inplace_merge_by(s, sub.mid, &counted_cmp(rec, cmp, &hits));
        }
        rec.counter_add(idx, CounterKind::Comparisons, hits.get());
    });
}

/// A pending sub-merge: `v[start .. start + len]` holds two sorted runs
/// split at relative index `mid`.
#[derive(Clone, Copy)]
struct Sub {
    start: usize,
    len: usize,
    mid: usize,
}

/// In-place merge of two tiny runs by binary-insertion of the right run
/// into the left — `O(n²)` moves but cache-resident; the recursion base.
fn insertion_merge<T, F>(v: &mut [T], mid: usize, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    for r in mid..v.len() {
        // v[..r] is sorted; sink v[r] to its stable position.
        let mut pos = r;
        while pos > 0 && cmp(&v[pos - 1], &v[pos]) == Ordering::Greater {
            v.swap(pos - 1, pos);
            pos -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oracle(v: &[i64], mid: usize) -> Vec<i64> {
        let mut out = vec![0; v.len()];
        crate::merge::sequential::merge_into(&v[..mid], &v[mid..], &mut out);
        out
    }

    fn two_runs(left: Vec<i64>, right: Vec<i64>) -> (Vec<i64>, usize) {
        let mut l = left;
        let mut r = right;
        l.sort();
        r.sort();
        let mid = l.len();
        l.extend(r);
        (l, mid)
    }

    #[test]
    fn merges_basic_runs() {
        let mut v = vec![1, 3, 5, 7, 2, 4, 6, 8];
        inplace_merge(&mut v, 4);
        assert_eq!(v, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn degenerate_mids() {
        let mut v = vec![1, 2, 3];
        inplace_merge(&mut v, 0);
        assert_eq!(v, [1, 2, 3]);
        inplace_merge(&mut v, 3);
        assert_eq!(v, [1, 2, 3]);
        let mut empty: Vec<i64> = vec![];
        inplace_merge(&mut empty, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn mid_beyond_len_panics() {
        let mut v = vec![1];
        inplace_merge(&mut v, 2);
    }

    #[test]
    fn large_asymmetric_runs() {
        let (mut v, mid) = two_runs((0..5000).map(|x| x * 3).collect(), (0..70).collect());
        let expect = oracle(&v, mid);
        inplace_merge(&mut v, mid);
        assert_eq!(v, expect);
        let (mut v, mid) = two_runs((0..70).collect(), (0..5000).map(|x| x * 3).collect());
        let expect = oracle(&v, mid);
        inplace_merge(&mut v, mid);
        assert_eq!(v, expect);
    }

    #[test]
    fn stability_is_preserved() {
        let a: Vec<(i32, u32)> = (0..200).map(|i| (i / 25, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..200).map(|i| (i / 25, 1000 + i as u32)).collect();
        let mut v: Vec<(i32, u32)> = a.iter().chain(&b).copied().collect();
        let mut expect = vec![(0, 0); 400];
        crate::merge::sequential::merge_into_by(&a, &b, &mut expect, &|x, y| x.0.cmp(&y.0));
        inplace_merge_by(&mut v, 200, &|x, y| x.0.cmp(&y.0));
        assert_eq!(v, expect);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (base, mid) = two_runs(
            (0..20_000).map(|x| (x * 7919) % 100_000).collect(),
            (0..15_000).map(|x| (x * 104_729) % 100_000).collect(),
        );
        let expect = oracle(&base, mid);
        for threads in [1usize, 2, 4, 8] {
            let mut v = base.clone();
            parallel_inplace_merge(&mut v, mid, threads);
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn all_equal_elements() {
        let mut v = vec![5i64; 1000];
        inplace_merge(&mut v, 321);
        assert!(v.iter().all(|&x| x == 5));
    }

    proptest! {
        #[test]
        fn matches_out_of_place_merge(
            left in proptest::collection::vec(-100i64..100, 0..200),
            right in proptest::collection::vec(-100i64..100, 0..200),
        ) {
            let (mut v, mid) = two_runs(left, right);
            let expect = oracle(&v, mid);
            inplace_merge(&mut v, mid);
            prop_assert_eq!(&v, &expect);
        }

        #[test]
        fn parallel_matches_oracle(
            left in proptest::collection::vec(-100i64..100, 0..150),
            right in proptest::collection::vec(-100i64..100, 0..150),
            threads in 1usize..6,
        ) {
            let (mut v, mid) = two_runs(left, right);
            let expect = oracle(&v, mid);
            parallel_inplace_merge(&mut v, mid, threads);
            prop_assert_eq!(&v, &expect);
        }

        #[test]
        fn stability_proptest(
            left in proptest::collection::vec((0i32..5, 0u32..500), 0..100),
            right in proptest::collection::vec((0i32..5, 500u32..1000), 0..100),
        ) {
            let mut l = left;
            let mut r = right;
            let key = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
            l.sort_by(key);
            r.sort_by(key);
            let mut expect = vec![(0, 0); l.len() + r.len()];
            crate::merge::sequential::merge_into_by(&l, &r, &mut expect, &key);
            let mid = l.len();
            let mut v = l;
            v.extend(r);
            inplace_merge_by(&mut v, mid, &key);
            prop_assert_eq!(v, expect);
        }
    }
}
