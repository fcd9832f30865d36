//! Parallel merge sort (paper, §III).
//!
//! Phase 1: the array is split into `p` equisized chunks, each sorted
//! concurrently with `slice::sort_by` (`O(N/p · log(N/p))`); §III leaves
//! this phase to any sequential sort. With `threads == 1` the whole sort
//! is `slice::sort_by` — the Fig. 5 one-thread baseline.
//!
//! Phase 2: `⌈log2 p⌉` rounds of pairwise merges; every merge is executed by
//! **all** `p` workers using Algorithm 1, so the cores stay fully busy even
//! in the final round when only one pair remains — the very situation that
//! motivates the paper (naive merge-sort parallelization starves in late
//! rounds). After an odd number of rounds the `p` workers also copy the
//! output back from the scratch buffer.
//!
//! Total time `O(N/p · log N + log p · log N)`.
//!
//! Every per-worker segment of every merge round goes through
//! [`crate::merge::adaptive`]: the run-structure probe picks the classic,
//! branch-lean, or galloping sequential kernel per segment, so sorted or
//! duplicate-heavy inputs speed up in the late rounds without any change
//! to the output (all kernels are byte-identical).

use core::cmp::Ordering;

use mergepath_telemetry::{span, NoRecorder, Recorder, SpanKind};

use crate::executor::{self, SendPtr};
use crate::merge::batch::batch_merge_into_by;
use crate::merge::sequential::natural_cmp;
use crate::sort::merge_rounds;

/// Sorts `v` in parallel with `threads` workers using the natural order.
///
/// Stable; produces output identical to `slice::sort`.
///
/// # Panics
/// Panics if `threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::sort::parallel::parallel_merge_sort;
/// let mut v: Vec<i32> = (0..1000).rev().collect();
/// parallel_merge_sort(&mut v, 4);
/// assert!(v.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn parallel_merge_sort<T>(v: &mut [T], threads: usize)
where
    T: Ord + Clone + Default + Send + Sync,
{
    parallel_merge_sort_by(v, threads, &natural_cmp, &NoRecorder);
}

/// [`parallel_merge_sort`] with a caller-supplied comparator, reporting
/// spans, counters and per-worker element counts into `rec` (pass
/// [`NoRecorder`] for an untraced sort); output identical to
/// `slice::sort_by(cmp)`. Phase 1's comparisons are std's and are not
/// counted: `rec`'s `comparisons` counter holds the merge rounds' work.
///
/// # Panics
/// Panics if `threads == 0`. A `cmp` that is not a total order may panic,
/// as it may in `slice::sort_by`.
pub fn parallel_merge_sort_by<T, F, R>(v: &mut [T], threads: usize, cmp: &F, rec: &R)
where
    T: Clone + Default + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    assert!(threads > 0, "thread count must be at least 1");
    let n = v.len();
    if n <= 1 {
        return;
    }
    // Phase 1: concurrent chunk sorts.
    let Some(bounds) = sort_chunks(v, threads, cmp, rec) else {
        return;
    };

    // Phase 2: rounds of pairwise parallel merges, ping-ponging between `v`
    // and a scratch buffer. Runs are tracked by their boundary offsets.
    merge_rounds(v, bounds, threads, |src, dst, runs| {
        let _round = span(rec, 0, SpanKind::SortRound);
        merge_round_parallel(src, dst, runs, threads, cmp, rec);
    });
}

/// Phase 1: sorts `threads` chunks of `v` concurrently with
/// `slice::sort_by` and returns the chunk boundaries. Chunks follow the
/// same ⌊k·n/p⌋ boundaries as the merge partition, so sizes differ by at
/// most one. With one thread, or at most two keys per thread, sorts all of
/// `v` on the calling thread instead and returns `None`: nothing is left
/// to merge.
pub(crate) fn sort_chunks<T, F, R>(
    v: &mut [T],
    threads: usize,
    cmp: &F,
    rec: &R,
) -> Option<Vec<usize>>
where
    T: Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let n = v.len();
    if threads == 1 || n <= 2 * threads {
        executor::note_write_range(v);
        {
            let _round = span(rec, 0, SpanKind::SortRound);
            v.sort_by(cmp);
        }
        rec.worker_items(0, n as u64);
        return None;
    }
    let bounds: Vec<usize> = (0..=threads)
        .map(|k| crate::partition::segment_boundary(n, threads, k))
        .collect();
    {
        let base = SendPtr::new(v.as_mut_ptr());
        let bounds = &bounds;
        executor::global().run_indexed(threads, threads, rec, &|k| {
            // SAFETY: chunk ranges `bounds[k]..bounds[k+1]` are disjoint
            // across shares and tile `v` exactly; the pool's end barrier
            // orders the writes before this frame resumes.
            let chunk = unsafe { base.slice_mut(bounds[k], bounds[k + 1] - bounds[k]) };
            let _round = span(rec, k, SpanKind::SortRound);
            chunk.sort_by(cmp);
        });
    }
    Some(bounds)
}

/// Merges adjacent run pairs from `src` into `dst` with all `threads`
/// workers balanced across the whole round
/// ([`batch_merge_into_by`](crate::merge::batch::batch_merge_into_by)):
/// even ragged final rounds keep every core busy — exactly the late-round
/// starvation the paper's introduction calls out. [`crate::sort::natural`]
/// merges its levels with it too.
pub(crate) fn merge_round_parallel<T, F, R>(
    src: &[T],
    dst: &mut [T],
    runs: &[usize],
    threads: usize,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let mut pairs: Vec<(&[T], &[T])> = Vec::with_capacity(runs.len() / 2);
    let mut pair = 0;
    while pair + 2 < runs.len() {
        let (lo, mid, hi) = (runs[pair], runs[pair + 1], runs[pair + 2]);
        pairs.push((&src[lo..mid], &src[mid..hi]));
        pair += 2;
    }
    let merged_end = runs[pair];
    batch_merge_into_by(&pairs, &mut dst[..merged_end], threads, cmp, rec);
    if pair + 2 == runs.len() {
        // Lone trailing run: copy through.
        let (lo, hi) = (runs[pair], runs[pair + 1]);
        executor::note_write_range(&dst[lo..hi]);
        dst[lo..hi].clone_from_slice(&src[lo..hi]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_various_sizes_and_threads() {
        for n in [0usize, 1, 2, 3, 10, 100, 1000, 4097] {
            let mut base: Vec<i64> = (0..n as i64).map(|x| (x * 7919 + 5) % 1009).collect();
            let mut expect = base.clone();
            expect.sort();
            for threads in [1, 2, 3, 4, 7, 12] {
                let mut v = base.clone();
                parallel_merge_sort(&mut v, threads);
                assert_eq!(v, expect, "n={n} threads={threads}");
                let mut desc = base.clone();
                parallel_merge_sort_by(
                    &mut desc,
                    threads,
                    &|a: &i64, b: &i64| b.cmp(a),
                    &NoRecorder,
                );
                assert!(
                    desc.iter().eq(expect.iter().rev()),
                    "descending n={n} threads={threads}"
                );
            }
            base.reverse();
        }
    }

    #[test]
    fn parallel_sort_is_stable() {
        let mut v: Vec<(i32, usize)> = (0..2000usize)
            .map(|i| (((i * 37) % 16) as i32, i))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k);
        parallel_merge_sort_by(&mut v, 5, &|a, b| a.0.cmp(&b.0), &NoRecorder);
        assert_eq!(v, expect);
    }

    #[test]
    fn non_power_of_two_threads() {
        let mut v: Vec<i64> = (0..10_007).map(|x| (x * 31) % 2003).collect();
        let mut expect = v.clone();
        expect.sort();
        parallel_merge_sort(&mut v, 7);
        assert_eq!(v, expect);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_panics() {
        let mut v = [1i64, 2];
        parallel_merge_sort(&mut v, 0);
    }

    #[test]
    fn already_sorted_and_reversed() {
        let mut v: Vec<i64> = (0..5000).collect();
        parallel_merge_sort(&mut v, 4);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let mut r: Vec<i64> = (0..5000).rev().collect();
        parallel_merge_sort(&mut r, 4);
        assert_eq!(r, v);
    }

    proptest! {
        #[test]
        fn matches_std_sort(
            mut v in proptest::collection::vec(-10_000i64..10_000, 0..800),
            threads in 1usize..10,
        ) {
            let mut expect = v.clone();
            expect.sort();
            parallel_merge_sort(&mut v, threads);
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn stability_matches_std(
            mut v in proptest::collection::vec((0i32..6, 0usize..10_000), 0..400),
            threads in 1usize..8,
        ) {
            let mut expect = v.clone();
            expect.sort_by_key(|&(k, _)| k);
            parallel_merge_sort_by(&mut v, threads, &|a, b| a.0.cmp(&b.0), &NoRecorder);
            prop_assert_eq!(v, expect);
        }
    }
}
