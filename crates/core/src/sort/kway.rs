//! Single-round k-way parallel merge sort.
//!
//! The §III sort runs `⌈log₂ p⌉` pairwise merge rounds after the chunk
//! sorts. With the k-way rank split
//! ([`kway_rank_split_by`](crate::merge::kway::kway_rank_split_by)) the
//! rounds collapse to **one**: sort `p` chunks concurrently, then merge
//! all `p` runs at once with the rank-partitioned parallel k-way merge.
//! One round means one barrier and a single pass over the data instead of
//! `log p` passes — the memory-traffic argument of §IV applied to the sort
//! structure itself. The trade is `O(log k)` comparisons per emitted
//! element in the loser tree versus `O(1)`-ish in a two-way merge.

use core::cmp::Ordering;

use mergepath_telemetry::{span, NoRecorder, Recorder, SpanKind};

use crate::merge::kway::parallel_kway_merge_by;
use crate::sort::copy_back;
use crate::sort::parallel::sort_chunks;

/// Sorts `v` with `threads` concurrent chunk sorts followed by one
/// parallel k-way merge round. Stable; output identical to `slice::sort`.
///
/// # Panics
/// Panics if `threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::sort::kway::kway_merge_sort;
/// let mut v: Vec<i32> = (0..1000).rev().collect();
/// kway_merge_sort(&mut v, 8);
/// assert!(v.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn kway_merge_sort<T>(v: &mut [T], threads: usize)
where
    T: Ord + Clone + Default + Send + Sync,
{
    kway_merge_sort_by(v, threads, &|x: &T, y: &T| x.cmp(y), &NoRecorder);
}

/// [`kway_merge_sort`] with a caller-supplied comparator, reporting spans,
/// counters and per-worker element counts into `rec` (pass [`NoRecorder`]
/// for an untraced sort); output identical to `slice::sort_by(cmp)`.
pub fn kway_merge_sort_by<T, F, R>(v: &mut [T], threads: usize, cmp: &F, rec: &R)
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
    // Phase 1: concurrent `slice::sort_by` chunk sorts (the same chunks as
    // §III's sort).
    let Some(bounds) = sort_chunks(v, threads, cmp, rec) else {
        return;
    };

    // Phase 2: one k-way merge of the p runs, itself parallelized by the
    // multi-way rank split. Stability: runs are indexed in array order, and
    // the k-way merge breaks ties by run index.
    let runs: Vec<&[T]> = bounds.windows(2).map(|w| &v[w[0]..w[1]]).collect();
    let mut out = vec![T::default(); n];
    {
        let _round = span(rec, 0, SpanKind::SortRound);
        parallel_kway_merge_by(&runs, &mut out, threads, cmp, rec);
    }
    copy_back(&out, v, threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_various_sizes() {
        for n in [0usize, 1, 5, 100, 1000, 10_007] {
            let mut v: Vec<i64> = (0..n as i64).map(|x| (x * 7919 + 3) % 2003).collect();
            let mut expect = v.clone();
            expect.sort();
            for threads in [1, 3, 8] {
                let mut w = v.clone();
                kway_merge_sort(&mut w, threads);
                assert_eq!(w, expect, "n={n} threads={threads}");
            }
            v.reverse();
        }
    }

    #[test]
    fn stable_like_std() {
        let mut v: Vec<(i32, usize)> = (0..5000usize)
            .map(|i| (((i * 37) % 10) as i32, i))
            .collect();
        // Deterministic scramble.
        for i in (1..v.len()).rev() {
            let j = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as usize % (i + 1);
            v.swap(i, j);
        }
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k);
        kway_merge_sort_by(&mut v, 6, &|a, b| a.0.cmp(&b.0), &NoRecorder);
        assert_eq!(v, expect);
    }

    #[test]
    fn agrees_with_pairwise_parallel_sort() {
        let base: Vec<u32> = (0..20_000u32).map(|x| x.wrapping_mul(2654435761)).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        kway_merge_sort(&mut a, 7);
        crate::sort::parallel::parallel_merge_sort(&mut b, 7);
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn matches_std(
            mut v in proptest::collection::vec(-10_000i64..10_000, 0..600),
            threads in 1usize..10,
        ) {
            let mut expect = v.clone();
            expect.sort();
            kway_merge_sort(&mut v, threads);
            prop_assert_eq!(v, expect);
        }
    }
}
