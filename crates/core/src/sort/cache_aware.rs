//! Cache-efficient parallel sort (paper, §IV.C).
//!
//! 1. Partition the unsorted input into equisized blocks whose size is a
//!    fraction of the cache capacity `C`.
//! 2. Sort the blocks **one after the other**, each with the full-`p`
//!    parallel sort — every block fits in cache, so the parallel sort of a
//!    block never spills.
//! 3. Run merge rounds in which every pair of sorted blocks is merged with
//!    the **segmented** parallel merge (Algorithm 2), keeping the merge
//!    working set inside the cache at all times.
//!
//! Total time `O(N/p · log N + N/C · log p · log C)` — slightly more work
//! than the basic parallel sort (the numerous partitioning stages), which
//! the paper argues is justified whenever a cache miss is expensive.
//!
//! Blocks hold `C/2` elements (the paper leaves the fraction open; half
//! the cache leaves room for the sort's scratch buffer, so a block sort
//! stays cache-resident). The merge rounds inherit adaptive per-segment
//! kernel dispatch ([`crate::merge::adaptive`]) through the segmented
//! merge, whose windows are slices of the inputs
//! (see [`crate::merge::segmented`]).

use core::cmp::Ordering;

use mergepath_telemetry::{span, NoRecorder, Recorder, SpanKind};

use crate::merge::segmented::{segmented_parallel_merge_into_by, SpmConfig};
use crate::sort::parallel::parallel_merge_sort_by;
use crate::sort::{merge_pairs, merge_rounds};

/// Phase-1 block length for `threads` workers and a cache of
/// `cache_elems` elements: `max(cache_elems / 2, threads, 1)`.
pub fn block_len(threads: usize, cache_elems: usize) -> usize {
    (cache_elems / 2).max(threads).max(1)
}

/// Cache-aware parallel sort using the natural order.
///
/// Stable; output identical to `slice::sort`.
///
/// # Panics
/// Panics if `threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::sort::cache_aware::cache_aware_parallel_sort;
/// let mut v: Vec<u32> = (0..2000u32).map(|x| x.wrapping_mul(2654435761)).collect();
/// cache_aware_parallel_sort(&mut v, 4, /* cache elems */ 256);
/// assert!(v.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn cache_aware_parallel_sort<T>(v: &mut [T], threads: usize, cache_elems: usize)
where
    T: Ord + Clone + Default + Send + Sync,
{
    cache_aware_parallel_sort_by(
        v,
        threads,
        cache_elems,
        &crate::merge::sequential::natural_cmp,
        &NoRecorder,
    );
}

/// [`cache_aware_parallel_sort`] with a caller-supplied comparator,
/// reporting spans, counters and per-worker element counts into `rec`
/// (pass [`NoRecorder`] for an untraced sort); output identical to
/// `slice::sort_by(cmp)`.
pub fn cache_aware_parallel_sort_by<T, F, R>(
    v: &mut [T],
    threads: usize,
    cache_elems: usize,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Default + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    assert!(threads > 0, "thread count must be at least 1");
    let n = v.len();
    if n <= 1 {
        return;
    }
    let block = block_len(threads, cache_elems).min(n);

    // Phase 1 (paper Fig. 4): sort each cache-sized block with the parallel
    // sort, one block after the other.
    let mut boundaries = Vec::with_capacity(n / block + 2);
    let mut start = 0;
    while start < n {
        let end = (start + block).min(n);
        parallel_merge_sort_by(&mut v[start..end], threads, cmp, rec);
        boundaries.push(start);
        start = end;
    }
    boundaries.push(n);

    // Phase 2: merge rounds, every pair merged with the segmented parallel
    // merge so the working set stays within `cache_elems`.
    let spm = SpmConfig::new(cache_elems, threads);
    merge_rounds(v, boundaries, threads, |src, dst, runs| {
        let _round = span(rec, 0, SpanKind::SortRound);
        merge_pairs(src, dst, runs, |a, b, out| {
            segmented_parallel_merge_into_by(a, b, out, &spm, cmp, rec)
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_with_small_cache() {
        let mut v: Vec<i64> = (0..10_000).map(|x| (x * 7919 + 3) % 4999).collect();
        let mut expect = v.clone();
        expect.sort();
        cache_aware_parallel_sort(&mut v, 4, 256);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_with_cache_larger_than_input() {
        let mut v: Vec<i64> = (0..500).rev().collect();
        let mut expect = v.clone();
        expect.sort();
        cache_aware_parallel_sort(&mut v, 3, 1 << 20);
        assert_eq!(v, expect);
    }

    #[test]
    fn stability_preserved() {
        let mut v: Vec<(i32, usize)> = (0..3000usize)
            .map(|i| (((i * 53) % 12) as i32, i))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k);
        cache_aware_parallel_sort_by(&mut v, 4, 200, &|a, b| a.0.cmp(&b.0), &NoRecorder);
        assert_eq!(v, expect);
    }

    #[test]
    fn degenerate_inputs() {
        let mut empty: Vec<i64> = vec![];
        cache_aware_parallel_sort(&mut empty, 2, 64);
        let mut one = vec![9i64];
        cache_aware_parallel_sort(&mut one, 2, 64);
        assert_eq!(one, [9]);
        let mut tiny_cache: Vec<i64> = (0..100).rev().collect();
        cache_aware_parallel_sort(&mut tiny_cache, 4, 1);
        assert!(tiny_cache.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn block_len_clamps() {
        assert_eq!(block_len(2, 100), 50);
        assert_eq!(block_len(3, 0), 3);
        assert_eq!(block_len(0, 1), 1);
    }

    proptest! {
        #[test]
        fn matches_std_sort(
            mut v in proptest::collection::vec(-5000i64..5000, 0..600),
            threads in 1usize..6,
            cache in 1usize..512,
        ) {
            let mut expect = v.clone();
            expect.sort();
            cache_aware_parallel_sort(&mut v, threads, cache);
            prop_assert_eq!(v, expect);
        }
    }
}
