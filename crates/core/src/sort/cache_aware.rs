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
//! The merge rounds inherit adaptive per-segment kernel dispatch
//! ([`crate::merge::adaptive`]) through the segmented merge's contiguous
//! slice path; the cyclic staging views stay on the classic view merge
//! (see [`crate::merge::segmented`]).

use core::cmp::Ordering;

use mergepath_telemetry::{span, NoRecorder, Recorder, SpanKind};

use crate::merge::segmented::{segmented_parallel_merge_into_by, SpmConfig, Staging};
use crate::sort::parallel::parallel_merge_sort_by;
use crate::sort::{merge_pairs, merge_rounds};

/// Configuration of the cache-aware sort.
#[derive(Debug, Clone, Copy)]
pub struct CacheAwareConfig {
    /// Cache capacity in elements.
    pub cache_elems: usize,
    /// Worker count.
    pub threads: usize,
    /// Staging mode for the merge rounds' segmented merges.
    pub staging: Staging,
    /// Block size as a fraction of `cache_elems` for phase 1 (the paper
    /// leaves the fraction open; `1/2` leaves room for the sort's scratch
    /// buffer so a block sort stays cache-resident).
    pub block_divisor: usize,
}

impl CacheAwareConfig {
    /// A default configuration: blocks of `C/2`, windowed staging.
    pub fn new(cache_elems: usize, threads: usize) -> Self {
        CacheAwareConfig {
            cache_elems,
            threads,
            staging: Staging::Windowed,
            block_divisor: 2,
        }
    }

    /// Selects the staging strategy used in the merge rounds.
    pub fn with_staging(mut self, staging: Staging) -> Self {
        self.staging = staging;
        self
    }

    /// Phase-1 block size in elements.
    pub fn block_len(&self) -> usize {
        (self.cache_elems / self.block_divisor.max(1))
            .max(self.threads)
            .max(1)
    }
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
        &CacheAwareConfig::new(cache_elems, threads),
        &crate::merge::sequential::natural_cmp,
        &NoRecorder,
    );
}

/// [`cache_aware_parallel_sort`] with full configuration and comparator,
/// reporting spans, counters and per-worker element counts into `rec`
/// (pass [`NoRecorder`] for an untraced sort); output identical to
/// `slice::sort_by(cmp)`.
pub fn cache_aware_parallel_sort_by<T, F, R>(
    v: &mut [T],
    config: &CacheAwareConfig,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Default + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    assert!(config.threads > 0, "thread count must be at least 1");
    let n = v.len();
    if n <= 1 {
        return;
    }
    let block = config.block_len().min(n);

    // Phase 1 (paper Fig. 4): sort each cache-sized block with the parallel
    // sort, one block after the other.
    let mut boundaries = Vec::with_capacity(n / block + 2);
    let mut start = 0;
    while start < n {
        let end = (start + block).min(n);
        parallel_merge_sort_by(&mut v[start..end], config.threads, cmp, rec);
        boundaries.push(start);
        start = end;
    }
    boundaries.push(n);

    // Phase 2: merge rounds, every pair merged with the segmented parallel
    // merge so the working set stays within `cache_elems`.
    let spm = SpmConfig::new(config.cache_elems, config.threads).with_staging(config.staging);
    merge_rounds(v, boundaries, config.threads, |src, dst, runs| {
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
    fn cyclic_staging_variant() {
        let mut v: Vec<i64> = (0..5000).map(|x| (x * 31) % 999).collect();
        let mut expect = v.clone();
        expect.sort();
        let cfg = CacheAwareConfig::new(300, 4).with_staging(Staging::Cyclic);
        cache_aware_parallel_sort_by(&mut v, &cfg, &|a, b| a.cmp(b), &NoRecorder);
        assert_eq!(v, expect);
    }

    #[test]
    fn stability_preserved() {
        let mut v: Vec<(i32, usize)> = (0..3000usize)
            .map(|i| (((i * 53) % 12) as i32, i))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k);
        let cfg = CacheAwareConfig::new(200, 4);
        cache_aware_parallel_sort_by(&mut v, &cfg, &|a, b| a.0.cmp(&b.0), &NoRecorder);
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
        assert_eq!(CacheAwareConfig::new(100, 2).block_len(), 50);
        assert_eq!(CacheAwareConfig::new(0, 3).block_len(), 3);
        let mut cfg = CacheAwareConfig::new(100, 2);
        cfg.block_divisor = 0;
        assert_eq!(cfg.block_len(), 100);
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
