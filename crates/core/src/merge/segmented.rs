//! **Algorithm 2 — Segmented Parallel Merge (SPM)** (paper, §IV.B).
//!
//! The basic parallel merge streams three large arrays through the cache
//! with data-dependent relative addresses, so its working set cannot be
//! bounded. SPM instead breaks the overall merge path into segments of
//! length `L = C/3` (a third of the cache for `A`-input, `B`-input and
//! output each), merges the segments one after the other, and parallelizes
//! *within* each segment:
//!
//! 1. Fetch the next `L` unconsumed elements of each input (first
//!    iteration), or refill exactly as many elements as the previous
//!    iteration consumed, overwriting consumed slots (cyclic buffer).
//! 2. In parallel, each of the `p` workers binary-searches its segment
//!    starting point on a cross diagonal of the `L × L` window and merges
//!    `L/p` steps sequentially. This is Algorithm 1 on the window: the
//!    merge calls [`parallel_merge_into_by`] on it, which cuts `p`
//!    segments below `2 · TILE_MIN` outputs and Algorithm 1's tiles above.
//! 3. Write the `L` merged elements out.
//!
//! Theorem 16 guarantees feasibility: `L` elements of each input always
//! suffice to construct the next `L` steps of the path, whatever mix the
//! data dictates. The actual mix is only known after the fact — hence the
//! window must hold `2L` input elements for `L` outputs (the paper's
//! remark), and the consumed counts drive the next refill.
//!
//! Here the window of step 1 is a view of the inputs — a pair of slices,
//! not a copy — so its working set is bounded by `3L` while its addresses
//! slide through memory. The paper's cyclic buffers, which pin every
//! merge-phase access to one fixed `3L`-element footprint, pay where
//! caches are simple or software-managed; the cache simulator
//! (`mergepath-cache-sim`: its `ring` module and
//! `scenarios::spm_cyclic_shared`) runs them.

use core::cmp::Ordering;

use mergepath_telemetry::{span, NoRecorder, Recorder, SpanKind};

use crate::diagonal::co_rank_by;
use crate::error::MergeError;
use crate::merge::parallel::parallel_merge_into_by;
use crate::merge::sequential::natural_cmp;
use crate::partition::search_diagonal;

/// Configuration of the segmented parallel merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmConfig {
    /// Cache capacity in *elements*; the segment length is `cache_elems / 3`.
    pub cache_elems: usize,
    /// Number of parallel workers per segment.
    pub threads: usize,
}

impl SpmConfig {
    /// A configuration for the given cache capacity (in elements) and
    /// worker count.
    pub fn new(cache_elems: usize, threads: usize) -> Self {
        SpmConfig {
            cache_elems,
            threads,
        }
    }

    /// The segment length `L = max(cache_elems / 3, threads, 1)`.
    ///
    /// The paper sets `L = C/3` so inputs and output each own a third of the
    /// cache; we clamp from below so every worker gets at least one path
    /// step per segment.
    pub fn segment_len(&self) -> usize {
        (self.cache_elems / 3).max(self.threads).max(1)
    }
}

/// One outer iteration of the segmented merge, for analysis and for
/// regenerating the paper's Figure 3 (the block entry/exit points on the
/// merge grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmBlock {
    /// Grid point (elements of `A` / `B` consumed) where the block starts.
    pub a_start: usize,
    /// Grid point where the block starts on the `B` axis.
    pub b_start: usize,
    /// Elements of `A` consumed by this block.
    pub a_consumed: usize,
    /// Elements of `B` consumed by this block.
    pub b_consumed: usize,
    /// Output offset of the block.
    pub out_start: usize,
}

impl SpmBlock {
    /// Path length of the block (`a_consumed + b_consumed`).
    pub fn len(&self) -> usize {
        self.a_consumed + self.b_consumed
    }

    /// Returns `true` if the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Segmented parallel merge using the natural order of `T`.
///
/// Semantically identical to
/// [`parallel_merge_into`](crate::merge::parallel::parallel_merge_into) (and
/// therefore to the sequential merge); only the memory access schedule
/// differs.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()` or `config.threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::merge::segmented::{segmented_parallel_merge_into, SpmConfig};
/// let a: Vec<u32> = (0..500).map(|x| 2 * x).collect();
/// let b: Vec<u32> = (0..500).map(|x| 2 * x + 1).collect();
/// let mut out = vec![0; 1000];
/// // A 96-element cache: merge in 32-element path segments.
/// let cfg = SpmConfig::new(96, 4);
/// segmented_parallel_merge_into(&a, &b, &mut out, &cfg);
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn segmented_parallel_merge_into<T>(a: &[T], b: &[T], out: &mut [T], config: &SpmConfig)
where
    T: Ord + Clone + Send + Sync,
{
    segmented_parallel_merge_into_by(a, b, out, config, &natural_cmp, &NoRecorder);
}

/// [`segmented_parallel_merge_into`] with a caller-supplied comparator,
/// reporting telemetry into `rec` (pass [`NoRecorder`] for an untraced
/// merge): one `spm_window` span per outer iteration (on worker 0, the
/// orchestrating thread), with the window's diagonal search and Algorithm
/// 1's per-tile partition and merge spans inside it.
pub fn segmented_parallel_merge_into_by<T, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    config: &SpmConfig,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let (na, nb) = (a.len(), b.len());
    let n = na + nb;
    assert!(
        out.len() == n,
        "output buffer length mismatch: expected {n}, got {}",
        out.len()
    );
    assert!(config.threads > 0, "thread count must be at least 1");
    let l = config.segment_len();
    let (mut ai, mut bi, mut oi) = (0usize, 0usize, 0usize);
    while oi < n {
        let _window = span(rec, 0, SpanKind::SpmWindow);
        // Step 1: the next ≤ L unconsumed elements of each input.
        let wa = &a[ai..na.min(ai + l)];
        let wb = &b[bi..nb.min(bi + l)];
        let step = l.min(n - oi);
        debug_assert!(step <= wa.len() + wb.len(), "Theorem 16 feasibility");
        // End point of this block's path segment (the consumed mix is data
        // dependent and only determinable by search — paper's remark).
        let ta = search_diagonal(step, wa, wb, cmp, rec, 0);
        let tb = step - ta;
        // Step 2: Algorithm 1 on the window's path segment.
        parallel_merge_into_by(
            &wa[..ta],
            &wb[..tb],
            &mut out[oi..oi + step],
            config.threads,
            cmp,
            rec,
        );
        ai += ta;
        bi += tb;
        oi += step;
    }
}

/// Fallible variant of [`segmented_parallel_merge_into_by`].
pub fn try_segmented_parallel_merge_into_by<T, F>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    config: &SpmConfig,
    cmp: &F,
) -> Result<(), MergeError>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if out.len() != a.len() + b.len() {
        return Err(MergeError::OutputLenMismatch {
            expected: a.len() + b.len(),
            actual: out.len(),
        });
    }
    if config.threads == 0 {
        return Err(MergeError::ZeroThreads);
    }
    segmented_parallel_merge_into_by(a, b, out, config, cmp, &NoRecorder);
    Ok(())
}

/// Computes the outer-iteration block structure of the segmented merge
/// without performing it — the data behind the paper's Figure 3.
///
/// # Examples
/// ```
/// use mergepath::merge::segmented::{spm_blocks, SpmConfig};
/// let a = [1, 2, 3, 4];
/// let b = [5, 6, 7, 8];
/// let blocks = spm_blocks(&a, &b, &SpmConfig::new(12, 1), &|x, y| x.cmp(y));
/// // L = 4: first block consumes all of A (its elements are smallest).
/// assert_eq!(blocks.len(), 2);
/// assert_eq!((blocks[0].a_consumed, blocks[0].b_consumed), (4, 0));
/// ```
pub fn spm_blocks<T, F>(a: &[T], b: &[T], config: &SpmConfig, cmp: &F) -> Vec<SpmBlock>
where
    F: Fn(&T, &T) -> Ordering,
{
    let (na, nb) = (a.len(), b.len());
    let n = na + nb;
    let l = config.segment_len();
    let mut blocks = Vec::with_capacity(n.div_ceil(l.max(1)));
    let (mut ai, mut bi, mut oi) = (0usize, 0usize, 0usize);
    while oi < n {
        let wa = &a[ai..na.min(ai + l)];
        let wb = &b[bi..nb.min(bi + l)];
        let step = l.min(n - oi);
        let ta = co_rank_by(step, wa, wb, cmp);
        blocks.push(SpmBlock {
            a_start: ai,
            b_start: bi,
            a_consumed: ta,
            b_consumed: step - ta,
            out_start: oi,
        });
        ai += ta;
        bi += step - ta;
        oi += step;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::sequential::merge_into_by;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    fn oracle(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut out = vec![0; a.len() + b.len()];
        merge_into_by(a, b, &mut out, &|x, y| x.cmp(y));
        out
    }

    fn check_spm(a: &[i64], b: &[i64], cache: usize, threads: usize) {
        let expect = oracle(a, b);
        let mut out = vec![0; expect.len()];
        segmented_parallel_merge_into(a, b, &mut out, &SpmConfig::new(cache, threads));
        assert_eq!(out, expect, "cache={cache} threads={threads}");
    }

    #[test]
    fn spm_matches_sequential_across_cache_sizes() {
        let a: Vec<i64> = (0..3000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..2500).map(|x| x * 2 + 1).collect();
        for cache in [3, 30, 96, 300, 3000, 30_000] {
            check_spm(&a, &b, cache, 4);
        }
    }

    #[test]
    fn spm_with_various_thread_counts() {
        let a: Vec<i64> = (0..997).collect();
        let b: Vec<i64> = (0..1009).map(|x| x * 3 - 500).collect();
        for threads in [1, 2, 3, 5, 8, 13] {
            check_spm(&a, &b, 192, threads);
        }
    }

    #[test]
    fn spm_adversarial_one_sided() {
        let a: Vec<i64> = (10_000..11_000).collect();
        let b: Vec<i64> = (0..1000).collect();
        check_spm(&a, &b, 90, 4);
        check_spm(&b, &a, 90, 4);
    }

    #[test]
    fn spm_empty_and_tiny() {
        check_spm(&[], &[], 30, 2);
        check_spm(&[1], &[], 30, 2);
        check_spm(&[], &[1, 2], 30, 2);
        check_spm(&[5], &[3], 3, 2);
    }

    #[test]
    fn spm_cache_smaller_than_threads_still_correct() {
        // L clamps to the thread count.
        let a: Vec<i64> = (0..100).collect();
        let b: Vec<i64> = (0..100).map(|x| x + 50).collect();
        check_spm(&a, &b, 1, 8);
    }

    #[test]
    fn spm_is_stable() {
        let a: Vec<(i32, u32)> = (0..200).map(|i| (i / 20, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..200).map(|i| (i / 20, 1000 + i as u32)).collect();
        let cmp = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
        let mut expect = vec![(0, 0); 400];
        merge_into_by(&a, &b, &mut expect, &cmp);
        let mut out = vec![(0, 0); 400];
        let cfg = SpmConfig::new(60, 3);
        segmented_parallel_merge_into_by(&a, &b, &mut out, &cfg, &cmp, &NoRecorder);
        assert_eq!(out, expect);
    }

    #[test]
    fn segmented_merge_reports_every_search_and_probe_step() {
        use mergepath_telemetry::{CounterKind, SpanKind, TimelineRecorder};
        let a: Vec<i64> = (0..3000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..3000).map(|x| x * 2 + 1).collect();
        let rec = TimelineRecorder::new();
        let mut out = vec![0; 6000];
        let cfg = SpmConfig::new(300, 4);
        segmented_parallel_merge_into_by(&a, &b, &mut out, &cfg, &|x, y| x.cmp(y), &rec);
        let t = rec.finish();
        let searches = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::DiagonalSearch)
            .count();
        let steps: u64 = t
            .counters
            .iter()
            .filter(|c| c.kind == CounterKind::DiagonalProbeSteps)
            .map(|c| c.total)
            .sum();
        // 60 windows, each one window search and four shares' two cuts.
        assert_eq!(searches, 60 * 9);
        // Every search spans at most L = 100 cells of its diagonal, so it
        // takes at most ⌈log2(101)⌉ = 7 probe steps.
        assert!(steps > 0 && steps <= 60 * 9 * 7, "{steps} probe steps");
    }

    #[test]
    fn blocks_tile_the_grid() {
        let a: Vec<i64> = (0..500).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..300).map(|x| x * 3).collect();
        let cfg = SpmConfig::new(90, 4);
        let blocks = spm_blocks(&a, &b, &cfg, &|x, y| x.cmp(y));
        let l = cfg.segment_len();
        let mut ai = 0;
        let mut bi = 0;
        let mut oi = 0;
        for blk in &blocks {
            assert_eq!(blk.a_start, ai);
            assert_eq!(blk.b_start, bi);
            assert_eq!(blk.out_start, oi);
            assert!(blk.len() <= l);
            // Lemma 15: a segment of length L consumes ≤ L from each input.
            assert!(blk.a_consumed <= l && blk.b_consumed <= l);
            ai += blk.a_consumed;
            bi += blk.b_consumed;
            oi += blk.len();
        }
        assert_eq!(ai, a.len());
        assert_eq!(bi, b.len());
        assert_eq!(oi, 800);
        // All blocks except possibly the last are full-length.
        for blk in &blocks[..blocks.len() - 1] {
            assert_eq!(blk.len(), l);
        }
    }

    #[test]
    fn segment_len_clamps() {
        assert_eq!(SpmConfig::new(300, 4).segment_len(), 100);
        assert_eq!(SpmConfig::new(0, 4).segment_len(), 4);
        assert_eq!(SpmConfig::new(0, 0).segment_len(), 1);
        assert_eq!(SpmConfig::new(2, 1).segment_len(), 1);
    }

    #[test]
    fn try_variant_reports_errors() {
        let a = [1i64];
        let b = [2i64];
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        let mut bad = [0i64; 3];
        assert!(matches!(
            try_segmented_parallel_merge_into_by(&a, &b, &mut bad, &SpmConfig::new(30, 2), &cmp),
            Err(MergeError::OutputLenMismatch { .. })
        ));
        let mut ok = [0i64; 2];
        assert!(matches!(
            try_segmented_parallel_merge_into_by(&a, &b, &mut ok, &SpmConfig::new(30, 0), &cmp),
            Err(MergeError::ZeroThreads)
        ));
        assert!(try_segmented_parallel_merge_into_by(
            &a,
            &b,
            &mut ok,
            &SpmConfig::new(30, 2),
            &cmp
        )
        .is_ok());
        assert_eq!(ok, [1, 2]);
    }

    proptest! {
        #[test]
        fn spm_equals_sequential(
            a in proptest::collection::vec(-500i64..500, 0..250).prop_map(sorted),
            b in proptest::collection::vec(-500i64..500, 0..250).prop_map(sorted),
            cache in 1usize..200,
            threads in 1usize..8,
        ) {
            check_spm(&a, &b, cache, threads);
        }

        #[test]
        fn blocks_always_tile(
            a in proptest::collection::vec(-500i64..500, 0..200).prop_map(sorted),
            b in proptest::collection::vec(-500i64..500, 0..200).prop_map(sorted),
            cache in 1usize..100,
        ) {
            let cfg = SpmConfig::new(cache, 2);
            let blocks = spm_blocks(&a, &b, &cfg, &|x: &i64, y: &i64| x.cmp(y));
            let total_a: usize = blocks.iter().map(|b| b.a_consumed).sum();
            let total_b: usize = blocks.iter().map(|b| b.b_consumed).sum();
            prop_assert_eq!(total_a, a.len());
            prop_assert_eq!(total_b, b.len());
        }
    }
}
