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
//!    windowed staging calls [`parallel_merge_into_by`] on it, which cuts
//!    `p` segments below `2 · TILE_MIN` outputs and Algorithm 1's tiles
//!    above.
//! 3. Write the `L` merged elements out.
//!
//! Theorem 16 guarantees feasibility: `L` elements of each input always
//! suffice to construct the next `L` steps of the path, whatever mix the
//! data dictates. The actual mix is only known after the fact — hence the
//! window must hold `2L` input elements for `L` outputs (the paper's
//! remark), and the consumed counts drive the next refill.
//!
//! Two staging strategies are implemented:
//!
//! * [`Staging::Windowed`] — the window is a pair of slices of the original
//!   arrays (no copying). The working set is bounded by `3L` but its
//!   *addresses* slide through memory; with hardware prefetchers this is the
//!   variant the paper benchmarked on x86.
//! * [`Staging::Cyclic`] — inputs are staged through two fixed power-of-two
//!   ring buffers exactly as in step 1 of Algorithm 2, so all merge-phase
//!   accesses hit a fixed `3L`-element footprint. This is the variant for
//!   simple-cache machines (the paper's Hypercore target) and the one the
//!   cache simulator analyses.

use core::cell::Cell;
use core::cmp::Ordering;

use mergepath_telemetry::{counted_cmp, span, CounterKind, NoRecorder, Recorder, SpanKind};

use crate::diagonal::co_rank_by;
use crate::error::MergeError;
use crate::executor::{self, SendPtr};
use crate::merge::parallel::parallel_merge_into_by;
use crate::merge::sequential::{merge_views_into_by, natural_cmp};
use crate::partition::{search_diagonal, segment_boundary, tile_co_ranks};
use crate::view::{RingBuffer, RingView, SortedView};

/// Input staging strategy for the segmented merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Staging {
    /// Merge directly from sliding windows of the input arrays.
    #[default]
    Windowed,
    /// Stage inputs through fixed cyclic buffers (paper, Algorithm 2 step 1).
    Cyclic,
}

/// Configuration of the segmented parallel merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmConfig {
    /// Cache capacity in *elements*; the segment length is `cache_elems / 3`.
    pub cache_elems: usize,
    /// Number of parallel workers per segment.
    pub threads: usize,
    /// Input staging strategy.
    pub staging: Staging,
}

impl SpmConfig {
    /// A windowed configuration for the given cache capacity (in elements)
    /// and worker count.
    pub fn new(cache_elems: usize, threads: usize) -> Self {
        SpmConfig {
            cache_elems,
            threads,
            staging: Staging::Windowed,
        }
    }

    /// Selects a staging strategy.
    pub fn with_staging(mut self, staging: Staging) -> Self {
        self.staging = staging;
        self
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
/// use mergepath::merge::segmented::{segmented_parallel_merge_into, SpmConfig, Staging};
/// let a: Vec<u32> = (0..500).map(|x| 2 * x).collect();
/// let b: Vec<u32> = (0..500).map(|x| 2 * x + 1).collect();
/// let mut out = vec![0; 1000];
/// // A 96-element cache: merge in 32-element path segments.
/// let cfg = SpmConfig::new(96, 4).with_staging(Staging::Cyclic);
/// segmented_parallel_merge_into(&a, &b, &mut out, &cfg);
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn segmented_parallel_merge_into<T>(a: &[T], b: &[T], out: &mut [T], config: &SpmConfig)
where
    T: Ord + Clone + Default + Send + Sync,
{
    segmented_parallel_merge_into_by(a, b, out, config, &natural_cmp, &NoRecorder);
}

/// [`segmented_parallel_merge_into`] with a caller-supplied comparator,
/// reporting telemetry into `rec` (pass [`NoRecorder`] for an untraced
/// merge): one `spm_window` span per outer iteration (on worker 0, the
/// orchestrating thread), `staging_fills` counts for the cyclic ring
/// refills, and per-share partition/merge spans inside each window.
pub fn segmented_parallel_merge_into_by<T, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    config: &SpmConfig,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Default + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let n = a.len() + b.len();
    assert!(
        out.len() == n,
        "output buffer length mismatch: expected {n}, got {}",
        out.len()
    );
    assert!(config.threads > 0, "thread count must be at least 1");
    match config.staging {
        Staging::Windowed => spm_windowed(a, b, out, config, cmp, rec),
        Staging::Cyclic => spm_cyclic(a, b, out, config, cmp, rec),
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
    T: Clone + Default + Send + Sync,
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

fn spm_windowed<T, F, R>(a: &[T], b: &[T], out: &mut [T], config: &SpmConfig, cmp: &F, rec: &R)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let (na, nb) = (a.len(), b.len());
    let n = na + nb;
    let l = config.segment_len();
    let (mut ai, mut bi, mut oi) = (0usize, 0usize, 0usize);
    while oi < n {
        let _window = span(rec, 0, SpanKind::SpmWindow);
        // Step 1 (windowed): the next ≤ L unconsumed elements of each input.
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

fn spm_cyclic<T, F, R>(a: &[T], b: &[T], out: &mut [T], config: &SpmConfig, cmp: &F, rec: &R)
where
    T: Clone + Default + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let (na, nb) = (a.len(), b.len());
    let n = na + nb;
    let l = config.segment_len();
    let mut ring_a: RingBuffer<T> = RingBuffer::with_capacity(l);
    let mut ring_b: RingBuffer<T> = RingBuffer::with_capacity(l);
    // Source cursors: how much of each input has been staged so far.
    let (mut fa, mut fb) = (0usize, 0usize);
    let mut oi = 0usize;
    while oi < n {
        let _window = span(rec, 0, SpanKind::SpmWindow);
        // Step 1: refill each buffer back up to L live elements (first
        // iteration fills from empty; later ones replace exactly what the
        // previous iteration consumed).
        let refill_a = (l - ring_a.len()).min(na - fa);
        ring_a.refill(&a[fa..fa + refill_a]);
        fa += refill_a;
        let refill_b = (l - ring_b.len()).min(nb - fb);
        ring_b.refill(&b[fb..fb + refill_b]);
        fb += refill_b;
        let fills = (refill_a > 0) as u64 + (refill_b > 0) as u64;
        rec.counter_add(0, CounterKind::StagingFills, fills);

        let va = ring_a.view();
        let vb = ring_b.view();
        let step = l.min(n - oi);
        debug_assert!(step <= va.len() + vb.len(), "Theorem 16 feasibility");
        let ta = search_diagonal(step, &va, &vb, cmp, rec, 0);
        let tb = step - ta;
        // Step 2: parallel merge of the staged windows.
        segment_merge_views_parallel(
            va.slice(0, ta),
            vb.slice(0, tb),
            &mut out[oi..oi + step],
            config,
            cmp,
            rec,
        );
        // Step 3 happened implicitly (writes stream to `out`); retire the
        // consumed staging slots so the next refill overwrites them.
        ring_a.consume(ta);
        ring_b.consume(tb);
        oi += step;
    }
}

/// Parallel merge of one segment staged in ring-buffer views.
///
/// This path stays on the classic view merge: the branch-lean and
/// galloping kernels require contiguous slices (block copies, exponential
/// probes), which the cyclic staging views cannot provide.
fn segment_merge_views_parallel<T, F, R>(
    sa: RingView<'_, T>,
    sb: RingView<'_, T>,
    out: &mut [T],
    config: &SpmConfig,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let step = out.len();
    let p = config.threads.min(step.max(1));
    let base = SendPtr::new(out.as_mut_ptr());
    executor::global().run_indexed(p, p, rec, &|k| {
        // Each share finds its own intersections, as in Algorithm 1.
        let (d_lo, d_hi) = (
            segment_boundary(step, p, k),
            segment_boundary(step, p, k + 1),
        );
        let (i_lo, i_hi) = tile_co_ranks(d_lo, d_hi, &sa, &sb, cmp, rec, k);
        // SAFETY: the cuts `⌊k·step/p⌋` are monotone, so the `d_lo..d_hi`
        // ranges are disjoint across shares and tile `out` exactly; the
        // pool's end barrier orders the writes before this frame resumes.
        // (Ring-view reads have no contiguous address range to report, so
        // only the write side is recorded here.)
        let chunk = unsafe { base.slice_mut(d_lo, d_hi - d_lo) };
        let hits = Cell::new(0u64);
        {
            let _merge = span(rec, k, SpanKind::SegmentMerge);
            merge_views_into_by(
                &sa.slice(i_lo, i_hi),
                &sb.slice(d_lo - i_lo, d_hi - i_hi),
                chunk,
                &counted_cmp(rec, cmp, &hits),
            );
        }
        rec.counter_add(k, CounterKind::Comparisons, hits.get());
        rec.worker_items(k, (d_hi - d_lo) as u64);
    });
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

    fn check_both_stagings(a: &[i64], b: &[i64], cache: usize, threads: usize) {
        let expect = oracle(a, b);
        for staging in [Staging::Windowed, Staging::Cyclic] {
            let cfg = SpmConfig::new(cache, threads).with_staging(staging);
            let mut out = vec![0; expect.len()];
            segmented_parallel_merge_into(a, b, &mut out, &cfg);
            assert_eq!(out, expect, "cache={cache} threads={threads} {staging:?}");
        }
    }

    #[test]
    fn spm_matches_sequential_across_cache_sizes() {
        let a: Vec<i64> = (0..3000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..2500).map(|x| x * 2 + 1).collect();
        for cache in [3, 30, 96, 300, 3000, 30_000] {
            check_both_stagings(&a, &b, cache, 4);
        }
    }

    #[test]
    fn spm_with_various_thread_counts() {
        let a: Vec<i64> = (0..997).collect();
        let b: Vec<i64> = (0..1009).map(|x| x * 3 - 500).collect();
        for threads in [1, 2, 3, 5, 8, 13] {
            check_both_stagings(&a, &b, 192, threads);
        }
    }

    #[test]
    fn spm_adversarial_one_sided() {
        let a: Vec<i64> = (10_000..11_000).collect();
        let b: Vec<i64> = (0..1000).collect();
        check_both_stagings(&a, &b, 90, 4);
        check_both_stagings(&b, &a, 90, 4);
    }

    #[test]
    fn spm_empty_and_tiny() {
        check_both_stagings(&[], &[], 30, 2);
        check_both_stagings(&[1], &[], 30, 2);
        check_both_stagings(&[], &[1, 2], 30, 2);
        check_both_stagings(&[5], &[3], 3, 2);
    }

    #[test]
    fn spm_cache_smaller_than_threads_still_correct() {
        // L clamps to the thread count.
        let a: Vec<i64> = (0..100).collect();
        let b: Vec<i64> = (0..100).map(|x| x + 50).collect();
        check_both_stagings(&a, &b, 1, 8);
    }

    #[test]
    fn spm_is_stable() {
        let a: Vec<(i32, u32)> = (0..200).map(|i| (i / 20, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..200).map(|i| (i / 20, 1000 + i as u32)).collect();
        let cmp = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
        let mut expect = vec![(0, 0); 400];
        merge_into_by(&a, &b, &mut expect, &cmp);
        for staging in [Staging::Windowed, Staging::Cyclic] {
            let cfg = SpmConfig::new(60, 3).with_staging(staging);
            let mut out = vec![(0, 0); 400];
            segmented_parallel_merge_into_by(&a, &b, &mut out, &cfg, &cmp, &NoRecorder);
            assert_eq!(out, expect, "{staging:?}");
        }
    }

    #[test]
    fn both_stagings_report_every_search_and_probe_step() {
        use mergepath_telemetry::{CounterKind, SpanKind, TimelineRecorder};
        let a: Vec<i64> = (0..3000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..3000).map(|x| x * 2 + 1).collect();
        let searches = |staging| {
            let rec = TimelineRecorder::new();
            let cfg = SpmConfig::new(300, 4).with_staging(staging);
            let mut out = vec![0; 6000];
            segmented_parallel_merge_into_by(&a, &b, &mut out, &cfg, &|x, y| x.cmp(y), &rec);
            let t = rec.finish();
            let spans = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::DiagonalSearch);
            let steps = t
                .counters
                .iter()
                .filter(|c| c.kind == CounterKind::DiagonalProbeSteps);
            (spans.count(), steps.map(|c| c.total).sum::<u64>())
        };
        // 60 windows, each one window search and four shares' two cuts.
        let windowed = searches(Staging::Windowed);
        assert_eq!(windowed.0, 60 * 9);
        assert_eq!(searches(Staging::Cyclic), windowed);
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
            check_both_stagings(&a, &b, cache, threads);
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
