//! Equisized merge-path partitioning (paper, Theorems 9 and 14).
//!
//! Cutting the merge path at `p − 1` equispaced cross diagonals splits the
//! merge of `A` and `B` into `p` independent jobs. Each job merges a
//! contiguous sub-array of `A` with a contiguous sub-array of `B` (Lemma 2)
//! into a contiguous range of the output; jobs are element-wise disjoint
//! (Lemma 3), ordered (Lemma 4), and within one element of the same size
//! (Corollary 7 — perfect load balance).
//!
//! The partition itself costs `O(p · log min(|A|, |B|))` comparisons in
//! total, and each of the `p − 1` interior cut points can be computed
//! independently — this is what makes the scheme synchronization-free.

use core::cmp::Ordering;

use mergepath_telemetry::{span, CounterKind, Recorder, SpanKind};

use crate::diagonal::{co_rank_by, co_rank_counted};
use crate::view::SortedView;

/// One independent merge job produced by the partitioner.
///
/// Merging `a[a_start..a_end]` with `b[b_start..b_end]` produces exactly the
/// output range `out_start..out_end`; concatenating the outputs of all
/// segments in order yields the full stable merge (Theorem 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Start (inclusive) of this job's sub-array of `A`.
    pub a_start: usize,
    /// End (exclusive) of this job's sub-array of `A`.
    pub a_end: usize,
    /// Start (inclusive) of this job's sub-array of `B`.
    pub b_start: usize,
    /// End (exclusive) of this job's sub-array of `B`.
    pub b_end: usize,
    /// Start (inclusive) of this job's output range.
    pub out_start: usize,
    /// End (exclusive) of this job's output range.
    pub out_end: usize,
}

impl Segment {
    /// Number of elements this job takes from `A`.
    pub fn a_len(&self) -> usize {
        self.a_end - self.a_start
    }

    /// Number of elements this job takes from `B`.
    pub fn b_len(&self) -> usize {
        self.b_end - self.b_start
    }

    /// Number of output elements this job produces (its merge-path length).
    pub fn len(&self) -> usize {
        self.out_end - self.out_start
    }

    /// Returns `true` if this job produces no output.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Returns the `p + 1` grid points `(i_k, j_k)` where the merge path crosses
/// the equispaced cross diagonals `d_k = ⌊k·(|A|+|B|)/p⌋`, `k = 0..=p`.
///
/// The first point is always `(0, 0)` and the last `(|A|, |B|)`. Interior
/// points are computed independently (in the parallel algorithm, each
/// processor computes only its own — paper, Algorithm 1 step 2).
///
/// # Panics
/// Panics if `p == 0`.
///
/// # Examples
/// ```
/// use mergepath::partition::partition_points;
/// let a = [1, 3, 5, 7];
/// let b = [2, 4, 6, 8];
/// assert_eq!(partition_points(&a, &b, 2), vec![(0, 0), (2, 2), (4, 4)]);
/// ```
pub fn partition_points_by<T, A, B, F>(a: &A, b: &B, p: usize, cmp: &F) -> Vec<(usize, usize)>
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
{
    cut_points(a.len(), b.len(), p, |d| co_rank_by(d, a, b, cmp))
}

/// The `p + 1` grid points of [`partition_points_by`], with `co_rank(d)`
/// searching each interior diagonal `d`.
fn cut_points(
    na: usize,
    nb: usize,
    p: usize,
    mut co_rank: impl FnMut(usize) -> usize,
) -> Vec<(usize, usize)> {
    assert!(p > 0, "partition requires at least one processor");
    let n = na + nb;
    let mut points = Vec::with_capacity(p + 1);
    points.push((0, 0));
    for k in 1..p {
        let d = segment_boundary(n, p, k);
        let i = co_rank(d);
        points.push((i, d - i));
    }
    points.push((na, nb));
    points
}

/// The segments between consecutive grid points.
fn segments(points: &[(usize, usize)]) -> Vec<Segment> {
    points
        .windows(2)
        .map(|w| Segment {
            a_start: w[0].0,
            a_end: w[1].0,
            b_start: w[0].1,
            b_end: w[1].1,
            out_start: w[0].0 + w[0].1,
            out_end: w[1].0 + w[1].1,
        })
        .collect()
}

/// [`partition_points_by`] for `T: Ord`.
pub fn partition_points<T: Ord>(a: &[T], b: &[T], p: usize) -> Vec<(usize, usize)> {
    partition_points_by(a, b, p, &|x: &T, y: &T| x.cmp(y))
}

/// Splits the merge of `a` and `b` into `p` independent, balanced
/// [`Segment`]s (sizes differ by at most one element).
///
/// # Panics
/// Panics if `p == 0`.
///
/// # Examples
/// ```
/// use mergepath::partition::partition_segments;
/// let a = [1, 3, 5, 7];
/// let b = [2, 4, 6, 8];
/// let segs = partition_segments(&a, &b, 4);
/// assert_eq!(segs.len(), 4);
/// assert!(segs.iter().all(|s| s.len() == 2));
/// ```
pub fn partition_segments<T: Ord>(a: &[T], b: &[T], p: usize) -> Vec<Segment> {
    partition_segments_by(a, b, p, &|x: &T, y: &T| x.cmp(y))
}

/// [`partition_segments`] with a caller-supplied comparator.
pub fn partition_segments_by<T, A, B, F>(a: &A, b: &B, p: usize, cmp: &F) -> Vec<Segment>
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
{
    segments(&partition_points_by(a, b, p, cmp))
}

/// The output index at which processor `k` of `p` starts (the diagonal it
/// searches): `⌊k·n/p⌋`, where `n = |A| + |B|`.
///
/// Uses `u128` intermediate arithmetic so paper-scale inputs (`n` up to
/// 512 Mi elements) cannot overflow on 64-bit targets.
#[inline]
pub fn segment_boundary(n: usize, p: usize, k: usize) -> usize {
    debug_assert!(k <= p && p > 0);
    ((n as u128 * k as u128) / p as u128) as usize
}

/// Fewest outputs a tile holds: Algorithm 1 cuts a merge of `n` outputs
/// into more than its `threads` segments only once `n / TILE_MIN` exceeds
/// `threads`, so below `2 · TILE_MIN` outputs every merge is cut exactly as
/// the paper cuts it. A tile this size still pays for its two diagonal
/// searches and its run-structure probe many times over.
pub const TILE_MIN: usize = 1 << 13;

/// Most tiles Algorithm 1 cuts per participating thread: enough that a
/// participant which draws cheap tiles, or wakes late, can be made up for
/// by the others, few enough that the per-tile searches and probes stay
/// noise.
pub const TILES_PER_THREAD: usize = 4;

/// The number of equal output ranges (*tiles*) that Algorithm 1 and its
/// batched form cut a merge of `n` outputs into for `threads ≥ 1`
/// participants: one, the whole merge, when `n ≤ threads`; otherwise
/// `clamp(n / TILE_MIN, threads, max_tiles(threads))`. Every tile holds at
/// least one output.
///
/// Tile `k` of `T` is the output range `⌊k·n/T⌋..⌊(k+1)·n/T⌋` (the cut of
/// [`segment_boundary`] with `T` in place of `p`), so Theorems 9 and 14
/// hold per tile: tiles are disjoint, each is found by two diagonal
/// searches, and each is at most `⌈n/T⌉ ≤ ⌈n/p⌉` long. Each tile picks its
/// own segment kernel, and at most `threads` participants claim the tiles
/// as they free up (§IV's segmented merge and GPU Merge Path likewise cut
/// the path finer than the processor count).
///
/// # Examples
/// ```
/// use mergepath::partition::{tile_count, TILE_MIN};
/// assert_eq!(tile_count(3, 4), 1); // no more outputs than threads
/// assert_eq!(tile_count(4096, 2), 2); // below the tile floor: p segments
/// assert_eq!(tile_count(8 * TILE_MIN, 1), 4);
/// assert_eq!(tile_count(8 * TILE_MIN, 2), 8);
/// assert_eq!(tile_count(1 << 30, 2), 8);
/// ```
pub fn tile_count(n: usize, threads: usize) -> usize {
    if n <= threads {
        1
    } else {
        (n / TILE_MIN).clamp(threads, max_tiles(threads))
    }
}

/// The most tiles [`tile_count`] cuts for `threads` participants,
/// `TILES_PER_THREAD · threads`: a merge run at `threads` reports on at
/// most this many logical workers.
pub fn max_tiles(threads: usize) -> usize {
    threads.saturating_mul(TILES_PER_THREAD)
}

/// Step 2 of Algorithm 1 for the tile with output range `d_lo..d_hi`: its
/// two searches ([`search_diagonal`]) in a `partition` span on `worker`.
pub(crate) fn tile_co_ranks<T, A, B, F, R>(
    d_lo: usize,
    d_hi: usize,
    a: &A,
    b: &B,
    cmp: &F,
    rec: &R,
    worker: usize,
) -> (usize, usize)
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
    R: Recorder,
{
    let _partition = span(rec, worker, SpanKind::Partition);
    (
        search_diagonal(d_lo, a, b, cmp, rec, worker),
        search_diagonal(d_hi, a, b, cmp, rec, worker),
    )
}

/// [`co_rank_counted`] of diagonal `d` in a `diagonal_search` span on
/// logical worker `worker` of `rec`, its probe steps added to the worker's
/// probe-step and comparison counters (under `NoRecorder`, [`co_rank_by`]).
pub(crate) fn search_diagonal<T, A, B, F, R>(
    d: usize,
    a: &A,
    b: &B,
    cmp: &F,
    rec: &R,
    worker: usize,
) -> usize
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
    R: Recorder,
{
    let _search = span(rec, worker, SpanKind::DiagonalSearch);
    let (i, steps) = co_rank_counted(d, a, b, cmp);
    rec.counter_add(worker, CounterKind::DiagonalProbeSteps, steps.into());
    rec.counter_add(worker, CounterKind::Comparisons, steps.into());
    i
}

/// Result of [`partition_segments_counted`]: the segments plus the number of
/// binary-search comparisons each interior cut point cost.
#[derive(Debug, Clone)]
pub struct CountedPartition {
    /// The `p` merge jobs.
    pub segments: Vec<Segment>,
    /// Comparisons spent per interior cut point (`p − 1` entries).
    pub comparisons: Vec<u32>,
}

/// [`partition_segments_by`] that also reports per-cut-point comparison
/// counts, for the Theorem 14 / §III complexity experiments.
pub fn partition_segments_counted<T, A, B, F>(a: &A, b: &B, p: usize, cmp: &F) -> CountedPartition
where
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
{
    let mut comparisons = Vec::with_capacity(p.saturating_sub(1));
    let points = cut_points(a.len(), b.len(), p, |d| {
        let (i, c) = co_rank_counted(d, a, b, cmp);
        comparisons.push(c);
        i
    });
    CountedPartition {
        segments: segments(&points),
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    fn check_partition(a: &[i64], b: &[i64], p: usize) {
        let segs = partition_segments(a, b, p);
        assert_eq!(segs.len(), p);
        // Segments tile A, B and the output exactly, in order.
        assert_eq!(segs[0].a_start, 0);
        assert_eq!(segs[0].b_start, 0);
        assert_eq!(segs[0].out_start, 0);
        for w in segs.windows(2) {
            assert_eq!(w[0].a_end, w[1].a_start);
            assert_eq!(w[0].b_end, w[1].b_start);
            assert_eq!(w[0].out_end, w[1].out_start);
        }
        let last = segs.last().unwrap();
        assert_eq!(last.a_end, a.len());
        assert_eq!(last.b_end, b.len());
        assert_eq!(last.out_end, a.len() + b.len());
        // Corollary 7: sizes differ by at most 1.
        let min = segs.iter().map(Segment::len).min().unwrap();
        let max = segs.iter().map(Segment::len).max().unwrap();
        assert!(max - min <= 1, "imbalance: min={min} max={max}");
        // Consistency: a_len + b_len == len.
        for s in &segs {
            assert_eq!(s.a_len() + s.b_len(), s.len());
        }
    }

    #[test]
    fn partition_interleaved() {
        let a: Vec<i64> = (0..100).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..100).map(|x| x * 2 + 1).collect();
        for p in [1, 2, 3, 4, 7, 12, 100, 200] {
            check_partition(&a, &b, p);
        }
    }

    #[test]
    fn partition_adversarial_all_a_greater() {
        let a: Vec<i64> = (1000..1100).collect();
        let b: Vec<i64> = (0..100).collect();
        check_partition(&a, &b, 8);
        let segs = partition_segments(&a, &b, 8);
        // First half of the segments must consume only B, second half only A.
        assert_eq!(segs[0].a_len(), 0);
        assert_eq!(segs[7].b_len(), 0);
    }

    #[test]
    fn partition_with_empty_inputs() {
        let a: Vec<i64> = vec![];
        let b: Vec<i64> = (0..10).collect();
        check_partition(&a, &b, 4);
        check_partition(&b, &a, 4);
        check_partition(&a, &a, 3);
    }

    #[test]
    fn partition_more_processors_than_elements() {
        let a = [1i64, 5];
        let b = [3i64];
        check_partition(&a, &b, 16);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let a = [1i64];
        partition_segments(&a, &a, 0);
    }

    #[test]
    fn segment_boundary_no_overflow_at_paper_scale() {
        // 2 × 256 Mi elements, the largest Figure 5 configuration.
        let n = 512usize << 20;
        assert_eq!(segment_boundary(n, 12, 12), n);
        assert_eq!(segment_boundary(n, 12, 0), 0);
        assert!(segment_boundary(n, 12, 6) > 0);
        // Near usize::MAX with u128 arithmetic.
        assert_eq!(segment_boundary(usize::MAX, 2, 2), usize::MAX);
    }

    #[test]
    fn counted_partition_reports_logarithmic_costs() {
        let a: Vec<i64> = (0..4096).collect();
        let b: Vec<i64> = (0..4096).map(|x| x + 7).collect();
        let cp =
            partition_segments_counted(a.as_slice(), b.as_slice(), 8, &|x: &i64, y: &i64| x.cmp(y));
        assert_eq!(cp.segments.len(), 8);
        assert_eq!(cp.comparisons.len(), 7);
        let bound = (4096f64).log2().ceil() as u32 + 1;
        for &c in &cp.comparisons {
            assert!(c <= bound);
        }
    }

    #[test]
    fn points_lie_on_equispaced_diagonals() {
        let a: Vec<i64> = (0..37).collect();
        let b: Vec<i64> = (0..53).map(|x| x * 2).collect();
        let p = 6;
        let pts = partition_points(&a, &b, p);
        assert_eq!(pts.len(), p + 1);
        for (k, &(i, j)) in pts.iter().enumerate() {
            assert_eq!(i + j, segment_boundary(90, p, k), "point {k} off-diagonal");
        }
    }

    proptest! {
        #[test]
        fn partition_is_always_a_tiling(
            a in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            p in 1usize..20,
        ) {
            check_partition(&a, &b, p);
        }

        #[test]
        fn each_segment_merges_to_the_right_output_range(
            a in proptest::collection::vec(-30i64..30, 0..80).prop_map(sorted),
            b in proptest::collection::vec(-30i64..30, 0..80).prop_map(sorted),
            p in 1usize..10,
        ) {
            // Oracle: full stable merge via two-pointer walk.
            let mut oracle = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
                    oracle.push(a[i]);
                    i += 1;
                } else {
                    oracle.push(b[j]);
                    j += 1;
                }
            }
            for s in partition_segments(&a, &b, p) {
                // The multiset of this segment's inputs must equal the
                // corresponding slice of the oracle output, sorted.
                let mut mine: Vec<i64> = a[s.a_start..s.a_end]
                    .iter()
                    .chain(&b[s.b_start..s.b_end])
                    .copied()
                    .collect();
                mine.sort();
                prop_assert_eq!(&mine[..], &oracle[s.out_start..s.out_end]);
            }
        }
    }
}
