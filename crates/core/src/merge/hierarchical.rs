//! Two-level (hierarchical) merge path — the GPU formulation.
//!
//! The paper's partitioning composes: *GPU Merge Path* (Green, McColl,
//! Bader, ICS 2012 — the direct successor of this paper) splits the merge
//! twice. A **grid-level** partition cuts the output into `blocks` equal
//! tiles with diagonal searches on the global arrays; each block then
//! stages its current input windows into a small fast memory (the GPU's
//! shared memory; a core's L1 here) and runs a **block-level** partition
//! among its `threads_per_block` lanes on the staged tile. Every lane
//! merges a tiny constant-size piece entirely from fast memory.
//!
//! This module reproduces that structure faithfully on the CPU:
//!
//! * level 1 runs the blocks as shares of the process-wide worker pool
//!   ([`crate::executor::global`]; the blocks are independent by
//!   Theorem 5);
//! * level 2 stages `tile` elements per input into a block-local buffer
//!   and partitions the staged merge among the lanes (sequentially — lanes
//!   model SIMT width, and the partition guarantees their work is
//!   disjoint, which is what the tests verify).
//!
//! The access pattern is the GPU one: global memory is touched only by
//! coalesced tile loads and output stores; all comparison traffic hits the
//! staging buffer. `examples/cache_model_tour` and the `merge_segmented`
//! bench quantify the effect.

use core::cell::Cell;
use core::cmp::Ordering;

use mergepath_telemetry::{counted_cmp, span, CounterKind, NoRecorder, Recorder, SpanKind};

use crate::diagonal::co_rank_by;
use crate::error::MergeError;
use crate::executor::{self, SendPtr};
use crate::merge::adaptive::{self, adaptive_merge_into_by, adaptive_merge_into_counted};
use crate::merge::sequential::natural_cmp;
use crate::partition::{partition_points_by, segment_boundary};

/// Shape of the two-level decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalConfig {
    /// Number of concurrently executing blocks (CTAs / thread groups).
    pub blocks: usize,
    /// Lanes per block; each lane merges `tile / threads_per_block`-ish
    /// elements per staged tile.
    pub threads_per_block: usize,
    /// Elements staged from *each* input per tile (shared-memory budget is
    /// `2 × tile` input elements).
    pub tile: usize,
}

impl HierarchicalConfig {
    /// A typical GPU-like shape: `blocks` CTAs of 32 lanes staging
    /// 256-element tiles.
    pub fn new(blocks: usize) -> Self {
        HierarchicalConfig {
            blocks,
            threads_per_block: 32,
            tile: 256,
        }
    }

    /// Overrides the lane count.
    pub fn with_threads_per_block(mut self, t: usize) -> Self {
        self.threads_per_block = t;
        self
    }

    /// Overrides the tile size.
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.tile = tile;
        self
    }

    fn validate(&self) {
        assert!(self.blocks > 0, "at least one block required");
        assert!(self.threads_per_block > 0, "at least one lane required");
        assert!(self.tile > 0, "tile must be non-empty");
    }
}

/// Stable two-level parallel merge using the natural order.
///
/// Semantically identical to
/// [`merge_into`](crate::merge::sequential::merge_into); only the
/// decomposition (and thus the memory schedule) differs.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()` or the config is degenerate.
///
/// # Examples
/// ```
/// use mergepath::merge::hierarchical::{hierarchical_merge_into, HierarchicalConfig};
/// let a: Vec<u32> = (0..1000).map(|x| 2 * x).collect();
/// let b: Vec<u32> = (0..1000).map(|x| 2 * x + 1).collect();
/// let mut out = vec![0; 2000];
/// // 4 blocks of 32 lanes, 256-element tiles — the GPU shape, on CPU.
/// hierarchical_merge_into(&a, &b, &mut out, &HierarchicalConfig::new(4));
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn hierarchical_merge_into<T>(a: &[T], b: &[T], out: &mut [T], config: &HierarchicalConfig)
where
    T: Ord + Clone + Default + Send + Sync,
{
    hierarchical_merge_into_by(a, b, out, config, &natural_cmp);
}

/// [`hierarchical_merge_into`] with a caller-supplied comparator.
pub fn hierarchical_merge_into_by<T, F>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    config: &HierarchicalConfig,
    cmp: &F,
) where
    T: Clone + Default + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    hierarchical_merge_into_recorded(a, b, out, config, cmp, &NoRecorder);
}

/// [`hierarchical_merge_into_by`] reporting spans, counters and per-worker
/// element counts into `rec`. With `NoRecorder` this is the untraced kernel.
pub fn hierarchical_merge_into_recorded<T, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    config: &HierarchicalConfig,
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
    config.validate();
    if n == 0 {
        return;
    }
    let blocks = config.blocks.min(n);

    // Level 1: grid partition on the global arrays, one pool share per
    // block.
    let points = if R::ACTIVE {
        let probes = Cell::new(0u64);
        let points = {
            let _partition = span(rec, 0, SpanKind::Partition);
            partition_points_by(a, b, blocks, &counted_cmp(cmp, &probes))
        };
        rec.counter_add(0, CounterKind::DiagonalProbeSteps, probes.get());
        rec.counter_add(0, CounterKind::Comparisons, probes.get());
        points
    } else {
        partition_points_by(a, b, blocks, cmp)
    };
    let base = SendPtr::new(out.as_mut_ptr());
    executor::global().run_indexed_recorded(blocks, blocks, rec, &|blk| {
        let (i_lo, j_lo) = points[blk];
        let (i_hi, j_hi) = points[blk + 1];
        // Block blk's output range starts at its path offset i_lo + j_lo.
        let (d_lo, len) = (i_lo + j_lo, (i_hi - i_lo) + (j_hi - j_lo));
        let (sa, sb) = (&a[i_lo..i_hi], &b[j_lo..j_hi]);
        executor::note_read_range(sa);
        executor::note_read_range(sb);
        // SAFETY: partition points are monotone, so the `d_lo..d_lo+len`
        // ranges are disjoint across blocks and tile `out` exactly; the
        // pool's end barrier orders the writes before this frame resumes.
        // Lane-level writes happen through safe sub-slices of this chunk,
        // so the block-level record covers the block's whole write-set.
        let chunk = unsafe { base.slice_mut(d_lo, len) };
        merge_block_tiled(sa, sb, chunk, config, cmp, blk, rec);
        if R::ACTIVE {
            rec.worker_items(blk, len as u64);
        }
    });
}

/// Level 2: one block's merge, staged tile by tile through a block-local
/// buffer and partitioned among the lanes.
fn merge_block_tiled<T, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    config: &HierarchicalConfig,
    cmp: &F,
    blk: usize,
    rec: &R,
) where
    T: Clone + Default,
    F: Fn(&T, &T) -> Ordering,
    R: Recorder,
{
    let tile = config.tile;
    let lanes = config.threads_per_block;
    let (na, nb) = (a.len(), b.len());
    let n = na + nb;
    // Staging buffers: the "shared memory" of the block.
    let mut stage_a: Vec<T> = Vec::with_capacity(tile);
    let mut stage_b: Vec<T> = Vec::with_capacity(tile);
    let (mut ai, mut bi, mut oi) = (0usize, 0usize, 0usize);
    while oi < n {
        let _window = span(rec, blk, SpanKind::SpmWindow);
        if R::ACTIVE {
            let fills = (ai < na) as u64 + (bi < nb) as u64;
            rec.counter_add(blk, CounterKind::StagingFills, fills);
        }
        // Coalesced tile loads (Theorem 16 feasibility: `tile` of each
        // input always suffices for `tile` outputs).
        stage_a.clear();
        stage_a.extend_from_slice(&a[ai..na.min(ai + tile)]);
        stage_b.clear();
        stage_b.extend_from_slice(&b[bi..nb.min(bi + tile)]);
        let step = tile.min(n - oi);
        debug_assert!(step <= stage_a.len() + stage_b.len());
        // Tile end point, then lane partition *within the staged data*.
        let ta = if R::ACTIVE {
            let probes = Cell::new(0u64);
            let ta = {
                let _search = span(rec, blk, SpanKind::DiagonalSearch);
                co_rank_by(
                    step,
                    stage_a.as_slice(),
                    stage_b.as_slice(),
                    &counted_cmp(cmp, &probes),
                )
            };
            rec.counter_add(blk, CounterKind::DiagonalProbeSteps, probes.get());
            rec.counter_add(blk, CounterKind::Comparisons, probes.get());
            ta
        } else {
            co_rank_by(step, stage_a.as_slice(), stage_b.as_slice(), cmp)
        };
        let tb = step - ta;
        let sa = &stage_a[..ta];
        let sb = &stage_b[..tb];
        let active = lanes.min(step.max(1));
        for lane in 0..active {
            let d_lo = segment_boundary(step, active, lane);
            let d_hi = segment_boundary(step, active, lane + 1);
            if R::ACTIVE {
                let probes = Cell::new(0u64);
                let (l_lo, l_hi) = {
                    let _partition = span(rec, blk, SpanKind::Partition);
                    let counting = counted_cmp(cmp, &probes);
                    (
                        co_rank_by(d_lo, sa, sb, &counting),
                        co_rank_by(d_hi, sa, sb, &counting),
                    )
                };
                rec.counter_add(blk, CounterKind::DiagonalProbeSteps, probes.get());
                rec.counter_add(blk, CounterKind::Comparisons, probes.get());
                let hits = Cell::new(0u64);
                // Lane pieces are tile-sized at most, so the run-structure
                // probe usually settles on the classic kernel; the dispatch
                // still goes through it so fixed-policy sweeps cover this
                // path too.
                let kernel = {
                    let _merge = span(rec, blk, SpanKind::SegmentMerge);
                    adaptive_merge_into_counted(
                        &sa[l_lo..l_hi],
                        &sb[d_lo - l_lo..d_hi - l_hi],
                        &mut out[oi + d_lo..oi + d_hi],
                        cmp,
                        &hits,
                    )
                };
                adaptive::record_choice(rec, blk, kernel);
                rec.counter_add(blk, CounterKind::Comparisons, hits.get());
            } else {
                let l_lo = co_rank_by(d_lo, sa, sb, cmp);
                let l_hi = co_rank_by(d_hi, sa, sb, cmp);
                adaptive_merge_into_by(
                    &sa[l_lo..l_hi],
                    &sb[d_lo - l_lo..d_hi - l_hi],
                    &mut out[oi + d_lo..oi + d_hi],
                    cmp,
                );
            }
        }
        ai += ta;
        bi += tb;
        oi += step;
    }
}

/// Fallible variant of [`hierarchical_merge_into_by`].
pub fn try_hierarchical_merge_into_by<T, F>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    config: &HierarchicalConfig,
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
    if config.blocks == 0 || config.threads_per_block == 0 || config.tile == 0 {
        return Err(MergeError::WindowTooSmall {
            window: config.tile,
            threads: config.threads_per_block,
        });
    }
    hierarchical_merge_into_by(a, b, out, config, cmp);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    fn oracle(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut out = vec![0; a.len() + b.len()];
        crate::merge::sequential::merge_into(a, b, &mut out);
        out
    }

    fn check(a: &[i64], b: &[i64], cfg: &HierarchicalConfig) {
        let expect = oracle(a, b);
        let mut out = vec![0; expect.len()];
        hierarchical_merge_into(a, b, &mut out, cfg);
        assert_eq!(out, expect, "{cfg:?}");
    }

    #[test]
    fn matches_sequential_across_shapes() {
        let a: Vec<i64> = (0..5000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..4000).map(|x| x * 3 + 1).collect();
        for blocks in [1usize, 2, 7, 16] {
            for lanes in [1usize, 4, 32] {
                for tile in [8usize, 64, 1024] {
                    check(
                        &a,
                        &b,
                        &HierarchicalConfig {
                            blocks,
                            threads_per_block: lanes,
                            tile,
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn adversarial_and_degenerate() {
        let cfg = HierarchicalConfig::new(4);
        let big: Vec<i64> = (1000..2000).collect();
        let small: Vec<i64> = (0..10).collect();
        check(&big, &small, &cfg);
        check(&small, &big, &cfg);
        check(&[], &[], &cfg);
        check(&[1], &[], &cfg);
        check(&[], &small, &cfg);
        let ties = vec![7i64; 500];
        check(&ties, &ties, &cfg);
    }

    #[test]
    fn gpu_like_default_shape() {
        let cfg = HierarchicalConfig::new(8);
        assert_eq!(cfg.threads_per_block, 32);
        assert_eq!(cfg.tile, 256);
        let a: Vec<i64> = (0..10_000).map(|x| (x * 17) % 30_011).collect::<Vec<_>>();
        let a = sorted(a);
        let b = sorted((0..10_000).map(|x| (x * 23) % 30_011).collect());
        check(&a, &b, &cfg);
    }

    #[test]
    fn stability_preserved() {
        let a: Vec<(i32, u32)> = (0..300).map(|i| (i / 30, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..300).map(|i| (i / 30, 1000 + i as u32)).collect();
        let cmp = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
        let mut expect = vec![(0, 0); 600];
        crate::merge::sequential::merge_into_by(&a, &b, &mut expect, &cmp);
        let cfg = HierarchicalConfig::new(3)
            .with_tile(64)
            .with_threads_per_block(8);
        let mut out = vec![(0, 0); 600];
        hierarchical_merge_into_by(&a, &b, &mut out, &cfg, &cmp);
        assert_eq!(out, expect);
    }

    #[test]
    fn try_variant_validates() {
        let a = [1i64];
        let b = [2i64];
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        let mut bad = [0i64; 3];
        assert!(try_hierarchical_merge_into_by(
            &a,
            &b,
            &mut bad,
            &HierarchicalConfig::new(1),
            &cmp
        )
        .is_err());
        let mut ok = [0i64; 2];
        let degenerate = HierarchicalConfig {
            blocks: 0,
            threads_per_block: 32,
            tile: 256,
        };
        assert!(try_hierarchical_merge_into_by(&a, &b, &mut ok, &degenerate, &cmp).is_err());
        assert!(
            try_hierarchical_merge_into_by(&a, &b, &mut ok, &HierarchicalConfig::new(2), &cmp)
                .is_ok()
        );
        assert_eq!(ok, [1, 2]);
    }

    proptest! {
        #[test]
        fn equals_sequential(
            a in proptest::collection::vec(-500i64..500, 0..300).prop_map(sorted),
            b in proptest::collection::vec(-500i64..500, 0..300).prop_map(sorted),
            blocks in 1usize..6,
            lanes in 1usize..9,
            tile in 1usize..80,
        ) {
            check(&a, &b, &HierarchicalConfig { blocks, threads_per_block: lanes, tile });
        }
    }
}
