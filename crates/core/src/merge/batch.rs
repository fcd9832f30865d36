//! Batched pairwise merges under one global worker budget.
//!
//! A merge-sort round must merge *many* run pairs. Giving every pair the
//! full thread count serializes the pairs; giving each pair one thread
//! starves when runs are ragged. The merge-path view dissolves the
//! dilemma: concatenate the pairs' outputs into one virtual output of
//! length `ΣNᵢ`, cut **that** into equispaced tiles, and let each tile
//! handle whatever pair fragments its global range covers — every
//! fragment located by a diagonal search in its own pair, and merged by
//! the kernel the probe picks for it. Perfect balance in output
//! (Corollary 7) across an arbitrary mix of pair sizes, still one
//! fork-join and zero synchronization.
//!
//! The tiles are Algorithm 1's ([`tile_count`] of `ΣNᵢ` and `threads`):
//! exactly `threads` below `2 · TILE_MIN` outputs, up to
//! `TILES_PER_THREAD · threads` above, and one when `ΣNᵢ ≤ threads`. At
//! most `threads` participants claim them; with one thread, or one tile,
//! the executor runs them in a loop on the caller. Each fragment is
//! searched and merged by the same two steps as an Algorithm 1 tile
//! ([`crate::merge::parallel`]).
//!
//! [`crate::sort::parallel`] uses this as its round primitive.

use core::cmp::Ordering;

use mergepath_telemetry::{NoRecorder, Recorder};

use crate::executor::{self, SendPtr};
use crate::merge::adaptive::adaptive_merge_into_by;
use crate::merge::sequential::natural_cmp;
use crate::partition::{segment_boundary, tile_co_ranks, tile_count};

/// Stable merges of each `(a, b)` pair into consecutive regions of `out`
/// (pair `i`'s output occupies the range right after pair `i − 1`'s),
/// executed by `threads` workers balanced across the whole batch.
///
/// # Panics
/// Panics if `out.len()` differs from the total input length or
/// `threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::merge::batch::batch_merge_into;
/// let pairs: Vec<(&[u32], &[u32])> = vec![
///     (&[1, 5][..], &[2, 3][..]),
///     (&[10][..], &[][..]),
///     (&[7, 8][..], &[6, 9][..]),
/// ];
/// let mut out = [0; 9];
/// batch_merge_into(&pairs, &mut out, 4);
/// assert_eq!(out, [1, 2, 3, 5, 10, 6, 7, 8, 9]);
/// ```
pub fn batch_merge_into<T>(pairs: &[(&[T], &[T])], out: &mut [T], threads: usize)
where
    T: Ord + Clone + Send + Sync,
{
    batch_merge_into_by(pairs, out, threads, &natural_cmp, &NoRecorder);
}

/// The equispaced global cut for tile `k` of `p` over a batch whose
/// pair outputs start at `offsets` (prefix sums, `offsets[last] == total`):
/// returns `(g_lo, g_hi, first_pair)` — the tile's half-open global
/// output range and the index of the first pair overlapping it.
///
/// This *is* the batch's share computation: the output is split purely
/// proportional to output position (Corollary 7 equispaced cuts), never
/// aligned to pair boundaries. Exposed for the Thm-14 regression
/// test below, which pins both the exact global `⌈total/p⌉` cap and the
/// current per-pair `⌈E/s⌉` imbalance bound.
pub(crate) fn worker_cut(
    offsets: &[usize],
    total: usize,
    p: usize,
    k: usize,
) -> (usize, usize, usize) {
    let g_lo = segment_boundary(total, p, k);
    let g_hi = segment_boundary(total, p, k + 1);
    let first_pair = offsets
        .partition_point(|&off| off <= g_lo)
        .saturating_sub(1);
    (g_lo, g_hi, first_pair)
}

/// Worker `k`'s fragments, one per pair it touches:
/// `(pair, lo, hi)` in the pair's local output coordinates. Test-facing
/// companion of [`worker_cut`] (the kernel fuses this walk with
/// execution; the regression test wants it as data).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn worker_pair_fragments(
    offsets: &[usize],
    total: usize,
    p: usize,
    k: usize,
) -> Vec<(usize, usize, usize)> {
    let (g_lo, g_hi, mut pi) = worker_cut(offsets, total, p, k);
    let pairs = offsets.len() - 1;
    let mut frags = Vec::new();
    while pi < pairs && offsets[pi] < g_hi {
        let lo = g_lo.max(offsets[pi]) - offsets[pi];
        let hi = g_hi.min(offsets[pi + 1]) - offsets[pi];
        if hi > lo {
            frags.push((pi, lo, hi));
        }
        pi += 1;
    }
    frags
}

/// [`batch_merge_into`] with a caller-supplied comparator, reporting
/// spans, counters and per-tile element counts into `rec` (pass
/// [`NoRecorder`] for an untraced merge).
pub fn batch_merge_into_by<T, F, R>(
    pairs: &[(&[T], &[T])],
    out: &mut [T],
    threads: usize,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    assert!(threads > 0, "thread count must be at least 1");
    // Global offsets of each pair's output.
    let mut offsets = Vec::with_capacity(pairs.len() + 1);
    let mut total = 0usize;
    offsets.push(0);
    for (a, b) in pairs {
        total += a.len() + b.len();
        offsets.push(total);
    }
    assert!(
        out.len() == total,
        "output buffer length mismatch: expected {total}, got {}",
        out.len()
    );
    if total == 0 {
        return;
    }
    let tiles = tile_count(total, threads);
    let base = SendPtr::new(out.as_mut_ptr());
    let offsets = &offsets;
    let tile = |k: usize| {
        // Pairs overlapping [g_lo, g_hi): binary search the first.
        let (g_lo, g_hi, mut pi) = worker_cut(offsets, total, tiles, k);
        // SAFETY: `g_lo..g_hi` ranges are disjoint across tiles and cover
        // `out` exactly (`g_hi <= total == out.len()`); every tile has run
        // before `run_indexed` returns to this frame.
        let chunk = unsafe { base.slice_mut(g_lo, g_hi - g_lo) };
        let mut chunk_pos = 0usize;
        while pi < pairs.len() && offsets[pi] < g_hi {
            let (a, b) = pairs[pi];
            // This tile's sub-range of pair pi's output.
            let lo = g_lo.max(offsets[pi]) - offsets[pi];
            let hi = g_hi.min(offsets[pi + 1]) - offsets[pi];
            let (i_lo, i_hi) = tile_co_ranks(lo, hi, a, b, cmp, rec, k);
            let len = hi - lo;
            let (sa, sb) = (&a[i_lo..i_hi], &b[lo - i_lo..hi - i_hi]);
            executor::note_read_range(sa);
            executor::note_read_range(sb);
            adaptive_merge_into_by(sa, sb, &mut chunk[chunk_pos..chunk_pos + len], cmp, rec, k);
            chunk_pos += len;
            pi += 1;
        }
        rec.worker_items(k, (g_hi - g_lo) as u64);
        debug_assert_eq!(chunk_pos, chunk.len());
    };
    // At most `threads` participants claim the tiles as they free up.
    executor::global().run_indexed(tiles, threads, rec, &tile);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::sequential::merge_into_by;
    use proptest::prelude::*;

    fn oracle(pairs: &[(&[i64], &[i64])]) -> Vec<i64> {
        let mut out = Vec::new();
        for (a, b) in pairs {
            let mut m = vec![0; a.len() + b.len()];
            merge_into_by(a, b, &mut m, &|x, y| x.cmp(y));
            out.extend(m);
        }
        out
    }

    #[test]
    fn merges_many_ragged_pairs() {
        let data: Vec<(Vec<i64>, Vec<i64>)> = vec![
            ((0..100).collect(), (50..150).collect()),
            ((0..3).collect(), vec![]),
            (vec![], vec![7]),
            ((0..1000).map(|x| x * 2).collect(), (0..10).collect()),
            (vec![], vec![]),
            ((0..5).collect(), (0..5).collect()),
        ];
        let pairs: Vec<(&[i64], &[i64])> = data
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        let expect = oracle(&pairs);
        // Any positive thread count is accepted, however far past the
        // output length.
        for threads in [1usize, 2, 3, 5, 16, usize::MAX] {
            let mut out = vec![0; expect.len()];
            batch_merge_into(&pairs, &mut out, threads);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_and_empty_pairs() {
        let pairs: Vec<(&[i64], &[i64])> = vec![];
        let mut out: Vec<i64> = vec![];
        batch_merge_into(&pairs, &mut out, 4);
        let empty_pairs: Vec<(&[i64], &[i64])> = vec![(&[], &[]), (&[], &[])];
        batch_merge_into(&empty_pairs, &mut out, 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_output_length() {
        let pairs: Vec<(&[i64], &[i64])> = vec![(&[1], &[2])];
        let mut out = vec![0; 3];
        batch_merge_into(&pairs, &mut out, 2);
    }

    #[test]
    fn one_giant_pair_among_tiny_ones_stays_balanced() {
        // The giant pair must be split across workers, not serialized.
        let giant_a: Vec<i64> = (0..100_000).map(|x| x * 2).collect();
        let giant_b: Vec<i64> = (0..100_000).map(|x| x * 2 + 1).collect();
        let tiny: Vec<i64> = vec![5];
        let pairs: Vec<(&[i64], &[i64])> = vec![(&tiny, &[]), (&giant_a, &giant_b), (&[], &tiny)];
        let expect = oracle(&pairs);
        let mut out = vec![0; expect.len()];
        batch_merge_into(&pairs, &mut out, 8);
        assert_eq!(out, expect);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn stability_across_batch() {
        let a1 = [(1, 'a'), (1, 'b')];
        let b1 = [(1, 'x')];
        let a2 = [(2, 'a')];
        let b2 = [(2, 'x'), (2, 'y')];
        let pairs: Vec<(&[(i32, char)], &[(i32, char)])> = vec![(&a1, &b1), (&a2, &b2)];
        let mut out = [(0, '_'); 6];
        batch_merge_into_by(&pairs, &mut out, 3, &|x, y| x.0.cmp(&y.0), &NoRecorder);
        assert_eq!(
            out,
            [(1, 'a'), (1, 'b'), (1, 'x'), (2, 'a'), (2, 'x'), (2, 'y')]
        );
    }

    /// Regression test for the batch share computation (satellite of the
    /// serving-layer PR): pins the bounds the equispaced-cut policy
    /// guarantees, so any change to `worker_cut` that regresses balance
    /// is caught.
    ///
    /// - **Thm 14 global cap (exact)**: every worker's assigned total —
    ///   summed across all its pair fragments — is at most `⌈E/s⌉` for
    ///   `E = total` batch output and `s = p` workers. The worker-level
    ///   imbalance ratio `max_load / (E/s)` is therefore ≤ 1.03 for any
    ///   realistically sized batch (`E ≥ 32·s`); BENCH_merge.json's
    ///   dup-heavy rounds observe ~1.03 end-to-end, dominated by memory
    ///   effects, not by this split.
    /// - **Per-pair spread (exact)**: a pair of output length `Eᵢ` is
    ///   covered by at most `⌈Eᵢ/⌊total/p⌋⌉ + 1` workers (no pair is
    ///   smeared across more cuts than its length forces), every
    ///   fragment is ≤ `min(⌈total/p⌉, Eᵢ)`, and the fragments tile the
    ///   pair exactly (full coverage, no overlap). Per-pair fragments
    ///   are *not* bounded by `⌈Eᵢ/s⌉` — a cut may land anywhere inside
    ///   a pair, so a pair split by two workers can split 2730/1366
    ///   rather than 2048/2048; that is the documented cost of keeping
    ///   the *global* cap exact.
    #[test]
    fn share_computation_pins_thm14_caps() {
        // Ragged mixes modeled on the bench's adversaries: a dup-heavy
        // merge-sort round (many equal mid-size runs), one giant pair
        // among crumbs, and prime-sized misaligned pairs.
        let shapes: Vec<Vec<usize>> = vec![
            vec![4096; 32],                      // dup-heavy round
            vec![1, 1, 1_000_000, 1, 1],         // giant among crumbs
            vec![1009, 2003, 4001, 8009, 16001], // misaligned primes
            vec![7; 100],                        // tiny pairs only
            vec![0, 0, 5, 0, 12, 0],             // empties interleaved
        ];
        for shape in &shapes {
            let mut offsets = vec![0usize];
            for &len in shape {
                offsets.push(offsets.last().unwrap() + len);
            }
            let total = *offsets.last().unwrap();
            if total == 0 {
                continue;
            }
            for p in [2usize, 3, 8, 16, 61] {
                let p = p.min(total);
                let global_cap = total.div_ceil(p);
                let global_floor = total / p;
                // Collect every worker's fragments; verify tiling as we go.
                let mut per_pair_max = vec![0usize; shape.len()];
                let mut per_pair_workers = vec![0usize; shape.len()];
                let mut covered = vec![0usize; shape.len()];
                let mut max_load = 0usize;
                for k in 0..p {
                    let (g_lo, g_hi, _) = worker_cut(&offsets, total, p, k);
                    assert!(
                        g_hi - g_lo <= global_cap,
                        "worker {k}/{p} got {} > ⌈{total}/{p}⌉ = {global_cap}",
                        g_hi - g_lo
                    );
                    max_load = max_load.max(g_hi - g_lo);
                    let frags = worker_pair_fragments(&offsets, total, p, k);
                    let sum: usize = frags.iter().map(|&(_, lo, hi)| hi - lo).sum();
                    assert_eq!(sum, g_hi - g_lo, "fragments must tile the cut");
                    for (pair, lo, hi) in frags {
                        per_pair_max[pair] = per_pair_max[pair].max(hi - lo);
                        per_pair_workers[pair] += 1;
                        covered[pair] += hi - lo;
                    }
                }
                // Thm 14 worker-level imbalance: max_load / (total/p)
                // ≤ 1.03 once shares hold ≥ 32 elements.
                if global_floor >= 32 {
                    let ratio = max_load as f64 * p as f64 / total as f64;
                    assert!(
                        ratio <= 1.03,
                        "worker imbalance {ratio} above documented 1.03 \
                         (total={total}, p={p})"
                    );
                }
                // Per pair: full coverage, fragment cap, minimal spread.
                for (i, &len) in shape.iter().enumerate() {
                    assert_eq!(covered[i], len, "pair {i} coverage");
                    if len == 0 {
                        assert_eq!(per_pair_workers[i], 0, "empty pair assigned");
                        continue;
                    }
                    assert!(
                        per_pair_max[i] <= global_cap.min(len),
                        "pair {i} (E={len}): fragment {} above min(cap, E)",
                        per_pair_max[i]
                    );
                    let max_spread = len.div_ceil(global_floor.max(1)) + 1;
                    assert!(
                        per_pair_workers[i] <= max_spread.min(p),
                        "pair {i} (E={len}) smeared across {} > {} workers (p={p})",
                        per_pair_workers[i],
                        max_spread.min(p)
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn equals_per_pair_merges(
            data in proptest::collection::vec(
                (
                    proptest::collection::vec(-100i64..100, 0..60),
                    proptest::collection::vec(-100i64..100, 0..60),
                ),
                0..8,
            ),
            threads in 1usize..10,
        ) {
            let sorted: Vec<(Vec<i64>, Vec<i64>)> = data
                .into_iter()
                .map(|(mut a, mut b)| {
                    a.sort();
                    b.sort();
                    (a, b)
                })
                .collect();
            let pairs: Vec<(&[i64], &[i64])> = sorted
                .iter()
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            let expect = oracle(&pairs);
            let mut out = vec![0; expect.len()];
            batch_merge_into(&pairs, &mut out, threads);
            prop_assert_eq!(out, expect);
        }
    }
}
