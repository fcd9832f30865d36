//! Co-rank stable block merge (Siebert & Träff, arXiv 1303.4312; Träff,
//! arXiv 1202.6575).
//!
//! Merge Path's Algorithm 1 is stable *per segment construction*: every
//! diagonal split happens to respect tie order because the binary search
//! breaks ties strictly A-before-B. The co-rank formulation makes that a
//! provable property instead of an emergent one: for every output rank `k`
//! there is exactly **one** split `(i, k - i)` such that the first `k`
//! outputs of the stable merge are `a[..i] ∪ b[..k-i]`
//! ([`crate::diagonal::split_is_valid`] is unique — property-tested in
//! `crates/check/tests/co_rank_props.rs`), so any set of output ranks
//! yields blocks that can be merged completely independently and
//! concatenate to *the* stable merge, with no inter-block coordination.
//!
//! Two layers use that fact here:
//!
//! * [`co_rank_merge_into_by`] — the sequential arm behind
//!   [`SegmentKernel::CoRank`]: subdivides its output into
//!   [`CO_RANK_BLOCK`]-sized blocks, co-ranks each interior boundary, and
//!   emits every block with a bounded classic merge. Byte-identical to
//!   [`merge_into_by`] on every input.
//! * [`stable_parallel_merge_into_by`] — a top-level parallel merge that
//!   cuts the output at the *exactly balanced* boundaries
//!   `d_k = min(k · ⌈n/p⌉, n)` from 1303.4312 ([`exact_boundary`]): every
//!   worker except possibly the last merges exactly `⌈n/p⌉` elements, so
//!   the Thm 14 `⌈E/s⌉` share cap is met with equality and the items-based
//!   imbalance is at most `1 + p/n` (versus ~1.03 that the
//!   `⌊k·n/p⌋` rounding of [`segment_boundary`](crate::partition) can show
//!   on duplicate-heavy inputs once adaptive segment kernels skew
//!   per-element cost).
//!
//! The interior block split is the only place a tie-break decision is made,
//! which is why the `--cfg mergepath_mutate` fault for this kernel lives
//! there: inverting the strictness of the B-side comparison yields a merge
//! that is still sorted and still a permutation — invisible to any
//! value-only test — but lets B-side elements overtake equal A-side
//! elements across block boundaries, which the schedule checker's
//! provenance-tagged oracle convicts as an output mismatch
//! (`crates/check/tests/mutation.rs`).

use core::cell::Cell;
use core::cmp::Ordering;

use mergepath_telemetry::{counted_cmp, span, CounterKind, NoRecorder, Recorder, SpanKind};

use crate::diagonal::{co_rank_by, co_rank_counted};
use crate::executor::{self, SendPtr};
use crate::merge::adaptive::{self, SegmentKernel};
use crate::merge::sequential::{assert_out_len, merge_into_by, natural_cmp};

/// Output-block granularity of the sequential co-rank kernel. Each block
/// costs one `O(log min(|a|, |b|))` split search, amortized over
/// `CO_RANK_BLOCK` emitted elements; the block merge itself stays inside
/// one cache-friendly output window.
pub const CO_RANK_BLOCK: usize = 256;

/// The exactly balanced output boundary `d_k = min(k · ⌈n/p⌉, n)` of
/// 1303.4312: shares `0..p-1` all receive exactly `⌈n/p⌉` output elements
/// except possibly a short (or empty) tail share.
///
/// Compare [`segment_boundary`](crate::partition::segment_boundary), the
/// paper's `⌊k·n/p⌋` cut, where share sizes alternate between `⌊n/p⌋` and
/// `⌈n/p⌉`.
///
/// # Panics
/// Panics if `p == 0` or `k > p`.
pub fn exact_boundary(n: usize, p: usize, k: usize) -> usize {
    assert!(p > 0, "share count must be at least 1");
    assert!(k <= p, "boundary index {k} out of range 0..={p}");
    k.saturating_mul(n.div_ceil(p)).min(n)
}

/// The stable co-rank of output rank `k`: the unique `i` with every taken
/// `a[..i]` ≤ every untaken `b[k-i..]` and every taken `b[..k-i]` strictly
/// below every untaken `a[i..]` (ties broken A-before-B by global index).
///
/// Same search as [`co_rank_by`], restated locally because this is the
/// tie-break decision point of the kernel and therefore where the
/// `--cfg mergepath_mutate` sensitivity fault is injected.
fn block_split<T, F>(k: usize, a: &[T], b: &[T], cmp: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    let (na, nb) = (a.len(), b.len());
    debug_assert!(k <= na + nb);
    let mut lo = k.saturating_sub(nb);
    let mut hi = k.min(na);
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = k - i;
        debug_assert!(j >= 1 && i < na);
        // Stable split: advance past `a[i]` while `b[j-1] >= a[i]`, so on a
        // tie the A element is taken first.
        #[cfg(not(mergepath_mutate))]
        let advance = cmp(&b[j - 1], &a[i]) != Ordering::Less;
        // Injected tie-break inversion for the mutation self-test
        // (`cargo xtask verify-schedules` builds with
        // `--cfg mergepath_mutate`): requiring *strictly greater* flips the
        // tie break to B-before-A. The result is still a sorted
        // permutation — only the provenance-tagged stable oracle of
        // `crates/check` can convict it, as an output mismatch on the
        // first schedule whenever a mixed tie class straddles an interior
        // block boundary.
        #[cfg(mergepath_mutate)]
        let advance = cmp(&b[j - 1], &a[i]) == Ordering::Greater;
        if advance {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo
}

/// Stable merge of `a` and `b` into `out` by independent co-ranked blocks —
/// the execution arm of [`SegmentKernel::CoRank`].
///
/// The output is cut every [`CO_RANK_BLOCK`] ranks; each interior boundary
/// is co-ranked with [`block_split`] (`O(log min(|a|, |b|))` comparisons),
/// and each block is emitted by a bounded classic merge of its private
/// input slices. Because the stable split at every rank is unique, the
/// concatenation of the blocks *is* the stable merge: byte-identical to
/// [`merge_into_by`] on every input.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn co_rank_merge_into_by<T: Clone, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    assert_out_len(a.len(), b.len(), out.len());
    let n = out.len();
    if n <= CO_RANK_BLOCK {
        merge_into_by(a, b, out, cmp);
        return;
    }
    let mut d_lo = 0usize;
    let mut i_lo = 0usize;
    while d_lo < n {
        let d_hi = (d_lo + CO_RANK_BLOCK).min(n);
        let i_hi = if d_hi == n {
            a.len()
        } else {
            block_split(d_hi, a, b, cmp)
        };
        let (j_lo, j_hi) = (d_lo - i_lo, d_hi - i_hi);
        merge_into_by(&a[i_lo..i_hi], &b[j_lo..j_hi], &mut out[d_lo..d_hi], cmp);
        (d_lo, i_lo) = (d_hi, i_hi);
    }
}

/// Stable parallel merge at the exactly balanced boundaries
/// `d_k = min(k · ⌈n/p⌉, p)` of 1303.4312, using the natural order of `T`.
///
/// Produces output bitwise identical to
/// [`merge_into`](crate::merge::sequential::merge_into); every worker
/// except possibly the last merges exactly `⌈n/p⌉` elements.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()` or `threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::merge::stable::stable_parallel_merge_into;
/// let a: Vec<u32> = (0..100).map(|x| 2 * x).collect();
/// let b: Vec<u32> = (0..100).map(|x| 2 * x + 1).collect();
/// let mut out = vec![0; 200];
/// stable_parallel_merge_into(&a, &b, &mut out, 4);
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn stable_parallel_merge_into<T>(a: &[T], b: &[T], out: &mut [T], threads: usize)
where
    T: Ord + Clone + Send + Sync,
{
    stable_parallel_merge_into_by(a, b, out, threads, &natural_cmp);
}

/// [`stable_parallel_merge_into`] with a caller-supplied comparator.
///
/// Ties take from `a` first (stable).
pub fn stable_parallel_merge_into_by<T, F>(a: &[T], b: &[T], out: &mut [T], threads: usize, cmp: &F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    stable_parallel_merge_into_recorded(a, b, out, threads, cmp, &NoRecorder);
}

/// [`stable_parallel_merge_into_by`] reporting spans, counters and
/// per-worker element counts into `rec`. Every segment runs the co-rank
/// block kernel, attributed to the `segments_co_rank` counter; the
/// per-worker `worker_items` are what `mp bench` folds into its
/// `imbalance_co_rank` column.
pub fn stable_parallel_merge_into_recorded<T, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    threads: usize,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let n = a.len() + b.len();
    assert_out_len(a.len(), b.len(), out.len());
    assert!(threads > 0, "thread count must be at least 1");

    if threads == 1 || n <= threads {
        executor::note_write_range(out);
        if R::ACTIVE {
            let hits = Cell::new(0u64);
            {
                let _merge = span(rec, 0, SpanKind::SegmentMerge);
                co_rank_merge_into_by(a, b, out, &counted_cmp(cmp, &hits));
            }
            adaptive::record_choice(rec, 0, SegmentKernel::CoRank);
            rec.counter_add(0, CounterKind::Comparisons, hits.get());
            rec.worker_items(0, n as u64);
        } else {
            co_rank_merge_into_by(a, b, out, cmp);
        }
        return;
    }

    let base = SendPtr::new(out.as_mut_ptr());
    executor::global().run_indexed_recorded(threads, threads, rec, &|k| {
        let d_lo = exact_boundary(n, threads, k);
        let d_hi = exact_boundary(n, threads, k + 1);
        let (i_lo, i_hi) = if R::ACTIVE {
            let _partition = span(rec, k, SpanKind::Partition);
            let (i_lo, c_lo) = {
                let _search = span(rec, k, SpanKind::DiagonalSearch);
                co_rank_counted(d_lo, a, b, cmp)
            };
            let (i_hi, c_hi) = {
                let _search = span(rec, k, SpanKind::DiagonalSearch);
                co_rank_counted(d_hi, a, b, cmp)
            };
            let probes = (c_lo + c_hi) as u64;
            rec.counter_add(k, CounterKind::DiagonalProbeSteps, probes);
            rec.counter_add(k, CounterKind::Comparisons, probes);
            (i_lo, i_hi)
        } else {
            (co_rank_by(d_lo, a, b, cmp), co_rank_by(d_hi, a, b, cmp))
        };
        let (j_lo, j_hi) = (d_lo - i_lo, d_hi - i_hi);
        let (sa, sb) = (&a[i_lo..i_hi], &b[j_lo..j_hi]);
        executor::note_read_range(sa);
        executor::note_read_range(sb);
        // SAFETY: `exact_boundary` is monotone in `k` and capped at `n`, so
        // `d_lo..d_hi` ranges are pairwise disjoint across shares and lie
        // within `out` (`d_hi <= n == out.len()`); the pool's end barrier
        // orders all writes before `run_indexed_recorded` returns to this
        // frame, which still holds the unique borrow of `out`.
        let chunk = unsafe { base.slice_mut(d_lo, d_hi - d_lo) };
        if R::ACTIVE {
            let hits = Cell::new(0u64);
            {
                let _merge = span(rec, k, SpanKind::SegmentMerge);
                co_rank_merge_into_by(sa, sb, chunk, &counted_cmp(cmp, &hits));
            }
            adaptive::record_choice(rec, k, SegmentKernel::CoRank);
            rec.counter_add(k, CounterKind::Comparisons, hits.get());
            rec.worker_items(k, (d_hi - d_lo) as u64);
        } else {
            co_rank_merge_into_by(sa, sb, chunk, cmp);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(x: &i64, y: &i64) -> Ordering {
        x.cmp(y)
    }

    /// SplitMix64 — the core crate cannot depend on `mergepath-workloads`.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn random_sorted(len: usize, space: u64, seed: u64) -> Vec<i64> {
        let mut rng = Mix(seed);
        let mut v: Vec<i64> = (0..len).map(|_| (rng.next() % space) as i64).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn exact_boundaries_are_monotone_capped_and_exactly_balanced() {
        for n in [0usize, 1, 5, 255, 256, 257, 1000, 4096, 4097] {
            for p in [1usize, 2, 3, 4, 7, 16, 64] {
                let share = n.div_ceil(p);
                let mut prev = 0usize;
                for k in 0..=p {
                    let d = exact_boundary(n, p, k);
                    assert!(d >= prev, "n={n} p={p} k={k}");
                    assert!(d <= n);
                    if k > 0 {
                        let width = d - prev;
                        assert!(width <= share, "n={n} p={p} k={k}: {width} > ⌈n/p⌉={share}");
                        // 1303.4312 exactness: every non-tail share is full.
                        if d < n {
                            assert_eq!(width, share, "n={n} p={p} k={k}");
                        }
                    }
                    prev = d;
                }
                assert_eq!(prev, n, "boundaries must cover the output");
            }
        }
    }

    #[test]
    fn block_split_agrees_with_the_stable_co_rank_search() {
        let a = random_sorted(700, 40, 1);
        let b = random_sorted(900, 40, 2);
        for k in (0..=a.len() + b.len()).step_by(17) {
            assert_eq!(
                block_split(k, &a, &b, &cmp),
                co_rank_by(k, a.as_slice(), b.as_slice(), &cmp),
                "k={k}"
            );
        }
    }

    #[test]
    fn co_rank_merge_matches_the_classic_oracle_across_lengths_and_densities() {
        let lengths = [0usize, 1, 200, 255, 256, 257, 511, 512, 513, 1024, 2050];
        let mut seed = 10;
        for &na in &lengths {
            for &nb in &[0usize, 1, 256, 777, 2048] {
                for space in [3u64, 50, u64::MAX] {
                    seed += 1;
                    let a = random_sorted(na, space, seed);
                    let b = random_sorted(nb, space, seed ^ 0xABCD);
                    let mut oracle = vec![0i64; na + nb];
                    merge_into_by(&a, &b, &mut oracle, &cmp);
                    let mut out = vec![0i64; na + nb];
                    co_rank_merge_into_by(&a, &b, &mut out, &cmp);
                    assert_eq!(out, oracle, "na={na} nb={nb} space={space}");
                }
            }
        }
    }

    #[test]
    fn co_rank_merge_is_stable_across_block_boundaries() {
        // 48-wide mixed tie classes, misaligned with the 256-rank block
        // cuts, observed through provenance tags the comparator ignores.
        let a: Vec<(i32, u32)> = (0..1500).map(|i| (i / 24, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..1500).map(|i| (i / 24, 1_000_000 + i as u32)).collect();
        let by_key = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
        let mut oracle = vec![(0, 0); 3000];
        merge_into_by(&a, &b, &mut oracle, &by_key);
        let mut out = vec![(0, 0); 3000];
        co_rank_merge_into_by(&a, &b, &mut out, &by_key);
        assert_eq!(out, oracle);
    }

    #[test]
    fn tie_runs_at_and_one_past_a_block_boundary() {
        // A tie class ending exactly at rank CO_RANK_BLOCK, then one past:
        // the split search must place the whole A-side run before any tied
        // B element in both alignments.
        for extra in [0usize, 1] {
            let run = CO_RANK_BLOCK / 2 + extra;
            let mut a: Vec<(i32, u32)> = (0..run as i32).map(|i| (5, i as u32)).collect();
            a.extend((0..600).map(|i| (10 + i, 500 + i as u32)));
            let mut b: Vec<(i32, u32)> = (0..CO_RANK_BLOCK - run + extra)
                .map(|i| (5, 1_000_000 + i as u32))
                .collect();
            b.extend((0..600).map(|i| (10 + i, 2_000_000 + i as u32)));
            let by_key = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
            let mut oracle = vec![(0, 0); a.len() + b.len()];
            merge_into_by(&a, &b, &mut oracle, &by_key);
            let mut out = vec![(0, 0); a.len() + b.len()];
            co_rank_merge_into_by(&a, &b, &mut out, &by_key);
            assert_eq!(out, oracle, "extra={extra}");
        }
    }

    #[test]
    fn stable_parallel_matches_sequential_for_every_thread_count() {
        let a = random_sorted(6000, 25, 3);
        let b = random_sorted(5000, 25, 4);
        let mut oracle = vec![0i64; 11_000];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        for threads in [1usize, 2, 3, 4, 7, 16, 64] {
            let mut out = vec![0i64; 11_000];
            stable_parallel_merge_into_by(&a, &b, &mut out, threads, &cmp);
            assert_eq!(out, oracle, "threads={threads}");
        }
    }

    #[test]
    fn stable_parallel_is_stable_on_keyed_pairs() {
        let a: Vec<(i32, u32)> = (0..2000).map(|i| (i / 50, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..2000).map(|i| (i / 50, 1_000_000 + i as u32)).collect();
        let by_key = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
        let mut oracle = vec![(0, 0); 4000];
        merge_into_by(&a, &b, &mut oracle, &by_key);
        for threads in [2usize, 5, 8] {
            let mut out = vec![(0, 0); 4000];
            stable_parallel_merge_into_by(&a, &b, &mut out, threads, &by_key);
            assert_eq!(out, oracle, "threads={threads}");
        }
    }

    #[test]
    fn stable_parallel_handles_degenerate_shapes() {
        let empty: Vec<i64> = vec![];
        let b: Vec<i64> = (0..100).collect();
        let mut out = vec![0i64; 100];
        stable_parallel_merge_into_by(&empty, &b, &mut out, 8, &cmp);
        assert_eq!(out, b);
        let mut none: [i64; 0] = [];
        stable_parallel_merge_into_by(&empty, &empty, &mut none, 4, &cmp);
        let a = [5i64];
        let mut tiny = [0i64; 101];
        stable_parallel_merge_into_by(&a, &b, &mut tiny, 64, &cmp);
        assert!(tiny.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn recorded_run_reports_exact_balance_and_co_rank_segments() {
        use mergepath_telemetry::TimelineRecorder;
        let a = random_sorted(4000, 12, 9);
        let b = random_sorted(4192, 12, 11);
        let n = a.len() + b.len();
        let threads = 4;
        let mut out = vec![0i64; n];
        let rec = TimelineRecorder::new();
        stable_parallel_merge_into_recorded(&a, &b, &mut out, threads, &cmp, &rec);
        let telemetry = rec.finish();
        let mut items = vec![0u64; threads];
        for ev in &telemetry.worker_items {
            items[ev.worker] += ev.items;
        }
        assert_eq!(items.iter().sum::<u64>() as usize, n);
        let share = n.div_ceil(threads) as u64;
        for (worker, &it) in items.iter().enumerate() {
            assert!(it <= share, "worker {worker} merged {it} > ⌈n/p⌉ = {share}");
            if worker + 1 < threads {
                assert_eq!(it, share, "non-tail worker {worker} must be full");
            }
        }
        let co_rank_segments: u64 = telemetry
            .counters
            .iter()
            .filter(|c| c.kind == CounterKind::SegmentsCoRank)
            .map(|c| c.total)
            .sum();
        assert_eq!(co_rank_segments, threads as u64);
    }
}
