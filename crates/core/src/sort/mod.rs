//! Merge sorts built on the merge-path kernels.
//!
//! * [`parallel`] — the paper's §III parallel merge sort: `p` concurrent
//!   chunk sorts (`slice::sort_by`), then `log p` rounds of parallel
//!   (Algorithm 1) merges;
//! * [`natural`] — the runs already in the data, then the same rounds;
//! * [`cache_aware`] — the paper's §IV.C sort: cache-sized block sorts
//!   followed by rounds of segmented (Algorithm 2) merges.

use mergepath_telemetry::NoRecorder;

use crate::executor::{self, SendPtr};
use crate::partition::segment_boundary;

pub mod cache_aware;
pub mod natural;
pub mod parallel;

/// Phase 2 of the bottom-up sorts: rounds of `round(src, dst, runs)`, each
/// merging the adjacent pairs of runs (boundaries `runs`) from `src` into
/// `dst`, ping-ponging between `v` and one scratch buffer until one run is
/// left. After an odd number of rounds the output is in the scratch buffer
/// and [`copy_back`] returns it on `threads` workers.
fn merge_rounds<T>(
    v: &mut [T],
    mut runs: Vec<usize>,
    threads: usize,
    mut round: impl FnMut(&[T], &mut [T], &[usize]),
) where
    T: Clone + Default + Send + Sync,
{
    if runs.len() <= 2 {
        return; // zero or one run: already sorted
    }
    let mut scratch = vec![T::default(); v.len()];
    let mut in_v = true;
    while runs.len() > 2 {
        let (src, dst): (&[T], &mut [T]) = if in_v {
            (&*v, &mut scratch)
        } else {
            (&scratch, &mut *v)
        };
        round(src, dst, &runs);
        in_v = !in_v;
        halve_runs(&mut runs);
    }
    if !in_v {
        copy_back(&scratch, v, threads);
    }
}

/// One round, one pair at a time: merges each adjacent pair of runs
/// (boundaries `runs`) from `src` into the same range of `dst` with
/// `merge(left, right, out)`, and copies a lone trailing run through.
fn merge_pairs<T: Clone>(
    src: &[T],
    dst: &mut [T],
    runs: &[usize],
    mut merge: impl FnMut(&[T], &[T], &mut [T]),
) {
    let mut pair = 0;
    while pair + 2 < runs.len() {
        let (lo, mid, hi) = (runs[pair], runs[pair + 1], runs[pair + 2]);
        merge(&src[lo..mid], &src[mid..hi], &mut dst[lo..hi]);
        pair += 2;
    }
    if pair + 2 == runs.len() {
        let (lo, hi) = (runs[pair], runs[pair + 1]);
        executor::note_write_range(&dst[lo..hi]);
        dst[lo..hi].clone_from_slice(&src[lo..hi]);
    }
}

/// Collapses run boundaries in place after a round of pairwise merges:
/// keeps every other boundary and the last one.
fn halve_runs(runs: &mut Vec<usize>) {
    let last = runs.len() - 1;
    let mut idx = 0;
    runs.retain(|_| {
        let keep = idx % 2 == 0 || idx == last;
        idx += 1;
        keep
    });
}

/// Copies `src` into `dst` in one pool round of `threads` shares: share `k`
/// copies range `⌊k·n/p⌋..⌊(k+1)·n/p⌋`.
fn copy_back<T: Clone + Send + Sync>(src: &[T], dst: &mut [T], threads: usize) {
    assert_eq!(src.len(), dst.len(), "copy-back length mismatch");
    let n = dst.len();
    let base = SendPtr::new(dst.as_mut_ptr());
    executor::global().run_indexed(threads, threads, &NoRecorder, &|k| {
        let (lo, hi) = (
            segment_boundary(n, threads, k),
            segment_boundary(n, threads, k + 1),
        );
        executor::note_read_range(&src[lo..hi]);
        // SAFETY: ranges `⌊k·n/p⌋..⌊(k+1)·n/p⌋` are disjoint across shares
        // and tile `dst`; the pool's end barrier orders the writes before
        // the caller's borrow of `dst` resumes.
        let out = unsafe { base.slice_mut(lo, hi - lo) };
        out.clone_from_slice(&src[lo..hi]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halve_runs_collapses_pairs_in_place() {
        for (runs, halved) in [
            (vec![0, 10, 20, 30, 40], vec![0, 20, 40]),
            (vec![0, 10, 20, 30], vec![0, 20, 30]),
            (vec![0, 10], vec![0, 10]),
        ] {
            let mut runs = runs;
            halve_runs(&mut runs);
            assert_eq!(runs, halved);
        }
    }

    #[test]
    fn copy_back_tiles_the_output() {
        for n in [0usize, 1, 5, 1000] {
            let src: Vec<u64> = (0..n as u64).map(|x| x * 3 + 1).collect();
            for threads in [1, 2, 3, 8] {
                let mut dst = vec![0u64; n];
                copy_back(&src, &mut dst, threads);
                assert_eq!(dst, src, "n={n} threads={threads}");
            }
        }
    }
}
