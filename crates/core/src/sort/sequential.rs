//! Sequential stable merge sort: natural-run leaves, then bottom-up rounds
//! of dispatched pairwise merges.
//!
//! This is the kernel each core runs on its private chunk in the parallel
//! sort's first phase, and the single-thread baseline against which the
//! paper's Figure 5 speedups are defined.
//!
//! * **Leaves** are the maximal runs already in the data (strictly
//!   descending runs are reversed in place, which keeps equal keys in
//!   order); a run shorter than `INSERTION_RUN` keys is extended to that
//!   length by insertion sort. Sorted, reversed and organ-pipe inputs thus
//!   cost one or two runs instead of `n / INSERTION_RUN` leaves.
//! * **Rounds** merge adjacent runs pairwise, ping-ponging between the
//!   input and the scratch buffer. Every merge goes through
//!   [`adaptive_merge_into_by`], the same per-segment dispatch the parallel
//!   kernels use: it gallops where the runs barely overlap and takes the
//!   two-stream branch-lean loop on fine interleaving.
//! * One run-boundary list, allocated once, is halved in place after each
//!   round.

use core::cell::Cell;
use core::cmp::Ordering;

use mergepath_telemetry::{counted_cmp, CounterKind, NoRecorder, Recorder};

use crate::merge::adaptive::{adaptive_merge_into_by, adaptive_merge_into_counted, record_choice};
use crate::sort::natural::run_end_by;

/// Natural runs shorter than this are extended to this length by insertion
/// sort before merging begins. 32 balances branch cost against merge depth
/// on typical keys.
const INSERTION_RUN: usize = 32;

/// Stable in-place insertion sort; the base case of the merge sort and a
/// useful primitive in its own right for tiny inputs.
pub fn insertion_sort_by<T, F>(v: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    insert_after_prefix_by(v, 1, cmp);
}

/// Insertion sort of `v` whose first `sorted` elements are already in
/// order.
fn insert_after_prefix_by<T, F>(v: &mut [T], sorted: usize, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    for i in sorted.max(1)..v.len() {
        let mut j = i;
        // Shift left while the predecessor is strictly greater (equal
        // elements are not swapped — stability).
        while j > 0 && cmp(&v[j - 1], &v[j]) == Ordering::Greater {
            v.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Sorts `v` with a stable bottom-up merge sort using the natural order.
///
/// Allocates one scratch buffer of `v.len()` elements; see
/// [`merge_sort_with_scratch_by`] for the variant that borrows it.
///
/// # Examples
/// ```
/// use mergepath::sort::sequential::merge_sort;
/// let mut v = vec![3, 1, 4, 1, 5, 9, 2, 6];
/// merge_sort(&mut v);
/// assert_eq!(v, [1, 1, 2, 3, 4, 5, 6, 9]);
/// ```
pub fn merge_sort<T: Ord + Clone + Default>(v: &mut [T]) {
    merge_sort_by(v, &crate::merge::sequential::natural_cmp);
}

/// [`merge_sort`] with a caller-supplied comparator.
pub fn merge_sort_by<T: Clone + Default, F>(v: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    let mut scratch = vec![T::default(); v.len()];
    merge_sort_with_scratch_by(v, &mut scratch, cmp);
}

/// Bottom-up stable merge sort using a caller-provided scratch buffer. The
/// only allocation is the run-boundary list (one `usize` per
/// `INSERTION_RUN` keys at most).
///
/// # Panics
/// Panics if `scratch.len() < v.len()`.
pub fn merge_sort_with_scratch_by<T: Clone, F>(v: &mut [T], scratch: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    merge_sort_recorded(v, scratch, cmp, &NoRecorder, 0);
}

/// [`merge_sort_with_scratch_by`] attributing its work to `worker` on
/// `rec`: the comparisons it makes and, per merge, the kernel the dispatch
/// chose ([`record_choice`]). Each merge's kernel is chosen on the raw
/// `cmp`, exactly as in an untraced sort, and the chosen kernel counts its
/// own comparisons ([`adaptive_merge_into_counted`]). With `NoRecorder`
/// this is the untraced sort.
pub(crate) fn merge_sort_recorded<T: Clone, F, R>(
    v: &mut [T],
    scratch: &mut [T],
    cmp: &F,
    rec: &R,
    worker: usize,
) where
    F: Fn(&T, &T) -> Ordering,
    R: Recorder,
{
    let n = v.len();
    assert!(
        scratch.len() >= n,
        "scratch buffer too small: {} < {}",
        scratch.len(),
        n
    );
    if n <= 1 {
        return;
    }
    let scratch = &mut scratch[..n];
    let hits = Cell::new(0u64);
    let mut runs = if R::ACTIVE {
        leaf_runs_by(v, &counted_cmp(cmp, &hits))
    } else {
        leaf_runs_by(v, cmp)
    };

    let mut in_v = true;
    while runs.len() > 2 {
        {
            let (src, dst): (&[T], &mut [T]) = if in_v {
                (&*v, &mut *scratch)
            } else {
                (&*scratch, &mut *v)
            };
            merge_pairs(src, dst, &runs, |a, b, out| {
                let kernel = if R::ACTIVE {
                    adaptive_merge_into_counted(a, b, out, cmp, &hits)
                } else {
                    adaptive_merge_into_by(a, b, out, cmp)
                };
                record_choice(rec, worker, kernel);
            });
        }
        in_v = !in_v;
        halve_runs(&mut runs);
    }
    if !in_v {
        v.clone_from_slice(scratch);
    }
    if R::ACTIVE {
        rec.counter_add(worker, CounterKind::Comparisons, hits.get());
    }
}

/// Splits `v` into leaves and returns their boundaries (`runs[0] == 0`,
/// `runs.last() == v.len()`): maximal natural runs, each shorter one
/// extended to `INSERTION_RUN` keys (or to the end of `v`).
fn leaf_runs_by<T, F>(v: &mut [T], cmp: &F) -> Vec<usize>
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = v.len();
    // Every leaf but the last holds at least INSERTION_RUN keys.
    let mut runs = Vec::with_capacity(n / INSERTION_RUN + 2);
    runs.push(0);
    let mut start = 0;
    while start < n {
        let mut end = run_end_by(v, start, cmp);
        if end - start < INSERTION_RUN {
            let stop = (start + INSERTION_RUN).min(n);
            insert_after_prefix_by(&mut v[start..stop], end - start, cmp);
            end = stop;
        }
        runs.push(end);
        start = end;
    }
    runs
}

/// One round: merges each adjacent pair of runs (boundaries `runs`) from
/// `src` into the same range of `dst` with `merge(left, right, out)`, and
/// copies a lone trailing run through.
pub(crate) fn merge_pairs<T: Clone>(
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
        dst[lo..hi].clone_from_slice(&src[lo..hi]);
    }
}

/// Collapses run boundaries in place after a round of pairwise merges:
/// keeps every other boundary and the last one.
pub(crate) fn halve_runs(runs: &mut Vec<usize>) {
    let last = runs.len() - 1;
    let mut idx = 0;
    runs.retain(|_| {
        let keep = idx % 2 == 0 || idx == last;
        idx += 1;
        keep
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_small_arrays() {
        for n in 0..100 {
            let mut v: Vec<i64> = (0..n).map(|x| (x * 7919 + 13) % 101).collect();
            let mut expect = v.clone();
            expect.sort();
            merge_sort(&mut v);
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn sorts_adversarial_patterns() {
        let patterns: Vec<Vec<i64>> = vec![
            (0..1000).collect(),                      // already sorted
            (0..1000).rev().collect(),                // reversed
            vec![42; 1000],                           // constant
            (0..1000).map(|x| x % 2).collect(),       // two values
            (0..1000).map(|x| -(x % 37)).collect(),   // small period
            (0..500).chain((0..500).rev()).collect(), // organ pipe
        ];
        for mut v in patterns {
            let mut expect = v.clone();
            expect.sort();
            merge_sort(&mut v);
            assert_eq!(v, expect);
        }
    }

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
    fn leaves_are_natural_runs_extended_to_the_insertion_length() {
        let cmp = |a: &i64, b: &i64| a.cmp(b);
        // A 40-key ascending run, a 50-key strictly descending one
        // (reversed in place), then 5 keys that become one short leaf.
        let mut v: Vec<i64> = (0..40)
            .chain((-50..0).rev())
            .chain([3, 1, 2, 9, 0])
            .collect();
        assert_eq!(leaf_runs_by(&mut v, &cmp), [0, 40, 90, 95]);
        assert!(v[40..90].windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v[90..], [0, 1, 2, 3, 9]);
        // Short natural runs are extended to INSERTION_RUN keys each.
        let mut zigzag: Vec<i64> = (0..100).map(|i| if i % 2 == 0 { i } else { -i }).collect();
        let runs = leaf_runs_by(&mut zigzag, &cmp);
        assert_eq!(runs, [0, 32, 64, 96, 100]);
        for w in runs.windows(2) {
            assert!(zigzag[w[0]..w[1]].windows(2).all(|x| x[0] <= x[1]));
        }
    }

    #[test]
    fn insertion_sort_is_stable() {
        let mut v = vec![(2, 'a'), (1, 'x'), (2, 'b'), (1, 'y'), (2, 'c')];
        insertion_sort_by(&mut v, &|a, b| a.0.cmp(&b.0));
        assert_eq!(v, [(1, 'x'), (1, 'y'), (2, 'a'), (2, 'b'), (2, 'c')]);
    }

    #[test]
    fn merge_sort_is_stable() {
        // 200 elements with 10 duplicate keys, provenance in .1.
        let mut v: Vec<(i32, usize)> = (0..200usize).map(|i| (((i * 37) % 10) as i32, i)).collect();
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k); // std stable sort as oracle
        merge_sort_by(&mut v, &|a, b| a.0.cmp(&b.0));
        assert_eq!(v, expect);
    }

    #[test]
    fn scratch_variant_avoids_alloc_and_matches() {
        let mut v: Vec<i64> = (0..500).map(|x| (x * 31) % 97).collect();
        let mut scratch = vec![0i64; 500];
        let mut expect = v.clone();
        expect.sort();
        merge_sort_with_scratch_by(&mut v, &mut scratch, &|a, b| a.cmp(b));
        assert_eq!(v, expect);
    }

    #[test]
    #[should_panic(expected = "scratch buffer too small")]
    fn undersized_scratch_panics() {
        let mut v = [3i64, 1, 2];
        let mut scratch = [0i64; 2];
        merge_sort_with_scratch_by(&mut v, &mut scratch, &|a, b| a.cmp(b));
    }

    #[test]
    fn comparator_direction_respected() {
        let mut v = vec![1, 5, 3, 2, 4];
        merge_sort_by(&mut v, &|a: &i32, b: &i32| b.cmp(a));
        assert_eq!(v, [5, 4, 3, 2, 1]);
    }

    proptest! {
        #[test]
        fn matches_std_sort(mut v in proptest::collection::vec(-1000i64..1000, 0..600)) {
            let mut expect = v.clone();
            expect.sort();
            merge_sort(&mut v);
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn stability_matches_std(
            mut v in proptest::collection::vec((0i32..8, 0usize..1000), 0..300),
        ) {
            let mut expect = v.clone();
            expect.sort_by_key(|&(k, _)| k);
            merge_sort_by(&mut v, &|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(v, expect);
        }
    }
}
