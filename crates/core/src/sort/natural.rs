//! Natural-runs parallel merge sort (adaptive).
//!
//! Real data is rarely random: logs arrive nearly sorted, tables are
//! appended in key order, exports concatenate sorted shards. A natural
//! merge sort detects the maximal runs already present (reversing strictly
//! descending ones in place, which cannot reorder equal elements and so
//! preserves stability) and then merges runs level by level, paying
//! `O(N·log(runs))` instead of `O(N·log N)`.
//!
//! Same rounds as [`crate::sort::parallel`]'s phase 2 — each level's pairs
//! merged in one batch round of Algorithm 1 tiles, however many pairs the
//! level holds — but the leaves come from the data instead of from an
//! arbitrary `p`-way split: the paper's merge machinery applied adaptively.

use core::cmp::Ordering;

use mergepath_telemetry::NoRecorder;

use crate::merge::sequential::natural_cmp;
use crate::sort::merge_rounds;
use crate::sort::parallel::merge_round_parallel;

/// Detects the boundaries of maximal sorted runs, reversing strictly
/// descending runs in place. Returns run boundaries (`runs[0] == 0`,
/// `runs.last() == v.len()`).
pub fn collect_runs_by<T, F>(v: &mut [T], cmp: &F) -> Vec<usize>
where
    F: Fn(&T, &T) -> Ordering,
{
    let mut runs = vec![0usize];
    let mut start = 0;
    while start < v.len() {
        start = run_end_by(v, start, cmp);
        runs.push(start);
    }
    runs
}

/// End of the maximal run that starts at `start < v.len()`: either
/// non-descending, or strictly descending and then reversed in place
/// (strictness means no two equal elements are reordered, so stability
/// holds).
fn run_end_by<T, F>(v: &mut [T], start: usize, cmp: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = v.len();
    let mut end = start + 1;
    if end < n && cmp(&v[start], &v[end]) == Ordering::Greater {
        while end < n && cmp(&v[end - 1], &v[end]) == Ordering::Greater {
            end += 1;
        }
        v[start..end].reverse();
    } else {
        while end < n && cmp(&v[end - 1], &v[end]) != Ordering::Greater {
            end += 1;
        }
    }
    end
}

/// Adaptive stable sort: natural run detection, then one pool round of
/// parallel pairwise merges per level.
///
/// # Panics
/// Panics if `threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::sort::natural::natural_merge_sort;
/// // Two pre-sorted halves: one merge round sorts the whole array.
/// let mut v: Vec<u32> = (0..100).chain(50..150).collect();
/// natural_merge_sort(&mut v, 4);
/// assert!(v.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn natural_merge_sort<T>(v: &mut [T], threads: usize)
where
    T: Ord + Clone + Default + Send + Sync,
{
    natural_merge_sort_by(v, threads, &natural_cmp);
}

/// [`natural_merge_sort`] with a caller-supplied comparator.
pub fn natural_merge_sort_by<T, F>(v: &mut [T], threads: usize, cmp: &F)
where
    T: Clone + Default + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    assert!(threads > 0, "thread count must be at least 1");
    let runs = collect_runs_by(v, cmp);
    merge_rounds(v, runs, threads, |src, dst, runs| {
        merge_round_parallel(src, dst, runs, threads, cmp, &NoRecorder)
    });
}

/// The number of comparison rounds the adaptive sort will need for `v` —
/// `⌈log2(runs)⌉`; `0` means already sorted. Exposed for the benches.
pub fn rounds_needed<T: Ord>(v: &mut [T]) -> u32 {
    let runs = collect_runs_by(v, &|x: &T, y: &T| x.cmp(y)).len() - 1;
    if runs <= 1 {
        0
    } else {
        (runs as f64).log2().ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn run_detection_basics() {
        let mut v = vec![1, 2, 3, 9, 8, 7, 4, 4, 5];
        let runs = collect_runs_by(&mut v, &|a: &i32, b: &i32| a.cmp(b));
        // First ascending run extends through the 9; the strictly
        // descending run [8, 7, 4] is reversed in place; [4, 5] ascends.
        assert_eq!(v, [1, 2, 3, 9, 4, 7, 8, 4, 5]);
        assert_eq!(runs, [0, 4, 7, 9]);
    }

    #[test]
    fn run_detection_edge_cases() {
        let mut empty: Vec<i32> = vec![];
        assert_eq!(collect_runs_by(&mut empty, &|a: &i32, b| a.cmp(b)), [0]);
        let mut one = vec![5];
        assert_eq!(collect_runs_by(&mut one, &|a: &i32, b| a.cmp(b)), [0, 1]);
        let mut sorted: Vec<i32> = (0..100).collect();
        assert_eq!(
            collect_runs_by(&mut sorted, &|a: &i32, b| a.cmp(b)),
            [0, 100]
        );
        let mut reversed: Vec<i32> = (0..100).rev().collect();
        assert_eq!(
            collect_runs_by(&mut reversed, &|a: &i32, b| a.cmp(b)),
            [0, 100]
        );
        assert!(reversed.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn equal_elements_form_one_run_and_stay_stable() {
        // Equal adjacent elements extend an ascending run; a descending run
        // is strict, so equal elements are never reversed past each other.
        let mut v = vec![(3, 'a'), (3, 'b'), (2, 'x'), (1, 'y')];
        let runs = collect_runs_by(&mut v, &|a, b| a.0.cmp(&b.0));
        assert_eq!(runs, [0, 2, 4]);
        assert_eq!(v[2..4], [(1, 'y'), (2, 'x')]);
    }

    #[test]
    fn sorts_and_adapts() {
        // Nearly sorted: 2 runs → 1 round.
        let mut v: Vec<i64> = (0..10_000).collect();
        v[5000..].rotate_left(1); // small perturbation creating few runs
        let mut expect = v.clone();
        expect.sort();
        assert!(rounds_needed(&mut v.clone()) <= 3);
        natural_merge_sort(&mut v, 4);
        assert_eq!(v, expect);
    }

    #[test]
    fn already_sorted_is_linear_work() {
        let mut v: Vec<i64> = (0..100_000).collect();
        assert_eq!(rounds_needed(&mut v.clone()), 0);
        natural_merge_sort(&mut v, 4);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stability_matches_std() {
        let mut v: Vec<(i32, usize)> = (0..5000usize).map(|i| (((i * 37) % 8) as i32, i)).collect();
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k);
        natural_merge_sort_by(&mut v, 4, &|a, b| a.0.cmp(&b.0));
        assert_eq!(v, expect);
    }

    proptest! {
        #[test]
        fn matches_std_sort(
            mut v in proptest::collection::vec(-5000i64..5000, 0..800),
            threads in 1usize..8,
        ) {
            let mut expect = v.clone();
            expect.sort();
            natural_merge_sort(&mut v, threads);
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn runs_tile_the_array(mut v in proptest::collection::vec(-100i64..100, 0..300)) {
            let runs = collect_runs_by(&mut v, &|a: &i64, b| a.cmp(b));
            prop_assert_eq!(runs[0], 0);
            prop_assert_eq!(*runs.last().unwrap(), v.len());
            for w in runs.windows(2) {
                prop_assert!(w[0] < w[1] || (w[0] == 0 && w[1] == 0));
                // Each run is sorted after detection.
                prop_assert!(v[w[0]..w[1]].windows(2).all(|x| x[0] <= x[1]));
            }
        }

        #[test]
        fn stability_proptest(
            mut v in proptest::collection::vec((0i32..6, 0usize..10_000), 0..300),
            threads in 1usize..6,
        ) {
            let mut expect = v.clone();
            expect.sort_by_key(|&(k, _)| k);
            natural_merge_sort_by(&mut v, threads, &|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(v, expect);
        }
    }
}
