//! Sequential reference points.
//!
//! [`textbook_merge_into`] is deliberately implemented independently of
//! `mergepath`'s kernels (no shared code) so that the §VI remark — "the
//! single-thread execution time of our algorithm was some 6% longer than a
//! truly sequential merge" — is measured against a genuinely separate
//! implementation.

use core::cmp::Ordering;

/// The classic two-pointer stable merge, straight out of CLRS (the paper's
/// reference \[1\]).
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn textbook_merge_into<T: Ord + Clone>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "output length must equal |A| + |B|"
    );
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out[k] = a[i].clone();
            i += 1;
        } else {
            out[k] = b[j].clone();
            j += 1;
        }
        k += 1;
    }
    while i < a.len() {
        out[k] = a[i].clone();
        i += 1;
        k += 1;
    }
    while j < b.len() {
        out[k] = b[j].clone();
        j += 1;
        k += 1;
    }
}

/// [`textbook_merge_into`] with a comparator.
pub fn textbook_merge_into_by<T: Clone, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "output length must equal |A| + |B|"
    );
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        if cmp(&a[i], &b[j]) != Ordering::Greater {
            out[k] = a[i].clone();
            i += 1;
        } else {
            out[k] = b[j].clone();
            j += 1;
        }
        k += 1;
    }
    while i < a.len() {
        out[k] = a[i].clone();
        i += 1;
        k += 1;
    }
    while j < b.len() {
        out[k] = b[j].clone();
        j += 1;
        k += 1;
    }
}

/// The strawman that ignores the inputs' sortedness: concatenate and run a
/// full `O(N log N)` sort. Useful as a sanity floor in the benches.
pub fn concat_sort_merge<T: Ord + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out: Vec<T> = a.iter().chain(b.iter()).cloned().collect();
    out.sort(); // std stable sort preserves A-before-B on ties
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    #[test]
    fn textbook_merge_basic() {
        let mut out = [0; 6];
        textbook_merge_into(&[1, 3, 5], &[2, 4, 6], &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn textbook_merge_is_stable() {
        let a = [(1, 'a'), (2, 'a')];
        let b = [(1, 'b'), (2, 'b')];
        let mut out = [(0, '_'); 4];
        textbook_merge_into_by(&a, &b, &mut out, &|x, y| x.0.cmp(&y.0));
        assert_eq!(out, [(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn wrong_length_panics() {
        let mut out = [0; 1];
        textbook_merge_into(&[1], &[2], &mut out);
    }

    proptest! {
        #[test]
        fn agrees_with_mergepath_kernel(
            a in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
        ) {
            let mut ours = vec![0; a.len() + b.len()];
            textbook_merge_into(&a, &b, &mut ours);
            let mut theirs = vec![0; a.len() + b.len()];
            mergepath::merge::sequential::merge_into(&a, &b, &mut theirs);
            prop_assert_eq!(&ours, &theirs);
            prop_assert_eq!(concat_sort_merge(&a, &b), theirs);
        }
    }
}
