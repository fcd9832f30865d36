//! Read-only views of sorted sequences.
//!
//! The diagonal search ([`co_rank_probed`](crate::diagonal::co_rank_probed))
//! and the probed view merge
//! ([`merge_views_into_probed`](crate::merge::sequential::merge_views_into_probed))
//! are written against [`SortedView`] rather than `&[T]`, so that views
//! defined outside this crate are searched and merged by the real code, not
//! by a copy of it. The cache simulator's cyclic staging buffers (paper,
//! Algorithm 2, step 1: "cyclic buffer") are such a view; in this crate the
//! trait is implemented for slices only, and the code is monomorphized, so
//! slices pay nothing for it.

/// A read-only, random-access view of a sorted sequence.
///
/// Implementations must be cheap to index (`O(1)` [`get`](SortedView::get))
/// and must present an immutable snapshot for the duration of the borrow.
pub trait SortedView<T> {
    /// Number of elements in the view.
    fn len(&self) -> usize;

    /// Returns the `i`-th element in sorted order.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    fn get(&self, i: usize) -> &T;

    /// Returns `true` if the view contains no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> SortedView<T> for [T] {
    #[inline(always)]
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    #[inline(always)]
    fn get(&self, i: usize) -> &T {
        &self[i]
    }
}

impl<T, V: SortedView<T> + ?Sized> SortedView<T> for &V {
    #[inline(always)]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline(always)]
    fn get(&self, i: usize) -> &T {
        (**self).get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_view_basics() {
        let s = [10, 20, 30];
        let v: &[i32] = &s;
        assert_eq!(SortedView::len(v), 3);
        assert_eq!(*SortedView::get(v, 1), 20);
        assert!(!SortedView::is_empty(v));
        let empty: &[i32] = &[];
        assert!(SortedView::is_empty(empty));
    }

    #[test]
    fn ref_view_forwards() {
        let s = [1, 2, 3];
        let v: &[i32] = &s;
        let vv = &v;
        assert_eq!(SortedView::len(&vv), 3);
        assert_eq!(*SortedView::get(&vv, 2), 3);
    }
}
