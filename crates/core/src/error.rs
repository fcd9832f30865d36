//! Error types for the fallible (`try_*`) API surface.
//!
//! The primary kernels panic on precondition violations (the idiomatic choice
//! for HPC inner loops, where a wrong-sized output buffer is a programming
//! error, not a recoverable condition). Each panicking entry point has a
//! `try_*` sibling returning [`MergeError`] for callers that prefer to
//! validate dynamically sized inputs.

use core::fmt;

/// Precondition violations detected by the `try_*` API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// `out.len()` must equal `a.len() + b.len()`.
    OutputLenMismatch {
        /// Required output length (`a.len() + b.len()`).
        expected: usize,
        /// Provided output length.
        actual: usize,
    },
    /// The requested thread count was zero.
    ZeroThreads,
    /// An input that must be sorted (w.r.t. the supplied comparator) is not.
    ///
    /// Only returned by the `try_*` validators; the kernels themselves never
    /// scan their inputs.
    NotSorted {
        /// Which input violated the ordering.
        input: InputId,
        /// Index `i` such that `input[i] > input[i + 1]`.
        index: usize,
    },
}

/// Identifies one of the merge inputs in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputId {
    /// The first input array, `A`.
    A,
    /// The second input array, `B`.
    B,
    /// The `k`-th input of a k-way merge.
    List(usize),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MergeError::OutputLenMismatch { expected, actual } => write!(
                f,
                "output buffer length mismatch: expected {expected}, got {actual}"
            ),
            MergeError::ZeroThreads => write!(f, "thread count must be at least 1"),
            MergeError::NotSorted { input, index } => {
                write!(f, "input {input:?} is not sorted at index {index}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Returns the first out-of-order index of `v` under `cmp`, if any.
pub(crate) fn first_unsorted_index<T, F>(v: &[T], cmp: &F) -> Option<usize>
where
    F: Fn(&T, &T) -> core::cmp::Ordering,
{
    (1..v.len()).find_map(|i| {
        if cmp(&v[i - 1], &v[i]) == core::cmp::Ordering::Greater {
            Some(i - 1)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MergeError::OutputLenMismatch {
            expected: 10,
            actual: 9,
        };
        assert!(e.to_string().contains("expected 10"));
        assert!(e.to_string().contains("got 9"));
        assert!(MergeError::ZeroThreads.to_string().contains("at least 1"));
        let e = MergeError::NotSorted {
            input: InputId::B,
            index: 3,
        };
        assert!(e.to_string().contains("index 3"));
    }

    #[test]
    fn first_unsorted_index_detects_violation() {
        let cmp = |a: &i32, b: &i32| a.cmp(b);
        assert_eq!(first_unsorted_index(&[1, 2, 3], &cmp), None);
        assert_eq!(first_unsorted_index(&[1, 3, 2], &cmp), Some(1));
        assert_eq!(first_unsorted_index(&[2, 1], &cmp), Some(0));
        assert_eq!(first_unsorted_index::<i32, _>(&[], &cmp), None);
        assert_eq!(first_unsorted_index(&[7], &cmp), None);
        // Equal adjacent elements are sorted.
        assert_eq!(first_unsorted_index(&[5, 5, 5], &cmp), None);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MergeError>();
    }
}
