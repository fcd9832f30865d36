//! # mergepath — Merge Path: Parallel Merging Made Simple
//!
//! A from-scratch Rust implementation of the algorithms in
//! *Merge Path — Parallel Merging Made Simple* (Odeh, Green, Mwassi, Shmueli,
//! Birk; IPPS 2012), plus the machinery needed to verify and evaluate them.
//!
//! ## The idea
//!
//! Merging two sorted arrays `A` and `B` corresponds to walking a monotone
//! staircase path — the **merge path** — across an `|A| × |B|` grid from the
//! top-left to the bottom-right corner: a *down* move consumes an element of
//! `A`, a *right* move consumes an element of `B`. The `i`-th point of the
//! path always lies on the `i`-th **cross diagonal** of the grid (paper,
//! Lemma 8), and along each cross diagonal the comparison predicate
//! `A[i] > B[j]` is monotone (Corollary 12). Finding where the path crosses a
//! given diagonal therefore takes one *binary search* — without constructing
//! the path, and independently for every diagonal.
//!
//! Cutting the path at `p − 1` equispaced diagonals yields `p` perfectly
//! load-balanced, completely independent merge jobs whose outputs are
//! adjacent, disjoint ranges of the result (Theorems 9 and 14). That is the
//! whole algorithm: no locks, no atomics, no inter-thread communication.
//!
//! ## Crate tour
//!
//! | module | contents |
//! |--------|----------|
//! | [`diagonal`] | the cross-diagonal binary search ([`co_rank`](diagonal::co_rank)) — the paper's Theorem 14 |
//! | [`partition`] | splitting a merge into `p` equisized independent segments |
//! | [`merge`] | sequential kernels, **Algorithm 1** ([`merge::parallel`]), **Algorithm 2** ([`merge::segmented`]), and a k-way extension |
//! | [`sort`] | merge sorts built on the above: parallel (§III), natural-runs and cache-aware (§IV.C) |
//! | [`matrix`], [`path`] | explicit Merge Matrix / Merge Path objects used to *verify* the paper's lemmas |
//! | [`executor`] | a persistent fork-join worker pool (the OpenMP-style backend) |
//! | [`probe`] | zero-cost memory-access probes used by the cache simulator |
//! | [`telemetry`] | re-export of `mergepath-telemetry`: recorder trait, per-worker timelines, trace exporters |
//!
//! ## Quickstart
//!
//! ```
//! use mergepath::prelude::*;
//!
//! let a = [1, 3, 5, 7, 9];
//! let b = [2, 3, 4, 8, 10, 11];
//! let mut out = vec![0; a.len() + b.len()];
//!
//! // Parallel merge with 4 threads (Algorithm 1).
//! parallel_merge_into(&a, &b, &mut out, 4);
//! assert_eq!(out, [1, 2, 3, 3, 4, 5, 7, 8, 9, 10, 11]);
//!
//! // Parallel merge sort (§III).
//! let mut v = vec![5, 3, 9, 1, 4, 8, 2, 7, 6, 0];
//! parallel_merge_sort(&mut v, 4);
//! assert_eq!(v, (0..10).collect::<Vec<_>>());
//! ```
//!
//! All merges are **stable**: when an element of `A` compares equal to an
//! element of `B`, the `A` element is emitted first, and the relative order
//! within each input is preserved. Every parallel routine produces *bitwise
//! identical* output to its sequential counterpart.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod diagonal;
pub mod error;
pub mod executor;
pub mod iter;
pub mod matrix;
pub mod merge;
pub mod partition;
pub mod path;
pub mod probe;
pub mod select;
pub mod sort;
pub mod view;

pub use mergepath_telemetry as telemetry;

/// Convenience re-exports of the most common entry points.
pub mod prelude {
    pub use crate::diagonal::{co_rank, co_rank_by};
    pub use crate::iter::{merge_iter, merged_range};
    pub use crate::merge::inplace::{inplace_merge, parallel_inplace_merge};
    pub use crate::merge::kway::{kway_merge, parallel_kway_merge};
    pub use crate::merge::parallel::{parallel_merge, parallel_merge_into};
    pub use crate::merge::segmented::{segmented_parallel_merge_into, SpmConfig};
    pub use crate::merge::sequential::{merge_into, merge_into_by};
    pub use crate::partition::{partition_segments, Segment};
    pub use crate::select::{kth_of_union, median_of_union};
    pub use crate::sort::cache_aware::cache_aware_parallel_sort;
    pub use crate::sort::natural::natural_merge_sort;
    pub use crate::sort::parallel::parallel_merge_sort;
}

pub use error::MergeError;
