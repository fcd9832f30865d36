//! # mergepath-baselines — comparison algorithms from the paper's §V
//!
//! Every algorithm the paper positions itself against, implemented from
//! scratch so the comparisons in `EXPERIMENTS.md` run against real code
//! rather than citations:
//!
//! * [`sequential`] — the textbook two-pointer merge (the §VI speedup
//!   baseline and the subject of the "6% overhead" remark) and a
//!   sort-the-concatenation strawman.
//! * [`naive`] — the §I *incorrect* equal-split parallelization, kept as an
//!   executable counterexample.
//! * [`rank_partition`] — Shiloach–Vishkin-style workload partitioning
//!   (ref \[6\]): equal chunks of `A`, co-partitioned `B` by rank; correct
//!   but imbalanced (up to `2N/p` per processor on uniform data, worse on
//!   skew) — the imbalance the paper's Corollary 7 eliminates.
//! * [`akl_santoro`] — recursive median bisection (ref \[5\]): `log p`
//!   partition rounds, conflict-free reads, `O(N/p + log N · log p)` time.
//! * [`multiselect`] — Deo–Jain–Medidi multiselection (ref \[7\]): all
//!   `p − 1` selection points found in one shared `O(log p)`-deep
//!   recursion.
//! * [`bitonic`] — Batcher's bitonic merge and sort (ref \[4\]):
//!   `O(N log² N)` work, data-oblivious.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod akl_santoro;
pub mod bitonic;
pub mod multiselect;
pub mod naive;
pub mod rank_partition;
pub mod sequential;
