//! Merge kernels: sequential, parallel (Algorithm 1), segmented
//! cache-efficient (Algorithm 2), and the k-way extension.
//!
//! All kernels are **stable** — when elements compare equal, those from the
//! first input (`A`, or the lower-indexed list in a k-way merge) are emitted
//! first — and every parallel variant produces output bitwise identical to
//! [`sequential::merge_into_by`].

pub mod adaptive;
pub mod batch;
pub mod inplace;
pub mod kway;
pub mod parallel;
pub mod segmented;
pub mod sequential;
pub mod stable;
