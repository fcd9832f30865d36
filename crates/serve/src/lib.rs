//! # mergepath-serve — an in-process merge/sort serving daemon
//!
//! The ROADMAP's north star is a production-scale system serving heavy
//! concurrent traffic, not a one-shot kernel benchmark. This crate adds
//! the admission and scheduling layer that turns the merge-path kernel
//! library into that system:
//!
//! - [`Server`]: a long-lived daemon accepting many concurrent merge /
//!   sort [`Request`]s through a **bounded queue dequeued
//!   earliest-deadline-first**, which is arrival order when no deadlines
//!   are set. Overload is answered with explicit backpressure — a
//!   synchronous [`RejectReason::QueueFull`] at submission, or a
//!   [`RejectReason::DeadlineExpired`] at dequeue when a request's
//!   deadline was reached while it waited (inclusive boundary:
//!   `dequeue >= deadline` misses) — never a panic, never a partially
//!   written output buffer.
//! - **Request batching**: compatible queued small merges (same key
//!   type and comparator class, combined output within
//!   [`ServeConfig::batch_max_items`]) coalesce into one
//!   `merge::batch` pool round instead of N `share = 1` inline runs,
//!   counted by [`ServeStats::batched_rounds`] and
//!   [`ServeStats::batched_requests`].
//! - [`net`]: the TCP front-end — length-prefixed binary framing with a
//!   hand-rolled codec ([`net::NetServer`] / [`net::NetClient`]), taking
//!   the daemon out-of-process (`mp serve --listen` / `mp client`).
//! - **Global worker budgeting**: all requests share the one persistent
//!   [`executor::Pool`](mergepath::executor); each executing request gets
//!   [`worker_share`]`(budget, inflight)` logical shares, the same
//!   equal-split discipline `merge::batch` applies across pairs. At high
//!   concurrency every request runs inline on its serving thread
//!   (share = 1: a one-participant round that recruits no pool worker),
//!   so throughput scales with serving threads; at low concurrency a lone request fans out across the pool.
//! - **Observability**: the generic [`Recorder`] flows through the
//!   request path into the kernels (the trailing `rec` of
//!   `parallel_merge_into_by`, `batch_merge_into_by` and
//!   `parallel_merge_sort_by`) and carries kernel events only. The
//!   daemon's own events are counted in [`ServeStats`] and, when one is
//!   attached, by the [`ServeProbe`] (a [`ServeObserver`]'s metrics
//!   registry and flight ring). Latency percentiles come from the
//!   mergeable [`LatencyHistogram`].
//!
//! Correctness under concurrency follows the Träff stable-merge line
//! (arXiv 1202.6575): every completed response is byte-identical to the
//! sequential oracle's answer regardless of interleaving, proven by
//! `tests/serve_invariants.rs` across all nine adversarial input
//! families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod observe;
mod server;

pub use net::{NetClient, NetOp, NetRequest, NetResponse, NetServer, NetStatus, ProtocolError};
pub use observe::{
    AnomalyTrigger, NoProbe, ObserverConfig, RoundGaugeRecorder, ServeObserver, ServeProbe,
};
pub use server::{
    worker_share, Outcome, QueuePolicy, RejectReason, Request, RequestKind, ResponseHandle,
    ServeConfig, ServeStats, Server,
};

// Re-exported so callers of the serving API need not name the telemetry
// crate for the common cases.
pub use mergepath_telemetry::{
    FlightEvent, FlightEventKind, FlightRecorder, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, NoRecorder, Recorder, TimelineRecorder, Waterfall,
};
