//! # mergepath-telemetry — in-repo observability for the merge-path kernels
//!
//! The paper's central claim (§III, Thm 14) is *perfect load balance*: each
//! of the `p` workers merges exactly `⌈N/p⌉` elements, so wall-clock time is
//! bounded by the slowest worker with near-zero spread. Validating that claim
//! (and every future performance change) needs per-worker timelines, pool
//! round overhead, and diagonal-search cost — quantities an aggregate
//! comparison count cannot observe.
//!
//! This crate provides that instrumentation without any external dependency
//! (the workspace is hermetic — no `tracing`, no `metrics`; this follows the
//! same vendored-shim philosophy as the in-repo `proptest`):
//!
//! - [`Recorder`]: the sink trait the kernels and the executor report into.
//!   Mirrors `mergepath::probe::Probe`: the default implementation
//!   [`NoRecorder`] is a zero-sized type whose calls are empty
//!   `#[inline(always)]` bodies **and** whose associated const
//!   [`Recorder::ACTIVE`] is `false`, so every instrumented call site
//!   (including the `Instant::now` reads around it) monomorphizes away and
//!   the untraced hot path is byte-for-byte the pre-telemetry code.
//! - [`TimelineRecorder`]: the collecting implementation — cache-padded
//!   per-worker event shards, finished into a processed [`Telemetry`].
//! - [`Telemetry`]: processed spans / counters / share windows / rounds,
//!   with derived [`LoadBalanceReport`] statistics (max/min/mean worker busy
//!   time, imbalance ratio, Thm 14 predicted `⌈N/p⌉` vs. observed counts).
//! - Exporters: Chrome `trace_event` JSON ([`Telemetry::to_chrome_trace`],
//!   loadable in Perfetto / `chrome://tracing`) and a flat JSONL metrics
//!   stream ([`Telemetry::to_jsonl`]).
//! - [`LatencyHistogram`]: a fixed-size HDR-style log-linear histogram used
//!   by the serving layer (`mergepath-serve`) for per-request p50/p99
//!   latency summaries, mergeable across worker shards.
//! - [`json`]: a minimal hand-rolled JSON writer/parser used by the
//!   exporters and by `cargo xtask verify-telemetry`'s schema check.
//! - [`artifact`]: the shared envelope writer (environment fingerprint +
//!   schema self-check) every committed `BENCH_*.json` goes through, so
//!   the artifacts can never disagree on schema or fingerprint.
//!
//! The **live** observability layer (ISSUE 7) sits beside the post-hoc
//! timeline and shares its zero-cost philosophy:
//!
//! - [`metrics`]: [`MetricsRegistry`] — cache-line-sharded lock-free
//!   event counters and mergeable [`LatencyHistogram`]s, snapshotable at
//!   any instant without pausing writers. It keeps no gauges: a level
//!   such as a queue's depth is read from the state it measures.
//! - [`waterfall`]: the per-request `{queue, dispatch, compute, emit}`
//!   latency breakdown and the p99 attribution table renderer.
//! - [`flight`]: [`FlightRecorder`] — a bounded overwrite-oldest ring of
//!   recent request events, dumped as JSONL on anomaly (deadline miss,
//!   queue-full burst, contained panic) for post-mortem inspection via
//!   `mp inspect`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod metrics;
mod record;
mod timeline;
pub mod waterfall;

pub use flight::{FlightEvent, FlightEventKind, FlightRecorder};
pub use histogram::LatencyHistogram;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use record::{
    counted_cmp, now_ns, span, thread_index, CounterKind, NoRecorder, OffsetRecorder, Recorder,
    SpanGuard, SpanKind,
};
pub use timeline::{
    BusyStats, CounterTotal, LoadBalanceReport, RoundRecord, ShareRecord, SpanRecord, Telemetry,
    TimelineRecorder, WorkerItems,
};
pub use waterfall::Waterfall;
