//! The [`Recorder`] trait, its zero-cost [`NoRecorder`] default, and the
//! small helpers instrumented call sites share (span guards, counted
//! comparators, the process-epoch clock).

use core::cmp::Ordering;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call to this function in the process.
///
/// This is the **single monotonic clock** for the whole workspace: kernel
/// spans, pool round windows, serve request deadlines
/// (`Request::with_deadline_in`, the dequeue-time expiry verdict), and the
/// per-request waterfall stages all read it. Because every producer and
/// every judge share one epoch and one monotonic source, timestamps from
/// different threads land on one comparable timeline, a waterfall's summed
/// stages can never exceed the wall time measured for the same request,
/// and a deadline verdict is always consistent with the queue-wait the
/// flight recorder logged (`tests/metrics_invariants.rs` pins the
/// stage-sum property as a regression test).
///
/// The epoch is process-wide (a `OnceLock<Instant>`), so traces from
/// consecutive kernel runs in one process are naturally ordered.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// A small dense per-thread index (0, 1, 2, …) assigned on first use.
///
/// `std::thread::ThreadId` has no stable numeric form; the telemetry layer
/// needs one to pair round begin/end events emitted by the same thread and
/// to name physical pool threads in the Chrome trace.
pub fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    }
    INDEX.with(|slot| match slot.get() {
        Some(i) => i,
        None => {
            let i = NEXT.fetch_add(1, AtomicOrdering::Relaxed);
            slot.set(Some(i));
            i
        }
    })
}

/// The span taxonomy. One variant per structurally distinct phase of the
/// merge-path kernels (see DESIGN.md §Observability for the mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Computing a share's segment boundaries (the cross-diagonal partition
    /// phase of Algorithm 1).
    Partition,
    /// One binary search along a cross diagonal (`co_rank`).
    DiagonalSearch,
    /// Merging one contiguous output segment (the per-worker linear phase).
    SegmentMerge,
    /// One cache-sized window of the segmented (SPM) merge, §IV.
    SpmWindow,
    /// One round of a parallel sort (chunk sort or pairwise/k-way merge
    /// round).
    SortRound,
}

impl SpanKind {
    /// Stable lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Partition => "partition",
            SpanKind::DiagonalSearch => "diagonal_search",
            SpanKind::SegmentMerge => "segment_merge",
            SpanKind::SpmWindow => "spm_window",
            SpanKind::SortRound => "sort_round",
        }
    }
}

/// Monotonic counters accumulated per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CounterKind {
    /// Comparator invocations (all phases).
    Comparisons,
    /// Comparisons spent inside diagonal binary searches only.
    DiagonalProbeSteps,
    /// Staging-buffer refills (the cyclic SPM merge's ring buffers).
    StagingFills,
    /// Segments the adaptive dispatcher routed to the classic two-pointer
    /// kernel.
    SegmentsClassic,
    /// Segments routed to the branch-lean kernel.
    SegmentsBranchLean,
    /// Segments routed to the galloping kernel.
    SegmentsGalloping,
    /// Tickets taken from another worker's deque (or the injector scan)
    /// by an idle participant during this round — the work-stealing
    /// executor's overlap witness. Reported once per round by the
    /// submitting caller after the round latch fires.
    PoolSteals,
    /// Logical shares executed through stolen tickets during this round
    /// (each steal's claim loop may run several chunks).
    PoolStolenShares,
}

impl CounterKind {
    /// Stable lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::Comparisons => "comparisons",
            CounterKind::DiagonalProbeSteps => "diagonal_probe_steps",
            CounterKind::StagingFills => "staging_fills",
            CounterKind::SegmentsClassic => "segments_classic",
            CounterKind::SegmentsBranchLean => "segments_branch_lean",
            CounterKind::SegmentsGalloping => "segments_galloping",
            CounterKind::PoolSteals => "pool_steals",
            CounterKind::PoolStolenShares => "pool_stolen_shares",
        }
    }
}

/// A sink for kernel and executor telemetry.
///
/// `worker` arguments are *logical* share indices (the algorithm's `p`
/// workers); physical pool threads appear only in
/// [`Recorder::share_window`]'s `tid`. All methods take `&self` and must be
/// callable concurrently from the pool team.
///
/// Implementations other than [`NoRecorder`] keep the default
/// `ACTIVE = true`. The work a call site does beyond the call itself (a
/// timestamp, a comparison count) is guarded by `R::ACTIVE` inside the
/// shared helpers ([`span`], [`counted_cmp`], the pool's share timer), so
/// each kernel has one body and its `NoRecorder` instantiation is the
/// untraced code (traced and untraced runs are compared in
/// `tests/telemetry_invariants.rs`).
pub trait Recorder: Sync {
    /// Compile-time activity flag; `false` only for [`NoRecorder`].
    const ACTIVE: bool = true;

    /// A span of `kind` opened on logical worker `worker` at [`now_ns`].
    /// Spans on one worker follow stack discipline (strict nesting).
    fn span_begin(&self, worker: usize, kind: SpanKind) {
        let _ = (worker, kind);
    }

    /// Closes the most recently opened span of `kind` on `worker`.
    fn span_end(&self, worker: usize, kind: SpanKind) {
        let _ = (worker, kind);
    }

    /// Adds `delta` to the per-worker counter `kind`.
    fn counter_add(&self, worker: usize, kind: CounterKind, delta: u64) {
        let _ = (worker, kind, delta);
    }

    /// Reports that logical worker `worker` produced `items` output
    /// elements (the Thm 14 per-worker element count).
    fn worker_items(&self, worker: usize, items: u64) {
        let _ = (worker, items);
    }

    /// A pool round with `shares` logical shares is starting on the calling
    /// thread. Rounds nest per thread (nested kernel calls run inline).
    fn round_begin(&self, shares: usize) {
        let _ = shares;
    }

    /// The round most recently begun on the calling thread finished.
    fn round_end(&self) {}

    /// The calling thread spent `ns` nanoseconds between submitting the
    /// round and beginning to execute its shares (scheduler queueing
    /// overhead: ticket distribution, and — in the serialized
    /// compatibility mode — the legacy round-mutex wait).
    fn round_wait_ns(&self, ns: u64) {
        let _ = ns;
    }

    /// Physical pool thread `tid` executed logical share `share` over the
    /// window `start_ns..end_ns` (per-share busy time).
    fn share_window(&self, tid: usize, share: usize, start_ns: u64, end_ns: u64) {
        let _ = (tid, share, start_ns, end_ns);
    }
}

/// The zero-cost default recorder: a ZST with `ACTIVE = false`.
///
/// Each parallel kernel has one `_by` entry that takes a recorder; its
/// natural-order entry passes `&NoRecorder`. Every method is an empty
/// `#[inline(always)]` body and the helpers that time or count check
/// `R::ACTIVE`, so that instantiation is the untraced code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoRecorder;

impl Recorder for NoRecorder {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn span_begin(&self, _worker: usize, _kind: SpanKind) {}
    #[inline(always)]
    fn span_end(&self, _worker: usize, _kind: SpanKind) {}
    #[inline(always)]
    fn counter_add(&self, _worker: usize, _kind: CounterKind, _delta: u64) {}
    #[inline(always)]
    fn worker_items(&self, _worker: usize, _items: u64) {}
    #[inline(always)]
    fn round_begin(&self, _shares: usize) {}
    #[inline(always)]
    fn round_end(&self) {}
    #[inline(always)]
    fn round_wait_ns(&self, _ns: u64) {}
    #[inline(always)]
    fn share_window(&self, _tid: usize, _share: usize, _start_ns: u64, _end_ns: u64) {}
}

/// Shared ownership delegates: an `Arc<R>` records into the inner `R`.
///
/// Lets a caller hand a recorder to a long-lived consumer (the serving
/// daemon owns its recorder for its whole lifetime) while keeping a handle
/// to `finish()` it afterwards.
impl<R: Recorder + Send + Sync> Recorder for std::sync::Arc<R> {
    const ACTIVE: bool = R::ACTIVE;

    #[inline(always)]
    fn span_begin(&self, worker: usize, kind: SpanKind) {
        R::span_begin(self, worker, kind);
    }
    #[inline(always)]
    fn span_end(&self, worker: usize, kind: SpanKind) {
        R::span_end(self, worker, kind);
    }
    #[inline(always)]
    fn counter_add(&self, worker: usize, kind: CounterKind, delta: u64) {
        R::counter_add(self, worker, kind, delta);
    }
    #[inline(always)]
    fn worker_items(&self, worker: usize, items: u64) {
        R::worker_items(self, worker, items);
    }
    #[inline(always)]
    fn round_begin(&self, shares: usize) {
        R::round_begin(self, shares);
    }
    #[inline(always)]
    fn round_end(&self) {
        R::round_end(self);
    }
    #[inline(always)]
    fn round_wait_ns(&self, ns: u64) {
        R::round_wait_ns(self, ns);
    }
    #[inline(always)]
    fn share_window(&self, tid: usize, share: usize, start_ns: u64, end_ns: u64) {
        R::share_window(self, tid, share, start_ns, end_ns);
    }
}

/// A [`Recorder`] adapter that shifts every logical worker index by a
/// fixed `base` before delegating.
///
/// The per-worker span stack discipline (see [`Recorder::span_begin`])
/// assumes each logical worker index is driven by one thread at a time.
/// When several independent kernel invocations run *concurrently* against
/// one shared recorder — the serving daemon's request-parallel regime,
/// where every in-flight request executes with share 1 and would
/// otherwise report as worker 0 — their events must land on disjoint
/// index ranges. Each concurrent caller wraps the shared recorder with a
/// distinct `base` (spaced at least its maximum share apart) and the
/// combined timeline stays well-formed.
///
/// Thread-keyed callbacks (`round_*`, `share_window`) pass through
/// unchanged: they are already keyed by physical thread, not worker.
#[derive(Debug, Clone, Copy)]
pub struct OffsetRecorder<'r, R> {
    base: usize,
    inner: &'r R,
}

impl<'r, R: Recorder> OffsetRecorder<'r, R> {
    /// Wraps `inner`, adding `base` to every worker index.
    pub fn new(base: usize, inner: &'r R) -> Self {
        OffsetRecorder { base, inner }
    }
}

impl<R: Recorder> Recorder for OffsetRecorder<'_, R> {
    const ACTIVE: bool = R::ACTIVE;

    #[inline(always)]
    fn span_begin(&self, worker: usize, kind: SpanKind) {
        self.inner.span_begin(self.base + worker, kind);
    }
    #[inline(always)]
    fn span_end(&self, worker: usize, kind: SpanKind) {
        self.inner.span_end(self.base + worker, kind);
    }
    #[inline(always)]
    fn counter_add(&self, worker: usize, kind: CounterKind, delta: u64) {
        self.inner.counter_add(self.base + worker, kind, delta);
    }
    #[inline(always)]
    fn worker_items(&self, worker: usize, items: u64) {
        self.inner.worker_items(self.base + worker, items);
    }
    #[inline(always)]
    fn round_begin(&self, shares: usize) {
        self.inner.round_begin(shares);
    }
    #[inline(always)]
    fn round_end(&self) {
        self.inner.round_end();
    }
    #[inline(always)]
    fn round_wait_ns(&self, ns: u64) {
        self.inner.round_wait_ns(ns);
    }
    #[inline(always)]
    fn share_window(&self, tid: usize, share: usize, start_ns: u64, end_ns: u64) {
        self.inner.share_window(tid, share, start_ns, end_ns);
    }
}

/// Opens a span on `rec`, closed when the returned guard drops (including
/// during unwinding, so a panicking share leaves a well-formed timeline).
///
/// With `R = NoRecorder` this is a no-op that compiles away.
#[inline(always)]
pub fn span<R: Recorder>(rec: &R, worker: usize, kind: SpanKind) -> SpanGuard<'_, R> {
    if R::ACTIVE {
        rec.span_begin(worker, kind);
    }
    SpanGuard { rec, worker, kind }
}

/// Guard returned by [`span`]; ends the span on drop.
pub struct SpanGuard<'r, R: Recorder> {
    rec: &'r R,
    worker: usize,
    kind: SpanKind,
}

impl<R: Recorder> Drop for SpanGuard<'_, R> {
    #[inline(always)]
    fn drop(&mut self) {
        if R::ACTIVE {
            self.rec.span_end(self.worker, self.kind);
        }
    }
}

/// Wraps a comparator so that, when `R` is active, every invocation bumps
/// a share-local [`Cell`] counter (flushed once per share via
/// [`Recorder::counter_add`], avoiding any shared atomic on the hot path).
/// Under [`NoRecorder`] the wrapper only forwards to `cmp`.
///
/// The wrapper is a new type, so code that tells comparators apart by type
/// (the adaptive merge's natural-order test) must look at `cmp` itself.
#[inline(always)]
pub fn counted_cmp<'a, R, T, F>(
    _rec: &R,
    cmp: &'a F,
    counter: &'a Cell<u64>,
) -> impl Fn(&T, &T) -> Ordering + 'a
where
    R: Recorder,
    F: Fn(&T, &T) -> Ordering,
{
    move |x: &T, y: &T| {
        if R::ACTIVE {
            counter.set(counter.get() + 1);
        }
        cmp(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_recorder_is_zero_sized_and_inactive() {
        assert_eq!(core::mem::size_of::<NoRecorder>(), 0);
        const { assert!(!NoRecorder::ACTIVE) }
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_index_is_stable_per_thread() {
        let a = thread_index();
        let b = thread_index();
        assert_eq!(a, b);
        let other = std::thread::spawn(thread_index).join().expect("join");
        assert_ne!(a, other);
    }

    #[test]
    fn counted_cmp_counts_only_for_an_active_recorder() {
        let hits = Cell::new(0u64);
        let base = |x: &i32, y: &i32| x.cmp(y);
        let rec = crate::timeline::TimelineRecorder::new();
        let cmp = counted_cmp(&rec, &base, &hits);
        assert_eq!(cmp(&1, &2), Ordering::Less);
        assert_eq!(cmp(&2, &1), Ordering::Greater);
        assert_eq!(hits.get(), 2);
        let uncounted = counted_cmp(&NoRecorder, &base, &hits);
        assert_eq!(uncounted(&1, &2), Ordering::Less);
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn offset_recorder_shifts_workers_and_passes_rounds_through() {
        use crate::timeline::TimelineRecorder;
        let rec = TimelineRecorder::new();
        {
            let shifted = OffsetRecorder::new(5, &rec);
            let _g = span(&shifted, 0, SpanKind::SegmentMerge);
            shifted.counter_add(1, CounterKind::Comparisons, 3);
            shifted.worker_items(0, 7);
            shifted.round_begin(2);
            shifted.round_end();
        }
        let t = rec.finish();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].worker, 5, "span index shifted by base");
        assert_eq!(t.counters.len(), 1);
        assert_eq!(t.counters[0].worker, 6, "counter index shifted by base");
        assert_eq!(t.counters[0].total, 3);
        assert_eq!(t.worker_items.len(), 1);
        assert_eq!(t.worker_items[0].worker, 5);
        assert_eq!(t.rounds.len(), 1, "rounds are thread-keyed, unshifted");
    }

    #[test]
    fn offset_recorder_inherits_activity() {
        use crate::timeline::TimelineRecorder;
        const { assert!(!<OffsetRecorder<'static, NoRecorder> as Recorder>::ACTIVE) }
        const { assert!(<OffsetRecorder<'static, TimelineRecorder> as Recorder>::ACTIVE) }
    }

    #[test]
    fn span_names_are_stable() {
        assert_eq!(SpanKind::Partition.name(), "partition");
        assert_eq!(SpanKind::DiagonalSearch.name(), "diagonal_search");
        assert_eq!(SpanKind::SegmentMerge.name(), "segment_merge");
        assert_eq!(SpanKind::SpmWindow.name(), "spm_window");
        assert_eq!(SpanKind::SortRound.name(), "sort_round");
        assert_eq!(CounterKind::Comparisons.name(), "comparisons");
        assert_eq!(
            CounterKind::DiagonalProbeSteps.name(),
            "diagonal_probe_steps"
        );
        assert_eq!(CounterKind::StagingFills.name(), "staging_fills");
        assert_eq!(CounterKind::SegmentsClassic.name(), "segments_classic");
        assert_eq!(
            CounterKind::SegmentsBranchLean.name(),
            "segments_branch_lean"
        );
        assert_eq!(CounterKind::SegmentsGalloping.name(), "segments_galloping");
        assert_eq!(CounterKind::PoolSteals.name(), "pool_steals");
        assert_eq!(CounterKind::PoolStolenShares.name(), "pool_stolen_shares");
    }
}
