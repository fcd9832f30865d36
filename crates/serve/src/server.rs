//! The daemon: bounded admission queue, serving threads, deadline checks,
//! and worker-budget sharing over the persistent pool.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mergepath::merge::batch::batch_merge_into_recorded;
use mergepath::merge::parallel::parallel_merge_into_recorded;
use mergepath::sort::parallel::parallel_merge_sort_recorded;
use mergepath_telemetry::{now_ns, LatencyHistogram, OffsetRecorder, Recorder, Waterfall};

use crate::observe::{NoProbe, ServeProbe};

/// The logical worker shares one executing request receives when
/// `inflight` requests share a pool budget of `budget` threads: the
/// ceiling split `⌈budget / inflight⌉`, floored at 1.
///
/// This is the same global-budget discipline `merge::batch` applies
/// across pairs, lifted to concurrent requests: one lone request fans out
/// across the whole pool; at or beyond `budget` concurrent requests each
/// runs inline on its serving thread (share = 1 executes without
/// entering a pool round), so the daemon's parallelism degrades
/// gracefully from data-parallel to request-parallel.
///
/// The split rounds **up**: under the old serialize-the-pool executor a
/// floor split was the safe choice (rounds ran one at a time, so handing
/// out more shares than the strict division only lengthened the queue),
/// but it systematically under-shared — 8 threads at 3 inflight gave each
/// request 2 shares and idled two threads. With the work-stealing
/// scheduler concurrent rounds overlap and idle workers steal whatever is
/// left, so a generous share count costs nothing when the pool is busy
/// and buys parallelism when it is not.
pub fn worker_share(budget: usize, inflight: usize) -> usize {
    budget.div_ceil(inflight.max(1)).max(1)
}

/// What a request asks the daemon to compute.
#[derive(Debug, Clone)]
pub enum RequestKind<T> {
    /// Merge two sorted arrays (stable: ties take from `a` first).
    Merge {
        /// Left sorted input.
        a: Vec<T>,
        /// Right sorted input.
        b: Vec<T>,
    },
    /// Sort an unsorted array (stable).
    Sort {
        /// The keys to sort.
        keys: Vec<T>,
    },
}

/// One unit of work submitted to the [`Server`].
#[derive(Debug, Clone)]
pub struct Request<T> {
    /// Caller-assigned identifier, echoed in logs and summaries.
    pub id: u64,
    /// The computation.
    pub kind: RequestKind<T>,
    /// Absolute deadline on the [`now_ns`] process clock; `0` = none.
    /// Checked when the request is *dequeued*, with an inclusive
    /// boundary (`dequeue_ns >= deadline_ns` rejects — at the deadline
    /// is already too late): a request whose deadline was reached while
    /// queued is rejected without touching any output buffer.
    pub deadline_ns: u64,
}

impl<T> Request<T> {
    /// A merge request with no deadline.
    pub fn merge(id: u64, a: Vec<T>, b: Vec<T>) -> Self {
        Request {
            id,
            kind: RequestKind::Merge { a, b },
            deadline_ns: 0,
        }
    }

    /// A sort request with no deadline.
    pub fn sort(id: u64, keys: Vec<T>) -> Self {
        Request {
            id,
            kind: RequestKind::Sort { keys },
            deadline_ns: 0,
        }
    }

    /// Sets an absolute deadline `rel_ns` nanoseconds from now. The
    /// boundary is inclusive, so `with_deadline_in(0)` is deterministically
    /// rejected at dequeue — the clock cannot run backwards to beat it.
    pub fn with_deadline_in(mut self, rel_ns: u64) -> Self {
        self.deadline_ns = now_ns().saturating_add(rel_ns);
        self
    }
}

/// Why the daemon refused a request. Backpressure is always explicit —
/// the daemon never panics on overload and never drops silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was at capacity (or the server was shutting
    /// down) at submission time. Reported synchronously by
    /// [`Server::submit`].
    QueueFull,
    /// The request's deadline expired while it waited in the queue.
    /// Reported through the [`ResponseHandle`] at dequeue time.
    DeadlineExpired,
}

impl RejectReason {
    /// Stable name for logs and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineExpired => "deadline_expired",
        }
    }
}

/// The terminal state of an admitted request.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The kernel ran; `output` is byte-identical to the sequential
    /// oracle's answer and `latency_ns` measures submit → completion.
    Completed {
        /// The merged / sorted result.
        output: Vec<T>,
        /// Submit-to-completion latency, nanoseconds.
        latency_ns: u64,
        /// Per-stage latency attribution, measured on the same clock as
        /// `latency_ns` when the server's [`ServeProbe`] is active
        /// (all-zero under [`NoProbe`] — stage timestamps are never read
        /// on the disabled path). When active, the stages partition the
        /// wall time exactly: their sum equals `latency_ns`.
        waterfall: Waterfall,
    },
    /// Rejected after admission (deadline expiry at dequeue). No output
    /// buffer was ever allocated or written.
    Rejected(RejectReason),
    /// The comparator (or kernel) panicked; the panic was contained and
    /// the partially-built output dropped cleanly.
    Failed,
}

/// The order in which the daemon picks the next queued request. It has
/// one value: the type, and [`ServeConfig::policy`], remain only because
/// the benchmark's daemon configuration names `QueuePolicy::Edf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Earliest-deadline-first: the queued request with the smallest
    /// absolute deadline runs next; deadline-free requests
    /// (`deadline_ns == 0`) rank after every deadlined one. Ties — and
    /// the all-deadline-free queue — fall back to arrival order, so with
    /// no deadlines the queue is served in arrival order.
    #[default]
    Edf,
}

/// Daemon sizing. All fields are explicit so a configuration is a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded queue capacity; submissions beyond it get
    /// [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Serving threads = maximum concurrently executing requests.
    pub max_inflight: usize,
    /// Total pool-thread budget divided among in-flight requests via
    /// [`worker_share`].
    pub worker_budget: usize,
    /// Dequeue ordering for the admission queue: always
    /// [`QueuePolicy::Edf`], kept as a field because the benchmark's
    /// daemon configuration sets it.
    pub policy: QueuePolicy,
    /// Batching threshold: a dequeued merge whose output is at most this
    /// many items pulls further compatible queued merges (in EDF
    /// order, while the combined output still fits) into one
    /// `merge::batch` pool round instead of running each as a `share = 1`
    /// inline merge. `0` disables coalescing entirely.
    pub batch_max_items: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let budget = mergepath::executor::default_threads();
        ServeConfig {
            queue_capacity: 256,
            max_inflight: budget.max(1),
            worker_budget: budget,
            policy: QueuePolicy::Edf,
            batch_max_items: 4096,
        }
    }
}

/// A monotonic snapshot of the daemon's counters and latency histogram.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests offered to [`Server::submit`] (admitted or not).
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Synchronous queue-full rejections.
    pub rejected_queue_full: u64,
    /// Deadline expiries at dequeue.
    pub rejected_deadline: u64,
    /// Contained kernel panics.
    pub failed: u64,
    /// Deepest queue observed at any submission.
    pub queue_depth_peak: usize,
    /// Most requests ever executing simultaneously.
    pub inflight_peak: usize,
    /// Coalesced `merge::batch` rounds executed (rounds that merged two
    /// or more queued requests together).
    pub batched_rounds: u64,
    /// Requests folded into those coalesced rounds
    /// (`batched_requests / batched_rounds` = mean coalescing width).
    pub batched_requests: u64,
    /// Submit-to-completion latencies of completed requests.
    pub latency: LatencyHistogram,
}

impl ServeStats {
    /// Requests unaccounted for: submitted minus (completed + rejected +
    /// failed). Zero after [`Server::shutdown`] — the no-silent-drops
    /// invariant (`cargo xtask verify-serve` asserts it on every run).
    ///
    /// The counters are independently-loaded relaxed atomics, so a
    /// snapshot taken while requests are in flight can observe a
    /// resolution that raced ahead of the `submitted` load; the
    /// subtraction saturates at zero instead of going negative for such
    /// transient mid-flight reads.
    pub fn lost(&self) -> i64 {
        let resolved =
            self.completed + self.rejected_queue_full + self.rejected_deadline + self.failed;
        self.submitted.saturating_sub(resolved) as i64
    }
}

/// A single-use completion cell: the serving thread puts the outcome, the
/// submitter blocks on [`ResponseHandle::wait`].
struct OneShot<V> {
    slot: Mutex<Option<V>>,
    cv: Condvar,
}

impl<V> OneShot<V> {
    fn new() -> Self {
        OneShot {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn put(&self, v: V) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(v);
        self.cv.notify_all();
    }

    fn take(&self) -> V {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The submitter's side of an admitted request.
pub struct ResponseHandle<T> {
    /// The request id this handle resolves.
    pub id: u64,
    cell: Arc<OneShot<Outcome<T>>>,
}

impl<T> ResponseHandle<T> {
    /// Blocks until the daemon resolves the request.
    pub fn wait(self) -> Outcome<T> {
        self.cell.take()
    }
}

/// An admitted request waiting in the queue.
struct Ticket<T> {
    id: u64,
    kind: RequestKind<T>,
    deadline_ns: u64,
    submit_ns: u64,
    cell: Arc<OneShot<Outcome<T>>>,
}

struct QueueState<T> {
    deque: VecDeque<Ticket<T>>,
    open: bool,
}

struct Inner<T, R, P> {
    queue: Mutex<QueueState<T>>,
    cv: Condvar,
    cfg: ServeConfig,
    rec: R,
    probe: P,
    inflight: AtomicUsize,
    inflight_peak: AtomicUsize,
    queue_depth_peak: AtomicUsize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    failed: AtomicU64,
    batched_rounds: AtomicU64,
    batched_requests: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

fn bump_peak(peak: &AtomicUsize, observed: usize) {
    peak.fetch_max(observed, AtomicOrdering::Relaxed);
}

/// The serving daemon. See the [crate docs](crate) for the model.
///
/// `T` is the element type (`u32` for the CLI; tests use drop-tracked
/// keys); `R` the telemetry recorder threaded into every kernel
/// invocation; `P` the [`ServeProbe`] observing the request lifecycle
/// (queue wait, dispatch, compute, emit). Both default to their zero-cost
/// ZSTs, so `Server<T>` is the uninstrumented daemon.
///
/// # Examples
/// ```
/// use mergepath_serve::{Outcome, Request, ServeConfig, Server};
/// use mergepath_telemetry::NoRecorder;
/// let server = Server::start(ServeConfig::default(), NoRecorder);
/// let handle = server
///     .submit(Request::merge(0, vec![1u32, 3, 5], vec![2, 4, 6]))
///     .expect("queue has room");
/// match handle.wait() {
///     Outcome::Completed { output, .. } => assert_eq!(output, vec![1, 2, 3, 4, 5, 6]),
///     other => panic!("unexpected outcome: {other:?}"),
/// }
/// let stats = server.shutdown();
/// assert_eq!(stats.completed, 1);
/// assert_eq!(stats.lost(), 0);
/// ```
pub struct Server<T, R = mergepath_telemetry::NoRecorder, P = NoProbe>
where
    T: Ord + Clone + Default + Send + Sync + 'static,
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    inner: Arc<Inner<T, R, P>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T, R> Server<T, R, NoProbe>
where
    T: Ord + Clone + Default + Send + Sync + 'static,
    R: Recorder + Send + Sync + 'static,
{
    /// Spawns the serving threads and returns the running daemon with
    /// live observability disabled (the zero-cost [`NoProbe`] path).
    pub fn start(cfg: ServeConfig, rec: R) -> Self {
        Self::start_with_probe(cfg, rec, NoProbe)
    }
}

impl<T, R, P> Server<T, R, P>
where
    T: Ord + Clone + Default + Send + Sync + 'static,
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    /// Spawns the serving threads with `probe` observing every request's
    /// lifecycle (typically an `Arc<ServeObserver>`, so the caller keeps
    /// a handle to snapshot and dump while the daemon runs).
    pub fn start_with_probe(cfg: ServeConfig, rec: R, probe: P) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be at least 1");
        assert!(cfg.max_inflight > 0, "max_inflight must be at least 1");
        assert!(cfg.worker_budget > 0, "worker budget must be at least 1");
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState {
                deque: VecDeque::with_capacity(cfg.queue_capacity),
                open: true,
            }),
            cv: Condvar::new(),
            cfg,
            rec,
            probe,
            inflight: AtomicUsize::new(0),
            inflight_peak: AtomicUsize::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batched_rounds: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            latency: Mutex::new(LatencyHistogram::new()),
        });
        let workers = (0..cfg.max_inflight)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mp-serve-{w}"))
                    .spawn(move || serve_loop(w, &inner))
                    .expect("spawn serving thread")
            })
            .collect();
        Server { inner, workers }
    }

    /// Offers `req` to the daemon.
    ///
    /// Admission is synchronous: `Ok` hands back a [`ResponseHandle`] the
    /// caller can block on; `Err(QueueFull)` means the bounded queue was
    /// at capacity (or the server is shutting down) and the request —
    /// input buffers included — is dropped cleanly right here, nothing
    /// queued, nothing written.
    pub fn submit(&self, req: Request<T>) -> Result<ResponseHandle<T>, RejectReason> {
        let inner = &self.inner;
        inner.submitted.fetch_add(1, AtomicOrdering::Relaxed);
        let submit_ns = now_ns();
        if P::ACTIVE {
            inner.probe.on_submit(req.id, submit_ns, req.deadline_ns);
        }
        let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        if !q.open || q.deque.len() >= inner.cfg.queue_capacity {
            drop(q);
            inner
                .rejected_queue_full
                .fetch_add(1, AtomicOrdering::Relaxed);
            if P::ACTIVE {
                inner
                    .probe
                    .on_reject_queue_full(req.id, now_ns(), inner.cfg.queue_capacity);
            }
            return Err(RejectReason::QueueFull);
        }
        let cell = Arc::new(OneShot::new());
        let id = req.id;
        q.deque.push_back(Ticket {
            id,
            kind: req.kind,
            deadline_ns: req.deadline_ns,
            submit_ns,
            cell: Arc::clone(&cell),
        });
        let depth = q.deque.len();
        bump_peak(&inner.queue_depth_peak, depth);
        drop(q);
        if P::ACTIVE {
            inner.probe.on_enqueue(id, depth);
        }
        inner.cv.notify_one();
        Ok(ResponseHandle { id, cell })
    }

    /// Current counters (live; the histogram is a snapshot copy).
    pub fn stats(&self) -> ServeStats {
        let inner = &self.inner;
        ServeStats {
            submitted: inner.submitted.load(AtomicOrdering::Relaxed),
            completed: inner.completed.load(AtomicOrdering::Relaxed),
            rejected_queue_full: inner.rejected_queue_full.load(AtomicOrdering::Relaxed),
            rejected_deadline: inner.rejected_deadline.load(AtomicOrdering::Relaxed),
            failed: inner.failed.load(AtomicOrdering::Relaxed),
            queue_depth_peak: inner.queue_depth_peak.load(AtomicOrdering::Relaxed),
            inflight_peak: inner.inflight_peak.load(AtomicOrdering::Relaxed),
            batched_rounds: inner.batched_rounds.load(AtomicOrdering::Relaxed),
            batched_requests: inner.batched_requests.load(AtomicOrdering::Relaxed),
            latency: inner
                .latency
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }

    /// Graceful shutdown: stops admitting, drains the queue (every
    /// admitted request still resolves — completed, deadline-rejected,
    /// or failed), joins the serving threads, and returns the final
    /// stats. `stats().lost() == 0` afterwards.
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.open = false;
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

impl<T, R, P> Drop for Server<T, R, P>
where
    T: Ord + Clone + Default + Send + Sync + 'static,
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // shutdown() already ran
        }
        {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.open = false;
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The EDF rank of a ticket: its absolute deadline, with deadline-free
/// tickets (`deadline_ns == 0`) ranked after every deadlined one.
fn edf_key<T>(t: &Ticket<T>) -> u64 {
    if t.deadline_ns == 0 {
        u64::MAX
    } else {
        t.deadline_ns
    }
}

/// Index of the ticket served next, or `None` on an empty queue: the
/// smallest [`edf_key`], keeping the earliest-queued ticket on ties — so
/// an all-deadline-free queue is served in arrival order. The scan is
/// O(queue depth), bounded by `queue_capacity`, and runs under the queue
/// lock, so the choice is a pure function of queue contents.
fn next_index<T>(deque: &VecDeque<Ticket<T>>) -> Option<usize> {
    // `min_by_key` returns the first of several equal minima.
    deque
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| edf_key(t))
        .map(|(i, _)| i)
}

/// Pulls additional compatible merges out of the queue to run alongside
/// `first` in one `merge::batch` pool round. Called under the queue lock.
///
/// Eligibility: merge requests only (one element type and the derived
/// `Ord` comparator per server instantiation, so key type and comparator
/// class match by construction), each small enough that the round's
/// combined output stays within `cfg.batch_max_items`. Companions are
/// taken in EDF order among the eligible tickets, so urgency is
/// preserved inside the round. Sorts and oversized merges never batch.
fn coalesce<T>(
    first: Ticket<T>,
    deque: &mut VecDeque<Ticket<T>>,
    cfg: &ServeConfig,
) -> Vec<Ticket<T>> {
    let mut batch = vec![first];
    let limit = cfg.batch_max_items;
    let mut total = match &batch[0].kind {
        RequestKind::Merge { a, b } if limit > 0 => a.len() + b.len(),
        _ => return batch,
    };
    if total > limit {
        return batch;
    }
    loop {
        let mut pick: Option<(u64, usize)> = None;
        for (i, t) in deque.iter().enumerate() {
            let RequestKind::Merge { a, b } = &t.kind else {
                continue;
            };
            if total + a.len() + b.len() > limit {
                continue;
            }
            let key = edf_key(t);
            match pick {
                Some((k, _)) if k <= key => {}
                _ => pick = Some((key, i)),
            }
        }
        let Some((_, idx)) = pick else { break };
        let t = deque.remove(idx).expect("picked index is in range");
        if let RequestKind::Merge { a, b } = &t.kind {
            total += a.len() + b.len();
        }
        batch.push(t);
    }
    batch
}

/// One serving thread: dequeue in EDF order, coalesce compatible
/// merges, deadline-check, execute under the shared worker budget,
/// resolve every ticket. Returns when the queue is closed and drained.
///
/// `w` is this serving thread's index. Kernel telemetry is reported
/// through an [`OffsetRecorder`] based at `w * worker_budget`: serving
/// threads execute requests concurrently, and the per-worker span stack
/// discipline requires each thread's kernel events to land on a disjoint
/// logical-worker range (a request's share never exceeds the budget, so
/// the ranges cannot overlap).
fn serve_loop<T, R, P>(w: usize, inner: &Inner<T, R, P>)
where
    T: Ord + Clone + Default + Send + Sync + 'static,
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    let rec = OffsetRecorder::new(w * inner.cfg.worker_budget, &inner.rec);
    loop {
        let (batch, depth) = {
            let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(idx) = next_index(&q.deque) {
                    let t = q.deque.remove(idx).expect("EDF index is in range");
                    let batch = coalesce(t, &mut q.deque, &inner.cfg);
                    break (Some(batch), q.deque.len());
                }
                if !q.open {
                    break (None, 0);
                }
                q = inner.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(mut batch) = batch else { return };

        // One clock read serves the whole round: the waterfall's queue
        // stage and every ticket's deadline verdict come off the same
        // timestamp, so the two can never disagree. The disabled
        // (`NoProbe`, no deadline) path reads no clock at all here.
        let any_deadline = batch.iter().any(|t| t.deadline_ns != 0);
        let dequeue_ns = if P::ACTIVE || any_deadline {
            now_ns()
        } else {
            0
        };

        // Deadline is judged when execution could begin, not at
        // submission: a request that waited to (or past) its deadline is
        // rejected here, before any output buffer exists. The boundary is
        // inclusive — `dequeue_ns == deadline_ns` already misses — so a
        // zero-relative deadline (`with_deadline_in(0)`) deterministically
        // rejects.
        let mut live: Vec<Ticket<T>> = Vec::with_capacity(batch.len());
        for ticket in batch.drain(..) {
            if P::ACTIVE {
                inner
                    .probe
                    .on_dequeue(ticket.id, dequeue_ns, ticket.submit_ns, depth);
            }
            if ticket.deadline_ns != 0 && dequeue_ns >= ticket.deadline_ns {
                inner
                    .rejected_deadline
                    .fetch_add(1, AtomicOrdering::Relaxed);
                if P::ACTIVE {
                    inner
                        .probe
                        .on_reject_deadline(ticket.id, dequeue_ns, ticket.deadline_ns);
                }
                // Resolving drops `ticket.kind` — the input buffers — cleanly.
                ticket
                    .cell
                    .put(Outcome::Rejected(RejectReason::DeadlineExpired));
                continue;
            }
            live.push(ticket);
        }
        if live.is_empty() {
            continue;
        }

        let inflight = inner.inflight.fetch_add(1, AtomicOrdering::SeqCst) + 1;
        bump_peak(&inner.inflight_peak, inflight);
        let share = worker_share(inner.cfg.worker_budget, inflight);
        let start_ns = if P::ACTIVE { now_ns() } else { 0 };
        if P::ACTIVE {
            for t in &live {
                inner.probe.on_start(t.id, start_ns, share, inflight);
            }
        }

        if live.len() == 1 {
            let ticket = live.pop().expect("one live ticket");
            let result = catch_unwind(AssertUnwindSafe(|| execute(ticket.kind, share, &rec)));
            let compute_end_ns = if P::ACTIVE { now_ns() } else { 0 };
            let inflight_after = inner.inflight.fetch_sub(1, AtomicOrdering::SeqCst) - 1;
            match result {
                Ok(output) => resolve_completed(
                    inner,
                    ticket.id,
                    ticket.submit_ns,
                    &ticket.cell,
                    output,
                    dequeue_ns,
                    start_ns,
                    compute_end_ns,
                    inflight_after,
                ),
                Err(_panic) => {
                    // The kernel (comparator) panicked; the unwind already
                    // dropped the partial output. Contain it — the daemon
                    // itself never panics on a bad request.
                    inner.failed.fetch_add(1, AtomicOrdering::Relaxed);
                    if P::ACTIVE {
                        inner
                            .probe
                            .on_fail(ticket.id, compute_end_ns, inflight_after);
                    }
                    ticket.cell.put(Outcome::Failed);
                }
            }
            continue;
        }

        // Coalesced round: every live ticket is a merge (coalesce only
        // pairs merges), so the whole round is one `merge::batch` call —
        // Corollary 7's equispaced cuts balance the concatenated output
        // across the round's `share` workers regardless of how unevenly
        // the individual requests are sized.
        let width = live.len() as u64;
        let result = {
            let pairs: Vec<(&[T], &[T])> = live
                .iter()
                .map(|t| match &t.kind {
                    RequestKind::Merge { a, b } => (a.as_slice(), b.as_slice()),
                    RequestKind::Sort { .. } => unreachable!("only merges are coalesced"),
                })
                .collect();
            let total: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
            catch_unwind(AssertUnwindSafe(|| {
                let cmp = |x: &T, y: &T| -> Ordering { x.cmp(y) };
                let mut out = vec![T::default(); total];
                batch_merge_into_recorded(&pairs, &mut out, share, &cmp, &rec);
                // Split the concatenated output back into per-request
                // buffers, tail-first so each split is O(its own length).
                let mut outputs: Vec<Vec<T>> = Vec::with_capacity(pairs.len());
                for (a, b) in pairs.iter().rev() {
                    let tail = out.split_off(out.len() - (a.len() + b.len()));
                    outputs.push(tail);
                }
                outputs.reverse();
                outputs
            }))
        };
        let compute_end_ns = if P::ACTIVE { now_ns() } else { 0 };
        let inflight_after = inner.inflight.fetch_sub(1, AtomicOrdering::SeqCst) - 1;

        match result {
            Ok(outputs) => {
                inner.batched_rounds.fetch_add(1, AtomicOrdering::Relaxed);
                inner
                    .batched_requests
                    .fetch_add(width, AtomicOrdering::Relaxed);
                for (ticket, output) in live.into_iter().zip(outputs) {
                    resolve_completed(
                        inner,
                        ticket.id,
                        ticket.submit_ns,
                        &ticket.cell,
                        output,
                        dequeue_ns,
                        start_ns,
                        compute_end_ns,
                        inflight_after,
                    );
                }
            }
            Err(_panic) => {
                // One poisoned comparator fails the whole round: the
                // unwind dropped the shared output buffer, and each
                // ticket resolves `Failed` — contained, nothing lost.
                for ticket in live {
                    inner.failed.fetch_add(1, AtomicOrdering::Relaxed);
                    if P::ACTIVE {
                        inner
                            .probe
                            .on_fail(ticket.id, compute_end_ns, inflight_after);
                    }
                    ticket.cell.put(Outcome::Failed);
                }
            }
        }
    }
}

/// Records one completed request: latency histogram, counters, probe
/// hooks, waterfall, and the submitter's completion cell.
#[allow(clippy::too_many_arguments)]
fn resolve_completed<T, R, P>(
    inner: &Inner<T, R, P>,
    id: u64,
    submit_ns: u64,
    cell: &OneShot<Outcome<T>>,
    output: Vec<T>,
    dequeue_ns: u64,
    start_ns: u64,
    compute_end_ns: u64,
    inflight_after: usize,
) where
    T: Ord + Clone + Default + Send + Sync + 'static,
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    let done_ns = now_ns();
    let latency_ns = done_ns.saturating_sub(submit_ns);
    inner
        .latency
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .record(latency_ns);
    inner.completed.fetch_add(1, AtomicOrdering::Relaxed);
    // The four stages partition submit→done exactly: each boundary
    // timestamp is used as the end of one stage and the start of the
    // next, so sum(stages) == latency_ns.
    let waterfall = if P::ACTIVE {
        Waterfall {
            queue_ns: dequeue_ns.saturating_sub(submit_ns),
            dispatch_ns: start_ns.saturating_sub(dequeue_ns),
            compute_ns: compute_end_ns.saturating_sub(start_ns),
            emit_ns: done_ns.saturating_sub(compute_end_ns),
        }
    } else {
        Waterfall::default()
    };
    if P::ACTIVE {
        inner
            .probe
            .on_complete(id, done_ns, inflight_after, &waterfall);
    }
    cell.put(Outcome::Completed {
        output,
        latency_ns,
        waterfall,
    });
}

/// Runs one request's kernel with `share` logical workers, threading the
/// recorder through to the merge-path spans and counters.
fn execute<T, R>(kind: RequestKind<T>, share: usize, rec: &R) -> Vec<T>
where
    T: Ord + Clone + Default + Send + Sync,
    R: Recorder,
{
    let cmp = |x: &T, y: &T| -> Ordering { x.cmp(y) };
    match kind {
        RequestKind::Merge { a, b } => {
            let mut out = vec![T::default(); a.len() + b.len()];
            parallel_merge_into_recorded(&a, &b, &mut out, share, &cmp, rec);
            out
        }
        RequestKind::Sort { mut keys } => {
            parallel_merge_sort_recorded(&mut keys, share, &cmp, rec);
            keys
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath_telemetry::NoRecorder;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            queue_capacity: 4,
            max_inflight: 2,
            worker_budget: 4,
            policy: QueuePolicy::Edf,
            batch_max_items: 4096,
        }
    }

    #[test]
    fn worker_share_splits_the_budget() {
        assert_eq!(worker_share(8, 1), 8);
        assert_eq!(worker_share(8, 2), 4);
        assert_eq!(worker_share(8, 3), 3, "ceiling split: no idle remainder");
        assert_eq!(worker_share(8, 8), 1);
        assert_eq!(worker_share(8, 100), 1);
        assert_eq!(worker_share(1, 1), 1);
        assert_eq!(worker_share(4, 0), 4, "defensive: zero inflight");
    }

    #[test]
    fn merge_and_sort_round_trip() {
        let server: Server<u32> = Server::start(small_cfg(), NoRecorder);
        let m = server
            .submit(Request::merge(1, vec![1, 4, 7], vec![2, 3, 9]))
            .expect("admitted");
        let s = server
            .submit(Request::sort(2, vec![5u32, 1, 4, 2, 3]))
            .expect("admitted");
        match m.wait() {
            Outcome::Completed { output, .. } => assert_eq!(output, vec![1, 2, 3, 4, 7, 9]),
            other => panic!("merge: {other:?}"),
        }
        match s.wait() {
            Outcome::Completed { output, .. } => assert_eq!(output, vec![1, 2, 3, 4, 5]),
            other => panic!("sort: {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.lost(), 0);
        assert_eq!(stats.latency.count(), 2);
    }

    #[test]
    fn queue_full_rejects_synchronously() {
        // No serving threads can drain faster than we submit if we keep
        // the workers busy with huge sorts first.
        let server: Server<u32> = Server::start(
            ServeConfig {
                queue_capacity: 1,
                max_inflight: 1,
                worker_budget: 1,
                policy: QueuePolicy::Edf,
                batch_max_items: 4096,
            },
            NoRecorder,
        );
        // One long request occupies the single worker (scrambled keys: the
        // sort finishes a sorted or reversed input in one linear pass)…
        let busy: Vec<u32> = (0..200_000u32)
            .map(|x| x.wrapping_mul(2_654_435_761))
            .collect();
        let h0 = server.submit(Request::sort(0, busy)).expect("admitted");
        // …one more fills the queue; eventually a submit must bounce.
        let mut bounced = false;
        let mut handles = vec![h0];
        for id in 1..50u64 {
            match server.submit(Request::merge(id, vec![1u32, 3], vec![2, 4])) {
                Ok(h) => handles.push(h),
                Err(RejectReason::QueueFull) => {
                    bounced = true;
                    break;
                }
                Err(other) => panic!("unexpected sync rejection {other:?}"),
            }
        }
        assert!(bounced, "bounded queue never pushed back");
        for h in handles {
            match h.wait() {
                Outcome::Completed { .. } => {}
                other => panic!("admitted request must complete: {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert!(stats.rejected_queue_full >= 1);
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn expired_deadline_is_rejected_at_dequeue() {
        let server: Server<u32> = Server::start(
            ServeConfig {
                queue_capacity: 8,
                max_inflight: 1,
                worker_budget: 1,
                policy: QueuePolicy::Edf,
                batch_max_items: 4096,
            },
            NoRecorder,
        );
        // Occupy the worker so the deadline request has to wait…
        let busy: Vec<u32> = (0..300_000u32)
            .map(|x| x.wrapping_mul(2_654_435_761))
            .collect();
        let h0 = server.submit(Request::sort(0, busy)).expect("admitted");
        // …with a deadline that will certainly have passed by then.
        let doomed = Request::merge(1, vec![1u32, 3], vec![2, 4]).with_deadline_in(1);
        let h1 = server.submit(doomed).expect("admitted");
        assert!(matches!(h0.wait(), Outcome::Completed { .. }));
        match h1.wait() {
            Outcome::Rejected(RejectReason::DeadlineExpired) => {}
            other => panic!("expected deadline rejection, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let server: Server<u32> = Server::start(small_cfg(), NoRecorder);
        let handles: Vec<_> = (0..4u64)
            .map(|id| {
                server
                    .submit(Request::merge(id, vec![1, 3, 5], vec![2, 4, 6]))
                    .expect("admitted")
            })
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.lost(), 0);
        for h in handles {
            assert!(matches!(h.wait(), Outcome::Completed { .. }));
        }
    }

    #[test]
    fn concurrent_telemetry_is_well_formed() {
        use mergepath_telemetry::TimelineRecorder;
        use std::sync::Arc;
        let rec = Arc::new(TimelineRecorder::new());
        let server: Server<u32, _> = Server::start(
            ServeConfig {
                queue_capacity: 64,
                max_inflight: 4,
                worker_budget: 4,
                policy: QueuePolicy::Edf,
                batch_max_items: 4096,
            },
            Arc::clone(&rec),
        );
        let a: Vec<u32> = (0..4096).map(|x| 2 * x).collect();
        let b: Vec<u32> = (0..4096).map(|x| 2 * x + 1).collect();
        let handles: Vec<_> = (0..32u64)
            .map(|id| {
                server
                    .submit(Request::merge(id, a.clone(), b.clone()))
                    .expect("admitted")
            })
            .collect();
        for h in handles {
            assert!(matches!(h.wait(), Outcome::Completed { .. }));
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 32);
        let t = Arc::try_unwrap(rec)
            .ok()
            .expect("server released its recorder handle at shutdown")
            .finish();
        // Every kernel span landed in some serving thread's offset range
        // (4 serving threads × a budget of 4), and pairing held — each
        // span closed with a positive-length window.
        assert!(!t.spans.is_empty(), "kernel spans were recorded");
        for s in &t.spans {
            assert!(s.worker < 4 * 4, "kernel span outside every offset range");
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn reject_names_are_stable() {
        assert_eq!(RejectReason::QueueFull.name(), "queue_full");
        assert_eq!(RejectReason::DeadlineExpired.name(), "deadline_expired");
    }

    #[test]
    fn probe_counters_reconcile_and_waterfall_partitions_latency() {
        use crate::observe::{ObserverConfig, ServeObserver};
        let obs = Arc::new(ServeObserver::new(ObserverConfig::default()));
        let server: Server<u32, NoRecorder, Arc<ServeObserver>> = Server::start_with_probe(
            ServeConfig {
                queue_capacity: 16,
                max_inflight: 2,
                worker_budget: 4,
                policy: QueuePolicy::Edf,
                batch_max_items: 4096,
            },
            NoRecorder,
            Arc::clone(&obs),
        );
        let handles: Vec<_> = (0..8u64)
            .map(|id| {
                server
                    .submit(Request::merge(id, vec![1, 4, 7, 9], vec![2, 3, 5, 8]))
                    .expect("admitted")
            })
            .collect();
        for h in handles {
            match h.wait() {
                Outcome::Completed {
                    latency_ns,
                    waterfall,
                    ..
                } => {
                    // The stages partition submit→done on one clock, so
                    // their sum can never exceed (in fact equals) the
                    // measured wall time.
                    assert!(
                        waterfall.total_ns() <= latency_ns,
                        "stage sum {} exceeds wall {latency_ns}",
                        waterfall.total_ns()
                    );
                    assert!(waterfall.compute_ns > 0, "compute stage observed");
                }
                other => panic!("expected completion: {other:?}"),
            }
        }
        let stats = server.shutdown();
        let snap = obs.snapshot();
        // Live counters reconcile exactly with ServeStats.
        assert_eq!(snap.counter("serve_submitted_total"), Some(stats.submitted));
        assert_eq!(snap.counter("serve_completed_total"), Some(stats.completed));
        assert_eq!(
            snap.counter("serve_rejected_queue_full_total"),
            Some(stats.rejected_queue_full)
        );
        assert_eq!(
            snap.counter("serve_rejected_deadline_total"),
            Some(stats.rejected_deadline)
        );
        assert_eq!(snap.counter("serve_failed_total"), Some(stats.failed));
        assert_eq!(
            snap.gauge("serve_inflight_peak"),
            Some(stats.inflight_peak as u64)
        );
        assert_eq!(
            snap.histogram("serve_latency_ns").map(|h| h.count()),
            Some(stats.completed)
        );
        // Every request left a full lifecycle in the flight ring.
        assert_eq!(
            obs.flight().recorded(),
            4 * 8,
            "submit/dequeue/start/complete"
        );
    }

    #[test]
    fn lost_saturates_instead_of_underflowing() {
        // A mid-flight snapshot can load `submitted` before a racing
        // resolution lands, so the resolved sum may momentarily exceed
        // it; lost() must clamp to zero, not go negative.
        let stats = ServeStats {
            submitted: 3,
            completed: 2,
            rejected_queue_full: 1,
            rejected_deadline: 1,
            failed: 0,
            queue_depth_peak: 0,
            inflight_peak: 0,
            batched_rounds: 0,
            batched_requests: 0,
            latency: LatencyHistogram::new(),
        };
        assert_eq!(stats.lost(), 0, "saturates on transient over-resolution");
    }

    #[test]
    fn lost_never_goes_negative_under_concurrent_snapshots() {
        let server: Server<u32> = Server::start(
            ServeConfig {
                queue_capacity: 64,
                max_inflight: 4,
                worker_budget: 4,
                policy: QueuePolicy::Edf,
                batch_max_items: 0,
            },
            NoRecorder,
        );
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                // Hammer stats() while requests resolve; every snapshot
                // must stay non-negative (the regression for the
                // independently-loaded-atomics underflow).
                for _ in 0..2_000 {
                    assert!(
                        server.stats().lost() >= 0,
                        "mid-flight snapshot underflowed"
                    );
                }
            });
            for id in 0..256u64 {
                let h = server
                    .submit(Request::merge(id, vec![1u32, 3, 5], vec![2, 4, 6]))
                    .expect("admitted");
                assert!(matches!(h.wait(), Outcome::Completed { .. }));
            }
            reader.join().expect("reader clean");
        });
        let stats = server.shutdown();
        assert_eq!(stats.lost(), 0, "post-shutdown accounting exact");
    }

    #[test]
    fn zero_relative_deadline_is_rejected_on_the_boundary() {
        // `with_deadline_in(0)` sets deadline = now; the monotone clock
        // guarantees dequeue_ns >= deadline_ns, and the inclusive
        // boundary makes the rejection deterministic.
        let server: Server<u32> = Server::start(small_cfg(), NoRecorder);
        let h = server
            .submit(Request::merge(0, vec![1u32, 3], vec![2, 4]).with_deadline_in(0))
            .expect("admitted");
        match h.wait() {
            Outcome::Rejected(RejectReason::DeadlineExpired) => {}
            other => panic!("zero-relative deadline must expire, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn queued_small_merges_coalesce_into_batch_rounds() {
        let server: Server<u32> = Server::start(
            ServeConfig {
                queue_capacity: 32,
                max_inflight: 1,
                worker_budget: 2,
                policy: QueuePolicy::Edf,
                batch_max_items: 4096,
            },
            NoRecorder,
        );
        // Occupy the single worker so the small merges pile up in the
        // queue, then get coalesced into one round when it frees.
        let busy: Vec<u32> = (0..300_000u32)
            .map(|x| x.wrapping_mul(2_654_435_761))
            .collect();
        let h0 = server.submit(Request::sort(0, busy)).expect("admitted");
        let handles: Vec<_> = (1..=8u64)
            .map(|id| {
                let base = id as u32 * 10;
                server
                    .submit(Request::merge(
                        id,
                        vec![base, base + 2, base + 4],
                        vec![base + 1, base + 3, base + 5],
                    ))
                    .expect("admitted")
            })
            .collect();
        assert!(matches!(h0.wait(), Outcome::Completed { .. }));
        for (i, h) in handles.into_iter().enumerate() {
            let base = (i as u32 + 1) * 10;
            match h.wait() {
                Outcome::Completed { output, .. } => {
                    assert_eq!(
                        output,
                        (base..base + 6).collect::<Vec<u32>>(),
                        "batched merge output is the oracle answer"
                    );
                }
                other => panic!("expected completion: {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 9);
        assert_eq!(stats.lost(), 0);
        assert!(stats.batched_rounds >= 1, "queued merges never coalesced");
        assert!(
            stats.batched_requests >= 2,
            "a round must fold at least two requests"
        );
    }

    #[test]
    fn no_probe_outcome_has_zero_waterfall() {
        let server: Server<u32> = Server::start(small_cfg(), NoRecorder);
        let h = server
            .submit(Request::merge(0, vec![1u32, 3], vec![2, 4]))
            .expect("admitted");
        match h.wait() {
            Outcome::Completed { waterfall, .. } => {
                assert_eq!(
                    waterfall,
                    Waterfall::default(),
                    "disabled path reads no stages"
                );
            }
            other => panic!("expected completion: {other:?}"),
        }
        server.shutdown();
    }
}
