//! A persistent work-stealing fork-join worker pool.
//!
//! The paper's x86 implementation uses OpenMP, whose parallel regions are
//! executed by a long-lived team of threads rather than freshly spawned
//! ones. [`Pool`] reproduces that execution model so the per-merge overhead
//! of `std::thread::spawn` can be separated from the algorithm itself (the
//! §VI "6% single-thread overhead" experiment, and an ablation in the
//! benches). The pool runs shares and knows no kernel: Algorithm 1's share
//! loop lives once, in [`crate::merge::parallel`], which submits it here.
//!
//! # Scheduler design (DESIGN.md §15)
//!
//! Earlier revisions serialized rounds behind a global `Mutex<()>`: one
//! fork-join round at a time, concurrent callers queued. That was correct
//! but hostile to the serving daemon — a wide request's round blocked
//! every narrow one, and idle serving threads could not help a wide round
//! finish. The co-rank construction (Siebert & Träff, arXiv 1303.4312;
//! Merge Path Thm 14) computes every share's input/output ranges with
//! zero cross-share coordination, so shares are safe to execute in any
//! order, on any worker, interleaved across rounds. This scheduler
//! exploits exactly that independence:
//!
//! * Each worker owns a **bounded deque** of tickets (LIFO at the owner's
//!   end, FIFO at the steal end), plus one shared **global injector**.
//! * `Pool::submit_round` (the internal engine behind
//!   [`Pool::run_indexed`]) enqueues a **round descriptor** — erased job
//!   pointer, atomic share-claim counter, completion latch, panic flag —
//!   without taking any global lock. A pool-worker submitter pushes its
//!   tickets onto its own deque; a non-pool submitter (the common case:
//!   serving threads, test drivers) has no deque of its own, so its
//!   tickets are distributed round-robin across the worker deques,
//!   overflowing to the global injector when a deque is full.
//! * The **caller participates**: it immediately runs the round's claim
//!   loop itself, then — while its latch is still open — drains its own
//!   deque and steals from siblings (helping whatever rounds are in
//!   flight), then waits on the round latch (see *Wait policy*).
//! * A **ticket** is an invitation, not a work item: shares are claimed
//!   from the round's atomic counter in chunks, so a stale ticket popped
//!   after its round drained is a no-op. Idle workers pop their own deque
//!   LIFO, then the injector, then steal a sibling's ticket FIFO — each
//!   productive steal is counted (`pool_steals`, `pool_stolen_shares`).
//!
//! Multiple rounds are therefore in flight simultaneously; narrow serving
//! requests overlap wide ones instead of queueing behind them. The round
//! latch fires when every share has *executed* (not when tickets retire),
//! so tickets stranded on a busy worker's deque can never deadlock a
//! caller. Panics are caught per share: the panicking share still counts
//! toward the latch, the round's panic flag is set, and the caller
//! re-raises after the latch fires — the scheduler itself holds no lock
//! across job code, so a panicking round leaves it fully reusable (no
//! poisoned round mutex to recover, unlike the old design).
//!
//! # Wait policy: spin, then sleep
//!
//! The pool follows OpenMP's spin-then-sleep policy (`GOMP_SPINCOUNT`,
//! `KMP_BLOCKTIME`): an idle thread polls for [`SPIN_WINDOW`] before it
//! blocks in the kernel, so back-to-back small rounds do not pay a
//! park→wake latency each. An idle worker polls the scheduler's atomic
//! epoch (bumped on every ticket push) and the shutdown flag, then parks
//! on the scheduler's condvar; a caller whose share is done polls its
//! round's completion count, then blocks on the round latch. Every poll
//! is followed by `std::thread::yield_now()`, so a spinning thread gives
//! its CPU to any other runnable thread (serving threads, say) instead of
//! starving it. The window is one constant, not a setting; DESIGN.md
//! §15 gives the no-lost-wake-up argument and the measurement behind
//! it.
//!
//! # The shared global pool
//!
//! Every parallel kernel in this crate executes its fork-join rounds on a
//! single process-wide pool obtained from [`global`]. The pool is created
//! lazily on first use with [`default_threads`] participants
//! (`MERGEPATH_THREADS` if set and valid, otherwise
//! `std::thread::available_parallelism()`), and lives for the rest of the
//! process. Kernels submit *logical* shares via [`Pool::run_indexed`]: the
//! requested share count is decoupled from the pool's physical size, so a
//! kernel asked for `p` threads produces bitwise-identical output whether
//! the pool has 1, `p`, or 100 threads. Each round also carries its
//! participant count: Algorithm 1 cuts up to `4p` tiles (see
//! [`crate::partition::tile_count`]), and a pool wider than `p` still runs
//! them on at most `p` threads, the caller included (see *The participant
//! bound*).
//!
//! A *nested* call (a share calling back into [`Pool::run_indexed`] on
//! any pool while a round is executing on this thread) is supported and
//! executes all of its shares inline, sequentially, on the calling thread
//! — the same behaviour as OpenMP with nested parallelism disabled. Pool workers therefore never submit
//! rounds, which is what makes caller participation deadlock-free.
//!
//! # The participant bound
//!
//! [`Pool::run_indexed`] takes the round's share count and its
//! participant count `p` separately and pushes `min(threads, shares, p) −
//! 1` tickets, so at most `p` threads ever run the round's shares; with
//! one participant the shares run in a loop on the caller. Every caller
//! of a parallel kernel relies on this: the Fig. 5 and T1 sweeps vary `p`
//! on one pool, and the serving daemon splits its pool among in-flight
//! requests by handing each a `p`. The bound is an argument of the round,
//! not a setting.
//!
//! # Chunked share claiming
//!
//! Oversubscribed rounds (`shares > participants`) claim shares in chunks
//! of `ceil(shares / (participants * 4))` rather than one `fetch_add` per
//! share, cutting cache-line contention on the claim counter for
//! many-tiny-share rounds while still leaving 4× participants chunks for
//! load balancing (Thm 14's `⌈N/p⌉` cap applies to the *share cut*, which
//! is unchanged — chunking only batches the claims). A tiled round of at
//! most `4p` tiles claims one tile at a time. Virtual execution under an
//! installed observer always enumerates per-share, so checker schedules
//! are unaffected.
//!
//! # Thread-count freeze
//!
//! [`default_threads`] reads `MERGEPATH_THREADS` **once per process** (the
//! result is cached behind a `OnceLock`); changing the variable after the
//! first call has no effect. This matches the lifetime of the global pool
//! itself, whose participant count is fixed at first use — kernels that
//! need a different share count pass it explicitly to
//! [`Pool::run_indexed`], which never consults the environment.
//!
//! # Telemetry
//!
//! [`Pool::run_indexed`] takes a `mergepath_telemetry::Recorder` and
//! reports into it round begin/end, the submit-to-first-share queue wait
//! (`round_wait_ns`), one busy window per executed share, and — when the
//! round was helped by stolen tickets — the `pool_steals` /
//! `pool_stolen_shares` counters. Share windows are tagged with the
//! executing participant's *ticket* index (a round-local id below the
//! round's participant count), so concurrent rounds reporting into
//! per-request `OffsetRecorder`s keep their worker ranges disjoint. With
//! the zero-sized `NoRecorder` (`ACTIVE == false`) the reports compile
//! away and no share is timed, so the hot path pays only when a real
//! recorder is supplied.
//!
//! Without any recorder, [`Pool::steal_stats`] and [`Pool::round_counts`]
//! keep pool-lifetime counts of productive steals and of *solo* rounds:
//! rounds of at least two tickets whose every share ran on the caller
//! because no other participant claimed one in time.
//!
//! # Virtual execution (schedule checking)
//!
//! A [`ShareObserver`] installed on the current thread
//! ([`install_observer`]) turns every fork-join entry point on every pool
//! into a deterministic *virtual executor*: shares run inline,
//! single-threaded, in the permutation order the observer chooses, and the
//! recording accessors ([`SendPtr::slice_mut`], [`SendPtr::write`],
//! [`note_write_range`], [`note_read_range`]) report each share's output
//! writes and input reads to it. `mergepath-check` builds the CREW
//! access-set checker (paper, Thms 9 and 14) on these hooks — including
//! steal-order schedules that model shares executing on workers other
//! than their pusher, interleaved across rounds. With no observer
//! installed — the default — each hook site costs one thread-local read
//! and the pool behaves exactly as documented above.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mergepath_telemetry::{now_ns, CounterKind, Recorder};

/// Locks a mutex, ignoring poison. The scheduler never holds any of its
/// locks across job code (jobs run under per-share `catch_unwind`), so a
/// poisoned lock carries no meaning here — the protected state is always
/// consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long an idle pool thread polls before it blocks (module docs,
/// *Wait policy*). Sized from the measured park→wake latency: a round
/// that woke a parked worker and a blocked caller paid about 20 µs of
/// fork-join overhead on a 2-vCPU guest, so a window of a few such
/// latencies covers the gap between back-to-back rounds while an idle
/// pool stops costing CPU time almost at once.
pub const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Polls `ready` for up to [`SPIN_WINDOW`], yielding the CPU between
/// polls. Returns whether `ready` came true; `false` tells the caller to
/// block.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= SPIN_WINDOW {
            return false;
        }
        std::thread::yield_now();
    }
}

/// A type-erased pointer to a round's job.
///
/// The erased signature is `Fn(ticket, share)`: `ticket` is the executing
/// participant's round-local id (used by [`Pool::run_indexed`] to tag
/// share windows), `share` the logical share index.
///
/// Raw pointers are not `Send`/`Sync`; this wrapper asserts transfer is
/// safe, which [`Pool::submit_round`] guarantees by construction: the
/// pointee is `Sync`, and every dereference is gated on a successful
/// share claim, which proves the submitting caller is still blocked on
/// the round latch and the job therefore still alive (see
/// [`participate`]).
struct JobPtr(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: see the struct docs — dereferences are claim-gated, and the
// pointee is `Sync` so shared execution is safe.
unsafe impl Send for JobPtr {}
// SAFETY: as above.
unsafe impl Sync for JobPtr {}

/// One fork-join round in flight: the descriptor tickets point at.
struct Round {
    /// The erased job; valid while the submitting caller is blocked in
    /// [`Pool::submit_round`] (guaranteed for every dereference by the
    /// claim-gating argument on [`JobPtr`]).
    job: JobPtr,
    /// Logical share count.
    shares: usize,
    /// Shares claimed per `fetch_add` (see module docs, *Chunked share
    /// claiming*).
    chunk: usize,
    /// The claim counter: participants `fetch_add(chunk)` and execute the
    /// claimed range. Values `>= shares` mean the round is fully claimed.
    next: AtomicUsize,
    /// Shares *executed* (panicking shares included). The round latch
    /// fires when this reaches `shares` — completion is counted per
    /// executed share, never per retired ticket, so tickets stranded on a
    /// blocked worker's deque cannot deadlock the caller.
    completed: AtomicUsize,
    /// Set when any share panicked; the caller re-raises after the latch.
    panicked: AtomicBool,
    /// Latch mutex + condvar; the predicate is `completed >= shares`.
    latch: Mutex<()>,
    done_cv: Condvar,
    /// Tickets of this round productively taken from a foreign deque.
    steals: AtomicU64,
    /// Shares executed through those stolen tickets.
    stolen_shares: AtomicU64,
}

impl Round {
    fn is_done(&self) -> bool {
        self.completed.load(AtomicOrdering::Acquire) >= self.shares
    }

    /// Blocks until every share has executed: polls for [`SPIN_WINDOW`],
    /// then sleeps on the latch.
    fn wait_done(&self) {
        if spin_until(|| self.is_done()) {
            return;
        }
        let mut guard = lock(&self.latch);
        while !self.is_done() {
            guard = self
                .done_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Counts `n` executed shares, firing the latch on the last one. The
    /// `AcqRel` ordering publishes every per-round store made by the
    /// finishing participant (panic flag, steal counters) to the caller's
    /// `is_done` acquire load.
    fn finish(&self, n: usize) {
        let prev = self.completed.fetch_add(n, AtomicOrdering::AcqRel);
        if prev + n >= self.shares {
            // Take the latch mutex before notifying so a caller between
            // its predicate check and `wait` cannot miss the wakeup.
            let _guard = lock(&self.latch);
            self.done_cv.notify_all();
        }
    }
}

/// A deque entry: an invitation for one participant to join `round`'s
/// claim loop. Stale tickets (rounds already fully claimed) are no-ops.
struct Task {
    round: Arc<Round>,
    /// Round-local participant id in `0..min(threads, shares,
    /// participants)`; ticket 0 is always the submitting caller.
    ticket: usize,
}

/// Runs `round`'s claim loop as participant `ticket`. Returns the number
/// of shares executed here and — if one of them panicked — the first
/// panic payload (the caller resumes its own payload; workers drop
/// theirs, the round's flag having already been set).
///
/// `stolen` attributes executed shares to the round's steal counters.
/// `stop` makes the loop abandon between chunks once *that* round's latch
/// has fired — used by callers helping foreign rounds while waiting, so
/// help is bounded by one chunk past their own round's completion.
/// Abandoning is safe: loop exit without witnessing `next >= shares`
/// leaves the remaining shares to the round's own caller, which
/// participates unconditionally and never abandons its own round.
fn participate(
    round: &Round,
    ticket: usize,
    stolen: bool,
    stop: Option<&Round>,
) -> (usize, Option<Box<dyn std::any::Any + Send>>) {
    let mut executed = 0usize;
    let mut own: Option<Box<dyn std::any::Any + Send>> = None;
    loop {
        if let Some(s) = stop {
            if s.is_done() {
                break;
            }
        }
        let base = round.next.fetch_add(round.chunk, AtomicOrdering::Relaxed);
        if base >= round.shares {
            break;
        }
        let hi = (base + round.chunk).min(round.shares);
        // SAFETY: the successful claim above proves `completed < shares`
        // (the claimed range has not been counted yet), so the submitting
        // caller is still blocked on the round latch and `job` is alive
        // for the duration of this chunk.
        let job = unsafe { &*round.job.0 };
        for share in base..hi {
            let result = {
                let _mark = RoundMark::enter();
                catch_unwind(AssertUnwindSafe(|| job(ticket, share)))
            };
            if let Err(payload) = result {
                round.panicked.store(true, AtomicOrdering::Release);
                if own.is_none() {
                    own = Some(payload);
                }
            }
        }
        if stolen {
            if executed == 0 {
                round.steals.fetch_add(1, AtomicOrdering::Relaxed);
            }
            round
                .stolen_shares
                .fetch_add((hi - base) as u64, AtomicOrdering::Relaxed);
        }
        executed += hi - base;
        // Count executed shares only after the steal attribution above so
        // `finish`'s release publishes it to the waiting caller.
        round.finish(hi - base);
    }
    (executed, own)
}

/// Capacity of each worker's deque; ticket pushes beyond it overflow to
/// the global injector. Tickets are invitations (a round pushes at most
/// `participants - 1` of them), so a small bound suffices and keeps a
/// stale backlog from growing behind a busy worker.
const DEQUE_CAP: usize = 8;

/// The scheduler state shared between the pool handle and its workers.
struct Sched {
    /// One bounded deque per spawned worker (`threads - 1` of them).
    /// Owners pop LIFO (`pop_back`), thieves steal FIFO (`pop_front`).
    deques: Box<[Mutex<VecDeque<Task>>]>,
    /// Overflow and fallback queue; popping it is not a steal.
    injector: Mutex<VecDeque<Task>>,
    /// Bumped after every ticket push and on shutdown (`Release`, paired
    /// with the workers' `Acquire` loads, so a worker that sees the new
    /// value also sees the pushed ticket). An idle worker polls it for
    /// [`SPIN_WINDOW`], then parks on `available` while it still reads
    /// the value it saw before its failed scan.
    epoch: AtomicU64,
    /// Parking only: a worker re-checks `epoch` under this mutex before
    /// it waits, and a pusher takes it after the bump before it
    /// notifies, so a push between the re-check and the wait cannot be
    /// missed.
    park: Mutex<()>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Cursor rotating both ticket distribution and steal-scan start
    /// points, so neither favours low-numbered workers.
    rr: AtomicUsize,
    /// Pool-lifetime aggregates behind [`Pool::steal_stats`].
    steals: AtomicU64,
    stolen_shares: AtomicU64,
    /// Pool-lifetime aggregates behind [`Pool::round_counts`].
    solo_rounds: AtomicU64,
    shared_rounds: AtomicU64,
}

impl Sched {
    /// Pushes tickets `tickets` of `round` and wakes the team. A
    /// pool-worker submitter (hypothetical — nested calls run inline, so
    /// workers do not submit today) pushes onto its own deque; non-pool
    /// submitters distribute round-robin across the worker deques,
    /// overflowing to the injector.
    fn push_tickets(&self, round: &Arc<Round>, tickets: std::ops::Range<usize>) {
        let me = WORKER_ID.with(|w| w.get());
        for ticket in tickets {
            let task = Task {
                round: Arc::clone(round),
                ticket,
            };
            let target = match me {
                Some(w) => w,
                None => self.rr.fetch_add(1, AtomicOrdering::Relaxed) % self.deques.len(),
            };
            let mut dq = lock(&self.deques[target]);
            if me.is_some() || dq.len() < DEQUE_CAP {
                dq.push_back(task);
            } else {
                drop(dq);
                lock(&self.injector).push_back(task);
            }
        }
        self.wake_all();
    }

    /// Bumps the epoch and wakes every parked worker. Spinning workers
    /// see the bump on their next poll; a parker either re-checked the
    /// epoch under `park` before this takes it (and is waiting by the
    /// time the notify lands) or after (and reads the new value).
    fn wake_all(&self) {
        self.epoch.fetch_add(1, AtomicOrdering::Release);
        let _park = lock(&self.park);
        self.available.notify_all();
    }

    /// Takes the next ticket for participant `me` (`None` for a
    /// non-worker caller): own deque LIFO, then the injector, then a
    /// rotating FIFO scan of the other deques. The flag reports whether
    /// the pop was a steal (a sibling's deque).
    fn grab(&self, me: Option<usize>) -> Option<(Task, bool)> {
        if let Some(w) = me {
            if let Some(task) = lock(&self.deques[w]).pop_back() {
                return Some((task, false));
            }
        }
        if let Some(task) = lock(&self.injector).pop_front() {
            return Some((task, false));
        }
        let n = self.deques.len();
        let start = self.rr.fetch_add(1, AtomicOrdering::Relaxed) % n;
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(task) = lock(&self.deques[victim]).pop_front() {
                return Some((task, true));
            }
        }
        None
    }

    /// Runs one ticket's claim loop, attributing productive steals.
    /// Worker-side panic payloads are dropped here — the round's flag is
    /// already set, and the submitting caller re-raises.
    fn execute(&self, task: Task, stolen: bool, stop: Option<&Round>) {
        let (executed, payload) = participate(&task.round, task.ticket, stolen, stop);
        drop(payload);
        if stolen && executed > 0 {
            self.steals.fetch_add(1, AtomicOrdering::Relaxed);
            self.stolen_shares
                .fetch_add(executed as u64, AtomicOrdering::Relaxed);
        }
    }
}

fn worker_loop(w: usize, sched: &Sched) {
    WORKER_ID.with(|id| id.set(Some(w)));
    let idle = |seen: u64| {
        sched.epoch.load(AtomicOrdering::Acquire) == seen
            && !sched.shutdown.load(AtomicOrdering::Acquire)
    };
    loop {
        // Read before the scan: a push the scan misses bumps the epoch
        // past `seen`, which ends the spin or the park below.
        let seen = sched.epoch.load(AtomicOrdering::Acquire);
        if sched.shutdown.load(AtomicOrdering::Acquire) {
            return;
        }
        if let Some((task, stolen)) = sched.grab(Some(w)) {
            sched.execute(task, stolen, None);
            continue;
        }
        if spin_until(|| !idle(seen)) {
            continue;
        }
        let mut park = lock(&sched.park);
        while idle(seen) {
            park = sched
                .available
                .wait(park)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Cumulative work-stealing counters of one pool (see
/// [`Pool::steal_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealStats {
    /// Productive steals: tickets taken from a sibling worker's deque
    /// that went on to execute at least one share.
    pub steals: u64,
    /// Logical shares executed through stolen tickets.
    pub stolen_shares: u64,
}

/// Cumulative round counters of one pool (see [`Pool::round_counts`]).
/// Each counts rounds that pushed at least one ticket beyond the caller's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundCounts {
    /// Rounds whose every share ran on the caller: no other participant
    /// claimed a share before the caller had claimed them all.
    pub solo: u64,
    /// Rounds in which another participant ran at least one share.
    pub shared: u64,
}

/// Round-level numbers [`Pool::submit_round`] hands back to
/// [`Pool::run_indexed`]. The queue wait is not carried here — `submit_round`'s
/// `on_ready` callback receives it before any share executes.
struct RoundStats {
    steals: u64,
    stolen_shares: u64,
}

/// A persistent team of worker threads executing fork-join rounds.
///
/// # Examples
/// ```
/// use mergepath::executor::Pool;
/// use mergepath::telemetry::NoRecorder;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = Pool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run_indexed(4, 4, &NoRecorder, &|share| {
///     assert!(share < 4);
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct Pool {
    sched: Arc<Sched>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

thread_local! {
    /// True while this thread is executing a share of a pool round. Used
    /// to detect nested rounds, which execute inline (see module docs).
    static IN_POOL_ROUND: Cell<bool> = const { Cell::new(false) };
    /// The worker-deque index owned by this thread, if it is a pool
    /// worker.
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// True while the current thread is executing a share of a pool round
/// (on any pool, whether as a pool worker, a stealing helper, or a
/// participating caller). The executor itself uses the same flag to run
/// nested fork-join calls inline; tests use it to witness that work they
/// observe really ran inside a round.
pub fn in_pool_round() -> bool {
    IN_POOL_ROUND.with(|f| f.get())
}

/// Sets [`IN_POOL_ROUND`] for the current scope, restoring the previous
/// value on drop (including during unwinding, so a panicking share does
/// not leave the flag stuck).
struct RoundMark {
    prev: bool,
}

impl RoundMark {
    fn enter() -> Self {
        let prev = IN_POOL_ROUND.with(|f| f.replace(true));
        RoundMark { prev }
    }
}

impl Drop for RoundMark {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL_ROUND.with(|f| f.set(prev));
    }
}

/// Hooks for deterministic virtual execution of pool rounds (see the
/// module-level *Virtual execution* section).
///
/// While an observer is installed on a thread, every fork-join entry point
/// called from that thread runs its shares inline in the order
/// [`ShareObserver::round_begin`] returns, bracketing each with
/// `share_begin` / `share_end`, and the recording accessors report every
/// output write and input read range. All callbacks take `&self` because
/// virtual rounds are single-threaded by construction; implementations
/// are free to use `Cell`/`RefCell` internally.
pub trait ShareObserver {
    /// A fork-join round with `shares` logical shares is starting.
    /// Returns the order in which to execute them — any permutation of
    /// `0..shares`.
    fn round_begin(&self, shares: usize) -> Vec<usize>;
    /// The round finished. Also called while unwinding from a panicking
    /// share, so observer state stays consistent for the panic-safety
    /// tests.
    fn round_end(&self);
    /// Share `share` is about to execute on this thread.
    fn share_begin(&self, share: usize);
    /// Share `share` finished (also called during unwinding).
    fn share_end(&self, share: usize);
    /// `elems` elements covering `bytes` bytes at address `addr` are
    /// being written by the currently executing share (or by the
    /// orchestrating kernel itself, between rounds).
    fn write_range(&self, addr: usize, bytes: usize, elems: usize);
    /// `elems` elements covering `bytes` bytes at address `addr` are
    /// being read by the currently executing share.
    fn read_range(&self, addr: usize, bytes: usize, elems: usize);
}

thread_local! {
    /// The observer driving virtual execution on this thread, if any.
    static OBSERVER: RefCell<Option<Rc<dyn ShareObserver>>> = const { RefCell::new(None) };
}

/// Uninstalls the observer installed by [`install_observer`] when dropped,
/// restoring whatever was installed before (usually nothing).
pub struct ObserverGuard {
    prev: Option<Rc<dyn ShareObserver>>,
}

impl Drop for ObserverGuard {
    fn drop(&mut self) {
        OBSERVER.with(|o| *o.borrow_mut() = self.prev.take());
    }
}

/// Installs `obs` as the calling thread's executor observer for the
/// lifetime of the returned guard. Every pool entry point reached from
/// this thread while the guard lives executes virtually (see the
/// module-level *Virtual execution* section).
pub fn install_observer(obs: Rc<dyn ShareObserver>) -> ObserverGuard {
    let prev = OBSERVER.with(|o| o.borrow_mut().replace(obs));
    ObserverGuard { prev }
}

/// The calling thread's current observer, if one is installed.
fn current_observer() -> Option<Rc<dyn ShareObserver>> {
    OBSERVER.with(|o| o.borrow().clone())
}

/// Reports a write of all of `dst`'s elements to the current thread's
/// observer, if any. Kernels call this at orchestrator-level write sites
/// that do not go through [`SendPtr`] — sequential small-input fallbacks
/// and final copy-backs — so the checker's coverage accounting sees every
/// output byte. Without an observer this is a single thread-local read.
pub fn note_write_range<T>(dst: &[T]) {
    if let Some(obs) = current_observer() {
        obs.write_range(dst.as_ptr() as usize, std::mem::size_of_val(dst), dst.len());
    }
}

/// Reports a read of all of `src`'s elements to the current thread's
/// observer, if any. Kernels call this with each input range a share
/// consumes, letting the checker verify reads never race another share's
/// writes within a round (the CREW discipline).
pub fn note_read_range<T>(src: &[T]) {
    if let Some(obs) = current_observer() {
        obs.read_range(src.as_ptr() as usize, std::mem::size_of_val(src), src.len());
    }
}

/// Executes one round of `shares` inline on the calling thread, in the
/// observer-chosen permutation order. Drop guards fire `share_end` /
/// `round_end` even when a share panics, so the observer's log stays
/// consistent across unwinding.
fn run_virtual(obs: &dyn ShareObserver, shares: usize, job: &(dyn Fn(usize) + Sync)) {
    struct RoundGuard<'a>(&'a dyn ShareObserver);
    impl Drop for RoundGuard<'_> {
        fn drop(&mut self) {
            self.0.round_end();
        }
    }
    struct ShareGuard<'a>(&'a dyn ShareObserver, usize);
    impl Drop for ShareGuard<'_> {
        fn drop(&mut self) {
            self.0.share_end(self.1);
        }
    }

    let order = obs.round_begin(shares);
    assert_eq!(
        order.len(),
        shares,
        "observer schedule must cover every share exactly once"
    );
    let _round = RoundGuard(obs);
    for &share in &order {
        assert!(share < shares, "observer schedule share out of range");
        obs.share_begin(share);
        let _share = ShareGuard(obs, share);
        job(share);
    }
}

/// The process-wide pool shared by every parallel kernel in this crate.
///
/// Created lazily on first use with [`default_threads`] participants and
/// never dropped. Because kernels pass their *logical* share count to
/// [`Pool::run_indexed`], the size of this pool affects only scheduling,
/// never results.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// The participant count used for the global pool: `MERGEPATH_THREADS`
/// when set to a positive integer, otherwise
/// `std::thread::available_parallelism()` (or 1 if that is unavailable).
///
/// The environment is consulted **once**; the result is cached for the
/// rest of the process (see the module-level *Thread-count freeze* note).
/// Mutating `MERGEPATH_THREADS` after the first call is therefore
/// ineffective — by design, since the global pool's team size is frozen at
/// first use anyway.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| threads_from_env(std::env::var("MERGEPATH_THREADS").ok().as_deref()))
}

/// Upper bound accepted from a `MERGEPATH_THREADS` override. A pool is a
/// team of real OS threads, so an absurd request (say, `10000000`) is a
/// configuration error: rather than attempting — and likely failing — to
/// spawn that many threads, overrides are clamped here.
pub const MAX_THREADS: usize = 1024;

/// Parses a `MERGEPATH_THREADS`-style override. `None`, empty, zero, or
/// unparsable values (non-numeric, negative, overflowing) fall back to the
/// machine's available parallelism; values above [`MAX_THREADS`] are
/// clamped to it. Factored out of [`default_threads`] so the policy is
/// testable without mutating the process environment.
pub fn threads_from_env(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map(|n| n.min(MAX_THREADS))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The claim-chunk size for a round run by `tickets` participants:
/// `ceil(shares / (tickets * 4))`, floored at 1.
fn indexed_chunk(shares: usize, tickets: usize) -> usize {
    shares.div_ceil(tickets.max(1) * 4).max(1)
}

impl Pool {
    /// Spawns a pool executing jobs with `threads` participants (the
    /// calling thread plus `threads - 1` workers).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be at least 1");
        let sched = Arc::new(Sched {
            deques: (1..threads)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            injector: Mutex::new(VecDeque::new()),
            epoch: AtomicU64::new(0),
            park: Mutex::new(()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            stolen_shares: AtomicU64::new(0),
            solo_rounds: AtomicU64::new(0),
            shared_rounds: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|tid| {
                let sched = Arc::clone(&sched);
                std::thread::Builder::new()
                    .name(format!("mergepath-worker-{tid}"))
                    .spawn(move || worker_loop(tid - 1, &sched))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            sched,
            workers,
            threads,
        }
    }

    /// Number of participants, a round's caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative steal counters since the pool was created. Monotonic;
    /// callers diff snapshots to attribute steals to a workload window
    /// (the serve bench does exactly that for its per-cell columns).
    pub fn steal_stats(&self) -> StealStats {
        StealStats {
            steals: self.sched.steals.load(AtomicOrdering::Relaxed),
            stolen_shares: self.sched.stolen_shares.load(AtomicOrdering::Relaxed),
        }
    }

    /// Cumulative solo and shared round counts since the pool was
    /// created, counted with no recorder attached. Monotonic, like
    /// [`Pool::steal_stats`]: diff two snapshots to get a window's solo
    /// fraction. Rounds that never reach the team (one participant, one
    /// share, nested or virtual) count in neither.
    pub fn round_counts(&self) -> RoundCounts {
        RoundCounts {
            solo: self.sched.solo_rounds.load(AtomicOrdering::Relaxed),
            shared: self.sched.shared_rounds.load(AtomicOrdering::Relaxed),
        }
    }

    /// The scheduler engine: publishes a round descriptor, distributes
    /// tickets, participates, helps siblings, and blocks on the round
    /// latch. `on_ready` runs after ticket distribution with the measured
    /// submit-side queue wait — [`Pool::run_indexed`] uses it to emit
    /// `round_wait_ns` then `round_begin` before any share executes on
    /// this thread.
    ///
    /// `tickets` is the round's participant count, the caller included:
    /// at least 2 and at most `min(threads, shares)`. Caller must have
    /// ruled out virtual, nested, single-participant, and degenerate
    /// (`shares < 2`) execution. Every round counts once in
    /// [`Pool::round_counts`]: solo if the caller ran all of its shares.
    ///
    /// # Panics
    /// Re-raises the caller's own share panic, or panics with
    /// `"a pool worker's share panicked"` when only foreign shares
    /// panicked — after every share of the round has executed, so the
    /// scheduler is left fully reusable.
    fn submit_round<F: FnOnce(u64)>(
        &self,
        shares: usize,
        tickets: usize,
        job: &(dyn Fn(usize, usize) + Sync),
        on_ready: F,
    ) -> RoundStats {
        debug_assert!(tickets > 1 && tickets <= self.threads.min(shares));
        let queued = now_ns();
        // SAFETY: we erase the lifetime of `job`. Every dereference of the
        // stored pointer is gated on a successful share claim, which
        // proves this function has not yet returned (see `participate`);
        // the reference therefore outlives every dereference.
        let erased: *const (dyn Fn(usize, usize) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, usize) + Sync),
                *const (dyn Fn(usize, usize) + Sync + 'static),
            >(job as *const _)
        };
        let round = Arc::new(Round {
            job: JobPtr(erased),
            shares,
            chunk: indexed_chunk(shares, tickets),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            latch: Mutex::new(()),
            done_cv: Condvar::new(),
            steals: AtomicU64::new(0),
            stolen_shares: AtomicU64::new(0),
        });
        self.sched.push_tickets(&round, 1..tickets);
        // The queue wait is the submit-side delay before this thread's
        // first share — round setup and ticket distribution — not the
        // round duration.
        on_ready(now_ns().saturating_sub(queued));
        // Participate: the caller is always ticket 0 and never abandons
        // its own round. Once it returns every share is claimed, so the
        // caller ran them all exactly when no other participant ran one.
        let (executed, own) = participate(&round, 0, false, None);
        let rounds = if executed == shares {
            &self.sched.solo_rounds
        } else {
            &self.sched.shared_rounds
        };
        rounds.fetch_add(1, AtomicOrdering::Relaxed);
        // Help siblings while our latch is open: whatever rounds are in
        // flight get an extra participant instead of a blocked thread.
        // Bounded by one foreign chunk past our own round's completion.
        while !round.is_done() {
            match self.sched.grab(WORKER_ID.with(|w| w.get())) {
                Some((task, stolen)) => self.sched.execute(task, stolen, Some(&round)),
                None => break,
            }
        }
        round.wait_done();
        let stats = RoundStats {
            steals: round.steals.load(AtomicOrdering::Relaxed),
            stolen_shares: round.stolen_shares.load(AtomicOrdering::Relaxed),
        };
        let panicked = round.panicked.load(AtomicOrdering::Acquire);
        match own {
            Some(payload) => resume_unwind(payload),
            None if panicked => panic!("a pool worker's share panicked"),
            None => {}
        }
        stats
    }

    /// How many threads, the caller included, run a round of `shares`
    /// shares that may use at most `participants` of them: never more than
    /// the pool has, the shares need, or the caller allows (a count of 0
    /// is read as 1, the caller alone).
    fn tickets(&self, shares: usize, participants: usize) -> usize {
        self.threads.min(shares).min(participants).max(1)
    }

    /// Executes `job(i)` once for every `i in 0..shares` on at most
    /// `participants` threads (the caller included), and returns when all
    /// have finished.
    ///
    /// This is the entry point the parallel kernels use. `shares` is the
    /// number of pieces the kernel cut its work into (Algorithm 1's tiles,
    /// a sort's chunks), decoupled from the pool's physical thread count;
    /// `participants` is the kernel's thread count `p`, the bound every
    /// caller of a parallel kernel relies on: a pool wider than `p` never
    /// recruits more than `p` threads into the round. The participants
    /// claim shares dynamically from an atomic counter (in chunks when
    /// oversubscribed — see module docs), so `shares > participants`
    /// lets a participant that draws cheap shares take more of them, and
    /// the surplus workers of a wider pool stay free for other rounds.
    /// With one participant (or a one-thread pool) the shares run in a
    /// loop on the caller. Output is identical regardless of pool size.
    ///
    /// The round reports into `rec`: round begin and end, the
    /// submit-to-first-share wait, one busy window per *logical share*
    /// (tagged with the round-local ticket of the participant that claimed
    /// it, below `participants`), and the round's steals. Under
    /// [`NoRecorder`](mergepath_telemetry::NoRecorder) every report compiles
    /// away and no share is timed.
    ///
    /// Concurrent callers overlap: each call is its own round descriptor
    /// and rounds execute simultaneously on the work-stealing scheduler
    /// (see module docs). If a share itself calls `run_indexed` (on this
    /// or any pool), the nested call executes all of its shares inline on
    /// the calling thread — nested rounds never recruit the team,
    /// mirroring OpenMP with nested parallelism off.
    ///
    /// # Panics
    /// If any share panics, the panic is re-raised on the calling thread
    /// after all shares of the round have finished (the pool itself
    /// stays usable).
    pub fn run_indexed<R: Recorder>(
        &self,
        shares: usize,
        participants: usize,
        rec: &R,
        job: &(dyn Fn(usize) + Sync),
    ) {
        if let Some(obs) = current_observer() {
            run_virtual(&*obs, shares, job);
            return;
        }
        if shares == 0 {
            return;
        }
        if R::ACTIVE {
            let timed = |ticket: usize, share: usize| {
                let start = now_ns();
                job(share);
                rec.share_window(ticket, share, start, now_ns());
            };
            self.run_round(rec, shares, participants, &timed);
        } else {
            self.run_round(rec, shares, participants, &|_ticket, share| job(share));
        }
    }

    /// The round behind [`Pool::run_indexed`]: runs a nested round inline,
    /// a one-ticket round in a loop on the caller, and submits any other
    /// to the scheduler, reporting round begin/end, the submit queue wait
    /// and the round's steal counters into `rec`. `job(ticket, share)`
    /// reports its own share windows.
    ///
    /// These round-level callbacks are the executor's only contribution to
    /// the live observability layer (DESIGN.md §12): when the serving
    /// daemon wraps its recorder in a `RoundGaugeRecorder`
    /// (`mergepath-serve::observe`), every `round_begin`/`round_end` pair
    /// seen here is teed into the `pool_rounds_active` gauge and
    /// `pool_rounds_total` counter of the live registry, the
    /// `round_wait_ns` callback into the `round_queue_wait_ns` histogram,
    /// and the steal counters into `pool_steals_total` /
    /// `pool_stolen_shares_total` — the executor itself stays
    /// metrics-agnostic.
    fn run_round<R: Recorder>(
        &self,
        rec: &R,
        shares: usize,
        participants: usize,
        job: &(dyn Fn(usize, usize) + Sync),
    ) {
        if IN_POOL_ROUND.with(|f| f.get()) {
            rec.round_begin(shares);
            for share in 0..shares {
                job(0, share);
            }
            rec.round_end();
            return;
        }
        let tickets = self.tickets(shares, participants);
        if tickets == 1 {
            rec.round_begin(shares);
            {
                let _mark = RoundMark::enter();
                for share in 0..shares {
                    job(0, share);
                }
            }
            rec.round_end();
            return;
        }
        let stats = self.submit_round(shares, tickets, job, |wait_ns| {
            // The wait must precede `round_begin` on this thread: the
            // timeline recorder attributes a pending wait to the next
            // round begun by the same thread.
            rec.round_wait_ns(wait_ns);
            rec.round_begin(shares);
        });
        rec.round_end();
        if stats.steals > 0 {
            rec.counter_add(0, CounterKind::PoolSteals, stats.steals);
            rec.counter_add(0, CounterKind::PoolStolenShares, stats.stolen_shares);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.sched.shutdown.store(true, AtomicOrdering::Release);
        self.sched.wake_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A `Send + Sync` wrapper for a raw pointer handed to pool workers.
///
/// The parallel kernels partition one output buffer into disjoint ranges
/// and hand each share a base pointer through this wrapper; each share
/// reconstructs its own sub-slice with `from_raw_parts_mut`. Every use
/// site must uphold the contract in the `unsafe impl`s below: shares only
/// touch pairwise-disjoint ranges, and the owning borrow outlives the
/// round (guaranteed by the round latch in [`Pool::run_indexed`]).
pub struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Wraps `ptr` for transfer into pool shares.
    pub fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }

    /// Reconstructs the share-exclusive sub-slice
    /// `offset..offset + len`, reporting the write range to the thread's
    /// executor observer (if any). This is the accessor the parallel
    /// kernels use to claim their output chunk — routing it here is what
    /// lets `mergepath-check` audit every kernel's write-sets without
    /// touching kernel logic.
    ///
    /// # Safety
    /// Same contract as [`std::slice::from_raw_parts_mut`] on
    /// `self.get().add(offset)`: the range must lie within one live
    /// allocation, no other reference may touch it for the produced
    /// lifetime, and the caller chooses `'a` no longer than the owning
    /// borrow (in pool kernels, until the round latch fires).
    pub unsafe fn slice_mut<'a>(&self, offset: usize, len: usize) -> &'a mut [T] {
        // SAFETY: `offset` is in bounds per this function's contract.
        let ptr = unsafe { self.0.add(offset) };
        if let Some(obs) = current_observer() {
            obs.write_range(ptr as usize, len * std::mem::size_of::<T>(), len);
        }
        // SAFETY: forwarded contract — see this function's docs.
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }

    /// Overwrites the element at `offset` with `value` (without dropping
    /// the previous value, like [`std::ptr::write`]), reporting a
    /// one-element write range to the thread's executor observer (if
    /// any). Used for share-exclusive scalar slots such as per-share
    /// statistics cells.
    ///
    /// # Safety
    /// `self.get().add(offset)` must be in bounds, valid for writes,
    /// properly aligned, and exclusive to this share for the round.
    pub unsafe fn write(&self, offset: usize, value: T) {
        // SAFETY: `offset` is in bounds per this function's contract.
        let ptr = unsafe { self.0.add(offset) };
        if let Some(obs) = current_observer() {
            obs.write_range(ptr as usize, std::mem::size_of::<T>(), 1);
        }
        // SAFETY: valid for writes per this function's contract.
        unsafe { ptr.write(value) };
    }
}

// SAFETY: the wrapped pointer is only dereferenced on disjoint ranges, and
// the owning borrow outlives all uses (see call sites).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above; shared access never aliases mutably.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath_telemetry::NoRecorder;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_tid_exactly_once() {
        let pool = Pool::new(4);
        let seen = [(); 4].map(|_| AtomicUsize::new(0));
        pool.run_indexed(4, 4, &NoRecorder, &|tid| {
            seen[tid].fetch_add(1, AtomicOrdering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(AtomicOrdering::Relaxed), 1);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let count = AtomicUsize::new(0);
        pool.run_indexed(1, 1, &NoRecorder, &|tid| {
            assert_eq!(tid, 0);
            count.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(count.load(AtomicOrdering::Relaxed), 1);
    }

    #[test]
    fn many_rounds_reuse_the_team() {
        let pool = Pool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run_indexed(3, 3, &NoRecorder, &|_tid| {
                count.fetch_add(1, AtomicOrdering::Relaxed);
            });
        }
        assert_eq!(count.load(AtomicOrdering::Relaxed), 300);
    }

    #[test]
    fn borrowed_data_is_visible_and_writable() {
        let pool = Pool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let partial = [(); 4].map(|_| AtomicUsize::new(0));
        pool.run_indexed(4, 4, &NoRecorder, &|tid| {
            let chunk = &input[tid * 250..(tid + 1) * 250];
            let s: u64 = chunk.iter().sum();
            partial[tid].store(s as usize, AtomicOrdering::Relaxed);
        });
        let total: usize = partial
            .iter()
            .map(|p| p.load(AtomicOrdering::Relaxed))
            .sum();
        assert_eq!(total, (0..1000u64).sum::<u64>() as usize);
    }

    /// Copies `src` into `dst` on `pool` as `shares` disjoint chunks, each
    /// share writing its own chunk through a [`SendPtr`].
    fn chunked_copy(pool: &Pool, shares: usize, src: &[i64], dst: &mut [i64]) {
        assert_eq!(src.len(), dst.len());
        let n = src.len();
        let base = SendPtr::new(dst.as_mut_ptr());
        pool.run_indexed(shares, shares, &NoRecorder, &|k| {
            let (lo, hi) = (k * n / shares, (k + 1) * n / shares);
            // SAFETY: the `lo..hi` ranges are disjoint across shares and lie
            // within `dst`, whose unique borrow this frame holds until
            // `run_indexed` returns.
            let chunk = unsafe { base.slice_mut(lo, hi - lo) };
            chunk.clone_from_slice(&src[lo..hi]);
        });
    }

    #[test]
    fn disjoint_share_writes_fill_the_output_on_a_reused_pool() {
        let pool = Pool::new(4);
        let src: Vec<i64> = (0..9000).map(|x| x * 3 - 7).collect();
        for shares in [4, 9, 64] {
            let mut out = vec![0i64; src.len()];
            chunked_copy(&pool, shares, &src, &mut out);
            assert_eq!(out, src, "shares={shares}");
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        for _ in 0..10 {
            let pool = Pool::new(5);
            pool.run_indexed(5, 5, &NoRecorder, &|_| {});
            drop(pool);
        }
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_indexed(4, 4, &NoRecorder, &|tid| {
                if tid == 2 {
                    panic!("boom in worker");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool remains usable after the failed round.
        let count = AtomicUsize::new(0);
        pool.run_indexed(4, 4, &NoRecorder, &|_| {
            count.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(count.load(AtomicOrdering::Relaxed), 4);
    }

    #[test]
    fn caller_share_panic_propagates_and_pool_survives() {
        let pool = Pool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_indexed(3, 3, &NoRecorder, &|tid| {
                if tid == 0 {
                    panic!("boom in caller share");
                }
            });
        }));
        assert!(result.is_err());
        let count = AtomicUsize::new(0);
        pool.run_indexed(3, 3, &NoRecorder, &|_| {
            count.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(count.load(AtomicOrdering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn run_indexed_covers_every_share_once() {
        let pool = Pool::new(4);
        // Oversubscribed (shares > threads), exact, undersubscribed, and
        // the 0/1 degenerate counts.
        for shares in [0usize, 1, 2, 4, 7, 64] {
            let seen: Vec<AtomicUsize> = (0..shares).map(|_| AtomicUsize::new(0)).collect();
            pool.run_indexed(shares, shares, &NoRecorder, &|i| {
                seen[i].fetch_add(1, AtomicOrdering::Relaxed);
            });
            for (i, s) in seen.iter().enumerate() {
                assert_eq!(s.load(AtomicOrdering::Relaxed), 1, "share {i} of {shares}");
            }
        }
    }

    #[test]
    fn run_indexed_never_recruits_more_than_its_participants() {
        // A pool wider than the round's participant count: however many
        // shares there are, at most `participants` threads run them, and
        // with one participant they all run on the caller.
        let pool = Pool::new(6);
        for participants in [1usize, 2, 3] {
            let seen = Mutex::new(std::collections::HashSet::new());
            let ran = AtomicUsize::new(0);
            pool.run_indexed(24, participants, &NoRecorder, &|_| {
                seen.lock()
                    .expect("test mutex")
                    .insert(std::thread::current().id());
                std::thread::sleep(Duration::from_millis(1));
                ran.fetch_add(1, AtomicOrdering::Relaxed);
            });
            assert_eq!(ran.load(AtomicOrdering::Relaxed), 24);
            let threads = seen.lock().expect("test mutex").len();
            assert!(
                threads <= participants,
                "{threads} threads ran a round of {participants} participants"
            );
        }
    }

    #[test]
    fn run_indexed_on_single_thread_pool() {
        let pool = Pool::new(1);
        let seen: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(9, 9, &NoRecorder, &|i| {
            seen[i].fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(AtomicOrdering::Relaxed) == 1));
    }

    #[test]
    fn run_indexed_panic_propagates_without_deadlock() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_indexed(16, 16, &NoRecorder, &|i| {
                if i == 11 {
                    panic!("boom in share 11");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool remains usable after the failed round.
        let count = AtomicUsize::new(0);
        pool.run_indexed(8, 8, &NoRecorder, &|_| {
            count.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(count.load(AtomicOrdering::Relaxed), 8);
    }

    #[test]
    fn panicking_round_then_clean_round_reuses_scheduler() {
        // The satellite regression for the old `PoisonError::into_inner`
        // recovery: the work-stealing scheduler holds no lock across job
        // code, so a panicking round must leave it fully reusable — many
        // times over, from several share positions, with the clean
        // rounds' coverage still exact.
        let pool = Pool::new(3);
        for panic_at in [0usize, 1, 5, 7] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_indexed(8, 8, &NoRecorder, &|i| {
                    if i == panic_at {
                        panic!("boom in share {i}");
                    }
                });
            }));
            assert!(result.is_err(), "panic at {panic_at} must propagate");
            let seen: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
            pool.run_indexed(6, 6, &NoRecorder, &|i| {
                seen[i].fetch_add(1, AtomicOrdering::Relaxed);
            });
            assert!(
                seen.iter().all(|s| s.load(AtomicOrdering::Relaxed) == 1),
                "clean round after panic at {panic_at} must cover every share once"
            );
        }
    }

    #[test]
    fn nested_run_executes_inline_and_completes() {
        let pool = Pool::new(4);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        pool.run_indexed(4, 4, &NoRecorder, &|_tid| {
            outer.fetch_add(1, AtomicOrdering::Relaxed);
            // Nested call from inside a share: must not deadlock; every
            // nested share executes (inline, on this thread).
            pool.run_indexed(3, 3, &NoRecorder, &|_i| {
                inner.fetch_add(1, AtomicOrdering::Relaxed);
            });
        });
        assert_eq!(outer.load(AtomicOrdering::Relaxed), 4);
        assert_eq!(inner.load(AtomicOrdering::Relaxed), 4 * 3);
    }

    #[test]
    fn nested_merge_inside_share_is_correct() {
        // A share invoking a full parallel kernel (which itself calls
        // run_indexed on the global pool) must fall back to inline
        // execution and still produce correct output.
        use crate::merge::parallel::parallel_merge_into;
        let pool = Pool::new(3);
        let a: Vec<i64> = (0..500).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..500).map(|x| x * 2 + 1).collect();
        let expect: Vec<i64> = (0..1000).collect();
        let outputs: Vec<Mutex<Vec<i64>>> = (0..3).map(|_| Mutex::new(vec![0i64; 1000])).collect();
        pool.run_indexed(3, 3, &NoRecorder, &|tid| {
            assert!(in_pool_round(), "a share runs inside a round");
            let caller = std::thread::current().id();
            super::global().run_indexed(4, 4, &NoRecorder, &|_| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "nested share ran elsewhere"
                );
            });
            let mut out = outputs[tid].lock().expect("test mutex");
            parallel_merge_into(&a, &b, &mut out, 4);
        });
        for o in &outputs {
            assert_eq!(*o.lock().expect("test mutex"), expect);
        }
    }

    #[test]
    fn concurrent_callers_overlap_and_complete() {
        // Rounds from four caller threads are all in flight on one pool;
        // every share of every round must execute exactly once in total,
        // regardless of how the scheduler interleaves them.
        let pool = Arc::new(Pool::new(3));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        pool.run_indexed(6, 6, &NoRecorder, &|_| {
                            total.fetch_add(1, AtomicOrdering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread panicked");
        }
        assert_eq!(total.load(AtomicOrdering::Relaxed), 4 * 25 * 6);
    }

    #[test]
    fn chunked_claiming_still_covers_many_tiny_shares() {
        // 1000 shares on 4 threads → chunk = ceil(1000/16) = 63; coverage
        // must stay exact and the chunk arithmetic must not skip or
        // double-run the tail.
        let pool = Pool::new(4);
        let shares = 1000usize;
        assert_eq!(indexed_chunk(shares, 4), 63);
        let seen: Vec<AtomicUsize> = (0..shares).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(shares, shares, &NoRecorder, &|i| {
            seen[i].fetch_add(1, AtomicOrdering::Relaxed);
        });
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(AtomicOrdering::Relaxed), 1, "share {i}");
        }
        // Degenerate chunk arithmetic.
        assert_eq!(indexed_chunk(2, 4), 1);
        assert_eq!(indexed_chunk(16, 4), 1);
        assert_eq!(indexed_chunk(17, 4), 2);
        assert_eq!(indexed_chunk(7, 1), 2);
    }

    #[test]
    fn steal_stats_are_monotonic_and_start_at_zero() {
        let pool = Pool::new(4);
        let s0 = pool.steal_stats();
        assert_eq!(s0, StealStats::default());
        let count = AtomicUsize::new(0);
        for _ in 0..20 {
            pool.run_indexed(8, 8, &NoRecorder, &|_| {
                count.fetch_add(1, AtomicOrdering::Relaxed);
            });
        }
        let s1 = pool.steal_stats();
        assert!(s1.steals >= s0.steals);
        assert!(s1.stolen_shares >= s1.steals, "a steal executes ≥ 1 share");
        assert_eq!(count.load(AtomicOrdering::Relaxed), 20 * 8);
    }

    #[test]
    fn global_pool_is_shared_and_usable() {
        let p1 = super::global() as *const Pool;
        let p2 = super::global() as *const Pool;
        assert_eq!(p1, p2, "global() must return one process-wide pool");
        assert!(super::global().threads() >= 1);
        let count = AtomicUsize::new(0);
        super::global().run_indexed(5, 5, &NoRecorder, &|_| {
            count.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(count.load(AtomicOrdering::Relaxed), 5);
    }

    #[test]
    fn threads_from_env_parsing() {
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 8 ")), 8);
        let fallback = threads_from_env(None);
        assert!(fallback >= 1);
        // Invalid values fall back to available parallelism.
        assert_eq!(threads_from_env(Some("0")), fallback);
        assert_eq!(threads_from_env(Some("")), fallback);
        assert_eq!(threads_from_env(Some("lots")), fallback);
        assert_eq!(threads_from_env(Some("-2")), fallback);
        assert_eq!(threads_from_env(Some("3.5")), fallback);
        // Absurdly large values are clamped, not attempted; values that
        // overflow usize fail to parse and fall back.
        assert_eq!(threads_from_env(Some("1024")), MAX_THREADS);
        assert_eq!(threads_from_env(Some("1025")), MAX_THREADS);
        assert_eq!(threads_from_env(Some("10000000")), MAX_THREADS);
        assert_eq!(
            threads_from_env(Some("340282366920938463463374607431768211456")),
            fallback
        );
    }

    /// A minimal observer for the virtual-execution unit tests: runs
    /// shares in reverse order and logs every callback.
    struct ReverseObserver {
        events: RefCell<Vec<String>>,
    }

    impl ShareObserver for ReverseObserver {
        fn round_begin(&self, shares: usize) -> Vec<usize> {
            self.events.borrow_mut().push(format!("round({shares})"));
            (0..shares).rev().collect()
        }
        fn round_end(&self) {
            self.events.borrow_mut().push("end".into());
        }
        fn share_begin(&self, share: usize) {
            self.events.borrow_mut().push(format!("+{share}"));
        }
        fn share_end(&self, share: usize) {
            self.events.borrow_mut().push(format!("-{share}"));
        }
        fn write_range(&self, _addr: usize, bytes: usize, elems: usize) {
            self.events.borrow_mut().push(format!("w{bytes}b{elems}e"));
        }
        fn read_range(&self, _addr: usize, _bytes: usize, _elems: usize) {}
    }

    #[test]
    fn observer_runs_shares_inline_in_its_order() {
        let obs = Rc::new(ReverseObserver {
            events: RefCell::new(Vec::new()),
        });
        let order = Mutex::new(Vec::new());
        {
            let _guard = install_observer(obs.clone());
            let caller = std::thread::current().id();
            global().run_indexed(3, 3, &NoRecorder, &|i| {
                assert_eq!(std::thread::current().id(), caller, "must run inline");
                order.lock().expect("test mutex").push(i);
            });
        }
        assert_eq!(*order.lock().expect("test mutex"), vec![2, 1, 0]);
        assert_eq!(
            *obs.events.borrow(),
            vec!["round(3)", "+2", "-2", "+1", "-1", "+0", "-0", "end"]
        );
        // Guard dropped: the pool is back to real execution.
        let count = AtomicUsize::new(0);
        global().run_indexed(3, 3, &NoRecorder, &|_| {
            count.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(count.load(AtomicOrdering::Relaxed), 3);
    }

    #[test]
    fn observer_sees_sendptr_writes() {
        let obs = Rc::new(ReverseObserver {
            events: RefCell::new(Vec::new()),
        });
        let mut out = [0u64; 8];
        {
            let _guard = install_observer(obs.clone());
            let base = SendPtr::new(out.as_mut_ptr());
            global().run_indexed(2, 2, &NoRecorder, &|i| {
                // SAFETY: shares touch disjoint halves of `out`, which
                // outlives the (inline, virtual) round.
                let half = unsafe { base.slice_mut(i * 4, 4) };
                half.fill(i as u64 + 1);
            });
        }
        assert_eq!(out, [1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(
            *obs.events.borrow(),
            vec!["round(2)", "+1", "w32b4e", "-1", "+0", "w32b4e", "-0", "end"]
        );
    }

    #[test]
    fn observer_panic_unwinds_through_guards() {
        let obs = Rc::new(ReverseObserver {
            events: RefCell::new(Vec::new()),
        });
        let guard = install_observer(obs.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            global().run_indexed(2, 2, &NoRecorder, &|i| {
                if i == 0 {
                    panic!("faulting share");
                }
            });
        }));
        assert!(result.is_err(), "the share's panic must propagate");
        // Reverse order ran share 1 first; share 0 panicked, but the drop
        // guards still closed the share and the round.
        assert_eq!(
            *obs.events.borrow(),
            vec!["round(2)", "+1", "-1", "+0", "-0", "end"]
        );
        drop(guard);
    }

    #[test]
    fn stress_alternating_jobs() {
        let pool = Pool::new(4);
        let src: Vec<i64> = (0..512).collect();
        for _ in 0..50 {
            let mut out = vec![0i64; 512];
            chunked_copy(&pool, 4, &src, &mut out);
            assert_eq!(out, src);
            let touched = AtomicUsize::new(0);
            pool.run_indexed(4, 4, &NoRecorder, &|_| {
                touched.fetch_add(1, AtomicOrdering::Relaxed);
            });
            assert_eq!(touched.load(AtomicOrdering::Relaxed), 4);
        }
    }
}
