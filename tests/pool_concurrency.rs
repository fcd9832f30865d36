//! Round overlap on the executor's one ticket queue, witnessed through
//! the live serving daemon.
//!
//! The old executor serialized pool rounds: one round owned the whole
//! pool, so a narrow request's two-share round queued behind a wide
//! request's round even when most workers were idle. The scheduler keeps
//! multiple rounds in flight, their tickets on one FIFO queue. These
//! tests pin that down deterministically:
//!
//! * a wide request whose comparisons block *inside its pool round* until
//!   several narrow requests have completed end-to-end — the test can
//!   only terminate if narrow rounds execute while the wide round is
//!   provably mid-execution;
//! * a drop-accounting sweep across panicking multi-share rounds (shares
//!   executed by the caller, by pool workers, and by callers helping
//!   other rounds alike), proving the panic path leaks nothing and leaves the shared
//!   scheduler reusable for clean rounds afterwards;
//! * the wait policy (spin for `executor::SPIN_WINDOW`, then sleep): a
//!   worker parked after an idle gap and a caller blocked on its round
//!   latch must both be woken, and concurrent submitters whose gaps fall
//!   on either side of the window must all complete. Each of these runs
//!   under a watchdog, so a lost wake-up fails the test instead of
//!   hanging it. (That idle threads stop spinning at all is measured by
//!   `tests/pool_idle_cpu.rs`, a binary of its own.)
//! * the pool's own round counts: a round whose other participant is
//!   held inside another round counts solo and overlapped, and a round a
//!   worker provably joined, run back to back with the others, counts
//!   shared and not overlapped;
//! * a recorder that panics as a round begins unwinds its caller only
//!   after every share of that round has run.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering as AtOrd};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex, Once, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mergepath_suite::mergepath::executor;
use mergepath_suite::mergepath::telemetry::{NoRecorder, Recorder};
use mergepath_suite::serve::{Outcome, QueuePolicy, Request, ServeConfig, Server};

/// Escape hatch for every spin loop in this file: generous enough for a
/// loaded single-core CI runner, short enough that a genuine deadlock
/// (rounds serializing again) fails the test instead of hanging the run.
const SPIN_ESCAPE: Duration = Duration::from_secs(120);

/// The global pool, forced to 4 workers. This integration test is its own
/// process, so the env var is set before anything touches the pool; the
/// `Once` keeps concurrent `#[test]` threads from racing the write.
fn pool() -> &'static executor::Pool {
    static FORCE: Once = Once::new();
    FORCE.call_once(|| std::env::set_var("MERGEPATH_THREADS", "4"));
    executor::global()
}

// ---------------------------------------------------------------------------
// Participant bound: tiled rounds on a pool wider than their thread count
// ---------------------------------------------------------------------------

/// Algorithm 1 and the batch merge cut 2^15 + 2^15 outputs into more tiles
/// than the 4-thread pool has threads, but asked for 2 threads they must
/// run on 2. Each thread's first comparison holds it for a while, so every
/// thread the round recruits has time to claim a tile before the others
/// run out.
#[test]
fn tiled_rounds_on_a_wider_pool_run_on_at_most_their_threads() {
    use mergepath_suite::mergepath::merge::batch::batch_merge_into_by;
    use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
    use mergepath_suite::mergepath::partition::tile_count;
    use std::collections::HashSet;

    let threads = 2;
    assert!(pool().threads() > threads, "the pool must be wider");
    let side = 1u32 << 15;
    let a: Vec<u32> = (0..side).map(|x| 2 * x).collect();
    let b: Vec<u32> = (0..side).map(|x| 2 * x + 1).collect();
    let n = a.len() + b.len();
    assert!(
        tile_count(n, threads) > pool().threads(),
        "more tiles than pool threads"
    );
    let seen = Mutex::new(HashSet::new());
    let cmp = |x: &u32, y: &u32| {
        let first = seen
            .lock()
            .expect("test mutex")
            .insert(std::thread::current().id());
        if first {
            std::thread::sleep(Duration::from_millis(20));
        }
        x.cmp(y)
    };
    let used = || std::mem::take(&mut *seen.lock().expect("test mutex")).len();
    for round in 0..3 {
        let mut out = vec![0u32; n];
        parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &NoRecorder);
        assert!(
            out.iter().copied().eq(0..2 * side),
            "parallel round {round}"
        );
        let ran = used();
        assert!(
            ran <= threads,
            "parallel round {round} ran on {ran} threads"
        );
        out.fill(0);
        batch_merge_into_by(&[(&a[..], &b[..])], &mut out, threads, &cmp, &NoRecorder);
        assert!(out.iter().copied().eq(0..2 * side), "batch round {round}");
        let ran = used();
        assert!(ran <= threads, "batch round {round} ran on {ran} threads");
    }
}

// ---------------------------------------------------------------------------
// Overlap witness: narrow requests complete while a wide round executes
// ---------------------------------------------------------------------------

/// How many narrow requests must complete end-to-end while the wide
/// request's round is held mid-execution.
const NARROWS: usize = 3;
/// Set by the first wide comparison that runs inside a pool round.
static WIDE_IN_ROUND: AtomicBool = AtomicBool::new(false);
/// Narrow requests observed complete (incremented by the test thread
/// after each `wait()` returns).
static NARROW_DONE: AtomicUsize = AtomicUsize::new(0);
/// The serving thread that runs the wide request (id 0), recorded by
/// [`WideServer`] as that thread begins the wide round.
static WIDE_SERVER: OnceLock<ThreadId> = OnceLock::new();

/// Recorder that names the wide request's own serving thread. Only the
/// wide request runs a 4-share round (the narrow requests, in flight
/// beside it, get 2 shares each), and a round begins on its caller before
/// the caller runs any share of it.
struct WideServer;

impl Recorder for WideServer {
    fn round_begin(&self, shares: usize) {
        if shares == 4 {
            let _ = WIDE_SERVER.set(std::thread::current().id());
        }
    }
}

/// A key whose comparisons, when the element is wide-marked AND the
/// comparison runs inside a pool round (`executor::in_pool_round()`) on a
/// pool worker or on the wide request's own serving thread, block until
/// all [`NARROWS`] narrow requests have completed. The wide request thus
/// reliably reaches its round and blocks *there* — the configuration the
/// old serialized executor turned into a deadlock. Any other thread that
/// picks up a wide share runs it ungated: a caller waiting on its own
/// round helps foreign rounds, so a narrow request's serving thread may
/// take a wide share that a busy worker left unclaimed, and gating it
/// would hold back the very narrow response the wide gate waits for.
#[derive(Debug, Clone, Default)]
struct WideKey {
    key: u32,
    wide: bool,
}

impl WideKey {
    fn hold_until_narrows_finish(&self, other: &Self) {
        if !(self.wide || other.wide) || !executor::in_pool_round() {
            return;
        }
        let me = std::thread::current();
        let pool_worker = me
            .name()
            .is_some_and(|name| name.starts_with("mergepath-worker-"));
        if !pool_worker && WIDE_SERVER.get() != Some(&me.id()) {
            return;
        }
        WIDE_IN_ROUND.store(true, AtOrd::SeqCst);
        let t0 = Instant::now();
        while NARROW_DONE.load(AtOrd::SeqCst) < NARROWS {
            assert!(
                t0.elapsed() < SPIN_ESCAPE,
                "narrow requests starved behind the wide round: rounds are \
                 serializing instead of overlapping"
            );
            std::thread::yield_now();
        }
    }
}

impl PartialEq for WideKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for WideKey {}
impl PartialOrd for WideKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WideKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.hold_until_narrows_finish(other);
        self.key.cmp(&other.key)
    }
}

/// The tentpole's behavioural contract, end to end: a wide request is
/// provably mid-round (its gated comparisons have set [`WIDE_IN_ROUND`]
/// and are spinning inside pool shares) while [`NARROWS`] narrow requests
/// are submitted, served, and verified to completion. The wide round's
/// shares occupy the submitting server worker *and* pool workers, so the
/// narrow rounds can only finish if the scheduler runs rounds
/// concurrently — under the old round-serializing pool this test
/// deadlocks (and the spin escape converts that into a failure).
#[test]
fn narrow_requests_complete_while_a_wide_round_is_executing() {
    assert_eq!(pool().threads(), 4, "test needs a real multi-worker pool");
    let server: Server<WideKey, WideServer> = Server::start(
        ServeConfig {
            queue_capacity: 32,
            max_inflight: 2,
            // Alone in flight, the wide request gets a 4-share round; the
            // narrow requests behind it get 2-share rounds — both sides
            // genuinely go through the pool.
            worker_budget: 4,
            policy: QueuePolicy::Edf,
            // No coalescing: the wide and narrow requests must be
            // distinct rounds for overlap to mean anything.
            batch_max_items: 0,
        },
        WideServer,
    );

    // Wide input: every element is wide-marked, so whichever shares of
    // the round execute first block on the gate.
    let wide_len = 2048u32;
    let wide_a: Vec<WideKey> = (0..wide_len)
        .map(|i| WideKey {
            key: 2 * i,
            wide: true,
        })
        .collect();
    let wide_b: Vec<WideKey> = (0..wide_len)
        .map(|i| WideKey {
            key: 2 * i + 1,
            wide: true,
        })
        .collect();
    let wide = server
        .submit(Request::merge(0, wide_a, wide_b))
        .expect("admitted");

    // Wait until a wide share is provably executing inside a pool round.
    let t0 = Instant::now();
    while !WIDE_IN_ROUND.load(AtOrd::SeqCst) {
        assert!(
            t0.elapsed() < SPIN_ESCAPE,
            "the wide request never reached a pool round"
        );
        std::thread::yield_now();
    }

    // Now drive narrow requests through the daemon, one at a time, each
    // verified to completion while the wide round is still spinning.
    for i in 0..NARROWS as u64 {
        let a: Vec<WideKey> = (0..64u32)
            .map(|k| WideKey {
                key: 2 * k,
                wide: false,
            })
            .collect();
        let b: Vec<WideKey> = (0..64u32)
            .map(|k| WideKey {
                key: 2 * k + 1,
                wide: false,
            })
            .collect();
        let h = server
            .submit(Request::merge(1 + i, a, b))
            .expect("admitted");
        match h.wait() {
            Outcome::Completed { output, .. } => {
                let keys: Vec<u32> = output.iter().map(|w| w.key).collect();
                let want: Vec<u32> = (0..128).collect();
                assert_eq!(keys, want, "narrow merge {i} diverged");
                assert!(
                    WIDE_IN_ROUND.load(AtOrd::SeqCst),
                    "wide round flag lost while narrow {i} completed"
                );
            }
            other => panic!("narrow request {i}: {other:?}"),
        }
        NARROW_DONE.fetch_add(1, AtOrd::SeqCst);
    }

    // The gate has released; the wide round drains and must still be
    // byte-identical to the sequential answer.
    match wide.wait() {
        Outcome::Completed { output, .. } => {
            assert_eq!(output.len(), 2 * wide_len as usize);
            let keys: Vec<u32> = output.iter().map(|w| w.key).collect();
            let want: Vec<u32> = (0..2 * wide_len).collect();
            assert_eq!(keys, want, "wide merge diverged");
        }
        other => panic!("wide request: {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1 + NARROWS as u64);
    assert_eq!(stats.lost(), 0);
}

// ---------------------------------------------------------------------------
// CountedDrop sweep: panicking multi-share rounds leak nothing and leave
// the shared scheduler reusable
// ---------------------------------------------------------------------------

/// Comparing this key value panics, simulating a buggy user comparator.
const POISON: i32 = i32::MIN;

/// Live-count idiom from `tests/serve_invariants.rs`: constructions and
/// clones increment, drops decrement; zero at the end means no element
/// leaked or double-dropped anywhere on the request path.
#[derive(Debug)]
struct CountedDrop {
    key: i32,
    live: Arc<AtomicIsize>,
}

impl CountedDrop {
    fn tracked(key: i32, master: &Arc<AtomicIsize>) -> Self {
        master.fetch_add(1, AtOrd::SeqCst);
        CountedDrop {
            key,
            live: master.clone(),
        }
    }
}

impl Clone for CountedDrop {
    fn clone(&self) -> Self {
        self.live.fetch_add(1, AtOrd::SeqCst);
        CountedDrop {
            key: self.key,
            live: self.live.clone(),
        }
    }
}

impl Drop for CountedDrop {
    fn drop(&mut self) {
        self.live.fetch_sub(1, AtOrd::SeqCst);
    }
}

impl Default for CountedDrop {
    fn default() -> Self {
        // Output-buffer filler accounts against its own private counter.
        CountedDrop {
            key: 0,
            live: Arc::new(AtomicIsize::new(1)),
        }
    }
}

impl PartialEq for CountedDrop {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for CountedDrop {}
impl PartialOrd for CountedDrop {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CountedDrop {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        assert!(
            self.key != POISON && other.key != POISON,
            "comparator poisoned"
        );
        self.key.cmp(&other.key)
    }
}

/// Panicking rounds on the 4-worker pool, through the live daemon, with
/// multi-share rounds whose shares run on the submitting worker, pool
/// workers, and callers helping other rounds alike. The poisons are spread across the
/// input so the panic can land in any share (or in the caller-side
/// partition — every containment path must be equally leak-free). After
/// the poisoned wave, a clean wave of multi-share merges over the same
/// shared scheduler must complete — the satellite-6 regression: a
/// panicking round must leave the scheduler reusable, with nothing
/// leaked, nothing poisoned, no stuck rounds.
#[test]
fn panicking_multi_share_rounds_leak_nothing_and_pool_stays_reusable() {
    assert_eq!(pool().threads(), 4, "test needs a real multi-worker pool");
    let master = Arc::new(AtomicIsize::new(0));
    let tracked_range = |lo: i32, n: i32, stride: i32, poisons: &[i32]| -> Vec<CountedDrop> {
        // Ascending keys with POISON spliced in at the given offsets —
        // POISON sorts first conceptually, but merge preconditions are
        // moot: the first comparison that touches one panics. Poisoned
        // inputs use stride 2 (evens vs odds) so the two sides interleave
        // tightly: every share's serial merge then compares essentially
        // every element, guaranteeing the poison is reached inside a
        // share. (Disjoint ranges would co-rank into comparison-free
        // copy shares and the poison would never be compared.)
        (0..n)
            .map(|i| {
                let key = if poisons.contains(&i) {
                    POISON
                } else {
                    lo + stride * i
                };
                CountedDrop::tracked(key, &master)
            })
            .collect()
    };
    {
        let server: Server<CountedDrop> = Server::start(
            ServeConfig {
                queue_capacity: 32,
                max_inflight: 2,
                worker_budget: 4,
                policy: QueuePolicy::Edf,
                batch_max_items: 0,
            },
            mergepath_suite::serve::NoRecorder,
        );
        // Wave 1: poisoned merges, large enough for multi-share rounds,
        // poisons spread so different shares hit them.
        let mut poisoned = Vec::new();
        for (id, offsets) in [[7i32, 199].as_slice(), &[50, 120, 250], &[160]]
            .iter()
            .enumerate()
        {
            let a = tracked_range(0, 300, 2, offsets);
            let b = tracked_range(1, 300, 2, &[]);
            poisoned.push(
                server
                    .submit(Request::merge(id as u64, a, b))
                    .expect("admitted"),
            );
        }
        for (i, h) in poisoned.into_iter().enumerate() {
            match h.wait() {
                Outcome::Failed => {}
                other => panic!("poisoned merge {i} did not fail cleanly: {other:?}"),
            }
        }
        // Wave 2: clean multi-share merges over the same pool — the
        // panicking rounds above must not have wedged or poisoned it.
        let mut clean = Vec::new();
        for id in 10..14u64 {
            let a = tracked_range(0, 300, 1, &[]);
            let b = tracked_range(150, 300, 1, &[]);
            clean.push((
                id,
                server.submit(Request::merge(id, a, b)).expect("admitted"),
            ));
        }
        for (id, h) in clean {
            match h.wait() {
                Outcome::Completed { output, .. } => {
                    assert_eq!(output.len(), 600);
                    assert!(
                        output.windows(2).all(|w| w[0].key <= w[1].key),
                        "clean merge {id} after panics is unsorted"
                    );
                }
                other => panic!("clean merge {id} after panics: {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.lost(), 0);
    }
    // Server, handles, and outcome cells are gone: every tracked element
    // must have dropped exactly once, panics included.
    assert_eq!(
        master.load(AtOrd::SeqCst),
        0,
        "panicking rounds leaked or double-dropped elements"
    );
}

// ---------------------------------------------------------------------------
// Wait policy: threads that stopped spinning must still be woken
// ---------------------------------------------------------------------------

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within [`SPIN_ESCAPE`]: a lost wake-up becomes a failure, not
/// a hung test run. A panic inside `f` is re-raised here.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(SPIN_ESCAPE) {
        Ok(value) => {
            handle
                .join()
                .expect("the watched thread returned its value");
            value
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => resume_unwind(payload),
            Ok(()) => unreachable!("the watched thread sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: not done within {SPIN_ESCAPE:?}, a wake-up was lost")
        }
    }
}

/// Sleeps far past the executor's spin window, so every idle pool thread
/// has given up spinning and blocked by the time this returns.
fn idle_past_window() {
    std::thread::sleep(executor::SPIN_WINDOW * 400);
}

/// Runs one 2-share round on `pool` whose share on the calling thread
/// cannot finish before the other share has started on another thread;
/// that other share then keeps its thread for `hold`. The round can only
/// complete if a second pool thread joined it, whichever share each side
/// claimed first.
fn handoff_round(pool: &executor::Pool, hold: Duration) {
    let caller = std::thread::current().id();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let started_rx = Mutex::new(started_rx);
    pool.run_indexed(2, 2, &NoRecorder, &|_share| {
        if std::thread::current().id() == caller {
            started_rx
                .lock()
                .expect("only the caller's share receives")
                .recv_timeout(SPIN_ESCAPE)
                .expect("the other share never started: the parked worker was not woken");
        } else {
            started_tx
                .send(())
                .expect("the caller's share is waiting for this");
            std::thread::sleep(hold);
        }
    });
}

/// (a) After an idle gap longer than the window the pool's only worker
/// is parked on the scheduler's condvar; the next round's ticket push
/// must wake it, or the caller's share waits forever.
#[test]
fn a_parked_worker_is_woken_by_the_next_round() {
    let pool = executor::Pool::new(2);
    within("round after an idle gap", move || {
        for _ in 0..3 {
            idle_past_window();
            handoff_round(&pool, Duration::ZERO);
        }
    });
}

/// (b) As (a), but the worker's share outlives the window, so the caller,
/// done with its own share, stops polling its round and blocks on the
/// latch; the worker finishing the last share must wake it.
#[test]
fn a_caller_blocked_on_its_latch_is_woken_by_the_finisher() {
    let pool = executor::Pool::new(2);
    within("round whose last share outlives the window", move || {
        for _ in 0..3 {
            idle_past_window();
            handoff_round(&pool, executor::SPIN_WINDOW * 400);
        }
    });
}

/// (c) Several submitters share one pool, each pausing between rounds for
/// gaps below the window (workers still spinning) and above it (workers
/// parked, callers' latches slept on). Every round must complete with
/// every share executed exactly once.
#[test]
fn concurrent_submitters_with_gaps_around_the_window_all_complete() {
    const SUBMITTERS: usize = 4;
    const ROUNDS: usize = 40;
    let window = executor::SPIN_WINDOW;
    // Short gaps are busy-waited: a sleep that short oversleeps by the
    // kernel's timer slack, which is itself about one window.
    let gaps = [Duration::ZERO, window / 4, window * 2, window * 100];
    let pool = Arc::new(executor::Pool::new(3));
    within("concurrent submitters", move || {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let gap = gaps[(t + round) % gaps.len()];
                        if gap > window {
                            std::thread::sleep(gap);
                        } else {
                            let until = Instant::now() + gap;
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        }
                        let shares = 2 + (t + round) % 5;
                        let seen: Vec<AtomicUsize> =
                            (0..shares).map(|_| AtomicUsize::new(0)).collect();
                        pool.run_indexed(shares, shares, &NoRecorder, &|i| {
                            seen[i].fetch_add(1, AtOrd::Relaxed);
                        });
                        assert!(
                            seen.iter().all(|s| s.load(AtOrd::Relaxed) == 1),
                            "submitter {t} round {round}: a share ran twice or never"
                        );
                    }
                })
            })
            .collect();
        for h in submitters {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Solo rounds: counted by the pool itself, with no recorder
// ---------------------------------------------------------------------------

/// A round of two tickets whose second participant is held elsewhere: the
/// pool's only worker and a second caller both block inside the shares of
/// an earlier round, so the caller of the next round claims and runs both
/// of its shares, and the pool counts that round solo. It pushed its
/// ticket while the earlier round was in flight, so it also counts as
/// overlapped. The earlier round, run by its caller and the worker, counts
/// as shared.
#[test]
fn a_round_no_other_thread_can_join_counts_as_solo() {
    let pool = executor::Pool::new(2);
    within("solo round", move || {
        let before = pool.round_counts();
        let (start, release) = (Barrier::new(3), Barrier::new(3));
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.run_indexed(2, 2, &NoRecorder, &|_| {
                    start.wait();
                    release.wait();
                });
            });
            // Both threads of the pool's team are inside the held round.
            start.wait();
            let caller = std::thread::current().id();
            pool.run_indexed(2, 2, &NoRecorder, &|_| {
                assert_eq!(std::thread::current().id(), caller, "a share ran elsewhere");
            });
            release.wait();
        });
        let after = pool.round_counts();
        assert_eq!(after.solo - before.solo, 1, "{before:?} -> {after:?}");
        assert_eq!(after.shared - before.shared, 1, "{before:?} -> {after:?}");
        assert_eq!(
            after.overlapped - before.overlapped,
            1,
            "{before:?} -> {after:?}"
        );
    });
}

/// A round whose share on the caller cannot finish until the other share
/// has started on the pool's worker counts as shared, not solo. The rounds
/// run back to back from one caller, so none counts as overlapped.
#[test]
fn a_round_another_thread_joins_counts_as_shared() {
    let pool = executor::Pool::new(2);
    within("shared round", move || {
        let before = pool.round_counts();
        for _ in 0..3 {
            handoff_round(&pool, Duration::ZERO);
        }
        let after = pool.round_counts();
        assert_eq!(after.shared - before.shared, 3, "{before:?} -> {after:?}");
        assert_eq!(after.solo, before.solo, "{before:?} -> {after:?}");
        assert_eq!(
            after.overlapped, before.overlapped,
            "{before:?} -> {after:?}"
        );
    });
}

/// A recorder whose `round_begin` panics. The pool calls it after the
/// round's tickets are queued, so a worker may already be running the
/// round's shares when it panics.
struct PanicsAtRoundBegin;

impl Recorder for PanicsAtRoundBegin {
    fn round_begin(&self, _shares: usize) {
        panic!("recorder panicked in round_begin");
    }
}

/// `run_indexed` re-raises the recorder's panic only once every share of
/// the round has run: a share counter read right after the unwind equals
/// the share count, and a round the pool's worker provably joins
/// afterwards (so it has left the panicked round) finds it unchanged.
#[test]
fn a_recorder_panic_unwinds_only_after_every_share_ran() {
    let pool = executor::Pool::new(2);
    within("recorder panic", move || {
        let shares = 64;
        for round in 0..20 {
            let ran = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_indexed(shares, 2, &PanicsAtRoundBegin, &|_| {
                    // Long enough that the worker is mid-round when the
                    // caller's recorder panics.
                    let start = Instant::now();
                    while start.elapsed() < Duration::from_micros(20) {
                        std::hint::spin_loop();
                    }
                    ran.fetch_add(1, AtOrd::SeqCst);
                });
            }));
            assert!(
                result.is_err(),
                "round {round}: the recorder's panic was lost"
            );
            let at_unwind = ran.load(AtOrd::SeqCst);
            assert_eq!(at_unwind, shares, "round {round}: shares run by the unwind");
            handoff_round(&pool, Duration::ZERO);
            assert_eq!(
                ran.load(AtOrd::SeqCst),
                at_unwind,
                "round {round}: a share ran after the unwind"
            );
        }
    });
}
