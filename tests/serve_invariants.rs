//! Correctness of the serving daemon under real concurrency: many
//! simultaneous requests across all nine adversarial input families, every
//! completed response byte-identical to the sequential oracle, backpressure
//! always explicit (a `Rejected` outcome, never a panic, never a lost
//! request), and clean drop accounting even when a request's comparator
//! panics mid-merge.

use std::sync::atomic::{AtomicIsize, Ordering as AtOrd};
use std::sync::{Arc, Barrier};

use mergepath_suite::mergepath::merge::sequential::merge_into_by;
use mergepath_suite::serve::{
    NoRecorder, ObserverConfig, Outcome, QueuePolicy, RejectReason, Request, ServeConfig,
    ServeObserver, Server,
};
use mergepath_suite::workloads::gen::{merge_pair_sized, MergeWorkload};

fn u32_cmp(a: &u32, b: &u32) -> std::cmp::Ordering {
    a.cmp(b)
}

// ---------------------------------------------------------------------------
// All nine families, concurrently, against the sequential oracle
// ---------------------------------------------------------------------------

/// Submits a wave of merge requests drawn from every [`MergeWorkload`]
/// family at several uneven sizes, all in flight together, and checks each
/// response against [`merge_into_by`] — the stable sequential oracle. The
/// daemon's interleaving must be invisible in the outputs.
#[test]
fn concurrent_responses_match_sequential_oracle_on_all_families() {
    let server: Server<u32> = Server::start(
        ServeConfig {
            queue_capacity: 128,
            max_inflight: 8,
            worker_budget: 4,
            policy: QueuePolicy::Edf,
            // Small enough that several of the wave's merges coalesce:
            // batched rounds must be just as byte-identical to the oracle
            // as inline runs.
            batch_max_items: 2048,
        },
        NoRecorder,
    );
    let sizes = [(1usize, 900usize), (700, 300), (512, 512), (1000, 1)];
    let mut expected = Vec::new();
    let mut handles = Vec::new();
    let mut id = 0u64;
    for workload in MergeWorkload::ALL {
        for &(na, nb) in &sizes {
            let (a, b) = merge_pair_sized(workload, na, nb, 0xC0FFEE ^ id);
            let mut want = vec![0u32; na + nb];
            merge_into_by(&a, &b, &mut want, &u32_cmp);
            expected.push((workload, want));
            handles.push(
                server
                    .submit(Request::merge(id, a, b))
                    .expect("queue sized for the full wave"),
            );
            id += 1;
        }
    }
    assert_eq!(handles.len(), 36, "9 families x 4 size shapes");
    for (h, (workload, want)) in handles.into_iter().zip(expected) {
        match h.wait() {
            Outcome::Completed { output, .. } => {
                assert_eq!(output, want, "family {} diverged", workload.name());
            }
            other => panic!("family {}: unexpected outcome {other:?}", workload.name()),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 36);
    assert_eq!(stats.lost(), 0);
}

// ---------------------------------------------------------------------------
// 64 requests genuinely in flight at once
// ---------------------------------------------------------------------------

/// A one-shot rendezvous: the first comparison touching a request's gated
/// key parks on the shared barrier; clones share the `used` flag, so each
/// request waits exactly once no matter how often the kernel re-compares
/// or copies the element.
#[derive(Debug)]
struct Gate {
    barrier: Arc<Barrier>,
    used: std::sync::atomic::AtomicBool,
}

impl Gate {
    fn pass(&self) {
        if !self.used.swap(true, AtOrd::SeqCst) {
            self.barrier.wait();
        }
    }
}

/// A key whose comparator blocks on a shared barrier the first time its
/// carrying request compares it. With 64 serving threads each executing
/// one gated request, the barrier releases only once all 64 are *inside*
/// their kernels simultaneously — turning "the daemon sustains 64
/// concurrent in-flight requests" from a racy hope into a deterministic
/// fact (`inflight_peak` must read exactly 64).
#[derive(Debug, Clone, Default)]
struct GateKey {
    key: u32,
    gate: Option<Arc<Gate>>,
}

impl PartialEq for GateKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for GateKey {}
impl PartialOrd for GateKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GateKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for g in [&self.gate, &other.gate].into_iter().flatten() {
            g.pass();
        }
        self.key.cmp(&other.key)
    }
}

#[test]
fn sustains_64_concurrent_in_flight_requests() {
    const INFLIGHT: usize = 64;
    let server: Server<GateKey> = Server::start(
        ServeConfig {
            queue_capacity: INFLIGHT,
            max_inflight: INFLIGHT,
            worker_budget: 1, // share = 1: each request runs on its serving thread
            policy: QueuePolicy::Edf,
            // No coalescing: the rendezvous needs all 64 requests inside
            // their *own* kernels simultaneously.
            batch_max_items: 0,
        },
        NoRecorder,
    );
    let barrier = Arc::new(Barrier::new(INFLIGHT));
    let handles: Vec<_> = (0..INFLIGHT as u64)
        .map(|id| {
            // The gated key sorts first in `a`, so it is compared before
            // the merge can finish — the request cannot complete until all
            // 64 requests have reached their kernels.
            let gate = Arc::new(Gate {
                barrier: Arc::clone(&barrier),
                used: std::sync::atomic::AtomicBool::new(false),
            });
            let a = vec![
                GateKey {
                    key: 0,
                    gate: Some(gate),
                },
                GateKey { key: 2, gate: None },
                GateKey { key: 4, gate: None },
            ];
            let b = vec![
                GateKey { key: 1, gate: None },
                GateKey { key: 3, gate: None },
            ];
            server.submit(Request::merge(id, a, b)).expect("admitted")
        })
        .collect();
    for h in handles {
        match h.wait() {
            Outcome::Completed { output, .. } => {
                let keys: Vec<u32> = output.iter().map(|g| g.key).collect();
                assert_eq!(keys, vec![0, 1, 2, 3, 4]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, INFLIGHT as u64);
    assert_eq!(
        stats.inflight_peak, INFLIGHT,
        "all {INFLIGHT} requests must execute simultaneously"
    );
    assert_eq!(stats.lost(), 0);
}

// ---------------------------------------------------------------------------
// Backpressure: explicit rejections, observable in telemetry
// ---------------------------------------------------------------------------

/// Overloads a one-slot daemon until both rejection kinds fire, then
/// checks every path stayed clean: queue-full reported synchronously,
/// deadline expiry through the handle, both visible in an attached
/// observer's `serve_*_total` counters, and `submitted` fully accounted
/// for.
#[test]
fn rejections_are_explicit_and_counted() {
    let obs = Arc::new(ServeObserver::new(ObserverConfig::default()));
    let server: Server<u32, NoRecorder, _> = Server::start_with_probe(
        ServeConfig {
            queue_capacity: 2,
            max_inflight: 1,
            worker_budget: 1,
            policy: QueuePolicy::Edf,
            batch_max_items: 4096,
        },
        NoRecorder,
        Arc::clone(&obs),
    );
    // A slow sort pins the single serving thread...
    let busy: Vec<u32> = (0..400_000u32)
        .map(|x| x.wrapping_mul(2_654_435_761))
        .collect();
    let h0 = server.submit(Request::sort(0, busy)).expect("admitted");
    // ...a doomed request waits behind it with an already-tiny deadline...
    let doomed = Request::merge(1, vec![1u32, 3], vec![2, 4]).with_deadline_in(1);
    let h1 = server.submit(doomed).expect("queue has room");
    // ...and a flood overfills the bounded queue.
    let mut queue_full = 0u64;
    let mut extra = Vec::new();
    for id in 2..40u64 {
        match server.submit(Request::merge(id, vec![5u32, 7], vec![6, 8])) {
            Ok(h) => extra.push(h),
            Err(RejectReason::QueueFull) => queue_full += 1,
            Err(other) => panic!("unexpected synchronous rejection {other:?}"),
        }
    }
    assert!(queue_full > 0, "bounded queue never pushed back");
    assert!(matches!(h0.wait(), Outcome::Completed { .. }));
    assert!(matches!(
        h1.wait(),
        Outcome::Rejected(RejectReason::DeadlineExpired)
    ));
    for h in extra {
        // The flood requests carry no deadline, so every admitted one
        // must complete once the slow sort clears.
        match h.wait() {
            Outcome::Completed { .. } => {}
            other => panic!("admitted request resolved dirty: {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected_queue_full, queue_full);
    assert!(stats.rejected_deadline >= 1);
    assert_eq!(stats.lost(), 0, "every submission accounted for");

    // The same story must be readable from the observer alone.
    let snap = obs.snapshot();
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
}

// ---------------------------------------------------------------------------
// Drop accounting under panicking comparators (CountedDrop, as in
// tests/non_copy_keys.rs, here with an Ord impl so the daemon can run it)
// ---------------------------------------------------------------------------

/// Key 'poison' value: comparing it panics, simulating a buggy user
/// comparator inside an otherwise healthy daemon.
const POISON: i32 = i32::MIN;

/// Same live-count idiom as `tests/non_copy_keys.rs`: every tracked
/// construction and clone increments a shared counter, every drop
/// decrements. Zero at the end means no leak (positive) and no
/// double-drop (negative) anywhere on the request path — queue, kernel,
/// outcome cell, response handle — even when the comparator panics.
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
        // Filler elements (the output buffer) account against their own
        // private counter, not the master's.
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

#[test]
fn panicking_request_is_contained_and_leaks_nothing() {
    let master = Arc::new(AtomicIsize::new(0));
    let tracked = |keys: &[i32]| -> Vec<CountedDrop> {
        keys.iter()
            .map(|&k| CountedDrop::tracked(k, &master))
            .collect()
    };
    {
        let server: Server<CountedDrop> = Server::start(
            ServeConfig {
                queue_capacity: 16,
                max_inflight: 2,
                worker_budget: 2,
                policy: QueuePolicy::Edf,
                // No coalescing: the panic blast radius must stay exactly
                // one request, so `completed == 2 && failed == 3` is
                // deterministic.
                batch_max_items: 0,
            },
            NoRecorder,
        );
        // A healthy request, a poisoned merge, a poisoned sort, and
        // another healthy request — the daemon must survive the panics
        // and keep serving.
        let good1 = server
            .submit(Request::merge(0, tracked(&[1, 3, 5]), tracked(&[2, 4])))
            .expect("admitted");
        let bad_merge = server
            .submit(Request::merge(
                1,
                tracked(&[1, POISON]),
                tracked(&[2, 6, 7]),
            ))
            .expect("admitted");
        let bad_sort = server
            .submit(Request::sort(2, tracked(&[9, 4, POISON, 1])))
            .expect("admitted");
        let good2 = server
            .submit(Request::sort(3, tracked(&[8, 6, 7])))
            .expect("admitted");

        match good1.wait() {
            Outcome::Completed { output, .. } => {
                let keys: Vec<i32> = output.iter().map(|c| c.key).collect();
                assert_eq!(keys, vec![1, 2, 3, 4, 5]);
            }
            other => panic!("good merge: {other:?}"),
        }
        assert!(matches!(bad_merge.wait(), Outcome::Failed));
        assert!(matches!(bad_sort.wait(), Outcome::Failed));
        match good2.wait() {
            Outcome::Completed { output, .. } => {
                let keys: Vec<i32> = output.iter().map(|c| c.key).collect();
                assert_eq!(keys, vec![6, 7, 8]);
            }
            other => panic!("good sort after panics: {other:?}"),
        }
        // A poisoned sort of 1024 keys submitted alone: it runs with the
        // whole budget of 2, so its chunk sorts run in pool shares and the
        // panic unwinds out of `slice::sort_by` inside one of them.
        let mut keys: Vec<i32> = (0..1024).map(|i| (i * 7919) % 1024).collect();
        keys[1000] = POISON;
        let bad_big_sort = server
            .submit(Request::sort(4, tracked(&keys)))
            .expect("admitted");
        assert!(matches!(bad_big_sort.wait(), Outcome::Failed));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.lost(), 0, "failures are accounted, not lost");
    }
    // Server, handles, and outcomes are gone: every tracked element must
    // have dropped exactly once.
    assert_eq!(
        master.load(AtOrd::SeqCst),
        0,
        "request path leaked or double-dropped elements"
    );
}

// ---------------------------------------------------------------------------
// Sustained mixed load: waves of merges and sorts with deadlines
// ---------------------------------------------------------------------------

/// A rolling mixed workload — merges and sorts, some with deadlines some
/// without, submitted faster than one wave can drain — must end with
/// every request resolved, every completion byte-identical, and zero
/// losses. This is the invariant `cargo xtask verify-serve` gates in CI,
/// exercised here in-process.
#[test]
fn sustained_mixed_load_resolves_every_request() {
    let server: Server<u32> = Server::start(
        ServeConfig {
            queue_capacity: 64,
            max_inflight: 4,
            worker_budget: 4,
            policy: QueuePolicy::Edf,
            batch_max_items: 4096,
        },
        NoRecorder,
    );
    let mut completed = 0u64;
    let mut rejected = 0u64;
    for wave in 0..4u64 {
        let mut expected = Vec::new();
        let mut handles = Vec::new();
        for i in 0..24u64 {
            let id = wave * 24 + i;
            let workload = MergeWorkload::ALL[(id as usize) % MergeWorkload::ALL.len()];
            if i % 3 == 2 {
                // Sorts: oracle is std's stable sort.
                let (mut keys, extra) = merge_pair_sized(workload, 600, 600, id);
                keys.extend(extra);
                let mut want = keys.clone();
                want.sort();
                expected.push(want);
                let req = if i % 6 == 5 {
                    Request::sort(id, keys).with_deadline_in(2_000_000_000)
                } else {
                    Request::sort(id, keys)
                };
                match server.submit(req) {
                    Ok(h) => handles.push(h),
                    Err(RejectReason::QueueFull) => {
                        rejected += 1;
                        expected.pop();
                    }
                    Err(other) => panic!("unexpected sync rejection {other:?}"),
                }
            } else {
                let (a, b) = merge_pair_sized(workload, 800, 400, id);
                let mut want = vec![0u32; a.len() + b.len()];
                merge_into_by(&a, &b, &mut want, &u32_cmp);
                expected.push(want);
                match server.submit(Request::merge(id, a, b)) {
                    Ok(h) => handles.push(h),
                    Err(RejectReason::QueueFull) => {
                        rejected += 1;
                        expected.pop();
                    }
                    Err(other) => panic!("unexpected sync rejection {other:?}"),
                }
            }
        }
        for (i, (h, want)) in handles.into_iter().zip(expected).enumerate() {
            match h.wait() {
                Outcome::Completed { output, .. } => {
                    assert_eq!(output, want, "wave {wave} request {i} diverged");
                    completed += 1;
                }
                // The generous 2s deadline should never fire, but if a
                // loaded CI machine stalls that long the rejection is
                // still the *correct* (clean) answer.
                Outcome::Rejected(RejectReason::DeadlineExpired) => rejected += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 96);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.completed + rejected, 96);
    assert_eq!(stats.lost(), 0);
    assert!(stats.latency.count() == stats.completed);
}
