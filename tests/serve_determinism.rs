//! The serving daemon against its arrival plans.
//!
//! An arrival plan, and every request input derived from it, is a **pure
//! function of `(seed, config)`**, so `BENCH_serve.json` and any
//! postmortem can regenerate the exact traffic of a run. Admission itself
//! runs against the wall clock, so it is checked on the live daemon, in
//! the cases where its verdicts do not depend on machine speed:
//!
//! * a queue at least as large as the plan, with no deadlines, completes
//!   every request of every arrival pattern and rejects none;
//! * the deadline is judged at dequeue with an inclusive boundary;
//! * the queue is served earliest-deadline-first, deadline-free requests
//!   last and in arrival order, as the dequeue events of an attached
//!   observer's flight ring show.
//!
//! Congestion with both rejection kinds is checked by
//! `tests/serve_invariants.rs::rejections_are_explicit_and_counted`.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mergepath_suite::mergepath::merge::sequential::merge_into_by;
use mergepath_suite::serve::{
    FlightEventKind, NoRecorder, ObserverConfig, Outcome, QueuePolicy, RejectReason, Request,
    ResponseHandle, ServeConfig, ServeObserver, Server,
};
use mergepath_suite::workloads::arrival::{arrival_plan, ArrivalPattern, PlanConfig};
use mergepath_suite::workloads::gen::merge_pair_sized;

fn plan_cfg(
    pattern: ArrivalPattern,
    requests: usize,
    mean_gap_ns: u64,
    deadline_ns: u64,
    seed: u64,
) -> PlanConfig {
    PlanConfig {
        pattern,
        requests,
        mean_gap_ns,
        deadline_ns,
        mean_len: 512,
        seed,
    }
}

proptest! {
    /// Same `(seed, config)` twice ⇒ identical plan: the traffic every
    /// admission decision of a run is made on can be regenerated exactly.
    /// Ids are dense and arrivals non-decreasing, and a plan carries
    /// deadlines exactly when its config asks for them.
    fn admission_decisions_are_a_pure_function_of_seed_and_config(
        pat in 0usize..3,
        requests in 50usize..300,
        mean_gap_ns in 1_000u64..200_000,
        deadline_ns in 0u64..2_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let pattern = ArrivalPattern::ALL[pat];
        let cfg = plan_cfg(pattern, requests, mean_gap_ns, deadline_ns, seed);
        let plan_a = arrival_plan(&cfg);
        let plan_b = arrival_plan(&cfg);
        prop_assert_eq!(&plan_a, &plan_b, "arrival plan must be deterministic");
        prop_assert_eq!(plan_a.len(), requests);
        let mut prev_arrival = 0u64;
        for (i, spec) in plan_a.iter().enumerate() {
            prop_assert_eq!(spec.id, i, "ids are dense and in arrival order");
            prop_assert!(spec.arrival_ns >= prev_arrival, "arrivals go backwards");
            prev_arrival = spec.arrival_ns;
            prop_assert_eq!(spec.deadline_ns == 0, deadline_ns == 0);
        }
    }

    /// Request payloads regenerate bit-for-bit from their spec: the plan
    /// never stores input arrays, only `(workload, len_a, len_b,
    /// data_seed)`, so the bench and any postmortem can rebuild the exact
    /// inputs a request carried.
    fn request_inputs_regenerate_from_the_spec(
        pat in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let pattern = ArrivalPattern::ALL[pat];
        let cfg = plan_cfg(pattern, 40, 10_000, 0, seed);
        let plan = arrival_plan(&cfg);
        for spec in plan.iter().take(8) {
            let (a1, b1) = merge_pair_sized(spec.workload, spec.len_a, spec.len_b, spec.data_seed);
            let (a2, b2) = merge_pair_sized(spec.workload, spec.len_a, spec.len_b, spec.data_seed);
            prop_assert_eq!(a1.len(), spec.len_a);
            prop_assert_eq!(b1.len(), spec.len_b);
            prop_assert_eq!(&a1, &a2);
            prop_assert_eq!(&b1, &b2);
        }
    }
}

/// The release a held request's comparisons wait for.
#[derive(Debug, Default)]
struct Hold {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Hold {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// A `u32` key that, when it carries a [`Hold`], compares only once the
/// hold is released: a request made of such keys keeps its serving thread
/// until the test lets it go.
#[derive(Debug, Clone, Default)]
struct HeldKey {
    key: u32,
    hold: Option<Arc<Hold>>,
}

impl PartialEq for HeldKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeldKey {}
impl PartialOrd for HeldKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeldKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for hold in [&self.hold, &other.hold].into_iter().flatten() {
            hold.wait();
        }
        self.key.cmp(&other.key)
    }
}

/// A small merge request of keys without a hold.
fn free_merge(id: u64) -> Request<HeldKey> {
    let keys = |ks: [u32; 2]| ks.map(|key| HeldKey { key, hold: None }).to_vec();
    Request::merge(id, keys([1, 3]), keys([2, 4]))
}

/// A daemon whose one serving thread is held inside request 0 until the
/// returned [`Hold`] is released, so that the requests submitted
/// meanwhile wait in the queue together.
#[allow(clippy::type_complexity)]
fn held_daemon() -> (
    Server<HeldKey, NoRecorder, Arc<ServeObserver>>,
    Arc<ServeObserver>,
    Arc<Hold>,
    ResponseHandle<HeldKey>,
) {
    let obs = Arc::new(ServeObserver::new(ObserverConfig::default()));
    let server = Server::start_with_probe(
        ServeConfig {
            queue_capacity: 16,
            max_inflight: 1,
            worker_budget: 1,
            policy: QueuePolicy::Edf,
            batch_max_items: 0,
        },
        NoRecorder,
        Arc::clone(&obs),
    );
    let hold = Arc::new(Hold::default());
    let held = |key| {
        vec![HeldKey {
            key,
            hold: Some(Arc::clone(&hold)),
        }]
    };
    let first = server
        .submit(Request::merge(0, held(1), held(2)))
        .expect("admitted");
    // Once request 0 is dequeued, its serving thread is stuck in the
    // merge's first comparison until the hold is released.
    while !dequeue_order(&obs).contains(&0) {
        std::thread::yield_now();
    }
    (server, obs, hold, first)
}

/// Request ids in the order the serving threads dequeued them.
fn dequeue_order(obs: &ServeObserver) -> Vec<u64> {
    obs.flight()
        .snapshot()
        .iter()
        .filter(|e| e.kind == FlightEventKind::Dequeue)
        .map(|e| e.request_id)
        .collect()
}

/// A queue at least as large as the plan, and no deadlines: however the
/// requests arrive — steady, in bursts or with heavy-tailed gaps — the
/// daemon completes every one with the oracle's answer and rejects none.
#[test]
fn ample_queue_without_deadlines_completes_every_planned_request() {
    for pattern in ArrivalPattern::ALL {
        for seed in [1u64, 12345] {
            let plan = arrival_plan(&PlanConfig {
                pattern,
                requests: 96,
                mean_gap_ns: 10_000,
                deadline_ns: 0,
                mean_len: 256,
                seed,
            });
            let inputs: Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> = plan
                .iter()
                .map(|spec| {
                    let (a, b) =
                        merge_pair_sized(spec.workload, spec.len_a, spec.len_b, spec.data_seed);
                    let mut want = vec![0u32; a.len() + b.len()];
                    merge_into_by(&a, &b, &mut want, &|x: &u32, y: &u32| x.cmp(y));
                    (a, b, want)
                })
                .collect();
            let server: Server<u32> = Server::start(
                ServeConfig {
                    queue_capacity: plan.len(),
                    max_inflight: 2,
                    worker_budget: 2,
                    policy: QueuePolicy::Edf,
                    batch_max_items: 4096,
                },
                NoRecorder,
            );
            // Submit along the plan's arrival times.
            let t0 = Instant::now();
            let mut pending = Vec::new();
            for (spec, (a, b, want)) in plan.iter().zip(inputs) {
                while (t0.elapsed().as_nanos() as u64) < spec.arrival_ns {
                    std::hint::spin_loop();
                }
                let h = server
                    .submit(Request::merge(spec.id as u64, a, b))
                    .expect("the queue holds the whole plan");
                pending.push((h, want));
            }
            let tag = format!("{} seed {seed}", pattern.name());
            for (h, want) in pending {
                match h.wait() {
                    Outcome::Completed { output, .. } => assert_eq!(output, want, "{tag}"),
                    other => panic!("{tag}: spurious outcome {other:?}"),
                }
            }
            let stats = server.shutdown();
            assert_eq!(stats.completed, plan.len() as u64, "{tag}");
            assert_eq!(stats.rejected_queue_full, 0, "{tag}");
            assert_eq!(stats.rejected_deadline, 0, "{tag}");
            assert_eq!(stats.lost(), 0, "{tag}");
        }
    }
}

/// The deadline is judged when the request is dequeued, and the boundary
/// is inclusive: `with_deadline_in(0)` sets the deadline to the submit
/// instant, so its dequeue is at or past it and it is rejected. A request
/// that is alive when submitted but whose deadline passes while it waits
/// is rejected too, and one whose deadline outlasts its wait completes.
#[test]
fn deadline_boundary_is_inclusive_and_judged_at_dequeue() {
    let (server, obs, hold, first) = held_daemon();
    let submit = |id, deadline_in| {
        server
            .submit(free_merge(id).with_deadline_in(deadline_in))
            .expect("admitted")
    };
    let at_boundary = submit(1, 0);
    let expires_queued = submit(2, 20_000_000);
    let outlasts = submit(3, 60_000_000_000);
    std::thread::sleep(Duration::from_millis(40));
    hold.release();
    for (h, why) in [
        (at_boundary, "a zero-relative deadline"),
        (expires_queued, "a deadline passed while queued"),
    ] {
        match h.wait() {
            Outcome::Rejected(RejectReason::DeadlineExpired) => {}
            other => panic!("{why} must expire, got {other:?}"),
        }
    }
    for h in [first, outlasts] {
        assert!(matches!(h.wait(), Outcome::Completed { .. }));
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected_deadline, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.lost(), 0);

    // The verdicts come off the dequeue timestamps: each rejected request
    // was dequeued at or after its deadline, the completed one before.
    let events = obs.flight().snapshot();
    let at = |id: u64, kind: FlightEventKind| {
        events
            .iter()
            .find(|e| e.request_id == id && e.kind == kind)
            .copied()
            .unwrap_or_else(|| panic!("request {id} has no {kind:?} event"))
    };
    for id in [1, 2] {
        let deadline = at(id, FlightEventKind::RejectDeadline).arg0;
        assert!(at(id, FlightEventKind::Dequeue).t_ns >= deadline);
    }
    let deadline_3 = at(3, FlightEventKind::Submit).arg0;
    assert!(at(3, FlightEventKind::Dequeue).t_ns < deadline_3);
}

/// While the serving thread is held, requests pile up in the queue; once
/// it frees, the earliest deadline goes first even though it was submitted
/// last, and deadline-free requests follow in arrival order.
#[test]
fn queue_is_served_earliest_deadline_first() {
    let (server, obs, hold, first) = held_daemon();
    let mut handles = vec![first];
    for (id, deadline_in) in [
        (1u64, 0u64),
        (2, 0),
        (3, 60_000_000_000),
        (4, 30_000_000_000),
    ] {
        let mut req = free_merge(id);
        if deadline_in != 0 {
            req = req.with_deadline_in(deadline_in);
        }
        handles.push(server.submit(req).expect("admitted"));
    }
    hold.release();
    for h in handles {
        assert!(matches!(h.wait(), Outcome::Completed { .. }));
    }
    server.shutdown();
    assert_eq!(
        dequeue_order(&obs),
        vec![0, 4, 3, 1, 2],
        "earliest deadline first; no deadline last, in arrival order"
    );
}
