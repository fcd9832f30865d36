//! Live-observability invariants (DESIGN.md §12):
//!
//! * the metrics/flight hot path — every `on_*` hook of the
//!   [`ServeObserver`] each daemon owns — performs **zero heap
//!   allocation** (measured with a counting global allocator);
//! * a completed request's waterfall stages partition its latency exactly
//!   (`queue + dispatch + compute + emit == latency_ns`) and the sum
//!   never exceeds the measured wall time of the whole run — the clock
//!   unification contract of `telemetry::now_ns`;
//! * the flight ring retains exactly its capacity, overwriting oldest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mergepath::telemetry::now_ns;
use mergepath_serve::{
    FlightEvent, FlightEventKind, FlightRecorder, Outcome, QueuePolicy, Request, ServeConfig,
    ServeObserver, Server, Waterfall,
};

/// Counts allocations per thread, so concurrent test threads in this
/// binary cannot pollute each other's measurements.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every allocation and deallocation is forwarded unchanged to
// `System`, which upholds `GlobalAlloc`'s contract; the counter is a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

#[test]
fn probe_hot_path_is_allocation_free() {
    // No dump_dir: anomaly bookkeeping runs but no dump is rendered (a
    // dump legitimately allocates; it only happens on an actual anomaly).
    let obs = ServeObserver::new(None);
    let wf = Waterfall {
        queue_ns: 10,
        dispatch_ns: 2,
        compute_ns: 100,
        emit_ns: 1,
    };
    // Warm-up: first call from this thread initializes its shard index
    // and any lazy thread-local state.
    obs.on_submit(0, 1, 0);
    obs.on_dequeue(0, 2, 1, 0);
    obs.on_start(0, 3, 1, 1);
    obs.on_complete(0, 4, &wf);
    obs.on_reject_queue_full(0, 5, 8);
    obs.on_reject_deadline(0, 6, 5);
    obs.on_fail(0, 7);
    obs.on_batch(2);
    obs.on_protocol_error();

    let allocs = allocs_during(|| {
        for i in 1..=1_000u64 {
            obs.on_submit(i, i, 0);
            obs.on_dequeue(i, i + 1, i, 0);
            obs.on_start(i, i + 2, 1, 1);
            obs.on_complete(i, i + 3, &wf);
            obs.on_reject_queue_full(i, i + 4, 8);
            obs.on_reject_deadline(i, i + 5, i);
            obs.on_fail(i, i + 6);
            obs.on_batch(2);
            obs.on_protocol_error();
        }
    });
    assert_eq!(allocs, 0, "probe hooks must not allocate on the hot path");
}

#[test]
fn registry_reads_do_not_allocate_either_side() {
    let obs = ServeObserver::new(None);
    obs.on_submit(1, 1, 0);
    // Writers stay allocation-free even while a snapshot reader runs
    // concurrently (snapshot itself allocates its result — that's the
    // reader's cost, off the serving threads).
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            for _ in 0..50 {
                let snap = obs.snapshot();
                assert!(snap.counter("serve_submitted_total").is_some());
            }
        });
        let writer_allocs = allocs_during(|| {
            for i in 0..10_000u64 {
                obs.on_submit(i, i + 1, 0);
            }
        });
        assert_eq!(writer_allocs, 0, "writers pay nothing for live readers");
        reader.join().unwrap();
    });
}

#[test]
fn flight_recorder_record_is_allocation_free_and_overwrites_oldest() {
    let ring = FlightRecorder::new(64);
    let ev = |i: u64| FlightEvent {
        seq: 0,
        t_ns: i,
        request_id: i,
        kind: FlightEventKind::Submit,
        arg0: 0,
        arg1: 0,
    };
    ring.record(ev(0)); // warm-up
    let allocs = allocs_during(|| {
        for i in 1..=1_000u64 {
            ring.record(ev(i));
        }
    });
    assert_eq!(allocs, 0, "ring writes are zero-allocation");
    assert_eq!(ring.recorded(), 1_001);
    let snap = ring.snapshot();
    assert_eq!(snap.len(), 64, "ring retains exactly its capacity");
    assert_eq!(snap[0].seq, 1_001 - 64, "oldest surviving event");
    assert_eq!(snap.last().unwrap().seq, 1_000);
}

#[test]
fn waterfall_partitions_latency_and_stays_under_wall_time() {
    let server: Server<u32> = Server::start(
        ServeConfig {
            queue_capacity: 32,
            max_inflight: 2,
            worker_budget: 2,
            policy: QueuePolicy::Edf,
            // Batched resolutions must partition latency exactly too.
            batch_max_items: 4096,
        },
        mergepath_serve::NoRecorder,
    );
    let t0 = now_ns();
    let mut handles = Vec::new();
    for id in 0..16u64 {
        let a: Vec<u32> = (0..512).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..512).map(|x| x * 2 + 1).collect();
        handles.push(server.submit(Request::merge(id, a, b)).expect("admitted"));
    }
    for h in handles {
        match h.wait() {
            Outcome::Completed {
                latency_ns,
                waterfall,
                ..
            } => {
                // The four stages are saturating differences of successive
                // stamps on one monotonic clock, so they telescope: the
                // sum equals the end-to-end latency exactly.
                assert_eq!(
                    waterfall.total_ns(),
                    latency_ns,
                    "stages must partition the latency exactly"
                );
                assert!(waterfall.compute_ns > 0, "compute stage was measured");
                let wall = now_ns().saturating_sub(t0);
                assert!(
                    waterfall.total_ns() <= wall,
                    "summed stages ({}) exceed measured wall time ({wall})",
                    waterfall.total_ns()
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
    // The daemon's own observer holds one stage sample per completion.
    let [_, _, (stage, compute), _] = server.observer().stages();
    assert_eq!((stage, compute.count()), ("compute", 16));
    server.shutdown();
}
