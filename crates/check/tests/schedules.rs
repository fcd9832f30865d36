//! Property-based schedule exploration: random input shapes × random thread
//! counts × permuted virtual schedules, for every kernel.
//!
//! Each case drives [`mergepath_check::check_kernel_on`], which runs the
//! kernel under several seed-permuted single-threaded schedules, verifies
//! CREW disjointness / coverage / the Thm 14 bound on the recorded access
//! sets, and demands byte-identical agreement with a sequential oracle.
//! Two more tests cover what the live executor adds to one round's
//! permutation: kernels of several rounds draw a fresh order per round,
//! and rounds of different requests, which the pool runs interleaved,
//! touch disjoint memory.

use mergepath::merge::parallel::parallel_merge_into_by;
use mergepath::telemetry::NoRecorder;
use mergepath_check::{
    check_kernel_on, default_input, record, AccessSpan, CheckConfig, Kernel, Kv, Recording,
};
use proptest::prelude::*;

fn tagged(keys: Vec<i32>, tag0: u32) -> Vec<Kv> {
    let mut keys = keys;
    keys.sort_unstable();
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, tag0 + i as u32))
        .collect()
}

fn run_all(a: &[Kv], b: &[Kv], threads: usize, seed: u64) {
    let cfg = CheckConfig {
        threads,
        schedules: 4,
        seed,
        pram_limit: 2048,
    };
    for &kernel in &Kernel::ALL {
        if let Err(e) = check_kernel_on(kernel, a, b, &cfg) {
            panic!("{kernel:?} failed with threads={threads} seed={seed}: {e}");
        }
    }
}

proptest! {
    #[test]
    fn random_shapes_survive_schedule_exploration(
        ka in proptest::collection::vec(-40i32..40, 0..260),
        kb in proptest::collection::vec(-40i32..40, 0..260),
        threads in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let a = tagged(ka, 0);
        let b = tagged(kb, 1_000_000);
        run_all(&a, &b, threads, seed);
    }

    #[test]
    fn lopsided_shapes_survive_schedule_exploration(
        na in 0usize..40,
        nb in 200usize..500,
        threads in 2usize..6,
        seed in 0u64..1_000,
    ) {
        // Heavily skewed sizes stress the co-ranking boundary cases.
        let a = tagged((0..na).map(|i| (i as i32) % 7).collect(), 0);
        let b = tagged((0..nb).map(|i| (i as i32) % 11 - 5).collect(), 1_000_000);
        run_all(&a, &b, threads, seed);
    }
}

#[test]
fn synthesized_inputs_scale_with_thread_count() {
    for threads in [2, 3, 5, 8] {
        let (a, b) = default_input(64 * threads + 37, threads as u64);
        run_all(&a, &b, threads, 0xC0FFEE + threads as u64);
    }
}

/// Multi-round kernels draw a *fresh* order for every round. A sort
/// pushes many rounds through the pool; each recorded order must be a
/// permutation of that round's shares, at least one round must be visibly
/// reordered, and the whole stream must be deterministic in the seed
/// (replayability is what makes a failing schedule reportable).
#[test]
fn multi_round_kernels_draw_a_fresh_order_per_round() {
    let run = || {
        let (a, b) = default_input(600, 3);
        let mut v: Vec<Kv> = a.iter().chain(b.iter()).copied().collect();
        let ((), rec) = record(21, || {
            mergepath::sort::parallel::parallel_merge_sort_by(
                &mut v,
                4,
                &|x: &Kv, y: &Kv| x.0.cmp(&y.0),
                &NoRecorder,
            );
        });
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0), "sort diverged");
        rec
    };
    let rec = run();
    let pool_rounds: Vec<_> = rec.rounds.iter().filter(|r| !r.orchestrator).collect();
    assert!(
        pool_rounds.len() >= 2,
        "parallel merge sort should push multiple rounds, got {}",
        pool_rounds.len()
    );
    let mut reordered = 0;
    for round in &pool_rounds {
        let mut sorted = round.order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..round.shares.len()).collect::<Vec<_>>(),
            "round order is not a permutation of its shares"
        );
        if round.order.windows(2).any(|w| w[0] > w[1]) {
            reordered += 1;
        }
    }
    assert!(
        reordered > 0,
        "no round was reordered across {} rounds",
        pool_rounds.len()
    );
    // Same seed, same input → identical order stream.
    let again = run();
    let orders = |r: &Recording| {
        r.rounds
            .iter()
            .filter(|r| !r.orchestrator)
            .map(|r| r.order.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        orders(&rec),
        orders(&again),
        "round orders must replay deterministically"
    );
}

/// Why overlapping rounds from *different* requests is safe: with both
/// requests' buffers live simultaneously, every write span recorded for
/// request 1 is disjoint from every write and read span of request 2 (and
/// vice versa). Two rounds with no W∩W and no W∩R conflicts produce the
/// same result under ANY cross-round interleaving of their shares — the
/// property the executor relies on when a thread picks up request 2's
/// shares between two shares of request 1.
#[test]
fn concurrent_request_rounds_stay_disjoint_under_any_interleaving() {
    let by_key = |x: &Kv, y: &Kv| x.0.cmp(&y.0);
    // Allocate everything up front and keep it all alive until the end,
    // so the recorded address spans of the two requests can only be
    // disjoint if the footprints genuinely are (no allocator reuse).
    let (a1, b1) = default_input(400, 11);
    let (a2, b2) = default_input(520, 12);
    let mut out1: Vec<Kv> = vec![(0, 0); a1.len() + b1.len()];
    let mut out2: Vec<Kv> = vec![(0, 0); a2.len() + b2.len()];

    let ((), rec1) = record(31, || {
        parallel_merge_into_by(&a1, &b1, &mut out1, 4, &by_key, &NoRecorder);
    });
    let ((), rec2) = record(32, || {
        parallel_merge_into_by(&a2, &b2, &mut out2, 4, &by_key, &NoRecorder);
    });

    let spans = |rec: &Recording, writes: bool| -> Vec<AccessSpan> {
        rec.rounds
            .iter()
            .flat_map(|r| r.shares.iter())
            .flat_map(|s| {
                if writes {
                    s.writes.iter()
                } else {
                    s.reads.iter()
                }
            })
            .copied()
            .collect()
    };
    let overlap =
        |x: &AccessSpan, y: &AccessSpan| x.addr < y.addr + y.bytes && y.addr < x.addr + x.bytes;
    let (w1, r1) = (spans(&rec1, true), spans(&rec1, false));
    let (w2, r2) = (spans(&rec2, true), spans(&rec2, false));
    assert!(
        !w1.is_empty() && !w2.is_empty(),
        "both requests must record writes"
    );
    for x in &w1 {
        assert!(
            w2.iter().all(|y| !overlap(x, y)) && r2.iter().all(|y| !overlap(x, y)),
            "request 1 write {x:?} conflicts with request 2's footprint"
        );
    }
    for x in &w2 {
        assert!(
            r1.iter().all(|y| !overlap(x, y)),
            "request 2 write {x:?} conflicts with request 1's reads"
        );
    }
    // Keep the buffers alive past the span checks.
    drop((out1, out2, a1, b1, a2, b2));
}
