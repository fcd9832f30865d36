//! Steal-order schedule proofs: the virtual executor replays every kernel
//! under execution orders drawn from the simulated work-stealing deque
//! protocol — shares executed by workers other than the one whose deque
//! received them, with a fresh order drawn per round — instead of uniform
//! shuffles.
//!
//! This is the checker-side witness for the live executor's defining
//! reorderings (DESIGN.md §15): LIFO owner pops vs FIFO steals, hoarded
//! push shapes (every ticket on one deque, maximally steal-inducing), and
//! the overlap of rounds from independent in-flight requests. Co-rank
//! partitioning gives every share a closed-form, coordination-free
//! footprint, so any of these orders must produce byte-identical output —
//! `check_kernel_on` verifies exactly that, plus CREW disjointness and
//! the Thm 14 access bound, for all eight kernels.

use mergepath::merge::parallel::parallel_merge_into_by;
use mergepath::telemetry::NoRecorder;
use mergepath_check::{
    check_kernel_on, default_input, record_stealing, steal_order, AccessSpan, CheckConfig, Kernel,
    Kv, Recording,
};
use mergepath_workloads::prng::Prng;
use proptest::prelude::*;

fn tagged(keys: Vec<i32>, tag0: u32) -> Vec<Kv> {
    let mut keys = keys;
    keys.sort_unstable();
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, tag0 + i as u32))
        .collect()
}

fn run_all_stealing(a: &[Kv], b: &[Kv], threads: usize, seed: u64) {
    let cfg = CheckConfig {
        threads,
        schedules: 4,
        seed,
        pram_limit: 2048,
        steal_orders: true,
    };
    for &kernel in &Kernel::ALL {
        if let Err(e) = check_kernel_on(kernel, a, b, &cfg) {
            panic!("{kernel:?} failed under steal orders with threads={threads} seed={seed}: {e}");
        }
    }
}

proptest! {
    /// All eight kernels, random shapes and thread counts, every round
    /// order drawn from the simulated deque protocol: output must stay
    /// byte-identical to the sequential oracle and the access sets must
    /// stay CREW-disjoint within Thm 14 bounds.
    #[test]
    fn random_shapes_survive_steal_order_exploration(
        ka in proptest::collection::vec(-40i32..40, 0..260),
        kb in proptest::collection::vec(-40i32..40, 0..260),
        threads in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let a = tagged(ka, 0);
        let b = tagged(kb, 1_000_000);
        run_all_stealing(&a, &b, threads, seed);
    }
}

/// The deque simulation's attribution is trustworthy: orders are exact
/// permutations, hoarded rounds push everything through worker 0 and
/// *must* contain stolen steps (executor ≠ pusher), and balanced rounds
/// mix owner pops with steals. Without this, the schedule family above
/// would be vacuously "passing" orders that never model a steal.
#[test]
fn steal_attribution_covers_hoarded_and_balanced_shapes() {
    let mut prng = Prng::seed_from_u64(0xDEC0DE);
    let workers = 4;
    let shares = 32;

    let hoarded = steal_order(&mut prng, shares, workers, true);
    assert_eq!(hoarded.len(), shares);
    let mut seen = vec![false; shares];
    for step in &hoarded {
        assert!(!seen[step.share], "share {} executed twice", step.share);
        seen[step.share] = true;
        assert_eq!(step.pusher, 0, "hoarded shape pushes everything on deque 0");
        assert!(step.executor < workers);
    }
    assert!(
        hoarded.iter().any(|s| s.stolen()),
        "a hoarded round over {workers} workers produced no stolen step"
    );
    // Stolen tickets come off the FIFO end while the owner pops LIFO, so
    // the executed order must diverge from push order.
    let executed: Vec<usize> = hoarded.iter().map(|s| s.share).collect();
    let pushed: Vec<usize> = (0..shares).collect();
    assert_ne!(executed, pushed, "steals left the push order untouched");

    let balanced = steal_order(&mut prng, shares, workers, false);
    assert_eq!(balanced.len(), shares);
    for step in &balanced {
        assert_eq!(
            step.pusher,
            step.share % workers,
            "balanced deal is round-robin"
        );
    }
    assert!(
        balanced.iter().any(|s| !s.stolen()),
        "balanced rounds must include owner-executed shares"
    );
}

/// Multi-round kernels draw a *fresh* steal order for every round — the
/// cross-round half of the schedule family. A sort pushes many rounds
/// through the pool; each recorded order must be a permutation of that
/// round's shares, at least one round must be visibly reordered, and the
/// whole stream must be deterministic in the seed (replayability is what
/// makes a failing schedule reportable).
#[test]
fn multi_round_kernels_draw_fresh_steal_orders_per_round() {
    let run = || {
        let (a, b) = default_input(600, 3);
        let mut v: Vec<Kv> = a.iter().chain(b.iter()).copied().collect();
        let ((), rec) = record_stealing(21, 4, || {
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
        "no round was reordered across {} rounds — the steal simulation is inert",
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
        "steal orders must replay deterministically"
    );
}

/// Why overlapping rounds from *different* requests is safe: with both
/// requests' buffers live simultaneously, every write span recorded for
/// request 1 is disjoint from every write and read span of request 2 (and
/// vice versa). Two rounds with no W∩W and no W∩R conflicts produce the
/// same result under ANY cross-round interleaving of their shares — the
/// property the work-stealing executor relies on when a worker picks up
/// request 2's shares between two shares of request 1.
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

    let ((), rec1) = record_stealing(31, 4, || {
        parallel_merge_into_by(&a1, &b1, &mut out1, 4, &by_key, &NoRecorder);
    });
    let ((), rec2) = record_stealing(32, 4, || {
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
