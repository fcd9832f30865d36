//! Sort-merge join — the database workload the paper's introduction
//! motivates ("merging two sorted arrays is a prominent building block").
//!
//! Two relations arrive unsorted; both are sorted by join key with the
//! parallel merge sort (§III), then the parallel merge-path partitioner
//! splits the *join* itself into independent, balanced pieces: co-rank
//! tells each worker exactly which key range of each relation it owns.
//!
//! Run: `cargo run --release --example merge_join`

use mergepath_suite::mergepath::partition::partition_segments_by;
use mergepath_suite::mergepath::sort::parallel::parallel_merge_sort_by;
use mergepath_suite::mergepath::telemetry::NoRecorder;
use mergepath_suite::workloads::prng::Prng;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Order {
    user_id: u32,
    amount_cents: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct User {
    user_id: u32,
    region: u8,
}

fn main() {
    let threads = 8;
    let n_orders = 2_000_000usize;
    let n_users = 500_000usize;

    // Unsorted input relations (deterministic in-repo PRNG).
    let mut rnd = Prng::seed_from_u64(42);
    let mut orders: Vec<Order> = (0..n_orders)
        .map(|_| Order {
            user_id: rnd.below(n_users as u64) as u32,
            amount_cents: rnd.below(100_000),
        })
        .collect();
    let mut users: Vec<User> = (0..n_users)
        .map(|i| User {
            user_id: i as u32,
            region: rnd.below(12) as u8,
        })
        .collect();
    // Shuffle users via the keyless sort below — they start sorted by id;
    // scramble first to make the sort earn its keep.
    users.sort_by_key(|u| u.user_id.wrapping_mul(2654435761));

    // Phase 1: parallel stable sorts by join key.
    let by_user = |x: &Order, y: &Order| x.user_id.cmp(&y.user_id);
    parallel_merge_sort_by(&mut orders, threads, &by_user, &NoRecorder);
    let by_id = |x: &User, y: &User| x.user_id.cmp(&y.user_id);
    parallel_merge_sort_by(&mut users, threads, &by_id, &NoRecorder);

    // Phase 2: partition the JOIN with the merge path. Treat the two
    // relations as the two inputs of a merge ordered by key; each segment
    // then covers disjoint, contiguous key ranges of both relations. A
    // worker can join its segment completely independently — same trick,
    // one level up.
    //
    // (Boundary keys may split between segments; co-rank's stable split
    // puts all Orders of a key before all Users of that key, so each
    // worker extends its user range to cover its order keys — a local,
    // bounded adjustment.)
    let keyed_orders: Vec<u32> = orders.iter().map(|o| o.user_id).collect();
    let keyed_users: Vec<u32> = users.iter().map(|u| u.user_id).collect();
    let segments = partition_segments_by(
        keyed_orders.as_slice(),
        keyed_users.as_slice(),
        threads,
        &|x: &u32, y: &u32| x.cmp(y),
    );

    // Each worker merges-joins its slice; results concatenate in key order.
    let mut revenue_by_region = [0u64; 12];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for seg in &segments {
            let orders = &orders[seg.a_start..seg.a_end];
            let users = &users;
            let full_users_from = seg.b_start;
            let handle = scope.spawn(move || {
                let mut local = [0u64; 12];
                let mut u = full_users_from;
                for o in orders {
                    // Advance the user cursor to this order's key. The
                    // cursor may step past the segment's nominal b_end for
                    // boundary keys — reads are shared, so that is safe.
                    while u < users.len() && users[u].user_id < o.user_id {
                        u += 1;
                    }
                    if u < users.len() && users[u].user_id == o.user_id {
                        local[users[u].region as usize] += o.amount_cents;
                    }
                }
                local
            });
            handles.push(handle);
        }
        for h in handles {
            let local = h.join().expect("join worker panicked");
            for (acc, x) in revenue_by_region.iter_mut().zip(local) {
                *acc += x;
            }
        }
    });

    // Oracle: single-threaded hash join.
    let mut expect = [0u64; 12];
    let region_of: Vec<u8> = {
        let mut v = vec![0u8; n_users];
        for u in &users {
            v[u.user_id as usize] = u.region;
        }
        v
    };
    for o in &orders {
        expect[region_of[o.user_id as usize] as usize] += o.amount_cents;
    }
    assert_eq!(revenue_by_region, expect, "parallel join must match oracle");

    println!("sort-merge join of {n_orders} orders x {n_users} users, {threads} threads");
    println!(
        "segment loads (orders): {:?}",
        segments.iter().map(|s| s.a_len()).collect::<Vec<_>>()
    );
    for (region, cents) in revenue_by_region.iter().enumerate() {
        println!("  region {region:2}: ${}.{:02}", cents / 100, cents % 100);
    }
}
