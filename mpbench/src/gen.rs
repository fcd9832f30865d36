//! Seeded inputs. Every input is a function of `--seed`; the program only
//! ever sees the generated keys.

use mergepath_workloads::prng::{splitmix64, Prng};
use mergepath_workloads::{
    arrival_plan, merge_pair, merge_pair_sized, ArrivalPattern, MergeWorkload, PlanConfig,
    SortWorkload,
};

use crate::sut::{NetOp, NetRequest};

/// The seed of input stream `k` of a run seeded with `seed`.
pub fn stream(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(k)
}

/// `n` ascending keys spread over the whole `u32` range, generated in
/// O(n) as running sums of seeded gaps (no sort), so out-of-cache inputs
/// cost a fraction of a second rather than a sort of the same size. Gaps
/// are uniform in `0..2g` for a mean gap `g` that lands the expected last
/// key near `u32::MAX`; the sum saturates, so the output is sorted on any
/// seed.
pub fn sorted_run(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Prng::seed_from_u64(seed);
    let span = (2 * (u64::from(u32::MAX) / (n as u64 + 1))).max(1);
    let mut key = 0u32;
    (0..n)
        .map(|_| {
            key = key.saturating_add(rng.below(span) as u32);
            key
        })
        .collect()
}

/// Order-independent hash of a key multiset: equal for any permutation,
/// so a merge output can be checked against its inputs without a second
/// output-sized buffer.
pub fn multiset_hash(keys: &[u32]) -> u64 {
    keys.iter().fold(0u64, |acc, &k| {
        let mut s = u64::from(k);
        acc.wrapping_add(splitmix64(&mut s))
    })
}

/// Whether `keys` is ascending, and its [`multiset_hash`]: the check of an
/// out-of-cache merge output, split over `threads` threads of the
/// benchmark's own so checking does not crowd out the timed ops.
pub fn sorted_and_hash(keys: &[u32], threads: usize) -> (bool, u64) {
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = (0..keys.len())
            .step_by(chunk)
            .map(|start| {
                // Each part also compares its first key with the one before.
                let part = &keys[start.saturating_sub(1)..(start + chunk).min(keys.len())];
                let own = &keys[start..(start + chunk).min(keys.len())];
                s.spawn(move || {
                    let sorted = part.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]));
                    (sorted, multiset_hash(own))
                })
            })
            .collect();
        parts.into_iter().fold((true, 0u64), |(ok, h), t| {
            let (part_ok, part_h) = t.join().expect("check thread panicked");
            (ok && part_ok, h.wrapping_add(part_h))
        })
    })
}

/// `a` and `b` merged by the standard library's sort: the oracle every
/// merge output is compared with, independent of the code under test.
pub fn std_merged(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut v = [a, b].concat();
    v.sort();
    v
}

/// A key the merge of `a` and `b` cannot start with: the complement of its
/// first key. Output buffers are filled with it before every merge, so a
/// merge that leaves any part of its output unwritten fails the check
/// instead of passing on the previous run's answer.
pub fn sentinel(a: &[u32], b: &[u32]) -> u32 {
    !a.first()
        .into_iter()
        .chain(b.first())
        .min()
        .copied()
        .unwrap_or(0)
}

/// The five `merge_small` families: four that steer the adaptive kernel
/// to different segment kernels, and the degenerate all-equal input.
pub const SMALL_FAMILIES: [&str; 5] =
    ["uniform", "zipfian", "duplicate-heavy", "runs", "all-equal"];

/// A sorted pair of `n` keys per side from the family named `family`.
pub fn small_pair(family: &str, n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let family = match family {
        "uniform" => MergeWorkload::Uniform,
        "zipfian" => MergeWorkload::Zipfian,
        "duplicate-heavy" => MergeWorkload::DuplicateHeavy,
        "runs" => MergeWorkload::Runs,
        _ => {
            let key = Prng::seed_from_u64(seed).next_u32();
            return (vec![key; n], vec![key; n]);
        }
    };
    merge_pair(family, n, seed)
}

/// The four `sort_mix` families, in the order ops rotate through them.
pub const SORT_FAMILIES: [SortWorkload; 4] = [
    SortWorkload::Uniform,
    SortWorkload::DuplicateHeavy,
    SortWorkload::NearlySorted,
    SortWorkload::OrganPipe,
];

/// `len` requests as `mp serve` draws them: the repository's arrival
/// plan ([`arrival_plan`]) with a mean per-side length of `mean_len` and a
/// mean relative deadline of `deadline_ns`, so families are drawn
/// uniformly from the nine merge families, per-side lengths from
/// `[mean_len/2, 3·mean_len/2)` and deadlines from `[deadline_ns/2,
/// 3·deadline_ns/2)`. Each request's inputs are regenerated from its spec
/// by [`merge_pair_sized`], as `mp serve` does. Returns each request's
/// family name with it.
pub fn serve_requests(
    len: usize,
    mean_len: usize,
    deadline_ns: u64,
    seed: u64,
) -> Vec<(&'static str, NetRequest)> {
    let plan = arrival_plan(&PlanConfig {
        pattern: ArrivalPattern::Steady,
        requests: len,
        // Only the request contents are used: legs replay arrivals of
        // their own (see [`arrivals`]).
        mean_gap_ns: 1,
        deadline_ns,
        mean_len,
        seed,
    });
    plan.iter()
        .map(|spec| {
            let (a, b) = merge_pair_sized(spec.workload, spec.len_a, spec.len_b, spec.data_seed);
            let req = NetRequest {
                id: spec.id as u64,
                deadline_rel_ns: spec.deadline_ns,
                op: NetOp::Merge { a, b },
            };
            (spec.workload.name(), req)
        })
        .collect()
}

/// The first `n` arrival times of the repository's arrival process
/// `pattern` at `rate` requests per second, in ns from the start.
pub fn arrivals(pattern: ArrivalPattern, rate: f64, n: usize, seed: u64) -> Vec<u64> {
    arrival_plan(&PlanConfig {
        pattern,
        requests: n,
        mean_gap_ns: (1e9 / rate) as u64,
        deadline_ns: 0,
        mean_len: 1,
        seed,
    })
    .iter()
    .map(|spec| spec.arrival_ns)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_sorted(v: &[u32]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn sorted_run_is_deterministic_sorted_and_seeded() {
        let a = sorted_run(100_000, 7);
        assert_eq!(a, sorted_run(100_000, 7), "same seed, same bytes");
        assert_ne!(a, sorted_run(100_000, 8), "another seed differs");
        assert!(is_sorted(&a));
        // Spread over the range: the last key is in the top eighth.
        assert!(*a.last().unwrap() > u32::MAX / 8 * 7);
        assert!(sorted_run(0, 1).is_empty());
        assert!(is_sorted(&sorted_run(3, 1)));
    }

    #[test]
    fn multiset_hash_ignores_order_but_not_content() {
        let v = sorted_run(1000, 3);
        let mut shuffled = v.clone();
        Prng::seed_from_u64(1).shuffle(&mut shuffled);
        assert_eq!(multiset_hash(&v), multiset_hash(&shuffled));
        shuffled[0] ^= 1;
        assert_ne!(multiset_hash(&v), multiset_hash(&shuffled));
    }

    #[test]
    fn sorted_and_hash_checks_every_part_and_every_seam() {
        let v = sorted_run(1001, 4);
        for threads in [1, 2, 3, 7] {
            assert_eq!(sorted_and_hash(&v, threads), (true, multiset_hash(&v)));
            // An inversion at the seam between two parts is caught.
            let seam = v.len().div_ceil(threads).min(v.len() - 1);
            let mut bad = v.clone();
            bad.swap(seam - 1, seam);
            assert!(!sorted_and_hash(&bad, threads).0, "threads={threads}");
        }
        assert_eq!(sorted_and_hash(&[], 2), (true, 0));
    }

    #[test]
    fn small_pairs_are_sorted_and_seeded() {
        for family in SMALL_FAMILIES {
            let (a, b) = small_pair(family, 512, 9);
            assert_eq!((a.len(), b.len()), (512, 512), "{family}");
            assert!(is_sorted(&a) && is_sorted(&b), "{family}");
            assert_eq!(
                (a.clone(), b.clone()),
                small_pair(family, 512, 9),
                "{family}"
            );
        }
    }

    #[test]
    fn serve_requests_follow_the_mp_serve_plan() {
        let reqs = serve_requests(1000, 2048, 50_000_000, 5);
        assert_eq!(reqs.len(), 1000);
        let again = serve_requests(1000, 2048, 50_000_000, 5);
        let other = serve_requests(1000, 2048, 50_000_000, 6);
        let ops = |v: &[(&str, NetRequest)]| v.iter().map(|r| r.1.op.clone()).collect::<Vec<_>>();
        assert!(ops(&reqs) == ops(&again), "same seed, same requests");
        assert!(ops(&reqs) != ops(&other), "another seed differs");
        let mut families: Vec<&str> = reqs.iter().map(|r| r.0).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(
            families.len(),
            MergeWorkload::ALL.len(),
            "all nine families"
        );
        let mut deadlines = std::collections::BTreeSet::new();
        for (_, req) in &reqs {
            let NetOp::Merge { a, b } = &req.op else {
                panic!("mp serve traffic is merges only");
            };
            assert!((1024..3072).contains(&a.len()) && (1024..3072).contains(&b.len()));
            assert!(is_sorted(a) && is_sorted(b));
            assert!((25_000_000..75_000_000).contains(&req.deadline_rel_ns));
            deadlines.insert(req.deadline_rel_ns);
        }
        assert!(deadlines.len() > 900, "deadlines differ, so EDF reorders");
    }

    #[test]
    fn arrivals_keep_the_rate_and_the_pattern() {
        let steady = arrivals(ArrivalPattern::Steady, 4000.0, 4000, 1);
        let bursty = arrivals(ArrivalPattern::Bursty, 4000.0, 4000, 1);
        for at in [&steady, &bursty] {
            assert_eq!(at.len(), 4000);
            assert!(at.windows(2).all(|w| w[0] <= w[1]));
            // About one second for 4000 requests at 4000 per second.
            let secs = *at.last().unwrap() as f64 / 1e9;
            assert!((0.7..1.3).contains(&secs), "{secs}");
        }
        // Bursts: most gaps under a sixteenth of the mean gap of 250 us.
        let tiny = |at: &[u64]| {
            at.windows(2)
                .filter(|w| w[1] - w[0] <= 250_000 / 16)
                .count()
        };
        assert_eq!(tiny(&steady), 0);
        assert!(tiny(&bursty) > 2000);
        assert_eq!(bursty, arrivals(ArrivalPattern::Bursty, 4000.0, 4000, 1));
    }
}
