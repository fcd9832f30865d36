//! Differential oracle tests: every parallel merge variant in the core
//! crate must produce output *identical* to the sequential reference merge
//! ([`merge_into_by`]) — not merely sorted output — on a family of
//! adversarial inputs. Elements are `(key, provenance)` pairs compared by
//! key only, so byte-for-byte equality with the stable sequential oracle
//! also pins down stability: within a tie class, all of `A`'s elements
//! precede all of `B`'s, each side in original order.

use mergepath_suite::mergepath::merge::batch::batch_merge_into_by;
use mergepath_suite::mergepath::merge::hierarchical::{
    hierarchical_merge_into_by, HierarchicalConfig,
};
use mergepath_suite::mergepath::merge::inplace::parallel_inplace_merge_by;
use mergepath_suite::mergepath::merge::kway::parallel_kway_merge_by;
use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
use mergepath_suite::mergepath::merge::segmented::{
    segmented_parallel_merge_into_by, SpmConfig, Staging,
};
use mergepath_suite::mergepath::merge::sequential::{merge_into_by, natural_cmp};
use mergepath_suite::workloads::prng::Prng;

/// A keyed element: compared by `.0`, disambiguated by provenance `.1`.
type Kv = (i32, u32);

fn cmp(x: &Kv, y: &Kv) -> std::cmp::Ordering {
    x.0.cmp(&y.0)
}

/// Tags `a`'s elements with provenance 0.. and `b`'s with 1_000_000.. so
/// every element of the merged output is globally unique.
fn tag(a: &[i32], b: &[i32]) -> (Vec<Kv>, Vec<Kv>) {
    let ta = a.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
    let tb = b
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, 1_000_000 + i as u32))
        .collect();
    (ta, tb)
}

/// The adversarial input families from the paper's worst cases: heavy
/// ties, one-sided consumption, duplicate-dense keys, interleaved runs.
fn adversarial_inputs() -> Vec<(&'static str, Vec<i32>, Vec<i32>)> {
    let mut rng = Prng::seed_from_u64(0xD1FF);
    let mut random_sorted = |len: usize, key_space: u64| -> Vec<i32> {
        let mut v: Vec<i32> = (0..len).map(|_| rng.below(key_space) as i32).collect();
        v.sort_unstable();
        v
    };
    vec![
        ("all_equal", vec![7; 700], vec![7; 450]),
        ("one_side_empty", (0..900).collect(), vec![]),
        ("other_side_empty", vec![], (0..900).collect()),
        (
            "duplicate_heavy",
            random_sorted(800, 5),
            random_sorted(650, 5),
        ),
        (
            "interleaved_runs",
            (0..600).map(|x| x * 2).collect(),
            (0..600).map(|x| x * 2 + 1).collect(),
        ),
        (
            "disjoint_a_below_b",
            (0..500).collect(),
            (1000..1600).collect(),
        ),
        (
            "disjoint_b_below_a",
            (1000..1600).collect(),
            (0..500).collect(),
        ),
        (
            "random_with_ties",
            random_sorted(731, 90),
            random_sorted(977, 90),
        ),
        ("singleton_vs_run", vec![250], (0..500).collect()),
    ]
}

/// Stability invariant, checked directly on the merged output: within a
/// run of equal keys, provenance must be ordered "all A (ascending), then
/// all B (ascending)".
fn assert_stable(out: &[Kv], name: &str) {
    for w in out.windows(2) {
        if w[0].0 == w[1].0 {
            assert!(
                w[0].1 < w[1].1,
                "{name}: tie class out of stable order: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn every_variant_matches_the_sequential_oracle() {
    for (name, ka, kb) in adversarial_inputs() {
        let (a, b) = tag(&ka, &kb);
        let n = a.len() + b.len();
        let mut oracle = vec![(0, 0); n];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        assert_stable(&oracle, name);

        for threads in [1usize, 2, 3, 5, 8, 16] {
            let label = format!("{name}, threads={threads}");

            let mut out = vec![(0, 0); n];
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp);
            assert_eq!(out, oracle, "parallel: {label}");

            for staging in [Staging::Windowed, Staging::Cyclic] {
                let spm = SpmConfig::new(91, threads).with_staging(staging);
                out.fill((0, 0));
                segmented_parallel_merge_into_by(&a, &b, &mut out, &spm, &cmp);
                assert_eq!(out, oracle, "segmented {staging:?}: {label}");
            }

            let pairs: Vec<(&[Kv], &[Kv])> = vec![(&a, &b)];
            out.fill((0, 0));
            batch_merge_into_by(&pairs, &mut out, threads, &cmp);
            assert_eq!(out, oracle, "batch: {label}");

            let mut v: Vec<Kv> = a.iter().chain(b.iter()).copied().collect();
            parallel_inplace_merge_by(&mut v, a.len(), threads, &cmp);
            assert_eq!(v, oracle, "inplace: {label}");

            let lists: Vec<&[Kv]> = vec![&a, &b];
            out.fill((0, 0));
            parallel_kway_merge_by(&lists, &mut out, threads, &cmp);
            assert_eq!(out, oracle, "kway: {label}");

            let hier = HierarchicalConfig {
                blocks: threads,
                threads_per_block: 4,
                tile: 64,
            };
            out.fill((0, 0));
            hierarchical_merge_into_by(&a, &b, &mut out, &hier, &cmp);
            assert_eq!(out, oracle, "hierarchical: {label}");
        }
    }
}

#[test]
fn every_dispatch_policy_matches_the_oracle_on_every_family() {
    // The adaptive layer's contract: whatever kernel the run-structure
    // probe picks — and whatever kernel a fixed policy pins — the output
    // is byte-identical to the sequential oracle on all nine adversarial
    // families. The sweep covers Adaptive plus each kernel forced, so a
    // probe misroute can only ever cost speed, never correctness; the
    // scoped override serializes concurrent sweeps. Each family runs twice:
    // as keyed pairs, where stability is observable and the probe sends
    // duplicate-heavy segments to co-rank, and as bare keys under
    // `natural_cmp`, which the probe recognizes by comparator type
    // identity and sends to galloping instead.
    use mergepath_suite::mergepath::merge::adaptive::{
        with_dispatch_policy, DispatchPolicy, SegmentKernel,
    };
    let policies = [
        DispatchPolicy::Adaptive,
        DispatchPolicy::Fixed(SegmentKernel::Classic),
        DispatchPolicy::Fixed(SegmentKernel::BranchLean),
        DispatchPolicy::Fixed(SegmentKernel::Galloping),
        // Forced-CoRank routes every segment through the co-rank stable
        // block kernel, whose block cuts are the provably unique stable
        // splits — these families are where that proof is observable.
        DispatchPolicy::Fixed(SegmentKernel::CoRank),
    ];
    for (name, ka, kb) in adversarial_inputs() {
        let (a, b) = tag(&ka, &kb);
        let n = a.len() + b.len();
        let mut oracle = vec![(0, 0); n];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        let mut bare_oracle = vec![0i32; n];
        merge_into_by(&ka, &kb, &mut bare_oracle, &natural_cmp);
        for policy in policies {
            with_dispatch_policy(policy, || {
                for threads in [1usize, 3, 8] {
                    let mut out = vec![(0, 0); n];
                    parallel_merge_into_by(&a, &b, &mut out, threads, &cmp);
                    assert_eq!(out, oracle, "{name}: {policy:?}, threads={threads}");

                    let pairs: Vec<(&[Kv], &[Kv])> = vec![(&a, &b)];
                    out.fill((0, 0));
                    batch_merge_into_by(&pairs, &mut out, threads, &cmp);
                    assert_eq!(out, oracle, "batch {name}: {policy:?}, threads={threads}");

                    let mut bare = vec![0i32; n];
                    parallel_merge_into_by(&ka, &kb, &mut bare, threads, &natural_cmp);
                    assert_eq!(
                        bare, bare_oracle,
                        "bare {name}: {policy:?}, threads={threads}"
                    );
                }
            });
        }
    }
}

#[test]
fn every_policy_matches_the_oracle_on_every_natural_order_key_type() {
    // The probe recognizes `natural_cmp` of `u32`, `i32`, `u64` and `i64`
    // by comparator type identity; the matrix above runs bare `i32` only.
    // Here every family is remapped monotonically onto the other three
    // types (its keys are non-negative) and cut to prefixes whose sums
    // straddle `PROBE_MIN_LEN`, the seam where a single-segment merge
    // leaves the classic kernel for the probe, as well as at full length.
    use mergepath_suite::mergepath::merge::adaptive::{
        with_dispatch_policy, DispatchPolicy, SegmentKernel, PROBE_MIN_LEN,
    };
    fn check<K>(family: &str, ka: &[i32], kb: &[i32], key: impl Fn(i32) -> K)
    where
        K: Ord + Clone + Default + Send + Sync + std::fmt::Debug,
    {
        let a: Vec<K> = ka.iter().map(|&k| key(k)).collect();
        let b: Vec<K> = kb.iter().map(|&k| key(k)).collect();
        let half = PROBE_MIN_LEN / 2;
        let cuts = |len: usize| [0, half - 1, half, half + 1, len].map(|c| c.min(len));
        let mut policies = vec![DispatchPolicy::Adaptive];
        policies.extend(SegmentKernel::ALL.map(DispatchPolicy::Fixed));
        for la in cuts(a.len()) {
            for lb in cuts(b.len()) {
                let (a, b) = (&a[..la], &b[..lb]);
                let mut oracle = vec![K::default(); la + lb];
                merge_into_by(a, b, &mut oracle, &natural_cmp);
                for &policy in &policies {
                    with_dispatch_policy(policy, || {
                        for threads in [1usize, 3, 8] {
                            let mut out = vec![K::default(); la + lb];
                            parallel_merge_into_by(a, b, &mut out, threads, &natural_cmp);
                            let ty = std::any::type_name::<K>();
                            let ctx = format!("{family} as {ty}: la={la} lb={lb}");
                            assert_eq!(out, oracle, "{ctx} {policy:?} threads={threads}");
                        }
                    });
                }
            }
        }
    }
    for (name, ka, kb) in adversarial_inputs() {
        check(name, &ka, &kb, |k| k as u32);
        check(name, &ka, &kb, |k| (k as u64) << 40);
        check(name, &ka, &kb, |k| i64::from(k) - 800);
    }
}

#[test]
fn adaptive_dispatch_survives_permuted_schedules_under_forced_kernels() {
    // The schedule dimension crossed with the dispatch dimension: every
    // kernel of the schedule checker runs under permuted virtual schedules
    // while the segment dispatch is pinned to each sequential kernel in
    // turn. CREW exclusivity and coverage must hold regardless of which
    // inner kernel writes the segments.
    use mergepath_check::{check_kernel_on, CheckConfig, Kernel};
    use mergepath_suite::mergepath::merge::adaptive::{
        with_dispatch_policy, DispatchPolicy, SegmentKernel,
    };
    let (name, ka, kb) = &adversarial_inputs()[3]; // duplicate_heavy
    let (a, b) = tag(ka, kb);
    let cfg = CheckConfig {
        threads: 4,
        schedules: 4,
        seed: 0xD1FF,
        pram_limit: 0,
        steal_orders: false,
    };
    for policy in [
        DispatchPolicy::Adaptive,
        DispatchPolicy::Fixed(SegmentKernel::Classic),
        DispatchPolicy::Fixed(SegmentKernel::BranchLean),
        DispatchPolicy::Fixed(SegmentKernel::Galloping),
        DispatchPolicy::Fixed(SegmentKernel::CoRank),
    ] {
        with_dispatch_policy(policy, || {
            for &kernel in &Kernel::ALL {
                if let Err(e) = check_kernel_on(kernel, &a, &b, &cfg) {
                    panic!("{name}: {} under {policy:?}: {e}", kernel.name());
                }
            }
        });
    }
}

#[test]
fn every_kernel_survives_permuted_schedules_on_adversarial_inputs() {
    // The schedule dimension: each adversarial family runs under 8
    // seed-permuted virtual schedules per kernel (mergepath-check's
    // deterministic executor). The checker demands byte-identical agreement
    // with its sequential oracle on every schedule *and* verifies CREW
    // disjointness, exact coverage and the Thm 14 bound on the recorded
    // access sets — turning each differential case into a scheduling proof.
    use mergepath_check::{check_kernel_on, CheckConfig, Kernel};
    for (name, ka, kb) in adversarial_inputs() {
        let (a, b) = tag(&ka, &kb);
        for threads in [2usize, 4] {
            let cfg = CheckConfig {
                threads,
                schedules: 8,
                seed: 0xD1FF ^ threads as u64,
                pram_limit: 0, // machine cross-validation covered in mergepath-check
                steal_orders: false,
            };
            for &kernel in &Kernel::ALL {
                if let Err(e) = check_kernel_on(kernel, &a, &b, &cfg) {
                    panic!("{name}: {} threads={threads}: {e}", kernel.name());
                }
            }
        }
    }
}

#[test]
fn batch_variant_matches_oracle_on_ragged_batches() {
    // The batch kernel's own adversary: many pairs of wildly different
    // sizes, including empty pairs, merged under one worker budget.
    let families = adversarial_inputs();
    let tagged: Vec<(Vec<Kv>, Vec<Kv>)> = families.iter().map(|(_, ka, kb)| tag(ka, kb)).collect();
    let pairs: Vec<(&[Kv], &[Kv])> = tagged
        .iter()
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    let mut oracle = Vec::new();
    for (a, b) in &pairs {
        let mut m = vec![(0, 0); a.len() + b.len()];
        merge_into_by(a, b, &mut m, &cmp);
        oracle.extend(m);
    }
    for threads in [1usize, 3, 8, 32] {
        let mut out = vec![(0, 0); oracle.len()];
        batch_merge_into_by(&pairs, &mut out, threads, &cmp);
        assert_eq!(out, oracle, "threads={threads}");
    }
}

#[test]
fn kway_variant_matches_oracle_on_many_lists() {
    // k > 2 sorted lists with shared provenance-tagged key space: the
    // k-way merge's stable order is "by key, then by list index, then by
    // position", which a pairwise fold of the sequential oracle yields
    // when each list's provenance band is ordered by list index.
    let mut rng = Prng::seed_from_u64(0xCAFE);
    let lists_data: Vec<Vec<Kv>> = (0..7)
        .map(|li| {
            let len = 100 + rng.below(400) as usize;
            let mut keys: Vec<i32> = (0..len).map(|_| rng.below(40) as i32).collect();
            keys.sort_unstable();
            keys.iter()
                .enumerate()
                .map(|(i, &k)| (k, li as u32 * 1_000_000 + i as u32))
                .collect()
        })
        .collect();
    let lists: Vec<&[Kv]> = lists_data.iter().map(|l| l.as_slice()).collect();
    // Fold with the two-way oracle; provenance bands keep the fold stable.
    let mut oracle: Vec<Kv> = Vec::new();
    for l in &lists {
        let mut next = vec![(0, 0); oracle.len() + l.len()];
        merge_into_by(&oracle, l, &mut next, &cmp);
        oracle = next;
    }
    assert_stable(&oracle, "kway_fold");
    for threads in [1usize, 2, 5, 9] {
        let mut out = vec![(0, 0); oracle.len()];
        parallel_kway_merge_by(&lists, &mut out, threads, &cmp);
        assert_eq!(out, oracle, "threads={threads}");
    }
}
