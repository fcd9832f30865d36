//! Differential oracle tests: every parallel merge variant in the core
//! crate must produce output *identical* to the sequential reference merge
//! ([`merge_into_by`]) — not merely sorted output — on a family of
//! adversarial inputs. Elements are `(key, provenance)` pairs compared by
//! key only, so byte-for-byte equality with the stable sequential oracle
//! also pins down stability: within a tie class, all of `A`'s elements
//! precede all of `B`'s, each side in original order.
//!
//! The parallel kernels run under the probe's own per-segment choices. A
//! kernel is forced by calling it: every [`SegmentKernel`] runs directly on
//! every segment `partition_segments_by` cuts, and each segment's output
//! must equal the oracle's slice at the segment's output range.

use mergepath_suite::mergepath::merge::adaptive::{SegmentKernel, PROBE_MIN_LEN};
use mergepath_suite::mergepath::merge::batch::batch_merge_into_by;
use mergepath_suite::mergepath::merge::inplace::parallel_inplace_merge_by;
use mergepath_suite::mergepath::merge::kway::parallel_kway_merge_by;
use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
use mergepath_suite::mergepath::merge::segmented::{
    segmented_parallel_merge_into_by, SpmConfig, Staging,
};
use mergepath_suite::mergepath::merge::sequential::{merge_into_by, natural_cmp};
use mergepath_suite::mergepath::partition::{partition_segments_by, tile_count};
use mergepath_suite::mergepath::telemetry::NoRecorder;
use mergepath_suite::workloads::prng::Prng;
use mergepath_suite::workloads::{merge_pair, MergeWorkload};

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
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, oracle, "parallel: {label}");

            for staging in [Staging::Windowed, Staging::Cyclic] {
                let spm = SpmConfig::new(91, threads).with_staging(staging);
                out.fill((0, 0));
                segmented_parallel_merge_into_by(&a, &b, &mut out, &spm, &cmp, &NoRecorder);
                assert_eq!(out, oracle, "segmented {staging:?}: {label}");
            }

            let pairs: Vec<(&[Kv], &[Kv])> = vec![(&a, &b)];
            out.fill((0, 0));
            batch_merge_into_by(&pairs, &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, oracle, "batch: {label}");

            let mut v: Vec<Kv> = a.iter().chain(b.iter()).copied().collect();
            parallel_inplace_merge_by(&mut v, a.len(), threads, &cmp, &NoRecorder);
            assert_eq!(v, oracle, "inplace: {label}");

            let lists: Vec<&[Kv]> = vec![&a, &b];
            out.fill((0, 0));
            parallel_kway_merge_by(&lists, &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, oracle, "kway: {label}");
        }
    }
}

/// How many one-sided segments (one input empty) and empty segments
/// [`kernels_match_the_oracle_on_every_segment`] merged.
#[derive(Default)]
struct Coverage {
    one_sided: usize,
    empty: usize,
}

/// Cuts `a`, `b` into `p` segments with `partition_segments_by` for each
/// `p` in 3 and 8, runs every [`SegmentKernel`] directly on each segment,
/// and asserts each output equals `oracle` (the stable merge of the whole
/// pair) at the segment's output range.
fn kernels_match_the_oracle_on_every_segment<T, F>(
    a: &[T],
    b: &[T],
    oracle: &[T],
    cmp: &F,
    ctx: &str,
    seen: &mut Coverage,
) where
    T: Clone + Default + PartialEq + std::fmt::Debug,
    F: Fn(&T, &T) -> std::cmp::Ordering,
{
    for p in [3usize, 8] {
        for seg in partition_segments_by(a, b, p, cmp) {
            let (sa, sb) = (&a[seg.a_start..seg.a_end], &b[seg.b_start..seg.b_end]);
            let expect = &oracle[seg.out_start..seg.out_end];
            seen.empty += usize::from(seg.is_empty());
            seen.one_sided += usize::from(!seg.is_empty() && (sa.is_empty() || sb.is_empty()));
            for kernel in SegmentKernel::ALL {
                let mut out = vec![T::default(); expect.len()];
                kernel.merge_into_by(sa, sb, &mut out, cmp);
                assert_eq!(out, expect, "{ctx}: {kernel:?} p={p} segment {seg:?}");
            }
        }
    }
}

#[test]
fn probed_dispatch_matches_the_oracle_on_every_family() {
    // The adaptive layer's contract: whatever kernel the run-structure
    // probe picks, the output is byte-identical to the sequential oracle
    // on all nine adversarial families. The test above runs them as keyed
    // pairs, where stability is observable; here they run as bare keys
    // under `natural_cmp`, the comparator the natural-order entry points
    // pass.
    for (name, ka, kb) in adversarial_inputs() {
        let mut oracle = vec![0i32; ka.len() + kb.len()];
        merge_into_by(&ka, &kb, &mut oracle, &natural_cmp);
        for threads in [1usize, 3, 8] {
            let mut out = vec![0i32; oracle.len()];
            parallel_merge_into_by(&ka, &kb, &mut out, threads, &natural_cmp, &NoRecorder);
            assert_eq!(out, oracle, "bare {name}: threads={threads}");

            let pairs: Vec<(&[i32], &[i32])> = vec![(&ka, &kb)];
            out.fill(0);
            batch_merge_into_by(&pairs, &mut out, threads, &natural_cmp, &NoRecorder);
            assert_eq!(out, oracle, "bare batch {name}: threads={threads}");
        }
    }
}

/// The thread counts the tiled differentials run at.
const TILED_THREADS: [usize; 4] = [1, 2, 3, 8];

/// One pair of 2^16 + 2^16 keys from every merge family: 2^17 outputs,
/// which Algorithm 1 cuts into more tiles than threads at every count in
/// [`TILED_THREADS`], so each tile runs the kernel the probe picks for it
/// (a zipfian pair mixes galloping and branch-lean tiles).
fn tiled_pairs() -> Vec<(MergeWorkload, Vec<u32>, Vec<u32>)> {
    MergeWorkload::ALL
        .iter()
        .enumerate()
        .map(|(i, &family)| {
            let (a, b) = merge_pair(family, 1 << 16, 0x711E + i as u64);
            (family, a, b)
        })
        .collect()
}

#[test]
fn tiled_merges_match_the_oracle_on_every_family() {
    // Bare keys under `natural_cmp`, and the same keys as provenance-tagged
    // pairs (stability observable): both kernels that tile must equal the
    // sequential oracle at every thread count, whatever kernel each tile
    // picks.
    for (family, ka, kb) in tiled_pairs() {
        let n = ka.len() + kb.len();
        for threads in TILED_THREADS {
            assert!(tile_count(n, threads) > threads, "{family:?} must tile");
        }
        let mut oracle = vec![0u32; n];
        merge_into_by(&ka, &kb, &mut oracle, &natural_cmp);
        let keyed = |k: &[u32]| k.iter().map(|&x| (x >> 1) as i32).collect::<Vec<i32>>();
        let (a, b) = tag(&keyed(&ka), &keyed(&kb));
        let mut keyed_oracle = vec![(0, 0); n];
        merge_into_by(&a, &b, &mut keyed_oracle, &cmp);
        assert_stable(&keyed_oracle, "tiled oracle");
        for threads in TILED_THREADS {
            let label = format!("{family:?}, threads={threads}");
            let mut out = vec![0u32; n];
            parallel_merge_into_by(&ka, &kb, &mut out, threads, &natural_cmp, &NoRecorder);
            assert_eq!(out, oracle, "bare parallel: {label}");
            out.fill(0);
            let pair = [(&ka[..], &kb[..])];
            batch_merge_into_by(&pair, &mut out, threads, &natural_cmp, &NoRecorder);
            assert_eq!(out, oracle, "bare batch: {label}");

            let mut out = vec![(0, 0); n];
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, keyed_oracle, "keyed parallel: {label}");
            out.fill((0, 0));
            batch_merge_into_by(&[(&a[..], &b[..])], &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, keyed_oracle, "keyed batch: {label}");
        }
    }
}

#[test]
fn every_kernel_matches_the_oracle_on_every_keyed_segment() {
    // Forcing a kernel inside a parallel kernel adds nothing a direct run
    // misses: every segment kernel is safe sequential code that writes
    // only its own output slice. So each kernel runs on every segment the
    // partition cuts, and equality with the provenance-tagged oracle's
    // slice judges stability by provenance. A five-element prefix of each
    // family at p = 8 yields empty segments.
    let mut seen = Coverage::default();
    for (name, ka, kb) in adversarial_inputs() {
        let (a, b) = tag(&ka, &kb);
        let (short_a, short_b) = (&a[..a.len().min(2)], &b[..b.len().min(3)]);
        for (a, b) in [(&a[..], &b[..]), (short_a, short_b)] {
            let mut oracle = vec![(0, 0); a.len() + b.len()];
            merge_into_by(a, b, &mut oracle, &cmp);
            assert_stable(&oracle, name);
            let ctx = format!("{name} |a|={} |b|={}", a.len(), b.len());
            kernels_match_the_oracle_on_every_segment(a, b, &oracle, &cmp, &ctx, &mut seen);
        }
    }
    assert!(seen.one_sided > 0, "no one-sided segment merged");
    assert!(seen.empty > 0, "no empty segment merged");
}

/// Every family remapped monotonically onto `K` (its keys are
/// non-negative) and cut to prefixes whose sums straddle `PROBE_MIN_LEN`,
/// the seam where a single-segment merge leaves the classic kernel for
/// the probe, as well as at full length.
fn natural_prefixes<K: Clone>(
    ka: &[i32],
    kb: &[i32],
    key: impl Fn(i32) -> K,
) -> Vec<(Vec<K>, Vec<K>)> {
    let a: Vec<K> = ka.iter().map(|&k| key(k)).collect();
    let b: Vec<K> = kb.iter().map(|&k| key(k)).collect();
    let half = PROBE_MIN_LEN / 2;
    let cuts = |len: usize| [0, half - 1, half, half + 1, len].map(|c| c.min(len));
    let mut out = Vec::new();
    for la in cuts(a.len()) {
        for lb in cuts(b.len()) {
            out.push((a[..la].to_vec(), b[..lb].to_vec()));
        }
    }
    out
}

#[test]
fn probed_dispatch_matches_the_oracle_on_every_natural_order_key_type() {
    // The probe recognizes `natural_cmp` of `u32`, `i32`, `u64` and `i64`
    // by comparator type identity; the test above runs bare `i32` only.
    fn check<K>(family: &str, ka: &[i32], kb: &[i32], key: impl Fn(i32) -> K)
    where
        K: Ord + Clone + Default + Send + Sync + std::fmt::Debug,
    {
        for (a, b) in natural_prefixes(ka, kb, key) {
            let mut oracle = vec![K::default(); a.len() + b.len()];
            merge_into_by(&a, &b, &mut oracle, &natural_cmp);
            for threads in [1usize, 3, 8] {
                let mut out = vec![K::default(); oracle.len()];
                parallel_merge_into_by(&a, &b, &mut out, threads, &natural_cmp, &NoRecorder);
                let ty = std::any::type_name::<K>();
                let (la, lb) = (a.len(), b.len());
                assert_eq!(
                    out, oracle,
                    "{family} as {ty}: la={la} lb={lb} threads={threads}"
                );
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
fn every_kernel_matches_the_oracle_on_every_natural_order_segment() {
    // The direct kernel runs of the keyed test, on bare keys under the
    // canonical natural order of each primitive the probe recognizes.
    fn check<K>(family: &str, ka: &[i32], kb: &[i32], key: impl Fn(i32) -> K) -> Coverage
    where
        K: Ord + Clone + Default + std::fmt::Debug,
    {
        let mut seen = Coverage::default();
        for (a, b) in natural_prefixes(ka, kb, key) {
            let mut oracle = vec![K::default(); a.len() + b.len()];
            merge_into_by(&a, &b, &mut oracle, &natural_cmp);
            let ty = std::any::type_name::<K>();
            let ctx = format!("{family} as {ty}: la={} lb={}", a.len(), b.len());
            kernels_match_the_oracle_on_every_segment(
                &a,
                &b,
                &oracle,
                &natural_cmp,
                &ctx,
                &mut seen,
            );
        }
        seen
    }
    for (name, ka, kb) in adversarial_inputs() {
        for seen in [
            check(name, &ka, &kb, |k| k as u32),
            check(name, &ka, &kb, |k| (k as u64) << 40),
            check(name, &ka, &kb, |k| i64::from(k) - 800),
        ] {
            assert!(
                seen.empty > 0 && seen.one_sided > 0,
                "{name}: thin coverage"
            );
        }
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
        batch_merge_into_by(&pairs, &mut out, threads, &cmp, &NoRecorder);
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
        parallel_kway_merge_by(&lists, &mut out, threads, &cmp, &NoRecorder);
        assert_eq!(out, oracle, "threads={threads}");
    }
}
