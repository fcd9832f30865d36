//! Stability-proving differential suite: keyed `(key, original_index)`
//! pairs over nine adversarial families, asserting **byte-identical**
//! order with the sequential stable oracle — for the parallel kernels
//! under the probe's own per-segment choices at three thread counts, and
//! for every segment kernel run directly on every segment
//! `partition_segments_by` cuts.
//!
//! `tests/oracle_differential.rs` proves every kernel equals the oracle;
//! this suite is the dedicated *stability* layer (ROADMAP: keyed-pair
//! duplicate-heavy differential). Each element carries its original index
//! as provenance the comparator never sees, so equality with the stable
//! oracle pins the exact tie order: within every tie class, all of `A`'s
//! elements precede all of `B`'s, each side in original input order. The
//! families are sized past the adaptive probe's minimum (256) so every
//! kernel executes its real code path, not a short-input fallback, and the
//! duplicate-heavy ones send every tile to galloping, the kernel that
//! merges keyed tie classes.

use std::cmp::Ordering;

use mergepath_suite::mergepath::merge::adaptive::SegmentKernel;
use mergepath_suite::mergepath::merge::batch::batch_merge_into_by;
use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
use mergepath_suite::mergepath::merge::sequential::merge_into_by;
use mergepath_suite::mergepath::partition::{partition_segments_by, tile_count};
use mergepath_suite::mergepath::telemetry::{CounterKind, NoRecorder, TimelineRecorder};
use mergepath_suite::workloads::prng::Prng;

/// A keyed element: compared by `.0`; `.1` is the element's original index
/// in its input (B offset by 1_000_000), invisible to the comparator.
type Kv = (i32, u32);

fn cmp(x: &Kv, y: &Kv) -> Ordering {
    x.0.cmp(&y.0)
}

/// Tags each key with its original index: `a[i] -> (key, i)`,
/// `b[i] -> (key, 1_000_000 + i)`.
fn tag(a: &[i32], b: &[i32]) -> (Vec<Kv>, Vec<Kv>) {
    let ta = a.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
    let tb = b
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, 1_000_000 + i as u32))
        .collect();
    (ta, tb)
}

/// The families whose every tile the probe must send to galloping.
const TIE_FAMILIES: [&str; 3] = ["duplicate_heavy", "pow2_ties", "pow2_plus_one_ties"];

/// Nine adversarial families, weighted toward duplicate-heavy shapes where
/// stability is maximally observable. All sized so per-worker segments at
/// the tested thread counts still exceed the probe minimum.
fn families() -> Vec<(&'static str, Vec<i32>, Vec<i32>)> {
    let mut rng = Prng::seed_from_u64(0x0057_AB1E);
    let mut random_sorted = |len: usize, key_space: u64| -> Vec<i32> {
        let mut v: Vec<i32> = (0..len).map(|_| rng.below(key_space) as i32).collect();
        v.sort_unstable();
        v
    };
    let run = 256;
    vec![
        // One giant tie class: the most hostile stability input there is.
        ("all_equal", vec![7; 2600], vec![7; 2100]),
        // Tiny key space: every key is a wide mixed tie class.
        (
            "duplicate_heavy",
            random_sorted(2800, 5),
            random_sorted(2500, 5),
        ),
        // Tie runs of 2^8 keys per side, so galloping's doubling search
        // lands on the first key past a class...
        (
            "pow2_ties",
            (0..2560).map(|i| i / run).collect(),
            (0..2560).map(|i| i / run).collect(),
        ),
        // ...and one past 2^8, so it lands on the class's last key.
        (
            "pow2_plus_one_ties",
            (0..2570).map(|i| i / (run + 1)).collect(),
            (0..2570).map(|i| i / (run + 1)).collect(),
        ),
        ("one_side_empty", (0..2000).collect(), vec![]),
        (
            "interleaved_runs",
            (0..1500).map(|x| x * 2).collect(),
            (0..1500).map(|x| x * 2 + 1).collect(),
        ),
        (
            "disjoint_ranges",
            (0..1400).collect(),
            (10_000..11_400).collect(),
        ),
        (
            "random_with_ties",
            random_sorted(1731, 90),
            random_sorted(1977, 90),
        ),
        ("singleton_vs_run", vec![600], (0..1800).collect()),
    ]
}

const THREADS: [usize; 3] = [2, 4, 7];

/// Stability, asserted directly on the output rather than through the
/// oracle: within a tie class, provenance strictly increases — A's
/// elements (tags < 1_000_000, in input order) before B's (in input order).
fn assert_stable(out: &[Kv], label: &str) {
    for w in out.windows(2) {
        if w[0].0 == w[1].0 {
            assert!(
                w[0].1 < w[1].1,
                "{label}: tie class out of stable order: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn probed_dispatch_produces_the_stable_order_on_every_family() {
    for (name, ka, kb) in families() {
        let (a, b) = tag(&ka, &kb);
        let n = a.len() + b.len();
        let mut oracle = vec![(0, 0); n];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        assert_stable(&oracle, name);
        for threads in THREADS {
            let label = format!("{name}: threads={threads}");
            let mut out = vec![(0, 0); n];
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, oracle, "{label}");
            assert_stable(&out, &label);
        }
    }
}

#[test]
fn every_kernel_produces_the_stable_order_on_every_partition_segment() {
    // A kernel is forced by calling it. Every segment kernel is safe
    // sequential code that writes only its own output slice, so running
    // each one directly on every segment of the partition covers what
    // forcing it inside a parallel kernel would.
    for (name, ka, kb) in families() {
        let (a, b) = tag(&ka, &kb);
        let mut oracle = vec![(0, 0); a.len() + b.len()];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        for p in [3usize, 8] {
            for seg in partition_segments_by(&a[..], &b[..], p, &cmp) {
                let (sa, sb) = (&a[seg.a_start..seg.a_end], &b[seg.b_start..seg.b_end]);
                let expect = &oracle[seg.out_start..seg.out_end];
                for kernel in SegmentKernel::ALL {
                    let label = format!("{name}: {kernel:?}, p={p}, segment {seg:?}");
                    let mut out = vec![(0, 0); expect.len()];
                    kernel.merge_into_by(sa, sb, &mut out, &cmp);
                    assert_eq!(out, expect, "{label}");
                    assert_stable(&out, &label);
                }
            }
        }
    }
}

#[test]
fn traced_tiles_are_stable_and_balanced_on_every_family() {
    // The traced instantiation of Algorithm 1 runs every tile through
    // counting comparators; it must keep the stable order too. Its
    // `⌊k·n/T⌋` cuts give every tile `⌊n/T⌋` or `⌈n/T⌉` items (Thm 14 per
    // tile), the balance 1303.4312 gets from exact boundaries, and under
    // this keyed comparator every tile of the duplicate-heavy families
    // gallops, so galloping's tie runs run under the tile cuts.
    for (name, ka, kb) in families() {
        let (a, b) = tag(&ka, &kb);
        let n = a.len() + b.len();
        let mut oracle = vec![(0, 0); n];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        for threads in THREADS {
            let label = format!("{name}: traced, threads={threads}");
            let mut out = vec![(0, 0); n];
            let rec = TimelineRecorder::new();
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &rec);
            let telemetry = rec.finish();
            assert_eq!(out, oracle, "{label}");
            assert_stable(&out, &label);
            let tiles = tile_count(n, threads);
            let mut items = vec![0usize; tiles];
            for ev in &telemetry.worker_items {
                items[ev.worker] += ev.items as usize;
            }
            assert_eq!(items.iter().sum::<usize>(), n, "{label}");
            for (k, &it) in items.iter().enumerate() {
                assert!(
                    it == n / tiles || it == n.div_ceil(tiles),
                    "{label}: tile {k} of {tiles} merged {it} items"
                );
            }
            let galloping: u64 = telemetry
                .counters
                .iter()
                .filter(|c| c.kind == CounterKind::SegmentsGalloping)
                .map(|c| c.total)
                .sum();
            if TIE_FAMILIES.contains(&name) {
                assert_eq!(galloping, tiles as u64, "{label}: tiles that galloped");
            }
        }
    }
}

#[test]
fn tiled_merges_keep_the_stable_order() {
    // 2^16 + 2^16 tagged keys: Algorithm 1 and the batch merge cut more
    // tiles than threads at every count below, and each tile picks its own
    // kernel. Runs of 48 equal keys per side make tie classes straddle
    // tile cuts; the zipfian-shaped third family
    // mixes tie-heavy tiles with finely interleaved ones.
    let side = 1usize << 16;
    let mut rng = Prng::seed_from_u64(0x711E);
    let mut skewed = || -> Vec<i32> {
        let mut v: Vec<i32> = (0..side)
            .map(|_| {
                let u = rng.below(1 << 20) as f64 / (1u64 << 20) as f64;
                (u.powi(4) * 1e6) as i32
            })
            .collect();
        v.sort_unstable();
        v
    };
    let runs: Vec<i32> = (0..side as i32).map(|i| i / 48).collect();
    let fams: Vec<(&str, Vec<i32>, Vec<i32>)> = vec![
        ("runs_of_48", runs.clone(), runs),
        ("all_equal", vec![3; side], vec![3; side]),
        ("skewed", skewed(), skewed()),
    ];
    for (name, ka, kb) in fams {
        let (a, b) = tag(&ka, &kb);
        let mut oracle = vec![(0, 0); a.len() + b.len()];
        merge_into_by(&a, &b, &mut oracle, &cmp);
        assert_stable(&oracle, name);
        for threads in [1usize, 2, 3, 8] {
            let label = format!("{name}, threads={threads}");
            let mut out = vec![(0, 0); oracle.len()];
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, oracle, "parallel: {label}");
            assert_stable(&out, &label);
            out.fill((0, 0));
            batch_merge_into_by(&[(&a[..], &b[..])], &mut out, threads, &cmp, &NoRecorder);
            assert_eq!(out, oracle, "batch: {label}");
        }
    }
}

#[test]
fn batched_merges_keep_the_stable_order() {
    // The batch kernel shares the adaptive segment dispatch; the
    // duplicate-heavy families must come out stable when many pairs share
    // one worker budget.
    let fams = families();
    let tagged: Vec<(Vec<Kv>, Vec<Kv>)> = fams.iter().map(|(_, ka, kb)| tag(ka, kb)).collect();
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
    for threads in THREADS {
        let mut out = vec![(0, 0); oracle.len()];
        batch_merge_into_by(&pairs, &mut out, threads, &cmp, &NoRecorder);
        assert_eq!(out, oracle, "threads={threads}");
    }
}
