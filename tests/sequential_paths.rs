//! The sequential paths the sorts and merges bottom out in: `slice::sort_by`
//! under the sorts' chunks, and the two-stream branch-lean kernel.
//!
//! * Sorts: `parallel_merge_sort_by` (threads 1, 2, 3, 5) and
//!   `kway_merge_sort_by` against `slice::sort_by_key` on keyed
//!   `(key, index)` records, over every `SortWorkload` family and a range
//!   of run shapes, at lengths 0–300 and 2^k ± 1, under the probe's
//!   dispatch; and every segment kernel run directly on every segment of
//!   the merge of each input's stably sorted halves.
//! * Kernel: two-stream branch-lean is byte-identical to `merge_into_by`
//!   around the two-stream threshold, with one side empty, with the middle
//!   split at either end of `a`, on all-equal inputs and with keyed ties
//!   straddling the middle diagonal.
//! * Traced sorts count their chunk sorts' comparisons and dispatch their
//!   merges like untraced ones, and a counted segment merge dispatches like
//!   an uncounted one: duplicate-heavy segments gallop under `natural_cmp`
//!   of each of `u32`, `i32`, `u64`, `i64` and go to co-rank under any
//!   other comparator.

use std::cell::Cell;
use std::cmp::Ordering;

use mergepath::merge::adaptive::{
    adaptive_merge_into_by, adaptive_merge_into_counted, SegmentKernel,
};
use mergepath::merge::sequential::natural_cmp;
use mergepath::merge::sequential::{
    branch_lean_merge_into, branch_lean_merge_into_by, merge_into_by,
};
use mergepath::partition::partition_segments_by;
use mergepath::sort::kway::{kway_merge_sort_by, kway_merge_sort_recorded};
use mergepath::sort::parallel::{
    parallel_merge_sort, parallel_merge_sort_by, parallel_merge_sort_recorded,
};
use mergepath::telemetry::{Telemetry, TimelineRecorder};
use mergepath_workloads::prng::Prng;
use mergepath_workloads::{unsorted_keys, SortWorkload};

/// A keyed record: compared by `.0`; `.1` is its input position, so any
/// reordering of equal keys shows.
type Rec = (u32, u32);

fn by_key(x: &Rec, y: &Rec) -> Ordering {
    x.0.cmp(&y.0)
}

fn lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=300).collect();
    for k in 9..=12 {
        lens.extend([(1usize << k) - 1, (1 << k) + 1]);
    }
    lens
}

/// Descending runs of `run` keys where each run repeats every key twice.
fn descending_with_ties(n: usize, run: usize) -> Vec<u32> {
    (0..n)
        .map(|i| {
            let (r, pos) = (i / run, i % run);
            (r * 7 % 5 * 1000 + (run - pos) / 2) as u32
        })
        .collect()
}

/// Ascending runs of exactly `run < 100` keys, each starting below the
/// previous run's end, so the natural runs are exactly these.
fn ascending_runs(n: usize, run: usize) -> Vec<u32> {
    (0..n)
        .map(|i| (1_000_000 - (i / run) * 100 + i % run) as u32)
        .collect()
}

/// Runs of `run` keys alternating up and down.
fn up_down(n: usize, run: usize) -> Vec<u32> {
    (0..n)
        .map(|i| {
            let (r, pos) = (i / run, i % run);
            let step = if r % 2 == 0 { pos } else { run - pos };
            (r % 3 * 50 + step) as u32
        })
        .collect()
}

/// Every input family the sort sweep covers, generated at length `n`.
fn shapes(n: usize) -> Vec<(String, Vec<u32>)> {
    let mut out: Vec<(String, Vec<u32>)> = SortWorkload::ALL
        .iter()
        .map(|wl| {
            (
                wl.name().to_string(),
                unsorted_keys(*wl, n, 0x5EED ^ n as u64),
            )
        })
        .collect();
    out.push(("descending-ties".into(), descending_with_ties(n, 40)));
    // Natural runs just under, at and just over 32 keys.
    for run in [31, 32, 33] {
        out.push((format!("ascending-runs-{run}"), ascending_runs(n, run)));
    }
    out.push(("up-down".into(), up_down(n, 45)));
    out.push(("long-descending".into(), (0..n as u32).rev().collect()));
    out
}

fn keyed(keys: &[u32]) -> Vec<Rec> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect()
}

#[test]
fn sorts_match_std_stable_sort() {
    for n in lengths() {
        for (shape, keys) in shapes(n) {
            let ctx = format!("{shape} n={n}");
            let records = keyed(&keys);
            let mut expect = records.clone();
            expect.sort_by_key(|r| r.0);

            let mut v = keys.clone();
            parallel_merge_sort(&mut v, 2);
            let plain: Vec<u32> = expect.iter().map(|r| r.0).collect();
            assert_eq!(v, plain, "parallel_merge_sort p=2 {ctx}");

            for threads in [1, 2, 3, 5] {
                let mut v = records.clone();
                parallel_merge_sort_by(&mut v, threads, &by_key);
                assert_eq!(v, expect, "parallel_merge_sort_by p={threads} {ctx}");
            }

            let mut v = records.clone();
            kway_merge_sort_by(&mut v, 3, &by_key);
            assert_eq!(v, expect, "kway_merge_sort_by p=3 {ctx}");
        }
    }
}

#[test]
fn every_kernel_merges_the_sorted_halves_of_every_shape() {
    // The sorts' merge rounds under a forced kernel, run directly: each
    // half of the input is stably sorted, the halves are cut into 3 and 8
    // segments, and every kernel merges every segment. Ties take the left
    // half first, so the merged halves are the stable sort of the whole.
    for n in lengths() {
        for (shape, keys) in shapes(n) {
            let records = keyed(&keys);
            let mut expect = records.clone();
            expect.sort_by_key(|r| r.0);
            let (mut a, mut b) = (records[..n / 2].to_vec(), records[n / 2..].to_vec());
            a.sort_by_key(|r| r.0);
            b.sort_by_key(|r| r.0);
            for p in [3usize, 8] {
                for seg in partition_segments_by(&a[..], &b[..], p, &by_key) {
                    let (sa, sb) = (&a[seg.a_start..seg.a_end], &b[seg.b_start..seg.b_end]);
                    let want = &expect[seg.out_start..seg.out_end];
                    for kernel in SegmentKernel::ALL {
                        let mut out = vec![(0, 0); want.len()];
                        kernel.merge_into_by(sa, sb, &mut out, &by_key);
                        assert_eq!(out, want, "{kernel:?} {shape} n={n} p={p} {seg:?}");
                    }
                }
            }
        }
    }
}

/// Asserts both branch-lean entries equal the classic kernel, element for
/// element, on keyed records and on their bare keys.
fn assert_two_stream_identical(a: &[Rec], b: &[Rec], ctx: &str) {
    assert!(
        a.is_sorted_by_key(|r| r.0) && b.is_sorted_by_key(|r| r.0),
        "unsorted input {ctx}"
    );
    let mut oracle = vec![(0, 0); a.len() + b.len()];
    merge_into_by(a, b, &mut oracle, &by_key);
    let mut lean = vec![(0, 0); oracle.len()];
    branch_lean_merge_into_by(a, b, &mut lean, &by_key);
    assert_eq!(lean, oracle, "keyed {ctx}");

    let (ka, kb): (Vec<u32>, Vec<u32>) = (
        a.iter().map(|r| r.0).collect(),
        b.iter().map(|r| r.0).collect(),
    );
    let keys: Vec<u32> = oracle.iter().map(|r| r.0).collect();
    let mut out = vec![0u32; keys.len()];
    branch_lean_merge_into_by(&ka, &kb, &mut out, &natural_cmp);
    assert_eq!(out, keys, "natural_cmp {ctx}");
    out.fill(0);
    branch_lean_merge_into(&ka, &kb, &mut out);
    assert_eq!(out, keys, "branch_lean_merge_into {ctx}");
}

/// A sorted side of `len` keyed records drawn from `0..space`, tagged from
/// `tag` up.
fn side(rng: &mut Prng, len: usize, space: u64, tag: u32) -> Vec<Rec> {
    let mut keys: Vec<u32> = (0..len).map(|_| rng.below(space) as u32).collect();
    keys.sort_unstable();
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, tag + i as u32))
        .collect()
}

#[test]
fn two_stream_branch_lean_is_byte_identical_to_classic() {
    let mut rng = Prng::seed_from_u64(0x2_57EA);
    let mut outputs: Vec<usize> = vec![1, 2, 62, 63, 64, 65, 66, 127, 128, 129];
    for k in 7..=14 {
        outputs.extend([(1usize << k) - 1, (1 << k) + 1]);
    }
    for n in outputs {
        for na in [0, 1, n / 3, n / 2, n - n / 2, n.saturating_sub(1), n] {
            let nb = n - na;
            for space in [2u64, 16, 1 << 20] {
                let a = side(&mut rng, na, space, 0);
                let b = side(&mut rng, nb, space, 1 << 30);
                let ctx = format!("n={n} |a|={na} space={space}");
                assert_two_stream_identical(&a, &b, &ctx);
                assert_two_stream_identical(&b, &a, &format!("swapped {ctx}"));
            }
        }
    }
}

#[test]
fn two_stream_handles_splits_at_either_end_of_a() {
    for n in [64usize, 65, 200, 1025] {
        // All of `a` above all of `b`: with |b| >= n/2 the middle split
        // takes nothing from `a` (i = 0).
        let nb = n - n / 4;
        let b: Vec<Rec> = (0..nb as u32).map(|k| (k, k)).collect();
        let a: Vec<Rec> = (0..(n - nb) as u32).map(|k| (k + 10_000, k)).collect();
        assert_two_stream_identical(&a, &b, &format!("i=0 n={n}"));
        // All of `a` below all of `b`, |a| <= n/2: the split takes all of
        // `a` (i = |a|).
        let na = n / 4;
        let a: Vec<Rec> = (0..na as u32).map(|k| (k, k)).collect();
        let b: Vec<Rec> = (0..(n - na) as u32).map(|k| (k + 10_000, k)).collect();
        assert_two_stream_identical(&a, &b, &format!("i=|a| n={n}"));
        // Ties across sides at the boundary: `a`'s last key equals `b`'s
        // first, so the stable split must still take all of `a` first.
        let b: Vec<Rec> = (0..(n - na) as u32)
            .map(|k| (na as u32 - 1 + k, k))
            .collect();
        assert_two_stream_identical(&a, &b, &format!("i=|a| tied n={n}"));
    }
}

#[test]
fn two_stream_on_all_equal_and_ties_straddling_the_middle() {
    for n in [63usize, 64, 65, 257, 4097] {
        for na in [1, n / 3, n / 2, n - 1] {
            let a: Vec<Rec> = (0..na as u32).map(|t| (7, t)).collect();
            let b: Vec<Rec> = (0..(n - na) as u32).map(|t| (7, 1 << 20 | t)).collect();
            assert_two_stream_identical(&a, &b, &format!("all-equal n={n} |a|={na}"));

            // One tie class of keys around the middle output rank on both
            // sides, distinct keys elsewhere: the middle diagonal cuts
            // through the class.
            let keyed_side = |len: usize, tag: u32| -> Vec<Rec> {
                (0..len)
                    .map(|i| {
                        let key = if i * 4 < len {
                            (i * 400 / len) as u32
                        } else if i * 4 < 3 * len {
                            500
                        } else {
                            1000 + i as u32
                        };
                        (key, tag + i as u32)
                    })
                    .collect()
            };
            let (a, b) = (keyed_side(na, 0), keyed_side(n - na, 1 << 20));
            assert_two_stream_identical(&a, &b, &format!("mid-ties n={n} |a|={na}"));
        }
    }
}

fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counters
        .iter()
        .filter(|c| c.kind.name() == name)
        .map(|c| c.total)
        .sum()
}

#[test]
fn traced_sorts_dispatch_like_untraced_ones() {
    // 2^15 keys from 2^8 values. At p = 1 the whole sort is one counted
    // `slice::sort_by`: comparisons, and no merge segment. At p >= 2 the
    // §III sort's merge rounds merge runs with tie classes of 32 and more,
    // which the probe sends to galloping under the canonical natural
    // order; a traced sort that chose its kernels on a counting wrapper
    // would lose that identity and send them to co-rank instead. The
    // k-way sort's loser-tree merge dispatches no segment kernel, so it
    // must report comparisons and no co-rank segment.
    let n = 1 << 15;
    let mut rng = Prng::seed_from_u64(0xD0_0D);
    let keys: Vec<u32> = (0..n).map(|_| rng.below(256) as u32).collect();
    let mut expect = keys.clone();
    expect.sort();
    let segment_counters = SegmentKernel::ALL.map(|k| k.counter().name());
    for threads in [1, 2, 4] {
        let mut untraced = keys.clone();
        parallel_merge_sort(&mut untraced, threads);
        assert_eq!(untraced, expect, "untraced p={threads}");

        for kway in [false, true] {
            let mut traced = keys.clone();
            let rec = TimelineRecorder::new();
            if kway {
                kway_merge_sort_recorded(&mut traced, threads, &natural_cmp, &rec);
            } else {
                parallel_merge_sort_recorded(&mut traced, threads, &natural_cmp, &rec);
            }
            let t = rec.finish();
            let ctx = format!("kway={kway} p={threads}");
            assert_eq!(traced, expect, "traced output {ctx}");
            assert!(counter(&t, "comparisons") > 0, "no comparisons {ctx}");
            assert_eq!(counter(&t, "segments_co_rank"), 0, "co-rank segment {ctx}");
            if threads == 1 {
                for name in segment_counters {
                    assert_eq!(counter(&t, name), 0, "{name} at p=1 {ctx}");
                }
            } else if !kway {
                assert!(counter(&t, "segments_galloping") > 0, "no galloping {ctx}");
            }
        }
    }
}

/// Merges one segment through [`adaptive_merge_into_by`] and
/// [`adaptive_merge_into_counted`], checks both outputs against the
/// classic kernel and that both chose the same kernel, which it returns.
fn segment_kernel<T, F>(a: &[T], b: &[T], cmp: &F, ctx: &str) -> SegmentKernel
where
    T: Clone + Default + PartialEq + std::fmt::Debug,
    F: Fn(&T, &T) -> Ordering,
{
    let mut oracle = vec![T::default(); a.len() + b.len()];
    merge_into_by(a, b, &mut oracle, cmp);
    let (mut out, hits) = (vec![T::default(); oracle.len()], Cell::new(0));
    let plain = adaptive_merge_into_by(a, b, &mut out, cmp);
    assert_eq!(out, oracle, "uncounted output {ctx}");
    out.fill(T::default());
    let counted = adaptive_merge_into_counted(a, b, &mut out, cmp, &hits);
    assert_eq!(out, oracle, "counted output {ctx}");
    assert!(hits.get() > 0, "no comparisons counted {ctx}");
    assert_eq!(counted, plain, "counted dispatch diverged {ctx}");
    plain
}

#[test]
fn counted_segment_merges_dispatch_like_uncounted_ones() {
    // Two sides of 2048 keys in tie classes of exactly 128, over the same
    // 16 values: the key ranges overlap and every duplicate sample of the
    // probe lands inside a tie class, so the segment is duplicate-heavy.
    fn check<K: Ord + Clone + Default + std::fmt::Debug + 'static>(key: impl Fn(u32) -> K) {
        let side: Vec<K> = (0..2048u32).map(|i| key(i / 128)).collect();
        let ty = std::any::type_name::<K>();
        let natural = segment_kernel(&side, &side, &natural_cmp::<K>, ty);
        assert_eq!(natural, SegmentKernel::Galloping, "natural_cmp::<{ty}>");
        let closure = segment_kernel(&side, &side, &|x: &K, y: &K| x.cmp(y), ty);
        assert_eq!(closure, SegmentKernel::CoRank, "closure over {ty}");
    }
    check(|k| k);
    check(|k| k as i32 - 8);
    check(|k| u64::from(k) << 40);
    check(|k| i64::from(k) - 8);
    // A payload-carrying element is not its own key, even when every
    // payload is equal and the comparator is `natural_cmp` itself.
    let pairs: Vec<(u32, u32)> = (0..2048u32).map(|i| (i / 128, 7)).collect();
    let kernel = segment_kernel(&pairs, &pairs, &natural_cmp::<(u32, u32)>, "pairs");
    assert_eq!(kernel, SegmentKernel::CoRank, "natural_cmp::<(u32, u32)>");
}
