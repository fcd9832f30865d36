//! The sequential paths the sorts and merges bottom out in: `slice::sort_by`
//! under the sorts' chunks, and the four-stream branch-lean kernel.
//!
//! * Sorts: `parallel_merge_sort_by` (threads 1, 2, 3, 5) and
//!   `kway_merge_sort_by` against `slice::sort_by_key` on keyed
//!   `(key, index)` records, over every `SortWorkload` family and a range
//!   of run shapes, at lengths 0–300 and 2^k ± 1, under the probe's
//!   dispatch; and every segment kernel run directly on every segment of
//!   the merge of each input's stably sorted halves.
//! * Kernel: four-stream branch-lean is byte-identical to `merge_into_by`
//!   around the one-stream threshold and at 2^k ± 1, with one side empty,
//!   with each interior cut at either end of `a`, with one stream running
//!   out of `a` long before the others, on all-equal inputs and with keyed
//!   ties straddling each interior diagonal; a comparator or clone that
//!   panics inside its interleaved loop leaves every value dropped once.
//! * Traced sorts count their merge rounds' comparisons, not their chunk
//!   sorts', and dispatch their merges like untraced ones, and a traced
//!   segment merge dispatches like an untraced one: duplicate-heavy
//!   segments gallop under `natural_cmp` of each of `u32`, `i32`, `u64`,
//!   `i64`, under a closure, and under `natural_cmp` of keyed pairs.

use std::cell::Cell;
use std::cmp::Ordering;

use mergepath::diagonal::co_rank_by;
use mergepath::merge::adaptive::{adaptive_merge_into_by, SegmentKernel};
use mergepath::merge::sequential::natural_cmp;
use mergepath::merge::sequential::{
    branch_lean_merge_into, branch_lean_merge_into_by, merge_into_by,
};
use mergepath::partition::{partition_segments_by, segment_boundary};
use mergepath::sort::kway::kway_merge_sort_by;
use mergepath::sort::parallel::{parallel_merge_sort, parallel_merge_sort_by};
use mergepath::telemetry::{NoRecorder, Telemetry, TimelineRecorder};
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
                parallel_merge_sort_by(&mut v, threads, &by_key, &NoRecorder);
                assert_eq!(v, expect, "parallel_merge_sort_by p={threads} {ctx}");
            }

            let mut v = records.clone();
            kway_merge_sort_by(&mut v, 3, &by_key, &NoRecorder);
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
fn assert_streams_identical(a: &[Rec], b: &[Rec], ctx: &str) {
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

/// The streams the branch-lean kernel cuts a merge into; the tests below
/// place cuts, ties and early exhaustion at each of its interior diagonals.
const STREAMS: usize = 4;

/// The `(a, b)` extents of each stream of the merge of `a` and `b`: the
/// stable co-ranks of the diagonals `⌊s·n/STREAMS⌋`.
fn stream_extents(a: &[Rec], b: &[Rec]) -> Vec<(usize, usize)> {
    let n = a.len() + b.len();
    let cut = |s: usize| {
        let d = segment_boundary(n, STREAMS, s);
        let i = co_rank_by(d, a, b, &by_key);
        (i, d - i)
    };
    (0..STREAMS)
        .map(|s| {
            let ((i0, j0), (i1, j1)) = (cut(s), cut(s + 1));
            (i1 - i0, j1 - j0)
        })
        .collect()
}

#[test]
fn multi_stream_branch_lean_is_byte_identical_to_classic() {
    // Around the one-stream threshold (16 or 64 outputs per stream, ± 2),
    // and at 2^k ± 1.
    let mut rng = Prng::seed_from_u64(0x2_57EA);
    let mut outputs: Vec<usize> = vec![1, 2, 3];
    for per_stream in [16, 64] {
        let t = STREAMS * per_stream;
        outputs.extend(t - 2..=t + 2);
    }
    for k in 5..=14 {
        outputs.extend([(1usize << k) - 1, (1 << k) + 1]);
    }
    for n in outputs {
        for na in [0, 1, n / 3, n / 2, n - n / 2, n.saturating_sub(1), n] {
            let nb = n - na;
            for space in [2u64, 16, 1 << 20] {
                let a = side(&mut rng, na, space, 0);
                let b = side(&mut rng, nb, space, 1 << 30);
                let ctx = format!("n={n} |a|={na} space={space}");
                assert_streams_identical(&a, &b, &ctx);
                assert_streams_identical(&b, &a, &format!("swapped {ctx}"));
            }
        }
    }
}

#[test]
fn multi_stream_handles_cuts_at_either_end_of_a_and_early_exhaustion() {
    for n in [64usize, 65, 257, 1025, 4099] {
        for s in 1..STREAMS {
            let d = segment_boundary(n, STREAMS, s);
            // The first `d` keys of `b` lie below all of `a`, so cut `s`
            // takes nothing from `a` (i = 0); past it the sides interleave.
            let b: Vec<Rec> = (0..(n - n / 4) as u32).map(|k| (k, k)).collect();
            let a: Vec<Rec> = (0..(n / 4) as u32)
                .map(|k| (d as u32 + 2 * k, 1 << 20 | k))
                .collect();
            let ctx = format!("cut {s} at i=0 n={n}");
            assert_eq!(co_rank_by(d, &a[..], &b[..], &by_key), 0, "{ctx}");
            assert_streams_identical(&a, &b, &ctx);
            // `a` interleaves with `b` and runs out within the first `d`
            // outputs, so cut `s` takes all of `a` (i = |a|).
            let na = d / 2;
            let a: Vec<Rec> = (0..na as u32).map(|k| (2 * k, k)).collect();
            let b: Vec<Rec> = (0..(n - na) as u32)
                .map(|k| (2 * k + 1, 1 << 20 | k))
                .collect();
            let ctx = format!("cut {s} at i=|a| n={n}");
            assert_eq!(co_rank_by(d, &a[..], &b[..], &by_key), na, "{ctx}");
            assert_streams_identical(&a, &b, &ctx);
            // The same with `a`'s last key tied to the key of `b` that
            // follows it: the stable cut still takes all of `a` first.
            let b: Vec<Rec> = (0..(n - na) as u32)
                .map(|k| (2 * k + 1 - u32::from(k as usize + 1 == na), 1 << 20 | k))
                .collect();
            let ctx = format!("cut {s} at i=|a| tied n={n}");
            assert_eq!(a[na - 1].0, b[na - 1].0, "{ctx}");
            assert_eq!(co_rank_by(d, &a[..], &b[..], &by_key), na, "{ctx}");
            assert_streams_identical(&a, &b, &ctx);
        }
        // Output `k` of the merge is key `k`, drawn from `a` or `b` by a
        // coin flip, except in stream `s`'s output range, which holds one
        // key of `a` and the rest from `b`: that stream runs out of `a`
        // after at most one step, long before the others.
        for s in 0..STREAMS {
            let mut rng = Prng::seed_from_u64(n as u64 ^ s as u64);
            let starved = segment_boundary(n, STREAMS, s)..segment_boundary(n, STREAMS, s + 1);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for k in 0..n {
                let to_a = if starved.contains(&k) {
                    k == (starved.start + starved.end) / 2
                } else {
                    rng.below(2) == 0
                };
                if to_a { &mut a } else { &mut b }.push((k as u32, k as u32));
            }
            let ctx = format!("stream {s} starved of a n={n}");
            let extents = stream_extents(&a, &b);
            assert_eq!(extents[s].0, 1, "{ctx}: {extents:?}");
            if n >= 1025 {
                let fed = extents.iter().filter(|e| e.0 > n / 16).count();
                assert_eq!(fed, STREAMS - 1, "{ctx}: {extents:?}");
            }
            assert_streams_identical(&a, &b, &ctx);
            assert_streams_identical(&b, &a, &format!("swapped {ctx}"));
        }
    }
}

#[test]
fn multi_stream_on_all_equal_and_ties_straddling_every_interior_diagonal() {
    for n in [63usize, 64, 65, 257, 1025, 4097] {
        for na in [1, n / 3, n / 2, n - 1] {
            let a: Vec<Rec> = (0..na as u32).map(|t| (7, t)).collect();
            let b: Vec<Rec> = (0..(n - na) as u32).map(|t| (7, 1 << 20 | t)).collect();
            assert_streams_identical(&a, &b, &format!("all-equal n={n} |a|={na}"));

            // On both sides, one tie class of keys around each interior
            // diagonal's share of the side (positions 20–30%, 45–55% and
            // 70–80%), distinct keys elsewhere: every interior diagonal of
            // the merge cuts through a class shared by `a` and `b`.
            let keyed_side = |len: usize, tag: u32| -> Vec<Rec> {
                (0..len)
                    .map(|i| {
                        let f = i * 20 / len;
                        let key = match f {
                            4 | 5 => 2_000,
                            9 | 10 => 4_500,
                            14 | 15 => 7_000,
                            _ => (i * 10_000 / len) as u32,
                        };
                        (key, tag + i as u32)
                    })
                    .collect()
            };
            let (a, b) = (keyed_side(na, 0), keyed_side(n - na, 1 << 20));
            let ctx = format!("ties at every cut n={n} |a|={na}");
            if na >= 40 && n - na >= 40 {
                let mut merged = vec![(0, 0); n];
                merge_into_by(&a, &b, &mut merged, &by_key);
                for s in 1..STREAMS {
                    let d = segment_boundary(n, STREAMS, s);
                    assert_eq!(merged[d - 1].0, merged[d].0, "{ctx}: cut {s} not in a tie");
                }
            }
            assert_streams_identical(&a, &b, &ctx);
            assert_streams_identical(&b, &a, &format!("swapped {ctx}"));
        }
    }
}

thread_local! {
    /// Live [`CountedDrop`] values made on this thread, less those dropped.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Clones [`CountedDrop`] allows on this thread before one panics.
    static CLONES_LEFT: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// A keyed record that counts its live values and panics on a clone once
/// [`CLONES_LEFT`] runs out.
#[derive(Debug, PartialEq)]
struct CountedDrop(u32, u32);

impl CountedDrop {
    fn new(key: u32, tag: u32) -> Self {
        LIVE.with(|l| l.set(l.get() + 1));
        CountedDrop(key, tag)
    }
}

impl Clone for CountedDrop {
    fn clone(&self) -> Self {
        CLONES_LEFT.with(|c| match c.get() {
            0 => panic!("clone fuse blown"),
            left => c.set(left - 1),
        });
        CountedDrop::new(self.0, self.1)
    }
}

impl Drop for CountedDrop {
    fn drop(&mut self) {
        LIVE.with(|l| l.set(l.get() - 1));
    }
}

#[test]
fn multi_stream_panic_inside_the_interleaved_loop_balances_drops() {
    // A comparator or a clone that panics part-way through the
    // interleaved loop of a forced branch-lean merge: unwinding leaves
    // every output slot holding a live value, so after the inputs and the
    // output drop, every value made has dropped exactly once.
    let n = 4096;
    let mut rng = Prng::seed_from_u64(0xD120B);
    let (ra, rb) = (
        side(&mut rng, n / 2, 1 << 20, 0),
        side(&mut rng, n / 2, 1 << 20, 1 << 30),
    );
    let tracked = |rs: &[Rec]| -> Vec<CountedDrop> {
        rs.iter().map(|&(k, t)| CountedDrop::new(k, t)).collect()
    };
    let cmp_count = Cell::new(0u64);
    let cmp_fuse = Cell::new(u64::MAX);
    let cmp = |x: &CountedDrop, y: &CountedDrop| {
        let c = cmp_count.get();
        cmp_count.set(c + 1);
        assert!(c < cmp_fuse.get(), "comparator fuse blown");
        x.0.cmp(&y.0)
    };
    let mut oracle = vec![(0, 0); n];
    merge_into_by(&ra, &rb, &mut oracle, &by_key);
    // (comparisons before the panic, clones before the panic); `MAX` never
    // blows. The three co-rank searches take under 40 comparisons and no
    // clone, so every fuse below blows inside the interleaved loop.
    for (cmps, clones) in [
        (u64::MAX, u64::MAX),
        (100, u64::MAX),
        (2_000, u64::MAX),
        (u64::MAX, 0),
        (u64::MAX, 9),
        (u64::MAX, 1_500),
    ] {
        LIVE.with(|l| l.set(0));
        {
            let (a, b) = (tracked(&ra), tracked(&rb));
            let mut out: Vec<CountedDrop> = (0..n as u32)
                .map(|t| CountedDrop::new(u32::MAX, t))
                .collect();
            cmp_count.set(0);
            cmp_fuse.set(cmps);
            CLONES_LEFT.with(|c| c.set(clones));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SegmentKernel::BranchLean.merge_into_by(&a, &b, &mut out, &cmp);
            }));
            CLONES_LEFT.with(|c| c.set(u64::MAX));
            let ctx = format!("comparisons {cmps} clones {clones}");
            let written: Vec<usize> = (0..STREAMS)
                .map(|s| {
                    let range =
                        segment_boundary(n, STREAMS, s)..segment_boundary(n, STREAMS, s + 1);
                    out[range].iter().filter(|r| r.0 != u32::MAX).count()
                })
                .collect();
            if cmps == u64::MAX && clones == u64::MAX {
                assert!(result.is_ok(), "{ctx}");
                let got: Vec<Rec> = out.iter().map(|r| (r.0, r.1)).collect();
                assert_eq!(got, oracle, "{ctx}");
            } else {
                assert!(result.is_err(), "{ctx}: no panic");
                // The interleaved loop advances every stream in lockstep,
                // and a stream's finishing loop runs only after it: so the
                // streams wrote within one output of each other, and none
                // finished.
                let (lo, hi) = (written.iter().min(), written.iter().max());
                let (lo, hi) = (*lo.expect("streams"), *hi.expect("streams"));
                assert!(
                    hi - lo <= 1 && hi < n / STREAMS,
                    "{ctx}: panic outside the interleaved loop, written {written:?}"
                );
            }
        }
        assert_eq!(
            LIVE.with(Cell::get),
            0,
            "unbalanced drops, comparisons {cmps} clones {clones}"
        );
    }
}

/// The branch-lean kernel's vector body (`u32` under `natural_cmp` on CPUs
/// with AVX2) through both of its forcing entries, against the classic
/// kernel under a closure, which never takes it. Each run starts from its
/// own sentinel, so a slot the body fails to write shows.
fn assert_vector_identical(a: &[u32], b: &[u32], ctx: &str) {
    assert!(a.is_sorted() && b.is_sorted(), "unsorted input {ctx}");
    let mut oracle = vec![0u32; a.len() + b.len()];
    merge_into_by(a, b, &mut oracle, &|x: &u32, y: &u32| x.cmp(y));
    let mut out = vec![0xA5A5_A5A5; oracle.len()];
    branch_lean_merge_into(a, b, &mut out);
    assert_eq!(out, oracle, "branch_lean_merge_into {ctx}");
    out.fill(0x5A5A_5A5A);
    SegmentKernel::BranchLean.merge_into_by(a, b, &mut out, &natural_cmp);
    assert_eq!(out, oracle, "SegmentKernel::BranchLean {ctx}");
}

/// Keys at which a signed compare orders differently from an unsigned one:
/// 0, 2^31 − 1, 2^31, `u32::MAX` and their neighbours.
const SIGN_KEYS: [u32; 8] = [
    0,
    1,
    (1 << 31) - 2,
    (1 << 31) - 1,
    1 << 31,
    (1 << 31) + 1,
    u32::MAX - 1,
    u32::MAX,
];

/// `len` sorted keys: from `0..space`, or from [`SIGN_KEYS`] when `space`
/// is 0.
fn u32_side(rng: &mut Prng, len: usize, space: u64) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..len)
        .map(|_| match space {
            0 => SIGN_KEYS[rng.below(SIGN_KEYS.len() as u64) as usize],
            _ => rng.below(space) as u32,
        })
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn vector_body_is_byte_identical_to_the_closure_merge() {
    // Every output length 0–300 and 2^k ± 1 (k = 3..16); each side empty,
    // under one block of eight, at one block, or most of the merge; keys
    // with ties (2 or 16 values), spread over all of `u32`, or drawn from
    // the keys around the sign bit.
    let mut rng = Prng::seed_from_u64(0xA7_2B0D);
    let mut outputs: Vec<usize> = (0..=300).collect();
    for k in 3..=16 {
        outputs.extend([(1usize << k) - 1, (1 << k) + 1]);
    }
    for n in outputs {
        let mut splits: Vec<usize> = [0, 1, 7, 8, 9, n / 3, n / 2]
            .into_iter()
            .flat_map(|na| [na, n.saturating_sub(na)])
            .filter(|&na| na <= n)
            .collect();
        splits.sort_unstable();
        splits.dedup();
        for na in splits {
            for space in [0u64, 2, 16, 1 << 32] {
                let a = u32_side(&mut rng, na, space);
                let b = u32_side(&mut rng, n - na, space);
                assert_vector_identical(&a, &b, &format!("n={n} |a|={na} space={space}"));
            }
        }
    }
}

#[test]
fn vector_body_on_all_equal_and_ties_straddling_every_block_and_stream_cut() {
    // `values` keys, each `ra` times in `a` and `rb` times in `b`: every
    // key is a tie class of `ra + rb` outputs shared by both sides, so
    // classes straddle the eight-key blocks at every offset and each
    // interior stream cut that does not fall between two classes falls
    // inside one. The keys start just below 2^31 and cross it.
    let base = (1u32 << 31) - 40;
    for values in [1usize, 2, 5, 31, 64, 125, 513] {
        for (ra, rb) in [(1, 1), (3, 5), (5, 3), (8, 8), (9, 7), (16, 1), (1, 16)] {
            let a: Vec<u32> = (0..values * ra).map(|i| base + (i / ra) as u32).collect();
            let b: Vec<u32> = (0..values * rb).map(|j| base + (j / rb) as u32).collect();
            let (n, class) = (a.len() + b.len(), ra + rb);
            let ctx = format!("{values} classes of {ra}+{rb}");
            let mut merged = vec![0; n];
            merge_into_by(&a, &b, &mut merged, &natural_cmp);
            for s in 1..STREAMS {
                let d = segment_boundary(n, STREAMS, s);
                if d > 0 && !d.is_multiple_of(class) {
                    assert_eq!(merged[d - 1], merged[d], "{ctx}: cut {s} not in a tie");
                }
            }
            assert_vector_identical(&a, &b, &ctx);
            assert_vector_identical(&b, &a, &format!("swapped {ctx}"));
        }
    }
    for n in [16usize, 17, 64, 65, 1000, 4099] {
        for na in [1, 8, n / 3, n / 2, n - 8] {
            let (a, b) = (vec![base; na], vec![base; n - na]);
            assert_vector_identical(&a, &b, &format!("all-equal n={n} |a|={na}"));
        }
    }
}

#[test]
fn vector_body_runs_where_avx2_is_detected() {
    // The vector body calls the comparator once per eight-key block (and on
    // its tails), the scalar body once per output: a traced merge's
    // `comparisons` shows which body ran, so a dispatch that never fires on
    // a CPU with AVX2 fails here. Traced and untraced runs must agree on
    // output and on the kernel, and only `natural_cmp::<u32>` takes the
    // vector body.
    let avx2 = cfg!(target_arch = "x86_64") && avx2_detected();
    let n = 4096usize;
    let mut rng = Prng::seed_from_u64(0x5EC7);
    let (a, b) = (
        u32_side(&mut rng, n / 2, 1 << 32),
        u32_side(&mut rng, n / 2, 1 << 32),
    );
    let (kernel, vector) = segment_kernel(&a, &b, &natural_cmp::<u32>, "natural u32");
    assert_eq!(kernel, SegmentKernel::BranchLean);
    if avx2 {
        assert!(
            vector < n as u64 / 4,
            "{vector} comparisons for {n} outputs"
        );
    } else {
        assert!(
            vector > n as u64 / 2,
            "{vector} comparisons for {n} outputs"
        );
    }
    let (kernel, scalar) = segment_kernel(&a, &b, &|x: &u32, y: &u32| x.cmp(y), "closure");
    assert_eq!(kernel, SegmentKernel::BranchLean);
    assert!(scalar > n as u64 / 2, "{scalar} closure comparisons");
    let (a, b): (Vec<u64>, Vec<u64>) = (
        a.iter().map(|&k| u64::from(k)).collect(),
        b.iter().map(|&k| u64::from(k)).collect(),
    );
    let (kernel, wide) = segment_kernel(&a, &b, &natural_cmp::<u64>, "natural u64");
    assert_eq!(kernel, SegmentKernel::BranchLean);
    assert!(wide > n as u64 / 2, "{wide} u64 comparisons");
}

/// Whether this CPU runs AVX2.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
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
    // 2^15 keys from 2^8 values. At p = 1 the whole sort is one
    // `slice::sort_by`, whose comparisons are std's and go uncounted: no
    // comparison and no merge segment. At p >= 2 the merge rounds count
    // theirs, and the §III sort's rounds merge runs with tie classes of 32
    // and more, which the probe sends to galloping. The k-way sort's
    // loser-tree merge dispatches no segment kernel, so it must report
    // comparisons and no galloping segment.
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
                kway_merge_sort_by(&mut traced, threads, &natural_cmp, &rec);
            } else {
                parallel_merge_sort_by(&mut traced, threads, &natural_cmp, &rec);
            }
            let t = rec.finish();
            let ctx = format!("kway={kway} p={threads}");
            assert_eq!(traced, expect, "traced output {ctx}");
            if threads == 1 {
                assert_eq!(counter(&t, "comparisons"), 0, "counted sort {ctx}");
                for name in segment_counters {
                    assert_eq!(counter(&t, name), 0, "{name} at p=1 {ctx}");
                }
            } else {
                assert!(counter(&t, "comparisons") > 0, "no comparisons {ctx}");
                let galloping = counter(&t, "segments_galloping");
                assert_eq!(galloping > 0, !kway, "{galloping} galloping segments {ctx}");
            }
        }
    }
}

/// Merges one segment through [`adaptive_merge_into_by`] untraced and
/// traced, checks both outputs against the classic kernel, that the traced
/// merge counted comparisons and its choice, and that both chose the same
/// kernel, which it returns with the traced merge's comparisons.
fn segment_kernel<T, F>(a: &[T], b: &[T], cmp: &F, ctx: &str) -> (SegmentKernel, u64)
where
    T: Clone + Default + PartialEq + std::fmt::Debug,
    F: Fn(&T, &T) -> Ordering,
{
    let mut oracle = vec![T::default(); a.len() + b.len()];
    merge_into_by(a, b, &mut oracle, cmp);
    let mut out = vec![T::default(); oracle.len()];
    let plain = adaptive_merge_into_by(a, b, &mut out, cmp, &NoRecorder, 0);
    assert_eq!(out, oracle, "untraced output {ctx}");
    out.fill(T::default());
    let rec = TimelineRecorder::new();
    let traced = adaptive_merge_into_by(a, b, &mut out, cmp, &rec, 0);
    let t = rec.finish();
    assert_eq!(out, oracle, "traced output {ctx}");
    let comparisons = counter(&t, "comparisons");
    assert!(comparisons > 0, "no comparisons counted {ctx}");
    assert_eq!(counter(&t, traced.counter().name()), 1, "choice {ctx}");
    assert_eq!(traced, plain, "traced dispatch diverged {ctx}");
    (plain, comparisons)
}

#[test]
fn counted_segment_merges_dispatch_like_uncounted_ones() {
    // Two sides of 2048 keys in tie classes of exactly 128, over the same
    // 16 values: the key ranges overlap and every duplicate sample of the
    // probe lands inside a tie class, so the segment is duplicate-heavy and
    // gallops whichever comparator orders it.
    fn check<K: Ord + Clone + Default + std::fmt::Debug + 'static>(key: impl Fn(u32) -> K) {
        let side: Vec<K> = (0..2048u32).map(|i| key(i / 128)).collect();
        let ty = std::any::type_name::<K>();
        let (natural, _) = segment_kernel(&side, &side, &natural_cmp::<K>, ty);
        assert_eq!(natural, SegmentKernel::Galloping, "natural_cmp::<{ty}>");
        let (closure, _) = segment_kernel(&side, &side, &|x: &K, y: &K| x.cmp(y), ty);
        assert_eq!(closure, SegmentKernel::Galloping, "closure over {ty}");
    }
    check(|k| k);
    check(|k| k as i32 - 8);
    check(|k| u64::from(k) << 40);
    check(|k| i64::from(k) - 8);
    check(|k| (k, 7u32));
}
