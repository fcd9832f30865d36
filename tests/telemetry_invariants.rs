//! Telemetry-layer invariants (ISSUE 2 satellite):
//!
//! * spans recorded for one logical worker nest properly and never
//!   partially overlap;
//! * per-worker element counts satisfy Thm 14 for single-round merges
//!   (each ≤ ⌈N/p⌉, sum = N);
//! * every kernel writes the same output over the same per-share ranges
//!   with `NoRecorder` as with a `TimelineRecorder`, and the kernels that
//!   dispatch through the probe choose the same segment kernels traced;
//! * `NoRecorder` is a ZST, so the untraced hot path carries no state;
//! * both exporters emit documents the in-repo JSON parser accepts;
//! * the per-kernel segment counters of a traced merge witness the
//!   adaptive routing: fine uniform primitive keys go to branch-lean, and
//!   duplicate-heavy segments go to galloping under every comparator.

use mergepath::diagonal::co_rank;
use mergepath::merge::adaptive::{probe_segment, SegmentKernel};
use mergepath::merge::batch::batch_merge_into_by;
use mergepath::merge::inplace::parallel_inplace_merge_by;
use mergepath::merge::kway::parallel_kway_merge_by;
use mergepath::merge::parallel::parallel_merge_into_by;
use mergepath::merge::segmented::{segmented_parallel_merge_into_by, SpmConfig};
use mergepath::merge::sequential::{merge_into_by, natural_cmp};
use mergepath::partition::{partition_segments_by, segment_boundary, tile_count, TILE_MIN};
use mergepath::sort::cache_aware::{cache_aware_parallel_sort_by, CacheAwareConfig};
use mergepath::sort::kway::kway_merge_sort_by;
use mergepath::sort::parallel::parallel_merge_sort_by;
use mergepath::telemetry::{
    CounterKind, NoRecorder, Recorder, SpanKind, SpanRecord, Telemetry, TimelineRecorder,
};
use mergepath_check::{record, Kernel, Recording};
use mergepath_cli::run_trace;
use mergepath_workloads::prng::Prng;
use mergepath_workloads::{merge_pair_sized, unsorted_keys, MergeWorkload, SortWorkload};

fn cmp(x: &u32, y: &u32) -> std::cmp::Ordering {
    x.cmp(y)
}

fn traced_parallel_merge(n: usize, threads: usize, seed: u64) -> Telemetry {
    let (a, b) = merge_pair_sized(MergeWorkload::Uniform, n / 2, n - n / 2, seed);
    let mut out = vec![0u32; n];
    let rec = TimelineRecorder::new();
    parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &rec);
    rec.finish()
}

/// Merges `a` and `b` on 4 workers, checks the output against the
/// sequential oracle and returns the segments each kernel won, in
/// `SegmentKernel::ALL` order: classic, branch-lean, galloping.
fn adaptive_segments<T, F>(a: &[T], b: &[T], cmp: &F) -> [u64; 3]
where
    T: Clone + Default + PartialEq + std::fmt::Debug + Send + Sync,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    let mut oracle = vec![T::default(); a.len() + b.len()];
    merge_into_by(a, b, &mut oracle, cmp);
    let mut out = vec![T::default(); oracle.len()];
    let rec = TimelineRecorder::new();
    parallel_merge_into_by(a, b, &mut out, 4, cmp, &rec);
    assert_eq!(out, oracle);
    let t = rec.finish();
    let won = |k: SegmentKernel| t.counters.iter().filter(move |c| c.kind == k.counter());
    SegmentKernel::ALL.map(|k| won(k).map(|c| c.total).sum())
}

/// Asserts that `spans` (all from one worker) form a forest: any two spans
/// are either disjoint in time or one contains the other, and the recorded
/// `depth` equals the number of enclosing spans.
fn assert_forest(worker: usize, spans: &mut [SpanRecord]) {
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut stack: Vec<SpanRecord> = Vec::new();
    for s in spans.iter() {
        assert!(s.start_ns <= s.end_ns, "worker {worker}: negative span");
        while let Some(top) = stack.last() {
            if top.end_ns <= s.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(top) = stack.last() {
            assert!(
                s.end_ns <= top.end_ns,
                "worker {worker}: span {:?} [{}, {}] partially overlaps {:?} [{}, {}]",
                s.kind,
                s.start_ns,
                s.end_ns,
                top.kind,
                top.start_ns,
                top.end_ns
            );
        }
        assert_eq!(
            s.depth,
            stack.len(),
            "worker {worker}: span {:?} depth {} but {} enclosing spans",
            s.kind,
            s.depth,
            stack.len()
        );
        stack.push(*s);
    }
}

fn assert_spans_nest(telemetry: &Telemetry) {
    let workers: std::collections::BTreeSet<usize> =
        telemetry.spans.iter().map(|s| s.worker).collect();
    assert!(!workers.is_empty(), "no spans recorded");
    for w in workers {
        let mut spans: Vec<SpanRecord> = telemetry
            .spans
            .iter()
            .filter(|s| s.worker == w)
            .copied()
            .collect();
        assert_forest(w, &mut spans);
    }
}

#[test]
fn spans_nest_and_never_overlap_per_worker() {
    for (n, threads) in [(10_000, 4), (4097, 3), (50_000, 8)] {
        let telemetry = traced_parallel_merge(n, threads, 0xA5);
        assert_spans_nest(&telemetry);
    }
    // Sorts stack caller-side rounds around pool rounds — the deepest
    // nesting in the repo.
    let mut v = unsorted_keys(SortWorkload::Uniform, 20_000, 7);
    let rec = TimelineRecorder::new();
    parallel_merge_sort_by(&mut v, 4, &cmp, &rec);
    assert_spans_nest(&rec.finish());
}

#[test]
fn thm14_per_worker_counts_for_single_round_merges() {
    for (n, threads) in [(1_000, 1), (10_000, 4), (10_001, 7), (65_536, 8)] {
        let telemetry = traced_parallel_merge(n, threads, 0x5A);
        let report = telemetry.load_balance(n as u64, threads);
        let ceil = (n as u64).div_ceil(threads as u64);
        let sum: u64 = report.per_worker_items.iter().map(|w| w.items).sum();
        assert_eq!(sum, n as u64, "n={n} p={threads}: counts must sum to N");
        for w in &report.per_worker_items {
            assert!(
                w.items <= ceil,
                "n={n} p={threads}: worker {} got {} > ⌈N/p⌉ = {ceil}",
                w.worker,
                w.items
            );
        }
        assert!(report.thm14_exact, "n={n} p={threads}");
        assert_eq!(report.predicted_max, ceil);
    }
}

/// Every write of `rec` in round order and, within a round, in share
/// order, as `(share, offset, len)` in elements: the offset into `buf`, or
/// `None` for a write to a scratch buffer, whose address differs from run
/// to run.
fn writes_by_share(rec: &Recording, buf: &[u32]) -> Vec<(usize, Option<usize>, usize)> {
    let start = buf.as_ptr() as usize;
    let span = start..start + std::mem::size_of_val(buf);
    rec.rounds
        .iter()
        .flat_map(|r| r.shares.iter().enumerate())
        .flat_map(|(k, s)| s.writes.iter().map(move |w| (k, w)))
        .map(|(k, w)| {
            let offset = span.contains(&w.addr).then(|| (w.addr - start) / 4);
            (k, offset, w.elems)
        })
        .collect()
}

#[test]
fn tiled_merges_cut_each_tile_exactly_and_trace_like_untraced_runs() {
    // A zipfian pair of 2^16 + 2^16 keys: 2^17 outputs tile at every
    // thread count below, and its tiles want different kernels. Each tile
    // must write exactly its cut ⌊k·n/T⌋..⌊(k+1)·n/T⌋ after two searches
    // of logarithmic cost (Thms 9 and 14 per tile), and the traced run
    // must cut the same tiles and pick the same kernels as the untraced
    // one.
    let side = 1usize << 16;
    let (a, b) = merge_pair_sized(MergeWorkload::Zipfian, side, side, 0x711E);
    let n = a.len() + b.len();
    let mut oracle = vec![0u32; n];
    merge_into_by(&a, &b, &mut oracle, &cmp);
    let search_cap = 2 * ((side as f64).log2().ceil() as u64 + 1);
    for threads in [1usize, 2, 3, 8] {
        let tiles = tile_count(n, threads);
        assert!(tiles > threads, "threads={threads}: {n} outputs must tile");
        let cuts: Vec<(usize, Option<usize>, usize)> = (0..tiles)
            .map(|k| {
                let lo = segment_boundary(n, tiles, k);
                (k, Some(lo), segment_boundary(n, tiles, k + 1) - lo)
            })
            .collect();
        let expected: Vec<SegmentKernel> = partition_segments_by(&a[..], &b[..], tiles, &cmp)
            .iter()
            .map(|s| probe_segment(&a[s.a_start..s.a_end], &b[s.b_start..s.b_end], &cmp))
            .collect();

        // Under a virtual schedule, traced and untraced runs write the
        // same tiles, each exactly its cut.
        let mut out = vec![0u32; n];
        let ((), untraced) = record(threads as u64, || {
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &NoRecorder)
        });
        assert_eq!(out, oracle, "untraced, threads={threads}");
        assert_eq!(writes_by_share(&untraced, &out), cuts, "threads={threads}");
        out.fill(0);
        let rec = TimelineRecorder::new();
        let ((), traced) = record(threads as u64, || {
            parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &rec)
        });
        assert_eq!(out, oracle, "traced, threads={threads}");
        assert_eq!(writes_by_share(&traced, &out), cuts, "threads={threads}");
        drop(rec);

        // On the real pool, the trace names one kernel per tile — the one
        // the probe picks for that tile's inputs — two searches per tile,
        // and each tile's items.
        out.fill(0);
        let rec = TimelineRecorder::new();
        parallel_merge_into_by(&a, &b, &mut out, threads, &cmp, &rec);
        assert_eq!(out, oracle, "real pool, threads={threads}");
        let t = rec.finish();
        let total = |k: usize, kind: CounterKind| -> u64 {
            t.counters
                .iter()
                .filter(|c| c.worker == k && c.kind == kind)
                .map(|c| c.total)
                .sum()
        };
        for (k, &kernel) in expected.iter().enumerate() {
            let won = SegmentKernel::ALL.map(|kk| total(k, kk.counter()));
            let want = SegmentKernel::ALL.map(|kk| u64::from(kk == kernel));
            assert_eq!(won, want, "threads={threads} tile {k}: kernel");
            let searches = t
                .spans
                .iter()
                .filter(|s| s.worker == k && s.kind == SpanKind::DiagonalSearch)
                .count();
            assert_eq!(searches, 2, "threads={threads} tile {k}: searches");
            let probes = total(k, CounterKind::DiagonalProbeSteps);
            assert!(probes <= search_cap, "tile {k}: {probes} > {search_cap}");
        }
        let report = t.load_balance(n as u64, threads);
        assert_eq!(
            report.workers, tiles,
            "threads={threads}: one logical worker per tile"
        );
        let items: Vec<(usize, u64)> = report
            .per_worker_items
            .iter()
            .map(|w| (w.worker, w.items))
            .collect();
        let want: Vec<(usize, u64)> = cuts.iter().map(|&(k, _, len)| (k, len as u64)).collect();
        assert_eq!(items, want, "threads={threads}: items per tile");
        assert!(report.thm14_exact, "threads={threads}");
        assert_eq!(report.predicted_max, (n as u64).div_ceil(tiles as u64));
        if threads == 2 {
            let mut kinds = expected.clone();
            kinds.sort();
            kinds.dedup();
            assert!(kinds.len() > 1, "the zipfian tiles all chose {kinds:?}");
        }
    }
}

/// A sort whose merge round is cut into more tiles than threads: its
/// leaf shares and its merge tiles are different logical workers, but both
/// rounds run on the same `p` participants. Items are reported per tile
/// (Thm 14 holds for the one merge round at p = 2) and busy time per
/// participant.
#[test]
fn tiled_sort_traces_count_items_per_tile_and_busy_per_participant() {
    let (n, threads) = (1usize << 17, 2);
    let tiles = tile_count(n, threads);
    assert!(tiles > threads, "{n} outputs must tile");
    let mut v = unsorted_keys(SortWorkload::Uniform, n, 0x5027);
    let rec = TimelineRecorder::new();
    parallel_merge_sort_by(&mut v, threads, &cmp, &rec);
    assert!(v.windows(2).all(|w| w[0] <= w[1]));
    let t = rec.finish();
    let report = t.load_balance(n as u64, threads);
    assert_eq!((report.p, report.workers), (threads, tiles));
    assert!(report.thm14_exact, "{report:?}");
    assert_eq!(report.max_items, report.predicted_max);
    assert!(
        t.shares.iter().any(|s| s.share >= threads),
        "the merge round ran more tiles than threads"
    );
    assert!(t.shares.iter().all(|s| s.tid < threads));
    let busy: u64 = t.shares.iter().map(|s| s.end_ns - s.start_ns).sum();
    assert!(
        (report.busy.mean_ns * threads as f64 - busy as f64).abs() < 1.0,
        "busy time is averaged over the {threads} participants"
    );
}

/// Runs `kernel` under `natural_cmp` with the sorted halves `a` and `b`
/// of `keys` as its merge inputs, or `keys` as its sort input, reporting
/// into `rec`, and returns the buffer it wrote. Every merge's output is
/// the sorted keys: the batch's two pairs are cut at a co-rank, and the
/// k-way merge's four lists are the halves' halves. The segmented merge
/// and the cache-aware sort cut 2^15-output windows, twice `2 · TILE_MIN`,
/// so each window is cut into tiles.
fn run_kernel<R: Recorder>(
    kernel: Kernel,
    keys: &[u32],
    (a, b): (&[u32], &[u32]),
    threads: usize,
    rec: &R,
) -> Vec<u32> {
    let cmp = natural_cmp::<u32>;
    let window = 3 * 4 * TILE_MIN;
    let mut buf = vec![0; keys.len()];
    match kernel {
        Kernel::Parallel => parallel_merge_into_by(a, b, &mut buf, threads, &cmp, rec),
        Kernel::Segmented => {
            let spm = SpmConfig::new(window, threads);
            segmented_parallel_merge_into_by(a, b, &mut buf, &spm, &cmp, rec);
        }
        Kernel::Batch => {
            let i = co_rank(keys.len() / 2, a, b);
            let j = keys.len() / 2 - i;
            let pairs = [(&a[..i], &b[..j]), (&a[i..], &b[j..])];
            batch_merge_into_by(&pairs, &mut buf, threads, &cmp, rec);
        }
        Kernel::Inplace => {
            buf = [a, b].concat();
            parallel_inplace_merge_by(&mut buf, a.len(), threads, &cmp, rec);
        }
        Kernel::Kway => {
            let (ha, hb) = (a.len() / 2, b.len() / 2);
            let lists = [&a[..ha], &a[ha..], &b[..hb], &b[hb..]];
            parallel_kway_merge_by(&lists, &mut buf, threads, &cmp, rec);
        }
        Kernel::SortParallel | Kernel::SortKway | Kernel::SortCacheAware => {
            buf.copy_from_slice(keys);
            match kernel {
                Kernel::SortParallel => parallel_merge_sort_by(&mut buf, threads, &cmp, rec),
                Kernel::SortKway => kway_merge_sort_by(&mut buf, threads, &cmp, rec),
                _ => {
                    let cfg = CacheAwareConfig::new(window, threads);
                    cache_aware_parallel_sort_by(&mut buf, &cfg, &cmp, rec);
                }
            }
        }
    }
    buf
}

#[test]
fn traced_runs_write_like_untraced_runs_in_every_kernel() {
    // Two legs of 2^16 `u32` keys under `natural_cmp`. From 2^8 values
    // (tie classes of about 256), the probe sends every merge tile whose
    // key ranges overlap to galloping; from all of `u32`, to branch-lean,
    // whose vector body runs on CPUs with AVX2. Recorded under one virtual
    // schedule seed, the `NoRecorder` run and the traced run must write the
    // same ranges from the same shares. Where the probe picks segment
    // kernels, the traced run must pick the leg's kernel.
    let n = 1usize << 16;
    for (space, kernel) in [
        (1u64 << 8, CounterKind::SegmentsGalloping),
        (1 << 32, CounterKind::SegmentsBranchLean),
    ] {
        let mut rng = Prng::seed_from_u64(0x7E1E);
        let keys: Vec<u32> = (0..n).map(|_| rng.below(space) as u32).collect();
        traced_runs_write_like_untraced_runs(&keys, kernel);
    }
}

/// Runs every kernel on `keys` (merges: on its sorted halves) at 1, 2 and
/// 3 threads, untraced and traced, and checks outputs, per-share writes
/// and that the probed kernels chose `segments`.
fn traced_runs_write_like_untraced_runs(keys: &[u32], segments: CounterKind) {
    let n = keys.len();
    let (mut a, mut b) = (keys[..n / 2].to_vec(), keys[n / 2..].to_vec());
    a.sort_unstable();
    b.sort_unstable();
    let mut expect = keys.to_vec();
    expect.sort_unstable();
    use Kernel::{Batch, Parallel, Segmented, SortCacheAware, SortParallel};
    let probed = [Parallel, Segmented, Batch, SortParallel, SortCacheAware];
    for threads in [1usize, 2, 3] {
        for kernel in Kernel::ALL {
            let ctx = format!("{} p={threads} {}", kernel.name(), segments.name());
            let (untraced, plain) = record(5, || {
                run_kernel(kernel, keys, (&a, &b), threads, &NoRecorder)
            });
            let rec = TimelineRecorder::new();
            let (traced, seen) = record(5, || run_kernel(kernel, keys, (&a, &b), threads, &rec));
            assert_eq!(untraced, expect, "untraced output {ctx}");
            assert_eq!(traced, expect, "traced output {ctx}");
            assert_eq!(
                writes_by_share(&seen, &traced),
                writes_by_share(&plain, &untraced),
                "per-share writes {ctx}"
            );
            let t = rec.finish();
            let total = |kind| -> u64 {
                t.counters
                    .iter()
                    .filter(|c| c.kind == kind)
                    .map(|c| c.total)
                    .sum()
            };
            if probed.contains(&kernel) {
                assert!(
                    threads == 1 || total(segments) > 0,
                    "no {} {ctx}",
                    segments.name()
                );
            }
        }
    }
}

#[test]
fn norecorder_is_zero_sized() {
    assert_eq!(std::mem::size_of::<NoRecorder>(), 0);
    assert_eq!(std::mem::align_of::<NoRecorder>(), 1);
}

#[test]
fn every_traced_kernel_produces_nested_spans_and_parsable_exports() {
    for kernel in Kernel::ALL {
        let run = run_trace(kernel, 5_000, 3, 0xC0FFEE);
        let doc = mergepath::telemetry::json::parse(&run.chrome_json)
            .unwrap_or_else(|e| panic!("{}: chrome trace: {e}", kernel.name()));
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{}: no traceEvents", kernel.name()));
        assert!(!events.is_empty(), "{}: empty trace", kernel.name());
        for line in run.metrics_jsonl.lines() {
            mergepath::telemetry::json::parse(line)
                .unwrap_or_else(|e| panic!("{}: metrics line: {e}", kernel.name()));
        }
        let sum: u64 = run.report.per_worker_items.iter().map(|w| w.items).sum();
        assert!(sum > 0, "{}: no per-worker items", kernel.name());
    }
}

#[test]
fn inplace_and_multiway_merges_tile_the_output_exactly() {
    let n = 12_000usize;
    let threads = 5;
    let cmp = |x: &u32, y: &u32| x.cmp(y);

    // In-place: leaves tile `v`, so items sum to N.
    let (a, b) = merge_pair_sized(MergeWorkload::Uniform, n / 2, n - n / 2, 9);
    let mid = a.len();
    let mut v = a;
    v.extend(b);
    let rec = TimelineRecorder::new();
    parallel_inplace_merge_by(&mut v, mid, threads, &cmp, &rec);
    let t = rec.finish();
    assert_eq!(
        t.worker_items.iter().map(|w| w.items).sum::<u64>(),
        n as u64
    );

    // Batch: fragments tile the concatenated output.
    let (c, d) = merge_pair_sized(MergeWorkload::Uniform, n / 3, n / 4, 11);
    let (e, f) = merge_pair_sized(MergeWorkload::Uniform, n / 5, n / 6, 13);
    let pairs = [(c.as_slice(), d.as_slice()), (e.as_slice(), f.as_slice())];
    let total = c.len() + d.len() + e.len() + f.len();
    let mut out = vec![0u32; total];
    let rec = TimelineRecorder::new();
    batch_merge_into_by(&pairs, &mut out, threads, &cmp, &rec);
    let t = rec.finish();
    assert_eq!(
        t.worker_items.iter().map(|w| w.items).sum::<u64>(),
        total as u64
    );

    // K-way: rank splits tile the output.
    let lists: Vec<Vec<u32>> = (0..6)
        .map(|i| mergepath_workloads::sorted_keys(n / 6, 17 + i as u64))
        .collect();
    let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
    let total: usize = refs.iter().map(|r| r.len()).sum();
    let mut out = vec![0u32; total];
    let rec = TimelineRecorder::new();
    parallel_kway_merge_by(&refs, &mut out, threads, &cmp, &rec);
    let t = rec.finish();
    assert_eq!(
        t.worker_items.iter().map(|w| w.items).sum::<u64>(),
        total as u64
    );
}

#[test]
fn uniform_primitive_keys_dispatch_branch_lean_segments() {
    // Fine, tie-free interleaving: every 4096-element segment is past the
    // probe's minimum length and shows neither tie runs nor an axis-hugging
    // path, so the probe's last arm names branch-lean.
    let (a, b) = merge_pair_sized(MergeWorkload::Uniform, 8192, 8192, 0xFEED);
    let [_, branch_lean, _] = adaptive_segments(&a, &b, &natural_cmp);
    assert!(branch_lean > 0, "no branch-lean segment");
}

#[test]
fn duplicate_heavy_segments_gallop_under_every_comparator() {
    // 4096 keys a side from 64 values: tie classes of about 128, so every
    // segment whose key ranges overlap is duplicate-heavy. The probe sends
    // all four to galloping, whichever comparator orders the keys: the
    // canonical natural order, a semantically equal plain fn, or a key-only
    // comparator over keyed pairs.
    let mut rng = Prng::seed_from_u64(0x9A1D);
    let mut side = || -> Vec<u32> {
        let mut v: Vec<u32> = (0..4096).map(|_| rng.below(64) as u32).collect();
        v.sort_unstable();
        v
    };
    let (a, b) = (side(), side());
    assert_eq!(adaptive_segments(&a, &b, &natural_cmp), [0, 0, 4]);
    assert_eq!(adaptive_segments(&a, &b, &cmp), [0, 0, 4], "plain fn");

    // (key, provenance) pairs by key: equal keys are distinguishable, and
    // the oracle comparison inside the helper pins stability.
    let tag = |v: &[u32], base: u32| -> Vec<(u32, u32)> {
        (base..).zip(v).map(|(i, &k)| (k, i)).collect()
    };
    let by_key = |x: &(u32, u32), y: &(u32, u32)| x.0.cmp(&y.0);
    let keyed = adaptive_segments(&tag(&a, 0), &tag(&b, 1 << 20), &by_key);
    assert_eq!(keyed, [0, 0, 4], "keyed pairs");
}
