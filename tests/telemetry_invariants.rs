//! Telemetry-layer invariants (ISSUE 2 satellite):
//!
//! * spans recorded for one logical worker nest properly and never
//!   partially overlap;
//! * per-worker element counts satisfy Thm 14 for single-round merges
//!   (each ≤ ⌈N/p⌉, sum = N);
//! * the `NoRecorder` path produces byte-identical output to the plain
//!   public kernels and the sequential reference;
//! * `NoRecorder` is a ZST, so the untraced hot path carries no state;
//! * both exporters emit documents the in-repo JSON parser accepts;
//! * the per-kernel segment counters of a traced merge witness the
//!   adaptive routing: fine uniform primitive keys go to branch-lean, and
//!   duplicate-heavy segments go to galloping only under `natural_cmp`.

use mergepath::merge::adaptive::SegmentKernel;
use mergepath::merge::batch::batch_merge_into_recorded;
use mergepath::merge::hierarchical::{hierarchical_merge_into_recorded, HierarchicalConfig};
use mergepath::merge::inplace::parallel_inplace_merge_recorded;
use mergepath::merge::kway::parallel_kway_merge_recorded;
use mergepath::merge::parallel::{parallel_merge_into_by, parallel_merge_into_recorded};
use mergepath::merge::sequential::{merge_into_by, natural_cmp};
use mergepath::sort::parallel::{parallel_merge_sort_by, parallel_merge_sort_recorded};
use mergepath::telemetry::{NoRecorder, SpanRecord, Telemetry, TimelineRecorder};
use mergepath_cli::{run_trace, TraceKernel};
use mergepath_workloads::prng::Prng;
use mergepath_workloads::{merge_pair_sized, unsorted_keys, MergeWorkload, SortWorkload};

fn cmp(x: &u32, y: &u32) -> std::cmp::Ordering {
    x.cmp(y)
}

fn traced_parallel_merge(n: usize, threads: usize, seed: u64) -> Telemetry {
    let (a, b) = merge_pair_sized(MergeWorkload::Uniform, n / 2, n - n / 2, seed);
    let mut out = vec![0u32; n];
    let rec = TimelineRecorder::new();
    parallel_merge_into_recorded(&a, &b, &mut out, threads, &cmp, &rec);
    rec.finish()
}

/// Merges `a` and `b` on 4 workers, checks the output against the
/// sequential oracle and returns the segments each kernel won, in
/// `SegmentKernel::ALL` order: classic, branch-lean, galloping, co-rank.
fn adaptive_segments<T, F>(a: &[T], b: &[T], cmp: &F) -> [u64; 4]
where
    T: Clone + Default + PartialEq + std::fmt::Debug + Send + Sync,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    let mut oracle = vec![T::default(); a.len() + b.len()];
    merge_into_by(a, b, &mut oracle, cmp);
    let mut out = vec![T::default(); oracle.len()];
    let rec = TimelineRecorder::new();
    parallel_merge_into_recorded(a, b, &mut out, 4, cmp, &rec);
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
    parallel_merge_sort_recorded(&mut v, 4, &cmp, &rec);
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

#[test]
fn norecorder_output_identical_to_plain_and_sequential() {
    let n = 30_000;
    let (a, b) = merge_pair_sized(MergeWorkload::DuplicateHeavy, n / 2, n - n / 2, 0xBEEF);
    let mut seq = vec![0u32; n];
    merge_into_by(&a, &b, &mut seq, &cmp);

    for threads in [1, 3, 8] {
        let mut plain = vec![0u32; n];
        parallel_merge_into_by(&a, &b, &mut plain, threads, &cmp);
        let mut untraced = vec![0u32; n];
        parallel_merge_into_recorded(&a, &b, &mut untraced, threads, &cmp, &NoRecorder);
        let rec = TimelineRecorder::new();
        let mut traced = vec![0u32; n];
        parallel_merge_into_recorded(&a, &b, &mut traced, threads, &cmp, &rec);
        assert_eq!(plain, seq, "p={threads}: plain vs sequential");
        assert_eq!(untraced, seq, "p={threads}: NoRecorder vs sequential");
        assert_eq!(traced, seq, "p={threads}: traced vs sequential");
    }

    let mut expect = unsorted_keys(SortWorkload::Uniform, 25_000, 3);
    let mut plain = expect.clone();
    let mut untraced = expect.clone();
    expect.sort();
    parallel_merge_sort_by(&mut plain, 5, &cmp);
    parallel_merge_sort_recorded(&mut untraced, 5, &cmp, &NoRecorder);
    assert_eq!(plain, expect);
    assert_eq!(untraced, expect);
}

#[test]
fn norecorder_is_zero_sized() {
    assert_eq!(std::mem::size_of::<NoRecorder>(), 0);
    assert_eq!(std::mem::align_of::<NoRecorder>(), 1);
}

#[test]
fn every_traced_kernel_produces_nested_spans_and_parsable_exports() {
    for kernel in [
        TraceKernel::Parallel,
        TraceKernel::Segmented,
        TraceKernel::Batch,
        TraceKernel::Inplace,
        TraceKernel::Kway,
        TraceKernel::Hierarchical,
        TraceKernel::SortParallel,
        TraceKernel::SortKway,
        TraceKernel::SortCacheAware,
    ] {
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
    parallel_inplace_merge_recorded(&mut v, mid, threads, &cmp, &rec);
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
    batch_merge_into_recorded(&pairs, &mut out, threads, &cmp, &rec);
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
    parallel_kway_merge_recorded(&refs, &mut out, threads, &cmp, &rec);
    let t = rec.finish();
    assert_eq!(
        t.worker_items.iter().map(|w| w.items).sum::<u64>(),
        total as u64
    );

    // Hierarchical: blocks tile the output.
    let (g, h) = merge_pair_sized(MergeWorkload::Uniform, n / 2, n - n / 2, 23);
    let mut out = vec![0u32; n];
    let rec = TimelineRecorder::new();
    hierarchical_merge_into_recorded(
        &g,
        &h,
        &mut out,
        &HierarchicalConfig::new(threads),
        &cmp,
        &rec,
    );
    let t = rec.finish();
    assert_eq!(
        t.worker_items.iter().map(|w| w.items).sum::<u64>(),
        n as u64
    );
}

#[test]
fn uniform_primitive_keys_dispatch_branch_lean_segments() {
    // Fine, tie-free interleaving: every 4096-element segment is past the
    // probe's minimum length and shows neither tie runs nor an axis-hugging
    // path, so the probe's last arm names branch-lean.
    let (a, b) = merge_pair_sized(MergeWorkload::Uniform, 8192, 8192, 0xFEED);
    let [_, branch_lean, _, co_rank] = adaptive_segments(&a, &b, &natural_cmp);
    assert!(branch_lean > 0, "no branch-lean segment");
    assert_eq!(co_rank, 0, "co-rank under natural_cmp");
}

#[test]
fn duplicate_heavy_segments_gallop_only_under_natural_cmp() {
    // 4096 keys a side from 64 values: tie classes of about 128, so every
    // segment whose key ranges overlap is duplicate-heavy. The probe sends
    // those to galloping only when the comparator is provably a primitive's
    // natural order, decided by its type; keyed pairs, and the same bare
    // keys under a semantically equal comparator, go to co-rank.
    let mut rng = Prng::seed_from_u64(0x9A1D);
    let mut side = || -> Vec<u32> {
        let mut v: Vec<u32> = (0..4096).map(|_| rng.below(64) as u32).collect();
        v.sort_unstable();
        v
    };
    let (a, b) = (side(), side());
    let [_, _, galloping, co_rank] = adaptive_segments(&a, &b, &natural_cmp);
    assert!(galloping > 0, "no galloping segment");
    assert_eq!(co_rank, 0, "co-rank under natural_cmp");
    let [_, _, _, co_rank] = adaptive_segments(&a, &b, &cmp);
    assert!(co_rank > 0, "no co-rank under a plain fn");

    // (key, provenance) pairs by key: equal keys are distinguishable, and
    // the oracle comparison inside the helper pins stability.
    let tag = |v: &[u32], base: u32| -> Vec<(u32, u32)> {
        (base..).zip(v).map(|(i, &k)| (k, i)).collect()
    };
    let by_key = |x: &(u32, u32), y: &(u32, u32)| x.0.cmp(&y.0);
    let [_, _, _, co_rank] = adaptive_segments(&tag(&a, 0), &tag(&b, 1 << 20), &by_key);
    assert!(co_rank > 0, "no co-rank on keyed pairs");
}
