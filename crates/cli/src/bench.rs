//! `mp bench` — the reproducible perf harness behind the committed
//! `BENCH_*.json` artifacts.
//!
//! Three artifacts come out of one run, all through the shared envelope
//! writer ([`mergepath::telemetry::artifact`]) so they can never disagree
//! on schema version or environment fingerprint:
//!
//! * `BENCH_merge.json` — the parallel merge across four workload
//!   families (uniform, duplicate-heavy, run-structured, adversarial-tie):
//!   median ns/element under the probe's per-segment dispatch, the share
//!   of the timed pool rounds that ran solo on the caller, comparison
//!   counts, per-kernel segment counters and the Thm 14 load-balance skew,
//!   plus one-thread columns in which each of the three segment kernels
//!   merges the family's whole pair on the calling thread, with no pool.
//! * `BENCH_sort.json` — the §III parallel merge sort across four sort
//!   families, same columns without the one-thread kernel columns.
//! * `BENCH_telemetry.json` — traced vs untraced wall-clock and the
//!   load-balance report for every parallel kernel, refreshed here so it
//!   shares the other artifacts' fingerprint.
//!
//! Everything is seeded and pure-computation; the only I/O happens in
//! `main.rs`, so the whole harness is unit-testable at smoke scale.

use std::fmt::Write as _;
use std::time::Instant;

use mergepath::merge::adaptive::SegmentKernel;
use mergepath::merge::parallel::parallel_merge_into_by;
use mergepath::merge::sequential::natural_cmp;
use mergepath::sort::parallel::parallel_merge_sort_by;
use mergepath::telemetry::artifact::{render_artifact, EnvFingerprint};
use mergepath::telemetry::{NoRecorder, Recorder, Telemetry, TimelineRecorder};
use mergepath_workloads::{merge_pair_sized, unsorted_keys, MergeWorkload, SortWorkload};

use mergepath_check::Kernel;

use crate::{trace_inputs, WINDOW};

/// Scale and reproducibility knobs for one `mp bench` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Total output elements per measured merge / sorted elements per sort.
    pub n: usize,
    /// Worker count.
    pub threads: usize,
    /// Workload PRNG seed.
    pub seed: u64,
    /// Timing repetitions per data point (the median is reported).
    pub reps: usize,
}

impl BenchConfig {
    /// The full configuration behind the committed artifacts.
    pub fn full(threads: usize, seed: u64) -> Self {
        BenchConfig {
            n: 1 << 20,
            threads,
            seed,
            reps: 5,
        }
    }

    /// A fast configuration for CI's `verify-bench` gate and tests.
    pub fn smoke(threads: usize, seed: u64) -> Self {
        BenchConfig {
            n: 1 << 16,
            threads,
            seed,
            reps: 3,
        }
    }
}

/// The rendered artifacts of one `mp bench` run, ready to write to disk.
#[derive(Debug, Clone)]
pub struct BenchArtifacts {
    /// Human-readable summary for stdout.
    pub summary: String,
    /// `BENCH_merge.json` contents.
    pub merge_json: String,
    /// `BENCH_sort.json` contents.
    pub sort_json: String,
    /// `BENCH_telemetry.json` contents.
    pub telemetry_json: String,
}

/// The merge workload families the harness sweeps. `adversarial-tie` is
/// built inline (every element equal — the tie-handling worst case) rather
/// than as a tenth [`MergeWorkload`] variant, which exhaustive kernel
/// sweeps elsewhere size against.
pub const MERGE_FAMILIES: [&str; 4] = ["uniform", "duplicate-heavy", "runs", "adversarial-tie"];

/// The sort workload families the harness sweeps.
pub const SORT_FAMILIES: [SortWorkload; 4] = [
    SortWorkload::Uniform,
    SortWorkload::DuplicateHeavy,
    SortWorkload::Sorted,
    SortWorkload::OrganPipe,
];

fn merge_inputs(family: &str, n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let (na, nb) = (n / 2, n - n / 2);
    match family {
        "uniform" => merge_pair_sized(MergeWorkload::Uniform, na, nb, seed),
        "duplicate-heavy" => merge_pair_sized(MergeWorkload::DuplicateHeavy, na, nb, seed),
        "runs" => merge_pair_sized(MergeWorkload::Runs, na, nb, seed),
        "adversarial-tie" => (vec![7u32; na], vec![7u32; nb]),
        other => unreachable!("unknown merge family {other}"),
    }
}

/// The median of `times` (the upper one of an even count).
fn median(mut times: Vec<u128>) -> f64 {
    times.sort_unstable();
    times[times.len() / 2] as f64
}

/// Median wall-clock nanoseconds of `reps` runs of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos()
            })
            .collect(),
    )
}

/// One family's measurements under the probe's dispatch.
#[derive(Debug, Clone)]
struct FamilyRow {
    family: String,
    adaptive_ns_per_elem: f64,
    /// Share of the timed reps' pool rounds (of at least two tickets) in
    /// which the caller ran every share: the regime in which `p` threads
    /// run at one thread's speed. 0 when no round reached the pool.
    solo_frac: f64,
    comparisons: u64,
    segments: [u64; 3],
    max_items: u64,
    predicted_max: u64,
    imbalance: f64,
    /// Merge rows only (`None` on sort rows): median ns/element of each
    /// [`SegmentKernel`] (in `ALL` order) merging the family's whole pair
    /// on the calling thread. No pool, so where the OS places a woken
    /// worker cannot move these columns.
    kernel_t1_ns_per_elem: Option<[f64; 3]>,
}

fn counter_total(t: &Telemetry, name: &str) -> u64 {
    t.counters
        .iter()
        .filter(|c| c.kind.name() == name)
        .map(|c| c.total)
        .sum()
}

fn family_row(
    family: &str,
    n: usize,
    cfg: &BenchConfig,
    timed: impl FnMut(),
    traced: impl FnOnce(&TimelineRecorder),
) -> FamilyRow {
    let pool = mergepath::executor::global();
    let before = pool.round_counts();
    let adaptive_ns = median_ns(cfg.reps, timed);
    let after = pool.round_counts();
    let (solo, shared) = (after.solo - before.solo, after.shared - before.shared);
    let rec = TimelineRecorder::new();
    traced(&rec);
    let telemetry = rec.finish();
    let report = telemetry.load_balance(n as u64, cfg.threads);
    FamilyRow {
        family: family.to_string(),
        adaptive_ns_per_elem: adaptive_ns / n as f64,
        solo_frac: solo as f64 / (solo + shared).max(1) as f64,
        comparisons: counter_total(&telemetry, "comparisons"),
        segments: SegmentKernel::ALL.map(|k| counter_total(&telemetry, k.counter().name())),
        max_items: report.max_items,
        predicted_max: report.predicted_max,
        imbalance: report.busy.imbalance,
        kernel_t1_ns_per_elem: None,
    }
}

/// The merge rows' one-thread kernel columns for the pair `a`, `b`.
fn kernel_t1_ns_per_elem(a: &[u32], b: &[u32], cfg: &BenchConfig) -> [f64; 3] {
    let cmp = natural_cmp::<u32>;
    let n = a.len() + b.len();
    let mut out = vec![0u32; n];
    SegmentKernel::ALL
        .map(|kernel| median_ns(cfg.reps, || kernel.merge_into_by(a, b, &mut out, &cmp)) / n as f64)
}

fn rows_payload(cfg: &BenchConfig, rows: &[FamilyRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"n\":{},\"threads\":{},\"seed\":{},\"reps\":{},\"families\":[",
        cfg.n, cfg.threads, cfg.seed, cfg.reps,
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"family\":\"{}\",\"adaptive_ns_per_elem\":{},\"solo_frac\":{},\"comparisons\":{}",
            r.family, r.adaptive_ns_per_elem, r.solo_frac, r.comparisons,
        );
        for (kernel, segments) in SegmentKernel::ALL.iter().zip(r.segments) {
            let _ = write!(out, ",\"{}\":{segments}", kernel.counter().name());
        }
        let _ = write!(
            out,
            ",\"max_items\":{},\"predicted_max\":{},\"imbalance\":{}",
            r.max_items, r.predicted_max, r.imbalance,
        );
        if let Some(t1) = r.kernel_t1_ns_per_elem {
            for (kernel, ns) in SegmentKernel::ALL.iter().zip(t1) {
                let _ = write!(out, ",\"{}_t1_ns_per_elem\":{ns}", kernel.name());
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn summarize(title: &str, rows: &[FamilyRow], out: &mut String) {
    let _ = write!(
        out,
        "{title}: family, adaptive ns/elem, solo frac, segments (c/bl/g)"
    );
    if rows.iter().any(|r| r.kernel_t1_ns_per_elem.is_some()) {
        let _ = write!(out, ", one-thread classic/branch-lean/galloping ns/elem");
    }
    out.push('\n');
    for r in rows {
        let [c, bl, g] = r.segments;
        let _ = write!(
            out,
            "  {:<16} {:>8.3} {:>5.2}  {c}/{bl}/{g}",
            r.family, r.adaptive_ns_per_elem, r.solo_frac
        );
        if let Some([c, bl, g]) = r.kernel_t1_ns_per_elem {
            let _ = write!(out, "  {c:>8.3} {bl:>8.3} {g:>8.3}");
        }
        out.push('\n');
    }
}

/// Wall-clock nanoseconds of one [`Kernel::run_on`] call on `buf`, which
/// is first refreshed from `pristine` ([`Kernel::buffer`]'s output) before
/// the clock starts: the in-place merge and the sorts rearrange their
/// buffer, and the copy is not the kernel's work.
fn time_run_on<R: Recorder>(
    kernel: Kernel,
    (a, b): (&[u32], &[u32]),
    pristine: &[u32],
    buf: &mut [u32],
    threads: usize,
    rec: &R,
) -> u128 {
    buf.copy_from_slice(pristine);
    let start = Instant::now();
    kernel.run_on(a, b, buf, threads, WINDOW, &natural_cmp::<u32>, rec);
    start.elapsed().as_nanos()
}

/// The telemetry artifact's payload: traced vs untraced wall-clock plus
/// the load-balance report for every parallel kernel, and the serving
/// layer's observability overhead (`serve_overhead` — the number
/// `cargo xtask verify-metrics` gates at ≤ 3%). The kernels' pair and
/// each kernel's buffer ([`Kernel::buffer`]) are built once, before any
/// clock starts, so each cell times [`Kernel::run_on`] alone; see
/// [`time_run_on`]. A traced cell builds its recorder before the clock
/// starts and finishes it after the clock stops.
fn telemetry_payload(n: usize, threads: usize, seed: u64, reps: usize) -> String {
    let mut payload = String::new();
    let _ = write!(
        payload,
        "{{\"n\":{n},\"threads\":{threads},\"reps\":{reps},\"kernels\":["
    );
    let (a, b) = trace_inputs(n, seed);
    for (i, kernel) in Kernel::ALL.into_iter().enumerate() {
        let pristine = kernel.buffer(&a, &b);
        let mut buf = pristine.clone();
        let untraced: Vec<u128> = (0..reps.max(1))
            .map(|_| time_run_on(kernel, (&a, &b), &pristine, &mut buf, threads, &NoRecorder))
            .collect();
        let mut traced = Vec::with_capacity(reps.max(1));
        let mut telemetry = None;
        for _ in 0..reps.max(1) {
            let rec = TimelineRecorder::new();
            traced.push(time_run_on(
                kernel,
                (&a, &b),
                &pristine,
                &mut buf,
                threads,
                &rec,
            ));
            telemetry = Some(rec.finish());
        }
        let (untraced_ns, traced_ns) = (median(untraced), median(traced));
        let telemetry = telemetry.expect("at least one traced rep");
        let report = telemetry.load_balance(n as u64, threads);
        if i > 0 {
            payload.push(',');
        }
        let _ = write!(
            payload,
            "{{\"kernel\":\"{}\",\"untraced_s\":{},\"traced_s\":{},\"overhead\":{},\
             \"spans\":{},\"load_balance\":{}}}",
            kernel.name(),
            untraced_ns / 1e9,
            traced_ns / 1e9,
            traced_ns / untraced_ns.max(f64::MIN_POSITIVE) - 1.0,
            telemetry.spans.len(),
            report.to_json(),
        );
    }
    // Serving-layer observability overhead at a bench point scaled from
    // the kernel sweep's `n` (same requests-per-batch as the serve bench's
    // queue capacity).
    payload.push_str("],\"serve_overhead\":");
    let overhead = crate::serve_bench::measure_serve_overhead(
        1024,
        (n / 32).clamp(2048, 8192),
        reps,
        threads,
        seed,
    );
    payload.push_str(&overhead.to_json());
    payload.push('}');
    payload
}

/// Runs the full harness and renders all three artifacts.
///
/// # Panics
/// Panics if an assembled artifact fails the envelope self-check — a bug
/// in this module, not an input condition.
pub fn run_bench(cfg: &BenchConfig) -> BenchArtifacts {
    let env = EnvFingerprint::capture();
    // The canonical comparator keeps the sweep on the probe's
    // natural-order path — the same dispatch callers of the plain `_by`
    // entry points get on primitive keys.
    let cmp = natural_cmp::<u32>;
    let mut summary = format!(
        "mp bench: n={} threads={} seed={} reps={}\n",
        cfg.n, cfg.threads, cfg.seed, cfg.reps,
    );

    // --- merge sweep ---
    let merge_rows: Vec<FamilyRow> = MERGE_FAMILIES
        .iter()
        .map(|family| {
            let (a, b) = merge_inputs(family, cfg.n, cfg.seed);
            let mut out = vec![0u32; cfg.n];
            let mut row = family_row(
                family,
                cfg.n,
                cfg,
                || parallel_merge_into_by(&a, &b, &mut out, cfg.threads, &cmp, &NoRecorder),
                |rec| {
                    let mut traced_out = vec![0u32; cfg.n];
                    parallel_merge_into_by(&a, &b, &mut traced_out, cfg.threads, &cmp, rec);
                },
            );
            row.kernel_t1_ns_per_elem = Some(kernel_t1_ns_per_elem(&a, &b, cfg));
            row
        })
        .collect();
    summarize("merge", &merge_rows, &mut summary);

    // --- sort sweep ---
    let sort_rows: Vec<FamilyRow> = SORT_FAMILIES
        .iter()
        .map(|family| {
            let v = unsorted_keys(*family, cfg.n, cfg.seed);
            family_row(
                family.name(),
                cfg.n,
                cfg,
                || {
                    let mut w = v.clone();
                    parallel_merge_sort_by(&mut w, cfg.threads, &cmp, &NoRecorder);
                },
                |rec| {
                    let mut w = v.clone();
                    parallel_merge_sort_by(&mut w, cfg.threads, &cmp, rec);
                },
            )
        })
        .collect();
    summarize("sort", &sort_rows, &mut summary);

    // --- telemetry refresh (same writer, same fingerprint) ---
    let telemetry = telemetry_payload(cfg.n, cfg.threads, cfg.seed, cfg.reps);

    let merge_json = render_artifact("bench_merge", &env, &rows_payload(cfg, &merge_rows))
        .expect("merge artifact must pass its own schema check");
    let sort_json = render_artifact("bench_sort", &env, &rows_payload(cfg, &sort_rows))
        .expect("sort artifact must pass its own schema check");
    let telemetry_json = render_artifact("bench_telemetry", &env, &telemetry)
        .expect("telemetry artifact must pass its own schema check");
    BenchArtifacts {
        summary,
        merge_json,
        sort_json,
        telemetry_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath::telemetry::artifact::{check_artifact, same_env};
    use mergepath::telemetry::json::{self, Value};

    fn family_names(doc: &Value) -> Vec<String> {
        doc.get("payload")
            .and_then(|p| p.get("families"))
            .and_then(Value::as_array)
            .expect("families array")
            .iter()
            .map(|f| f.get("family").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn smoke_bench_produces_three_consistent_artifacts() {
        let cfg = BenchConfig {
            n: 1 << 12,
            threads: 4,
            seed: 7,
            reps: 1,
        };
        let run = run_bench(&cfg);
        let merge = check_artifact(&run.merge_json, "bench_merge").expect("merge envelope");
        let sort = check_artifact(&run.sort_json, "bench_sort").expect("sort envelope");
        let telemetry =
            check_artifact(&run.telemetry_json, "bench_telemetry").expect("telemetry envelope");
        assert!(same_env(&merge, &sort) && same_env(&sort, &telemetry));
        assert_eq!(family_names(&merge), MERGE_FAMILIES);
        assert_eq!(
            family_names(&sort),
            ["uniform", "duplicate-heavy", "sorted", "organ-pipe"]
        );
        let kernels = telemetry
            .get("payload")
            .and_then(|p| p.get("kernels"))
            .and_then(Value::as_array)
            .expect("kernels array");
        assert_eq!(kernels.len(), Kernel::ALL.len());
        let serve_overhead = telemetry
            .get("payload")
            .and_then(|p| p.get("serve_overhead"))
            .expect("serve_overhead section");
        for key in ["wall_ns", "p99_ns", "hook_ns_per_request", "overhead"] {
            assert!(
                serve_overhead.get(key).and_then(Value::as_f64).is_some(),
                "serve_overhead missing {key}"
            );
        }
        assert!(run.summary.contains("merge:"));
        assert!(run.summary.contains("sort:"));
        // Merge rows carry the one-thread kernel columns; sort rows do not.
        let merge_only = [
            "classic_t1_ns_per_elem",
            "branch_lean_t1_ns_per_elem",
            "galloping_t1_ns_per_elem",
        ];
        for (doc, is_merge) in [(&merge, true), (&sort, false)] {
            let rows = doc.get("payload").and_then(|p| p.get("families"));
            for f in rows.and_then(Value::as_array).unwrap() {
                for col in ["adaptive_ns_per_elem", "segments_galloping", "imbalance"] {
                    assert!(
                        f.get(col).and_then(Value::as_f64).is_some(),
                        "missing {col}"
                    );
                }
                let solo = f.get("solo_frac").and_then(Value::as_f64);
                assert!(
                    solo.is_some_and(|x| (0.0..=1.0).contains(&x)),
                    "solo_frac {solo:?}"
                );
                for col in merge_only {
                    let present = f.get(col).and_then(Value::as_f64).is_some();
                    assert_eq!(present, is_merge, "{col} on a merge row: {is_merge}");
                }
                // Retired columns: two speedup ratios, and the retired
                // co-rank kernel's counter and one-thread column, named
                // as the live kernels' columns are.
                let retired_kernel = "co_rank";
                for gone in [
                    "speedup_vs_classic".to_string(),
                    "speedup_co_rank_vs_classic".to_string(),
                    "pinned_co_rank_segments".to_string(),
                    format!("segments_{retired_kernel}"),
                    format!("{retired_kernel}_t1_ns_per_elem"),
                ] {
                    assert!(f.get(&gone).is_none(), "retired column {gone}");
                }
            }
        }
    }

    #[test]
    fn every_merge_row_meets_theorem_14_per_tile() {
        // The merge rows' load balance comes from a traced tiled
        // Algorithm 1 run. At 2^15 outputs and 2 threads it cuts
        // `tile_count` = 4 tiles, so the row reports one worker per tile
        // and `predicted_max` = ⌈n/T⌉, not ⌈n/p⌉. Every tile's `⌊k·n/T⌋`
        // cut keeps it at `⌊n/T⌋` or `⌈n/T⌉` items: cut arithmetic, not
        // timing, hence the gate `cargo xtask verify-bench` enforces.
        let cfg = BenchConfig {
            n: 1 << 15,
            threads: 2,
            seed: 11,
            reps: 1,
        };
        let tiles = mergepath::partition::tile_count(cfg.n, cfg.threads);
        assert!(
            tiles > cfg.threads,
            "{tiles} tiles must outnumber the threads"
        );
        let run = run_bench(&cfg);
        let doc = json::parse(&run.merge_json).unwrap();
        let families = doc
            .get("payload")
            .and_then(|p| p.get("families"))
            .and_then(Value::as_array)
            .unwrap();
        let per_tile = cfg.n.div_ceil(tiles) as f64;
        for f in families {
            let family = f.get("family").and_then(Value::as_str).unwrap();
            let max_items = f.get("max_items").and_then(Value::as_f64).unwrap();
            let predicted_max = f.get("predicted_max").and_then(Value::as_f64).unwrap();
            assert_eq!(predicted_max, per_tile, "{family}: ⌈n/T⌉");
            assert!(
                max_items <= predicted_max,
                "{family}: a tile merged {max_items} > ⌈n/T⌉ = {predicted_max}"
            );
        }
    }

    #[test]
    fn duplicate_heavy_merge_routes_to_galloping_segments() {
        // PROBE_MIN_LEN-sized shares of a duplicate-heavy input must be
        // recognized by the probe; the committed artifact's speedup claim
        // rests on this routing actually happening.
        let cfg = BenchConfig {
            n: 1 << 14,
            threads: 2,
            seed: 3,
            reps: 1,
        };
        let run = run_bench(&cfg);
        let doc = json::parse(&run.merge_json).unwrap();
        let families = doc
            .get("payload")
            .and_then(|p| p.get("families"))
            .and_then(Value::as_array)
            .unwrap();
        for f in families {
            let family = f.get("family").and_then(Value::as_str).unwrap();
            let galloping = f.get("segments_galloping").and_then(Value::as_f64).unwrap();
            let classic = f.get("segments_classic").and_then(Value::as_f64).unwrap();
            let branch_lean = f
                .get("segments_branch_lean")
                .and_then(Value::as_f64)
                .unwrap();
            match family {
                "duplicate-heavy" => {
                    assert!(galloping > 0.0, "{family}: no galloping segments")
                }
                // Ties all go to A, so the merge path is an L: every share
                // is one-sided (a pure copy) and the probe rightly stays
                // on the classic kernel.
                "adversarial-tie" => {
                    assert!(classic > 0.0 && galloping == 0.0, "{family}: not one-sided")
                }
                // Fine interleaving of primitive keys under the canonical
                // comparator: the probe's last arm picks branch-lean —
                // never galloping.
                "uniform" => {
                    assert_eq!(galloping, 0.0, "uniform must not gallop");
                    assert!(branch_lean > 0.0, "{family}: no branch-lean segments");
                }
                _ => {}
            }
            assert!(classic >= 0.0);
        }
    }

    #[test]
    fn median_ns_is_order_insensitive() {
        let mut calls = 0u32;
        let ns = median_ns(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(ns >= 0.0);
    }
}
