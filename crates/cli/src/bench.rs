//! `mp bench` — the reproducible perf harness behind the committed
//! `BENCH_*.json` artifacts.
//!
//! Three artifacts come out of one run, all through the shared envelope
//! writer ([`mergepath::telemetry::artifact`]) so they can never disagree
//! on schema version or environment fingerprint:
//!
//! * `BENCH_merge.json` — the parallel merge across four workload
//!   families (uniform, duplicate-heavy, run-structured, adversarial-tie):
//!   median ns/element under the probe's per-segment dispatch, comparison
//!   counts, per-kernel segment counters and the Thm 14 load-balance skew,
//!   plus one-thread columns in which each of the four segment kernels
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
use mergepath::merge::parallel::{parallel_merge_into_by, parallel_merge_into_recorded};
use mergepath::merge::sequential::natural_cmp;
use mergepath::merge::stable::stable_parallel_merge_into_recorded;
use mergepath::sort::parallel::{parallel_merge_sort_by, parallel_merge_sort_recorded};
use mergepath::telemetry::artifact::{render_artifact, EnvFingerprint};
use mergepath::telemetry::{NoRecorder, Telemetry, TimelineRecorder};
use mergepath_workloads::{merge_pair_sized, unsorted_keys, MergeWorkload, SortWorkload};

use crate::{run_kernel_recorded, TraceKernel};

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

/// Median wall-clock nanoseconds of `reps` runs of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<u128> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64
}

/// One family's measurements under the probe's dispatch.
#[derive(Debug, Clone)]
struct FamilyRow {
    family: String,
    adaptive_ns_per_elem: f64,
    comparisons: u64,
    segments: [u64; 4],
    max_items: u64,
    predicted_max: u64,
    imbalance: f64,
    /// The merge rows' extra columns; `None` on sort rows.
    merge: Option<MergeColumns>,
}

/// Columns only the merge rows carry.
#[derive(Debug, Clone)]
struct MergeColumns {
    /// Median ns/element of each [`SegmentKernel`] (in `ALL` order)
    /// merging the family's whole pair on the calling thread: no pool, so
    /// where the OS places a woken worker cannot move these columns.
    kernel_t1_ns_per_elem: [f64; 4],
    /// Items-based worker imbalance (`max_items · p / n`) of a traced
    /// `stable_parallel_merge_into_recorded` run. Deterministic — it
    /// depends only on cut arithmetic, never on timing — so `verify-bench`
    /// can hard-gate it: the exact-balance schedule keeps it within
    /// `1 + p/n`.
    imbalance_co_rank: f64,
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
    let adaptive_ns = median_ns(cfg.reps, timed);
    let rec = TimelineRecorder::new();
    traced(&rec);
    let telemetry = rec.finish();
    let report = telemetry.load_balance(n as u64, cfg.threads);
    FamilyRow {
        family: family.to_string(),
        adaptive_ns_per_elem: adaptive_ns / n as f64,
        comparisons: counter_total(&telemetry, "comparisons"),
        segments: SegmentKernel::ALL.map(|k| counter_total(&telemetry, k.counter().name())),
        max_items: report.max_items,
        predicted_max: report.predicted_max,
        imbalance: report.busy.imbalance,
        merge: None,
    }
}

/// The merge rows' extra columns for the pair `a`, `b`.
fn merge_columns(a: &[u32], b: &[u32], cfg: &BenchConfig) -> MergeColumns {
    let cmp = natural_cmp::<u32>;
    let n = a.len() + b.len();
    let mut out = vec![0u32; n];
    let kernel_t1_ns_per_elem = SegmentKernel::ALL.map(|kernel| {
        median_ns(cfg.reps, || kernel.merge_into_by(a, b, &mut out, &cmp)) / n as f64
    });
    // The exact-balance cut schedule is the property published here; the
    // items per worker are schedule arithmetic, hence exactly reproducible.
    let rec = TimelineRecorder::new();
    stable_parallel_merge_into_recorded(a, b, &mut out, cfg.threads, &cmp, &rec);
    let report = rec.finish().load_balance(n as u64, cfg.threads);
    let imbalance_co_rank = if n == 0 {
        1.0
    } else {
        report.max_items as f64 * cfg.threads as f64 / n as f64
    };
    MergeColumns {
        kernel_t1_ns_per_elem,
        imbalance_co_rank,
    }
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
            "{{\"family\":\"{}\",\"adaptive_ns_per_elem\":{},\"comparisons\":{}",
            r.family, r.adaptive_ns_per_elem, r.comparisons,
        );
        for (kernel, segments) in SegmentKernel::ALL.iter().zip(r.segments) {
            let _ = write!(out, ",\"{}\":{segments}", kernel.counter().name());
        }
        let _ = write!(
            out,
            ",\"max_items\":{},\"predicted_max\":{},\"imbalance\":{}",
            r.max_items, r.predicted_max, r.imbalance,
        );
        if let Some(m) = &r.merge {
            for (kernel, ns) in SegmentKernel::ALL.iter().zip(m.kernel_t1_ns_per_elem) {
                let _ = write!(out, ",\"{}_t1_ns_per_elem\":{ns}", kernel.name());
            }
            let _ = write!(out, ",\"imbalance_co_rank\":{}", m.imbalance_co_rank);
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn summarize(title: &str, rows: &[FamilyRow], out: &mut String) {
    let _ = write!(
        out,
        "{title}: family, adaptive ns/elem, segments (c/bl/g/cr)"
    );
    if rows.iter().any(|r| r.merge.is_some()) {
        let _ = write!(
            out,
            ", one-thread classic/branch-lean/galloping/co-rank ns/elem, co-rank imbalance"
        );
    }
    out.push('\n');
    for r in rows {
        let [c, bl, g, cr] = r.segments;
        let _ = write!(
            out,
            "  {:<16} {:>8.3}  {c}/{bl}/{g}/{cr}",
            r.family, r.adaptive_ns_per_elem
        );
        if let Some(m) = &r.merge {
            let [c, bl, g, cr] = m.kernel_t1_ns_per_elem;
            let _ = write!(
                out,
                "  {c:>8.3} {bl:>8.3} {g:>8.3} {cr:>8.3}  {:.5}",
                m.imbalance_co_rank
            );
        }
        out.push('\n');
    }
}

/// The telemetry artifact's payload: traced vs untraced wall-clock plus
/// the load-balance report for every parallel kernel, and the serving
/// layer's metrics-on vs metrics-off overhead (`serve_overhead` — the
/// number `cargo xtask verify-metrics` gates at ≤ 3%).
fn telemetry_payload(n: usize, threads: usize, seed: u64, reps: usize) -> String {
    let mut payload = String::new();
    let _ = write!(
        payload,
        "{{\"n\":{n},\"threads\":{threads},\"reps\":{reps},\"kernels\":["
    );
    let kernels = [
        TraceKernel::Parallel,
        TraceKernel::Segmented,
        TraceKernel::Batch,
        TraceKernel::Inplace,
        TraceKernel::Kway,
        TraceKernel::Hierarchical,
        TraceKernel::SortParallel,
        TraceKernel::SortKway,
        TraceKernel::SortCacheAware,
    ];
    for (i, kernel) in kernels.into_iter().enumerate() {
        let untraced_ns = median_ns(reps, || {
            run_kernel_recorded(kernel, n, threads, seed, &NoRecorder)
        });
        let traced_ns = median_ns(reps, || {
            let rec = TimelineRecorder::new();
            run_kernel_recorded(kernel, n, threads, seed, &rec);
            drop(rec.finish());
        });
        let rec = TimelineRecorder::new();
        run_kernel_recorded(kernel, n, threads, seed, &rec);
        let telemetry = rec.finish();
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
                || parallel_merge_into_by(&a, &b, &mut out, cfg.threads, &cmp),
                |rec| {
                    let mut traced_out = vec![0u32; cfg.n];
                    parallel_merge_into_recorded(&a, &b, &mut traced_out, cfg.threads, &cmp, rec);
                },
            );
            row.merge = Some(merge_columns(&a, &b, cfg));
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
                    parallel_merge_sort_by(&mut w, cfg.threads, &cmp);
                },
                |rec| {
                    let mut w = v.clone();
                    parallel_merge_sort_recorded(&mut w, cfg.threads, &cmp, rec);
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
        assert_eq!(kernels.len(), 9);
        let serve_overhead = telemetry
            .get("payload")
            .and_then(|p| p.get("serve_overhead"))
            .expect("serve_overhead section");
        for key in [
            "wall_off_ns",
            "wall_on_ns",
            "p99_off_ns",
            "p99_on_ns",
            "overhead",
        ] {
            assert!(
                serve_overhead.get(key).and_then(Value::as_f64).is_some(),
                "serve_overhead missing {key}"
            );
        }
        assert!(run.summary.contains("merge:"));
        assert!(run.summary.contains("sort:"));
        // Merge rows carry the one-thread kernel columns and the co-rank
        // balance; sort rows carry neither.
        let merge_only = [
            "classic_t1_ns_per_elem",
            "branch_lean_t1_ns_per_elem",
            "galloping_t1_ns_per_elem",
            "co_rank_t1_ns_per_elem",
            "imbalance_co_rank",
        ];
        for (doc, is_merge) in [(&merge, true), (&sort, false)] {
            let rows = doc.get("payload").and_then(|p| p.get("families"));
            for f in rows.and_then(Value::as_array).unwrap() {
                for col in ["adaptive_ns_per_elem", "segments_co_rank", "imbalance"] {
                    assert!(
                        f.get(col).and_then(Value::as_f64).is_some(),
                        "missing {col}"
                    );
                }
                for col in merge_only {
                    let present = f.get(col).and_then(Value::as_f64).is_some();
                    assert_eq!(present, is_merge, "{col} on a merge row: {is_merge}");
                }
                for gone in [
                    "speedup_vs_classic",
                    "speedup_co_rank_vs_classic",
                    "pinned_co_rank_segments",
                ] {
                    assert!(f.get(gone).is_none(), "retired column {gone}");
                }
            }
        }
    }

    #[test]
    fn co_rank_imbalance_is_within_the_exact_balance_bound_on_merges() {
        // The exact-balance cut schedule hands every non-tail worker
        // exactly ⌈n/p⌉ output ranks, so the items-based imbalance of the
        // exact-balance co-rank merge is at most 1 + p/n — far inside the 1.005
        // gate `cargo xtask verify-bench` enforces on the committed
        // artifact. Deterministic: it is cut arithmetic, not timing.
        let cfg = BenchConfig {
            n: 1 << 14,
            threads: 4,
            seed: 11,
            reps: 1,
        };
        let run = run_bench(&cfg);
        let doc = json::parse(&run.merge_json).unwrap();
        let families = doc
            .get("payload")
            .and_then(|p| p.get("families"))
            .and_then(Value::as_array)
            .unwrap();
        let bound = 1.0 + cfg.threads as f64 / cfg.n as f64;
        for f in families {
            let family = f.get("family").and_then(Value::as_str).unwrap();
            let imbalance = f.get("imbalance_co_rank").and_then(Value::as_f64).unwrap();
            assert!(
                imbalance <= bound + 1e-9,
                "{family}: co-rank imbalance {imbalance} exceeds 1 + p/n = {bound}"
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
