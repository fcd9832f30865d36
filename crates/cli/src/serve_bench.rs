//! `mp serve` and `mp bench --serve` — the serving-layer harness behind
//! `BENCH_serve.json`.
//!
//! Two entry points share one machinery:
//!
//! * [`run_serve`] drives a single live daemon run (`mp serve`) with a
//!   [`TimelineRecorder`] and a [`ServeObserver`] attached, checks every
//!   completed response against the sequential oracle, and summarizes the
//!   daemon's stats, the observer's waterfall and the kernel telemetry.
//! * [`run_serve_bench`] sweeps arrival pattern × concurrency level
//!   (`mp bench --serve`) and renders the `bench_serve` artifact through
//!   the shared envelope writer: one live run per cell (wall time,
//!   p50/p99 latency and its waterfall split, admission and batching
//!   counts) over the cell's arrival plan.
//!
//! Runs pace submissions along the plan's arrival timestamps with the
//! real clock, so every number except the plan itself is
//! machine-dependent like the other `BENCH_*` timings.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

use mergepath::merge::sequential::merge_into_by;
use mergepath::telemetry::artifact::{render_artifact, EnvFingerprint};
use mergepath::telemetry::TimelineRecorder;
use mergepath_serve::{
    NoRecorder, Outcome, QueuePolicy, Request, ServeConfig, ServeObserver, ServeStats, Server,
    Waterfall,
};
use mergepath_telemetry::{now_ns, LatencyHistogram};
use mergepath_workloads::{
    arrival_plan, merge_pair_sized, ArrivalPattern, PlanConfig, RequestSpec,
};

/// Knobs shared by `mp serve` and every cell of `mp bench --serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeBenchConfig {
    /// Requests per arrival plan.
    pub requests: usize,
    /// Mean per-side input length (per-request lengths are drawn around
    /// it by the plan).
    pub mean_len: usize,
    /// Target mean inter-arrival gap, nanoseconds.
    pub mean_gap_ns: u64,
    /// Relative deadline per request, nanoseconds (0 = none).
    pub deadline_ns: u64,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Pool-thread budget shared by in-flight requests.
    pub worker_budget: usize,
    /// Concurrency levels (serving threads) the bench sweeps.
    pub levels: Vec<usize>,
    /// Root seed for the arrival plans.
    pub seed: u64,
}

impl ServeBenchConfig {
    /// The full configuration behind the committed artifact.
    pub fn full(worker_budget: usize, seed: u64) -> Self {
        ServeBenchConfig {
            requests: 512,
            mean_len: 4096,
            mean_gap_ns: 50_000,
            deadline_ns: 5_000_000,
            queue_capacity: 64,
            worker_budget,
            levels: vec![1, 4, 16, 64],
            seed,
        }
    }

    /// A fast configuration for CI's `verify-serve` gate and tests.
    /// Still ≥ 4 concurrency levels — the artifact's schema contract.
    pub fn smoke(worker_budget: usize, seed: u64) -> Self {
        ServeBenchConfig {
            requests: 96,
            mean_len: 1024,
            mean_gap_ns: 20_000,
            deadline_ns: 5_000_000,
            queue_capacity: 32,
            worker_budget,
            levels: vec![1, 2, 4, 8],
            seed,
        }
    }

    fn plan_config(&self, pattern: ArrivalPattern) -> PlanConfig {
        PlanConfig {
            pattern,
            requests: self.requests,
            mean_gap_ns: self.mean_gap_ns,
            deadline_ns: self.deadline_ns,
            mean_len: self.mean_len,
            seed: self.seed,
        }
    }

    /// Coalescing ceiling for the live runs: several mean-sized merges
    /// worth of combined output, so queued bursts of small merges batch
    /// while oversized requests still run alone.
    fn batch_max_items(&self) -> usize {
        self.mean_len * 8
    }
}

/// One live run's inputs: the regenerated request arrays and the
/// sequential oracle's answer for each.
struct PreparedRequest {
    spec: RequestSpec,
    a: Vec<u32>,
    b: Vec<u32>,
    expected: Vec<u32>,
}

/// Regenerates every planned request's inputs from
/// `(workload, len_a, len_b, data_seed)` and computes the sequential
/// oracle answer — all before any clock starts, so preparation cost never
/// pollutes the measured run.
fn prepare(plan: &[RequestSpec]) -> Vec<PreparedRequest> {
    plan.iter()
        .map(|spec| {
            let (a, b) = merge_pair_sized(spec.workload, spec.len_a, spec.len_b, spec.data_seed);
            let mut expected = vec![0u32; a.len() + b.len()];
            merge_into_by(&a, &b, &mut expected, &|x: &u32, y: &u32| x.cmp(y));
            PreparedRequest {
                spec: *spec,
                a,
                b,
                expected,
            }
        })
        .collect()
}

/// Outcome of one live paced run.
struct LiveRun {
    stats: ServeStats,
    /// The daemon's observer, read after shutdown.
    obs: Arc<ServeObserver>,
    wall_ns: u64,
    correctness_failures: usize,
}

/// Plays `prepared` through the live daemon `server`, pacing submissions
/// along the plan's arrival timestamps, then shuts it down. Every
/// completed response is compared byte-for-byte against the sequential
/// oracle.
fn live_run<R>(prepared: &[PreparedRequest], server: Server<u32, R>) -> LiveRun
where
    R: mergepath_serve::Recorder + Send + Sync + 'static,
{
    let t0 = now_ns();
    let mut handles = Vec::with_capacity(prepared.len());
    for p in prepared {
        // Pace: wait out the plan's inter-arrival gap. Short waits spin
        // (sleep granularity on most platforms is far coarser than the
        // microsecond-scale gaps the plans use).
        let due = t0.saturating_add(p.spec.arrival_ns);
        loop {
            let now = now_ns();
            if now >= due {
                break;
            }
            let remaining = due - now;
            if remaining > 200_000 {
                std::thread::sleep(std::time::Duration::from_nanos(remaining / 2));
            } else {
                std::hint::spin_loop();
            }
        }
        let mut req = Request::merge(p.spec.id as u64, p.a.clone(), p.b.clone());
        if p.spec.deadline_ns != 0 {
            req = req.with_deadline_in(p.spec.deadline_ns);
        }
        if let Ok(h) = server.submit(req) {
            handles.push(h);
        }
    }
    let mut correctness_failures = 0usize;
    for h in handles {
        let id = h.id as usize;
        match h.wait() {
            Outcome::Completed { output, .. } => {
                if output != prepared[id].expected {
                    correctness_failures += 1;
                }
            }
            Outcome::Rejected(_) => {}
            Outcome::Failed => correctness_failures += 1,
        }
    }
    let wall_ns = now_ns().saturating_sub(t0);
    let obs = Arc::clone(server.observer());
    let stats = server.shutdown();
    LiveRun {
        stats,
        obs,
        wall_ns,
        correctness_failures,
    }
}

/// One pattern × concurrency cell of the bench table.
#[derive(Debug, Clone)]
struct ServeRow {
    pattern: &'static str,
    concurrency: usize,
    stats: ServeStats,
    wall_ns: u64,
    correctness_failures: usize,
    /// The cell's diff of the global pool's `RoundCounts::overlapped`.
    pool_overlapped_rounds: u64,
    /// Each waterfall stage's name with its p50 and p99, nanoseconds.
    stages: [(&'static str, u64, u64); 4],
}

impl ServeRow {
    /// Mean coalesced-round width: requests per batched round, 0 when the
    /// cell never batched.
    fn batch_width(&self) -> f64 {
        if self.stats.batched_rounds == 0 {
            0.0
        } else {
            self.stats.batched_requests as f64 / self.stats.batched_rounds as f64
        }
    }
}

/// The rendered artifacts of one `mp bench --serve` run.
#[derive(Debug, Clone)]
pub struct ServeBenchArtifacts {
    /// Human-readable summary for stdout.
    pub summary: String,
    /// `BENCH_serve.json` contents.
    pub serve_json: String,
}

fn rows_payload(cfg: &ServeBenchConfig, rows: &[ServeRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"requests\":{},\"mean_len\":{},\"mean_gap_ns\":{},\"deadline_ns\":{},\
         \"queue_capacity\":{},\"worker_budget\":{},\"seed\":{},\"levels\":[",
        cfg.requests,
        cfg.mean_len,
        cfg.mean_gap_ns,
        cfg.deadline_ns,
        cfg.queue_capacity,
        cfg.worker_budget,
        cfg.seed,
    );
    for (i, l) in cfg.levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{l}");
    }
    out.push_str("],\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"pattern\":\"{}\",\"concurrency\":{},\"submitted\":{},\"completed\":{},\
             \"rejected_queue_full\":{},\"rejected_deadline\":{},\"failed\":{},\"lost\":{},\
             \"correctness_failures\":{},\"queue_depth_peak\":{},\"inflight_peak\":{},\
             \"wall_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\
             \"serve_batched\":{},\"batched_requests\":{},\"batch_width\":{},\
             \"pool_overlapped_rounds\":{},",
            r.pattern,
            r.concurrency,
            r.stats.submitted,
            r.stats.completed,
            r.stats.rejected_queue_full,
            r.stats.rejected_deadline,
            r.stats.failed,
            r.stats.lost(),
            r.correctness_failures,
            r.stats.queue_depth_peak,
            r.stats.inflight_peak,
            r.wall_ns,
            r.stats.latency.percentile(0.50),
            r.stats.latency.percentile(0.99),
            r.stats.batched_rounds,
            r.stats.batched_requests,
            r.batch_width(),
            r.pool_overlapped_rounds,
        );
        for (stage, p50, p99) in r.stages {
            let _ = write!(out, "\"{stage}_p50_ns\":{p50},\"{stage}_p99_ns\":{p99},");
        }
        let _ = write!(out, "\"latency\":{}}}", r.stats.latency.to_json());
    }
    out.push_str("]}");
    out
}

/// Runs the pattern × concurrency sweep and renders `BENCH_serve.json`.
///
/// # Panics
/// Panics if the assembled artifact fails the envelope self-check, if a
/// live run loses a request, or if any completed response differs from
/// the sequential oracle — all bugs, not input conditions.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> ServeBenchArtifacts {
    assert!(cfg.levels.len() >= 4, "the artifact sweeps ≥ 4 levels");
    let env = EnvFingerprint::capture();
    let mut summary = format!(
        "mp bench --serve: requests={} mean_len={} gap={}ns deadline={}ns queue={} budget={} seed={}\n",
        cfg.requests,
        cfg.mean_len,
        cfg.mean_gap_ns,
        cfg.deadline_ns,
        cfg.queue_capacity,
        cfg.worker_budget,
        cfg.seed,
    );
    let _ = writeln!(
        summary,
        "  pattern      conc   done  rej_q  rej_d     p50        p99   batched"
    );
    let mut rows = Vec::new();
    for pattern in ArrivalPattern::ALL {
        let plan = arrival_plan(&cfg.plan_config(pattern));
        let prepared = prepare(&plan);
        for &level in &cfg.levels {
            let before = mergepath::executor::global().round_counts();
            let server = Server::start(
                ServeConfig {
                    queue_capacity: cfg.queue_capacity,
                    max_inflight: level,
                    worker_budget: cfg.worker_budget,
                    policy: QueuePolicy::Edf,
                    batch_max_items: cfg.batch_max_items(),
                },
                NoRecorder,
            );
            let live = live_run(&prepared, server);
            let after = mergepath::executor::global().round_counts();
            assert_eq!(
                live.stats.lost(),
                0,
                "{} @ {level}: live run lost requests",
                pattern.name()
            );
            assert_eq!(
                live.correctness_failures,
                0,
                "{} @ {level}: completed response differed from the oracle",
                pattern.name()
            );
            let row = ServeRow {
                pattern: pattern.name(),
                concurrency: level,
                stats: live.stats,
                wall_ns: live.wall_ns,
                correctness_failures: live.correctness_failures,
                pool_overlapped_rounds: after.overlapped - before.overlapped,
                stages: live
                    .obs
                    .stages()
                    .map(|(stage, h)| (stage, h.percentile(0.50), h.percentile(0.99))),
            };
            let _ = writeln!(
                summary,
                "  {:<12} {:>4} {:>6} {:>6} {:>6} {:>9}ns {:>9}ns  bat={}",
                row.pattern,
                row.concurrency,
                row.stats.completed,
                row.stats.rejected_queue_full,
                row.stats.rejected_deadline,
                row.stats.latency.percentile(0.50),
                row.stats.latency.percentile(0.99),
                row.stats.batched_rounds,
            );
            rows.push(row);
        }
    }
    let serve_json = render_artifact("bench_serve", &env, &rows_payload(cfg, &rows))
        .expect("serve artifact must pass its own schema check");
    ServeBenchArtifacts {
        summary,
        serve_json,
    }
}

/// Configuration of one `mp serve` demonstration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRunConfig {
    /// Requests in the arrival plan.
    pub requests: usize,
    /// Serving threads (maximum in-flight requests).
    pub concurrency: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Relative deadline per request, nanoseconds (0 = none).
    pub deadline_ns: u64,
    /// Arrival process.
    pub pattern: ArrivalPattern,
    /// Mean per-side input length.
    pub mean_len: usize,
    /// Pool-thread budget shared by in-flight requests.
    pub worker_budget: usize,
    /// Plan seed.
    pub seed: u64,
    /// When set, the live metrics directory: periodic Prometheus-text +
    /// JSONL snapshots, the `METRICS_serve.json` envelope, and anomaly
    /// flight dumps are written under it.
    pub metrics_out: Option<String>,
}

/// How often the live snapshot thread rewrites `metrics.prom` and appends
/// to `metrics.jsonl` while the run is in flight.
const SNAPSHOT_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);

/// Writes one snapshot tick: `metrics.prom` is rewritten in place (the
/// scrape-style file), `metrics.jsonl` gets one appended line (the
/// history). Diagnostics never fail the run — errors are swallowed.
fn write_snapshot_tick(dir: &std::path::Path, obs: &ServeObserver) {
    let snap = obs.snapshot();
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("metrics.prom"), snap.to_prometheus());
    let mut line = snap.to_json();
    line.push('\n');
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("metrics.jsonl"))
    {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Appends the daemon's p99 waterfall attribution table to `out`, one
/// indented line per row.
pub(crate) fn push_attribution(out: &mut String, obs: &ServeObserver) {
    out.push_str("  waterfall attribution (completed requests):\n");
    for line in obs.attribution_table().lines() {
        let _ = writeln!(out, "    {line}");
    }
}

/// Runs one live daemon session (`mp serve`) with the
/// [`TimelineRecorder`] attached, and renders a stats +
/// waterfall-attribution + telemetry summary from the daemon's
/// [`ServeObserver`].
///
/// With `metrics_out` set, the observer also writes periodic snapshots
/// and dump-on-anomaly flight recordings into that directory (see
/// README §Live metrics).
///
/// # Panics
/// Panics if the run loses a request or a completed response differs
/// from the sequential oracle.
pub fn run_serve(cfg: &ServeRunConfig) -> String {
    let plan = arrival_plan(&PlanConfig {
        pattern: cfg.pattern,
        requests: cfg.requests,
        mean_gap_ns: 10_000,
        deadline_ns: cfg.deadline_ns,
        mean_len: cfg.mean_len,
        seed: cfg.seed,
    });
    let prepared = prepare(&plan);
    let metrics_dir = cfg.metrics_out.as_ref().map(PathBuf::from);
    let obs = Arc::new(ServeObserver::new(metrics_dir.clone()));
    let timeline = Arc::new(TimelineRecorder::new());

    // Periodic exposition: a background thread snapshots the registry at
    // a fixed cadence while the daemon serves. Snapshots never pause
    // serving threads, so the cadence is a freshness knob, not a cost.
    let stop = Arc::new(AtomicBool::new(false));
    let snapshot_thread = metrics_dir.clone().map(|dir| {
        let obs = Arc::clone(&obs);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(AtomicOrdering::Relaxed) {
                write_snapshot_tick(&dir, &obs);
                std::thread::sleep(SNAPSHOT_INTERVAL);
            }
        })
    });

    let server = Server::start_with_observer(
        ServeConfig {
            queue_capacity: cfg.queue_capacity,
            max_inflight: cfg.concurrency,
            worker_budget: cfg.worker_budget,
            policy: QueuePolicy::Edf,
            batch_max_items: cfg.mean_len * 8,
        },
        Arc::clone(&timeline),
        Arc::clone(&obs),
    );
    let live = live_run(&prepared, server);
    stop.store(true, AtomicOrdering::Relaxed);
    if let Some(t) = snapshot_thread {
        let _ = t.join();
    }
    assert_eq!(live.stats.lost(), 0, "live run lost requests");
    assert_eq!(
        live.correctness_failures, 0,
        "completed response differed from the oracle"
    );
    let telemetry = Arc::try_unwrap(timeline)
        .ok()
        .expect("server released its recorder handle at shutdown")
        .finish();
    let counter = |name: &str| -> u64 {
        telemetry
            .counters
            .iter()
            .filter(|c| c.kind.name() == name)
            .map(|c| c.total)
            .sum()
    };
    let s = &live.stats;
    let mut out = format!(
        "mp serve: pattern={} requests={} concurrency={} queue={} budget={} deadline={}ns seed={}\n",
        cfg.pattern.name(),
        cfg.requests,
        cfg.concurrency,
        cfg.queue_capacity,
        cfg.worker_budget,
        cfg.deadline_ns,
        cfg.seed,
    );
    let _ = writeln!(
        out,
        "  submitted={} completed={} rejected_queue_full={} rejected_deadline={} failed={} lost={}",
        s.submitted,
        s.completed,
        s.rejected_queue_full,
        s.rejected_deadline,
        s.failed,
        s.lost(),
    );
    let _ = writeln!(
        out,
        "  peaks: inflight={} queue_depth={}  wall={:.3}ms  throughput={:.0} req/s",
        s.inflight_peak,
        s.queue_depth_peak,
        live.wall_ns as f64 / 1e6,
        s.completed as f64 / (live.wall_ns.max(1) as f64 / 1e9),
    );
    let _ = writeln!(
        out,
        "  batching: rounds={} coalesced_requests={}",
        s.batched_rounds, s.batched_requests,
    );
    let _ = writeln!(
        out,
        "  latency: p50={}ns p90={}ns p99={}ns max={}ns (n={})",
        s.latency.percentile(0.50),
        s.latency.percentile(0.90),
        s.latency.percentile(0.99),
        s.latency.max(),
        s.latency.count(),
    );
    let _ = writeln!(
        out,
        "  telemetry: kernel_spans={} comparisons={}",
        telemetry.spans.len(),
        counter("comparisons"),
    );
    let snap = obs.snapshot();
    let _ = writeln!(
        out,
        "  metrics: flight_events={} pool_rounds={}",
        obs.flight().recorded(),
        telemetry.rounds.len(),
    );
    push_attribution(&mut out, &obs);

    let dumps = obs.dump_paths();
    if !dumps.is_empty() {
        let _ = writeln!(out, "  flight dumps ({}):", dumps.len());
        for p in &dumps {
            let _ = writeln!(out, "    {}", p.display());
        }
    }
    if let Some(dir) = &metrics_dir {
        write_snapshot_tick(dir, &obs);
        let mut payload = String::from("{\"snapshot\":");
        payload.push_str(&snap.to_json());
        payload.push_str(",\"dumps\":[");
        for (i, p) in dumps.iter().enumerate() {
            if i > 0 {
                payload.push(',');
            }
            mergepath::telemetry::json::write_str(&mut payload, &p.to_string_lossy());
        }
        payload.push_str("]}");
        let env = EnvFingerprint::capture();
        let doc = render_artifact("metrics_serve", &env, &payload)
            .expect("metrics artifact must pass its own schema check");
        let path = dir.join("METRICS_serve.json");
        if std::fs::write(&path, doc).is_ok() {
            let _ = writeln!(
                out,
                "  metrics written to {}: metrics.prom metrics.jsonl METRICS_serve.json",
                dir.display()
            );
        }
    }
    out
}

/// The observability layer's cost on one unpaced serve workload
/// (committed into `BENCH_telemetry.json` as the `serve_overhead`
/// section; `cargo xtask verify-metrics` gates `overhead` at ≤ 3%).
#[derive(Debug, Clone)]
pub struct ServeOverhead {
    /// Requests per repetition.
    pub requests: usize,
    /// Mean per-side input length.
    pub mean_len: usize,
    /// Repetitions of the unpaced batch.
    pub reps: usize,
    /// Fastest wall time of one repetition, nanoseconds.
    pub wall_ns: u64,
    /// p99 latency across all repetitions, nanoseconds.
    pub p99_ns: u64,
    /// Cost of one completed request's full hook sequence (submit →
    /// dequeue → start → complete), nanoseconds, measured in a tight
    /// loop.
    pub hook_ns_per_request: f64,
    /// The gated overhead estimate: `hook_ns_per_request` divided by the
    /// per-request service time.
    pub overhead: f64,
}

impl ServeOverhead {
    /// Renders the JSON object embedded in `BENCH_telemetry.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"mean_len\":{},\"reps\":{},\"wall_ns\":{},\"p99_ns\":{},\
             \"hook_ns_per_request\":{},\"overhead\":{}}}",
            self.requests,
            self.mean_len,
            self.reps,
            self.wall_ns,
            self.p99_ns,
            self.hook_ns_per_request,
            self.overhead,
        )
    }
}

/// One unpaced batch run: submit everything at once, wait for everything,
/// measure the wall. No pacing, no deadlines, capacity ≥ requests.
fn unpaced_run(prepared: &[PreparedRequest], cfg: ServeConfig) -> (u64, LatencyHistogram) {
    let server: Server<u32> = Server::start(cfg, NoRecorder);
    let t0 = now_ns();
    let mut handles = Vec::with_capacity(prepared.len());
    for p in prepared {
        if let Ok(h) = server.submit(Request::merge(p.spec.id as u64, p.a.clone(), p.b.clone())) {
            handles.push(h);
        }
    }
    for h in handles {
        let _ = h.wait();
    }
    let wall = now_ns().saturating_sub(t0);
    (wall, server.shutdown().latency)
}

/// Measures the observability layer's cost: the full hook sequence of one
/// completed request — submit, dequeue, start, complete — timed
/// over 100k tight-loop iterations and divided by the per-request service
/// time of an unpaced batch (the mean of the [20%, 60%) band of its sorted
/// repetition walls, over its request count). The hook loop is
/// deterministic run-to-run, and it moves exactly when the hot path
/// regresses (a new lock, an allocation, an extra histogram), which is
/// what the 3% budget in `cargo xtask verify-metrics` is protecting.
pub fn measure_serve_overhead(
    requests: usize,
    mean_len: usize,
    reps: usize,
    worker_budget: usize,
    seed: u64,
) -> ServeOverhead {
    let plan = arrival_plan(&PlanConfig {
        pattern: ArrivalPattern::Steady,
        requests,
        mean_gap_ns: 1,
        deadline_ns: 0,
        mean_len,
        seed,
    });
    let prepared = prepare(&plan);
    let cfg = ServeConfig {
        queue_capacity: requests.max(1),
        max_inflight: 4,
        worker_budget,
        policy: QueuePolicy::Edf,
        // No coalescing: every request is charged its own hook sequence.
        batch_max_items: 0,
    };
    let reps = reps.max(21);
    // One untimed warm-up run first, so first-touch costs of the pool and
    // the inputs are not billed to a timed repetition.
    let _ = unpaced_run(&prepared, cfg);
    let mut walls = Vec::with_capacity(reps);
    let mut latency = LatencyHistogram::new();
    for _ in 0..reps {
        let (w, h) = unpaced_run(&prepared, cfg);
        walls.push(w);
        latency.merge_from(&h);
    }
    // Scheduler bursts inflate the slow tail and cache luck produces stray
    // fast outliers; the [20%, 60%) band of the sorted walls is a typical
    // run.
    walls.sort_unstable();
    let band = &walls[reps / 5..reps * 3 / 5];
    let service_ns = band.iter().sum::<u64>() as f64 / band.len() as f64 / requests.max(1) as f64;

    let obs = ServeObserver::new(None);
    let wf = Waterfall {
        queue_ns: 10_000,
        dispatch_ns: 1_000,
        compute_ns: 100_000,
        emit_ns: 1_000,
    };
    const HOOK_REPS: u64 = 100_000;
    let t0 = now_ns();
    for i in 0..HOOK_REPS {
        obs.on_submit(i, i, 0);
        obs.on_dequeue(i, i + 1, i, 0);
        obs.on_start(i, i + 2, 1, 1);
        obs.on_complete(i, i + 3, &wf);
    }
    let hook_ns_per_request = now_ns().saturating_sub(t0) as f64 / HOOK_REPS as f64;
    ServeOverhead {
        requests,
        mean_len,
        reps,
        wall_ns: walls[0],
        p99_ns: latency.percentile(0.99),
        hook_ns_per_request,
        overhead: hook_ns_per_request / service_ns.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath::telemetry::artifact::check_artifact;
    use mergepath::telemetry::json::Value;

    fn tiny() -> ServeBenchConfig {
        ServeBenchConfig {
            requests: 24,
            mean_len: 256,
            mean_gap_ns: 5_000,
            deadline_ns: 5_000_000,
            queue_capacity: 8,
            worker_budget: 2,
            levels: vec![1, 2, 3, 4],
            seed: 9,
        }
    }

    #[test]
    fn smoke_serve_bench_produces_schema_valid_artifact() {
        let run = run_serve_bench(&tiny());
        let doc = check_artifact(&run.serve_json, "bench_serve").expect("serve envelope");
        let rows = doc
            .get("payload")
            .and_then(|p| p.get("rows"))
            .and_then(Value::as_array)
            .expect("rows array");
        // 3 patterns × 4 levels.
        assert_eq!(rows.len(), 12);
        for r in rows {
            for col in [
                "concurrency",
                "submitted",
                "completed",
                "lost",
                "correctness_failures",
                "p50_ns",
                "p99_ns",
                "serve_batched",
                "batched_requests",
                "batch_width",
                "pool_overlapped_rounds",
                "queue_p50_ns",
                "dispatch_p99_ns",
                "compute_p50_ns",
                "emit_p99_ns",
            ] {
                assert!(
                    r.get(col).and_then(Value::as_f64).is_some(),
                    "missing {col}"
                );
            }
            assert_eq!(r.get("lost").and_then(Value::as_f64), Some(0.0));
            assert_eq!(
                r.get("correctness_failures").and_then(Value::as_f64),
                Some(0.0)
            );
            let pattern = r.get("pattern").and_then(Value::as_str).unwrap();
            assert!(ArrivalPattern::parse(pattern).is_some(), "{pattern}");
        }
        assert!(run.summary.contains("steady"));
        assert!(run.summary.contains("bursty"));
        assert!(run.summary.contains("heavy-tail"));
    }

    #[test]
    fn run_serve_summary_reports_stats_and_counters() {
        let out = run_serve(&ServeRunConfig {
            requests: 16,
            concurrency: 4,
            queue_capacity: 16,
            deadline_ns: 0,
            pattern: ArrivalPattern::Steady,
            mean_len: 512,
            worker_budget: 2,
            seed: 3,
            metrics_out: None,
        });
        assert!(out.contains("submitted=16 completed=16 "));
        assert!(out.contains("lost=0"));
        assert!(out.contains("telemetry: kernel_spans="));
        assert!(out.contains("latency: p50="));
        assert!(
            out.contains("metrics: flight_events=64 pool_rounds="),
            "{out}"
        );
        assert!(out.contains("waterfall attribution"));
        assert!(out.contains("compute"));
        assert!(out.contains("batching: rounds="));
    }

    #[test]
    fn run_serve_with_metrics_out_writes_snapshots_and_anomaly_dump() {
        let dir = mergepath_serve::observe::test_scratch_dir("run-serve");
        // A 1ns relative deadline has always expired by dequeue time, so
        // the first dequeue deterministically triggers the deadline-miss
        // flight dump.
        let out = run_serve(&ServeRunConfig {
            requests: 24,
            concurrency: 2,
            queue_capacity: 24,
            deadline_ns: 1,
            pattern: ArrivalPattern::Bursty,
            mean_len: 256,
            worker_budget: 2,
            seed: 5,
            metrics_out: Some(dir.to_string_lossy().into_owned()),
        });
        assert!(out.contains("flight dumps"));
        assert!(out.contains("deadline_miss"));
        assert!(out.contains("metrics written to"));

        let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
        assert!(prom.contains("serve_submitted_total 24"));
        assert!(prom.contains("# TYPE serve_latency_ns summary"));

        let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics.jsonl");
        let last = jsonl.lines().last().expect("≥1 snapshot line");
        let snap = mergepath::telemetry::json::parse(last).expect("snapshot parses");
        assert_eq!(
            snap.get("type").and_then(|v| v.as_str()),
            Some("metrics_snapshot")
        );

        let envelope =
            std::fs::read_to_string(dir.join("METRICS_serve.json")).expect("METRICS_serve.json");
        let doc = check_artifact(&envelope, "metrics_serve").expect("metrics envelope");
        let payload = doc.get("payload").expect("payload");
        assert_eq!(
            payload
                .get("snapshot")
                .and_then(|s| s.get("counters"))
                .and_then(|c| c.get("serve_submitted_total"))
                .and_then(Value::as_f64),
            Some(24.0)
        );
        let dumps = payload
            .get("dumps")
            .and_then(Value::as_array)
            .expect("dumps array");
        assert!(!dumps.is_empty(), "deadline miss must have dumped");
        let dump_path = dumps[0].as_str().expect("dump path string");
        let dump = std::fs::read_to_string(dump_path).expect("dump readable");
        let header = mergepath::telemetry::json::parse(dump.lines().next().unwrap()).unwrap();
        assert_eq!(
            header.get("trigger").and_then(|v| v.as_str()),
            Some("deadline_miss")
        );
        mergepath_serve::observe::remove_scratch_dir(&dir);
    }

    #[test]
    fn overhead_measurement_produces_sane_numbers() {
        let o = measure_serve_overhead(16, 256, 3, 2, 11);
        assert_eq!(o.requests, 16);
        assert_eq!(o.reps, 21, "rep count is floored for a stable trimmed mean");
        assert!(o.wall_ns > 0 && o.p99_ns > 0);
        assert!(o.hook_ns_per_request > 0.0, "the hook loop was timed");
        assert!(o.overhead > 0.0, "hook cost over service time is never 0");
        let parsed = mergepath::telemetry::json::parse(&o.to_json()).expect("overhead json");
        for key in ["wall_ns", "p99_ns", "overhead", "hook_ns_per_request"] {
            assert!(parsed.get(key).and_then(Value::as_f64).is_some(), "{key}");
        }
    }
}
