//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! The workspace must stay **hermetic**: every dependency is either the
//! standard library or an in-repo path crate, so a fresh checkout builds
//! and tests with no network or registry access. `verify-offline` is the
//! gate for that property — CI (or a release checklist) runs it so a
//! crates-io dependency can never silently creep back into the graph.

use std::env;
use std::process::{Command, ExitCode};

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  verify-offline   build (release) and test the whole workspace with");
    eprintln!("                   cargo's --offline flag; fails if anything needs the");
    eprintln!("                   network or the registry. Then reruns the pool's tests");
    eprintln!("                   (executor unit tests, pool_concurrency, pool_idle_cpu)");
    eprintln!("                   the kernel and sort differentials (oracle_differential,");
    eprintln!("                   sort_pipeline, sequential_paths) and the wire-protocol");
    eprintln!("                   tests (net_protocol) in release, and runs mpbench's unit");
    eprintln!("                   tests and smoke run against its committed lock file");
    eprintln!("                   (--locked)");
    eprintln!("  verify-telemetry run `mp trace` on a small input and schema-check the");
    eprintln!("                   Chrome trace and JSONL metrics it emits (Thm 14");
    eprintln!("                   bounds per tile included)");
    eprintln!("  verify-schedules run `mp check --kernel all` (CREW exclusivity, exact");
    eprintln!("                   coverage and Thm 14 across permuted virtual schedules");
    eprintln!("                   for every kernel, segment kernels as the probe picks");
    eprintln!("                   them) at 4 threads and at 5 threads (the sort's odd");
    eprintln!("                   round count and parallel copy-back), a tiled leg at");
    eprintln!("                   65536 keys and 2 threads");
    eprintln!("                   (fails unless the parallel round has more tiles than");
    eprintln!("                   threads), then rebuild with the injected faults");
    eprintln!("                   (--cfg mergepath_mutate) and prove the checker reports");
    eprintln!("                   the partition overlap, on a keyed input the probe sends");
    eprintln!("                   to galloping the galloping tie-break inversion, and on");
    eprintln!("                   AVX2 CPUs the dropped stage of the vector merge network");
    eprintln!("  bench            run `mp bench` at full scale, refreshing the committed");
    eprintln!("                   BENCH_merge.json / BENCH_sort.json / BENCH_telemetry.json");
    eprintln!("                   at the workspace root");
    eprintln!("  verify-bench     run `mp bench --smoke` into target/xtask/bench, schema-");
    eprintln!("                   check the three fresh artifacts (shared envelope +");
    eprintln!("                   fingerprint) and the three committed ones, append");
    eprintln!("                   per-family medians to {HISTORY_PATH}");
    eprintln!("                   and WARN (not fail) when a fresh median ns/element");
    eprintln!("                   regresses >10% against the rolling median of the last");
    eprintln!("                   {HISTORY_WINDOW} same-environment history entries (nothing");
    eprintln!("                   is judged while the history is empty); hard-fails when a");
    eprintln!("                   merge family's heaviest tile, fresh or committed, exceeds");
    eprintln!("                   Thm 14's ceil(n/T) items (max_items > predicted_max; cut");
    eprintln!("                   arithmetic, so deterministic)");
    eprintln!("  verify-serve     run `mp bench --smoke --serve` (4 pool threads) into");
    eprintln!("                   target/xtask/serve, schema-check BENCH_serve.json (all");
    eprintln!("                   three arrival patterns at >= 4 concurrency levels, zero");
    eprintln!("                   lost requests, zero correctness failures, every row's");
    eprintln!("                   waterfall split, and pool_overlapped_rounds > 0 over");
    eprintln!("                   the bursty rows)");
    eprintln!("  verify-net       spawn `mp serve --listen 127.0.0.1:0` out of process,");
    eprintln!("                   drive `mp client --malformed` over the loopback TCP");
    eprintln!("                   socket (nine adversarial families, oracle-checked, plus");
    eprintln!("                   a garbage-frame hygiene probe), schema-check the");
    eprintln!("                   NET_loopback.json artifact and require a clean lost=0");
    eprintln!("                   daemon shutdown");
    eprintln!("  verify-metrics   run an overloaded `mp serve --metrics-out` (bursty");
    eprintln!("                   arrivals, 1 ms deadline) into target/xtask/metrics and");
    eprintln!("                   schema-check everything the live layer wrote: the");
    eprintln!("                   Prometheus text, the snapshot JSONL, the METRICS_serve");
    eprintln!("                   envelope and the automatic anomaly flight dump; then run");
    eprintln!("                   the allocation-free hot-path tests and fail if the");
    eprintln!("                   measured observability overhead exceeds 3%");
    eprintln!("  verify-figures   build mergepath-bench and run the cache-model figure");
    eprintln!("                   binaries (c2_cache, c6_coherence, c7_hypercore) at");
    eprintln!("                   default scale in target/xtask/figures; fail unless every");
    eprintln!("                   CSV they write equals the committed results/ file byte");
    eprintln!("                   for byte");
    ExitCode::FAILURE
}

/// How many trailing same-environment history entries feed the rolling
/// median that fresh bench numbers are judged against.
const HISTORY_WINDOW: usize = 5;

/// Where `verify-bench` accumulates one JSONL line per run: build output,
/// so local runs leave the tracked tree clean (CI carries it from run to
/// run as an artifact).
const HISTORY_PATH: &str = "target/xtask/bench_history.jsonl";

/// Runs `cargo <args>` against the workspace root, echoing the command.
fn cargo(args: &[&str]) -> bool {
    cargo_env(args, &[])
}

/// [`cargo`] with extra environment variables (echoed alongside the
/// command).
fn cargo_env(args: &[&str], envs: &[(&str, &str)]) -> bool {
    let cargo = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let prefix: String = envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    println!("$ {prefix}cargo {}", args.join(" "));
    let mut cmd = Command::new(cargo);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    match cmd.status() {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("failed to spawn cargo: {e}");
            false
        }
    }
}

/// [`cargo`] that also captures standard output, echoes it, and returns
/// it when the command succeeded.
fn cargo_stdout(args: &[&str]) -> Option<String> {
    let cargo = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    println!("$ cargo {}", args.join(" "));
    let output = match Command::new(cargo)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
    {
        Ok(output) => output,
        Err(e) => {
            eprintln!("failed to spawn cargo: {e}");
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    output.status.success().then_some(stdout)
}

/// The `max_shares=` figure of the `parallel:` line in `mp check` output.
fn parallel_max_shares(report: &str) -> Option<usize> {
    let line = report.lines().find(|l| l.starts_with("parallel:"))?;
    let (_, rest) = line.split_once("max_shares=")?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn verify_offline() -> ExitCode {
    let steps: &[&[&str]] = &[
        &["build", "--offline", "--release", "--workspace"],
        &["test", "--offline", "-q", "--workspace"],
        // The pool's spin/park races depend on optimised timings, so its
        // tests run again in release: the executor's unit tests, the
        // wake-up tests and the idle-CPU binary.
        &[
            "test",
            "--offline",
            "-q",
            "--release",
            "-p",
            "mergepath",
            "--lib",
            "executor::",
        ],
        &[
            "test",
            "--offline",
            "-q",
            "--release",
            "--test",
            "pool_concurrency",
            "--test",
            "pool_idle_cpu",
        ],
        // The four-stream branch-lean loop's unchecked indexing is checked
        // by `debug_assert!` in debug builds only, and its codegen exists
        // only in optimised ones, so the kernel and sort differentials run
        // again in release.
        &[
            "test",
            "--offline",
            "-q",
            "--release",
            "--test",
            "oracle_differential",
            "--test",
            "sort_pipeline",
            "--test",
            "sequential_paths",
        ],
        // The wire codec's whole-slice key loops become copies only in
        // optimised builds, and the stall test and the decoder fuzz loops
        // run against the daemon's optimised timings, so the protocol tests
        // run again in release.
        &[
            "test",
            "--offline",
            "-q",
            "--release",
            "--test",
            "net_protocol",
        ],
        // The benchmark is a package of its own: its unit tests and smoke
        // run catch a renamed entry point that `mpbench/src/sut.rs` uses,
        // and `--locked` fails a program change that leaves
        // `mpbench/Cargo.lock` stale instead of rewriting it.
        &[
            "test",
            "--offline",
            "--locked",
            "-q",
            "--release",
            "--manifest-path",
            "mpbench/Cargo.toml",
        ],
    ];
    for step in steps {
        if !cargo(step) {
            eprintln!("verify-offline: FAILED at `cargo {}`", step.join(" "));
            return ExitCode::FAILURE;
        }
    }
    println!("verify-offline: OK (workspace builds and tests with no network)");
    ExitCode::SUCCESS
}

/// Schema-checks one `mp trace` run: the Chrome trace must be one JSON
/// document with a non-empty `traceEvents` array, and every metrics line
/// must parse, include a `load_balance` summary, and satisfy Thm 14 for the
/// single-round parallel merge. The summary must name `threads`
/// participants; its logical workers are Algorithm 1's tiles, at least
/// `threads` of them, with one count per tile, each ≤ ⌈N/tiles⌉, and the
/// counts must sum to N.
fn check_trace_outputs(
    trace_path: &str,
    metrics_path: &str,
    n: u64,
    threads: u64,
) -> Result<(), String> {
    let trace = std::fs::read_to_string(trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    let doc = mergepath_telemetry::json::parse(&trace).map_err(|e| format!("{trace_path}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{trace_path}: missing traceEvents array"))?;
    if events.is_empty() {
        return Err(format!("{trace_path}: traceEvents is empty"));
    }
    for ev in events {
        for key in ["name", "ph"] {
            if ev.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("{trace_path}: event without string `{key}`"));
            }
        }
    }

    let metrics =
        std::fs::read_to_string(metrics_path).map_err(|e| format!("{metrics_path}: {e}"))?;
    let mut balance = None;
    for (i, line) in metrics.lines().enumerate() {
        let v = mergepath_telemetry::json::parse(line)
            .map_err(|e| format!("{metrics_path}:{}: {e}", i + 1))?;
        if v.get("type").and_then(|t| t.as_str()).is_none() {
            return Err(format!("{metrics_path}:{}: line without `type`", i + 1));
        }
        if v.get("type").and_then(|t| t.as_str()) == Some("load_balance") {
            balance = Some(v);
        }
    }
    let balance = balance.ok_or_else(|| format!("{metrics_path}: no load_balance line"))?;
    let items: Vec<u64> = balance
        .get("per_worker_items")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{metrics_path}: load_balance without per_worker_items"))?
        .iter()
        .map(|w| w.get("items").and_then(|x| x.as_f64()).unwrap_or(-1.0) as u64)
        .collect();
    let count = |key: &str| {
        balance
            .get(key)
            .and_then(|v| v.as_f64())
            .map(|v| v as u64)
            .ok_or_else(|| format!("{metrics_path}: load_balance without {key}"))
    };
    let (p, tiles) = (count("p")?, count("workers")?);
    if p != threads {
        return Err(format!(
            "{metrics_path}: p={p}, want the {threads} threads traced"
        ));
    }
    if tiles < threads || items.len() as u64 != tiles {
        return Err(format!(
            "{metrics_path}: {} counts over {tiles} logical workers, want one per tile \
             and at least {threads} tiles",
            items.len()
        ));
    }
    let ceil = n.div_ceil(tiles);
    let sum: u64 = items.iter().sum();
    if sum != n || items.iter().any(|&c| c > ceil) {
        return Err(format!(
            "{metrics_path}: Thm 14 violated: sum={sum} (want {n}), max={} (want ≤ {ceil})",
            items.iter().max().copied().unwrap_or(0)
        ));
    }
    if balance.get("thm14_exact") != Some(&mergepath_telemetry::json::Value::Bool(true)) {
        return Err(format!("{metrics_path}: thm14_exact is not true"));
    }
    Ok(())
}

fn verify_telemetry() -> ExitCode {
    let dir = std::path::Path::new("target").join("xtask");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("verify-telemetry: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let trace = dir.join("verify-trace.json");
    let metrics = dir.join("verify-metrics.jsonl");
    let (n, p) = (100_000u64, 4u64);
    let n_arg = n.to_string();
    let p_arg = p.to_string();
    let trace_arg = trace.display().to_string();
    let metrics_arg = metrics.display().to_string();
    let args = [
        "run",
        "--offline",
        "--release",
        "-q",
        "-p",
        "mergepath-cli",
        "--bin",
        "mp",
        "--",
        "trace",
        "--kernel",
        "parallel",
        "--n",
        &n_arg,
        "--threads",
        &p_arg,
        "--trace-out",
        &trace_arg,
        "--metrics-out",
        &metrics_arg,
    ];
    if !cargo(&args) {
        eprintln!("verify-telemetry: FAILED running `mp trace`");
        return ExitCode::FAILURE;
    }
    match check_trace_outputs(&trace_arg, &metrics_arg, n, p) {
        Ok(()) => {
            println!(
                "verify-telemetry: OK (Chrome trace + JSONL metrics valid, Thm 14 bounds hold)"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("verify-telemetry: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The schedule-exploration gate, in two halves:
///
/// 1. **Soundness of the kernels**: `mp check --kernel all` must accept
///    every kernel — CREW-exclusive, exactly covering, Thm 14-bounded and
///    oracle-identical under permuted virtual schedules.
/// 2. **Sensitivity of the checker**: the workspace is rebuilt with
///    `--cfg mergepath_mutate` (a deliberate off-by-one in the Algorithm 1
///    partition that makes two shares write the same boundary slot with the
///    same value — invisible to output diffing — an inverted galloping tie
///    break, and a dropped stage in the branch-lean kernel's AVX2 merge
///    network) and every mutation self-test must observe the checker
///    convicting its fault: the first in `parallel` and in the windowed
///    `segmented` merge, whose windows run the same tile loop; the second
///    in `parallel` on a keyed tie-run input whose tiles gallop; the last in
///    `batch` on `u32` keys under `natural_cmp` (`check_kernel_keys`), on
///    the first schedule, where the CPU has AVX2 (elsewhere the vector body
///    never runs and that check must pass). A separate target directory
///    keeps the mutated artifacts from poisoning the normal build cache.
///
/// A second leg runs the check at five threads, where `sort-parallel`
/// takes three merge rounds and copies its output back from the scratch
/// buffer on all five workers (at four threads its round count is even).
/// Every leg checks the segment kernels the probe picks; each kernel is
/// safe sequential code that writes only its own segment, so forcing one
/// adds no access-set case, and the kernels themselves are checked
/// directly on partition segments by the differential suites.
///
/// Those two legs merge 4096 keys, below the size at which Algorithm 1
/// cuts more tiles than threads. A third leg checks 65536 keys at two
/// threads, where the `parallel` and `batch` rounds have more tiles than
/// threads (CREW exclusivity and the `⌈E/s⌉` bound then hold per tile),
/// and fails unless the `parallel` report's `max_shares` shows it.
fn verify_schedules() -> ExitCode {
    let check = |n, threads| {
        vec![
            "run",
            "--offline",
            "--release",
            "-q",
            "-p",
            "mergepath-cli",
            "--bin",
            "mp",
            "--",
            "check",
            "--kernel",
            "all",
            "--n",
            n,
            "--threads",
            threads,
            "--schedules",
            "8",
        ]
    };
    for leg in [check("4096", "4"), check("4096", "5")] {
        if !cargo(&leg) {
            eprintln!("verify-schedules: FAILED: `mp check --kernel all` found a violation");
            return ExitCode::FAILURE;
        }
    }
    let tiled_threads = 2;
    let Some(report) = cargo_stdout(&check("65536", "2")) else {
        eprintln!("verify-schedules: FAILED: `mp check --kernel all` found a violation");
        return ExitCode::FAILURE;
    };
    match parallel_max_shares(&report) {
        Some(shares) if shares > tiled_threads => {}
        other => {
            eprintln!(
                "verify-schedules: FAILED: the tiled leg's `parallel` round had \
                 {other:?} shares, not more than its {tiled_threads} threads"
            );
            return ExitCode::FAILURE;
        }
    }
    let mutate = [
        "test",
        "--offline",
        "-q",
        "-p",
        "mergepath-check",
        "--test",
        "mutation",
    ];
    let envs = [
        ("RUSTFLAGS", "--cfg mergepath_mutate"),
        ("CARGO_TARGET_DIR", "target/mutate"),
    ];
    if !cargo_env(&mutate, &envs) {
        eprintln!("verify-schedules: FAILED: the checker did not detect an injected fault");
        return ExitCode::FAILURE;
    }
    println!(
        "verify-schedules: OK (all kernels CREW-exclusive under permuted \
         schedules; injected faults detected: tile cut, galloping tie break{})",
        if avx2_detected() {
            ", vector merge network"
        } else {
            "; no AVX2, so the vector merge network's fault cannot fire here"
        }
    );
    ExitCode::SUCCESS
}

/// Whether this CPU runs AVX2, the one place the mutated vector merge
/// network can run.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Runs `mp bench` with the given extra arguments.
fn run_mp_bench(extra: &[&str]) -> bool {
    run_mp_bench_env(extra, &[])
}

/// [`run_mp_bench`] with extra environment variables (e.g.
/// `MERGEPATH_THREADS` to size the global pool above this machine's core
/// count so concurrent requests' rounds actually overlap).
fn run_mp_bench_env(extra: &[&str], envs: &[(&str, &str)]) -> bool {
    let mut args = vec![
        "run",
        "--offline",
        "--release",
        "-q",
        "-p",
        "mergepath-cli",
        "--bin",
        "mp",
        "--",
        "bench",
    ];
    args.extend_from_slice(extra);
    cargo_env(&args, envs)
}

fn bench() -> ExitCode {
    if !run_mp_bench(&["--out-dir", "."]) {
        eprintln!("bench: FAILED running `mp bench`");
        return ExitCode::FAILURE;
    }
    println!("bench: OK (BENCH_merge.json / BENCH_sort.json / BENCH_telemetry.json refreshed)");
    ExitCode::SUCCESS
}

/// Reads and envelope-checks one artifact, returning the parsed document.
fn load_artifact(
    path: &std::path::Path,
    doc_type: &str,
) -> Result<mergepath_telemetry::json::Value, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    mergepath_telemetry::artifact::check_artifact(&doc, doc_type)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every `*_ns_per_elem` median of a bench artifact, per family: the rows
/// that feed the regression history.
fn family_metrics(doc: &mergepath_telemetry::json::Value) -> Vec<(String, Vec<(String, f64)>)> {
    use mergepath_telemetry::json::Value;
    doc.get("payload")
        .and_then(|p| p.get("families"))
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|f| {
            let family = f.get("family")?.as_str()?.to_string();
            let metrics = f
                .as_object()?
                .iter()
                .filter_map(|(key, v)| {
                    Some((key.strip_suffix("_ns_per_elem")?.to_string(), v.as_f64()?))
                })
                .collect();
            Some((family, metrics))
        })
        .collect()
}

/// Renders the JSONL history entry for one `verify-bench` run: the shared
/// environment fingerprint plus every per-family ns/element median of the
/// merge and sort artifacts.
fn render_history_entry(
    merge: &mergepath_telemetry::json::Value,
    sort: &mergepath_telemetry::json::Value,
) -> String {
    use mergepath_telemetry::json::{write_f64, write_str, write_value, Value};
    let mut out = String::from("{\"type\":\"bench_history\",\"env\":");
    write_value(&mut out, merge.get("env").unwrap_or(&Value::Null));
    for (kind, doc) in [("merge", merge), ("sort", sort)] {
        out.push_str(",\"");
        out.push_str(kind);
        out.push_str("\":{");
        for (fi, (family, metrics)) in family_metrics(doc).iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            write_str(&mut out, family);
            out.push_str(":{");
            for (mi, (metric, ns)) in metrics.iter().enumerate() {
                if mi > 0 {
                    out.push(',');
                }
                write_str(&mut out, metric);
                out.push(':');
                write_f64(&mut out, *ns);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Loads the history entries of [`HISTORY_PATH`] that carry
/// the same environment fingerprint as the fresh run (numbers from other
/// machines or build configurations are never comparable). Unparseable
/// lines are skipped, so a corrupted history degrades to an empty one.
fn load_history(
    env: Option<&mergepath_telemetry::json::Value>,
) -> Vec<mergepath_telemetry::json::Value> {
    use mergepath_telemetry::json::Value;
    let Ok(text) = std::fs::read_to_string(HISTORY_PATH) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| mergepath_telemetry::json::parse(line).ok())
        .filter(|e| e.get("type").and_then(Value::as_str) == Some("bench_history"))
        .filter(|e| e.get("env") == env)
        .collect()
}

/// Judges the fresh artifact's per-family `adaptive` medians against the
/// rolling median of the last [`HISTORY_WINDOW`] same-environment history
/// entries, printing non-gating warnings for >10% regressions. A family
/// with no history is not judged.
fn judge_against_history(
    name: &str,
    kind: &str,
    fresh: &mergepath_telemetry::json::Value,
    history: &[mergepath_telemetry::json::Value],
) {
    let window = &history[history.len().saturating_sub(HISTORY_WINDOW)..];
    for (family, metrics) in family_metrics(fresh) {
        let Some(&(_, fresh_ns)) = metrics.iter().find(|(m, _)| m == "adaptive") else {
            continue;
        };
        let mut past: Vec<f64> = window
            .iter()
            .filter_map(|e| e.get(kind)?.get(&family)?.get("adaptive")?.as_f64())
            .collect();
        if past.is_empty() {
            continue;
        }
        past.sort_by(f64::total_cmp);
        let median = past[past.len() / 2];
        if fresh_ns > median * 1.10 {
            println!(
                "verify-bench: WARNING: {name} {family}: fresh {fresh_ns:.3} ns/elem vs \
                 rolling median {median:.3} of the last {} run(s) (+{:.1}%, threshold 10%)",
                past.len(),
                (fresh_ns / median - 1.0) * 100.0
            );
        }
    }
}

/// Appends one rendered history line, creating its directory on first use.
fn append_history(entry: &str) -> Result<(), String> {
    use std::io::Write as _;
    let path = std::path::Path::new(HISTORY_PATH);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{HISTORY_PATH}: {e}"))?;
    writeln!(file, "{entry}").map_err(|e| format!("{HISTORY_PATH}: {e}"))
}

/// Theorem 14 per tile: in every merge family, the heaviest tile of the
/// traced tiled `parallel_merge_into_by` run (`max_items`) must not
/// exceed `predicted_max = ⌈n/T⌉`. The `⌊k·n/T⌋` cuts give every tile
/// `⌊n/T⌋` or `⌈n/T⌉` items whatever the input, so unlike the ns/element
/// medians this is cut arithmetic, deterministic across machines, hence a
/// gate rather than a warning. The cut argument is input-oblivious, so
/// every family is held to it; the duplicate-heavy family, whose tie runs
/// straddle tile cuts, must be in the sweep.
fn check_tile_balance(merge: &mergepath_telemetry::json::Value) -> Result<(), String> {
    use mergepath_telemetry::json::Value;
    let families = merge
        .get("payload")
        .and_then(|p| p.get("families"))
        .and_then(Value::as_array)
        .ok_or("payload.families missing")?;
    let mut seen_dup_heavy = false;
    for f in families {
        let family = f
            .get("family")
            .and_then(Value::as_str)
            .ok_or("family row without a name")?;
        seen_dup_heavy |= family == "duplicate-heavy";
        let column = |name: &str| {
            f.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{family}: {name} missing"))
        };
        let (max_items, predicted_max) = (column("max_items")?, column("predicted_max")?);
        if max_items > predicted_max {
            return Err(format!(
                "{family}: a tile merged {max_items} items, over Thm 14's \
                 ceil(n/T) = {predicted_max}"
            ));
        }
    }
    if !seen_dup_heavy {
        return Err("duplicate-heavy family missing from the merge sweep".into());
    }
    Ok(())
}

/// Loads and envelope-checks the three `mp bench` artifacts in `dir`
/// (merge, sort, telemetry, in that order) and holds the merge sweep to
/// the per-tile Thm 14 gate.
fn load_bench_artifacts(
    dir: &std::path::Path,
) -> Result<Vec<mergepath_telemetry::json::Value>, String> {
    let docs = [
        ("BENCH_merge.json", "bench_merge"),
        ("BENCH_sort.json", "bench_sort"),
        ("BENCH_telemetry.json", "bench_telemetry"),
    ]
    .iter()
    .map(|(name, doc_type)| load_artifact(&dir.join(name), doc_type))
    .collect::<Result<Vec<_>, _>>()?;
    // Deterministic, so a violation is a bug in the cut schedule, never
    // noise.
    check_tile_balance(&docs[0])
        .map_err(|e| format!("{}: {e}", dir.join("BENCH_merge.json").display()))?;
    Ok(docs)
}

fn verify_bench() -> ExitCode {
    let dir = std::path::Path::new("target").join("xtask").join("bench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("verify-bench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let out_dir = dir.display().to_string();
    if !run_mp_bench(&["--smoke", "--out-dir", &out_dir]) {
        eprintln!("verify-bench: FAILED running `mp bench --smoke`");
        return ExitCode::FAILURE;
    }
    let fresh = match load_bench_artifacts(&dir) {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("verify-bench: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The three artifacts of one run must carry the same fingerprint.
    for pair in fresh.windows(2) {
        if !mergepath_telemetry::artifact::same_env(&pair[0], &pair[1]) {
            eprintln!("verify-bench: FAILED: artifacts disagree on the environment fingerprint");
            return ExitCode::FAILURE;
        }
    }
    // The committed artifacts are held to the same schema and tile gate.
    if let Err(e) = load_bench_artifacts(std::path::Path::new(".")) {
        eprintln!("verify-bench: FAILED: committed artifact: {e}");
        return ExitCode::FAILURE;
    }
    let history = load_history(fresh[0].get("env"));
    judge_against_history("BENCH_merge.json", "merge", &fresh[0], &history);
    judge_against_history("BENCH_sort.json", "sort", &fresh[1], &history);
    match append_history(&render_history_entry(&fresh[0], &fresh[1])) {
        Ok(()) => println!(
            "verify-bench: appended run #{} to {HISTORY_PATH}",
            history.len() + 1
        ),
        Err(e) => println!("verify-bench: WARNING: could not append history ({e})"),
    }
    println!(
        "verify-bench: OK (fresh and committed artifacts schema-checked and \
         tile-balanced, shared fingerprint; regressions are warnings only)"
    );
    ExitCode::SUCCESS
}

/// Validates one fresh `bench_serve` payload: all three arrival patterns
/// present, ≥ 4 concurrency levels, on every row the p50/p99 of each
/// waterfall stage and the zero-lost / zero-correctness-failure /
/// zero-contained-panic invariants, and the round-overlap witness:
/// `pool_overlapped_rounds > 0` summed over the bursty sweep rows.
fn check_serve_payload(doc: &mergepath_telemetry::json::Value) -> Result<(), String> {
    use mergepath_telemetry::json::Value;
    let rows = doc
        .get("payload")
        .and_then(|p| p.get("rows"))
        .and_then(Value::as_array)
        .ok_or("payload.rows missing")?;
    if rows.is_empty() {
        return Err("payload.rows is empty".into());
    }
    let mut patterns = std::collections::BTreeSet::new();
    let mut levels = std::collections::BTreeSet::new();
    let mut bursty_batched_rounds = 0.0;
    let mut bursty_overlapped_rounds = 0.0;
    for (i, r) in rows.iter().enumerate() {
        let pattern = r
            .get("pattern")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("row {i}: pattern missing"))?;
        patterns.insert(pattern.to_string());
        let level = r
            .get("concurrency")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("row {i}: concurrency missing"))? as u64;
        levels.insert(level);
        for col in [
            "p50_ns",
            "p99_ns",
            "completed",
            "serve_batched",
            "batched_requests",
            "batch_width",
            "pool_overlapped_rounds",
            "queue_p50_ns",
            "queue_p99_ns",
            "dispatch_p50_ns",
            "dispatch_p99_ns",
            "compute_p50_ns",
            "compute_p99_ns",
            "emit_p50_ns",
            "emit_p99_ns",
        ] {
            if r.get(col).and_then(Value::as_f64).is_none() {
                return Err(format!("row {i} ({pattern} @ {level}): {col} missing"));
            }
        }
        if pattern == "bursty" {
            bursty_batched_rounds += r
                .get("serve_batched")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            bursty_overlapped_rounds += r
                .get("pool_overlapped_rounds")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
        }
        for (col, want) in [
            ("lost", 0.0),
            ("correctness_failures", 0.0),
            ("failed", 0.0),
        ] {
            let got = r
                .get(col)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("row {i} ({pattern} @ {level}): {col} missing"))?;
            if got != want {
                return Err(format!(
                    "row {i} ({pattern} @ {level}): {col} = {got}, want 0"
                ));
            }
        }
    }
    for want in ["steady", "bursty", "heavy-tail"] {
        if !patterns.contains(want) {
            return Err(format!("pattern {want:?} missing from the sweep"));
        }
    }
    if levels.len() < 4 {
        return Err(format!(
            "only {} distinct concurrency level(s); the sweep needs >= 4",
            levels.len()
        ));
    }
    // The batching witness: bursty arrivals pile compatible small merges
    // into the queue, so the daemon must have coalesced at least one pool
    // round somewhere in the bursty cells.
    if bursty_batched_rounds <= 0.0 {
        return Err(
            "no bursty row recorded a batched round (serve_batched == 0 everywhere)".into(),
        );
    }
    // The round-overlap witness: the gate's bench runs with a forced
    // multi-thread pool (`MERGEPATH_THREADS`), so some bursty round must
    // have pushed its tickets while another was in flight — otherwise
    // the executor quietly degraded to one round at a time.
    if bursty_overlapped_rounds <= 0.0 {
        return Err(
            "pool_overlapped_rounds == 0 across every bursty row despite a \
             multi-thread pool: no round overlapped another"
                .into(),
        );
    }
    Ok(())
}

fn verify_serve() -> ExitCode {
    let dir = std::path::Path::new("target").join("xtask").join("serve");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("verify-serve: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let out_dir = dir.display().to_string();
    // Force a 4-thread pool regardless of the host's core count: the
    // overlap witness is meaningless on a single-thread pool, where every
    // round runs inline.
    if !run_mp_bench_env(
        &[
            "--smoke",
            "--serve",
            "--threads",
            "4",
            "--out-dir",
            &out_dir,
        ],
        &[("MERGEPATH_THREADS", "4")],
    ) {
        eprintln!("verify-serve: FAILED running `mp bench --smoke --serve`");
        return ExitCode::FAILURE;
    }
    let fresh = match load_artifact(&dir.join("BENCH_serve.json"), "bench_serve") {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("verify-serve: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_serve_payload(&fresh) {
        eprintln!("verify-serve: FAILED: BENCH_serve.json: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "verify-serve: OK (3 patterns x >=4 concurrency levels; zero lost requests, \
         zero correctness failures; round overlap witnessed)"
    );
    ExitCode::SUCCESS
}

/// Validates one fresh `net_loopback` payload: every request answered Ok
/// and byte-identical to the sequential oracle, all nine adversarial
/// families exercised, and the malformed-frame probe confirming the
/// daemon closed the abusive connection yet survived to serve another.
fn check_net_payload(doc: &mergepath_telemetry::json::Value) -> Result<(), String> {
    use mergepath_telemetry::json::Value;
    let payload = doc.get("payload").ok_or("payload missing")?;
    let num = |key: &str| -> Result<f64, String> {
        payload
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("payload.{key} missing"))
    };
    let requests = num("requests")?;
    if requests <= 0.0 {
        return Err("payload.requests is zero".into());
    }
    if num("ok")? != requests {
        return Err(format!("ok = {} of {requests} requests", num("ok")?));
    }
    for key in [
        "mismatches",
        "rejected_queue_full",
        "rejected_deadline",
        "failed",
    ] {
        if num(key)? != 0.0 {
            return Err(format!("payload.{key} = {}, want 0", num(key)?));
        }
    }
    let families = payload
        .get("families")
        .and_then(Value::as_array)
        .ok_or("payload.families missing")?;
    if families.len() != 9 {
        return Err(format!(
            "{} merge families exercised, want all 9",
            families.len()
        ));
    }
    let probe = payload
        .get("malformed_probe")
        .ok_or("payload.malformed_probe missing (client must run with --malformed)")?;
    for key in ["connection_closed", "daemon_survived"] {
        match probe.get(key) {
            Some(Value::Bool(true)) => {}
            other => return Err(format!("malformed_probe.{key} = {other:?}, want true")),
        }
    }
    Ok(())
}

/// End-to-end loopback gate for the out-of-process daemon: spawn
/// `mp serve --listen 127.0.0.1:0`, parse the ephemeral port off its
/// stdout, drive `mp client --malformed` against it (nine families,
/// oracle-checked, plus the garbage-frame hygiene probe), schema-check
/// the `NET_loopback.json` artifact, then close the daemon's stdin and
/// require a clean `lost=0` shutdown line.
fn verify_net() -> ExitCode {
    use std::io::{BufRead as _, BufReader, Read as _};
    use std::process::Stdio;

    let dir = std::path::Path::new("target").join("xtask").join("net");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("verify-net: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    // Build up front so the daemon spawn below goes straight to execution
    // and its first stdout line is the listen banner.
    let build = [
        "build",
        "--offline",
        "--release",
        "-q",
        "-p",
        "mergepath-cli",
        "--bin",
        "mp",
    ];
    if !cargo(&build) {
        eprintln!("verify-net: FAILED building the mp binary");
        return ExitCode::FAILURE;
    }

    let cargo_bin = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut daemon_args = vec![
        "run".to_string(),
        "--offline".into(),
        "--release".into(),
        "-q".into(),
        "-p".into(),
        "mergepath-cli".into(),
    ];
    for a in [
        "--bin",
        "mp",
        "--",
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--concurrency",
        "4",
        "--queue-capacity",
        "256",
        "--n",
        "256",
        "--threads",
        "2",
    ] {
        daemon_args.push(a.to_string());
    }
    println!("$ cargo {} &", daemon_args.join(" "));
    let mut daemon = match std::process::Command::new(&cargo_bin)
        .args(&daemon_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            eprintln!("verify-net: failed to spawn the daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut daemon_out = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    let addr = match daemon_out.read_line(&mut banner) {
        Ok(_) if banner.starts_with("mp serve: listening on ") => banner
            .trim_start_matches("mp serve: listening on ")
            .trim()
            .to_string(),
        other => {
            eprintln!(
                "verify-net: FAILED: no listen banner from the daemon ({other:?}: {banner:?})"
            );
            let _ = daemon.kill();
            return ExitCode::FAILURE;
        }
    };
    println!("verify-net: daemon listening on {addr}");

    let artifact = dir.join("NET_loopback.json");
    let artifact_arg = artifact.display().to_string();
    let client = [
        "run",
        "--offline",
        "--release",
        "-q",
        "-p",
        "mergepath-cli",
        "--bin",
        "mp",
        "--",
        "client",
        "--addr",
        &addr,
        "--requests",
        "36",
        "--n",
        "256",
        "--seed",
        "7",
        "--malformed",
        "--out",
        &artifact_arg,
    ];
    let client_ok = cargo(&client);

    // Loopback check done (or failed): close the daemon's stdin so it
    // shuts down, and read its final stats line either way.
    drop(daemon.stdin.take());
    let mut rest = String::new();
    let _ = daemon_out.read_to_string(&mut rest);
    let daemon_status = daemon.wait();

    if !client_ok {
        eprintln!("verify-net: FAILED: `mp client` reported a loopback failure");
        return ExitCode::FAILURE;
    }
    match load_artifact(&artifact, "net_loopback").and_then(|doc| check_net_payload(&doc)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("verify-net: FAILED: NET_loopback.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !matches!(daemon_status, Ok(s) if s.success()) {
        eprintln!("verify-net: FAILED: the daemon exited abnormally ({daemon_status:?})");
        return ExitCode::FAILURE;
    }
    let shutdown = rest
        .lines()
        .find(|l| l.starts_with("mp serve: shutdown "))
        .unwrap_or("");
    println!("verify-net: {}", shutdown.trim_start_matches("mp serve: "));
    if !shutdown.contains(" lost=0 ") {
        eprintln!("verify-net: FAILED: daemon shutdown line lacks lost=0: {shutdown:?}");
        return ExitCode::FAILURE;
    }
    // The hygiene probe deliberately feeds the daemon one garbage frame.
    if !shutdown.contains("protocol_errors=1") {
        eprintln!("verify-net: FAILED: expected exactly one counted protocol error: {shutdown:?}");
        return ExitCode::FAILURE;
    }
    println!(
        "verify-net: OK (loopback oracle-identical across 9 families, malformed-frame \
         probe contained, clean lost=0 shutdown)"
    );
    ExitCode::SUCCESS
}

/// Schema-checks everything one metrics-enabled serve run wrote under
/// `dir`: the Prometheus-text scrape file, the snapshot JSONL stream, the
/// `METRICS_serve.json` envelope (shared artifact schema), and at least
/// one automatic anomaly flight dump whose every line parses. The final
/// JSONL snapshot and the envelope snapshot must agree that all
/// `requests` submissions were counted. Returns the number of dumps.
fn check_metrics_outputs(dir: &std::path::Path, requests: f64) -> Result<usize, String> {
    use mergepath_telemetry::json::{self, Value};

    let prom_path = dir.join("metrics.prom");
    let prom =
        std::fs::read_to_string(&prom_path).map_err(|e| format!("{}: {e}", prom_path.display()))?;
    for needle in [
        "# TYPE serve_submitted_total counter",
        "# TYPE serve_latency_ns summary",
        "serve_stage_queue_ns",
    ] {
        if !prom.contains(needle) {
            return Err(format!("{}: missing {needle:?}", prom_path.display()));
        }
    }

    let jsonl_path = dir.join("metrics.jsonl");
    let jsonl = std::fs::read_to_string(&jsonl_path)
        .map_err(|e| format!("{}: {e}", jsonl_path.display()))?;
    let mut last = None;
    for (i, line) in jsonl.lines().enumerate() {
        let v =
            json::parse(line).map_err(|e| format!("{}:{}: {e}", jsonl_path.display(), i + 1))?;
        if v.get("type").and_then(Value::as_str) != Some("metrics_snapshot") {
            return Err(format!(
                "{}:{}: line is not a metrics_snapshot",
                jsonl_path.display(),
                i + 1
            ));
        }
        last = Some(v);
    }
    let last = last.ok_or_else(|| format!("{}: no snapshots", jsonl_path.display()))?;
    let submitted = |snap: &Value| {
        snap.get("counters")
            .and_then(|c| c.get("serve_submitted_total"))
            .and_then(Value::as_f64)
    };
    if submitted(&last) != Some(requests) {
        return Err(format!(
            "{}: final snapshot counted {:?} submissions, want {requests}",
            jsonl_path.display(),
            submitted(&last)
        ));
    }

    let doc = load_artifact(&dir.join("METRICS_serve.json"), "metrics_serve")?;
    let payload = doc
        .get("payload")
        .ok_or("METRICS_serve.json: envelope without payload")?;
    let snap = payload
        .get("snapshot")
        .ok_or("METRICS_serve.json: payload without snapshot")?;
    if submitted(snap) != Some(requests) {
        return Err(format!(
            "METRICS_serve.json: envelope snapshot counted {:?} submissions, want {requests}",
            submitted(snap)
        ));
    }
    let dumps = payload
        .get("dumps")
        .and_then(Value::as_array)
        .ok_or("METRICS_serve.json: payload without dumps array")?;
    if dumps.is_empty() {
        return Err(
            "no anomaly flight dump: the overloaded run should have missed \
                    its 1 ms deadline"
                .into(),
        );
    }
    for d in dumps {
        let path = d
            .as_str()
            .ok_or("METRICS_serve.json: non-string dump path")?;
        let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let head = json::parse(body.lines().next().unwrap_or(""))
            .map_err(|e| format!("{path}: header: {e}"))?;
        if head.get("type").and_then(Value::as_str) != Some("flight_dump")
            || head.get("trigger").and_then(Value::as_str).is_none()
        {
            return Err(format!(
                "{path}: header is not a flight_dump with a trigger"
            ));
        }
        for (i, line) in body.lines().enumerate().skip(1) {
            let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            if v.get("type").and_then(Value::as_str) != Some("flight_event") {
                return Err(format!("{path}:{}: line is not a flight_event", i + 1));
            }
        }
    }
    Ok(dumps.len())
}

/// The observability-overhead gate: `BENCH_telemetry.json` carries a
/// `serve_overhead` point (one request's hook sequence over the
/// per-request service time of an unpaced serve workload); the observer
/// must cost at most 3%.
fn check_overhead(dir: &std::path::Path) -> Result<f64, String> {
    use mergepath_telemetry::json::Value;
    let doc = load_artifact(&dir.join("BENCH_telemetry.json"), "bench_telemetry")?;
    let overhead = doc
        .get("payload")
        .and_then(|p| p.get("serve_overhead"))
        .and_then(|o| o.get("overhead"))
        .and_then(Value::as_f64)
        .ok_or("BENCH_telemetry.json: payload.serve_overhead.overhead missing")?;
    if overhead > 0.03 {
        return Err(format!(
            "observability overhead {:.2}% exceeds the 3% budget",
            overhead * 100.0
        ));
    }
    Ok(overhead)
}

/// The live-observability gate (DESIGN.md §12), in three legs:
///
/// 1. **Anomaly path**: an overloaded `mp serve --metrics-out` run —
///    bursty arrivals, large merges, 1 ms deadline — deterministically
///    misses deadlines, so the flight recorder must dump automatically;
///    every file the live layer wrote is then schema-checked.
/// 2. **Hot-path cost**: the `metrics_invariants` integration tests prove
///    with a counting allocator that every observer hook and flight-ring
///    write is allocation-free, and that waterfall stages partition
///    latency exactly.
/// 3. **Overhead budget**: a smoke `mp bench` refreshes the
///    `serve_overhead` point, and an observer costing more than 3% of
///    per-request service time fails the gate.
fn verify_metrics() -> ExitCode {
    let dir = std::path::Path::new("target").join("xtask").join("metrics");
    // Stale dumps from an earlier run must not satisfy the gate.
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("verify-metrics: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let dir_arg = dir.display().to_string();
    let args = [
        "run",
        "--offline",
        "--release",
        "-q",
        "-p",
        "mergepath-cli",
        "--bin",
        "mp",
        "--",
        "serve",
        "--requests",
        "48",
        "--concurrency",
        "4",
        "--queue-capacity",
        "64",
        "--deadline-ms",
        "1",
        "--pattern",
        "bursty",
        "--n",
        "65536",
        "--threads",
        "2",
        "--seed",
        "42",
        "--metrics-out",
        &dir_arg,
    ];
    if !cargo(&args) {
        eprintln!("verify-metrics: FAILED running the overloaded `mp serve`");
        return ExitCode::FAILURE;
    }
    let dumps = match check_metrics_outputs(&dir, 48.0) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("verify-metrics: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tests = [
        "test",
        "--offline",
        "-q",
        "-p",
        "mergepath-suite",
        "--test",
        "metrics_invariants",
        "--test",
        "histogram_props",
    ];
    if !cargo(&tests) {
        eprintln!("verify-metrics: FAILED: hot-path allocation / histogram invariants");
        return ExitCode::FAILURE;
    }
    let bench_dir = std::path::Path::new("target")
        .join("xtask")
        .join("metrics-bench");
    if let Err(e) = std::fs::create_dir_all(&bench_dir) {
        eprintln!("verify-metrics: cannot create {}: {e}", bench_dir.display());
        return ExitCode::FAILURE;
    }
    let bench_arg = bench_dir.display().to_string();
    if !run_mp_bench(&["--smoke", "--out-dir", &bench_arg]) {
        eprintln!("verify-metrics: FAILED running `mp bench --smoke` for the overhead point");
        return ExitCode::FAILURE;
    }
    match check_overhead(&bench_dir) {
        Ok(overhead) => println!(
            "verify-metrics: OK ({dumps} anomaly dump(s) schema-checked, hot path \
             allocation-free, observability overhead {:.2}% <= 3%)",
            overhead * 100.0
        ),
        Err(e) => {
            eprintln!("verify-metrics: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The cache-model figure binaries `verify-figures` runs.
const FIGURES: [&str; 3] = ["c2_cache", "c6_coherence", "c7_hypercore"];

/// Regenerates the cache-model figures and fails on any change: the
/// simulator replays exact address traces through a deterministic cache
/// model, so at default scale its CSVs are the same bytes on every run, at
/// every `MERGEPATH_THREADS`, and a changed number means a changed model,
/// trace or kernel. The binaries run with their working directory under
/// `target/xtask/figures`, where they write `results/*.csv`; every CSV
/// written there is compared with the committed file of the same name.
///
/// The other figure binaries stay at smoke scale and outside this gate:
/// `c1_complexity` and `c3_imbalance` take about 80 s each at default
/// scale, and `c4`, `fig1` and `fig3` are not simulator figures.
fn verify_figures() -> ExitCode {
    let dir = std::path::Path::new("target").join("xtask").join("figures");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("verify-figures: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    if !cargo(&[
        "build",
        "--offline",
        "--release",
        "-q",
        "-p",
        "mergepath-bench",
    ]) {
        eprintln!("verify-figures: FAILED building mergepath-bench");
        return ExitCode::FAILURE;
    }
    let cargo_bin = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    for bin in FIGURES {
        let run = [
            "run",
            "--offline",
            "--release",
            "-q",
            "-p",
            "mergepath-bench",
            "--bin",
            bin,
        ];
        println!("$ (cd {}; cargo {})", dir.display(), run.join(" "));
        let status = Command::new(&cargo_bin)
            .args(run)
            .current_dir(&dir)
            .stdout(std::process::Stdio::null())
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("verify-figures: FAILED running {bin}");
            return ExitCode::FAILURE;
        }
    }
    let written = dir.join("results");
    let mut files: Vec<String> = match std::fs::read_dir(&written) {
        Ok(entries) => entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.ends_with(".csv"))
            .collect(),
        Err(e) => {
            eprintln!("verify-figures: FAILED reading {}: {e}", written.display());
            return ExitCode::FAILURE;
        }
    };
    if files.is_empty() {
        eprintln!("verify-figures: FAILED: the figure binaries wrote no CSV");
        return ExitCode::FAILURE;
    }
    files.sort();
    for file in &files {
        let fresh = std::fs::read_to_string(written.join(file));
        let committed = std::fs::read_to_string(std::path::Path::new("results").join(file));
        match (fresh, committed) {
            (Ok(fresh), Ok(committed)) if fresh == committed => {}
            (Ok(fresh), Ok(committed)) => {
                eprintln!("verify-figures: FAILED: results/{file} changed");
                let lines = fresh.lines().zip(committed.lines()).enumerate();
                if let Some((i, (new, old))) = lines.clone().find(|(_, (n, o))| n != o) {
                    eprintln!("  line {}: committed {old:?}", i + 1);
                    eprintln!("  line {}: fresh     {new:?}", i + 1);
                } else {
                    eprintln!(
                        "  committed {} lines, fresh {}",
                        committed.lines().count(),
                        fresh.lines().count()
                    );
                }
                return ExitCode::FAILURE;
            }
            (fresh, committed) => {
                let err = fresh.err().or(committed.err()).expect("one read failed");
                eprintln!("verify-figures: FAILED reading {file}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "verify-figures: OK ({} cache-model CSVs byte-identical to results/)",
        files.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = env::args().skip(1);
    let task = args.next();
    if let Some(flag) = args.next() {
        eprintln!("unknown flag {flag:?}");
        return usage();
    }
    match task.as_deref() {
        Some("verify-offline") => verify_offline(),
        Some("verify-telemetry") => verify_telemetry(),
        Some("verify-schedules") => verify_schedules(),
        Some("bench") => bench(),
        Some("verify-bench") => verify_bench(),
        Some("verify-serve") => verify_serve(),
        Some("verify-net") => verify_net(),
        Some("verify-metrics") => verify_metrics(),
        Some("verify-figures") => verify_figures(),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::{check_tile_balance, parallel_max_shares};
    use mergepath_telemetry::json;

    #[test]
    fn parallel_max_shares_reads_the_parallel_line_only() {
        let report = "parallel: ok (n=65536, schedules=8, rounds=8, multi_share_rounds=8, \
                      max_shares=8, writes=64, pram_rounds=0)\n\
                      batch: ok (n=65536, schedules=8, rounds=8, multi_share_rounds=8, \
                      max_shares=9, writes=64, pram_rounds=0)\n";
        assert_eq!(parallel_max_shares(report), Some(8));
        assert_eq!(parallel_max_shares("batch: ok (max_shares=9)"), None);
    }

    fn merge_doc(max_items: u64, predicted_max: u64) -> json::Value {
        let row = |family: &str| {
            format!(
                "{{\"family\":\"{family}\",\"max_items\":{max_items},\
                 \"predicted_max\":{predicted_max}}}"
            )
        };
        json::parse(&format!(
            "{{\"payload\":{{\"families\":[{},{}]}}}}",
            row("uniform"),
            row("duplicate-heavy")
        ))
        .unwrap()
    }

    #[test]
    fn tile_balance_gate_passes_exact_rows_and_fails_one_item_over() {
        assert_eq!(check_tile_balance(&merge_doc(8192, 8192)), Ok(()));
        let err = check_tile_balance(&merge_doc(8193, 8192)).unwrap_err();
        assert!(err.contains("uniform") && err.contains("8193"), "{err}");
    }
}
