//! # mergepath-cli — the `mp` command
//!
//! A small command-line front end over the `mergepath` library:
//!
//! ```text
//! mp merge  A.txt B.txt [-o OUT] [--threads N] [--numeric]
//! mp sort   FILE       [-o OUT] [--threads N] [--numeric] [--algo ALGO]
//! mp select A.txt B.txt --rank K [--numeric]       # k-th of the merged view
//! mp check  FILE [--numeric]                        # is the file sorted?
//! mp check  --kernel K|all [--n N] [--threads P] [--seed S]
//!           [--schedules K]                          # schedule-exploration check
//! mp trace  --kernel K [--n N] [--threads P] [--seed S]
//!           [--trace-out F] [--metrics-out F]       # run + record telemetry
//! mp bench  [--n N] [--threads P] [--seed S] [--reps R]
//!           [--out-dir D] [--smoke] [--serve]       # BENCH_*.json artifacts
//! mp serve  [--requests N] [--concurrency C] [--queue-capacity Q]
//!           [--deadline-ms D] [--pattern P] [--n LEN] [--threads B]
//!           [--seed S] [--metrics-out DIR]          # live daemon session
//! mp serve  --listen ADDR [--concurrency C] [--queue-capacity Q]
//!           [--n LEN] [--threads B]                 # TCP daemon (until stdin EOF)
//! mp client --addr ADDR [--requests N] [--n LEN] [--seed S]
//!           [--deadline-ms D] [--malformed] [--out F] # loopback load + oracle check
//! mp inspect FILE                                   # render metrics / flight dumps
//! ```
//!
//! `mp check --kernel …` drives the deterministic schedule checker
//! (`mergepath-check`): the kernel runs under several seed-permuted
//! single-threaded virtual schedules while a shadow recorder captures every
//! output write, and the tool verifies CREW exclusivity (Thm 9), exact
//! coverage, the Thm 14 `⌈N/p⌉` bound, and byte-identical agreement with a
//! sequential oracle. Violations exit non-zero with the offending schedule
//! and round.
//!
//! `mp trace` runs one kernel on a synthetic workload with the
//! [`TimelineRecorder`] attached and
//! writes a Chrome `trace_event` JSON file (loadable in Perfetto /
//! `chrome://tracing`) plus a flat JSONL metrics stream ending in a
//! load-balance summary line (Theorem 14's `⌈N/p⌉` prediction against the
//! observed per-worker element counts).
//!
//! Files are line-oriented. By default lines compare lexicographically
//! (like `sort`); `--numeric` parses each line as an `i64` (like
//! `sort -n`) and reports the first unparsable line. `mp merge` requires
//! both inputs to be sorted and verifies that up front, pinpointing the
//! first out-of-order line — the library's `try_*` discipline surfacing
//! in the tool.
//!
//! The argument parser is hand-rolled (the workspace's no-extra-deps
//! stance); all logic lives in this library crate so it is unit-testable,
//! with `main.rs` a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod inspect;
pub mod net_cli;
pub mod serve_bench;

use std::fmt::Write as _;

use mergepath::merge::parallel::parallel_merge_into_by;
use mergepath::merge::sequential::natural_cmp;
use mergepath::select::kth_of_union_by;
use mergepath::sort::cache_aware::cache_aware_parallel_sort_by;
use mergepath::sort::natural::natural_merge_sort_by;
use mergepath::sort::parallel::parallel_merge_sort_by;
use mergepath::telemetry::{LoadBalanceReport, NoRecorder, TimelineRecorder};
use mergepath_check::Kernel;
use mergepath_workloads::{merge_pair_sized, ArrivalPattern, MergeWorkload};

/// Everything that can go wrong, with user-facing messages.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Bad command line; the message includes usage.
    Usage(String),
    /// I/O problem reading or writing a file.
    Io(String),
    /// An input that must be sorted is not.
    NotSorted {
        /// Offending file name.
        file: String,
        /// 1-based line number of the first out-of-order line.
        line: usize,
    },
    /// `--numeric` was given but a line did not parse.
    BadNumber {
        /// Offending file name.
        file: String,
        /// 1-based line number.
        line: usize,
        /// The line's contents.
        text: String,
    },
    /// `--rank` out of range.
    RankOutOfRange {
        /// Requested rank.
        rank: usize,
        /// Total elements available.
        total: usize,
    },
    /// `mp check --kernel`: the schedule checker found a violation.
    CheckFailed(String),
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{}", usage()),
            CliError::Io(msg) => write!(f, "io error: {msg}"),
            CliError::NotSorted { file, line } => {
                write!(f, "{file}: not sorted (first violation at line {line})")
            }
            CliError::BadNumber { file, line, text } => {
                write!(f, "{file}:{line}: not a number: {text:?}")
            }
            CliError::RankOutOfRange { rank, total } => {
                write!(f, "rank {rank} out of range (merged length {total})")
            }
            CliError::CheckFailed(msg) => write!(f, "check failed: {msg}"),
        }
    }
}

/// The usage text, without its kernel list.
const COMMANDS: &str = "usage:
  mp merge  A B [-o OUT] [--threads N] [--numeric]
  mp sort   FILE [-o OUT] [--threads N] [--numeric] [--algo parallel|natural|cache-aware]
  mp select A B --rank K [--numeric]
  mp check  FILE [--numeric]
  mp check  --kernel KERNEL|all [--n N] [--threads P] [--seed S] [--schedules K]
  mp trace  --kernel KERNEL
            [--n N] [--threads P] [--seed S] [--trace-out F] [--metrics-out F]
  mp bench  [--n N] [--threads P] [--seed S] [--reps R] [--out-dir D] [--smoke] [--serve]
  mp serve  [--requests N] [--concurrency C] [--queue-capacity Q] [--deadline-ms D]
            [--pattern steady|bursty|heavy-tail] [--n LEN] [--threads B] [--seed S]
            [--metrics-out DIR]
  mp serve  --listen ADDR [--concurrency C] [--queue-capacity Q] [--n LEN] [--threads B]
  mp client --addr ADDR [--requests N] [--n LEN] [--seed S] [--deadline-ms D]
            [--malformed] [--out FILE]
  mp inspect FILE";

/// The usage text printed on argument errors; its `KERNEL` list is
/// [`Kernel::ALL`]'s names.
pub fn usage() -> String {
    let kernels: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
    format!("{COMMANDS}\nwhere KERNEL is {}", kernels.join("|"))
}

/// Sorting algorithm selector for `mp sort`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortAlgo {
    /// The §III parallel merge sort (default).
    #[default]
    Parallel,
    /// Adaptive natural-runs sort.
    Natural,
    /// The §IV.C cache-aware sort.
    CacheAware,
}

impl SortAlgo {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "parallel" => Ok(SortAlgo::Parallel),
            "natural" => Ok(SortAlgo::Natural),
            "cache-aware" => Ok(SortAlgo::CacheAware),
            other => Err(CliError::Usage(format!("unknown --algo {other:?}"))),
        }
    }
}

/// Parses a `--kernel` name: one of the schedule checker's seven kernels,
/// which `mp trace`, `mp check` and `mp bench` share.
fn parse_kernel(name: &str) -> Result<Kernel, CliError> {
    Kernel::parse(name).ok_or_else(|| CliError::Usage(format!("unknown --kernel {name:?}")))
}

/// A parsed command.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// `mp merge`.
    Merge {
        /// First sorted input.
        a: String,
        /// Second sorted input.
        b: String,
        /// Output path (stdout if absent).
        out: Option<String>,
        /// Worker count.
        threads: usize,
        /// Numeric comparison.
        numeric: bool,
    },
    /// `mp sort`.
    Sort {
        /// Input path.
        file: String,
        /// Output path (stdout if absent).
        out: Option<String>,
        /// Worker count.
        threads: usize,
        /// Numeric comparison.
        numeric: bool,
        /// Algorithm choice.
        algo: SortAlgo,
    },
    /// `mp select`.
    Select {
        /// First sorted input.
        a: String,
        /// Second sorted input.
        b: String,
        /// 0-based rank into the merged view.
        rank: usize,
        /// Numeric comparison.
        numeric: bool,
    },
    /// `mp check FILE`.
    Check {
        /// Input path.
        file: String,
        /// Numeric comparison.
        numeric: bool,
    },
    /// `mp check --kernel` — the deterministic schedule-exploration check.
    CheckSchedules {
        /// Kernel under check; `None` means all seven.
        kernel: Option<Kernel>,
        /// Total output size `N`.
        n: usize,
        /// Logical worker count `p`.
        threads: usize,
        /// Base seed for input synthesis and schedule permutations.
        seed: u64,
        /// Number of permuted virtual schedules per kernel.
        schedules: usize,
    },
    /// `mp trace`.
    Trace {
        /// Kernel to run under the recorder.
        kernel: Kernel,
        /// Total output size `N`.
        n: usize,
        /// Logical worker count `p`.
        threads: usize,
        /// Workload PRNG seed.
        seed: u64,
        /// Chrome trace output path (default `mp-trace.json`).
        trace_out: String,
        /// JSONL metrics output path (default `mp-metrics.jsonl`).
        metrics_out: String,
    },
    /// `mp bench` — the reproducible perf harness (see [`mod@bench`]).
    Bench {
        /// Elements per measured merge/sort.
        n: usize,
        /// Logical worker count `p`.
        threads: usize,
        /// Workload PRNG seed.
        seed: u64,
        /// Timing repetitions per data point.
        reps: usize,
        /// Directory receiving the three `BENCH_*.json` artifacts.
        out_dir: String,
        /// Also run the serving sweep and emit `BENCH_serve.json`.
        serve: bool,
        /// `--smoke` was given: size the serving sweep for CI.
        smoke: bool,
    },
    /// `mp serve` — one live daemon session (see [`serve_bench`]).
    Serve {
        /// Requests in the arrival plan.
        requests: usize,
        /// Serving threads (maximum in-flight requests).
        concurrency: usize,
        /// Bounded admission-queue capacity.
        queue_capacity: usize,
        /// Relative per-request deadline, milliseconds (0 = none).
        deadline_ms: u64,
        /// Arrival process.
        pattern: ArrivalPattern,
        /// Mean per-side input length.
        mean_len: usize,
        /// Pool-thread budget shared by in-flight requests.
        threads: usize,
        /// Plan seed.
        seed: u64,
        /// Live-metrics output directory (`--metrics-out`), if any.
        metrics_out: Option<String>,
        /// `--listen ADDR`: run the TCP front end instead of the
        /// self-driving in-process session (handled by the `mp` binary —
        /// it blocks until stdin EOF).
        listen: Option<String>,
    },
    /// `mp client` — pipelined loopback load against `mp serve --listen`,
    /// every `ok` response checked against the sequential oracle (see
    /// [`net_cli`]).
    Client {
        /// Daemon address.
        addr: String,
        /// Requests to pipeline.
        requests: usize,
        /// Mean per-side input length.
        mean_len: usize,
        /// Input-synthesis seed.
        seed: u64,
        /// Relative deadline per request, milliseconds (0 = none).
        deadline_ms: u64,
        /// Also probe protocol hygiene with a malformed frame.
        malformed: bool,
        /// Artifact output path (`--out`), if any.
        out: Option<String>,
    },
    /// `mp inspect` — render a metrics snapshot, flight dump, or
    /// `METRICS_serve.json` envelope human-readably (see [`inspect`]).
    Inspect {
        /// Path of the file to render.
        file: String,
    },
}

/// Parses an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut out = None;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut numeric = false;
    let mut algo = SortAlgo::default();
    let mut rank: Option<usize> = None;
    let mut kernel: Option<&str> = None;
    let mut n: Option<usize> = None;
    let mut schedules = 8usize;
    let mut seed = 42u64;
    let mut trace_out = String::from("mp-trace.json");
    let mut metrics_out: Option<String> = None;
    let mut reps: Option<usize> = None;
    let mut out_dir = String::from(".");
    let mut smoke = false;
    let mut serve = false;
    let mut requests = 256usize;
    let mut concurrency = 64usize;
    let mut queue_capacity = 256usize;
    let mut deadline_ms: Option<u64> = None;
    let mut pattern = ArrivalPattern::Steady;
    let mut listen: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut malformed = false;
    let mut it = args.iter();
    let sub = it
        .next()
        .ok_or_else(|| CliError::Usage("missing subcommand".into()))?;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--output" => {
                out = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("-o needs a path".into()))?
                        .clone(),
                );
            }
            "--threads" => {
                let t = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--threads needs a count".into()))?;
                threads = t
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| CliError::Usage(format!("bad thread count {t:?}")))?;
            }
            "--numeric" | "-n" => numeric = true,
            "--algo" => {
                let a = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--algo needs a name".into()))?;
                algo = SortAlgo::parse(a)?;
            }
            "--rank" => {
                let r = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--rank needs an index".into()))?;
                rank = Some(
                    r.parse::<usize>()
                        .map_err(|_| CliError::Usage(format!("bad rank {r:?}")))?,
                );
            }
            "--kernel" => {
                kernel = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--kernel needs a name".into()))?,
                );
            }
            "--n" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--n needs a count".into()))?;
                n = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&v| v > 0)
                        .ok_or_else(|| CliError::Usage(format!("bad element count {v:?}")))?,
                );
            }
            "--schedules" => {
                let s = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--schedules needs a count".into()))?;
                schedules = s
                    .parse::<usize>()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| CliError::Usage(format!("bad schedule count {s:?}")))?;
            }
            "--seed" => {
                let s = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--seed needs a value".into()))?;
                seed = s
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("bad seed {s:?}")))?;
            }
            "--trace-out" => {
                trace_out = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--trace-out needs a path".into()))?
                    .clone();
            }
            "--metrics-out" => {
                metrics_out = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--metrics-out needs a path".into()))?
                        .clone(),
                );
            }
            "--reps" => {
                let r = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--reps needs a count".into()))?;
                reps = Some(
                    r.parse::<usize>()
                        .ok()
                        .filter(|&r| r > 0)
                        .ok_or_else(|| CliError::Usage(format!("bad rep count {r:?}")))?,
                );
            }
            "--out-dir" => {
                out_dir = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--out-dir needs a path".into()))?
                    .clone();
            }
            "--smoke" => smoke = true,
            "--serve" => serve = true,
            "--requests" => {
                let r = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--requests needs a count".into()))?;
                requests = r
                    .parse::<usize>()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| CliError::Usage(format!("bad request count {r:?}")))?;
            }
            "--concurrency" => {
                let c = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--concurrency needs a count".into()))?;
                concurrency = c
                    .parse::<usize>()
                    .ok()
                    .filter(|&c| c > 0)
                    .ok_or_else(|| CliError::Usage(format!("bad concurrency {c:?}")))?;
            }
            "--queue-capacity" => {
                let q = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--queue-capacity needs a count".into()))?;
                queue_capacity = q
                    .parse::<usize>()
                    .ok()
                    .filter(|&q| q > 0)
                    .ok_or_else(|| CliError::Usage(format!("bad queue capacity {q:?}")))?;
            }
            "--deadline-ms" => {
                let d = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--deadline-ms needs a value".into()))?;
                deadline_ms = Some(
                    d.parse::<u64>()
                        .map_err(|_| CliError::Usage(format!("bad deadline {d:?}")))?,
                );
            }
            "--listen" => {
                listen = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--listen needs an address".into()))?
                        .clone(),
                );
            }
            "--addr" => {
                addr = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--addr needs an address".into()))?
                        .clone(),
                );
            }
            "--malformed" => malformed = true,
            "--out" => {
                out = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--out needs a path".into()))?
                        .clone(),
                );
            }
            "--pattern" => {
                let p = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--pattern needs a name".into()))?;
                pattern = ArrivalPattern::parse(p)
                    .ok_or_else(|| CliError::Usage(format!("unknown --pattern {p:?}")))?;
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {other:?}")));
            }
            other => positional.push(other),
        }
    }
    match (sub.as_str(), positional.as_slice()) {
        ("merge", [a, b]) => Ok(Command::Merge {
            a: a.to_string(),
            b: b.to_string(),
            out,
            threads,
            numeric,
        }),
        ("sort", [file]) => Ok(Command::Sort {
            file: file.to_string(),
            out,
            threads,
            numeric,
            algo,
        }),
        ("select", [a, b]) => Ok(Command::Select {
            a: a.to_string(),
            b: b.to_string(),
            rank: rank.ok_or_else(|| CliError::Usage("select needs --rank".into()))?,
            numeric,
        }),
        ("check", [file]) => Ok(Command::Check {
            file: file.to_string(),
            numeric,
        }),
        ("check", []) => {
            let kernel = match kernel
                .ok_or_else(|| CliError::Usage("check needs a FILE or --kernel".into()))?
            {
                "all" => None,
                name => Some(parse_kernel(name)?),
            };
            Ok(Command::CheckSchedules {
                kernel,
                n: n.unwrap_or(4096),
                threads,
                seed,
                schedules,
            })
        }
        ("trace", []) => Ok(Command::Trace {
            kernel: parse_kernel(
                kernel.ok_or_else(|| CliError::Usage("trace needs --kernel".into()))?,
            )?,
            n: n.unwrap_or(1_000_000),
            threads,
            seed,
            trace_out,
            metrics_out: metrics_out.unwrap_or_else(|| "mp-metrics.jsonl".into()),
        }),
        ("bench", []) => {
            // --smoke sets CI-friendly defaults; explicit --n/--reps win.
            let defaults = if smoke {
                bench::BenchConfig::smoke(threads, seed)
            } else {
                bench::BenchConfig::full(threads, seed)
            };
            Ok(Command::Bench {
                n: n.unwrap_or(defaults.n),
                threads,
                seed,
                reps: reps.unwrap_or(defaults.reps),
                out_dir,
                serve,
                smoke,
            })
        }
        ("serve", []) => Ok(Command::Serve {
            requests,
            concurrency,
            queue_capacity,
            deadline_ms: deadline_ms.unwrap_or(50),
            pattern,
            mean_len: n.unwrap_or(2048),
            threads,
            seed,
            metrics_out,
            listen,
        }),
        ("client", []) => Ok(Command::Client {
            addr: addr.ok_or_else(|| CliError::Usage("client needs --addr".into()))?,
            requests,
            mean_len: n.unwrap_or(1024),
            seed,
            // Unlike `mp serve`, the loopback check defaults to no
            // deadline: every request should complete and be oracle-checked.
            deadline_ms: deadline_ms.unwrap_or(0),
            malformed,
            out,
        }),
        ("inspect", [file]) => Ok(Command::Inspect {
            file: file.to_string(),
        }),
        (sub, pos) => Err(CliError::Usage(format!(
            "bad arguments for {sub:?} (got {} positional argument(s))",
            pos.len()
        ))),
    }
}

/// A line plus its numeric key when `--numeric` is active.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Record {
    key: Option<i64>,
    text: String,
}

fn compare(numeric: bool) -> impl Fn(&Record, &Record) -> core::cmp::Ordering + Sync {
    move |x: &Record, y: &Record| {
        if numeric {
            x.key.cmp(&y.key)
        } else {
            x.text.cmp(&y.text)
        }
    }
}

/// Parses file contents into records, validating numerics.
pub fn parse_records(file: &str, contents: &str, numeric: bool) -> Result<Vec<Record>, CliError> {
    contents
        .lines()
        .enumerate()
        .map(|(idx, line)| {
            let key = if numeric {
                Some(
                    line.trim()
                        .parse::<i64>()
                        .map_err(|_| CliError::BadNumber {
                            file: file.to_string(),
                            line: idx + 1,
                            text: line.to_string(),
                        })?,
                )
            } else {
                None
            };
            Ok(Record {
                key,
                text: line.to_string(),
            })
        })
        .collect()
}

fn ensure_sorted(file: &str, records: &[Record], numeric: bool) -> Result<(), CliError> {
    let cmp = compare(numeric);
    for (idx, w) in records.windows(2).enumerate() {
        if cmp(&w[0], &w[1]) == core::cmp::Ordering::Greater {
            return Err(CliError::NotSorted {
                file: file.to_string(),
                line: idx + 1,
            });
        }
    }
    Ok(())
}

fn render(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = writeln!(out, "{}", r.text);
    }
    out
}

/// Executes a command against in-memory file contents (`load` maps path →
/// contents). Returns the text to print. Separated from real I/O so the
/// whole tool is unit-testable.
pub fn execute<L>(cmd: &Command, load: L) -> Result<String, CliError>
where
    L: Fn(&str) -> Result<String, CliError>,
{
    match cmd {
        Command::Merge {
            a,
            b,
            threads,
            numeric,
            ..
        } => {
            let ra = parse_records(a, &load(a)?, *numeric)?;
            let rb = parse_records(b, &load(b)?, *numeric)?;
            ensure_sorted(a, &ra, *numeric)?;
            ensure_sorted(b, &rb, *numeric)?;
            let mut merged = vec![Record::default(); ra.len() + rb.len()];
            let cmp = compare(*numeric);
            parallel_merge_into_by(&ra, &rb, &mut merged, *threads, &cmp, &NoRecorder);
            Ok(render(&merged))
        }
        Command::Sort {
            file,
            threads,
            numeric,
            algo,
            ..
        } => {
            let mut records = parse_records(file, &load(file)?, *numeric)?;
            let cmp = compare(*numeric);
            match algo {
                SortAlgo::Parallel => {
                    parallel_merge_sort_by(&mut records, *threads, &cmp, &NoRecorder)
                }
                SortAlgo::Natural => natural_merge_sort_by(&mut records, *threads, &cmp),
                SortAlgo::CacheAware => {
                    cache_aware_parallel_sort_by(&mut records, *threads, WINDOW, &cmp, &NoRecorder)
                }
            }
            Ok(render(&records))
        }
        Command::Select {
            a,
            b,
            rank,
            numeric,
        } => {
            let ra = parse_records(a, &load(a)?, *numeric)?;
            let rb = parse_records(b, &load(b)?, *numeric)?;
            ensure_sorted(a, &ra, *numeric)?;
            ensure_sorted(b, &rb, *numeric)?;
            let total = ra.len() + rb.len();
            if *rank >= total {
                return Err(CliError::RankOutOfRange { rank: *rank, total });
            }
            let rec = kth_of_union_by(&ra, &rb, *rank, &compare(*numeric));
            Ok(format!("{}\n", rec.text))
        }
        Command::Check { file, numeric } => {
            let records = parse_records(file, &load(file)?, *numeric)?;
            match ensure_sorted(file, &records, *numeric) {
                Ok(()) => Ok(format!("{file}: sorted ({} lines)\n", records.len())),
                Err(e) => Err(e),
            }
        }
        Command::CheckSchedules {
            kernel,
            n,
            threads,
            seed,
            schedules,
        } => {
            let cfg = mergepath_check::CheckConfig {
                threads: *threads,
                schedules: *schedules,
                seed: *seed,
                ..mergepath_check::CheckConfig::default()
            };
            let kernels = match kernel {
                Some(k) => vec![*k],
                None => Kernel::ALL.to_vec(),
            };
            let mut out = String::new();
            for k in kernels {
                let report = mergepath_check::check_kernel(k, *n, &cfg)
                    .map_err(|e| CliError::CheckFailed(e.to_string()))?;
                let _ = writeln!(out, "{report}");
            }
            Ok(out)
        }
        Command::Trace {
            kernel,
            n,
            threads,
            seed,
            ..
        } => Ok(run_trace(*kernel, *n, *threads, *seed).summary),
        Command::Bench {
            n,
            threads,
            seed,
            reps,
            serve,
            smoke,
            ..
        } => {
            let cfg = bench::BenchConfig {
                n: *n,
                threads: *threads,
                seed: *seed,
                reps: *reps,
            };
            let mut summary = bench::run_bench(&cfg).summary;
            if *serve {
                let serve_cfg = if *smoke {
                    serve_bench::ServeBenchConfig::smoke(*threads, *seed)
                } else {
                    serve_bench::ServeBenchConfig::full(*threads, *seed)
                };
                summary.push_str(&serve_bench::run_serve_bench(&serve_cfg).summary);
            }
            Ok(summary)
        }
        Command::Serve {
            listen: Some(listen_addr),
            concurrency,
            queue_capacity,
            mean_len,
            threads,
            ..
        } => net_cli::run_listen(&net_cli::ListenConfig {
            addr: listen_addr.clone(),
            concurrency: *concurrency,
            queue_capacity: *queue_capacity,
            mean_len: *mean_len,
            worker_budget: *threads,
        }),
        Command::Serve {
            requests,
            concurrency,
            queue_capacity,
            deadline_ms,
            pattern,
            mean_len,
            threads,
            seed,
            metrics_out,
            listen: None,
        } => Ok(serve_bench::run_serve(&serve_bench::ServeRunConfig {
            requests: *requests,
            concurrency: *concurrency,
            queue_capacity: *queue_capacity,
            deadline_ns: deadline_ms * 1_000_000,
            pattern: *pattern,
            mean_len: *mean_len,
            worker_budget: *threads,
            seed: *seed,
            metrics_out: metrics_out.clone(),
        })),
        Command::Client {
            addr,
            requests,
            mean_len,
            seed,
            deadline_ms,
            malformed,
            out,
        } => net_cli::run_client(&net_cli::ClientConfig {
            addr: addr.clone(),
            requests: *requests,
            mean_len: *mean_len,
            seed: *seed,
            deadline_ms: *deadline_ms,
            malformed: *malformed,
            out: out.clone(),
        }),
        Command::Inspect { file } => inspect::render_inspect(file, &load(file)?),
    }
}

/// The rendered artifacts of one traced kernel run.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Human-readable summary for stdout.
    pub summary: String,
    /// Chrome `trace_event` JSON (Perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// Flat JSONL metrics: a run header, every event, then a
    /// `load_balance` summary line.
    pub metrics_jsonl: String,
    /// The derived load-balance report.
    pub report: LoadBalanceReport,
}

/// The cache size, in elements, of the windowed kernels `mp trace`,
/// `mp bench` and `mp sort --algo cache-aware` run: 64 Ki elements.
pub(crate) const WINDOW: usize = 64 * 1024;

/// The sorted pair `mp trace` and `mp bench` run every kernel on: two
/// uniform sides of `n / 2` and `n - n / 2` keys from `seed`.
pub(crate) fn trace_inputs(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    merge_pair_sized(MergeWorkload::Uniform, n / 2, n - n / 2, seed)
}

/// Runs `kernel` on a deterministic synthetic workload of `n` total output
/// elements with the [`TimelineRecorder`] attached, and renders both
/// exporters plus the load-balance report.
pub fn run_trace(kernel: Kernel, n: usize, threads: usize, seed: u64) -> TraceRun {
    let (a, b) = trace_inputs(n, seed);
    let rec = TimelineRecorder::new();
    // The canonical comparator keeps traced runs on the natural-order path
    // (branch-lean's vector body on AVX2 CPUs), like the public entry
    // points.
    kernel.run_by(&a, &b, threads, WINDOW, &natural_cmp::<u32>, &rec);
    let telemetry = rec.finish();
    let report = telemetry.load_balance(n as u64, threads);
    let chrome_json = telemetry.to_chrome_trace();

    let mut metrics_jsonl = format!(
        "{{\"type\":\"run\",\"kernel\":\"{}\",\"n\":{},\"threads\":{},\"seed\":{}}}\n",
        kernel.name(),
        n,
        threads,
        seed
    );
    metrics_jsonl.push_str(&telemetry.to_jsonl());
    metrics_jsonl.push_str(&report.to_json());
    metrics_jsonl.push('\n');

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "traced {}: n={} threads={} seed={}",
        kernel.name(),
        n,
        threads,
        seed
    );
    let _ = writeln!(
        summary,
        "  items/worker ({} logical workers): max={} min={} predicted ceil(N/{})={} \
         thm14_exact={}",
        report.workers,
        report.max_items,
        report.min_items,
        report.workers,
        report.predicted_max,
        report.thm14_exact
    );
    let _ = writeln!(
        summary,
        "  busy/thread ({} participants): max={:.3}ms min={:.3}ms mean={:.3}ms \
         imbalance={:.3}",
        report.p,
        report.busy.max_ns as f64 / 1e6,
        report.busy.min_ns as f64 / 1e6,
        report.busy.mean_ns / 1e6,
        report.busy.imbalance
    );
    let comparisons: u64 = telemetry
        .counters
        .iter()
        .filter(|c| c.kind.name() == "comparisons")
        .map(|c| c.total)
        .sum();
    let probes: u64 = telemetry
        .counters
        .iter()
        .filter(|c| c.kind.name() == "diagonal_probe_steps")
        .map(|c| c.total)
        .sum();
    let _ = writeln!(
        summary,
        "  spans={} comparisons={} diagonal_probe_steps={} rounds={} round_wait={}ns",
        telemetry.spans.len(),
        comparisons,
        probes,
        telemetry.rounds.len(),
        report.total_wait_ns
    );
    TraceRun {
        summary,
        chrome_json,
        metrics_jsonl,
        report,
    }
}

/// Real-filesystem loader for [`execute`].
pub fn fs_loader(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn memfs<'f>(
        files: &'f [(&'f str, &'f str)],
    ) -> impl Fn(&str) -> Result<String, CliError> + 'f {
        move |path: &str| {
            files
                .iter()
                .find(|(p, _)| *p == path)
                .map(|(_, c)| c.to_string())
                .ok_or_else(|| CliError::Io(format!("{path}: not found")))
        }
    }

    #[test]
    fn parse_merge_command() {
        let cmd = parse_args(&argv("merge a.txt b.txt -o out.txt --threads 4 -n")).unwrap();
        assert_eq!(
            cmd,
            Command::Merge {
                a: "a.txt".into(),
                b: "b.txt".into(),
                out: Some("out.txt".into()),
                threads: 4,
                numeric: true
            }
        );
    }

    #[test]
    fn parse_errors_are_usage() {
        assert!(matches!(
            parse_args(&argv("merge only-one")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("frobnicate x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("sort f --threads 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("sort f --algo bogus")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("select a b")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("sort f --bad-flag")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse_args(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn merge_lexicographic() {
        let cmd = parse_args(&argv("merge a b --threads 2")).unwrap();
        let fs = memfs(&[("a", "apple\ncherry\n"), ("b", "banana\ndate\n")]);
        let out = execute(&cmd, fs).unwrap();
        assert_eq!(out, "apple\nbanana\ncherry\ndate\n");
    }

    #[test]
    fn merge_numeric_differs_from_lexicographic() {
        let fs = memfs(&[("a", "2\n10\n"), ("b", "1\n9\n")]);
        let numeric = parse_args(&argv("merge a b -n")).unwrap();
        assert_eq!(execute(&numeric, &fs).unwrap(), "1\n2\n9\n10\n");
        // Lexicographically, "10" < "2": file `a` is NOT sorted as text.
        let lex = parse_args(&argv("merge a b")).unwrap();
        assert_eq!(
            execute(&lex, &fs).unwrap_err(),
            CliError::NotSorted {
                file: "a".into(),
                line: 1
            }
        );
    }

    #[test]
    fn merge_rejects_unsorted_input() {
        let fs = memfs(&[("a", "3\n1\n"), ("b", "2\n")]);
        let cmd = parse_args(&argv("merge a b -n")).unwrap();
        assert_eq!(
            execute(&cmd, fs).unwrap_err(),
            CliError::NotSorted {
                file: "a".into(),
                line: 1
            }
        );
    }

    #[test]
    fn merge_reports_bad_numbers() {
        let fs = memfs(&[("a", "1\ntwo\n"), ("b", "3\n")]);
        let cmd = parse_args(&argv("merge a b -n")).unwrap();
        assert_eq!(
            execute(&cmd, fs).unwrap_err(),
            CliError::BadNumber {
                file: "a".into(),
                line: 2,
                text: "two".into()
            }
        );
    }

    #[test]
    fn sort_all_algorithms_agree() {
        let input = "5\n3\n9\n1\n3\n-2\n";
        let files = [("f", input)];
        let fs = memfs(&files);
        let mut outputs = Vec::new();
        for algo in ["parallel", "natural", "cache-aware"] {
            let cmd = parse_args(&argv(&format!("sort f -n --algo {algo} --threads 3"))).unwrap();
            outputs.push(execute(&cmd, &fs).unwrap());
        }
        assert_eq!(outputs[0], "-2\n1\n3\n3\n5\n9\n");
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sort_is_stable_on_equal_keys() {
        // Numeric ties keep input order of the text lines.
        let fs = memfs(&[("f", "2 b\n1 z\n2 a\n")]);
        let cmd_text = parse_args(&argv("sort f")).unwrap();
        assert_eq!(execute(&cmd_text, &fs).unwrap(), "1 z\n2 a\n2 b\n");
        // With numeric keys "2 b" and "2 a" tie ... but "2 b" fails to
        // parse as i64, so numeric mode reports it.
        let cmd_num = parse_args(&argv("sort f -n")).unwrap();
        assert!(matches!(
            execute(&cmd_num, &fs).unwrap_err(),
            CliError::BadNumber { .. }
        ));
    }

    #[test]
    fn select_finds_median() {
        let fs = memfs(&[("a", "1\n3\n5\n"), ("b", "2\n4\n")]);
        let cmd = parse_args(&argv("select a b --rank 2 -n")).unwrap();
        assert_eq!(execute(&cmd, &fs).unwrap(), "3\n");
        let cmd = parse_args(&argv("select a b --rank 5 -n")).unwrap();
        assert_eq!(
            execute(&cmd, &fs).unwrap_err(),
            CliError::RankOutOfRange { rank: 5, total: 5 }
        );
    }

    #[test]
    fn check_reports_status() {
        let fs = memfs(&[("good", "1\n2\n3\n"), ("bad", "2\n1\n")]);
        let ok = parse_args(&argv("check good -n")).unwrap();
        assert!(execute(&ok, &fs).unwrap().contains("sorted (3 lines)"));
        let bad = parse_args(&argv("check bad -n")).unwrap();
        assert!(matches!(
            execute(&bad, &fs).unwrap_err(),
            CliError::NotSorted { .. }
        ));
    }

    #[test]
    fn empty_files_are_fine() {
        let fs = memfs(&[("a", ""), ("b", "x\n")]);
        let cmd = parse_args(&argv("merge a b")).unwrap();
        assert_eq!(execute(&cmd, fs).unwrap(), "x\n");
    }

    #[test]
    fn error_display_is_informative() {
        let e = CliError::NotSorted {
            file: "f".into(),
            line: 7,
        };
        assert!(e.to_string().contains("line 7"));
        assert!(CliError::Usage("x".into()).to_string().contains("usage:"));
    }

    #[test]
    fn large_merge_through_the_cli_path() {
        let a: String = (0..5000).map(|x| format!("{}\n", x * 2)).collect();
        let b: String = (0..5000).map(|x| format!("{}\n", x * 2 + 1)).collect();
        let files = [("a", a.as_str()), ("b", b.as_str())];
        let fs = memfs(&files);
        let cmd = parse_args(&argv("merge a b -n --threads 4")).unwrap();
        let out = execute(&cmd, fs).unwrap();
        let nums: Vec<i64> = out.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(nums.len(), 10_000);
        assert!(nums.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parse_trace_command() {
        let cmd = parse_args(&argv(
            "trace --kernel segmented --n 5000 --threads 3 --seed 9 \
             --trace-out t.json --metrics-out m.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                kernel: Kernel::Segmented,
                n: 5000,
                threads: 3,
                seed: 9,
                trace_out: "t.json".into(),
                metrics_out: "m.jsonl".into(),
            }
        );
    }

    #[test]
    fn trace_defaults_and_errors() {
        let cmd = parse_args(&argv("trace --kernel parallel")).unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                kernel: Kernel::Parallel,
                n: 1_000_000,
                threads: mergepath::executor::default_threads(),
                seed: 42,
                trace_out: "mp-trace.json".into(),
                metrics_out: "mp-metrics.jsonl".into(),
            }
        );
        assert!(matches!(
            parse_args(&argv("trace")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("trace --kernel bogus")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("trace --kernel parallel --n 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn run_trace_parallel_satisfies_thm14_and_exports_parse() {
        let run = run_trace(Kernel::Parallel, 10_000, 4, 7);
        assert!(run.report.thm14_exact);
        assert_eq!(run.report.predicted_max, 2500);
        assert_eq!(run.report.max_items, 2500);
        // Both artifacts must be valid JSON (the trace as one document, the
        // metrics line by line).
        mergepath::telemetry::json::parse(&run.chrome_json).unwrap();
        let mut saw_load_balance = false;
        for line in run.metrics_jsonl.lines() {
            let v = mergepath::telemetry::json::parse(line).unwrap();
            if v.get("type").and_then(|t| t.as_str()) == Some("load_balance") {
                saw_load_balance = true;
            }
        }
        assert!(saw_load_balance);
        assert!(run.summary.contains("thm14_exact=true"));
    }

    #[test]
    fn run_trace_covers_every_kernel() {
        for kernel in Kernel::ALL {
            let run = run_trace(kernel, 3000, 3, 11);
            assert!(
                !run.report.per_worker_items.is_empty(),
                "{}: no per-worker items",
                kernel.name()
            );
            mergepath::telemetry::json::parse(&run.chrome_json).unwrap();
        }
    }

    #[test]
    fn parse_check_schedules_command() {
        let cmd = parse_args(&argv(
            "check --kernel segmented --n 600 --threads 3 --seed 5 --schedules 4",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::CheckSchedules {
                kernel: Some(Kernel::Segmented),
                n: 600,
                threads: 3,
                seed: 5,
                schedules: 4,
            }
        );
        // `all` selects every kernel; defaults fill the rest.
        let cmd = parse_args(&argv("check --kernel all --threads 2")).unwrap();
        assert_eq!(
            cmd,
            Command::CheckSchedules {
                kernel: None,
                n: 4096,
                threads: 2,
                seed: 42,
                schedules: 8,
            }
        );
    }

    #[test]
    fn check_schedules_parse_errors() {
        // A bare `check` has neither FILE nor --kernel.
        assert!(matches!(
            parse_args(&argv("check")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("check --kernel bogus")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("check --kernel all --schedules 0")),
            Err(CliError::Usage(_))
        ));
        // `all` is only meaningful to `check`, not `trace`.
        assert!(matches!(
            parse_args(&argv("trace --kernel all")),
            Err(CliError::Usage(_))
        ));
        // The checker runs the probe's own kernel choices; no flag forces
        // a segment kernel.
        for forced in ["galloping", "classic", "adaptive"] {
            match parse_args(&argv(&format!("check --kernel all --dispatch {forced}"))) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("--dispatch"), "{msg}"),
                other => panic!("--dispatch {forced} must be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn check_schedules_reports_one_line_per_kernel() {
        let cmd = parse_args(&argv(
            "check --kernel all --n 500 --threads 3 --schedules 3",
        ))
        .unwrap();
        let out = execute(&cmd, memfs(&[])).unwrap();
        assert_eq!(out.lines().count(), Kernel::ALL.len());
        for line in out.lines() {
            assert!(line.contains(": ok"), "{line}");
        }
        let one = parse_args(&argv("check --kernel kway --n 400 --threads 2")).unwrap();
        let out = execute(&one, memfs(&[])).unwrap();
        assert!(out.starts_with("kway: ok"), "{out}");
    }

    #[test]
    fn usage_lists_every_kernel_and_no_retired_name() {
        let text = usage();
        let line = text
            .lines()
            .find(|l| l.starts_with("where KERNEL is "))
            .expect("a KERNEL line");
        let names: Vec<&str> = line["where KERNEL is ".len()..].split('|').collect();
        assert_eq!(names, Kernel::ALL.map(|k| k.name()));
        // The retired k-way sort's name: `sort-` and the k-way merge's.
        let retired = format!("sort-{}", Kernel::Kway.name());
        for sub in ["trace", "check"] {
            match parse_args(&argv(&format!("{sub} --kernel {retired}"))) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(&retired), "{msg}"),
                other => panic!("{sub} --kernel {retired} must be a usage error, got {other:?}"),
            }
        }
        match parse_args(&argv("sort f --algo kway")) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("kway"), "{msg}"),
            other => panic!("--algo kway must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parse_serve_command() {
        let cmd = parse_args(&argv(
            "serve --requests 32 --concurrency 8 --queue-capacity 16 --deadline-ms 5 \
             --pattern bursty --n 512 --threads 2 --seed 7",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                requests: 32,
                concurrency: 8,
                queue_capacity: 16,
                deadline_ms: 5,
                pattern: ArrivalPattern::Bursty,
                mean_len: 512,
                threads: 2,
                seed: 7,
                metrics_out: None,
                listen: None,
            }
        );
        // --metrics-out turns on the live metrics directory.
        let cmd = parse_args(&argv("serve --requests 32 --metrics-out out/metrics")).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                requests: 32,
                metrics_out: Some(ref dir),
                ..
            } if dir == "out/metrics"
        ));
        // Defaults: 64-way concurrency, steady arrivals, 50 ms deadline.
        let cmd = parse_args(&argv("serve")).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                requests: 256,
                concurrency: 64,
                queue_capacity: 256,
                deadline_ms: 50,
                pattern: ArrivalPattern::Steady,
                mean_len: 2048,
                ..
            }
        ));
    }

    #[test]
    fn parse_listen_and_client_commands() {
        // --listen switches mp serve to the TCP front end.
        let cmd = parse_args(&argv("serve --listen 127.0.0.1:0 --concurrency 4")).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                listen: Some(ref a),
                concurrency: 4,
                ..
            } if a == "127.0.0.1:0"
        ));
        let cmd = parse_args(&argv(
            "client --addr 127.0.0.1:4780 --requests 18 --n 64 --seed 3 --deadline-ms 7 \
             --malformed --out NET.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:4780".into(),
                requests: 18,
                mean_len: 64,
                seed: 3,
                deadline_ms: 7,
                malformed: true,
                out: Some("NET.json".into()),
            }
        );
        // Client defaults: no deadline (everything should complete), no
        // artifact, no hygiene probe.
        let cmd = parse_args(&argv("client --addr 127.0.0.1:1")).unwrap();
        assert!(matches!(
            cmd,
            Command::Client {
                deadline_ms: 0,
                malformed: false,
                out: None,
                mean_len: 1024,
                ..
            }
        ));
        // --addr is mandatory.
        assert!(matches!(
            parse_args(&argv("client --requests 4")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_parse_errors() {
        for bad in [
            "serve --pattern poisson",
            "serve --requests 0",
            "serve --concurrency 0",
            "serve --queue-capacity 0",
            "serve --deadline-ms x",
            "serve extra-positional",
        ] {
            assert!(
                matches!(parse_args(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_inspect_command() {
        let cmd = parse_args(&argv("inspect dumps/flight-000-deadline_miss.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::Inspect {
                file: "dumps/flight-000-deadline_miss.jsonl".into(),
            }
        );
        assert!(matches!(
            parse_args(&argv("inspect")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("inspect a b")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn inspect_through_execute_renders_a_dump() {
        use mergepath_serve::{AnomalyTrigger, ServeObserver};
        let obs = ServeObserver::new(None);
        obs.on_submit(5, 100, 90);
        obs.on_reject_deadline(5, 150, 90);
        let body = obs.render_dump(AnomalyTrigger::DeadlineMiss, 0);
        let cmd = parse_args(&argv("inspect dump.jsonl")).unwrap();
        let out = execute(&cmd, memfs(&[("dump.jsonl", body.as_str())])).unwrap();
        assert!(out.contains("trigger=deadline_miss"), "{out}");
        assert!(out.contains("request 5:"), "{out}");
        assert!(out.contains("reject_deadline"), "{out}");
    }

    #[test]
    fn parse_bench_serve_flag() {
        let cmd = parse_args(&argv("bench --smoke --serve --threads 2 --seed 5")).unwrap();
        assert!(matches!(
            cmd,
            Command::Bench {
                serve: true,
                smoke: true,
                ..
            }
        ));
        let cmd = parse_args(&argv("bench --smoke")).unwrap();
        assert!(matches!(cmd, Command::Bench { serve: false, .. }));
    }

    #[test]
    fn serve_through_execute_returns_summary() {
        let cmd = parse_args(&argv(
            "serve --requests 8 --concurrency 2 --queue-capacity 8 --deadline-ms 0 \
             --n 256 --threads 2 --seed 11",
        ))
        .unwrap();
        let out = execute(&cmd, memfs(&[])).unwrap();
        assert!(out.contains("submitted=8 completed=8 "), "{out}");
        assert!(out.contains("lost=0"), "{out}");
    }

    #[test]
    fn trace_through_execute_returns_summary() {
        let cmd = parse_args(&argv("trace --kernel kway --n 2000 --threads 2")).unwrap();
        let out = execute(&cmd, memfs(&[])).unwrap();
        assert!(out.contains("traced kway"));
    }
}
