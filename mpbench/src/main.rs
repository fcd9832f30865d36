//! `mpbench`: the repository's benchmark. It runs one workload per
//! process against the library and the TCP daemon at `p` =
//! `executor::default_threads()`, checks every output, and prints every
//! metric by name with its unit. See README.md for the workloads, the
//! metrics and the noise floor.
//!
//! ```text
//! mpbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! mpbench --smoke
//! mpbench compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! A run prints three lines on standard output: a header (how the run was
//! made, the samples behind each number), the workload-specific `detail`,
//! and last the result object with the catalogue metrics. A table goes to
//! standard error. The exit code is non-zero when any output was wrong.

mod baseline;
mod batch;
mod compare;
mod gen;
mod pin;
mod report;
mod serve;
mod stats;
mod sut;
mod trace;

use report::{Report, RunConfig};

const USAGE: &str = "usage: mpbench --workload merge_large|merge_small|sort_mix|serve_mix|all \
[--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
       mpbench --smoke
       mpbench compare PARENT.json... -- CHANGE.json...";

type Workload = fn(&RunConfig) -> Report;

/// The workloads, in the order `all` and `--smoke` run them.
const WORKLOADS: [(&str, Workload); 4] = [
    ("merge_large", batch::merge_large),
    ("merge_small", batch::merge_small),
    ("sort_mix", batch::sort_mix),
    ("serve_mix", serve::serve_mix),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        match parse(&args) {
            Ok(cfg) if cfg.smoke => smoke(),
            Ok(cfg) if cfg.workload == "all" => all(&cfg),
            Ok(cfg) => run(&cfg),
            Err(e) => {
                eprintln!("mpbench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => cfg.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = cfg.workload == "all" || WORKLOADS.iter().any(|(w, _)| *w == cfg.workload);
    if !cfg.smoke && !known {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    Ok(cfg)
}

/// Runs one workload in this process and prints its lines.
fn run(cfg: &RunConfig) -> i32 {
    let (_, workload) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == cfg.workload)
        .expect("parse checked the name");
    let before = report::cpu_jiffies();
    let mut report = workload(cfg);
    // Time the hypervisor gave this machine's vCPUs to others: a run with a
    // high share measured the neighbours as much as the program.
    report.detail(
        "host.steal_frac",
        report::steal_since(before),
        "fraction",
        1,
    );
    report.finish(cfg.trace);
    println!("{}", report.header_line(cfg));
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    eprint!("{}", report.table(cfg));
    i32::from(!report.correct())
}

/// Runs each workload in a process of its own, one after another.
fn all(cfg: &RunConfig) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("mpbench: cannot find its own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for (workload, _) in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
            .args([
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                if cfg.trace { "1" } else { "0" },
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => code = code.max(s.code().unwrap_or(1)),
            Err(e) => {
                eprintln!("mpbench: running {workload}: {e}");
                code = 2;
            }
        }
    }
    code
}

/// The smoke run's settings for one workload and pass.
fn smoke_config(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 1,
        seconds: 0.3,
        trace,
        smoke: true,
        spans: None,
    }
}

/// Every workload at tiny sizes, untraced and traced, in this process.
fn smoke() -> i32 {
    let mut code = 0;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            code = code.max(run(&smoke_config(workload, trace)));
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_and_emits_the_catalogue() {
        for (name, workload) in WORKLOADS {
            for trace in [false, true] {
                let cfg = smoke_config(name, trace);
                let mut r = workload(&cfg);
                r.finish(trace);
                assert!(r.correct(), "{name} trace={trace}: {:?}", r.problems);
                let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
                let list = if trace {
                    &report::PER_LAYER[..]
                } else {
                    &report::END_TO_END[..]
                };
                assert_eq!(
                    names,
                    list.iter().map(|m| m.0).collect::<Vec<_>>(),
                    "{name} trace={trace}"
                );
            }
        }
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = parse(&args(
            "--workload sort_mix --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("sort_mix", 7, 2.5, true)
        );
        assert!(parse(&args("--smoke")).unwrap().smoke);
        for bad in [
            "--workload nope",
            "--workload sort_mix --trace 2",
            "--workload sort_mix --seconds 0",
            "--seed",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
