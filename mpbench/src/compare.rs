//! `mpbench compare PARENT… -- CHANGE…`: judges a change's runs against
//! its parent's, metric by metric and workload by workload, with the
//! bounds `BENCHMARK.json` fixes. Give the files in the order the runs
//! were made, alternating sides, so the i-th parent run pairs with the
//! i-th change run.

use std::collections::BTreeMap;

use crate::stats::{judge, median, Better, Verdict};
use crate::sut::json::{self, Value};

/// Values of each metric of each workload, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads untraced results from files of `mpbench` output: each header
/// line names the workload its result line belongs to.
fn load(files: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut current: Option<(String, bool)> = None;
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let v = json::parse(line).map_err(|e| format!("{file}: {e}"))?;
            if let Some(h) = v.get("mpbench") {
                let workload = h
                    .get("workload")
                    .and_then(Value::as_str)
                    .unwrap_or_default();
                current = Some((
                    workload.to_string(),
                    h.get("trace") == Some(&Value::Bool(true)),
                ));
            } else if let (Some(metrics), Some((workload, false))) = (v.get("metrics"), &current) {
                for (name, m) in metrics.as_object().into_iter().flatten() {
                    if let Some(x) = m.get("value").and_then(Value::as_f64) {
                        runs.entry(workload.clone())
                            .or_default()
                            .entry(name.clone())
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
    }
    Ok(runs)
}

/// The end-to-end metrics `BENCHMARK.json` declares: name, direction
/// and bound.
fn declared() -> Vec<(String, Better, f64)> {
    let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let better = Better::parse(m.get("better")?.as_str()?)?;
            Some((name, better, m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// Prints one row per workload; returns 1 when any metric regressed.
pub fn main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: mpbench compare PARENT.json... -- CHANGE.json...");
        return 2;
    };
    let (parent, change) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("mpbench compare: {e}");
            return 2;
        }
    };
    let metrics = declared();
    let mut regressed = false;
    for (workload, parent_metrics) in &parent {
        let cells: Vec<String> = metrics
            .iter()
            .map(|(name, better, bound)| {
                let p = parent_metrics
                    .get(name)
                    .map(Vec::as_slice)
                    .unwrap_or_default();
                let c = change
                    .get(workload)
                    .and_then(|m| m.get(name))
                    .map(Vec::as_slice)
                    .unwrap_or_default();
                if p.is_empty() || c.is_empty() {
                    return format!("{name} missing");
                }
                let verdict = judge(p, c, *better, *bound);
                regressed |= verdict == Verdict::Regression;
                let (mp, mc) = (median(p), median(c));
                format!(
                    "{name} {} ({:+.1}%, n={}/{})",
                    verdict.name(),
                    100.0 * (mc - mp) / mp,
                    p.len(),
                    c.len()
                )
            })
            .collect();
        println!("{workload}: {}", cells.join("; "));
    }
    i32::from(regressed)
}
