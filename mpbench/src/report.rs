//! The metric catalogue, one run's report, and the lines a run prints.
//!
//! Every workload prints every end-to-end metric (untraced pass) or every
//! per-layer metric (traced pass), so a later change is judged on one
//! fixed table; a unit test pins both lists to `BENCHMARK.json`.
//! Workload-specific numbers (the daemon's latency at each offered rate,
//! the sort phases, per-family kernel rates) go to the `detail` line.

use crate::sut::{self, json};

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    json::write_str(&mut out, s);
    out
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives; a non-finite value (an undefined ratio) is `null`.
pub fn json_num(x: f64) -> String {
    let mut out = String::new();
    if x.is_finite() {
        json::write_f64(&mut out, x);
    } else {
        out.push_str("null");
    }
    out
}

/// End-to-end metrics, measured with tracing off: `(name, unit)`. The
/// speeds are ratios of passes run side by side, which the host's speed
/// of the moment cancels out of; the raw rates and latencies they come
/// from are in the detail line.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("speedup_t1", "x"),
    ("t1_over_seq", "x"),
];

/// Per-layer metrics, measured by the traced pass: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 12] = [
    ("kernel.ns_per_elem", "ns/elem"),
    ("kernel.imbalance", "ratio"),
    ("kernel.gbs", "GB/s"),
    ("kernel.bw_frac", "fraction"),
    ("diagonal.search_ns", "ns"),
    ("executor.fork_join_us", "us"),
    ("baseline.copy_gbs", "GB/s"),
    ("baseline.seq_merge_melem_s", "Melem/s"),
    ("merge.t1_vs_seq", "ratio"),
    ("baseline.std_sort_melem_s", "Melem/s"),
    ("baseline.std_sort_unstable_melem_s", "Melem/s"),
    ("gen_s", "s"),
];

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// How long the measured pass runs.
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs and short legs: every code path in a few seconds.
    pub smoke: bool,
    /// Where the traced pass writes its spans.
    pub spans: Option<String>,
}

impl RunConfig {
    /// `full` in a measured run, `smoke` in a smoke run.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// When a pass started now must stop.
    pub fn deadline(&self) -> std::time::Instant {
        std::time::Instant::now() + std::time::Duration::from_secs_f64(self.seconds)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub detail: Vec<Metric>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that were wrong, failed or refused.
    pub failed: u64,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Report {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(what());
            }
        }
    }

    /// Records a catalogue metric; its unit comes from the catalogue.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a workload-specific number for the `detail` line.
    pub fn detail(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.detail.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Checks that the metrics are exactly the catalogue's list for this
    /// pass, each a finite number; a gap is a failure of the run.
    pub fn finish(&mut self, trace: bool) {
        let expected = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let mut ordered = Vec::with_capacity(expected.len());
        for (name, _) in expected {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => ordered.push(m.clone()),
                _ => {
                    self.failed += 1;
                    self.problems
                        .push(format!("metric {name} was not measured"));
                }
            }
        }
        self.metrics = ordered;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The header line: how the run was made and how many samples each
    /// number rests on.
    pub fn header_line(&self, cfg: &RunConfig) -> String {
        let samples: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.detail)
            .map(|m| format!("{}:{}", json_str(&m.name), m.samples))
            .collect();
        let threads_env = std::env::var("MERGEPATH_THREADS")
            .map(|v| json_str(&v))
            .unwrap_or_else(|_| "null".into());
        format!(
            "{{\"mpbench\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"simd_enabled\":{},\"p\":{},\"MERGEPATH_THREADS\":{},\"available_parallelism\":{},\"samples\":{{{}}}}}}}",
            json_str(&cfg.workload),
            cfg.seed,
            json_num(cfg.seconds),
            cfg.trace,
            cfg.smoke,
            sut::SIMD_ENABLED,
            sut::default_threads(),
            threads_env,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            samples.join(",")
        )
    }

    pub fn detail_line(&self) -> String {
        format!("{{\"detail\":{}}}", metrics_object(&self.detail))
    }

    /// The result line, the last line a run prints.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_object(&self.metrics)
        )
    }

    /// A human-readable table for standard error.
    pub fn table(&self, cfg: &RunConfig) -> String {
        let mut s = format!(
            "mpbench {} seed={} trace={} p={} simd={}: {} attempted, {} failed\n",
            cfg.workload,
            cfg.seed,
            u8::from(cfg.trace),
            sut::default_threads(),
            sut::SIMD_ENABLED,
            self.attempted,
            self.failed
        );
        for m in self.metrics.iter().chain(&self.detail) {
            s += &format!(
                "  {:<40} {:>16.4} {:<8} n={}\n",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            s += &format!("  FAILED: {p}\n");
        }
        s
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs since boot, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of all CPU time the hypervisor gave to other guests since
/// `since`, a [`cpu_jiffies`] reading; 0 when it cannot be read.
pub fn steal_since(since: Option<(u64, u64)>) -> f64 {
    match (since, cpu_jiffies()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(json::Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(json::Value::as_str).expect("name"),
                        m.get("unit").and_then(json::Value::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = Report::default();
        r.check(true, String::new);
        for (name, _) in END_TO_END {
            r.metric(name, 1.5, 3);
        }
        r.finish(false);
        let line = r.result_line();
        let v = json::parse(&line).expect("result line parses");
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert_eq!(
            v.get("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }

    #[test]
    fn a_missing_or_undefined_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("setup_s", f64::NAN, 0);
        r.finish(false);
        assert!(!r.correct());
        assert_eq!(r.failed as usize, END_TO_END.len());
    }

    #[test]
    fn json_helpers_keep_every_digit_and_write_null_for_undefined() {
        assert_eq!(json_num(1.2034567891234), "1.2034567891234");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(
            json::parse(&json_num(0.1 + 0.2)).unwrap().as_f64(),
            Some(0.1 + 0.2)
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
