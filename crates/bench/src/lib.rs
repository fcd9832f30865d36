//! # mergepath-bench — experiment harness support
//!
//! Shared utilities for the figure/table regeneration binaries
//! (`src/bin`): wall-clock timing with warmup and repetition,
//! markdown/CSV table emission, and the experiment scale presets (`--full`
//! reproduces the paper's sizes; the default is scaled for a small
//! machine). Per-kernel and per-family timing lives in `mp bench`
//! (`crates/cli`) and end-to-end timing in `mpbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod svg;

use std::time::Instant;

/// Runs `f` once for warmup, then `reps` times, returning the *minimum*
/// wall-clock seconds (minimum is the standard noise-robust estimator for
/// deterministic kernels).
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// A minimal aligned-column table writer that mirrors the paper's tables in
/// terminal output and also accumulates CSV for `results/`.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Starts a table from owned headers (convenient for computed columns).
    pub fn from_headers(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `results/<name>.csv` (relative to the
    /// workspace root when run via `cargo run`), creating the directory if
    /// needed. Errors are reported but not fatal — the table is already on
    /// stdout.
    pub fn save_csv(&self, name: &str) {
        let dir = std::path::Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create results/: {e}");
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, self.to_csv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("(csv written to {})", path.display());
        }
    }
}

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale defaults (CI-friendly).
    Default,
    /// The paper's full problem sizes (`--full`).
    Full,
    /// Tiny smoke-test sizes (`--smoke`).
    Smoke,
}

impl Scale {
    /// Parses `--full` / `--smoke` from `std::env::args`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else if args.iter().any(|a| a == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Default
        }
    }

    /// Figure 5 input sizes (elements per input array).
    pub fn fig5_sizes(&self) -> Vec<usize> {
        match self {
            // Paper: 1M, 4M, 16M, 64M, 256M (Mi elements).
            Scale::Full => vec![1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20],
            Scale::Default => vec![1 << 20, 4 << 20, 16 << 20],
            Scale::Smoke => vec![1 << 14, 1 << 16],
        }
    }

    /// Thread counts matching the paper's 12-core machine.
    pub fn fig5_threads(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 2, 4],
            _ => vec![1, 2, 4, 6, 8, 10, 12],
        }
    }

    /// Repetitions for wall-clock timings.
    pub fn reps(&self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Default => 3,
            Scale::Smoke => 1,
        }
    }
}

/// Formats a mebi-elements size the way the paper labels it ("1M", "256M").
pub fn mega_label(n: usize) -> String {
    if n >= 1 << 20 && n % (1 << 20) == 0 {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 && n % (1 << 10) == 0 {
        format!("{}K", n >> 10)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(&["size", "speedup"]);
        t.row(&["1M".into(), "3.9".into()]);
        t.row(&["256M".into(), "11.7".into()]);
        let text = t.render();
        assert!(text.contains("size"));
        assert!(text.lines().count() >= 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "size,speedup");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn mega_labels() {
        assert_eq!(mega_label(1 << 20), "1M");
        assert_eq!(mega_label(256 << 20), "256M");
        assert_eq!(mega_label(1 << 14), "16K");
        assert_eq!(mega_label(1000), "1000");
    }

    #[test]
    fn time_best_returns_finite_positive() {
        let mut x = 0u64;
        let t = time_best(2, || {
            x = x.wrapping_add(std::hint::black_box(1));
        });
        assert!(t.is_finite() && t >= 0.0);
    }

    #[test]
    fn scale_presets() {
        assert_eq!(Scale::Full.fig5_sizes().len(), 5);
        assert_eq!(*Scale::Full.fig5_sizes().last().unwrap(), 256 << 20);
        assert_eq!(Scale::Default.fig5_threads().last(), Some(&12));
        assert!(Scale::Smoke.reps() >= 1);
    }
}
