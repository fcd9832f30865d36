//! **Figure 5** — Speedup of the regular Merge Path algorithm.
//!
//! Paper: input sizes 1M–256M elements per array (32-bit integers),
//! 1–12 threads on a dual-socket 2×6-core X5670; near-linear speedups,
//! ≈ 11.7× at 12 threads, slight degradation for the largest arrays.
//!
//! This host has a single CPU, so the figure is reproduced in two ways:
//!
//! 1. **PRAM model** (primary): Algorithm 1 runs on the CREW PRAM
//!    simulator; speedup = `T(1) / T(p)` with `T` the simulated parallel
//!    time (max per-processor ops). This reproduces the *shape* the paper
//!    measures — near-linear scaling throttled only by the `O(log N)`
//!    partition overhead.
//! 2. **Wall clock** (reported honestly): real `std::thread` execution on
//!    the global pool. Each cell is the median of `T(1)` over the median
//!    of `T(p)`, with the spread of `T(1) / T(p)` over the `T(p)` samples.
//!    A thread count above the host's cores is marked oversubscribed: the
//!    pool has only that many threads, so such a row measures extra tiles
//!    on the same cores, not more parallelism. On a multi-core host this
//!    table reproduces the paper directly.
//!
//! Run: `cargo run --release -p mergepath-bench --bin fig5_speedup [--full|--smoke]`

use std::time::Instant;

use mergepath::merge::parallel::parallel_merge_into;
use mergepath_bench::{mega_label, Scale, Table};
use mergepath_pram::kernels::measure_merge;
use mergepath_workloads::{merge_pair, MergeWorkload};

fn main() {
    let scale = Scale::from_args();
    let sizes = scale.fig5_sizes();
    let threads = scale.fig5_threads();
    println!("=== Figure 5: speedup of Merge Path (sizes per input array) ===\n");

    // --- PRAM model ---------------------------------------------------
    println!("--- PRAM-model speedup (CREW simulator, T(1)/T(p)) ---");
    let mut table = Table::from_headers(
        std::iter::once("threads".to_string())
            .chain(sizes.iter().map(|&n| mega_label(n)))
            .collect(),
    );
    // The PRAM cost model is exactly size-linear, so simulate at a capped
    // size and note the cap; the model's speedups depend on (n, p) only
    // through n/p vs log n, which the cap preserves to within noise.
    let pram_cap: usize = match scale {
        Scale::Full => 16 << 20,
        Scale::Default => 4 << 20,
        Scale::Smoke => 1 << 16,
    };
    let mut model: Vec<Vec<f64>> = vec![vec![0.0; sizes.len()]; threads.len()];
    for (si, &n) in sizes.iter().enumerate() {
        let sim_n = n.min(pram_cap);
        let (a32, b32) = merge_pair(MergeWorkload::Uniform, sim_n, 0xF16_5EED);
        let a: Vec<u64> = a32.iter().map(|&x| x as u64).collect();
        let b: Vec<u64> = b32.iter().map(|&x| x as u64).collect();
        let (r1, _) = measure_merge(&a, &b, 1, false).expect("conflict-free");
        for (ti, &p) in threads.iter().enumerate() {
            let (rp, _) = measure_merge(&a, &b, p, false).expect("conflict-free");
            model[ti][si] = r1.time as f64 / rp.time as f64;
        }
        eprintln!(
            "  [pram] size {} simulated at {} (T1 = {} ops)",
            mega_label(n),
            mega_label(sim_n),
            r1.time
        );
    }
    for (ti, &p) in threads.iter().enumerate() {
        let mut row = vec![p.to_string()];
        row.extend(model[ti].iter().map(|s| format!("{s:.2}")));
        table.row(&row);
    }
    println!("{}", table.render());
    table.save_csv("fig5_pram_speedup");

    // --- PRAM + finite shared-memory bandwidth --------------------------
    // The ideal PRAM scales perfectly; the paper's machine does not quite
    // (≈ 11.7x at 12 threads, and less for the largest arrays). That bend
    // is memory-bandwidth saturation. One bandwidth parameter is
    // calibrated to the paper's headline number: the kernel issues 4 memory
    // accesses per merged element out of 5 total ops, so a speedup cap of
    // 11.7 needs an aggregate bandwidth of 4/5*11.7 = 9.36 accesses/unit
    // once the footprint exceeds the two 12 MiB L3s (9.55 when cache-
    // resident). Everything else is then prediction, not fit.
    println!("--- PRAM-model speedup with finite shared-memory bandwidth ---");
    let mut btable = Table::from_headers(
        std::iter::once("threads".to_string())
            .chain(sizes.iter().map(|&n| mega_label(n)))
            .collect(),
    );
    let llc_bytes = 2 * 12 * 1024 * 1024usize; // two X5670 L3 caches
    let mut bmodel: Vec<Vec<f64>> = vec![vec![0.0; sizes.len()]; threads.len()];
    for (si, &n) in sizes.iter().enumerate() {
        let sim_n = n.min(pram_cap);
        // Bandwidth is a property of the modelled size, not the capped
        // simulation size (the paper's footprint formula: 4·|A|·|type|).
        let footprint = 4 * n * 4;
        let bw = if footprint <= llc_bytes { 9.55 } else { 9.36 };
        let (a32, b32) = merge_pair(MergeWorkload::Uniform, sim_n, 0xF16_5EED);
        let a: Vec<u64> = a32.iter().map(|&x| x as u64).collect();
        let b: Vec<u64> = b32.iter().map(|&x| x as u64).collect();
        let (r1, _) =
            mergepath_pram::kernels::measure_merge_bw(&a, &b, 1, false, Some(bw)).unwrap();
        for (ti, &p) in threads.iter().enumerate() {
            let (rp, _) =
                mergepath_pram::kernels::measure_merge_bw(&a, &b, p, false, Some(bw)).unwrap();
            bmodel[ti][si] = r1.time as f64 / rp.time as f64;
        }
    }
    for (ti, &p) in threads.iter().enumerate() {
        let mut row = vec![p.to_string()];
        row.extend(bmodel[ti].iter().map(|s| format!("{s:.2}")));
        btable.row(&row);
    }
    println!("{}", btable.render());
    btable.save_csv("fig5_pram_bw_speedup");

    // The paper's T2 headline: ≈ 11.7× at 12 threads on the larger inputs.
    if let Some(ti) = threads.iter().position(|&p| p == 12) {
        let ideal = model[ti].last().copied().unwrap_or(0.0);
        let bw = bmodel[ti].last().copied().unwrap_or(0.0);
        println!(
            "T2 check @ 12 threads, largest size: ideal PRAM {ideal:.2}x, \
             bandwidth-limited {bw:.2}x (paper: ~11.7x)\n"
        );
    }

    // --- Wall clock -----------------------------------------------------
    println!("--- Wall-clock speedup (global pool; honest on this host) ---");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "    (host has {cores} core(s) visible; pool has {} thread(s))",
        mergepath::executor::default_threads()
    );
    let wall_sizes: Vec<usize> = sizes
        .iter()
        .copied()
        .filter(|&n| {
            n <= if matches!(scale, Scale::Full) {
                256 << 20
            } else {
                16 << 20
            }
        })
        .collect();
    let mut wtable = Table::from_headers(
        ["threads", "oversubscribed"]
            .into_iter()
            .map(String::from)
            .chain(
                wall_sizes
                    .iter()
                    .flat_map(|&n| [mega_label(n), format!("{} spread", mega_label(n))]),
            )
            .collect(),
    );
    // Enough samples per cell for a spread, even at smoke scale.
    let reps = scale.reps().max(5);
    let mut wall: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); threads.len()];
    for &n in &wall_sizes {
        let (a, b) = merge_pair(MergeWorkload::Uniform, n, 0xF16_5EED);
        let mut out = vec![0u32; 2 * n];
        let t1 = median(&samples(reps, || parallel_merge_into(&a, &b, &mut out, 1)));
        for (ti, &p) in threads.iter().enumerate() {
            let tp = samples(reps, || parallel_merge_into(&a, &b, &mut out, p));
            let speedups: Vec<f64> = tp.iter().map(|t| t1 / t).collect();
            let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = speedups.iter().copied().fold(0.0, f64::max);
            wall[ti].push((t1 / median(&tp), lo, hi));
        }
        eprintln!("  [wall] size {} T1 = {t1:.4}s (median)", mega_label(n));
    }
    for (ti, &p) in threads.iter().enumerate() {
        let mut row = vec![
            p.to_string(),
            if p > cores { "yes" } else { "no" }.to_string(),
        ];
        for &(mid, lo, hi) in &wall[ti] {
            row.push(format!("{mid:.2}"));
            row.push(format!("{lo:.2}-{hi:.2}"));
        }
        wtable.row(&row);
    }
    println!("{}", wtable.render());
    wtable.save_csv("fig5_wallclock_speedup");

    println!(
        "Paper comparison: Figure 5 shows near-linear speedup (~11.7x @ 12 threads),\n\
         slightly lower for the biggest arrays. The PRAM-model column reproduces that\n\
         shape; wall-clock reproduces it only when real cores are available."
    );
}

/// `reps` wall-clock timings of `f` in seconds, after one warm-up run.
fn samples(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// The median of `v` (the mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
