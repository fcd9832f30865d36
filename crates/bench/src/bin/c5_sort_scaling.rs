//! **C5** — scaling of the derived sorts (§III and §IV.C).
//!
//! * PRAM model: the §III parallel merge sort's simulated time vs `p`,
//!   against the paper's `O(N/p·log N + log p·log N)` bound.
//! * Wall clock: the parallel merge sort and cache-aware sort at `p = 4`
//!   against `std`'s stable sort (their phase-1 kernel, and the base of the
//!   relative column), `std`'s unstable sort and bitonic sort. The `p = 4`
//!   rows are labelled oversubscribed when the host has fewer than four
//!   CPUs.
//!
//! Run: `cargo run --release -p mergepath-bench --bin c5_sort_scaling [--smoke]`

use mergepath::sort::cache_aware::cache_aware_parallel_sort;
use mergepath::sort::parallel::parallel_merge_sort;
use mergepath_baselines::bitonic::bitonic_sort;
use mergepath_bench::{mega_label, time_best, Scale, Table};
use mergepath_pram::kernels::{load_array, parallel_merge_sort as pram_sort};
use mergepath_pram::PramMachine;
use mergepath_workloads::{is_sorted, unsorted_keys, SortWorkload};

fn main() {
    let scale = Scale::from_args();

    // --- PRAM scaling -----------------------------------------------------
    let n: usize = match scale {
        Scale::Smoke => 1 << 12,
        _ => 1 << 18,
    };
    println!(
        "=== C5a: §III parallel merge sort, PRAM-model time vs p (N = {}) ===\n",
        mega_label(n)
    );
    let data: Vec<u64> = unsorted_keys(SortWorkload::Uniform, n, 0xC5)
        .into_iter()
        .map(|x| x as u64)
        .collect();
    let mut t = Table::new(&["p", "T(p) ops", "speedup", "supersteps"]);
    let mut t1 = 0u64;
    for p in [1usize, 2, 4, 6, 8, 12] {
        let mut m = PramMachine::new().with_crew_checking(false);
        let h = load_array(&mut m, &data);
        let cost = pram_sort(&mut m, h, p).expect("race-free");
        let sorted = m.read_slice(h.base, h.len);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        if p == 1 {
            t1 = cost.time;
        }
        t.row(&[
            p.to_string(),
            cost.time.to_string(),
            format!("{:.2}", t1 as f64 / cost.time as f64),
            cost.supersteps.to_string(),
        ]);
    }
    println!("{}", t.render());
    t.save_csv("c5_pram_sort");

    // --- Wall-clock single-host comparison ---------------------------------
    let n: usize = match scale {
        Scale::Smoke => 1 << 14,
        Scale::Full => 1 << 22,
        Scale::Default => 1 << 20,
    };
    let reps = scale.reps();
    println!(
        "=== C5b: wall-clock sorts on this host (N = {}) ===\n",
        mega_label(n)
    );
    let base = unsorted_keys(SortWorkload::Uniform, n, 0xC5B);
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let p4 = if cpus < 4 {
        format!("p=4, oversubscribed on {cpus} CPUs")
    } else {
        "p=4".to_string()
    };
    let mut t2 = Table::new(&["algorithm", "seconds", "vs std stable sort"]);
    let mut results: Vec<(String, f64)> = Vec::new();
    {
        let mut v = base.clone();
        let secs = time_best(reps, || {
            v.copy_from_slice(&base);
            v.sort();
        });
        results.push(("std stable sort".into(), secs));
    }
    {
        let mut v = base.clone();
        let secs = time_best(reps, || {
            v.copy_from_slice(&base);
            parallel_merge_sort(&mut v, 4);
        });
        assert!(is_sorted(&v));
        results.push((format!("parallel_merge_sort {p4}"), secs));
    }
    {
        let mut v = base.clone();
        let secs = time_best(reps, || {
            v.copy_from_slice(&base);
            cache_aware_parallel_sort(&mut v, 4, 256 * 1024 / 4);
        });
        assert!(is_sorted(&v));
        results.push((format!("cache_aware_sort {p4} C=256KiB"), secs));
    }
    {
        let mut v = base.clone();
        let secs = time_best(reps, || {
            v.copy_from_slice(&base);
            v.sort_unstable();
        });
        results.push(("std unstable sort".into(), secs));
    }
    if n <= 1 << 20 {
        let mut v = base.clone();
        let secs = time_best(1, || {
            v.copy_from_slice(&base);
            bitonic_sort(&mut v);
        });
        assert!(is_sorted(&v));
        results.push(("bitonic sort [4] (O(N log²N))".into(), secs));
    }
    let base_secs = results[0].1;
    for (name, secs) in &results {
        t2.row(&[
            name.clone(),
            format!("{secs:.4}"),
            format!("{:.2}x", secs / base_secs),
        ]);
    }
    println!("{}", t2.render());
    t2.save_csv("c5_wall_sorts");
    println!(
        "Expected shape: bitonic pays its extra log N factor; the parallel sorts\n\
         sort their chunks with std's stable sort, so with p real cores they\n\
         approach p times its speed less the merge rounds, and on fewer cores\n\
         than p the shares queue — the PRAM table above shows the projection."
    );
}
