//! **Figure 4** — the cache-efficient parallel sort's first stage: the
//! input is cut into cache-sized blocks, each block is sorted with the
//! full-`p` parallel sort, then merge rounds combine blocks pairwise.
//!
//! This binary narrates the real stages for a concrete instance: block
//! boundaries, per-block sortedness after stage 1, and the merge tree of
//! stage 2 (each level executed with the segmented parallel merge).
//!
//! Run: `cargo run -p mergepath-bench --bin fig4_sort_stages`

use mergepath::sort::cache_aware::{block_len, cache_aware_parallel_sort_by};
use mergepath::sort::parallel::parallel_merge_sort;
use mergepath::telemetry::NoRecorder;
use mergepath_bench::Table;
use mergepath_workloads::{is_sorted, unsorted_keys, SortWorkload};

fn main() {
    let n = 256usize;
    let cache = 64usize; // elements
    let threads = 4usize;
    let data = unsorted_keys(SortWorkload::Uniform, n, 99);

    println!("=== Figure 4: cache-efficient parallel sort stages ===");
    println!("N = {n}, cache C = {cache} elements, p = {threads}\n");

    // Stage 1 (replicated manually so it can be narrated).
    let block = block_len(threads, cache);
    println!(
        "Stage 1: sort ⌈N/B⌉ = {} blocks of B = C/2 = {block} elements,",
        n.div_ceil(block)
    );
    println!("         one after the other, each with the full-p parallel sort:\n");
    let mut staged = data.clone();
    let mut t = Table::new(&["block", "range", "sorted after stage 1"]);
    let mut start = 0;
    while start < n {
        let end = (start + block).min(n);
        parallel_merge_sort(&mut staged[start..end], threads);
        t.row(&[
            (start / block).to_string(),
            format!("[{start}..{end})"),
            is_sorted(&staged[start..end]).to_string(),
        ]);
        start = end;
    }
    println!("{}", t.render());

    // Stage 2: the merge tree (sizes double per level).
    println!("Stage 2: merge rounds (every pair via segmented parallel merge):");
    let mut level_size = block;
    let mut level = 0;
    while level_size < n {
        let merges = n.div_ceil(level_size * 2);
        println!(
            "  level {level}: {merges} merge(s) of {level_size}-element runs → {}-element runs",
            (level_size * 2).min(n)
        );
        level_size *= 2;
        level += 1;
    }

    // End-to-end check through the public API.
    let mut v = data;
    cache_aware_parallel_sort_by(&mut v, threads, cache, &|a, b| a.cmp(b), &NoRecorder);
    assert!(is_sorted(&v), "cache-aware sort must sort");
    println!("\nEnd-to-end cache-aware sort: sorted = {}", is_sorted(&v));
    println!(
        "\nComplexity (paper §IV.C): O(N/p·log N + N/C·log p·log C) — the extra\n\
         N/C·log p·log C term buys a working set that never exceeds the cache."
    );
}
