//! Quickstart: the three things you come to this library for.
//!
//! 1. Merge two sorted arrays in parallel (Algorithm 1).
//! 2. Merge with a bounded cache working set (Algorithm 2).
//! 3. Sort in parallel (§III) — all stable, all bitwise identical to the
//!    sequential merge/sort.
//!
//! Run: `cargo run --example quickstart`

use mergepath_suite::mergepath::prelude::*;

fn main() {
    // --- 1. Parallel merge ------------------------------------------------
    let a: Vec<u64> = (0..1_000_000).map(|x| x * 2).collect();
    let b: Vec<u64> = (0..1_000_000).map(|x| x * 2 + 1).collect();
    let mut merged = vec![0u64; a.len() + b.len()];
    parallel_merge_into(&a, &b, &mut merged, 8);
    assert!(merged.windows(2).all(|w| w[0] <= w[1]));
    println!("merged {} + {} elements with 8 threads", a.len(), b.len());

    // How the work was split: equisized, independent segments.
    for (k, seg) in partition_segments(&a, &b, 4).iter().enumerate() {
        println!(
            "  segment {k}: A[{}..{}] + B[{}..{}] -> out[{}..{}] ({} elements)",
            seg.a_start,
            seg.a_end,
            seg.b_start,
            seg.b_end,
            seg.out_start,
            seg.out_end,
            seg.len(),
        );
    }

    // --- 2. Cache-bounded (segmented) merge --------------------------------
    // Keep the merge's working set within ~a 256 KiB cache of u64s: the
    // paper's Algorithm 2 merges the path one cache-sized window at a time.
    let cfg = SpmConfig::new(256 * 1024 / 8, 8);
    let mut merged2 = vec![0u64; merged.len()];
    segmented_parallel_merge_into(&a, &b, &mut merged2, &cfg);
    assert_eq!(merged, merged2, "same output, different memory schedule");
    println!(
        "segmented merge: identical output with a {}-element working set",
        cfg.segment_len() * 3
    );

    // --- 3. Parallel merge sort --------------------------------------------
    let mut data: Vec<u64> = (0..2_000_000u64)
        .map(|x| x.wrapping_mul(0x9E3779B9) % 1_000_000)
        .collect();
    parallel_merge_sort(&mut data, 8);
    assert!(data.windows(2).all(|w| w[0] <= w[1]));
    println!("sorted {} elements with 8 threads", data.len());

    // The diagonal search itself, if you just need a split point: where do
    // the first 1000 merged elements come from?
    let i = co_rank(1000, &a[..], &b[..]);
    println!("first 1000 outputs = {} from A + {} from B", i, 1000 - i);
}
