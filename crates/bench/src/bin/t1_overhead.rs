//! **Table T1** — the §VI remark: "the single-thread execution time of our
//! algorithm was some 6% longer than a truly sequential merge. This is
//! due in part to a few extra instructions, and possibly also to overhead
//! of OpenMP."
//!
//! Measured here as: Merge Path with 1 thread (including its partition
//! search and fork-join scaffolding, on the global pool and on a private
//! one-thread pool) versus an independently implemented textbook
//! sequential merge.
//!
//! Run: `cargo run --release -p mergepath-bench --bin t1_overhead [--full|--smoke]`

use mergepath::executor::Pool;
use mergepath::merge::parallel::parallel_merge_into;
use mergepath_baselines::sequential::textbook_merge_into;
use mergepath_bench::{mega_label, time_best, Scale, Table};
use mergepath_workloads::{merge_pair, MergeWorkload};

fn main() {
    let scale = Scale::from_args();
    let sizes: Vec<usize> = match scale {
        Scale::Full => vec![1 << 20, 4 << 20, 16 << 20],
        Scale::Default => vec![1 << 20, 4 << 20, 16 << 20],
        Scale::Smoke => vec![1 << 16],
    };
    let reps = scale.reps().max(3);
    println!("=== T1: single-thread Merge Path vs truly sequential merge ===\n");
    let mut t = Table::new(&[
        "size",
        "seq (s)",
        "mergepath p=1 (s)",
        "overhead",
        "pooled p=1 (s)",
        "overhead",
    ]);
    let pool = Pool::new(1);
    for &n in &sizes {
        let (a, b) = merge_pair(MergeWorkload::Uniform, n, 0x71);
        let mut out = vec![0u32; 2 * n];
        let t_seq = time_best(reps, || textbook_merge_into(&a, &b, &mut out));
        let t_mp = time_best(reps, || parallel_merge_into(&a, &b, &mut out, 1));
        let t_pool = time_best(reps, || pool.merge_into(&a, &b, &mut out));
        t.row(&[
            mega_label(n),
            format!("{t_seq:.4}"),
            format!("{t_mp:.4}"),
            format!("{:+.1}%", (t_mp / t_seq - 1.0) * 100.0),
            format!("{t_pool:.4}"),
            format!("{:+.1}%", (t_pool / t_seq - 1.0) * 100.0),
        ]);
    }
    println!("{}", t.render());
    t.save_csv("t1_overhead");
    println!(
        "Paper: ~6% single-thread overhead attributed to a few extra instructions\n\
         and the OpenMP runtime. Expect low single digits here; the partition\n\
         search at p = 1 is degenerate (its diagonals are 0 and N), so overhead\n\
         comes only from dispatch scaffolding."
    );
}
