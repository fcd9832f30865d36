//! **Table T1** — the §VI remark: "the single-thread execution time of our
//! algorithm was some 6% longer than a truly sequential merge. This is
//! due in part to a few extra instructions, and possibly also to overhead
//! of OpenMP."
//!
//! Measured here as: Merge Path with 1 thread (`parallel_merge_into` at
//! p = 1, including its scaffolding) versus the same segment kernels run
//! directly on the same tile cuts, with the cuts and the kernel choices
//! made before the clock starts. The difference is the scaffolding alone:
//! the diagonal searches, the run-structure probes and the dispatch. An
//! independently implemented textbook sequential merge is timed too; the
//! gap to it is mostly kernel choice, not overhead.
//!
//! Run: `cargo run --release -p mergepath-bench --bin t1_overhead [--full|--smoke]`

use mergepath::merge::adaptive::probe_segment;
use mergepath::merge::parallel::parallel_merge_into;
use mergepath::merge::sequential::natural_cmp;
use mergepath::partition::{partition_segments, tile_count};
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
    println!("=== T1: single-thread Merge Path vs its own kernels and a sequential merge ===\n");
    let mut t = Table::new(&[
        "size",
        "seq (s)",
        "kernels direct (s)",
        "mergepath p=1 (s)",
        "overhead",
        "vs seq",
    ]);
    for &n in &sizes {
        let (a, b) = merge_pair(MergeWorkload::Uniform, n, 0x71);
        let mut out = vec![0u32; 2 * n];
        // The tiles `parallel_merge_into` cuts at p = 1, and the kernel the
        // probe picks for each, decided once, off the clock.
        let cmp = natural_cmp::<u32>;
        let tiles: Vec<_> = partition_segments(&a, &b, tile_count(2 * n, 1))
            .into_iter()
            .map(|s| {
                let (sa, sb) = (&a[s.a_start..s.a_end], &b[s.b_start..s.b_end]);
                (sa, sb, s.out_start..s.out_end, probe_segment(sa, sb, &cmp))
            })
            .collect();
        let t_seq = time_best(reps, || textbook_merge_into(&a, &b, &mut out));
        let t_direct = time_best(reps, || {
            for (sa, sb, range, kernel) in &tiles {
                kernel.merge_into_by(sa, sb, &mut out[range.clone()], &cmp);
            }
        });
        let t_mp = time_best(reps, || parallel_merge_into(&a, &b, &mut out, 1));
        t.row(&[
            mega_label(n),
            format!("{t_seq:.4}"),
            format!("{t_direct:.4}"),
            format!("{t_mp:.4}"),
            format!("{:+.1}%", (t_mp / t_direct - 1.0) * 100.0),
            format!("{:+.1}%", (t_mp / t_seq - 1.0) * 100.0),
        ]);
    }
    println!("{}", t.render());
    t.save_csv("t1_overhead");
    println!(
        "Paper: ~6% single-thread overhead attributed to a few extra instructions\n\
         and the OpenMP runtime. `overhead` compares the one-thread merge with its\n\
         own kernels run directly on its own tile cuts, so it holds only the\n\
         diagonal searches, the probes and the dispatch. `vs seq` compares it with\n\
         the two-pointer baseline and is mostly kernel choice (branch-lean on\n\
         uniform keys, eight keys per step on a CPU with AVX2)."
    );
}
