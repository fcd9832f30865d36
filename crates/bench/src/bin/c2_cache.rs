//! **C2** — the §IV cache claims, measured on the cache simulator.
//!
//! 1. Miss rates of basic Algorithm 1 vs segmented Algorithm 2 (windowed
//!    and cyclic staging) as the cache shrinks relative to the data.
//! 2. The `L = C/3` sizing: sweep the fraction and watch the working set
//!    overflow once inputs + output no longer co-reside.
//! 3. The associativity remark: with the three streams aligned to the same
//!    sets, 1- and 2-way caches thrash while 3-way (and up) streams
//!    cleanly — "3-way associativity suffices".
//!
//! Run: `cargo run --release -p mergepath-bench --bin c2_cache [--smoke]`

use mergepath::merge::segmented::SpmConfig;
use mergepath_bench::{mega_label, Scale, Table};
use mergepath_cache_sim::cache::CacheConfig;
use mergepath_cache_sim::scenarios::{
    parallel_merge_shared, parallel_merge_shared_prefetch, sequential_merge, spm_cyclic_shared,
    spm_cyclic_shared_opts, spm_windowed_shared,
};
use mergepath_cache_sim::MemoryLayout;
use mergepath_workloads::{merge_pair, MergeWorkload};

fn main() {
    let scale = Scale::from_args();
    let n: usize = match scale {
        Scale::Smoke => 1 << 13,
        _ => 1 << 17, // 128 Ki elements per array (trace-replay bound)
    };
    let p = 4usize;
    let (a, b) = merge_pair(MergeWorkload::Uniform, n, 0xCA);
    let elem = 4u64;

    // --- C2a: basic vs segmented across cache sizes --------------------
    println!(
        "=== C2a: miss rate, Algorithm 1 vs Algorithm 2, p = {p}, |A|=|B|={} ===\n",
        mega_label(n)
    );
    let mut t = Table::new(&["cache", "basic par. merge", "SPM windowed", "SPM cyclic"]);
    for cap_kib in [16usize, 64, 256, 1024] {
        let cfg = CacheConfig::new(cap_kib * 1024, 8);
        let cache_elems = cfg.capacity_elems(elem as usize);
        let spm = SpmConfig::new(cache_elems, p);
        let layout = MemoryLayout::natural(elem, n as u64, n as u64, spm.segment_len() as u64);
        let basic = parallel_merge_shared(&a, &b, p, layout, cfg);
        let win = spm_windowed_shared(&a, &b, &spm, layout, cfg);
        let cyc = spm_cyclic_shared(&a, &b, &spm, layout, cfg);
        t.row(&[
            format!("{cap_kib} KiB"),
            format!("{:.4}", basic.miss_rate()),
            format!("{:.4}", win.miss_rate()),
            format!("{:.4}", cyc.miss_rate()),
        ]);
    }
    println!("{}", t.render());
    t.save_csv("c2_basic_vs_spm");
    println!(
        "With a natural layout and LRU, streaming merges miss only on compulsory\n\
         line fills, so all variants sit near the floor — the paper's observation\n\
         that on big x86 cores prefetching hides the difference (they benched the\n\
         basic version for exactly this reason, §VI). The segmented algorithm's\n\
         value shows under adversarial alignment (C2c) and tiny caches.\n"
    );

    // --- C2b: the L = C/3 rule ------------------------------------------
    println!("=== C2b: segment sizing — fraction of cache given to L ===\n");
    let cfg = CacheConfig::new(64 * 1024, 8);
    let cache_elems = cfg.capacity_elems(elem as usize);
    let mut t2 = Table::new(&[
        "L as C/k",
        "L elems",
        "working set / C",
        "misses (cyclic)",
        "accesses",
        "miss rate",
    ]);
    for divisor in [1usize, 2, 3, 4, 6] {
        let l = (cache_elems / divisor).max(p);
        let spm = SpmConfig::new(3 * l, p); // segment_len() == l
        let layout = MemoryLayout::natural(elem, n as u64, n as u64, l as u64);
        let stats = spm_cyclic_shared(&a, &b, &spm, layout, cfg);
        t2.row(&[
            format!("C/{divisor}"),
            l.to_string(),
            format!("{:.2}", 3.0 * l as f64 / cache_elems as f64),
            stats.misses.to_string(),
            stats.accesses().to_string(),
            format!("{:.4}", stats.miss_rate()),
        ]);
    }
    println!("{}", t2.render());
    t2.save_csv("c2_l_sizing");
    println!(
        "The paper's argument: the working set is 3L (A-stage, B-stage, output\n\
         block), so L = C/3 is the largest L whose working set fits, and smaller L\n\
         pays more accesses (one partition search per L-sized block).\n"
    );

    // --- C2c: associativity ("3-way suffices") ---------------------------
    println!("=== C2c: associativity under set-aligned adversarial layout ===\n");
    let n_small = n.min(1 << 15);
    let (aa, ab) = merge_pair(MergeWorkload::Uniform, n_small, 0xCB);
    let mut t3 = Table::new(&["ways", "miss rate (seq merge)", "miss rate (par merge p=4)"]);
    for ways in [1usize, 2, 3, 4, 8] {
        // Constant 8 KiB way; capacity grows with associativity so each
        // added way can host one more aligned stream.
        let way_bytes = 8 * 1024u64;
        let cfg = CacheConfig {
            capacity_bytes: ways * way_bytes as usize,
            line_bytes: 64,
            associativity: ways,
        };
        let layout = MemoryLayout::set_aligned(elem, way_bytes, 0);
        let seq = sequential_merge(&aa, &ab, layout, cfg);
        let par = parallel_merge_shared(&aa, &ab, p, layout, cfg);
        t3.row(&[
            ways.to_string(),
            format!("{:.4}", seq.miss_rate()),
            format!("{:.4}", par.miss_rate()),
        ]);
    }
    println!("{}", t3.render());
    t3.save_csv("c2_associativity");
    println!(
        "Paper remark (§IV.B): \"3-way associativity suffices to guarantee collision\n\
         freedom.\" With A, B and Out aligned to the same sets, 1–2 ways thrash\n\
         (every access evicts a stream the next access needs); at 3+ ways each\n\
         stream owns a way and only compulsory misses remain.\n"
    );

    // --- C2d: hardware prefetching (why the paper benched the basic
    // algorithm on x86) --------------------------------------------------
    println!("=== C2d: next-line prefetching on the basic parallel merge ===\n");
    let cfg = CacheConfig::new(64 * 1024, 8);
    let layout = MemoryLayout::natural(elem, n as u64, n as u64, 0);
    let mut t4 = Table::new(&[
        "prefetch degree",
        "demand misses",
        "miss rate",
        "prefetch fills",
    ]);
    for degree in [0usize, 1, 2, 4, 8] {
        let stats = parallel_merge_shared_prefetch(&a, &b, p, layout, cfg, degree);
        t4.row(&[
            degree.to_string(),
            stats.misses.to_string(),
            format!("{:.5}", stats.miss_rate()),
            stats.prefetch_fills.to_string(),
        ]);
    }
    println!("{}", t4.render());
    t4.save_csv("c2_prefetch");
    println!(
        "§VI: \"In view of the sophisticated cache management and prefetching of\n\
         this system, we left this issue to the hardware and implemented the basic\n\
         version of our algorithm rather than the segmented one.\" A modest\n\
         next-line prefetcher removes nearly all of the basic algorithm's demand\n\
         misses — the quantitative backing for that engineering decision.\n"
    );

    // --- C2e: do non-temporal output stores shift the optimal L? ---------
    println!("=== C2e: segment sizing with non-temporal output stores ===\n");
    let cfg = CacheConfig::new(64 * 1024, 8);
    let cache_elems = cfg.capacity_elems(elem as usize);
    let mut t5 = Table::new(&[
        "L as C/k",
        "3L/C (normal)",
        "2L/C (NT)",
        "misses (normal)",
        "misses (NT stores)",
    ]);
    for divisor in [1usize, 2, 3, 4] {
        let l = (cache_elems / divisor).max(p);
        let spm = SpmConfig::new(3 * l, p);
        let layout = MemoryLayout::natural(elem, n as u64, n as u64, l as u64);
        let normal = spm_cyclic_shared_opts(&a, &b, &spm, layout, cfg, false);
        let nt = spm_cyclic_shared_opts(&a, &b, &spm, layout, cfg, true);
        t5.row(&[
            format!("C/{divisor}"),
            format!("{:.2}", 3.0 * l as f64 / cache_elems as f64),
            format!("{:.2}", 2.0 * l as f64 / cache_elems as f64),
            normal.misses.to_string(),
            nt.misses.to_string(),
        ]);
    }
    println!("{}", t5.render());
    t5.save_csv("c2_nt_stores");
    println!(
        "With the output streamed past the cache (movnt-style), only the two\n\
         staging buffers must co-reside: the working set is 2L, so L = C/2 should\n\
         fit where the normal policy needs L = C/3."
    );
}
