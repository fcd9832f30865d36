//! The kernels are generic over `T: Clone`, not `T: Copy` — exercised here
//! with `String` keys and a payload struct, the shapes a database or log
//! pipeline actually merges. Catches any accidental `Copy` assumption and
//! any drop/clone miscounting under the parallel paths.

use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
use mergepath_suite::mergepath::merge::segmented::{
    segmented_parallel_merge_into_by, SpmConfig, Staging,
};
use mergepath_suite::mergepath::merge::sequential::merge_into_by;
use mergepath_suite::mergepath::sort::parallel::parallel_merge_sort_by;
use mergepath_suite::mergepath::telemetry::NoRecorder;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Row {
    key: String,
    payload: Vec<u8>,
}

fn make_rows(n: usize, stride: usize) -> Vec<Row> {
    (0..n)
        .map(|i| Row {
            key: format!("k{:08}", i * stride),
            payload: vec![(i % 251) as u8; 3],
        })
        .collect()
}

fn by_key(a: &Row, b: &Row) -> std::cmp::Ordering {
    a.key.cmp(&b.key)
}

#[test]
fn string_keyed_parallel_merge() {
    let a = make_rows(3000, 2);
    let b = make_rows(2500, 3);
    let mut expect = vec![Row::default(); 5500];
    merge_into_by(&a, &b, &mut expect, &by_key);
    for threads in [1usize, 4, 9] {
        let mut out = vec![Row::default(); 5500];
        parallel_merge_into_by(&a, &b, &mut out, threads, &by_key, &NoRecorder);
        assert_eq!(out, expect, "threads={threads}");
    }
    // Segmented, both stagings (Clone + Default only).
    for staging in [Staging::Windowed, Staging::Cyclic] {
        let cfg = SpmConfig::new(300, 4).with_staging(staging);
        let mut out = vec![Row::default(); 5500];
        segmented_parallel_merge_into_by(&a, &b, &mut out, &cfg, &by_key, &NoRecorder);
        assert_eq!(out, expect, "{staging:?}");
    }
}

#[test]
fn string_keyed_parallel_sort_is_stable() {
    // Duplicate keys with distinguishable payloads: stability observable.
    let mut rows: Vec<Row> = (0..4000usize)
        .map(|i| Row {
            key: format!("key{:02}", (i * 13) % 20),
            payload: i.to_le_bytes().to_vec(),
        })
        .collect();
    let mut expect = rows.clone();
    expect.sort_by(|a, b| a.key.cmp(&b.key)); // std stable sort oracle
    parallel_merge_sort_by(&mut rows, 6, &by_key, &NoRecorder);
    assert_eq!(rows, expect);
}

#[test]
fn selection_on_string_keys() {
    use mergepath_suite::mergepath::select::kth_of_union_by;
    let a = make_rows(100, 5);
    let b = make_rows(100, 7);
    let mut all: Vec<Row> = a.iter().chain(&b).cloned().collect();
    all.sort_by(by_key);
    for k in [0usize, 50, 199] {
        assert_eq!(kth_of_union_by(&a, &b, k, &by_key).key, all[k].key);
    }
}

// ---------------------------------------------------------------------------
// Drop accounting under panicking comparators
// ---------------------------------------------------------------------------
//
// A parallel kernel that clones elements into output and scratch buffers
// must neither leak nor double-drop them — even when the user's comparator
// panics mid-merge on some worker. `CountedDrop` keeps a shared live-count:
// every tracked construction and clone increments, every drop decrements.
// After the kernel (panicked or not) and all its containers are gone, the
// count must read exactly zero — negative means a double-drop (the
// memory-unsafety case), positive a leak.

mod counted_drop {
    use std::cmp::Ordering;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering as AtOrd};
    use std::sync::Arc;

    use mergepath_suite::mergepath::merge::adaptive::SegmentKernel;
    use mergepath_suite::mergepath::merge::batch::batch_merge_into_by;
    use mergepath_suite::mergepath::merge::inplace::parallel_inplace_merge_by;
    use mergepath_suite::mergepath::merge::kway::parallel_kway_merge_by;
    use mergepath_suite::mergepath::merge::parallel::parallel_merge_into_by;
    use mergepath_suite::mergepath::merge::segmented::{
        segmented_parallel_merge_into_by, SpmConfig,
    };
    use mergepath_suite::mergepath::sort::cache_aware::{
        cache_aware_parallel_sort_by, CacheAwareConfig,
    };
    use mergepath_suite::mergepath::sort::kway::kway_merge_sort_by;
    use mergepath_suite::mergepath::sort::parallel::parallel_merge_sort_by;
    use mergepath_suite::mergepath::telemetry::NoRecorder;

    #[derive(Debug)]
    struct CountedDrop {
        key: i32,
        live: Arc<AtomicIsize>,
    }

    impl CountedDrop {
        fn tracked(key: i32, master: &Arc<AtomicIsize>) -> Self {
            master.fetch_add(1, AtOrd::SeqCst);
            CountedDrop {
                key,
                live: master.clone(),
            }
        }
    }

    impl Clone for CountedDrop {
        fn clone(&self) -> Self {
            self.live.fetch_add(1, AtOrd::SeqCst);
            CountedDrop {
                key: self.key,
                live: self.live.clone(),
            }
        }
    }

    impl Drop for CountedDrop {
        fn drop(&mut self) {
            self.live.fetch_sub(1, AtOrd::SeqCst);
        }
    }

    impl Default for CountedDrop {
        fn default() -> Self {
            // Filler elements (output/scratch buffers) account against their
            // own private counter, not the master's.
            CountedDrop {
                key: 0,
                live: Arc::new(AtomicIsize::new(1)),
            }
        }
    }

    fn by_key(a: &CountedDrop, b: &CountedDrop) -> Ordering {
        a.key.cmp(&b.key)
    }

    /// A comparator that panics once `fuse` comparisons have happened
    /// (`u64::MAX` never blows).
    fn fused(fuse: u64) -> impl Fn(&CountedDrop, &CountedDrop) -> Ordering + Sync {
        let count = AtomicU64::new(0);
        move |a: &CountedDrop, b: &CountedDrop| {
            if count.fetch_add(1, AtOrd::SeqCst) >= fuse {
                panic!("comparator fuse blown");
            }
            by_key(a, b)
        }
    }

    fn keys(n: usize, stride: usize, modulus: i32) -> Vec<i32> {
        let mut v: Vec<i32> = (0..n).map(|i| ((i * stride) as i32) % modulus).collect();
        v.sort_unstable();
        v
    }

    const KERNELS: [&str; 9] = [
        "parallel",
        "galloping",
        "segmented",
        "batch",
        "inplace",
        "kway",
        "sort-parallel",
        "sort-kway",
        "sort-cache-aware",
    ];

    /// Builds tracked inputs, runs `kernel`, and drops everything before
    /// returning. Any panic from the comparator unwinds through here (and
    /// through the worker pool), dropping the locals on the way out.
    fn drive<F>(kernel: &str, threads: usize, master: &Arc<AtomicIsize>, cmp: &F)
    where
        F: Fn(&CountedDrop, &CountedDrop) -> Ordering + Sync,
    {
        let track = |ks: &[i32]| -> Vec<CountedDrop> {
            ks.iter()
                .map(|&k| CountedDrop::tracked(k, master))
                .collect()
        };
        let ka = keys(170, 3, 40);
        let kb = keys(230, 7, 40);
        let n = ka.len() + kb.len();
        match kernel {
            "parallel" => {
                let (a, b) = (track(&ka), track(&kb));
                let mut out = vec![CountedDrop::default(); n];
                parallel_merge_into_by(&a, &b, &mut out, threads, cmp, &NoRecorder);
            }
            "galloping" => {
                // The galloping kernel run directly on the whole pair (one
                // segment, so `threads` plays no part): with 4–6 copies of
                // each of 40 keys per side, the other entries' segments are
                // too short or too finely interleaved for the probe to pick
                // it. A fuse can blow inside a run search or between two
                // run copies, which clone into preallocated output.
                let (a, b) = (track(&ka), track(&kb));
                let mut out = vec![CountedDrop::default(); n];
                SegmentKernel::Galloping.merge_into_by(&a, &b, &mut out, cmp);
            }
            "segmented" => {
                let (a, b) = (track(&ka), track(&kb));
                let mut out = vec![CountedDrop::default(); n];
                let spm = SpmConfig::new(91, threads);
                segmented_parallel_merge_into_by(&a, &b, &mut out, &spm, cmp, &NoRecorder);
            }
            "batch" => {
                let (a, b) = (track(&ka), track(&kb));
                let pairs: Vec<(&[CountedDrop], &[CountedDrop])> =
                    vec![(&a[..100], &b[..60]), (&a[100..], &b[60..])];
                let mut out = vec![CountedDrop::default(); n];
                batch_merge_into_by(&pairs, &mut out, threads, cmp, &NoRecorder);
            }
            "inplace" => {
                let mut v = track(&ka);
                v.extend(track(&kb));
                parallel_inplace_merge_by(&mut v, ka.len(), threads, cmp, &NoRecorder);
            }
            "kway" => {
                let (a, b) = (track(&ka), track(&kb));
                let runs: Vec<&[CountedDrop]> = vec![&a[..85], &a[85..], &b[..115], &b[115..]];
                let mut out = vec![CountedDrop::default(); n];
                parallel_kway_merge_by(&runs, &mut out, threads, cmp, &NoRecorder);
            }
            "sort-parallel" | "sort-kway" | "sort-cache-aware" => {
                // An unsorted tracked input: interleave the two key streams.
                let mut unsorted = ka.clone();
                for (i, &k) in kb.iter().enumerate() {
                    unsorted.insert((i * 2 + 1).min(unsorted.len()), k);
                }
                let mut v = track(&unsorted);
                match kernel {
                    "sort-parallel" => parallel_merge_sort_by(&mut v, threads, cmp, &NoRecorder),
                    "sort-kway" => kway_merge_sort_by(&mut v, threads, cmp, &NoRecorder),
                    _ => {
                        let cfg = CacheAwareConfig::new(200, threads);
                        cache_aware_parallel_sort_by(&mut v, &cfg, cmp, &NoRecorder);
                    }
                }
            }
            other => panic!("unknown kernel {other}"),
        }
    }

    #[test]
    fn clean_runs_balance_drops_on_the_real_pool() {
        for kernel in KERNELS {
            for threads in [1usize, 2, 4] {
                let master = Arc::new(AtomicIsize::new(0));
                drive(kernel, threads, &master, &by_key);
                assert_eq!(
                    master.load(AtOrd::SeqCst),
                    0,
                    "{kernel} threads={threads}: live count after clean run"
                );
            }
        }
    }

    #[test]
    fn panicking_comparator_never_double_drops_or_leaks_real_pool() {
        for kernel in KERNELS {
            for fuse in [0u64, 1, 7, 50, 400] {
                let master = Arc::new(AtomicIsize::new(0));
                let cmp = fused(fuse);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    drive(kernel, 4, &master, &cmp);
                }));
                let live = master.load(AtOrd::SeqCst);
                assert!(
                    live >= 0,
                    "{kernel} fuse={fuse}: DOUBLE-DROP ({live} live, panicked={})",
                    result.is_err()
                );
                assert_eq!(
                    live,
                    0,
                    "{kernel} fuse={fuse}: LEAK ({live} live, panicked={})",
                    result.is_err()
                );
            }
        }
    }

    #[test]
    fn panicking_comparator_balances_under_permuted_virtual_schedules() {
        // The same fuses, but under the deterministic virtual executor so
        // the panic lands at a reproducible point in a permuted schedule.
        // The finite fuses all blow before a 400-element merge finishes;
        // `u64::MAX` never blows, so every kernel also runs to its end
        // under a permuted schedule, where a clone leaked after the last
        // run or share would show.
        for kernel in KERNELS {
            for (i, fuse) in [0u64, 3, 29, 222, u64::MAX].into_iter().enumerate() {
                let master = Arc::new(AtomicIsize::new(0));
                let cmp = fused(fuse);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    mergepath_check::record(0xD20 + i as u64, || {
                        drive(kernel, 4, &master, &cmp);
                    })
                }));
                let live = master.load(AtOrd::SeqCst);
                assert_eq!(
                    live,
                    0,
                    "{kernel} fuse={fuse}: unbalanced drops ({live} live, panicked={})",
                    result.is_err()
                );
                assert_eq!(
                    result.is_err(),
                    fuse != u64::MAX,
                    "{kernel} fuse={fuse}: a finite fuse blows, the endless one never"
                );
            }
        }
    }

    #[test]
    fn surviving_runs_still_merge_correctly() {
        // A fuse large enough to never blow must leave behavior unchanged.
        let master = Arc::new(AtomicIsize::new(0));
        {
            let a: Vec<CountedDrop> = keys(100, 3, 30)
                .into_iter()
                .map(|k| CountedDrop::tracked(k, &master))
                .collect();
            let b: Vec<CountedDrop> = keys(100, 7, 30)
                .into_iter()
                .map(|k| CountedDrop::tracked(k, &master))
                .collect();
            let mut out = vec![CountedDrop::default(); 200];
            let cmp = fused(u64::MAX);
            parallel_merge_into_by(&a, &b, &mut out, 4, &cmp, &NoRecorder);
            assert!(out.windows(2).all(|w| w[0].key <= w[1].key));
        }
        assert_eq!(master.load(AtOrd::SeqCst), 0);
    }
}
