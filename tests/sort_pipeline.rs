//! Integration: the parallel, cache-aware and bitonic sorts across all
//! workload families, stability with tagged records, and agreement between
//! the wall-clock and PRAM implementations of the §III sort.

use mergepath_suite::baselines::bitonic::{bitonic_sort, parallel_bitonic_sort};
use mergepath_suite::mergepath::sort::cache_aware::cache_aware_parallel_sort_by;
use mergepath_suite::mergepath::sort::parallel::{parallel_merge_sort, parallel_merge_sort_by};
use mergepath_suite::mergepath::telemetry::NoRecorder;
use mergepath_suite::pram::kernels::{load_array, parallel_merge_sort as pram_sort};
use mergepath_suite::pram::PramMachine;
use mergepath_suite::workloads::{unsorted_keys, SortWorkload};

#[test]
fn every_sort_on_every_workload() {
    for wl in SortWorkload::ALL {
        let base = unsorted_keys(wl, 20_000, 0x50F7);
        let mut expect = base.clone();
        expect.sort();

        for threads in [2usize, 5] {
            let mut v = base.clone();
            parallel_merge_sort(&mut v, threads);
            assert_eq!(v, expect, "parallel p={threads} on {}", wl.name());

            let mut v = base.clone();
            cache_aware_parallel_sort_by(&mut v, threads, 1024, &|a, b| a.cmp(b), &NoRecorder);
            assert_eq!(v, expect, "cache-aware p={threads} on {}", wl.name());
        }

        let mut v = base.clone();
        bitonic_sort(&mut v);
        assert_eq!(v, expect, "bitonic on {}", wl.name());

        let mut v = base.clone();
        parallel_bitonic_sort(&mut v, 4);
        assert_eq!(v, expect, "parallel bitonic on {}", wl.name());
    }
}

#[test]
fn stability_with_tagged_records_end_to_end() {
    // Records with only 8 distinct keys: stability is observable.
    let records: Vec<(u8, u32)> = (0..50_000u32).map(|i| ((i % 8) as u8, i)).collect();
    let mut shuffled = records.clone();
    // Deterministic shuffle.
    for i in (1..shuffled.len()).rev() {
        let j = ((i as u64).wrapping_mul(6364136223846793005) >> 33) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    let mut expect = shuffled.clone();
    expect.sort_by_key(|&(k, _)| k); // std stable sort oracle

    let cmp = |a: &(u8, u32), b: &(u8, u32)| a.0.cmp(&b.0);
    let mut v = shuffled.clone();
    parallel_merge_sort_by(&mut v, 6, &cmp, &NoRecorder);
    assert_eq!(v, expect);

    let mut v = shuffled.clone();
    cache_aware_parallel_sort_by(&mut v, 3, 512, &cmp, &NoRecorder);
    assert_eq!(v, expect);
}

#[test]
fn pram_sort_agrees_with_host_sort() {
    let base = unsorted_keys(SortWorkload::Uniform, 5000, 0xAAA);
    let mut host = base.clone();
    parallel_merge_sort(&mut host, 8);

    let data: Vec<u64> = base.iter().map(|&x| x as u64).collect();
    let mut machine = PramMachine::new(); // full CREW checking
    let h = load_array(&mut machine, &data);
    pram_sort(&mut machine, h, 8).expect("race-free");
    let pram_out: Vec<u32> = machine
        .read_slice(h.base, h.len)
        .into_iter()
        .map(|x| x as u32)
        .collect();
    assert_eq!(pram_out, host);
}

#[test]
fn large_single_shot_sort() {
    // One big everything-path test: 1M elements through the cache-aware
    // sort, whose merge rounds run the segmented merge's windows.
    let base = unsorted_keys(SortWorkload::Uniform, 1 << 20, 0xB16);
    let mut expect = base.clone();
    expect.sort();
    let mut v = base;
    cache_aware_parallel_sort_by(&mut v, 4, 64 * 1024, &|a, b| a.cmp(b), &NoRecorder);
    assert_eq!(v, expect);
}
