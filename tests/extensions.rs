//! Integration tests for the extension modules: every merge-flavoured API
//! in the workspace agrees on every workload, and the extension structures
//! (selection, lazy iteration, in-place/batch merges, the
//! adaptive sort, multiselection) cross-validate.

use mergepath_suite::baselines::multiselect::multiselect_merge_into;
use mergepath_suite::mergepath::iter::{merge_iter, merged_range};
use mergepath_suite::mergepath::merge::batch::batch_merge_into;
use mergepath_suite::mergepath::merge::inplace::{inplace_merge, parallel_inplace_merge};
use mergepath_suite::mergepath::merge::sequential::merge_into;
use mergepath_suite::mergepath::select::kth_of_union;
use mergepath_suite::mergepath::sort::natural::natural_merge_sort;
use mergepath_suite::workloads::{merge_pair, unsorted_keys, MergeWorkload, SortWorkload};

fn reference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = vec![0; a.len() + b.len()];
    merge_into(a, b, &mut out);
    out
}

#[test]
fn every_merge_flavour_agrees_on_every_workload() {
    for wl in MergeWorkload::ALL {
        let (a, b) = merge_pair(wl, 3000, 0xE87);
        let expect = reference(&a, &b);

        // In-place (sequential and parallel).
        let mut joined: Vec<u32> = a.iter().chain(&b).copied().collect();
        inplace_merge(&mut joined, a.len());
        assert_eq!(joined, expect, "inplace on {}", wl.name());
        let mut joined: Vec<u32> = a.iter().chain(&b).copied().collect();
        parallel_inplace_merge(&mut joined, a.len(), 4);
        assert_eq!(joined, expect, "parallel inplace on {}", wl.name());

        // Lazy iterator, forward and backward.
        let fwd: Vec<u32> = merge_iter(&a, &b).copied().collect();
        assert_eq!(fwd, expect, "iter on {}", wl.name());
        let mut bwd: Vec<u32> = merge_iter(&a, &b).rev().copied().collect();
        bwd.reverse();
        assert_eq!(bwd, expect, "rev iter on {}", wl.name());

        // Multiselection baseline.
        let mut out = vec![0u32; expect.len()];
        multiselect_merge_into(&a, &b, &mut out, 6);
        assert_eq!(out, expect, "multiselect on {}", wl.name());

        // Batch (the pair plus a couple of decoys).
        let decoy: Vec<u32> = (0..17).collect();
        let pairs: Vec<(&[u32], &[u32])> = vec![(&a, &b), (&decoy, &[]), (&[], &decoy)];
        let mut out = vec![0u32; expect.len() + 34];
        batch_merge_into(&pairs, &mut out, 5);
        assert_eq!(&out[..expect.len()], &expect[..], "batch on {}", wl.name());
    }
}

#[test]
fn selection_and_paging_agree_with_materialized_merge() {
    for wl in [
        MergeWorkload::Uniform,
        MergeWorkload::DuplicateHeavy,
        MergeWorkload::Zipfian,
    ] {
        let (a, b) = merge_pair(wl, 5000, 0x5E1);
        let merged = reference(&a, &b);
        for frac in [0usize, 1, 3, 7, 9] {
            let k = merged.len() * frac / 10;
            let k = k.min(merged.len() - 1);
            assert_eq!(
                *kth_of_union(&a, &b, k),
                merged[k],
                "selection {} k={k}",
                wl.name()
            );
        }
        let window: Vec<u32> = merged_range(&a, &b, 4000..4100).copied().collect();
        assert_eq!(&window[..], &merged[4000..4100], "paging {}", wl.name());
    }
}

#[test]
fn extension_sorts_agree_with_std_on_all_workloads() {
    for wl in SortWorkload::ALL {
        let base = unsorted_keys(wl, 15_000, 0xE5);
        let mut expect = base.clone();
        expect.sort();

        let mut v = base.clone();
        natural_merge_sort(&mut v, 6);
        assert_eq!(v, expect, "natural sort on {}", wl.name());
    }
}

#[test]
fn natural_sort_exploits_presortedness_end_to_end() {
    use mergepath_suite::mergepath::sort::natural::rounds_needed;
    // Concatenation of 4 sorted shards: exactly 2 rounds.
    let mut v: Vec<u32> = Vec::new();
    for s in 0..4u32 {
        v.extend((0..25_000).map(|x| x * 4 + s));
    }
    assert_eq!(rounds_needed(&mut v.clone()), 2);
    let mut expect = v.clone();
    expect.sort();
    natural_merge_sort(&mut v, 4);
    assert_eq!(v, expect);
}

#[test]
fn natural_sort_merges_each_level_in_one_pool_round() {
    // 4096 shuffled keys hold about 1700 natural runs. Each level's merges
    // form one batch round, so at p = 2 the sort records at most
    // ⌈log₂ runs⌉ multi-share rounds for its levels and one for the
    // copy-back, where a round per merged pair records about one per run.
    use mergepath_suite::mergepath::sort::natural::collect_runs_by;
    use mergepath_suite::workloads::prng::Prng;
    let mut keys: Vec<u32> = (0..4096).collect();
    Prng::seed_from_u64(0x4A7).shuffle(&mut keys);
    let runs = collect_runs_by(&mut keys.clone(), &|a: &u32, b: &u32| a.cmp(b)).len() - 1;
    let mut v = keys;
    let ((), rec) = mergepath_check::record(7, || natural_merge_sort(&mut v, 2));
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    let multi = rec.rounds.iter().filter(|r| r.shares.len() > 1).count();
    let bound = runs.next_power_of_two().trailing_zeros() as usize + 1;
    assert!(
        (1..=bound).contains(&multi),
        "{multi} multi-share rounds for {runs} runs, bound {bound}"
    );
}

#[test]
fn cli_pipeline_against_library() {
    // The CLI's in-memory execution path must agree with direct library
    // calls on a nontrivial merge.
    use mergepath_suite::mergepath::merge::parallel::parallel_merge_into;
    let (a, b) = merge_pair(MergeWorkload::Uniform, 2000, 0xC11);
    let mut expect = vec![0u32; 4000];
    parallel_merge_into(&a, &b, &mut expect, 4);

    let file_a: String = a.iter().map(|x| format!("{x}\n")).collect();
    let file_b: String = b.iter().map(|x| format!("{x}\n")).collect();
    let cmd = mergepath_cli::parse_args(&[
        "merge".into(),
        "a".into(),
        "b".into(),
        "-n".into(),
        "--threads".into(),
        "4".into(),
    ])
    .unwrap();
    let out = mergepath_cli::execute(&cmd, |path| {
        Ok(match path {
            "a" => file_a.clone(),
            "b" => file_b.clone(),
            _ => unreachable!(),
        })
    })
    .unwrap();
    let nums: Vec<u32> = out.lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(nums, expect);
}
