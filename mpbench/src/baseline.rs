//! Baselines measured in every traced pass: what a plain copy, the
//! sequential merge and the standard library's sorts achieve on this
//! host. They are drift sentinels: no change to the program moves them,
//! so when they move, the host did.

use std::time::{Duration, Instant};

use mergepath_workloads::{unsorted_keys, SortWorkload};

use crate::report::{Report, RunConfig};
use crate::stats::median;
use crate::sut::{merge_into, parallel_merge_into};

/// Output keys up to which [`seq_merge`] uses the standard library.
const STD_MERGE_MAX: usize = 1 << 24;

/// The sequential baseline of a merge for `t1_over_seq`, outside the
/// program so no change to it moves the reference: what a caller without
/// this library writes, `slice::sort` of the concatenated inputs, whose
/// run detection merges the two runs. Its scratch buffer is half the
/// output, allocated on every call; past [`STD_MERGE_MAX`] keys that
/// costs more than the merge and adds a quarter to `merge_large`'s
/// memory, so a textbook two-pointer merge stands in.
pub fn seq_merge(a: &[u32], b: &[u32], out: &mut [u32]) {
    if out.len() <= STD_MERGE_MAX {
        out[..a.len()].copy_from_slice(a);
        out[a.len()..].copy_from_slice(b);
        out.sort();
        return;
    }
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        if j == b.len() || (i < a.len() && a[i] <= b[j]) {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Seconds per call of `f`, repeating it until `min` has passed so short
/// calls are not lost in the clock's own cost.
pub fn seconds_per_call(mut f: impl FnMut(), min: Duration) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < min {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

const MIN_TIMED: Duration = Duration::from_millis(2);

/// Copy, sequential merge and one-thread parallel merge, summed over the
/// pairs a workload merges.
#[derive(Debug, Default)]
pub struct MergeBaseline {
    elems: f64,
    copy_s: f64,
    seq_s: f64,
    t1_s: f64,
}

impl MergeBaseline {
    /// Times the three on `a` and `b`, writing into `out`.
    pub fn add(&mut self, a: &[u32], b: &[u32], out: &mut [u32]) {
        self.elems += out.len() as f64;
        self.copy_s += seconds_per_call(
            || {
                out[..a.len()].copy_from_slice(a);
                out[a.len()..].copy_from_slice(b);
                std::hint::black_box(&mut *out);
            },
            MIN_TIMED,
        );
        self.seq_s += seconds_per_call(
            || merge_into(a, b, std::hint::black_box(&mut *out)),
            MIN_TIMED,
        );
        self.t1_s += seconds_per_call(
            || parallel_merge_into(a, b, std::hint::black_box(&mut *out), 1),
            MIN_TIMED,
        );
    }

    /// Records the baselines, plus `kernel.bw_frac` for a kernel that
    /// moved `kernel_gbs` computed GB/s.
    pub fn report(&self, r: &mut Report, kernel_gbs: f64, pairs: usize) {
        // Computed traffic: every key read once and written once.
        let copy_gbs = 8.0 * self.elems / self.copy_s / 1e9;
        r.metric("baseline.copy_gbs", copy_gbs, pairs);
        r.metric("kernel.bw_frac", kernel_gbs / copy_gbs, pairs);
        r.metric(
            "baseline.seq_merge_melem_s",
            self.elems / self.seq_s / 1e6,
            pairs,
        );
        r.metric("merge.t1_vs_seq", self.t1_s / self.seq_s, pairs);
    }
}

/// `slice::sort` and `sort_unstable` on the same seeded uniform keys in
/// every workload, so the numbers compare across workloads and commits.
pub fn std_sorts(r: &mut Report, cfg: &RunConfig) {
    let keys = unsorted_keys(SortWorkload::Uniform, cfg.size(1 << 20, 1 << 12), cfg.seed);
    let mut work = keys.clone();
    let mut rate = |unstable: bool| {
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                work.copy_from_slice(&keys);
                let start = Instant::now();
                if unstable {
                    work.sort_unstable();
                } else {
                    work.sort();
                }
                keys.len() as f64 / start.elapsed().as_secs_f64() / 1e6
            })
            .collect();
        median(&rates)
    };
    let (stable, unstable) = (rate(false), rate(true));
    r.metric("baseline.std_sort_melem_s", stable, 3);
    r.metric("baseline.std_sort_unstable_melem_s", unstable, 3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_merge_is_a_merge_on_both_paths() {
        let big = crate::gen::sorted_run(STD_MERGE_MAX / 2 + 1, 3);
        let cases = [
            (vec![1, 3, 3, 9], vec![0, 3, 4]),
            (vec![], vec![2, 2]),
            (vec![5], vec![]),
            (big.clone(), big),
        ];
        for (a, b) in cases {
            let mut out = vec![0; a.len() + b.len()];
            seq_merge(&a, &b, &mut out);
            assert_eq!(out, crate::gen::std_merged(&a, &b));
        }
    }
}
