//! Co-rank stable block merge (Siebert & Träff, arXiv 1303.4312; Träff,
//! arXiv 1202.6575).
//!
//! Merge Path's Algorithm 1 is stable *per segment construction*: every
//! diagonal split happens to respect tie order because the binary search
//! breaks ties strictly A-before-B. The co-rank formulation makes that a
//! provable property instead of an emergent one: for every output rank `k`
//! there is exactly **one** split `(i, k - i)` such that the first `k`
//! outputs of the stable merge are `a[..i] ∪ b[..k-i]`
//! ([`crate::diagonal::split_is_valid`] is unique — property-tested in
//! `crates/check/tests/co_rank_props.rs`), so any set of output ranks
//! yields blocks that can be merged completely independently and
//! concatenate to *the* stable merge, with no inter-block coordination.
//!
//! [`co_rank_merge_into_by`] is the sequential arm behind
//! [`SegmentKernel::CoRank`](crate::merge::adaptive::SegmentKernel::CoRank):
//! it subdivides its output into [`CO_RANK_BLOCK`]-sized blocks, co-ranks
//! each interior boundary, and emits every block with a bounded classic
//! merge. Byte-identical to [`merge_into_by`] on every input. The parallel
//! level needs no copy of its own: Algorithm 1's tiles
//! ([`crate::merge::parallel`]) cut at `⌊k·n/T⌋`, so every tile already
//! merges `⌊n/T⌋` or `⌈n/T⌉` outputs, the balance 1303.4312 gets from
//! exact boundaries.
//!
//! The interior block split is the only place a tie-break decision is made,
//! which is why the `--cfg mergepath_mutate` fault for this kernel lives
//! there: inverting the strictness of the B-side comparison yields a merge
//! that is still sorted and still a permutation — invisible to any
//! value-only test — but lets B-side elements overtake equal A-side
//! elements across block boundaries, which the schedule checker's
//! provenance-tagged oracle convicts as an output mismatch
//! (`crates/check/tests/mutation.rs`).

use core::cmp::Ordering;

use crate::merge::sequential::{assert_out_len, merge_into_by};

/// Output-block granularity of the sequential co-rank kernel. Each block
/// costs one `O(log min(|a|, |b|))` split search, amortized over
/// `CO_RANK_BLOCK` emitted elements; the block merge itself stays inside
/// one cache-friendly output window.
pub const CO_RANK_BLOCK: usize = 256;

/// The stable co-rank of output rank `k`: the unique `i` with every taken
/// `a[..i]` ≤ every untaken `b[k-i..]` and every taken `b[..k-i]` strictly
/// below every untaken `a[i..]` (ties broken A-before-B by global index).
///
/// Same search as [`co_rank_by`](crate::diagonal::co_rank_by), restated
/// locally because this is the tie-break decision point of the kernel and
/// therefore where the `--cfg mergepath_mutate` sensitivity fault is
/// injected.
fn block_split<T, F>(k: usize, a: &[T], b: &[T], cmp: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    let (na, nb) = (a.len(), b.len());
    debug_assert!(k <= na + nb);
    let mut lo = k.saturating_sub(nb);
    let mut hi = k.min(na);
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = k - i;
        debug_assert!(j >= 1 && i < na);
        // Stable split: advance past `a[i]` while `b[j-1] >= a[i]`, so on a
        // tie the A element is taken first.
        #[cfg(not(mergepath_mutate))]
        let advance = cmp(&b[j - 1], &a[i]) != Ordering::Less;
        // Injected tie-break inversion for the mutation self-test
        // (`cargo xtask verify-schedules` builds with
        // `--cfg mergepath_mutate`): requiring *strictly greater* flips the
        // tie break to B-before-A. The result is still a sorted
        // permutation — only the provenance-tagged stable oracle of
        // `crates/check` can convict it, as an output mismatch on the
        // first schedule whenever a mixed tie class straddles an interior
        // block boundary.
        #[cfg(mergepath_mutate)]
        let advance = cmp(&b[j - 1], &a[i]) == Ordering::Greater;
        if advance {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo
}

/// Stable merge of `a` and `b` into `out` by independent co-ranked blocks —
/// the execution arm of
/// [`SegmentKernel::CoRank`](crate::merge::adaptive::SegmentKernel::CoRank).
///
/// The output is cut every [`CO_RANK_BLOCK`] ranks; each interior boundary
/// is co-ranked with [`block_split`] (`O(log min(|a|, |b|))` comparisons),
/// and each block is emitted by a bounded classic merge of its private
/// input slices. Because the stable split at every rank is unique, the
/// concatenation of the blocks *is* the stable merge: byte-identical to
/// [`merge_into_by`] on every input.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn co_rank_merge_into_by<T: Clone, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    assert_out_len(a.len(), b.len(), out.len());
    let n = out.len();
    if n <= CO_RANK_BLOCK {
        merge_into_by(a, b, out, cmp);
        return;
    }
    let mut d_lo = 0usize;
    let mut i_lo = 0usize;
    while d_lo < n {
        let d_hi = (d_lo + CO_RANK_BLOCK).min(n);
        let i_hi = if d_hi == n {
            a.len()
        } else {
            block_split(d_hi, a, b, cmp)
        };
        let (j_lo, j_hi) = (d_lo - i_lo, d_hi - i_hi);
        merge_into_by(&a[i_lo..i_hi], &b[j_lo..j_hi], &mut out[d_lo..d_hi], cmp);
        (d_lo, i_lo) = (d_hi, i_hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagonal::co_rank_by;

    fn cmp(x: &i64, y: &i64) -> Ordering {
        x.cmp(y)
    }

    /// SplitMix64 — the core crate cannot depend on `mergepath-workloads`.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn random_sorted(len: usize, space: u64, seed: u64) -> Vec<i64> {
        let mut rng = Mix(seed);
        let mut v: Vec<i64> = (0..len).map(|_| (rng.next() % space) as i64).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn block_split_agrees_with_the_stable_co_rank_search() {
        let a = random_sorted(700, 40, 1);
        let b = random_sorted(900, 40, 2);
        for k in (0..=a.len() + b.len()).step_by(17) {
            assert_eq!(
                block_split(k, &a, &b, &cmp),
                co_rank_by(k, a.as_slice(), b.as_slice(), &cmp),
                "k={k}"
            );
        }
    }

    #[test]
    fn co_rank_merge_matches_the_classic_oracle_across_lengths_and_densities() {
        let lengths = [0usize, 1, 200, 255, 256, 257, 511, 512, 513, 1024, 2050];
        let mut seed = 10;
        for &na in &lengths {
            for &nb in &[0usize, 1, 256, 777, 2048] {
                for space in [3u64, 50, u64::MAX] {
                    seed += 1;
                    let a = random_sorted(na, space, seed);
                    let b = random_sorted(nb, space, seed ^ 0xABCD);
                    let mut oracle = vec![0i64; na + nb];
                    merge_into_by(&a, &b, &mut oracle, &cmp);
                    let mut out = vec![0i64; na + nb];
                    co_rank_merge_into_by(&a, &b, &mut out, &cmp);
                    assert_eq!(out, oracle, "na={na} nb={nb} space={space}");
                }
            }
        }
    }

    #[test]
    fn co_rank_merge_is_stable_across_block_boundaries() {
        // 48-wide mixed tie classes, misaligned with the 256-rank block
        // cuts, observed through provenance tags the comparator ignores.
        let a: Vec<(i32, u32)> = (0..1500).map(|i| (i / 24, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..1500).map(|i| (i / 24, 1_000_000 + i as u32)).collect();
        let by_key = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
        let mut oracle = vec![(0, 0); 3000];
        merge_into_by(&a, &b, &mut oracle, &by_key);
        let mut out = vec![(0, 0); 3000];
        co_rank_merge_into_by(&a, &b, &mut out, &by_key);
        assert_eq!(out, oracle);
    }

    #[test]
    fn tie_runs_at_and_one_past_a_block_boundary() {
        // A tie class ending exactly at rank CO_RANK_BLOCK, then one past:
        // the split search must place the whole A-side run before any tied
        // B element in both alignments.
        for extra in [0usize, 1] {
            let run = CO_RANK_BLOCK / 2 + extra;
            let mut a: Vec<(i32, u32)> = (0..run as i32).map(|i| (5, i as u32)).collect();
            a.extend((0..600).map(|i| (10 + i, 500 + i as u32)));
            let mut b: Vec<(i32, u32)> = (0..CO_RANK_BLOCK - run + extra)
                .map(|i| (5, 1_000_000 + i as u32))
                .collect();
            b.extend((0..600).map(|i| (10 + i, 2_000_000 + i as u32)));
            let by_key = |x: &(i32, u32), y: &(i32, u32)| x.0.cmp(&y.0);
            let mut oracle = vec![(0, 0); a.len() + b.len()];
            merge_into_by(&a, &b, &mut oracle, &by_key);
            let mut out = vec![(0, 0); a.len() + b.len()];
            co_rank_merge_into_by(&a, &b, &mut out, &by_key);
            assert_eq!(out, oracle, "extra={extra}");
        }
    }
}
