//! Batcher's bitonic merge and sort (the paper's reference \[4\]).
//!
//! A data-oblivious sorting network: `O(N log² N)` comparisons arranged in
//! `O(log² N)` stages of `N/2` independent compare-exchanges. The paper
//! cites it as the representative of algorithms whose processor count
//! scales with the problem size; against Merge Path it trades an extra
//! `log N` factor of work for obliviousness (no data-dependent partition
//! step at all).
//!
//! Arbitrary lengths are handled by padding to the next power of two with a
//! virtual `+∞` sentinel (`None` under a reversed-`Option` order), which
//! never moves ahead of a real element in an ascending sort.

use core::cmp::Ordering;

/// Compares with `None` treated as `+∞` (greater than every `Some`).
#[inline]
fn cmp_pad<T: Ord>(x: &Option<T>, y: &Option<T>) -> Ordering {
    match (x, y) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Greater,
        (Some(_), None) => Ordering::Less,
        (Some(a), Some(b)) => a.cmp(b),
    }
}

/// One full bitonic sort pass over a power-of-two buffer.
fn bitonic_network<T: Ord>(v: &mut [Option<T>]) {
    let n = v.len();
    debug_assert!(n.is_power_of_two() || n == 0);
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..n {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    let out_of_order = cmp_pad(&v[i], &v[l]) == Ordering::Greater;
                    if out_of_order == ascending {
                        v.swap(i, l);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// The final merge phase of the network only (input must be bitonic):
/// stages `j = n/2, n/4, …, 1`, all ascending.
fn bitonic_merge_network<T: Ord>(v: &mut [Option<T>]) {
    let n = v.len();
    debug_assert!(n.is_power_of_two() || n == 0);
    let mut j = n / 2;
    while j > 0 {
        for i in 0..n {
            let l = i ^ j;
            if l > i && cmp_pad(&v[i], &v[l]) == Ordering::Greater {
                v.swap(i, l);
            }
        }
        j /= 2;
    }
}

/// Sorts `v` ascending with the bitonic network (not stable).
///
/// # Examples
/// ```
/// use mergepath_baselines::bitonic::bitonic_sort;
/// let mut v = vec![5, 2, 9, 1, 7]; // arbitrary length: padded internally
/// bitonic_sort(&mut v);
/// assert_eq!(v, [1, 2, 5, 7, 9]);
/// ```
pub fn bitonic_sort<T: Ord + Clone>(v: &mut [T]) {
    let n = v.len();
    if n <= 1 {
        return;
    }
    let m = n.next_power_of_two();
    let mut buf: Vec<Option<T>> = v.iter().cloned().map(Some).collect();
    buf.resize_with(m, || None);
    bitonic_network(&mut buf);
    for (dst, src) in v.iter_mut().zip(buf) {
        *dst = src.expect("padding sorts to the back");
    }
}

/// Merges two sorted arrays with the bitonic merge network: `a ++ reverse(b)`
/// is bitonic, so `O(N log N)` oblivious compare-exchanges finish the job.
/// (Not stable.)
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn bitonic_merge_into<T: Ord + Clone>(a: &[T], b: &[T], out: &mut [T]) {
    let n = a.len() + b.len();
    assert_eq!(out.len(), n, "output length must equal |A| + |B|");
    if n == 0 {
        return;
    }
    let m = n.next_power_of_two();
    // Bitonic layout: A ascending, then padding (+∞), then B descending —
    // the whole buffer first rises then falls, i.e. is bitonic.
    let mut buf: Vec<Option<T>> = Vec::with_capacity(m);
    buf.extend(a.iter().cloned().map(Some));
    buf.resize_with(m - b.len(), || None);
    buf.extend(b.iter().rev().cloned().map(Some));
    bitonic_merge_network(&mut buf);
    for (dst, src) in out.iter_mut().zip(buf) {
        *dst = src.expect("padding sorts to the back");
    }
}

/// Thread-parallel bitonic sort: within each `(k, j)` stage the
/// compare-exchange pairs are confined to aligned `2j`-blocks, so the
/// blocks are distributed over `threads` scoped workers with disjoint
/// `&mut` access.
pub fn parallel_bitonic_sort<T: Ord + Clone + Send>(v: &mut [T], threads: usize) {
    assert!(threads > 0, "thread count must be at least 1");
    let n = v.len();
    if n <= 1 {
        return;
    }
    let m = n.next_power_of_two();
    let mut buf: Vec<Option<T>> = v.iter().cloned().map(Some).collect();
    buf.resize_with(m, || None);

    let mut k = 2usize;
    while k <= m {
        let mut j = k / 2;
        while j > 0 {
            let block = 2 * j;
            if threads == 1 || m / block < 2 {
                stage(&mut buf, k, j, 0);
            } else {
                // Hand each worker a contiguous run of 2j-aligned blocks.
                let blocks = m / block;
                std::thread::scope(|scope| {
                    let mut rest = &mut buf[..];
                    let mut offset = 0usize;
                    for t in 0..threads {
                        let lo_blk = t * blocks / threads;
                        let hi_blk = (t + 1) * blocks / threads;
                        let len = (hi_blk - lo_blk) * block;
                        if len == 0 {
                            continue;
                        }
                        let (chunk, tail) = rest.split_at_mut(len);
                        rest = tail;
                        let base = offset;
                        offset += len;
                        scope.spawn(move || stage(chunk, k, j, base));
                    }
                });
            }
            j /= 2;
        }
        k *= 2;
    }
    for (dst, src) in v.iter_mut().zip(buf) {
        *dst = src.expect("padding sorts to the back");
    }
}

/// Runs one `(k, j)` stage over `chunk`, whose first element has global
/// index `base` (needed for the ascending/descending decision `i & k`).
fn stage<T: Ord>(chunk: &mut [Option<T>], k: usize, j: usize, base: usize) {
    for local in 0..chunk.len() {
        let i = base + local;
        let l = i ^ j;
        if l > i {
            let l_local = l - base;
            debug_assert!(l_local < chunk.len(), "pair crosses chunk boundary");
            let ascending = i & k == 0;
            let out_of_order = cmp_pad(&chunk[local], &chunk[l_local]) == Ordering::Greater;
            if out_of_order == ascending {
                chunk.swap(local, l_local);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    #[test]
    fn sorts_power_of_two() {
        let mut v: Vec<i64> = (0..64).rev().collect();
        bitonic_sort(&mut v);
        assert_eq!(v, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sorts_arbitrary_lengths() {
        for n in [0usize, 1, 2, 3, 5, 17, 100, 1000, 1023, 1025] {
            let mut v: Vec<i64> = (0..n as i64).map(|x| (x * 7919 + 1) % 997).collect();
            let mut expect = v.clone();
            expect.sort();
            bitonic_sort(&mut v);
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn merge_network_merges() {
        let a: Vec<i64> = (0..100).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..77).map(|x| x * 3 + 1).collect();
        let mut out = vec![0; 177];
        bitonic_merge_into(&a, &b, &mut out);
        let mut expect: Vec<i64> = a.iter().chain(&b).copied().collect();
        expect.sort();
        assert_eq!(out, expect);
    }

    #[test]
    fn merge_empty_sides() {
        let mut out = vec![0i64; 3];
        bitonic_merge_into(&[], &[1, 2, 3], &mut out);
        assert_eq!(out, [1, 2, 3]);
        bitonic_merge_into(&[1, 2, 3], &[], &mut out);
        assert_eq!(out, [1, 2, 3]);
        let mut empty: Vec<i64> = vec![];
        bitonic_merge_into::<i64>(&[], &[], &mut empty);
    }

    #[test]
    fn parallel_matches_sequential() {
        let base: Vec<i64> = (0..2000).map(|x| (x * 31 + 7) % 1231).collect();
        let mut expect = base.clone();
        expect.sort();
        for threads in [1, 2, 3, 4, 8] {
            let mut v = base.clone();
            parallel_bitonic_sort(&mut v, threads);
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn comparison_count_is_superlinear() {
        // Structural check of the O(N log² N) claim: count the
        // compare-exchange visits for two sizes and verify growth faster
        // than linear (ratio > size ratio).
        fn stages(n: usize) -> u64 {
            let m = n.next_power_of_two() as u64;
            let lg = m.trailing_zeros() as u64;
            m / 2 * lg * (lg + 1) / 2
        }
        assert!(stages(1 << 16) > 8 * stages(1 << 12));
    }

    /// The 0–1 principle: a comparison network sorts all inputs iff it
    /// sorts all 0/1 inputs. Exhaustively check every 0/1 sequence up to
    /// length 12 (padding paths included via odd lengths).
    #[test]
    fn zero_one_principle_exhaustive() {
        for n in 1usize..=12 {
            for mask in 0u32..(1 << n) {
                let mut v: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                let ones = v.iter().filter(|&&x| x == 1).count();
                bitonic_sort(&mut v);
                let expect: Vec<u8> = std::iter::repeat_n(0u8, n - ones)
                    .chain(std::iter::repeat_n(1u8, ones))
                    .collect();
                assert_eq!(v, expect, "n={n} mask={mask:b}");
            }
        }
    }

    /// Same exhaustive 0/1 check for the merge network.
    #[test]
    fn zero_one_principle_merge_network() {
        for na in 0usize..=6 {
            for nb in 0usize..=6 {
                for ma in 0u32..(1 << na) {
                    for mb in 0u32..(1 << nb) {
                        let mut a: Vec<u8> = (0..na).map(|i| ((ma >> i) & 1) as u8).collect();
                        let mut b: Vec<u8> = (0..nb).map(|i| ((mb >> i) & 1) as u8).collect();
                        a.sort_unstable();
                        b.sort_unstable();
                        let mut out = vec![0u8; na + nb];
                        bitonic_merge_into(&a, &b, &mut out);
                        let ones = a.iter().chain(&b).filter(|&&x| x == 1).count();
                        let expect: Vec<u8> = std::iter::repeat_n(0u8, na + nb - ones)
                            .chain(std::iter::repeat_n(1u8, ones))
                            .collect();
                        assert_eq!(out, expect);
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn bitonic_sort_matches_std(mut v in proptest::collection::vec(-1000i64..1000, 0..400)) {
            let mut expect = v.clone();
            expect.sort();
            bitonic_sort(&mut v);
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn bitonic_merge_matches_oracle(
            a in proptest::collection::vec(-100i64..100, 0..120).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..120).prop_map(sorted),
        ) {
            let mut out = vec![0; a.len() + b.len()];
            bitonic_merge_into(&a, &b, &mut out);
            let mut expect: Vec<i64> = a.iter().chain(&b).copied().collect();
            expect.sort();
            prop_assert_eq!(out, expect);
        }

        #[test]
        fn parallel_bitonic_matches_std(
            mut v in proptest::collection::vec(-1000i64..1000, 0..300),
            threads in 1usize..6,
        ) {
            let mut expect = v.clone();
            expect.sort();
            parallel_bitonic_sort(&mut v, threads);
            prop_assert_eq!(v, expect);
        }
    }
}
