//! Sequential merge kernels.
//!
//! These are the building blocks executed by each processor after the
//! merge-path partition has handed it an independent sub-problem (paper,
//! Algorithm 1, step 3: "execute (|A|+|B|)/p steps of sequential merge").
//!
//! Three kernels with identical semantics and different performance
//! profiles are provided:
//!
//! * [`merge_into_by`] — the classic two-pointer merge with a tail copy;
//!   the default, and the baseline for the paper's §VI overhead remark.
//! * [`branch_lean_merge_into_by`] — replaces the hard-to-predict
//!   comparison branch with index arithmetic, and runs as four streams:
//!   pays off on random interleaving (branch misprediction bound), loses
//!   slightly on runs. For `u32` keys under [`natural_cmp`] on x86-64 CPUs
//!   with AVX2 it merges eight keys per step instead.
//! * [`galloping_merge_into_by`] — exponential search over runs; wins when
//!   the inputs interleave coarsely (long runs from one side).
//!
//! The cache simulator replays the classic merge through
//! [`merge_into_probed`] and [`merge_views_into_probed`], one view-merge
//! loop run with a probe.
//!
//! # Four streams per core
//!
//! Algorithm 1 makes every segment between two co-ranked diagonals an
//! independent sequential merge; the parallel kernels spend that
//! independence across threads. The branch-lean kernel also spends it
//! inside one core. A branch-lean loop is one serial chain — the next load
//! index depends on the last comparison — so it runs at the latency of
//! compare, select and index update, not at the core's throughput. Above
//! a short-output threshold the kernel co-ranks three interior diagonals
//! and interleaves the four streams' chains in one loop, the thread level
//! of GPU Merge Path (Green, Odeh, Birk) applied to one core's
//! instruction-level parallelism. The co-rank cuts are the unique stable
//! ones (ties to `a`), so the four-stream output is byte-identical to the
//! one-stream output; every caller that lands on branch-lean gets it: the
//! adaptive dispatch and [`super::batch`] fragments. Two, three, six and
//! eight streams were measured too (DESIGN.md §5): two run at about 1.5×
//! four's time per element, and six or eight at about four's.
//!
//! # Eight keys per step
//!
//! Four scalar streams still spend a compare, a select and a store per
//! key. For `u32` keys in natural order the kernel has a vector body
//! (`avx2`): each of four co-ranked streams takes eight keys per step
//! through a 16-key bitonic merge network in AVX2 registers and calls the
//! comparator once per step, to choose which side the next eight keys come
//! from. It runs when the comparator is the `natural_cmp::<u32>` function
//! item — the adaptive dispatch asks that of the comparator it was handed,
//! before telemetry's counting wrapper hides it — and the CPU reports AVX2
//! at run time. Every other key type, comparator and CPU runs the scalar
//! streams, and the output is the same bytes either way (DESIGN.md §10).

use core::cmp::Ordering;

use super::adaptive::{is_u32, natural_u32};
use crate::diagonal::co_rank_by;
use crate::error::{first_unsorted_index, InputId, MergeError};
use crate::partition::segment_boundary;
use crate::probe::Probe;
use crate::view::SortedView;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// The canonical natural-order comparator: `|x, y| x.cmp(y)` as a named
/// function item.
///
/// Every monomorphization of a function item has a unique zero-sized type,
/// so passing `&natural_cmp` (rather than an ad-hoc closure) lets the
/// adaptive dispatch prove by comparator *type identity* that the order is
/// a primitive's natural order, in which equal elements are
/// interchangeable (see [`super::adaptive`]). The natural-order entry
/// points of this crate route through it.
pub fn natural_cmp<T: Ord>(x: &T, y: &T) -> Ordering {
    x.cmp(y)
}

/// Stable merge of two sorted slices into `out` using the natural order.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
///
/// # Examples
/// ```
/// use mergepath::merge::sequential::merge_into;
/// let mut out = [0; 5];
/// merge_into(&[1, 4, 9], &[2, 3], &mut out);
/// assert_eq!(out, [1, 2, 3, 4, 9]);
/// ```
pub fn merge_into<T: Ord + Clone>(a: &[T], b: &[T], out: &mut [T]) {
    merge_into_by(a, b, out, &|x: &T, y: &T| x.cmp(y));
}

/// Stable merge with a caller-supplied comparator.
///
/// Ties (`Ordering::Equal`) take from `a` first.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn merge_into_by<T: Clone, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    assert_out_len(a.len(), b.len(), out.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut k = 0usize;
    while i < a.len() && j < b.len() {
        if cmp(&a[i], &b[j]) != Ordering::Greater {
            out[k] = a[i].clone();
            i += 1;
        } else {
            out[k] = b[j].clone();
            j += 1;
        }
        k += 1;
    }
    if i < a.len() {
        out[k..].clone_from_slice(&a[i..]);
    } else {
        out[k..].clone_from_slice(&b[j..]);
    }
}

/// Fallible variant of [`merge_into_by`] that validates lengths and
/// sortedness up front.
pub fn try_merge_into_by<T: Clone, F>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    cmp: &F,
) -> Result<(), MergeError>
where
    F: Fn(&T, &T) -> Ordering,
{
    if out.len() != a.len() + b.len() {
        return Err(MergeError::OutputLenMismatch {
            expected: a.len() + b.len(),
            actual: out.len(),
        });
    }
    if let Some(index) = first_unsorted_index(a, cmp) {
        return Err(MergeError::NotSorted {
            input: InputId::A,
            index,
        });
    }
    if let Some(index) = first_unsorted_index(b, cmp) {
        return Err(MergeError::NotSorted {
            input: InputId::B,
            index,
        });
    }
    merge_into_by(a, b, out, cmp);
    Ok(())
}

/// [`merge_into_by`] generic over [`SortedView`] inputs, reporting every
/// access to a [`Probe`]: the one view-merge loop, which the cache
/// simulator replays over slices and over its cyclic staging buffers.
///
/// Probe indices are the *logical* view indices; callers translate them to
/// physical addresses (e.g. ring-buffer slots) as needed.
pub fn merge_views_into_probed<T, A, B, F, P>(a: &A, b: &B, out: &mut [T], cmp: &F, probe: &mut P)
where
    T: Clone,
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    F: Fn(&T, &T) -> Ordering,
    P: Probe,
{
    assert_out_len(a.len(), b.len(), out.len());
    let (mut i, mut j) = (0usize, 0usize);
    for (k, slot) in out.iter_mut().enumerate() {
        let take_a = if i >= a.len() {
            false
        } else if j >= b.len() {
            true
        } else {
            probe.read_a(i);
            probe.read_b(j);
            cmp(a.get(i), b.get(j)) != Ordering::Greater
        };
        if take_a {
            probe.read_a(i);
            *slot = a.get(i).clone();
            i += 1;
        } else {
            probe.read_b(j);
            *slot = b.get(j).clone();
            j += 1;
        }
        probe.write_out(k);
    }
}

/// Independent merge streams the scalar branch-lean body advances in one
/// loop.
const STREAMS: usize = 4;

/// Outputs per stream below which the branch-lean kernel merges as one
/// stream: below `STREAMS · STREAM_MIN` outputs the interior diagonals'
/// co-rank searches cost more than the extra streams save (DESIGN.md §5
/// has the sweep).
const STREAM_MIN: usize = 16;

/// A merge kernel that avoids the data-dependent select branch by advancing
/// indices with boolean arithmetic: [`branch_lean_merge_into_by`] under the
/// natural order.
///
/// On inputs whose interleaving is unpredictable (e.g. two independent
/// uniform arrays) the classic kernel takes a branch misprediction roughly
/// every other element; this kernel trades that for a couple of extra ALU
/// ops per element.
pub fn branch_lean_merge_into<T: Copy + Ord>(a: &[T], b: &[T], out: &mut [T]) {
    branch_lean_merge_into_by(a, b, out, &natural_cmp);
}

/// The branch-lean kernel for `Clone` elements and a caller-supplied
/// comparator, run as `STREAMS` independent streams, or as eight keys per
/// step for `u32` keys under [`natural_cmp`] on x86-64 CPUs with AVX2.
///
/// Ties (`Ordering::Equal`) take from `a` first — the same stable order as
/// [`merge_into_by`]; the select consumes the comparison as an index
/// increment rather than a data-dependent branch.
///
/// A single branch-lean loop is one serial dependency chain: each load
/// index waits on the previous comparison. For outputs of at least
/// `STREAMS · STREAM_MIN` keys the kernel co-ranks the `STREAMS − 1`
/// interior diagonals `⌊s·n/STREAMS⌋`, which splits the segment into
/// `STREAMS` independent merges — Algorithm 1's partition with
/// `p = STREAMS`, applied inside one core — and advances all of them in
/// one loop, so the core overlaps their chains. The co-rank cuts are the
/// unique stable ones (ties to `a`, Siebert & Träff), so the output is
/// byte-identical to the single stream's. Once any stream runs out of one
/// input, each stream finishes on the single-stream loop.
///
/// When `cmp` is the `natural_cmp::<u32>` function item and the CPU has
/// AVX2, the vector body runs instead (see the module docs): equal `u32`
/// keys are bit-identical, so its output is byte-identical too.
pub fn branch_lean_merge_into_by<T: Clone, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    assert_out_len(a.len(), b.len(), out.len());
    if natural_u32(cmp) && branch_lean_vector(a, b, out, &natural_cmp::<u32>) {
        return;
    }
    let n = out.len();
    if n < STREAMS * STREAM_MIN {
        branch_lean_stream(a, b, out, cmp);
        return;
    }
    let (sa, sb, so) = co_ranked_streams::<T, F, STREAMS>(a, b, out, cmp);
    // Each stream's cursors into its own inputs.
    let (mut i, mut j) = ([0usize; STREAMS], [0usize; STREAMS]);
    loop {
        let steps = (0..STREAMS)
            .map(|s| (sa[s].len() - i[s]).min(sb[s].len() - j[s]))
            .min()
            .unwrap_or(0);
        if steps == 0 {
            break;
        }
        for _ in 0..steps {
            for s in 0..STREAMS {
                debug_assert!(i[s] < sa[s].len() && j[s] < sb[s].len());
                // SAFETY: every iteration advances exactly one of `i[s]`,
                // `j[s]` by one, and this block runs `steps` iterations,
                // at most the fewest keys any stream has left on either
                // side. So `i[s] < sa[s].len()` and `j[s] < sb[s].len()`
                // here, and `i[s] + j[s] < so[s].len()`, which is
                // `sa[s].len() + sb[s].len()`. The cursors are plain locals
                // that neither `cmp` nor `clone` can reach: whatever they
                // return, or if they panic, no index moves out of bounds.
                let (x, y) = unsafe { (sa[s].get_unchecked(i[s]), sb[s].get_unchecked(j[s])) };
                let take_a = cmp(x, y) != Ordering::Greater;
                let v = if take_a { x.clone() } else { y.clone() };
                // SAFETY: `i[s] + j[s] < so[s].len()`, as argued above.
                unsafe { *so[s].get_unchecked_mut(i[s] + j[s]) = v };
                i[s] += take_a as usize;
                j[s] += !take_a as usize;
            }
        }
    }
    for (s, o) in so.into_iter().enumerate() {
        branch_lean_stream(&sa[s][i[s]..], &sb[s][j[s]..], &mut o[i[s] + j[s]..], cmp);
    }
}

/// The branch-lean kernel's vector body, when it applies: merges `a` and
/// `b` into `out` and returns `true` when `T` is `u32` and the CPU has
/// AVX2, and otherwise returns `false` without touching `out`. `cmp` must
/// order `u32` naturally — it is [`natural_cmp`] or telemetry's counting
/// wrapper around it — because the network compares keys as unsigned
/// integers and calls `cmp` only to choose blocks and on the scalar tail.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub(crate) fn branch_lean_vector<T, G>(a: &[T], b: &[T], out: &mut [T], cmp: &G) -> bool
where
    G: Fn(&u32, &u32) -> Ordering,
{
    #[cfg(target_arch = "x86_64")]
    if is_u32::<T>() && avx2::detected() {
        assert_out_len(a.len(), b.len(), out.len());
        // SAFETY: `T` is `u32` (same `TypeId`, checked just above), so each
        // slice is reinterpreted as its own type: same length, same
        // layout, and `out` stays the only reference to its elements.
        let (a, b, out) = unsafe {
            (
                core::slice::from_raw_parts(a.as_ptr().cast::<u32>(), a.len()),
                core::slice::from_raw_parts(b.as_ptr().cast::<u32>(), b.len()),
                core::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u32>(), out.len()),
            )
        };
        // SAFETY: the CPU supports AVX2, detected at run time just above.
        unsafe { avx2::merge(a, b, out, cmp) };
        return true;
    }
    let _ = (a, b, out, cmp);
    false
}

/// Cuts the merge of `a` and `b` into `S` independent merges at the stable
/// co-ranks of the diagonals `⌊s·n/S⌋`: stream `s` merges
/// `a[ia[s]..ia[s + 1]]` and `b[jb[s]..jb[s + 1]]` into
/// `out[d_s..d_{s + 1}]`, where `d_s = ia[s] + jb[s]`. Returns each
/// stream's `a` part, `b` part and output.
#[allow(clippy::type_complexity)]
fn co_ranked_streams<'s, T, F, const S: usize>(
    a: &'s [T],
    b: &'s [T],
    out: &'s mut [T],
    cmp: &F,
) -> ([&'s [T]; S], [&'s [T]; S], [&'s mut [T]; S])
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = out.len();
    let starts: [(usize, usize); S] = core::array::from_fn(|s| {
        let d = segment_boundary(n, S, s);
        let i = co_rank_by(d, a, b, cmp);
        (i, d - i)
    });
    let end = |s: usize| starts.get(s + 1).copied().unwrap_or((a.len(), b.len()));
    let sa = core::array::from_fn(|s| &a[starts[s].0..end(s).0]);
    let sb = core::array::from_fn(|s| &b[starts[s].1..end(s).1]);
    let mut rest = out;
    let so = core::array::from_fn(|s: usize| {
        let (head, tail) = core::mem::take(&mut rest).split_at_mut(sa[s].len() + sb[s].len());
        rest = tail;
        head
    });
    (sa, sb, so)
}

/// One branch-lean stream: the select is an index increment, and the
/// exhausted side's remainder is a block copy.
fn branch_lean_stream<T: Clone, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let take_a = cmp(&a[i], &b[j]) != Ordering::Greater;
        out[i + j] = if take_a { a[i].clone() } else { b[j].clone() };
        i += take_a as usize;
        j += !take_a as usize;
    }
    if i < a.len() {
        out[i + j..].clone_from_slice(&a[i..]);
    } else {
        out[i + j..].clone_from_slice(&b[j..]);
    }
}

/// Stable merge using exponential (galloping) search over runs.
///
/// When the merge path hugs one axis — long runs of consecutive elements
/// from the same input — this kernel finds each run boundary in
/// `O(log run)` comparisons and block-copies the run, instead of paying one
/// comparison per element. A tie class is one run from `a` (its run takes
/// every element `<=` the head of `b`) followed by one run from `b` (its
/// run stops before the head of `a`), which is where stability lives.
pub fn galloping_merge_into_by<T: Clone, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    assert_out_len(a.len(), b.len(), out.len());
    // Sensitivity fault for the schedule checker (`--cfg mergepath_mutate`):
    // merging `b` into `a` hands every tie to `b` first, so the `b` run
    // takes the ties and the `a` run stops before them. The output is still
    // a sorted permutation; only the provenance-tagged stable oracle of
    // `crates/check` can convict it, as an output mismatch on the first
    // schedule whenever a galloping segment holds a tie class of both sides.
    #[cfg(mergepath_mutate)]
    let (a, b) = (b, a);
    let (mut i, mut j) = (0usize, 0usize);
    let mut k = 0usize;
    while i < a.len() && j < b.len() {
        if cmp(&a[i], &b[j]) != Ordering::Greater {
            // Run from `a`: all elements ≤ b[j] (ties to A).
            let run = gallop_upper(&a[i..], &b[j], cmp);
            out[k..k + run].clone_from_slice(&a[i..i + run]);
            i += run;
            k += run;
        } else {
            // Run from `b`: all elements strictly < a[i].
            let run = gallop_lower(&b[j..], &a[i], cmp);
            out[k..k + run].clone_from_slice(&b[j..j + run]);
            j += run;
            k += run;
        }
    }
    if i < a.len() {
        out[k..].clone_from_slice(&a[i..]);
    } else {
        out[k..].clone_from_slice(&b[j..]);
    }
}

/// Length of the maximal prefix of `v` with elements `<= key` (first index
/// whose element is `> key`), found by exponential search then binary
/// search. Total over all inputs: an empty `v` or one whose first element
/// is already `> key` returns 0.
fn gallop_upper<T, F>(v: &[T], key: &T, cmp: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    if v.is_empty() || cmp(&v[0], key) == Ordering::Greater {
        return 0;
    }
    let mut hi = 1usize;
    while hi < v.len() && cmp(&v[hi], key) != Ordering::Greater {
        // Saturating: the doubling offset must not wrap for prefixes within
        // a factor of two of `usize::MAX` (the run may consume all of `v`).
        hi = hi.saturating_mul(2).min(v.len());
        if hi == v.len() {
            break;
        }
    }
    if hi >= v.len() && cmp(&v[v.len() - 1], key) != Ordering::Greater {
        return v.len();
    }
    // Invariant: v[lo-1] <= key < v[hi'] for some hi' in (lo, hi].
    let mut lo = (hi / 2).max(1);
    let mut hi = hi.min(v.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(&v[mid], key) != Ordering::Greater {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Length of the maximal prefix of `v` with elements strictly `< key`.
/// Total over all inputs: an empty `v` or one whose first element is
/// already `>= key` returns 0.
fn gallop_lower<T, F>(v: &[T], key: &T, cmp: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    if v.is_empty() || cmp(&v[0], key) != Ordering::Less {
        return 0;
    }
    let mut hi = 1usize;
    while hi < v.len() && cmp(&v[hi], key) == Ordering::Less {
        hi = hi.saturating_mul(2).min(v.len());
        if hi == v.len() {
            break;
        }
    }
    if hi >= v.len() && cmp(&v[v.len() - 1], key) == Ordering::Less {
        return v.len();
    }
    let mut lo = (hi / 2).max(1);
    let mut hi = hi.min(v.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(&v[mid], key) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`merge_into_by`] reporting every element access to a [`Probe`]; the
/// trace source for the cache experiments of §IV.
pub fn merge_into_probed<T: Clone, F, P>(a: &[T], b: &[T], out: &mut [T], cmp: &F, probe: &mut P)
where
    F: Fn(&T, &T) -> Ordering,
    P: Probe,
{
    merge_views_into_probed(a, b, out, cmp, probe);
}

#[inline]
pub(crate) fn assert_out_len(na: usize, nb: usize, nout: usize) {
    assert!(
        nout == na + nb,
        "output buffer length mismatch: expected {}, got {}",
        na + nb,
        nout
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{CountingProbe, TraceProbe};
    use core::cell::Cell;
    use proptest::prelude::*;

    fn oracle(a: &[i64], b: &[i64]) -> Vec<i64> {
        // Stability oracle: tag each element with (value, source, index) and
        // use a stable std sort on value only.
        let mut tagged: Vec<(i64, u8, usize)> = a
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 0u8, i))
            .chain(b.iter().enumerate().map(|(i, &v)| (v, 1u8, i)))
            .collect();
        tagged.sort_by_key(|&(v, _, _)| v);
        tagged.into_iter().map(|(v, _, _)| v).collect()
    }

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    #[test]
    fn basic_merge() {
        let a = [1, 3, 5];
        let b = [2, 4, 6, 7];
        let mut out = [0; 7];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn merge_with_empty_sides() {
        let a: [i32; 0] = [];
        let b = [1, 2, 3];
        let mut out = [0; 3];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3]);
        merge_into(&b, &a, &mut out);
        assert_eq!(out, [1, 2, 3]);
        let mut empty: [i32; 0] = [];
        merge_into(&a, &a, &mut empty);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_output_len_panics() {
        let mut out = [0; 3];
        merge_into(&[1, 2], &[3, 4], &mut out);
    }

    #[test]
    fn try_merge_validates() {
        let mut out = [0; 4];
        assert_eq!(
            try_merge_into_by(&[1, 2], &[3], &mut out, &|x: &i32, y| x.cmp(y)),
            Err(MergeError::OutputLenMismatch {
                expected: 3,
                actual: 4
            })
        );
        assert_eq!(
            try_merge_into_by(&[2, 1], &[3, 4], &mut out, &|x: &i32, y| x.cmp(y)),
            Err(MergeError::NotSorted {
                input: InputId::A,
                index: 0
            })
        );
        assert_eq!(
            try_merge_into_by(&[1, 2], &[4, 3], &mut out, &|x: &i32, y| x.cmp(y)),
            Err(MergeError::NotSorted {
                input: InputId::B,
                index: 0
            })
        );
        assert!(try_merge_into_by(&[1, 3], &[2, 4], &mut out, &|x: &i32, y| x.cmp(y)).is_ok());
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn stability_ties_from_a_first() {
        // Pair values with provenance to observe stability directly.
        let a = [(5, 'a'), (5, 'b')];
        let b = [(5, 'x'), (5, 'y')];
        let mut out = [(0, '_'); 4];
        merge_into_by(&a, &b, &mut out, &|x, y| x.0.cmp(&y.0));
        assert_eq!(out, [(5, 'a'), (5, 'b'), (5, 'x'), (5, 'y')]);
    }

    #[test]
    fn galloping_handles_long_runs() {
        let a: Vec<i64> = (0..1000).collect();
        let b: Vec<i64> = (1000..1010).collect();
        let mut out = vec![0; 1010];
        galloping_merge_into_by(&a, &b, &mut out, &|x, y| x.cmp(y));
        assert_eq!(out, (0..1010).collect::<Vec<_>>());
        // Reverse configuration.
        galloping_merge_into_by(&b, &a, &mut out, &|x, y| x.cmp(y));
        assert_eq!(out, (0..1010).collect::<Vec<_>>());
    }

    #[test]
    fn galloping_is_stable() {
        let a = [(1, 'a'), (2, 'a'), (2, 'b'), (9, 'a')];
        let b = [(2, 'x'), (2, 'y'), (3, 'x')];
        let mut out = [(0, '_'); 7];
        galloping_merge_into_by(&a, &b, &mut out, &|x, y| x.0.cmp(&y.0));
        assert_eq!(
            out,
            [
                (1, 'a'),
                (2, 'a'),
                (2, 'b'),
                (2, 'x'),
                (2, 'y'),
                (3, 'x'),
                (9, 'a')
            ]
        );
    }

    #[test]
    fn branch_lean_matches_classic() {
        let a: Vec<i64> = (0..500).map(|x| x * 3 % 601).collect::<Vec<_>>();
        let mut a = a;
        a.sort();
        let b: Vec<i64> = {
            let mut b: Vec<i64> = (0..400).map(|x| x * 7 % 353).collect();
            b.sort();
            b
        };
        let mut out1 = vec![0; 900];
        let mut out2 = vec![0; 900];
        merge_into(&a, &b, &mut out1);
        branch_lean_merge_into(&a, &b, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn branch_lean_by_matches_classic_and_is_stable() {
        let a = [(1, 'a'), (2, 'a'), (2, 'b'), (9, 'a')];
        let b = [(2, 'x'), (2, 'y'), (3, 'x')];
        let mut classic = [(0, '_'); 7];
        let mut lean = [(0, '_'); 7];
        let cmp = |x: &(i32, char), y: &(i32, char)| x.0.cmp(&y.0);
        merge_into_by(&a, &b, &mut classic, &cmp);
        branch_lean_merge_into_by(&a, &b, &mut lean, &cmp);
        assert_eq!(classic, lean);
        assert_eq!(lean[1..5], [(2, 'a'), (2, 'b'), (2, 'x'), (2, 'y')]);
    }

    #[test]
    fn gallop_boundaries_empty_slice() {
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        let empty: [i64; 0] = [];
        assert_eq!(gallop_upper(&empty, &5, &cmp), 0);
        assert_eq!(gallop_lower(&empty, &5, &cmp), 0);
    }

    #[test]
    fn gallop_boundaries_first_element_disqualified() {
        // Totality guards: no prefix qualifies, so both searches return 0
        // instead of tripping the old non-empty/first-element precondition.
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        assert_eq!(gallop_upper(&[9i64, 10, 11], &5, &cmp), 0);
        assert_eq!(gallop_lower(&[5i64, 10, 11], &5, &cmp), 0);
    }

    #[test]
    fn gallop_single_run_consumes_everything() {
        // The "run consumes the whole slice" boundary the galloping merge
        // hits on disjoint inputs, across lengths around every power of two
        // the doubling step lands on.
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 1000] {
            let v: Vec<i64> = (0..len as i64).collect();
            let above = len as i64; // strictly greater than every element
            assert_eq!(gallop_upper(&v, &above, &cmp), len, "upper len={len}");
            assert_eq!(gallop_lower(&v, &above, &cmp), len, "lower len={len}");
            // Key equal to the last element: upper keeps the tie, lower
            // stops just before it.
            let last = len as i64 - 1;
            assert_eq!(gallop_upper(&v, &last, &cmp), len, "upper tie len={len}");
            assert_eq!(
                gallop_lower(&v, &last, &cmp),
                len - 1,
                "lower tie len={len}"
            );
        }
    }

    #[test]
    fn gallop_interior_boundaries_match_linear_scan() {
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        let v: Vec<i64> = vec![0, 0, 1, 1, 1, 2, 4, 4, 8, 8, 8, 8, 9];
        for key in -1..=10 {
            let upper = v.iter().take_while(|&&x| x <= key).count();
            let lower = v.iter().take_while(|&&x| x < key).count();
            assert_eq!(gallop_upper(&v, &key, &cmp), upper, "upper key={key}");
            assert_eq!(gallop_lower(&v, &key, &cmp), lower, "lower key={key}");
        }
    }

    #[test]
    fn probed_merge_access_counts_are_linear() {
        let a: Vec<i64> = (0..100).map(|x| 2 * x).collect();
        let b: Vec<i64> = (0..100).map(|x| 2 * x + 1).collect();
        let mut out = vec![0; 200];
        let mut probe = CountingProbe::default();
        merge_into_probed(&a, &b, &mut out, &|x, y| x.cmp(y), &mut probe);
        assert_eq!(probe.writes, 200);
        // Each output step reads at most 2 candidates + 1 element copy.
        assert!(probe.reads_a + probe.reads_b <= 3 * 200);
        assert!(probe.reads_a + probe.reads_b >= 200);
    }

    #[test]
    fn probed_trace_writes_are_sequential() {
        let a = [1i64, 4, 6];
        let b = [2i64, 3, 5];
        let mut out = [0i64; 6];
        let mut probe = TraceProbe::default();
        merge_into_probed(&a, &b, &mut out, &|x, y| x.cmp(y), &mut probe);
        let writes: Vec<usize> = probe
            .events
            .iter()
            .filter_map(|e| match e {
                crate::probe::AccessEvent::WriteOut(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(writes, (0..6).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn all_kernels_match_oracle(
            a in proptest::collection::vec(-100i64..100, 0..200).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..200).prop_map(sorted),
        ) {
            let expect = oracle(&a, &b);
            let n = a.len() + b.len();
            let cmp = |x: &i64, y: &i64| x.cmp(y);

            let mut out = vec![0i64; n];
            merge_into(&a, &b, &mut out);
            prop_assert_eq!(&out, &expect);

            let mut out2 = vec![0i64; n];
            branch_lean_merge_into(&a, &b, &mut out2);
            prop_assert_eq!(&out2, &expect);

            let mut out2b = vec![0i64; n];
            branch_lean_merge_into_by(&a, &b, &mut out2b, &cmp);
            prop_assert_eq!(&out2b, &expect);

            let mut out3 = vec![0i64; n];
            galloping_merge_into_by(&a, &b, &mut out3, &cmp);
            prop_assert_eq!(&out3, &expect);

            let mut out5 = vec![0i64; n];
            let mut probe = CountingProbe::default();
            merge_into_probed(&a, &b, &mut out5, &cmp, &mut probe);
            prop_assert_eq!(&out5, &expect);
            prop_assert_eq!(probe.writes as usize, n);
        }

        #[test]
        fn galloping_comparison_count_beats_linear_on_runs(
            runs in 2usize..8,
            run_len in 50usize..100,
        ) {
            // Alternate long runs between a and b.
            let mut a = Vec::new();
            let mut b = Vec::new();
            let mut next = 0i64;
            for r in 0..runs {
                let dst = if r % 2 == 0 { &mut a } else { &mut b };
                for _ in 0..run_len {
                    dst.push(next);
                    next += 1;
                }
            }
            let counter = Cell::new(0u64);
            let mut out = vec![0i64; a.len() + b.len()];
            let counted = |x: &i64, y: &i64| {
                counter.set(counter.get() + 1);
                x.cmp(y)
            };
            galloping_merge_into_by(&a, &b, &mut out, &counted);
            // Far fewer comparisons than elements.
            prop_assert!(counter.get() < (a.len() + b.len()) as u64 / 2);
            prop_assert_eq!(out, (0..next).collect::<Vec<_>>());
        }
    }
}
