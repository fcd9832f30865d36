//! Adaptive per-segment kernel dispatch.
//!
//! Algorithm 1 (paper §III) makes every output segment a fully independent
//! sequential merge, which licenses choosing a *different* sequential
//! kernel per segment. Here a segment is one of Algorithm 1's *tiles*
//! ([`crate::partition::tile_count`]): `p` of them for small merges, up to
//! four per thread above `2 · TILE_MIN` outputs, so a pair whose run
//! structure changes along the merge path gets a kernel per region, even
//! on one thread. This module picks between the three kernels of
//! [`super::sequential`] — classic two-pointer, branch-lean, galloping —
//! with a cheap run-structure probe sampled at the segment's diagonal
//! endpoints (plus a handful of interior path points for large segments):
//!
//! * disjoint key ranges at the endpoints ⇒ the merge path hugs one axis
//!   and [`galloping_merge_into_by`] degenerates to two block copies;
//! * long within-side tie runs (provable with one comparison per sample,
//!   because the inputs are sorted) ⇒ galloping collapses each tie class
//!   into `O(log run)` comparisons — unless the comparator is *not* a
//!   provable primitive natural order, in which case equal elements are
//!   distinguishable and the duplicate-heavy segment routes to the
//!   provably stable co-rank block kernel ([`super::stable`]);
//! * the path hugging an axis for ≥ [`RUN_LEN`] steps at sampled interior
//!   diagonals ⇒ coarse interleaving, again galloping territory;
//! * otherwise fine, tie-free interleaving ⇒
//!   [`branch_lean_merge_into_by`] dodges the per-element branch
//!   misprediction that the classic loop pays on unpredictable inputs.
//!
//! Every kernel produces byte-identical output (the oracle differential
//! suite pins this down), so the choice is *purely* a performance decision.
//! It is also a value, never process state: [`probe_segment`] names a
//! kernel, and [`SegmentKernel::merge_into_by`] runs a named kernel on one
//! segment — the one way a benchmark or a test forces a kernel.

use core::any::TypeId;
use core::cell::Cell;
use core::cmp::Ordering;
use core::marker::PhantomData;

use mergepath_telemetry::{counted_cmp, span, CounterKind, Recorder, SpanKind};

use super::sequential::{
    branch_lean_merge_into_by, galloping_merge_into_by, merge_into_by, natural_cmp,
};
use super::stable::co_rank_merge_into_by;
use crate::diagonal::co_rank_by;

/// Segments shorter than this skip the probe entirely and run the classic
/// kernel: at this size neither alternative amortizes its setup.
pub const PROBE_MIN_LEN: usize = 256;

/// Run length the probes test for. One comparison per sample is conclusive
/// at this distance because the inputs are sorted (`a[i] == a[i+RUN_LEN]`
/// proves the whole stretch is one tie class; `a[i+RUN_LEN] <= b[j]` proves
/// the path emits at least `RUN_LEN` consecutive elements from `a`).
pub const RUN_LEN: usize = 16;

/// Sample points per side for the within-side duplicate-run probe.
const DUP_SAMPLES: usize = 8;

/// Interior diagonals co-ranked by the path-hug probe.
const DIAG_SAMPLES: usize = 4;

/// Minimum segment length before the path-hug probe pays for its
/// `DIAG_SAMPLES` binary searches.
const RUN_PROBE_MIN: usize = 4096;

/// Which sequential kernel merges a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegmentKernel {
    /// Classic two-pointer merge ([`merge_into_by`]).
    Classic,
    /// Branchless-select merge ([`branch_lean_merge_into_by`]).
    BranchLean,
    /// Exponential-search run merge ([`galloping_merge_into_by`]).
    Galloping,
    /// Co-rank stable block merge
    /// ([`co_rank_merge_into_by`](super::stable::co_rank_merge_into_by)):
    /// subdivides the output into exact blocks whose boundaries are the
    /// *unique* stable splits (ties broken A-before-B by global index), so
    /// stability is a proved property of every block cut rather than an
    /// emergent one. The probe prefers it on duplicate-heavy segments whose
    /// comparator is not a provable primitive natural order — exactly where
    /// stability is observable.
    CoRank,
}

impl SegmentKernel {
    /// All kernels, in the order telemetry and bench artifacts list them.
    pub const ALL: [SegmentKernel; 4] = [
        SegmentKernel::Classic,
        SegmentKernel::BranchLean,
        SegmentKernel::Galloping,
        SegmentKernel::CoRank,
    ];

    /// Stable lowercase name (telemetry and bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            SegmentKernel::Classic => "classic",
            SegmentKernel::BranchLean => "branch_lean",
            SegmentKernel::Galloping => "galloping",
            SegmentKernel::CoRank => "co_rank",
        }
    }

    /// The per-share "this kernel won" telemetry counter.
    pub fn counter(self) -> CounterKind {
        match self {
            SegmentKernel::Classic => CounterKind::SegmentsClassic,
            SegmentKernel::BranchLean => CounterKind::SegmentsBranchLean,
            SegmentKernel::Galloping => CounterKind::SegmentsGalloping,
            SegmentKernel::CoRank => CounterKind::SegmentsCoRank,
        }
    }

    /// Stable merge of one segment with this kernel: ties take from `a`
    /// first, and the output is byte-identical to [`merge_into_by`] for
    /// every kernel. Each kernel is safe sequential code that writes only
    /// `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != a.len() + b.len()`.
    pub fn merge_into_by<T: Clone, F>(self, a: &[T], b: &[T], out: &mut [T], cmp: &F)
    where
        F: Fn(&T, &T) -> Ordering,
    {
        match self {
            SegmentKernel::Classic => merge_into_by(a, b, out, cmp),
            SegmentKernel::BranchLean => branch_lean_merge_into_by(a, b, out, cmp),
            SegmentKernel::Galloping => galloping_merge_into_by(a, b, out, cmp),
            SegmentKernel::CoRank => co_rank_merge_into_by(a, b, out, cmp),
        }
    }
}

/// The pure run-structure probe: inspects `a` and `b` (one partitioned
/// segment's inputs) and names the kernel expected to merge them fastest.
/// Spends `O(log)` comparisons.
pub fn probe_segment<T, F>(a: &[T], b: &[T], cmp: &F) -> SegmentKernel
where
    F: Fn(&T, &T) -> Ordering,
{
    let (na, nb) = (a.len(), b.len());
    // Tail-copy and short segments: the classic loop is already optimal
    // and a probe would not amortize.
    if na == 0 || nb == 0 || na + nb < PROBE_MIN_LEN {
        return SegmentKernel::Classic;
    }
    // Diagonal endpoints: barely-overlapping key ranges mean the path hugs
    // one axis end to end and galloping degenerates to two block copies.
    if cmp(&a[na - 1], &b[0]) != Ordering::Greater || cmp(&b[nb - 1], &a[0]) == Ordering::Less {
        return SegmentKernel::Galloping;
    }
    // Within-side duplicate runs (tie classes of length >= RUN_LEN).
    let mut dup_a = 0usize;
    let mut dup_b = 0usize;
    for q in 0..DUP_SAMPLES {
        let i = (2 * q + 1) * na / (2 * DUP_SAMPLES);
        let j = (2 * q + 1) * nb / (2 * DUP_SAMPLES);
        if i + RUN_LEN < na && cmp(&a[i], &a[i + RUN_LEN]) == Ordering::Equal {
            dup_a += 1;
        }
        if j + RUN_LEN < nb && cmp(&b[j], &b[j + RUN_LEN]) == Ordering::Equal {
            dup_b += 1;
        }
    }
    if dup_a >= DUP_SAMPLES / 2 || dup_b >= DUP_SAMPLES / 2 {
        // Duplicate-heavy segments split on whether stability is
        // *observable*: under a provable primitive natural order an
        // element is its key and equal elements are interchangeable, so
        // galloping's tie-class collapse wins outright. Any other
        // comparator (keyed pairs, ad-hoc closures) can distinguish equal
        // elements — the territory of the co-rank kernel, whose block
        // splits are the provably unique stable cuts and whose balance is
        // immune to tie-run skew.
        return if natural_order_eligible::<T, F>(cmp) {
            SegmentKernel::Galloping
        } else {
            SegmentKernel::CoRank
        };
    }
    // Path-hug probe: co-rank a few interior diagonals (true path points)
    // and ask whether the path stays on one axis for >= RUN_LEN steps.
    if na + nb >= RUN_PROBE_MIN {
        let n = na + nb;
        let mut hugging = 0usize;
        for q in 1..=DIAG_SAMPLES {
            let d = q * n / (DIAG_SAMPLES + 1);
            let i = co_rank_by(d, a, b, cmp);
            let j = d - i;
            if i >= na || j >= nb {
                // One input exhausted mid-path: the remainder is a single
                // run from the other side.
                hugging += 1;
                continue;
            }
            let run_a = i + RUN_LEN < na && cmp(&a[i + RUN_LEN], &b[j]) != Ordering::Greater;
            let run_b = j + RUN_LEN < nb && cmp(&b[j + RUN_LEN], &a[i]) == Ordering::Less;
            if run_a || run_b {
                hugging += 1;
            }
        }
        if hugging >= DIAG_SAMPLES.div_ceil(2) {
            return SegmentKernel::Galloping;
        }
    }
    // Fine-grained, tie-free interleaving: spend a couple of ALU ops per
    // element to dodge the data-dependent select branch.
    SegmentKernel::BranchLean
}

/// Whether `F` is the [`natural_cmp`] function item of `u32`, `i32`, `u64`
/// or `i64` — which forces `T` to be that primitive, because a function
/// item implements `Fn(&T, &T) -> Ordering` for exactly its own signature.
/// An element is then its own key: equal elements are bit-identical and
/// stability is not observable. Decided by comparator *type identity*, so
/// a semantically identical closure (or telemetry's counting wrapper)
/// answers `false`. The function items carry no lifetime parameters, so
/// the lifetime-erased `TypeId` comparison cannot collide.
fn natural_order_eligible<T, F>(_cmp: &F) -> bool
where
    F: Fn(&T, &T) -> Ordering,
{
    let f = non_static_type_id::<F>();
    [
        type_id_of_val(&natural_cmp::<u32>),
        type_id_of_val(&natural_cmp::<i32>),
        type_id_of_val(&natural_cmp::<u64>),
        type_id_of_val(&natural_cmp::<i64>),
    ]
    .contains(&f)
}

/// `TypeId` of `T` ignoring lifetimes (so non-`'static` comparator types,
/// e.g. closures capturing references, can still be *compared against* the
/// `'static` function items of [`natural_cmp`]).
fn non_static_type_id<T: ?Sized>() -> TypeId {
    trait NonStaticAny {
        fn get_type_id(&self) -> TypeId
        where
            Self: 'static;
    }
    impl<T: ?Sized> NonStaticAny for PhantomData<T> {
        fn get_type_id(&self) -> TypeId
        where
            Self: 'static,
        {
            TypeId::of::<T>()
        }
    }
    let phantom = PhantomData::<T>;
    let erased: &dyn NonStaticAny = &phantom;
    // SAFETY: `dyn NonStaticAny` and `dyn NonStaticAny + 'static` have the
    // same layout and vtable; the `Self: 'static` bound on `get_type_id`
    // exists only so `TypeId::of` is nameable and the method reads nothing
    // from `self` (the receiver is a borrowed ZST). Widening the trait
    // object's lifetime bound for the duration of this call therefore
    // cannot let any reference dangle. (This is the well-known
    // lifetime-erased `TypeId` idiom.)
    let erased: &(dyn NonStaticAny + 'static) = unsafe { core::mem::transmute(erased) };
    erased.get_type_id()
}

/// Lifetime-erased `TypeId` of a value — used to fingerprint the
/// [`natural_cmp`] function items.
fn type_id_of_val<T: ?Sized>(_val: &T) -> TypeId {
    non_static_type_id::<T>()
}

/// Stable merge of one segment through the kernel [`probe_segment`]
/// chooses, reported on logical worker `worker` of `rec`: a
/// `segment_merge` span, the merge's comparisons, and one count on the
/// chosen kernel's "segments won" counter. Returns the choice.
///
/// The probe sees `cmp` itself and only the merge compares through
/// [`counted_cmp`]: probing the counting wrapper would lose the
/// comparator's type identity, so a traced natural-order merge would send
/// its duplicate-heavy segments to co-rank where the untraced one gallops.
/// Under [`NoRecorder`](mergepath_telemetry::NoRecorder) the span and the
/// counts compile away. Output is byte-identical to [`merge_into_by`] for
/// every choice.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn adaptive_merge_into_by<T: Clone, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    cmp: &F,
    rec: &R,
    worker: usize,
) -> SegmentKernel
where
    F: Fn(&T, &T) -> Ordering,
    R: Recorder,
{
    let hits = Cell::new(0u64);
    let kernel = {
        let _merge = span(rec, worker, SpanKind::SegmentMerge);
        let kernel = probe_segment(a, b, cmp);
        kernel.merge_into_by(a, b, out, &counted_cmp(rec, cmp, &hits));
        kernel
    };
    rec.counter_add(worker, kernel.counter(), 1);
    rec.counter_add(worker, CounterKind::Comparisons, hits.get());
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath_telemetry::NoRecorder;

    fn cmp(x: &i64, y: &i64) -> Ordering {
        x.cmp(y)
    }

    /// Tiny deterministic generator (SplitMix64) for probe-distribution
    /// tests; the core crate cannot depend on `mergepath-workloads`.
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
    fn probe_prefers_classic_for_short_or_one_sided_segments() {
        let a: Vec<i64> = (0..100).collect();
        let b: Vec<i64> = (0..100).map(|x| x * 2 + 1).collect();
        assert_eq!(probe_segment(&a, &b, &cmp), SegmentKernel::Classic);
        let long: Vec<i64> = (0..10_000).collect();
        let empty: Vec<i64> = vec![];
        assert_eq!(probe_segment(&long, &empty, &cmp), SegmentKernel::Classic);
        assert_eq!(probe_segment(&empty, &long, &cmp), SegmentKernel::Classic);
    }

    #[test]
    fn probe_detects_disjoint_and_all_equal_endpoints() {
        let lo: Vec<i64> = (0..500).collect();
        let hi: Vec<i64> = (10_000..10_500).collect();
        assert_eq!(probe_segment(&lo, &hi, &cmp), SegmentKernel::Galloping);
        assert_eq!(probe_segment(&hi, &lo, &cmp), SegmentKernel::Galloping);
        let ties = vec![7i64; 400];
        assert_eq!(probe_segment(&ties, &ties, &cmp), SegmentKernel::Galloping);
    }

    #[test]
    fn probe_detects_duplicate_heavy_sides() {
        // ~64-element tie classes on both sides, overlapping ranges (so the
        // endpoint shortcut does not fire). The local `cmp` fn is *not* the
        // canonical natural_cmp, so stability is observable and the probe
        // must pick the provably stable co-rank kernel.
        let a = random_sorted(4_000, 60, 1);
        let b = random_sorted(4_000, 60, 2);
        assert_eq!(probe_segment(&a, &b, &cmp), SegmentKernel::CoRank);
        // Under the canonical natural order an element is its key, so
        // galloping's tie-class collapse keeps the duplicate-heavy arm.
        assert_eq!(
            probe_segment(&a, &b, &natural_cmp::<i64>),
            SegmentKernel::Galloping
        );
    }

    #[test]
    fn probe_detects_coarse_runs_via_interior_diagonals() {
        // Alternating 1024-element runs: distinct keys (no tie classes),
        // overlapping ranges, but the path hugs an axis for ~1024 steps.
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut next = 0i64;
        for r in 0..16 {
            let dst = if r % 2 == 0 { &mut a } else { &mut b };
            for _ in 0..1024 {
                dst.push(next);
                next += 1;
            }
        }
        assert_eq!(probe_segment(&a, &b, &cmp), SegmentKernel::Galloping);
    }

    #[test]
    fn probe_prefers_branch_lean_on_fine_uniform_interleaving() {
        let a = random_sorted(50_000, u64::MAX / 2, 3);
        let b = random_sorted(50_000, u64::MAX / 2, 4);
        assert_eq!(probe_segment(&a, &b, &cmp), SegmentKernel::BranchLean);
    }

    #[test]
    fn every_choice_is_byte_identical_to_the_classic_oracle() {
        let inputs: Vec<(Vec<i64>, Vec<i64>)> = vec![
            (random_sorted(700, 9, 5), random_sorted(900, 9, 6)),
            (
                random_sorted(700, u64::MAX, 7),
                random_sorted(900, u64::MAX, 8),
            ),
            ((0..600).collect(), (300..1200).collect()),
            (vec![], (0..900).collect()),
        ];
        for (a, b) in &inputs {
            let mut oracle = vec![0i64; a.len() + b.len()];
            merge_into_by(a, b, &mut oracle, &cmp);
            for kernel in SegmentKernel::ALL {
                let mut out = vec![0i64; oracle.len()];
                kernel.merge_into_by(a, b, &mut out, &cmp);
                assert_eq!(out, oracle, "{kernel:?}");
            }
            let mut out = vec![0i64; oracle.len()];
            let chosen = adaptive_merge_into_by(a, b, &mut out, &cmp, &NoRecorder, 0);
            assert_eq!(out, oracle, "probe chose {chosen:?}");
            assert_eq!(
                chosen,
                probe_segment(a, b, &cmp),
                "the probe must be obeyed"
            );
        }
    }

    /// `len` sorted keys of type `K`, each `key` of a uniform 32-bit draw:
    /// any two such sides interleave finely and almost without ties.
    fn uniform_sorted<K: Ord>(len: usize, seed: u64, key: impl Fn(u64) -> K) -> Vec<K> {
        let mut rng = Mix(seed);
        let mut v: Vec<K> = (0..len).map(|_| key(rng.next() >> 32)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn probe_routes_fine_uniform_interleaving_of_every_natural_primitive_to_branch_lean() {
        fn check<K: Ord + 'static>(key: impl Fn(u64) -> K + Copy) {
            let a = uniform_sorted(50_000, 9, key);
            let b = uniform_sorted(50_000, 10, key);
            assert_eq!(
                probe_segment(&a, &b, &natural_cmp::<K>),
                SegmentKernel::BranchLean,
                "{}",
                core::any::type_name::<K>()
            );
        }
        check(|x| x as u32);
        check(|x| x as i32);
        check(|x| x << 16);
        check(|x| (x as i64) - (1 << 31));
    }

    #[test]
    fn natural_order_eligible_names_exactly_the_four_primitive_natural_cmps() {
        assert!(natural_order_eligible::<u32, _>(&natural_cmp::<u32>));
        assert!(natural_order_eligible::<i32, _>(&natural_cmp::<i32>));
        assert!(natural_order_eligible::<u64, _>(&natural_cmp::<u64>));
        assert!(natural_order_eligible::<i64, _>(&natural_cmp::<i64>));
        // A semantically identical closure is not the function item.
        let closure = |x: &u32, y: &u32| x.cmp(y);
        assert!(!natural_order_eligible::<u32, _>(&closure));
        // Nor is a payload-carrying element type under its own natural_cmp.
        assert!(!natural_order_eligible::<(u32, u32), _>(
            &natural_cmp::<(u32, u32)>
        ));
        assert!(!natural_order_eligible::<u8, _>(&natural_cmp::<u8>));
        // Telemetry's counting wrapper hides the identity, which is why
        // the probe is handed the raw comparator.
        let hits = Cell::new(0u64);
        let counted = counted_cmp::<_, u32, _>(&NoRecorder, &natural_cmp, &hits);
        assert!(!natural_order_eligible::<u32, _>(&counted));
    }

    #[test]
    fn kernel_names_and_counters_are_stable() {
        assert_eq!(SegmentKernel::Classic.name(), "classic");
        assert_eq!(SegmentKernel::BranchLean.name(), "branch_lean");
        assert_eq!(SegmentKernel::Galloping.name(), "galloping");
        assert_eq!(SegmentKernel::CoRank.name(), "co_rank");
        for kernel in SegmentKernel::ALL {
            assert_eq!(
                kernel.counter().name(),
                format!("segments_{}", kernel.name())
            );
        }
    }
}
