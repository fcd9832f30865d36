//! The branch-lean kernel's AVX2 body: `u32` keys in natural order, eight
//! keys per step.
//!
//! Each co-ranked stream keeps eight loaded, unwritten keys in one register
//! (the *carry*, descending). A step compares the heads of its two inputs
//! once, loads the next eight keys of the side whose head is smaller, and
//! merges them with the carry through a 16-key bitonic network: unsigned
//! `min`/`max` of the block against the carry, then three in-register
//! shuffle stages. It writes the lower eight keys and carries the upper
//! eight. The eight smallest of carry and block are the next eight
//! outputs: the block's eight keys are at most its side's next key, and
//! every carried key is at most the other side's head, which is at least
//! the chosen head. This is the merge step of Chhugani et al.'s SIMD merge
//! sort, run on the thread-level streams of GPU Merge Path (Green, Odeh,
//! Birk, arXiv 1406.2628): `VECTOR_STREAMS` co-ranked streams advance in
//! one loop, so the core overlaps their network latencies.
//!
//! A stream steps while both of its sides hold a full block. Its tail (the
//! carried keys and what is left of each side, fewer than eight on one)
//! finishes on the scalar stream: the keys written so far are the `k`
//! smallest, so the stable co-rank of `k` splits what is left exactly as
//! the scalar kernel would have. Equal `u32` keys are bit-identical, so the
//! output is byte-identical to every other kernel's.
//!
//! The comparator is called once per step and on the tail (its co-rank
//! search and its scalar stream), never by the network, which compares
//! eight pairs per instruction; that is what telemetry's `comparisons`
//! counts for this body (DESIGN.md §8).

use core::arch::x86_64::{
    __m256i, _mm256_blend_epi32, _mm256_loadu_si256, _mm256_max_epu32, _mm256_min_epu32,
    _mm256_permute4x64_epi64, _mm256_permutevar8x32_epi32, _mm256_setr_epi32, _mm256_setzero_si256,
    _mm256_shuffle_epi32, _mm256_storeu_si256,
};
use core::cmp::Ordering;

use super::{branch_lean_stream, co_ranked_streams, STREAM_MIN};
use crate::diagonal::co_rank_by;

/// Keys per register: the block a step loads, and the keys it writes.
const LANES: usize = 8;

/// Co-ranked streams the vector body interleaves (DESIGN.md §10 has the
/// sweep).
const VECTOR_STREAMS: usize = 4;

/// Whether this CPU runs AVX2. The standard library caches the answer
/// after the first call, so each call is one relaxed atomic load.
pub(super) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Stable merge of `a` and `b` into `out`, which must hold
/// `a.len() + b.len()` keys; `cmp` must be `u32`'s natural order.
#[target_feature(enable = "avx2")]
pub(super) fn merge<F>(a: &[u32], b: &[u32], out: &mut [u32], cmp: &F)
where
    F: Fn(&u32, &u32) -> Ordering,
{
    if out.len() < VECTOR_STREAMS * STREAM_MIN {
        run([Stream::new(a, b, out)], cmp);
    } else {
        let (a, b, out) = co_ranked_streams::<_, _, VECTOR_STREAMS>(a, b, out, cmp);
        let mut out = out.into_iter();
        let streams: [Stream<'_>; VECTOR_STREAMS] = core::array::from_fn(|s| {
            Stream::new(a[s], b[s], out.next().expect("one output per stream"))
        });
        run(streams, cmp);
    }
}

/// Steps the streams in lockstep until one of them has no full step left,
/// then each stream alone until it has none, then finishes each one.
#[target_feature(enable = "avx2")]
fn run<F, const S: usize>(mut streams: [Stream<'_>; S], cmp: &F)
where
    F: Fn(&u32, &u32) -> Ordering,
{
    lockstep(&mut streams, cmp);
    for stream in streams {
        let mut one = [stream];
        lockstep(&mut one, cmp);
        let [stream] = one;
        stream.finish(cmp);
    }
}

/// Steps every stream once per round for as long as every one of them has
/// a full step left.
#[target_feature(enable = "avx2")]
fn lockstep<F, const S: usize>(streams: &mut [Stream<'_>; S], cmp: &F)
where
    F: Fn(&u32, &u32) -> Ordering,
{
    loop {
        let steps = streams.iter().map(Stream::steps).min().unwrap_or(0);
        if steps == 0 {
            return;
        }
        for _ in 0..steps {
            for stream in streams.iter_mut() {
                // SAFETY: each step takes one block from one side of its
                // stream, and this loop runs `steps` of them, at most the
                // fewest full blocks any stream has left on either side:
                // every stream has a full step left here.
                unsafe { stream.step(cmp) };
            }
        }
    }
}

/// One co-ranked stream, whose `out` holds `a.len() + b.len()` slots:
/// `a[..i]` and `b[..j]` are loaded, and all of them but the eight keys in
/// `carry` (descending) are written, ascending, to `out[..i + j - 8]`. A
/// stream that starts with fewer than eight keys on a side loads nothing
/// and finishes on the scalar stream.
struct Stream<'s> {
    a: &'s [u32],
    b: &'s [u32],
    out: &'s mut [u32],
    i: usize,
    j: usize,
    carry: __m256i,
}

impl<'s> Stream<'s> {
    /// A stream whose carry is `a`'s first block, when both sides hold one.
    #[target_feature(enable = "avx2")]
    fn new(a: &'s [u32], b: &'s [u32], out: &'s mut [u32]) -> Self {
        // `step`'s stores rely on this length.
        assert_eq!(out.len(), a.len() + b.len(), "stream output length");
        let (i, carry) = if a.len() >= LANES && b.len() >= LANES {
            (LANES, reverse(load(&a[..LANES])))
        } else {
            (0, _mm256_setzero_si256())
        };
        Stream {
            a,
            b,
            out,
            i,
            j: 0,
            carry,
        }
    }

    /// Steps this stream can take before a side runs out of full blocks.
    fn steps(&self) -> usize {
        ((self.a.len() - self.i) / LANES).min((self.b.len() - self.j) / LANES)
    }

    /// Loads the next block of the side with the smaller head, merges it
    /// with the carry, writes the lower eight keys and carries the upper
    /// eight.
    ///
    /// # Safety
    /// `self.steps()` must be at least 1.
    #[target_feature(enable = "avx2")]
    unsafe fn step<F>(&mut self, cmp: &F)
    where
        F: Fn(&u32, &u32) -> Ordering,
    {
        debug_assert!(self.steps() > 0 && self.i >= LANES);
        let written = self.i + self.j - LANES;
        // SAFETY: `steps() ≥ 1` leaves a full block on each side:
        // `i + 8 ≤ a.len()` and `j + 8 ≤ b.len()`, so both heads and the
        // eight keys from each lie inside their slices. The cursors are
        // fields `cmp` cannot reach, so whatever it returns, or if it
        // panics, no bound below is broken.
        let (ha, hb) = unsafe { (self.a.as_ptr().add(self.i), self.b.as_ptr().add(self.j)) };
        // SAFETY: `ha` and `hb` point at keys inside `a` and `b`, as above.
        let (x, y) = unsafe { (&*ha, &*hb) };
        let take_a = cmp(x, y) != Ordering::Greater;
        // A branch here would mispredict on every other step of a fine
        // interleaving: select the pointer without one.
        let src = core::hint::select_unpredictable(take_a, ha, hb);
        self.i += LANES * usize::from(take_a);
        self.j += LANES * usize::from(!take_a);
        // SAFETY: `src` is the head of a side with a full block left, so
        // the eight keys from it lie inside that side's slice.
        let block = unsafe { _mm256_loadu_si256(src.cast()) };
        let (lo, hi) = merge16(block, self.carry);
        self.carry = hi;
        debug_assert!(written + LANES <= self.out.len());
        // SAFETY: before this step `i + 8 ≤ a.len()` and `j + 8 ≤ b.len()`,
        // so `written + 8 = i + j ≤ out.len() − 16`, as `new` asserted
        // `out.len() = a.len() + b.len()`: the eight slots at `written` lie
        // inside `out`, which this stream alone holds.
        unsafe { _mm256_storeu_si256(self.out.as_mut_ptr().add(written).cast::<__m256i>(), lo) };
    }

    /// Writes the carried keys and the rest of both sides on the scalar
    /// stream. The `k` keys written so far are the `k` smallest, so they
    /// are the merge's first `k` outputs, and the stable co-rank of `k`
    /// splits what is left.
    fn finish<F>(self, cmp: &F)
    where
        F: Fn(&u32, &u32) -> Ordering,
    {
        let k = (self.i + self.j).saturating_sub(LANES);
        let i = co_rank_by(k, self.a, self.b, cmp);
        branch_lean_stream(&self.a[i..], &self.b[k - i..], &mut self.out[k..], cmp);
    }
}

/// The first eight keys of `keys`, which must hold at least eight.
#[target_feature(enable = "avx2")]
fn load(keys: &[u32]) -> __m256i {
    assert!(keys.len() >= LANES);
    // SAFETY: `keys` holds at least eight `u32`, asserted just above; the
    // load is unaligned.
    unsafe { _mm256_loadu_si256(keys.as_ptr().cast()) }
}

/// Merges an ascending register `x` with a descending one `carry`: returns
/// the eight smallest of the sixteen keys ascending and the eight largest
/// descending, the next step's carry.
///
/// Batcher's bitonic merge: `x` followed by `carry` rises, then falls.
/// Stage 1 compares them lane by lane, which splits the sixteen keys into
/// the lower and the upper eight, `l` and `h`, each bitonic. Stages 2, 3
/// and 4 compare keys 4, 2 and 1 lanes apart within each register: each
/// swaps the register's lanes in pairs, takes the lanewise `min` and `max`,
/// and blends them so the smaller key lands in the lower lane of `l` and
/// in the upper lane of `h`.
#[target_feature(enable = "avx2")]
fn merge16(x: __m256i, carry: __m256i) -> (__m256i, __m256i) {
    let (l, h) = (_mm256_min_epu32(x, carry), _mm256_max_epu32(x, carry));
    let (l, h) = (
        exchange::<0xF0>(l, _mm256_permute4x64_epi64::<0x4E>(l)),
        exchange::<0x0F>(h, _mm256_permute4x64_epi64::<0x4E>(h)),
    );
    #[cfg(not(mergepath_mutate))]
    let (l, h) = (
        exchange::<0xCC>(l, _mm256_shuffle_epi32::<0x4E>(l)),
        exchange::<0x33>(h, _mm256_shuffle_epi32::<0x4E>(h)),
    );
    // Sensitivity fault for the schedule checker (`--cfg mergepath_mutate`):
    // stage 3 is dropped, so keys two lanes apart are never ordered and
    // most steps write their eight keys out of order.
    (
        exchange::<0xAA>(l, _mm256_shuffle_epi32::<0xB1>(l)),
        exchange::<0x55>(h, _mm256_shuffle_epi32::<0xB1>(h)),
    )
}

/// The compare-exchange of `v` with `partner`, `v`'s lanes swapped in
/// pairs: the larger key of each pair to the lanes set in `MAX_LANES`, the
/// smaller to the others.
#[target_feature(enable = "avx2")]
fn exchange<const MAX_LANES: i32>(v: __m256i, partner: __m256i) -> __m256i {
    _mm256_blend_epi32::<MAX_LANES>(_mm256_min_epu32(v, partner), _mm256_max_epu32(v, partner))
}

/// `v` with its eight lanes in reverse order.
#[target_feature(enable = "avx2")]
fn reverse(v: __m256i) -> __m256i {
    _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::sequential::natural_cmp;

    /// Every pair of ascending 0/1 registers: by the 0-1 principle, a
    /// comparator network that merges all of them merges every input.
    #[test]
    fn merge16_merges_every_pair_of_sorted_zero_one_registers() {
        if !detected() {
            return;
        }
        let zero_one =
            |ones: usize| -> [u32; 8] { core::array::from_fn(|t| u32::from(t >= 8 - ones)) };
        for ones_x in 0..=8 {
            for ones_c in 0..=8 {
                let (x, c) = (zero_one(ones_x), zero_one(ones_c));
                let mut out = [0u32; 16];
                // SAFETY: AVX2 was detected above.
                unsafe { merge16_into(&x, &c, &mut out) };
                let mut want: Vec<u32> = x.iter().chain(&c).copied().collect();
                want.sort_unstable();
                assert_eq!(out.to_vec(), want, "ones {ones_x} + {ones_c}");
            }
        }
    }

    #[target_feature(enable = "avx2")]
    fn merge16_into(x: &[u32; 8], c: &[u32; 8], out: &mut [u32; 16]) {
        let (lo, hi) = merge16(load(x), reverse(load(c)));
        let hi = reverse(hi);
        // SAFETY: `out` holds sixteen keys: eight at 0 and eight at 8.
        unsafe {
            _mm256_storeu_si256(out.as_mut_ptr().cast(), lo);
            _mm256_storeu_si256(out.as_mut_ptr().add(LANES).cast(), hi);
        }
    }

    #[test]
    fn merge_compares_unsigned_at_the_sign_bit() {
        if !detected() {
            return;
        }
        let a: Vec<u32> = (0..40).map(|k| k * 0x0400_0000).collect();
        let b: Vec<u32> = (0..40).map(|k| 0x7FFF_FFF0 + k).collect();
        let mut out = vec![0u32; 80];
        // SAFETY: AVX2 was detected above.
        unsafe { merge(&a, &b, &mut out, &natural_cmp) };
        let mut want = [a, b].concat();
        want.sort_unstable();
        assert_eq!(out, want);
    }
}
