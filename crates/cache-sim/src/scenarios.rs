//! End-to-end cache-behaviour scenarios for the paper's algorithms.
//!
//! Each scenario runs the *real* kernel over real data, captures the exact
//! access trace, converts it to byte addresses under a [`MemoryLayout`],
//! interleaves per-worker streams round-robin (the order a shared cache
//! sees when `p` lockstep cores run together), and replays the result
//! through a fresh [`Cache`]. Every scenario merges into one output buffer
//! and checks it against `merge_into`'s before it returns: a walk whose
//! trace no longer describes a correct merge panics rather than report
//! numbers.
//!
//! The experiments of §IV compare: the basic Algorithm 1 streaming three
//! unbounded arrays vs. Algorithm 2 (SPM) confining the working set to
//! `3L = C` elements — windowed (sliding addresses, as the library's
//! segmented merge runs it) or cyclic (a fixed staging footprint through
//! the [`ring`](crate::ring) buffers, the paper's step 1).

use mergepath::diagonal::{co_rank_by, co_rank_probed};
use mergepath::merge::segmented::SpmConfig;
use mergepath::merge::sequential::{merge_into, merge_into_probed, merge_views_into_probed};
use mergepath::partition::segment_boundary;
use mergepath::probe::{AccessEvent, OffsetProbe, Probe, TraceProbe};
use mergepath::view::SortedView;

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::coherence::{CoherenceStats, CoherentSystem};
use crate::layout::{MemoryLayout, Region};
use crate::probes::{interleave_round_robin, translate_all};
use crate::ring::RingBuffer;

fn cmp_ord<T: Ord>(x: &T, y: &T) -> core::cmp::Ordering {
    x.cmp(y)
}

/// Positions `lo..lo + len` of a view, as a view.
struct Sub<'v, V: ?Sized> {
    view: &'v V,
    lo: usize,
    len: usize,
}

impl<T, V: SortedView<T> + ?Sized> SortedView<T> for Sub<'_, V> {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> &T {
        self.view.get(self.lo + i)
    }
}

/// One worker's share of Algorithm 1 on `a` and `b`, the diagonals
/// `d_lo..d_hi`: the two probed co-ranks of its cuts, then its probed
/// merge into `out[d_lo..d_hi]`, every access reported to `probe` in the
/// coordinates of `a`, `b` and `out`. Returns the co-rank of `d_hi`.
fn merge_share<T, A, B, P>(
    a: &A,
    b: &B,
    d_lo: usize,
    d_hi: usize,
    out: &mut [T],
    probe: &mut P,
) -> usize
where
    T: Ord + Clone,
    A: SortedView<T> + ?Sized,
    B: SortedView<T> + ?Sized,
    P: Probe,
{
    let i_lo = co_rank_probed(d_lo, a, b, &cmp_ord, probe);
    let i_hi = co_rank_probed(d_hi, a, b, &cmp_ord, probe);
    let (j_lo, j_hi) = (d_lo - i_lo, d_hi - i_hi);
    merge_views_into_probed(
        &Sub {
            view: a,
            lo: i_lo,
            len: i_hi - i_lo,
        },
        &Sub {
            view: b,
            lo: j_lo,
            len: j_hi - j_lo,
        },
        &mut out[d_lo..d_hi],
        &cmp_ord,
        &mut OffsetProbe::new(probe, i_lo, j_lo, d_lo),
    );
    i_hi
}

/// Panics unless `out` equals `merge_into`'s merge of `a` and `b`.
fn check_merge<T: Ord + Clone + Default>(a: &[T], b: &[T], out: &[T], scenario: &str) {
    let mut expect = vec![T::default(); out.len()];
    merge_into(a, b, &mut expect);
    if let Some(rank) = out.iter().zip(&expect).position(|(x, y)| x != y) {
        panic!("{scenario}: the traced merge differs from merge_into at rank {rank}");
    }
}

/// Algorithm 1 with `p` workers on the whole arrays: each worker's
/// [`merge_share`] traced into one output, which is checked. Returns the
/// workers' events in whole-array coordinates.
fn share_traces<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    p: usize,
    scenario: &str,
) -> Vec<Vec<AccessEvent>> {
    assert!(p > 0, "at least one core required");
    let n = a.len() + b.len();
    let mut out = vec![T::default(); n];
    let traces = (0..p)
        .map(|k| {
            let (d_lo, d_hi) = (segment_boundary(n, p, k), segment_boundary(n, p, k + 1));
            let mut trace = TraceProbe::default();
            merge_share(a, b, d_lo, d_hi, &mut out, &mut trace);
            trace.events
        })
        .collect();
    check_merge(a, b, &out, scenario);
    traces
}

/// Cache behaviour of the plain sequential merge.
pub fn sequential_merge<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    layout: MemoryLayout,
    cache_cfg: CacheConfig,
) -> CacheStats {
    let mut out = vec![T::default(); a.len() + b.len()];
    let mut trace = TraceProbe::default();
    merge_into_probed(a, b, &mut out, &cmp_ord, &mut trace);
    check_merge(a, b, &out, "sequential_merge");
    Cache::new(cache_cfg).run(translate_all(&layout, &trace.events))
}

/// Cache behaviour of Algorithm 1 with `p` cores sharing one cache.
///
/// Each worker's trace is its two diagonal searches followed by its segment
/// merge; the `p` streams are interleaved round-robin.
pub fn parallel_merge_shared<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    p: usize,
    layout: MemoryLayout,
    cache_cfg: CacheConfig,
) -> CacheStats {
    parallel_merge_shared_prefetch(a, b, p, layout, cache_cfg, 0)
}

/// [`parallel_merge_shared`] on a cache with a next-`degree`-line
/// prefetcher — the §VI x86 configuration ("sophisticated cache
/// management and prefetching"), under which the basic algorithm streams
/// with almost no demand misses and the paper therefore benchmarked it
/// directly.
pub fn parallel_merge_shared_prefetch<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    p: usize,
    layout: MemoryLayout,
    cache_cfg: CacheConfig,
    degree: usize,
) -> CacheStats {
    let streams = share_traces(a, b, p, "parallel_merge_shared")
        .iter()
        .map(|events| translate_all(&layout, events))
        .collect();
    let mut cache = Cache::new(cache_cfg).with_prefetcher(degree);
    cache.run(interleave_round_robin(streams))
}

/// Cache behaviour of Algorithm 2 (SPM) with **windowed** staging: the
/// working set is `3L` elements but slides through the address space.
pub fn spm_windowed_shared<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    spm: &SpmConfig,
    layout: MemoryLayout,
    cache_cfg: CacheConfig,
) -> CacheStats {
    let (na, nb) = (a.len(), b.len());
    let n = na + nb;
    let l = spm.segment_len();
    let p = spm.threads.max(1);
    let mut out = vec![T::default(); n];
    let mut cache = Cache::new(cache_cfg);
    let (mut ai, mut bi, mut oi) = (0usize, 0usize, 0usize);
    while oi < n {
        let wa = &a[ai..na.min(ai + l)];
        let wb = &b[bi..nb.min(bi + l)];
        let step = l.min(n - oi);
        let workers = p.min(step);
        let mut streams = Vec::with_capacity(workers);
        let mut ta = 0;
        for k in 0..workers {
            let (d_lo, d_hi) = (
                segment_boundary(step, workers, k),
                segment_boundary(step, workers, k + 1),
            );
            let mut trace = TraceProbe::default();
            // Window-local searches and merge, rebased to whole-array
            // coordinates; the last worker's upper cut ends the block.
            let mut probe = OffsetProbe::new(&mut trace, ai, bi, oi);
            ta = merge_share(wa, wb, d_lo, d_hi, &mut out[oi..oi + step], &mut probe);
            streams.push(translate_all(&layout, &trace.events));
        }
        cache.run(interleave_round_robin(streams));
        ai += ta;
        bi += step - ta;
        oi += step;
    }
    check_merge(a, b, &out, "spm_windowed_shared");
    cache.stats()
}

/// Cache behaviour of Algorithm 2 (SPM) with **cyclic** staging: inputs are
/// copied through two fixed ring buffers, so the merge phase touches a
/// constant `3L`-element footprint (the paper's step 1).
pub fn spm_cyclic_shared<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    spm: &SpmConfig,
    layout: MemoryLayout,
    cache_cfg: CacheConfig,
) -> CacheStats {
    spm_cyclic_shared_opts(a, b, spm, layout, cache_cfg, false)
}

/// [`spm_cyclic_shared`] with optional **non-temporal output stores**:
/// merge output is written once and never re-read, so real
/// implementations stream it past the cache (`movnt` on x86). With
/// `nt_stores` the output writes bypass the cache model entirely — the
/// merge working set drops from `3L` to `2L`. Ablation C2e sweeps `L`
/// with it to test whether the optimal segment length moves from `C/3` to
/// `C/2`. NT stores cut misses at every `L`, but misses keep falling as
/// `L` shrinks under both store policies, so the sweep shows no optimum
/// at `C/3` or at `C/2` (EXPERIMENTS C2b, C2e).
pub fn spm_cyclic_shared_opts<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    spm: &SpmConfig,
    layout: MemoryLayout,
    cache_cfg: CacheConfig,
    nt_stores: bool,
) -> CacheStats {
    let (na, nb) = (a.len(), b.len());
    let n = na + nb;
    let l = spm.segment_len();
    let p = spm.threads.max(1);
    let mut out = vec![T::default(); n];
    let mut cache = Cache::new(cache_cfg);

    let mut ring_a: RingBuffer<T> = RingBuffer::with_capacity(l);
    let mut ring_b: RingBuffer<T> = RingBuffer::with_capacity(l);
    let (mut fa, mut fb) = (0usize, 0usize);
    let mut oi = 0usize;
    while oi < n {
        // Refill phase: stream reads from the source arrays, writes into
        // the staging rings at their physical slots.
        let refill_a = (l - ring_a.len()).min(na - fa);
        for t in 0..refill_a {
            cache.access(layout.addr(Region::A, fa + t));
            let slot = ring_a.view().physical_index(ring_a.len() + t);
            cache.access(layout.addr(Region::StageA, slot));
        }
        ring_a.refill(&a[fa..fa + refill_a]);
        fa += refill_a;
        let refill_b = (l - ring_b.len()).min(nb - fb);
        for t in 0..refill_b {
            cache.access(layout.addr(Region::B, fb + t));
            let slot = ring_b.view().physical_index(ring_b.len() + t);
            cache.access(layout.addr(Region::StageB, slot));
        }
        ring_b.refill(&b[fb..fb + refill_b]);
        fb += refill_b;

        let (va, vb) = (ring_a.view(), ring_b.view());
        let step = l.min(n - oi);
        let ta = co_rank_by(step, &va, &vb, &cmp_ord);
        let tb = step - ta;
        let (sa, sb) = (va.slice(0, ta), vb.slice(0, tb));

        // Merge phase: per-worker traces over the staged views, reads
        // translated to ring-physical staging slots, interleaved.
        let workers = p.min(step);
        let mut streams = Vec::with_capacity(workers);
        for k in 0..workers {
            let (d_lo, d_hi) = (
                segment_boundary(step, workers, k),
                segment_boundary(step, workers, k + 1),
            );
            let mut trace = TraceProbe::default();
            merge_share(&sa, &sb, d_lo, d_hi, &mut out[oi..oi + step], &mut trace);
            let addrs = trace.events.iter().filter_map(|e| match *e {
                AccessEvent::ReadA(i) => Some(layout.addr(Region::StageA, sa.physical_index(i))),
                AccessEvent::ReadB(j) => Some(layout.addr(Region::StageB, sb.physical_index(j))),
                AccessEvent::WriteOut(_) if nt_stores => None,
                AccessEvent::WriteOut(k) => Some(layout.addr(Region::Out, oi + k)),
            });
            streams.push(addrs.collect());
        }
        cache.run(interleave_round_robin(streams));

        ring_a.consume(ta);
        ring_b.consume(tb);
        oi += step;
    }
    check_merge(a, b, &out, "spm_cyclic_shared");
    cache.stats()
}

/// Output-assignment policy for the private-cache coherence scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputAssignment {
    /// Algorithm 1's contiguous, disjoint output segments.
    Contiguous,
    /// A striped assignment: worker `k` writes output ranks
    /// `k, k + p, k + 2p, …` — every cache line is false-shared by all
    /// workers. A synthetic contrast for §IV.A, not one of the paper's
    /// algorithms.
    Striped,
}

/// Coherence behaviour of Algorithm 1 on `p` *private* caches under MSI
/// (see [`crate::coherence`]). Workers' accesses interleave round-robin.
pub fn parallel_merge_private_caches<T: Ord + Clone + Default>(
    a: &[T],
    b: &[T],
    p: usize,
    layout: MemoryLayout,
    per_core: CacheConfig,
    assignment: OutputAssignment,
) -> CoherenceStats {
    let n = a.len() + b.len();
    // Per-worker (addr, is_write) streams.
    let streams: Vec<Vec<(u64, bool)>> = share_traces(a, b, p, "parallel_merge_private_caches")
        .iter()
        .enumerate()
        .map(|(k, events)| {
            let d_lo = segment_boundary(n, p, k);
            events
                .iter()
                .map(|e| match *e {
                    AccessEvent::ReadA(i) => (layout.addr(Region::A, i), false),
                    AccessEvent::ReadB(j) => (layout.addr(Region::B, j), false),
                    AccessEvent::WriteOut(rank) => {
                        let global = match assignment {
                            OutputAssignment::Contiguous => rank,
                            OutputAssignment::Striped => (rank - d_lo) * p + k,
                        };
                        (layout.addr(Region::Out, global.min(n - 1)), true)
                    }
                })
                .collect()
        })
        .collect();
    // Round-robin interleave with core ids; replay through MSI.
    let mut sys = CoherentSystem::new(p, per_core);
    let mut cursors = vec![0usize; p];
    let mut live = streams.iter().filter(|s| !s.is_empty()).count();
    while live > 0 {
        for (core, (s, cur)) in streams.iter().zip(cursors.iter_mut()).enumerate() {
            if *cur < s.len() {
                let (addr, w) = s[*cur];
                sys.access(core, addr, w);
                *cur += 1;
                if *cur == s.len() {
                    live -= 1;
                }
            }
        }
    }
    sys.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interleaved(n: usize) -> (Vec<u32>, Vec<u32>) {
        let a: Vec<u32> = (0..n as u32).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..n as u32).map(|x| x * 2 + 1).collect();
        (a, b)
    }

    #[test]
    fn sequential_merge_has_streaming_misses_only() {
        let (a, b) = interleaved(4096);
        let layout = MemoryLayout::natural(4, 4096, 4096, 0);
        // Cache far larger than the data.
        let stats = sequential_merge(&a, &b, layout, CacheConfig::new(1 << 20, 8));
        // Compulsory misses: (4096·4/64) per input + double that for out.
        let lines_per_input = 4096 * 4 / 64;
        assert_eq!(stats.misses as usize, 4 * lines_per_input);
    }

    #[test]
    fn parallel_merge_small_cache_misses_more_than_large() {
        let (a, b) = interleaved(8192);
        let layout = MemoryLayout::natural(4, 8192, 8192, 0);
        let small = parallel_merge_shared(&a, &b, 4, layout, CacheConfig::new(4 * 1024, 8));
        let large = parallel_merge_shared(&a, &b, 4, layout, CacheConfig::new(1 << 21, 8));
        assert!(small.misses >= large.misses);
        assert!(large.miss_rate() < 0.05);
    }

    #[test]
    fn spm_windowed_beats_nothing_but_matches_totals() {
        // Sanity: SPM issues at least as many accesses (extra searches) but
        // the same output writes.
        let (a, b) = interleaved(2048);
        let layout = MemoryLayout::natural(4, 2048, 2048, 0);
        let cfg = CacheConfig::new(16 * 1024, 8);
        let spm = SpmConfig::new(cfg.capacity_elems(4), 4);
        let basic = parallel_merge_shared(&a, &b, 4, layout, cfg);
        let seg = spm_windowed_shared(&a, &b, &spm, layout, cfg);
        assert!(seg.accesses() >= basic.accesses() - 16);
    }

    #[test]
    fn spm_cyclic_confines_merge_phase_to_staging() {
        let (a, b) = interleaved(4096);
        let l = 256; // staging rings of 256 elements
        let layout = MemoryLayout::natural(4, 4096, 4096, l as u64);
        // Cache big enough for the staging + output block but tiny compared
        // to the arrays.
        let cfg = CacheConfig::new(8 * 1024, 8);
        let spm = SpmConfig::new(3 * l, 4);
        let stats = spm_cyclic_shared(&a, &b, &spm, layout, cfg);
        // Streaming behaviour: miss count close to the compulsory minimum —
        // each input line is read once (2 regions), staged once (2 rings,
        // but rings are reused so only l/16 lines each), output once.
        let input_lines = 2 * (4096 * 4 / 64);
        let out_lines = 2 * 4096 * 4 / 64;
        let floor = (input_lines + out_lines) as u64;
        assert!(stats.misses >= floor);
        assert!(
            stats.misses < floor + floor / 2,
            "cyclic SPM misses {} far above compulsory floor {floor}",
            stats.misses
        );
    }

    #[test]
    fn adversarial_alignment_thrashes_low_associativity() {
        // The paper's remark: 3-way associativity suffices; below that, the
        // three aligned streams collide.
        let (a, b) = interleaved(8192);
        let cfg1 = CacheConfig {
            capacity_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 1,
        };
        let cfg3 = CacheConfig {
            capacity_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 4,
        };
        let way_bytes = cfg1.capacity_bytes as u64; // direct: whole cache
        let layout = MemoryLayout::set_aligned(4, way_bytes, 0);
        let direct = sequential_merge(&a, &b, layout, cfg1);
        // For the associative config, a way is capacity/assoc bytes.
        let way3 = (cfg3.capacity_bytes / cfg3.associativity) as u64;
        let layout3 = MemoryLayout::set_aligned(4, way3, 0);
        let assoc = sequential_merge(&a, &b, layout3, cfg3);
        assert!(
            direct.miss_rate() > 10.0 * assoc.miss_rate(),
            "direct {} vs assoc {}",
            direct.miss_rate(),
            assoc.miss_rate()
        );
    }

    #[test]
    fn prefetcher_hides_streaming_misses() {
        let (a, b) = interleaved(8192);
        let layout = MemoryLayout::natural(4, 8192, 8192, 0);
        let cfg = CacheConfig::new(64 * 1024, 8);
        let plain = parallel_merge_shared(&a, &b, 4, layout, cfg);
        let pf = parallel_merge_shared_prefetch(&a, &b, 4, layout, cfg, 4);
        assert!(
            pf.misses * 3 < plain.misses,
            "prefetch {} vs plain {}",
            pf.misses,
            plain.misses
        );
        assert!(pf.prefetch_fills > 0);
    }

    #[test]
    fn contiguous_assignment_has_minimal_coherence_traffic() {
        let (a, b) = interleaved(4096);
        let layout = MemoryLayout::natural(4, 4096, 4096, 0);
        let cfg = CacheConfig::new(32 * 1024, 8);
        let cont =
            parallel_merge_private_caches(&a, &b, 4, layout, cfg, OutputAssignment::Contiguous);
        // Only segment-boundary lines can be shared between writers: at
        // most p−1 lines ⇒ a handful of invalidations.
        assert!(
            cont.invalidations <= 8,
            "contiguous output should not false-share: {cont:?}"
        );
        let striped =
            parallel_merge_private_caches(&a, &b, 4, layout, cfg, OutputAssignment::Striped);
        assert!(
            striped.invalidations > 100 * cont.invalidations.max(1),
            "striping must ping-pong: striped {striped:?} vs contiguous {cont:?}"
        );
    }

    #[test]
    fn scenarios_preserve_merge_correctness() {
        // Every scenario checks its own merge against `merge_into`'s and
        // panics on a difference. Runs of equal keys straddle the window,
        // ring and share cuts on a duplicate-heavy pair.
        let a: Vec<u32> = (0..700).map(|x| x / 37).collect();
        let b: Vec<u32> = (0..500).map(|x| x / 23 + 3).collect();
        let spm = SpmConfig::new(96, 3);
        let layout = MemoryLayout::natural(4, 700, 500, spm.segment_len() as u64);
        let cfg = CacheConfig::new(4096, 4);
        let _ = sequential_merge(&a, &b, layout, cfg);
        let _ = parallel_merge_shared(&a, &b, 3, layout, cfg);
        let _ = parallel_merge_shared_prefetch(&a, &b, 3, layout, cfg, 2);
        let _ = spm_windowed_shared(&a, &b, &spm, layout, cfg);
        let _ = spm_cyclic_shared_opts(&a, &b, &spm, layout, cfg, false);
        let _ = spm_cyclic_shared_opts(&a, &b, &spm, layout, cfg, true);
        for assignment in [OutputAssignment::Contiguous, OutputAssignment::Striped] {
            let _ = parallel_merge_private_caches(&a, &b, 3, layout, cfg, assignment);
        }
    }
}
