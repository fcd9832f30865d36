//! Shiloach–Vishkin-style rank partitioning (the paper's reference \[6\]).
//!
//! The workload is split by slicing `A` into `p` equal chunks and
//! co-partitioning `B` at the ranks of the chunk boundaries. This is
//! *correct* (unlike the naive split — the output ranges are genuine merge-
//! path segments) but **not load balanced**: processor `k` always receives
//! `|A|/p` elements of `A`, plus however many elements of `B` fall between
//! two consecutive `A` boundary values — on uniform data up to about
//! `2N/p`, and up to `|A|/p + |B|` on adversarial data. The paper (§V)
//! points out that with tight constants such imbalance translates directly
//! into a 2× latency hit, which Merge Path's equisized segments avoid
//! (Corollary 7).

use core::cmp::Ordering;

use mergepath::merge::kway::lower_bound_by;
use mergepath::merge::sequential::merge_into_by;
use mergepath::partition::Segment;

/// Computes the rank-partitioned segments: equal `A`-chunks, `B` split at
/// the ranks of the `A` chunk boundaries.
pub fn rank_partition_segments<T: Ord>(a: &[T], b: &[T], p: usize) -> Vec<Segment> {
    rank_partition_segments_by(a, b, p, &|x: &T, y: &T| x.cmp(y))
}

/// [`rank_partition_segments`] with a comparator.
pub fn rank_partition_segments_by<T, F>(a: &[T], b: &[T], p: usize, cmp: &F) -> Vec<Segment>
where
    F: Fn(&T, &T) -> Ordering,
{
    assert!(p > 0, "at least one processor required");
    let mut segments = Vec::with_capacity(p);
    let mut prev = (0usize, 0usize);
    for k in 1..=p {
        let a_end = k * a.len() / p;
        // Stability: B elements equal to the boundary value stay to the
        // right (they come after equal A elements).
        let b_end = if k == p {
            b.len()
        } else if a_end == 0 {
            0
        } else {
            lower_bound_by(b, &a[a_end - 1], cmp).max(prev.1)
        };
        segments.push(Segment {
            a_start: prev.0,
            a_end,
            b_start: prev.1,
            b_end,
            out_start: prev.0 + prev.1,
            out_end: a_end + b_end,
        });
        prev = (a_end, b_end);
    }
    segments
}

/// Correct (but imbalanced) parallel merge using the rank partition.
pub fn rank_partition_merge_into<T>(a: &[T], b: &[T], out: &mut [T], p: usize)
where
    T: Ord + Clone + Send + Sync,
{
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "output length must equal |A| + |B|"
    );
    let cmp = |x: &T, y: &T| x.cmp(y);
    let segments = rank_partition_segments_by(a, b, p, &cmp);
    std::thread::scope(|scope| {
        let mut rest = out;
        for (idx, s) in segments.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(s.len());
            rest = tail;
            let (sa, sb) = (&a[s.a_start..s.a_end], &b[s.b_start..s.b_end]);
            let mut work = move || merge_into_by(sa, sb, chunk, &cmp);
            if idx + 1 == segments.len() {
                work();
            } else {
                scope.spawn(work);
            }
        }
    });
}

/// Load-imbalance ratio `max segment / mean segment` of the rank partition
/// (1.0 = perfect). Merge Path guarantees ≤ `1 + p/N`; this scheme does not.
pub fn rank_partition_imbalance<T: Ord>(a: &[T], b: &[T], p: usize) -> f64 {
    let segments = rank_partition_segments(a, b, p);
    let total: usize = segments.iter().map(Segment::len).sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / p as f64;
    let max = segments.iter().map(Segment::len).max().unwrap_or(0);
    max as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    fn oracle(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut out = vec![0; a.len() + b.len()];
        mergepath::merge::sequential::merge_into(a, b, &mut out);
        out
    }

    #[test]
    fn produces_correct_merge() {
        let a: Vec<i64> = (0..1000).map(|x| x * 3).collect();
        let b: Vec<i64> = (0..800).map(|x| x * 4 + 1).collect();
        let mut out = vec![0; 1800];
        rank_partition_merge_into(&a, &b, &mut out, 6);
        assert_eq!(out, oracle(&a, &b));
    }

    #[test]
    fn segments_tile_inputs() {
        let a: Vec<i64> = (0..97).collect();
        let b: Vec<i64> = (0..53).map(|x| x * 2).collect();
        let segs = rank_partition_segments(&a, &b, 5);
        assert_eq!(segs.len(), 5);
        assert_eq!(segs[0].a_start, 0);
        assert_eq!(segs.last().unwrap().a_end, 97);
        assert_eq!(segs.last().unwrap().b_end, 53);
        for w in segs.windows(2) {
            assert_eq!(w[0].a_end, w[1].a_start);
            assert_eq!(w[0].b_end, w[1].b_start);
        }
    }

    #[test]
    fn imbalance_on_adversarial_input() {
        // All of B falls inside the last A-chunk's value range: the last
        // processor gets |A|/p + |B| elements.
        let a: Vec<i64> = (0..1000).collect();
        let b: Vec<i64> = vec![999; 500]; // all equal to A's max
        let p = 4;
        let imb = rank_partition_imbalance(&a, &b, p);
        // Last segment: 250 + 500 = 750 of 1500 total; mean 375 → ratio 2.0.
        assert!(imb > 1.9, "expected heavy imbalance, got {imb}");
        // Merge Path on the same input is perfectly balanced.
        let segs = mergepath::partition::partition_segments(&a, &b, p);
        let max = segs.iter().map(|s| s.len()).max().unwrap();
        let min = segs.iter().map(|s| s.len()).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn near_balance_on_uniform_like_input() {
        let a: Vec<i64> = (0..10_000).map(|x| x * 7 % 65_536).collect::<Vec<_>>();
        let a = sorted(a);
        let b: Vec<i64> = sorted((0..10_000).map(|x| x * 13 % 65_536).collect());
        let imb = rank_partition_imbalance(&a, &b, 8);
        assert!(imb < 1.5, "uniform data should be mildly imbalanced: {imb}");
    }

    proptest! {
        #[test]
        fn always_correct_despite_imbalance(
            a in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            b in proptest::collection::vec(-100i64..100, 0..150).prop_map(sorted),
            p in 1usize..8,
        ) {
            let mut out = vec![0; a.len() + b.len()];
            rank_partition_merge_into(&a, &b, &mut out, p);
            prop_assert_eq!(out, oracle(&a, &b));
        }

        #[test]
        fn segments_cover_exactly(
            a in proptest::collection::vec(-50i64..50, 0..100).prop_map(sorted),
            b in proptest::collection::vec(-50i64..50, 0..100).prop_map(sorted),
            p in 1usize..8,
        ) {
            let segs = rank_partition_segments(&a, &b, p);
            let ta: usize = segs.iter().map(|s| s.a_len()).sum();
            let tb: usize = segs.iter().map(|s| s.b_len()).sum();
            prop_assert_eq!(ta, a.len());
            prop_assert_eq!(tb, b.len());
        }
    }
}
