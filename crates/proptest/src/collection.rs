//! Collection strategies (`proptest::collection::vec`).

use core::ops::Range;

use mergepath_workloads::prng::Prng;

use crate::strategy::Strategy;

/// A strategy producing `Vec`s whose length is drawn from `size` and whose
/// elements are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Admissible length ranges for [`vec()`].
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "size range must be non-empty");
        SizeRange {
            lo: r.start,
            hi_exclusive: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_exclusive: n + 1,
        }
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Prng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_span_the_range() {
        let mut rng = Prng::seed_from_u64(3);
        let s = vec(0u32..10, 0..5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v.len() < 5);
            seen[v.len()] = true;
            assert!(v.iter().all(|&x| x < 10));
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn fixed_size_from_usize() {
        let mut rng = Prng::seed_from_u64(4);
        let s = vec(0i64..3, 7usize);
        assert_eq!(s.generate(&mut rng).len(), 7);
    }

    #[test]
    fn nested_vec_of_vec() {
        let mut rng = Prng::seed_from_u64(5);
        let s = vec(vec(0u8..2, 0..4), 1..3);
        let vv = s.generate(&mut rng);
        assert!(!vv.is_empty() && vv.len() < 3);
    }
}
