//! Collection strategies: `vec` and `btree_map`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeMap;

/// Size specification for collection strategies: a fixed `usize`, a
/// `Range<usize>`, or an inclusive range.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.index(self.hi_inclusive - self.lo + 1)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a size drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap<K, V>`; duplicate generated keys collapse, so
/// maps may come out smaller than the drawn size (as in upstream).
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// See [`btree_map`].
#[derive(Clone)]
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.pick(rng);
        (0..n)
            .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn vec_sizes_respect_range() {
        let mut rng = TestRng::seeded(11);
        let strat = vec(any::<u8>(), 2..5);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn fixed_size_vec() {
        let mut rng = TestRng::seeded(12);
        assert_eq!(vec(0u64..9, 4).generate(&mut rng).len(), 4);
    }

    #[test]
    fn btree_map_generates_entries() {
        let mut rng = TestRng::seeded(13);
        let strat = btree_map(0u32..1000, any::<bool>(), 1..8);
        let m = strat.generate(&mut rng);
        assert!(!m.is_empty() && m.len() < 8);
    }
}
