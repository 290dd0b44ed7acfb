//! A multimap on top of [`AugTree`]: multiple values per key.
//!
//! The substrate of Theorem 2.2 and Appendix A: the paper keeps its
//! Type 2 `T_pivot` (§5.1, Algorithm 3 line 21 — a map from *pivot* to
//! the objects waiting on it) in such a multimap, implemented as a
//! nested BST (Appendix A, "Parallel Nested BSTs"). We store entries
//! keyed by the `(key, value)` pair, which gives the same Theorem 2.2
//! bounds with one tree level — `multi_find` of a batch of `m` keys
//! returning `s` total values costs `O((m + s) log n)` work. The
//! `phase-parallel` Type 2 engine does not use it: each object waits on
//! one pivot at a time and each pivot's waiters are read once, so flat
//! intrusive lists do the same job in `O(1)` per wait; its tests use
//! this multimap as their reference.

use crate::augment::{Augment, NoAug};
use crate::tree::AugTree;
use rayon::prelude::*;

/// Pair augmentation adapter: exposes a `(K, V)`-keyed tree as `K → {V}`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairAug;

impl<K, V> Augment<(K, V), ()> for PairAug {
    type A = ();
    fn identity(&self) {}
    fn base(&self, _: &(K, V), _: &()) {}
    fn combine(&self, _: &(), _: &()) {}
}

/// An ordered multimap `K → {V}` with parallel batch operations.
pub struct Multimap<K, V> {
    inner: AugTree<(K, V), (), NoAug>,
}

impl<K, V> Default for Multimap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Ord + Clone + Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Multimap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Ord + Clone + Send + Sync,
{
    /// An empty multimap.
    pub fn new() -> Self {
        Self {
            inner: AugTree::new(NoAug),
        }
    }

    /// Build from `(key, value)` pairs (duplicate pairs collapse).
    pub fn build(pairs: Vec<(K, V)>) -> Self {
        Self {
            inner: AugTree::build(NoAug, pairs.into_par_iter().map(|p| (p, ())).collect()),
        }
    }

    /// Total number of stored pairs.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True iff no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Insert one pair. `O(log n)`.
    pub fn insert(&mut self, key: K, val: V) {
        self.inner.insert((key, val), ());
    }

    /// Insert a batch of pairs in parallel (Theorem 2.2).
    pub fn multi_insert(&mut self, pairs: Vec<(K, V)>) {
        self.inner
            .multi_insert(pairs.into_par_iter().map(|p| (p, ())).collect());
    }

    /// All values stored under `key`, in order.
    pub fn find_all(&self, key: &K) -> Vec<V>
    where
        V: Bounded,
    {
        self.inner
            .range_entries(&(key.clone(), V::min_val()), &(key.clone(), V::max_val()))
            .into_iter()
            .map(|((_, v), ())| v)
            .collect()
    }

    /// All values stored under any key in `keys`, concatenated
    /// (Algorithm 3 line 27: `T_pivot.multi_find(frontier)`).
    /// `O((m + s) log n)` work for `m` keys and `s` results.
    pub fn multi_find(&self, keys: &[K]) -> Vec<V>
    where
        V: Bounded,
    {
        let per_key: Vec<Vec<V>> = keys.par_iter().map(|k| self.find_all(k)).collect();
        let mut out = Vec::with_capacity(per_key.iter().map(Vec::len).sum());
        for mut v in per_key {
            out.append(&mut v);
        }
        out
    }

    /// Remove every pair with a key in `keys`.
    pub fn multi_delete_keys(&mut self, keys: &[K])
    where
        V: Bounded,
    {
        let pairs: Vec<(K, V)> = keys
            .par_iter()
            .flat_map_iter(|k| {
                let vals = self.find_all(k);
                let k = k.clone();
                vals.into_iter().map(move |v| (k.clone(), v))
            })
            .collect();
        self.inner.multi_delete(pairs.into_iter().collect());
    }
}

/// Types with min/max sentinels, needed for key-range extraction.
pub trait Bounded {
    /// The least value of the type.
    fn min_val() -> Self;
    /// The greatest value of the type.
    fn max_val() -> Self;
}

macro_rules! impl_bounded {
    ($($t:ty),*) => {$(
        impl Bounded for $t {
            fn min_val() -> Self { <$t>::MIN }
            fn max_val() -> Self { <$t>::MAX }
        }
    )*};
}
impl_bounded!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_find_all() {
        let mut m: Multimap<u64, u32> = Multimap::new();
        m.insert(1, 10);
        m.insert(1, 20);
        m.insert(2, 30);
        m.insert(1, 15);
        assert_eq!(m.find_all(&1), vec![10, 15, 20]);
        assert_eq!(m.find_all(&2), vec![30]);
        assert_eq!(m.find_all(&3), Vec::<u32>::new());
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn multi_find_like_tpivot() {
        // Algorithm 3 line 21: T_pivot = {(0, i) : i = 1..n}.
        let n = 1000u32;
        let m = Multimap::build((1..=n).map(|i| (0u64, i)).collect());
        let todo = m.multi_find(&[0]);
        assert_eq!(todo.len(), n as usize);
        // Keys without entries contribute nothing.
        let todo = m.multi_find(&[1, 2, 3]);
        assert!(todo.is_empty());
    }

    #[test]
    fn multi_insert_and_delete() {
        let mut m: Multimap<u32, u32> = Multimap::new();
        m.multi_insert((0..500).map(|i| (i % 10, i)).collect());
        assert_eq!(m.len(), 500);
        assert_eq!(m.find_all(&3).len(), 50);
        m.multi_delete_keys(&[3, 4]);
        assert_eq!(m.len(), 400);
        assert!(m.find_all(&3).is_empty());
        assert_eq!(m.find_all(&5).len(), 50);
    }

    #[test]
    fn duplicate_pairs_collapse() {
        let m = Multimap::build(vec![(1u32, 5u32), (1, 5), (1, 6)]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.find_all(&1), vec![5, 6]);
    }
}
