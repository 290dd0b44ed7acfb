//! Parallel Nested BSTs (Appendix A): a two-level multimap where each
//! key of the *primary* tree owns a *secondary* tree of values.
//!
//! This is the paper's literal multimap structure ("All elements with
//! the same key will be organized as another BST ... associating with
//! the corresponding key in the outer tree"), with the primary tree
//! augmented by the total pair count. [`crate::Multimap`] is the flat
//! pair-keyed alternative; this nested form is kept as the faithful
//! Appendix-A reference and is cross-checked against the flat one in
//! tests.

use crate::augment::{Augment, NoAug};
use crate::tree::AugTree;
use rayon::prelude::*;
use std::marker::PhantomData;

/// Secondary (inner) tree: an ordered set of values.
pub type Inner<V> = AugTree<V, (), NoAug>;

/// Primary-tree augmentation: total number of stored pairs.
pub struct CountAug<V>(PhantomData<V>);

impl<V> Clone for CountAug<V> {
    fn clone(&self) -> Self {
        CountAug(PhantomData)
    }
}

impl<V> Default for CountAug<V> {
    fn default() -> Self {
        CountAug(PhantomData)
    }
}

impl<K, V> Augment<K, Inner<V>> for CountAug<V>
where
    V: Ord + Clone + Send + Sync,
{
    type A = usize;
    fn identity(&self) -> usize {
        0
    }
    fn base(&self, _: &K, inner: &Inner<V>) -> usize {
        inner.len()
    }
    fn combine(&self, a: &usize, b: &usize) -> usize {
        a + b
    }
}

/// The nested multimap `K → BST(V)`.
pub struct NestedMultimap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Ord + Clone + Send + Sync,
{
    primary: AugTree<K, Inner<V>, CountAug<V>>,
}

impl<K, V> Default for NestedMultimap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Ord + Clone + Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> NestedMultimap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Ord + Clone + Send + Sync,
{
    /// An empty nested multimap.
    pub fn new() -> Self {
        Self {
            primary: AugTree::new(CountAug::default()),
        }
    }

    /// Build from pairs: group by key, build each secondary tree, then
    /// build the primary from the sorted groups — the Appendix A
    /// construction (`O(n log n)` work, polylog span).
    pub fn build(mut pairs: Vec<(K, V)>) -> Self {
        pp_parlay::par_sort(&mut pairs);
        pairs.dedup();
        // Group boundaries.
        let n = pairs.len();
        let heads: Vec<usize> = (0..n)
            .filter(|&i| i == 0 || pairs[i].0 != pairs[i - 1].0)
            .collect();
        let groups: Vec<(K, Inner<V>)> = heads
            .par_iter()
            .enumerate()
            .map(|(gi, &lo)| {
                let hi = heads.get(gi + 1).copied().unwrap_or(n);
                let key = pairs[lo].0.clone();
                let inner = Inner::from_sorted(
                    NoAug,
                    pairs[lo..hi].iter().map(|(_, v)| (v.clone(), ())).collect(),
                );
                (key, inner)
            })
            .collect();
        Self {
            primary: AugTree::from_sorted(CountAug::default(), groups),
        }
    }

    /// Total number of stored pairs (the primary augmented value).
    pub fn len(&self) -> usize {
        self.primary.aug()
    }

    /// True iff no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.primary.len()
    }

    /// Insert one pair. `O(log n)`.
    pub fn insert(&mut self, key: K, val: V) {
        let mut inner = self
            .primary
            .remove(&key)
            .unwrap_or_else(|| Inner::new(NoAug));
        inner.insert(val, ());
        self.primary.insert(key, inner);
    }

    /// All values under `key`, in order.
    pub fn find_all(&self, key: &K) -> Vec<V> {
        self.primary
            .find(key)
            .map(|inner| inner.flatten().into_iter().map(|(v, ())| v).collect())
            .unwrap_or_default()
    }

    /// Values under every key in `keys`, concatenated (Theorem 2.2:
    /// `O((m + s) log n)` work for `m` keys returning `s` values).
    pub fn multi_find(&self, keys: &[K]) -> Vec<V> {
        let per_key: Vec<Vec<V>> = keys.par_iter().map(|k| self.find_all(k)).collect();
        per_key.into_iter().flatten().collect()
    }

    /// Batch insert: build a nested map of the batch, then union the
    /// primaries, merging colliding keys' secondary trees with a tree
    /// union.
    pub fn multi_insert(&mut self, pairs: Vec<(K, V)>) {
        let batch = Self::build(pairs);
        let me = std::mem::take(self);
        self.primary = me
            .primary
            .union_with(batch.primary, &|a, b| a.clone().union(b.clone()));
    }

    /// Remove a key and all its values; returns how many were removed.
    pub fn remove_key(&mut self, key: &K) -> usize {
        self.primary.remove(key).map_or(0, |inner| inner.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multimap::Multimap;
    use pp_parlay::rng::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn behaves_like_model() {
        let mut r = Rng::new(1);
        let mut nested: NestedMultimap<u64, u32> = NestedMultimap::new();
        let mut model: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for _ in 0..1500 {
            let k = r.range(40);
            let v = r.range(100) as u32;
            match r.range(4) {
                0..=1 => {
                    nested.insert(k, v);
                    model.entry(k).or_default().insert(v);
                }
                2 => {
                    let want: Vec<u32> = model
                        .get(&k)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    assert_eq!(nested.find_all(&k), want);
                }
                _ => {
                    let removed = nested.remove_key(&k);
                    let want = model.remove(&k).map_or(0, |s| s.len());
                    assert_eq!(removed, want);
                }
            }
            let total: usize = model.values().map(|s| s.len()).sum();
            assert_eq!(nested.len(), total);
        }
    }

    #[test]
    fn build_and_multi_find_match_flat_multimap() {
        let mut r = Rng::new(2);
        let pairs: Vec<(u64, u32)> = (0..3000)
            .map(|_| (r.range(50), r.range(500) as u32))
            .collect();
        let nested = NestedMultimap::build(pairs.clone());
        let flat = Multimap::build(pairs);
        assert_eq!(nested.len(), flat.len());
        let keys: Vec<u64> = (0..50).collect();
        assert_eq!(nested.multi_find(&keys), flat.multi_find(&keys));
    }

    #[test]
    fn multi_insert_merges_inner_trees() {
        let mut m: NestedMultimap<u32, u32> =
            NestedMultimap::build((0..100).map(|i| (i % 5, i)).collect());
        assert_eq!(m.num_keys(), 5);
        assert_eq!(m.len(), 100);
        m.multi_insert((0..50).map(|i| (i % 10, 1000 + i)).collect());
        assert_eq!(m.num_keys(), 10);
        assert_eq!(m.len(), 150);
        // Key 3 holds its original 20 values plus 5 new ones.
        assert_eq!(m.find_all(&3).len(), 25);
        // Key 7 exists only in the batch.
        assert_eq!(m.find_all(&7).len(), 5);
    }

    #[test]
    fn empty_cases() {
        let m: NestedMultimap<u32, u32> = NestedMultimap::new();
        assert!(m.is_empty());
        assert!(m.find_all(&3).is_empty());
        let m: NestedMultimap<u32, u32> = NestedMultimap::build(vec![]);
        assert_eq!(m.num_keys(), 0);
    }
}
