//! Parallel forest depth computation by pointer jumping.
//!
//! The unweighted activity-selection algorithm (Thm 5.3) reduces the DP to
//! a *tree*: each activity depends only on its pivot, and its rank is its
//! depth in the pivot forest. The paper computes depths with `O(n)`-work
//! tree contraction \[18\]; we use pointer jumping (a.k.a. pointer doubling),
//! which is `O(n log d)` work and `O(log d · log n)` span for forest depth
//! `d` — the standard practical substitute. For the random inputs of the
//! experiments `d = O(rank)` and the extra `log` factor is irrelevant to
//! the measured shapes.

use rayon::prelude::*;

/// Depth of every node in a forest given parent pointers.
///
/// `parent[i] == i` marks a root (depth 0); otherwise `parent[i]` is `i`'s
/// parent and `depth[i] = depth[parent[i]] + 1`.
///
/// # Panics
/// Panics (in debug builds) on out-of-range parents. A parent *cycle*
/// (invalid forest) leads to unspecified but memory-safe output.
pub fn forest_depths(parent: &[u32]) -> Vec<u32> {
    let n = parent.len();
    let mut depth: Vec<u32> = parent
        .par_iter()
        .enumerate()
        .map(|(i, &p)| {
            debug_assert!((p as usize) < n);
            u32::from(p as usize != i)
        })
        .collect();
    let mut jump: Vec<u32> = parent.to_vec();
    let mut next_depth = vec![0u32; n];
    let mut next_jump = vec![0u32; n];
    // After k iterations, jump[i] is i's 2^k-th ancestor (clamped at the
    // root) and depth[i] counts the edges traversed so far. At most
    // ceil(log2(max depth)) + 1 iterations are needed.
    loop {
        let changed = next_depth
            .par_iter_mut()
            .zip(next_jump.par_iter_mut())
            .enumerate()
            .map(|(i, (nd, nj))| {
                let j = jump[i] as usize;
                *nd = depth[i] + depth[j];
                *nj = jump[j];
                depth[j] != 0
            })
            .reduce(|| false, |a, b| a || b);
        std::mem::swap(&mut depth, &mut next_depth);
        std::mem::swap(&mut jump, &mut next_jump);
        if !changed {
            break;
        }
    }
    depth
}

/// Depth of every node computed sequentially (reference implementation).
pub fn forest_depths_seq(parent: &[u32]) -> Vec<u32> {
    let n = parent.len();
    let mut depth = vec![u32::MAX; n];
    for i in 0..n {
        if depth[i] != u32::MAX {
            continue;
        }
        // Walk up to a known node or a root, then unwind.
        let mut path = vec![i as u32];
        let mut cur = i;
        loop {
            let p = parent[cur] as usize;
            if p == cur {
                depth[cur] = 0;
                break;
            }
            if depth[p] != u32::MAX {
                break;
            }
            path.push(p as u32);
            cur = p;
        }
        for &node in path.iter().rev() {
            let node = node as usize;
            if depth[node] == u32::MAX {
                depth[node] = depth[parent[node] as usize] + 1;
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn single_root() {
        assert_eq!(forest_depths(&[0]), vec![0]);
    }

    #[test]
    fn chain() {
        // 0 <- 1 <- 2 <- 3
        let parent = vec![0, 0, 1, 2];
        assert_eq!(forest_depths(&parent), vec![0, 1, 2, 3]);
    }

    #[test]
    fn star() {
        let mut parent = vec![0u32; 1000];
        parent[0] = 0;
        assert_eq!(forest_depths(&parent)[1..], vec![1u32; 999][..]);
    }

    #[test]
    fn long_chain_large() {
        let n = 100_000u32;
        let parent: Vec<u32> = (0..n).map(|i| i.saturating_sub(1)).collect();
        let d = forest_depths(&parent);
        for i in 0..n {
            assert_eq!(d[i as usize], i);
        }
    }

    #[test]
    fn random_forest_matches_seq() {
        let mut r = Rng::new(5);
        for n in [1usize, 2, 100, 20_000] {
            // parent[i] < i or == i guarantees a DAG (forest).
            let parent: Vec<u32> = (0..n)
                .map(|i| {
                    if i == 0 || r.range(4) == 0 {
                        i as u32
                    } else {
                        r.range(i as u64) as u32
                    }
                })
                .collect();
            assert_eq!(forest_depths(&parent), forest_depths_seq(&parent), "n={n}");
        }
    }

    #[test]
    fn multiple_roots() {
        // Two trees: 0<-1, 2<-3<-4
        let parent = vec![0, 0, 2, 2, 3];
        assert_eq!(forest_depths(&parent), vec![0, 1, 0, 1, 2]);
    }
}
