//! A 3D dominance range tree: the structure behind the 2D-grid
//! Whac-A-Mole extension (Appendix B: "the problem requires a 3D range
//! query, which adds up an extra `O(log n)` factor to both work and
//! span").
//!
//! Points have three coordinates, each pre-compressed by the caller to a
//! distinct slot in `0..n`. The tree answers prefix-box queries
//! `[0, qa) × [0, qb) × [0, qc)` with the same aggregate as
//! [`crate::range2d`] — (#unfinished, max finished DP, pivot among
//! unfinished) — and supports batch finishes.
//!
//! Layout: a static outer tree over the `a`-coordinate; every internal
//! node owns a full [`RangeTree2d`] over its points keyed by their
//! local `(b, c)` ranks. Queries decompose the `a`-prefix into
//! `O(log n)` nodes and run a 2D query in each — `O(log^3 n)` per
//! operation, `O(n log^2 n)` space. Small outer leaves are answered by
//! scanning, as in the 2D structure.

use crate::range2d::{PivotMode, PrefixInfo, RangeTree2d};
use crate::walk::{Acc, Pieces};
use pp_parlay::rng::Rng;

/// Outer bucket size; leaves are scanned directly.
const LEAF_SIZE: usize = 64;

struct Node {
    /// a-slot range `[lo, hi)` of points under this node.
    lo: u32,
    hi: u32,
    /// Left subtree node count (0 = leaf bucket).
    lsize: u32,
    /// Internal: point ids in local b order.
    ids_by_b: Vec<u32>,
    /// Internal: sorted global b-slots (parallel to `ids_by_b`).
    bs: Vec<u32>,
    /// Internal: sorted global c-slots of the node's points.
    cs: Vec<u32>,
    /// Internal: 2D tree over (local b position, local c rank).
    tree: Option<RangeTree2d>,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.lsize == 0
    }
}

/// The 3D dominance range tree. Coordinates per point id:
/// `(a[i], b[i], c[i])`, each a permutation of `0..n`.
pub struct RangeTree3d {
    n: usize,
    nodes: Vec<Node>,
    /// Point id at each a-slot (inverse of `a`).
    id_of_a: Vec<u32>,
    a_of_id: Vec<u32>,
    b_of_id: Vec<u32>,
    c_of_id: Vec<u32>,
    finished: Vec<bool>,
    dp: Vec<u32>,
    mode: PivotMode,
}

impl RangeTree3d {
    /// Build over `n` points with slot coordinates `(a[i], b[i], c[i])`.
    /// Each array must be a permutation of `0..n`.
    pub fn new(a: &[u32], b: &[u32], c: &[u32], mode: PivotMode) -> Self {
        let n = a.len();
        assert_eq!(b.len(), n);
        assert_eq!(c.len(), n);
        let mut id_of_a = vec![u32::MAX; n];
        for (i, &s) in a.iter().enumerate() {
            assert!((s as usize) < n && id_of_a[s as usize] == u32::MAX);
            id_of_a[s as usize] = i as u32;
        }
        let mut nodes = Vec::new();
        if n > 0 {
            build(0, n as u32, &id_of_a, b, c, mode, &mut nodes);
        }
        Self {
            n,
            nodes,
            id_of_a,
            a_of_id: a.to_vec(),
            b_of_id: b.to_vec(),
            c_of_id: c.to_vec(),
            finished: vec![false; n],
            dp: vec![0; n],
            mode,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Aggregate over the prefix box `[0, qa) × [0, qb) × [0, qc)`.
    pub fn query_prefix(&self, qa: u32, qb: u32, qc: u32) -> PrefixInfo {
        self.walk([qa, qb, qc], None).info()
    }

    /// Pick a pivot point id among the unfinished points of the box.
    /// `Random` draws uniformly (exact, as in the 2D tree);
    /// `RightMost` returns a deterministic heuristic representative
    /// (the largest-local-`b` unfinished point of one covering piece) —
    /// sufficient for the wake-up framework, which only requires *some*
    /// unfinished predecessor.
    pub fn select_pivot(&self, qa: u32, qb: u32, qc: u32, rng: &mut Rng) -> Option<u32> {
        let q = [qa, qb, qc];
        let mut pieces = Pieces::new();
        let acc = self.walk(q, Some(&mut pieces));
        (acc.unfinished > 0).then(|| self.pick(&acc, &pieces, q, rng))
    }

    /// Readiness check of the Type 2 wake-up in one outer walk:
    /// `Ok(max_dp)` if the box has no unfinished point, else
    /// `Err(pivot)`. `rng` is called exactly once, only when blocked,
    /// and the pivot is the one [`RangeTree3d::select_pivot`] draws
    /// from that generator.
    pub fn probe(
        &self,
        qa: u32,
        qb: u32,
        qc: u32,
        rng: impl FnOnce() -> Rng,
    ) -> Result<Option<u32>, u32> {
        let q = [qa, qb, qc];
        let mut pieces = Pieces::new();
        let acc = self.walk(q, Some(&mut pieces));
        if acc.unfinished == 0 {
            Ok(acc.max_dp)
        } else {
            Err(self.pick(&acc, &pieces, q, &mut rng()))
        }
    }

    /// Mark a batch of point ids finished with their DP values.
    pub fn finish_batch(&mut self, items: &[(u32, u32)]) {
        for &(id, dp) in items {
            debug_assert!(!self.finished[id as usize]);
            self.finished[id as usize] = true;
            self.dp[id as usize] = dp;
        }
        if self.nodes.is_empty() {
            return;
        }
        // Per point: walk its outer path, updating each node's 2D tree.
        for &(id, dp) in items {
            let a = self.a_of_id[id as usize];
            let b = self.b_of_id[id as usize];
            let mut idx = 0usize;
            loop {
                // Split borrow: node vs the rest is unnecessary since we
                // only touch one node at a time.
                let (lo, hi, lsize) = {
                    let nd = &self.nodes[idx];
                    (nd.lo, nd.hi, nd.lsize)
                };
                debug_assert!(lo <= a && a < hi);
                if lsize == 0 {
                    break; // leaf buckets scan live state
                }
                {
                    let nd = &mut self.nodes[idx];
                    let pos = nd.bs.partition_point(|&x| x < b);
                    debug_assert_eq!(nd.bs[pos], b);
                    nd.tree
                        .as_mut()
                        .expect("internal node")
                        .finish_batch(&[(pos as u32, dp)]);
                }
                let mid = (lo + hi) / 2;
                idx = if a < mid {
                    idx + 1
                } else {
                    idx + 1 + lsize as usize
                };
            }
        }
    }

    /// Aggregate the prefix box `q`; with `pieces`, also record its
    /// covering pieces (one per covered node or leaf bucket).
    fn walk(&self, q: [u32; 3], mut pieces: Option<&mut Pieces<Piece>>) -> Acc {
        let mut acc = Acc::default();
        if self.n > 0 && q.iter().all(|&b| b > 0) {
            self.walk_rec(0, q, &mut acc, &mut pieces);
        }
        acc
    }

    /// Whether point `id` lies in the box `q` in its `b` and `c`
    /// coordinates.
    #[inline]
    fn in_bc(&self, id: u32, q: [u32; 3]) -> bool {
        let i = id as usize;
        self.b_of_id[i] < q[1] && self.c_of_id[i] < q[2]
    }

    fn walk_rec(
        &self,
        idx: usize,
        q: [u32; 3],
        acc: &mut Acc,
        pieces: &mut Option<&mut Pieces<Piece>>,
    ) {
        let nd = &self.nodes[idx];
        if q[0] <= nd.lo {
            return;
        }
        let mut piece = Piece {
            node: idx as u32,
            ..Piece::default()
        };
        let cnt = if nd.is_leaf() {
            let before = acc.unfinished;
            for s in nd.lo..nd.hi.min(q[0]) {
                let id = self.id_of_a[s as usize];
                if self.in_bc(id, q) {
                    acc.add_point(id, self.finished[id as usize], self.dp[id as usize]);
                }
            }
            acc.unfinished - before
        } else if q[0] >= nd.hi {
            piece.qx = nd.bs.partition_point(|&x| x < q[1]) as u32;
            piece.qy = nd.cs.partition_point(|&x| x < q[2]) as u32;
            let tree = nd.tree.as_ref().expect("internal");
            let info = tree.query_prefix(piece.qx, piece.qy);
            acc.add_info(info, |x2d| nd.ids_by_b[x2d as usize]);
            info.unfinished
        } else {
            let mid = (nd.lo + nd.hi) / 2;
            self.walk_rec(idx + 1, q, acc, pieces);
            if q[0] > mid {
                self.walk_rec(idx + 1 + nd.lsize as usize, q, acc, pieces);
            }
            return;
        };
        if let Some(p) = pieces {
            p.push(cnt, piece);
        }
    }

    /// The pivot among `acc.unfinished > 0` unfinished points of a walk.
    fn pick(&self, acc: &Acc, pieces: &Pieces<Piece>, q: [u32; 3], rng: &mut Rng) -> u32 {
        match self.mode {
            PivotMode::RightMost => acc.rep_unfinished.expect("counted unfinished"),
            PivotMode::Random => {
                let (piece, t) = pieces.draw(acc.unfinished, rng);
                let nd = &self.nodes[piece.node as usize];
                match &nd.tree {
                    None => (nd.lo..nd.hi.min(q[0]))
                        .map(|s| self.id_of_a[s as usize])
                        .filter(|&id| self.in_bc(id, q) && !self.finished[id as usize])
                        .nth(t as usize),
                    Some(tree) => tree
                        .select_pivot(piece.qx, piece.qy, rng)
                        .map(|x2d| nd.ids_by_b[x2d as usize]),
                }
                .expect("counted unfinished")
            }
        }
    }
}

/// A covering piece of a prefix walk: a leaf bucket (scanned on a
/// draw), or an internal node with the box's local 2D bounds.
#[derive(Clone, Copy, Default)]
struct Piece {
    node: u32,
    qx: u32,
    qy: u32,
}

fn build(
    lo: u32,
    hi: u32,
    id_of_a: &[u32],
    b_of_id: &[u32],
    c_of_id: &[u32],
    mode: PivotMode,
    out: &mut Vec<Node>,
) {
    let size = (hi - lo) as usize;
    if size <= LEAF_SIZE {
        out.push(Node {
            lo,
            hi,
            lsize: 0,
            ids_by_b: Vec::new(),
            bs: Vec::new(),
            cs: Vec::new(),
            tree: None,
        });
        return;
    }
    // Points of this node, ordered by b.
    let mut ids: Vec<u32> = (lo..hi).map(|s| id_of_a[s as usize]).collect();
    ids.sort_unstable_by_key(|&id| b_of_id[id as usize]);
    let bs: Vec<u32> = ids.iter().map(|&id| b_of_id[id as usize]).collect();
    let mut cs: Vec<u32> = ids.iter().map(|&id| c_of_id[id as usize]).collect();
    cs.sort_unstable();
    // 2D tree keyed by (local b position, local c rank).
    let y_of_x: Vec<u32> = ids
        .iter()
        .map(|&id| cs.partition_point(|&x| x < c_of_id[id as usize]) as u32)
        .collect();
    let tree = RangeTree2d::new(&y_of_x, mode);
    let my_idx = out.len();
    out.push(Node {
        lo,
        hi,
        lsize: 0,
        ids_by_b: ids,
        bs,
        cs,
        tree: Some(tree),
    });
    let mid = (lo + hi) / 2;
    build(lo, mid, id_of_a, b_of_id, c_of_id, mode, out);
    let lsize = (out.len() - my_idx - 1) as u32;
    out[my_idx].lsize = lsize;
    build(mid, hi, id_of_a, b_of_id, c_of_id, mode, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_parlay::shuffle::random_permutation;

    struct Oracle {
        a: Vec<u32>,
        b: Vec<u32>,
        c: Vec<u32>,
        finished: Vec<bool>,
        dp: Vec<u32>,
    }

    impl Oracle {
        fn query(&self, qa: u32, qb: u32, qc: u32) -> (u32, Option<u32>, Vec<u32>) {
            let mut unfin = Vec::new();
            let mut max_dp = None;
            for i in 0..self.a.len() {
                if self.a[i] < qa && self.b[i] < qb && self.c[i] < qc {
                    if self.finished[i] {
                        max_dp = Some(max_dp.map_or(self.dp[i], |m: u32| m.max(self.dp[i])));
                    } else {
                        unfin.push(i as u32);
                    }
                }
            }
            (unfin.len() as u32, max_dp, unfin)
        }
    }

    fn check(n: usize, seed: u64, mode: PivotMode) {
        let a = random_permutation(n, seed);
        let b = random_permutation(n, seed + 1);
        let c = random_permutation(n, seed + 2);
        let mut tree = RangeTree3d::new(&a, &b, &c, mode);
        let mut oracle = Oracle {
            a,
            b,
            c,
            finished: vec![false; n],
            dp: vec![0; n],
        };
        let mut rng = Rng::new(seed ^ 99);
        let mut remaining: Vec<u32> = (0..n as u32).collect();
        while !remaining.is_empty() {
            for _ in 0..15 {
                let qa = rng.range(n as u64 + 1) as u32;
                let qb = rng.range(n as u64 + 1) as u32;
                let qc = rng.range(n as u64 + 1) as u32;
                let info = tree.query_prefix(qa, qb, qc);
                let (cnt, max_dp, unfin) = oracle.query(qa, qb, qc);
                assert_eq!(info.unfinished, cnt);
                assert_eq!(info.max_dp, max_dp);
                let draw_seed = rng.next_u64();
                let pivot = tree.select_pivot(qa, qb, qc, &mut Rng::new(draw_seed));
                match pivot {
                    None => assert!(unfin.is_empty()),
                    Some(p) => assert!(unfin.contains(&p), "pivot {p} not in region"),
                }
                // `probe` is `query_prefix` + `select_pivot` in one walk,
                // drawing from a generator it creates only when blocked.
                let calls = std::cell::Cell::new(0);
                let got = tree.probe(qa, qb, qc, || {
                    calls.set(calls.get() + 1);
                    Rng::new(draw_seed)
                });
                if cnt == 0 {
                    assert_eq!(got, Ok(max_dp));
                    assert_eq!(calls.get(), 0);
                } else {
                    assert_eq!(got, Err(pivot.unwrap()));
                    assert_eq!(calls.get(), 1);
                }
            }
            let take = (rng.range(remaining.len() as u64) + 1) as usize;
            let batch: Vec<(u32, u32)> = remaining
                .drain(..take.min(remaining.len()))
                .map(|id| (id, id % 13))
                .collect();
            for &(id, d) in &batch {
                oracle.finished[id as usize] = true;
                oracle.dp[id as usize] = d;
            }
            tree.finish_batch(&batch);
        }
    }

    #[test]
    fn matches_oracle_small() {
        check(30, 1, PivotMode::Random);
        check(30, 2, PivotMode::RightMost);
    }

    #[test]
    fn matches_oracle_spanning_leaves() {
        check(LEAF_SIZE + 5, 3, PivotMode::Random);
        check(4 * LEAF_SIZE + 7, 4, PivotMode::Random);
        check(300, 5, PivotMode::RightMost);
    }

    #[test]
    fn empty_tree() {
        let t = RangeTree3d::new(&[], &[], &[], PivotMode::Random);
        assert!(t.is_empty());
        assert_eq!(t.query_prefix(0, 0, 0).unfinished, 0);
    }
}
