//! The Type 2 engine: Algorithm 1 with pivot-based *wake-up* (§5).
//!
//! Instead of scanning for ready objects, every unfinished object `x`
//! waits on a **pivot** `p_x ∈ P(x)` — an object it depends on. When a
//! frontier finishes, only the objects whose pivot just finished are
//! *attempted*: a readiness check either succeeds (the object joins the
//! next frontier) or yields a fresh unfinished pivot to wait on
//! (Algorithm 3 lines 26–38). With random pivots each object is
//! attempted `O(log |P(x)|)` times whp (Lemma 5.5), which is what makes
//! the whole thing work-efficient.
//!
//! # `T_pivot`
//!
//! The paper keeps the waiting objects in `T_pivot`, a nested BST
//! searched with `multi_find(frontier)` and grown with `multi_insert`
//! (Theorem 2.2). Two facts make a search structure unnecessary: each
//! object waits on exactly one pivot at a time, and a pivot's waiters
//! are looked up exactly once, in the round that pivot finishes. So
//! `T_pivot` here is a set of intrusive singly linked lists —
//! `head[pivot]` and `next[object]`, `u32` ids with a `NIL` sentinel.
//! Hanging an object is `O(1)`, draining a pivot's list is `O(waiters)`
//! and leaves the list empty, so the structure holds exactly the
//! waiting objects and nothing else. A run costs `O(n + W)` work on top
//! of its readiness checks, for `W` wake-up attempts — within the
//! `O((n + W) log n)` Theorem 2.2 charges the tree-based `T_pivot`, so
//! Theorem 5.6's work bound is unchanged. Draining and re-hanging are
//! one sequential pass over the round's attempts, the same pass that
//! splits the attempts into ready and blocked objects.

use crate::cancel::{deadline_tripped, CancelToken, RunOutcome};
use crate::stats::ExecutionStats;
use rayon::prelude::*;

/// Outcome of a wake-up attempt.
pub enum WakeResult<I> {
    /// All predecessors finished; `I` is the processing result (e.g. the
    /// object's DP value) to commit.
    Ready(I),
    /// Still blocked; re-pivot onto this unfinished predecessor.
    Blocked {
        /// The freshly selected unfinished pivot.
        new_pivot: u32,
    },
}

/// What [`Type2Problem::initial`] returns: the round-0 frontier as
/// `(object, info)` pairs, and the `(pivot, object)` pairs every other
/// object starts waiting on.
pub type Initial<I> = (Vec<(u32, I)>, Vec<(u32, u32)>);

/// A problem runnable by the Type 2 engine.
///
/// Objects are `u32` ids; every object must appear exactly once in
/// [`Type2Problem::initial`], either in the round-0 frontier or as the
/// waiter of one pivot. `try_wake` takes `&self` (it runs in parallel
/// over the round's attempts and must not mutate shared state except
/// through interior atomics); `commit` runs once per round with
/// exclusive access.
pub trait Type2Problem: Sync {
    /// Per-object processing result carried from `try_wake` to `commit`.
    type Info: Send;
    /// Final result type.
    type Output;

    /// The round-0 frontier — objects ready with no unfinished
    /// predecessor, including any virtual source object — and the
    /// `(pivot, object)` pairs every other object starts waiting on
    /// (Algorithm 3 line 21). Problems that must probe each object to
    /// classify it probe it once here.
    fn initial(&self) -> Initial<Self::Info>;

    /// Attempt to wake `x` after its pivot finished. Implementations
    /// check readiness (e.g. a 2D range query) and either produce the
    /// processing result or select a new unfinished pivot.
    fn try_wake(&self, x: u32) -> WakeResult<Self::Info>;

    /// Commit a finished frontier (e.g. publish DP values into the range
    /// tree). Runs between rounds with `&mut self`.
    fn commit(&mut self, ready: &[(u32, Self::Info)]);

    /// Consume the problem and produce the output.
    fn finish(self) -> Self::Output;
}

/// [`Type2Problem::initial`] for problems without a virtual source:
/// probe objects `0..n` once each, in parallel. Ready objects form the
/// round-0 frontier (in id order); blocked ones wait on the pivot their
/// probe selected.
pub fn probe_all<I, F>(n: u32, probe: F) -> Initial<I>
where
    I: Send,
    F: Fn(u32) -> WakeResult<I> + Sync + Send,
{
    let probes: Vec<WakeResult<I>> = (0..n).into_par_iter().map(&probe).collect();
    let mut frontier = Vec::new();
    let mut pivots = Vec::new();
    for (x, r) in (0..n).zip(probes) {
        match r {
            WakeResult::Ready(info) => frontier.push((x, info)),
            WakeResult::Blocked { new_pivot } => pivots.push((new_pivot, x)),
        }
    }
    (frontier, pivots)
}

/// End-of-list sentinel of [`WaitLists`].
const NIL: u32 = u32::MAX;

/// `T_pivot` as intrusive lists: `head[p]` is the most recent object
/// waiting on pivot `p`, `next[x]` the object hung on the same pivot
/// before `x`. Both grow on demand, so ids need not be declared up front.
#[derive(Default)]
struct WaitLists {
    head: Vec<u32>,
    next: Vec<u32>,
}

impl WaitLists {
    /// Make object `x` wait on `pivot`. `O(1)` amortized.
    fn hang(&mut self, pivot: u32, x: u32) {
        let need = pivot.max(x) as usize + 1;
        if need > self.head.len() {
            self.head.resize(need, NIL);
            self.next.resize(need, NIL);
        }
        self.next[x as usize] = self.head[pivot as usize];
        self.head[pivot as usize] = x;
    }

    /// Move every object waiting on `pivot` into `out`, emptying its
    /// list. `O(waiters)`.
    fn take(&mut self, pivot: u32, out: &mut Vec<u32>) {
        let Some(slot) = self.head.get_mut(pivot as usize) else {
            return;
        };
        let mut x = std::mem::replace(slot, NIL);
        while x != NIL {
            out.push(x);
            x = self.next[x as usize];
        }
    }

    /// Objects currently waiting on some pivot.
    #[cfg(test)]
    fn waiting(&self) -> usize {
        let mut count = 0;
        for &h in &self.head {
            let mut x = h;
            while x != NIL {
                count += 1;
                x = self.next[x as usize];
            }
        }
        count
    }
}

/// Run the Type 2 wake-up loop over a problem, under an optional
/// cooperative deadline: the token is polled at the top of every wake-up
/// round, before the round's frontier commits, so a pre-tripped token
/// stops the run with zero rounds. On a trip the engine finishes with
/// partial state under [`RunOutcome::DeadlineExceeded`]; an untripped
/// token (or `None`) leaves the run byte-identical to the uncancelled
/// engine.
pub fn run_type2<P: Type2Problem>(
    mut problem: P,
    cancel: Option<&CancelToken>,
) -> (P::Output, ExecutionStats, RunOutcome) {
    let (stats, outcome, _) = drive(&mut problem, cancel);
    (problem.finish(), stats, outcome)
}

/// The round loop; also returns the wait lists as the run left them.
fn drive<P: Type2Problem>(
    problem: &mut P,
    cancel: Option<&CancelToken>,
) -> (ExecutionStats, RunOutcome, WaitLists) {
    let mut stats = ExecutionStats::default();
    let mut outcome = RunOutcome::Completed;
    let (mut frontier, pivots) = problem.initial();
    let mut lists = WaitLists::default();
    for (pivot, x) in pivots {
        lists.hang(pivot, x);
    }
    let mut todo: Vec<u32> = Vec::new();
    while !frontier.is_empty() {
        if deadline_tripped(cancel) {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        stats.record_round(frontier.len());
        problem.commit(&frontier);
        // Objects whose pivot is in the frontier (T_pivot.multi_find).
        todo.clear();
        for &(x, _) in &frontier {
            lists.take(x, &mut todo);
        }
        stats.wakeup_attempts += todo.len();
        // Attempt to wake each in parallel.
        let shared: &P = problem;
        let results: Vec<WakeResult<P::Info>> =
            todo.par_iter().map(|&q| shared.try_wake(q)).collect();
        let mut next_frontier = Vec::new();
        for (&q, r) in todo.iter().zip(results) {
            match r {
                WakeResult::Ready(info) => next_frontier.push((q, info)),
                WakeResult::Blocked { new_pivot } => {
                    stats.failed_wakeups += 1;
                    lists.hang(new_pivot, q);
                }
            }
        }
        frontier = next_frontier;
    }
    (stats, outcome, lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_pam::Multimap;
    use pp_parlay::rng::{hash64, Rng};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    /// A toy chain problem: object i depends on exactly {0..i}; pivot is
    /// always i-1, so every wake-up succeeds and rounds = n.
    struct Chain {
        n: u32,
        depth: Vec<AtomicU32>,
    }

    impl Type2Problem for Chain {
        type Info = u32; // depth value
        type Output = Vec<u32>;
        fn initial(&self) -> Initial<u32> {
            if self.n == 0 {
                return (vec![], vec![]);
            }
            (vec![(0, 0)], (1..self.n).map(|i| (i - 1, i)).collect())
        }
        fn try_wake(&self, x: u32) -> WakeResult<u32> {
            let d = self.depth[x as usize - 1].load(Ordering::Relaxed);
            WakeResult::Ready(d + 1)
        }
        fn commit(&mut self, ready: &[(u32, u32)]) {
            for &(x, d) in ready {
                self.depth[x as usize].store(d, Ordering::Relaxed);
            }
        }
        fn finish(self) -> Vec<u32> {
            self.depth.into_iter().map(|a| a.into_inner()).collect()
        }
    }

    #[test]
    fn chain_runs_n_rounds() {
        let n = 50;
        let (depths, stats, _) = run_type2(
            Chain {
                n,
                depth: (0..n).map(|_| AtomicU32::new(0)).collect(),
            },
            None,
        );
        assert_eq!(depths, (0..n).collect::<Vec<_>>());
        assert_eq!(stats.rounds, n as usize);
        assert_eq!(stats.failed_wakeups, 0);
        assert_eq!(stats.wakeup_attempts, n as usize - 1);
    }

    /// A problem with false pivots: object 2 initially pivots on 0 but
    /// also depends on 1, exercising the re-pivot path.
    struct Repivot {
        finished: Vec<AtomicU32>,
    }

    impl Type2Problem for Repivot {
        type Info = ();
        type Output = ();
        fn initial(&self) -> Initial<()> {
            (vec![(0, ())], vec![(0, 2), (0, 1)])
        }
        fn try_wake(&self, x: u32) -> WakeResult<()> {
            if x == 2 && self.finished[1].load(Ordering::Relaxed) == 0 {
                WakeResult::Blocked { new_pivot: 1 }
            } else {
                WakeResult::Ready(())
            }
        }
        fn commit(&mut self, ready: &[(u32, ())]) {
            for &(x, _) in ready {
                self.finished[x as usize].store(1, Ordering::Relaxed);
            }
        }
        fn finish(self) {}
    }

    #[test]
    fn repivot_path() {
        let (_, stats, _) = run_type2(
            Repivot {
                finished: (0..3).map(|_| AtomicU32::new(0)).collect(),
            },
            None,
        );
        // Rounds: {0}, {1}, {2}.
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.failed_wakeups, 1);
        assert_eq!(stats.wakeup_attempts, 3); // 1,2 attempted; 2 again
    }

    #[test]
    fn pre_tripped_token_commits_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let n = 50;
        let (depths, stats, outcome) = run_type2(
            Chain {
                n,
                depth: (0..n).map(|_| AtomicU32::new(0)).collect(),
            },
            Some(&token),
        );
        assert_eq!(outcome, RunOutcome::DeadlineExceeded);
        assert_eq!(stats.rounds, 0);
        assert!(depths.iter().all(|&d| d == 0), "no commit ran");
    }

    #[test]
    fn untripped_token_is_observation_free() {
        let token = CancelToken::new();
        let n = 50;
        let (depths, stats, outcome) = run_type2(
            Chain {
                n,
                depth: (0..n).map(|_| AtomicU32::new(0)).collect(),
            },
            Some(&token),
        );
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(depths, (0..n).collect::<Vec<_>>());
        assert_eq!(stats.rounds, n as usize);
    }

    #[test]
    fn empty_problem() {
        let (_, stats, _) = run_type2(
            Chain {
                n: 0,
                depth: vec![],
            },
            None,
        );
        assert_eq!(stats.rounds, 0);
    }

    /// A random DAG whose objects re-pivot onto a uniformly random
    /// unfinished predecessor, drawn from `(seed, object, attempt)` so
    /// the pivot stream is schedule-independent. Logs every attempt
    /// with the round it ran in.
    struct RandomDag {
        preds: Vec<Vec<u32>>,
        finished: Vec<AtomicU32>,
        attempts: Vec<AtomicU32>,
        round: usize,
        log: Mutex<Vec<(usize, u32)>>,
        seed: u64,
    }

    impl RandomDag {
        fn new(n: usize, seed: u64) -> Self {
            let mut rng = Rng::new(seed);
            let preds = (0..n as u32)
                .map(|x| {
                    let k = if x == 0 { 0 } else { rng.range(4) as u32 };
                    let mut p: Vec<u32> = (0..k).map(|_| rng.range(x as u64) as u32).collect();
                    p.sort_unstable();
                    p.dedup();
                    p
                })
                .collect();
            Self {
                preds,
                finished: (0..n).map(|_| AtomicU32::new(0)).collect(),
                attempts: (0..n).map(|_| AtomicU32::new(0)).collect(),
                round: 0,
                log: Mutex::new(Vec::new()),
                seed,
            }
        }

        fn draw(&self, x: u32, among: &[u32]) -> u32 {
            let attempt = self.attempts[x as usize].fetch_add(1, Ordering::Relaxed);
            let mut rng = Rng::new(hash64(self.seed, (attempt as u64) << 32 | x as u64));
            among[rng.range(among.len() as u64) as usize]
        }

        /// Sorted attempts of each round.
        fn rounds_log(self) -> Vec<Vec<u32>> {
            let mut per_round: Vec<Vec<u32>> = Vec::new();
            for (r, x) in self.log.into_inner().unwrap() {
                if per_round.len() <= r {
                    per_round.resize(r + 1, Vec::new());
                }
                per_round[r].push(x);
            }
            per_round.iter_mut().for_each(|v| v.sort_unstable());
            per_round
        }
    }

    impl Type2Problem for RandomDag {
        type Info = ();
        type Output = ();
        fn initial(&self) -> Initial<()> {
            let mut frontier = Vec::new();
            let mut pivots = Vec::new();
            for (x, p) in self.preds.iter().enumerate() {
                if p.is_empty() {
                    frontier.push((x as u32, ()));
                } else {
                    pivots.push((self.draw(x as u32, p), x as u32));
                }
            }
            (frontier, pivots)
        }
        fn try_wake(&self, x: u32) -> WakeResult<()> {
            self.log.lock().unwrap().push((self.round, x));
            let open: Vec<u32> = self.preds[x as usize]
                .iter()
                .copied()
                .filter(|&p| self.finished[p as usize].load(Ordering::Relaxed) == 0)
                .collect();
            if open.is_empty() {
                WakeResult::Ready(())
            } else {
                WakeResult::Blocked {
                    new_pivot: self.draw(x, &open),
                }
            }
        }
        fn commit(&mut self, ready: &[(u32, ())]) {
            self.round += 1;
            for &(x, _) in ready {
                self.finished[x as usize].store(1, Ordering::Relaxed);
            }
        }
        fn finish(self) {}
    }

    /// The engine as the paper states it: `T_pivot` a multimap searched
    /// with `multi_find` and grown with `multi_insert`.
    fn run_with_multimap<P: Type2Problem>(problem: &mut P) -> ExecutionStats {
        let mut stats = ExecutionStats::default();
        let (mut frontier, pivots) = problem.initial();
        let mut t_pivot: Multimap<u32, u32> = Multimap::build(pivots);
        while !frontier.is_empty() {
            stats.record_round(frontier.len());
            problem.commit(&frontier);
            let keys: Vec<u32> = frontier.iter().map(|&(x, _)| x).collect();
            let todo = t_pivot.multi_find(&keys);
            stats.wakeup_attempts += todo.len();
            let mut next_frontier = Vec::new();
            let mut new_pairs = Vec::new();
            for q in todo {
                match problem.try_wake(q) {
                    WakeResult::Ready(info) => next_frontier.push((q, info)),
                    WakeResult::Blocked { new_pivot } => new_pairs.push((new_pivot, q)),
                }
            }
            stats.failed_wakeups += new_pairs.len();
            t_pivot.multi_insert(new_pairs);
            frontier = next_frontier;
        }
        stats
    }

    #[test]
    fn wait_lists_match_multimap_reference() {
        for (n, seed) in [(1usize, 1u64), (40, 2), (500, 3), (3000, 4)] {
            let mut engine = RandomDag::new(n, seed);
            let (stats, outcome, lists) = drive(&mut engine, None);
            let mut reference = RandomDag::new(n, seed);
            let want = run_with_multimap(&mut reference);
            assert_eq!(outcome, RunOutcome::Completed);
            assert_eq!(stats.rounds, want.rounds, "n={n}");
            assert_eq!(stats.frontier_sizes, want.frontier_sizes, "n={n}");
            assert_eq!(stats.wakeup_attempts, want.wakeup_attempts, "n={n}");
            assert_eq!(stats.failed_wakeups, want.failed_wakeups, "n={n}");
            assert_eq!(stats.processed(), n, "every object finishes");
            assert_eq!(
                engine.rounds_log(),
                reference.rounds_log(),
                "per-round attempts differ, n={n}"
            );
            // Nothing is left behind once every object finished.
            assert_eq!(lists.waiting(), 0);
            if n >= 500 {
                assert!(stats.failed_wakeups > 0, "pivots must move, n={n}");
            }
        }
    }

    #[test]
    fn wait_list_take_drains_once() {
        let mut lists = WaitLists::default();
        lists.hang(3, 7);
        lists.hang(3, 1);
        lists.hang(0, 2);
        let mut out = Vec::new();
        lists.take(3, &mut out);
        assert_eq!(out, vec![1, 7]);
        lists.take(3, &mut out);
        lists.take(99, &mut out); // never a pivot
        assert_eq!(out, vec![1, 7]);
        assert_eq!(lists.waiting(), 1);
        lists.take(0, &mut out);
        assert_eq!(out, vec![1, 7, 2]);
        assert_eq!(lists.waiting(), 0);
    }
}
