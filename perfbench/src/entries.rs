//! The benchmark's registry table: one row per registry entry, each
//! building its own typed instance from `pp-workloads` draws and
//! calling the entry's `PhaseAlgorithm` directly.
//!
//! Sequence-kind entries draw from `seq/uniform`, graph-kind entries
//! from `graph/rmat+w/uniform`. Sizes are set per entry so that each
//! entry's `nproc` solve takes tens of milliseconds on a 2-core Xeon
//! and no entry dominates a pass.

use phase_parallel::{ExecutionStats, PhaseAlgorithm, RunConfig};
use pp_algos::activity::{self, Activity};
use pp_algos::api::*;
use pp_algos::chain3d::Point3;
use pp_algos::chain4d::Point4;
use pp_algos::knapsack::Item;
use pp_algos::registry::Digest;
use pp_algos::whac::{Mole, Mole2d};
use pp_algos::{coloring_orders, matching};
use pp_workloads::ScenarioSpec;
use std::borrow::Borrow;

/// One entry's instance behind a type-erased interface: the three
/// calls the benchmark times, each returning the output digest.
pub trait Case: Sync {
    /// Objects the instance holds (elements, vertices or edges): the
    /// denominator of wake-ups per object.
    fn objects(&self) -> usize;
    /// `PhaseAlgorithm::solve_seq`, config-less.
    fn solve_seq(&self) -> u64;
    /// `PhaseAlgorithm::solve_par` under `cfg` on the current pool.
    fn solve_par(&self, cfg: &RunConfig) -> (u64, ExecutionStats);
}

struct Typed<A, I> {
    algo: A,
    input: I,
    objects: usize,
}

impl<A, I> Case for Typed<A, I>
where
    A: PhaseAlgorithm + Sync,
    A::Output: Digest,
    I: Borrow<A::Input> + Sync,
{
    fn objects(&self) -> usize {
        self.objects
    }

    fn solve_seq(&self) -> u64 {
        self.algo.solve_seq(self.input.borrow()).digest()
    }

    fn solve_par(&self, cfg: &RunConfig) -> (u64, ExecutionStats) {
        let report = self.algo.solve_par(self.input.borrow(), cfg);
        assert!(
            report.outcome.is_complete(),
            "{}: solve_par did not complete",
            self.algo.name()
        );
        (report.output.digest(), report.stats)
    }
}

fn boxed<A, I>(algo: A, input: I, objects: usize) -> Box<dyn Case>
where
    A: PhaseAlgorithm + Sync + 'static,
    A::Output: Digest,
    I: Borrow<A::Input> + Sync + 'static,
{
    Box::new(Typed {
        algo,
        input,
        objects,
    })
}

/// One row of the table.
pub struct EntrySpec {
    /// The registry key.
    pub name: &'static str,
    /// Nominal instance size handed to `build`.
    pub size: usize,
    build: fn(usize, u64) -> Box<dyn Case>,
}

impl EntrySpec {
    /// Build this entry's instance for `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn Case> {
        (self.build)(self.size, seed)
    }

    /// The per-layer metric stem: the key with `/` replaced by `-`.
    pub fn metric_stem(&self) -> String {
        self.name.replace('/', "-")
    }
}

const SEQ: &str = "seq/uniform";
const GRAPH: &str = "graph/rmat+w/uniform";

fn draws(n: usize, span: u64, seed: u64) -> Vec<u64> {
    ScenarioSpec::parse(SEQ)
        .and_then(|s| s.draws(n, span, seed))
        .expect("seq/uniform draws")
}

fn graph(n: usize, seed: u64) -> pp_algos::api::SsspInstance {
    let g = ScenarioSpec::parse(GRAPH)
        .and_then(|s| s.weighted_graph(n, seed))
        .expect("graph/rmat+w/uniform");
    SsspInstance::new(g, 0)
}

fn series(n: usize, seed: u64) -> Vec<i64> {
    draws(n, 3 * n as u64 + 10, seed)
        .into_iter()
        .map(|v| v as i64 - n as i64)
        .collect()
}

fn activities(n: usize, seed: u64) -> Vec<Activity> {
    let span = 4 * n as u64 + 20;
    let starts = draws(n, span, seed);
    let lengths = draws(n, span / 8 + 4, seed ^ 0x1e);
    let weights = draws(n, 100, seed ^ 0x3e);
    activity::sort_by_end(
        (0..n)
            .map(|i| Activity::new(starts[i], starts[i] + 1 + lengths[i], 1 + weights[i]))
            .collect(),
    )
}

fn vertex_priorities(n: usize, seed: u64) -> GraphPriorityInstance {
    let g = graph(n, seed).graph;
    let pri = coloring_orders::order_random(&g, seed ^ 0x7a11);
    GraphPriorityInstance::new(g, pri)
}

fn edge_priorities(n: usize, seed: u64) -> GraphPriorityInstance {
    let g = graph(n, seed).graph;
    let pri = matching::random_edge_priorities(&g, seed ^ 0xed6e);
    GraphPriorityInstance::new(g, pri)
}

fn sssp<A>(algo: A, n: usize, seed: u64) -> Box<dyn Case>
where
    A: PhaseAlgorithm<Input = SsspInstance, Output = Vec<u64>> + Sync + 'static,
{
    let inst = graph(n, seed);
    let objects = inst.graph.num_vertices();
    boxed(algo, inst, objects)
}

macro_rules! row {
    ($name:literal, $size:expr, $build:expr) => {
        EntrySpec {
            name: $name,
            size: $size,
            build: $build,
        }
    };
}

/// Every registry entry, in registration order. The coverage check in
/// `oneshot` compares these names against `registry::names()`.
pub fn table() -> Vec<EntrySpec> {
    vec![
        row!("lis", 2_000, |n, s| boxed(Lis, series(n, s), n)),
        row!("lis/weighted", 2_000, |n, s| {
            let weights = draws(n, 40, s ^ 0x3e16).into_iter().map(|w| 1 + w as u32);
            boxed(WeightedLis, (series(n, s), weights.collect()), n)
        }),
        row!("activity/type1", 60_000, |n, s| boxed(
            ActivityType1,
            activities(n, s),
            n
        )),
        row!("activity/type1-pam", 15_000, |n, s| boxed(
            ActivityType1Pam,
            activities(n, s),
            n
        )),
        row!("activity/type2", 40_000, |n, s| boxed(
            ActivityType2,
            activities(n, s),
            n
        )),
        row!("activity/unweighted", 300_000, |n, s| boxed(
            UnweightedActivity,
            activities(n, s),
            n
        )),
        row!("knapsack", 20_000, |n, s| {
            // Capacity `n` over 40 items; the lightest weight sets the
            // round count (⌈W / w*⌉).
            let weights = draws(40, 30, s);
            let values = draws(40, 500, s ^ 0x14a9);
            let items = (0..40).map(|i| Item::new(2 + weights[i], values[i]));
            boxed(Knapsack, (items.collect::<Vec<_>>(), n as u64), 40)
        }),
        row!("huffman", 200_000, |n, s| {
            let freqs: Vec<u64> = draws(n, 1000, s).into_iter().map(|v| 1 + v).collect();
            boxed(Huffman, freqs, n)
        }),
        row!("sssp/delta", 1 << 17, |n, s| sssp(DeltaSssp, n, s)),
        row!("sssp/dijkstra", 1 << 16, |n, s| sssp(DijkstraSssp, n, s)),
        row!("sssp/rho", 1 << 16, |n, s| sssp(RhoSssp, n, s)),
        row!("sssp/crauser", 1 << 15, |n, s| sssp(CrauserSssp, n, s)),
        row!("sssp/pam", 1 << 13, |n, s| sssp(PamSssp, n, s)),
        row!("sssp/bellman-ford", 1 << 16, |n, s| sssp(
            BellmanFordSssp,
            n,
            s
        )),
        row!("mis/tas", 1 << 15, |n, s| {
            let inst = vertex_priorities(n, s);
            let objects = inst.graph.num_vertices();
            boxed(GreedyMis, inst, objects)
        }),
        row!("mis/rounds", 1 << 17, |n, s| {
            let inst = vertex_priorities(n, s);
            let objects = inst.graph.num_vertices();
            boxed(RoundsMis, inst, objects)
        }),
        row!("coloring", 1 << 15, |n, s| {
            let inst = vertex_priorities(n, s);
            let objects = inst.graph.num_vertices();
            boxed(Coloring, inst, objects)
        }),
        row!("matching", 1 << 16, |n, s| {
            let inst = edge_priorities(n, s);
            let objects = inst.priority.len();
            boxed(Matching, inst, objects)
        }),
        row!("matching/reservations", 1 << 15, |n, s| {
            let inst = edge_priorities(n, s);
            let objects = inst.priority.len();
            boxed(MatchingReservations, inst, objects)
        }),
        row!("whac", 3_000, |n, s| {
            let t = draws(n, 6 * n as u64 + 12, s);
            let p = draws(n, n as u64 + 6, s ^ 0x301e);
            let moles: Vec<Mole> = (0..n)
                .map(|i| Mole {
                    t: t[i] as i64,
                    p: p[i] as i64 - (n / 2) as i64,
                })
                .collect();
            boxed(Whac, moles, n)
        }),
        row!("whac/2d", 1_200, |n, s| {
            let side = (n as u64 / 4).max(4);
            let t = draws(n, 8 * n as u64 + 16, s);
            let x = draws(n, side, s ^ 0x3d2);
            let y = draws(n, side, s ^ 0x3d3);
            let half = (side / 2) as i64;
            let moles: Vec<Mole2d> = (0..n)
                .map(|i| Mole2d {
                    t: t[i] as i64,
                    x: x[i] as i64 - half,
                    y: y[i] as i64 - half,
                })
                .collect();
            boxed(Whac2d, moles, n)
        }),
        row!("chain3d", 2_000, |n, s| {
            let range = 2 * n as u64 + 8;
            let [a, b, c] = [0u64, 1, 2].map(|k| draws(n, range, s ^ (k << 16)));
            let pts: Vec<Point3> = (0..n)
                .map(|i| Point3 {
                    a: a[i] as i64,
                    b: b[i] as i64,
                    c: c[i] as i64,
                })
                .collect();
            boxed(Chain3d, pts, n)
        }),
        row!("chain4d", 1_200, |n, s| {
            let range = 2 * n as u64 + 8;
            let [a, b, c, d] = [0u64, 1, 2, 3].map(|k| draws(n, range, s ^ (k << 16)));
            let pts: Vec<Point4> = (0..n)
                .map(|i| Point4 {
                    a: a[i] as i64,
                    b: b[i] as i64,
                    c: c[i] as i64,
                    d: d[i] as i64,
                })
                .collect();
            boxed(Chain4d, pts, n)
        }),
        row!("random-perm", 200_000, |n, s| {
            // The permutation is fixed by (n, target seed); the target
            // seed is itself a draw.
            let target = draws(1, u64::MAX, s)[0];
            boxed(RandomPerm, (n, target), n)
        }),
    ]
}
