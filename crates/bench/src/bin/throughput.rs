//! Throughput bench: queries/sec for **prepared** vs **unprepared**
//! SSSP serving repeated per-source queries against one fixed network —
//! the ROADMAP's heavy-traffic scenario (millions of SSSP queries
//! against one graph) — swept across the workload scenario families of
//! `pp-workloads`, so amortization is measured on every input shape,
//! not just the uniform case.
//!
//! Three service tiers, worst to best:
//!
//! * *unprepared* — the pre-redesign calling convention: a stateless
//!   service holds the weighted edge list and each `solve_par` query
//!   rebuilds the instance's dependence structure (CSR construction,
//!   w\* scan) and reallocates every hot buffer.
//! * *reused* — the CSR is kept across queries but each query is still
//!   a one-shot `solve_par` (fresh buffers, per-call w\* scan).
//! * *prepared* — `Solver::prepare` builds the instance structure once;
//!   queries run through `PreparedSolver::solve_batch`, recycling
//!   distance arrays, bucket queues and the frontier engine through a
//!   `Scratch` workspace.
//!
//! On top of the sweep, **served** rows measure the `pp-serve` tier: a
//! deterministic Zipf query trace replayed through the scenario-keyed
//! instance cache on a worker pool, reported as latency percentiles
//! (`p50_ns` / `p99_ns`), aggregate `qps`, and `cache_hit_rate` — one
//! trace per scenario family plus a mixed trace across all of them.
//! Every served leg is digest-checked against the freshly-prepared
//! reference before its row is emitted.
//!
//! Output: one JSON document with a stable row schema — `(scenario,
//! family, tier, threads, backend, ns_per_query, qps, speedup_vs_1t)`,
//! with `prepared` rows additionally carrying the pool's scheduler
//! counters (`sched_queue_locks` / `sched_steals` / `sched_parks` /
//! `sched_injector_pushes` / `sched_jobs`, asserted present before the
//! JSON is written) — printed to stdout *and* written to `BENCH_throughput.json` at the
//! repository root (override the path with `PP_BENCH_OUT`). The
//! committed copy of that file is the perf trajectory: each PR's CI
//! archives its own run, and the in-repo baseline records the numbers
//! the current code was measured at (older baselines stay reachable in
//! git history). `PP_SCALE` scales the graphs; `PP_SMOKE=1` shrinks
//! everything to CI-tripwire sizes.
//!
//! Thread counts are requested via `RunConfig::threads` and are *real*
//! since the rayon shim grew a fork-join pool: the `backend` field
//! records `"parallel"`, and `speedup_vs_1t` derives each row's
//! scaling against the same (scenario, family, tier) at one thread.
//! The run warns — deliberately without failing, because CI containers
//! are routinely pinned to a single hardware core where 8 workers
//! cannot beat one — if 8-thread prepared throughput fails to exceed
//! 1-thread on the largest measured graph.
//!
//! Run with: `cargo run --release -p pp-bench --bin throughput`

#![forbid(unsafe_code)]

use phase_parallel::{PhaseAlgorithm, RunConfig, Solver};
use pp_algos::api::{DeltaSssp, DijkstraSssp, SsspInstance};
use pp_graph::{Graph, GraphBuilder};
use pp_serve::{ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig};
use std::time::Instant;

/// The scenario families the tiers sweep: one per qualitatively
/// different input shape, each with the weight distribution that
/// stresses it best.
const SCENARIOS: [&str; 5] = [
    "graph/uniform+w/uniform",
    "graph/rmat+w/uniform",
    "graph/grid2d+w/unit",
    "graph/geometric+w/exp",
    "graph/star-hub+w/uniform",
];

/// The service's stored form: the raw weighted edge list (`u < v`).
fn edge_triples(g: &Graph) -> Vec<(u32, u32, u64)> {
    let mut edges = Vec::with_capacity(g.num_edges() / 2);
    for u in 0..g.num_vertices() as u32 {
        let ws = g.edge_weights(u);
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            if u < v {
                edges.push((u, v, ws[i]));
            }
        }
    }
    edges
}

fn build_instance(n: usize, edges: &[(u32, u32, u64)]) -> SsspInstance {
    let mut b = GraphBuilder::new(n).symmetric().weighted();
    b.extend(edges.iter().copied());
    SsspInstance::new(b.build(), 0)
}

/// Nanoseconds per query over one timed pass, plus the scheduler
/// activity the prepared batch produced (from the pool's `sched_*`
/// counters — the behavioral signal nproc=1 CI can still assert on
/// when speedups are unobservable).
struct Tier {
    unprepared: f64,
    reused: f64,
    prepared: f64,
    sched_queue_locks: u64,
    sched_steals: u64,
    sched_parks: u64,
    sched_injector_pushes: u64,
    sched_jobs: u64,
}

fn bench_family<A>(
    algo: A,
    n: usize,
    edges: &[(u32, u32, u64)],
    queries: &[RunConfig],
    threads: usize,
) -> Tier
where
    A: PhaseAlgorithm<Input = SsspInstance, Output = Vec<u64>> + Sync,
    A::Prepared: Sync,
{
    let solver = Solver::new(algo).configure(|c| c.with_threads(threads));
    let checksum = |d: &Vec<u64>| d.iter().copied().fold(0u64, u64::wrapping_add);
    // Clamp away a zero elapsed (coarse clocks on degenerate smoke
    // runs) so neither ns_per_query nor the derived qps can go
    // infinite and corrupt the JSON.
    let per_query = |elapsed: f64| elapsed.max(1e-12) * 1e9 / queries.len() as f64;

    // Tier 1 — unprepared: rebuild the instance per query (the old
    // one-shot calling convention for a stateless service).
    let t = Instant::now();
    let mut sum_unprepared = 0u64;
    for q in queries {
        let instance = build_instance(n, edges);
        sum_unprepared =
            sum_unprepared.wrapping_add(checksum(&solver.solve_with(&instance, q).output));
    }
    let unprepared = per_query(t.elapsed().as_secs_f64());

    // Tier 2 — instance kept, but every query still a one-shot solve.
    let instance = build_instance(n, edges);
    let t = Instant::now();
    let mut sum_reused = 0u64;
    for q in queries {
        sum_reused = sum_reused.wrapping_add(checksum(&solver.solve_with(&instance, q).output));
    }
    let reused = per_query(t.elapsed().as_secs_f64());

    // Tier 3 — prepared once, queried as a batch with recycled scratch.
    let prepared_solver = solver.prepare(&instance);
    let t = Instant::now();
    let batch = prepared_solver.solve_batch(queries);
    let prepared = per_query(t.elapsed().as_secs_f64());

    // All three tiers must serve identical answers.
    let sum_prepared = batch.outputs().map(checksum).fold(0u64, u64::wrapping_add);
    assert_eq!(sum_unprepared, sum_reused, "tier outputs diverged");
    assert_eq!(sum_reused, sum_prepared, "prepared outputs diverged");

    let sched = |name: &str| batch.stats.counter(name).unwrap_or(0);
    Tier {
        unprepared,
        reused,
        prepared,
        sched_queue_locks: sched("sched_queue_locks"),
        sched_steals: sched("sched_steals"),
        sched_parks: sched("sched_parks"),
        sched_injector_pushes: sched("sched_injector_pushes"),
        sched_jobs: sched("sched_jobs"),
    }
}

/// One serving-tier measurement: replay a Zipf trace through a
/// [`ServingTier`] (instance cache + shared prepared instances) and
/// append a row with the latency percentiles, throughput, and the cache
/// hit rate. The served digest is checked against the freshly-prepared
/// reference on every leg — a bench row is only worth keeping if the
/// answers behind it are right.
#[allow(clippy::too_many_arguments)]
fn bench_serving(
    rows: &mut Vec<String>,
    scenario_label: &str,
    specs: &[ScenarioSpec],
    n_target: usize,
    trace_queries: usize,
    threads: usize,
    unprepared_1t_ns: f64,
) {
    let trace = QueryTrace::generate(specs, &TraceConfig::new(trace_queries, 42));
    let tier = ServingTier::new(
        "sssp/delta",
        ServeOptions::new(n_target, 1).with_threads(threads),
    )
    .expect("serving entry");
    let report = tier.serve_trace(&trace);
    assert_eq!(
        report.digest,
        tier.reference_digest(&trace),
        "{scenario_label}: served trace diverged from the freshly-prepared reference"
    );
    let p50 = report.latency.quantile(0.5).unwrap_or(0);
    let p99 = report.latency.quantile(0.99).unwrap_or(0);
    // The amortization tripwire the serving tier exists for: a served
    // median query must leave the rebuild-per-query tier far behind.
    if threads == 1 && unprepared_1t_ns > 0.0 {
        let speedup = unprepared_1t_ns / p50.max(1) as f64;
        if speedup < 3.0 {
            eprintln!(
                "warning: {scenario_label}: served p50 ({p50} ns) only {speedup:.1}x \
                 faster than the unprepared rebuild tier ({unprepared_1t_ns:.0} ns)"
            );
        }
    }
    // The six resilience counters are always exported by the tier
    // (zero on this fault-free leg); surfacing them in every served row
    // keeps the JSON schema identical between clean and fault-injected
    // runs.
    let resilience = |name: &str| report.stats.counter(name).unwrap_or(0);
    rows.push(format!(
        "    {{\"scenario\": \"{scenario_label}\", \"family\": \"sssp/delta\", \
         \"tier\": \"served\", \"threads\": {threads}, \
         \"backend\": \"parallel\", \"vertices\": {n_target}, \
         \"queries\": {}, \"p50_ns\": {p50}, \"p99_ns\": {p99}, \
         \"qps\": {:.2}, \"cache_hit_rate\": {:.4}, \
         \"deadline_exceeded\": {}, \"panics_isolated\": {}, \
         \"queries_rejected\": {}, \"retries\": {}, \
         \"scratch_quarantined\": {}, \"validation_rejected\": {}}}",
        trace.len(),
        report.qps(),
        report.counters.hit_rate(),
        resilience("deadline_exceeded"),
        resilience("panics_isolated"),
        resilience("queries_rejected"),
        resilience("retries"),
        resilience("scratch_quarantined"),
        resilience("validation_rejected"),
    ));
}

/// Repository root, resolved relative to this crate's manifest so the
/// JSON lands in the same place no matter the working directory.
fn default_out_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json")
}

fn main() {
    let smoke = pp_bench::smoke();
    let (n_target, n_queries) = if smoke {
        (300usize, 8usize)
    } else {
        (4000 * pp_bench::scale(), 40)
    };
    // Zipf trace length for the serving rows: long enough that the cold
    // misses (leaders + any coalesced followers) stay under a tenth of
    // the trace.
    let serve_queries = if smoke { 64 } else { 200 };
    // Smoke keeps the 1- and 8-thread legs so the scaling tripwire
    // below still observes the real pool on every CI run.
    let thread_counts: &[usize] = if smoke { &[1, 8] } else { &[1, 4, 8] };

    let mut rows = Vec::new();
    let mut scaling_warnings = 0usize;
    for key in SCENARIOS {
        let spec = ScenarioSpec::parse(key).expect("scenario key");
        let wg = spec.weighted_graph(n_target, 1).expect("graph scenario");
        let n = wg.num_vertices();
        let edges = edge_triples(&wg);
        let queries: Vec<RunConfig> = (0..n_queries as u64)
            .map(|i| RunConfig::seeded(i).with_source((pp_parlay::hash64(7, i) % n as u64) as u32))
            .collect();
        let mut delta_unprepared_1t_ns = 0.0f64;
        for (family, runner) in [
            (
                "sssp/delta",
                Box::new(|t| bench_family(DeltaSssp, n, &edges, &queries, t))
                    as Box<dyn Fn(usize) -> Tier>,
            ),
            (
                "sssp/dijkstra",
                Box::new(|t| bench_family(DijkstraSssp, n, &edges, &queries, t)),
            ),
        ] {
            // Measure every thread count first: `speedup_vs_1t`
            // derives each row against the 1-thread leg of its tier.
            let tiers: Vec<(usize, Tier)> = thread_counts.iter().map(|&t| (t, runner(t))).collect();
            assert_eq!(
                tiers[0].0, 1,
                "first thread leg must be the 1-thread baseline"
            );
            if family == "sssp/delta" {
                delta_unprepared_1t_ns = tiers[0].1.unprepared;
            }
            let mut prepared_qps_1t = 0.0f64;
            let mut prepared_qps_max = 0.0f64;
            for (threads, tier) in &tiers {
                let base = &tiers[0].1;
                for (tier_name, ns, base_ns) in [
                    ("unprepared", tier.unprepared, base.unprepared),
                    ("reused", tier.reused, base.reused),
                    ("prepared", tier.prepared, base.prepared),
                ] {
                    if tier_name == "prepared" {
                        if *threads == 1 {
                            prepared_qps_1t = 1e9 / ns;
                        }
                        prepared_qps_max = 1e9 / ns;
                    }
                    // Prepared rows carry the batch's scheduler
                    // activity: lock traffic per task is the metric
                    // that must drop under the deque scheduler whatever
                    // speedup the runner's core count allows.
                    let sched_fields = if tier_name == "prepared" {
                        format!(
                            ", \"sched_queue_locks\": {}, \"sched_steals\": {}, \
                             \"sched_parks\": {}, \"sched_injector_pushes\": {}, \
                             \"sched_jobs\": {}",
                            tier.sched_queue_locks,
                            tier.sched_steals,
                            tier.sched_parks,
                            tier.sched_injector_pushes,
                            tier.sched_jobs,
                        )
                    } else {
                        String::new()
                    };
                    rows.push(format!(
                        "    {{\"scenario\": \"{key}\", \"family\": \"{family}\", \
                         \"tier\": \"{tier_name}\", \"threads\": {threads}, \
                         \"backend\": \"parallel\", \
                         \"vertices\": {n}, \"edges\": {}, \
                         \"ns_per_query\": {ns:.1}, \"qps\": {:.2}, \
                         \"speedup_vs_1t\": {:.3}{sched_fields}}}",
                        edges.len(),
                        1e9 / ns,
                        base_ns / ns,
                    ));
                }
            }
            // Thread-scaling tripwire: warn (never fail) when the
            // widest pool cannot beat one thread — a real signal on a
            // multi-core host, though a tiny smoke instance or a noisy
            // shared runner can trip it too (hence a warning, with
            // `nproc` printed so the reader can judge).
            if prepared_qps_max <= prepared_qps_1t {
                scaling_warnings += 1;
                eprintln!(
                    "warning: {key} {family}: prepared qps at {} threads \
                     ({prepared_qps_max:.0}) <= 1-thread qps ({prepared_qps_1t:.0}) — \
                     no thread scaling observed (nproc={}; expected at nproc=1 or on tiny instances)",
                    thread_counts.last().unwrap(),
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1),
                );
            }
        }
        // Serving tier: a Zipf source trace against this one scenario
        // through the instance cache — the cold query pays the
        // preparation, the steady state is all hits.
        for &threads in thread_counts {
            bench_serving(
                &mut rows,
                key,
                std::slice::from_ref(&spec),
                n_target,
                serve_queries,
                threads,
                delta_unprepared_1t_ns,
            );
        }
    }
    // One mixed trace across every scenario family: scenario choice and
    // source choice both Zipf-skewed, the LRU cache holding the hot
    // working set of prepared instances.
    let all_specs: Vec<ScenarioSpec> = SCENARIOS
        .iter()
        .map(|key| ScenarioSpec::parse(key).expect("scenario key"))
        .collect();
    for &threads in thread_counts {
        bench_serving(
            &mut rows,
            "trace:zipf-mixed",
            &all_specs,
            n_target,
            2 * serve_queries,
            threads,
            0.0,
        );
    }
    if scaling_warnings > 0 {
        eprintln!("warning: {scaling_warnings} scenario/family pairs showed no thread scaling");
    }
    // The smoke gate's counter tripwire: every prepared row must carry
    // the scheduler counters — a refactor that silently stops plumbing
    // them through `ExecutionStats` fails here, not in a dashboard
    // months later.
    let prepared_rows = rows
        .iter()
        .filter(|r| r.contains("\"tier\": \"prepared\""))
        .collect::<Vec<_>>();
    assert!(
        !prepared_rows.is_empty(),
        "no prepared rows were emitted at all"
    );
    for row in prepared_rows {
        assert!(
            row.contains("\"sched_steals\"") && row.contains("\"sched_parks\""),
            "prepared row missing scheduler counters: {row}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"smoke\": {smoke},\n  \
         \"scale\": {},\n  \"target_vertices\": {n_target},\n  \
         \"queries\": {n_queries},\n  \"rows\": [\n{}\n  ]\n}}",
        pp_bench::scale(),
        rows.join(",\n"),
    );
    println!("{json}");

    let out_path = std::env::var_os("PP_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out_path);
    match std::fs::write(&out_path, json + "\n") {
        Ok(()) => eprintln!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
}
