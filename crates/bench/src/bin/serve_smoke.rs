//! Serving-tier gate: fails (exit 1) if any registry entry's
//! cache-served Zipf trace diverges from the freshly-prepared
//! reference, or if the cache fails to absorb a skewed trace.
//!
//! For every registry entry, a deterministic Zipf query trace over the
//! entry's scenario families is replayed through a [`ServingTier`] —
//! shared prepared instances behind the scenario-keyed LRU cache — at
//! 1 and 8 worker threads. Each replay's digest chain must equal the
//! one-shot (prepare-per-query, uncached) reference digest, and the
//! cache must prepare each distinct scenario key of the trace exactly
//! once with no eviction: a re-preparation means the keying, the LRU
//! or single-flight is broken. That check is exact at any thread
//! count. The hit rate is not: under concurrency, queries that wait on
//! another query's in-flight preparation count as (coalesced) misses,
//! however the workers happen to be scheduled. The `hit_rate >= 0.9`
//! floor therefore applies to the 1-thread leg only, where the miss
//! count is the trace's compulsory misses and nothing else.
//!
//! Run in CI with `PP_SMOKE=1` (tiny instances; the properties are
//! size-independent). `PP_SCALE` scales instances up for local runs.
//!
//! Run with: `cargo run --release -p pp-bench --bin serve_smoke`

#![forbid(unsafe_code)]

use pp_serve::{ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig};

fn main() {
    let size = if pp_bench::smoke() {
        120
    } else {
        800 * pp_bench::scale()
    };
    let queries = 64usize;
    let mut failures = 0usize;
    let table = pp_bench::Table::new(&[
        "entry",
        "threads",
        "queries",
        "keys",
        "prepares",
        "evictions",
        "coalesced",
        "hit_rate",
        "p50_ns",
        "served",
    ]);
    for entry in pp_algos::registry::registry() {
        // Up to three of the entry's scenario families, Zipf-mixed into
        // one trace (kind-matched, so graph entries get graph scenarios
        // and sequence entries sequence scenarios).
        let scenarios: Vec<ScenarioSpec> = entry.scenarios().into_iter().take(3).collect();
        let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(queries, 17));
        // The trace's compulsory misses: one preparation per tenant it
        // touches (every smoke instance fits the default cache budget).
        let keys = trace.distinct_scenarios() as u64;
        for threads in [1usize, 8] {
            let tier = ServingTier::new(
                entry.name(),
                ServeOptions::new(size, 3).with_threads(threads),
            )
            .expect("registry entry");
            let report = tier.serve_trace(&trace);
            let conforms = report.digest == tier.reference_digest(&trace);
            let counters = report.counters;
            let hit_rate = counters.hit_rate();
            let verdict = if !conforms {
                "DIVERGED"
            } else if counters.prepares != keys || counters.evictions != 0 {
                "REPREPARED"
            } else if threads == 1 && hit_rate < 0.9 {
                "COLD"
            } else {
                "ok"
            };
            if verdict != "ok" {
                failures += 1;
            }
            table.row(&[
                entry.name().to_string(),
                threads.to_string(),
                report.queries.to_string(),
                keys.to_string(),
                counters.prepares.to_string(),
                counters.evictions.to_string(),
                counters.coalesced.to_string(),
                format!("{hit_rate:.3}"),
                report.latency.quantile(0.5).unwrap_or(0).to_string(),
                verdict.to_string(),
            ]);
        }
    }
    if failures > 0 {
        eprintln!(
            "serve_smoke: {failures} entry/thread legs diverged from the \
             freshly-prepared reference, re-prepared an instance or missed \
             the cache"
        );
        std::process::exit(1);
    }
    println!("serve_smoke: every cache-served trace matches its freshly-prepared reference");
}
