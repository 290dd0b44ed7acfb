//! `served-hot` and `served-churn`: a Zipf trace of SSSP queries
//! replayed closed-loop through `pp_serve::ServingTier`, plus a direct
//! replay on the benchmark's own pool (traced runs) that splits each
//! query into cache lookup, preparation and query.

use crate::probe::{self, mean, median, Tracer};
use crate::report::{json_str, Outcome};
use crate::{repeat_setup, Args, Pools};
use phase_parallel::{PhaseAlgorithm, RunConfig, Scratch};
use pp_algos::api::{DeltaSssp, SsspInstance};
use pp_algos::registry::{self, AlgorithmEntry, CaseSpec, Digest};
use pp_serve::{InstanceCache, ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig, TraceQuery};
use rayon::prelude::*;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const ENTRY: &str = "sssp/delta";
/// Vertices per tenant instance (rmat and grid2d round up to 4 096).
const INSTANCE_SIZE: usize = 4_000;
/// The churn cache budget: a fixed byte count, about eight instance
/// charges at `INSTANCE_SIZE`, so that 15 tenants cannot all stay
/// resident.
const CHURN_BUDGET_BYTES: usize = 4_128_768;
/// Generation seed of every tenant instance. The tenant set is fixed
/// so that runs differ only in their query stream (`--seed`): the cost
/// of a source varies several-fold across instances of one family
/// (geometric graphs have components), which would otherwise swamp
/// every comparison.
const TENANT_SEED: u64 = 1;
/// One-shot baselines run from this many of the hottest sources per
/// tenant.
const BASELINE_SOURCES: u64 = 8;

/// The graph families of the hot set, each with the weight
/// distribution it is served with.
const HOT: [&str; 5] = [
    "graph/uniform+w/uniform",
    "graph/rmat+w/uniform",
    "graph/grid2d+w/unit",
    "graph/geometric+w/exp",
    "graph/star-hub+w/uniform",
];
const FAMILIES: [&str; 5] = [
    "graph/uniform",
    "graph/rmat",
    "graph/grid2d",
    "graph/geometric",
    "graph/star-hub",
];
const WEIGHTS: [&str; 3] = ["w/unit", "w/uniform", "w/exp"];

/// One served workload's shape.
pub struct ServedSpec {
    scenarios: Vec<ScenarioSpec>,
    queries: usize,
    scenario_skew: u32,
    source_ranks: usize,
    budget: Option<usize>,
    /// Prepare every tenant before measuring; otherwise every replay
    /// starts from an empty cache.
    warm: bool,
}

fn parse(keys: impl IntoIterator<Item = String>) -> Vec<ScenarioSpec> {
    keys.into_iter()
        .map(|k| ScenarioSpec::parse(&k).expect("scenario key"))
        .collect()
}

pub fn hot() -> ServedSpec {
    ServedSpec {
        scenarios: parse(HOT.map(String::from)),
        queries: 4_000,
        scenario_skew: 2,
        source_ranks: 1_024,
        budget: None,
        warm: true,
    }
}

pub fn churn() -> ServedSpec {
    ServedSpec {
        scenarios: parse(
            FAMILIES
                .iter()
                .flat_map(|f| WEIGHTS.iter().map(move |w| format!("{f}+{w}"))),
        ),
        queries: 2_000,
        scenario_skew: 1,
        source_ranks: 1_024,
        budget: Some(CHURN_BUDGET_BYTES),
        warm: false,
    }
}

struct Setup {
    tier: ServingTier,
    trace: QueryTrace,
    /// One instance per tenant for the one-shot baselines.
    tenants: Vec<SsspInstance>,
    gen_seconds: f64,
}

/// Per-query record of a traced direct replay.
#[derive(Clone, Copy)]
struct Record {
    digest: u64,
    lookup: (Instant, Instant),
    prepare: Option<(Instant, Instant)>,
    query_end: Instant,
    relaxations: u64,
    substeps: u64,
    takes: u64,
    reuses: u64,
}

impl Record {
    /// An untraced query: its digest only, no clock reads.
    fn untraced(digest: u64, epoch: Instant) -> Self {
        Self {
            digest,
            lookup: (epoch, epoch),
            prepare: None,
            query_end: epoch,
            relaxations: 0,
            substeps: 0,
            takes: 0,
            reuses: 0,
        }
    }
}

struct Workload<'a> {
    spec: &'a ServedSpec,
    args: &'a Args,
    pools: &'a Pools,
    entry: &'static AlgorithmEntry,
}

impl Workload<'_> {
    fn options(&self) -> ServeOptions {
        let options = ServeOptions::new(INSTANCE_SIZE, TENANT_SEED).with_threads(self.pools.nproc);
        match self.spec.budget {
            Some(budget) => options.with_cache_budget_bytes(budget),
            None => options,
        }
    }

    fn tier(&self) -> ServingTier {
        ServingTier::new(ENTRY, self.options()).expect("served entry")
    }

    /// One query per tenant: replaying it prepares every tenant.
    fn warm_trace(&self) -> QueryTrace {
        QueryTrace {
            scenarios: self.spec.scenarios.clone(),
            queries: (0..self.spec.scenarios.len())
                .map(|scenario| TraceQuery {
                    scenario,
                    source_rank: 0,
                    seed: scenario as u64,
                })
                .collect(),
        }
    }

    fn set_up(&self) -> Setup {
        let tier = self.tier();
        let gen = Instant::now();
        let config = TraceConfig::new(self.spec.queries, self.args.seed)
            .with_scenario_skew(self.spec.scenario_skew)
            .with_source_ranks(self.spec.source_ranks);
        let trace = QueryTrace::generate(&self.spec.scenarios, &config);
        let tenants = self
            .spec
            .scenarios
            .iter()
            .map(|s| {
                let g = s
                    .weighted_graph(INSTANCE_SIZE, TENANT_SEED)
                    .expect("tenant graph");
                SsspInstance::new(g, 0)
            })
            .collect();
        let gen_seconds = gen.elapsed().as_secs_f64();
        if self.spec.warm {
            let warm = self.warm_trace();
            tier.serve_trace(&warm);
            let resident = tier.cache().snapshot().entries as usize;
            assert_eq!(resident, warm.len(), "warm-up left tenants unprepared");
        }
        Setup {
            tier,
            trace,
            tenants,
            gen_seconds,
        }
    }

    fn key(&self, trace: &QueryTrace, q: &TraceQuery) -> String {
        format!(
            "{ENTRY}|{}|n={INSTANCE_SIZE}|seed={TENANT_SEED}",
            trace.scenarios[q.scenario].cache_key(),
        )
    }

    /// Replay `trace` on the benchmark's own `nproc` pool through
    /// `InstanceCache::get_or_prepare` and `SharedPrepared::query`, one
    /// `Scratch` per worker, as the serving tier does. Traced replays
    /// return a record per query.
    fn direct_replay(
        &self,
        cache: &InstanceCache,
        trace: &QueryTrace,
        traced: bool,
    ) -> Vec<Record> {
        let epoch = Instant::now();
        self.pools.n.install(|| {
            trace
                .queries
                .par_iter()
                .map_init(Scratch::new, |scratch, q| {
                    let key = self.key(trace, q);
                    let case = CaseSpec::new(INSTANCE_SIZE, TENANT_SEED)
                        .with_scenario(trace.scenarios[q.scenario]);
                    let cfg = RunConfig::seeded(q.seed).with_source(q.source_in(INSTANCE_SIZE));
                    let prepare_with = || {
                        self.pools
                            .one
                            .install(|| self.entry.prepare_shared(&case, &cfg))
                    };
                    if !traced {
                        let answer = cache
                            .get_or_prepare(&key, prepare_with)
                            .query(scratch, &cfg);
                        let ok = answer.outcome.is_complete();
                        return Record::untraced(if ok { answer.digest } else { 0 }, epoch);
                    }
                    let (takes, reuses) = (scratch.takes(), scratch.reuses());
                    let l0 = Instant::now();
                    let mut prepare = None;
                    let instance = cache.get_or_prepare(&key, || {
                        let p0 = Instant::now();
                        let shared = prepare_with();
                        prepare = Some((p0, Instant::now()));
                        shared
                    });
                    let l1 = Instant::now();
                    let answer = instance.query(scratch, &cfg);
                    let query_end = Instant::now();
                    let ok = answer.outcome.is_complete();
                    let counter = |name| answer.stats.counter(name).unwrap_or(0);
                    Record {
                        digest: if ok { answer.digest } else { 0 },
                        lookup: (l0, l1),
                        prepare,
                        query_end,
                        relaxations: counter("relaxations"),
                        substeps: counter("substeps"),
                        takes: scratch.takes() - takes,
                        reuses: scratch.reuses() - reuses,
                    }
                })
                .collect()
        })
    }
}

/// One-shot `solve_seq`, `solve_par` at 1 thread and at `nproc` on
/// every tenant instance, from each of the trace's hottest sources.
/// Repetitions are spread over the run, one between replays, so that
/// the estimates see the same host conditions the replays do.
struct Baseline {
    tenants: Vec<SsspInstance>,
    /// `(tenant, source, reference digest)` per measured pair.
    cases: Vec<(usize, u32, u64)>,
    /// Per pair: seq, par@1 and par seconds, and rounds of par.
    samples: Vec<[Vec<f64>; 4]>,
}

impl Baseline {
    fn new(mut tenants: Vec<SsspInstance>) -> Self {
        let mut cases = Vec::new();
        for (i, inst) in tenants.iter_mut().enumerate() {
            for rank in 0..BASELINE_SOURCES {
                let hot = TraceQuery {
                    scenario: 0,
                    source_rank: rank,
                    seed: 0,
                };
                // `solve_seq` is config-less: it runs from the
                // instance's own source.
                inst.source = hot.source_in(INSTANCE_SIZE);
                cases.push((i, inst.source, DeltaSssp.solve_seq(inst).digest()));
            }
        }
        let samples = cases.iter().map(|_| Default::default()).collect();
        Self {
            tenants,
            cases,
            samples,
        }
    }

    /// One repetition over every pair; digests must agree.
    fn rep(&mut self, pools: &Pools, cfg: &RunConfig, outcome: &mut Outcome) {
        for (&(i, source, want), t) in self.cases.iter().zip(&mut self.samples) {
            self.tenants[i].source = source;
            let inst = &self.tenants[i];
            let t0 = Instant::now();
            let seq = DeltaSssp.solve_seq(inst).digest();
            let t1 = Instant::now();
            let par1 = pools.one.install(|| DeltaSssp.solve_par(inst, cfg));
            let t2 = Instant::now();
            let par = pools.n.install(|| DeltaSssp.solve_par(inst, cfg));
            let t3 = Instant::now();
            let digests = [seq, par1.output.digest(), par.output.digest()];
            outcome.tally(3, digests.iter().filter(|&&d| d != want).count() as u64);
            t[0].push((t1 - t0).as_secs_f64());
            t[1].push((t2 - t1).as_secs_f64());
            t[2].push((t3 - t2).as_secs_f64());
            t[3].push(par.stats.rounds as f64);
        }
    }

    /// Σ over pairs of the median of column `i`.
    fn sum(&self, i: usize) -> f64 {
        self.samples.iter().map(|t| median(&t[i])).sum()
    }

    /// Median over pairs of the median of column `i`.
    fn median(&self, i: usize) -> f64 {
        median(
            &self
                .samples
                .iter()
                .map(|t| median(&t[i]))
                .collect::<Vec<_>>(),
        )
    }
}

/// Count a served replay: queries that did not complete fail, and so
/// does every query of a replay whose digest mismatched.
fn tally_replay(outcome: &mut Outcome, report: &pp_serve::TraceReport, want: u64) {
    let done = report.outcome_count(pp_serve::QueryOutcome::Completed) as u64;
    let n = report.queries as u64;
    let bad = if report.digest == want { n - done } else { n };
    if report.digest != want {
        eprintln!("served digest {:x} != reference {want:x}", report.digest);
    }
    outcome.tally(n, bad);
}

fn distinct_sources(trace: &QueryTrace) -> usize {
    trace
        .queries
        .iter()
        .map(|q| (q.scenario, q.source_in(INSTANCE_SIZE)))
        .collect::<HashSet<_>>()
        .len()
}

/// What the replays through the tier measured.
#[derive(Default)]
struct Served {
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    queries: usize,
    busy_s: f64,
    hits: u64,
    lookups: u64,
    prepares: u64,
    evictions: u64,
    coalesced: u64,
}

/// What the traced direct replays measured.
#[derive(Default)]
struct Direct {
    /// Records of traced replays; the first `warm` are the warm-up's.
    records: Vec<Record>,
    warm: usize,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    sched: rayon::SchedulerCounters,
    allocs: u64,
    alloc_bytes: u64,
}

impl Workload<'_> {
    /// Replay the trace through the tier until `until`, one baseline
    /// repetition after each replay. A churn replay starts from a fresh
    /// tier, so from an empty cache.
    fn serve(
        &self,
        mut tier: ServingTier,
        trace: &QueryTrace,
        want: u64,
        until: Instant,
        base: &mut Baseline,
        outcome: &mut Outcome,
    ) -> Served {
        let cfg = RunConfig::seeded(self.args.seed);
        let mut s = Served::default();
        while s.p50_ms.is_empty() || Instant::now() < until {
            if !self.spec.warm && !s.p50_ms.is_empty() {
                tier = self.tier();
            }
            let start = tier.cache().snapshot();
            let report = tier.serve_trace(trace);
            tally_replay(outcome, &report, want);
            let c = report.counters;
            s.hits += c.hits - start.hits;
            s.lookups += (c.hits + c.misses) - (start.hits + start.misses);
            s.prepares += c.prepares - start.prepares;
            s.evictions += c.evictions - start.evictions;
            s.coalesced += c.coalesced - start.coalesced;
            s.p50_ms
                .push(report.latency.quantile(0.5).unwrap_or(0) as f64 / 1e6);
            s.p99_ms
                .push(report.latency.quantile(0.99).unwrap_or(0) as f64 / 1e6);
            s.queries += report.queries;
            s.busy_s += report.elapsed.as_secs_f64();
            base.rep(self.pools, &cfg, outcome);
        }
        s
    }

    /// Direct replays until `until`, traced and untraced alternately;
    /// the untraced ones price the tracing. The hot workload's cache is
    /// warmed once (traced); a churn replay starts from an empty cache.
    fn replay_direct(
        &self,
        trace: &QueryTrace,
        want: u64,
        until: Instant,
        outcome: &mut Outcome,
    ) -> Direct {
        let budget = self.options().cache_budget_bytes;
        let hot_cache = InstanceCache::new(budget);
        let mut d = Direct::default();
        if self.spec.warm {
            d.records = self.direct_replay(&hot_cache, &self.warm_trace(), true);
            d.warm = d.records.len();
        }
        let mut replay = 0u64;
        while replay < 2 || Instant::now() < until {
            let traced = replay.is_multiple_of(2);
            let fresh;
            let cache = if self.spec.warm {
                &hot_cache
            } else {
                fresh = InstanceCache::new(budget);
                &fresh
            };
            let s0 = self.pools.n.scheduler_counters();
            let a0 = probe::alloc_counts();
            probe::set_alloc_counting(traced);
            let t = Instant::now();
            let got = self.direct_replay(cache, trace, traced);
            let elapsed = t.elapsed().as_secs_f64();
            probe::set_alloc_counting(false);
            let digest = got.iter().map(|r| r.digest).collect::<Vec<u64>>().digest();
            let n = got.len() as u64;
            if digest == want {
                outcome.tally(n, got.iter().filter(|r| r.digest == 0).count() as u64);
            } else {
                eprintln!("direct replay digest {digest:x} != reference {want:x}");
                outcome.tally(n, n);
            }
            if traced {
                let c = self.pools.n.scheduler_counters().since(&s0);
                d.sched.jobs_executed += c.jobs_executed;
                d.sched.steals += c.steals;
                d.sched.parks += c.parks;
                d.sched.queue_locks += c.queue_locks;
                let a1 = probe::alloc_counts();
                d.allocs += a1.0 - a0.0;
                d.alloc_bytes += a1.1 - a0.1;
                d.traced_s.push(elapsed);
                d.records.extend(got);
            } else {
                d.untraced_s.push(elapsed);
            }
            replay += 1;
        }
        d
    }
}

/// Keep the spans in memory until the run ends, then write them: one
/// request per query; the lookup span parents the prepare span, the
/// query span is its sibling.
fn write_spans(records: &[Record], args: &Args, outcome: &mut Outcome) {
    let mut tracer = Tracer::new();
    for (i, r) in records.iter().enumerate() {
        let req = i as u64 + 1;
        let (l0, l1) = r.lookup;
        let lookup = tracer.record("serve.get_or_prepare", ENTRY, req, 0, l0, l1);
        if let Some((p0, p1)) = r.prepare {
            tracer.record("algos.prepare_shared", ENTRY, req, lookup, p0, p1);
        }
        tracer.record("algos.query", ENTRY, req, 0, l1, r.query_end);
    }
    if let Err(e) = tracer.write(&args.span_path()) {
        eprintln!("could not write spans: {e}");
    }
    outcome.header("spans", tracer.len().to_string());
}

pub fn run(spec: &ServedSpec, args: &Args, pools: &Pools) -> Outcome {
    let w = Workload {
        spec,
        args,
        pools,
        entry: registry::lookup(ENTRY).expect("served entry"),
    };
    let mut outcome = Outcome::new();

    let (setup, setup_times) = repeat_setup(|| w.set_up());
    let Setup {
        tier,
        trace,
        tenants,
        gen_seconds,
    } = setup;
    let keys: Vec<String> = spec.scenarios.iter().map(|s| json_str(&s.key())).collect();
    outcome.header("entry", json_str(ENTRY));
    outcome.header("tenants", format!("[{}]", keys.join(",")));
    outcome.header("instance_size", INSTANCE_SIZE.to_string());
    outcome.header("trace_queries", spec.queries.to_string());
    outcome.header("workers", pools.nproc.to_string());

    // The freshly-prepared reference every replay must reproduce.
    let want = tier.reference_digest(&trace);
    let mut base = Baseline::new(tenants);

    // A traced run gives a third of its time to the tier, the rest to
    // direct replays.
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let serve_until = if args.trace {
        start + Duration::from_secs(args.seconds) / 3
    } else {
        deadline
    };
    let s = w.serve(tier, &trace, want, serve_until, &mut base, &mut outcome);
    outcome.header("replays", s.p50_ms.len().to_string());
    outcome.header("latency_samples", s.queries.to_string());

    if !args.trace {
        outcome.metric("setup_s", median(&setup_times), "s");
        outcome.metric("oneshot_s", base.sum(2), "s");
        outcome.metric("oneshot_1t_s", base.sum(1), "s");
        outcome.metric("seq_s", base.sum(0), "s");
        outcome.metric("qps", s.queries as f64 / s.busy_s, "1/s");
        outcome.metric("p50_ms", mean(&s.p50_ms), "ms");
        outcome.metric("p99_ms", mean(&s.p99_ms), "ms");
        return outcome;
    }

    let d = w.replay_direct(&trace, want, deadline, &mut outcome);
    write_spans(&d.records, args, &mut outcome);

    let measured = &d.records[d.warm..];
    let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let prep = |r: &Record| r.prepare.map_or(0.0, |(a, b)| secs(a, b));
    let over = |f: &dyn Fn(&Record) -> f64| measured.iter().map(f).collect::<Vec<f64>>();
    let query_us = over(&|r| secs(r.lookup.1, r.query_end) * 1e6);
    let lookup_us = over(&|r| (secs(r.lookup.0, r.lookup.1) - prep(r)) * 1e6);
    let total_us = over(&|r| secs(r.lookup.0, r.query_end) * 1e6);
    let prepare_ms: Vec<f64> = d
        .records
        .iter()
        .filter(|r| r.prepare.is_some())
        .map(|r| prep(r) * 1e3)
        .collect();
    let n = measured.len().max(1) as f64;
    let per_query = |f: fn(&Record) -> u64| measured.iter().map(f).sum::<u64>() as f64 / n;
    let jobs = d.sched.jobs_executed.max(1) as f64;
    let replays = s.p50_ms.len() as f64;

    let m = &mut outcome;
    m.metric("algos.sssp-delta.par_ms", base.median(2) * 1e3, "ms");
    m.metric(
        "algos.sssp-delta.work_ratio",
        base.sum(1) / base.sum(0),
        "ratio",
    );
    m.metric("algos.sssp-delta.rounds", base.median(3), "count");
    m.metric("rayon.jobs", d.sched.jobs_executed as f64 / n, "1/op");
    m.metric(
        "rayon.steals_per_job",
        d.sched.steals as f64 / jobs,
        "ratio",
    );
    m.metric("rayon.parks_per_job", d.sched.parks as f64 / jobs, "ratio");
    m.metric(
        "rayon.queue_locks_per_job",
        d.sched.queue_locks as f64 / jobs,
        "ratio",
    );
    m.metric("workloads.gen_ms", gen_seconds * 1e3, "ms");
    m.metric(
        "workloads.distinct_sources",
        distinct_sources(&trace) as f64,
        "count",
    );
    m.metric("algos.query_us", median(&query_us), "us");
    m.metric(
        "algos.relaxations_per_query",
        per_query(|r| r.relaxations),
        "1/op",
    );
    m.metric(
        "algos.substeps_per_query",
        per_query(|r| r.substeps),
        "1/op",
    );
    let prepare = if prepare_ms.is_empty() {
        0.0
    } else {
        median(&prepare_ms)
    };
    m.metric("algos.prepare_ms", prepare, "ms");
    let reuses = per_query(|r| r.reuses) / per_query(|r| r.takes).max(1.0);
    m.metric("core.scratch_reuse_share", reuses, "share");
    m.metric("alloc.count_per_query", d.allocs as f64 / n, "1/op");
    m.metric("alloc.bytes_per_query", d.alloc_bytes as f64 / n, "B/op");
    m.metric("serve.lookup_us", median(&lookup_us), "us");
    m.metric(
        "serve.driver_us",
        mean(&s.p50_ms) * 1e3 - median(&total_us),
        "us",
    );
    m.metric(
        "serve.hit_rate",
        s.hits as f64 / s.lookups.max(1) as f64,
        "share",
    );
    m.metric("serve.prepares", s.prepares as f64 / replays, "count");
    m.metric("serve.evictions", s.evictions as f64 / replays, "count");
    m.metric("serve.coalesced", s.coalesced as f64 / replays, "count");
    let overhead = median(&d.traced_s) / median(&d.untraced_s) - 1.0;
    m.metric("bench.trace_overhead_share", overhead, "share");
    outcome
}
