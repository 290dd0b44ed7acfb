//! `oneshot-registry`: one client solving every registry entry's
//! instance with `solve_seq`, `solve_par` on a 1-thread pool and
//! `solve_par` on an `nproc` pool, pass after pass.

use crate::entries::{self, Case, EntrySpec};
use crate::probe::{self, median, Tracer};
use crate::report::{json_str, Outcome};
use crate::{repeat_setup, Args, Pools};
use phase_parallel::RunConfig;
use std::time::{Duration, Instant};

/// Per-entry samples of one run, in seconds.
#[derive(Default)]
struct Samples {
    seq: Vec<f64>,
    par1: Vec<f64>,
    par: Vec<f64>,
    rounds: Vec<f64>,
    wakeups: Vec<f64>,
}

/// Scheduler and allocator activity attributed to traced passes.
#[derive(Default)]
struct LayerCounts {
    par_calls: u64,
    jobs: u64,
    steals: u64,
    parks: u64,
    queue_locks: u64,
    calls: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// The entry table must name exactly the registry's entries, in order:
/// a new or renamed entry fails the benchmark instead of dropping out.
fn check_coverage(table: &[EntrySpec]) -> Result<(), String> {
    let ours: Vec<&str> = table.iter().map(|e| e.name).collect();
    let registry = pp_algos::registry::names();
    if ours == registry {
        Ok(())
    } else {
        Err(format!(
            "entry table {ours:?} does not match registry::names() {registry:?}"
        ))
    }
}

struct Pass<'a> {
    table: &'a [EntrySpec],
    cases: &'a [Box<dyn Case>],
    reference: &'a [u64],
    pools: &'a Pools,
    cfg: RunConfig,
}

impl Pass<'_> {
    /// One pass over every entry. Returns the wall time of the pass.
    /// With a tracer, records a span per call and the pool and
    /// allocator activity of each call.
    fn run(
        &self,
        outcome: &mut Outcome,
        samples: &mut [Samples],
        mut trace: Option<(&mut Tracer, &mut LayerCounts)>,
        pass_id: u64,
    ) -> f64 {
        let started = Instant::now();
        for (i, case) in self.cases.iter().enumerate() {
            let name = self.table[i].name;
            let want = self.reference[i];

            let alloc0 = probe::alloc_counts();
            let t0 = Instant::now();
            let seq = case.solve_seq();
            let t1 = Instant::now();
            let (par1, _) = self.pools.one.install(|| case.solve_par(&self.cfg));
            let t2 = Instant::now();
            let sched0 = self.pools.n.scheduler_counters();
            let t3 = Instant::now();
            let (par, stats) = self.pools.n.install(|| case.solve_par(&self.cfg));
            let t4 = Instant::now();
            let sched = self.pools.n.scheduler_counters().since(&sched0);
            let alloc1 = probe::alloc_counts();

            let bad = [seq, par1, par].iter().filter(|&&d| d != want).count() as u64;
            outcome.tally(3, bad);
            if bad > 0 {
                eprintln!("{name}: digest mismatch (seq {seq:x}, par@1 {par1:x}, par {par:x}, want {want:x})");
            }

            let s = &mut samples[i];
            s.seq.push((t1 - t0).as_secs_f64());
            s.par1.push((t2 - t1).as_secs_f64());
            s.par.push((t4 - t3).as_secs_f64());
            s.rounds.push(stats.rounds as f64);
            s.wakeups
                .push(stats.wakeup_attempts as f64 / case.objects().max(1) as f64);

            if let Some((tracer, counts)) = trace.as_mut() {
                let root = tracer.record("bench.entry", name, pass_id, 0, t0, t4);
                tracer.record("algos.solve_seq", name, pass_id, root, t0, t1);
                tracer.record("algos.solve_par@1", name, pass_id, root, t1, t2);
                tracer.record("algos.solve_par", name, pass_id, root, t3, t4);
                counts.par_calls += 1;
                counts.jobs += sched.jobs_executed;
                counts.steals += sched.steals;
                counts.parks += sched.parks;
                counts.queue_locks += sched.queue_locks;
                counts.calls += 3;
                counts.allocs += alloc1.0 - alloc0.0;
                counts.alloc_bytes += alloc1.1 - alloc0.1;
            }
        }
        started.elapsed().as_secs_f64()
    }
}

pub fn run(args: &Args, pools: &Pools) -> Result<Outcome, String> {
    let table = entries::table();
    check_coverage(&table)?;
    let mut outcome = Outcome::new();

    // Set-up: materialize every entry's instance.
    let (cases, setup) =
        repeat_setup(|| table.iter().map(|e| e.build(args.seed)).collect::<Vec<_>>());
    let sizes: Vec<String> = table
        .iter()
        .zip(&cases)
        .map(|(e, c)| {
            format!(
                "{}:{{\"size\":{},\"objects\":{}}}",
                json_str(e.name),
                e.size,
                c.objects()
            )
        })
        .collect();
    outcome.header("instances", format!("{{{}}}", sizes.join(",")));

    // The sequential digest is the reference; seq runs config-less.
    let reference: Vec<u64> = cases.iter().map(|c| c.solve_seq()).collect();
    let pass = Pass {
        table: &table,
        cases: &cases,
        reference: &reference,
        pools,
        cfg: RunConfig::seeded(args.seed),
    };

    // Warm-up pass: digests checked, times discarded.
    let mut samples: Vec<Samples> = table.iter().map(|_| Samples::default()).collect();
    pass.run(&mut outcome, &mut samples, None, 0);
    samples = table.iter().map(|_| Samples::default()).collect();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = 0u64;
    if args.trace {
        // Traced and untraced passes alternate; only traced passes
        // feed the per-layer metrics, the untraced ones price tracing.
        let mut tracer = Tracer::new();
        let mut counts = LayerCounts::default();
        let mut untraced: Vec<Samples> = table.iter().map(|_| Samples::default()).collect();
        let (mut on, mut off) = (Vec::new(), Vec::new());
        while passes < 2 || Instant::now() < deadline {
            passes += 1;
            if passes % 2 == 1 {
                probe::set_alloc_counting(true);
                on.push(pass.run(
                    &mut outcome,
                    &mut samples,
                    Some((&mut tracer, &mut counts)),
                    passes,
                ));
                probe::set_alloc_counting(false);
            } else {
                off.push(pass.run(&mut outcome, &mut untraced, None, passes));
            }
        }
        if let Err(e) = tracer.write(&args.span_path()) {
            eprintln!("could not write spans: {e}");
        }
        layer_metrics(&mut outcome, &table, &samples, &counts);
        outcome.metric("workloads.gen_ms", median(&setup) * 1e3, "ms");
        outcome.metric(
            "bench.trace_overhead_share",
            median(&on) / median(&off) - 1.0,
            "share",
        );
        outcome.header("spans", tracer.len().to_string());
    } else {
        let measured = Instant::now();
        while passes < 1 || Instant::now() < deadline {
            passes += 1;
            pass.run(&mut outcome, &mut samples, None, passes);
        }
        let elapsed = measured.elapsed().as_secs_f64();
        let sum =
            |pick: fn(&Samples) -> &Vec<f64>| samples.iter().map(|s| median(pick(s))).sum::<f64>();
        let latencies: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.seq.iter().chain(&s.par1).chain(&s.par))
            .map(|t| t * 1e3)
            .collect();
        outcome.metric("setup_s", median(&setup), "s");
        outcome.metric("oneshot_s", sum(|s| &s.par), "s");
        outcome.metric("oneshot_1t_s", sum(|s| &s.par1), "s");
        outcome.metric("seq_s", sum(|s| &s.seq), "s");
        outcome.metric("qps", latencies.len() as f64 / elapsed, "1/s");
        outcome.metric("p50_ms", probe::quantile(&latencies, 0.5), "ms");
        outcome.metric("p99_ms", probe::quantile(&latencies, 0.99), "ms");
        outcome.header("latency_samples", latencies.len().to_string());
    }
    outcome.header("passes", passes.to_string());
    Ok(outcome)
}

fn layer_metrics(outcome: &mut Outcome, table: &[EntrySpec], samples: &[Samples], c: &LayerCounts) {
    for (e, s) in table.iter().zip(samples) {
        let stem = e.metric_stem();
        outcome.metric(format!("algos.{stem}.par_ms"), median(&s.par) * 1e3, "ms");
        outcome.metric(
            format!("algos.{stem}.work_ratio"),
            median(&s.par1) / median(&s.seq),
            "ratio",
        );
        outcome.metric(format!("algos.{stem}.rounds"), median(&s.rounds), "count");
        if crate::WAKEUP_ENTRIES.contains(&e.name) {
            outcome.metric(
                format!("algos.{stem}.wakeups_per_object"),
                median(&s.wakeups),
                "ratio",
            );
        }
    }
    let jobs = c.jobs.max(1) as f64;
    outcome.metric(
        "rayon.jobs",
        c.jobs as f64 / c.par_calls.max(1) as f64,
        "1/op",
    );
    outcome.metric("rayon.steals_per_job", c.steals as f64 / jobs, "ratio");
    outcome.metric("rayon.parks_per_job", c.parks as f64 / jobs, "ratio");
    outcome.metric(
        "rayon.queue_locks_per_job",
        c.queue_locks as f64 / jobs,
        "ratio",
    );
    outcome.metric(
        "alloc.count_per_query",
        c.allocs as f64 / c.calls.max(1) as f64,
        "1/op",
    );
    outcome.metric(
        "alloc.bytes_per_query",
        c.alloc_bytes as f64 / c.calls.max(1) as f64,
        "B/op",
    );
}
