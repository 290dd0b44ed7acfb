//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <oneshot-registry|served-hot|served-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --describe
//! ```
//!
//! Each run builds its inputs from the seed, measures for `--seconds`,
//! checks every output digest against its reference, and prints a
//! header line, one line per metric, and — as the last line — a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from a separate traced run whose spans go to
//! `perfbench/out/`. A wrong output makes the command exit non-zero.
//! `--describe` prints the metric catalog `BENCHMARK.json` lists.

mod entries;
mod oneshot;
mod probe;
mod report;
mod served;

use report::{json_str, Outcome};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Run a workload's set-up at least five times and until a second has
/// passed (at most 25 times). Returns the last result and every
/// duration in seconds; `setup_s` is their median.
pub fn repeat_setup<T>(mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = set_up();
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= 5 && started.elapsed() >= Duration::from_secs(1);
        if enough || times.len() >= 25 {
            return (value, times);
        }
    }
}

/// Registry entries whose runs report wake-up attempts.
pub const WAKEUP_ENTRIES: [&str; 7] = [
    "lis",
    "lis/weighted",
    "activity/type2",
    "whac",
    "whac/2d",
    "chain3d",
    "chain4d",
];

const WORKLOADS: [&str; 3] = ["oneshot-registry", "served-hot", "served-churn"];

/// `(name, unit, better)` of every end-to-end metric.
const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("oneshot_s", "s", "lower"),
    ("oneshot_1t_s", "s", "lower"),
    ("seq_s", "s", "lower"),
    ("qps", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("ok_share", "share", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in report order.
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for e in entries::table() {
        let stem = e.metric_stem();
        out.push((format!("algos.{stem}.par_ms"), "ms", "lower"));
        out.push((format!("algos.{stem}.work_ratio"), "ratio", "lower"));
        out.push((format!("algos.{stem}.rounds"), "count", "lower"));
        if WAKEUP_ENTRIES.contains(&e.name) {
            out.push((format!("algos.{stem}.wakeups_per_object"), "ratio", "lower"));
        }
    }
    let fixed: [(&str, &str, &str); 20] = [
        ("rayon.jobs", "1/op", "lower"),
        ("rayon.steals_per_job", "ratio", "lower"),
        ("rayon.parks_per_job", "ratio", "lower"),
        ("rayon.queue_locks_per_job", "ratio", "lower"),
        ("workloads.gen_ms", "ms", "lower"),
        ("workloads.distinct_sources", "count", "higher"),
        ("algos.query_us", "us", "lower"),
        ("algos.relaxations_per_query", "1/op", "lower"),
        ("algos.substeps_per_query", "1/op", "lower"),
        ("algos.prepare_ms", "ms", "lower"),
        ("core.scratch_reuse_share", "share", "higher"),
        ("alloc.count_per_query", "1/op", "lower"),
        ("alloc.bytes_per_query", "B/op", "lower"),
        ("serve.lookup_us", "us", "lower"),
        ("serve.driver_us", "us", "lower"),
        ("serve.hit_rate", "share", "higher"),
        ("serve.prepares", "count", "lower"),
        ("serve.evictions", "count", "lower"),
        ("serve.coalesced", "count", "lower"),
        ("bench.trace_overhead_share", "share", "lower"),
    ];
    out.extend(fixed.map(|(n, u, b)| (n.to_string(), u, b)));
    out
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a number"))?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad("not a number"))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// Where a traced run writes its spans.
    pub fn span_path(&self) -> PathBuf {
        PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            self.workload, self.seed
        ))
    }
}

/// The benchmark's own pools, built once per run.
pub struct Pools {
    pub one: rayon::ThreadPool,
    pub n: rayon::ThreadPool,
    pub nproc: usize,
}

impl Pools {
    fn new() -> Self {
        let nproc = probe::nproc();
        let build = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("benchmark pool")
        };
        Self {
            one: build(1),
            n: build(nproc),
            nproc,
        }
    }
}

/// Put the reported metrics in catalog order, add what every run
/// reports, and report a layer the workload does not exercise as 0.
/// A metric outside the catalog is a bug in the benchmark.
fn finish(outcome: &mut Outcome, args: &Args) {
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        outcome.metric("ok_share", outcome.ok_share(), "share");
        outcome.metric("peak_rss_mb", probe::peak_rss_mb(), "MiB");
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    for m in &outcome.metrics {
        let listed = catalog.iter().any(|(n, u)| *n == m.name && *u == m.unit);
        assert!(
            listed,
            "metric {} [{}] is not in the catalog",
            m.name, m.unit
        );
    }
    let mut reported = std::mem::take(&mut outcome.metrics);
    for (name, unit) in catalog {
        match reported.iter().position(|m| m.name == name) {
            Some(i) => outcome.metrics.push(reported.swap_remove(i)),
            None if args.trace => outcome.metric(name, 0.0, unit),
            None => panic!("end-to-end metric {name} was not measured"),
        }
    }
}

fn describe() {
    let list = |items: Vec<(String, &str, &str)>| {
        items
            .iter()
            .map(|(n, u, b)| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(n),
                    json_str(u),
                    json_str(b)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ")
    };
    let e2e = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    println!(
        "{{\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}",
        list(e2e),
        list(per_layer())
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--describe") {
        describe();
        return;
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pools = Pools::new();
    let result = match args.workload.as_str() {
        "oneshot-registry" => oneshot::run(&args, &pools),
        "served-hot" => Ok(served::run(&served::hot(), &args, &pools)),
        _ => Ok(served::run(&served::churn(), &args, &pools)),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    finish(&mut outcome, &args);
    let fingerprint = vec![
        ("nproc".to_string(), pools.nproc.to_string()),
        ("cpu".to_string(), json_str(&probe::cpu_model())),
        ("git_rev".to_string(), json_str(&probe::git_rev())),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
    ];
    report::print(&args.workload, args.seed, &outcome, &fingerprint);
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
