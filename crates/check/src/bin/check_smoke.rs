//! CI gate for the concurrency checker and the unsafe audit.
//!
//! Runs, in order:
//! 1. bounded schedule exploration of every pool protocol model
//!    (positive: must pass; the latch UAF regression, the weakened
//!    probe and injector models, and the reverted lost-wakeup fix are
//!    negative controls: must fail with the expected diagnostic — a
//!    checker that stops finding the seeded bug is itself broken);
//! 2. the workspace unsafe audit (must be clean), plus an in-memory
//!    fixture negative control (must be flagged). It also prints the
//!    workspace's `unsafe` site count, in total and per crate.
//!
//! `PP_SMOKE=1` shrinks exploration budgets for constrained CI runners;
//! the full exhaustive suite lives in `cargo test -p pp-check`.
//! Exits non-zero on any unexpected outcome.

#![forbid(unsafe_code)]

use pp_check::models::{chunks, deque, join, latch, park, scope};
use pp_check::{audit, explore, Config, Report};

struct Gate {
    failures: usize,
}

impl Gate {
    fn expect_pass(&mut self, report: &Report) {
        if report.passed() {
            println!("ok   {report}");
        } else {
            println!("FAIL {report}");
            self.failures += 1;
        }
    }

    fn expect_failure(&mut self, report: &Report, needle: &str) {
        match &report.failure {
            Some(failure) if failure.message.contains(needle) => {
                println!(
                    "ok   model '{}': negative control tripped as expected \
                     ({} schedule(s); seed {}): {}",
                    report.name, report.schedules, failure.seed, failure.message
                );
            }
            Some(failure) => {
                println!(
                    "FAIL model '{}': wrong failure (wanted '{needle}'): {}",
                    report.name, failure.message
                );
                self.failures += 1;
            }
            None => {
                println!(
                    "FAIL model '{}': negative control passed — the checker \
                     no longer finds the seeded '{needle}' bug",
                    report.name
                );
                self.failures += 1;
            }
        }
    }
}

fn main() {
    let smoke = std::env::var("PP_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let budget = if smoke { 2_000 } else { 20_000 };
    let cfg = || Config::default().schedules(budget);
    let mut gate = Gate { failures: 0 };

    println!("== pp-check: schedule exploration ({budget}-schedule budget) ==");
    gate.expect_pass(&explore(
        "latch_teardown_fixed",
        cfg(),
        latch::teardown_model(true),
    ));
    gate.expect_pass(&explore(
        "latch_teardown_fixed_weakened",
        cfg().weakened(),
        latch::teardown_model(true),
    ));
    gate.expect_failure(
        &explore(
            "latch_teardown_prefix_regression",
            cfg(),
            latch::teardown_model(false),
        ),
        "use-after-free",
    );
    gate.expect_pass(&explore(
        "latch_probe_publish",
        cfg(),
        latch::probe_publish_model(),
    ));
    gate.expect_failure(
        &explore(
            "latch_probe_publish_weakened",
            cfg().weakened(),
            latch::probe_publish_model(),
        ),
        "data race",
    );
    gate.expect_pass(&explore(
        "deque_exactly_once_1s",
        cfg(),
        deque::deque_exactly_once_model(1),
    ));
    gate.expect_pass(&explore(
        "deque_exactly_once_2s",
        cfg().preemptions(1),
        deque::deque_exactly_once_model(2),
    ));
    gate.expect_pass(&explore(
        "deque_steal_back",
        cfg(),
        deque::deque_steal_back_model(),
    ));
    gate.expect_pass(&explore(
        "injector_publish",
        cfg().preemptions(if smoke { 1 } else { 2 }),
        deque::injector_publish_model(),
    ));
    gate.expect_failure(
        &explore(
            "injector_publish_weakened",
            cfg().preemptions(if smoke { 1 } else { 2 }).weakened(),
            deque::injector_publish_model(),
        ),
        "data race",
    );
    gate.expect_pass(&explore(
        "lost_wakeup_fixed",
        cfg(),
        park::lost_wakeup_model(true),
    ));
    gate.expect_failure(
        &explore(
            "lost_wakeup_reverted",
            cfg(),
            park::lost_wakeup_model(false),
        ),
        "deadlock",
    );
    gate.expect_pass(&explore(
        "worker_lifecycle_1w",
        cfg(),
        park::worker_lifecycle_model(1, 2),
    ));
    gate.expect_pass(&explore(
        "join_steal_back",
        cfg().preemptions(2),
        join::join_steal_back_model(),
    ));
    gate.expect_pass(&explore(
        "chunk_batch",
        cfg().preemptions(if smoke { 1 } else { 2 }),
        chunks::chunk_batch_model(),
    ));
    gate.expect_pass(&explore(
        "scope_panic",
        cfg().preemptions(if smoke { 1 } else { 2 }),
        scope::scope_panic_model(),
    ));

    println!("== pp-check: unsafe audit ==");
    let cwd = std::env::current_dir().expect("cwd");
    match audit::find_workspace_root(&cwd) {
        Some(root) => {
            let violations = audit::audit_workspace(&root);
            if violations.is_empty() {
                println!("ok   unsafe audit clean at {}", root.display());
            } else {
                for v in &violations {
                    println!("FAIL {v}");
                }
                gate.failures += violations.len();
            }
            let per_crate = audit::unsafe_sites_per_crate(&root);
            let total: usize = per_crate.iter().map(|(_, sites)| sites).sum();
            let listed: Vec<String> = per_crate
                .iter()
                .filter(|(_, sites)| *sites > 0)
                .map(|(name, sites)| format!("{name} {sites}"))
                .collect();
            println!("info unsafe sites: {total} ({})", listed.join(", "));
        }
        None => {
            println!("FAIL no workspace root found above {}", cwd.display());
            gate.failures += 1;
        }
    }
    // Negative control: an unannotated unsafe block must be flagged.
    let fixture = "fn f(p: *mut u8) {\n    unsafe { p.write(0) };\n}\n";
    if audit::scan_source(fixture).uncovered == vec![2] {
        println!("ok   audit fixture: unannotated unsafe flagged");
    } else {
        println!("FAIL audit fixture: unannotated unsafe NOT flagged");
        gate.failures += 1;
    }

    if gate.failures > 0 {
        println!("check_smoke: {} failure(s)", gate.failures);
        std::process::exit(1);
    }
    println!("check_smoke: all gates green");
}
