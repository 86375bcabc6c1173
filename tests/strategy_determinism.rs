//! Randomized strategies are deterministic functions of their seed
//! (ISSUE 9 acceptance): a fixed-seed Coverage or PCT campaign must
//! produce the *byte-identical sequence of runs* — same decision
//! vectors, same outcomes, same recorded histories, same final
//! statistics — across repeat invocations and across the fiber and
//! OS-thread execution backends. Without this, "re-run with seed 42"
//! would not reproduce a reported violation, and the coverage corpus
//! (whose evolution feeds back into the schedule choices) would drift
//! between a debugging session and the CI run that found the bug.
//!
//! On targets without fiber support `Backend::Fibers` degrades to OS
//! threads and the cross-backend comparisons hold trivially.

use std::ops::ControlFlow;
use std::sync::Arc;

use lineup::{explore_matrix, AdtKind, History, TestMatrix};
use lineup_collections::concurrent_queue::{fig1_matrix, ConcurrentQueueTarget};
use lineup_collections::hinted_queue::{fuzz4x4_matrix, HintedQueueTarget};
use lineup_collections::registry::Variant;
use lineup_monitor::adt_monitor_backend;
use lineup_sched::{Backend, Config, RunOutcome};

/// Budget small enough for a debug-build test, large enough that the
/// coverage strategy's corpus fills and mutated runs dominate (the
/// feedback loop, not just the seed, is what must stay deterministic).
const RUNS: u64 = 300;

/// One run, fully rendered: decision indexes, outcome, and the recorded
/// history. The whole campaign is the sequence of these.
type RunTrace = Vec<(Vec<usize>, String, History)>;

fn campaign(config: &Config) -> (RunTrace, String) {
    let target = ConcurrentQueueTarget {
        variant: Variant::Pre,
    };
    let matrix: TestMatrix = fig1_matrix();
    let mut runs: RunTrace = Vec::new();
    let stats = explore_matrix(&target, &matrix, config, |run| {
        runs.push((
            run.decisions.clone(),
            format!("{:?}", run.outcome),
            run.history.clone(),
        ));
        ControlFlow::Continue(())
    });
    // The stats snapshot covers every counter, including the coverage
    // corpus/bitmap gauges — `{:?}` makes the comparison total.
    (runs, format!("{stats:?}"))
}

fn assert_campaign_deterministic(name: &str, make: impl Fn() -> Config) {
    let (fib_a, stats_fib_a) = campaign(&make().with_backend(Backend::Fibers));
    let (fib_b, stats_fib_b) = campaign(&make().with_backend(Backend::Fibers));
    assert_eq!(
        fib_a, fib_b,
        "{name}: repeat invocations must replay the identical run sequence"
    );
    assert_eq!(stats_fib_a, stats_fib_b, "{name}: stats must be identical");

    let (os, stats_os) = campaign(&make().with_backend(Backend::OsThreads));
    assert_eq!(
        fib_a.len(),
        os.len(),
        "{name}: same number of runs on either backend"
    );
    for (i, (fib_run, os_run)) in fib_a.iter().zip(&os).enumerate() {
        assert_eq!(
            fib_run, os_run,
            "{name}: run {i} must be byte-identical across backends"
        );
    }
    assert_eq!(
        stats_fib_a, stats_os,
        "{name}: exploration statistics must not depend on the backend"
    );
    assert!(!fib_a.is_empty(), "{name}: the campaign must execute runs");
}

#[test]
fn coverage_campaign_is_deterministic() {
    // The coverage strategy's choices depend on the corpus, which depends
    // on every earlier run's signature — so this pins down the entire
    // feedback loop, not just the raw generator.
    assert_campaign_deterministic("coverage", || Config::coverage(42, RUNS));
}

#[test]
fn coverage_campaign_varies_with_the_seed() {
    let (a, _) = campaign(&Config::coverage(1, 50));
    let (b, _) = campaign(&Config::coverage(2, 50));
    assert_ne!(a, b, "different seeds must explore different schedules");
}

#[test]
fn pct_campaign_is_deterministic() {
    assert_campaign_deterministic("pct", || Config::pct(42, 5, RUNS));
}

#[test]
fn random_campaign_is_deterministic() {
    assert_campaign_deterministic("random", || Config::random(42, RUNS));
}

/// Runs executed until the monitor rejects a recorded history of the 4×4
/// hinted queue, or `None` when `config`'s run budget ends first. The
/// verdict comes from the monitor, not a synthesized specification: phase 1
/// is infeasible at 4×4.
fn runs_to_violation(variant: Variant, config: &Config) -> Option<u64> {
    let target = HintedQueueTarget { variant };
    let matrix = fuzz4x4_matrix();
    let monitor = adt_monitor_backend(Arc::new(target), &matrix, Some(AdtKind::Queue));
    // Tracked here, not through `stats.stopped_early`, which an exhausted
    // run budget sets too.
    let mut found = false;
    let stats = explore_matrix(&target, &matrix, config, |run| {
        let history = &run.history;
        let linearizable = match run.outcome {
            RunOutcome::Complete => monitor.check_full(history, &[]),
            RunOutcome::Deadlock | RunOutcome::Livelock | RunOutcome::StuckSerial => history
                .pending_ops()
                .into_iter()
                .all(|e| monitor.check_stuck(history, e, &[])),
            RunOutcome::Pruned => true,
            RunOutcome::Panicked { .. } | RunOutcome::StepLimit => false,
        };
        if linearizable {
            ControlFlow::Continue(())
        } else {
            found = true;
            ControlFlow::Break(())
        }
    });
    found.then_some(stats.runs)
}

/// The seeded deep bug of the 4×4 hinted queue is out of exhaustive
/// search's reach; every Coverage trial must crack it well inside a hard
/// run budget (finds sit near 100–150 runs), and the same budget on the
/// fixed queue must convict nothing.
#[test]
fn coverage_cracks_the_seeded_4x4_hinted_queue_bug() {
    const BUDGET: u64 = 5_000;
    for trial in 0..3 {
        let seed = 100 + trial;
        let found = runs_to_violation(Variant::Pre, &Config::coverage(seed, BUDGET));
        assert!(
            found.is_some(),
            "coverage seed {seed} spent {BUDGET} runs without finding the seeded bug"
        );
    }
    assert_eq!(
        runs_to_violation(Variant::Fixed, &Config::coverage(100, BUDGET)),
        None,
        "the fixed queue must not be convicted"
    );
}
