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

use lineup::{check, explore_matrix, AdtKind, CheckOptions, History, TestMatrix, Violation};
use lineup_collections::concurrent_queue::{fig1_matrix, ConcurrentQueueTarget};
use lineup_collections::hinted_queue::{fuzz4x4_matrix, HintedQueueTarget};
use lineup_collections::registry::Variant;
use lineup_monitor::{ideal_oracle, Monitor};
use lineup_sched::{Backend, Config, RunOutcome, StrategyKind};

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

/// `check` with a sampling strategy: phase 2 draws at most the run cap
/// from the strategy, convicts the seeded Fig. 1 queue, passes the fixed
/// one on the whole budget, and — sampling running on worker 0 alone —
/// reports the same violations on a repeat call and at any worker count.
#[test]
fn sampled_check_convicts_fig1_and_is_deterministic() {
    const CAP: u64 = 2_000;
    let strategies = [
        StrategyKind::Random { seed: 42 },
        StrategyKind::Pct { seed: 42, depth: 5 },
        StrategyKind::Coverage { seed: 42 },
    ];
    let matrix = fig1_matrix();
    for strategy in strategies {
        let coverage = matches!(strategy, StrategyKind::Coverage { .. });
        let options = CheckOptions::new()
            .with_strategy(strategy.clone())
            .with_max_phase2_runs(CAP);
        let pre = ConcurrentQueueTarget {
            variant: Variant::Pre,
        };
        let report = check(&pre, &matrix, &options);
        assert!(
            matches!(report.violations[..], [Violation::NoWitness { .. }]),
            "{strategy:?}: the seeded queue must be convicted, got {:?}",
            report.violations
        );
        let rendered = format!("{:?}", report.violations);
        let again = check(&pre, &matrix, &options);
        assert_eq!(
            rendered,
            format!("{:?}", again.violations),
            "{strategy:?}: a repeat call"
        );
        let workers = check(&pre, &matrix, &options.clone().with_workers(4));
        assert_eq!(
            rendered,
            format!("{:?}", workers.violations),
            "{strategy:?}: four workers"
        );

        let fixed = ConcurrentQueueTarget {
            variant: Variant::Fixed,
        };
        let report = check(&fixed, &matrix, &options);
        assert!(report.passed(), "{strategy:?}: {:?}", report.violations);
        assert_eq!(report.phase2.runs, CAP, "{strategy:?}: the whole budget");
        assert_eq!(
            report.phase2.corpus_size > 0,
            coverage,
            "{strategy:?}: only Coverage keeps a corpus"
        );
    }
}

/// Runs executed until the monitor rejects a recorded history of the 4×4
/// hinted queue, or `None` when `config`'s run budget ends first. The
/// verdict comes from the monitor over the ideal queue specification, not
/// a synthesized one: phase 1 is infeasible at 4×4.
fn runs_to_violation(variant: Variant, config: &Config) -> Option<u64> {
    let target = HintedQueueTarget { variant };
    let matrix = fuzz4x4_matrix();
    let monitor = Monitor::new(ideal_oracle(AdtKind::Queue)).with_adt_kind(AdtKind::Queue);
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
