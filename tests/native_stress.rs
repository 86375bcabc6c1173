//! ISSUE acceptance for the native stress mode: real-thread execution
//! with online monitoring runs green on fixed collection classes and
//! detects at least one seeded "(Pre)" violation.
//!
//! Stress testing is inherently probabilistic — unlike the model checker
//! it only samples interleavings — so the Pre test allows a generous run
//! budget and relies on seeded yield injection to hit the window. The
//! fixed-class tests are the sound direction: any rejection there would
//! be a real bug (the monitor has no false alarms on deterministic
//! targets).

use lineup::{synthesize_spec, Invocation, TestMatrix, TestTarget};
use lineup_collections::concurrent_dictionary::ConcurrentDictionaryTarget;
use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
use lineup_collections::support::Variant;
use lineup_monitor::{run_stress, Monitor, ObservationOracle, StressOptions};

/// A monitor over phase 1 of `matrix` on `target`.
fn observed<T: TestTarget>(target: &T, matrix: &TestMatrix) -> Monitor<ObservationOracle> {
    Monitor::new(ObservationOracle::new(&synthesize_spec(target, matrix).0))
}

fn dictionary_matrix() -> TestMatrix {
    TestMatrix::from_columns(vec![
        vec![Invocation::with_int("TryAdd", 10)],
        vec![Invocation::with_int("TryAdd", 20)],
    ])
    .with_finally(vec![Invocation::new("Count")])
}

#[test]
fn fixed_dictionary_stress_is_green() {
    let target = ConcurrentDictionaryTarget {
        variant: Variant::Fixed,
    };
    let m = dictionary_matrix();
    let monitor = observed(&target, &m);
    let report = run_stress(
        &target,
        &m,
        &monitor,
        &StressOptions {
            runs: 300,
            seed: 7,
            ..StressOptions::default()
        },
    );
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.runs, 300);
    assert_eq!(report.stuck_runs, 0);
}

#[test]
fn fixed_queue_stress_is_green() {
    let target = ConcurrentQueueTarget {
        variant: Variant::Fixed,
    };
    let m = TestMatrix::from_columns(vec![
        vec![
            Invocation::with_int("Enqueue", 200),
            Invocation::with_int("Enqueue", 400),
        ],
        vec![Invocation::new("TryDequeue"), Invocation::new("TryDequeue")],
    ]);
    let monitor = observed(&target, &m);
    let report = run_stress(
        &target,
        &m,
        &monitor,
        &StressOptions {
            runs: 300,
            seed: 11,
            ..StressOptions::default()
        },
    );
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert!(report.distinct_histories >= 1);
}

#[test]
fn seeded_dictionary_violation_is_detected() {
    // Root cause F: TryAdd updates the count with an unsynchronized
    // read-modify-write after releasing the bucket lock. Two concurrent
    // TryAdds can lose an update; the final Count then observes 1, which
    // no serial execution of a dictionary explains.
    let target = ConcurrentDictionaryTarget {
        variant: Variant::Pre,
    };
    let m = dictionary_matrix();
    let monitor = observed(&target, &m);
    let report = run_stress(
        &target,
        &m,
        &monitor,
        &StressOptions {
            runs: 20_000,
            seed: 3,
            yield_chance: 2,
            stop_at_first_violation: true,
            ..StressOptions::default()
        },
    );
    assert!(
        !report.passed(),
        "expected the seeded lost update within {} runs \
         ({} distinct histories, {} ops)",
        report.runs,
        report.distinct_histories,
        report.ops
    );
    let v = &report.violations[0];
    assert!(v.history.is_complete(), "count violation is a full history");
}
