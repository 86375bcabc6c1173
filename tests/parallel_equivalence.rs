//! Parallel phase 2 finds exactly the one-worker violations under the
//! default options (preemption bound 2, POR on, stop at the first
//! violation) on the full-size regression matrices of the seeded "(Pre)"
//! variants. The rest of the worker-count invariance lives in
//! `tests/steal_equivalence.rs`; this is the one case it leaves to the
//! defaults.

use lineup::CheckOptions;
use lineup_collections::registry::all_classes;

#[test]
fn parallel_first_violation_matches_serial_on_pre_variants() {
    let mut checked = 0;
    for entry in all_classes() {
        if !entry.name.ends_with("(Pre)") {
            continue;
        }
        let Some(matrix) = entry.regression_matrix() else {
            continue;
        };
        let serial = entry.target().check(&matrix, &CheckOptions::new());
        assert!(
            !serial.passed(),
            "{}: the seeded bug should be found serially",
            entry.name
        );
        for workers in [2, 4] {
            let par = entry.target().check(
                &matrix,
                &CheckOptions::new()
                    .with_workers(workers)
                    .with_parallel_probe_runs(0),
            );
            // Decisions included: the first violation is the serial winner.
            assert_eq!(
                format!("{:?}", serial.violations),
                format!("{:?}", par.violations),
                "{} with {workers} workers",
                entry.name
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected at least 3 seeded Pre variants with regression matrices, got {checked}"
    );
}
