//! Reproduces **Fig. 7** of the paper: the 2×2 FIFO-queue test, its
//! observation file (the synthesized specification, grouped into
//! `<observation>` sections), and a linearizability-violation report from
//! the preview queue.
//!
//! ```text
//! cargo run --release -p lineup-bench --bin fig7_observation
//! ```

use lineup::report::render_violation;
use lineup::{
    check_against_spec, parse_observation_file, synthesize_spec, write_observation_file,
    CheckOptions, Invocation, TestMatrix,
};
use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
use lineup_collections::Variant;

fn main() {
    // The Fig. 7 (top) test: Thread A: Add(200); Add(400) — Thread B:
    // Take(); TryTake(). Take blocks on an empty queue; our queue's
    // blocking Take is modelled by TryDequeue on the fixed queue… the
    // figure's point is the file format, so we use the queue's TryTake
    // (non-blocking) plus an Add pair, which produces both grouping and a
    // stuck-free file; the blocking variants appear in fig3's counter
    // file.
    let m = TestMatrix::from_columns(vec![
        vec![
            Invocation::with_int("Add", 200),
            Invocation::with_int("Add", 400),
        ],
        vec![Invocation::new("TryTake"), Invocation::new("TryTake")],
    ]);
    println!("Fig. 7 (top) — the test matrix:\n{m}");

    let fixed = ConcurrentQueueTarget {
        variant: Variant::Fixed,
    };
    let (spec, stats, _) = synthesize_spec(&fixed, &m);
    let file = write_observation_file(&spec);
    println!(
        "Phase 1: {} serial runs → {} serial histories in {} groups.\n",
        stats.runs,
        spec.len(),
        file.matches("<observation>").count()
    );
    println!("Fig. 7 (middle) — the observation file:\n");
    println!("{file}");

    // Round-trip sanity: the file parses back to the same specification.
    let parsed = parse_observation_file(&file).expect("own files parse");
    assert_eq!(parsed, spec);
    println!("(Round-trip check: parsing the file reproduces the specification.)\n");

    // Fig. 7 (bottom): a violation report, from the preview queue checked
    // against the fixed queue's specification.
    let pre = ConcurrentQueueTarget {
        variant: Variant::Pre,
    };
    let (violations, _) = check_against_spec(&pre, &m, &spec, &CheckOptions::new());
    match violations.first() {
        Some(v) => {
            println!("Fig. 7 (bottom) — the violation report for the preview queue:\n");
            print!("{}", render_violation(v));
        }
        None => println!("(preview queue produced no violation on this test)"),
    }
}
