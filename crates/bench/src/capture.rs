//! The deterministic wire capture behind the `capture` bin, replayable
//! through the online monitoring service (`lineup-server --replay`).
//!
//! Three matrices are explored under [`Config::preemption_bounded`]`(2)`,
//! the bound `check` uses by default: the fixed and the seeded "(Pre)"
//! `ConcurrentDictionary` on `TryAdd(10) ∥ TryAdd(20)` with a final
//! `Count`, and the fixed `ConcurrentQueue` on
//! `Enqueue(100), Enqueue(101) ∥ TryDequeue × 2`. Every run becomes one
//! wire object with zero timestamps, so the capture is a pure function
//! of the explorer. Each run is decided by the monitor `lineup-server`
//! applies to the replay (the ideal oracle of the class's ADT kind), and
//! the Pre exploration stops at its first rejected run (root cause F, a
//! lost `Count` update): the replay must convict exactly that history.

use std::ops::ControlFlow;

use lineup::{explore_matrix, AdtKind, Invocation, TestMatrix, TestTarget};
use lineup_collections::concurrent_dictionary::ConcurrentDictionaryTarget;
use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
use lineup_collections::Variant;
use lineup_monitor::{ideal_oracle, Monitor};
use lineup_sched::{Config, RunOutcome};
use lineup_wire::{encode_history, encode_record, Record, VERSION};

/// What one explored matrix contributed to a [`Capture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Workload name, as the `capture` bin prints it.
    pub name: &'static str,
    /// Whether the class carries a seeded bug the exploration must convict.
    pub seeded: bool,
    /// Runs explored; each is one wire object of the capture.
    pub runs: u64,
    /// Runs the monitor rejected.
    pub rejected: u64,
    /// Runs that ended `Panicked` or `StepLimit`.
    pub aborted: u64,
}

impl Workload {
    /// A fixed class must have no rejected run, a seeded one at least
    /// one, and no run may abort.
    pub fn passed(&self) -> bool {
        self.aborted == 0 && (self.rejected > 0) == self.seeded
    }
}

/// A wire stream plus one summary per explored matrix.
#[derive(Debug)]
pub struct Capture {
    /// The stream: `Hello`, then every run as one object.
    pub bytes: Vec<u8>,
    /// The explored matrices, in stream order.
    pub workloads: Vec<Workload>,
}

impl Capture {
    /// Whether every workload [passed](Workload::passed).
    pub fn passed(&self) -> bool {
        self.workloads.iter().all(Workload::passed)
    }
}

/// Explores the three matrices and encodes every run.
pub fn capture() -> Capture {
    let mut stream = Stream::default();
    encode_record(&Record::Hello { version: VERSION }, &mut stream.bytes);
    let dictionary = TestMatrix::from_columns(vec![
        vec![Invocation::with_int("TryAdd", 10)],
        vec![Invocation::with_int("TryAdd", 20)],
    ])
    .with_finally(vec![Invocation::new("Count")]);
    let queue = TestMatrix::from_columns(vec![
        vec![
            Invocation::with_int("Enqueue", 100),
            Invocation::with_int("Enqueue", 101),
        ],
        vec![Invocation::new("TryDequeue"), Invocation::new("TryDequeue")],
    ]);
    let workloads = vec![
        stream.explore(
            "dictionary_fixed",
            false,
            &ConcurrentDictionaryTarget {
                variant: Variant::Fixed,
            },
            AdtKind::Set,
            &dictionary,
        ),
        stream.explore(
            "queue_fixed",
            false,
            &ConcurrentQueueTarget {
                variant: Variant::Fixed,
            },
            AdtKind::Queue,
            &queue,
        ),
        stream.explore(
            "dictionary_pre_seeded",
            true,
            &ConcurrentDictionaryTarget {
                variant: Variant::Pre,
            },
            AdtKind::Set,
            &dictionary,
        ),
    ];
    Capture {
        bytes: stream.bytes,
        workloads,
    }
}

#[derive(Default)]
struct Stream {
    bytes: Vec<u8>,
    objects: u64,
}

impl Stream {
    fn explore<T: TestTarget>(
        &mut self,
        name: &'static str,
        seeded: bool,
        target: &T,
        kind: AdtKind,
        matrix: &TestMatrix,
    ) -> Workload {
        let monitor = Monitor::new(ideal_oracle(kind)).with_adt_kind(kind);
        let mut workload = Workload {
            name,
            seeded,
            runs: 0,
            rejected: 0,
            aborted: 0,
        };
        explore_matrix(target, matrix, &Config::preemption_bounded(2), |run| {
            let history = &run.history;
            let linearizable = match run.outcome {
                RunOutcome::Complete => monitor.check_full(history, &[]),
                RunOutcome::Deadlock | RunOutcome::Livelock | RunOutcome::StuckSerial => history
                    .pending_ops()
                    .into_iter()
                    .all(|e| monitor.check_stuck(history, e, &[])),
                RunOutcome::Pruned => true,
                RunOutcome::Panicked { .. } | RunOutcome::StepLimit => {
                    workload.aborted += 1;
                    false
                }
            };
            self.objects += 1;
            encode_history(self.objects, Some(kind), history, &mut self.bytes);
            workload.runs += 1;
            workload.rejected += u64::from(!linearizable);
            if seeded && !linearizable {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        workload
    }
}
