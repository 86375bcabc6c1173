//! `campaign`: the paper's Table 2 protocol on one thread — for each of
//! the 20 registry entries, `random_check` with one random 3×3 test under
//! preemption bound 2 and a phase-2 cap — then the regression matrices
//! that convict the 12 seeded root causes A–L.
//!
//! It is what users run, and the one workload where the layers the
//! `explore_*` pair leaves idle are on the path: under a preemption bound
//! POR and symmetry disengage, threads block on mutex/monitor primitives,
//! explorations are short so run set-up/teardown and phase 1 count, and
//! histories are mostly distinct so the verdict cache misses and
//! `find_witness` runs against 1,680-history specifications.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use lineup::{
    replay_matrix, synthesize_spec, CheckOptions, History, RandomCheckConfig, RandomCheckResult,
    TestMatrix, TestTarget, Violation,
};
use lineup_collections::{all_classes, ClassEntry, RootCause};

use super::explore::{exact_counters, insert_raw_step_costs, probe_phase2, Phase2Probe};
use super::{Gates, Layers, Pass, Size, Workload};
use crate::gen;
use crate::trace::{SpanId, Tracer};

/// Selects each entry's random test. A constant, not `--seed`: another
/// test is another amount of work (see `gen`).
const SHAPE_SEED: u64 = 2010;
const PREEMPTION_BOUND: usize = 2;
/// Phase-2 cap of the regression matrices (`table2`'s default), whatever
/// the campaign's own cap: convicting all twelve causes needs it.
const REGRESSION_CAP: u64 = 30_000;
const BUG_SAMPLES: usize = 25;

/// A generic function over concrete targets: `ClassEntry` only hands out
/// an erased target, while `replay_matrix` and `explore_matrix` need the
/// concrete type.
trait TargetFn {
    type Out;
    fn call<T: TestTarget>(self, target: &T) -> Self::Out;
}

/// Calls `f` with the concrete target of a registry entry, constructed as
/// `lineup_collections::all_classes` constructs it. (`verify` would catch
/// a drift: replays through these targets must reproduce the histories
/// the registry's own targets reported.)
fn with_target<F: TargetFn>(entry: &ClassEntry, f: F) -> F::Out {
    use lineup_collections::*;
    let variant = entry.variant;
    match entry.name.trim_end_matches(" (Pre)") {
        "Lazy Initialization" => f.call(&lazy::LazyTarget),
        "ManualResetEvent" => f.call(&manual_reset_event::ManualResetEventTarget { variant }),
        "SemaphoreSlim" => f.call(&semaphore_slim::SemaphoreSlimTarget {
            variant,
            initial: 0,
        }),
        "CountdownEvent" => f.call(&countdown_event::CountdownEventTarget {
            variant,
            initial: 2,
        }),
        "ConcurrentDictionary" => {
            f.call(&concurrent_dictionary::ConcurrentDictionaryTarget { variant })
        }
        "ConcurrentQueue" => f.call(&concurrent_queue::ConcurrentQueueTarget { variant }),
        "ConcurrentStack" => f.call(&concurrent_stack::ConcurrentStackTarget { variant }),
        "ConcurrentLinkedList" => {
            f.call(&concurrent_linked_list::ConcurrentLinkedListTarget { variant })
        }
        "BlockingCollection" => {
            f.call(&blocking_collection::BlockingCollectionTarget { capacity: 2 })
        }
        "ConcurrentBag" => f.call(&concurrent_bag::ConcurrentBagTarget { variant }),
        "TaskCompletionSource" => f.call(&task_completion_source::TaskCompletionSourceTarget),
        "CancellationTokenSource" => {
            f.call(&cancellation_token_source::CancellationTokenSourceTarget)
        }
        "Barrier" => f.call(&barrier::BarrierTarget { participants: 2 }),
        other => panic!("registry entry `{other}` has no concrete target here"),
    }
}

/// The violating history and the decisions that reproduce it.
fn evidence(v: &Violation) -> Option<(&History, &[usize])> {
    match v {
        Violation::NoWitness { history, decisions }
        | Violation::StuckNoWitness {
            history, decisions, ..
        }
        | Violation::Panic {
            history, decisions, ..
        } => Some((history, decisions)),
        Violation::Nondeterminism(_) => None,
    }
}

/// Attributes a violation to one of the entry's expected root causes
/// (the rule `table2` prints its "Causes" column with).
fn classify(entry: &ClassEntry, v: &Violation) -> Option<RootCause> {
    use RootCause as RC;
    let has_op = |name: &str| {
        evidence(v).is_some_and(|(h, _)| h.ops.iter().any(|o| o.invocation.name.contains(name)))
    };
    let stuck = matches!(v, Violation::StuckNoWitness { .. });
    entry
        .expected_root_causes
        .iter()
        .copied()
        .find(|cause| match cause {
            RC::A | RC::C => stuck,
            RC::B => has_op("TryTake") || has_op("TryDequeue"),
            RC::D => has_op("TryPopRange"),
            RC::E => stuck || has_op("CurrentCount") || has_op("Signal"),
            RC::F | RC::I => has_op("Count"),
            RC::G => matches!(v, Violation::Panic { .. }),
            RC::H => true,
            RC::J => has_op("TryTake"),
            RC::K => has_op("CompleteAdding"),
            RC::L => has_op("SignalAndWait"),
        })
}

struct Replay<'a> {
    matrix: &'a TestMatrix,
    decisions: &'a [usize],
}

impl TargetFn for Replay<'_> {
    type Out = History;
    fn call<T: TestTarget>(self, target: &T) -> History {
        replay_matrix(
            target,
            self.matrix,
            self.decisions.to_vec(),
            Some(PREEMPTION_BOUND),
        )
        .history
    }
}

struct Probe<'a, 'b> {
    tracer: &'a mut Tracer,
    root: SpanId,
    matrix: &'b TestMatrix,
    options: &'b CheckOptions,
    /// Phase-2 runs the checked pass made (it may have stopped early).
    runs: u64,
}

impl TargetFn for Probe<'_, '_> {
    /// Phase-1 seconds, serial histories, and the phase-2 layer probe.
    type Out = (f64, usize, Option<Phase2Probe>);
    fn call<T: TestTarget>(self, target: &T) -> Self::Out {
        let (spec, phase1_s) = self
            .tracer
            .time("spec.synthesize_spec", Some(self.root), || {
                synthesize_spec(target, self.matrix).0
            });
        let probe = (self.runs > 0).then(|| {
            probe_phase2(
                self.tracer,
                self.root,
                target,
                self.matrix,
                &spec,
                self.options,
                Some(self.runs),
            )
        });
        (phase1_s, spec.len(), probe)
    }
}

struct Input {
    entries: Vec<ClassEntry>,
    /// Per entry, the `random_check` configuration (catalog shifted).
    configs: Vec<RandomCheckConfig>,
    /// `(entry index, regression matrix)`.
    regressions: Vec<(usize, TestMatrix)>,
    /// The campaign's options at [`REGRESSION_CAP`].
    options: CheckOptions,
}

pub struct Campaign {
    seed: u64,
    size: Size,
    input: Option<Input>,
    /// Per entry, the last pass's result.
    last: Vec<RandomCheckResult>,
}

/// Whether payloads are opaque to the class, so shifting them changes
/// nothing but the data (queue and stack entries).
fn payloads_are_opaque(entry: &ClassEntry) -> bool {
    matches!(
        entry.adt_kind,
        Some(lineup::AdtKind::Queue | lineup::AdtKind::Stack)
    )
}

fn shift_matrix(mut m: TestMatrix, by: i64) -> TestMatrix {
    let cells = m.columns.iter_mut().flatten();
    for inv in cells.chain(&mut m.init).chain(&mut m.finally) {
        gen::shift_invocation(inv, by);
    }
    m
}

impl Campaign {
    pub fn new(seed: u64, size: Size) -> Self {
        Campaign {
            seed,
            size,
            input: None,
            last: Vec::new(),
        }
    }

    fn input(&self) -> &Input {
        self.input.as_ref().expect("setup ran")
    }

    fn cap(size: Size) -> u64 {
        match size {
            Size::Full => 3_000,
            Size::Smoke => 150,
        }
    }

    fn build(seed: u64, cap: u64) -> Input {
        let entries = all_classes();
        let options = CheckOptions::new().with_preemption_bound(Some(PREEMPTION_BOUND));
        let capped = |cap: u64| options.clone().with_max_phase2_runs(cap);
        let shift = gen::value_shift(seed);
        let shift_of = |e: &ClassEntry| if payloads_are_opaque(e) { shift } else { 0 };
        let configs = entries
            .iter()
            .map(|entry| {
                let mut catalog = entry.target().invocations();
                for inv in &mut catalog {
                    gen::shift_invocation(inv, shift_of(entry));
                }
                RandomCheckConfig {
                    samples: 1,
                    invocations: Some(catalog),
                    options: capped(cap),
                    ..RandomCheckConfig::paper_defaults(SHAPE_SEED)
                }
            })
            .collect();
        let regressions: Vec<(usize, TestMatrix)> = entries
            .iter()
            .enumerate()
            .flat_map(|(i, entry)| {
                let by = shift_of(entry);
                entry
                    .regression_matrices()
                    .into_iter()
                    .map(move |m| (i, shift_matrix(m, by)))
            })
            .collect();
        Input {
            entries,
            configs,
            regressions,
            options: capped(REGRESSION_CAP),
        }
    }

    /// The end-to-end call: every entry's `random_check`, gated.
    fn checked_pass(&mut self, gates: &mut Gates) -> f64 {
        let input = self.input.as_ref().expect("setup ran");
        let t0 = Instant::now();
        let results: Vec<RandomCheckResult> = input
            .entries
            .iter()
            .zip(&input.configs)
            .map(|(entry, config)| entry.target().random_check(config))
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        for (entry, result) in input.entries.iter().zip(&results) {
            if entry.expected_root_causes.is_empty() {
                gates.expect(result.passed(), || {
                    format!("false alarm on fixed entry {}", entry.name)
                });
            }
            for v in result.summaries.iter().filter_map(|s| s.violation.as_ref()) {
                gates.expect(classify(entry, v).is_some(), || {
                    format!("{}: violation matches no expected root cause", entry.name)
                });
            }
        }
        self.last = results;
        wall_s
    }

    fn summaries(&self) -> impl Iterator<Item = (&ClassEntry, &lineup::auto::TestSummary)> {
        self.input()
            .entries
            .iter()
            .zip(&self.last)
            .flat_map(|(e, r)| r.summaries.iter().map(move |s| (e, s)))
    }

    fn counters(&self) -> BTreeMap<&'static str, u64> {
        let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (_, s) in self.summaries() {
            let violations = usize::from(s.violation.is_some());
            for (k, v) in exact_counters(&s.phase2, violations) {
                *total.entry(k).or_default() += v;
            }
        }
        total
    }
}

impl Workload for Campaign {
    fn setup(&mut self) {
        // Warm-up: the same campaign at a twentieth of the phase-2 cap.
        let warm = Self::build(self.seed, Self::cap(self.size) / 20);
        for (entry, config) in warm.entries.iter().zip(&warm.configs) {
            let _ = entry.target().random_check(config);
        }
        self.input = Some(Self::build(self.seed, Self::cap(self.size)));
    }

    fn pass(&mut self, gates: &mut Gates) -> Pass {
        let wall_s = self.checked_pass(gates);
        let counters = self.counters();
        let runs = counters["sched.runs"] as f64;
        let ops: f64 = self
            .summaries()
            .map(|(_, s)| s.phase2.runs as f64 * s.matrix.operation_count() as f64)
            .sum();
        Pass {
            wall_s,
            runs,
            ops_per_s: ops / wall_s,
            counters,
        }
    }

    fn bug_samples(&self) -> usize {
        match self.size {
            Size::Full => BUG_SAMPLES,
            Size::Smoke => BUG_SAMPLES / 5,
        }
    }

    fn bug_find(&mut self, gates: &mut Gates) -> f64 {
        let input = self.input();
        let t0 = Instant::now();
        let reports: Vec<_> = input
            .regressions
            .iter()
            .map(|(i, m)| input.entries[*i].target().check(m, &input.options))
            .collect();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut convicted: BTreeSet<RootCause> = BTreeSet::new();
        for ((i, _), report) in input.regressions.iter().zip(&reports) {
            let entry = &input.entries[*i];
            gates.expect(!report.passed(), || {
                format!("{}: regression matrix passed", entry.name)
            });
            convicted.extend(report.violations.iter().filter_map(|v| classify(entry, v)));
        }
        let seeded: BTreeSet<RootCause> = input
            .entries
            .iter()
            .flat_map(|e| e.expected_root_causes.iter().copied())
            .collect();
        gates.expect_eq("root causes convicted", convicted, seeded);
        ms
    }

    fn verify(&mut self, gates: &mut Gates) {
        // Every failing test's decisions must reproduce the same history.
        for (entry, s) in self.summaries() {
            if let Some((history, decisions)) = s.violation.as_ref().and_then(evidence) {
                let replayed = with_target(
                    entry,
                    Replay {
                        matrix: &s.matrix,
                        decisions,
                    },
                );
                gates.expect(replayed == *history, || {
                    format!("{}: replay diverged from the report", entry.name)
                });
            }
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, root: SpanId, gates: &mut Gates) -> f64 {
        let id = tracer.begin("check.random_check", Some(root));
        let _ = self.checked_pass(gates);
        tracer.end(id)
    }

    fn probe_layers(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        gates: &mut Gates,
        wall_s: f64,
    ) -> Layers {
        let mut layers: Layers = self
            .counters()
            .into_iter()
            .map(|(k, v)| (k, v as f64))
            .collect();
        let mut phase1_s = 0.0;
        let mut serial_histories = 0usize;
        let mut total = Phase2Probe::default();
        let input = self.input();
        for (entry, s) in self.summaries() {
            let (p1, serial, probe) = with_target(
                entry,
                Probe {
                    tracer,
                    root,
                    matrix: &s.matrix,
                    options: &input.options,
                    runs: s.phase2.runs,
                },
            );
            phase1_s += p1;
            serial_histories += serial;
            if let Some(probe) = probe {
                gates.expect_eq("harness pass runs", probe.runs, s.phase2.runs);
                total.merge(&probe);
            }
        }
        let hits = layers["history.cache_hits"];
        total.report(&mut layers, wall_s, hits);
        layers.insert("spec.phase1_s", phase1_s);
        layers.insert("spec.serial_histories", serial_histories as f64);
        insert_raw_step_costs(&mut layers, tracer, root);
        layers
    }
}
