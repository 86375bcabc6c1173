//! `explore_full` and `explore_reduced`: exhaustive phase 2 of the fixed
//! `ConcurrentQueue` against its own synthesized specification.
//!
//! Both explore a complete schedule tree, so the run, step and
//! distinct-history counts are exact known answers; the seed only picks
//! the enqueued payloads. `explore_full` switches every reduction off —
//! the scheduler and the harness do three quarters of the work and all
//! but 110 runs are verdict-cache hits. `explore_reduced` switches
//! partial-order and symmetry reduction on over a larger test, where the
//! per-step bookkeeping dominates. A scheduler fast-path change must
//! move both; a reduction change must move the second and leave the
//! first alone.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Instant;

use lineup::{
    check, check_against_spec, explore_matrix, find_witness, synthesize_spec, CheckOptions,
    History, HistoryCache, Invocation, ObservationSet, PhaseStats, SymmetryGroups, TestMatrix,
    TestTarget, Violation, WitnessQuery,
};
use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
use lineup_sched::{Config, RunOutcome};

use super::{ns_per_call, Gates, Layers, Pass, Size, Workload};
use crate::gen;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// POR off, symmetry off.
    Full,
    /// POR on, symmetry on.
    Reduced,
}

/// The exact answers of one exhaustive exploration.
#[derive(Debug, Clone, Copy)]
struct Expected {
    runs: u64,
    steps: u64,
    distinct: u64,
}

/// An operation of a test shape.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `Enqueue(fresh value)`.
    E,
    /// `TryDequeue`.
    D,
    /// `TryPeek`.
    P,
}
use Op::{D, E, P};

/// One test: the operations of each thread.
type Shape = &'static [&'static [Op]];

/// Shape and known answers per (variant, size). A pass explores a whole
/// tree in well under a second, so a ten-second run is the median of
/// tens of passes (see the README on why not one long pass). The smoke
/// shapes double as the warm-up of the full ones (1/15 and 1/25 of
/// their runs).
fn plan(variant: Variant, size: Size) -> (Shape, Expected) {
    match (variant, size) {
        (Variant::Full, Size::Full) => (
            &[&[E, P], &[E, P]],
            Expected {
                runs: 62_980,
                steps: 1_340_810,
                distinct: 110,
            },
        ),
        (Variant::Full, Size::Smoke) => (
            &[&[D, E], &[E]],
            Expected {
                runs: 4_277,
                steps: 82_416,
                distinct: 21,
            },
        ),
        (Variant::Reduced, Size::Full) => (
            &[&[E, D, D], &[E, D, D]],
            Expected {
                runs: 36_198,
                steps: 1_291_922,
                distinct: 720,
            },
        ),
        (Variant::Reduced, Size::Smoke) => (
            &[&[E, D], &[E, D]],
            Expected {
                runs: 1_417,
                steps: 37_573,
                distinct: 55,
            },
        ),
    }
}

/// The test the seeded defect is convicted on: the pre-fix queue needs a
/// `TryDequeue` racing an `Enqueue` to fail.
fn bug_shape(variant: Variant) -> Shape {
    match variant {
        Variant::Full => &[&[E, D], &[E, D]],
        Variant::Reduced => &[&[E, D, E], &[E, D, E]],
    }
}

/// Builds the matrix of a shape, drawing every payload from `values`.
fn matrix_of(shape: Shape, values: &mut impl Iterator<Item = i64>) -> TestMatrix {
    TestMatrix::from_columns(
        shape
            .iter()
            .map(|column| {
                column
                    .iter()
                    .map(|op| match op {
                        E => Invocation::with_int("Enqueue", values.next().expect("enough values")),
                        D => Invocation::new("TryDequeue"),
                        P => Invocation::new("TryPeek"),
                    })
                    .collect()
            })
            .collect(),
    )
}

struct Input {
    matrix: TestMatrix,
    spec: ObservationSet,
    expected: Expected,
    bug_matrix: TestMatrix,
}

pub struct Explore {
    variant: Variant,
    seed: u64,
    size: Size,
    fixed: ConcurrentQueueTarget,
    /// The seeded defect: the pre-fix queue, whose timed lock acquire can
    /// time out so `TryDequeue` fails on a non-empty queue (root cause B).
    buggy: ConcurrentQueueTarget,
    input: Option<Input>,
    /// What the last traced pass reported.
    last: Option<PhaseStats>,
}

impl Explore {
    pub fn new(variant: Variant, seed: u64, size: Size) -> Self {
        Explore {
            variant,
            seed,
            size,
            fixed: ConcurrentQueueTarget {
                variant: lineup_collections::Variant::Fixed,
            },
            buggy: ConcurrentQueueTarget {
                variant: lineup_collections::Variant::Pre,
            },
            input: None,
            last: None,
        }
    }

    fn options(&self) -> CheckOptions {
        let reduce = self.variant == Variant::Reduced;
        CheckOptions::new()
            .with_preemption_bound(None)
            .with_por(reduce)
            .with_symmetry(reduce)
            .collect_all_violations()
    }

    fn input(&self) -> &Input {
        self.input.as_ref().expect("setup ran")
    }

    /// The end-to-end call, with its known answers.
    fn checked_pass(&self, gates: &mut Gates) -> (PhaseStats, f64) {
        let input = self.input();
        let options = self.options();
        let t0 = Instant::now();
        let (violations, stats) =
            check_against_spec(&self.fixed, &input.matrix, &input.spec, &options);
        let wall_s = t0.elapsed().as_secs_f64();
        gates.expect_eq("violations", violations.len(), 0);
        gates.expect_eq("runs", stats.runs, input.expected.runs);
        gates.expect_eq("steps", stats.total_steps, input.expected.steps);
        gates.expect_eq(
            "distinct histories",
            distinct(&stats),
            input.expected.distinct,
        );
        (stats, wall_s)
    }
}

fn distinct(stats: &PhaseStats) -> u64 {
    (stats.full_histories + stats.stuck_histories) as u64
}

/// The counters of a phase that must repeat exactly for a given seed.
pub(super) fn exact_counters(stats: &PhaseStats, violations: usize) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("sched.runs", stats.runs),
        ("sched.steps", stats.total_steps),
        ("sched.fast_path_steps", stats.fast_path_steps),
        ("sched.handoffs", stats.handoffs),
        ("por.sleep_prunes", stats.sleep_prunes),
        ("matrix.symmetry_prunes", stats.symmetry_prunes),
        ("history.distinct", distinct(stats)),
        ("history.cache_hits", stats.phase2_cache_hits),
        ("witness.queries", distinct(stats)),
        ("check.violations", violations as u64),
    ])
}

impl Workload for Explore {
    fn setup(&mut self) {
        let (shape, expected) = plan(self.variant, self.size);
        let (warm_shape, _) = plan(self.variant, Size::Smoke);
        let mut values = gen::distinct_values(self.seed, 16).into_iter();
        let matrix = matrix_of(shape, &mut values);
        let warm = matrix_of(warm_shape, &mut values);
        let bug_matrix = matrix_of(bug_shape(self.variant), &mut values);
        let (spec, _, panic) = synthesize_spec(&self.fixed, &matrix);
        assert!(panic.is_none(), "phase 1 of the fixed queue cannot panic");
        let (warm_spec, _, _) = synthesize_spec(&self.fixed, &warm);
        let _ = check_against_spec(&self.fixed, &warm, &warm_spec, &self.options());
        self.input = Some(Input {
            matrix,
            spec,
            expected,
            bug_matrix,
        });
    }

    fn pass(&mut self, gates: &mut Gates) -> Pass {
        let (stats, wall_s) = self.checked_pass(gates);
        let ops = stats.runs as f64 * self.input().matrix.operation_count() as f64;
        Pass {
            wall_s,
            runs: stats.runs as f64,
            ops_per_s: ops / wall_s,
            counters: exact_counters(&stats, 0),
        }
    }

    fn bug_samples(&self) -> usize {
        match self.size {
            Size::Full => 1000,
            Size::Smoke => 25,
        }
    }

    fn bug_find(&mut self, gates: &mut Gates) -> f64 {
        // Both phases, as a user runs it, stopping at the first violation.
        let mut options = self.options();
        options.stop_at_first_violation = true;
        let t0 = Instant::now();
        let report = check(&self.buggy, &self.input().bug_matrix, &options);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        gates.expect(
            matches!(report.first_violation(), Some(Violation::NoWitness { .. })),
            || "the pre-fix queue was not convicted".to_string(),
        );
        ms
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, root: SpanId, gates: &mut Gates) -> f64 {
        let id = tracer.begin("check.check_against_spec", Some(root));
        let (stats, _) = self.checked_pass(gates);
        self.last = Some(stats);
        tracer.end(id)
    }

    fn probe_layers(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        gates: &mut Gates,
        wall_s: f64,
    ) -> Layers {
        let stats = self.last.as_ref().expect("a traced pass ran");
        let input = self.input();
        let options = self.options();
        let mut layers: Layers = exact_counters(stats, 0)
            .into_iter()
            .map(|(k, v)| (k, v as f64))
            .collect();

        let probe = probe_phase2(
            tracer,
            root,
            &self.fixed,
            &input.matrix,
            &input.spec,
            &options,
            None,
        );
        gates.expect_eq("harness pass runs", probe.runs, stats.runs);
        gates.expect_eq("harness pass steps", probe.steps, stats.total_steps);
        probe.report(&mut layers, wall_s, stats.phase2_cache_hits as f64);

        let (spec_again, phase1_s) = tracer.time("spec.synthesize_spec", Some(root), || {
            synthesize_spec(&self.fixed, &input.matrix).0
        });
        layers.insert("spec.phase1_s", phase1_s);
        layers.insert("spec.serial_histories", spec_again.len() as f64);
        insert_raw_step_costs(&mut layers, tracer, root);

        if self.variant == Variant::Full && self.size == Size::Full {
            // Work stealing needs a tree worth splitting: the 2x2
            // Enqueue/TryDequeue test, 17 times this workload's own, once
            // on one worker and once on two (probe off). Informational —
            // on a shared two-core host the speedup spreads by tens of
            // percent — but its exact counts are gated like any other.
            let big = &input.bug_matrix;
            let (big_spec, _, _) = synthesize_spec(&self.fixed, big);
            let mut run = |name, options: &CheckOptions| {
                let ((violations, stats), s) = tracer.time(name, Some(root), || {
                    check_against_spec(&self.fixed, big, &big_spec, options)
                });
                gates.expect_eq("2x2 violations", violations.len(), 0);
                gates.expect_eq("2x2 runs", stats.runs, 1_092_546);
                gates.expect_eq("2x2 steps", stats.total_steps, 31_364_146);
                (stats, s)
            };
            let (_, serial_s) = run("explorer.check_against_spec_1w", &options);
            let stealing = options.clone().with_workers(2).with_parallel_probe_runs(0);
            let (s2, steal_s) = run("explorer.check_against_spec_2w", &stealing);
            layers.insert("explorer.steal2_wall_s", steal_s);
            layers.insert("explorer.steal2_speedup", serial_s / steal_s);
            layers.insert("explorer.splits", s2.splits as f64);
            layers.insert("explorer.steals", s2.steals as f64);
            layers.insert("explorer.idle_parks", s2.idle_parks as f64);
        }
        layers
    }
}

/// `sched.raw_ns_per_step` and `por.raw_ns_per_step_delta`.
pub(super) fn insert_raw_step_costs(layers: &mut Layers, tracer: &mut Tracer, root: SpanId) {
    let off = tracer
        .time("sched.explore_raw", Some(root), || raw_ns_per_step(false))
        .0;
    let on = tracer
        .time("por.explore_raw", Some(root), || raw_ns_per_step(true))
        .0;
    layers.insert("sched.raw_ns_per_step", off);
    layers.insert("por.raw_ns_per_step_delta", on - off);
}

/// Schedule points per virtual thread in the raw scheduler loop: enough
/// that per-run set-up is noise.
const RAW_STEPS: usize = 1000;
const RAW_RUNS: usize = 300;

/// Bare `lineup_sched::explore` over two boundary-only threads: the cost
/// of one schedule point with nothing on top (and, with `por`, with the
/// footprint and vector-clock bookkeeping every step then pays).
fn raw_ns_per_step(por: bool) -> f64 {
    let config = Config::exhaustive().with_por(por);
    let mut steps = 0u64;
    let t0 = Instant::now();
    for _ in 0..RAW_RUNS {
        let stats = lineup_sched::explore(
            &config,
            |ex| {
                for _ in 0..2 {
                    ex.spawn(|| {
                        for _ in 0..RAW_STEPS {
                            lineup_sched::op_boundary();
                        }
                    });
                }
            },
            |_| ControlFlow::Break(()),
        );
        steps += stats.total_steps;
    }
    t0.elapsed().as_nanos() as f64 / steps as f64
}

/// Keep one history in this many for the layer probes.
const SAMPLE_EVERY: u64 = 1000;
/// Times the harness-only exploration is repeated (median counts).
const HARNESS_REPEATS: usize = 3;

/// What driving the layers under `check_against_spec` directly yields.
/// Probes of several explorations add up ([`Phase2Probe::merge`]); the
/// per-call costs are kept as sums weighted by the histories sampled.
#[derive(Debug, Default)]
pub(super) struct Phase2Probe {
    pub runs: u64,
    pub steps: u64,
    explore_s: f64,
    index_s: f64,
    samples: f64,
    canonicalize_ns: f64,
    probe_ns: f64,
    insert_ns: f64,
    find_ns: f64,
}

/// Re-runs a phase-2 exploration through the layers' own entry points:
/// `explore_matrix` with the public `Config` the checker builds and a
/// visitor that only keeps every thousandth history, then
/// `SymmetryGroups::canonicalize`, `HistoryCache` and `find_witness` over
/// those samples. `max_runs` reproduces a check that stopped early.
pub(super) fn probe_phase2<T: TestTarget>(
    tracer: &mut Tracer,
    parent: SpanId,
    target: &T,
    matrix: &TestMatrix,
    spec: &ObservationSet,
    options: &CheckOptions,
    max_runs: Option<u64>,
) -> Phase2Probe {
    let groups = if options.symmetry {
        matrix.symmetry_groups(target.symmetry_policy())
    } else {
        SymmetryGroups::default()
    };
    let mut config = Config::exhaustive()
        .with_por(options.por)
        .with_symmetry(groups.masks())
        .with_fast_path(options.fast_path)
        .with_backend(options.backend);
    config.preemption_bound = options.preemption_bound;
    config.max_runs = max_runs.or(options.max_phase2_runs);

    // The exploration runs a few times and the median time counts; the
    // histories are the same each time, so the last samples serve.
    let mut samples: Vec<History> = Vec::new();
    let mut timed = Vec::new();
    for _ in 0..HARNESS_REPEATS {
        samples.clear();
        let mut seen = 0u64;
        timed.push(tracer.time("harness.explore_matrix", Some(parent), || {
            explore_matrix(target, matrix, &config, |run| {
                if run.outcome != RunOutcome::Pruned {
                    if seen.is_multiple_of(SAMPLE_EVERY) {
                        samples.push(run.history);
                    }
                    seen += 1;
                }
                ControlFlow::Continue(())
            })
        }));
    }
    let explore_s = median(&timed.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let (stats, _) = timed.pop().expect("at least one exploration");

    // Enough rounds that each probe times ~100k calls.
    let rounds = (100_000 / samples.len().max(1)).max(1);
    let id = tracer.begin("matrix.canonicalize", Some(parent));
    let canonicalize_ns = ns_per_call(&samples, rounds, |h| {
        std::hint::black_box(groups.canonicalize(h));
    });
    tracer.end(id);

    let keys: Vec<History> = samples.iter().map(|h| groups.canonicalize(h)).collect();
    let cache = HistoryCache::new(1);
    let distinct_keys: Vec<&History> = keys
        .iter()
        .filter(|key| cache.insert_if_absent(key, true).1)
        .collect();
    let id = tracer.begin("history.insert_if_absent", Some(parent));
    let insert_rounds = (rounds / 10).max(1);
    let t0 = Instant::now();
    for _ in 0..insert_rounds {
        let fresh = HistoryCache::new(1);
        for key in &distinct_keys {
            fresh.insert_if_absent(key, true);
        }
    }
    let insert_ns =
        t0.elapsed().as_nanos() as f64 / (insert_rounds * distinct_keys.len().max(1)) as f64;
    tracer.end(id);

    let id = tracer.begin("history.get", Some(parent));
    let probe_ns = ns_per_call(&keys, rounds, |key| {
        std::hint::black_box(cache.get(key));
    });
    tracer.end(id);

    let (index, index_s) = tracer.time("witness.index", Some(parent), || spec.index());
    let id = tracer.begin("witness.find_witness", Some(parent));
    let find_ns = ns_per_call(&samples, (rounds / 10).max(1), |h| {
        if h.is_complete() {
            let q = WitnessQuery::for_full_relaxed(h, &options.async_methods);
            std::hint::black_box(find_witness(&index, &q));
        } else {
            for e in h.pending_ops() {
                let q = WitnessQuery::for_stuck_relaxed(h, e, &options.async_methods);
                std::hint::black_box(find_witness(&index, &q));
            }
        }
    });
    tracer.end(id);

    let weight = samples.len() as f64;
    Phase2Probe {
        runs: stats.runs,
        steps: stats.total_steps,
        explore_s,
        index_s,
        samples: weight,
        canonicalize_ns: canonicalize_ns * weight,
        probe_ns: probe_ns * weight,
        insert_ns: insert_ns * weight,
        find_ns: find_ns * weight,
    }
}

impl Phase2Probe {
    pub fn merge(&mut self, other: &Phase2Probe) {
        self.runs += other.runs;
        self.steps += other.steps;
        self.explore_s += other.explore_s;
        self.index_s += other.index_s;
        self.samples += other.samples;
        self.canonicalize_ns += other.canonicalize_ns;
        self.probe_ns += other.probe_ns;
        self.insert_ns += other.insert_ns;
        self.find_ns += other.find_ns;
    }

    /// Writes the harness, matrix, history, witness and check metrics of
    /// the probed exploration(s), whose end-to-end call took `wall_s` and
    /// hit the verdict cache `cache_hits` times.
    pub fn report(&self, layers: &mut Layers, wall_s: f64, cache_hits: f64) {
        let runs = self.runs.max(1) as f64;
        let samples = self.samples.max(1.0);
        layers.insert("harness.explore_s", self.explore_s);
        layers.insert("harness.ns_per_run", self.explore_s * 1e9 / runs);
        layers.insert(
            "harness.ns_per_step",
            self.explore_s * 1e9 / self.steps.max(1) as f64,
        );
        layers.insert("matrix.canonicalize_ns", self.canonicalize_ns / samples);
        layers.insert("history.probe_ns", self.probe_ns / samples);
        layers.insert("history.insert_ns", self.insert_ns / samples);
        layers.insert("history.hit_share", cache_hits / runs);
        layers.insert("witness.find_ns", self.find_ns / samples);
        layers.insert("witness.index_s", self.index_s);
        let self_s = wall_s - self.explore_s;
        layers.insert("check.self_s", self_s);
        layers.insert("check.self_ns_per_run", self_s * 1e9 / runs);
    }
}
