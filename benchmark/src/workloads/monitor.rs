//! `monitor_unambiguous` and `monitor_ambiguous`: `Monitor::check_full`
//! over generated histories of the four ADT kinds.
//!
//! Same layer, two paths. Fresh-value histories are decided by the
//! specialized log-linear checkers (op/value comparison cost shows here
//! and nowhere else); histories with a forced duplicate insert fall back
//! to the memoized Wing–Gong search (a budget, memo or tractable-class
//! change must move this one and leave the other alone). The by-
//! construction answer of every history is its known answer, and each
//! kind's violating history must be rejected in every pass.

use std::collections::BTreeMap;
use std::time::Instant;

use lineup::{AdtKind, FallbackReason, History};
use lineup_bench::histories::{ambiguous_history, unambiguous_history, violating_history};
use lineup_monitor::{ideal_oracle, FnOracle, IdealStep, Monitor, MonitorStats};

use super::{Gates, Layers, Pass, Size, Workload};
use crate::gen;
use crate::stats::geometric_mean;
use crate::trace::{SpanId, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Unambiguous,
    Ambiguous,
}

/// Shape seed of history `i` of a kind's corpus; a constant, not
/// `--seed` — one more fallback history is another amount of work (see
/// `gen`). The seed shifts the values.
const SHAPE_SEED: u64 = 0x11EE_0000;
const BUG_SAMPLES: usize = 100;

/// Per kind: first shape, histories in the corpus, and times a pass walks
/// it. Sized so each kind takes a tenth to a half of a second: the rates
/// differ by three orders of magnitude, and one ambiguous queue history
/// alone takes 0.4 s. The priority-queue corpus
/// starts at shape 16 so that it holds the one history in its sixteen
/// that falls back as `Inconclusive` — and costs more than the other
/// fifteen together.
fn plan(variant: Variant, kind: AdtKind) -> (u64, usize, usize) {
    match (variant, kind) {
        (Variant::Unambiguous, AdtKind::Queue) => (0, 8, 24),
        (Variant::Unambiguous, AdtKind::Stack) => (0, 8, 20),
        (Variant::Unambiguous, AdtKind::Set) => (0, 8, 24),
        (Variant::Unambiguous, AdtKind::PriorityQueue) => (16, 16, 1),
        (Variant::Ambiguous, AdtKind::Queue) => (0, 16, 1),
        (Variant::Ambiguous, AdtKind::Stack) => (0, 32, 1),
        (Variant::Ambiguous, AdtKind::Set) => (0, 32, 6),
        (Variant::Ambiguous, AdtKind::PriorityQueue) => (0, 32, 5),
    }
}

/// A twentieth of [`plan`]: fewer walks, then fewer histories.
fn sized(variant: Variant, kind: AdtKind, size: Size) -> (u64, usize, usize) {
    let (first, corpus, reps) = plan(variant, kind);
    match size {
        Size::Full => (first, corpus, reps),
        Size::Smoke if reps >= 20 => (first, corpus, reps / 20),
        Size::Smoke => (first, (corpus * reps / 20).max(1), 1),
    }
}

struct KindInput {
    kind: AdtKind,
    corpus: Vec<History>,
    reps: usize,
    violating: History,
}

/// What one pass measured beyond [`Pass`].
struct Detail {
    /// ops/s per kind, in `AdtKind::ALL` order.
    rates: Vec<f64>,
    stats: MonitorStats,
    max_check_ms: f64,
}

pub struct MonitorLoad {
    variant: Variant,
    seed: u64,
    size: Size,
    kinds: Vec<KindInput>,
    /// Exact counters and detail of the last traced pass.
    last: Option<(BTreeMap<&'static str, u64>, Detail)>,
}

fn add_stats(total: &mut MonitorStats, s: &MonitorStats) {
    total.checks += s.checks;
    total.oracle_steps += s.oracle_steps;
    total.memo_hits += s.memo_hits;
    total.paths.merge(&s.paths);
}

fn kind_label(kind: AdtKind) -> &'static str {
    match kind {
        AdtKind::Queue => "monitor.queue_ops_per_s",
        AdtKind::Stack => "monitor.stack_ops_per_s",
        AdtKind::Set => "monitor.set_ops_per_s",
        AdtKind::PriorityQueue => "monitor.pqueue_ops_per_s",
    }
}

fn fallback_label(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::Unregistered => "monitor.fallback_unregistered",
        FallbackReason::PendingOps => "monitor.fallback_pending_ops",
        FallbackReason::AsyncRelaxation => "monitor.fallback_async_relaxation",
        FallbackReason::UnknownOp => "monitor.fallback_unknown_op",
        FallbackReason::DuplicateValue => "monitor.fallback_duplicate_value",
        FallbackReason::Inconclusive => "monitor.fallback_inconclusive",
    }
}

/// The monitor counters that must repeat exactly for a given seed.
pub(super) fn exact_counters(
    checks: u64,
    paths: &lineup::MonitorPathStats,
    oracle_steps: u64,
    memo_hits: u64,
) -> BTreeMap<&'static str, u64> {
    let mut c = BTreeMap::from([
        ("monitor.checks", checks),
        ("monitor.specialized_checks", paths.specialized_checks),
        ("monitor.fallback_checks", paths.fallback_checks),
        ("monitor.oracle_steps", oracle_steps),
        ("monitor.memo_hits", memo_hits),
    ]);
    for reason in FallbackReason::ALL {
        c.insert(fallback_label(reason), paths.fallbacks_for(reason));
    }
    c
}

impl MonitorLoad {
    pub fn new(variant: Variant, seed: u64, size: Size) -> Self {
        MonitorLoad {
            variant,
            seed,
            size,
            kinds: Vec::new(),
            last: None,
        }
    }

    fn ops_per_history(&self) -> usize {
        match self.variant {
            Variant::Unambiguous => 4000,
            Variant::Ambiguous => 400,
        }
    }

    fn monitor(kind: AdtKind) -> Monitor<FnOracle<Vec<i64>, IdealStep>> {
        Monitor::new(ideal_oracle(kind)).with_adt_kind(kind)
    }

    /// One pass. With a tracer every `check_full` call gets its own span
    /// (and its duration feeds `max_check_ms`).
    fn checked_pass(
        &self,
        gates: &mut Gates,
        mut trace: Option<(&mut Tracer, SpanId)>,
    ) -> (Pass, Detail) {
        let mut stats = MonitorStats::default();
        let mut rates = Vec::new();
        let mut wall_s = 0.0;
        let mut histories = 0usize;
        let mut max_check_s = 0.0f64;
        for input in &self.kinds {
            // The tracer, with this kind's span as the parent of its checks.
            let mut kind_trace = trace.as_mut().map(|(tracer, root)| {
                let id = tracer.begin("monitor.kind", Some(*root));
                (&mut **tracer, id)
            });
            let mut wrong = 0u64;
            let shared = Self::monitor(input.kind);
            let t0 = Instant::now();
            for _ in 0..input.reps {
                for h in &input.corpus {
                    // Ambiguous histories get a fresh monitor each, as a
                    // service checking unrelated objects would give them.
                    let fresh =
                        (self.variant == Variant::Ambiguous).then(|| Self::monitor(input.kind));
                    let monitor = fresh.as_ref().unwrap_or(&shared);
                    let ok = match &mut kind_trace {
                        Some((tracer, parent)) => {
                            let (ok, s) = tracer.time("monitor.check_full", Some(*parent), || {
                                monitor.check_full(h, &[])
                            });
                            max_check_s = max_check_s.max(s);
                            ok
                        }
                        None => monitor.check_full(h, &[]),
                    };
                    wrong += u64::from(!ok);
                    if let Some(fresh) = &fresh {
                        add_stats(&mut stats, &fresh.stats());
                    }
                }
            }
            let kind_s = t0.elapsed().as_secs_f64();
            if let Some((tracer, id)) = kind_trace {
                tracer.end(id);
            }
            add_stats(&mut stats, &shared.stats());
            let checked = input.reps * input.corpus.len();
            gates.tally(checked as u64, wrong, || {
                format!("{}: {wrong} linearizable histories rejected", input.kind)
            });
            gates.expect(
                !Self::monitor(input.kind).check_full(&input.violating, &[]),
                || format!("{}: violating history accepted", input.kind),
            );
            rates.push((checked * self.ops_per_history()) as f64 / kind_s);
            wall_s += kind_s;
            histories += checked;
        }
        let pass = Pass {
            wall_s,
            runs: histories as f64,
            ops_per_s: geometric_mean(&rates),
            counters: exact_counters(
                stats.checks,
                &stats.paths,
                stats.oracle_steps,
                stats.memo_hits,
            ),
        };
        let detail = Detail {
            rates,
            stats,
            max_check_ms: max_check_s * 1e3,
        };
        (pass, detail)
    }
}

impl Workload for MonitorLoad {
    fn setup(&mut self) {
        let shift = gen::value_shift(self.seed);
        let ops = self.ops_per_history();
        let generate = match self.variant {
            Variant::Unambiguous => unambiguous_history,
            Variant::Ambiguous => ambiguous_history,
        };
        // The seed also picks where each kind's corpus starts its walk.
        let mut rng = gen::Rng::new(self.seed ^ 0x0C0F_FEE5);
        self.kinds = AdtKind::ALL
            .into_iter()
            .enumerate()
            .map(|(k, kind)| {
                let (first, count, reps) = sized(self.variant, kind, self.size);
                let base = SHAPE_SEED + 1000 * k as u64 + first;
                let mut corpus: Vec<History> = (0..count as u64)
                    .map(|i| gen::shift_history(generate(kind, ops, base + i), shift))
                    .collect();
                // Warm-up: a tenth of the corpus, before the seed turns it,
                // so that set-up costs the same for every seed.
                let monitor = Self::monitor(kind);
                for h in corpus.iter().take((count / 10).max(1)) {
                    std::hint::black_box(monitor.check_full(h, &[]));
                }
                corpus.rotate_left(rng.below(count as u64) as usize);
                KindInput {
                    kind,
                    corpus,
                    reps,
                    violating: gen::shift_history(violating_history(kind, ops, base), shift),
                }
            })
            .collect();
    }

    fn pass(&mut self, gates: &mut Gates) -> Pass {
        self.checked_pass(gates, None).0
    }

    fn bug_samples(&self) -> usize {
        BUG_SAMPLES
    }

    fn bug_find(&mut self, gates: &mut Gates) -> f64 {
        let t0 = Instant::now();
        let accepted = self
            .kinds
            .iter()
            .filter(|input| Self::monitor(input.kind).check_full(&input.violating, &[]))
            .count();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        gates.expect_eq("violating histories accepted", accepted, 0);
        ms
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, root: SpanId, gates: &mut Gates) -> f64 {
        let (pass, detail) = self.checked_pass(gates, Some((tracer, root)));
        self.last = Some((pass.counters, detail));
        pass.wall_s
    }

    fn probe_layers(
        &mut self,
        _tracer: &mut Tracer,
        _root: SpanId,
        _gates: &mut Gates,
        _wall_s: f64,
    ) -> Layers {
        // The traced pass drives the layer directly already: every
        // `check_full` call had its own span.
        let (counters, detail) = self.last.as_ref().expect("a traced pass ran");
        let mut layers: Layers = counters.iter().map(|(k, v)| (*k, *v as f64)).collect();
        for (kind, rate) in AdtKind::ALL.into_iter().zip(&detail.rates) {
            layers.insert(kind_label(kind), *rate);
        }
        let paths = &detail.stats.paths;
        layers.insert(
            "monitor.fallback_share",
            paths.fallback_checks as f64 / paths.total_checks().max(1) as f64,
        );
        layers.insert("monitor.max_check_ms", detail.max_check_ms);
        layers
    }
}
