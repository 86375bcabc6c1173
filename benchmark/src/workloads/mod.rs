//! The seven workloads and what they share: sizes, known-answer gates,
//! the shape of a timed pass.

use std::collections::BTreeMap;
use std::fmt::Debug;

use crate::trace::{SpanId, Tracer};

pub mod campaign;
pub mod explore;
pub mod monitor;
pub mod serve;

/// How much work a pass does. `Smoke` is about 1/20 of `Full`, with the
/// same code paths and every correctness gate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Known-answer bookkeeping: every output compared with its expected
/// value counts as attempted, every mismatch as failed. `error_share` is
/// `failed / attempted`.
#[derive(Debug, Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the operator.
    pub failures: Vec<String>,
}

impl Gates {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Counts `attempted` outputs of which `failed` were wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 16 {
            self.failures.push(what());
        }
    }

    pub fn expect_eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        self.expect(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// One timed pass of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The timed call(s), in seconds.
    pub wall_s: f64,
    /// Runs completed: schedules explored (checker), histories decided
    /// (monitor), object streams retired (service).
    pub runs: f64,
    /// History operations decided per second. Usually `ops / wall_s`;
    /// the monitor workloads combine per-kind rates instead.
    pub ops_per_s: f64,
    /// Exact counters of the pass; they must be the same in every pass.
    pub counters: BTreeMap<&'static str, u64>,
}

/// Per-layer metric values by declared name (see `metrics::PER_LAYER`).
pub type Layers = BTreeMap<&'static str, f64>;

/// A workload: inputs made from a seed, a timed end-to-end pass with its
/// known answers, a seeded-defect pass, and the traced layer attribution.
pub trait Workload {
    /// Builds every input from the seed and warms the code up at no more
    /// than a tenth of a pass. Called several times per run (set-up time
    /// is reported as a median); each call replaces the previous inputs.
    fn setup(&mut self);

    /// One timed end-to-end pass, checked against its known answers.
    fn pass(&mut self, gates: &mut Gates) -> Pass;

    /// How many [`Workload::bug_find`] samples make a steady median.
    fn bug_samples(&self) -> usize;

    /// Time, in milliseconds, for the system to convict this workload's
    /// seeded defect; the conviction itself is gated.
    fn bug_find(&mut self, gates: &mut Gates) -> f64;

    /// Untimed checks of the last pass's outputs against an independent
    /// answer (replays, offline monitors). Nothing to do where every
    /// output was compared with its known answer in the pass itself.
    fn verify(&mut self, _gates: &mut Gates) {}

    /// The same end-to-end call as [`Workload::pass`], under spans.
    /// Returns its wall time; the workload keeps what the call reported
    /// for [`Workload::probe_layers`].
    fn traced_pass(&mut self, tracer: &mut Tracer, root: SpanId, gates: &mut Gates) -> f64;

    /// Drives each layer on the workload's path directly through its
    /// public functions and returns the per-layer metrics. `wall_s` is
    /// the traced end-to-end time the layers are set against.
    fn probe_layers(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        gates: &mut Gates,
        wall_s: f64,
    ) -> Layers;
}

/// Builds a workload by name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "explore_full" => Box::new(explore::Explore::new(explore::Variant::Full, seed, size)),
        "explore_reduced" => Box::new(explore::Explore::new(explore::Variant::Reduced, seed, size)),
        "campaign" => Box::new(campaign::Campaign::new(seed, size)),
        "monitor_unambiguous" => Box::new(monitor::MonitorLoad::new(
            monitor::Variant::Unambiguous,
            seed,
            size,
        )),
        "monitor_ambiguous" => Box::new(monitor::MonitorLoad::new(
            monitor::Variant::Ambiguous,
            seed,
            size,
        )),
        "serve_replay" => Box::new(serve::Serve::new(serve::Variant::Replay, seed, size)),
        "serve_distinct" => Box::new(serve::Serve::new(serve::Variant::Distinct, seed, size)),
        _ => return None,
    })
}

/// Nanoseconds per call of `f`, averaged over `rounds` walks over `items`.
/// The layer probes use it to time sub-microsecond public functions.
pub fn ns_per_call<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = std::time::Instant::now();
    for _ in 0..rounds {
        for item in items {
            f(item);
        }
    }
    t0.elapsed().as_nanos() as f64 / (rounds * items.len()) as f64
}
