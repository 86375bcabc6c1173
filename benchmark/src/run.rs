//! One workload in this process: set-up, timed passes, seeded-defect
//! samples, known-answer gates — or, traced, the layer attribution — and
//! the result lines.
//!
//! Standard output carries, in this order: `key value ...` lines that
//! `orchestrate` (and a reader) can follow, then one JSON object on the
//! last line with exactly the keys `correct`, `attempted`, `failed`,
//! `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::env;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, min_max};
use crate::trace::Tracer;
use crate::workloads::{self, Gates, Pass, Size, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untraced/traced pairs of the end-to-end call in a traced run; the
/// medians give `trace.overhead_pct`.
const TRACE_PAIRS: usize = 7;
/// The seeded-defect samples are taken in this many chunks, one after
/// each of the first passes.
const BUG_CHUNKS: usize = 8;

/// What one workload process was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measure for about this long: whole passes are repeated while
    /// another one still fits. Always at least one pass.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Exactly this many passes instead of a time budget.
    pub repeat: Option<usize>,
}

/// A reported value: the median of its samples and their range.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Reported {
    fn of(samples: &[f64]) -> Self {
        let (min, max) = min_max(samples);
        Reported {
            value: median(samples),
            min,
            max,
            samples: samples.len(),
        }
    }

    fn single(value: f64) -> Self {
        Reported {
            value,
            min: value,
            max: value,
            samples: 1,
        }
    }
}

/// Where traces and result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// What a run measured: reported values by metric name, the exact
/// counters, and the number of passes behind the medians.
struct Measured {
    metrics: BTreeMap<&'static str, Reported>,
    counters: BTreeMap<&'static str, u64>,
    passes: usize,
}

/// The traced run: the end-to-end call without and with spans, then the
/// layers driven directly; writes the span file.
fn run_traced(args: &RunArgs, workload: &mut dyn Workload, gates: &mut Gates) -> Measured {
    workload.setup();
    let mut tracer = Tracer::new();
    let root = tracer.begin("workload", None);
    // Untraced and traced calls alternate, so that a drift of the host
    // hits both alike.
    let pairs = match args.size {
        Size::Full => TRACE_PAIRS,
        Size::Smoke => 1,
    };
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        untraced_s.push(workload.pass(gates).wall_s);
        traced_s.push(workload.traced_pass(&mut tracer, root, gates));
    }
    let (untraced_wall_s, traced_wall_s) = (median(&untraced_s), median(&traced_s));
    let mut layers = workload.probe_layers(&mut tracer, root, gates, traced_wall_s);
    tracer.end(root);
    layers.insert(
        "trace.overhead_pct",
        (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
    );
    assert!(
        layers
            .keys()
            .all(|name| PER_LAYER.iter().any(|m| m.name == *name)),
        "a workload reported a per-layer metric that metrics.rs does not declare"
    );

    let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
    match tracer.write_jsonl(&path, &args.workload) {
        Ok(()) => println!("trace {} spans {}", path.display(), tracer.spans().len()),
        Err(e) => eprintln!("lineup-perf: cannot write {}: {e}", path.display()),
    }
    Measured {
        counters: PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .filter_map(|m| Some((m.name, *layers.get(m.name)? as u64)))
            .collect(),
        metrics: layers
            .into_iter()
            .map(|(name, value)| (name, Reported::single(value)))
            .collect(),
        passes: pairs,
    }
}

/// The timed run: set-ups, passes while they fit in the budget, the
/// seeded-defect samples between them, the untimed checks.
fn run_timed(args: &RunArgs, workload: &mut dyn Workload, gates: &mut Gates) -> Measured {
    let setups = match args.size {
        Size::Full => SETUP_REPEATS,
        Size::Smoke => 1,
    };
    let setup_s: Vec<f64> = (0..setups)
        .map(|_| {
            let t0 = Instant::now();
            workload.setup();
            t0.elapsed().as_secs_f64()
        })
        .collect();

    // The seeded-defect samples are spread between the passes: a slow
    // burst of the host then hits a few samples of each metric and the
    // medians shrug it off.
    let started = Instant::now();
    let mut done: Vec<Pass> = Vec::new();
    let mut bug_ms = Vec::new();
    let bug_samples = workload.bug_samples();
    let chunk = bug_samples.div_ceil(BUG_CHUNKS);
    loop {
        done.push(workload.pass(gates));
        for _ in 0..chunk.min(bug_samples - bug_ms.len()) {
            bug_ms.push(workload.bug_find(gates));
        }
        let walls: Vec<f64> = done.iter().map(|p| p.wall_s).collect();
        let more = match args.repeat {
            Some(n) => done.len() < n,
            None => started.elapsed().as_secs_f64() + median(&walls) <= args.seconds,
        };
        if !more {
            break;
        }
    }
    while bug_ms.len() < bug_samples {
        bug_ms.push(workload.bug_find(gates));
    }
    let counters = done[0].counters.clone();
    gates.expect(done.iter().all(|p| p.counters == counters), || {
        "exact counters differ between passes".to_string()
    });
    // Before the offline checks, which allocate on their own account.
    let peak_rss_mb = env::peak_rss_mb();
    workload.verify(gates);

    let per_pass = |f: fn(&Pass) -> f64| Reported::of(&done.iter().map(f).collect::<Vec<_>>());
    Measured {
        metrics: BTreeMap::from([
            ("setup_s", Reported::of(&setup_s)),
            ("wall_s", per_pass(|p| p.wall_s)),
            ("runs_per_s", per_pass(|p| p.runs / p.wall_s)),
            ("ops_per_s", per_pass(|p| p.ops_per_s)),
            ("bug_find_ms", Reported::of(&bug_ms)),
            ("peak_rss_mb", Reported::single(peak_rss_mb)),
        ]),
        counters,
        passes: done.len(),
    }
}

/// Runs the workload and prints its result. Returns whether every output
/// matched its known answer.
pub fn run(args: &RunArgs) -> bool {
    let load = env::load_1min();
    let mut workload = workloads::build(&args.workload, args.seed, args.size)
        .unwrap_or_else(|| panic!("unknown workload `{}`", args.workload));
    let mut gates = Gates::default();
    let measure = if args.trace { run_traced } else { run_timed };
    let Measured {
        metrics,
        counters,
        passes,
    } = measure(args, &mut *workload, &mut gates);

    println!(
        "workload {} seed {} trace {} passes {passes} load_1min {load}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    // The JSON line carries every declared metric of its kind; a layer
    // off the workload's path reads 0 there and is left out above it.
    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut json = String::new();
    for (name, unit) in declared {
        if let Some(r) = metrics.get(name) {
            println!(
                "metric {name} {} {unit} min {} max {} n {}",
                r.value, r.min, r.max, r.samples
            );
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            metrics.get(name).map_or(0.0, |r| r.value)
        );
    }
    for (name, value) in &counters {
        println!("counter {name} {value}");
    }
    for failure in &gates.failures {
        println!("failure {failure}");
    }
    let correct = gates.failed == 0;
    println!(
        "error_share {} attempted {} failed {}",
        gates.failed as f64 / gates.attempted.max(1) as f64,
        gates.attempted,
        gates.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        gates.attempted.max(1),
        gates.failed
    );
    correct
}
