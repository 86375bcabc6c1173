//! Search-strategy ablation: how many phase-2 executions each strategy
//! needs to find a known violation (find time, in runs).
//!
//! Compares the paper's exhaustive DFS (with partial-order reduction), a
//! uniform random walk, PCT (probabilistic concurrency testing — the
//! Line-Up authors' follow-up, ASPLOS 2010), and the coverage-guided
//! schedule fuzzer ([`lineup_sched::CoverageStrategy`]) on four seeded
//! bugs:
//!
//! * **Fig. 1** and **Fig. 9** — the paper's small matrices, where DFS
//!   wins (the bug sits early in the search order and the space is tiny);
//! * **4×4** and **5×4 contended queue** — one adder plus three/four
//!   takers hammering the Pre queue's timed-acquire defect
//!   ([`lineup_collections::concurrent_queue::contended_matrix`]). Every
//!   violating schedule preempts the adder mid-`Add`, a *shallow*
//!   decision; DFS backtracks deepest-first and drowns in the linearizable
//!   taker/taker tail, so exhaustive search exhausts a multi-million-run
//!   budget without ever reaching a violation that samplers hit in
//!   thousands of runs.
//!
//! All verdicts come from the `lineup-monitor` oracle (the contended
//! matrices would need ~10⁷ serial runs to synthesize a spec), caching
//! one verdict per distinct history; the queue cases use distinct `Add`
//! values so the specialized log-linear queue checker stays on its fast
//! path.
//!
//! Randomized strategies report the median and p90 of runs-to-violation
//! over `--trials` seeded trials; trials that exhaust the budget are
//! marked (counted as `budget + 1` in the order statistics, reported as
//! `null` runs in the JSON).
//!
//! ```text
//! cargo run --release -p lineup-bench --bin strategies [--trials N]
//!     [--budget N] [--dfs-budget N] [--json] [--out PATH] [--smoke]
//!     [--no-symmetry]
//! ```
//!
//! `--json` writes the measurements to `BENCH_strategies.json` (or
//! `--out PATH`). `--smoke` shrinks the workload to the 4×4 matrix with
//! small budgets and exits nonzero unless every Coverage trial finds the
//! seeded bug — a CI-sized regression gate for the fuzzer.

use std::ops::ControlFlow;
use std::sync::Arc;

use lineup::AdtKind;
use lineup::{
    explore_matrix, ErasedTarget, History, HistoryCache, KeyWriter, SymmetryGroups, TestMatrix,
};
use lineup_bench::{arg_flag, arg_num, arg_value, TextTable};
use lineup_collections::concurrent_queue::{contended_matrix, fig1_matrix, ConcurrentQueueTarget};
use lineup_collections::hinted_queue::{fuzz4x4_matrix, fuzz5x4_matrix, HintedQueueTarget};
use lineup_collections::manual_reset_event::{fig9_matrix, ManualResetEventTarget};
use lineup_collections::Variant;
use lineup_monitor::{adt_monitor_backend, Monitor, ReplayOracle};
use lineup_sched::{Config, RunOutcome};

/// How a case decides whether one recorded history is a violation: ask
/// the monitor oracle, caching one verdict per distinct *canonical*
/// history (`true` = linearizable) — sampled schedules that merely
/// permute symmetric threads share a verdict instead of repeating the
/// monitor search (pass `--no-symmetry` for literal keys). The monitor
/// agrees with the paper's witness search on every history of a
/// deterministic target, and sidesteps spec synthesis — infeasible on
/// the contended matrices, whose serial enumeration alone would take
/// tens of millions of runs.
struct Verdicts {
    monitor: Arc<Monitor<ReplayOracle>>,
    groups: SymmetryGroups,
    cache: HistoryCache<bool>,
    keys: KeyWriter,
}

impl Verdicts {
    /// Whether a *complete* history is linearizable (Definition 1).
    fn full_ok(&mut self, history: &History) -> bool {
        self.cached(history, |monitor| monitor.check_full(history, &[]))
    }

    /// Whether a *stuck* history is acceptable: every pending operation
    /// has a stuck witness (Definition 2).
    fn stuck_ok(&mut self, history: &History) -> bool {
        self.cached(history, |monitor| {
            history
                .pending_ops()
                .into_iter()
                .all(|e| monitor.check_stuck(history, e, &[]))
        })
    }

    /// The cached verdict of `history`'s symmetry class, running `check`
    /// on a miss.
    fn cached(
        &mut self,
        history: &History,
        check: impl FnOnce(&Monitor<ReplayOracle>) -> bool,
    ) -> bool {
        let key = self.groups.key(history, &mut self.keys);
        match self.cache.get_key(&key) {
            Some(ok) => {
                self.keys.recycle(key);
                ok
            }
            None => self.cache.insert_key_if_absent(key, check(&self.monitor)).0,
        }
    }
}

/// Explores `matrix` with the given scheduler config and returns
/// `(runs until the first violation (None = budget exhausted), final
/// exploration stats)`.
fn runs_to_violation<T: lineup::TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    config: &Config,
    verdicts: &mut Verdicts,
) -> (Option<u64>, lineup_sched::ExploreStats) {
    // Tracked by the visitor, not `stats.stopped_early`: the latter is
    // also set when the run budget is exhausted without a violation.
    let mut found = false;
    let stats = explore_matrix(target, matrix, config, |run| {
        let violated = match run.outcome {
            RunOutcome::Complete => !verdicts.full_ok(&run.history),
            RunOutcome::Deadlock | RunOutcome::Livelock | RunOutcome::StuckSerial => {
                !verdicts.stuck_ok(&run.history)
            }
            // A sleep-set prune is a redundant schedule, never a violation.
            RunOutcome::Pruned => false,
            // Panics and step-limit blowups are real defects.
            _ => true,
        };
        if violated {
            found = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    (found.then_some(stats.runs), stats)
}

/// A case's exploration driver: runs the workload under the given
/// scheduler configuration and reports (runs-to-violation, stats).
type CaseRunner = Box<dyn Fn(&Config, &mut Verdicts) -> (Option<u64>, lineup_sched::ExploreStats)>;

/// One workload: a named target/matrix pair plus its verdict backend.
struct Case {
    name: &'static str,
    /// Short machine-readable key for the JSON output.
    key: &'static str,
    matrix: TestMatrix,
    run: CaseRunner,
    make_verdicts: Box<dyn Fn() -> Verdicts>,
}

fn monitor_case<T>(
    name: &'static str,
    key: &'static str,
    matrix: TestMatrix,
    target: T,
    kind: Option<AdtKind>,
) -> Case
where
    T: lineup::TestTarget + Copy + Send + Sync + 'static,
{
    let m = matrix.clone();
    let m2 = matrix.clone();
    Case {
        name,
        key,
        matrix,
        run: Box::new(move |cfg, v| runs_to_violation(&target, &m, cfg, v)),
        make_verdicts: Box::new(move || {
            let erased: Arc<dyn ErasedTarget + Send + Sync> = Arc::new(target);
            let groups = if arg_flag("--no-symmetry") {
                SymmetryGroups::default()
            } else {
                m2.symmetry_groups(target.symmetry_policy())
            };
            let cache = HistoryCache::new(1);
            Verdicts {
                monitor: adt_monitor_backend(erased, &m2, kind),
                groups,
                keys: cache.writer(),
                cache,
            }
        }),
    }
}

/// Per-strategy summary of one workload.
struct Sample {
    workload: &'static str,
    strategy: &'static str,
    /// Per-trial runs-to-violation, `None` when the budget ran out.
    runs: Vec<Option<u64>>,
    budget: u64,
    corpus_size: u64,
    coverage_bits: u64,
    mutations: u64,
}

impl Sample {
    /// Order statistic over trials, exhausted trials sorted past every
    /// finite count (as `budget + 1`).
    fn percentile(&self, p: f64) -> Option<u64> {
        let mut xs: Vec<u64> = self
            .runs
            .iter()
            .map(|r| r.unwrap_or(self.budget + 1))
            .collect();
        xs.sort_unstable();
        let idx = ((p * xs.len() as f64).ceil() as usize).saturating_sub(1);
        let v = xs[idx.min(xs.len() - 1)];
        (v <= self.budget).then_some(v)
    }

    fn median(&self) -> Option<u64> {
        self.percentile(0.5)
    }

    fn p90(&self) -> Option<u64> {
        self.percentile(0.9)
    }

    fn exhausted(&self) -> usize {
        self.runs.iter().filter(|r| r.is_none()).count()
    }

    /// Table cell: `median (p90 N)` with exhausted trials marked.
    fn cell(&self) -> String {
        let fmt = |r: Option<u64>| match r {
            Some(n) => n.to_string(),
            None => format!(">{}", self.budget),
        };
        let mut s = if self.runs.len() == 1 {
            fmt(self.runs[0])
        } else {
            format!("{} (p90 {})", fmt(self.median()), fmt(self.p90()))
        };
        if self.exhausted() > 0 && self.runs.len() > 1 {
            s.push_str(&format!(" [{}/{} exh]", self.exhausted(), self.runs.len()));
        }
        s
    }

    fn json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| match r {
                Some(n) => n.to_string(),
                None => "null".to_string(),
            })
            .collect();
        let opt = |r: Option<u64>| match r {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"workload\": \"{}\", \"strategy\": \"{}\", \"budget\": {}, \
             \"trials\": {}, \"exhausted\": {}, \"runs\": [{}], \
             \"median\": {}, \"p90\": {}, \
             \"corpus_size\": {}, \"coverage_bits\": {}, \"mutations\": {}}}",
            self.workload,
            self.strategy,
            self.budget,
            self.runs.len(),
            self.exhausted(),
            runs.join(", "),
            opt(self.median()),
            opt(self.p90()),
            self.corpus_size,
            self.coverage_bits,
            self.mutations,
        )
    }
}

fn main() {
    let smoke = arg_flag("--smoke");
    let trials: u64 = arg_num("--trials", if smoke { 3 } else { 9 });
    let budget: u64 = arg_num("--budget", if smoke { 40_000 } else { 200_000 });
    let dfs_budget: u64 = arg_num("--dfs-budget", if smoke { 100_000 } else { 2_000_000 });
    let json = arg_flag("--json");
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_strategies.json".into());

    let mut cases: Vec<Case> = Vec::new();
    if !smoke {
        cases.push(monitor_case(
            "Fig. 1 (queue TryTake timeout)",
            "fig1",
            fig1_matrix(),
            ConcurrentQueueTarget {
                variant: Variant::Pre,
            },
            Some(AdtKind::Queue),
        ));
        // No specialized checker for an event: the monitor falls back to
        // the Wing–Gong search, fine at this history size.
        cases.push(monitor_case(
            "Fig. 9 (MRE lost wakeup)",
            "fig9",
            fig9_matrix(),
            ManualResetEventTarget {
                variant: Variant::Pre,
            },
            None,
        ));
    }
    if !smoke {
        cases.push(monitor_case(
            "4x4 contended queue (Pre B)",
            "queue-4x4",
            contended_matrix(3, 4),
            ConcurrentQueueTarget {
                variant: Variant::Pre,
            },
            Some(AdtKind::Queue),
        ));
    }
    cases.push(monitor_case(
        "4x4 hinted queue (Pre, deep)",
        "hinted-4x4",
        fuzz4x4_matrix(),
        HintedQueueTarget {
            variant: Variant::Pre,
        },
        Some(AdtKind::Queue),
    ));
    if !smoke {
        cases.push(monitor_case(
            "5x4 hinted queue (Pre, deep)",
            "hinted-5x4",
            fuzz5x4_matrix(),
            HintedQueueTarget {
                variant: Variant::Pre,
            },
            Some(AdtKind::Queue),
        ));
    }

    println!(
        "Runs until the violation is found ({} of {trials} seeded trials; \
         sampling budget {budget} runs, DFS budget {dfs_budget}):\n",
        if trials > 1 {
            "median/p90"
        } else {
            "single trial"
        }
    );
    let mut table = TextTable::new(&[
        "Bug",
        "threads x ops",
        "DFS+POR",
        "Random walk",
        "PCT d=5",
        "Coverage",
        "verdict cache",
    ]);
    let mut samples: Vec<Sample> = Vec::new();
    // Per case: canonical verdict-cache hits and distinct keys, summed
    // over the case's DFS search and every sampling trial.
    let mut cache_rows: Vec<(&'static str, u64, usize)> = Vec::new();
    let mut smoke_failed = false;

    for case in &cases {
        let shape = format!(
            "{} x {}",
            case.matrix.columns.len(),
            case.matrix.columns.iter().map(Vec::len).max().unwrap_or(0)
        );
        let mut cells = vec![case.name.to_string(), shape];

        // DFS is deterministic: one trial, its own (larger) budget. The
        // verdict backend is shared across the whole search.
        let mut verdicts = (case.make_verdicts)();
        let mut cfg = Config::exhaustive();
        cfg.max_runs = Some(dfs_budget);
        let (dfs_runs, _) = (case.run)(&cfg, &mut verdicts);
        let dfs = Sample {
            workload: case.key,
            strategy: "dfs-por",
            runs: vec![dfs_runs],
            budget: dfs_budget,
            corpus_size: 0,
            coverage_bits: 0,
            mutations: 0,
        };
        cells.push(dfs.cell());
        samples.push(dfs);

        for strategy in ["random", "pct", "coverage"] {
            let mut runs = Vec::new();
            let mut corpus_size = 0u64;
            let mut coverage_bits = 0u64;
            let mut mutations = 0u64;
            for trial in 0..trials {
                let seed = 100 + trial;
                let cfg = match strategy {
                    "random" => Config::random(seed, budget),
                    "pct" => Config::pct(seed, 5, budget),
                    _ => Config::coverage(seed, budget),
                };
                let (r, stats) = (case.run)(&cfg, &mut verdicts);
                runs.push(r);
                corpus_size = corpus_size.max(stats.corpus_size);
                coverage_bits = coverage_bits.max(stats.coverage_bits);
                mutations = mutations.saturating_add(stats.mutations);
                if smoke && strategy == "coverage" && r.is_none() {
                    eprintln!(
                        "SMOKE FAIL: coverage trial seed {seed} exhausted {budget} runs \
                         without finding the seeded {} bug",
                        case.key
                    );
                    smoke_failed = true;
                }
            }
            let sample = Sample {
                workload: case.key,
                strategy,
                runs,
                budget,
                corpus_size,
                coverage_bits,
                mutations,
            };
            cells.push(sample.cell());
            samples.push(sample);
        }
        cells.push(format!(
            "{} hits / {} keys",
            verdicts.cache.hits(),
            verdicts.cache.len()
        ));
        cache_rows.push((case.key, verdicts.cache.hits(), verdicts.cache.len()));
        table.row(cells);
    }

    print!("{}", table.render());
    println!(
        "\nDFS+POR is deterministic (the count is where the bug sits in the \
         search order); Random, PCT, and Coverage are medians over seeds, \
         `>N` marking budget-exhausted trials (sorted past every finite \
         find). The contended matrices are built so every violation hides \
         behind a shallow preemption of the adder: depth-first order must \
         first drain the linearizable taker/taker tail, while the \
         coverage fuzzer's corpus replays novel prefixes and injects \
         preemptions at mutated decision points. Coverage feedback only \
         orders exploration — it never prunes, so any violation it can \
         reach, it can report."
    );

    if json {
        let mut out = String::from("{\n");
        out.push_str("  \"benchmark\": \"strategy-find-time\",\n");
        out.push_str(&format!("  \"smoke\": {smoke},\n"));
        out.push_str(&format!("  \"trials\": {trials},\n"));
        out.push_str(&format!("  \"sampling_budget\": {budget},\n"));
        out.push_str(&format!("  \"dfs_budget\": {dfs_budget},\n"));
        out.push_str(&format!(
            "  \"symmetry\": {},\n",
            !arg_flag("--no-symmetry")
        ));
        out.push_str("  \"verdict_cache\": [\n");
        for (i, (key, hits, keys)) in cache_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{key}\", \"hits\": {hits}, \
                 \"distinct_keys\": {keys}}}{}\n",
                if i + 1 < cache_rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"results\": [\n");
        for (i, s) in samples.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&s.json());
            out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        match std::fs::write(&out_path, &out) {
            Ok(()) => println!("wrote {out_path}"),
            Err(e) => {
                eprintln!("failed to write {out_path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if smoke {
        if smoke_failed {
            eprintln!("smoke: FAILED — coverage strategy missed the seeded bug");
            std::process::exit(1);
        }
        println!("smoke: OK — every coverage trial found the seeded 4x4 bug");
    }
}
