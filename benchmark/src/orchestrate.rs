//! The one command: every workload in its own process (so `peak_rss_mb`
//! is that workload's alone), every metric printed by name with its
//! unit, `benchmark/out/results.json` written, non-zero exit on any
//! correctness-gate failure. Also `--selfcheck` (the acceptance test,
//! kept as a command) and `--check-counts`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::env::Environment;
use crate::metrics::{json_str, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{out_dir, Reported};
use crate::stats::{iqr_share, median, within_bound, worsening};
use crate::workloads::Size;

/// What the operator asked of the whole benchmark.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Only this workload (all seven when `None`).
    pub only: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub repeat: Option<usize>,
    /// Add the traced pass and print the per-layer metrics.
    pub trace: bool,
    /// `--selfcheck`: runs per workload in each of the two sets, each
    /// with another seed.
    pub seeds: usize,
}

/// One child process's parsed output.
#[derive(Debug, Default, Clone)]
struct ChildResult {
    metrics: BTreeMap<String, (Reported, String)>,
    counters: BTreeMap<String, u64>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    passes: usize,
    load_1min: f64,
    exit_ok: bool,
}

impl ChildResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).map(|(r, _)| r.value)
    }
}

fn parse_child(stdout: &str) -> ChildResult {
    let mut out = ChildResult::default();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| words.get(i).and_then(|w| w.parse::<f64>().ok());
        match words.first().copied() {
            Some("workload") => {
                out.passes = num(7).unwrap_or(0.0) as usize;
                out.load_1min = num(9).unwrap_or(0.0);
            }
            Some("metric") => {
                if let (Some(name), Some(value), Some(unit)) = (words.get(1), num(2), words.get(3))
                {
                    let reported = Reported {
                        value,
                        min: num(5).unwrap_or(value),
                        max: num(7).unwrap_or(value),
                        samples: num(9).unwrap_or(1.0) as usize,
                    };
                    out.metrics
                        .insert(name.to_string(), (reported, unit.to_string()));
                }
            }
            Some("counter") => {
                if let (Some(name), Some(value)) = (words.get(1), num(2)) {
                    out.counters.insert(name.to_string(), value as u64);
                }
            }
            Some("failure") => out
                .failures
                .push(line["failure".len()..].trim().to_string()),
            Some("error_share") => {
                out.attempted = num(3).unwrap_or(0.0) as u64;
                out.failed = num(5).unwrap_or(0.0) as u64;
            }
            _ => {}
        }
    }
    out
}

/// Runs one workload in a child process of this same executable.
fn run_child(plan: &Plan, workload: &str, trace: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if plan.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if let Some(n) = plan.repeat {
        cmd.args(["--repeat", &n.to_string()]);
    }
    let output = cmd.output().expect("spawn a workload process");
    let mut result = parse_child(&String::from_utf8_lossy(&output.stdout));
    result.exit_ok = output.status.success();
    if !result.exit_ok && result.failures.is_empty() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let last = stderr.lines().last().unwrap_or("no output");
        result
            .failures
            .push(format!("process exited with {}: {last}", output.status));
    }
    result
}

fn selected(plan: &Plan) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| plan.only.as_deref().is_none_or(|only| only == *name))
        .collect()
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 100_000.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// A whole set: per workload, the untraced and (optionally) traced run.
type ResultSet = Vec<(&'static str, (ChildResult, Option<ChildResult>))>;

fn run_set(plan: &Plan) -> ResultSet {
    let mut set = ResultSet::new();
    for name in selected(plan) {
        eprintln!("lineup-perf: running {name} ...");
        let plain = run_child(plan, name, false);
        let traced = plan.trace.then(|| {
            eprintln!("lineup-perf: tracing {name} ...");
            run_child(plan, name, true)
        });
        set.push((name, (plain, traced)));
    }
    set
}

fn print_header(env: &Environment, plan: &Plan) {
    println!(
        "lineup-perf  seed {}  seconds {}  repeat {}  size {:?}",
        plan.seed,
        plan.seconds,
        plan.repeat.map_or("by time".to_string(), |n| n.to_string()),
        plan.size
    );
    println!(
        "host: nproc {}  cpu \"{}\"  {}  git {}  load(1m) {}",
        env.nproc, env.cpu_model, env.rustc, env.git_rev, env.load_1min
    );
}

fn print_set(set: &ResultSet) {
    println!();
    println!(
        "{:<20} {:<12} {:>14} {:<7} {:>14} {:>14} {:>3}",
        "workload", "metric", "median", "unit", "min", "max", "n"
    );
    for (name, (plain, traced)) in set {
        for m in &END_TO_END {
            if let Some((r, unit)) = plain.metrics.get(m.name) {
                println!(
                    "{:<20} {:<12} {:>14} {:<7} {:>14} {:>14} {:>3}",
                    name,
                    m.name,
                    fmt_value(r.value),
                    unit,
                    fmt_value(r.min),
                    fmt_value(r.max),
                    r.samples
                );
            }
        }
        let attempted = plain.attempted.max(1);
        println!(
            "{:<20} {:<12} {:>14} {:<7} ({} of {} outputs wrong)",
            name,
            "error_share",
            fmt_value(plain.failed as f64 / attempted as f64),
            "ratio",
            plain.failed,
            plain.attempted
        );
        for failure in plain
            .failures
            .iter()
            .chain(traced.iter().flat_map(|t| &t.failures))
        {
            println!("{name:<20} FAILED: {failure}");
        }
    }
    if set.iter().any(|(_, (_, traced))| traced.is_some()) {
        println!();
        println!("per-layer metrics (traced pass; a layer off a workload's path is left out)");
        for (name, (_, traced)) in set {
            let Some(traced) = traced else { continue };
            for m in &PER_LAYER {
                if let Some((r, unit)) = traced.metrics.get(m.name) {
                    println!(
                        "{:<20} {:<34} {:>16} {}",
                        name,
                        m.name,
                        fmt_value(r.value),
                        unit
                    );
                }
            }
        }
    }
}

fn child_json(result: &ChildResult) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"passes\": {}, \"load_1min\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.passes, result.load_1min, result.attempted, result.failed
    );
    for (i, (name, (r, unit))) in result.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            r.value,
            json_str(unit),
            r.min,
            r.max,
            r.samples
        );
    }
    out.push_str("}, \"counters\": {");
    for (i, (name, value)) in result.counters.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {value}",
            if i > 0 { ", " } else { "" },
            json_str(name)
        );
    }
    out.push_str("}, \"failures\": [");
    for (i, failure) in result.failures.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}",
            if i > 0 { ", " } else { "" },
            json_str(failure)
        );
    }
    out.push_str("]}");
    out
}

fn write_results(env: &Environment, plan: &Plan, sets: &[ResultSet]) {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"environment\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \"load_1min\": {}}},",
        env.nproc,
        json_str(&env.cpu_model),
        json_str(&env.rustc),
        json_str(&env.git_rev),
        env.load_1min
    );
    let _ = writeln!(
        out,
        "  \"seed\": {}, \"seconds\": {}, \"repeat\": {}, \"smoke\": {},",
        plan.seed,
        plan.seconds,
        plan.repeat.map_or("null".to_string(), |n| n.to_string()),
        plan.size == Size::Smoke
    );
    out.push_str("  \"sets\": [\n");
    for (s, set) in sets.iter().enumerate() {
        out.push_str("    {\n");
        for (i, (name, (plain, traced))) in set.iter().enumerate() {
            let _ = write!(
                out,
                "      {}: {{\"end_to_end\": {}, \"per_layer\": {}}}",
                json_str(name),
                child_json(plain),
                traced.as_ref().map_or("null".to_string(), child_json)
            );
            out.push_str(if i + 1 < set.len() { ",\n" } else { "\n" });
        }
        out.push_str(if s + 1 < sets.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    let path = out_dir().join("results.json");
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, out));
    match written {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("lineup-perf: cannot write {}: {e}", path.display()),
    }
}

fn set_correct(set: &ResultSet) -> bool {
    set.iter().all(|(_, (plain, traced))| {
        let ok = |r: &ChildResult| r.exit_ok && r.failed == 0 && r.attempted > 0;
        ok(plain) && traced.as_ref().is_none_or(ok)
    })
}

/// Runs every selected workload once and prints the table. Returns
/// whether every correctness gate held.
pub fn run_all(plan: &Plan) -> bool {
    let env = Environment::capture();
    print_header(&env, plan);
    let set = run_set(plan);
    print_set(&set);
    let ok = set_correct(&set);
    write_results(&env, plan, &[set]);
    println!(
        "{}",
        if ok {
            "all correctness gates held"
        } else {
            "CORRECTNESS GATE FAILED"
        }
    );
    ok
}

/// The acceptance procedure, kept as a command: the whole benchmark
/// twice, each time `plan.seeds` runs per workload with another seed
/// each. Fails if a metric's medians of the two sets differ by more than
/// its bound (in either direction), or — with at least two seeds per set
/// — if its spread within a set (interquartile range over median, as
/// `statistics.quantiles(values, n=4)` gives it) exceeds the bound;
/// `setup_s` is exempt from the spread rule.
pub fn selfcheck(plan: &Plan) -> bool {
    let env = Environment::capture();
    print_header(&env, plan);
    let seeds = plan.seeds.max(1);
    let mut sets: Vec<Vec<ResultSet>> = Vec::new();
    for set in 0..2 {
        sets.push(
            (0..seeds)
                .map(|i| {
                    let seed = plan.seed + (set * seeds + i) as u64;
                    eprintln!("lineup-perf: set {} seed {seed}", set + 1);
                    run_set(&Plan {
                        seed,
                        trace: false,
                        ..plan.clone()
                    })
                })
                .collect(),
        );
    }
    println!();
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "median 2", "differ", "spread 1", "spread 2", "bound"
    );
    let mut ok = sets.iter().flatten().all(set_correct);
    for name in selected(plan) {
        for m in &END_TO_END {
            let values = |set: &[ResultSet]| -> Option<Vec<f64>> {
                set.iter()
                    .map(|run| run.iter().find(|(n, _)| *n == name)?.1 .0.value(m.name))
                    .collect()
            };
            let (Some(a), Some(b)) = (values(&sets[0]), values(&sets[1])) else {
                println!("{name:<20} {:<12} missing", m.name);
                ok = false;
                continue;
            };
            let (ma, mb) = (median(&a), median(&b));
            let differ = worsening(ma, mb, m.better).max(worsening(mb, ma, m.better));
            let spreads = (seeds >= 2).then(|| (iqr_share(&a), iqr_share(&b)));
            let steady = m.name == "setup_s"
                || spreads.is_none_or(|(sa, sb)| sa <= m.bound && sb <= m.bound);
            let agree =
                within_bound(ma, mb, m.better, m.bound) && within_bound(mb, ma, m.better, m.bound);
            ok &= steady && agree;
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{:.2}%", x * 100.0));
            println!(
                "{:<20} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>5.0}% {}{}",
                name,
                m.name,
                fmt_value(ma),
                fmt_value(mb),
                pct(Some(differ)),
                pct(spreads.map(|s| s.0)),
                pct(spreads.map(|s| s.1)),
                m.bound * 100.0,
                if agree { "" } else { "MEDIANS DISAGREE " },
                if steady { "" } else { "SPREAD OUTSIDE BOUND" }
            );
        }
    }
    let all: Vec<ResultSet> = sets.into_iter().flatten().collect();
    write_results(&env, plan, &all);
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "SELFCHECK FAILED"
        }
    );
    ok
}

/// Runs each selected workload's traced pass twice with one seed and
/// fails unless every exact counter is identical.
pub fn check_counts(plan: &Plan) -> bool {
    let mut ok = true;
    for name in selected(plan) {
        eprintln!("lineup-perf: counting {name} twice ...");
        let a = run_child(plan, name, true);
        let b = run_child(plan, name, true);
        let mut differing = 0;
        for (counter, va) in &a.counters {
            let vb = b.counters.get(counter);
            if vb != Some(va) {
                println!("{name}: {counter} = {va} then {vb:?}");
                differing += 1;
            }
        }
        let complete = a.exit_ok && b.exit_ok && !a.counters.is_empty();
        println!(
            "{name:<20} {} exact counters, {differing} differ{}",
            a.counters.len(),
            if complete { "" } else { " (a run failed)" }
        );
        ok &= complete && differing == 0 && a.counters.len() == b.counters.len();
    }
    println!(
        "{}",
        if ok {
            "counts repeat exactly"
        } else {
            "COUNTS DIFFER"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_round_trips_through_the_line_format() {
        let text = "trace /x/out/trace-a.jsonl spans 12\n\
                    workload explore_full seed 7 trace 0 passes 2 load_1min 0.5\n\
                    metric wall_s 6.25 s min 6.2 max 6.3 n 2\n\
                    counter sched.runs 1092546\n\
                    failure runs: got 1, want 2\n\
                    error_share 0.25 attempted 4 failed 1\n\
                    {\"correct\": false}\n";
        let r = parse_child(text);
        assert_eq!(r.passes, 2);
        assert_eq!(r.load_1min, 0.5);
        let (wall, unit) = &r.metrics["wall_s"];
        assert_eq!(
            (wall.value, wall.min, wall.max, wall.samples),
            (6.25, 6.2, 6.3, 2)
        );
        assert_eq!(unit, "s");
        assert_eq!(r.counters["sched.runs"], 1_092_546);
        assert_eq!(r.failures, vec!["runs: got 1, want 2"]);
        assert_eq!((r.attempted, r.failed), (4, 1));
    }
}
