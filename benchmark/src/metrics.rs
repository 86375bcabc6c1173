//! The benchmark's vocabulary, declared once: workload names, end-to-end
//! metrics with their bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`]'s output (a unit test holds the
//! two together), the result printers and `--selfcheck` read the same
//! tables, and every later performance claim names entries from here.

use crate::stats::Better::{self, Higher, Lower};

/// How long one driver-protocol run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// Seed used when `--seed` is absent. (`BENCHMARK.json` has a fixed key
/// set with no room for it, so it lives here.)
pub const DEFAULT_SEED: u64 = 2010;

/// A workload: name, and the one-line reason it exists.
#[derive(Debug)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "explore_full",
        why: "unreduced exhaustive phase 2 (fixed queue, 2 threads x [Enqueue, TryPeek], POR and symmetry off): sched + harness do 3/4 of the work, all but 110 runs hit the verdict cache, witness search idle",
    },
    WorkloadInfo {
        name: "explore_reduced",
        why: "same target, 2 threads x [Enqueue, TryDequeue, TryDequeue], POR and symmetry on: same layers, but por/matrix bookkeeping per step dominates; a POR change moves this and leaves explore_full alone",
    },
    WorkloadInfo {
        name: "campaign",
        why: "the paper's Table 2 protocol on all 20 registry entries (random 3x3 test, preemption bound 2, cap 3000 runs): short explorations, blocking primitives, cache misses, witness search and phase 1 count",
    },
    WorkloadInfo {
        name: "monitor_unambiguous",
        why: "4000-op fresh-value histories of the four ADT kinds: the specialized log-linear monitor path in isolation, where op/value comparison cost shows",
    },
    WorkloadInfo {
        name: "monitor_ambiguous",
        why: "400-op duplicate-value histories that force the Wing-Gong fallback: the monitor's other path; a budget or memo change moves this and leaves monitor_unambiguous alone",
    },
    WorkloadInfo {
        name: "serve_replay",
        why: "one TCP connection replaying an 8192-op block: every window close a verdict-cache hit, so wire decode, shard append and window-key hashing are all that is left",
    },
    WorkloadInfo {
        name: "serve_distinct",
        why: "one connection interleaving four live objects, nothing repeats: every window a cache miss plus a specialized check, held windows, demux cache flipping every burst",
    },
];

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The bounds are three times the spread measured on the host this was
/// written on (a shared two-core VM whose speed drifts by ±6 % over
/// minutes; see the README): any tighter and two runs of the same code
/// disagree.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "runs_per_s",
        unit: "runs/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "bug_find_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
];

/// A metric of one layer, reported by the traced run only.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly for a given seed
    /// (`--check-counts` compares these between two runs).
    pub exact: bool,
}

const fn exact(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Lower,
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Higher,
        exact: false,
    }
}

/// Layers are this repository's modules. A metric a workload's path does
/// not reach reads 0 in that workload's traced run.
pub const PER_LAYER: [PerLayer; 66] = [
    // sched: the stateless model checker's schedule-point machinery.
    exact("sched.runs"),
    exact("sched.steps"),
    exact("sched.fast_path_steps"),
    exact("sched.handoffs"),
    timed("sched.raw_ns_per_step", "ns"),
    // por: sleep sets and happens-before bookkeeping.
    timed("por.raw_ns_per_step_delta", "ns"),
    exact("por.sleep_prunes"),
    // harness: explore_matrix = sched + run set-up/teardown + recorder.
    timed("harness.explore_s", "s"),
    timed("harness.ns_per_run", "ns"),
    timed("harness.ns_per_step", "ns"),
    // matrix: symmetry groups and canonical history keys.
    exact("matrix.symmetry_prunes"),
    timed("matrix.canonicalize_ns", "ns"),
    // history: the verdict cache.
    exact("history.distinct"),
    exact("history.cache_hits"),
    rate("history.hit_share", "ratio"),
    timed("history.probe_ns", "ns"),
    timed("history.insert_ns", "ns"),
    // witness: serial-witness search against the synthesized spec.
    exact("witness.queries"),
    timed("witness.find_ns", "ns"),
    timed("witness.index_s", "s"),
    // spec: phase 1.
    timed("spec.phase1_s", "s"),
    exact("spec.serial_histories"),
    // check: the phase-2 driver on top of the harness.
    timed("check.self_s", "s"),
    timed("check.self_ns_per_run", "ns"),
    exact("check.violations"),
    // explorer: work stealing with two workers. Informational only.
    timed("explorer.steal2_wall_s", "s"),
    rate("explorer.steal2_speedup", "ratio"),
    timed("explorer.splits", "count"),
    timed("explorer.steals", "count"),
    timed("explorer.idle_parks", "count"),
    // monitor: specialized checkers and the Wing-Gong fallback.
    rate("monitor.queue_ops_per_s", "ops/s"),
    rate("monitor.stack_ops_per_s", "ops/s"),
    rate("monitor.set_ops_per_s", "ops/s"),
    rate("monitor.pqueue_ops_per_s", "ops/s"),
    exact("monitor.checks"),
    exact("monitor.specialized_checks"),
    exact("monitor.fallback_checks"),
    timed("monitor.fallback_share", "ratio"),
    exact("monitor.fallback_unregistered"),
    exact("monitor.fallback_pending_ops"),
    exact("monitor.fallback_async_relaxation"),
    exact("monitor.fallback_unknown_op"),
    exact("monitor.fallback_duplicate_value"),
    exact("monitor.fallback_inconclusive"),
    exact("monitor.oracle_steps"),
    exact("monitor.memo_hits"),
    timed("monitor.max_check_ms", "ms"),
    // wire: frame and record decoding.
    exact("wire.records"),
    exact("wire.bytes"),
    timed("wire.decode_ns_per_record", "ns"),
    // engine: demux + shard lock around wire and shard.
    timed("engine.ingest_s", "s"),
    timed("engine.self_s", "s"),
    // shard: window append, close, key build, cache, monitor call.
    timed("shard.ns_per_op", "ns"),
    timed("shard.queue_ns_per_op", "ns"),
    timed("shard.stack_ns_per_op", "ns"),
    timed("shard.set_ns_per_op", "ns"),
    timed("shard.pqueue_ns_per_op", "ns"),
    exact("shard.windows_closed"),
    exact("shard.windows_held"),
    exact("shard.peak_window_ops"),
    exact("shard.checks"),
    exact("shard.verdict_cache_hits"),
    rate("shard.hit_share", "ratio"),
    // net: what is left of the TCP pass once in-process ingest is taken out.
    timed("net.s", "s"),
    timed("net.share", "ratio"),
    // The benchmark itself: traced against untraced end-to-end call.
    timed("trace.overhead_pct", "%"),
];

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(w.name),
            json_str(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label()),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
