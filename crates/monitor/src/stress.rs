//! Native stress testing: real threads, recorded histories, online
//! monitoring.
//!
//! Where `lineup::check` *enumerates* the schedules of a test under the
//! virtual scheduler, the stress runner executes the same test matrix on
//! real OS threads — the instrumented primitives of `lineup-sync` compile
//! down to plain `std::sync` operations in passthrough mode (see
//! `lineup_sched::register_native_thread`) — records each run's
//! call/return history with timestamps implied by recording order, and
//! checks every *distinct* history against a [`Monitor`] as it appears.
//! Seeded yield injection at the instrumented schedule points perturbs the
//! OS scheduler enough to surface races even on few cores.
//!
//! A run that does not finish within the watchdog timeout is snapshotted
//! as a *stuck* history (its unreturned calls pending) and its threads are
//! leaked — they may be deadlocked on real primitives that nothing will
//! ever signal, which is precisely the bug class the stuck check catches.
//! A generous timeout keeps merely-slow runs from being misreported; a
//! worker that panics also surfaces as a stuck run (its operation never
//! returns), which the monitor then rejects unless blocking there is
//! serially justified.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lineup::{
    AdtKind, History, HistoryCache, Invocation, ObservationSet, OpIndex, SymmetryGroups,
    TestInstance, TestMatrix, TestTarget, Value,
};
use lineup_sched::{register_native_thread, NativeOptions};
use lineup_wire::StreamRecorder;

use crate::ideal::ideal_step;
use crate::linearize::Monitor;
use crate::oracle::{SeqOracle, StepResult};

/// Configuration of a stress campaign.
#[derive(Debug, Clone)]
pub struct StressOptions {
    /// Number of test executions.
    pub runs: usize,
    /// Master seed; each run and thread derives its own yield-injection
    /// stream from it.
    pub seed: u64,
    /// Yield with probability `1/yield_chance` at every instrumented
    /// schedule point (0 disables injection). Injection is what surfaces
    /// interleavings on machines with few cores.
    pub yield_chance: u32,
    /// Watchdog: a run not finishing within this bound is recorded as
    /// stuck and its threads are leaked.
    pub run_timeout: Duration,
    /// Methods checked under the asynchronous relaxation (paper §2.4).
    pub async_methods: Vec<String>,
    /// Stop the campaign at the first monitor rejection.
    pub stop_at_first_violation: bool,
    /// Key the per-history verdict cache on the *canonical* form of each
    /// history (default `true`): runs that differ only by renaming
    /// symmetric threads (per the target's
    /// [`lineup::SymmetryPolicy`]) share one monitor verdict, so OS
    /// schedules that merely permute interchangeable threads cost no
    /// monitor work. `false` falls back to literal history keys.
    pub symmetry: bool,
    /// Collect the serial witnesses of accepted complete histories into
    /// [`StressReport::witnesses`] (an extra unpartitioned search per
    /// distinct history).
    pub collect_witnesses: bool,
    /// Stream every run as wire-format events (one object per run) —
    /// e.g. into a capture file replayable by `lineup-server --replay`,
    /// or a live socket. Events are recorded inside the same critical
    /// sections that build the in-memory history, so the stream is
    /// byte-for-byte consistent with what the in-process monitor saw,
    /// including watchdog-stuck snapshots.
    pub recorder: Option<Arc<StreamRecorder>>,
}

impl Default for StressOptions {
    fn default() -> Self {
        StressOptions {
            runs: 100,
            seed: NativeOptions::default().seed,
            yield_chance: 2,
            run_timeout: Duration::from_secs(2),
            async_methods: Vec::new(),
            stop_at_first_violation: true,
            symmetry: true,
            collect_witnesses: false,
            recorder: None,
        }
    }
}

/// Wire recording for one run: one stream object, disarmable under the
/// history lock so a watchdog snapshot and the emitted stream agree on
/// exactly which events exist.
struct RunRecorder {
    rec: Arc<StreamRecorder>,
    object: u64,
    armed: AtomicBool,
}

impl RunRecorder {
    /// Registers a fresh object and replays the (unrecorded) init
    /// sequence as serial call/return pairs on thread 0, with responses
    /// from the ideal oracle — so a consumer checking from the empty
    /// state reaches the same start state the monitor was primed with.
    /// Kind-less objects skip init emission (consumers treat them as
    /// accounting-only and never check).
    fn begin(
        rec: &Arc<StreamRecorder>,
        kind: Option<AdtKind>,
        matrix: &TestMatrix,
        threads: usize,
    ) -> RunRecorder {
        let object = rec.alloc_object();
        let _ = rec.register(object, kind, threads as u32);
        if let Some(kind) = kind {
            let step = ideal_step(kind);
            let mut state: Vec<i64> = Vec::new();
            for inv in &matrix.init {
                let _ = rec.call(object, 0, &inv.name, &inv.args);
                let response = match step(&state, inv) {
                    StepResult::Returns(v, next) => {
                        state = next;
                        v
                    }
                    // Init that the ideal spec rejects cannot be given a
                    // faithful response; the consumer's check will flag
                    // the mismatch rather than us guessing here.
                    _ => Value::Fail,
                };
                let _ = rec.ret(object, 0, &response);
            }
        }
        RunRecorder {
            rec: Arc::clone(rec),
            object,
            armed: AtomicBool::new(true),
        }
    }

    /// Call-site hook; must run inside the history-lock critical section
    /// so stream order matches history order.
    fn call(&self, thread: usize, inv: &Invocation) {
        if self.armed.load(Ordering::Relaxed) {
            let _ = self
                .rec
                .call(self.object, thread as u32, &inv.name, &inv.args);
        }
    }

    /// Return-site hook; same locking requirement as [`Self::call`].
    fn ret(&self, thread: usize, response: &Value) {
        if self.armed.load(Ordering::Relaxed) {
            let _ = self.rec.ret(self.object, thread as u32, response);
        }
    }

    /// Stops recording; called under the history lock right before a
    /// watchdog snapshot so leaked threads cannot append events the
    /// snapshot does not contain.
    fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    fn finish(&self, stuck: bool) {
        self.disarm();
        let _ = self.rec.end(self.object, stuck);
    }
}

/// A monitor rejection observed during stress testing.
#[derive(Debug, Clone)]
pub struct StressViolation {
    /// Index of the first run exhibiting the history.
    pub run: usize,
    /// The rejected history.
    pub history: History,
    /// For stuck histories, the pending operation that has no stuck
    /// witness; `None` for complete histories.
    pub pending: Option<OpIndex>,
}

/// The outcome of a stress campaign.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Runs executed (may be fewer than requested when stopping early).
    pub runs: usize,
    /// Operations completed across all runs.
    pub ops: u64,
    /// Distinct histories observed (each checked once).
    pub distinct_histories: usize,
    /// Runs snapshotted as stuck by the watchdog.
    pub stuck_runs: usize,
    /// Monitor checks performed (distinct complete histories plus one per
    /// pending operation of distinct stuck histories).
    pub monitor_checks: u64,
    /// Runs whose history was already checked (verdict served from the
    /// canonically-keyed [`HistoryCache`] — no monitor work done),
    /// counting both literal repeats and symmetric renamings of checked
    /// histories. `runs` = `distinct_histories + history_cache_hits` when
    /// no run is cut off early, so throughput derived from
    /// `monitor_checks` measures fresh monitor work only.
    pub history_cache_hits: u64,
    /// The monitor's own counters accumulated over this campaign (oracle
    /// steps, memo hits, specialized-vs-fallback paths).
    pub monitor_stats: crate::linearize::MonitorStats,
    /// The rejections, in order of first occurrence.
    pub violations: Vec<StressViolation>,
    /// Serial witnesses of accepted complete histories (empty unless
    /// [`StressOptions::collect_witnesses`]).
    pub witnesses: ObservationSet,
}

impl StressReport {
    /// Whether every observed history was accepted by the monitor.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// SplitMix64: derives independent per-run / per-thread seed streams.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Locks ignoring poisoning: a panicked worker must not take the history
/// down with it — its half-recorded run is still a (stuck) observation.
fn lock_history(h: &Mutex<History>) -> MutexGuard<'_, History> {
    h.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `matrix` against `target` on real OS threads `options.runs` times,
/// checking every distinct recorded history against `monitor`.
///
/// The history shape matches the model checker's: columns record on thread
/// indexes `0..columns`, the final sequence (if any) on thread index
/// `columns`, init operations are unrecorded. Verdicts are memoized in a
/// [`HistoryCache`] keyed on each history's canonical form, so the
/// monitor runs once per *distinct* history — up to renaming symmetric
/// threads — no matter how often the OS scheduler reproduces one.
pub fn run_stress<T, O>(
    target: &T,
    matrix: &TestMatrix,
    monitor: &Monitor<O>,
    options: &StressOptions,
) -> StressReport
where
    T: TestTarget,
    T::Instance: Send + Sync + 'static,
    O: SeqOracle,
{
    let ncols = matrix.columns.len();
    let thread_count = ncols + usize::from(!matrix.finally.is_empty());
    let stats_before = monitor.stats();
    let groups = if options.symmetry {
        matrix.symmetry_groups(target.symmetry_policy())
    } else {
        SymmetryGroups::default()
    };
    let verdicts: HistoryCache<bool> = HistoryCache::new(1);
    let mut keys = verdicts.writer();
    let mut report = StressReport {
        runs: 0,
        ops: 0,
        distinct_histories: 0,
        stuck_runs: 0,
        monitor_checks: 0,
        history_cache_hits: 0,
        monitor_stats: Default::default(),
        violations: Vec::new(),
        witnesses: ObservationSet::new(),
    };

    let adt_kind = monitor.adt_kind();
    for run in 0..options.runs {
        let run_seed = mix(options.seed, run as u64 + 1);
        let history = execute_run(target, matrix, thread_count, run_seed, options, adt_kind);
        report.runs += 1;
        report.ops += history.complete_ops().len() as u64;
        if history.stuck {
            report.stuck_runs += 1;
        }

        // Check each distinct (canonical) history once.
        let key = groups.key(&history, &mut keys);
        if verdicts.get_key(&key).is_some() {
            report.history_cache_hits += 1;
            keys.recycle(key);
        } else {
            report.distinct_histories += 1;
            let ok = if history.is_complete() {
                report.monitor_checks += 1;
                let ok = monitor.check_full(&history, &options.async_methods);
                if ok && options.collect_witnesses {
                    if let Some(s) = monitor.find_linearization(&history, &options.async_methods) {
                        report.witnesses.insert(s);
                    }
                }
                if !ok {
                    report.violations.push(StressViolation {
                        run,
                        history: history.clone(),
                        pending: None,
                    });
                }
                ok
            } else {
                let mut ok = true;
                for e in history.pending_ops() {
                    report.monitor_checks += 1;
                    if !monitor.check_stuck(&history, e, &options.async_methods) {
                        report.violations.push(StressViolation {
                            run,
                            history: history.clone(),
                            pending: Some(e),
                        });
                        ok = false;
                        break;
                    }
                }
                ok
            };
            verdicts.insert_key_if_absent(key, ok);
            if !ok && options.stop_at_first_violation {
                break;
            }
        }
    }
    report.monitor_stats = monitor.stats().diff_since(&stats_before);
    report
}

/// One native execution of the matrix; returns the recorded history
/// (stuck when the watchdog fired).
fn execute_run<T>(
    target: &T,
    matrix: &TestMatrix,
    thread_count: usize,
    run_seed: u64,
    options: &StressOptions,
    adt_kind: Option<AdtKind>,
) -> History
where
    T: TestTarget,
    T::Instance: Send + Sync + 'static,
{
    let ncols = matrix.columns.len();
    let wire: Option<Arc<RunRecorder>> = options
        .recorder
        .as_ref()
        .map(|rec| Arc::new(RunRecorder::begin(rec, adt_kind, matrix, thread_count)));
    // The coordinator registers too: init and final operations then run
    // with the same passthrough blocking/yield machinery as column ops.
    let guard = register_native_thread(NativeOptions {
        seed: mix(run_seed, 0),
        yield_chance: options.yield_chance,
    });
    let instance = Arc::new(target.create());
    for inv in &matrix.init {
        // State preparation, unrecorded (mirrors the model harness).
        let _ = instance.invoke(inv);
    }

    let history = Arc::new(Mutex::new(History::new(thread_count)));
    // +1: the coordinator joins the barrier so no column starts before all
    // workers (and the watchdog clock) are in place.
    let barrier = Arc::new(Barrier::new(ncols + 1));
    let (tx, rx) = channel::<usize>();

    let handles: Vec<_> = matrix
        .columns
        .iter()
        .enumerate()
        .map(|(t, column)| {
            let instance = Arc::clone(&instance);
            let history = Arc::clone(&history);
            let barrier = Arc::clone(&barrier);
            let column = column.clone();
            let tx = tx.clone();
            let seed = mix(run_seed, t as u64 + 1);
            let yield_chance = options.yield_chance;
            let wire = wire.clone();
            std::thread::spawn(move || {
                let _native = register_native_thread(NativeOptions { seed, yield_chance });
                barrier.wait();
                for inv in column {
                    let op = {
                        let mut h = lock_history(&history);
                        let op = h.push_call(t, inv.clone());
                        if let Some(w) = &wire {
                            w.call(t, &inv);
                        }
                        op
                    };
                    let response = instance.invoke(&inv);
                    let mut h = lock_history(&history);
                    if let Some(w) = &wire {
                        w.ret(t, &response);
                    }
                    h.push_return(op, response);
                }
                let _ = tx.send(t);
            })
        })
        .collect();
    drop(tx);
    barrier.wait();

    // Watchdog: wait for all columns, or give up and snapshot.
    let deadline = Instant::now() + options.run_timeout;
    let mut done = 0;
    let mut timed_out = false;
    while done < ncols {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(_) => done += 1,
            // Disconnected means a worker died without reporting (a panic
            // inside an operation): treat like a timeout — its operation
            // is pending forever.
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                timed_out = true;
                break;
            }
        }
    }

    if timed_out {
        // Leak the hung threads: they may be blocked on real primitives
        // that nothing will ever signal. The snapshot is consistent (the
        // history mutex orders record events), later writes by leaked
        // threads go to an Arc we no longer read. Disarming the wire
        // recorder inside the same critical section pins the emitted
        // stream to exactly the snapshot's events.
        drop(handles);
        let mut snapshot = {
            let h = lock_history(&history);
            if let Some(w) = &wire {
                w.disarm();
            }
            h.clone()
        };
        snapshot.stuck = true;
        if let Some(w) = &wire {
            w.finish(true);
        }
        return snapshot;
    }
    for h in handles {
        let _ = h.join();
    }
    // Final sequence: a dedicated observer thread index, totally ordered
    // after all columns (paper §4.3) — here simply run by the coordinator.
    if !matrix.finally.is_empty() {
        let t = ncols;
        for inv in &matrix.finally {
            let op = {
                let mut h = lock_history(&history);
                let op = h.push_call(t, inv.clone());
                if let Some(w) = &wire {
                    w.call(t, inv);
                }
                op
            };
            let response = instance.invoke(inv);
            let mut h = lock_history(&history);
            if let Some(w) = &wire {
                w.ret(t, &response);
            }
            h.push_return(op, response);
        }
    }
    drop(guard);
    if let Some(w) = &wire {
        w.finish(false);
    }
    let h = lock_history(&history).clone();
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FnOracle, ReplayOracle, StepResult};
    use lineup::doc_support::{BuggyCounterTarget, CounterTarget};
    use lineup::{Invocation, Value};

    fn counter_monitor() -> Monitor<ReplayOracle> {
        Monitor::new(ReplayOracle::new(Arc::new(CounterTarget), Vec::new()))
    }

    fn counter_matrix() -> TestMatrix {
        TestMatrix::from_columns(vec![
            vec![Invocation::new("inc")],
            vec![Invocation::new("inc"), Invocation::new("get")],
        ])
        .with_finally(vec![Invocation::new("get")])
    }

    #[test]
    fn correct_counter_stress_is_green() {
        let m = counter_matrix();
        let monitor = counter_monitor();
        let report = run_stress(
            &CounterTarget,
            &m,
            &monitor,
            &StressOptions {
                runs: 50,
                ..StressOptions::default()
            },
        );
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.runs, 50);
        assert_eq!(report.stuck_runs, 0);
        assert!(report.ops >= 50 * 4);
        assert!(report.distinct_histories >= 1);
        // Cache accounting: every run is either a fresh history or a hit.
        assert_eq!(
            report.distinct_histories + report.history_cache_hits as usize,
            report.runs
        );
        assert_eq!(report.monitor_stats.checks, report.monitor_checks);
        // No ADT annotation: every check is a fallback.
        assert_eq!(report.monitor_stats.paths.specialized_checks, 0);
        assert_eq!(
            report.monitor_stats.paths.fallback_checks,
            report.monitor_checks
        );
    }

    #[test]
    fn buggy_counter_is_detected() {
        // The §2.2.1 lost update: two split read-modify-write incs can
        // both read 0; the final get then sees 1, which no serial order
        // explains. Yield injection makes the window likely.
        let m = TestMatrix::from_columns(vec![
            vec![Invocation::new("inc")],
            vec![Invocation::new("inc")],
        ])
        .with_finally(vec![Invocation::new("get")]);
        let monitor = Monitor::new(ReplayOracle::new(Arc::new(BuggyCounterTarget), Vec::new()));
        let report = run_stress(
            &BuggyCounterTarget,
            &m,
            &monitor,
            &StressOptions {
                runs: 5000,
                yield_chance: 2,
                ..StressOptions::default()
            },
        );
        assert!(
            !report.passed(),
            "expected the lost update within {} runs ({} distinct histories)",
            report.runs,
            report.distinct_histories
        );
        let v = &report.violations[0];
        assert!(v.pending.is_none(), "complete-history violation");
        assert!(v.history.is_complete());
    }

    #[test]
    fn witnesses_are_collected() {
        let m = counter_matrix();
        let monitor = counter_monitor();
        let report = run_stress(
            &CounterTarget,
            &m,
            &monitor,
            &StressOptions {
                runs: 20,
                collect_witnesses: true,
                ..StressOptions::default()
            },
        );
        assert!(report.passed());
        assert!(!report.witnesses.is_empty());
        for s in report.witnesses.iter() {
            assert!(!s.is_stuck());
            assert_eq!(s.ops.len(), 4);
        }
    }

    /// A target whose `wait` blocks forever: every run trips the watchdog
    /// and must be *accepted*, because waiting is serially justified.
    #[derive(Debug)]
    struct ForeverTarget;

    #[derive(Debug)]
    struct ForeverInstance {
        event: lineup_sync::Monitor,
    }

    impl lineup::TestInstance for ForeverInstance {
        fn invoke(&self, inv: &Invocation) -> Value {
            match inv.name.as_str() {
                "wait" => {
                    self.event.enter();
                    // No one ever pulses: blocks forever.
                    self.event.wait();
                    self.event.exit();
                    Value::Unit
                }
                other => panic!("unknown operation {other}"),
            }
        }
    }

    impl TestTarget for ForeverTarget {
        type Instance = ForeverInstance;
        fn name(&self) -> &str {
            "Forever"
        }
        fn create(&self) -> ForeverInstance {
            ForeverInstance {
                event: lineup_sync::Monitor::new(),
            }
        }
        fn invocations(&self) -> Vec<Invocation> {
            vec![Invocation::new("wait")]
        }
    }

    #[test]
    fn recorder_streams_every_run() {
        use std::io::Write;

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let rec = Arc::new(StreamRecorder::to_writer(Box::new(Shared(Arc::clone(&buf)))).unwrap());
        let m = counter_matrix();
        let monitor = counter_monitor();
        let report = run_stress(
            &CounterTarget,
            &m,
            &monitor,
            &StressOptions {
                runs: 5,
                recorder: Some(Arc::clone(&rec)),
                ..StressOptions::default()
            },
        );
        assert!(report.passed());
        rec.flush().unwrap();
        // Every completed op produced a call + return event.
        assert_eq!(rec.events(), 2 * report.ops);

        // The emitted bytes parse as one valid stream: 5 registered
        // objects, each register → events → end, properly bracketed.
        let bytes = buf.lock().unwrap().clone();
        let mut reader = lineup_wire::FrameReader::new(&bytes[..]);
        assert_eq!(reader.expect_hello().unwrap(), lineup_wire::VERSION);
        let mut registered = 0;
        let mut ended = 0;
        let mut open: Option<u64> = None;
        while let Some(record) = reader.next_record().unwrap() {
            match record {
                lineup_wire::Record::ObjectRegister { object, kind, .. } => {
                    assert_eq!(kind, None, "counter target has no ADT kind");
                    assert!(open.is_none());
                    open = Some(object);
                    registered += 1;
                }
                lineup_wire::Record::Call { object, .. }
                | lineup_wire::Record::Return { object, .. } => {
                    assert_eq!(Some(object), open);
                }
                lineup_wire::Record::ObjectEnd { object, stuck } => {
                    assert_eq!(Some(object), open.take());
                    assert!(!stuck);
                    ended += 1;
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
        assert_eq!(registered, 5);
        assert_eq!(ended, 5);
    }

    #[test]
    fn justified_blocking_is_stuck_but_green() {
        let m = TestMatrix::from_columns(vec![vec![Invocation::new("wait")]]);
        // Oracle agrees that wait blocks from the initial state.
        let monitor = Monitor::new(FnOracle::new(0u8, |_: &u8, inv: &Invocation| {
            match inv.name.as_str() {
                "wait" => StepResult::Blocks,
                other => StepResult::Panics(format!("unknown {other}")),
            }
        }));
        let report = run_stress(
            &ForeverTarget,
            &m,
            &monitor,
            &StressOptions {
                runs: 2,
                run_timeout: Duration::from_millis(100),
                ..StressOptions::default()
            },
        );
        assert_eq!(report.stuck_runs, 2);
        assert!(
            report.passed(),
            "blocking is justified: {:?}",
            report.violations
        );
    }
}
