//! `serve_replay` and `serve_distinct`: `Server::spawn` plus one loopback
//! TCP connection writing pre-encoded bytes, timed from connect until
//! every object is retired.
//!
//! `serve_replay` replays one 8,192-op serial queue block: eight distinct
//! windows, every later close a verdict-cache hit, so the monitor is off
//! the path and wire decode, shard append and window-key hashing are all
//! that is left. `serve_distinct` interleaves four live objects, one per
//! ADT kind, in 32-event bursts and nothing repeats: every window is a
//! cache miss, an insert and a specialized check, quiescence is rare so
//! windows are held, and the demux's last-shard cache flips every burst.
//! A change that speeds cache hits at the cost of misses, or closes at
//! the cost of holds, shows in the second and not the first.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lineup::{AdtKind, Event, History, HistoryCache, Invocation, Value};
use lineup_bench::histories::{unambiguous_history, violating_history};
use lineup_monitor::{ideal_oracle, Monitor};
use lineup_server::{
    ingest_stream, Engine, EngineConfig, Server, ServerConfig, Shard, ShardConfig, StatsSnapshot,
};
use lineup_wire::{encode_record, FrameReader, Record, VERSION};

use super::{Gates, Layers, Pass, Size, Workload};
use crate::gen;
use crate::trace::{SpanId, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Replay,
    Distinct,
}

const WINDOW_TARGET: usize = 1024;
/// Events one object contributes before the stream turns to the next.
const BURST_EVENTS: usize = 32;
/// Operations in the replayed block (servebench's block).
const BLOCK_OPS: usize = 8192;
/// Shape seed of the distinct objects' histories; a constant, not
/// `--seed` (see `gen`). The seed shifts the values.
const SHAPE_SEED: u64 = 0x5E47_0000;
const BUG_SAMPLES: usize = 25;
/// How long to wait for the server to retire what was sent.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);
/// Size of the service's own read buffer (`lineup_server::net`).
const READ_BUF: usize = 1 << 16;

/// A pre-encoded stream as `(bytes, times to send them)` segments, so a
/// replayed block is held once.
type Segments = Vec<(Vec<u8>, usize)>;

/// Reads segments back in memory, the way the socket would deliver them.
struct SegmentReader<'a> {
    segments: &'a [(Vec<u8>, usize)],
    segment: usize,
    repeat: usize,
    offset: usize,
}

impl<'a> SegmentReader<'a> {
    fn new(segments: &'a [(Vec<u8>, usize)]) -> Self {
        SegmentReader {
            segments,
            segment: 0,
            repeat: 0,
            offset: 0,
        }
    }
}

impl Read for SegmentReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while let Some((bytes, times)) = self.segments.get(self.segment) {
            if self.repeat >= *times {
                self.segment += 1;
                self.repeat = 0;
                continue;
            }
            let rest = &bytes[self.offset..];
            if rest.is_empty() {
                self.repeat += 1;
                self.offset = 0;
                continue;
            }
            let n = rest.len().min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.offset += n;
            return Ok(n);
        }
        Ok(0)
    }
}

/// What the generator makes of one object: its kind and full history.
struct ObjectPlan {
    object: u64,
    kind: AdtKind,
    history: History,
}

fn encode_events(plan: &ObjectPlan, events: &[Event], out: &mut Vec<u8>) {
    let h = &plan.history;
    for ev in events {
        match *ev {
            Event::Call(i) => encode_record(
                &Record::Call {
                    object: plan.object,
                    thread: h.ops[i].thread as u32,
                    ts: 0,
                    name: &h.ops[i].invocation.name,
                    args: h.ops[i].invocation.args.clone(),
                },
                out,
            ),
            Event::Return(i) => encode_record(
                &Record::Return {
                    object: plan.object,
                    thread: h.ops[i].thread as u32,
                    ts: 0,
                    value: h.ops[i].response.clone().expect("returned op"),
                },
                out,
            ),
        }
    }
}

/// Encodes objects that are live together: registers, their events
/// interleaved in bursts, ends.
fn encode_interleaved(plans: &[ObjectPlan], out: &mut Vec<u8>) {
    for plan in plans {
        let register = Record::ObjectRegister {
            object: plan.object,
            kind: Some(plan.kind),
            threads: plan.history.thread_count as u32,
        };
        encode_record(&register, out);
    }
    let mut cursors = vec![0usize; plans.len()];
    loop {
        let mut progressed = false;
        for (plan, cursor) in plans.iter().zip(&mut cursors) {
            let events = &plan.history.events;
            let end = (*cursor + BURST_EVENTS).min(events.len());
            if end > *cursor {
                encode_events(plan, &events[*cursor..end], out);
                *cursor = end;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for plan in plans {
        let end = Record::ObjectEnd {
            object: plan.object,
            stuck: false,
        };
        encode_record(&end, out);
    }
}

/// The replayed block's history: `ops` alternating `Enqueue(v)` /
/// `TryDequeue -> Some(v)` on one thread, values distinct, queue empty
/// at the end, so every window is closable. With `violate = Some(n)` the
/// last dequeue returns the never-enqueued value `pairs + n`.
fn serial_queue_history(ops: usize, shift: i64, violate: Option<i64>) -> History {
    let mut h = History::new(1);
    let pairs = (ops / 2) as i64;
    for v in 0..pairs {
        let op = h.push_call(0, Invocation::with_int("Enqueue", shift + v));
        h.push_return(op, Value::Unit);
        let op = h.push_call(0, Invocation::new("TryDequeue"));
        let out = match violate {
            Some(n) if v + 1 == pairs => pairs + n,
            _ => v,
        };
        h.push_return(op, Value::some(Value::int(shift + out)));
    }
    h
}

struct Input {
    segments: Segments,
    objects: u64,
    ops: u64,
}

/// The seeded-defect service: one server and connection kept across
/// samples, fed one violating object group per sample.
struct BugServer {
    server: Server,
    engine: Arc<Engine>,
    stream: TcpStream,
    samples: u64,
    sent_objects: u64,
}

pub struct Serve {
    variant: Variant,
    seed: u64,
    size: Size,
    input: Option<Input>,
    bug: Option<BugServer>,
    /// The final snapshot of the last traced pass.
    last: Option<StatsSnapshot>,
}

fn hello_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(&Record::Hello { version: VERSION }, &mut out);
    out
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shard: ShardConfig {
            window_target: WINDOW_TARGET,
        },
    }
}

fn spawn_server() -> (Server, Arc<Engine>) {
    let server = Server::spawn(ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        engine: engine_config(),
        ..ServerConfig::default()
    })
    .expect("bind a loopback listener");
    let engine = Arc::clone(server.engine());
    (server, engine)
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.tcp_addr().expect("tcp address")).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Polls until the engine has retired `objects` objects.
fn wait_retired(engine: &Engine, objects: u64, poll: Duration) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while engine.snapshot().objects_finished < objects {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(poll);
    }
    true
}

fn offline_monitor(kind: AdtKind) -> Monitor<impl lineup_monitor::SeqOracle> {
    Monitor::new(ideal_oracle(kind)).with_adt_kind(kind)
}

/// The service counters that must repeat exactly for a given seed.
fn exact_counters(snap: &StatsSnapshot) -> BTreeMap<&'static str, u64> {
    let c = &snap.counters;
    let mut out = super::monitor::exact_counters(c.checks, &c.paths, c.oracle_steps, c.memo_hits);
    out.extend([
        ("shard.windows_closed", c.windows_closed),
        ("shard.windows_held", c.windows_held),
        ("shard.peak_window_ops", c.peak_window_ops as u64),
        ("shard.checks", c.checks),
        ("shard.verdict_cache_hits", c.verdict_cache_hits),
    ]);
    out
}

/// The end-to-end call: connect, write everything, wait until every
/// object is retired. Returns the final snapshot and the wall time.
fn tcp_pass(segments: &[(Vec<u8>, usize)], objects: u64) -> (StatsSnapshot, f64) {
    let (server, engine) = spawn_server();
    let t0 = Instant::now();
    let mut stream = connect(&server);
    for (bytes, times) in segments {
        for _ in 0..*times {
            stream.write_all(bytes).expect("write to the service");
        }
    }
    let drained = wait_retired(&engine, objects, Duration::from_millis(1));
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(drained, "the service did not retire {objects} objects");
    drop(stream);
    engine.request_shutdown();
    server.join();
    (engine.snapshot(), wall_s)
}

impl Serve {
    pub fn new(variant: Variant, seed: u64, size: Size) -> Self {
        Serve {
            variant,
            seed,
            size,
            input: None,
            bug: None,
            last: None,
        }
    }

    fn input(&self) -> &Input {
        self.input.as_ref().expect("setup ran")
    }

    /// Blocks replayed (`serve_replay`).
    fn blocks(&self) -> usize {
        match self.size {
            Size::Full => 150,
            Size::Smoke => 8,
        }
    }

    /// Rounds of four objects, and operations per object
    /// (`serve_distinct`).
    fn rounds_and_ops(&self) -> (usize, usize) {
        match self.size {
            Size::Full => (1, 100_000),
            Size::Smoke => (1, 5_000),
        }
    }

    /// The four objects of a round of `serve_distinct`, regenerated on
    /// demand: 24 full histories do not fit in memory comfortably.
    fn round_plans(&self, round: usize) -> Vec<ObjectPlan> {
        let (_, ops) = self.rounds_and_ops();
        let shift = gen::value_shift(self.seed);
        AdtKind::ALL
            .into_iter()
            .enumerate()
            .map(|(k, kind)| {
                let index = (round * AdtKind::ALL.len() + k) as u64;
                ObjectPlan {
                    object: index + 1,
                    kind,
                    history: gen::shift_history(
                        unambiguous_history(kind, ops, SHAPE_SEED + index),
                        shift,
                    ),
                }
            })
            .collect()
    }

    fn block_plan(&self) -> ObjectPlan {
        ObjectPlan {
            object: 1,
            kind: AdtKind::Queue,
            history: serial_queue_history(BLOCK_OPS, gen::value_shift(self.seed), None),
        }
    }

    /// The seeded defect of sample `n`, never seen by the service before.
    /// `serve_replay`: the block with its last dequeue returning a value
    /// that was never enqueued — the earlier windows repeat, the
    /// convicting one is new. `serve_distinct`: one violating history per
    /// kind, all values moved by `n`, so every window is new.
    fn violating_plans(&self, n: i64) -> Vec<ObjectPlan> {
        let shift = gen::value_shift(self.seed);
        let ops = match (self.variant, self.size) {
            (Variant::Replay, Size::Full) => BLOCK_OPS,
            (Variant::Replay, Size::Smoke) => BLOCK_OPS / 8,
            (Variant::Distinct, Size::Full) => 5_000,
            (Variant::Distinct, Size::Smoke) => 1_000,
        };
        match self.variant {
            Variant::Replay => vec![ObjectPlan {
                object: 1,
                kind: AdtKind::Queue,
                history: serial_queue_history(ops, shift, Some(n)),
            }],
            Variant::Distinct => AdtKind::ALL
                .into_iter()
                .enumerate()
                .map(|(k, kind)| ObjectPlan {
                    object: k as u64 + 1,
                    kind,
                    history: gen::shift_history(
                        violating_history(kind, ops, SHAPE_SEED + 500 + k as u64),
                        shift + n,
                    ),
                })
                .collect(),
        }
    }

    fn build(&mut self) {
        let mut segments: Segments = vec![(hello_bytes(), 1)];
        let (objects, ops);
        match self.variant {
            Variant::Replay => {
                let mut block = Vec::new();
                encode_interleaved(&[self.block_plan()], &mut block);
                segments.push((block, self.blocks()));
                objects = self.blocks() as u64;
                ops = objects * BLOCK_OPS as u64;
            }
            Variant::Distinct => {
                let (rounds, per_object) = self.rounds_and_ops();
                for round in 0..rounds {
                    let mut bytes = Vec::new();
                    let plans = self.round_plans(round);
                    encode_interleaved(&plans, &mut bytes);
                    segments.push((bytes, 1));
                }
                objects = (rounds * AdtKind::ALL.len()) as u64;
                ops = objects * per_object as u64;
            }
        }
        self.input = Some(Input {
            segments,
            objects,
            ops,
        });
    }

    fn checked_pass(&self, gates: &mut Gates) -> (StatsSnapshot, f64) {
        let input = self.input();
        let (snap, wall_s) = tcp_pass(&input.segments, input.objects);
        gate_snapshot(gates, &snap, input);
        (snap, wall_s)
    }

    fn shutdown_bug_server(&mut self) {
        if let Some(bug) = self.bug.take() {
            drop(bug.stream);
            bug.engine.request_shutdown();
            bug.server.join();
        }
    }
}

/// The service's known answers after a drained stream.
fn gate_snapshot(gates: &mut Gates, snap: &StatsSnapshot, input: &Input) {
    gates.expect_eq("violations", snap.counters.violations, 0);
    gates.expect_eq("protocol errors", snap.protocol_errors, 0);
    gates.expect_eq("objects finished", snap.objects_finished, input.objects);
    gates.expect_eq("buffered ops after drain", snap.buffered_ops, 0);
    gates.expect_eq("ops decided", snap.counters.ops, input.ops);
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.shutdown_bug_server();
    }
}

impl Workload for Serve {
    fn setup(&mut self) {
        self.build();
        // Warm-up: four replayed blocks (under a tenth of either pass)
        // through a server of their own.
        let mut block = Vec::new();
        encode_interleaved(&[self.block_plan()], &mut block);
        let _ = tcp_pass(&[(hello_bytes(), 1), (block, 4)], 4);
    }

    fn pass(&mut self, gates: &mut Gates) -> Pass {
        let (snap, wall_s) = self.checked_pass(gates);
        Pass {
            wall_s,
            runs: snap.objects_finished as f64,
            ops_per_s: snap.counters.ops as f64 / wall_s,
            counters: exact_counters(&snap),
        }
    }

    fn bug_samples(&self) -> usize {
        BUG_SAMPLES
    }

    fn bug_find(&mut self, gates: &mut Gates) -> f64 {
        if self.bug.is_none() {
            let (server, engine) = spawn_server();
            let mut stream = connect(&server);
            stream.write_all(&hello_bytes()).expect("write hello");
            self.bug = Some(BugServer {
                server,
                engine,
                stream,
                samples: 0,
                sent_objects: 0,
            });
        }
        let sample = self.bug.as_ref().expect("just made").samples;
        let plans = self.violating_plans(sample as i64);
        let mut bytes = Vec::new();
        encode_interleaved(&plans, &mut bytes);
        let bug = self.bug.as_mut().expect("just made");
        bug.samples += 1;
        bug.sent_objects += plans.len() as u64;
        let t0 = Instant::now();
        bug.stream.write_all(&bytes).expect("write to the service");
        let retired = wait_retired(&bug.engine, bug.sent_objects, Duration::from_micros(50));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let snap = bug.engine.snapshot();
        gates.expect(retired, || "violating objects were not retired".to_string());
        gates.expect_eq(
            "violating objects flagged",
            snap.counters.violations,
            bug.sent_objects,
        );
        ms
    }

    fn verify(&mut self, gates: &mut Gates) {
        self.shutdown_bug_server();
        // Every shard said "linearizable" (zero violations, gated in the
        // pass); one offline check of the whole object history must agree.
        // Only queue and set objects: their specialized checkers are
        // complete on unambiguous histories. A stack or priority-queue
        // history whose greedy accept is inconclusive falls back to
        // Wing–Gong, which on 100,000 operations exhausts memory; those
        // objects rest on their by-construction answer.
        let mut check = |plan: &ObjectPlan| {
            if matches!(plan.kind, AdtKind::Queue | AdtKind::Set) {
                gates.expect(
                    offline_monitor(plan.kind).check_full(&plan.history, &[]),
                    || format!("offline monitor rejects object {}", plan.object),
                );
            }
        };
        match self.variant {
            Variant::Replay => check(&self.block_plan()),
            Variant::Distinct => {
                for round in 0..self.rounds_and_ops().0 {
                    self.round_plans(round).iter().for_each(&mut check);
                }
            }
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, root: SpanId, gates: &mut Gates) -> f64 {
        let id = tracer.begin("serve.tcp_pass", Some(root));
        let (snap, _) = self.checked_pass(gates);
        self.last = Some(snap);
        tracer.end(id)
    }

    fn probe_layers(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        gates: &mut Gates,
        wall_s: f64,
    ) -> Layers {
        let snap = self.last.as_ref().expect("a traced pass ran");
        let input = self.input();
        let mut layers: Layers = exact_counters(snap)
            .into_iter()
            .map(|(k, v)| (k, v as f64))
            .collect();

        // wire: the service's own reader stack over the bytes in memory.
        let reader = || BufReader::with_capacity(READ_BUF, SegmentReader::new(&input.segments));
        let (records, decode_s) = tracer.time("wire.next_record", Some(root), || {
            let mut frames = FrameReader::new(reader());
            frames.expect_hello().expect("own hello decodes");
            let mut records = 1u64;
            while let Some(record) = frames.next_record().expect("own encoding decodes") {
                std::hint::black_box(&record);
                records += 1;
            }
            records
        });
        let bytes: usize = input.segments.iter().map(|(b, n)| b.len() * n).sum();
        layers.insert("wire.records", records as f64);
        layers.insert("wire.bytes", bytes as f64);
        layers.insert("wire.decode_ns_per_record", decode_s * 1e9 / records as f64);

        // engine: decode + demux + lock + shard, no socket.
        let engine = Engine::new(engine_config());
        let (result, ingest_s) = tracer.time("engine.ingest_stream", Some(root), || {
            ingest_stream(&engine, reader())
        });
        result.expect("own encoding ingests");
        gate_snapshot(gates, &engine.snapshot(), input);

        // shard: call/ret/end with already-decoded values.
        let shard = self.probe_shards(tracer, root, gates);
        let shard_s: f64 = shard.seconds.iter().sum();
        let ops: f64 = shard.ops.iter().sum();
        layers.insert("shard.ns_per_op", shard_s * 1e9 / ops);
        for (k, name) in [
            "shard.queue_ns_per_op",
            "shard.stack_ns_per_op",
            "shard.set_ns_per_op",
            "shard.pqueue_ns_per_op",
        ]
        .into_iter()
        .enumerate()
        {
            if shard.ops[k] > 0.0 {
                layers.insert(name, shard.seconds[k] * 1e9 / shard.ops[k]);
            }
        }
        let c = &snap.counters;
        layers.insert(
            "shard.hit_share",
            c.verdict_cache_hits as f64 / c.windows_closed.max(1) as f64,
        );
        layers.insert(
            "monitor.fallback_share",
            c.paths.fallback_checks as f64 / c.paths.total_checks().max(1) as f64,
        );
        layers.insert("engine.ingest_s", ingest_s);
        layers.insert("engine.self_s", ingest_s - decode_s - shard_s);
        layers.insert("net.s", wall_s - ingest_s);
        layers.insert("net.share", (wall_s - ingest_s) / wall_s);
        layers
    }
}

/// Seconds and operations per kind (`AdtKind::ALL` order) of driving
/// shards directly.
struct ShardProbe {
    seconds: [f64; 4],
    ops: [f64; 4],
}

impl Serve {
    /// Drives `Shard::call` / `ret` / `end` with the values the decoder
    /// would hand over, every shard sharing one verdict cache as under an
    /// engine. Histories are consumed, so the timed loop clones nothing.
    fn probe_shards(&self, tracer: &mut Tracer, root: SpanId, gates: &mut Gates) -> ShardProbe {
        let cache = Arc::new(HistoryCache::new(HistoryCache::<bool>::DEFAULT_SHARDS));
        let config = engine_config().shard;
        let mut probe = ShardProbe {
            seconds: [0.0; 4],
            ops: [0.0; 4],
        };
        let mut violations = 0u64;
        let mut drive = |plan: ObjectPlan| {
            let k = AdtKind::ALL
                .iter()
                .position(|&kind| kind == plan.kind)
                .expect("a known kind");
            let mut h = plan.history;
            probe.ops[k] += h.ops.len() as f64;
            // Names are dropped after the clock stops.
            let mut names: Vec<String> = Vec::with_capacity(h.ops.len());
            let mut shard = Shard::new(Some(plan.kind), h.thread_count as u32, &config)
                .with_verdict_cache(Arc::clone(&cache));
            let id = tracer.begin("shard.call_ret_end", Some(root));
            for ev in std::mem::take(&mut h.events) {
                match ev {
                    Event::Call(i) => {
                        let op = &mut h.ops[i];
                        let inv = std::mem::replace(&mut op.invocation, Invocation::new(""));
                        let _ = shard.call(op.thread as u32, &inv.name, inv.args);
                        names.push(inv.name);
                    }
                    Event::Return(i) => {
                        let op = &mut h.ops[i];
                        let value = op.response.take().expect("returned op");
                        let _ = shard.ret(op.thread as u32, value);
                    }
                }
            }
            shard.end(false);
            probe.seconds[k] += tracer.end(id);
            violations += shard.counters.violations;
        };
        match self.variant {
            Variant::Replay => (0..self.blocks()).for_each(|_| drive(self.block_plan())),
            Variant::Distinct => {
                for round in 0..self.rounds_and_ops().0 {
                    self.round_plans(round).into_iter().for_each(&mut drive);
                }
            }
        }
        gates.expect_eq("violations from shards driven directly", violations, 0);
        probe
    }
}
