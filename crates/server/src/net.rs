//! Socket front end: TCP and Unix-socket listeners, one ingest thread
//! per connection, cooperative shutdown via the wire `Shutdown` record.
//!
//! Built on `std::net`/`std::os::unix::net` only. Listeners block in
//! `accept`; a shutdown request observed by any connection sets the
//! engine's flag and then wakes each listener with one throwaway
//! connection, so the whole service stops without signal machinery.

use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lineup_wire::{FrameReader, WireError};

use crate::engine::{Engine, EngineConfig};

/// Back-off after a failed `accept` (e.g. out of file descriptors), so a
/// persistent failure does not spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// How long a shutdown wake may take to connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Read buffer per connection: large enough that syscalls are not the
/// ingest bottleneck.
const READ_BUF: usize = 1 << 16;

/// Service configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// TCP listen address, e.g. `127.0.0.1:7117`; `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix-socket path; `None` disables the Unix listener.
    pub unix: Option<PathBuf>,
    /// Engine (and per-shard) tuning.
    pub engine: EngineConfig,
}

/// A bound listener, as the shutdown wake reaches it.
#[derive(Debug, Clone)]
pub(crate) enum Listener {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Listener {
    /// Returns the listener's thread from a blocked `accept` by
    /// connecting once; the accept loop sees the shutdown flag and drops
    /// the connection unserved. Errors mean the listener is gone already.
    pub(crate) fn wake(&self) {
        match self {
            // An unspecified bind address (`0.0.0.0`, `::`) connects to
            // the local host.
            Listener::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, WAKE_TIMEOUT);
            }
            Listener::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

/// A running monitoring service.
#[derive(Debug)]
pub struct Server {
    engine: Arc<Engine>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    listeners: Vec<thread::JoinHandle<()>>,
    live_connections: Arc<AtomicU64>,
}

impl Server {
    /// Binds the configured listeners and starts accepting.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let engine = Arc::new(Engine::new(config.engine));
        let live_connections = Arc::new(AtomicU64::new(0));
        let mut listeners = Vec::new();
        let mut tcp_addr = None;

        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            let local = listener.local_addr()?;
            tcp_addr = Some(local);
            engine.add_wake(Listener::Tcp(local));
            let accept = move || {
                let (stream, _) = listener.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(stream)
            };
            let engine = Arc::clone(&engine);
            let live = Arc::clone(&live_connections);
            listeners.push(
                thread::Builder::new()
                    .name("lineup-accept-tcp".into())
                    .spawn(move || accept_loop(accept, &engine, &live))?,
            );
        }

        if let Some(path) = &config.unix {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            engine.add_wake(Listener::Unix(path.clone()));
            let accept = move || listener.accept().map(|(stream, _)| stream);
            let engine = Arc::clone(&engine);
            let live = Arc::clone(&live_connections);
            listeners.push(
                thread::Builder::new()
                    .name("lineup-accept-unix".into())
                    .spawn(move || accept_loop(accept, &engine, &live))?,
            );
        }

        Ok(Server {
            engine,
            tcp_addr,
            unix_path: config.unix,
            listeners,
            live_connections,
        })
    }

    /// The shared engine (for snapshots and programmatic shutdown).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The bound TCP address (with the OS-assigned port when the config
    /// asked for port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Connections currently being served.
    pub fn live_connections(&self) -> u64 {
        self.live_connections.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested and all listeners and
    /// connections have drained, then removes the Unix socket file. Each
    /// listener joins its own connections before it exits.
    pub fn join(self) {
        for handle in self.listeners {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Serves every connection `accept` yields, until shutdown; then joins
/// the connections it started.
fn accept_loop<S: Read + Send + 'static>(
    mut accept: impl FnMut() -> io::Result<S>,
    engine: &Arc<Engine>,
    live: &Arc<AtomicU64>,
) {
    let mut workers = Vec::new();
    while !engine.shutdown_requested() {
        let accepted = accept();
        // After shutdown this is the wake (or a late client): unserved.
        if engine.shutdown_requested() {
            break;
        }
        match accepted {
            Ok(stream) => workers.extend(spawn_connection(engine, live, stream)),
            Err(_) => thread::sleep(ACCEPT_RETRY),
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
}

fn spawn_connection<S: Read + Send + 'static>(
    engine: &Arc<Engine>,
    live: &Arc<AtomicU64>,
    stream: S,
) -> Option<thread::JoinHandle<()>> {
    engine.note_connection();
    live.fetch_add(1, Ordering::SeqCst);
    let engine = Arc::clone(engine);
    let worker_live = Arc::clone(live);
    let handle = thread::Builder::new()
        .name("lineup-conn".into())
        .spawn(move || {
            if let Err(e) = serve_connection(&engine, stream) {
                engine.note_protocol_error();
                eprintln!("lineup-server: connection error: {e}");
            }
            worker_live.fetch_sub(1, Ordering::SeqCst);
        });
    if handle.is_err() {
        live.fetch_sub(1, Ordering::SeqCst);
    }
    handle.ok()
}

/// Ingests one stream: handshake, then demux every record until EOF or
/// `Shutdown`. Used by both socket connections and `--replay` files.
pub fn serve_connection<S: Read>(engine: &Engine, stream: S) -> Result<(), WireError> {
    let mut reader = FrameReader::new(BufReader::with_capacity(READ_BUF, stream));
    reader.expect_hello()?;
    let mut cache = None;
    while let Some(record) = reader.next_record()? {
        let is_shutdown = matches!(record, lineup_wire::Record::Shutdown);
        engine.apply(record, &mut cache);
        if is_shutdown {
            break;
        }
    }
    Ok(())
}

/// Convenience for tests and benches: serve a single in-memory or file
/// stream into a standalone engine.
pub fn ingest_stream<S: Read>(engine: &Engine, stream: S) -> Result<(), WireError> {
    serve_connection(engine, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineup::{AdtKind, Value};
    use lineup_wire::StreamRecorder;
    use std::io::Write;
    use std::sync::{mpsc, Mutex};
    use std::time::Instant;

    fn queue_stream(ops: i64) -> Vec<u8> {
        let buf = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rec = StreamRecorder::to_writer(Box::new(Shared(Arc::clone(&buf)))).unwrap();
        let obj = rec.alloc_object();
        rec.register(obj, Some(AdtKind::Queue), 1).unwrap();
        for i in 0..ops {
            rec.call(obj, 0, "Enqueue", &[Value::Int(i)]).unwrap();
            rec.ret(obj, 0, &Value::Unit).unwrap();
        }
        for i in 0..ops {
            rec.call(obj, 0, "TryDequeue", &[]).unwrap();
            rec.ret(obj, 0, &Value::some(Value::int(i))).unwrap();
        }
        rec.end(obj, false).unwrap();
        rec.flush().unwrap();
        let out = buf.lock().unwrap().clone();
        out
    }

    #[test]
    fn in_memory_stream_ingests_cleanly() {
        let engine = Engine::new(EngineConfig::default());
        ingest_stream(&engine, &queue_stream(100)[..]).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.counters.ops, 200);
        assert_eq!(snap.counters.violations, 0);
        assert_eq!(snap.objects_finished, 1);
        assert_eq!(snap.objects_live, 0);
    }

    #[test]
    fn tcp_round_trip_with_shutdown() {
        let server = Server::spawn(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.tcp_addr().unwrap();
        let engine = Arc::clone(server.engine());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&queue_stream(50)).unwrap();
        let mut shutdown = Vec::new();
        lineup_wire::encode_record(&lineup_wire::Record::Shutdown, &mut shutdown);
        stream.write_all(&shutdown).unwrap();
        drop(stream);

        server.join();
        let snap = engine.snapshot();
        assert_eq!(snap.counters.ops, 100);
        assert_eq!(snap.counters.violations, 0);
        assert_eq!(snap.connections, 1);
    }

    #[test]
    fn shutdown_wakes_blocked_listeners() {
        let unix = std::env::temp_dir().join(format!("lineup-wake-{}.sock", std::process::id()));
        let server = Server::spawn(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            unix: Some(unix.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let engine = Arc::clone(server.engine());
        let mut stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
        stream.write_all(&queue_stream(1)).unwrap();
        drop(stream);
        // The deadlines guard against a hang; they time nothing.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.snapshot().objects_finished < 1 {
            assert!(Instant::now() < deadline, "the object was never retired");
            thread::sleep(Duration::from_millis(1));
        }
        engine.request_shutdown();
        let (joined, done) = mpsc::channel();
        let joiner = thread::spawn(move || {
            server.join();
            joined.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(10))
            .expect("join returned after request_shutdown");
        joiner.join().unwrap();
        assert!(!unix.exists(), "join removes the socket file");
        assert_eq!(engine.snapshot().connections, 1);
    }
}
