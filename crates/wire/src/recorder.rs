//! A thread-safe event recorder producers embed in instrumented code.
//!
//! [`StreamRecorder`] wraps a [`FrameWriter`] in a mutex and stamps every
//! event with a monotonic timestamp relative to stream start. Producers
//! that already serialize history updates pay one uncontended mutex
//! acquisition per event; everything else is an append to a buffered
//! writer.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lineup::{AdtKind, Value};

use crate::frame::FrameWriter;
use crate::record::{Record, VERSION};

/// Streams wire records to any `Write + Send` sink.
///
/// Object ids are allocated with [`alloc_object`](Self::alloc_object) so
/// concurrent producers never collide; timestamps are nanoseconds since
/// the recorder was created.
pub struct StreamRecorder {
    inner: Mutex<FrameWriter<Box<dyn Write + Send>>>,
    start: Instant,
    next_object: AtomicU64,
    events: AtomicU64,
}

impl fmt::Debug for StreamRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamRecorder")
            .field("next_object", &self.next_object.load(Ordering::Relaxed))
            .field("events", &self.events.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl StreamRecorder {
    /// Wraps `sink` and writes the stream handshake.
    pub fn to_writer(sink: Box<dyn Write + Send>) -> io::Result<Self> {
        let mut writer = FrameWriter::new(sink);
        writer
            .write_record(&Record::Hello { version: VERSION })
            .map_err(io::Error::other)?;
        Ok(StreamRecorder {
            inner: Mutex::new(writer),
            start: Instant::now(),
            next_object: AtomicU64::new(1),
            events: AtomicU64::new(0),
        })
    }

    /// Creates (truncating) `path` and records into it through a buffer.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Self::to_writer(Box::new(BufWriter::with_capacity(1 << 16, file)))
    }

    /// Allocates a fresh stream-unique object id.
    pub fn alloc_object(&self) -> u64 {
        self.next_object.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of call/return events recorded so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    fn ts(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn write(&self, record: &Record<'_>) -> io::Result<()> {
        let mut writer = self.inner.lock().unwrap();
        writer.write_record(record).map_err(io::Error::other)
    }

    /// Announces `object` (see [`Record::ObjectRegister`]).
    pub fn register(&self, object: u64, kind: Option<AdtKind>, threads: u32) -> io::Result<()> {
        self.write(&Record::ObjectRegister {
            object,
            kind,
            threads,
        })
    }

    /// Records a call event.
    pub fn call(&self, object: u64, thread: u32, name: &str, args: &[Value]) -> io::Result<()> {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.write(&Record::Call {
            object,
            thread,
            ts: self.ts(),
            name,
            args: args.to_vec(),
        })
    }

    /// Records a return event.
    pub fn ret(&self, object: u64, thread: u32, value: &Value) -> io::Result<()> {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.write(&Record::Return {
            object,
            thread,
            ts: self.ts(),
            value: value.clone(),
        })
    }

    /// Closes `object`'s history; `stuck` marks its pending calls as
    /// permanently blocked (watchdog-detected deadlock).
    pub fn end(&self, object: u64, stuck: bool) -> io::Result<()> {
        self.write(&Record::ObjectEnd { object, stuck })
    }

    /// Sends a [`Record::Shutdown`] and flushes.
    pub fn shutdown(&self) -> io::Result<()> {
        let mut writer = self.inner.lock().unwrap();
        writer
            .write_record(&Record::Shutdown)
            .map_err(io::Error::other)?;
        writer.flush()
    }

    /// Flushes buffered frames to the sink.
    pub fn flush(&self) -> io::Result<()> {
        self.inner.lock().unwrap().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameReader;
    use std::sync::Arc;

    /// A `Write` that appends into a shared buffer, so tests can inspect
    /// what the recorder produced.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn recorder_emits_a_valid_stream() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let rec = StreamRecorder::to_writer(Box::new(SharedBuf(buf.clone()))).unwrap();
        let obj = rec.alloc_object();
        rec.register(obj, Some(AdtKind::Stack), 2).unwrap();
        rec.call(obj, 0, "Push", &[Value::Int(5)]).unwrap();
        rec.ret(obj, 0, &Value::Unit).unwrap();
        rec.end(obj, false).unwrap();
        rec.shutdown().unwrap();
        assert_eq!(rec.events(), 2);

        let bytes = buf.lock().unwrap().clone();
        let mut r = FrameReader::new(&bytes[..]);
        assert_eq!(r.expect_hello().unwrap(), VERSION);
        let mut tags = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            tags.push(match rec {
                Record::Hello { .. } => "hello",
                Record::ObjectRegister { .. } => "register",
                Record::Call { .. } => "call",
                Record::Return { .. } => "return",
                Record::ObjectEnd { .. } => "end",
                Record::Shutdown => "shutdown",
            });
        }
        assert_eq!(tags, ["register", "call", "return", "end", "shutdown"]);
    }

    #[test]
    fn object_ids_are_unique_across_threads() {
        let rec = Arc::new(StreamRecorder::to_writer(Box::new(io::sink())).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rec = rec.clone();
                std::thread::spawn(move || (0..100).map(|_| rec.alloc_object()).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }
}
