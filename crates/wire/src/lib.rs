//! **lineup-wire**: the compact binary event format that streams
//! call/return histories from instrumented applications into the online
//! monitoring service (`lineup-server`).
//!
//! A stream is a sequence of varint-length-prefixed *frames*, each
//! holding one [`Record`]:
//!
//! * [`Record::Hello`] — stream handshake (magic + format version), the
//!   first frame of every stream; anything else is rejected, which is
//!   what catches garbage or mis-framed input immediately.
//! * [`Record::ObjectRegister`] — announces a monitored object: its
//!   stream-unique id, the [`AdtKind`](lineup::AdtKind) it claims to
//!   implement (if any), and its thread count.
//! * [`Record::Call`] / [`Record::Return`] — one history event each,
//!   carrying object id, thread id, a monotonic timestamp, and the
//!   operation name/arguments (calls) or response value (returns).
//! * [`Record::ObjectEnd`] — closes an object's history (optionally as
//!   *stuck*, meaning its pending calls will never return).
//! * [`Record::Shutdown`] — asks the receiving service to drain and exit.
//!
//! Encoding is allocation-light (one reusable scratch buffer per
//! [`FrameWriter`]) and decoding is zero-copy where the format allows it:
//! [`FrameReader`] hands out records whose operation names borrow from
//! the reader's frame buffer, so the ingest hot path allocates only when
//! it decides to keep an event.
//!
//! # Example
//!
//! ```
//! use lineup::Value;
//! use lineup_wire::{FrameReader, FrameWriter, Record, VERSION};
//!
//! let mut bytes = Vec::new();
//! {
//!     let mut w = FrameWriter::new(&mut bytes);
//!     w.write_record(&Record::Hello { version: VERSION }).unwrap();
//!     w.write_record(&Record::Call {
//!         object: 7,
//!         thread: 0,
//!         ts: 42,
//!         name: "Enqueue",
//!         args: vec![Value::Int(10)],
//!     })
//!     .unwrap();
//! }
//! let mut r = FrameReader::new(&bytes[..]);
//! assert_eq!(r.expect_hello().unwrap(), VERSION);
//! match r.next_record().unwrap().unwrap() {
//!     Record::Call { name, .. } => assert_eq!(name, "Enqueue"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! assert!(r.next_record().unwrap().is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frame;
pub mod record;
pub mod recorder;

pub use frame::{FrameReader, FrameWriter, WireError, MAX_FRAME_LEN};
pub use record::{decode_payload, encode_history, encode_record, Record, MAGIC, VERSION};
pub use recorder::StreamRecorder;
