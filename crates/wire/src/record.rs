//! The record vocabulary and its payload codec.
//!
//! Payload layout (all integers varint unless noted):
//!
//! ```text
//! Hello          := 0x00 magic[4] version
//! ObjectRegister := 0x01 object kind:u8 threads      (kind 0 = none,
//!                   1 = queue, 2 = stack, 3 = set, 4 = pqueue)
//! Call           := 0x02 object thread ts name_len name[..] nargs value*
//! Return         := 0x03 object thread ts value
//! ObjectEnd      := 0x04 object stuck:u8
//! Shutdown       := 0x05
//! value          := 0x00                      unit
//!                 | 0x01 b:u8                 bool
//!                 | 0x02 zigzag(i)            int
//!                 | 0x03 len bytes[..]        str
//!                 | 0x04                      fail
//!                 | 0x05 n value*             seq
//!                 | 0x06                      opt none
//!                 | 0x07 value                opt some
//! ```

use lineup::{AdtKind, Event, History, Value};

use crate::frame::{put_varint, unzigzag, zigzag, Cursor, WireError};

/// Magic bytes opening every stream (inside the `Hello` payload).
pub const MAGIC: [u8; 4] = *b"LWF1";

/// Current format version, carried in `Hello`.
pub const VERSION: u32 = 1;

/// One wire record. `Call` names borrow from the decode buffer
/// (zero-copy); argument and response [`Value`]s are owned, since they
/// are exactly what an ingesting monitor keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<'a> {
    /// Stream handshake: magic (checked during decode) plus version.
    Hello {
        /// Format version of the producer.
        version: u32,
    },
    /// Announces a monitored object before its first event.
    ObjectRegister {
        /// Stream-unique object id.
        object: u64,
        /// The ADT the object claims to implement; `None` streams the
        /// object's events for accounting only (no checking).
        kind: Option<AdtKind>,
        /// Number of client threads operating on the object.
        threads: u32,
    },
    /// A call event: `thread` invoked `name(args)` on `object` at `ts`.
    Call {
        /// Target object id.
        object: u64,
        /// Calling thread index (dense, `0..threads`).
        thread: u32,
        /// Monotonic timestamp, nanoseconds since stream start.
        ts: u64,
        /// Operation name (borrowed from the decode buffer).
        name: &'a str,
        /// Argument values.
        args: Vec<Value>,
    },
    /// A return event: `thread`'s open call on `object` returned `value`.
    Return {
        /// Target object id.
        object: u64,
        /// Returning thread index.
        thread: u32,
        /// Monotonic timestamp, nanoseconds since stream start.
        ts: u64,
        /// Response value.
        value: Value,
    },
    /// Closes an object's history.
    ObjectEnd {
        /// Target object id.
        object: u64,
        /// True when the producer asserts the object's pending calls can
        /// never return (a watchdog-detected deadlock): the monitor then
        /// checks the history as *stuck*.
        stuck: bool,
    },
    /// Asks the receiving service to stop accepting, drain, and exit.
    Shutdown,
}

const TAG_HELLO: u8 = 0x00;
const TAG_REGISTER: u8 = 0x01;
const TAG_CALL: u8 = 0x02;
const TAG_RETURN: u8 = 0x03;
const TAG_END: u8 = 0x04;
const TAG_SHUTDOWN: u8 = 0x05;

fn kind_byte(kind: Option<AdtKind>) -> u8 {
    match kind {
        None => 0,
        Some(AdtKind::Queue) => 1,
        Some(AdtKind::Stack) => 2,
        Some(AdtKind::Set) => 3,
        Some(AdtKind::PriorityQueue) => 4,
    }
}

fn byte_kind(b: u8) -> Result<Option<AdtKind>, WireError> {
    match b {
        0 => Ok(None),
        1 => Ok(Some(AdtKind::Queue)),
        2 => Ok(Some(AdtKind::Stack)),
        3 => Ok(Some(AdtKind::Set)),
        4 => Ok(Some(AdtKind::PriorityQueue)),
        other => Err(WireError::BadKind(other)),
    }
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Unit => out.push(0x00),
        Value::Bool(b) => {
            out.push(0x01);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(0x02);
            put_varint(zigzag(*i), out);
        }
        Value::Str(s) => {
            out.push(0x03);
            put_str(s, out);
        }
        Value::Fail => out.push(0x04),
        Value::Seq(vs) => {
            out.push(0x05);
            put_varint(vs.len() as u64, out);
            for v in vs {
                put_value(v, out);
            }
        }
        Value::Opt(None) => out.push(0x06),
        Value::Opt(Some(v)) => {
            out.push(0x07);
            put_value(v, out);
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value, WireError> {
    match c.u8()? {
        0x00 => Ok(Value::Unit),
        0x01 => Ok(Value::Bool(c.u8()? != 0)),
        0x02 => Ok(Value::Int(unzigzag(c.varint()?))),
        0x03 => Ok(Value::Str(c.str()?.to_string())),
        0x04 => Ok(Value::Fail),
        0x05 => {
            let n = c.varint()? as usize;
            // Each element costs at least one byte; a length beyond the
            // remaining payload is a framing lie, not a big allocation.
            let mut vs = Vec::with_capacity(n.min(crate::MAX_FRAME_LEN));
            for _ in 0..n {
                vs.push(get_value(c)?);
            }
            Ok(Value::Seq(vs))
        }
        0x06 => Ok(Value::Opt(None)),
        0x07 => Ok(Value::some(get_value(c)?)),
        other => Err(WireError::BadValueTag(other)),
    }
}

/// Encodes `record`'s payload (no length prefix) onto `out`.
pub fn encode_payload(record: &Record<'_>, out: &mut Vec<u8>) {
    match record {
        Record::Hello { version } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&MAGIC);
            put_varint(u64::from(*version), out);
        }
        Record::ObjectRegister {
            object,
            kind,
            threads,
        } => {
            out.push(TAG_REGISTER);
            put_varint(*object, out);
            out.push(kind_byte(*kind));
            put_varint(u64::from(*threads), out);
        }
        Record::Call {
            object,
            thread,
            ts,
            name,
            args,
        } => {
            out.push(TAG_CALL);
            put_varint(*object, out);
            put_varint(u64::from(*thread), out);
            put_varint(*ts, out);
            put_str(name, out);
            put_varint(args.len() as u64, out);
            for a in args {
                put_value(a, out);
            }
        }
        Record::Return {
            object,
            thread,
            ts,
            value,
        } => {
            out.push(TAG_RETURN);
            put_varint(*object, out);
            put_varint(u64::from(*thread), out);
            put_varint(*ts, out);
            put_value(value, out);
        }
        Record::ObjectEnd { object, stuck } => {
            out.push(TAG_END);
            put_varint(*object, out);
            out.push(u8::from(*stuck));
        }
        Record::Shutdown => out.push(TAG_SHUTDOWN),
    }
}

/// Encodes `record` as one complete frame (length prefix + payload)
/// appended to `out`. Convenience for tests and one-shot writers; the
/// steady-state path is [`FrameWriter`](crate::FrameWriter).
pub fn encode_record(record: &Record<'_>, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(64);
    encode_payload(record, &mut payload);
    put_varint(payload.len() as u64, out);
    out.extend_from_slice(&payload);
}

/// Encodes a whole recorded history as frames appended to `out`: the
/// `ObjectRegister` of `object`, one `Call`/`Return` per event in the
/// history's exact order (every timestamp 0), and an `ObjectEnd` whose
/// `stuck` flag is the history's.
pub fn encode_history(object: u64, kind: Option<AdtKind>, h: &History, out: &mut Vec<u8>) {
    let register = Record::ObjectRegister {
        object,
        kind,
        threads: h.thread_count as u32,
    };
    encode_record(&register, out);
    for ev in &h.events {
        let record = match *ev {
            Event::Call(i) => Record::Call {
                object,
                thread: h.ops[i].thread as u32,
                ts: 0,
                name: &h.ops[i].invocation.name,
                args: h.ops[i].invocation.args.clone(),
            },
            Event::Return(i) => Record::Return {
                object,
                thread: h.ops[i].thread as u32,
                ts: 0,
                value: h.ops[i].response.clone().expect("a returned op"),
            },
        };
        encode_record(&record, out);
    }
    let end = Record::ObjectEnd {
        object,
        stuck: h.stuck,
    };
    encode_record(&end, out);
}

/// Decodes one frame payload. The returned record borrows `buf`.
pub fn decode_payload(buf: &[u8]) -> Result<Record<'_>, WireError> {
    let mut c = Cursor::new(buf);
    let record = match c.u8()? {
        TAG_HELLO => {
            if c.bytes(4)? != MAGIC {
                return Err(WireError::BadMagic);
            }
            Record::Hello {
                version: c.varint()? as u32,
            }
        }
        TAG_REGISTER => Record::ObjectRegister {
            object: c.varint()?,
            kind: byte_kind(c.u8()?)?,
            threads: c.varint()? as u32,
        },
        TAG_CALL => {
            let object = c.varint()?;
            let thread = c.varint()? as u32;
            let ts = c.varint()?;
            let name = c.str()?;
            let nargs = c.varint()? as usize;
            let mut args = Vec::with_capacity(nargs.min(crate::MAX_FRAME_LEN));
            for _ in 0..nargs {
                args.push(get_value(&mut c)?);
            }
            Record::Call {
                object,
                thread,
                ts,
                name,
                args,
            }
        }
        TAG_RETURN => Record::Return {
            object: c.varint()?,
            thread: c.varint()? as u32,
            ts: c.varint()?,
            value: get_value(&mut c)?,
        },
        TAG_END => Record::ObjectEnd {
            object: c.varint()?,
            stuck: c.u8()? != 0,
        },
        TAG_SHUTDOWN => Record::Shutdown,
        other => return Err(WireError::BadTag(other)),
    };
    if !c.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameReader, FrameWriter};

    fn sample_records() -> Vec<Record<'static>> {
        vec![
            Record::Hello { version: VERSION },
            Record::ObjectRegister {
                object: 1,
                kind: Some(AdtKind::Queue),
                threads: 4,
            },
            Record::ObjectRegister {
                object: 2,
                kind: None,
                threads: 1,
            },
            Record::Call {
                object: 1,
                thread: 3,
                ts: 1_000_000,
                name: "Enqueue",
                args: vec![Value::Int(-7)],
            },
            Record::Return {
                object: 1,
                thread: 3,
                ts: 1_000_500,
                value: Value::some(Value::Seq(vec![Value::Bool(true), Value::Fail])),
            },
            Record::Call {
                object: 2,
                thread: 0,
                ts: 2,
                name: "ToString",
                args: vec![Value::Str("x\"y".into()), Value::Opt(None)],
            },
            Record::ObjectEnd {
                object: 1,
                stuck: true,
            },
            Record::Shutdown,
        ]
    }

    #[test]
    fn records_round_trip_through_a_stream() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut w = FrameWriter::new(&mut bytes);
        for r in &records {
            w.write_record(r).unwrap();
        }
        drop(w);

        let mut r = FrameReader::new(&bytes[..]);
        let mut seen = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            seen.push(match rec {
                Record::Call {
                    object,
                    thread,
                    ts,
                    name,
                    args,
                } => format!("call {object} {thread} {ts} {name} {args:?}"),
                other => format!("{other:?}"),
            });
        }
        let expect: Vec<String> = records
            .iter()
            .map(|rec| match rec {
                Record::Call {
                    object,
                    thread,
                    ts,
                    name,
                    args,
                } => format!("call {object} {thread} {ts} {name} {args:?}"),
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut bytes = Vec::new();
        for r in sample_records() {
            encode_record(&r, &mut bytes);
        }
        // Any strict prefix either yields fewer records cleanly (cut at a
        // frame boundary) or errors with Truncated — never panics, never
        // fabricates a record.
        for cut in 0..bytes.len() {
            let mut r = FrameReader::new(&bytes[..cut]);
            loop {
                match r.next_record() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(WireError::Truncated) => break,
                    Err(other) => panic!("prefix {cut}: unexpected error {other}"),
                }
            }
        }
    }

    #[test]
    fn garbage_prefix_is_rejected_by_hello_check() {
        let mut bytes = vec![0x9a, 0x11, 0xff, 0x03];
        let mut valid = Vec::new();
        encode_record(&Record::Hello { version: VERSION }, &mut valid);
        bytes.extend_from_slice(&valid);
        let mut r = FrameReader::new(&bytes[..]);
        assert!(r.expect_hello().is_err());
    }

    #[test]
    fn hello_with_wrong_magic_is_rejected() {
        let mut payload = vec![TAG_HELLO];
        payload.extend_from_slice(b"NOPE");
        put_varint(1, &mut payload);
        assert!(matches!(decode_payload(&payload), Err(WireError::BadMagic)));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = Vec::new();
        encode_record(
            &Record::Hello {
                version: VERSION + 1,
            },
            &mut bytes,
        );
        let mut r = FrameReader::new(&bytes[..]);
        assert!(matches!(r.expect_hello(), Err(WireError::BadVersion(_))));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = Vec::new();
        encode_payload(&Record::Shutdown, &mut payload);
        payload.push(0x00);
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::TrailingBytes)
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            decode_payload(&[0x7f]),
            Err(WireError::BadTag(0x7f))
        ));
        let mut payload = vec![TAG_REGISTER];
        put_varint(1, &mut payload);
        payload.push(9); // kind byte
        put_varint(1, &mut payload);
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::BadKind(9))
        ));
    }
}
