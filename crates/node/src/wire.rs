//! The node's wire protocol: CRC-framed, length-prefixed messages.
//!
//! ## Frame layout
//!
//! ```text
//! "SDCF"                        magic (4 bytes)
//! u32  flags ‖ payload length   bits 28–31 flags, bits 0–27 length
//! u32  CRC-32                   over extension blocks ‖ payload
//! [16-byte trace context]       only when FLAG_TRACE is set
//! payload bytes
//! ```
//!
//! All integers little-endian — the same conventions as the
//! `sdc-persist` container (`"SDCS"` + CRC-32), applied per message
//! instead of per file. The reader enforces, in order: magic
//! ([`NodeError::BadMagic`]), unknown flag bits
//! ([`NodeError::UnknownFlags`]), the length bound
//! ([`NodeError::Oversized`], checked **before** any allocation sizes
//! itself from the hostile length), then the CRC
//! ([`NodeError::ChecksumMismatch`]). A connection that ends exactly at
//! a frame boundary is a clean close (`Ok(None)`); anywhere else it is
//! [`NodeError::Truncated`].
//!
//! ## The trace-context extension (protocol revision 2)
//!
//! The length word's top nibble was zero in every revision-1 frame
//! ([`MAX_FRAME`] needs only 25 bits), so it now carries flags.
//! [`FLAG_TRACE`] announces a 16-byte [`TraceContext`]
//! (trace id ‖ parent span id, little-endian) between the header and
//! the payload, letting one trace cross the TCP boundary; the CRC
//! covers the context block and the payload together. Interop with
//! revision-1 peers is safe **by construction**, both ways:
//!
//! * rev-1 frames (flag nibble 0) parse identically under both
//!   revisions — an old client against a new server, or a traced
//!   client with tracing disabled, is byte-for-byte the old protocol;
//! * a rev-2 flagged frame read by a rev-1 peer has a length field
//!   exceeding `MAX_FRAME`, so the old peer rejects it typed
//!   (`Oversized`) before touching the payload — never a mis-parse
//!   (`tests/wire_fuzz.rs` pins both directions).
//!
//! ## Messages
//!
//! Payloads are encoded with the `sdc-persist` state codecs, so every
//! field length is bounds-checked against the remaining payload before
//! allocation. Requests and replies carry a client-assigned `seq`; the
//! protocol is **pipelined** — a client may have many requests in
//! flight and the server replies in its own order (scoring replies wait
//! for their coalesced batch), so `seq` is what matches them back up.

use std::io::{Read, Write};

use sdc_data::{Sample, StreamId};
use sdc_obs::TraceContext;
use sdc_persist::{crc32, PersistError, StateReader, StateWriter};
use sdc_serve::ShedCause;

use crate::error::NodeError;

/// First bytes of every frame.
pub const FRAME_MAGIC: &[u8; 4] = b"SDCF";

/// Upper bound on a frame's payload length. A declared length past this
/// is rejected as [`NodeError::Oversized`] before any buffer is
/// allocated — the cap is what makes a hostile 16-exabyte length field
/// harmless.
pub const MAX_FRAME: u32 = 32 << 20;

/// Length-word flag announcing a 16-byte trace-context block between
/// the header and the payload (see the module docs on revision-2
/// interop).
pub const FLAG_TRACE: u32 = 1 << 28;

/// The flag nibble of the length word.
const FLAG_BITS: u32 = 0xF000_0000;

/// The length bits of the length word.
const LEN_BITS: u32 = !FLAG_BITS;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score `samples` on behalf of `stream`.
    Score {
        /// Client-assigned sequence number, echoed in the reply.
        seq: u64,
        /// The submitting stream (drives replica sharding and the
        /// per-stream latency rows server-side).
        stream: StreamId,
        /// Whether admission control may shed this request (the remote
        /// `try_submit` path).
        droppable: bool,
        /// The segment to score.
        samples: Vec<Sample>,
    },
    /// Ship serving-node state to this server's standby store.
    Ship {
        /// Client-assigned sequence number, echoed in the reply.
        seq: u64,
        /// Full container or delta against the previously shipped one.
        ship: Ship,
    },
    /// Scrape the node's live metrics: the server answers with its
    /// process-global `MetricsSnapshot` JSON plus each replica's
    /// per-stream latency breakdown — without quiescing anything.
    Stats {
        /// Client-assigned sequence number, echoed in the reply.
        seq: u64,
    },
}

/// The payload of a [`Request::Ship`].
#[derive(Debug, Clone, PartialEq)]
pub enum Ship {
    /// A complete `NodeSnapshot` container.
    Full {
        /// The serialized container bytes.
        snapshot: Vec<u8>,
        /// Opaque application state shipped alongside (e.g. stream
        /// cursor state), replaced wholesale on every ship.
        aux: Vec<u8>,
    },
    /// A section delta (`sdc_persist::encode_delta`) against the
    /// container this server currently holds.
    Delta {
        /// The serialized delta bytes.
        delta: Vec<u8>,
        /// See [`Ship::Full::aux`].
        aux: Vec<u8>,
    },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The request's score slice.
    Scored {
        /// The request's sequence number.
        seq: u64,
        /// One score per submitted sample, bit-identical to in-process
        /// scoring.
        scores: Vec<f32>,
    },
    /// The request was shed by admission control — a typed reply, never
    /// a silent drop.
    Shed {
        /// The request's sequence number.
        seq: u64,
        /// Why it was shed.
        cause: ShedCause,
    },
    /// A shipped snapshot was verified and installed in the standby
    /// store.
    ShipApplied {
        /// The request's sequence number.
        seq: u64,
        /// Sections in the installed container.
        sections: u64,
    },
    /// The request failed server-side; the connection stays usable
    /// unless the error was a framing violation.
    Error {
        /// The request's sequence number (0 for frame-level failures
        /// that happened before a sequence number could be read).
        seq: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// The node's live metrics scrape ([`Request::Stats`]).
    Stats {
        /// The request's sequence number.
        seq: u64,
        /// A JSON object: the process-global metrics snapshot under
        /// `"metrics"`, plus `"replicas"` — one per-stream latency
        /// breakdown object per scoring replica.
        json: String,
    },
}

impl Reply {
    /// The sequence number this reply answers.
    pub fn seq(&self) -> u64 {
        match self {
            Reply::Scored { seq, .. }
            | Reply::Shed { seq, .. }
            | Reply::ShipApplied { seq, .. }
            | Reply::Error { seq, .. }
            | Reply::Stats { seq, .. } => *seq,
        }
    }
}

const TAG_SCORE: u8 = 1;
const TAG_SHIP: u8 = 2;
const TAG_STATS: u8 = 3;

const TAG_SCORED: u8 = 1;
const TAG_SHED: u8 = 2;
const TAG_SHIP_APPLIED: u8 = 3;
const TAG_ERROR: u8 = 4;
const TAG_STATS_REPLY: u8 = 5;

const SHIP_FULL: u8 = 0;
const SHIP_DELTA: u8 = 1;

const CAUSE_QUEUE_FULL: u8 = 1;
const CAUSE_BACKLOG: u8 = 2;

/// Writes one revision-1 frame around `payload` (no flags, no
/// extension blocks — the form every peer accepts).
///
/// # Errors
///
/// Returns [`NodeError::Oversized`] for payloads past [`MAX_FRAME`]
/// (nothing is written), and [`NodeError::Io`] on socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NodeError> {
    write_frame_ext(w, payload, None)
}

/// Writes one frame around `payload`, attaching a trace-context
/// extension block (and setting [`FLAG_TRACE`]) when `trace` is given.
/// With `trace: None` the output is byte-for-byte a revision-1 frame.
///
/// # Errors
///
/// Returns [`NodeError::Oversized`] for payloads past [`MAX_FRAME`]
/// (nothing is written), and [`NodeError::Io`] on socket failure.
pub fn write_frame_ext(
    w: &mut impl Write,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Result<(), NodeError> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(NodeError::Oversized { declared: payload.len() as u64 });
    }
    let trace_bytes = trace.map(TraceContext::to_bytes);
    let (flags, crc) = match &trace_bytes {
        Some(block) => {
            let mut covered = Vec::with_capacity(block.len() + payload.len());
            covered.extend_from_slice(block);
            covered.extend_from_slice(payload);
            (FLAG_TRACE, crc32(&covered))
        }
        None => (0, crc32(payload)),
    };
    let mut header = [0u8; 12];
    header[..4].copy_from_slice(FRAME_MAGIC);
    header[4..8].copy_from_slice(&(flags | payload.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc.to_le_bytes());
    w.write_all(&header)
        .map_err(|source| NodeError::Io { context: "write frame header", source })?;
    if let Some(block) = &trace_bytes {
        w.write_all(block)
            .map_err(|source| NodeError::Io { context: "write trace context", source })?;
    }
    w.write_all(payload)
        .map_err(|source| NodeError::Io { context: "write frame payload", source })?;
    w.flush().map_err(|source| NodeError::Io { context: "flush frame", source })?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, mapping a clean mid-read EOF to
/// [`NodeError::Truncated`] with `context`.
fn read_exact_or_truncated(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), NodeError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(NodeError::Truncated { context }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(source) => return Err(NodeError::Io { context: "read frame bytes", source }),
        }
    }
    Ok(())
}

/// Reads one **revision-1** frame, returning its verified payload — or
/// `Ok(None)` when the stream ends cleanly at a frame boundary. This is
/// deliberately the old reader: any frame with flag bits set (including
/// a valid revision-2 traced frame) is rejected typed, exactly like a
/// pre-revision-2 peer would — its length word exceeds [`MAX_FRAME`].
///
/// # Errors
///
/// [`NodeError::BadMagic`], [`NodeError::Oversized`] (checked before
/// the payload buffer is allocated), [`NodeError::ChecksumMismatch`],
/// [`NodeError::Truncated`] for a mid-frame end of stream, and
/// [`NodeError::Io`] for socket failures.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, NodeError> {
    let Some(header) = read_header(r)? else { return Ok(None) };
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(NodeError::Oversized { declared: len as u64 });
    }
    let crc = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload, "frame payload")?;
    if crc32(&payload) != crc {
        return Err(NodeError::ChecksumMismatch);
    }
    Ok(Some(payload))
}

/// One decoded revision-2 frame: the verified payload plus the trace
/// context the sender attached, if any.
pub type ExtFrame = (Vec<u8>, Option<TraceContext>);

/// Reads one frame under revision-2 rules, returning its verified
/// payload plus the trace context if the frame carried one — or
/// `Ok(None)` on a clean close at a frame boundary.
///
/// # Errors
///
/// [`NodeError::BadMagic`], [`NodeError::UnknownFlags`] for flag bits
/// beyond [`FLAG_TRACE`] (rejected before any allocation),
/// [`NodeError::Oversized`], [`NodeError::ChecksumMismatch`] (the CRC
/// covers trace block + payload), [`NodeError::Truncated`], and
/// [`NodeError::Io`].
pub fn read_frame_ext(r: &mut impl Read) -> Result<Option<ExtFrame>, NodeError> {
    let Some(header) = read_header(r)? else { return Ok(None) };
    let word = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let flags = word & FLAG_BITS;
    if flags & !FLAG_TRACE != 0 {
        return Err(NodeError::UnknownFlags { flags: flags >> 28 });
    }
    let len = word & LEN_BITS;
    if len > MAX_FRAME {
        return Err(NodeError::Oversized { declared: len as u64 });
    }
    let crc = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let trace_bytes = if flags & FLAG_TRACE != 0 {
        let mut block = [0u8; TraceContext::WIRE_LEN];
        read_exact_or_truncated(r, &mut block, "trace context")?;
        Some(block)
    } else {
        None
    };
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload, "frame payload")?;
    let computed = match &trace_bytes {
        Some(block) => {
            let mut covered = Vec::with_capacity(block.len() + payload.len());
            covered.extend_from_slice(block);
            covered.extend_from_slice(&payload);
            crc32(&covered)
        }
        None => crc32(&payload),
    };
    if computed != crc {
        return Err(NodeError::ChecksumMismatch);
    }
    Ok(Some((payload, trace_bytes.map(TraceContext::from_bytes))))
}

/// Reads the 12-byte frame header, returning `Ok(None)` on a clean
/// close before the first byte and checking the magic.
fn read_header(r: &mut impl Read) -> Result<Option<[u8; 12]>, NodeError> {
    let mut header = [0u8; 12];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(NodeError::Truncated { context: "frame header" }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(source) => return Err(NodeError::Io { context: "read frame header", source }),
        }
    }
    if &header[..4] != FRAME_MAGIC {
        return Err(NodeError::BadMagic);
    }
    Ok(Some(header))
}

fn put_samples(w: &mut StateWriter, samples: &[Sample]) {
    w.put_u64(samples.len() as u64);
    for s in samples {
        w.put_u64(s.id);
        w.put_u64(s.label as u64);
        w.put_tensor(&s.image);
    }
}

fn get_samples(r: &mut StateReader<'_>) -> Result<Vec<Sample>, PersistError> {
    let n = r.get_u64()? as usize;
    // A sample is at least id + label + empty tensor; cap the reserve
    // by what the payload could possibly hold.
    let mut samples = Vec::with_capacity(n.min(r.remaining() / 16));
    for _ in 0..n {
        let id = r.get_u64()?;
        let label = r.get_u64()? as usize;
        let image = r.get_tensor()?;
        samples.push(Sample::new(image, label, id));
    }
    Ok(samples)
}

/// Serializes a request into a frame payload.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = StateWriter::new();
    match request {
        Request::Score { seq, stream, droppable, samples } => {
            w.put_u8(TAG_SCORE);
            w.put_u64(*seq);
            w.put_u64(*stream);
            w.put_u8(u8::from(*droppable));
            put_samples(&mut w, samples);
        }
        Request::Ship { seq, ship } => {
            w.put_u8(TAG_SHIP);
            w.put_u64(*seq);
            match ship {
                Ship::Full { snapshot, aux } => {
                    w.put_u8(SHIP_FULL);
                    w.put_bytes(snapshot);
                    w.put_bytes(aux);
                }
                Ship::Delta { delta, aux } => {
                    w.put_u8(SHIP_DELTA);
                    w.put_bytes(delta);
                    w.put_bytes(aux);
                }
            }
        }
        Request::Stats { seq } => {
            w.put_u8(TAG_STATS);
            w.put_u64(*seq);
        }
    }
    w.into_bytes()
}

fn decode_request_inner(payload: &[u8]) -> Result<Request, PersistError> {
    let mut r = StateReader::new(payload);
    let request = match r.get_u8()? {
        TAG_SCORE => {
            let seq = r.get_u64()?;
            let stream = r.get_u64()?;
            let droppable = match r.get_u8()? {
                0 => false,
                1 => true,
                v => {
                    return Err(PersistError::Corrupt {
                        context: "request droppable flag",
                        message: format!("expected 0 or 1, found {v}"),
                    })
                }
            };
            let samples = get_samples(&mut r)?;
            Request::Score { seq, stream, droppable, samples }
        }
        TAG_SHIP => {
            let seq = r.get_u64()?;
            let kind = r.get_u8()?;
            let bytes = r.get_bytes()?;
            let aux = r.get_bytes()?;
            let ship = match kind {
                SHIP_FULL => Ship::Full { snapshot: bytes, aux },
                SHIP_DELTA => Ship::Delta { delta: bytes, aux },
                v => {
                    return Err(PersistError::Corrupt {
                        context: "ship kind",
                        message: format!("unknown ship kind {v}"),
                    })
                }
            };
            Request::Ship { seq, ship }
        }
        TAG_STATS => Request::Stats { seq: r.get_u64()? },
        tag => {
            return Err(PersistError::Corrupt {
                context: "request tag",
                message: format!("unknown request tag {tag}"),
            })
        }
    };
    r.finish()?;
    Ok(request)
}

/// Parses a frame payload into a request.
///
/// # Errors
///
/// Returns [`NodeError::Malformed`] for unknown tags, hostile field
/// lengths (rejected before allocation by the state codec), and
/// trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, NodeError> {
    decode_request_inner(payload).map_err(NodeError::Malformed)
}

/// Serializes a reply into a frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = StateWriter::new();
    match reply {
        Reply::Scored { seq, scores } => {
            w.put_u8(TAG_SCORED);
            w.put_u64(*seq);
            w.put_f32_slice(scores);
        }
        Reply::Shed { seq, cause } => {
            w.put_u8(TAG_SHED);
            w.put_u64(*seq);
            w.put_u8(match cause {
                ShedCause::QueueFull => CAUSE_QUEUE_FULL,
                ShedCause::Backlog => CAUSE_BACKLOG,
            });
        }
        Reply::ShipApplied { seq, sections } => {
            w.put_u8(TAG_SHIP_APPLIED);
            w.put_u64(*seq);
            w.put_u64(*sections);
        }
        Reply::Error { seq, message } => {
            w.put_u8(TAG_ERROR);
            w.put_u64(*seq);
            w.put_str(message);
        }
        Reply::Stats { seq, json } => {
            w.put_u8(TAG_STATS_REPLY);
            w.put_u64(*seq);
            w.put_str(json);
        }
    }
    w.into_bytes()
}

fn decode_reply_inner(payload: &[u8]) -> Result<Reply, PersistError> {
    let mut r = StateReader::new(payload);
    let reply = match r.get_u8()? {
        TAG_SCORED => {
            let seq = r.get_u64()?;
            let scores = r.get_f32_vec()?;
            Reply::Scored { seq, scores }
        }
        TAG_SHED => {
            let seq = r.get_u64()?;
            let cause = match r.get_u8()? {
                CAUSE_QUEUE_FULL => ShedCause::QueueFull,
                CAUSE_BACKLOG => ShedCause::Backlog,
                v => {
                    return Err(PersistError::Corrupt {
                        context: "shed cause",
                        message: format!("unknown shed cause {v}"),
                    })
                }
            };
            Reply::Shed { seq, cause }
        }
        TAG_SHIP_APPLIED => {
            let seq = r.get_u64()?;
            let sections = r.get_u64()?;
            Reply::ShipApplied { seq, sections }
        }
        TAG_ERROR => {
            let seq = r.get_u64()?;
            let message = r.get_str()?;
            Reply::Error { seq, message }
        }
        TAG_STATS_REPLY => {
            let seq = r.get_u64()?;
            let json = r.get_str()?;
            Reply::Stats { seq, json }
        }
        tag => {
            return Err(PersistError::Corrupt {
                context: "reply tag",
                message: format!("unknown reply tag {tag}"),
            })
        }
    };
    r.finish()?;
    Ok(reply)
}

/// Parses a frame payload into a reply.
///
/// # Errors
///
/// Returns [`NodeError::Malformed`] for unknown tags, hostile field
/// lengths, and trailing bytes.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, NodeError> {
    decode_reply_inner(payload).map_err(NodeError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_tensor::Tensor;

    fn sample(id: u64) -> Sample {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(id);
        Sample::new(Tensor::randn([3, 4, 4], 1.0, &mut rng), (id % 3) as usize, id)
    }

    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_roundtrip() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 1000][..]] {
            let framed = frame_of(payload);
            let mut cursor = &framed[..];
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
            // And the stream then ends cleanly.
            assert!(read_frame(&mut cursor).unwrap().is_none());
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected_with_a_typed_error() {
        let mut framed = frame_of(b"hello frame");
        for i in 0..framed.len() {
            framed[i] ^= 0x08;
            let err = read_frame(&mut &framed[..]).unwrap_err();
            assert!(
                matches!(
                    err,
                    NodeError::BadMagic
                        | NodeError::ChecksumMismatch
                        | NodeError::Oversized { .. }
                        | NodeError::Truncated { .. }
                ),
                "flip at byte {i} gave {err}"
            );
            framed[i] ^= 0x08;
        }
        read_frame(&mut &framed[..]).unwrap().unwrap();
    }

    #[test]
    fn every_truncation_is_rejected_or_a_clean_eof() {
        let framed = frame_of(b"payload bytes");
        for cut in 0..framed.len() {
            match read_frame(&mut &framed[..cut]) {
                Ok(None) => assert_eq!(cut, 0, "mid-frame cut at {cut} read as clean close"),
                Ok(Some(_)) => panic!("cut at {cut} produced a frame"),
                Err(NodeError::Truncated { .. }) => {}
                Err(e) => panic!("cut at {cut} gave {e}"),
            }
        }
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        // A header declaring u32::MAX payload bytes: Oversized, not an
        // attempted 4 GiB allocation (the test would OOM-or-crawl
        // otherwise).
        let mut framed = Vec::new();
        framed.extend_from_slice(FRAME_MAGIC);
        framed.extend_from_slice(&u32::MAX.to_le_bytes());
        framed.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut &framed[..]).unwrap_err() {
            NodeError::Oversized { declared } => assert_eq!(declared, u32::MAX as u64),
            e => panic!("expected Oversized, got {e}"),
        }
        // One past the bound is also refused.
        let mut framed = Vec::new();
        framed.extend_from_slice(FRAME_MAGIC);
        framed.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        framed.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(read_frame(&mut &framed[..]).unwrap_err(), NodeError::Oversized { .. }));
    }

    #[test]
    fn oversized_payload_is_refused_at_write_time() {
        struct NullWriter;
        impl std::io::Write for NullWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = vec![0u8; MAX_FRAME as usize + 1];
        assert!(matches!(
            write_frame(&mut NullWriter, &payload).unwrap_err(),
            NodeError::Oversized { .. }
        ));
    }

    #[test]
    fn requests_roundtrip_bit_exactly() {
        let requests = [
            Request::Score { seq: 7, stream: 42, droppable: true, samples: vec![sample(1)] },
            Request::Score { seq: 8, stream: 0, droppable: false, samples: vec![] },
            Request::Ship { seq: 9, ship: Ship::Full { snapshot: vec![1, 2, 3], aux: vec![4] } },
            Request::Ship { seq: 10, ship: Ship::Delta { delta: vec![5; 100], aux: vec![] } },
        ];
        for request in &requests {
            let decoded = decode_request(&encode_request(request)).unwrap();
            assert_eq!(&decoded, request);
        }
        // Sample contents survive bit-exactly (scores depend on it).
        let s = sample(3);
        let encoded = encode_request(&Request::Score {
            seq: 1,
            stream: 1,
            droppable: false,
            samples: vec![s.clone()],
        });
        match decode_request(&encoded).unwrap() {
            Request::Score { samples, .. } => {
                assert_eq!(samples[0].id, s.id);
                assert_eq!(samples[0].label, s.label);
                assert_eq!(samples[0].image.data(), s.image.data());
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    fn ctx(trace: u64, parent: u64) -> TraceContext {
        TraceContext { trace: sdc_obs::TraceId(trace), parent: sdc_obs::SpanId(parent) }
    }

    #[test]
    fn traced_frames_roundtrip_through_the_ext_reader() {
        let mut framed = Vec::new();
        write_frame_ext(&mut framed, b"payload", Some(ctx(0xAB, 0xCD))).unwrap();
        let mut cursor = &framed[..];
        let (payload, trace) = read_frame_ext(&mut cursor).unwrap().unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(trace, Some(ctx(0xAB, 0xCD)));
        assert!(read_frame_ext(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn untraced_ext_frames_are_bytewise_revision_one() {
        let mut plain = Vec::new();
        write_frame(&mut plain, b"same bytes").unwrap();
        let mut ext = Vec::new();
        write_frame_ext(&mut ext, b"same bytes", None).unwrap();
        assert_eq!(plain, ext);
        // And the ext reader accepts the rev-1 frame with no context.
        let (payload, trace) = read_frame_ext(&mut &plain[..]).unwrap().unwrap();
        assert_eq!(payload, b"same bytes");
        assert_eq!(trace, None);
    }

    #[test]
    fn old_readers_reject_traced_frames_typed_never_misparse() {
        let mut framed = Vec::new();
        write_frame_ext(&mut framed, b"from the future", Some(ctx(1, 2))).unwrap();
        // A revision-1 peer sees a length word with bit 28 set — over
        // its frame bound — and rejects before reading the payload.
        match read_frame(&mut &framed[..]).unwrap_err() {
            NodeError::Oversized { declared } => {
                assert_eq!(declared, FLAG_TRACE as u64 + b"from the future".len() as u64)
            }
            e => panic!("expected Oversized, got {e}"),
        }
    }

    #[test]
    fn unknown_flag_bits_are_rejected_typed_before_allocation() {
        for bad_nibble in [0x2u32, 0x4, 0x8, 0x3, 0xF] {
            let mut framed = Vec::new();
            framed.extend_from_slice(FRAME_MAGIC);
            framed.extend_from_slice(&((bad_nibble << 28) | 4).to_le_bytes());
            framed.extend_from_slice(&0u32.to_le_bytes());
            framed.extend_from_slice(&[0; 4]);
            match read_frame_ext(&mut &framed[..]).unwrap_err() {
                NodeError::UnknownFlags { flags } => assert_eq!(flags, bad_nibble),
                e => panic!("flag nibble {bad_nibble:#x} gave {e}"),
            }
        }
    }

    #[test]
    fn ext_reader_still_bounds_hostile_lengths() {
        // FLAG_TRACE plus a hostile 28-bit length: the flag must not
        // smuggle the length past the bound.
        let mut framed = Vec::new();
        framed.extend_from_slice(FRAME_MAGIC);
        framed.extend_from_slice(&(FLAG_TRACE | LEN_BITS).to_le_bytes());
        framed.extend_from_slice(&0u32.to_le_bytes());
        match read_frame_ext(&mut &framed[..]).unwrap_err() {
            NodeError::Oversized { declared } => assert_eq!(declared, LEN_BITS as u64),
            e => panic!("expected Oversized, got {e}"),
        }
    }

    #[test]
    fn corrupt_trace_block_fails_the_frame_crc() {
        let mut framed = Vec::new();
        write_frame_ext(&mut framed, b"guarded", Some(ctx(7, 8))).unwrap();
        // Flip a byte inside the 16-byte trace block (offset 12..28).
        framed[14] ^= 0x40;
        assert!(matches!(
            read_frame_ext(&mut &framed[..]).unwrap_err(),
            NodeError::ChecksumMismatch
        ));
    }

    #[test]
    fn truncated_trace_block_is_truncated_not_misparsed() {
        let mut framed = Vec::new();
        write_frame_ext(&mut framed, b"cut me", Some(ctx(7, 8))).unwrap();
        for cut in 13..12 + TraceContext::WIRE_LEN {
            match read_frame_ext(&mut &framed[..cut]) {
                Err(NodeError::Truncated { context }) => assert_eq!(context, "trace context"),
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn stats_request_and_reply_roundtrip() {
        let request = Request::Stats { seq: 31 };
        assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        let reply = Reply::Stats { seq: 31, json: "{\"metrics\": {}}".into() };
        let decoded = decode_reply(&encode_reply(&reply)).unwrap();
        assert_eq!(decoded, reply);
        assert_eq!(decoded.seq(), 31);
        // Trailing bytes after a Stats request are malformed.
        let mut bytes = encode_request(&request);
        bytes.push(0);
        assert!(matches!(decode_request(&bytes).unwrap_err(), NodeError::Malformed(_)));
    }

    #[test]
    fn replies_roundtrip() {
        let replies = [
            Reply::Scored { seq: 1, scores: vec![1.0, -0.0, f32::MIN_POSITIVE] },
            Reply::Shed { seq: 2, cause: ShedCause::QueueFull },
            Reply::Shed { seq: 3, cause: ShedCause::Backlog },
            Reply::ShipApplied { seq: 4, sections: 9 },
            Reply::Error { seq: 5, message: "broken".into() },
            Reply::Stats { seq: 6, json: "{}".into() },
        ];
        for reply in &replies {
            let decoded = decode_reply(&encode_reply(reply)).unwrap();
            assert_eq!(&decoded, reply);
            assert_eq!(decoded.seq(), reply.seq());
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_malformed() {
        let mut w = StateWriter::new();
        w.put_u8(99);
        assert!(matches!(decode_request(&w.into_bytes()).unwrap_err(), NodeError::Malformed(_)));
        let mut w = StateWriter::new();
        w.put_u8(99);
        assert!(matches!(decode_reply(&w.into_bytes()).unwrap_err(), NodeError::Malformed(_)));

        let mut encoded = encode_request(&Request::Score {
            seq: 1,
            stream: 1,
            droppable: false,
            samples: vec![],
        });
        encoded.push(0);
        assert!(matches!(decode_request(&encoded).unwrap_err(), NodeError::Malformed(_)));
    }

    #[test]
    fn hostile_sample_count_is_rejected_before_allocation() {
        // A Score request claiming 2^61 samples in a tiny payload: the
        // codec must refuse on remaining-bytes grounds, not try to
        // materialize them.
        let mut w = StateWriter::new();
        w.put_u8(1); // TAG_SCORE
        w.put_u64(1); // seq
        w.put_u64(0); // stream
        w.put_u8(0); // droppable
        w.put_u64(1 << 61); // sample count
        assert!(matches!(decode_request(&w.into_bytes()).unwrap_err(), NodeError::Malformed(_)));
    }
}
