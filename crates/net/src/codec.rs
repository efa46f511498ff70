//! The wire codec: CRC-framed binary encoding of the client contract.
//!
//! Every message is one length-prefixed, checksummed
//! [`ddrs_wal::frame`] frame — the frame the write-ahead log uses,
//! under a tighter cap ([`MAX_FRAME_PAYLOAD`]) because the peer is
//! untrusted.
//!
//! # Payload layout
//!
//! All integers little-endian. Every payload starts
//! `u8 protocol version` (currently 1), `u8 message tag`:
//!
//! ```text
//! tag 0  Hello      (server → client, once per connection)
//!        u8 dimension D · u64 advertised queue capacity
//! tag 1  Refused    (server → client, terminal)
//!        u8 reason (0 at-capacity, 1 draining, 2 protocol error)
//!        u32 len · len bytes of UTF-8 diagnostic
//! tag 2  Request    (client → server)
//!        u64 request id
//!        u8 has-deadline [· u64 deadline µs]
//!        u8 consistency (0 latest, 1 at-least) [· u64 seq]
//!        u32 W writes · W × { u8 kind (0 insert, 1 delete) ·
//!            insert: u32 n · n × (u32 id · u64 weight · D × i64 coords)
//!            delete: u32 n · n × u32 id }
//!        u32 C counts  · C × rect        rect = D × i64 lo · D × i64 hi
//!        u32 A aggs    · A × rect
//!        u32 R reports · R × rect
//! tag 3  Response   (server → client)
//!        u64 request id
//!        u8 outcome (0 committed, 1 failed)
//!        committed: u64 seq
//!                   u32 C · C × u64 counts
//!                   u32 A · A × (u8 some [· Val])
//!                   u32 R · R × (u32 n · n × u32 ids)
//!                   u32 W · W × (u8 0 ok | 1 · service-error)
//!        failed:    service-error
//! ```
//!
//! `service-error` is `u8 tag`: 0 deadline-expired, 1 shutting-down,
//! 2 machine failure (`u32 len` + UTF-8 message), 3 rejected
//! (`u8` build-error tag: 0 empty, 1 duplicate-id + `u32`, 2
//! reserved-id), 4 consistency (`u64 required` · `u64 committed`).
//!
//! # Robustness contract
//!
//! Decoding never panics, never reads past the buffer, and never
//! allocates from an untrusted length without a sanity bound: every
//! truncation offset and every single-byte corruption of a valid frame
//! yields either a checksum mismatch or a structured decode error (the
//! `tests/net_codec.rs` battery walks all of them). A decode error is
//! terminal for its connection — there is no resynchronization inside a
//! byte stream whose framing is broken.

use std::io::Read;
use std::time::Duration;

use ddrs_client::{Commit, Consistency, Outcome, Request, Response, ServiceError, WriteOp};
use ddrs_rangetree::{BuildError, Rect, Semigroup};
use ddrs_wal::frame::{self, point_len, put_i64, put_point, put_u32, put_u64};

pub use ddrs_wal::frame::{Reader, FRAME_HEADER};

/// Current protocol version byte.
pub const PROTO_VERSION: u8 = 1;

/// The wire's cap on a frame's payload length: a declared length above
/// this is treated as corruption rather than an allocation request, and
/// neither side sends a frame the other would refuse: both check
/// [`ddrs_wal::frame::fits`] where a frame is handed to a socket, so an
/// over-cap message fails alone instead of killing its connection.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

const MSG_HELLO: u8 = 0;
const MSG_REFUSED: u8 = 1;
const MSG_REQUEST: u8 = 2;
const MSG_RESPONSE: u8 = 3;

/// Why the server turned a connection (or its byte stream) away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusedReason {
    /// The server is at its configured connection limit.
    AtCapacity,
    /// The server is draining for shutdown and accepts no new
    /// connections.
    Draining,
    /// The byte stream violated the protocol; the diagnostic carries
    /// the decode error.
    Protocol,
}

impl RefusedReason {
    fn to_byte(self) -> u8 {
        match self {
            RefusedReason::AtCapacity => 0,
            RefusedReason::Draining => 1,
            RefusedReason::Protocol => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(RefusedReason::AtCapacity),
            1 => Some(RefusedReason::Draining),
            2 => Some(RefusedReason::Protocol),
            _ => None,
        }
    }
}

/// A value that can cross the wire: the aggregation payload of the
/// store's [`Semigroup`]. Implemented for the primitive value types the
/// repo's semigroups use (`u64` for Count/Sum/MaxWeight, `u32` for
/// MinId); a custom semigroup joins the network stack by implementing
/// it for its `Val`.
pub trait WireValue: Sized {
    /// Append the little-endian encoding of `self`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Bounds-checked decode; `None` on truncation.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl WireValue for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl WireValue for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u32()
    }
}

fn header(tag: u8) -> Vec<u8> {
    vec![PROTO_VERSION, tag]
}

/// Encode the per-connection Hello frame the server sends on accept.
pub fn encode_hello(dim: u8, queue_capacity: u64) -> Vec<u8> {
    let mut p = header(MSG_HELLO);
    p.push(dim);
    put_u64(&mut p, queue_capacity);
    frame::wrap(&p)
}

/// Encode a typed refusal frame (terminal for its connection).
pub fn encode_refused(reason: RefusedReason, detail: &str) -> Vec<u8> {
    let mut p = header(MSG_REFUSED);
    p.push(reason.to_byte());
    put_u32(&mut p, detail.len() as u32);
    p.extend_from_slice(detail.as_bytes());
    frame::wrap(&p)
}

fn put_rect<const D: usize>(out: &mut Vec<u8>, q: &Rect<D>) {
    for c in q.lo.iter().chain(&q.hi) {
        put_i64(out, *c);
    }
}

fn put_rects<const D: usize>(out: &mut Vec<u8>, qs: &[Rect<D>]) {
    put_u32(out, qs.len() as u32);
    for q in qs {
        put_rect(out, q);
    }
}

/// Encode a request frame under correlation id `req_id`.
pub fn encode_request<S: Semigroup, const D: usize>(req_id: u64, req: &Request<S, D>) -> Vec<u8> {
    let mut p = header(MSG_REQUEST);
    put_u64(&mut p, req_id);
    match req.queue_deadline() {
        Some(d) => {
            p.push(1);
            // Saturate: wrapping would turn a deadline of over 584 000
            // years into an arbitrary, possibly tiny, one.
            put_u64(&mut p, u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        }
        None => p.push(0),
    }
    match req.read_consistency() {
        Consistency::Latest => p.push(0),
        Consistency::AtLeast(seq) => {
            p.push(1);
            put_u64(&mut p, seq);
        }
    }
    put_u32(&mut p, req.writes() as u32);
    for w in req.write_ops() {
        match w {
            WriteOp::Insert(pts) => {
                p.push(0);
                put_u32(&mut p, pts.len() as u32);
                for pt in pts {
                    put_point(&mut p, pt);
                }
            }
            WriteOp::Delete(ids) => {
                p.push(1);
                put_u32(&mut p, ids.len() as u32);
                for id in ids {
                    put_u32(&mut p, *id);
                }
            }
        }
    }
    put_rects(&mut p, req.count_queries());
    put_rects(&mut p, req.aggregate_queries());
    put_rects(&mut p, req.report_queries());
    frame::wrap(&p)
}

fn take_rect<const D: usize>(r: &mut Reader<'_>) -> Option<Rect<D>> {
    let mut lo = [0i64; D];
    for c in &mut lo {
        *c = r.i64()?;
    }
    let mut hi = [0i64; D];
    for c in &mut hi {
        *c = r.i64()?;
    }
    Some(Rect { lo, hi })
}

fn take_rects<const D: usize>(r: &mut Reader<'_>, what: &str) -> Result<Vec<Rect<D>>, String> {
    let n = r.count(16 * D, what)?;
    let mut qs = Vec::with_capacity(n);
    for _ in 0..n {
        qs.push(take_rect(r).ok_or_else(|| format!("truncated {what} rect"))?);
    }
    Ok(qs)
}

fn expect_header(r: &mut Reader<'_>, tag: u8, what: &str) -> Result<(), String> {
    let version = r.u8().ok_or("payload shorter than version byte")?;
    if version != PROTO_VERSION {
        return Err(format!("unsupported protocol version {version}"));
    }
    let got = r.u8().ok_or("payload shorter than message tag")?;
    if got != tag {
        return Err(format!("expected a {what} message, got tag {got}"));
    }
    Ok(())
}

/// Decode a request payload into the correlation id and a rebuilt
/// [`Request`]. Rejects anything that is not a structurally complete,
/// non-empty request — including trailing bytes, which on a framed
/// stream can only mean corruption the checksum missed.
pub fn decode_request<S: Semigroup, const D: usize>(
    payload: &[u8],
) -> Result<(u64, Request<S, D>), String> {
    let mut r = Reader::new(payload);
    expect_header(&mut r, MSG_REQUEST, "request")?;
    let req_id = r.u64().ok_or("truncated request id")?;
    let mut req = Request::new();
    match r.u8().ok_or("truncated deadline flag")? {
        0 => {}
        1 => {
            let us = r.u64().ok_or("truncated deadline")?;
            req.deadline(Some(Duration::from_micros(us)));
        }
        b => return Err(format!("bad deadline flag {b}")),
    }
    match r.u8().ok_or("truncated consistency tag")? {
        0 => {}
        1 => {
            let seq = r.u64().ok_or("truncated consistency bound")?;
            req.consistency(Consistency::AtLeast(seq));
        }
        b => return Err(format!("bad consistency tag {b}")),
    }
    let nw = r.count(5, "write")?;
    for _ in 0..nw {
        match r.u8().ok_or("truncated write kind")? {
            0 => {
                let n = r.count(point_len(D), "insert point")?;
                let mut pts = Vec::with_capacity(n);
                for _ in 0..n {
                    pts.push(r.point().ok_or("truncated insert point")?);
                }
                req.insert(pts);
            }
            1 => {
                let n = r.count(4, "delete id")?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.u32().ok_or("truncated delete id")?);
                }
                req.delete(ids);
            }
            b => return Err(format!("bad write kind {b}")),
        }
    }
    for q in take_rects::<D>(&mut r, "count")? {
        req.count(q);
    }
    for q in take_rects::<D>(&mut r, "aggregate")? {
        req.aggregate(q);
    }
    for q in take_rects::<D>(&mut r, "report")? {
        req.report(q);
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", r.remaining()));
    }
    if req.is_empty() {
        // Submitting an empty request is a caller-side contract panic;
        // bytes claiming one are a protocol error, never a panic.
        return Err("empty request".into());
    }
    Ok((req_id, req))
}

fn put_service_error(out: &mut Vec<u8>, e: &ServiceError) {
    match e {
        ServiceError::DeadlineExpired => out.push(0),
        ServiceError::ShuttingDown => out.push(1),
        ServiceError::Machine(msg) => {
            out.push(2);
            put_u32(out, msg.len() as u32);
            out.extend_from_slice(msg.as_bytes());
        }
        ServiceError::Rejected(b) => {
            out.push(3);
            match b {
                BuildError::Empty => out.push(0),
                BuildError::DuplicateId(id) => {
                    out.push(1);
                    put_u32(out, *id);
                }
                BuildError::ReservedId => out.push(2),
            }
        }
        ServiceError::Consistency { required, committed } => {
            out.push(4);
            put_u64(out, *required);
            put_u64(out, *committed);
        }
    }
}

fn take_service_error(r: &mut Reader<'_>) -> Result<ServiceError, String> {
    match r.u8().ok_or("truncated error tag")? {
        0 => Ok(ServiceError::DeadlineExpired),
        1 => Ok(ServiceError::ShuttingDown),
        2 => {
            let n = r.u32().ok_or("truncated machine-error length")? as usize;
            let bytes = r.take(n).ok_or("truncated machine-error message")?;
            Ok(ServiceError::Machine(String::from_utf8_lossy(bytes).into_owned()))
        }
        3 => match r.u8().ok_or("truncated rejection tag")? {
            0 => Ok(ServiceError::Rejected(BuildError::Empty)),
            1 => {
                let id = r.u32().ok_or("truncated duplicate id")?;
                Ok(ServiceError::Rejected(BuildError::DuplicateId(id)))
            }
            2 => Ok(ServiceError::Rejected(BuildError::ReservedId)),
            b => Err(format!("bad rejection tag {b}")),
        },
        4 => {
            let required = r.u64().ok_or("truncated consistency bound")?;
            let committed = r.u64().ok_or("truncated commit count")?;
            Ok(ServiceError::Consistency { required, committed })
        }
        b => Err(format!("bad error tag {b}")),
    }
}

/// Encode a response frame for `req_id`: the request's whole outcome —
/// committed response or service error — exactly as a local backend
/// would resolve the ticket.
pub fn encode_response<S: Semigroup>(req_id: u64, out: &Outcome<Response<S>>) -> Vec<u8>
where
    S::Val: WireValue,
{
    let mut p = header(MSG_RESPONSE);
    put_u64(&mut p, req_id);
    match out {
        Ok(c) => {
            p.push(0);
            put_u64(&mut p, c.seq);
            put_u32(&mut p, c.value.counts.len() as u32);
            for n in &c.value.counts {
                put_u64(&mut p, *n);
            }
            put_u32(&mut p, c.value.aggregates.len() as u32);
            for a in &c.value.aggregates {
                match a {
                    Some(v) => {
                        p.push(1);
                        v.encode(&mut p);
                    }
                    None => p.push(0),
                }
            }
            put_u32(&mut p, c.value.reports.len() as u32);
            for ids in &c.value.reports {
                put_u32(&mut p, ids.len() as u32);
                for id in ids {
                    put_u32(&mut p, *id);
                }
            }
            put_u32(&mut p, c.value.writes.len() as u32);
            for w in &c.value.writes {
                match w {
                    Ok(()) => p.push(0),
                    Err(e) => {
                        p.push(1);
                        put_service_error(&mut p, e);
                    }
                }
            }
        }
        Err(e) => {
            p.push(1);
            put_service_error(&mut p, e);
        }
    }
    frame::wrap(&p)
}

fn take_response<S: Semigroup>(r: &mut Reader<'_>) -> Result<Outcome<Response<S>>, String>
where
    S::Val: WireValue,
{
    match r.u8().ok_or("truncated outcome tag")? {
        0 => {
            let seq = r.u64().ok_or("truncated commit seq")?;
            let nc = r.count(8, "count result")?;
            let mut counts = Vec::with_capacity(nc);
            for _ in 0..nc {
                counts.push(r.u64().ok_or("truncated count result")?);
            }
            let na = r.count(1, "aggregate result")?;
            let mut aggregates = Vec::with_capacity(na);
            for _ in 0..na {
                aggregates.push(match r.u8().ok_or("truncated aggregate flag")? {
                    0 => None,
                    1 => Some(S::Val::decode(r).ok_or("truncated aggregate value")?),
                    b => return Err(format!("bad aggregate flag {b}")),
                });
            }
            let nr = r.count(4, "report result")?;
            let mut reports = Vec::with_capacity(nr);
            for _ in 0..nr {
                let n = r.count(4, "report id")?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.u32().ok_or("truncated report id")?);
                }
                reports.push(ids);
            }
            let nw = r.count(1, "verdict")?;
            let mut writes = Vec::with_capacity(nw);
            for _ in 0..nw {
                writes.push(match r.u8().ok_or("truncated verdict")? {
                    0 => Ok(()),
                    1 => Err(take_service_error(r)?),
                    b => return Err(format!("bad verdict tag {b}")),
                });
            }
            Ok(Ok(Commit { value: Response { counts, aggregates, reports, writes }, seq }))
        }
        1 => Ok(Err(take_service_error(r)?)),
        b => Err(format!("bad outcome tag {b}")),
    }
}

/// A decoded server→client message.
pub enum ServerMsg<S: Semigroup> {
    /// The per-connection handshake.
    Hello {
        /// The server store's dimension, for cross-checking against the
        /// client's `D`.
        dim: u8,
        /// The server's advertised queue capacity; the remote client
        /// enforces admission against it locally.
        queue_capacity: u64,
    },
    /// A typed refusal; terminal for the connection.
    Refused {
        /// Why the server turned the connection away.
        reason: RefusedReason,
        /// Human-readable diagnostic.
        detail: String,
    },
    /// The outcome of one request.
    Response {
        /// Correlation id echoed from the request.
        req_id: u64,
        /// The request's outcome, exactly as a local ticket would
        /// resolve.
        outcome: Outcome<Response<S>>,
    },
}

/// Decode one server→client payload.
pub fn decode_server_msg<S: Semigroup>(payload: &[u8]) -> Result<ServerMsg<S>, String>
where
    S::Val: WireValue,
{
    let mut r = Reader::new(payload);
    let version = r.u8().ok_or("payload shorter than version byte")?;
    if version != PROTO_VERSION {
        return Err(format!("unsupported protocol version {version}"));
    }
    let msg = match r.u8().ok_or("payload shorter than message tag")? {
        MSG_HELLO => {
            let dim = r.u8().ok_or("truncated hello dimension")?;
            let queue_capacity = r.u64().ok_or("truncated hello capacity")?;
            ServerMsg::Hello { dim, queue_capacity }
        }
        MSG_REFUSED => {
            let reason = r.u8().and_then(RefusedReason::from_byte).ok_or("bad refusal reason")?;
            let n = r.u32().ok_or("truncated refusal length")? as usize;
            let bytes = r.take(n).ok_or("truncated refusal detail")?;
            ServerMsg::Refused { reason, detail: String::from_utf8_lossy(bytes).into_owned() }
        }
        MSG_RESPONSE => {
            let req_id = r.u64().ok_or("truncated response id")?;
            ServerMsg::Response { req_id, outcome: take_response::<S>(&mut r)? }
        }
        b => return Err(format!("unexpected message tag {b}")),
    };
    if r.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", r.remaining()));
    }
    Ok(msg)
}

/// A failure while pulling one frame off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed (including read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut` io errors).
    Io(std::io::Error),
    /// The bytes violated the framing (truncated header/payload,
    /// over-cap length, checksum mismatch). Terminal for the stream.
    Protocol(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport failure: {e}"),
            FrameError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

/// Read exactly one frame off `stream` and verify its checksum.
/// `Ok(None)` is a clean end-of-stream on a frame boundary; EOF
/// anywhere else is a [`FrameError::Protocol`].
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut hdr = [0u8; FRAME_HEADER];
    let mut got = 0usize;
    while got < FRAME_HEADER {
        match stream.read(&mut hdr[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Protocol("truncated frame header".into()))
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let (len, stored_crc) =
        frame::parse_header(hdr, MAX_FRAME_PAYLOAD).map_err(FrameError::Protocol)?;
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < payload.len() {
        match stream.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Protocol("truncated frame payload".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    frame::verify(&payload, stored_crc).map_err(FrameError::Protocol)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrs_rangetree::{Point, Sum};

    fn sample_request() -> Request<Sum, 2> {
        let mut req = Request::new();
        req.insert(vec![Point::weighted([3, 4], 7, 2), Point::weighted([5, 6], 8, 1)]);
        req.delete(vec![1, 2]);
        req.count(Rect::new([0, 0], [10, 10]));
        req.aggregate(Rect::new([1, 1], [9, 9]));
        req.report(Rect::new([2, 2], [8, 8]));
        req.deadline(Some(Duration::from_millis(250)));
        req.consistency(Consistency::AtLeast(41));
        req
    }

    #[test]
    fn request_roundtrips() {
        let req = sample_request();
        let frame = encode_request(99, &req);
        let (id, back) =
            decode_request::<Sum, 2>(&frame[FRAME_HEADER..]).expect("roundtrip decodes");
        assert_eq!(id, 99);
        assert_eq!(back.count_queries(), req.count_queries());
        assert_eq!(back.aggregate_queries(), req.aggregate_queries());
        assert_eq!(back.report_queries(), req.report_queries());
        assert_eq!(back.queue_deadline(), req.queue_deadline());
        assert_eq!(back.read_consistency(), req.read_consistency());
        assert_eq!(back.writes(), req.writes());
        assert!(back.write_ops().eq(req.write_ops()));
    }

    #[test]
    fn a_deadline_past_u64_micros_saturates() {
        for too_long in [Duration::from_secs(u64::MAX / 1_000_000 + 1), Duration::MAX] {
            let mut req = sample_request();
            req.deadline(Some(too_long));
            let frame = encode_request(1, &req);
            let (_, back) = decode_request::<Sum, 2>(&frame[FRAME_HEADER..]).unwrap();
            assert_eq!(back.queue_deadline(), Some(Duration::from_micros(u64::MAX)));
        }
    }

    #[test]
    fn response_roundtrips_both_arms() {
        let resp: Response<Sum> = Response {
            counts: vec![4, 0],
            aggregates: vec![Some(17), None],
            reports: vec![vec![1, 2, 3]],
            writes: vec![Ok(()), Err(ServiceError::Rejected(BuildError::DuplicateId(7)))],
        };
        let frame = encode_response::<Sum>(5, &Ok(Commit { value: resp, seq: 12 }));
        let ServerMsg::Response { req_id, outcome } =
            decode_server_msg::<Sum>(&frame[FRAME_HEADER..]).expect("decodes")
        else {
            panic!("expected a response message");
        };
        assert_eq!(req_id, 5);
        let commit = outcome.expect("committed arm");
        assert_eq!(commit.seq, 12);
        assert_eq!(commit.value.counts, vec![4, 0]);
        assert_eq!(commit.value.aggregates, vec![Some(17), None]);
        assert_eq!(commit.value.reports, vec![vec![1, 2, 3]]);
        assert_eq!(
            commit.value.writes,
            vec![Ok(()), Err(ServiceError::Rejected(BuildError::DuplicateId(7)))]
        );

        let frame = encode_response::<Sum>(
            6,
            &Err(ServiceError::Consistency { required: 9, committed: 3 }),
        );
        let ServerMsg::Response { outcome, .. } =
            decode_server_msg::<Sum>(&frame[FRAME_HEADER..]).expect("decodes")
        else {
            panic!("expected a response message");
        };
        assert_eq!(outcome, Err(ServiceError::Consistency { required: 9, committed: 3 }));
    }

    #[test]
    fn hello_and_refused_roundtrip() {
        let frame = encode_hello(2, 4096);
        match decode_server_msg::<Sum>(&frame[FRAME_HEADER..]).expect("decodes") {
            ServerMsg::Hello { dim, queue_capacity } => {
                assert_eq!((dim, queue_capacity), (2, 4096));
            }
            _ => panic!("expected hello"),
        }
        let frame = encode_refused(RefusedReason::AtCapacity, "16 of 16 connections in use");
        match decode_server_msg::<Sum>(&frame[FRAME_HEADER..]).expect("decodes") {
            ServerMsg::Refused { reason, detail } => {
                assert_eq!(reason, RefusedReason::AtCapacity);
                assert!(detail.contains("16"));
            }
            _ => panic!("expected refusal"),
        }
    }

    #[test]
    fn empty_request_is_a_decode_error_not_a_panic() {
        let req: Request<Sum, 2> = Request::new();
        let frame = encode_request(1, &req);
        let err = decode_request::<Sum, 2>(&frame[FRAME_HEADER..]).unwrap_err();
        assert!(err.contains("empty"), "got: {err}");
    }

    #[test]
    fn read_frame_detects_corruption_and_clean_eof() {
        let frame = encode_hello(2, 64);
        let mut cursor = std::io::Cursor::new(frame.clone());
        assert!(read_frame(&mut cursor).expect("valid frame").is_some());
        assert!(read_frame(&mut cursor).expect("clean eof").is_none());

        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        let mut cursor = std::io::Cursor::new(bad);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Protocol(_))));

        let mut torn = frame;
        torn.truncate(FRAME_HEADER + 2);
        let mut cursor = std::io::Cursor::new(torn);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Protocol(_))));
    }
}
