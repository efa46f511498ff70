//! [`RemoteStore`]: a [`RangeStore`] whose backend lives across a TCP
//! connection.
//!
//! The client keeps a small pool of connections, **pipelines** requests
//! (submit never waits for earlier responses), and resolves tickets
//! from one demultiplexer thread per connection as response frames
//! arrive — in whatever order the server resolved them, re-correlated
//! by request id. To a caller, a remote store is indistinguishable from
//! a local backend: same tickets, same responses, same sequence
//! numbers, same error vocabulary. The differential proptest runs over
//! it unchanged.
//!
//! # Error mapping
//!
//! Transport failures are folded onto the client contract's existing
//! error vocabulary instead of inventing a parallel one:
//!
//! * connect/handshake problems — [`NetError`], before a store exists;
//! * a request too large for the server's advertised capacity, or whose
//!   encoding exceeds the wire's frame cap —
//!   [`SubmitError::RequestTooLarge`], decided locally (sent anyway, the
//!   frame would be refused as a protocol error and take the pooled
//!   connection and every other ticket in flight on it down with it);
//! * more in-flight ops than the advertised capacity —
//!   [`SubmitError::Overloaded`], decided locally (the Hello frame
//!   advertises the server's admission bound exactly so the client can
//!   reproduce local admission behavior without a round trip);
//! * a dead connection pool — [`SubmitError::ShutDown`];
//! * a connection dying with requests in flight — their tickets resolve
//!   [`ServiceError::ShuttingDown`], the same outcome an in-process
//!   store's drop gives its orphans.

use std::collections::HashMap;
use std::io::Write;
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ddrs_check::TrackedMutex;
use ddrs_client::{
    ticket, RangeStore, Request, Resolver, Response, ServiceError, SubmitError, Ticket,
};
use ddrs_rangetree::Semigroup;
use ddrs_trace::{complete, now_ns, SpanId, Stage};

use crate::codec::{
    decode_server_msg, encode_request, read_frame, RefusedReason, ServerMsg, WireValue,
    MAX_FRAME_PAYLOAD,
};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Pooled connections; requests round-robin across them and every
    /// connection pipelines independently.
    pub connections: usize,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig { connections: 2 }
    }
}

/// A connect-time or protocol-level failure of the remote client.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed before a usable connection existed.
    Io(std::io::Error),
    /// The server turned the connection away with a typed refusal.
    Refused {
        /// Why the server said no.
        reason: RefusedReason,
        /// The server's diagnostic.
        detail: String,
    },
    /// The handshake violated the protocol.
    Protocol(String),
    /// The server stores points of a different dimension than this
    /// client's `D` — every query would be garbage, so connecting is
    /// refused outright.
    DimensionMismatch {
        /// The dimension the server's Hello advertised.
        server: u8,
        /// This client's compile-time dimension.
        client: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "connect failed: {e}"),
            NetError::Refused { reason, detail } => {
                let r = match reason {
                    RefusedReason::AtCapacity => "at capacity",
                    RefusedReason::Draining => "draining",
                    RefusedReason::Protocol => "protocol violation",
                };
                write!(f, "server refused connection ({r}): {detail}")
            }
            NetError::Protocol(msg) => write!(f, "handshake protocol violation: {msg}"),
            NetError::DimensionMismatch { server, client } => {
                write!(f, "server stores {server}-dimensional points, client expects {client}")
            }
        }
    }
}

impl std::error::Error for NetError {}

struct Pending<S: Semigroup> {
    resolver: Resolver<Response<S>>,
    ops: usize,
    span: SpanId,
    sent_ns: u64,
}

struct Conn<S: Semigroup> {
    /// The write half; one frame is written per lock hold, so frames
    /// from concurrent submitters never interleave.
    stream: TrackedMutex<TcpStream>,
    /// In-flight requests awaiting their response frame, by request id.
    pending: TrackedMutex<HashMap<u64, Pending<S>>>,
    dead: AtomicBool,
}

/// A [`RangeStore`] client for a [`NetServer`](crate::NetServer).
///
/// ```no_run
/// use ddrs_client::{RangeStore, Request};
/// use ddrs_net::{RemoteConfig, RemoteStore};
/// use ddrs_rangetree::{Rect, Sum};
///
/// let store: RemoteStore<Sum, 2> =
///     RemoteStore::connect("127.0.0.1:4771", RemoteConfig::default()).unwrap();
/// let mut req = Request::new();
/// let c = req.count(Rect::new([0, 0], [10, 10]));
/// let resp = store.submit(req).unwrap().wait().unwrap().value;
/// println!("{} points in range", resp.count(c));
/// ```
pub struct RemoteStore<S: Semigroup, const D: usize> {
    conns: Vec<Arc<Conn<S>>>,
    demux: Vec<JoinHandle<()>>,
    next: AtomicUsize,
    next_req: AtomicU64,
    /// The server's advertised admission bound, from the Hello frame.
    capacity: usize,
    /// Ops currently in flight across the whole pool; admission is
    /// enforced against `capacity` locally.
    inflight: Arc<AtomicUsize>,
    _dim: PhantomData<[(); D]>,
}

impl<S: Semigroup, const D: usize> std::fmt::Debug for RemoteStore<S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("connections", &self.conns.len())
            .field("capacity", &self.capacity)
            .field("inflight", &self.inflight.load(Ordering::SeqCst))
            .finish()
    }
}

impl<S: Semigroup, const D: usize> RemoteStore<S, D>
where
    S::Val: WireValue,
{
    /// Open `cfg.connections` connections to a server and handshake on
    /// each. Fails fast on refusal, protocol violation, or a dimension
    /// mismatch between the server's store and `D`.
    pub fn connect(addr: impl ToSocketAddrs, cfg: RemoteConfig) -> Result<Self, NetError> {
        assert!(cfg.connections > 0, "a remote store needs at least one connection");
        let addrs: Vec<_> = addr.to_socket_addrs().map_err(NetError::Io)?.collect();
        let inflight = Arc::new(AtomicUsize::new(0));
        let mut conns = Vec::with_capacity(cfg.connections);
        let mut demux = Vec::with_capacity(cfg.connections);
        let mut capacity = None;
        for _ in 0..cfg.connections {
            let stream = TcpStream::connect(&addrs[..]).map_err(NetError::Io)?;
            let _ = stream.set_nodelay(true);
            let mut read_half = stream.try_clone().map_err(NetError::Io)?;
            let payload = match read_frame(&mut read_half) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    return Err(NetError::Protocol("connection closed before hello".into()))
                }
                Err(crate::codec::FrameError::Io(e)) => return Err(NetError::Io(e)),
                Err(crate::codec::FrameError::Protocol(msg)) => {
                    return Err(NetError::Protocol(msg))
                }
            };
            match decode_server_msg::<S>(&payload).map_err(NetError::Protocol)? {
                ServerMsg::Hello { dim, queue_capacity } => {
                    if usize::from(dim) != D {
                        return Err(NetError::DimensionMismatch { server: dim, client: D });
                    }
                    capacity = Some(queue_capacity as usize);
                }
                ServerMsg::Refused { reason, detail } => {
                    return Err(NetError::Refused { reason, detail })
                }
                ServerMsg::Response { .. } => {
                    return Err(NetError::Protocol("response before hello".into()))
                }
            }
            let conn = Arc::new(Conn {
                stream: TrackedMutex::new("net.conn", stream),
                pending: TrackedMutex::new("net.conn", HashMap::new()),
                dead: AtomicBool::new(false),
            });
            demux.push({
                let conn = Arc::clone(&conn);
                let inflight = Arc::clone(&inflight);
                std::thread::spawn(move || demux_loop(conn, read_half, inflight))
            });
            conns.push(conn);
        }
        Ok(RemoteStore {
            conns,
            demux,
            next: AtomicUsize::new(0),
            next_req: AtomicU64::new(0),
            capacity: capacity.expect("at least one connection handshook"),
            inflight,
            _dim: PhantomData,
        })
    }

    /// The server's advertised queue capacity (the local admission
    /// bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ops currently in flight across the pool.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Reserve `ops` slots against the advertised capacity, or report
    /// why not — the same admission verdicts a local backend gives.
    fn admit(&self, ops: usize) -> Result<(), SubmitError> {
        if ops > self.capacity {
            return Err(SubmitError::RequestTooLarge { ops, capacity: self.capacity });
        }
        loop {
            let cur = self.inflight.load(Ordering::SeqCst);
            if cur + ops > self.capacity {
                return Err(SubmitError::Overloaded { depth: cur });
            }
            if self
                .inflight
                .compare_exchange(cur, cur + ops, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// Next live connection, round-robin.
    fn pick(&self) -> Option<&Arc<Conn<S>>> {
        for _ in 0..self.conns.len() {
            let i = self.next.fetch_add(1, Ordering::SeqCst) % self.conns.len();
            if !self.conns[i].dead.load(Ordering::SeqCst) {
                return Some(&self.conns[i]);
            }
        }
        None
    }
}

impl<S: Semigroup, const D: usize> RangeStore<S, D> for RemoteStore<S, D>
where
    S::Val: WireValue,
{
    fn submit(&self, req: Request<S, D>) -> Result<Ticket<Response<S>>, SubmitError> {
        assert!(!req.is_empty(), "an empty request has no response to wait for");
        let ops = req.len();
        self.admit(ops)?;
        let Some(conn) = self.pick() else {
            self.inflight.fetch_sub(ops, Ordering::SeqCst);
            return Err(SubmitError::ShutDown);
        };
        let req_id = self.next_req.fetch_add(1, Ordering::SeqCst);
        let (outer, resolver) = ticket::<Response<S>>();
        let span = outer.span();
        let t0 = now_ns();
        let frame = encode_request(req_id, &req);
        complete(span, Stage::Encode, t0, false);
        if !ddrs_wal::frame::fits(&frame, MAX_FRAME_PAYLOAD) {
            self.inflight.fetch_sub(ops, Ordering::SeqCst);
            return Err(SubmitError::RequestTooLarge { ops, capacity: self.capacity });
        }
        let sent_ns = now_ns();
        {
            let mut pending = conn.pending.lock();
            pending.insert(req_id, Pending { resolver, ops, span, sent_ns });
        }
        // The demux marks a connection dead *before* draining its
        // pending map, so observing `dead == false` here means a
        // concurrent drain will still see our entry; observing `true`
        // means the drain may already have missed it, so we take it
        // back out ourselves (at most one side wins the `remove`).
        if conn.dead.load(Ordering::SeqCst) {
            let taken = {
                let mut pending = conn.pending.lock();
                pending.remove(&req_id)
            };
            if let Some(p) = taken {
                self.inflight.fetch_sub(p.ops, Ordering::SeqCst);
            }
            return Err(SubmitError::ShutDown);
        }
        let wrote = {
            let mut stream = conn.stream.lock();
            stream.write_all(&frame)
        };
        if wrote.is_err() {
            conn.dead.store(true, Ordering::SeqCst);
            let taken = {
                let mut pending = conn.pending.lock();
                pending.remove(&req_id)
            };
            if let Some(p) = taken {
                self.inflight.fetch_sub(p.ops, Ordering::SeqCst);
            }
            return Err(SubmitError::ShutDown);
        }
        Ok(outer)
    }
}

impl<S: Semigroup, const D: usize> Drop for RemoteStore<S, D> {
    fn drop(&mut self) {
        for conn in &self.conns {
            conn.dead.store(true, Ordering::SeqCst);
            let stream = conn.stream.lock();
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for h in self.demux.drain(..) {
            let _ = h.join();
        }
    }
}

/// Per-connection demultiplexer: pulls response frames, re-correlates
/// them by request id, and resolves the waiting tickets. On any
/// transport or protocol failure the connection is marked dead and
/// every still-pending ticket resolves
/// [`ServiceError::ShuttingDown`].
fn demux_loop<S: Semigroup>(
    conn: Arc<Conn<S>>,
    mut read_half: TcpStream,
    inflight: Arc<AtomicUsize>,
) where
    S::Val: WireValue,
{
    while let Ok(Some(payload)) = read_frame(&mut read_half) {
        let t_dec = now_ns();
        let Ok(msg) = decode_server_msg::<S>(&payload) else { break };
        let ServerMsg::Response { req_id, outcome } = msg else {
            // A second Hello or a refusal mid-stream: the server is
            // telling us this connection is done (protocol refusals are
            // terminal by contract).
            break;
        };
        let taken = {
            let mut pending = conn.pending.lock();
            pending.remove(&req_id)
        };
        let Some(p) = taken else {
            // A response for a request we never sent: framing is
            // untrustworthy, stop using the connection.
            break;
        };
        complete(p.span, Stage::Transport, p.sent_ns, false);
        complete(p.span, Stage::Decode, t_dec, outcome.is_err());
        inflight.fetch_sub(p.ops, Ordering::SeqCst);
        p.resolver.resolve(outcome);
    }
    // Dead first, then drain: a submitter that saw `dead == false`
    // inserted early enough for this drain to observe its entry.
    conn.dead.store(true, Ordering::SeqCst);
    let drained: Vec<Pending<S>> = {
        let mut pending = conn.pending.lock();
        pending.drain().map(|(_, p)| p).collect()
    };
    for p in drained {
        inflight.fetch_sub(p.ops, Ordering::SeqCst);
        p.resolver.resolve(Err(ServiceError::ShuttingDown));
    }
}
