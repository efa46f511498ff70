//! The TCP front-end: accept loop, per-connection reader/writer pair,
//! and graceful drain.
//!
//! # Threading model
//!
//! One **accept thread** owns the listener. Each admitted connection
//! gets a **reader thread** (decodes request frames, submits into the
//! store) and a **writer thread** (serializes response frames onto the
//! socket, fed by an in-process channel). Responses resolve on whatever
//! thread the store resolves tickets on — a [`Ticket::on_resolve`]
//! callback encodes the outcome and hands the frame to the writer, so
//! responses flow back **out of order** and are re-correlated client
//! side by request id. The reader never blocks on the store's answers;
//! a connection can have its whole window of requests in flight at
//! once.
//!
//! # Drain semantics
//!
//! [`NetServer::begin_shutdown`] stops accepting, half-closes every
//! connection's read side (readers see EOF and stop admitting), then
//! joins every reader thread the server ever spawned — including those
//! whose connection had already closed. Each reader in turn joins its
//! writer — and the writer only exits once every in-flight response
//! callback has fired and released its channel handle. When
//! `begin_shutdown` returns, every admitted request has had its
//! response flushed to the socket and no server thread still holds the
//! store.
//!
//! [`Ticket::on_resolve`]: ddrs_client::Ticket::on_resolve

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use ddrs_check::TrackedMutex;
use ddrs_client::{RangeStore, ServiceError, SubmitError};
use ddrs_rangetree::Semigroup;
use ddrs_trace::{complete, now_ns, Stage};

use crate::codec::{
    decode_request, encode_hello, encode_refused, encode_response, read_frame, FrameError,
    RefusedReason, WireValue, MAX_FRAME_PAYLOAD,
};
use crate::stats::{Counters, NetStats};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Connections served concurrently; arrivals beyond this are turned
    /// away with a typed [`RefusedReason::AtCapacity`] frame.
    pub max_connections: usize,
    /// Read deadline per connection: a connection idle longer than this
    /// is reaped (`None` waits forever).
    pub read_timeout: Option<Duration>,
    /// The queue capacity advertised in the Hello frame. The
    /// [`RangeStore`] trait has no capacity accessor, so the config
    /// carries it; set it to the served store's admission bound (the
    /// default matches `ShardedConfig`'s default) and the remote client
    /// will reproduce the store's local admission behavior.
    pub queue_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            queue_capacity: 4096,
        }
    }
}

struct ConnEntry {
    /// A clone of the connection's stream held for drain: shutting down
    /// its read half pops the reader out of its blocking read.
    stream: TcpStream,
    reader: JoinHandle<()>,
}

/// The connection registry: what drain must half-close and join.
#[derive(Default)]
struct Conns {
    /// Connections being served; its size is what the connection limit
    /// counts.
    live: HashMap<u64, ConnEntry>,
    /// Readers whose connection has closed. A reader moves its own
    /// handle here on its way out (it cannot join itself), and the next
    /// accept or the drain joins it — so no reader thread, and with it
    /// no handle on the store, outlives `shutdown`.
    finished: Vec<JoinHandle<()>>,
}

struct Inner<S: Semigroup, const D: usize> {
    store: Box<dyn RangeStore<S, D> + Send + Sync>,
    cfg: NetConfig,
    stats: Counters,
    draining: AtomicBool,
    conns: TrackedMutex<Conns>,
    next_conn: AtomicU64,
    local: SocketAddr,
}

/// A listening network front-end over one [`RangeStore`].
///
/// ```no_run
/// use ddrs_client::InlineStore;
/// use ddrs_net::{NetConfig, NetServer};
/// # use ddrs_cgm::Machine;
/// # use ddrs_rangetree::{DynamicDistRangeTree, Sum};
/// # let machine = Machine::new(1).unwrap();
/// # let tree = DynamicDistRangeTree::<2>::new(8);
/// let store = InlineStore::new(machine, tree, Sum);
/// let server =
///     NetServer::serve(Box::new(store), "127.0.0.1:0", NetConfig::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// # server.shutdown();
/// ```
pub struct NetServer<S: Semigroup, const D: usize> {
    inner: Arc<Inner<S, D>>,
    accept: Option<JoinHandle<()>>,
}

impl<S: Semigroup, const D: usize> NetServer<S, D>
where
    S::Val: WireValue,
{
    /// Bind `addr` and serve `store` until shutdown. Every connection
    /// is greeted with a Hello frame carrying the store's dimension and
    /// the configured queue capacity.
    pub fn serve(
        store: Box<dyn RangeStore<S, D> + Send + Sync>,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<Self> {
        assert!(D <= u8::MAX as usize, "wire protocol caps the dimension at 255");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            store,
            cfg,
            stats: Counters::default(),
            draining: AtomicBool::new(false),
            conns: TrackedMutex::new("net.conn", Conns::default()),
            next_conn: AtomicU64::new(0),
            local,
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(inner, listener))
        };
        Ok(NetServer { inner, accept: Some(accept) })
    }
}

impl<S: Semigroup, const D: usize> NetServer<S, D> {
    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local
    }

    /// Snapshot the server's counters.
    pub fn stats(&self) -> NetStats {
        self.inner.stats.snapshot()
    }

    /// Publish the current counters into `reg` under `prefix`
    /// (see [`NetStats::register_into`]).
    pub fn register_into(&self, reg: &ddrs_trace::MetricsRegistry, prefix: &str) {
        self.stats().register_into(reg, prefix);
    }

    /// Stop accepting, drain every in-flight response to its socket,
    /// and close all connections. Idempotent; returns once every
    /// admitted request has had its response flushed (or its
    /// connection observed to be gone).
    pub fn begin_shutdown(&self) {
        if self.inner.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Pop the accept thread out of its blocking accept; it observes
        // `draining` and exits, dropping (closing) the listener.
        drop(TcpStream::connect(self.inner.local));
        let (drained, finished): (Vec<ConnEntry>, Vec<JoinHandle<()>>) = {
            let mut conns = self.inner.conns.lock();
            (conns.live.drain().map(|(_, e)| e).collect(), std::mem::take(&mut conns.finished))
        };
        for e in &drained {
            // Readers blocked in a frame read see EOF and stop
            // admitting; everything already admitted still resolves.
            let _ = e.stream.shutdown(std::net::Shutdown::Read);
        }
        for reader in drained.into_iter().map(|e| e.reader).chain(finished) {
            let _ = reader.join();
        }
    }

    /// Drain ([`begin_shutdown`](NetServer::begin_shutdown)) and join
    /// the accept thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl<S: Semigroup, const D: usize> Drop for NetServer<S, D> {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn refuse(mut stream: TcpStream, reason: RefusedReason, detail: &str) {
    let _ = stream.write_all(&encode_refused(reason, detail));
    let _ = stream.flush();
}

fn accept_loop<S: Semigroup, const D: usize>(inner: Arc<Inner<S, D>>, listener: TcpListener)
where
    S::Val: WireValue,
{
    loop {
        let Ok((stream, _)) = listener.accept() else { break };
        if inner.draining.load(Ordering::SeqCst) {
            inner.stats.bump(&inner.stats.refused);
            refuse(stream, RefusedReason::Draining, "server is draining");
            break;
        }
        admit(&inner, stream);
    }
}

fn admit<S: Semigroup, const D: usize>(inner: &Arc<Inner<S, D>>, mut stream: TcpStream)
where
    S::Val: WireValue,
{
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(inner.cfg.read_timeout);
    let id = inner.next_conn.fetch_add(1, Ordering::SeqCst);
    let (shutdown_clone, writer_clone) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return,
    };
    // Reap the readers of connections that have closed since the last
    // accept; they are past their last use of the registry.
    let finished = std::mem::take(&mut inner.conns.lock().finished);
    for reader in finished {
        let _ = reader.join();
    }
    // Admission is decided under the connection map lock so a drain
    // that races with an accept either sees the entry (and joins it)
    // or wins the flag check here (and the connection is refused).
    let mut conns = inner.conns.lock();
    if inner.draining.load(Ordering::SeqCst) {
        drop(conns);
        inner.stats.bump(&inner.stats.refused);
        refuse(stream, RefusedReason::Draining, "server is draining");
        return;
    }
    if conns.live.len() >= inner.cfg.max_connections {
        let n = inner.cfg.max_connections;
        drop(conns);
        inner.stats.bump(&inner.stats.refused);
        refuse(stream, RefusedReason::AtCapacity, &format!("{n} of {n} connections in use"));
        return;
    }
    if stream.write_all(&encode_hello(D as u8, inner.cfg.queue_capacity as u64)).is_err() {
        return;
    }
    inner.stats.bump(&inner.stats.accepted);
    inner.stats.bump(&inner.stats.active);
    let reader = {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || serve_conn(inner, id, stream, writer_clone))
    };
    conns.live.insert(id, ConnEntry { stream: shutdown_clone, reader });
}

/// The per-connection reader: pulls frames, decodes, submits, and wires
/// each ticket's resolution back to the writer. Owns the writer thread
/// for its lifetime.
fn serve_conn<S: Semigroup, const D: usize>(
    inner: Arc<Inner<S, D>>,
    id: u64,
    mut read_half: TcpStream,
    mut write_half: TcpStream,
) where
    S::Val: WireValue,
{
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let writer = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || {
            // Keep draining the channel even after the socket breaks so
            // every response callback is accounted (flushed or dropped)
            // and the channel disconnects cleanly.
            let mut broken = false;
            while let Ok(frame) = rx.recv() {
                if !broken && write_half.write_all(&frame).is_ok() {
                    inner.stats.bump(&inner.stats.responses);
                } else {
                    broken = true;
                    inner.stats.bump(&inner.stats.responses_dropped);
                }
            }
            let _ = write_half.shutdown(std::net::Shutdown::Both);
        })
    };
    loop {
        let t0 = now_ns();
        let payload = match read_frame(&mut read_half) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean disconnect
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                inner.stats.bump(&inner.stats.read_timeouts);
                break;
            }
            Err(FrameError::Io(_)) => break,
            Err(FrameError::Protocol(msg)) => {
                inner.stats.bump(&inner.stats.decode_errors);
                let _ = tx.send(encode_refused(RefusedReason::Protocol, &msg));
                break;
            }
        };
        let (req_id, req) = match decode_request::<S, D>(&payload) {
            Ok(v) => v,
            Err(msg) => {
                inner.stats.bump(&inner.stats.decode_errors);
                let _ = tx.send(encode_refused(RefusedReason::Protocol, &msg));
                break;
            }
        };
        match inner.store.submit(req) {
            Ok(ticket) => {
                inner.stats.bump(&inner.stats.requests);
                let span = ticket.span();
                complete(span, Stage::Decode, t0, false);
                let tx = tx.clone();
                let inner = Arc::clone(&inner);
                ticket.on_resolve(move |out| {
                    let t_enc = now_ns();
                    let mut frame = encode_response::<S>(req_id, &out);
                    if !ddrs_wal::frame::fits(&frame, MAX_FRAME_PAYLOAD) {
                        // The client would refuse it as a protocol error
                        // and drop the connection; fail this request alone.
                        let e = ServiceError::Machine(format!(
                            "response of {} bytes exceeds the wire's frame cap",
                            frame.len()
                        ));
                        frame = encode_response::<S>(req_id, &Err(e));
                    }
                    complete(span, Stage::Encode, t_enc, out.is_err());
                    if tx.send(frame).is_err() {
                        // The writer is gone entirely (its channel is
                        // closed); flushed-vs-dropped is otherwise the
                        // writer's call.
                        inner.stats.bump(&inner.stats.responses_dropped);
                    }
                    // Let go of the server (and with it the store)
                    // before the channel handle whose release lets the
                    // writer, the reader and then `shutdown` finish.
                    drop(inner);
                    drop(tx);
                });
            }
            Err(e) => {
                // The store's admission control said no. The wire's
                // response channel speaks `ServiceError`, so map the
                // rejection onto it (documented in the README's error
                // mapping): `ShutDown` keeps its meaning, the other two
                // surface as machine-side diagnostics. The remote
                // client reproduces `Overloaded`/`RequestTooLarge`
                // locally from the advertised capacity, so these
                // frames only appear when many clients share a server.
                inner.stats.bump(&inner.stats.submit_rejections);
                let mapped = match e {
                    SubmitError::ShutDown => ServiceError::ShuttingDown,
                    SubmitError::Overloaded { depth } => {
                        ServiceError::Machine(format!("server overloaded: queue depth {depth}"))
                    }
                    SubmitError::RequestTooLarge { ops, capacity } => ServiceError::Machine(
                        format!("request of {ops} ops exceeds server capacity {capacity}"),
                    ),
                };
                let _ = tx.send(encode_response::<S>(req_id, &Err(mapped)));
            }
        }
    }
    // Hand the channel back and wait for the writer: it exits only once
    // every in-flight `on_resolve` callback has sent (or dropped) its
    // response, which is exactly the drain guarantee.
    drop(tx);
    let _ = writer.join();
    {
        // Absent when a drain already took the entry and is joining us.
        let mut conns = inner.conns.lock();
        if let Some(e) = conns.live.remove(&id) {
            conns.finished.push(e.reader);
        }
    }
    inner.stats.active.fetch_sub(1, Ordering::SeqCst);
}
