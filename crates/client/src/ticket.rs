//! Completion handles for submitted requests — real futures.
//!
//! A [`Ticket`] is the client half of a one-shot channel filled in by a
//! backend's scheduler (or synchronously, by
//! [`InlineStore`](crate::InlineStore)); [`Resolver`] is the backend
//! half. A ticket is redeemable several ways, all equivalent:
//!
//! * [`wait`](Ticket::wait) blocks the calling thread (the classic
//!   shape);
//! * [`wait_for`](Ticket::wait_for) blocks with a timeout and hands the
//!   still-live ticket back on expiry;
//! * `Ticket<T>` implements [`std::future::Future`], waker-based and
//!   with **no async runtime in the dependency tree** — an executor
//!   polls it like any other future and is woken exactly once, when the
//!   backend resolves the request;
//! * [`on_resolve`](Ticket::on_resolve) hands the outcome to a callback
//!   on the resolving thread — the push-style shape serving front-ends
//!   (the `ddrs-net` response writer, for one) use to fan many
//!   concurrently in-flight tickets into one sink without a thread per
//!   request.
//!
//! Tickets also compose: [`map`](Ticket::map) /
//! [`map_outcome`](Ticket::map_outcome) project a ticket's value without
//! threads or polling loops, which is how the single-op convenience
//! methods of [`RangeStore`](crate::RangeStore) carve a `Ticket<u64>`
//! out of a whole-request `Ticket<Response>`.
//!
//! All of them share **one listener slot** in the ticket's state, under
//! its one mutex (lock class `ticket.state`): a poll leaves the
//! context's waker there, a blocking wait leaves a waker that unparks
//! its thread, and `on_resolve` / `map` leave a callback. The backend's
//! resolution stores the outcome — or hands it straight to a callback —
//! and tells the listener only after the lock is released.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

use ddrs_check::TrackedMutex;
use ddrs_trace::{SpanId, Stage};

use crate::ServiceError;

/// A successfully committed response: the value plus the request's
/// position in the backend's serial commit order.
///
/// Commit sequence numbers are assigned densely in dispatch order; a
/// replay of all committed requests in ascending `seq` against a
/// sequential oracle reproduces every `value` exactly (the
/// batch-serializability contract, pinned by the differential tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit<T> {
    /// The response value.
    pub value: T,
    /// Position in the backend's serial commit order.
    pub seq: u64,
}

/// How a resolved ticket turned out: the committed response, or the
/// error that took its place.
pub type Outcome<T> = Result<Commit<T>, ServiceError>;

type Callback<T> = Box<dyn FnOnce(Outcome<T>) + Send>;

/// Who hears about the resolution.
enum Notify<T> {
    Nobody,
    /// A polled future's waker, or a blocked thread's unparker.
    Wake(Waker),
    /// `on_resolve` / `map`: the outcome goes straight to the callback.
    Call(Callback<T>),
}

enum State<T> {
    Waiting(Notify<T>),
    Done(Outcome<T>),
    /// Redeemed, or handed to a `Call` listener.
    Taken,
}

/// Lock class `ticket.state` — the innermost lock of the whole stack:
/// resolution paths take it with scheduler or shard locks already held,
/// and nothing is woken or called while it is held.
type Cell<T> = Arc<TrackedMutex<State<T>>>;

/// Resolve the ticket behind `state`: store `outcome`, or hand it to a
/// `Call` listener; a listener hears only after the lock is released.
fn fire<T>(state: &TrackedMutex<State<T>>, outcome: Outcome<T>) {
    let mut guard = state.lock();
    match std::mem::replace(&mut *guard, State::Taken) {
        State::Waiting(Notify::Call(f)) => {
            drop(guard);
            f(outcome);
        }
        State::Waiting(notify) => {
            *guard = State::Done(outcome);
            drop(guard);
            if let Notify::Wake(w) = notify {
                w.wake();
            }
        }
        // `resolve` consumes the resolver and `Drop` checks for it, so a
        // second fire is impossible by construction.
        State::Done(_) | State::Taken => unreachable!("ticket resolved twice"),
    }
}

/// Result of [`Ticket::wait_for`]: either the resolved outcome, or the
/// still-live ticket riding back to the caller.
#[derive(Debug)]
pub enum WaitFor<T> {
    /// The backend resolved the request within the timeout.
    Ready(Outcome<T>),
    /// The timeout passed first. The ticket is returned intact — still
    /// registered with the backend, still resolvable; wait again, poll
    /// it, or drop it to abandon the response.
    TimedOut(Ticket<T>),
}

/// The client half: redeem it for the response with
/// [`wait`](Ticket::wait), [`wait_for`](Ticket::wait_for), or by
/// polling it as a [`Future`].
pub struct Ticket<T> {
    state: Cell<T>,
    span: SpanId,
}

/// The backend half: resolves the paired [`Ticket`] exactly once.
///
/// Dropping an unresolved resolver resolves the ticket with
/// [`ServiceError::ShuttingDown`] — a safety net that keeps clients from
/// blocking forever if a scheduler abandons a request.
///
/// Public so serving front-ends (the scatter-gather router in
/// `ddrs-shard`, the remote client in `ddrs-net`, custom backends) can
/// hand out the same [`Ticket`] API without re-implementing the channel.
pub struct Resolver<T> {
    /// `None` once resolved.
    target: Option<Target<T>>,
    span: SpanId,
}

enum Target<T> {
    Ticket(Cell<T>),
    /// Resolution is delivered to a callback instead of a ticket — the
    /// plumbing that lets one multi-op [`Request`](crate::Request)
    /// aggregate many per-op resolutions into a single outer ticket.
    Call(Callback<T>),
}

impl<T> Target<T> {
    fn deliver(self, outcome: Outcome<T>) {
        match self {
            Target::Ticket(state) => fire(&state, outcome),
            Target::Call(f) => f(outcome),
        }
    }
}

/// Create a connected ticket/resolver pair.
///
/// Public for the same reason as [`Resolver`]: front-ends mint tickets
/// with it.
pub fn ticket<T>() -> (Ticket<T>, Resolver<T>) {
    let t = Ticket::unresolved(SpanId::fresh());
    let r = Resolver { target: Some(Target::Ticket(Arc::clone(&t.state))), span: t.span };
    (t, r)
}

/// A resolver whose resolution is handed to `f` instead of a ticket,
/// recording its lifecycle under `span` (pass the parent request's span
/// so every op of a request shares one trace identity).
pub(crate) fn callback_resolver<T>(
    span: SpanId,
    f: impl FnOnce(Outcome<T>) + Send + 'static,
) -> Resolver<T> {
    Resolver { target: Some(Target::Call(Box::new(f))), span }
}

impl<T> Resolver<T> {
    /// Resolve the paired ticket and tell its listener (parked thread,
    /// polled waker or callback alike).
    pub fn resolve(mut self, outcome: Outcome<T>) {
        let t0 = ddrs_trace::now_ns();
        let err = outcome.is_err();
        self.target.take().expect("resolver used twice").deliver(outcome);
        ddrs_trace::complete(self.span, Stage::Resolve, t0, err);
    }

    /// The trace span this resolver reports under ([`SpanId::NONE`]
    /// when span recording is compiled out).
    pub fn span(&self) -> SpanId {
        self.span
    }
}

impl<T> std::fmt::Debug for Resolver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolver").field("resolved", &self.target.is_none()).finish()
    }
}

impl<T> Drop for Resolver<T> {
    fn drop(&mut self) {
        if let Some(target) = self.target.take() {
            let t0 = ddrs_trace::now_ns();
            target.deliver(Err(ServiceError::ShuttingDown));
            // An abandoned request still closes its span — as an error.
            ddrs_trace::complete(self.span, Stage::Resolve, t0, true);
        }
    }
}

/// Wakes a thread blocked in [`Ticket::wait`] / [`Ticket::wait_for`].
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

impl<T> Ticket<T> {
    fn unresolved(span: SpanId) -> Ticket<T> {
        Ticket {
            state: Arc::new(TrackedMutex::new("ticket.state", State::Waiting(Notify::Nobody))),
            span,
        }
    }

    /// Take the outcome if the backend has resolved; otherwise make
    /// `notify` the listener. The listener left over — `notify` itself
    /// when the outcome was taken, else the one it displaced — comes
    /// back, so the caller drops it after the lock is released.
    fn listen(&self, notify: Notify<T>) -> (Option<Outcome<T>>, Notify<T>) {
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, State::Taken) {
            State::Done(out) => (Some(out), notify),
            State::Waiting(old) => {
                *state = State::Waiting(notify);
                (None, old)
            }
            State::Taken => panic!("ticket polled after completion"),
        }
    }

    /// Block until the backend resolves this request.
    pub fn wait(self) -> Outcome<T> {
        match self.park_until(None) {
            WaitFor::Ready(out) => out,
            WaitFor::TimedOut(_) => unreachable!("a wait without a deadline cannot time out"),
        }
    }

    /// Block for at most `timeout`. On expiry the still-live ticket
    /// rides back inside [`WaitFor::TimedOut`]: it remains registered
    /// with the backend and resolvable, so the caller can wait again,
    /// poll it, or give up and drop it. A timeout past the end of
    /// representable time is [`wait`](Ticket::wait).
    pub fn wait_for(self, timeout: Duration) -> WaitFor<T> {
        self.park_until(Instant::now().checked_add(timeout))
    }

    /// Listen with a waker that unparks this thread, and park until the
    /// outcome is in or `deadline` passes. Unparks that find no outcome
    /// (spurious, or left over from an earlier wait) just loop; a timed
    /// out wait clears its waker from the slot.
    fn park_until(self, deadline: Option<Instant>) -> WaitFor<T> {
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let notify = match left {
                Some(Duration::ZERO) => Notify::Nobody,
                _ => Notify::Wake(waker.clone()),
            };
            if let (Some(out), _) = self.listen(notify) {
                return WaitFor::Ready(out);
            }
            match left {
                None => std::thread::park(),
                Some(Duration::ZERO) => return WaitFor::TimedOut(self),
                Some(left) => std::thread::park_timeout(left),
            }
        }
    }

    /// Deliver this ticket's outcome to `f` the moment the backend
    /// resolves it, without parking a thread per request.
    ///
    /// An already-resolved ticket runs `f` synchronously on the calling
    /// thread; otherwise `f` becomes the ticket's listener and runs on
    /// the resolving thread. Exactly-once either way, including the
    /// [`ServiceError::ShuttingDown`] outcome of an abandoned resolver.
    /// This is the hook network front-ends use to fan out-of-order
    /// resolutions into a per-connection writer.
    pub fn on_resolve(self, f: impl FnOnce(Outcome<T>) + Send + 'static)
    where
        T: Send + 'static,
    {
        if let (Some(out), Notify::Call(f)) = self.listen(Notify::Call(Box::new(f))) {
            f(out);
        }
    }

    /// The trace span every lifecycle event of this request is recorded
    /// under — pass it to [`ddrs_trace::Trace::span_events`] to pull one
    /// request's history out of a capture. [`SpanId::NONE`] when span
    /// recording is compiled out; mapping a ticket preserves the span.
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// True once the backend has resolved this request (`wait` will not
    /// block and polling returns `Ready`).
    pub fn is_done(&self) -> bool {
        !matches!(*self.state.lock(), State::Waiting(_))
    }

    /// Project the whole outcome — commit and error arms alike — into a
    /// new ticket, without threads or polling. The projection runs once,
    /// when the backend resolves, on the resolving thread (at once, on
    /// the calling thread, if it already has) — whether or not the
    /// mapped ticket is ever redeemed.
    pub fn map_outcome<U: Send + 'static>(
        self,
        f: impl FnOnce(Outcome<T>) -> Outcome<U> + Send + 'static,
    ) -> Ticket<U>
    where
        T: Send + 'static,
    {
        let mapped = Ticket::unresolved(self.span);
        let state = Arc::clone(&mapped.state);
        self.on_resolve(move |out| fire(&state, f(out)));
        mapped
    }

    /// Project a committed value, leaving the sequence number and the
    /// error arm untouched. The projection runs as
    /// [`map_outcome`](Ticket::map_outcome)'s does.
    pub fn map<U: Send + 'static>(self, f: impl FnOnce(T) -> U + Send + 'static) -> Ticket<U>
    where
        T: Send + 'static,
    {
        self.map_outcome(move |out| out.map(|c| Commit { value: f(c.value), seq: c.seq }))
    }
}

impl<T> Future for Ticket<T> {
    type Output = Outcome<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.listen(Notify::Wake(cx.waker().clone())).0.map_or(Poll::Pending, Poll::Ready)
    }
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("done", &self.is_done()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn resolve_then_wait() {
        let (t, r) = ticket::<u64>();
        assert!(!t.is_done());
        r.resolve(Ok(Commit { value: 7, seq: 3 }));
        assert!(t.is_done());
        assert_eq!(t.wait(), Ok(Commit { value: 7, seq: 3 }));
    }

    #[test]
    fn wait_blocks_until_resolved_from_another_thread() {
        let (t, r) = ticket::<Vec<u32>>();
        let h = std::thread::spawn(move || t.wait());
        std::thread::sleep(Duration::from_millis(10));
        r.resolve(Ok(Commit { value: vec![1, 2], seq: 0 }));
        assert_eq!(h.join().unwrap(), Ok(Commit { value: vec![1, 2], seq: 0 }));
    }

    #[test]
    fn wait_for_returns_the_ticket_back() {
        let (t, r) = ticket::<()>();
        let WaitFor::TimedOut(t) = t.wait_for(Duration::from_millis(5)) else {
            panic!("unresolved ticket must time out");
        };
        r.resolve(Err(ServiceError::DeadlineExpired));
        let WaitFor::Ready(out) = t.wait_for(Duration::from_secs(5)) else {
            panic!("resolved ticket must be ready");
        };
        assert_eq!(out, Err(ServiceError::DeadlineExpired));
    }

    #[test]
    fn wait_for_a_timeout_too_long_to_represent_waits() {
        let (t, r) = ticket::<u64>();
        let t = t.map(|v| v + 1);
        let h = std::thread::spawn(move || t.wait_for(Duration::MAX));
        r.resolve(Ok(Commit { value: 7, seq: 3 }));
        let WaitFor::Ready(out) = h.join().unwrap() else {
            panic!("an unbounded wait cannot time out");
        };
        assert_eq!(out, Ok(Commit { value: 8, seq: 3 }));
    }

    #[test]
    fn dropping_the_resolver_fails_the_ticket() {
        let (t, r) = ticket::<u64>();
        drop(r);
        assert_eq!(t.wait(), Err(ServiceError::ShuttingDown));
    }

    #[test]
    fn map_projects_the_value_and_keeps_the_seq() {
        let (t, r) = ticket::<u64>();
        let t = t.map(|v| v * 2);
        r.resolve(Ok(Commit { value: 21, seq: 9 }));
        assert_eq!(t.wait(), Ok(Commit { value: 42, seq: 9 }));
    }

    #[test]
    fn mapped_ticket_times_out_and_survives() {
        let (t, r) = ticket::<u64>();
        let t = t.map(|v| v + 1);
        let WaitFor::TimedOut(t) = t.wait_for(Duration::from_millis(2)) else {
            panic!("unresolved mapped ticket must time out");
        };
        assert!(!t.is_done());
        r.resolve(Ok(Commit { value: 1, seq: 0 }));
        assert_eq!(t.wait(), Ok(Commit { value: 2, seq: 0 }));
    }

    #[test]
    fn map_outcome_can_rewrite_errors() {
        let (t, r) = ticket::<u64>();
        let t = t.map_outcome(|out| match out {
            Err(ServiceError::ShuttingDown) => Ok(Commit { value: 0, seq: 0 }),
            other => other,
        });
        drop(r);
        assert_eq!(t.wait(), Ok(Commit { value: 0, seq: 0 }));
    }

    #[test]
    fn on_resolve_fires_synchronously_when_already_done() {
        let (t, r) = ticket::<u64>();
        r.resolve(Ok(Commit { value: 11, seq: 4 }));
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = Arc::clone(&hits);
        t.on_resolve(move |out| h.lock().unwrap().push(out));
        assert_eq!(*hits.lock().unwrap(), vec![Ok(Commit { value: 11, seq: 4 })]);
    }

    #[test]
    fn on_resolve_fires_from_the_resolving_thread() {
        let (t, r) = ticket::<u64>();
        let (tx, rx) = std::sync::mpsc::channel();
        t.on_resolve(move |out| tx.send(out).unwrap());
        assert!(rx.try_recv().is_err(), "callback must not fire before resolution");
        let h = std::thread::spawn(move || r.resolve(Ok(Commit { value: 3, seq: 8 })));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(Commit { value: 3, seq: 8 })
        );
        h.join().unwrap();
    }

    #[test]
    fn on_resolve_sees_the_abandoned_resolver_outcome() {
        let (t, r) = ticket::<u64>();
        let (tx, rx) = std::sync::mpsc::channel();
        t.on_resolve(move |out| tx.send(out).unwrap());
        drop(r);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(ServiceError::ShuttingDown)
        );
    }

    #[test]
    fn on_resolve_composes_with_map() {
        let (t, r) = ticket::<u64>();
        let (tx, rx) = std::sync::mpsc::channel();
        t.map(|v| v * 10).on_resolve(move |out| tx.send(out).unwrap());
        r.resolve(Ok(Commit { value: 7, seq: 2 }));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(Commit { value: 70, seq: 2 })
        );
    }

    #[test]
    fn callback_resolver_fires_once_and_on_drop() {
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = Arc::clone(&hits);
        let r = callback_resolver::<u64>(SpanId::fresh(), move |out| h.lock().unwrap().push(out));
        r.resolve(Ok(Commit { value: 5, seq: 1 }));
        let h = Arc::clone(&hits);
        let r2 = callback_resolver::<u64>(SpanId::fresh(), move |out| h.lock().unwrap().push(out));
        drop(r2);
        assert_eq!(
            *hits.lock().unwrap(),
            vec![Ok(Commit { value: 5, seq: 1 }), Err(ServiceError::ShuttingDown)]
        );
    }

    #[test]
    fn a_mapped_projection_runs_once_when_the_backend_resolves() {
        let runs = Arc::new(Mutex::new(Vec::new()));
        let project = |tag: &'static str| {
            let runs = Arc::clone(&runs);
            move |v: u64| {
                runs.lock().unwrap().push((tag, std::thread::current().id()));
                v + 1
            }
        };
        let (kept, r1) = ticket::<u64>();
        let (dropped, r2) = ticket::<u64>();
        let kept = kept.map(project("kept"));
        drop(dropped.map(project("dropped")));
        assert!(runs.lock().unwrap().is_empty(), "nothing projects before resolution");
        let resolving = std::thread::spawn(move || {
            r1.resolve(Ok(Commit { value: 1, seq: 0 }));
            r2.resolve(Ok(Commit { value: 2, seq: 1 }));
            std::thread::current().id()
        })
        .join()
        .unwrap();
        assert_eq!(*runs.lock().unwrap(), vec![("kept", resolving), ("dropped", resolving)]);
        assert_eq!(kept.wait(), Ok(Commit { value: 2, seq: 0 }));
        assert_eq!(runs.lock().unwrap().len(), 2, "redeeming does not project again");
    }

    #[test]
    fn wait_rides_out_spurious_unparks() {
        let (t, r) = ticket::<u64>();
        let h = std::thread::spawn(move || t.wait());
        for _ in 0..100 {
            h.thread().unpark();
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        assert!(!h.is_finished(), "an unpark without an outcome must not end the wait");
        r.resolve(Ok(Commit { value: 13, seq: 5 }));
        assert_eq!(h.join().unwrap(), Ok(Commit { value: 13, seq: 5 }));
    }

    #[test]
    fn on_resolve_after_a_timed_out_wait_fires_once() {
        let (t, r) = ticket::<u64>();
        let WaitFor::TimedOut(t) = t.wait_for(Duration::from_millis(2)) else {
            panic!("unresolved ticket must time out");
        };
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = Arc::clone(&hits);
        t.on_resolve(move |out| h.lock().unwrap().push(out));
        r.resolve(Ok(Commit { value: 4, seq: 6 }));
        assert_eq!(*hits.lock().unwrap(), vec![Ok(Commit { value: 4, seq: 6 })]);
    }
}
