//! Composable multi-op requests and their responses.
//!
//! A [`Request`] is assembled op by op — any mix of counts, aggregates,
//! reports, inserts and deletes — and submitted to any
//! [`RangeStore`](crate::RangeStore) as **one unit**, returning one
//! [`Ticket`]`<`[`Response`]`>`. Each builder method hands back a typed
//! handle that indexes the matching result in the response, so the
//! caller never juggles positions by hand.
//!
//! Semantics, identical on every backend:
//!
//! * **Writes first.** The request's writes commit (in builder order)
//!   before its reads execute, so the reads observe the request's own
//!   writes — read-your-writes *within* a request.
//! * **Reads fuse.** All reads of a request are planned into a single
//!   fused `QueryBatch` per shard: one machine dispatch however many
//!   reads the request carries (the acceptance pin of the redesign).
//! * **Write verdicts are data.** A rejected write (duplicate id,
//!   reserved id) does not fail the request; its verdict lands in
//!   [`Response::writes`] exactly as the sequential oracle would rule.
//!   The outer ticket errs only when a read fails or nothing at all
//!   committed.
//! * **One commit position.** A committed response carries the sequence
//!   number of the request's last committed op; for a single-op request
//!   this is exactly the op's own commit position.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ddrs_rangetree::{Point, Rect, Semigroup};
use ddrs_trace::SpanId;

use crate::ticket::{callback_resolver, ticket, Commit, Outcome, Resolver, Ticket};
use crate::ServiceError;

/// What state a request's ops are entitled to observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// No bound: observe whatever the store has committed at dispatch
    /// time. Every backend dispatches serially, so this already includes
    /// everything committed before the request was submitted.
    #[default]
    Latest,
    /// The request's **reads** must observe commit `seq`
    /// (read-your-writes across submissions: pass the `seq` from a
    /// write's [`Commit`] and the reads are guaranteed to see that
    /// write — on the same store, the bound always holds by the serial
    /// dispatch order). A bound the store has not committed by read
    /// time fails the reads with [`ServiceError::Consistency`] instead
    /// of serving stale state. Writes are not gated: a write observes
    /// nothing, so there is no state it could observe too early.
    AtLeast(u64),
}

macro_rules! handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name(usize);

        impl $name {
            /// Position in the corresponding [`Response`] vector.
            pub fn index(self) -> usize {
                self.0
            }
        }
    };
}

handle!(
    /// Indexes a counting query's result in [`Response::counts`].
    CountHandle
);
handle!(
    /// Indexes an aggregation query's result in [`Response::aggregates`].
    AggregateHandle
);
handle!(
    /// Indexes a report query's result in [`Response::reports`].
    ReportHandle
);
handle!(
    /// Indexes a write op's verdict in [`Response::writes`].
    WriteHandle
);

enum WriteReq<const D: usize> {
    Insert(Vec<Point<D>>),
    Delete(Vec<u32>),
}

/// A borrowed view of one write op, yielded by
/// [`Request::write_ops`] in [`WriteHandle`] order — the shape codecs
/// serialize without taking the request apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp<'a, const D: usize> {
    /// An insert batch.
    Insert(&'a [Point<D>]),
    /// A delete batch by id.
    Delete(&'a [u32]),
}

/// A composable multi-op request: build it up, submit it once.
///
/// ```
/// use ddrs_client::{Request, RangeStore};
/// # use ddrs_client::InlineStore;
/// # use ddrs_cgm::Machine;
/// # use ddrs_rangetree::{DynamicDistRangeTree, Point, Rect, Sum};
/// # let machine = Machine::new(1).unwrap();
/// # let mut tree = DynamicDistRangeTree::<2>::new(8);
/// # tree.insert_batch(&machine, &[Point::weighted([1, 1], 7, 2)]).unwrap();
/// # let store = InlineStore::new(machine, tree, Sum);
/// let mut req = Request::new();
/// let w = req.insert(vec![Point::weighted([2, 2], 8, 5)]);
/// let c = req.count(Rect::new([0, 0], [10, 10]));
/// let a = req.aggregate(Rect::new([0, 0], [10, 10]));
/// let resp = store.submit(req).unwrap().wait().unwrap().value;
/// assert_eq!(resp.write(w), &Ok(())); // committed before the reads ran
/// assert_eq!(resp.count(c), 2);
/// assert_eq!(resp.aggregate(a), &Some(7));
/// ```
pub struct Request<S: Semigroup, const D: usize> {
    counts: Vec<Rect<D>>,
    aggs: Vec<Rect<D>>,
    reports: Vec<Rect<D>>,
    writes: Vec<WriteReq<D>>,
    deadline: Option<Duration>,
    consistency: Consistency,
    _sg: PhantomData<S>,
}

impl<S: Semigroup, const D: usize> Default for Request<S, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Semigroup, const D: usize> Request<S, D> {
    /// An empty request. Submitting a request with no ops at all is a
    /// programming error (backends panic); add at least one op.
    pub fn new() -> Self {
        Request {
            counts: Vec::new(),
            aggs: Vec::new(),
            reports: Vec::new(),
            writes: Vec::new(),
            deadline: None,
            consistency: Consistency::Latest,
            _sg: PhantomData,
        }
    }

    /// Add a counting query.
    pub fn count(&mut self, q: Rect<D>) -> CountHandle {
        self.counts.push(q);
        CountHandle(self.counts.len() - 1)
    }

    /// Add an associative-function (semigroup aggregation) query.
    pub fn aggregate(&mut self, q: Rect<D>) -> AggregateHandle {
        self.aggs.push(q);
        AggregateHandle(self.aggs.len() - 1)
    }

    /// Add a report query (matching ids, ascending).
    pub fn report(&mut self, q: Rect<D>) -> ReportHandle {
        self.reports.push(q);
        ReportHandle(self.reports.len() - 1)
    }

    /// Add an insert batch. Its verdict — committed, or rejected exactly
    /// as a sequential `insert_batch` at the same commit position would
    /// rule — lands at the handle's slot in [`Response::writes`].
    pub fn insert(&mut self, pts: Vec<Point<D>>) -> WriteHandle {
        self.writes.push(WriteReq::Insert(pts));
        WriteHandle(self.writes.len() - 1)
    }

    /// Add a delete batch by id (missing ids are no-ops).
    pub fn delete(&mut self, ids: Vec<u32>) -> WriteHandle {
        self.writes.push(WriteReq::Delete(ids));
        WriteHandle(self.writes.len() - 1)
    }

    /// Give every op of this request a queueing deadline: ops still
    /// queued when it passes fail with [`ServiceError::DeadlineExpired`]
    /// and never reach a machine. `None` (the default) waits forever.
    pub fn deadline(&mut self, deadline: Option<Duration>) -> &mut Self {
        self.deadline = deadline;
        self
    }

    /// Set the request's [`Consistency`] requirement (default
    /// [`Consistency::Latest`]).
    pub fn consistency(&mut self, c: Consistency) -> &mut Self {
        self.consistency = c;
        self
    }

    /// Number of read queries across all three modes.
    pub fn reads(&self) -> usize {
        self.counts.len() + self.aggs.len() + self.reports.len()
    }

    /// Number of write ops.
    pub fn writes(&self) -> usize {
        self.writes.len()
    }

    /// Total ops in the request.
    pub fn len(&self) -> usize {
        self.reads() + self.writes()
    }

    /// True when no ops have been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counting queries, in [`CountHandle`] order.
    ///
    /// The read-side accessors exist for codecs — a network front-end
    /// serializing a request op by op (`ddrs-net` does) walks them and
    /// rebuilds an identical request at the far end with the builder
    /// methods. Clients answering their own queries should keep using
    /// handles.
    pub fn count_queries(&self) -> &[Rect<D>] {
        &self.counts
    }

    /// The aggregation queries, in [`AggregateHandle`] order.
    pub fn aggregate_queries(&self) -> &[Rect<D>] {
        &self.aggs
    }

    /// The report queries, in [`ReportHandle`] order.
    pub fn report_queries(&self) -> &[Rect<D>] {
        &self.reports
    }

    /// The write ops as borrowed [`WriteOp`] views, in [`WriteHandle`]
    /// order.
    pub fn write_ops(&self) -> impl Iterator<Item = WriteOp<'_, D>> {
        self.writes.iter().map(|w| match w {
            WriteReq::Insert(pts) => WriteOp::Insert(pts),
            WriteReq::Delete(ids) => WriteOp::Delete(ids),
        })
    }

    /// The queueing deadline set by [`deadline`](Request::deadline).
    pub fn queue_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The consistency bound set by
    /// [`consistency`](Request::consistency).
    pub fn read_consistency(&self) -> Consistency {
        self.consistency
    }

    /// Lower the request into the per-op shape backends execute: the
    /// outer ticket, the op list (**writes first, then reads** — the
    /// order that gives reads the request's own writes), the queueing
    /// deadline, and the consistency bound as a minimum commit count.
    ///
    /// This is the backend implementor's entry point; clients never call
    /// it. Each op carries a resolver wired to a shared aggregator that
    /// assembles the [`Response`] and settles the outer ticket when the
    /// last op resolves, under the rules documented on [`Request`].
    pub fn plan(self) -> Planned<S, D> {
        let total = self.len();
        let (outer_ticket, outer) = ticket::<Response<S>>();
        // Every op of the request reports under the outer ticket's span:
        // one request, one trace identity, however many ops it carries.
        let span = outer_ticket.span();
        let agg = Arc::new(Mutex::new(AggState {
            resp: Response {
                counts: vec![0; self.counts.len()],
                aggregates: vec![None; self.aggs.len()],
                reports: vec![Vec::new(); self.reports.len()],
                // Placeholder; every write resolver fires exactly once
                // (resolution or drop), overwriting its slot.
                writes: vec![Err(ServiceError::ShuttingDown); self.writes.len()],
            },
            remaining: total,
            max_seq: None,
            read_err: None,
            first_err: None,
            outer: Some(outer),
        }));
        let mut ops: Vec<PlannedOp<S, D>> = Vec::with_capacity(total);
        for (j, w) in self.writes.into_iter().enumerate() {
            let agg = Arc::clone(&agg);
            let r = callback_resolver(span, move |out: Outcome<()>| {
                complete_one(&agg, |g| match out {
                    Ok(c) => {
                        g.resp.writes[j] = Ok(());
                        g.note_commit(c.seq);
                    }
                    Err(e) => {
                        g.note_err(&e);
                        g.resp.writes[j] = Err(e);
                    }
                });
            });
            ops.push(match w {
                WriteReq::Insert(pts) => PlannedOp::Insert(pts, r),
                WriteReq::Delete(ids) => PlannedOp::Delete(ids, r),
            });
        }
        for (i, q) in self.counts.into_iter().enumerate() {
            ops.push(PlannedOp::Count(q, read(&agg, span, move |resp, v| resp.counts[i] = v)));
        }
        for (i, q) in self.aggs.into_iter().enumerate() {
            let r = read(&agg, span, move |resp, v| resp.aggregates[i] = v);
            ops.push(PlannedOp::Aggregate(q, r));
        }
        for (i, q) in self.reports.into_iter().enumerate() {
            ops.push(PlannedOp::Report(q, read(&agg, span, move |resp, v| resp.reports[i] = v)));
        }
        Planned {
            ticket: outer_ticket,
            ops,
            deadline: self.deadline,
            min_seq: match self.consistency {
                Consistency::Latest => None,
                Consistency::AtLeast(s) => Some(s),
            },
        }
    }
}

impl<S: Semigroup, const D: usize> std::fmt::Debug for Request<S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("counts", &self.counts.len())
            .field("aggregates", &self.aggs.len())
            .field("reports", &self.reports.len())
            .field("writes", &self.writes.len())
            .field("deadline", &self.deadline)
            .field("consistency", &self.consistency)
            .finish()
    }
}

/// The results of one committed [`Request`], indexed by the handles the
/// builder methods returned.
pub struct Response<S: Semigroup> {
    /// Counting results, in [`CountHandle`] order.
    pub counts: Vec<u64>,
    /// Aggregation results, in [`AggregateHandle`] order.
    pub aggregates: Vec<Option<S::Val>>,
    /// Report results (matching ids, ascending), in [`ReportHandle`]
    /// order.
    pub reports: Vec<Vec<u32>>,
    /// Per-write verdicts, in [`WriteHandle`] order: `Ok(())` for a
    /// committed write, [`ServiceError::Rejected`] for a sequential
    /// validation rejection (the store is unchanged by that op).
    pub writes: Vec<Result<(), ServiceError>>,
}

impl<S: Semigroup> Response<S> {
    /// The result of the counting query behind `h`.
    pub fn count(&self, h: CountHandle) -> u64 {
        self.counts[h.0]
    }

    /// The result of the aggregation query behind `h`.
    pub fn aggregate(&self, h: AggregateHandle) -> &Option<S::Val> {
        &self.aggregates[h.0]
    }

    /// The result of the report query behind `h`.
    pub fn report(&self, h: ReportHandle) -> &[u32] {
        &self.reports[h.0]
    }

    /// Move the report behind `h` out of the response.
    pub fn take_report(&mut self, h: ReportHandle) -> Vec<u32> {
        std::mem::take(&mut self.reports[h.0])
    }

    /// The verdict of the write op behind `h`.
    pub fn write(&self, h: WriteHandle) -> &Result<(), ServiceError> {
        &self.writes[h.0]
    }
}

impl<S: Semigroup> std::fmt::Debug for Response<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Response")
            .field("counts", &self.counts)
            .field("aggregates", &self.aggregates)
            .field("reports", &self.reports)
            .field("writes", &self.writes)
            .finish()
    }
}

impl<S: Semigroup> PartialEq for Response<S> {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
            && self.aggregates == other.aggregates
            && self.reports == other.reports
            && self.writes == other.writes
    }
}

/// One op of a planned request, carrying the resolver that feeds the
/// request's shared aggregator. Backends execute these exactly as they
/// executed their (previously duplicated) internal op enums.
pub enum PlannedOp<S: Semigroup, const D: usize> {
    /// A counting query.
    Count(Rect<D>, Resolver<u64>),
    /// An aggregation query.
    Aggregate(Rect<D>, Resolver<Option<S::Val>>),
    /// A report query.
    Report(Rect<D>, Resolver<Vec<u32>>),
    /// An insert batch.
    Insert(Vec<Point<D>>, Resolver<()>),
    /// A delete batch by id.
    Delete(Vec<u32>, Resolver<()>),
}

impl<S: Semigroup, const D: usize> PlannedOp<S, D> {
    /// The trace span this op reports under — the span of the request
    /// that planned it, shared by every sibling op.
    pub fn span(&self) -> SpanId {
        match self {
            PlannedOp::Count(_, r) => r.span(),
            PlannedOp::Aggregate(_, r) => r.span(),
            PlannedOp::Report(_, r) => r.span(),
            PlannedOp::Insert(_, r) => r.span(),
            PlannedOp::Delete(_, r) => r.span(),
        }
    }

    /// True for the three query modes, false for writes.
    pub fn is_read(&self) -> bool {
        matches!(self, PlannedOp::Count(..) | PlannedOp::Aggregate(..) | PlannedOp::Report(..))
    }

    /// The query interval of a read op, or `None` for writes. Routers
    /// use this to clip a query at partition boundaries and enqueue it
    /// only on the shards it overlaps, without re-parsing the op.
    pub fn interval(&self) -> Option<&Rect<D>> {
        match self {
            PlannedOp::Count(q, _) | PlannedOp::Aggregate(q, _) | PlannedOp::Report(q, _) => {
                Some(q)
            }
            PlannedOp::Insert(..) | PlannedOp::Delete(..) => None,
        }
    }

    /// Resolve this op's ticket with `e`.
    pub fn fail(self, e: ServiceError) {
        match self {
            PlannedOp::Count(_, r) => r.resolve(Err(e)),
            PlannedOp::Aggregate(_, r) => r.resolve(Err(e)),
            PlannedOp::Report(_, r) => r.resolve(Err(e)),
            PlannedOp::Insert(_, r) => r.resolve(Err(e)),
            PlannedOp::Delete(_, r) => r.resolve(Err(e)),
        }
    }
}

impl<S: Semigroup, const D: usize> std::fmt::Debug for PlannedOp<S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            PlannedOp::Count(..) => "Count",
            PlannedOp::Aggregate(..) => "Aggregate",
            PlannedOp::Report(..) => "Report",
            PlannedOp::Insert(..) => "Insert",
            PlannedOp::Delete(..) => "Delete",
        };
        f.debug_struct("PlannedOp").field("kind", &kind).finish()
    }
}

/// A lowered [`Request`]: what [`Request::plan`] hands a backend.
pub struct Planned<S: Semigroup, const D: usize> {
    /// The outer ticket the client is holding.
    pub ticket: Ticket<Response<S>>,
    /// The ops to execute — writes first, then reads. Backends must
    /// keep them contiguous and in order (FIFO queues do this for
    /// free), which is what makes the request's reads land in one
    /// coalesced window and observe its writes.
    pub ops: Vec<PlannedOp<S, D>>,
    /// Queueing deadline shared by every op.
    pub deadline: Option<Duration>,
    /// Minimum number of commits the store must have performed when a
    /// **read** of this request is dispatched: `Some(s)` demands commit
    /// `s` be visible (i.e. at least `s + 1` commits). Writes are not
    /// gated — they observe nothing. `None` is
    /// [`Consistency::Latest`].
    pub min_seq: Option<u64>,
}

/// Shared aggregation state: collects per-op resolutions, settles the
/// outer ticket when the last one lands.
struct AggState<S: Semigroup> {
    resp: Response<S>,
    remaining: usize,
    /// Highest commit seq among the request's committed ops.
    max_seq: Option<u64>,
    /// First read failure — fails the whole request.
    read_err: Option<ServiceError>,
    /// First failure of any kind — the request's outcome when nothing
    /// committed at all.
    first_err: Option<ServiceError>,
    outer: Option<Resolver<Response<S>>>,
}

impl<S: Semigroup> AggState<S> {
    fn note_commit(&mut self, seq: u64) {
        self.max_seq = Some(self.max_seq.map_or(seq, |m| m.max(seq)));
    }

    fn note_err(&mut self, e: &ServiceError) {
        if self.first_err.is_none() {
            self.first_err = Some(e.clone());
        }
    }

    fn note_read_err(&mut self, e: ServiceError) {
        self.note_err(&e);
        if self.read_err.is_none() {
            self.read_err = Some(e);
        }
    }
}

/// The resolver of one read op: its committed value lands in the
/// response through `put`, and its failure fails the whole request.
fn read<S: Semigroup, V>(
    agg: &Arc<Mutex<AggState<S>>>,
    span: SpanId,
    put: impl FnOnce(&mut Response<S>, V) + Send + 'static,
) -> Resolver<V> {
    let agg = Arc::clone(agg);
    callback_resolver(span, move |out: Outcome<V>| {
        complete_one(&agg, |g| match out {
            Ok(c) => {
                put(&mut g.resp, c.value);
                g.note_commit(c.seq);
            }
            Err(e) => g.note_read_err(e),
        });
    })
}

fn complete_one<S: Semigroup>(agg: &Mutex<AggState<S>>, record: impl FnOnce(&mut AggState<S>)) {
    let mut g = agg.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    record(&mut g);
    g.remaining -= 1;
    if g.remaining > 0 {
        return;
    }
    let outer = g.outer.take().expect("request aggregator settled twice");
    let resp = std::mem::replace(
        &mut g.resp,
        Response {
            counts: Vec::new(),
            aggregates: Vec::new(),
            reports: Vec::new(),
            writes: Vec::new(),
        },
    );
    let outcome = if let Some(e) = g.read_err.take() {
        // A failed read leaves a hole no caller should guess around.
        Err(e)
    } else if let Some(seq) = g.max_seq {
        Ok(Commit { value: resp, seq })
    } else {
        // Nothing committed: surface the first per-op failure.
        Err(g.first_err.take().unwrap_or(ServiceError::ShuttingDown))
    };
    drop(g);
    outer.resolve(outcome);
}
