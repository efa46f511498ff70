//! The unified client contract: one trait, every backend.

use std::time::Duration;

use ddrs_rangetree::{Point, Rect, Semigroup};

use crate::request::{Request, Response};
use crate::ticket::{Commit, Ticket};
use crate::SubmitError;

/// The one client API over every serving backend of the distributed
/// range store: the zero-thread [`InlineStore`](crate::InlineStore),
/// `ddrs-shard`'s coalescing `ShardedService` and `ddrs-net`'s
/// `RemoteStore` all implement it, so workloads, differential tests
/// and benches are written once against `&dyn RangeStore` (the trait is
/// object-safe) and run against any of them.
///
/// The whole surface reduces to [`submit`](RangeStore::submit): the
/// single-op conveniences are default methods that build a one-op
/// [`Request`] and project its [`Response`] — the deadline plumbing and
/// result mapping that used to be copy-pasted per backend lives here,
/// once.
///
/// ## Contract
///
/// * Ops of one request execute under the backend's serial commit
///   order; writes commit before the request's reads run (see
///   [`Request`] for the full semantics).
/// * A request's reads are planned into **one fused query dispatch per
///   shard** (an unsharded backend is one shard), however many reads it
///   carries.
/// * Every committed response carries its commit sequence number;
///   replaying committed requests in `seq` order through a sequential
///   oracle reproduces every response (batch serializability).
pub trait RangeStore<S: Semigroup, const D: usize> {
    /// Submit a composed multi-op request as one unit.
    ///
    /// # Panics
    /// Panics if the request is empty — an empty request has no result
    /// to wait for and submitting one is a programming error.
    fn submit(&self, req: Request<S, D>) -> Result<Ticket<Response<S>>, SubmitError>;

    /// Submit a counting query.
    fn count(&self, q: Rect<D>) -> Result<Ticket<u64>, SubmitError> {
        self.count_within(q, None)
    }

    /// Submit a counting query with an optional queueing deadline.
    fn count_within(
        &self,
        q: Rect<D>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<u64>, SubmitError> {
        let mut req = Request::new();
        let h = req.count(q);
        req.deadline(deadline);
        Ok(self
            .submit(req)?
            .map_outcome(move |out| out.map(|c| Commit { value: c.value.count(h), seq: c.seq })))
    }

    /// Submit an associative-function (semigroup aggregation) query.
    fn aggregate(&self, q: Rect<D>) -> Result<Ticket<Option<S::Val>>, SubmitError> {
        self.aggregate_within(q, None)
    }

    /// Submit an aggregation query with an optional queueing deadline.
    fn aggregate_within(
        &self,
        q: Rect<D>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<Option<S::Val>>, SubmitError> {
        let mut req = Request::new();
        let h = req.aggregate(q);
        req.deadline(deadline);
        Ok(self.submit(req)?.map_outcome(move |out| {
            out.map(|mut c| Commit { value: c.value.aggregates[h.index()].take(), seq: c.seq })
        }))
    }

    /// Submit a report query (matching ids, ascending).
    fn report(&self, q: Rect<D>) -> Result<Ticket<Vec<u32>>, SubmitError> {
        self.report_within(q, None)
    }

    /// Submit a report query with an optional queueing deadline.
    fn report_within(
        &self,
        q: Rect<D>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<Vec<u32>>, SubmitError> {
        let mut req = Request::new();
        let h = req.report(q);
        req.deadline(deadline);
        Ok(self.submit(req)?.map_outcome(move |out| {
            out.map(|mut c| Commit { value: c.value.take_report(h), seq: c.seq })
        }))
    }

    /// Submit an insert batch. Resolves `Ok` once the points are live,
    /// or [`ServiceError::Rejected`](crate::ServiceError::Rejected) if
    /// validation fails (duplicate or reserved id) — exactly as a
    /// sequential `insert_batch` at the same commit position would.
    fn insert(&self, pts: Vec<Point<D>>) -> Result<Ticket<()>, SubmitError> {
        self.insert_within(pts, None)
    }

    /// Submit an insert batch with an optional queueing deadline.
    fn insert_within(
        &self,
        pts: Vec<Point<D>>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<()>, SubmitError> {
        let mut req = Request::new();
        let h = req.insert(pts);
        req.deadline(deadline);
        Ok(self.submit(req)?.map_outcome(move |out| {
            out.and_then(|mut c| {
                std::mem::replace(&mut c.value.writes[h.index()], Ok(()))
                    .map(|()| Commit { value: (), seq: c.seq })
            })
        }))
    }

    /// Submit a delete batch by id (missing ids are no-ops).
    fn delete(&self, ids: Vec<u32>) -> Result<Ticket<()>, SubmitError> {
        self.delete_within(ids, None)
    }

    /// Submit a delete batch with an optional queueing deadline.
    fn delete_within(
        &self,
        ids: Vec<u32>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<()>, SubmitError> {
        let mut req = Request::new();
        let h = req.delete(ids);
        req.deadline(deadline);
        Ok(self.submit(req)?.map_outcome(move |out| {
            out.and_then(|mut c| {
                std::mem::replace(&mut c.value.writes[h.index()], Ok(()))
                    .map(|()| Commit { value: (), seq: c.seq })
            })
        }))
    }
}

/// Shared ownership keeps the contract: an `Arc<T>` serves requests
/// exactly as the `T` it wraps. This is what lets one backend be handed
/// to a serving front-end (say, boxed into a
/// `NetServer`) while the caller keeps a handle for stats and shutdown.
impl<S: Semigroup, const D: usize, T: RangeStore<S, D> + ?Sized> RangeStore<S, D>
    for std::sync::Arc<T>
{
    fn submit(&self, req: Request<S, D>) -> Result<Ticket<Response<S>>, SubmitError> {
        (**self).submit(req)
    }
}
