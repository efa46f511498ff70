//! The zero-thread backend: the raw engine behind the unified API.

use std::sync::{Mutex, MutexGuard};

use ddrs_cgm::Machine;
use ddrs_rangetree::{DynamicDistRangeTree, QueryBatch, Semigroup};

use crate::request::{PlannedOp, Request, Response};
use crate::store::RangeStore;
use crate::ticket::{Commit, Resolver, Ticket};
use crate::{ServiceError, SubmitError};

/// A [`RangeStore`] executing directly on one [`Machine`] and one
/// [`DynamicDistRangeTree`], with **no scheduler thread**: `submit`
/// runs the request on the calling thread and the returned ticket is
/// already resolved when it comes back.
///
/// This makes the raw engine speak the exact client contract the
/// serving layers speak, so a workload, test or bench written against
/// [`RangeStore`] runs unchanged on a bare machine — the differential
/// tests use it as the trusted single-caller reference.
///
/// Semantics match the threaded backends op for op: writes validate
/// sequentially (duplicate/reserved ids rejected exactly as a
/// sequential `insert_batch` would) and commit before the request's
/// reads; all reads fuse into **one** `QueryBatch` — one machine run
/// per request, however many reads it carries (zero when the store or
/// the read set is empty). Queueing deadlines never expire (nothing
/// queues) and [`Consistency`](crate::Consistency) bounds are checked
/// against the same serial commit counter the serving layers use.
///
/// `submit` takes `&self` (the store is internally locked), so an
/// `InlineStore` can stand in for a service in multi-threaded callers
/// too — requests simply serialize on the lock.
///
/// # Panics
/// A simulated-processor panic during a *write* cascade propagates to
/// the caller (there is no scheduler to quarantine a half-applied
/// store); read failures resolve the tickets with
/// [`ServiceError::Machine`] like the serving layers do.
pub struct InlineStore<S: Semigroup, const D: usize> {
    sg: S,
    machine: Machine,
    inner: Mutex<InlineState<D>>,
}

struct InlineState<const D: usize> {
    tree: DynamicDistRangeTree<D>,
    next_seq: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

enum ReadSlot<S: Semigroup> {
    Count(usize, Resolver<u64>),
    Agg(usize, Resolver<Option<S::Val>>),
    Report(usize, Resolver<Vec<u32>>),
}

impl<S: Semigroup, const D: usize> InlineStore<S, D> {
    /// Wrap a machine and a store. The store must have been built with
    /// this machine (or be empty); all further construction uses it.
    pub fn new(machine: Machine, tree: DynamicDistRangeTree<D>, sg: S) -> Self {
        InlineStore { sg, machine, inner: Mutex::new(InlineState { tree, next_seq: 0 }) }
    }

    /// Hand the machine and the store back.
    pub fn into_parts(self) -> (Machine, DynamicDistRangeTree<D>) {
        (
            self.machine,
            self.inner.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner).tree,
        )
    }

    /// The machine queries execute on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of commits performed so far (the next commit takes this
    /// sequence number).
    pub fn committed(&self) -> u64 {
        lock(&self.inner).next_seq
    }

    /// Live points in the store.
    pub fn len(&self) -> usize {
        lock(&self.inner).tree.len()
    }

    /// True when the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<S: Semigroup, const D: usize> RangeStore<S, D> for InlineStore<S, D> {
    fn submit(&self, req: Request<S, D>) -> Result<Ticket<Response<S>>, SubmitError> {
        assert!(!req.is_empty(), "submitted an empty request");
        let planned = req.plan();
        let mut st = lock(&self.inner);
        let mut qb = QueryBatch::new(self.sg);
        let mut slots: Vec<ReadSlot<S>> = Vec::new();
        let bound_err = |next_seq: u64| {
            planned
                .min_seq
                .filter(|&s| s >= next_seq)
                .map(|s| ServiceError::Consistency { required: s, committed: next_seq })
        };
        for op in planned.ops {
            match op {
                // The store refuses a bad batch (reserved id, id live or
                // repeated) before it moves a point, and keeps its version.
                PlannedOp::Insert(pts, r) => match st.tree.insert_batch(&self.machine, &pts) {
                    Ok(()) => {
                        let seq = st.next_seq;
                        st.next_seq += 1;
                        r.resolve(Ok(Commit { value: (), seq }));
                    }
                    Err(e) => r.resolve(Err(ServiceError::Rejected(e))),
                },
                PlannedOp::Delete(ids, r) => {
                    st.tree
                        .delete_batch(&self.machine, &ids)
                        .expect("delete_batch ignores missing ids");
                    let seq = st.next_seq;
                    st.next_seq += 1;
                    r.resolve(Ok(Commit { value: (), seq }));
                }
                PlannedOp::Count(q, r) => slots.push(ReadSlot::Count(qb.count(q), r)),
                PlannedOp::Aggregate(q, r) => slots.push(ReadSlot::Agg(qb.aggregate(q), r)),
                PlannedOp::Report(q, r) => slots.push(ReadSlot::Report(qb.report(q), r)),
            }
        }
        if !slots.is_empty() {
            // Reads run after the writes, against the post-write store —
            // the same read-your-writes order the serving layers give a
            // request — and all of them ride one fused execution.
            // Consistency bounds gate only the reads (writes observe
            // nothing), judged against the post-write commit counter
            // like the serving layers judge them at read dispatch.
            if let Some(e) = bound_err(st.next_seq) {
                for slot in slots {
                    fail_slot(slot, e.clone());
                }
            } else {
                match qb.try_execute_dynamic(&self.machine, &st.tree) {
                    Ok(mut out) => {
                        for slot in slots {
                            let seq = st.next_seq;
                            st.next_seq += 1;
                            match slot {
                                ReadSlot::Count(i, r) => {
                                    r.resolve(Ok(Commit { value: out.counts[i], seq }));
                                }
                                ReadSlot::Agg(i, r) => {
                                    r.resolve(Ok(Commit { value: out.aggregates[i].take(), seq }));
                                }
                                ReadSlot::Report(i, r) => r.resolve(Ok(Commit {
                                    value: std::mem::take(&mut out.reports[i]),
                                    seq,
                                })),
                            }
                        }
                    }
                    Err(e) => {
                        let err = ServiceError::Machine(e.to_string());
                        for slot in slots {
                            fail_slot(slot, err.clone());
                        }
                    }
                }
            }
        }
        Ok(planned.ticket)
    }
}

fn fail_slot<S: Semigroup>(slot: ReadSlot<S>, e: ServiceError) {
    match slot {
        ReadSlot::Count(_, r) => r.resolve(Err(e)),
        ReadSlot::Agg(_, r) => r.resolve(Err(e)),
        ReadSlot::Report(_, r) => r.resolve(Err(e)),
    }
}

impl<S: Semigroup, const D: usize> std::fmt::Debug for InlineStore<S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineStore").field("d", &D).field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrs_rangetree::{Point, Sum, PAD_ID};

    #[test]
    fn inserts_get_the_verdict_of_the_store_itself() {
        let machine = Machine::new(2).unwrap();
        let mut tree = DynamicDistRangeTree::<2>::new(4);
        let live: Vec<Point<2>> = (0..6).map(|i| Point::new([i, 2 * i], i as u32)).collect();
        tree.insert_batch(&machine, &live).unwrap();
        let bad = [
            vec![Point::new([9, 9], 7), Point::new([9, 8], PAD_ID)],
            vec![Point::new([9, 9], 7), Point::new([9, 8], 3)],
            vec![Point::new([9, 9], 7), Point::new([9, 8], 8), Point::new([9, 7], 7)],
        ];
        let verdicts: Vec<_> =
            bad.iter().map(|pts| tree.clone().insert_batch(&machine, pts).unwrap_err()).collect();
        let points: Vec<Point<2>> = tree.points().copied().collect();
        let store = InlineStore::new(machine, tree, Sum);
        let runs = store.machine().stats().runs;
        for (pts, verdict) in bad.into_iter().zip(verdicts) {
            assert_eq!(store.insert(pts).unwrap().wait(), Err(ServiceError::Rejected(verdict)));
        }
        assert_eq!(store.len(), 6);
        assert!(lock(&store.inner).tree.points().copied().eq(points));
        assert_eq!(store.machine().stats().runs, runs, "a refused batch runs nothing");
        assert_eq!(store.committed(), 0);
        let ok = store.insert(vec![Point::new([9, 9], 7)]).unwrap().wait();
        assert_eq!(ok, Ok(Commit { value: (), seq: 0 }));
        assert_eq!(store.len(), 7);
    }
}
