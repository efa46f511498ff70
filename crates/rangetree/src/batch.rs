//! The one-submission-per-batch query engine.
//!
//! Clients accumulate heterogeneous range queries — counts, semigroup
//! aggregations and reports — into a [`QueryBatch`], and the whole batch
//! is planned into a **single** SPMD program on the CGM machine, whatever
//! the mix of modes and (for a [`DynamicDistRangeTree`]) however many
//! logarithmic-method levels are occupied. This matches the paper's
//! shape: a constant number of communication rounds per batch, end to end.
//!
//! ```text
//!   client queries            engine                      machine
//!   ──────────────   ┌─────────────────────┐   ┌──────────────────────┐
//!   count(q1) ──┐    │ QueryBatch          │   │ one Machine::run:    │
//!   sum(q2)   ──┼──▶ │  counts: [q1, …]    │──▶│  value fill (agg)    │
//!   report(q3)──┘    │  aggs:   [q2, …]    │   │  hat stages (all     │
//!                    │  reports:[q3, …]    │   │   modes × levels)    │
//!                    └─────────────────────┘   │  ONE balancing round │
//!                            ▲                 │  sort + seg. fold    │
//!                            │ results mapped  │  report rebalance    │
//!                            ▼ back per mode   └──────────────────────┘
//!   BatchResults { counts, aggregates, reports }
//! ```
//!
//! The executor underneath is persistent (see `ddrs-cgm`): submitting a
//! batch runs rank 0 on the submitting thread, it does not spawn threads.
//!
//! ## Example
//!
//! ```
//! use ddrs_cgm::Machine;
//! use ddrs_rangetree::{DistRangeTree, Point, QueryBatch, Rect, Sum};
//!
//! let machine = Machine::new(4).unwrap();
//! let pts: Vec<Point<2>> =
//!     (0..128).map(|i| Point::weighted([i, 127 - i], i as u32, 2)).collect();
//! let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
//!
//! let mut batch = QueryBatch::new(Sum);
//! let c = batch.count(Rect::new([0, 0], [63, 127]));
//! let a = batch.aggregate(Rect::new([0, 0], [127, 127]));
//! let r = batch.report(Rect::new([5, 120], [7, 124]));
//! let out = batch.execute(&machine, &tree);
//! assert_eq!(out.counts[c], 64);
//! assert_eq!(out.aggregates[a], Some(256)); // 128 points × weight 2
//! assert_eq!(out.reports[r], vec![5, 6, 7]);
//! ```

use ddrs_cgm::{CgmError, Machine};

use crate::{
    fused_query_batch, try_fused_query_batch, DistRangeTree, DynamicDistRangeTree, FusedOutputs,
    Rect, Semigroup,
};

/// Results of one executed [`QueryBatch`], per mode, indexed by the
/// handles the builder methods returned.
pub type BatchResults<S> = FusedOutputs<S>;

/// Builder for a heterogeneous query batch: any mix of count, aggregate
/// and report queries, executed in one machine submission.
///
/// Each builder method returns the query's index into the corresponding
/// [`BatchResults`] vector. The batch is reusable: `execute*` borrows it,
/// so one batch can be replayed against several trees or machines.
#[derive(Debug, Clone)]
pub struct QueryBatch<S: Semigroup, const D: usize> {
    sg: S,
    counts: Vec<Rect<D>>,
    aggs: Vec<Rect<D>>,
    reports: Vec<Rect<D>>,
}

impl<S: Semigroup, const D: usize> QueryBatch<S, D> {
    /// An empty batch whose aggregate queries fold with `sg`.
    pub fn new(sg: S) -> Self {
        QueryBatch { sg, counts: Vec::new(), aggs: Vec::new(), reports: Vec::new() }
    }

    /// Add a counting query; returns its index into
    /// [`BatchResults::counts`].
    pub fn count(&mut self, q: Rect<D>) -> usize {
        self.counts.push(q);
        self.counts.len() - 1
    }

    /// Add an associative-function query; returns its index into
    /// [`BatchResults::aggregates`].
    pub fn aggregate(&mut self, q: Rect<D>) -> usize {
        self.aggs.push(q);
        self.aggs.len() - 1
    }

    /// Add a report query; returns its index into
    /// [`BatchResults::reports`].
    pub fn report(&mut self, q: Rect<D>) -> usize {
        self.reports.push(q);
        self.reports.len() - 1
    }

    /// Assemble a batch from pre-split per-mode query lists. Query `i`
    /// of each list lands at index `i` of the corresponding
    /// [`BatchResults`] vector — the contract the sharded router relies
    /// on when it splits one client batch into per-shard sub-batches
    /// and maps partial results back by index.
    pub fn from_parts(
        sg: S,
        counts: Vec<Rect<D>>,
        aggs: Vec<Rect<D>>,
        reports: Vec<Rect<D>>,
    ) -> Self {
        QueryBatch { sg, counts, aggs, reports }
    }

    /// The per-mode query lists `(counts, aggregates, reports)` in
    /// result-index order — the inverse of
    /// [`from_parts`](QueryBatch::from_parts), for planners that need to
    /// introspect an assembled batch.
    pub fn parts(&self) -> (&[Rect<D>], &[Rect<D>], &[Rect<D>]) {
        (&self.counts, &self.aggs, &self.reports)
    }

    /// Move every query of `other` behind this batch's own, mode by
    /// mode: query `i` of `other`'s count list lands at count index
    /// `self.parts().0.len() + i`, and likewise for the other two modes.
    /// The shard worker uses this to run queued read sub-batches as one
    /// machine submission and split the results back by per-mode length.
    pub fn append(&mut self, other: QueryBatch<S, D>) {
        self.counts.extend(other.counts);
        self.aggs.extend(other.aggs);
        self.reports.extend(other.reports);
    }

    /// Total queries across all modes.
    pub fn len(&self) -> usize {
        self.counts.len() + self.aggs.len() + self.reports.len()
    }

    /// True when no queries have been added (executing such a batch is
    /// free: no machine dispatch happens).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execute against a static tree: one [`Machine::run`] for the whole
    /// batch (zero for an empty batch).
    ///
    /// # Panics
    /// Panics when a simulated processor panics mid-program; use
    /// [`try_execute`](QueryBatch::try_execute) to handle the failure
    /// instead.
    pub fn execute(&self, machine: &Machine, tree: &DistRangeTree<D>) -> BatchResults<S> {
        fused_query_batch(machine, &[tree], self.sg, &self.counts, &self.aggs, &self.reports)
    }

    /// Fallible counterpart of [`execute`](QueryBatch::execute): routed
    /// through [`Machine::try_run`], so a panicked simulated processor
    /// surfaces as [`CgmError::ProcessorPanicked`] and the machine stays
    /// usable. This is the entry point long-lived callers (the shard
    /// workers) use so one poisoned batch cannot take the dispatcher
    /// down with it.
    pub fn try_execute(
        &self,
        machine: &Machine,
        tree: &DistRangeTree<D>,
    ) -> Result<BatchResults<S>, CgmError> {
        try_fused_query_batch(machine, &[tree], self.sg, &self.counts, &self.aggs, &self.reports)
    }

    /// Execute against a dynamic store: all occupied logarithmic-method
    /// levels are fused into the same single [`Machine::run`] (zero for
    /// an empty batch or an empty store).
    ///
    /// # Panics
    /// Panics when a simulated processor panics mid-program; use
    /// [`try_execute_dynamic`](QueryBatch::try_execute_dynamic) to handle
    /// the failure instead.
    pub fn execute_dynamic(
        &self,
        machine: &Machine,
        tree: &DynamicDistRangeTree<D>,
    ) -> BatchResults<S> {
        fused_query_batch(
            machine,
            &tree.level_trees(),
            self.sg,
            &self.counts,
            &self.aggs,
            &self.reports,
        )
    }

    /// Fallible counterpart of
    /// [`execute_dynamic`](QueryBatch::execute_dynamic), routed through
    /// [`Machine::try_run`] like [`try_execute`](QueryBatch::try_execute).
    pub fn try_execute_dynamic(
        &self,
        machine: &Machine,
        tree: &DynamicDistRangeTree<D>,
    ) -> Result<BatchResults<S>, CgmError> {
        try_fused_query_batch(
            machine,
            &tree.level_trees(),
            self.sg,
            &self.counts,
            &self.aggs,
            &self.reports,
        )
    }
}
