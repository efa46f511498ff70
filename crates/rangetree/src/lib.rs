//! # ddrs-rangetree — distributed d-dimensional range trees
//!
//! Reproduction of the data structures and algorithms of *Ferreira,
//! Kenyon, Rau-Chaplin, Ubéda — "d-Dimensional Range Search on
//! Multicomputers"* (IPPS 1997):
//!
//! * [`SeqRangeTree`] — the classical sequential range tree
//!   (`O(n log^(d-1) n)` space, `O(log^d n)` search) the paper builds on;
//! * [`DistRangeTree`] — the paper's contribution: a distributed range
//!   tree on a `CGM(s, p)` machine, split into a replicated **hat** (the
//!   top `log p` levels, a range tree on `p` leaves) and a distributed
//!   **forest** of `n/p`-point subtrees, supporting batched multisearch
//!   with per-tree congestion balancing;
//! * query modes: counting, generic commutative-[`Semigroup`]
//!   aggregation (*associative-function mode*) and enumeration
//!   (*report mode*);
//! * [`QueryBatch`] — any mix of the three modes planned into one SPMD
//!   submission (see [`batch`]).
//!
//! ```
//! use ddrs_cgm::Machine;
//! use ddrs_rangetree::{DistRangeTree, Point, Rect};
//!
//! let machine = Machine::new(4).unwrap();
//! let pts: Vec<Point<2>> =
//!     (0..64).map(|i| Point::new([i, 63 - i], i as u32)).collect();
//! let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
//! let counts = tree.count_batch(&machine, &[Rect::new([0, 0], [15, 63])]);
//! assert_eq!(counts, vec![16]);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod dist;
pub mod heap;
pub mod label;
pub mod point;
pub mod rank;
pub mod semigroup;
pub mod seq;

pub use batch::{BatchResults, QueryBatch};
pub use dist::{
    fused_query_batch, try_fused_query_batch, BuildError, DistRangeTree, DynamicDistRangeTree,
    FusedOutputs, StructureReport,
};
pub use point::{Point, RPoint, RRect, Rect, PAD_ID};
pub use rank::{check_ids, RankError, RankSpace};
pub use semigroup::{Count, MaxWeight, MinId, Semigroup, Sum};
pub use seq::{DimTree, Sel, SeqRangeTree};

#[cfg(test)]
mod tests {
    // The `batch` module's tests, at the crate root because they drive
    // the builder against both tree types through the public surface.
    use super::*;
    use ddrs_cgm::Machine;

    fn pts(range: std::ops::Range<u32>) -> Vec<Point<2>> {
        range
            .map(|i| Point::weighted([((i * 193) % 777) as i64, ((i * 71) % 555) as i64], i, 3))
            .collect()
    }

    #[test]
    fn batch_indices_map_to_results() {
        let machine = Machine::new(2).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..50)).unwrap();
        let mut batch = QueryBatch::new(Sum);
        let all = Rect::new([0, 0], [800, 600]);
        let none = Rect::new([900, 900], [901, 901]);
        let c0 = batch.count(all);
        let c1 = batch.count(none);
        let a0 = batch.aggregate(all);
        let r0 = batch.report(none);
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        let out = batch.execute(&machine, &tree);
        assert_eq!(out.counts[c0], 50);
        assert_eq!(out.counts[c1], 0);
        assert_eq!(out.aggregates[a0], Some(150));
        assert!(out.reports[r0].is_empty());
    }

    #[test]
    fn dynamic_execution_is_one_run() {
        let machine = Machine::new(4).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        t.insert_batch(&machine, &pts(0..32)).unwrap();
        t.insert_batch(&machine, &pts(40..56)).unwrap();
        t.insert_batch(&machine, &pts(60..67)).unwrap();
        assert_eq!(t.occupied_levels(), 3);
        let mut batch = QueryBatch::new(Sum);
        batch.count(Rect::new([0, 0], [800, 600]));
        batch.aggregate(Rect::new([0, 0], [400, 300]));
        batch.report(Rect::new([0, 0], [100, 100]));
        machine.take_stats();
        let out = batch.execute_dynamic(&machine, &t);
        let stats = machine.take_stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(out.counts[0], 55);
    }

    #[test]
    fn try_execute_agrees_with_execute() {
        let machine = Machine::new(4).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..80)).unwrap();
        let mut dynamic = DynamicDistRangeTree::<2>::new(8);
        dynamic.insert_batch(&machine, &pts(0..40)).unwrap();
        dynamic.insert_batch(&machine, &pts(50..70)).unwrap();
        let mut batch = QueryBatch::new(Sum);
        batch.count(Rect::new([0, 0], [800, 600]));
        batch.aggregate(Rect::new([0, 0], [400, 300]));
        batch.report(Rect::new([0, 0], [100, 100]));
        let (a, b) = (batch.execute(&machine, &tree), batch.try_execute(&machine, &tree).unwrap());
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.aggregates, b.aggregates);
        assert_eq!(a.reports, b.reports);
        let (a, b) = (
            batch.execute_dynamic(&machine, &dynamic),
            batch.try_execute_dynamic(&machine, &dynamic).unwrap(),
        );
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.aggregates, b.aggregates);
        assert_eq!(a.reports, b.reports);
    }

    #[test]
    fn from_parts_round_trips_and_matches_builder() {
        let machine = Machine::new(2).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..40)).unwrap();
        let all = Rect::new([0, 0], [800, 600]);
        let corner = Rect::new([0, 0], [100, 100]);
        let batch = QueryBatch::from_parts(Sum, vec![all, corner], vec![all], vec![corner]);
        let (c, a, r) = batch.parts();
        assert_eq!((c.len(), a.len(), r.len()), (2, 1, 1));
        assert_eq!(c[1], corner);
        let mut built = QueryBatch::new(Sum);
        built.count(all);
        built.count(corner);
        built.aggregate(all);
        built.report(corner);
        let (x, y) = (batch.execute(&machine, &tree), built.execute(&machine, &tree));
        assert_eq!(x.counts, y.counts);
        assert_eq!(x.aggregates, y.aggregates);
        assert_eq!(x.reports, y.reports);
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let machine = Machine::new(2).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..20)).unwrap();
        machine.take_stats();
        let batch: QueryBatch<Sum, 2> = QueryBatch::new(Sum);
        assert!(batch.is_empty());
        let out = batch.execute(&machine, &tree);
        assert!(out.counts.is_empty());
        assert_eq!(machine.take_stats().runs, 0);
    }
}
