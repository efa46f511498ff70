//! Dynamization by the logarithmic method (Bentley–Saxe).
//!
//! Section 5 of the paper notes the range tree "is inherently static"
//! and names a dynamic distributed structure as future work. The
//! classical route — used here — is the logarithmic method: maintain a
//! collection of static [`DistRangeTree`]s whose sizes follow a binary
//! counter (level `i` holds at most `capacity · 2^i` points). An
//! inserted batch cascades like a carry: it merges with occupied levels
//! until it reaches one that can absorb the union, which is then rebuilt
//! with Algorithm Construct. Decomposable queries (counting, semigroup
//! aggregation, reporting) are answered by combining the per-level
//! answers, costing one extra `O(log(n/capacity))` factor of *local
//! work* — but not of communication: every query mode plans all occupied
//! levels into a single fused SPMD program
//! ([`crate::dist::fused`]), so a batch costs exactly one
//! [`Machine::run`] and a constant number of supersteps regardless of
//! the level count.
//!
//! Deletions rebuild the affected structure wholesale (the conservative
//! choice: the semigroup aggregates have no inverses to subtract with),
//! keeping every query mode exact.
//!
//! A store *is* its level vector and a level is immutable once built, so
//! a `clone` is one `Arc` per level: a second **version** sharing every
//! level. A write to either replaces only the levels it rebuilds, in that
//! version alone (`ddrs-shard` undoes a write by keeping the old version).

use std::collections::HashSet;
use std::sync::Arc;

use ddrs_cgm::Machine;

use crate::dist::fused::fused_query_batch;
use crate::dist::{BuildError, DistRangeTree};
use crate::point::{Point, Rect, PAD_ID};
use crate::semigroup::{Count, Semigroup};

struct Level<const D: usize> {
    pts: Vec<Point<D>>,
    /// The ids of `pts`, ascending: `contains_id` probes it.
    ids: Vec<u32>,
    tree: DistRangeTree<D>,
}

/// A dynamic distributed range tree: the logarithmic method over static
/// [`DistRangeTree`]s. `clone` is O(levels): a version, see the module docs.
#[derive(Clone)]
pub struct DynamicDistRangeTree<const D: usize> {
    capacity: usize,
    levels: Vec<Option<Arc<Level<D>>>>,
}

impl<const D: usize> DynamicDistRangeTree<D> {
    /// An empty store whose smallest rebuild unit holds `capacity`
    /// points (level `i` holds at most `capacity · 2^i`).
    pub fn new(capacity: usize) -> Self {
        DynamicDistRangeTree { capacity: capacity.max(1), levels: Vec::new() }
    }

    /// Capacity of level `i`.
    fn cap(&self, i: usize) -> usize {
        self.capacity.saturating_mul(1usize << i.min(usize::BITS as usize - 2))
    }

    /// Place `carry` into the level structure, merging upward until a
    /// level can absorb it, then rebuild that level's static tree.
    fn place(&mut self, machine: &Machine, mut carry: Vec<Point<D>>) -> Result<(), BuildError> {
        let mut i = 0;
        loop {
            while carry.len() > self.cap(i) {
                i += 1;
            }
            if self.levels.len() <= i {
                self.levels.resize_with(i + 1, || None);
            }
            match self.levels[i].take() {
                None => {
                    let tree = DistRangeTree::build(machine, &carry)?;
                    let mut ids: Vec<u32> = carry.iter().map(|p| p.id).collect();
                    ids.sort_unstable();
                    self.levels[i] = Some(Arc::new(Level { pts: carry, ids, tree }));
                    return Ok(());
                }
                Some(level) => carry.extend_from_slice(&level.pts),
            }
        }
    }

    /// Insert a batch of points (ids must be new and not the pad id).
    pub fn insert_batch(&mut self, machine: &Machine, pts: &[Point<D>]) -> Result<(), BuildError> {
        if pts.is_empty() {
            return Ok(());
        }
        let mut batch_ids = HashSet::with_capacity(pts.len());
        for p in pts {
            if p.id == PAD_ID {
                return Err(BuildError::ReservedId);
            }
            if self.contains_id(p.id) || !batch_ids.insert(p.id) {
                return Err(BuildError::DuplicateId(p.id));
            }
        }
        self.place(machine, pts.to_vec())
    }

    /// Delete points by id (ids not present are ignored). The surviving
    /// points are repacked and rebuilt, keeping every query mode exact.
    pub fn delete_batch(&mut self, machine: &Machine, ids: &[u32]) -> Result<(), BuildError> {
        self.extract_batch(machine, ids).map(|_| ())
    }

    /// Delete points by id and hand the removed points back (ids not
    /// present are ignored). The surviving points are repacked and
    /// rebuilt exactly as by [`delete_batch`](Self::delete_batch).
    ///
    /// This is the donor side of shard migration (`ddrs-shard`): a
    /// subtree of points leaves this store and is re-inserted into a
    /// sibling store, so the extraction must return the full points —
    /// coordinates, ids and weights — not just acknowledge the ids.
    pub fn extract_batch(
        &mut self,
        machine: &Machine,
        ids: &[u32],
    ) -> Result<Vec<Point<D>>, BuildError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let dead: HashSet<u32> = ids.iter().copied().collect();
        let (removed, live): (Vec<Point<D>>, Vec<Point<D>>) =
            self.points().partition(|p| dead.contains(&p.id));
        self.levels.clear();
        if !live.is_empty() {
            self.place(machine, live)?;
        }
        Ok(removed)
    }

    /// All live points, in unspecified order. A read-only snapshot used
    /// by migration planning (choosing which subtree of points to move
    /// between shard groups) and by state export.
    pub fn points(&self) -> impl Iterator<Item = &Point<D>> + '_ {
        self.levels.iter().flatten().flat_map(|level| level.pts.iter())
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.levels.iter().flatten().map(|level| level.pts.len()).sum()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when a point with this id is live in the store: one binary
    /// search per occupied level.
    pub fn contains_id(&self, id: u32) -> bool {
        self.levels.iter().flatten().any(|level| level.ids.binary_search(&id).is_ok())
    }

    /// Number of non-empty levels (static trees queries fan out over).
    pub fn occupied_levels(&self) -> usize {
        self.levels.iter().flatten().count()
    }

    /// The occupied levels' static trees, smallest level first — the
    /// "levels" slice the fused engine ([`fused_query_batch`]) fans a
    /// batch over.
    pub fn level_trees(&self) -> Vec<&DistRangeTree<D>> {
        self.levels.iter().flatten().map(|level| &level.tree).collect()
    }

    /// Batched counting over all levels, fused into **one**
    /// [`Machine::run`] regardless of how many levels are occupied (and
    /// zero runs for an empty batch or an empty store).
    pub fn count_batch(&self, machine: &Machine, queries: &[Rect<D>]) -> Vec<u64> {
        fused_query_batch::<Count, D>(machine, &self.level_trees(), Count, queries, &[], &[]).counts
    }

    /// Batched associative-function mode over all levels (query
    /// decomposability of the semigroup fold), fused into one
    /// [`Machine::run`].
    pub fn aggregate_batch<S: Semigroup>(
        &self,
        machine: &Machine,
        sg: S,
        queries: &[Rect<D>],
    ) -> Vec<Option<S::Val>> {
        fused_query_batch(machine, &self.level_trees(), sg, &[], queries, &[]).aggregates
    }

    /// Batched report mode over all levels, fused into one
    /// [`Machine::run`]: matching ids per query, ascending.
    pub fn report_batch(&self, machine: &Machine, queries: &[Rect<D>]) -> Vec<Vec<u32>> {
        fused_query_batch::<Count, D>(machine, &self.level_trees(), Count, &[], &[], queries)
            .reports
    }

    /// A heterogeneous count + aggregate + report batch over all levels
    /// in a single machine submission — the dynamic store's native query
    /// interface for mixed traffic.
    pub fn query_batch_fused<S: Semigroup>(
        &self,
        machine: &Machine,
        sg: S,
        counts: &[Rect<D>],
        aggs: &[Rect<D>],
        reports: &[Rect<D>],
    ) -> crate::dist::fused::FusedOutputs<S> {
        fused_query_batch(machine, &self.level_trees(), sg, counts, aggs, reports)
    }
}

impl<const D: usize> std::fmt::Debug for DynamicDistRangeTree<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let level_sizes: Vec<usize> =
            self.levels.iter().map(|l| l.as_ref().map_or(0, |lv| lv.pts.len())).collect();
        f.debug_struct("DynamicDistRangeTree")
            .field("d", &D)
            .field("points", &self.len())
            .field("capacity", &self.capacity)
            .field("level_sizes", &level_sizes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(range: std::ops::Range<u32>) -> Vec<Point<2>> {
        range.map(|i| Point::new([((i * 193) % 777) as i64, ((i * 71) % 555) as i64], i)).collect()
    }

    #[test]
    fn binary_counter_levels() {
        let machine = Machine::new(2).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        for wave in 0..4 {
            t.insert_batch(&machine, &pts(wave * 8..wave * 8 + 8)).unwrap();
        }
        assert_eq!(t.len(), 32);
        // 4 batches of exactly the base capacity: binary counter 100 →
        // one occupied level of 32.
        assert_eq!(t.occupied_levels(), 1);
        t.insert_batch(&machine, &pts(100..104)).unwrap();
        assert_eq!(t.occupied_levels(), 2);
    }

    #[test]
    fn rejects_duplicate_and_reserved_ids() {
        let machine = Machine::new(2).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        t.insert_batch(&machine, &pts(0..4)).unwrap();
        assert!(matches!(t.insert_batch(&machine, &pts(3..5)), Err(BuildError::DuplicateId(3))));
        assert_eq!(t.len(), 4, "failed insert must not change the store");
        let bad = vec![Point::<2>::new([0, 0], PAD_ID)];
        assert!(matches!(t.insert_batch(&machine, &bad), Err(BuildError::ReservedId)));
    }

    #[test]
    fn delete_then_query_all_modes() {
        let machine = Machine::new(4).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(16);
        let all = pts(0..60);
        t.insert_batch(&machine, &all).unwrap();
        t.delete_batch(&machine, &[0, 5, 10, 59, 1000]).unwrap();
        assert_eq!(t.len(), 56);
        let q = Rect::new([0, 0], [800, 600]);
        assert_eq!(t.count_batch(&machine, &[q])[0], 56);
        let ids = t.report_batch(&machine, &[q]);
        assert_eq!(ids[0].len(), 56);
        assert!(!ids[0].contains(&5));
        let sums = t.aggregate_batch(&machine, crate::semigroup::Sum, &[q]);
        // Unit weights, so the sum equals the live count.
        assert_eq!(sums[0], Some(56));
        // Delete everything.
        let rest: Vec<u32> = ids[0].clone();
        t.delete_batch(&machine, &rest).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.count_batch(&machine, &[q]), vec![0]);
        assert!(t.report_batch(&machine, &[q])[0].is_empty());
    }

    #[test]
    fn empty_store_queries() {
        let machine = Machine::new(2).unwrap();
        let t = DynamicDistRangeTree::<2>::new(4);
        let q = Rect::new([0, 0], [10, 10]);
        assert_eq!(t.count_batch(&machine, &[q]), vec![0]);
        assert_eq!(t.aggregate_batch(&machine, crate::semigroup::Sum, &[q]), vec![None]);
        assert!(format!("{t:?}").contains("DynamicDistRangeTree"));
    }

    /// A mixed batch over `L` occupied levels is one `Machine::run` (the
    /// per-level-per-mode dispatch used to cost `3·L`).
    #[test]
    fn mixed_batch_is_one_submission_across_levels() {
        let machine = Machine::new(4).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        // Batches sized to leave three levels occupied (binary counter 111).
        t.insert_batch(&machine, &pts(0..32)).unwrap();
        t.insert_batch(&machine, &pts(100..116)).unwrap();
        t.insert_batch(&machine, &pts(200..207)).unwrap();
        assert_eq!(t.occupied_levels(), 3);
        let qs = vec![Rect::new([0, 0], [800, 600]), Rect::new([100, 100], [300, 300])];
        machine.take_stats();
        let out = t.query_batch_fused(&machine, crate::semigroup::Sum, &qs, &qs, &qs);
        let stats = machine.take_stats();
        assert_eq!(stats.runs, 1, "mixed batch over 3 levels must be one run");
        // And the fused answers agree with the per-mode fused paths.
        assert_eq!(out.counts, t.count_batch(&machine, &qs));
        assert_eq!(out.aggregates, t.aggregate_batch(&machine, crate::semigroup::Sum, &qs));
        assert_eq!(out.reports, t.report_batch(&machine, &qs));
        // Each per-mode call above was itself one run.
        assert_eq!(machine.take_stats().runs, 3);
    }

    #[test]
    fn extract_returns_the_removed_points() {
        let machine = Machine::new(2).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        let all = pts(0..20);
        t.insert_batch(&machine, &all).unwrap();
        let mut removed = t.extract_batch(&machine, &[3, 7, 11, 999]).unwrap();
        removed.sort_unstable_by_key(|p| p.id);
        assert_eq!(removed.len(), 3, "missing ids are ignored");
        for (p, id) in removed.iter().zip([3u32, 7, 11]) {
            assert_eq!(p.id, id);
            assert_eq!(*p, all[id as usize], "extraction preserves coords and weight");
        }
        assert_eq!(t.len(), 17);
        assert!(!t.contains_id(7));
        // The extracted points can be re-inserted (migration round-trip).
        t.insert_batch(&machine, &removed).unwrap();
        assert_eq!(t.len(), 20);
        let q = Rect::new([0, 0], [800, 600]);
        assert_eq!(t.count_batch(&machine, &[q]), vec![20]);
    }

    #[test]
    fn points_iterates_every_live_point() {
        let machine = Machine::new(2).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(4);
        assert_eq!(t.points().count(), 0);
        t.insert_batch(&machine, &pts(0..9)).unwrap();
        t.delete_batch(&machine, &[2, 4]).unwrap();
        let mut ids: Vec<u32> = t.points().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3, 5, 6, 7, 8]);
    }

    /// Writes through one version never show in the other, and the levels
    /// a write leaves alone stay shared.
    #[test]
    fn a_clone_is_an_independent_version() {
        use crate::semigroup::Sum;
        let machine = Machine::new(2).unwrap();
        let qs = [Rect::new([0, 0], [800, 600]), Rect::new([100, 100], [500, 300])];
        // Every mode's answer against brute force over `expect`.
        let check = |t: &DynamicDistRangeTree<2>, expect: &[Point<2>]| {
            assert_eq!(t.len(), expect.len());
            let out = t.query_batch_fused(&machine, Sum, &qs, &qs, &qs);
            for (i, q) in qs.iter().enumerate() {
                let hits: Vec<&Point<2>> = expect.iter().filter(|p| q.contains(p)).collect();
                let mut ids: Vec<u32> = hits.iter().map(|p| p.id).collect();
                ids.sort_unstable();
                assert_eq!(out.counts[i], hits.len() as u64);
                assert_eq!(out.aggregates[i], hits.iter().map(|p| p.weight).reduce(|a, b| a + b));
                assert_eq!(out.reports[i], ids);
            }
        };
        let shared = |a: &DynamicDistRangeTree<2>, b: &DynamicDistRangeTree<2>| -> Vec<bool> {
            let pairs = a.levels.iter().zip(&b.levels);
            pairs.map(|(x, y)| matches!((x, y), (Some(x), Some(y)) if Arc::ptr_eq(x, y))).collect()
        };
        // Binary counter 1001: 4 points in level 0, 40 in level 3.
        let mut a = DynamicDistRangeTree::<2>::new(8);
        a.insert_batch(&machine, &pts(0..40)).unwrap();
        a.insert_batch(&machine, &pts(100..104)).unwrap();
        let original: Vec<Point<2>> = pts(0..40).into_iter().chain(pts(100..104)).collect();
        let mut b = a.clone();
        assert_eq!(shared(&a, &b), [true, false, false, true]);

        // An insert through the clone rebuilds level 0 only.
        b.insert_batch(&machine, &pts(200..203)).unwrap();
        let grown: Vec<Point<2>> = original.iter().copied().chain(pts(200..203)).collect();
        assert_eq!(shared(&a, &b), [false, false, false, true]);
        assert!(b.contains_id(200) && !a.contains_id(200));
        check(&a, &original);
        check(&b, &grown);

        // And the other way: a delete through the original.
        a.delete_batch(&machine, &[0, 100]).unwrap();
        let shrunk: Vec<Point<2>> =
            original.iter().copied().filter(|p| p.id != 0 && p.id != 100).collect();
        assert!(b.contains_id(0) && !a.contains_id(0));
        check(&a, &shrunk);
        check(&b, &grown);
    }

    /// Empty and trivial batches must not pay any machine dispatch.
    #[test]
    fn trivial_batches_skip_the_machine() {
        let machine = Machine::new(4).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        t.insert_batch(&machine, &pts(0..20)).unwrap();
        machine.take_stats();
        // Empty query batches against an occupied store…
        assert!(t.count_batch(&machine, &[]).is_empty());
        assert!(t.aggregate_batch(&machine, crate::semigroup::Sum, &[]).is_empty());
        assert!(t.report_batch(&machine, &[]).is_empty());
        // …and non-empty batches against an empty store.
        let empty = DynamicDistRangeTree::<2>::new(8);
        let q = Rect::new([0, 0], [10, 10]);
        assert_eq!(empty.count_batch(&machine, &[q]), vec![0]);
        assert_eq!(empty.report_batch(&machine, &[q]), vec![Vec::<u32>::new()]);
        let stats = machine.take_stats();
        assert_eq!(stats.supersteps(), 0, "trivial batches must not communicate");
        assert_eq!(stats.runs, 0, "trivial batches must not dispatch");
    }
}
