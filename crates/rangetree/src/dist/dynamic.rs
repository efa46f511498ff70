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
//!
//! ## A write is a fold, then a build
//!
//! The **fold** (`Fold`) only moves point sets between levels: an insert
//! is the carry loop of `Fold::place`, a delete the filter-and-repack of
//! `Fold::extract`, and both see a level as its points and its sorted id
//! column whether or not a tree stands on it. It runs no machine program,
//! and a batch it refuses (`ReservedId`, `DuplicateId`) ends the write
//! before anything is built, the version it started from untouched. The
//! **build** (`Fold::build`) then runs Algorithm Construct on every level
//! the fold left without a tree and keeps the `Arc` of every level it
//! left alone.
//!
//! [`apply`](DynamicDistRangeTree::apply) folds any number of
//! `(deletes, inserts)` batches onto a version and builds once, so no tree
//! is built for a level a later batch merges away: a shard's write
//! sub-epoch, its initial load, both sides of a split and a log replay
//! are each one `apply`. [`insert_batch`](DynamicDistRangeTree::insert_batch)
//! and [`delete_batch`](DynamicDistRangeTree::delete_batch) are its
//! one-batch cases. However the batches are grouped, the same levels hold
//! the same points in the same order, because the fold never looks at a
//! tree.

use std::borrow::Cow;
use std::sync::Arc;

use ddrs_cgm::Machine;

use crate::dist::fused::fused_query_batch;
use crate::dist::{BuildError, DistRangeTree};
use crate::point::{Point, Rect, PAD_ID};
use crate::rank::check_ids;
use crate::semigroup::{Count, Semigroup};

struct Level<const D: usize> {
    pts: Vec<Point<D>>,
    /// The ids of `pts`, ascending: `live_in` probes it.
    ids: Vec<u32>,
    tree: DistRangeTree<D>,
}

/// The ids of `ids` (ascending) that one of the disjoint ascending id
/// `columns` holds, ascending. A column whose id range misses the batch
/// costs two comparisons; in one it overlaps, each id from the column's
/// first on costs one binary search of the column past the previous id.
fn live_in<'c>(columns: impl Iterator<Item = &'c [u32]>, ids: &[u32]) -> Vec<u32> {
    let mut live = Vec::new();
    for mut col in columns.filter(|col| col.first() <= ids.last() && col.last() >= ids.first()) {
        for &id in &ids[ids.partition_point(|&id| id < col[0])..] {
            col = &col[col.partition_point(|&held| held < id)..];
            if col.first() == Some(&id) {
                live.push(id);
            }
        }
    }
    live.sort_unstable();
    live
}

/// A level's point set while a write is being folded.
struct PointSet<'a, const D: usize> {
    /// The points, as runs in level order: slices of the base version's
    /// levels and of the inserted batches, concatenated only by `build`.
    runs: Vec<Cow<'a, [Point<D>]>>,
    /// Their ids, ascending.
    ids: Cow<'a, [u32]>,
    /// The base version's level over exactly these points, while the fold
    /// has not touched it.
    built: Option<&'a Arc<Level<D>>>,
}

impl<'a, const D: usize> PointSet<'a, D> {
    /// The level over this point set: the base version's if the fold left
    /// it alone, else Algorithm Construct over the concatenated runs. The
    /// fold has refused every id `DistRangeTree::build` would, so the ids
    /// are not checked again: the `ids` column ascends strictly.
    fn build(self, machine: &Machine) -> Arc<Level<D>> {
        if let Some(level) = self.built {
            return Arc::clone(level);
        }
        let pts = match <[_; 1]>::try_from(self.runs) {
            Ok([run]) => run.into_owned(),
            Err(runs) => runs.concat(),
        };
        debug_assert!(self.ids.windows(2).all(|w| w[0] < w[1]) && self.ids.last() < Some(&PAD_ID));
        debug_assert!({
            let mut of_pts: Vec<u32> = pts.iter().map(|p| p.id).collect();
            of_pts.sort_unstable();
            of_pts == *self.ids
        });
        let tree = DistRangeTree::build_distinct(machine, &pts);
        Arc::new(Level { pts, ids: self.ids.into_owned(), tree })
    }
}

/// The level vector of a version being written: see the module docs.
struct Fold<'a, const D: usize> {
    capacity: usize,
    levels: Vec<Option<PointSet<'a, D>>>,
}

impl<'a, const D: usize> Fold<'a, D> {
    /// Every level of `base`, its tree standing.
    fn of(base: &'a DynamicDistRangeTree<D>) -> Self {
        let built = |level: &'a Arc<Level<D>>| PointSet {
            runs: vec![Cow::Borrowed(&level.pts[..])],
            ids: Cow::Borrowed(&level.ids[..]),
            built: Some(level),
        };
        let levels = base.levels.iter().map(|level| level.as_ref().map(built)).collect();
        Fold { capacity: base.capacity, levels }
    }

    /// Place a carry (its runs, its ids in any order) into the level
    /// structure, merging upward until a level can absorb it. No tree
    /// stands on the level it lands in. An empty carry places nothing.
    fn place(&mut self, mut runs: Vec<Cow<'a, [Point<D>]>>, mut ids: Vec<u32>) {
        if ids.is_empty() {
            return;
        }
        let mut i = 0;
        loop {
            // Level `i` holds at most `capacity · 2^i` points.
            while ids.len() > self.capacity.saturating_mul(1 << i.min(usize::BITS as usize - 2)) {
                i += 1;
            }
            if self.levels.len() <= i {
                self.levels.resize_with(i + 1, || None);
            }
            match self.levels[i].take() {
                None => {
                    // Sorted runs end to end: the stable sort merges them.
                    ids.sort();
                    self.levels[i] = Some(PointSet { runs, ids: Cow::Owned(ids), built: None });
                    return;
                }
                Some(set) => {
                    runs.extend(set.runs);
                    ids.extend_from_slice(&set.ids);
                }
            }
        }
    }

    /// Insert a batch of points, unless `check_ids` refuses one.
    fn insert(&mut self, pts: &'a [Point<D>]) -> Result<(), BuildError> {
        let live = |ids: &[u32]| live_in(self.levels.iter().flatten().map(|set| &*set.ids), ids);
        let ids = check_ids(pts, live).map_err(|(_, refusal)| refusal)?;
        self.place(vec![Cow::Borrowed(pts)], ids);
        Ok(())
    }

    /// Remove the points with these ids and repack the survivors into one
    /// level. No level is touched when no id is live.
    fn extract(&mut self, ids: &[u32]) {
        let mut dead = ids.to_vec();
        dead.sort_unstable();
        let dead = live_in(self.levels.iter().flatten().map(|set| &*set.ids), &dead);
        if dead.is_empty() {
            return;
        }
        let sets = std::mem::take(&mut self.levels);
        let points = sets.iter().flatten().flat_map(|set| &set.runs).flat_map(|run| run.iter());
        let live: Vec<Point<D>> =
            points.filter(|p| dead.binary_search(&p.id).is_err()).copied().collect();
        let ids = live.iter().map(|p| p.id).collect();
        self.place(vec![Cow::Owned(live)], ids);
    }

    /// Build every level the fold left without a tree.
    fn build(self, machine: &Machine) -> DynamicDistRangeTree<D> {
        let build = |set: Option<PointSet<'a, D>>| set.map(|set| set.build(machine));
        DynamicDistRangeTree {
            capacity: self.capacity,
            levels: self.levels.into_iter().map(build).collect(),
        }
    }
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

    /// The version `batches` of `(deletes, inserts)` leave behind this
    /// one, each batch's deletes applied before its inserts (absent ids
    /// are ignored): level for level and point for point what
    /// [`delete_batch`](Self::delete_batch) then
    /// [`insert_batch`](Self::insert_batch) per batch leave, at one
    /// Algorithm Construct per level the fold left without a tree (see
    /// the module docs). `self` is untouched. An `Err` carries the index
    /// of the batch whose insert the fold refused.
    pub fn apply<'a>(
        &self,
        machine: &Machine,
        batches: impl IntoIterator<Item = (&'a [u32], &'a [Point<D>])>,
    ) -> Result<Self, (usize, BuildError)> {
        let mut fold = Fold::of(self);
        for (at, (deletes, inserts)) in batches.into_iter().enumerate() {
            fold.extract(deletes);
            fold.insert(inserts).map_err(|e| (at, e))?;
        }
        Ok(fold.build(machine))
    }

    /// Insert a batch of points (ids must be new and not the pad id).
    pub fn insert_batch(&mut self, machine: &Machine, pts: &[Point<D>]) -> Result<(), BuildError> {
        *self = self.apply(machine, [(&[][..], pts)]).map_err(|(_, e)| e)?;
        Ok(())
    }

    /// Delete points by id (ids not present are ignored). The surviving
    /// points are repacked and rebuilt, keeping every query mode exact.
    pub fn delete_batch(&mut self, machine: &Machine, ids: &[u32]) -> Result<(), BuildError> {
        *self = self.apply(machine, [(ids, &[][..])]).map_err(|(_, e)| e)?;
        Ok(())
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

    /// The ids of `ids` (ascending) that are live in the store, ascending
    /// (`live_in` over the levels' id columns).
    pub fn live_ids(&self, ids: &[u32]) -> Vec<u32> {
        live_in(self.levels.iter().flatten().map(|level| &level.ids[..]), ids)
    }

    /// True when a point with this id is live: the one-id [`live_ids`](Self::live_ids).
    pub fn contains_id(&self, id: u32) -> bool {
        !self.live_ids(&[id]).is_empty()
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

    /// A migration's donor side: the points are read off `points()`,
    /// then deleted; missing ids are ignored.
    #[test]
    fn extract_returns_the_removed_points() {
        let machine = Machine::new(2).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        let all = pts(0..20);
        t.insert_batch(&machine, &all).unwrap();
        let ids = [3, 7, 11, 999];
        let mut removed: Vec<Point<2>> =
            t.points().filter(|p| ids.contains(&p.id)).copied().collect();
        removed.sort_unstable_by_key(|p| p.id);
        t.delete_batch(&machine, &ids).unwrap();
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

    /// One `apply` batch whose inserts carry into the level its deletes
    /// repacked builds that level once, where `delete_batch` then
    /// `insert_batch` build the 19-point repack at level 2 only to merge
    /// it into level 3: one machine run against two, the same levels.
    #[test]
    fn a_mixed_write_builds_each_level_once() {
        let machine = Machine::new(1).unwrap();
        let mut base = DynamicDistRangeTree::<2>::new(8);
        base.insert_batch(&machine, &pts(0..20)).unwrap();
        let inserts = pts(100..120);
        let mut eager = base.clone();
        machine.take_stats();
        eager.delete_batch(&machine, &[0]).unwrap();
        eager.insert_batch(&machine, &inserts).unwrap();
        assert_eq!(machine.take_stats().runs, 2);
        let t = base.apply(&machine, [(&[0][..], &inserts[..])]).unwrap();
        assert_eq!(machine.take_stats().runs, 1);
        assert_eq!(format!("{t:?}"), format!("{eager:?}"));
        assert!(format!("{t:?}").contains("level_sizes: [0, 0, 0, 39]"), "{t:?}");
        assert!(t.points().eq(eager.points()));
        assert_eq!(base.len(), 20, "the base version is untouched");
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

    /// A delete none of whose ids is live is free: no level is replaced,
    /// nothing runs.
    #[test]
    fn a_delete_of_absent_ids_touches_nothing() {
        let machine = Machine::new(2).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        t.insert_batch(&machine, &pts(0..40)).unwrap();
        t.insert_batch(&machine, &pts(100..104)).unwrap();
        let before = t.clone();
        machine.take_stats();
        t.delete_batch(&machine, &[1000]).unwrap();
        t = t.apply(&machine, [(&[2000, 3000][..], &[][..]), (&[4000][..], &[][..])]).unwrap();
        assert_eq!(machine.take_stats().runs, 0);
        assert_eq!(t.occupied_levels(), 2);
        assert_eq!(t.levels.len(), before.levels.len());
        for (now, was) in t.levels.iter().zip(&before.levels) {
            match (now, was) {
                (Some(now), Some(was)) => assert!(Arc::ptr_eq(now, was)),
                (now, was) => assert!(now.is_none() && was.is_none()),
            }
        }
    }

    /// A log's batches as `apply` takes them.
    fn batches(
        log: &[(Vec<u32>, Vec<Point<2>>)],
    ) -> impl Iterator<Item = (&[u32], &[Point<2>])> + '_ {
        log.iter().map(|(deletes, inserts)| (&deletes[..], &inserts[..]))
    }

    /// One log, `(deletes, inserts)` per batch, through both write paths
    /// from the version `base`: `delete_batch` then `insert_batch` per
    /// batch, and one `apply`.
    fn both_paths(
        machine: &Machine,
        base: &DynamicDistRangeTree<2>,
        log: &[(Vec<u32>, Vec<Point<2>>)],
    ) -> [Result<DynamicDistRangeTree<2>, (usize, BuildError)>; 2] {
        let eager = || {
            let mut t = base.clone();
            for (i, (deletes, inserts)) in log.iter().enumerate() {
                t.delete_batch(machine, deletes).map_err(|e| (i, e))?;
                t.insert_batch(machine, inserts).map_err(|e| (i, e))?;
            }
            Ok(t)
        };
        [eager(), base.apply(machine, batches(log))]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// `apply` leaves level for level and point for point the store
        /// the per-batch writes leave, and refuses the batch they refuse,
        /// from an empty store (a log replay) and from the version the
        /// log's first `cut` batches leave, which it leaves untouched.
        #[test]
        fn replay_agrees_with_the_eager_fold(
            steps in proptest::collection::vec((0usize..7, 0usize..64, 0usize..12), 1..14),
            cut in 0usize..14,
        ) {
            use crate::semigroup::Sum;
            const CAPACITY: usize = 4;
            let at = |id: u32, weight: u64| {
                let k = i64::from(id);
                Point::weighted([k * 193 % 777, k * 71 % 555], id, weight)
            };
            // The log, and the point set it must leave.
            let mut log: Vec<(Vec<u32>, Vec<Point<2>>)> = Vec::new();
            let mut live: Vec<Point<2>> = Vec::new();
            let mut fresh = 0u32;
            for (kind, a, n) in steps {
                let (mut deletes, mut inserts) = (Vec::new(), Vec::new());
                let mut grow = n;
                match kind {
                    // An empty batch.
                    0 => grow = 0,
                    // Deletes of ids that are not live, alone.
                    1 => {
                        deletes = vec![5000 + a as u32, 6000 + n as u32];
                        grow = 0;
                    }
                    // One id deleted and inserted again, among fresh inserts.
                    2 if !live.is_empty() => {
                        let old = live[a % live.len()];
                        deletes.push(old.id);
                        inserts.push(at(old.id, old.weight + 1));
                    }
                    // An insert one under, on and one over `capacity · 2^i`.
                    3 => grow = (CAPACITY << (a % 3)) + n % 3 - 1,
                    // Live and absent ids deleted, fresh points inserted.
                    _ => {
                        deletes = live.iter().skip(a % 5).step_by(1 + a % 7).map(|p| p.id).collect();
                        deletes.push(7000 + a as u32);
                    }
                }
                inserts.extend((fresh..fresh + grow as u32).map(|id| at(id, 1 + u64::from(id) % 5)));
                fresh += grow as u32;
                live.retain(|p| !deletes.contains(&p.id));
                live.extend(&inserts);
                log.push((deletes, inserts));
            }

            let qs = [Rect::new([0, 0], [800, 600]), Rect::new([100, 100], [500, 300])];
            let runs = [1, 2, 4].into_iter().flat_map(|p| [(p, 0), (p, cut % (log.len() + 1))]);
            for (p, from) in runs {
                let machine = Machine::new(p).unwrap();
                let base = DynamicDistRangeTree::new(CAPACITY);
                let base = base.apply(&machine, batches(&log[..from])).unwrap();
                let was: Vec<Point<2>> = base.points().copied().collect();
                let was_levels = format!("{base:?}");
                let [eager, replayed] =
                    both_paths(&machine, &base, &log[from..]).map(Result::unwrap);
                proptest::prop_assert_eq!(format!("{replayed:?}"), format!("{eager:?}"));
                proptest::prop_assert!(replayed.points().eq(eager.points()));
                proptest::prop_assert_eq!(replayed.len(), live.len());
                let out = replayed.query_batch_fused(&machine, Sum, &qs, &qs, &qs);
                for (i, q) in qs.iter().enumerate() {
                    let hits: Vec<&Point<2>> = live.iter().filter(|p| q.contains(p)).collect();
                    let mut ids: Vec<u32> = hits.iter().map(|p| p.id).collect();
                    ids.sort_unstable();
                    proptest::prop_assert_eq!(out.counts[i], hits.len() as u64);
                    proptest::prop_assert_eq!(
                        out.aggregates[i],
                        hits.iter().map(|p| p.weight).reduce(|a, b| a + b)
                    );
                    proptest::prop_assert_eq!(&out.reports[i], &ids);
                }

                // One more batch that must be refused, by both paths alike.
                let bad = live.first().map_or(PAD_ID, |p| p.id);
                let mut refused = log[from..].to_vec();
                for id in [bad, PAD_ID] {
                    refused.push((vec![], vec![at(fresh, 1), at(id, 1)]));
                    let [eager, replayed] = both_paths(&machine, &base, &refused).map(Result::err);
                    let expect = if id == PAD_ID {
                        BuildError::ReservedId
                    } else {
                        BuildError::DuplicateId(id)
                    };
                    proptest::prop_assert_eq!(&replayed, &Some((log.len() - from, expect)));
                    proptest::prop_assert_eq!(&replayed, &eager);
                    refused.pop();
                }
                proptest::prop_assert_eq!(format!("{base:?}"), was_levels);
                proptest::prop_assert!(base.points().eq(&was));
            }
        }
    }

    /// The sequential scan `Fold::insert` ran before `check_ids`, kept
    /// as its oracle: the first point of the batch that is a pad, live in
    /// the store (a scan of its points) or a repeat of an earlier one.
    fn refused_by_scan(t: &DynamicDistRangeTree<2>, batch: &[Point<2>]) -> Option<BuildError> {
        let mut seen = Vec::new();
        for p in batch {
            if p.id == PAD_ID {
                return Some(BuildError::ReservedId);
            }
            if t.points().any(|q| q.id == p.id) || seen.contains(&p.id) {
                return Some(BuildError::DuplicateId(p.id));
            }
            seen.push(p.id);
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// `insert_batch` refuses exactly what the sequential scan refuses,
        /// with pads, in-batch repeats and ids live on any level planted
        /// at random positions among fresh ids above every live one and
        /// ids interleaved with the live ones; a refused batch leaves
        /// every level as it was. `live_ids` agrees with a scan.
        #[test]
        fn insert_refuses_the_sequential_scans_first_offender(
            waves in proptest::collection::vec(1u32..14, 1..5),
            entries in proptest::collection::vec((0u8..16, 0u32..64), 0..14),
        ) {
            let machine = Machine::new(1).unwrap();
            let mut t = DynamicDistRangeTree::<2>::new(4);
            // Even ids are live, odd ones free, over several levels.
            let mut top = 0u32;
            for n in waves {
                t.insert_batch(&machine, &pts(top..top + n).iter().map(|p| {
                    Point::new(p.coords, 2 * p.id)
                }).collect::<Vec<_>>()).unwrap();
                top += n;
            }
            let live: Vec<u32> = (0..top).map(|i| 2 * i).collect();
            let mut batch: Vec<Point<2>> = Vec::new();
            for (kind, a) in entries {
                let id = match kind {
                    0 => PAD_ID,
                    1 if !batch.is_empty() => batch[a as usize % batch.len()].id,
                    2 => live[a as usize % live.len()],
                    3..=8 => 2 * (a % top) + 1,
                    _ => 2 * top + a,
                };
                batch.push(Point::new([i64::from(a), i64::from(kind)], id));
            }

            let mut ids: Vec<u32> = batch.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            let scanned: Vec<u32> =
                ids.iter().copied().filter(|&id| t.points().any(|q| q.id == id)).collect();
            proptest::prop_assert_eq!(t.live_ids(&ids), scanned);
            let expect = refused_by_scan(&t, &batch);
            let level_ids = |t: &DynamicDistRangeTree<2>| -> Vec<Option<Vec<u32>>> {
                t.levels.iter().map(|l| l.as_ref().map(|l| l.ids.clone())).collect()
            };
            let (len, before) = (t.len(), level_ids(&t));
            let got = t.insert_batch(&machine, &batch).err();
            proptest::prop_assert_eq!(&got, &expect);
            if got.is_some() {
                proptest::prop_assert_eq!(t.len(), len);
                proptest::prop_assert_eq!(level_ids(&t), before);
            } else {
                proptest::prop_assert_eq!(t.len(), len + batch.len());
            }
        }
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
