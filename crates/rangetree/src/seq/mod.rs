//! The sequential d-dimensional range tree (Preparata–Shamos / Bentley).
//!
//! This is both the building block of the distributed structure (every
//! forest element *is* a sequential range tree on `n/p` points, built
//! locally by Algorithm Construct step 4) and the sequential baseline whose
//! running time the speedup experiments divide by.
//!
//! Its last two dimensions are arrays, not nodes: a tree of the
//! second-to-last dimension is a merge-sort tree over one slab of points
//! and a tree of the last is its sorted slab, so a query is binary
//! searches (`O(log² n)` comparisons in d = 2, where no descendant is an
//! object at all), or, for a small box, one search and a filtered scan of
//! one block. `tree.rs` has the layout, why no query reaches a pad, how
//! the searches enumerate the nodes the paper's four cases select and
//! when a scan replaces them; `eval.rs` turns selections into counts, ids
//! and folds.

mod eval;
mod tree;

pub(crate) use eval::BlockFolds;
pub use eval::{sel_count, sel_fold, sel_points, sel_report};
pub use tree::{DimTree, Sel};

use crate::point::{Point, Rect};
use crate::rank::{RankError, RankSpace};
use crate::semigroup::{comb_opt, Semigroup};

/// A self-contained sequential range tree over a point set, with
/// rank-space translation at the API boundary.
///
/// Space `O(n log^(d-1) n)`; query `O(log^d n)` selected canonical nodes
/// plus `O(k)` reporting.
#[derive(Debug)]
pub struct SeqRangeTree<const D: usize> {
    ranks: RankSpace<D>,
    root: DimTree<D>,
}

impl<const D: usize> SeqRangeTree<D> {
    /// Build from a point set (ids must be unique).
    pub fn build(pts: &[Point<D>]) -> Result<Self, RankError> {
        let (ranks, rpts) = RankSpace::normalize(pts, 1)?;
        let root = DimTree::build(0, rpts);
        Ok(SeqRangeTree { ranks, root })
    }

    /// Number of points matching `q`.
    pub fn count(&self, q: &Rect<D>) -> u64 {
        self.select(q).iter().map(sel_count).sum()
    }

    /// Ids of the points matching `q`, in ascending id order.
    pub fn report(&self, q: &Rect<D>) -> Vec<u32> {
        let mut out = Vec::new();
        self.select(q).iter().for_each(|s| sel_report(s, &mut out));
        out.sort_unstable();
        out
    }

    /// Associative-function mode: `⊗` of `f(l)` over matching points, or
    /// `None` when nothing matches. Every point under a selection
    /// matches, so the answer is a fold over the selections: one lift per
    /// matching point.
    pub fn aggregate<S: Semigroup>(&self, sg: &S, q: &Rect<D>) -> Option<S::Val> {
        self.select(q).iter().fold(None, |acc, s| comb_opt(sg, acc, sel_fold(sg, s)))
    }

    /// The selections the search of `q` makes.
    fn select(&self, q: &Rect<D>) -> Vec<Sel<'_, D>> {
        let mut sels = Vec::new();
        self.root.search(&self.ranks.translate(q), &mut sels);
        sels
    }

    /// Total number of tree nodes (all dimensions), the `s`-measure the
    /// paper sizes memory by.
    pub fn size_nodes(&self) -> u64 {
        self.root.size_nodes()
    }

    /// The root dimension tree (structural access for experiments and
    /// extensions).
    pub fn root(&self) -> &DimTree<D> {
        &self.root
    }

    /// The rank space used for query translation.
    pub fn ranks(&self) -> &RankSpace<D> {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute<const D: usize>(pts: &[Point<D>], q: &Rect<D>) -> Vec<u32> {
        let mut ids: Vec<u32> = pts.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    fn grid2(n_side: i64) -> Vec<Point<2>> {
        let mut id = 0;
        let mut out = Vec::new();
        for x in 0..n_side {
            for y in 0..n_side {
                out.push(Point::weighted([x, y], id, (x * 10 + y) as u64));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn count_matches_brute_force_on_grid() {
        let pts = grid2(8);
        let t = SeqRangeTree::build(&pts).unwrap();
        for (lo, hi) in [([0, 0], [7, 7]), ([2, 3], [5, 6]), ([4, 4], [4, 4]), ([6, 0], [7, 2])] {
            let q = Rect::new(lo, hi);
            assert_eq!(t.count(&q), brute(&pts, &q).len() as u64, "query {q:?}");
        }
    }

    #[test]
    fn report_matches_brute_force_pseudorandom() {
        let pts: Vec<Point<3>> = (0..200u32)
            .map(|i| {
                let x = (i as i64 * 7919) % 101;
                let y = (i as i64 * 104729) % 89;
                let z = (i as i64 * 1299709) % 97;
                Point::new([x, y, z], i)
            })
            .collect();
        let t = SeqRangeTree::build(&pts).unwrap();
        for s in 0..20i64 {
            let q = Rect::new([s * 3, s * 2, s], [s * 3 + 40, s * 2 + 50, s + 60]);
            assert_eq!(t.report(&q), brute(&pts, &q), "query {q:?}");
        }
    }

    #[test]
    fn empty_and_all_queries() {
        let pts = grid2(4);
        let t = SeqRangeTree::build(&pts).unwrap();
        assert_eq!(t.count(&Rect::new([10, 10], [20, 20])), 0);
        assert_eq!(t.count(&Rect::new([3, 3], [0, 0])), 0); // inverted
        assert_eq!(t.count(&Rect::new([0, 0], [3, 3])), 16);
        assert_eq!(t.report(&Rect::new([0, 0], [3, 3])).len(), 16);
    }

    #[test]
    fn aggregate_sum_and_max() {
        use crate::semigroup::{MaxWeight, Sum};
        let pts = grid2(4); // weight = 10x + y
        let t = SeqRangeTree::build(&pts).unwrap();
        let q = Rect::new([1, 1], [2, 2]);
        // points (1,1),(1,2),(2,1),(2,2): weights 11,12,21,22
        assert_eq!(t.aggregate(&Sum, &q), Some(66));
        assert_eq!(t.aggregate(&MaxWeight, &q), Some(22));
        assert_eq!(t.aggregate(&Sum, &Rect::new([9, 9], [9, 9])), None);
    }

    #[test]
    fn one_dimensional_tree_is_a_segment_tree() {
        let pts: Vec<Point<1>> = (0..37).map(|i| Point::new([i * 2], i as u32)).collect();
        let t = SeqRangeTree::build(&pts).unwrap();
        assert_eq!(t.count(&Rect::new([10], [20])), 6); // 10,12,...,20
        assert_eq!(t.report(&Rect::new([0], [5])), vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_coordinates_are_all_found() {
        let pts: Vec<Point<2>> = (0..16).map(|i| Point::new([(i / 4) as i64, 0], i)).collect();
        let t = SeqRangeTree::build(&pts).unwrap();
        assert_eq!(t.count(&Rect::new([1, 0], [2, 0])), 8);
        assert_eq!(t.report(&Rect::new([1, 0], [1, 0])).len(), 4);
    }

    #[test]
    fn size_grows_with_log_factor() {
        let small = SeqRangeTree::build(&grid2(4)).unwrap().size_nodes();
        let large = SeqRangeTree::build(&grid2(8)).unwrap().size_nodes();
        // 16 → 64 points: size should grow superlinearly (log factor).
        assert!(large > 4 * small / 2, "small={small}, large={large}");
    }

    /// Counts, reports and two semigroups (`MinId` has no inverse)
    /// against brute force over the first `D` coordinates of `coords`.
    fn matches_brute_force<const D: usize>(coords: &[[i64; 4]], boxes: &[([i64; 4], [i64; 4])]) {
        use crate::semigroup::{fold_points, MinId, Sum};
        let pts: Vec<Point<D>> = coords
            .iter()
            .zip(0u32..)
            .map(|(c, i)| {
                Point::weighted(std::array::from_fn(|j| c[j]), 3 * i + 1, (i % 17) as u64)
            })
            .collect();
        let t = SeqRangeTree::build(&pts).unwrap();
        for (lo, len) in boxes {
            let q =
                Rect::new(std::array::from_fn(|j| lo[j]), std::array::from_fn(|j| lo[j] + len[j]));
            let matching: Vec<(u32, u64)> =
                pts.iter().filter(|p| q.contains(p)).map(|p| (p.id, p.weight)).collect();
            assert_eq!(t.report(&q), brute(&pts, &q), "d = {D}, query {q:?}");
            assert_eq!(t.count(&q), matching.len() as u64, "d = {D}, query {q:?}");
            assert_eq!(t.aggregate(&Sum, &q), fold_points(&Sum, matching.iter().copied()));
            assert_eq!(t.aggregate(&MinId, &q), fold_points(&MinId, matching.iter().copied()));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Points on even coordinates of a small grid (so coordinates
        /// repeat and `n` is rarely a power of two); box edges on any
        /// integer from below the grid to above it (on points, between
        /// them, outside), some boxes inverted.
        #[test]
        fn every_mode_matches_brute_force_in_every_dimension(
            coords in proptest::collection::vec((0i64..10, 0i64..10, 0i64..10, 0i64..10), 1..70),
            boxes in proptest::collection::vec(
                ((-2i64..20, -2i64..20, -2i64..20, -2i64..20), (-2i64..24, -2i64..24, -2i64..24, -2i64..24)),
                1..24,
            ),
        ) {
            let coords: Vec<[i64; 4]> =
                coords.into_iter().map(|(a, b, c, d)| [2 * a, 2 * b, 2 * c, 2 * d]).collect();
            let boxes: Vec<([i64; 4], [i64; 4])> = boxes
                .into_iter()
                .map(|(lo, len)| ([lo.0, lo.1, lo.2, lo.3], [len.0, len.1, len.2, len.3]))
                .collect();
            matches_brute_force::<1>(&coords, &boxes);
            matches_brute_force::<2>(&coords, &boxes);
            matches_brute_force::<3>(&coords, &boxes);
            matches_brute_force::<4>(&coords, &boxes);
        }
    }
}
