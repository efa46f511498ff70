//! The recursive dimension tree and the 4-case search of the paper.

use ddrs_cgm::Payload;

use crate::heap;
use crate::point::{RPoint, RRect};

/// One segment tree of the range tree, in dimension `dim`, together with
/// the descendant structures of its internal nodes (Definition 1).
///
/// Leaves are the points of the spanned subset sorted by their rank in
/// `dim` (sentinel pads, which rank above every real point in every
/// dimension, always form a suffix). Every *internal* node `v` of a
/// non-final dimension points to `descendant(v)`: a `DimTree` in `dim + 1`
/// over the points below `v`. Containment at a leaf is resolved by a
/// direct point test instead of a chain of single-point descendant trees —
/// the standard implementation shortcut; the visited-node structure is
/// otherwise exactly the paper's.
#[derive(Debug, Clone)]
pub struct DimTree<const D: usize> {
    /// Dimension index `j` (0-based; the paper's `j+1`).
    pub dim: u8,
    /// Leaf count, a power of two.
    pub m: u32,
    /// Number of real (non-pad) leaves; reals occupy leaf positions `0..r`.
    pub r: u32,
    /// The spanned points sorted by `ranks[dim]`, length `m`.
    pub leaves: Vec<RPoint<D>>,
    /// `descendant(v)` per heap slot (len `2m` when `dim + 1 < D`, else
    /// empty). `None` for leaves, for the unused slot 0, and for nodes
    /// spanning no real points.
    pub desc: Vec<Option<Box<DimTree<D>>>>,
    /// Transfer size of the whole tree in words, summed from the
    /// descendants' as [`build`](DimTree::build) creates them, so metering
    /// a shipped tree never walks it.
    words: u64,
}

impl<const D: usize> DimTree<D> {
    /// Build the dimension tree for `pts` (already sorted by
    /// `ranks[dim]`; length must be a power of two — pad first).
    ///
    /// Bottom-up, one dimension after another, as in the optimal
    /// sequential algorithm: each internal node's descendant is built from
    /// the merge of its children's next-dimension orderings, so total work
    /// is linear in the output size `O(m log^(d-1) m)`.
    pub fn build(dim: usize, pts: Vec<RPoint<D>>) -> DimTree<D> {
        let m = pts.len();
        assert!(m.is_power_of_two(), "DimTree::build requires a power-of-two leaf count");
        debug_assert!(
            pts.windows(2).all(|w| w[0].ranks[dim] < w[1].ranks[dim]),
            "leaves must be strictly sorted by ranks[{dim}]"
        );
        let r = pts.iter().take_while(|p| !p.is_pad()).count();
        debug_assert!(pts[r..].iter().all(RPoint::is_pad), "pads must form a suffix");

        let mut words = own_words::<D>(m);
        let mut desc: Vec<Option<Box<DimTree<D>>>> = Vec::new();
        if dim + 1 < D && m >= 2 {
            // Merge next-dimension orderings bottom-up.
            let mut lists: Vec<Vec<RPoint<D>>> = vec![Vec::new(); 2 * m];
            for (i, p) in pts.iter().enumerate() {
                lists[heap::leaf(m, i)] = vec![*p];
            }
            for v in (1..m).rev() {
                lists[v] = merge_by_rank(&lists[2 * v], &lists[2 * v + 1], dim + 1);
            }
            desc = vec![None; 2 * m];
            for v in 1..m {
                let lv = std::mem::take(&mut lists[v]);
                if lv.iter().any(|p| !p.is_pad()) {
                    let dt = DimTree::build(dim + 1, lv);
                    words += dt.words;
                    desc[v] = Some(Box::new(dt));
                }
            }
        }
        DimTree { dim: dim as u8, m: m as u32, r: r as u32, leaves: pts, desc, words }
    }

    /// Leaf-position range of node `v` clipped to real points: `[a, b)`.
    #[inline]
    pub fn real_span(&self, v: usize) -> (usize, usize) {
        let (a, b) = heap::span(self.m as usize, v);
        (a, b.min(self.r as usize))
    }

    /// Number of real points below `v`.
    #[inline]
    pub fn real_count(&self, v: usize) -> u64 {
        let (a, b) = self.real_span(v);
        b.saturating_sub(a) as u64
    }

    /// The rank interval (in `dim`) covered by the real points below `v`,
    /// or `None` if `v` spans no real point.
    #[inline]
    pub fn node_interval(&self, v: usize) -> Option<(u32, u32)> {
        let (a, b) = self.real_span(v);
        if a >= b {
            return None;
        }
        let d = self.dim as usize;
        Some((self.leaves[a].ranks[d], self.leaves[b - 1].ranks[d]))
    }

    /// The paper's search (Section 4, four cases), collecting selected
    /// canonical structures into `out`:
    ///
    /// 1. node interval ⊆ query, `j < d` → proceed to `descendant(v)`;
    /// 2. node interval ⊆ query, `j = d` → select the segment tree at `v`;
    /// 3. intervals overlap → split the query to both children;
    /// 4. intervals disjoint → delete the query.
    pub fn search<'t>(&'t self, q: &RRect<D>, out: &mut Vec<Sel<'t, D>>) {
        if q.is_empty() || self.r == 0 {
            return;
        }
        self.search_node(1, q, out);
    }

    fn search_node<'t>(&'t self, v: usize, q: &RRect<D>, out: &mut Vec<Sel<'t, D>>) {
        let Some((lo, hi)) = self.node_interval(v) else { return };
        let j = self.dim as usize;
        if q.disjoint_interval(j, lo, hi) {
            return; // case 4
        }
        if q.contains_interval(j, lo, hi) {
            if j == D - 1 {
                out.push(Sel::Node { tree: self, v }); // case 2
            } else if heap::is_leaf(self.m as usize, v) {
                // Single point: verify the remaining dimensions directly.
                let (a, _) = self.real_span(v);
                let pt = &self.leaves[a];
                if q.contains_ranks_from(pt, j + 1) {
                    out.push(Sel::Point { pt });
                }
            } else if let Some(dt) = self.desc[v].as_deref() {
                dt.search_node(1, q, out); // case 1
            }
            return;
        }
        // case 3: overlap — split to the children. A leaf's one-point
        // interval is either contained or disjoint, so `v` is internal.
        debug_assert!(!heap::is_leaf(self.m as usize, v));
        self.search_node(2 * v, q, out);
        self.search_node(2 * v + 1, q, out);
    }

    /// Total node count over all dimensions (the memory measure `s`).
    pub fn size_nodes(&self) -> u64 {
        let own = (2 * self.m - 1) as u64;
        own + self.desc.iter().filter_map(|d| d.as_deref()).map(DimTree::size_nodes).sum::<u64>()
    }

    /// Approximate transfer size in words: leaves plus descendant trees.
    /// O(1): the sum is stored when the tree is built.
    pub fn payload_words(&self) -> u64 {
        self.words
    }

    /// [`payload_words`](DimTree::payload_words) recomputed by walking the
    /// whole tree: the reference the stored sum is pinned against.
    #[cfg(test)]
    pub(crate) fn payload_words_walk(&self) -> u64 {
        own_words::<D>(self.leaves.len())
            + self
                .desc
                .iter()
                .filter_map(|d| d.as_deref())
                .map(DimTree::payload_words_walk)
                .sum::<u64>()
    }
}

/// Words one segment tree over `m` leaves contributes by itself: a
/// two-word header plus its leaf points.
fn own_words<const D: usize>(m: usize) -> u64 {
    2 + m as u64 * ddrs_cgm::shallow_words::<RPoint<D>>()
}

impl<const D: usize> Payload for DimTree<D> {
    fn words(&self) -> u64 {
        self.payload_words()
    }
}

/// A structure selected by the search: either a canonical node of a
/// dimension-`d` segment tree (all real leaves below it match the query)
/// or a single fully-verified point (the leaf shortcut).
#[derive(Debug, Clone, Copy)]
pub enum Sel<'t, const D: usize> {
    /// Canonical node `v` of a final-dimension tree.
    Node {
        /// The dimension-`d` tree containing the selection.
        tree: &'t DimTree<D>,
        /// Heap index of the selected node.
        v: usize,
    },
    /// A single matching point.
    Point {
        /// The matching point.
        pt: &'t RPoint<D>,
    },
}

/// Merge two runs sorted by `ranks[dim]` into one.
pub(crate) fn merge_by_rank<const D: usize>(
    a: &[RPoint<D>],
    b: &[RPoint<D>],
    dim: usize,
) -> Vec<RPoint<D>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].ranks[dim] <= b[j].ranks[dim] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::PAD_ID;

    fn rp2(xr: u32, yr: u32, id: u32) -> RPoint<2> {
        RPoint { ranks: [xr, yr], id, weight: 1 }
    }

    fn diag(n: u32, m: u32) -> Vec<RPoint<2>> {
        // n real points on a diagonal, padded to m.
        let mut pts: Vec<RPoint<2>> = (0..n).map(|i| rp2(i, i, i)).collect();
        for t in 0..(m - n) {
            pts.push(RPoint { ranks: [n + t, n + t], id: PAD_ID, weight: 0 });
        }
        pts
    }

    #[test]
    fn build_shapes() {
        let t = DimTree::<2>::build(0, diag(6, 8));
        assert_eq!(t.m, 8);
        assert_eq!(t.r, 6);
        assert_eq!(t.desc.len(), 16);
        assert!(t.desc[0].is_none());
        // Node 7 spans leaves 6..8 — all pads, so no descendant.
        assert!(t.desc[7].is_none());
        assert!(t.desc[1].is_some());
        // Final dimension has no descendants.
        assert!(t.desc[1].as_ref().unwrap().desc.is_empty());
    }

    #[test]
    fn node_intervals_clip_pads() {
        let t = DimTree::<2>::build(0, diag(6, 8));
        assert_eq!(t.node_interval(1), Some((0, 5))); // root: real ranks 0..=5
        assert_eq!(t.node_interval(3), Some((4, 5))); // leaves 4..8, reals 4,5
        assert_eq!(t.node_interval(7), None); // all pads
        assert_eq!(t.real_count(1), 6);
        assert_eq!(t.real_count(3), 2);
    }

    /// Figure 1 of the paper: the segment tree for n = 8 leaves. The
    /// paper's segments in 1-based coordinates are
    /// [1,2),…,[7,8),[8,8] at the leaves, then [1,3),[3,5),[5,7),[7,8],
    /// [1,5),[5,8], [1,8]. In 0-based half-open leaf positions those are
    /// exactly the spans {[i,i+1)}, {[0,2),[2,4),[4,6),[6,8)},
    /// {[0,4),[4,8)}, {[0,8)}.
    #[test]
    fn fig1_segment_tree_structure() {
        let m = 8usize;
        let mut spans: Vec<(usize, usize)> = (1..2 * m).map(|v| heap::span(m, v)).collect();
        spans.sort_unstable();
        let mut expected = vec![(0, 8), (0, 4), (4, 8), (0, 2), (2, 4), (4, 6), (6, 8)];
        expected.extend((0..8).map(|i| (i, i + 1)));
        expected.sort_unstable();
        assert_eq!(spans, expected);
    }

    #[test]
    fn search_selects_canonical_cover() {
        // 1-d: selected nodes must disjointly cover exactly the range.
        let pts: Vec<RPoint<1>> =
            (0..16).map(|i| RPoint { ranks: [i], id: i, weight: 1 }).collect();
        let t = DimTree::<1>::build(0, pts);
        let q = RRect { lo: [3], hi: [12] };
        let mut sels = Vec::new();
        t.search(&q, &mut sels);
        let mut covered: Vec<u32> = Vec::new();
        for s in &sels {
            match s {
                Sel::Node { tree, v } => {
                    let (a, b) = tree.real_span(*v);
                    covered.extend((a as u32)..(b as u32));
                }
                Sel::Point { pt } => covered.push(pt.ranks[0]),
            }
        }
        covered.sort_unstable();
        assert_eq!(covered, (3..=12).collect::<Vec<u32>>());
        // O(2 log n) canonical pieces.
        assert!(sels.len() <= 8, "too many canonical pieces: {}", sels.len());
    }

    /// `n` real points whose rank in each dimension `j` is a permutation
    /// derived from `seeds[j]`, sorted by `ranks[0]` and padded to the next
    /// power of two (at least `min_m`) with pads ranking above every real
    /// point in every dimension.
    fn scattered<const D: usize>(n: u32, min_m: u32, seeds: [u64; D]) -> Vec<RPoint<D>> {
        let m = n.max(min_m).next_power_of_two();
        let perm = |j: usize| {
            let mut ranks: Vec<u32> = (0..n).collect();
            // Dimension 0 stays the identity so the input is sorted.
            if j > 0 {
                ranks.sort_unstable_by_key(|&i| (i as u64 + 1).wrapping_mul(seeds[j] | 1) >> 7);
            }
            ranks
        };
        let perms: Vec<Vec<u32>> = (0..D).map(perm).collect();
        let mut pts: Vec<RPoint<D>> = (0..n)
            .map(|i| RPoint {
                ranks: std::array::from_fn(|j| perms[j][i as usize]),
                id: i,
                weight: 1,
            })
            .collect();
        pts.extend((n..m).map(|t| RPoint { ranks: [t; D], id: PAD_ID, weight: 0 }));
        pts
    }

    fn stored_words_match_walk<const D: usize>(n: u32, min_m: u32, seeds: [u64; D]) {
        let t = DimTree::<D>::build(0, scattered(n, min_m, seeds));
        assert_eq!(t.payload_words(), t.payload_words_walk(), "d = {D}, n = {n}, m = {}", t.m);
        // Every descendant carries its own sum too (it may be shipped alone).
        for dt in t.desc.iter().filter_map(|d| d.as_deref()) {
            assert_eq!(dt.payload_words(), dt.payload_words_walk());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The word count stored at build equals the recursive walk, in
        /// every dimension count the crate is used at, pads included.
        #[test]
        fn stored_words_equal_the_recursive_walk(
            n in 1u32..200,
            min_m in 1u32..300,
            seeds in (1u64..u64::MAX, 1u64..u64::MAX, 1u64..u64::MAX),
        ) {
            stored_words_match_walk::<1>(n, min_m, [seeds.0]);
            stored_words_match_walk::<2>(n, min_m, [seeds.0, seeds.1]);
            stored_words_match_walk::<3>(n.min(64), min_m.min(64), [seeds.0, seeds.1, seeds.2]);
        }
    }

    #[test]
    fn merge_by_rank_interleaves() {
        let a = vec![rp2(0, 1, 0), rp2(2, 5, 1)];
        let b = vec![rp2(3, 0, 3), rp2(1, 3, 2)];
        let m = merge_by_rank(&a, &b, 1);
        let ys: Vec<u32> = m.iter().map(|p| p.ranks[1]).collect();
        assert_eq!(ys, vec![0, 1, 3, 5]);
    }
}
