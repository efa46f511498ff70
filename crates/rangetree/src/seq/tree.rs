//! The dimension tree as arrays, and the paper's 4-case search over it as
//! binary searches.
//!
//! # Layout
//!
//! A [`DimTree`] in dimension `j` over `m = 2^h` points (pads included)
//! stores each point once, in [`leaves`](DimTree::leaves) — the *slab*,
//! sorted by `ranks[j]` — beside a contiguous `u32` column of those ranks
//! to search in. What hangs under its segment tree depends on how many
//! dimensions are left:
//!
//! * `j = D − 1` (the final dimension): nothing. The sorted slab *is* the
//!   segment tree; a canonical node is a slab interval.
//! * `j = D − 2`: the merge-sort tree. For each depth `k` in `0..h`, `m`
//!   entries `(rank in dimension D − 1, slab index)`; node `v` of depth `k`
//!   owns the block `[k·m + offset, k·m + offset + width)` of them, sorted
//!   by that rank. The block is `descendant(v)` of Definition 1 without
//!   being an object: two `h·m` vectors per tree, no box.
//! * `j < D − 2`: one [`DimTree`] in dimension `j + 1` per internal node
//!   that spans a real point, built from the same arrays (a block's order
//!   is the descendant's input order).
//!
//! # Pads
//!
//! Pads rank above every real point in every dimension. So they are the
//! slab's suffix `r..m` and a suffix of every block as well: the block
//! over slab positions `[a, b)` holds its `min(b, r) − a` real entries
//! first. Every search clips to that real prefix, so no query reaches a
//! pad whatever its bounds.
//!
//! # The four cases as a walk
//!
//! The paper descends from the root: a node whose interval is contained
//! in the query proceeds to its descendant (case 1) or, in the last
//! dimension, is selected (case 2); one that overlaps splits to its
//! children (case 3); a disjoint one is dropped (case 4). Cases 1 and 2
//! fire at exactly the *maximal* nodes whose real points all lie in the
//! query's interval: the canonical decomposition of the slab interval
//! `[a, b)` the query covers. [`DimTree::search`] finds `[a, b)` with two
//! binary searches over the rank column, or by subtraction when the real
//! keys are one run of ranks, as every phase-0 forest tree's are (`b`
//! becomes `m` when no real point is above the query, so a node padded
//! out on its right still counts as contained), and enumerates the
//! decomposition bottom-up (`l += 1` / `r -= 1` on heap indices); the
//! case-3 ancestors and case-4 siblings are the nodes that walk never
//! visits. In each canonical block two more binary searches find the
//! final-dimension interval. A contained leaf is a direct point test, not
//! a chain of single-point descendants: the standard shortcut.
//!
//! # Filtering search
//!
//! In the second-to-last dimension, when `[a, b)` holds two or more real
//! points, the lowest node `v` over it (the common prefix of heap leaves
//! `m + a` and `m + b − 1`) holds every candidate in its block, and one
//! binary search there finds the run of entries in the final interval. If
//! `v` spans exactly `[a, b)` that run is the answer; else a run of at most
//! `16·h²` entries (`v` of width `2^h`) is scanned, keeping slab indices in
//! `[a, b)`: Chazelle's filtering search. `16·h²` `u32`s are `h²` cache
//! lines, no more than the cover's `2h` blocks × 2 searches × `h` steps, and
//! a longer run takes the cover, so a visit stays `O(log² m + k)`.

use ddrs_cgm::Payload;

use crate::heap;
use crate::point::{RPoint, RRect};
use crate::rank::radix_sort;

/// One segment tree of the range tree, in dimension `dim`, together with
/// the descendant structures of its internal nodes (Definition 1), laid
/// out as the module doc describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimTree<const D: usize> {
    /// Dimension index `j` (0-based; the paper's `j+1`).
    pub dim: u8,
    /// Leaf count, a power of two.
    pub m: u32,
    /// Number of real (non-pad) leaves; reals occupy leaf positions `0..r`.
    pub r: u32,
    /// The slab: the spanned points, each once, sorted by `ranks[dim]`,
    /// length `m`.
    pub leaves: Vec<RPoint<D>>,
    /// `ranks[dim]` of `leaves`, the column the own-dimension search reads.
    keys: Vec<u32>,
    /// The merge-sort tree's final-dimension ranks: `h·m` entries when
    /// `dim + 2 == D`, else empty.
    pub(super) block_keys: Vec<u32>,
    /// Slab index of each `block_keys` entry.
    pub(super) block_idx: Vec<u32>,
    /// `descendant(v)` per internal heap slot (`m` slots when
    /// `dim + 2 < D`, else empty); `None` for the unused slot 0 and for
    /// nodes spanning no real point.
    desc: Vec<Option<DimTree<D>>>,
    /// The model's transfer size and node count, see [`model_size`].
    words: u64,
    nodes: u64,
}

impl<const D: usize> DimTree<D> {
    /// Build the dimension tree for `pts` (already sorted by
    /// `ranks[dim]`; length must be a power of two — pad first).
    ///
    /// One sort of the points by the next dimension, then a linear pass per
    /// depth (`merge_sort_tree`), so the work is linear in the size
    /// `O(m log^(d-1) m)`. A tree of the last two dimensions makes a
    /// constant number of allocations.
    pub fn build(dim: usize, pts: Vec<RPoint<D>>) -> DimTree<D> {
        let m = pts.len();
        assert!(m.is_power_of_two(), "DimTree::build requires a power-of-two leaf count");
        debug_assert!(
            pts.windows(2).all(|w| w[0].ranks[dim] < w[1].ranks[dim]),
            "leaves must be strictly sorted by ranks[{dim}]"
        );
        let r = pts.iter().take_while(|p| !p.is_pad()).count();
        debug_assert!(pts[r..].iter().all(RPoint::is_pad), "pads must form a suffix");

        let keys = pts.iter().map(|p| p.ranks[dim]).collect();
        let (mut block_keys, mut block_idx) =
            if dim + 1 < D { merge_sort_tree(&pts, dim + 1) } else { (Vec::new(), Vec::new()) };
        let mut desc = Vec::new();
        if dim + 2 < D {
            // Only the order survives: each block seeds a descendant.
            desc.resize_with(m, || None);
            for (v, slot) in desc.iter_mut().enumerate().skip(1) {
                let (a, b) = heap::span(m, v);
                if a < r {
                    let depth = v.ilog2() as usize * m;
                    let below = block_idx[depth + a..depth + b].iter().map(|&i| pts[i as usize]);
                    *slot = Some(DimTree::build(dim + 1, below.collect()));
                }
            }
            (block_keys, block_idx) = (Vec::new(), Vec::new());
        }
        let (words, nodes) = model_size::<D>(dim, m, r);
        DimTree {
            dim: dim as u8,
            m: m as u32,
            r: r as u32,
            leaves: pts,
            keys,
            block_keys,
            block_idx,
            desc,
            words,
            nodes,
        }
    }

    /// The paper's search (Section 4, four cases), collecting into `out`
    /// the canonical structures its cases 1 and 2 select. The module doc
    /// says how two binary searches and a bottom-up walk enumerate exactly
    /// the nodes at which those cases fire, or filters one block instead.
    pub fn search<'t>(&'t self, q: &RRect<D>, out: &mut Vec<Sel<'t, D>>) {
        if q.is_empty() {
            return;
        }
        let j = self.dim as usize;
        let (m, r) = (self.m as usize, self.r as usize);
        let reals = &self.keys[..r];
        let (lo, hi) = (q.lo[j], q.hi[j]);
        let (a, b) = match reals.first() {
            // A run of ranks `k0..k0 + r`: where a bound falls is a
            // subtraction (in `i64`, so `hi = u32::MAX` cannot wrap).
            Some(&k0) if (reals[r - 1] - k0) as usize == r - 1 => {
                let at = |x: i64| (x - i64::from(k0)).clamp(0, r as i64) as usize;
                (at(lo.into()), at(i64::from(hi) + 1))
            }
            _ => (reals.partition_point(|&k| k < lo), reals.partition_point(|&k| k <= hi)),
        };
        if a >= b {
            return; // case 4 at the root
        }
        if j + 1 == D {
            out.push(Sel::Leaves { tree: self, a, b }); // case 2
            return;
        }
        if j + 2 == D && b - a >= 2 {
            // The lowest node over [a, b) holds every candidate in its
            // block: filter its final-dimension run if that is short (the
            // module doc's filtering search).
            let v = (m + a) >> (usize::BITS - ((m + a) ^ (m + b - 1)).leading_zeros());
            let (lo, hi) = self.final_run(v, q);
            let h = heap::level(m, v) as usize;
            if lo == hi || self.real_span(v) == (a, b) {
                out.extend((lo < hi).then_some(Sel::Span { tree: self, lo, hi })); // case 2
                return;
            }
            if hi - lo <= 16 * h * h {
                out.push(Sel::Filtered { tree: self, lo, hi, a, b });
                return;
            }
        }
        self.cover(a, b, q, out);
    }

    /// The canonical decomposition of real slab positions `[a, b)`: cases
    /// 1 and 2 at the maximal nodes within it, where a node padded out on
    /// its right is within as soon as its real points are.
    pub(super) fn cover<'t>(&'t self, a: usize, b: usize, q: &RRect<D>, out: &mut Vec<Sel<'t, D>>) {
        let (m, r) = (self.m as usize, self.r as usize);
        heap::cover(m, a, if b == r { m } else { b }, |v| self.contained(v, q, out));
    }

    /// Entries `[lo, hi)` of internal node `v`'s block (its real prefix)
    /// whose final-dimension rank lies in the query's interval.
    fn final_run(&self, v: usize, q: &RRect<D>) -> (usize, usize) {
        let (a, b) = self.real_span(v);
        let start = v.ilog2() as usize * self.m as usize + a;
        let block = &self.block_keys[start..start + (b - a)];
        let lo = start + block.partition_point(|&k| k < q.lo[D - 1]);
        (lo, start + block.partition_point(|&k| k <= q.hi[D - 1]))
    }

    /// The slab in the order of dimension `dim + 1`, read off the root's
    /// descendant in whichever form it takes: the sorted run this group
    /// hands the next phase of Algorithm Construct.
    pub fn in_next_dimension(&self) -> Vec<RPoint<D>> {
        match (self.block_idx.get(..self.m as usize), self.desc.get(1)) {
            (Some(order), _) => order.iter().map(|&i| self.leaves[i as usize]).collect(),
            (_, Some(Some(root))) => root.leaves.clone(),
            _ => self.leaves.clone(), // a single leaf, or pads alone
        }
    }

    /// Leaf-position range of node `v` clipped to real points: `[a, b)`.
    pub fn real_span(&self, v: usize) -> (usize, usize) {
        let (a, b) = heap::span(self.m as usize, v);
        (a, b.min(self.r as usize))
    }

    /// Number of real points below `v`.
    pub fn real_count(&self, v: usize) -> u64 {
        let (a, b) = self.real_span(v);
        b.saturating_sub(a) as u64
    }

    /// The rank interval (in `dim`) covered by the real points below `v`,
    /// or `None` if `v` spans no real point.
    pub fn node_interval(&self, v: usize) -> Option<(u32, u32)> {
        let (a, b) = self.real_span(v);
        (a < b).then(|| (self.keys[a], self.keys[b - 1]))
    }

    /// Node `v` of a non-final dimension is contained in the query's
    /// interval: case 1, by whichever form `descendant(v)` takes.
    fn contained<'t>(&'t self, v: usize, q: &RRect<D>, out: &mut Vec<Sel<'t, D>>) {
        let (a, b) = self.real_span(v);
        if a >= b {
            return; // padded out entirely
        }
        let m = self.m as usize;
        if heap::is_leaf(m, v) {
            // Single point: verify the remaining dimensions directly.
            let pt = &self.leaves[a];
            if q.contains_ranks_from(pt, self.dim as usize + 1) {
                out.push(Sel::Point { pt });
            }
        } else if self.dim as usize + 2 == D {
            let (lo, hi) = self.final_run(v, q);
            if lo < hi {
                out.push(Sel::Span { tree: self, lo, hi }); // case 2 in the block
            }
        } else if let Some(dt) = &self.desc[v] {
            dt.search(q, out);
        }
    }

    /// Total node count over all dimensions (the memory measure `s`) of
    /// the paper's structure, a tree per descendant, not the host's arrays.
    pub fn size_nodes(&self) -> u64 {
        self.nodes
    }

    /// Approximate transfer size in words: leaves plus descendant trees,
    /// what a real machine would ship. O(1): stored at build.
    pub fn payload_words(&self) -> u64 {
        self.words
    }
}

/// The block holding entry `at` of a merge-sort tree over `m` leaves.
pub(super) fn block_at(m: usize, at: usize) -> (usize, usize) {
    let width = m >> (at / m);
    (at & !(width - 1), width)
}

/// The merge-sort tree of `pts` (in slab order) on `ranks[by]`: for each
/// depth `0..h`, every node's block of `(rank, slab index)` sorted by
/// rank. Depth 0 is one pass when the `m` (distinct) ranks are a run
/// `lo..lo + m` (a one-processor root), else one radix sort. Below it a
/// node's block is its parent's, in order, minus the other half of its
/// slab interval: a stable partition, whose stores wait on no compare.
fn merge_sort_tree<const D: usize>(pts: &[RPoint<D>], by: usize) -> (Vec<u32>, Vec<u32>) {
    let m = pts.len();
    let h = m.ilog2() as usize;
    let (mut keys, mut idx) = (vec![0u32; h * m], vec![0u32; h * m]);
    let lo = pts.iter().map(|p| p.ranks[by]).min().unwrap_or(0);
    if m > 1 && pts.iter().all(|p| ((p.ranks[by] - lo) as usize) < m) {
        for (at, k) in (0..).zip(pts.iter().map(|p| p.ranks[by])) {
            (keys[(k - lo) as usize], idx[(k - lo) as usize]) = (k, at);
        }
    } else {
        let mut ranks: Vec<u64> = pts.iter().map(|p| u64::from(p.ranks[by])).collect();
        let mut order: Vec<u32> = (0..m as u32).collect();
        radix_sort(&mut ranks, &mut order);
        for ((k, i), (&rank, &at)) in keys.iter_mut().zip(&mut idx).zip(ranks.iter().zip(&order)) {
            (*k, *i) = (rank as u32, at);
        }
    }
    for depth in 1..h {
        let (above_k, dst_k) = keys[(depth - 1) * m..].split_at_mut(m);
        let (above_i, dst_i) = idx[(depth - 1) * m..].split_at_mut(m);
        let width = m >> depth;
        let parents = above_k.chunks_exact(2 * width).zip(above_i.chunks_exact(2 * width));
        for (parent, (src_k, src_i)) in parents.enumerate() {
            let mid = (2 * parent + 1) * width;
            let mut at = [mid - width, mid];
            for (&k, &i) in src_k.iter().zip(src_i) {
                let child = usize::from(i as usize >= mid);
                (dst_k[at[child]], dst_i[at[child]]) = (k, i);
                at[child] += 1;
            }
        }
    }
    (keys, idx)
}

/// Words one segment tree over `m` leaves contributes by itself: a
/// two-word header plus its leaf points.
fn own_words<const D: usize>(m: usize) -> u64 {
    2 + m as u64 * ddrs_cgm::shallow_words::<RPoint<D>>()
}

/// The paper's size of a dimension-`dim` tree over `m` leaves, `r` of
/// them real, as `(transfer words, nodes)`: its own segment tree plus one
/// descendant tree per internal node that spans a real point — at each
/// depth the first `⌈r / width⌉` nodes, all full except possibly the
/// last. Theorem 1's `s` and a congestion copy's metered size, whatever
/// the host's layout.
fn model_size<const D: usize>(dim: usize, m: usize, r: usize) -> (u64, u64) {
    let (mut words, mut nodes) = (own_words::<D>(m), 2 * m as u64 - 1);
    if dim + 1 < D {
        for depth in 0..m.ilog2() {
            let width = m >> depth;
            for (count, real) in [(r / width, width), (1, r % width)] {
                if count > 0 && real > 0 {
                    let (w, n) = model_size::<D>(dim + 1, width, real);
                    words += count as u64 * w;
                    nodes += count as u64 * n;
                }
            }
        }
    }
    (words, nodes)
}

impl<const D: usize> Payload for DimTree<D> {
    fn words(&self) -> u64 {
        self.payload_words()
    }
}

/// A structure selected by the search. Every real point under a
/// selection matches the query.
#[derive(Debug, Clone, Copy)]
pub enum Sel<'t, const D: usize> {
    /// Entries `lo..hi` of `tree`'s merge-sort arrays, within one block.
    Span {
        /// The dimension-`d − 1` tree whose block holds the entries.
        tree: &'t DimTree<D>,
        /// First selected entry.
        lo: usize,
        /// One past the last selected entry.
        hi: usize,
    },
    /// The entries among `lo..hi` of `tree`'s merge-sort arrays whose slab
    /// index lies in `a..b`: the final-interval run of the lowest node over
    /// `a..b`, at most `16·h²` entries, filtered (module doc).
    Filtered {
        /// The dimension-`d − 1` tree whose block holds the entries.
        tree: &'t DimTree<D>,
        /// First scanned entry.
        lo: usize,
        /// One past the last scanned entry.
        hi: usize,
        /// First slab position kept.
        a: usize,
        /// One past the last slab position kept.
        b: usize,
    },
    /// Slab positions `a..b` of a final-dimension tree.
    Leaves {
        /// The dimension-`d` tree containing the selection.
        tree: &'t DimTree<D>,
        /// First selected leaf.
        a: usize,
        /// One past the last selected leaf.
        b: usize,
    },
    /// A single matching point (the leaf shortcut).
    Point {
        /// The matching point.
        pt: &'t RPoint<D>,
    },
}

#[cfg(test)]
impl<const D: usize> DimTree<D> {
    /// [`payload_words`](DimTree::payload_words) recounted node by node
    /// over the conceptual tree: the reference the stored sum is pinned
    /// against.
    pub(crate) fn payload_words_walk(&self) -> u64 {
        tests::recount::<D>(self.dim as usize, self.m as usize, self.r as usize).0
    }
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
        // Second-to-last dimension: h = 3 depths of m entries, no object
        // per node.
        assert_eq!(t.block_keys.len(), 24);
        assert_eq!(t.block_idx.len(), 24);
        assert!(t.desc.is_empty());
        // Final dimension: the slab alone.
        let last = DimTree::<1>::build(
            0,
            (0..8).map(|i| RPoint { ranks: [i], id: i, weight: 1 }).collect(),
        );
        assert!(last.block_keys.is_empty() && last.desc.is_empty());
        // Above the last two: a descendant per internal node with a real
        // point. Node 7 spans leaves 6..8 — all pads, so none.
        let pts = diag(6, 8).into_iter().map(|p| RPoint {
            ranks: [p.ranks[0]; 3],
            id: p.id,
            weight: p.weight,
        });
        let t = DimTree::<3>::build(0, pts.collect());
        assert_eq!(t.desc.len(), 8);
        assert!(t.desc[0].is_none());
        assert!(t.desc[7].is_none());
        assert!(t.desc[1].is_some());
        assert!(t.block_keys.is_empty());
        assert_eq!(t.desc[1].as_ref().unwrap().block_keys.len(), 24);
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
                Sel::Leaves { a, b, .. } => covered.extend((*a as u32)..(*b as u32)),
                Sel::Span { .. } | Sel::Filtered { .. } => {
                    unreachable!("a final-dimension tree has no blocks")
                }
                Sel::Point { pt } => covered.push(pt.ranks[0]),
            }
        }
        covered.sort_unstable();
        assert_eq!(covered, (3..=12).collect::<Vec<u32>>());
        // O(2 log n) canonical pieces.
        assert!(sels.len() <= 8, "too many canonical pieces: {}", sels.len());
    }

    /// A box wider than the real ranks in every dimension selects every
    /// real point and no pad, in each of the three layouts.
    #[test]
    fn no_query_reaches_a_pad() {
        fn selected<const D: usize>() -> Vec<u32> {
            let t = DimTree::<D>::build(0, scattered(21, 64, [0x9e37_79b9_7f4a_7c15; D]));
            let mut sels = Vec::new();
            t.search(&RRect { lo: [0; D], hi: [u32::MAX; D] }, &mut sels);
            let mut ids = Vec::new();
            for s in &sels {
                crate::seq::sel_report(s, &mut ids);
            }
            assert_eq!(sels.iter().map(crate::seq::sel_count).sum::<u64>(), ids.len() as u64);
            ids.sort_unstable();
            ids
        }
        let all: Vec<u32> = (0..21).collect();
        assert_eq!(selected::<1>(), all);
        assert_eq!(selected::<2>(), all);
        assert_eq!(selected::<3>(), all);
    }

    /// A root whose real dimension-0 keys are one run of ranks finds its
    /// interval by subtraction; a twin with one gap in its keys takes the
    /// binary searches. Both answer every bound, below the run, inside it,
    /// past it, at `u32::MAX` and empty, with the brute-force count and
    /// id set.
    #[test]
    fn a_rank_run_root_agrees_with_the_searched_root() {
        let (k0, r, m) = (5u32, 11u32, 16u32);
        let tree = |gap: u32| {
            let real = (0..r).map(|i| rp2(k0 + i + u32::from(i >= gap), (i * 7) % r + 3, i));
            let pads =
                (0..m - r).map(|t| RPoint { ranks: [k0 + r + 1 + t; 2], id: PAD_ID, weight: 0 });
            DimTree::<2>::build(0, real.chain(pads).collect())
        };
        let (run, gapped) = (tree(r), tree(4));
        let bounds = [0, 1, k0 - 1, k0, k0 + 3, k0 + r - 1, k0 + r, k0 + r + 9, u32::MAX];
        for (&lo, &hi) in bounds.iter().flat_map(|lo| bounds.iter().map(move |hi| (lo, hi))) {
            for (ylo, yhi) in [(0, u32::MAX), (4, 9), (9, 4)] {
                let q = RRect { lo: [lo, ylo], hi: [hi, yhi] };
                for t in [&run, &gapped] {
                    let want: Vec<u32> = t.leaves[..r as usize]
                        .iter()
                        .filter(|p| q.contains_ranks_from(p, 0))
                        .map(|p| p.id)
                        .collect();
                    let mut sels = Vec::new();
                    t.search(&q, &mut sels);
                    let mut ids = Vec::new();
                    for s in &sels {
                        crate::seq::sel_report(s, &mut ids);
                    }
                    let count: u64 = sels.iter().map(crate::seq::sel_count).sum();
                    assert_eq!(count, want.len() as u64, "{q:?}");
                    ids.sort_unstable();
                    assert_eq!(ids, want, "{q:?}");
                }
            }
        }
    }

    /// `Sum` that counts its lifts, per thread, so tests running side by
    /// side do not see each other's lifts.
    #[derive(Debug, Clone, Copy)]
    struct Lifted;
    std::thread_local!(static LIFTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });

    impl crate::semigroup::Semigroup for Lifted {
        type Val = u64;
        fn lift(&self, _id: u32, weight: u64) -> u64 {
            LIFTED.set(LIFTED.get() + 1);
            weight
        }
        fn comb(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    /// Searches `t` with every box and checks count, ids and the `Sum`,
    /// `MinId` and lift-counting folds, direct and through a batch's
    /// memo, against brute force over the real points; every filtered
    /// scan must respect its `16·h²` bound and lift only what it keeps.
    /// Returns how many filtered and how many block selections it saw.
    fn agrees_with_brute_force<const D: usize>(t: &DimTree<D>, boxes: &[RRect<D>]) -> [usize; 2] {
        use crate::semigroup::{comb_opt, fold_points, MinId, Sum};
        use crate::seq::{sel_count, sel_fold, sel_report, BlockFolds};
        let mut seen = [0; 2];
        let (mut sums, mut mins) = (BlockFolds::new(), BlockFolds::new());
        let mut sels = Vec::new();
        for q in boxes {
            let matching: Vec<(u32, u64)> = t.leaves[..t.r as usize]
                .iter()
                .filter(|p| q.contains_ranks_from(p, 0))
                .map(|p| (p.id, p.weight))
                .collect();
            let mut want: Vec<u32> = matching.iter().map(|&(id, _)| id).collect();
            want.sort_unstable();
            sels.clear();
            t.search(q, &mut sels);
            let mut ids = Vec::new();
            let (mut sum, mut min, mut sum_memo, mut min_memo) = (None, None, None, None);
            for s in &sels {
                sel_report(s, &mut ids);
                sum = comb_opt(&Sum, sum, sel_fold(&Sum, s));
                min = comb_opt(&MinId, min, sel_fold(&MinId, s));
                sum_memo = comb_opt(&Sum, sum_memo, sums.fold(&Sum, s));
                min_memo = comb_opt(&MinId, min_memo, mins.fold(&MinId, s));
                if let Sel::Filtered { tree, lo, hi, .. } = *s {
                    let h = block_at(tree.m as usize, lo).1.ilog2() as usize;
                    assert!(hi - lo <= 16 * h * h, "{q:?}: a run of {} at h = {h}", hi - lo);
                    LIFTED.set(0);
                    let k = sel_count(s);
                    let folded = BlockFolds::new().fold(&Lifted, s);
                    assert_eq!(LIFTED.get(), k, "{q:?}");
                    assert_eq!(folded, sel_fold(&Sum, s), "{q:?}");
                    seen[0] += 1;
                } else if let Sel::Span { .. } = s {
                    seen[1] += 1;
                }
            }
            assert_eq!(sels.iter().map(sel_count).sum::<u64>(), want.len() as u64, "{q:?}");
            ids.sort_unstable();
            assert_eq!(ids, want, "{q:?}");
            let want_sum = fold_points(&Sum, matching.iter().copied());
            let want_min = fold_points(&MinId, matching);
            assert_eq!((sum, sum_memo), (want_sum, want_sum), "{q:?}");
            assert_eq!((min, min_memo), (want_min, want_min), "{q:?}");
        }
        seen
    }

    /// `n` points from `scattered`, weighted by id so `Sum` sees them, and
    /// boxes drawn from `seed`: narrow, wide, inverted, reaching
    /// `u32::MAX`, or the whole range, dimension by dimension.
    fn weighted_tree_and_boxes<const D: usize>(
        n: u32,
        min_m: u32,
        seeds: [u64; D],
        seed: u64,
    ) -> (DimTree<D>, Vec<RRect<D>>) {
        let mut pts = scattered(n, min_m, seeds);
        for p in pts.iter_mut().filter(|p| !p.is_pad()) {
            p.weight = u64::from(p.id % 13) + 1;
        }
        let t = DimTree::<D>::build(0, pts);
        let mut state = seed | 1;
        let mut next = move |below: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(below)) as u32
        };
        let boxes = (0..40)
            .map(|_| {
                let (mut lo, mut hi) = ([0; D], [0; D]);
                for j in 0..D {
                    let x = next(n + 2);
                    (lo[j], hi[j]) = match next(6) {
                        0 => (x, x + next(4)),
                        1 => (x, x + next(n / 8 + 2)),
                        2 => (x / 4, n - x / 4),
                        3 => (x + 1 + next(3), x),
                        4 => (x, u32::MAX),
                        _ => (0, u32::MAX),
                    };
                }
                RRect { lo, hi }
            })
            .collect();
        (t, boxes)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The filtering path and the bottom-up cover both answer as brute
        /// force does, in d = 2 and in the merge-sort level of d = 3, with
        /// pads, at sizes where a long run must fall back to the cover.
        #[test]
        fn filtered_and_covered_selections_agree_with_brute_force(
            n in 1u32..4200,
            pad in 0u32..600,
            seeds in (1u64..u64::MAX, 1u64..u64::MAX, 1u64..u64::MAX),
        ) {
            let (t, boxes) = weighted_tree_and_boxes::<2>(n, n + pad, [0, seeds.0], seeds.2);
            agrees_with_brute_force(&t, &boxes);
            let (t, boxes) = weighted_tree_and_boxes::<3>(n, n + pad, [0, seeds.0, seeds.1], !seeds.2);
            agrees_with_brute_force(&t, &boxes);
        }
    }

    /// A box over every real slab position but the first and last, and the
    /// whole final range: the lowest node is the root, its run is the whole
    /// block, longer than `16·h²`, so the search falls back to the cover and
    /// emits no filtered scan. Narrow boxes over the same tree do filter.
    #[test]
    fn a_long_run_falls_back_to_the_cover() {
        let n = 4096;
        let (t, mut boxes) = weighted_tree_and_boxes::<2>(n, n, [0, 0x2545_f491_4f6c_dd1d], 7);
        let whole = RRect { lo: [1, 0], hi: [n - 2, u32::MAX] };
        let mut sels = Vec::new();
        t.search(&whole, &mut sels);
        assert!(sels.iter().all(|s| !matches!(s, Sel::Filtered { .. })));
        boxes.push(whole);
        let [filtered, spans] = agrees_with_brute_force(&t, &boxes);
        assert!(filtered > 0 && spans > 0, "{filtered} filtered, {spans} spans");
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

    /// The merge-sort tree's rows as the definition gives them: each
    /// node's block of `(rank, slab index)`, sorted with `sort_unstable`.
    fn sorted_blocks<const D: usize>(pts: &[RPoint<D>], by: usize) -> (Vec<u32>, Vec<u32>) {
        let m = pts.len();
        let mut rows: Vec<(u32, u32)> = Vec::new();
        for width in (0..m.ilog2()).map(|depth| m >> depth) {
            for a in (0..m).step_by(width) {
                let mut block: Vec<(u32, u32)> =
                    (a..a + width).map(|i| (pts[i].ranks[by], i as u32)).collect();
                block.sort_unstable();
                rows.extend(block);
            }
        }
        rows.into_iter().unzip()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The radix-sorted depth-0 row and the partitions below it equal
        /// the per-block comparison sorts: in d = 2, and in every
        /// descendant of a d = 3 tree, whose sizes run from 2 to `m / 2`.
        #[test]
        fn merge_sort_rows_equal_the_sorted_blocks(
            n in 1u32..2500,
            min_m in 1u32..3000,
            seeds in (1u64..u64::MAX, 1u64..u64::MAX),
        ) {
            let t = DimTree::<2>::build(0, scattered(n, min_m, [0, seeds.0]));
            assert_eq!((t.block_keys, t.block_idx), sorted_blocks(&t.leaves, 1));
            let t = DimTree::<3>::build(0, scattered(n % 300 + 1, min_m % 300, [0, seeds.0, seeds.1]));
            for dt in t.desc.iter().flatten() {
                let (keys, idx) = sorted_blocks(&dt.leaves, 2);
                assert_eq!((&dt.block_keys, &dt.block_idx), (&keys, &idx), "m = {}", dt.m);
            }
        }
    }

    /// A depth-0 row whose ranks are a run is placed, not sorted, and
    /// equals the per-block sorts: at every `m = 2^k` up to `2^16` (where a
    /// radix scatter's 256 buckets start 2 KB apart), the run starting at 0
    /// or above it, all real or dense reals followed by pads. Pads above a
    /// gap leave no run, and that row takes the radix sort.
    #[test]
    fn dense_rows_equal_the_sorted_blocks() {
        let perm = |r: u32| {
            let mut ranks: Vec<u32> = (0..r).collect();
            ranks.sort_unstable_by_key(|&i| (u64::from(i) + 1).wrapping_mul(0x9e37_79b9) >> 7);
            ranks
        };
        for k in 0..=16 {
            let m = 1u32 << k;
            for (lo, r, gap) in [(0, m, 0), (77, m, 0), (5, m - m / 3, 0), (5, m - m / 3, 9)] {
                let mut pts: Vec<RPoint<2>> = (perm(r).into_iter().zip(0..))
                    .map(|(rank, i)| RPoint { ranks: [i, lo + rank], id: i, weight: 1 })
                    .collect();
                let pads =
                    (r..m).map(|t| RPoint { ranks: [t, lo + t + gap], id: PAD_ID, weight: 0 });
                pts.extend(pads);
                let t = DimTree::<2>::build(0, pts);
                let want = sorted_blocks(&t.leaves, 1);
                assert_eq!(
                    (t.block_keys, t.block_idx),
                    want,
                    "m = {m}, lo = {lo}, r = {r}, gap = {gap}"
                );
            }
        }
    }

    /// `(words, nodes)` of the conceptual tree of Definition 1, counted
    /// one internal node at a time: the reference for [`model_size`]'s
    /// per-depth arithmetic.
    pub(super) fn recount<const D: usize>(dim: usize, m: usize, r: usize) -> (u64, u64) {
        let (mut words, mut nodes) = (own_words::<D>(m), 2 * m as u64 - 1);
        if dim + 1 < D {
            for v in 1..m {
                let (a, b) = heap::span(m, v);
                if a < r {
                    let (w, n) = recount::<D>(dim + 1, b - a, b.min(r) - a);
                    words += w;
                    nodes += n;
                }
            }
        }
        (words, nodes)
    }

    fn stored_words_match_walk<const D: usize>(n: u32, min_m: u32, seeds: [u64; D]) {
        let t = DimTree::<D>::build(0, scattered(n, min_m, seeds));
        assert_eq!(t.payload_words(), t.payload_words_walk(), "d = {D}, n = {n}, m = {}", t.m);
        assert_eq!(t.size_nodes(), recount::<D>(0, t.m as usize, t.r as usize).1);
        // Every descendant carries its own sum too (it may be shipped alone).
        for dt in t.desc.iter().flatten() {
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every block of the merge-sort tree holds exactly the points of
        /// its node, sorted by the next dimension's rank, with its pads
        /// last: the definition, whichever way the arrays were filled.
        #[test]
        fn blocks_hold_their_nodes_points_in_next_dimension_order(
            n in 1u32..200,
            min_m in 1u32..300,
            seed in 1u64..u64::MAX,
        ) {
            let t = DimTree::<2>::build(0, scattered(n, min_m, [0, seed]));
            let m = t.m as usize;
            assert_eq!(t.block_keys.len(), m.ilog2() as usize * m);
            for v in 1..m {
                let (a, b) = heap::span(m, v);
                let start = v.ilog2() as usize * m + a;
                let block = start..start + (b - a);
                assert_eq!(block_at(m, start + (b - a) / 2), (start, b - a));
                let mut below: Vec<u32> = t.block_idx[block.clone()].to_vec();
                for (&i, &k) in below.iter().zip(&t.block_keys[block.clone()]) {
                    assert_eq!(t.leaves[i as usize].ranks[1], k);
                }
                assert!(t.block_keys[block].windows(2).all(|w| w[0] < w[1]), "node {v}");
                below.sort_unstable();
                assert_eq!(below, (a as u32..b as u32).collect::<Vec<u32>>(), "node {v}");
            }
            // What the root hands Algorithm Construct's next phase, from
            // the block arrays (d = 2) and from a descendant (d = 3).
            let mut by_next = t.leaves.clone();
            by_next.sort_unstable_by_key(|p| p.ranks[1]);
            assert_eq!(t.in_next_dimension(), by_next);
            let t = DimTree::<3>::build(0, scattered(n.min(64), min_m.min(64), [0, seed, !seed]));
            let mut by_next = t.leaves.clone();
            by_next.sort_unstable_by_key(|p| p.ranks[1]);
            assert_eq!(t.in_next_dimension(), by_next);
        }
    }
}
