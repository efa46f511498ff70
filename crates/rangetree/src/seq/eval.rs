//! Evaluating selections: count, report, and semigroup folds.

use std::collections::HashMap;
use std::marker::PhantomData;

use crate::heap;
use crate::point::{RPoint, RRect};
use crate::semigroup::{comb_opt, fold_points, Semigroup};
use crate::seq::tree::{block_at, DimTree, Sel};

/// Number of real points under a selection.
pub fn sel_count<const D: usize>(sel: &Sel<'_, D>) -> u64 {
    match *sel {
        Sel::Span { lo, hi, .. } => (hi - lo) as u64,
        Sel::Filtered { tree, lo, hi, a, b } => {
            let (a, len) = (a as u32, (b - a) as u32);
            let kept = tree.block_idx[lo..hi].iter().map(|&i| u32::from(i.wrapping_sub(a) < len));
            kept.sum::<u32>().into()
        }
        Sel::Leaves { a, b, .. } => (b - a) as u64,
        Sel::Point { .. } => 1,
    }
}

/// Append the point ids under a selection to `out`.
pub fn sel_report<const D: usize>(sel: &Sel<'_, D>, out: &mut Vec<u32>) {
    sel_points(sel).for_each(|p| out.push(p.id));
}

/// Iterate the real points under a selection.
pub fn sel_points<'t, const D: usize>(
    sel: &Sel<'t, D>,
) -> impl Iterator<Item = &'t RPoint<D>> + 't {
    // A slab interval read in place, or block entries whose slab index is
    // kept read through the slab; one of the two is empty.
    let (direct, entries, slab, (a, len)) = match *sel {
        Sel::Span { tree, lo, hi } => {
            (&[][..], &tree.block_idx[lo..hi], &tree.leaves[..], (0, u32::MAX))
        }
        Sel::Filtered { tree, lo, hi, a, b } => {
            (&[][..], &tree.block_idx[lo..hi], &tree.leaves[..], (a as u32, (b - a) as u32))
        }
        Sel::Leaves { tree, a, b } => (&tree.leaves[a..b], &[][..], &[][..], (0, 0)),
        Sel::Point { pt } => (std::slice::from_ref(pt), &[][..], &[][..], (0, 0)),
    };
    let kept = entries.iter().filter(move |&&i| i.wrapping_sub(a) < len);
    direct.iter().chain(kept.map(move |&i| &slab[i as usize]))
}

/// `⊗` of `f` over the points under a selection: one lift per point.
pub fn sel_fold<S: Semigroup, const D: usize>(sg: &S, sel: &Sel<'_, D>) -> Option<S::Val> {
    fold_points(sg, sel_points(sel).map(|p| (p.id, p.weight)))
}

/// Algorithm AssociativeFunction step 1 ("compute f(v) bottom-up for
/// each node v in dimension d of T"), run on demand and per block for
/// one batch of queries.
///
/// A selection's points all match, so its fold costs one lift per point
/// and most batches need nothing else. A batch that keeps selecting from
/// the same block would pay that `k` again and again: once the entries
/// folded directly out of a block exceed twice its width, the block's
/// bottom-up value array is filled (once) and later selections from it
/// cost `O(log width)`. A selection no longer than that `log width` is
/// folded directly and not counted, being within the bound either way. So
/// a block never costs the batch more than `4·width + Q·log width`.
/// A filtered scan counts as short up to `h²` (width `2^h`), its visit's
/// search cost; a longer one is folded as the cover it stands in for.
pub(crate) struct BlockFolds<'t, S: Semigroup, const D: usize> {
    /// Per touched block, keyed by `(tree, first entry)`. A tree's
    /// identity is its address, which the borrow `'t` keeps from being
    /// reused while the memo lives.
    blocks: HashMap<(*const DimTree<D>, usize), Touched<S::Val>>,
    trees: PhantomData<&'t DimTree<D>>,
}

/// A touched block: entries folded directly so far, and its value array once filled.
type Touched<V> = (usize, Vec<Option<V>>);

impl<'t, S: Semigroup, const D: usize> BlockFolds<'t, S, D> {
    /// Nothing touched yet.
    pub(crate) fn new() -> Self {
        BlockFolds { blocks: HashMap::new(), trees: PhantomData }
    }

    /// `⊗` of `f` over the points under `sel`, equal to [`sel_fold`].
    pub(crate) fn fold(&mut self, sg: &S, sel: &Sel<'t, D>) -> Option<S::Val> {
        // The selection as entries `lo..hi` of a block of its tree.
        let (tree, (start, width), lo, hi) = match *sel {
            Sel::Span { tree, lo, hi } | Sel::Filtered { tree, lo, hi, .. } => {
                (tree, block_at(tree.m as usize, lo), lo, hi)
            }
            Sel::Leaves { tree, a, b } => (tree, (0, tree.m as usize), a, b),
            Sel::Point { .. } => return sel_fold(sg, sel),
        };
        let h = width.ilog2() as usize;
        let short = if matches!(sel, Sel::Filtered { .. }) { h * h } else { h };
        if hi - lo <= short {
            return sel_fold(sg, sel);
        }
        if let Sel::Filtered { a, b, .. } = *sel {
            let (mut q, mut cover) = (RRect { lo: [0; D], hi: [u32::MAX; D] }, Vec::new());
            (q.lo[D - 1], q.hi[D - 1]) = (tree.block_keys[lo], tree.block_keys[hi - 1]);
            tree.cover(a, b, &q, &mut cover);
            return cover.iter().fold(None, |acc, s| comb_opt(sg, acc, self.fold(sg, s)));
        }
        let (folded, vals) = self.blocks.entry((std::ptr::from_ref(tree), start)).or_default();
        if vals.is_empty() {
            *folded += hi - lo;
            if *folded <= 2 * width {
                return sel_fold(sg, sel);
            }
            let whole = match *sel {
                Sel::Span { tree, .. } => Sel::Span { tree, lo: start, hi: start + width },
                _ => Sel::Leaves { tree, a: 0, b: width },
            };
            *vals = vec![None; 2 * width];
            for (slot, p) in vals[width..].iter_mut().zip(sel_points(&whole)) {
                *slot = (!p.is_pad()).then(|| sg.lift(p.id, p.weight));
            }
            for v in (1..width).rev() {
                vals[v] = comb_opt(sg, vals[2 * v].clone(), vals[2 * v + 1].clone());
            }
        }
        let mut acc = None;
        heap::cover(width, lo - start, hi - start, |v| {
            acc = comb_opt(sg, acc.take(), vals[v].clone());
        });
        acc
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::point::{Point, RPoint, RRect, Rect, PAD_ID};
    use crate::semigroup::{Count, Sum};
    use crate::seq::SeqRangeTree;

    fn tree1d(n: u32, m: u32) -> DimTree<1> {
        let mut pts: Vec<RPoint<1>> =
            (0..n).map(|i| RPoint { ranks: [i], id: i, weight: (i + 1) as u64 }).collect();
        for t in 0..(m - n) {
            pts.push(RPoint { ranks: [n + t], id: PAD_ID, weight: 0 });
        }
        DimTree::build(0, pts)
    }

    #[test]
    fn counts_and_reports_clip_pads() {
        let t = tree1d(5, 8);
        let q = RRect { lo: [0], hi: [7] };
        let mut sels = Vec::new();
        t.search(&q, &mut sels);
        let total: u64 = sels.iter().map(sel_count).sum();
        assert_eq!(total, 5);
        let mut ids = Vec::new();
        for s in &sels {
            sel_report(s, &mut ids);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cached_fold_equals_direct_fold() {
        let t = tree1d(7, 8);
        let q = RRect { lo: [2], hi: [6] };
        let mut sels = Vec::new();
        t.search(&q, &mut sels);
        let mut cache = BlockFolds::new();
        let mut total: Option<u64> = None;
        for s in &sels {
            total = comb_opt(&Sum, total, cache.fold(&Sum, s));
        }
        // weights are i+1 → ranks 2..=6 have weights 3+4+5+6+7 = 25.
        assert_eq!(total, Some(25));
        // Count via the same machinery.
        let mut cache = BlockFolds::new();
        let mut cnt: Option<u64> = None;
        for s in &sels {
            cnt = comb_opt(&Count, cnt, cache.fold(&Count, s));
        }
        assert_eq!(cnt, Some(5));
    }

    /// Filled or not, the memo answers what a direct fold answers, for a
    /// block of a merge-sort tree and for a final-dimension slab, pads
    /// and a semigroup without inverses included.
    #[test]
    fn memo_answers_equal_direct_folds_before_and_after_a_fill() {
        use crate::semigroup::MinId;
        fn check<const D: usize>(t: &DimTree<D>) {
            let (mut sums, mut mins) = (BlockFolds::new(), BlockFolds::new());
            let mut sels = Vec::new();
            for round in 0..60u32 {
                sels.clear();
                t.search(&RRect { lo: [round % 5; D], hi: [t.r + 3 - round % 7; D] }, &mut sels);
                for s in &sels {
                    assert_eq!(sums.fold(&Sum, s), sel_fold(&Sum, s), "round {round}");
                    assert_eq!(mins.fold(&MinId, s), sel_fold(&MinId, s), "round {round}");
                }
            }
            assert!(sums.blocks.values().any(|(_, vals)| !vals.is_empty()), "nothing was filled");
        }
        check(&tree1d(21, 32));
        let pts: Vec<Point<2>> =
            (0..21).map(|i| Point::weighted([i, (i * 8) % 21], 40 - i as u32, i as u64)).collect();
        check(SeqRangeTree::build(&pts).unwrap().root());
    }

    /// `Sum` that counts its lifts. The counter is this test module's
    /// alone, and one test reads it.
    #[derive(Debug, Clone, Copy)]
    struct CountedSum;
    static LIFTS: AtomicU64 = AtomicU64::new(0);

    impl Semigroup for CountedSum {
        type Val = u64;
        fn lift(&self, _id: u32, weight: u64) -> u64 {
            LIFTS.fetch_add(1, Ordering::Relaxed);
            weight
        }
        fn comb(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    /// An aggregate is a fold over what matches: `k` lifts, not a value
    /// fill of every touched tree. And a block selected from again and
    /// again is filled once, whatever the order of the answers.
    #[test]
    fn an_aggregate_lifts_once_per_matching_point() {
        let n = 4096u32;
        let pts: Vec<Point<2>> = (0..n)
            .map(|i| Point::weighted([i as i64, ((i * 389) % n) as i64], i, (i % 7 + 1) as u64))
            .collect();
        let t = SeqRangeTree::build(&pts).unwrap();
        for q in [
            Rect::new([100, 50], [1900, 3000]),
            Rect::new([0, 0], [4095, 4095]),
            Rect::new([77, 77], [77, 4000]),
        ] {
            let matching: Vec<&Point<2>> = pts.iter().filter(|p| q.contains(p)).collect();
            LIFTS.store(0, Ordering::Relaxed);
            let got = t.aggregate(&CountedSum, &q);
            assert_eq!(LIFTS.load(Ordering::Relaxed), matching.len() as u64, "query {q:?}");
            assert_eq!(got, fold_points(&Sum, matching.iter().map(|p| (p.id, p.weight))));
        }

        // The same selections through one batch's memo: the root block is
        // folded directly twice, filled on the third, read afterwards.
        let root = t.root();
        let mut sels = Vec::new();
        root.search(&RRect { lo: [0, 0], hi: [n - 1, n - 1] }, &mut sels);
        let direct = t.aggregate(&Sum, &Rect::new([0, 0], [4095, 4095]));
        let mut folds = BlockFolds::new();
        LIFTS.store(0, Ordering::Relaxed);
        for _ in 0..64 {
            let mut acc = None;
            for s in &sels {
                acc = comb_opt(&CountedSum, acc, folds.fold(&CountedSum, s));
            }
            assert_eq!(acc, direct);
        }
        assert_eq!(LIFTS.load(Ordering::Relaxed), 3 * n as u64);
    }
}
