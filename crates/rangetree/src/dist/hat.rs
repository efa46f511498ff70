//! The replicated **hat**: the top `log p` levels of every segment tree
//! of the conceptual range tree `T`.
//!
//! The paper splits `T` into a *hat* `H` — all nodes whose subtrees span
//! more than one `n/p`-point group, replicated on every processor — and a
//! *forest* `F` of `n/p`-point subtrees distributed round-robin
//! (Theorem 1: `|H| = O(p log^(d-1) p) = O(s/p)` and the forest shards
//! are balanced). Concretely, each segment tree of `T` whose point set
//! spans `k ≥ 1` groups contributes a [`HatTree`] with `k` leaves to the
//! hat; a hat leaf stands for one forest tree (a full
//! `(d-j)`-dimensional range tree on one group, stored by its owner),
//! and a hat internal node `v` of a non-final dimension points to the
//! descendant hat tree of the next dimension, [`HatTree::child`].
//!
//! The hat is a `Vec<HatTree>`, numbered once, by Construct, densely and
//! in the order of the paper's path labels (Definition 2, Lemma 1): the
//! primary tree is 0, and dimension `j+1`'s trees follow dimension `j`'s
//! in (tree, heap node) order. That is label order: a descendant's label
//! is its tree's shifted by a fixed width with `v` below, and all
//! dimension-`j` labels have one width. Forest ids are dealt in the same
//! order, a tree's groups consecutive ([`HatTree::fid`]), so no id moves
//! from where ordering by label puts it and `owner(fid) = fid mod p` is
//! the paper's round-robin deal.
//!
//! Hat nodes carry exactly what the 4-case multisearch needs: the
//! rank-interval spanned by the *real* (non-pad) points below and their
//! count.

/// One segment tree's hat part: a heap-ordered tree over its `n/p`-point
/// groups, annotated with real-point intervals and counts.
///
/// Heap layout matches [`crate::heap`]: slot 1 is the root, leaves are
/// slots `nleaves..2*nleaves`, the leaf for group `i` at `nleaves + i`.
/// Slot 0 of every per-node array is unused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HatTree {
    /// Dimension of this tree (0-based).
    pub dim: u8,
    /// Number of group leaves (a power of two; 1 on a 1-processor hat).
    pub nleaves: u32,
    /// Per heap slot: smallest rank (in `dim`) of a real point below, or
    /// `u32::MAX` if no real point is below.
    pub lo: Vec<u32>,
    /// Per heap slot: largest rank (in `dim`) of a real point below, or
    /// `0` if no real point is below (check `cnt` first).
    pub hi: Vec<u32>,
    /// Per heap slot: number of real points below.
    pub cnt: Vec<u32>,
    /// Hat index of internal node 1's descendant tree ([`child`](Self::child)).
    pub child_base: u32,
    /// Forest id of group 0's subtree; group `i`'s is `fid_base + i`.
    pub fid_base: u32,
}

impl HatTree {
    /// An unfilled hat tree with `nleaves` group leaves.
    pub(crate) fn empty(dim: u8, nleaves: usize, child_base: u32, fid_base: u32) -> Self {
        assert!(nleaves.is_power_of_two(), "hat trees span power-of-two group counts");
        HatTree {
            dim,
            nleaves: nleaves as u32,
            lo: vec![u32::MAX; 2 * nleaves],
            hi: vec![0; 2 * nleaves],
            cnt: vec![0; 2 * nleaves],
            child_base,
            fid_base,
        }
    }

    /// Fill the leaf for group `i` from its summary.
    pub(crate) fn set_leaf(&mut self, i: usize, lo: u32, hi: u32, cnt: u32) {
        let slot = self.nleaves as usize + i;
        (self.lo[slot], self.hi[slot], self.cnt[slot]) = (lo, hi, cnt);
    }

    /// Fill internal nodes bottom-up from the leaves.
    pub(crate) fn fill_internal(&mut self) {
        for v in (1..self.nleaves as usize).rev() {
            self.cnt[v] = self.cnt[2 * v] + self.cnt[2 * v + 1];
            self.lo[v] = self.lo[2 * v].min(self.lo[2 * v + 1]);
            self.hi[v] = self.hi[2 * v].max(self.hi[2 * v + 1]);
        }
    }

    /// Is heap slot `v` a group leaf?
    #[inline]
    pub fn is_leaf(&self, v: usize) -> bool {
        v >= self.nleaves as usize
    }

    /// Hat index of internal node `v`'s descendant tree: `child_base + v - 1`.
    #[inline]
    pub fn child(&self, v: usize) -> usize {
        debug_assert!(v >= 1 && !self.is_leaf(v), "only internal nodes have descendants");
        self.child_base as usize + v - 1
    }

    /// Forest id of group `i`'s subtree.
    #[inline]
    pub fn fid(&self, i: usize) -> u32 {
        self.fid_base + i as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_internal_aggregates() {
        let mut t = HatTree::empty(0, 4, 0, 10);
        t.set_leaf(0, 0, 7, 8);
        t.set_leaf(1, 8, 15, 8);
        t.set_leaf(2, 16, 20, 5);
        t.set_leaf(3, u32::MAX, 0, 0); // all pads
        t.fill_internal();
        assert_eq!(t.cnt[1], 21);
        assert_eq!((t.lo[1], t.hi[1]), (0, 20));
        assert_eq!((t.lo[2], t.hi[2]), (0, 15));
        assert_eq!(t.cnt[3], 5);
        assert_eq!((t.lo[3], t.hi[3]), (16, 20));
        assert!(t.is_leaf(4) && !t.is_leaf(3));
        assert_eq!((0..4).map(|i| t.fid(i)).collect::<Vec<_>>(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn single_leaf_hat() {
        let mut t = HatTree::empty(0, 1, 0, 0);
        t.set_leaf(0, 0, 63, 64);
        t.fill_internal(); // no internal nodes
        assert!(t.is_leaf(1));
        assert_eq!(t.cnt[1], 64);
    }
}
