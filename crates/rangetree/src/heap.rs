//! Heap-array arithmetic for complete binary trees (segment trees).
//!
//! A segment tree over `m = 2^h` leaves is stored as a heap of `2m` slots:
//! the root at index 1, node `v`'s children at `2v` and `2v + 1`, and the
//! leaf for position `i` at index `m + i`. These helpers are shared by the
//! sequential [`DimTree`](crate::seq::DimTree) and the replicated hat
//! trees.

/// Number of heap slots for a tree with `m` leaves (slot 0 unused).
#[inline]
pub fn slots(m: usize) -> usize {
    2 * m
}

/// Heap index of the leaf at position `i` in a tree with `m` leaves.
#[inline]
pub fn leaf(m: usize, i: usize) -> usize {
    m + i
}

/// Is `v` a leaf in a tree with `m` leaves?
#[inline]
pub fn is_leaf(m: usize, v: usize) -> bool {
    v >= m
}

/// The leaf-position range `[a, b)` spanned by node `v` in a tree with `m`
/// leaves.
#[inline]
pub fn span(m: usize, v: usize) -> (usize, usize) {
    debug_assert!(v >= 1 && v < 2 * m);
    let depth = v.ilog2();
    let width = m >> depth;
    let offset = (v - (1 << depth)) * width;
    (offset, offset + width)
}

/// `level(v)`: the height of `v` above the leaves (Definition 2(i)); the
/// root of a tree with `m = 2^h` leaves has level `h`, leaves have level 0.
#[inline]
pub fn level(m: usize, v: usize) -> u32 {
    m.ilog2() - v.ilog2()
}

/// Parent heap index (the root has no parent).
#[inline]
pub fn parent(v: usize) -> usize {
    v / 2
}

/// The canonical decomposition of leaf positions `[a, b)` in a tree with
/// `m` leaves: `visit` is called on the maximal nodes whose span lies
/// within it, `O(log m)` of them, found bottom-up from both ends.
pub(crate) fn cover(m: usize, a: usize, b: usize, mut visit: impl FnMut(usize)) {
    let (mut lo, mut hi) = (leaf(m, a), leaf(m, b));
    while lo < hi {
        if lo & 1 == 1 {
            visit(lo);
            lo += 1;
        }
        if hi & 1 == 1 {
            hi -= 1;
            visit(hi);
        }
        lo /= 2;
        hi /= 2;
    }
}

/// Walk from the leaf at position `i` up to (and including) the root,
/// yielding the *internal* ancestors (parent of the leaf first).
pub fn internal_ancestors(m: usize, i: usize) -> impl Iterator<Item = usize> {
    let mut v = leaf(m, i) / 2;
    std::iter::from_fn(move || {
        if v >= 1 {
            let out = v;
            v /= 2;
            Some(out)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_partition_each_level() {
        let m = 8;
        assert_eq!(span(m, 1), (0, 8));
        assert_eq!(span(m, 2), (0, 4));
        assert_eq!(span(m, 3), (4, 8));
        assert_eq!(span(m, 7), (6, 8));
        for i in 0..m {
            assert_eq!(span(m, leaf(m, i)), (i, i + 1));
        }
    }

    #[test]
    fn levels_match_heights() {
        let m = 8;
        assert_eq!(level(m, 1), 3);
        assert_eq!(level(m, 2), 2);
        assert_eq!(level(m, 15), 0);
    }

    #[test]
    fn ancestor_walk() {
        let m = 8;
        let anc: Vec<usize> = internal_ancestors(m, 5).collect();
        // leaf(8,5) = 13 → 6 → 3 → 1
        assert_eq!(anc, vec![6, 3, 1]);
    }

    #[test]
    fn cover_is_the_maximal_nodes_within_the_interval() {
        let m = 16;
        for a in 0..m {
            for b in a..=m {
                let mut nodes = Vec::new();
                cover(m, a, b, |v| nodes.push(v));
                let mut spans: Vec<(usize, usize)> = nodes.iter().map(|&v| span(m, v)).collect();
                spans.sort_unstable();
                // Disjoint, contiguous, exactly [a, b) ...
                let mut at = a;
                for &(s, e) in &spans {
                    assert_eq!(s, at, "[{a}, {b})");
                    at = e;
                }
                assert_eq!(at, b, "[{a}, {b})");
                // ... and maximal: no node's parent fits too.
                for &v in nodes.iter().filter(|&&v| v > 1) {
                    let (s, e) = span(m, parent(v));
                    assert!(s < a || e > b, "[{a}, {b}): node {v}");
                }
            }
        }
    }

    #[test]
    fn single_leaf_tree() {
        // m = 1: node 1 is both root and leaf.
        assert!(is_leaf(1, 1));
        assert_eq!(span(1, 1), (0, 1));
        assert_eq!(level(1, 1), 0);
        assert_eq!(internal_ancestors(1, 0).count(), 0);
    }
}
