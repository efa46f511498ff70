//! Rank normalization and power-of-two padding, and the id rule every
//! build and write applies: the first offender in input order.
//!
//! Maps user coordinates to the paper's normalized setting: every
//! coordinate replaced by its rank (duplicates broken by record id, so
//! ranks are unique per dimension), the point count padded to the next
//! power of two with sentinel points whose ranks exceed every real rank in
//! every dimension. Queries are translated to inclusive rank intervals by
//! binary search, so sentinel pads are unreachable by any query.
//!
//! The ranks come from [`radix_sort`]: the points are put in id order
//! once, then sorted stably by each coordinate in turn, so equal
//! coordinates keep their id order: the `(coordinate, id)` order.

use crate::point::{Point, RPoint, RRect, Rect, PAD_ID};

/// The rank mapping for one input point set.
///
/// Holds the per-dimension sorted coordinate columns needed to translate
/// query boxes into rank space. In a production multicomputer this
/// translation would be a distributed binary search; keeping the arrays on
/// the host is an API convenience that does not participate in the measured
/// CGM algorithms.
#[derive(Debug, Clone)]
pub struct RankSpace<const D: usize> {
    /// Per dimension: the coordinates sorted ascending (equal ones in id
    /// order), so a coordinate's rank is its position.
    sorted: Vec<Vec<i64>>,
    /// Number of real points.
    n: usize,
    /// Padded size: the smallest power of two `>= max(n, min_size)`.
    m: usize,
}

/// Errors from rank-space construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankError {
    /// Two input points share an id (ranks would be ambiguous).
    DuplicateId(u32),
    /// A point uses the reserved pad id.
    ReservedId,
    /// The input point set is empty.
    Empty,
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::DuplicateId(id) => write!(f, "duplicate point id {id}"),
            RankError::ReservedId => write!(f, "point id {PAD_ID} is reserved for pads"),
            RankError::Empty => write!(f, "empty point set"),
        }
    }
}

impl std::error::Error for RankError {}

/// The ids of `pts`, ascending, unless one is refused; then the first
/// offender in input order and its position: a pad id where it stands, an
/// id that `live` (handed the ids ascending, returning the live ones
/// ascending) holds where it first stands, a repeated id where it stands
/// the second time. Every check that refuses a point set by its ids
/// applies this one rule. Ids that already ascend, as most inputs' do,
/// cost the sort one pass.
pub fn check_ids<const D: usize>(
    pts: &[Point<D>],
    live: impl FnOnce(&[u32]) -> Vec<u32>,
) -> Result<Vec<u32>, (u32, RankError)> {
    let mut keys: Vec<u64> = pts.iter().map(|p| u64::from(p.id)).collect();
    let mut order: Vec<u32> = (0..pts.len() as u32).collect();
    radix_sort(&mut keys, &mut order);
    let ids: Vec<u32> = keys.iter().map(|&id| id as u32).collect();
    let mut live = live(&ids).into_iter().peekable();
    let refusal = |(k, (&id, &at)): (usize, (&u32, &u32))| {
        while live.next_if(|&held| held < id).is_some() {}
        if id == PAD_ID {
            Some((at, RankError::ReservedId))
        } else if live.peek() == Some(&id) || k > 0 && ids[k - 1] == id {
            Some((at, RankError::DuplicateId(id)))
        } else {
            None
        }
    };
    let first = ids.iter().zip(&order).enumerate().filter_map(refusal).min_by_key(|&(at, _)| at);
    first.map_or(Ok(ids), Err)
}

/// Inputs shorter than this take the standard library's stable sort: a
/// radix pass clears and sums its counters whatever the input's length,
/// and below 32 keys that costs more than the comparisons it saves (on a
/// 2-vCPU Xeon, for spans of `2^8` to `2^20`).
const RADIX_MIN_LEN: usize = 32;

/// Sort `pos` stably by `keys`, `keys[i]` being the key of `pos[i]`, and
/// `keys` with it: an LSD radix sort over the bits in which the keys
/// differ from the least of them, so keys spanning `2^b` cost `⌈b / 11⌉`
/// passes of a count and a scatter (at most `2^11` counters, which stay in
/// L1). Keys that already ascend cost one scan. A merge-sort row whose
/// keys are a run of distinct ranks does not come here: it is placed.
pub(crate) fn radix_sort(keys: &mut Vec<u64>, pos: &mut Vec<u32>) {
    debug_assert_eq!(keys.len(), pos.len());
    if keys.is_sorted() {
        return;
    }
    let n = keys.len();
    if n < RADIX_MIN_LEN {
        let mut pairs: Vec<(u64, u32)> = keys.iter().copied().zip(pos.iter().copied()).collect();
        pairs.sort_by_key(|&(k, _)| k);
        for ((k, p), pair) in keys.iter_mut().zip(pos.iter_mut()).zip(pairs) {
            (*k, *p) = pair;
        }
        return;
    }
    let (lo, hi) = keys.iter().fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let bits = u64::BITS - (hi - lo).leading_zeros();
    let passes = bits.div_ceil(11);
    let width = bits.div_ceil(passes);
    let (mut keys_to, mut pos_to) = (vec![0u64; n], vec![0u32; n]);
    let mut at = vec![0usize; 1 << width];
    for shift in (0..passes).map(|pass| pass * width) {
        let digit = |k: u64| ((k - lo) >> shift) as usize & ((1 << width) - 1);
        at.fill(0);
        for &k in keys.iter() {
            at[digit(k)] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            (sum, *slot) = (sum + *slot, sum);
        }
        for (&k, &p) in keys.iter().zip(pos.iter()) {
            let to = &mut at[digit(k)];
            (keys_to[*to], pos_to[*to]) = (k, p);
            *to += 1;
        }
        std::mem::swap(keys, &mut keys_to);
        std::mem::swap(pos, &mut pos_to);
    }
}

impl<const D: usize> RankSpace<D> {
    /// Build the rank space for `pts`, padding the size up to a power of
    /// two that is at least `min_size` (pass the processor count so the
    /// padded size is divisible by `p`), and convert the points to it: in
    /// dimension-0 rank order (every aligned share is a sorted run),
    /// followed by the sentinel pads (pad `t` has rank `n + t` in every
    /// dimension), exactly [`m`](RankSpace::m) points.
    pub fn normalize(
        pts: &[Point<D>],
        min_size: usize,
    ) -> Result<(Self, Vec<RPoint<D>>), RankError> {
        if pts.is_empty() {
            return Err(RankError::Empty);
        }
        check_ids(pts, |_| Vec::new()).map_err(|(_, refusal)| refusal)?;
        Ok(Self::normalize_distinct(pts, min_size))
    }

    /// [`normalize`](RankSpace::normalize) for a caller that has already
    /// refused an empty set, a pad id and a repeated id: a radix sort by id
    /// and one per dimension, and nothing else above linear.
    pub(crate) fn normalize_distinct(pts: &[Point<D>], min_size: usize) -> (Self, Vec<RPoint<D>>) {
        let n = pts.len();
        let m = n.max(min_size).max(1).next_power_of_two();
        // The input positions in id order: a stable sort by a coordinate
        // leaves equal coordinates in it.
        let mut keys: Vec<u64> = pts.iter().map(|p| u64::from(p.id)).collect();
        let mut by_id: Vec<u32> = (0..n as u32).collect();
        radix_sort(&mut keys, &mut by_id);
        // `rank0[i]`: the dimension-0 rank of input point `i`, which is
        // where that point stands in `rpts`.
        let mut rank0 = vec![0u32; n];
        let mut rpts: Vec<RPoint<D>> = Vec::with_capacity(m);
        // A coordinate with its sign bit flipped: `u64` order is `i64` order.
        const SIGN: u64 = 1 << 63;
        let sorted = (0..D)
            .map(|j| {
                keys.clear();
                keys.extend(by_id.iter().map(|&i| pts[i as usize].coords[j] as u64 ^ SIGN));
                let mut order = by_id.clone();
                radix_sort(&mut keys, &mut order);
                for (rank, &i) in (0..).zip(&order) {
                    if j == 0 {
                        rank0[i as usize] = rank;
                        let Point { id, weight, .. } = pts[i as usize];
                        rpts.push(RPoint { ranks: [rank; D], id, weight });
                    } else {
                        rpts[rank0[i as usize] as usize].ranks[j] = rank;
                    }
                }
                keys.iter().map(|&k| (k ^ SIGN) as i64).collect()
            })
            .collect();
        rpts.extend((n..m).map(|t| RPoint { ranks: [t as u32; D], id: PAD_ID, weight: 0 }));
        (RankSpace { sorted, n, m }, rpts)
    }

    /// Number of real points.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Padded size (a power of two).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Translate a query box to inclusive rank intervals: the one-box
    /// case of [`translate_all`](RankSpace::translate_all).
    pub fn translate(&self, q: &Rect<D>) -> RRect<D> {
        self.translate_all(&[q])[0]
    }

    /// Translate query boxes to inclusive rank intervals: in dimension
    /// `j`, exactly the real points with a coordinate in `[lo[j], hi[j]]`,
    /// `(1, 0)` (`lo > hi`, no `u32` wrap) when there are none. The binary
    /// searches of all the bounds run in lockstep, one pass over the batch
    /// per halving of their common window length, and a step is a select,
    /// not a branch: the loads of a pass are independent, so their cache
    /// misses overlap. Each window's start is kept in the output itself.
    pub fn translate_all(&self, qs: &[&Rect<D>]) -> Vec<RRect<D>> {
        let mut out = vec![RRect { lo: [0; D], hi: [0; D] }; qs.len()];
        for (j, col) in self.sorted.iter().map(Vec::as_slice).enumerate() {
            // To the first rank with coord >= q.lo[j], and the first > q.hi[j].
            let mut len = col.len();
            while len > 1 {
                let half = len / 2;
                for (r, q) in out.iter_mut().zip(qs) {
                    let (l, h) = (r.lo[j] as usize, r.hi[j] as usize);
                    r.lo[j] = if col[l + half - 1] < q.lo[j] { l + half } else { l } as u32;
                    r.hi[j] = if col[h + half - 1] <= q.hi[j] { h + half } else { h } as u32;
                }
                len -= half;
            }
            for (r, q) in out.iter_mut().zip(qs) {
                let l = r.lo[j] + u32::from(col[r.lo[j] as usize] < q.lo[j]);
                let h = r.hi[j] + u32::from(col[r.hi[j] as usize] <= q.hi[j]);
                (r.lo[j], r.hi[j]) = if h <= l { (1, 0) } else { (l, h - 1) };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts2(coords: &[[i64; 2]]) -> Vec<Point<2>> {
        coords.iter().enumerate().map(|(i, &c)| Point::new(c, i as u32)).collect()
    }

    #[test]
    fn ranks_are_unique_and_order_preserving() {
        let pts = pts2(&[[5, 50], [3, 30], [9, 10], [3, 70]]);
        let (_, rp) = RankSpace::normalize(&pts, 1).unwrap();
        // Dimension 0 values: 5,3,9,3 → ranks 2,{0,1},3 (duplicates by id:
        // id 1 before id 3), and the points come in that order.
        assert_eq!(rp.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1, 3, 0, 2]);
        assert_eq!(rp.iter().map(|p| p.ranks[0]).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Dimension 1 values 50,30,10,70 → ranks 2,1,0,3 by id.
        assert_eq!(rp.iter().map(|p| p.ranks[1]).collect::<Vec<_>>(), vec![1, 3, 2, 0]);
    }

    #[test]
    fn padding_to_power_of_two_with_min_size() {
        let pts = pts2(&[[1, 1], [2, 2], [3, 3]]);
        let (rs, rp) = RankSpace::normalize(&pts, 8).unwrap();
        assert_eq!(rs.m(), 8);
        assert_eq!(rp.len(), 8);
        assert!(rp[3..].iter().all(|p| p.is_pad()));
        // Pads rank beyond all real ranks, increasing.
        assert_eq!(rp[3].ranks, [3, 3]);
        assert_eq!(rp[7].ranks, [7, 7]);
    }

    #[test]
    fn translate_inclusive_bounds() {
        let pts = pts2(&[[10, 0], [20, 0], [30, 0], [40, 0]]);
        let (rs, _) = RankSpace::normalize(&pts, 1).unwrap();
        let q = rs.translate(&Rect::new([20, 0], [30, 0]));
        assert_eq!((q.lo[0], q.hi[0]), (1, 2));
        // Query between values: [21, 29] matches nothing in dim 0.
        let q = rs.translate(&Rect::new([21, 0], [29, 0]));
        assert!(q.lo[0] > q.hi[0]);
        // Query covering everything.
        let q = rs.translate(&Rect::new([i64::MIN, 0], [i64::MAX, 0]));
        assert_eq!((q.lo[0], q.hi[0]), (0, 3));
    }

    #[test]
    fn translate_duplicates_cover_all_copies() {
        let pts = pts2(&[[7, 0], [7, 0], [7, 0], [9, 0]]);
        let (rs, _) = RankSpace::normalize(&pts, 1).unwrap();
        let q = rs.translate(&Rect::new([7, 0], [7, 0]));
        assert_eq!((q.lo[0], q.hi[0]), (0, 2));
    }

    /// Every interval is the brute-force count of the coordinates below
    /// `lo` and not above `hi`, `(1, 0)` when they are equal: heavy
    /// duplicates, the extreme bounds, point boxes and inverted boxes,
    /// whatever the column or batch length.
    #[test]
    fn translate_all_matches_a_brute_force_count() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for n in [1usize, 2, 3, 1000] {
            // Coordinates from a handful of values, so most repeat.
            let mut coord =
                || edges[next() as usize % edges.len()].saturating_add((next() % 3) as i64 - 1);
            let pts: Vec<Point<2>> =
                (0..n as u32).map(|i| Point::new([coord(), coord()], i)).collect();
            let (rs, _) = RankSpace::normalize(&pts, 1).unwrap();
            let mut bound = || match next() % 3 {
                0 => edges[next() as usize % edges.len()],
                1 => pts[next() as usize % n].coords[(next() % 2) as usize],
                _ => (next() % 7) as i64 - 3,
            };
            for len in [0usize, 1, 2, 257] {
                let qs: Vec<Rect<2>> = (0..len)
                    .map(|i| match i % 4 {
                        0 => {
                            let c = [bound(), bound()];
                            Rect::new(c, c) // a point box
                        }
                        1 => Rect::new([i64::MIN, bound()], [i64::MAX, bound()]),
                        _ => Rect::new([bound(), bound()], [bound(), bound()]), // may be inverted
                    })
                    .collect();
                let got = rs.translate_all(&qs.iter().collect::<Vec<_>>());
                assert_eq!(got.len(), len);
                for (q, r) in qs.iter().zip(&got) {
                    for j in 0..2 {
                        let below = pts.iter().filter(|p| p.coords[j] < q.lo[j]).count() as u32;
                        let upto = pts.iter().filter(|p| p.coords[j] <= q.hi[j]).count() as u32;
                        let want = if upto <= below { (1, 0) } else { (below, upto - 1) };
                        assert_eq!((r.lo[j], r.hi[j]), want, "n = {n}, q = {q:?}, j = {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn build_rejects_bad_ids() {
        let mut pts = pts2(&[[1, 1], [2, 2]]);
        pts[1].id = 0;
        assert!(matches!(RankSpace::normalize(&pts, 1), Err(RankError::DuplicateId(0))));
        let mut pts = pts2(&[[1, 1]]);
        pts[0].id = PAD_ID;
        assert!(matches!(RankSpace::normalize(&pts, 1), Err(RankError::ReservedId)));
        assert!(matches!(RankSpace::<2>::normalize(&[], 1), Err(RankError::Empty)));
    }

    /// The normalization before the radix sorts, kept as the reference:
    /// per dimension one comparison sort of `(coordinate, id, dimension-0
    /// rank)`, gathered through the dimension-0 order.
    fn comparison_sort_normalize<const D: usize>(
        pts: &[Point<D>],
        min_size: usize,
    ) -> (Vec<Vec<i64>>, usize, usize, Vec<RPoint<D>>) {
        let n = pts.len();
        let m = n.max(min_size).max(1).next_power_of_two();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rpts: Vec<RPoint<D>> = Vec::with_capacity(m);
        let mut sorted = Vec::new();
        for j in 0..D {
            let entry = |(&i, at)| (pts[i as usize].coords[j], pts[i as usize].id, at);
            let mut col: Vec<(i64, u32, u32)> = order.iter().zip(0..).map(entry).collect();
            col.sort_unstable();
            if j == 0 {
                order = col.iter().map(|&(_, _, at)| at).collect();
                for (&(_, id, at), rank) in col.iter().zip(0..) {
                    rpts.push(RPoint { ranks: [rank; D], id, weight: pts[at as usize].weight });
                }
            } else {
                for (&(_, _, at), rank) in col.iter().zip(0..) {
                    rpts[at as usize].ranks[j] = rank;
                }
            }
            sorted.push(col.iter().map(|&(c, _, _)| c).collect());
        }
        rpts.extend((n..m).map(|t| RPoint { ranks: [t as u32; D], id: PAD_ID, weight: 0 }));
        (sorted, n, m, rpts)
    }

    /// `normalize` and the comparison-sort reference agree on every column,
    /// size and point.
    fn agrees_with_the_comparison_sorts<const D: usize>(pts: &[Point<D>], min_size: usize) {
        let (rs, rpts) = RankSpace::normalize(pts, min_size).unwrap();
        let want = comparison_sort_normalize(pts, min_size);
        assert_eq!((rs.sorted, rs.n, rs.m, rpts), want, "n = {}, min_size = {min_size}", pts.len());
    }

    /// `n` points of distinct, sparse ids (up to `PAD_ID − 1`, in no
    /// order), drawn from `seed`: dimension 0 mixes `i64::MIN`, `i64::MAX`,
    /// negative and repeated coordinates, dimension 1 is one coordinate
    /// throughout, and dimension 2 spans under `2^20`, as served inputs do.
    fn edge_points(n: usize, seed: u64) -> Vec<Point<3>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges = [i64::MIN, i64::MIN + 1, -5, -1, 0, 3, i64::MAX - 1, i64::MAX];
        // Ascending ids with random gaps, the last `PAD_ID − 1`, then shuffled.
        let mut ids: Vec<u32> = (0..n as u32).map(|_| 1 + (next() % 50_000) as u32).collect();
        ids.iter_mut().fold(0u32, |sum, gap| {
            *gap += sum;
            *gap
        });
        let shift = PAD_ID - 1 - ids[n - 1];
        for k in (1..n).rev() {
            ids.swap(k, next() as usize % (k + 1));
        }
        let coord = |r: u64| match r % 3 {
            0 => edges[(r >> 8) as usize % edges.len()],
            1 => (r >> 8) as i64 % 7 - 3,
            _ => (r >> 3) as i64,
        };
        (0..n)
            .map(|k| {
                let c = [coord(next()), -42, (next() % (1 << 20)) as i64];
                Point::weighted(c, ids[k] + shift, next() % 9)
            })
            .collect()
    }

    /// Single points, sizes that are not powers of two and a `min_size`
    /// past `n`, through the radix sorts and their short-input sort alike.
    #[test]
    fn normalize_on_edge_inputs_is_the_comparison_sorts() {
        for (n, min_size) in [(1, 1), (1, 8), (3, 4), (31, 1), (32, 1), (33, 100), (1000, 5000)] {
            agrees_with_the_comparison_sorts(&edge_points(n, 0x9e37_79b9 + n as u64), min_size);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The radix-sorted ranks, points and columns are bit for bit the
        /// comparison sorts', in one, two and three dimensions.
        #[test]
        fn normalize_is_the_comparison_sort_normalization(
            n in 1usize..700,
            min_size in 1usize..1500,
            seed in 1u64..u64::MAX,
        ) {
            let pts = edge_points(n, seed);
            agrees_with_the_comparison_sorts(&pts, min_size);
            let fewer = |k: usize| -> Vec<Point<2>> {
                pts.iter().map(|p| Point::weighted([p.coords[k], p.coords[2]], p.id, p.weight)).collect()
            };
            agrees_with_the_comparison_sorts(&fewer(0), min_size);
            agrees_with_the_comparison_sorts(&fewer(1), min_size);
            let line: Vec<Point<1>> = pts.iter().map(|p| Point::new([p.coords[0]], p.id)).collect();
            agrees_with_the_comparison_sorts(&line, min_size);
        }

        /// `radix_sort` is the standard library's stable sort by key, for
        /// keys spanning a few values to all 64 bits, on either side of the
        /// short-input cut.
        #[test]
        fn radix_sort_is_a_stable_sort_by_key(
            n in 0usize..600,
            span_bits in 1u32..65,
            seed in 1u64..u64::MAX,
        ) {
            let mut state = seed;
            let mut key = move || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state ^ state >> 29).checked_shr(64 - span_bits).unwrap_or(0) ^ seed >> 40
            };
            let mut keys: Vec<u64> = (0..n).map(|_| key()).collect();
            let mut pos: Vec<u32> = (0..n as u32).rev().collect();
            let mut want: Vec<(u64, u32)> = keys.iter().copied().zip(pos.iter().copied()).collect();
            want.sort_by_key(|&(k, _)| k);
            radix_sort(&mut keys, &mut pos);
            let got: Vec<(u64, u32)> = keys.into_iter().zip(pos).collect();
            assert_eq!(got, want);
        }
    }
}
