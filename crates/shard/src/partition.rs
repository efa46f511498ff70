//! Domain partitioning: which shard group owns a point, and which shard
//! groups a range query must visit.
//!
//! Two placement policies are offered. **Hash** spreads inserts by a mix
//! of the point's coordinates — balanced whenever coordinates are mostly
//! distinct (points sharing one coordinate share one shard, so a
//! hot-coordinate workload can still skew placement; the id-blind key is
//! the price of routable lookups), and a *point lookup* (a query whose
//! interval is a single coordinate) can recompute the mix and visit
//! exactly one shard. Hashing destroys locality, though, so any wider
//! interval must still visit every shard — and once a rebalance has
//! migrated hash-placed points away from their placement shard, point
//! lookups fall back to full fan-out too (see
//! [`Partitioner::note_hash_migration`]).
//! **Range** slices the first coordinate axis into `S` contiguous slabs —
//! a range query visits only the slabs its first-axis interval overlaps,
//! and the router clips each sub-query to the slab so shard answers are
//! disjoint by construction.
//!
//! The policy decides *placement of new points* and *read fan-out*.
//! Where a live id resides, after any migration, is only in the shards'
//! committed versions: a write finds it by probing their id columns.

use ddrs_rangetree::{Point, Rect};

/// How the id/key domain is divided across shard groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Place by a mix of the point's coordinates. Balanced placement
    /// when coordinates are mostly distinct (duplicate coordinates pile
    /// onto one shard); single-shard fan-out for degenerate (point)
    /// queries — until a rebalance migration breaks the placement
    /// invariant — all-shard fan-out for everything wider.
    Hash,
    /// Place by the first coordinate: shard `i` owns the slab
    /// `[bounds[i-1], bounds[i])` of axis 0 (with implicit `-∞` and
    /// `+∞` end caps). `bounds` must be ascending and have exactly
    /// `shards - 1` entries.
    Range {
        /// Ascending slab boundaries on axis 0, one fewer than shards.
        bounds: Vec<i64>,
    },
}

impl PartitionPolicy {
    /// Evenly spaced range boundaries over `[lo, hi]` for `shards`
    /// groups — a reasonable default when the data distribution is
    /// roughly uniform on axis 0.
    pub fn range_uniform(shards: usize, lo: i64, hi: i64) -> PartitionPolicy {
        assert!(shards >= 1, "need at least one shard");
        assert!(lo <= hi, "range_uniform: lo > hi");
        let span = (hi - lo).max(1) as i128;
        let bounds = (1..shards).map(|i| lo + (span * i as i128 / shards as i128) as i64).collect();
        PartitionPolicy::Range { bounds }
    }

    /// Range boundaries at the axis-0 quantiles of a sample — balanced
    /// initial placement for arbitrary distributions.
    pub fn range_from_sample<const D: usize>(
        shards: usize,
        sample: &[Point<D>],
    ) -> PartitionPolicy {
        assert!(shards >= 1, "need at least one shard");
        let mut xs: Vec<i64> = sample.iter().map(|p| p.coords[0]).collect();
        xs.sort_unstable();
        // `i < shards` keeps the index in range; an empty sample gives 1, 2, …
        let bounds =
            (1..shards).map(|i| xs.get(xs.len() * i / shards).copied().unwrap_or(i as i64));
        let bounds = bounds.collect();
        PartitionPolicy::Range { bounds }
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash-placement key: a splitmix64 chain over all coordinates. Keying
/// by coordinates (not id) is what lets a degenerate query recompute the
/// placement of the only coordinate it can match and route to one shard.
fn mix_coords<const D: usize>(coords: &[i64; D]) -> u64 {
    coords.iter().fold(0u64, |h, &c| mix(h ^ c as u64))
}

/// The router's live view of the partition: the policy plus the mutable
/// range boundaries (rebalance moves them).
#[derive(Debug, Clone)]
pub(crate) enum Partitioner {
    Hash {
        shards: usize,
        /// Whether a rebalance has moved points off their placement
        /// shard ([`Partitioner::note_hash_migration`]).
        moved: bool,
    },
    Range {
        bounds: Vec<i64>,
    },
}

impl Partitioner {
    pub(crate) fn new(policy: PartitionPolicy, shards: usize) -> Self {
        match policy {
            PartitionPolicy::Hash => Partitioner::Hash { shards, moved: false },
            PartitionPolicy::Range { bounds } => {
                assert_eq!(
                    bounds.len(),
                    shards - 1,
                    "range partition needs exactly shards - 1 boundaries"
                );
                assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "range boundaries must ascend");
                Partitioner::Range { bounds }
            }
        }
    }

    /// Placement shard for a new point.
    pub(crate) fn place<const D: usize>(&self, p: &Point<D>) -> usize {
        match self {
            Partitioner::Hash { shards, .. } => (mix_coords(&p.coords) % *shards as u64) as usize,
            Partitioner::Range { bounds } => bounds.partition_point(|b| *b <= p.coords[0]),
        }
    }

    /// The inclusive shard interval a query's extent overlaps (see the
    /// module docs); an empty rect fans out to no shard.
    pub(crate) fn read_fanout<const D: usize>(
        &self,
        q: &Rect<D>,
    ) -> std::ops::RangeInclusive<usize> {
        if q.is_empty() {
            // An intentionally empty fan-out: the router answers the
            // degenerate query locally without touching any shard.
            #[allow(clippy::reversed_empty_ranges)]
            return 1..=0;
        }
        match self {
            Partitioner::Hash { shards, moved } => {
                if q.lo == q.hi && !*moved {
                    let s = (mix_coords(&q.lo) % *shards as u64) as usize;
                    s..=s
                } else {
                    0..=shards - 1
                }
            }
            Partitioner::Range { bounds } => {
                let lo = bounds.partition_point(|b| *b <= q.lo[0]);
                let hi = bounds.partition_point(|b| *b <= q.hi[0]);
                lo..=hi
            }
        }
    }

    /// Clip a query to one shard's slab (range policy splits queries at
    /// shard boundaries; hash placement cannot clip).
    pub(crate) fn clip<const D: usize>(&self, shard: usize, q: &Rect<D>) -> Rect<D> {
        match self {
            Partitioner::Hash { .. } => *q,
            Partitioner::Range { bounds } => {
                let mut c = *q;
                if shard > 0 {
                    c.lo[0] = c.lo[0].max(bounds[shard - 1]);
                }
                if shard < bounds.len() {
                    // Slab upper bounds are exclusive; Rect bounds inclusive.
                    c.hi[0] = c.hi[0].min(bounds[shard].saturating_sub(1));
                }
                c
            }
        }
    }

    /// Move the boundary between `donor` and an adjacent `recipient` to
    /// `b` after a split migration (range policy only).
    pub(crate) fn shift_boundary(&mut self, donor: usize, recipient: usize, b: i64) {
        if let Partitioner::Range { bounds } = self {
            debug_assert!(donor.abs_diff(recipient) == 1, "range split needs adjacent shards");
            bounds[donor.min(recipient)] = b;
        }
    }

    /// Record that a migration has moved hash-placed points off their
    /// placement shard: the mix no longer predicts residency, so point
    /// lookups fan out everywhere from here on. A no-op under the range
    /// policy, whose shifted boundary re-describes residency exactly.
    pub(crate) fn note_hash_migration(&mut self) {
        if let Partitioner::Hash { moved, .. } = self {
            *moved = true;
        }
    }

    /// The current range boundaries, if this is a range partition.
    pub(crate) fn bounds(&self) -> Option<Vec<i64>> {
        match self {
            Partitioner::Hash { .. } => None,
            Partitioner::Range { bounds } => Some(bounds.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_place_and_fanout_respect_boundaries() {
        let part = Partitioner::new(PartitionPolicy::Range { bounds: vec![10, 20] }, 3);
        assert_eq!(part.place(&Point::<2>::new([-5, 0], 1)), 0);
        assert_eq!(part.place(&Point::<2>::new([9, 0], 2)), 0);
        assert_eq!(part.place(&Point::<2>::new([10, 0], 3)), 1);
        assert_eq!(part.place(&Point::<2>::new([19, 0], 4)), 1);
        assert_eq!(part.place(&Point::<2>::new([20, 0], 5)), 2);
        assert_eq!(part.read_fanout(&Rect::<2>::new([0, 0], [9, 9])), 0..=0);
        assert_eq!(part.read_fanout(&Rect::<2>::new([5, 0], [25, 9])), 0..=2);
        assert_eq!(part.read_fanout(&Rect::<2>::new([10, 0], [19, 9])), 1..=1);
        assert!(part.read_fanout(&Rect::<2>::new([5, 0], [4, 9])).is_empty());
    }

    #[test]
    fn range_clip_splits_at_boundaries() {
        let part = Partitioner::new(PartitionPolicy::Range { bounds: vec![10, 20] }, 3);
        let q = Rect::<2>::new([5, 1], [25, 2]);
        assert_eq!(part.clip(0, &q), Rect::new([5, 1], [9, 2]));
        assert_eq!(part.clip(1, &q), Rect::new([10, 1], [19, 2]));
        assert_eq!(part.clip(2, &q), Rect::new([20, 1], [25, 2]));
    }

    #[test]
    fn hash_routes_point_queries_and_spreads_placement() {
        let part = Partitioner::new(PartitionPolicy::Hash, 4);
        // Any interval wider than a point still fans out everywhere…
        assert_eq!(part.read_fanout(&Rect::<2>::new([0, 0], [1, 1])), 0..=3);
        // …but a degenerate query routes to exactly the shard that
        // placement chose for its coordinate.
        let mut counts = [0usize; 4];
        for i in 0..4000i64 {
            let p = Point::<2>::new([i * 193 % 7777, i * 71 % 555], i as u32);
            let home = part.place(&p);
            counts[home] += 1;
            let lookup = part.read_fanout(&Rect::new(p.coords, p.coords));
            assert_eq!(lookup, home..=home, "point lookup must land on the placement shard");
        }
        for c in counts {
            assert!((800..1200).contains(&c), "hash placement badly skewed: {counts:?}");
        }
    }

    #[test]
    fn hash_point_routing_widens_after_a_migration() {
        let mut part = Partitioner::new(PartitionPolicy::Hash, 4);
        let p = Point::<2>::new([42, 7], 1);
        let q = Rect::new(p.coords, p.coords);
        let home = part.place(&p);
        assert_eq!(part.read_fanout(&q), home..=home);
        // A migration breaks the placement invariant: the point may now
        // live anywhere, so even a degenerate query must fan out fully.
        part.note_hash_migration();
        assert_eq!(part.read_fanout(&q), 0..=3, "post-migration lookup must fan out");
        // Placement of new points and empty-rect handling are unchanged.
        assert_eq!(part.place(&p), home);
        assert!(part.read_fanout(&Rect::<2>::new([5, 0], [4, 0])).is_empty());
        // Range policy: the boundary shift is exact, so no fallback.
        let mut range = Partitioner::new(PartitionPolicy::Range { bounds: vec![10] }, 2);
        range.note_hash_migration();
        assert_eq!(range.read_fanout(&Rect::<2>::new([3, 0], [3, 0])), 0..=0);
    }

    #[test]
    fn shift_boundary_moves_the_shared_edge() {
        let mut part = Partitioner::new(PartitionPolicy::Range { bounds: vec![10, 20] }, 3);
        part.shift_boundary(1, 2, 15);
        assert_eq!(part.bounds(), Some(vec![10, 15]));
        part.shift_boundary(1, 0, 7);
        assert_eq!(part.bounds(), Some(vec![7, 15]));
    }

    #[test]
    fn uniform_and_sampled_bounds() {
        assert_eq!(
            PartitionPolicy::range_uniform(4, 0, 100),
            PartitionPolicy::Range { bounds: vec![25, 50, 75] }
        );
        let pts: Vec<Point<2>> = (0..100).map(|i| Point::new([i as i64, 0], i)).collect();
        let PartitionPolicy::Range { bounds } = PartitionPolicy::range_from_sample(4, &pts) else {
            panic!("expected a range policy")
        };
        assert_eq!(bounds, vec![25, 50, 75]);
    }
}
