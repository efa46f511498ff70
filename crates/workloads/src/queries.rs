//! Range-query workload generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ddrs_rangetree::{Point, Rect};

/// Shape of the query mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryDistribution {
    /// Boxes with corners uniform over the data's bounding box, side
    /// lengths chosen for the target selectivity under a uniform data
    /// assumption.
    Selectivity {
        /// Desired fraction of the point set matched per query (0..=1).
        fraction: f64,
    },
    /// All queries concentrated inside one small region of space — every
    /// search path funnels into the same few forest trees, the workload
    /// the paper's congestion-copying mechanism exists for.
    HotSpot {
        /// Fraction of the domain covered by the hot region (per axis).
        region: f64,
        /// Query side as a fraction of the hot region (per axis).
        fraction: f64,
    },
    /// Degenerate boxes probing single coordinates (point queries).
    PointProbe,
    /// Half-open slabs: full range in every dimension except one, which
    /// gets a thin band. Exercises high-fanout hat splits.
    Slab {
        /// Dimension that is constrained.
        dim: usize,
        /// Band width as a fraction of that dimension's extent.
        fraction: f64,
    },
}

/// Query mode of one entry in a mixed-mode workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Range counting.
    Count,
    /// Associative-function (semigroup) aggregation.
    Aggregate,
    /// Report (enumerate matching ids).
    Report,
}

/// One query of a mixed-mode batch: a box plus the mode it should be
/// served in. Produced by [`QueryWorkload::mixed`] and consumed by the
/// engine's `QueryBatch` (or the per-mode APIs, for comparison runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedQuery<const D: usize> {
    /// The query mode.
    pub mode: QueryMode,
    /// The query box.
    pub rect: Rect<D>,
}

/// Seeded query-workload generator over a concrete point set's bounding
/// box.
#[derive(Debug, Clone)]
pub struct QueryWorkload<const D: usize> {
    lo: [i64; D],
    hi: [i64; D],
    seed: u64,
}

impl<const D: usize> QueryWorkload<D> {
    /// Derive the generator domain from the point set's bounding box.
    pub fn from_points(pts: &[Point<D>], seed: u64) -> Self {
        assert!(!pts.is_empty());
        let mut lo = [i64::MAX; D];
        let mut hi = [i64::MIN; D];
        for p in pts {
            for j in 0..D {
                lo[j] = lo[j].min(p.coords[j]);
                hi[j] = hi[j].max(p.coords[j]);
            }
        }
        QueryWorkload { lo, hi, seed }
    }

    /// Generate `count` queries of the given distribution.
    pub fn queries(&self, dist: QueryDistribution, count: usize) -> Vec<Rect<D>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let extent = |j: usize| (self.hi[j] - self.lo[j] + 1).max(1);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let q = match dist {
                QueryDistribution::Selectivity { fraction } => {
                    let side_frac = fraction.clamp(0.0, 1.0).powf(1.0 / D as f64);
                    let mut lo = [0i64; D];
                    let mut hi = [0i64; D];
                    for j in 0..D {
                        let w = ((extent(j) as f64) * side_frac).ceil() as i64;
                        let start = self.lo[j] + rng.random_range(0..(extent(j) - w + 1).max(1));
                        lo[j] = start;
                        hi[j] = start + w - 1;
                    }
                    Rect::new(lo, hi)
                }
                QueryDistribution::HotSpot { region, fraction } => {
                    let mut lo = [0i64; D];
                    let mut hi = [0i64; D];
                    for j in 0..D {
                        let reg = ((extent(j) as f64) * region.clamp(0.0, 1.0)).ceil() as i64;
                        let w = ((reg as f64) * fraction.clamp(0.0, 1.0)).ceil().max(1.0) as i64;
                        let start = self.lo[j] + rng.random_range(0..(reg - w + 1).max(1));
                        lo[j] = start;
                        hi[j] = start + w - 1;
                    }
                    Rect::new(lo, hi)
                }
                QueryDistribution::PointProbe => {
                    let mut c = [0i64; D];
                    for (j, x) in c.iter_mut().enumerate() {
                        *x = self.lo[j] + rng.random_range(0..extent(j));
                    }
                    Rect::new(c, c)
                }
                QueryDistribution::Slab { dim, fraction } => {
                    let mut lo = self.lo;
                    let mut hi = self.hi;
                    let j = dim % D;
                    let w = ((extent(j) as f64) * fraction.clamp(0.0, 1.0)).ceil().max(1.0) as i64;
                    let start = self.lo[j] + rng.random_range(0..(extent(j) - w + 1).max(1));
                    lo[j] = start;
                    hi[j] = start + w - 1;
                    Rect::new(lo, hi)
                }
            };
            out.push(q);
        }
        out
    }

    /// Generate a mixed-mode batch: `count` queries of the given spatial
    /// distribution, with modes drawn by the (relative, not necessarily
    /// normalised) weights `(count, aggregate, report)`. Deterministic in
    /// the workload seed; at least one weight must be non-zero.
    pub fn mixed(
        &self,
        dist: QueryDistribution,
        weights: (u32, u32, u32),
        count: usize,
    ) -> Vec<MixedQuery<D>> {
        let (wc, wa, wr) = weights;
        let total = wc + wa + wr;
        assert!(total > 0, "mixed workload needs at least one non-zero mode weight");
        // Modes come from a derived stream so the boxes are identical to
        // the plain `queries(dist, count)` batch — per-mode comparison
        // runs see the same spatial workload.
        let mut mode_rng = StdRng::seed_from_u64(self.seed ^ 0x6d69_7865_645f_6d6f);
        self.queries(dist, count)
            .into_iter()
            .map(|rect| {
                let roll = mode_rng.random_range(0..total);
                let mode = if roll < wc {
                    QueryMode::Count
                } else if roll < wc + wa {
                    QueryMode::Aggregate
                } else {
                    QueryMode::Report
                };
                MixedQuery { mode, rect }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::{PointDistribution, WorkloadBuilder};

    fn setup() -> (Vec<Point<2>>, QueryWorkload<2>) {
        let pts = WorkloadBuilder::new(11, 2000)
            .points::<2>(PointDistribution::UniformCube { side: 1 << 16 });
        let w = QueryWorkload::from_points(&pts, 42);
        (pts, w)
    }

    #[test]
    fn selectivity_calibration_is_approximate() {
        let (pts, w) = setup();
        for target in [0.01, 0.1, 0.4] {
            let qs = w.queries(QueryDistribution::Selectivity { fraction: target }, 50);
            let mean: f64 =
                qs.iter().map(|q| pts.iter().filter(|p| q.contains(p)).count() as f64).sum::<f64>()
                    / (qs.len() as f64 * pts.len() as f64);
            assert!(mean > target / 4.0 && mean < target * 4.0, "target {target}, measured {mean}");
        }
    }

    #[test]
    fn hotspot_queries_stay_in_region() {
        let (_, w) = setup();
        let qs = w.queries(QueryDistribution::HotSpot { region: 0.1, fraction: 0.5 }, 100);
        for q in &qs {
            for j in 0..2 {
                let extent = w.hi[j] - w.lo[j] + 1;
                assert!(q.hi[j] <= w.lo[j] + extent / 5, "query escapes hot region: {q:?}");
            }
        }
    }

    #[test]
    fn point_probes_are_degenerate() {
        let (_, w) = setup();
        for q in w.queries(QueryDistribution::PointProbe, 20) {
            assert_eq!(q.lo, q.hi);
        }
    }

    #[test]
    fn slab_constrains_one_dimension() {
        let (_, w) = setup();
        for q in w.queries(QueryDistribution::Slab { dim: 1, fraction: 0.05 }, 20) {
            assert_eq!(q.lo[0], w.lo[0]);
            assert_eq!(q.hi[0], w.hi[0]);
            assert!(q.hi[1] - q.lo[1] < (w.hi[1] - w.lo[1]) / 10);
        }
    }

    #[test]
    fn mixed_batches_are_deterministic_and_weighted() {
        let (_, w) = setup();
        let dist = QueryDistribution::Selectivity { fraction: 0.05 };
        let a = w.mixed(dist, (2, 1, 1), 400);
        let b = w.mixed(dist, (2, 1, 1), 400);
        assert_eq!(a, b, "same seed, same batch");
        // The boxes match the plain batch (modes only re-tag them).
        let plain = w.queries(dist, 400);
        assert!(a.iter().zip(&plain).all(|(m, q)| m.rect == *q));
        let n_count = a.iter().filter(|m| m.mode == QueryMode::Count).count();
        let n_agg = a.iter().filter(|m| m.mode == QueryMode::Aggregate).count();
        let n_rep = a.iter().filter(|m| m.mode == QueryMode::Report).count();
        assert_eq!(n_count + n_agg + n_rep, 400);
        // Weight 2:1:1 → roughly half the queries are counts.
        assert!(n_count > 120 && n_count < 280, "counts: {n_count}");
        assert!(n_agg > 40 && n_rep > 40, "agg: {n_agg}, rep: {n_rep}");
    }

    #[test]
    fn deterministic_by_seed() {
        let (pts, _) = setup();
        let a = QueryWorkload::from_points(&pts, 5)
            .queries(QueryDistribution::Selectivity { fraction: 0.1 }, 10);
        let b = QueryWorkload::from_points(&pts, 5)
            .queries(QueryDistribution::Selectivity { fraction: 0.1 }, 10);
        assert_eq!(a, b);
    }
}
