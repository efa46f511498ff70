//! The analytic BSP/CGM cost model, for predicted-vs-measured checks.
//!
//! The paper's corollaries are formulas: an algorithm is optimal when its
//! running time is `T_seq / p + O(1)` h-relations of size `h = O(s/p)`.
//! This module states those formulas as code so the experiment harness
//! (and the model tests) can compare *predicted* superstep counts and
//! volumes against the [`RunStats`](crate::RunStats) measured on real
//! executions — the CGM equivalent of validating a performance model.

/// Machine/problem parameters a prediction is made for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Number of processors (power of two).
    pub p: usize,
    /// Padded input size (power of two).
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
}

impl CostParams {
    /// `log2 p`.
    pub fn log_p(&self) -> u32 {
        self.p.ilog2()
    }

    /// `log2 n`.
    pub fn log_n(&self) -> u32 {
        self.n.max(2).ilog2()
    }

    /// The structure size measure `s = n log^(d-1) n` (in points).
    pub fn s(&self) -> f64 {
        (self.n as f64) * (self.log_n() as f64).powi(self.d as i32 - 1)
    }
}

/// Predicted communication for one algorithm: supersteps and the largest
/// per-superstep volume any processor handles (in records, not words —
/// multiply by the record size for wire words).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Exact number of communication rounds (supersteps).
    pub supersteps: usize,
    /// Upper bound on the records any processor sends/receives in one
    /// round.
    pub max_volume: f64,
}

/// Algorithm Construct: `d` phases, each sorting `|S^j| = n·log^j p`
/// records (one sample all-gather + one bucket exchange), dealing groups
/// (one route), scanning (one all-gather) and broadcasting summaries (one
/// all-gather) — 5 rounds per phase on p > 1 machines.
pub fn predict_construct(c: &CostParams) -> Prediction {
    let rounds_per_phase = 5;
    // The largest phase sorts n·log^(d-1) p records; each processor's
    // bucket share is 1/p of it (sample sort regularity).
    let largest_phase = (c.n as f64) * (c.log_p() as f64).powi(c.d as i32 - 1).max(1.0);
    Prediction { supersteps: rounds_per_phase * c.d, max_volume: 2.0 * largest_phase / c.p as f64 }
}

/// Algorithm Search for a batch of `m` queries with `f` fixed at
/// construction, as in the paper (this repo's counting mode): three
/// balancing rounds, two sort rounds for the `(q, f)` pairs and two
/// segmented-fold rounds. `aggregate_batch`, which takes its semigroup
/// per batch, is `predict_search + 1` on a tree's first batch of that
/// semigroup type (one value-fill all-gather first) and `predict_search`
/// after, since the tree keeps the values. A fused mixed batch is 10
/// supersteps on a level's first aggregate batch, 9 after.
pub fn predict_search(c: &CostParams, m_queries: usize) -> Prediction {
    // Queries can split into O(log p) subqueries per dimension while in
    // the hat; each routed visit carries one record.
    let visits = (m_queries as f64) * (c.log_p() as f64).max(1.0).powi(c.d as i32);
    Prediction { supersteps: 7, max_volume: 2.0 * visits / c.p as f64 }
}

/// Algorithm Report: the search rounds minus the pair-sort, plus the
/// weighted output routing; `k` output pairs land `⌈k/p⌉` per processor.
pub fn predict_report(c: &CostParams, m_queries: usize, k: u64) -> Prediction {
    let search = predict_search(c, m_queries);
    Prediction { supersteps: 5, max_volume: search.max_volume + (k as f64 / c.p as f64).ceil() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_derivations() {
        let c = CostParams { p: 8, n: 1024, d: 3 };
        assert_eq!(c.log_p(), 3);
        assert_eq!(c.log_n(), 10);
        assert_eq!(c.s(), 1024.0 * 100.0);
    }

    #[test]
    fn construct_prediction_shape() {
        let base = CostParams { p: 8, n: 1 << 14, d: 2 };
        let pr = predict_construct(&base);
        assert_eq!(pr.supersteps, 10);
        // Doubling p with fixed n raises the record volume (log p) but
        // divides the share: volume must not grow linearly in p.
        let big_p = CostParams { p: 16, ..base };
        let pr16 = predict_construct(&big_p);
        assert!(pr16.max_volume < pr.max_volume);
        // Supersteps depend only on d.
        assert_eq!(pr16.supersteps, pr.supersteps);
        assert_eq!(predict_construct(&CostParams { d: 3, ..base }).supersteps, 15);
    }

    #[test]
    fn search_and_report_predictions() {
        let c = CostParams { p: 8, n: 1 << 14, d: 2 };
        let s = predict_search(&c, 8192);
        assert_eq!(s.supersteps, 7);
        let r = predict_report(&c, 8192, 80_000);
        assert_eq!(r.supersteps, 5);
        assert!(r.max_volume > s.max_volume);
        assert!(r.max_volume >= 10_000.0);
    }
}
