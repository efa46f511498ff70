//! Commutative semigroups for the associative-function query mode.
//!
//! The paper's associative-function mode computes `⊗_{l ∈ R(q)} f(l)` where
//! `f(l)` lies in a commutative semigroup with operation `⊗`. A semigroup
//! has no identity element, so the result of a query matching no points is
//! `None` at the API level.

use ddrs_cgm::Payload;

/// A commutative semigroup over values lifted from points.
///
/// `lift` maps a point (its id and weight) to a semigroup value; `comb` is
/// the associative, commutative operation `⊗`.
///
/// A semigroup's behaviour is a function of its type: any two values of
/// one type lift and combine alike, as a unit struct does. A
/// [`DistRangeTree`](crate::DistRangeTree) keeps the hat values its first
/// aggregate batch of a type fills and answers every later batch of that
/// type from them.
pub trait Semigroup: Copy + Send + Sync + 'static {
    /// Semigroup element type.
    type Val: Payload + Clone + Send + Sync + std::fmt::Debug + PartialEq;

    /// `f(l)` — the value contributed by one point.
    fn lift(&self, id: u32, weight: u64) -> Self::Val;

    /// The semigroup operation `⊗`.
    fn comb(&self, a: Self::Val, b: Self::Val) -> Self::Val;
}

/// Counting: `f(l) = 1`, `⊗ = +`. Range counting is the canonical
/// associative-function instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Count;

impl Semigroup for Count {
    type Val = u64;
    fn lift(&self, _id: u32, _weight: u64) -> u64 {
        1
    }
    fn comb(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Weighted sum: `f(l) = weight(l)`, `⊗ = +`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum;

impl Semigroup for Sum {
    type Val = u64;
    fn lift(&self, _id: u32, weight: u64) -> u64 {
        weight
    }
    fn comb(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Maximum weight: `⊗ = max`. An example of a semigroup *without* inverses
/// (the paper notes that functions with inverses admit the simpler
/// weighted-dominance-counting solution; `max` does not).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxWeight;

impl Semigroup for MaxWeight {
    type Val = u64;
    fn lift(&self, _id: u32, weight: u64) -> u64 {
        weight
    }
    fn comb(&self, a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

/// Minimum id: yields an arbitrary-but-deterministic witness point for
/// non-empty results.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinId;

impl Semigroup for MinId {
    type Val = u32;
    fn lift(&self, id: u32, _weight: u64) -> u32 {
        id
    }
    fn comb(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
}

/// Fold a semigroup over an iterator of `(id, weight)` pairs.
pub fn fold_points<S: Semigroup>(
    sg: &S,
    it: impl IntoIterator<Item = (u32, u64)>,
) -> Option<S::Val> {
    it.into_iter().fold(None, |acc, (id, w)| {
        let v = sg.lift(id, w);
        Some(match acc {
            Some(a) => sg.comb(a, v),
            None => v,
        })
    })
}

/// Combine two optional semigroup values.
pub fn comb_opt<S: Semigroup>(sg: &S, a: Option<S::Val>, b: Option<S::Val>) -> Option<S::Val> {
    match (a, b) {
        (Some(a), Some(b)) => Some(sg.comb(a, b)),
        (Some(a), None) => Some(a),
        (None, b) => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_sum() {
        let pts = [(1u32, 10u64), (2, 20), (3, 30)];
        assert_eq!(fold_points(&Count, pts), Some(3));
        assert_eq!(fold_points(&Sum, pts), Some(60));
        assert_eq!(fold_points(&MaxWeight, pts), Some(30));
        assert_eq!(fold_points(&MinId, pts), Some(1));
    }

    #[test]
    fn empty_fold_is_none() {
        assert_eq!(fold_points(&Count, std::iter::empty()), None);
    }

    #[test]
    fn comb_opt_handles_missing_sides() {
        assert_eq!(comb_opt(&Sum, Some(3), Some(4)), Some(7));
        assert_eq!(comb_opt(&Sum, Some(3), None), Some(3));
        assert_eq!(comb_opt(&Sum, None, Some(4)), Some(4));
        assert_eq!(comb_opt::<Sum>(&Sum, None, None), None);
    }
}
