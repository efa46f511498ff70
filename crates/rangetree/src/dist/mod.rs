//! The distributed range tree of the paper: hat/forest decomposition on
//! a `CGM(s, p)` machine, batched multisearch query modes, and the
//! logarithmic-method dynamization.
//!
//! * [`hat`] — the replicated hat (top `log p` levels of every segment
//!   tree), its trees numbered densely in the order of the paper's path
//!   labels;
//! * [`construct`] — Algorithm Construct: `5d` supersteps building the
//!   hat replica and the round-robin-dealt forest of `n/p`-point
//!   subtrees;
//! * [`search`] — the stages of Algorithm Search: the 4-case hat
//!   multisearch, the one congestion-copy balancing step and the target
//!   lookup of the forest finishes;
//! * [`fused`] — Algorithm Search itself, the crate's one SPMD query
//!   program: every mode, every level, one run per batch;
//! * [`DistRangeTree`] — the host-side handle tying it together; its
//!   [`count_batch`](DistRangeTree::count_batch),
//!   [`aggregate_batch`](DistRangeTree::aggregate_batch) (the
//!   associative-function mode) and
//!   [`report_batch`](DistRangeTree::report_batch) /
//!   [`report_batch_raw`](DistRangeTree::report_batch_raw) (report mode
//!   with `⌈k/p⌉`-balanced output) are the single-mode, single-level
//!   shapes of that program;
//! * [`DynamicDistRangeTree`] — Section 5's future-work extension: the
//!   logarithmic method (Bentley–Saxe) over static distributed trees.

pub mod construct;
pub mod dynamic;
pub mod fused;
pub mod hat;
pub mod search;

use std::any::{Any, TypeId};
use std::sync::{Arc, Mutex, PoisonError};

use ddrs_cgm::{unwrap_run, Machine};

pub use construct::{construct as construct_spmd, ForestEntry, ProcState};
pub use dynamic::DynamicDistRangeTree;
pub use fused::{fused_query_batch, try_fused_query_batch, FusedOutputs};

use crate::point::{Point, RPoint, Rect, PAD_ID};
use crate::rank::{RankError, RankSpace};
use crate::semigroup::{Count, Semigroup};

/// Errors from distributed range-tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The input point set is empty (the paper's structure is defined
    /// over a non-empty normalized point set).
    Empty,
    /// Two input points share a record id.
    DuplicateId(u32),
    /// A point uses the id reserved for sentinel pads.
    ReservedId,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Empty => write!(f, "cannot build over an empty point set"),
            BuildError::DuplicateId(id) => write!(f, "duplicate point id {id}"),
            BuildError::ReservedId => write!(f, "point id {PAD_ID} is reserved for pads"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<RankError> for BuildError {
    fn from(e: RankError) -> Self {
        match e {
            RankError::Empty => BuildError::Empty,
            RankError::DuplicateId(id) => BuildError::DuplicateId(id),
            RankError::ReservedId => BuildError::ReservedId,
        }
    }
}

/// Structural measurements of a built distributed tree (Theorem 1's
/// quantities).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureReport {
    /// Nodes in the replicated hat (counted once, not per replica).
    pub hat_nodes: u64,
    /// Per-processor forest-shard sizes in tree nodes.
    pub forest_nodes: Vec<u64>,
    /// Per-processor owned forest-tree counts.
    pub forest_trees: Vec<usize>,
    /// Total structure size `s`: hat plus all forest shards.
    pub total_nodes: u64,
    /// Number of real (non-pad) input points `n`.
    pub real_points: u64,
}

/// The paper's distributed `d`-dimensional range tree on a simulated
/// `CGM(s, p)` machine.
///
/// The handle owns one [`ProcState`] per simulated processor (each
/// holding the identical hat replica plus its own forest shard) and the
/// host-side rank space used to translate queries; every query method
/// launches one SPMD program on the machine it is given, which must have
/// the same `p` the tree was built with.
pub struct DistRangeTree<const D: usize> {
    ranks: RankSpace<D>,
    states: Vec<ProcState<D>>,
    /// The final-dimension hat values of each semigroup type an aggregate
    /// batch has asked for, filled by that type's first batch.
    hat_values: Mutex<Vec<(TypeId, Arc<dyn Any + Send + Sync>)>>,
}

/// Algorithm AssociativeFunction's step 1 for the hat: `f(v)` of every
/// node of every final-dimension hat tree, by hat index (empty for the
/// trees of other dimensions). Identical on every processor.
pub(crate) type HatValues<V> = Vec<Vec<Option<V>>>;

impl<const D: usize> DistRangeTree<D> {
    /// Algorithm Construct: build the distributed tree over `pts`.
    ///
    /// The input is normalized to rank space and padded to a power of two
    /// divisible by `p`, each processor is dealt an `m/p`-point share,
    /// and the SPMD construction runs in `5d` supersteps.
    pub fn build(machine: &Machine, pts: &[Point<D>]) -> Result<Self, BuildError> {
        Ok(Self::construct(machine, RankSpace::normalize(pts, machine.p())?))
    }

    /// [`build`](Self::build) over points the caller has already checked:
    /// at least one, no pad id, no id twice.
    pub(super) fn build_distinct(machine: &Machine, pts: &[Point<D>]) -> Self {
        Self::construct(machine, RankSpace::normalize_distinct(pts, machine.p()))
    }

    /// Deal each processor its share (a run in dimension-0 order, its own
    /// `Vec`: rank 0's is `rpts`, cut down to it) and run Algorithm Construct.
    fn construct(machine: &Machine, (ranks, mut rpts): (RankSpace<D>, Vec<RPoint<D>>)) -> Self {
        let (m, p) = (ranks.m(), machine.p());
        let mut shares: Vec<_> = (1..p).rev().map(|r| rpts.split_off(r * m / p)).collect();
        rpts.shrink_to_fit();
        shares.push(rpts);
        let shares: Vec<_> = shares.into_iter().rev().map(Mutex::new).collect();
        let states = machine.run(|ctx| {
            let share = std::mem::take(&mut *shares[ctx.rank()].lock().expect("never poisoned"));
            construct::construct(ctx, share, m)
        });
        DistRangeTree { ranks, states, hat_values: Mutex::default() }
    }

    /// The hat values an earlier batch filled for semigroup type `S`.
    pub(crate) fn hat_values<S: Semigroup>(&self) -> Option<Arc<HatValues<S::Val>>> {
        let kept = self.hat_values.lock().unwrap_or_else(PoisonError::into_inner);
        let (_, vals) = kept.iter().find(|(ty, _)| *ty == TypeId::of::<S>())?;
        Arc::clone(vals).downcast().ok()
    }

    /// Keep the hat values a successful batch filled for semigroup type
    /// `S`, for every later batch of that type.
    pub(crate) fn keep_hat_values<S: Semigroup>(&self, vals: HatValues<S::Val>) {
        let mut kept = self.hat_values.lock().unwrap_or_else(PoisonError::into_inner);
        if kept.iter().all(|(ty, _)| *ty != TypeId::of::<S>()) {
            kept.push((TypeId::of::<S>(), Arc::new(vals)));
        }
    }

    fn assert_machine(&self, machine: &Machine) {
        assert_eq!(machine.p(), self.p(), "query machine size differs from the build machine");
    }

    /// Batched counting: the number of points in each query box; a query
    /// matching nothing counts 0.
    ///
    /// Seven supersteps: the associative-function mode with `f` fixed at
    /// construction, as in the paper — the hat's replicated `cnt` arrays
    /// already hold every `Count` fold, so there is no value-fill round.
    pub fn count_batch(&self, machine: &Machine, queries: &[Rect<D>]) -> Vec<u64> {
        fused_query_batch(machine, &[self], Count, queries, &[], &[]).counts
    }

    /// Batched associative-function mode (Algorithm AssociativeFunction):
    /// `⊗` of `f(l)` over the points matching each query, `None` when a
    /// query matches nothing.
    ///
    /// Eight supersteps regardless of `n`, `p` and the batch on the first
    /// batch of a semigroup type: one value-fill all-gather (forest-root
    /// values → replicated hat aggregates; the price of choosing the
    /// semigroup per batch instead of at construction), three balancing
    /// rounds, a two-round sort of the `(query, value)` partials and a
    /// two-round segmented fold. The tree keeps the filled values, so
    /// every later batch of that type costs seven. An empty batch pays no
    /// machine dispatch.
    pub fn aggregate_batch<S: Semigroup>(
        &self,
        machine: &Machine,
        sg: S,
        queries: &[Rect<D>],
    ) -> Vec<Option<S::Val>> {
        fused_query_batch(machine, &[self], sg, &[], queries, &[]).aggregates
    }

    /// Batched report mode, returning the *per-processor output shares*:
    /// `(query id, point id)` pairs, exactly `⌈k/p⌉`-balanced across
    /// processors (Theorem 4's `O(k/p)` output term).
    ///
    /// Five supersteps: three balancing rounds plus the two-round
    /// order-preserving redistribution of the output pairs. An empty
    /// batch is `p` empty shares and no machine dispatch.
    pub fn report_batch_raw(&self, machine: &Machine, queries: &[Rect<D>]) -> Vec<Vec<(u32, u32)>> {
        // Report-only: the semigroup is never consulted.
        let per_rank = fused::search_program(machine, &[self], Count, &[], &[], queries);
        unwrap_run(per_rank).into_iter().map(|(_, share)| share).collect()
    }

    /// Batched report mode, assembled per query: the ids of the matching
    /// points, ascending.
    pub fn report_batch(&self, machine: &Machine, queries: &[Rect<D>]) -> Vec<Vec<u32>> {
        fused_query_batch(machine, &[self], Count, &[], &[], queries).reports
    }

    /// Theorem 1's structural measurements.
    pub fn structure_report(&self) -> StructureReport {
        let hat_nodes: u64 = self.states[0].hat.iter().map(|t| 2 * t.nleaves as u64 - 1).sum();
        let forest_nodes: Vec<u64> = self
            .states
            .iter()
            .map(|s| s.forest.iter().map(|e| e.tree.size_nodes()).sum())
            .collect();
        let forest_trees: Vec<usize> = self.states.iter().map(|s| s.forest.len()).collect();
        let total_nodes = hat_nodes + forest_nodes.iter().sum::<u64>();
        let real_points = self.ranks.n() as u64;
        StructureReport { hat_nodes, forest_nodes, forest_trees, total_nodes, real_points }
    }

    /// Global record volumes `|S^j|` of the construction phases (the
    /// Section 5 caveat: phase `j` sorts `n·log^j p` records, not `n`).
    pub fn phase_records(&self) -> Vec<u64> {
        self.states[0].phase_records.clone()
    }

    /// Per-processor states (structural access for experiments).
    pub fn states(&self) -> &[ProcState<D>] {
        &self.states
    }

    /// The rank space used for query translation.
    pub fn ranks(&self) -> &RankSpace<D> {
        &self.ranks
    }

    /// Processor count the tree was built for.
    pub fn p(&self) -> usize {
        self.states.len()
    }
}

impl<const D: usize> std::fmt::Debug for DistRangeTree<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let forest: usize = self.states.iter().map(|s| s.forest.len()).sum();
        f.debug_struct("DistRangeTree")
            .field("d", &D)
            .field("n", &self.ranks.n())
            .field("m", &self.ranks.m())
            .field("p", &self.states.len())
            .field("hat_trees", &self.states[0].hat.len())
            .field("forest_trees", &forest)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrs_cgm::log2_exact;

    fn diagonal(n: u32) -> Vec<Point<2>> {
        (0..n).map(|i| Point::new([i as i64, (n - i) as i64], i)).collect()
    }

    /// The hat of the primary tree has exactly `log2 p` levels: `p` group
    /// leaves under a `log p`-deep heap.
    #[test]
    fn hat_depth_is_log_p() {
        for p in [1usize, 2, 4, 8] {
            let machine = Machine::new(p).unwrap();
            let tree = DistRangeTree::<2>::build(&machine, &diagonal(257)).unwrap();
            let primary = &tree.states()[0].hat[0];
            assert_eq!(primary.nleaves as usize, p, "p={p}");
            assert_eq!(
                log2_exact(primary.nleaves as usize),
                log2_exact(p),
                "hat depth must be log2(p) for p={p}"
            );
        }
    }

    /// Every forest subtree spans exactly `g = m/p` leaves — the `O(n/p)`
    /// group size of Theorem 1.
    #[test]
    fn forest_trees_span_exactly_g() {
        let p = 8;
        let machine = Machine::new(p).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &diagonal(300)).unwrap();
        let g = tree.states()[0].g;
        assert_eq!(g, tree.ranks().m() / p);
        for state in tree.states() {
            for entry in state.forest.iter() {
                assert_eq!(entry.tree.leaves.len(), g);
            }
        }
    }

    /// StructureReport totals: `real_points = n`, the phase-0 forest
    /// partitions the input, and `total = hat + Σ shards`.
    #[test]
    fn structure_report_totals_match_n() {
        let n = 443u32;
        let machine = Machine::new(4).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &diagonal(n)).unwrap();
        let rep = tree.structure_report();
        assert_eq!(rep.real_points, n as u64);
        assert_eq!(rep.total_nodes, rep.hat_nodes + rep.forest_nodes.iter().sum::<u64>());
        assert_eq!(rep.forest_trees.len(), 4);
        assert_eq!(rep.forest_nodes.len(), 4);
        // Real points across phase-0 forest trees partition the input.
        let phase0_real: u64 = tree
            .states()
            .iter()
            .flat_map(|s| s.forest.iter())
            .filter(|e| e.start_dim == 0)
            .map(|e| e.tree.r as u64)
            .sum();
        assert_eq!(phase0_real, n as u64);
    }

    /// Hat node counts at the final dimension agree with brute force —
    /// the replicated aggregates the counting mode reads.
    #[test]
    fn hat_counts_sum_to_n() {
        let n = 200u32;
        let machine = Machine::new(4).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &diagonal(n)).unwrap();
        let primary = &tree.states()[0].hat[0];
        assert_eq!(primary.cnt[1] as u64, n as u64);
    }

    #[test]
    fn build_error_paths() {
        let machine = Machine::new(4).unwrap();
        assert!(matches!(DistRangeTree::<2>::build(&machine, &[]), Err(BuildError::Empty)));
        let mut pts = diagonal(4);
        pts[3].id = 0;
        assert!(matches!(
            DistRangeTree::<2>::build(&machine, &pts),
            Err(BuildError::DuplicateId(0))
        ));
        let mut pts = diagonal(2);
        pts[1].id = crate::point::PAD_ID;
        assert!(matches!(DistRangeTree::<2>::build(&machine, &pts), Err(BuildError::ReservedId)));
        // Error text is stable enough to match on.
        assert!(BuildError::Empty.to_string().contains("empty"));
    }

    /// Degenerate (point) rectangles and inverted rectangles behave.
    #[test]
    fn degenerate_queries() {
        let machine = Machine::new(4).unwrap();
        let pts = diagonal(64);
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        let point_q = Rect::new([5, 59], [5, 59]); // exactly point 5
        let inverted = Rect::new([9, 9], [3, 3]);
        let counts = tree.count_batch(&machine, &[point_q, inverted]);
        assert_eq!(counts, vec![1, 0]);
        let reports = tree.report_batch(&machine, &[point_q, inverted]);
        assert_eq!(reports[0], vec![5]);
        assert!(reports[1].is_empty());
    }

    /// The model's sizes do not depend on the host's layout: forest
    /// transfer words and Theorem 1's node counts for four fixed inputs,
    /// recorded before the forest became arrays (PR 15).
    #[test]
    fn model_sizes_are_the_papers_whatever_the_layout() {
        fn pts<const D: usize>(n: u32) -> Vec<Point<D>> {
            let mul = [7919, 104_729, 1_299_709];
            (0..n)
                .map(|i| Point::new(std::array::from_fn(|j| (i as i64 * mul[j]) % 1009), i))
                .collect()
        }
        /// Per rank: the forest shard's `payload_words` and `size_nodes`.
        fn sizes<const D: usize>(p: usize, n: u32) -> (Vec<u64>, StructureReport) {
            let machine = Machine::new(p).unwrap();
            let tree = DistRangeTree::<D>::build(&machine, &pts::<D>(n)).unwrap();
            let words = tree
                .states()
                .iter()
                .map(|s| s.forest.iter().map(|e| e.tree.payload_words()).sum())
                .collect();
            (words, tree.structure_report())
        }
        let report = |hat_nodes, forest_nodes: &[u64], trees, real_points| StructureReport {
            hat_nodes,
            forest_nodes: forest_nodes.to_vec(),
            forest_trees: vec![trees; forest_nodes.len()],
            total_nodes: hat_nodes + forest_nodes.iter().sum::<u64>(),
            real_points,
        };
        assert_eq!(sizes::<1>(1, 100), (vec![258], report(1, &[255], 1, 100)));
        // 260 points in groups of 128: the third group is 4 points and
        // 124 pads, the fourth all pads.
        assert_eq!(
            sizes::<2>(4, 260),
            (vec![4100, 4100, 1942, 1158], report(20, &[2430, 2430, 1269, 765], 3, 260))
        );
        assert_eq!(
            sizes::<3>(4, 200),
            (vec![9672, 9672, 9672, 3424], report(39, &[5244, 5244, 5244, 2096], 6, 200))
        );
        assert_eq!(sizes::<2>(1, 300), (vec![11912], report(1, &[7232], 1, 300)));
    }

    /// Both builds' hat, forest (slabs, key columns, block arrays and
    /// which processor owns which `fid`) and phase volumes, side by side.
    fn same_structure<const D: usize>(p: usize, coords: &[(i64, i64, i64)], shuffle: &[u64]) {
        let pts: Vec<Point<D>> = coords
            .iter()
            .zip(0u32..)
            .map(|(c, i)| {
                Point::weighted([c.0, c.1, c.2][..D].try_into().unwrap(), 7 * i + 3, i as u64 % 5)
            })
            .collect();
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_by_key(|&i| shuffle[i]);
        let shuffled: Vec<Point<D>> = order.iter().map(|&i| pts[i]).collect();
        let machine = Machine::new(p).unwrap();
        let straight = DistRangeTree::build(&machine, &pts).unwrap();
        let mixed = DistRangeTree::build(&machine, &shuffled).unwrap();
        assert_eq!(straight.phase_records(), mixed.phase_records(), "p = {p}, d = {D}");
        for (a, b) in straight.states().iter().zip(mixed.states()) {
            assert_eq!(a.hat, b.hat);
            assert_eq!(a.forest, b.forest, "p = {p}, d = {D}");
            assert_eq!(a.phase_records, b.phase_records);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A build does not depend on the order its input comes in: few
        /// enough points that most sizes pad, coordinates on a small grid
        /// so that ties fall to the ids.
        #[test]
        fn a_build_does_not_depend_on_input_order(
            coords in proptest::collection::vec((0i64..12, 0i64..12, 0i64..12), 1..90),
            shuffle in proptest::collection::vec(0u64..u64::MAX, 90..91),
        ) {
            for p in [1, 2, 4] {
                same_structure::<1>(p, &coords, &shuffle);
                same_structure::<2>(p, &coords, &shuffle);
                same_structure::<3>(p, &coords, &shuffle);
            }
        }
    }
}
