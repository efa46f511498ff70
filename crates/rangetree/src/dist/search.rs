//! Algorithm Search: batched multisearch through the hat, congestion
//! balancing, and the forest finishes.
//!
//! Queries are dealt round-robin (`owner(q) = qid mod p`). Each
//! processor advances its queries through the (local) hat replica with
//! the paper's 4-case search:
//!
//! 1. node interval ⊆ query, `j < d` → proceed to the descendant hat
//!    tree;
//! 2. node interval ⊆ query, `j = d` → select the node (its answer is a
//!    replicated aggregate — no forest visit needed);
//! 3. intervals overlap → split the query to both hat children;
//! 4. intervals disjoint → delete the query.
//!
//! Whenever the walk reaches a *group leaf* (cases 1–3 at the bottom of
//! a hat tree) the query must continue inside that group's forest
//! subtree: the walk emits a **visit** `(fid, subquery)`. Visits are
//! then evened out by [`balance_visits`] — the multisearch balancing of
//! Atallah et al. that the paper cites: congested forest trees are
//! *copied* `c_j = ⌈|QF_j| / (|Q|/p)⌉` times and each visit is routed to
//! a processor holding a copy, so every processor finishes an `O(|Q|/p)`
//! share of forest searches regardless of skew.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ddrs_cgm::Ctx;

use crate::dist::construct::{ForestEntry, ProcState};
use crate::dist::hat::{child_key, ROOT_KEY};
use crate::heap;
use crate::point::RRect;
use crate::semigroup::{comb_opt, Semigroup};

/// One in-flight query: `(query id, rank-space box)`.
pub type QueryRec<const D: usize> = (u32, RRect<D>);

/// Output of the hat stage for one processor's query share.
#[derive(Debug, Clone, Default)]
pub struct HatStage<const D: usize> {
    /// Forest visits `(forest id, subquery)` still to be finished.
    pub visits: Vec<(u64, QueryRec<D>)>,
    /// Final-dimension hat selections `(qid, (tree key, heap node))`:
    /// canonical nodes whose whole point set matches the query, resolved
    /// from replicated hat aggregates without touching the forest.
    pub sels: Vec<(u32, (u64, u32))>,
}

enum Mode {
    /// Contained final-dimension internal nodes become [`HatStage::sels`].
    Aggregate,
    /// Contained final-dimension internal nodes expand to visits of every
    /// non-empty group below (report mode must enumerate the points).
    Report,
}

fn walk<const D: usize>(
    state: &ProcState<D>,
    key: u64,
    v: usize,
    qid: u32,
    q: &RRect<D>,
    mode: &Mode,
    out: &mut HatStage<D>,
) {
    let t = &state.hat.trees[&key];
    if t.cnt[v] == 0 {
        return; // no real points below (case 4, vacuously)
    }
    let j = t.dim as usize;
    let (lo, hi) = (t.lo[v], t.hi[v]);
    if q.disjoint_interval(j, lo, hi) {
        return; // case 4
    }
    let nleaves = t.nleaves as usize;
    if q.contains_interval(j, lo, hi) {
        if t.is_leaf(v) {
            // Continue inside the group's forest subtree (which re-checks
            // dimension j trivially and handles dimensions j+1..d).
            out.visits.push((t.leaf_forest[v - nleaves] as u64, (qid, *q)));
        } else if j + 1 < D {
            // Case 1: proceed to the descendant hat tree.
            walk(state, child_key(key, v, state.hat.key_shift), 1, qid, q, mode, out);
        } else {
            // Case 2: final dimension — the node's whole point set matches.
            match mode {
                Mode::Aggregate => out.sels.push((qid, (key, v as u32))),
                Mode::Report => {
                    let (a, b) = heap::span(nleaves, v);
                    for leaf in a..b {
                        if t.cnt[nleaves + leaf] > 0 {
                            out.visits.push((t.leaf_forest[leaf] as u64, (qid, *q)));
                        }
                    }
                }
            }
        }
        return;
    }
    // Case 3: overlap.
    if t.is_leaf(v) {
        // The query boundary cuts through this group: finish inside its
        // forest subtree.
        out.visits.push((t.leaf_forest[v - nleaves] as u64, (qid, *q)));
    } else {
        walk(state, key, 2 * v, qid, q, mode, out);
        walk(state, key, 2 * v + 1, qid, q, mode, out);
    }
}

fn stage<const D: usize>(state: &ProcState<D>, queries: &[QueryRec<D>], mode: Mode) -> HatStage<D> {
    let mut out = HatStage::default();
    for (qid, q) in queries {
        if q.is_empty() {
            continue;
        }
        walk(state, ROOT_KEY, 1, *qid, q, &mode, &mut out);
    }
    out
}

/// Advance a processor's query share through the hat (local computation,
/// no communication). Counting/aggregation resolves
/// [`sels`](HatStage::sels) from replicated hat values and routes only
/// [`visits`](HatStage::visits) to the forest.
pub fn hat_stage<const D: usize>(state: &ProcState<D>, queries: &[QueryRec<D>]) -> HatStage<D> {
    stage(state, queries, Mode::Aggregate)
}

/// Report-mode hat stage: like [`hat_stage`] but final-dimension hat
/// selections are expanded into visits of every non-empty group below,
/// since their points must be enumerated, not just aggregated.
pub(crate) fn report_visits<const D: usize>(
    state: &ProcState<D>,
    queries: &[QueryRec<D>],
) -> Vec<(u64, QueryRec<D>)> {
    stage(state, queries, Mode::Report).visits
}

/// Result of [`balance_visits`]: the forest-tree copies shipped to this
/// processor (handles to their owners' trees, metered as whole trees) and
/// the `(forest id, subquery)` visits routed to it.
pub type BalancedVisits<const D: usize> =
    (Vec<(u64, Arc<ForestEntry<D>>)>, Vec<(u64, QueryRec<D>)>);

/// The multisearch balancing step (Search steps 2–4): replicate
/// congested forest trees and route every visit to a processor holding a
/// copy of its target. Three supersteps. Returns the copies shipped to
/// this processor and its share of the visits; resolve targets with
/// [`tree_for`].
pub fn balance_visits<const D: usize>(
    ctx: &mut Ctx<'_>,
    state: &ProcState<D>,
    visits: Vec<(u64, QueryRec<D>)>,
) -> BalancedVisits<D> {
    balance_weighted(ctx, state, visits, |_| 1)
}

/// Per-group output-volume weights, read from the hat replica's leaf
/// summaries: forest id → real-point count, floored at 1. This is the
/// balancing measure of Algorithm Report (a selected tree is weighed by
/// its expected output), shared by the per-mode driver and the fused
/// engine so the two can never diverge.
pub(crate) fn group_weights<const D: usize>(state: &ProcState<D>) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    for t in state.hat.trees.values() {
        let nleaves = t.nleaves as usize;
        for i in 0..nleaves {
            out.insert(t.leaf_forest[i] as u64, (t.cnt[nleaves + i] as u64).max(1));
        }
    }
    out
}

/// Report-mode balancing: Algorithm Report weighs each selected tree by
/// its expected output volume ([`group_weights`]) rather than a unit
/// weight. Same three supersteps as [`balance_visits`].
pub(crate) fn balance_visits_report<const D: usize>(
    ctx: &mut Ctx<'_>,
    state: &ProcState<D>,
    visits: Vec<(u64, QueryRec<D>)>,
) -> BalancedVisits<D> {
    let group_count = group_weights(state);
    balance_weighted(ctx, state, visits, move |fid| group_count[&fid])
}

fn balance_weighted<const D: usize>(
    ctx: &mut Ctx<'_>,
    state: &ProcState<D>,
    visits: Vec<(u64, QueryRec<D>)>,
    weight: impl Fn(u64) -> u64,
) -> BalancedVisits<D> {
    let owned_ids: Vec<u64> = state.forest.keys().map(|&fid| fid as u64).collect();
    let items: Vec<(u64, QueryRec<D>, u64)> =
        visits.into_iter().map(|(fid, rec)| (fid, rec, weight(fid))).collect();
    let outcome = ctx.load_balance_weighted_with(
        &owned_ids,
        |fid| Arc::clone(&state.forest[&(fid as u32)]),
        items,
    );
    (outcome.resources, outcome.items)
}

/// Resolve a balanced visit's target tree: a copy shipped by
/// [`balance_visits`], or this processor's own original.
pub fn tree_for<'a, const D: usize>(
    trees: &'a [(u64, Arc<ForestEntry<D>>)],
    state: &'a ProcState<D>,
    fid: u64,
) -> &'a ForestEntry<D> {
    trees.iter().find(|(f, _)| *f == fid).map_or_else(|| &*state.forest[&(fid as u32)], |(_, e)| e)
}

/// Algorithm AssociativeFunction step 1 for the hat: given the
/// all-gathered forest-root values (`⊗` of `f` over each group's real
/// points), compute the bottom-up `f(v)` arrays of every final-dimension
/// hat tree. Selections from [`hat_stage`] read their answers here.
pub(crate) fn fill_hat_values<S: Semigroup, const D: usize>(
    state: &ProcState<D>,
    sg: &S,
    roots: &HashMap<u64, Option<S::Val>>,
) -> BTreeMap<u64, Vec<Option<S::Val>>> {
    let mut out = BTreeMap::new();
    for (&key, t) in &state.hat.trees {
        if t.dim as usize != D - 1 {
            continue;
        }
        let nleaves = t.nleaves as usize;
        let mut vals: Vec<Option<S::Val>> = vec![None; 2 * nleaves];
        for i in 0..nleaves {
            vals[nleaves + i] = roots
                .get(&(t.leaf_forest[i] as u64))
                .cloned()
                .expect("every hat leaf has a forest root value");
        }
        for v in (1..nleaves).rev() {
            vals[v] = comb_opt(sg, vals[2 * v].clone(), vals[2 * v + 1].clone());
        }
        out.insert(key, vals);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistRangeTree;
    use crate::point::{Point, Rect};
    use ddrs_cgm::Machine;

    /// A hot-spot batch at p = 4: every query cuts through the same
    /// group, so that group's tree is congested and copied to every other
    /// rank. The copies are handles to the owner's tree, not duplicates,
    /// and the round is still charged the full size of every shipped tree.
    #[test]
    fn congestion_copies_share_the_owners_tree_and_are_metered_whole() {
        let p = 4;
        let n = 1024u32;
        let machine = Machine::new(p).unwrap();
        let pts: Vec<Point<2>> =
            (0..n).map(|i| Point::new([i as i64, ((i * 389) % n) as i64], i)).collect();
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        // x ∈ [3, 40 + i] lies inside the first group of 256 and never
        // covers it, so the hat hands every query to that group's tree.
        let rqs: Vec<QueryRec<2>> = (0..64u32)
            .map(|i| (i, tree.ranks.translate(&Rect::new([3, 0], [40 + i as i64, n as i64]))))
            .collect();
        machine.take_stats();
        let shipped: Vec<Vec<(u64, Arc<ForestEntry<2>>)>> = machine.run(|ctx| {
            let state = &tree.states()[ctx.rank()];
            let mine: Vec<QueryRec<2>> =
                rqs.iter().filter(|(qid, _)| *qid as usize % p == ctx.rank()).copied().collect();
            balance_visits(ctx, state, hat_stage(state, &mine).visits).0
        });
        let stats = machine.take_stats();

        let copies: Vec<&(u64, Arc<ForestEntry<2>>)> = shipped.iter().flatten().collect();
        assert!(
            copies.len() >= p - 1,
            "the hot tree must reach every other rank: {}",
            copies.len()
        );
        for (fid, copy) in &copies {
            let owner = &tree.states()[*fid as usize % p];
            assert!(
                Arc::ptr_eq(copy, &owner.forest[&(*fid as u32)]),
                "copy of forest tree {fid} is not the owner's tree"
            );
        }
        // Per shipped pair: the resource id, the entry header, the tree.
        let walked: u64 = copies.iter().map(|(_, e)| 1 + 2 + e.tree.payload_words_walk()).sum();
        let round = stats.rounds.iter().find(|r| r.label == "balance_resources").unwrap();
        assert_eq!(
            round.total_words, walked,
            "shipping by reference must not shrink the h-relation"
        );
        assert!(walked > 0);
    }
}
