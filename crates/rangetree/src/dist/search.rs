//! The stages of Algorithm Search: batched multisearch through the hat,
//! congestion balancing, and the target lookup of the forest finishes.
//! The one program that strings them together, for every mode and every
//! level searched, is [`super::fused`].
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
//! subtree: the walk emits a **visit** `(fid, subquery, weight)`. Visits
//! are then evened out by [`balance_visits`] — the multisearch balancing of
//! Atallah et al. that the paper cites: an owner whose trees draw more
//! than the even share of the batch's search cost copies trees to
//! processors with room and routes the excess visits there, so every
//! processor finishes an `O(|Q|/p)` share of forest searches regardless
//! of skew.

use std::sync::Arc;

use ddrs_cgm::{Ctx, Payload};

use crate::dist::construct::{ForestEntry, ProcState};
use crate::dist::hat::HatTree;
use crate::dist::HatValues;
use crate::heap;
use crate::point::RRect;
use crate::semigroup::{comb_opt, Semigroup};

/// One in-flight query: `(query id, rank-space box)`.
pub type QueryRec<const D: usize> = (u32, RRect<D>);

/// Output of the hat stage for one processor's query share.
#[derive(Debug, Clone, Default)]
pub struct HatStage<const D: usize> {
    /// Forest visits `(forest id, subquery, weight)` still to be finished.
    /// The weight is the balancing measure: the visit's search cost,
    /// [`search_cost`] of the group size, plus the group's real-point
    /// count for a report visit whose whole group matches (the one visit
    /// whose output `k` is known before the search; Algorithm Report
    /// weighs a selected tree by its output).
    pub visits: Vec<(u64, QueryRec<D>, u64)>,
    /// Final-dimension hat selections `(qid, (hat index, heap node))`,
    /// the tree being `state.hat[index]`: canonical nodes whose whole
    /// point set matches the query, resolved from replicated hat
    /// aggregates without touching the forest.
    pub sels: Vec<(u32, (u32, u32))>,
}

enum Mode {
    /// Contained final-dimension internal nodes become [`HatStage::sels`].
    Aggregate,
    /// Contained final-dimension internal nodes expand to visits of every
    /// non-empty group below (report mode must enumerate the points).
    Report,
}

/// The balancing weight of one forest search in a group of `g = 2^h`
/// points: `h²` (at least 1), the cover's `O(h)` blocks × `O(h)` steps; an
/// upper bound since a small box scans one run instead, kept so no h-relation moves.
pub fn search_cost(g: usize) -> u64 {
    u64::from(g.trailing_zeros()).pow(2).max(1)
}

/// Emit the visit of group leaf `v` of hat tree `t` (which has real
/// points below: the walk never reaches an empty node). `whole` says the
/// group's every point matches the query.
fn visit<const D: usize>(
    state: &ProcState<D>,
    t: &HatTree,
    v: usize,
    rec: QueryRec<D>,
    whole: bool,
    mode: &Mode,
    out: &mut HatStage<D>,
) {
    let output = match mode {
        Mode::Report if whole => t.cnt[v] as u64,
        _ => 0,
    };
    let weight = search_cost(state.g) + output;
    out.visits.push((t.fid(v - t.nleaves as usize) as u64, rec, weight));
}

fn walk<const D: usize>(
    state: &ProcState<D>,
    ti: usize,
    v: usize,
    qid: u32,
    q: &RRect<D>,
    mode: &Mode,
    out: &mut HatStage<D>,
) {
    let t = &state.hat[ti];
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
            visit(state, t, v, (qid, *q), j + 1 == D, mode, out);
        } else if j + 1 < D {
            // Case 1: proceed to the descendant hat tree.
            walk(state, t.child(v), 1, qid, q, mode, out);
        } else {
            // Case 2: final dimension — the node's whole point set matches.
            match mode {
                Mode::Aggregate => out.sels.push((qid, (ti as u32, v as u32))),
                Mode::Report => {
                    let (a, b) = heap::span(nleaves, v);
                    for leaf in a..b {
                        if t.cnt[nleaves + leaf] > 0 {
                            visit(state, t, nleaves + leaf, (qid, *q), true, mode, out);
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
        visit(state, t, v, (qid, *q), false, mode, out);
    } else {
        walk(state, ti, 2 * v, qid, q, mode, out);
        walk(state, ti, 2 * v + 1, qid, q, mode, out);
    }
}

fn stage<const D: usize>(state: &ProcState<D>, queries: &[QueryRec<D>], mode: Mode) -> HatStage<D> {
    let mut out = HatStage::default();
    for (qid, q) in queries {
        if q.is_empty() {
            continue;
        }
        walk(state, 0, 1, *qid, q, &mode, &mut out);
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
pub fn report_visits<const D: usize>(
    state: &ProcState<D>,
    queries: &[QueryRec<D>],
) -> Vec<(u64, QueryRec<D>, u64)> {
    stage(state, queries, Mode::Report).visits
}

/// Composite resource id: `(level, forest id)` packed so one balancing
/// round routes the visits of every level searched. Level 0's composite
/// id is the forest id itself, so a static tree's visits need no packing.
#[inline]
pub(crate) fn compose(level: usize, fid: u32) -> u64 {
    ((level as u64) << 32) | fid as u64
}

/// Inverse of [`compose`].
#[inline]
pub(crate) fn decompose(cid: u64) -> (usize, u32) {
    ((cid >> 32) as usize, cid as u32)
}

/// Result of [`balance_visits`]: the forest-tree copies shipped to this
/// processor, sorted by composite id (handles to their owners' trees,
/// metered as whole trees), and the `(composite id, subquery)` visits
/// routed to it.
pub type BalancedVisits<const D: usize> =
    (Vec<(u64, Arc<ForestEntry<D>>)>, Vec<(u64, QueryRec<D>)>);

/// The multisearch balancing step (Search steps 2–4), the only one:
/// cap every processor's share of the visits' weight at the even share,
/// copying trees from overloaded owners (smallest first), and route every
/// visit to a processor holding its target. Three supersteps.
///
/// `levels` is this processor's state in every static tree searched (one
/// for a [`DistRangeTree`](crate::DistRangeTree), one per occupied level
/// of the logarithmic method) and `visits` are `(composite id, subquery,
/// weight)`. Returns the copies shipped to this processor and its share
/// of the visits; resolve targets with [`tree_for`].
pub fn balance_visits<const D: usize>(
    ctx: &mut Ctx<'_>,
    levels: &[&ProcState<D>],
    visits: Vec<(u64, QueryRec<D>, u64)>,
) -> BalancedVisits<D> {
    let owned: Vec<(u64, u64)> = levels
        .iter()
        .enumerate()
        .flat_map(|(li, state)| {
            state.forest.iter().map(move |entry| (compose(li, entry.fid), entry.words()))
        })
        .collect();
    let outcome = ctx.load_balance_weighted_with(
        &owned,
        |cid| {
            let (li, fid) = decompose(cid);
            Arc::clone(levels[li].entry(fid))
        },
        visits,
    );
    let mut copies = outcome.resources;
    copies.sort_unstable_by_key(|&(cid, _)| cid);
    (copies, outcome.items)
}

/// Resolve a balanced visit's target tree: a copy shipped by
/// [`balance_visits`], or this processor's own original.
pub fn tree_for<'a, const D: usize>(
    copies: &'a [(u64, Arc<ForestEntry<D>>)],
    levels: &[&'a ProcState<D>],
    cid: u64,
) -> &'a ForestEntry<D> {
    match copies.binary_search_by_key(&cid, |&(c, _)| c) {
        Ok(i) => &copies[i].1,
        Err(_) => {
            let (li, fid) = decompose(cid);
            levels[li].entry(fid)
        }
    }
}

/// Algorithm AssociativeFunction step 1 for the hat: given the
/// all-gathered forest-root values by forest id (`⊗` of `f` over each
/// group's real points; `None` for an id that sent none), compute the
/// bottom-up `f(v)` arrays of every final-dimension hat tree (and an
/// empty one for every other tree). Selections from [`hat_stage`] read
/// their answers here.
pub(crate) fn fill_hat_values<S: Semigroup, const D: usize>(
    state: &ProcState<D>,
    sg: &S,
    roots: &[Option<Option<S::Val>>],
) -> HatValues<S::Val> {
    let fill = |t: &HatTree| {
        let nleaves = t.nleaves as usize;
        let mut vals: Vec<Option<S::Val>> = vec![None; 2 * nleaves];
        for i in 0..nleaves {
            let root = roots.get(t.fid(i) as usize).cloned().flatten();
            vals[nleaves + i] = root.expect("every hat leaf has a forest root value");
        }
        for v in (1..nleaves).rev() {
            vals[v] = comb_opt(sg, vals[2 * v].clone(), vals[2 * v + 1].clone());
        }
        vals
    };
    state.hat.iter().map(|t| if t.dim as usize == D - 1 { fill(t) } else { Vec::new() }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DistRangeTree, DynamicDistRangeTree};
    use crate::point::{Point, Rect};
    use ddrs_cgm::Machine;

    const P: usize = 4;
    const N: u32 = 1024;

    /// `N` points with distinct x in `x0..x0 + N`, ids from `id0`.
    fn points(x0: i64, id0: u32) -> Vec<Point<2>> {
        (0..N).map(|i| Point::new([x0 + i as i64, ((i * 389) % N) as i64], id0 + i)).collect()
    }

    /// Run the hat stage and the balancing step for a hot-spot batch over
    /// `levels` at p = 4: every query cuts through the first group of the
    /// tree whose x range starts at 0 (x ∈ [3, 40 + i] lies inside that
    /// group of 256 and never covers it), so that group's tree is
    /// congested and copied to every other rank. Checks that the copies
    /// are handles to the owner's tree in level `hot`, not duplicates, and
    /// that the round is still charged the full size of every shipped tree.
    fn check_hot_spot_copies(machine: &Machine, levels: &[&DistRangeTree<2>], hot: usize) {
        let qs: Vec<Rect<2>> =
            (0..64).map(|i| Rect::new([3, 0], [40 + i as i64, N as i64])).collect();
        machine.take_stats();
        let shipped: Vec<Vec<(u64, Arc<ForestEntry<2>>)>> = machine.run(|ctx| {
            let states: Vec<_> = levels.iter().map(|t| &t.states()[ctx.rank()]).collect();
            let mut visits = Vec::new();
            for (li, (state, level)) in states.iter().zip(levels).enumerate() {
                let mine: Vec<QueryRec<2>> = (ctx.rank()..qs.len())
                    .step_by(P)
                    .map(|i| (i as u32, level.ranks.translate(&qs[i])))
                    .collect();
                let stage = hat_stage(state, &mine);
                visits.extend(
                    stage.visits.into_iter().map(|(f, rec, w)| (compose(li, f as u32), rec, w)),
                );
            }
            balance_visits(ctx, &states, visits).0
        });
        let stats = machine.take_stats();

        let copies: Vec<&(u64, Arc<ForestEntry<2>>)> = shipped.iter().flatten().collect();
        assert!(
            copies.len() >= P - 1,
            "the hot tree must reach every other rank: {}",
            copies.len()
        );
        for &&(cid, ref copy) in &copies {
            let (li, fid) = decompose(cid);
            assert_eq!(li, hot, "copy {cid:#x} is not of the hot level");
            let owner = &levels[li].states()[fid as usize % P];
            assert!(
                Arc::ptr_eq(copy, owner.entry(fid)),
                "copy of forest tree {fid} is not its owner's tree in level {li}"
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

    #[test]
    fn congestion_copies_share_the_owners_tree_and_are_metered_whole() {
        let machine = Machine::new(P).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &points(0, 0)).unwrap();
        check_hot_spot_copies(&machine, &[&tree], 0);
    }

    /// The same hot spot in level 1 of a two-level dynamic store: the
    /// owner must decode the composite id to the right level's forest
    /// (level 0 holds trees under the same forest ids).
    #[test]
    fn congestion_copies_of_a_higher_level_come_from_that_level() {
        let machine = Machine::new(P).unwrap();
        let mut store = DynamicDistRangeTree::<2>::new(N as usize / 2);
        store.insert_batch(&machine, &points(0, 0)).unwrap(); // 2 × capacity: level 1
        store.insert_batch(&machine, &points(1 << 20, N)[..N as usize / 2]).unwrap(); // level 0
        let levels = store.level_trees();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[1].ranks().n(), N as usize, "the hot tree is level 1");
        check_hot_spot_copies(&machine, &levels, 1);
    }
}
