//! Algorithm Search as one SPMD program: the only query program in this
//! crate, one machine submission per batch.
//!
//! The paper has one Algorithm Search — hat multisearch, congestion-copy
//! balancing, forest finish — whose modes differ only in what a selected
//! node contributes. This module states it once, for *all* count,
//! aggregate and report queries of a batch over *all* the static trees
//! ("levels") searched: the per-mode methods of
//! [`DistRangeTree`] are its single-mode, single-level shapes, and a
//! [`DynamicDistRangeTree`](crate::DynamicDistRangeTree) with `L`
//! occupied levels pays one run, not `3·L`.
//!
//! 1. one all-gather fills the final-dimension hat aggregates of every
//!    level that has none for the batch's semigroup yet, and the level
//!    keeps them for every later batch of that semigroup type (skipped
//!    when the batch has no aggregate queries — counting reads the
//!    replicated `cnt` arrays directly — or when every level has them);
//! 2. each rank, the submitting thread as rank 0 among them, translates
//!    its own `qid mod p` share of the batch into every level's rank
//!    space in lockstep ([`crate::RankSpace::translate_all`]) and runs
//!    the hat stages of every mode and level locally; forest visits are
//!    tagged with a *composite* resource id `(level << 32) | fid` so one
//!    multisearch balancing round (three supersteps, [`balance_visits`])
//!    evens out the forest work of the whole batch — every visit
//!    weighted by its search cost, and a report visit whose whole group
//!    matches also by its output, as Algorithm Report prescribes (the hat
//!    stage states each visit's weight);
//! 3. count/aggregate partials from all levels share one global sort +
//!    segmented fold; report pairs from all levels share one
//!    order-preserving rebalance.
//!
//! Every stage that would be a no-op for the batch shape is skipped
//! *uniformly* (the decision is the host's, from the query counts and
//! the values the levels kept, so SPMD superstep alignment is
//! preserved). The result: a mixed batch costs exactly **one** run,
//! independent of the number of levels and of the mode mix, and at most
//! 10 supersteps on a level's first aggregate batch, 9 after; an
//! aggregate-only batch costs 8, then 7, a count-only batch 7 and a
//! report-only batch 5.

use std::sync::Arc;

use ddrs_cgm::{unwrap_run, CgmError, Machine};

use crate::dist::search::{
    balance_visits, compose, decompose, fill_hat_values, hat_stage, report_visits, tree_for,
    QueryRec,
};
use crate::dist::{DistRangeTree, HatValues};
use crate::point::Rect;
use crate::semigroup::{comb_opt, fold_points, Semigroup};
use crate::seq::{sel_count, sel_report, BlockFolds};

/// Results of one fused batch, per mode, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedOutputs<S: Semigroup> {
    /// One count per count query.
    pub counts: Vec<u64>,
    /// One fold per aggregate query (`None` when nothing matched).
    pub aggregates: Vec<Option<S::Val>>,
    /// Matching point ids per report query, ascending.
    pub reports: Vec<Vec<u32>>,
}

/// A count/aggregate partial: `(count part, aggregate part)`. Count
/// queries only populate the left, aggregate queries only the right, so
/// one sorted segmented fold combines both modes.
type Partial<V> = (u64, Option<V>);

/// What one rank holds when the program ends: its folded
/// `(global query id, partial)` records and its `⌈k/p⌉` share of the
/// `(global query id, point id)` report pairs.
pub(super) type RankOutput<V> = (Vec<(u64, Partial<V>)>, Vec<(u32, u32)>);

/// Execute a heterogeneous count + aggregate + report batch against one
/// or more static trees ("levels") in a **single** [`Machine::run`].
///
/// Query ids are assigned per mode in slice order; the returned
/// [`FusedOutputs`] vectors are parallel to the input slices. Passing an
/// empty `levels` slice (an empty dynamic store) or an all-empty batch
/// returns immediately without submitting anything to the machine, so
/// `stats.supersteps()` and `stats.runs` stay untouched.
///
/// All levels must have been built on a machine of the same `p`.
///
/// # Panics
/// Panics when a simulated processor panics mid-program (delegates to
/// [`try_fused_query_batch`], mirroring the [`Machine::run`] /
/// [`Machine::try_run`](Machine::try_run) contract). Fallible callers —
/// the serving layer above all — should use the `try` variant.
pub fn fused_query_batch<S: Semigroup, const D: usize>(
    machine: &Machine,
    levels: &[&DistRangeTree<D>],
    sg: S,
    counts: &[Rect<D>],
    aggs: &[Rect<D>],
    reports: &[Rect<D>],
) -> FusedOutputs<S> {
    unwrap_run(try_fused_query_batch(machine, levels, sg, counts, aggs, reports))
}

/// Fallible counterpart of [`fused_query_batch`]: the same single-run
/// fused plan, routed through [`Machine::try_run`] so a panic in any
/// simulated processor surfaces as
/// [`CgmError::ProcessorPanicked`] instead of unwinding
/// the caller. The machine remains usable afterwards — this is what lets
/// a long-lived serving layer treat a poisoned batch as one failed
/// request wave rather than a dead scheduler.
pub fn try_fused_query_batch<S: Semigroup, const D: usize>(
    machine: &Machine,
    levels: &[&DistRangeTree<D>],
    sg: S,
    counts: &[Rect<D>],
    aggs: &[Rect<D>],
    reports: &[Rect<D>],
) -> Result<FusedOutputs<S>, CgmError> {
    let (n_c, n_a) = (counts.len(), aggs.len());
    let outputs = search_program(machine, levels, sg, counts, aggs, reports)?;
    // The host merge: a query's partials may end on several ranks (one
    // per segment boundary), its report pairs on any. Each report vector
    // is sized first, so the merge never regrows one.
    let mut k = vec![0; reports.len()];
    outputs.iter().flat_map(|o| &o.1).for_each(|&(qid, _)| k[qid as usize - n_c - n_a] += 1);
    let mut out = FusedOutputs {
        counts: vec![0; n_c],
        aggregates: vec![None; n_a],
        reports: k.into_iter().map(Vec::with_capacity).collect(),
    };
    for (folded, pairs) in outputs {
        for (qid, (c, v)) in folded {
            let qid = qid as usize;
            if qid < n_c {
                out.counts[qid] += c;
            } else {
                let slot = &mut out.aggregates[qid - n_c];
                *slot = comb_opt(&sg, slot.take(), v);
            }
        }
        for (qid, id) in pairs {
            out.reports[qid as usize - n_c - n_a].push(id);
        }
    }
    for ids in &mut out.reports {
        ids.sort_unstable();
    }
    Ok(out)
}

/// The program itself: every rank's [`RankOutput`], in rank order, before
/// any host-side merging. Global query ids are count `i` → `i`,
/// aggregate `i` → `n_c + i`, report `i` → `n_c + n_a + i`. A batch with
/// nothing to search yields `p` empty outputs without a dispatch.
pub(super) fn search_program<S: Semigroup, const D: usize>(
    machine: &Machine,
    levels: &[&DistRangeTree<D>],
    sg: S,
    counts: &[Rect<D>],
    aggs: &[Rect<D>],
    reports: &[Rect<D>],
) -> Result<Vec<RankOutput<S::Val>>, CgmError> {
    for t in levels {
        t.assert_machine(machine);
    }
    let p = machine.p();
    let (n_c, n_a, n_r) = (counts.len(), aggs.len(), reports.len());
    if levels.is_empty() || n_c + n_a + n_r == 0 {
        return Ok((0..p).map(|_| Default::default()).collect());
    }
    let has_agg = n_a > 0;
    let has_ca = n_c + n_a > 0;
    let has_r = n_r > 0;
    // Each level's hat values for this semigroup, if an earlier batch
    // filled them. The first aggregate batch on a level fills them in its
    // own run, so a panicking `lift` fails that run like any other.
    let kept: Vec<Option<Arc<HatValues<S::Val>>>> =
        levels.iter().map(|t| if has_agg { t.hat_values::<S>() } else { None }).collect();
    let fill = has_agg && kept.iter().any(Option::is_none);

    let mut per_rank = machine.try_run(|ctx| {
        let me = ctx.rank();
        let states: Vec<_> = levels.iter().map(|t| &t.states[me]).collect();

        // (1) Value fill for the aggregate semigroup, every level still
        // without values in one all-gather: the final-dimension forest
        // roots' folds, combined bottom-up into the final-dimension hat
        // trees (only those resolve selections from values, so earlier
        // phases' forest entries need no fold). Counting needs no fill:
        // the hat's replicated `cnt` arrays already hold the Count folds.
        let filled: Vec<Option<HatValues<S::Val>>> = if fill {
            let mut root_vals: Vec<(u64, Option<S::Val>)> = Vec::new();
            for (li, state) in states.iter().enumerate().filter(|(li, _)| kept[*li].is_none()) {
                for entry in state.forest.iter().filter(|e| e.start_dim as usize == D - 1) {
                    let leaves = &entry.tree.leaves[..entry.tree.r as usize];
                    let fold = fold_points(&sg, leaves.iter().map(|pt| (pt.id, pt.weight)));
                    root_vals.push((compose(li, entry.fid), fold));
                }
            }
            // By forest id (a level's hat leaves number its forest ids).
            let mut per_level: Vec<Vec<Option<Option<S::Val>>>> = states
                .iter()
                .map(|s| vec![None; s.hat.iter().map(|t| t.nleaves as usize).sum()])
                .collect();
            for (cid, v) in ctx.all_gather(root_vals).into_iter().flatten() {
                let (li, fid) = decompose(cid);
                per_level[li][fid as usize] = Some(v);
            }
            states
                .iter()
                .zip(&per_level)
                .zip(&kept)
                .map(|((state, roots), k)| k.is_none().then(|| fill_hat_values(state, &sg, roots)))
                .collect()
        } else {
            (0..levels.len()).map(|_| None).collect()
        };
        let hat_vals: Vec<Option<&HatValues<S::Val>>> =
            kept.iter().zip(&filled).map(|(k, f)| k.as_deref().or(f.as_ref())).collect();

        // (2) Hat stages of every mode and level (local), emitting hat
        // partials and composite-tagged forest visits. This rank owns the
        // queries with `qid mod p == me` (a query's global id is its
        // position in the three modes' concatenation) and translates just
        // those into each level's rank space, in one lockstep pass.
        let all = counts.iter().chain(aggs).chain(reports);
        let (ids, boxes): (Vec<u32>, Vec<&Rect<D>>) = (0..).zip(all).skip(me).step_by(p).unzip();
        let n_ca = ids.partition_point(|&qid| (qid as usize) < n_c + n_a);
        let mut pairs: Vec<(u64, Partial<S::Val>)> = Vec::new();
        let mut visits: Vec<(u64, QueryRec<D>, u64)> = Vec::new();
        for (li, (state, level)) in states.iter().zip(levels).enumerate() {
            let mine: Vec<QueryRec<D>> =
                ids.iter().copied().zip(level.ranks.translate_all(&boxes)).collect();
            let (mine_ca, mine_r) = mine.split_at(n_ca);
            let stage = hat_stage(state, mine_ca);
            for &(qid, (t, v)) in &stage.sels {
                let (t, v) = (t as usize, v as usize);
                if (qid as usize) < n_c {
                    pairs.push((qid as u64, (state.hat[t].cnt[v] as u64, None)));
                } else if let Some(val) = hat_vals[li].expect("filled")[t][v].clone() {
                    pairs.push((qid as u64, (0, Some(val))));
                }
            }
            let tag = |(fid, rec, w): (u64, _, u64)| (compose(li, fid as u32), rec, w);
            visits.extend(stage.visits.into_iter().map(tag));
            visits.extend(report_visits(state, mine_r).into_iter().map(tag));
        }

        // (3) One multisearch balancing round for the whole batch.
        let (copies, routed) = balance_visits(ctx, &states, visits);

        // (4) Forest finishes (local) for all three modes: binary searches
        // and filtered scans of each routed tree's arrays. An aggregate folds
        // what was selected; `folds` runs Algorithm AssociativeFunction's step 1
        // only for a block the batch keeps coming back to.
        let mut folds: BlockFolds<'_, S, D> = BlockFolds::new();
        let mut report_pairs: Vec<(u32, u32)> = Vec::new();
        let mut sels = Vec::new();
        let mut ids = Vec::new();
        for (cid, (qid, q)) in routed {
            sels.clear();
            tree_for(&copies, &states, cid).tree.search(&q, &mut sels);
            if (qid as usize) < n_c {
                let c: u64 = sels.iter().map(sel_count).sum();
                if c > 0 {
                    pairs.push((qid as u64, (c, None)));
                }
            } else if (qid as usize) < n_c + n_a {
                let mut acc: Option<S::Val> = None;
                for s in &sels {
                    acc = comb_opt(&sg, acc, folds.fold(&sg, s));
                }
                if let Some(val) = acc {
                    pairs.push((qid as u64, (0, Some(val))));
                }
            } else {
                ids.clear();
                for s in &sels {
                    sel_report(s, &mut ids);
                }
                report_pairs.extend(ids.iter().map(|&id| (qid, id)));
            }
        }

        // (5) Combine count/aggregate partials: global sort by query id,
        // then one segmented fold over both modes at once.
        let folded: Vec<(u64, Partial<S::Val>)> = if has_ca {
            let sorted = ctx.sort_by_key(pairs, |pair: &(u64, Partial<S::Val>)| pair.0);
            ctx.segmented_fold(sorted, |a: Partial<S::Val>, b: Partial<S::Val>| {
                (a.0 + b.0, comb_opt(&sg, a.1, b.1))
            })
        } else {
            Vec::new()
        };

        // (6) ⌈k/p⌉-balance the report output.
        let shares: Vec<(u32, u32)> = if has_r { ctx.rebalance(report_pairs) } else { Vec::new() };

        // Rank 0 hands back the values this run filled.
        (folded, shares, if me == 0 { filled } else { Vec::new() })
    })?;
    for (level, vals) in levels.iter().zip(std::mem::take(&mut per_rank[0].2)) {
        if let Some(vals) = vals {
            level.keep_hat_values::<S>(vals);
        }
    }
    Ok(per_rank.into_iter().map(|(folded, shares, _)| (folded, shares)).collect())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use super::*;
    use crate::point::Point;
    use crate::semigroup::{MaxWeight, Sum};

    fn pts(n: u32) -> Vec<Point<2>> {
        (0..n)
            .map(|i| Point::weighted([i as i64, ((i * 37) % n) as i64], i, (i + 1) as u64))
            .collect()
    }

    #[test]
    fn fused_matches_per_mode_on_static_tree() {
        let machine = Machine::new(4).unwrap();
        let pts = pts(200);
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        let qs = vec![
            Rect::new([0, 0], [99, 199]),
            Rect::new([50, 10], [150, 120]),
            Rect::new([3, 3], [3, 3]),
        ];
        machine.take_stats();
        let fused = fused_query_batch(&machine, &[&tree], Sum, &qs, &qs, &qs);
        let stats = machine.take_stats();
        assert_eq!(stats.runs, 1, "fused mixed batch must be one submission");
        assert_eq!(fused.counts, tree.count_batch(&machine, &qs));
        assert_eq!(fused.aggregates, tree.aggregate_batch(&machine, Sum, &qs));
        assert_eq!(fused.reports, tree.report_batch(&machine, &qs));
    }

    #[test]
    fn fused_respects_semigroup_choice() {
        let machine = Machine::new(2).unwrap();
        let pts = pts(64);
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        let qs = vec![Rect::new([0, 0], [31, 63])];
        let fused = fused_query_batch(&machine, &[&tree], MaxWeight, &[], &qs, &[]);
        assert_eq!(fused.aggregates, tree.aggregate_batch(&machine, MaxWeight, &qs));
    }

    #[test]
    fn try_variant_agrees_with_panicking_variant() {
        let machine = Machine::new(4).unwrap();
        let pts = pts(100);
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        let qs = vec![Rect::new([0, 0], [49, 99]), Rect::new([10, 10], [20, 20])];
        let fused = fused_query_batch(&machine, &[&tree], Sum, &qs, &qs, &qs);
        let tried = try_fused_query_batch(&machine, &[&tree], Sum, &qs, &qs, &qs).unwrap();
        assert_eq!(fused.counts, tried.counts);
        assert_eq!(fused.aggregates, tried.aggregates);
        assert_eq!(fused.reports, tried.reports);
    }

    #[test]
    fn empty_batch_submits_nothing() {
        let machine = Machine::new(2).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(32)).unwrap();
        machine.take_stats();
        let out = fused_query_batch::<Sum, 2>(&machine, &[&tree], Sum, &[], &[], &[]);
        let stats = machine.take_stats();
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.supersteps(), 0);
        assert!(out.counts.is_empty() && out.aggregates.is_empty() && out.reports.is_empty());
    }

    /// `Sum` that counts its lifts; the counter is read by one test.
    #[derive(Debug, Clone, Copy)]
    struct CountedSum;
    static LIFTS: AtomicU64 = AtomicU64::new(0);

    impl Semigroup for CountedSum {
        type Val = u64;
        fn lift(&self, _id: u32, weight: u64) -> u64 {
            LIFTS.fetch_add(1, Ordering::Relaxed);
            weight
        }
        fn comb(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    /// The aggregate rule of the forest finish: a batch lifts what its
    /// queries match, except that a block it keeps selecting from is
    /// filled once — 64 full-range aggregates cost at most `4 m` lifts,
    /// not `64 m`.
    #[test]
    fn a_batch_lifts_what_it_matches_and_fills_a_hot_block_once() {
        let m = 4096u32;
        let pts: Vec<Point<2>> = (0..m)
            .map(|i| Point::weighted([i as i64, ((i * 389) % m) as i64], i, (i % 5 + 1) as u64))
            .collect();
        let expect = |q: &Rect<2>| {
            let matching: Vec<(u32, u64)> =
                pts.iter().filter(|p| q.contains(p)).map(|p| (p.id, p.weight)).collect();
            (matching.len() as u64, fold_points(&Sum, matching))
        };
        let machine = Machine::new(1).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();

        let one = Rect::new([100, 50], [1900, 3000]);
        let (k, fold) = expect(&one);
        LIFTS.store(0, Ordering::Relaxed);
        let out = fused_query_batch(&machine, &[&tree], CountedSum, &[], &[one], &[]);
        assert_eq!(out.aggregates, vec![fold]);
        assert_eq!(LIFTS.load(Ordering::Relaxed), k);

        let all = Rect::new([0, 0], [m as i64, m as i64]);
        let (k, fold) = expect(&all);
        assert_eq!(k, m as u64);
        LIFTS.store(0, Ordering::Relaxed);
        let out = fused_query_batch(&machine, &[&tree], CountedSum, &[], &[all; 64], &[]);
        assert_eq!(out.aggregates, vec![fold; 64]);
        let lifts = LIFTS.load(Ordering::Relaxed);
        assert!(lifts <= 4 * m as u64, "{lifts} lifts for 64 aggregates over {m} points");
    }

    /// A tree keeps the hat values its first aggregate batch fills: the
    /// same mixed batch twice gives the same answers, in 10 supersteps,
    /// then 9.
    #[test]
    fn a_second_aggregate_batch_skips_the_value_fill() {
        let machine = Machine::new(4).unwrap();
        let pts = pts(200);
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        let qs = vec![Rect::new([0, 0], [99, 199]), Rect::new([50, 10], [150, 120])];
        let mut steps = Vec::new();
        let mut outs = Vec::new();
        for _ in 0..2 {
            machine.take_stats();
            outs.push(fused_query_batch(&machine, &[&tree], Sum, &qs, &qs, &qs));
            steps.push(machine.take_stats().supersteps());
        }
        let brute: Vec<Option<u64>> = qs
            .iter()
            .map(|q| {
                fold_points(&Sum, pts.iter().filter(|p| q.contains(p)).map(|p| (p.id, p.weight)))
            })
            .collect();
        assert_eq!(outs[0].aggregates, brute);
        assert_eq!(outs[1].aggregates, brute);
        assert_eq!((&outs[0].counts, &outs[0].reports), (&outs[1].counts, &outs[1].reports));
        assert_eq!(steps, vec![10, 9]);
    }

    /// `Sum` whose `lift` panics while the wire is armed.
    #[derive(Debug, Clone, Copy)]
    struct Tripwire;
    static ARMED: AtomicBool = AtomicBool::new(false);

    impl Semigroup for Tripwire {
        type Val = u64;
        fn lift(&self, _id: u32, weight: u64) -> u64 {
            assert!(!ARMED.load(Ordering::Relaxed), "tripwire lifted");
            weight
        }
        fn comb(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    /// A fill whose `lift` panics fails its batch and leaves the tree
    /// without values: the next batch of the same type fills them again
    /// and answers.
    #[test]
    fn a_failed_fill_caches_nothing() {
        let machine = Machine::new(4).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(200)).unwrap();
        let qs = vec![Rect::new([0, 0], [99, 199]), Rect::new([50, 10], [150, 120])];
        ARMED.store(true, Ordering::Relaxed);
        let failed = try_fused_query_batch(&machine, &[&tree], Tripwire, &[], &qs, &[]);
        ARMED.store(false, Ordering::Relaxed);
        assert!(matches!(failed, Err(CgmError::ProcessorPanicked { .. })), "{failed:?}");
        machine.take_stats();
        let out = try_fused_query_batch(&machine, &[&tree], Tripwire, &[], &qs, &[]).unwrap();
        assert_eq!(machine.take_stats().supersteps(), 8, "the fill runs again");
        assert_eq!(out.aggregates, tree.aggregate_batch(&machine, Sum, &qs));
    }
}
