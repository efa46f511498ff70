//! Structural invariants of Algorithm Construct, checked directly on the
//! per-processor states (below the public query API).

use ddrs_cgm::{log2_exact, Machine};
use ddrs_rangetree::dist::construct::{construct, ProcState};
use std::sync::Mutex;

use ddrs_rangetree::{heap, Point, RPoint, RankSpace};

fn build(p: usize, n: u32, seed: u64) -> (Vec<ProcState<2>>, usize) {
    build_d(p, n, seed)
}

fn input<const D: usize>(n: u32, seed: u64) -> Vec<Point<D>> {
    let (mul, add, modulus) = ([7919, 104729, 1299709], [1, 31, 97], [10007, 10009, 10037]);
    (0..n)
        .map(|i| {
            let c =
                std::array::from_fn(|j| ((i as i64) * mul[j] + seed as i64 * add[j]) % modulus[j]);
            Point::new(c, i)
        })
        .collect()
}

fn build_d<const D: usize>(p: usize, n: u32, seed: u64) -> (Vec<ProcState<D>>, usize) {
    let pts: Vec<Point<D>> = input(n, seed);
    let machine = Machine::new(p).unwrap();
    let (ranks, rpts) = RankSpace::normalize(&pts, p).unwrap();
    let m = ranks.m();
    let share = m / p;
    let states = machine.run(|ctx| {
        let lo = ctx.rank() * share;
        construct(ctx, rpts[lo..lo + share].to_vec(), m)
    });
    (states, m)
}

/// Every hat tree is reachable through the descendant links from the
/// primary tree, and every internal non-final-dimension hat node has its
/// descendant tree present.
#[test]
fn hat_key_space_is_closed() {
    let (states, _) = build(8, 700, 1);
    let hat = &states[0].hat;
    let mut reachable = std::collections::HashSet::new();
    let mut stack = vec![0];
    while let Some(ti) = stack.pop() {
        assert!(reachable.insert(ti), "tree {ti} reached twice");
        let t = hat.get(ti).unwrap_or_else(|| panic!("missing hat tree {ti}"));
        if (t.dim as usize) < 1 {
            // d = 2: only dimension-0 trees have descendants.
            let nleaves = t.nleaves as usize;
            for v in 1..nleaves {
                stack.push(t.child(v));
            }
        }
    }
    assert_eq!(
        reachable.len(),
        hat.len(),
        "unreachable hat trees exist: {} reachable vs {} stored",
        reachable.len(),
        hat.len()
    );
}

/// The hat is numbered in the order of the paper's path labels
/// (Definition 2): deriving each tree's label through the descendant
/// links — the primary tree is 1, a child is `label << (log2 p + 1) | v`
/// — reaches every tree once, with labels rising with the index; every
/// child is one dimension on and spans its node's groups; and every hat
/// leaf's forest id is held by its round-robin owner.
fn check_label_order<const D: usize>(p: usize) {
    let (states, _) = build_d::<D>(p, 300, 8);
    let hat = &states[0].hat;
    let shift = log2_exact(p) + 1;
    let mut labels: Vec<Option<u64>> = vec![None; hat.len()];
    labels[0] = Some(1);
    for (ti, t) in hat.iter().enumerate() {
        let label = labels[ti].unwrap_or_else(|| panic!("tree {ti} reached after its children"));
        let nleaves = t.nleaves as usize;
        for v in (1..nleaves).filter(|_| t.dim as usize + 1 < D) {
            let c = t.child(v);
            assert!(
                labels[c].replace(label << shift | v as u64).is_none(),
                "tree {c} reached twice"
            );
            let (a, b) = heap::span(nleaves, v);
            assert_eq!((hat[c].dim, hat[c].nleaves as usize), (t.dim + 1, b - a), "child {c}");
        }
        for i in 0..nleaves {
            let fid = t.fid(i);
            let entry = states[fid as usize % p].entry(fid);
            assert_eq!((entry.fid, entry.start_dim), (fid, t.dim));
        }
    }
    let labels: Vec<u64> = labels.into_iter().map(|l| l.expect("every tree is reached")).collect();
    assert!(labels.windows(2).all(|w| w[0] < w[1]), "p = {p}, d = {D}: {labels:?}");
}

#[test]
fn hat_trees_are_numbered_in_label_order() {
    for p in [1, 2, 8] {
        check_label_order::<2>(p);
        check_label_order::<3>(p);
    }
}

/// A processor refuses a forest id it does not own, in release builds
/// too: the lookup is an index, and the index alone would hand back a
/// neighbour's tree.
#[test]
#[should_panic(expected = "is not held on this processor")]
fn entry_refuses_a_forest_id_its_rank_does_not_own() {
    let (states, _) = build(4, 500, 9);
    let _ = states[1].entry(0);
}

/// Hat interval/count consistency: every internal node's count is the sum
/// of its children and intervals nest.
#[test]
fn hat_nodes_are_consistent() {
    let (states, _) = build(4, 500, 2);
    for t in states[0].hat.iter() {
        let nleaves = t.nleaves as usize;
        for v in 1..nleaves {
            let (l, r) = (2 * v, 2 * v + 1);
            assert_eq!(t.cnt[v], t.cnt[l] + t.cnt[r], "count mismatch at {v}");
            if t.cnt[l] > 0 && t.cnt[r] > 0 {
                assert!(t.hi[l] < t.lo[r], "child intervals overlap at {v}");
                assert_eq!(t.lo[v], t.lo[l]);
                assert_eq!(t.hi[v], t.hi[r]);
            }
        }
    }
}

/// The forest ids referenced by hat leaves are exactly the forest trees
/// held across processors, and the id → owner mapping is the round-robin
/// deal within each phase.
#[test]
fn forest_ids_cover_and_locate() {
    let p = 4;
    let (states, _) = build(p, 600, 3);
    let mut owned: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (rank, s) in states.iter().enumerate() {
        for fid in s.forest.iter().map(|e| e.fid) {
            assert!(owned.insert(fid, rank).is_none(), "forest id {fid} duplicated");
        }
    }
    let mut referenced: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for t in states[0].hat.iter() {
        for i in 0..t.nleaves as usize {
            referenced.insert(t.fid(i));
        }
    }
    assert_eq!(referenced.len(), owned.len(), "hat references and held trees disagree");
    for fid in referenced {
        assert!(owned.contains_key(&fid), "referenced tree {fid} not held anywhere");
    }
}

/// Every real point appears exactly once among the phase-0 forest trees,
/// and within any single forest tree each point appears once per
/// dimension level it participates in.
#[test]
fn phase0_trees_partition_the_input() {
    let n = 600u32;
    let (states, _) = build(4, n, 4);
    let mut seen = vec![0u32; n as usize];
    for s in &states {
        for t in s.forest.iter().filter(|t| t.start_dim == 0) {
            for leaf in t.tree.leaves.iter().filter(|l| !l.is_pad()) {
                seen[leaf.id as usize] += 1;
            }
        }
    }
    assert!(seen.iter().all(|&c| c == 1), "phase-0 coverage: {seen:?}");
}

/// Later-phase forest trees hold exactly the points spanned by their hat
/// ancestor (checked via counts: the record volume of phase j+1 equals
/// the sum over internal dimension-j hat nodes of their spans).
#[test]
fn phase_record_volumes_match_hat_shape() {
    let p = 8;
    let (states, m) = build(p, 900, 5);
    let recs = &states[0].phase_records;
    assert_eq!(recs[0], m as u64);
    // Sum of spans of internal nodes of the primary hat tree.
    let primary = &states[0].hat[0];
    let nleaves = primary.nleaves as usize;
    let mu = (m / p) as u64;
    let mut expect = 0u64;
    for v in 1..nleaves {
        let (a, b) = heap::span(nleaves, v);
        expect += (b - a) as u64 * mu;
    }
    assert_eq!(recs[1], expect, "phase-1 record volume disagrees with hat shape");
}

/// All processors compute identical phase-record tallies (they are global
/// quantities derived from scans).
#[test]
fn phase_records_agree_across_processors() {
    let (states, _) = build(4, 300, 6);
    for s in &states[1..] {
        assert_eq!(s.phase_records, states[0].phase_records);
    }
}

/// Rebuilding from the same input is deterministic: two independent
/// machines produce identical hats and forest shards.
#[test]
fn construction_is_deterministic() {
    let (a, _) = build(4, 400, 7);
    let (b, _) = build(4, 400, 7);
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.hat, sb.hat);
        assert_eq!(
            sa.forest.iter().map(|e| e.fid).collect::<std::collections::BTreeSet<_>>(),
            sb.forest.iter().map(|e| e.fid).collect::<std::collections::BTreeSet<_>>()
        );
    }
}

/// A share of the input per processor as uneven as `cuts` make it (rank
/// `r` gets the points of dimension-0 rank `cuts[r]..cuts[r + 1]`) builds
/// what the even deal builds: hat, forest and phase volumes. The sort
/// keeps such slices where they are, so group 0 arrives in pieces from
/// three or more senders and step 4 concatenates them.
fn straddled_deal_builds_the_even_deal<const D: usize>(p: usize, cuts: &[usize]) {
    let (even, m) = build_d::<D>(p, 300, 12);
    let (_, rpts) = RankSpace::normalize(&input::<D>(300, 12), p).unwrap();
    assert_eq!((cuts.len(), cuts[p]), (p + 1, m));
    let machine = Machine::new(p).unwrap();
    let uneven = machine.run(|ctx| {
        let r = ctx.rank();
        construct(ctx, rpts[cuts[r]..cuts[r + 1]].iter().copied(), m)
    });
    // Senders of group 0, positions 0..g of the primary tree: the ranks
    // whose sorted share of S^0 is not empty and starts below g.
    let shares: Vec<u64> = uneven.iter().map(|s| s.sorted_records[0]).collect();
    let starts = shares.iter().scan(0, |at, &len| Some(std::mem::replace(at, *at + len)));
    let senders = starts.zip(&shares).filter(|&(at, &len)| len > 0 && at < (m / p) as u64);
    assert!(senders.count() >= 3, "p = {p}: group 0 comes from fewer than three senders");
    for (a, b) in even.iter().zip(&uneven) {
        assert_eq!(a.hat, b.hat, "p = {p}, d = {D}");
        assert_eq!(a.forest, b.forest, "p = {p}, d = {D}");
        assert_eq!(a.phase_records, b.phase_records, "p = {p}, d = {D}");
    }
}

#[test]
fn a_group_dealt_from_three_senders_builds_as_the_even_deal() {
    // m = 512 at both sizes: groups of 128 at p = 4 and of 64 at p = 8.
    let four = [0, 20, 30, 400, 512];
    let eight = [0, 5, 15, 40, 300, 350, 400, 450, 512];
    straddled_deal_builds_the_even_deal::<2>(4, &four);
    straddled_deal_builds_the_even_deal::<3>(4, &four);
    straddled_deal_builds_the_even_deal::<2>(8, &eight);
    straddled_deal_builds_the_even_deal::<3>(8, &eight);
}

/// A share handed to `construct` as a `Vec` that is exactly its
/// processor's group of `S^0` (the even deal of the dimension-0 order)
/// becomes that group's leaves as it is: the phase-0 forest entry holds
/// the very allocation the processor was handed, at every `p`.
fn a_share_that_is_its_group_is_not_copied<const D: usize>(p: usize) {
    let (ranks, rpts) = RankSpace::normalize(&input::<D>(300, 4), p).unwrap();
    let m = ranks.m();
    let shares: Vec<Mutex<Vec<RPoint<D>>>> =
        rpts.chunks(m / p).map(|share| Mutex::new(share.to_vec())).collect();
    let handed: Vec<usize> = shares.iter().map(|s| s.lock().unwrap().as_ptr() as usize).collect();
    let states = Machine::new(p).unwrap().run(|ctx| {
        let share = std::mem::take(&mut *shares[ctx.rank()].lock().unwrap());
        construct(ctx, share, m)
    });
    for (r, state) in states.iter().enumerate() {
        let entry = &state.forest[0];
        assert_eq!((entry.fid, entry.start_dim), (r as u32, 0), "p = {p}, d = {D}");
        let leaves = entry.tree.leaves.as_ptr() as usize;
        assert_eq!(leaves, handed[r], "p = {p}, d = {D}: rank {r}'s share was copied");
    }
}

#[test]
fn a_share_that_is_its_group_becomes_its_leaves_uncopied() {
    for p in [1, 2, 4] {
        a_share_that_is_its_group_is_not_copied::<2>(p);
        a_share_that_is_its_group_is_not_copied::<3>(p);
    }
}
