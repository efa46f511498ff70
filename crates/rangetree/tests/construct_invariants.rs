//! Structural invariants of Algorithm Construct, checked directly on the
//! per-processor states (below the public query API).

use ddrs_cgm::Machine;
use ddrs_rangetree::dist::construct::{construct, ProcState};
use ddrs_rangetree::dist::ROOT_KEY;
use ddrs_rangetree::{heap, Point, RankSpace};

fn build(p: usize, n: u32, seed: u64) -> (Vec<ProcState<2>>, usize) {
    let pts: Vec<Point<2>> = (0..n)
        .map(|i| {
            let x = ((i as i64) * 7919 + seed as i64) % 10007;
            let y = ((i as i64) * 104729 + seed as i64 * 31) % 10009;
            Point::new([x, y], i)
        })
        .collect();
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

/// Every hat-tree key is reachable through the child-key chain from the
/// primary tree, and every internal non-final-dimension hat node has its
/// descendant tree present.
#[test]
fn hat_key_space_is_closed() {
    let (states, _) = build(8, 700, 1);
    let hat = &states[0].hat;
    let mut reachable = std::collections::HashSet::new();
    let mut stack = vec![ROOT_KEY];
    while let Some(key) = stack.pop() {
        assert!(reachable.insert(key), "key {key} reached twice");
        let t = hat.trees.get(&key).unwrap_or_else(|| panic!("missing hat tree {key}"));
        if (t.dim as usize) < 1 {
            // d = 2: only dimension-0 trees have descendants.
            let nleaves = t.nleaves as usize;
            for v in 1..nleaves {
                stack.push(ddrs_rangetree::dist::hat::child_key(key, v, hat.key_shift));
            }
        }
    }
    assert_eq!(
        reachable.len(),
        hat.trees.len(),
        "unreachable hat trees exist: {} reachable vs {} stored",
        reachable.len(),
        hat.trees.len()
    );
}

/// Hat interval/count consistency: every internal node's count is the sum
/// of its children and intervals nest.
#[test]
fn hat_nodes_are_consistent() {
    let (states, _) = build(4, 500, 2);
    for t in states[0].hat.trees.values() {
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
        for &fid in s.forest.keys() {
            assert!(owned.insert(fid, rank).is_none(), "forest id {fid} duplicated");
        }
    }
    let mut referenced: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for t in states[0].hat.trees.values() {
        for i in 0..t.nleaves as usize {
            referenced.insert(t.leaf_forest[i]);
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
        for t in s.forest.values().filter(|t| t.start_dim == 0) {
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
    let primary = &states[0].hat.trees[&ROOT_KEY];
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
        assert_eq!(sa.hat.trees, sb.hat.trees);
        assert_eq!(
            sa.forest.keys().collect::<std::collections::BTreeSet<_>>(),
            sb.forest.keys().collect::<std::collections::BTreeSet<_>>()
        );
    }
}
