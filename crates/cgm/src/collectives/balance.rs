//! Weighted load balancing with resource replication (the *multisearch*
//! balancing step).
//!
//! Algorithm Search (steps 2–4 of the paper) must even out query load over
//! forest trees whose demand is arbitrarily skewed: it copies congested
//! forest shards and routes every query to a processor holding a copy of
//! the tree it wants to visit. The paper cites the balancing procedure of
//! the multisearch paper (Atallah–Dehne–Miller–Rau-Chaplin–Tsay) as a
//! black box with the guarantee that each processor ends up with an
//! O(total/p) share of the demand. This module meets it with the even
//! share as a cap, `share = ⌈total/p⌉`:
//!
//! * every demanded resource starts whole on its owner, so a resource
//!   that is not congested never moves;
//! * an owner whose demand exceeds `share` sheds the excess as tail
//!   segments of its resources' demand, to the ranks with room below
//!   `share`, in rank order. It sheds first from the resources with the
//!   fewest payload words, so the fewest words are shipped;
//! * an item goes to the segment that holds its first unit of weight.
//!
//! No processor ends with more than `share` plus the largest item weight,
//! and a resource is copied once to every rank its demand is shed to.

use std::collections::BTreeMap;

use crate::ctx::Ctx;
use crate::payload::Payload;

/// Result of [`Ctx::load_balance`]: the resource copies shipped to this
/// processor and the work items routed to it.
///
/// Contract: every routed item's resource is either among the shipped
/// `resources` **or already owned by this processor** (owners serve their
/// segments from their originals, so an owner never receives a copy).
#[derive(Debug)]
pub struct BalanceOutcome<R, W> {
    /// `(resource id, copy)` pairs shipped to this processor.
    pub resources: Vec<(u64, R)>,
    /// `(resource id, item)` pairs to process locally.
    pub items: Vec<(u64, W)>,
}

impl Ctx<'_> {
    /// Balance `items` (each demanding the resource with its id) across
    /// processors, replicating congested resources. Every item weighs 1.
    ///
    /// * `owned` — resources this processor currently owns (ids must be
    ///   globally unique; ownership is not consumed — owners retain their
    ///   originals independently of the copies shipped here).
    /// * `items` — local work items, each tagged with the resource id it
    ///   must be co-located with.
    pub fn load_balance<R, W>(
        &mut self,
        owned: &[(u64, R)],
        items: Vec<(u64, W)>,
    ) -> BalanceOutcome<R, W>
    where
        R: Payload + Clone,
        W: Payload,
    {
        let sized: Vec<(u64, u64)> = owned.iter().map(|(rid, r)| (*rid, r.words())).collect();
        // Index the owned resources once: resolving each shipped resource
        // with a linear scan is quadratic when many are shipped.
        let index: BTreeMap<u64, &R> = owned.iter().map(|(rid, r)| (*rid, r)).collect();
        let weighted = items.into_iter().map(|(rid, w)| (rid, w, 1)).collect();
        self.load_balance_weighted_with(
            &sized,
            |rid| (*index.get(&rid).expect("owned resource")).clone(),
            weighted,
        )
    }

    /// [`load_balance`](Ctx::load_balance) with owner-side lazy resource
    /// lookup (only shipped resources are fetched) and per-item weights
    /// (a weight of 0 counts as 1): the even share and the segments are
    /// measured in weight, not in items.
    ///
    /// `owned` lists this processor's resources as `(id, payload words)`;
    /// the words decide which resources an overloaded owner sheds first.
    ///
    /// Three supersteps: demand histogram with the ownership entries
    /// (all-gather), resource shipping (all-to-all), item routing
    /// (all-to-all). They are the balancing of every fused query batch,
    /// which runs 10 supersteps on a level's first aggregate batch and 9
    /// after.
    ///
    /// Deterministic: every processor computes the same segments from the
    /// shared histogram, and the items of a resource are ordered by
    /// `(source rank, local position)`.
    pub fn load_balance_weighted_with<R, W, F>(
        &mut self,
        owned: &[(u64, u64)],
        get: F,
        items: Vec<(u64, W, u64)>,
    ) -> BalanceOutcome<R, W>
    where
        R: Payload + Clone,
        W: Payload,
        F: Fn(u64) -> R,
    {
        let p = self.p();
        let me = self.rank();

        // --- Superstep 1: global demand histogram (by weight), plus the
        //     ownership entries, which carry payload words -------------
        let mut local_counts: BTreeMap<u64, u64> = BTreeMap::new();
        for (rid, _, w) in &items {
            *local_counts.entry(*rid).or_insert(0) += (*w).max(1);
        }
        // Entries: (rid, weight or payload words, is_ownership).
        let mut local_hist: Vec<(u64, u64, bool)> =
            local_counts.iter().map(|(&k, &v)| (k, v, false)).collect();
        local_hist.extend(owned.iter().map(|&(rid, words)| (rid, words, true)));
        let per_rank_hists: Vec<Vec<(u64, u64, bool)>> = self.all_gather(local_hist);

        // Global demand per resource, this processor's weight offset within
        // each resource's global item sequence, and owner and words.
        let mut demand: BTreeMap<u64, u64> = BTreeMap::new();
        let mut my_offset: BTreeMap<u64, u64> = BTreeMap::new();
        let mut owner: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for (r, hist) in per_rank_hists.iter().enumerate() {
            for &(rid, x, is_owner) in hist {
                if is_owner {
                    let prev = owner.insert(rid, (r, x));
                    debug_assert!(prev.is_none(), "resource {rid} has two owners");
                } else {
                    if r < me {
                        *my_offset.entry(rid).or_insert(0) += x;
                    }
                    *demand.entry(rid).or_insert(0) += x;
                }
            }
        }
        let plan = segments(p, &demand, &owner);

        // --- Superstep 2: ship a copy to every rank a segment went to ---
        let mut res_out: Vec<Vec<(u64, R)>> = (0..p).map(|_| Vec::new()).collect();
        for &(rid, _) in owned {
            for &(_, dst) in plan.get(&rid).into_iter().flatten() {
                if dst != me {
                    res_out[dst].push((rid, get(rid)));
                }
            }
        }
        let resources: Vec<(u64, R)> =
            self.exchange("balance_resources", res_out).into_iter().flatten().collect();

        // --- Superstep 3: route each item to the segment of its first
        //     unit of weight ---------------------------------------------
        let mut item_out: Vec<Vec<(u64, W)>> = (0..p).map(|_| Vec::new()).collect();
        let mut next_local: BTreeMap<u64, u64> = BTreeMap::new();
        for (rid, item, w) in items {
            let segs = &plan[&rid];
            let local_pos = next_local.entry(rid).or_insert(0);
            let g = my_offset.get(&rid).copied().unwrap_or(0) + *local_pos;
            *local_pos += w.max(1);
            let (_, dst) = segs[segs.partition_point(|&(start, _)| start <= g) - 1];
            item_out[dst].push((rid, item));
        }
        let items: Vec<(u64, W)> =
            self.exchange("balance_items", item_out).into_iter().flatten().collect();

        BalanceOutcome { resources, items }
    }
}

/// Where each demanded resource's weight goes: `(first unit, rank)`
/// segments in ascending order, the first one the owner's unless the
/// owner sheds all of it. Computed identically on every processor.
fn segments(
    p: usize,
    demand: &BTreeMap<u64, u64>,
    owner: &BTreeMap<u64, (usize, u64)>,
) -> BTreeMap<u64, Vec<(u64, usize)>> {
    let share = demand.values().sum::<u64>().div_ceil(p as u64);
    let mut load = vec![0u64; p];
    // Per owner: its demanded resources as (payload words, id, demand).
    let mut held: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); p];
    let mut plan = BTreeMap::new();
    for (&rid, &d) in demand {
        let (own, words) = *owner.get(&rid).expect("demanded resource has an owner");
        load[own] += d;
        held[own].push((words, rid, d));
        plan.insert(rid, vec![(0, own)]);
    }
    // The ranks below the share have at least as much room as the ranks
    // above it have excess, so the cursor never runs off the end.
    let mut room: Vec<u64> = load.iter().map(|&l| share.saturating_sub(l)).collect();
    let mut to = 0;
    for (own, mut trees) in held.into_iter().enumerate() {
        let mut excess = load[own].saturating_sub(share);
        trees.sort_unstable();
        for (_, rid, d) in trees {
            if excess == 0 {
                break;
            }
            let shed = d.min(excess);
            excess -= shed;
            let segs = plan.get_mut(&rid).expect("planned above");
            if shed == d {
                segs.clear();
            }
            let mut start = d - shed;
            while start < d {
                while room[to] == 0 {
                    to += 1;
                }
                let take = room[to].min(d - start);
                segs.push((start, to));
                room[to] -= take;
                start += take;
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use crate::Machine;

    /// Run a balance and return (per-rank resource ids, per-rank item counts,
    /// violations of co-location).
    fn run_balance(
        p: usize,
        owner_of: impl Fn(u64) -> usize + Sync,
        n_resources: u64,
        items_for_rank: impl Fn(usize) -> Vec<u64> + Sync,
    ) -> (Vec<Vec<u64>>, Vec<usize>, usize) {
        let m = Machine::new(p).unwrap();
        let outs = m.run(|ctx| {
            let owned: Vec<(u64, u64)> = (0..n_resources)
                .filter(|&rid| owner_of(rid) == ctx.rank())
                .map(|rid| (rid, rid * 1000)) // resource payload
                .collect();
            let items: Vec<(u64, u64)> =
                items_for_rank(ctx.rank()).into_iter().map(|rid| (rid, rid)).collect();
            let out = ctx.load_balance(&owned, items);
            (out.resources, out.items)
        });
        let mut violations = 0;
        let mut rids_per_rank = Vec::new();
        let mut items_per_rank = Vec::new();
        for (rank, (res, its)) in outs.iter().enumerate() {
            let rids: Vec<u64> = res.iter().map(|(rid, _)| *rid).collect();
            for (rid, _) in its {
                // Contract: a shipped copy arrived, or this rank owns it.
                if !rids.contains(rid) && owner_of(*rid) != rank {
                    violations += 1;
                }
            }
            // Owners never receive shipped self-copies.
            for rid in &rids {
                assert_ne!(owner_of(*rid), rank, "owner received a self-copy of {rid}");
            }
            // Resource payloads must be the owner's.
            for (rid, payload) in res {
                assert_eq!(*payload, rid * 1000);
            }
            items_per_rank.push(its.len());
            rids_per_rank.push(rids);
        }
        (rids_per_rank, items_per_rank, violations)
    }

    #[test]
    fn items_colocated_with_resources() {
        let (_, _, violations) = run_balance(
            4,
            |rid| (rid % 4) as usize,
            16,
            |r| (0..50).map(|i| ((r * 50 + i) % 16) as u64).collect(),
        );
        assert_eq!(violations, 0);
    }

    #[test]
    fn hot_spot_resource_is_replicated_and_split() {
        // Every item demands resource 0, owned by rank 3.
        let (rids, items, violations) = run_balance(8, |_| 3, 1, |_| vec![0u64; 100]);
        assert_eq!(violations, 0);
        // Resource 0 must be copied to every processor except its owner
        // (rank 3 serves from the original)...
        for (rank, r) in rids.iter().enumerate() {
            if rank == 3 {
                assert!(r.is_empty(), "owner got a self-copy");
            } else {
                assert!(r.contains(&0), "rank {rank} missing the hot copy");
            }
        }
        // ...and each processor gets exactly 100 items.
        assert!(items.iter().all(|&n| n == 100), "items per rank: {items:?}");
    }

    #[test]
    fn balanced_demand_stays_balanced() {
        let p = 4;
        let (_, items, violations) = run_balance(
            p,
            |rid| (rid % 4) as usize,
            4,
            |r| vec![r as u64; 25], // each rank demands "its" resource
        );
        assert_eq!(violations, 0);
        let total: usize = items.iter().sum();
        assert_eq!(total, 100);
        let max = *items.iter().max().unwrap();
        assert!(max <= 2 * (total / p) + 1, "max per-rank items {max} too high: {items:?}");
    }

    #[test]
    fn empty_demand_is_a_no_op() {
        let (rids, items, violations) = run_balance(4, |_| 0, 4, |_| Vec::new());
        assert_eq!(violations, 0);
        assert!(items.iter().all(|&n| n == 0));
        assert!(rids.iter().all(Vec::is_empty));
    }

    #[test]
    fn skewed_two_resource_demand() {
        // 90% of demand on resource 0, 10% on resource 1.
        let (_, items, violations) = run_balance(
            4,
            |rid| rid as usize,
            2,
            |r| {
                let mut v = vec![0u64; 90];
                if r == 0 {
                    v.extend(vec![1u64; 40]);
                }
                v
            },
        );
        assert_eq!(violations, 0);
        let total: usize = items.iter().sum();
        assert_eq!(total, 4 * 90 + 40);
        let max = *items.iter().max().unwrap();
        // Contract: no processor carries more than ~2x the even share.
        assert!(max <= 2 * total / 4 + 1, "items: {items:?}");
    }

    /// Four weighted resources, all owned by rank 0: the owner keeps one
    /// even share and every rank ends at no more than the share plus the
    /// largest item weight.
    #[test]
    fn the_owner_of_every_hot_tree_keeps_only_its_share() {
        for p in [2usize, 4] {
            let m = Machine::new(p).unwrap();
            // Items are (resource, weight), and carry their weight.
            let weight = |r: usize, i: usize| 1 + ((i * 7 + r * 3) % 9) as u64;
            let outs = m.run(|ctx| {
                let r = ctx.rank();
                let owned: Vec<(u64, u64)> = if r == 0 {
                    (0..4).map(|rid| (rid, 100 * (rid + 1))).collect()
                } else {
                    vec![]
                };
                let items: Vec<(u64, u64, u64)> =
                    (0..120).map(|i| ((i % 4) as u64, weight(r, i), weight(r, i))).collect();
                let out = ctx.load_balance_weighted_with(&owned, |rid| rid, items);
                (out.resources, out.items)
            });
            let total: u64 = (0..p).flat_map(|r| (0..120).map(move |i| weight(r, i))).sum();
            let share = total.div_ceil(p as u64);
            let mut arrived = 0;
            for (rank, (res, its)) in outs.iter().enumerate() {
                let load: u64 = its.iter().map(|(_, w)| w).sum();
                assert!(load <= share + 9, "p = {p}: rank {rank} carries {load}, share {share}");
                for (rid, _) in its {
                    assert!(rank == 0 || res.iter().any(|(c, _)| c == rid), "{rid} stranded");
                }
                arrived += its.len();
            }
            assert_eq!(arrived, 120 * p);
        }
    }

    /// An owner over its share sheds its smallest resource before a
    /// larger one: here the small tree alone covers the excess, so the
    /// large one never moves.
    #[test]
    fn shedding_starts_with_the_fewest_words() {
        let m = Machine::new(2).unwrap();
        let outs = m.run(|ctx| {
            // Resource 0 is large, resource 1 small; rank 0 owns both.
            let owned: Vec<(u64, Vec<u64>)> =
                if ctx.rank() == 0 { vec![(0, vec![7; 1000]), (1, vec![7; 10])] } else { vec![] };
            let items: Vec<(u64, u64)> = (0..50).map(|i| (i % 2, i)).collect();
            let out = ctx.load_balance(&owned, items);
            let shipped: Vec<u64> = out.resources.iter().map(|(rid, _)| *rid).collect();
            (shipped, out.items.iter().map(|(rid, _)| *rid).collect::<Vec<u64>>())
        });
        assert!(outs[0].0.is_empty(), "the owner received a copy");
        assert_eq!(outs[1].0, vec![1], "only the small resource is shipped");
        assert!(outs[0].1.iter().all(|&rid| rid == 0));
        assert!(outs[1].1.iter().all(|&rid| rid == 1));
        assert_eq!((outs[0].1.len(), outs[1].1.len()), (50, 50));
    }
}
