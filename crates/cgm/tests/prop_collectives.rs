//! Property-based tests for the collective operations: the distributed
//! results must equal their sequential specifications for arbitrary
//! inputs, machine sizes and skews.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use ddrs_cgm::{Machine, Payload};

/// Split `data` into `p` arbitrary contiguous chunks (possibly empty).
fn chunks<T: Clone>(data: &[T], p: usize, cuts: &[usize]) -> Vec<Vec<T>> {
    let mut idx: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
    idx.sort_unstable();
    idx.truncate(p - 1);
    while idx.len() < p - 1 {
        idx.push(data.len());
    }
    let mut out = Vec::with_capacity(p);
    let mut prev = 0;
    for &c in &idx {
        out.push(data[prev..c].to_vec());
        prev = c;
    }
    out.push(data[prev..].to_vec());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Global sample sort equals the sequential sort for any distribution
    /// of the data over processors.
    #[test]
    fn sort_equals_sequential(
        data in prop::collection::vec(0u64..1000, 0..400),
        cuts in prop::collection::vec(0usize..400, 0..16),
        p_log in 0u32..4,
    ) {
        let p = 1usize << p_log;
        let shares = chunks(&data, p, &cuts);
        let machine = Machine::new(p).unwrap();
        let outs = machine.run(|ctx| {
            ctx.sort_by_key(shares[ctx.rank()].clone(), |x| *x)
        });
        let got: Vec<u64> = outs.into_iter().flatten().collect();
        let mut want = data.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The collective is the stable sort of the rank-order concatenation,
    /// whatever the keys' shape (random, heavy duplicates, presorted,
    /// reversed, sawtooth) and however unevenly the records are spread:
    /// each record carries where it stood, so a tie out of order shows.
    #[test]
    fn sort_is_the_stable_sort_of_the_concatenation(
        raw in prop::collection::vec(0u64..1000, 0..400),
        cuts in prop::collection::vec(0usize..400, 0..16),
    ) {
        let mut ascending = raw.clone();
        ascending.sort_unstable();
        let shapes: [Vec<u64>; 5] = [
            raw.clone(),
            raw.iter().map(|k| k % 3).collect(),
            ascending.clone(),
            ascending.into_iter().rev().collect(),
            (0..raw.len() as u64).map(|i| i % 17).collect(),
        ];
        for keys in shapes {
            let data: Vec<(u64, u32)> = keys.into_iter().zip(0..).collect();
            let mut want = data.clone();
            want.sort_by_key(|r| r.0);
            for p in [1, 2, 4, 8] {
                let shares = chunks(&data, p, &cuts);
                let machine = Machine::new(p).unwrap();
                let outs = machine.run(|ctx| ctx.sort_by_key(shares[ctx.rank()].clone(), |r| r.0));
                let got: Vec<(u64, u32)> = outs.into_iter().flatten().collect();
                prop_assert_eq!(&got, &want, "p = {}", p);
            }
        }
    }

    /// Balanced sort additionally evens the per-processor counts.
    #[test]
    fn balanced_sort_even_shares(
        data in prop::collection::vec(0u64..50, 0..300),
        cuts in prop::collection::vec(0usize..300, 0..8),
    ) {
        let p = 4;
        let shares = chunks(&data, p, &cuts);
        let machine = Machine::new(p).unwrap();
        let outs = machine.run(|ctx| {
            ctx.sort_balanced_by_key(shares[ctx.rank()].clone(), |x| *x)
        });
        let counts: Vec<usize> = outs.iter().map(Vec::len).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "uneven shares {counts:?}");
        let got: Vec<u64> = outs.into_iter().flatten().collect();
        let mut want = data.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Rebalance preserves the global order and multiset exactly.
    #[test]
    fn rebalance_preserves_sequence(
        data in prop::collection::vec(0u64..10_000, 0..300),
        cuts in prop::collection::vec(0usize..300, 0..8),
    ) {
        let p = 8;
        let shares = chunks(&data, p, &cuts);
        let machine = Machine::new(p).unwrap();
        let outs = machine.run(|ctx| ctx.rebalance(shares[ctx.rank()].clone()));
        let got: Vec<u64> = outs.iter().flatten().copied().collect();
        prop_assert_eq!(got, data.clone());
        let counts: Vec<usize> = outs.iter().map(Vec::len).collect();
        prop_assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    /// Segmented fold equals the sequential grouped fold for any sorted
    /// distributed sequence.
    #[test]
    fn segmented_fold_equals_grouped_sum(
        mut pairs in prop::collection::vec((0u64..20, 1u64..100), 0..200),
        cuts in prop::collection::vec(0usize..200, 0..4),
    ) {
        pairs.sort_by_key(|p| p.0);
        let p = 4;
        let shares = chunks(&pairs, p, &cuts);
        let machine = Machine::new(p).unwrap();
        let outs = machine.run(|ctx| {
            ctx.segmented_fold(shares[ctx.rank()].clone(), |a, b| a + b)
        });
        let mut got: Vec<(u64, u64)> = outs.into_iter().flatten().collect();
        got.sort_by_key(|x| x.0);
        // Sequential spec.
        let mut want: Vec<(u64, u64)> = Vec::new();
        for (seg, v) in &pairs {
            match want.last_mut() {
                Some((s, acc)) if s == seg => *acc += v,
                _ => want.push((*seg, *v)),
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Load balancing: conservation (every item arrives exactly once),
    /// co-location (items land with a copy or at the owner) and the
    /// balance bound.
    #[test]
    fn load_balance_invariants(
        item_rids in prop::collection::vec(0u64..12, 0..300),
        cuts in prop::collection::vec(0usize..300, 0..8),
        n_resources in 1u64..12,
    ) {
        let p = 8;
        let item_rids: Vec<u64> =
            item_rids.into_iter().map(|r| r % n_resources).collect();
        let shares = chunks(&item_rids, p, &cuts);
        let machine = Machine::new(p).unwrap();
        let outs = machine.run(|ctx| {
            let owned: Vec<(u64, u64)> = (0..n_resources)
                .filter(|rid| (*rid as usize) % p == ctx.rank())
                .map(|rid| (rid, rid))
                .collect();
            let items: Vec<(u64, u64)> = shares[ctx.rank()]
                .iter()
                .map(|&rid| (rid, rid * 7))
                .collect();
            let out = ctx.load_balance(&owned, items);
            (out.resources, out.items)
        });
        // Conservation.
        let arrived: usize = outs.iter().map(|(_, its)| its.len()).sum();
        prop_assert_eq!(arrived, item_rids.len());
        // Co-location.
        for (rank, (res, its)) in outs.iter().enumerate() {
            let have: Vec<u64> = res.iter().map(|(rid, _)| *rid).collect();
            for (rid, payload) in its {
                prop_assert_eq!(*payload, rid * 7);
                prop_assert!(
                    have.contains(rid) || (*rid as usize) % p == rank,
                    "item for {} stranded on rank {}", rid, rank
                );
            }
        }
        // Balance: owners shed everything above the even share and
        // receivers fill only up to it, so with unit weights no processor
        // exceeds the share; the bound checked here is looser.
        if item_rids.len() >= 2 * p {
            let max = outs.iter().map(|(_, its)| its.len()).max().unwrap();
            let share = item_rids.len().div_ceil(p);
            prop_assert!(
                max <= 3 * share + 2 * n_resources as usize,
                "max {} vs share {}", max, share
            );
        }
    }

    /// Prefix sums across processors equal the sequential scan.
    #[test]
    fn global_prefix_sums_spec(
        weights in prop::collection::vec(0u64..1000, 0..120),
        cuts in prop::collection::vec(0usize..120, 0..4),
    ) {
        let p = 4;
        let shares = chunks(&weights, p, &cuts);
        let machine = Machine::new(p).unwrap();
        let outs = machine.run(|ctx| ctx.global_prefix_sums(&shares[ctx.rank()]));
        let flat: Vec<u64> = outs.iter().flat_map(|(pre, _)| pre.iter().copied()).collect();
        let mut acc = 0;
        let want: Vec<u64> = weights
            .iter()
            .map(|w| {
                let here = acc;
                acc += w;
                here
            })
            .collect();
        prop_assert_eq!(flat, want);
        for (_, total) in outs {
            prop_assert_eq!(total, acc);
        }
    }
}

/// Comparisons made through [`Counted`]'s `Ord`, by every thread.
static COMPARISONS: AtomicU64 = AtomicU64::new(0);

/// A sort key that counts how often it is compared.
#[derive(Clone, PartialEq, Eq)]
struct Counted(u64);

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        COMPARISONS.fetch_add(1, Ordering::Relaxed);
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Payload for Counted {}

/// The collective is run-adaptive: a globally presorted input costs one
/// scan of each share, a handful of splitter searches and one scan of
/// each exchanged concatenation, not a sort. (No other test compares a
/// `Counted`, so the count is this test's alone.)
#[test]
fn a_presorted_input_costs_a_linear_number_of_comparisons() {
    let n = 4096u64;
    for p in [1usize, 2, 4, 8] {
        let machine = Machine::new(p).unwrap();
        let share = n / p as u64;
        COMPARISONS.store(0, Ordering::Relaxed);
        let outs = machine.run(|ctx| {
            let lo = ctx.rank() as u64 * share;
            ctx.sort_by_key((lo..lo + share).collect(), |&x: &u64| Counted(x))
        });
        let spent = COMPARISONS.load(Ordering::Relaxed);
        assert_eq!(outs.into_iter().flatten().collect::<Vec<u64>>(), (0..n).collect::<Vec<u64>>());
        assert!(spent <= 3 * n, "p = {p}: {spent} comparisons for {n} presorted records");
    }
}

/// Non-proptest regression: segmented broadcast to every rank range.
#[test]
fn segmented_broadcast_all_ranges() {
    let p = 4;
    let machine = Machine::new(p).unwrap();
    for lo in 0..p {
        for hi in lo..=p {
            let outs = machine.run(|ctx| {
                let items = if ctx.rank() == 0 { vec![(7u64, lo..hi)] } else { Vec::new() };
                ctx.segmented_broadcast(items)
            });
            for (rank, got) in outs.iter().enumerate() {
                let expect = if rank >= lo && rank < hi { vec![7u64] } else { Vec::new() };
                assert_eq!(got, &expect, "range {lo}..{hi} rank {rank}");
            }
        }
    }
}
