//! Global sort and order-preserving rebalance.
//!
//! The paper uses parallel sort "as a black box" (Goodrich's
//! communication-efficient BSP sort in the theory; deterministic *regular
//! sample sort* here, which has the same O(1)-round structure when
//! `n/p ≥ p`): local sort → regular samples → splitters → bucket exchange →
//! local merge. The result is globally sorted by key across processor
//! ranks. `rebalance` then evens out bucket skew while preserving global
//! order, which the construction algorithm needs to cut exact `n/p` groups.

use crate::ctx::Ctx;
use crate::payload::Payload;

impl Ctx<'_> {
    /// Globally sort `data` by `key`. After the call, concatenating the
    /// returned vectors over ranks 0..p yields the sorted global sequence.
    /// Per-processor counts may be uneven (bounded skew); use
    /// [`sort_balanced_by_key`](Ctx::sort_balanced_by_key) when exact
    /// balance is required.
    ///
    /// Ties are broken by `(source rank, local position)`, making the
    /// result deterministic and the sort stable with respect to the global
    /// input order. The records themselves are sorted and shipped: a stable
    /// local sort, then a stable merge of the inbound runs in source-rank
    /// order, is that tie-break, so only the samples carry it. Both are
    /// the standard library's run-adaptive stable sort, which spends `n`
    /// comparisons on a share that is already in order and merges the runs
    /// it finds in an exchanged concatenation without sorting inside them.
    pub fn sort_by_key<T, K, KF>(&mut self, mut data: Vec<T>, key: KF) -> Vec<T>
    where
        T: Payload,
        K: Ord + Clone + Payload,
        KF: Fn(&T) -> K,
    {
        let p = self.p();
        data.sort_by_key(&key);
        if p == 1 {
            return data;
        }

        // Regular sampling (Shi–Schaeffer's PSRS), oversampled twice: 2p
        // samples at evenly spaced positions starting with the first, each
        // with its place in the global tie order, (rank, sorted position).
        // A splitter is the first sample of a 1/p-quantile of the sample,
        // so a rank's slice, or a key range every rank holds, splits
        // exactly, and runs whose layout repeats on every rank (a
        // Construct phase past the first) split within ≈ 1.1·n/p; with p
        // samples they read up to 1.34·n/p.
        let n_local = data.len();
        let base = (self.rank() as u64) << 32;
        let samples: Vec<(K, u64)> = (0..2 * p)
            .filter(|_| n_local > 0)
            .map(|j| j * n_local / (2 * p))
            .map(|idx| (key(&data[idx]), base | idx as u64))
            .collect();
        let mut all_samples: Vec<(K, u64)> =
            self.all_gather(samples).into_iter().flatten().collect();
        all_samples.sort();

        // p-1 splitters at regular positions in the sample. Walk them from
        // the last to the first, splitting tails off the local sorted run.
        let mut buckets: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        if !all_samples.is_empty() {
            for b in (1..p).rev() {
                let (k, tie) = &all_samples[b * all_samples.len() / p];
                // Among the records equal to the splitter's key, those of
                // an earlier rank, or of this one and earlier in its run.
                let below = data.partition_point(|t| key(t) < *k) as u64;
                let through = data.partition_point(|t| key(t) <= *k) as u64;
                let cut = tie.saturating_sub(base).clamp(below, through) as usize;
                buckets[b] = if cut == 0 { std::mem::take(&mut data) } else { data.split_off(cut) };
            }
        }
        buckets[0] = data;

        // Each inbound run is sorted and the runs arrive in source-rank
        // order: the stable sort finds them and merges. A lone run is the
        // result, in the buffer it left its sender in.
        let mut runs = self.exchange("sort", buckets);
        runs.retain(|run| !run.is_empty());
        let mut merged: Vec<T> = if runs.len() == 1 {
            runs.swap_remove(0)
        } else {
            runs.into_iter().flatten().collect()
        };
        merged.sort_by_key(&key);
        merged
    }

    /// Globally sort by key, then redistribute so every processor holds an
    /// even share (sizes differ by at most one, earlier ranks larger),
    /// preserving the global order.
    pub fn sort_balanced_by_key<T, K, KF>(&mut self, data: Vec<T>, key: KF) -> Vec<T>
    where
        T: Payload,
        K: Ord + Clone + Payload,
        KF: Fn(&T) -> K,
    {
        let sorted = self.sort_by_key(data, key);
        self.rebalance(sorted)
    }

    /// Redistribute a globally ordered distributed sequence so that counts
    /// are even (first `total % p` ranks hold one extra), preserving order.
    /// Two supersteps: the all-gather inside `exclusive_scan_sum_total`
    /// (global offsets), then the exchange.
    pub fn rebalance<T: Payload>(&mut self, data: Vec<T>) -> Vec<T> {
        let p = self.p();
        let (offset, total) = self.exclusive_scan_sum_total(data.len() as u64);
        let base = total / p as u64;
        let extra = (total % p as u64) as usize;
        // Global index ranges per destination rank.
        let start_of = |r: usize| -> u64 {
            let r64 = r as u64;
            base * r64 + (r.min(extra)) as u64
        };
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut dest = 0usize;
        for (i, item) in data.into_iter().enumerate() {
            let g = offset + i as u64;
            while dest + 1 < p && g >= start_of(dest + 1) {
                dest += 1;
            }
            out[dest].push(item);
        }
        self.exchange("rebalance", out).into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::Machine;

    fn check_global_sort(
        p: usize,
        per_proc: usize,
        gen: impl Fn(usize, usize) -> u64 + Sync + Copy,
    ) {
        let m = Machine::new(p).unwrap();
        let outs = m.run(|ctx| {
            let data: Vec<u64> = (0..per_proc).map(|i| gen(ctx.rank(), i)).collect();
            ctx.sort_by_key(data, |x| *x)
        });
        let flat: Vec<u64> = outs.iter().flatten().copied().collect();
        let mut expected: Vec<u64> =
            (0..p).flat_map(|r| (0..per_proc).map(move |i| gen(r, i))).collect();
        expected.sort();
        assert_eq!(flat, expected);
    }

    #[test]
    fn sort_random_like() {
        check_global_sort(4, 100, |r, i| ((r * 1_000_003 + i * 7919) % 1231) as u64);
    }

    #[test]
    fn sort_reverse_sorted() {
        check_global_sort(8, 64, |r, i| (1_000_000 - (r * 64 + i)) as u64);
    }

    #[test]
    fn sort_heavy_duplicates() {
        check_global_sort(4, 128, |r, i| ((r + i) % 3) as u64);
    }

    #[test]
    fn sort_single_processor() {
        check_global_sort(1, 50, |_, i| (97 * i % 53) as u64);
    }

    #[test]
    fn sort_empty_inputs() {
        let m = Machine::new(4).unwrap();
        let outs = m.run(|ctx| ctx.sort_by_key(Vec::<u64>::new(), |x| *x));
        assert!(outs.iter().all(Vec::is_empty));
    }

    #[test]
    fn sort_skewed_input_sizes() {
        let m = Machine::new(4).unwrap();
        let outs = m.run(|ctx| {
            let n = if ctx.rank() == 0 { 400 } else { 1 };
            let data: Vec<u64> = (0..n).map(|i| ((i * 37 + ctx.rank()) % 101) as u64).collect();
            ctx.sort_by_key(data, |x| *x)
        });
        let flat: Vec<u64> = outs.iter().flatten().copied().collect();
        assert_eq!(flat.len(), 403);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn balanced_sort_even_counts() {
        let m = Machine::new(4).unwrap();
        let outs = m.run(|ctx| {
            // All data on rank 0, all equal keys: worst case for sample sort.
            let data: Vec<u64> = if ctx.rank() == 0 { vec![5; 103] } else { Vec::new() };
            ctx.sort_balanced_by_key(data, |x| *x)
        });
        let counts: Vec<usize> = outs.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![26, 26, 26, 25]);
    }

    #[test]
    fn rebalance_preserves_order() {
        let m = Machine::new(4).unwrap();
        let outs = m.run(|ctx| {
            // Globally ordered sequence living entirely on rank 2.
            let data: Vec<u64> = if ctx.rank() == 2 { (0..97).collect() } else { Vec::new() };
            ctx.rebalance(data)
        });
        let flat: Vec<u64> = outs.iter().flatten().copied().collect();
        assert_eq!(flat, (0..97).collect::<Vec<u64>>());
        let counts: Vec<usize> = outs.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![25, 24, 24, 24]);
    }

    /// Regular sampling from each run's first record: no rank ends with
    /// more than 1.25·⌈n/p⌉ records, whether each rank holds its own
    /// slice of the keys, every rank holds the same strided key range (a
    /// Construct phase past the first: every rank holds records of every
    /// tree) or the keys are scattered at random.
    #[test]
    fn sort_buckets_stay_under_the_regular_sampling_bound() {
        let per_proc = 1000usize;
        let key = |input: &str, p: usize, r: usize, i: usize| match input {
            "slices" => (r * per_proc + i) as u64,
            "strided" => (i * p + r) as u64,
            _ => {
                let mut x = (r * per_proc + i) as u64 ^ 0x9e37_79b9_7f4a_7c15;
                x = (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^ (x >> 29)
            }
        };
        for p in [2usize, 4, 8] {
            for name in ["slices", "strided", "scattered"] {
                let m = Machine::new(p).unwrap();
                let outs = m.run(|ctx| {
                    let data: Vec<u64> =
                        (0..per_proc).map(|i| key(name, p, ctx.rank(), i)).collect();
                    ctx.sort_by_key(data, |x| *x)
                });
                let flat: Vec<u64> = outs.iter().flatten().copied().collect();
                assert!(flat.windows(2).all(|w| w[0] <= w[1]), "{name}, p = {p}: not sorted");
                let largest = outs.iter().map(Vec::len).max().unwrap();
                let bound = 1.25 * (p * per_proc).div_ceil(p) as f64;
                assert!(
                    largest as f64 <= bound,
                    "{name}, p = {p}: a rank holds {largest} records, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let m = Machine::new(2).unwrap();
        // Items carry (key, payload); equal keys must keep (rank, pos) order.
        let outs = m.run(|ctx| {
            let data: Vec<(u64, u64)> =
                (0..10).map(|i| (0u64, (ctx.rank() as u64) * 100 + i)).collect();
            ctx.sort_by_key(data, |x| x.0)
        });
        let flat: Vec<u64> = outs.iter().flatten().map(|x| x.1).collect();
        let expected: Vec<u64> =
            (0..2).flat_map(|r| (0..10).map(move |i| (r * 100 + i) as u64)).collect();
        assert_eq!(flat, expected);
    }
}
