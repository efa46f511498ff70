//! Property tests for the fused mixed-mode engine: a heterogeneous
//! `QueryBatch` must agree with the per-mode APIs (the same SPMD program
//! in its single-mode shapes, one submission each) and with a sequential
//! oracle, across machine sizes `p ∈ {1, 2, 4, 8}`, dimensions
//! `d ∈ {1, 2, 3}`, static trees and dynamic stores mid-cascade — all in
//! exactly one machine submission per executed batch. Plus executor
//! regressions: processor panics are errors, not aborts, and the machine
//! survives them.

use proptest::prelude::*;

use ddrs::cgm::CgmError;
use ddrs::prelude::*;

type RawPoint = (i64, i64, i64, u64);
type RawRect = ((i64, i64, i64), (i64, i64, i64));

fn to_points<const D: usize>(raw: &[RawPoint]) -> Vec<Point<D>> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y, z, w))| {
            let all = [x, y, z];
            let mut coords = [0i64; D];
            coords.copy_from_slice(&all[..D]);
            Point::weighted(coords, i as u32, w)
        })
        .collect()
}

fn to_rect<const D: usize>(raw: &RawRect) -> Rect<D> {
    let a = [raw.0 .0, raw.0 .1, raw.0 .2];
    let b = [raw.1 .0, raw.1 .1, raw.1 .2];
    let mut lo = [0i64; D];
    let mut hi = [0i64; D];
    for j in 0..D {
        lo[j] = a[j].min(b[j]);
        hi[j] = a[j].max(b[j]);
    }
    Rect::new(lo, hi)
}

/// Sequential oracle: `(count, weight sum, sorted ids)` by linear scan.
fn oracle<const D: usize>(pts: &[Point<D>], q: &Rect<D>) -> (u64, Option<u64>, Vec<u32>) {
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut ids = Vec::new();
    for p in pts {
        if q.contains(p) {
            count += 1;
            sum += p.weight;
            ids.push(p.id);
        }
    }
    ids.sort_unstable();
    (count, (count > 0).then_some(sum), ids)
}

fn check_outputs<const D: usize>(
    out: &BatchResults<Sum>,
    pts: &[Point<D>],
    queries: &[Rect<D>],
    what: &str,
) {
    for (i, q) in queries.iter().enumerate() {
        let (c, s, ids) = oracle(pts, q);
        assert_eq!(out.counts[i], c, "{what}: count of query {i}");
        assert_eq!(out.aggregates[i], s, "{what}: sum of query {i}");
        assert_eq!(out.reports[i], ids, "{what}: report of query {i}");
    }
}

/// The full agreement check for one generated instance.
fn check_fused<const D: usize>(raw_pts: Vec<RawPoint>, raw_qs: Vec<RawRect>, p: usize) {
    let machine = Machine::new(p).unwrap();
    let pts = to_points::<D>(&raw_pts);
    let queries: Vec<Rect<D>> = raw_qs.iter().map(to_rect::<D>).collect();

    let mut batch = QueryBatch::new(Sum);
    for q in &queries {
        batch.count(*q);
        batch.aggregate(*q);
        batch.report(*q);
    }

    // Static tree: fused vs oracle vs per-mode, in one submission.
    let tree = DistRangeTree::<D>::build(&machine, &pts).unwrap();
    machine.take_stats();
    let out = batch.execute(&machine, &tree);
    assert_eq!(machine.take_stats().runs, 1, "static fused batch is one run");
    check_outputs(&out, &pts, &queries, "static");
    assert_eq!(out.counts, tree.count_batch(&machine, &queries));
    assert_eq!(out.aggregates, tree.aggregate_batch(&machine, Sum, &queries));
    assert_eq!(out.reports, tree.report_batch(&machine, &queries));

    // Dynamic store mid-cascade: three uneven insert waves leave the
    // logarithmic-method counter in a non-trivial state.
    let mut store = DynamicDistRangeTree::<D>::new(4);
    let n = pts.len();
    for chunk in [&pts[..n / 2], &pts[n / 2..n - n / 4], &pts[n - n / 4..]] {
        store.insert_batch(&machine, chunk).unwrap();
    }
    machine.take_stats();
    let dyn_out = batch.execute_dynamic(&machine, &store);
    let stats = machine.take_stats();
    assert!(stats.runs <= 1, "dynamic fused batch is at most one run (zero when empty)");
    check_outputs(&dyn_out, &pts, &queries, "dynamic");
    assert_eq!(dyn_out.counts, store.count_batch(&machine, &queries));
    assert_eq!(dyn_out.aggregates, store.aggregate_batch(&machine, Sum, &queries));
    assert_eq!(dyn_out.reports, store.report_batch(&machine, &queries));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fused_matches_oracle_1d(
        raw_pts in prop::collection::vec((0i64..40, 0i64..40, 0i64..40, 1u64..50), 2..50),
        raw_qs in prop::collection::vec(
            ((0i64..40, 0i64..40, 0i64..40), (0i64..40, 0i64..40, 0i64..40)), 1..8),
        p_log in 0u32..4,
    ) {
        check_fused::<1>(raw_pts, raw_qs, 1 << p_log);
    }

    #[test]
    fn fused_matches_oracle_2d(
        raw_pts in prop::collection::vec((0i64..40, 0i64..40, 0i64..40, 1u64..50), 2..50),
        raw_qs in prop::collection::vec(
            ((0i64..40, 0i64..40, 0i64..40), (0i64..40, 0i64..40, 0i64..40)), 1..8),
        p_log in 0u32..4,
    ) {
        check_fused::<2>(raw_pts, raw_qs, 1 << p_log);
    }

    #[test]
    fn fused_matches_oracle_3d(
        raw_pts in prop::collection::vec((0i64..24, 0i64..24, 0i64..24, 1u64..50), 2..40),
        raw_qs in prop::collection::vec(
            ((0i64..24, 0i64..24, 0i64..24), (0i64..24, 0i64..24, 0i64..24)), 1..6),
        p_log in 0u32..4,
    ) {
        check_fused::<3>(raw_pts, raw_qs, 1 << p_log);
    }
}

/// A panicking program is an `Err`, not an abort, and the machine —
/// including a tree already built on it — keeps working afterwards.
#[test]
fn processor_panic_is_recoverable_end_to_end() {
    let machine = Machine::new(4).unwrap();
    let pts: Vec<Point<2>> = (0..64).map(|i| Point::new([i, 63 - i], i as u32)).collect();
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();

    let err = machine
        .try_run(|ctx| {
            if ctx.rank() == 3 {
                panic!("injected fault");
            }
            // Siblings block in a collective and must be released.
            ctx.all_reduce_sum(1)
        })
        .unwrap_err();
    match err {
        CgmError::ProcessorPanicked { rank, payload } => {
            assert_eq!(rank, 3);
            assert!(payload.contains("injected fault"));
        }
        other => panic!("unexpected error: {other:?}"),
    }

    // The machine is still good for real query work.
    machine.take_stats();
    let counts = tree.count_batch(&machine, &[Rect::new([0, 0], [31, 63])]);
    assert_eq!(counts, vec![32]);
    assert_eq!(machine.take_stats().runs, 1);
}

/// Empty batches cost nothing at every layer of the stack.
#[test]
fn empty_batches_skip_dispatch_everywhere() {
    let machine = Machine::new(4).unwrap();
    let pts: Vec<Point<2>> = (0..32).map(|i| Point::new([i, i], i as u32)).collect();
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let mut store = DynamicDistRangeTree::<2>::new(8);
    store.insert_batch(&machine, &pts).unwrap();
    machine.take_stats();

    let no_queries: [Rect<2>; 0] = [];
    assert!(tree.count_batch(&machine, &no_queries).is_empty());
    assert!(tree.aggregate_batch(&machine, Sum, &no_queries).is_empty());
    assert!(tree.report_batch(&machine, &no_queries).is_empty());
    assert!(store.count_batch(&machine, &no_queries).is_empty());
    let batch: QueryBatch<Sum, 2> = QueryBatch::new(Sum);
    batch.execute(&machine, &tree);
    batch.execute_dynamic(&machine, &store);

    let stats = machine.take_stats();
    assert_eq!(stats.runs, 0, "no dispatch for empty batches");
    assert_eq!(stats.supersteps(), 0, "no communication for empty batches");
}
