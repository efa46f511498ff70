//! Cost-model validation: the analytic predictions of
//! `ddrs_cgm::model` must match the measured executions — exact for
//! superstep counts, within a small constant factor for volumes.

use ddrs::cgm::model::{predict_construct, predict_report, predict_search, CostParams};
use ddrs::cgm::Payload;
use ddrs::prelude::*;
use ddrs::rangetree::RPoint;
use ddrs::workloads::{PointDistribution, QueryDistribution};

fn setup(p: usize, n: usize) -> (Machine, Vec<Point<2>>, Vec<ddrs::rangetree::Rect<2>>) {
    let machine = Machine::new(p).unwrap();
    let pts: Vec<Point<2>> =
        WorkloadBuilder::new(1, n).points(PointDistribution::UniformCube { side: 1 << 20 });
    let queries = QueryWorkload::from_points(&pts, 2)
        .queries(QueryDistribution::Selectivity { fraction: 0.005 }, n / 4);
    (machine, pts, queries)
}

#[test]
fn construct_supersteps_match_prediction_exactly() {
    for (p, n) in [(2usize, 1024usize), (8, 4096), (16, 4096)] {
        let (machine, pts, _) = setup(p, n);
        DistRangeTree::<2>::build(&machine, &pts).unwrap();
        let measured = machine.take_stats();
        let predicted = predict_construct(&CostParams { p, n, d: 2 });
        assert_eq!(measured.supersteps(), predicted.supersteps, "construct rounds p={p} n={n}");
    }
}

#[test]
fn search_supersteps_match_prediction_exactly() {
    for p in [2usize, 8] {
        let (machine, pts, queries) = setup(p, 2048);
        let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
        machine.take_stats();
        tree.count_batch(&machine, &queries);
        let measured = machine.take_stats();
        let predicted = predict_search(&CostParams { p, n: 2048, d: 2 }, queries.len());
        assert_eq!(measured.supersteps(), predicted.supersteps, "search rounds p={p}");
    }
}

#[test]
fn report_supersteps_match_prediction_exactly() {
    let p = 8;
    let (machine, pts, queries) = setup(p, 2048);
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
    machine.take_stats();
    let shares = tree.report_batch_raw(&machine, &queries);
    let measured = machine.take_stats();
    let k: u64 = shares.iter().map(|s| s.len() as u64).sum();
    let predicted = predict_report(&CostParams { p, n: 2048, d: 2 }, queries.len(), k);
    assert_eq!(measured.supersteps(), predicted.supersteps, "report rounds");
}

/// Volumes: measured h (converted from words to ~records) stays within a
/// small constant of the predicted per-round volume.
#[test]
fn construct_volume_within_constant_of_prediction() {
    let (p, n) = (8usize, 1usize << 13);
    let (machine, pts, _) = setup(p, n);
    DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let measured = machine.take_stats();
    let predicted = predict_construct(&CostParams { p, n, d: 2 });
    // The largest h-relation is the deal's: what one dealt record, a
    // `(tree key, point)` phase record and its group index, weighs.
    let record = (0u64, 0u32, RPoint::<2> { ranks: [0; 2], id: 0, weight: 0 });
    let measured_records = measured.max_h() as f64 / record.words() as f64;
    assert!(
        measured_records <= 4.0 * predicted.max_volume,
        "measured ~{measured_records:.0} records vs predicted {:.0}",
        predicted.max_volume
    );
    assert!(
        measured_records >= predicted.max_volume / 16.0,
        "prediction wildly overestimates: measured ~{measured_records:.0} vs {:.0}",
        predicted.max_volume
    );
}
