//! Model-level integration tests: the claims of Corollaries 1–3 about
//! communication rounds must hold on real executions.

use ddrs::prelude::*;
use ddrs::workloads::{PointDistribution, QueryDistribution};

fn build_and_query(p: usize, n: usize) -> (RunStats, RunStats, RunStats) {
    let machine = Machine::new(p).unwrap();
    let pts: Vec<Point<2>> =
        WorkloadBuilder::new(1, n).points(PointDistribution::UniformCube { side: 1 << 20 });
    let queries = QueryWorkload::from_points(&pts, 2)
        .queries(QueryDistribution::Selectivity { fraction: 0.01 }, n / 4);
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let build = machine.take_stats();
    tree.count_batch(&machine, &queries);
    let count = machine.take_stats();
    tree.report_batch(&machine, &queries);
    let report = machine.take_stats();
    (build, count, report)
}

/// Corollary 1: construction uses a constant number of h-relations —
/// the superstep count must not depend on n.
#[test]
fn construction_rounds_constant_in_n() {
    let (b1, ..) = build_and_query(4, 256);
    let (b2, ..) = build_and_query(4, 4096);
    assert_eq!(b1.supersteps(), b2.supersteps());
    assert!(b1.supersteps() <= 16, "too many rounds: {}", b1.supersteps());
}

/// Corollaries 2–3: search/report rounds constant in n.
#[test]
fn query_rounds_constant_in_n() {
    let (_, c1, r1) = build_and_query(4, 256);
    let (_, c2, r2) = build_and_query(4, 4096);
    assert_eq!(c1.supersteps(), c2.supersteps());
    assert_eq!(r1.supersteps(), r2.supersteps());
    assert!(c1.supersteps() <= 16 && r1.supersteps() <= 16);
}

/// Rounds are also constant in p, for p > 1. At p = 1 a collective sort
/// is a local sort, with no sample all-gather and no bucket exchange, so
/// Construct runs 3·d supersteps there, not 5·d (`repro t2` prints 6
/// against 10 at d = 2).
#[test]
fn rounds_constant_in_p() {
    let (b2, c2, r2) = build_and_query(2, 1024);
    let (b8, c8, r8) = build_and_query(8, 1024);
    assert_eq!(b2.supersteps(), b8.supersteps());
    assert_eq!(c2.supersteps(), c8.supersteps());
    assert_eq!(r2.supersteps(), r8.supersteps());
}

/// h-relations stay within a constant factor of s/p: no superstep moves
/// a constant fraction of the whole structure through one processor.
#[test]
fn h_relations_bounded_by_s_over_p() {
    let p = 8;
    let n = 4096;
    let machine = Machine::new(p).unwrap();
    let pts: Vec<Point<2>> =
        WorkloadBuilder::new(3, n).points(PointDistribution::UniformCube { side: 1 << 20 });
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let build = machine.take_stats();
    let rep = tree.structure_report();
    // s in words ≈ total nodes × a small constant; h must be O(s/p).
    let s_words = rep.total_nodes * 4;
    assert!(
        build.max_h() <= s_words / p as u64 * 8,
        "build h = {} exceeds O(s/p) = {}",
        build.max_h(),
        s_words / p as u64
    );
}

/// The per-label superstep breakdown exposes the algorithm structure:
/// construction must contain exactly d sort rounds (plus their sample
/// exchanges), d deals and d root broadcasts.
#[test]
fn construction_superstep_structure() {
    let machine = Machine::new(4).unwrap();
    let pts: Vec<Point<2>> =
        WorkloadBuilder::new(4, 512).points(PointDistribution::UniformCube { side: 4096 });
    DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let stats = machine.take_stats();
    let by: Vec<(&str, usize, u64)> = stats.by_label();
    let count_of = |label: &str| by.iter().find(|(l, ..)| *l == label).map_or(0, |(_, n, _)| *n);
    assert_eq!(count_of("sort"), 2, "one sort exchange per dimension: {by:?}");
    assert_eq!(count_of("all_to_all"), 2, "one deal per dimension: {by:?}");
    // all_gather: d sample rounds + d scans + d summary broadcasts.
    assert!(count_of("all_gather") >= 4, "{by:?}");
}

/// Identical machines and inputs give identical statistics
/// (determinism of the whole pipeline).
#[test]
fn stats_are_deterministic() {
    let (b1, c1, r1) = build_and_query(4, 512);
    let (b2, c2, r2) = build_and_query(4, 512);
    assert_eq!(b1.rounds, b2.rounds);
    assert_eq!(c1.rounds, c2.rounds);
    assert_eq!(r1.rounds, r2.rounds);
}
