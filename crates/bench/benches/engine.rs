//! Criterion benches for the engine layer.
//!
//! Two contrasts, matching the two halves of the persistent-executor /
//! fused-engine change:
//!
//! * `engine/fused` vs `engine/per_mode`: one fused mixed-mode
//!   submission against a multi-level dynamic store vs three per-mode
//!   dispatches over the same queries (the pre-engine shape; before the
//!   fusion each of those was itself one run *per level*);
//! * `executor/persistent_pool` vs `executor/spawn_per_run`: repeated
//!   small batches on the reusable rank-pinned worker pool vs paying an
//!   OS thread spawn per processor per batch, which is what every
//!   `Machine::run` used to cost.

use criterion::{criterion_group, criterion_main, Criterion};

use ddrs_bench::uniform_points;
use ddrs_cgm::Machine;
use ddrs_rangetree::{DynamicDistRangeTree, Point, QueryBatch, Sum};
use ddrs_workloads::{QueryDistribution, QueryMode, QueryWorkload};

fn bench_fused_vs_per_mode(c: &mut Criterion) {
    let p = 8;
    let machine = Machine::new(p).unwrap();
    let pts: Vec<Point<2>> = uniform_points(21, 1 << 12);
    // Three insert waves with strictly shrinking sizes: each lands in a
    // distinct (empty) level, leaving three occupied levels.
    let mut tree = DynamicDistRangeTree::<2>::new(1 << 9);
    tree.insert_batch(&machine, &pts[..2048]).unwrap();
    tree.insert_batch(&machine, &pts[2048..3072]).unwrap();
    tree.insert_batch(&machine, &pts[3072..3584]).unwrap();
    assert_eq!(tree.occupied_levels(), 3);

    let mixed = QueryWorkload::from_points(&pts, 31).mixed(
        QueryDistribution::Selectivity { fraction: 0.01 },
        (1, 1, 1),
        512,
    );
    let mut batch = QueryBatch::new(Sum);
    let (mut counts, mut aggs, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    for q in &mixed {
        match q.mode {
            QueryMode::Count => {
                batch.count(q.rect);
                counts.push(q.rect);
            }
            QueryMode::Aggregate => {
                batch.aggregate(q.rect);
                aggs.push(q.rect);
            }
            QueryMode::Report => {
                batch.report(q.rect);
                reports.push(q.rect);
            }
        }
    }

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("fused", |b| {
        b.iter(|| batch.execute_dynamic(&machine, &tree));
    });
    g.bench_function("per_mode", |b| {
        b.iter(|| {
            (
                tree.count_batch(&machine, &counts),
                tree.aggregate_batch(&machine, Sum, &aggs),
                tree.report_batch(&machine, &reports),
            )
        });
    });
    g.finish();
}

/// The old `Machine::run` cost per batch: spawn `p` scoped threads, run a
/// trivial per-rank program, join. Used as the baseline the persistent
/// pool is measured against.
fn spawn_per_run(p: usize) -> u64 {
    let barrier = std::sync::Barrier::new(p);
    let total = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for rank in 0..p {
            let barrier = &barrier;
            let total = &total;
            s.spawn(move || {
                barrier.wait();
                total.fetch_add(rank as u64, std::sync::atomic::Ordering::Relaxed);
                barrier.wait();
            });
        }
    });
    total.into_inner()
}

fn bench_executor(c: &mut Criterion) {
    let p = 8;
    let machine = Machine::new(p).unwrap();
    let mut g = c.benchmark_group("executor");
    g.sample_size(20);
    // Repeated small batches: the shape that exposed the thread-spawn tax.
    g.bench_function("persistent_pool", |b| {
        b.iter(|| {
            let out = machine.run(|ctx| {
                ctx.barrier();
                let s = ctx.rank() as u64;
                ctx.barrier();
                s
            });
            out.iter().sum::<u64>()
        });
    });
    g.bench_function("spawn_per_run", |b| {
        b.iter(|| spawn_per_run(p));
    });
    g.finish();
}

criterion_group!(benches, bench_fused_vs_per_mode, bench_executor);
criterion_main!(benches);
