//! Criterion benches for the sharded scatter-gather router.
//!
//! The scaling contrast: the same 8-client closed-loop query load
//! against
//!
//! * `shard/s4` — four range-partitioned shard groups answering
//!   per-shard fused sub-batches concurrently, vs
//! * `shard/s1` — one group behind the same router (the router-overhead
//!   baseline: identical code path, no partition parallelism).
//!
//! `stackbench`'s layer ladder measures the same contrast on its S = 1
//! and S = 2 rungs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use ddrs_bench::uniform_points;
use ddrs_cgm::Machine;
use ddrs_client::RangeStore;
use ddrs_rangetree::{Point, Rect, Sum};
use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
use ddrs_workloads::{QueryDistribution, QueryWorkload};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 64;

fn start_sharded(shards: usize, pts: &[Point<2>]) -> ShardedService<Sum, 2> {
    let machines: Vec<Machine> = (0..shards).map(|_| Machine::new(2).unwrap()).collect();
    ShardedService::start(
        machines,
        1 << 9,
        pts,
        Sum,
        PartitionPolicy::range_from_sample(shards, pts),
        ShardedConfig {
            max_batch: 128,
            max_delay: Duration::from_micros(200),
            ..ShardedConfig::default()
        },
    )
    .expect("bench store build")
}

fn client_queries(pts: &[Point<2>]) -> Vec<Vec<Rect<2>>> {
    let qw = QueryWorkload::from_points(pts, 93);
    let all =
        qw.queries(QueryDistribution::Selectivity { fraction: 0.01 }, CLIENTS * QUERIES_PER_CLIENT);
    all.chunks(QUERIES_PER_CLIENT).map(<[Rect<2>]>::to_vec).collect()
}

fn bench_shard_scaling(c: &mut Criterion) {
    let pts: Vec<Point<2>> = uniform_points(51, 1 << 12);
    let per_client = client_queries(&pts);

    let mut g = c.benchmark_group("shard");
    g.sample_size(10);
    for shards in [1usize, 4] {
        let service = start_sharded(shards, &pts);
        g.bench_function(format!("s{shards}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for queries in &per_client {
                        let service = &service;
                        s.spawn(move || {
                            let tickets: Vec<_> =
                                queries.iter().map(|q| service.count(*q).unwrap()).collect();
                            tickets.into_iter().map(|t| t.wait().unwrap().value).sum::<u64>()
                        });
                    }
                });
            });
        });
        let stats = service.stats();
        assert!(
            stats.mean_batch_size() > 1.0,
            "coalescing must be visible at s={shards}: mean batch {}",
            stats.mean_batch_size()
        );
        println!(
            "shard s={shards}: mean batch {:.1}, {:.1} queries/run, runs {}, \
             fanout {:.2} ({} shards touched / {} routed reads), p50 {}µs p99 {}µs",
            stats.mean_batch_size(),
            stats.coalescing_factor(),
            stats.machine.runs,
            stats.mean_read_fanout(),
            stats.read_shards_touched,
            stats.read_ops_routed,
            stats.p50_latency_us(),
            stats.p99_latency_us(),
        );
        println!(
            "shard s={shards}: per-shard runs {:?}",
            stats.per_shard.iter().map(|s| s.machine.runs).collect::<Vec<_>>()
        );
        service.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
