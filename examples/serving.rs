//! The serving layer end to end: concurrent clients, micro-batch
//! coalescing, epoch-scheduled updates and the telemetry surface.
//!
//! Eight client threads fire mixed read/write traffic at a one-machine
//! `ShardedService` fronting a dynamic distributed range tree on an
//! 8-processor machine. None of them ever assembles a batch — the
//! scheduler group-commits their small independent requests into few
//! fused SPMD runs, and the final stats show the coalescing leverage.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::time::Duration;

use ddrs::prelude::*;
use ddrs::workloads::{request_stream, submit_op, QueryDistribution, RequestMix};

fn main() {
    let p = 8;
    let clients = 8;
    let machine = Machine::new(p).unwrap();

    // Seed the store with 4096 points; keep another 1024 aside as fresh
    // inserts for the write traffic.
    let all: Vec<Point<2>> =
        WorkloadBuilder::new(3, 5120).points(PointDistribution::UniformCube { side: 1 << 16 });
    let (seed_pts, fresh) = all.split_at(4096);

    let service = ShardedService::start(
        vec![machine],
        1 << 8,
        seed_pts,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 96,
            max_delay: Duration::from_micros(250),
            ..ShardedConfig::default()
        },
    )
    .unwrap();

    // Open-loop mixed traffic: Poisson arrivals at 30k req/s, 1 write
    // per 16 requests.
    let trace = ArrivalTrace::generate(7, ArrivalProcess::Poisson { rate_hz: 30_000.0 }, 1200);
    let qw = QueryWorkload::from_points(seed_pts, 11);
    let stream = request_stream(
        19,
        &trace,
        &qw,
        QueryDistribution::Selectivity { fraction: 0.01 },
        RequestMix { mode_weights: (2, 1, 1), write_every: 16, write_batch: 8 },
        fresh,
    );

    let start = std::time::Instant::now();
    let served = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for k in 0..clients {
            let (service, stream, served) = (&service, &stream, &served);
            s.spawn(move || {
                for timed in stream.iter().skip(k).step_by(clients) {
                    let target = start + timed.at;
                    let now = std::time::Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    // One shared driver for every op shape and every
                    // backend: the stream rides the `RangeStore` trait.
                    submit_op(service, &timed.op).unwrap().wait().expect("request failed");
                    served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    let wall = start.elapsed();
    let stats = service.stats();
    let (machine, tree) = service.shutdown().pop().expect("one machine, one shard group");

    let served = served.into_inner();
    println!("served {served} requests from {clients} clients in {wall:.2?}");
    println!("  throughput            {:>10.0} req/s", served as f64 / wall.as_secs_f64());
    println!("  read dispatches       {:>10}", stats.dispatches);
    println!("  write epochs          {:>10}", stats.write_epochs);
    println!("  machine runs          {:>10}", stats.machine.runs);
    println!("  mean batch size       {:>10.1}", stats.mean_batch_size());
    println!("  queries per run       {:>10.1}", stats.coalescing_factor());
    println!(
        "  p50 / p99 latency     {:>6}µs / {}µs",
        stats.p50_latency_us(),
        stats.p99_latency_us()
    );
    println!("  batch-size histogram  {:?}", stats.batch_sizes.nonzero_buckets());
    println!("final store: {} live points on a p={} machine", tree.len(), machine.p());
}
