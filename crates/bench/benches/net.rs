//! Criterion benches for the TCP network front-end:
//!
//! * `net/encode_request` — serializing a 64-op multi-op request into
//!   one CRC-framed wire frame (the client-side cost every submission
//!   pays before the socket),
//! * `net/decode_request` — the server-side inverse, rebuilding the
//!   request through the public builder API with full bounds checking,
//! * `net/roundtrip_loopback` — one pipelined window of 16 multi-op
//!   requests submitted through a `RemoteStore` and resolved over a
//!   real loopback connection against an `InlineStore`.
//!
//! `stackbench`'s `served_block_reads` workload measures the closed-loop
//! throughput of the same stack; its layer ladder's last rung is the
//! remote-minus-in-process difference.

use criterion::{criterion_group, criterion_main, Criterion};

use ddrs_bench::uniform_points;
use ddrs_cgm::Machine;
use ddrs_client::{InlineStore, RangeStore, Request};
use ddrs_net::codec::{decode_request, encode_request, FRAME_HEADER};
use ddrs_net::{NetConfig, NetServer, RemoteConfig, RemoteStore};
use ddrs_rangetree::{DynamicDistRangeTree, Point, Rect, Sum};

fn sample_request(ops: usize) -> Request<Sum, 2> {
    let mut req = Request::new();
    for i in 0..ops as i64 {
        req.count(Rect::new([i, i], [i + 64, i + 64]));
    }
    req
}

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net");
    g.sample_size(10);

    let req = sample_request(64);
    g.bench_function("encode_request", |b| {
        b.iter(|| encode_request(7, &req).len());
    });

    let frame = encode_request(7, &req);
    g.bench_function("decode_request", |b| {
        b.iter(|| decode_request::<Sum, 2>(&frame[FRAME_HEADER..]).unwrap().1.len());
    });

    let pts: Vec<Point<2>> = uniform_points(11, 1 << 10);
    let machine = Machine::new(2).unwrap();
    let mut tree = DynamicDistRangeTree::<2>::new(64);
    tree.insert_batch(&machine, &pts).unwrap();
    let store = InlineStore::new(machine, tree, Sum);
    let server = NetServer::serve(Box::new(store), "127.0.0.1:0", NetConfig::default()).unwrap();
    let remote: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 1 }).unwrap();
    g.bench_function("roundtrip_loopback", |b| {
        b.iter(|| {
            let tickets: Vec<_> =
                (0..16).map(|_| remote.submit(sample_request(8)).unwrap()).collect();
            tickets.into_iter().map(|t| t.wait().unwrap().seq).max()
        });
    });
    g.finish();
    drop(remote);
    server.shutdown();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
