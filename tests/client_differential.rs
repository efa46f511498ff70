//! The generic differential test of the unified client API: ONE driver,
//! written entirely against `Box<dyn RangeStore>`, proves
//!
//! ```text
//!   InlineStore ≡ ShardedService (S = 1, S > 1) ≡ RemoteStore ≡ sequential oracle
//! ```
//!
//! on the same mixed request stream — same values, same write verdicts,
//! same **absolute** commit sequence numbers — including composed
//! multi-op `Request`s (writes + fused reads in one unit), which the
//! per-backend predecessor (`shard_vs_single`) could not express. The
//! driver never names a concrete backend type: the trait object IS the
//! test surface. The remote backends run the same driver **over a real
//! TCP loopback connection** — encode, frame, decode, submit, resolve,
//! encode, frame, decode — and must be bit-identical to the in-process
//! stores, absolute seqs included.

use std::time::Duration;

use proptest::prelude::*;

use ddrs::client::{Request, Ticket};
use ddrs::net::{NetConfig, NetServer, RemoteConfig, RemoteStore};
use ddrs::prelude::*;

mod common;
use common::Oracle;

type RawPoint = (i64, i64, u64);
type RawRect = ((i64, i64), (i64, i64));

fn to_point(raw: RawPoint, id: u32) -> Point<2> {
    let (x, y, w) = raw;
    Point::weighted([x, y], id, 1 + w % 9)
}

fn to_rect(raw: RawRect) -> Rect<2> {
    let ((x0, y0), (x1, y1)) = raw;
    Rect::new([x0.min(x1), y0.min(y1)], [x0.max(x1), y0.max(y1)])
}

/// A served store plus the client that reaches it over loopback; keeps
/// the server alive for the store's lifetime. Declared client-first so
/// the pool closes before the server drains.
struct RemoteBackend {
    client: RemoteStore<Sum, 2>,
    _server: NetServer<Sum, 2>,
}

impl RangeStore<Sum, 2> for RemoteBackend {
    fn submit(&self, req: Request<Sum, 2>) -> Result<Ticket<Response<Sum>>, SubmitError> {
        self.client.submit(req)
    }
}

/// Serve `store` on an ephemeral loopback port and connect a client.
fn remote(store: Box<dyn RangeStore<Sum, 2> + Send + Sync>) -> RemoteBackend {
    let server = NetServer::serve(store, "127.0.0.1:0", NetConfig::default()).unwrap();
    let client = RemoteStore::connect(server.local_addr(), RemoteConfig::default()).unwrap();
    RemoteBackend { client, _server: server }
}

/// Every backend, behind the one trait the test drives.
fn backends(
    p: usize,
    s: usize,
    initial: &[Point<2>],
) -> Vec<(&'static str, Box<dyn RangeStore<Sum, 2>>)> {
    let machine = Machine::new(p).unwrap();
    let mut tree = DynamicDistRangeTree::<2>::new(8);
    if !initial.is_empty() {
        tree.insert_batch(&machine, initial).unwrap();
    }
    let inline = InlineStore::new(machine, tree, Sum);

    let service = ShardedService::start(
        vec![Machine::new(p).unwrap()],
        8,
        initial,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(100),
            ..Default::default()
        },
    )
    .unwrap();

    let machines: Vec<Machine> = (0..s).map(|_| Machine::new(p).unwrap()).collect();
    let sharded_range = ShardedService::start(
        machines,
        8,
        initial,
        Sum,
        PartitionPolicy::range_from_sample(s, initial),
        ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(100),
            ..Default::default()
        },
    )
    .unwrap();

    let machines: Vec<Machine> = (0..s).map(|_| Machine::new(p).unwrap()).collect();
    let sharded_hash = ShardedService::start(
        machines,
        8,
        initial,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(100),
            ..Default::default()
        },
    )
    .unwrap();

    let remote_service = remote(Box::new(
        ShardedService::start(
            vec![Machine::new(p).unwrap()],
            8,
            initial,
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig {
                max_batch: 16,
                max_delay: Duration::from_micros(100),
                ..Default::default()
            },
        )
        .unwrap(),
    ));

    let machines: Vec<Machine> = (0..s).map(|_| Machine::new(p).unwrap()).collect();
    let remote_sharded = remote(Box::new(
        ShardedService::start(
            machines,
            8,
            initial,
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig {
                max_batch: 16,
                max_delay: Duration::from_micros(100),
                ..Default::default()
            },
        )
        .unwrap(),
    ));

    vec![
        ("inline", Box::new(inline)),
        ("service", Box::new(service)),
        ("sharded-range", Box::new(sharded_range)),
        ("sharded-hash", Box::new(sharded_hash)),
        ("remote-service", Box::new(remote_service)),
        ("remote-sharded", Box::new(remote_sharded)),
    ]
}

/// One differential case: single ops and composed multi-op requests,
/// interleaved, every outcome compared across all backends and the
/// oracle — values, verdicts and absolute commit seqs.
fn run_case(p: usize, s: usize, raw_pts: Vec<RawPoint>, ops: Vec<(u8, RawRect, usize)>) {
    let all_pts: Vec<Point<2>> =
        raw_pts.iter().enumerate().map(|(i, &r)| to_point(r, i as u32)).collect();
    let half = all_pts.len() / 2;
    let initial = &all_pts[..half];
    let mut fresh = all_pts[half..].iter();

    let mut oracle = Oracle::new(initial);
    let stores = backends(p, s, initial);

    for (kind, raw_rect, pick) in ops {
        let q = to_rect(raw_rect);
        match kind % 6 {
            0 => {
                let want = (oracle.count(&q), oracle.next_seq());
                for (name, store) in &stores {
                    let got = store.count(q).unwrap().wait().unwrap();
                    assert_eq!((got.value, got.seq), want, "{name}: count diverged");
                }
            }
            1 => {
                let want = (oracle.aggregate(&q), oracle.next_seq());
                for (name, store) in &stores {
                    let got = store.aggregate(q).unwrap().wait().unwrap();
                    assert_eq!((got.value, got.seq), want, "{name}: aggregate diverged");
                }
            }
            2 => {
                let want = (oracle.report(&q), oracle.next_seq());
                for (name, store) in &stores {
                    let got = store.report(q).unwrap().wait().unwrap();
                    assert_eq!(
                        (got.value, got.seq),
                        (want.0.clone(), want.1),
                        "{name}: report diverged"
                    );
                }
            }
            3 => {
                // Single-op write through the convenience path.
                let batch: Vec<Point<2>> = fresh.by_ref().take(1 + pick % 3).copied().collect();
                let batch = if batch.is_empty() && !oracle.pts.is_empty() {
                    // Starved: re-insert a live id, a guaranteed rejection.
                    vec![oracle.pts[pick % oracle.pts.len()]]
                } else {
                    batch
                };
                if batch.is_empty() {
                    continue;
                }
                let want = oracle.insert(&batch).map(|()| oracle.next_seq());
                for (name, store) in &stores {
                    let got = store.insert(batch.clone()).unwrap().wait();
                    match &want {
                        Ok(seq) => {
                            assert_eq!(
                                got.as_ref().map(|c| c.seq),
                                Ok(*seq),
                                "{name}: insert commit diverged"
                            );
                        }
                        Err(e) => assert_eq!(
                            got,
                            Err(ServiceError::Rejected(e.clone())),
                            "{name}: insert verdict diverged"
                        ),
                    }
                }
            }
            4 => {
                if oracle.pts.is_empty() {
                    continue;
                }
                let n = oracle.pts.len();
                let mut ids: Vec<u32> =
                    [pick % n, (pick + 5) % n].iter().map(|&i| oracle.pts[i].id).collect();
                ids.push(u32::MAX - 1); // missing id: a no-op everywhere
                oracle.delete(&ids);
                let want = oracle.next_seq();
                for (name, store) in &stores {
                    let got = store.delete(ids.clone()).unwrap().wait().unwrap();
                    assert_eq!(got.seq, want, "{name}: delete commit diverged");
                }
            }
            5 => {
                // A composed multi-op request: a write, then three reads
                // of different modes, submitted as one unit.
                let batch: Vec<Point<2>> = fresh.by_ref().take(1 + pick % 2).copied().collect();
                let grow = to_rect(((raw_rect.0 .0 - 8, raw_rect.0 .1 - 8), raw_rect.1));
                // Oracle, in request order: the write first, then the
                // reads against the post-write state.
                let w_want = if batch.is_empty() {
                    None
                } else {
                    Some(match oracle.insert(&batch) {
                        Ok(()) => {
                            oracle.next_seq();
                            Ok(())
                        }
                        Err(e) => Err(ServiceError::Rejected(e)),
                    })
                };
                let want_count = oracle.count(&q);
                let want_agg = oracle.aggregate(&grow);
                let want_report = oracle.report(&q);
                let mut last_seq = 0;
                for _ in 0..3 {
                    last_seq = oracle.next_seq();
                }
                for (name, store) in &stores {
                    let mut req = Request::new();
                    let w = w_want.as_ref().map(|_| req.insert(batch.clone()));
                    let c = req.count(q);
                    let a = req.aggregate(grow);
                    let r = req.report(q);
                    let got = store.submit(req).unwrap().wait().unwrap();
                    if let (Some(w), Some(want)) = (w, &w_want) {
                        assert_eq!(got.value.write(w), want, "{name}: request write verdict");
                    }
                    assert_eq!(got.value.count(c), want_count, "{name}: request count");
                    assert_eq!(got.value.aggregate(a), &want_agg, "{name}: request aggregate");
                    assert_eq!(got.value.report(r), want_report, "{name}: request report");
                    assert_eq!(got.seq, last_seq, "{name}: request commit position");
                }
            }
            _ => unreachable!(),
        }
    }

    // Final state: every backend's full id set equals the oracle's, read
    // through the trait itself.
    let everything = Rect::new([i64::MIN, i64::MIN], [i64::MAX, i64::MAX]);
    let want = oracle.report(&everything);
    for (name, store) in &stores {
        let got = store.report(everything).unwrap().wait().unwrap();
        assert_eq!(got.value, want, "{name}: final store diverged");
    }
}

/// A queue deadline too long to represent as an `Instant` (or, on the
/// wire, in `u64` microseconds) never expires: the request commits on
/// every backend.
#[test]
fn a_deadline_too_long_to_represent_commits() {
    let initial: Vec<Point<2>> = (0..16).map(|i| to_point((i, 63 - i, 0), i as u32)).collect();
    let everything = Rect::new([0, 0], [63, 63]);
    let forever = Some(Duration::MAX);
    for (name, store) in backends(2, 2, &initial) {
        let w = store.insert_within(vec![to_point((7, 7, 0), 99)], forever).unwrap().wait();
        assert_eq!(w.map(|c| c.seq), Ok(0), "{name}: insert under an unbounded deadline");
        let c = store.count_within(everything, forever).unwrap().wait().unwrap();
        assert_eq!((c.value, c.seq), (17, 1), "{name}: count under an unbounded deadline");
    }
}

fn arb_raw_points() -> impl Strategy<Value = Vec<RawPoint>> {
    prop::collection::vec((0i64..64, 0i64..64, 0u64..50), 8..32)
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, RawRect, usize)>> {
    prop::collection::vec(
        (0u8..255, ((0i64..64, 0i64..64), (0i64..64, 0i64..64)), 0usize..1000),
        10..22,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn all_backends_equal_the_oracle(
        shape in (0usize..2, 0usize..2),
        pts in arb_raw_points(),
        ops in arb_ops(),
    ) {
        let (pi, si) = shape;
        run_case([1usize, 2][pi], [2usize, 3][si], pts, ops);
    }
}
