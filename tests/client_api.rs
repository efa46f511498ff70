//! Acceptance tests for the unified client API (`ddrs-client`):
//!
//! * `Ticket<T>` is a real `Future` — polled with a hand-rolled waker
//!   and a `std::thread::park` mini-executor, no async runtime anywhere
//!   in the dependency tree;
//! * a multi-op `Request` with R reads costs exactly one fused dispatch
//!   on a one-machine service and at most one per shard on S > 1
//!   (pinned via `RunStats`);
//! * requests' writes commit before their reads (read-your-writes
//!   within a request), write verdicts are per-op data;
//! * `Consistency::AtLeast` gives read-your-writes sessions on every
//!   backend and fails cleanly on bounds from the future.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Duration;

use ddrs::client::{ticket, Consistency, Request};
use ddrs::prelude::*;

fn pts(range: std::ops::Range<u32>) -> Vec<Point<2>> {
    range
        .map(|i| Point::weighted([((i * 193) % 777) as i64, ((i * 71) % 555) as i64], i, 2))
        .collect()
}

fn service(p: usize, n: u32) -> ShardedService<Sum, 2> {
    ShardedService::start(
        vec![Machine::new(p).unwrap()],
        16,
        &pts(0..n),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { max_delay: Duration::from_micros(100), ..ShardedConfig::default() },
    )
    .unwrap()
}

fn inline(p: usize, n: u32) -> InlineStore<Sum, 2> {
    let machine = Machine::new(p).unwrap();
    let mut tree = DynamicDistRangeTree::<2>::new(16);
    tree.insert_batch(&machine, &pts(0..n)).unwrap();
    InlineStore::new(machine, tree, Sum)
}

fn sharded(s: usize, n: u32) -> ShardedService<Sum, 2> {
    let machines: Vec<Machine> = (0..s).map(|_| Machine::new(1).unwrap()).collect();
    ShardedService::start(
        machines,
        16,
        &pts(0..n),
        Sum,
        PartitionPolicy::range_uniform(s, 0, 777),
        ShardedConfig { max_delay: Duration::from_micros(100), ..ShardedConfig::default() },
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// Ticket<T>: Future
// ---------------------------------------------------------------------

/// Hand-rolled waker: flips a flag and unparks the polling thread.
struct ParkWaker {
    woken: AtomicBool,
    thread: Thread,
}

impl Wake for ParkWaker {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

/// The smallest possible executor: poll, park until woken, repeat.
fn block_on<F: Future + Unpin>(mut fut: F) -> F::Output {
    let pw = Arc::new(ParkWaker { woken: AtomicBool::new(false), thread: std::thread::current() });
    let waker = Waker::from(Arc::clone(&pw));
    let mut cx = Context::from_waker(&waker);
    loop {
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                while !pw.woken.swap(false, Ordering::SeqCst) {
                    std::thread::park();
                }
            }
        }
    }
}

#[test]
fn ticket_future_polls_pending_then_wakes() {
    let (t, r) = ticket::<u64>();
    let pw = Arc::new(ParkWaker { woken: AtomicBool::new(false), thread: std::thread::current() });
    let waker = Waker::from(Arc::clone(&pw));
    let mut cx = Context::from_waker(&waker);
    let mut t = t;
    assert_eq!(Pin::new(&mut t).poll(&mut cx), Poll::Pending);
    assert!(!pw.woken.load(Ordering::SeqCst), "no wake before resolution");
    r.resolve(Ok(Commit { value: 11, seq: 4 }));
    assert!(pw.woken.load(Ordering::SeqCst), "resolution must wake the registered waker");
    assert_eq!(Pin::new(&mut t).poll(&mut cx), Poll::Ready(Ok(Commit { value: 11, seq: 4 })));
}

#[test]
fn service_tickets_work_under_a_runtimeless_executor() {
    let service = service(2, 48);
    let all = Rect::new([0, 0], [800, 600]);
    // `count` returns a *mapped* ticket (projected out of the request
    // response), so this also exercises the map node's poll path.
    let c = block_on(service.count(all).unwrap()).unwrap();
    assert_eq!(c.value, 48);
    let a = block_on(service.aggregate(all).unwrap()).unwrap();
    assert_eq!(a.value, Some(96));
    let mut req = Request::new();
    let h = req.count(all);
    let resp = block_on(service.submit(req).unwrap()).unwrap();
    assert_eq!(resp.value.count(h), 48);
}

#[test]
fn wait_for_times_out_and_hands_the_ticket_back() {
    let (t, r) = ticket::<u64>();
    let WaitFor::TimedOut(t) = t.wait_for(Duration::from_millis(2)) else {
        panic!("unresolved ticket must time out");
    };
    assert!(!t.is_done());
    r.resolve(Ok(Commit { value: 9, seq: 0 }));
    let WaitFor::Ready(out) = t.wait_for(Duration::from_secs(5)) else {
        panic!("resolved ticket must be ready");
    };
    assert_eq!(out, Ok(Commit { value: 9, seq: 0 }));
}

// ---------------------------------------------------------------------
// Multi-op requests: fusion pins and semantics
// ---------------------------------------------------------------------

#[test]
fn multi_op_reads_cost_one_fused_dispatch_on_the_service() {
    let service = service(2, 48);
    let mut req = Request::new();
    let all = Rect::new([0, 0], [800, 600]);
    let corner = Rect::new([0, 0], [50, 50]);
    let c0 = req.count(all);
    let c1 = req.count(corner);
    let a0 = req.aggregate(all);
    let a1 = req.aggregate(corner);
    let r0 = req.report(corner);
    let resp = service.submit(req).unwrap().wait().unwrap().value;
    assert_eq!(resp.count(c0), 48);
    assert!(resp.count(c1) <= 48);
    assert_eq!(resp.aggregate(a0), &Some(96));
    assert!((*resp.aggregate(a1)).unwrap_or(0) <= 96);
    assert_eq!(resp.report(r0).len() as u64, resp.count(c1));
    let stats = service.stats();
    // The acceptance pin: 5 reads in one request = ONE machine run and
    // ONE coalesced dispatch.
    assert_eq!(stats.machine.runs, 1, "R reads in one request must fuse into one run");
    assert_eq!(stats.dispatches, 1);
    assert_eq!(stats.queries_coalesced, 5);
}

#[test]
fn multi_op_reads_cost_at_most_one_dispatch_per_shard() {
    let s = 4;
    let service = sharded(s, 64);
    let mut req = Request::new();
    // 12 reads spanning every slab.
    let handles: Vec<_> = (0..12).map(|i| req.count(Rect::new([i * 60, 0], [777, 555]))).collect();
    let resp = service.submit(req).unwrap().wait().unwrap().value;
    assert_eq!(resp.count(handles[0]), 64);
    let stats = service.stats();
    assert!(
        stats.machine.runs <= s as u64,
        "12 reads across {s} shards must cost at most {s} runs, took {}",
        stats.machine.runs
    );
    assert_eq!(stats.dispatches, 1);
    service.shutdown();
}

#[test]
fn requests_apply_writes_before_reads_with_per_op_verdicts() {
    for store in [
        Box::new(inline(2, 8)) as Box<dyn RangeStore<Sum, 2>>,
        Box::new(service(2, 8)),
        Box::new(sharded(2, 8)),
    ] {
        let mut req = Request::new();
        let w_ok = req.insert(vec![Point::weighted([900, 400], 1000, 7)]);
        let w_dup = req.insert(vec![Point::weighted([901, 401], 1000, 1)]); // same id: rejected
        let w_del = req.delete(vec![0, 1]);
        let c = req.count(Rect::new([0, 0], [1000, 600]));
        let a = req.aggregate(Rect::new([900, 400], [900, 400]));
        let resp = store.submit(req).unwrap().wait().unwrap().value;
        assert_eq!(resp.write(w_ok), &Ok(()));
        assert_eq!(
            resp.write(w_dup),
            &Err(ServiceError::Rejected(ddrs::rangetree::BuildError::DuplicateId(1000))),
            "duplicate insert is a per-op verdict, not a request failure"
        );
        assert_eq!(resp.write(w_del), &Ok(()));
        // 8 initial - 2 deleted + 1 inserted, all visible to the
        // request's own reads.
        assert_eq!(resp.count(c), 7);
        assert_eq!(resp.aggregate(a), &Some(7));
    }
}

#[test]
fn single_op_conveniences_match_the_request_path() {
    let store = inline(2, 32);
    let all = Rect::new([0, 0], [800, 600]);
    let via_method = store.count(all).unwrap().wait().unwrap().value;
    let mut req = Request::new();
    let h = req.count(all);
    let via_request = store.submit(req).unwrap().wait().unwrap().value.count(h);
    assert_eq!(via_method, via_request);
    // Deadline plumbing is shared default-method code; a generous
    // deadline must not change the outcome.
    let within = store.count_within(all, Some(Duration::from_secs(60))).unwrap().wait().unwrap();
    assert_eq!(within.value, via_method);
}

#[test]
fn oversized_request_reads_still_fuse_into_one_dispatch() {
    // The max_batch window cap must never split one request's read run:
    // 20 reads through a max_batch = 8 service still cost ONE run.
    let service = ShardedService::start(
        vec![Machine::new(2).unwrap()],
        16,
        &pts(0..32),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 8,
            max_delay: Duration::from_micros(100),
            ..ShardedConfig::default()
        },
    )
    .unwrap();
    let mut req = Request::new();
    let handles: Vec<_> =
        (0..20).map(|i| req.count(Rect::new([0, 0], [800 - i * 2, 600]))).collect();
    let resp = service.submit(req).unwrap().wait().unwrap().value;
    assert_eq!(resp.count(handles[0]), 32);
    let stats = service.stats();
    assert_eq!(
        stats.machine.runs, 1,
        "a request larger than max_batch must still fuse into one run"
    );
    assert_eq!(stats.dispatches, 1);
    assert_eq!(stats.queries_coalesced, 20);
}

#[test]
fn request_larger_than_queue_capacity_is_rejected_as_permanent() {
    // Overloaded is transient ("retry later"); a request that can never
    // fit must say so instead of sending the caller into a retry loop.
    let service = ShardedService::start(
        vec![Machine::new(1).unwrap()],
        16,
        &[],
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { queue_capacity: 4, ..ShardedConfig::default() },
    )
    .unwrap();
    let mut req = Request::new();
    for _ in 0..5 {
        req.count(Rect::new([0, 0], [1, 1]));
    }
    assert_eq!(
        service.submit(req).err(),
        Some(ddrs::client::SubmitError::RequestTooLarge { ops: 5, capacity: 4 })
    );
    // The bound is the configured one, whatever the store holds.
    let sharded = ShardedService::start(
        vec![Machine::new(1).unwrap()],
        16,
        &pts(0..4),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { queue_capacity: 2, ..ShardedConfig::default() },
    )
    .unwrap();
    let mut req = Request::new();
    for _ in 0..3 {
        req.count(Rect::new([0, 0], [1, 1]));
    }
    assert_eq!(
        sharded.submit(req).err(),
        Some(ddrs::client::SubmitError::RequestTooLarge { ops: 3, capacity: 2 })
    );
}

#[test]
#[should_panic(expected = "empty request")]
fn submitting_an_empty_request_panics() {
    let store = inline(1, 4);
    let _ = store.submit(Request::new());
}

// ---------------------------------------------------------------------
// Consistency
// ---------------------------------------------------------------------

#[test]
fn at_least_gives_read_your_writes_on_every_backend() {
    for store in [
        Box::new(inline(2, 8)) as Box<dyn RangeStore<Sum, 2>>,
        Box::new(service(2, 8)),
        Box::new(sharded(2, 8)),
    ] {
        // Session: write, learn the commit seq, demand to observe it.
        let w = store.insert(vec![Point::weighted([900, 400], 77, 3)]).unwrap().wait().unwrap();
        let mut req = Request::new();
        let c = req.count(Rect::new([900, 400], [900, 400]));
        req.consistency(Consistency::AtLeast(w.seq));
        let resp = store.submit(req).unwrap().wait().unwrap();
        assert_eq!(resp.value.count(c), 1, "AtLeast(write seq) must observe the write");
        assert!(resp.seq > w.seq);

        // A bound from the future fails cleanly instead of serving a
        // state it promised not to serve.
        let mut req = Request::new();
        req.count(Rect::new([0, 0], [1, 1]));
        req.consistency(Consistency::AtLeast(1_000_000));
        let err = store.submit(req).unwrap().wait().unwrap_err();
        match err {
            ServiceError::Consistency { required, committed } => {
                assert_eq!(required, 1_000_000);
                assert!(committed <= w.seq + 2);
            }
            other => panic!("expected a consistency error, got {other:?}"),
        }
    }
}

#[test]
fn consistency_bounds_gate_reads_only() {
    // A write observes nothing, so an unmet AtLeast bound must not drop
    // it: the request's write commits on every backend, its reads fail
    // with the consistency error, and the response surfaces both.
    for store in [
        Box::new(inline(1, 4)) as Box<dyn RangeStore<Sum, 2>>,
        Box::new(service(1, 4)),
        Box::new(sharded(2, 4)),
    ] {
        let mut req = Request::new();
        req.insert(vec![Point::weighted([900, 400], 77, 3)]);
        req.count(Rect::new([0, 0], [1000, 600]));
        req.consistency(Consistency::AtLeast(1_000_000));
        // The failed read fails the request as a whole (a response with
        // a hole is worse than an error)…
        let err = store.submit(req).unwrap().wait().unwrap_err();
        assert!(
            matches!(err, ServiceError::Consistency { required: 1_000_000, .. }),
            "reads must fail the bound, got {err:?}"
        );
        // …but the write was NOT silently dropped: it committed, and a
        // later unbounded read observes it — identically on every
        // backend.
        let after = store.count(Rect::new([900, 400], [900, 400])).unwrap().wait().unwrap();
        assert_eq!(after.value, 1, "the write must commit despite the read bound");
    }
}

// ---------------------------------------------------------------------
// InlineStore
// ---------------------------------------------------------------------

#[test]
fn inline_store_resolves_synchronously_and_hands_parts_back() {
    let store = inline(2, 16);
    let t = store.count(Rect::new([0, 0], [800, 600])).unwrap();
    assert!(t.is_done(), "inline tickets are resolved before submit returns");
    assert_eq!(t.wait().unwrap().value, 16);
    assert_eq!(store.committed(), 1);
    store.insert(vec![Point::weighted([5, 5], 500, 1)]).unwrap().wait().unwrap();
    assert_eq!(store.len(), 17);
    let (machine, tree) = store.into_parts();
    assert_eq!(tree.len(), 17);
    assert_eq!(machine.p(), 2);
}

#[test]
fn inline_store_serializes_concurrent_callers() {
    let store = inline(1, 0);
    std::thread::scope(|s| {
        for k in 0..4u32 {
            let store = &store;
            s.spawn(move || {
                for i in 0..4u32 {
                    let id = k * 100 + i;
                    store
                        .insert(vec![Point::weighted([id as i64, 0], id, 1)])
                        .unwrap()
                        .wait()
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(store.len(), 16);
    assert_eq!(store.committed(), 16, "every commit got a distinct serial position");
    let ids = store
        .report(Rect::new([i64::MIN, i64::MIN], [i64::MAX, i64::MAX]))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(ids.value.len(), 16);
}
