//! Unit tests of the serving front-end through its public API (those of
//! the version protocol in `versions`), then of its scheduler core
//! (`sched`) on a fake op.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ddrs_cgm::Machine;
use ddrs_client::{RangeStore, Request, ServiceError, SubmitError, WaitFor};
use ddrs_rangetree::{BuildError, DynamicDistRangeTree, Point, Rect, Semigroup, Sum};

use crate::sched::{carve, gate_reads, Kind, Mode, Pending, Queued, SchedCore, Window};
use crate::{PartitionPolicy, ShardedConfig, ShardedService};

mod versions;

pub(crate) fn pts(range: std::ops::Range<u32>) -> Vec<Point<2>> {
    range
        .map(|i| Point::weighted([((i * 193) % 777) as i64, ((i * 71) % 555) as i64], i, 2))
        .collect()
}

fn machines(s: usize, p: usize) -> Vec<Machine> {
    (0..s).map(|_| Machine::new(p).unwrap()).collect()
}

fn quick(s: usize, policy: PartitionPolicy) -> ShardedService<Sum, 2> {
    ShardedService::start(
        machines(s, 2),
        16,
        &pts(0..60),
        Sum,
        policy,
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
    )
    .unwrap()
}

#[test]
fn serves_all_read_modes_across_shards() {
    for policy in [PartitionPolicy::Hash, PartitionPolicy::range_uniform(3, 0, 777)] {
        let service = quick(3, policy);
        let all = Rect::new([0, 0], [800, 600]);
        let c = service.count(all).unwrap();
        let a = service.aggregate(all).unwrap();
        let r = service.report(Rect::new([0, 0], [0, 0])).unwrap();
        assert_eq!(c.wait().unwrap().value, 60);
        assert_eq!(a.wait().unwrap().value, Some(120));
        assert_eq!(r.wait().unwrap().value, vec![0]);
        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.total_points(), 60);
    }
}

// The one-machine case: the whole serving layer of a single SPMD
// group (every read is a solo slot, every epoch one sub-epoch).

#[test]
fn serves_all_three_read_modes() {
    let service = quick(1, PartitionPolicy::Hash);
    let all = Rect::new([0, 0], [800, 600]);
    let c = service.count(all).unwrap();
    let a = service.aggregate(all).unwrap();
    let r = service.report(Rect::new([0, 0], [0, 0])).unwrap();
    assert_eq!(c.wait().unwrap().value, 60);
    assert_eq!(a.wait().unwrap().value, Some(120));
    assert_eq!(r.wait().unwrap().value, vec![0]); // point (0,0) is id 0
    let stats = service.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
}

#[test]
fn writes_commit_and_reads_observe_them() {
    let service = quick(1, PartitionPolicy::Hash);
    let all = Rect::new([0, 0], [800, 600]);
    service.insert(pts(100..110)).unwrap().wait().unwrap();
    assert_eq!(service.count(all).unwrap().wait().unwrap().value, 70);
    service.delete((100..105).collect()).unwrap().wait().unwrap();
    assert_eq!(service.count(all).unwrap().wait().unwrap().value, 65);
    let (_, tree) = service.shutdown().pop().unwrap();
    assert_eq!(tree.len(), 65);
}

#[test]
fn insert_delete_reinsert_in_one_epoch() {
    // Both writes queue before the router can wake: they land in one
    // epoch and must still behave sequentially.
    let service = ShardedService::start(
        machines(1, 2),
        8,
        &pts(0..8),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { max_delay: Duration::from_millis(50), ..Default::default() },
    )
    .unwrap();
    // Delete id 3, then re-insert it at a new location. A read in
    // flight holds the first write until the second has queued.
    let moved = vec![Point::weighted([700, 500], 3, 9)];
    service.inner.core.read_sent();
    let t1 = service.delete(vec![3]).unwrap();
    let t2 = service.insert(moved).unwrap();
    service.inner.core.read_settled();
    let s1 = t1.wait().unwrap().seq;
    let s2 = t2.wait().unwrap().seq;
    assert!(s1 < s2, "epoch preserves arrival order in commit seqs");
    let hit = service.report(Rect::new([700, 500], [700, 500])).unwrap().wait().unwrap();
    assert_eq!(hit.value, vec![3]);
    let (_, tree) = service.shutdown().pop().unwrap();
    assert_eq!(tree.len(), 8);
}

#[test]
fn commit_seqs_are_dense_and_ordered() {
    let service = quick(1, PartitionPolicy::Hash);
    let seqs: Vec<u64> = (0..5)
        .map(|_| service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().seq)
        .collect();
    assert_eq!(seqs, (seqs[0]..seqs[0] + 5).collect::<Vec<u64>>(), "dense, in order");
}

#[test]
fn stats_snapshot_shape() {
    let service = quick(1, PartitionPolicy::Hash);
    for _ in 0..10 {
        service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.completed, 10);
    assert!(stats.machine.runs >= 1);
    assert!(stats.dispatches >= 1 && stats.dispatches <= 10);
    assert_eq!(stats.queries_coalesced, 10);
    assert!(stats.mean_batch_size() >= 1.0);
    assert!(stats.latency_us.count() == 10);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.mean_read_fanout(), 1.0);
}

#[test]
fn writes_route_and_reads_observe_them() {
    let service = quick(2, PartitionPolicy::range_uniform(2, 0, 777));
    let all = Rect::new([0, 0], [800, 600]);
    service.insert(pts(100..110)).unwrap().wait().unwrap();
    assert_eq!(service.count(all).unwrap().wait().unwrap().value, 70);
    service.delete((100..105).collect()).unwrap().wait().unwrap();
    assert_eq!(service.count(all).unwrap().wait().unwrap().value, 65);
    let parts = service.shutdown();
    assert_eq!(parts.iter().map(|(_, t)| t.len()).sum::<usize>(), 65);
}

#[test]
fn duplicate_insert_is_rejected_sequentially() {
    let service = quick(2, PartitionPolicy::Hash);
    let verdict = service.insert(pts(5..6)).unwrap().wait();
    assert_eq!(verdict, Err(ServiceError::Rejected(BuildError::DuplicateId(5))));
    assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 60);
}

#[test]
fn initial_load_validates_ids() {
    let mut bad = pts(0..4);
    bad.push(bad[1]);
    let err = ShardedService::start(
        machines(2, 1),
        8,
        &bad,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig::default(),
    )
    .err();
    assert_eq!(err, Some(BuildError::DuplicateId(1)));
}

/// An id repeated on both sides of a range bound is refused as one
/// repeated on one shard is: by its first repeat in input order.
#[test]
fn initial_load_refuses_an_id_repeated_across_shards() {
    let mut bad = pts(0..4); // x = 0, 193, 386, 579: ids 0–2 left of 400, id 3 right
    bad.extend([Point::weighted([0, 0], 3, 1), Point::weighted([1, 0], 1, 1)]);
    let policy = PartitionPolicy::Range { bounds: vec![400] };
    let start = ShardedService::start(machines(2, 1), 8, &bad, Sum, policy, Default::default());
    assert_eq!(start.err(), Some(BuildError::DuplicateId(3)));
}

#[test]
fn explicit_split_moves_points_and_boundary() {
    // Everything starts on shard 0: the boundary is far right.
    let service = ShardedService::start(
        machines(2, 2),
        8,
        &pts(0..40),
        Sum,
        PartitionPolicy::Range { bounds: vec![10_000] },
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
    )
    .unwrap();
    assert_eq!(service.stats().per_shard[0].live_points, 40);
    let report = service.split_shard(0).unwrap().wait().unwrap().value;
    assert_eq!((report.from, report.to), (0, 1));
    assert!(report.moved >= 10 && report.moved <= 30, "roughly half: {report:?}");
    let stats = service.stats();
    assert_eq!(stats.rebalances, 1);
    assert_eq!(stats.per_shard[0].live_points + stats.per_shard[1].live_points, 40);
    assert_eq!(stats.range_bounds, Some(vec![report.boundary]));
    // Cross-shard reads still see everything, exactly.
    assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 40);
    // New inserts route by the *new* boundary.
    let left = vec![Point::weighted([report.boundary - 1, 0], 9000, 1)];
    let right = vec![Point::weighted([report.boundary, 0], 9001, 1)];
    service.insert(left).unwrap().wait().unwrap();
    service.insert(right).unwrap().wait().unwrap();
    let parts = service.shutdown();
    assert!(parts[0].1.contains_id(9000));
    assert!(parts[1].1.contains_id(9001));
}

/// Regression: a splittable shard whose lower half is a plateau of
/// one coordinate must still split (the boundary retreats past the
/// plateau instead of spuriously reporting "all points share the
/// splitting coordinate").
#[test]
fn split_retreats_past_a_median_plateau() {
    let initial: Vec<Point<2>> =
        (0..10u32).map(|i| Point::new([if i < 7 { 5 } else { 9 }, i as i64], i)).collect();
    let service = ShardedService::start(
        machines(2, 1),
        8,
        &initial,
        Sum,
        PartitionPolicy::Range { bounds: vec![10_000] },
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
    )
    .unwrap();
    let report = service.split_shard(0).unwrap().wait().unwrap().value;
    assert_eq!(report.boundary, 9, "boundary must retreat past the x = 5 plateau");
    assert_eq!(report.moved, 3, "exactly the points above the plateau move");
    let stats = service.stats();
    assert_eq!(stats.per_shard[0].live_points, 7);
    assert_eq!(stats.per_shard[1].live_points, 3);
    assert_eq!(service.count(Rect::new([0, 0], [100, 100])).unwrap().wait().unwrap().value, 10);
    // A single-coordinate shard is still a clean error, not a panic.
    let verdict = service.split_shard(0).unwrap().wait();
    match verdict {
        Err(ServiceError::Machine(msg)) => {
            assert!(msg.contains("split impossible"), "{msg}")
        }
        other => panic!("expected split-impossible, got {other:?}"),
    }
    service.shutdown();
}

/// A split's half is picked on the router, from the donor's committed
/// version, without a machine run: the moved half and the rest the donor
/// keeps partition its ids on either side of the boundary, the moved
/// points keep their coordinates and weights, and the version is
/// untouched.
#[test]
fn a_split_halves_the_donor_on_the_router() {
    let machine = Machine::new(2).unwrap();
    let all: Vec<Point<2>> = pts(0..20)
        .iter()
        .map(|p| Point::weighted(p.coords, p.id, 1 + u64::from(p.id) % 4))
        .collect();
    let mut base = DynamicDistRangeTree::<2>::new(8);
    base.insert_batch(&machine, &all).unwrap();
    let held: Vec<Point<2>> = base.points().copied().collect();
    machine.take_stats();
    for upper in [true, false] {
        let (moved, boundary) = crate::split::halve(&base, upper).unwrap();
        assert!(!moved.is_empty() && moved.len() < all.len(), "{} moved", moved.len());
        let rest: Vec<&Point<2>> =
            base.points().filter(|p| moved.iter().all(|m| m.id != p.id)).collect();
        let mut ids: Vec<u32> =
            rest.iter().map(|p| p.id).chain(moved.iter().map(|p| p.id)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<u32>>(), "rest and moved partition the ids");
        for p in &moved {
            assert_eq!(*p, all[p.id as usize], "a moved point keeps its coordinates and weight");
            assert_eq!(p.coords[0] >= boundary, upper);
        }
        assert!(rest.iter().all(|p| (p.coords[0] >= boundary) != upper));
    }
    assert_eq!(machine.take_stats().runs, 0, "the halving runs nothing");
    assert!(base.points().eq(&held), "the base version is untouched");
}

/// Regression (review): a hash-policy split migrates points away
/// from their placement shard; degenerate reads used to keep
/// trusting the placement mix and silently answered 0/None/empty
/// for every migrated point. Post-split they must fall back to full
/// fan-out and stay byte-identical to the unsharded answer.
#[test]
fn hash_split_widens_point_routing_but_stays_exact() {
    let service = quick(2, PartitionPolicy::Hash);
    let report = service.split_shard(0).unwrap().wait().unwrap().value;
    assert_eq!(report.from, 0);
    assert!(report.moved > 0, "hash split must migrate points: {report:?}");
    // Every point — including every migrated one — is still found
    // by a degenerate lookup at its coordinate.
    for i in 0..60u32 {
        let at = [((i * 193) % 777) as i64, ((i * 71) % 555) as i64];
        let ids = service.report(Rect::new(at, at)).unwrap().wait().unwrap().value;
        assert!(ids.contains(&i), "point {i} lost after a hash-policy split");
    }
    let stats = service.stats();
    // The fallback is visible in the routing telemetry: 60 point
    // reads × both shards, not ×1.
    assert_eq!(stats.read_ops_routed, 60);
    assert_eq!(stats.read_shards_touched, 120);
    assert_eq!(stats.total_points(), 60);
    service.shutdown();
}

/// Deletes find hash-migrated ids on the shard the split moved them to:
/// deleting every one drops the count by exactly them, and a re-inserted
/// one is live again, so inserting it twice is refused.
#[test]
fn hash_split_then_deleting_every_migrated_id() {
    let service = quick(2, PartitionPolicy::Hash);
    let report = service.split_shard(0).unwrap().wait().unwrap().value;
    let placed = crate::partition::Partitioner::new(PartitionPolicy::Hash, 2);
    let upper = report.to > report.from;
    let moved: Vec<Point<2>> = pts(0..60)
        .into_iter()
        .filter(|p| placed.place(p) == report.from && (p.coords[0] >= report.boundary) == upper)
        .collect();
    assert_eq!(moved.len(), report.moved);
    let ids: Vec<u32> = moved.iter().map(|p| p.id).collect();
    service.delete(ids.clone()).unwrap().wait().unwrap();
    let all = Rect::new([0, 0], [800, 600]);
    let left: Vec<u32> = (0..60).filter(|id| !ids.contains(id)).collect();
    assert_eq!(service.report(all).unwrap().wait().unwrap().value, left);
    service.insert(vec![moved[0]]).unwrap().wait().unwrap();
    assert_eq!(service.count(all).unwrap().wait().unwrap().value, left.len() as u64 + 1);
    let again = service.insert(vec![moved[0]]).unwrap().wait().unwrap_err();
    assert_eq!(again, ServiceError::Rejected(BuildError::DuplicateId(moved[0].id)));
    service.shutdown();
}

#[test]
fn skew_trigger_rebalances_automatically() {
    let service = ShardedService::start(
        machines(2, 1),
        8,
        &[],
        Sum,
        PartitionPolicy::Range { bounds: vec![10_000] },
        ShardedConfig {
            max_delay: Duration::from_micros(100),
            rebalance_factor: 1.5,
            rebalance_min: 16,
            ..Default::default()
        },
    )
    .unwrap();
    // All inserts land left of the boundary → shard 0 holds 100% of
    // the points (skew 2.0 > 1.5) → the trigger must fire.
    service.insert(pts(0..32)).unwrap().wait().unwrap();
    let stats = service.stats();
    assert!(stats.rebalances >= 1, "skew trigger did not fire: {stats:?}");
    assert!(stats.per_shard[1].live_points > 0);
    assert_eq!(stats.total_points(), 32);
    assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 32);
    service.shutdown();
}

#[test]
fn empty_store_and_empty_writes_cost_zero_runs() {
    let service = ShardedService::start(
        machines(2, 2),
        8,
        &[],
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
    )
    .unwrap();
    let q = Rect::new([0, 0], [800, 600]);
    assert_eq!(service.count(q).unwrap().wait().unwrap().value, 0);
    assert_eq!(service.aggregate(q).unwrap().wait().unwrap().value, None);
    service.insert(Vec::new()).unwrap().wait().unwrap();
    service.delete(vec![7]).unwrap().wait().unwrap();
    let stats = service.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.machine.runs, 0, "empty traffic must not run any machine");
    assert_eq!(stats.dispatches, 0);
    assert_eq!(stats.write_epochs, 0);
    service.shutdown();
}

#[test]
fn empty_rect_answers_locally() {
    let service = quick(2, PartitionPolicy::Hash);
    let degenerate = Rect::new([5, 5], [4, 4]);
    assert_eq!(service.count(degenerate).unwrap().wait().unwrap().value, 0);
    assert_eq!(service.aggregate(degenerate).unwrap().wait().unwrap().value, None);
    assert!(service.report(degenerate).unwrap().wait().unwrap().value.is_empty());
}

#[test]
fn commit_seqs_are_global_and_ordered() {
    let service = quick(2, PartitionPolicy::range_uniform(2, 0, 777));
    let seqs = vec![
        service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().seq,
        service.insert(pts(500..504)).unwrap().wait().unwrap().seq,
        service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().seq,
        service.delete(vec![500]).unwrap().wait().unwrap().seq,
    ];
    let sorted = {
        let mut s = seqs.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(seqs, sorted, "sequential submission commits in order");
    assert_eq!(seqs, (seqs[0]..seqs[0] + 4).collect::<Vec<u64>>(), "seqs are dense");
    service.shutdown();
}

/// Read windows queued behind a busy worker ride one machine run;
/// each still counts as its own dispatch and resolves with the seq
/// the router pre-assigned it.
#[test]
fn queued_read_windows_share_one_machine_run() {
    const QUEUED: u64 = 7;
    let service = ShardedService::start(
        machines(1, 1),
        16,
        &pts(0..60),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { max_batch: 2, max_delay: Duration::from_secs(5), ..Default::default() },
    )
    .unwrap();
    let all = Rect::new([0, 0], [800, 600]);
    // A read in flight, so every window waits for max_batch. Window 0:
    // its first ticket's callback runs on the worker thread and parks it
    // there (registered before the window can fire — one op is below
    // max_batch — so it cannot run on this thread).
    service.inner.core.read_sent();
    let (entered_tx, entered) = mpsc::channel::<u64>();
    let (release, gate) = mpsc::channel::<()>();
    service.count(all).unwrap().on_resolve(move |out| {
        let _ = entered_tx.send(out.unwrap().seq);
        let _ = gate.recv();
    });
    let mut tickets = vec![service.count(all).unwrap()];
    assert_eq!(entered.recv().unwrap(), 0);
    // Every further pair is a window of its own. Once the router has
    // planned the last one, all earlier ones sit in the worker's
    // channel; only the last may still be on its way there.
    for _ in 0..2 * QUEUED {
        tickets.push(service.count(all).unwrap());
    }
    let t0 = Instant::now();
    while service.stats().read_ops_routed < 2 + 2 * QUEUED {
        assert!(t0.elapsed() < Duration::from_secs(10), "router never planned the windows");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.stats().machine.runs, 1, "only window 0 has run so far");
    release.send(()).unwrap();
    let seqs: Vec<u64> = tickets
        .into_iter()
        .map(|t| {
            let c = t.wait().unwrap();
            assert_eq!(c.value, 60);
            c.seq
        })
        .collect();
    assert_eq!(seqs, (1..2 + 2 * QUEUED).collect::<Vec<u64>>(), "planning order is seq order");
    let stats = service.stats();
    assert_eq!(stats.completed, 2 + 2 * QUEUED);
    assert_eq!(stats.dispatches, 1 + QUEUED, "a window that rode a run is still a dispatch");
    assert_eq!(stats.batch_sizes.count(), 1 + QUEUED);
    assert_eq!(stats.queries_coalesced, 2 + 2 * QUEUED);
    // Window 0, then one run for the queued windows — two if the last
    // window reached the channel after the drain had started.
    assert!(
        (2..=3).contains(&stats.machine.runs),
        "{QUEUED} queued windows must share a run, measured {} runs",
        stats.machine.runs
    );
    service.shutdown();
}

#[test]
fn abort_rejects_pending_requests() {
    let service = ShardedService::start(
        machines(2, 1),
        8,
        &pts(0..16),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { max_batch: 1024, max_delay: Duration::from_secs(5), ..Default::default() },
    )
    .unwrap();
    // A read in flight: the queued counts wait for company.
    service.inner.core.read_sent();
    let tickets: Vec<_> =
        (0..10).map(|_| service.count(Rect::new([0, 0], [800, 600])).unwrap()).collect();
    let parts = service.abort();
    for t in tickets {
        assert_eq!(t.wait(), Err(ServiceError::ShuttingDown));
    }
    assert_eq!(parts.iter().map(|(_, t)| t.len()).sum::<usize>(), 16);
}

#[test]
fn queued_deadline_expires_without_touching_any_machine() {
    let service = ShardedService::start(
        machines(2, 1),
        8,
        &pts(0..16),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 1024,
            max_delay: Duration::from_millis(80),
            ..Default::default()
        },
    )
    .unwrap();
    // A zero deadline has passed by the carve, however soon it fires.
    let doomed = service.count_within(Rect::new([0, 0], [800, 600]), Some(Duration::ZERO)).unwrap();
    assert_eq!(doomed.wait(), Err(ServiceError::DeadlineExpired));
    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.machine.runs, 0);
    assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 16);
    service.shutdown();
}

#[test]
fn backpressure_rejects_beyond_capacity() {
    let service = ShardedService::start(
        machines(2, 1),
        8,
        &pts(0..16),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 1024,
            max_delay: Duration::from_millis(300),
            queue_capacity: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let q = Rect::new([0, 0], [800, 600]);
    // A read in flight, so the window waits and these all hit the queue.
    service.inner.core.read_sent();
    let mut admitted = Vec::new();
    let mut overloaded = 0;
    for _ in 0..6 {
        match service.count(q) {
            Ok(t) => admitted.push(t),
            Err(SubmitError::Overloaded { depth }) => {
                assert_eq!(depth, 4);
                overloaded += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!((admitted.len(), overloaded), (4, 2));
    for t in admitted {
        assert_eq!(t.wait().unwrap().value, 16);
    }
    assert_eq!(service.stats().overloaded, 2);
    service.shutdown();
}

/// A semigroup whose `lift` panics on one sentinel weight: the only
/// way to make a *read* fail on a chosen shard (the service offers
/// write-fault injection only). Count queries never lift, so the
/// shard keeps answering them.
#[derive(Debug, Clone, Copy)]
struct Tripwire;

const SENTINEL: u64 = u64::MAX;

impl Semigroup for Tripwire {
    type Val = u64;
    fn lift(&self, _id: u32, weight: u64) -> u64 {
        assert_ne!(weight, SENTINEL, "tripwire weight lifted");
        weight
    }
    fn comb(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// The `Err` arm of a shard's read completion: a processor panic
/// during a fused read sub-batch fails exactly the ops that needed
/// that shard — solo slots directly, cross-shard slots through their
/// countdown, whichever shard arrives last — and poisons nothing.
#[test]
fn read_failure_fails_only_the_ops_that_needed_the_shard() {
    // Shard 0 owns x < 100, shard 1 owns x >= 100 and the tripwire.
    let mut initial: Vec<Point<2>> =
        (0..20u32).map(|i| Point::weighted([i as i64 * 10, 0], i, 1)).collect();
    initial.push(Point::weighted([150, 5], 99, SENTINEL));
    let service = ShardedService::start(
        machines(2, 2),
        16,
        &initial,
        Tripwire,
        PartitionPolicy::Range { bounds: vec![100] },
        // Long enough that both requests share one read window.
        ShardedConfig { max_delay: Duration::from_millis(200), ..Default::default() },
    )
    .unwrap();
    let everything = Rect::new([0, 0], [300, 10]);
    let left = Rect::new([0, 0], [99, 10]);
    let right = Rect::new([100, 0], [300, 10]);

    // A: an aggregate confined to shard 1 (its lift trips the wire)
    // and a count spanning both shards. B: a count confined to
    // shard 0, riding the same window.
    let mut a = Request::new();
    a.aggregate(right);
    a.count(everything);
    let mut b = Request::new();
    let b_count = b.count(left);
    // A read in flight holds A's window until B has queued behind it.
    service.inner.core.read_sent();
    let ta = service.submit(a).unwrap();
    let tb = service.submit(b).unwrap();
    service.inner.core.read_settled();

    match ta.wait() {
        Err(ServiceError::Machine(msg)) => {
            assert!(msg.contains("shard 1"), "{msg}");
            assert!(msg.contains("ProcessorPanicked"), "{msg}");
        }
        other => panic!("request A needed the failing shard, got {other:?}"),
    }
    assert_eq!(tb.wait().unwrap().value.count(b_count), 10);

    // A failed read poisons nothing: shard 1 still answers reads
    // that do not lift.
    let stats = service.stats();
    assert!(stats.per_shard[1].poisoned.is_none(), "{:?}", stats.per_shard[1].poisoned);
    assert_eq!(service.count(right).unwrap().wait().unwrap().value, 11);
    let stats = service.stats();
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.submitted, 4);
    service.shutdown();
}

/// Admission's counters stay ordered with completion under concurrency:
/// no telemetry snapshot shows more ops completed than submitted,
/// `overloaded` counts exactly the refusals, and once every ticket has
/// resolved the two totals meet.
#[test]
fn submitted_never_trails_completed_in_any_snapshot() {
    const ROUNDS: usize = 200;
    const BURST: usize = 8;
    let service = ShardedService::start(
        machines(2, 1),
        8,
        &pts(0..16),
        Sum,
        PartitionPolicy::Hash,
        // No delay window, so ops complete while the sampler is between
        // its two reads; each burst is twice the queue, so four threads
        // of them overrun it.
        ShardedConfig { max_delay: Duration::ZERO, queue_capacity: 4, ..Default::default() },
    )
    .unwrap();
    let q = Rect::new([0, 0], [800, 600]);
    let done = AtomicBool::new(false);
    let submitter = || {
        let (mut admitted, mut refused) = (0u64, 0u64);
        for _ in 0..ROUNDS {
            let burst: Vec<_> = (0..BURST).map(|_| service.count(q)).collect();
            for submission in burst {
                match submission {
                    Ok(t) => {
                        assert_eq!(t.wait().unwrap().value, 16);
                        admitted += 1;
                    }
                    Err(SubmitError::Overloaded { .. }) => refused += 1,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
        (admitted, refused)
    };
    let (admitted, refused) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                let st = service.stats();
                assert!(st.submitted >= st.completed, "{} < {}", st.submitted, st.completed);
            }
        });
        let submitters: Vec<_> = (0..4).map(|_| s.spawn(submitter)).collect();
        let totals = submitters.into_iter().map(|h| h.join().unwrap());
        let totals = totals.fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
        done.store(true, Ordering::SeqCst);
        sampler.join().unwrap();
        totals
    });
    assert!(refused > 0, "bursts of {BURST} into a queue of 4 were never refused");
    assert_eq!(admitted + refused, (4 * ROUNDS * BURST) as u64);
    let st = service.stats();
    assert_eq!((st.submitted, st.overloaded), (admitted, refused));
    assert_eq!(st.completed, st.submitted);
    service.shutdown();
}

/// Regression: `front.submitted + max_delay` overflowed on the router
/// thread and killed it. A delay too long to represent never fires; the
/// window waits for `max_batch`.
#[test]
fn an_unrepresentable_max_delay_fires_the_window_on_max_batch_only() {
    let service = ShardedService::start(
        machines(1, 1),
        8,
        &pts(0..16),
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { max_delay: Duration::MAX, max_batch: 2, ..Default::default() },
    )
    .unwrap();
    let all = Rect::new([0, 0], [800, 600]);
    // A read in flight, so a window below max_batch waits for company.
    service.inner.core.read_sent();
    let first = service.count(all).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert!(!first.is_done(), "one op is below max_batch and the delay never fires");
    let second = service.count(all).unwrap();
    for ticket in [first, second] {
        match ticket.wait_for(Duration::from_secs(10)) {
            WaitFor::Ready(outcome) => assert_eq!(outcome.unwrap().value, 16),
            WaitFor::TimedOut(_) => panic!("two ops queued and no window: the router is gone"),
        }
    }
    service.shutdown();
}

// The scheduler core on its own: `sched`'s carve, admission, gate and
// window firing, with a `u8` standing in for the router's op.

fn pend(op: u8, group: u64) -> Pending<u8> {
    Pending { op, submitted: Instant::now(), deadline: None, min_seq: None, group }
}

/// The fake op: ≥ 100 is exclusive, otherwise odd reads and even
/// writes.
impl Queued for u8 {
    fn kind(&self) -> Kind {
        match *self {
            100.. => Kind::Exclusive,
            op if op % 2 == 1 => Kind::Read,
            _ => Kind::Write,
        }
    }
}

fn core_with(max_batch: usize, max_delay: Duration, queue_capacity: usize) -> SchedCore<u8> {
    SchedCore::new(ShardedConfig { max_batch, max_delay, queue_capacity, ..Default::default() })
}

fn carve_kinds(q: &mut VecDeque<Pending<u8>>, max_batch: usize) -> (Vec<u8>, usize) {
    let (batch, expired) = carve(q, max_batch);
    (batch.into_iter().map(|p| p.op).collect(), expired.len())
}

#[test]
fn carve_pops_same_kind_prefix() {
    let mut q: VecDeque<Pending<u8>> =
        [pend(1, 1), pend(1, 2), pend(2, 3), pend(1, 4)].into_iter().collect();
    assert_eq!(carve_kinds(&mut q, 64), (vec![1, 1], 0));
    assert_eq!(carve_kinds(&mut q, 64), (vec![2], 0));
    assert_eq!(carve_kinds(&mut q, 64), (vec![1], 0));
}

#[test]
fn carve_never_splits_a_group_past_the_cap() {
    // Group 7 holds three ops; the cap of 2 must not split it.
    let mut q: VecDeque<Pending<u8>> =
        [pend(1, 7), pend(1, 7), pend(1, 7), pend(1, 8)].into_iter().collect();
    assert_eq!(carve_kinds(&mut q, 2), (vec![1, 1, 1], 0));
    assert_eq!(carve_kinds(&mut q, 2), (vec![1], 0));
}

#[test]
fn carve_exclusive_kind_dispatches_alone() {
    let mut q: VecDeque<Pending<u8>> =
        [pend(100, 1), pend(100, 2), pend(1, 3)].into_iter().collect();
    assert_eq!(carve_kinds(&mut q, 64), (vec![100], 0));
    assert_eq!(carve_kinds(&mut q, 64), (vec![100], 0));
    assert_eq!(carve_kinds(&mut q, 64), (vec![1], 0));
}

#[test]
fn carve_expires_dead_requests_first() {
    let mut q: VecDeque<Pending<u8>> = VecDeque::new();
    let mut dead = pend(1, 1);
    dead.deadline = Some(Instant::now() - Duration::from_millis(1));
    q.push_back(dead);
    q.push_back(pend(2, 2));
    let (batch, expired) = carve_kinds(&mut q, 64);
    assert_eq!((batch, expired), (vec![2], 1));
}

#[test]
fn admission_is_all_or_nothing() {
    let core = core_with(4, Duration::from_millis(1), 4);
    assert!(core.submit_ops(3, || (vec![1, 2, 3], None, None)).is_ok());
    match core.submit_ops(2, || unreachable!("rejected: must not lower")) {
        Err(SubmitError::Overloaded { depth }) => assert_eq!(depth, 3),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    match core.submit_ops(5, || unreachable!()) {
        Err(SubmitError::RequestTooLarge { ops: 5, capacity: 4 }) => {}
        other => panic!("expected RequestTooLarge, got {other:?}"),
    }
    assert_eq!(core.depth(), 3);
}

#[test]
fn stopped_core_rejects_submissions_and_reports_pending() {
    let core = core_with(4, Duration::from_millis(1), 8);
    core.submit_ops(2, || (vec![1, 2], None, None)).unwrap();
    core.begin_stop(Mode::Rejecting);
    assert!(matches!(core.submit_ops(1, || unreachable!()), Err(SubmitError::ShutDown)));
    match core.next_window() {
        Window::Shutdown { rejected } => assert_eq!(rejected.len(), 2),
        Window::Dispatch { .. } => panic!("expected shutdown"),
    }
}

#[test]
fn gate_fails_only_unmet_reads() {
    // The committed counter is 3.
    let batch = vec![
        pend(1, 1), // read, no bound
        {
            let mut p = pend(3, 2);
            p.min_seq = Some(2); // met: 2 < 3
            p
        },
        {
            let mut p = pend(5, 3);
            p.min_seq = Some(3); // unmet: needs a 4th commit
            p
        },
        {
            let mut p = pend(2, 4);
            p.min_seq = Some(9); // write: bound ignored
            p
        },
    ];
    let (ready, unmet) = gate_reads(batch, 3);
    let ready: Vec<u8> = ready.into_iter().map(|p| p.op).collect();
    let unmet: Vec<u8> = unmet.into_iter().map(|p| p.op).collect();
    assert_eq!(ready, vec![1, 3, 2]);
    assert_eq!(unmet, vec![5]);
}

#[test]
fn window_fires_on_batch_size_and_on_delay() {
    let core = core_with(2, Duration::from_secs(10), 8);
    core.submit_ops(2, || (vec![1, 1], None, None)).unwrap();
    match core.next_window() {
        Window::Dispatch { batch, expired } => {
            assert_eq!(batch.len(), 2);
            assert!(expired.is_empty());
        }
        Window::Shutdown { .. } => panic!("expected dispatch at max_batch"),
    }
    // One op below the cap, a read in flight: fires only after max_delay.
    let quick = core_with(64, Duration::from_millis(2), 8);
    quick.read_sent();
    quick.submit_ops(1, || (vec![1], None, None)).unwrap();
    let t0 = Instant::now();
    match quick.next_window() {
        Window::Dispatch { batch, .. } => assert_eq!(batch.len(), 1),
        Window::Shutdown { .. } => panic!("expected dispatch after max_delay"),
    }
    assert!(t0.elapsed() >= Duration::from_millis(2));
}

#[test]
fn an_idle_core_fires_a_lone_op_at_once() {
    let core = core_with(64, Duration::from_secs(10), 8);
    core.submit_ops(1, || (vec![1], None, None)).unwrap();
    let t0 = Instant::now();
    match core.next_window() {
        Window::Dispatch { batch, .. } => assert_eq!(batch.len(), 1),
        Window::Shutdown { .. } => panic!("expected dispatch"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "an idle core waited for max_delay");
}

#[test]
fn a_busy_core_holds_its_window_until_the_last_read_settles() {
    let core = core_with(64, Duration::from_secs(60), 8);
    let last = AtomicBool::new(false);
    core.read_sent();
    core.read_sent();
    core.submit_ops(1, || (vec![1], None, None)).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            core.read_settled();
            last.store(true, Ordering::SeqCst);
            core.read_settled();
        });
        match core.next_window() {
            Window::Dispatch { batch, .. } => assert_eq!(batch.len(), 1),
            Window::Shutdown { .. } => panic!("expected dispatch"),
        }
        assert!(last.load(Ordering::SeqCst), "the window fired with a read still in flight");
    });
}
