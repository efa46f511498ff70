//! The sequential oracle the differential suites share: a naive,
//! obviously correct model of the store (a flat vector of points with
//! the validation rules of `DynamicDistRangeTree`), the committed-event
//! transcript the serving tests record, its seq-ordered replay, and the
//! real-time check of the same run ([`History`]).
//!
//! ROADMAP aim 3 calls this oracle "the contract": every backend and
//! every failure path must reproduce it. It is defined once so that no
//! suite checks against a weaker copy.

// Each test crate uses its own subset.
#![allow(dead_code)]

use std::collections::HashSet;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use ddrs::prelude::*;
use ddrs::rangetree::{BuildError, PAD_ID};

/// A tiny deterministic generator (splitmix64) so client threads can
/// produce varied-but-reproducible query boxes without sharing state.
pub struct TestRng(pub u64);

impl TestRng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn rect(&mut self) -> Rect<2> {
        let x = (self.next() % 700) as i64;
        let y = (self.next() % 500) as i64;
        let w = (self.next() % 400) as i64;
        let h = (self.next() % 300) as i64;
        Rect::new([x, y], [x + w, y + h])
    }
}

/// The sequential oracle: a flat model of the store with the same
/// validation rules as `DynamicDistRangeTree` (an insert batch naming a
/// live id, the same id twice or the pad id is rejected whole; deleting
/// a missing id is a no-op), plus the serial commit counter every
/// backend exposes.
pub struct Oracle<const D: usize> {
    pub pts: Vec<Point<D>>,
    pub ids: HashSet<u32>,
    next_seq: u64,
}

impl<const D: usize> Oracle<D> {
    pub fn new(initial: &[Point<D>]) -> Self {
        Oracle { pts: initial.to_vec(), ids: initial.iter().map(|p| p.id).collect(), next_seq: 0 }
    }

    pub fn count(&self, q: &Rect<D>) -> u64 {
        self.pts.iter().filter(|p| q.contains(p)).count() as u64
    }

    pub fn aggregate(&self, q: &Rect<D>) -> Option<u64> {
        self.pts.iter().filter(|p| q.contains(p)).map(|p| p.weight).reduce(|a, b| a + b)
    }

    pub fn report(&self, q: &Rect<D>) -> Vec<u32> {
        let mut ids: Vec<u32> = self.pts.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    pub fn insert(&mut self, batch: &[Point<D>]) -> Result<(), BuildError> {
        let mut seen = HashSet::new();
        for p in batch {
            if p.id == PAD_ID {
                return Err(BuildError::ReservedId);
            }
            if self.ids.contains(&p.id) || !seen.insert(p.id) {
                return Err(BuildError::DuplicateId(p.id));
            }
        }
        self.ids.extend(seen);
        self.pts.extend_from_slice(batch);
        Ok(())
    }

    pub fn delete(&mut self, ids: &[u32]) {
        let dead: HashSet<u32> = ids.iter().copied().collect();
        self.pts.retain(|p| !dead.contains(&p.id));
        self.ids.retain(|id| !dead.contains(id));
    }

    /// The commit position of the next committed operation, read or
    /// write, for suites that compare seqs absolutely: call it once per
    /// operation the backends commit (a rejected insert commits nothing).
    pub fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

/// One committed request as observed by a client, for seq-ordered replay.
pub enum Event {
    Count(Rect<2>, u64),
    Aggregate(Rect<2>, Option<u64>),
    Report(Rect<2>, Vec<u32>),
    Insert(Vec<Point<2>>),
    Delete(Vec<u32>),
}

/// Replay committed events in commit-seq order through the oracle,
/// asserting every observed response at its commit position and that
/// every committed insert is one the oracle accepts. Returns the
/// oracle's final state.
pub fn replay(initial: &[Point<2>], mut events: Vec<(u64, Event)>) -> Oracle<2> {
    events.sort_by_key(|(seq, _)| *seq);
    let mut oracle = Oracle::new(initial);
    for (i, w) in events.windows(2).enumerate() {
        assert_ne!(w[0].0, w[1].0, "duplicate commit seq at replay index {i}");
    }
    for (seq, ev) in events {
        match ev {
            Event::Count(q, observed) => {
                assert_eq!(oracle.count(&q), observed, "count diverged at seq {seq}")
            }
            Event::Aggregate(q, observed) => {
                assert_eq!(oracle.aggregate(&q), observed, "aggregate diverged at seq {seq}")
            }
            Event::Report(q, observed) => {
                assert_eq!(oracle.report(&q), observed, "report diverged at seq {seq}")
            }
            Event::Insert(batch) => {
                oracle.insert(&batch).unwrap_or_else(|e| {
                    panic!("committed insert rejected by oracle at seq {seq}: {e}")
                });
            }
            Event::Delete(ids) => oracle.delete(&ids),
        }
    }
    oracle
}

/// One committed op as its client saw it: when it was invoked, when its
/// response arrived, and the commit seq the response carries.
#[derive(Clone, Copy)]
struct Timed {
    invoked: Instant,
    responded: Instant,
    seq: u64,
}

/// The real-time record of a concurrent run. The seq replay proves the
/// responses agree with *some* serial order; this proves that order
/// respects real time: an op invoked after another op's response
/// commits after it (the other half of linearizability).
#[derive(Default)]
pub struct History(Mutex<Vec<Timed>>);

impl History {
    /// Record a committed op invoked at `invoked` whose response has
    /// just arrived. Only committed ops are recorded: a rejected or
    /// expired op carries no seq, so it has no place in the order.
    pub fn record(&self, invoked: Instant, seq: u64) {
        let op = Timed { invoked, responded: Instant::now(), seq };
        self.0.lock().unwrap().push(op);
    }

    /// Sort by invoke time and keep the largest seq among the responses
    /// that ended before each invoke: every op's seq must be above it.
    pub fn check_real_time(&self) {
        let mut ops = self.0.lock().unwrap().clone();
        ops.sort_by_key(|op| op.invoked);
        let mut ended: Vec<(Instant, u64)> = ops.iter().map(|op| (op.responded, op.seq)).collect();
        ended.sort_unstable();
        let (mut next, mut floor) = (0, None);
        for op in &ops {
            while next < ended.len() && ended[next].0 < op.invoked {
                floor = floor.max(Some(ended[next].1));
                next += 1;
            }
            if let Some(floor) = floor {
                assert!(
                    op.seq > floor,
                    "an op invoked after a response with seq {floor} committed at seq {}",
                    op.seq
                );
            }
        }
    }
}

/// `threads` clients, each `ops` requests mixing the three reads with
/// inserts of fresh ids (from its own range) and deletes of its own
/// earlier inserts, every response recorded for the seq replay and the
/// real-time check. The points fit `[0, 777) × [0, 555)`.
pub fn mixed_clients<R: RangeStore<Sum, 2> + Sync>(
    store: &R,
    threads: u32,
    ops: u32,
) -> (Vec<(u64, Event)>, History) {
    let (events, history) = (Mutex::new(Vec::new()), History::default());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (events, history) = (&events, &history);
            s.spawn(move || {
                let mut rng = TestRng(t as u64 * 4099 + 5);
                let (mut owned, mut next_id, mut local) = (Vec::new(), 20_000 + t * 1_000, vec![]);
                for i in 0..ops {
                    let invoked = Instant::now();
                    let (seq, event) = if i % 4 == 3 {
                        let batch: Vec<Point<2>> = (next_id..next_id + 3)
                            .map(|id| {
                                let at = [(rng.next() % 777) as i64, (rng.next() % 555) as i64];
                                Point::weighted(at, id, 1 + id as u64 % 5)
                            })
                            .collect();
                        next_id += 3;
                        owned.extend(batch.iter().map(|p| p.id));
                        (
                            store.insert(batch.clone()).unwrap().wait().unwrap().seq,
                            Event::Insert(batch),
                        )
                    } else if i % 8 == 6 && owned.len() >= 2 {
                        let ids: Vec<u32> = owned.drain(..2).collect();
                        (store.delete(ids.clone()).unwrap().wait().unwrap().seq, Event::Delete(ids))
                    } else {
                        let q = rng.rect();
                        match i % 3 {
                            0 => {
                                let c = store.count(q).unwrap().wait().unwrap();
                                (c.seq, Event::Count(q, c.value))
                            }
                            1 => {
                                let a = store.aggregate(q).unwrap().wait().unwrap();
                                (a.seq, Event::Aggregate(q, a.value))
                            }
                            _ => {
                                let r = store.report(q).unwrap().wait().unwrap();
                                (r.seq, Event::Report(q, r.value))
                            }
                        }
                    };
                    history.record(invoked, seq);
                    local.push((seq, event));
                }
                events.lock().unwrap().extend(local);
            });
        }
    });
    (events.into_inner().unwrap(), history)
}

/// Park the worker of the one shard that answers `q` inside a count's
/// `on_resolve` until the returned sender fires or drops: a read in
/// flight, so the windows behind it wait for `max_batch`, `max_delay` or
/// the release. An idle service fires the count at once, so it may
/// resolve before the callback is registered; the callback then runs on
/// this thread, and we try again.
pub fn park_worker<R: RangeStore<Sum, 2>>(store: &R, q: Rect<2>) -> mpsc::Sender<()> {
    let me = std::thread::current().id();
    loop {
        let (entered_tx, entered) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        store.count(q).unwrap().on_resolve(move |_| {
            let parked = std::thread::current().id() != me;
            entered_tx.send(parked).unwrap();
            if parked {
                let _ = gate.recv();
            }
        });
        if entered.recv().unwrap() {
            return release;
        }
    }
}
