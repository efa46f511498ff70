//! The sequential oracle the differential suites share: a naive,
//! obviously correct model of the store (a flat vector of points with
//! the validation rules of `DynamicDistRangeTree`), the committed-event
//! transcript the serving tests record, and its seq-ordered replay.
//!
//! ROADMAP aim 3 calls this oracle "the contract": every backend and
//! every failure path must reproduce it. It is defined once so that no
//! suite checks against a weaker copy.

// Each test crate uses its own subset.
#![allow(dead_code)]

use std::collections::HashSet;

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
