//! A failed log append aborts its epoch or split and leaves no record of
//! it in any shard's write-ahead log:
//!
//! * an epoch whose append fails on one shard's log commits nowhere —
//!   the sibling whose log already took the record is cut back, so no
//!   recovery brings the aborted writes back;
//! * a split whose `MigrateIn` append fails moves nothing — the donor's
//!   `MigrateOut` record is cut back, so no point is lost;
//! * after the sink heals, the service commits again, and recovering
//!   both shards from their logs alone gives back exactly the committed
//!   history: each log ends on its last committed record.
//!
//! The failing sink writes half the frame before it errors, as a short
//! write to a file would, so the cut also removes a torn frame.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ddrs::prelude::*;

const ALL: Rect<2> = Rect { lo: [i64::MIN, i64::MIN], hi: [i64::MAX, i64::MAX] };

/// An in-memory sink whose appends fail while `failing` is set.
struct FlakySink {
    mem: MemSink,
    failing: Arc<AtomicBool>,
}

impl LogSink for FlakySink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.failing.load(Ordering::SeqCst) {
            self.mem.append(&frame[..frame.len() / 2])?;
            return Err(io::Error::other("injected append failure"));
        }
        self.mem.append(frame)
    }

    fn snapshot(&self) -> io::Result<Vec<u8>> {
        self.mem.snapshot()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.mem.truncate(len)
    }
}

/// Two shards at p = 1, split at x = 100; shard 1's log fails while the
/// returned flag is set.
fn start(initial: &[Point<2>]) -> (ShardedService<Sum, 2>, Arc<AtomicBool>) {
    let failing = Arc::new(AtomicBool::new(false));
    let sinks: Vec<Box<dyn LogSink>> = vec![
        Box::new(MemSink::new()),
        Box::new(FlakySink { mem: MemSink::new(), failing: Arc::clone(&failing) }),
    ];
    let service = ShardedService::start_with_sinks(
        (0..2).map(|_| Machine::new(1).unwrap()).collect(),
        8,
        initial,
        Sum,
        PartitionPolicy::Range { bounds: vec![100] },
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        sinks,
    )
    .unwrap();
    (service, failing)
}

fn pt(x: i64, id: u32) -> Point<2> {
    Point::weighted([x, id as i64], id, 1)
}

/// Recover every shard the service has quarantined.
fn recover_quarantined(service: &ShardedService<Sum, 2>) {
    for (s, shard) in service.stats().per_shard.iter().enumerate() {
        if shard.poisoned.is_some() {
            service.recover_shard(s).unwrap().wait().unwrap();
        }
    }
}

/// Quarantine both shards with a mid-epoch fault, then rebuild both from
/// their logs alone.
fn recover_both_from_their_logs(service: &ShardedService<Sum, 2>) {
    service.fail_next_write_epoch(0);
    service.fail_next_write_epoch(1);
    let doomed = service.insert(vec![pt(-5, 9000), pt(1000, 9001)]).unwrap().wait();
    assert!(doomed.is_err(), "both shards were armed to fail");
    for s in 0..2 {
        service.recover_shard(s).unwrap().wait().unwrap();
    }
}

fn report_all(service: &ShardedService<Sum, 2>) -> Vec<u32> {
    service.report(ALL).unwrap().wait().unwrap().value
}

#[test]
fn an_epoch_whose_append_fails_on_one_log_leaves_no_record_on_any() {
    let initial: Vec<Point<2>> =
        (0..20).map(|i| pt(if i < 10 { i as i64 } else { 100 + i as i64 }, i)).collect();
    let (service, failing) = start(&initial);

    failing.store(true, Ordering::SeqCst);
    let aborted = service.insert(vec![pt(50, 500), pt(150, 501)]).unwrap().wait();
    assert!(aborted.is_err(), "the epoch's append failed on shard 1");
    recover_quarantined(&service);
    assert_eq!(service.count(ALL).unwrap().wait().unwrap().value, 20);
    let ids = report_all(&service);
    assert!(!ids.contains(&500) && !ids.contains(&501), "an aborted insert is live: {ids:?}");

    failing.store(false, Ordering::SeqCst);
    service.insert(vec![pt(60, 502), pt(160, 503)]).unwrap().wait().unwrap();
    service.delete(vec![0]).unwrap().wait().unwrap();
    recover_both_from_their_logs(&service);
    let want: Vec<u32> = (1..20).chain([502, 503]).collect();
    assert_eq!(report_all(&service), want);
    service.shutdown();
}

#[test]
fn a_split_whose_landing_append_fails_leaves_no_record_on_either_log() {
    let initial: Vec<Point<2>> = (0..20).map(|i| pt(i as i64 * 4, i)).collect();
    let (service, failing) = start(&initial);

    failing.store(true, Ordering::SeqCst);
    let aborted = service.split_shard(0).unwrap().wait();
    assert!(aborted.is_err(), "the split's MigrateIn append failed on shard 1");
    recover_quarantined(&service);
    assert_eq!(service.count(ALL).unwrap().wait().unwrap().value, 20);

    failing.store(false, Ordering::SeqCst);
    let split = service.split_shard(0).unwrap().wait().unwrap().value;
    assert_eq!((split.from, split.to, split.moved), (0, 1, 10));
    recover_both_from_their_logs(&service);
    assert_eq!(report_all(&service), (0..20).collect::<Vec<u32>>());
    service.shutdown();
}
