//! The version protocol through the service: a write epoch is a version
//! swap, so what an abort costs and leaves behind, and what a recovery
//! lands on or refuses, mostly on `tests/shard_faults.rs`'s layout (three
//! range slabs on axis 0 of 20 points each: ids 0..20 on shard 0, 20..40
//! on shard 1, 40..60 on shard 2).

use std::time::Duration;

use ddrs_client::{RangeStore, Request, ServiceError};
use ddrs_rangetree::{Point, Rect, Sum};
use ddrs_wal::{LogSink, MemSink};

use super::{machines, pts, quick};
use crate::{PartitionPolicy, ShardedConfig, ShardedService};

fn slabs() -> ShardedService<Sum, 2> {
    let initial: Vec<Point<2>> = (0..60u32)
        .map(|i| {
            let (slab, k) = ((i / 20) as i64, (i % 20) as i64);
            Point::weighted([slab * 100 + k * 5, k], i, 1 + i as u64 % 3)
        })
        .collect();
    ShardedService::start(
        machines(3, 2),
        16,
        &initial,
        Sum,
        PartitionPolicy::Range { bounds: vec![100, 200] },
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
    )
    .unwrap()
}

/// One request, so one epoch: a delete on shards 0 and 1 and an insert
/// into each. Returns whether it committed.
fn two_shard_epoch(service: &ShardedService<Sum, 2>) -> bool {
    let mut epoch = Request::new();
    epoch.delete(vec![0, 20]);
    epoch.insert(vec![Point::weighted([10, 50], 1000, 2)]);
    epoch.insert(vec![Point::weighted([150, 50], 1001, 2)]);
    match service.submit(epoch).unwrap().wait() {
        Ok(_) => true,
        Err(ServiceError::Machine(msg)) => {
            assert!(msg.contains("write epoch aborted"), "{msg}");
            false
        }
        Err(other) => panic!("expected a commit or an abort, got {other:?}"),
    }
}

/// Count, weight sum and ids of slab `s`, as the service answers them.
fn slab_answers(service: &ShardedService<Sum, 2>, s: i64) -> (u64, Option<u64>, Vec<u32>) {
    let slab = Rect::new([s * 100, 0], [s * 100 + 99, 100]);
    (
        service.count(slab).unwrap().wait().unwrap().value,
        service.aggregate(slab).unwrap().wait().unwrap().value,
        service.report(slab).unwrap().wait().unwrap().value,
    )
}

/// Rolling a healthy participant back is putting its previous version
/// back: the abort costs it exactly the machine runs of its forward
/// sub-epoch, the same as on a twin where the epoch commits. (It used to
/// be sent the inverse write: two more rebuilds.)
#[test]
fn an_aborted_epoch_costs_its_healthy_participant_no_rebuild() {
    let (committing, aborting) = (slabs(), slabs());
    let before = slab_answers(&aborting, 0);
    assert_eq!((before.0, &before.2), (20, &(0..20).collect::<Vec<u32>>()));
    aborting.fail_next_write_epoch(1);
    let shard0_runs = |service: &ShardedService<Sum, 2>| {
        let runs = service.stats().per_shard[0].machine.runs;
        let committed = two_shard_epoch(service);
        (committed, service.stats().per_shard[0].machine.runs - runs)
    };
    let (committed, forward) = shard0_runs(&committing);
    assert!(committed && forward > 0, "the twin's epoch rebuilds shard 0: {forward} runs");
    assert_eq!(shard0_runs(&aborting), (false, forward), "an abort costs shard 0 its forward runs");
    assert_eq!(slab_answers(&aborting, 0), before, "shard 0 answers from its pre-epoch version");
    assert_eq!(slab_answers(&committing, 0).0, 20, "the twin swapped id 0 for id 1000");
    let parts = aborting.dismantle();
    assert!(parts[0].poisoned.is_none() && parts[1].poisoned.is_some());
    assert_eq!(parts[0].tree.len(), 20);
    assert!(parts[0].tree.contains_id(0) && !parts[0].tree.contains_id(1000));
    committing.shutdown();
}

/// A shard whose own sub-epoch failed never swapped: it is quarantined
/// holding its pre-epoch version, not the half-applied one (the delete
/// done, the insert not), and recovery from its log lands on the same
/// answers.
#[test]
fn a_quarantined_shard_holds_its_pre_epoch_version() {
    let service = slabs();
    let before = slab_answers(&service, 1);
    service.fail_next_write_epoch(1);
    assert!(!two_shard_epoch(&service));
    let parts = service.dismantle();
    assert!(parts[1].poisoned.as_deref().unwrap().contains("ProcessorPanicked"));
    assert_eq!(parts[1].tree.len(), 20);
    assert!(parts[1].tree.contains_id(20) && !parts[1].tree.contains_id(1001));

    let service = slabs();
    service.fail_next_write_epoch(1);
    assert!(!two_shard_epoch(&service));
    let report = service.recover_shard(1).unwrap().wait().unwrap().value;
    assert_eq!((report.shard, report.live_points), (1, 20));
    assert_eq!(slab_answers(&service, 1), before);
    assert!(two_shard_epoch(&service), "the recovered shard takes the epoch it failed");
    assert_eq!(service.shutdown()[1].1.len(), 20);
}

/// Recovery folds the whole log and only then builds: it costs one
/// Algorithm Construct (one machine run) per level the recovered store
/// occupies, however many records were replayed. (It used to build after
/// every record: R + 1 runs and more.)
#[test]
fn recovery_builds_each_surviving_level_once() {
    for epochs in [4u32, 40] {
        let service = quick(1, PartitionPolicy::Hash);
        for e in 0..epochs {
            service.insert(pts(1000 + 5 * e..1005 + 5 * e)).unwrap().wait().unwrap();
        }
        service.fail_next_write_epoch(0);
        assert!(service.insert(pts(9000..9001)).unwrap().wait().is_err());
        let runs = service.stats().machine.runs;
        let report = service.recover_shard(0).unwrap().wait().unwrap().value;
        let recovery_runs = service.stats().machine.runs - runs;
        assert_eq!(report.replayed_records, epochs as usize + 1, "one Load, {epochs} epochs");
        assert_eq!(report.live_points, 60 + 5 * epochs as usize);
        let (_, store) = service.shutdown().pop().unwrap();
        assert_eq!(recovery_runs, store.occupied_levels() as u64, "{epochs} epochs: {store:?}");
    }
}

/// A recovery whose log lost its last committed record to a corrupt tail
/// forgets that record's ids: a delete of them is a no-op, and they are
/// insertable again.
#[test]
fn ids_lost_to_a_corrupt_tail_are_absent_after_recovery() {
    let path = std::env::temp_dir().join(format!("ddrs-shard-lost-{}.log", std::process::id()));
    let sink: Box<dyn ddrs_wal::LogSink> = Box::new(ddrs_wal::FileSink::create(&path).unwrap());
    let cfg = ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() };
    let service = ShardedService::start_with_sinks(
        machines(1, 1),
        8,
        &pts(0..20),
        Sum,
        PartitionPolicy::Hash,
        cfg,
        vec![sink],
    )
    .unwrap();
    service.insert(pts(100..105)).unwrap().wait().unwrap();
    // Flip the log's last byte: the record just committed fails its CRC.
    let mut log = std::fs::read(&path).unwrap();
    *log.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, log).unwrap();
    service.fail_next_write_epoch(0);
    assert!(service.insert(pts(200..201)).unwrap().wait().is_err());
    let report = service.recover_shard(0).unwrap().wait().unwrap().value;
    assert_eq!((report.clean_tail, report.replayed_records, report.live_points), (false, 1, 20));

    let all = Rect::new([0, 0], [800, 600]);
    service.delete((100..105).collect()).unwrap().wait().unwrap();
    assert_eq!(service.count(all).unwrap().wait().unwrap().value, 20);
    service.insert(pts(100..105)).unwrap().wait().unwrap();
    assert_eq!(service.count(all).unwrap().wait().unwrap().value, 25);
    service.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A log sink that writes its `repeat`-th appended frame twice, as a
/// faulty log could: replaying that log inserts the frame's points twice.
struct RepeatingSink {
    log: MemSink,
    appends: usize,
    repeat: usize,
}

impl LogSink for RepeatingSink {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.appends += 1;
        if self.appends == self.repeat {
            self.log.append(frame)?;
        }
        self.log.append(frame)
    }

    fn snapshot(&self) -> std::io::Result<Vec<u8>> {
        self.log.snapshot()
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.log.truncate(len)
    }
}

/// A recovery whose replay is refused installs nothing: the shard stays
/// quarantined on its last committed version, so a delete of an id it
/// held fails with the quarantine error rather than committing as a
/// no-op against an empty store, and its sibling keeps serving.
#[test]
fn a_refused_recovery_leaves_the_shard_quarantined_on_its_last_version() {
    let repeating = RepeatingSink { log: MemSink::new(), appends: 0, repeat: 2 };
    let sinks: Vec<Box<dyn LogSink>> = vec![Box::new(repeating), Box::new(MemSink::new())];
    let initial: Vec<Point<2>> = (0..40).map(|i| Point::new([i as i64 * 5, 0], i)).collect();
    let service = ShardedService::start_with_sinks(
        machines(2, 1),
        8,
        &initial,
        Sum,
        PartitionPolicy::Range { bounds: vec![100] },
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        sinks,
    )
    .unwrap();
    // Shard 0's second record, this insert, is logged twice.
    service.insert(vec![Point::new([7, 1], 100)]).unwrap().wait().unwrap();
    service.fail_next_write_epoch(0);
    assert!(service.insert(vec![Point::new([8, 1], 101)]).unwrap().wait().is_err());

    match service.recover_shard(0).unwrap().wait() {
        Err(ServiceError::Machine(msg)) => {
            assert!(msg.starts_with("recover failed: "), "{msg}");
            assert!(msg.contains("duplicate point id 100"), "{msg}");
        }
        other => panic!("expected a refused replay, got {other:?}"),
    }
    assert!(service.stats().per_shard[0].poisoned.is_some());
    match service.delete(vec![3]).unwrap().wait() {
        Err(ServiceError::Machine(msg)) => assert!(msg.contains("shard 0 is poisoned"), "{msg}"),
        other => panic!("a delete of a held id must meet the quarantine, got {other:?}"),
    }

    service.insert(vec![Point::new([150, 1], 102)]).unwrap().wait().unwrap();
    service.delete(vec![30]).unwrap().wait().unwrap();
    let slab1 = Rect::new([100, 0], [199, 1]);
    assert_eq!(service.count(slab1).unwrap().wait().unwrap().value, 20);
    let parts = service.dismantle();
    assert_eq!(parts[0].tree.len(), 21, "shard 0 holds its last committed version");
    assert!(parts[1].poisoned.is_none());
}
