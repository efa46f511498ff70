//! Kill-it-mid-load battery for the per-shard epoch write-ahead log:
//!
//! * a mid-epoch processor panic quarantines one shard while a burst of
//!   tickets is in flight — every ticket resolves with a definite
//!   outcome, then `recover_shard()` rebuilds the shard from its log
//!   and the service is observationally identical to a sequential
//!   oracle replay of all committed seqs;
//! * the same discipline holds under a randomized mixed workload with
//!   the fault armed at a proptest-chosen point (crash-recovery
//!   differential);
//! * migration records (`MigrateOut`/`MigrateIn`) replay correctly for
//!   both the donor and the recipient of a split;
//! * torn log tails — truncation at every byte offset of the final
//!   record, and single-bit damage to checksummed payloads — recover
//!   exactly the committed prefix, never panic, never partially apply,
//!   for both the in-memory and the file-backed sink;
//! * under `--features lock-check` (or any debug build) the tracked-lock
//!   runtime watches the whole battery with `wal.append` registered in
//!   the canonical order, and must report no inversions.

use std::time::Duration;

use proptest::prelude::*;

use ddrs::prelude::*;
use ddrs::trace::{MetricValue, MetricsRegistry};
use ddrs::wal::{decode_log, replay_into_store, EpochRecord, FileSink, LogSink, LogTail, MemSink};

mod common;
use common::{replay, Event};

fn machines(s: usize, p: usize) -> Vec<Machine> {
    (0..s).map(|_| Machine::new(p).unwrap()).collect()
}

/// Initial layout for the deterministic tests: three range slabs on
/// axis 0 — shard 0 owns x < 100, shard 1 owns 100 ≤ x < 200, shard 2
/// owns x ≥ 200. 20 points per slab.
fn initial() -> Vec<Point<2>> {
    (0..60u32)
        .map(|i| {
            let slab = (i / 20) as i64;
            Point::weighted(
                [slab * 100 + (i % 20) as i64 * 5, (i % 20) as i64],
                i,
                1 + i as u64 % 3,
            )
        })
        .collect()
}

fn slab_rect(s: i64) -> Rect<2> {
    Rect::new([s * 100, 0], [s * 100 + 99, 100])
}

const ALL: Rect<2> = Rect { lo: [i64::MIN, i64::MIN], hi: [i64::MAX, i64::MAX] };

/// A failed write against a faulted or quarantined shard must say so —
/// any other failure is a test bug.
fn assert_definite_failure(e: &ServiceError) {
    match e {
        ServiceError::Machine(msg) => {
            assert!(
                msg.contains("write epoch aborted") || msg.contains("poisoned"),
                "unexpected failure: {msg}"
            );
        }
        other => panic!("expected a machine error, got {other:?}"),
    }
}

/// The flagship kill-and-recover scenario: commit traffic, arm a
/// mid-epoch fault on shard 1, let a burst of in-flight tickets resolve
/// through the abort, then `recover_shard(1)` and verify the rebuilt
/// service against the seq-ordered oracle replay.
#[test]
fn kill_mid_epoch_recover_and_heal() {
    let base = initial();
    let mut events: Vec<(u64, Event)> = Vec::new();
    let service = ShardedService::start(
        machines(3, 2),
        16,
        &base,
        Sum,
        PartitionPolicy::Range { bounds: vec![100, 200] },
        ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_millis(100),
            ..Default::default()
        },
    )
    .unwrap();
    // The bulk load is each shard's first log record, and a store that
    // has served nothing yet already says so.
    for shard in &service.stats().per_shard {
        assert_eq!(shard.wal_records, 1);
        assert!(shard.wal_bytes > 0);
    }

    // Committed pre-crash traffic: the log must carry these epochs.
    let c0 = service.count(ALL).unwrap().wait().unwrap();
    assert_eq!(c0.value, 60);
    events.push((c0.seq, Event::Count(ALL, c0.value)));
    let ins = vec![Point::weighted([150, 50], 1000, 2)]; // → shard 1
    let ci = service.insert(ins.clone()).unwrap().wait().unwrap();
    events.push((ci.seq, Event::Insert(ins)));
    let cd = service.delete(vec![21]).unwrap().wait().unwrap(); // x = 105 → shard 1
    events.push((cd.seq, Event::Delete(vec![21])));

    // Kill shard 1 mid-epoch with a burst of tickets in flight. Every
    // ticket must resolve with a definite outcome: commit (recorded),
    // epoch abort, or quarantine error — nothing hangs, nothing is
    // silently half-applied.
    service.fail_next_write_epoch(1);
    let t1 = service.insert(vec![Point::weighted([151, 51], 1001, 2)]).unwrap(); // → shard 1
    let t2 = service.delete(vec![1, 22]).unwrap(); // spans shards 0 + 1
    let t3 = service.insert(vec![Point::weighted([10, 90], 1002, 1)]).unwrap(); // → shard 0
    let t4 = service.count(ALL).unwrap();
    assert_definite_failure(&t1.wait().unwrap_err());
    assert_definite_failure(&t2.wait().unwrap_err());
    match t3.wait() {
        // Shard 0 commits iff its sub-epoch avoided the aborting epoch.
        Ok(c) => events.push((c.seq, Event::Insert(vec![Point::weighted([10, 90], 1002, 1)]))),
        Err(e) => assert_definite_failure(&e),
    }
    match t4.wait() {
        Ok(c) => events.push((c.seq, Event::Count(ALL, c.value))),
        Err(ServiceError::Machine(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        Err(other) => panic!("unexpected read failure: {other:?}"),
    }

    // Exactly shard 1 is quarantined, and the quarantine is visible in
    // the WAL-side telemetry: every shard logged its bulk load, shard 1
    // also logged the two committed epochs (never the aborted one).
    let stats = service.stats();
    assert!(stats.per_shard[1].poisoned.as_deref().unwrap_or("").contains("ProcessorPanicked"));
    assert!(stats.per_shard[0].poisoned.is_none());
    assert!(stats.per_shard[2].poisoned.is_none());
    assert_eq!(stats.per_shard[1].wal_records, 3, "load + 2 committed epochs, aborts unlogged");
    assert!(stats.per_shard[1].wal_bytes > 0);

    // Recovering a healthy shard is a clean error, not a panic.
    match service.recover_shard(0).unwrap().wait() {
        Err(ServiceError::Machine(msg)) => assert!(msg.contains("not poisoned"), "{msg}"),
        other => panic!("recovering a healthy shard must fail, got {other:?}"),
    }

    // Recover shard 1 from its log, live.
    let rec = service.recover_shard(1).unwrap().wait().unwrap();
    assert_eq!(rec.value.shard, 1);
    assert!(rec.value.clean_tail, "in-memory log must decode cleanly");
    assert_eq!(rec.value.replayed_records, 3);
    assert_eq!(rec.value.live_points, 20, "20 initial + id 1000 − id 21");

    // The healed service serves all shards again; committed history and
    // post-recovery reads replay cleanly through the oracle.
    let c1 = service.count(ALL).unwrap().wait().unwrap();
    events.push((c1.seq, Event::Count(ALL, c1.value)));
    let r1 = service.report(slab_rect(1)).unwrap().wait().unwrap();
    events.push((r1.seq, Event::Report(slab_rect(1), r1.value.clone())));
    // Writes route through the recovered shard again.
    let heal = vec![Point::weighted([160, 10], 2000, 3)];
    let ch = service.insert(heal.clone()).unwrap().wait().unwrap();
    events.push((ch.seq, Event::Insert(heal)));
    let c2 = service.count(slab_rect(1)).unwrap().wait().unwrap();
    assert_eq!(c2.value, 21);
    events.push((c2.seq, Event::Count(slab_rect(1), c2.value)));

    // Recovery is accounted: counters, duration histogram, and the
    // metrics-registry export under the standard vocabulary.
    let stats = service.stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.recovered_points, 20);
    assert_eq!(stats.recovery_us.count(), 1);
    let reg = MetricsRegistry::new();
    stats.register_into(&reg, "sharded");
    let snap = reg.snapshot();
    assert_eq!(snap.get("sharded.recoveries"), Some(&MetricValue::Counter(1)));
    assert_eq!(snap.get("sharded.recovered_points"), Some(&MetricValue::Counter(20)));
    assert!(
        matches!(snap.get("sharded.shard.1.wal_records"), Some(MetricValue::Counter(n)) if *n >= 3)
    );
    assert!(
        matches!(snap.get("sharded.recovery_us"), Some(MetricValue::Histogram(h)) if h.count() == 1)
    );

    // Nothing committed contradicts the seq-ordered oracle replay, and
    // the final store union equals the oracle's id set exactly.
    let oracle = replay(&base, events);
    let parts = service.shutdown();
    let mut live: Vec<u32> = parts.iter().flat_map(|(_, t)| t.points().map(|p| p.id)).collect();
    live.sort_unstable();
    let mut want: Vec<u32> = oracle.pts.iter().map(|p| p.id).collect();
    want.sort_unstable();
    assert_eq!(live, want, "recovered store diverged from the oracle replay");

    // The whole kill/recover/heal path ran under the tracked-lock
    // runtime with `wal.append` in the canonical order.
    let reports = ddrs::check::lock_order_reports();
    assert!(reports.is_empty(), "lock-order inversions during recovery:\n{}", reports.join("\n"));
}

/// Split migrations write `MigrateOut`/`MigrateIn` records; killing and
/// recovering the *recipient* and then the *donor* of a split must both
/// replay to exactly the post-migration state.
#[test]
fn recovery_replays_migration_records_for_donor_and_recipient() {
    let base: Vec<Point<2>> = (0..40u32)
        .map(|i| Point::weighted([(i as i64 % 20) * 9, i as i64 / 2], i, 1 + i as u64 % 4))
        .collect();
    let service = ShardedService::start(
        machines(2, 2),
        8,
        &base,
        Sum,
        PartitionPolicy::Range { bounds: vec![10_000] }, // everything starts on shard 0
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
    )
    .unwrap();
    let split = service.split_shard(0).unwrap().wait().unwrap().value;
    assert!(split.moved > 0);

    // Kill and recover the recipient: its log is Load-free (it started
    // empty) — just the MigrateIn record plus any later epochs.
    service.fail_next_write_epoch(1);
    let probe = Point::weighted([split.boundary, 999], 5000, 1); // routes right → shard 1
    assert_definite_failure(&service.insert(vec![probe]).unwrap().wait().unwrap_err());
    let rec = service.recover_shard(1).unwrap().wait().unwrap().value;
    assert_eq!(rec.live_points, split.moved, "recipient must replay its MigrateIn exactly");
    assert_eq!(service.count(ALL).unwrap().wait().unwrap().value, 40);

    // Kill and recover the donor: its log carries Load + MigrateOut, so
    // the replay must *delete* the migrated half.
    service.fail_next_write_epoch(0);
    let probe = Point::weighted([0, 999], 5001, 1); // routes left → shard 0
    assert_definite_failure(&service.insert(vec![probe]).unwrap().wait().unwrap_err());
    let rec = service.recover_shard(0).unwrap().wait().unwrap().value;
    assert_eq!(rec.live_points, 40 - split.moved, "donor must replay its MigrateOut exactly");
    assert_eq!(service.count(ALL).unwrap().wait().unwrap().value, 40);
    let all_ids = service.report(ALL).unwrap().wait().unwrap().value;
    assert_eq!(all_ids, (0..40).collect::<Vec<u32>>());

    // Both recoveries happened and the service is fully healthy.
    let stats = service.stats();
    assert_eq!(stats.recoveries, 2);
    assert!(stats.per_shard.iter().all(|s| s.poisoned.is_none()));
    service.shutdown();
    let reports = ddrs::check::lock_order_reports();
    assert!(reports.is_empty(), "lock-order inversions during recovery:\n{}", reports.join("\n"));
}

/// A service running on file-backed sinks recovers a killed shard from
/// the *file*, and the file's bytes survive torn-tail damage: truncation
/// at every offset of the final record and single-bit flips recover
/// exactly the committed prefix — through both sink flavours.
#[test]
fn file_backed_recovery_and_torn_tail_fuzz() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let paths: Vec<std::path::PathBuf> =
        (0..2).map(|s| dir.join(format!("ddrs-wal-recovery-{tag}-{s}.log"))).collect();
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let base: Vec<Point<2>> = (0..48u32)
        .map(|i| Point::weighted([(i as i64 % 2) * 150, i as i64], i, 1 + i as u64 % 3))
        .collect();
    let sinks: Vec<Box<dyn LogSink>> =
        paths.iter().map(|p| Box::new(FileSink::create(p).unwrap()) as Box<dyn LogSink>).collect();
    let service = ShardedService::start_with_sinks(
        machines(2, 2),
        8,
        &base,
        Sum,
        PartitionPolicy::Range { bounds: vec![100] },
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        sinks,
    )
    .unwrap();

    // Committed epochs on shard 1 (x ≥ 100), then a kill.
    service.insert(vec![Point::weighted([150, 200], 9000, 5)]).unwrap().wait().unwrap();
    service.delete(vec![1, 3]).unwrap().wait().unwrap(); // odd ids live at x = 150
    service.fail_next_write_epoch(1);
    let boom = service.insert(vec![Point::weighted([160, 0], 9001, 1)]).unwrap().wait();
    assert_definite_failure(&boom.unwrap_err());

    // Recovery replays the *file*: 24 initial + 9000 − {1, 3}.
    let rec = service.recover_shard(1).unwrap().wait().unwrap().value;
    assert!(rec.clean_tail);
    assert_eq!(rec.live_points, 23);
    assert_eq!(service.count(ALL).unwrap().wait().unwrap().value, 47);
    service.shutdown();

    // The persisted log now ends in the post-recovery state. Fuzz its
    // tail: cut at every byte offset inside the final record…
    let bytes = std::fs::read(&paths[1]).unwrap();
    let (full, tail) = decode_log::<2>(&bytes);
    assert_eq!(tail, LogTail::Clean);
    assert!(full.len() >= 3, "load + committed epochs must be on disk: {}", full.len());
    let last_start = bytes.len() - frame_len(full.last().unwrap());
    let machine = Machine::new(2).unwrap();
    let prefix_store = replay_into_store(&machine, 8, &full[..full.len() - 1]).unwrap();
    for cut in 0..(bytes.len() - last_start) {
        let torn = &bytes[..last_start + cut];
        // …through the in-memory sink…
        let mem = ddrs::wal::EpochWal::<2>::with_sink(Box::new(MemSink::from_bytes(torn.to_vec())));
        let (recs, mtail) = mem.replay().unwrap();
        assert_eq!(recs, full[..full.len() - 1], "mem cut at +{cut}");
        assert_eq!(mtail == LogTail::Clean, cut == 0, "mem cut at +{cut}: {mtail:?}");
        // …and through a freshly re-opened file, as after a real crash.
        let torn_path = dir.join(format!("ddrs-wal-recovery-{tag}-torn.log"));
        std::fs::write(&torn_path, torn).unwrap();
        let file =
            ddrs::wal::EpochWal::<2>::with_sink(Box::new(FileSink::open(&torn_path).unwrap()));
        let (recs, ftail) = file.replay().unwrap();
        assert_eq!(recs, full[..full.len() - 1], "file cut at +{cut}");
        assert_eq!(ftail == LogTail::Clean, cut == 0, "file cut at +{cut}: {ftail:?}");
        let _ = std::fs::remove_file(&torn_path);
    }
    // A torn prefix replays to exactly the pre-final-record store: no
    // partial application of the damaged record.
    let torn_store = replay_into_store(&machine, 8, &full[..full.len() - 1]).unwrap();
    assert_eq!(torn_store.len(), prefix_store.len());

    // …and flip one bit in every byte of the final record: decode must
    // never panic, and a record that fails its checksum must vanish
    // whole (prefix intact, tail not clean).
    for i in last_start..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[i] ^= 1 << (i % 8);
        let (recs, dtail) = decode_log::<2>(&damaged);
        assert!(recs.len() >= full.len() - 1, "flip at {i} lost committed records");
        assert_eq!(recs[..full.len() - 1], full[..full.len() - 1], "flip at {i}");
        if recs.len() < full.len() {
            assert_ne!(dtail, LogTail::Clean, "flip at {i} silently dropped the final record");
        }
    }
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}

/// Regression: recovering from a torn tail used to leave the damaged
/// bytes in the log, so every epoch committed after the recovery was
/// appended *behind* them — and the next recovery, stopping at the same
/// offset, silently dropped all of it. The recovery must cut the tail
/// off before the shard rejoins.
#[test]
fn recovery_after_a_torn_tail_keeps_every_later_commit() {
    let path =
        std::env::temp_dir().join(format!("ddrs-wal-recovery-{}-twice.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let base: Vec<Point<2>> =
        (0..24u32).map(|i| Point::weighted([i as i64, i as i64], i, 1 + i as u64 % 3)).collect();
    // An append-mode sink, as after a restart: what lands in the file
    // behind its back stays ahead of whatever it appends next.
    let sink: Box<dyn LogSink> = Box::new(FileSink::open(&path).unwrap());
    let service = ShardedService::start_with_sinks(
        machines(1, 2),
        8,
        &base,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        vec![sink],
    )
    .unwrap();
    let poison = |id: u32| {
        service.fail_next_write_epoch(0);
        let doomed = service.insert(vec![Point::weighted([500, 500], id, 1)]).unwrap().wait();
        assert_definite_failure(&doomed.unwrap_err());
    };
    service.insert(vec![Point::weighted([100, 1], 1000, 2)]).unwrap().wait().unwrap();

    // Crash mid-append: the log ends in the first half of a frame.
    poison(9001);
    let frame = ddrs::wal::encode_record(&EpochRecord::<2>::event(
        ddrs::wal::RecordKind::Epoch,
        99,
        Vec::new(),
        vec![Point::weighted([7, 7], 7777, 1)],
    ));
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        log.write_all(&frame[..frame.len() / 2]).unwrap();
    }
    let first = service.recover_shard(0).unwrap().wait().unwrap().value;
    assert!(!first.clean_tail, "the torn half-frame must be reported");
    assert_eq!(first.replayed_records, 2, "load + one epoch precede the tear");
    assert_eq!(first.live_points, 25);

    // Two more acknowledged epochs, then a second crash and recovery.
    service.insert(vec![Point::weighted([101, 1], 1001, 2)]).unwrap().wait().unwrap();
    service.delete(vec![0, 1]).unwrap().wait().unwrap();
    poison(9002);
    let second = service.recover_shard(0).unwrap().wait().unwrap().value;
    assert!(second.clean_tail, "the first recovery must have cut the torn tail off");
    assert_eq!(second.replayed_records, 4, "the two later epochs are reachable");
    assert_eq!(second.live_points, 24, "24 initial + 1000 + 1001 − {{0, 1}}");

    // Every acknowledged write is present, none of the failed ones is.
    let mut want: Vec<u32> = (2..24).chain([1000, 1001]).collect();
    want.sort_unstable();
    assert_eq!(service.report(ALL).unwrap().wait().unwrap().value, want);
    // The counters were re-based on the cut log: they describe the file.
    let shard = &service.stats().per_shard[0];
    assert_eq!(shard.wal_records, 4);
    assert_eq!(shard.wal_bytes, std::fs::metadata(&path).unwrap().len());
    service.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Frame size of one record (header + payload), for locating the final
/// record's start without re-encoding assumptions leaking into tests.
fn frame_len(rec: &EpochRecord<2>) -> usize {
    ddrs::wal::encode_record(rec).len()
}

// ---------------------------------------------------------------------
// Crash-recovery differential proptest: randomized workload, fault at a
// random position, recovery, then oracle replay of committed seqs.
// ---------------------------------------------------------------------

type RawRect = ((i64, i64), (i64, i64));

fn to_rect(raw: RawRect) -> Rect<2> {
    let ((a, b), (c, d)) = raw;
    Rect::new([a.min(c), b.min(d)], [a.max(c), b.max(d)])
}

fn run_recovery_case(
    s: usize,
    p: usize,
    range_policy: bool,
    n_initial: usize,
    ops: Vec<(u8, RawRect, usize)>,
    fault_at: usize,
    fault_shard: usize,
) {
    let base: Vec<Point<2>> = (0..n_initial as u32)
        .map(|i| {
            Point::weighted([(i as i64 * 37) % 256, (i as i64 * 53) % 256], i, 1 + i as u64 % 7)
        })
        .collect();
    let policy = if range_policy {
        PartitionPolicy::range_from_sample(s, &base)
    } else {
        PartitionPolicy::Hash
    };
    let service = ShardedService::start(
        machines(s, p),
        8,
        &base,
        Sum,
        policy,
        ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(100),
            ..Default::default()
        },
    )
    .unwrap();
    let target = fault_shard % s;
    let mut events: Vec<(u64, Event)> = Vec::new();
    let mut next_id = 10_000u32;

    for (i, (kind, raw_rect, pick)) in ops.iter().enumerate() {
        if i == fault_at {
            // Arm the fault, then race a burst of in-flight tickets
            // against the kill: every one must resolve definitely.
            service.fail_next_write_epoch(target);
            let burst_pt = Point::weighted([(*pick as i64) % 256, 7], next_id, 2);
            next_id += 1;
            let tw = service.insert(vec![burst_pt]).unwrap();
            let td = service.delete(vec![*pick as u32 % n_initial.max(1) as u32]).unwrap();
            let tr = service.count(ALL).unwrap();
            match tw.wait() {
                Ok(c) => events.push((c.seq, Event::Insert(vec![burst_pt]))),
                Err(e) => assert_definite_failure(&e),
            }
            match td.wait() {
                Ok(c) => events
                    .push((c.seq, Event::Delete(vec![*pick as u32 % n_initial.max(1) as u32]))),
                Err(e) => assert_definite_failure(&e),
            }
            match tr.wait() {
                Ok(c) => events.push((c.seq, Event::Count(ALL, c.value))),
                Err(ServiceError::Machine(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
                Err(other) => panic!("unexpected read failure: {other:?}"),
            }
        }
        match kind % 4 {
            0 | 1 => {
                let q = to_rect(*raw_rect);
                match service.count(q).unwrap().wait() {
                    Ok(c) => events.push((c.seq, Event::Count(q, c.value))),
                    Err(ServiceError::Machine(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
                    Err(other) => panic!("unexpected read failure: {other:?}"),
                }
            }
            2 => {
                let q = to_rect(*raw_rect);
                match service.report(q).unwrap().wait() {
                    Ok(c) => events.push((c.seq, Event::Report(q, c.value))),
                    Err(ServiceError::Machine(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
                    Err(other) => panic!("unexpected read failure: {other:?}"),
                }
            }
            3 => {
                if pick % 3 == 0 {
                    let ids = vec![*pick as u32 % n_initial.max(1) as u32, u32::MAX - 1];
                    match service.delete(ids.clone()).unwrap().wait() {
                        Ok(c) => events.push((c.seq, Event::Delete(ids))),
                        Err(e) => assert_definite_failure(&e),
                    }
                } else {
                    let batch: Vec<Point<2>> = (0..1 + pick % 3)
                        .map(|j| {
                            let id = next_id + j as u32;
                            Point::weighted(
                                [(id as i64 * 31) % 256, (id as i64 * 17) % 256],
                                id,
                                1 + id as u64 % 5,
                            )
                        })
                        .collect();
                    next_id += batch.len() as u32;
                    match service.insert(batch.clone()).unwrap().wait() {
                        Ok(c) => events.push((c.seq, Event::Insert(batch))),
                        Err(e) => assert_definite_failure(&e),
                    }
                }
            }
            _ => unreachable!(),
        }
    }

    // Heal whatever died (the armed fault may never have been tripped —
    // then recovery must refuse cleanly instead).
    let poisoned: Vec<usize> = service
        .stats()
        .per_shard
        .iter()
        .enumerate()
        .filter_map(|(i, sh)| sh.poisoned.as_ref().map(|_| i))
        .collect();
    for sh in 0..s {
        let verdict = service.recover_shard(sh).unwrap().wait();
        if poisoned.contains(&sh) {
            let rec = verdict.unwrap().value;
            assert_eq!(rec.shard, sh);
            assert!(rec.clean_tail, "in-memory log must decode cleanly");
        } else {
            match verdict {
                Err(ServiceError::Machine(msg)) => assert!(msg.contains("not poisoned"), "{msg}"),
                other => panic!("recovering a healthy shard must fail, got {other:?}"),
            }
        }
    }

    // Post-recovery the whole keyspace serves again; record the final
    // observations and check the entire committed history against the
    // oracle replay.
    let c = service.count(ALL).unwrap().wait().unwrap();
    events.push((c.seq, Event::Count(ALL, c.value)));
    let r = service.report(ALL).unwrap().wait().unwrap();
    events.push((r.seq, Event::Report(ALL, r.value.clone())));
    let oracle = replay(&base, events);

    let parts = service.shutdown();
    let mut live: Vec<u32> = parts.iter().flat_map(|(_, t)| t.points().map(|p| p.id)).collect();
    live.sort_unstable();
    let mut want: Vec<u32> = oracle.pts.iter().map(|p| p.id).collect();
    want.sort_unstable();
    assert_eq!(live, want, "recovered store diverged from the oracle replay");
    let reports = ddrs::check::lock_order_reports();
    assert!(reports.is_empty(), "lock-order inversions under recovery:\n{}", reports.join("\n"));
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, RawRect, usize)>> {
    prop::collection::vec(
        (0u8..255, ((0i64..256, 0i64..256), (0i64..256, 0i64..256)), 0usize..1000),
        10..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn crash_recovery_matches_committed_oracle_replay(
        shape in (0usize..2, 0usize..2, 0u8..2),
        n_initial in 8usize..48,
        ops in arb_ops(),
        fault_at in 0usize..10,
        fault_shard in 0usize..4,
    ) {
        let (si, pi, pol) = shape;
        run_recovery_case([2usize, 3][si], [1usize, 2][pi], pol == 1, n_initial, ops, fault_at, fault_shard);
    }
}
