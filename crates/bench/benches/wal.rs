//! Criterion benches for the per-shard epoch write-ahead log:
//!
//! * `wal/append` — framing + checksum + in-memory append cost per
//!   committed epoch record (the tax every write epoch pays on the
//!   log-before-resolve path),
//! * `wal/decode` — torn-tail-safe frame decoding of a full shard log,
//! * `wal/recover` — the full crash-recovery path: decode the log and
//!   replay it into a fresh store on a `Machine` (what
//!   `ShardedService::recover_shard` runs between two dispatches).
//!
//! `stackbench`'s `crash_recover` workload measures the same recovery
//! path end-to-end inside a live sharded service.

use criterion::{criterion_group, criterion_main, Criterion};

use ddrs_bench::uniform_points;
use ddrs_cgm::Machine;
use ddrs_rangetree::Point;
use ddrs_wal::{decode_log, EpochRecord, EpochWal, RecordKind, Verdict};

/// A shard's worth of log records: one bulk load plus `epochs` mixed
/// delete+insert epochs over `n` points.
fn build_records(n: usize, epochs: usize) -> Vec<EpochRecord<2>> {
    let pts: Vec<Point<2>> = uniform_points(7, n);
    let mut records = vec![EpochRecord::event(RecordKind::Load, 0, Vec::new(), pts.clone())];
    for e in 0..epochs {
        let start = (e * 13) % n;
        let deletes: Vec<u32> = (0..8).map(|j| pts[(start + j) % n].id).collect();
        let inserts: Vec<Point<2>> = deletes
            .iter()
            .map(|&id| Point::weighted([i64::from(id) % 512, i64::from(id) / 2], id, 3))
            .collect();
        records.push(EpochRecord {
            kind: RecordKind::Epoch,
            first_seq: e as u64 * 16,
            verdicts: vec![Verdict::Commit; 16],
            deletes,
            inserts,
        });
    }
    records
}

fn bench_wal(c: &mut Criterion) {
    let records = build_records(1 << 12, 64);

    let mut g = c.benchmark_group("wal");
    g.sample_size(10);

    g.bench_function("append", |b| {
        b.iter(|| {
            let wal = EpochWal::<2>::in_memory();
            for r in &records {
                wal.append_record(r).expect("mem append");
            }
            wal.stats().bytes
        });
    });

    let wal = EpochWal::<2>::in_memory();
    for r in &records {
        wal.append_record(r).expect("mem append");
    }
    let bytes = wal.snapshot_bytes().expect("mem snapshot");
    println!(
        "wal: {} records, {} bytes ({:.1} bytes/record)",
        records.len(),
        bytes.len(),
        bytes.len() as f64 / records.len() as f64
    );

    g.bench_function("decode", |b| {
        b.iter(|| {
            let (recs, tail) = decode_log::<2>(&bytes);
            assert!(matches!(tail, ddrs_wal::LogTail::Clean));
            recs.len()
        });
    });

    let machine = Machine::new(2).expect("bench machine");
    g.bench_function("recover", |b| {
        b.iter(|| {
            let (recs, _) = decode_log::<2>(&bytes);
            ddrs_wal::replay_into_store(&machine, 1 << 9, &recs).expect("replay").len()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_wal);
criterion_main!(benches);
