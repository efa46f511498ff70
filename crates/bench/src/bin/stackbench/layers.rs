//! The traced run's layer-by-layer readings.
//!
//! **Ladder.** One fixed slice of the workload's own requests, one
//! caller, one request at a time, through each boundary in turn:
//! `SeqRangeTree` → `query_batch_fused` at p = 1 → `InlineStore` →
//! `ShardedService` S = 1 / `MemSink` → S = 2 / `MemSink` → S = 2 /
//! `FileSink` → `RemoteStore` over loopback. A layer's self time is its
//! rung's median minus the rung below.
//!
//! **Direct calls** for what a ladder cannot isolate: the wire codec,
//! the WAL's encode / decode / append / replay, and a static build.

use std::time::Instant;

use ddrs_cgm::Machine;
use ddrs_client::{InlineStore, Outcome, RangeStore, Response};
use ddrs_net::codec;
use ddrs_rangetree::{DistRangeTree, Point, Sum};
use ddrs_wal::{
    decode_log, encode_record, replay_into_store, EpochRecord, EpochWal, FileSink, RecordKind,
};

use crate::gen::{Oracle, Spec, CAPACITY};
use crate::json::Json;
use crate::report::{LadderInputs, Report};
use crate::stack::{build_store, serve, start_service, Run, Sink, SHARDS};
use crate::stats::{median, quantile, sorted, us};

/// Per-request times of one rung, µs, in slice order.
struct RungTimes(Vec<f64>);

impl RungTimes {
    fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Time per read over the slice's read requests (0 without reads).
    fn per_query(&self, specs: &[Spec]) -> f64 {
        let (t, n) = specs
            .iter()
            .zip(&self.0)
            .filter(|(s, _)| s.reads() > 0)
            .fold((0.0, 0usize), |(t, n), (s, took)| (t + took, n + s.reads()));
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }
}

/// Push the slice through `call`, one request at a time. A read-only
/// slice is walked once first so caches and lazy set-up are paid for.
fn rung(l: &LadderInputs<'_>, mut call: impl FnMut(&Spec) -> f64) -> RungTimes {
    if l.reads_only() {
        for spec in l.specs {
            call(spec);
        }
    }
    RungTimes(l.specs.iter().map(&mut call).collect())
}

/// Submit through the client API and wait; the request is built before
/// the clock starts and its outcome handed to `keep` after it stops, so
/// the rung times the store, not the harness.
fn submit_rung(
    l: &LadderInputs<'_>,
    store: &impl RangeStore<Sum, 2>,
    mut keep: impl FnMut(Outcome<Response<Sum>>),
) -> RungTimes {
    rung(l, |spec| {
        let req = spec.build();
        let t0 = Instant::now();
        let out = store.submit(req).expect("an idle store admits").wait();
        let took = us(t0.elapsed());
        keep(out);
        took
    })
}

fn committed(out: Outcome<Response<Sum>>) {
    out.expect("ladder requests commit");
}

pub fn measure(run: &Run, l: &LadderInputs<'_>, report: &mut Report) {
    let all: Vec<Point<2>> = l.initial.concat();

    let oracle_rung = if l.reads_only() {
        let oracle = Oracle::build(&all);
        rung(l, |spec| {
            let Spec::Reads(reads) = spec else { unreachable!("a read-only slice") };
            let t0 = Instant::now();
            std::hint::black_box(oracle.answer(reads));
            us(t0.elapsed())
        })
    } else {
        RungTimes(vec![0.0; l.specs.len()])
    };

    // A read-only slice leaves the store as it was, so the raw and
    // inline rungs share one and differ by the client layer alone; a
    // slice with writes needs a fresh store for each.
    let (machine, mut tree) = build_store(1, &l.initial);
    let raw = rung(l, |spec| {
        let t0 = Instant::now();
        match spec {
            Spec::Reads(r) => {
                std::hint::black_box(
                    tree.query_batch_fused(&machine, Sum, &r.counts, &r.aggs, &r.reports),
                );
            }
            Spec::Insert(pts) => tree.insert_batch(&machine, pts).expect("fresh ids"),
            Spec::Delete(ids) => {
                tree.delete_batch(&machine, ids).expect("delete ignores missing ids")
            }
        }
        us(t0.elapsed())
    });
    let (machine, tree) = if l.reads_only() { (machine, tree) } else { build_store(1, &l.initial) };
    let store = InlineStore::new(machine, tree, Sum);
    // The inline rung also yields the slice's responses (for the codec
    // calls below) and the store's level count after the slice.
    let mut responses: Vec<Outcome<Response<Sum>>> = Vec::new();
    let inline = submit_rung(l, &store, |out| responses.push(out));
    // A read-only slice was walked twice; keep one response per request.
    responses.drain(..responses.len() - l.specs.len());
    let levels = store.into_parts().1.occupied_levels();

    // A service loaded like the stores above: the first batch as its
    // bulk load, the rest as inserts, so every rung sees the same levels.
    let service = |shards: usize, sink: Sink| {
        let service = start_service(shards, l.initial[0], sink, &run.wal_dir);
        for batch in &l.initial[1..] {
            service
                .insert(batch.to_vec())
                .expect("an idle service admits")
                .wait()
                .expect("fresh ids commit");
        }
        service
    };
    let s1_mem = submit_rung(l, &service(1, Sink::Mem), committed);
    let s2_mem = submit_rung(l, &service(SHARDS, Sink::Mem), committed);
    let s2_file = submit_rung(l, &service(SHARDS, Sink::File), committed);
    let remote = submit_rung(l, &serve(service(SHARDS, Sink::File), 1).remote, committed);

    report.set("ladder.oracle_us", oracle_rung.median());
    report.set("ladder.raw_us", raw.median());
    report.set("ladder.inproc_us", s2_file.median());
    report.set("ladder.remote_us", remote.median());
    report.set("rangetree.oracle_us_per_query", oracle_rung.per_query(l.specs));
    report.set("rangetree.fused_us_per_query", raw.per_query(l.specs));
    report.set("rangetree.levels", levels as f64);
    report.set("client.plan_us", inline.median() - raw.median());
    report.set("shard.self_us", s1_mem.median() - inline.median());
    report.set("shard.s2_self_us", s2_mem.median() - s1_mem.median());
    report.set("wal.self_us", s2_file.median() - s2_mem.median());
    report.set("net.self_us", remote.median() - s2_file.median());
    report.extra.push((
        "ladder_us",
        Json::obj(vec![
            ("requests", Json::Num(l.specs.len() as f64)),
            ("oracle", Json::Num(oracle_rung.median())),
            ("raw_p1", Json::Num(raw.median())),
            ("inline", Json::Num(inline.median())),
            ("s1_mem", Json::Num(s1_mem.median())),
            ("s2_mem", Json::Num(s2_mem.median())),
            ("s2_file", Json::Num(s2_file.median())),
            ("remote", Json::Num(remote.median())),
        ]),
    ));

    codec_calls(l.specs, &responses, report);
    wal_calls(run, &all, report);
    build_call(&all, report);
}

/// `encode_request` / `decode_request` / `encode_response` /
/// `decode_server_msg` on the slice's own requests and responses.
fn codec_calls(specs: &[Spec], responses: &[Outcome<Response<Sum>>], report: &mut Report) {
    let n = specs.len().max(1) as f64;
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) = (0.0, 0.0, 0.0, 0.0);
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for (i, (spec, out)) in specs.iter().zip(responses).enumerate() {
        let req = spec.build();
        let t0 = Instant::now();
        let frame = codec::encode_request(i as u64, &req);
        enc_req += us(t0.elapsed());
        req_bytes += frame.len();
        let t0 = Instant::now();
        let decoded = codec::decode_request::<Sum, 2>(&frame[codec::FRAME_HEADER..]);
        dec_req += us(t0.elapsed());
        assert!(decoded.is_ok(), "the codec rejects its own request frame");

        let t0 = Instant::now();
        let frame = codec::encode_response::<Sum>(i as u64, out);
        enc_resp += us(t0.elapsed());
        resp_bytes += frame.len();
        let t0 = Instant::now();
        let decoded = codec::decode_server_msg::<Sum>(&frame[codec::FRAME_HEADER..]);
        dec_resp += us(t0.elapsed());
        assert!(decoded.is_ok(), "the codec rejects its own response frame");
    }
    report.set("net.encode_req_us", enc_req / n);
    report.set("net.decode_req_us", dec_req / n);
    report.set("net.encode_resp_us", enc_resp / n);
    report.set("net.decode_resp_us", dec_resp / n);
    report.set("net.bytes_per_request", req_bytes as f64 / n);
    report.set("net.bytes_per_response", resp_bytes as f64 / n);
}

const WAL_RECORD_POINTS: usize = 256;
const WAL_RECORDS: usize = 256;

/// The WAL's pieces on 256 records of 256 points: what an insert of the
/// write workloads logs, and what a recovery decodes and replays.
fn wal_calls(run: &Run, all: &[Point<2>], report: &mut Report) {
    let records: Vec<EpochRecord<2>> = all
        .chunks_exact(WAL_RECORD_POINTS)
        .take(WAL_RECORDS)
        .enumerate()
        .map(|(i, pts)| EpochRecord::event(RecordKind::Epoch, i as u64, Vec::new(), pts.to_vec()))
        .collect();

    let t0 = Instant::now();
    let frames: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
    let encode_s = t0.elapsed().as_secs_f64();
    let log = frames.concat();
    let mb = log.len() as f64 / 1e6;
    report.set("wal.encode_mb_per_s", mb / encode_s);

    let t0 = Instant::now();
    let (decoded, _) = decode_log::<2>(&log);
    report.set("wal.decode_mb_per_s", mb / t0.elapsed().as_secs_f64());
    assert_eq!(decoded.len(), records.len(), "the log decodes to what was encoded");

    let sink = FileSink::create(run.wal_dir.join("direct.log")).expect("creating a WAL file");
    let wal = EpochWal::<2>::with_sink(Box::new(sink));
    let appends = sorted(
        records
            .iter()
            .map(|rec| {
                let t0 = Instant::now();
                wal.append_record(rec).expect("appending to a fresh file");
                us(t0.elapsed())
            })
            .collect(),
    );
    report.set("wal.append_us_p50", quantile(&appends, 0.5));

    let machine = Machine::new(1).expect("p = 1");
    let t0 = Instant::now();
    let tree = replay_into_store(&machine, CAPACITY, &decoded).expect("replaying fresh ids");
    report.set("wal.replay_kpts_per_s", tree.len() as f64 / 1e3 / t0.elapsed().as_secs_f64());
}

const BUILD_POINTS: usize = 65_536;

/// One static `DistRangeTree::build` at p = 1: the unit of work every
/// insert cascade, delete and replay is made of.
fn build_call(all: &[Point<2>], report: &mut Report) {
    let machine = Machine::new(1).expect("p = 1");
    let pts = &all[..BUILD_POINTS.min(all.len())];
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(DistRangeTree::build(&machine, pts).expect("unique ids"));
            us(t0.elapsed())
        })
        .collect();
    report.set("rangetree.build_us_per_kpoint", median(&times) / (pts.len() as f64 / 1e3));
}
