//! `crash_recover`: poison one shard of an in-process service, then
//! `recover_shard` it from its file WAL, cycle after cycle over a log
//! that never changes. What "durable" means in this repo today: a live
//! heal inside the process (a cold start needs an `open(dir)` first).

use std::time::Instant;

use ddrs_client::{RangeStore, ServiceError};
use ddrs_rangetree::Point;

use crate::gen::{self, Spec, EVERYTHING};
use crate::json::Json;
use crate::report::{LadderInputs, Pass};
use crate::served::service_counters;
use crate::spans::SpanBuf;
use crate::stack::{
    check_pass_limit, rss_peak_mb, start_service, QuietRankPanics, Run, SetupClock, Sink, SHARDS,
};
use crate::stats::{median, us};

const INITIAL: usize = 65_536;
const STREAM_BLOCKS: usize = 60;
const BLOCK: usize = 1_024;
/// The shard that is poisoned and recovered.
const VICTIM: usize = 1;
/// Cycles per second of run length (fixed work: the count, and with it
/// the percentile `lat_tail_us` reads, is the same in every run).
const CYCLES_PER_S: f64 = 4.0;

pub struct Inputs {
    points: Vec<Point<2>>,
    stream: Vec<Spec>,
}

impl Inputs {
    fn initial(&self) -> &[Point<2>] {
        &self.points[..INITIAL]
    }

    /// The insert every cycle submits into the poisoned epoch. It is
    /// rolled back and never logged, so every cycle can send it again.
    fn doomed(&self) -> &[Point<2>] {
        &self.points[INITIAL + STREAM_BLOCKS * BLOCK..]
    }

    pub fn ladder(&self) -> LadderInputs<'_> {
        LadderInputs { initial: vec![self.initial()], specs: &self.stream }
    }
}

pub fn generate(run: &Run) -> Inputs {
    let points = gen::points(run.seed, INITIAL + (STREAM_BLOCKS + 1) * BLOCK);
    let stream = points[INITIAL..INITIAL + STREAM_BLOCKS * BLOCK]
        .chunks_exact(BLOCK)
        .map(|b| Spec::Insert(b.to_vec()))
        .collect();
    Inputs { points, stream }
}

pub fn pass(run: &Run, inputs: &Inputs, seconds: f64, setups: usize, spans_on: bool) -> Pass {
    let _quiet = QuietRankPanics::install();
    let live = INITIAL + STREAM_BLOCKS * BLOCK;
    // Setup is the initial load plus the sequential insert stream that
    // gives the log its fixed content.
    let build = || {
        let service = start_service(SHARDS, inputs.initial(), Sink::File, &run.wal_dir);
        for spec in &inputs.stream {
            let Spec::Insert(pts) = spec else { unreachable!("the stream is inserts") };
            service
                .insert(pts.clone())
                .expect("an idle service admits")
                .wait()
                .expect("a fresh block commits");
        }
        service
    };
    let mut clock = SetupClock::default();
    let service = clock.time(build);
    let log_before = service.stats();
    let mut buf = SpanBuf::new(Instant::now(), 0, spans_on);
    let mut out = Pass::default();
    let cycles = (CYCLES_PER_S * seconds).round().max(1.0) as u64;
    let mut recover_ms = Vec::new();
    // Live points of the recovered shard.
    let mut shard_live = 0usize;

    let pass_t0 = Instant::now();
    for cycle in 0..cycles {
        check_pass_limit(pass_t0, "crash_recover");
        let root = buf.root("cycle", cycle);
        let s = buf.open("abort_insert", root, cycle);
        service.fail_next_write_epoch(VICTIM);
        let aborted = service.insert(inputs.doomed().to_vec()).map(|t| t.wait());
        buf.close(s);
        // The abort is the fault being injected, not a client operation;
        // only its absence counts against the run.
        if !matches!(aborted, Ok(Err(ServiceError::Machine(_)))) {
            out.failed += 1;
        }

        let s = buf.open("recover_shard", root, cycle);
        let t0 = Instant::now();
        let report = service.recover_shard(VICTIM).map(|t| t.wait());
        out.lat_us.push(us(t0.elapsed()));
        buf.close(s);
        out.attempted += 1;
        match report {
            Ok(Ok(c)) => {
                recover_ms.push(c.value.duration.as_secs_f64() * 1e3);
                shard_live = c.value.live_points;
            }
            Ok(Err(_)) => {
                out.failed += 1;
                out.outcome_err += 1;
            }
            Err(_) => {
                out.failed += 1;
                out.submit_err += 1;
            }
        }

        let s = buf.open("verify_count", root, cycle);
        let count = service.count(EVERYTHING).map(|t| t.wait());
        buf.close(s);
        buf.close(root);
        out.attempted += 1;
        out.verified += 1;
        if !matches!(count, Ok(Ok(c)) if c.value == live as u64) {
            out.failed += 1;
        }
        if cycle == 0 {
            // What one recovery needs: the poisoned store, the decoded
            // log and the store rebuilt from it. Over many cycles the
            // peak creeps by what the allocator happens to keep.
            out.rss_peak_mb = rss_peak_mb();
        }
    }

    // Points brought back per second of the median recovery.
    out.ops_per_s = shard_live as f64 / (median(&recover_ms).max(f64::MIN_POSITIVE) / 1e3);
    let stats = service.stats();
    let log_records =
        |s: &ddrs_shard::ShardedStats| s.per_shard.iter().map(|p| p.wal_records).sum::<u64>();
    if log_records(&stats) != log_records(&log_before) {
        // The log must be identical in every cycle or the cycles are not
        // comparable.
        out.failed += 1;
    }
    out.layer = service_counters(&stats, live);
    out.layer.push(("recover_ms", median(&recover_ms)));
    out.extra.push(("cycles", Json::Num(cycles as f64)));
    out.extra.push(("log_records", Json::Num(log_records(&stats) as f64)));
    out.spans.absorb(buf);

    out.finish(clock, service, setups, build, drop);
    out
}
