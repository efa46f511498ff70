//! The three workloads that go through the full served stack:
//! `RemoteStore` → loopback TCP → `NetServer` → `ShardedService`
//! (2 shards × p = 1, range partition, one `FileSink` per shard).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ddrs_client::{RangeStore, Response};
use ddrs_net::NetStats;
use ddrs_rangetree::{Point, Sum};
use ddrs_shard::ShardedStats;
use ddrs_workloads::{ArrivalProcess, ArrivalTrace, QueryMode, QueryWorkload};

use crate::gen::{self, Answers, FlatOracle, Oracle, Reads, Spec, MODE_MIX, UNIFORM};
use crate::json::Json;
use crate::report::{LadderInputs, Pass};
use crate::spans::SpanBuf;
use crate::stack::{check_pass_limit, rss_peak_mb, served_stack, Run, Served, SetupClock};
use crate::stats::{
    latency_from_due, max_rate_ok, median, quantile, quiet_latencies, quiet_rate, sorted, tail, us,
    Rung,
};

/// Why a request did not produce a response.
pub enum Failure {
    Submit,
    Outcome,
}

/// One request, closed loop: build, submit, wait. Spans go round each
/// call into the client API.
pub fn request(
    store: &impl RangeStore<Sum, 2>,
    spec: &Spec,
    buf: &mut SpanBuf,
    id: u64,
) -> (Duration, Result<(Response<Sum>, u64), Failure>) {
    let t0 = Instant::now();
    let root = buf.root("request", id);
    let s = buf.open("build", root, id);
    let req = spec.build();
    buf.close(s);
    let s = buf.open("submit", root, id);
    let ticket = store.submit(req);
    buf.close(s);
    let out = match ticket {
        Err(_) => Err(Failure::Submit),
        Ok(t) => {
            let s = buf.open("wait", root, id);
            let out = t.wait();
            buf.close(s);
            match out {
                Ok(c) if c.value.writes.iter().all(Result::is_ok) => Ok((c.value, c.seq)),
                _ => Err(Failure::Outcome),
            }
        }
    };
    buf.close(root);
    (t0.elapsed(), out)
}

/// What one closed-loop client thread brings back.
struct Client {
    tally: Pass,
    /// `(commit seq, request index)` of every acknowledged write.
    acks: Vec<(u64, usize)>,
    buf: SpanBuf,
}

impl Client {
    fn new(epoch: Instant, thread: usize, spans_on: bool) -> Client {
        Client {
            tally: Pass::default(),
            acks: Vec::new(),
            buf: SpanBuf::new(epoch, thread as u32, spans_on),
        }
    }

    /// Fold this client's counts, samples and spans into the pass.
    fn merge_into(self, out: &mut Pass) -> Vec<(u64, usize)> {
        out.attempted += self.tally.attempted;
        out.failed += self.tally.failed;
        out.verified += self.tally.verified;
        out.submit_err += self.tally.submit_err;
        out.outcome_err += self.tally.outcome_err;
        out.lat_us.extend(self.tally.lat_us);
        out.done_s.extend(self.tally.done_s);
        out.spans.absorb(self.buf);
        self.acks
    }
}

fn note_failure(pass: &mut Pass, f: &Failure) {
    pass.failed += 1;
    match f {
        Failure::Submit => pass.submit_err += 1,
        Failure::Outcome => pass.outcome_err += 1,
    }
}

/// The serving layers' own counters, by the benchmark's metric names.
pub fn service_counters(s: &ShardedStats, logged_points: usize) -> Vec<(&'static str, f64)> {
    let runs = s.machine.runs.max(1) as f64;
    let wal_bytes: u64 = s.per_shard.iter().map(|p| p.wal_bytes).sum();
    let wal_records: u64 = s.per_shard.iter().map(|p| p.wal_records).sum();
    vec![
        ("cgm.runs", s.machine.runs as f64),
        ("cgm.supersteps_per_run", s.machine.rounds_per_run()),
        ("cgm.words_per_run", s.machine.total_words as f64 / runs),
        ("cgm.max_h", s.machine.max_h as f64),
        ("sched.queue_us_mean", s.stages.queue.mean_us()),
        ("sched.window_us_mean", s.stages.window.mean_us()),
        ("sched.mean_batch", s.mean_batch_size()),
        ("sched.coalescing_factor", s.coalescing_factor()),
        ("sched.overloaded", s.overloaded as f64),
        ("sched.expired", s.expired as f64),
        ("shard.machine_run_us_mean", s.stages.machine_run.mean_us()),
        ("shard.merge_us_mean", s.stages.merge.mean_us()),
        ("shard.resolve_us_mean", s.stages.resolve.mean_us()),
        ("shard.read_fanout", s.mean_read_fanout()),
        ("shard.dispatches", s.dispatches as f64),
        ("shard.write_epochs", s.write_epochs as f64),
        (
            "shard.write_shards_per_epoch",
            s.write_shards_touched as f64 / s.write_epochs.max(1) as f64,
        ),
        ("shard.skew", s.skew()),
        ("wal.records", wal_records as f64),
        ("wal.bytes_per_point", wal_bytes as f64 / logged_points.max(1) as f64),
    ]
}

fn net_counters(n: &NetStats) -> Vec<(&'static str, f64)> {
    vec![
        ("net.requests", n.requests as f64),
        ("net.responses", n.responses as f64),
        ("net.responses_dropped", n.responses_dropped as f64),
        ("net.decode_errors", n.decode_errors as f64),
        ("net.submit_rejections", n.submit_rejections as f64),
    ]
}

fn stack_counters(stack: &Served, logged_points: usize) -> Vec<(&'static str, f64)> {
    let mut c = service_counters(&stack.service.stats(), logged_points);
    c.extend(net_counters(&stack.server.stats()));
    c
}

/// Correctness gate of the workloads that write: every acknowledged
/// write, replayed in commit-`seq` order into a flat list on top of
/// `initial`, must explain what the store now answers to `probe` (the
/// full-range count and 32 mixed reads). Returns the points the logs
/// must hold: `initial` plus every acknowledged insert.
fn check_final_state(
    stack: &Served,
    initial: &[Point<2>],
    mut acks: Vec<(u64, &Spec)>,
    probe: &Reads,
    buf: &mut SpanBuf,
    out: &mut Pass,
) -> usize {
    acks.sort_unstable_by_key(|(seq, _)| *seq);
    let mut oracle = FlatOracle { live: initial.to_vec() };
    let mut logged = initial.len();
    for (_, spec) in &acks {
        match spec {
            Spec::Insert(pts) => {
                oracle.live.extend_from_slice(pts);
                logged += pts.len();
            }
            Spec::Delete(ids) => oracle.delete(ids),
            Spec::Reads(_) => {}
        }
    }
    out.attempted += 1;
    match request(&stack.remote, &Spec::Reads(probe.clone()), buf, u64::MAX).1 {
        Ok((resp, _)) if oracle.answer(probe).matches_response(&resp) => {}
        Ok(_) => out.failed += 1,
        Err(f) => note_failure(out, &f),
    }
    out.verified = (acks.len() + probe.len()) as u64;
    logged
}

// ---------------------------------------------------------------- block reads

const BLOCK_POINTS: usize = 131_072;
const BLOCK_POOL: usize = 64;
const BLOCK_READS: usize = 64;

pub struct BlockInputs {
    points: Vec<Point<2>>,
    specs: Vec<Spec>,
    answers: Vec<Answers>,
}

impl BlockInputs {
    pub fn ladder(&self) -> LadderInputs<'_> {
        LadderInputs { initial: vec![&self.points], specs: &self.specs }
    }
}

pub fn block_generate(run: &Run) -> BlockInputs {
    let points = gen::points(run.seed, BLOCK_POINTS);
    let pool = gen::read_batches(&points, run.seed, 200, UNIFORM, BLOCK_POOL, BLOCK_READS);
    let oracle = Oracle::build(&points);
    let answers = pool.iter().map(|r| oracle.answer(r)).collect();
    BlockInputs { points, specs: pool.into_iter().map(Spec::Reads).collect(), answers }
}

/// Closed loop: each client sends its next request when the last one
/// completed. The warm-up walks the whole pool once and is where every
/// distinct request is checked against the oracle.
pub fn block_pass(
    run: &Run,
    inputs: &BlockInputs,
    seconds: f64,
    setups: usize,
    spans_on: bool,
) -> Pass {
    let build = || served_stack(run, &inputs.points);
    let mut clock = SetupClock::default();
    let stack = clock.time(build);
    let clients = run.host.clients;
    let epoch = Instant::now();
    let mut out = Pass::default();

    let per_client: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stack = &stack;
                s.spawn(move || {
                    let mut me = Client::new(epoch, c, spans_on);
                    let mut k = c;
                    let mut next = |me: &mut Client, check: bool| {
                        let i = k % BLOCK_POOL;
                        k += clients;
                        let (took, got) =
                            request(&stack.remote, &inputs.specs[i], &mut me.buf, k as u64);
                        match got {
                            Ok((resp, _))
                                if check && !inputs.answers[i].matches_response(&resp) =>
                            {
                                me.tally.failed += 1;
                            }
                            Ok(_) => {}
                            Err(f) => note_failure(&mut me.tally, &f),
                        }
                        took
                    };
                    let warm = Instant::now();
                    for _ in 0..BLOCK_POOL.div_ceil(clients) {
                        next(&mut me, true);
                        me.tally.verified += BLOCK_READS as u64;
                    }
                    while warm.elapsed().as_secs_f64() < seconds / 10.0 {
                        next(&mut me, false);
                    }
                    let t0 = Instant::now();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let took = next(&mut me, false);
                        me.tally.lat_us.push(us(took));
                        me.tally.done_s.push(epoch.elapsed().as_secs_f64());
                        me.tally.attempted += 1;
                    }
                    me
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for client in per_client {
        client.merge_into(&mut out);
    }
    out.ops_per_s = out.keep_quiet() * BLOCK_READS as f64;
    out.rss_peak_mb = rss_peak_mb();
    out.layer = stack_counters(&stack, BLOCK_POINTS);
    out.layer.push(("rangetree.k_per_report", Answers::k_per_report(&inputs.answers)));
    out.finish(clock, stack, setups, build, Served::teardown);
    out
}

// ----------------------------------------------------------------- small open

const OPEN_POINTS: usize = 131_072;
pub const OPEN_RATES: [f64; 4] = [1_500.0, 3_000.0, 8_000.0, 12_000.0];
/// The rung `lat_p50_us` and `lat_tail_us` are read from.
const OPEN_LATENCY_RUNG: usize = 0;
const OPEN_READ_POOL: usize = 4_096;
const OPEN_WRITE_EVERY: usize = 10;
const OPEN_WRITE_POINTS: usize = 16;

pub struct OpenInputs {
    points: Vec<Point<2>>,
    /// The whole request sequence, rung after rung.
    specs: Vec<Spec>,
    /// Arrival offsets from the rung's start, per rung.
    arrivals: Vec<Vec<Duration>>,
    probe: Reads,
}

impl OpenInputs {
    pub fn ladder(&self) -> LadderInputs<'_> {
        LadderInputs {
            initial: vec![&self.points[..OPEN_POINTS]],
            specs: &self.specs[..self.specs.len().min(256)],
        }
    }
}

/// The ladder lasts `seconds` in all, not counting the drain after each
/// rung: every rung gets the same share, so its request count is fixed
/// by its rate.
fn open_rung_counts(seconds: f64) -> Vec<usize> {
    let each = seconds / OPEN_RATES.len() as f64;
    OPEN_RATES.iter().map(|r| (r * each).round().max(1.0) as usize).collect()
}

pub fn open_generate(run: &Run, seconds: f64) -> OpenInputs {
    let counts = open_rung_counts(seconds);
    let total: usize = counts.iter().sum();
    let writes = total / OPEN_WRITE_EVERY;
    let points = gen::points(run.seed, OPEN_POINTS + writes * OPEN_WRITE_POINTS);
    let reads: Vec<Spec> =
        QueryWorkload::from_points(&points[..OPEN_POINTS], gen::subseed(run.seed, 300))
            .mixed(UNIFORM, MODE_MIX, OPEN_READ_POOL)
            .into_iter()
            .map(|q| {
                let mut r = Reads::default();
                match q.mode {
                    QueryMode::Count => r.counts.push(q.rect),
                    QueryMode::Aggregate => r.aggs.push(q.rect),
                    QueryMode::Report => r.reports.push(q.rect),
                }
                Spec::Reads(r)
            })
            .collect();
    let mut fresh = points[OPEN_POINTS..].chunks_exact(OPEN_WRITE_POINTS);
    let specs = (0..total)
        .map(|g| {
            if g % OPEN_WRITE_EVERY == OPEN_WRITE_EVERY - 1 {
                Spec::Insert(fresh.next().expect("one block per write").to_vec())
            } else {
                reads[g % OPEN_READ_POOL].clone()
            }
        })
        .collect();
    let arrivals = counts
        .iter()
        .zip(OPEN_RATES)
        .enumerate()
        .map(|(i, (&n, rate_hz))| {
            ArrivalTrace::generate(
                gen::subseed(run.seed, 310 + i as u64),
                ArrivalProcess::Poisson { rate_hz },
                n,
            )
            .at
        })
        .collect();
    let probe = gen::probe_reads(&points[..OPEN_POINTS], run.seed);
    OpenInputs { points, specs, arrivals, probe }
}

/// Shared between the sender and the threads that resolve its tickets.
struct OpenState {
    /// Completion time of request `i` in ns since the rung began, +1.
    done_ns: Vec<AtomicU64>,
    completed: AtomicUsize,
    failed: AtomicUsize,
    /// `(commit seq, request index)` of every acknowledged write.
    acks: Mutex<Vec<(u64, usize)>>,
}

impl OpenState {
    /// Request `i` is over, `ok` or not, `since` the rung began.
    fn complete(&self, i: usize, since: Instant, ok: bool) {
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.done_ns[i].store(since.elapsed().as_nanos() as u64 + 1, Ordering::Release);
        self.completed.fetch_add(1, Ordering::Release);
    }
}

/// Open loop: one sender, Poisson arrivals, every request timed from the
/// instant it was due. The queue is drained between rungs.
pub fn open_pass(run: &Run, inputs: &OpenInputs, setups: usize, spans_on: bool) -> Pass {
    let pass_t0 = Instant::now();
    let build = || served_stack(run, &inputs.points[..OPEN_POINTS]);
    let mut clock = SetupClock::default();
    let stack = clock.time(build);
    let mut buf = SpanBuf::new(Instant::now(), 0, spans_on);
    let mut out = Pass::default();
    let mut rungs = Vec::new();
    let mut late_us = Vec::new();
    let mut all_acks = Vec::new();
    let mut base = 0usize;

    for (r, at) in inputs.arrivals.iter().enumerate() {
        let n = at.len();
        let state = Arc::new(OpenState {
            done_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            completed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            acks: Mutex::new(Vec::new()),
        });
        let t0 = Instant::now();
        for (i, &due) in at.iter().enumerate() {
            loop {
                let now = t0.elapsed();
                if now >= due {
                    break;
                }
                let gap = due - now;
                if gap > Duration::from_micros(200) {
                    std::thread::sleep(gap - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
            let sent = t0.elapsed();
            if r < OPEN_RATES.len() - 1 {
                late_us.push(us(sent - due));
            }
            let id = (base + i) as u64;
            let spec = &inputs.specs[base + i];
            let root = buf.root("send", id);
            let s = buf.open("build", root, id);
            let req = spec.build();
            buf.close(s);
            let s = buf.open("submit", root, id);
            let ticket = stack.remote.submit(req);
            buf.close(s);
            buf.close(root);
            let is_write = matches!(spec, Spec::Insert(_));
            match ticket {
                Ok(t) => {
                    let state = Arc::clone(&state);
                    t.on_resolve(move |out| {
                        let ok = matches!(&out, Ok(c) if c.value.writes.iter().all(Result::is_ok));
                        if let (true, true, Ok(c)) = (ok, is_write, &out) {
                            state.acks.lock().expect("acks lock").push((c.seq, base + i));
                        }
                        state.complete(i, t0, ok);
                    });
                }
                Err(_) => {
                    out.submit_err += 1;
                    state.complete(i, t0, false);
                }
            }
        }
        // The last arrival has been sent: what is still out is the
        // backlog this rate left behind.
        let backlog = n - state.completed.load(Ordering::Acquire);
        while state.completed.load(Ordering::Acquire) < n {
            check_pass_limit(pass_t0, "served_small_open");
            std::thread::sleep(Duration::from_micros(200));
        }

        let done: Vec<Duration> = state
            .done_ns
            .iter()
            .map(|d| Duration::from_nanos(d.load(Ordering::Acquire) - 1))
            .collect();
        let from_due: Vec<f64> =
            at.iter().zip(&done).map(|(&due, &d)| us(latency_from_due(due, d))).collect();
        let lat = sorted(from_due.clone());
        let failed = state.failed.load(Ordering::Relaxed);
        let (_, tail_us) = tail(&lat);
        rungs.push(Rung { rate: OPEN_RATES[r], tail_us, backlog, failed });
        out.failed += failed as u64;
        out.attempted += n as u64;
        if r == OPEN_RATES.len() - 1 {
            // Capacity: how fast the top rung's requests got through in
            // the slices that completed the most, capped at the rate
            // they were offered at.
            let done_s: Vec<f64> = done.iter().map(Duration::as_secs_f64).collect();
            out.ops_per_s = quiet_rate(&done_s).min(OPEN_RATES[r]);
        }
        out.extra.push((
            ["rung1", "rung2", "rung3", "rung4"][r],
            Json::obj(vec![
                ("rate", Json::Num(OPEN_RATES[r])),
                ("requests", Json::Num(n as f64)),
                ("p50_us", Json::Num(quantile(&lat, 0.5))),
                ("tail_us", Json::Num(tail_us)),
                ("backlog", Json::Num(backlog as f64)),
                ("failed", Json::Num(failed as f64)),
                ("ok", Json::Bool(rungs[r].ok())),
            ]),
        ));
        if r == OPEN_LATENCY_RUNG {
            // The rate is fixed, so the rung is stationary: read it in
            // its quietest slices, placed by due time.
            let due_s: Vec<f64> = at.iter().map(Duration::as_secs_f64).collect();
            out.lat_us = quiet_latencies(&due_s, &from_due);
        }
        let acks = state.acks.lock().expect("acks lock");
        all_acks.extend(acks.iter().map(|&(seq, idx)| (seq, &inputs.specs[idx])));
        base += n;
    }
    out.outcome_err = out.failed - out.submit_err;

    let initial = &inputs.points[..OPEN_POINTS];
    let logged = check_final_state(&stack, initial, all_acks, &inputs.probe, &mut buf, &mut out);

    let late = sorted(late_us);
    out.layer = stack_counters(&stack, logged);
    out.layer.push(("gen.late_p99_us", quantile(&late, 0.99)));
    out.layer.push(("max_rate_ok", max_rate_ok(&rungs)));
    for (name, rung) in
        ["open.rung1_tail_us", "open.rung2_tail_us", "open.rung3_tail_us", "open.rung4_tail_us"]
            .into_iter()
            .zip(&rungs)
    {
        out.layer.push((name, rung.tail_us));
    }
    out.spans.absorb(buf);
    out.rss_peak_mb = rss_peak_mb();
    out.finish(clock, stack, setups, build, Served::teardown);
    out
}

// --------------------------------------------------------------------- writes

const WRITE_INITIAL: usize = 65_536;
const WRITE_BLOCK: usize = 256;
/// Insert requests per second of run length: the work is fixed by the
/// run length, not by how fast the store gets through it.
const WRITE_REQUESTS_PER_S: f64 = 200.0;
const DELETE_REQUESTS: usize = 12;

pub struct WriteInputs {
    points: Vec<Point<2>>,
    inserts: Vec<Spec>,
    deletes: Vec<Spec>,
    probe: Reads,
}

impl WriteInputs {
    pub fn ladder(&self) -> LadderInputs<'_> {
        LadderInputs {
            initial: vec![&self.points[..WRITE_INITIAL]],
            specs: &self.inserts[..self.inserts.len().min(256)],
        }
    }
}

pub fn write_generate(run: &Run, seconds: f64) -> WriteInputs {
    let requests = (WRITE_REQUESTS_PER_S * seconds).round().max(1.0) as usize;
    let points = gen::points(run.seed, WRITE_INITIAL + requests * WRITE_BLOCK);
    let inserts = points[WRITE_INITIAL..]
        .chunks_exact(WRITE_BLOCK)
        .map(|b| Spec::Insert(b.to_vec()))
        .collect();
    // The oldest blocks: ids 0.. of the initial load.
    let deletes = (0..DELETE_REQUESTS)
        .map(|k| {
            Spec::Delete((k * WRITE_BLOCK..(k + 1) * WRITE_BLOCK).map(|id| id as u32).collect())
        })
        .collect();
    let probe = gen::probe_reads(&points[..WRITE_INITIAL], run.seed);
    WriteInputs { points, inserts, deletes, probe }
}

/// Phase A: the clients share a fixed stream of insert requests. Phase
/// B: one client deletes the oldest blocks, each delete rebuilding every
/// store it touches.
pub fn write_pass(run: &Run, inputs: &WriteInputs, setups: usize, spans_on: bool) -> Pass {
    let pass_t0 = Instant::now();
    let build = || served_stack(run, &inputs.points[..WRITE_INITIAL]);
    let mut clock = SetupClock::default();
    let stack = clock.time(build);
    let clients = run.host.clients;
    let epoch = Instant::now();
    let mut out = Pass::default();
    let next = AtomicUsize::new(0);

    let t0 = Instant::now();
    let per_client: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (stack, next) = (&stack, &next);
                s.spawn(move || {
                    let mut me = Client::new(epoch, c, spans_on);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = inputs.inserts.get(i) else { break };
                        check_pass_limit(pass_t0, "served_writes");
                        let (took, got) = request(&stack.remote, spec, &mut me.buf, i as u64);
                        me.tally.attempted += 1;
                        me.tally.lat_us.push(us(took));
                        match got {
                            Ok((_, seq)) => me.acks.push((seq, i)),
                            Err(f) => note_failure(&mut me.tally, &f),
                        }
                    }
                    me
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let phase_a = t0.elapsed().as_secs_f64();

    // Every acknowledged write, for the replay at the end.
    let mut acks: Vec<(u64, &Spec)> = Vec::new();
    for client in per_client {
        let mine = client.merge_into(&mut out);
        acks.extend(mine.into_iter().map(|(seq, i)| (seq, &inputs.inserts[i])));
    }
    out.ops_per_s = (acks.len() * WRITE_BLOCK) as f64 / phase_a;

    let mut buf = SpanBuf::new(epoch, clients as u32, spans_on);
    let mut delete_ms = Vec::new();
    let mut rebuilt = Vec::new();
    for (k, spec) in inputs.deletes.iter().enumerate() {
        let before = stack.service.stats();
        let (took, got) = request(&stack.remote, spec, &mut buf, (inputs.inserts.len() + k) as u64);
        out.attempted += 1;
        delete_ms.push(took.as_secs_f64() * 1e3);
        match got {
            Ok((_, seq)) => acks.push((seq, spec)),
            Err(f) => note_failure(&mut out, &f),
        }
        // A delete rebuilds the whole store of every shard it touches.
        let touched = stack.service.stats().write_shards_touched - before.write_shards_touched;
        rebuilt.push(before.total_points() as f64 * touched as f64 / before.per_shard.len() as f64);
    }

    let initial = &inputs.points[..WRITE_INITIAL];
    let logged = check_final_state(&stack, initial, acks, &inputs.probe, &mut buf, &mut out);
    out.spans.absorb(buf);

    out.layer = stack_counters(&stack, logged);
    out.layer.push(("delete_ms", median(&delete_ms)));
    out.layer.push((
        "rangetree.delete_rebuild_points",
        rebuilt.iter().sum::<f64>() / rebuilt.len() as f64,
    ));
    out.extra.push(("phase_a_s", Json::Num(phase_a)));
    out.rss_peak_mb = rss_peak_mb();
    out.finish(clock, stack, setups, build, Served::teardown);
    out
}
