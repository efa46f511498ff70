//! The read path: plan a coalesced read window into at most one fused
//! sub-batch per touched shard, scatter without waiting, and settle each
//! shard's results on its worker thread.
//!
//! The three query modes differ only in their value type `V` (`u64`,
//! `Option<S::Val>`, `Vec<u32>`) and in how cross-shard partials merge
//! (a fold closure and a finishing step), so planning ([`route`]) and
//! settling ([`Settling::lane`]) are each written once, generic over
//! `V`, and called once per mode.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ddrs_cgm::RunStats;
use ddrs_check::TrackedMutex;
use ddrs_client::{Commit, PlannedOp, Resolver, ServiceError};
use ddrs_rangetree::semigroup::comb_opt;
use ddrs_rangetree::{BatchResults, QueryBatch, Rect, Semigroup};
use ddrs_trace::{SpanId, Stage};

use crate::partition::Partitioner;
use crate::router::{resolve_timed, settle, us_between, Inner, Op, Router};
use crate::sched::Pending;
use crate::worker::{ReadComplete, ShardJob};
use crate::ShardedStats;

/// A cross-shard read in flight: partials accumulate under `state` as
/// each touched shard's worker completes its sub-batch; the last arrival
/// takes the resolver and commits (or fails) the op with its
/// pre-assigned global sequence number.
struct CrossOp<V> {
    seq: u64,
    submitted: Instant,
    /// Lock class `shard.cross` — the innermost shard lock: workers take
    /// it while folding partials, with `stats` already held.
    state: TrackedMutex<CrossState<V>>,
}

struct CrossState<V> {
    remaining: usize,
    /// The partials merged so far, or the first shard failure.
    acc: Result<V, String>,
    resolver: Option<Resolver<V>>,
}

impl<V: Default> CrossOp<V> {
    fn new(fanout: usize, resolver: Resolver<V>, submitted: Instant, seq: u64) -> Arc<Self> {
        let state =
            CrossState { remaining: fanout, acc: Ok(V::default()), resolver: Some(resolver) };
        Arc::new(CrossOp { seq, submitted, state: TrackedMutex::new("shard.cross", state) })
    }

    /// Deliver one shard's partial, or its failure (the first failure
    /// wins and voids the partials). Returns the resolution duty — the
    /// resolver and the merged outcome — iff this arrival was the last.
    fn arrive(
        &self,
        part: Result<V, String>,
        fold: impl FnOnce(&mut V, V),
    ) -> Option<(Resolver<V>, Result<V, String>)> {
        let mut st = self.state.lock();
        match (&mut st.acc, part) {
            (Ok(acc), Ok(v)) => fold(acc, v),
            (acc @ Ok(_), Err(e)) => *acc = Err(e),
            (Err(_), _) => {}
        }
        st.remaining -= 1;
        if st.remaining > 0 {
            return None;
        }
        // ddrs-check: allow(unwrap) — `remaining` hits zero exactly
        // once, so the resolver is still present on the last arrival.
        let resolver = st.resolver.take().expect("cross-shard op resolved twice");
        Some((resolver, std::mem::replace(&mut st.acc, Ok(V::default()))))
    }
}

/// Where one query of a shard's fused sub-batch delivers its result: a
/// single-shard op resolves its ticket directly on the worker thread; a
/// cross-shard op folds into its shared countdown.
enum Slot<V> {
    Solo(Resolver<V>, u64, Instant),
    Cross(Arc<CrossOp<V>>),
}

/// One query mode's share of one shard's sub-batch: the clipped rects,
/// with a result slot aligned to each.
struct Lane<V, const D: usize> {
    rects: Vec<Rect<D>>,
    slots: Vec<Slot<V>>,
}

fn lanes<V, const D: usize>(shards: usize) -> Vec<Lane<V, D>> {
    (0..shards).map(|_| Lane { rects: Vec::new(), slots: Vec::new() }).collect()
}

/// Plan one read of any mode onto its mode's per-shard lanes: clipped to
/// every shard of `fan`, with a solo slot when it touches one shard and
/// a shared countdown when it touches several. An empty fan-out (an
/// empty rect) is answered here with the mode's neutral value.
fn route<V: Default, const D: usize>(
    part: &Partitioner,
    lanes: &mut [Lane<V, D>],
    rect: &Rect<D>,
    fan: RangeInclusive<usize>,
    resolver: Resolver<V>,
    seq: u64,
    submitted: Instant,
) {
    let mut push = |s: usize, slot: Slot<V>| {
        lanes[s].rects.push(part.clip(s, rect));
        lanes[s].slots.push(slot);
    };
    match fan.clone().count() {
        0 => resolver.resolve(Ok(Commit { value: V::default(), seq })),
        1 => push(*fan.start(), Slot::Solo(resolver, seq, submitted)),
        n => {
            let cross = CrossOp::new(n, resolver, submitted, seq);
            for s in fan {
                push(s, Slot::Cross(Arc::clone(&cross)));
            }
        }
    }
}

/// The result slots of one shard's sub-batch, aligned with the three
/// query lists of its `QueryBatch`.
struct SubBatchSlots<S: Semigroup> {
    counts: Vec<Slot<u64>>,
    aggs: Vec<Slot<Option<S::Val>>>,
    reports: Vec<Slot<Vec<u32>>>,
}

/// Window-level read telemetry, shared by every shard callback of one
/// window: `dispatches` counts *windows* that reached a machine, and the
/// batch-size histogram client queries per window. The first shard to
/// finish after a run (its own or one it shared, `ran`) claims the count.
struct WindowTally {
    routed: u64,
    counted: AtomicBool,
    /// When the router carved this window (Queue → Window boundary of
    /// every op it routed), for the always-on stage breakdown.
    carve: Instant,
    /// When the router finished planning and began the scatter
    /// (Window → MachineRun boundary).
    scatter: Instant,
}

/// Plan a coalesced read window into at most one fused sub-batch per
/// *touched* shard and scatter the sub-batches to the shard workers —
/// without waiting for any of them. Sequence numbers are pre-assigned
/// here on the router thread (planning order is the global order);
/// tickets resolve on the worker threads as each shard finishes, while
/// the router gathers the next window.
pub(crate) fn dispatch_reads<S: Semigroup, const D: usize>(
    inner: &Arc<Inner<S, D>>,
    router: &mut Router<S, D>,
    batch: Vec<Pending<Op<S, D>>>,
) {
    let t_carve = Instant::now();
    let shards = router.shards();
    let mut counts = lanes::<u64, D>(shards);
    let mut aggs = lanes::<Option<S::Val>, D>(shards);
    let mut reports = lanes::<Vec<u32>, D>(shards);
    // Ops settled at planning time (degenerate rects answered locally,
    // poisoned fan-outs failed) and routing telemetry, accounted in one
    // stats acquisition below.
    let mut settled: Vec<Instant> = Vec::new();
    let mut routed_spans: Vec<SpanId> = Vec::new();
    let mut shards_touched = 0u64;

    for p in batch {
        ddrs_trace::transition(p.op.span(), Stage::Queue, Stage::Window);
        let Op::Client(op) = p.op else { unreachable!("carve() mixed non-reads into a read run") };
        // ddrs-check: allow(unwrap) — carve() emits kind-homogeneous
        // runs, and every read op carries an interval.
        let rect = *op.interval().expect("read run contains a non-read op");
        let fan = router.part.read_fanout(&rect);
        if let Some(quarantined) = fan.clone().find_map(|s| router.quarantine(s)) {
            ddrs_trace::end_err(op.span(), Stage::Window);
            op.fail(ServiceError::Machine(quarantined));
            settled.push(p.submitted);
            continue;
        }
        let seq = router.take_seq();
        let touched = fan.clone().count() as u64;
        if touched == 0 {
            // Empty rect: `route` answers it locally, holding its place
            // in the global commit order without touching any shard.
            ddrs_trace::end(op.span(), Stage::Window);
            settled.push(p.submitted);
        } else {
            routed_spans.push(op.span());
            shards_touched += touched;
        }
        let (part, t0) = (&router.part, p.submitted);
        match op {
            PlannedOp::Count(_, r) => route(part, &mut counts, &rect, fan, r, seq, t0),
            PlannedOp::Aggregate(_, r) => route(part, &mut aggs, &rect, fan, r, seq, t0),
            PlannedOp::Report(_, r) => route(part, &mut reports, &rect, fan, r, seq, t0),
            _ => unreachable!("read run contains a non-read op"),
        }
    }

    let routed_ops = routed_spans.len() as u64;
    {
        let mut st = inner.stats.lock();
        st.read_ops_routed += routed_ops;
        st.read_shards_touched += shards_touched;
        st.completed += settled.len() as u64;
        for t0 in settled {
            st.latency_us.record(t0.elapsed().as_micros() as u64);
            st.stages.queue.record(us_between(t0, t_carve));
        }
    }

    // Scatter every touched shard's sub-batch; the workers run them
    // concurrently and resolve the tickets themselves.
    for sp in routed_spans {
        ddrs_trace::transition(sp, Stage::Window, Stage::MachineRun);
    }
    let tally = Arc::new(WindowTally {
        routed: routed_ops,
        counted: AtomicBool::new(false),
        carve: t_carve,
        scatter: Instant::now(),
    });
    for (s, ((counts, aggs), reports)) in counts.into_iter().zip(aggs).zip(reports).enumerate() {
        if counts.rects.is_empty() && aggs.rects.is_empty() && reports.rects.is_empty() {
            continue;
        }
        let batch = QueryBatch::from_parts(inner.sg, counts.rects, aggs.rects, reports.rects);
        let slots =
            SubBatchSlots { counts: counts.slots, aggs: aggs.slots, reports: reports.slots };
        inner.core.read_sent();
        let (sent, tally) = (InFlight(Arc::clone(inner)), Arc::clone(&tally));
        let complete: ReadComplete<S> = Box::new(move |result, run_stats, ran| {
            finish_shard_reads(&sent.0, s, result, run_stats, ran, slots, &tally);
        });
        let tree = router.versions[s].clone();
        router.send(s, ShardJob::Reads { tree, batch, complete });
    }
}

/// One read sub-batch in flight, from its send until its completion
/// drops this: after releasing `shard.stats`, or while a client
/// callback's panic unwinds.
struct InFlight<S: Semigroup, const D: usize>(Arc<Inner<S, D>>);

impl<S: Semigroup, const D: usize> Drop for InFlight<S, D> {
    fn drop(&mut self) {
        self.0.core.read_settled();
    }
}

/// The stats critical section of one shard's read completion: decides
/// which tickets this arrival settles and accounts each of them, and
/// queues the resolutions themselves to run after the guard is dropped.
struct Settling<'a> {
    st: &'a mut ShardedStats,
    tally: &'a WindowTally,
    now: Instant,
    /// Why the shard has no values to deliver, if its run failed.
    failure: Option<String>,
    resolutions: Vec<Box<dyn FnOnce()>>,
}

impl Settling<'_> {
    /// Settle one mode's lane of this shard's sub-batch against the
    /// shard's values for it (none if its run failed). A solo slot's
    /// ticket is decided here; a cross-shard slot `fold`s its partial
    /// into the op's countdown and is decided by the last shard to
    /// arrive, whose merged value gets the mode's `finish`ing step.
    fn lane<V: Default + 'static>(
        &mut self,
        values: Vec<V>,
        slots: Vec<Slot<V>>,
        fold: impl Fn(&mut V, V),
        finish: fn(&mut V),
    ) {
        // One part per slot: the shard's value for it, or its failure.
        let failed = self.failure.iter().cycle().map(|failure| Err(failure.clone()));
        for (slot, part) in slots.into_iter().zip(values.into_iter().map(Ok).chain(failed)) {
            let (resolver, seq, submitted, outcome, finish): (_, _, _, _, fn(&mut V)) = match slot {
                Slot::Solo(resolver, seq, submitted) => (resolver, seq, submitted, part, |_| {}),
                Slot::Cross(cross) => match cross.arrive(part, &fold) {
                    Some((resolver, merged)) => {
                        (resolver, cross.seq, cross.submitted, merged, finish)
                    }
                    None => continue,
                },
            };
            // The op counts as completed (and its latency is recorded)
            // exactly when its ticket's resolution is decided here.
            self.st.completed += 1;
            self.st.latency_us.record(submitted.elapsed().as_micros() as u64);
            self.st.stages.queue.record(us_between(submitted, self.tally.carve));
            self.st.stages.window.record(us_between(self.tally.carve, self.tally.scatter));
            self.st.stages.machine_run.record(us_between(self.tally.scatter, self.now));
            ddrs_trace::transition(resolver.span(), Stage::MachineRun, Stage::Merge);
            self.resolutions.push(Box::new(move || {
                let outcome = outcome.map(|mut value| {
                    finish(&mut value);
                    Commit { value, seq }
                });
                settle(resolver, Stage::Merge, outcome.map_err(ServiceError::Machine));
            }));
        }
    }
}

/// Worker-thread completion of one shard's fused read sub-batch: absorb
/// the run's stats (empty when a sub-batch sharing the run reported
/// them), decide solo tickets and fold cross-shard partials (the last
/// arrival decides), all in one stats critical section — so counters are
/// bumped *before* each resolution, and a client that saw its response
/// sees it completed in any snapshot — then resolve after the guard
/// drops, so client wakeups do not serialize other shards' completions
/// on the stats mutex.
fn finish_shard_reads<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    shard: usize,
    result: Result<BatchResults<S>, String>,
    run_stats: RunStats,
    ran: bool,
    slots: SubBatchSlots<S>,
    tally: &WindowTally,
) {
    let sg = inner.sg;
    let (counts, aggs, reports, failure) = match result {
        Ok(out) => (out.counts, out.aggregates, out.reports, None),
        Err(e) => (Vec::new(), Vec::new(), Vec::new(), Some(format!("shard {shard}: {e}"))),
    };
    let settle_now = Instant::now();
    let mut st = inner.stats.lock();
    st.absorb_run(shard, &run_stats);
    // ddrs-check: allow(relaxed) — telemetry-only once-flag: it orders
    // no data (all stats mutate under the `stats` lock held here).
    if ran && !tally.counted.swap(true, Ordering::Relaxed) {
        st.dispatches += 1;
        st.queries_coalesced += tally.routed;
        st.batch_sizes.record(tally.routed);
    }
    let mut settling =
        Settling { st: &mut st, tally, now: settle_now, failure, resolutions: Vec::new() };
    // The three merge rules: counts sum, aggregates fold with the
    // (commutative) semigroup, report ids concatenate — and, shards
    // being disjoint, one sort restores exactly the unsharded ascending
    // order.
    settling.lane(counts, slots.counts, |acc, part| *acc += part, |_| {});
    settling.lane(aggs, slots.aggs, |acc, part| *acc = comb_opt(&sg, acc.take(), part), |_| {});
    settling.lane(reports, slots.reports, |acc, part| acc.extend(part), |ids| ids.sort_unstable());
    let resolutions = settling.resolutions;
    drop(st);
    resolve_timed(inner, settle_now, resolutions.len(), || {
        resolutions.into_iter().for_each(|r| r())
    });
}
