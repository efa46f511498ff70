//! The router thread: its state (every shard's committed store version
//! among it), the dispatch loop, the one commit protocol every mutation
//! goes through ([`Router::commit`]), the one send for a read sub-batch,
//! the all-or-nothing log append, publishing and shutdown.

use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use ddrs_check::TrackedMutex;
use ddrs_client::{Commit, PlannedOp, Resolver, ServiceError};
use ddrs_rangetree::{DynamicDistRangeTree, Point, Semigroup};
use ddrs_trace::{SpanId, Stage};
use ddrs_wal::{EpochRecord, EpochWal};

use crate::partition::Partitioner;
use crate::reads::dispatch_reads;
use crate::recover::do_recover;
use crate::sched::{gate_reads, Kind, Pending, Queued, SchedCore, Window};
use crate::split::do_split;
use crate::worker::{Reply, ShardJob, WorkerHandle};
use crate::writes::dispatch_write_epoch;
use crate::{RecoveryReport, ShardParts, ShardedConfig, ShardedStats, SplitReport};

/// One request as it sits in the router queue: a client-contract op, or
/// one of the router's own commands (split / recover — the ops with no
/// `RangeStore` spelling).
pub(crate) enum Op<S: Semigroup, const D: usize> {
    Client(PlannedOp<S, D>),
    Split(usize, Resolver<SplitReport>),
    Recover(usize, Resolver<RecoveryReport>),
}

impl<S: Semigroup, const D: usize> Queued for Op<S, D> {
    fn kind(&self) -> Kind {
        match self {
            Op::Client(op) if op.is_read() => Kind::Read,
            Op::Client(_) => Kind::Write,
            Op::Split(..) | Op::Recover(..) => Kind::Exclusive,
        }
    }
}

impl<S: Semigroup, const D: usize> Op<S, D> {
    fn fail(self, e: ServiceError) {
        match self {
            Op::Client(op) => op.fail(e),
            Op::Split(_, r) => r.resolve(Err(e)),
            Op::Recover(_, r) => r.resolve(Err(e)),
        }
    }

    pub(crate) fn span(&self) -> SpanId {
        match self {
            Op::Client(op) => op.span(),
            Op::Split(_, r) => r.span(),
            Op::Recover(_, r) => r.span(),
        }
    }
}

/// Whole microseconds between two instants (saturating at zero).
pub(crate) fn us_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// What the service handle and the router thread share.
pub(crate) struct Inner<S: Semigroup, const D: usize> {
    pub cfg: ShardedConfig,
    pub sg: S,
    /// The group-commit scheduler core (see `sched`).
    pub core: SchedCore<Op<S, D>>,
    /// Lock class `shard.stats` — before `wal.append` and
    /// `shard.cross` (see `ddrs_check`'s canonical order). The
    /// `submitted` and `overloaded` fields stay zero in here: admission
    /// counts them beside the queue and `ShardedService::stats` fills
    /// them into each snapshot.
    pub stats: TrackedMutex<ShardedStats>,
    /// One flag per shard: its next write sub-epoch's `Apply` job
    /// suffers an injected processor panic before its fold
    /// (deterministic fault injection for the test harness). Armed and
    /// consumed with `SeqCst`.
    pub faults: Vec<AtomicBool>,
}

pub(crate) struct Router<S: Semigroup, const D: usize> {
    pub workers: Vec<WorkerHandle<S, D>>,
    /// Every shard's committed store version. A job carries a clone
    /// (O(levels)); a mutation's reply is installed here only by a
    /// [`Router::commit`] that succeeds, so an abort leaves this
    /// untouched. A poisoned shard's entry is its last committed version.
    pub versions: Vec<DynamicDistRangeTree<D>>,
    /// Versions a dispatch replaced or built for nothing, dropped once
    /// its tickets have resolved, so freeing their levels never delays
    /// an acknowledgement.
    pub retired: Vec<DynamicDistRangeTree<D>>,
    pub part: Partitioner,
    pub poisoned: Vec<Option<String>>,
    pub next_seq: u64,
    /// One write-ahead log per shard (lock class `wal.append`): every
    /// committed epoch, bulk load and migration is appended before any
    /// of its tickets resolve, and nothing else is (see [`Router::log`]),
    /// so a quarantined shard can always be rebuilt to its last
    /// committed state by `recover_shard`.
    pub wals: Vec<EpochWal<D>>,
    /// The rebuild-unit capacity every shard store was built with —
    /// recovery rebuilds with the same value.
    pub capacity: usize,
}

/// One shard's part of a [`Router::commit`]: the version `base` its
/// worker folds `batches` of `(deletes, inserts)` onto, and whether an
/// injected fault fires first.
pub(crate) struct Change<const D: usize> {
    pub shard: usize,
    pub base: DynamicDistRangeTree<D>,
    pub batches: Vec<(Vec<u32>, Vec<Point<D>>)>,
    pub inject_fault: bool,
}

impl<S: Semigroup, const D: usize> Router<S, D> {
    pub(crate) fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The quarantine error of `shard`, if it is poisoned.
    pub(crate) fn quarantine(&self, shard: usize) -> Option<String> {
        self.poisoned[shard].as_ref().map(|reason| format!("shard {shard} is poisoned: {reason}"))
    }

    /// Install shard `s`'s committed `version`, retiring the old one.
    pub(crate) fn install(&mut self, s: usize, version: DynamicDistRangeTree<D>) {
        let replaced = std::mem::replace(&mut self.versions[s], version);
        self.retired.push(replaced);
    }

    /// Take the next position in the global commit order.
    pub(crate) fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Hand `shard`'s worker a job that sends no reply back here: a read
    /// sub-batch, which completes on the worker thread.
    pub(crate) fn send(&self, shard: usize, job: ShardJob<S, D>) {
        // ddrs-check: allow(unwrap) — a dead worker stays loud, as in `commit`.
        self.workers[shard].tx.send(job).expect("shard worker died outside the poisoning protocol");
    }

    /// The one commit protocol, shared by a write epoch, a split, a
    /// recovery and the initial load: send each change's `Apply` to its
    /// worker and gather the replies, absorbing their machine stats, and
    /// hand `gathered` the machine runs they cost. A shard whose job
    /// failed is poisoned with that job's error. Only if every job built
    /// are `records` appended through [`Router::log`] and every built
    /// version installed; otherwise nothing is installed, every built
    /// version is retired, and the error names the lowest-numbered
    /// failing shard.
    ///
    /// # Panics
    /// If a worker thread is gone.
    pub(crate) fn commit(
        &mut self,
        inner: &Inner<S, D>,
        changes: Vec<Change<D>>,
        records: Vec<(usize, EpochRecord<D>)>,
        gathered: impl FnOnce(u64),
    ) -> Result<(), String> {
        let ((tx, rx), jobs) = (mpsc::channel(), changes.len());
        for Change { shard, base, batches, inject_fault } in changes {
            let reply = tx.clone();
            self.send(shard, ShardJob::Apply { tree: base, batches, inject_fault, reply });
        }
        drop(tx);
        let mut replies: Vec<Reply<_>> = (0..jobs)
            // ddrs-check: allow(unwrap) — workers report every failure as
            // `Err` data and exit only when the router drops their channel,
            // so a lost reply means a worker panicked outside the poisoning
            // protocol; that must stay loud rather than fabricate a reply.
            .map(|_| rx.recv().expect("shard worker died outside the poisoning protocol"))
            .collect();
        let mut st = inner.stats.lock();
        for reply in &replies {
            st.absorb_run(reply.shard, &reply.stats);
        }
        drop(st);
        gathered(replies.iter().map(|reply| reply.stats.runs as u64).sum());
        replies.sort_unstable_by_key(|reply| reply.shard);
        let (mut built, mut failed) = (Vec::with_capacity(replies.len()), None);
        for Reply { shard, result, .. } in replies {
            match result {
                Ok(version) => built.push((shard, version)),
                Err(e) => {
                    failed = failed.or_else(|| Some(format!("shard {shard}: {e}")));
                    self.poisoned[shard] = Some(e);
                }
            }
        }
        let outcome = failed.map_or_else(|| self.log(records), Err);
        match outcome {
            Ok(()) => built.into_iter().for_each(|(s, version)| self.install(s, version)),
            Err(_) => self.retired.extend(built.into_iter().map(|(_, version)| version)),
        }
        outcome
    }

    /// Append `records` (an epoch's, a split's or the initial load's,
    /// one per shard) all or none: if an append fails, every log this
    /// call reached is cut back to its length before the call, and a log
    /// that cannot be cut back quarantines its shard. The length is
    /// [`EpochWal::stats`], the sink's length for every log the service
    /// writes (it starts each log, and recovery re-bases on its cut).
    pub(crate) fn log(&mut self, records: Vec<(usize, EpochRecord<D>)>) -> Result<(), String> {
        let marks: Vec<_> = records.iter().map(|&(s, _)| self.wals[s].stats()).collect();
        let Some((k, e)) = records
            .iter()
            .enumerate()
            .find_map(|(k, (s, rec))| self.wals[*s].append_record(rec).err().map(|e| (k, e)))
        else {
            return Ok(());
        };
        for (&(s, _), mark) in records.iter().zip(&marks).take(k + 1) {
            if let Err(cut) = self.wals[s].truncate(mark.bytes, mark.records) {
                self.poisoned[s] =
                    Some(format!("wal cut-back failed after a failed append: {cut}"));
            }
        }
        Err(format!("shard {}: wal append failed: {e}", records[k].0))
    }

    /// Publish per-shard health, sizes and WAL counters into the shared
    /// stats.
    pub(crate) fn publish(&self, inner: &Inner<S, D>) {
        let mut st = inner.stats.lock();
        for (i, snap) in st.per_shard.iter_mut().enumerate() {
            snap.live_points = self.versions[i].len();
            snap.poisoned = self.poisoned[i].clone();
            // `shard.stats` precedes `wal.append` in the canonical order, so
            // reading the log counters under the stats guard is legal.
            let ws = self.wals[i].stats();
            snap.wal_records = ws.records;
            snap.wal_bytes = ws.bytes;
        }
        st.range_bounds = self.part.bounds();
    }
}

pub(crate) fn router_loop<S: Semigroup, const D: usize>(
    inner: &Arc<Inner<S, D>>,
    mut router: Router<S, D>,
) -> Vec<ShardParts<D>> {
    loop {
        // The scheduler core decides when and what to dispatch.
        let window = inner.core.next_window();
        let (batch, expired) = match window {
            Window::Shutdown { rejected } => {
                fail_queued(inner, rejected, |_| ServiceError::ShuttingDown);
                // stop_workers joins every worker thread, so all
                // in-flight read callbacks finish before we return the
                // shard parts.
                return stop_workers(router);
            }
            Window::Dispatch { batch, expired } => (batch, expired),
        };

        if !expired.is_empty() {
            inner.stats.lock().expired += expired.len() as u64;
            fail_queued(inner, expired, |_| ServiceError::DeadlineExpired);
        }
        // Consistency bounds gate reads only (a write observes
        // nothing), judged at dispatch time against the global commit
        // counter: a read demanding a commit the store has not performed
        // fails instead of serving state it promised not to serve.
        let (mut batch, unmet) = gate_reads(batch, router.next_seq);
        fail_queued(inner, unmet, |p| ServiceError::Consistency {
            // ddrs-check: allow(unwrap) — `gate_reads` puts an op in
            // `unmet` only when it carries a `min_seq` bound.
            required: p.min_seq.expect("partitioned on min_seq"),
            committed: router.next_seq,
        });
        let Some(first) = batch.first() else { continue };
        match first.op.kind() {
            Kind::Read => dispatch_reads(inner, &mut router, batch),
            Kind::Write => dispatch_write_epoch(inner, &mut router, batch),
            Kind::Exclusive => {
                debug_assert_eq!(batch.len(), 1);
                let Some(p) = batch.pop() else { continue };
                let (router, t0) = (&mut router, p.submitted);
                match p.op {
                    Op::Split(donor, r) => run_exclusive(inner, router, r, t0, do_split, donor),
                    Op::Recover(shard, r) => run_exclusive(inner, router, r, t0, do_recover, shard),
                    Op::Client(_) => unreachable!("exclusive window holding a client op"),
                }
            }
        }
        // Every ticket of the dispatch has resolved.
        router.retired.clear();
    }
}

/// Fail ops that never left the queue, counting them completed first.
fn fail_queued<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    ops: Vec<Pending<Op<S, D>>>,
    error: impl Fn(&Pending<Op<S, D>>) -> ServiceError,
) {
    if ops.is_empty() {
        return;
    }
    inner.stats.lock().completed += ops.len() as u64;
    for p in ops {
        ddrs_trace::end_err(p.op.span(), Stage::Queue);
        let e = error(&p);
        p.op.fail(e);
    }
}

/// Run `n` ticket resolutions and record each one's merge (from
/// `merge0`) and resolve durations. These are only knowable after the
/// resolutions ran, so they land in a second stats acquisition — a
/// deliberate relaxation of the stats-before-resolve rule: their
/// duration IS the resolution work itself.
pub(crate) fn resolve_timed<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    merge0: Instant,
    n: usize,
    resolve: impl FnOnce(),
) {
    let t_merge1 = Instant::now();
    resolve();
    if n == 0 {
        return;
    }
    let t_resolve1 = Instant::now();
    let mut st = inner.stats.lock();
    for _ in 0..n {
        st.stages.merge.record(us_between(merge0, t_merge1));
        st.stages.resolve.record(us_between(t_merge1, t_resolve1));
    }
}

/// End an op's span in `stage` and resolve its ticket — the last thing
/// every completion path does.
pub(crate) fn settle<V>(
    resolver: Resolver<V>,
    stage: Stage,
    outcome: Result<Commit<V>, ServiceError>,
) {
    match outcome {
        Ok(_) => ddrs_trace::end(resolver.span(), stage),
        Err(_) => ddrs_trace::end_err(resolver.span(), stage),
    }
    resolver.resolve(outcome);
}

/// Run one exclusive op — `work` on `shard` — on the router thread and
/// resolve its ticket with the next global seq.
fn run_exclusive<S: Semigroup, V, const D: usize>(
    inner: &Inner<S, D>,
    router: &mut Router<S, D>,
    resolver: Resolver<V>,
    submitted: Instant,
    work: impl FnOnce(&Inner<S, D>, &mut Router<S, D>, usize) -> Result<V, String>,
    shard: usize,
) {
    ddrs_trace::transition(resolver.span(), Stage::Queue, Stage::Window);
    let outcome = work(inner, router, shard);
    {
        let mut st = inner.stats.lock();
        st.completed += 1;
        st.latency_us.record(submitted.elapsed().as_micros() as u64);
    }
    // Publish before resolution: the op's effects (health, sizes,
    // boundaries, counters) must be visible in the telemetry by the time
    // its ticket resolves.
    router.publish(inner);
    let outcome = outcome.map(|value| Commit { value, seq: router.take_seq() });
    settle(resolver, Stage::Window, outcome.map_err(ServiceError::Machine));
}

/// Close every worker's channel, so each leaves its loop after the jobs
/// already queued (every in-flight read callback included), and join
/// them, taking their machines back.
fn stop_workers<S: Semigroup, const D: usize>(router: Router<S, D>) -> Vec<ShardParts<D>> {
    let Router { workers, versions, poisoned, .. } = router;
    let (txs, joins): (Vec<_>, Vec<_>) = workers.into_iter().map(|w| (w.tx, w.join)).unzip();
    drop(txs);
    joins
        .into_iter()
        .zip(versions)
        .zip(poisoned)
        .map(|((join, tree), poisoned)| {
            // ddrs-check: allow(unwrap) — a worker panic is a worker bug;
            // surfacing it beats returning an inconsistent store silently.
            let machine = join.join().expect("shard worker panicked");
            ShardParts { machine, tree, poisoned }
        })
        .collect()
}
