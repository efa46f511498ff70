//! # ddrs-shard — the serving front-end: a scatter-gather router over
//! `S ≥ 1` shard groups
//!
//! The layers below this crate are synchronous and single-caller: a
//! `QueryBatch` turns one batch into one SPMD submission, but somebody
//! has to *assemble* large batches out of many small concurrent requests
//! and interleave updates safely. [`ShardedService`] is that somebody.
//! With one machine it is the whole serving layer of a single SPMD
//! group; with `S` machines the id/key domain is partitioned across `S`
//! *shard groups*, each with its own [`Machine`], its own
//! [`DynamicDistRangeTree`] (whose committed version the router holds)
//! and its own worker thread, behind the same
//! `Ticket`/`Commit { value, seq }` API:
//!
//! ```text
//!  client threads        router thread                 shard groups
//!  ──────────────   ┌──────────────────────┐   ┌───────────────────────┐
//!  count(q) ───┐    │ group-commit window  │   │ shard 0: Machine +    │
//!  insert(b) ──┼──▶ │  (the `sched` core:  │──▶│  worker thread        │
//!  report(q) ──┘    │   idle: at once;     │   ├───────────────────────┤
//!     │             │   busy: max_batch,   │   │ shard 1: Machine + …  │
//!     ▼             │   max_delay, settle) │   ├───────────────────────┤
//!  Ticket::wait ◀───│ reads → routed fused │   │ …                     │
//!  (value, global   │  sub-batches, async  │   ├───────────────────────┤
//!   commit seq)     │  scatter-gather      │   │ shard S-1             │
//!                   │ writes → routed      │   └───────────────────────┘
//!                   │  sub-epoch barrier   │     each sub-batch: ≤ 1
//!                   │ versions: every      │     Machine::run per shard,
//!                   │  shard's store       │     on the version it carries
//!                   └──────────────────────┘
//! ```
//!
//! ## Routing and merging
//!
//! * **Reads.** A coalesced read window is planned into at most one fused
//!   sub-batch per *touched* shard ([`ddrs_rangetree::QueryBatch`]), so a
//!   mixed cross-shard read batch costs **at most one machine run per
//!   shard it overlaps** however many queries it coalesced. Under the
//!   range policy a query is enqueued only on the slabs its first-axis
//!   interval overlaps, clipped at the shard boundaries; under hash
//!   placement a degenerate (point) query routes to exactly the shard
//!   the placement mix chose, while wider hash-policy scans — the one
//!   genuinely unroutable shape — still fan out to every shard.
//!   Partials merge deterministically: counts sum, aggregates fold with
//!   the (commutative) semigroup, report ids concatenate and sort
//!   ascending — byte-identical to the unsharded answer.
//! * **Writes.** Each write routes by key: inserts to the placement
//!   policy's shard, deletes to the shard whose committed version holds
//!   the id (one probe of every version's sorted id columns per request).
//!   A write window applies as one sub-epoch per touched shard, scattered
//!   in parallel and gathered as a barrier before the next window
//!   dispatches.
//! * **Concurrency.** Read windows never block the router: each shard's
//!   fused sub-batch executes on that shard's own worker thread, which
//!   also resolves the tickets (single-shard directly; cross-shard via a
//!   shared countdown merging the partials). While reads are in flight
//!   the next window gathers company until the last one settles (or
//!   `max_delay`, or `max_batch`); an idle service dispatches at once.
//!   Write epochs and splits stay synchronous on the router thread —
//!   that barrier *is* the epoch protocol.
//! * **Global sequence.** The router assigns every committed response a
//!   position in one *global* commit order at planning time: replaying
//!   committed requests in `seq` order through a sequential oracle
//!   reproduces every response. The invariant survives concurrent reads
//!   because the router holds every shard's committed store version and
//!   a read sub-batch carries the version the router held when it was
//!   planned: a read planned between write epochs `W_k` and `W_{k+1}`
//!   runs on the post-`W_k` versions whenever its worker gets to it, so
//!   it observes exactly the state its pre-assigned seq claims.
//!
//! ## Failure containment
//!
//! A simulated-processor panic during a *read* fails only the requests
//! that needed the failing shard. A panic during a *write sub-epoch*
//! aborts the whole epoch: every request in it fails, no shard installs
//! its sub-epoch, and the failing shard is **poisoned** — quarantined
//! from all further traffic while its siblings keep serving. Committed
//! history is never contradicted. Every mutation (a write epoch, a
//! split, a recovery, the initial load) commits through one protocol:
//! each shard's part is one job that folds its batches onto a clone of
//! the version it carries (shared `Arc` levels) and replies with the
//! version it built; a shard whose job failed is poisoned; and only if
//! every job built are the mutation's log records appended and the built
//! versions installed. So an abort needs no message to any worker, a
//! poisoned store is the shard's last committed version, and a refused
//! recovery leaves the shard quarantined on it. A failed log append
//! aborts the same way: every log the mutation's appends reached is cut
//! back to its length before them, so no log holds a record that did not
//! commit; only a log that cannot be cut back quarantines its shard.
//!
//! ## Rebalancing
//!
//! [`ShardedService::split_shard`] migrates the upper or lower half of a
//! shard's points (split on the first axis, ties kept together) to a
//! sibling, installing both shards' new versions — and, under the range
//! policy, the slab boundary — atomically between dispatches, so in-flight
//! requests commit before or after the migration, never astride it. A
//! skew trigger ([`ShardedConfig::rebalance_factor`]) runs the same
//! migration automatically after a write epoch leaves a shard holding
//! more than `factor ×` the mean. Under hash placement a migration
//! breaks the coordinate-mix residency invariant, so from the first
//! hash-policy split onward degenerate point *reads* stop routing to a
//! single shard and fan out fully — correctness over routing
//! minimality; a delete still reaches only the shard whose version holds
//! its id.
//!
//! ## Module map
//!
//! * `sched` — the group-commit scheduler core: *when* and *what* to
//!   dispatch (bounded-queue admission, window firing, the
//!   group-preserving carve, deadline expiry, the consistency gate).
//! * `router` — the router thread: its state, the dispatch loop that
//!   *executes* a carved window, `commit` (the one protocol that builds,
//!   logs and installs a mutation), telemetry publishing, shutdown.
//! * `reads` — plans a read window into per-shard fused sub-batches and
//!   settles their results; generic over the query mode's value type.
//! * `writes` — the write epoch: validate, then one `commit` of every
//!   touched shard's sub-epoch; and the skew trigger.
//! * `split` / `recover` — the two exclusive ops: migrate half a shard,
//!   rebuild a quarantined shard from its write-ahead log.
//! * `partition`, `stats`, `worker` — placement policies, telemetry, and
//!   the per-shard thread that owns a machine and runs jobs on the
//!   versions they carry.
//!
//! ## Example
//!
//! ```
//! use ddrs_cgm::Machine;
//! use ddrs_client::RangeStore;
//! use ddrs_rangetree::{Point, Rect, Sum};
//! use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
//!
//! let machines: Vec<Machine> = (0..2).map(|_| Machine::new(2).unwrap()).collect();
//! let pts: Vec<Point<2>> =
//!     (0..64).map(|i| Point::weighted([i, 63 - i], i as u32, 1)).collect();
//! let service = ShardedService::start(
//!     machines,
//!     16,
//!     &pts,
//!     Sum,
//!     PartitionPolicy::range_uniform(2, 0, 64),
//!     ShardedConfig::default(),
//! )
//! .unwrap();
//! // Cross-shard scatter-gather: the rect spans both slabs.
//! let c = service.count(Rect::new([0, 0], [63, 63])).unwrap();
//! assert_eq!(c.wait().unwrap().value, 64);
//! let parts = service.shutdown();
//! assert_eq!(parts.iter().map(|(_, t)| t.len()).sum::<usize>(), 64);
//! ```

#![warn(missing_docs)]

mod partition;
mod reads;
mod recover;
mod router;
mod sched;
mod split;
mod stats;
mod worker;
mod writes;

pub use partition::PartitionPolicy;
pub use stats::{ShardSnapshot, ShardedStats};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ddrs_cgm::Machine;
use ddrs_check::TrackedMutex;
use ddrs_client::{ticket, RangeStore, Request, Resolver, Response, SubmitError, Ticket};
use ddrs_rangetree::{check_ids, BuildError, DynamicDistRangeTree, Point, Semigroup};
use ddrs_trace::Stage;
use ddrs_wal::{EpochRecord, EpochWal, LogSink, MemSink, RecordKind};

use partition::Partitioner;
use router::{router_loop, Change, Inner, Op, Router};
use sched::{Mode, SchedCore};
use worker::spawn_worker;

/// Tuning knobs of the sharded serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Dispatch as soon as this many requests are pending. Must be ≥ 1.
    /// One multi-op request's contiguous run is never split by this
    /// cap: a request carrying more reads than `max_batch` still
    /// dispatches as one fused window per shard.
    pub max_batch: usize,
    /// The longest a request waits for company while a read it could
    /// ride is still in flight; with none in flight a window fires at
    /// once (`Duration::MAX`: only `max_batch` fires a busy window).
    pub max_delay: Duration,
    /// Admission bound: submissions beyond this queue depth are rejected
    /// with [`SubmitError::Overloaded`]; a single request carrying more
    /// ops than the whole capacity is rejected with the permanent
    /// [`SubmitError::RequestTooLarge`] instead. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Skew trigger: after a committed write epoch, if the largest shard
    /// holds more than `rebalance_factor ×` the mean live-point count
    /// (and at least [`rebalance_min`](Self::rebalance_min) points), the
    /// router splits it toward a lighter sibling. `0.0` disables
    /// automatic rebalancing; values ≤ 1.0 make no sense and are treated
    /// as disabled.
    pub rebalance_factor: f64,
    /// Minimum donor size for an automatic split.
    pub rebalance_min: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            max_batch: 64,
            max_delay: Duration::from_micros(500),
            queue_capacity: 4096,
            rebalance_factor: 0.0,
            rebalance_min: 64,
        }
    }
}

/// Outcome of a completed shard-split migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitReport {
    /// The shard that shrank.
    pub from: usize,
    /// The sibling that received the migrated points.
    pub to: usize,
    /// How many points moved.
    pub moved: usize,
    /// The axis-0 split coordinate. Under the range policy this is also
    /// the new slab boundary between the two shards.
    pub boundary: i64,
}

/// Outcome of a completed shard recovery: a quarantined shard rebuilt
/// from its write-ahead log and returned to service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The shard that was rebuilt.
    pub shard: usize,
    /// Committed WAL records replayed into the fresh store.
    pub replayed_records: usize,
    /// Live points in the rebuilt store.
    pub live_points: usize,
    /// `false` when the log ended in a torn or corrupt tail (expected
    /// after a crash mid-append): recovery stopped at the last complete
    /// record.
    pub clean_tail: bool,
    /// Wall-clock duration of the rebuild (decode + replay + rejoin).
    pub duration: Duration,
}

/// The per-shard state handed back by [`ShardedService::dismantle`]:
/// the group's machine, its store, and its quarantine reason if a write
/// sub-epoch failed mid-apply (the store is then its last committed
/// version).
#[derive(Debug)]
pub struct ShardParts<const D: usize> {
    /// The shard group's machine.
    pub machine: Machine,
    /// The shard group's store.
    pub tree: DynamicDistRangeTree<D>,
    /// `Some(reason)` if the shard was poisoned.
    pub poisoned: Option<String>,
}

/// The sharded serving front-end: `S` shard groups behind one
/// serializable façade.
///
/// Submission methods take `&self` from any thread and return
/// [`Ticket`]s; every committed response carries a position in one
/// *global* commit order (see the crate docs for the serializability
/// contract).
pub struct ShardedService<S: Semigroup, const D: usize> {
    inner: Arc<Inner<S, D>>,
    router: Option<JoinHandle<Vec<ShardParts<D>>>>,
    shards: usize,
}

impl<S: Semigroup, const D: usize> ShardedService<S, D> {
    /// Start the service: one shard group per machine, bulk-loading
    /// `initial` (partitioned by `policy`) in parallel across the
    /// groups, each store with rebuild unit `capacity`.
    ///
    /// Returns the same validation errors a sequential `insert_batch` of
    /// `initial` would (duplicate or reserved ids).
    ///
    /// # Panics
    /// Panics if `machines` is empty, a config bound is zero, or a range
    /// policy's boundary list does not match the machine count.
    pub fn start(
        machines: Vec<Machine>,
        capacity: usize,
        initial: &[Point<D>],
        sg: S,
        policy: PartitionPolicy,
        cfg: ShardedConfig,
    ) -> Result<Self, BuildError> {
        let sinks =
            (0..machines.len()).map(|_| Box::new(MemSink::new()) as Box<dyn LogSink>).collect();
        Self::start_with_sinks(machines, capacity, initial, sg, policy, cfg, sinks)
    }

    /// [`start`](ShardedService::start) with one caller-provided
    /// write-ahead-log sink per shard (e.g. `ddrs_wal::FileSink` for a
    /// log that survives the process). `start` itself uses in-memory
    /// sinks: the crash domain the service defends against is a
    /// processor panic inside one shard, and the log only has to
    /// outlive the quarantined *store*, not the process.
    ///
    /// # Panics
    /// As [`start`](ShardedService::start), plus if `sinks` does not
    /// match the machine count, or an initial-load record cannot be
    /// appended to its sink.
    pub fn start_with_sinks(
        machines: Vec<Machine>,
        capacity: usize,
        initial: &[Point<D>],
        sg: S,
        policy: PartitionPolicy,
        cfg: ShardedConfig,
        sinks: Vec<Box<dyn LogSink>>,
    ) -> Result<Self, BuildError> {
        assert!(!machines.is_empty(), "need at least one shard machine");
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_capacity >= 1, "queue_capacity must be at least 1");
        assert_eq!(sinks.len(), machines.len(), "need exactly one WAL sink per shard");
        let shards = machines.len();
        let part = Partitioner::new(policy, shards);

        // The ids across all shards, refused as one insert would be.
        if let Err((_, refusal)) = check_ids(initial, |_| Vec::new()) {
            return Err(refusal.into());
        }
        let mut parts: Vec<Vec<Point<D>>> = vec![Vec::new(); shards];
        for p in initial {
            parts[part.place(p)].push(*p);
        }
        let fresh = || ShardedStats {
            per_shard: vec![ShardSnapshot::default(); shards],
            ..Default::default()
        };
        let inner = Inner {
            cfg,
            sg,
            core: SchedCore::new(cfg),
            stats: TrackedMutex::new("shard.stats", fresh()),
            faults: (0..shards).map(|_| AtomicBool::new(false)).collect(),
        };
        let mut router = Router {
            workers: machines.into_iter().enumerate().map(|(i, m)| spawn_worker(i, m)).collect(),
            versions: vec![DynamicDistRangeTree::new(capacity); shards],
            retired: Vec::new(),
            part,
            poisoned: vec![None; shards],
            next_seq: 0,
            wals: sinks.into_iter().map(EpochWal::with_sink).collect(),
            capacity,
        };

        // The parallel bulk load, one commit: built, then logged as each
        // non-empty shard's first record, so a recovery replay starts
        // from the same state the worker does. No clients exist yet, and
        // a service that cannot build or log its own initial state must
        // not start.
        let loading: Vec<usize> = (0..shards).filter(|&sh| !parts[sh].is_empty()).collect();
        let changes: Vec<_> = loading
            .iter()
            .map(|&sh| Change {
                shard: sh,
                base: DynamicDistRangeTree::new(capacity),
                batches: vec![(Vec::new(), parts[sh].clone())],
                inject_fault: false,
            })
            .collect();
        let records = loading.iter().map(|&sh| {
            let inserts = std::mem::take(&mut parts[sh]);
            (sh, EpochRecord::event(RecordKind::Load, 0, Vec::new(), inserts))
        });
        if let Err(e) = router.commit(&inner, changes, records.collect(), |_| {}) {
            panic!("initial bulk load failed on {e}");
        }
        // Construction statistics are not part of the service telemetry,
        // which covers exactly its own dispatches.
        *inner.stats.lock() = fresh();
        let inner = Arc::new(inner);
        // Sizes, slab bounds and the bulk-load records already in the
        // logs: a store that is only ever read must still report them.
        router.publish(&inner);
        let sched_inner = Arc::clone(&inner);
        let router = std::thread::Builder::new()
            .name("ddrs-shard-router".into())
            .spawn(move || router_loop(&sched_inner, router))
            // ddrs-check: allow(unwrap) — OS thread-spawn failure at
            // startup; there is no running service to keep alive.
            .expect("spawning the shard router");
        Ok(ShardedService { inner, router: Some(router), shards })
    }

    /// Number of shard groups.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Request a split of shard `donor`: half its points (split on the
    /// first axis) migrate to a lighter sibling between two dispatches,
    /// so no in-flight request observes a half-migrated store. Resolves
    /// with the migration report, or [`ServiceError::Machine`] if the
    /// split is impossible (single-point shard, all points sharing one
    /// coordinate, no healthy sibling). Under [`PartitionPolicy::Hash`]
    /// the migrated points no longer live where the placement mix says,
    /// so the first split permanently widens degenerate point reads from
    /// single-shard routing to full fan-out (answers stay exact; only
    /// the routing minimality is given up).
    ///
    /// [`ServiceError::Machine`]: ddrs_client::ServiceError::Machine
    pub fn split_shard(&self, donor: usize) -> Result<Ticket<SplitReport>, SubmitError> {
        assert!(donor < self.shards, "split_shard: no shard {donor}");
        self.enqueue_exclusive(|r| Op::Split(donor, r))
    }

    /// Request recovery of quarantined shard `shard`: between two
    /// dispatches, the router replays the shard's write-ahead log into
    /// a fresh store on the shard's own machine (stopping cleanly at
    /// any torn log tail), installs it, clears the quarantine, and the
    /// shard rejoins the service in place of its poisoned predecessor.
    ///
    /// Resolves with the [`RecoveryReport`], or
    /// [`ServiceError::Machine`] if the shard is not poisoned or the
    /// replay itself fails (the shard then stays quarantined and the
    /// call can be retried). Requests in flight against the dead shard
    /// are unaffected: recovery dispatches exclusively, so every
    /// earlier op has already resolved — committed, rejected, or failed
    /// with the quarantine error — by the time the rebuild runs.
    ///
    /// [`ServiceError::Machine`]: ddrs_client::ServiceError::Machine
    pub fn recover_shard(&self, shard: usize) -> Result<Ticket<RecoveryReport>, SubmitError> {
        assert!(shard < self.shards, "recover_shard: no shard {shard}");
        self.enqueue_exclusive(|r| Op::Recover(shard, r))
    }

    /// Enqueue one of the router's own commands behind a fresh ticket.
    fn enqueue_exclusive<V>(
        &self,
        op: impl FnOnce(Resolver<V>) -> Op<S, D>,
    ) -> Result<Ticket<V>, SubmitError> {
        let (t, r) = ticket();
        self.enqueue_ops(1, || (vec![op(r)], None, None))?;
        Ok(t)
    }

    /// Admission shared by the exclusive ops and the [`RangeStore`]
    /// `submit` impl: the scheduler core's `submit_ops` (all-or-nothing,
    /// one group id, `make` under the queue lock), opening op spans.
    fn enqueue_ops(
        &self,
        n_ops: usize,
        make: impl FnOnce() -> (Vec<Op<S, D>>, Option<Duration>, Option<u64>),
    ) -> Result<(), SubmitError> {
        self.inner.core.submit_ops(n_ops, || {
            let (ops, deadline, min_seq) = make();
            // Lifecycle spans open here — admission is certain, so every
            // Queue begin is matched by an End on some dispatch or
            // failure path.
            for op in &ops {
                ddrs_trace::begin(op.span(), Stage::Queue);
            }
            (ops, deadline, min_seq)
        })
    }

    /// Deterministic fault injection for tests and harnesses: the next
    /// write sub-epoch dispatched to `shard` executes an SPMD program in
    /// which one simulated processor panics *before* the sub-epoch's fold
    /// (via `Machine::try_run`), poisoning that shard while its siblings
    /// keep serving.
    pub fn fail_next_write_epoch(&self, shard: usize) {
        assert!(shard < self.shards, "fail_next_write_epoch: no shard {shard}");
        self.inner.faults[shard].store(true, Ordering::SeqCst);
    }

    /// Snapshot the service telemetry.
    pub fn stats(&self) -> ShardedStats {
        let mut snap = self.inner.stats.lock().clone();
        self.inner.core.fill_admission(&mut snap);
        snap
    }

    fn stop(&mut self, mode: Mode) -> Vec<ShardParts<D>> {
        self.inner.core.begin_stop(mode);
        self.router
            .take()
            // ddrs-check: allow(unwrap) — invariant: every caller either
            // consumes `self` or checks `router.is_some()` first.
            .expect("sharded service already stopped")
            .join()
            // ddrs-check: allow(unwrap) — a panic escaping the router
            // loop is a router bug; fabricating parts would hide it.
            .expect("shard router panicked")
    }

    /// Begin a graceful shutdown without blocking: new submissions fail
    /// from this point on while already queued requests are served.
    pub fn begin_shutdown(&self) {
        self.inner.core.begin_stop(Mode::Draining);
    }

    /// [`stop`](Self::stop), refusing to hand back a poisoned store.
    fn stop_healthy(&mut self, mode: Mode) -> Vec<(Machine, DynamicDistRangeTree<D>)> {
        self.stop(mode)
            .into_iter()
            .map(|p| {
                if let Some(reason) = p.poisoned {
                    panic!("shard store poisoned: {reason}");
                }
                (p.machine, p.tree)
            })
            .collect()
    }

    /// Stop accepting work, serve everything queued, then hand back each
    /// group's machine and store, in shard order.
    ///
    /// # Panics
    /// Panics if any shard was poisoned (a failed write sub-epoch left
    /// its store behind its siblings or its log); use
    /// [`dismantle`](ShardedService::dismantle) to recover the healthy
    /// shards around a poisoned one.
    pub fn shutdown(mut self) -> Vec<(Machine, DynamicDistRangeTree<D>)> {
        self.stop_healthy(Mode::Draining)
    }

    /// Stop accepting work and reject everything queued, then hand back
    /// each group's machine and store.
    ///
    /// # Panics
    /// Panics if any shard was poisoned, as with
    /// [`shutdown`](ShardedService::shutdown).
    pub fn abort(mut self) -> Vec<(Machine, DynamicDistRangeTree<D>)> {
        self.stop_healthy(Mode::Rejecting)
    }

    /// Stop (rejecting queued work) and hand back *every* shard's parts,
    /// poisoned or not — the forensic exit the fault harness uses to
    /// inspect healthy siblings around a quarantined shard.
    pub fn dismantle(mut self) -> Vec<ShardParts<D>> {
        self.stop(Mode::Rejecting)
    }
}

impl<S: Semigroup, const D: usize> RangeStore<S, D> for ShardedService<S, D> {
    /// Submit a composed multi-op request as one unit (the single-op
    /// `count`/`insert`/… conveniences are the trait's default methods
    /// over this).
    ///
    /// Admission is all-or-nothing: either every op of the request is
    /// enqueued contiguously (writes first, then reads — so the reads
    /// coalesce into one fused window per shard and observe the
    /// request's own writes), or the whole request is rejected. Each op
    /// counts toward the queue capacity and the submission telemetry
    /// individually.
    fn submit(&self, req: Request<S, D>) -> Result<Ticket<Response<S>>, SubmitError> {
        assert!(!req.is_empty(), "submitted an empty request");
        let n_ops = req.len();
        let mut ticket = None;
        self.enqueue_ops(n_ops, || {
            let planned = req.plan();
            let ops = planned.ops.into_iter().map(Op::Client).collect();
            ticket = Some(planned.ticket);
            (ops, planned.deadline, planned.min_seq)
        })?;
        // ddrs-check: allow(unwrap) — on the Ok path `submit_ops` always
        // ran `make`, which fills the slot.
        Ok(ticket.expect("admission ran the lowering closure"))
    }
}

impl<S: Semigroup, const D: usize> Drop for ShardedService<S, D> {
    fn drop(&mut self) {
        if self.router.is_some() {
            let _ = self.stop(Mode::Draining);
        }
    }
}

impl<S: Semigroup, const D: usize> std::fmt::Debug for ShardedService<S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards)
            .field("d", &D)
            .field("queue_depth", &self.inner.core.depth())
            .finish()
    }
}

#[cfg(test)]
mod tests;
