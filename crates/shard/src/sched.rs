//! The group-commit scheduler core: everything about *when* and *what*
//! the router dispatches.
//!
//! Client requests coalesce in a bounded FIFO of pending ops with
//! admission control, window firing, deadline expiry in the queue, a
//! carve that pops the dispatchable prefix, and an `AtLeast` consistency
//! gate judged at dispatch time. [`SchedCore`] is that policy; `router`
//! keeps only how a carved window is *executed* (per-shard
//! scatter-gather).
//!
//! ## When a window fires
//!
//! At once when no read sub-batch is in flight: a lone request never
//! waits for company that is not coming. Otherwise when the last
//! in-flight sub-batch settles, when the oldest request has waited
//! `max_delay`, or at `max_batch` pending, whichever comes first, so what
//! queued while the shards were busy rides one batch. Only reads can be
//! in flight: write epochs and exclusive ops block the router until they
//! commit. The router counts each sub-batch sent
//! ([`SchedCore::read_sent`]); a guard its completion owns settles it
//! ([`SchedCore::read_settled`]) on drop, a panicking callback's too.
//!
//! ## The carve invariants
//!
//! [`SchedCore::next_window`] pops the dispatchable prefix of the queue
//! with [`carve`]. Its invariants, stated once and relied on by the
//! router:
//!
//! 1. **Expired first.** Requests whose deadline passed while queued are
//!    popped out of the prefix and returned separately; they never reach
//!    a machine and do not count toward the window cap.
//! 2. **Same-kind runs.** A window contains ops of exactly one [`Kind`]:
//!    reads coalesce only with reads, writes only with writes. The first
//!    op's kind decides the window's kind.
//! 3. **Groups never split.** All ops admitted by one `submit_ops` call
//!    share a group id, and a contiguous same-kind run of one group is
//!    never split across windows — even when that overflows `max_batch`.
//!    This is what makes the client contract's "a request's reads fuse
//!    into one dispatch" guarantee unconditional.
//! 4. **Exclusive ops dispatch alone.** A [`Kind::Exclusive`] op (a
//!    split or a recovery) terminates its window immediately: one per
//!    window.
//! 5. **`max_batch` is a target, not a limit.** The cap stops the carve
//!    between groups; invariant 3 means a single oversized group can
//!    exceed it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ddrs_check::{TrackedCondvar, TrackedMutex};
use ddrs_client::SubmitError;

use crate::{ShardedConfig, ShardedStats};

/// What a window is made of. Splits and recoveries are the exclusive
/// kind: they dispatch alone, between windows, so no in-flight request
/// observes a half-migrated or half-rebuilt store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Read,
    Write,
    Exclusive,
}

/// What sits in the queue says its own kind: the router's `Op`, and the
/// unit tests' `u8` fake.
pub(crate) trait Queued {
    fn kind(&self) -> Kind;
}

/// One op as it sits in the pending queue: the op plus the queueing
/// metadata the core schedules by.
pub(crate) struct Pending<O> {
    pub op: O,
    /// When the op was admitted (latency accounting).
    pub submitted: Instant,
    /// Queue deadline: if still pending past this instant, the op is
    /// expired by the next carve instead of dispatched. `None` also for
    /// a deadline past the end of representable time.
    pub deadline: Option<Instant>,
    /// Consistency bound: minimum commits the store must have performed
    /// when this op dispatches (`Consistency::AtLeast`).
    pub min_seq: Option<u64>,
    /// Ops of one `submit_ops` call share a group id; see the carve
    /// invariants in the module docs.
    pub group: u64,
}

/// Whether the core admits work, and how it stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Running,
    /// Serve everything already queued, then stop.
    Draining,
    /// Reject everything already queued, then stop.
    Rejecting,
}

/// What the router thread should do next, as decided by
/// [`SchedCore::next_window`].
pub(crate) enum Window<O> {
    /// Execute this window. `expired` are the requests whose deadline
    /// passed in the queue — fail them with `DeadlineExpired`, they
    /// never reach a machine. `batch` may be empty (everything expired).
    Dispatch { batch: Vec<Pending<O>>, expired: Vec<Pending<O>> },
    /// Stop serving. `rejected` holds whatever was still queued (empty
    /// on a drained exit) — fail them with `ShuttingDown`.
    Shutdown { rejected: Vec<Pending<O>> },
}

struct SchedQueue<O> {
    q: VecDeque<Pending<O>>,
    mode: Mode,
    /// Source of request group ids (see [`Pending::group`]).
    group_counter: u64,
    /// Ops admitted and submissions refused `Overloaded`, counted beside
    /// the queue rather than in `shard.stats`: see
    /// [`SchedCore::fill_admission`].
    submitted: u64,
    overloaded: u64,
    /// Read sub-batches sent to a worker and not yet settled.
    in_flight: usize,
}

/// The scheduler state: one bounded pending queue, its mode, and the
/// condvar the router thread sleeps on.
///
/// The queue lock is a [`TrackedMutex`] under the class `sched.queue` —
/// the outermost class of the stack's canonical lock order.
pub(crate) struct SchedCore<O> {
    cfg: ShardedConfig,
    queue: TrackedMutex<SchedQueue<O>>,
    arrived: TrackedCondvar,
}

impl<O: Queued> SchedCore<O> {
    /// Build a core that fires busy windows by `cfg`'s `max_batch` /
    /// `max_delay` and admits up to its `queue_capacity`.
    pub fn new(cfg: ShardedConfig) -> Self {
        SchedCore {
            cfg,
            queue: TrackedMutex::new(
                "sched.queue",
                SchedQueue {
                    q: VecDeque::new(),
                    mode: Mode::Running,
                    group_counter: 0,
                    submitted: 0,
                    overloaded: 0,
                    in_flight: 0,
                },
            ),
            arrived: TrackedCondvar::new(),
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.lock().q.len()
    }

    /// Fill admission's counters and the depth into a snapshot cloned
    /// from `shard.stats` *before* this call: every op the clone counts
    /// completed was counted submitted before any carve could see it,
    /// so `submitted ≥ completed` in every snapshot, with no lock nested
    /// inside the queue's.
    pub fn fill_admission(&self, snap: &mut ShardedStats) {
        let q = self.queue.lock();
        snap.submitted = q.submitted;
        snap.overloaded = q.overloaded;
        snap.queue_depth = q.q.len();
    }

    /// Admit one request's ops all-or-nothing: either every op is
    /// enqueued contiguously under one fresh group id, or nothing is.
    ///
    /// `make` lowers the request into `(ops, deadline, min_seq)` only
    /// once admission is certain, so a rejection never pays for (and
    /// then tears down) per-op resolver plumbing. It runs under the
    /// queue lock and must not take locks that can be held while this
    /// core is used.
    pub fn submit_ops(
        &self,
        n_ops: usize,
        make: impl FnOnce() -> (Vec<O>, Option<Duration>, Option<u64>),
    ) -> Result<(), SubmitError> {
        let now = Instant::now();
        let mut q = self.queue.lock();
        if q.mode != Mode::Running {
            return Err(SubmitError::ShutDown);
        }
        if n_ops > self.cfg.queue_capacity {
            // Rejecting as Overloaded would send the caller into a
            // futile retry loop: this request can never fit.
            return Err(SubmitError::RequestTooLarge {
                ops: n_ops,
                capacity: self.cfg.queue_capacity,
            });
        }
        if q.q.len() + n_ops > self.cfg.queue_capacity {
            q.overloaded += 1;
            return Err(SubmitError::Overloaded { depth: q.q.len() });
        }
        let (ops, deadline, min_seq) = make();
        debug_assert_eq!(ops.len(), n_ops, "make() must produce the admitted op count");
        q.group_counter += 1;
        let group = q.group_counter;
        // A deadline too long to represent never expires.
        let deadline = deadline.and_then(|d| now.checked_add(d));
        for op in ops {
            q.q.push_back(Pending { op, submitted: now, deadline, min_seq, group });
        }
        q.submitted += n_ops as u64;
        self.arrived.notify_all();
        Ok(())
    }

    /// Ask the core to stop, `Draining` or `Rejecting`. Idempotent: only
    /// a `Running` core changes mode.
    pub fn begin_stop(&self, mode: Mode) {
        let mut q = self.queue.lock();
        if q.mode == Mode::Running {
            q.mode = mode;
        }
        self.arrived.notify_all();
    }

    /// A read sub-batch was sent (see "When a window fires").
    pub fn read_sent(&self) {
        self.queue.lock().in_flight += 1;
    }

    /// A read sub-batch settled; the last one wakes a held window.
    pub fn read_settled(&self) {
        let mut q = self.queue.lock();
        q.in_flight -= 1;
        if q.in_flight == 0 {
            self.arrived.notify_all();
        }
    }

    /// Block until there is something to do and say what: a carved
    /// window to dispatch, or a shutdown.
    pub fn next_window(&self) -> Window<O> {
        let mut q = self.queue.lock();
        loop {
            match q.mode {
                Mode::Rejecting => {
                    return Window::Shutdown { rejected: q.q.drain(..).collect() };
                }
                Mode::Draining => {
                    if q.q.is_empty() {
                        return Window::Shutdown { rejected: Vec::new() };
                    }
                    break; // dispatch immediately, no delay window
                }
                Mode::Running => {
                    let Some(front) = q.q.front() else {
                        q = self.arrived.wait(q);
                        continue;
                    };
                    if q.in_flight == 0 || q.q.len() >= self.cfg.max_batch {
                        break;
                    }
                    // `None`: a delay too long to represent never fires.
                    let dispatch_at = front.submitted.checked_add(self.cfg.max_delay);
                    q = match dispatch_at.map(|at| at.saturating_duration_since(Instant::now())) {
                        Some(Duration::ZERO) => break,
                        Some(wait) => self.arrived.wait_timeout(q, wait).0,
                        None => self.arrived.wait(q),
                    };
                }
            }
        }
        let (batch, expired) = carve(&mut q.q, self.cfg.max_batch);
        Window::Dispatch { batch, expired }
    }
}

/// Pop the dispatchable prefix of the queue. See the carve invariants
/// in the module docs — this function is their single definition.
pub(crate) fn carve<O: Queued>(
    q: &mut VecDeque<Pending<O>>,
    max_batch: usize,
) -> (Vec<Pending<O>>, Vec<Pending<O>>) {
    let now = Instant::now();
    let mut expired = Vec::new();
    let mut batch: Vec<Pending<O>> = Vec::new();
    let mut window_kind: Option<Kind> = None;
    let mut last_group: Option<u64> = None;
    // Peek to decide, then pop the op the decision was made about — the
    // structure keeps every pop statically infallible (no unwrap).
    loop {
        let is_dead = {
            let Some(front) = q.front() else { break };
            if front.deadline.is_some_and(|d| d <= now) {
                true
            } else {
                if batch.len() >= max_batch && last_group != Some(front.group) {
                    break;
                }
                let k = front.op.kind();
                if *window_kind.get_or_insert(k) != k {
                    break;
                }
                last_group = Some(front.group);
                false
            }
        };
        let Some(p) = q.pop_front() else { break };
        if is_dead {
            expired.push(p);
            continue;
        }
        batch.push(p);
        if window_kind == Some(Kind::Exclusive) {
            break;
        }
    }
    (batch, expired)
}

/// The `AtLeast` consistency gate, judged at dispatch time: partition a
/// carved window into the ops that may dispatch and the reads whose
/// bound the store has not yet committed (fail those with
/// `ServiceError::Consistency`). Writes pass unconditionally — a write
/// observes nothing.
pub(crate) fn gate_reads<O: Queued>(
    batch: Vec<Pending<O>>,
    committed: u64,
) -> (Vec<Pending<O>>, Vec<Pending<O>>) {
    batch
        .into_iter()
        .partition(|p| p.op.kind() != Kind::Read || p.min_seq.is_none_or(|s| s < committed))
}
