//! # ddrs-sched — the shared group-commit scheduler core
//!
//! The `ddrs-shard` router coalesces client requests with a bounded
//! FIFO of pending ops, admission control, `max_batch`/`max_delay`
//! window firing, deadline expiry in the queue, a carve that pops the
//! dispatchable prefix, and an `AtLeast` consistency gate judged at
//! dispatch time. This crate is that policy: everything about *when* and
//! *what* to dispatch lives in [`SchedCore`]; the router keeps only how
//! a carved window is *executed* (per-shard scatter-gather).
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
//! 2. **Same-kind runs.** A window contains ops of exactly one kind
//!    (as classified by the caller's `kind` function): reads coalesce
//!    only with reads, writes only with writes. The first op's kind
//!    decides the window's kind.
//! 3. **Groups never split.** All ops admitted by one `submit_ops` call
//!    share a group id, and a contiguous same-kind run of one group is
//!    never split across windows — even when that overflows `max_batch`.
//!    This is what makes the client contract's "a request's reads fuse
//!    into one dispatch" guarantee unconditional.
//! 4. **Exclusive kinds dispatch alone.** A kind the caller marks
//!    `exclusive` (the shard router's split command) terminates its
//!    window immediately: one exclusive op per window.
//! 5. **`max_batch` is a target, not a limit.** The cap stops the carve
//!    between groups; invariant 3 means a single oversized group can
//!    exceed it.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ddrs_check::{TrackedCondvar, TrackedMutex};

pub use ddrs_client::SubmitError;

/// Tuning knobs of the scheduler core. The router builds this from its
/// public config type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Fire a window as soon as this many ops are pending. Must be ≥ 1.
    pub max_batch: usize,
    /// Fire once the oldest pending op has waited this long.
    pub max_delay: Duration,
    /// Admission bound: submissions beyond this queue depth are rejected
    /// with [`SubmitError::Overloaded`]; a single request carrying more
    /// ops than the whole capacity is rejected with the permanent
    /// [`SubmitError::RequestTooLarge`]. Must be ≥ 1.
    pub queue_capacity: usize,
}

/// One op as it sits in the pending queue: the front-end's op payload
/// plus the queueing metadata the core schedules by.
pub struct Pending<O> {
    /// The front-end's op (the shard router wraps the client contract's
    /// `PlannedOp` to add its split and recover commands).
    pub op: O,
    /// When the op was admitted (latency accounting).
    pub submitted: Instant,
    /// Queue deadline: if still pending past this instant, the op is
    /// expired by the next carve instead of dispatched.
    pub deadline: Option<Instant>,
    /// Consistency bound: minimum commits the store must have performed
    /// when this op dispatches (`Consistency::AtLeast`).
    pub min_seq: Option<u64>,
    /// Ops of one `submit_ops` call share a group id; see the carve
    /// invariants in the crate docs.
    pub group: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Running,
    Draining,
    Rejecting,
}

/// How to stop: serve what is already queued, or reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopMode {
    /// Serve everything already queued, then stop.
    Drain,
    /// Reject everything already queued, then stop.
    Reject,
}

/// What the scheduler thread should do next, as decided by
/// [`SchedCore::next_window`].
pub enum Window<O> {
    /// Execute this window. `expired` are the requests whose deadline
    /// passed in the queue — fail them with `DeadlineExpired`, they
    /// never reach a machine. `batch` may be empty (everything expired).
    Dispatch {
        /// The carved same-kind run to execute.
        batch: Vec<Pending<O>>,
        /// Requests that expired while queued.
        expired: Vec<Pending<O>>,
    },
    /// Stop serving. `rejected` holds whatever was still queued (empty
    /// on a drained exit) — fail them with `ShuttingDown`.
    Shutdown {
        /// Ops still queued at stop time.
        rejected: Vec<Pending<O>>,
    },
}

struct SchedQueue<O> {
    q: VecDeque<Pending<O>>,
    mode: Mode,
    /// Source of request group ids (see [`Pending::group`]).
    group_counter: u64,
}

/// The shared scheduler state: one bounded pending queue, its mode, and
/// the condvar the scheduler thread sleeps on.
///
/// The queue lock is a [`TrackedMutex`] under the class `sched.queue` —
/// the outermost class of the stack's canonical lock order (the
/// admission callbacks of [`submit_ops`](SchedCore::submit_ops) take
/// the front-end's `stats` lock while it is held).
pub struct SchedCore<O> {
    cfg: SchedConfig,
    queue: TrackedMutex<SchedQueue<O>>,
    arrived: TrackedCondvar,
}

impl<O> SchedCore<O> {
    /// Build a core.
    ///
    /// # Panics
    /// Panics if `max_batch` or `queue_capacity` is zero.
    pub fn new(cfg: SchedConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_capacity >= 1, "queue_capacity must be at least 1");
        SchedCore {
            cfg,
            queue: TrackedMutex::new(
                "sched.queue",
                SchedQueue { q: VecDeque::new(), mode: Mode::Running, group_counter: 0 },
            ),
            arrived: TrackedCondvar::new(),
        }
    }

    /// The configuration this core was built with.
    pub fn cfg(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Current queue depth (for telemetry snapshots).
    pub fn depth(&self) -> usize {
        self.queue.lock().q.len()
    }

    /// Admit one request's ops all-or-nothing: either every op is
    /// enqueued contiguously under one fresh group id, or nothing is.
    ///
    /// `make` lowers the request into `(ops, deadline, min_seq)` only
    /// once admission is certain, so a rejection never pays for (and
    /// then tears down) per-op resolver plumbing. It runs under the
    /// queue lock and must not take locks that can be held while this
    /// core is used. `on_admitted` / `on_overloaded` run under the same
    /// lock so the front-end's submission counters order consistently
    /// with completion counters (`submitted ≥ completed` holds in every
    /// telemetry snapshot).
    pub fn submit_ops(
        &self,
        n_ops: usize,
        make: impl FnOnce() -> (Vec<O>, Option<Duration>, Option<u64>),
        on_admitted: impl FnOnce(),
        on_overloaded: impl FnOnce(),
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
            let depth = q.q.len();
            on_overloaded();
            return Err(SubmitError::Overloaded { depth });
        }
        let (ops, deadline, min_seq) = make();
        debug_assert_eq!(ops.len(), n_ops, "make() must produce the admitted op count");
        q.group_counter += 1;
        let group = q.group_counter;
        let deadline = deadline.map(|d| now + d);
        for op in ops {
            q.q.push_back(Pending { op, submitted: now, deadline, min_seq, group });
        }
        self.arrived.notify_all();
        on_admitted();
        Ok(())
    }

    /// Ask the core to stop. Idempotent: only a `Running` core changes
    /// mode.
    pub fn begin_stop(&self, mode: StopMode) {
        let mut q = self.queue.lock();
        if q.mode == Mode::Running {
            q.mode = match mode {
                StopMode::Drain => Mode::Draining,
                StopMode::Reject => Mode::Rejecting,
            };
        }
        self.arrived.notify_all();
    }

    /// Block until there is something to do and say what: a carved
    /// window to dispatch, or a shutdown.
    ///
    /// `kind` classifies ops into windows (invariant 2 of the carve);
    /// `exclusive` marks kinds that dispatch alone (invariant 4).
    pub fn next_window<K: PartialEq>(
        &self,
        kind: impl Fn(&O) -> K,
        exclusive: impl Fn(&K) -> bool,
    ) -> Window<O> {
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
                    if q.q.len() >= self.cfg.max_batch {
                        break;
                    }
                    let dispatch_at = front.submitted + self.cfg.max_delay;
                    let now = Instant::now();
                    if now >= dispatch_at {
                        break;
                    }
                    q = self.arrived.wait_timeout(q, dispatch_at - now).0;
                }
            }
        }
        let (batch, expired) = carve(&mut q.q, self.cfg.max_batch, kind, exclusive);
        Window::Dispatch { batch, expired }
    }
}

impl<O> std::fmt::Debug for SchedCore<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedCore").field("cfg", &self.cfg).field("depth", &self.depth()).finish()
    }
}

/// Pop the dispatchable prefix of the queue. See the carve invariants
/// in the crate docs — this function is their single definition.
pub fn carve<O, K: PartialEq>(
    q: &mut VecDeque<Pending<O>>,
    max_batch: usize,
    kind: impl Fn(&O) -> K,
    exclusive: impl Fn(&K) -> bool,
) -> (Vec<Pending<O>>, Vec<Pending<O>>) {
    let now = Instant::now();
    let mut expired = Vec::new();
    let mut batch: Vec<Pending<O>> = Vec::new();
    let mut window_kind: Option<K> = None;
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
                let k = kind(&front.op);
                match &window_kind {
                    None => window_kind = Some(k),
                    Some(prev) if *prev != k => break,
                    _ => {}
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
        if window_kind.as_ref().is_some_and(&exclusive) {
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
pub fn gate_reads<O>(
    batch: Vec<Pending<O>>,
    committed: u64,
    is_read: impl Fn(&O) -> bool,
) -> (Vec<Pending<O>>, Vec<Pending<O>>) {
    batch.into_iter().partition(|p| !is_read(&p.op) || p.min_seq.is_none_or(|s| s < committed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pend(op: u8, group: u64) -> Pending<u8> {
        Pending { op, submitted: Instant::now(), deadline: None, min_seq: None, group }
    }

    fn carve_kinds(q: &mut VecDeque<Pending<u8>>, max_batch: usize) -> (Vec<u8>, usize) {
        // Kind = op value; ops >= 100 are exclusive.
        let (batch, expired) = carve(q, max_batch, |op| *op, |k| *k >= 100);
        (batch.into_iter().map(|p| p.op).collect(), expired.len())
    }

    #[test]
    fn carve_pops_same_kind_prefix() {
        let mut q: VecDeque<Pending<u8>> =
            [pend(1, 1), pend(1, 2), pend(2, 3), pend(1, 4)].into_iter().collect();
        assert_eq!(carve_kinds(&mut q, 64), (vec![1, 1], 0));
        assert_eq!(carve_kinds(&mut q, 64), (vec![2], 0));
        assert_eq!(carve_kinds(&mut q, 64), (vec![1], 0));
    }

    #[test]
    fn carve_never_splits_a_group_past_the_cap() {
        // Group 7 holds three ops; the cap of 2 must not split it.
        let mut q: VecDeque<Pending<u8>> =
            [pend(1, 7), pend(1, 7), pend(1, 7), pend(1, 8)].into_iter().collect();
        assert_eq!(carve_kinds(&mut q, 2), (vec![1, 1, 1], 0));
        assert_eq!(carve_kinds(&mut q, 2), (vec![1], 0));
    }

    #[test]
    fn carve_exclusive_kind_dispatches_alone() {
        let mut q: VecDeque<Pending<u8>> =
            [pend(100, 1), pend(100, 2), pend(1, 3)].into_iter().collect();
        assert_eq!(carve_kinds(&mut q, 64), (vec![100], 0));
        assert_eq!(carve_kinds(&mut q, 64), (vec![100], 0));
        assert_eq!(carve_kinds(&mut q, 64), (vec![1], 0));
    }

    #[test]
    fn carve_expires_dead_requests_first() {
        let mut q: VecDeque<Pending<u8>> = VecDeque::new();
        let mut dead = pend(1, 1);
        dead.deadline = Some(Instant::now() - Duration::from_millis(1));
        q.push_back(dead);
        q.push_back(pend(2, 2));
        let (batch, expired) = carve_kinds(&mut q, 64);
        assert_eq!((batch, expired), (vec![2], 1));
    }

    #[test]
    fn admission_is_all_or_nothing() {
        let core: SchedCore<u8> = SchedCore::new(SchedConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_capacity: 4,
        });
        assert!(core.submit_ops(3, || (vec![1, 2, 3], None, None), || (), || ()).is_ok());
        match core.submit_ops(2, || unreachable!("rejected: must not lower"), || (), || ()) {
            Err(SubmitError::Overloaded { depth }) => assert_eq!(depth, 3),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        match core.submit_ops(5, || unreachable!(), || (), || ()) {
            Err(SubmitError::RequestTooLarge { ops: 5, capacity: 4 }) => {}
            other => panic!("expected RequestTooLarge, got {other:?}"),
        }
        assert_eq!(core.depth(), 3);
    }

    #[test]
    fn stopped_core_rejects_submissions_and_reports_pending() {
        let core: SchedCore<u8> = SchedCore::new(SchedConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_capacity: 8,
        });
        core.submit_ops(2, || (vec![1, 2], None, None), || (), || ()).unwrap();
        core.begin_stop(StopMode::Reject);
        assert!(matches!(
            core.submit_ops(1, || unreachable!(), || (), || ()),
            Err(SubmitError::ShutDown)
        ));
        match core.next_window(|op| *op, |_| false) {
            Window::Shutdown { rejected } => assert_eq!(rejected.len(), 2),
            Window::Dispatch { .. } => panic!("expected shutdown"),
        }
    }

    #[test]
    fn gate_fails_only_unmet_reads() {
        // Reads are odd ops; committed counter is 3.
        let batch = vec![
            pend(1, 1), // read, no bound
            {
                let mut p = pend(3, 2);
                p.min_seq = Some(2); // met: 2 < 3
                p
            },
            {
                let mut p = pend(5, 3);
                p.min_seq = Some(3); // unmet: needs a 4th commit
                p
            },
            {
                let mut p = pend(2, 4);
                p.min_seq = Some(9); // write: bound ignored
                p
            },
        ];
        let (ready, unmet) = gate_reads(batch, 3, |op| op % 2 == 1);
        let ready: Vec<u8> = ready.into_iter().map(|p| p.op).collect();
        let unmet: Vec<u8> = unmet.into_iter().map(|p| p.op).collect();
        assert_eq!(ready, vec![1, 3, 2]);
        assert_eq!(unmet, vec![5]);
    }

    #[test]
    fn window_fires_on_batch_size_and_on_delay() {
        let core: SchedCore<u8> = SchedCore::new(SchedConfig {
            max_batch: 2,
            max_delay: Duration::from_secs(10),
            queue_capacity: 8,
        });
        core.submit_ops(2, || (vec![1, 1], None, None), || (), || ()).unwrap();
        match core.next_window(|op| *op, |_| false) {
            Window::Dispatch { batch, expired } => {
                assert_eq!(batch.len(), 2);
                assert!(expired.is_empty());
            }
            Window::Shutdown { .. } => panic!("expected dispatch at max_batch"),
        }
        // One op below the cap: fires only after max_delay.
        let quick: SchedCore<u8> = SchedCore::new(SchedConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            queue_capacity: 8,
        });
        quick.submit_ops(1, || (vec![1], None, None), || (), || ()).unwrap();
        let t0 = Instant::now();
        match quick.next_window(|op| *op, |_| false) {
            Window::Dispatch { batch, .. } => assert_eq!(batch.len(), 1),
            Window::Shutdown { .. } => panic!("expected dispatch after max_delay"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
