//! The simulated multicomputer and its persistent SPMD executor.
//!
//! # The executor
//!
//! A [`Machine`] owns `p - 1` worker threads created **once** at
//! [`Machine::new`] and reused by every [`run`](Machine::run) /
//! [`try_run`](Machine::try_run) until the machine is dropped. Worker `i`
//! executes processor `i`'s program text for its whole lifetime, and the
//! thread that submits a run executes rank 0. A run is two rendezvous of
//! all `p` threads: the submitter publishes the program, passes the
//! **start** rendezvous, runs rank 0 and passes the **end** rendezvous,
//! after which no worker touches the program. Both are waits on a second
//! instance of the fabric's spin-then-park barrier, under the same spin
//! rule, that a cancelled run never releases. At `p = 1` there are no
//! workers and a rendezvous is one atomic increment. Runs are serialised
//! by an internal gate, so a `Machine` can be shared freely.
//!
//! # What a superstep costs on the host
//!
//! A collective is one exchange: every rank deposits one message per
//! destination into a `[parity][dst][src]` slot matrix, all ranks meet at
//! **one** barrier, and every rank drains its column. Consecutive
//! supersteps alternate the parity, so no second barrier is needed to
//! keep a fast rank's next deposits apart from a slow rank's pending
//! drain. The barrier spins for a few tens of microseconds before it
//! parks the thread, and parks at once when `p` exceeds the host's
//! hardware parallelism (a spinning rank would only hold the core the
//! awaited rank needs). The `mailbox` module documents both.
//!
//! None of this is the paper's cost. The model's costs are what
//! [`RunStats`] meters: supersteps, and words per h-relation as reported
//! by [`Payload::words`](crate::Payload::words), which is the serialized
//! size of a message on a real interconnect. The simulator's transport
//! is shared memory: buckets and `Arc`-shared payloads move by pointer
//! and are still charged in full.
//!
//! # The `try_run` / `run` contract
//!
//! [`try_run`](Machine::try_run) is the fallible entry point: a panic in
//! any simulated processor cancels the fabric (releasing siblings blocked
//! in a collective), resets it, and surfaces
//! [`CgmError::ProcessorPanicked`] — the machine remains usable for
//! subsequent runs. [`run`](Machine::run) delegates to `try_run` and
//! panics with the original processor's message, preserving the
//! historical "simulated processor panicked" behaviour for infallible
//! call sites.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::ctx::Ctx;
use crate::error::CgmError;
use crate::lock;
use crate::mailbox::{spin_budget, CancellableBarrier, Fabric, FabricCancelled};
use crate::stats::{RunStats, StatsCollector};

/// One submitted SPMD program, its lifetime erased for the workers (see
/// the SAFETY argument in [`Machine::try_run`]).
type Task = &'static (dyn Fn(usize) + Sync);

/// What the submitting thread shares with the workers.
struct Shared {
    /// The current run's program, `None` between runs; a start
    /// rendezvous without one tells the workers to exit.
    task: Mutex<Option<Task>>,
    /// Every run's start and end rendezvous. Nothing cancels it.
    barrier: CancellableBarrier,
    p: usize,
}

impl Shared {
    /// Meet the machine's other `p - 1` threads.
    fn rendezvous(&self) {
        let met = self.barrier.wait(self.p);
        debug_assert!(met.is_ok(), "nothing cancels the run barrier");
    }
}

thread_local! {
    /// True while this thread is executing a simulated processor's
    /// program text, as a worker or as the submitter running rank 0.
    /// Guards against nested submissions, which would deadlock silently:
    /// every thread of the machine is already running the outer program.
    static IN_SPMD_PROGRAM: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker_loop(rank: usize, shared: &Shared) {
    loop {
        shared.rendezvous();
        let Some(task) = *lock(&shared.task) else { return };
        task(rank);
        shared.rendezvous();
    }
}

/// A `CGM(s, p)` machine: `p` processors with private memory, executing
/// SPMD programs as alternating local computation and collective
/// communication supersteps.
///
/// The processor count must be a power of two: the hat of the distributed
/// range tree consists of the top `log p` levels of each constituent
/// segment tree, so `log p` must be integral (the paper makes the same
/// assumption implicitly by writing `log n - log p`).
///
/// The machine owns `p - 1` rank-pinned worker threads and a persistent
/// exchange fabric, both created once and reused by every
/// [`run`](Machine::run); the submitting thread is rank 0, and a run
/// costs two rendezvous, not `p` thread spawns (the module-level comments
/// above describe the executor and the `try_run`/`run` contract).
/// Collective statistics accumulate across runs until
/// [`take_stats`](Machine::take_stats) is called.
pub struct Machine {
    p: usize,
    fabric: Fabric,
    collector: StatsCollector,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serialises concurrent `run` calls onto the one set of workers.
    run_gate: Mutex<()>,
    stats: Mutex<RunStats>,
}

impl Machine {
    /// Create a machine with `p` processors: the submitting thread and
    /// `p - 1` workers.
    pub fn new(p: usize) -> Result<Self, CgmError> {
        if p == 0 {
            return Err(CgmError::NoProcessors);
        }
        if !p.is_power_of_two() {
            return Err(CgmError::ProcessorCountNotPowerOfTwo(p));
        }
        let shared = Arc::new(Shared {
            task: Mutex::new(None),
            barrier: CancellableBarrier::new(spin_budget(p)),
            p,
        });
        let workers = (1..p)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cgm-worker-{rank}"))
                    .spawn(move || worker_loop(rank, &shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        Ok(Machine {
            p,
            fabric: Fabric::new(p),
            collector: StatsCollector::new(),
            shared,
            workers,
            run_gate: Mutex::new(()),
            stats: Mutex::new(RunStats::default()),
        })
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Execute an SPMD program on all `p` processors and return the
    /// per-processor results in rank order; the fallible counterpart of
    /// [`run`](Machine::run).
    ///
    /// The closure must be *superstep-aligned*: every processor must call
    /// the same sequence of collectives (the usual SPMD contract; violations
    /// are detected as mailbox type mismatches or deadlocks).
    ///
    /// If any simulated processor panics, the fabric is cancelled so that
    /// sibling processors blocked in a collective unwind instead of
    /// deadlocking, the partial statistics of the failed run are
    /// discarded, and [`CgmError::ProcessorPanicked`] is returned carrying
    /// the lowest originating rank and its panic message. The machine
    /// (workers, fabric, accumulated statistics of *previous* runs)
    /// remains fully usable afterwards.
    ///
    /// Submitting from *inside* a running SPMD program (nested `run` on
    /// any `Machine` from a program closure) is not supported: every
    /// thread of the machine is pinned to the first program, the caller
    /// included. Nested submissions are detected and panic immediately
    /// (so the outer `try_run` reports a `ProcessorPanicked` with a clear
    /// message) instead of deadlocking.
    pub fn try_run<F, R>(&self, program: F) -> Result<Vec<R>, CgmError>
    where
        F: Fn(&mut Ctx<'_>) -> R + Sync,
        R: Send,
    {
        IN_SPMD_PROGRAM.with(|flag| {
            assert!(
                !flag.get(),
                "nested Machine::run: submitting an SPMD program from inside a running \
                 SPMD program is not supported (the machine's threads are occupied); restructure \
                 the outer program to return before submitting again"
            );
        });
        let _gate = lock(&self.run_gate);
        let p = self.p;
        type PanicPayload = Box<dyn std::any::Any + Send + 'static>;
        let slots: Vec<Mutex<Option<Result<R, PanicPayload>>>> =
            (0..p).map(|_| Mutex::new(None)).collect();

        let task = |rank: usize| {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                IN_SPMD_PROGRAM.with(|flag| flag.set(true));
                let mut ctx = Ctx::new(rank, p, &self.fabric, &self.collector);
                program(&mut ctx)
            }));
            IN_SPMD_PROGRAM.with(|flag| flag.set(false));
            if outcome.is_err() {
                // Release siblings blocked in a collective before they can
                // deadlock waiting for this processor.
                self.fabric.cancel();
            }
            *lock(&slots[rank]) = Some(outcome);
        };

        let erased: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: workers call the task only between the two rendezvous
        // below, and this call passes the end one before it returns. The
        // task catches every unwind, so nothing between them skips it, and
        // nothing cancels the run barrier, so a failed run does not release
        // it early. The task is cleared before `task` goes out of scope.
        let erased: Task = unsafe { std::mem::transmute(erased) };
        *lock(&self.shared.task) = Some(erased);
        self.shared.rendezvous();
        task(0);
        self.shared.rendezvous();
        *lock(&self.shared.task) = None;

        let mut results: Vec<R> = Vec::with_capacity(p);
        let mut origin: Option<(usize, String)> = None;
        for (rank, slot) in slots.iter().enumerate() {
            match lock(slot).take().expect("a rank finished without reporting") {
                Ok(r) => results.push(r),
                Err(payload) => {
                    // Cancellation sentinels are secondary casualties of
                    // the originating panic; report only the origin.
                    if payload.downcast_ref::<FabricCancelled>().is_none() && origin.is_none() {
                        origin = Some((rank, panic_message(&*payload)));
                    }
                }
            }
        }

        if let Some((rank, payload)) = origin {
            self.fabric.reset();
            self.collector.clear();
            return Err(CgmError::ProcessorPanicked { rank, payload });
        }
        debug_assert_eq!(results.len(), p, "no origin panic but results are missing");
        if !self.fabric.ranks_aligned() {
            // A rank paired an exchange with a sibling's bare barrier:
            // nobody hung, but the ranks now disagree on the mailbox
            // parity, and the next run would read the wrong half.
            self.fabric.reset();
            self.collector.clear();
            panic!("SPMD processors diverged: ranks completed different numbers of collectives");
        }

        {
            let mut stats = lock(&self.stats);
            stats.rounds.extend(self.collector.take_rounds());
            stats.timeline.extend(self.collector.take_timeline());
            stats.runs += 1;
        }
        Ok(results)
    }

    /// Execute an SPMD program on all `p` processors and return the
    /// per-processor results in rank order.
    ///
    /// Delegates to [`try_run`](Machine::try_run) and panics with the
    /// original processor's message if the program panicked.
    ///
    /// # Panics
    /// Panics (`"simulated processor panicked: …"`) when any simulated
    /// processor panics; use `try_run` to handle the failure instead.
    pub fn run<F, R>(&self, program: F) -> Vec<R>
    where
        F: Fn(&mut Ctx<'_>) -> R + Sync,
        R: Send,
    {
        unwrap_run(self.try_run(program))
    }

    /// Snapshot the accumulated statistics without clearing them.
    pub fn stats(&self) -> RunStats {
        lock(&self.stats).clone()
    }

    /// Take and reset the accumulated statistics.
    pub fn take_stats(&self) -> RunStats {
        std::mem::take(&mut *lock(&self.stats))
    }
}

/// The infallible half of the [`Machine::run`] / [`Machine::try_run`]
/// contract, for any layer that offers both: unwrap a fallible run's
/// result, panicking with the error's own text (for a failed program
/// that is `"simulated processor panicked: rank r: <its message>"`).
pub fn unwrap_run<R>(outcome: Result<R, CgmError>) -> R {
    outcome.unwrap_or_else(|e| panic!("{e}"))
}

/// Render a panic payload: the conventional `String` / `&str` payloads
/// verbatim, anything else as a placeholder. Public so the layers that
/// contain panics around machine use (the service scheduler, the shard
/// workers) report them with one shared rule.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        // No run is in flight: every worker waits at a start rendezvous,
        // and the task is `None`, which tells it to exit.
        self.shared.rendezvous();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine").field("p", &self.p).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_processor_counts() {
        assert!(matches!(Machine::new(0), Err(CgmError::NoProcessors)));
        assert!(matches!(Machine::new(3), Err(CgmError::ProcessorCountNotPowerOfTwo(3))));
        assert!(Machine::new(1).is_ok());
        assert!(Machine::new(16).is_ok());
    }

    #[test]
    fn run_returns_results_in_rank_order() {
        let m = Machine::new(8).unwrap();
        let out = m.run(|ctx| ctx.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let m = Machine::new(2).unwrap();
        m.run(|ctx| ctx.all_reduce_sum(1));
        let s1 = m.stats();
        assert!(s1.supersteps() >= 1);
        m.run(|ctx| ctx.all_reduce_sum(1));
        let s2 = m.take_stats();
        assert_eq!(s2.supersteps(), 2 * s1.supersteps());
        assert_eq!(m.stats().supersteps(), 0);
    }

    #[test]
    fn timeline_covers_every_rank_when_recording_is_compiled_in() {
        let m = Machine::new(2).unwrap();
        m.run(|ctx| ctx.all_reduce_sum(1u64));
        let stats = m.take_stats();
        if !ddrs_trace::enabled() {
            assert!(stats.timeline.is_empty(), "no recording, no timeline");
            return;
        }
        assert!(!stats.timeline.is_empty());
        for rank in 0..2 {
            let steps: Vec<_> = stats.timeline.iter().filter(|s| s.rank == rank).collect();
            assert_eq!(steps.len(), stats.supersteps(), "one step per rank per superstep");
        }
        // Failed runs contribute no timeline either.
        let _ = m.try_run::<_, ()>(|_ctx| panic!("boom"));
        assert!(m.take_stats().timeline.is_empty());
    }

    #[test]
    fn pool_is_reused_across_many_runs() {
        let m = Machine::new(4).unwrap();
        for i in 0..200u64 {
            let out = m.run(|ctx| ctx.all_reduce_sum(i + ctx.rank() as u64));
            assert!(out.iter().all(|&s| s == 4 * i + 6));
        }
        assert_eq!(m.take_stats().runs, 200);
    }

    #[test]
    fn try_run_surfaces_processor_panic_and_machine_survives() {
        let m = Machine::new(4).unwrap();
        let err = m
            .try_run(|ctx| {
                // Rank 2 dies mid-superstep; everyone else blocks in the
                // collective and must be released by cancellation.
                if ctx.rank() == 2 {
                    panic!("boom at rank 2");
                }
                ctx.all_reduce_sum(1)
            })
            .unwrap_err();
        match err {
            CgmError::ProcessorPanicked { rank, payload } => {
                assert_eq!(rank, 2);
                assert!(payload.contains("boom at rank 2"), "payload: {payload}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // Failed runs contribute no statistics…
        assert_eq!(m.stats().supersteps(), 0);
        assert_eq!(m.stats().runs, 0);
        // …and the machine stays fully usable.
        let out = m.run(|ctx| ctx.all_reduce_sum(1));
        assert_eq!(out, vec![4, 4, 4, 4]);
        assert_eq!(m.stats().runs, 1);
    }

    #[test]
    fn try_run_reports_lowest_originating_rank() {
        let m = Machine::new(4).unwrap();
        let err = m.try_run::<_, ()>(|_ctx| panic!("all ranks die")).unwrap_err();
        assert!(matches!(err, CgmError::ProcessorPanicked { rank: 0, .. }), "{err:?}");
    }

    #[test]
    fn try_run_panic_on_single_processor_machine() {
        let m = Machine::new(1).unwrap();
        let err = m.try_run::<_, ()>(|_ctx| panic!("solo")).unwrap_err();
        assert!(matches!(err, CgmError::ProcessorPanicked { rank: 0, .. }), "{err:?}");
        assert_eq!(m.run(|ctx| ctx.rank()), vec![0]);
    }

    #[test]
    fn run_panics_with_the_original_message() {
        let m = Machine::new(2).unwrap();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            m.run::<_, ()>(|ctx| {
                if ctx.rank() == 1 {
                    panic!("custom failure detail");
                }
                ctx.barrier();
            })
        }))
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("simulated processor panicked"), "msg: {msg}");
        assert!(msg.contains("custom failure detail"), "msg: {msg}");
    }

    #[test]
    fn nested_run_is_detected_not_deadlocked() {
        let m = Machine::new(2).unwrap();
        let err = m
            .try_run(|_ctx| {
                // Submitting from inside a program must fail fast with a
                // clear message, not hang the pool.
                m.run(|ctx| ctx.rank());
            })
            .unwrap_err();
        match err {
            CgmError::ProcessorPanicked { payload, .. } => {
                assert!(payload.contains("nested Machine::run"), "payload: {payload}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // And the machine still works.
        assert_eq!(m.run(|ctx| ctx.rank()), vec![0, 1]);
    }

    #[test]
    fn concurrent_runs_are_serialised() {
        let m = Machine::new(2).unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let m = &m;
                    s.spawn(move || {
                        for _ in 0..25 {
                            let out = m.run(|ctx| ctx.all_reduce_sum(1));
                            assert_eq!(out, vec![2, 2]);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(m.take_stats().runs, 100);
    }

    #[test]
    fn rank_zero_runs_on_the_submitting_thread() {
        for p in [2, 4] {
            let m = Machine::new(p).unwrap();
            let ids = m.run(|_ctx| std::thread::current().id());
            assert_eq!(ids[0], std::thread::current().id(), "p = {p}");
            for (rank, id) in ids.iter().enumerate().skip(1) {
                assert!(!ids[..rank].contains(id), "p = {p}: rank {rank} shares a thread");
            }
        }
    }

    #[test]
    fn a_panic_on_the_submitting_rank_is_contained() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for p in [2, 4] {
            let m = Machine::new(p).unwrap();
            let entering = AtomicUsize::new(0);
            let err = m
                .try_run(|ctx| {
                    if ctx.rank() == 0 {
                        while entering.load(Ordering::SeqCst) < p - 1 {
                            std::thread::yield_now();
                        }
                        panic!("boom at rank 0");
                    }
                    entering.fetch_add(1, Ordering::SeqCst);
                    ctx.all_reduce_sum(1)
                })
                .unwrap_err();
            assert!(matches!(err, CgmError::ProcessorPanicked { rank: 0, .. }), "p = {p}: {err:?}");
            assert_eq!(m.run(|ctx| ctx.all_reduce_sum(1)), vec![p as u64; p]);
        }
    }

    #[test]
    fn dropping_an_idle_or_a_failed_machine_returns() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, dropped) = channel();
        let dropper = std::thread::spawn(move || {
            drop(Machine::new(8).unwrap());
            let m = Machine::new(8).unwrap();
            let failed = m.try_run(|ctx| {
                if ctx.rank() == 5 {
                    panic!("the last run fails");
                }
                ctx.barrier();
            });
            drop(m);
            let _ = done.send(());
            failed.is_err()
        });
        let waited = dropped.recv_timeout(std::time::Duration::from_secs(30));
        assert_ne!(waited, Err(RecvTimeoutError::Timeout), "dropping a machine hung");
        assert!(dropper.join().unwrap(), "the last run failed");
    }
}
