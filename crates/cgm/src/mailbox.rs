//! Type-erased mailbox slots and the superstep barrier.
//!
//! Every collective is realised as one *exchange*: each processor deposits
//! one typed message per destination, all processors synchronise on **one**
//! barrier, and each processor drains what was sent to it. Messages are
//! type-erased (`Box<dyn Any + Send>`) so one slot array serves collectives
//! of any element type; the drain side downcasts.
//!
//! # The slot matrix
//!
//! Mailboxes are a `[parity][dst][src]` matrix of slots. A slot has exactly
//! one writer (`src`, in [`Fabric::deposit`]) and one reader (`dst`, in
//! [`Fabric::drain`]), holds at most one message, and is read in source
//! order, so a drain needs neither a sort nor a shared per-destination
//! queue. Depositing into an occupied slot means two SPMD processors
//! disagree on which superstep they are in, and panics.
//!
//! # One barrier per superstep
//!
//! The parity is the low bit of the depositing / draining rank's own
//! exchange count, which is what lets a superstep be deposit → barrier →
//! drain with **no trailing barrier**: a rank that runs ahead deposits
//! round `k + 1` into the *other* parity while a slower sibling still
//! drains round `k`, and it cannot reach round `k + 2` (the same parity
//! again) before every rank has passed the round-`k + 1` barrier, which
//! each rank only reaches after draining round `k`.
//!
//! # Spin, then park
//!
//! The barrier's state is four atomics. A waiter first polls the
//! generation counter [`SPIN_BUDGET`] times — supersteps of a query batch
//! are tens of microseconds apart, far less than a futex sleep and
//! wake-up — pausing between polls and yielding its time slice every
//! [`YIELD_EVERY`]th, and only then registers as a sleeper and parks on
//! a `Condvar`. The last arriver takes the park mutex only when a sleeper
//! is registered. On a host with fewer hardware threads than `p` the
//! spin would steal the core the awaited rank needs, so the budget is 0
//! there (read once, by [`spin_budget`]) and every wait parks at once.
//! The machine starts and ends each run on a second instance of the same
//! barrier, one that nothing cancels.
//!
//! # Cancellation
//!
//! The fabric is **persistent**: one instance lives inside
//! [`Machine`](crate::Machine) for the machine's whole lifetime and is
//! reused by every run. Its barrier is *cancellable* — when a simulated
//! processor panics, [`Fabric::cancel`] releases every sibling spinning or
//! parked in [`Fabric::sync`] (they unwind with the [`FabricCancelled`]
//! sentinel instead of deadlocking), and [`Fabric::reset`] restores the
//! fabric to a clean state for the next run.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::lock;

type AnyMsg = Box<dyn Any + Send>;

/// Panic payload used to unwind processors out of a cancelled barrier.
///
/// When one simulated processor panics, its siblings may be blocked in a
/// collective waiting for it; [`Fabric::cancel`] wakes them and they
/// unwind carrying this sentinel. [`Machine::try_run`](crate::Machine::try_run)
/// recognises the sentinel and reports only the *originating* panic.
pub(crate) struct FabricCancelled;

/// How many times a waiter polls the barrier generation before it parks.
/// About 70 µs on the 2.1 GHz reference host: longer than the gap between
/// two supersteps of a query batch, shorter than a scheduler quantum.
const SPIN_BUDGET: u32 = 4_000;

/// Every so many polls the waiter gives up its time slice instead of
/// pausing. When the scheduler has queued the awaited rank behind the
/// spinner on one core (measured: in up to 85 % of sampled runs on the
/// 2-vCPU reference host, because an idle core's load balancer does not
/// look at sub-millisecond idle periods), the awaited rank runs after a
/// microsecond instead of after the whole budget; when it has not, the
/// yield returns at once.
const YIELD_EVERY: u32 = 64;

/// A reusable, cancellable rendezvous barrier (sense-reversing via a
/// generation counter) that spins before it parks. `std::sync::Barrier`
/// cannot be cancelled, which would leave sibling threads deadlocked when
/// one SPMD processor panics mid-collective.
///
/// The wake-up protocol is the classic store-then-load handshake: the
/// releaser publishes the new generation and *then* reads `sleepers`; a
/// waiter registers in `sleepers` (holding `park`) and *then* re-reads the
/// generation. Both sides use `SeqCst`, so at least one of them sees the
/// other, and a notification is sent under `park`, which a registered
/// waiter only releases inside `Condvar::wait`. `crates/cgm/tests/barrier_model.rs`
/// explores every interleaving of these steps.
pub(crate) struct CancellableBarrier {
    /// Parties that have arrived in the current generation.
    count: AtomicUsize,
    /// Completed rendezvous; a waiter leaves when it changes.
    generation: AtomicU64,
    cancelled: AtomicBool,
    /// Waiters registered to park (or parked) on `cvar`.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    cvar: Condvar,
    /// Polls of `generation` before parking.
    spin: u32,
}

impl CancellableBarrier {
    pub(crate) fn new(spin: u32) -> Self {
        CancellableBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            cvar: Condvar::new(),
            spin,
        }
    }

    /// Wait for all `p` parties. Returns `Err(())` when the barrier was
    /// cancelled (before or during the wait).
    pub(crate) fn wait(&self, p: usize) -> Result<(), ()> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Err(());
        }
        // Read before arriving: the generation cannot advance until this
        // party has arrived too.
        let gen = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == p {
            self.count.store(0, Ordering::SeqCst);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _park = lock(&self.park);
                self.cvar.notify_all();
            }
            return Ok(());
        }
        let done = || {
            self.generation.load(Ordering::SeqCst) != gen || self.cancelled.load(Ordering::SeqCst)
        };
        for i in 0..self.spin {
            if done() {
                break;
            }
            if i % YIELD_EVERY == YIELD_EVERY - 1 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        if !done() {
            let mut park = lock(&self.park);
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while !done() {
                park = self.cvar.wait(park).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
        if self.cancelled.load(Ordering::SeqCst) {
            Err(())
        } else {
            Ok(())
        }
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        let _park = lock(&self.park);
        self.cvar.notify_all();
    }

    fn reset(&self) {
        self.count.store(0, Ordering::SeqCst);
        self.cancelled.store(false, Ordering::SeqCst);
    }
}

/// The exchange fabric shared by all `p` simulated processors.
pub(crate) struct Fabric {
    /// `[parity][dst][src]`, flattened; see the module docs.
    slots: Vec<Mutex<Option<AnyMsg>>>,
    /// Per rank: exchanges drained so far. The low bit is the parity of
    /// the round the rank is depositing into / draining from. Written by
    /// that rank alone (`Relaxed`: it publishes nothing); other threads
    /// read it only between runs, ordered by the run's end rendezvous.
    rounds: Vec<AtomicUsize>,
    barrier: CancellableBarrier,
    p: usize,
}

/// The spin budget of a barrier for `p` parties: [`SPIN_BUDGET`] if this
/// host can run all `p` of them at once, 0 otherwise.
pub(crate) fn spin_budget(p: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if p > cores {
        0
    } else {
        SPIN_BUDGET
    }
}

impl Fabric {
    /// A fabric for `p` processors whose barrier spins by [`spin_budget`].
    pub(crate) fn new(p: usize) -> Self {
        Self::with_spin_budget(p, spin_budget(p))
    }

    fn with_spin_budget(p: usize, spin: u32) -> Self {
        Fabric {
            slots: (0..2 * p * p).map(|_| Mutex::new(None)).collect(),
            rounds: (0..p).map(|_| AtomicUsize::new(0)).collect(),
            barrier: CancellableBarrier::new(spin),
            p,
        }
    }

    fn slot(&self, round_of: usize, dst: usize, src: usize) -> &Mutex<Option<AnyMsg>> {
        let parity = self.rounds[round_of].load(Ordering::Relaxed) & 1;
        &self.slots[(parity * self.p + dst) * self.p + src]
    }

    /// Deposit a message from `src` for `dst`, in `src`'s current round.
    ///
    /// # Panics
    /// Panics if the slot is still occupied: the destination has not
    /// drained the round this parity last carried, so the SPMD processors
    /// have diverged.
    pub(crate) fn deposit<T: Send + 'static>(&self, src: usize, dst: usize, msg: Vec<T>) {
        let prev = lock(self.slot(src, dst, src)).replace(Box::new(msg));
        assert!(prev.is_none(), "mailbox slot {src}->{dst} occupied: SPMD processors diverged");
    }

    /// Barrier synchronisation across all processors.
    ///
    /// # Panics
    /// Panics with the [`FabricCancelled`] sentinel when the fabric has
    /// been cancelled by a sibling processor's panic, unwinding this
    /// processor out of the SPMD program instead of deadlocking it.
    pub(crate) fn sync(&self) {
        if self.barrier.wait(self.p).is_err() {
            std::panic::panic_any(FabricCancelled);
        }
    }

    /// Release every processor blocked (now or later) in [`sync`](Fabric::sync).
    /// Idempotent; called by the run harness when a processor panics.
    pub(crate) fn cancel(&self) {
        self.barrier.cancel();
    }

    /// Restore a clean state after a cancelled run: un-cancel the barrier,
    /// drop any messages a half-finished superstep left behind in either
    /// parity and realign the ranks' round counts. Must only be called
    /// when no processor is inside a collective.
    pub(crate) fn reset(&self) {
        self.barrier.reset();
        for slot in &self.slots {
            *lock(slot) = None;
        }
        for round in &self.rounds {
            round.store(0, Ordering::Relaxed);
        }
    }

    /// Whether every rank has completed the same number of exchanges, as
    /// they must have when an SPMD program returns.
    pub(crate) fn ranks_aligned(&self) -> bool {
        let first = self.rounds[0].load(Ordering::Relaxed);
        self.rounds.iter().all(|r| r.load(Ordering::Relaxed) == first)
    }

    /// Drain what was sent to `me` in its current round and advance `me`
    /// to the next: one `Vec<T>` per source rank (empty for sources that
    /// sent nothing), in source-rank order.
    ///
    /// # Panics
    /// Panics if a message has the wrong element type, which indicates a
    /// superstep protocol divergence between SPMD processors.
    pub(crate) fn drain<T: Send + 'static>(&self, me: usize, p: usize) -> Vec<Vec<T>> {
        let out = (0..p)
            .map(|src| match lock(self.slot(me, me, src)).take() {
                Some(msg) => *msg
                    .downcast::<Vec<T>>()
                    .expect("mailbox type mismatch: SPMD processors diverged"),
                None => Vec::new(),
            })
            .collect();
        self.rounds[me].fetch_add(1, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn exchange_roundtrip() {
        let p = 4;
        let fabric = Fabric::new(p);
        thread::scope(|s| {
            for me in 0..p {
                let fabric = &fabric;
                s.spawn(move || {
                    // Everyone sends `me * 10 + dst` to every dst.
                    for dst in 0..p {
                        fabric.deposit(me, dst, vec![(me * 10 + dst) as u64]);
                    }
                    fabric.sync();
                    let got = fabric.drain::<u64>(me, p);
                    fabric.sync();
                    for (src, msgs) in got.iter().enumerate() {
                        assert_eq!(msgs, &vec![(src * 10 + me) as u64]);
                    }
                });
            }
        });
    }

    #[test]
    fn barrier_is_reusable_across_rounds() {
        let p = 3;
        let fabric = Fabric::new(p);
        thread::scope(|s| {
            for _ in 0..p {
                let fabric = &fabric;
                s.spawn(move || {
                    for _ in 0..100 {
                        fabric.sync();
                    }
                });
            }
        });
    }

    #[test]
    fn cancel_releases_waiters_and_reset_restores() {
        let p = 2;
        let fabric = Fabric::new(p);
        thread::scope(|s| {
            let waiter = {
                let fabric = &fabric;
                s.spawn(move || {
                    // Only one of two parties arrives; cancel must free it.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fabric.sync()))
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(20));
            fabric.cancel();
            let unwound = waiter.join().unwrap();
            assert!(unwound.is_err(), "cancelled sync must unwind");
        });
        fabric.reset();
        // After reset the barrier works again.
        thread::scope(|s| {
            for _ in 0..p {
                let fabric = &fabric;
                s.spawn(move || fabric.sync());
            }
        });
    }

    /// Poll until `ready` holds: the tests below force their interleaving
    /// on the barrier's own state, not on a sleep.
    fn until(ready: impl Fn() -> bool) {
        while !ready() {
            std::thread::yield_now();
        }
    }

    /// One of two parties arrives at `fabric.sync()`; once `ready` holds,
    /// cancel. Returns whether the waiter unwound.
    fn cancel_a_lone_waiter(fabric: &Fabric, ready: impl Fn(&CancellableBarrier) -> bool) -> bool {
        thread::scope(|s| {
            let waiter = s.spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fabric.sync()))
            });
            until(|| ready(&fabric.barrier));
            fabric.cancel();
            waiter.join().unwrap().is_err()
        })
    }

    #[test]
    fn cancel_releases_a_waiter_that_is_still_spinning() {
        // A budget it cannot exhaust: once arrived, it spins until cancelled.
        let fabric = Fabric::with_spin_budget(2, u32::MAX);
        let arrived = |b: &CancellableBarrier| b.count.load(Ordering::SeqCst) == 1;
        assert!(cancel_a_lone_waiter(&fabric, arrived), "cancelled sync must unwind");
        assert_eq!(fabric.barrier.sleepers.load(Ordering::SeqCst), 0, "it never parked");
    }

    #[test]
    fn cancel_releases_a_waiter_that_has_parked() {
        // The second party is withheld past the (empty) budget. A waiter
        // registers under the park mutex and releases it only inside
        // `Condvar::wait`, and `cancel` notifies under that mutex, so a
        // registered sleeper is a parked one by the time it is notified.
        let fabric = Fabric::with_spin_budget(2, 0);
        let registered = |b: &CancellableBarrier| b.sleepers.load(Ordering::SeqCst) == 1;
        assert!(cancel_a_lone_waiter(&fabric, registered), "cancelled sync must unwind");
        assert_eq!(fabric.barrier.sleepers.load(Ordering::SeqCst), 0, "sleepers deregister");
        // Cancellation is sticky until reset: later arrivals unwind at once.
        assert!(fabric.barrier.wait(2).is_err());
    }

    #[test]
    fn a_parked_waiter_is_released_by_the_last_arriver() {
        for spin in [0, 8] {
            let fabric = Fabric::with_spin_budget(2, spin);
            thread::scope(|s| {
                let fabric = &fabric;
                let early = s.spawn(move || fabric.sync());
                until(|| fabric.barrier.sleepers.load(Ordering::SeqCst) == 1);
                fabric.sync();
                early.join().unwrap();
            });
            assert_eq!(fabric.barrier.sleepers.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn reset_clears_both_parities_and_realigns_rounds() {
        let p = 2;
        let fabric = Fabric::with_spin_budget(p, 0);
        // Rank 0 completes a round alone and deposits into the next one;
        // rank 1 never drains: a half-finished, misaligned pair of rounds.
        fabric.deposit(0, 1, vec![1u64]);
        fabric.deposit(1, 0, vec![2u64]);
        assert_eq!(fabric.drain::<u64>(0, p), vec![vec![], vec![2]]);
        fabric.deposit(0, 1, vec![3u64]);
        fabric.cancel();
        fabric.reset();
        // Reuse: nothing stale is delivered, in either parity.
        thread::scope(|s| {
            for me in 0..p {
                let fabric = &fabric;
                s.spawn(move || {
                    for round in 0..4u64 {
                        fabric.deposit(me, 1 - me, vec![round * 10 + me as u64]);
                        fabric.sync();
                        let got = fabric.drain::<u64>(me, p);
                        assert_eq!(got[1 - me], vec![round * 10 + (1 - me) as u64]);
                        assert!(got[me].is_empty());
                    }
                });
            }
        });
    }

    /// The property that makes the trailing barrier unnecessary: a rank
    /// one round ahead writes the other parity, so the slower rank still
    /// drains exactly its own round.
    #[test]
    fn a_rank_running_ahead_deposits_into_the_other_parity() {
        let p = 2;
        let fabric = Fabric::with_spin_budget(p, 0);
        fabric.deposit(0, 1, vec!["r0 from 0"]);
        fabric.deposit(1, 0, vec!["r0 from 1"]);
        assert_eq!(fabric.drain::<&str>(0, p)[1], vec!["r0 from 1"]);
        // Rank 0 is in round 1 now; rank 1 has not drained round 0 yet.
        fabric.deposit(0, 1, vec![1u8]);
        assert_eq!(fabric.drain::<&str>(1, p)[0], vec!["r0 from 0"]);
        fabric.deposit(1, 0, vec![2u8]);
        assert_eq!(fabric.drain::<u8>(1, p)[0], vec![1]);
        assert_eq!(fabric.drain::<u8>(0, p)[1], vec![2]);
    }

    #[test]
    #[should_panic(expected = "SPMD processors diverged")]
    fn depositing_into_an_occupied_slot_is_divergence() {
        let fabric = Fabric::with_spin_budget(2, 0);
        fabric.deposit(0, 1, vec![1u64]);
        fabric.deposit(0, 1, vec![2u64]);
    }

    #[test]
    fn the_spin_budget_is_zero_when_the_host_cannot_run_every_rank() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(Fabric::new(cores).barrier.spin, SPIN_BUDGET);
        assert_eq!(Fabric::new(2 * cores).barrier.spin, 0);
    }
}
