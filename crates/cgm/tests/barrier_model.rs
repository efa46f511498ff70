//! Exhaustive interleaving exploration of the barrier's wake-up protocol
//! (`CancellableBarrier` in `src/mailbox.rs`), driven by
//! `ddrs_check::explore`.
//!
//! The barrier's fast path is lock-free, so its safety rests on the order
//! of four atomic steps rather than on a mutex:
//!
//! * the **releaser** (last arriver) *publishes the new generation*, then
//!   *reads `sleepers`*, and only if that is non-zero takes the park mutex
//!   and notifies;
//! * a **waiter** that has spent its spin budget takes the park mutex,
//!   *registers in `sleepers`*, then *re-reads the generation* (and the
//!   cancel flag), and only if neither moved waits on the condvar, which
//!   releases the mutex atomically.
//!
//! The model below replays those steps, one atomic access (or one
//! mutex-protected section) per step, under every order-preserving merge
//! of the threads' step sequences, and checks the property the design
//! claims: **no interleaving leaves a registered sleeper un-notified**.
//! Two deliberately broken orders show the exploration finds the lost
//! wake-up when one exists.
//!
//! A step that needs the park mutex while another thread holds it cannot
//! run there; such schedules are skipped, and the real execution they
//! stand for (the step blocks until the holder releases) is the schedule
//! in which the step comes later, which is explored too. The mutex is
//! only ever held across a bounded section, so skipping hides no
//! deadlock.

use ddrs_check::explore::explore;

/// Which order the protocol's steps run in.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Order {
    /// As implemented: publish → read sleepers; register → re-check.
    Sound,
    /// Broken: the waiter re-checks the generation *before* registering.
    RecheckBeforeRegister,
    /// Broken: the releaser reads `sleepers` *before* publishing.
    SleepersBeforePublish,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Waiter {
    /// Not at the barrier yet.
    Outside,
    /// Arrived in generation 0; spinning or about to park.
    Arrived,
    /// Holds the park mutex between registering and re-checking. The
    /// flag is what the early re-check of the broken order saw.
    Registering { stale_recheck_passed: bool },
    /// Waiting on the condvar (park mutex released).
    Parked { notified: bool },
    /// Left `wait` with this verdict (`true` = released, `false` = cancelled).
    Left(bool),
}

/// The barrier's shared state plus each modelled thread's private state.
#[derive(Default)]
struct Model {
    count: usize,
    generation: u64,
    cancelled: bool,
    sleepers: usize,
    /// Thread currently holding the park mutex.
    park: Option<usize>,
    waiters: Vec<Waiter>,
    /// The releaser's private copy of `sleepers > 0`.
    releaser_saw_sleepers: bool,
    releaser_left: bool,
}

/// The step cannot run now (park mutex held elsewhere, or the thread's
/// fixed role does not fit this arrival order).
struct Infeasible;

impl Model {
    fn released_or_cancelled(&self) -> bool {
        self.generation != 0 || self.cancelled
    }

    fn take_park(&mut self, who: usize) -> Result<(), Infeasible> {
        match self.park {
            None => {
                self.park = Some(who);
                Ok(())
            }
            Some(_) => Err(Infeasible),
        }
    }

    fn notify_all(&mut self) {
        for w in &mut self.waiters {
            if let Waiter::Parked { notified } = w {
                *notified = true;
            }
        }
    }

    fn leave(&mut self, w: usize, registered: bool) {
        if registered {
            self.sleepers -= 1;
        }
        self.waiters[w] = Waiter::Left(!self.cancelled);
    }

    /// Waiter `w`, step `pc` of: arrive, lock + register, re-check,
    /// wake-up. Steps after the waiter has left are no-ops, so every
    /// waiter has the same step count on every path.
    fn waiter_step(&mut self, w: usize, pc: usize, order: Order) -> Result<(), Infeasible> {
        match (pc, self.waiters[w]) {
            // `wait`: cancelled check, read generation, `count.fetch_add`.
            (0, Waiter::Outside) => {
                if self.cancelled {
                    self.waiters[w] = Waiter::Left(false);
                } else {
                    self.count += 1;
                    self.waiters[w] = Waiter::Arrived;
                }
            }
            // Spin budget spent: one last look, then `lock_park` and
            // `sleepers.fetch_add`.
            (1, Waiter::Arrived) => {
                if self.released_or_cancelled() {
                    self.leave(w, false);
                } else {
                    self.take_park(w)?;
                    if order == Order::RecheckBeforeRegister {
                        // The re-check happened here, saw nothing...
                        self.waiters[w] = Waiter::Registering { stale_recheck_passed: true };
                    } else {
                        self.sleepers += 1;
                        self.waiters[w] = Waiter::Registering { stale_recheck_passed: false };
                    }
                }
            }
            // `while !released() && !cancelled() { cvar.wait(..) }`, first pass.
            (2, Waiter::Registering { stale_recheck_passed }) => {
                if stale_recheck_passed {
                    // ...and the registration comes only now.
                    self.sleepers += 1;
                }
                self.park = None;
                if !stale_recheck_passed && self.released_or_cancelled() {
                    self.leave(w, true);
                } else {
                    self.waiters[w] = Waiter::Parked { notified: false };
                }
            }
            // Woken by `notify_all`: re-acquire the mutex, re-check, leave.
            (3, Waiter::Parked { notified: true }) => {
                self.take_park(w)?;
                assert!(self.released_or_cancelled(), "notified without cause");
                self.park = None;
                self.leave(w, true);
            }
            // Still asleep, or already gone.
            (3, Waiter::Parked { notified: false }) | (_, Waiter::Left(_)) => {}
            (pc, state) => unreachable!("waiter {w} at step {pc} in state {state:?}"),
        }
        Ok(())
    }

    /// The last arriver: arrive, publish, read sleepers, notify.
    fn releaser_step(&mut self, me: usize, pc: usize, order: Order) -> Result<(), Infeasible> {
        if self.releaser_left {
            return Ok(());
        }
        let (publish_pc, sleepers_pc) =
            if order == Order::SleepersBeforePublish { (2, 1) } else { (1, 2) };
        if pc == 0 {
            // This thread plays the last arriver; an order in which it is
            // not is the same protocol with the roles renamed.
            if self.count != self.waiters.len() {
                return Err(Infeasible);
            }
            if self.cancelled {
                self.releaser_left = true;
            } else {
                self.count += 1;
            }
        } else if pc == publish_pc {
            self.count = 0;
            self.generation += 1;
        } else if pc == sleepers_pc {
            self.releaser_saw_sleepers = self.sleepers > 0;
        } else if self.releaser_saw_sleepers {
            self.take_park(me)?;
            self.notify_all();
            self.park = None;
        }
        Ok(())
    }

    /// `cancel`: set the flag, then notify under the park mutex.
    fn canceller_step(&mut self, me: usize, pc: usize) -> Result<(), Infeasible> {
        if pc == 0 {
            self.cancelled = true;
        } else {
            self.take_park(me)?;
            self.notify_all();
            self.park = None;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Waiter(usize),
    Releaser,
    Canceller,
}

impl Role {
    fn steps(self) -> usize {
        match self {
            Role::Waiter(_) | Role::Releaser => 4,
            Role::Canceller => 2,
        }
    }
}

/// Explore every interleaving of `roles`; returns (feasible schedules,
/// schedules that ended with a registered sleeper nobody notified).
fn run(roles: &[Role], order: Order) -> (usize, usize) {
    let lens: Vec<usize> = roles.iter().map(|r| r.steps()).collect();
    let (mut feasible, mut stuck) = (0, 0);
    explore(&lens, |schedule| {
        let n_waiters = roles.iter().filter(|r| matches!(r, Role::Waiter(_))).count();
        let mut model = Model { waiters: vec![Waiter::Outside; n_waiters], ..Model::default() };
        let mut pcs = vec![0usize; roles.len()];
        for &t in schedule {
            let step = match roles[t] {
                Role::Waiter(w) => model.waiter_step(w, pcs[t], order),
                Role::Releaser => model.releaser_step(t, pcs[t], order),
                Role::Canceller => model.canceller_step(t, pcs[t]),
            };
            if step.is_err() {
                return;
            }
            pcs[t] += 1;
        }
        feasible += 1;
        assert_eq!(model.park, None, "park mutex leaked: {schedule:?}");
        let has_releaser = roles.contains(&Role::Releaser);
        let has_canceller = roles.contains(&Role::Canceller);
        for w in &model.waiters {
            match *w {
                // Gone, or woken and about to go.
                Waiter::Left(released) => {
                    assert!(released || has_canceller, "spurious cancel: {schedule:?}");
                }
                Waiter::Parked { notified: true } => {}
                Waiter::Parked { notified: false } => stuck += 1,
                other => unreachable!("waiter ended in {other:?}: {schedule:?}"),
            }
        }
        assert!(has_releaser || has_canceller, "nobody to end the wait");
    });
    (feasible, stuck)
}

const WAITERS: [Role; 2] = [Role::Waiter(0), Role::Waiter(1)];

#[test]
fn no_interleaving_strands_a_sleeper_on_release() {
    let (feasible, stuck) = run(&[WAITERS[0], WAITERS[1], Role::Releaser], Order::Sound);
    assert!(feasible > 1_000, "explored only {feasible} schedules");
    assert_eq!(stuck, 0);
}

#[test]
fn no_interleaving_strands_a_sleeper_on_cancel() {
    // The third party never arrives (it panicked); cancel ends the wait.
    let (feasible, stuck) = run(&[WAITERS[0], WAITERS[1], Role::Canceller], Order::Sound);
    assert!(feasible > 1_000, "explored only {feasible} schedules");
    assert_eq!(stuck, 0);
}

#[test]
fn no_interleaving_strands_a_sleeper_when_cancel_races_the_release() {
    // One waiter keeps the schedule count exhaustive-but-small; the
    // waiters do not interact except through the shared counters.
    let (feasible, stuck) = run(&[WAITERS[0], Role::Releaser, Role::Canceller], Order::Sound);
    assert!(feasible > 1_000, "explored only {feasible} schedules");
    assert_eq!(stuck, 0);
}

/// The exploration has teeth: either swapped order loses a wake-up in
/// some schedule, which is why the implementation's order is what it is.
#[test]
fn the_broken_orders_are_caught() {
    for order in [Order::RecheckBeforeRegister, Order::SleepersBeforePublish] {
        let (_, stuck) = run(&[WAITERS[0], WAITERS[1], Role::Releaser], order);
        assert!(stuck > 0, "{order:?} should strand a sleeper in some interleaving");
    }
}
