//! # ddrs-cgm — a Coarse Grained Multicomputer simulator
//!
//! This crate implements the machine model of the paper: the
//! **Coarse Grained Multicomputer** `CGM(s, p)`, also called the *weak CREW
//! BSP* model. A `CGM(s, p)` is a set of `p` processors `P_0 … P_(p-1)`,
//! each with `O(s/p)` local memory, connected by an arbitrary interconnect.
//! Algorithms alternate **local computation** with **global communication
//! operations** (supersteps); each global operation routes an *h-relation*
//! (every processor sends and receives `O(h)` data). An algorithm is
//! *optimal* when its local computation is the sequential time divided by
//! `p` and it uses a **constant number of communication rounds**.
//!
//! The paper's Model section fixes the set of standard collectives —
//! *segmented broadcast, segmented gather, all-to-all broadcast,
//! personalized all-to-all broadcast, partial sum and sort* — and notes that
//! all of them reduce to a constant number of sorts. Every one of those is
//! implemented here, on top of a mailbox exchange between `p` SPMD threads.
//!
//! Because the theorems of the paper are stated in terms of
//! *(local work, number of supersteps, h)* rather than wall-clock on any
//! particular 1996 interconnect, the simulator meters exactly those
//! quantities: [`RunStats`] records, for every superstep, the maximum number
//! of words any processor sent or received (`h`), the label of the
//! collective, and the total traffic. The experiment harness uses these to
//! verify the "constant number of h-relations with h = s/p" corollaries.
//! Words are the model's, not the host's: the simulator's transport is
//! shared memory and hands messages over by pointer, but every message is
//! charged the size it would have on a wire (see [`Payload`]).
//!
//! ## The persistent executor
//!
//! A [`Machine`] owns `p - 1` rank-pinned worker threads and a persistent
//! exchange fabric, both created once at [`Machine::new`] and reused by
//! every run; the submitting thread is rank 0. A run is two rendezvous
//! around the program, not `p` OS thread spawns, which matters when a
//! service dispatches many small batches. [`Machine::try_run`] is the
//! fallible entry point — a panicking processor cancels the fabric (no
//! deadlocked siblings), yields [`CgmError::ProcessorPanicked`], and
//! leaves the machine usable; [`Machine::run`] delegates to it and
//! re-panics with the original message. See the docs on [`Machine`] for
//! details.
//!
//! ## Example
//!
//! ```
//! use ddrs_cgm::Machine;
//!
//! let m = Machine::new(4).unwrap();
//! // SPMD: every closure invocation is one simulated processor.
//! let sums = m.run(|ctx| {
//!     let mine = (ctx.rank() + 1) as u64;
//!     ctx.all_reduce_sum(mine)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! let stats = m.take_stats();
//! assert!(stats.supersteps() >= 1);
//! ```
#![warn(missing_docs)]

mod ctx;
mod error;
mod machine;
mod mailbox;
mod payload;
mod stats;

pub mod collectives;
pub mod model;

pub use ctx::Ctx;
pub use error::CgmError;
pub use machine::{panic_message, unwrap_run, Machine};
pub use payload::{shallow_words, slice_words, Payload};
pub use stats::{RoundStat, RunStats, RunStatsRollup};

/// Lock `m`, recovering the data of a poisoned lock: a processor that
/// panics mid-superstep is contained by the run harness, so its poison
/// is not news to anyone holding one of the crate's locks.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Returns `log2(x)` for a power of two `x`.
///
/// # Panics
/// Panics if `x` is not a power of two.
#[inline]
pub fn log2_exact(x: usize) -> u32 {
    assert!(x.is_power_of_two(), "log2_exact: {x} is not a power of two");
    x.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_exact_powers() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(2), 1);
        assert_eq!(log2_exact(8), 3);
        assert_eq!(log2_exact(1024), 10);
    }

    #[test]
    #[should_panic]
    fn log2_exact_rejects_non_powers() {
        log2_exact(12);
    }
}
