//! Per-processor execution context.

use crate::mailbox::Fabric;
use crate::payload::{slice_words, Payload};
use crate::stats::StatsCollector;

/// Handle given to each simulated processor inside [`Machine::run`].
///
/// All communication flows through the collective methods (defined here and
/// in [`crate::collectives`]); each collective is one superstep and is
/// metered as one h-relation. The fabric and stats collector are borrowed
/// from the owning [`Machine`](crate::Machine) — contexts are cheap,
/// per-run values with no shared-ownership bookkeeping.
///
/// [`Machine::run`]: crate::Machine::run
pub struct Ctx<'a> {
    rank: usize,
    p: usize,
    fabric: &'a Fabric,
    collector: &'a StatsCollector,
    round: usize,
    /// Trace clock reading when the current local-compute slice began
    /// (context creation or the end of the previous collective). Always
    /// 0 when span recording is compiled out.
    compute_start_ns: u64,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        rank: usize,
        p: usize,
        fabric: &'a Fabric,
        collector: &'a StatsCollector,
    ) -> Self {
        Ctx { rank, p, fabric, collector, round: 0, compute_start_ns: ddrs_trace::now_ns() }
    }

    /// This processor's rank in `0..p`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Pure barrier synchronisation (no data movement, not counted as a
    /// communication round).
    pub fn barrier(&mut self) {
        self.fabric.sync();
        // Time blocked here belongs to no collective; restart the
        // compute clock so the next superstep's slice stays honest.
        self.compute_start_ns = ddrs_trace::now_ns();
    }

    /// The fundamental superstep: deliver `out[d]` to processor `d`, return
    /// what everyone sent to this processor, indexed by source rank.
    ///
    /// This is the paper's *personalized all-to-all broadcast*; every other
    /// collective is built on it. Counted as one h-relation, and costs one
    /// barrier: deposit, synchronise, drain. No second barrier closes the
    /// superstep, because consecutive rounds use alternating mailbox
    /// parities (see the `mailbox` module docs); a rank that finishes draining
    /// early goes straight back to computing.
    ///
    /// The words metered are each bucket's [`Payload::words`], i.e. what a
    /// real multicomputer would put on the wire. The buckets themselves
    /// move by pointer.
    ///
    /// # Panics
    /// Panics if `out.len() != p`.
    pub fn exchange<T: Payload>(&mut self, label: &'static str, out: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(out.len(), self.p, "exchange requires one bucket per destination");
        let sent: u64 = out
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != self.rank)
            .map(|(_, b)| slice_words(b))
            .sum();
        let enter_ns = ddrs_trace::now_ns();
        for (dst, bucket) in out.into_iter().enumerate() {
            self.fabric.deposit(self.rank, dst, bucket);
        }
        self.fabric.sync();
        let inbound = self.fabric.drain::<T>(self.rank, self.p);
        let recv: u64 = inbound
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != self.rank)
            .map(|(_, b)| slice_words(b))
            .sum();
        self.collector.record(self.round, label, sent, recv);
        self.collector.record_step(
            self.rank,
            self.round,
            label,
            self.compute_start_ns,
            enter_ns.saturating_sub(self.compute_start_ns),
            ddrs_trace::now_ns().saturating_sub(enter_ns),
        );
        self.round += 1;
        self.compute_start_ns = ddrs_trace::now_ns();
        inbound
    }
}
