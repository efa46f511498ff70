//! Superstep / h-relation accounting.
//!
//! Corollaries 1–3 of the paper bound the number of communication rounds
//! (a constant) and the size `h` of each h-relation (`h = s/p`). The
//! statistics collected here are exactly those two quantities, per
//! collective call, so the experiment harness can verify the bounds on real
//! executions instead of trusting the proofs.

use std::sync::Mutex;

use ddrs_trace::{MetricsRegistry, RankStep};

use crate::lock;

/// Accumulated measurements for one superstep (one collective call).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundStat {
    /// Name of the collective that produced this round (e.g. `"all_to_all"`).
    pub label: &'static str,
    /// Maximum number of words sent by any processor in this round.
    pub max_sent_words: u64,
    /// Maximum number of words received by any processor in this round.
    pub max_recv_words: u64,
    /// Total words moved across all processors in this round.
    pub total_words: u64,
}

impl RoundStat {
    /// The h-relation size of this round: the largest per-processor
    /// send-or-receive volume.
    pub fn h(&self) -> u64 {
        self.max_sent_words.max(self.max_recv_words)
    }
}

/// Statistics for one or more [`Machine::run`](crate::Machine::run) calls.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-superstep measurements, in execution order.
    pub rounds: Vec<RoundStat>,
    /// Number of `run` invocations covered by these statistics.
    pub runs: usize,
    /// Per-rank compute/barrier timeline of every superstep — one
    /// [`RankStep`] per (rank, collective call). Empty unless span
    /// recording is compiled in (`debug_assertions` or the `trace`
    /// feature; see [`ddrs_trace::enabled`]): the timeline is the
    /// per-run view of the paper's h-relation *balance* claim, and it
    /// shares the request-span clock so [`ddrs_trace::Trace::export_chrome`]
    /// can lay supersteps under the requests they served.
    pub timeline: Vec<RankStep>,
}

impl RunStats {
    /// Number of communication supersteps executed.
    pub fn supersteps(&self) -> usize {
        self.rounds.len()
    }

    /// The largest h-relation routed in any superstep.
    pub fn max_h(&self) -> u64 {
        self.rounds.iter().map(RoundStat::h).max().unwrap_or(0)
    }

    /// Total words moved across all supersteps and processors.
    pub fn total_traffic(&self) -> u64 {
        self.rounds.iter().map(|r| r.total_words).sum()
    }

    /// Supersteps grouped by label with (count, max h) per label.
    pub fn by_label(&self) -> Vec<(&'static str, usize, u64)> {
        let mut out: Vec<(&'static str, usize, u64)> = Vec::new();
        for r in &self.rounds {
            match out.iter_mut().find(|(l, _, _)| *l == r.label) {
                Some((_, n, h)) => {
                    *n += 1;
                    *h = (*h).max(r.h());
                }
                None => out.push((r.label, 1, r.h())),
            }
        }
        out
    }
}

/// A bounded-memory rollup of one or more [`RunStats`] snapshots.
///
/// [`RunStats`] keeps one [`RoundStat`] per superstep, which is exactly
/// right for verifying the paper's bounds on a single run but grows
/// without bound when a long-lived component (e.g. a serving front-end)
/// wants cumulative telemetry across millions of dispatches. A rollup
/// keeps only the scalar summaries — run count, superstep count, the
/// largest h-relation ever routed and total traffic — and absorbs
/// snapshots in O(rounds) time and O(1) space.
///
/// ```
/// use ddrs_cgm::{Machine, RunStatsRollup};
/// let m = Machine::new(2).unwrap();
/// let mut rollup = RunStatsRollup::default();
/// for _ in 0..3 {
///     m.run(|ctx| ctx.all_reduce_sum(1u64));
///     rollup.absorb(&m.take_stats());
/// }
/// assert_eq!(rollup.runs, 3);
/// assert_eq!(rollup.supersteps % 3, 0, "identical runs, identical rounds");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStatsRollup {
    /// Number of `run` invocations absorbed.
    pub runs: u64,
    /// Total communication supersteps across all absorbed runs.
    pub supersteps: u64,
    /// The largest h-relation routed in any absorbed superstep.
    pub max_h: u64,
    /// Total words moved across all absorbed supersteps and processors.
    pub total_words: u64,
}

impl RunStatsRollup {
    /// Fold a [`RunStats`] snapshot into the rollup.
    pub fn absorb(&mut self, stats: &RunStats) {
        self.runs += stats.runs as u64;
        self.supersteps += stats.supersteps() as u64;
        self.max_h = self.max_h.max(stats.max_h());
        self.total_words += stats.total_traffic();
    }

    /// Mean supersteps per absorbed run (0 when no runs were absorbed).
    pub fn rounds_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.supersteps as f64 / self.runs as f64
        }
    }

    /// Publish the rollup into a [`MetricsRegistry`] under `<prefix>.*`.
    pub fn register_into(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.set_counter(&format!("{prefix}.runs"), self.runs);
        registry.set_counter(&format!("{prefix}.supersteps"), self.supersteps);
        registry.set_counter(&format!("{prefix}.max_h"), self.max_h);
        registry.set_counter(&format!("{prefix}.total_words"), self.total_words);
        registry.set_gauge(&format!("{prefix}.rounds_per_run"), self.rounds_per_run());
    }
}

/// Shared collector the SPMD threads report into.
///
/// All `p` processors execute the same sequence of collectives, so the
/// round index is a per-processor counter that stays in lock-step; each
/// processor folds its own send/receive volume into the round's entry.
///
/// One collector lives inside the [`Machine`](crate::Machine) for its
/// whole lifetime: each run's rounds are drained with
/// [`take_rounds`](StatsCollector::take_rounds) (successful runs) or
/// discarded with [`clear`](StatsCollector::clear) (failed runs), so no
/// per-run allocation or `Arc` churn is needed.
#[derive(Debug, Default)]
pub(crate) struct StatsCollector {
    rounds: Mutex<Vec<RoundStat>>,
    /// Per-rank compute/barrier slices, appended by every rank of every
    /// collective when span recording is compiled in.
    timeline: Mutex<Vec<RankStep>>,
}

impl StatsCollector {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record `sent`/`recv` words by one processor for round `round`.
    pub(crate) fn record(&self, round: usize, label: &'static str, sent: u64, recv: u64) {
        let mut rounds = lock(&self.rounds);
        if rounds.len() <= round {
            rounds.resize(round + 1, RoundStat::default());
        }
        let r = &mut rounds[round];
        debug_assert!(r.label.is_empty() || r.label == label, "superstep divergence");
        r.label = label;
        r.max_sent_words = r.max_sent_words.max(sent);
        r.max_recv_words = r.max_recv_words.max(recv);
        r.total_words += sent;
    }

    /// Record one rank's compute/barrier slice for round `round`. A
    /// no-op (folded away) when span recording is compiled out.
    pub(crate) fn record_step(
        &self,
        rank: usize,
        round: usize,
        label: &'static str,
        start_ns: u64,
        compute_ns: u64,
        barrier_ns: u64,
    ) {
        if !ddrs_trace::enabled() {
            return;
        }
        lock(&self.timeline).push(RankStep {
            rank,
            round,
            label,
            start_ns,
            compute_ns,
            barrier_ns,
        });
    }

    /// Drain the rounds collected since the last drain/clear.
    pub(crate) fn take_rounds(&self) -> Vec<RoundStat> {
        std::mem::take(&mut *lock(&self.rounds))
    }

    /// Drain the per-rank timeline collected since the last drain/clear.
    pub(crate) fn take_timeline(&self) -> Vec<RankStep> {
        std::mem::take(&mut *lock(&self.timeline))
    }

    /// Discard the rounds of a failed (cancelled) run: the partial,
    /// possibly divergent measurements would only mislead.
    pub(crate) fn clear(&self) {
        lock(&self.rounds).clear();
        lock(&self.timeline).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_takes_max_over_processors() {
        let c = StatsCollector::new();
        c.record(0, "x", 10, 4);
        c.record(0, "x", 3, 12);
        let rounds = c.take_rounds();
        assert!(c.take_rounds().is_empty(), "take_rounds drains");
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].max_sent_words, 10);
        assert_eq!(rounds[0].max_recv_words, 12);
        assert_eq!(rounds[0].total_words, 13);
        assert_eq!(rounds[0].h(), 12);
    }

    #[test]
    fn rollup_absorbs_scalar_summaries() {
        let run1 = RunStats {
            rounds: vec![
                RoundStat { label: "a", max_sent_words: 5, max_recv_words: 7, total_words: 20 },
                RoundStat { label: "b", max_sent_words: 9, max_recv_words: 2, total_words: 11 },
            ],
            runs: 1,
            timeline: Vec::new(),
        };
        let run2 = RunStats {
            rounds: vec![RoundStat {
                label: "a",
                max_sent_words: 30,
                max_recv_words: 1,
                total_words: 40,
            }],
            runs: 2,
            timeline: Vec::new(),
        };
        let mut rollup = RunStatsRollup::default();
        assert_eq!(rollup.rounds_per_run(), 0.0);
        rollup.absorb(&run1);
        rollup.absorb(&run2);
        assert_eq!(rollup.runs, 3);
        assert_eq!(rollup.supersteps, 3);
        assert_eq!(rollup.max_h, 30);
        assert_eq!(rollup.total_words, 71);
        assert_eq!(rollup.rounds_per_run(), 1.0);
    }

    #[test]
    fn stats_summaries() {
        let stats = RunStats {
            rounds: vec![
                RoundStat { label: "a", max_sent_words: 5, max_recv_words: 7, total_words: 20 },
                RoundStat { label: "b", max_sent_words: 9, max_recv_words: 2, total_words: 11 },
                RoundStat { label: "a", max_sent_words: 1, max_recv_words: 1, total_words: 2 },
            ],
            runs: 1,
            timeline: Vec::new(),
        };
        assert_eq!(stats.supersteps(), 3);
        assert_eq!(stats.max_h(), 9);
        assert_eq!(stats.total_traffic(), 33);
        let by = stats.by_label();
        assert_eq!(by, vec![("a", 2, 7), ("b", 1, 9)]);
    }
}
