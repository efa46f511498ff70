//! What a workload pass hands back, and how passes become the metrics
//! of a run.

use std::collections::BTreeMap;

use ddrs_rangetree::Point;
use ddrs_trace::Histogram;

use crate::gen::Spec;
use crate::json::Json;
use crate::layers;
use crate::spans::SpanSet;
use crate::stack::{Run, SetupClock};
use crate::stats::{quantile, quiet_latencies, quiet_rate, sorted, tail};

/// One pass of a workload over a freshly built stack.
#[derive(Default)]
pub struct Pass {
    pub setup_s: f64,
    /// `VmHWM` when the timed part of the workload ended.
    pub rss_peak_mb: f64,
    pub ops_per_s: f64,
    /// Latency samples behind `lat_p50_us` / `lat_tail_us`, µs.
    pub lat_us: Vec<f64>,
    /// When each sample completed, in seconds on the pass's own clock.
    /// Only the workloads whose timed part is stationary fill it in.
    pub done_s: Vec<f64>,
    pub attempted: u64,
    /// Refused, resolved `Err`, or disagreeing with the oracle.
    pub failed: u64,
    pub verified: u64,
    pub submit_err: u64,
    pub outcome_err: u64,
    /// Per-layer readings taken from the stack's own counters.
    pub layer: Vec<(&'static str, f64)>,
    /// Anything else worth keeping in the result file.
    pub extra: Vec<(&'static str, Json)>,
    pub spans: SpanSet,
}

impl Pass {
    /// For a workload that does the same thing from the first second to
    /// the last: keep the latencies of the run's quietest slices and
    /// return the completions per second of its busiest ones (see
    /// `stats::QUIET_SLICES`). `client.samples` then counts what was kept.
    pub fn keep_quiet(&mut self) -> f64 {
        let rate = quiet_rate(&self.done_s);
        self.lat_us = quiet_latencies(&self.done_s, &self.lat_us);
        rate
    }

    /// End of a pass: take the stack down, then build and take down the
    /// rest of the run's stacks, so that `setup_s` is the median of
    /// `setups` builds and one slow build does not decide it. The extra
    /// builds come after the workload and after `rss_peak_mb` was read,
    /// so they disturb neither.
    pub fn finish<T>(
        &mut self,
        mut clock: SetupClock,
        stack: T,
        setups: usize,
        build: impl Fn() -> T,
        teardown: impl Fn(T),
    ) {
        teardown(stack);
        for _ in 1..setups {
            teardown(clock.time(&build));
        }
        self.setup_s = clock.median_s();
    }
}

/// What the layer ladder needs from a workload: how to build its store
/// and the fixed slice of its own requests to push through each rung.
pub struct LadderInputs<'a> {
    /// The store's initial content, one `insert_batch` per slice.
    pub initial: Vec<&'a [Point<2>]>,
    pub specs: &'a [Spec],
}

impl LadderInputs<'_> {
    /// True when every spec is a read: the slice is then run once
    /// unmeasured first, and the oracle rung applies.
    pub fn reads_only(&self) -> bool {
        self.specs.iter().all(|s| matches!(s, Spec::Reads(_)))
    }
}

/// The outcome of one invocation.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, u64>,
    pub extra: Vec<(&'static str, Json)>,
    pub spans: SpanSet,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The latency metrics of a sample, and how well the crates' own
    /// base-2 histogram would have reported them.
    fn set_latency(&mut self, lat_us: &[f64]) {
        let lat = sorted(lat_us.to_vec());
        let (pct, tail_us) = tail(&lat);
        let p50 = quantile(&lat, 0.5);
        let p99 = quantile(&lat, 0.99);
        self.set("lat_p50_us", p50);
        self.set("lat_tail_us", tail_us);
        self.set("client.tail_pct", pct);
        self.set("client.lat_p99_us", p99);
        self.set("client.lat_max_us", lat.last().copied().unwrap_or(0.0));
        self.set("client.samples", lat.len() as f64);
        for name in ["lat_p50_us", "lat_tail_us"] {
            self.samples.insert(name, lat.len() as u64);
        }
        let mut hist = Histogram::default();
        for v in &lat {
            hist.record(*v as u64);
        }
        let rel_err = |est: u64, exact: f64| {
            if exact > 0.0 {
                (est as f64 - exact).abs() / exact
            } else {
                0.0
            }
        };
        self.set("trace.hist_p50_rel_err", rel_err(hist.quantile(0.5), p50));
        self.set("trace.hist_p99_rel_err", rel_err(hist.quantile(0.99), p99));
    }

    fn absorb(&mut self, pass: Pass) {
        self.attempted = pass.attempted;
        self.failed = pass.failed;
        self.set("setup_s", pass.setup_s);
        self.set("rss_peak_mb", pass.rss_peak_mb);
        self.set("ops_per_s", pass.ops_per_s);
        self.set_latency(&pass.lat_us);
        self.set("client.submit_err", pass.submit_err as f64);
        self.set("client.outcome_err", pass.outcome_err as f64);
        self.set("gen.verified_ops", pass.verified as f64);
        self.set("client.submit_us_mean", pass.spans.self_us("submit"));
        self.set("client.wait_us_mean", pass.spans.self_us("wait"));
        self.set("trace.spans", pass.spans.len() as f64);
        for (name, v) in pass.layer {
            self.set(name, v);
        }
        self.extra.extend(pass.extra);
        self.spans = pass.spans;
    }
}

/// Run one workload: untraced, a single full-length pass gives the
/// end-to-end metrics. Traced, two quarter-length passes (harness spans
/// off, then on, after a discarded one) give the workload's per-layer readings and the tracing
/// overhead, the ladder and the direct calls give the rest, and
/// `traced_extra` adds what only this workload can measure.
pub fn drive<I>(
    run: &Run,
    generate: impl FnOnce(&Run) -> I,
    pass: impl Fn(&Run, &I, f64, usize, bool) -> Pass,
    ladder: impl FnOnce(&I) -> LadderInputs<'_>,
    traced_extra: impl FnOnce(&Run, &I, &mut Report),
) -> Report {
    let t0 = std::time::Instant::now();
    let inputs = generate(run);
    let oracle_s = t0.elapsed().as_secs_f64();

    let mut report = Report::default();
    if run.traced {
        let quarter = run.seconds / 4.0;
        // The first pass of a process pays for page faults and allocator
        // growth the later ones do not; run one and discard it, so the
        // spans-off and spans-on passes differ only in the spans.
        drop(pass(run, &inputs, quarter / 2.0, 1, false));
        let off = pass(run, &inputs, quarter, 1, false);
        let on = pass(run, &inputs, quarter, 1, true);
        let ratio = if off.ops_per_s > 0.0 { on.ops_per_s / off.ops_per_s } else { 0.0 };
        report.absorb(on);
        report.failed += off.failed;
        report.set("trace.overhead_ratio", ratio);
        layers::measure(run, &ladder(&inputs), &mut report);
        traced_extra(run, &inputs, &mut report);
    } else {
        report.absorb(pass(run, &inputs, run.seconds, run.setups, false));
    }
    report.set("gen.oracle_s", oracle_s);
    report
}
