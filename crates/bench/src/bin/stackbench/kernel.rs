//! `kernel_uniform` and `kernel_hotspot`: one caller, no serving layers.
//! `Machine::new(p_bench)`, a four-level store, eight distinct 256-query
//! mixed batches cycled through `query_batch_fused`.

use std::time::Instant;

use ddrs_cgm::RunStats;
use ddrs_rangetree::{Point, Sum};
use ddrs_workloads::QueryDistribution;

use crate::gen::{self, Answers, Oracle, Reads, Spec};
use crate::report::{LadderInputs, Pass};
use crate::spans::SpanBuf;
use crate::stack::{build_store, rss_peak_mb, Run, SetupClock};
use crate::stats::{median, us};

/// Insert sizes, in order: with rebuild unit 1 024 they land on levels
/// 6, 5, 4 and 3, so every batch fans over four static trees.
const LEVELS: [usize; 4] = [65_536, 32_768, 16_384, 8_192];
const BATCHES: usize = 8;
const PER_BATCH: usize = 256;
/// Requests in the ladder slice (the eight batches, eight times).
const LADDER_SLICE: usize = 64;

pub struct Inputs {
    pub points: Vec<Point<2>>,
    pub batches: Vec<Reads>,
    pub answers: Vec<Answers>,
    specs: Vec<Spec>,
}

impl Inputs {
    pub fn level_batches(&self) -> Vec<&[Point<2>]> {
        let mut lo = 0;
        LEVELS
            .iter()
            .map(|&n| {
                lo += n;
                &self.points[lo - n..lo]
            })
            .collect()
    }

    pub fn ladder(&self) -> LadderInputs<'_> {
        LadderInputs { initial: self.level_batches(), specs: &self.specs }
    }
}

pub fn generate(run: &Run, dist: QueryDistribution) -> Inputs {
    let points = gen::points(run.seed, LEVELS.iter().sum());
    let batches = gen::read_batches(&points, run.seed, 100, dist, BATCHES, PER_BATCH);
    let oracle = Oracle::build(&points);
    let answers = batches.iter().map(|b| oracle.answer(b)).collect();
    let specs = (0..LADDER_SLICE).map(|i| Spec::Reads(batches[i % BATCHES].clone())).collect();
    Inputs { points, batches, answers, specs }
}

/// Cycle the batches on a machine of `p` for `seconds` (after a tenth of
/// that as warm-up), always finishing a whole cycle so per-run counts
/// are averages over whole cycles of the distinct batches.
pub fn pass(inputs: &Inputs, p: usize, seconds: f64, setups: usize, spans_on: bool) -> Pass {
    let levels = inputs.level_batches();
    let mut clock = SetupClock::default();
    let (machine, tree) = clock.time(|| build_store(p, &levels));
    let mut buf = SpanBuf::new(Instant::now(), 0, spans_on);
    let mut out = Pass::default();

    // `timed`: where the latencies go, and the instant they are placed from.
    let cycle = |buf: &mut SpanBuf, mut timed: Option<(Instant, &mut Pass)>, check: bool| -> u64 {
        let mut mismatches = 0;
        for (i, b) in inputs.batches.iter().enumerate() {
            let t0 = Instant::now();
            let root = buf.root("batch", i as u64);
            let call = buf.open("query_batch_fused", root, i as u64);
            let got = tree.query_batch_fused(&machine, Sum, &b.counts, &b.aggs, &b.reports);
            buf.close(call);
            buf.close(root);
            if let Some((start, out)) = timed.as_mut() {
                out.lat_us.push(us(t0.elapsed()));
                out.done_s.push(start.elapsed().as_secs_f64());
            }
            let want = &inputs.answers[i];
            if check
                && (got.counts != want.counts
                    || got.aggregates != want.aggs
                    || got.reports != want.reports)
            {
                mismatches += 1;
            }
        }
        mismatches
    };

    // Warm-up; its first cycle is the correctness gate.
    let warm = Instant::now();
    out.failed += cycle(&mut buf, None, true);
    out.verified += (BATCHES * PER_BATCH) as u64;
    while warm.elapsed().as_secs_f64() < seconds / 10.0 {
        cycle(&mut buf, None, false);
    }
    machine.take_stats();

    let t0 = Instant::now();
    let mut cycles = 0u64;
    while t0.elapsed().as_secs_f64() < seconds {
        cycle(&mut buf, Some((t0, &mut out)), false);
        cycles += 1;
    }
    let stats = machine.take_stats();

    out.attempted = cycles * BATCHES as u64;
    out.ops_per_s = out.keep_quiet() * PER_BATCH as f64;
    out.rss_peak_mb = rss_peak_mb();
    out.layer = machine_counters(&stats);
    out.layer.push(("rangetree.levels", tree.occupied_levels() as f64));
    out.layer.push(("rangetree.k_per_report", Answers::k_per_report(&inputs.answers)));
    out.spans.absorb(buf);
    out.finish(clock, (machine, tree), setups, || build_store(p, &levels), drop);
    out
}

/// The paper's curve on this host: the same batches over the same store
/// content at `p` ranks and at one, in alternating slices so that a
/// drift in the machine's speed cancels. Returns the two rates in
/// queries/s, each the median of its slices.
pub fn rates_at_p_and_1(inputs: &Inputs, p: usize, seconds: f64) -> (f64, f64) {
    const SLICES: usize = 5;
    let levels = inputs.level_batches();
    let stores = [build_store(p, &levels), build_store(1, &levels)];
    let mut rates = [Vec::new(), Vec::new()];
    for _ in 0..SLICES {
        for ((machine, tree), rates) in stores.iter().zip(&mut rates) {
            let t0 = Instant::now();
            let mut queries = 0;
            while t0.elapsed().as_secs_f64() < seconds / (2 * SLICES) as f64 {
                for b in &inputs.batches {
                    std::hint::black_box(
                        tree.query_batch_fused(machine, Sum, &b.counts, &b.aggs, &b.reports),
                    );
                }
                queries += BATCHES * PER_BATCH;
            }
            rates.push(queries as f64 / t0.elapsed().as_secs_f64());
        }
    }
    (median(&rates[0]), median(&rates[1]))
}

/// Per-run averages of a machine's round statistics.
pub fn machine_counters(stats: &RunStats) -> Vec<(&'static str, f64)> {
    let runs = stats.runs.max(1) as f64;
    let words_of = |label: &str| {
        stats.rounds.iter().filter(|r| r.label == label).map(|r| r.total_words).sum::<u64>() as f64
    };
    vec![
        ("cgm.runs", stats.runs as f64),
        ("cgm.supersteps_per_run", stats.supersteps() as f64 / runs),
        ("cgm.words_per_run", stats.total_traffic() as f64 / runs),
        ("cgm.max_h", stats.max_h() as f64),
        ("rangetree.copy_words_per_run", words_of("balance_resources") / runs),
        ("rangetree.visit_words_per_run", words_of("balance_items") / runs),
    ]
}
