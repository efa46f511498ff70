//! The per-rank machine timeline accounts for a run's wall time.
//!
//! A superstep is compute → (deposit, barrier, drain), and a rank's
//! [`RankStep`](ddrs_trace::RankStep) records exactly those two slices
//! back to back, so summing them over a run must give (nearly) the time
//! the run took. Before the exchange became one barrier, a second,
//! unrecorded barrier closed every superstep and the sum fell short.
//!
//! Recording exists only in debug builds and under `--features trace`;
//! elsewhere the timeline is empty and there is nothing to pin.

use std::time::{Duration, Instant};

use ddrs_cgm::Machine;

const SUPERSTEPS: u64 = 10;

/// One run of `SUPERSTEPS` supersteps in which the two ranks take turns
/// being the slow one; returns each rank's recorded share of the run's
/// wall time (measured around `Machine::run` by the submitter).
fn recorded_share_per_rank(m: &Machine) -> Vec<f64> {
    m.take_stats();
    let started = Instant::now();
    m.run(|ctx| {
        for step in 0..SUPERSTEPS {
            let slow = step % 2 == ctx.rank() as u64;
            std::thread::sleep(Duration::from_millis(if slow { 2 } else { 1 }));
            ctx.all_reduce_sum(step);
        }
    });
    let wall_ns = started.elapsed().as_nanos() as f64;
    let stats = m.take_stats();
    (0..m.p())
        .map(|rank| {
            let steps: Vec<_> = stats.timeline.iter().filter(|s| s.rank == rank).collect();
            assert_eq!(steps.len() as u64, SUPERSTEPS, "one step per rank per superstep");
            for pair in steps.windows(2) {
                let end = pair[0].start_ns + pair[0].compute_ns + pair[0].barrier_ns;
                assert!(pair[1].start_ns >= end, "slices of one rank must not overlap");
            }
            steps.iter().map(|s| (s.compute_ns + s.barrier_ns) as f64).sum::<f64>() / wall_ns
        })
        .collect()
}

#[test]
fn recorded_slices_cover_the_runs_wall_time() {
    if !ddrs_trace::enabled() {
        return;
    }
    let m = Machine::new(2).unwrap();
    // What the slices leave out is the pool's wake-up and the submitter's
    // own wake-up, microseconds against a 20 ms run; a loaded test host
    // can stretch either, so one of a few attempts has to meet the pin.
    let mut seen = Vec::new();
    for _ in 0..5 {
        let shares = recorded_share_per_rank(&m);
        assert!(shares.iter().all(|&s| s <= 1.0), "a rank cannot record more than the run");
        if shares.iter().all(|&s| s >= 0.9) {
            return;
        }
        seen.push(shares);
    }
    panic!("recorded share of wall time per rank stayed under 0.9: {seen:?}");
}

/// The wait of the rank that arrives early lands in its `barrier_ns`, and
/// the late rank's barrier is short: the timeline tells them apart.
#[test]
fn the_early_ranks_wait_is_barrier_time() {
    if !ddrs_trace::enabled() {
        return;
    }
    let m = Machine::new(2).unwrap();
    m.run(|ctx| {
        if ctx.rank() == 1 {
            std::thread::sleep(Duration::from_millis(10));
        }
        ctx.all_reduce_sum(1);
    });
    let stats = m.take_stats();
    let step = |rank: usize| stats.timeline.iter().find(|s| s.rank == rank).unwrap();
    assert!(step(0).barrier_ns >= 5_000_000, "rank 0 waited for rank 1: {:?}", step(0));
    assert!(step(1).compute_ns >= 10_000_000, "rank 1's sleep is compute: {:?}", step(1));
    assert!(step(1).barrier_ns < step(0).barrier_ns);
}
