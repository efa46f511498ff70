//! Back-to-back supersteps through the one-barrier exchange: the mailbox
//! parity must never deliver a message to the wrong round, with the
//! barrier spinning (p within the host's parallelism) and parking at once
//! (p above it).

use ddrs_cgm::Machine;

/// 10 000 supersteps at p = 2 with nothing between them, the element type
/// alternating every round: a message read from the wrong parity fails
/// its downcast, one read from the wrong round fails its value check.
#[test]
fn ten_thousand_supersteps_with_alternating_element_types() {
    let m = Machine::new(2).unwrap();
    m.run(|ctx| {
        let (me, other) = (ctx.rank(), 1 - ctx.rank());
        for round in 0..10_000u64 {
            if round % 2 == 0 {
                let mut out: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
                out[other] = vec![round, me as u64];
                let got = ctx.all_to_all(out);
                assert_eq!(got[other], vec![round, other as u64]);
                assert!(got[me].is_empty());
            } else {
                let mut out: Vec<Vec<(u32, String)>> = vec![Vec::new(), Vec::new()];
                out[other] = vec![(me as u32, format!("round {round}"))];
                out[me] = vec![(me as u32, String::from("self"))];
                let got = ctx.all_to_all(out);
                assert_eq!(got[other], vec![(other as u32, format!("round {round}"))]);
                assert_eq!(got[me], vec![(me as u32, String::from("self"))]);
            }
        }
    });
    let stats = m.take_stats();
    assert_eq!(stats.supersteps(), 10_000);
    assert_eq!(stats.runs, 1);
}

/// Ranks that run ahead by the full slack the protocol allows: every
/// other round one rank stalls before its deposit, so its sibling has
/// drained, computed and deposited the next round before the straggler
/// arrives.
#[test]
fn a_straggler_never_sees_the_next_rounds_message() {
    let m = Machine::new(2).unwrap();
    m.run(|ctx| {
        let (me, other) = (ctx.rank(), 1 - ctx.rank());
        for round in 0..200u64 {
            if round % 2 == me as u64 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let mut out: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
            out[other] = vec![round];
            assert_eq!(ctx.all_to_all(out)[other], vec![round]);
        }
    });
}

/// p = 8 on a host with fewer cores takes the budget-0 path (every wait
/// parks at once); 200 runs of several supersteps each also cross the
/// run boundary, where the ranks' round parities must still agree.
#[test]
fn oversubscribed_machine_survives_many_runs() {
    let p = 8u64;
    let m = Machine::new(p as usize).unwrap();
    for run in 0..200u64 {
        let out = m.run(|ctx| {
            let me = ctx.rank() as u64;
            let sum = ctx.all_reduce_sum(run + me);
            let gathered = ctx.all_gather(vec![me; (run % 3) as usize]);
            let scan = ctx.all_reduce_sum(gathered.iter().map(|v| v.len() as u64).sum::<u64>());
            (sum, scan)
        });
        let want = (p * run + p * (p - 1) / 2, p * p * (run % 3));
        assert!(out.iter().all(|&got| got == want), "run {run}: {out:?} != {want:?}");
    }
    assert_eq!(m.take_stats().runs, 200);
}

/// An odd number of supersteps per run leaves every rank on the odd
/// parity when the next run starts; a failed run in between resets it.
#[test]
fn parity_carries_across_runs_and_survives_a_failed_one() {
    let m = Machine::new(2).unwrap();
    for run in 0..50u64 {
        if run % 7 == 3 {
            let err = m.try_run(|ctx| {
                ctx.all_reduce_sum(1u64);
                if ctx.rank() == 1 {
                    panic!("rank 1 dies between supersteps");
                }
                ctx.all_reduce_sum(1u64)
            });
            assert!(err.is_err());
        }
        assert_eq!(m.run(|ctx| ctx.all_reduce_sum(run)), vec![2 * run; 2]);
    }
}

/// A rank that pairs an exchange with its sibling's bare barrier hangs
/// nobody, but leaves the two on different mailbox parities. The run is
/// refused and the machine realigned, instead of a later run silently
/// reading the wrong half.
#[test]
fn mismatched_collectives_are_refused_and_the_machine_realigned() {
    let m = Machine::new(2).unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.all_to_all(vec![Vec::<u64>::new(), Vec::new()]);
            } else {
                ctx.barrier();
            }
        })
    }))
    .unwrap_err();
    let msg = caught.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("SPMD processors diverged"), "msg: {msg}");
    assert_eq!(m.stats().runs, 0, "a refused run contributes no statistics");
    for run in 0..4u64 {
        assert_eq!(m.run(|ctx| ctx.all_reduce_sum(run)), vec![2 * run; 2]);
    }
}
