//! The write path: validate a run of writes sequentially, then commit
//! one sub-epoch per touched shard through `Router::commit` — which
//! builds, logs and installs them all, or aborts the whole epoch,
//! installing nothing and leaving no log record, with a shard whose
//! machine failed quarantined. Also the skew trigger that runs after a
//! committed epoch.

use std::collections::BTreeMap;
use std::mem::take;
use std::sync::atomic::Ordering;
use std::time::Instant;

use ddrs_client::{Commit, PlannedOp, Resolver, ServiceError};
use ddrs_rangetree::{check_ids, BuildError, DynamicDistRangeTree, Point, Semigroup};
use ddrs_trace::Stage;
use ddrs_wal::{EpochRecord, RecordKind};

use crate::router::{resolve_timed, settle, us_between, Change, Inner, Op, Router};
use crate::sched::Pending;
use crate::split::do_split;

/// Per-request validation verdict inside a write epoch.
enum Verdict {
    Commit,
    Rejected(BuildError),
    /// The request needed a poisoned shard; it fails before any routing
    /// and mutates nothing.
    Unavailable(String),
}

/// Validate a run of writes sequentially, scatter them as one sub-epoch
/// per touched shard, and either commit all of them under the global
/// sequence or abort the whole epoch (nothing is installed, and shards
/// whose machine failed are poisoned).
pub(crate) fn dispatch_write_epoch<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    router: &mut Router<S, D>,
    batch: Vec<Pending<Op<S, D>>>,
) {
    let t_carve = Instant::now();
    // Epoch delta: Some((pt, shard)) = live, inserted this epoch at
    // `shard`; None = dead. Ids absent defer to the committed versions.
    let mut delta: BTreeMap<u32, Option<(Point<D>, usize)>> = BTreeMap::new();
    let mut tree_deleted: Vec<Vec<u32>> = vec![Vec::new(); router.shards()];
    let mut outcomes: Vec<(Resolver<()>, Verdict, Instant)> = Vec::with_capacity(batch.len());

    for p in batch {
        ddrs_trace::transition(p.op.span(), Stage::Queue, Stage::Window);
        match p.op {
            Op::Client(PlannedOp::Insert(pts, r)) => {
                // The first offender in batch order decides: an id that
                // `check_ids` refuses, or a quarantined placement.
                let live = |ids: &[u32]| {
                    let held = owners(router, ids);
                    let live = |id: &u32| delta.get(id).map_or(held(id).is_some(), Option::is_some);
                    ids.iter().copied().filter(live).collect()
                };
                let refused = check_ids(&pts, live).err();
                let placements: Vec<usize> = pts.iter().map(|pt| router.part.place(pt)).collect();
                let before = refused.as_ref().map_or(pts.len(), |&(at, _)| at as usize);
                let unavailable = placements[..before].iter().find_map(|&sh| router.quarantine(sh));
                let verdict = match unavailable {
                    Some(quarantined) => Verdict::Unavailable(quarantined),
                    None => refused.map_or(Verdict::Commit, |(_, e)| Verdict::Rejected(e.into())),
                };
                if matches!(verdict, Verdict::Commit) {
                    for (pt, sh) in pts.into_iter().zip(placements) {
                        delta.insert(pt.id, Some((pt, sh)));
                    }
                }
                outcomes.push((r, verdict, p.submitted));
            }
            Op::Client(PlannedOp::Delete(ids, r)) => {
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                let owner = owners(router, &sorted);
                // First pass: the delete must not touch a poisoned
                // shard; if it would, it fails atomically (no partial
                // application anywhere).
                let bad = ids.iter().find_map(|id| match delta.get(id) {
                    Some(_) => None,
                    None => owner(id).and_then(|sh| router.quarantine(sh)),
                });
                if let Some(quarantined) = bad {
                    outcomes.push((r, Verdict::Unavailable(quarantined), p.submitted));
                    continue;
                }
                for id in ids {
                    match delta.get(&id) {
                        Some(Some(_)) => {
                            delta.insert(id, None);
                        }
                        Some(None) => {}
                        None => {
                            if let Some(sh) = owner(&id) {
                                tree_deleted[sh].push(id);
                                delta.insert(id, None);
                            }
                        }
                    }
                }
                outcomes.push((r, Verdict::Commit, p.submitted));
            }
            _ => unreachable!("carve() mixed non-writes into a write run"),
        }
    }

    // Route the net effect: one sub-epoch per touched shard.
    let mut inserts: Vec<Vec<Point<D>>> = vec![Vec::new(); router.shards()];
    for (pt, sh) in delta.values().flatten() {
        inserts[*sh].push(*pt);
    }
    let involved: Vec<usize> = (0..router.shards())
        .filter(|&s| !tree_deleted[s].is_empty() || !inserts[s].is_empty())
        .collect();

    // `end_stage` is the lifecycle stage the ops' spans are in when the
    // epoch's fate is decided: Window on the validation-only path (no
    // machine ever ran), Merge once a machine run happened.
    let resolve_all = |outcomes: Vec<(Resolver<()>, Verdict, Instant)>,
                       router: &mut Router<S, D>,
                       epoch_error: Option<&String>,
                       end_stage: Stage| {
        for (r, verdict, _) in outcomes {
            let outcome = match (epoch_error, verdict) {
                // The epoch aborted: nothing in it committed, and a
                // sequential rejection computed against the aborted
                // prefix is void too.
                (Some(e), Verdict::Commit | Verdict::Rejected(_)) => {
                    Err(ServiceError::Machine(format!("write epoch aborted: {e}")))
                }
                (None, Verdict::Commit) => Ok(Commit { value: (), seq: router.take_seq() }),
                (None, Verdict::Rejected(e)) => Err(ServiceError::Rejected(e)),
                (_, Verdict::Unavailable(msg)) => Err(ServiceError::Machine(msg)),
            };
            settle(r, end_stage, outcome);
        }
    };

    // Count the run completed and record its latency and always-on
    // stage breakdown: queue and window for every op, machine-run once a
    // machine ran (`gathered`).
    let account = |outcomes: &[(Resolver<()>, Verdict, Instant)],
                   window_end: Instant,
                   gathered: Option<Instant>| {
        let mut st = inner.stats.lock();
        st.completed += outcomes.len() as u64;
        for (_, _, submitted) in outcomes {
            st.latency_us.record(submitted.elapsed().as_micros() as u64);
            st.stages.queue.record(us_between(*submitted, t_carve));
            st.stages.window.record(us_between(t_carve, window_end));
            if let Some(gathered) = gathered {
                st.stages.machine_run.record(us_between(window_end, gathered));
            }
        }
    };

    if involved.is_empty() {
        // Nothing reaches any machine: validation-only outcomes (empty
        // batches, rejections, no-op deletes) still commit/fail in order.
        account(&outcomes, Instant::now(), None);
        resolve_all(outcomes, router, None, Stage::Window);
        router.publish(inner);
        return;
    }

    // Every involved shard's log record carries the full verdict list —
    // the epoch is global — plus its own sub-batches.
    let wal_verdicts: Vec<ddrs_wal::Verdict> = outcomes
        .iter()
        .map(|(_, v, _)| match v {
            Verdict::Commit => ddrs_wal::Verdict::Commit,
            Verdict::Rejected(_) => ddrs_wal::Verdict::Rejected,
            Verdict::Unavailable(_) => ddrs_wal::Verdict::Unavailable,
        })
        .collect();
    // The whole run shares the epoch's fate — even a sequentially
    // rejected op's resolution waits on the machine run — so every span
    // advances through MachineRun together.
    let t_scatter = Instant::now();
    for (r, _, _) in &outcomes {
        ddrs_trace::transition(r.span(), Stage::Window, Stage::MachineRun);
    }
    // The jobs get copies (consuming any injected faults): the batches
    // go on to the log records.
    let changes: Vec<_> = involved
        .iter()
        .map(|&s| Change {
            shard: s,
            base: router.versions[s].clone(),
            batches: vec![(tree_deleted[s].clone(), inserts[s].clone())],
            inject_fault: inner.faults[s].swap(false, Ordering::SeqCst),
        })
        .collect();
    let first_seq = router.next_seq;
    let records = involved.iter().map(|&s| {
        let (deletes, inserts) = (take(&mut tree_deleted[s]), take(&mut inserts[s]));
        let verdicts = wal_verdicts.clone();
        (s, EpochRecord { kind: RecordKind::Epoch, first_seq, verdicts, deletes, inserts })
    });
    // Log-before-resolve: a committed epoch reaches every involved
    // shard's WAL before any of its tickets resolve, so a crash between
    // commit and resolution never yields a response the log cannot
    // reproduce. A failed build or append aborts the epoch: nothing is
    // installed, no log carries its record, and a shard whose machine
    // failed is quarantined.
    let mut t_gather = t_scatter;
    let epoch_error = router
        .commit(inner, changes, records.collect(), |runs| {
            t_gather = Instant::now();
            for (r, _, _) in &outcomes {
                ddrs_trace::transition(r.span(), Stage::MachineRun, Stage::Merge);
            }
            if runs > 0 {
                let mut st = inner.stats.lock();
                st.write_epochs += 1;
                st.write_shards_touched += involved.len() as u64;
            }
            account(&outcomes, t_scatter, Some(t_gather));
        })
        .err();
    if epoch_error.is_none() {
        maybe_rebalance(inner, router);
    }
    // Publish before resolution: a client that has observed its write
    // response must also observe the epoch's effects in the telemetry —
    // a skew-triggered migration it caused, or the quarantine behind its
    // abort.
    router.publish(inner);
    resolve_timed(inner, t_gather, outcomes.len(), || {
        resolve_all(outcomes, router, epoch_error.as_ref(), Stage::Merge);
    });
}

/// The shard whose committed version holds each of `ids` (ascending):
/// one probe of every shard's version, a poisoned shard's (its last
/// committed one) included.
fn owners<S: Semigroup, const D: usize>(
    router: &Router<S, D>,
    ids: &[u32],
) -> impl Fn(&u32) -> Option<usize> {
    let on = |(s, version): (usize, &DynamicDistRangeTree<D>)| {
        version.live_ids(ids).into_iter().map(move |id| (id, s))
    };
    let mut held: Vec<(u32, usize)> = router.versions.iter().enumerate().flat_map(on).collect();
    held.sort_unstable();
    move |id| held.binary_search_by_key(id, |&(id, _)| id).ok().map(|k| held[k].1)
}

/// Run the skew trigger after a committed write epoch (the caller
/// publishes).
fn maybe_rebalance<S: Semigroup, const D: usize>(inner: &Inner<S, D>, router: &mut Router<S, D>) {
    if inner.cfg.rebalance_factor <= 1.0 || router.shards() < 2 {
        return;
    }
    let lens = router.versions.iter().map(|v| v.len());
    let Some((donor, max)) = lens.clone().enumerate().max_by_key(|&(_, n)| n) else {
        return;
    };
    // An empty store never trips the trigger: 0 <= factor × 0.
    let mean = lens.sum::<usize>() as f64 / router.shards() as f64;
    if max < inner.cfg.rebalance_min || (max as f64) <= inner.cfg.rebalance_factor * mean {
        return;
    }
    // A failed automatic split (no healthy sibling, degenerate
    // coordinates) is not an error — the trigger just stays armed.
    let _ = do_split(inner, router, donor);
}
