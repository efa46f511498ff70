//! The per-shard scheduler thread: one `Machine`, executing the
//! sub-batches the router plans on the store versions the router hands
//! it.
//!
//! A worker is deliberately dumb: it owns its group's machine and
//! nothing else, receives fully planned jobs over a channel, executes
//! them with panic containment, and replies with the result plus the
//! run's [`RunStats`] so the router can account machine work per shard.
//! All cross-shard reasoning (planning, merging, ordering, the verdict
//! on an epoch, poisoning) lives in the router — the worker has no idea
//! siblings exist.
//!
//! The router holds every shard's committed store version. Each job
//! carries the version it works on: a read runs on it, and a mutating
//! job (`Write`, `SplitHalf`) builds a new version from it (a clone is
//! O(levels), every level shared) and replies with that version. The
//! router installs it only if the epoch or split commits, so an abort
//! needs no message here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

use ddrs_cgm::{panic_message, CgmError, Machine, RunStats};
use ddrs_rangetree::{BatchResults, DynamicDistRangeTree, Point, QueryBatch, Semigroup};
use ddrs_wal::EpochRecord;

/// What a read sub-batch does with its outcome: invoked on the worker
/// thread with the fused results (or the failure), the run's stats, and
/// whether the sub-batch reached the machine at all. Sub-batches that
/// shared one run (see [`ShardJob::Reads`]) all see `ran == true`, but
/// only the first is handed the run's stats — the rest get empty ones,
/// so absorbing every callback's stats counts the run once.
/// The router builds these to resolve tickets and account telemetry
/// without ever blocking on the read — reads gather asynchronously,
/// while writes and splits keep their synchronous reply channels
/// (the router *must* barrier on those to order the epoch protocol).
pub(crate) type ReadComplete<S> =
    Box<dyn FnOnce(Result<BatchResults<S>, String>, RunStats, bool) + Send>;

/// One planned unit of work for a shard group.
pub(crate) enum ShardJob<S: Semigroup, const D: usize> {
    /// Execute a fused read sub-batch on `tree`: at most one
    /// `Machine::run` (zero when the sub-batch or the store is empty),
    /// then hand the outcome to `complete` on this worker thread. Read
    /// sub-batches already queued behind this one ride the same run:
    /// every mutation is a round trip the router waits for, so the jobs
    /// queued between two of them all carry the one version the router
    /// held in between.
    Reads { tree: DynamicDistRangeTree<D>, batch: QueryBatch<S, D>, complete: ReadComplete<S> },
    /// Build one write sub-epoch's version from `tree`: delete
    /// `deletes`, then insert `inserts`, and reply with the result.
    /// `inject_fault` makes a simulated processor panic *between* the
    /// two cascades via [`Machine::try_run`] — the deterministic
    /// mid-epoch fault the test harness injects.
    Write {
        tree: DynamicDistRangeTree<D>,
        deletes: Vec<u32>,
        inserts: Vec<Point<D>>,
        inject_fault: bool,
        reply: mpsc::Sender<Reply<DynamicDistRangeTree<D>>>,
    },
    /// Extract one half of `tree`, split by the first coordinate (ties
    /// kept together), for migration to a sibling group. Replies with
    /// the donor's rest, the migrated points and the axis-0 boundary
    /// separating them from the points the donor kept.
    SplitHalf {
        tree: DynamicDistRangeTree<D>,
        upper: bool,
        reply: mpsc::Sender<Reply<(DynamicDistRangeTree<D>, Vec<Point<D>>, i64)>>,
    },
    /// Rebuild a store from the shard's write-ahead log: replay
    /// `records` into a fresh tree and reply with it. The records are
    /// folded into level point sets first and each level the log leaves
    /// occupied is built once, so the job's machine runs are the rebuilt
    /// store's levels, not the log's length.
    Recover {
        capacity: usize,
        records: Vec<EpochRecord<D>>,
        reply: mpsc::Sender<Reply<DynamicDistRangeTree<D>>>,
    },
    /// Hand the machine back and exit the thread.
    Stop { reply: mpsc::Sender<Reply<Machine>> },
}

/// A worker's answer to one synchronous job: which shard, the job's
/// outcome (a failure — a machine error or a contained panic — travels
/// as `Err` data), and the stats of exactly the machine runs it cost.
pub(crate) struct Reply<T> {
    pub shard: usize,
    pub result: Result<T, String>,
    pub stats: RunStats,
}

pub(crate) struct WorkerHandle<S: Semigroup, const D: usize> {
    pub tx: mpsc::Sender<ShardJob<S, D>>,
    pub join: JoinHandle<()>,
}

pub(crate) fn spawn_worker<S: Semigroup, const D: usize>(
    shard: usize,
    machine: Machine,
) -> WorkerHandle<S, D> {
    let (tx, rx) = mpsc::channel::<ShardJob<S, D>>();
    let join = std::thread::Builder::new()
        .name(format!("ddrs-shard-{shard}"))
        .spawn(move || worker_loop(shard, machine, &rx))
        // ddrs-check: allow(unwrap) — OS thread-spawn failure at service
        // construction; there is nothing to degrade gracefully yet.
        .expect("spawning a shard worker");
    WorkerHandle { tx, join }
}

/// Render a machine failure so the structured kind survives into the
/// string the router quarantines and reports (`ProcessorPanicked` is
/// what the fault-injection harness greps for).
fn cgm_error_string(e: &CgmError) -> String {
    match e {
        CgmError::ProcessorPanicked { rank, payload } => {
            format!("ProcessorPanicked: rank {rank}: {payload}")
        }
        other => other.to_string(),
    }
}

/// Run one job with panic containment and drain the machine's stats, so
/// the reply covers exactly this job's runs.
fn contain<T>(
    shard: usize,
    machine: &Machine,
    job: impl FnOnce() -> Result<T, String>,
) -> Reply<T> {
    let outcome = catch_unwind(AssertUnwindSafe(job));
    let stats = machine.take_stats();
    let result = outcome.unwrap_or_else(|payload| Err(panic_message(&*payload)));
    Reply { shard, result, stats }
}

fn worker_loop<S: Semigroup, const D: usize>(
    shard: usize,
    machine: Machine,
    rx: &mpsc::Receiver<ShardJob<S, D>>,
) {
    // Start clean so every reply's stats cover exactly its own job.
    machine.take_stats();
    // A non-read job that ended a read drain; it runs next.
    let mut held: Option<ShardJob<S, D>> = None;
    while let Some(job) = held.take().or_else(|| rx.recv().ok()) {
        match job {
            ShardJob::Reads { tree, mut batch, complete } => {
                let lens = |b: &QueryBatch<S, D>| {
                    let (c, a, r) = b.parts();
                    (c.len(), a.len(), r.len())
                };
                let mut riders = vec![(lens(&batch), complete)];
                while let Ok(next) = rx.try_recv() {
                    match next {
                        // The same version as `tree` (see `ShardJob::Reads`).
                        ShardJob::Reads { batch: more, complete, .. } => {
                            riders.push((lens(&more), complete));
                            batch.append(more);
                        }
                        other => {
                            held = Some(other);
                            break;
                        }
                    }
                }
                let Reply { result, stats, .. } = contain(shard, &machine, || {
                    batch.try_execute_dynamic(&machine, &tree).map_err(|e| cgm_error_string(&e))
                });
                let ran = stats.runs > 0;
                let mut stats = Some(stats);
                let mut split = result.map(|out| {
                    (out.counts.into_iter(), out.aggregates.into_iter(), out.reports.into_iter())
                });
                for ((nc, na, nr), complete) in riders {
                    let part = match &mut split {
                        Ok((counts, aggs, reports)) => Ok(BatchResults {
                            counts: counts.by_ref().take(nc).collect(),
                            aggregates: aggs.by_ref().take(na).collect(),
                            reports: reports.by_ref().take(nr).collect(),
                        }),
                        Err(e) => Err(e.clone()),
                    };
                    complete(part, stats.take().unwrap_or_default(), ran);
                }
            }
            ShardJob::Write { mut tree, deletes, inserts, inject_fault, reply } => {
                let _ = reply.send(contain(shard, &machine, || {
                    tree.delete_batch(&machine, &deletes).map_err(|e| e.to_string())?;
                    if inject_fault {
                        machine
                            .try_run(|ctx| {
                                if ctx.rank() == ctx.p() - 1 {
                                    panic!("injected fault: processor panic mid-epoch");
                                }
                                ctx.barrier();
                            })
                            .map_err(|e| cgm_error_string(&e))?;
                    }
                    tree.insert_batch(&machine, &inserts).map_err(|e| e.to_string())?;
                    Ok(tree)
                }));
            }
            ShardJob::SplitHalf { mut tree, upper, reply } => {
                let _ = reply.send(contain(shard, &machine, || {
                    let (moved, boundary) = split_half(&machine, &mut tree, upper)?;
                    Ok((tree, moved, boundary))
                }));
            }
            ShardJob::Recover { capacity, records, reply } => {
                let _ = reply.send(contain(shard, &machine, || {
                    ddrs_wal::replay_into_store(&machine, capacity, &records)
                }));
            }
            ShardJob::Stop { reply } => {
                let _ =
                    reply.send(Reply { shard, result: Ok(machine), stats: RunStats::default() });
                return;
            }
        }
    }
}

/// Extract the upper (or lower) half of the store by axis 0, keeping
/// equal first coordinates together so the result is a clean slab split:
/// every migrated point is `>= b` (upper) or `< b` (lower) on axis 0,
/// where `b` is the returned boundary.
fn split_half<const D: usize>(
    machine: &Machine,
    tree: &mut DynamicDistRangeTree<D>,
    upper: bool,
) -> Result<(Vec<Point<D>>, i64), String> {
    let mut pts: Vec<Point<D>> = tree.points().copied().collect();
    if pts.len() < 2 {
        return Err(format!("split impossible: shard holds {} point(s)", pts.len()));
    }
    pts.sort_unstable_by_key(|p| (p.coords[0], p.id));
    let mut b = pts[pts.len() / 2].coords[0];
    let moved_of = |b: i64| -> Vec<u32> {
        if upper {
            pts.iter().filter(|p| p.coords[0] >= b).map(|p| p.id).collect()
        } else {
            pts.iter().filter(|p| p.coords[0] < b).map(|p| p.id).collect()
        }
    };
    let mut moved_ids = moved_of(b);
    if moved_ids.is_empty() || moved_ids.len() == pts.len() {
        // The median coordinate is a plateau reaching one end of the
        // shard (upper: everything >= b; lower: nothing < b). The split
        // is still possible as long as a second distinct coordinate
        // exists: retreat the boundary to the smallest coordinate
        // strictly above the plateau, which peels a non-empty proper
        // subset off the right end (upper) or moves the plateau itself
        // (lower).
        match pts.iter().map(|p| p.coords[0]).find(|&c| c > b) {
            Some(next) => {
                b = next;
                moved_ids = moved_of(b);
            }
            None => {
                return Err(format!(
                    "split impossible: all {} points share the splitting coordinate {b}",
                    pts.len()
                ));
            }
        }
    }
    debug_assert!(!moved_ids.is_empty() && moved_ids.len() < pts.len());
    let moved = tree.extract_batch(machine, &moved_ids).map_err(|e| e.to_string())?;
    Ok((moved, b))
}

// The worker's side of the version protocol, driven over its channel
// with no router: every job carries its version, and a mutation replies
// with the one it built.
#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use ddrs_cgm::Machine;
    use ddrs_rangetree::{BatchResults, DynamicDistRangeTree, QueryBatch, Rect, Sum};

    use super::{spawn_worker, Reply, ShardJob, WorkerHandle};
    use crate::tests::pts;

    type Tree = DynamicDistRangeTree<2>;

    /// Send one job that replies and wait for its reply.
    fn ask<T>(
        w: &WorkerHandle<Sum, 2>,
        job: impl FnOnce(mpsc::Sender<Reply<T>>) -> ShardJob<Sum, 2>,
    ) -> Result<T, String> {
        let (tx, rx) = mpsc::channel();
        w.tx.send(job(tx)).unwrap();
        rx.recv().unwrap().result
    }

    fn write(w: &WorkerHandle<Sum, 2>, tree: &Tree, inject_fault: bool) -> Result<Tree, String> {
        let (tree, deletes, inserts) = (tree.clone(), vec![0, 1], pts(100..104));
        ask(w, |reply| ShardJob::Write { tree, deletes, inserts, inject_fault, reply })
    }

    /// The ids a read over everything reports on `tree`.
    fn read(w: &WorkerHandle<Sum, 2>, tree: &Tree) -> Vec<u32> {
        let (tx, rx) = mpsc::channel();
        let all = vec![Rect::new([0, 0], [800, 600])];
        let batch = QueryBatch::from_parts(Sum, vec![], vec![], all);
        let complete = Box::new(move |out: Result<BatchResults<Sum>, String>, _, _| {
            let _ = tx.send(out.unwrap().reports.remove(0));
        });
        w.tx.send(ShardJob::Reads { tree: tree.clone(), batch, complete }).unwrap();
        rx.recv().unwrap()
    }

    fn ids(tree: &Tree) -> Vec<u32> {
        let mut ids: Vec<u32> = tree.points().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids.len(), tree.len());
        ids
    }

    #[test]
    fn a_mutation_replies_with_the_version_it_built() {
        let machine = Machine::new(2).unwrap();
        let mut base = Tree::new(8);
        base.insert_batch(&machine, &pts(0..20)).unwrap();
        let w = spawn_worker(0, machine);
        let original: Vec<u32> = (0..20).collect();
        let written: Vec<u32> = (2..20).chain(100..104).collect();

        // A Write builds a new version and leaves its base as it was.
        let next = write(&w, &base, false).unwrap();
        assert_eq!(ids(&next), written);
        assert_eq!(ids(&base), original);

        // A read sees the version it carries, old or new, in any order.
        assert_eq!(read(&w, &next), written);
        assert_eq!(read(&w, &base), original);

        // SplitHalf hands back the donor's rest and the moved half.
        let (rest, moved, _) =
            ask(&w, |reply| ShardJob::SplitHalf { tree: base.clone(), upper: true, reply })
                .unwrap();
        assert!(!moved.is_empty() && !rest.is_empty());
        let mut both: Vec<u32> = ids(&rest).into_iter().chain(moved.iter().map(|p| p.id)).collect();
        both.sort_unstable();
        assert_eq!(both, original);
        assert_eq!(ids(&base), original);

        // A Write that fails between its two cascades replies the failure.
        let e = write(&w, &base, true).unwrap_err();
        assert!(e.contains("ProcessorPanicked"), "{e}");
        assert_eq!(read(&w, &base), original);

        ask(&w, |reply| ShardJob::Stop { reply }).unwrap();
        w.join.join().unwrap();
    }
}
