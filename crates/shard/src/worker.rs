//! The per-shard scheduler thread: one `Machine`, executing the
//! sub-batches the router plans on the store versions the router hands
//! it.
//!
//! A worker is deliberately dumb: it owns its group's machine and
//! nothing else, receives fully planned jobs over a channel, executes
//! them with panic containment, and replies with the result plus the
//! run's [`RunStats`] so the router can account machine work per shard.
//! All cross-shard reasoning (planning, merging, ordering, the verdict
//! on an epoch, which half of a shard a split moves, poisoning) lives in
//! the router — the worker has no idea siblings exist.
//!
//! A worker runs two kinds of job, each carrying the version it works
//! on: `Reads` runs a read sub-batch on it, and `Apply` folds its
//! batches onto it (a clone is O(levels), every level shared), builds
//! once and replies with the new version. Every mutation is `Apply`
//! jobs sent by `Router::commit`, which installs the replies only if the
//! whole commit succeeds, so an abort needs no message here. A worker
//! leaves its loop when the router drops its channel, after the jobs
//! already queued, and its thread hands the machine back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

use ddrs_cgm::{panic_message, CgmError, Machine, RunStats};
use ddrs_rangetree::{BatchResults, DynamicDistRangeTree, Point, QueryBatch, Semigroup};

/// What a read sub-batch does with its outcome: invoked on the worker
/// thread with the fused results (or the failure), the run's stats, and
/// whether the sub-batch reached the machine at all. Sub-batches that
/// shared one run (see [`ShardJob::Reads`]) all see `ran == true`, but
/// only the first is handed the run's stats — the rest get empty ones,
/// so absorbing every callback's stats counts the run once.
/// The router builds these so it never blocks on a read; an `Apply`
/// keeps a reply channel, since the router orders its commits on it.
pub(crate) type ReadComplete<S> =
    Box<dyn FnOnce(Result<BatchResults<S>, String>, RunStats, bool) + Send>;

/// One planned unit of work for a shard group.
pub(crate) enum ShardJob<S: Semigroup, const D: usize> {
    /// Execute a fused read sub-batch on `tree`: at most one
    /// `Machine::run` (zero when the sub-batch or the store is empty),
    /// then hand the outcome to `complete` on this worker thread. Read
    /// sub-batches already queued behind this one ride the same run:
    /// every mutation is a `Router::commit` the router waits for, so the jobs
    /// queued between two of them all carry the one version the router
    /// held in between.
    Reads { tree: DynamicDistRangeTree<D>, batch: QueryBatch<S, D>, complete: ReadComplete<S> },
    /// Fold `batches` of `(deletes, inserts)` onto `tree`, each batch's
    /// deletes before its inserts, build every level the fold left
    /// without a tree and reply with the new version; a refused batch
    /// replies its index. `inject_fault` makes a simulated processor
    /// panic via [`Machine::try_run`] before the fold: the deterministic
    /// mid-epoch fault the test harness injects.
    Apply {
        tree: DynamicDistRangeTree<D>,
        batches: Vec<(Vec<u32>, Vec<Point<D>>)>,
        inject_fault: bool,
        reply: mpsc::Sender<Reply<DynamicDistRangeTree<D>>>,
    },
}

/// A worker's answer to one job: which shard, the job's outcome (a
/// failure — a machine error or a contained panic — travels as `Err`
/// data), and the stats of exactly the machine runs it cost.
pub(crate) struct Reply<T> {
    pub shard: usize,
    pub result: Result<T, String>,
    pub stats: RunStats,
}

pub(crate) struct WorkerHandle<S: Semigroup, const D: usize> {
    pub tx: mpsc::Sender<ShardJob<S, D>>,
    /// Hands the machine back once the worker has left its loop.
    pub join: JoinHandle<Machine>,
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
) -> Machine {
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
            ShardJob::Apply { tree, batches, inject_fault, reply } => {
                let _ = reply.send(contain(shard, &machine, || {
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
                    let batches =
                        batches.iter().map(|(deletes, inserts)| (&deletes[..], &inserts[..]));
                    tree.apply(&machine, batches)
                        .map_err(|(at, e)| format!("batch {at} refused: {e}"))
                }));
            }
        }
    }
    machine
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
        let (tree, batches) = (tree.clone(), vec![(vec![0, 1], pts(100..104))]);
        ask(w, |reply| ShardJob::Apply { tree, batches, inject_fault, reply })
    }

    /// Queue a read over everything on `tree`; the ids it reports arrive
    /// on the returned channel.
    fn send_read(w: &WorkerHandle<Sum, 2>, tree: &Tree) -> mpsc::Receiver<Vec<u32>> {
        let (tx, rx) = mpsc::channel();
        let all = vec![Rect::new([0, 0], [800, 600])];
        let batch = QueryBatch::from_parts(Sum, vec![], vec![], all);
        let complete = Box::new(move |out: Result<BatchResults<Sum>, String>, _, _| {
            let _ = tx.send(out.unwrap().reports.remove(0));
        });
        w.tx.send(ShardJob::Reads { tree: tree.clone(), batch, complete }).unwrap();
        rx
    }

    /// The ids a read over everything reports on `tree`.
    fn read(w: &WorkerHandle<Sum, 2>, tree: &Tree) -> Vec<u32> {
        send_read(w, tree).recv().unwrap()
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

        // An Apply builds a new version and leaves its base as it was.
        let next = write(&w, &base, false).unwrap();
        assert_eq!(ids(&next), written);
        assert_eq!(ids(&base), original);

        // A read sees the version it carries, old or new, in any order.
        assert_eq!(read(&w, &next), written);
        assert_eq!(read(&w, &base), original);

        // An Apply whose injected fault fires before the fold replies the
        // failure.
        let e = write(&w, &base, true).unwrap_err();
        assert!(e.contains("ProcessorPanicked"), "{e}");
        assert_eq!(read(&w, &base), original);

        // A refused batch is named by its index; its version is untouched.
        let batches = vec![(vec![], pts(200..201)), (vec![], pts(5..6))];
        let e = ask(&w, |reply| ShardJob::Apply {
            tree: base.clone(),
            batches,
            inject_fault: false,
            reply,
        })
        .unwrap_err();
        assert_eq!(e, "batch 1 refused: duplicate point id 5");
        assert_eq!(read(&w, &base), original);

        drop(w.tx);
        w.join.join().unwrap();
    }

    /// A worker leaves its loop when the router drops its channel, only
    /// after the jobs already queued, and hands its machine back.
    #[test]
    fn a_closed_channel_stops_the_worker_after_its_queued_jobs() {
        let machine = Machine::new(2).unwrap();
        let mut tree = Tree::new(8);
        tree.insert_batch(&machine, &pts(0..20)).unwrap();
        let w = spawn_worker(0, machine);
        let answer = send_read(&w, &tree);
        drop(w.tx);
        let machine = w.join.join().unwrap();
        assert_eq!(machine.p(), 2);
        assert_eq!(answer.try_recv().unwrap(), (0..20).collect::<Vec<u32>>());
    }
}
