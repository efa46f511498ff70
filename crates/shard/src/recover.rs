//! Shard recovery: rebuild a quarantined shard from its write-ahead log
//! and return it to service, between dispatches. The rebuilt store
//! becomes the shard's version on the router, in place of its last
//! committed one.

use std::time::Instant;

use ddrs_rangetree::{DynamicDistRangeTree, Semigroup};
use ddrs_wal::LogTail;

use crate::router::{Change, Inner, Router};
use crate::RecoveryReport;

/// Rebuild quarantined shard `shard` from its write-ahead log and
/// return it to service. Runs between dispatches on the router thread
/// (recovery is an exclusive kind), so no in-flight request observes a
/// half-rebuilt shard:
///
/// 1. decode the shard's log, stopping cleanly at any torn or corrupt
///    tail — exactly the committed records survive — and cut such a
///    tail off the log, so the epochs the rebuilt shard commits next are
///    appended behind the last good record, not behind the damage;
/// 2. fold them onto an empty store, build it on the shard's own
///    machine and install it as the shard's version, retiring the
///    poisoned one: one `Router::commit` of one `Apply` job (the fold
///    `ddrs_wal::replay_into_store` runs) and no records, since the log
///    already holds them. The versions are all the router knows of where
///    an id lives (a write probes their id columns), so there is no id
///    index to rebuild, and the ids of records lost to a damaged tail are
///    simply absent;
/// 3. clear the quarantine and republish health.
///
/// On any failure the shard stays quarantined, its version is
/// untouched, and the call can be retried.
pub(crate) fn do_recover<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    router: &mut Router<S, D>,
    shard: usize,
) -> Result<RecoveryReport, String> {
    if router.poisoned[shard].is_none() {
        return Err(format!("recover impossible: shard {shard} is not poisoned"));
    }
    let t0 = Instant::now();
    let (records, tail) =
        router.wals[shard].replay().map_err(|e| format!("recover failed: wal unreadable: {e}"))?;
    let replayed = records.len();
    let clean_tail = matches!(tail, LogTail::Clean);
    if let LogTail::Torn { offset } | LogTail::Corrupt { offset, .. } = tail {
        router.wals[shard]
            .truncate(offset as u64, replayed as u64)
            .map_err(|e| format!("recover failed: cannot cut the damaged log tail: {e}"))?;
    }
    // A refused batch is named by its record's index in the log. A
    // refused replay re-poisons the shard with the replay's error.
    let batches = records.into_iter().map(|rec| (rec.deletes, rec.inserts)).collect();
    let base = DynamicDistRangeTree::new(router.capacity);
    let change = Change { shard, base, batches, inject_fault: false };
    router
        .commit(inner, vec![change], Vec::new(), |_| {})
        .map_err(|e| format!("recover failed: wal replay: {e}"))?;
    let live = router.versions[shard].len();
    router.poisoned[shard] = None;
    let duration = t0.elapsed();
    {
        let mut st = inner.stats.lock();
        st.recoveries += 1;
        st.recovered_points += live as u64;
        st.recovery_us.record(duration.as_micros() as u64);
        // The rebuild is the recovery's window work — surfaced through
        // the always-on breakdown so the metrics registry sees the
        // duration without span recording.
        st.stages.window.record(duration.as_micros() as u64);
    }
    Ok(RecoveryReport {
        shard,
        replayed_records: replayed,
        live_points: live,
        clean_tail,
        duration,
    })
}
