//! The split migration: move half of a shard's points to a lighter
//! sibling, between dispatches. The donor's rest and the recipient's
//! landing are built as new versions and installed together once both
//! logs hold the migration; a split that fails anywhere before that
//! installs nothing and logs nothing.

use ddrs_rangetree::Semigroup;
use ddrs_wal::{EpochRecord, RecordKind};

use crate::router::{sole, Inner, Router};
use crate::worker::ShardJob;
use crate::SplitReport;

/// Migrate half of `donor`'s points to a lighter sibling. Runs between
/// dispatches on the router thread, so no in-flight request observes a
/// half-migrated store and the global commit order is untouched.
pub(crate) fn do_split<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    router: &mut Router<S, D>,
    donor: usize,
) -> Result<SplitReport, String> {
    if router.shards() < 2 {
        return Err("split impossible: only one shard".into());
    }
    if let Some(reason) = &router.poisoned[donor] {
        return Err(format!("split impossible: donor {donor} is poisoned: {reason}"));
    }
    if router.versions[donor].len() < 2 {
        return Err(format!(
            "split impossible: donor {donor} holds {} point(s)",
            router.versions[donor].len()
        ));
    }
    // Pick the recipient: under the range policy only an adjacent shard
    // keeps slabs contiguous; under hash placement any shard works, so
    // take the lightest.
    let candidates: Vec<usize> = if router.part.bounds().is_some() {
        [donor.checked_sub(1), (donor + 1 < router.shards()).then_some(donor + 1)]
            .into_iter()
            .flatten()
            .filter(|&s| router.poisoned[s].is_none())
            .collect()
    } else {
        (0..router.shards()).filter(|&s| s != donor && router.poisoned[s].is_none()).collect()
    };
    let Some(&to) = candidates.iter().min_by_key(|&&s| router.versions[s].len()) else {
        return Err(format!("split impossible: donor {donor} has no healthy sibling"));
    };
    let upper = to > donor;

    // Extraction failures travel as `Err` data in the reply.
    let extraction = sole(router.round_trip(inner, &[donor], |_, reply| ShardJob::SplitHalf {
        tree: router.versions[donor].clone(),
        upper,
        reply,
    }));
    let (rest, moved, boundary) = match extraction.result {
        Ok(ok) => ok,
        Err(e) => {
            if !e.starts_with("split impossible") {
                // The donor's machine failed mid-rebuild.
                router.poisoned[donor] = Some(format!("split extraction failed: {e}"));
            }
            return Err(e);
        }
    };

    // Land the migrated points on the recipient.
    let landing = sole(router.round_trip(inner, &[to], |_, reply| ShardJob::Write {
        tree: router.versions[to].clone(),
        deletes: Vec::new(),
        inserts: moved.clone(),
        inject_fault: false,
        reply,
    }));
    let landed = match landing.result {
        Ok(landed) => landed,
        Err(e) => {
            router.poisoned[to] = Some(format!("migration landing failed: {e}"));
            return Err(format!("split failed landing on shard {to}: {e}"));
        }
    };

    // Log the migration on both shards' WALs before the routing state
    // changes (the same log-before-resolve discipline as write epochs:
    // by the time the split ticket resolves, both logs reproduce their
    // stores). A failed append leaves neither log holding the migration.
    let migrated_ids: Vec<u32> = moved.iter().map(|p| p.id).collect();
    let seq = router.next_seq;
    router
        .log(vec![
            (donor, EpochRecord::event(RecordKind::MigrateOut, seq, migrated_ids, Vec::new())),
            (to, EpochRecord::event(RecordKind::MigrateIn, seq, Vec::new(), moved.clone())),
        ])
        .map_err(|e| format!("split failed: {e}"))?;

    // Commit the migration: the two versions carry the moved ids. Under
    // the range policy the shifted boundary re-describes residency
    // exactly; under hash placement the moved points no longer live where
    // the placement mix says, so degenerate-read routing must fall back
    // to full fan-out from now on (a rect names no id to probe for).
    router.install(donor, rest);
    router.install(to, landed);
    if router.part.bounds().is_some() {
        debug_assert!(donor.abs_diff(to) == 1, "range split picked a non-adjacent sibling");
        router.part.shift_boundary(donor, to, boundary);
    } else {
        router.part.note_hash_migration();
    }
    {
        let mut st = inner.stats.lock();
        st.rebalances += 1;
        st.rebalance_moved += moved.len() as u64;
    }
    Ok(SplitReport { from: donor, to, moved: moved.len(), boundary })
}
