//! The split migration: move half of a shard's points to a lighter
//! sibling, between dispatches. The router picks the half from the
//! donor's committed version and refuses an impossible split before any
//! worker hears of it; the donor's rest and the recipient's landing are
//! then one `Router::commit`: built in parallel, one `Apply` each, and
//! installed together once both logs hold the migration. A split that
//! fails anywhere before that installs nothing and logs nothing.

use ddrs_rangetree::{DynamicDistRangeTree, Point, Semigroup};
use ddrs_wal::{EpochRecord, RecordKind};

use crate::router::{Change, Inner, Router};
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
    let (moved, boundary) = halve(&router.versions[donor], to > donor)?;

    // Build the donor's rest and the recipient's landing in parallel (a
    // failed build poisons only its own shard) and log the migration on
    // both shards' WALs before the routing state changes (the same
    // log-before-resolve discipline as write epochs: by the time the
    // split ticket resolves, both logs reproduce their stores). A split
    // that fails installs nothing, and neither log holds the migration.
    let migrated_ids: Vec<u32> = moved.iter().map(|p| p.id).collect();
    let seq = router.next_seq;
    let change = |shard, batch| Change {
        shard,
        base: router.versions[shard].clone(),
        batches: vec![batch],
        inject_fault: false,
    };
    let changes = vec![
        change(donor, (migrated_ids.clone(), Vec::new())),
        change(to, (Vec::new(), moved.clone())),
    ];
    let records = vec![
        (donor, EpochRecord::event(RecordKind::MigrateOut, seq, migrated_ids, Vec::new())),
        (to, EpochRecord::event(RecordKind::MigrateIn, seq, Vec::new(), moved.clone())),
    ];
    router.commit(inner, changes, records, |_| {}).map_err(|e| format!("split failed: {e}"))?;

    // The two committed versions carry the moved ids. Under the range
    // policy the shifted boundary re-describes residency exactly; under
    // hash placement the moved points no longer live where the placement
    // mix says, so degenerate-read routing must fall back to full fan-out
    // from now on (a rect names no id to probe for).
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

/// The upper (or lower) half of `donor`'s points by axis 0, equal first
/// coordinates kept together, and the boundary `b` that separates them:
/// every moved point is `>= b` (upper) or `< b` (lower) on axis 0, and
/// every point the donor keeps is on the other side. Reads the version
/// only, which must hold a point.
pub(crate) fn halve<const D: usize>(
    donor: &DynamicDistRangeTree<D>,
    upper: bool,
) -> Result<(Vec<Point<D>>, i64), String> {
    let mut pts: Vec<Point<D>> = donor.points().copied().collect();
    pts.sort_unstable_by_key(|p| (p.coords[0], p.id));
    let median = pts[pts.len() / 2].coords[0];
    // The first point at or past the median coordinate. When the median
    // is a plateau reaching the lowest coordinate, that is every point, so
    // the boundary retreats to the smallest coordinate strictly above the
    // plateau: the upper side then peels a proper subset off the right
    // end, and the lower side moves the plateau itself.
    let k = match pts.partition_point(|p| p.coords[0] < median) {
        0 => pts.partition_point(|p| p.coords[0] <= median),
        k => k,
    };
    if k == pts.len() {
        return Err(format!(
            "split impossible: all {} points share the splitting coordinate {median}",
            pts.len()
        ));
    }
    let boundary = pts[k].coords[0];
    let moved = if upper {
        pts.split_off(k)
    } else {
        pts.truncate(k);
        pts
    };
    Ok((moved, boundary))
}
