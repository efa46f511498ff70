//! Known-bad fixture for the `lock-order` lint: acquires `stats`
//! (rank 1) and then nests `sched.queue` (rank 0) inside it, inverting
//! the canonical order. Not compiled — consumed textually by
//! `tests/check_lints.rs`.

fn inverted_nesting(inner: &Inner) {
    let st = inner.stats.lock();
    let q = inner.queue.lock();
    drop(q);
    drop(st);
}

fn consistent_nesting_is_fine(inner: &Inner) {
    let q = inner.queue.lock();
    let st = inner.stats.lock();
    drop(st);
    drop(q);
}

fn new_inner() -> Inner {
    Inner {
        queue: TrackedMutex::new("sched.queue", VecDeque::new()),
        stats: TrackedMutex::new("shard.stats", Stats::default()),
    }
}
