//! Known-bad fixture for the `blocking-while-locked` lint: parks on a
//! channel receive while a tracked guard is live. Not compiled —
//! consumed textually by `tests/check_lints.rs`.

fn recv_under_guard(inner: &Inner, rx: &Receiver<u32>) {
    let st = inner.stats.lock();
    let _reply = rx.recv();
    drop(st);
}

fn recv_after_release_is_fine(inner: &Inner, rx: &Receiver<u32>) {
    let st = inner.stats.lock();
    drop(st);
    let _reply = rx.recv();
}

fn new_inner() -> Inner {
    Inner { stats: TrackedMutex::new("shard.stats", Stats::default()) }
}
