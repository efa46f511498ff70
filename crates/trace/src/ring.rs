//! Per-thread bounded ring buffers holding recorded span events.
//!
//! Each recording thread owns one ring, registered in a global list so
//! [`Trace::capture`](crate::Trace::capture) can snapshot them all. The
//! hot path (one push) takes exactly one uncontended `trace.ring` lock
//! and allocates nothing once the ring is full-size; when the ring
//! wraps, the oldest events are overwritten (bounded memory beats
//! complete history for an always-on recorder).
//!
//! Lock discipline: both the per-thread rings and the global list share
//! the innermost class `trace.ring`, and no code path acquires one
//! while holding the other (registration snapshots the list guard
//! closed before any ring is locked) — same-class nesting would be an
//! order cycle.

use std::sync::Arc;

use ddrs_check::TrackedMutex;

use crate::Event;

/// Events retained per thread before the ring wraps. At ~5 stage
/// boundaries per request op a ring holds the most recent ~6k ops of
/// its thread, far beyond what any scenario in the tree inspects.
const RING_CAPACITY: usize = 32 * 1024;

pub(crate) struct Ring {
    /// Ring storage; grows up to [`RING_CAPACITY`], then wraps.
    events: Vec<Event>,
    /// Next write index once the ring is saturated.
    head: usize,
}

impl Ring {
    const fn new() -> Ring {
        Ring { events: Vec::new(), head: 0 }
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % RING_CAPACITY;
        }
    }
}

/// All rings ever registered, including those of exited threads (the
/// `Arc` keeps a dead thread's events capturable).
static RINGS: TrackedMutex<Vec<Arc<TrackedMutex<Ring>>>> =
    TrackedMutex::new("trace.ring", Vec::new());

thread_local! {
    static LOCAL: Arc<TrackedMutex<Ring>> = {
        let ring = Arc::new(TrackedMutex::new("trace.ring", Ring::new()));
        RINGS.lock().push(Arc::clone(&ring));
        ring
    };
}

/// Append one event to the calling thread's ring.
pub(crate) fn push(ev: Event) {
    // A record issued while the thread-local is being torn down (e.g.
    // a Drop during thread exit) is silently dropped rather than
    // re-initialising the ring.
    let _ = LOCAL.try_with(|ring| ring.lock().push(ev));
}

/// Copy every ring's events (no draining: concurrent captures observe
/// each other's spans rather than stealing them).
pub(crate) fn snapshot() -> Vec<Event> {
    let handles: Vec<Arc<TrackedMutex<Ring>>> = RINGS.lock().clone();
    let mut out = Vec::new();
    for ring in handles {
        out.extend_from_slice(&ring.lock().events);
    }
    out
}
