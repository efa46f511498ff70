//! The benchmark's own spans: recorded around its calls into each
//! layer's public functions, kept in memory, written as chrome-trace
//! JSON when the run ends. Nothing inside the crates is instrumented.
//!
//! One [`SpanBuf`] per harness thread, so recording takes no lock; the
//! buffers are merged into a [`SpanSet`] after the threads are joined.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanBuf {
    epoch: Instant,
    on: bool,
    thread: u32,
    spans: Vec<Span>,
}

/// Handle of an open span; `None` inside when recording is off.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl SpanBuf {
    /// `epoch` is shared by every buffer of a run so their clocks agree.
    pub fn new(epoch: Instant, thread: u32, on: bool) -> Self {
        SpanBuf { epoch, on, thread, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Open, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now();
        self.spans.push(Span { name, parent: parent.0, req, start_ns, end_ns: start_ns });
        Open(Some(self.spans.len() - 1))
    }

    pub fn root(&mut self, name: &'static str, req: u64) -> Open {
        self.open(name, Open(None), req)
    }

    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.now();
        }
    }
}

/// Every span of a run, per recording thread.
#[derive(Default)]
pub struct SpanSet {
    threads: Vec<(u32, Vec<Span>)>,
}

impl SpanSet {
    pub fn absorb(&mut self, buf: SpanBuf) {
        if !buf.spans.is_empty() {
            self.threads.push((buf.thread, buf.spans));
        }
    }

    pub fn len(&self) -> usize {
        self.threads.iter().map(|(_, s)| s.len()).sum()
    }

    /// Per span name: `(count, mean duration µs, mean self time µs)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (_, spans) in &self.threads {
            let selfs = self_times(spans);
            for (s, own) in spans.iter().zip(selfs) {
                let e = acc.entry(s.name).or_default();
                e.0 += 1;
                e.1 += s.end_ns - s.start_ns;
                e.2 += own;
            }
        }
        acc.into_iter()
            .map(|(k, (n, dur, own))| {
                (k, (n, dur as f64 / n as f64 / 1e3, own as f64 / n as f64 / 1e3))
            })
            .collect()
    }

    /// Mean self time of the spans called `name`, in µs (0 when none).
    pub fn self_us(&self, name: &str) -> f64 {
        self.summary().get(name).map_or(0.0, |&(_, _, own)| own)
    }

    /// Chrome-trace ("X" complete events); `args` carry the request id
    /// and the parent span's name so a viewer can follow one request.
    pub fn chrome_trace(&self) -> Json {
        let mut events = Vec::with_capacity(self.len());
        for (thread, spans) in &self.threads {
            for s in spans {
                let parent = s.parent.map_or(Json::Null, |p| Json::str(spans[p].name));
                events.push(Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(*thread))),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args", Json::obj(vec![("req", Json::Num(s.req as f64)), ("parent", parent)])),
                ]));
            }
        }
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}

/// A span's self time is its duration minus the part of that interval
/// its direct children cover (children of one parent on one thread do
/// not overlap, so their durations add).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, req: 7, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("request", None, 0, 100),
            span("submit", Some(0), 10, 30),
            span("wait", Some(0), 30, 90),
            span("encode", Some(1), 12, 20),
        ];
        // request: 100 − (20 + 60); submit: 20 − 8; leaves keep it all.
        assert_eq!(self_times(&spans), vec![20, 12, 60, 8]);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped_to_it() {
        let spans = [span("request", None, 0, 50), span("wait", Some(0), 40, 80)];
        assert_eq!(self_times(&spans), vec![40, 40]);
    }

    #[test]
    fn disabled_buffer_records_nothing_and_summary_groups_by_name() {
        let epoch = Instant::now();
        let mut off = SpanBuf::new(epoch, 0, false);
        let r = off.root("request", 1);
        off.close(r);
        let mut on = SpanBuf::new(epoch, 1, true);
        for req in 0..3 {
            let r = on.root("request", req);
            let c = on.open("submit", r, req);
            on.close(c);
            on.close(r);
        }
        let mut set = SpanSet::default();
        set.absorb(off);
        set.absorb(on);
        assert_eq!(set.len(), 6);
        let summary = set.summary();
        assert_eq!(summary["request"].0, 3);
        assert_eq!(summary["submit"].0, 3);
        let trace = set.chrome_trace();
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(events[1].get("args").unwrap().get("parent").unwrap().as_str(), Some("request"));
    }
}
