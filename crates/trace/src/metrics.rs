//! The unified metrics registry.
//!
//! Every telemetry surface in the tree (`ShardedStats`, `NetStats`,
//! `RunStatsRollup`, the stage breakdowns) grew its own snapshot shape;
//! the registry gives them one namespace to publish into and one
//! [`snapshot`](MetricsRegistry::snapshot) for harnesses and exporters
//! to read. Publishing is pull-shaped: a stats owner calls its
//! `register_into(&registry, prefix)` with a fresh snapshot whenever it
//! wants the registry current — the registry itself never reaches into
//! live locks.

use std::collections::BTreeMap;

use ddrs_check::TrackedMutex;

use crate::Histogram;

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic (or at least integral) counter.
    Counter(u64),
    /// An instantaneous floating-point reading.
    Gauge(f64),
    /// A full base-2 histogram snapshot (boxed: a histogram is two
    /// orders of magnitude larger than the scalar variants).
    Histogram(Box<Histogram>),
}

/// A named collection of counters, gauges and histograms with one
/// snapshot API.
///
/// Internally a [`TrackedMutex`] of lock class `metrics.registry` —
/// ordered after every serving-stack lock and before `trace.ring`, so
/// stats publication is legal under held stats guards while the
/// registry itself must not be held across recording calls that take
/// other serving locks.
pub struct MetricsRegistry {
    registry: TrackedMutex<BTreeMap<String, MetricValue>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry { registry: TrackedMutex::new("metrics.registry", BTreeMap::new()) }
    }

    /// Publish (insert or overwrite) a counter.
    pub fn set_counter(&self, name: &str, v: u64) {
        self.registry.lock().insert(name.to_string(), MetricValue::Counter(v));
    }

    /// Publish (insert or overwrite) a gauge.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.registry.lock().insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Publish (insert or overwrite) a histogram snapshot.
    pub fn set_histogram(&self, name: &str, h: Histogram) {
        self.registry.lock().insert(name.to_string(), MetricValue::Histogram(Box::new(h)));
    }

    /// Copy out every registered metric, name-ordered.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        self.registry.lock().clone()
    }

    /// Render the registry as a plain-text `name value` listing
    /// (histograms render as `count/mean/p50/p99/max`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.snapshot() {
            match v {
                MetricValue::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{name} {g:.3}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{name} count={} mean={:.1} p50<={} p99<={} max={}\n",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                )),
            }
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("metrics", &self.snapshot().len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_name_ordered_and_typed() {
        let reg = MetricsRegistry::new();
        reg.set_counter("b.count", 3);
        reg.set_gauge("a.rate", 1.5);
        let mut h = Histogram::default();
        h.record(10);
        reg.set_histogram("c.latency_us", h);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a.rate", "b.count", "c.latency_us"]);
        assert_eq!(snap["b.count"], MetricValue::Counter(3));
        match &snap["c.latency_us"] {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    #[test]
    fn overwrite_keeps_latest() {
        let reg = MetricsRegistry::new();
        reg.set_counter("x", 1);
        reg.set_counter("x", 2);
        assert_eq!(reg.snapshot()["x"], MetricValue::Counter(2));
    }

    #[test]
    fn render_lists_each_metric_once() {
        let reg = MetricsRegistry::new();
        reg.set_counter("ops", 7);
        reg.set_gauge("skew", 1.25);
        let text = reg.render();
        assert!(text.contains("ops 7"));
        assert!(text.contains("skew 1.250"));
    }
}
