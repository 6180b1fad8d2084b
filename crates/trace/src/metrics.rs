//! Named counters and latency histograms.
//!
//! The registry is deliberately schema-free: producers bump counters by
//! name and record latencies into named histograms, and the JSON emission
//! (`flexprot-metrics-v1`) lists whatever was recorded. Consumers that
//! need stability assert on the counter *names*. A run's names are fixed
//! by `flexprot_sim::Machine::metrics`, which builds them from the
//! simulator's `Stats` and the monitor's own counters
//! (`FetchMonitor::export_metrics`); the attack harness and the execution
//! engine add their `attack_*` and `exec_*` counters.

use std::collections::BTreeMap;

use crate::json;

/// Schema tag stamped into every metrics document.
pub const METRICS_SCHEMA: &str = "flexprot-metrics-v1";

/// A log2-bucketed latency histogram.
///
/// Bucket `i` counts samples with `value.ilog2() == i` (bucket 0 also
/// takes zeros), which is plenty of resolution for cycle-latency shapes
/// while keeping the registry allocation-light.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value (nothing when `n` is 0).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = if value <= 1 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += n;
        self.count += n;
        self.sum += value * n;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket counts, index `i` covering `[2^i, 2^(i+1))` (bucket 0 also
    /// holds zeros and ones).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Merges another histogram into this one bucket-wise.
    ///
    /// The operation is commutative and associative, so per-job histograms
    /// can be folded into an aggregate in any order — the property the
    /// parallel execution engine relies on for deterministic output.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Registry of named counters and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter, creating it at zero.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Adds `n` occurrences of the named event. Unlike [`Metrics::add`],
    /// a zero `n` leaves the counter absent: an event counter appears in
    /// the document once its event has happened.
    pub fn tally(&mut self, name: &'static str, n: u64) {
        if n > 0 {
            self.add(name, n);
        }
    }

    /// Sets the named counter to an absolute value.
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one latency sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Records `n` samples of one value into the named histogram; with
    /// `n` of 0 the histogram stays absent, like a [`Metrics::tally`].
    pub fn observe_n(&mut self, name: &'static str, value: u64, n: u64) {
        if n > 0 {
            self.histograms.entry(name).or_default().record_n(value, n);
        }
    }

    /// Merges `histogram` into the named one; an empty `histogram` adds
    /// nothing, not even the name.
    pub fn merge_histogram(&mut self, name: &'static str, histogram: &Histogram) {
        if histogram.count() > 0 {
            self.histograms.entry(name).or_default().merge(histogram);
        }
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(name, value)| (*name, *value))
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge bucket-wise.
    ///
    /// Addition is commutative, so folding N per-job registries into one
    /// aggregate yields the same document whatever order the jobs finished
    /// in. Note that `set`-style absolute counters (the `sim_*`
    /// totals) become sums under merge, which is the intended
    /// aggregate reading (total cycles, total instructions, …).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.merge_histogram(name, histogram);
        }
    }

    /// Renders the `flexprot-metrics-v1` document.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("schema").str(METRICS_SCHEMA);
            w.key("counters").object(|w| {
                for (&name, &value) in &self.counters {
                    w.key(name).num(value);
                }
            });
            w.key("histograms").object(|w| {
                for (&name, h) in &self.histograms {
                    w.key(name).object(|w| {
                        w.key("count").num(h.count);
                        w.key("sum").num(h.sum);
                        w.key("max").num(h.max);
                        w.key("log2_buckets").array(|w| {
                            for &bucket in &h.buckets {
                                w.num(bucket);
                            }
                        });
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.max(), 1024);
        // zeros+ones → bucket 0; 2,3 → bucket 1; 4..7 → bucket 2; 8 → 3; 1024 → 10.
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[10], 1);

        let mut repeated = Histogram::default();
        repeated.record_n(34, 3);
        repeated.record_n(1024, 0);
        let mut one_by_one = Histogram::default();
        for _ in 0..3 {
            one_by_one.record(34);
        }
        assert_eq!(repeated, one_by_one);
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = Metrics::new();
        m.add("a", 1);
        m.add("a", 4);
        m.set("b", 7);
        m.tally("c", 0);
        m.tally("d", 2);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 7);
        assert_eq!(m.counter("missing"), 0);
        let names: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "b", "d"], "a zero tally adds no counter");
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Histogram::default();
        for v in [0, 3, 8] {
            a.record(v);
        }
        let mut b = Histogram::default();
        for v in [1, 1024] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.sum(), 1036);
        assert_eq!(ab.max(), 1024);
        let mut direct = Histogram::default();
        for v in [0, 3, 8, 1, 1024] {
            direct.record(v);
        }
        assert_eq!(ab, direct);
    }

    #[test]
    fn metrics_merge_adds_counters_and_histograms() {
        let mut a = Metrics::new();
        a.add("cycles", 10);
        a.observe("lat", 4);
        let mut b = Metrics::new();
        b.add("cycles", 5);
        b.add("jobs", 1);
        b.observe("lat", 16);
        a.merge(&b);
        assert_eq!(a.counter("cycles"), 15);
        assert_eq!(a.counter("jobs"), 1);
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 20);
    }

    #[test]
    fn merge_order_yields_identical_json() {
        let mk = |x: u64| {
            let mut m = Metrics::new();
            m.add("n", x);
            m.observe("h", x);
            m
        };
        let parts = [mk(1), mk(2), mk(3)];
        let mut fwd = Metrics::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Metrics::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.to_json(), rev.to_json());
    }

    #[test]
    fn json_document_has_stable_schema() {
        let mut m = Metrics::new();
        m.add("cycles", 100);
        m.observe("decrypt_stall_cycles", 20);
        m.observe("decrypt_stall_cycles", 24);
        let doc = m.to_json();
        let value = json::parse(&doc).unwrap();
        assert_eq!(
            value.get("schema").and_then(json::Value::as_str),
            Some(METRICS_SCHEMA)
        );
        let counters = value.get("counters").unwrap();
        assert_eq!(
            counters.get("cycles").and_then(json::Value::as_u64),
            Some(100)
        );
        let hist = value
            .get("histograms")
            .and_then(|h| h.get("decrypt_stall_cycles"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(json::Value::as_u64), Some(2));
        assert_eq!(hist.get("sum").and_then(json::Value::as_u64), Some(44));
    }
}
