//! Named-metric registry with interned handles and a JSON exporter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hist::{LatencyHistogram, LatencySummary};

/// A monotone event counter. Recording is gated on [`crate::enabled`].
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A registry interning metrics by name.
///
/// Handles are `&'static`: the first lookup of a name leaks one
/// allocation, every later lookup (and every record through a cached
/// handle — see [`crate::scope!`]) is lock-free. Names are dotted
/// paths by convention (`runtime.queue_wait`, `tensor.gemm.pack_b`).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static LatencyHistogram>>,
}

impl Registry {
    /// Creates an empty registry (tests; production code uses
    /// [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        intern(&self.counters, name, Counter::default)
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> &'static LatencyHistogram {
        intern(&self.histograms, name, LatencyHistogram::new)
    }

    /// A point-in-time reading of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
        MetricsSnapshot { counters, histograms }
    }
}

fn intern<T>(
    map: &Mutex<BTreeMap<String, &'static T>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> &'static T {
    let mut m = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = m.get(name) {
        return existing;
    }
    let leaked: &'static T = Box::leak(Box::new(make()));
    m.insert(name.to_string(), leaked);
    leaked
}

/// The process-wide registry all stack instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time reading of a [`Registry`], exportable as JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter readings by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, LatencySummary>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a deterministic (name-sorted) JSON
    /// object — the `"metrics"` half of a serving node's `Stats`
    /// scrape. No external serializer is involved.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string());
        });
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99, h.p999
            ));
        });
        out.push_str("}\n}\n");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        push_json_string(out, name);
        out.push_str(": ");
        value(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("a") as *const Counter;
        let b = r.counter("a") as *const Counter;
        assert_eq!(a, b);
        assert_ne!(a, r.counter("b") as *const Counter);
    }

    #[test]
    fn counter_records() {
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("events").add(3);
        r.counter("events").inc();
        assert_eq!(r.counter("events").get(), 4);
    }

    #[test]
    fn snapshot_round_trips_into_json() {
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("c.one").add(7);
        r.histogram("h.one").record(1000);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"c.one\": 7"), "{json}");
        assert!(json.contains("\"h.one\": {\"count\": 1"), "{json}");
        // Deterministic: identical snapshot => identical JSON.
        assert_eq!(json, r.snapshot().to_json());
    }

    #[test]
    fn json_escapes_names() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let r = Registry::new();
        let json = r.snapshot().to_json();
        assert!(json.contains("\"counters\": {}"), "{json}");
    }
}
