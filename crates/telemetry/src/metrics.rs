//! Live, snapshot-at-any-instant metrics: sharded event counters and
//! mergeable latency histograms.
//!
//! [`MetricsRegistry`] is the always-on complement to the post-hoc
//! [`TimelineRecorder`](crate::TimelineRecorder): where the timeline only
//! yields data at `finish()`, the registry can be read while the serving
//! daemon is under load, without pausing a single serving thread.
//!
//! Design constraints (DESIGN.md §12):
//!
//! - **Counters are lock-free and contention-free.** Each counter is a
//!   row of [`COUNTER_SHARDS`] cache-line-aligned `AtomicU64` cells;
//!   writers pick a shard by [`thread_index`], so two serving threads
//!   almost never touch the same cache line. Reads sum the row.
//! - **Only events are counted, each once.** The registry keeps no
//!   gauges: a level such as a queue's depth stays with the state it
//!   measures, so the hot path never writes a second copy of it.
//! - **Histograms reuse [`LatencyHistogram`]** behind a small set of
//!   shard mutexes, laid out shard-major: one mutex per shard guards a
//!   cell for *every* histogram name, so a batch of related records
//!   (e.g. the four waterfall stages plus the total on one completion)
//!   costs a single lock round-trip via
//!   [`MetricsRegistry::histogram_record_many`]. A snapshot clones each
//!   shard in turn and merges with [`LatencyHistogram::merge_from`], so
//!   recording threads are never blocked behind a full-registry pause.
//! - **Zero allocation after construction.** Every `record`/`add`
//!   touches only preallocated cells, so the registry is safe to call
//!   from the flight-recorder hot path.
//!
//! Metric names are supplied by the owner (the serving layer) as static
//! tables; the registry itself is domain-agnostic.

use crate::histogram::LatencyHistogram;
use crate::json;
use crate::record::thread_index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shards per counter row. A power of two so the shard pick is a mask.
pub const COUNTER_SHARDS: usize = 8;

/// Shards per histogram row. Histogram recording takes a short lock, so a
/// few shards suffice to keep serving threads from ever queueing.
pub const HISTOGRAM_SHARDS: usize = 4;

/// One cache line worth of counter cell: padding keeps two shards of the
/// same (or a neighbouring) counter from false-sharing.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A fixed set of event counters and latency histograms, addressable by
/// index, snapshotable at any instant.
///
/// Indices are positions in the name slices handed to [`MetricsRegistry::new`];
/// owners define `const` indices next to their name tables so call sites
/// stay readable (see `mergepath-serve::observe`).
pub struct MetricsRegistry {
    counter_names: &'static [&'static str],
    histogram_names: &'static [&'static str],
    /// `counter_names.len() * COUNTER_SHARDS` cells, row-major.
    counters: Box<[PaddedU64]>,
    /// [`HISTOGRAM_SHARDS`] shards, each holding one cell per histogram
    /// name (shard-major, so one lock covers a batch of records).
    histograms: Box<[Mutex<Box<[LatencyHistogram]>>]>,
}

impl MetricsRegistry {
    /// Builds a registry over the given static name tables. All storage
    /// is allocated here; no later operation allocates.
    pub fn new(
        counter_names: &'static [&'static str],
        histogram_names: &'static [&'static str],
    ) -> Self {
        let counters = (0..counter_names.len() * COUNTER_SHARDS)
            .map(|_| PaddedU64::default())
            .collect();
        let histograms = (0..HISTOGRAM_SHARDS)
            .map(|_| {
                Mutex::new(
                    (0..histogram_names.len())
                        .map(|_| LatencyHistogram::new())
                        .collect(),
                )
            })
            .collect();
        MetricsRegistry {
            counter_names,
            histogram_names,
            counters,
            histograms,
        }
    }

    /// Adds `delta` to counter `idx`. Lock-free; the calling thread's
    /// shard is chosen by [`thread_index`].
    #[inline]
    pub fn counter_add(&self, idx: usize, delta: u64) {
        debug_assert!(idx < self.counter_names.len());
        let shard = thread_index() & (COUNTER_SHARDS - 1);
        self.counters[idx * COUNTER_SHARDS + shard]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of counter `idx` (sum over shards).
    pub fn counter_value(&self, idx: usize) -> u64 {
        self.counters[idx * COUNTER_SHARDS..(idx + 1) * COUNTER_SHARDS]
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Records `value_ns` into histogram `idx`, locking only the calling
    /// thread's shard.
    #[inline]
    pub fn histogram_record(&self, idx: usize, value_ns: u64) {
        self.histogram_record_many(&[(idx, value_ns)]);
    }

    /// Records a batch of `(histogram idx, value_ns)` samples under a
    /// single lock of the calling thread's shard — the hot-path form for
    /// call sites that record several histograms per event.
    #[inline]
    pub fn histogram_record_many(&self, samples: &[(usize, u64)]) {
        let shard = thread_index() % HISTOGRAM_SHARDS;
        if let Ok(mut cells) = self.histograms[shard].lock() {
            for &(idx, value_ns) in samples {
                debug_assert!(idx < self.histogram_names.len());
                cells[idx].record(value_ns);
            }
        }
    }

    /// Merged view of histogram `idx` across its shards.
    pub fn histogram_value(&self, idx: usize) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.histograms[..] {
            if let Ok(cells) = shard.lock() {
                merged.merge_from(&cells[idx]);
            }
        }
        merged
    }

    /// Captures every metric at (approximately) one instant.
    ///
    /// Never blocks recording threads for longer than one histogram-shard
    /// clone; counters are read without any lock at all. The
    /// snapshot is internally consistent per metric, not across metrics —
    /// a counter incremented while the snapshot walks the table may or
    /// may not be included, which is the standard live-metrics contract.
    pub fn snapshot(&self, t_ns: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            t_ns,
            counters: self
                .counter_names
                .iter()
                .enumerate()
                .map(|(i, name)| (*name, self.counter_value(i)))
                .collect(),
            histograms: self
                .histogram_names
                .iter()
                .enumerate()
                .map(|(i, name)| (*name, self.histogram_value(i)))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counter_names)
            .field("histograms", &self.histogram_names)
            .finish()
    }
}

/// A point-in-time copy of every metric in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// When the snapshot was taken ([`now_ns`](crate::now_ns) timeline).
    pub t_ns: u64,
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, merged histogram)` per histogram, in registration order.
    pub histograms: Vec<(&'static str, LatencyHistogram)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (counters as `counter`, histograms as
    /// `summary` with p50/p90/p99/p999 quantile series plus `_sum` and
    /// `_count`).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [
                (0.50, "0.5"),
                (0.90, "0.9"),
                (0.99, "0.99"),
                (0.999, "0.999"),
            ] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.percentile(q));
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum(), h.count());
        }
        out
    }

    /// Renders the snapshot as one deterministic JSON object:
    /// `{"type":"metrics_snapshot","t_ns":…,"counters":{…},
    /// "histograms":{name: summary}}`. One such object per line is the
    /// `metrics.jsonl` format `mp serve --metrics-out` appends to.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"type\":\"metrics_snapshot\",\"t_ns\":");
        json::write_f64(&mut out, self.t_ns as f64);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *v as f64);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            out.push_str(&h.to_json());
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &[&str] = &["req_total", "err_total"];
    const HISTS: &[&str] = &["latency_ns"];

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new(COUNTERS, HISTS)
    }

    #[test]
    fn counters_sum_across_shards_and_threads() {
        let reg = registry();
        reg.counter_add(0, 2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        reg.counter_add(0, 1);
                    }
                    reg.counter_add(1, 5);
                });
            }
        });
        assert_eq!(reg.counter_value(0), 402);
        assert_eq!(reg.counter_value(1), 20);
    }

    #[test]
    fn histogram_merges_shards() {
        let reg = registry();
        // Record from several threads so distinct shards are populated,
        // then check the merged view sees every sample exactly once.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let reg = &reg;
                s.spawn(move || reg.histogram_record(0, (t + 1) * 100));
            }
        });
        let h = reg.histogram_value(0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1000);
    }

    #[test]
    fn snapshot_reads_everything_and_renders() {
        let reg = registry();
        reg.counter_add(0, 3);
        reg.histogram_record(0, 1_000);
        let snap = reg.snapshot(42);
        assert_eq!(snap.counter("req_total"), Some(3));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.histogram("latency_ns").map(|h| h.count()), Some(1));

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE req_total counter"));
        assert!(prom.contains("req_total 3"));
        assert!(prom.contains("# TYPE latency_ns summary"));
        assert!(prom.contains("latency_ns_count 1"));

        let doc = json::parse(&snap.to_json()).expect("snapshot json parses");
        assert_eq!(
            doc.get("type").and_then(|v| v.as_str()),
            Some("metrics_snapshot")
        );
        let counters = doc.get("counters").and_then(|v| v.as_object()).unwrap();
        assert_eq!(
            counters.get("req_total").and_then(|v| v.as_f64()),
            Some(3.0)
        );
    }

    #[test]
    fn snapshot_does_not_disturb_recording() {
        let reg = registry();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..10_000u64 {
                    reg.counter_add(0, 1);
                    reg.histogram_record(0, i + 1);
                }
            });
            for _ in 0..50 {
                let snap = reg.snapshot(0);
                let c = snap.counter("req_total").unwrap();
                let h = snap.histogram("latency_ns").unwrap().count();
                assert!(c <= 10_000 && h <= 10_000);
            }
            writer.join().unwrap();
        });
        assert_eq!(reg.counter_value(0), 10_000);
        assert_eq!(reg.histogram_value(0).count(), 10_000);
    }
}
