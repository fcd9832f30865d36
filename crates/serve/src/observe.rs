//! Live observability for the daemon: [`ServeObserver`] bundles a
//! [`MetricsRegistry`], per-stage waterfall histograms, and a
//! dump-on-anomaly [`FlightRecorder`].
//!
//! Every [`Server`](crate::Server) owns one observer, and its `on_*`
//! hooks are the daemon's one event path: the registry is the only place
//! a request event is counted, and [`ServeStats`] reads its counters and
//! latency histogram back from it. The registry keeps no gauges: the
//! queue's depth and the inflight count live with the server, which also
//! holds their peaks, and each dequeue's depth and each start's inflight
//! count travel in the flight ring's events.
//!
//! The hooks sit on the serving hot path, so they touch only storage
//! allocated up front (`tests/metrics_invariants.rs` holds them to zero
//! allocation), and `cargo xtask verify-metrics` gates their cost at 3% of
//! per-request service time.
//!
//! Anomaly triggers (DESIGN.md §12): the observer dumps the flight ring
//! as JSONL on the **first deadline miss**, on a **`QueueFull` burst**
//! (a configurable number of synchronous rejections inside a sliding
//! window), and on the **first contained request panic** — plus on
//! demand. Dumps are rate-limited by a cooldown so a pathological burst
//! cannot turn the recorder itself into an I/O storm.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use mergepath_telemetry::{
    now_ns, FlightEvent, FlightEventKind, FlightRecorder, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, Waterfall,
};

use crate::ServeStats;

/// Counter names registered by [`ServeObserver`], in index order.
pub const COUNTER_NAMES: &[&str] = &[
    "serve_submitted_total",
    "serve_completed_total",
    "serve_rejected_queue_full_total",
    "serve_rejected_deadline_total",
    "serve_failed_total",
    "serve_flight_dumps_total",
    "serve_batched_rounds_total",
    "serve_batched_requests_total",
    "serve_protocol_errors_total",
];
const C_SUBMITTED: usize = 0;
const C_COMPLETED: usize = 1;
const C_REJECTED_QUEUE_FULL: usize = 2;
const C_REJECTED_DEADLINE: usize = 3;
const C_FAILED: usize = 4;
const C_FLIGHT_DUMPS: usize = 5;
const C_BATCHED_ROUNDS: usize = 6;
const C_BATCHED_REQUESTS: usize = 7;
const C_PROTOCOL_ERRORS: usize = 8;

/// Histogram names registered by [`ServeObserver`]: the four waterfall
/// stages and end-to-end latency, in index order.
pub const HISTOGRAM_NAMES: &[&str] = &[
    "serve_stage_queue_ns",
    "serve_stage_dispatch_ns",
    "serve_stage_compute_ns",
    "serve_stage_emit_ns",
    "serve_latency_ns",
];
const H_QUEUE: usize = 0;
const H_DISPATCH: usize = 1;
const H_COMPUTE: usize = 2;
const H_EMIT: usize = 3;
const H_LATENCY: usize = 4;

/// Why a flight dump was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyTrigger {
    /// First request whose deadline expired while it waited.
    DeadlineMiss,
    /// [`QUEUE_FULL_BURST`] synchronous rejections inside one
    /// [`QUEUE_FULL_WINDOW_NS`] window.
    QueueFullBurst,
    /// First contained request panic.
    Panic,
    /// Explicit [`ServeObserver::dump_on_demand`] call.
    OnDemand,
}

impl AnomalyTrigger {
    /// Stable name, used in dump filenames and headers.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyTrigger::DeadlineMiss => "deadline_miss",
            AnomalyTrigger::QueueFullBurst => "queue_full_burst",
            AnomalyTrigger::Panic => "panic",
            AnomalyTrigger::OnDemand => "on_demand",
        }
    }
}

/// Flight-recorder ring capacity of a [`ServeObserver`] (events retained).
pub const FLIGHT_CAPACITY: usize = 1024;

/// `QueueFull` rejections within one [`QUEUE_FULL_WINDOW_NS`] window that
/// constitute a burst.
pub const QUEUE_FULL_BURST: u64 = 8;

/// The burst-detection window, nanoseconds.
pub const QUEUE_FULL_WINDOW_NS: u64 = 1_000_000_000;

/// Minimum spacing between burst-triggered dumps, nanoseconds
/// (first-deadline-miss and first-panic dumps fire exactly once and
/// ignore the cooldown).
pub const DUMP_COOLDOWN_NS: u64 = 1_000_000_000;

/// A daemon's live event counters, per-stage waterfall histograms, and
/// dump-on-anomaly flight recorder.
///
/// All hook paths are allocation-free (registry cells and flight slots
/// are preallocated); only an actual anomaly dump touches the filesystem.
/// The hooks take `&self` and are called concurrently from the submitter
/// and every serving thread. Their timestamps are on the shared
/// [`now_ns`] clock, the same clock that judges deadlines, so the
/// waterfall arithmetic always agrees with the daemon's verdicts.
pub struct ServeObserver {
    dump_dir: Option<PathBuf>,
    registry: MetricsRegistry,
    flight: FlightRecorder,
    dumped_deadline: AtomicBool,
    dumped_panic: AtomicBool,
    burst_window_start: AtomicU64,
    burst_window_count: AtomicU64,
    last_burst_dump_ns: AtomicU64,
    dump_seq: AtomicU64,
    dumps: Mutex<Vec<PathBuf>>,
}

impl ServeObserver {
    /// Builds an observer that writes anomaly dumps into `dump_dir`
    /// (`None` records anomalies in the counters but writes nothing); all
    /// metric and flight storage is allocated here.
    pub fn new(dump_dir: Option<PathBuf>) -> Self {
        ServeObserver {
            registry: MetricsRegistry::new(COUNTER_NAMES, HISTOGRAM_NAMES),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            dump_dir,
            dumped_deadline: AtomicBool::new(false),
            dumped_panic: AtomicBool::new(false),
            burst_window_start: AtomicU64::new(0),
            burst_window_count: AtomicU64::new(0),
            last_burst_dump_ns: AtomicU64::new(0),
            dump_seq: AtomicU64::new(0),
            dumps: Mutex::new(Vec::new()),
        }
    }

    /// The underlying registry (for direct reads in tests and tools).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The underlying flight ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Snapshots every metric at this instant without pausing writers.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot(now_ns())
    }

    /// The daemon's counters and latency histogram, read from the
    /// registry, with the two peaks the server keeps beside the state
    /// they measure.
    pub(crate) fn stats(&self, queue_depth_peak: usize, inflight_peak: usize) -> ServeStats {
        let counter = |idx| self.registry.counter_value(idx);
        ServeStats {
            submitted: counter(C_SUBMITTED),
            completed: counter(C_COMPLETED),
            rejected_queue_full: counter(C_REJECTED_QUEUE_FULL),
            rejected_deadline: counter(C_REJECTED_DEADLINE),
            failed: counter(C_FAILED),
            queue_depth_peak,
            inflight_peak,
            batched_rounds: counter(C_BATCHED_ROUNDS),
            batched_requests: counter(C_BATCHED_REQUESTS),
            latency: self.registry.histogram_value(H_LATENCY),
        }
    }

    /// Frames that failed to decode so far: `serve_protocol_errors_total`.
    pub(crate) fn protocol_errors(&self) -> u64 {
        self.registry.counter_value(C_PROTOCOL_ERRORS)
    }

    /// The four waterfall stages in order — queue, dispatch, compute,
    /// emit — each with its histogram over the completed requests so far.
    pub fn stages(&self) -> [(&'static str, LatencyHistogram); 4] {
        [
            ("queue", H_QUEUE),
            ("dispatch", H_DISPATCH),
            ("compute", H_COMPUTE),
            ("emit", H_EMIT),
        ]
        .map(|(name, idx)| (name, self.registry.histogram_value(idx)))
    }

    /// Renders the p99 waterfall attribution table from the stage
    /// histograms accumulated so far.
    pub fn attribution_table(&self) -> String {
        let stages = self.stages();
        mergepath_telemetry::waterfall::render_attribution(
            &stages.each_ref().map(|(name, h)| (*name, h)),
            &self.registry.histogram_value(H_LATENCY),
        )
    }

    /// Paths of every dump written so far, in write order.
    pub fn dump_paths(&self) -> Vec<PathBuf> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Writes a flight dump right now, regardless of anomaly state.
    pub fn dump_on_demand(&self) -> Option<PathBuf> {
        self.write_dump(AnomalyTrigger::OnDemand)
    }

    /// Serializes the current ring (plus a header line) to
    /// `<dump_dir>/flight-<seq>-<trigger>.jsonl`. Returns `None` when no
    /// dump directory is configured or the write fails — the daemon never
    /// fails a request over a diagnostics problem.
    fn write_dump(&self, trigger: AnomalyTrigger) -> Option<PathBuf> {
        let dir = self.dump_dir.as_ref()?;
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let body = self.render_dump(trigger, seq);
        let path = dir.join(format!("flight-{seq:03}-{}.jsonl", trigger.name()));
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, body).ok()?;
        self.registry.counter_add(C_FLIGHT_DUMPS, 1);
        self.dumps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(path.clone());
        Some(path)
    }

    /// The dump text: a `flight_dump` header line (trigger, time, counter
    /// context) followed by one `flight_event` line per retained event,
    /// oldest first.
    pub fn render_dump(&self, trigger: AnomalyTrigger, seq: u64) -> String {
        use mergepath_telemetry::json::{write_f64, write_str};
        let events = self.flight.snapshot();
        let mut out = String::from("{\"type\":\"flight_dump\",\"trigger\":");
        write_str(&mut out, trigger.name());
        out.push_str(",\"seq\":");
        write_f64(&mut out, seq as f64);
        out.push_str(",\"t_ns\":");
        write_f64(&mut out, now_ns() as f64);
        out.push_str(",\"events\":");
        write_f64(&mut out, events.len() as f64);
        out.push_str(",\"counters\":{");
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_f64(&mut out, self.registry.counter_value(i) as f64);
        }
        out.push_str("}}\n");
        out.push_str(&FlightRecorder::to_jsonl(&events));
        out
    }

    fn note_queue_full(&self, t_ns: u64) {
        let start = self.burst_window_start.load(Ordering::Relaxed);
        if t_ns.saturating_sub(start) > QUEUE_FULL_WINDOW_NS {
            // Window elapsed: whoever wins the race opens a fresh one.
            if self
                .burst_window_start
                .compare_exchange(start, t_ns, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.burst_window_count.store(1, Ordering::Relaxed);
                return;
            }
        }
        let count = self.burst_window_count.fetch_add(1, Ordering::Relaxed) + 1;
        if count == QUEUE_FULL_BURST {
            let last = self.last_burst_dump_ns.load(Ordering::Relaxed);
            let cooled = last == 0 || t_ns.saturating_sub(last) >= DUMP_COOLDOWN_NS;
            if cooled
                && self
                    .last_burst_dump_ns
                    .compare_exchange(last, t_ns.max(1), Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                self.write_dump(AnomalyTrigger::QueueFullBurst);
            }
        }
    }
}

impl std::fmt::Debug for ServeObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObserver")
            .field("flight", &self.flight)
            .field("dumps", &self.dump_paths().len())
            .finish()
    }
}

/// The request-path hooks [`Server`](crate::Server) reports into.
impl ServeObserver {
    /// A request was offered to `submit` (admitted or not).
    pub fn on_submit(&self, id: u64, t_ns: u64, deadline_ns: u64) {
        self.registry.counter_add(C_SUBMITTED, 1);
        self.flight.record(FlightEvent {
            seq: 0,
            t_ns,
            request_id: id,
            kind: FlightEventKind::Submit,
            arg0: deadline_ns,
            arg1: 0,
        });
    }

    /// The request bounced synchronously off the full queue.
    pub fn on_reject_queue_full(&self, id: u64, t_ns: u64, capacity: usize) {
        self.registry.counter_add(C_REJECTED_QUEUE_FULL, 1);
        self.flight.record(FlightEvent {
            seq: 0,
            t_ns,
            request_id: id,
            kind: FlightEventKind::RejectQueueFull,
            arg0: capacity as u64,
            arg1: 0,
        });
        self.note_queue_full(t_ns);
    }

    /// A serving thread popped the request; `depth` is the queue depth
    /// after the pop.
    pub fn on_dequeue(&self, id: u64, t_ns: u64, submit_ns: u64, depth: usize) {
        self.flight.record(FlightEvent {
            seq: 0,
            t_ns,
            request_id: id,
            kind: FlightEventKind::Dequeue,
            arg0: submit_ns,
            arg1: depth as u64,
        });
    }

    /// The request's deadline had expired by dequeue time.
    pub fn on_reject_deadline(&self, id: u64, t_ns: u64, deadline_ns: u64) {
        self.registry.counter_add(C_REJECTED_DEADLINE, 1);
        self.flight.record(FlightEvent {
            seq: 0,
            t_ns,
            request_id: id,
            kind: FlightEventKind::RejectDeadline,
            arg0: deadline_ns,
            arg1: t_ns.saturating_sub(deadline_ns),
        });
        if !self.dumped_deadline.swap(true, Ordering::Relaxed) {
            self.write_dump(AnomalyTrigger::DeadlineMiss);
        }
    }

    /// Kernel execution began with `share` logical workers; `inflight`
    /// counts this request.
    pub fn on_start(&self, id: u64, t_ns: u64, share: usize, inflight: usize) {
        self.flight.record(FlightEvent {
            seq: 0,
            t_ns,
            request_id: id,
            kind: FlightEventKind::Start,
            arg0: share as u64,
            arg1: inflight as u64,
        });
    }

    /// The request resolved successfully.
    pub fn on_complete(&self, id: u64, t_ns: u64, waterfall: &Waterfall) {
        self.registry.counter_add(C_COMPLETED, 1);
        // One lock round-trip for all five series (shard-major layout).
        self.registry.histogram_record_many(&[
            (H_QUEUE, waterfall.queue_ns),
            (H_DISPATCH, waterfall.dispatch_ns),
            (H_COMPUTE, waterfall.compute_ns),
            (H_EMIT, waterfall.emit_ns),
            (H_LATENCY, waterfall.total_ns()),
        ]);
        self.flight.record(FlightEvent {
            seq: 0,
            t_ns,
            request_id: id,
            kind: FlightEventKind::Complete,
            arg0: waterfall.total_ns(),
            arg1: waterfall.compute_ns,
        });
    }

    /// The request's kernel panicked (contained).
    pub fn on_fail(&self, id: u64, t_ns: u64) {
        self.registry.counter_add(C_FAILED, 1);
        self.flight.record(FlightEvent {
            seq: 0,
            t_ns,
            request_id: id,
            kind: FlightEventKind::Fail,
            arg0: 0,
            arg1: 0,
        });
        if !self.dumped_panic.swap(true, Ordering::Relaxed) {
            self.write_dump(AnomalyTrigger::Panic);
        }
    }

    /// One coalesced round merged `width` queued requests together.
    pub fn on_batch(&self, width: u64) {
        self.registry.counter_add(C_BATCHED_ROUNDS, 1);
        self.registry.counter_add(C_BATCHED_REQUESTS, width);
    }

    /// A connection sent a frame that failed to decode; the front-end
    /// dropped the connection.
    pub fn on_protocol_error(&self) {
        self.registry.counter_add(C_PROTOCOL_ERRORS, 1);
    }
}

/// Creates a uniquely named scratch directory for tests.
#[doc(hidden)]
pub fn test_scratch_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mp-observe-{tag}-{}-{n}-{}",
        std::process::id(),
        now_ns()
    ))
}

#[doc(hidden)]
pub fn remove_scratch_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_drive_counters_and_histograms() {
        let obs = ServeObserver::new(None);
        obs.on_submit(1, 100, 0);
        obs.on_dequeue(1, 200, 100, 2);
        obs.on_start(1, 210, 4, 2);
        let wf = Waterfall {
            queue_ns: 100,
            dispatch_ns: 10,
            compute_ns: 500,
            emit_ns: 5,
        };
        obs.on_complete(1, 815, &wf);
        obs.on_submit(2, 900, 0);
        obs.on_reject_queue_full(2, 900, 64);
        obs.on_fail(3, 1000);
        obs.on_batch(3);
        obs.on_protocol_error();

        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve_submitted_total"), Some(2));
        assert_eq!(snap.counter("serve_completed_total"), Some(1));
        assert_eq!(snap.counter("serve_rejected_queue_full_total"), Some(1));
        assert_eq!(snap.counter("serve_failed_total"), Some(1));
        assert_eq!(snap.counter("serve_batched_rounds_total"), Some(1));
        assert_eq!(snap.counter("serve_batched_requests_total"), Some(3));
        assert_eq!(snap.counter("serve_protocol_errors_total"), Some(1));
        let lat = snap.histogram("serve_latency_ns").unwrap();
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.sum(), wf.total_ns());
        assert_eq!(
            snap.histogram("serve_stage_compute_ns").map(|h| h.sum()),
            Some(500)
        );

        let table = obs.attribution_table();
        assert!(table.contains("compute"), "table: {table}");
        // Flight ring saw every lifecycle event.
        assert_eq!(obs.flight().recorded(), 7);
    }

    #[test]
    fn first_deadline_miss_dumps_exactly_once() {
        let dir = test_scratch_dir("deadline");
        let obs = ServeObserver::new(Some(dir.clone()));
        obs.on_submit(7, 50, 40);
        obs.on_reject_deadline(7, 100, 40);
        obs.on_reject_deadline(8, 200, 40);
        let dumps = obs.dump_paths();
        assert_eq!(dumps.len(), 1, "first miss dumps, second does not");
        let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("flight-000-deadline_miss"),
            "dump name: {name}"
        );
        let text = std::fs::read_to_string(&dumps[0]).expect("dump readable");
        let mut lines = text.lines();
        let header =
            mergepath_telemetry::json::parse(lines.next().unwrap()).expect("header parses");
        assert_eq!(
            header.get("type").and_then(|v| v.as_str()),
            Some("flight_dump")
        );
        assert_eq!(
            header.get("trigger").and_then(|v| v.as_str()),
            Some("deadline_miss")
        );
        // Body holds the submit and the offending rejection.
        let kinds: Vec<String> = lines
            .map(|l| {
                mergepath_telemetry::json::parse(l)
                    .unwrap()
                    .get("kind")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(kinds.contains(&"submit".to_string()));
        assert!(kinds.contains(&"reject_deadline".to_string()));
        assert_eq!(obs.snapshot().counter("serve_flight_dumps_total"), Some(1));
        remove_scratch_dir(&dir);
    }

    #[test]
    fn queue_full_burst_dump_respects_threshold_and_cooldown() {
        let dir = test_scratch_dir("burst");
        let obs = ServeObserver::new(Some(dir.clone()));
        // Synthetic timestamps; each rejection's id is its timestamp.
        let reject = |times: std::ops::RangeInclusive<u64>| {
            for t in times {
                obs.on_reject_queue_full(t, t, 8);
            }
        };
        let (burst, window) = (QUEUE_FULL_BURST, QUEUE_FULL_WINDOW_NS);
        // One short of the threshold inside the first window: no dump.
        reject(1..=burst - 1);
        assert!(obs.dump_paths().is_empty());
        // The threshold-th, at the window's last nanosecond, dumps.
        reject(window..=window);
        assert_eq!(obs.dump_paths().len(), 1);
        assert!(obs.dump_paths()[0]
            .to_string_lossy()
            .contains("queue_full_burst"));
        // A whole burst in the next window, `burst` ns after that dump,
        // falls inside the cooldown and stays silent.
        reject(window + 1..=window + burst);
        assert_eq!(obs.dump_paths().len(), 1, "cooldown suppressed the dump");
        // A burst in a later window, past the cooldown, dumps again.
        let later = 2 * window + DUMP_COOLDOWN_NS;
        reject(later..=later + burst - 1);
        assert_eq!(obs.dump_paths().len(), 2, "the cooldown expired");
        remove_scratch_dir(&dir);
    }

    #[test]
    fn panic_and_on_demand_dumps() {
        let dir = test_scratch_dir("panic");
        let obs = ServeObserver::new(Some(dir.clone()));
        obs.on_fail(1, 10);
        obs.on_fail(2, 20);
        let on_demand = obs.dump_on_demand().expect("dump dir configured");
        let dumps = obs.dump_paths();
        assert_eq!(dumps.len(), 2, "one panic dump + one on-demand dump");
        assert!(dumps[0].to_string_lossy().contains("panic"));
        assert!(on_demand.to_string_lossy().contains("on_demand"));
        remove_scratch_dir(&dir);
    }

    #[test]
    fn no_dump_dir_means_no_io_but_counters_advance() {
        let obs = ServeObserver::new(None);
        obs.on_reject_deadline(1, 100, 50);
        assert!(obs.dump_paths().is_empty());
        assert_eq!(
            obs.snapshot().counter("serve_rejected_deadline_total"),
            Some(1)
        );
        assert_eq!(obs.snapshot().counter("serve_flight_dumps_total"), Some(0));
    }
}
