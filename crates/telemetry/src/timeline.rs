//! The collecting recorder, the processed [`Telemetry`] form, derived
//! load-balance statistics, and the two exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::json::{write_f64, write_str};
use crate::record::{now_ns, thread_index, CounterKind, Recorder, SpanKind};

/// Number of cache-padded event shards. Workers hash onto shards by index,
/// so any contention is between workers `w` and `w + 64`, which real
/// configurations never run concurrently.
const SHARDS: usize = 64;

/// One raw event as reported by a kernel or the executor.
#[derive(Debug, Clone, Copy)]
enum Event {
    SpanBegin {
        worker: usize,
        kind: SpanKind,
        at: u64,
    },
    SpanEnd {
        worker: usize,
        kind: SpanKind,
        at: u64,
    },
    Counter {
        worker: usize,
        kind: CounterKind,
        delta: u64,
    },
    Items {
        worker: usize,
        items: u64,
    },
    Share {
        tid: usize,
        share: usize,
        start: u64,
        end: u64,
    },
    RoundWait {
        thread: usize,
        ns: u64,
    },
    RoundBegin {
        thread: usize,
        shares: usize,
        at: u64,
    },
    RoundEnd {
        thread: usize,
        at: u64,
    },
}

/// A cache-line-padded event shard so concurrent workers do not contend on
/// one mutex line.
#[repr(align(128))]
#[derive(Default)]
struct Shard {
    events: Mutex<Vec<Event>>,
}

/// A [`Recorder`] that collects everything into per-worker shards.
///
/// Collection is append-only under a sharded mutex; all interpretation
/// (span pairing, busy-time accounting, statistics) happens in
/// [`TimelineRecorder::finish`] after the kernel has returned.
pub struct TimelineRecorder {
    shards: Box<[Shard]>,
}

impl Default for TimelineRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TimelineRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        let shards = (0..SHARDS).map(|_| Shard::default()).collect();
        TimelineRecorder { shards }
    }

    fn push(&self, shard: usize, event: Event) {
        self.shards[shard % SHARDS]
            .events
            .lock()
            .expect("telemetry shard poisoned")
            .push(event);
    }

    /// Consumes the recorder and pairs raw events into a processed
    /// [`Telemetry`].
    pub fn finish(self) -> Telemetry {
        // Per-worker (and per-thread) event order is preserved: a worker
        // always lands in the same shard and pushes sequentially, so
        // draining shard by shard keeps every per-worker subsequence in
        // program order.
        let mut events = Vec::new();
        for shard in self.shards.iter() {
            events.extend(
                shard
                    .events
                    .lock()
                    .expect("telemetry shard poisoned")
                    .iter()
                    .copied(),
            );
        }

        let mut spans = Vec::new();
        let mut span_stacks: BTreeMap<usize, Vec<(SpanKind, u64)>> = BTreeMap::new();
        let mut counters: BTreeMap<(usize, CounterKind), u64> = BTreeMap::new();
        let mut items: BTreeMap<usize, u64> = BTreeMap::new();
        let mut shares = Vec::new();
        let mut rounds = Vec::new();
        let mut round_stacks: BTreeMap<usize, Vec<(usize, u64, u64)>> = BTreeMap::new();
        let mut round_waits: BTreeMap<usize, u64> = BTreeMap::new();

        for event in events {
            match event {
                Event::SpanBegin { worker, kind, at } => {
                    span_stacks.entry(worker).or_default().push((kind, at));
                }
                Event::SpanEnd { worker, kind, at } => {
                    let stack = span_stacks.entry(worker).or_default();
                    // Guards close spans in LIFO order; a mismatch means a
                    // kernel bug, surfaced by the invariants test suite.
                    if let Some((open_kind, start)) = stack.pop() {
                        debug_assert_eq!(open_kind, kind, "span stack discipline violated");
                        spans.push(SpanRecord {
                            worker,
                            kind,
                            start_ns: start,
                            end_ns: at,
                            depth: stack.len(),
                        });
                    }
                }
                Event::Counter {
                    worker,
                    kind,
                    delta,
                } => {
                    *counters.entry((worker, kind)).or_default() += delta;
                }
                Event::Items { worker, items: n } => {
                    *items.entry(worker).or_default() += n;
                }
                Event::Share {
                    tid,
                    share,
                    start,
                    end,
                } => {
                    shares.push(ShareRecord {
                        tid,
                        share,
                        start_ns: start,
                        end_ns: end,
                    });
                }
                Event::RoundWait { thread, ns } => {
                    *round_waits.entry(thread).or_default() = ns;
                }
                Event::RoundBegin { thread, shares, at } => {
                    let wait = round_waits.remove(&thread).unwrap_or(0);
                    round_stacks
                        .entry(thread)
                        .or_default()
                        .push((shares, at, wait));
                }
                Event::RoundEnd { thread, at } => {
                    if let Some((share_count, start, wait)) =
                        round_stacks.entry(thread).or_default().pop()
                    {
                        rounds.push(RoundRecord {
                            shares: share_count,
                            start_ns: start,
                            end_ns: at,
                            wait_ns: wait,
                        });
                    }
                }
            }
        }

        spans.sort_by_key(|s| (s.worker, s.start_ns, core::cmp::Reverse(s.end_ns)));
        shares.sort_by_key(|s| (s.tid, s.start_ns));
        rounds.sort_by_key(|r| r.start_ns);
        Telemetry {
            spans,
            counters: counters
                .into_iter()
                .map(|((worker, kind), total)| CounterTotal {
                    worker,
                    kind,
                    total,
                })
                .collect(),
            worker_items: items
                .into_iter()
                .map(|(worker, items)| WorkerItems { worker, items })
                .collect(),
            shares,
            rounds,
        }
    }
}

impl Recorder for TimelineRecorder {
    fn span_begin(&self, worker: usize, kind: SpanKind) {
        self.push(
            worker,
            Event::SpanBegin {
                worker,
                kind,
                at: now_ns(),
            },
        );
    }

    fn span_end(&self, worker: usize, kind: SpanKind) {
        self.push(
            worker,
            Event::SpanEnd {
                worker,
                kind,
                at: now_ns(),
            },
        );
    }

    fn counter_add(&self, worker: usize, kind: CounterKind, delta: u64) {
        self.push(
            worker,
            Event::Counter {
                worker,
                kind,
                delta,
            },
        );
    }

    fn worker_items(&self, worker: usize, items: u64) {
        self.push(worker, Event::Items { worker, items });
    }

    fn round_begin(&self, shares: usize) {
        let thread = thread_index();
        self.push(
            thread,
            Event::RoundBegin {
                thread,
                shares,
                at: now_ns(),
            },
        );
    }

    fn round_end(&self) {
        let thread = thread_index();
        self.push(
            thread,
            Event::RoundEnd {
                thread,
                at: now_ns(),
            },
        );
    }

    fn round_wait_ns(&self, ns: u64) {
        let thread = thread_index();
        self.push(thread, Event::RoundWait { thread, ns });
    }

    fn share_window(&self, tid: usize, share: usize, start_ns: u64, end_ns: u64) {
        self.push(
            tid,
            Event::Share {
                tid,
                share,
                start: start_ns,
                end: end_ns,
            },
        );
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Logical worker (share index) the span ran on.
    pub worker: usize,
    /// The span taxonomy entry.
    pub kind: SpanKind,
    /// Start, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process telemetry epoch.
    pub end_ns: u64,
    /// Nesting depth at open time (0 = top level for that worker).
    pub depth: usize,
}

/// One per-worker counter total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterTotal {
    /// Logical worker the counts were attributed to.
    pub worker: usize,
    /// Which counter.
    pub kind: CounterKind,
    /// Accumulated value.
    pub total: u64,
}

/// Output elements produced by one logical worker (Thm 14's quantity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerItems {
    /// Logical worker (share index).
    pub worker: usize,
    /// Total output elements across all rounds.
    pub items: u64,
}

/// One executed share: physical pool thread `tid` ran logical share
/// `share` for `start_ns..end_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareRecord {
    /// The participant that ran the share: its round-local ticket
    /// (0 = the calling thread).
    pub tid: usize,
    /// Logical share index.
    pub share: usize,
    /// Window start (process telemetry epoch).
    pub start_ns: u64,
    /// Window end.
    pub end_ns: u64,
}

/// One pool fork-join round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRecord {
    /// Logical shares submitted to the round.
    pub shares: usize,
    /// Round start (after the round mutex was acquired).
    pub start_ns: u64,
    /// Round end (all participants past the end barrier).
    pub end_ns: u64,
    /// Time the caller waited on the round mutex (queueing overhead).
    pub wait_ns: u64,
}

/// Busy-time spread statistics across workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyStats {
    /// Heaviest worker's busy nanoseconds (the makespan contributor).
    pub max_ns: u64,
    /// Lightest worker's busy nanoseconds.
    pub min_ns: u64,
    /// Mean busy nanoseconds.
    pub mean_ns: f64,
    /// `max / mean`; `1.0` is perfect balance.
    pub imbalance: f64,
}

impl BusyStats {
    fn from_values(values: &[u64]) -> BusyStats {
        if values.is_empty() {
            return BusyStats {
                max_ns: 0,
                min_ns: 0,
                mean_ns: 0.0,
                imbalance: 1.0,
            };
        }
        let max = values.iter().copied().max().unwrap_or(0);
        let min = values.iter().copied().min().unwrap_or(0);
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        BusyStats {
            max_ns: max,
            min_ns: min,
            mean_ns: mean,
            imbalance,
        }
    }
}

/// The load-balance verdict derived from one traced kernel run: the paper's
/// Thm 14 prediction against observation, plus busy-time spread.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalanceReport {
    /// Total output size `N`.
    pub n: u64,
    /// Participating thread count `p`.
    pub p: usize,
    /// Logical workers that reported output: one per share for kernels
    /// that cut their work into `p` shares, one per tile for Algorithm 1
    /// and the batch merge (and so for a sort's merge rounds).
    pub workers: usize,
    /// Observed output elements per logical worker, indexed by worker.
    pub per_worker_items: Vec<WorkerItems>,
    /// Thm 14's bound per logical worker: `⌈N/workers⌉`.
    pub predicted_max: u64,
    /// Heaviest observed per-worker element count.
    pub max_items: u64,
    /// Lightest observed per-worker element count.
    pub min_items: u64,
    /// Whether every worker's count is `≤ ⌈N/workers⌉` **and** the counts
    /// sum to `N` — i.e. whether the run matches Thm 14 exactly.
    /// Single-round kernels (the plain parallel merge) satisfy this;
    /// multi-round kernels (sorts) accumulate several rounds and report
    /// spread only.
    pub thm14_exact: bool,
    /// Busy-time spread over the `p` participants: share windows summed by
    /// the round-local ticket that ran them, a participant that ran none
    /// counting as idle. However finely a round is cut, this shows how
    /// evenly its threads were loaded.
    pub busy: BusyStats,
    /// Submit-side wait summed over the rounds: each caller's time from
    /// submitting a round to running its first share
    /// ([`Recorder::round_wait_ns`]).
    pub total_wait_ns: u64,
}

impl Telemetry {
    /// Summed share-window busy time per participant (round-local ticket).
    pub fn thread_busy_ns(&self) -> BTreeMap<usize, u64> {
        let mut busy: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.shares {
            *busy.entry(s.tid).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
        busy
    }

    /// Derives the load-balance report for a run that produced `n` output
    /// elements on `p` participating threads. Items are counted per logical
    /// worker that reported output, busy time per participant.
    pub fn load_balance(&self, n: u64, p: usize) -> LoadBalanceReport {
        let workers = self.worker_items.len();
        let predicted_max = if workers == 0 {
            n
        } else {
            n.div_ceil(workers as u64)
        };
        let sum: u64 = self.worker_items.iter().map(|w| w.items).sum();
        let max_items = self.worker_items.iter().map(|w| w.items).max().unwrap_or(0);
        let min_items = self.worker_items.iter().map(|w| w.items).min().unwrap_or(0);
        let thm14_exact = sum == n && self.worker_items.iter().all(|w| w.items <= predicted_max);
        let by_ticket = self.thread_busy_ns();
        let tickets = by_ticket.keys().next_back().map_or(p, |&t| p.max(t + 1));
        let busy_values: Vec<u64> = (0..tickets)
            .map(|t| by_ticket.get(&t).copied().unwrap_or(0))
            .collect();
        LoadBalanceReport {
            n,
            p,
            workers,
            per_worker_items: self.worker_items.clone(),
            predicted_max,
            max_items,
            min_items,
            thm14_exact,
            busy: BusyStats::from_values(&busy_values),
            total_wait_ns: self.rounds.iter().map(|r| r.wait_ns).sum(),
        }
    }

    /// Exports the timeline as Chrome `trace_event` JSON (the "JSON Array
    /// Format" with a `traceEvents` envelope), loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// Logical workers render as threads of process 1, physical pool
    /// threads (share windows) as process 2, and pool rounds as process 3.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !core::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&line);
        };

        for (pid, name) in [
            (1, "logical workers"),
            (2, "pool threads"),
            (3, "pool rounds"),
        ] {
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut out,
            );
        }
        for span in &self.spans {
            let mut line = String::new();
            line.push_str("{\"name\":");
            write_str(&mut line, span.kind.name());
            line.push_str(",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":");
            write_f64(&mut line, span.start_ns as f64 / 1000.0);
            line.push_str(",\"dur\":");
            write_f64(&mut line, (span.end_ns - span.start_ns) as f64 / 1000.0);
            let _ = write!(
                line,
                ",\"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
                span.worker, span.depth
            );
            emit(line, &mut out);
        }
        for share in &self.shares {
            let mut line = String::new();
            let _ = write!(line, "{{\"name\":\"share {}\"", share.share);
            line.push_str(",\"cat\":\"pool\",\"ph\":\"X\",\"ts\":");
            write_f64(&mut line, share.start_ns as f64 / 1000.0);
            line.push_str(",\"dur\":");
            write_f64(&mut line, (share.end_ns - share.start_ns) as f64 / 1000.0);
            let _ = write!(
                line,
                ",\"pid\":2,\"tid\":{},\"args\":{{\"share\":{}}}}}",
                share.tid, share.share
            );
            emit(line, &mut out);
        }
        for round in &self.rounds {
            let mut line = String::new();
            let _ = write!(line, "{{\"name\":\"round p={}\"", round.shares);
            line.push_str(",\"cat\":\"pool\",\"ph\":\"X\",\"ts\":");
            write_f64(&mut line, round.start_ns as f64 / 1000.0);
            write!(line, ",\"dur\":").expect("infallible");
            write_f64(&mut line, (round.end_ns - round.start_ns) as f64 / 1000.0);
            let _ = write!(
                line,
                ",\"pid\":3,\"tid\":0,\"args\":{{\"shares\":{},\"wait_ns\":{}}}}}",
                round.shares, round.wait_ns
            );
            emit(line, &mut out);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Exports the timeline as a flat JSONL metrics stream: one JSON object
    /// per line, each tagged with a `"type"` field (`span`, `counter`,
    /// `worker_items`, `share`, `round`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"worker\":{},\"kind\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"depth\":{}}}",
                span.worker,
                span.kind.name(),
                span.start_ns,
                span.end_ns,
                span.depth
            );
        }
        for c in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"worker\":{},\"kind\":\"{}\",\"total\":{}}}",
                c.worker,
                c.kind.name(),
                c.total
            );
        }
        for w in &self.worker_items {
            let _ = writeln!(
                out,
                "{{\"type\":\"worker_items\",\"worker\":{},\"items\":{}}}",
                w.worker, w.items
            );
        }
        for s in &self.shares {
            let _ = writeln!(
                out,
                "{{\"type\":\"share\",\"tid\":{},\"share\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.tid, s.share, s.start_ns, s.end_ns
            );
        }
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "{{\"type\":\"round\",\"shares\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"wait_ns\":{}}}",
                r.shares, r.start_ns, r.end_ns, r.wait_ns
            );
        }
        out
    }
}

impl LoadBalanceReport {
    /// Renders the report as one JSON object (used as the JSONL summary
    /// line and inside `BENCH_telemetry.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"type\":\"load_balance\",\"n\":{},\"p\":{},\"workers\":{},\
             \"predicted_max\":{},\"max_items\":{},\"min_items\":{},\"thm14_exact\":{},",
            self.n,
            self.p,
            self.workers,
            self.predicted_max,
            self.max_items,
            self.min_items,
            self.thm14_exact
        );
        out.push_str("\"per_worker_items\":[");
        for (i, w) in self.per_worker_items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"worker\":{},\"items\":{}}}", w.worker, w.items);
        }
        out.push_str("],");
        let _ = write!(
            out,
            "\"busy_max_ns\":{},\"busy_min_ns\":{},\"busy_mean_ns\":",
            self.busy.max_ns, self.busy.min_ns
        );
        write_f64(&mut out, self.busy.mean_ns);
        out.push_str(",\"imbalance\":");
        write_f64(&mut out, self.busy.imbalance);
        let _ = write!(out, ",\"total_wait_ns\":{}}}", self.total_wait_ns);
        out
    }
}

/// Processed telemetry: paired spans, counter totals, per-worker element
/// counts, share windows, and pool rounds — everything the exporters and
/// [`LoadBalanceReport`] derive from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Closed spans, sorted by `(worker, start)`.
    pub spans: Vec<SpanRecord>,
    /// Counter totals per `(worker, kind)`.
    pub counters: Vec<CounterTotal>,
    /// Output elements per logical worker.
    pub worker_items: Vec<WorkerItems>,
    /// Share windows, sorted by `(tid, start)`.
    pub shares: Vec<ShareRecord>,
    /// Pool rounds, sorted by start.
    pub rounds: Vec<RoundRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Telemetry {
        let rec = TimelineRecorder::new();
        rec.round_wait_ns(5);
        rec.round_begin(2);
        rec.span_begin(0, SpanKind::Partition);
        rec.span_begin(0, SpanKind::DiagonalSearch);
        rec.span_end(0, SpanKind::DiagonalSearch);
        rec.span_end(0, SpanKind::Partition);
        rec.span_begin(1, SpanKind::SegmentMerge);
        rec.span_end(1, SpanKind::SegmentMerge);
        rec.counter_add(0, CounterKind::Comparisons, 10);
        rec.counter_add(0, CounterKind::Comparisons, 7);
        rec.worker_items(0, 50);
        rec.worker_items(1, 50);
        rec.share_window(0, 0, 100, 200);
        rec.share_window(0, 1, 200, 280);
        rec.round_end();
        rec.finish()
    }

    #[test]
    fn spans_pair_with_depth() {
        let t = sample();
        assert_eq!(t.spans.len(), 3);
        let partition = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Partition)
            .expect("partition span");
        let search = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::DiagonalSearch)
            .expect("search span");
        assert_eq!(partition.depth, 0);
        assert_eq!(search.depth, 1);
        assert!(partition.start_ns <= search.start_ns && search.end_ns <= partition.end_ns);
    }

    #[test]
    fn counters_and_items_accumulate() {
        let t = sample();
        assert_eq!(
            t.counters,
            vec![CounterTotal {
                worker: 0,
                kind: CounterKind::Comparisons,
                total: 17
            }]
        );
        assert_eq!(t.worker_items.iter().map(|w| w.items).sum::<u64>(), 100);
    }

    #[test]
    fn rounds_capture_wait() {
        let t = sample();
        assert_eq!(t.rounds.len(), 1);
        assert_eq!(t.rounds[0].shares, 2);
        assert_eq!(t.rounds[0].wait_ns, 5);
    }

    #[test]
    fn load_balance_report_matches_thm14() {
        let t = sample();
        let report = t.load_balance(100, 2);
        assert_eq!(report.workers, 2);
        assert_eq!(report.predicted_max, 50);
        assert!(report.thm14_exact);
        // Ticket 0 ran both shares (100 + 80 ns); ticket 1 ran none.
        assert_eq!(report.busy.max_ns, 180);
        assert_eq!(report.busy.min_ns, 0);
        assert!((report.busy.imbalance - 2.0).abs() < 1e-12);
        let parsed = json::parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(
            parsed.get("type").and_then(json::Value::as_str),
            Some("load_balance")
        );
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = sample();
        let doc = json::parse(&t.to_chrome_trace()).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        // 3 process_name metadata events + spans + shares + rounds.
        assert!(events.len() > 3 + 3 + 2);
        for e in events {
            let ph = e.get("ph").and_then(json::Value::as_str).expect("ph");
            assert!(matches!(ph, "X" | "M"), "unexpected phase {ph}");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            if ph == "X" {
                assert!(e.get("ts").is_some() && e.get("dur").is_some());
            }
        }
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let t = sample();
        let jsonl = t.to_jsonl();
        let mut types = std::collections::BTreeSet::new();
        for line in jsonl.lines() {
            let v = json::parse(line).expect("line parses");
            types.insert(
                v.get("type")
                    .and_then(json::Value::as_str)
                    .expect("type tag")
                    .to_string(),
            );
        }
        for expected in ["span", "counter", "worker_items", "share", "round"] {
            assert!(types.contains(expected), "missing {expected} lines");
        }
    }

    #[test]
    fn empty_telemetry_exports_cleanly() {
        let t = TimelineRecorder::new().finish();
        assert!(json::parse(&t.to_chrome_trace()).is_ok());
        assert!(t.to_jsonl().is_empty());
        let report = t.load_balance(0, 4);
        assert!(report.thm14_exact);
        assert!((report.busy.imbalance - 1.0).abs() < 1e-12);
    }
}
