//! Spans recorded by the traced pass, the replay that produces them, and
//! the per-layer numbers derived from them.
//!
//! The traced pass times an operation as one `op` span, then re-runs its
//! parts one at a time through the public entry points and records each
//! part as a child span. Parts that ran side by side in the real
//! operation are *placed* side by side: every share starts at its
//! parent's start, and a share's searches and segment follow each other.
//! A span's self time — its duration minus the part its children cover —
//! is then the time no replayed part explains: fork-join and scheduling
//! for a merge, queueing for a `server` span.

use std::io::Write;
use std::time::Instant;

use crate::report::{json_str, Report, RunConfig};
use crate::stats::{median, percentile, sorted};
use crate::sut::{co_rank, parallel_merge_into};

/// One timed interval at a layer boundary. `items` is the work it did:
/// output keys for ops, kernels and rounds, 1 for a search.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one traced pass, kept in memory until the run ends.
pub struct Trace {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    /// The input family of each op, indexed by op id − 1.
    families: Vec<&'static str>,
}

impl Trace {
    pub fn new(workload: &str) -> Self {
        Trace {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            families: Vec::new(),
        }
    }

    /// `t` in nanoseconds since the trace began.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a new operation on an input of `family`; returns its id.
    pub fn begin_op(&mut self, family: &'static str) -> u64 {
        self.families.push(family);
        self.families.len() as u64
    }

    pub fn family(&self, op: u64) -> &'static str {
        self.families[op as usize - 1]
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        items: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: end_ns.max(start_ns),
            items,
        });
        id
    }

    pub fn get(&self, id: u64) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"workload\":{},\"op\":{},\"family\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id,
                s.parent,
                json_str(s.name),
                json_str(&self.workload),
                s.op,
                json_str(self.family(s.op)),
                s.start_ns,
                s.end_ns,
                s.items
            )?;
        }
        w.flush()
    }
}

/// Calls of each search timed together: one `co_rank` is well under a
/// microsecond, close to the clock's own cost.
const SEARCH_REPS: u32 = 8;

/// Re-runs a parallel merge of `a` and `b` into `out` at `p` shares, one
/// part at a time, and records the parts as children of `parent` placed
/// as the pool runs them: share `k` searches the cuts ⌊k·n/p⌋ and
/// ⌊(k+1)·n/p⌋ (`diagonal.co_rank`), then merges its segment on one
/// thread (`kernel.segment`), all shares starting at `start_ns`.
#[allow(clippy::too_many_arguments)]
pub fn replay_merge(
    t: &mut Trace,
    parent: u64,
    op: u64,
    start_ns: u64,
    a: &[u32],
    b: &[u32],
    out: &mut [u32],
    p: usize,
) {
    let n = a.len() + b.len();
    let cut = |k: usize| ((n as u128 * k as u128) / p as u128) as usize;
    for k in 0..p {
        let mut at = start_ns;
        let mut search = |t: &mut Trace, d: usize| {
            let clock = Instant::now();
            let mut i = 0;
            for _ in 0..SEARCH_REPS {
                i = co_rank(std::hint::black_box(d), a, b);
            }
            let dur = clock.elapsed().as_nanos() as u64 / u64::from(SEARCH_REPS);
            t.push("diagonal.co_rank", parent, op, at, at + dur, 1);
            at += dur;
            i
        };
        let (d_lo, d_hi) = (cut(k), cut(k + 1));
        let (i_lo, i_hi) = (search(t, d_lo), search(t, d_hi));
        let clock = Instant::now();
        parallel_merge_into(
            &a[i_lo..i_hi],
            &b[d_lo - i_lo..d_hi - i_hi],
            &mut out[d_lo..d_hi],
            1,
        );
        let dur = clock.elapsed().as_nanos() as u64;
        t.push(
            "kernel.segment",
            parent,
            op,
            at,
            at + dur,
            (d_hi - d_lo) as u64,
        );
    }
}

/// Spans indexed by name and by parent.
pub struct Index<'a> {
    trace: &'a Trace,
    children: Vec<Vec<usize>>,
}

impl<'a> Index<'a> {
    pub fn new(trace: &'a Trace) -> Self {
        let mut children = vec![Vec::new(); trace.spans.len() + 1];
        for (i, s) in trace.spans.iter().enumerate() {
            children[s.parent as usize].push(i);
        }
        Index { trace, children }
    }

    pub fn named(&self, name: &'static str) -> impl Iterator<Item = &'a Span> + '_ {
        self.trace.spans.iter().filter(move |s| s.name == name)
    }

    pub fn children(&self, id: u64) -> impl Iterator<Item = &'a Span> + '_ {
        self.children[id as usize]
            .iter()
            .map(|&i| &self.trace.spans[i])
    }

    pub fn family(&self, s: &Span) -> &'static str {
        self.trace.family(s.op)
    }

    /// Duration minus the union of the children's intervals, clipped to
    /// the span.
    pub fn self_ns(&self, s: &Span) -> u64 {
        let mut iv: Vec<(u64, u64)> = self
            .children(s.id)
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        s.dur() - covered
    }
}

/// `(p50, p99)` of `values`, or NaN for no values.
pub fn p50_p99(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let v = sorted(values);
    (percentile(&v, 0.5), percentile(&v, 0.99))
}

/// `num / den`, NaN for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// A named value with its sample count.
pub type Layer = (String, f64, usize);

/// The merge layers every workload exercises, from the replayed merges
/// (every span with `kernel.segment` children): kernel rate, share
/// imbalance, computed bandwidth, search cost and fork-join overhead.
/// Then the share of merges whose wall time reached nine tenths of their
/// parts' summed time — the pool ran them with no parallelism at all —
/// and the kernel rate per input family, `kernel.ns_per_elem.<family>`.
pub fn merge_layers(ix: &Index) -> (Vec<Layer>, Layer, Vec<Layer>) {
    let searches: Vec<&Span> = ix.named("diagonal.co_rank").collect();
    let search_ns = searches.iter().map(|s| s.dur()).sum::<u64>() as f64;
    let segments: Vec<&Span> = ix.named("kernel.segment").collect();
    let mut parents: Vec<u64> = segments.iter().map(|s| s.parent).collect();
    parents.sort_unstable();
    parents.dedup();
    let (mut imbalance, mut fork_join, mut solo) = (Vec::new(), Vec::new(), 0usize);
    let (mut merge_ns, mut merge_items) = (0u64, 0u64);
    for &id in &parents {
        let m = ix.trace.get(id);
        let shares: Vec<f64> = ix
            .children(id)
            .filter(|c| c.name == "kernel.segment")
            .map(|c| c.dur() as f64)
            .collect();
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        imbalance.push(ratio(shares.iter().cloned().fold(0.0, f64::max), mean));
        // Signed: a replay slower than the real merge reads negative.
        let slowest = ix.children(id).map(|c| c.end_ns).max().unwrap_or(m.end_ns);
        fork_join.push((m.end_ns as f64 - slowest as f64) / 1e3);
        let parts: u64 = ix.children(id).map(|c| c.dur()).sum();
        solo += usize::from(shares.len() > 1 && m.dur() * 10 >= parts * 9);
        merge_ns += m.dur();
        merge_items += m.items;
    }
    let seg_ns = segments.iter().map(|s| s.dur()).sum::<u64>() as f64;
    let seg_items = segments.iter().map(|s| s.items).sum::<u64>() as f64;
    let imbalance: Vec<f64> = imbalance.into_iter().filter(|x| x.is_finite()).collect();
    let layers = vec![
        (
            "kernel.ns_per_elem".into(),
            ratio(seg_ns, seg_items),
            segments.len(),
        ),
        (
            "kernel.imbalance".into(),
            ratio(imbalance.iter().sum(), imbalance.len() as f64),
            imbalance.len(),
        ),
        // Computed traffic: each output key is read once and written once.
        (
            "kernel.gbs".into(),
            ratio(8.0 * merge_items as f64, merge_ns as f64),
            parents.len(),
        ),
        (
            "diagonal.search_ns".into(),
            ratio(search_ns, searches.len() as f64),
            searches.len(),
        ),
        (
            "executor.fork_join_us".into(),
            if fork_join.is_empty() {
                f64::NAN
            } else {
                median(&fork_join)
            },
            fork_join.len(),
        ),
    ];
    let mut families: Vec<&str> = segments.iter().map(|s| ix.family(s)).collect();
    families.sort_unstable();
    families.dedup();
    let solo = (
        "executor.solo_frac".to_string(),
        ratio(solo as f64, parents.len() as f64),
        parents.len(),
    );
    let per_family = families
        .into_iter()
        .map(|f| {
            let of: Vec<&&Span> = segments.iter().filter(|s| ix.family(s) == f).collect();
            let ns = of.iter().map(|s| s.dur()).sum::<u64>() as f64;
            let items = of.iter().map(|s| s.items).sum::<u64>() as f64;
            (
                format!("kernel.ns_per_elem.{f}"),
                ratio(ns, items),
                of.len(),
            )
        })
        .collect();
    (layers, solo, per_family)
}

/// Records [`merge_layers`] into `r`: the layers as metrics, the
/// no-parallelism share as detail. Returns the kernel's computed GB/s and
/// the per-family kernel rates.
pub fn record_merge_layers(ix: &Index, r: &mut Report) -> (f64, Vec<Layer>) {
    let (layers, solo, per_family) = merge_layers(ix);
    let mut gbs = f64::NAN;
    for (name, value, n) in layers {
        if name == "kernel.gbs" {
            gbs = value;
        }
        r.metric(&name, value, n);
    }
    r.detail(solo.0, solo.1, "fraction", solo.2);
    (gbs, per_family)
}

/// Writes the span file, `--spans` or a default beside the build.
pub fn write_spans(cfg: &RunConfig, t: &Trace, r: &mut Report) {
    let path = cfg.spans.clone().unwrap_or_else(|| {
        format!(
            "{}/target/spans/{}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            cfg.workload,
            cfg.seed
        )
    });
    if let Err(e) = t.write_jsonl(&path) {
        r.check(false, || format!("writing spans to {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new("test");
        let op_id = t.begin_op("uniform");
        let op = t.push("op", 0, op_id, 100, 200, 10);
        // Two parallel shares [100, 160) and [100, 180): union 80.
        t.push("kernel.segment", op, op_id, 100, 160, 4);
        t.push("kernel.segment", op, op_id, 100, 180, 6);
        let ix = Index::new(&t);
        assert_eq!(ix.self_ns(t.get(op)), 20);
        let (layers, solo, per_family) = merge_layers(&ix);
        let m = |name: &str| {
            layers
                .iter()
                .find(|l| l.0 == name)
                .map(|l| (l.1, l.2))
                .unwrap()
        };
        assert_eq!(m("executor.fork_join_us"), (0.02, 1));
        assert_eq!(m("kernel.ns_per_elem"), (140.0 / 10.0, 2));
        assert!((m("kernel.imbalance").0 - 80.0 / 70.0).abs() < 1e-12);
        assert_eq!(m("kernel.gbs").0, 8.0 * 10.0 / 100.0);
        // 100 ns of wall for 140 ns of parts: the shares overlapped.
        assert_eq!(solo, ("executor.solo_frac".to_string(), 0.0, 1));
        assert_eq!(
            per_family,
            vec![("kernel.ns_per_elem.uniform".to_string(), 14.0, 2)]
        );
    }

    #[test]
    fn replay_reproduces_the_merge_and_places_shares_in_parallel() {
        let a: Vec<u32> = (0..1000).map(|x| 2 * x).collect();
        let b: Vec<u32> = (0..700).map(|x| 3 * x + 1).collect();
        let mut out = vec![0; a.len() + b.len()];
        let mut t = Trace::new("test");
        let op = t.begin_op("mixed");
        let parent = t.push("op", 0, op, 1000, 2000, out.len() as u64);
        replay_merge(&mut t, parent, op, 1000, &a, &b, &mut out, 3);
        assert_eq!(out, crate::gen::std_merged(&a, &b));
        let ix = Index::new(&t);
        let segments: Vec<&Span> = ix.named("kernel.segment").collect();
        assert_eq!(
            segments.iter().map(|s| s.items).collect::<Vec<_>>(),
            [566, 567, 567]
        );
        assert_eq!(ix.named("diagonal.co_rank").count(), 6);
        // Each share's first search starts at the parent's start.
        let firsts = ix
            .named("diagonal.co_rank")
            .filter(|s| s.start_ns == 1000)
            .count();
        assert_eq!(firsts, 3);
    }
}
