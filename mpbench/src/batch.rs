//! The batch workloads — `merge_large`, `merge_small` and `sort_mix`. One
//! caller runs operations back to back on pre-generated inputs, in blocks
//! of two passes at `p` threads, one at a single thread and one through
//! the sequential baseline, and checks every output outside the timer.

use std::time::Instant;

use crate::baseline::{seq_merge, std_sorts, MergeBaseline};
use crate::gen::{
    self, multiset_hash, sorted_and_hash, sorted_run, std_merged, SMALL_FAMILIES, SORT_FAMILIES,
};
use crate::pin;
use crate::report::{cpu_jiffies, peak_rss_mib, steal_since, Report, RunConfig};
use crate::stats::{geomean, good_quartile, keep_quiet, median, mid_mean, windowed_tail, Better};
use crate::sut::{batch_merge_into, default_threads, parallel_merge_into, parallel_merge_sort};
use crate::trace::{ratio, record_merge_layers, replay_merge, write_spans, Index, Trace};

/// One operation on one pre-generated input.
struct Op {
    family: &'static str,
    kind: Kind,
}

enum Kind {
    Merge {
        a: Vec<u32>,
        b: Vec<u32>,
        out: Vec<u32>,
        /// What `out` holds before every merge (see [`gen::sentinel`]).
        sentinel: u32,
        expect: Expect,
    },
    Sort {
        input: Vec<u32>,
        work: Vec<u32>,
        expect: Vec<u32>,
    },
}

enum Expect {
    /// The standard library's merge of the inputs.
    Exact(Vec<u32>),
    /// Sorted, with the inputs' multiset hash: checks an out-of-cache
    /// merge without a second output-sized buffer.
    Hash(u64),
}

impl Op {
    fn merge(family: &'static str, a: Vec<u32>, b: Vec<u32>, exact: bool) -> Op {
        let expect = if exact {
            Expect::Exact(std_merged(&a, &b))
        } else {
            Expect::Hash(multiset_hash(&a).wrapping_add(multiset_hash(&b)))
        };
        Op {
            family,
            kind: Kind::Merge {
                sentinel: gen::sentinel(&a, &b),
                a,
                b,
                out: Vec::new(),
                expect,
            },
        }
    }

    fn sort(family: &'static str, input: Vec<u32>) -> Op {
        let mut expect = input.clone();
        expect.sort();
        Op {
            family,
            kind: Kind::Sort {
                input,
                work: Vec::new(),
                expect,
            },
        }
    }

    fn elems(&self) -> usize {
        match &self.kind {
            Kind::Merge { a, b, .. } => a.len() + b.len(),
            Kind::Sort { input, .. } => input.len(),
        }
    }

    /// Gives the op a new output buffer, as a first call would have.
    fn fresh(&mut self) {
        let n = self.elems();
        match &mut self.kind {
            Kind::Merge { out, .. } => *out = vec![0; n],
            Kind::Sort { work, .. } => *work = vec![0; n],
        }
    }

    /// Overwrites a merge's output with its sentinel; a sort's is
    /// overwritten by its input before every run anyway.
    fn clear_output(&mut self) {
        if let Kind::Merge { out, sentinel, .. } = &mut self.kind {
            out.fill(*sentinel);
        }
    }

    /// Runs the op on `threads`, or through the sequential baseline for
    /// `None`; returns when the timer started and the seconds it measured.
    /// Untimed, a merge's output is cleared and a sort's input copied in
    /// first, so every run's output is its own.
    fn run(&mut self, threads: Option<usize>) -> (Instant, f64) {
        self.clear_output();
        let start;
        match &mut self.kind {
            Kind::Merge { a, b, out, .. } => {
                start = Instant::now();
                match threads {
                    Some(t) => parallel_merge_into(a, b, out, t),
                    None => seq_merge(a, b, out),
                }
            }
            Kind::Sort { input, work, .. } => {
                work.copy_from_slice(input);
                start = Instant::now();
                match threads {
                    Some(t) => parallel_merge_sort(work, t),
                    None => work.sort(),
                }
            }
        }
        (start, start.elapsed().as_secs_f64())
    }

    fn verify(&self) -> bool {
        match &self.kind {
            Kind::Merge { out, expect, .. } => match expect {
                Expect::Exact(v) => out == v,
                Expect::Hash(h) => sorted_and_hash(out, default_threads()) == (true, *h),
            },
            Kind::Sort { work, expect, .. } => work == expect,
        }
    }

    fn check(&self, r: &mut Report, what: &str) {
        r.check(self.verify(), || {
            format!("{} {} output is wrong", self.family, what)
        });
    }
}

/// Set-up episodes per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Timed blocks are grouped into windows at least this long. Each number
/// is computed per window, so interference from outside the process that
/// lasts less than most of a run does not move it: rates and latencies are
/// reduced by `good_quartile`, and the ratios of passes run side by side
/// in a window by `mid_mean`. Windows in which the hypervisor stole CPU
/// time are left out first (`keep_quiet`).
const WINDOW_SECS: f64 = 0.5;
/// Samples a window needs for its own p99.
const TAIL_WINDOW_MIN: usize = 1000;

/// Traced ops per run at most: enough for steady per-layer numbers,
/// few enough that a run's span file stays a few megabytes.
const MAX_TRACED_OPS: usize = 4000;

/// One out-of-cache uniform pair, each side built in O(n) from seeded gaps.
pub fn merge_large(cfg: &RunConfig) -> Report {
    let gen_start = Instant::now();
    let n = cfg.size(1 << 26, 1 << 14);
    let a = sorted_run(n, gen::stream(cfg.seed, 0));
    let b = sorted_run(n, gen::stream(cfg.seed, 1));
    let ops = vec![Op::merge("uniform", a, b, false)];
    let r = Report::default();
    run(cfg, r, ops, 1, gen_start.elapsed().as_secs_f64())
}

/// Ten cache-resident pairs with 2^16 outputs, two seeds of each family,
/// interleaved.
pub fn merge_small(cfg: &RunConfig) -> Report {
    let gen_start = Instant::now();
    let side = cfg.size(1 << 15, 1 << 9);
    let ops = (0..2)
        .flat_map(|s| SMALL_FAMILIES.map(|f| (s, f)))
        .map(|(s, family)| {
            let (a, b) = gen::small_pair(family, side, gen::stream(cfg.seed, s));
            Op::merge(family, a, b, true)
        })
        .collect();
    let mut r = Report::default();
    if !cfg.smoke {
        // Start the pool, whose first use spawns the workers, and pin them
        // (see `pin`). Set-up and both passes then run pinned.
        parallel_merge_into(&[0, 2], &[1, 3], &mut [0; 4], default_threads());
        let pinned = pin::pin_threads();
        r.detail("host.pinned", f64::from(u8::from(pinned)), "bool", 1);
    }
    run(cfg, r, ops, 10, gen_start.elapsed().as_secs_f64())
}

/// Sorts of 2^21 keys, rotating four input families.
pub fn sort_mix(cfg: &RunConfig) -> Report {
    let gen_start = Instant::now();
    let n = cfg.size(1 << 21, 1 << 12);
    let ops = SORT_FAMILIES
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let input = mergepath_workloads::unsorted_keys(*f, n, gen::stream(cfg.seed, i as u64));
            Op::sort(f.name(), input)
        })
        .collect();
    let r = Report::default();
    run(cfg, r, ops, 1, gen_start.elapsed().as_secs_f64())
}

/// Runs the pass `cfg` asks for into `r`. A set-up episode gives every op
/// a new buffer and runs `setup_passes` passes over the ops at `p`.
fn run(
    cfg: &RunConfig,
    mut r: Report,
    mut ops: Vec<Op>,
    setup_passes: usize,
    gen_s: f64,
) -> Report {
    let p = default_threads();
    if cfg.trace {
        traced(cfg, &mut ops, p, &mut r);
        r.metric("gen_s", gen_s, 1);
    } else {
        untraced(cfg, &mut ops, p, &mut r, setup_passes);
        r.detail("gen_s", gen_s, "s", 1);
    }
    r
}

fn untraced(cfg: &RunConfig, ops: &mut [Op], p: usize, r: &mut Report, setup_passes: usize) {
    // The first episode includes the pool's first use (unless the workload
    // started the pool to pin it); the median leaves it out.
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            for op in ops.iter_mut() {
                op.fresh();
            }
            for _ in 0..setup_passes {
                for op in ops.iter_mut() {
                    op.run(Some(p));
                }
            }
            let secs = start.elapsed().as_secs_f64();
            for op in ops.iter() {
                op.check(r, "set-up");
            }
            secs
        })
        .collect();
    r.metric("setup_s", median(&setup), setup.len());

    let deadline = cfg.deadline();
    let mut windows: Vec<Window> = Vec::new();
    let mut window = Window::new(ops.len());
    let mut window_start = Instant::now();
    loop {
        for (slot, threads, passes) in [(0, Some(p), 2), (1, Some(1), 1), (2, None, 1)] {
            for _ in 0..passes {
                for (i, op) in ops.iter_mut().enumerate() {
                    let (_, secs) = op.run(threads);
                    op.check(r, "timed");
                    window.timed[slot].push((secs, op.elems()));
                    if slot == 0 {
                        window.latency_us[i].push(secs * 1e6);
                    }
                }
            }
        }
        let now = Instant::now();
        if now.duration_since(window_start).as_secs_f64() >= WINDOW_SECS || now >= deadline {
            window.steal = steal_since(window.jiffies);
            windows.push(std::mem::replace(&mut window, Window::new(ops.len())));
            window_start = now;
        }
        if now >= deadline {
            break;
        }
    }
    let all = windows.len();
    let windows = keep_quiet(windows, |w| w.steal);
    r.detail(
        "host.quiet_frac",
        windows.len() as f64 / all as f64,
        "fraction",
        all,
    );

    let mut families: Vec<&'static str> = ops.iter().map(|op| op.family).collect();
    families.sort_unstable();
    families.dedup();
    let [at_p, at_1, at_seq]: [Vec<f64>; 3] =
        std::array::from_fn(|k| windows.iter().map(|w| rate(&w.timed[k])).collect());
    let over = |top: &[f64], base: &[f64]| -> Vec<f64> {
        top.iter().zip(base).map(|(t, b)| t / b).collect()
    };
    let p50: Vec<f64> = windows
        .iter()
        .map(|w| geomean(&family_p50(ops, &families, &w.latency_us)))
        .collect();
    let window_us: Vec<Vec<f64>> = windows.iter().map(|w| w.latency_us.concat()).collect();
    let (tail, q) = windowed_tail(&window_us, TAIL_WINDOW_MIN, 0.99);
    let samples: usize = window_us.iter().map(Vec::len).sum();
    let n = windows.len();
    r.metric("peak_rss_mib", peak_rss_mib(), 1);
    r.metric("speedup_t1", mid_mean(&over(&at_p, &at_1)), n);
    r.metric("t1_over_seq", mid_mean(&over(&at_1, &at_seq)), n);
    r.detail("speedup_seq", mid_mean(&over(&at_p, &at_seq)), "x", n);
    let good_rate = |v: &[f64]| good_quartile(v, Better::Higher);
    r.detail("throughput_melem_s", good_rate(&at_p), "Melem/s", n);
    r.detail("throughput_melem_s.t1", good_rate(&at_1), "Melem/s", n);
    r.detail("throughput_melem_s.seq", good_rate(&at_seq), "Melem/s", n);
    r.detail(
        "op_p50_us",
        good_quartile(&p50, Better::Lower),
        "us",
        samples,
    );
    r.detail("op_tail_us", tail, "us", samples);
    r.detail("op_tail_quantile", q, "quantile", samples);
    let whole: Vec<Vec<f64>> = (0..ops.len())
        .map(|i| {
            windows
                .iter()
                .flat_map(|w| w.latency_us[i].clone())
                .collect()
        })
        .collect();
    for (f, p50) in families.iter().zip(family_p50(ops, &families, &whole)) {
        let n = ops
            .iter()
            .zip(&whole)
            .filter(|(op, _)| op.family == *f)
            .map(|(_, l)| l.len())
            .sum();
        r.detail(format!("op_p50_us.{f}"), p50, "us", n);
    }
}

/// Output keys per second, in millions, over `(seconds, keys)` ops.
fn rate(timed: &[(f64, usize)]) -> f64 {
    let keys: usize = timed.iter().map(|x| x.1).sum();
    keys as f64 / timed.iter().map(|x| x.0).sum::<f64>() / 1e6
}

/// The ops timed in one window of the untraced pass.
struct Window {
    /// `(seconds, keys)` of each op at `p`, at one thread, and through the
    /// sequential baseline.
    timed: [Vec<(f64, usize)>; 3],
    /// Per op, its latencies at `p`.
    latency_us: Vec<Vec<f64>>,
    /// CPU time counters when the window opened, and the share of CPU
    /// time the hypervisor stole while it was open.
    jiffies: Option<(u64, u64)>,
    steal: f64,
}

impl Window {
    fn new(ops: usize) -> Window {
        Window {
            timed: Default::default(),
            latency_us: vec![Vec::new(); ops],
            jiffies: cpu_jiffies(),
            steal: 0.0,
        }
    }
}

/// The median latency of each family, given each op's latencies: the
/// median of the whole mix would jump between families whose op times
/// differ.
fn family_p50(ops: &[Op], families: &[&str], latency_us: &[Vec<f64>]) -> Vec<f64> {
    families
        .iter()
        .map(|f| {
            let of = ops.iter().zip(latency_us).filter(|(op, _)| op.family == *f);
            median(&of.flat_map(|(_, l)| l.iter().copied()).collect::<Vec<_>>())
        })
        .collect()
}

fn traced(cfg: &RunConfig, ops: &mut [Op], p: usize, r: &mut Report) {
    let mut base = MergeBaseline::default();
    let mut std_s: Vec<(&'static str, f64)> = Vec::new();
    for op in ops.iter_mut() {
        op.fresh();
        let family = op.family;
        match &mut op.kind {
            Kind::Merge { a, b, out, .. } => base.add(a, b, out),
            Kind::Sort { input, .. } => {
                // The sort's last round merges two sorted halves.
                let (mut lo, mut hi) = (
                    input[..input.len() / 2].to_vec(),
                    input[input.len() / 2..].to_vec(),
                );
                let mut all = input.clone();
                let start = Instant::now();
                all.sort();
                std_s.push((family, start.elapsed().as_secs_f64()));
                lo.sort();
                hi.sort();
                base.add(&lo, &hi, &mut vec![0; input.len()]);
            }
        }
    }
    std_sorts(r, cfg);

    let mut t = Trace::new(&cfg.workload);
    let deadline = cfg.deadline();
    let mut i = 0;
    while i < ops.len() || (i < MAX_TRACED_OPS && Instant::now() < deadline) {
        traced_op(&mut t, &mut ops[i % ops.len()], p, r);
        i += 1;
    }

    let ix = Index::new(&t);
    let (kernel_gbs, per_family) = record_merge_layers(&ix, r);
    base.report(r, kernel_gbs, ops.len());
    for (name, value, n) in per_family {
        r.detail(name, value, "ns/elem", n);
    }
    if !std_s.is_empty() {
        sort_detail(&ix, &std_s, r);
    }
    write_spans(cfg, &t, r);
}

fn traced_op(t: &mut Trace, op: &mut Op, p: usize, r: &mut Report) {
    let id = t.begin_op(op.family);
    let (start, secs) = op.run(Some(p));
    let start_ns = t.ns(start);
    let span = t.push(
        "op",
        0,
        id,
        start_ns,
        start_ns + (secs * 1e9) as u64,
        op.elems() as u64,
    );
    op.check(r, "traced");
    op.clear_output();
    match &mut op.kind {
        Kind::Merge { a, b, out, .. } => replay_merge(t, span, id, start_ns, a, b, out, p),
        Kind::Sort { input, work, .. } => {
            work.copy_from_slice(input);
            let shares_ok = replay_sort(t, span, id, work, p);
            r.check(shares_ok, || {
                format!(
                    "{} sort's last round replayed share by share is wrong",
                    op.family
                )
            });
        }
    }
    op.check(r, "replayed");
}

/// Re-runs `parallel_merge_sort(work, p)` phase by phase: the chunk sorts
/// (`sort.chunk`, side by side from the op's start), then each round of
/// pairwise merges (`sort.merge`, one after another). A round that
/// merges one pair — always the last — is also replayed share by share
/// into a buffer of its own; returns whether that replay matched the
/// round's output.
fn replay_sort(t: &mut Trace, parent: u64, op: u64, work: &mut [u32], p: usize) -> bool {
    let n = work.len();
    let start_ns = t.get(parent).start_ns;
    let mut runs: Vec<usize> = (0..=p)
        .map(|k| ((n as u128 * k as u128) / p as u128) as usize)
        .collect();
    let mut at = start_ns;
    for k in 0..p {
        let chunk = &mut work[runs[k]..runs[k + 1]];
        let start = Instant::now();
        parallel_merge_sort(chunk, 1);
        let dur = start.elapsed().as_nanos() as u64;
        t.push(
            "sort.chunk",
            parent,
            op,
            start_ns,
            start_ns + dur,
            chunk.len() as u64,
        );
        at = at.max(start_ns + dur);
    }
    let mut scratch = vec![0u32; n];
    let mut in_work = true;
    let mut shares_ok = true;
    while runs.len() > 2 {
        let (src, dst): (&[u32], &mut [u32]) = if in_work {
            (&*work, &mut scratch)
        } else {
            (&scratch, &mut *work)
        };
        let pairs: Vec<(&[u32], &[u32])> = runs
            .windows(3)
            .step_by(2)
            .map(|w| (&src[w[0]..w[1]], &src[w[1]..w[2]]))
            .collect();
        let merged_end = runs[2 * pairs.len()];
        dst[..merged_end].fill(gen::sentinel(pairs[0].0, pairs[0].1));
        let start = Instant::now();
        batch_merge_into(&pairs, &mut dst[..merged_end], p);
        dst[merged_end..].copy_from_slice(&src[merged_end..]);
        let dur = start.elapsed().as_nanos() as u64;
        let round = t.push("sort.merge", parent, op, at, at + dur, merged_end as u64);
        if let [(lo, hi)] = pairs[..] {
            let mut shares = vec![gen::sentinel(lo, hi); merged_end];
            replay_merge(t, round, op, at, lo, hi, &mut shares, p);
            shares_ok &= shares[..] == dst[..merged_end];
        }
        at += dur;
        in_work = !in_work;
        runs = runs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 2 == 0 || i == runs.len() - 1)
            .map(|(_, &b)| b)
            .collect();
    }
    if !in_work {
        work.copy_from_slice(&scratch);
    }
    shares_ok
}

/// The sort phases per family: chunk and round rates, phase 1's share of
/// the op, and the op against `slice::sort` on the same input.
fn sort_detail(ix: &Index, std_s: &[(&'static str, f64)], r: &mut Report) {
    let mut phase1 = Vec::new();
    for &(family, std_secs) in std_s {
        let ops: Vec<_> = ix.named("op").filter(|s| ix.family(s) == family).collect();
        let mut op_ns = Vec::new();
        for (name, key) in [("sort.chunk", "chunk"), ("sort.merge", "merge")] {
            let (mut ns, mut items, mut count) = (0u64, 0u64, 0usize);
            for s in ix.named(name).filter(|s| ix.family(s) == family) {
                ns += s.dur();
                items += s.items;
                count += 1;
            }
            r.detail(
                format!("sort.{key}_ns_per_elem.{family}"),
                ratio(ns as f64, items as f64),
                "ns/elem",
                count,
            );
        }
        for s in &ops {
            op_ns.push(s.dur() as f64);
            let slowest = ix
                .children(s.id)
                .filter(|c| c.name == "sort.chunk")
                .map(|c| c.dur())
                .max();
            phase1.push(ratio(slowest.unwrap_or(0) as f64, s.dur() as f64));
        }
        if !op_ns.is_empty() {
            r.detail(
                format!("sort.vs_std.{family}"),
                median(&op_ns) / 1e9 / std_secs,
                "ratio",
                op_ns.len(),
            );
        }
    }
    if !phase1.is_empty() {
        r.detail(
            "sort.phase1_frac",
            median(&phase1),
            "fraction",
            phase1.len(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(op: &Op) -> Vec<u32> {
        match &op.kind {
            Kind::Merge { a, b, .. } => std_merged(a, b),
            Kind::Sort { .. } => unreachable!("merges only"),
        }
    }

    /// Every later run starts from a cleared buffer, so a merge that
    /// writes nothing, or only part of its output, fails the check even
    /// though an earlier run left the right answer in place.
    #[test]
    fn a_merge_that_writes_nothing_or_part_fails_the_check() {
        let pairs = [
            gen::small_pair("uniform", 300, 1),
            gen::small_pair("all-equal", 300, 2),
            (vec![0; 300], vec![0; 300]),
            (vec![u32::MAX; 300], vec![u32::MAX; 300]),
            (Vec::new(), vec![5, 6, 7]),
        ];
        for (a, b) in pairs {
            for exact in [true, false] {
                let mut op = Op::merge("test", a.clone(), b.clone(), exact);
                op.fresh();
                op.run(Some(2));
                assert!(op.verify(), "a real merge passes");
                // A run whose merge writes nothing leaves exactly this.
                op.clear_output();
                assert!(!op.verify(), "an unwritten output fails");
                // One that writes only the first half.
                let want = merged(&op);
                if let Kind::Merge { out, .. } = &mut op.kind {
                    let half = out.len() / 2;
                    out[..half].copy_from_slice(&want[..half]);
                }
                assert!(!op.verify(), "a half-written output fails");
            }
        }
    }

    #[test]
    fn sentinel_differs_from_the_first_output_key() {
        assert_eq!(gen::sentinel(&[3, 9], &[1, 2]), !1);
        assert_eq!(gen::sentinel(&[], &[7]), !7);
        assert_eq!(gen::sentinel(&[u32::MAX], &[]), 0);
        assert_eq!(gen::sentinel(&[], &[]), u32::MAX);
    }
}
