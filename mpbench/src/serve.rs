//! `serve_mix`: the TCP daemon on loopback under the traffic `mp serve`
//! generates, driven over one connection by one sender and one receiver
//! thread. Requests come from the repository's arrival plan with
//! `mp serve`'s defaults (see [`gen::serve_requests`]): merges over the
//! nine input families around a mean of 2048 keys per side, each with its
//! own deadline (see [`DEADLINE_NS`]). Two open-loop legs replay the
//! plan's steady and bursty arrival processes at one rate and time each
//! request from when it was due; closed-loop rounds then measure capacity,
//! alternating with the same daemon held to one thread and with one thread
//! computing the same requests in-process through the sequential
//! baseline: the bases of the two gated ratios.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mergepath_workloads::ArrivalPattern;

use crate::baseline::{seq_merge, std_sorts, MergeBaseline};
use crate::gen;
use crate::report::{cpu_jiffies, peak_rss_mib, steal_since, Report, RunConfig};
use crate::stats::{
    good_quartile, keep_quiet, median, mid_mean, percentile, sorted, windowed_tail, Better,
};
use crate::sut::{
    default_threads, encode_request, listen_config, parallel_merge_into, read_request,
    read_response, single_thread_config, start_server, NetOp, NetRequest, NetServer, NetStatus,
    ServeConfig,
};
use crate::trace::{p50_p99, record_merge_layers, replay_merge, write_spans, Index, Trace};

/// `mp serve`'s default mean per-side length (`--n`).
const MEAN_LEN: usize = 2048;
/// Mean relative deadline: `mp serve`'s default of 50 ms (`--deadline-ms`)
/// scaled to 1 s. EDF serves queued requests in the order of their
/// deadlines, which the scaling keeps; but a host that stalls the daemon
/// for 25 ms, as heavy hypervisor steal does, would expire 50 ms requests
/// and fail the run.
const DEADLINE_NS: u64 = 1_000_000_000;
/// Requests kept outstanding by the closed-loop legs: the daemon's 64
/// serving threads, each with one request.
const OUTSTANDING: usize = 64;
/// Offered rate of both open-loop legs, requests per second. `mp serve`
/// itself offers 100k/s to exercise admission control, far past what the
/// daemon completes; this benchmark counts every refused request as a
/// failure, so it offers a load the daemon absorbs instead: about a
/// quarter of the closed-loop capacity (about 25k/s) measured on a 2-vCPU
/// host. The bursty leg delivers the same rate in bursts of 4–16
/// requests, which queue up behind each other: the daemon then coalesces
/// them and EDF picks among their deadlines.
const RATE: f64 = 6000.0;
/// Share of `--seconds` each open-loop leg lasts; the closed-loop rounds
/// take the rest.
const OPEN_SHARE: f64 = 0.2;
/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Idle time before each daemon start. Back to back, a start competes with
/// what the previous daemon's threads leave behind, and the median start
/// of a run moved by 40% between runs on a 2-vCPU host; 0.1 s apart, by
/// 7%.
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Requests a new daemon answers one at a time after its set-up, untimed.
const WARMUP: usize = 200;
/// Windows of the window-median tails, and the samples each must hold.
const WINDOW_NS: u64 = 1_000_000_000;
const WINDOW_MIN: usize = 1000;
/// A closed-loop round runs the daemon at `p` this long, then the
/// one-thread daemon for 0.6 of it and the in-process sequential baseline
/// for 0.4 of it, so each round's ratios compare neighbours in time.
/// Rates and ratios are per round; rates are reduced by `good_quartile`,
/// ratios by `mid_mean`.
const ROUND_SECS: f64 = 0.5;
/// Requests the traced pass records spans for, and of those, how many
/// it re-runs standalone to split server time into wait and compute.
const TRACED_REQUESTS: usize = 4000;
const REPLAYED_REQUESTS: usize = 400;

/// The pre-generated requests: their encoded frames and expected outputs.
struct Pool {
    family: Vec<&'static str>,
    requests: Vec<NetRequest>,
    frames: Vec<Vec<u8>>,
    oracle: Vec<Vec<u32>>,
}

impl Pool {
    fn new(cfg: &RunConfig) -> Pool {
        let (family, requests): (Vec<&'static str>, Vec<NetRequest>) = gen::serve_requests(
            cfg.size(1000, 100),
            mean_len(cfg),
            DEADLINE_NS,
            gen::stream(cfg.seed, 0),
        )
        .into_iter()
        .unzip();
        let frames = requests.iter().map(encode_request).collect();
        let oracle = requests
            .iter()
            .map(|req| {
                let (a, b) = inputs(req);
                gen::std_merged(a, b)
            })
            .collect();
        Pool {
            family,
            requests,
            frames,
            oracle,
        }
    }

    fn len(&self) -> usize {
        self.frames.len()
    }
}

fn mean_len(cfg: &RunConfig) -> usize {
    cfg.size(MEAN_LEN, MEAN_LEN / 16)
}

/// The inputs of a pooled request: `mp serve` traffic is merges only.
fn inputs(req: &NetRequest) -> (&[u32], &[u32]) {
    match &req.op {
        NetOp::Merge { a, b } => (a, b),
        NetOp::Sort { .. } => unreachable!("serve_mix sends merges only"),
    }
}

#[derive(Clone, Copy)]
enum Load<'a> {
    /// Requests sent at these times, in ns from the leg's start.
    Open(&'a [u64]),
    /// This many requests kept outstanding.
    Closed(usize),
}

#[derive(Clone, Copy)]
enum Limit {
    For(Duration),
    Count(usize),
}

/// One request as the client saw it; times in ns on the run's clock.
struct Done {
    slot: usize,
    /// When it was due (open loop) or sent (closed loop).
    due_ns: u64,
    send_ns: u64,
    sent_ns: u64,
    recv_ns: u64,
    /// The daemon's own submit-to-completion time.
    server_ns: u64,
    /// The daemon reports it completed the request.
    completed: bool,
    problem: Option<String>,
}

impl Done {
    fn latency_us(&self) -> f64 {
        (self.recv_ns - self.due_ns) as f64 / 1e3
    }
}

/// One leg's requests, how many were sent, and when the sender started
/// and stopped.
struct Leg {
    done: Vec<Done>,
    sent: usize,
    start_ns: u64,
    stop_ns: u64,
}

impl Leg {
    /// Checks every request of the leg into `r`.
    fn check(&self, r: &mut Report) {
        for d in &self.done {
            r.check(d.problem.is_none(), || {
                d.problem.clone().unwrap_or_default()
            });
        }
        for _ in self.done.len()..self.sent {
            r.check(false, || "request sent but never answered".into());
        }
    }

    /// Requests and output keys per second answered while the sender was
    /// sending: the drain after it stops is not part of the rate.
    fn rate(&self, pool: &Pool) -> (f64, f64) {
        let secs = (self.stop_ns - self.start_ns) as f64 / 1e9;
        let answered = self.done.iter().filter(|d| d.recv_ns <= self.stop_ns);
        let (n, keys) = answered.fold((0, 0), |(n, k), d| (n + 1, k + pool.oracle[d.slot].len()));
        (n as f64 / secs, keys as f64 / secs)
    }

    fn latencies_us(&self) -> Vec<f64> {
        self.done.iter().map(Done::latency_us).collect()
    }

    /// The leg's latencies in 1 s windows of due time.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for d in &self.done {
            let w = ((d.due_ns - self.start_ns) / WINDOW_NS) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(d.latency_us());
        }
        windows
    }

    /// The median latency of each window holding at least [`WINDOW_MIN`]
    /// requests, reduced by [`good_quartile`]; the median of the whole leg
    /// when none does.
    fn latency_p50(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| w.len() >= WINDOW_MIN)
            .map(|w| median(w))
            .collect();
        if per_window.is_empty() {
            median(&self.latencies_us())
        } else {
            good_quartile(&per_window, Better::Lower)
        }
    }

    /// The `q` latency tail over 1 s windows (see [`windowed_tail`]), and
    /// the quantile it reports.
    fn latency_tail(&self, q: f64) -> (f64, f64) {
        windowed_tail(&self.windows(), WINDOW_MIN, q)
    }
}

/// A daemon and the one connection driving it.
struct Session {
    server: NetServer,
    conn: TcpStream,
    /// Requests the daemon answered on this connection.
    answered: u64,
    /// The next pool slot to send.
    next: usize,
}

impl Session {
    fn start(cfg: ServeConfig) -> std::io::Result<Session> {
        let server = start_server(cfg)?;
        let conn = TcpStream::connect(server.local_addr())?;
        conn.set_nodelay(true)?;
        Ok(Session {
            server,
            conn,
            answered: 0,
            next: 0,
        })
    }

    fn leg(&mut self, pool: &Pool, load: Load, limit: Limit, clock: Instant) -> Leg {
        let leg = drive(&self.conn, pool, load, limit, clock, self.next);
        self.next += leg.sent;
        self.answered += leg.done.iter().filter(|d| d.completed).count() as u64;
        leg
    }

    /// Closes the connection, stops the daemon and checks that it lost
    /// nothing and answered what the client received.
    fn finish(self, r: &mut Report) {
        let _ = self.conn.shutdown(Shutdown::Both);
        let stats = self.server.shutdown();
        r.check(stats.lost() == 0, || {
            format!("daemon lost {} requests", stats.lost())
        });
        r.check(stats.completed == self.answered, || {
            format!(
                "daemon completed {} requests, client received {}",
                stats.completed, self.answered
            )
        });
    }
}

fn ns(clock: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(clock).as_nanos() as u64
}

/// Sends requests over `conn` under `load` until `limit` (or the end of an
/// open-loop schedule), reading and checking the responses on a second
/// thread.
fn drive(
    conn: &TcpStream,
    pool: &Pool,
    load: Load,
    limit: Limit,
    clock: Instant,
    first: usize,
) -> Leg {
    let (meta_tx, meta_rx) = mpsc::channel::<(usize, u64, u64, u64)>();
    let window = match load {
        Load::Closed(n) => n,
        Load::Open(_) => 0,
    };
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        token_tx
            .send(())
            .expect("the token channel holds the whole window");
    }
    let writer = conn
        .try_clone()
        .expect("clone the connection for the sender");
    let reader = conn
        .try_clone()
        .expect("clone the connection for the receiver");
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut writer = writer;
            let start = Instant::now();
            let mut sent = 0;
            let mut stop;
            loop {
                let due = match load {
                    Load::Open(at) => at.get(sent).map(|&t| start + Duration::from_nanos(t)),
                    Load::Closed(_) => token_rx.recv().ok().map(|()| Instant::now()),
                };
                stop = Instant::now();
                let Some(due) = due else { break };
                let over = match limit {
                    Limit::For(d) => due >= start + d,
                    Limit::Count(n) => sent >= n,
                };
                if over {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let slot = (first + sent) % pool.len();
                let send = Instant::now();
                if writer.write_all(&pool.frames[slot]).is_err() {
                    break;
                }
                let sent_at = Instant::now();
                sent += 1;
                if meta_tx
                    .send((slot, ns(clock, due), ns(clock, send), ns(clock, sent_at)))
                    .is_err()
                {
                    break;
                }
            }
            (sent, ns(clock, start), ns(clock, stop))
        });
        let receiver = s.spawn(move || {
            let mut reader = BufReader::new(reader);
            let mut done = Vec::new();
            while let Ok((slot, due_ns, send_ns, sent_ns)) = meta_rx.recv() {
                let resp = read_response(&mut reader);
                let recv_ns = ns(clock, Instant::now());
                let (server_ns, completed, problem, broken) = match resp {
                    Ok(Some(resp)) => {
                        let problem = if resp.status != NetStatus::Ok {
                            Some(format!("request {slot}: {}", resp.status.name()))
                        } else if resp.id != slot as u64 {
                            Some(format!("request {slot}: answered as {}", resp.id))
                        } else if resp.output != pool.oracle[slot] {
                            Some(format!("request {slot}: wrong output"))
                        } else {
                            None
                        };
                        (
                            resp.latency_ns,
                            resp.status == NetStatus::Ok,
                            problem,
                            false,
                        )
                    }
                    Ok(None) => (0, false, Some("connection closed early".to_string()), true),
                    Err(e) => (0, false, Some(format!("protocol error: {e}")), true),
                };
                done.push(Done {
                    slot,
                    due_ns,
                    send_ns,
                    sent_ns,
                    recv_ns,
                    server_ns,
                    completed,
                    problem,
                });
                if broken {
                    break;
                }
                let _ = token_tx.try_send(());
            }
            done
        });
        let (sent, start_ns, stop_ns) = sender.join().expect("sender thread panicked");
        let done = receiver.join().expect("receiver thread panicked");
        Leg {
            done,
            sent,
            start_ns,
            stop_ns,
        }
    })
}

pub fn serve_mix(cfg: &RunConfig) -> Report {
    let gen_start = Instant::now();
    let pool = Pool::new(cfg);
    let gen_s = gen_start.elapsed().as_secs_f64();
    let mut r = Report::default();
    let clock = Instant::now();
    if cfg.trace {
        traced(cfg, &pool, &mut r, clock);
        r.metric("gen_s", gen_s, 1);
    } else {
        untraced(cfg, &pool, &mut r, clock);
        r.detail("gen_s", gen_s, "s", 1);
    }
    r
}

fn start(cfg: ServeConfig, r: &mut Report) -> Option<Session> {
    match Session::start(cfg) {
        Ok(s) => Some(s),
        Err(e) => {
            r.check(false, || format!("starting the daemon: {e}"));
            None
        }
    }
}

/// Starts a daemon with `cfg`, connects and has it answer one request:
/// the seconds until that first answer are the set-up. Then, untimed, it
/// answers [`WARMUP`] more one at a time. (Pipelined, the warm-up stalls
/// 40 ms on a delayed acknowledgement in about half the episodes.)
fn set_up(cfg: ServeConfig, pool: &Pool, r: &mut Report, clock: Instant) -> Option<(Session, f64)> {
    let begin = Instant::now();
    let mut s = start(cfg, r)?;
    let first = s.leg(pool, Load::Closed(1), Limit::Count(1), clock);
    let secs = begin.elapsed().as_secs_f64();
    first.check(r);
    s.leg(pool, Load::Closed(1), Limit::Count(WARMUP), clock)
        .check(r);
    Some((s, secs))
}

fn untraced(cfg: &RunConfig, pool: &Pool, r: &mut Report, clock: Instant) {
    let p = default_threads();
    let mean_len = mean_len(cfg);
    // Set-up episodes; the last session goes on to the measured legs.
    let mut setup = Vec::new();
    let mut live: Option<Session> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            previous.finish(r);
        }
        std::thread::sleep(SETUP_GAP);
        let Some((s, secs)) = set_up(listen_config(p, mean_len), pool, r, clock) else {
            return;
        };
        setup.push(secs);
        live = Some(s);
    }
    let mut s = live.expect("at least one set-up episode");
    r.metric("setup_s", median(&setup), setup.len());

    let mut open = Vec::new();
    for (k, pattern) in [ArrivalPattern::Steady, ArrivalPattern::Bursty]
        .into_iter()
        .enumerate()
    {
        let secs = cfg.seconds * OPEN_SHARE;
        let at = gen::arrivals(
            pattern,
            RATE,
            (RATE * secs).ceil() as usize,
            gen::stream(cfg.seed, 1 + k as u64),
        );
        let limit = Limit::For(Duration::from_secs_f64(secs));
        let before = s.server.stats();
        let leg = s.leg(pool, Load::Open(&at), limit, clock);
        let after = s.server.stats();
        leg.check(r);
        let name = pattern.name();
        let batched = (after.batched_requests - before.batched_requests) as f64;
        let rounds = (after.batched_rounds - before.batched_rounds) as f64;
        let completed = (after.completed - before.completed) as f64;
        r.detail(
            format!("serve.batched_frac.{name}"),
            batched / completed,
            "fraction",
            leg.done.len(),
        );
        r.detail(
            format!("serve.batch_width.{name}"),
            batched / rounds,
            "requests",
            rounds as usize,
        );
        // The daemon's peak since it started: above 1, EDF chose among
        // queued deadlines.
        r.detail(
            format!("serve.queue_depth_peak.{name}"),
            after.queue_depth_peak as f64,
            "count",
            1,
        );
        open.push((name, leg));
    }

    // Capacity: closed-loop rounds alternating with the same daemon held
    // to one thread.
    let Some((mut one, _)) = set_up(single_thread_config(mean_len), pool, r, clock) else {
        return;
    };
    let rounds =
        ((cfg.seconds * (1.0 - 2.0 * OPEN_SHARE) / (2.0 * ROUND_SECS)).round() as usize).max(1);
    let round = |share: f64| {
        Limit::For(
            Duration::from_secs_f64(ROUND_SECS * share)
                .min(Duration::from_secs_f64(cfg.seconds * 0.5)),
        )
    };
    let mut measured = Vec::with_capacity(rounds);
    let (mut answered, mut next_seq) = (0, 0);
    for _ in 0..rounds {
        let jiffies = cpu_jiffies();
        let at_p = s.leg(pool, Load::Closed(OUTSTANDING), round(1.0), clock);
        let at_1 = one.leg(pool, Load::Closed(OUTSTANDING), round(0.6), clock);
        let rps_seq = sequential_rate(pool, &mut next_seq, ROUND_SECS * 0.4, r);
        at_p.check(r);
        at_1.check(r);
        let ((rps, keys), (rps_1, _)) = (at_p.rate(pool), at_1.rate(pool));
        measured.push(Round {
            rps,
            melem_s: keys / 1e6,
            rps_1,
            rps_seq,
            steal: steal_since(jiffies),
        });
        answered += at_p.done.len() + at_1.done.len();
    }
    let stats = s.server.stats();
    r.detail(
        "serve.inflight_peak",
        stats.inflight_peak as f64,
        "count",
        1,
    );
    s.finish(r);
    one.finish(r);

    let steady = &open[0].1;
    let (tail, q) = steady.latency_tail(0.9);
    let good = |v: &[f64]| good_quartile(v, Better::Higher);
    let kept = keep_quiet(measured, |x| x.steal);
    let n = kept.len();
    let each = |f: fn(&Round) -> f64| kept.iter().map(f).collect::<Vec<f64>>();
    r.metric("peak_rss_mib", peak_rss_mib(), 1);
    r.metric("speedup_t1", mid_mean(&each(|x| x.rps / x.rps_1)), n);
    r.metric("t1_over_seq", mid_mean(&each(|x| x.rps_1 / x.rps_seq)), n);
    r.detail(
        "speedup_seq",
        mid_mean(&each(|x| x.rps / x.rps_seq)),
        "x",
        n,
    );
    r.detail(
        "host.quiet_frac",
        n as f64 / rounds as f64,
        "fraction",
        rounds,
    );
    r.detail(
        "throughput_melem_s",
        good(&each(|x| x.melem_s)),
        "Melem/s",
        n,
    );
    r.detail("capacity_rps", good(&each(|x| x.rps)), "1/s", answered);
    r.detail("op_p50_us", steady.latency_p50(), "us", steady.done.len());
    r.detail("op_tail_us", tail, "us", steady.done.len());
    r.detail("op_tail_quantile", q, "quantile", steady.done.len());
    for (name, leg) in &open {
        let n = leg.done.len();
        let lat = sorted(&leg.latencies_us());
        let late: Vec<f64> = leg
            .done
            .iter()
            .map(|d| (d.send_ns - d.due_ns) as f64 / 1e3)
            .collect();
        r.detail(format!("p50_us.{name}"), leg.latency_p50(), "us", n);
        r.detail(format!("p90_us.{name}"), leg.latency_tail(0.9).0, "us", n);
        r.detail(format!("p99_us.{name}"), leg.latency_tail(0.99).0, "us", n);
        r.detail(
            format!("serve.client_p999_us.{name}"),
            percentile(&lat, 0.999),
            "us",
            n,
        );
        r.detail(format!("gen.late_us.p99.{name}"), p50_p99(&late).1, "us", n);
    }
}

/// What one closed-loop round measured.
struct Round {
    /// Requests and millions of output keys per second answered by the
    /// daemon at `p`.
    rps: f64,
    melem_s: f64,
    /// Requests per second of the one-thread daemon and of the in-process
    /// sequential baseline.
    rps_1: f64,
    rps_seq: f64,
    /// The share of CPU time the hypervisor stole during the round.
    steal: f64,
}

/// Requests per second of compute when one thread runs the pool's
/// requests in-process through the sequential baseline (`seq_merge`) for
/// `secs`, starting at slot `next`; checks each output.
fn sequential_rate(pool: &Pool, next: &mut usize, secs: f64, r: &mut Report) -> f64 {
    let mut out = Vec::new();
    let (start, mut busy, mut n) = (Instant::now(), 0.0, 0);
    while n == 0 || start.elapsed().as_secs_f64() < secs {
        let slot = *next % pool.len();
        *next += 1;
        let (a, b) = inputs(&pool.requests[slot]);
        out.clear();
        out.resize(a.len() + b.len(), gen::sentinel(a, b));
        let clock = Instant::now();
        seq_merge(a, b, &mut out);
        busy += clock.elapsed().as_secs_f64();
        n += 1;
        r.check(out == pool.oracle[slot], || {
            format!("request {slot}: baseline output is wrong")
        });
    }
    n as f64 / busy
}

fn traced(cfg: &RunConfig, pool: &Pool, r: &mut Report, clock: Instant) {
    let p = default_threads();
    let Some((mut s, _)) = set_up(listen_config(p, mean_len(cfg)), pool, r, clock) else {
        return;
    };
    let n = cfg.size(TRACED_REQUESTS, 200);
    let at = gen::arrivals(ArrivalPattern::Steady, RATE, n, gen::stream(cfg.seed, 1));
    let leg = s.leg(pool, Load::Open(&at), Limit::Count(n), clock);
    leg.check(r);
    s.finish(r);

    // Spans of this workload are on the run's clock.
    let mut t = Trace::new(&cfg.workload);
    let mut compute_us = Vec::new();
    for (i, d) in leg
        .done
        .iter()
        .enumerate()
        .filter(|(_, d)| d.problem.is_none())
    {
        let op = t.begin_op(pool.family[d.slot]);
        let root = t.push(
            "op",
            0,
            op,
            d.due_ns,
            d.recv_ns,
            pool.oracle[d.slot].len() as u64,
        );
        t.push("client.send", root, op, d.send_ns, d.sent_ns, 1);
        // The daemon's time is placed from the moment the frame was out.
        let server_end = (d.sent_ns + d.server_ns).min(d.recv_ns);
        let server = t.push("server", root, op, d.sent_ns, server_end, 1);
        t.push("client.recv", root, op, server_end, d.recv_ns, 1);
        if i < REPLAYED_REQUESTS {
            let (a, b) = inputs(&pool.requests[d.slot]);
            let (dur, check) = replay_compute(&mut t, server, op, a, b, p, &pool.oracle[d.slot]);
            r.check(check, || {
                format!("request {} replayed standalone gave a wrong output", d.slot)
            });
            compute_us.push(dur as f64 / 1e3);
        }
    }

    let mut base = MergeBaseline::default();
    let pairs = pool.len().min(20);
    for req in &pool.requests[..pairs] {
        let (a, b) = inputs(req);
        base.add(a, b, &mut vec![0; a.len() + b.len()]);
    }
    std_sorts(r, cfg);
    let ix = Index::new(&t);
    let (kernel_gbs, per_family) = record_merge_layers(&ix, r);
    base.report(r, kernel_gbs, pairs);
    for (name, value, n) in per_family {
        r.detail(name, value, "ns/elem", n);
    }

    let servers: Vec<f64> = ix.named("server").map(|s| s.dur() as f64 / 1e3).collect();
    // Waiting is the daemon's time its standalone compute does not explain.
    let wait_us: Vec<f64> = ix
        .named("server")
        .filter(|s| ix.children(s.id).next().is_some())
        .map(|s| ix.self_ns(s) as f64 / 1e3)
        .collect();
    let wire: Vec<f64> = leg
        .done
        .iter()
        .filter(|d| d.problem.is_none())
        .map(|d| (d.recv_ns - d.send_ns) as f64 / 1e3 - d.server_ns as f64 / 1e3)
        .collect();
    for (name, values) in [
        ("serve.server_us", &servers),
        ("serve.wait_us", &wait_us),
        ("net.wire_us", &wire),
    ] {
        let (p50, p99) = p50_p99(values);
        r.detail(format!("{name}.p50"), p50, "us", values.len());
        r.detail(format!("{name}.p99"), p99, "us", values.len());
    }
    let (compute_p50, _) = p50_p99(&compute_us);
    r.detail("serve.compute_us", compute_p50, "us", compute_us.len());
    codec_detail(pool, r);
    write_spans(cfg, &t, r);
}

/// Runs one request's merge standalone at `p`, as a `serve.compute` span
/// that ends where its `server` span ends, then replays it share by share.
/// Returns its duration and whether both outputs matched the oracle.
fn replay_compute(
    t: &mut Trace,
    server: u64,
    op: u64,
    a: &[u32],
    b: &[u32],
    p: usize,
    oracle: &[u32],
) -> (u64, bool) {
    let mut out = vec![gen::sentinel(a, b); a.len() + b.len()];
    let start = Instant::now();
    parallel_merge_into(a, b, &mut out, p);
    let dur = start.elapsed().as_nanos() as u64;
    let (server_start, server_end) = (t.get(server).start_ns, t.get(server).end_ns);
    let start_ns = server_end.saturating_sub(dur).max(server_start);
    let compute = t.push(
        "serve.compute",
        server,
        op,
        start_ns,
        start_ns + dur,
        out.len() as u64,
    );
    let mut ok = out == oracle;
    out.fill(gen::sentinel(a, b));
    replay_merge(t, compute, op, start_ns, a, b, &mut out, p);
    ok &= out == oracle;
    (dur, ok)
}

/// The in-memory codec per key: encoding every pooled request, and
/// decoding the frames back.
fn codec_detail(pool: &Pool, r: &mut Report) {
    let keys: usize = pool.oracle.iter().map(Vec::len).sum();
    let start = Instant::now();
    for req in &pool.requests {
        std::hint::black_box(encode_request(req));
    }
    let encode = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let mut decoded = 0;
    for frame in &pool.frames {
        let mut bytes: &[u8] = frame;
        decoded += usize::from(matches!(read_request(&mut bytes), Ok(Some(_))));
    }
    let decode = start.elapsed().as_nanos() as f64;
    r.check(decoded == pool.len(), || {
        format!("decoded {decoded} of {} frames", pool.len())
    });
    r.detail(
        "net.encode_ns_per_key",
        encode / keys as f64,
        "ns",
        pool.len(),
    );
    r.detail(
        "net.decode_ns_per_key",
        decode / keys as f64,
        "ns",
        pool.len(),
    );
}
