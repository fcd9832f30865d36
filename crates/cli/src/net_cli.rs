//! `mp serve --listen` / `mp client` — the out-of-process front end.
//!
//! [`run_listen`] binds the TCP daemon ([`NetServer`]) and blocks until
//! stdin reaches EOF (the conventional "run until the supervisor closes
//! the pipe" contract; `cargo xtask verify-net` drives it exactly that
//! way). [`run_client`] is the matching load generator: it regenerates
//! deterministic request inputs across **all nine adversarial merge
//! families**, pipelines them over one connection, and verifies every
//! `ok` response byte-for-byte against the in-process sequential oracle
//! (`merge_into_by`) — the loopback twin of the invariant
//! `tests/serve_invariants.rs` proves in-process.
//!
//! With `--malformed` the client additionally probes the daemon's
//! protocol hygiene: a garbage frame on a throwaway connection must be
//! answered by a clean close of *that* connection only, after which a
//! fresh connection still serves.

use std::fmt::Write as _;
use std::io::Read as _;

use mergepath::merge::sequential::merge_into_by;
use mergepath::telemetry::artifact::{render_artifact, EnvFingerprint};
use mergepath_serve::{
    NetClient, NetOp, NetRequest, NetServer, NetStatus, NoRecorder, QueuePolicy, ServeConfig,
};
use mergepath_workloads::{merge_pair_sized, MergeWorkload};

use crate::CliError;

/// Knobs of one `mp serve --listen` session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Serving threads (maximum in-flight requests).
    pub concurrency: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Mean request length the batching ceiling is sized from.
    pub mean_len: usize,
    /// Pool-thread budget shared by in-flight requests.
    pub worker_budget: usize,
}

/// The [`ServeConfig`] a listen session runs: the daemon's default EDF
/// policy with coalescing sized to several mean requests.
fn listen_serve_config(cfg: &ListenConfig) -> ServeConfig {
    ServeConfig {
        queue_capacity: cfg.queue_capacity,
        max_inflight: cfg.concurrency,
        worker_budget: cfg.worker_budget,
        policy: QueuePolicy::Edf,
        batch_max_items: cfg.mean_len * 8,
    }
}

/// Binds the TCP daemon, prints `listening on ADDR` (flushed, so a
/// supervisor can parse the ephemeral port), blocks until stdin reaches
/// EOF, then shuts down and returns the final stats summary followed by
/// the p99 waterfall attribution table.
///
/// # Errors
/// Returns [`CliError::Io`] if the bind fails.
pub fn run_listen(cfg: &ListenConfig) -> Result<String, CliError> {
    let server = NetServer::start(listen_serve_config(cfg), NoRecorder, cfg.addr.as_str())
        .map_err(|e| CliError::Io(format!("bind {}: {e}", cfg.addr)))?;
    println!("mp serve: listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Serve until the supervisor closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);

    let protocol_errors = server.protocol_errors();
    let obs = std::sync::Arc::clone(server.observer());
    let s = server.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mp serve: shutdown submitted={} completed={} rejected_queue_full={} \
         rejected_deadline={} failed={} lost={} batched_rounds={} protocol_errors={}",
        s.submitted,
        s.completed,
        s.rejected_queue_full,
        s.rejected_deadline,
        s.failed,
        s.lost(),
        s.batched_rounds,
        protocol_errors,
    );
    crate::serve_bench::push_attribution(&mut out, &obs);
    Ok(out)
}

/// Knobs of one `mp client` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Daemon address, e.g. `127.0.0.1:4780`.
    pub addr: String,
    /// Requests to pipeline over the connection.
    pub requests: usize,
    /// Mean per-side input length.
    pub mean_len: usize,
    /// Input-synthesis seed.
    pub seed: u64,
    /// Relative deadline per request, milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Also probe protocol hygiene with a malformed frame.
    pub malformed: bool,
    /// When set, write the `net_loopback` artifact here.
    pub out: Option<String>,
}

/// One prepared request with its oracle answer.
struct ClientRequest {
    workload: MergeWorkload,
    a: Vec<u32>,
    b: Vec<u32>,
    expected: Vec<u32>,
}

/// Deterministic request mix: the nine adversarial families round-robin,
/// per-side lengths varying around `mean_len` so frames are ragged.
fn prepare(requests: usize, mean_len: usize, seed: u64) -> Vec<ClientRequest> {
    (0..requests)
        .map(|i| {
            let workload = MergeWorkload::ALL[i % MergeWorkload::ALL.len()];
            let len_a = mean_len / 2 + (i * 37) % mean_len.max(1);
            let len_b = mean_len / 2 + (i * 61 + 13) % mean_len.max(1);
            let (a, b) = merge_pair_sized(workload, len_a, len_b, seed.wrapping_add(i as u64));
            let mut expected = vec![0u32; a.len() + b.len()];
            merge_into_by(&a, &b, &mut expected, &|x: &u32, y: &u32| x.cmp(y));
            ClientRequest {
                workload,
                a,
                b,
                expected,
            }
        })
        .collect()
}

fn io_err(ctx: &str, e: impl core::fmt::Display) -> CliError {
    CliError::Io(format!("{ctx}: {e}"))
}

/// Result of the `--malformed` hygiene probe.
struct MalformedProbe {
    connection_closed: bool,
    daemon_survived: bool,
}

/// Sends 32 bytes of garbage (a full header's worth of wrong magic) on a
/// throwaway connection and checks the daemon closes it — then proves a
/// fresh connection still serves.
fn probe_malformed(addr: &str) -> Result<MalformedProbe, CliError> {
    let mut bad = NetClient::connect(addr).map_err(|e| io_err("connect (malformed probe)", e))?;
    bad.send_raw(&[0xBAu8; 32])
        .map_err(|e| io_err("send malformed frame", e))?;
    // The daemon must answer a garbage frame by closing the connection:
    // the next read sees either a clean EOF or a reset, never a response
    // frame and never a hang.
    let connection_closed = match bad.recv() {
        Ok(None) => true,
        Ok(Some(_)) => false,
        Err(_) => true,
    };

    let mut fresh = NetClient::connect(addr).map_err(|e| io_err("reconnect after probe", e))?;
    let resp = fresh
        .call(&NetRequest {
            id: u64::MAX,
            deadline_rel_ns: 0,
            op: NetOp::Merge {
                a: vec![1, 3],
                b: vec![2, 4],
            },
        })
        .map_err(|e| io_err("call after probe", e))?;
    let daemon_survived = resp.status == NetStatus::Ok && resp.output == vec![1, 2, 3, 4];
    Ok(MalformedProbe {
        connection_closed,
        daemon_survived,
    })
}

/// Runs the loopback client. Returns the human summary; when
/// `cfg.out` is set the `net_loopback` artifact is also written there.
///
/// # Errors
/// [`CliError::Io`] on connection trouble, [`CliError::CheckFailed`] if
/// any `ok` response differs from the oracle, a response goes missing, or
/// the `--malformed` probe finds the daemon misbehaving.
pub fn run_client(cfg: &ClientConfig) -> Result<String, CliError> {
    let prepared = prepare(cfg.requests, cfg.mean_len, cfg.seed);
    let mut client = NetClient::connect(cfg.addr.as_str()).map_err(|e| io_err("connect", e))?;

    // Pipelined: every request goes out before the first response is
    // read. The daemon's per-connection writer preserves submission
    // order, so responses come back in id order.
    let deadline_rel_ns = cfg.deadline_ms * 1_000_000;
    for (i, p) in prepared.iter().enumerate() {
        client
            .send(&NetRequest {
                id: i as u64,
                deadline_rel_ns,
                op: NetOp::Merge {
                    a: p.a.clone(),
                    b: p.b.clone(),
                },
            })
            .map_err(|e| io_err("send", e))?;
    }

    let mut ok = 0usize;
    let mut rejected_queue_full = 0usize;
    let mut rejected_deadline = 0usize;
    let mut failed = 0usize;
    let mut mismatches = 0usize;
    for (i, p) in prepared.iter().enumerate() {
        let resp = match client.recv() {
            Ok(Some(resp)) => resp,
            Ok(None) => {
                return Err(CliError::CheckFailed(format!(
                    "connection closed after {i} of {} responses",
                    prepared.len()
                )))
            }
            Err(e) => return Err(CliError::CheckFailed(format!("response {i}: {e}"))),
        };
        if resp.id != i as u64 {
            return Err(CliError::CheckFailed(format!(
                "response order violated: expected id {i}, got {}",
                resp.id
            )));
        }
        match resp.status {
            NetStatus::Ok => {
                ok += 1;
                if resp.output != p.expected {
                    mismatches += 1;
                }
            }
            NetStatus::RejectedQueueFull => rejected_queue_full += 1,
            NetStatus::RejectedDeadline => rejected_deadline += 1,
            NetStatus::Failed => failed += 1,
        }
    }

    let probe = if cfg.malformed {
        Some(probe_malformed(&cfg.addr)?)
    } else {
        None
    };

    let mut out = format!(
        "mp client: addr={} requests={} mean_len={} seed={} deadline={}ms\n",
        cfg.addr, cfg.requests, cfg.mean_len, cfg.seed, cfg.deadline_ms,
    );
    let _ = writeln!(
        out,
        "  ok={ok} rejected_queue_full={rejected_queue_full} \
         rejected_deadline={rejected_deadline} failed={failed} mismatches={mismatches}",
    );
    let families: Vec<&'static str> = {
        let mut seen = Vec::new();
        for p in &prepared {
            if !seen.contains(&p.workload.name()) {
                seen.push(p.workload.name());
            }
        }
        seen
    };
    let _ = writeln!(out, "  families: {}", families.join(" "));
    if let Some(p) = &probe {
        let _ = writeln!(
            out,
            "  malformed probe: connection_closed={} daemon_survived={}",
            p.connection_closed, p.daemon_survived,
        );
    }

    if let Some(path) = &cfg.out {
        let mut payload = format!(
            "{{\"addr\":\"{}\",\"requests\":{},\"mean_len\":{},\"seed\":{},\
             \"deadline_ms\":{},\"ok\":{ok},\"rejected_queue_full\":{rejected_queue_full},\
             \"rejected_deadline\":{rejected_deadline},\"failed\":{failed},\
             \"mismatches\":{mismatches},\"families\":[",
            cfg.addr, cfg.requests, cfg.mean_len, cfg.seed, cfg.deadline_ms,
        );
        for (i, f) in families.iter().enumerate() {
            if i > 0 {
                payload.push(',');
            }
            let _ = write!(payload, "\"{f}\"");
        }
        payload.push(']');
        if let Some(p) = &probe {
            let _ = write!(
                payload,
                ",\"malformed_probe\":{{\"connection_closed\":{},\"daemon_survived\":{}}}",
                p.connection_closed, p.daemon_survived,
            );
        }
        payload.push('}');
        let env = EnvFingerprint::capture();
        let doc = render_artifact("net_loopback", &env, &payload)
            .map_err(|e| CliError::Io(format!("net_loopback artifact: {e}")))?;
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, doc).map_err(|e| io_err(path, e))?;
        let _ = writeln!(out, "  artifact: {path}");
    }

    if mismatches != 0 {
        return Err(CliError::CheckFailed(format!(
            "{mismatches} completed response(s) differed from the sequential oracle"
        )));
    }
    if ok + rejected_queue_full + rejected_deadline + failed != cfg.requests {
        return Err(CliError::CheckFailed("responses went missing".into()));
    }
    if let Some(p) = &probe {
        if !p.connection_closed {
            return Err(CliError::CheckFailed(
                "daemon answered a malformed frame instead of closing".into(),
            ));
        }
        if !p.daemon_survived {
            return Err(CliError::CheckFailed(
                "daemon stopped serving after a malformed frame".into(),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath::telemetry::artifact::check_artifact;
    use mergepath::telemetry::json::Value;

    fn local_daemon() -> NetServer {
        NetServer::start(
            ServeConfig {
                queue_capacity: 256,
                max_inflight: 2,
                worker_budget: 2,
                policy: QueuePolicy::Edf,
                batch_max_items: 2048,
            },
            NoRecorder,
            "127.0.0.1:0",
        )
        .expect("bind loopback")
    }

    #[test]
    fn client_round_trips_all_nine_families_and_probes_hygiene() {
        let server = local_daemon();
        let addr = server.local_addr().to_string();
        let dir = mergepath_serve::observe::test_scratch_dir("net-cli");
        let artifact_path = dir.join("NET_loopback.json");
        let out = run_client(&ClientConfig {
            addr,
            requests: 27, // 3 × the nine families
            mean_len: 128,
            seed: 7,
            deadline_ms: 0,
            malformed: true,
            out: Some(artifact_path.to_string_lossy().into_owned()),
        })
        .expect("loopback run");
        assert!(out.contains("ok=27"), "{out}");
        assert!(out.contains("mismatches=0"), "{out}");
        assert!(
            out.contains("malformed probe: connection_closed=true daemon_survived=true"),
            "{out}"
        );
        for family in MergeWorkload::ALL {
            assert!(out.contains(family.name()), "{}: missing", family.name());
        }

        let doc = std::fs::read_to_string(&artifact_path).expect("artifact written");
        let v = check_artifact(&doc, "net_loopback").expect("envelope");
        let payload = v.get("payload").unwrap();
        assert_eq!(payload.get("ok").and_then(Value::as_f64), Some(27.0));
        assert_eq!(payload.get("mismatches").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            payload
                .get("families")
                .and_then(Value::as_array)
                .map(|f| f.len()),
            Some(9)
        );
        assert_eq!(
            payload
                .get("malformed_probe")
                .and_then(|p| p.get("daemon_survived"))
                .and_then(|b| match b {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                }),
            Some(true)
        );

        // The garbage frame was counted, and the daemon lost nothing.
        assert_eq!(server.protocol_errors(), 1);
        let stats = server.shutdown();
        assert_eq!(stats.lost(), 0);
        assert_eq!(stats.completed, 27 + 1); // + the post-probe request
        mergepath_serve::observe::remove_scratch_dir(&dir);
    }

    #[test]
    fn client_reports_connection_failure_as_io() {
        // A port nothing listens on: connect must fail cleanly.
        let err = run_client(&ClientConfig {
            addr: "127.0.0.1:1".into(),
            requests: 1,
            mean_len: 16,
            seed: 1,
            deadline_ms: 0,
            malformed: false,
            out: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
    }
}
