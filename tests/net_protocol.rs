//! Wire-protocol robustness (DESIGN.md §14): every malformed, truncated,
//! or hostile input to the binary codec decodes to a **typed
//! [`ProtocolError`]** — never a panic, never a hang, never an oversized
//! allocation — and a live daemon answers protocol abuse by closing the
//! offending connection while every other connection keeps serving.
//!
//! Random and mutated frames from a seeded generator (byte flips,
//! truncations, length edits) hold the decoders to the same contract in
//! bulk, under a wall bound, and every frame they accept re-encodes to
//! the bytes it was read from.
//!
//! The loopback half mirrors `tests/serve_invariants.rs`: pipelined,
//! interleaved requests across all nine adversarial merge families must
//! come back byte-identical to the sequential oracle. A client that stops
//! reading must stall only its own connection, and fixed frames must
//! encode to hand-written v1 bytes.

use std::io::Write as _;
use std::net::TcpStream;
use std::panic::resume_unwind;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use mergepath_suite::mergepath::merge::sequential::merge_into_by;
use mergepath_suite::serve::net::{
    encode_request, encode_response, read_request, read_response, HEADER_LEN, KEY_TYPE_U32,
    MAX_KEYS_PER_SIDE, OP_MERGE, REQUEST_MAGIC, WIRE_VERSION,
};
use mergepath_suite::serve::{
    NetClient, NetOp, NetRequest, NetResponse, NetServer, NetStatus, ProtocolError, QueuePolicy,
    ServeConfig,
};
use mergepath_suite::workloads::gen::{merge_pair_sized, MergeWorkload};
use mergepath_suite::workloads::prng::Prng;

fn valid_merge_frame() -> Vec<u8> {
    encode_request(&NetRequest {
        id: 7,
        deadline_rel_ns: 0,
        op: NetOp::Merge {
            a: vec![1, 3, 5],
            b: vec![2, 4],
        },
    })
}

fn decode(bytes: &[u8]) -> Result<Option<NetRequest>, ProtocolError> {
    read_request(&mut &bytes[..])
}

#[test]
fn bad_magic_version_op_and_key_type_are_typed_errors() {
    let good = valid_merge_frame();

    let mut bad = good.clone();
    bad[0..4].copy_from_slice(b"HTTP");
    assert_eq!(decode(&bad), Err(ProtocolError::BadMagic(*b"HTTP")));

    let mut bad = good.clone();
    bad[4] = 9;
    assert_eq!(decode(&bad), Err(ProtocolError::BadVersion(9)));

    let mut bad = good.clone();
    bad[5] = 77;
    assert_eq!(decode(&bad), Err(ProtocolError::BadOp(77)));

    let mut bad = good.clone();
    bad[6] = 0; // not KEY_TYPE_U32
    assert_eq!(decode(&bad), Err(ProtocolError::BadKeyType(0)));

    let mut bad = good;
    bad[7] = 1; // reserved byte
    assert!(matches!(decode(&bad), Err(ProtocolError::Malformed(_))));
}

#[test]
fn truncated_header_and_payload_are_typed_not_hangs() {
    let good = valid_merge_frame();

    // Header cut short: EOF inside the fixed 32 bytes.
    let r = decode(&good[..HEADER_LEN - 5]);
    assert!(
        matches!(r, Err(ProtocolError::Truncated { expected, got }) if expected == HEADER_LEN && got == HEADER_LEN - 5),
        "{r:?}"
    );

    // Payload cut short: the header promises 5 keys, the stream dies
    // after the first two.
    let r = decode(&good[..HEADER_LEN + 8]);
    assert!(matches!(r, Err(ProtocolError::Truncated { .. })), "{r:?}");
}

#[test]
fn clean_eof_at_a_frame_boundary_is_none() {
    assert_eq!(decode(&[]), Ok(None));
    // Two complete frames back to back, then a clean EOF.
    let mut stream = valid_merge_frame();
    stream.extend_from_slice(&valid_merge_frame());
    let mut r = &stream[..];
    assert!(read_request(&mut r).unwrap().is_some());
    assert!(read_request(&mut r).unwrap().is_some());
    assert_eq!(read_request(&mut r), Ok(None));
}

#[test]
fn oversized_declared_length_rejects_before_allocating() {
    // A hand-built header declaring u32::MAX keys on side A. The frame
    // body is empty: if the codec tried to allocate or read the declared
    // payload it would block or balloon — instead the length check fires
    // straight off the header.
    let mut frame = Vec::new();
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(OP_MERGE);
    frame.push(KEY_TYPE_U32);
    frame.push(0);
    frame.extend_from_slice(&1u64.to_le_bytes()); // id
    frame.extend_from_slice(&0u64.to_le_bytes()); // deadline
    frame.extend_from_slice(&u32::MAX.to_le_bytes()); // len_a: hostile
    frame.extend_from_slice(&0u32.to_le_bytes()); // len_b
    assert_eq!(
        decode(&frame),
        Err(ProtocolError::Oversized {
            declared: u32::MAX as u64,
            limit: MAX_KEYS_PER_SIDE as u64,
        })
    );
}

#[test]
fn sort_frame_with_second_payload_is_malformed() {
    let mut frame = encode_request(&NetRequest {
        id: 1,
        deadline_rel_ns: 0,
        op: NetOp::Sort {
            keys: vec![3, 1, 2],
        },
    });
    // Corrupt len_b (bytes 28..32) to claim a second payload.
    frame[28..32].copy_from_slice(&4u32.to_le_bytes());
    assert!(matches!(decode(&frame), Err(ProtocolError::Malformed(_))));
}

#[test]
fn response_codec_rejects_bad_status_and_phantom_output() {
    let good = encode_response(&NetResponse {
        id: 3,
        status: NetStatus::Ok,
        latency_ns: 10,
        output: vec![1, 2],
    });

    let mut bad = good.clone();
    bad[5] = 42;
    assert_eq!(
        read_response(&mut &bad[..]),
        Err(ProtocolError::BadStatus(42))
    );

    // A rejection frame carrying output keys is structurally invalid.
    let mut bad = good;
    bad[5] = 1; // RejectedQueueFull, but len_out still says 2
    assert!(matches!(
        read_response(&mut &bad[..]),
        Err(ProtocolError::Malformed(_))
    ));
}

fn daemon() -> NetServer {
    NetServer::start(
        ServeConfig {
            queue_capacity: 512,
            max_inflight: 4,
            worker_budget: 2,
            policy: QueuePolicy::Edf,
            batch_max_items: 2048,
        },
        mergepath_suite::serve::NoRecorder,
        "127.0.0.1:0",
    )
    .expect("bind loopback")
}

/// Polls until the daemon has counted `n` protocol errors (the reader
/// thread races the test). The awaited event is one read and one header
/// decode on the connection's reader thread, which wakes as the bytes
/// arrive; no request is computed. The 10 s bound is a hundred of that
/// thread's 100 ms read polls, so only a reader that never ran, not a
/// slow host, can reach it.
fn await_protocol_errors(server: &NetServer, n: u64) {
    let t0 = std::time::Instant::now();
    while server.protocol_errors() < n {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "daemon never registered the protocol error"
        );
        std::thread::yield_now();
    }
}

#[test]
fn pipelined_interleaved_connections_match_the_oracle() {
    let server = daemon();
    let addr = server.local_addr();

    // Two concurrent connections, each pipelining 18 requests (the nine
    // families twice) before reading a single response. The daemon
    // interleaves them freely; each connection's responses must come back
    // in its own request order, byte-identical to the sequential oracle.
    std::thread::scope(|s| {
        for conn in 0u64..2 {
            s.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut expected = Vec::new();
                for i in 0..18usize {
                    let wl = MergeWorkload::ALL[i % MergeWorkload::ALL.len()];
                    let (a, b) =
                        merge_pair_sized(wl, 64 + 13 * i, 96 + 7 * i, conn * 1000 + i as u64);
                    let mut oracle = vec![0u32; a.len() + b.len()];
                    merge_into_by(&a, &b, &mut oracle, &|x: &u32, y: &u32| x.cmp(y));
                    expected.push(oracle);
                    client
                        .send(&NetRequest {
                            id: i as u64,
                            deadline_rel_ns: 0,
                            op: NetOp::Merge { a, b },
                        })
                        .expect("send");
                }
                for (i, oracle) in expected.iter().enumerate() {
                    let resp = client.recv().expect("recv").expect("response");
                    assert_eq!(resp.id, i as u64, "conn {conn}: response order");
                    assert_eq!(resp.status, NetStatus::Ok);
                    assert_eq!(&resp.output, oracle, "conn {conn} req {i}: oracle mismatch");
                }
            });
        }
    });

    assert_eq!(server.protocol_errors(), 0);
    // Every request left its submit, dequeue, start and complete events in
    // the daemon's flight ring, and one sample in its compute stage.
    let obs = server.observer();
    assert_eq!(obs.flight().recorded(), 4 * 36);
    let [_, _, (stage, compute), _] = obs.stages();
    assert_eq!((stage, compute.count()), ("compute", 36));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 36);
    assert_eq!(stats.lost(), 0, "every request resolved exactly once");
}

#[test]
fn malformed_frame_closes_only_the_offending_connection() {
    let server = daemon();
    let addr = server.local_addr();

    // A healthy connection first, kept open across the abuse.
    let mut healthy = NetClient::connect(addr).expect("connect healthy");

    // The abuser sends garbage; the daemon must close that connection.
    let mut abuser = NetClient::connect(addr).expect("connect abuser");
    abuser
        .send_raw(&[0xFFu8; HEADER_LEN])
        .expect("send garbage");
    match abuser.recv() {
        Ok(None) | Err(_) => {}
        Ok(Some(r)) => panic!("daemon answered a garbage frame with {r:?}"),
    }
    await_protocol_errors(&server, 1);

    // The healthy connection — opened before the abuse — still serves.
    let resp = healthy
        .call(&NetRequest {
            id: 1,
            deadline_rel_ns: 0,
            op: NetOp::Merge {
                a: vec![10, 30],
                b: vec![20, 40],
            },
        })
        .expect("healthy call");
    assert_eq!(resp.status, NetStatus::Ok);
    assert_eq!(resp.output, vec![10, 20, 30, 40]);

    // And so does a brand-new one.
    let mut fresh = NetClient::connect(addr).expect("connect fresh");
    let resp = fresh
        .call(&NetRequest {
            id: 2,
            deadline_rel_ns: 0,
            op: NetOp::Sort {
                keys: vec![3, 1, 2],
            },
        })
        .expect("fresh call");
    assert_eq!(resp.status, NetStatus::Ok);
    assert_eq!(resp.output, vec![1, 2, 3]);

    assert_eq!(server.protocol_errors(), 1);
    let snap = server.observer().snapshot();
    assert_eq!(snap.counter("serve_protocol_errors_total"), Some(1));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.lost(), 0);
}

#[test]
fn mid_stream_disconnect_is_contained() {
    let server = daemon();
    let addr = server.local_addr();

    // Send a header promising a payload, then vanish. The daemon's
    // reader sees a truncated frame — a typed error, counted and
    // contained, never a hang.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = valid_merge_frame();
        stream
            .write_all(&frame[..HEADER_LEN + 4])
            .expect("partial frame");
        // Drop: RST/FIN mid-frame.
    }
    await_protocol_errors(&server, 1);

    // The daemon keeps serving.
    let mut client = NetClient::connect(addr).expect("connect");
    let resp = client
        .call(&NetRequest {
            id: 9,
            deadline_rel_ns: 0,
            op: NetOp::Merge {
                a: vec![1],
                b: vec![2],
            },
        })
        .expect("call");
    assert_eq!(resp.status, NetStatus::Ok);
    assert_eq!(resp.output, vec![1, 2]);

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.lost(), 0);
}

#[test]
fn request_and_response_frames_round_trip_through_the_codec() {
    for req in [
        NetRequest {
            id: 0,
            deadline_rel_ns: 0,
            op: NetOp::Merge {
                a: vec![],
                b: vec![],
            },
        },
        NetRequest {
            id: u64::MAX,
            deadline_rel_ns: u64::MAX,
            op: NetOp::Sort {
                keys: vec![u32::MAX, 0, 7],
            },
        },
    ] {
        let bytes = encode_request(&req);
        assert_eq!(read_request(&mut &bytes[..]).unwrap(), Some(req));
    }
    for resp in [
        NetResponse {
            id: 1,
            status: NetStatus::Ok,
            latency_ns: 5,
            output: vec![1, 2, 3],
        },
        NetResponse {
            id: 2,
            status: NetStatus::RejectedDeadline,
            latency_ns: 0,
            output: vec![],
        },
    ] {
        let bytes = encode_response(&resp);
        assert_eq!(read_response(&mut &bytes[..]).unwrap(), Some(resp));
    }
}

/// The v1 bytes of fixed frames, written out by hand. Round trips cannot
/// see a slip that hits encoder and decoder alike, such as both sides
/// turning big-endian; these bytes can.
#[test]
fn v1_wire_bytes_are_pinned() {
    let merge = NetRequest {
        id: 0x0102_0304_0506_0708,
        deadline_rel_ns: 0x1112_1314_1516_1718,
        op: NetOp::Merge {
            a: vec![0x0403_0201, 0x0807_0605, 0x0C0B_0A09],
            b: vec![],
        },
    };
    let merge_bytes: Vec<u8> = [
        &b"MPN1"[..],
        &[1, 1, 1, 0], // version, op merge, key type u32, reserved
        &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01],
        &[0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11],
        &[3, 0, 0, 0], // len_a
        &[0, 0, 0, 0], // len_b: an empty side
        &[
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C,
        ],
    ]
    .concat();
    let sort = NetRequest {
        id: 5,
        deadline_rel_ns: 0,
        op: NetOp::Sort {
            keys: vec![0xDEAD_BEEF],
        },
    };
    let sort_bytes: Vec<u8> = [
        &b"MPN1"[..],
        &[1, 2, 1, 0], // op sort
        &[5, 0, 0, 0, 0, 0, 0, 0],
        &[0; 8],
        &[1, 0, 0, 0],
        &[0, 0, 0, 0],
        &[0xEF, 0xBE, 0xAD, 0xDE],
    ]
    .concat();
    for (req, bytes) in [(merge, merge_bytes), (sort, sort_bytes)] {
        assert_eq!(encode_request(&req), bytes, "{req:?}");
        assert_eq!(read_request(&mut &bytes[..]), Ok(Some(req)));
    }

    let ok = NetResponse {
        id: 0x0102_0304_0506_0708,
        status: NetStatus::Ok,
        latency_ns: 0x2122_2324_2526_2728,
        output: vec![0x0403_0201, 0x0807_0605, 0x0C0B_0A09],
    };
    let ok_bytes: Vec<u8> = [
        &b"MPR1"[..],
        &[1, 0, 0, 0], // version, status ok, reserved
        &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01],
        &[0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21],
        &[3, 0, 0, 0], // len_out
        &[0, 0, 0, 0], // reserved
        &[
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C,
        ],
    ]
    .concat();
    let expired = NetResponse {
        id: 9,
        status: NetStatus::RejectedDeadline,
        latency_ns: 0,
        output: vec![],
    };
    let expired_bytes: Vec<u8> = [
        &b"MPR1"[..],
        &[1, 2, 0, 0], // status deadline
        &[9, 0, 0, 0, 0, 0, 0, 0],
        &[0; 8],
        &[0; 8],
    ]
    .concat();
    for (resp, bytes) in [(ok, ok_bytes), (expired, expired_bytes)] {
        assert_eq!(encode_response(&resp), bytes, "{resp:?}");
        assert_eq!(read_response(&mut &bytes[..]), Ok(Some(resp)));
    }
}

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within `wall`. A panic inside `f` is re-raised here.
fn within_wall_bound(what: &str, wall: Duration, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(wall) {
        Ok(()) => handle.join().expect("the bounded run returned"),
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => resume_unwind(payload),
            Ok(()) => unreachable!("the bounded run sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("{what}: not done within {wall:?}"),
    }
}

/// Merges client A pipelines in the stall test: their responses, 512 KiB
/// each, overflow the daemon's send buffer and A's receive buffer
/// together.
const STALL_REQUESTS: u64 = 200;

/// How long client B may wait for its answer while A reads nothing.
const STALL_BOUND: Duration = Duration::from_secs(5);

/// A client that pipelines large merges and reads none of the responses
/// blocks only its own connection: with one serving thread, a second
/// connection's small merge is still answered within [`STALL_BOUND`]. A
/// daemon whose serving thread wrote responses itself would block on A's
/// full socket and leave B unanswered.
#[test]
fn a_client_that_reads_nothing_stalls_no_other_connection() {
    within_wall_bound("stall", Duration::from_secs(120), || {
        let server = NetServer::start(
            ServeConfig {
                queue_capacity: 256,
                max_inflight: 1,
                worker_budget: 1,
                policy: QueuePolicy::Edf,
                batch_max_items: 4096,
            },
            mergepath_suite::serve::NoRecorder,
            "127.0.0.1:0",
        )
        .expect("bind loopback");
        let addr = server.local_addr();

        let half = 1u32 << 16;
        let mut big = NetRequest {
            id: 0,
            deadline_rel_ns: 0,
            op: NetOp::Merge {
                a: (0..half).map(|x| 2 * x).collect(),
                b: (0..half).map(|x| 2 * x + 1).collect(),
            },
        };
        let mut a = NetClient::connect(addr).expect("connect A");
        for id in 0..STALL_REQUESTS {
            big.id = id;
            a.send(&big).expect("send to A");
        }
        // The pause: until the daemon has computed all of A's merges, whose
        // responses now sit unread. A daemon whose serving thread blocks on
        // A's socket never gets there, so the wait is bounded.
        let t0 = Instant::now();
        while server.stats().completed < STALL_REQUESTS && t0.elapsed() < Duration::from_secs(20) {
            std::thread::sleep(Duration::from_millis(10));
        }

        let mut b = TcpStream::connect(addr).expect("connect B");
        b.set_read_timeout(Some(STALL_BOUND)).expect("read timeout");
        let small = NetRequest {
            id: 1,
            deadline_rel_ns: 0,
            op: NetOp::Merge {
                a: vec![1, 3],
                b: vec![2],
            },
        };
        let t0 = Instant::now();
        b.write_all(&encode_request(&small)).expect("send to B");
        let resp = read_response(&mut b);
        let waited = t0.elapsed();
        let resp = match resp {
            Ok(Some(resp)) => resp,
            other => panic!("B unanswered after {waited:?} while A reads nothing: {other:?}"),
        };
        assert!(waited < STALL_BOUND, "B answered after {waited:?}");
        assert_eq!((resp.id, resp.status), (1, NetStatus::Ok));
        assert_eq!(resp.output, vec![1, 2, 3]);

        let merged: Vec<u32> = (0..2 * half).collect();
        for id in 0..STALL_REQUESTS {
            let resp = a.recv().expect("A reads").expect("a response");
            assert_eq!((resp.id, resp.status), (id, NetStatus::Ok));
            assert!(resp.output == merged, "request {id}: wrong output");
        }
        drop((a, b));
        let stats = server.shutdown();
        assert_eq!(stats.completed, STALL_REQUESTS + 1);
        assert_eq!(stats.lost(), 0);
    });
}

// ---------------------------------------------------------------------------
// Fuzzing the v1 frame decoders
// ---------------------------------------------------------------------------

/// Frames fed to each decoder by the fuzz loops below.
const FUZZ_CASES: usize = 12_000;

/// Wall bound on one fuzz loop: a decoder that hangs fails the test
/// instead of stalling the suite.
const FUZZ_WALL: Duration = Duration::from_secs(60);

fn random_keys(rng: &mut Prng) -> Vec<u32> {
    (0..rng.below(12)).map(|_| rng.next_u32()).collect()
}

fn random_bytes(rng: &mut Prng, max_len: u64) -> Vec<u8> {
    (0..rng.below(max_len + 1))
        .map(|_| rng.below(256) as u8)
        .collect()
}

/// A declared length for a length edit: almost always small, now and
/// then at or just past `limit`. A header that passes the limit check
/// makes the decoder allocate the whole declared payload, so large
/// lengths are kept rare.
fn fuzz_len(rng: &mut Prng, limit: usize) -> u32 {
    match rng.below(128) {
        0 => limit as u32,
        1 => limit as u32 + 1,
        2 => u32::MAX,
        _ => rng.below(24) as u32,
    }
}

/// One fuzz input built from the `valid` frame: byte flips outside the
/// length words at `len_at`, a truncation, a length edit with random
/// trailing bytes, the frame's magic and version followed by random
/// bytes, or random bytes alone.
fn fuzz_frame(rng: &mut Prng, valid: &[u8], len_at: &[usize], limit: usize) -> Vec<u8> {
    let in_len_word = |i: usize| len_at.iter().any(|&at| (at..at + 4).contains(&i));
    let mut f = valid.to_vec();
    match rng.below(5) {
        0 => {
            for _ in 0..=rng.below(3) {
                let i = rng.below(f.len() as u64) as usize;
                if !in_len_word(i) {
                    f[i] ^= 1 + rng.below(255) as u8;
                }
            }
        }
        1 => f.truncate(rng.below(f.len() as u64) as usize),
        2 => {
            let at = len_at[rng.below(len_at.len() as u64) as usize];
            f[at..at + 4].copy_from_slice(&fuzz_len(rng, limit).to_le_bytes());
            f.extend(random_bytes(rng, 16));
        }
        3 => {
            f.truncate(5);
            f.extend(random_bytes(rng, 96));
        }
        _ => f = random_bytes(rng, 96),
    }
    f
}

/// Decode outcomes seen by one fuzz loop.
#[derive(Debug, Default)]
struct FuzzTally {
    decoded: usize,
    oversized: usize,
    truncated: usize,
    other_errors: usize,
}

impl FuzzTally {
    /// Checks one decode of `frame`, of which the decoder left `rest`
    /// unread: a clean end only on empty input, an oversized error only
    /// past `limit`, never an I/O error from an in-memory reader, and a
    /// decoded frame re-encodes to exactly the bytes it was read from.
    fn check<V>(
        &mut self,
        frame: &[u8],
        rest: usize,
        res: Result<Option<V>, ProtocolError>,
        encode: impl Fn(&V) -> Vec<u8>,
        limit: usize,
    ) {
        match res {
            Ok(Some(v)) => {
                let used = &frame[..frame.len() - rest];
                assert_eq!(encode(&v), used, "decoded frame re-encodes differently");
                self.decoded += 1;
            }
            Ok(None) => assert!(frame.is_empty(), "clean end on {} bytes", frame.len()),
            Err(ProtocolError::Oversized { declared, limit: l }) => {
                assert_eq!(l, limit as u64);
                assert!(declared > l, "{declared} keys is within the limit");
                self.oversized += 1;
            }
            Err(ProtocolError::Truncated { expected, got }) => {
                assert!(got < expected, "truncated with {got} of {expected} bytes");
                self.truncated += 1;
            }
            Err(ProtocolError::Io(kind)) => panic!("i/o error {kind:?} from a byte slice"),
            Err(_) => self.other_errors += 1,
        }
    }

    /// Every outcome class was reached, so the loop explored past the
    /// header checks.
    fn assert_covered(&self) {
        assert!(
            self.decoded > 0 && self.oversized > 0 && self.truncated > 0 && self.other_errors > 0,
            "{self:?}"
        );
    }
}

/// Random and mutated request frames each decode to a request or a typed
/// [`ProtocolError`], within the wall bound.
#[test]
fn fuzzed_request_frames_decode_or_fail_typed() {
    within_wall_bound("request fuzz", FUZZ_WALL, || {
        let mut rng = Prng::seed_from_u64(0x5EED_F00D);
        let mut tally = FuzzTally::default();
        for _ in 0..FUZZ_CASES {
            let op = if rng.below(2) == 0 {
                NetOp::Merge {
                    a: random_keys(&mut rng),
                    b: random_keys(&mut rng),
                }
            } else {
                NetOp::Sort {
                    keys: random_keys(&mut rng),
                }
            };
            let valid = encode_request(&NetRequest {
                id: rng.next_u64(),
                deadline_rel_ns: rng.below(1 << 40),
                op,
            });
            let frame = fuzz_frame(&mut rng, &valid, &[24, 28], MAX_KEYS_PER_SIDE);
            let mut rest = &frame[..];
            let res = read_request(&mut rest);
            tally.check(&frame, rest.len(), res, encode_request, MAX_KEYS_PER_SIDE);
        }
        tally.assert_covered();
    });
}

/// Random and mutated response frames each decode to a response or a
/// typed [`ProtocolError`], within the wall bound.
#[test]
fn fuzzed_response_frames_decode_or_fail_typed() {
    within_wall_bound("response fuzz", FUZZ_WALL, || {
        let mut rng = Prng::seed_from_u64(0xF00D_5EED);
        let mut tally = FuzzTally::default();
        let statuses = [
            NetStatus::Ok,
            NetStatus::RejectedQueueFull,
            NetStatus::RejectedDeadline,
            NetStatus::Failed,
        ];
        for _ in 0..FUZZ_CASES {
            let status = statuses[rng.below(4) as usize];
            let output = if status == NetStatus::Ok {
                random_keys(&mut rng)
            } else {
                Vec::new()
            };
            let valid = encode_response(&NetResponse {
                id: rng.next_u64(),
                status,
                latency_ns: rng.below(1 << 40),
                output,
            });
            let limit = 2 * MAX_KEYS_PER_SIDE;
            let frame = fuzz_frame(&mut rng, &valid, &[24], limit);
            let mut rest = &frame[..];
            let res = read_response(&mut rest);
            tally.check(&frame, rest.len(), res, encode_response, limit);
        }
        tally.assert_covered();
    });
}
