//! TCP front-end for the serving daemon: length-prefixed binary framing,
//! a hand-rolled codec (no dependencies), and the [`NetServer`] /
//! [`NetClient`] pair that takes `mp serve` out-of-process.
//!
//! # Wire format (version 1)
//!
//! Every frame is a fixed 32-byte header followed by a payload of
//! little-endian `u32` keys. All multi-byte header fields are
//! little-endian.
//!
//! Request frame (client → server):
//!
//! ```text
//! offset  size  field
//!      0     4  magic          b"MPN1"
//!      4     1  version        1
//!      5     1  op             1 = merge, 2 = sort
//!      6     1  key type       1 = u32 little-endian
//!      7     1  reserved       must be 0
//!      8     8  request id     echoed verbatim in the response
//!     16     8  deadline       relative ns from receipt; 0 = none
//!     24     4  len_a          keys in the first payload
//!     28     4  len_b          keys in the second payload (0 for sort)
//!     32     …  payload        len_a keys, then len_b keys, 4 bytes each
//! ```
//!
//! Response frame (server → client):
//!
//! ```text
//! offset  size  field
//!      0     4  magic          b"MPR1"
//!      4     1  version        1
//!      5     1  status         0 = ok, 1 = queue full,
//!                              2 = deadline expired, 3 = failed
//!      6     2  reserved       must be 0
//!      8     8  request id
//!     16     8  latency ns     submit → completion (0 unless ok)
//!     24     4  len_out        keys in the payload (0 unless ok)
//!     28     4  reserved       must be 0
//!     32     …  payload        len_out keys, 4 bytes each
//! ```
//!
//! Responses preserve request order per connection, so a client may
//! pipeline any number of requests before reading the first response.
//!
//! Robustness contract (pinned by `tests/net_protocol.rs`): every
//! malformed input — wrong magic or version, unknown op / key type /
//! status, a declared payload beyond [`MAX_KEYS_PER_SIDE`], a truncated
//! header or payload, a mid-stream disconnect — decodes to a typed
//! [`ProtocolError`], never a panic and never a hang, and the oversized
//! check runs **before** any payload allocation so a hostile length
//! prefix cannot balloon memory.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use mergepath_telemetry::Recorder;

use crate::observe::ServeObserver;
use crate::server::{
    Outcome, RejectReason, Request, RequestKind, ResponseHandle, ServeConfig, ServeStats, Server,
};

/// First four bytes of every request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"MPN1";
/// First four bytes of every response frame.
pub const RESPONSE_MAGIC: [u8; 4] = *b"MPR1";
/// The one protocol version this codec speaks.
pub const WIRE_VERSION: u8 = 1;
/// Fixed header length of both frame kinds, bytes.
pub const HEADER_LEN: usize = 32;
/// Op byte: merge two sorted payloads.
pub const OP_MERGE: u8 = 1;
/// Op byte: sort one payload.
pub const OP_SORT: u8 = 2;
/// Key-type byte: little-endian `u32`.
pub const KEY_TYPE_U32: u8 = 1;
/// Upper bound on a single declared payload length, in keys. Checked
/// before any allocation, so a hostile length prefix is rejected as
/// [`ProtocolError::Oversized`] instead of reserving gigabytes.
pub const MAX_KEYS_PER_SIDE: usize = 1 << 24;

/// Typed decode failure. The codec never panics and never hangs: every
/// malformed, truncated, or oversized input maps to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame did not start with the expected magic.
    BadMagic([u8; 4]),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown op byte in a request frame.
    BadOp(u8),
    /// Unknown key-type byte in a request frame.
    BadKeyType(u8),
    /// Unknown status byte in a response frame.
    BadStatus(u8),
    /// Structurally invalid frame (reserved bytes set, a sort frame
    /// carrying a second payload, a non-ok response carrying output, …).
    Malformed(&'static str),
    /// A declared payload length exceeds [`MAX_KEYS_PER_SIDE`]. Raised
    /// before any allocation.
    Oversized {
        /// The length the frame declared, in keys.
        declared: u64,
        /// The limit it exceeded, in keys.
        limit: u64,
    },
    /// The stream ended mid-frame (clean EOF *between* frames is not an
    /// error — `read_request`/`read_response` return `Ok(None)` there).
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// An underlying I/O failure.
    Io(ErrorKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::BadOp(op) => write!(f, "unknown op byte {op}"),
            ProtocolError::BadKeyType(k) => write!(f, "unknown key type {k}"),
            ProtocolError::BadStatus(s) => write!(f, "unknown status byte {s}"),
            ProtocolError::Malformed(why) => write!(f, "malformed frame: {why}"),
            ProtocolError::Oversized { declared, limit } => {
                write!(
                    f,
                    "declared payload of {declared} keys exceeds limit {limit}"
                )
            }
            ProtocolError::Truncated { expected, got } => {
                write!(
                    f,
                    "stream truncated mid-frame: wanted {expected} bytes, got {got}"
                )
            }
            ProtocolError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.kind())
    }
}

/// The computation a request frame asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetOp {
    /// Merge two sorted key arrays (stable: ties take from `a` first).
    Merge {
        /// Left sorted payload.
        a: Vec<u32>,
        /// Right sorted payload.
        b: Vec<u32>,
    },
    /// Sort one key array (stable).
    Sort {
        /// The keys to sort.
        keys: Vec<u32>,
    },
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetRequest {
    /// Caller-assigned id, echoed verbatim in the response.
    pub id: u64,
    /// Deadline relative to server receipt, nanoseconds; `0` = none.
    pub deadline_rel_ns: u64,
    /// The computation.
    pub op: NetOp,
}

/// Response status byte, mirroring [`Outcome`] over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetStatus {
    /// Completed; the payload carries the output keys.
    Ok,
    /// Bounced synchronously off the full admission queue.
    RejectedQueueFull,
    /// Deadline expired while queued.
    RejectedDeadline,
    /// The kernel panicked (contained server-side).
    Failed,
}

impl NetStatus {
    fn to_byte(self) -> u8 {
        match self {
            NetStatus::Ok => 0,
            NetStatus::RejectedQueueFull => 1,
            NetStatus::RejectedDeadline => 2,
            NetStatus::Failed => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            0 => Ok(NetStatus::Ok),
            1 => Ok(NetStatus::RejectedQueueFull),
            2 => Ok(NetStatus::RejectedDeadline),
            3 => Ok(NetStatus::Failed),
            other => Err(ProtocolError::BadStatus(other)),
        }
    }

    /// Stable name for logs and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            NetStatus::Ok => "ok",
            NetStatus::RejectedQueueFull => "rejected_queue_full",
            NetStatus::RejectedDeadline => "rejected_deadline",
            NetStatus::Failed => "failed",
        }
    }
}

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetResponse {
    /// The request id this response resolves.
    pub id: u64,
    /// How the request ended.
    pub status: NetStatus,
    /// Submit-to-completion latency on the server, nanoseconds (0 unless
    /// [`NetStatus::Ok`]).
    pub latency_ns: u64,
    /// The merged / sorted keys (empty unless [`NetStatus::Ok`]).
    pub output: Vec<u32>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Appends `keys` little-endian: one resize, then one pass over 4-byte
/// chunks, which LLVM turns into a copy on little-endian hosts.
fn put_keys(buf: &mut Vec<u8>, keys: &[u32]) {
    let start = buf.len();
    buf.resize(start + keys.len() * 4, 0);
    for (dst, k) in buf[start..].chunks_exact_mut(4).zip(keys) {
        dst.copy_from_slice(&k.to_le_bytes());
    }
}

/// Reads exactly `buf.len()` bytes. Returns `Ok(false)` on a clean EOF
/// before the first byte (frame boundary), [`ProtocolError::Truncated`]
/// on EOF mid-buffer, and retries `Interrupted`.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, ProtocolError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(ProtocolError::Truncated {
                    expected: buf.len(),
                    got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e.kind())),
        }
    }
    Ok(true)
}

/// Bytes [`read_keys`] reads per step: a small reused buffer in place of
/// one sized to the payload, so the key vector is the only allocation.
const KEY_CHUNK: usize = 4096;

/// Reads `len` keys, validated against [`MAX_KEYS_PER_SIDE`] by the
/// caller before this allocates. A payload cut short is
/// [`ProtocolError::Truncated`] counted over the whole payload.
fn read_keys<R: Read>(r: &mut R, len: usize) -> Result<Vec<u32>, ProtocolError> {
    let mut keys = vec![0u32; len];
    let mut chunk = [0u8; KEY_CHUNK];
    for (step, dst) in keys.chunks_mut(KEY_CHUNK / 4).enumerate() {
        let bytes = &mut chunk[..dst.len() * 4];
        let truncated = |got: usize| ProtocolError::Truncated {
            expected: len * 4,
            got: step * KEY_CHUNK + got,
        };
        match read_full(r, bytes) {
            Ok(true) => {}
            Ok(false) => return Err(truncated(0)),
            Err(ProtocolError::Truncated { got, .. }) => return Err(truncated(got)),
            Err(e) => return Err(e),
        }
        for (k, b) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *k = u32::from_le_bytes(b.try_into().expect("chunks_exact(4) yields 4 bytes"));
        }
    }
    Ok(keys)
}

/// Encodes `req` as one wire frame.
pub fn encode_request(req: &NetRequest) -> Vec<u8> {
    let (op, len_a, len_b) = match &req.op {
        NetOp::Merge { a, b } => (OP_MERGE, a.len(), b.len()),
        NetOp::Sort { keys } => (OP_SORT, keys.len(), 0),
    };
    let mut buf = Vec::with_capacity(HEADER_LEN + (len_a + len_b) * 4);
    buf.extend_from_slice(&REQUEST_MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(op);
    buf.push(KEY_TYPE_U32);
    buf.push(0); // reserved
    put_u64(&mut buf, req.id);
    put_u64(&mut buf, req.deadline_rel_ns);
    put_u32(&mut buf, len_a as u32);
    put_u32(&mut buf, len_b as u32);
    match &req.op {
        NetOp::Merge { a, b } => {
            put_keys(&mut buf, a);
            put_keys(&mut buf, b);
        }
        NetOp::Sort { keys } => put_keys(&mut buf, keys),
    }
    buf
}

/// Writes `req` as one frame.
pub fn write_request<W: Write>(w: &mut W, req: &NetRequest) -> std::io::Result<()> {
    w.write_all(&encode_request(req))
}

/// Reads one request frame. `Ok(None)` means the stream ended cleanly at
/// a frame boundary; every malformed, truncated, or oversized input maps
/// to a typed [`ProtocolError`].
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<NetRequest>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    if header[0..4] != REQUEST_MAGIC {
        return Err(ProtocolError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != WIRE_VERSION {
        return Err(ProtocolError::BadVersion(header[4]));
    }
    let op = header[5];
    if op != OP_MERGE && op != OP_SORT {
        return Err(ProtocolError::BadOp(op));
    }
    if header[6] != KEY_TYPE_U32 {
        return Err(ProtocolError::BadKeyType(header[6]));
    }
    if header[7] != 0 {
        return Err(ProtocolError::Malformed("reserved request byte set"));
    }
    let id = get_u64(&header[8..16]);
    let deadline_rel_ns = get_u64(&header[16..24]);
    let len_a = get_u32(&header[24..28]) as usize;
    let len_b = get_u32(&header[28..32]) as usize;
    for len in [len_a, len_b] {
        if len > MAX_KEYS_PER_SIDE {
            return Err(ProtocolError::Oversized {
                declared: len as u64,
                limit: MAX_KEYS_PER_SIDE as u64,
            });
        }
    }
    let op = match op {
        OP_MERGE => {
            let a = read_keys(r, len_a)?;
            let b = read_keys(r, len_b)?;
            NetOp::Merge { a, b }
        }
        _ => {
            if len_b != 0 {
                return Err(ProtocolError::Malformed(
                    "sort frame carries a second payload",
                ));
            }
            let keys = read_keys(r, len_a)?;
            NetOp::Sort { keys }
        }
    };
    Ok(Some(NetRequest {
        id,
        deadline_rel_ns,
        op,
    }))
}

/// Encodes `resp` as one wire frame.
pub fn encode_response(resp: &NetResponse) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + resp.output.len() * 4);
    encode_response_into(&mut buf, resp);
    buf
}

/// Appends `resp` as one wire frame to `buf`.
fn encode_response_into(buf: &mut Vec<u8>, resp: &NetResponse) {
    buf.extend_from_slice(&RESPONSE_MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(resp.status.to_byte());
    buf.extend_from_slice(&[0u8; 2]); // reserved
    put_u64(buf, resp.id);
    put_u64(buf, resp.latency_ns);
    put_u32(buf, resp.output.len() as u32);
    put_u32(buf, 0); // reserved
    put_keys(buf, &resp.output);
}

/// Writes `resp` as one frame.
pub fn write_response<W: Write>(w: &mut W, resp: &NetResponse) -> std::io::Result<()> {
    w.write_all(&encode_response(resp))
}

/// Reads one response frame. `Ok(None)` on clean EOF at a frame
/// boundary; typed [`ProtocolError`] for everything malformed.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<NetResponse>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    if header[0..4] != RESPONSE_MAGIC {
        return Err(ProtocolError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != WIRE_VERSION {
        return Err(ProtocolError::BadVersion(header[4]));
    }
    let status = NetStatus::from_byte(header[5])?;
    if header[6] != 0 || header[7] != 0 {
        return Err(ProtocolError::Malformed("reserved response bytes set"));
    }
    let id = get_u64(&header[8..16]);
    let latency_ns = get_u64(&header[16..24]);
    let len_out = get_u32(&header[24..28]) as usize;
    if get_u32(&header[28..32]) != 0 {
        return Err(ProtocolError::Malformed("reserved response word set"));
    }
    if len_out > 2 * MAX_KEYS_PER_SIDE {
        return Err(ProtocolError::Oversized {
            declared: len_out as u64,
            limit: 2 * MAX_KEYS_PER_SIDE as u64,
        });
    }
    if status != NetStatus::Ok && len_out != 0 {
        return Err(ProtocolError::Malformed("non-ok response carries output"));
    }
    let output = read_keys(r, len_out)?;
    Ok(Some(NetResponse {
        id,
        status,
        latency_ns,
        output,
    }))
}

/// A `Read` adapter over a timeout-configured [`TcpStream`] that turns
/// read timeouts into a poll of the server's shutdown flag, so a
/// connection reader can never hang on a silent client while the daemon
/// is trying to stop.
struct PollRead<'a> {
    stream: &'a TcpStream,
    closed: &'a AtomicBool,
}

impl Read for PollRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            let mut stream: &TcpStream = self.stream;
            match stream.read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.closed.load(Ordering::Relaxed) {
                        return Err(std::io::Error::new(
                            ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

/// What a connection's reader hands its writer, in request order.
enum Pending {
    /// An admitted request: resolve the handle, then write the outcome.
    Resolve(u64, ResponseHandle<u32>),
    /// A synchronous rejection: write it directly.
    Reject(u64, RejectReason),
}

/// The out-of-process front door: a TCP listener feeding an in-process
/// [`Server`] — one reader and one writer thread per connection, bridged
/// by an ordered channel so pipelined requests come back in request
/// order while the daemon executes them with its full concurrency
/// (batching and EDF included; the wire adds no policy of its own).
pub struct NetServer<R = mergepath_telemetry::NoRecorder>
where
    R: Recorder + Send + Sync + 'static,
{
    addr: SocketAddr,
    closed: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    server: Arc<Server<u32, R>>,
}

impl<R> NetServer<R>
where
    R: Recorder + Send + Sync + 'static,
{
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// starts the daemon plus the accept loop.
    pub fn start<A: ToSocketAddrs>(cfg: ServeConfig, rec: R, addr: A) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let server = Arc::new(Server::start(cfg, rec));
        let closed = Arc::new(AtomicBool::new(false));
        let accept = {
            let server = Arc::clone(&server);
            let closed = Arc::clone(&closed);
            std::thread::Builder::new()
                .name("mp-net-accept".into())
                .spawn(move || accept_loop(listener, server, closed))
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            addr,
            closed,
            accept: Some(accept),
            server,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Malformed frames seen so far across all connections: the
    /// observer's `serve_protocol_errors_total` counter.
    pub fn protocol_errors(&self) -> u64 {
        self.observer().protocol_errors()
    }

    /// Live daemon counters.
    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }

    /// The daemon's observer (see [`Server::observer`]).
    pub fn observer(&self) -> &Arc<ServeObserver> {
        self.server.observer()
    }

    /// Stops accepting, drains every connection and the daemon queue,
    /// joins all threads, and returns the final stats
    /// (`stats().lost() == 0` — the wire layer loses nothing either).
    pub fn shutdown(mut self) -> ServeStats {
        self.closed.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let conns = accept.join().unwrap_or_default();
            for c in conns {
                let _ = c.join();
            }
        }
        match Arc::try_unwrap(self.server) {
            Ok(server) => server.shutdown(),
            Err(server) => {
                // Unreachable after the joins above; degrade to a live
                // snapshot rather than panicking in shutdown.
                server.stats()
            }
        }
    }
}

fn accept_loop<R>(
    listener: TcpListener,
    server: Arc<Server<u32, R>>,
    closed: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>>
where
    R: Recorder + Send + Sync + 'static,
{
    let mut conns = Vec::new();
    for stream in listener.incoming() {
        if closed.load(Ordering::Relaxed) {
            break;
        }
        reap_finished(&mut conns);
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        let closed = Arc::clone(&closed);
        if let Ok(h) = std::thread::Builder::new()
            .name("mp-net-conn".into())
            .spawn(move || serve_connection(stream, &server, &closed))
        {
            conns.push(h);
        }
    }
    conns
}

/// Joins the connection threads that have returned. An exited thread that
/// is never joined keeps its stack mapped, so without this every closed
/// connection would hold its stack until shutdown.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(conns)
        .into_iter()
        .partition(JoinHandle::is_finished);
    *conns = live;
    for h in done {
        let _ = h.join();
    }
}

/// Read buffer of a connection: a pipelined frame then costs a fraction of
/// one `recv` instead of one per header and payload.
const READ_BUF: usize = 64 * 1024;

/// Bytes of encoded responses after which the writer writes even though
/// more are ready, so a long run of ready responses stays bounded.
const WRITE_BATCH: usize = 256 * 1024;

/// One connection: this thread reads and submits frames; a paired writer
/// thread resolves handles and writes responses in request order.
fn serve_connection<R>(stream: TcpStream, server: &Server<u32, R>, closed: &AtomicBool)
where
    R: Recorder + Send + Sync + 'static,
{
    // 100ms poll so shutdown is never blocked on a silent client.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
    // Without it, Nagle's algorithm holds a response written while the
    // previous one is unacknowledged until the client's delayed ACK,
    // stalling a pipelining client for tens of milliseconds.
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Pending>();
    let writer = std::thread::Builder::new()
        .name("mp-net-write".into())
        .spawn(move || write_loop(write_half, rx))
        .expect("spawn connection writer");

    let mut reader = BufReader::with_capacity(
        READ_BUF,
        PollRead {
            stream: &stream,
            closed,
        },
    );
    loop {
        match read_request(&mut reader) {
            Ok(Some(net_req)) => {
                let id = net_req.id;
                let kind = match net_req.op {
                    NetOp::Merge { a, b } => RequestKind::Merge { a, b },
                    NetOp::Sort { keys } => RequestKind::Sort { keys },
                };
                let mut req = Request {
                    id,
                    kind,
                    deadline_ns: 0,
                };
                if net_req.deadline_rel_ns != 0 {
                    req = req.with_deadline_in(net_req.deadline_rel_ns);
                }
                let pending = match server.submit(req) {
                    Ok(handle) => Pending::Resolve(id, handle),
                    Err(reason) => Pending::Reject(id, reason),
                };
                if tx.send(pending).is_err() {
                    break; // writer gone (client hung up mid-write)
                }
            }
            Ok(None) => break, // clean close at a frame boundary
            Err(_protocol) => {
                // A typed decode failure: count it and drop the
                // connection. Resynchronizing an unframed byte stream is
                // guesswork; closing is the honest answer.
                server.observer().on_protocol_error();
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Encodes every response that is ready into one buffer and writes it
/// with one `write_all`. It writes what it holds before it blocks, on the
/// channel or on an unresolved handle, so no finished response waits
/// behind an unfinished one. It also writes once the buffer passes
/// [`WRITE_BATCH`].
///
/// The writer is a thread of its own so that a client that stops reading
/// blocks only this thread: a serving thread that wrote its own responses
/// would stall on the full socket, and every other connection with it.
fn write_loop(mut stream: TcpStream, rx: mpsc::Receiver<Pending>) {
    let mut buf = Vec::new();
    // Writing an empty buffer makes no system call.
    let mut flush = |buf: &mut Vec<u8>| {
        let res = stream.write_all(buf);
        buf.clear();
        if buf.capacity() > 4 * WRITE_BATCH {
            // One huge response must not pin its buffer for the
            // connection's lifetime.
            *buf = Vec::new();
        }
        res
    };
    loop {
        let pending = match rx.try_recv() {
            Ok(pending) => pending,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                if flush(&mut buf).is_err() {
                    return; // client gone; admitted work still resolves server-side
                }
                match rx.recv() {
                    Ok(pending) => pending,
                    Err(_) => break,
                }
            }
        };
        let resp = match pending {
            Pending::Resolve(id, handle) => {
                if !handle.is_resolved() && flush(&mut buf).is_err() {
                    return;
                }
                match handle.wait() {
                    Outcome::Completed {
                        output, latency_ns, ..
                    } => NetResponse {
                        id,
                        status: NetStatus::Ok,
                        latency_ns,
                        output,
                    },
                    Outcome::Rejected(RejectReason::QueueFull) => {
                        reject(id, NetStatus::RejectedQueueFull)
                    }
                    Outcome::Rejected(RejectReason::DeadlineExpired) => {
                        reject(id, NetStatus::RejectedDeadline)
                    }
                    Outcome::Failed => reject(id, NetStatus::Failed),
                }
            }
            Pending::Reject(id, RejectReason::QueueFull) => {
                reject(id, NetStatus::RejectedQueueFull)
            }
            Pending::Reject(id, RejectReason::DeadlineExpired) => {
                reject(id, NetStatus::RejectedDeadline)
            }
        };
        encode_response_into(&mut buf, &resp);
        if buf.len() >= WRITE_BATCH && flush(&mut buf).is_err() {
            return;
        }
    }
    let _ = flush(&mut buf);
}

fn reject(id: u64, status: NetStatus) -> NetResponse {
    NetResponse {
        id,
        status,
        latency_ns: 0,
        output: Vec::new(),
    }
}

/// A blocking client for the wire protocol. `send` and `recv` are
/// independent, so callers can pipeline: send N frames, then read N
/// responses (they come back in send order).
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient { stream })
    }

    /// Sends one request frame (does not wait for the response).
    pub fn send(&mut self, req: &NetRequest) -> std::io::Result<()> {
        write_request(&mut self.stream, req)
    }

    /// Sends raw bytes — deliberately malformed frames for protocol
    /// tests and smoke runs.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads the next response frame; `Ok(None)` when the server closed
    /// the connection cleanly.
    pub fn recv(&mut self) -> Result<Option<NetResponse>, ProtocolError> {
        read_response(&mut self.stream)
    }

    /// Send + receive one request (no pipelining).
    pub fn call(&mut self, req: &NetRequest) -> Result<NetResponse, ProtocolError> {
        self.send(req)?;
        match self.recv()? {
            Some(resp) => Ok(resp),
            None => Err(ProtocolError::Truncated {
                expected: HEADER_LEN,
                got: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::QueuePolicy;
    use mergepath_telemetry::NoRecorder;

    fn merge_req(id: u64, a: Vec<u32>, b: Vec<u32>) -> NetRequest {
        NetRequest {
            id,
            deadline_rel_ns: 0,
            op: NetOp::Merge { a, b },
        }
    }

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            merge_req(7, vec![1, 3, 5], vec![2, 4, 6]),
            merge_req(8, vec![], vec![]),
            NetRequest {
                id: u64::MAX,
                deadline_rel_ns: 123_456,
                op: NetOp::Sort {
                    keys: vec![5, 1, 4, 2, 3],
                },
            },
        ];
        for req in &reqs {
            let bytes = encode_request(req);
            let mut cursor: &[u8] = &bytes;
            let decoded = read_request(&mut cursor)
                .expect("decodes")
                .expect("one frame");
            assert_eq!(&decoded, req);
            assert!(cursor.is_empty(), "frame consumed exactly");
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let resps = [
            NetResponse {
                id: 1,
                status: NetStatus::Ok,
                latency_ns: 999,
                output: vec![1, 2, 3],
            },
            NetResponse {
                id: 2,
                status: NetStatus::RejectedDeadline,
                latency_ns: 0,
                output: vec![],
            },
        ];
        for resp in &resps {
            let bytes = encode_response(resp);
            let mut cursor: &[u8] = &bytes;
            let decoded = read_response(&mut cursor)
                .expect("decodes")
                .expect("one frame");
            assert_eq!(&decoded, resp);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_request(&mut empty), Ok(None));
        let mut empty: &[u8] = &[];
        assert_eq!(read_response(&mut empty), Ok(None));
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(NetStatus::Ok.name(), "ok");
        assert_eq!(NetStatus::RejectedQueueFull.name(), "rejected_queue_full");
        assert_eq!(NetStatus::RejectedDeadline.name(), "rejected_deadline");
        assert_eq!(NetStatus::Failed.name(), "failed");
        for b in 0..4u8 {
            assert_eq!(NetStatus::from_byte(b).unwrap().to_byte(), b);
        }
    }

    #[test]
    fn reaping_joins_only_the_finished_connection_threads() {
        let (release, wait) = mpsc::channel::<()>();
        let mut conns: Vec<JoinHandle<()>> = (0..3).map(|_| std::thread::spawn(|| {})).collect();
        conns.push(std::thread::spawn(move || {
            let _ = wait.recv();
        }));
        let t0 = std::time::Instant::now();
        while conns.len() > 1 {
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(10),
                "exited threads were never reaped"
            );
            reap_finished(&mut conns);
            std::thread::yield_now();
        }
        assert!(!conns[0].is_finished(), "the running thread stays");
        release
            .send(())
            .expect("the running thread waits on the channel");
        while !conns.is_empty() {
            assert!(t0.elapsed() < std::time::Duration::from_secs(10));
            reap_finished(&mut conns);
            std::thread::yield_now();
        }
    }

    #[test]
    fn loopback_round_trip_over_a_real_socket() {
        let net = NetServer::start(
            ServeConfig {
                queue_capacity: 32,
                max_inflight: 2,
                worker_budget: 2,
                policy: QueuePolicy::Edf,
                batch_max_items: 4096,
            },
            NoRecorder,
            "127.0.0.1:0",
        )
        .expect("bind loopback");
        let mut client = NetClient::connect(net.local_addr()).expect("connect");
        let resp = client
            .call(&merge_req(42, vec![1, 4, 7], vec![2, 3, 9]))
            .expect("round trip");
        assert_eq!(resp.id, 42);
        assert_eq!(resp.status, NetStatus::Ok);
        assert_eq!(resp.output, vec![1, 2, 3, 4, 7, 9]);
        assert!(resp.latency_ns > 0);
        drop(client);
        let stats = net.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.lost(), 0);
    }
}
