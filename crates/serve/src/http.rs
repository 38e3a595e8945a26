//! A dependency-free blocking HTTP/1.1 front end for [`OptimizeService`].
//!
//! The server is deliberately small and boring: `std::net` sockets, one
//! accept thread and a fixed pool of connection workers. What it is *not*
//! casual about is the boundary — request parsing mirrors the [`JsonValue`]
//! philosophy:
//!
//! * **Size-bounded.** Headers are read up to
//!   [`ServerConfig::max_header_bytes`] (then `431`); a declared body
//!   larger than [`ServerConfig::max_body_bytes`] is rejected with `413`
//!   *before* a single body byte is read.
//! * **Never panics on untrusted bytes.** Truncated requests, garbage
//!   request lines, bad `Content-Length` values and malformed graph JSON
//!   all map to typed `4xx` responses; a `5xx` can only mean a genuine
//!   server-side defect (and even that is caught, not a crash).
//! * **Slow clients cannot wedge a thread forever** — a stall inside a
//!   request ends in `408` after [`ServerConfig::io_timeout`].
//! * **Framing is never guessed at.** A declared body is read off the
//!   socket whatever the method, `Content-Length` headers that disagree are
//!   `400`, `Transfer-Encoding` is `501`, and every response to a request
//!   that could not be read closes the connection: on a persistent
//!   connection a framing mistake turns body bytes into the next request.
//!
//! ## Connections
//!
//! HTTP/1.1 connections **persist**: requests on one connection are answered
//! in order (bytes read past one request's body start the next), each
//! response is one write, and the connection stays open until the client
//! sends `Connection: close` (or speaks HTTP/1.0), a request is rejected
//! unread, the response is a `5xx`, or the pool is under pressure.
//!
//! The accept thread hands connections to a **bounded queue** drained by a
//! **fixed pool** of workers created at bind and joined by shutdown — two
//! workers per available CPU (at least 4, at most 64), four queue places
//! per worker. A connection that finds the queue full is **shed**: `503`
//! with `Retry-After`, counted in `serve/shed`. A worker parked on an idle
//! persistent connection waits in short read slices (25 ms), so within one
//! slice it notices a stopping server (shutdown does not wait on idle
//! sockets), a connection waiting in the queue (it closes the idle one and
//! takes the waiting one — idle clients cannot starve a new one), or the
//! idle limit (5 s; closed silently, there is nobody to send a `408` to).
//! The sizes are derived, not configured: [`ServerConfig`] bounds the
//! boundary, not the pool.
//!
//! ## Routes
//!
//! | Route | Body in | Body out |
//! |---|---|---|
//! | `POST /optimize` | graph interchange JSON | optimised graph + latency stats (`503` + `Retry-After: 0` when the optimisation this request was waiting on panicked) |
//! | `GET /metrics` | — | the metrics snapshot JSON |
//! | `GET /healthz` | — | `{"status": "ok"}` |
//! | `POST /admin/swap` | `XRLFSNAP` checkpoint bytes | swap confirmation |
//!
//! All formats are specified in `docs/FORMATS.md`; `docs/OPERATIONS.md`
//! covers running and operating the server.
//!
//! ```
//! use std::sync::Arc;
//! use xrlflow_core::XrlflowConfig;
//! use xrlflow_serve::{http_call, OptimizeServer, OptimizeService};
//!
//! let service = OptimizeService::untrained(&XrlflowConfig::smoke_test(), 0).unwrap();
//! let server = OptimizeServer::bind(Arc::new(service), "127.0.0.1:0").unwrap();
//! let reply = http_call(server.local_addr(), "GET", "/healthz", &[]).unwrap();
//! assert_eq!(reply.status, 200);
//! assert!(reply.body.contains("ok"));
//! ```

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xrlflow_core::ConfigError;
use xrlflow_graph::JsonValue;
use xrlflow_tensor::ParamSnapshot;

use crate::error::ServeError;
use crate::service::OptimizeService;

/// Size and patience bounds for the HTTP boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Largest accepted request body; a bigger `Content-Length` is
    /// rejected with `413` before any body byte is read. Default 16 MiB.
    pub max_body_bytes: usize,
    /// Largest accepted request head (request line plus headers); longer
    /// heads are rejected with `431`. Default 16 KiB.
    pub max_header_bytes: usize,
    /// How long a request may stall (no byte read, or a write not
    /// accepted) before the client gets `408` (or a dropped connection)
    /// instead of a wedged worker. Default 30 s.
    pub io_timeout: Duration,
    /// How long [`OptimizeServer::shutdown`] waits for queued and in-flight
    /// requests to be answered before giving up on them. Default 5 s.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_body_bytes: 16 * 1024 * 1024,
            max_header_bytes: 16 * 1024,
            io_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Builds a configuration from the environment, falling back to the
    /// defaults: `XRLFLOW_HTTP_MAX_BODY_BYTES`, `XRLFLOW_HTTP_MAX_HEADER_BYTES`,
    /// `XRLFLOW_HTTP_IO_TIMEOUT_MS` and `XRLFLOW_HTTP_DRAIN_MS` (all
    /// positive integers).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending variable when a value is set
    /// but not a positive integer.
    pub fn from_env() -> Result<Self, ConfigError> {
        let mut config = Self::default();
        if let Some(v) = env_usize("XRLFLOW_HTTP_MAX_BODY_BYTES", "http.max_body_bytes")? {
            config.max_body_bytes = v;
        }
        if let Some(v) = env_usize("XRLFLOW_HTTP_MAX_HEADER_BYTES", "http.max_header_bytes")? {
            config.max_header_bytes = v;
        }
        if let Some(v) = env_usize("XRLFLOW_HTTP_IO_TIMEOUT_MS", "http.io_timeout_ms")? {
            config.io_timeout = Duration::from_millis(v as u64);
        }
        if let Some(v) = env_usize("XRLFLOW_HTTP_DRAIN_MS", "http.drain_timeout_ms")? {
            config.drain_timeout = Duration::from_millis(v as u64);
        }
        Ok(config)
    }
}

fn env_usize(var: &str, field: &'static str) -> Result<Option<usize>, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) if v > 0 => Ok(Some(v)),
            _ => {
                Err(ConfigError { field, message: format!("{var} must be a positive integer, got {raw:?}") })
            }
        },
    }
}

/// One read slice of an idle persistent connection: how long a worker
/// parked on it goes without looking at the stop flag and the queue.
const IDLE_SLICE: Duration = Duration::from_millis(25);
/// How long a persistent connection may sit between two requests before the
/// server closes it (silently — an idle close is not an error).
const IDLE_LIMIT: Duration = Duration::from_secs(5);
/// Size a worker's request buffer starts at and shrinks back to.
const READ_BUFFER_BYTES: usize = 16 * 1024;
/// A request buffer that grew past this is released after the request.
const READ_BUFFER_RETAINED_BYTES: usize = 1024 * 1024;

/// Worker count and queue depth of a server's pool, from the CPUs this
/// process may run on: two workers per CPU (a worker blocks on its client's
/// socket as well as computing), never fewer than four, and four queued
/// connections per worker before new ones are shed.
fn pool_shape() -> (usize, usize) {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = (2 * cpus).clamp(4, 64);
    (workers, 4 * workers)
}

/// Accepted connections waiting for a worker, and how many workers are left.
#[derive(Debug)]
struct PoolState {
    queue: VecDeque<TcpStream>,
    live_workers: usize,
}

/// What the accept thread, the workers and the server handle share.
#[derive(Debug)]
struct Shared {
    service: Arc<OptimizeService>,
    config: ServerConfig,
    queue_depth: usize,
    /// The socket read timeout: [`IDLE_SLICE`], or `io_timeout` if shorter.
    slice: Duration,
    stop: AtomicBool,
    state: Mutex<PoolState>,
    /// Signalled when a connection is queued and when the server stops.
    work: Condvar,
    /// Signalled when a worker exits.
    drained: Condvar,
}

impl Shared {
    /// The pool state is valid at every step, so a poisoned lock is usable.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn has_queued(&self) -> bool {
        !self.state().queue.is_empty()
    }

    /// The next queued connection; `None` once the server is stopping and
    /// the queue is empty — every accepted connection is served first.
    fn next_connection(&self) -> Option<TcpStream> {
        let mut state = self.state();
        loop {
            if let Some(stream) = state.queue.pop_front() {
                return Some(stream);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            state = self.work.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A running HTTP server wrapped around an [`OptimizeService`].
///
/// Binding spawns the accept loop and a fixed pool of connection workers
/// (see the module docs); dropping the server (or calling
/// [`OptimizeServer::shutdown`]) stops accepting new connections and then
/// **drains**: it waits up to [`ServerConfig::drain_timeout`]
/// (`XRLFLOW_HTTP_DRAIN_MS`) for queued and in-flight requests to be
/// answered, so a graceful shutdown never drops an accepted request.
#[derive(Debug)]
pub struct OptimizeServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl OptimizeServer {
    /// Binds to `addr` (use port `0` for an ephemeral port) with the
    /// default [`ServerConfig`] and starts serving.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] when the address cannot be bound.
    pub fn bind(service: Arc<OptimizeService>, addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::bind_with_config(service, addr, ServerConfig::default())
    }

    /// Binds with explicit boundary bounds.
    ///
    /// # Errors
    ///
    /// [`ServeError::Http`] when the address cannot be bound.
    pub fn bind_with_config(
        service: Arc<OptimizeService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Http(format!("bind failed: {e}")))?;
        let local = listener.local_addr().map_err(|e| ServeError::Http(format!("local_addr failed: {e}")))?;
        let (workers, queue_depth) = pool_shape();
        let shared = Arc::new(Shared {
            service,
            config,
            queue_depth,
            slice: IDLE_SLICE.min(config.io_timeout),
            stop: AtomicBool::new(false),
            state: Mutex::new(PoolState { queue: VecDeque::new(), live_workers: workers }),
            work: Condvar::new(),
            drained: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Self { addr: local, shared, accept_thread: Some(accept_thread), workers })
    }

    /// The bound address — read this after binding port `0` to learn the
    /// ephemeral port the OS picked.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<OptimizeService> {
        &self.shared.service
    }

    /// Stops accepting new connections, joins the accept thread, then
    /// waits up to [`ServerConfig::drain_timeout`] for the workers to answer
    /// every queued and in-flight request and exit — a graceful shutdown
    /// never drops a request the server already accepted. Idle persistent
    /// connections are closed within one read slice, not waited on. Workers
    /// still busy at the deadline (e.g. on a client stalling inside its
    /// [`ServerConfig::io_timeout`]) are abandoned — they exit once their
    /// connection ends — with the give-up visible in the
    /// `serve/http_drain_timeouts` counter. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is blocked in `accept`; poke it with a throwaway
        // connection so it observes the stop flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // With the accept loop joined, the queue can only shrink. Waking the
        // workers under the lock cannot race one between its stop check and
        // its wait.
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        let mut state = self.shared.state();
        self.shared.work.notify_all();
        while state.live_workers > 0 {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else { break };
            state =
                self.shared.drained.wait_timeout(state, remaining).unwrap_or_else(PoisonError::into_inner).0;
        }
        let drained = state.live_workers == 0;
        drop(state);
        if drained {
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        } else {
            xrlflow_obs::counter!("serve/http_drain_timeouts").inc();
            self.workers.clear();
        }
    }
}

impl Drop for OptimizeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Hands accepted connections to the pool; a connection that finds the queue
/// full is shed.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        xrlflow_obs::counter!("serve/http_connections").inc();
        // A response must not wait for the client to acknowledge the
        // previous one on the same connection.
        let _ = stream.set_nodelay(true);
        let mut state = shared.state();
        if state.queue.len() >= shared.queue_depth {
            drop(state);
            shed(stream);
            continue;
        }
        // Queued here, on the accept thread, so by the time shutdown joins
        // this loop every accepted connection is already in the workers' view.
        state.queue.push_back(stream);
        drop(state);
        shared.work.notify_one();
    }
}

/// Refuses a connection the pool has no room for: `503` with `Retry-After`,
/// written from the accept thread, which must never block — hence the
/// non-blocking socket. Reading what the client already sent lets the close
/// be a FIN, not a reset that could overtake the response.
fn shed(mut stream: TcpStream) {
    xrlflow_obs::counter!("serve/shed").inc();
    let response =
        Response { retry_after: Some(1), ..Response::error(503, "server overloaded; retry shortly") };
    let mut head = Vec::new();
    response.write_head(&mut head, true);
    head.extend_from_slice(response.body.as_bytes());
    let _ = stream.set_nonblocking(true);
    let _ = stream.write_all(&head);
    let _ = stream.read(&mut [0u8; 4096]);
}

fn worker_loop(shared: &Shared) {
    let mut buffers = Buffers { request: RequestBuffer::new(), head: Vec::with_capacity(256) };
    while let Some(stream) = shared.next_connection() {
        // Request handling catches its own panics (and answers `500`); this
        // one only keeps a defect elsewhere from shrinking the pool.
        let _ = catch_unwind(AssertUnwindSafe(|| serve_connection(stream, shared, &mut buffers)));
    }
    shared.state().live_workers -= 1;
    shared.drained.notify_all();
}

/// One response about to go on the wire.
struct Response {
    status: u16,
    body: Arc<str>,
    /// Seconds for a `Retry-After` header (`503` only).
    retry_after: Option<u32>,
}

impl Response {
    fn json(status: u16, body: impl Into<Arc<str>>) -> Self {
        Self { status, body: body.into(), retry_after: None }
    }

    /// A typed error response; the message is JSON-escaped through the
    /// same writer the graph format uses.
    fn error(status: u16, message: impl Into<String>) -> Self {
        let body = JsonValue::Object(vec![("error".to_string(), JsonValue::String(message.into()))]);
        Self::json(status, body.to_json())
    }

    /// Renders the response head into `head` (cleared first).
    fn write_head(&self, head: &mut Vec<u8>, close: bool) {
        head.clear();
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len()
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(head, "Retry-After: {seconds}\r\n");
        }
        head.extend_from_slice(if close { b"Connection: close\r\n\r\n" } else { b"\r\n" });
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Head and body in one write: two writes per response on a persistent
/// connection are two segments, and where Nagle's algorithm is in force the
/// second waits for the client's delayed ACK (~40 ms) of the first.
fn send(stream: &mut TcpStream, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let sent = stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)])?;
    // A short write (the send timeout cut in) finishes as plain writes.
    if sent < head.len() {
        stream.write_all(&head[sent..])?;
    }
    stream.write_all(&body[sent.saturating_sub(head.len())..])
}

/// A worker's reusable buffers: they outlive connections, so a client that
/// opens one connection per request costs no allocation either.
struct Buffers {
    request: RequestBuffer,
    head: Vec<u8>,
}

/// Bytes read off a connection and not yet consumed: `bytes[start..end]`.
/// What follows one request's body stays for the next.
struct RequestBuffer {
    bytes: Vec<u8>,
    start: usize,
    end: usize,
}

/// Why a read produced no bytes.
enum ReadEnd {
    /// The peer closed its side.
    Closed,
    /// Nothing arrived within the applicable limit — or an idle connection
    /// gave way early to a stopping server or a waiting connection.
    TimedOut,
    Failed,
}

impl RequestBuffer {
    fn new() -> Self {
        Self { bytes: vec![0; READ_BUFFER_BYTES], start: 0, end: 0 }
    }

    fn pending(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }

    /// Drops the first `count` pending bytes (one answered request).
    fn consume(&mut self, count: usize) {
        self.start += count;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.bytes.len() > READ_BUFFER_RETAINED_BYTES {
                self.bytes = vec![0; READ_BUFFER_BYTES];
            }
        }
    }

    /// Makes room for the pending bytes to grow to `total`.
    fn reserve_pending(&mut self, total: usize) {
        if self.start + total > self.bytes.len() {
            self.bytes.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if total > self.bytes.len() {
                self.bytes.resize(total, 0);
            }
        }
    }

    /// Reads more bytes, waiting in slices. Between requests (`idle`) the
    /// wait ends at [`IDLE_LIMIT`] and gives way to a stopping server or a
    /// waiting connection; inside a request it ends at `io_timeout`.
    fn fill(&mut self, stream: &mut TcpStream, shared: &Shared, idle: bool) -> Result<(), ReadEnd> {
        if self.end == self.bytes.len() {
            self.reserve_pending(2 * self.pending().len().max(READ_BUFFER_BYTES));
        }
        let limit = if idle { IDLE_LIMIT } else { shared.config.io_timeout };
        let waiting_since = Instant::now();
        loop {
            match stream.read(&mut self.bytes[self.end..]) {
                Ok(0) => return Err(ReadEnd::Closed),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    let give_way = idle && (shared.stop.load(Ordering::SeqCst) || shared.has_queued());
                    if give_way || waiting_since.elapsed() >= limit {
                        return Err(ReadEnd::TimedOut);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ReadEnd::Failed),
            }
        }
    }
}

/// Serves one connection until it closes: requests are answered in order,
/// and the connection persists between them unless the client, an error or
/// pressure on the pool says otherwise (see the module docs).
fn serve_connection(mut stream: TcpStream, shared: &Shared, buffers: &mut Buffers) {
    let Buffers { request: buffer, head } = buffers;
    (buffer.start, buffer.end) = (0, 0);
    let _ = stream.set_read_timeout(Some(shared.slice));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let mut answered_any = false;
    loop {
        let (response, consumed, rejected, mut close) =
            match read_request(&mut stream, shared, buffer, answered_any) {
                Err(Rejection::Close) => return,
                Err(Rejection::Respond(response)) => (response, 0, true, true),
                Ok(request) => {
                    // The handler is pure request → response over a `Sync` service;
                    // a panic here would be a server defect, and even then the
                    // client gets a 500 instead of a dropped connection.
                    let response = catch_unwind(AssertUnwindSafe(|| handle(&shared.service, &request)))
                        .unwrap_or_else(|_| Response::error(500, "internal error"));
                    (response, request.wire_len, false, request.close)
                }
            };
        xrlflow_obs::counter!("serve/http_requests").inc();
        match response.status / 100 {
            2 => xrlflow_obs::counter!("serve/http_2xx").inc(),
            4 => xrlflow_obs::counter!("serve/http_4xx").inc(),
            _ => xrlflow_obs::counter!("serve/http_5xx").inc(),
        }
        // A server fault, a stopping server and a connection waiting for a
        // worker each end persistence, and the client is told so.
        close = close || response.status >= 500 || shared.stop.load(Ordering::SeqCst) || shared.has_queued();
        response.write_head(head, close);
        // The client may already be gone; that is its problem, not ours.
        let sent = send(&mut stream, head, response.body.as_bytes());
        if rejected {
            // The request was refused before being fully read (oversized head
            // or body, truncation). Closing now would RST the connection —
            // destroying the error response before the client reads it — so
            // drain what the client already sent, bounded in bytes and time.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let mut scratch = [0u8; 4096];
            let mut drained = 0usize;
            while drained < 256 * 1024 {
                match stream.read(&mut scratch) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => drained += n,
                }
            }
        }
        if close || sent.is_err() {
            return;
        }
        buffer.consume(consumed);
        answered_any = true;
    }
}

/// One parsed request, borrowed from the connection's buffer.
struct Request<'a> {
    method: &'a str,
    path: &'a str,
    /// The exact body (`Content-Length` bytes; empty without the header).
    body: &'a [u8],
    /// Whether the client asked for the connection to end with this request
    /// (`Connection: close`, or HTTP/1.0).
    close: bool,
    /// Bytes of the buffer this request occupies, head and body.
    wire_len: usize,
}

/// How reading a request can fail: nothing to answer, or an error response —
/// after which the connection is always closed, because the position of the
/// next request in the byte stream is no longer known.
enum Rejection {
    Close,
    Respond(Response),
}

impl From<Response> for Rejection {
    fn from(response: Response) -> Self {
        Rejection::Respond(response)
    }
}

/// Reads and parses the next request of the connection, enforcing every
/// bound in [`ServerConfig`]. `persistent` is set once the connection has
/// had a request answered: waiting for the *next* one is idling, and ends
/// silently.
fn read_request<'a>(
    stream: &mut TcpStream,
    shared: &Shared,
    buffer: &'a mut RequestBuffer,
    persistent: bool,
) -> Result<Request<'a>, Rejection> {
    let config = &shared.config;
    // Waits for more of the request; `what` names the part for the client.
    let more = |buffer: &mut RequestBuffer, stream: &mut TcpStream, what: &str| -> Result<(), Rejection> {
        let idle = persistent && buffer.pending().is_empty();
        buffer.fill(stream, shared, idle).map_err(|end| match end {
            _ if idle => Rejection::Close,
            // A client that connected and left without a byte asked nothing.
            ReadEnd::Closed if buffer.pending().is_empty() => Rejection::Close,
            ReadEnd::Closed => {
                Response::error(400, format!("truncated request: connection closed mid-{what}")).into()
            }
            ReadEnd::TimedOut => Response::error(408, format!("timed out reading the request {what}")).into(),
            ReadEnd::Failed => Response::error(400, format!("error reading the request {what}")).into(),
        })
    };

    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(buffer.pending(), scanned) {
            break pos;
        }
        if buffer.pending().len() > config.max_header_bytes {
            return Err(Response::error(431, "request head exceeds the configured limit").into());
        }
        // The terminator may straddle this read and the next.
        scanned = buffer.pending().len().saturating_sub(3);
        more(buffer, stream, "head")?;
    };
    if head_end > config.max_header_bytes {
        return Err(Response::error(431, "request head exceeds the configured limit").into());
    }
    let framing = parse_head(&buffer.pending()[..head_end])?;
    let expected = match framing.content_length {
        Some(expected) => expected,
        None if framing.is_post => {
            return Err(Response::error(411, "POST requires a Content-Length header").into());
        }
        None => 0,
    };
    if expected > config.max_body_bytes {
        return Err(Response::error(
            413,
            format!("body of {expected} bytes exceeds the limit of {}", config.max_body_bytes),
        )
        .into());
    }
    // A body is read off the socket whatever the method: left there, it
    // would be parsed as the connection's next request.
    let wire_len = head_end + 4 + expected;
    buffer.reserve_pending(wire_len);
    while buffer.pending().len() < wire_len {
        more(buffer, stream, "body")?;
    }
    let (head, body) = buffer.pending()[..wire_len].split_at(head_end + 4);
    let mut words = std::str::from_utf8(head).expect("parse_head checked it").split_whitespace();
    let (method, path) = (words.next().expect("parsed above"), words.next().expect("parsed above"));
    Ok(Request { method, path, body, close: framing.close, wire_len })
}

/// What the request head says about the bytes that follow it.
struct Framing {
    is_post: bool,
    content_length: Option<usize>,
    close: bool,
}

/// Validates a request head (without its blank line) and extracts its
/// framing. Ambiguous framing is refused, never guessed at: on a persistent
/// connection a wrong guess turns body bytes into the next request.
fn parse_head(head: &[u8]) -> Result<Framing, Response> {
    let Ok(head) = std::str::from_utf8(head) else {
        return Err(Response::error(400, "request head is not valid UTF-8"));
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(_), Some(v), None) if v.starts_with("HTTP/") => (m, v),
        _ => return Err(Response::error(400, format!("malformed request line: {request_line:?}"))),
    };
    // HTTP/1.1 connections persist by default; anything older closes.
    let mut framing = Framing {
        is_post: method.eq_ignore_ascii_case("POST"),
        content_length: None,
        close: version != "HTTP/1.1",
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse::<usize>() else {
                return Err(Response::error(400, "malformed Content-Length header"));
            };
            if framing.content_length.is_some_and(|earlier| earlier != n) {
                return Err(Response::error(400, "conflicting Content-Length headers"));
            }
            framing.content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(Response::error(501, "Transfer-Encoding is not supported; send a Content-Length"));
        } else if name.eq_ignore_ascii_case("connection") {
            framing.close |= value.split(',').any(|token| token.trim().eq_ignore_ascii_case("close"));
        }
    }
    Ok(framing)
}

/// Position of the blank line ending a head, looking only from `from` on
/// (what earlier calls already scanned need no second look).
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?.windows(4).position(|w| w == b"\r\n\r\n").map(|pos| from + pos)
}

/// Routes one well-formed request. Service-level failures surface as typed
/// responses; this function never panics on untrusted content.
fn handle(service: &OptimizeService, request: &Request<'_>) -> Response {
    match (request.method, request.path) {
        ("POST", "/optimize") => match service.optimize_http(request.body) {
            Ok(body) => Response::json(200, body),
            // The leader this request waited on panicked: a server-side
            // fault, and an immediate retry runs a fresh optimisation.
            Err(e @ ServeError::FlightFailed { .. }) => {
                Response { retry_after: Some(0), ..Response::error(503, e.to_string()) }
            }
            Err(e) => Response::error(400, e.to_string()),
        },
        ("GET", "/metrics") => Response::json(200, service.metrics_json()),
        ("GET", "/healthz") => Response::json(
            200,
            JsonValue::Object(vec![("status".to_string(), JsonValue::String("ok".to_string()))]).to_json(),
        ),
        ("POST", "/admin/swap") => {
            let snapshot = match ParamSnapshot::from_bytes(request.body) {
                Ok(snapshot) => snapshot,
                Err(e) => return Response::error(400, format!("not a valid checkpoint: {e}")),
            };
            let tensors = snapshot.len();
            let scalars = snapshot.num_scalars();
            match service.swap_snapshot(&snapshot) {
                Ok(()) => {
                    let body = JsonValue::Object(vec![
                        ("swapped".to_string(), JsonValue::Bool(true)),
                        ("tensors".to_string(), JsonValue::Number(tensors as f64)),
                        ("scalars".to_string(), JsonValue::Number(scalars as f64)),
                    ]);
                    Response::json(200, body.to_json())
                }
                Err(e) => Response::error(422, e.to_string()),
            }
        }
        (_, "/optimize") | (_, "/admin/swap") => {
            Response::error(405, format!("{} not allowed here; use POST", request.method))
        }
        (_, "/metrics") | (_, "/healthz") => {
            Response::error(405, format!("{} not allowed here; use GET", request.method))
        }
        (_, path) => Response::error(404, format!("no such route: {path}")),
    }
}

/// A response received by [`http_call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// The HTTP status code.
    pub status: u16,
    /// The response body (the servers in this crate always send JSON).
    pub body: String,
}

/// A minimal blocking HTTP/1.1 client for one-shot calls against an
/// [`OptimizeServer`] — shared by the integration tests, the bench harness
/// and `examples/serve_http.rs`, and small enough to crib for ad-hoc
/// scripting.
///
/// # Errors
///
/// [`ServeError::Http`] when the connection, write, read or response
/// parse fails. A non-2xx status is **not** an error — inspect
/// [`HttpReply::status`].
pub fn http_call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<HttpReply, ServeError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| ServeError::Http(format!("connect {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(60)));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| ServeError::Http(format!("write: {e}")))?;
    stream.write_all(body).map_err(|e| ServeError::Http(format!("write: {e}")))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| ServeError::Http(format!("read: {e}")))?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> Result<HttpReply, ServeError> {
    let head_end =
        find_head_end(raw, 0).ok_or_else(|| ServeError::Http("response has no header terminator".into()))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| ServeError::Http("response head is not valid UTF-8".into()))?;
    let status_line = head.split("\r\n").next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ServeError::Http(format!("malformed status line: {status_line:?}")))?;
    let body = String::from_utf8_lossy(&raw[head_end + 4..]).into_owned();
    Ok(HttpReply { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_is_found_only_when_complete() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 0), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", 0), None);
        assert_eq!(find_head_end(b"", 0), None);
        // Resuming three bytes before the end of what was scanned finds a
        // terminator that straddles two reads; resuming past it does not.
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 14), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 15), None);
        assert_eq!(find_head_end(b"abc", 7), None);
    }

    #[test]
    fn reply_parser_rejects_garbage() {
        assert!(parse_reply(b"not http at all").is_err());
        assert!(parse_reply(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        let ok = parse_reply(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}").unwrap();
        assert_eq!(ok, HttpReply { status: 200, body: "{}".to_string() });
    }

    #[test]
    fn server_config_from_env_rejects_non_numbers() {
        // Env mutation is process-global; this test owns these variables.
        std::env::set_var("XRLFLOW_HTTP_MAX_BODY_BYTES", "12345");
        std::env::set_var("XRLFLOW_HTTP_MAX_HEADER_BYTES", "zero");
        assert!(ServerConfig::from_env().is_err());
        std::env::set_var("XRLFLOW_HTTP_MAX_HEADER_BYTES", "4096");
        std::env::set_var("XRLFLOW_HTTP_IO_TIMEOUT_MS", "250");
        std::env::set_var("XRLFLOW_HTTP_DRAIN_MS", "750");
        let config = ServerConfig::from_env().unwrap();
        assert_eq!(config.max_body_bytes, 12345);
        assert_eq!(config.max_header_bytes, 4096);
        assert_eq!(config.io_timeout, Duration::from_millis(250));
        assert_eq!(config.drain_timeout, Duration::from_millis(750));
        std::env::remove_var("XRLFLOW_HTTP_MAX_BODY_BYTES");
        std::env::remove_var("XRLFLOW_HTTP_MAX_HEADER_BYTES");
        std::env::remove_var("XRLFLOW_HTTP_IO_TIMEOUT_MS");
        std::env::remove_var("XRLFLOW_HTTP_DRAIN_MS");
    }
}
