//! Integration tests of the HTTP front end: the happy path end to end, the
//! negative suite (every malformed or out-of-bounds request is a typed 4xx,
//! never a panic or a parse-triggered 5xx), hot snapshot swap under live
//! traffic, cache budgets enforced under HTTP load, and the connection model:
//! persistence, request framing on a persistent connection, idle handling,
//! shutdown, and shedding when the worker pool and its queue are full.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::{Graph, JsonValue, OpAttributes, OpKind, TensorShape};
use xrlflow_serve::{http_call, CacheConfig, OptimizeServer, OptimizeService, ServerConfig};

fn start_server() -> OptimizeServer {
    start_server_with_config(ServerConfig::default())
}

fn start_server_with_config(config: ServerConfig) -> OptimizeServer {
    let service = OptimizeService::untrained(&XrlflowConfig::smoke_test(), 7).unwrap();
    OptimizeServer::bind_with_config(Arc::new(service), "127.0.0.1:0", config).unwrap()
}

/// A hand-built graph whose canonical hash varies with `len`: a Relu chain
/// of that length. Cheap to optimise, and each length is a distinct cache
/// entry — the workload for eviction and miss-under-swap tests.
fn relu_chain(len: usize) -> Graph {
    let mut g = Graph::new();
    let input = g.add_input(TensorShape::new(vec![1, 8]));
    let mut last: xrlflow_graph::TensorRef = input.into();
    for _ in 0..len {
        last = g.add_node(OpKind::Relu, OpAttributes::default(), vec![last]).unwrap().into();
    }
    g.mark_output(last);
    g
}

/// Sends raw bytes (possibly a deliberately broken request), half-closes,
/// and returns the `(status, body)` the server answered with.
fn raw_call(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("no status line in response: {text:?}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn optimize_healthz_and_metrics_end_to_end() {
    let server = start_server();
    let addr = server.local_addr();

    let health = http_call(addr, "GET", "/healthz", &[]).unwrap();
    assert_eq!(health.status, 200);
    let parsed = JsonValue::parse(&health.body).unwrap();
    assert_eq!(parsed.get("status").and_then(JsonValue::as_str), Some("ok"));

    // First optimisation request: a policy run, with the optimised graph
    // round-trippable through the interchange format.
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    let first = http_call(addr, "POST", "/optimize", graph.to_json().as_bytes()).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    let parsed = JsonValue::parse(&first.body).unwrap();
    assert_eq!(parsed.get("cache_hit").and_then(JsonValue::as_bool), Some(false));
    assert!(parsed.get("final_latency_ms").and_then(JsonValue::as_f64).unwrap() > 0.0);
    let optimised = Graph::from_json_value(parsed.get("graph").unwrap()).unwrap();
    assert!(optimised.validate().is_ok());

    // The repeat request is a cache hit with identical latencies.
    let second = http_call(addr, "POST", "/optimize", graph.to_json().as_bytes()).unwrap();
    assert_eq!(second.status, 200);
    let parsed2 = JsonValue::parse(&second.body).unwrap();
    assert_eq!(parsed2.get("cache_hit").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        parsed2.get("final_latency_ms").and_then(JsonValue::as_f64),
        parsed.get("final_latency_ms").and_then(JsonValue::as_f64)
    );

    // /metrics is the versioned metrics snapshot and has seen this traffic.
    let metrics = http_call(addr, "GET", "/metrics", &[]).unwrap();
    assert_eq!(metrics.status, 200);
    let parsed = JsonValue::parse(&metrics.body).unwrap();
    assert_eq!(parsed.get("format").and_then(JsonValue::as_str), Some("xrlflow-metrics"));
    let counters = parsed.get("counters").unwrap();
    assert!(counters.get("serve/http_requests").and_then(JsonValue::as_f64).unwrap() >= 3.0);
    assert!(counters.get("serve/http_2xx").and_then(JsonValue::as_f64).unwrap() >= 3.0);
}

#[test]
fn concurrent_posts_are_served_end_to_end() {
    let server = start_server();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for i in 0..8 {
            scope.spawn(move || {
                let graph = relu_chain(1 + (i % 2));
                let reply = http_call(addr, "POST", "/optimize", graph.to_json().as_bytes()).unwrap();
                assert_eq!(reply.status, 200, "body: {}", reply.body);
                let parsed = JsonValue::parse(&reply.body).unwrap();
                assert!(parsed.get("final_latency_ms").and_then(JsonValue::as_f64).unwrap() > 0.0);
            });
        }
    });
    let stats = server.service().stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.policy_invocations, 2, "two distinct graphs, single-flight per key");
}

#[test]
fn negative_requests_get_typed_4xx_and_never_kill_the_server() {
    let config = ServerConfig { max_body_bytes: 1024, max_header_bytes: 512, ..ServerConfig::default() };
    let server = start_server_with_config(config);
    let addr = server.local_addr();

    // Malformed request line.
    let (status, body) = raw_call(addr, b"GARBAGE\r\n\r\n");
    assert_eq!(status, 400, "body: {body}");

    // Truncated mid-head.
    let (status, _) = raw_call(addr, b"GET /healthz HTT");
    assert_eq!(status, 400);

    // Truncated mid-body: Content-Length promises more than arrives.
    let (status, _) = raw_call(addr, b"POST /optimize HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc");
    assert_eq!(status, 400);

    // POST without a Content-Length.
    let (status, _) = raw_call(addr, b"POST /optimize HTTP/1.1\r\n\r\n");
    assert_eq!(status, 411);

    // Unparseable Content-Length.
    let (status, _) = raw_call(addr, b"POST /optimize HTTP/1.1\r\nContent-Length: lots\r\n\r\n");
    assert_eq!(status, 400);

    // Declared body over the budget is refused before any body byte is read.
    let (status, _) = raw_call(addr, b"POST /optimize HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
    assert_eq!(status, 413);

    // A request head over the budget.
    let mut huge_head = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..64 {
        huge_head.extend_from_slice(format!("X-Padding-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    huge_head.extend_from_slice(b"\r\n");
    let (status, _) = raw_call(addr, &huge_head);
    assert_eq!(status, 431);

    // Wrong methods on known routes; unknown route.
    let (status, _) = raw_call(addr, b"DELETE /optimize HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    assert_eq!(http_call(addr, "POST", "/metrics", &[]).unwrap().status, 405);
    assert_eq!(http_call(addr, "GET", "/nope", &[]).unwrap().status, 404);

    // Malformed and semantically invalid graph JSON: typed 400 with an
    // error body, not a panic and not a 5xx.
    for bad in ["", "not json", "{\"format\": \"bogus\"}", "[1, 2, 3]"] {
        let reply = http_call(addr, "POST", "/optimize", bad.as_bytes()).unwrap();
        assert_eq!(reply.status, 400, "request body {bad:?}");
        let parsed = JsonValue::parse(&reply.body).unwrap();
        assert!(parsed.get("error").and_then(JsonValue::as_str).is_some());
    }

    // Non-UTF-8 request body.
    let reply = http_call(addr, "POST", "/optimize", &[0xff, 0xfe, 0x00, 0x80]).unwrap();
    assert_eq!(reply.status, 400);

    // Garbage checkpoint bytes; then a structurally valid checkpoint for
    // the wrong architecture.
    let reply = http_call(addr, "POST", "/admin/swap", b"not a checkpoint").unwrap();
    assert_eq!(reply.status, 400);
    let wrong =
        xrlflow_tensor::ParamSnapshot::new(vec![("w".to_string(), xrlflow_tensor::Tensor::zeros(&[2]))])
            .to_bytes();
    let reply = http_call(addr, "POST", "/admin/swap", &wrong).unwrap();
    assert_eq!(reply.status, 422);

    // After the whole gauntlet the server is still healthy and still
    // optimises — nothing panicked, no thread died with a request.
    assert_eq!(http_call(addr, "GET", "/healthz", &[]).unwrap().status, 200);
    let graph = relu_chain(2);
    let reply = http_call(addr, "POST", "/optimize", graph.to_json().as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "body: {}", reply.body);

    // The process-wide 4xx counter saw this suite.
    let metrics = JsonValue::parse(&server.service().metrics_json()).unwrap();
    let rejected =
        metrics.get("counters").unwrap().get("serve/http_4xx").and_then(JsonValue::as_f64).unwrap();
    assert!(rejected >= 10.0, "expected the negative suite in serve/http_4xx, saw {rejected}");
}

#[test]
fn hot_swap_mid_traffic_never_drops_or_errors_in_flight_requests() {
    let config = XrlflowConfig::smoke_test();
    let server = start_server();
    let addr = server.local_addr();

    // Traffic threads POST a rotating set of graphs — mostly misses, so
    // greedy episodes are genuinely in flight while checkpoints swap.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..3 {
            let stop = Arc::clone(&stop);
            workers.push(scope.spawn(move || {
                let mut served = 0usize;
                let mut len = t * 10;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    len += 1;
                    let graph = relu_chain(1 + (len % 20));
                    let reply = http_call(addr, "POST", "/optimize", graph.to_json().as_bytes())
                        .expect("request during swap must not be dropped");
                    assert_eq!(reply.status, 200, "request during swap must not error: {}", reply.body);
                    served += 1;
                }
                served
            }));
        }

        // Interleave several swaps (and one rejected one) with the traffic.
        for seed in [11u64, 22, 33] {
            let snapshot = XrlflowAgent::new(&config, seed).snapshot().to_bytes();
            let reply = http_call(addr, "POST", "/admin/swap", &snapshot).unwrap();
            assert_eq!(reply.status, 200, "body: {}", reply.body);
            let parsed = JsonValue::parse(&reply.body).unwrap();
            assert_eq!(parsed.get("swapped").and_then(JsonValue::as_bool), Some(true));
            assert!(parsed.get("tensors").and_then(JsonValue::as_f64).unwrap() > 0.0);
            std::thread::sleep(Duration::from_millis(30));
        }
        let wrong = XrlflowAgent::new(&XrlflowConfig::bench(), 0).snapshot().to_bytes();
        assert_eq!(http_call(addr, "POST", "/admin/swap", &wrong).unwrap().status, 422);

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0, "traffic threads must have served requests during the swaps");
    });

    // Every accepted request resolved to a hit or an episode; the rejected
    // checkpoint left the (last swapped) policy serving.
    let stats = server.service().stats();
    assert_eq!(stats.cache_hits + stats.policy_invocations, stats.requests);
    assert_eq!(http_call(addr, "GET", "/healthz", &[]).unwrap().status, 200);
}

#[test]
fn shutdown_under_load_never_drops_an_accepted_request() {
    let mut server = start_server();
    let addr = server.local_addr();

    // Clients race the shutdown with distinct graphs (all cache misses, so
    // each runs a real greedy episode). Every request the server accepts
    // must come back as a complete 200 — the drain in `shutdown` waits for
    // the in-flight connection threads instead of racing them.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let graph = relu_chain(1 + i);
                http_call(addr, "POST", "/optimize", graph.to_json().as_bytes())
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();
    let served_after_drain = server.service().stats().requests;

    let mut completed = 0;
    for client in clients {
        // A client refused at the socket (connected after the listener
        // died) is fine; a client whose request was accepted must get its
        // full response.
        if let Ok(reply) = client.join().unwrap() {
            assert_eq!(reply.status, 200, "accepted request dropped by shutdown: {}", reply.body);
            JsonValue::parse(&reply.body).expect("response truncated by shutdown");
            completed += 1;
        }
    }
    assert!(
        completed >= served_after_drain,
        "server counted {served_after_drain} requests but only {completed} clients got responses"
    );
}

#[test]
fn shutdown_drain_is_bounded_when_a_client_wedges_a_connection() {
    let config = ServerConfig { drain_timeout: Duration::from_millis(100), ..ServerConfig::default() };
    let mut server = start_server_with_config(config);
    let addr = server.local_addr();

    // A connection that never finishes its request head: the connection
    // thread sits in its (30 s) read timeout. Shutdown must give up on it
    // after the 100 ms drain budget instead of hanging.
    let mut wedged = TcpStream::connect(addr).unwrap();
    wedged.write_all(b"GET /hea").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must be bounded by the drain timeout, took {:?}",
        started.elapsed()
    );
    drop(wedged);
}

#[test]
fn cache_budget_is_never_exceeded_under_http_load() {
    let server = start_server();
    let addr = server.local_addr();
    let budget = 4;
    let evicted =
        server.service().set_cache_config(CacheConfig::builder().max_entries(budget).build().unwrap());
    assert_eq!(evicted, 0);

    for len in 1..=12 {
        let graph = relu_chain(len);
        let reply = http_call(addr, "POST", "/optimize", graph.to_json().as_bytes()).unwrap();
        assert_eq!(reply.status, 200);
        assert!(
            server.service().cache_len() <= budget,
            "cache exceeded its entry budget: {} > {budget}",
            server.service().cache_len()
        );
    }
    assert_eq!(server.service().cache_len(), budget);

    // The evictions are visible in /metrics (process-wide counter: assert
    // at least this test's eight evictions happened).
    let metrics = http_call(addr, "GET", "/metrics", &[]).unwrap();
    let parsed = JsonValue::parse(&metrics.body).unwrap();
    let evictions =
        parsed.get("counters").unwrap().get("serve/cache_evictions").and_then(JsonValue::as_f64).unwrap();
    assert!(evictions >= 8.0, "expected >= 8 evictions in /metrics, saw {evictions}");

    // Frequency admission: each graph was asked for once, so every new one
    // displaced the one inserted before it, never the resident set. Graph
    // 12, the latest, is resident…
    let cache_hit = |len: usize| {
        let reply = http_call(addr, "POST", "/optimize", relu_chain(len).to_json().as_bytes()).unwrap();
        JsonValue::parse(&reply.body).unwrap().get("cache_hit").and_then(JsonValue::as_bool)
    };
    assert_eq!(cache_hit(12), Some(true));
    // …graph 1, the least recently used, survived the burst…
    assert_eq!(cache_hit(1), Some(true));
    // …and graph 11 was displaced by graph 12.
    assert_eq!(cache_hit(11), Some(false));
}

/// One reply read off a persistent connection.
#[derive(Debug)]
struct Reply {
    status: u16,
    head: String,
    body: String,
}

impl Reply {
    fn closes(&self) -> bool {
        self.head.contains("\r\nConnection: close")
    }
}

/// A raw client connection that stays open between requests: replies are
/// framed by `Content-Length`, and bytes past one reply belong to the next.
struct Wire {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Self { stream, pending: Vec::new() }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    fn post(&mut self, path: &str, body: &str) {
        self.send(format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()).as_bytes());
    }

    /// Reads until `done` says the pending bytes suffice; `false` when the
    /// server closed (or nothing came within the read timeout) first.
    fn read_until(&mut self, done: impl Fn(&[u8]) -> bool) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        while !done(&self.pending) {
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return false,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
            }
        }
        true
    }

    /// The next reply, or `None` when the server closed the connection
    /// without sending (all of) one.
    fn try_reply(&mut self) -> Option<Reply> {
        let head_end = |bytes: &[u8]| bytes.windows(4).position(|w| w == b"\r\n\r\n");
        if !self.read_until(|bytes| head_end(bytes).is_some()) {
            return None;
        }
        let split = head_end(&self.pending).unwrap();
        let head = String::from_utf8(self.pending[..split].to_vec()).unwrap();
        let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let length: usize = head
            .split("\r\n")
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .expect("every reply carries a Content-Length")
            .parse()
            .unwrap();
        if !self.read_until(|bytes| bytes.len() >= split + 4 + length) {
            return None;
        }
        let body = String::from_utf8(self.pending[split + 4..split + 4 + length].to_vec()).unwrap();
        self.pending.drain(..split + 4 + length);
        Some(Reply { status, head, body })
    }

    fn reply(&mut self) -> Reply {
        self.try_reply().expect("the server closed the connection instead of replying")
    }

    /// Whether the server has closed the connection without sending
    /// anything more, waiting up to `patience` to see it.
    fn closed_silently_within(&mut self, patience: Duration) -> bool {
        self.stream.set_read_timeout(Some(patience)).unwrap();
        self.pending.is_empty() && matches!(self.stream.read(&mut [0u8; 64]), Ok(0))
    }
}

fn counter(server: &OptimizeServer, name: &str) -> f64 {
    let metrics = JsonValue::parse(&server.service().metrics_json()).unwrap();
    metrics.get("counters").unwrap().get(name).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

#[test]
fn connections_persist_until_the_client_says_otherwise() {
    let server = start_server();
    let mut wire = Wire::connect(server.local_addr());
    let graph = relu_chain(5).to_json();
    for round in 0..6 {
        if round % 2 == 0 {
            wire.post("/optimize", &graph);
        } else {
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
        }
        let reply = wire.reply();
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        assert!(!reply.closes(), "a persistent reply must not announce a close: {}", reply.head);
        if round % 2 == 0 {
            let hit = JsonValue::parse(&reply.body).unwrap().get("cache_hit").and_then(JsonValue::as_bool);
            assert_eq!(hit, Some(round > 0));
        }
    }
    // A handler-level 4xx leaves the framing intact: the connection stays.
    wire.post("/optimize", "not json");
    let reply = wire.reply();
    assert_eq!(reply.status, 400);
    assert!(!reply.closes());
    // `Connection: close` (any case, in a list) is honoured and announced.
    wire.send(b"GET /healthz HTTP/1.1\r\nConnection: Keep-Alive, CLOSE\r\n\r\n");
    let reply = wire.reply();
    assert_eq!(reply.status, 200);
    assert!(reply.closes());
    assert!(wire.closed_silently_within(Duration::from_secs(5)));

    // HTTP/1.0 has no persistence here, whatever the client asks for.
    let mut wire = Wire::connect(server.local_addr());
    wire.send(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    let reply = wire.reply();
    assert_eq!(reply.status, 200);
    assert!(reply.closes());
    assert!(wire.closed_silently_within(Duration::from_secs(5)));
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start_server();
    let mut wire = Wire::connect(server.local_addr());
    let graph = relu_chain(6).to_json();
    // Three requests in one write; the second carries a body.
    wire.send(
        format!(
            "GET /healthz HTTP/1.1\r\n\r\nPOST /optimize HTTP/1.1\r\nContent-Length: {}\r\n\r\n{graph}\
             GET /nope HTTP/1.1\r\n\r\n",
            graph.len()
        )
        .as_bytes(),
    );
    let first = wire.reply();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("ok"));
    let second = wire.reply();
    assert_eq!(second.status, 200, "body: {}", second.body);
    assert!(second.body.contains("final_latency_ms"));
    assert_eq!(wire.reply().status, 404);
    // A head that arrives a byte at a time is still one request.
    for byte in b"GET /healthz HTTP/1.1\r\nX-Slow: yes\r\n\r\n" {
        wire.send(&[*byte]);
    }
    assert_eq!(wire.reply().status, 200);
}

#[test]
fn ambiguous_or_unread_framing_never_desynchronises_a_connection() {
    let config = ServerConfig { max_body_bytes: 1024, ..ServerConfig::default() };
    let server = start_server_with_config(config);
    let addr = server.local_addr();

    // A body on a GET is read off the socket, not parsed as the next request.
    let mut wire = Wire::connect(addr);
    wire.send(b"GET /healthz HTTP/1.1\r\nContent-Length: 26\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(wire.reply().status, 200);
    let next = wire.reply();
    assert_eq!(next.status, 404);
    assert!(next.body.contains("/nope"), "the body was taken for a request: {}", next.body);
    // Two Content-Length headers that agree are one length.
    wire.send(b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi");
    assert_eq!(wire.reply().status, 200);

    // Each of these ends the connection: after it, where the next request
    // starts is anyone's guess. The trailing request must never be answered.
    let rejected: [(&[u8], u16); 8] = [
        // Too large to read and discard.
        (b"GET /healthz HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 413),
        // Two lengths that disagree.
        (b"POST /optimize HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}", 400),
        // Chunked bodies were never implemented.
        (b"POST /optimize HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 501),
        (b"POST /optimize HTTP/1.1\r\n\r\n", 411),
        (b"GARBAGE\r\n\r\n", 400),
        // A length is digits only: `+5` is not 5.
        (b"GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", 400),
        // A header line without its colon is not skipped: it would frame
        // the body as the next request.
        (b"GET /healthz HTTP/1.1\r\nContent-Length 26\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n", 400),
        // Whitespace between a header name and its colon.
        (b"GET /healthz HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello", 400),
    ];
    for (bytes, status) in rejected {
        let mut wire = Wire::connect(addr);
        wire.send(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(wire.reply().status, 200);
        wire.send(bytes);
        wire.send(b"GET /healthz HTTP/1.1\r\n\r\n");
        let reply = wire.reply();
        assert_eq!(reply.status, status, "request {:?}", String::from_utf8_lossy(bytes));
        assert!(reply.closes(), "a rejected request must announce the close: {}", reply.head);
        assert!(wire.try_reply().is_none(), "nothing may be answered after {status}");
    }
    assert_eq!(http_call(addr, "GET", "/healthz", &[]).unwrap().status, 200);
}

#[test]
fn an_idle_persistent_connection_is_closed_silently() {
    let server = start_server();
    let mut wire = Wire::connect(server.local_addr());
    wire.send(b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(wire.reply().status, 200);
    let idle_since = Instant::now();
    // No `408`, no bytes at all: just a close, once the idle limit (5 s) is up.
    assert!(wire.closed_silently_within(Duration::from_secs(20)));
    let idle_for = idle_since.elapsed();
    assert!(idle_for >= Duration::from_secs(4), "closed after only {idle_for:?}");
    assert!(idle_for < Duration::from_secs(15), "closed only after {idle_for:?}");
    assert_eq!(http_call(server.local_addr(), "GET", "/healthz", &[]).unwrap().status, 200);
}

#[test]
fn shutdown_does_not_wait_for_idle_connections_but_answers_requests_in_flight() {
    let config = ServerConfig { drain_timeout: Duration::from_secs(20), ..ServerConfig::default() };
    let mut server = start_server_with_config(config);
    let addr = server.local_addr();
    let mut idle = Wire::connect(addr);
    idle.send(b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(idle.reply().status, 200);

    let in_flight = std::thread::spawn(move || {
        let graph = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();
        http_call(addr, "POST", "/optimize", graph.to_json().as_bytes())
    });
    std::thread::sleep(Duration::from_millis(5));
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown waited {:?} with only an idle connection and one request open",
        started.elapsed()
    );
    assert!(idle.closed_silently_within(Duration::from_secs(5)));
    // Refused at the socket is fine; accepted means answered, in full.
    if let Ok(reply) = in_flight.join().unwrap() {
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        JsonValue::parse(&reply.body).expect("response truncated by shutdown");
    }
}

#[test]
fn idle_connections_cannot_starve_a_new_client() {
    let server = start_server();
    let addr = server.local_addr();
    // More persistent connections than any pool has workers (64 at most),
    // opened one at a time: once every worker is parked on an idle one,
    // each further connection waits for a worker to give its idle one up.
    let mut idle = Vec::new();
    for _ in 0..80 {
        let mut wire = Wire::connect(addr);
        wire.send(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(wire.reply().status, 200);
        idle.push(wire);
    }
    let started = Instant::now();
    assert_eq!(http_call(addr, "GET", "/healthz", &[]).unwrap().status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a new client waited {:?} behind idle connections",
        started.elapsed()
    );
}

#[test]
fn a_full_pool_sheds_with_503_and_recovers() {
    let server = start_server();
    let addr = server.local_addr();
    let shed_before = counter(&server, "serve/shed");
    // Clients that stall mid-head wedge one worker each, then fill the
    // queue; the pool is sized from the CPU count, so keep going until the
    // server refuses one (5 x 64 connections at the very most).
    let mut stalled = Vec::new();
    let mut refusal = None;
    for _ in 0..400 {
        let mut wire = Wire::connect(addr);
        wire.send(b"GET /hea");
        wire.stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        if let Some(reply) = wire.try_reply() {
            refusal = Some(reply);
            break;
        }
        stalled.push(wire);
    }
    let refusal = refusal.expect("the server never shed a connection");
    assert_eq!(refusal.status, 503, "body: {}", refusal.body);
    assert!(refusal.head.contains("\r\nRetry-After: "), "head: {}", refusal.head);
    assert!(refusal.closes());
    assert!(counter(&server, "serve/shed") >= shed_before + 1.0);
    assert!(stalled.len() >= 4 + 16, "shed with only {} connections open", stalled.len());

    // The stalled clients go away; the server answers normally again.
    drop(stalled);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match http_call(addr, "GET", "/healthz", &[]) {
            Ok(reply) if reply.status == 200 => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("the server did not recover: {other:?}"),
        }
    }
}

#[test]
fn a_panicking_leader_is_a_caught_500_and_the_server_keeps_serving() {
    use xrlflow_core::fault::{FaultPhase, FaultPlan};

    let server = start_server();
    let addr = server.local_addr();
    let graph = relu_chain(37);
    let errors_before = counter(&server, "serve/http_5xx");
    let guard = FaultPlan::new().panic_on(FaultPhase::Serve, graph.canonical_hash(), 0).install();
    let mut wire = Wire::connect(addr);
    wire.post("/optimize", &graph.to_json());
    let reply = wire.reply();
    drop(guard);
    assert_eq!(reply.status, 500, "body: {}", reply.body);
    assert!(reply.closes(), "a server fault ends the connection");
    assert!(counter(&server, "serve/http_5xx") >= errors_before + 1.0);

    // The worker survived its handler's panic, the flight was cleared and
    // nothing was cached: the retry runs a fresh episode.
    let retry = http_call(addr, "POST", "/optimize", graph.to_json().as_bytes()).unwrap();
    assert_eq!(retry.status, 200, "body: {}", retry.body);
    assert_eq!(
        JsonValue::parse(&retry.body).unwrap().get("cache_hit").and_then(JsonValue::as_bool),
        Some(false)
    );
}
