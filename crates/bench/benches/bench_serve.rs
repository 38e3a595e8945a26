//! Serving-layer benchmark: graph ingestion cost, cold-miss vs warm
//! cache-hit request latency, sustained requests/sec against a warm cache,
//! and the cache-hit ratio of a mixed request stream.
//!
//! The service under test is a frozen snapshot replica behind the
//! canonical-hash result cache — the production configuration described in
//! ROADMAP's "Serving dataflow". Cold misses pay one greedy policy episode;
//! warm hits of a byte-identical body pay a digest, a byte comparison and a
//! map lookup, so the hit/miss ratio is the headline number a deployment
//! cares about.
//!
//! Knobs: `XRLFLOW_ITERS` (timed repetitions), `XRLFLOW_MAX_CANDIDATES`
//! (action-space bound), `XRLFLOW_SERVE_REQUESTS` (requests per timed
//! batch), `XRLFLOW_BENCH_JSON` (result artifact path).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use xrlflow_bench::{env_usize, finish, iters_from_env, report, report_rate, report_ratio, time_ns};
use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::Graph;
use xrlflow_serve::{http_call, CacheConfig, CacheEntry, OptimizeServer, OptimizeService, ResultCache};

fn main() {
    let iters = iters_from_env(3);
    let requests = env_usize("XRLFLOW_SERVE_REQUESTS", 64);

    let mut config = XrlflowConfig::bench();
    config.env.max_candidates = env_usize("XRLFLOW_MAX_CANDIDATES", config.env.max_candidates);

    let snapshot = XrlflowAgent::new(&config, 0).snapshot();
    let kinds = [ModelKind::SqueezeNet, ModelKind::Bert];
    let graphs: Vec<Graph> = kinds.iter().map(|&k| build_model(k, ModelScale::Bench).unwrap()).collect();
    let bodies: Vec<String> = graphs.iter().map(Graph::to_json).collect();

    println!("== optimisation service ({requests} requests/batch) ==\n");

    // Ingestion: JSON import (parse + full validation) of a request body.
    for (kind, body) in kinds.iter().zip(&bodies) {
        let ns = time_ns(1, iters, || Graph::from_json(body).unwrap().num_nodes());
        report(&format!("serve/import_json/{}", kind.name()), ns);
    }

    // Cold miss vs warm hit on one graph. A fresh service per iteration
    // keeps every "cold" measurement genuinely cold.
    let cold_ns = time_ns(0, iters, || {
        let service = OptimizeService::from_snapshot(&config, &snapshot).unwrap();
        service.optimize_json(&bodies[0]).unwrap().steps
    });
    report("serve/request_cold_miss/SqueezeNet", cold_ns);

    let warm_service = Arc::new(OptimizeService::from_snapshot(&config, &snapshot).unwrap());
    for body in &bodies {
        warm_service.optimize_json(body).unwrap();
    }
    let warm_ns = time_ns(1, iters, || warm_service.optimize_json(&bodies[0]).unwrap().steps);
    report("serve/request_warm_hit/SqueezeNet", warm_ns);
    report_ratio("serve/cold_over_warm/SqueezeNet", cold_ns / warm_ns.max(1.0));

    // Sustained throughput over a mixed stream of known graphs (all warm).
    let stream_ns = time_ns(1, iters, || {
        let mut steps = 0;
        for i in 0..requests {
            steps += warm_service.optimize_json(&bodies[i % bodies.len()]).unwrap().steps;
        }
        steps
    });
    report_rate("serve/requests_per_sec_warm", requests as f64 / (stream_ns / 1e9));

    // Cache-hit ratio of everything this process sent to the warm service.
    let stats = warm_service.stats();
    report_ratio("serve/cache_hit_ratio", stats.cache_hits as f64 / stats.requests.max(1) as f64);
    println!(
        "   ({} requests, {} hits, {} policy episodes)",
        stats.requests, stats.cache_hits, stats.policy_invocations
    );

    // Cache persistence round trip (save + load of the warm cache).
    let persist_ns = time_ns(1, iters, || {
        let restored = ResultCache::from_json(&warm_service.cache_to_json()).unwrap();
        restored.len()
    });
    report("serve/cache_persist_roundtrip", persist_ns);

    // End-to-end HTTP throughput: the same warm-hit stream, but over a real
    // socket through the blocking front end — first with a connection per
    // request (connect + parse + route + respond: the cost a one-shot
    // caller pays), then over one persistent connection.
    let server = OptimizeServer::bind(Arc::clone(&warm_service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let http_ns = time_ns(1, iters, || {
        let mut hits = 0;
        for i in 0..requests {
            let reply = http_call(addr, "POST", "/optimize", bodies[i % bodies.len()].as_bytes()).unwrap();
            assert_eq!(reply.status, 200);
            hits += reply.body.len();
        }
        hits
    });
    report_rate("serve/http_requests_per_sec_warm", requests as f64 / (http_ns / 1e9));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reply = Vec::new();
    let keepalive_ns = time_ns(1, iters, || {
        let mut bytes = 0;
        for i in 0..requests {
            bytes += keepalive_post(&mut stream, &bodies[i % bodies.len()], &mut reply);
        }
        bytes
    });
    report_rate("serve/http_requests_per_sec_warm_keepalive", requests as f64 / (keepalive_ns / 1e9));
    drop(server);

    // Eviction on vs off: raw cache insert throughput with no budget versus
    // a budget small enough that nearly every insert also evicts (the LRU
    // index bookkeeping is the difference being measured).
    let inserts = 1024usize;
    let entry_graph = Arc::new(graphs[0].clone());
    let make_entry = || CacheEntry {
        graph: Arc::clone(&entry_graph),
        initial_latency_ms: 1.0,
        final_latency_ms: 0.5,
        steps: 3,
    };
    let unbounded_ns = time_ns(1, iters, || {
        let mut cache = ResultCache::new();
        for key in 0..inserts as u64 {
            cache.insert(key, make_entry());
        }
        cache.len()
    });
    report_rate("serve/cache_inserts_per_sec_unbounded", inserts as f64 / (unbounded_ns / 1e9));
    let budget = CacheConfig::builder().max_entries(inserts / 8).build().unwrap();
    let evicting_ns = time_ns(1, iters, || {
        let mut cache = ResultCache::with_config(budget);
        for key in 0..inserts as u64 {
            cache.insert(key, make_entry());
        }
        cache.len()
    });
    report_rate("serve/cache_inserts_per_sec_evicting", inserts as f64 / (evicting_ns / 1e9));
    report_ratio("serve/eviction_overhead", evicting_ns / unbounded_ns.max(1.0));

    finish("bench_serve");
}

/// One `POST /optimize` on an open connection: request in one write, reply
/// read by `Content-Length` into `reply`. Returns the reply's body length.
fn keepalive_post(stream: &mut TcpStream, body: &str, reply: &mut Vec<u8>) -> usize {
    let request = format!("POST /optimize HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    stream.write_all(request.as_bytes()).unwrap();
    reply.clear();
    let mut chunk = [0u8; 64 * 1024];
    let head_end = loop {
        if let Some(pos) = reply.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the server closed a persistent connection");
        reply.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&reply[..head_end]).unwrap();
    assert!(head.starts_with("HTTP/1.1 200 "), "reply: {head}");
    let length: usize =
        head.split("\r\n").find_map(|line| line.strip_prefix("Content-Length: ")).unwrap().parse().unwrap();
    while reply.len() < head_end + 4 + length {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the server closed mid-reply");
        reply.extend_from_slice(&chunk[..n]);
    }
    length
}
