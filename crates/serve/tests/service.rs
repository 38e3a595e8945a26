//! End-to-end tests of the optimisation service: cache hits bypass the
//! policy, persisted caches survive a restart, the boundary returns typed
//! errors, the service is usable from multiple request threads, and the body
//! index serves byte-identical repeats without changing any answer.

use std::sync::Arc;

use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::{Graph, JsonValue, OpAttributes, OpKind, TensorShape};
use xrlflow_serve::{
    http_call, CacheConfig, CacheEntry, OptimizeResponse, OptimizeServer, OptimizeService, ServeError,
};

fn service() -> OptimizeService {
    let config = XrlflowConfig::smoke_test();
    let snapshot = XrlflowAgent::new(&config, 7).snapshot();
    OptimizeService::from_snapshot(&config, &snapshot).unwrap()
}

fn zoo_graph() -> Graph {
    build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap()
}

#[test]
fn repeat_requests_hit_the_cache_without_running_the_policy() {
    let service = service();
    let graph = zoo_graph();
    let first = service.optimize(&graph).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(service.stats().policy_invocations, 1);

    // Same graph again: cache hit, and the policy invocation counter is
    // the proof no episode ran.
    let second = service.optimize(&graph).unwrap();
    assert!(second.cache_hit);
    assert_eq!(service.stats().policy_invocations, 1, "cache hit must not run the policy");
    assert_eq!(second.graph.canonical_hash(), first.graph.canonical_hash());
    assert_eq!(second.final_latency_ms, first.final_latency_ms);
    assert_eq!(second.steps, first.steps);

    // A structurally identical graph arriving as JSON (different route,
    // same canonical hash) also hits.
    let third = service.optimize_json(&graph.to_json()).unwrap();
    assert!(third.cache_hit);
    assert_eq!(
        service.stats(),
        xrlflow_serve::ServeStats { requests: 3, cache_hits: 2, policy_invocations: 1, coalesced: 0 }
    );
}

#[test]
fn distinct_graphs_get_distinct_entries() {
    let service = service();
    service.optimize(&zoo_graph()).unwrap();
    let other = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
    let response = service.optimize(&other).unwrap();
    assert!(!response.cache_hit);
    assert_eq!(service.cache_len(), 2);
    assert_eq!(service.stats().policy_invocations, 2);
}

#[test]
fn persisted_cache_survives_a_service_restart() {
    let path = std::env::temp_dir().join("xrlflow-serve-restart-test.json");
    let graph = zoo_graph();

    let first = {
        let service = service();
        let first = service.optimize(&graph).unwrap();
        service.save_cache(&path).unwrap();
        first
    };

    // A brand-new service instance (fresh policy replica, empty cache)
    // reloads the snapshot and answers the repeat request without a single
    // policy invocation.
    let restarted = service();
    restarted.load_cache(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let replay = restarted.optimize(&graph).unwrap();
    assert!(replay.cache_hit);
    assert_eq!(restarted.stats().policy_invocations, 0, "warm restart must not run the policy");
    assert_eq!(replay.graph.canonical_hash(), first.graph.canonical_hash());
    assert_eq!(replay.final_latency_ms, first.final_latency_ms);
    assert_eq!(replay.steps, first.steps);
}

#[test]
fn optimised_graphs_are_valid_and_reported_latencies_positive() {
    let service = service();
    let response = service.optimize(&zoo_graph()).unwrap();
    assert!(response.graph.validate().is_ok());
    assert!(response.initial_latency_ms > 0.0);
    assert!(response.final_latency_ms > 0.0);
}

#[test]
fn malformed_requests_are_typed_errors_not_panics() {
    let service = service();
    for body in ["", "not json", "{\"format\": \"xrlflow-graph\"}", "[1, 2, 3]"] {
        match service.optimize_json(body) {
            Err(ServeError::Graph(_)) => {}
            other => panic!("expected a graph error for {body:?}, got {other:?}"),
        }
    }
    // Semantically invalid but well-formed JSON too.
    let cyclic = r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
        {"op": "Relu", "inputs": [[1, 0]], "outputs": [[1]]},
        {"op": "Relu", "inputs": [[0, 0]], "outputs": [[1]]}], "outputs": [[1, 0]]}"#;
    assert!(matches!(service.optimize_json(cyclic), Err(ServeError::Graph(_))));
    // Failed requests are not counted and nothing was cached.
    assert_eq!(service.stats().requests, 0);
    assert_eq!(service.cache_len(), 0);
}

#[test]
fn mismatched_snapshot_is_rejected_at_construction() {
    // Snapshot taken from a wider architecture than the config describes.
    let big = XrlflowConfig::bench();
    let snapshot = XrlflowAgent::new(&big, 0).snapshot();
    let small = XrlflowConfig::smoke_test();
    match OptimizeService::from_snapshot(&small, &snapshot) {
        Err(ServeError::Snapshot(_)) => {}
        other => panic!("expected a snapshot error, got {:?}", other.map(|_| "service")),
    }
}

#[test]
fn degenerate_config_is_rejected_at_construction() {
    let mut config = XrlflowConfig::smoke_test();
    config.training_episodes = 0;
    let snapshot = XrlflowAgent::new(&XrlflowConfig::smoke_test(), 0).snapshot();
    assert!(matches!(OptimizeService::from_snapshot(&config, &snapshot), Err(ServeError::Config(_))));
    assert!(matches!(OptimizeService::untrained(&config, 0), Err(ServeError::Config(_))));
}

#[test]
fn concurrent_requests_share_the_cache() {
    let service = Arc::new(service());
    let graph = Arc::new(zoo_graph());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let service = Arc::clone(&service);
            let graph = Arc::clone(&graph);
            scope.spawn(move || {
                let a = service.optimize(&graph).unwrap();
                let b = service.optimize(&graph).unwrap();
                assert!(b.cache_hit);
                assert_eq!(a.final_latency_ms, b.final_latency_ms);
            });
        }
    });
    // Single-flight admission: however the eight requests interleaved,
    // exactly one greedy episode ran; every other request was a cache hit
    // (possibly a coalesced one that waited for the leader).
    assert_eq!(service.cache_len(), 1);
    let after = service.optimize(&graph).unwrap();
    assert!(after.cache_hit);
    let stats = service.stats();
    assert_eq!(stats.requests, 9);
    assert_eq!(stats.policy_invocations, 1, "racing misses must coalesce into one episode");
    assert_eq!(stats.cache_hits + stats.policy_invocations, stats.requests);
}

#[test]
fn racing_identical_misses_run_exactly_one_episode() {
    // The dedicated single-flight race: N threads released simultaneously
    // against a cold cache with the *same* graph. Without single-flight
    // admission each would run its own greedy episode; with it the first
    // leads and the rest wait on the flight and are served as coalesced
    // cache hits.
    const RACERS: usize = 8;
    let service = Arc::new(service());
    let graph = Arc::new(zoo_graph());
    let barrier = Arc::new(std::sync::Barrier::new(RACERS));
    std::thread::scope(|scope| {
        for _ in 0..RACERS {
            let service = Arc::clone(&service);
            let graph = Arc::clone(&graph);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                let response = service.optimize(&graph).unwrap();
                assert!(response.final_latency_ms > 0.0);
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.requests, RACERS);
    assert_eq!(stats.policy_invocations, 1, "N racing identical misses must cost exactly one episode");
    assert_eq!(stats.cache_hits, RACERS - 1);
    assert!(stats.coalesced <= stats.cache_hits);
    assert_eq!(service.cache_len(), 1);
}

#[test]
fn hot_swap_replaces_the_policy_and_rejects_mismatches() {
    let config = XrlflowConfig::smoke_test();
    let service = service();
    let graph = zoo_graph();
    let before = service.optimize(&graph).unwrap();

    // A mismatched checkpoint (different architecture) is rejected and the
    // old policy keeps serving.
    let wrong = XrlflowAgent::new(&XrlflowConfig::bench(), 0).snapshot();
    assert!(matches!(service.swap_snapshot(&wrong), Err(ServeError::Snapshot(_))));
    assert!(service.optimize(&graph).unwrap().cache_hit, "rejected swap must leave the service serving");

    // A compatible checkpoint swaps in. The cache deliberately survives…
    let retrained = XrlflowAgent::new(&config, 99).snapshot();
    service.swap_snapshot(&retrained).unwrap();
    assert!(service.optimize(&graph).unwrap().cache_hit, "the result cache survives a swap");
    assert_eq!(service.stats().policy_invocations, 1);

    // …until cleared, after which the *new* policy re-optimises. Same
    // graph, same deterministic seeding per key, but a different policy may
    // choose a different rewrite sequence — all we assert is that an
    // episode ran and produced a valid result.
    service.clear_cache();
    let after = service.optimize(&graph).unwrap();
    assert!(!after.cache_hit);
    assert_eq!(service.stats().policy_invocations, 2);
    assert!(after.graph.validate().is_ok());
    assert_eq!(after.initial_latency_ms, before.initial_latency_ms);
}

#[test]
fn stats_snapshots_are_never_torn_under_concurrent_readers() {
    // Writers hammer the (warm) cache while readers poll stats(); every
    // snapshot a reader observes must satisfy
    // requests == cache_hits + policy_invocations. With the three counters
    // updated as independent atomics this test catches the torn trio (a
    // reader could land between the `requests` bump and the outcome bump);
    // the single-lock snapshot makes it impossible.
    let service = Arc::new(service());
    let graph = Arc::new(zoo_graph());
    service.optimize(&graph).unwrap(); // warm the cache so writer requests are fast hits
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let stats = service.stats();
                    assert_eq!(
                        stats.cache_hits + stats.policy_invocations,
                        stats.requests,
                        "torn stats snapshot observed: {stats:?}"
                    );
                }
            });
        }
        for _ in 0..2 {
            let service = Arc::clone(&service);
            let graph = Arc::clone(&graph);
            scope.spawn(move || {
                for _ in 0..300 {
                    assert!(service.optimize(&graph).unwrap().cache_hit);
                }
            });
        }
        // Writers joined by scope exit order: flag the readers down once
        // the writer handles finish. Spawn a small supervisor for that.
        let service = Arc::clone(&service);
        let done = Arc::clone(&done);
        scope.spawn(move || {
            while service.stats().requests < 601 {
                std::thread::yield_now();
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    });
    let stats = service.stats();
    assert_eq!(stats.requests, 601);
    assert_eq!(stats.cache_hits + stats.policy_invocations, stats.requests);
}

#[test]
fn metrics_json_exposes_serve_counters_and_latency_histogram() {
    let service = service();
    let graph = zoo_graph();
    service.optimize(&graph).unwrap();
    service.optimize(&graph).unwrap();
    let parsed = xrlflow_graph::JsonValue::parse(&service.metrics_json()).expect("metrics JSON must parse");
    assert_eq!(parsed.get("format").and_then(xrlflow_graph::JsonValue::as_str), Some("xrlflow-metrics"));
    let counters = parsed.get("counters").expect("counters object");
    let counter = |name: &str| counters.get(name).and_then(xrlflow_graph::JsonValue::as_f64).unwrap_or(0.0);
    // The registry is process-wide and other tests in this binary also
    // serve requests, so assert lower bounds, not exact counts.
    assert!(counter("serve/requests") >= 2.0);
    assert!(counter("serve/cache_hit") >= 1.0);
    assert!(counter("serve/policy_invocation") >= 1.0);
    let hist = parsed
        .get("histograms")
        .and_then(|h| h.get("serve/request"))
        .expect("serve/request latency histogram");
    assert!(hist.get("count").and_then(xrlflow_graph::JsonValue::as_f64).unwrap() >= 2.0);
    let buckets = hist.get("buckets").and_then(xrlflow_graph::JsonValue::as_array).unwrap();
    assert!(!buckets.is_empty(), "latency histogram must have non-empty buckets");
}

#[test]
fn hand_built_graphs_serve_like_zoo_graphs() {
    let service = service();
    let mut g = Graph::new();
    let x = g.add_input(TensorShape::new(vec![1, 3, 16, 16]));
    let w = g.add_weight(TensorShape::new(vec![8, 3, 3, 3]));
    let conv = g
        .add_node(
            OpKind::Conv2d,
            OpAttributes::conv2d([3, 3], [1, 1], xrlflow_graph::Padding::Same, 1),
            vec![x.into(), w.into()],
        )
        .unwrap();
    let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![conv.into()]).unwrap();
    g.mark_output(relu.into());
    let response = service.optimize_json(&g.to_json()).unwrap();
    assert!(response.graph.validate().is_ok());
    assert!(service.optimize(&g).unwrap().cache_hit);
}

#[test]
fn a_panicking_leader_clears_its_flight_and_the_service_survives() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use xrlflow_core::fault::{FaultPhase, FaultPlan};

    let service = service();
    let graph = zoo_graph();
    let key = graph.canonical_hash();

    // Kill the single-flight leader mid-episode via the deterministic
    // fault hook (serve trips on the graph's canonical hash).
    let guard = FaultPlan::new().panic_on(FaultPhase::Serve, key, 0).install();
    let result = catch_unwind(AssertUnwindSafe(|| service.optimize(&graph)));
    assert!(result.is_err(), "the injected fault must unwind the leader");
    drop(guard);

    // The flight was cleared by the leader's guard and no lock was
    // poisoned: the retry runs a fresh episode and succeeds.
    let response = service.optimize(&graph).unwrap();
    assert!(!response.cache_hit, "the failed leader must not have published a result");
    let stats = service.stats();
    assert_eq!(stats.cache_hits + stats.policy_invocations, stats.requests);
}

/// A Relu chain of `len` nodes: a distinct, cheap-to-optimise graph per length.
fn relu_chain(len: usize) -> Graph {
    let mut g = Graph::new();
    let mut last: xrlflow_graph::TensorRef = g.add_input(TensorShape::new(vec![1, 8])).into();
    for _ in 0..len {
        last = g.add_node(OpKind::Relu, OpAttributes::default(), vec![last]).unwrap().into();
    }
    g.mark_output(last);
    g
}

/// The same document with different whitespace: other bytes, same graph.
fn respaced(text: &str) -> String {
    format!("\n  {}\n", text.replace(", ", ",\n "))
}

/// The structural (memo-free) cache footprint of a response's entry.
fn structural_bytes(response: &OptimizeResponse) -> usize {
    CacheEntry {
        graph: Arc::clone(&response.graph),
        initial_latency_ms: response.initial_latency_ms,
        final_latency_ms: response.final_latency_ms,
        steps: response.steps,
    }
    .approx_bytes()
}

fn body_index_hits(service: &OptimizeService) -> f64 {
    let metrics = JsonValue::parse(&service.metrics_json()).unwrap();
    metrics.get("counters").unwrap().get("serve/body_index_hits").and_then(JsonValue::as_f64).unwrap_or(0.0)
}

#[test]
fn fast_hit_http_bodies_equal_slow_path_hit_bodies_for_every_zoo_graph() {
    let server = OptimizeServer::bind(Arc::new(service()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let post = |text: &str| {
        let reply = http_call(addr, "POST", "/optimize", text.as_bytes()).unwrap();
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        reply.body
    };
    let kinds = ModelKind::EVALUATED.iter().copied().chain([ModelKind::ResNet18]);
    for kind in kinds {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let (text, other) = (graph.to_json(), respaced(&graph.to_json()));
        let index_hits_before = body_index_hits(server.service());
        let miss = post(&text);
        // The first repeat of `text` is already an indexed hit (the miss
        // attached it); the first `other` goes the slow way through the
        // canonical hash and takes the memo over, so `text` is slow again.
        let hits = [post(&text), post(&other), post(&other), post(&text), post(&text)];
        assert!(body_index_hits(server.service()) >= index_hits_before + 3.0);

        // What the pre-index handler rendered for a hit, field for field.
        let response = server.service().optimize(&graph).unwrap();
        let expected = JsonValue::Object(vec![
            ("graph".to_string(), response.graph.to_json_value()),
            ("initial_latency_ms".to_string(), JsonValue::Number(response.initial_latency_ms)),
            ("final_latency_ms".to_string(), JsonValue::Number(response.final_latency_ms)),
            ("steps".to_string(), JsonValue::Number(response.steps as f64)),
            ("cache_hit".to_string(), JsonValue::Bool(true)),
            ("speedup_percent".to_string(), JsonValue::Number(response.speedup_percent())),
        ])
        .to_json();
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(*hit, expected, "{}: hit {i} differs from the rendered hit document", kind.name());
        }
        assert_eq!(miss, expected.replace("\"cache_hit\": true", "\"cache_hit\": false"));
    }
    let stats = server.service().stats();
    assert_eq!(stats.policy_invocations, 8, "one episode per zoo graph");
    assert_eq!(stats.requests, stats.cache_hits + stats.policy_invocations);
}

#[test]
fn a_reexported_graph_hits_through_the_canonical_hash_and_the_memo_follows_the_newer_text() {
    let service = service();
    // The same three nodes as another exporter writes them: named.
    let chain = |named: bool| {
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![1, 8]));
        let mut last: xrlflow_graph::TensorRef = x.into();
        for (name, op) in [("act", OpKind::Relu), ("squash", OpKind::Tanh)] {
            let node = if named {
                g.add_named_node(name, op, OpAttributes::default(), vec![last])
            } else {
                g.add_node(op, OpAttributes::default(), vec![last])
            };
            last = node.unwrap().into();
        }
        g.mark_output(last);
        g
    };
    let (first, renamed) = (chain(false).to_json(), chain(true).to_json());
    assert_ne!(first, renamed);
    assert_eq!(chain(false).canonical_hash(), chain(true).canonical_hash());

    let miss = service.optimize_json(&first).unwrap();
    assert!(!miss.cache_hit);
    let structural = structural_bytes(&miss);
    assert_eq!(service.cache_bytes(), structural + first.len());
    for text in [&renamed, &respaced(&first), &first] {
        let hit = service.optimize_json(text).unwrap();
        assert!(hit.cache_hit, "every spelling of the graph is the same entry");
        assert!(Arc::ptr_eq(&hit.graph, &miss.graph));
        assert_eq!(service.cache_bytes(), structural + text.len(), "one memo, the latest text");
    }
    assert_eq!(service.cache_len(), 1);
    assert_eq!(service.stats().policy_invocations, 1);
}

#[test]
fn an_evicted_entry_leaves_no_memo_and_its_bytes_are_a_miss_again() {
    let service = service();
    service.set_cache_config(CacheConfig::builder().max_entries(1).build().unwrap());
    let (a, b) = (relu_chain(2).to_json(), relu_chain(3).to_json());
    assert!(!service.optimize_json(&a).unwrap().cache_hit);
    assert!(service.optimize_json(&a).unwrap().cache_hit);
    let b_response = service.optimize_json(&b).unwrap();
    assert!(!b_response.cache_hit);
    assert_eq!(service.cache_len(), 1);
    assert_eq!(service.cache_bytes(), structural_bytes(&b_response) + b.len(), "a's memo went with a");
    assert!(!service.optimize_json(&a).unwrap().cache_hit, "the same bytes, after eviction: a miss");
    assert_eq!(service.stats().policy_invocations, 3);
}

#[test]
fn indexed_hits_refresh_recency() {
    let service = service();
    service.set_cache_config(CacheConfig::builder().max_entries(2).build().unwrap());
    let [a, b, c] = [2, 3, 4].map(|len| relu_chain(len).to_json());
    for text in [&a, &b] {
        service.optimize_json(text).unwrap();
    }
    let index_hits_before = body_index_hits(&service);
    assert!(service.optimize_json(&a).unwrap().cache_hit);
    assert!(body_index_hits(&service) > index_hits_before);
    // `a` is older than `b` by insertion but was just served: `b` goes.
    service.optimize_json(&c).unwrap();
    assert!(service.optimize_json(&a).unwrap().cache_hit, "a served entry outlives a colder one");
    assert!(!service.optimize_json(&b).unwrap().cache_hit);
}

#[test]
fn memos_never_push_the_service_cache_over_its_byte_budget() {
    let text = zoo_graph().to_json();
    let structural = structural_bytes(&service().optimize_json(&text).unwrap());
    // Room for the entry and half its request text.
    let budget = structural + text.len() / 2;
    let service = service();
    service.set_cache_config(CacheConfig::builder().max_bytes(budget).build().unwrap());
    for round in 0..3 {
        let response = service.optimize_json(&text).unwrap();
        assert_eq!(response.cache_hit, round > 0, "an entry without a memo still hits");
        assert_eq!(service.cache_bytes(), structural, "the text does not fit, so it is not attached");
    }
    assert_eq!(service.stats().policy_invocations, 1);
}

#[test]
fn cleared_and_reloaded_caches_carry_no_memo() {
    let path = std::env::temp_dir().join("xrlflow-serve-body-index-test.json");
    let text = zoo_graph().to_json();
    let service = service();
    let miss = service.optimize_json(&text).unwrap();
    let structural = structural_bytes(&miss);
    assert_eq!(service.cache_bytes(), structural + text.len());
    service.save_cache(&path).unwrap();

    // A snapshot holds entries only: the first request after a load hits
    // through the canonical hash, and re-attaches.
    for reloaded in [&service, &self::service()] {
        reloaded.load_cache(&path).unwrap();
        assert_eq!(reloaded.cache_bytes(), structural);
        let invocations = reloaded.stats().policy_invocations;
        assert!(reloaded.optimize_json(&text).unwrap().cache_hit);
        assert_eq!(reloaded.stats().policy_invocations, invocations);
        assert_eq!(reloaded.cache_bytes(), structural + text.len());
    }
    std::fs::remove_file(&path).ok();

    service.clear_cache();
    assert_eq!(service.cache_bytes(), 0);
    assert!(!service.optimize_json(&text).unwrap().cache_hit, "a cleared index serves nothing");
}

#[test]
fn a_body_that_fails_validation_is_never_attached() {
    let service = service();
    let valid = relu_chain(2).to_json();
    let invalid = valid.replace("Relu", "BogusOp");
    for _ in 0..2 {
        assert!(matches!(service.optimize_json(&invalid), Err(ServeError::Graph(_))));
        assert_eq!(service.cache_bytes(), 0);
    }
    service.optimize_json(&valid).unwrap();
    let bytes = service.cache_bytes();
    assert!(service.optimize_json(&invalid).is_err(), "still rejected beside a valid entry");
    assert_eq!(service.cache_bytes(), bytes);
    assert_eq!(service.stats().requests, 1, "rejected bodies are not requests");
}

#[test]
fn the_request_ledger_adds_up_across_indexed_hits_slow_hits_and_misses() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;
    let service = Arc::new(service());
    service.set_cache_config(CacheConfig::builder().max_entries(3).build().unwrap());
    // Five graphs in two spellings each against three entries: every
    // thread sees indexed hits, hits through the canonical hash and misses.
    let texts: Vec<String> = (1..=5)
        .flat_map(|len| {
            let text = relu_chain(len).to_json();
            [respaced(&text), text]
        })
        .collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, texts) = (Arc::clone(&service), &texts);
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let text = &texts[(i * (t + 1) + i / 3) % texts.len()];
                    let response = service.optimize_json(text).unwrap();
                    assert!(response.final_latency_ms > 0.0);
                    let stats = service.stats();
                    assert_eq!(stats.requests, stats.cache_hits + stats.policy_invocations);
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.requests, THREADS * ROUNDS);
    assert_eq!(stats.requests, stats.cache_hits + stats.policy_invocations);
    assert!(stats.policy_invocations >= 5 && stats.cache_hits > 0);
    assert!(service.cache_len() <= 3);
}
