//! The traced run of the serve layers.
//!
//! Three parts, all timed from this package (no span is added inside any
//! crate): a socket phase that splits request latency by `cache_hit`; a
//! probe of sixteen bodies no workload contains, so the hit path and the
//! miss path are both measured whatever the workload; and a **shadow
//! pipeline** that replays, with a span around each call, the exact
//! public-call sequence of `OptimizeService::optimize_json` and of the HTTP
//! handler's response writer — then asks the real service the same question
//! and compares the answers.

use std::sync::Arc;
use std::time::Instant;

use xrlflow::core::{XrlflowAgent, XrlflowConfig};
use xrlflow::cost::{DeviceProfile, InferenceSimulator};
use xrlflow::graph::{Graph, JsonValue};
use xrlflow::rewrite::RuleSet;
use xrlflow::serve::{CacheEntry, ResultCache};
use xrlflow::tensor::{ParamSnapshot, XorShiftRng};

use crate::client::HttpClient;
use crate::ledger::{replay, traced_episode, Ledger, StepCounts, World};
use crate::machine::Machine;
use crate::report::{number, Outcome};
use crate::serve::{
    check, check_ledger, check_policy_works, drive, scan_response, serve_snapshot, set_up, Served,
};
use crate::stats::{mean, percentile_or_zero};
use crate::trace::{SpanId, Tracer};
use crate::train_trace::{trace_rounds, RoundsPlan};
use crate::workload::{probe_bodies, RequestBody, Workload};

/// Times each probe body is requested again after its first (miss) request.
const PROBE_HIT_ROUNDS: usize = 4;

/// The benchmark's mirror of `OptimizeService`: the same parts, owned here
/// so that every call into them can carry a span.
struct Shadow {
    agent: XrlflowAgent,
    rules: Arc<RuleSet>,
    simulator: Arc<InferenceSimulator>,
    cache: ResultCache,
}

/// What the shadow answered, and where its spans are.
struct ShadowReply {
    request: SpanId,
    export_ns: u64,
    hit: bool,
    result_hash: u64,
    initial_latency_ms: f64,
    final_latency_ms: f64,
    steps: usize,
}

impl Shadow {
    /// A shadow of `served`'s service, its cache a copy of the service's.
    fn of(served: &Served) -> Self {
        Self {
            agent: XrlflowAgent::from_snapshot(&served.config, &served.snapshot)
                .expect("snapshot matches its config"),
            rules: Arc::new(RuleSet::standard()),
            simulator: Arc::new(InferenceSimulator::new(DeviceProfile::default())),
            cache: ResultCache::from_json_with_config(&served.service.cache_to_json(), served.cache_config)
                .expect("the service's own cache snapshot loads"),
        }
    }

    /// `optimize_json` + the handler's response writer, call by call.
    fn request(
        &mut self,
        tracer: &mut Tracer,
        served: &Served,
        body: &str,
        op_id: u64,
        counts: &mut StepCounts,
    ) -> ShadowReply {
        let request = tracer.begin("serve.request", op_id);
        let graph =
            tracer.time("graph.import", op_id, || Graph::from_json(body)).expect("generated bodies import");
        let key = tracer.time("graph.hash", op_id, || graph.canonical_hash());
        let cached = tracer.time("serve.cache_get", op_id, || self.cache.get(key).cloned());
        let hit = cached.is_some();
        let mut trail = None;
        let entry = cached.unwrap_or_else(|| {
            let world = World {
                agent: &self.agent,
                rules: &self.rules,
                simulator: &self.simulator,
                config: &served.config,
            };
            let mut rng = XorShiftRng::new(key);
            let (result, episode_trail) =
                traced_episode(tracer, &world, Arc::new(graph), &mut rng, true, 0, op_id);
            trail = Some(episode_trail);
            let entry = CacheEntry {
                graph: Arc::new(result.graph),
                initial_latency_ms: result.initial_latency_ms,
                final_latency_ms: result.final_latency_ms,
                steps: result.steps,
            };
            tracer.time("serve.cache_insert", op_id, || self.cache.insert(key, entry.clone()));
            entry
        });
        let export = tracer.begin("graph.export", op_id);
        let speedup = (entry.initial_latency_ms / entry.final_latency_ms - 1.0) * 100.0;
        let response = JsonValue::Object(vec![
            ("graph".to_string(), entry.graph.to_json_value()),
            ("initial_latency_ms".to_string(), JsonValue::Number(entry.initial_latency_ms)),
            ("final_latency_ms".to_string(), JsonValue::Number(entry.final_latency_ms)),
            ("steps".to_string(), JsonValue::Number(entry.steps as f64)),
            ("cache_hit".to_string(), JsonValue::Bool(hit)),
            ("speedup_percent".to_string(), JsonValue::Number(speedup)),
        ])
        .to_json();
        std::hint::black_box(&response);
        tracer.end(export);
        tracer.end(request);

        // Replays run after the request closed, so they do not inflate it.
        if let Some(trail) = trail {
            let world = World {
                agent: &self.agent,
                rules: &self.rules,
                simulator: &self.simulator,
                config: &served.config,
            };
            replay(tracer, &world, trail, counts);
        }
        ShadowReply {
            request,
            export_ns: tracer.ns(export),
            hit,
            result_hash: entry.graph.canonical_hash(),
            initial_latency_ms: entry.initial_latency_ms,
            final_latency_ms: entry.final_latency_ms,
            steps: entry.steps,
        }
    }
}

/// One shadow request next to the real service's answer to the same body.
struct Pair {
    request: SpanId,
    shadow_ns: u64,
    inproc_ns: u64,
    hit: bool,
    same_path: bool,
}

/// Sends `body` through the shadow, then through the real service
/// in-process, and compares the two answers.
fn shadow_and_service(
    shadow: &mut Shadow,
    tracer: &mut Tracer,
    served: &Served,
    body: &RequestBody,
    op_id: u64,
    counts: &mut StepCounts,
) -> Option<Pair> {
    let reply = shadow.request(tracer, served, &body.body, op_id, counts);
    let start = Instant::now();
    let response = served.service.optimize_json(&body.body);
    let inproc_ns = start.elapsed().as_nanos() as u64;
    let response = response.ok()?;
    counts.mirror(
        response.graph.canonical_hash() == reply.result_hash
            && response.steps == reply.steps
            && response.initial_latency_ms == reply.initial_latency_ms
            && response.final_latency_ms == reply.final_latency_ms,
    );
    Some(Pair {
        request: reply.request,
        // The service's own timing stops before the response is written.
        shadow_ns: tracer.ns(reply.request) - reply.export_ns,
        inproc_ns,
        hit: response.cache_hit,
        same_path: response.cache_hit == reply.hit,
    })
}

fn p50_or_zero(values: &[f64]) -> f64 {
    percentile_or_zero(values, 0.5)
}

/// The serve part of the ledger: socket phase for `socket_seconds` over the
/// workload's stream, the probe, then the shadow pipeline for
/// `shadow_seconds` over the positions the socket phase did not reach.
pub fn serve_ledger(
    ledger: &mut Ledger,
    workload: Workload,
    served: &Served,
    machine: &mut Machine,
    policy_must_work: bool,
    socket_seconds: f64,
    shadow_seconds: f64,
) {
    let Ledger { outcome, tracer, counts } = ledger;
    // Socket phase: the workload's own traffic, one closed-loop client.
    let stats_before = served.service.stats();
    let evictions = || xrlflow::obs::counter!("serve/cache_evictions").get();
    let evictions_before = evictions();
    let log = drive(served, machine, socket_seconds, usize::MAX);
    let stats = served.service.stats();
    let evicted = evictions() - evictions_before;
    let checked = check(workload, served, &log);
    outcome.attempted += checked.attempted;
    outcome.failed += checked.failed;
    outcome.violations.extend(checked.reasons.iter().cloned());
    check_ledger(served, &checked, outcome);
    if policy_must_work {
        check_policy_works(workload, &checked, outcome);
    }

    let requests = (stats.requests - stats_before.requests).max(1) as f64;
    let mut hit_ms: Vec<f64> = Vec::new();
    let mut miss_ms: Vec<f64> = Vec::new();
    for (sample, fields) in &checked.passed {
        let class = if fields.cache_hit { &mut hit_ms } else { &mut miss_ms };
        class.push(sample.timing.wall_ms());
    }
    let request_bytes: Vec<f64> = checked
        .passed
        .iter()
        .map(|(s, _)| served.stream.bodies[s.body_index as usize].body.len() as f64)
        .collect();

    // Probe: bodies no workload contains, one client, one at a time. Set 0
    // goes over the socket (miss, then hits interleaved with in-process
    // hits of the same bodies); set 1 goes through shadow + service below.
    let mut client = HttpClient::new(served.server.local_addr());
    let mut response = Vec::new();
    let mut probe_socket_hit_us = Vec::new();
    let mut inproc_hit_us = Vec::new();
    let mut inproc_miss_ms = Vec::new();
    let mut socket = |body: &RequestBody, expect_hit: bool, outcome: &mut Outcome| -> Option<f64> {
        outcome.attempted += 1;
        let start = Instant::now();
        let status = client.post("/optimize", body.body.as_bytes(), &mut response).unwrap_or(0);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let fields = if status == 200 { scan_response(&response) } else { None };
        if fields.is_some_and(|f| f.cache_hit == expect_hit) {
            Some(ms)
        } else {
            outcome.failed += 1;
            outcome.violations.push(format!(
                "probe {} @ {}: status {status}, fields {fields:?}",
                body.kind, body.input_size
            ));
            None
        }
    };
    let probes = probe_bodies(0);
    for body in &probes {
        miss_ms.extend(socket(body, false, outcome));
    }
    for _ in 0..PROBE_HIT_ROUNDS {
        for body in &probes {
            if let Some(ms) = socket(body, true, outcome) {
                hit_ms.push(ms);
                probe_socket_hit_us.push(ms * 1e3);
            }
            let start = Instant::now();
            let hit = served.service.optimize_json(&body.body).is_ok_and(|r| r.cache_hit);
            inproc_hit_us.push(start.elapsed().as_secs_f64() * 1e6);
            outcome.check(hit, || format!("probe {}: in-process repeat was not a hit", body.kind));
        }
    }

    let http_overhead_us = p50_or_zero(&probe_socket_hit_us) - p50_or_zero(&inproc_hit_us);

    // Shadow phase: first the second probe set (a miss pair, then hit pairs,
    // in every workload), then the workload's stream from where the socket
    // phase stopped, until the time is up.
    let mut shadow = Shadow::of(served);
    let mut pairs = Vec::new();
    let mut op_id = 0u64;
    let mut pair =
        |body: &RequestBody, outcome: &mut Outcome, tracer: &mut Tracer, counts: &mut StepCounts| {
            outcome.attempted += 1;
            match shadow_and_service(&mut shadow, tracer, served, body, op_id, counts) {
                Some(pair) => pairs.push(pair),
                None => {
                    outcome.failed += 1;
                    outcome
                        .violations
                        .push(format!("shadow {} @ {}: the service refused it", body.kind, body.input_size));
                }
            }
            op_id += 1;
        };
    let probes = probe_bodies(1);
    for _ in 0..=PROBE_HIT_ROUNDS {
        for body in &probes {
            pair(body, outcome, tracer, counts);
        }
    }
    let start = Instant::now();
    let mut position = checked.passed.iter().map(|(s, _)| s.position + 1).max().unwrap_or(0);
    while start.elapsed().as_secs_f64() < shadow_seconds {
        let Some(index) = served.stream.at(position) else { break };
        pair(&served.stream.bodies[index as usize], outcome, tracer, counts);
        position += 1;
    }

    // A request's children are its nested calls (replays hang off the calls).
    let children = tracer.children_ns();
    let mut accounted = Vec::new();
    let mut overhead = Vec::new();
    for pair in pairs.iter().filter(|p| p.same_path) {
        if pair.hit {
            inproc_hit_us.push(pair.inproc_ns as f64 / 1e3);
        } else {
            inproc_miss_ms.push(pair.inproc_ns as f64 / 1e6);
        }
        let export_ns = tracer.ns(pair.request) - pair.shadow_ns;
        accounted.push((children[pair.request] - export_ns) as f64 / pair.inproc_ns as f64);
        overhead.push((pair.shadow_ns as f64 - pair.inproc_ns as f64) / pair.inproc_ns as f64);
    }

    outcome.metric("graph.import_us", tracer.p50("graph.import", 1e3), "us");
    outcome.metric("graph.hash_us", tracer.p50("graph.hash", 1e3), "us");
    outcome.metric("graph.export_us", tracer.p50("graph.export", 1e3), "us");
    outcome.metric("graph.request_bytes", p50_or_zero(&request_bytes), "B");
    outcome.metric("serve.http_overhead_us", http_overhead_us, "us");
    outcome.metric(
        "serve.connects_per_request",
        log.connects as f64 / checked.attempted.max(1) as f64,
        "ratio",
    );
    outcome.metric("serve.inproc_hit_us", p50_or_zero(&inproc_hit_us), "us");
    outcome.metric("serve.inproc_miss_ms", p50_or_zero(&inproc_miss_ms), "ms");
    outcome.metric("serve.cache_get_us", tracer.p50("serve.cache_get", 1e3), "us");
    outcome.metric("serve.cache_insert_us", tracer.p50("serve.cache_insert", 1e3), "us");
    outcome.metric(
        "serve.hit_ratio",
        (stats.cache_hits - stats_before.cache_hits) as f64 / requests,
        "ratio",
    );
    outcome.metric("serve.evictions", evicted as f64, "count");
    outcome.metric("serve.coalesced", (stats.coalesced - stats_before.coalesced) as f64, "count");
    outcome.metric("serve.hit_p50_ms", p50_or_zero(&hit_ms), "ms");
    outcome.metric("serve.hit_p99_ms", percentile_or_zero(&hit_ms, 0.99), "ms");
    outcome.metric("serve.miss_p50_ms", p50_or_zero(&miss_ms), "ms");
    outcome.metric("serve.miss_p99_ms", percentile_or_zero(&miss_ms, 0.99), "ms");
    outcome.metric("serve.accounted_share", p50_or_zero(&accounted), "ratio");
    outcome.metric("trace.overhead_share", p50_or_zero(&overhead), "ratio");
    outcome.detail("socket_requests", number(checked.attempted as f64));
    outcome.detail("shadow_pairs", number(pairs.len() as f64));
    outcome.detail(
        "shadow_same_path_share",
        number(mean(&pairs.iter().map(|p| f64::from(u8::from(p.same_path))).collect::<Vec<_>>())),
    );
}

/// The traced run of a serve workload: the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, machine: &mut Machine) -> Outcome {
    let served = set_up(workload, seed);
    let mut ledger = Ledger::default();

    // The train layers, on the very training that produced the served
    // policy: the same rounds driven call by call must end in the same
    // parameters as the `train_curriculum` call of the set-up.
    trace_rounds(&mut ledger, RoundsPlan::served_policy(&served));

    serve_ledger(&mut ledger, workload, &served, machine, true, seconds / 2.0, seconds / 2.0);
    ledger.finish(&served.config, machine)
}

/// The serve probe of a traced train run: the just-trained agent served on
/// the eight default graphs, briefly, so the serve and graph layers are on
/// the ledger of every workload.
pub fn serve_probe(
    ledger: &mut Ledger,
    machine: &mut Machine,
    seed: u64,
    config: XrlflowConfig,
    snapshot: ParamSnapshot,
) {
    let served = serve_snapshot(Workload::ServeWarm, seed, config, snapshot);
    // However little a seed's training has taught this agent, the probe
    // only times the layers: it does not ask the policy to apply rewrites.
    serve_ledger(ledger, Workload::ServeWarm, &served, machine, false, 1.0, 1.0);
}
