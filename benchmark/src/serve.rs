//! The `serve_*` workloads: one closed-loop client over a real socket against
//! an in-process `OptimizeServer`, with every response checked.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use xrlflow::core::{XrlflowAgent, XrlflowConfig};
use xrlflow::cost::{DeviceProfile, InferenceSimulator};
use xrlflow::graph::models::ModelScale;
use xrlflow::graph::{Graph, JsonValue, OpKind, TensorShape};
use xrlflow::rollout::{Curriculum, ParallelTrainer};
use xrlflow::serve::{CacheConfig, OptimizeServer, OptimizeService, ServerConfig};
use xrlflow::tensor::ParamSnapshot;

use crate::client::HttpClient;
use crate::machine::Machine;
use crate::report::{number, object, peak_rss_mb, Outcome, StealMeter};
use crate::stats::{latency_summary, mean, median, median_slice, rate, Timed};
use crate::workload::{
    request_stream, RequestBody, RequestStream, Workload, CURRICULUM_KINDS, MIXED_CACHE_ENTRIES,
};

/// Trainer and agent seed of the served policy — pinned, so `--seed` moves
/// the generated requests and nothing inside the program under test.
pub const POLICY_SEED: u64 = 42;
/// Episodes per curriculum model the served policy is trained for. An
/// untrained agent picks No-Op after 0–1 steps on half the zoo, which would
/// make a cold miss measure nothing; this briefly trained one runs 10–25.
pub const POLICY_EPISODES_PER_MODEL: usize = 32;
/// A serve set-up (about 1.5 s, most of it policy training) runs this many
/// times per process.
const SETUP_REPEATS: usize = 3;
/// Worker threads of every training call the benchmark makes.
pub const TRAIN_WORKERS: usize = 2;

/// The pinned system configuration of every workload.
pub fn bench_config() -> XrlflowConfig {
    let mut config = XrlflowConfig::bench();
    config.num_workers = TRAIN_WORKERS;
    config
}

/// The three-model curriculum the served policy and `train_zoo` train on.
pub fn zoo_curriculum(config: &XrlflowConfig) -> Curriculum {
    Curriculum::from_model_zoo(
        &CURRICULUM_KINDS,
        ModelScale::Bench,
        DeviceProfile::gtx1080(),
        config.env.clone(),
    )
    .expect("default zoo graphs build")
}

/// Everything set-up produces for a serve workload.
pub struct Served {
    /// The pinned configuration.
    pub config: XrlflowConfig,
    /// The trained policy the service serves.
    pub snapshot: ParamSnapshot,
    /// The service behind the server.
    pub service: Arc<OptimizeService>,
    /// The listening server on `127.0.0.1:0`.
    pub server: OptimizeServer,
    /// The generated requests.
    pub stream: RequestStream,
    /// The cache budget in force.
    pub cache_config: CacheConfig,
    /// Requests the set-up itself sent to the service (cache warm-up).
    pub setup_requests: usize,
}

/// Trains the served policy through the real pipeline: `train_curriculum`
/// on the three curriculum models with a pinned seed.
pub fn train_policy(config: &XrlflowConfig) -> ParamSnapshot {
    let curriculum = zoo_curriculum(config);
    let mut trainer = ParallelTrainer::new(config.clone(), POLICY_SEED);
    trainer.set_num_workers(TRAIN_WORKERS);
    trainer.set_checkpointing(None);
    let mut agent = XrlflowAgent::new(config, POLICY_SEED);
    trainer
        .train_curriculum(&mut agent, &curriculum, POLICY_EPISODES_PER_MODEL)
        .expect("policy training failed during set-up");
    agent.snapshot()
}

/// One full set-up: train the policy, then [`serve_snapshot`].
pub fn set_up(workload: Workload, seed: u64) -> Served {
    let config = bench_config();
    let snapshot = train_policy(&config);
    serve_snapshot(workload, seed, config, snapshot)
}

/// Builds the service around `snapshot` with an explicit cache budget,
/// generates the requests, warms the cache where the workload calls for it
/// and binds the server.
pub fn serve_snapshot(
    workload: Workload,
    seed: u64,
    config: XrlflowConfig,
    snapshot: ParamSnapshot,
) -> Served {
    let service =
        Arc::new(OptimizeService::from_snapshot(&config, &snapshot).expect("snapshot matches its config"));
    let cache_config = match workload {
        Workload::ServeMixed => {
            CacheConfig::builder().max_entries(MIXED_CACHE_ENTRIES).build().expect("positive budget")
        }
        _ => CacheConfig::unbounded(),
    };
    service.set_cache_config(cache_config);

    let stream = request_stream(workload, seed);
    let mut setup_requests = 0;
    if workload == Workload::ServeWarm {
        // Every timed request of this workload must be a hit.
        for request in &stream.bodies {
            service.optimize_json(&request.body).expect("warm-up request failed");
            setup_requests += 1;
        }
    }
    // `serve_mixed` starts with an empty cache: the fill transient lands in
    // the first slice of the run, which the median-of-slices estimator drops.

    let server_config = ServerConfig {
        max_body_bytes: 16 * 1024 * 1024,
        max_header_bytes: 16 * 1024,
        io_timeout: Duration::from_secs(30),
        drain_timeout: Duration::from_secs(5),
    };
    let server = OptimizeServer::bind_with_config(Arc::clone(&service), "127.0.0.1:0", server_config)
        .expect("bind 127.0.0.1:0");
    Served { config, snapshot, service, server, stream, cache_config, setup_requests }
}

/// Probe readings taken before and after each operation too long to probe
/// inside (a set-up, a training round).
pub const PROBE_BURST: usize = 8;
/// A set-up is scaled by the plain ratio of the probe's readings to their
/// reference: probed only at its two ends, its own exponent cannot be told
/// from 1 (fits of 0.6–1.0 on 22–32 runs per workload).
pub const SET_UP_SENSITIVITY: f64 = 1.0;

/// Runs `set_up` `repeats` times, keeping the last instance, and returns it
/// with each set-up's timing. `setup_s` is their median: the first set-up of
/// a process pays for page faults and thread creation the later ones do
/// not, so a single reading would mostly measure the process start.
pub fn timed_set_up<T>(
    machine: &mut Machine,
    repeats: usize,
    mut set_up: impl FnMut() -> T,
) -> (T, Vec<Timed>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    machine.probe(PROBE_BURST);
    for _ in 0..repeats {
        drop(last.take());
        let start = machine.now();
        last = Some(set_up());
        times.push(machine.since(start));
        machine.probe(PROBE_BURST);
    }
    (last.expect("at least one set-up"), times)
}

/// The scalar fields of an `/optimize` response plus a hash of its graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseFields {
    /// Hash of the serialized result graph.
    pub graph_hash: u64,
    /// `initial_latency_ms` as reported.
    pub initial_latency_ms: f64,
    /// `final_latency_ms` as reported.
    pub final_latency_ms: f64,
    /// `steps` as reported.
    pub steps: usize,
    /// `cache_hit` as reported.
    pub cache_hit: bool,
}

impl ResponseFields {
    /// `true` when two responses describe the same optimisation result.
    fn same_result(&self, other: &ResponseFields) -> bool {
        self.graph_hash == other.graph_hash
            && self.initial_latency_ms == other.initial_latency_ms
            && self.final_latency_ms == other.final_latency_ms
            && self.steps == other.steps
    }
}

/// Word-at-a-time multiplicative hash: cheap enough to run on every
/// response inside the closed loop without diluting what is measured.
fn fast_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of eight"));
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    for &byte in chunks.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The text of scalar field `name` in a flat JSON tail.
fn scalar_field<'a>(tail: &'a str, name: &str) -> Option<&'a str> {
    let after_key = &tail[tail.find(&format!("\"{name}\""))? + name.len() + 2..];
    let value = after_key.trim_start().strip_prefix(':')?.trim_start();
    let end = value.find([',', '}']).unwrap_or(value.len());
    Some(value[..end].trim())
}

/// Extracts [`ResponseFields`] from a response body without a full parse:
/// the scalar fields follow the graph, so they sit in the last bytes of the
/// body and everything before them is the graph. A body laid out otherwise
/// is parsed in full (correct, slower).
pub fn scan_response(body: &[u8]) -> Option<ResponseFields> {
    const TAIL_WINDOW: usize = 512;
    const FIRST_SCALAR: &[u8] = b"\"initial_latency_ms\"";
    let window = body.len().saturating_sub(TAIL_WINDOW);
    let split =
        body[window..].windows(FIRST_SCALAR.len()).position(|w| w == FIRST_SCALAR).map(|p| window + p);
    if let Some(split) = split {
        if let Ok(tail) = std::str::from_utf8(&body[split..]) {
            let fields = (|| {
                Some(ResponseFields {
                    graph_hash: fast_hash(&body[..split]),
                    initial_latency_ms: scalar_field(tail, "initial_latency_ms")?.parse().ok()?,
                    final_latency_ms: scalar_field(tail, "final_latency_ms")?.parse().ok()?,
                    steps: scalar_field(tail, "steps")?.parse().ok()?,
                    cache_hit: scalar_field(tail, "cache_hit")?.parse().ok()?,
                })
            })();
            if fields.is_some() {
                return fields;
            }
        }
    }
    let value = JsonValue::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some(ResponseFields {
        graph_hash: fast_hash(value.get("graph")?.to_json().as_bytes()),
        initial_latency_ms: value.get("initial_latency_ms")?.as_f64()?,
        final_latency_ms: value.get("final_latency_ms")?.as_f64()?,
        steps: value.get("steps")?.as_usize()?,
        cache_hit: value.get("cache_hit")?.as_bool()?,
    })
}

/// One request as a client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the request stream.
    pub position: usize,
    /// Index of the body that was sent.
    pub body_index: u32,
    /// Socket round trip: connect/write to the last response byte.
    pub timing: Timed,
    /// The client's whole turn: the round trip plus reading the response's
    /// fields and hashing its graph — what bounds a closed loop's rate.
    pub turn: Timed,
    /// HTTP status, `0` when the exchange itself failed.
    pub status: u16,
    /// The response's fields, when it could be read.
    pub fields: Option<ResponseFields>,
}

/// What the client brings back.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every request in send order.
    pub samples: Vec<Sample>,
    /// The first response body seen for each request body, for the full
    /// check after the timed window.
    pub first_bodies: HashMap<u32, Vec<u8>>,
    /// TCP connections the client opened.
    pub connects: u64,
    /// Peak resident set size when the request at `rss_position` had been
    /// answered, if the run got that far.
    pub peak_rss_mb: Option<f64>,
}

/// Drives one closed-loop client (a caller of an optimisation service waits
/// for its reply) over the stream from its first position for `seconds`
/// seconds of wall-clock, or until a non-wrapping stream ends. The request
/// in flight at the deadline completes and counts. The machine is probed
/// between requests, and peak memory is read once, after the request at
/// stream position `rss_position`: a fixed amount of work, however much of
/// the stream the run's seconds cover.
///
/// One client, on the calling thread: with the process on one CPU a second
/// client would only queue behind the first, and on two CPUs the pair
/// measured how the host scheduled them (same-code runs 15–35 % apart).
pub fn drive(served: &Served, machine: &mut Machine, seconds: f64, rss_position: usize) -> ClientLog {
    let mut client = HttpClient::new(served.server.local_addr());
    let mut log = ClientLog::default();
    let mut body = Vec::with_capacity(64 * 1024);
    let deadline_ns = machine.now().wall_ns + (seconds * 1e9) as u64;
    for position in 0.. {
        machine.probe_if_due();
        let start = machine.now();
        if start.wall_ns >= deadline_ns {
            break;
        }
        let Some(body_index) = served.stream.at(position) else { break };
        let request = &served.stream.bodies[body_index as usize];
        let status = client.post("/optimize", request.body.as_bytes(), &mut body).unwrap_or(0);
        let timing = machine.since(start);
        let fields = if status == 200 { scan_response(&body) } else { None };
        if status == 200 && !log.first_bodies.contains_key(&body_index) {
            log.first_bodies.insert(body_index, body.clone());
        }
        log.samples.push(Sample { position, body_index, timing, turn: machine.since(start), status, fields });
        if position == rss_position {
            log.peak_rss_mb = Some(peak_rss_mb());
        }
    }
    log.connects = client.connects;
    log
}

/// Shapes of the graph's `Input` nodes (in storage order) and of its outputs.
fn boundary_shapes(graph: &Graph) -> (Vec<TensorShape>, Vec<TensorShape>) {
    let inputs = graph
        .iter()
        .filter(|(_, node)| node.op == OpKind::Input)
        .flat_map(|(_, node)| node.outputs.clone())
        .collect();
    let outputs = graph
        .outputs()
        .iter()
        .map(|&r| graph.tensor_shape(r).expect("validated graph resolves its outputs").clone())
        .collect();
    (inputs, outputs)
}

/// The full check of one response body against its request, with a
/// simulator of the benchmark's own. Returns the latency of the returned
/// graph as a share of the request graph's.
pub fn verify_response(
    request: &RequestBody,
    response: &[u8],
    simulator: &InferenceSimulator,
) -> Result<f64, String> {
    let text = std::str::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
    let value = JsonValue::parse(text).map_err(|e| format!("response is not JSON: {e}"))?;
    let graph_value = value.get("graph").ok_or("response has no graph")?;
    let returned =
        Graph::from_json_value(graph_value).map_err(|e| format!("returned graph rejected: {e}"))?;
    returned.validate().map_err(|e| format!("returned graph invalid: {e}"))?;
    let requested = Graph::from_json(&request.body).map_err(|e| format!("request graph rejected: {e}"))?;
    if boundary_shapes(&returned) != boundary_shapes(&requested) {
        return Err("input/output tensor shapes differ from the request's".to_string());
    }
    // The service measures the request graph with noise seed 0 on reset.
    let initial = simulator.measure_ms(&requested, 0);
    let reported_initial = value.get("initial_latency_ms").and_then(JsonValue::as_f64);
    if reported_initial != Some(initial) {
        return Err(format!("initial_latency_ms {reported_initial:?} != simulator's {initial}"));
    }
    let reported_final = value.get("final_latency_ms").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
    if !(reported_final.is_finite() && reported_final > 0.0) {
        return Err(format!("final_latency_ms {reported_final} is not a latency"));
    }
    Ok(simulator.measure_ms(&returned, 0) / initial)
}

/// The checked result of a driven window.
pub struct Checked {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed the exchange, the status or any check.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// The requests that passed, with their fields.
    pub passed: Vec<(Sample, ResponseFields)>,
    /// Latency share of each distinct verified body (`returned / request`).
    pub ratio_by_body: HashMap<u32, f64>,
}

/// Checks every request of a driven window: status 200, readable fields,
/// the workload's `cache_hit` expectation, identical results for identical
/// bodies, and the full [`verify_response`] once per distinct body.
pub fn check(workload: Workload, served: &Served, log: &ClientLog) -> Checked {
    let simulator = InferenceSimulator::new(DeviceProfile::gtx1080());
    // Per distinct body: the reference fields and the verdict of the full check.
    let mut references: HashMap<u32, (ResponseFields, Result<f64, String>)> = HashMap::new();
    for (&index, body) in &log.first_bodies {
        let request = &served.stream.bodies[index as usize];
        if let Some(fields) = scan_response(body) {
            references.insert(index, (fields, verify_response(request, body, &simulator)));
        }
    }

    let mut checked = Checked {
        attempted: 0,
        failed: 0,
        reasons: Vec::new(),
        passed: Vec::new(),
        ratio_by_body: HashMap::new(),
    };
    for sample in &log.samples {
        checked.attempted += 1;
        let verdict = (|| {
            if sample.status != 200 {
                return Err(format!("status {}", sample.status));
            }
            let fields = sample.fields.ok_or("unreadable response")?;
            let (reference, verified) = references.get(&sample.body_index).ok_or("no reference response")?;
            verified.clone()?;
            if !fields.same_result(reference) {
                return Err("a repeated body returned a different result".to_string());
            }
            match workload {
                Workload::ServeCold if fields.cache_hit => Err("cache_hit on a never-seen graph".to_string()),
                Workload::ServeWarm if !fields.cache_hit => {
                    Err("cache miss on a pre-warmed graph".to_string())
                }
                _ => Ok(fields),
            }
        })();
        match verdict {
            Ok(fields) => checked.passed.push((*sample, fields)),
            Err(reason) => {
                checked.failed += 1;
                if checked.reasons.len() < 8 {
                    let request = &served.stream.bodies[sample.body_index as usize];
                    checked.reasons.push(format!(
                        "position {} ({} @ {}): {reason}",
                        sample.position, request.kind, request.input_size
                    ));
                }
            }
        }
    }
    for (index, (_, verified)) in references {
        if let Ok(ratio) = verified {
            checked.ratio_by_body.insert(index, ratio);
        }
    }
    checked
}

/// Stream positions whose distinct bodies define `optimized_latency_pct`: a
/// fixed prefix every run completes several times over, so the quality
/// number is identical at a fixed seed however fast the machine is.
fn quality_prefix(workload: Workload) -> usize {
    match workload {
        Workload::ServeCold => 256,
        Workload::ServeWarm => 64,
        _ => 2048,
    }
}

/// The stream position after which `peak_rss_mb` is read: a third to a half
/// of what a run on a quiet machine covers, so every run gets there and the
/// memory is that of the same work on a fast and on a slow machine (the cold
/// cache is unbounded: at the end of the window it held 18 % more or fewer
/// entries from one run to the next).
fn rss_position(workload: Workload) -> usize {
    match workload {
        Workload::ServeCold => 384,
        Workload::ServeWarm => 8192,
        _ => 2048,
    }
}

/// `optimized_latency_pct`: mean latency of the returned graph as a
/// percentage of the request graph's, over the distinct bodies of the
/// quality prefix, both measured by the benchmark's own simulator.
fn optimized_latency_pct(workload: Workload, checked: &Checked) -> f64 {
    let mut in_prefix: Vec<u32> = checked
        .passed
        .iter()
        .filter(|(sample, _)| sample.position < quality_prefix(workload))
        .map(|(sample, _)| sample.body_index)
        .collect();
    in_prefix.sort_unstable();
    in_prefix.dedup();
    let ratios: Vec<f64> =
        in_prefix.iter().filter_map(|index| checked.ratio_by_body.get(index).copied()).collect();
    100.0 * mean(&ratios)
}

/// The service's request ledger must add up, in the untraced and the traced
/// run alike.
pub fn check_ledger(served: &Served, checked: &Checked, outcome: &mut Outcome) {
    let stats = served.service.stats();
    outcome.check(stats.requests == stats.cache_hits + stats.policy_invocations, || {
        format!("ServeStats ledger broken: {stats:?}")
    });
    let answered = checked.passed.len() + served.setup_requests;
    outcome.check(stats.requests >= answered, || {
        format!("service counted {} requests, clients saw {answered} answers", stats.requests)
    });
    outcome.detail(
        "serve_stats",
        object(vec![
            ("requests", number(stats.requests as f64)),
            ("cache_hits", number(stats.cache_hits as f64)),
            ("policy_invocations", number(stats.policy_invocations as f64)),
            ("coalesced", number(stats.coalesced as f64)),
        ]),
    );
}

/// A serve workload whose policy applies no rewrite measures nothing.
pub fn check_policy_works(workload: Workload, checked: &Checked, outcome: &mut Outcome) {
    let steps: Vec<f64> = checked.passed.iter().map(|(_, fields)| fields.steps as f64).collect();
    outcome.check(mean(&steps) >= 1.0, || {
        format!(
            "{}: mean steps per episode {:.2} < 1 — the policy did nothing",
            workload.name(),
            mean(&steps)
        )
    });
}

/// The untraced run of a serve workload: the end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, machine: &mut Machine) -> Outcome {
    let (served, set_ups) = timed_set_up(machine, SETUP_REPEATS, || set_up(workload, seed));
    let steal = StealMeter::start();
    let window_start = machine.now();
    let log = drive(&served, machine, seconds, rss_position(workload));
    let (steal_share, window) = (steal.share(), machine.since(window_start));
    let peak_rss = log.peak_rss_mb.unwrap_or_else(peak_rss_mb);
    let checked = check(workload, &served, &log);

    let mut outcome = Outcome { attempted: checked.attempted, failed: checked.failed, ..Outcome::default() };
    outcome.violations.extend(checked.reasons.iter().cloned());
    check_ledger(&served, &checked, &mut outcome);
    check_policy_works(workload, &checked, &mut outcome);
    outcome.check(!checked.passed.is_empty(), || "no request succeeded".to_string());
    if checked.passed.is_empty() {
        return outcome;
    }

    let sensitivity = workload.machine_sensitivity();
    let latencies: Vec<f64> = checked
        .passed
        .iter()
        .map(|(sample, _)| machine.at_reference_speed(sample.timing, sensitivity) * 1e3)
        .collect();
    let turns: Vec<(f64, f64)> = checked
        .passed
        .iter()
        .map(|(sample, _)| (1.0, machine.at_reference_speed(sample.turn, sensitivity)))
        .collect();
    let set_up_s: Vec<f64> =
        set_ups.iter().map(|&set_up| machine.at_reference_speed(set_up, SET_UP_SENSITIVITY)).collect();
    let (p50_ms, tail_ms) = latency_summary(&latencies, workload.tail_quantile());
    outcome.sliced("setup_s", median_slice(&set_up_s), "s");
    outcome.sliced("latency_p50_ms", p50_ms, "ms");
    outcome.sliced("latency_tail_ms", tail_ms, "ms");
    outcome.sliced("throughput_per_s", rate(&turns), "1/s");
    outcome.metric("optimized_latency_pct", optimized_latency_pct(workload, &checked), "%");
    outcome.metric("peak_rss_mb", peak_rss, "MiB");
    let wall_ms: Vec<f64> = checked.passed.iter().map(|(sample, _)| sample.timing.wall_ms()).collect();
    outcome.detail("wall_clock_p50_ms", number(median(&wall_ms)));
    outcome.detail("steal_share", number(steal_share));
    outcome.detail("stream_digest", JsonValue::String(format!("{:016x}", served.stream.digest())));
    outcome.detail("latency_samples", number(latencies.len() as f64));
    machine.describe(window, &mut outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_fields_are_read_from_the_tail_without_a_full_parse() {
        let graph = crate::workload::zoo_graph(xrlflow::graph::models::ModelKind::SqueezeNet);
        let body = |hit: bool| {
            JsonValue::Object(vec![
                ("graph".to_string(), graph.to_json_value()),
                ("initial_latency_ms".to_string(), JsonValue::Number(1.2345678901234567)),
                ("final_latency_ms".to_string(), JsonValue::Number(0.75)),
                ("steps".to_string(), JsonValue::Number(12.0)),
                ("cache_hit".to_string(), JsonValue::Bool(hit)),
                ("speedup_percent".to_string(), JsonValue::Number(64.6)),
            ])
            .to_json()
        };
        let miss = scan_response(body(false).as_bytes()).unwrap();
        let hit = scan_response(body(true).as_bytes()).unwrap();
        assert_eq!(miss.initial_latency_ms, 1.2345678901234567);
        assert_eq!((miss.final_latency_ms, miss.steps, miss.cache_hit), (0.75, 12, false));
        assert!(hit.cache_hit);
        // Same result, whichever way it was served.
        assert!(miss.same_result(&hit));
        assert_eq!(miss.graph_hash, hit.graph_hash);
    }

    #[test]
    fn a_response_laid_out_differently_is_still_read() {
        // Scalars first: the tail scan finds nothing and the full parse runs.
        let body = r#"{"cache_hit": true, "steps": 3, "final_latency_ms": 2.5, "initial_latency_ms": 4,
                       "graph": {"format": "xrlflow-graph", "padding": "PADDING"}}"#
            .replace("PADDING", &"x".repeat(1024));
        let fields = scan_response(body.as_bytes()).unwrap();
        assert_eq!((fields.initial_latency_ms, fields.final_latency_ms, fields.steps), (4.0, 2.5, 3));
        assert!(fields.cache_hit);
        assert!(scan_response(b"{\"error\": \"nope\"}").is_none());
        assert!(scan_response(b"not json").is_none());
    }

    #[test]
    fn the_hash_sees_every_byte() {
        let a = fast_hash(b"0123456789abcdef-tail");
        assert_eq!(a, fast_hash(b"0123456789abcdef-tail"));
        assert_ne!(a, fast_hash(b"0123456789abcdef-tail "));
        assert_ne!(a, fast_hash(b"0123456789abcdeg-tail"));
        assert_ne!(a, fast_hash(b"0123456789abcdef-tais"));
    }
}
