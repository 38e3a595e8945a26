//! The optimisation service: snapshot-replica policy serving behind a
//! bounded persistent result cache, with hot snapshot swap and single-flight
//! miss admission.
//!
//! Every request that arrives as text — [`OptimizeService::optimize_json`]
//! and the HTTP handler alike — goes through one private resolver. It first
//! asks the cache's body index whether these exact bytes were answered
//! before (digest, then a full byte comparison): if so the request is a hit
//! without a UTF-8 check, an import, a canonical hash or an export. Anything
//! else takes the full path — `from_utf8` → [`Graph::from_json`] →
//! [`Graph::canonical_hash`] → single-flight → `greedy_optimize` — after
//! which the body is attached to the entry its key resolved to, so the next
//! byte-identical request is cheap. Only bodies that passed import
//! validation are ever attached.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

use xrlflow_core::fault;
use xrlflow_core::{greedy_optimize, EpisodeScratch, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::Environment;
use xrlflow_graph::{Graph, GraphError};
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::ParamSnapshot;

use crate::cache::{body_digest, write_number_field, CacheConfig, CacheEntry, Found, ResultCache};
use crate::error::ServeError;

/// The outcome of one optimisation request.
#[derive(Debug, Clone)]
pub struct OptimizeResponse {
    /// The optimised graph (shared with the cache — cheap to clone).
    pub graph: Arc<Graph>,
    /// Simulated latency of the request graph (ms).
    pub initial_latency_ms: f64,
    /// Simulated latency of the optimised graph (ms).
    pub final_latency_ms: f64,
    /// Number of substitutions the policy applied.
    pub steps: usize,
    /// Whether the response came from the result cache (no policy run).
    pub cache_hit: bool,
}

impl OptimizeResponse {
    /// End-to-end speedup in percent.
    pub fn speedup_percent(&self) -> f64 {
        if self.final_latency_ms == 0.0 {
            0.0
        } else {
            (self.initial_latency_ms / self.final_latency_ms - 1.0) * 100.0
        }
    }
}

/// Monotonic request counters, for observability and for asserting cache
/// behaviour in tests.
///
/// A [`OptimizeService::stats`] snapshot is **consistent**: the counters are
/// updated and read under one lock, so
/// `requests == cache_hits + policy_invocations` holds in every snapshot a
/// concurrent reader can observe (earlier versions bumped three independent
/// atomics and readers could see a torn trio).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Total optimisation requests accepted (invalid graphs not counted).
    pub requests: usize,
    /// Requests answered from the result cache. Includes *coalesced* misses:
    /// requests that arrived while another request was already optimising
    /// the same graph, waited for it, and were then served from the cache.
    pub cache_hits: usize,
    /// Requests that ran the policy (greedy episodes executed). With
    /// single-flight admission, N racing misses on one key cost exactly one
    /// invocation.
    pub policy_invocations: usize,
    /// The subset of `cache_hits` that waited for an in-flight optimisation
    /// of the same key instead of finding the entry already present.
    pub coalesced: usize,
}

/// How one in-flight optimisation ended, from a waiter's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlightOutcome {
    /// The leader is still optimising.
    Pending,
    /// The leader finished and published its result to the cache.
    Complete,
    /// The leader panicked mid-episode; no result was published.
    LeaderFailed,
}

/// One in-flight optimisation a racing miss can wait on instead of running
/// its own episode.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightOutcome>,
    condvar: Condvar,
}

impl Default for Flight {
    fn default() -> Self {
        Self { state: Mutex::new(FlightOutcome::Pending), condvar: Condvar::new() }
    }
}

impl Flight {
    fn wait(&self) -> FlightOutcome {
        let mut state = self.state.lock().expect("flight lock");
        while *state == FlightOutcome::Pending {
            state = self.condvar.wait(state).expect("flight lock");
        }
        *state
    }

    fn finish(&self, outcome: FlightOutcome) {
        *self.state.lock().expect("flight lock") = outcome;
        self.condvar.notify_all();
    }
}

/// Removes the flight from the table and wakes every waiter when the leader
/// is done — including when it unwinds, so waiters can never deadlock on a
/// flight whose leader died. A leader that unwinds is detected with
/// [`std::thread::panicking`] and reported to its waiters as
/// [`FlightOutcome::LeaderFailed`], which they surface as the typed
/// [`ServeError::FlightFailed`] instead of hanging or silently re-running.
struct FlightGuard<'a> {
    service: &'a OptimizeService,
    key: u64,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let flight = self.service.flights.lock().expect("flights lock").remove(&self.key);
        if let Some(flight) = flight {
            let outcome = if std::thread::panicking() {
                xrlflow_obs::counter!("serve/flight_leader_panics").inc();
                FlightOutcome::LeaderFailed
            } else {
                FlightOutcome::Complete
            };
            flight.finish(outcome);
        }
    }
}

/// Where single-flight admission sends a request.
enum Admission<'a> {
    /// The key's entry is in the cache.
    Published(Found),
    /// Another request is optimising the key: wait for its flight.
    Follow(Arc<Flight>),
    /// This request runs the episode; dropping the guard ends its flight.
    Lead(FlightGuard<'a>),
}

/// Optimisation-as-a-service over a frozen policy.
///
/// The service owns a read-only agent replica built from a
/// [`ParamSnapshot`] (the same bit-identical replica protocol the parallel
/// rollout engine uses), a shared rewrite rule set and latency simulator,
/// and a budget-bounded [`ResultCache`] keyed by [`Graph::canonical_hash`].
/// Repeat requests for structurally identical graphs are answered from the
/// cache without touching the policy; the cache snapshots to disk so a
/// restarted server stays warm.
///
/// Three serving-hardening properties (PR 9) on top of that:
///
/// * **Hot snapshot swap** ([`OptimizeService::swap_snapshot`]): the policy
///   replica lives behind an `Arc` pointer; a new checkpoint is loaded and
///   validated *off* the request path and then swapped in as a pointer
///   exchange. In-flight requests keep the replica they started with;
///   rejected checkpoints leave the old policy serving.
/// * **Single-flight admission**: concurrent misses on the same canonical
///   hash run **one** greedy episode — the first request leads, the rest
///   wait and are served from the cache (counted in
///   [`ServeStats::coalesced`]).
/// * **Bounded cache** ([`OptimizeService::set_cache_config`]): entry/byte
///   budgets with frequency-based (W-TinyLFU) admission in front of LRU
///   eviction, visible in `/metrics`. Each accepted request counts once
///   towards its graph's frequency.
///
/// All methods take `&self`: the service is `Sync` and can be shared across
/// request threads behind an `Arc` (the HTTP front end in
/// [`crate::http`] does exactly that).
#[derive(Debug)]
pub struct OptimizeService {
    /// The serving replica. Requests clone the `Arc` under a read lock and
    /// drop the lock before optimising; `swap_snapshot` exchanges the
    /// pointer under the write lock. Neither side ever holds the lock while
    /// running the policy.
    policy: RwLock<Arc<XrlflowAgent>>,
    config: XrlflowConfig,
    rules: Arc<RuleSet>,
    simulator: Arc<InferenceSimulator>,
    cache: Mutex<ResultCache>,
    stats: Mutex<ServeStats>,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    /// Spare episode scratch: a leader takes one (or starts a fresh one) for
    /// its episode and hands it back after, so the service keeps at most one
    /// per concurrent miss. The lock is held for the pop and the push only;
    /// a leader that panicked drops the scratch it took.
    episode_scratch: Mutex<Vec<EpisodeScratch>>,
}

impl OptimizeService {
    /// Builds a service around a trained policy snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the configuration is degenerate,
    /// [`ServeError::Snapshot`] when the snapshot does not match the
    /// architecture the configuration describes.
    pub fn from_snapshot(config: &XrlflowConfig, snapshot: &ParamSnapshot) -> Result<Self, ServeError> {
        config.validate()?;
        let agent = XrlflowAgent::from_snapshot(config, snapshot)?;
        Ok(Self::assemble(config.clone(), agent))
    }

    /// Builds a service around a freshly initialised (untrained) policy —
    /// useful for smoke tests and for exercising the serving path before a
    /// training run has produced a snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the configuration is degenerate.
    pub fn untrained(config: &XrlflowConfig, seed: u64) -> Result<Self, ServeError> {
        config.validate()?;
        let agent = XrlflowAgent::new(config, seed);
        Ok(Self::assemble(config.clone(), agent))
    }

    fn assemble(config: XrlflowConfig, agent: XrlflowAgent) -> Self {
        Self {
            policy: RwLock::new(Arc::new(agent)),
            config,
            rules: Arc::new(RuleSet::standard()),
            simulator: Arc::new(InferenceSimulator::new(DeviceProfile::default())),
            cache: Mutex::new(ResultCache::new()),
            stats: Mutex::new(ServeStats::default()),
            flights: Mutex::new(HashMap::new()),
            episode_scratch: Mutex::default(),
        }
    }

    /// Hot-swaps the serving policy to a new checkpoint while traffic keeps
    /// flowing.
    ///
    /// The new snapshot is validated and materialised into a replica
    /// **before** any serving state changes — the old policy keeps serving
    /// throughout the load, and in-flight requests that already cloned the
    /// old replica's `Arc` finish on it undisturbed. Only once the new
    /// replica is fully built does the swap happen, as a pointer exchange
    /// under a briefly held write lock. A snapshot that does not match the
    /// service architecture is rejected with the old policy untouched.
    ///
    /// The result cache deliberately survives a swap: entries are keyed by
    /// request graph, and serving a cached result computed by the previous
    /// policy is exactly the paper's amortisation story. Call
    /// [`OptimizeService::clear_cache`] after swapping if the new policy
    /// should re-optimise everything from scratch.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] when the snapshot does not match the
    /// configured architecture; the previous policy remains in service.
    pub fn swap_snapshot(&self, snapshot: &ParamSnapshot) -> Result<(), ServeError> {
        let replica = match XrlflowAgent::from_snapshot(&self.config, snapshot) {
            Ok(agent) => Arc::new(agent),
            Err(e) => {
                xrlflow_obs::counter!("serve/snapshot_swap_rejected").inc();
                return Err(e.into());
            }
        };
        *self.policy.write().expect("policy lock") = replica;
        xrlflow_obs::counter!("serve/snapshot_swaps").inc();
        Ok(())
    }

    /// The replica currently serving (requests pin their own clone of this).
    fn current_policy(&self) -> Arc<XrlflowAgent> {
        Arc::clone(&self.policy.read().expect("policy lock"))
    }

    /// Classifies one accepted request, updating `requests` **and** its
    /// outcome counter under a single lock so no reader ever observes
    /// `requests != cache_hits + policy_invocations`.
    fn record_request(&self, cache_hit: bool, coalesced: bool) {
        let mut stats = self.stats.lock().expect("stats lock");
        stats.requests += 1;
        if cache_hit {
            stats.cache_hits += 1;
            xrlflow_obs::counter!("serve/cache_hit").inc();
            if coalesced {
                stats.coalesced += 1;
                xrlflow_obs::counter!("serve/coalesced").inc();
            }
        } else {
            stats.policy_invocations += 1;
            xrlflow_obs::counter!("serve/policy_invocation").inc();
        }
        xrlflow_obs::counter!("serve/requests").inc();
    }

    /// Optimises a graph document in the JSON interchange format. A
    /// byte-identical repeat of a document the service has already answered
    /// is served from the cache's body index without being parsed again.
    ///
    /// # Errors
    ///
    /// [`ServeError::Graph`] when the document is malformed or invalid;
    /// never panics on untrusted input.
    pub fn optimize_json(&self, text: &str) -> Result<OptimizeResponse, ServeError> {
        self.resolve(text.as_bytes()).map(|resolved| resolved.response())
    }

    /// [`OptimizeService::optimize_json`] for the HTTP front end: takes the
    /// raw request body and returns the response document. A hit's document
    /// is rendered once and memoised beside its cache entry.
    pub(crate) fn optimize_http(&self, body: &[u8]) -> Result<Arc<str>, ServeError> {
        let resolved = self.resolve(body)?;
        if let Some(rendered) = resolved.found.rendered {
            return Ok(rendered);
        }
        let rendered: Arc<str> = render_response(&resolved.response()).into();
        if resolved.cache_hit {
            let Found { key, entry, .. } = &resolved.found;
            self.cache.lock().expect("cache lock").attach_rendered(*key, &entry.graph, Arc::clone(&rendered));
        }
        Ok(rendered)
    }

    /// Optimises an in-process graph.
    ///
    /// # Errors
    ///
    /// [`ServeError::Graph`] when the graph fails validation.
    pub fn optimize(&self, graph: &Graph) -> Result<OptimizeResponse, ServeError> {
        graph.validate()?;
        let _span = xrlflow_obs::span!("serve/request");
        self.optimize_validated(graph.clone(), None).map(|resolved| resolved.response())
    }

    /// The one way a text request becomes a result: the body index first,
    /// the full import path otherwise (see the module docs). The
    /// `serve/request` span covers accepted requests only.
    fn resolve(&self, body: &[u8]) -> Result<Resolved, ServeError> {
        let span = xrlflow_obs::span!("serve/request");
        let digest = body_digest(body);
        let indexed = self.cache.lock().expect("cache lock").find_by_body(digest, body);
        if let Some(found) = indexed {
            self.record_request(true, false);
            xrlflow_obs::counter!("serve/body_index_hits").inc();
            return Ok(Resolved { found, cache_hit: true });
        }
        let graph = std::str::from_utf8(body)
            .map_err(|_| GraphError::Parse("request body is not valid UTF-8".to_string()))
            .and_then(Graph::from_json);
        match graph {
            Ok(graph) => self.optimize_validated(graph, Some((digest, body))),
            Err(e) => {
                span.cancel();
                Err(e.into())
            }
        }
    }

    /// Serves a validated graph from the cache or the policy. `body` is the
    /// request text (with its digest) the graph was imported from, attached
    /// to whichever entry answers.
    fn optimize_validated(&self, graph: Graph, body: Option<(u64, &[u8])>) -> Result<Resolved, ServeError> {
        let key = graph.canonical_hash();
        let mut coalesced = false;
        // Single-flight admission: check the cache, and on a miss either
        // become the leader for this key or wait for the request already
        // optimising it. Waiters of a *completed* flight loop back to the
        // cache check; they may find the entry, or (if it was evicted in
        // between) become the new leader themselves. Waiters of a flight
        // whose leader panicked get the typed [`ServeError::FlightFailed`]
        // instead — one fault fails its coalesced cohort loudly rather than
        // stampeding the policy with silent re-runs.
        //
        // The request counts once towards its key's frequency, here: not
        // again in `admit_miss`'s re-check or a follower's loop-back.
        self.cache.lock().expect("cache lock").record(key);
        let _flight_guard = loop {
            let admission = match self.lookup(key, body) {
                Some(found) => Admission::Published(found),
                None => self.admit_miss(key, body),
            };
            match admission {
                Admission::Published(found) => {
                    self.record_request(true, coalesced);
                    return Ok(Resolved { found, cache_hit: true });
                }
                Admission::Follow(flight) => {
                    if flight.wait() == FlightOutcome::LeaderFailed {
                        return Err(ServeError::FlightFailed { key });
                    }
                    coalesced = true;
                }
                Admission::Lead(guard) => break guard,
            }
        };
        // Leader: run a greedy episode against the frozen policy. No lock is
        // held while optimising — cache hits and other keys' misses proceed
        // concurrently, and a hot swap can land mid-episode (this request
        // pinned its replica). The guard wakes the waiters even on unwind.
        let policy = self.current_policy();
        self.record_request(false, false);
        // Fault-injection hook (inert unless a plan is installed): lets the
        // suites kill a single-flight leader mid-episode deterministically.
        fault::trip(fault::FaultPhase::Serve, key, 0);
        let mut env = Environment::from_shared(
            Arc::new(graph),
            Arc::clone(&self.rules),
            Arc::clone(&self.simulator),
            self.config.env.clone(),
        );
        let spare = self.episode_scratch.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let mut scratch = spare.unwrap_or_default();
        let result = greedy_optimize(&policy, &mut env, &mut scratch);
        self.episode_scratch.lock().unwrap_or_else(PoisonError::into_inner).push(scratch);
        // A hit reads the key and the rendered bytes, never the result's
        // structure index: with the environment gone the graph is ours alone,
        // and it is stored without that memo (rebuilt if a caller asks).
        drop(env);
        let mut graph = result.graph;
        let unique = Arc::get_mut(&mut graph);
        debug_assert!(unique.is_some(), "a result graph still shared after its episode");
        if let Some(graph) = unique {
            graph.forget_structure();
        }
        let entry = CacheEntry {
            graph,
            initial_latency_ms: result.stats.initial_latency_ms,
            final_latency_ms: result.stats.final_latency_ms,
            steps: result.stats.steps,
        };
        let mut cache = self.cache.lock().expect("cache lock");
        cache.insert(key, entry.clone());
        if let Some((digest, body)) = body {
            cache.attach_body(key, digest, body);
        }
        Ok(Resolved { found: Found { key, entry, rendered: None }, cache_hit: false })
    }

    /// The cache entry for `key`, with the request `body` attached to it.
    fn lookup(&self, key: u64, body: Option<(u64, &[u8])>) -> Option<Found> {
        let mut cache = self.cache.lock().expect("cache lock");
        let found = cache.find(key);
        if let (Some(_), Some((digest, body))) = (&found, body) {
            cache.attach_body(key, digest, body);
        }
        found
    }

    /// The flight-table half of admission, for a request whose
    /// [`OptimizeService::lookup`] missed: follow the flight already
    /// optimising `key`, or register one and lead it.
    ///
    /// A leader publishes its entry and only then ends its flight, but both
    /// can happen after this request's cache check and before it reaches the
    /// flight table. So a request that registered a flight checks the cache
    /// once more before it leads: an entry published in that gap is served,
    /// and the flight it registered ends at once (anyone who joined it loops
    /// back to the cache and finds the entry).
    fn admit_miss(&self, key: u64, body: Option<(u64, &[u8])>) -> Admission<'_> {
        {
            let mut flights = self.flights.lock().expect("flights lock");
            if let Some(flight) = flights.get(&key) {
                return Admission::Follow(Arc::clone(flight));
            }
            flights.insert(key, Arc::new(Flight::default()));
        }
        let guard = FlightGuard { service: self, key };
        match self.lookup(key, body) {
            Some(found) => Admission::Published(found),
            None => Admission::Lead(guard),
        }
    }

    /// Current request counters, as one consistent snapshot
    /// (`requests == cache_hits + policy_invocations` always holds).
    pub fn stats(&self) -> ServeStats {
        *self.stats.lock().expect("stats lock")
    }

    /// The process-wide telemetry registry as a metrics JSON document —
    /// request counters, the `serve/request` latency histogram, cache
    /// occupancy/eviction series, and every other subsystem's series. This
    /// is the `GET /metrics` body of the HTTP front end; `docs/FORMATS.md`
    /// and `docs/OPERATIONS.md` describe the schema field by field.
    pub fn metrics_json(&self) -> String {
        xrlflow_obs::Registry::global().snapshot().to_json()
    }

    /// Number of distinct graphs with cached results.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Estimated bytes held by the result cache, body-index memos included.
    pub fn cache_bytes(&self) -> usize {
        self.cache.lock().expect("cache lock").total_bytes()
    }

    /// Replaces the result-cache budgets, evicting immediately if the live
    /// cache exceeds them. Returns the number of entries evicted.
    pub fn set_cache_config(&self, config: CacheConfig) -> usize {
        self.cache.lock().expect("cache lock").set_config(config)
    }

    /// The result-cache budgets currently in force.
    pub fn cache_config(&self) -> CacheConfig {
        self.cache.lock().expect("cache lock").config()
    }

    /// Drops every cached result (budgets are kept). Useful after a
    /// [`OptimizeService::swap_snapshot`] when the new policy should
    /// re-optimise previously seen graphs.
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().expect("cache lock");
        let config = cache.config();
        *cache = ResultCache::with_config(config);
    }

    /// Serialises the current result cache as a JSON snapshot.
    pub fn cache_to_json(&self) -> String {
        self.cache.lock().expect("cache lock").to_json()
    }

    /// Writes the result cache to disk so a restarted service can
    /// [`OptimizeService::load_cache`] it and stay warm.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be written.
    pub fn save_cache(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        self.cache.lock().expect("cache lock").save(path)
    }

    /// Replaces the result cache with a snapshot loaded from disk
    /// (validating every entry), **clamped to the budgets currently in
    /// force**: a snapshot holding more than the configured entry/byte
    /// budget is evicted down to fit during the load — never silently
    /// adopted unbounded — with the clamp visible in the
    /// `serve/cache_load_clamped` counter.
    ///
    /// # Errors
    ///
    /// The [`ResultCache::load_with_config`] errors.
    pub fn load_cache(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        let config = self.cache_config();
        let loaded = ResultCache::load_with_config(path, config)?;
        let mut cache = self.cache.lock().expect("cache lock");
        *cache = loaded;
        Ok(())
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &XrlflowConfig {
        &self.config
    }
}

/// A request resolved to a cache entry, and whether the cache supplied it.
struct Resolved {
    found: Found,
    cache_hit: bool,
}

impl Resolved {
    fn response(&self) -> OptimizeResponse {
        let entry = &self.found.entry;
        OptimizeResponse {
            graph: Arc::clone(&entry.graph),
            initial_latency_ms: entry.initial_latency_ms,
            final_latency_ms: entry.final_latency_ms,
            steps: entry.steps,
            cache_hit: self.cache_hit,
        }
    }
}

/// The `POST /optimize` response document (`docs/FORMATS.md`), written in
/// place: the graph's bytes, then the scalar fields in `JsonValue`'s number
/// form (`null` for a non-finite value).
fn render_response(response: &OptimizeResponse) -> String {
    let graph = response.graph.to_json();
    let mut out = String::with_capacity(graph.len() + 160);
    out.push_str("{\"graph\": ");
    out.push_str(&graph);
    write_number_field("initial_latency_ms", response.initial_latency_ms, &mut out);
    write_number_field("final_latency_ms", response.final_latency_ms, &mut out);
    write!(out, ", \"steps\": {}, \"cache_hit\": {}", response.steps, response.cache_hit)
        .expect("writing to a String cannot fail");
    write_number_field("speedup_percent", response.speedup_percent(), &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::{JsonValue, OpAttributes, OpKind, TensorShape};

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.add_input(TensorShape::new(vec![1, 8]));
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![input.into()]).unwrap();
        g.mark_output(relu.into());
        g
    }

    #[test]
    fn the_response_document_is_the_tree_forms_bytes_for_any_scalar() {
        let graph = Arc::new(tiny_graph());
        let scalars = [
            (1.5, 0.75),
            (f64::NAN, 1.0),
            (1.0, f64::INFINITY),
            (0.1 + 0.2, 1e-300),
            (-0.0, 0.0),
            (1e21, 3.0),
        ];
        for (i, (initial, last)) in scalars.into_iter().enumerate() {
            let response = OptimizeResponse {
                graph: Arc::clone(&graph),
                initial_latency_ms: initial,
                final_latency_ms: last,
                steps: 7 * i,
                cache_hit: i % 2 == 0,
            };
            let expected = JsonValue::Object(vec![
                ("graph".to_string(), graph.to_json_value()),
                ("initial_latency_ms".to_string(), JsonValue::Number(initial)),
                ("final_latency_ms".to_string(), JsonValue::Number(last)),
                ("steps".to_string(), JsonValue::Number(response.steps as f64)),
                ("cache_hit".to_string(), JsonValue::Bool(response.cache_hit)),
                ("speedup_percent".to_string(), JsonValue::Number(response.speedup_percent())),
            ])
            .to_json();
            assert_eq!(render_response(&response), expected, "scalars {initial} / {last}");
        }
    }

    #[test]
    fn a_miss_leaves_its_carried_and_cold_policy_steps_in_the_metrics_document() {
        // "Why was this miss slow?" has to be answerable from `/metrics`: an
        // episode of n rewrites is one cold policy step and at least n - 1
        // carried ones (other tests' episodes only add to the counters).
        use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
        let carried = xrlflow_obs::counter!("core/policy_steps_carried");
        let cold = xrlflow_obs::counter!("core/policy_steps_cold");
        let (carried_before, cold_before) = (carried.get(), cold.get());
        // Seed 1's untrained policy rewrites to the smoke-test step limit.
        let service = OptimizeService::untrained(&XrlflowConfig::smoke_test(), 1).unwrap();
        let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let response = service.optimize(&graph).unwrap();
        assert!(response.steps > 1, "the episode must have successor steps");
        assert!(cold.get() > cold_before);
        assert!(carried.get() >= carried_before + response.steps as u64 - 1);
        let metrics = service.metrics_json();
        for series in ["core/policy_steps_carried", "core/policy_steps_cold"] {
            assert!(
                metrics.contains(&format!("\"{series}\"")),
                "{series} is missing from the metrics document"
            );
        }
    }

    #[test]
    fn misses_share_spare_scratch_and_cached_results_keep_no_structure_index() {
        // Sequential misses borrow one scratch in turn, and no hit, render
        // or eviction rebuilds the index a stored result was stripped of.
        use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
        let service = OptimizeService::untrained(&XrlflowConfig::smoke_test(), 1).unwrap();
        service.set_cache_config(CacheConfig::builder().max_entries(2).build().unwrap());
        let kinds = [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::ResNet18];
        let bodies: Vec<String> =
            kinds.iter().map(|&kind| build_model(kind, ModelScale::Bench).unwrap().to_json()).collect();
        for body in bodies.iter().chain(&bodies) {
            service.optimize_http(body.as_bytes()).unwrap();
            service.optimize_json(body).unwrap();
        }
        assert!(service.stats().policy_invocations > kinds.len(), "two entries for three graphs evict");
        assert_eq!(service.episode_scratch.lock().unwrap().len(), 1, "one spare per concurrent miss");
        let cache = service.cache.lock().unwrap();
        let cached: Vec<&CacheEntry> = bodies
            .iter()
            .filter_map(|body| cache.peek(Graph::from_json(body).unwrap().canonical_hash()))
            .collect();
        assert_eq!(cached.len(), 2);
        for entry in cached {
            assert!(!entry.graph.has_structure_memo(), "a cached result kept its structure index");
        }
    }

    #[test]
    fn waiters_on_a_failed_leader_get_a_typed_error_and_the_service_recovers() {
        let service = Arc::new(OptimizeService::untrained(&XrlflowConfig::smoke_test(), 1).unwrap());
        let graph = tiny_graph();
        let key = graph.canonical_hash();

        // Simulate an in-flight leader, then have it die: remove the
        // flight and report LeaderFailed — exactly what FlightGuard does
        // when the leader thread unwinds.
        let fail_leader_soon = || {
            service.flights.lock().unwrap().insert(key, Arc::new(Flight::default()));
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let flight = service.flights.lock().unwrap().remove(&key).unwrap();
                flight.finish(FlightOutcome::LeaderFailed);
            })
        };
        let reaper = fail_leader_soon();
        let err = service.optimize(&graph).unwrap_err();
        assert!(
            matches!(err, ServeError::FlightFailed { key: k } if k == key),
            "coalesced request must fail with the typed flight error, got: {err}"
        );
        reaper.join().unwrap();

        // Over HTTP the same fault is the server's, and retryable: `503`
        // with `Retry-After`, not the client's `400`.
        let server = crate::OptimizeServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let reaper = fail_leader_soon();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let body = graph.to_json();
        let request = format!(
            "POST /optimize HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        std::io::Write::write_all(&mut stream, request.as_bytes()).unwrap();
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut stream, &mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "reply: {reply}");
        assert!(reply.contains("\r\nRetry-After: 0\r\n"), "reply: {reply}");
        reaper.join().unwrap();
        drop(server);

        // The flight table is clear — the next request leads and succeeds.
        let response = service.optimize(&graph).unwrap();
        assert!(!response.cache_hit);
        let stats = service.stats();
        assert_eq!(stats.cache_hits + stats.policy_invocations, stats.requests);
    }

    #[test]
    fn every_request_counts_its_key_once() {
        let service = OptimizeService::untrained(&XrlflowConfig::smoke_test(), 1).unwrap();
        service.set_cache_config(CacheConfig::builder().max_entries(4).build().unwrap());
        let frequency = |key: u64| service.cache.lock().unwrap().frequency(key);
        let graph = tiny_graph();
        let key = graph.canonical_hash();

        // A miss: its first look counts, admit_miss's re-check does not.
        assert!(!service.optimize(&graph).unwrap().cache_hit);
        assert_eq!(frequency(key), 1);
        // Hits through the canonical hash, then through the body index.
        assert!(service.optimize(&graph).unwrap().cache_hit);
        assert!(service.optimize_json(&graph.to_json()).unwrap().cache_hit);
        assert!(service.optimize_json(&graph.to_json()).unwrap().cache_hit);
        assert_eq!(frequency(key), 4);
        assert_eq!(service.stats().requests, 4);

        // A follower: counted by its first look, not by its loop-back
        // after the leader published.
        let mut other = Graph::new();
        let input = other.add_input(TensorShape::new(vec![1, 16]));
        let tanh = other.add_node(OpKind::Tanh, OpAttributes::default(), vec![input.into()]).unwrap();
        other.mark_output(tanh.into());
        let other_key = other.canonical_hash();
        let flight = Arc::new(Flight::default());
        service.flights.lock().unwrap().insert(other_key, Arc::clone(&flight));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Publish only once the request follows the flight: the
                // table, this thread and the follower each hold it.
                while Arc::strong_count(&flight) < 3 {
                    std::thread::yield_now();
                }
                let entry = CacheEntry {
                    graph: Arc::new(other.clone()),
                    initial_latency_ms: 1.0,
                    final_latency_ms: 1.0,
                    steps: 0,
                };
                service.cache.lock().unwrap().insert(other_key, entry);
                service.flights.lock().unwrap().remove(&other_key);
                flight.finish(FlightOutcome::Complete);
            });
            assert!(service.optimize(&other).unwrap().cache_hit);
        });
        assert_eq!(service.stats().coalesced, 1);
        assert_eq!(frequency(other_key), 1);
        assert_eq!(frequency(key), 4);
    }

    #[test]
    fn a_miss_that_reaches_the_flight_table_after_the_leader_left_is_served_its_entry() {
        let service = OptimizeService::untrained(&XrlflowConfig::smoke_test(), 1).unwrap();
        let graph = tiny_graph();
        let key = graph.canonical_hash();

        // A miss checks the cache: nothing yet.
        assert!(service.lookup(key, None).is_none());
        // Before it reaches the flight table, a leader runs the episode,
        // publishes its entry and ends its flight.
        let led = service.optimize(&graph).unwrap();
        assert!(!led.cache_hit);
        assert!(service.flights.lock().unwrap().is_empty());
        // The miss finds no flight to follow: it must be served the entry,
        // not lead a second episode for the key.
        match service.admit_miss(key, None) {
            Admission::Published(found) => assert!(Arc::ptr_eq(&found.entry.graph, &led.graph)),
            Admission::Lead(_) => panic!("a second leader for a key whose entry is published"),
            Admission::Follow(_) => panic!("followed a flight that had ended"),
        }
        assert!(service.flights.lock().unwrap().is_empty(), "the flight the miss registered must end");
        assert_eq!(service.stats().policy_invocations, 1);
    }
}
