//! The per-step part of the per-layer ledger, shared by the serve and the
//! train traced runs: one episode driven through the public calls the
//! service's and the collector's loops make, a span around each, and the
//! nested parts of every step replayed standalone afterwards.

use std::sync::Arc;

use xrlflow::core::{XrlflowAgent, XrlflowConfig};
use xrlflow::cost::{DeviceProfile, InferenceSimulator};
use xrlflow::env::{Environment, Observation};
use xrlflow::gnn::GraphFeatures;
use xrlflow::graph::Graph;
use xrlflow::rewrite::RuleSet;
use xrlflow::tensor::{Tape, Tensor, XorShiftRng};

use crate::machine::Machine;
use crate::report::{number, peak_rss_mb, Outcome};
use crate::stats::{mean, percentile_or_zero};
use crate::trace::{SpanId, Tracer};

/// The immutable world an episode runs in.
pub struct World<'a> {
    /// The policy.
    pub agent: &'a XrlflowAgent,
    /// The rewrite rules.
    pub rules: &'a Arc<RuleSet>,
    /// The latency simulator the environment measures with.
    pub simulator: &'a Arc<InferenceSimulator>,
    /// The pinned configuration.
    pub config: &'a XrlflowConfig,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct StepCounts {
    /// Candidates offered at each policy decision.
    pub candidates: Vec<f64>,
    /// Nodes of the graph at each policy decision.
    pub nodes: Vec<f64>,
    /// Rewrites applied in each episode.
    pub steps_per_episode: Vec<f64>,
    /// Simulator measurements made by `reset`/`step` calls.
    pub measurements: u64,
    /// The subset that missed the simulator's memo.
    pub memo_misses: u64,
    /// Comparisons of a benchmark-driven pipeline with the real one …
    pub mirror_checks: u64,
    /// … and how many agreed.
    pub mirror_matches: u64,
}

impl StepCounts {
    /// Records one mirror comparison.
    pub fn mirror(&mut self, matches: bool) {
        self.mirror_checks += 1;
        self.mirror_matches += u64::from(matches);
    }
}

/// What one environment call left behind for the replay.
struct Measured {
    /// The span around the call.
    span: SpanId,
    /// Whether the call measured latency, and whether that missed the memo.
    measurement: Option<bool>,
}

/// One policy decision and the environment step it led to.
struct Decision {
    observation: Observation,
    action: usize,
    act: SpanId,
    step: Option<Measured>,
}

/// The spans of one episode still owed their replays.
pub struct Trail {
    initial: Arc<Graph>,
    reset: Measured,
    decisions: Vec<Decision>,
}

/// The result of an episode.
pub struct EpisodeResult {
    /// The final graph.
    pub graph: Graph,
    /// Latency of the initial graph (ms).
    pub initial_latency_ms: f64,
    /// Latency at the last measurement (ms).
    pub final_latency_ms: f64,
    /// Rewrites applied.
    pub steps: usize,
}

fn memo_misses() -> u64 {
    xrlflow::obs::counter!("cost/simulator/memo_miss").get()
}

/// Runs one episode with a span around every environment and agent call.
///
/// `greedy` mirrors `greedy_optimize` (the service's loop: fresh tape per
/// decision, stop at No-Op without stepping); otherwise the loop mirrors
/// `collect_episode_with_rng` (one recycled tape, the No-Op is stepped so
/// the episode ends on a measurement).
pub fn traced_episode(
    tracer: &mut Tracer,
    world: &World,
    graph: Arc<Graph>,
    rng: &mut XorShiftRng,
    greedy: bool,
    reset_seed: u64,
    op_id: u64,
) -> (EpisodeResult, Trail) {
    let feedback = world.config.env.feedback_frequency;
    let mut env = tracer.time("env.build", op_id, || {
        Environment::from_shared(
            Arc::clone(&graph),
            Arc::clone(world.rules),
            Arc::clone(world.simulator),
            world.config.env.clone(),
        )
    });
    let misses = memo_misses();
    let reset = tracer.begin("env.reset", op_id);
    let mut observation = env.reset(reset_seed);
    tracer.end(reset);
    let reset = Measured { span: reset, measurement: Some(memo_misses() > misses) };

    let mut tape = Tape::new();
    let mut decisions = Vec::new();
    let mut applied = 0;
    loop {
        if greedy && observation.num_candidates() == 0 {
            break;
        }
        let act = tracer.begin("core.act", op_id);
        let decision = if greedy {
            world.agent.act(&observation, rng, true)
        } else {
            world.agent.act_with_tape(&mut tape, &observation, rng, false)
        };
        tracer.end(act);
        let action = decision.action;
        let noop = action == observation.noop_action();
        if greedy && noop {
            decisions.push(Decision { observation, action, act, step: None });
            break;
        }
        let misses = memo_misses();
        let step = tracer.begin("env.step", op_id);
        let result = env.step(&observation, action);
        tracer.end(step);
        applied += usize::from(!noop);
        // `step` measures on termination and every `feedback` rewrites.
        let measured = result.done || applied % feedback == 0;
        let measurement = measured.then(|| memo_misses() > misses);
        decisions.push(Decision {
            observation,
            action,
            act,
            step: Some(Measured { span: step, measurement }),
        });
        if result.done {
            break;
        }
        observation = result.observation;
    }
    let stats = env.episode_stats();
    let result = EpisodeResult {
        graph: tracer.time("graph.clone", op_id, || env.current_graph().clone()),
        initial_latency_ms: stats.initial_latency_ms,
        final_latency_ms: stats.final_latency_ms,
        steps: applied,
    };
    (result, Trail { initial: graph, reset, decisions })
}

/// Replays the nested parts of every call of an episode, each as a replayed
/// child of the span it is a part of, and takes the counts.
pub fn replay(tracer: &mut Tracer, world: &World, trail: Trail, counts: &mut StepCounts) {
    let max_candidates = world.config.env.max_candidates;
    let fresh = InferenceSimulator::new(DeviceProfile::gtx1080());
    // A measurement is replayed the way it went: against a simulator that
    // has never seen the graph when it missed the memo, against the
    // environment's own (now warm) simulator when it hit.
    let measure = |tracer: &mut Tracer, call: &Measured, graph: &Graph, counts: &mut StepCounts| {
        let Some(missed) = call.measurement else { return };
        counts.measurements += 1;
        counts.memo_misses += u64::from(missed);
        let simulator = if missed { &fresh } else { world.simulator.as_ref() };
        tracer.replay(call.span, "cost.measure", || simulator.measure_ms(graph, 0));
    };

    measure(tracer, &trail.reset, &trail.initial, counts);
    tracer.replay(trail.reset.span, "rewrite.candgen", || {
        world.rules.generate_candidates(&trail.initial, max_candidates)
    });

    let mut applied = 0;
    for decision in &trail.decisions {
        let observation = &decision.observation;
        counts.candidates.push(observation.num_candidates() as f64);
        counts.nodes.push(observation.graph.num_nodes() as f64);
        let (current, deltas) = tracer.replay(decision.act, "gnn.featurize", || {
            let current = GraphFeatures::from_graph(&observation.graph);
            let deltas: Vec<_> = observation
                .candidates
                .iter()
                .map(|c| GraphFeatures::delta_from_base_and_patch(&observation.graph, &current, c.patch()))
                .collect();
            (current, deltas)
        });
        tracer.replay(decision.act, "gnn.encode", || {
            let mut tape = Tape::new();
            world.agent.encoder().encode_candidates(&mut tape, &world.agent.store, &current, &deltas)
        });

        let Some(step) = &decision.step else { continue };
        if decision.action == observation.noop_action() {
            // The stepped No-Op only measures the final graph.
            measure(tracer, step, &observation.graph, counts);
            continue;
        }
        applied += 1;
        let patch = observation.candidates[decision.action].patch();
        let next = tracer.replay(step.span, "graph.apply_patch", || {
            observation.graph.apply_patch(patch).expect("the chosen candidate applies to its base")
        });
        tracer
            .replay(step.span, "rewrite.candgen", || world.rules.generate_candidates(&next, max_candidates));
        measure(tracer, step, &next, counts);
    }
    counts.steps_per_episode.push(applied as f64);
}

/// Times `Tensor::matmul` at the encoder's dominant shape,
/// `[nodes, hidden] x [hidden, hidden]`.
fn matmul_probe(tracer: &mut Tracer, nodes: usize, hidden: usize) {
    let fill = |rows: usize, cols: usize| {
        Tensor::from_vec((0..rows * cols).map(|i| (i % 17) as f32 * 0.01 - 0.08).collect(), &[rows, cols])
    };
    let (lhs, rhs) = (fill(nodes.max(1), hidden), fill(hidden, hidden));
    for repeat in 0..200 {
        tracer.time("tensor.matmul", repeat, || std::hint::black_box(lhs.matmul(std::hint::black_box(&rhs))));
    }
}

/// Self time of the `parent` spans after subtracting their replayed
/// children, in microseconds (median).
fn self_us(tracer: &Tracer, parent: &str) -> f64 {
    percentile_or_zero(&tracer.self_ns(parent), 0.5) / 1e3
}

/// Everything a traced run accumulates.
#[derive(Default)]
pub struct Ledger {
    /// Metrics, failures and details, as for an untraced run.
    pub outcome: Outcome,
    /// Every span recorded so far.
    pub tracer: Tracer,
    /// Counts taken next to the spans.
    pub counts: StepCounts,
}

impl Ledger {
    /// Emits the per-step layer metrics, attaches the spans and hands back
    /// the finished outcome.
    pub fn finish(mut self, config: &XrlflowConfig, machine: &Machine) -> Outcome {
        step_metrics(&mut self.outcome, &mut self.tracer, &self.counts, config);
        // The per-layer times are wall-clock as measured. The probe says how
        // slow the machine was while they were taken: the end-to-end times
        // of a run in the same state were divided by this over its reference.
        let probe_ns = machine.trace().probe_ns(0, u64::MAX).unwrap_or(0.0);
        self.outcome.metric("machine.probe_us", probe_ns / 1e3, "us");
        self.outcome.detail("pinned_cpu", machine.pinned_cpu.map_or(number(-1.0), |cpu| number(cpu as f64)));
        self.outcome.detail("peak_rss_mb", number(peak_rss_mb()));
        self.outcome.spans = Some(self.tracer.to_json_value());
        self.outcome
    }
}

/// Emits the per-step layer metrics from everything the tracer recorded —
/// the part of the per-layer list that reads the same way in every workload.
fn step_metrics(outcome: &mut Outcome, tracer: &mut Tracer, counts: &StepCounts, config: &XrlflowConfig) {
    let median_nodes = percentile_or_zero(&counts.nodes, 0.5);
    matmul_probe(tracer, median_nodes as usize, config.encoder.hidden_dim);

    outcome.metric("graph.apply_patch_us", tracer.p50("graph.apply_patch", 1e3), "us");
    outcome.metric("rewrite.candgen_us", tracer.p50("rewrite.candgen", 1e3), "us");
    outcome.metric("rewrite.candidates_per_step", mean(&counts.candidates), "count");
    outcome.metric("gnn.featurize_us", tracer.p50("gnn.featurize", 1e3), "us");
    outcome.metric("gnn.encode_us", tracer.p50("gnn.encode", 1e3), "us");
    outcome.metric("gnn.nodes_per_graph", mean(&counts.nodes), "count");
    outcome.metric("core.act_us", tracer.p50("core.act", 1e3), "us");
    outcome.metric("core.head_us", self_us(tracer, "core.act"), "us");
    outcome.metric("core.steps_per_episode", mean(&counts.steps_per_episode), "count");
    outcome.metric("tensor.matmul_us", tracer.p50("tensor.matmul", 1e3), "us");
    outcome.metric("cost.measure_us", tracer.p50("cost.measure", 1e3), "us");
    let memo_hits = counts.measurements - counts.memo_misses;
    outcome.metric("cost.memo_hit_ratio", memo_hits as f64 / counts.measurements.max(1) as f64, "ratio");
    outcome.metric("env.reset_us", tracer.p50("env.reset", 1e3), "us");
    outcome.metric("env.step_us", tracer.p50("env.step", 1e3), "us");
    outcome.metric("env.step_self_us", self_us(tracer, "env.step"), "us");
    outcome.metric(
        "trace.shadow_match_share",
        counts.mirror_matches as f64 / counts.mirror_checks.max(1) as f64,
        "ratio",
    );
    outcome.check(counts.mirror_checks > 0 && counts.mirror_matches == counts.mirror_checks, || {
        format!(
            "the benchmark-driven pipelines no longer mirror the real ones: {} of {} comparisons agree",
            counts.mirror_matches, counts.mirror_checks
        )
    });
}
