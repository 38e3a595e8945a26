//! Micro-benchmarks for the GNN encoder: featurisation, the forward pass of
//! one graph at different message-passing depths (an ablation over `k`, the
//! number of GAT layers), and per-step policy evaluation on the batched +
//! delta-aware path the agent runs over what its observation carries — with
//! the host work the environment does for that path (featurise a graph,
//! derive all `K` sparse candidate deltas) as its own series, the features
//! of the next graph derived from the chosen candidate's delta
//! (`featurize/successor/*`), and a mid-trajectory step through the episode
//! evaluator, which reads the observed graph's encoder rows from the step
//! before (`carried`) against the same step encoding the whole graph
//! (`cold`) — and, on its own, the readout both kinds of step end with
//! (`readout/*`: the `K + 1` per-graph row sums). No `policy_evaluation/*`
//! row featurises: the observation carries its features and deltas.
//! `greedy_episode/*` times one whole `greedy_optimize` episode (the serving
//! leader's loop, environment steps included) on a fresh `EpisodeScratch`
//! per episode against one kept across episodes, alternated, with
//! `greedy_episode/keep_speedup/*` the fresh-over-kept ratio.

use std::hint::black_box;
use std::time::Instant;

use xrlflow_bench::{env_usize, finish, iters_from_env, report, report_ratio, time_ns, time_with_setup_ns};
use xrlflow_core::{greedy_optimize, EpisodeScratch, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::Environment;
use xrlflow_gnn::{EncoderConfig, EncoderEpisode, GnnEncoder, GraphFeatures};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::{ParamStore, Tape, XorShiftRng};

fn main() {
    let iters = iters_from_env(10);

    let bert = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
    report("featurize/bert", time_ns(3, iters.max(50), || GraphFeatures::from_graph(&bert).num_edges()));

    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    let features = GraphFeatures::from_graph(&graph);
    println!("\n== GNN forward by depth ==");
    for k in [1usize, 3, 5] {
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(0);
        let encoder =
            GnnEncoder::new(&mut store, EncoderConfig { hidden_dim: 32, num_gat_layers: k }, &mut rng);
        // One graph is the encoder pass with no candidate deltas.
        let forward = || {
            let mut tape = Tape::new();
            let embedding = encoder.encode_candidates(&mut tape, &store, &features, &[]);
            tape.value(embedding).sum()
        };
        report(&format!("gnn_forward_by_depth/{k}"), time_ns(2, iters, forward));
    }

    // Per-step policy evaluation: the full agent forward (encode the current
    // graph + K candidates from the observation's features and sparse
    // candidate deltas in one delta-aware pass, score all pairs, estimate the
    // value) on one environment observation per workload; the environment's
    // derivation of those inputs is the `featurize/*` series.
    // `XRLFLOW_MAX_CANDIDATES` bounds K (CI smoke uses a small value).
    println!("\n== per-step policy evaluation: batched+delta ==");
    let max_candidates = env_usize("XRLFLOW_MAX_CANDIDATES", 64);
    let mut config = XrlflowConfig::bench();
    config.env.max_candidates = max_candidates;
    let agent = XrlflowAgent::new(&config, 0);
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let mut env = Environment::new(
            graph,
            RuleSet::standard(),
            InferenceSimulator::new(DeviceProfile::gtx1080()),
            config.env.clone(),
        );
        let obs = env.reset(0);
        println!("-- {} ({} candidates)", kind.name(), obs.num_candidates());
        report(
            &format!("featurize/candidate_deltas/{}", kind.name()),
            time_ns(1, iters.max(20), || {
                let current = GraphFeatures::from_graph(&obs.graph);
                let deltas: Vec<_> = obs
                    .candidates
                    .iter()
                    .map(|c| GraphFeatures::delta_from_base_and_patch(&obs.graph, &current, c.patch()))
                    .collect();
                std::hint::black_box(deltas).len()
            }),
        );
        let batched_ns = time_ns(1, iters, || agent.policy_logits_batched(&obs).1);
        report(&format!("policy_evaluation/batched/{}", kind.name()), batched_ns);

        // The second step of an episode, whole decision: cold through
        // `act_with_tape` (what every step cost before the carry), carried
        // through the episode evaluator. Every iteration replays the episode's
        // first step untimed — a fresh observation, because the evaluator
        // only carries into a graph materialised after its decision — with a
        // seeded draw that is not the No-Op, the same candidate every time.
        let rng = |seed: u64| XorShiftRng::new(seed);
        let seed = (0..64)
            .find(|&seed| agent.act(&obs, &mut rng(seed), false).action != obs.noop_action())
            .expect("some seed samples a candidate");
        let action = agent.act(&obs, &mut rng(seed), false).action;
        let next = env.step(&obs, action).observation;
        // Steps are a few hundred µs: enough of them to time warm caches
        // even at the CI smoke scale, as for the featurisation series.
        const WARM_UP: usize = 3;
        let iters = iters.max(20);
        // The chosen candidate's features, derived from the first graph's
        // and its delta — what a carried step runs instead of `from_graph` —
        // into a freshly stepped graph, whose structure index the
        // derivation builds and the step's candidate generation then reads.
        let current = GraphFeatures::from_graph(&obs.graph);
        let chosen = &obs.candidates[action];
        let delta = GraphFeatures::delta_from_base_and_patch(&obs.graph, &current, chosen.patch());
        let stepped = || chosen.materialize(&obs.graph).unwrap();
        report(
            &format!("featurize/successor/{}", kind.name()),
            time_with_setup_ns(WARM_UP, iters, stepped, |next| current.successor(&delta, next).num_edges()),
        );
        let mut tape = Tape::new();
        let cold_ns =
            time_ns(WARM_UP, iters, || agent.act_with_tape(&mut tape, &next, &mut rng(0), true).value);
        let mut scratch = EpisodeScratch::default();
        let mut policy = agent.episode(&mut scratch);
        let mut carried = std::time::Duration::ZERO;
        for iter in 0..WARM_UP + iters {
            let first = env.reset(0);
            assert_eq!(policy.act(&first, Some(&mut rng(seed))).action, action);
            let next = env.step(&first, action).observation;
            let start = Instant::now();
            black_box(policy.act(&next, None).value);
            if iter >= WARM_UP {
                carried += start.elapsed();
            }
        }
        let carried_ns = carried.as_nanos() as f64 / iters as f64;
        // The readout alone, re-recorded on the tape of an encoder step of
        // each kind: the first observation cold (the runs are kept for a
        // backward pass), the one after `action` carried.
        let mut store = ParamStore::new();
        let encoder = GnnEncoder::new(&mut store, config.encoder, &mut rng(0));
        let (mut tape, mut episode) = (Tape::new(), EncoderEpisode::new());
        let mut readout_ns = |obs: &xrlflow_env::Observation, advance_to: Option<usize>| {
            tape.recycle();
            encoder.encode_step(&mut tape, &store, &obs.features, &obs.deltas, &mut episode);
            let ns = time_ns(WARM_UP, iters, || episode.readout_again(&mut tape));
            if let Some(chosen) = advance_to {
                episode.advance(&tape, &obs.deltas, chosen);
            }
            ns
        };
        report(&format!("readout/cold/{}", kind.name()), readout_ns(&obs, Some(action)));
        report(&format!("readout/carried/{}", kind.name()), readout_ns(&next, None));

        report(&format!("policy_evaluation/cold/{}", kind.name()), cold_ns);
        report(&format!("policy_evaluation/carried/{}", kind.name()), carried_ns);
        report_ratio(&format!("policy_evaluation/carry_speedup/{}", kind.name()), cold_ns / carried_ns);
    }

    // Whole greedy episodes, `greedy_optimize` as the serving leader runs
    // it: each on a fresh scratch, whose buffers grow from empty and are
    // freed after, or on one kept across episodes. The two alternate, so
    // drift in the machine's speed lands on both. Seed 7's untrained policy
    // rewrites on every graph (2, 16 and 12 steps at K = 16).
    println!("\n== greedy episode: fresh vs kept scratch ==");
    let agent = XrlflowAgent::new(&config, 7);
    let mut kept = EpisodeScratch::default();
    let iters = iters.max(20);
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3] {
        let mut env = Environment::new(
            build_model(kind, ModelScale::Bench).unwrap(),
            RuleSet::standard(),
            InferenceSimulator::new(DeviceProfile::gtx1080()),
            config.env.clone(),
        );
        // A fresh scratch is built and dropped inside the timed span, so
        // its growth and its freeing are both counted.
        let mut timed = |scratch: Option<&mut EpisodeScratch>| {
            let start = Instant::now();
            let mut fresh = EpisodeScratch::default();
            black_box(greedy_optimize(&agent, &mut env, scratch.unwrap_or(&mut fresh)).stats.steps);
            drop(fresh);
            start.elapsed()
        };
        const WARM_UP: usize = 3;
        let (mut fresh, mut kept_time) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
        for iter in 0..WARM_UP + iters {
            let fresh_run = timed(None);
            let kept_run = timed(Some(&mut kept));
            if iter >= WARM_UP {
                fresh += fresh_run;
                kept_time += kept_run;
            }
        }
        let steps = greedy_optimize(&agent, &mut env, &mut kept).stats.steps;
        println!("-- {} ({steps} steps)", kind.name());
        let (fresh_ns, kept_ns) =
            (fresh.as_nanos() as f64 / iters as f64, kept_time.as_nanos() as f64 / iters as f64);
        report(&format!("greedy_episode/fresh/{}", kind.name()), fresh_ns);
        report(&format!("greedy_episode/kept/{}", kind.name()), kept_ns);
        report_ratio(&format!("greedy_episode/keep_speedup/{}", kind.name()), fresh_ns / kept_ns);
    }

    finish("bench_gnn");
}
