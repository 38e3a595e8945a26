//! Micro-benchmarks for the GNN encoder: featurisation, the forward pass at
//! different message-passing depths (the `k` ablation from DESIGN.md), and
//! the headline per-step policy-evaluation comparison — the serial
//! materialise-and-encode baseline against the batched + delta-aware path
//! the agent actually runs — with the host half of that path (featurise the
//! observation, derive all `K` sparse candidate deltas) as its own series,
//! and a mid-trajectory step through the episode evaluator, which reads the
//! observed graph's encoder rows from the step before (`carried`) against
//! the same step encoding the whole graph (`cold`) — and, on its own, the
//! readout both kinds of step end with (`readout/*`: the `K + 1` per-graph
//! row sums).

use std::hint::black_box;
use std::time::Instant;

use xrlflow_bench::{env_usize, finish, iters_from_env, report, report_ratio, time_ns};
use xrlflow_core::{XrlflowAgent, XrlflowConfig};
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
        report(
            &format!("gnn_forward_by_depth/{k}"),
            time_ns(2, iters, || encoder.encode_value(&store, &features).sum()),
        );
    }

    // Per-step policy evaluation: the full agent forward (featurise current
    // graph + K candidates, encode, score all pairs, estimate the value) on
    // one environment observation per workload. The serial baseline
    // materialises every candidate and runs K + 1 encoder tapes; the batched
    // path derives candidate features from patches and encodes one
    // block-diagonal batch. `XRLFLOW_MAX_CANDIDATES` bounds K (CI smoke uses
    // a small value).
    println!("\n== per-step policy evaluation: serial baseline vs batched+delta ==");
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
        let serial_ns = time_ns(1, iters, || agent.policy_logits_serial(&obs).1);
        let batched_ns = time_ns(1, iters, || agent.policy_logits_batched(&obs).1);
        report(&format!("policy_evaluation/serial/{}", kind.name()), serial_ns);
        report(&format!("policy_evaluation/batched/{}", kind.name()), batched_ns);
        report_ratio(&format!("policy_evaluation/speedup/{}", kind.name()), serial_ns / batched_ns);

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
        let mut tape = Tape::new();
        let cold_ns =
            time_ns(WARM_UP, iters, || agent.act_with_tape(&mut tape, &next, &mut rng(0), true).value);
        let mut policy = agent.episode();
        let mut carried = std::time::Duration::ZERO;
        for iter in 0..WARM_UP + iters {
            let first = env.reset(0);
            assert_eq!(policy.act(&first, &mut rng(seed), false).action, action);
            let next = env.step(&first, action).observation;
            let start = Instant::now();
            black_box(policy.act(&next, &mut rng(0), true).value);
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
            let current = GraphFeatures::from_graph(&obs.graph);
            let deltas: Vec<_> = obs
                .candidates
                .iter()
                .map(|c| GraphFeatures::delta_from_base_and_patch(&obs.graph, &current, c.patch()))
                .collect();
            tape.recycle();
            encoder.encode_step(&mut tape, &store, &current, &deltas, &mut episode);
            let ns = time_ns(WARM_UP, iters, || episode.readout_again(&mut tape));
            if let Some(chosen) = advance_to {
                episode.advance(&tape, &deltas, chosen);
            }
            ns
        };
        report(&format!("readout/cold/{}", kind.name()), readout_ns(&obs, Some(action)));
        report(&format!("readout/carried/{}", kind.name()), readout_ns(&next, None));

        report(&format!("policy_evaluation/cold/{}", kind.name()), cold_ns);
        report(&format!("policy_evaluation/carried/{}", kind.name()), carried_ns);
        report_ratio(&format!("policy_evaluation/carry_speedup/{}", kind.name()), cold_ns / carried_ns);
    }

    finish("bench_gnn");
}
