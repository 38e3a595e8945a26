//! Property-style tests over core data structures and invariants.
//!
//! The container has no access to crates.io, so instead of `proptest` these
//! are deterministic sweeps: every test draws its cases from a seeded
//! [`XorShiftRng`] (or enumerates a structured case grid), which keeps the
//! coverage style of property testing while staying dependency-free and
//! reproducible.

use xrlflow::cost::{CostModel, DeviceProfile, InferenceSimulator};
use xrlflow::graph::models::{build_model, ModelKind, ModelScale};
use xrlflow::graph::{Graph, GraphPatch, OpAttributes, OpKind, PatchRef, TensorShape};
use xrlflow::rewrite::{rules::standard_rules, RuleSet};
use xrlflow::rl::{gae, MaskedCategorical};
use xrlflow::tensor::{Tensor, XorShiftRng};

/// Builds a random MLP-style chain graph from a dimension list.
fn chain_graph(dims: &[usize], relu_mask: &[bool]) -> Graph {
    let mut g = Graph::new();
    let mut prev = g.add_input(TensorShape::new(vec![1, dims[0]])).into();
    for (i, pair) in dims.windows(2).enumerate() {
        let w = g.add_weight(TensorShape::new(vec![pair[0], pair[1]]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![prev, w.into()]).unwrap();
        prev = if relu_mask.get(i).copied().unwrap_or(false) {
            g.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap().into()
        } else {
            mm.into()
        };
    }
    g.mark_output(prev);
    g
}

/// Draws a random dimension list / relu mask pair.
fn random_chain(rng: &mut XorShiftRng) -> (Vec<usize>, Vec<bool>) {
    let layers = 2 + (rng.uniform(0.0, 1.0) * 4.0) as usize;
    let dims: Vec<usize> = (0..layers).map(|_| 1 + (rng.uniform(0.0, 1.0) * 63.0) as usize).collect();
    let relus: Vec<bool> = (0..5).map(|_| rng.uniform(0.0, 1.0) > 0.5).collect();
    (dims, relus)
}

#[test]
fn matmul_matches_reference() {
    for seed in 0..32u64 {
        let mut rng = XorShiftRng::new(seed);
        let m = 1 + (rng.uniform(0.0, 1.0) * 5.0) as usize;
        let k = 1 + (rng.uniform(0.0, 1.0) * 5.0) as usize;
        let n = 1 + (rng.uniform(0.0, 1.0) * 5.0) as usize;
        let a = Tensor::from_vec((0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[k, n]);
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.get(&[i, p]) * b.get(&[p, j]);
                }
                assert!((c.get(&[i, j]) - acc).abs() < 1e-4, "seed {seed}: mismatch at ({i},{j})");
            }
        }
    }
}

#[test]
fn transpose_is_involutive() {
    for seed in 0..32u64 {
        let mut rng = XorShiftRng::new(seed);
        let m = 1 + (rng.uniform(0.0, 1.0) * 7.0) as usize;
        let n = 1 + (rng.uniform(0.0, 1.0) * 7.0) as usize;
        let t = Tensor::from_vec((0..m * n).map(|_| rng.uniform(-5.0, 5.0)).collect(), &[m, n]);
        assert_eq!(t.transpose().transpose(), t);
    }
}

#[test]
fn broadcast_is_commutative() {
    let mut rng = XorShiftRng::new(11);
    for _ in 0..64 {
        let rank_a = 1 + (rng.uniform(0.0, 1.0) * 3.0) as usize;
        let rank_b = 1 + (rng.uniform(0.0, 1.0) * 3.0) as usize;
        let a: Vec<usize> = (0..rank_a).map(|_| 1 + (rng.uniform(0.0, 1.0) * 4.0) as usize).collect();
        let b: Vec<usize> = (0..rank_b).map(|_| 1 + (rng.uniform(0.0, 1.0) * 4.0) as usize).collect();
        let sa = TensorShape::new(a);
        let sb = TensorShape::new(b);
        assert_eq!(sa.broadcast(&sb), sb.broadcast(&sa), "{sa} vs {sb}");
    }
}

#[test]
fn chain_graphs_always_validate_and_candidates_stay_valid() {
    let rules = RuleSet::standard();
    for seed in 0..16u64 {
        let mut rng = XorShiftRng::new(seed);
        let (dims, relus) = random_chain(&mut rng);
        let g = chain_graph(&dims, &relus);
        assert!(g.validate().is_ok(), "seed {seed}: chain graph invalid");
        for c in rules.generate_candidates(&g, 16) {
            let out = c.materialize(&g).unwrap();
            assert!(out.validate().is_ok(), "seed {seed}: candidate from {} invalid", c.rule_name);
            // Rewrites never change the graph output shape.
            assert_eq!(
                out.tensor_shape(out.outputs()[0]).unwrap(),
                g.tensor_shape(g.outputs()[0]).unwrap(),
                "seed {seed}: output shape changed by {}",
                c.rule_name
            );
        }
    }
}

/// Replays a patch through the pre-patch eager mutation path — the public
/// `Graph` API a rule used to call directly (`add_node` re-running shape
/// inference, `replace_all_uses`, `eliminate_dead_nodes`) — giving an
/// independent reference semantics for `Graph::apply_patch`, which instead
/// splices pre-inferred nodes without re-running inference.
fn eager_reference_apply(base: &Graph, patch: &GraphPatch) -> Graph {
    let mut g = base.clone();
    let mut new_ids = Vec::new();
    for pn in patch.added_nodes() {
        if pn.op == OpKind::Constant && pn.inputs.is_empty() {
            new_ids.push(g.add_constant(pn.outputs[0].clone()));
            continue;
        }
        let inputs =
            pn.inputs.iter().map(|r| r.resolve(&new_ids).expect("patch refs resolve in order")).collect();
        let id = g
            .add_node(pn.op, pn.attrs.clone(), inputs)
            .expect("eager replay re-infers the same shapes the builder inferred");
        new_ids.push(id);
    }
    for (from, to) in patch.rewires() {
        let to = to.resolve(&new_ids).expect("rewire target resolves");
        g.replace_all_uses(*from, to).expect("builder checked rewire shapes");
    }
    g.eliminate_dead_nodes();
    g
}

#[test]
fn apply_patch_matches_eager_clone_path_for_every_rule() {
    // For every rule and every application site on the evaluated workloads,
    // materialising the patch must produce a graph with the same canonical
    // hash as the eager clone-and-mutate path (and identical pre-inferred
    // shapes, since the replay re-runs shape inference from scratch).
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let g = build_model(kind, ModelScale::Bench).unwrap();
        let mut sites_checked = 0usize;
        for rule in standard_rules() {
            for site in rule.find_matches(&g) {
                let Ok(patch) = rule.build_patch(&g, &site) else { continue };
                let patched = g.apply_patch(&patch).expect("patch applies to its base");
                let reference = eager_reference_apply(&g, &patch);
                assert_eq!(
                    patched.canonical_hash(),
                    reference.canonical_hash(),
                    "{kind}: {} diverges from the eager path",
                    rule.name()
                );
                assert!(patched.validate().is_ok(), "{kind}: {} patch output invalid", rule.name());
                sites_checked += 1;
            }
        }
        assert!(sites_checked >= 5, "{kind}: expected several rule application sites, got {sites_checked}");
    }
}

#[test]
fn patch_structural_hash_deduplicates_consistently() {
    // Identical patches hash identically; distinct sites hash distinctly
    // (within one base graph) — the invariant candidate deduplication uses.
    let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    for rule in standard_rules() {
        let sites = rule.find_matches(&g);
        let mut hashes = std::collections::HashSet::new();
        for site in &sites {
            let Ok(patch) = rule.build_patch(&g, site) else { continue };
            let rebuilt = rule.build_patch(&g, site).unwrap();
            assert_eq!(
                patch.structural_hash(),
                rebuilt.structural_hash(),
                "{} not deterministic",
                rule.name()
            );
            hashes.insert(patch.structural_hash());
        }
        if sites.len() > 1 {
            assert!(hashes.len() > 1, "{}: all sites collapsed to one patch hash", rule.name());
        }
    }
}

#[test]
fn cost_model_and_simulator_are_positive_and_finite() {
    let cm = CostModel::new(DeviceProfile::gtx1080());
    let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
    for seed in 100..116u64 {
        let mut rng = XorShiftRng::new(seed);
        let (dims, relus) = random_chain(&mut rng);
        let g = chain_graph(&dims, &relus);
        let cost = cm.graph_cost_ms(&g);
        let e2e = sim.measure_ms(&g, 0);
        assert!(cost >= 0.0 && cost.is_finite(), "seed {seed}");
        assert!(e2e > 0.0 && e2e.is_finite(), "seed {seed}");
        // Launch overhead means E2E is never cheaper than the pure compute estimate.
        assert!(e2e >= cost * 0.5, "seed {seed}: e2e {e2e} vs cost {cost}");
    }
}

#[test]
fn masked_categorical_never_samples_invalid() {
    for seed in 0..24u64 {
        let mut rng = XorShiftRng::new(seed);
        let n = 2 + (seed as usize % 8);
        let logits: Vec<f32> = (0..n).map(|_| rng.uniform(-5.0, 5.0)).collect();
        let mut mask = vec![true; n];
        // Invalidate every other action, keeping at least one valid.
        for i in (1..mask.len()).step_by(2) {
            mask[i] = false;
        }
        let dist = MaskedCategorical::new(logits, mask.clone());
        for _ in 0..50 {
            assert!(mask[dist.sample(&mut rng)], "seed {seed}: sampled an invalid action");
        }
        let sum: f32 = dist.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "seed {seed}");
    }
}

#[test]
fn gae_is_zero_for_perfect_value_function() {
    // If rewards are exactly the TD-consistent values with gamma = 0, the
    // advantage is zero everywhere.
    for seed in 0..16u64 {
        let mut rng = XorShiftRng::new(seed);
        let len = 1 + (seed as usize % 19);
        let values: Vec<f32> = (0..len).map(|_| rng.uniform(0.0, 1.0)).collect();
        let rewards = values.clone();
        let dones = vec![true; values.len()];
        let (adv, _) = gae(&rewards, &values, &dones, 0.0, 0.0, 0.95);
        for a in adv {
            assert!(a.abs() < 1e-5, "seed {seed}");
        }
    }
}

#[test]
fn graph_canonical_hash_is_stable_under_clone_and_compaction() {
    for seed in 50..66u64 {
        let mut rng = XorShiftRng::new(seed);
        let (dims, _) = random_chain(&mut rng);
        let g = chain_graph(&dims, &[true, true, true, true, true]);
        let mut clone = g.clone();
        assert_eq!(g.canonical_hash(), clone.canonical_hash());
        clone.compact();
        assert_eq!(g.canonical_hash(), clone.canonical_hash());
    }
}

#[test]
fn patch_refs_roundtrip_and_noop_detection() {
    let g = chain_graph(&[8, 8], &[true]);
    let outputs = g.outputs()[0];
    // A rewire of a tensor onto itself is detectably a no-op.
    let mut b = xrlflow::graph::PatchBuilder::new(&g);
    b.replace_all_uses(outputs, PatchRef::Base(outputs)).unwrap();
    assert!(b.finish().is_noop());
}
