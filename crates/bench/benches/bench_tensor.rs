//! Micro-benchmarks for the tensor hot paths: the register-tiled matmul at
//! real GAT-layer and policy-head shapes, in whichever compiled form of the
//! tile this CPU dispatches to; the backward kernels (`G·Bᵀ` in each of its forms, `Aᵀ·G`, the
//! `q = 1` outer product) at the shapes the reverse walk multiplies; the
//! interleaved dot-product forms (`A·B`'s column, `G·Bᵀ`'s row, the fused
//! gather–scale–scatter's scale gradient); the node update's one-hot
//! lookup, forward and backward; a full
//! tape forward/backward step on a recycled tape; the tape's bias-add +
//! activation and standalone activation ops at encoder shapes; the
//! gradient-buffer reuse primitives behind the PPO update's index-ordered
//! merge; and one Adam step over the bench agent's parameters.

use std::hint::black_box;

use xrlflow_bench::{finish, iters_from_env, report, report_ratio, time_ns};
use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_tensor::{Activation, Adam, GradBuffer, Mlp, ParamStore, Tape, Tensor, XorShiftRng};

fn random_tensor(rng: &mut XorShiftRng, shape: &[usize]) -> Tensor {
    let numel: usize = shape.iter().product();
    let data: Vec<f32> = (0..numel).map(|_| rng.uniform(-1.0, 1.0)).collect();
    Tensor::from_vec(data, shape)
}

fn main() {
    // Everything here is micro-scale (µs per iteration), so the pinned CI
    // iteration count that keeps the episode-driven benches quick would
    // leave these metrics — especially the speed-up ratios — at the mercy of
    // a single scheduler hiccup. Floor the sample
    // count; the whole binary still finishes in well under a second.
    let iters = iters_from_env(10).max(30);
    let mut rng = XorShiftRng::new(0xBEEF);

    // The shapes a GAT layer actually multiplies: the node projection
    // ([N, H] x [H, H]), the attention scoring column ([N, H] x [H, 1]) and
    // the weight-gradient shape of the backward pass ([H, N] x [N, H]); then
    // the bench encoder's projection of one BERT graph ([103, 32] x [32, 32],
    // the end-to-end ledger's `tensor.matmul_us` shape) and a policy-head
    // block of eleven candidates plus No-Op ([12, 64] x [64, 64]).
    println!("== matmul: the tiled kernel at encoder and policy-head shapes ==");
    for (m, k, n) in [(256usize, 64usize, 64usize), (256, 64, 1), (64, 256, 64), (103, 32, 32), (12, 64, 64)]
    {
        let a = random_tensor(&mut rng, &[m, k]);
        let b = random_tensor(&mut rng, &[k, n]);
        // Sample the skinny shapes harder: an 8 µs measurement needs many
        // more repetitions than a 100 µs one to ride out scheduler blips.
        let shape_iters = iters * (256 * 64 * 64 / (m * k * n)).max(1);
        report(&format!("matmul/tiled/{m}x{k}x{n}"), time_ns(2, shape_iters, || a.matmul(&b).sum()));
    }

    // The backward pass's input gradient `G·Bᵀ` at the shapes one
    // transition's reverse walk multiplies: a head layer's single row (the
    // value head, `[1, 64] × [32, 64]ᵀ`), a policy-head block of candidate
    // rows (`[K + 1, 64] × [64, 64]ᵀ` for K candidates) and a GAT
    // layer over a candidate block's ~400 rows (`[400, 32] × [32, 32]ᵀ`).
    println!("\n== matmul backward: G·Bᵀ at reverse-walk shapes ==");
    for (m, q, n) in [(1usize, 64usize, 32usize), (15, 64, 64), (400, 32, 32)] {
        let g = random_tensor(&mut rng, &[m, q]);
        let b = random_tensor(&mut rng, &[n, q]);
        let shape_iters = iters * (400 * 32 * 32 / (m * q * n)).clamp(1, 16);
        let ns = time_ns(2, shape_iters, || g.matmul_transposed_rhs(&b));
        report(&format!("matmul/transposed_rhs/{m}x{q}x{n}"), ns);
    }

    // The backward kernels at the shapes one transition's reverse walk
    // multiplies (bench encoder, H = 32): every weight gradient is an
    // `Aᵀ·G` over a graph block's rows (BERT's 109, a candidate block's
    // ~400), the attention-vector gradients are its `n = 1` column form, and
    // the attention projections' input gradients are `[R, 1] × a_srcᵀ`
    // outer products.
    println!("\n== matmul backward: Aᵀ·G weight gradients and the q = 1 outer product ==");
    for (m, q, n) in [(109usize, 32usize, 32usize), (400, 32, 32), (400, 32, 1)] {
        let a = random_tensor(&mut rng, &[m, q]);
        let g = random_tensor(&mut rng, &[m, n]);
        let shape_iters = iters * (400 * 32 * 32 / (m * q * n)).clamp(1, 16);
        let ns = time_ns(2, shape_iters, || a.matmul_transposed_lhs(&g));
        report(&format!("backward/matmul_at_g/{m}x{q}x{n}"), ns);
    }
    let score_grad = random_tensor(&mut rng, &[400, 1]);
    let attention = random_tensor(&mut rng, &[32, 1]);
    // (The product itself is the result: a serial `sum()` over its 12 800
    // elements would cost more than the kernel.)
    let outer = time_ns(2, iters * 16, || score_grad.matmul_transposed_rhs(&attention));
    report("backward/outer_product/400x1x32", outer);

    // The interleaved dot-product forms at the ledger's `tensor.matmul_us`
    // neighbour, a GAT layer's attention-score column over a candidate
    // block (`[152, 32] × [32, 1]`), its single-row `G·Bᵀ` (`[1, 32] ×
    // [152, 32]ᵀ`), and the fused gather–scale–scatter's scale gradient, one
    // dot per edge of a 400-edge list: the reverse walk of a recorded
    // aggregate whose rows are a constant, so it computes that gradient
    // alone (and the `[152, 32]` fill of its loss's gradient).
    println!("\n== interleaved dot products: A·B column, G·Bᵀ row, edge scale gradient ==");
    let block = random_tensor(&mut rng, &[152, 32]);
    let column = random_tensor(&mut rng, &[32, 1]);
    report("matmul/dot_rows/152x32x1", time_ns(2, iters * 16, || block.matmul(&column)));
    let row = random_tensor(&mut rng, &[1, 32]);
    report("matmul/transposed_rhs/1x32x152", time_ns(2, iters * 16, || row.matmul_transposed_rhs(&block)));
    let mut edges = ParamStore::new();
    let alpha = edges.register("alpha", random_tensor(&mut rng, &[400, 1]));
    let src: Vec<usize> = (0..400).map(|i| (i * 37) % 152).collect();
    let dst: Vec<usize> = (0..400).map(|i| i * 152 / 400).collect();
    let mut tape = Tape::new();
    let (h, a) = (tape.constant(block.clone()), tape.param(&edges, alpha));
    let aggregated = tape.gather_scatter_rows(h, a, &src, &dst, 152);
    let loss = tape.sum_all(aggregated);
    let mut scale_grads = GradBuffer::zeros_like(&edges);
    report(
        "backward/gather_scatter_scale/400x32",
        time_ns(2, iters * 16, || {
            scale_grads.zero_fill();
            tape.backward_into(loss, &mut scale_grads);
        }),
    );

    // The node update's `[x ‖ one_hot] · W` as the lookup runs it, at a
    // 127-row block (the bench encoder's 4 attribute columns, 41 operators,
    // H = 32): the forward op alone, then the reverse walk of a recorded
    // one — `W`'s gradient, `xᵀ·G` plus one row add per input row.
    println!("\n== node update: the operator's weight row looked up ==");
    let attributes = random_tensor(&mut rng, &[127, 4]);
    let ops: Vec<usize> = (0..127).map(|i| (i * 13) % 41).collect();
    let mut node_update = ParamStore::new();
    let weight = node_update.register("weight", random_tensor(&mut rng, &[45, 32]));
    let forward = time_ns(2, iters * 16, || {
        tape.recycle();
        let (x, w) = (tape.constant(attributes.clone()), tape.param(&node_update, weight));
        tape.matmul_lookup(x, &ops, w)
    });
    report("tape/matmul_lookup/127x45x32/forward", forward);
    tape.recycle();
    let (x, w) = (tape.constant(attributes.clone()), tape.param(&node_update, weight));
    let out = tape.matmul_lookup(x, &ops, w);
    let loss = tape.sum_all(out);
    let mut lookup_grads = GradBuffer::zeros_like(&node_update);
    let backward = time_ns(2, iters * 16, || {
        lookup_grads.zero_fill();
        tape.backward_into(loss, &mut lookup_grads);
    });
    report("tape/matmul_lookup/127x45x32/backward", backward);

    // One full train step (forward + backward) through an MLP of the policy
    // head's published size on one recycled tape, as the training stack runs
    // it.
    println!("\n== tape train step ==");
    let mut store = ParamStore::new();
    let mlp = Mlp::new(&mut store, "bench", &[64, 256, 64, 1], &mut rng);
    let x = random_tensor(&mut rng, &[32, 64]);
    let mut grads = GradBuffer::zeros_like(&store);
    let mut train_step = |tape: &mut Tape| {
        let input = tape.constant(x.clone());
        let out = mlp.forward(tape, &store, input);
        let sum = tape.sum_all(out);
        let loss = tape.scale(sum, 1.0 / 32.0); // the mean over the batch
        grads.zero_fill();
        tape.backward_into(loss, &mut grads);
        tape.value(loss).item()
    };
    let mut tape = Tape::new();
    let step = time_ns(2, iters, || {
        tape.recycle();
        train_step(&mut tape)
    });
    report("tape/train_step", step);

    // The element-wise ops one transition records, each matched on its
    // activation once per call: a dense layer's fused bias-add + activation
    // over the ledger's median-node block (`[103, 32]`; the GAT projection
    // is linear, the node update ReLU, the global update tanh) and the GAT
    // layer's standalone ReLU over that block and leaky ReLU over an edge
    // column of attention scores (`[400, 1]`). Operands are parameter
    // leaves, so an iteration imports them by reference and times the op.
    println!("\n== tape: bias-add + activation and standalone activations ==");
    let mut leaves = ParamStore::new();
    let block = leaves.register("block", random_tensor(&mut rng, &[103, 32]));
    let bias = leaves.register("bias", random_tensor(&mut rng, &[32]));
    let column = leaves.register("column", random_tensor(&mut rng, &[400, 1]));
    for (name, act) in
        [("linear", Activation::Linear), ("relu", Activation::Relu), ("tanh", Activation::Tanh)]
    {
        let ns = time_ns(2, iters * 16, || {
            tape.recycle();
            let (x, b) = (tape.param(&leaves, block), tape.param(&leaves, bias));
            tape.add_bias_act(x, b, act)
        });
        report(&format!("tape/add_bias_act/{name}/103x32"), ns);
    }
    for (name, act) in [("relu", Activation::Relu), ("leaky_relu", Activation::LeakyRelu)] {
        for (shape, input) in [("103x32", block), ("400x1", column)] {
            let ns = time_ns(2, iters * 16, || {
                tape.recycle();
                let x = tape.param(&leaves, input);
                tape.activate(x, act)
            });
            report(&format!("tape/activate/{name}/{shape}"), ns);
        }
    }

    // The PPO update's gradient-buffer primitives, each timed alone:
    // allocating (and dropping) a buffer per transition against zero-filling
    // a reused one, and the position-ordered merge.
    println!("\n== gradient buffers: reuse and merge ==");
    let alloc = time_ns(2, iters, || GradBuffer::zeros_like(&store));
    let mut pooled = GradBuffer::zeros_like(&store);
    let zero_fill = time_ns(2, iters, || black_box(&mut pooled).zero_fill());
    report("grad_buffer/zeros_like", alloc);
    report("grad_buffer/zero_fill", zero_fill);
    report_ratio("grad_buffer/zero_fill_speedup", alloc / zero_fill);
    let mut merged = GradBuffer::zeros_like(&store);
    let contribution = GradBuffer::zeros_like(&store);
    report("grad_buffer/merge", time_ns(2, iters, || black_box(&mut merged).merge(&contribution)));

    // One optimiser step, as the PPO update takes after every minibatch: a
    // store laid out like the bench agent's (same names and shapes, its
    // initial values) and a non-zero gradient in every slot.
    let agent = XrlflowAgent::new(&XrlflowConfig::bench(), 0);
    let mut params = ParamStore::new();
    let ids: Vec<_> = agent
        .store
        .snapshot()
        .entries()
        .iter()
        .map(|(name, value)| params.register(name, value.clone()))
        .collect();
    let mut grads = GradBuffer::zeros_like(&params);
    for &id in &ids {
        grads.accumulate(id, &random_tensor(&mut rng, params.value(id).shape()).scale(1e-2));
    }
    println!("\n== optimiser: one Adam step over {} parameters ==", params.num_scalars());
    let mut adam = Adam::new(3e-4);
    report(
        "optim/adam_step",
        time_ns(2, iters * 4, || {
            adam.step(&mut params, &grads);
            adam.steps()
        }),
    );

    finish("bench_tensor");
}
