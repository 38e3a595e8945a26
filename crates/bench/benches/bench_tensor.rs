//! Micro-benchmarks for the tensor hot paths: the tiled matmul kernels at
//! real GAT-layer shapes (against the retained naive reference), the
//! backward kernels (`G·Bᵀ` in each of its forms, `Aᵀ·G`, the `q = 1` outer
//! product) at the shapes the reverse walk multiplies, a full tape
//! forward/backward step on a recycled tape, and the gradient-buffer reuse
//! primitives behind the PPO update's index-ordered merge.

use xrlflow_bench::{finish, iters_from_env, report, report_ratio, time_ns};
use xrlflow_tensor::{GradBuffer, Mlp, ParamStore, Tape, Tensor, XorShiftRng};

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
    // the weight-gradient shape of the backward pass ([H, N] x [N, H]).
    println!("== matmul: tiled kernel vs naive reference ==");
    for (m, k, n) in [(256usize, 64usize, 64usize), (256, 64, 1), (64, 256, 64)] {
        let a = random_tensor(&mut rng, &[m, k]);
        let b = random_tensor(&mut rng, &[k, n]);
        // Sample the skinny shapes harder: an 8 µs measurement needs many
        // more repetitions than a 100 µs one to ride out scheduler blips.
        let shape_iters = iters * (256 * 64 * 64 / (m * k * n)).max(1);
        let tiled = time_ns(2, shape_iters, || a.matmul(&b).sum());
        let naive = time_ns(2, shape_iters, || a.matmul_naive(&b).sum());
        report(&format!("matmul/tiled/{m}x{k}x{n}"), tiled);
        report(&format!("matmul/naive/{m}x{k}x{n}"), naive);
        report_ratio(&format!("matmul/tiled_speedup/{m}x{k}x{n}"), naive / tiled);
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

    // The PPO update's gradient-buffer primitives: allocating a buffer per
    // transition vs zero-filling a pooled one, and the position-ordered merge.
    println!("\n== gradient buffers: pooling and merge ==");
    let alloc = time_ns(2, iters, || GradBuffer::zeros_like(&store).norm());
    let mut pooled = GradBuffer::zeros_like(&store);
    let zero_fill = time_ns(2, iters, || {
        pooled.zero_fill();
        pooled.norm()
    });
    report("grad_buffer/zeros_like", alloc);
    report("grad_buffer/zero_fill", zero_fill);
    report_ratio("grad_buffer/zero_fill_speedup", alloc / zero_fill);
    let mut merged = GradBuffer::zeros_like(&store);
    let contribution = GradBuffer::zeros_like(&store);
    report(
        "grad_buffer/merge",
        time_ns(2, iters, || {
            merged.merge(&contribution);
            merged.norm()
        }),
    );

    finish("bench_tensor");
}
