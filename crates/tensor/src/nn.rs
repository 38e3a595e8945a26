//! Small neural-network building blocks on top of the autodiff tape.
//!
//! The blocks here are exactly what the X-RLflow agent needs: dense layers
//! with configurable activation and multi-layer perceptrons for the policy
//! and value heads (two hidden layers of `[256, 64]` in the paper's
//! Table 4).

use crate::rng::XorShiftRng;
use crate::tape::{Activation, ParamId, ParamStore, Tape, VarId};
use crate::tensor::Tensor;

/// Glorot/Xavier-uniform initialisation for a `[fan_in, fan_out]` matrix.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut XorShiftRng) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data: Vec<f32> = (0..fan_in * fan_out).map(|_| rng.uniform(-limit, limit)).collect();
    Tensor::from_vec(data, &[fan_in, fan_out])
}

/// A dense (fully connected) layer `y = act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    activation: Activation,
}

impl Linear {
    /// Creates a dense layer, registering its parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut XorShiftRng,
    ) -> Self {
        let weight = store.register(&format!("{name}.weight"), xavier_uniform(in_dim, out_dim, rng));
        let bias = store.register(&format!("{name}.bias"), Tensor::zeros(&[out_dim]));
        Self { weight, bias, activation }
    }

    /// Runs the layer on a `[rows, in_dim]` variable, producing `[rows, out_dim]`.
    ///
    /// Bias add and activation run as one fused op, so each dense layer
    /// materialises one intermediate (`xW`) instead of three.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: VarId) -> VarId {
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        let xw = tape.matmul(x, w);
        tape.add_bias_act(xw, b, self.activation)
    }

    /// [`Linear::forward`] on the rows `[x ‖ one_hot(classes)]` without
    /// building the one-hot ([`Tape::matmul_lookup`]): `x` is `[rows, k]`
    /// and needs no gradient, and the layer's input width is `k` plus the
    /// number of classes.
    /// Bit-identical to `forward` on the dense rows for finite parameters.
    pub fn forward_lookup(&self, tape: &mut Tape, store: &ParamStore, x: VarId, classes: &[usize]) -> VarId {
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        let xw = tape.matmul_lookup(x, classes, w);
        tape.add_bias_act(xw, b, self.activation)
    }
}

/// A multi-layer perceptron with hidden ReLU layers and a linear output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP with the given hidden sizes.
    ///
    /// `dims = [in, h1, h2, ..., out]`; hidden layers use ReLU, the last
    /// layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new(store: &mut ParamStore, name: &str, dims: &[usize], rng: &mut XorShiftRng) -> Self {
        assert!(dims.len() >= 2, "Mlp requires at least input and output dims");
        let mut layers = Vec::new();
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() { Activation::Linear } else { Activation::Relu };
            layers.push(Linear::new(store, &format!("{name}.{i}"), dims[i], dims[i + 1], act, rng));
        }
        Self { layers }
    }

    /// Runs the MLP on a `[rows, in_dim]` variable.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: VarId) -> VarId {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, store, h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Adam, GradBuffer};

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(7);
        let layer = Linear::new(&mut store, "l", 4, 3, Activation::Relu, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[5, 4]));
        let y = layer.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), &[5, 3]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = XorShiftRng::new(3);
        let t = xavier_uniform(10, 10, &mut rng);
        let limit = (6.0f32 / 20.0).sqrt();
        for &v in t.data() {
            assert!(v.abs() <= limit + 1e-6);
        }
        // Should not be all zeros.
        assert!(t.sq_norm() > 0.0);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(42);
        let mlp = Mlp::new(&mut store, "xor", &[2, 16, 1], &mut rng);
        let xs = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
        let ys = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4, 1]);
        let mut adam = Adam::new(0.02);
        let mut grads = GradBuffer::zeros_like(&store);
        let mut final_loss = f32::INFINITY;
        for _ in 0..800 {
            let mut tape = Tape::new();
            let x = tape.constant(xs.clone());
            let y = tape.constant(ys.clone());
            let pred = mlp.forward(&mut tape, &store, x);
            let diff = tape.sub(pred, y);
            let sq = tape.mul(diff, diff);
            let sum = tape.sum_all(sq);
            let loss = tape.scale(sum, 0.25); // the mean over the four cases
            final_loss = tape.value(loss).item();
            grads.zero_fill();
            tape.backward_into(loss, &mut grads);
            adam.step(&mut store, &grads);
        }
        assert!(final_loss < 0.05, "MLP failed to learn XOR: loss={final_loss}");
    }

    #[test]
    fn activations_apply() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        let r = tape.activate(x, Activation::Relu);
        assert_eq!(tape.value(r).data(), &[0.0, 2.0]);
        let l = tape.activate(x, Activation::LeakyRelu);
        assert!((tape.value(l).data()[0] + 0.2).abs() < 1e-6);
        let t = tape.activate(x, Activation::Tanh);
        assert!(tape.value(t).data()[1] < 1.0);
        let id = tape.activate(x, Activation::Linear);
        assert_eq!(tape.value(id), tape.value(x));
    }
}
