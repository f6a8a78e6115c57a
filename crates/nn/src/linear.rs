use crate::Adam;
use gcnrl_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A reference-counted activation matrix shared between the forward-pass
/// caller and the backward-pass cache, so caching an input never copies it.
pub type SharedMatrix = Arc<Matrix>;

/// A dense (fully-connected) layer `Y = X W + b`.
///
/// Rows of `X` are samples (one row per circuit component in the GCN agent),
/// columns are features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f64>,
}

/// Forward-pass cache needed by [`Linear::backward`]; holds a shared
/// reference to the input activation rather than a clone of it.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearCache {
    input: SharedMatrix,
}

impl LinearCache {
    /// A cache for a forward pass whose input was `input`: lets a pass run
    /// on several inputs stacked row-wise and be back-propagated per input.
    pub fn new(input: SharedMatrix) -> Self {
        LinearCache { input }
    }
}

/// Gradients produced by [`Linear::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGradients {
    /// Gradient of the loss with respect to the weight matrix.
    pub d_weight: Matrix,
    /// Gradient of the loss with respect to the bias vector.
    pub d_bias: Vec<f64>,
    /// Gradient of the loss with respect to the layer input.
    pub d_input: Matrix,
}

impl Linear {
    /// Creates a layer with Xavier/Glorot-uniform weights and zero bias,
    /// deterministically seeded so experiments are reproducible.
    pub fn xavier(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weight = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..limit));
        Linear {
            weight,
            bias: vec![0.0; out_dim],
        }
    }

    /// Creates a layer from explicit parameters (used when loading checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.cols()`.
    pub fn from_parameters(weight: Matrix, bias: Vec<f64>) -> Self {
        assert_eq!(
            bias.len(),
            weight.cols(),
            "bias length must match output dim"
        );
        Linear { weight, bias }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }

    /// Forward pass.  Returns the output and the cache for the backward pass;
    /// the cache shares `x` (no copy) — pass `Arc::new(x)` when handing over
    /// an owned intermediate activation.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward(&self, x: &SharedMatrix) -> (Matrix, LinearCache) {
        assert_eq!(x.cols(), self.in_dim(), "input feature dimension mismatch");
        let mut y = x.matmul(&self.weight).expect("dimensions checked");
        for row in y.as_mut_slice().chunks_exact_mut(self.bias.len()) {
            for (v, b) in row.iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        (y, LinearCache { input: x.clone() })
    }

    /// Backward pass given the gradient of the loss with respect to the output.
    ///
    /// # Panics
    ///
    /// Panics if `d_output` has the wrong shape for the cached input.
    pub fn backward(&self, cache: &LinearCache, d_output: &Matrix) -> LinearGradients {
        assert_eq!(d_output.rows(), cache.input.rows(), "row count mismatch");
        assert_eq!(d_output.cols(), self.out_dim(), "output dimension mismatch");
        // Transpose-free products: X^T dY and dY W^T without allocating the
        // transposed operands.
        let d_weight = cache
            .input
            .matmul_transa(d_output)
            .expect("dimensions checked");
        // Column sums, rows ascending from -0.0 like `Iterator::sum`.
        let mut d_bias = vec![-0.0; self.out_dim()];
        for row in d_output.as_slice().chunks_exact(self.out_dim()) {
            for (b, d) in d_bias.iter_mut().zip(row) {
                *b += d;
            }
        }
        let d_input = d_output
            .matmul_transb(&self.weight)
            .expect("dimensions checked");
        LinearGradients {
            d_weight,
            d_bias,
            d_input,
        }
    }

    /// Takes one Adam step on the weights (moments in `opt_w`) and the bias
    /// (moments in `opt_b`), in place.
    ///
    /// # Panics
    ///
    /// Panics if the gradient or optimiser sizes do not match the parameters.
    pub fn apply_update(
        &mut self,
        opt_w: &mut Adam,
        opt_b: &mut Adam,
        d_weight: &Matrix,
        d_bias: &[f64],
    ) {
        assert_eq!(
            d_weight.shape(),
            self.weight.shape(),
            "weight shape mismatch"
        );
        opt_w.step(self.weight.as_mut_slice(), d_weight.as_slice());
        opt_b.step(&mut self.bias, d_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_computation() {
        let layer = Linear::from_parameters(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap(),
            vec![0.5, -0.5],
        );
        let x = Arc::new(Matrix::from_rows(&[&[3.0, 4.0]]).unwrap());
        let (y, _) = layer.forward(&x);
        assert_eq!(y[(0, 0)], 3.5);
        assert_eq!(y[(0, 1)], 7.5);
    }

    #[test]
    fn forward_cache_shares_the_input_without_copying() {
        let layer = Linear::xavier(2, 2, 3);
        let x = Arc::new(Matrix::filled(1, 2, 1.0));
        let (_, cache) = layer.forward(&x);
        // Two strong references: the caller's and the cache's shared one.
        assert_eq!(Arc::strong_count(&x), 2);
        drop(cache);
        assert_eq!(Arc::strong_count(&x), 1);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let layer = Linear::xavier(3, 2, 7);
        let x = Arc::new(Matrix::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.3));
        let (y, cache) = layer.forward(&x);
        // Loss = sum of outputs, so dL/dY = 1.
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0);
        let grads = layer.backward(&cache, &ones);

        let eps = 1e-6;
        // Check a couple of weight entries by finite differences.
        for &(i, j) in &[(0usize, 0usize), (2usize, 1usize)] {
            let mut w_plus = layer.weight().clone();
            w_plus[(i, j)] += eps;
            let pert = Linear::from_parameters(w_plus, layer.bias().to_vec());
            let (y_plus, _) = pert.forward(&x);
            let numeric = (y_plus.sum() - y.sum()) / eps;
            assert!((grads.d_weight[(i, j)] - numeric).abs() < 1e-4);
        }
        // Bias gradient is the number of rows for a sum loss.
        assert!((grads.d_bias[0] - 4.0).abs() < 1e-9);
        // Input gradient equals row sums of W^T.
        let expected = ones.matmul(&layer.weight().transpose()).unwrap();
        assert_eq!(grads.d_input, expected);
    }

    #[test]
    fn xavier_is_deterministic_per_seed() {
        assert_eq!(Linear::xavier(5, 5, 1), Linear::xavier(5, 5, 1));
        assert_ne!(Linear::xavier(5, 5, 1), Linear::xavier(5, 5, 2));
    }

    #[test]
    fn apply_update_moves_parameters() {
        let mut layer = Linear::from_parameters(Matrix::identity(2), vec![0.0, 0.0]);
        let (mut opt_w, mut opt_b) = (Adam::new(4, 0.1), Adam::new(2, 0.1));
        let d_weight = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        layer.apply_update(&mut opt_w, &mut opt_b, &d_weight, &[1.0, 0.0]);
        // A first Adam step moves each parameter with a non-zero gradient by
        // ~lr against the gradient's sign and leaves the others in place.
        assert!((layer.weight()[(0, 0)] - 0.9).abs() < 1e-6);
        assert!((layer.weight()[(1, 1)] - 1.1).abs() < 1e-6);
        assert_eq!(layer.weight()[(0, 1)], 0.0);
        assert!((layer.bias()[0] + 0.1).abs() < 1e-6);
        assert_eq!(layer.bias()[1], 0.0);
        assert_eq!((opt_w.steps(), opt_b.steps()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_input_dim_panics() {
        let layer = Linear::xavier(3, 2, 0);
        let x = Arc::new(Matrix::zeros(1, 4));
        let _ = layer.forward(&x);
    }

    #[test]
    fn num_parameters_counts_weights_and_bias() {
        assert_eq!(Linear::xavier(3, 4, 0).num_parameters(), 16);
    }
}
