use serde::{Deserialize, Serialize};

/// The Adam optimiser for one parameter tensor.
///
/// Every [`Linear`](crate::Linear) layer is stepped with two `Adam` states
/// (weight and bias); [`Adam::step`] updates the moments and the parameters
/// in place in one pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

/// Flushes a subnormal moment to zero.
///
/// A gradient that stops (a dead ReLU unit, say) decays its first moment
/// geometrically into the subnormal range after a few thousand steps, where
/// every multiply takes a slow microcode path. A subnormal moment moves a
/// parameter by less than 1e-290, which rounds away against any parameter
/// of normal magnitude, so flushing it leaves the trajectory unchanged.
#[inline(always)]
fn flush_subnormal(x: f64) -> f64 {
    if x.abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

impl Adam {
    /// Creates an optimiser state for `num_params` scalars with learning rate `lr`.
    pub fn new(num_params: usize, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Takes one Adam step in place: updates the moments from `grads` and
    /// subtracts `lr * m_hat / (sqrt(v_hat) + eps)` from `params`, without
    /// allocating. Moments below `f64::MIN_POSITIVE` are flushed to zero.
    ///
    /// # Panics
    ///
    /// Panics if `grads` or `params` has a different number of elements than
    /// the optimiser was created for.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(grads.len(), self.m.len(), "gradient length mismatch");
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        self.t += 1;
        let t = self.t as f64;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            *m = flush_subnormal(beta1 * *m + (1.0 - beta1) * g);
            *v = flush_subnormal(beta2 * *v + (1.0 - beta2) * g * g);
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_linalg::Matrix;

    #[test]
    fn first_step_is_learning_rate_sized() {
        let mut opt = Adam::new(2, 0.01);
        let mut params = [0.0, 0.0];
        opt.step(&mut params, &[1.0, -1.0]);
        // After bias correction the first step has magnitude ~lr.
        assert!((params[0] + 0.01).abs() < 1e-6);
        assert!((params[1] - 0.01).abs() < 1e-6);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 starting from 0.
        let mut x = [0.0];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let grad = 2.0 * (x[0] - 3.0);
            opt.step(&mut x, &[grad]);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn matrix_step_preserves_shape() {
        let mut opt = Adam::new(6, 0.001);
        let mut weights = Matrix::filled(2, 3, 1.0);
        opt.step(weights.as_mut_slice(), Matrix::filled(2, 3, 0.5).as_slice());
        assert_eq!(weights.shape(), (2, 3));
        assert!(weights.as_slice().iter().all(|w| *w < 1.0));
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_size_gradient_panics() {
        let mut opt = Adam::new(2, 0.01);
        opt.step(&mut [0.0, 0.0], &[1.0]);
    }

    #[test]
    fn stopped_gradient_flushes_the_first_moment_to_zero() {
        let mut opt = Adam::new(1, 1e-3);
        let mut w = [0.5];
        opt.step(&mut w, &[1e-3]);
        let after_signal = w[0];
        for _ in 0..8000 {
            opt.step(&mut w, &[0.0]);
            let m = opt.m[0];
            assert!(!m.is_subnormal(), "first moment went subnormal: {m:e}");
        }
        // 0.9^8000 underflows: the moment ends exactly zero, and the decaying
        // steps before that only ever moved the weight further the same way.
        assert_eq!(opt.m[0].to_bits(), 0);
        assert!(w[0] < after_signal);
    }
}
