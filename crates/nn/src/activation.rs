use gcnrl_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Element-wise activation functions used by the actor–critic networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit, used in the hidden layers (as in the paper's GCN).
    Relu,
    /// Hyperbolic tangent, used by the actor's output head to produce actions
    /// in `[-1, 1]`.
    Tanh,
    /// Identity (no activation), used by the critic's value head.
    Identity,
}

impl Activation {
    /// Applies the activation element-wise, in place. The output doubles as
    /// the cache for [`Activation::backward`].
    pub fn forward(self, mut x: Matrix) -> Matrix {
        let values = x.as_mut_slice();
        match self {
            Activation::Relu => values.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Tanh => values.iter_mut().for_each(|v| *v = v.tanh()),
            Activation::Identity => {}
        }
        x
    }

    /// Backward pass, in place: multiplies `d_output` element-wise by the
    /// activation derivative evaluated from the forward `output`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn backward(self, output: &Matrix, mut d_output: Matrix) -> Matrix {
        assert_eq!(
            output.shape(),
            d_output.shape(),
            "activation shape mismatch"
        );
        let pairs = d_output.as_mut_slice().iter_mut().zip(output.as_slice());
        match self {
            Activation::Relu => pairs.for_each(|(d, &y)| *d = if y > 0.0 { *d } else { 0.0 }),
            Activation::Tanh => pairs.for_each(|(d, &y)| *d *= 1.0 - y * y),
            Activation::Identity => {}
        }
        d_output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]).unwrap();
        let y = Activation::Relu.forward(x);
        assert_eq!(y[(0, 0)], 0.0);
        assert_eq!(y[(0, 1)], 2.0);
        let dy = Activation::Relu.backward(&y, Matrix::filled(1, 2, 1.0));
        assert_eq!(dy[(0, 0)], 0.0);
        assert_eq!(dy[(0, 1)], 1.0);
    }

    #[test]
    fn tanh_range_and_derivative() {
        let x = Matrix::from_rows(&[&[0.0, 100.0, -100.0]]).unwrap();
        let y = Activation::Tanh.forward(x);
        assert_eq!(y[(0, 0)], 0.0);
        assert!((y[(0, 1)] - 1.0).abs() < 1e-9);
        assert!((y[(0, 2)] + 1.0).abs() < 1e-9);
        let dy = Activation::Tanh.backward(&y, Matrix::filled(1, 3, 1.0));
        assert!((dy[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(dy[(0, 1)].abs() < 1e-9);
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.3]]).unwrap();
        let y = Activation::Tanh.forward(x);
        let grad = Activation::Tanh.backward(&y, Matrix::filled(1, 1, 1.0));
        let eps = 1e-6;
        let numeric = ((0.3f64 + eps).tanh() - 0.3f64.tanh()) / eps;
        assert!((grad[(0, 0)] - numeric).abs() < 1e-5);
    }

    #[test]
    fn identity_passes_through() {
        let x = Matrix::from_rows(&[&[1.5, -2.5]]).unwrap();
        let y = Activation::Identity.forward(x.clone());
        assert_eq!(y, x);
        let d = Matrix::filled(1, 2, 3.0);
        assert_eq!(Activation::Identity.backward(&y, d.clone()), d);
    }
}
