//! The graph-convolution propagation step of Kipf & Welling (paper Eq. 4).
//!
//! A GCN layer in the paper is `H' = σ(Â H W)` with
//! `Â = D̃^-1/2 (A + I) D̃^-1/2`.  The linear part (`H W`) and the activation
//! are handled by [`Linear`](crate::Linear) and
//! [`Activation`](crate::Activation); this module provides the neighbourhood
//! aggregation `Â H` and its backward pass.  Skipping the aggregation turns
//! the network into the paper's non-GCN ablation (NG-RL).

use gcnrl_linalg::Matrix;

/// Aggregates node features over the graph: `H' = Â H`.
///
/// `features` may stack the node features of several samples of the same
/// graph row-wise (`B·n` rows for `n` nodes); each `n`-row block is
/// aggregated on its own, bit-identically to a call with that block alone.
///
/// # Panics
///
/// Panics if `adjacency` is not square or the number of rows of `features`
/// is not a multiple of its dimension.
pub fn gcn_propagate(adjacency: &Matrix, features: &Matrix) -> Matrix {
    assert_eq!(
        adjacency.rows(),
        adjacency.cols(),
        "adjacency must be square"
    );
    assert!(
        features.rows().is_multiple_of(adjacency.cols()),
        "adjacency and feature dimensions must match"
    );
    adjacency
        .matmul_row_blocks(features)
        .expect("dimensions checked")
}

/// Backward pass of [`gcn_propagate`]: with a symmetric `Â`,
/// `dL/dH = Â^T dL/dH' = Â dL/dH'`.
///
/// # Panics
///
/// Panics under the same conditions as [`gcn_propagate`].
pub fn gcn_backprop(adjacency: &Matrix, d_output: &Matrix) -> Matrix {
    assert_eq!(
        adjacency.rows(),
        adjacency.cols(),
        "adjacency must be square"
    );
    // `Â^T dL/dH'` without materialising the transpose.
    adjacency
        .matmul_transa(d_output)
        .expect("dimensions checked")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normalised adjacency of a 3-node path graph 0 - 1 - 2 with self loops.
    fn path3() -> Matrix {
        // degrees with self loops: 2, 3, 2
        let d = [2.0f64, 3.0, 2.0];
        Matrix::from_fn(3, 3, |i, j| {
            let a = if i == j || (i as i64 - j as i64).abs() == 1 {
                1.0
            } else {
                0.0
            };
            a / (d[i] * d[j]).sqrt()
        })
    }

    #[test]
    fn propagation_mixes_neighbours_only() {
        let a_hat = path3();
        // One-hot feature on node 0.
        let h = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]).unwrap();
        let out = gcn_propagate(&a_hat, &h);
        assert!(out[(0, 0)] > 0.0);
        assert!(out[(1, 0)] > 0.0);
        // Node 2 is two hops away: untouched after one layer.
        assert_eq!(out[(2, 0)], 0.0);
        // After a second layer the information reaches node 2.
        let out2 = gcn_propagate(&a_hat, &out);
        assert!(out2[(2, 0)] > 0.0);
    }

    #[test]
    fn identity_adjacency_is_a_no_op() {
        let h = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        let out = gcn_propagate(&Matrix::identity(4), &h);
        assert_eq!(out, h);
    }

    #[test]
    fn backprop_is_adjoint_of_forward() {
        // <A h, g> == <h, A^T g> for arbitrary h, g.
        let a_hat = path3();
        let h = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 * 0.5);
        let g = Matrix::from_fn(3, 2, |r, c| (r as f64 - c as f64) * 0.3);
        let lhs = gcn_propagate(&a_hat, &h).hadamard(&g).unwrap().sum();
        let rhs = h.hadamard(&gcn_backprop(&a_hat, &g)).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn stacked_features_aggregate_block_by_block() {
        let a_hat = path3();
        let h1 = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 * 0.5);
        let h2 = Matrix::from_fn(3, 2, |r, c| (r as f64 - c as f64) * 0.3);
        let mut stacked = h1.as_slice().to_vec();
        stacked.extend_from_slice(h2.as_slice());
        let stacked = Matrix::from_vec(6, 2, stacked).unwrap();
        let out = gcn_propagate(&a_hat, &stacked);
        let mut want = gcn_propagate(&a_hat, &h1).as_slice().to_vec();
        want.extend_from_slice(gcn_propagate(&a_hat, &h2).as_slice());
        assert_eq!(out.as_slice(), &want[..]);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn dimension_mismatch_panics() {
        let _ = gcn_propagate(&Matrix::identity(3), &Matrix::zeros(4, 2));
    }
}
