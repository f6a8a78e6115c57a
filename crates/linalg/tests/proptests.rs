//! Property-based tests for the linear-algebra kernel.

use gcnrl_linalg::sparse::{splu, TripletBuilder};
use gcnrl_linalg::{Cholesky, Complex, LuDecomposition, Matrix};
use proptest::prelude::*;

fn small_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A^T)^T == A for arbitrary matrices.
    #[test]
    fn transpose_is_involution(data in prop::collection::vec(-100.0f64..100.0, 12)) {
        let m = Matrix::from_vec(3, 4, data).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// LU solve reproduces the right-hand side: A * solve(A, b) ~= b
    /// for diagonally dominant (hence non-singular) matrices.
    #[test]
    fn lu_solve_round_trip(m in small_matrix(4), b in prop::collection::vec(-5.0f64..5.0, 4)) {
        let mut a = m;
        for i in 0..4 {
            let row_sum: f64 = (0..4).map(|j| a[(i, j)].abs()).sum();
            a[(i, i)] += row_sum + 1.0;
        }
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, ri) in b.iter().zip(&back) {
            prop_assert!((bi - ri).abs() < 1e-6);
        }
    }

    /// Cholesky of A^T A + eps I always succeeds and reconstructs the matrix.
    #[test]
    fn cholesky_reconstruction(m in small_matrix(3)) {
        let spd = m.transpose().matmul(&m).unwrap();
        let spd = spd.add_elem(&Matrix::identity(3).scaled(1e-3)).unwrap();
        let chol = Cholesky::new(&spd).unwrap();
        let l = chol.lower();
        let back = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((back[(i, j)] - spd[(i, j)]).abs() < 1e-8);
            }
        }
    }

    /// Matrix multiplication is associative (within numerical tolerance).
    #[test]
    fn matmul_associative(a in small_matrix(3), b in small_matrix(3), c in small_matrix(3)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-6);
            }
        }
    }

    /// The sparse symbolic-once LU agrees with the dense LU on random sparse
    /// diagonally dominant systems.
    #[test]
    fn sparse_lu_matches_dense_lu(
        offdiag in prop::collection::vec(-5.0f64..5.0, 12),
        rows in prop::collection::vec(0usize..6, 12),
        cols in prop::collection::vec(0usize..6, 12),
        b in prop::collection::vec(-5.0f64..5.0, 6),
    ) {
        let n = 6;
        let mut dense = Matrix::zeros(n, n);
        let mut triplets = TripletBuilder::new(n);
        for ((&v, &r), &c) in offdiag.iter().zip(&rows).zip(&cols) {
            dense[(r, c)] += v;
            triplets.push(r, c, v);
        }
        // Diagonal dominance keeps both factorisations comfortably stable.
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| dense[(i, j)].abs()).sum();
            dense[(i, i)] += row_sum + 1.0;
            triplets.push(i, i, row_sum + 1.0);
        }
        let sparse = triplets.build().unwrap();
        let x_dense = LuDecomposition::new(&dense).unwrap().solve(&b).unwrap();
        let x_sparse = splu(&sparse).unwrap().solve(&b).unwrap();
        for (d, s) in x_dense.iter().zip(&x_sparse) {
            prop_assert!((d - s).abs() < 1e-9 * (1.0 + d.abs()), "{} vs {}", d, s);
        }
    }

    /// Transpose-free matrix products equal their explicit-transpose forms.
    #[test]
    fn transposed_products_agree(a in small_matrix(4), b in small_matrix(4)) {
        let ta = a.matmul_transa(&b).unwrap();
        let ta_ref = a.transpose().matmul(&b).unwrap();
        let tb = a.matmul_transb(&b).unwrap();
        let tb_ref = a.matmul(&b.transpose()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((ta[(i, j)] - ta_ref[(i, j)]).abs() < 1e-12);
                prop_assert!((tb[(i, j)] - tb_ref[(i, j)]).abs() < 1e-12);
            }
        }
    }

    /// Complex multiplication magnitude is multiplicative: |ab| == |a||b|.
    #[test]
    fn complex_abs_multiplicative(ar in -10.0f64..10.0, ai in -10.0f64..10.0,
                                  br in -10.0f64..10.0, bi in -10.0f64..10.0) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
    }
}

/// Deterministic entries spanning sixteen decades, with exact `0.0` and
/// `-0.0` mixed in, so any reordering of a sum shows in the low bits and the
/// zero-skipping paths are exercised.
fn entries(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 8 {
                0 => 0.0,
                1 => -0.0,
                _ => {
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                    let decade = ((state >> 3) % 16) as i32 - 8;
                    unit * 10f64.powi(decade)
                }
            }
        })
        .collect()
}

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, entries(rows * cols, seed)).unwrap()
}

/// The specification of every GEMM: each output element starts at `init`
/// and adds `lhs(i, k) * rhs(k, j)` for `k` ascending, one rounding per
/// multiply and one per add.
fn reference(
    (m, depth, n): (usize, usize, usize),
    lhs: impl Fn(usize, usize) -> f64,
    rhs: impl Fn(usize, usize) -> f64,
    init: f64,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = init;
            for k in 0..depth {
                acc += lhs(i, k) * rhs(k, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Checks all three GEMMs against [`reference`] for an `n x w` left operand
/// and a right operand of inner width `w2`.
fn assert_gemms_match_reference(n: usize, w: usize, w2: usize, seed: u64) {
    let a = filled(n, w, seed);
    // matmul: (n x w) (w x w2), from +0.0.
    let b = filled(w, w2, seed ^ 1);
    let want = reference((n, w, w2), |i, k| a[(i, k)], |k, j| b[(k, j)], 0.0);
    assert_eq!(bits(&a.matmul(&b).unwrap()), want, "matmul {n}x{w}x{w2}");
    // matmul_transa: (n x w)^T (n x w2), depth n, from +0.0.
    let c = filled(n, w2, seed ^ 2);
    let want = reference((w, n, w2), |i, k| a[(k, i)], |k, j| c[(k, j)], 0.0);
    assert_eq!(
        bits(&a.matmul_transa(&c).unwrap()),
        want,
        "matmul_transa {n}x{w}x{w2}"
    );
    // matmul_transb: (n x w) (w2 x w)^T, from -0.0 like `Iterator::sum`.
    let d = filled(w2, w, seed ^ 3);
    let want = reference((n, w, w2), |i, k| a[(i, k)], |k, j| d[(j, k)], -0.0);
    assert_eq!(
        bits(&a.matmul_transb(&d).unwrap()),
        want,
        "matmul_transb {n}x{w}x{w2}"
    );
}

/// Register blocking never changes a bit: every GEMM equals the naive
/// k-ascending triple loop for n in 1..=40 rows and widths that straddle the
/// register tile (1, 3, 10, 64, 65).
#[test]
fn gemms_are_bit_identical_to_the_naive_triple_loop() {
    const WIDTHS: [usize; 5] = [1, 3, 10, 64, 65];
    for n in 1..=40 {
        for (i, &w) in WIDTHS.iter().enumerate() {
            let w2 = WIDTHS[(i + n) % WIDTHS.len()];
            assert_gemms_match_reference(n, w, w2, (n * 131 + w) as u64);
        }
    }
}

/// An all-zero row of `self` with a right operand of negative entries: the
/// products are all `-0.0`, so `matmul_transb` keeps its `-0.0` start while
/// `matmul` (zero terms skipped, start `+0.0`) stays `+0.0`.
#[test]
fn signed_zero_start_values_are_preserved() {
    let zero_row = Matrix::zeros(1, 3);
    let negative = Matrix::filled(3, 3, -1.0);
    assert!(zero_row.matmul_transb(&negative).unwrap()[(0, 0)].is_sign_negative());
    assert!(zero_row.matmul(&negative).unwrap()[(0, 0)].is_sign_positive());
    assert!(negative
        .matmul_transa(&Matrix::zeros(3, 2))
        .unwrap()
        .as_slice()
        .iter()
        .all(|v| v.to_bits() == 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes, including ones no tile size divides.
    #[test]
    fn gemms_match_the_reference_on_random_shapes(
        n in 1usize..41,
        w in 1usize..70,
        w2 in 1usize..70,
        seed in 0u64..1_000_000,
    ) {
        assert_gemms_match_reference(n, w, w2, seed);
    }

    /// Each block of a block-diagonal product is bit-identical to the plain
    /// product of that block.
    #[test]
    fn row_block_products_match_per_block_products(
        n in 1usize..12,
        blocks in 1usize..6,
        w in 1usize..70,
        seed in 0u64..1_000_000,
    ) {
        let adjacency = filled(n, n, seed);
        let stacked = filled(blocks * n, w, seed ^ 7);
        let product = adjacency.matmul_row_blocks(&stacked).unwrap();
        prop_assert_eq!(product.shape(), (blocks * n, w));
        for b in 0..blocks {
            let block = Matrix::from_vec(
                n,
                w,
                stacked.as_slice()[b * n * w..(b + 1) * n * w].to_vec(),
            )
            .unwrap();
            let want = bits(&adjacency.matmul(&block).unwrap());
            prop_assert_eq!(&bits(&product)[b * n * w..(b + 1) * n * w], &want[..]);
        }
        if n > 1 {
            prop_assert!(adjacency.matmul_row_blocks(&filled(n + 1, w, seed)).is_err());
        }
    }
}
