//! Sparse-vs-dense equivalence of the MNA solve path.
//!
//! Random well-conditioned circuits are generated and solved both through the
//! legacy dense reference path ([`AcCircuit::solve`]) and through the
//! compiled sparse path ([`AcCircuit::compile`], `G + jωC` restamping against
//! a symbolic-once LU); node voltages must agree to 1e-9 across a log sweep,
//! factor-once noise must match per-source dense solves, and the
//! struct-of-arrays sweep must be bit-identical to the scalar sweep.
//! Value-only restamp reuse and the singular error paths are covered by unit
//! tests below.

use gcnrl_linalg::Complex;
use gcnrl_sim::ac::log_sweep;
use gcnrl_sim::noise::{output_noise_psd_compiled, NoiseSource};
use gcnrl_sim::smallsignal::GROUND;
use gcnrl_sim::{AcCircuit, AcElement, SimError};
use proptest::prelude::*;

/// Builds a random but structurally well-conditioned circuit: a conductive
/// ladder to keep every node anchored, plus random cross conductances,
/// capacitances and moderate-transconductance VCCS elements.
fn random_circuit(
    n: usize,
    anchors: &[f64],
    cross: &[(usize, usize, f64, f64)],
    vccs: &[(usize, usize, f64)],
) -> AcCircuit {
    let mut ckt = AcCircuit::new(n);
    for (i, &g) in anchors.iter().enumerate().take(n) {
        let prev = if i == 0 { GROUND } else { i - 1 };
        ckt.add(AcElement::Conductance {
            a: prev,
            b: i,
            g: 1e-4 + g.abs(),
        });
        ckt.add(AcElement::Capacitance {
            a: i,
            b: GROUND,
            c: 1e-13 + g.abs() * 1e-11,
        });
    }
    for &(a, b, g, c) in cross {
        let (a, b) = (a % n, b % n);
        if a != b {
            ckt.add(AcElement::Conductance { a, b, g: g.abs() });
            ckt.add(AcElement::Capacitance { a, b, c: c.abs() });
        }
    }
    for &(out, ctrl, gm) in vccs {
        let (out, ctrl) = (out % n, ctrl % n);
        ckt.add(AcElement::Vccs {
            out_p: out,
            out_n: GROUND,
            ctrl_p: ctrl,
            ctrl_n: GROUND,
            gm,
        });
    }
    ckt.add(AcElement::CurrentSource {
        a: GROUND,
        b: 0,
        value: Complex::ONE,
    });
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse and dense node voltages agree to 1e-9 across a log sweep.
    #[test]
    fn sparse_matches_dense_across_log_sweep(
        anchors in prop::collection::vec(1e-4f64..1e-2, 10),
        cross_idx in prop::collection::vec(0usize..10, 8),
        cross_g in prop::collection::vec(1e-5f64..1e-3, 4),
        cross_c in prop::collection::vec(1e-14f64..1e-11, 4),
        vccs_idx in prop::collection::vec(0usize..10, 4),
        gm in prop::collection::vec(1e-5f64..1e-3, 2),
        nodes in 4usize..11,
    ) {
        let cross: Vec<(usize, usize, f64, f64)> = (0..4)
            .map(|k| (cross_idx[2 * k], cross_idx[2 * k + 1], cross_g[k], cross_c[k]))
            .collect();
        let vccs: Vec<(usize, usize, f64)> = (0..2)
            .map(|k| (vccs_idx[2 * k], vccs_idx[2 * k + 1], gm[k]))
            .collect();
        let ckt = random_circuit(nodes, &anchors, &cross, &vccs);
        let mut compiled = ckt.compile().unwrap();
        prop_assert!(compiled.is_sparse());
        let sources: Vec<NoiseSource> = (0..nodes)
            .map(|i| NoiseSource { a: GROUND, b: i, psd: 1e-24 * (i + 1) as f64 })
            .collect();
        let output = nodes - 1;
        for f in log_sweep(1.0, 1e9, 2) {
            let dense = ckt.solve(f).unwrap();
            let sparse = compiled.solve_at(f).unwrap();
            for (d, s) in dense.iter().zip(&sparse) {
                prop_assert!(
                    (*d - *s).abs() < 1e-9 * (1.0 + d.abs()),
                    "f={} dense={:?} sparse={:?}", f, d, s
                );
            }
            // Factor-once noise: one factorisation serves every injection
            // solve and matches per-source dense solves.
            let factor_once = output_noise_psd_compiled(&mut compiled, &sources, output, f).unwrap();
            let per_source: f64 = sources
                .iter()
                .map(|src| src.psd * ckt.solve_injection(f, src.a, src.b).unwrap()[output].abs_sq())
                .sum();
            prop_assert!(
                (factor_once - per_source).abs() <= 1e-9 * per_source,
                "f={} factor-once noise {} vs per-source {}", f, factor_once, per_source
            );
        }
        // The struct-of-arrays sweep is bit-identical to the scalar
        // per-point reference on a fresh compile of the same circuit.
        let freqs = log_sweep(1.0, 1e9, 3);
        let swept = compiled.sweep_voltages(output, &freqs).unwrap();
        let reference = ckt.compile().unwrap().sweep_voltages_scalar(output, &freqs).unwrap();
        prop_assert_eq!(swept.len(), reference.len());
        for ((f0, v0), (f1, v1)) in swept.iter().zip(&reference) {
            prop_assert_eq!(f0, f1);
            prop_assert!(v0.re.to_bits() == v1.re.to_bits(), "re differs at {} Hz", f0);
            prop_assert!(v0.im.to_bits() == v1.im.to_bits(), "im differs at {} Hz", f0);
        }
    }
}

/// A value-only restamp (same topology, different element values) must reuse
/// the compiled machinery and still match the dense reference.
#[test]
fn symbolic_reuse_after_value_only_restamp() {
    let build = |scale: f64| {
        let mut ckt = AcCircuit::new(6);
        for i in 0..6 {
            let prev = if i == 0 { GROUND } else { i - 1 };
            ckt.add(AcElement::Conductance {
                a: prev,
                b: i,
                g: 1e-3 * scale,
            });
            ckt.add(AcElement::Capacitance {
                a: i,
                b: GROUND,
                c: 1e-12 / scale,
            });
        }
        ckt.add(AcElement::CurrentSource {
            a: GROUND,
            b: 0,
            value: Complex::ONE,
        });
        ckt
    };
    // Sweep the same compiled circuit across many frequencies: each point is
    // a value-only restamp against the one symbolic analysis.
    let ckt = build(1.0);
    let mut compiled = ckt.compile().unwrap();
    let freqs = log_sweep(1.0, 1e10, 6);
    for &f in &freqs {
        let dense = ckt.solve(f).unwrap();
        let sparse = compiled.solve_at(f).unwrap();
        for (d, s) in dense.iter().zip(&sparse) {
            assert!((*d - *s).abs() < 1e-9 * (1.0 + d.abs()));
        }
    }
    assert_eq!(compiled.factor_count(), freqs.len() as u64);
    // A structurally identical circuit with different values compiles to the
    // same backend and stays correct (fresh compile, same pattern shape).
    let scaled = build(3.0);
    let mut compiled_scaled = scaled.compile().unwrap();
    let dense = scaled.solve(1e6).unwrap();
    let sparse = compiled_scaled.solve_at(1e6).unwrap();
    for (d, s) in dense.iter().zip(&sparse) {
        assert!((*d - *s).abs() < 1e-9 * (1.0 + d.abs()));
    }
}

/// A circuit whose admittance matrix is numerically singular must error (not
/// panic) through both the dense reference and the compiled sparse path.
#[test]
fn singular_system_errors_through_both_paths() {
    const GMIN: f64 = 1e-12;
    let g = 1e-3;
    let mut ckt = AcCircuit::new(5);
    for i in 0..5 {
        ckt.add(AcElement::Conductance { a: i, b: GROUND, g });
    }
    // A self-controlled VCCS that exactly cancels node 4's conductance and
    // its GMIN anchor: row 4 of Y becomes identically zero.
    ckt.add(AcElement::Vccs {
        out_p: 4,
        out_n: GROUND,
        ctrl_p: 4,
        ctrl_n: GROUND,
        gm: -(g + GMIN),
    });
    ckt.add(AcElement::CurrentSource {
        a: GROUND,
        b: 0,
        value: Complex::ONE,
    });
    assert!(matches!(
        ckt.solve(0.0),
        Err(SimError::SingularSystem { .. })
    ));
    let mut compiled = ckt.compile().unwrap();
    assert!(compiled.is_sparse());
    assert!(matches!(
        compiled.solve_at(0.0),
        Err(SimError::SingularSystem { .. })
    ));
    // The compiled circuit recovers at a frequency where the capacitive part
    // is absent but the system is still singular — and stays usable if a
    // later frequency succeeds.
    assert!(compiled.solve_at(0.0).is_err());

    // Nearly singular but not singular: a resistive ladder whose tap
    // conductance cancels all but ~1e-13 of the matrix determinant still
    // solves finitely through the compiled sparse path, matching the dense
    // reference.
    let n = 8;
    let tap = n - 1;
    let ladder = |g_tap: f64| {
        let mut ckt = AcCircuit::new(n);
        for i in 0..n {
            let prev = if i == 0 { GROUND } else { i - 1 };
            ckt.add(AcElement::Conductance {
                a: prev,
                b: i,
                g: 1e-3,
            });
        }
        ckt.add(AcElement::Conductance {
            a: tap,
            b: GROUND,
            g: g_tap,
        });
        ckt.add(AcElement::CurrentSource {
            a: GROUND,
            b: 0,
            value: Complex::ONE,
        });
        ckt
    };
    let g0 = 1e-3;
    let mut base = ladder(g0).compile().unwrap();
    base.factor_at(1.0).unwrap();
    let w_tap = base.solve_injection(GROUND, tap).unwrap()[tap].re;
    let near = ladder(g0 - (1.0 - 1e-13) / w_tap);
    let x = near.compile().unwrap().solve_at(1.0).unwrap();
    assert!(x.iter().all(|v| v.re.is_finite() && v.im.is_finite()));
    let dense = near.solve(1.0).unwrap();
    let scale = dense.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    for (d, s) in dense.iter().zip(&x) {
        let rel = (*d - *s).abs() / scale;
        assert!(rel <= 1e-9, "near-singular solve diverges: {d:?} vs {s:?}");
    }
}
