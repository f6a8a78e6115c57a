//! Evaluator for the two-stage transimpedance amplifier (Two-TIA).

use super::common::{mirror_ratio, mos_device, resistance, BiasTable, SmallSignalBuilder};
use super::Evaluator;
use crate::ac::{log_sweep, sweep_compiled};
use crate::metrics::{MetricDirection, MetricSpec, PerformanceReport};
use crate::noise::output_noise_density_compiled;
use crate::smallsignal::{AcElement, GROUND};
use gcnrl_circuit::{benchmarks, benchmarks::Benchmark, Circuit, ParamVector, TechnologyNode};
use gcnrl_linalg::Complex;

/// Reference bias current injected into the diode-connected input device, amps.
const I_REF: f64 = 25e-6;
/// Spot frequency for input-referred noise, hertz.
const NOISE_FREQ: f64 = 1e6;

/// Metrics reported for the Two-TIA (paper Table II): bandwidth, transimpedance
/// gain, power, input-referred current noise, peaking, and the derived GBW.
const METRICS: [MetricSpec; 6] = [
    MetricSpec {
        name: "bw_ghz",
        unit: "GHz",
        direction: MetricDirection::HigherIsBetter,
    },
    MetricSpec {
        name: "gain_ohm",
        unit: "Ohm",
        direction: MetricDirection::HigherIsBetter,
    },
    MetricSpec {
        name: "power_mw",
        unit: "mW",
        direction: MetricDirection::LowerIsBetter,
    },
    MetricSpec {
        name: "noise_pa_rthz",
        unit: "pA/sqrt(Hz)",
        direction: MetricDirection::LowerIsBetter,
    },
    MetricSpec {
        name: "peaking_db",
        unit: "dB",
        direction: MetricDirection::LowerIsBetter,
    },
    MetricSpec {
        name: "gbw_thz_ohm",
        unit: "THz*Ohm",
        direction: MetricDirection::HigherIsBetter,
    },
];

/// Performance evaluator for the two-stage TIA.
#[derive(Debug, Clone)]
pub struct TwoStageTiaEvaluator {
    circuit: Circuit,
    node: TechnologyNode,
}

impl TwoStageTiaEvaluator {
    /// Creates the evaluator for a given technology node.
    pub fn new(node: TechnologyNode) -> Self {
        TwoStageTiaEvaluator {
            circuit: benchmarks::two_stage_tia(),
            node,
        }
    }

    /// Mirror-ratio bias analysis: the input diode `T1` carries the reference
    /// current, `T2` mirrors it into the first gain node, the PMOS mirror
    /// `T3`/`T4` folds it onto the diode load `T5`, and the output device `T6`
    /// conducts whatever its gate voltage (set by `T5`) commands into `R6`.
    fn bias(&self, params: &ParamVector) -> BiasTable {
        let c = &self.circuit;
        let node = &self.node;
        let vdd = node.vdd;
        let headroom = vdd / 2.0;

        let t1 = mos_device(c, params, node, "T1");
        let t2 = mos_device(c, params, node, "T2");
        let t3 = mos_device(c, params, node, "T3");
        let t4 = mos_device(c, params, node, "T4");
        let t5 = mos_device(c, params, node, "T5");
        let t6 = mos_device(c, params, node, "T6");
        let r6 = resistance(c, params, "R6");

        let id1 = I_REF;
        let id2 = id1 * mirror_ratio(&t2, &t1);
        let id4 = id2 * mirror_ratio(&t4, &t3);
        // T6's gate sits at T5's diode voltage, so it mirrors T5's current.
        let id6 = id4 * mirror_ratio(&t6, &t5);

        let mut table = BiasTable::new();
        table.insert("T1", t1.operating_point(id1, headroom));
        table.insert("T2", t2.operating_point(id2, headroom));
        table.insert("T3", t3.operating_point(id2, headroom));
        table.insert("T4", t4.operating_point(id4, headroom));
        table.insert("T5", t5.operating_point(id4, headroom));
        // The output device's headroom is what the resistive load leaves it.
        let vout_dc = vdd - id6 * r6;
        table.insert("T6", t6.operating_point(id6, vout_dc.max(0.0)));
        if vout_dc < 0.1 || vout_dc > vdd - 0.1 {
            table.feasible = false;
        }
        table.supply_current = id1 + id2 + id4 + id6;
        table
    }
}

impl Evaluator for TwoStageTiaEvaluator {
    fn benchmark(&self) -> Benchmark {
        Benchmark::TwoStageTia
    }

    fn technology(&self) -> &TechnologyNode {
        &self.node
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        &METRICS
    }

    fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        let bias = self.bias(params);
        let builder = SmallSignalBuilder::new(&self.circuit, &self.node);
        let (mut ac, noise_sources) = builder.build(params, &bias);

        let vin = builder.ac_node("vin");
        let vout = builder.ac_node("vout");
        ac.add(AcElement::CurrentSource {
            a: GROUND,
            b: vin,
            value: Complex::ONE,
        });

        // One compiled circuit serves the sweep, the spot transfer solve and
        // every noise-injection solve: the sparsity pattern and its symbolic
        // factorisation are shared across all of them.
        let Ok(mut sim) = ac.compile() else {
            return PerformanceReport::infeasible();
        };
        let freqs = log_sweep(1e3, 100e9, 12);
        let Ok(resp) = sweep_compiled(&mut sim, vout, &freqs) else {
            return PerformanceReport::infeasible();
        };

        let gain_ohm = resp.dc_gain();
        let bw_hz = resp.bandwidth_3db();
        let peaking_db = resp.peaking_db();
        let power_mw = self.node.vdd * bias.supply_current * 1e3;

        // Input-referred current noise: output voltage noise divided by the
        // mid-band transimpedance, in pA/sqrt(Hz).
        let zt_spot = sim
            .solve_at(NOISE_FREQ)
            .map(|v| v[vout].abs())
            .unwrap_or(gain_ohm)
            .max(1e-3);
        let vn_out = output_noise_density_compiled(&mut sim, &noise_sources, vout, NOISE_FREQ)
            .unwrap_or(0.0);
        let noise_pa = vn_out / zt_spot * 1e12;

        let mut report = PerformanceReport::new();
        report.feasible = bias.feasible;
        report.set("bw_ghz", bw_hz / 1e9);
        report.set("gain_ohm", gain_ohm);
        report.set("power_mw", power_mw);
        report.set("noise_pa_rthz", noise_pa);
        report.set("peaking_db", peaking_db);
        report.set("gbw_thz_ohm", gain_ohm * bw_hz / 1e12);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal_report(node: &TechnologyNode) -> PerformanceReport {
        let eval = TwoStageTiaEvaluator::new(node.clone());
        let space = eval.circuit.design_space(node);
        eval.evaluate(&space.nominal())
    }

    #[test]
    fn nominal_design_has_physical_metrics() {
        let node = TechnologyNode::tsmc180();
        let r = nominal_report(&node);
        let gain = r.get("gain_ohm").unwrap();
        let bw = r.get("bw_ghz").unwrap();
        let power = r.get("power_mw").unwrap();
        let noise = r.get("noise_pa_rthz").unwrap();
        assert!(gain > 10.0, "gain {gain}");
        assert!(bw > 1e-4 && bw < 1e3, "bw {bw} GHz");
        assert!(power > 1e-3 && power < 1e3, "power {power} mW");
        assert!(noise > 0.0 && noise < 1e6, "noise {noise}");
        assert!(r.get("peaking_db").unwrap() >= 0.0);
    }

    #[test]
    fn wider_output_device_changes_power() {
        let node = TechnologyNode::tsmc180();
        let eval = TwoStageTiaEvaluator::new(node.clone());
        let space = eval.circuit.design_space(&node);
        let nominal = space.nominal();
        let mut actions: Vec<Vec<f64>> =
            space.action_sizes().iter().map(|n| vec![0.0; *n]).collect();
        // Make T6 (index 5) much wider: more mirror current, more power.
        actions[5][0] = 0.9;
        let wide = space.denormalize(&actions);
        let p_nom = eval.evaluate(&nominal).get("power_mw").unwrap();
        let p_wide = eval.evaluate(&wide).get("power_mw").unwrap();
        assert!(p_wide > p_nom, "power {p_wide} should exceed {p_nom}");
    }

    #[test]
    fn larger_feedback_resistor_raises_transimpedance() {
        let node = TechnologyNode::tsmc180();
        let eval = TwoStageTiaEvaluator::new(node.clone());
        let space = eval.circuit.design_space(&node);
        // RF is component index 7; raise/lower it via unit vectors.
        let mut unit_lo = vec![0.5; space.num_parameters()];
        let mut unit_hi = unit_lo.clone();
        let rf_offset: usize = space.action_sizes().iter().take(7).sum();
        unit_lo[rf_offset] = 0.3;
        unit_hi[rf_offset] = 0.9;
        let g_lo = eval
            .evaluate(&space.from_unit(&unit_lo))
            .get("gain_ohm")
            .unwrap();
        let g_hi = eval
            .evaluate(&space.from_unit(&unit_hi))
            .get("gain_ohm")
            .unwrap();
        assert!(g_hi > g_lo, "gain should grow with RF: {g_lo} -> {g_hi}");
    }

    #[test]
    fn grouped_evaluation_matches_individual() {
        let node = TechnologyNode::tsmc180();
        let eval = TwoStageTiaEvaluator::new(node.clone());
        let space = eval.circuit.design_space(&node);
        let base = space.nominal();
        // The rollout shape: the unperturbed action plus small perturbations.
        let mut candidates = vec![base.clone()];
        for j in 0..3 {
            let mut unit = vec![0.5; space.num_parameters()];
            unit[j] = 0.55;
            candidates.push(space.from_unit(&unit));
        }
        let grouped = eval.evaluate_group(&base, &candidates);
        assert_eq!(grouped.len(), candidates.len());
        for (params, group_report) in candidates.iter().zip(&grouped) {
            let individual = eval.evaluate(params);
            assert_eq!(group_report, &individual);
            for spec in eval.metric_specs() {
                assert!(
                    individual.get(spec.name).unwrap().is_finite(),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn technology_node_affects_results() {
        let r180 = nominal_report(&TechnologyNode::tsmc180());
        let r45 = nominal_report(&TechnologyNode::n45());
        assert_ne!(r180, r45);
    }
}
