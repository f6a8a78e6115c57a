use gcnrl::{RunHistory, SizingEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// A (µ, λ) evolution strategy with Gaussian mutation and 1/5th-rule style
/// step-size adaptation (the paper's "ES" baseline, CMA-ES tutorial of
/// Hansen).
///
/// `budget` counts simulator evaluations, so the comparison against the RL
/// methods is simulation-for-simulation fair.
pub fn evolution_strategy(env: &SizingEnv, budget: usize, seed: u64) -> RunHistory {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = RunHistory::new("ES");
    let d = env.num_unit_parameters();

    let lambda = 4 + (3.0 * (d as f64).ln()).floor() as usize;
    let mu = (lambda / 2).max(1);
    let mut sigma = 0.3;

    // Initial mean at the centre of the unit cube.
    let mut mean = vec![0.5; d];
    let mut evaluations = 0;
    let mut best_parent_fom = f64::NEG_INFINITY;

    while evaluations < budget {
        let normal: Normal<f64> = Normal::new(0.0, 1.0).expect("valid sigma");
        // Draw the whole generation first, then score it as one rollout batch
        // through the evaluation engine: the population is mutually
        // independent, so the engine can simulate it in parallel while the
        // RNG stream and the recorded trajectory stay identical to the serial
        // loop.
        let population = lambda.min(budget - evaluations);
        let candidates: Vec<Vec<f64>> = (0..population)
            .map(|_| {
                mean.iter()
                    .map(|m| (m + sigma * normal.sample(&mut rng)).clamp(0.0, 1.0))
                    .collect()
            })
            .collect();
        let generation = env.rollout_units(candidates);
        for r in generation.iter() {
            history.record(r.reward, &r.outcome.params, &r.outcome.report);
            evaluations += 1;
        }
        if generation.is_empty() {
            break;
        }
        // Recombine: new mean is the average of the µ highest-reward
        // rollouts (stable rank on ties).
        let order = generation.ranked();
        let elite = &order[..mu.min(order.len())];
        for (i, m) in mean.iter_mut().enumerate() {
            *m = elite.iter().map(|&e| generation[e].action[i]).sum::<f64>() / elite.len() as f64;
        }
        // Step-size adaptation: grow when the generation improved on the
        // previous parent, shrink otherwise.
        let gen_best = generation[elite[0]].reward;
        if gen_best > best_parent_fom {
            sigma = (sigma * 1.15).min(0.5);
            best_parent_fom = gen_best;
        } else {
            sigma = (sigma * 0.85).max(0.01);
        }
        // A little exploration noise on the mean keeps the search from
        // collapsing prematurely.
        if rng.gen::<f64>() < 0.05 {
            for m in &mut mean {
                *m = (*m + 0.05 * normal.sample(&mut rng)).clamp(0.0, 1.0);
            }
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl::FomConfig;
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

    #[test]
    fn es_respects_budget_and_is_deterministic() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::Ldo, &node, 8, 0);
        let env = SizingEnv::new(Benchmark::Ldo, &node, fom);
        let h = evolution_strategy(&env, 30, 3);
        assert_eq!(h.len(), 30);
        assert_eq!(h.method, "ES");
        assert_eq!(
            evolution_strategy(&env, 12, 4).best_curve(),
            evolution_strategy(&env, 12, 4).best_curve()
        );
    }

    #[test]
    fn es_best_curve_is_monotone() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 6, 0);
        let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom);
        let h = evolution_strategy(&env, 20, 0);
        assert!(h.best_curve().windows(2).all(|w| w[1] >= w[0]));
    }
}
