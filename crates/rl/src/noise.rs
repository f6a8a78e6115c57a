use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// Truncated-normal exploration noise with exponential decay, as used during
/// the exploration phase of the paper's Algorithm 1.
///
/// Samples are drawn from `N(0, sigma^2)`, truncated to `[-2 sigma, 2 sigma]`,
/// and `sigma` shrinks by the decay factor after every episode.
#[derive(Debug, Clone)]
pub struct ExplorationNoise {
    sigma: f64,
    initial_sigma: f64,
    decay: f64,
    rng: StdRng,
}

impl ExplorationNoise {
    /// Creates noise with initial standard deviation `sigma` and per-episode
    /// multiplicative `decay`, deterministically seeded.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or `decay` is not in `(0, 1]`.
    pub fn new(sigma: f64, decay: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        ExplorationNoise {
            sigma,
            initial_sigma: sigma,
            decay,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Current standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The standard deviation the noise started with (what
    /// [`ExplorationNoise::reset`] restores).
    pub fn initial_sigma(&self) -> f64 {
        self.initial_sigma
    }

    /// Draws one noise sample, truncated to two standard deviations.
    pub fn sample(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        let normal = Normal::new(0.0, self.sigma).expect("sigma validated");
        let raw: f64 = normal.sample(&mut self.rng);
        raw.clamp(-2.0 * self.sigma, 2.0 * self.sigma)
    }

    /// Draws a vector of independent samples.
    pub fn sample_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// Draws `k` correlated perturbation vectors of length `n` for one
    /// speculative rollout round.
    ///
    /// Candidate 0 draws exactly the samples [`ExplorationNoise::sample_vec`]
    /// would produce, so a batch of one consumes the RNG stream bit-identically
    /// to the serial exploration loop (the `k = 1` equivalence guarantee the
    /// batched trainer relies on). Every additional candidate `j > 0` draws
    /// `n` fresh truncated samples `d` and anchors them to candidate 0:
    /// `rho * base + sqrt(1 - rho^2) * d`, re-clamped to the truncation
    /// interval. This keeps the marginal spread at `sigma` while giving the
    /// candidates pairwise correlation `rho` to candidate 0, so the rollout
    /// batch explores a coherent neighbourhood of the policy action instead of
    /// `k` unrelated directions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `rho` is outside `[0, 1]`.
    pub fn sample_correlated(&mut self, k: usize, n: usize, rho: f64) -> Vec<Vec<f64>> {
        assert!(k > 0, "rollout width k must be positive");
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0, 1]");
        let base = self.sample_vec(n);
        let bound = 2.0 * self.sigma;
        let mix = (1.0 - rho * rho).sqrt();
        let mut batch = Vec::with_capacity(k);
        batch.push(base.clone());
        for _ in 1..k {
            let candidate = base
                .iter()
                .map(|&b| {
                    let d = self.sample();
                    (rho * b + mix * d).clamp(-bound, bound)
                })
                .collect();
            batch.push(candidate);
        }
        batch
    }

    /// Applies one episode of exponential decay to the standard deviation.
    pub fn decay_step(&mut self) {
        self.sigma *= self.decay;
    }

    /// Resets the standard deviation to its initial value (used when a
    /// pre-trained agent is transferred to a new circuit and needs a short
    /// fresh exploration phase).
    pub fn reset(&mut self) {
        self.sigma = self.initial_sigma;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_truncated() {
        let mut noise = ExplorationNoise::new(0.3, 0.99, 1);
        for _ in 0..1000 {
            let s = noise.sample();
            assert!(s.abs() <= 0.6 + 1e-12);
        }
    }

    #[test]
    fn decay_reduces_sigma_and_reset_restores_it() {
        let mut noise = ExplorationNoise::new(0.5, 0.9, 0);
        for _ in 0..10 {
            noise.decay_step();
        }
        assert!((noise.sigma() - 0.5 * 0.9f64.powi(10)).abs() < 1e-12);
        assert_eq!(noise.initial_sigma(), 0.5);
        noise.reset();
        assert_eq!(noise.sigma(), 0.5);
    }

    #[test]
    fn zero_sigma_is_silent() {
        let mut noise = ExplorationNoise::new(0.0, 0.5, 0);
        assert_eq!(noise.sample(), 0.0);
        assert_eq!(noise.sample_vec(3), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ExplorationNoise::new(0.2, 0.99, 5);
        let mut b = ExplorationNoise::new(0.2, 0.99, 5);
        assert_eq!(a.sample_vec(10), b.sample_vec(10));
    }

    #[test]
    #[should_panic(expected = "decay must be in")]
    fn invalid_decay_panics() {
        let _ = ExplorationNoise::new(0.1, 0.0, 0);
    }

    #[test]
    fn correlated_batch_of_one_matches_the_serial_stream() {
        let mut serial = ExplorationNoise::new(0.3, 0.99, 11);
        let mut batched = ExplorationNoise::new(0.3, 0.99, 11);
        let reference = serial.sample_vec(12);
        let batch = batched.sample_correlated(1, 12, 0.5);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0], reference);
        // The RNG streams stay in lockstep afterwards.
        assert_eq!(serial.sample(), batched.sample());
    }

    #[test]
    fn correlated_candidates_stay_truncated_and_track_the_base() {
        let mut noise = ExplorationNoise::new(0.4, 0.99, 3);
        let batch = noise.sample_correlated(6, 50, 0.8);
        assert_eq!(batch.len(), 6);
        let bound = 2.0 * 0.4;
        for candidate in &batch {
            assert_eq!(candidate.len(), 50);
            assert!(candidate.iter().all(|v| v.abs() <= bound + 1e-12));
        }
        // With rho = 0.8 the candidates correlate positively with the base.
        let base = &batch[0];
        for candidate in &batch[1..] {
            let dot: f64 = base.iter().zip(candidate.iter()).map(|(a, b)| a * b).sum();
            let nb: f64 = base.iter().map(|a| a * a).sum::<f64>().sqrt();
            let nc: f64 = candidate.iter().map(|a| a * a).sum::<f64>().sqrt();
            assert!(dot / (nb * nc) > 0.3, "candidates must track the base");
        }
    }

    #[test]
    fn fully_decorrelated_candidates_are_fresh_draws() {
        let mut noise = ExplorationNoise::new(0.2, 0.99, 9);
        let batch = noise.sample_correlated(3, 8, 0.0);
        assert_ne!(batch[0], batch[1]);
        assert_ne!(batch[1], batch[2]);
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn invalid_rho_panics() {
        let mut noise = ExplorationNoise::new(0.2, 0.99, 0);
        let _ = noise.sample_correlated(2, 4, 1.5);
    }
}
