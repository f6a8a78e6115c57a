use serde::{Deserialize, Serialize};

/// Hyper-parameters of the DDPG search (paper Algorithm 1).
///
/// The defaults follow the paper's experimental setup scaled to the
/// laptop-sized simulator: 100 warm-up episodes of random sampling followed
/// by noisy on-policy exploration, a modest replay buffer, and exponentially
/// decaying exploration noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Total number of search episodes `M` (each episode is one simulation).
    pub episodes: usize,
    /// Number of warm-up episodes `W` with uniformly random actions.
    pub warmup: usize,
    /// Mini-batch size `N_s` sampled from the replay buffer per update.
    pub batch_size: usize,
    /// Replay-buffer capacity.
    pub replay_capacity: usize,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Initial exploration-noise standard deviation.
    pub noise_sigma: f64,
    /// Per-episode multiplicative decay of the exploration noise.
    pub noise_decay: f64,
    /// Decay of the exponential-moving-average reward baseline `B`.
    pub baseline_decay: f64,
    /// Number of hidden units per layer in the actor/critic.
    pub hidden_dim: usize,
    /// Number of GCN layers (the paper uses seven for a global receptive field).
    pub gcn_layers: usize,
    /// Random seed controlling initialisation, warm-up sampling and noise.
    pub seed: u64,
    /// Speculative rollout width `k`: candidates proposed (and evaluated as
    /// one engine batch) per policy step during exploration.  `1` reproduces
    /// the serial trainer bit-identically; larger values trade policy updates
    /// for parallel environment throughput at the same simulation budget.
    pub rollout_k: usize,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            episodes: 500,
            warmup: 100,
            batch_size: 32,
            replay_capacity: 4096,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            noise_sigma: 0.4,
            noise_decay: 0.99,
            baseline_decay: 0.95,
            hidden_dim: 64,
            gcn_layers: 7,
            seed: 0,
            rollout_k: 1,
        }
    }
}

impl DdpgConfig {
    /// A configuration sized for fast unit/integration tests.
    pub fn fast() -> Self {
        DdpgConfig {
            episodes: 60,
            warmup: 20,
            batch_size: 16,
            hidden_dim: 32,
            gcn_layers: 3,
            ..Self::default()
        }
    }

    /// The paper's fine-tuning budget for transfer experiments:
    /// "300 in total: 100 warm-up, 200 exploration".
    pub fn transfer_budget() -> Self {
        DdpgConfig {
            episodes: 300,
            warmup: 100,
            ..Self::default()
        }
    }

    /// Returns a copy with a different random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different episode/warm-up budget.
    pub fn with_budget(mut self, episodes: usize, warmup: usize) -> Self {
        self.episodes = episodes;
        self.warmup = warmup;
        self
    }

    /// Returns a copy with a different speculative rollout width.
    pub fn with_rollout_k(mut self, k: usize) -> Self {
        self.rollout_k = k.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DdpgConfig::default();
        assert!(c.warmup < c.episodes);
        assert!(c.gcn_layers >= 1);
        assert!(c.noise_decay <= 1.0);
    }

    #[test]
    fn transfer_budget_matches_paper() {
        let c = DdpgConfig::transfer_budget();
        assert_eq!(c.episodes, 300);
        assert_eq!(c.warmup, 100);
    }

    #[test]
    fn builder_helpers() {
        let c = DdpgConfig::fast().with_seed(9).with_budget(10, 2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.episodes, 10);
        assert_eq!(c.warmup, 2);
    }

    #[test]
    fn rollout_builders_clamp_their_arguments() {
        assert_eq!(DdpgConfig::default().with_rollout_k(8).rollout_k, 8);
        assert_eq!(DdpgConfig::default().with_rollout_k(0).rollout_k, 1);
        // The default is the serial trainer.
        assert_eq!(DdpgConfig::default().rollout_k, 1);
    }
}
