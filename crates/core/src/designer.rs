//! The optimisation loop (paper Algorithm 1).

use crate::agent::{AgentKind, GcnAgent};
use crate::env::SizingEnv;
use crate::history::RunHistory;
use gcnrl_linalg::Matrix;
use gcnrl_rl::{DdpgConfig, EmaBaseline, ExplorationNoise, ReplayBuffer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Correlation of the `k` exploration perturbations within one rollout round
/// (see [`ExplorationNoise::sample_correlated`]); irrelevant at `k = 1`.
const ROLLOUT_RHO: f64 = 0.5;

/// The GCN-RL Circuit Designer: DDPG over the circuit graph.
///
/// # Examples
///
/// ```no_run
/// use gcnrl::{FomConfig, GcnRlDesigner, SizingEnv};
/// use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
/// use gcnrl_rl::DdpgConfig;
///
/// let node = TechnologyNode::tsmc180();
/// let fom = FomConfig::calibrated(Benchmark::Ldo, &node, 100, 0);
/// let env = SizingEnv::new(Benchmark::Ldo, &node, fom);
/// let history = GcnRlDesigner::new(env, DdpgConfig::fast()).run();
/// assert!(history.best_fom().is_finite());
/// ```
pub struct GcnRlDesigner {
    env: SizingEnv,
    agent: GcnAgent,
    config: DdpgConfig,
    kind: AgentKind,
}

impl GcnRlDesigner {
    /// Creates a designer with a freshly initialised GCN agent.
    pub fn new(env: SizingEnv, config: DdpgConfig) -> Self {
        Self::with_kind(env, config, AgentKind::Gcn)
    }

    /// Creates a designer with the chosen agent variant (GCN-RL or the NG-RL
    /// ablation).
    pub fn with_kind(env: SizingEnv, config: DdpgConfig, kind: AgentKind) -> Self {
        let types = env.component_types();
        let agent = GcnAgent::new(
            kind,
            env.states().cols(),
            config.hidden_dim,
            config.gcn_layers,
            &types,
            config.actor_lr,
            config.critic_lr,
            config.seed,
        );
        GcnRlDesigner {
            env,
            agent,
            config,
            kind,
        }
    }

    /// The environment being optimised.
    pub fn env(&self) -> &SizingEnv {
        &self.env
    }

    /// The agent (e.g. to extract a checkpoint after training).
    pub fn agent(&self) -> &GcnAgent {
        &self.agent
    }

    /// Mutable access to the agent (e.g. to load a pre-trained checkpoint
    /// before running — the paper's knowledge-transfer setting).
    pub fn agent_mut(&mut self) -> &mut GcnAgent {
        &mut self.agent
    }

    /// The method name used in reports.
    pub fn method_name(&self) -> &'static str {
        match self.kind {
            AgentKind::Gcn => "GCN-RL",
            AgentKind::NonGcn => "NG-RL",
        }
    }

    /// Runs the full search (Algorithm 1) and returns the history.
    ///
    /// Exploration is a speculative batched rollout pipeline: every policy
    /// step proposes `config.rollout_k` correlated noisy action matrices
    /// (propose), scores them as **one** engine batch so the worker pool and
    /// result cache see the whole round at once (evaluate), then ingests all
    /// `k` transitions into the replay buffer and steps the actor/critic once
    /// against the best-of-`k` reward baseline (learn).  `episodes` counts
    /// simulations, so a `k = 4` run makes a quarter as many network updates
    /// at the same simulation budget — each round costs one parallel engine
    /// batch plus one network step, which is what makes the wall clock
    /// shrink with `k`.  With `rollout_k = 1` the pipeline is bit-identical
    /// to the classic serial trainer (pinned by the `serial_equivalence`
    /// regression test).
    pub fn run(&mut self) -> RunHistory {
        self.run_observed(&mut |_| {})
    }

    /// Like [`GcnRlDesigner::run`], additionally invoking `observer` with the
    /// history after the warm-up phase and after every exploration round.
    /// Benchmarks use this to measure time-to-quality without the history
    /// itself carrying timestamps (which would break bit-exact comparisons).
    pub fn run_observed(&mut self, observer: &mut dyn FnMut(&RunHistory)) -> RunHistory {
        let mut history = RunHistory::new(self.method_name());
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut noise = ExplorationNoise::new(
            self.config.noise_sigma,
            self.config.noise_decay,
            self.config.seed ^ 0x5eed,
        );
        let mut baseline = EmaBaseline::new(self.config.baseline_decay);
        let mut replay: ReplayBuffer<Matrix> = ReplayBuffer::new(self.config.replay_capacity);

        let states = self.env.states().clone();
        let adjacency = self.env.adjacency().clone();

        // (1) Warm-up: the random action matrices are independent of the
        // policy (no network update happens before `warmup`), so they are
        // drawn up front and evaluated as one batch through the execution
        // engine — in parallel when it has worker threads. The RNG draw
        // order, replay contents and history are identical to the serial
        // episode-by-episode loop because evaluation is pure.
        let warmup = self.config.warmup.min(self.config.episodes);
        let warmup_actions: Vec<Matrix> = (0..warmup)
            .map(|_| self.env.random_actions(&mut rng))
            .collect();
        let warmup_rollouts = self.env.rollout_actions(warmup_actions);
        for r in warmup_rollouts.iter() {
            history.record(r.reward, &r.outcome.params, &r.outcome.report);
            baseline.update(r.reward);
        }
        replay.ingest(&warmup_rollouts);
        observer(&history);

        // (2) Exploration rounds: propose → evaluate → learn.
        let mut episode = warmup;
        while episode < self.config.episodes {
            // The last round is truncated when `rollout_k` does not divide
            // the exploration budget.
            let width = self
                .config
                .rollout_k
                .max(1)
                .min(self.config.episodes - episode);

            // Propose: one policy action, `width` correlated perturbations.
            let proposals: Vec<Matrix> = {
                let _propose = gcnrl_telemetry::span!("train.propose.ns", width = width);
                let base = self.agent.act(&states, &adjacency);
                let entries = base.rows() * base.cols();
                noise
                    .sample_correlated(width, entries, ROLLOUT_RHO)
                    .into_iter()
                    .map(|perturbation| {
                        let mut actions = base.clone();
                        for (v, n) in actions.as_mut_slice().iter_mut().zip(perturbation) {
                            *v = (*v + n).clamp(-1.0, 1.0);
                        }
                        actions
                    })
                    .collect()
            };
            noise.decay_step();

            // Evaluate: the whole round is one engine batch (parallel fan-out
            // plus cache dedup of near-quantized repeat candidates).
            let rollouts = {
                let _evaluate = gcnrl_telemetry::span!("train.evaluate.ns", width = width);
                self.env.rollout_actions(proposals)
            };

            // Learn: every candidate enters the history and the replay
            // buffer wholesale; the EMA baseline advances on the best-of-`k`
            // reward and the actor/critic step once per round (for `k = 1`
            // both are exactly the serial trainer's update).  One update per
            // *round* rather than per simulation is what makes the wall
            // clock shrink with `k`: a round costs one parallel engine batch
            // plus one network step.
            let _learn = gcnrl_telemetry::span!("train.learn.ns", width = width);
            for r in rollouts.iter() {
                history.record(r.reward, &r.outcome.params, &r.outcome.report);
            }
            replay.ingest(&rollouts);
            let best = rollouts.best().expect("non-empty rollout round");
            baseline.update(best.reward);

            let step_seed = self.config.seed ^ (history.len() as u64 - 1);
            let batch: Vec<(Matrix, f64)> = replay
                .sample(self.config.batch_size, step_seed)
                .into_iter()
                .map(|(a, r)| (a.clone(), r))
                .collect();
            self.agent
                .critic_update(&states, &adjacency, &batch, baseline.value());
            self.agent.actor_update(&states, &adjacency);
            drop(_learn);
            episode += width;
            observer(&history);
        }
        history
    }

    /// Runs the greedy policy once (no exploration) and returns its outcome.
    pub fn evaluate_policy(&self) -> crate::env::StepOutcome {
        let actions = self.agent.act(self.env.states(), self.env.adjacency());
        self.env.evaluate_actions(&actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::FomConfig;
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

    fn tiny_config() -> DdpgConfig {
        DdpgConfig {
            episodes: 30,
            warmup: 10,
            batch_size: 8,
            hidden_dim: 16,
            gcn_layers: 2,
            ..DdpgConfig::default()
        }
    }

    #[test]
    fn designer_runs_and_records_every_episode() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 8, 0);
        let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom);
        let mut designer = GcnRlDesigner::new(env, tiny_config());
        let history = designer.run();
        assert_eq!(history.len(), 30);
        assert!(history.best_fom().is_finite());
        assert_eq!(history.method, "GCN-RL");
        assert!(history.best_params.is_some());
        // The policy can be evaluated greedily after training.
        let outcome = designer.evaluate_policy();
        assert!(outcome.fom.is_finite());
    }

    #[test]
    fn ng_rl_variant_is_labelled_and_runs() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::Ldo, &node, 8, 0);
        let env = SizingEnv::new(Benchmark::Ldo, &node, fom);
        let mut designer = GcnRlDesigner::with_kind(env, tiny_config(), AgentKind::NonGcn);
        let history = designer.run();
        assert_eq!(history.method, "NG-RL");
        assert_eq!(history.len(), 30);
    }

    #[test]
    fn batched_rollouts_spend_the_same_simulation_budget() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 8, 0);
        for k in [4usize, 7] {
            let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom.clone());
            let cfg = tiny_config().with_rollout_k(k);
            let mut designer = GcnRlDesigner::new(env, cfg);
            let history = designer.run();
            // 30 episodes = 30 simulations regardless of the rollout width
            // (the last round is truncated when k does not divide the budget).
            assert_eq!(history.len(), 30, "k={k}");
            assert!(history.best_fom().is_finite());
            assert!(history.best_curve().windows(2).all(|w| w[1] >= w[0]));
        }
    }

    #[test]
    fn batched_run_is_deterministic_per_seed() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 8, 0);
        let run = |seed| {
            let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom.clone());
            let cfg = tiny_config().with_seed(seed).with_rollout_k(4);
            GcnRlDesigner::new(env, cfg).run()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).best_curve(), run(4).best_curve());
    }

    #[test]
    fn observer_sees_warmup_plus_one_call_per_round() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 8, 0);
        let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom);
        let cfg = tiny_config().with_rollout_k(5);
        let mut designer = GcnRlDesigner::new(env, cfg);
        let mut lengths = Vec::new();
        let history = designer.run_observed(&mut |h| lengths.push(h.len()));
        // Warm-up (10 sims) then 20 exploration sims in rounds of 5.
        assert_eq!(lengths, vec![10, 15, 20, 25, 30]);
        assert_eq!(history.len(), 30);
    }

    #[test]
    fn same_seed_reproduces_the_same_run() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 8, 0);
        let run = |seed| {
            let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom.clone());
            let cfg = DdpgConfig {
                seed,
                ..tiny_config()
            };
            GcnRlDesigner::new(env, cfg).run().best_curve()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
