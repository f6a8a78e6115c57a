//! Speculative rollout batches: the unit of work of the batched exploration
//! pipeline.
//!
//! One policy step proposes `k` candidate actions, the execution engine
//! evaluates them as one batch, and the learner ingests all `k` transitions
//! while stepping the networks on the best-of-`k` outcome.  [`RolloutBatch`]
//! is the container that travels through that propose → evaluate → learn
//! pipeline; the population-based baselines (ES / Random / MACE) score their
//! generations through the same type, so every optimizer shares one batched
//! evaluation idiom instead of ad-hoc `Vec<(f64, ...)>` plumbing.
//!
//! The type is generic over the action encoding `A` (an action matrix for the
//! RL agent, a flat unit vector for the black-box baselines) and the outcome
//! type `O` (kept opaque here so this crate stays independent of the
//! simulator's report types).

/// One evaluated candidate: the proposed action, what the environment
/// reported for it, and the scalar reward derived from the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollout<A, O> {
    /// The proposed action, in the optimizer's own encoding.
    pub action: A,
    /// The environment's evaluation of the action.
    pub outcome: O,
    /// The scalar reward (the FoM in the sizing problem).
    pub reward: f64,
}

/// An ordered batch of evaluated candidates from one proposal round.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutBatch<A, O> {
    rollouts: Vec<Rollout<A, O>>,
}

impl<A, O> Default for RolloutBatch<A, O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A, O> RolloutBatch<A, O> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        RolloutBatch {
            rollouts: Vec::new(),
        }
    }

    /// Creates an empty batch with room for `k` candidates.
    pub fn with_capacity(k: usize) -> Self {
        RolloutBatch {
            rollouts: Vec::with_capacity(k),
        }
    }

    /// Appends one evaluated candidate.
    pub fn push(&mut self, action: A, outcome: O, reward: f64) {
        self.rollouts.push(Rollout {
            action,
            outcome,
            reward,
        });
    }

    /// Number of candidates in the batch.
    pub fn len(&self) -> usize {
        self.rollouts.len()
    }

    /// Returns `true` when the batch holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.rollouts.is_empty()
    }

    /// The candidates in proposal order.
    pub fn rollouts(&self) -> &[Rollout<A, O>] {
        &self.rollouts
    }

    /// Iterates over the candidates in proposal order.
    pub fn iter(&self) -> std::slice::Iter<'_, Rollout<A, O>> {
        self.rollouts.iter()
    }

    /// Index of the highest-reward candidate (the first one on ties, so
    /// selection is deterministic), or `None` for an empty batch.
    pub fn best_index(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, r) in self.rollouts.iter().enumerate() {
            if best.is_none_or(|b| r.reward > self.rollouts[b].reward) {
                best = Some(i);
            }
        }
        best
    }

    /// The highest-reward candidate, if any.
    pub fn best(&self) -> Option<&Rollout<A, O>> {
        self.best_index().map(|i| &self.rollouts[i])
    }

    /// Candidate indices sorted by descending reward (stable, so equal
    /// rewards keep proposal order — the tie-break the baselines relied on
    /// with their explicit sorts).
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rollouts.len()).collect();
        order.sort_by(|&a, &b| {
            self.rollouts[b]
                .reward
                .partial_cmp(&self.rollouts[a].reward)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// The rewards in proposal order.
    pub fn rewards(&self) -> Vec<f64> {
        self.rollouts.iter().map(|r| r.reward).collect()
    }
}

impl<A, O> std::ops::Index<usize> for RolloutBatch<A, O> {
    type Output = Rollout<A, O>;

    fn index(&self, i: usize) -> &Rollout<A, O> {
        &self.rollouts[i]
    }
}

impl<A, O> IntoIterator for RolloutBatch<A, O> {
    type Item = Rollout<A, O>;
    type IntoIter = std::vec::IntoIter<Rollout<A, O>>;

    fn into_iter(self) -> Self::IntoIter {
        self.rollouts.into_iter()
    }
}

impl<'a, A, O> IntoIterator for &'a RolloutBatch<A, O> {
    type Item = &'a Rollout<A, O>;
    type IntoIter = std::slice::Iter<'a, Rollout<A, O>>;

    fn into_iter(self) -> Self::IntoIter {
        self.rollouts.iter()
    }
}

impl<A, O> FromIterator<(A, O, f64)> for RolloutBatch<A, O> {
    fn from_iter<I: IntoIterator<Item = (A, O, f64)>>(iter: I) -> Self {
        let mut batch = RolloutBatch::new();
        for (action, outcome, reward) in iter {
            batch.push(action, outcome, reward);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rewards: &[f64]) -> RolloutBatch<usize, ()> {
        rewards
            .iter()
            .enumerate()
            .map(|(i, &r)| (i, (), r))
            .collect()
    }

    #[test]
    fn push_len_and_rewards_in_proposal_order() {
        let b = batch(&[0.5, 2.0, 1.0]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b[1].reward, 2.0);
        assert_eq!(b.rewards(), vec![0.5, 2.0, 1.0]);
    }

    #[test]
    fn best_picks_highest_reward_and_first_on_ties() {
        let b = batch(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(b.best_index(), Some(1));
        assert_eq!(b.best().unwrap().action, 1);
        assert!(batch(&[]).best().is_none());
    }

    #[test]
    fn ranked_is_descending_and_stable() {
        let b = batch(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(b.ranked(), vec![1, 2, 3, 0]);
    }

    #[test]
    fn into_iter_preserves_proposal_order() {
        let b = batch(&[4.0, 5.0]);
        let actions: Vec<usize> = b.into_iter().map(|r| r.action).collect();
        assert_eq!(actions, vec![0, 1]);
    }
}
