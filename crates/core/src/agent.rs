//! The GCN actor–critic agent (paper Fig. 3) and its DDPG update rules.
//!
//! Both networks process the circuit graph component-by-component:
//!
//! * The **actor** maps the `n x d` state matrix to an `n x 3` action matrix
//!   in `[-1, 1]`.  Its first layer is shared across components, the hidden
//!   layers are graph convolutions (shared weights, neighbourhood
//!   aggregation), and the last layer is a component-type-specific decoder.
//! * The **critic** encodes the state with a shared layer and the action with
//!   a component-type-specific encoder, propagates through the same kind of
//!   GCN stack, and reduces a shared per-node value head to a scalar `Q`.
//!
//! Setting [`AgentKind::NonGcn`] skips the aggregation step, which is exactly
//! the paper's NG-RL ablation.

use gcnrl_linalg::Matrix;
use gcnrl_nn::{gcn_backprop, gcn_propagate, Activation, Adam, Linear, LinearCache, SharedMatrix};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Whether the agent aggregates features over the topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentKind {
    /// Full GCN-RL agent (graph aggregation enabled).
    Gcn,
    /// NG-RL ablation: no aggregation, every component is processed alone.
    NonGcn,
}

/// Weight and bias gradients of one layer.
type LayerGrads = (Matrix, Vec<f64>);

/// Number of component types (NMOS, PMOS, R, C).
const NUM_TYPES: usize = 4;
/// Per-component action width (W, L, M for transistors).
const ACTION_DIM: usize = 3;

/// A dense layer bundled with its Adam optimiser state.
#[derive(Debug, Clone)]
struct OptLinear {
    layer: Linear,
    opt_w: Adam,
    opt_b: Adam,
}

impl OptLinear {
    fn new(in_dim: usize, out_dim: usize, lr: f64, seed: u64) -> Self {
        let layer = Linear::xavier(in_dim, out_dim, seed);
        OptLinear {
            opt_w: Adam::new(in_dim * out_dim, lr),
            opt_b: Adam::new(out_dim, lr),
            layer,
        }
    }

    fn forward(&self, x: &SharedMatrix) -> (Matrix, LinearCache) {
        self.layer.forward(x)
    }

    fn apply(&mut self, d_weight: &Matrix, d_bias: &[f64]) {
        self.layer
            .apply_update(&mut self.opt_w, &mut self.opt_b, d_weight, d_bias);
    }
}

/// Stacks matrices of equal width row-wise, in order.
fn stack_rows(blocks: &[&Matrix]) -> Matrix {
    let cols = blocks[0].cols();
    let mut data = Vec::with_capacity(blocks.iter().map(|b| b.as_slice().len()).sum());
    for block in blocks {
        assert_eq!(block.cols(), cols, "stacked blocks must share a width");
        data.extend_from_slice(block.as_slice());
    }
    Matrix::from_vec(data.len() / cols, cols, data).expect("non-empty blocks")
}

/// Copy of the `k`-th block of `rows` rows of a row-stacked matrix.
fn row_block(m: &Matrix, k: usize, rows: usize) -> Matrix {
    let len = rows * m.cols();
    Matrix::from_vec(
        rows,
        m.cols(),
        m.as_slice()[k * len..(k + 1) * len].to_vec(),
    )
    .expect("block inside the matrix")
}

/// `m` with row `r` scaled by `mask[r]` (0 or 1: keeps only the rows of one
/// component type).
fn mask_rows(m: &Matrix, mask: &[f64]) -> Matrix {
    let mut out = m.clone();
    for (row, w) in out.as_mut_slice().chunks_exact_mut(m.cols()).zip(mask) {
        row.iter_mut().for_each(|v| *v *= w);
    }
    out
}

/// `acc += mask_rows(m, mask)` for `acc` and `m` stacking any number of
/// `mask.len()`-row blocks: row `r` uses `mask[r % mask.len()]`.
fn add_masked_rows(acc: &mut Matrix, m: &Matrix, mask: &[f64]) {
    let cols = m.cols();
    let rows = acc.as_mut_slice().chunks_exact_mut(cols);
    for ((acc_row, row), w) in rows
        .zip(m.as_slice().chunks_exact(cols))
        .zip(mask.iter().cycle())
    {
        for (a, v) in acc_row.iter_mut().zip(row) {
            *a += v * w;
        }
    }
}

/// Serializable snapshot of the agent's learnable parameters, used by the
/// transfer experiments (train on one circuit/node, fine-tune on another).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentCheckpoint {
    /// Agent variant.
    pub kind: AgentKind,
    /// State dimensionality the checkpoint was trained with.
    pub state_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Number of GCN layers.
    pub gcn_layers: usize,
    actor_input: Linear,
    actor_hidden: Vec<Linear>,
    actor_decoders: Vec<Linear>,
    critic_state: Linear,
    critic_action: Vec<Linear>,
    critic_hidden: Vec<Linear>,
    critic_out: Linear,
}

/// Cache of one actor forward pass.
pub struct ActorCache {
    input_cache: LinearCache,
    input_act: SharedMatrix,
    hidden: Vec<(LinearCache, SharedMatrix)>,
    decoder_cache: LinearCache,
    tanh_out: Matrix,
}

/// Cache of one critic forward pass.
pub struct CriticCache {
    state_cache: LinearCache,
    action_cache: LinearCache,
    combine_act: SharedMatrix,
    hidden: Vec<(LinearCache, SharedMatrix)>,
    out_cache: LinearCache,
    num_nodes: usize,
}

/// One critic forward pass over `B` action matrices stacked row-wise: every
/// activation holds `B` blocks of `n` rows, block `k` belonging to action
/// `k`. Each row is computed exactly as in a pass over its action alone.
struct CriticBatch {
    q: Vec<f64>,
    state_cache: LinearCache,
    actions: SharedMatrix,
    combine_act: SharedMatrix,
    /// `(aggregated input, ReLU output)` of every hidden layer.
    hidden: Vec<(SharedMatrix, SharedMatrix)>,
    num_nodes: usize,
}

impl CriticBatch {
    /// The cache of sample `k` alone, as a one-action pass would build it.
    fn sample(&self, k: usize) -> CriticCache {
        let n = self.num_nodes;
        let block = |m: &Matrix| Arc::new(row_block(m, k, n));
        let combine_act = block(&self.combine_act);
        let mut last = Arc::clone(&combine_act);
        let mut hidden = Vec::with_capacity(self.hidden.len());
        for (agg, act) in &self.hidden {
            last = block(act);
            hidden.push((LinearCache::new(block(agg)), Arc::clone(&last)));
        }
        CriticCache {
            state_cache: self.state_cache.clone(),
            action_cache: LinearCache::new(block(&self.actions)),
            combine_act,
            hidden,
            out_cache: LinearCache::new(last),
            num_nodes: n,
        }
    }
}

/// The GCN (or NG) actor–critic agent.
pub struct GcnAgent {
    kind: AgentKind,
    state_dim: usize,
    hidden_dim: usize,
    gcn_layers: usize,
    types: Vec<usize>,
    /// Per component type, a 0/1 weight per node selecting that type's rows.
    type_masks: Vec<Vec<f64>>,
    actor_input: OptLinear,
    actor_hidden: Vec<OptLinear>,
    actor_decoders: Vec<OptLinear>,
    critic_state: OptLinear,
    critic_action: Vec<OptLinear>,
    critic_hidden: Vec<OptLinear>,
    critic_out: OptLinear,
}

impl GcnAgent {
    /// Creates an agent for a circuit with the given per-component type
    /// indices and state dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty or contains an index `>= 4`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: AgentKind,
        state_dim: usize,
        hidden_dim: usize,
        gcn_layers: usize,
        types: &[usize],
        actor_lr: f64,
        critic_lr: f64,
        seed: u64,
    ) -> Self {
        assert!(!types.is_empty(), "agent needs at least one component");
        assert!(types.iter().all(|t| *t < NUM_TYPES), "invalid type index");
        let type_masks = (0..NUM_TYPES)
            .map(|t| {
                types
                    .iter()
                    .map(|&ty| if ty == t { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let mut s = seed;
        let mut next_seed = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        GcnAgent {
            kind,
            state_dim,
            hidden_dim,
            gcn_layers,
            types: types.to_vec(),
            type_masks,
            actor_input: OptLinear::new(state_dim, hidden_dim, actor_lr, next_seed()),
            actor_hidden: (0..gcn_layers)
                .map(|_| OptLinear::new(hidden_dim, hidden_dim, actor_lr, next_seed()))
                .collect(),
            actor_decoders: (0..NUM_TYPES)
                .map(|_| OptLinear::new(hidden_dim, ACTION_DIM, actor_lr, next_seed()))
                .collect(),
            critic_state: OptLinear::new(state_dim, hidden_dim, critic_lr, next_seed()),
            critic_action: (0..NUM_TYPES)
                .map(|_| OptLinear::new(ACTION_DIM, hidden_dim, critic_lr, next_seed()))
                .collect(),
            critic_hidden: (0..gcn_layers)
                .map(|_| OptLinear::new(hidden_dim, hidden_dim, critic_lr, next_seed()))
                .collect(),
            critic_out: OptLinear::new(hidden_dim, 1, critic_lr, next_seed()),
        }
    }

    /// The agent variant.
    pub fn kind(&self) -> AgentKind {
        self.kind
    }

    /// The state dimensionality the agent expects.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Neighbourhood aggregation of (row-stacked) node features; the NG-RL
    /// ablation passes them through unchanged.
    fn propagate(&self, adjacency: &Matrix, h: &SharedMatrix) -> SharedMatrix {
        match self.kind {
            AgentKind::Gcn => Arc::new(gcn_propagate(adjacency, h)),
            AgentKind::NonGcn => Arc::clone(h),
        }
    }

    fn backprop_propagate(&self, adjacency: &Matrix, d: Matrix) -> Matrix {
        match self.kind {
            AgentKind::Gcn => gcn_backprop(adjacency, &d),
            AgentKind::NonGcn => d,
        }
    }

    /// Actor forward pass: returns the `n x 3` action matrix and the cache.
    ///
    /// Intermediate activations are moved into shared handles so every layer
    /// cache borrows its input instead of cloning it; the `states` copy and
    /// the returned action matrix are the only matrices duplicated per pass.
    pub fn actor_forward(&self, states: &Matrix, adjacency: &Matrix) -> (Matrix, ActorCache) {
        let states = Arc::new(states.clone());
        let (pre, input_cache) = self.actor_input.forward(&states);
        let input_act = Arc::new(Activation::Relu.forward(pre));
        let mut h = Arc::clone(&input_act);

        let mut hidden = Vec::with_capacity(self.gcn_layers);
        for layer in &self.actor_hidden {
            let agg = self.propagate(adjacency, &h);
            let (pre, cache) = layer.forward(&agg);
            h = Arc::new(Activation::Relu.forward(pre));
            hidden.push((cache, Arc::clone(&h)));
        }

        let mut pre_tanh = Matrix::zeros(h.rows(), ACTION_DIM);
        for (dec, mask) in self.actor_decoders.iter().zip(&self.type_masks) {
            let (out, _) = dec.forward(&h);
            add_masked_rows(&mut pre_tanh, &out, mask);
        }
        let tanh_out = Activation::Tanh.forward(pre_tanh);
        (
            tanh_out.clone(),
            ActorCache {
                input_cache,
                input_act,
                hidden,
                decoder_cache: LinearCache::new(h),
                tanh_out,
            },
        )
    }

    /// Critic forward pass for every action in `actions` at once, stacked
    /// row-wise into one `(B·n)`-row pass: the state embedding is computed
    /// once, every layer runs one GEMM, and the adjacency is applied per
    /// `n`-row block. Per-row arithmetic is that of a one-action pass.
    fn critic_forward_batch(
        &self,
        states: &Matrix,
        actions: &[&Matrix],
        adjacency: &Matrix,
    ) -> CriticBatch {
        let n = states.rows();
        let states = Arc::new(states.clone());
        let (hs, state_cache) = self.critic_state.forward(&states);
        let actions = Arc::new(stack_rows(actions));
        let mut combined = Matrix::zeros(actions.rows(), self.hidden_dim);
        for (enc, mask) in self.critic_action.iter().zip(&self.type_masks) {
            let (out, _) = enc.forward(&actions);
            add_masked_rows(&mut combined, &out, mask);
        }
        // Add the state embedding to every sample's action embedding.
        for block in combined
            .as_mut_slice()
            .chunks_exact_mut(hs.as_slice().len())
        {
            for (x, s) in block.iter_mut().zip(hs.as_slice()) {
                *x += s;
            }
        }
        let combine_act = Arc::new(Activation::Relu.forward(combined));
        let mut h = Arc::clone(&combine_act);

        let mut hidden = Vec::with_capacity(self.gcn_layers);
        for layer in &self.critic_hidden {
            let agg = self.propagate(adjacency, &h);
            let (pre, _) = layer.forward(&agg);
            h = Arc::new(Activation::Relu.forward(pre));
            hidden.push((agg, Arc::clone(&h)));
        }
        let (values, _) = self.critic_out.forward(&h);
        let q = values
            .as_slice()
            .chunks_exact(n)
            .map(|v| v.iter().sum::<f64>() / n as f64)
            .collect();
        CriticBatch {
            q,
            state_cache,
            actions,
            combine_act,
            hidden,
            num_nodes: n,
        }
    }

    /// Critic forward pass: returns the scalar value estimate and the cache.
    pub fn critic_forward(
        &self,
        states: &Matrix,
        actions: &Matrix,
        adjacency: &Matrix,
    ) -> (f64, CriticCache) {
        let batch = self.critic_forward_batch(states, &[actions], adjacency);
        (batch.q[0], batch.sample(0))
    }

    /// The actor's layers in update order: input, hidden, decoders.
    fn actor_layers_mut(&mut self) -> impl Iterator<Item = &mut OptLinear> {
        std::iter::once(&mut self.actor_input)
            .chain(&mut self.actor_hidden)
            .chain(&mut self.actor_decoders)
    }

    /// The critic's layers in update order: value head, hidden, state
    /// encoder, action encoders.
    fn critic_layers_mut(&mut self) -> impl Iterator<Item = &mut OptLinear> {
        std::iter::once(&mut self.critic_out)
            .chain(&mut self.critic_hidden)
            .chain(std::iter::once(&mut self.critic_state))
            .chain(&mut self.critic_action)
    }

    /// Weight and bias gradients of every actor layer, in
    /// [`GcnAgent::actor_layers_mut`] order, for the loss gradient
    /// `d_actions` with respect to the actor's output.
    fn actor_gradients(
        &self,
        cache: &ActorCache,
        d_actions: &Matrix,
        adjacency: &Matrix,
    ) -> Vec<LayerGrads> {
        // Through the tanh output head.
        let d_pre = Activation::Tanh.backward(&cache.tanh_out, d_actions.clone());

        // Through the per-type decoders.
        let mut decoder_grads = Vec::with_capacity(NUM_TYPES);
        let mut d_h = Matrix::zeros(d_pre.rows(), self.hidden_dim);
        for (dec, mask) in self.actor_decoders.iter().zip(&self.type_masks) {
            let grads = dec
                .layer
                .backward(&cache.decoder_cache, &mask_rows(&d_pre, mask));
            d_h += &grads.d_input;
            decoder_grads.push((grads.d_weight, grads.d_bias));
        }

        // Through the hidden GCN stack (reverse order).
        let mut hidden_grads = Vec::with_capacity(self.gcn_layers);
        for (layer, (cache_l, act)) in self.actor_hidden.iter().zip(&cache.hidden).rev() {
            let d_act = Activation::Relu.backward(act, d_h);
            let grads = layer.layer.backward(cache_l, &d_act);
            d_h = self.backprop_propagate(adjacency, grads.d_input);
            hidden_grads.push((grads.d_weight, grads.d_bias));
        }
        hidden_grads.reverse();

        // Through the shared input layer.
        let d_input_act = Activation::Relu.backward(&cache.input_act, d_h);
        let input_grads = self
            .actor_input
            .layer
            .backward(&cache.input_cache, &d_input_act);

        let mut grads = vec![(input_grads.d_weight, input_grads.d_bias)];
        grads.extend(hidden_grads);
        grads.extend(decoder_grads);
        grads
    }

    /// Backpropagates `d_actions` (gradient of some loss with respect to the
    /// actor's output) and applies one Adam step to every actor parameter.
    pub fn actor_apply(&mut self, cache: &ActorCache, d_actions: &Matrix, adjacency: &Matrix) {
        let grads = self.actor_gradients(cache, d_actions, adjacency);
        for (layer, (dw, db)) in self.actor_layers_mut().zip(&grads) {
            layer.apply(dw, db);
        }
    }

    /// Weight and bias gradients of every critic layer, in
    /// [`GcnAgent::critic_layers_mut`] order, and the gradient with respect
    /// to the action matrix, all for the loss gradient `d_q` on the value.
    fn critic_gradients(
        &self,
        cache: &CriticCache,
        d_q: f64,
        adjacency: &Matrix,
    ) -> (Vec<LayerGrads>, Matrix) {
        let n = cache.num_nodes;
        // dQ/d(values) = 1/n for every node.
        let d_values = Matrix::filled(n, 1, d_q / n as f64);
        let out_grads = self.critic_out.layer.backward(&cache.out_cache, &d_values);
        let mut grads = vec![(out_grads.d_weight, out_grads.d_bias)];
        let mut d_h = out_grads.d_input;

        let mut hidden_grads = Vec::with_capacity(self.gcn_layers);
        for (layer, (cache_l, act)) in self.critic_hidden.iter().zip(&cache.hidden).rev() {
            let d_act = Activation::Relu.backward(act, d_h);
            let layer_grads = layer.layer.backward(cache_l, &d_act);
            d_h = self.backprop_propagate(adjacency, layer_grads.d_input);
            hidden_grads.push((layer_grads.d_weight, layer_grads.d_bias));
        }
        hidden_grads.reverse();
        grads.extend(hidden_grads);

        // Through the ReLU that combined state and action embeddings.
        let d_combined = Activation::Relu.backward(&cache.combine_act, d_h);

        let state_grads = self
            .critic_state
            .layer
            .backward(&cache.state_cache, &d_combined);
        grads.push((state_grads.d_weight, state_grads.d_bias));

        let mut d_actions = Matrix::zeros(n, ACTION_DIM);
        for (enc, mask) in self.critic_action.iter().zip(&self.type_masks) {
            // Only rows of this encoder's type received its output.
            let enc_grads = enc
                .layer
                .backward(&cache.action_cache, &mask_rows(&d_combined, mask));
            d_actions += &enc_grads.d_input;
            grads.push((enc_grads.d_weight, enc_grads.d_bias));
        }
        (grads, d_actions)
    }

    /// Backpropagates a scalar `d_q` through the critic.  Returns the gradient
    /// of `q` (scaled by `d_q`) with respect to the action matrix, and
    /// optionally applies the parameter updates (`apply = true` for the critic
    /// regression step, `false` when the critic is only used to obtain the
    /// action gradient for the actor update).
    pub fn critic_backward(
        &mut self,
        cache: &CriticCache,
        d_q: f64,
        adjacency: &Matrix,
        apply: bool,
    ) -> Matrix {
        let (grads, d_actions) = self.critic_gradients(cache, d_q, adjacency);
        if apply {
            for (layer, (dw, db)) in self.critic_layers_mut().zip(&grads) {
                layer.apply(dw, db);
            }
        }
        d_actions
    }

    /// One DDPG critic regression step over a mini-batch of `(action, reward)`
    /// transitions with baseline `b`: minimises `mean_k (r_k - b - Q(s, a_k))^2`.
    /// Returns the batch loss before the update.
    ///
    /// The `B` forward passes run first, as one row-stacked pass with the
    /// pre-update weights. The backward passes then run one sample at a time,
    /// in batch order, each followed by an Adam step on every critic layer.
    /// So a call takes `B` Adam steps, not one mini-batch step: each carries
    /// the `1/B`-scaled gradient of one sample, and sample `k` backpropagates
    /// its cached pre-update activations through weights that samples
    /// `0..k` have already moved.
    pub fn critic_update(
        &mut self,
        states: &Matrix,
        adjacency: &Matrix,
        batch: &[(Matrix, f64)],
        baseline: f64,
    ) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let actions: Vec<&Matrix> = batch.iter().map(|(action, _)| action).collect();
        let forward = self.critic_forward_batch(states, &actions, adjacency);
        let mut loss = 0.0;
        let mut d_qs = Vec::with_capacity(batch.len());
        for ((_, reward), q) in batch.iter().zip(&forward.q) {
            let err = reward - baseline - q;
            loss += err * err;
            d_qs.push(-2.0 * err / batch.len() as f64);
        }
        for (k, d_q) in d_qs.into_iter().enumerate() {
            let _ = self.critic_backward(&forward.sample(k), d_q, adjacency, true);
        }
        loss / batch.len() as f64
    }

    /// One DDPG actor step: pushes the actor's output in the direction that
    /// increases the critic's value (sampled policy gradient).
    /// Returns the critic's value before the update.
    pub fn actor_update(&mut self, states: &Matrix, adjacency: &Matrix) -> f64 {
        let (actions, actor_cache) = self.actor_forward(states, adjacency);
        let (q, critic_cache) = self.critic_forward(states, &actions, adjacency);
        // dQ/dA, without touching the critic's parameters.
        let d_actions = self.critic_backward(&critic_cache, 1.0, adjacency, false);
        // Gradient ascent on Q = descent on -Q.
        let d_loss = d_actions.scaled(-1.0);
        self.actor_apply(&actor_cache, &d_loss, adjacency);
        q
    }

    /// Greedy action for the current policy (no exploration noise).
    pub fn act(&self, states: &Matrix, adjacency: &Matrix) -> Matrix {
        self.actor_forward(states, adjacency).0
    }

    /// Extracts a serializable checkpoint of every learnable parameter.
    pub fn checkpoint(&self) -> AgentCheckpoint {
        AgentCheckpoint {
            kind: self.kind,
            state_dim: self.state_dim,
            hidden_dim: self.hidden_dim,
            gcn_layers: self.gcn_layers,
            actor_input: self.actor_input.layer.clone(),
            actor_hidden: self.actor_hidden.iter().map(|l| l.layer.clone()).collect(),
            actor_decoders: self
                .actor_decoders
                .iter()
                .map(|l| l.layer.clone())
                .collect(),
            critic_state: self.critic_state.layer.clone(),
            critic_action: self.critic_action.iter().map(|l| l.layer.clone()).collect(),
            critic_hidden: self.critic_hidden.iter().map(|l| l.layer.clone()).collect(),
            critic_out: self.critic_out.layer.clone(),
        }
    }

    /// Loads parameters from a checkpoint (the transfer-learning step of the
    /// paper: "inheriting the pre-trained weights of the actor-critic model").
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint architecture (state dim, hidden width, depth)
    /// does not match this agent.
    pub fn load_checkpoint(&mut self, ckpt: &AgentCheckpoint) {
        assert_eq!(ckpt.state_dim, self.state_dim, "state dimension mismatch");
        assert_eq!(ckpt.hidden_dim, self.hidden_dim, "hidden width mismatch");
        assert_eq!(ckpt.gcn_layers, self.gcn_layers, "depth mismatch");
        self.actor_input.layer = ckpt.actor_input.clone();
        for (l, c) in self.actor_hidden.iter_mut().zip(&ckpt.actor_hidden) {
            l.layer = c.clone();
        }
        for (l, c) in self.actor_decoders.iter_mut().zip(&ckpt.actor_decoders) {
            l.layer = c.clone();
        }
        self.critic_state.layer = ckpt.critic_state.clone();
        for (l, c) in self.critic_action.iter_mut().zip(&ckpt.critic_action) {
            l.layer = c.clone();
        }
        for (l, c) in self.critic_hidden.iter_mut().zip(&ckpt.critic_hidden) {
            l.layer = c.clone();
        }
        self.critic_out.layer = ckpt.critic_out.clone();
    }

    /// The per-component type indices the agent was built with.
    pub fn component_types(&self) -> &[usize] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_agent(kind: AgentKind) -> (GcnAgent, Matrix, Matrix) {
        let types = vec![0, 1, 2, 3, 0];
        let n = types.len();
        let state_dim = 6;
        let agent = GcnAgent::new(kind, state_dim, 16, 2, &types, 1e-2, 1e-2, 7);
        let states = Matrix::from_fn(n, state_dim, |r, c| ((r * 7 + c) as f64).sin());
        // Ring graph, normalised by hand (every degree = 3 with self loops).
        let adjacency = Matrix::from_fn(n, n, |i, j| {
            let diff = (i as i64 - j as i64).rem_euclid(n as i64);
            if diff == 0 || diff == 1 || diff == n as i64 - 1 {
                1.0 / 3.0
            } else {
                0.0
            }
        });
        (agent, states, adjacency)
    }

    #[test]
    fn actor_outputs_bounded_actions_of_right_shape() {
        for kind in [AgentKind::Gcn, AgentKind::NonGcn] {
            let (agent, states, adj) = toy_agent(kind);
            let actions = agent.act(&states, &adj);
            assert_eq!(actions.shape(), (5, 3));
            assert!(actions.as_slice().iter().all(|a| a.abs() <= 1.0));
        }
    }

    #[test]
    fn critic_produces_finite_scalar() {
        let (agent, states, adj) = toy_agent(AgentKind::Gcn);
        let actions = Matrix::filled(5, 3, 0.2);
        let (q, _) = agent.critic_forward(&states, &actions, &adj);
        assert!(q.is_finite());
    }

    #[test]
    fn critic_update_reduces_regression_loss() {
        let (mut agent, states, adj) = toy_agent(AgentKind::Gcn);
        let batch: Vec<(Matrix, f64)> = (0..8)
            .map(|i| {
                let a = Matrix::from_fn(5, 3, |r, c| ((i + r + c) as f64 * 0.37).sin());
                let reward = a.sum() / 15.0; // a learnable smooth target
                (a, reward)
            })
            .collect();
        let first = agent.critic_update(&states, &adj, &batch, 0.0);
        let mut last = first;
        for _ in 0..60 {
            last = agent.critic_update(&states, &adj, &batch, 0.0);
        }
        assert!(
            last < first * 0.8,
            "critic loss should shrink: {first} -> {last}"
        );
    }

    #[test]
    fn actor_update_increases_critic_value() {
        let (mut agent, states, adj) = toy_agent(AgentKind::Gcn);
        // Give the critic a preference for large actions by fitting it first.
        let batch: Vec<(Matrix, f64)> = (0..8)
            .map(|i| {
                let v = -1.0 + 2.0 * (i as f64 / 7.0);
                (Matrix::filled(5, 3, v), v)
            })
            .collect();
        for _ in 0..80 {
            agent.critic_update(&states, &adj, &batch, 0.0);
        }
        let q_before = {
            let a = agent.act(&states, &adj);
            agent.critic_forward(&states, &a, &adj).0
        };
        for _ in 0..30 {
            agent.actor_update(&states, &adj);
        }
        let q_after = {
            let a = agent.act(&states, &adj);
            agent.critic_forward(&states, &a, &adj).0
        };
        assert!(
            q_after > q_before,
            "actor should climb the critic: {q_before} -> {q_after}"
        );
    }

    #[test]
    fn gcn_and_non_gcn_differ() {
        let (gcn, states, adj) = toy_agent(AgentKind::Gcn);
        let (ng, _, _) = toy_agent(AgentKind::NonGcn);
        assert_eq!(gcn.kind(), AgentKind::Gcn);
        assert_ne!(gcn.act(&states, &adj), ng.act(&states, &adj));
    }

    #[test]
    fn checkpoint_round_trip_preserves_policy() {
        let (agent, states, adj) = toy_agent(AgentKind::Gcn);
        let ckpt = agent.checkpoint();
        let types = agent.component_types().to_vec();
        let mut fresh = GcnAgent::new(AgentKind::Gcn, 6, 16, 2, &types, 1e-2, 1e-2, 99);
        assert_ne!(fresh.act(&states, &adj), agent.act(&states, &adj));
        fresh.load_checkpoint(&ckpt);
        assert_eq!(fresh.act(&states, &adj), agent.act(&states, &adj));
    }

    /// Central-difference step of the gradient checks.
    const FD_EPS: f64 = 1e-6;
    /// Relative tolerance of an analytic gradient against its central
    /// difference, over a floor of `FD_FLOOR` for near-zero gradients.
    const FD_REL_TOL: f64 = 1e-6;
    const FD_FLOOR: f64 = 1e-6;

    fn assert_gradient(analytic: f64, numeric: f64, what: &str) {
        let scale = analytic.abs().max(numeric.abs()).max(FD_FLOOR);
        assert!(
            (analytic - numeric).abs() <= FD_REL_TOL * scale,
            "{what}: analytic {analytic:e} vs central difference {numeric:e}"
        );
    }

    /// `(f(+eps) - f(-eps)) / 2 eps`.
    fn central_difference(mut f: impl FnMut(f64) -> f64) -> f64 {
        (f(FD_EPS) - f(-FD_EPS)) / (2.0 * FD_EPS)
    }

    /// Adds `delta` to weight `(i, j)` of `layer`.
    fn nudge(layer: &mut OptLinear, (i, j): (usize, usize), delta: f64) {
        let mut w = layer.layer.weight().clone();
        w[(i, j)] += delta;
        layer.layer = Linear::from_parameters(w, layer.layer.bias().to_vec());
    }

    /// Two weight entries of every layer, spread over rows and columns.
    fn sampled_entries(layer: &OptLinear) -> [(usize, usize); 2] {
        let (rows, cols) = layer.layer.weight().shape();
        [(0, 0), ((rows * 2) / 3, (cols * 3) / 4)]
    }

    /// A row-varying matrix with entries in (-1, 1).
    fn probe_matrix(rows: usize, cols: usize, phase: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f64 * 0.73 + phase).sin()
        })
    }

    /// Checks `critic_backward`'s action gradient and sampled critic and
    /// actor weight gradients against central differences.
    fn check_agent_gradients(mut agent: GcnAgent, states: &Matrix, adj: &Matrix) {
        let n = states.rows();
        let actions = probe_matrix(n, ACTION_DIM, 0.4).scaled(0.9);

        // dQ/dA from the backward pass that leaves the critic untouched.
        let (_, cache) = agent.critic_forward(states, &actions, adj);
        let d_actions = agent.critic_backward(&cache, 1.0, adj, false);
        for r in 0..n {
            for c in 0..ACTION_DIM {
                let numeric = central_difference(|delta| {
                    let mut a = actions.clone();
                    a[(r, c)] += delta;
                    agent.critic_forward(states, &a, adj).0
                });
                assert_gradient(d_actions[(r, c)], numeric, &format!("dQ/dA[{r}][{c}]"));
            }
        }

        // dQ/dW for every critic layer.
        let (critic_grads, _) = agent.critic_gradients(&cache, 1.0, adj);
        let layers = agent.critic_layers_mut().count();
        for (l, (dw, _)) in (0..layers).zip(&critic_grads) {
            let entries = sampled_entries(agent.critic_layers_mut().nth(l).unwrap());
            for entry in entries {
                let numeric = central_difference(|delta| {
                    nudge(agent.critic_layers_mut().nth(l).unwrap(), entry, delta);
                    let q = agent.critic_forward(states, &actions, adj).0;
                    nudge(agent.critic_layers_mut().nth(l).unwrap(), entry, -delta);
                    q
                });
                assert_gradient(
                    dw[entry],
                    numeric,
                    &format!("critic layer {l} dQ/dW{entry:?}"),
                );
            }
        }

        // dL/dW for every actor layer, with L = sum(G * actions).
        let weights = probe_matrix(n, ACTION_DIM, 1.3);
        let loss = |agent: &GcnAgent| agent.act(states, adj).hadamard(&weights).unwrap().sum();
        let (_, actor_cache) = agent.actor_forward(states, adj);
        let actor_grads = agent.actor_gradients(&actor_cache, &weights, adj);
        let layers = agent.actor_layers_mut().count();
        for (l, (dw, _)) in (0..layers).zip(&actor_grads) {
            let entries = sampled_entries(agent.actor_layers_mut().nth(l).unwrap());
            for entry in entries {
                let numeric = central_difference(|delta| {
                    nudge(agent.actor_layers_mut().nth(l).unwrap(), entry, delta);
                    let value = loss(&agent);
                    nudge(agent.actor_layers_mut().nth(l).unwrap(), entry, -delta);
                    value
                });
                assert_gradient(
                    dw[entry],
                    numeric,
                    &format!("actor layer {l} dL/dW{entry:?}"),
                );
            }
        }
    }

    #[test]
    fn toy_agent_gradients_match_finite_differences() {
        for kind in [AgentKind::Gcn, AgentKind::NonGcn] {
            let (agent, states, adj) = toy_agent(kind);
            check_agent_gradients(agent, &states, &adj);
        }
    }

    #[test]
    fn default_network_gradients_match_finite_differences_on_a_paper_circuit() {
        use crate::{EngineConfig, FomConfig, SizingEnv, StateEncoding};
        use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
        use gcnrl_rl::DdpgConfig;

        let env = SizingEnv::with_engine_config(
            Benchmark::ThreeStageTia,
            &TechnologyNode::tsmc180(),
            FomConfig::new(Vec::new()),
            StateEncoding::ScalarIndex,
            EngineConfig::serial(),
        );
        let config = DdpgConfig::default();
        let agent = GcnAgent::new(
            AgentKind::Gcn,
            env.states().cols(),
            config.hidden_dim,
            config.gcn_layers,
            &env.component_types(),
            config.actor_lr,
            config.critic_lr,
            3,
        );
        check_agent_gradients(agent, env.states(), env.adjacency());
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn incompatible_checkpoint_panics() {
        let (agent, ..) = toy_agent(AgentKind::Gcn);
        let ckpt = agent.checkpoint();
        let mut other = GcnAgent::new(AgentKind::Gcn, 7, 16, 2, &[0, 1], 1e-2, 1e-2, 1);
        other.load_checkpoint(&ckpt);
    }
}
