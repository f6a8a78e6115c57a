//! Minimal neural-network building blocks for the GCN-RL agent.
//!
//! No deep-learning framework is available offline, so this crate provides
//! exactly what the paper's actor–critic networks need (Fig. 3):
//!
//! * [`Linear`] — a dense layer with manual forward/backward passes.
//! * [`Activation`] — ReLU and Tanh with their derivatives, applied in
//!   place.
//! * [`gcn_propagate`] / [`gcn_backprop`] — the Kipf–Welling propagation step
//!   `H' = Â H` over a fixed normalised adjacency (Eq. 4 of the paper);
//!   `gcn_propagate` also aggregates several graphs' features stacked
//!   row-wise.
//! * [`Adam`] — the Adam optimiser: [`Adam::step`] updates the moments and
//!   the parameter slice in one in-place pass (what
//!   [`Linear::apply_update`] runs), flushing subnormal moments to zero.
//! * Xavier/Glorot initialisation seeded per layer for reproducibility.
//!
//! Networks are assembled in the `gcnrl` core crate; this crate is purely the
//! math.
//!
//! # Examples
//!
//! ```
//! use gcnrl_nn::{Activation, Adam, Linear};
//! use gcnrl_linalg::Matrix;
//! use std::sync::Arc;
//!
//! let mut layer = Linear::xavier(4, 8, 42);
//! let x = Arc::new(Matrix::filled(3, 4, 0.5));
//! let (y, cache) = layer.forward(&x); // the cache shares x, no copy
//! let h = Activation::Relu.forward(y);
//! assert_eq!(h.shape(), (3, 8));
//! let d_y = Activation::Relu.backward(&h, Matrix::filled(3, 8, 1.0));
//! let grads = layer.backward(&cache, &d_y);
//! assert_eq!(grads.d_weight.shape(), (4, 8));
//! let (mut opt_w, mut opt_b) = (Adam::new(4 * 8, 1e-3), Adam::new(8, 1e-3));
//! layer.apply_update(&mut opt_w, &mut opt_b, &grads.d_weight, &grads.d_bias);
//! ```

mod activation;
mod adam;
mod gcn;
mod linear;

pub use activation::Activation;
pub use adam::Adam;
pub use gcn::{gcn_backprop, gcn_propagate};
pub use linear::{Linear, LinearCache, LinearGradients, SharedMatrix};
