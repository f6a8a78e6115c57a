//! Sparse linear algebra for the MNA hot path.
//!
//! Circuit admittance and Jacobian matrices are extremely sparse (a handful
//! of nonzeros per row) and their structure is fixed per topology.  This
//! module exploits both facts:
//!
//! * [`SparsityPattern`] — the immutable CSR structure, built once per
//!   topology and shared via `Arc`; it assigns a *slot* index to every
//!   structural nonzero so value arrays can be restamped in place.
//! * [`TripletBuilder`] / [`CsrMatrix`] — accumulation-friendly construction
//!   and the CSR value container (real `f64` or [`Complex`](crate::Complex),
//!   via [`SparseScalar`]).
//! * [`SymbolicLu`] — fill-reducing Markowitz ordering (diagonal-preferring,
//!   SPICE-style) and the complete fill pattern of `L + U`, computed **once
//!   per pattern**.
//! * [`SparseLu`] — numeric factorisation state that replays the elimination
//!   over the precomputed structure on every [`SparseLu::refactor`] with no
//!   allocation, then serves any number of right-hand sides.
//! * [`SoaLu`] — struct-of-arrays complex kernels that factor and solve up
//!   to [`SOA_LANES`] frequency points per pass over split re/im arrays,
//!   each lane bit-identical to the scalar path.
//!
//! # Examples
//!
//! ```
//! use gcnrl_linalg::sparse::{splu, TripletBuilder};
//!
//! # fn main() -> Result<(), gcnrl_linalg::LinalgError> {
//! let mut b = TripletBuilder::new(2);
//! b.push(0, 0, 4.0);
//! b.push(1, 1, 2.0);
//! b.push(0, 1, 1.0);
//! let a = b.build()?;
//! let lu = splu(&a)?;
//! let x = lu.solve(&[9.0, 4.0])?;
//! assert!((x[0] - 1.75).abs() < 1e-12);
//! assert!((x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cmplx_soa;
mod csr;
mod lu;
mod pattern;
mod scalar;

pub use cmplx_soa::{SoaLu, SOA_LANES};
pub use csr::{CsrMatrix, TripletBuilder};
pub use lu::{splu, SparseLu, SymbolicLu};
pub use pattern::SparsityPattern;
pub use scalar::SparseScalar;
