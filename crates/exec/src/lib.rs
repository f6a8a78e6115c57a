//! # gcnrl-exec — parallel batched evaluation with content-addressed caching
//!
//! Candidate evaluation dominates every optimisation run in this workspace:
//! each RL step, ES population member and BO acquisition round pays one full
//! simulator call. This crate is the execution subsystem that owns that cost
//! so the optimizers never have to think about it. It sits between the
//! optimizers (`gcnrl`, `gcnrl-baselines`) and the simulator (`gcnrl-sim`):
//!
//! ```text
//!   GcnRlDesigner / ES / BO / MACE / Random
//!                  │  ParamVector batches
//!                  ▼
//!          ┌───────────────────┐    stats    ┌───────────┐
//!          │   BatchEvaluator  │────────────▶│ ExecStats │
//!          └───────┬───────────┘             └───────────┘
//!          hit ┌───┴────┐ miss
//!              ▼        ▼
//!       ┌───────────┐ ┌───────────────┐
//!       │ResultCache│ │  WorkerPool   │  (std::thread + mpsc)
//!       │ (LRU+disk)│ │ evaluate(...) │
//!       └───────────┘ └───────┬───────┘
//!                             ▼
//!                     gcnrl-sim Evaluator (pure function)
//! ```
//!
//! The pillars:
//!
//! * [`BatchEvaluator`] — fans a batch of [`ParamVector`]s across a
//!   configurable worker pool and returns reports **in input order**. Because
//!   every `Evaluator` is a pure function of its parameter vector, the result
//!   is bit-identical for any thread count.
//! * [`ResultCache`] — a content-addressed LRU cache keyed by
//!   [`CacheKey`] = (benchmark, technology node, quantized parameter vector),
//!   with hit/miss/eviction counters and an optional append-only record log
//!   for cross-run reuse ([`persist`]).
//! * [`EvalService`] / [`SessionHandle`] — the request-queue front-end
//!   ([`service`]): many concurrent sessions submit batches that a single
//!   dispatcher assembles into fair, deduplicated engine rounds, resolved
//!   through per-request reply channels. [`EvalBackend`] abstracts over
//!   "owned engine" vs "service session" so clients cannot tell the
//!   difference.
//! * [`ExecStats`] — throughput, cache hit rate and wall time, surfaced by
//!   the bench harness next to each method's result.
//!
//! # Example
//!
//! ```
//! use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
//! use gcnrl_exec::{BatchEvaluator, EngineConfig};
//!
//! let node = TechnologyNode::tsmc180();
//! let engine = BatchEvaluator::for_benchmark(
//!     Benchmark::TwoStageTia,
//!     &node,
//!     EngineConfig::default().with_threads(4),
//! );
//! let space = Benchmark::TwoStageTia.circuit().design_space(&node);
//! let batch = vec![space.nominal(); 3];
//! let reports = engine.evaluate_batch(&batch);
//! assert_eq!(reports.len(), 3);
//! // The three candidates are identical, so only one was simulated:
//! assert_eq!(engine.stats().simulated, 1);
//! ```
//!
//! [`ParamVector`]: gcnrl_circuit::ParamVector

mod backend;
mod cache;
mod engine;
pub mod key;
pub mod persist;
mod pool;
pub mod service;
mod stats;
pub mod testing;

pub use backend::EvalBackend;
pub use cache::ResultCache;
pub use engine::{BatchEvaluator, EngineConfig};
// Strict `GCNRL_*` knob parsing moved to the bottom of the crate graph
// (gcnrl-telemetry) so every layer shares it; re-exported for the existing
// `gcnrl_exec::env_usize` call sites.
pub use gcnrl_telemetry::env_usize;
pub use key::{quantize, CacheKey, DEFAULT_QUANTIZE_DIGITS};
pub use pool::WorkerPool;
pub use service::{
    panic_message, ClosedSessionStats, EvalService, PendingBatch, ServiceClosed, ServiceConfig,
    SessionHandle, SessionStats,
};
pub use stats::{BatchReport, ExecStats};
