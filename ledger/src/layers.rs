//! Per-layer metrics of a traced run.
//!
//! A workload's traced pass supplies what it measured on its own path;
//! layers it does not touch are filled from the probes, so every traced
//! run prints the same set of metrics.

use crate::probes::Probes;
use crate::report::Outcome;
use crate::spans::{self, Layer, Span};
use crate::stats;
use gcnrl_exec::ExecStats;
use gcnrl_sim::SolverStats;
use std::collections::BTreeMap;

/// What a workload's traced pass measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    /// Wall seconds of the traced pass.
    pub traced_wall_s: f64,
    /// CPU time of a traced pass over that of an untraced pass of the same
    /// work run before it, minus 1.
    pub overhead_frac: f64,
    /// Engine counters over the traced pass, and the engine's worker count.
    pub engine: ExecStats,
    pub engine_threads: usize,
    /// Solver counters over the traced pass.
    pub solver: SolverStats,
    /// Service queue waits (ns) of the workload's services.
    pub queue_waits_ns: Vec<u64>,
    /// Round-trip times (µs) of the workload's RPCs; empty off the wire.
    pub rpc_us: Vec<f64>,
    pub reconnects: u64,
    /// `(connections_total, admission_rejected)` of the workload's server.
    pub server: Option<(u64, u64)>,
    /// Span name of the workload's step, for the attributed share.
    pub step_span: &'static str,
    /// Share of the step wall spent in the learner; 0 off `train_gcnrl`.
    pub learner_share: f64,
}

pub fn exec_delta(after: &ExecStats, before: &ExecStats) -> ExecStats {
    ExecStats {
        requests: after.requests - before.requests,
        simulated: after.simulated - before.simulated,
        cache_hits: after.cache_hits - before.cache_hits,
        evictions: after.evictions - before.evictions,
        batches: after.batches - before.batches,
        cache_len: after.cache_len,
        wall_seconds: after.wall_seconds - before.wall_seconds,
    }
}

pub fn exec_sum(stats: impl IntoIterator<Item = ExecStats>) -> ExecStats {
    stats.into_iter().fold(ExecStats::default(), |mut acc, s| {
        acc.requests += s.requests;
        acc.simulated += s.simulated;
        acc.cache_hits += s.cache_hits;
        acc.evictions += s.evictions;
        acc.batches += s.batches;
        acc.cache_len += s.cache_len;
        acc.wall_seconds += s.wall_seconds;
        acc
    })
}

pub fn solver_delta(after: &SolverStats, before: &SolverStats) -> SolverStats {
    SolverStats {
        symbolic_analyses: after.symbolic_analyses - before.symbolic_analyses,
        sparse_refactors: after.sparse_refactors - before.sparse_refactors,
        sparse_solves: after.sparse_solves - before.sparse_solves,
        dense_factors: after.dense_factors - before.dense_factors,
        dense_solves: after.dense_solves - before.dense_solves,
        template_hits: after.template_hits - before.template_hits,
        template_builds: after.template_builds - before.template_builds,
        update_hits: after.update_hits - before.update_hits,
        refactor_fallbacks: after.refactor_fallbacks - before.refactor_fallbacks,
        cache_evictions: after.cache_evictions - before.cache_evictions,
    }
}

/// Self time over wall of the spans called `name`: the share of those steps
/// not covered by the spans opened beneath them.
pub fn step_self_share(spans: &[Span], name: &str) -> f64 {
    let coverage = spans::child_coverage(spans);
    let (wall, covered) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(w, c), s| {
            (w + s.duration_ns(), c + coverage[&s.id])
        });
    ratio((wall - covered) as f64, wall as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, by name; `out` is the traced pass's outcome.
pub fn metrics(t: &Traced, p: &Probes, out: &Outcome) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("host.slowness", out.slowness);
    m.insert("evals_per_s", out.evals as f64 / out.wall_s.max(1e-9));
    m.insert("step_ms_p50", stats::median(&out.step_ms));
    m.insert("step_ms_p90", stats::quantile(&out.step_ms, 0.90));
    m.insert("step_ms_p99", stats::quantile(&out.step_ms, 0.99));
    m.insert("step_ms_p50_cold", stats::median(&out.cold_step_ms));
    let totals = spans::layer_totals(&t.spans);
    let traced_wall_ns = t.traced_wall_s * 1e9;

    // Learner: the agent's calls happen inside the designer, out of sight of
    // the ledger, so their per-call times come from the probe.
    m.insert("learner.act_ms", p.act_ms);
    m.insert("learner.critic_update_ms", p.critic_update_ms);
    m.insert("learner.actor_update_ms", p.actor_update_ms);
    m.insert("learner.share", t.learner_share);
    m.insert("linalg.matmul_gflops", p.matmul_gflops);
    m.insert("learner.flops_per_round", p.flops_per_round);

    // Solver.
    let simulated = t.engine.simulated as f64;
    m.insert("sim.evaluate_us", p.evaluate_us);
    m.insert(
        "sim.sparse_refactors_per_eval",
        ratio(t.solver.sparse_refactors as f64, simulated),
    );
    m.insert(
        "sim.sparse_solves_per_eval",
        ratio(t.solver.sparse_solves as f64, simulated),
    );
    m.insert("sim.template_hit_rate", t.solver.template_hit_rate());

    // Engine.
    m.insert(
        "engine.batch_ms",
        ratio(t.engine.wall_seconds * 1e3, t.engine.batches as f64),
    );
    let solver_ns = totals.total_ns[Layer::Solver as usize] as f64;
    m.insert(
        "engine.pool_efficiency",
        if solver_ns > 0.0 {
            ratio(
                solver_ns,
                t.engine.wall_seconds * 1e9 * t.engine_threads as f64,
            )
        } else {
            p.pool_efficiency
        },
    );
    m.insert("engine.cache_hit_rate", t.engine.hit_rate());
    m.insert("engine.requests", t.engine.requests as f64);
    m.insert("engine.simulated", simulated);
    m.insert("engine.evictions", t.engine.evictions as f64);

    // Service.
    m.insert("service.overhead_us", p.service_overhead_us);
    let waits: Vec<f64> = if t.queue_waits_ns.is_empty() {
        p.queue_waits_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    } else {
        t.queue_waits_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    };
    m.insert("service.queue_wait_us_p50", stats::quantile(&waits, 0.5));
    m.insert("service.queue_wait_us_p90", stats::quantile(&waits, 0.9));

    // Wire.
    let rpc = if t.rpc_us.is_empty() {
        &p.rpc_us
    } else {
        &t.rpc_us
    };
    m.insert("wire.rpc_us_p50", stats::quantile(rpc, 0.5));
    m.insert("wire.rpc_us_p99", stats::quantile(rpc, 0.99));
    m.insert("wire.overhead_us_p50", p.wire_overhead_us_p50);
    m.insert("wire.rpc_us_per_eval_b256", p.rpc_us_per_eval_b256);
    let (reconnects, (connections, rejected)) = match t.server {
        Some(server) => (t.reconnects, server),
        None => (p.reconnects, p.server),
    };
    m.insert("wire.reconnects", reconnects as f64);
    m.insert("wire.connections_total", connections as f64);
    m.insert("wire.admission_rejected", rejected as f64);

    // Tracing.
    m.insert("trace.overhead_frac", t.overhead_frac);
    m.insert(
        "trace.attributed_share",
        1.0 - step_self_share(&t.spans, t.step_span),
    );
    m.insert("trace.spans", t.spans.len() as f64);
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Rollout => "self_share.rollout",
            Layer::Service => "self_share.service",
            Layer::Engine => "self_share.engine",
            Layer::Solver => "self_share.solver",
            Layer::Wire => "self_share.wire",
        };
        m.insert(
            name,
            ratio(totals.self_ns[layer as usize] as f64, traced_wall_ns),
        );
    }
    m
}
