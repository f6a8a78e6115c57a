//! What one run measured, and how it is printed.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`). Times
/// are process CPU time scaled to a quiet host (see `host` and README: wall
/// time on a shared host moves with the neighbours).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("evals_per_cpu_s", "1/s"),
    ("step_cpu_ms", "ms"),
    ("explore_fom", "fom"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). The wall
/// times and step tail percentiles lead: they are end-to-end quantities, but
/// too unsteady across runs to carry a bound (see README).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("host.slowness", "ratio"),
    ("evals_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("step_ms_p99", "ms"),
    ("step_ms_p50_cold", "ms"),
    ("learner.act_ms", "ms"),
    ("learner.critic_update_ms", "ms"),
    ("learner.actor_update_ms", "ms"),
    ("learner.share", "ratio"),
    ("linalg.matmul_gflops", "GFLOP/s"),
    ("learner.flops_per_round", "flop_computed"),
    ("sim.evaluate_us", "us"),
    ("sim.sparse_refactors_per_eval", "count"),
    ("sim.sparse_solves_per_eval", "count"),
    ("sim.template_hit_rate", "ratio"),
    ("engine.batch_ms", "ms"),
    ("engine.pool_efficiency", "ratio"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.requests", "count"),
    ("engine.simulated", "count"),
    ("engine.evictions", "count"),
    ("service.overhead_us", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p90", "us"),
    ("wire.rpc_us_p50", "us"),
    ("wire.rpc_us_p99", "us"),
    ("wire.overhead_us_p50", "us"),
    ("wire.rpc_us_per_eval_b256", "us"),
    ("wire.reconnects", "count"),
    ("wire.connections_total", "count"),
    ("wire.admission_rejected", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.spans", "count"),
    ("self_share.rollout", "ratio"),
    ("self_share.service", "ratio"),
    ("self_share.engine", "ratio"),
    ("self_share.solver", "ratio"),
    ("self_share.wire", "ratio"),
];

/// A share of a timed phase: the evaluations it completed and the process
/// CPU seconds it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    pub evals: u64,
    pub cpu_s: f64,
}

/// One correctness check of a run's outputs.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// The timed phase of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// CPU seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall and CPU seconds of the timed phase.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// How much slower than a quiet host the host ran during the timed
    /// phase (see `host`); the end-to-end times are divided by it.
    pub slowness: f64,
    /// Candidate evaluations completed in the timed phase.
    pub evals: u64,
    /// Wall milliseconds of every step (see the workload for what a step is;
    /// on `serve_es`, every hot-pass RPC).
    pub step_ms: Vec<f64>,
    /// The timed phase cut into blocks of equal work (see the workload):
    /// `evals_per_cpu_s` is a median over blocks, so a slow spell of the
    /// host that covers less than half of them cannot move it.
    pub blocks: Vec<Block>,
    /// The process CPU milliseconds of every step, in groups that cover
    /// every circuit alike (see the workload): `step_cpu_ms` is the median
    /// over groups of the group's mean.
    pub step_cpu_ms: Vec<Vec<f64>>,
    /// Wall milliseconds of every cold-pass RPC; empty off `serve_es`.
    pub cold_step_ms: Vec<f64>,
    /// Mean exploration FoM above the calibrated floor (see README), and
    /// that floor averaged over the circuits.
    pub explore_fom: f64,
    pub fom_floor: f64,
    /// Peak resident set size at the end of the timed phase.
    pub peak_rss_mb: f64,
    /// Evaluations attempted and evaluations that failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Units of work completed (designer runs, search calls, ES pairs).
    pub units: usize,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let (attempted, failed) = self.totals();
        let mut m = BTreeMap::new();
        m.insert("setup_s", stats::median(&self.setup_s));
        let rates: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| b.evals as f64 / b.cpu_s.max(1e-9))
            .collect();
        // A group's mean step, not its median: a group mixes circuits whose
        // steps differ in cost, and a median would fall between two of them.
        let step_means: Vec<f64> = self.step_cpu_ms.iter().map(|g| stats::mean(g)).collect();
        m.insert("evals_per_cpu_s", stats::median(&rates) * self.slowness);
        m.insert("step_cpu_ms", stats::median(&step_means) / self.slowness);
        m.insert("explore_fom", self.explore_fom);
        m.insert("peak_rss_mb", self.peak_rss_mb);
        m.insert("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
        m
    }

    /// Attempted and failed units as printed: evaluations plus checks (a
    /// failed check counts as one failure).
    pub fn totals(&self) -> (u64, u64) {
        let failed_checks = self.checks.iter().filter(|c| !c.passed).count() as u64;
        (
            self.attempted + self.checks.len() as u64,
            self.failed + failed_checks,
        )
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// Human-readable lines (stderr): every check, and every end-to-end
    /// metric with its sample count where it has one.
    pub fn describe(&self, workload: &str) {
        for c in &self.checks {
            let verdict = if c.passed { "ok" } else { "FAILED" };
            eprintln!("[{workload}] check {:<28} {verdict}  {}", c.name, c.detail);
        }
        for note in &self.notes {
            eprintln!("[{workload}] {note}");
        }
        if !self.cold_step_ms.is_empty() {
            eprintln!(
                "[{workload}] {} cold-pass steps: p50 {:.3} ms, p90 {:.3} ms (not in step_ms_*)",
                self.cold_step_ms.len(),
                stats::median(&self.cold_step_ms),
                stats::quantile(&self.cold_step_ms, 0.90),
            );
        }
        eprintln!(
            "[{workload}] explore_fom {:.4} = mean FoM {:.4} minus the mean floor {:.4}",
            self.explore_fom,
            self.explore_fom + self.fom_floor,
            self.fom_floor,
        );
        let (attempted, failed) = self.totals();
        eprintln!(
            "[{workload}] host slowness {:.4}; {} evals in {:.3} s wall ({:.1}/s), {:.3} s CPU ({:.1}/s) in {} blocks; {} steps (wall p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms), {} units, setup reps {:?} s CPU, failed_frac {}",
            self.slowness,
            self.evals,
            self.wall_s,
            self.evals as f64 / self.wall_s.max(1e-9),
            self.cpu_s,
            self.evals as f64 / self.cpu_s.max(1e-9),
            self.blocks.len(),
            self.step_ms.len(),
            stats::median(&self.step_ms),
            stats::quantile(&self.step_ms, 0.90),
            stats::quantile(&self.step_ms, 0.99),
            self.units,
            self.setup_s,
            failed as f64 / attempted.max(1) as f64
        );
    }
}

/// Prints the result object as the last line of stdout.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
}
