//! Wrappers that time a layer from outside: an [`EvalBackend`] that logs
//! every batch call (and opens a span around it when tracing), and an
//! [`Evaluator`] that opens a solver span around every simulation.

use crate::spans::{self, Anchor, Layer};
use crate::stats::{Elapsed, Stopwatch};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchReport, EvalBackend, ExecStats};
use gcnrl_sim::evaluators::Evaluator;
use gcnrl_sim::{MetricSpec, PerformanceReport};
use std::sync::{Arc, Mutex};

/// Candidates logged for the correctness spot check: one in this many.
const SAMPLE_EVERY: u64 = 97;

#[derive(Debug, Default)]
struct LogState {
    step_ms: Vec<f64>,
    step_cpu_ms: Vec<f64>,
    seen: u64,
    samples: Vec<(ParamVector, PerformanceReport)>,
}

/// Per-call timings (wall, and process CPU) of one wrapped backend, plus a
/// sparse sample of the candidates it evaluated with their reports.
#[derive(Debug, Default)]
pub struct StepLog(Mutex<LogState>);

impl StepLog {
    fn record(&self, took: Elapsed, params: &[ParamVector], reports: &[PerformanceReport]) {
        let mut s = self.0.lock().expect("step log");
        s.step_ms.push(took.wall_s * 1e3);
        s.step_cpu_ms.push(took.cpu_s * 1e3);
        for (p, r) in params.iter().zip(reports) {
            if s.seen.is_multiple_of(SAMPLE_EVERY) {
                s.samples.push((p.clone(), r.clone()));
            }
            s.seen += 1;
        }
    }

    /// Steps logged so far.
    pub fn len(&self) -> usize {
        self.0.lock().expect("step log").step_ms.len()
    }

    pub fn step_ms(&self) -> Vec<f64> {
        self.0.lock().expect("step log").step_ms.clone()
    }

    pub fn step_cpu_ms(&self) -> Vec<f64> {
        self.0.lock().expect("step log").step_cpu_ms.clone()
    }

    pub fn samples(&self) -> Vec<(ParamVector, PerformanceReport)> {
        self.0.lock().expect("step log").samples.clone()
    }
}

/// An evaluation backend that times every batch it forwards. The wrapped
/// backend is shared, so its owner keeps a handle for statistics.
pub struct TimedBackend<B> {
    inner: Arc<B>,
    log: Arc<StepLog>,
    span: &'static str,
    layer: Layer,
    anchor: Anchor,
}

impl<B: EvalBackend> TimedBackend<B> {
    /// Wraps `inner`; batch spans are named `span` and attributed to
    /// `layer`. Solver spans opened by a [`TimedEvaluator`] sharing `anchor`
    /// become children of the batch span.
    pub fn new(inner: Arc<B>, span: &'static str, layer: Layer, anchor: Anchor) -> Self {
        TimedBackend {
            inner,
            log: Arc::default(),
            span,
            layer,
            anchor,
        }
    }

    pub fn log(&self) -> Arc<StepLog> {
        Arc::clone(&self.log)
    }
}

impl<B: EvalBackend> EvalBackend for TimedBackend<B> {
    fn benchmark(&self) -> Benchmark {
        self.inner.benchmark()
    }

    fn technology(&self) -> &TechnologyNode {
        self.inner.technology()
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        self.inner.metric_specs()
    }

    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        let guard = spans::enter(self.span, self.layer);
        if guard.is_some() {
            self.anchor.set(guard.as_ref());
        }
        let watch = Stopwatch::start();
        let reports = self.inner.evaluate_batch(params);
        let took = watch.read();
        drop(guard);
        self.log.record(took, params, &reports);
        reports
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn last_batch(&self) -> BatchReport {
        self.inner.last_batch()
    }
}

/// A simulator wrapper that opens a solver span (under the batch span
/// published on `anchor`) around every evaluation. Used only in traced
/// passes, so untraced runs evaluate through the bare simulator.
pub struct TimedEvaluator {
    inner: Box<dyn Evaluator>,
    anchor: Anchor,
}

impl TimedEvaluator {
    pub fn new(inner: Box<dyn Evaluator>, anchor: Anchor) -> Self {
        TimedEvaluator { inner, anchor }
    }

    fn guard(&self) -> Option<spans::Guard> {
        if !spans::armed() {
            return None;
        }
        self.anchor
            .get()
            .and_then(|parent| spans::enter_under("solver.evaluate", Layer::Solver, parent))
    }
}

impl Evaluator for TimedEvaluator {
    fn benchmark(&self) -> Benchmark {
        self.inner.benchmark()
    }

    fn technology(&self) -> &TechnologyNode {
        self.inner.technology()
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        self.inner.metric_specs()
    }

    fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        let _span = self.guard();
        self.inner.evaluate(params)
    }

    fn evaluate_group(
        &self,
        base: &ParamVector,
        candidates: &[ParamVector],
    ) -> Vec<PerformanceReport> {
        let _span = self.guard();
        self.inner.evaluate_group(base, candidates)
    }
}

/// Bitwise equality of two reports (NaN-safe, unlike `==`).
pub fn same_report(a: &PerformanceReport, b: &PerformanceReport) -> bool {
    a.feasible == b.feasible
        && a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}
