//! `search_random`: the paper's Random row (`random_search`, 256-candidate
//! engine batches) on all four circuits, in process, each circuit on its
//! own cold `BatchEvaluator`. The FoM is calibrated on a separate engine so
//! the search engine's cache starts empty.
//!
//! A step is one `evaluate_batch` call into the engine. Calls cycle over the
//! circuits, each with a fresh seed; `--seconds` fixes how many. A block is
//! one cycle: a call on each circuit.

use crate::host;
use crate::layers::{self, Traced};
use crate::report::{Block, Check, Outcome};
use crate::spans::{self, Anchor, Layer};
use crate::stats::{Elapsed, Stopwatch};
use crate::timed::{same_report, StepLog, TimedBackend, TimedEvaluator};
use crate::workload::{self, CALIBRATION, CALIBRATION_SEED};
use gcnrl::{BatchEvaluator, EngineConfig, FomConfig, RunHistory, SizingEnv, StateEncoding};
use gcnrl_baselines::random_search;
use gcnrl_circuit::benchmarks::Benchmark;
use gcnrl_sim::evaluators::{evaluator_for, Evaluator};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Samples per `random_search` call: four engine batches.
const CALL_BUDGET: usize = 1024;
/// Calls per second of `--seconds` (about 12k evaluations a second on a
/// 2-core x86 host).
const CALLS_PER_SECOND: f64 = 12.5;
/// Logged candidates re-simulated per circuit by the spot check.
const CHECKED_PER_CIRCUIT: usize = 64;

struct Cell {
    benchmark: Benchmark,
    engine: Arc<BatchEvaluator>,
    log: Arc<StepLog>,
    env: SizingEnv,
    floor: f64,
}

fn setup(traced: bool) -> Vec<Cell> {
    let node = workload::node();
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let fom = FomConfig::calibrated_with_engine(
                benchmark,
                &node,
                CALIBRATION,
                CALIBRATION_SEED,
                EngineConfig::from_env(),
            );
            let anchor = Anchor::default();
            let evaluator: Box<dyn Evaluator> = if traced {
                Box::new(TimedEvaluator::new(
                    evaluator_for(benchmark, &node),
                    anchor.clone(),
                ))
            } else {
                evaluator_for(benchmark, &node)
            };
            let engine = Arc::new(BatchEvaluator::new(evaluator, EngineConfig::from_env()));
            let backend = TimedBackend::new(
                Arc::clone(&engine),
                "engine.evaluate_batch",
                Layer::Engine,
                anchor,
            );
            let log = backend.log();
            let floor = workload::fom_floor(&fom);
            let env = SizingEnv::with_backend(
                benchmark,
                &node,
                fom,
                StateEncoding::ScalarIndex,
                Box::new(backend),
            );
            Cell {
                benchmark,
                engine,
                log,
                env,
                floor,
            }
        })
        .collect()
}

/// One `random_search` call: its circuit, history (None when it panicked),
/// process CPU seconds and the positions of its steps in the circuit's log.
struct Call {
    circuit: usize,
    history: Option<RunHistory>,
    cpu_s: f64,
    steps: Range<usize>,
}

/// Runs `calls` `random_search` calls round-robin over the circuits.
fn run_calls(cells: &[Cell], seed: u64, calls: usize) -> (Vec<Call>, Elapsed, f64) {
    host::reset();
    let watch = Stopwatch::start();
    let calls = (0..calls)
        .map(|i| {
            let circuit = i % cells.len();
            if circuit == 0 {
                host::sample();
            }
            let call_seed = workload::derive(seed, 1, i as u64);
            let first_step = cells[circuit].log.len();
            let call_watch = Stopwatch::start();
            let history = catch_unwind(AssertUnwindSafe(|| {
                let _span = spans::enter("rollout.random_search", Layer::Rollout);
                random_search(&cells[circuit].env, CALL_BUDGET, call_seed)
            }))
            .ok();
            Call {
                circuit,
                history,
                cpu_s: call_watch.read().cpu_s,
                steps: first_step..cells[circuit].log.len(),
            }
        })
        .collect();
    (calls, watch.read(), host::slowness())
}

fn outcome(
    cells: &[Cell],
    calls: &[Call],
    (took, slowness): (Elapsed, f64),
    setup_s: Vec<f64>,
) -> Outcome {
    let mut out = Outcome {
        setup_s,
        wall_s: took.wall_s,
        cpu_s: took.cpu_s,
        slowness,
        units: calls.len(),
        ..Outcome::default()
    };
    let mut per_circuit = vec![Vec::new(); cells.len()];
    let mut short_calls = 0;
    for call in calls {
        out.attempted += CALL_BUDGET as u64;
        let Some(history) = &call.history else {
            out.failed += CALL_BUDGET as u64;
            continue;
        };
        let non_finite = history
            .records
            .iter()
            .filter(|r| !r.fom.is_finite())
            .count();
        out.failed += non_finite as u64;
        out.evals += history.len() as u64;
        short_calls += usize::from(history.len() != CALL_BUDGET);
        per_circuit[call.circuit].push(workload::last_quarter_mean(
            &history.records,
            cells[call.circuit].floor,
        ));
    }
    out.checks.push(Check::new(
        "histories",
        short_calls == 0,
        format!(
            "{short_calls} of {} calls returned a short history",
            calls.len()
        ),
    ));
    let means: Vec<f64> = per_circuit.iter().map(|v| crate::stats::mean(v)).collect();
    out.explore_fom = crate::stats::mean(&means);
    out.fom_floor = crate::stats::mean(&cells.iter().map(|c| c.floor).collect::<Vec<_>>());
    let step_cpu_ms: Vec<Vec<f64>> = cells.iter().map(|c| c.log.step_cpu_ms()).collect();
    for cycle in calls.chunks_exact(cells.len()) {
        out.blocks.push(Block {
            evals: cycle
                .iter()
                .filter_map(|c| c.history.as_ref())
                .map(|h| h.len() as u64)
                .sum(),
            cpu_s: cycle.iter().map(|c| c.cpu_s).sum(),
        });
        out.step_cpu_ms.push(
            cycle
                .iter()
                .flat_map(|c| &step_cpu_ms[c.circuit][c.steps.clone()])
                .copied()
                .collect(),
        );
    }
    let node = workload::node();
    for cell in cells {
        out.step_ms.extend(cell.log.step_ms());
        let direct = evaluator_for(cell.benchmark, &node);
        let samples = cell.log.samples();
        let checked = samples.len().min(CHECKED_PER_CIRCUIT);
        let mismatched = samples[..checked]
            .iter()
            .filter(|(params, report)| !same_report(&direct.evaluate(params), report))
            .count();
        out.checks.push(Check::new(
            format!("{}.reports_match_direct", cell.benchmark),
            checked > 0 && mismatched == 0,
            format!(
                "{mismatched} of {checked} sampled engine reports differ from Evaluator::evaluate"
            ),
        ));
    }
    out
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let (cells, first) = workload::timed(|| setup(false));
    let calls = workload::units(seconds as f64, CALLS_PER_SECOND, cells.len());
    let (calls, took, slowness) = run_calls(&cells, seed, calls);
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let mut out = outcome(&cells, &calls, (took, slowness), vec![first]);
    drop(cells);
    workload::repeat_setup(|| setup(false), &mut out.setup_s);
    Outcome { peak_rss_mb, ..out }
}

/// The traced run. A traced pass over the same calls as an untraced run
/// gives the spans. The tracing overhead comes from two more passes over a
/// quarter of those calls, each on fresh engines: an untraced pass, whose
/// histories must match the traced ones bit for bit, then a traced pass.
pub fn run_traced(seed: u64, seconds: u64) -> (Outcome, Traced) {
    let (cells, first) = workload::timed(|| setup(true));
    let calls = workload::units(seconds as f64, CALLS_PER_SECOND, cells.len());
    let solver_before = gcnrl_sim::solver_stats::snapshot();
    spans::arm();
    let (traced_calls, traced_took, slowness) = run_calls(&cells, seed, calls);
    let spans = spans::disarm();
    let solver = layers::solver_delta(&gcnrl_sim::solver_stats::snapshot(), &solver_before);
    let engine = layers::exec_sum(cells.iter().map(|c| c.engine.stats()));
    let mut out = outcome(&cells, &traced_calls, (traced_took, slowness), vec![first]);
    drop(cells);

    let short = workload::units(
        seconds as f64 * workload::OVERHEAD_SHARE,
        CALLS_PER_SECOND,
        Benchmark::ALL.len(),
    );
    let (plain, untraced_short, _) = run_calls(&setup(false), seed, short);
    let cells = setup(true);
    spans::arm();
    let (_, traced_short, _) = run_calls(&cells, seed, short);
    spans::disarm();
    let same = plain
        .iter()
        .zip(&traced_calls)
        .all(|(a, b)| match (&a.history, &b.history) {
            (Some(a), Some(b)) => workload::same_foms(&a.records, &b.records),
            _ => false,
        });
    out.checks.push(Check::new(
        "traced_matches_untraced",
        same,
        "traced pass reproduces the untraced histories bit for bit",
    ));
    let traced = Traced {
        spans,
        traced_wall_s: traced_took.wall_s,
        overhead_frac: traced_short.cpu_s / untraced_short.cpu_s - 1.0,
        engine,
        engine_threads: EngineConfig::from_env().threads,
        solver,
        step_span: "rollout.random_search",
        ..Traced::default()
    };
    (out, traced)
}
