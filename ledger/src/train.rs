//! `train_gcnrl`: a real GCN-RL run (paper Algorithm 1) on all four paper
//! circuits at tsmc180, each through its own in-process `EvalService`
//! session — the path the experiment harness takes.
//!
//! A step is one exploration round. The four runs take turns round by round
//! (one running at a time). Both passes call `GcnRlDesigner::run_observed`
//! and time each round from the observer. The traced pass also opens a span
//! per round from the observer, and its service and solver calls are spanned
//! by the wrapping backend and evaluator; the agent's own calls are not
//! visible from outside the designer, so their per-call times come from the
//! probes.

use crate::host;
use crate::layers::{self, Traced};
use crate::report::{Block, Check, Outcome};
use crate::spans::{self, Anchor, Layer};
use crate::stats::{Elapsed, Stopwatch};
use crate::timed::{TimedBackend, TimedEvaluator};
use crate::workload::{self, Baton, CALIBRATION, CALIBRATION_SEED};
use gcnrl::{
    BatchEvaluator, EngineConfig, EvalService, FomConfig, GcnRlDesigner, RunHistory, ServiceConfig,
    SizingEnv, StateEncoding,
};
use gcnrl_circuit::benchmarks::Benchmark;
use gcnrl_rl::DdpgConfig;
use gcnrl_sim::evaluators::{evaluator_for, Evaluator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Exploration episodes per circuit per second of `--seconds`: at 12 s each
/// circuit runs 252 rounds (1008 in all, ten beyond p99), past the round
/// (~206) where critic updates slow down (see README). That takes about
/// 40 s on a 2-core x86 host: the real run is the expensive one.
const EXPLORE_PER_SECOND: f64 = 21.0;

/// The first circuit samples the host every this many of its rounds (about
/// every half second).
const HOST_SAMPLE_EVERY: usize = 4;

/// The paper's network (the `DdpgConfig` defaults: hidden 64, 7 GCN layers,
/// batch 32, 100 warm-up episodes) with serial exploration.
fn ddpg(seed: u64, seconds: f64) -> DdpgConfig {
    let base = DdpgConfig::default();
    let explore = workload::units(seconds, EXPLORE_PER_SECOND, 1);
    base.with_seed(seed)
        .with_budget(base.warmup + explore, base.warmup)
        .with_rollout_k(1)
}

/// One circuit, set up: its service, FoM floor and designer.
struct Cell {
    benchmark: Benchmark,
    service: EvalService,
    floor: f64,
    designer: Box<GcnRlDesigner>,
}

/// Builds every circuit's service, calibrates its FoM through the session
/// (5000 samples) and initialises its agent. When `traced`, simulations run
/// through a [`TimedEvaluator`] anchored to the session spans.
fn setup(config: &DdpgConfig, traced: bool) -> Vec<Cell> {
    let node = workload::node();
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let anchor = Anchor::default();
            let evaluator: Box<dyn Evaluator> = if traced {
                Box::new(TimedEvaluator::new(
                    evaluator_for(benchmark, &node),
                    anchor.clone(),
                ))
            } else {
                evaluator_for(benchmark, &node)
            };
            let engine = BatchEvaluator::new(evaluator, EngineConfig::from_env());
            let service = EvalService::new(engine, ServiceConfig::default());
            let session = service.session_named(format!("{benchmark}@{}", node.name));
            let backend = TimedBackend::new(
                Arc::new(session),
                "service.evaluate_batch",
                Layer::Service,
                anchor,
            );
            let fom = FomConfig::calibrated_with_backend(
                benchmark,
                &node,
                CALIBRATION,
                CALIBRATION_SEED,
                &backend,
            );
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
                service,
                floor,
                designer: Box::new(GcnRlDesigner::new(env, *config)),
            }
        })
        .collect()
}

/// One circuit's timed run: history (None when it panicked) and round
/// times.
struct CellRun {
    benchmark: Benchmark,
    floor: f64,
    history: Option<RunHistory>,
    rounds_ms: Vec<f64>,
    rounds_cpu_ms: Vec<f64>,
}

/// Runs every prepared cell, one thread per circuit taking turns round by
/// round, and times each circuit's rounds, wall and process CPU (excluding
/// the time it waits for its turn; one circuit runs at a time, so the
/// process CPU of a round is that round's). While spans are armed, the warm-up batch and every round get a
/// span of their own, opened and closed from the observer.
fn run_cells(
    cells: Vec<Cell>,
    config: &DdpgConfig,
) -> (Vec<CellRun>, Vec<EvalService>, (Elapsed, f64)) {
    let baton = Baton::new(cells.len());
    host::reset();
    let watch = Stopwatch::start();
    let (runs, services): (Vec<CellRun>, Vec<EvalService>) = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .into_iter()
            .enumerate()
            .map(|(me, cell)| {
                let baton = &baton;
                let mut designer = cell.designer;
                scope.spawn(move || {
                    baton.wait(me);
                    let (mut rounds_ms, mut rounds_cpu_ms) = (Vec::new(), Vec::new());
                    let mut warmed_up = false;
                    let mut span = spans::enter("rollout.warmup", Layer::Rollout);
                    let mut resumed = Stopwatch::start();
                    let mut on_round = |history: &RunHistory| {
                        let took = resumed.read();
                        drop(span.take());
                        // The first call ends the warm-up batch, not a round.
                        if warmed_up {
                            rounds_ms.push(took.wall_s * 1e3);
                            rounds_cpu_ms.push(took.cpu_s * 1e3);
                            if me == 0 && rounds_ms.len() % HOST_SAMPLE_EVERY == 0 {
                                host::sample();
                            }
                        }
                        warmed_up = true;
                        baton.pass(me, false);
                        baton.wait(me);
                        if history.len() < config.episodes {
                            span = spans::enter("rollout.round", Layer::Rollout);
                        }
                        resumed = Stopwatch::start();
                    };
                    let history =
                        catch_unwind(AssertUnwindSafe(|| designer.run_observed(&mut on_round)))
                            .ok();
                    baton.pass(me, true);
                    let run = CellRun {
                        benchmark: cell.benchmark,
                        floor: cell.floor,
                        history,
                        rounds_ms,
                        rounds_cpu_ms,
                    };
                    (run, cell.service)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("circuit thread"))
            .unzip()
    });
    (runs, services, (watch.read(), host::slowness()))
}

fn outcome(
    runs: &[CellRun],
    config: &DdpgConfig,
    (took, slowness): (Elapsed, f64),
    setup_s: Vec<f64>,
) -> Outcome {
    let mut out = Outcome {
        setup_s,
        wall_s: took.wall_s,
        cpu_s: took.cpu_s,
        slowness,
        units: runs.len(),
        ..Outcome::default()
    };
    // Steps group by turn: round k of every circuit.
    let turns = runs
        .iter()
        .map(|r| r.rounds_cpu_ms.len())
        .max()
        .unwrap_or(0);
    out.step_cpu_ms = (0..turns)
        .map(|k| {
            runs.iter()
                .filter_map(|r| r.rounds_cpu_ms.get(k).copied())
                .collect()
        })
        .collect();
    let mut explore = Vec::new();
    for run in runs {
        out.attempted += config.episodes as u64;
        out.step_ms.extend(&run.rounds_ms);
        let Some(history) = &run.history else {
            out.failed += config.episodes as u64;
            out.checks.push(Check::new(
                format!("{}.completed", run.benchmark),
                false,
                "designer run panicked",
            ));
            continue;
        };
        let non_finite = history
            .records
            .iter()
            .filter(|r| !r.fom.is_finite())
            .count();
        out.failed += non_finite as u64;
        out.evals += history.len() as u64;
        out.checks.push(Check::new(
            format!("{}.history", run.benchmark),
            history.len() == config.episodes && non_finite == 0,
            format!(
                "{} records for a budget of {}, {non_finite} non-finite FoMs",
                history.len(),
                config.episodes
            ),
        ));
        let warmup = config.warmup.min(history.len());
        explore.push(workload::last_quarter_mean(
            &history.records[warmup..],
            run.floor,
        ));
        let best = |records: &[gcnrl::StepRecord]| {
            records
                .iter()
                .map(|r| r.fom)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let warmup_mean =
            history.records[..warmup].iter().map(|r| r.fom).sum::<f64>() / warmup.max(1) as f64;
        out.notes.push(format!(
            "{}: best FoM {:.4} in warm-up, {:.4} in exploration; mean FoM {:.4} in warm-up, {:.4} in the last quarter of exploration (floor {})",
            run.benchmark,
            best(&history.records[..warmup]),
            best(&history.records[warmup..]),
            warmup_mean,
            explore.last().copied().unwrap_or(0.0) + run.floor,
            run.floor,
        ));
    }
    out.explore_fom = crate::stats::mean(&explore);
    out.fom_floor = crate::stats::mean(&runs.iter().map(|r| r.floor).collect::<Vec<_>>());
    // One block: rounds are not equal work (late rounds are slower, see
    // README), so a median over blocks would hide real cost.
    out.blocks.push(Block {
        evals: out.evals,
        cpu_s: took.cpu_s,
    });
    out
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let config = ddpg(seed, seconds as f64);
    let (cells, first) = workload::timed(|| setup(&config, false));
    let (runs, services, took) = run_cells(cells, &config);
    let peak_rss_mb = crate::stats::peak_rss_mb();
    drop(services);
    let mut setup_s = vec![first];
    workload::repeat_setup(|| setup(&config, false), &mut setup_s);
    Outcome {
        peak_rss_mb,
        ..outcome(&runs, &config, took, setup_s)
    }
}

/// The traced run. A traced pass over the same work as an untraced run gives
/// the spans. The tracing overhead comes from two more passes over a quarter
/// of that work, each on fresh set-up: an untraced pass, whose histories
/// must match the start of the traced ones bit for bit, then a traced pass.
pub fn run_traced(seed: u64, seconds: u64) -> (Outcome, Traced) {
    let config = ddpg(seed, seconds as f64);
    let (cells, first) = workload::timed(|| setup(&config, true));
    let engines_before: Vec<_> = cells.iter().map(|c| c.service.engine_stats()).collect();
    let solver_before = gcnrl_sim::solver_stats::snapshot();
    spans::arm();
    let (traced, services, traced_took) = run_cells(cells, &config);
    let spans = spans::disarm();
    let solver = layers::solver_delta(&gcnrl_sim::solver_stats::snapshot(), &solver_before);
    let engine = layers::exec_sum(
        services
            .iter()
            .zip(&engines_before)
            .map(|(s, before)| layers::exec_delta(&s.engine_stats(), before)),
    );
    let queue_waits_ns = services
        .iter()
        .flat_map(|s| s.queue_wait_samples())
        .collect();
    drop(services);
    let mut out = outcome(&traced, &config, traced_took, vec![first]);

    let short = ddpg(seed, seconds as f64 * workload::OVERHEAD_SHARE);
    let (plain, _services, untraced_short) = run_cells(setup(&short, false), &short);
    let cells = setup(&short, true);
    spans::arm();
    let (_, _services, traced_short) = run_cells(cells, &short);
    spans::disarm();
    for (a, b) in plain.iter().zip(&traced) {
        let same = match (&a.history, &b.history) {
            (Some(a), Some(b)) => workload::same_prefix(&a.records, &b.records),
            _ => false,
        };
        out.checks.push(Check::new(
            format!("{}.traced_matches_untraced", a.benchmark),
            same,
            "traced pass reproduces the untraced history bit for bit",
        ));
    }
    let traced_layers = Traced {
        learner_share: layers::step_self_share(&spans, "rollout.round"),
        spans,
        traced_wall_s: traced_took.0.wall_s,
        overhead_frac: traced_short.0.cpu_s / untraced_short.0.cpu_s - 1.0,
        engine,
        engine_threads: EngineConfig::from_env().threads,
        solver,
        queue_waits_ns,
        step_span: "rollout.round",
        ..Traced::default()
    };
    (out, traced_layers)
}
