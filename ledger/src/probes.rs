//! Short measurements of single layers, run after a traced pass. They give
//! every traced run the layer numbers its workload does not touch, and the
//! numbers no workload can isolate (matmul rate, per-call service and wire
//! overhead on identical cache-hot batches).

use crate::spans::{self, Anchor, Layer};
use crate::stats;
use crate::timed::{TimedBackend, TimedEvaluator};
use crate::workload;
use gcnrl::{
    AgentKind, BatchEvaluator, EngineConfig, EvalBackend, EvalService, FomConfig, GcnAgent,
    ServiceConfig, SizingEnv, StateEncoding,
};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_linalg::Matrix;
use gcnrl_rl::DdpgConfig;
use gcnrl_serve::{EvalServer, RemoteBackend, ServerConfig};
use gcnrl_sim::evaluators::evaluator_for;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Candidates in the probes' batches: the size of one ES generation on the
/// paper circuits (4 + ⌊3 ln d⌋ for 21–28 parameters).
const PROBE_BATCH: usize = 13;

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub act_ms: f64,
    pub critic_update_ms: f64,
    pub actor_update_ms: f64,
    pub matmul_gflops: f64,
    pub flops_per_round: f64,
    pub evaluate_us: f64,
    pub pool_efficiency: f64,
    pub service_overhead_us: f64,
    pub queue_waits_ns: Vec<u64>,
    pub rpc_us: Vec<f64>,
    pub wire_overhead_us_p50: f64,
    pub rpc_us_per_eval_b256: f64,
    pub reconnects: u64,
    pub server: (u64, u64),
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn random_batch(
    benchmark: Benchmark,
    node: &TechnologyNode,
    n: usize,
    seed: u64,
) -> Vec<ParamVector> {
    let space = benchmark.circuit().design_space(node);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let unit: Vec<f64> = (0..space.num_parameters()).map(|_| rng.gen()).collect();
            space.from_unit(&unit)
        })
        .collect()
}

pub fn run(seed: u64) -> Probes {
    let mut p = Probes::default();
    learner(&mut p, seed);
    matmul(&mut p);
    solver(&mut p, seed);
    pool(&mut p, seed);
    service(&mut p, seed);
    wire(&mut p, seed);
    p
}

/// Dense matmul FLOPs of one exploration round at `rollout_k = 1`: the
/// actor forward for the action, a critic forward + backward per replay
/// sample, then actor and critic forward + backward for the policy step.
/// A linear layer `m×k → m×j` costs 2mkj forward and 4mkj backward; a GCN
/// propagation `Â·H` costs 2n²h each way.
fn flops_per_round(n: f64, state_dim: f64, actions: f64, config: &DdpgConfig) -> f64 {
    let h = config.hidden_dim as f64;
    let layers = config.gcn_layers as f64;
    let types = 4.0;
    let gcn = layers * 2.0 * n * n * h;
    let hidden_fwd = layers * 2.0 * n * h * h;
    let actor_fwd = 2.0 * n * state_dim * h + gcn + hidden_fwd + types * 2.0 * n * h * actions;
    let actor_bwd = 2.0 * (actor_fwd - gcn) + gcn;
    let critic_fwd =
        2.0 * n * state_dim * h + types * 2.0 * n * actions * h + gcn + hidden_fwd + 2.0 * n * h;
    let critic_bwd = 2.0 * (critic_fwd - gcn) + gcn;
    let batch = config.batch_size as f64;
    actor_fwd + batch * (critic_fwd + critic_bwd) + actor_fwd + actor_bwd + critic_fwd + critic_bwd
}

/// Agent calls at the paper network's shapes on every circuit, and the
/// round's computed FLOPs.
fn learner(p: &mut Probes, seed: u64) {
    const REPS: usize = 4;
    let node = workload::node();
    let config = DdpgConfig::default();
    let (mut act, mut critic, mut actor, mut flops) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for benchmark in Benchmark::ALL {
        let env = SizingEnv::with_engine_config(
            benchmark,
            &node,
            FomConfig::new(Vec::new()),
            StateEncoding::ScalarIndex,
            EngineConfig::serial(),
        );
        let (states, adjacency) = (env.states(), env.adjacency());
        let mut agent = GcnAgent::new(
            AgentKind::Gcn,
            states.cols(),
            config.hidden_dim,
            config.gcn_layers,
            &env.component_types(),
            config.actor_lr,
            config.critic_lr,
            seed,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let batch: Vec<(Matrix, f64)> = (0..config.batch_size)
            .map(|_| (env.random_actions(&mut rng), rng.gen::<f64>()))
            .collect();
        let mut cols = 0;
        for _ in 0..REPS {
            let t = Instant::now();
            cols = agent.act(states, adjacency).cols();
            act.push(ms(t.elapsed()));
            let t = Instant::now();
            agent.critic_update(states, adjacency, &batch, 0.0);
            critic.push(ms(t.elapsed()));
            let t = Instant::now();
            agent.actor_update(states, adjacency);
            actor.push(ms(t.elapsed()));
        }
        flops.push(flops_per_round(
            states.rows() as f64,
            states.cols() as f64,
            cols as f64,
            &config,
        ));
    }
    p.act_ms = stats::mean(&act);
    p.critic_update_ms = stats::mean(&critic);
    p.actor_update_ms = stats::mean(&actor);
    p.flops_per_round = stats::mean(&flops);
}

/// `Matrix::matmul` at the agent's n×64 · 64×64 shapes, n = each circuit's
/// component count.
fn matmul(p: &mut Probes) {
    let (mut flop, mut secs) = (0.0, 0.0);
    for benchmark in Benchmark::ALL {
        let n = benchmark.circuit().components().len();
        let a = Matrix::from_fn(n, 64, |r, c| ((r * 64 + c) % 7) as f64 * 0.1 - 0.3);
        let b = Matrix::from_fn(64, 64, |r, c| ((r + 3 * c) % 5) as f64 * 0.1 - 0.2);
        let start = Instant::now();
        let mut reps = 0u64;
        let mut sink = 0.0;
        while start.elapsed() < Duration::from_millis(60) {
            for _ in 0..64 {
                sink += a.matmul(&b).expect("shapes agree").as_slice()[0];
            }
            reps += 64;
        }
        secs += start.elapsed().as_secs_f64();
        flop += 2.0 * (n * 64 * 64) as f64 * reps as f64;
        std::hint::black_box(sink);
    }
    p.matmul_gflops = flop / secs / 1e9;
}

/// Direct `Evaluator::evaluate` calls on random candidates of every circuit.
fn solver(p: &mut Probes, seed: u64) {
    const PER_CIRCUIT: usize = 48;
    let node = workload::node();
    let mut per_eval = Vec::new();
    for benchmark in Benchmark::ALL {
        let evaluator = evaluator_for(benchmark, &node);
        let batch = random_batch(benchmark, &node, PER_CIRCUIT, seed);
        let start = Instant::now();
        for params in &batch {
            std::hint::black_box(evaluator.evaluate(params));
        }
        per_eval.push(start.elapsed().as_secs_f64() * 1e6 / PER_CIRCUIT as f64);
    }
    p.evaluate_us = stats::mean(&per_eval);
}

/// Pool efficiency of cold ES-sized batches on the default engine (the
/// loopback server's configuration): serial solver time over batch wall ×
/// threads.
fn pool(p: &mut Probes, seed: u64) {
    const BATCHES: usize = 12;
    let node = workload::node();
    let config = EngineConfig::default();
    let threads = config.threads;
    let (mut solver_ns, mut wall_s) = (0u64, 0.0);
    for benchmark in Benchmark::ALL {
        let anchor = Anchor::default();
        let engine = Arc::new(BatchEvaluator::new(
            Box::new(TimedEvaluator::new(
                evaluator_for(benchmark, &node),
                anchor.clone(),
            )),
            config.clone(),
        ));
        let backend = TimedBackend::new(
            Arc::clone(&engine),
            "engine.evaluate_batch",
            Layer::Engine,
            anchor,
        );
        let batches: Vec<_> = (0..BATCHES)
            .map(|i| {
                random_batch(
                    benchmark,
                    &node,
                    PROBE_BATCH,
                    workload::derive(seed, 7, i as u64),
                )
            })
            .collect();
        spans::arm();
        for batch in &batches {
            backend.evaluate_batch(batch);
        }
        let recorded = spans::disarm();
        solver_ns += recorded
            .iter()
            .filter(|s| s.layer == Layer::Solver)
            .map(|s| s.duration_ns())
            .sum::<u64>();
        wall_s += engine.stats().wall_seconds;
    }
    p.pool_efficiency = solver_ns as f64 / (wall_s * 1e9 * threads as f64);
}

/// `SessionHandle` against `BatchEvaluator` on the same cache-hot batch,
/// alternating, so the difference is the service's own per-call cost.
fn service(p: &mut Probes, seed: u64) {
    const REPS: usize = 300;
    let node = workload::node();
    let benchmark = Benchmark::TwoStageTia;
    let engine = Arc::new(BatchEvaluator::for_benchmark(
        benchmark,
        &node,
        EngineConfig::from_env(),
    ));
    let service = EvalService::from_arc(Arc::clone(&engine), ServiceConfig::default());
    let session = service.session_named("ledger-probe");
    let batch = random_batch(benchmark, &node, PROBE_BATCH, seed);
    engine.evaluate_batch(&batch);
    let (mut direct, mut via) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(engine.evaluate_batch(&batch));
        direct.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(session.evaluate_batch(&batch));
        via.push(t.elapsed().as_secs_f64() * 1e6);
    }
    p.service_overhead_us = stats::median(&via) - stats::median(&direct);
    p.queue_waits_ns = service.queue_wait_samples();
    service.shutdown();
}

/// A loopback `EvalServer` (default config) and one `RemoteBackend`: RPC
/// time against an in-process session of the server's own service on the
/// same cache-hot batch, and the per-candidate RPC time of a cache-hot
/// 256-candidate batch.
fn wire(p: &mut Probes, seed: u64) {
    const REPS: usize = 300;
    let node = workload::node();
    let benchmark = Benchmark::TwoStageTia;
    let server =
        EvalServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback server");
    let remote = RemoteBackend::connect(server.local_addr(), benchmark, &node)
        .expect("connect loopback server");
    let local = server
        .registry()
        .service_for(benchmark, &node)
        .session_named("ledger-probe-local");
    let batch = random_batch(benchmark, &node, PROBE_BATCH, seed);
    remote.evaluate_batch(&batch);
    let (mut rpc, mut inproc) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(remote.evaluate_batch(&batch));
        rpc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(local.evaluate_batch(&batch));
        inproc.push(t.elapsed().as_secs_f64() * 1e6);
    }
    p.wire_overhead_us_p50 = stats::median(&rpc) - stats::median(&inproc);
    // A random-search-sized batch: per-candidate wire cost at 256.
    let large = random_batch(benchmark, &node, 256, workload::derive(seed, 8, 0));
    remote.evaluate_batch(&large);
    let per_eval: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(remote.evaluate_batch(&large));
            t.elapsed().as_secs_f64() * 1e6 / large.len() as f64
        })
        .collect();
    p.rpc_us_per_eval_b256 = stats::median(&per_eval);
    p.reconnects = remote.reconnects();
    let s = server.stats();
    p.server = (s.connections_total, s.admission_rejected);
    p.rpc_us = rpc;
    drop(local);
    drop(remote);
    server.shutdown();
}
