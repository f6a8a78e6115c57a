//! `serve_es`: the paper's ES row over loopback. One in-process
//! `EvalServer` (default `ServerConfig`) and two client threads, each with
//! one `RemoteBackend` connection carrying two circuits (the second on a
//! multiplexed channel), so the four paper circuits are covered by two
//! threads and two connections.
//!
//! The clients take turns pair by pair, so one RPC is in flight at a time.
//! Each client alternates its circuits; on each it runs ES twice with the
//! same seed (`--seconds` fixes how many pairs). The first (cold) pass
//! simulates and fills the server's cache; the second (hot) pass is
//! answered from it. A step is one hot-pass RPC batch: the two kinds are as
//! many, so a median over both would fall between them. Cold-pass RPCs are
//! reported apart. A block is one cycle of both clients over their lanes:
//! a pair on each circuit.

use crate::host;
use crate::layers::{self, Traced};
use crate::report::{Block, Check, Outcome};
use crate::spans::{self, Anchor, Layer};
use crate::stats::{Elapsed, Stopwatch};
use crate::timed::{StepLog, TimedBackend};
use crate::workload::{self, Baton, CALIBRATION, CALIBRATION_SEED};
use gcnrl::{BatchEvaluator, EngineConfig, FomConfig, RunHistory, SizingEnv, StateEncoding};
use gcnrl_baselines::evolution_strategy;
use gcnrl_circuit::benchmarks::Benchmark;
use gcnrl_serve::{EvalServer, RemoteBackend, RemoteConfig, ServerConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Evaluations per ES pass: 20 generations of 13 on the smaller circuits.
const ES_BUDGET: usize = 260;
/// ES pairs per client per second of `--seconds`: 72 per client at 12 s,
/// about 16 s of pairs on a 2-core x86 host with the clients taking turns.
const PAIRS_PER_SECOND: f64 = 6.0;
/// The circuits each client carries (connection channel 0, then 1).
const CIRCUITS: [[Benchmark; 2]; 2] = [
    [Benchmark::TwoStageTia, Benchmark::ThreeStageTia],
    [Benchmark::TwoStageVoltageAmp, Benchmark::Ldo],
];

struct Lane {
    benchmark: Benchmark,
    log: Arc<StepLog>,
    env: SizingEnv,
    floor: f64,
}

struct Client {
    connection: Arc<RemoteBackend>,
    lanes: Vec<Lane>,
}

struct Setup {
    server: EvalServer,
    clients: Vec<Client>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.shutdown();
    }
}

/// One circuit on one connection. The FoM is calibrated in process: a
/// 5000-candidate batch takes minutes over the wire (frame handling
/// grows about quadratically with batch size, see README), and the result is
/// bit-identical either way.
fn lane(handle: Arc<RemoteBackend>, benchmark: Benchmark) -> Lane {
    let node = workload::node();
    let backend = TimedBackend::new(
        handle,
        "wire.evaluate_batch",
        Layer::Wire,
        Anchor::default(),
    );
    let log = backend.log();
    let fom = FomConfig::calibrated_with_engine(
        benchmark,
        &node,
        CALIBRATION,
        CALIBRATION_SEED,
        EngineConfig::from_env(),
    );
    Lane {
        benchmark,
        log,
        floor: workload::fom_floor(&fom),
        env: SizingEnv::with_backend(
            benchmark,
            &node,
            fom,
            StateEncoding::ScalarIndex,
            Box::new(backend),
        ),
    }
}

/// Binds the server, connects both clients, opens their second channels and
/// calibrates every circuit's FoM.
fn setup() -> Setup {
    let node = workload::node();
    let server =
        EvalServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback server");
    let clients = CIRCUITS
        .iter()
        .enumerate()
        .map(|(c, circuits)| {
            let config = RemoteConfig {
                session: Some(format!("ledger-client{c}:{}", circuits[0])),
                ..RemoteConfig::default()
            };
            let connection = Arc::new(
                RemoteBackend::connect_with(server.local_addr(), circuits[0], &node, config)
                    .expect("connect loopback server"),
            );
            let second = connection
                .open_channel(
                    circuits[1],
                    &node,
                    Some(format!("ledger-client{c}:{}", circuits[1])),
                    1,
                )
                .expect("open second channel");
            let lanes = vec![
                lane(Arc::clone(&connection), circuits[0]),
                lane(Arc::new(second), circuits[1]),
            ];
            Client { connection, lanes }
        })
        .collect();
    Setup { server, clients }
}

/// One cold + hot ES pair on one lane, with the positions of each pass's
/// RPCs in the lane's step log.
struct Pair {
    client: usize,
    lane: usize,
    seed: u64,
    /// The client's pass over its lanes this pair belongs to.
    cycle: usize,
    cold: Option<RunHistory>,
    hot: Option<RunHistory>,
    cold_steps: Range<usize>,
    hot_steps: Range<usize>,
    /// Process CPU seconds of both passes.
    cpu_s: f64,
}

fn es_pass(env: &SizingEnv, seed: u64) -> Option<RunHistory> {
    catch_unwind(AssertUnwindSafe(|| {
        let _span = spans::enter("rollout.es_pass", Layer::Rollout);
        evolution_strategy(env, ES_BUDGET, seed)
    }))
    .ok()
}

/// Both clients, each running `per_client` pairs, taking turns pair by
/// pair: one RPC is in flight at a time, so the process CPU time of an RPC
/// is that RPC's.
fn run_pairs(setup: &Setup, seed: u64, per_client: usize) -> (Vec<Pair>, Elapsed, f64) {
    let baton = Baton::new(setup.clients.len());
    host::reset();
    let watch = Stopwatch::start();
    let pairs = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                let baton = &baton;
                scope.spawn(move || {
                    let pairs = (0..per_client)
                        .map(|r| {
                            baton.wait(c);
                            let lane = r % client.lanes.len();
                            if c == 0 && lane == 0 {
                                host::sample();
                            }
                            let es_seed = workload::derive(seed, 2 + c as u64, r as u64);
                            let Lane { env, log, .. } = &client.lanes[lane];
                            let start = log.len();
                            let watch = Stopwatch::start();
                            let cold = es_pass(env, es_seed);
                            let middle = log.len();
                            let hot = es_pass(env, es_seed);
                            let cpu_s = watch.read().cpu_s;
                            baton.pass(c, false);
                            Pair {
                                client: c,
                                lane,
                                seed: es_seed,
                                cycle: r / client.lanes.len(),
                                cold,
                                hot,
                                cold_steps: start..middle,
                                hot_steps: middle..log.len(),
                                cpu_s,
                            }
                        })
                        .collect::<Vec<_>>();
                    baton.wait(c);
                    baton.pass(c, true);
                    pairs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (pairs, watch.read(), host::slowness())
}

fn outcome(
    setup: &Setup,
    pairs: &[Pair],
    (took, slowness): (Elapsed, f64),
    setup_s: Vec<f64>,
) -> Outcome {
    let mut out = Outcome {
        setup_s,
        wall_s: took.wall_s,
        cpu_s: took.cpu_s,
        slowness,
        units: pairs.len(),
        ..Outcome::default()
    };
    let mut per_lane = vec![vec![Vec::new(); 2]; setup.clients.len()];
    let mut hot_mismatch = 0;
    for pair in pairs {
        let floor = setup.clients[pair.client].lanes[pair.lane].floor;
        for pass in [&pair.cold, &pair.hot] {
            out.attempted += ES_BUDGET as u64;
            match pass {
                Some(h) => {
                    let non_finite = h.records.iter().filter(|r| !r.fom.is_finite()).count();
                    out.failed += (non_finite + ES_BUDGET.saturating_sub(h.len())) as u64;
                    out.evals += h.len() as u64;
                }
                None => out.failed += ES_BUDGET as u64,
            }
        }
        match (&pair.cold, &pair.hot) {
            (Some(cold), Some(hot)) if workload::same_foms(&cold.records, &hot.records) => {
                per_lane[pair.client][pair.lane]
                    .push(workload::last_quarter_mean(&cold.records, floor));
            }
            _ => hot_mismatch += 1,
        }
    }
    out.checks.push(Check::new(
        "hot_equals_cold",
        hot_mismatch == 0,
        format!(
            "{hot_mismatch} of {} hot passes differ from their cold pass",
            pairs.len()
        ),
    ));
    let means: Vec<f64> = per_lane
        .iter()
        .flatten()
        .map(|v| crate::stats::mean(v))
        .collect();
    out.explore_fom = crate::stats::mean(&means);
    let lanes: Vec<&Lane> = setup.clients.iter().flat_map(|c| &c.lanes).collect();
    out.fom_floor = crate::stats::mean(&lanes.iter().map(|l| l.floor).collect::<Vec<_>>());
    let logs: Vec<Vec<(Vec<f64>, Vec<f64>)>> = setup
        .clients
        .iter()
        .map(|c| {
            c.lanes
                .iter()
                .map(|l| (l.log.step_ms(), l.log.step_cpu_ms()))
                .collect()
        })
        .collect();
    // A block, and a group of steps, is one cycle of both clients over their
    // lanes: one pair on each circuit.
    let mut blocks: BTreeMap<usize, (Block, Vec<f64>)> = BTreeMap::new();
    for pair in pairs {
        let (wall, cpu) = &logs[pair.client][pair.lane];
        out.cold_step_ms
            .extend_from_slice(&wall[pair.cold_steps.clone()]);
        out.step_ms.extend_from_slice(&wall[pair.hot_steps.clone()]);
        let (block, steps) = blocks.entry(pair.cycle).or_default();
        block.evals += [&pair.cold, &pair.hot]
            .into_iter()
            .flatten()
            .map(|h| h.len() as u64)
            .sum::<u64>();
        block.cpu_s += pair.cpu_s;
        steps.extend_from_slice(&cpu[pair.hot_steps.clone()]);
    }
    (out.blocks, out.step_cpu_ms) = blocks.into_values().unzip();
    // The first and last pair of every lane replayed on a local engine.
    let node = workload::node();
    for (c, client) in setup.clients.iter().enumerate() {
        for (l, lane) in client.lanes.iter().enumerate() {
            let lane_pairs: Vec<&Pair> = pairs
                .iter()
                .filter(|p| p.client == c && p.lane == l)
                .collect();
            let picked = [lane_pairs.first(), lane_pairs.last()];
            let local = SizingEnv::with_backend(
                lane.benchmark,
                &node,
                lane.env.fom_config().clone(),
                StateEncoding::ScalarIndex,
                Box::new(BatchEvaluator::for_benchmark(
                    lane.benchmark,
                    &node,
                    EngineConfig::from_env(),
                )),
            );
            let mut matched = 0;
            for pair in picked.into_iter().flatten() {
                let local_history = evolution_strategy(&local, ES_BUDGET, pair.seed);
                if pair
                    .cold
                    .as_ref()
                    .is_some_and(|h| workload::same_foms(&h.records, &local_history.records))
                {
                    matched += 1;
                }
            }
            out.checks.push(Check::new(
                format!("{}.remote_matches_local", lane.benchmark),
                !lane_pairs.is_empty() && matched == 2,
                format!("{matched} of 2 replayed ES runs bit-identical to a local BatchEvaluator"),
            ));
        }
    }
    out
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let (served, first) = workload::timed(setup);
    let per_client = workload::units(seconds as f64, PAIRS_PER_SECOND, 2);
    let (pairs, took, slowness) = run_pairs(&served, seed, per_client);
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let mut out = outcome(&served, &pairs, (took, slowness), vec![first]);
    drop(served);
    workload::repeat_setup(setup, &mut out.setup_s);
    Outcome { peak_rss_mb, ..out }
}

/// The traced run. A traced pass over the same pairs as an untraced run
/// gives the spans. The tracing overhead comes from two more passes over a
/// quarter of those pairs, each against a fresh server: an untraced pass,
/// whose histories must match the traced ones bit for bit, then a traced
/// pass.
pub fn run_traced(seed: u64, seconds: u64) -> (Outcome, Traced) {
    let (served, first) = workload::timed(setup);
    let per_client = workload::units(seconds as f64, PAIRS_PER_SECOND, 2);
    let engine_of =
        |s: &Setup| layers::exec_sum(s.server.stats().services.into_iter().map(|e| e.engine));
    let engine_before = engine_of(&served);
    let solver_before = gcnrl_sim::solver_stats::snapshot();
    spans::arm();
    let (pairs, traced_took, slowness) = run_pairs(&served, seed, per_client);
    let spans = spans::disarm();
    let solver = layers::solver_delta(&gcnrl_sim::solver_stats::snapshot(), &solver_before);
    let engine = layers::exec_delta(&engine_of(&served), &engine_before);
    let mut out = outcome(&served, &pairs, (traced_took, slowness), vec![first]);
    let node = workload::node();
    let registry = served.server.registry();
    let queue_waits_ns = CIRCUITS
        .iter()
        .flatten()
        .flat_map(|&b| registry.service_for(b, &node).queue_wait_samples())
        .collect();
    let stats = served.server.stats();
    let reconnects = served
        .clients
        .iter()
        .map(|c| c.connection.reconnects())
        .sum();
    let engine_threads = registry.config().engine.threads;
    drop(served);

    let short = workload::units(
        seconds as f64 * workload::OVERHEAD_SHARE,
        PAIRS_PER_SECOND,
        2,
    );
    let (plain, untraced_short, _) = run_pairs(&setup(), seed, short);
    let served = setup();
    spans::arm();
    let (_, traced_short, _) = run_pairs(&served, seed, short);
    spans::disarm();
    drop(served);
    let key = |p: &Pair| (p.client, p.lane, p.seed);
    let same_cold = |a: &Pair, b: &Pair| match (&a.cold, &b.cold) {
        (Some(x), Some(y)) => workload::same_foms(&x.records, &y.records),
        _ => false,
    };
    let same = plain
        .iter()
        .all(|a| pairs.iter().any(|b| key(a) == key(b) && same_cold(a, b)));
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
        engine_threads,
        solver,
        queue_waits_ns,
        rpc_us: out.step_ms.iter().map(|ms| ms * 1e3).collect(),
        reconnects,
        server: Some((stats.connections_total, stats.admission_rejected)),
        step_span: "rollout.es_pass",
        learner_share: 0.0,
    };
    (out, traced)
}
