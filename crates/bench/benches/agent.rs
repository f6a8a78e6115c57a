//! Micro-benchmarks of the GCN agent: actor inference, critic evaluation and
//! one full DDPG update, for both the GCN and the non-GCN (ablation) variant,
//! at the default network and mini-batch size (`DdpgConfig::default()`).

use criterion::{criterion_group, criterion_main, Criterion};
use gcnrl::{AgentKind, FomConfig, GcnAgent, SizingEnv};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_linalg::Matrix;
use gcnrl_rl::DdpgConfig;
use std::hint::black_box;

fn setup(kind: AgentKind, config: &DdpgConfig) -> (GcnAgent, Matrix, Matrix) {
    let node = TechnologyNode::tsmc180();
    let fom = FomConfig::calibrated(Benchmark::ThreeStageTia, &node, 4, 0);
    let env = SizingEnv::new(Benchmark::ThreeStageTia, &node, fom);
    let agent = GcnAgent::new(
        kind,
        env.states().cols(),
        config.hidden_dim,
        config.gcn_layers,
        &env.component_types(),
        config.actor_lr,
        config.critic_lr,
        0,
    );
    (agent, env.states().clone(), env.adjacency().clone())
}

fn bench_agent(c: &mut Criterion) {
    let mut group = c.benchmark_group("agent");
    group.sample_size(20);
    let config = DdpgConfig::default();
    for (label, kind) in [("gcn", AgentKind::Gcn), ("non_gcn", AgentKind::NonGcn)] {
        let (mut agent, states, adj) = setup(kind, &config);
        group.bench_function(format!("actor_forward_{label}"), |b| {
            b.iter(|| black_box(agent.act(black_box(&states), black_box(&adj))));
        });
        let actions = agent.act(&states, &adj);
        group.bench_function(format!("critic_forward_{label}"), |b| {
            b.iter(|| black_box(agent.critic_forward(&states, &actions, &adj).0));
        });
        let batch: Vec<(Matrix, f64)> = (0..config.batch_size)
            .map(|i| {
                (
                    Matrix::filled(states.rows(), 3, i as f64 / config.batch_size as f64 - 0.5),
                    i as f64 * 0.1,
                )
            })
            .collect();
        group.bench_function(format!("ddpg_update_{label}"), |b| {
            b.iter(|| {
                agent.critic_update(&states, &adj, &batch, 0.0);
                agent.actor_update(&states, &adj)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_agent);
criterion_main!(benches);
