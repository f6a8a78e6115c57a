//! Bit-identity pin of the learner.
//!
//! A short GCN-RL run with the default network (hidden 64, seven GCN layers,
//! mini-batch 32) on each of the four paper circuits is reduced to an FNV-1a
//! hash of the bits of every recorded FoM and best-FoM. The hashes were
//! captured before the fused Adam step, the subnormal flush and the
//! register-blocked kernels went in; any change to the learner's arithmetic
//! (operation order, accumulation start values, fused multiply-adds) moves
//! them.

use gcnrl::{FomConfig, GcnRlDesigner, RunHistory, SizingEnv};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_rl::DdpgConfig;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fom_bits_hash(history: &RunHistory) -> u64 {
    let mut hash = FNV_OFFSET;
    for record in &history.records {
        for value in [record.fom, record.best_fom] {
            for byte in value.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
    }
    hash
}

#[test]
fn default_network_runs_match_the_pinned_fom_bits() {
    let node = TechnologyNode::tsmc180();
    // 32 warm-up episodes fill one mini-batch; the 6 exploration rounds
    // after them each take 32 critic steps and one actor step.
    let config = DdpgConfig::default().with_budget(38, 32);
    let mut hashes = Vec::new();
    for benchmark in Benchmark::ALL {
        let fom = FomConfig::calibrated(benchmark, &node, 16, 0);
        let env = SizingEnv::new(benchmark, &node, fom);
        let history = GcnRlDesigner::new(env, config).run();
        assert_eq!(history.len(), config.episodes);
        let hash = fom_bits_hash(&history);
        println!("{benchmark:?}: {hash:#018x}");
        hashes.push((benchmark, hash));
    }
    let expected: [u64; 4] = [
        0x57959b2ac263a2c0,
        0x99e4ee6bf1dabddb,
        0x189a8c0bed75cee2,
        0xc460d373cd7c6aa5,
    ];
    for ((benchmark, got), want) in hashes.iter().zip(expected) {
        assert_eq!(*got, want, "{benchmark:?} FoM bits moved");
    }
}
