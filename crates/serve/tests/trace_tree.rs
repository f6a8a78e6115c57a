//! End-to-end distributed-tracing acceptance: one sharded `evaluate_batch`
//! over two peered shards — including a cross-shard `CacheQuery`/`CacheFill`
//! pull — must reassemble into a single span tree with correct parent/child
//! linkage, and results must stay bit-identical with tracing on vs off.

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::EngineConfig;
use gcnrl_serve::{
    EvalServer, RegistryConfig, RemoteBackend, RemoteConfig, ServerConfig, ShardedBackend,
    ShardedConfig,
};
use gcnrl_telemetry::{recent_traces, trace_id_for};

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;

fn open_server() -> EvalServer {
    EvalServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            registry: RegistryConfig {
                engine: EngineConfig::serial(),
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server")
}

/// `n` pairwise-distinct candidates, deterministic so every run routes the
/// same keys to the same shards.
fn distinct_candidates(n: usize) -> Vec<ParamVector> {
    let space = BENCHMARK.circuit().design_space(&TechnologyNode::tsmc180());
    (0..n)
        .map(|i| {
            let unit: Vec<f64> = (0..space.num_parameters())
                .map(|j| ((i * 17 + j * 3) % 89) as f64 / 88.0)
                .collect();
            space.from_unit(&unit)
        })
        .collect()
}

/// One parsed span line of the `GCNRL_TRACE` JSONL stream (only lines that
/// carry distributed-tracing ids; legacy-schema lines are skipped).
#[derive(Debug)]
struct JsonlSpan {
    name: String,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
}

fn parse_jsonl_spans(text: &str) -> Vec<JsonlSpan> {
    fn uint(value: &serde::Value) -> Option<u64> {
        match value {
            serde::Value::UInt(n) => Some(*n),
            serde::Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let value = serde_json::parse_value(line).expect("trace line is valid JSON");
        let serde::Value::Map(entries) = value else {
            panic!("trace line is not an object: {line}");
        };
        let field = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (Some(trace_id), Some(span_id)) = (
            field("trace_id").and_then(uint),
            field("span_id").and_then(uint),
        ) else {
            continue; // legacy event without distributed ids
        };
        let Some(serde::Value::Str(name)) = field("name") else {
            panic!("span line without a name: {line}");
        };
        spans.push(JsonlSpan {
            name: name.clone(),
            trace_id,
            span_id,
            parent_id: field("parent_id").and_then(uint),
        });
    }
    spans
}

/// The tentpole pin: two peered shards, a cold shard A pulling B-owned
/// reports over `CacheQuery`/`CacheFill`, one `ShardedBackend` batch — the
/// whole fan-out reassembles into one trace tree rooted at
/// `sharded.evaluate.ns`, and the reports are bit-identical to runs with
/// tracing off.
#[test]
fn sharded_fanout_reassembles_one_span_tree_including_the_peer_pull() {
    let node = TechnologyNode::tsmc180();
    let a = open_server();
    let b = open_server();
    let addr_a = a.local_addr().to_string();
    let addr_b = b.local_addr().to_string();
    let ring = vec![addr_a.clone(), addr_b.clone()];
    a.enable_peering(ring.clone(), addr_a.clone());
    b.enable_peering(ring, addr_b);

    let batch = distinct_candidates(24);

    // Reference, tracing off: warm shard B with the whole batch so A's run
    // below has something to pull over the peer wire.
    let warm = RemoteBackend::connect(b.local_addr(), BENCHMARK, &node).expect("connect shard b");
    let reference = warm.try_evaluate_batch(&batch).expect("warm batch");

    // Traced run: JSONL sink on, sharded client over A only — the server
    // ring still spans both shards, so A peer-pulls every B-owned key.
    let trace_path =
        std::env::temp_dir().join(format!("gcnrl_trace_tree_{}.jsonl", std::process::id()));
    gcnrl_telemetry::set_trace_file(&trace_path).expect("open trace sink");
    let sharded = ShardedBackend::connect(
        &[addr_a],
        BENCHMARK,
        &node,
        ShardedConfig {
            remote: RemoteConfig {
                session: Some("tracetree".to_owned()),
                ..RemoteConfig::default()
            },
            ..ShardedConfig::default()
        },
    )
    .expect("connect sharded backend");
    let traced_reports = sharded
        .try_evaluate_batch(&batch)
        .expect("traced sharded batch");
    gcnrl_telemetry::disable_trace();

    assert_eq!(
        traced_reports, reference,
        "tracing on changed a bit of the results"
    );
    let stats = a.stats();
    assert!(stats.peer_queries >= 1, "A never queried its peer");
    assert!(
        stats.peer_fills >= 1,
        "no cross-shard CacheFill pull happened inside the traced batch"
    );

    // Tracing back off: a fresh shard C peered with warm B repeats the
    // cold-pull path without any sink — bit-identity across the toggle.
    let c = open_server();
    let addr_c = c.local_addr().to_string();
    let ring_c = vec![addr_c.clone(), b.local_addr().to_string()];
    c.enable_peering(ring_c.clone(), addr_c.clone());
    let off = ShardedBackend::connect(&[addr_c], BENCHMARK, &node, ShardedConfig::default())
        .expect("connect tracing-off backend");
    let off_reports = off.try_evaluate_batch(&batch).expect("tracing-off batch");
    assert_eq!(
        off_reports, reference,
        "tracing off changed a bit of the results"
    );

    // Reassemble the JSONL: every distributed span of the traced batch
    // shares the deterministic root trace id (session "tracetree", seq 0).
    let text = std::fs::read_to_string(&trace_path).expect("read trace sink");
    let _ = std::fs::remove_file(&trace_path);
    let trace_id = trace_id_for("tracetree", 0);
    let spans: Vec<JsonlSpan> = parse_jsonl_spans(&text)
        .into_iter()
        .filter(|s| s.trace_id == trace_id)
        .collect();
    let ids_of = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.span_id)
            .collect()
    };
    let parents_of = |name: &str| -> Vec<Option<u64>> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.parent_id)
            .collect()
    };

    // Exactly one root, no parent.
    let roots = ids_of("sharded.evaluate.ns");
    assert_eq!(roots.len(), 1, "expected one root span, got {spans:#?}");
    assert_eq!(parents_of("sharded.evaluate.ns"), vec![None]);
    let root_id = roots[0];

    // 24 candidates at the default sub-batch of 8 → 3 pipelined RPCs, every
    // one a direct child of the root.
    let rpcs = ids_of("serve.rpc.ns");
    assert_eq!(rpcs.len(), 3, "expected 3 sub-batch RPC spans");
    for parent in parents_of("serve.rpc.ns") {
        assert_eq!(parent, Some(root_id), "rpc span not parented on the root");
    }

    // Server-side segments on shard A parent under the client RPC spans.
    let requests = ids_of("serve.request.ns");
    assert_eq!(requests.len(), 3, "expected one server segment per RPC");
    for parent in parents_of("serve.request.ns") {
        let parent = parent.expect("server segment without a parent");
        assert!(
            rpcs.contains(&parent),
            "server segment parented outside the client RPCs"
        );
    }

    // Peer pulls nest inside A's segments; B's cache-query segments nest
    // inside the pulls — the CacheFill leg of the tree.
    let pulls = ids_of("serve.peer_pull.ns");
    assert!(!pulls.is_empty(), "no peer-pull span recorded");
    for parent in parents_of("serve.peer_pull.ns") {
        let parent = parent.expect("peer pull without a parent");
        assert!(
            requests.contains(&parent),
            "peer pull parented outside the server segments"
        );
    }
    let queries = ids_of("serve.cache_query.ns");
    assert!(!queries.is_empty(), "no peer cache-query span recorded");
    for parent in parents_of("serve.cache_query.ns") {
        let parent = parent.expect("cache query without a parent");
        assert!(
            pulls.contains(&parent),
            "cache query parented outside the peer pulls"
        );
    }

    // Every span of the tree reaches the root by walking parent links.
    for span in &spans {
        let mut cursor = span.parent_id;
        let mut hops = 0;
        while let Some(parent) = cursor {
            cursor = spans
                .iter()
                .find(|s| s.span_id == parent)
                .unwrap_or_else(|| panic!("dangling parent {parent} of {span:?}"))
                .parent_id;
            hops += 1;
            assert!(hops <= 16, "parent chain of {span:?} does not terminate");
        }
    }

    // The in-process flight recorder merged the same tree (all three
    // processes-worth of segments live in this one test process).
    let tree = recent_traces()
        .into_iter()
        .find(|t| t.trace_id == trace_id)
        .expect("flight recorder holds the traced batch");
    for name in [
        "sharded.evaluate.ns",
        "serve.rpc.ns",
        "serve.request.ns",
        "serve.peer_pull.ns",
        "serve.cache_query.ns",
    ] {
        assert!(
            tree.spans.iter().any(|s| s.name == name),
            "flight recorder tree is missing {name}: {tree:#?}"
        );
    }
    let rendered = tree.render();
    assert!(rendered.contains("sharded.evaluate.ns"));

    sharded.goodbye().expect("clean close sharded");
    off.goodbye().expect("clean close off");
    warm.goodbye().expect("clean close b");
    a.shutdown();
    b.shutdown();
    c.shutdown();
}
