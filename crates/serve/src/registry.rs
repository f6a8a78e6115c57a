//! The multi-benchmark service registry: one shared [`EvalService`] per
//! `(benchmark, technology node)` behind a single facade.
//!
//! The server maps every connection onto a session of the service matching
//! its [`Hello`](crate::protocol::Hello); services spin up lazily on the
//! first connection that asks for their pair and are shared by every later
//! one, so concurrent clients optimising the same benchmark land on one
//! engine + cache (cross-client cache hits, in-flight dedup, fair rounds —
//! everything the process-local [`EvalService`] already guarantees).
//!
//! The registry also owns the **global cache budget**: `cache_budget` cached
//! reports are split evenly across `cache_slots` expected services, so a
//! server hosting all four paper benchmarks stays within one configured
//! memory envelope no matter which services clients actually touch.

use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_exec::{
    CacheKey, ClosedSessionStats, EngineConfig, EvalService, ExecStats, ServiceConfig, SessionStats,
};
use gcnrl_sim::PerformanceReport;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Duration;

/// Configuration of a [`ServiceRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryConfig {
    /// Engine template for every lazily created service. The cache capacity
    /// is overridden by the budget split below; threads, quantisation and
    /// persistence apply as given.
    pub engine: EngineConfig,
    /// Dispatcher configuration of every created service (round candidate
    /// cap, deadline-based round closing).
    pub service: ServiceConfig,
    /// Total cached reports across all services the registry creates.
    pub cache_budget: usize,
    /// How many distinct `(benchmark, node)` services the budget is split
    /// over. Services beyond this count still open (each with one even
    /// share), slightly overshooting the budget rather than refusing
    /// clients.
    pub cache_slots: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        let engine = EngineConfig::default();
        RegistryConfig {
            cache_budget: engine.cache_capacity,
            cache_slots: Benchmark::ALL.len(),
            service: ServiceConfig::default(),
            engine,
        }
    }
}

impl RegistryConfig {
    /// Returns a copy with a different total cache budget.
    pub fn with_cache_budget(mut self, budget: usize) -> Self {
        self.cache_budget = budget.max(1);
        self
    }

    /// Returns a copy splitting the budget over a different slot count.
    pub fn with_cache_slots(mut self, slots: usize) -> Self {
        self.cache_slots = slots.max(1);
        self
    }

    /// The per-service cache capacity under the even budget split.
    pub fn cache_share(&self) -> usize {
        (self.cache_budget / self.cache_slots.max(1)).max(1)
    }
}

/// Statistics of one registry entry, serialisable for server reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceEntryStats {
    /// Benchmark the service evaluates (paper short name).
    pub benchmark: String,
    /// Technology node name.
    pub node: String,
    /// Merged engine statistics across every session of the service.
    pub engine: ExecStats,
    /// Per-session accounting of the *live* sessions, in session-creation
    /// order.
    pub sessions: Vec<SessionStats>,
    /// Aggregate of every retired (closed-connection) session.
    pub closed: ClosedSessionStats,
}

/// Lazily instantiated, shared [`EvalService`]s keyed by
/// `(benchmark, technology node)`.
pub struct ServiceRegistry {
    config: RegistryConfig,
    services: Mutex<BTreeMap<String, (Benchmark, String, EvalService)>>,
    /// Per-service engine request totals (`requests`) at the last
    /// [`ServiceRegistry::rebalance_cache`] call, keyed like `services` —
    /// the baseline the next rebalance diffs against to get recent demand.
    rebalance_seen: Mutex<HashMap<String, u64>>,
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let services = self.services.lock().expect("registry lock");
        f.debug_struct("ServiceRegistry")
            .field("config", &self.config)
            .field("services", &services.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        ServiceRegistry {
            config,
            services: Mutex::new(BTreeMap::new()),
            rebalance_seen: Mutex::new(HashMap::new()),
        }
    }

    /// The configuration the registry was built with.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// The service for `(benchmark, node)`, creating it (and its engine +
    /// dispatcher) on first use. The key includes the *full* node parameters,
    /// not just the name, so two nodes that merely share a label do not
    /// alias onto one evaluator.
    pub fn service_for(&self, benchmark: Benchmark, node: &TechnologyNode) -> EvalService {
        let key = format!(
            "{benchmark:?}@{}",
            serde_json::to_string(node).unwrap_or_else(|_| node.name.clone())
        );
        if let Some((_, _, service)) = self.services.lock().expect("registry lock").get(&key) {
            return service.clone();
        }
        // Build outside the lock: constructing an EvalService can be slow
        // (evaluator build, dispatcher spawn, persistent-cache replay when
        // GCNRL_CACHE_PATH is set), and holding the registry mutex through
        // it would stall every concurrent handshake and stats() call. Two
        // racing builders are resolved at insert time — the loser's service
        // is dropped (its dispatcher drains an empty queue and joins).
        let engine = self
            .config
            .engine
            .clone()
            .with_cache_capacity(self.config.cache_share());
        let built =
            EvalService::for_benchmark(benchmark, node, engine, self.config.service.clone());
        let mut services = self.services.lock().expect("registry lock");
        if let Some((_, _, service)) = services.get(&key) {
            return service.clone();
        }
        services.insert(key, (benchmark, node.name.clone(), built.clone()));
        built
    }

    /// Installs an already-built service for `(benchmark, node)`, replacing
    /// any lazily created one. Tests use this to put a deterministic
    /// evaluator (e.g. a fixed-latency stub) behind the wire path; the
    /// admission-control tests rely on it to hold the queue provably busy.
    pub fn insert_service(
        &self,
        benchmark: Benchmark,
        node: &TechnologyNode,
        service: EvalService,
    ) {
        let key = format!(
            "{benchmark:?}@{}",
            serde_json::to_string(node).unwrap_or_else(|_| node.name.clone())
        );
        self.services
            .lock()
            .expect("registry lock")
            .insert(key, (benchmark, node.name.clone(), service));
    }

    /// Requests submitted but not yet resolved, summed over every service —
    /// the backlog signal the server's admission control compares against
    /// `GCNRL_SERVE_BACKLOG`.
    pub fn pending_requests(&self) -> u64 {
        let services = self.services.lock().expect("registry lock");
        services
            .values()
            .map(|(_, _, service)| service.pending_requests())
            .sum()
    }

    /// p90 of the recent queue-wait samples merged across every service —
    /// the load signal behind queue-wait admission control. `None` until any
    /// service has dispatched a request. Merging the raw windows (rather
    /// than taking the max of per-service p90s) keeps one cold service with
    /// a single slow sample from tripping admission for the whole server.
    pub fn queue_wait_p90(&self) -> Option<Duration> {
        let mut samples: Vec<u64> = {
            let services = self.services.lock().expect("registry lock");
            services
                .values()
                .flat_map(|(_, _, service)| service.queue_wait_samples())
                .collect()
        };
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = (samples.len() * 9).div_ceil(10).max(1) - 1;
        Some(Duration::from_nanos(samples[rank]))
    }

    /// Evaluates the same queue-wait/backlog admission limits a `Hello`
    /// frame is gated on, as a readiness report: `Ok(())` when a new session
    /// would be admitted, `Err(reason)` with the limit that would reject it.
    /// Backs the serve tier's `/readyz` endpoint.
    ///
    /// # Errors
    ///
    /// The human-readable reason admission would currently refuse.
    pub fn admission_report(
        &self,
        queue_wait_limit: Option<Duration>,
        backlog_limit: Option<u64>,
    ) -> Result<(), String> {
        if let Some(limit) = queue_wait_limit {
            if let Some(p90) = self.queue_wait_p90() {
                if p90 > limit {
                    return Err(format!(
                        "busy: observed queue-wait p90 of {:.1} ms exceeds the \
                         admission limit of {:.1} ms",
                        p90.as_secs_f64() * 1e3,
                        limit.as_secs_f64() * 1e3
                    ));
                }
            }
        }
        if let Some(limit) = backlog_limit {
            let pending = self.pending_requests();
            if pending > limit {
                return Err(format!(
                    "busy: {pending} evaluation requests pending exceed the \
                     backlog limit of {limit}"
                ));
            }
        }
        Ok(())
    }

    /// Answers a peer's `CacheQuery`: one slot per key, in query order —
    /// `Some(report)` when any instantiated service's result cache holds the
    /// key, `None` otherwise. Probes are non-polluting (no hit/miss counter,
    /// no LRU recency effect), so a peer sweeping for mis-routed keys does
    /// not distort the rebalance signal or evict anything.
    pub fn peek_cached(&self, keys: &[CacheKey]) -> Vec<Option<PerformanceReport>> {
        let services = self.services.lock().expect("registry lock");
        keys.iter()
            .map(|key| {
                services.values().find_map(|(benchmark, node, service)| {
                    if *benchmark == key.benchmark && *node == key.node {
                        service.engine().peek_cached(key)
                    } else {
                        None
                    }
                })
            })
            .collect()
    }

    /// Re-apportions the global cache budget across the instantiated
    /// services by *recent demand* (engine requests since the previous
    /// rebalance), replacing the static even split. Every service keeps a
    /// floor of a quarter of its even share (so a briefly idle service is
    /// not squeezed to nothing), the rest follows traffic, and shrunken
    /// caches evict coldest-first (`ResultCache::resize`). Returns the
    /// `(service key, new capacity)` assignment, in key order.
    pub fn rebalance_cache(&self) -> Vec<(String, usize)> {
        let services = self.services.lock().expect("registry lock");
        if services.is_empty() {
            return Vec::new();
        }
        let mut seen = self.rebalance_seen.lock().expect("rebalance baseline lock");
        // Demand = engine requests (hits + misses) since the last call; the
        // +1 smoothing keeps a fully idle interval from zeroing every weight.
        let demands: Vec<(&String, u64, &EvalService)> = services
            .iter()
            .map(|(key, (_, _, service))| {
                let total = service.engine_stats().requests;
                let baseline = seen.entry(key.clone()).or_insert(0);
                let delta = total.saturating_sub(*baseline);
                *baseline = total;
                (key, delta + 1, service)
            })
            .collect();
        let budget = self.config.cache_budget.max(services.len());
        let floor = (self.config.cache_share() / 4).max(1);
        let count = demands.len();
        let mut shares: Vec<usize> = if floor * count >= budget {
            // Budget too tight for the floor: fall back to the even split.
            vec![(budget / count).max(1); count]
        } else {
            let pool = budget - floor * count;
            let weight_sum: u64 = demands.iter().map(|(_, w, _)| *w).sum();
            demands
                .iter()
                .map(|(_, weight, _)| {
                    floor
                        + ((pool as u128 * u128::from(*weight)) / u128::from(weight_sum.max(1)))
                            as usize
                })
                .collect()
        };
        // Integer division undershoots; hand the remainder to the hottest
        // service (ties broken by key order — deterministic).
        let assigned: usize = shares.iter().sum();
        if assigned < budget {
            let hottest = demands
                .iter()
                .enumerate()
                .max_by_key(|(i, (_, w, _))| (*w, std::cmp::Reverse(*i)))
                .map(|(i, _)| i)
                .unwrap_or(0);
            shares[hottest] += budget - assigned;
        }
        let mut assignment = Vec::with_capacity(count);
        for ((key, _, service), share) in demands.into_iter().zip(shares) {
            service.engine().resize_cache(share);
            assignment.push((key.clone(), share));
        }
        gcnrl_telemetry::global()
            .counter("serve.cache_rebalance")
            .inc();
        assignment
    }

    /// Number of services instantiated so far.
    pub fn len(&self) -> usize {
        self.services.lock().expect("registry lock").len()
    }

    /// Whether no service has been instantiated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-service statistics (engine + sessions), in key order.
    pub fn stats(&self) -> Vec<ServiceEntryStats> {
        let services = self.services.lock().expect("registry lock");
        services
            .values()
            .map(|(benchmark, node, service)| ServiceEntryStats {
                benchmark: benchmark.paper_name().to_owned(),
                node: node.clone(),
                engine: service.engine_stats(),
                sessions: service.session_stats(),
                closed: service.closed_session_stats(),
            })
            .collect()
    }

    /// Drains and joins every service's dispatcher (idempotent). Called by
    /// the server after the last connection handler exits.
    pub fn shutdown(&self) {
        let services = self.services.lock().expect("registry lock");
        for (_, _, service) in services.values() {
            service.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ServiceRegistry {
        ServiceRegistry::new(
            RegistryConfig::default()
                .with_cache_budget(64)
                .with_cache_slots(4),
        )
    }

    #[test]
    fn services_are_created_lazily_and_shared_per_pair() {
        let registry = registry();
        assert!(registry.is_empty());
        let node = TechnologyNode::tsmc180();
        let a = registry.service_for(Benchmark::TwoStageTia, &node);
        let b = registry.service_for(Benchmark::TwoStageTia, &node);
        assert_eq!(registry.len(), 1, "same pair must share one service");
        // Shared service: a session opened through one handle is visible in
        // statistics read through the other.
        let _session = a.session_named("via-a");
        assert_eq!(b.session_stats().len(), 1);
        let other = registry.service_for(Benchmark::Ldo, &node);
        assert_eq!(registry.len(), 2);
        assert!(other.is_open());
        registry.shutdown();
        assert!(!a.is_open());
        assert!(!other.is_open());
    }

    #[test]
    fn cache_budget_splits_evenly_across_slots() {
        let registry = registry();
        assert_eq!(registry.config().cache_share(), 16);
        let node = TechnologyNode::tsmc180();
        let service = registry.service_for(Benchmark::TwoStageTia, &node);
        assert_eq!(service.engine().config().cache_capacity, 16);
    }

    #[test]
    fn nodes_differing_beyond_the_name_get_their_own_service() {
        let registry = registry();
        let node = TechnologyNode::tsmc180();
        let mut tweaked = node.clone();
        tweaked.vdd += 0.1;
        registry.service_for(Benchmark::TwoStageTia, &node);
        registry.service_for(Benchmark::TwoStageTia, &tweaked);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn rebalance_shifts_cache_budget_toward_the_busy_service() {
        let registry = registry();
        let node = TechnologyNode::tsmc180();
        let busy = registry.service_for(Benchmark::TwoStageTia, &node);
        let idle = registry.service_for(Benchmark::Ldo, &node);
        // First call only sets the baselines (equal demand smoothing).
        registry.rebalance_cache();
        let space = Benchmark::TwoStageTia.circuit().design_space(&node);
        let session = busy.session_named("load");
        for i in 0..12 {
            let unit: Vec<f64> = (0..space.num_parameters())
                .map(|k| ((i * 13 + k * 7) % 29) as f64 / 28.0)
                .collect();
            session.evaluate_batch(&[space.from_unit(&unit)]);
        }
        let assignment = registry.rebalance_cache();
        assert_eq!(assignment.len(), 2);
        let total: usize = assignment.iter().map(|(_, share)| share).sum();
        assert_eq!(total, registry.config().cache_budget, "budget conserved");
        let busy_share = busy.engine().cache_capacity();
        let idle_share = idle.engine().cache_capacity();
        assert!(
            busy_share > idle_share,
            "demand must attract budget: busy={busy_share} idle={idle_share}"
        );
        let floor = (registry.config().cache_share() / 4).max(1);
        assert!(idle_share >= floor, "idle service squeezed below the floor");
    }

    #[test]
    fn peek_answers_cache_queries_without_polluting_counters() {
        let registry = registry();
        let node = TechnologyNode::tsmc180();
        let service = registry.service_for(Benchmark::TwoStageTia, &node);
        let space = Benchmark::TwoStageTia.circuit().design_space(&node);
        let candidate = space.nominal();
        let report = service
            .session_named("seed")
            .evaluate_batch(std::slice::from_ref(&candidate));
        let engine = service.engine();
        let hit_key = engine.cache_key(&candidate);
        let miss_key = CacheKey::new(Benchmark::Ldo, &node.name, &candidate, 12);
        let before = service.engine_stats();
        let hits = registry.peek_cached(&[hit_key, miss_key]);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].as_ref(), Some(&report[0]), "bit-identical peek");
        assert!(hits[1].is_none(), "foreign benchmark key must miss");
        let after = service.engine_stats();
        assert_eq!(
            (before.requests, before.cache_hits),
            (after.requests, after.cache_hits),
            "peeks must not count as engine traffic"
        );
    }

    #[test]
    fn stats_cover_every_instantiated_service() {
        let registry = registry();
        let node = TechnologyNode::tsmc180();
        let service = registry.service_for(Benchmark::Ldo, &node);
        let session = service.session_named("client");
        let space = Benchmark::Ldo.circuit().design_space(&node);
        session.evaluate_batch(&[space.nominal()]);
        let stats = registry.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].benchmark, "LDO");
        assert_eq!(stats[0].node, node.name);
        assert_eq!(stats[0].engine.simulated, 1);
        assert_eq!(stats[0].sessions.len(), 1);
        assert_eq!(stats[0].sessions[0].name, "client");
    }
}
