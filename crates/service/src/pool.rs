//! The sharded engine pool: N warm [`RoutingEngine`]s behind per-shard
//! mutexes, with work-overflow dispatch.
//!
//! Every shard owns one engine whose arenas were warmed at construction
//! ([`RoutingEngine::warm`]), so no request ever pays the arena growth. A
//! request picks a *home* shard round-robin; if the home shard is busy it
//! overflows to the first idle shard, and only when every shard is busy
//! does it block (on its home shard, so blocked requests spread out too).
//! Acquisition outcomes are recorded in the [`ServiceMetrics`] registry —
//! the `pool_overflows`/`pool_blocked` counters are the service's
//! contention signal.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pops_bipartite::ColorerKind;
use pops_core::RoutingEngine;
use pops_network::PopsTopology;

use crate::metrics::{Counter, ServiceMetrics};

/// A pool of warm routing engines for one topology.
#[derive(Debug)]
pub struct EnginePool {
    shards: Vec<Mutex<RoutingEngine>>,
    cursor: AtomicUsize,
    metrics: Arc<ServiceMetrics>,
}

impl EnginePool {
    /// Builds a pool of `shards` engines for `topology`, each warmed so
    /// its first request starts on the zero-allocation hot path.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(
        topology: PopsTopology,
        colorer: ColorerKind,
        shards: usize,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        assert!(shards > 0, "a pool needs at least one shard");
        let shards = (0..shards)
            .map(|_| {
                let mut engine = RoutingEngine::with_colorer(topology, colorer);
                engine.warm();
                Mutex::new(engine)
            })
            .collect();
        Self {
            shards,
            cursor: AtomicUsize::new(0),
            metrics,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f` with an exclusive engine: home shard if free, else the
    /// first idle shard (overflow), else blocking on the home shard.
    // Poison propagation is deliberate: a panicking plan can leave the
    // shard's arena mid-mutation, so a poisoned shard must not be reused.
    #[allow(clippy::expect_used)]
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut RoutingEngine) -> R) -> R {
        let count = self.shards.len();
        let home = self.cursor.fetch_add(1, Ordering::Relaxed) % count;
        if let Ok(mut engine) = self.shards[home].try_lock() {
            self.metrics.add(Counter::PoolFast, 1);
            return f(&mut engine);
        }
        for offset in 1..count {
            if let Ok(mut engine) = self.shards[(home + offset) % count].try_lock() {
                self.metrics.add(Counter::PoolOverflows, 1);
                return f(&mut engine);
            }
        }
        self.metrics.add(Counter::PoolBlocked, 1);
        let mut engine = self.shards[home]
            .lock()
            .expect("engine shard poisoned: a routing plan panicked");
        f(&mut engine)
    }

    /// Total arena footprint across all shards in bytes (blocks briefly on
    /// each shard in turn).
    #[allow(clippy::expect_used)] // deliberate poison propagation, as above
    pub fn arena_footprint(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("engine shard poisoned: a routing plan panicked")
                    .arena_footprint()
            })
            .sum()
    }

    /// Releases every shard's arenas ([`RoutingEngine::reset`]) — the
    /// memory-shedding hook for idle services.
    #[allow(clippy::expect_used)] // deliberate poison propagation, as above
    pub fn reset_all(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .expect("engine shard poisoned: a routing plan panicked")
                .reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_network::Simulator;
    use pops_permutation::families::random_permutation;
    use pops_permutation::SplitMix64;

    fn pool(shards: usize) -> EnginePool {
        EnginePool::new(
            PopsTopology::new(4, 4),
            ColorerKind::AlternatingPath,
            shards,
            Arc::new(ServiceMetrics::new()),
        )
    }

    #[test]
    fn shards_come_warm() {
        let p = pool(3);
        assert_eq!(p.shard_count(), 3);
        assert!(p.arena_footprint() > 0, "shards must be pre-warmed");
        p.reset_all();
        assert_eq!(p.arena_footprint(), 0);
    }

    #[test]
    fn with_engine_routes_correctly() {
        let p = pool(2);
        let mut rng = SplitMix64::new(42);
        for _ in 0..8 {
            let pi = random_permutation(16, &mut rng);
            let plan = p.with_engine(|engine| engine.plan_theorem2(&pi));
            let mut sim = Simulator::with_unit_packets(PopsTopology::new(4, 4));
            sim.execute_schedule(&plan.schedule).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
        }
    }

    #[test]
    fn concurrent_requests_spread_over_shards() {
        let metrics = Arc::new(ServiceMetrics::new());
        let p = Arc::new(EnginePool::new(
            PopsTopology::new(4, 4),
            ColorerKind::AlternatingPath,
            4,
            metrics.clone(),
        ));
        let mut rng = SplitMix64::new(7);
        let perms: Vec<_> = (0..4).map(|_| random_permutation(16, &mut rng)).collect();
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let p = p.clone();
                let pi = perms[worker % perms.len()].clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let plan = p.with_engine(|engine| engine.plan_theorem2(&pi));
                        assert_eq!(plan.schedule.slot_count(), 2);
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(
            snap.get(Counter::PoolFast)
                + snap.get(Counter::PoolOverflows)
                + snap.get(Counter::PoolBlocked),
            8 * 50
        );
    }
}
