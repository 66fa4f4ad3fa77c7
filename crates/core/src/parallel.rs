//! Parallel batch routing: compute many routing plans concurrently.
//!
//! The routing computation is per-permutation independent (the fair
//! distribution, the colouring, the schedule emission touch no shared
//! state), so a batch of permutations — a round of hypercube simulation, a
//! sweep of experiment instances, a queue of application phases —
//! parallelizes embarrassingly across OS threads with scoped borrows.
//!
//! The executor is **chunk-based and engine-per-worker**: the batch and the
//! output vector are split into matching contiguous chunks with
//! [`slice::chunks`]/[`slice::chunks_mut`], and every worker owns one
//! [`RoutingEngine`] whose arenas warm up on its first permutation and are
//! reused for the rest of its chunk — no locks, no atomics, no shared
//! mutable state anywhere (disjoint `&mut` slices carry the results out).
//! No external dependency: `std::thread::scope` suffices, and the output
//! order matches the input order by construction.
//!
//! The engines live in a [`BatchRouter`], which **persists them across
//! calls**: the first batch grows each worker's arenas, every later batch
//! runs entirely on the warm hot path. Steady-state callers should use
//! [`BatchRouter::route_batch_into`], which recycles the previous batch's
//! plan buffers into the engines — the whole batch then re-emits into the
//! same cache-warm allocations, keeping 1-thread batch throughput at
//! single-plan level. The free function [`route_batch_with`] builds a
//! transient router per call — correct, but it pays the arena growth every
//! time; callers issuing repeated batches should hold a `BatchRouter`.

use std::num::NonZeroUsize;

use pops_network::PopsTopology;
use pops_permutation::Permutation;

use crate::engine::RoutingEngine;
use crate::router::RoutingPlan;

/// A persistent batch executor: one [`RoutingEngine`] per worker, created
/// on demand and **reused across batches**, so repeated [`BatchRouter::
/// route_batch`] calls stay on the engines' zero-allocation warm path
/// instead of re-growing arenas per call (the overhead that made the
/// transient 1-thread batch path slower than single-plan routing).
#[derive(Debug)]
pub struct BatchRouter {
    topology: PopsTopology,
    emit_artefacts: bool,
    engines: Vec<RoutingEngine>,
}

impl BatchRouter {
    /// Creates an executor for `topology`; no engines are built until the
    /// first batch arrives (their count depends on the thread budget).
    pub fn new(topology: PopsTopology) -> Self {
        Self {
            topology,
            emit_artefacts: false,
            engines: Vec::new(),
        }
    }

    /// Whether plans carry construction artefacts (off by default — the
    /// batch hot path normally wants schedules only).
    pub fn emit_artefacts(mut self, yes: bool) -> Self {
        self.emit_artefacts = yes;
        self
    }

    /// Non-consuming form of [`BatchRouter::emit_artefacts`], for routers
    /// held behind shared structures that switch modes per batch.
    pub fn set_emit_artefacts(&mut self, yes: bool) {
        self.emit_artefacts = yes;
    }

    /// Routes every permutation in `batch`, in input order, using up to
    /// `threads` workers (machine parallelism when `None`). Worker engines
    /// are created on first use and kept warm for subsequent batches.
    ///
    /// # Panics
    ///
    /// Panics (propagating the worker's panic) if any permutation's length
    /// does not match the topology.
    pub fn route_batch(
        &mut self,
        batch: &[Permutation],
        threads: Option<NonZeroUsize>,
    ) -> Vec<RoutingPlan> {
        let mut out = Vec::new();
        self.route_batch_into(batch, threads, &mut out);
        out
    }

    /// [`BatchRouter::route_batch`] with caller-owned output storage:
    /// `out` is drained — its previous plans are **recycled** into the
    /// worker engines ([`RoutingEngine::recycle`]) — and refilled with the
    /// new batch's plans in input order.
    ///
    /// This is the steady-state form for callers issuing batch after
    /// batch: handing the consumed plans back lets the engines re-emit
    /// into the same cache-warm allocations, so a 1-thread batch runs at
    /// (not below) single-plan throughput instead of paying the allocator
    /// for a batch's worth of cold plan memory per call.
    ///
    /// # Panics
    ///
    /// Panics (propagating the worker's panic) if any permutation's length
    /// does not match the topology.
    pub fn route_batch_into(
        &mut self,
        batch: &[Permutation],
        threads: Option<NonZeroUsize>,
        out: &mut Vec<RoutingPlan>,
    ) {
        let worker_count = threads
            .or_else(|| std::thread::available_parallelism().ok())
            .map_or(1, NonZeroUsize::get)
            .min(batch.len().max(1));
        while self.engines.len() < worker_count {
            self.engines.push(RoutingEngine::new(self.topology));
        }
        let emit = self.emit_artefacts;
        for engine in &mut self.engines[..worker_count] {
            engine.set_emit_artefacts(emit);
        }
        for (i, plan) in out.drain(..).enumerate() {
            self.engines[i % worker_count].recycle(plan);
        }

        if worker_count <= 1 || batch.len() <= 1 {
            let engine = &mut self.engines[0];
            out.extend(batch.iter().map(|pi| engine.plan_theorem2(pi)));
            return;
        }

        let mut results: Vec<Option<RoutingPlan>> = Vec::with_capacity(batch.len());
        results.resize_with(batch.len(), || None);
        let chunk_len = batch.len().div_ceil(worker_count);
        std::thread::scope(|scope| {
            for ((in_chunk, out_chunk), engine) in batch
                .chunks(chunk_len)
                .zip(results.chunks_mut(chunk_len))
                .zip(self.engines.iter_mut())
            {
                scope.spawn(move || {
                    for (pi, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(engine.plan_theorem2(pi));
                    }
                });
            }
        });
        out.extend(
            results
                .into_iter()
                .map(|r| r.expect("every chunk slot is filled by its worker")),
        );
    }

    /// The executor's topology.
    pub fn topology(&self) -> PopsTopology {
        self.topology
    }

    /// Approximate heap footprint of all worker arenas, in bytes.
    pub fn arena_footprint(&self) -> usize {
        self.engines
            .iter()
            .map(RoutingEngine::arena_footprint)
            .sum()
    }
}

/// Routes every permutation in `batch` on `topology`, using up to
/// `threads` worker threads (defaults to the machine's available
/// parallelism when `None`). Results are in input order. With
/// `emit_artefacts = false` the workers' plans carry schedule +
/// intermediate placements only — no per-plan list-system or
/// fair-distribution clones on the hot path.
///
/// # Panics
///
/// Panics (propagating the worker's panic) if any permutation's length
/// does not match the topology.
pub fn route_batch_with(
    batch: &[Permutation],
    topology: PopsTopology,
    threads: Option<NonZeroUsize>,
    emit_artefacts: bool,
) -> Vec<RoutingPlan> {
    BatchRouter::new(topology)
        .emit_artefacts(emit_artefacts)
        .route_batch(batch, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route;
    use pops_permutation::families::random_permutation;
    use pops_permutation::SplitMix64;

    fn batch(n: usize, count: usize, seed: u64) -> Vec<Permutation> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| random_permutation(n, &mut rng))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let topology = PopsTopology::new(4, 4);
        let perms = batch(16, 24, 70);
        let seq: Vec<_> = perms.iter().map(|pi| route(pi, topology)).collect();
        let par = route_batch_with(&perms, topology, None, true);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.schedule, b.schedule, "plans must be deterministic");
        }
    }

    #[test]
    fn single_thread_fallback() {
        let topology = PopsTopology::new(2, 3);
        let perms = batch(6, 5, 71);
        let plans = route_batch_with(&perms, topology, NonZeroUsize::new(1), true);
        assert_eq!(plans.len(), 5);
        for (pi, plan) in perms.iter().zip(&plans) {
            let mut sim = pops_network::Simulator::with_unit_packets(topology);
            sim.execute_schedule(&plan.schedule).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
        }
    }

    #[test]
    fn empty_batch() {
        let topology = PopsTopology::new(2, 2);
        assert!(route_batch_with(&[], topology, None, true).is_empty());
    }

    #[test]
    fn oversubscribed_thread_request() {
        let topology = PopsTopology::new(3, 3);
        let perms = batch(9, 3, 72);
        let plans = route_batch_with(&perms, topology, NonZeroUsize::new(64), true);
        assert_eq!(plans.len(), 3);
    }

    #[test]
    fn chunked_workers_cover_uneven_splits() {
        // 7 permutations over 3 workers: chunks of 3/3/1.
        let topology = PopsTopology::new(3, 2);
        let perms = batch(6, 7, 73);
        let plans = route_batch_with(&perms, topology, NonZeroUsize::new(3), true);
        assert_eq!(plans.len(), 7);
        for (pi, plan) in perms.iter().zip(&plans) {
            let fresh = route(pi, topology);
            assert_eq!(plan.schedule, fresh.schedule);
        }
    }

    #[test]
    fn batch_plans_keep_artefacts() {
        let topology = PopsTopology::new(2, 4);
        let perms = batch(8, 4, 74);
        for plan in route_batch_with(&perms, topology, None, true) {
            assert!(plan.fair_distribution.is_some());
            assert!(plan.list_system.is_some());
        }
    }

    #[test]
    fn persistent_router_reuses_warm_engines() {
        let topology = PopsTopology::new(4, 4);
        let perms = batch(16, 8, 76);
        let mut router = BatchRouter::new(topology);
        let first = router.route_batch(&perms, NonZeroUsize::new(2));
        let footprint = router.arena_footprint();
        assert!(footprint > 0, "first batch grows the worker arenas");
        let second = router.route_batch(&perms, NonZeroUsize::new(2));
        assert_eq!(
            router.arena_footprint(),
            footprint,
            "later batches must not re-grow arenas"
        );
        for ((a, b), pi) in first.iter().zip(&second).zip(&perms) {
            assert_eq!(a.schedule, b.schedule);
            let fresh = route(pi, topology);
            assert_eq!(a.schedule, fresh.schedule);
        }
    }

    #[test]
    fn route_batch_into_recycles_and_matches_fresh_plans() {
        let topology = PopsTopology::new(4, 4);
        let perms = batch(16, 8, 78);
        let mut router = BatchRouter::new(topology);
        let mut plans = Vec::new();
        router.route_batch_into(&perms, NonZeroUsize::new(1), &mut plans);
        assert_eq!(plans.len(), 8);
        let footprint = router.arena_footprint();
        // Recycling the previous batch keeps the footprint fixed: the new
        // plans are written into the recycled buffers, not fresh ones.
        router.route_batch_into(&perms, NonZeroUsize::new(1), &mut plans);
        assert_eq!(plans.len(), 8);
        assert_eq!(
            router.arena_footprint(),
            footprint,
            "recycled batches must not grow the arenas"
        );
        for (pi, plan) in perms.iter().zip(&plans) {
            let fresh = route(pi, topology);
            assert_eq!(plan.schedule, fresh.schedule);
            assert_eq!(plan.intermediate, fresh.intermediate);
        }
    }

    #[test]
    fn route_batch_into_recycles_on_d_gt_g_rounds() {
        let topology = PopsTopology::new(8, 2);
        let perms = batch(16, 6, 79);
        let mut router = BatchRouter::new(topology);
        let mut plans = Vec::new();
        for _ in 0..3 {
            router.route_batch_into(&perms, NonZeroUsize::new(1), &mut plans);
        }
        for (pi, plan) in perms.iter().zip(&plans) {
            let mut sim = pops_network::Simulator::with_unit_packets(topology);
            sim.execute_schedule(&plan.schedule).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
        }
    }

    #[test]
    fn persistent_router_toggles_artefacts_per_configuration() {
        let topology = PopsTopology::new(2, 4);
        let perms = batch(8, 3, 77);
        let mut with = BatchRouter::new(topology).emit_artefacts(true);
        for plan in with.route_batch(&perms, NonZeroUsize::new(1)) {
            assert!(plan.fair_distribution.is_some());
        }
        let mut without = BatchRouter::new(topology);
        for plan in without.route_batch(&perms, NonZeroUsize::new(1)) {
            assert!(plan.fair_distribution.is_none());
        }
    }

    #[test]
    fn artefact_free_batch_matches_schedules() {
        let topology = PopsTopology::new(3, 3);
        let perms = batch(9, 6, 75);
        let with = route_batch_with(&perms, topology, None, true);
        let without = route_batch_with(&perms, topology, None, false);
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(a.schedule, b.schedule);
            assert!(b.fair_distribution.is_none());
            assert!(b.list_system.is_none());
        }
    }
}
