//! Routing *h-relations* — the natural generalization of permutation
//! routing that the paper's machinery extends to directly.
//!
//! An **h-relation** is a communication pattern in which every processor is
//! the source of at most `h` packets and the destination of at most `h`
//! packets. Permutations are exactly the 1-relations with every processor
//! used once. The classic reduction (König again!): view the pattern as a
//! bipartite multigraph on sources × destinations with maximum degree
//! ≤ `h`; a proper `h`-edge-colouring splits it into `h` partial
//! permutations, each of which completes to a full permutation and routes
//! by Theorem 2. Total:
//!
//! * `h` slots when `d = 1`,
//! * `2h⌈d/g⌉` slots when `d > 1`,
//!
//! an `h`-fold of the paper's bound — and within a factor 2h/⌈h/…⌉ of the
//! trivial `⌈hn/g²⌉ = h⌈d/g⌉`-ish counting bound for dense relations.

use std::fmt;

use pops_network::{PopsTopology, Schedule};
use pops_permutation::PartialPermutation;

/// A multiset of `(source, destination)` packet requests with per-node
/// multiplicity at most `h` on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HRelation {
    n: usize,
    requests: Vec<(usize, usize)>,
}

/// Why an [`HRelation`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HRelationError {
    /// A request endpoint is out of `0..n`.
    OutOfRange {
        /// Index of the offending request.
        request: usize,
    },
}

impl fmt::Display for HRelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HRelationError::OutOfRange { request } => {
                write!(f, "request {request} has an endpoint out of range")
            }
        }
    }
}

impl std::error::Error for HRelationError {}

impl HRelation {
    /// Creates an h-relation from raw requests on `n` processors.
    pub fn new(n: usize, requests: Vec<(usize, usize)>) -> Result<Self, HRelationError> {
        for (idx, &(src, dst)) in requests.iter().enumerate() {
            if src >= n || dst >= n {
                return Err(HRelationError::OutOfRange { request: idx });
            }
        }
        Ok(Self { n, requests })
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The requests.
    pub fn requests(&self) -> &[(usize, usize)] {
        &self.requests
    }

    /// The degree `h` of the relation: the maximum number of packets any
    /// processor sends or receives.
    pub fn h(&self) -> usize {
        let mut out_deg = vec![0usize; self.n];
        let mut in_deg = vec![0usize; self.n];
        for &(src, dst) in &self.requests {
            out_deg[src] += 1;
            in_deg[dst] += 1;
        }
        out_deg.into_iter().chain(in_deg).max().unwrap_or(0)
    }
}

/// The decomposition of an h-relation into at most `h` partial
/// permutations, plus the executable schedule routing all of them.
#[derive(Debug, Clone)]
pub struct HRelationRouting {
    /// The partial permutation of each routing phase, in order. The packet
    /// for request `(src, dst)` travels in the phase whose partial
    /// permutation maps `src` to `dst`.
    pub phases: Vec<PartialPermutation>,
    /// The concatenated schedule: slot block `k` (of `slots_per_phase`
    /// slots) routes phase `k`'s *batch* of packets — each processor
    /// injects the packet it sends in that phase at the block's start, so
    /// packet ids within a block are the batch's source processors. (The
    /// phases move disjoint batches; they are not one continuous packet
    /// lifetime, which is why the tests execute each block on a fresh
    /// simulator.)
    pub schedule: Schedule,
    /// Slots per phase (`theorem2_slots(d, g)` each).
    pub slots_per_phase: usize,
}

impl HRelationRouting {
    /// Assembles a routing from per-phase Theorem-2 schedules, in phase
    /// order — the inverse of the decomposition hook
    /// [`crate::engine::RoutingEngine::decompose_h_relation`]. `blocks[k]`
    /// must be the Theorem-2 schedule of `phases[k].complete()` on
    /// `topology` (each exactly `theorem2_slots(d, g)` slots); callers that
    /// cache phase plans (the service's level-2 cache) use this to stitch
    /// cache hits and freshly planned phases into one executable schedule.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() != phases.len()` or any block has the wrong
    /// slot count.
    pub fn from_phase_schedules(
        topology: PopsTopology,
        phases: Vec<PartialPermutation>,
        blocks: Vec<Schedule>,
    ) -> Self {
        assert_eq!(phases.len(), blocks.len(), "one schedule block per phase");
        let slots_per_phase = crate::router::theorem2_slots(topology.d(), topology.g());
        let mut schedule = Schedule::new();
        for block in blocks {
            assert_eq!(
                block.slot_count(),
                slots_per_phase,
                "phase blocks must be theorem-2 schedules"
            );
            schedule.slots.extend(block.slots);
        }
        Self {
            phases,
            schedule,
            slots_per_phase,
        }
    }
}

/// Routes an h-relation on `topology`: König-decompose into `h` partial
/// permutations, complete each, route each by Theorem 2, concatenate.
///
/// The returned schedule uses `h · theorem2_slots(d, g)` slots. Note the
/// schedule routes the *completions*: filler packets (processors idle in a
/// phase) also move and return; the simulator-level tests in this module
/// verify that every request's packet is delivered in its phase.
///
/// Thin wrapper over [`crate::engine::RoutingEngine::plan_h_relation`],
/// which reuses one set of Theorem-2 arenas across all phases.
///
/// # Panics
///
/// Panics if `relation.n() != topology.n()`.
pub fn route_h_relation(relation: &HRelation, topology: PopsTopology) -> HRelationRouting {
    crate::engine::RoutingEngine::new(topology).plan_h_relation(relation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_network::Simulator;
    use pops_permutation::SplitMix64;

    /// Generates a random h-relation where every processor sends exactly
    /// `h` packets and receives exactly `h` (a union of h permutations).
    fn random_h_relation(n: usize, h: usize, rng: &mut SplitMix64) -> HRelation {
        let mut requests = Vec::with_capacity(n * h);
        for _ in 0..h {
            let p = pops_permutation::families::random_permutation(n, rng);
            for src in 0..n {
                requests.push((src, p.apply(src)));
            }
        }
        HRelation::new(n, requests).unwrap()
    }

    /// Routes the relation phase by phase on fresh simulators and checks
    /// every request is satisfied in its phase.
    fn check(relation: &HRelation, d: usize, g: usize) -> HRelationRouting {
        let topology = PopsTopology::new(d, g);
        let routing = route_h_relation(relation, topology);
        assert_eq!(
            routing.schedule.slot_count(),
            routing.phases.len() * routing.slots_per_phase
        );
        // Each phase is a contiguous block of slots routing its completed
        // permutation.
        for (idx, phase) in routing.phases.iter().enumerate() {
            let completed = phase.complete();
            let mut sim = Simulator::with_unit_packets(topology);
            let block = &routing.schedule.slots
                [idx * routing.slots_per_phase..(idx + 1) * routing.slots_per_phase];
            for frame in block {
                sim.execute_frame(frame)
                    .unwrap_or_else(|e| panic!("phase {idx}: {e}"));
            }
            sim.verify_delivery(completed.as_slice())
                .unwrap_or_else(|e| panic!("phase {idx}: {e}"));
        }
        routing
    }

    #[test]
    fn permutation_is_a_1_relation() {
        let mut rng = SplitMix64::new(50);
        let relation = random_h_relation(12, 1, &mut rng);
        assert_eq!(relation.h(), 1);
        let routing = check(&relation, 3, 4);
        assert_eq!(routing.phases.len(), 1);
    }

    #[test]
    fn routes_random_h_relations() {
        let mut rng = SplitMix64::new(51);
        for h in [2usize, 3, 5] {
            let relation = random_h_relation(12, h, &mut rng);
            assert_eq!(relation.h(), h);
            let routing = check(&relation, 4, 3);
            assert_eq!(routing.phases.len(), h);
            assert_eq!(routing.schedule.slot_count(), h * 4);
        }
    }

    #[test]
    fn every_request_covered_exactly_once() {
        let mut rng = SplitMix64::new(52);
        let relation = random_h_relation(8, 3, &mut rng);
        let routing = route_h_relation(&relation, PopsTopology::new(2, 4));
        // Multisets of requests == union of the phases.
        let mut from_phases: Vec<(usize, usize)> = routing
            .phases
            .iter()
            .flat_map(|p| {
                p.as_slice()
                    .iter()
                    .enumerate()
                    .filter_map(|(src, dst)| dst.map(|d| (src, d)))
            })
            .collect();
        let mut original = relation.requests().to_vec();
        from_phases.sort_unstable();
        original.sort_unstable();
        assert_eq!(from_phases, original);
    }

    #[test]
    fn sparse_irregular_relation() {
        // A lopsided relation: processor 0 sends 3 packets, others few.
        let relation =
            HRelation::new(6, vec![(0, 1), (0, 2), (0, 3), (4, 0), (5, 0), (1, 5)]).unwrap();
        assert_eq!(relation.h(), 3);
        let routing = check(&relation, 2, 3);
        assert_eq!(routing.phases.len(), 3);
    }

    #[test]
    fn d1_h_relation_uses_h_slots() {
        let mut rng = SplitMix64::new(53);
        let relation = random_h_relation(6, 4, &mut rng);
        let routing = check(&relation, 1, 6);
        assert_eq!(routing.schedule.slot_count(), 4);
    }

    #[test]
    fn empty_relation() {
        let relation = HRelation::new(4, vec![]).unwrap();
        assert_eq!(relation.h(), 0);
        let routing = route_h_relation(&relation, PopsTopology::new(2, 2));
        assert_eq!(routing.phases.len(), 0);
        assert_eq!(routing.schedule.slot_count(), 0);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = HRelation::new(3, vec![(0, 5)]).unwrap_err();
        assert_eq!(err, HRelationError::OutOfRange { request: 0 });
        assert!(err.to_string().contains("request 0"));
    }
}
