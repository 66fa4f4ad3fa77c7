//! End-to-end verification: route, simulate, and check everything the
//! paper claims — the primitive behind every experiment in this
//! reproduction.

use std::fmt;

use pops_network::{PopsTopology, ScheduleStats, SimError, Simulator};
use pops_permutation::Permutation;

use crate::bounds::lower_bound;
use crate::router::{route, theorem2_slots, RoutingPlan};

/// The outcome of a verified routing: the schedule executed on the
/// simulator, delivery confirmed, invariants checked.
#[derive(Debug, Clone)]
pub struct VerifiedRouting {
    /// Slots actually executed.
    pub slots: usize,
    /// The Theorem-2 guarantee for this topology.
    pub theorem2_slots: usize,
    /// The best provable lower bound (Propositions 1–3 + trivial).
    pub lower_bound: usize,
    /// Aggregate machine statistics.
    pub stats: ScheduleStats,
    /// Whether the in-transit storage invariant held after every slot.
    pub storage_invariant_held: bool,
    /// The plan that was executed (schedule + construction artefacts).
    pub plan: RoutingPlan,
}

/// Why a routing failed verification (never produced by the Theorem-2
/// router — surfaced so integration tests and fuzzing can prove that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingFailure {
    /// The simulator rejected a slot.
    SlotRejected {
        /// Index of the offending slot.
        slot: usize,
        /// The machine-model violation.
        error: SimError,
    },
    /// All slots executed but some packet is not at its destination.
    NotDelivered {
        /// Human-readable delivery error.
        detail: String,
    },
}

impl fmt::Display for RoutingFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingFailure::SlotRejected { slot, error } => {
                write!(f, "slot {slot} rejected by the machine model: {error}")
            }
            RoutingFailure::NotDelivered { detail } => write!(f, "not delivered: {detail}"),
        }
    }
}

impl std::error::Error for RoutingFailure {}

/// Routes `pi` on POPS(d, g) with the Theorem-2 router, executes the
/// schedule on the simulator, and verifies delivery. This is the single
/// entry point the experiments and most integration tests use.
pub fn route_and_verify(
    pi: &Permutation,
    d: usize,
    g: usize,
) -> Result<VerifiedRouting, RoutingFailure> {
    let topology = PopsTopology::new(d, g);
    let plan = route(pi, topology);
    execute_plan(pi, plan)
}

/// Executes an existing plan on a fresh simulator and verifies delivery.
pub fn execute_plan(
    pi: &Permutation,
    plan: RoutingPlan,
) -> Result<VerifiedRouting, RoutingFailure> {
    let topology = plan.topology;
    let mut sim = Simulator::with_unit_packets(topology);
    let mut storage_invariant_held = true;
    for (idx, frame) in plan.schedule.slots.iter().enumerate() {
        sim.execute_frame(frame)
            .map_err(|error| RoutingFailure::SlotRejected { slot: idx, error })?;
        storage_invariant_held &= sim.in_transit_at_most_one(pi.as_slice());
    }
    sim.verify_delivery(pi.as_slice())
        .map_err(|e| RoutingFailure::NotDelivered {
            detail: e.to_string(),
        })?;
    Ok(VerifiedRouting {
        slots: sim.slots_elapsed(),
        theorem2_slots: theorem2_slots(topology.d(), topology.g()),
        lower_bound: lower_bound(pi, topology.d(), topology.g()),
        stats: sim.stats(),
        storage_invariant_held,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_permutation::families::{random_permutation, vector_reversal};
    use pops_permutation::SplitMix64;

    #[test]
    fn verified_routing_reports_consistent_numbers() {
        let mut rng = SplitMix64::new(110);
        let (d, g) = (4usize, 6usize);
        let pi = random_permutation(d * g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        assert_eq!(v.slots, v.theorem2_slots);
        assert!(v.lower_bound <= v.slots);
        assert!(v.storage_invariant_held);
        assert_eq!(v.stats.slots, v.slots);
        // Two-hop routing of n packets: 2n deliveries.
        assert_eq!(v.stats.total_deliveries, 2 * d * g);
    }

    #[test]
    fn d1_verified_in_one_slot() {
        let mut rng = SplitMix64::new(111);
        let pi = random_permutation(9, &mut rng);
        let v = route_and_verify(&pi, 1, 9).unwrap();
        assert_eq!(v.slots, 1);
        assert_eq!(v.stats.total_deliveries, 9);
    }

    #[test]
    fn reversal_meets_the_lower_bound_exactly_when_g_divides_d() {
        // Even g dividing d: achieved == lower bound == 2d/g — Theorem 2
        // provably optimal (corrected Prop 2 at (4, 2), Prop 3 at (8, 4)).
        for (d, g) in [(4usize, 2usize), (8, 4)] {
            let pi = vector_reversal(d * g);
            let v = route_and_verify(&pi, d, g).unwrap();
            assert_eq!(v.slots, v.lower_bound, "POPS({d}, {g})");
            assert_eq!(v.slots, 2 * d / g);
        }
    }

    #[test]
    fn failure_display() {
        let f = RoutingFailure::NotDelivered {
            detail: "packet 3 adrift".into(),
        };
        assert!(f.to_string().contains("packet 3"));
    }
}
