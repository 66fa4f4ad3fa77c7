//! The **Theorem 2** router: any permutation routes on POPS(d, g) in one
//! slot when `d = 1` and `2⌈d/g⌉` slots when `d > 1`.
//!
//! Three cases, exactly as in the paper's proof:
//!
//! * **`d = 1`** — the network is a clique (diameter 1, `n²` couplers):
//!   every packet goes directly through its private coupler in one slot.
//! * **`1 < d ≤ g`** — compute a fair distribution `f : N_g × N_d → N_g`
//!   for the routing list system. Slot 1 sends the packet of processor
//!   `i + h·d` through coupler `c(f(h,i), h)`; equation (1) rules out
//!   coupler conflicts, equation (2) delivers exactly `d` packets per group
//!   (assigned to its `d` processors in source-group order), and equation
//!   (3) makes the result *fairly distributed*, so slot 2 delivers directly
//!   (Fact 1). Two slots total.
//! * **`d > g`** — the fair distribution has `T = N_d`, so `f(h, ·)` is a
//!   bijection on `N_d`. Round `q` (of `⌈d/g⌉`) moves, for each source
//!   group `h`, the `g` packets with `f`-value in `[q·g, (q+1)·g)`: the
//!   packet with `f = q·g + r` goes through coupler `c(r, h)`. All `g`
//!   packets arriving at group `r` share that `f`-value, hence by equation
//!   (3) have pairwise distinct destination groups — the round's second
//!   slot delivers them conflict-free. Receivers are chosen among the
//!   processors of group `r` that already sent, preserving the paper's
//!   one-packet-per-processor invariant. The last round moves
//!   `g·(d mod g)` packets when `g ∤ d`.

use pops_network::{PopsTopology, Schedule};
use pops_permutation::Permutation;

use crate::engine::RoutingEngine;
use crate::fair_distribution::FairDistribution;
use crate::list_system::ListSystem;

/// The slot count Theorem 2 guarantees: 1 when `d = 1`, else `2⌈d/g⌉`.
///
/// # Panics
///
/// Panics if `d == 0` or `g == 0`.
pub fn theorem2_slots(d: usize, g: usize) -> usize {
    assert!(d > 0 && g > 0, "d and g must be positive");
    if d == 1 {
        1
    } else {
        2 * d.div_ceil(g)
    }
}

/// A computed routing: the machine-level schedule plus the artefacts of the
/// construction (for inspection, examples, and the experiment harness).
#[derive(Debug, Clone)]
pub struct RoutingPlan {
    /// The topology routed on.
    pub topology: PopsTopology,
    /// The executable schedule; `schedule.slot_count()` equals
    /// [`theorem2_slots`] for the topology.
    pub schedule: Schedule,
    /// The fair distribution used (absent for the trivial `d = 1` case).
    pub fair_distribution: Option<FairDistribution>,
    /// The routing list system (absent for `d = 1`).
    pub list_system: Option<ListSystem>,
    /// Intermediate processor of each packet after its first hop
    /// (`intermediate[p] == p`'s position between the two hops; for `d = 1`
    /// this is just the destination).
    pub intermediate: Vec<usize>,
}

/// Routes permutation `pi` on `topology` per Theorem 2.
///
/// This is a thin wrapper over a fresh [`RoutingEngine`] — the
/// construction itself (all three cases of the proof) lives in
/// [`crate::engine`]. Callers routing many permutations on one topology
/// should hold a [`RoutingEngine`] instead and reuse its arenas.
///
/// # Panics
///
/// Panics if `pi.len() != topology.n()`.
pub fn route(pi: &Permutation, topology: PopsTopology) -> RoutingPlan {
    RoutingEngine::new(topology)
        .emit_artefacts(true)
        .plan_theorem2(pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_network::Simulator;
    use pops_permutation::families::{random_permutation, vector_reversal};
    use pops_permutation::SplitMix64;

    /// Routes and fully simulates, asserting delivery, slot count, and the
    /// one-packet-per-processor invariant after every slot.
    fn check(pi: &Permutation, d: usize, g: usize) {
        let topology = PopsTopology::new(d, g);
        let plan = route(pi, topology);
        assert_eq!(
            plan.schedule.slot_count(),
            theorem2_slots(d, g),
            "slot count d={d} g={g}"
        );
        let mut sim = Simulator::with_unit_packets(topology);
        for (idx, frame) in plan.schedule.slots.iter().enumerate() {
            sim.execute_frame(frame)
                .unwrap_or_else(|e| panic!("d={d} g={g} slot {idx}: {e}"));
            assert!(
                sim.in_transit_at_most_one(pi.as_slice()),
                "storage invariant broken after slot {idx} (d={d} g={g})"
            );
        }
        sim.verify_delivery(pi.as_slice())
            .unwrap_or_else(|e| panic!("d={d} g={g}: {e}"));
    }

    #[test]
    fn d1_routes_in_one_slot() {
        let mut rng = SplitMix64::new(80);
        for g in [1usize, 2, 5, 16] {
            let pi = random_permutation(g, &mut rng);
            check(&pi, 1, g);
        }
    }

    #[test]
    fn d_le_g_routes_in_two_slots() {
        let mut rng = SplitMix64::new(81);
        for (d, g) in [(2usize, 2usize), (2, 4), (3, 5), (4, 4), (5, 8), (7, 7)] {
            let pi = random_permutation(d * g, &mut rng);
            check(&pi, d, g);
        }
    }

    #[test]
    fn d_gt_g_routes_in_two_ceil_d_over_g_slots() {
        let mut rng = SplitMix64::new(82);
        for (d, g) in [(4usize, 2usize), (6, 3), (8, 4), (5, 2), (7, 3), (9, 4)] {
            let pi = random_permutation(d * g, &mut rng);
            check(&pi, d, g);
        }
    }

    #[test]
    fn partial_last_round_cases() {
        // g does not divide d: exercises the g·(d mod g) partial round.
        let mut rng = SplitMix64::new(83);
        for (d, g) in [(3usize, 2usize), (5, 3), (7, 2), (11, 4), (13, 5)] {
            let pi = random_permutation(d * g, &mut rng);
            check(&pi, d, g);
        }
    }

    #[test]
    fn single_group_edge_case() {
        // POPS(d, 1): one coupler; Theorem 2 gives 2d slots.
        let mut rng = SplitMix64::new(84);
        let d = 4;
        let pi = random_permutation(d, &mut rng);
        check(&pi, d, 1);
    }

    #[test]
    fn identity_and_reversal_route_correctly() {
        for (d, g) in [(3usize, 3usize), (4, 2), (2, 4)] {
            check(&Permutation::identity(d * g), d, g);
            check(&vector_reversal(d * g), d, g);
        }
    }

    #[test]
    fn figure3_permutation_routes_in_two_slots() {
        let pi = Permutation::new(vec![5, 1, 7, 2, 0, 6, 3, 8, 4]).unwrap();
        check(&pi, 3, 3);
    }

    #[test]
    fn plan_exposes_construction_artefacts() {
        let pi = vector_reversal(12);
        let plan = route(&pi, PopsTopology::new(3, 4));
        assert!(plan.fair_distribution.is_some());
        assert!(plan.list_system.is_some());
        assert_eq!(plan.intermediate.len(), 12);
        let plan1 = route(&vector_reversal(4), PopsTopology::new(1, 4));
        assert!(plan1.fair_distribution.is_none());
    }

    #[test]
    fn theorem2_slots_formula() {
        assert_eq!(theorem2_slots(1, 10), 1);
        assert_eq!(theorem2_slots(2, 10), 2);
        assert_eq!(theorem2_slots(10, 10), 2);
        assert_eq!(theorem2_slots(11, 10), 4);
        assert_eq!(theorem2_slots(20, 10), 4);
        assert_eq!(theorem2_slots(21, 10), 6);
        assert_eq!(theorem2_slots(5, 1), 10);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_mismatched_sizes() {
        let pi = Permutation::identity(5);
        let _ = route(&pi, PopsTopology::new(2, 3));
    }
}
