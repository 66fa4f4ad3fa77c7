//! Side-by-side comparison of every router on one instance — the data rows
//! of experiments T3 and T6.

use pops_core::single_slot::is_single_slot_routable;
use pops_core::verify::route_and_verify;
use pops_core::{lower_bound, theorem2_slots};
use pops_network::{PopsTopology, Simulator};
use pops_permutation::Permutation;

use crate::direct::route_direct;
use crate::structured::route_structured;

/// Slot counts of every applicable router on one `(π, d, g)` instance, each
/// verified by full simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Group size.
    pub d: usize,
    /// Group count.
    pub g: usize,
    /// Slots used by the Theorem-2 general router (simulated).
    pub general_slots: usize,
    /// The paper's guarantee `2⌈d/g⌉` (or 1).
    pub theorem2_slots: usize,
    /// Slots used by the optimal direct (single-hop) routing.
    pub direct_slots: usize,
    /// Slots used by the structured (Sahni-style) router, when applicable.
    pub structured_slots: Option<usize>,
    /// Whether the instance is single-slot routable
    /// (Gravenstreter–Melhem).
    pub single_slot_routable: bool,
    /// Best provable lower bound (Propositions 1–3).
    pub lower_bound: usize,
}

/// Runs every router on the instance, simulating and verifying each
/// schedule, and collects the slot counts.
///
/// # Panics
///
/// Panics if any router produces an invalid schedule — that would be a bug
/// this reproduction is designed to surface.
pub fn compare(pi: &Permutation, d: usize, g: usize) -> Comparison {
    let topology = PopsTopology::new(d, g);

    let general = route_and_verify(pi, d, g)
        .unwrap_or_else(|e| panic!("general router failed on d={d} g={g}: {e}"));

    let direct_schedule = route_direct(pi, &topology);
    let mut sim = Simulator::with_unit_packets(topology);
    sim.execute_schedule(&direct_schedule)
        .unwrap_or_else(|(i, e)| panic!("direct router failed at slot {i}: {e}"));
    sim.verify_delivery(pi.as_slice())
        .unwrap_or_else(|e| panic!("direct router misdelivered: {e}"));

    let structured_slots = route_structured(pi, topology).ok().map(|schedule| {
        let mut sim = Simulator::with_unit_packets(topology);
        sim.execute_schedule(&schedule)
            .unwrap_or_else(|(i, e)| panic!("structured router failed at slot {i}: {e}"));
        sim.verify_delivery(pi.as_slice())
            .unwrap_or_else(|e| panic!("structured router misdelivered: {e}"));
        schedule.slot_count()
    });

    Comparison {
        d,
        g,
        general_slots: general.slots,
        theorem2_slots: theorem2_slots(d, g),
        direct_slots: direct_schedule.slot_count(),
        structured_slots,
        single_slot_routable: is_single_slot_routable(pi, &topology),
        lower_bound: lower_bound(pi, d, g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_permutation::families::{group_rotation, random_permutation, vector_reversal};
    use pops_permutation::SplitMix64;

    #[test]
    fn comparison_on_reversal() {
        let (d, g) = (6usize, 3usize);
        let c = compare(&vector_reversal(d * g), d, g);
        assert_eq!(c.general_slots, c.theorem2_slots);
        assert_eq!(c.direct_slots, d);
        assert_eq!(c.structured_slots, Some(c.theorem2_slots));
        assert!(!c.single_slot_routable);
        assert!(c.lower_bound <= c.general_slots);
    }

    #[test]
    fn comparison_on_random() {
        let mut rng = SplitMix64::new(140);
        let (d, g) = (4usize, 4usize);
        let c = compare(&random_permutation(d * g, &mut rng), d, g);
        assert_eq!(c.general_slots, 2);
        // A random permutation is almost never group-uniform.
        assert_eq!(c.structured_slots, None);
    }

    #[test]
    fn two_hop_beats_direct_on_concentrated_demand() {
        let (d, g) = (8usize, 4usize);
        let c = compare(&group_rotation(d, g, 1), d, g);
        assert!(c.general_slots < c.direct_slots);
    }
}
