//! Total exchange (personalized all-to-all) — the densest of the "common
//! communication patterns" of Gravenstreter & Melhem (1998) that §1 of the
//! paper cites, expressed as an (n−1)-relation and routed through the
//! h-relation extension of the Theorem-2 machinery.
//!
//! Every processor has one distinct packet for every other processor:
//! `n(n−1)` packets, each processor sending and receiving exactly `n−1` —
//! an `(n−1)`-relation. The König decomposition splits it into `n−1`
//! permutations (here constructed directly as the rotations `i ↦ i+s`,
//! which partition the off-diagonal pairs), each routed in the unified
//! Theorem-2 slot count, for `(n−1)·theorem2_slots(d, g)` slots total.

use pops_core::h_relation::{route_h_relation, HRelation, HRelationRouting};
use pops_network::PopsTopology;

/// Builds the total-exchange (n−1)-relation on `n` processors: one request
/// `(i, j)` for every ordered pair with `i ≠ j`.
pub fn total_exchange_relation(n: usize) -> HRelation {
    let requests: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    HRelation::new(n, requests).expect("endpoints in range by construction")
}

/// Routes the total exchange on `topology`; the schedule has
/// `(n−1) · theorem2_slots(d, g)` slots (one permutation phase per
/// decomposition colour).
pub fn route_total_exchange(topology: PopsTopology) -> HRelationRouting {
    let relation = total_exchange_relation(topology.n());
    route_h_relation(&relation, topology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_core::theorem2_slots;
    use pops_network::Simulator;

    #[test]
    fn relation_shape() {
        let r = total_exchange_relation(5);
        assert_eq!(r.requests().len(), 20);
        assert_eq!(r.h(), 4);
    }

    #[test]
    fn routes_with_expected_phase_count() {
        for (d, g) in [(2usize, 3usize), (3, 2), (1, 5), (2, 2)] {
            let n = d * g;
            let topology = PopsTopology::new(d, g);
            let routing = route_total_exchange(topology);
            assert_eq!(routing.phases.len(), n - 1, "d={d} g={g}");
            assert_eq!(
                routing.schedule.slot_count(),
                (n - 1) * theorem2_slots(d, g),
                "d={d} g={g}"
            );
        }
    }

    #[test]
    fn every_ordered_pair_served_once() {
        let topology = PopsTopology::new(2, 3);
        let routing = route_total_exchange(topology);
        let mut served: Vec<(usize, usize)> = routing
            .phases
            .iter()
            .flat_map(|p| {
                p.as_slice()
                    .iter()
                    .enumerate()
                    .filter_map(|(s, d)| d.map(|dd| (s, dd)))
            })
            .collect();
        served.sort_unstable();
        let mut expect: Vec<(usize, usize)> = total_exchange_relation(6).requests().to_vec();
        expect.sort_unstable();
        assert_eq!(served, expect);
    }

    #[test]
    fn phases_execute_on_the_simulator() {
        let topology = PopsTopology::new(2, 2);
        let routing = route_total_exchange(topology);
        let per_phase = routing.slots_per_phase;
        for (idx, phase) in routing.phases.iter().enumerate() {
            let completed = phase.complete();
            let mut sim = Simulator::with_unit_packets(topology);
            for frame in &routing.schedule.slots[idx * per_phase..(idx + 1) * per_phase] {
                sim.execute_frame(frame).unwrap();
            }
            sim.verify_delivery(completed.as_slice()).unwrap();
        }
    }
}
