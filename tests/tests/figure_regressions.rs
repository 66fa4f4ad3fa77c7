//! Regression tests pinning the three figures of the paper (experiments
//! F1–F3): the exact scenarios of the figures, reproduced end to end.

use pops_bipartite::ColorerKind;
use pops_core::fair_distribution::FairDistribution;
use pops_core::list_system::ListSystem;
use pops_core::router::route;
use pops_core::single_slot::is_single_slot_routable;
use pops_network::patterns::one_to_all;
use pops_network::{PopsTopology, Simulator};
use pops_permutation::Permutation;

/// Figure 1: a 4×4 OPS coupler broadcasts one source to all four
/// destinations in a single slot.
#[test]
fn figure1_ops_coupler_broadcast() {
    let t = PopsTopology::new(4, 1);
    assert_eq!(t.coupler_count(), 1);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_frame(&one_to_all(&t, 2, 2)).unwrap();
    assert_eq!(sim.holders_of(2).len(), 4);
    assert_eq!(sim.slots_elapsed(), 1);
}

/// Figure 2: the POPS(3, 2) wiring — 6 processors, 4 couplers, and every
/// processor reaches every other through exactly one coupler.
#[test]
fn figure2_pops_3_2_wiring() {
    let t = PopsTopology::new(3, 2);
    assert_eq!(t.n(), 6);
    assert_eq!(t.coupler_count(), 4);
    for src in 0..6 {
        assert_eq!(t.transmitters_of(src).count(), 2);
        assert_eq!(t.receivers_of(src).count(), 2);
        for dst in 0..6 {
            // Exactly one coupler joins src to dst (diameter 1).
            let joining: Vec<_> = (0..t.coupler_count())
                .filter(|&c| {
                    t.coupler_src_group(c) == t.group_of(src)
                        && t.coupler_dest_group(c) == t.group_of(dst)
                })
                .collect();
            assert_eq!(joining.len(), 1);
            assert_eq!(joining[0], t.coupler_between(src, dst));
        }
    }
}

/// The Figure-3 permutation of the paper, read off the drawing.
fn figure3_permutation() -> Permutation {
    Permutation::new(vec![5, 1, 7, 2, 0, 6, 3, 8, 4]).unwrap()
}

/// Figure 3 / §3: the permutation is NOT single-slot routable — packets of
/// processors 4 and 5 (both group 1) target group 0, conflicting on
/// coupler c(0, 1).
#[test]
fn figure3_unavoidable_conflict() {
    let pi = figure3_permutation();
    let t = PopsTopology::new(3, 3);
    assert!(!is_single_slot_routable(&pi, &t));
    assert_eq!(pi.demand_matrix(3)[1][0], 2);
}

/// Figure 3: the full two-slot routing, with the intermediate placement
/// actually *fairly distributed* — no two packets sharing a destination
/// group sit in the same group, and each processor holds exactly one
/// packet.
#[test]
fn figure3_two_slot_routing_with_fair_intermediate() {
    let pi = figure3_permutation();
    let t = PopsTopology::new(3, 3);
    let plan = route(&pi, t);
    assert_eq!(plan.schedule.slot_count(), 2);

    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_frame(&plan.schedule.slots[0]).unwrap();

    // Exactly one packet per processor after slot 1.
    for p in 0..9 {
        assert_eq!(sim.packets_at(p).len(), 1, "processor {p}");
    }
    // Fairness: within each group, destination groups are pairwise
    // distinct.
    for grp in 0..3 {
        let mut dest_groups: Vec<usize> = t
            .processors_of(grp)
            .map(|p| t.group_of(pi.apply(sim.packets_at(p)[0])))
            .collect();
        dest_groups.sort_unstable();
        dest_groups.dedup();
        assert_eq!(dest_groups.len(), 3, "group {grp} not fair");
    }

    sim.execute_frame(&plan.schedule.slots[1]).unwrap();
    sim.verify_delivery(pi.as_slice()).unwrap();
}

/// The fair distribution of the Figure-3 instance satisfies equations
/// (1)–(3) under every colouring engine.
#[test]
fn figure3_fair_distribution_all_engines() {
    let pi = figure3_permutation();
    let ls = ListSystem::for_routing(&pi, 3, 3);
    for kind in ColorerKind::ALL {
        let fd = FairDistribution::compute(&ls, kind);
        fd.verify(&ls)
            .unwrap_or_else(|v| panic!("{}: {v}", kind.name()));
    }
}

/// The paper's §3 opening example: d = g = √n, two packets from group 1
/// (processors 4, 5) both target group 0 ⇒ two slots necessary; Theorem 2
/// achieves exactly two.
#[test]
fn figure3_two_slots_is_optimal_here() {
    let pi = figure3_permutation();
    // Any permutation needing more than one slot needs at least 2; Theorem
    // 2 delivers in exactly 2 — optimal for this instance.
    let v = pops_core::verify::route_and_verify(&pi, 3, 3).unwrap();
    assert_eq!(v.slots, 2);
}
