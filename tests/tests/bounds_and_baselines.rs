//! Integration tests of the lower bounds (Propositions 1–3) against the
//! routers, and of the baselines against the general router (experiments
//! T2 and T6).

use pops_baselines::{compare, direct_slots, route_direct};
use pops_core::bounds::{lower_bound, proposition1, proposition2, proposition3};
use pops_core::verify::route_and_verify;
use pops_network::{PopsTopology, Simulator};
use pops_permutation::families::{
    group_rotation, random_derangement, random_group_deranged, random_permutation, vector_reversal,
};
use pops_permutation::SplitMix64;

#[test]
fn no_router_ever_beats_a_lower_bound() {
    let mut rng = SplitMix64::new(3000);
    for (d, g) in [(2usize, 2usize), (3, 4), (6, 3), (8, 2), (4, 8)] {
        for _ in 0..5 {
            let pi = random_permutation(d * g, &mut rng);
            let bound = lower_bound(&pi, d, g);
            let c = compare(&pi, d, g);
            assert!(c.general_slots >= bound, "general d={d} g={g}");
            assert!(
                c.direct_slots >= bound.min(c.direct_slots),
                "direct d={d} g={g}"
            );
            // Direct is single-hop: it, too, respects the counting bound
            // when the permutation moves everything.
            if pi.is_derangement() {
                assert!(c.direct_slots >= d.div_ceil(g));
            }
        }
    }
}

#[test]
fn proposition2_families_are_routed_optimally_when_certified() {
    // On shapes where the corrected Prop 2 / Prop 3 bounds still reach
    // 2d/g (g = 2 with g | d via Prop 2; (8, 4) via Prop 3), Theorem 2 is
    // provably optimal on the group-deranged class. For g ∤ d the paper's
    // stated 2⌈d/g⌉ bound is refuted by exhaustive search (see
    // pops_core::bounds::proposition2 and experiment T12), so only the
    // bracket lower_bound ≤ slots ≤ 2⌈d/g⌉ is universal.
    let mut rng = SplitMix64::new(3001);
    for (d, g) in [(2usize, 2usize), (4, 2), (8, 2), (8, 4)] {
        let pi = random_group_deranged(d, g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        assert_eq!(v.slots, v.lower_bound, "d={d} g={g}: optimal on this class");
        assert_eq!(v.slots, 2 * d / g);
    }
    for (d, g) in [(3usize, 2usize), (9, 2), (7, 3), (9, 3)] {
        let pi = random_group_deranged(d, g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        assert!(v.slots >= v.lower_bound, "d={d} g={g}");
        assert_eq!(v.slots, 2 * d.div_ceil(g), "d={d} g={g}");
    }
}

#[test]
fn proposition_hierarchy() {
    // Props 2 and 3 are incomparable in general; all three are sound and
    // the combined bound is exactly their max on the group-deranged class.
    let mut rng = SplitMix64::new(3002);
    for (d, g) in [(4usize, 2usize), (6, 3), (12, 4)] {
        let pi = random_group_deranged(d, g, &mut rng);
        let p1 = proposition1(&pi, d, g).unwrap();
        let p2 = proposition2(&pi, d, g).unwrap();
        let p3 = proposition3(&pi, d, g).unwrap();
        assert!(p1 <= p2.max(p3));
        assert_eq!(lower_bound(&pi, d, g), p1.max(p2).max(p3));
    }
}

#[test]
fn derangements_within_factor_two_of_optimal() {
    // §3.3: for fixed-point-free π the routing uses at most double the
    // optimum.
    let mut rng = SplitMix64::new(3003);
    for (d, g) in [(2usize, 3usize), (5, 2), (7, 4), (10, 5)] {
        let pi = random_derangement(d * g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        assert!(v.slots <= 2 * v.lower_bound, "d={d} g={g}");
    }
}

#[test]
fn direct_routing_gap_grows_with_concentration() {
    // T6: on group rotations direct needs d slots, the two-hop router
    // 2⌈d/g⌉ — the two-hop advantage appears exactly when d > 2⌈d/g⌉.
    // (Note g = 2 is the break-even: 2⌈d/2⌉ = d, so direct ties there.)
    for (d, g) in [(8usize, 4usize), (12, 4), (16, 4), (9, 3)] {
        let pi = group_rotation(d, g, 1);
        let c = compare(&pi, d, g);
        assert_eq!(c.direct_slots, d);
        assert_eq!(c.general_slots, 2 * d.div_ceil(g));
        assert!(c.general_slots < c.direct_slots, "d={d} g={g}");
    }
}

#[test]
fn direct_routing_wins_when_demand_is_spread() {
    // Random permutations on shapes with d << g: direct demand is tiny.
    let mut rng = SplitMix64::new(3004);
    let (d, g) = (2usize, 16usize);
    let pi = random_permutation(d * g, &mut rng);
    let t = PopsTopology::new(d, g);
    // Direct slots = max demand entry, generally <= 2 here; the two-hop
    // router always pays 2.
    assert!(direct_slots(&pi, &t) <= 2);
}

#[test]
fn direct_schedule_executes_and_delivers() {
    let mut rng = SplitMix64::new(3005);
    for (d, g) in [(1usize, 9usize), (3, 3), (6, 2), (4, 5)] {
        let pi = random_permutation(d * g, &mut rng);
        let t = PopsTopology::new(d, g);
        let schedule = route_direct(&pi, &t);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        assert_eq!(schedule.slot_count(), direct_slots(&pi, &t));
    }
}

#[test]
fn reversal_bound_tightness_depends_on_g_parity() {
    // Even g: Prop 2 applies, bound = 2⌈d/g⌉, met exactly.
    let even = vector_reversal(16); // d=4, g=4
    assert_eq!(lower_bound(&even, 4, 4), 2);
    // Odd g: middle group fixed under the group map, Prop 2 fails, but
    // reversal still routes in 2⌈d/g⌉.
    let odd = vector_reversal(12); // d=4, g=3
    assert!(proposition2(&odd, 4, 3).is_none());
    let v = route_and_verify(&odd, 4, 3).unwrap();
    assert_eq!(v.slots, 4);
}
