//! Cross-crate integration tests for the collective patterns (T11), the
//! fault-aware router (T10), and the exact-optimum search (T12) — every
//! schedule refereed by the machine-model simulator.

use pops_collectives::{cost, movement, CollectiveEngine};
use pops_core::fault_routing::{route_greedy, route_with_faults};
use pops_core::optimal::min_slots_two_hop;
use pops_core::{lower_bound, theorem2_slots};
use pops_network::{FaultSet, PopsTopology, Simulator};
use pops_permutation::families::{group_rotation, random_permutation};
use pops_permutation::{permutations_of, SplitMix64};

// ---------------------------------------------------------------- T11 --

#[test]
fn collectives_compose_into_a_full_workflow() {
    // broadcast → scatter → gather → all-gather → all-to-all → barrier on
    // one engine; the slot bill must equal the sum of the cost model.
    let t = PopsTopology::new(2, 3);
    let n = t.n();
    let mut eng = CollectiveEngine::new(t);
    eng.broadcast(0, 7u32).unwrap();
    eng.scatter(1, (0..n as u32).collect()).unwrap();
    eng.gather(2, (0..n as u32).collect()).unwrap();
    eng.all_gather((0..n as u32).collect()).unwrap();
    eng.all_to_all(vec![vec![0u32; n]; n]).unwrap();
    eng.barrier(3).unwrap();
    let expected = cost::broadcast_slots(&t)
        + cost::scatter_slots(&t)
        + cost::gather_slots(&t)
        + cost::all_gather_slots(&t)
        + cost::all_to_all_slots(&t)
        + cost::barrier_slots(&t);
    assert_eq!(eng.slots_used(), expected);
}

#[test]
fn collective_schedules_are_fault_sensitive() {
    // A scatter whose root group lost a coupler must be rejected by the
    // fault-injected simulator — collectives assume a healthy network.
    let t = PopsTopology::new(2, 2);
    let schedule = movement::scatter(&t, 0);
    let mut faults = FaultSet::none(&t);
    faults.fail_group_pair(&t, 1, 0);
    let sim = Simulator::with_unit_packets_and_faults(t, faults);
    // Re-seed the placement: all packets at the root.
    let mut sim_all_at_root = Simulator::with_placement(t, &vec![0; t.n()]);
    sim_all_at_root.inject_faults(sim.faults().clone());
    let err = sim_all_at_root.execute_schedule(&schedule);
    assert!(err.is_err(), "scatter through a dead coupler must fail");
}

#[test]
fn scatter_gather_round_trip_preserves_data() {
    for (d, g) in [(1usize, 4usize), (3, 2), (2, 4)] {
        let t = PopsTopology::new(d, g);
        let n = t.n();
        let mut eng = CollectiveEngine::new(t);
        let data: Vec<u64> = (0..n as u64).map(|x| x * x + 1).collect();
        let spread = eng.scatter(0, data.clone()).unwrap();
        let back = eng.gather(0, spread).unwrap();
        assert_eq!(back, data, "POPS({d}, {g})");
    }
}

#[test]
fn all_to_all_equals_h_relation_total_cost() {
    // The rotation-based all-to-all and the König h-relation route the
    // same (n−1)-relation for the same total slots.
    let t = PopsTopology::new(2, 3);
    let n = t.n();
    let plan = movement::all_to_all_personalized(&t);
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    let rel = pops_core::HRelation::new(n, pairs).unwrap();
    let hr = pops_core::route_h_relation(&rel, t);
    assert_eq!(plan.total_slots(), hr.schedule.slot_count());
}

// ---------------------------------------------------------------- T10 --

#[test]
fn greedy_router_matches_or_beats_d_slots_on_rotations() {
    // Greedy serializes final hops on concentrated demand: exactly d
    // slots on a group rotation (all direct), vs Theorem 2's 2⌈d/g⌉.
    for (d, g) in [(4usize, 4usize), (6, 3), (8, 2)] {
        let t = PopsTopology::new(d, g);
        let pi = group_rotation(d, g, 1);
        let routing = route_greedy(&pi, t);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&routing.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        assert_eq!(routing.slots(), d, "POPS({d}, {g})");
    }
}

#[test]
fn fault_routing_beats_dead_network_detection_end_to_end() {
    // Progressive degradation on POPS(2, 3): keep failing couplers; while
    // `fully_routable` holds, routing must succeed and verify; once it
    // breaks, routing must report disconnection for some permutation.
    let t = PopsTopology::new(2, 3);
    let mut rng = SplitMix64::new(42);
    let mut faults = FaultSet::none(&t);
    for c in 0..t.coupler_count() {
        faults.fail_coupler(c);
        let pi = random_permutation(t.n(), &mut rng);
        match route_with_faults(&pi, t, &faults) {
            Ok(routing) => {
                assert!(faults.fully_routable(&t) || pi_avoids_dead_pairs(&pi, &t, &faults));
                let mut sim = Simulator::with_unit_packets_and_faults(t, faults.clone());
                sim.execute_schedule(&routing.schedule).unwrap();
                sim.verify_delivery(pi.as_slice()).unwrap();
            }
            Err(_) => {
                assert!(!faults.fully_routable(&t));
            }
        }
    }
}

fn pi_avoids_dead_pairs(
    pi: &pops_permutation::Permutation,
    t: &PopsTopology,
    faults: &FaultSet,
) -> bool {
    let dist = faults.group_distances(t);
    (0..t.n()).all(|i| {
        let (a, b) = (t.group_of(i), t.group_of(pi.apply(i)));
        if i == pi.apply(i) {
            true
        } else if a != b {
            dist[a][b] != pops_network::fault::UNREACHABLE
        } else {
            faults.group_distance_ge1(t, &dist, a, b) != pops_network::fault::UNREACHABLE
        }
    })
}

#[test]
fn single_coupler_failures_cost_at_most_a_few_extra_slots() {
    // One dead coupler on POPS(3, 3): greedy reroutes with ≤ 2 extra
    // slots over its healthy cost across random permutations.
    let t = PopsTopology::new(3, 3);
    let mut rng = SplitMix64::new(77);
    for c in [0usize, 4, 8] {
        let mut faults = FaultSet::none(&t);
        faults.fail_coupler(c);
        assert!(faults.fully_routable(&t));
        for _ in 0..5 {
            let pi = random_permutation(t.n(), &mut rng);
            let healthy = route_greedy(&pi, t).slots();
            let degraded = route_with_faults(&pi, t, &faults).unwrap();
            let mut sim = Simulator::with_unit_packets_and_faults(t, faults.clone());
            sim.execute_schedule(&degraded.schedule).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
            assert!(
                degraded.slots() <= healthy + 4,
                "coupler {c}: {} vs healthy {}",
                degraded.slots(),
                healthy
            );
        }
    }
}

// ---------------------------------------------------------------- T12 --

#[test]
fn exact_optimum_never_below_lower_bound_nor_above_theorem2() {
    let budget = 20_000_000;
    for (d, g) in [(2usize, 2usize), (3, 2), (2, 3)] {
        let t = PopsTopology::new(d, g);
        for pi in permutations_of(d * g) {
            let out = min_slots_two_hop(&pi, t, budget);
            let opt = out.slots.expect("tiny shapes fit the budget");
            assert!(opt >= lower_bound(&pi, d, g), "π = {:?}", pi.as_slice());
            if !pi.is_identity() {
                assert!(opt <= theorem2_slots(d, g), "π = {:?}", pi.as_slice());
            }
        }
    }
}

#[test]
fn search_agrees_with_single_slot_characterization_exhaustively() {
    // The Gravenstreter–Melhem one-slot criterion and the exact search's
    // t = 1 decision coincide on every permutation of two 6-processor
    // shapes (the unit suite covers POPS(2, 2)).
    use pops_core::{is_single_slot_routable, routable_in};
    for (d, g) in [(2usize, 3usize), (3, 2)] {
        let t = PopsTopology::new(d, g);
        for pi in permutations_of(d * g) {
            let (verdict, _) = routable_in(&pi, t, 1, 1_000_000);
            assert_eq!(
                verdict,
                Some(is_single_slot_routable(&pi, &t)),
                "POPS({d},{g}) π = {:?}",
                pi.as_slice()
            );
        }
    }
}

#[test]
fn no_permutation_on_pops_3_2_needs_four_slots() {
    // The sharpened version of the Prop-2 finding: Theorem 2 spends
    // 2⌈3/2⌉ = 4 on POPS(3, 2), but the exhaustive search shows every
    // one of the 720 permutations routes in ≤ 3 slots.
    let t = PopsTopology::new(3, 2);
    let budget = 20_000_000;
    let max = permutations_of(6)
        .map(|pi| min_slots_two_hop(&pi, t, budget).slots.unwrap())
        .max()
        .unwrap();
    assert_eq!(max, 3);
}
