//! Integration tests for the extension layer: h-relations, schedule
//! compression, parallel batch routing, and the data-parallel algorithm
//! crate — all built on (and validating) the core Theorem-2 router.

use pops_algorithms::matmul::{cannon_multiply, TorusMatrix};
use pops_algorithms::reduce::data_sum;
use pops_algorithms::scan::prefix_sum;
use pops_algorithms::ValueMachine;
use pops_core::compress::compress_schedule;
use pops_core::h_relation::{route_h_relation, HRelation};
use pops_core::parallel::route_batch_with;
use pops_core::theorem2_slots;
use pops_network::{PopsTopology, Simulator};
use pops_permutation::families::{hypercube::all_exchanges, random_permutation};
use pops_permutation::SplitMix64;

#[test]
fn h_relation_total_slots_formula() {
    let mut rng = SplitMix64::new(7000);
    for (d, g, h) in [(2usize, 4usize, 3usize), (4, 4, 2), (6, 2, 4), (1, 8, 5)] {
        let n = d * g;
        let mut requests = Vec::new();
        for _ in 0..h {
            let p = random_permutation(n, &mut rng);
            requests.extend((0..n).map(|s| (s, p.apply(s))));
        }
        let relation = HRelation::new(n, requests).unwrap();
        let routing = route_h_relation(&relation, PopsTopology::new(d, g));
        assert_eq!(
            routing.schedule.slot_count(),
            h * theorem2_slots(d, g),
            "d={d} g={g} h={h}"
        );
    }
}

#[test]
fn compressed_schedules_stay_valid_across_shapes() {
    let mut rng = SplitMix64::new(7001);
    for (d, g) in [(2usize, 2usize), (3, 5), (5, 3), (8, 2), (2, 8), (6, 6)] {
        let pi = random_permutation(d * g, &mut rng);
        let topology = PopsTopology::new(d, g);
        let plan = pops_core::route(&pi, topology);
        let compressed = compress_schedule(&plan.schedule);
        assert!(compressed.slot_count() <= plan.schedule.slot_count());
        let mut sim = Simulator::with_unit_packets(topology);
        sim.execute_schedule(&compressed)
            .unwrap_or_else(|(i, e)| panic!("d={d} g={g} slot {i}: {e}"));
        sim.verify_delivery(pi.as_slice()).unwrap();
    }
}

#[test]
fn compression_cannot_beat_the_lower_bound() {
    // Compression preserves hop paths, so it can never go below the
    // Proposition bounds either.
    let mut rng = SplitMix64::new(7002);
    let (d, g) = (6usize, 3usize);
    let pi = pops_permutation::families::random_group_deranged(d, g, &mut rng);
    let plan = pops_core::route(&pi, PopsTopology::new(d, g));
    let compressed = compress_schedule(&plan.schedule);
    assert!(compressed.slot_count() >= pops_core::lower_bound(&pi, d, g));
}

#[test]
fn batch_routing_a_hypercube_round() {
    // The batch API routes a whole hypercube simulation round in parallel;
    // plans must equal the sequential ones (determinism) and all verify.
    let dims = 5u32;
    let (d, g) = (4usize, 8usize);
    let topology = PopsTopology::new(d, g);
    let steps = all_exchanges(dims);
    let plans = route_batch_with(&steps, topology, None, true);
    assert_eq!(plans.len(), dims as usize);
    for (pi, plan) in steps.iter().zip(&plans) {
        let mut sim = Simulator::with_unit_packets(topology);
        sim.execute_schedule(&plan.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
    }
}

#[test]
fn algorithms_compose_end_to_end() {
    // prefix_sum of all-ones == ramp; its data_sum == n(n+1)/2; checks two
    // algorithm layers chained through the same machinery.
    let (d, g) = (4usize, 8usize);
    let n = d * g;
    let topology = PopsTopology::new(d, g);
    let (ramp, _) = prefix_sum(topology, &vec![1u64; n]).unwrap();
    assert_eq!(ramp, (1..=n as u64).collect::<Vec<_>>());
    let mut machine = ValueMachine::new(topology, ramp);
    let (total, _) = data_sum(&mut machine).unwrap();
    assert_eq!(total, (n as u64) * (n as u64 + 1) / 2);
}

#[test]
fn cannon_on_rectangular_pops_shapes() {
    let mut rng = SplitMix64::new(7003);
    let m = 6usize;
    let a = TorusMatrix::from_fn(m, |_, _| (rng.next_u64() % 7) as i64);
    let b = TorusMatrix::from_fn(m, |_, _| (rng.next_u64() % 7) as i64);
    let expect = a.multiply_direct(&b);
    for (d, g) in [(6usize, 6usize), (4, 9), (9, 4), (12, 3), (3, 12), (2, 18)] {
        let result = cannon_multiply(&a, &b, PopsTopology::new(d, g)).unwrap();
        assert_eq!(result.product, expect, "d={d} g={g}");
        assert_eq!(result.slots, 2 * m * theorem2_slots(d, g), "d={d} g={g}");
    }
}

#[test]
fn machine_slot_accounting_matches_simulator_histories() {
    // ValueMachine charges exactly the slots the simulator executed.
    let (d, g) = (3usize, 4usize);
    let topology = PopsTopology::new(d, g);
    let mut rng = SplitMix64::new(7004);
    let mut machine = ValueMachine::new(topology, (0..12u64).collect());
    for _ in 0..4 {
        let pi = random_permutation(12, &mut rng);
        machine.permute(&pi).unwrap();
    }
    assert_eq!(machine.slots_used(), 4 * theorem2_slots(d, g));
}
