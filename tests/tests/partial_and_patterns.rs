//! Integration tests for partial permutation routing (via completion) and
//! the §1 communication patterns.

use pops_core::router::route;
use pops_network::patterns::{one_to_all, point_to_point};
use pops_network::{PopsTopology, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::{PartialPermutation, SplitMix64};

#[test]
fn partial_permutation_routes_via_completion() {
    let mut rng = SplitMix64::new(4000);
    let (d, g) = (4usize, 4usize);
    let n = d * g;
    let t = PopsTopology::new(d, g);

    let full = random_permutation(n, &mut rng);
    let keep: Vec<usize> = (0..n).step_by(3).collect();
    let partial = PartialPermutation::restriction(&full, keep.iter().copied());
    let completed = partial.complete();

    // Route the completion; the filler packets ride along harmlessly.
    let plan = route(&completed, t);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(&plan.schedule).unwrap();
    sim.verify_delivery(completed.as_slice()).unwrap();

    // Every real packet ended at its partial destination.
    for &i in &keep {
        assert_eq!(sim.holders_of(i), &[full.apply(i)]);
    }
}

#[test]
fn sparse_partial_still_two_slots() {
    // Even a single moving packet pays the general router's 2⌈d/g⌉ —
    // (the single-slot fast path exists separately; see
    // pops_core::single_slot).
    let (d, g) = (3usize, 3usize);
    let t = PopsTopology::new(d, g);
    let mut image = vec![None; 9];
    image[0] = Some(8);
    image[8] = Some(0);
    let partial = PartialPermutation::new(image).unwrap();
    let completed = partial.complete();
    let plan = route(&completed, t);
    assert_eq!(plan.schedule.slot_count(), 2);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(&plan.schedule).unwrap();
    assert_eq!(sim.holders_of(0), &[8]);
    assert_eq!(sim.holders_of(8), &[0]);
}

#[test]
fn one_to_all_then_permutation() {
    // Compose patterns: broadcast a value, then permute — a miniature of
    // how POPS algorithms (prefix sums, matrix ops) chain primitives.
    let (d, g) = (3usize, 3usize);
    let t = PopsTopology::new(d, g);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_frame(&one_to_all(&t, 4, 4)).unwrap();
    assert_eq!(sim.holders_of(4).len(), 9);
    // Every processor now also still holds its own packet (except 4, which
    // re-received its own broadcast).
    for p in 0..9 {
        assert!(sim.packets_at(p).contains(&4));
    }
}

#[test]
fn point_to_point_chains() {
    let t = PopsTopology::new(2, 3);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_frame(&point_to_point(&t, 0, 5, 0)).unwrap();
    sim.execute_frame(&point_to_point(&t, 5, 3, 0)).unwrap();
    assert_eq!(sim.holders_of(0), &[3]);
    assert_eq!(sim.slots_elapsed(), 2);
}
