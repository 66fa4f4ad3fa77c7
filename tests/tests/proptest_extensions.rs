//! Property-based tests for the extension layer: h-relations, schedule
//! compression, and the data-parallel algorithms.

use proptest::prelude::*;

use pops_core::compress::compress_schedule;
use pops_core::h_relation::{route_h_relation, HRelation};
use pops_core::theorem2_slots;
use pops_network::{PopsTopology, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;

fn shapes() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=8, 1usize..=8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn h_relations_decompose_and_route((d, g) in shapes(), h in 1usize..5, seed in any::<u64>()) {
        let n = d * g;
        let mut rng = SplitMix64::new(seed);
        let mut requests = Vec::new();
        for _ in 0..h {
            let p = random_permutation(n, &mut rng);
            requests.extend((0..n).map(|s| (s, p.apply(s))));
        }
        let relation = HRelation::new(n, requests).unwrap();
        prop_assert!(relation.h() <= h);
        let topology = PopsTopology::new(d, g);
        let routing = route_h_relation(&relation, topology);
        prop_assert!(routing.phases.len() <= h);
        prop_assert_eq!(
            routing.schedule.slot_count(),
            routing.phases.len() * theorem2_slots(d, g)
        );
        // Union of phases == request multiset.
        let mut served: Vec<(usize, usize)> = routing
            .phases
            .iter()
            .flat_map(|p| {
                p.as_slice()
                    .iter()
                    .enumerate()
                    .filter_map(|(s, dst)| dst.map(|dd| (s, dd)))
            })
            .collect();
        let mut expect = relation.requests().to_vec();
        served.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(served, expect);
    }

    #[test]
    fn sparse_random_relations_route((d, g) in shapes(), m in 0usize..40, seed in any::<u64>()) {
        // Arbitrary request multiset (duplicates allowed!): h = max degree.
        let n = d * g;
        let mut rng = SplitMix64::new(seed);
        let requests: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.next_below(n), rng.next_below(n)))
            .collect();
        let relation = HRelation::new(n, requests).unwrap();
        let h = relation.h();
        let topology = PopsTopology::new(d, g);
        let routing = route_h_relation(&relation, topology);
        prop_assert_eq!(routing.phases.len(), h);
        // Each phase block executes and delivers its completion.
        for (idx, phase) in routing.phases.iter().enumerate() {
            let completed = phase.complete();
            let mut sim = Simulator::with_unit_packets(topology);
            let per = routing.slots_per_phase;
            for frame in &routing.schedule.slots[idx * per..(idx + 1) * per] {
                sim.execute_frame(frame).map_err(|e| {
                    TestCaseError::fail(format!("phase {idx}: {e}"))
                })?;
            }
            prop_assert!(sim.verify_delivery(completed.as_slice()).is_ok());
        }
    }

    #[test]
    fn compression_is_sound_and_monotone((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let topology = PopsTopology::new(d, g);
        let plan = pops_core::route(&pi, topology);
        let compressed = compress_schedule(&plan.schedule);
        prop_assert!(compressed.slot_count() <= plan.schedule.slot_count());
        // Idempotent.
        let twice = compress_schedule(&compressed);
        prop_assert_eq!(twice.slot_count(), compressed.slot_count());
        // Sound.
        let mut sim = Simulator::with_unit_packets(topology);
        prop_assert!(sim.execute_schedule(&compressed).is_ok());
        prop_assert!(sim.verify_delivery(pi.as_slice()).is_ok());
    }

    #[test]
    fn window_sum_matches_reference((d, g) in shapes(), seed in any::<u64>()) {
        let n = d * g;
        let mut rng = SplitMix64::new(seed);
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64() % 1000).collect();
        let w = 1 + rng.next_below(n);
        let (sums, _) =
            pops_algorithms::window::window_sum(PopsTopology::new(d, g), &values, w).unwrap();
        for j in 0..n {
            let expect: u64 = (0..w).map(|k| values[(j + n - k) % n]).sum();
            prop_assert_eq!(sums[j], expect);
        }
    }

    #[test]
    fn bitonic_sort_sorts(dims in 0u32..7, seed in any::<u64>(), d_choice in 0usize..3) {
        let n = 1usize << dims;
        let d = match d_choice {
            0 => 1usize,
            1 => 1usize << (dims / 2),
            _ => n,
        };
        let g = n / d;
        let mut rng = SplitMix64::new(seed);
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64() % 256).collect();
        let (sorted, slots) =
            pops_algorithms::sort::bitonic_sort(PopsTopology::new(d, g), &values).unwrap();
        let mut expect = values;
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
        let dd = dims as usize;
        prop_assert_eq!(slots, dd * (dd + 1) / 2 * theorem2_slots(d, g));
    }

    #[test]
    fn reductions_and_scans_agree(dims in 1u32..6, seed in any::<u64>(), d_choice in 0usize..3) {
        // n = 2^dims split into one of up to three (d, g) factorizations.
        let n = 1usize << dims;
        let d = match d_choice {
            0 => 1usize,
            1 => 1usize << (dims / 2),
            _ => n,
        };
        let g = n / d;
        let mut rng = SplitMix64::new(seed);
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64() % 10_000).collect();
        let topology = PopsTopology::new(d, g);
        let mut m = pops_algorithms::ValueMachine::new(topology, values.clone());
        let (total, _) = pops_algorithms::reduce::data_sum(&mut m).unwrap();
        let (prefixes, _) = pops_algorithms::scan::prefix_sum(topology, &values).unwrap();
        prop_assert_eq!(total, values.iter().sum::<u64>());
        prop_assert_eq!(prefixes[n - 1], total);
    }
}
