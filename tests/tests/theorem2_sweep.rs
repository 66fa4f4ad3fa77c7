//! Integration sweep of Theorem 2 (experiment T1's backbone): random
//! permutations across a (d, g) grid, every schedule fully simulated and
//! verified, slot count checked against the paper's formula.

use pops_bipartite::ColorerKind;
use pops_core::verify::route_and_verify;
use pops_core::{theorem2_slots, FairDistribution, ListSystem};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;

#[test]
fn sweep_small_grid_exact_slot_counts() {
    let mut rng = SplitMix64::new(1000);
    for d in 1..=8usize {
        for g in 1..=8usize {
            for _ in 0..3 {
                let pi = random_permutation(d * g, &mut rng);
                let v = route_and_verify(&pi, d, g).unwrap_or_else(|e| panic!("d={d} g={g}: {e}"));
                assert_eq!(v.slots, theorem2_slots(d, g), "d={d} g={g}");
                assert!(v.storage_invariant_held, "d={d} g={g}");
                assert!(v.lower_bound <= v.slots, "d={d} g={g}");
            }
        }
    }
}

#[test]
fn sweep_medium_square_shapes() {
    let mut rng = SplitMix64::new(1001);
    for s in [12usize, 16, 20] {
        let pi = random_permutation(s * s, &mut rng);
        let v = route_and_verify(&pi, s, s).unwrap();
        assert_eq!(v.slots, 2);
    }
}

#[test]
fn sweep_extreme_aspect_ratios() {
    let mut rng = SplitMix64::new(1002);
    // Tall: few big groups. Flat: many unit groups.
    for (d, g) in [(32usize, 2usize), (48, 3), (2, 32), (1, 64), (64, 1)] {
        let pi = random_permutation(d * g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap_or_else(|e| panic!("d={d} g={g}: {e}"));
        assert_eq!(v.slots, theorem2_slots(d, g), "d={d} g={g}");
    }
}

#[test]
fn all_three_coloring_engines_agree_on_slot_count() {
    // Remark 1: the construction spends two slots per block of g targets a
    // fair distribution uses, so every colourer's fair distribution
    // implies the slot count of the kernel's routing.
    let mut rng = SplitMix64::new(1003);
    for (d, g) in [(3usize, 7usize), (7, 3), (6, 6)] {
        let pi = random_permutation(d * g, &mut rng);
        let ls = ListSystem::for_routing(&pi, d, g);
        let routed = route_and_verify(&pi, d, g).unwrap().slots;
        for kind in ColorerKind::ALL {
            let fd = FairDistribution::compute(&ls, kind);
            assert_eq!(fd.verify(&ls), Ok(()), "{}", kind.name());
            let targets_used = (0..g).flat_map(|h| fd.targets_of(h)).max().unwrap() + 1;
            assert_eq!(2 * targets_used.div_ceil(g), routed, "{}", kind.name());
        }
    }
}

#[test]
fn two_hop_routing_moves_each_packet_twice() {
    let mut rng = SplitMix64::new(1004);
    let (d, g) = (5usize, 5usize);
    let pi = random_permutation(d * g, &mut rng);
    let v = route_and_verify(&pi, d, g).unwrap();
    assert_eq!(v.stats.total_deliveries, 2 * d * g);
    // Peak coupler usage can never exceed g^2.
    assert!(v.stats.peak_couplers_used <= g * g);
}
