//! Larger-scale stress tests: the router and simulator at thousands of
//! processors, all three colouring engines, awkward aspect ratios.

use pops_bipartite::ColorerKind;
use pops_core::verify::route_and_verify;
use pops_core::{theorem2_slots, FairDistribution, ListSystem};
use pops_permutation::families::{random_derangement, random_permutation};
use pops_permutation::SplitMix64;

#[test]
fn thousand_processor_networks() {
    let mut rng = SplitMix64::new(9000);
    for (d, g) in [(32usize, 32usize), (16, 64), (64, 16), (128, 8), (8, 128)] {
        let pi = random_permutation(d * g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap_or_else(|e| panic!("d={d} g={g}: {e}"));
        assert_eq!(v.slots, theorem2_slots(d, g), "d={d} g={g}");
        assert!(v.storage_invariant_held);
    }
}

#[test]
fn four_thousand_processors_square() {
    let mut rng = SplitMix64::new(9001);
    let pi = random_permutation(64 * 64, &mut rng);
    let v = route_and_verify(&pi, 64, 64).unwrap();
    assert_eq!(v.slots, 2);
    assert_eq!(v.stats.total_deliveries, 2 * 64 * 64);
}

#[test]
fn all_engines_at_scale() {
    // Remark 1 at scale: every colourer's Theorem-1 construction is a fair
    // distribution, and the kernel's routing takes the paper's two slots.
    let mut rng = SplitMix64::new(9002);
    let (d, g) = (24usize, 40usize);
    let pi = random_derangement(d * g, &mut rng);
    let ls = ListSystem::for_routing(&pi, d, g);
    for kind in ColorerKind::ALL {
        FairDistribution::compute(&ls, kind)
            .verify(&ls)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
    let v = route_and_verify(&pi, d, g).unwrap();
    assert_eq!(v.slots, 2);
    assert!(v.lower_bound <= v.slots);
}

#[test]
fn deep_multi_round_case() {
    // d = 40g: 40 rounds of two slots.
    let mut rng = SplitMix64::new(9003);
    let (d, g) = (120usize, 3usize);
    let pi = random_permutation(d * g, &mut rng);
    let v = route_and_verify(&pi, d, g).unwrap();
    assert_eq!(v.slots, 80);
    assert!(v.storage_invariant_held);
}

#[test]
fn prime_sized_networks() {
    // Primes exercise the padding paths (no divisibility luck anywhere).
    let mut rng = SplitMix64::new(9004);
    for (d, g) in [(7usize, 11usize), (11, 7), (13, 13), (17, 5), (5, 17)] {
        let pi = random_permutation(d * g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap_or_else(|e| panic!("d={d} g={g}: {e}"));
        assert_eq!(v.slots, theorem2_slots(d, g), "d={d} g={g}");
    }
}
