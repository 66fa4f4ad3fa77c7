//! Property-based tests of the routing stack: for arbitrary shapes, seeds,
//! and permutation families, Theorem 2's guarantees must hold exactly.

use proptest::prelude::*;

use pops_bipartite::ColorerKind;
use pops_core::fair_distribution::FairDistribution;
use pops_core::list_system::ListSystem;
use pops_core::theorem2_slots;
use pops_core::verify::route_and_verify;
use pops_permutation::families::{
    random_derangement, random_group_deranged, random_group_uniform, random_permutation,
};
use pops_permutation::SplitMix64;

/// Strategy: plausible (d, g) shapes with n = d·g ≤ 144.
fn shapes() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=12, 1usize..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem2_holds_for_random_permutations((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        prop_assert_eq!(v.slots, theorem2_slots(d, g));
        prop_assert!(v.storage_invariant_held);
        prop_assert!(v.lower_bound <= v.slots);
    }

    #[test]
    fn theorem2_holds_for_derangements((d, g) in shapes(), seed in any::<u64>()) {
        prop_assume!(d * g >= 2);
        let mut rng = SplitMix64::new(seed);
        let pi = random_derangement(d * g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        // Theorem 2 is within a factor 2 of Proposition 1 for derangements.
        prop_assert!(v.slots <= 2 * d.div_ceil(g).max(1));
        prop_assert!(v.lower_bound >= d.div_ceil(g));
    }

    #[test]
    fn theorem2_holds_for_group_structured((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_group_uniform(d, g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        prop_assert_eq!(v.slots, theorem2_slots(d, g));
    }

    #[test]
    fn prop2_families_bracket_their_lower_bound((d, g) in (1usize..=12, 2usize..=12), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_group_deranged(d, g, &mut rng);
        let v = route_and_verify(&pi, d, g).unwrap();
        // Corrected Prop 2 (see pops_core::bounds): the combined lower
        // bound reaches the achieved 2d/g exactly when g | d and the
        // stronger of Prop 2/Prop 3 attains it; for g ∤ d the paper's
        // stated equality is refuted (experiment T12), so the universal
        // guarantees are the bracket and the ≤ 1-round overshoot.
        prop_assert!(v.slots >= v.lower_bound);
        prop_assert!(v.slots <= theorem2_slots(d, g));
        if d > 1 && d % g == 0 && g == 2 {
            // Prop 2 = ⌈d/1⌉ = d = 2d/g: provably optimal here.
            prop_assert_eq!(v.slots, v.lower_bound);
        }
    }

    #[test]
    fn fair_distribution_conditions_hold((d, g) in shapes(), seed in any::<u64>(),
                                         engine_idx in 0usize..3) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let ls = ListSystem::for_routing(&pi, d, g);
        prop_assert!(ls.is_proper());
        let fd = FairDistribution::compute(&ls, ColorerKind::ALL[engine_idx]);
        prop_assert_eq!(fd.verify(&ls), Ok(()));
    }

    #[test]
    fn routing_is_deterministic((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng1 = SplitMix64::new(seed);
        let mut rng2 = SplitMix64::new(seed);
        let pi1 = random_permutation(d * g, &mut rng1);
        let pi2 = random_permutation(d * g, &mut rng2);
        prop_assert_eq!(&pi1, &pi2);
        let a = route_and_verify(&pi1, d, g).unwrap();
        let b = route_and_verify(&pi2, d, g).unwrap();
        prop_assert_eq!(a.plan.schedule, b.plan.schedule);
    }
}
