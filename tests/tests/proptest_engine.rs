//! Property tests of the unified routing engine: a warm engine reused
//! across many permutations must never leak state between plans — every
//! plan equals a fresh engine's, every fair distribution verifies, and the
//! legacy wrappers stay byte-identical.

use proptest::prelude::*;

use pops_core::engine::RoutingEngine;
use pops_core::fair_distribution::FairDistribution;
use pops_core::list_system::ListSystem;
use pops_core::router::route;
use pops_core::theorem2_slots;
use pops_core::verify::execute_plan;
use pops_network::PopsTopology;
use pops_permutation::families::{random_group_uniform, random_permutation};
use pops_permutation::SplitMix64;

/// Strategy: plausible (d, g) shapes with n = d·g ≤ 144.
fn shapes() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=12, 1usize..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_reuse_never_leaks_state((d, g) in shapes(), seed in any::<u64>()) {
        let t = PopsTopology::new(d, g);
        let mut warm = RoutingEngine::new(t).emit_artefacts(true);
        let mut rng = SplitMix64::new(seed);
        // A mixed diet of permutations through one warm engine.
        for round in 0..6 {
            let pi = if round % 2 == 0 {
                random_permutation(d * g, &mut rng)
            } else {
                random_group_uniform(d, g, &mut rng)
            };
            let warm_plan = warm.plan_theorem2(&pi);
            let fresh_plan = RoutingEngine::new(t)
                .emit_artefacts(true)
                .plan_theorem2(&pi);
            prop_assert_eq!(&warm_plan.schedule, &fresh_plan.schedule);
            prop_assert_eq!(&warm_plan.intermediate, &fresh_plan.intermediate);
            prop_assert_eq!(&warm_plan.fair_distribution, &fresh_plan.fair_distribution);
            // And the plan actually routes: simulate + verify delivery.
            let verdict = execute_plan(&pi, warm_plan).unwrap();
            prop_assert_eq!(verdict.slots, theorem2_slots(d, g));
        }
    }

    #[test]
    fn warm_fair_distributions_always_verify((d, g) in shapes(), seed in any::<u64>()) {
        prop_assume!(d > 1);
        let t = PopsTopology::new(d, g);
        let mut engine = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..4 {
            let pi = random_permutation(d * g, &mut rng);
            let ls = ListSystem::for_routing(&pi, d, g);
            let targets = engine.fair_distribution_targets(&pi).to_vec();
            let assignments: Vec<Vec<usize>> =
                (0..g).map(|h| targets[h * d..(h + 1) * d].to_vec()).collect();
            let fd = FairDistribution::from_assignments(g.max(d), assignments);
            prop_assert_eq!(fd.verify(&ls), Ok(()));
        }
    }

    #[test]
    fn legacy_wrapper_equals_engine((d, g) in shapes(), seed in any::<u64>()) {
        let t = PopsTopology::new(d, g);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let wrapper = route(&pi, t);
        let engine = RoutingEngine::new(t)
            .emit_artefacts(true)
            .plan_theorem2(&pi);
        prop_assert_eq!(wrapper.schedule, engine.schedule);
        prop_assert_eq!(wrapper.intermediate, engine.intermediate);
    }
}
