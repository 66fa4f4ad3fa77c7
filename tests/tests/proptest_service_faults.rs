//! Property tests of the fault-keyed cache layer: the fault-set
//! component of the canonical key is a normalized set (insertion order
//! and duplicates are identity-irrelevant), distinct fault sets never
//! collide with each other or with the healthy key, and an empty fault
//! set degenerates to the plain Theorem-2 engine.

use proptest::prelude::*;

use pops_network::{FaultSet, PopsTopology, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::{canonical_key, RoutingService, ServiceConfig, ServiceRequest};

/// Strategy: shapes with at least two groups (so faults can be routed
/// around) and n = d·g small enough to route quickly under faults.
fn shapes() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=4, 2usize..=5)
}

fn tiny_service(d: usize, g: usize) -> RoutingService {
    RoutingService::with_config(
        PopsTopology::new(d, g),
        ServiceConfig {
            shards: 1,
            cache_capacity: 8,
            max_in_flight: 2,
            ..ServiceConfig::default()
        },
    )
}

/// Draws `count` (not necessarily distinct) coupler ids from `rng`.
fn draw_ids(t: &PopsTopology, count: usize, rng: &mut SplitMix64) -> Vec<usize> {
    (0..count)
        .map(|_| (rng.next_u64() % t.coupler_count() as u64) as usize)
        .collect()
}

fn set_from(t: &PopsTopology, ids: &[usize]) -> FaultSet {
    let mut set = FaultSet::none(t);
    for &c in ids {
        set.fail_coupler(c);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn permuted_duplicated_fault_lists_share_a_key_and_hit(
        (d, g) in shapes(),
        seed in any::<u64>(),
        dup in 1usize..=3,
    ) {
        let t = PopsTopology::new(d, g);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let ids = draw_ids(&t, 1 + (seed as usize % 3), &mut rng);

        // The same set spelled in reverse with every id repeated `dup`
        // times: identical canonical key.
        let mut noisy: Vec<usize> = Vec::new();
        for &c in ids.iter().rev() {
            noisy.extend(std::iter::repeat_n(c, dup));
        }
        let faults = set_from(&t, &ids);
        let renamed = set_from(&t, &noisy);
        let key_a = canonical_key(d, g, &ServiceRequest::WithFaults { pi: pi.clone(), faults: faults.clone() });
        let key_b = canonical_key(d, g, &ServiceRequest::WithFaults { pi: pi.clone(), faults: renamed.clone() });
        prop_assert_eq!(&key_a, &key_b);

        // And the cache agrees — when the degraded fabric is routable at
        // all, the noisy spelling hits the first spelling's entry.
        prop_assume!(faults.fully_routable(&t));
        let service = tiny_service(d, g);
        let first = service
            .route(&ServiceRequest::WithFaults { pi: pi.clone(), faults })
            .unwrap();
        let second = service
            .route(&ServiceRequest::WithFaults { pi, faults: renamed })
            .unwrap();
        prop_assert!(!first.cache_hit);
        prop_assert!(second.cache_hit);
        prop_assert!(first.degraded && second.degraded);
    }

    #[test]
    fn differing_fault_sets_never_collide_and_never_alias_healthy(
        (d, g) in shapes(),
        seed in any::<u64>(),
    ) {
        let t = PopsTopology::new(d, g);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let ids = draw_ids(&t, 1 + (seed as usize % 3), &mut rng);
        let faults = set_from(&t, &ids);

        // A non-empty fault set never shares the healthy key...
        let healthy_key = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let degraded_key = canonical_key(
            d, g,
            &ServiceRequest::WithFaults { pi: pi.clone(), faults: faults.clone() },
        );
        prop_assert_ne!(&healthy_key, &degraded_key);

        // ...and flipping any single coupler in or out changes the key.
        let flip = (rng.next_u64() % t.coupler_count() as u64) as usize;
        let mut flipped_ids = ids.clone();
        if let Some(pos) = flipped_ids.iter().position(|&c| c == flip) {
            flipped_ids.remove(pos);
        } else {
            flipped_ids.push(flip);
        }
        let flipped = set_from(&t, &flipped_ids);
        prop_assume!(flipped.failed_count() != faults.failed_count());
        let flipped_key = canonical_key(
            d, g,
            &ServiceRequest::WithFaults { pi: pi.clone(), faults: flipped },
        );
        prop_assert_ne!(&degraded_key, &flipped_key);

        // The cache sees the same boundary: a healthy plan never answers
        // a degraded request.
        prop_assume!(faults.fully_routable(&t));
        let service = tiny_service(d, g);
        let healthy = service.route(&ServiceRequest::Theorem2 { pi: pi.clone() }).unwrap();
        prop_assert!(!healthy.cache_hit && !healthy.degraded);
        let degraded = service
            .route(&ServiceRequest::WithFaults { pi, faults })
            .unwrap();
        prop_assert!(!degraded.cache_hit, "a degraded request must not hit the healthy entry");
        prop_assert!(degraded.degraded);
    }

    #[test]
    fn an_empty_fault_set_matches_the_plain_engine(
        (d, g) in shapes(),
        seed in any::<u64>(),
    ) {
        let t = PopsTopology::new(d, g);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);

        let service = tiny_service(d, g);
        let via_engine = service
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .unwrap();
        let via_faults = service
            .route(&ServiceRequest::WithFaults {
                pi: pi.clone(),
                faults: FaultSet::none(&t),
            })
            .unwrap();
        // No faults declared: not degraded, and functionally equivalent
        // to the engine — both schedules execute on the healthy fabric
        // and deliver the same permutation. (Slot counts may differ: on
        // a fully healthy fabric the fault router may route direct
        // single-hop paths and beat Theorem 2.)
        prop_assert!(!via_faults.degraded);
        for schedule in [via_engine.outcome.schedule(), via_faults.outcome.schedule()] {
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(schedule).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
        }
    }
}
