//! Property tests of the service's canonical cache keys and cache
//! behaviour: identical requests hit, any semantic difference misses.

use proptest::prelude::*;

use pops_core::HRelation;
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};
use pops_service::{
    canonical_key, Counter, Gauge, MetricsSnapshot, RoutingService, ServiceConfig, ServiceRequest,
    TopologyRouter, TopologyRouterConfig,
};

/// Strategy: plausible (d, g) shapes with n = d·g ≤ 144.
fn shapes() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=12, 1usize..=12)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identical_permutations_share_a_key_and_hit((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        // A fresh Permutation built from the same image: same canonical key.
        let rebuilt = Permutation::new(pi.as_slice().to_vec()).unwrap();
        let key_a = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let key_b = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: rebuilt.clone() });
        prop_assert_eq!(&key_a, &key_b);

        // And the cache agrees: first request computes, second hits.
        let service = tiny_service(d, g);
        let first = service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
        let second = service.route(&ServiceRequest::Theorem2 { pi: rebuilt }).unwrap();
        prop_assert!(!first.cache_hit);
        prop_assert!(second.cache_hit);
        prop_assert_eq!(first.outcome.schedule(), second.outcome.schedule());
    }

    #[test]
    fn any_differing_element_misses((d, g) in shapes(), seed in any::<u64>()) {
        let n = d * g;
        prop_assume!(n >= 2);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(n, &mut rng);
        // Swap two distinct positions: a permutation differing in exactly
        // two image elements.
        let i = (rng.next_u64() % n as u64) as usize;
        let mut j = (rng.next_u64() % n as u64) as usize;
        if i == j {
            j = (j + 1) % n;
        }
        let mut image = pi.as_slice().to_vec();
        image.swap(i, j);
        let swapped = Permutation::new(image).unwrap();

        let key_a = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let key_b = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: swapped.clone() });
        prop_assert_ne!(&key_a, &key_b);

        let service = tiny_service(d, g);
        service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
        let other = service.route(&ServiceRequest::Theorem2 { pi: swapped }).unwrap();
        prop_assert!(!other.cache_hit, "a differing permutation must miss");
    }

    #[test]
    fn differing_shape_misses((d, g) in shapes(), seed in any::<u64>()) {
        // Same permutation bytes under transposed shapes (equal n): the
        // keys must differ, because the routing depends on the grouping.
        prop_assume!(d != g);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let req = ServiceRequest::Theorem2 { pi };
        prop_assert_ne!(canonical_key(d, g, &req), canonical_key(g, d, &req));
    }

    #[test]
    fn differing_kind_misses((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let theorem2 = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let direct = canonical_key(d, g, &ServiceRequest::Direct { pi: pi.clone() });
        let single = canonical_key(d, g, &ServiceRequest::SingleSlot { pi });
        prop_assert_ne!(&theorem2, &direct);
        prop_assert_ne!(&theorem2, &single);
        prop_assert_ne!(&direct, &single);
    }

    #[test]
    fn h_relation_keys_ignore_request_order((d, g) in shapes(), seed in any::<u64>()) {
        let n = d * g;
        prop_assume!(n >= 2);
        let mut rng = SplitMix64::new(seed);
        let p = random_permutation(n, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..n).map(|s| (s, p.apply(s))).collect();
        // A deterministic shuffle of the same multiset of requests.
        let mut shuffled = pairs.clone();
        for i in (1..shuffled.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let a = ServiceRequest::HRelation {
            relation: HRelation::new(n, pairs.clone()).unwrap(),
        };
        let b = ServiceRequest::HRelation {
            relation: HRelation::new(n, shuffled).unwrap(),
        };
        prop_assert_eq!(canonical_key(d, g, &a), canonical_key(d, g, &b));

        // Dropping one request changes the multiset: different key.
        let mut fewer = pairs;
        fewer.pop();
        let c = ServiceRequest::HRelation {
            relation: HRelation::new(n, fewer).unwrap(),
        };
        prop_assert_ne!(canonical_key(d, g, &a), canonical_key(d, g, &c));
    }

    #[test]
    fn zero_absorb_is_the_identity_on_counters((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let service = tiny_service(d, g);
        for _ in 0..3 {
            let pi = random_permutation(d * g, &mut rng);
            service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
        }
        let snap = service.metrics();
        let mut folded = MetricsSnapshot::zero();
        folded.absorb(&snap);
        prop_assert_eq!(folded.requests(), snap.requests());
        prop_assert_eq!(folded.get(Counter::Hits), snap.get(Counter::Hits));
        prop_assert_eq!(folded.get(Counter::Misses), snap.get(Counter::Misses));
        prop_assert_eq!(folded.get(Counter::Errors), snap.get(Counter::Errors));
        prop_assert_eq!(folded.get(Counter::SlotsEmitted), snap.get(Counter::SlotsEmitted));
        prop_assert_eq!(folded.wire_errors_total(), snap.wire_errors_total());
        prop_assert_eq!(folded.gauge(Gauge::ArenaBytes), snap.gauge(Gauge::ArenaBytes));
    }

    /// Fleet totals — the retired-topology ledger plus every resident
    /// service — must be monotone across LRU evictions and rebuilds.
    /// The Prometheus exposition renders exactly this sum, and a counter
    /// that ever went backwards would break every scrape-side `rate()`.
    #[test]
    fn fleet_counters_never_decrease_across_evictions(seed in any::<u64>(), steps in 4usize..24) {
        let mut rng = SplitMix64::new(seed);
        // Four shapes through a two-slot registry: the default is pinned,
        // so the remaining slot churns and evictions are frequent.
        let shapes = [(2usize, 2usize), (2, 4), (4, 2), (3, 3)];
        let router = TopologyRouter::new(
            PopsTopology::new(2, 2),
            TopologyRouterConfig {
                service: ServiceConfig {
                    shards: 1,
                    cache_capacity: 4,
                    max_in_flight: 2,
                    ..ServiceConfig::default()
                },
                max_topologies: 2,
                ..TopologyRouterConfig::default()
            },
        );
        let fleet = |router: &TopologyRouter| {
            let mut total = MetricsSnapshot::zero();
            total.absorb(&router.retired_metrics());
            for (_, service) in router.services() {
                total.absorb(&service.metrics());
            }
            total
        };
        let mut prev = fleet(&router);
        for _ in 0..steps {
            let (d, g) = shapes[(rng.next_u64() % shapes.len() as u64) as usize];
            let service = router.get(d, g).unwrap();
            let pi = random_permutation(d * g, &mut rng);
            service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
            let cur = fleet(&router);
            prop_assert!(cur.requests() > prev.requests(), "each step routes");
            prop_assert!(cur.get(Counter::Hits) >= prev.get(Counter::Hits));
            prop_assert!(cur.get(Counter::Misses) >= prev.get(Counter::Misses));
            prop_assert!(cur.get(Counter::Errors) >= prev.get(Counter::Errors));
            prop_assert!(cur.get(Counter::SlotsEmitted) >= prev.get(Counter::SlotsEmitted));
            prop_assert!(cur.get(Counter::Batches) >= prev.get(Counter::Batches));
            prev = cur;
        }
    }
}
