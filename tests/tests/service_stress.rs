//! Multi-threaded stress tests of the routing service: many client
//! threads hammering one [`RoutingService`], every returned schedule
//! re-verified by the conflict-checking simulator referee, and the
//! metrics ledger reconciled at the end.

mod common;

use std::num::NonZeroUsize;
use std::sync::Arc;

use common::{verify_h_relation_schedule, verify_permutation_schedule};

use pops_bipartite::ColorerKind;
use pops_core::{theorem2_slots, HRelation};
use pops_network::PopsTopology;
use pops_permutation::families::{random_group_uniform, random_permutation};
use pops_permutation::{Permutation, SplitMix64};
use pops_service::{Counter, RoutingService, ServiceConfig, ServiceRequest};

#[test]
fn eight_threads_hammer_one_service() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let service = Arc::new(RoutingService::with_config(
        t,
        ServiceConfig {
            shards: 3,
            cache_capacity: 24,
            // Tighter than the thread count, so the admission gate and the
            // pool overflow path are genuinely exercised.
            max_in_flight: 5,
            colorer: ColorerKind::AlternatingPath,
            ..ServiceConfig::default()
        },
    ));

    // A shared pool of permutations so threads collide on cache keys.
    let mut rng = SplitMix64::new(0x57AE55);
    let perms: Vec<Permutation> = (0..10)
        .map(|_| random_permutation(d * g, &mut rng))
        .collect();
    let uniform: Vec<Permutation> = (0..4)
        .map(|_| random_group_uniform(d, g, &mut rng))
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let service = service.clone();
            let perms = perms.clone();
            let uniform = uniform.clone();
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let pi = perms[(worker + round) % perms.len()].clone();
                    match round % 4 {
                        0 | 1 => {
                            let reply = service
                                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                                .unwrap();
                            assert_eq!(reply.outcome.schedule().slot_count(), theorem2_slots(d, g));
                            verify_permutation_schedule(t, reply.outcome.schedule(), &pi);
                        }
                        2 => {
                            let reply = service
                                .route(&ServiceRequest::Direct { pi: pi.clone() })
                                .unwrap();
                            verify_permutation_schedule(t, reply.outcome.schedule(), &pi);
                        }
                        _ => {
                            let pi = uniform[(worker + round) % uniform.len()].clone();
                            let reply = service
                                .route(&ServiceRequest::Structured { pi: pi.clone() })
                                .unwrap();
                            verify_permutation_schedule(t, reply.outcome.schedule(), &pi);
                        }
                    }
                }
            });
        }
    });

    let snap = service.metrics();
    assert_eq!(
        snap.requests(),
        (THREADS * ROUNDS) as u64,
        "every request must be ledgered as a hit or a miss"
    );
    assert_eq!(snap.get(Counter::Errors), 0);
    assert!(
        snap.get(Counter::Hits) > snap.get(Counter::Misses),
        "shared keys must mostly hit (hits {}, misses {})",
        snap.get(Counter::Hits),
        snap.get(Counter::Misses)
    );
    assert_eq!(
        snap.get(Counter::PoolFast)
            + snap.get(Counter::PoolOverflows)
            + snap.get(Counter::PoolBlocked),
        snap.get(Counter::Misses),
        "exactly the misses acquire an engine"
    );
    assert!(snap.get(Counter::SlotsEmitted) > 0);
}

#[test]
fn concurrent_h_relations_verify_per_phase() {
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let n = d * g;
    let service = Arc::new(RoutingService::with_config(
        t,
        ServiceConfig {
            shards: 2,
            cache_capacity: 8,
            max_in_flight: 4,
            colorer: ColorerKind::AlternatingPath,
            ..ServiceConfig::default()
        },
    ));

    let mut rng = SplitMix64::new(0x4E1A);
    let relations: Vec<HRelation> = (0..4)
        .map(|_| {
            let mut requests = Vec::new();
            for _ in 0..3 {
                let p = random_permutation(n, &mut rng);
                requests.extend((0..n).map(|s| (s, p.apply(s))));
            }
            HRelation::new(n, requests).unwrap()
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let service = service.clone();
            let relation = relations[worker % relations.len()].clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    let reply = service
                        .route(&ServiceRequest::HRelation {
                            relation: relation.clone(),
                        })
                        .unwrap();
                    // Hits and misses alike: each phase's slice of the
                    // decoded entry routes that phase.
                    verify_h_relation_schedule(t, &relation, reply.outcome.schedule());
                }
            });
        }
    });

    let snap = service.metrics();
    assert_eq!(snap.requests(), 32);
    // 4 distinct relations over 32 requests: at least 4 misses. The
    // service deliberately does not coalesce in-flight duplicates, so two
    // threads racing the same fresh key can both miss — but never more
    // than once per (relation, worker) first round.
    assert!(
        (4..=8).contains(&snap.get(Counter::Misses)),
        "hits {} misses {}",
        snap.get(Counter::Hits),
        snap.get(Counter::Misses)
    );
    assert_eq!(snap.get(Counter::Hits) + snap.get(Counter::Misses), 32);
}

#[test]
fn mixed_single_and_batch_traffic() {
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let service = Arc::new(RoutingService::with_config(
        t,
        ServiceConfig {
            shards: 2,
            cache_capacity: 16,
            max_in_flight: 3,
            colorer: ColorerKind::AlternatingPath,
            ..ServiceConfig::default()
        },
    ));

    std::thread::scope(|scope| {
        // Four single-request clients…
        for worker in 0..4usize {
            let service = service.clone();
            scope.spawn(move || {
                let mut rng = SplitMix64::new(worker as u64 + 100);
                for _ in 0..10 {
                    let pi = random_permutation(16, &mut rng);
                    let reply = service
                        .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                        .unwrap();
                    verify_permutation_schedule(t, reply.outcome.schedule(), &pi);
                }
            });
        }
        // …interleaved with four batch submitters on the artefact-free
        // fast path.
        for worker in 0..4usize {
            let service = service.clone();
            scope.spawn(move || {
                let mut rng = SplitMix64::new(worker as u64 + 200);
                let perms: Vec<Permutation> =
                    (0..6).map(|_| random_permutation(16, &mut rng)).collect();
                let plans = service.route_batch(&perms, NonZeroUsize::new(2), false);
                for (pi, plan) in perms.iter().zip(&plans) {
                    assert!(plan.fair_distribution.is_none());
                    verify_permutation_schedule(t, &plan.schedule, pi);
                }
            });
        }
    });

    let snap = service.metrics();
    assert_eq!(snap.requests(), 40);
    assert_eq!(snap.get(Counter::Batches), 4);
    assert_eq!(snap.get(Counter::BatchPlans), 24);
    assert_eq!(snap.get(Counter::Errors), 0);
}
