//! Integration tests of the two-level plan cache: concurrent phase-cache
//! reuse, simulator-refereed assembled schedules, spill/restore warm
//! restarts, and the end-to-end `--cache-dir` wire path.

mod common;

use std::sync::Arc;

use common::{random_relation, unique_temp_dir, verify_h_relation_outcome as verify_assembled};
use pops_bipartite::ColorerKind;
use pops_core::{HRelation, RoutingEngine};
use pops_network::{PopsTopology, Schedule, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::persist::cache_file_path;
use pops_service::{
    serve_with_config, Counter, RoutingService, ServerConfig, ServiceClient, ServiceConfig,
    ServiceRequest,
};

/// Concurrent clients route h-relations sharing a phase pool; every
/// assembled schedule passes the referee, and the metrics ledger shows
/// genuine level-2 reuse with level 1 disabled.
#[test]
fn concurrent_phase_reuse_with_l1_disabled() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 12;
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let service = Arc::new(RoutingService::with_config(
        t,
        ServiceConfig {
            shards: 3,
            cache_capacity: 0, // L1 off: every route assembles from phases
            phase_cache_capacity: 64,
            cache_shards: 4,
            max_in_flight: 4,
            colorer: ColorerKind::AlternatingPath,
        },
    ));

    // A shared relation pool so threads collide on the same phase keys.
    let mut rng = SplitMix64::new(0x9A5E);
    let relations: Vec<HRelation> = (0..4)
        .map(|_| random_relation(d * g, 3, &mut rng))
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let service = service.clone();
            let relations = relations.clone();
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let relation = &relations[(worker + round) % relations.len()];
                    let reply = service
                        .route(&ServiceRequest::HRelation {
                            relation: relation.clone(),
                        })
                        .unwrap();
                    assert!(!reply.cache_hit, "L1 is disabled");
                    verify_assembled(t, &reply.outcome);
                }
            });
        }
    });

    let snap = service.metrics();
    let total_phases = snap.get(Counter::PhaseHits) + snap.get(Counter::PhaseMisses);
    assert_eq!(total_phases, (THREADS * ROUNDS * 3) as u64);
    // 4 relations × 3 phases = 12 distinct phase keys. The cache does not
    // coalesce in-flight duplicates, so concurrent first encounters can
    // race into the miss window — but misses stay bounded by
    // threads × keys, and reuse must dominate.
    assert!(
        (12..=(THREADS as u64 * 12)).contains(&snap.get(Counter::PhaseMisses)),
        "misses {} out of range",
        snap.get(Counter::PhaseMisses)
    );
    assert!(
        snap.get(Counter::PhaseHits) > snap.get(Counter::PhaseMisses),
        "reuse must dominate"
    );
    assert_eq!(service.cached_phases(), 12);
    assert_eq!(service.cached_plans(), 0, "L1 stayed off");
}

/// The service's assembled h-relation schedules are byte-identical to a
/// bare engine's, whether phases hit or miss the cache.
#[test]
fn assembly_is_byte_identical_to_the_engine() {
    let (d, g) = (3usize, 5usize);
    let t = PopsTopology::new(d, g);
    let service = RoutingService::with_config(
        t,
        ServiceConfig {
            shards: 1,
            cache_capacity: 0, // force re-assembly on repeats
            phase_cache_capacity: 64,
            cache_shards: 2,
            max_in_flight: 2,
            colorer: ColorerKind::AlternatingPath,
        },
    );
    let mut engine = RoutingEngine::with_colorer(t, ColorerKind::AlternatingPath);
    let mut rng = SplitMix64::new(0xA55E);
    for h in [1usize, 2, 5] {
        let relation = random_relation(d * g, h, &mut rng);
        // First pass: all phase misses. Second: all phase hits.
        let miss_pass = service
            .route(&ServiceRequest::HRelation {
                relation: relation.clone(),
            })
            .unwrap();
        let hit_pass = service
            .route(&ServiceRequest::HRelation {
                relation: relation.clone(),
            })
            .unwrap();
        assert_eq!(hit_pass.phase_hits, h as u64);
        let direct = engine.plan_h_relation(&relation);
        assert_eq!(miss_pass.outcome.schedule(), &direct.schedule, "h = {h}");
        assert_eq!(hit_pass.outcome.schedule(), &direct.schedule, "h = {h}");
    }
}

/// Spill → restore across service instances keeps serving verified
/// schedules, and an LRU-truncated restore keeps the most-recent entries.
#[test]
fn warm_restart_preserves_recency_under_truncation() {
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let dir = unique_temp_dir("recency");
    let path = cache_file_path(&dir);

    let config = |cache_capacity: usize| ServiceConfig {
        shards: 1,
        cache_capacity,
        phase_cache_capacity: 64,
        cache_shards: 1, // one shard: file order IS the global LRU order
        max_in_flight: 2,
        colorer: ColorerKind::AlternatingPath,
    };
    let first = RoutingService::with_config(t, config(16));
    let mut rng = SplitMix64::new(0x0DDC0FFE);
    let perms: Vec<_> = (0..8)
        .map(|_| random_permutation(d * g, &mut rng))
        .collect();
    // Warm-up misses once per permutation; a repeat in the same order
    // hits every entry and leaves the recency order as it was.
    for pass in 0..2 {
        for pi in &perms {
            let reply = first
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .unwrap();
            assert_eq!(reply.cache_hit, pass == 1);
        }
    }
    let snap = first.metrics();
    assert_eq!(
        (snap.get(Counter::Hits), snap.get(Counter::Misses)),
        (8, 8),
        "only the warm-up misses"
    );
    let saved = first.save_cache(&path).unwrap();
    assert_eq!((saved.l1_entries, saved.l2_entries), (8, 8));

    // Restore into a *smaller* cache: the 4-entry L1 must keep the 4
    // most-recently-used permutations (the last routed), evicting the
    // file's LRU-first prefix as it loads.
    let second = RoutingService::with_config(t, config(4));
    second.load_cache(&path).unwrap();
    assert_eq!(second.cached_plans(), 4);
    // Check most-recent first: the 4 MRU permutations survived the
    // truncated restore, the 4 LRU ones were evicted during the load.
    for (idx, pi) in perms.iter().enumerate().rev() {
        let reply = second
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .unwrap();
        let expect_hit = idx >= 4;
        assert_eq!(
            reply.cache_hit, expect_hit,
            "permutation {idx}: recency must survive the round trip"
        );
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(reply.outcome.schedule()).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end wire path: a `--cache-dir` server saves over the wire, a
/// restarted server loads over the wire, and the first repeated request
/// — client-side referee included — is a hit.
#[test]
fn wire_cache_ops_survive_a_server_restart() {
    let t = PopsTopology::new(4, 4);
    let dir = unique_temp_dir("wire");
    let service_config = || ServiceConfig {
        shards: 2,
        cache_capacity: 32,
        phase_cache_capacity: 32,
        cache_shards: 2,
        max_in_flight: 4,
        colorer: ColorerKind::AlternatingPath,
    };
    let spawn = |dir: std::path::PathBuf| {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(RoutingService::with_config(t, service_config()));
        let config = ServerConfig {
            cache_dir: Some(dir),
            ..ServerConfig::default()
        };
        let handle =
            std::thread::spawn(move || serve_with_config(listener, service, config).unwrap());
        (addr, handle)
    };

    let mut rng = SplitMix64::new(0x31415);
    let pi = random_permutation(16, &mut rng);
    let relation = random_relation(16, 2, &mut rng);

    let (addr, handle) = spawn(dir.clone());
    let mut client = ServiceClient::connect(addr).unwrap();
    assert!(!client.route_permutation("theorem2", &pi).unwrap().cache_hit);
    let reply = client.route_h_relation(relation.requests()).unwrap();
    assert!(!reply.cache_hit);
    let saved = client.cache_op("save").unwrap();
    assert_eq!(saved.get("l1_entries").unwrap().as_u64(), Some(2));
    assert_eq!(saved.get("l2_entries").unwrap().as_u64(), Some(3));
    client.shutdown().unwrap();
    handle.join().unwrap();

    let (addr, handle) = spawn(dir.clone());
    let mut client = ServiceClient::connect(addr).unwrap();
    client.cache_op("load").unwrap();
    let reply = client.route_permutation("theorem2", &pi).unwrap();
    assert!(reply.cache_hit, "first repeat after restart must hit");
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(&reply.schedule).unwrap();
    sim.verify_delivery(pi.as_slice()).unwrap();
    // The restored h-relation entry serves the identical schedule too.
    let restored = client.route_h_relation(relation.requests()).unwrap();
    assert!(restored.cache_hit);
    assert_eq!(restored.slots, reply_slots_of(&relation, t));
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slot count an h-relation costs on `t` (phases × theorem-2 slots).
fn reply_slots_of(relation: &HRelation, t: PopsTopology) -> usize {
    relation.h() * pops_core::theorem2_slots(t.d(), t.g())
}

/// A phase plan cached from a plain permutation request is reused when
/// the same permutation appears as a phase of a later h-relation — the
/// cross-population path, refereed end to end.
#[test]
fn theorem2_plans_serve_as_phases() {
    let (d, g) = (2usize, 6usize);
    let t = PopsTopology::new(d, g);
    let service = RoutingService::with_config(
        t,
        ServiceConfig {
            shards: 1,
            cache_capacity: 16,
            phase_cache_capacity: 16,
            cache_shards: 2,
            max_in_flight: 2,
            colorer: ColorerKind::AlternatingPath,
        },
    );
    let mut rng = SplitMix64::new(0xFACE);
    let pi = random_permutation(d * g, &mut rng);
    service
        .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
        .unwrap();

    // A full 1-relation's single König phase is the permutation itself.
    let relation = HRelation::new(d * g, (0..d * g).map(|s| (s, pi.apply(s))).collect()).unwrap();
    let reply = service
        .route(&ServiceRequest::HRelation { relation })
        .unwrap();
    assert!(!reply.cache_hit);
    assert_eq!(reply.phase_hits, 1, "the theorem2 plan must be reused");
    verify_assembled(t, &reply.outcome);
    // And the phase block is the cached theorem2 schedule, byte for byte.
    let theorem2 = service
        .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
        .unwrap();
    let Schedule { slots } = theorem2.outcome.schedule().clone();
    assert_eq!(&reply.outcome.schedule().slots[..], &slots[..]);
}
