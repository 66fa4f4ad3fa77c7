//! Failure injection for the *service* stack: fault sets threaded over
//! the wire, through the fault-keyed plan cache, and back out as
//! degraded schedules. The chaos driver in `common` runs concurrent
//! clients mixing healthy and degraded traffic with mid-flight fault
//! flips, and every returned schedule is refereed on a simulator with
//! exactly its declared couplers failed — so a plan that leans on dead
//! hardware cannot pass.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use common::{run_fault_chaos, verify_schedule_under_faults, ChaosStep};
use pops_bipartite::ColorerKind;
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};
use pops_service::{
    serve_with_config, BatchItem, ClientError, Counter, Json, RoutingService, ServerConfig,
    ServerSummary, ServiceClient, ServiceConfig, ServiceRequest,
};

fn spawn_server(
    topology: PopsTopology,
    server_config: ServerConfig,
) -> (
    SocketAddr,
    Arc<RoutingService>,
    std::thread::JoinHandle<ServerSummary>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(RoutingService::with_config(
        topology,
        ServiceConfig {
            shards: 2,
            cache_capacity: 64,
            max_in_flight: 8,
            colorer: ColorerKind::AlternatingPath,
            ..ServiceConfig::default()
        },
    ));
    let served = service.clone();
    let handle =
        std::thread::spawn(move || serve_with_config(listener, served, server_config).unwrap());
    (addr, service, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<ServerSummary>) -> ServerSummary {
    let mut client = ServiceClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap()
}

/// L1 entry count from the wire-visible cache stats document.
fn l1_entries(client: &mut ServiceClient) -> u64 {
    let doc = client.cache_op("stats").unwrap();
    doc.get("cache")
        .and_then(|c| c.get("l1"))
        .and_then(|l| l.get("entries"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("unexpected cache stats shape: {doc}"))
}

#[test]
fn concurrent_mixed_traffic_with_midflight_fault_flips() {
    let (d, g) = (4usize, 4usize);
    let (addr, service, handle) = spawn_server(PopsTopology::new(d, g), ServerConfig::default());

    // Four clients share three permutations and flip between healthy,
    // one-coupler-down, and two-couplers-down fault sets mid-script —
    // repeats both within and across clients, so the fault-keyed cache
    // serves hits under contention.
    let mut rng = SplitMix64::new(0xC4A05);
    let perms: Vec<Permutation> = (0..3)
        .map(|_| random_permutation(d * g, &mut rng))
        .collect();
    let menus: [Vec<usize>; 3] = [Vec::new(), vec![1], vec![2, 5]];
    let scripts: Vec<Vec<ChaosStep>> = (0..4)
        .map(|client| {
            (0..12)
                .map(|step| {
                    ChaosStep::new(
                        perms[(client + step) % perms.len()].clone(),
                        menus[(client * 5 + step) % menus.len()].clone(),
                    )
                })
                .collect()
        })
        .collect();
    let outcome = run_fault_chaos(addr, d, g, scripts);

    // Each client cycles through 3 distinct (perm, fault-set) keys over
    // 12 steps, so even if concurrent first-misses race on shared keys,
    // every client's last 9 steps hit: at least 36 hits fleet-wide.
    assert!(
        outcome.cache_hits >= 36,
        "expected at least 36 cache hits, got {}",
        outcome.cache_hits
    );
    assert!(outcome.degraded > 0);
    assert_eq!(
        outcome.verified,
        4 * 12,
        "every schedule must pass the referee"
    );
    let snap = service.metrics();
    assert!(
        snap.get(Counter::DegradedPlans) > 0,
        "degraded misses must be counted"
    );
    assert!(
        snap.get(Counter::DegradedHits) > 0,
        "degraded hits must be counted"
    );
    assert_eq!(snap.get(Counter::Errors), 0);
    shutdown(addr, handle);
}

#[test]
fn healthy_and_degraded_plans_never_share_a_cache_entry() {
    let (d, g) = (8usize, 8usize);
    let t = PopsTopology::new(d, g);
    let (addr, _service, handle) = spawn_server(t, ServerConfig::default());
    let mut rng = SplitMix64::new(0x5EED);
    let pi = random_permutation(d * g, &mut rng);
    let mut client = ServiceClient::connect(addr).unwrap();

    let route = |client: &mut ServiceClient, faults: &[usize]| {
        client
            .route_permutation_with_faults("theorem2", &pi, Some((d, g)), faults)
            .unwrap()
    };
    // Same permutation under four fault sets (healthy, one coupler, a
    // superset of it, and every 20th coupler: 5% of the fabric): four
    // distinct entries, each planned around its own faults and hitting
    // only its own key on repeat.
    let five_percent: Vec<usize> = (0..t.coupler_count() / 20).map(|k| k * 20).collect();
    let fault_sets: [&[usize]; 4] = [&[], &[1], &[1, 2], &five_percent];
    for faults in fault_sets {
        let reply = route(&mut client, faults);
        assert!(
            !reply.cache_hit,
            "faults {faults:?} must get their own entry"
        );
        assert_eq!(reply.degraded, !faults.is_empty(), "faults {faults:?}");
        verify_schedule_under_faults(t, faults, &reply.schedule, &pi);
    }
    assert_eq!(l1_entries(&mut client), 4);
    for faults in fault_sets {
        let reply = route(&mut client, faults);
        assert!(reply.cache_hit, "faults {faults:?} must hit their entry");
        assert_eq!(reply.degraded, !faults.is_empty(), "faults {faults:?}");
    }
    assert_eq!(l1_entries(&mut client), 4, "repeats add no entries");
    // A permuted, duplicated wire spelling of {1, 2} canonicalizes to the
    // same key.
    assert!(route(&mut client, &[2, 1, 2]).cache_hit);
    drop(client);
    shutdown(addr, handle);
}

#[test]
fn batch_with_mixed_fault_items_keeps_input_order() {
    let (d, g) = (4usize, 4usize);
    let (addr, _service, handle) = spawn_server(PopsTopology::new(d, g), ServerConfig::default());
    let mut rng = SplitMix64::new(0xBA7);
    let perms: Vec<Permutation> = (0..3)
        .map(|_| random_permutation(d * g, &mut rng))
        .collect();
    // Healthy and degraded items interleaved; the reply must line up with
    // the submission order and each schedule must verify under its own
    // item's fault set.
    let faults_by_item: [Vec<usize>; 4] = [Vec::new(), vec![1], Vec::new(), vec![3]];
    let items: Vec<BatchItem> = faults_by_item
        .iter()
        .enumerate()
        .map(|(i, faults)| BatchItem {
            pi: perms[i % perms.len()].clone(),
            shape: Some((d, g)),
            faults: faults.clone(),
        })
        .collect();

    let mut client = ServiceClient::connect(addr).unwrap();
    let reply = client.batch(&items, true).unwrap();
    assert_eq!(reply.summary.routed, items.len());
    assert_eq!(reply.summary.failed, 0);
    for (item, result) in items.iter().zip(&reply.items) {
        let routed = result.as_ref().expect("routed");
        assert_eq!(routed.degraded, !item.faults.is_empty());
        verify_schedule_under_faults(
            PopsTopology::new(routed.d, routed.g),
            &item.faults,
            &routed.schedule,
            &item.pi,
        );
    }
    drop(client);
    shutdown(addr, handle);
}

#[test]
fn an_unroutable_fault_set_is_refused_and_the_connection_survives() {
    // POPS(2, 3): couplers 3, 4, 5 are every coupler into group 1 —
    // killing all three disconnects the fabric.
    let (d, g) = (2usize, 3usize);
    let (addr, service, handle) = spawn_server(PopsTopology::new(d, g), ServerConfig::default());
    let mut rng = SplitMix64::new(0xDEAD);
    let pi = random_permutation(d * g, &mut rng);
    let mut client = ServiceClient::connect(addr).unwrap();

    let e = client
        .route_permutation_with_faults("theorem2", &pi, Some((d, g)), &[3, 4, 5])
        .unwrap_err();
    match e {
        ClientError::Remote { ref kind, .. } => assert_eq!(kind, "unroutable", "{e}"),
        other => panic!("expected a typed remote error, got {other}"),
    }
    assert!(service.metrics().get(Counter::UnroutableRefusals) >= 1);

    // The refusal is a typed error, not a panic: the same connection
    // keeps serving, healthy and (routable) degraded alike.
    let reply = client
        .route_permutation_with_faults("theorem2", &pi, Some((d, g)), &[3])
        .unwrap();
    assert!(reply.degraded);
    verify_schedule_under_faults(PopsTopology::new(d, g), &[3], &reply.schedule, &pi);
    drop(client);
    shutdown(addr, handle);
}

#[test]
fn baseline_faults_compose_with_per_request_faults() {
    let (d, g) = (4usize, 4usize);
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(d, g),
        ServerConfig {
            baseline_faults: vec![((d, g), vec![1])],
            ..ServerConfig::default()
        },
    );
    let mut rng = SplitMix64::new(0xB001);
    let pi = random_permutation(d * g, &mut rng);
    let mut client = ServiceClient::connect(addr).unwrap();

    // A request that *looks* healthy is degraded by the operator's
    // baseline: coupler 1 is dead fleet-wide.
    let reply = client
        .route_permutation_with_faults("theorem2", &pi, Some((d, g)), &[])
        .unwrap();
    assert!(reply.degraded, "the baseline degrades every route");
    verify_schedule_under_faults(PopsTopology::new(d, g), &[1], &reply.schedule, &pi);

    // Per-request faults compose by union with the baseline.
    let reply = client
        .route_permutation_with_faults("theorem2", &pi, Some((d, g)), &[2])
        .unwrap();
    assert!(reply.degraded);
    verify_schedule_under_faults(PopsTopology::new(d, g), &[1, 2], &reply.schedule, &pi);

    // Requesting exactly the baseline's coupler lands on the same cache
    // key as the bare request (both unions are {1}).
    let reply = client
        .route_permutation_with_faults("theorem2", &pi, Some((d, g)), &[1])
        .unwrap();
    assert!(reply.cache_hit, "baseline-composed keys must agree");
    drop(client);
    shutdown(addr, handle);
}

#[test]
fn warm_restart_preserves_fault_keyed_entries() {
    // Route healthy and degraded twins, spill, restore into a fresh
    // service: each key must hit its own restored entry and the fault
    // separation must survive the round trip.
    let (d, g) = (4usize, 4usize);
    let t = PopsTopology::new(d, g);
    let config = || ServiceConfig {
        shards: 1,
        cache_capacity: 16,
        max_in_flight: 2,
        colorer: ColorerKind::AlternatingPath,
        ..ServiceConfig::default()
    };
    let mut rng = SplitMix64::new(0x44AA);
    let pi = random_permutation(d * g, &mut rng);
    let healthy = ServiceRequest::Theorem2 { pi: pi.clone() };
    let degraded = ServiceRequest::WithFaults {
        pi: pi.clone(),
        faults: common::fault_set(&t, &[1]),
    };

    let service = RoutingService::with_config(t, config());
    assert!(!service.route(&healthy).unwrap().cache_hit);
    assert!(!service.route(&degraded).unwrap().cache_hit);

    let dir = common::unique_temp_dir("fault-warm");
    let path = dir.join("plans.popscache");
    let saved = service.save_cache(&path).unwrap();
    assert_eq!(saved.l1_entries, 2, "both twins spill");

    let restored = RoutingService::with_config(t, config());
    restored.load_cache(&path).unwrap();
    let healthy_reply = restored.route(&healthy).unwrap();
    assert!(healthy_reply.cache_hit, "healthy twin restored");
    assert!(!healthy_reply.degraded);
    let degraded_reply = restored.route(&degraded).unwrap();
    assert!(degraded_reply.cache_hit, "degraded twin restored");
    assert!(degraded_reply.degraded);
    verify_schedule_under_faults(t, &[1], degraded_reply.outcome.schedule(), &pi);
    // A different fault set still misses: restoring must not widen keys.
    let other = ServiceRequest::WithFaults {
        pi: pi.clone(),
        faults: common::fault_set(&t, &[2]),
    };
    assert!(!restored.route(&other).unwrap().cache_hit);
    let _ = std::fs::remove_dir_all(&dir);
}
