//! The tier-1 scaled-down twin of `pops replay --soak`: record/replay
//! round trips, replay determinism, SLO gating (including the committed
//! negative test), and fault chaos riding alongside a live replay. Every
//! schedule any of these paths returns is re-refereed on the simulator —
//! a soak that "passes" with unverified schedules would be worthless as
//! the referee for future scale PRs.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use common::{run_fault_chaos, unique_temp_dir, ChaosStep};
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::proto::{RouteBody, RouteRequest, WireRequest};
use pops_service::{
    read_trace, run_replay, serve_router, synth_trace, BatchItem, RecordedRequest, ReplayOptions,
    RequestKind, ServerConfig, ServerSummary, ServiceClient, ServiceConfig, SloGates,
    TopologyRouter, TopologyRouterConfig, WireFormat,
};

fn small_router(max_topologies: usize) -> Arc<TopologyRouter> {
    Arc::new(TopologyRouter::new(
        PopsTopology::new(4, 4),
        TopologyRouterConfig {
            service: ServiceConfig {
                shards: 2,
                cache_capacity: 128,
                max_in_flight: 8,
                ..ServiceConfig::default()
            },
            max_topologies,
            ..TopologyRouterConfig::default()
        },
    ))
}

fn spawn_router_server(
    router: Arc<TopologyRouter>,
    config: ServerConfig,
) -> (SocketAddr, std::thread::JoinHandle<ServerSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_router(listener, router, config).unwrap());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<ServerSummary>) -> ServerSummary {
    let mut client = ServiceClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap()
}

/// A short synthetic soak holds generous gates, and — the committed
/// negative test — demonstrably breaches when the p99 threshold is set
/// below anything a real TCP round trip can measure.
#[test]
fn synthetic_soak_passes_generous_gates_and_breaches_absurd_ones() {
    let (addr, handle) = spawn_router_server(small_router(4), ServerConfig::default());
    let trace = synth_trace("mixed:4x4,2x8", 64, 0xB0A7).unwrap();
    let opts = ReplayOptions {
        clients: 4,
        rate_multiplier: 8.0,
        duration: Some(Duration::from_secs(2)),
        loop_trace: true,
        verify: true,
        timeout: Some(Duration::from_secs(10)),
    };
    let report = run_replay(&addr.to_string(), &trace, &opts).unwrap();
    assert!(report.sent > 0, "{}", report.render());
    assert_eq!(report.verify_failures, 0, "{}", report.render());
    assert_eq!(report.failed, 0, "{}", report.render());
    assert!(report.passes >= 1, "{}", report.render());
    // Mixed traffic reached the server: singles, batches, cache ops.
    assert!(report.per_op.contains_key("route:theorem2"), "{report:?}");
    assert!(report.per_op.contains_key("batch"), "{report:?}");
    assert!(report.per_op.contains_key("cache:stats"), "{report:?}");
    assert!(report.degraded > 0, "faulted records must reach the server");

    let generous = SloGates {
        p99_ms: Some(60_000.0),
        max_shed_rate: Some(0.5),
        max_verify_failures: Some(0),
        max_failures: Some(0),
    };
    assert!(
        generous.breaches(&report).is_empty(),
        "{:?}",
        generous.breaches(&report)
    );

    // Negative: a p99 gate below the measured p99 must breach — the soak
    // gate provably *can* fail, so a green gate means something.
    let absurd = SloGates {
        p99_ms: Some(0.0001),
        ..SloGates::default()
    };
    let breaches = absurd.breaches(&report);
    assert!(
        breaches.iter().any(|b| b.contains("p99")),
        "a sub-microsecond p99 SLO must breach, got {breaches:?}"
    );
    shutdown(addr, handle);
}

/// The acceptance criterion end-to-end: mixed-topology, mixed-op,
/// faulted traffic on both wire formats is recorded by a `--record`
/// server, then the trace replays at `--rate-multiplier 4` against a
/// fresh server with every returned schedule simulator-verified.
#[test]
fn recorded_mixed_trace_replays_at_4x_fully_verified() {
    let dir = unique_temp_dir("record-replay");
    let trace_path = dir.join("trace.jsonl");
    let (addr, handle) = spawn_router_server(
        small_router(4),
        ServerConfig {
            record_path: Some(trace_path.clone()),
            ..ServerConfig::default()
        },
    );

    // Drive mixed traffic: JSON and binary clients, two shapes, healthy
    // and faulted singles, an h-relation, a mixed batch, a cache op.
    let mut rng = SplitMix64::new(0x7ACE);
    let mut json_client = ServiceClient::connect(addr).unwrap();
    for &(d, g) in &[(4usize, 4usize), (2, 8)] {
        let pi = random_permutation(d * g, &mut rng);
        json_client
            .route_permutation_on("theorem2", &pi, Some((d, g)))
            .unwrap();
    }
    let pi = random_permutation(16, &mut rng);
    let faulted = json_client
        .route_permutation_with_faults("faults", &pi, Some((4, 4)), &[1, 5])
        .unwrap();
    assert!(faulted.degraded);
    let requests: Vec<(usize, usize)> = {
        let p = random_permutation(16, &mut rng);
        (0..16).map(|s| (s, p.apply(s))).collect()
    };
    json_client
        .route_h_relation_on(&requests, Some((4, 4)))
        .unwrap();
    json_client
        .batch(
            &[
                BatchItem {
                    pi: random_permutation(16, &mut rng),
                    shape: Some((4, 4)),
                    faults: Vec::new(),
                },
                BatchItem {
                    pi: random_permutation(16, &mut rng),
                    shape: Some((2, 8)),
                    faults: vec![2],
                },
            ],
            true,
        )
        .unwrap();
    json_client.cache_op("stats").unwrap();

    let mut bin_client = ServiceClient::connect(addr).unwrap();
    bin_client.set_format(WireFormat::Binary).unwrap();
    let pi = random_permutation(16, &mut rng);
    bin_client
        .route_permutation_on("theorem2", &pi, Some((4, 4)))
        .unwrap();
    bin_client
        .batch(
            &[BatchItem {
                pi: random_permutation(16, &mut rng),
                shape: Some((2, 8)),
                faults: Vec::new(),
            }],
            false,
        )
        .unwrap();
    drop(json_client);
    drop(bin_client);
    shutdown(addr, handle);

    let trace = read_trace(&trace_path).unwrap();
    assert_eq!(
        trace.len(),
        8,
        "3 theorem2 routes + faulted + h-rel + 2 batches + cache"
    );
    assert_eq!(
        pops_service::record::trace_shapes(&trace),
        vec![(2, 8), (4, 4)],
        "both topologies must appear"
    );
    assert!(
        trace.iter().any(|e| e.format == WireFormat::Binary),
        "the binary client's requests must be recorded with their format"
    );

    // Replay at 4x against a *fresh* server: everything verifies.
    let (addr, handle) = spawn_router_server(small_router(4), ServerConfig::default());
    let opts = ReplayOptions {
        clients: 3,
        rate_multiplier: 4.0,
        ..ReplayOptions::default()
    };
    let report = run_replay(&addr.to_string(), &trace, &opts).unwrap();
    assert_eq!(report.sent, 8, "{}", report.render());
    assert_eq!(report.ok, 8, "{}", report.render());
    assert_eq!(report.failed, 0, "{}", report.render());
    assert_eq!(report.verify_failures, 0, "{}", report.render());
    assert_eq!(report.per_op.get("route:theorem2"), Some(&3));
    assert_eq!(report.per_op.get("route:faults"), Some(&1));
    assert_eq!(report.per_op.get("route:h-relation"), Some(&1));
    assert_eq!(report.per_op.get("batch"), Some(&2));
    assert_eq!(report.per_op.get("cache:stats"), Some(&1));
    assert_eq!(report.batch_items, 3);
    assert!(report.degraded >= 1, "the faulted single replays degraded");
    shutdown(addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay determinism (cache-key stability end-to-end): the same
/// singles-only trace replayed twice against one warm server yields
/// identical per-op counts, and the second pass is served 100% from L1.
#[test]
fn replaying_twice_against_a_warm_server_is_deterministic_and_all_l1() {
    let (addr, handle) = spawn_router_server(small_router(2), ServerConfig::default());
    // Singles only: the batch fast path bypasses L1, so a trace with
    // batches could never promise 100% hits.
    let mut rng = SplitMix64::new(0xD373);
    let trace: Vec<RecordedRequest> = (0..24)
        .map(|i| {
            let (kind, faults) = if i % 3 == 2 {
                (RequestKind::WithFaults, vec![1])
            } else {
                (RequestKind::Theorem2, Vec::new())
            };
            RecordedRequest {
                offset_us: i as u64 * 200,
                format: if i % 2 == 0 {
                    WireFormat::Json
                } else {
                    WireFormat::Binary
                },
                op: WireRequest::Route {
                    req: RouteRequest {
                        d: 4,
                        g: 4,
                        body: Ok(RouteBody::Perm {
                            kind,
                            pi: random_permutation(16, &mut rng),
                            faults,
                        }),
                    },
                    want_schedule: true,
                },
            }
        })
        .collect();
    let opts = ReplayOptions {
        clients: 2,
        rate_multiplier: 16.0,
        ..ReplayOptions::default()
    };
    let first = run_replay(&addr.to_string(), &trace, &opts).unwrap();
    let second = run_replay(&addr.to_string(), &trace, &opts).unwrap();
    assert_eq!(first.per_op, second.per_op, "per-op counts must match");
    assert_eq!(first.ok, 24);
    assert_eq!(second.ok, 24);
    assert_eq!(first.verify_failures + second.verify_failures, 0);
    // All 24 permutations are distinct, so the first pass computes...
    assert_eq!(first.cache_hits, 0, "{}", first.render());
    // ...and the second pass replays the exact same canonical keys
    // (fault-keyed included) straight out of L1.
    assert_eq!(second.cache_hits, 24, "{}", second.render());
    shutdown(addr, handle);
}

/// Fault chaos rides alongside a live replay: concurrent chaos clients
/// flip fault sets and churn topologies mid-replay, and *every* schedule
/// either path returns passes the simulator referee.
#[test]
fn chaos_fault_flips_and_topology_churn_mid_replay_stay_verified() {
    let (addr, handle) = spawn_router_server(small_router(4), ServerConfig::default());
    let trace = synth_trace("mixed:4x4,2x8", 48, 0xC4A0).unwrap();
    let replay_addr = addr.to_string();
    let replayer = std::thread::spawn(move || {
        let opts = ReplayOptions {
            clients: 2,
            rate_multiplier: 8.0,
            duration: Some(Duration::from_secs(2)),
            loop_trace: true,
            verify: true,
            timeout: Some(Duration::from_secs(10)),
        };
        run_replay(&replay_addr, &trace, &opts).unwrap()
    });

    // Chaos scripts mix the default 4x4 with 2x8 churn and flip fault
    // sets mid-connection while the replay hammers the same server.
    let mut rng = SplitMix64::new(0xF11B);
    let menus: [Vec<usize>; 3] = [Vec::new(), vec![3], vec![1, 6]];
    let scripts: Vec<Vec<ChaosStep>> = (0..3)
        .map(|client| {
            (0..10usize)
                .map(|step| {
                    let faults = menus[(client * 7 + step) % menus.len()].clone();
                    if step % 4 == 3 {
                        ChaosStep::on(random_permutation(16, &mut rng), faults, 2, 8)
                    } else {
                        ChaosStep::new(random_permutation(16, &mut rng), faults)
                    }
                })
                .collect()
        })
        .collect();
    let outcome = run_fault_chaos(addr, 4, 4, scripts);
    assert_eq!(
        outcome.verified,
        3 * 10,
        "zero unverified schedules under churn"
    );
    assert!(outcome.degraded > 0);

    let report = replayer.join().unwrap();
    assert_eq!(report.verify_failures, 0, "{}", report.render());
    assert_eq!(report.failed, 0, "{}", report.render());
    shutdown(addr, handle);
}
