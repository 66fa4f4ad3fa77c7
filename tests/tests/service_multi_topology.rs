//! Integration tests of multi-topology serving: one server (one
//! `TopologyRouter`) answering simulator-refereed requests for several
//! `POPS(d, g)` shapes concurrently, LRU eviction of cold topologies,
//! wire-level batch ordering/truncation, and warm restarts restoring
//! per-topology caches.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use common::{unique_temp_dir, verify_permutation_schedule};
use pops_network::PopsTopology;
use pops_permutation::families::{random_permutation, vector_reversal};
use pops_permutation::SplitMix64;
use pops_service::{
    serve_router, BatchItem, Json, ServerConfig, ServerSummary, ServiceClient, ServiceConfig,
    TopologyRouter, TopologyRouterConfig,
};

/// The three shapes the concurrent tests exercise — same `n` for two of
/// them (4×4 vs 2×8), so a keying mistake would cross-contaminate.
const SHAPES: [(usize, usize); 3] = [(4, 4), (2, 8), (3, 3)];

fn small_router(max_topologies: usize) -> Arc<TopologyRouter> {
    Arc::new(TopologyRouter::new(
        PopsTopology::new(4, 4),
        TopologyRouterConfig {
            service: ServiceConfig {
                shards: 2,
                cache_capacity: 32,
                max_in_flight: 4,
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

/// Concurrent clients hammer one server across three shapes; every
/// returned schedule is re-verified on a local simulator for **its own**
/// topology, and the stats ledger reports all three.
#[test]
fn one_server_serves_three_shapes_concurrently_and_verified() {
    const CLIENTS_PER_SHAPE: usize = 3;
    const ROUNDS: usize = 8;
    let router = small_router(4);
    let (addr, handle) = spawn_router_server(router, ServerConfig::default());

    std::thread::scope(|scope| {
        for (worker, &(d, g)) in SHAPES
            .iter()
            .cycle()
            .take(SHAPES.len() * CLIENTS_PER_SHAPE)
            .enumerate()
        {
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xC0DE + worker as u64);
                let mut client = ServiceClient::connect(addr).unwrap();
                let t = PopsTopology::new(d, g);
                for _ in 0..ROUNDS {
                    let pi = random_permutation(t.n(), &mut rng);
                    let reply = client
                        .route_permutation_on("theorem2", &pi, Some((d, g)))
                        .unwrap();
                    verify_permutation_schedule(t, &reply.schedule, &pi);
                }
            });
        }
    });

    let mut client = ServiceClient::connect(addr).unwrap();
    let info = client.info().unwrap();
    assert_eq!((info.d, info.g), (4, 4), "default shape");
    let mut resident = info.topologies.clone();
    resident.sort_unstable();
    assert_eq!(resident, vec![(2, 8), (3, 3), (4, 4)]);

    let stats = client.stats().unwrap();
    let topologies = stats.get("topologies").unwrap().as_arr().unwrap();
    assert_eq!(topologies.len(), 3, "stats must report every shape");
    let per_shape_requests: u64 = topologies
        .iter()
        .map(|t| t.get("requests").unwrap().as_u64().unwrap())
        .sum();
    let total = (SHAPES.len() * CLIENTS_PER_SHAPE * ROUNDS) as u64;
    assert_eq!(per_shape_requests, total, "breakdown sums to the aggregate");
    assert_eq!(
        stats.get("hits").unwrap().as_u64().unwrap()
            + stats.get("misses").unwrap().as_u64().unwrap(),
        total
    );
    let router_stats = stats.get("router").unwrap();
    assert_eq!(router_stats.get("built").unwrap().as_u64(), Some(2));
    assert_eq!(router_stats.get("evictions").unwrap().as_u64(), Some(0));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Same `n`, different shape: POPS(4, 4) and POPS(2, 8) answers must come
/// from different backends (different slot counts prove it — 2 vs 4).
#[test]
fn same_n_different_shape_selects_different_backends() {
    let router = small_router(4);
    let (addr, handle) = spawn_router_server(router, ServerConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();
    let pi = vector_reversal(16);
    let on_default = client.route_permutation_on("theorem2", &pi, None).unwrap();
    assert_eq!(on_default.slots, 2, "4x4: 2 * ceil(4/4)");
    let on_28 = client
        .route_permutation_on("theorem2", &pi, Some((2, 8)))
        .unwrap();
    assert_eq!(on_28.slots, 2, "2x8: 2 * ceil(2/8) = 2");
    verify_permutation_schedule(PopsTopology::new(2, 8), &on_28.schedule, &pi);
    let on_82 = client
        .route_permutation_on("theorem2", &pi, Some((8, 2)))
        .unwrap();
    assert_eq!(
        on_82.slots, 8,
        "8x2: 2 * ceil(8/2) = 8 — a distinct backend"
    );
    verify_permutation_schedule(PopsTopology::new(8, 2), &on_82.schedule, &pi);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Cold topologies are LRU-evicted under registry pressure, evicted
/// shapes are transparently rebuilt on the next request (losing only
/// their cache warmth), and pinned shapes always survive.
#[test]
fn lru_evicts_cold_topologies_and_rebuilds_on_demand() {
    let router = small_router(2); // default 4x4 pinned + one dynamic slot
    let (addr, handle) = spawn_router_server(router, ServerConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();
    let pi16 = vector_reversal(16);

    // Warm 2x8: second request is a cache hit.
    assert!(
        !client
            .route_permutation_on("theorem2", &pi16, Some((2, 8)))
            .unwrap()
            .cache_hit
    );
    assert!(
        client
            .route_permutation_on("theorem2", &pi16, Some((2, 8)))
            .unwrap()
            .cache_hit
    );

    // 3x3 takes the only dynamic slot, evicting 2x8...
    let pi9 = vector_reversal(9);
    client
        .route_permutation_on("theorem2", &pi9, Some((3, 3)))
        .unwrap();
    let info = client.info().unwrap();
    let mut resident = info.topologies.clone();
    resident.sort_unstable();
    assert_eq!(
        resident,
        vec![(3, 3), (4, 4)],
        "2x8 evicted, default pinned"
    );

    // ...and a returning 2x8 client is served again — by a rebuilt (cold)
    // backend, so its first repeat is a miss again.
    assert!(
        !client
            .route_permutation_on("theorem2", &pi16, Some((2, 8)))
            .unwrap()
            .cache_hit,
        "rebuilt backend starts cold"
    );

    let stats = client.stats().unwrap();
    let router_stats = stats.get("router").unwrap();
    assert_eq!(router_stats.get("evictions").unwrap().as_u64(), Some(2));
    assert_eq!(router_stats.get("built").unwrap().as_u64(), Some(3));
    // Eviction must not erase history: the fleet-wide aggregate still
    // counts all 4 requests (2 + 1 + 1), with the evicted backends'
    // traffic folded into the retired ledger.
    let total = stats.get("hits").unwrap().as_u64().unwrap()
        + stats.get("misses").unwrap().as_u64().unwrap();
    assert_eq!(total, 4, "aggregate stays monotonic across evictions");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A server that answers a batch with a malformed stream poisons the
/// client connection: unread stream lines can no longer be matched to
/// later requests, so every later call must fail fast with `Poisoned`.
#[test]
fn malformed_batch_stream_poisons_the_client() {
    use std::io::{BufRead, BufReader, Write};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(socket.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        // Out-of-order item index (2 when 0 is expected), then more
        // lines the client must NOT try to interpret as later replies.
        writeln!(
            socket,
            r#"{{"ok":true,"op":"batch-item","index":2,"d":4,"g":4,"slots":2}}"#
        )
        .unwrap();
        writeln!(socket, r#"{{"ok":true,"op":"pong"}}"#).unwrap();
        socket
    });
    let mut client = ServiceClient::connect(addr).unwrap();
    let err = client
        .batch(
            &[BatchItem {
                pi: vector_reversal(16),
                shape: None,
                faults: Vec::new(),
            }],
            false,
        )
        .unwrap_err();
    assert!(
        matches!(err, pops_service::ClientError::Protocol(_)),
        "{err}"
    );
    // The stray pong is still sitting unread; the client must refuse to
    // run another exchange on this connection.
    let err = client.ping().unwrap_err();
    assert!(matches!(err, pops_service::ClientError::Poisoned), "{err}");
    drop(fake.join().unwrap());
}

/// A mixed-topology wire batch: item lines come back in input order with
/// per-item shapes, bad items get per-item errors without poisoning their
/// siblings, and every returned schedule passes the referee.
#[test]
fn wire_batch_routes_mixed_topologies_in_input_order() {
    let router = small_router(4);
    let (addr, handle) = spawn_router_server(router, ServerConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();

    let mut rng = SplitMix64::new(0xBA7C);
    let mut items = Vec::new();
    for _round in 0..4 {
        for &(d, g) in &SHAPES {
            items.push(BatchItem {
                pi: random_permutation(d * g, &mut rng),
                shape: Some((d, g)),
                faults: Vec::new(),
            });
        }
    }
    // A default-shape item and a bad one (wrong length for its shape).
    items.push(BatchItem {
        pi: random_permutation(16, &mut rng),
        shape: None,
        faults: Vec::new(),
    });
    let bad_index = items.len();
    items.push(BatchItem {
        pi: random_permutation(9, &mut rng),
        shape: Some((2, 8)),
        faults: Vec::new(),
    });

    let reply = client.batch(&items, true).unwrap();
    assert_eq!(
        reply.items.len(),
        items.len(),
        "one line per item, in order"
    );
    for (index, (item, result)) in items.iter().zip(&reply.items).enumerate() {
        if index == bad_index {
            let err = result.as_ref().unwrap_err();
            assert_eq!(err.kind, "bad-request", "{}", err.message);
            continue;
        }
        let routed = result.as_ref().unwrap();
        let (d, g) = item.shape.unwrap_or((4, 4));
        assert_eq!((routed.d, routed.g), (d, g), "item {index} shape echoed");
        verify_permutation_schedule(PopsTopology::new(d, g), &routed.schedule, &item.pi);
    }
    assert_eq!(reply.summary.items, items.len());
    assert_eq!(reply.summary.routed, items.len() - 1);
    assert_eq!(reply.summary.failed, 1);
    assert_eq!(
        reply.summary.topologies.len(),
        3,
        "3 distinct shapes routed"
    );

    // The connection survives a batch exchange: plain ops still work.
    client.ping().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Truncation behaviour: a batch above the server's item cap is refused
/// whole with a `too-large` error — never silently truncated — and the
/// connection remains usable.
#[test]
fn oversized_batch_is_refused_whole_not_truncated() {
    let router = small_router(2);
    let (addr, handle) = spawn_router_server(
        router,
        ServerConfig {
            max_batch_items: 4,
            ..ServerConfig::default()
        },
    );
    let mut client = ServiceClient::connect(addr).unwrap();
    let mut rng = SplitMix64::new(0x7A7E);
    let items: Vec<BatchItem> = (0..5)
        .map(|_| BatchItem {
            pi: random_permutation(16, &mut rng),
            shape: None,
            faults: Vec::new(),
        })
        .collect();
    let err = client.batch(&items, false).unwrap_err();
    assert_eq!(err.remote_kind(), Some("too-large"), "{err}");
    assert!(err.to_string().contains("4-item cap"), "{err}");

    // Exactly at the cap is fine, and nothing was half-routed before.
    let reply = client.batch(&items[..4], false).unwrap();
    assert_eq!(reply.summary.routed, 4);
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("batch_plans").unwrap().as_u64(), Some(4));
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A batch spraying distinct shapes is refused whole at the
/// distinct-topology cap — one request line must not amplify into
/// hundreds of service constructions (or churn other clients' warm
/// shapes out of the registry).
#[test]
fn batch_shape_spray_is_refused_at_the_topology_cap() {
    let router = small_router(8);
    let (addr, handle) = spawn_router_server(
        router.clone(),
        ServerConfig {
            max_batch_topologies: 2,
            ..ServerConfig::default()
        },
    );
    let mut client = ServiceClient::connect(addr).unwrap();
    let items: Vec<BatchItem> = [(4usize, 4usize), (2, 8), (8, 2)]
        .iter()
        .map(|&(d, g)| BatchItem {
            pi: vector_reversal(d * g),
            shape: Some((d, g)),
            faults: Vec::new(),
        })
        .collect();
    let err = client.batch(&items, false).unwrap_err();
    assert_eq!(err.remote_kind(), Some("too-large"), "{err}");
    assert!(err.to_string().contains("2-topology cap"), "{err}");
    assert_eq!(
        router.stats().built,
        0,
        "the refusal must happen before any construction"
    );
    // Two shapes is fine.
    let reply = client.batch(&items[..2], false).unwrap();
    assert_eq!(reply.summary.routed, 2);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Batch items for a shape the router cannot admit (registry full of
/// pinned topologies) get per-item `topology-limit` errors while
/// admissible siblings still route.
#[test]
fn batch_reports_topology_limit_per_item() {
    let router = small_router(1); // only the pinned 4x4 default fits
    let (addr, handle) = spawn_router_server(router, ServerConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();
    let mut rng = SplitMix64::new(0x11FE);
    let items = vec![
        BatchItem {
            pi: random_permutation(16, &mut rng),
            shape: None,
            faults: Vec::new(),
        },
        BatchItem {
            pi: random_permutation(16, &mut rng),
            shape: Some((2, 8)),
            faults: Vec::new(),
        },
    ];
    let reply = client.batch(&items, false).unwrap();
    assert!(reply.items[0].is_ok(), "default shape routes");
    let err = reply.items[1].as_ref().unwrap_err();
    assert_eq!(err.kind, "topology-limit", "{}", err.message);
    assert_eq!(reply.summary.routed, 1);
    assert_eq!(reply.summary.failed, 1);

    // The single route op reports the same structured kind.
    let failure = client
        .route_permutation_on("theorem2", &vector_reversal(16), Some((2, 8)))
        .unwrap_err();
    assert_eq!(failure.remote_kind(), Some("topology-limit"), "{failure}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Warm restart across shapes: a `--cache-dir`-style shutdown spill
/// writes one file per topology, and a restarted server pinning the same
/// shapes answers its first repeats as hits on **every** shape. A file
/// for an unpinned shape is skipped (warn-and-skip), not fatal.
#[test]
fn warm_restart_restores_per_topology_caches_over_the_wire() {
    let dir = unique_temp_dir("multi-topology-warm");
    let config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let make_router = || {
        let router = small_router(4);
        router.pin(2, 8).unwrap();
        router.pin(3, 3).unwrap();
        router
    };
    let perms: Vec<((usize, usize), _)> = SHAPES
        .iter()
        .map(|&(d, g)| ((d, g), vector_reversal(d * g)))
        .collect();

    // First server: route one permutation per shape, save, shut down.
    let router = make_router();
    let (addr, handle) = spawn_router_server(router.clone(), config());
    let mut client = ServiceClient::connect(addr).unwrap();
    for ((d, g), pi) in &perms {
        let reply = client
            .route_permutation_on("theorem2", pi, Some((*d, *g)))
            .unwrap();
        assert!(!reply.cache_hit);
    }
    let saved = client.cache_op("save").unwrap();
    assert_eq!(saved.get("l1_entries").unwrap().as_u64(), Some(3));
    client.shutdown().unwrap();
    handle.join().unwrap();
    for &(d, g) in &SHAPES {
        assert!(
            dir.join(format!("plans-{d}x{g}.popscache")).exists(),
            "per-topology spill file for {d}x{g}"
        );
    }

    // Second server, same pins: explicit load, then every first repeat
    // hits — per-topology warmth survived the restart.
    let (addr, handle) = spawn_router_server(make_router(), config());
    let mut client = ServiceClient::connect(addr).unwrap();
    let loaded = client.cache_op("load").unwrap();
    assert_eq!(loaded.get("l1_entries").unwrap().as_u64(), Some(3));
    assert_eq!(loaded.get("skipped_files").unwrap().as_u64(), Some(0));
    for ((d, g), pi) in &perms {
        let reply = client
            .route_permutation_on("theorem2", pi, Some((*d, *g)))
            .unwrap();
        assert!(reply.cache_hit, "POPS({d}, {g}) must restart warm");
        verify_permutation_schedule(PopsTopology::new(*d, *g), &reply.schedule, pi);
    }
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Third server pins only the default: the foreign files are skipped
    // (warn-and-skip), the matching one still loads.
    let (addr, handle) = spawn_router_server(small_router(4), config());
    let mut client = ServiceClient::connect(addr).unwrap();
    let partial = client.cache_op("load").unwrap();
    assert_eq!(partial.get("l1_entries").unwrap().as_u64(), Some(1));
    assert_eq!(partial.get("skipped_files").unwrap().as_u64(), Some(2));
    let reply = client
        .route_permutation_on("theorem2", &vector_reversal(16), None)
        .unwrap();
    assert!(reply.cache_hit, "the pinned default still restarts warm");
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The raw wire framing of a batch: N+1 lines on one connection, items
/// strictly in input order, the summary last — asserted against the raw
/// protocol (no client decoding), plus schedule bodies only on request.
#[test]
fn raw_batch_framing_is_n_plus_one_lines_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let router = small_router(4);
    let (addr, handle) = spawn_router_server(router, ServerConfig::default());
    let mut socket = std::net::TcpStream::connect(addr).unwrap();
    let perm: Vec<String> = (0..16).rev().map(|i| i.to_string()).collect();
    let p = perm.join(",");
    writeln!(
        socket,
        r#"{{"op":"batch","items":[{{"perm":[{p}]}},{{"d":2,"g":8,"perm":[{p}]}},{{"perm":[0]}}]}}"#
    )
    .unwrap();
    socket.flush().unwrap();
    let mut reader = BufReader::new(socket.try_clone().unwrap());
    let mut read_doc = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim_end()).unwrap()
    };
    for expect in 0..3usize {
        let doc = read_doc();
        assert_eq!(doc.get("op").unwrap().as_str(), Some("batch-item"));
        assert_eq!(doc.get("index").unwrap().as_usize(), Some(expect));
        assert!(doc.get("schedule").is_none(), "no bodies unless asked");
        if expect == 2 {
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        }
    }
    let summary = read_doc();
    assert_eq!(summary.get("op").unwrap().as_str(), Some("batch"));
    assert_eq!(summary.get("items").unwrap().as_usize(), Some(3));
    assert_eq!(summary.get("routed").unwrap().as_usize(), Some(2));
    writeln!(socket, r#"{{"op":"shutdown"}}"#).unwrap();
    handle.join().unwrap();
}
