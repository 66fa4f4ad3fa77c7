//! End-to-end property test of the dense request path: a random
//! permutation on a random shape (d > g, d < g and d = 1) is sent to a
//! live server as a `TAG_ROUTE` frame, and goes through the server's
//! decode, the plan cache, the engine and the reply encoder before the
//! client decodes it. Every reply must
//!
//! - meet the paper's slot bound: 1 slot when d = 1, else 2⌈d/g⌉;
//! - run on the conflict-checking [`Simulator`] and deliver the
//!   permutation;
//! - repeat as a cache hit whose schedule bytes equal the miss's.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use pops_bipartite::ColorerKind;
use pops_network::{PopsTopology, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::frame::{
    decode_route_reply, encode_route_request, read_frame, write_frame, TAG_ROUTE_REPLY,
};
use pops_service::{
    serve_router, RequestKind, ServerConfig, ServiceConfig, TopologyRouter, TopologyRouterConfig,
};

/// Bytes of a route reply before its schedule body: tag, flags, slot
/// count and service time.
const REPLY_HEADER: usize = 14;

/// One server for the whole run; each request names its own shape, which
/// the router admits on first use.
fn server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let router = TopologyRouter::new(
            PopsTopology::new(4, 4),
            TopologyRouterConfig {
                service: ServiceConfig {
                    shards: 1,
                    cache_capacity: 64,
                    phase_cache_capacity: 64,
                    cache_shards: 2,
                    max_in_flight: 2,
                    colorer: ColorerKind::AlternatingPath,
                },
                max_topologies: 64,
                max_n: 1 << 12,
            },
        );
        std::thread::spawn(move || {
            serve_router(listener, Arc::new(router), ServerConfig::default()).unwrap()
        });
        addr
    })
}

/// A connection that negotiated the binary framing.
fn binary_connection() -> TcpStream {
    let mut stream = TcpStream::connect(server()).unwrap();
    stream
        .write_all(b"{\"op\":\"hello\",\"format\":\"binary\"}\n")
        .unwrap();
    let mut ack = String::new();
    BufReader::new(&stream).read_line(&mut ack).unwrap();
    assert!(ack.contains("\"format\":\"binary\""), "{ack}");
    stream
}

/// Sends one dense route request and returns the reply payload.
fn route(
    stream: &mut TcpStream,
    d: usize,
    g: usize,
    pi: &pops_permutation::Permutation,
) -> Vec<u8> {
    let request = encode_route_request(RequestKind::Theorem2, true, Some((d, g)), pi);
    write_frame(stream, &request).unwrap();
    let reply = read_frame(stream, 1 << 24).unwrap();
    assert_eq!(
        reply.first(),
        Some(&TAG_ROUTE_REPLY),
        "{:?}",
        &reply[..reply.len().min(64)]
    );
    reply
}

/// A shape and permutation a case has sent.
type Routed = (usize, usize, Vec<usize>);

/// A shape of the given class: 0 is d > g, 1 is d < g, 2 is d = 1.
fn shape(class: usize, a: usize, b: usize) -> (usize, usize) {
    match class {
        0 => (b + a, b),
        1 => (b, b + a),
        _ => (1, a + b - 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn served_plans_meet_the_bound_run_and_repeat_byte_for_byte(
        class in 0usize..3,
        a in 1usize..4,
        b in 1usize..5,
        seed in any::<u64>(),
    ) {
        static ROUTED: Mutex<Vec<Routed>> = Mutex::new(Vec::new());
        let (d, g) = shape(class, a, b);
        let t = PopsTopology::new(d, g);
        let pi = random_permutation(t.n(), &mut SplitMix64::new(seed));
        let routed = (d, g, pi.as_slice().to_vec());
        let mut earlier = ROUTED.lock().unwrap();
        let fresh = !earlier.contains(&routed);
        earlier.push(routed);
        drop(earlier);

        let mut stream = binary_connection();
        let first = route(&mut stream, d, g, &pi);
        let again = route(&mut stream, d, g, &pi);
        let (miss, hit) = (
            decode_route_reply(&first[1..]).unwrap(),
            decode_route_reply(&again[1..]).unwrap(),
        );
        // A permutation an earlier case already routed is a hit at once.
        prop_assert_eq!(miss.cache_hit, !fresh);
        prop_assert!(hit.cache_hit);

        let bound = if d == 1 { 1 } else { 2 * d.div_ceil(g) };
        prop_assert_eq!(miss.slots, bound);
        prop_assert_eq!(miss.schedule.slot_count(), bound);
        let mut sim = Simulator::with_unit_packets(t);
        prop_assert!(sim.execute_schedule(&miss.schedule).is_ok(), "POPS({}, {})", d, g);
        prop_assert!(sim.verify_delivery(pi.as_slice()).is_ok(), "POPS({}, {})", d, g);

        // The hit's reply carries the miss's schedule bytes, from the cache.
        prop_assert_eq!(hit.slots, miss.slots);
        prop_assert_eq!(&again[REPLY_HEADER..], &first[REPLY_HEADER..]);
        prop_assert_eq!(hit.schedule, miss.schedule);
    }
}
