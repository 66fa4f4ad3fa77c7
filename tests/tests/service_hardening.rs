//! Hostile-client tests of the hardened JSON-lines server: slow-loris
//! writers, unterminated and oversized frames, connection caps, client
//! EOF semantics, and shutdown-under-load drain (join) semantics.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pops_bipartite::ColorerKind;
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::{
    serve_with_config, ClientError, Counter, Json, RoutingService, ServerConfig, ServerSummary,
    ServiceClient, ServiceConfig,
};

/// Spawns a hardened server, returning its address, a service handle
/// (for metrics assertions after shutdown), and the serve-thread handle.
fn spawn_server(
    topology: PopsTopology,
    service_config: ServiceConfig,
    server_config: ServerConfig,
) -> (
    SocketAddr,
    Arc<RoutingService>,
    std::thread::JoinHandle<ServerSummary>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(RoutingService::with_config(topology, service_config));
    let served = service.clone();
    let handle =
        std::thread::spawn(move || serve_with_config(listener, served, server_config).unwrap());
    (addr, service, handle)
}

fn small_service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        cache_capacity: 16,
        max_in_flight: 4,
        colorer: ColorerKind::AlternatingPath,
        ..ServiceConfig::default()
    }
}

/// Reads one response line from a raw socket (10 s client-side guard so a
/// broken server cannot hang the test) and parses it.
fn read_response(stream: &TcpStream) -> Json {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    Json::parse(line.trim_end()).unwrap()
}

fn error_kind(doc: &Json) -> &str {
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false), "{doc}");
    doc.get("kind").unwrap().as_str().unwrap()
}

/// After an orderly shutdown every handler must have been joined: the
/// opened/closed connection counters agree and none leaked. Connection-
/// layer counters live in the server's own registry, reported through the
/// summary's fleet-wide aggregate snapshot.
fn assert_all_handlers_drained(summary: &ServerSummary) {
    let snap = &summary.metrics;
    assert_eq!(
        snap.active_connections(),
        0,
        "handlers leaked: {} opened, {} closed",
        snap.get(Counter::ConnsOpened),
        snap.get(Counter::ConnsClosed)
    );
}

#[test]
fn slow_loris_writer_is_timed_out_within_budget() {
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(2, 2),
        small_service_config(),
        ServerConfig {
            read_timeout: Some(Duration::from_millis(300)),
            ..ServerConfig::default()
        },
    );

    let victim = TcpStream::connect(addr).unwrap();
    let mut dripper = victim.try_clone().unwrap();
    // Drip a byte every 40 ms, never sending the newline: each individual
    // read succeeds quickly, so only a whole-line deadline can stop us.
    let writer = std::thread::spawn(move || {
        for byte in br#"{"op":"ping"}"#.iter().cycle().take(100) {
            if dripper.write_all(&[*byte]).is_err() {
                break; // server closed us — expected
            }
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    let start = Instant::now();
    let response = read_response(&victim);
    let elapsed = start.elapsed();
    assert_eq!(error_kind(&response), "timeout", "{response}");
    assert!(
        elapsed >= Duration::from_millis(250) && elapsed < Duration::from_secs(5),
        "timed out after {elapsed:?}, budget was 300ms"
    );
    writer.join().unwrap();

    // The server shrugged it off and still serves.
    let mut client = ServiceClient::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.metrics.get(Counter::ReadTimeouts), 1);
    assert_all_handlers_drained(&summary);
}

#[test]
fn unterminated_line_is_rejected_at_the_cap_not_buffered() {
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(2, 2),
        small_service_config(),
        ServerConfig {
            max_line_bytes: 2048,
            ..ServerConfig::default()
        },
    );

    // A would-be 100 MB line: the server must reject it after ~2 KiB, so
    // only a few chunks ever leave this loop before the socket dies.
    let attacker = TcpStream::connect(addr).unwrap();
    let mut writer = attacker.try_clone().unwrap();
    let chunk = vec![b'A'; 4096];
    let pusher = std::thread::spawn(move || {
        let mut sent = 0usize;
        for _ in 0..64 {
            match writer.write(&chunk) {
                Ok(n) => sent += n,
                Err(_) => break, // server closed the read side — expected
            }
        }
        sent
    });

    let start = Instant::now();
    let response = read_response(&attacker);
    assert_eq!(error_kind(&response), "too-large", "{response}");
    assert!(start.elapsed() < Duration::from_secs(5));
    let sent = pusher.join().unwrap();
    assert!(sent > 2048, "cap must trigger, got only {sent} bytes out");

    let mut client = ServiceClient::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.metrics.get(Counter::OversizedLines), 1);
    assert_all_handlers_drained(&summary);
}

#[test]
fn oversized_terminated_frame_gets_a_structured_error() {
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(2, 2),
        small_service_config(),
        ServerConfig {
            max_line_bytes: 1024,
            ..ServerConfig::default()
        },
    );

    let mut socket = TcpStream::connect(addr).unwrap();
    let mut frame = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(4000)).into_bytes();
    frame.push(b'\n');
    // The cap may close the socket before we finish writing; that is fine.
    let _ = socket.write_all(&frame);
    let response = read_response(&socket);
    assert_eq!(error_kind(&response), "too-large", "{response}");
    // A well-sized request on a fresh connection still works: the limit
    // is per-line, not a poisoned server.
    let mut client = ServiceClient::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_all_handlers_drained(&summary);
}

#[test]
fn post_error_dripper_cannot_pin_the_handler_or_hang_shutdown() {
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(2, 2),
        small_service_config(),
        ServerConfig {
            max_line_bytes: 512,
            ..ServerConfig::default()
        },
    );

    // Trip the cap, then keep dripping bytes forever: the post-error
    // drain must give up on its own budget, not follow the drip.
    let attacker = TcpStream::connect(addr).unwrap();
    let mut dripper = attacker.try_clone().unwrap();
    dripper.write_all(&[b'B'; 1024]).unwrap();
    let response = read_response(&attacker);
    assert_eq!(error_kind(&response), "too-large", "{response}");
    let drip = std::thread::spawn(move || {
        for _ in 0..100 {
            if dripper.write_all(b"B").is_err() {
                break; // server finished draining and closed — expected
            }
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    // Shutdown must complete promptly even with the dripper still going.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = ServiceClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    let start = Instant::now();
    let summary = handle.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung {:?} behind a dripping client",
        start.elapsed()
    );
    assert_all_handlers_drained(&summary);
    drip.join().unwrap();
}

#[test]
fn dripping_client_cannot_stall_shutdown_even_with_timeouts_disabled() {
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(2, 2),
        small_service_config(),
        ServerConfig {
            read_timeout: None, // "0 disables" — the drain must still work
            ..ServerConfig::default()
        },
    );

    // Drip a byte every 40 ms without a newline: with no read deadline,
    // only the mid-line shutdown check can free this handler.
    let victim = TcpStream::connect(addr).unwrap();
    let mut dripper = victim.try_clone().unwrap();
    let drip = std::thread::spawn(move || {
        for _ in 0..200 {
            if dripper.write_all(b"x").is_err() {
                break; // server drained and closed — expected
            }
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    std::thread::sleep(Duration::from_millis(150));
    let mut client = ServiceClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    let start = Instant::now();
    let summary = handle.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung {:?} behind a dripping client with timeouts off",
        start.elapsed()
    );
    assert_all_handlers_drained(&summary);
    drip.join().unwrap();
}

#[test]
fn connection_cap_rejects_excess_clients_with_unavailable() {
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(2, 2),
        small_service_config(),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );

    let mut first = ServiceClient::connect(addr).unwrap();
    first.ping().unwrap(); // registered and live
    let mut second = ServiceClient::connect(addr).unwrap();
    let err = second.ping().unwrap_err();
    assert_eq!(err.remote_kind(), Some("unavailable"), "{err}");

    // The first client is unaffected; capacity frees when it leaves.
    first.ping().unwrap();
    first.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.metrics.get(Counter::ConnsRejected), 1);
    assert_all_handlers_drained(&summary);
}

#[test]
fn shutdown_under_load_drains_every_in_flight_response() {
    const CLIENTS: usize = 8;
    // One shard, one admission slot, no cache: the eight requests compute
    // serially, so shutdown lands while most are still queued in-flight.
    let topology = PopsTopology::new(64, 64);
    let (addr, service, handle) = spawn_server(
        topology,
        ServiceConfig {
            shards: 1,
            cache_capacity: 0,
            max_in_flight: 1,
            colorer: ColorerKind::AlternatingPath,
            ..ServiceConfig::default()
        },
        ServerConfig::default(),
    );

    let sent = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let sent = sent.clone();
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(1000 + i as u64);
                let pi = random_permutation(topology.n(), &mut rng);
                let image: Vec<String> = pi.as_slice().iter().map(|v| v.to_string()).collect();
                let line = format!(
                    r#"{{"op":"route","kind":"theorem2","perm":[{}],"want_schedule":false}}"#,
                    image.join(",")
                );
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                writer.write_all(line.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
                writer.flush().unwrap();
                sent.fetch_add(1, Ordering::SeqCst);
                // The response must arrive complete even though shutdown
                // races in while we are in flight.
                let response = read_response(&stream);
                assert_eq!(
                    response.get("ok").unwrap().as_bool(),
                    Some(true),
                    "{response}"
                );
                assert!(response.get("slots").unwrap().as_usize().unwrap() >= 1);
            })
        })
        .collect();

    // Wait until every request is on the wire, give the handlers a beat
    // to pick them up (raising their busy flags), then pull the plug.
    while sent.load(Ordering::SeqCst) < CLIENTS {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut terminator = ServiceClient::connect(addr).unwrap();
    terminator.shutdown().unwrap();

    // serve() must not return until every handler finished its response:
    // the snapshot taken the instant it returns already shows all eight
    // routes served and no live handler threads.
    let summary = handle.join().unwrap();
    let snap = service.metrics();
    assert_eq!(
        snap.get(Counter::Misses),
        CLIENTS as u64,
        "shutdown returned before all in-flight requests were served"
    );
    assert_eq!(snap.get(Counter::Errors), 0);
    assert_all_handlers_drained(&summary);

    for worker in workers {
        worker.join().unwrap();
    }
}

/// One `GET /metrics` scrape of the main listener, read to EOF.
fn scrape_metrics(addr: SocketAddr) -> String {
    use std::io::Read as _;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut page = String::new();
    stream.read_to_string(&mut page).unwrap();
    page
}

#[test]
fn overload_watermark_sheds_typed_errors_and_drops_nothing() {
    const WORKERS: usize = 4;
    const REQUESTS: usize = 8;
    // No cache, one shard, and a large topology: every admitted request
    // spends milliseconds in service, so concurrent clients reliably pile
    // onto the watermark while a plan is being computed.
    let topology = PopsTopology::new(64, 64);
    let (addr, _service, handle) = spawn_server(
        topology,
        ServiceConfig {
            shards: 1,
            cache_capacity: 0,
            max_in_flight: 4,
            colorer: ColorerKind::AlternatingPath,
            ..ServiceConfig::default()
        },
        ServerConfig {
            overload_watermark: Some(1),
            ..ServerConfig::default()
        },
    );

    let workers: Vec<_> = (0..WORKERS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(7000 + i as u64);
                let mut client = ServiceClient::connect(addr).unwrap();
                let (mut admitted, mut shed) = (0u64, 0u64);
                let mut latencies = Vec::new();
                for _ in 0..REQUESTS {
                    let pi = random_permutation(topology.n(), &mut rng);
                    let start = Instant::now();
                    match client.route_permutation("theorem2", &pi) {
                        Ok(reply) => {
                            assert!(reply.slots >= 1);
                            latencies.push(start.elapsed());
                            admitted += 1;
                        }
                        Err(e) => {
                            // Every rejection is the typed overload error
                            // with a usable back-off hint — nothing is
                            // dropped on the floor and nothing else leaks
                            // through.
                            assert_eq!(e.remote_kind(), Some("overloaded"), "{e}");
                            assert!(e.retry_after_ms().unwrap() >= 1, "{e}");
                            shed += 1;
                        }
                    }
                }
                (admitted, shed, latencies)
            })
        })
        .collect();

    let (mut admitted, mut shed) = (0u64, 0u64);
    let mut latencies = Vec::new();
    for worker in workers {
        let (a, s, l) = worker.join().unwrap();
        admitted += a;
        shed += s;
        latencies.extend(l);
    }
    // Zero dropped: every request got exactly one complete response.
    assert_eq!(admitted + shed, (WORKERS * REQUESTS) as u64);
    assert!(shed >= 1, "watermark 1 under {WORKERS} clients must shed");
    assert!(admitted >= 1, "some requests must get through");
    // Shedding keeps the admitted path bounded — no unbounded queueing
    // behind the watermark (bound is deliberately loose for slow CI).
    latencies.sort();
    let p99 = latencies[((latencies.len() as f64 * 0.99) as usize).min(latencies.len() - 1)];
    assert!(p99 < Duration::from_secs(5), "admitted p99 {p99:?}");

    // The shed counts surface identically in the stats op and on the
    // Prometheus page, with their cause labels.
    let mut client = ServiceClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let sheds = stats.get("sheds").unwrap();
    assert_eq!(sheds.get("watermark").unwrap().as_u64(), Some(shed));
    assert_eq!(sheds.get("quota").unwrap().as_u64(), Some(0));
    assert_eq!(sheds.get("total").unwrap().as_u64(), Some(shed));
    let wire_errors = stats.get("wire_errors").unwrap();
    assert_eq!(wire_errors.get("overloaded").unwrap().as_u64(), Some(shed));
    let page = scrape_metrics(addr);
    assert!(
        page.contains(&format!("pops_sheds_total{{cause=\"watermark\"}} {shed}")),
        "{page}"
    );
    assert!(
        page.contains(r#"pops_sheds_total{cause="quota"} 0"#),
        "{page}"
    );
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_all_handlers_drained(&summary);
}

#[test]
fn a_generous_slow_threshold_never_emits_traces() {
    let (addr, _service, handle) = spawn_server(
        PopsTopology::new(2, 2),
        small_service_config(),
        ServerConfig {
            slow_threshold: Some(Duration::from_secs(3600)),
            ..ServerConfig::default()
        },
    );
    let mut client = ServiceClient::connect(addr).unwrap();
    for _ in 0..5 {
        client.ping().unwrap();
    }
    // Sub-threshold requests never reach the slow log — neither emitted
    // nor suppressed — but their responses still carry trace ids.
    let doc = client.call_raw(r#"{"op":"ping"}"#).unwrap();
    assert!(doc.get("trace").is_some(), "{doc}");
    let stats = client.stats().unwrap();
    let slow = stats.get("slow_traces").unwrap();
    assert_eq!(slow.get("emitted").unwrap().as_u64(), Some(0));
    assert_eq!(slow.get("suppressed").unwrap().as_u64(), Some(0));
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_all_handlers_drained(&summary);
}

#[test]
fn client_distinguishes_clean_eof_from_truncated_response() {
    // Clean EOF: the "server" reads the request, then closes without
    // answering.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let eof_server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        // stream dropped: clean close before any response byte.
    });
    let mut client = ServiceClient::connect(addr).unwrap();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::Disconnected), "{err:?}");
    eof_server.join().unwrap();

    // Truncated: the "server" answers with half a line and dies mid-way.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let truncating_server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut writer = stream;
        writer.write_all(br#"{"ok":true,"op":"po"#).unwrap();
        writer.flush().unwrap();
        // dropped: the line never gets its newline.
    });
    let mut client = ServiceClient::connect(addr).unwrap();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::Truncated), "{err:?}");
    truncating_server.join().unwrap();
}

#[test]
fn client_timeout_surfaces_as_timed_out_not_a_hang() {
    // A listener that accepts and then ignores the client entirely.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Keep the socket open (and silent) until the client gives up
        // and closes its end.
        let mut reader = stream;
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    let mut client =
        ServiceClient::connect_with_timeout(addr, Some(Duration::from_millis(250))).unwrap();
    let start = Instant::now();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::TimedOut), "{err:?}");
    assert!(start.elapsed() < Duration::from_secs(10));
    // The timed-out exchange poisons the connection: a retry on the same
    // client must fail fast instead of reading a stale response.
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::Poisoned), "{err:?}");
    drop(client);
    hold.join().unwrap();
}
