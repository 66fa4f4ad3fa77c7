//! The committed version-1 trace fixture (`tests/golden/trace-v1.jsonl`)
//! must stay readable by this build: every record re-encodes to its line
//! byte for byte, and the whole trace replays against an in-process
//! server with every returned schedule refereed on the simulator.
//!
//! The fixture was written by `pops serve --d 4 --g 4 --record` while a
//! raw-socket client sent one request of each recorded kind on both wire
//! formats: `theorem2`, `single-slot`, `direct`, `structured`, `faults`
//! and `h-relation` routes on the default shape (sent without `d`/`g`)
//! and on POPS(2, 8), a mixed-shape batch with one faulted item, and a
//! `cache stats` op.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pops_network::PopsTopology;
use pops_service::record::{encode_record, parse_trace};
use pops_service::{
    run_replay, serve_router, ReplayOptions, ServerConfig, ServiceClient, TopologyRouter,
    TopologyRouterConfig,
};

fn fixture() -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "golden", "trace-v1.jsonl"]
        .iter()
        .collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_committed_trace_re_encodes_byte_for_byte() {
    let text = fixture();
    let entries = parse_trace(&text).unwrap();
    let lines: Vec<&str> = text.lines().skip(1).filter(|l| !l.is_empty()).collect();
    assert_eq!(entries.len(), 28);
    assert_eq!(entries.len(), lines.len());
    for (entry, line) in entries.iter().zip(lines) {
        assert_eq!(encode_record(entry), line);
    }
}

#[test]
fn the_committed_trace_replays_cleanly() {
    let entries = parse_trace(&fixture()).unwrap();
    let router = Arc::new(TopologyRouter::new(
        PopsTopology::new(4, 4),
        TopologyRouterConfig {
            max_topologies: 2,
            ..TopologyRouterConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || serve_router(listener, router, ServerConfig::default()));
    let opts = ReplayOptions {
        clients: 1,
        verify: true,
        timeout: Some(Duration::from_secs(10)),
        ..ReplayOptions::default()
    };
    let report = run_replay(&addr.to_string(), &entries, &opts).unwrap();
    ServiceClient::connect(addr).unwrap().shutdown().unwrap();
    server.join().unwrap().unwrap();
    assert_eq!(report.sent, 28, "{}", report.render());
    assert_eq!(report.ok, 28, "{}", report.render());
    assert_eq!(report.failed, 0, "{}", report.render());
    assert_eq!(report.verify_failures, 0, "{}", report.render());
    assert_eq!(report.degraded, 4, "{}", report.render());
    for op in [
        "route:theorem2",
        "route:single-slot",
        "route:direct",
        "route:structured",
        "route:faults",
        "route:h-relation",
    ] {
        assert_eq!(report.per_op.get(op), Some(&4), "{}", report.render());
    }
    assert_eq!(report.per_op.get("batch"), Some(&2));
    assert_eq!(report.per_op.get("cache:stats"), Some(&2));
}
