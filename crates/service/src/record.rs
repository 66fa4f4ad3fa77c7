//! Workload **trace recording**: the versioned, append-only JSONL trace
//! format behind `pops serve --record <trace.jsonl>` and the standalone
//! `pops record` tee proxy, consumed by [`crate::replay`].
//!
//! # Trace format (version 1)
//!
//! A trace is a JSON-lines file. The first non-empty line is the header:
//!
//! ```text
//! {"pops-trace":1}
//! ```
//!
//! Every following non-empty line is one recorded request: `t_us`, `fmt`,
//! then the request as [`encode_request`] writes it — the protocol's own
//! request document, in its fixed key order, with the shape always
//! explicit:
//!
//! ```text
//! {"t_us":N,"fmt":"json","op":"route","d":4,"g":4,"kind":"theorem2","perm":[...]}
//! {"t_us":N,"fmt":"binary","op":"route","d":4,"g":4,"kind":"faults","perm":[...],"faults":[3,7]}
//! {"t_us":N,"fmt":"json","op":"route","d":4,"g":4,"kind":"h-relation","requests":[[0,5],...]}
//! {"t_us":N,"fmt":"json","op":"batch","items":[{"d":4,"g":4,"perm":[...],"faults":[1]},...]}
//! {"t_us":N,"fmt":"binary","op":"cache","action":"stats"}
//! ```
//!
//! `t_us` is the request's arrival offset in microseconds since the
//! recorder started — replay preserves inter-arrival gaps (divided by its
//! rate multiplier) relative to the first record. `fmt` is the wire
//! format the request arrived on ([`WireFormat`] names), which replay
//! preserves per request. Only *planning-relevant* ops are recorded —
//! `route`, `batch`, and `cache` — because control ops (`ping`, `info`,
//! `stats`) carry no workload and replaying a recorded `shutdown` would
//! kill the replay target.
//!
//! A record holds the protocol's decoded request ([`WireRequest`] of
//! [`RouteRequest`]), validated and canonicalised by [`record_op`]: a
//! route is valid for its shape, a `theorem2` or `faults` route is kind
//! `faults` exactly when its fault list is non-empty, and fault ids are
//! the sorted, deduped coupler ids the protocol layer already produced.
//! Recorded faults are the **request's own** fault declarations only — a
//! server-side `--fault` baseline is composition the replay target
//! re-applies itself, so traces port across baselines. A line loads if
//! and only if the recorder could have written it, so every loaded line
//! re-encodes byte for byte; anything else is refused at load time with a
//! line-numbered [`TraceError::Malformed`].
//!
//! Recording is a pure tee: it never alters what is parsed, routed, or
//! answered (see `docs/PROTOCOL.md`). A write failure increments a
//! dropped-record counter instead of failing the request.

use std::collections::BTreeSet;
use std::fmt;
use std::fs::OpenOptions;
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pops_network::PopsTopology;

use crate::frame;
use crate::json::Json;
use crate::metrics::RequestKind;
use crate::proto::{
    decode_message, decode_request, encode_request, RouteBody, RouteRequest, WireFormat,
    WireRequest,
};
use crate::server::{MessageReader, ReadOutcome};

/// The trace format version this build writes and the only one it reads.
pub const TRACE_VERSION: u64 = 1;

/// The header's single key.
const HEADER_KEY: &str = "pops-trace";

/// Largest `d * g` a recorded shape may declare — matches the CLI's
/// topology cap, and bounds the scratch topology [`record_op`] builds to
/// validate request bodies.
const MAX_RECORD_N: usize = 1 << 20;

/// Why a trace could not be read or parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be opened or read.
    Io(String),
    /// The first non-empty line is not a `{"pops-trace":N}` header.
    MissingHeader(String),
    /// The header declares a version this build does not speak.
    UnsupportedVersion(u64),
    /// A record line is not a valid version-1 record.
    Malformed {
        /// 1-based line number in the trace file.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::MissingHeader(reason) => {
                write!(
                    f,
                    "trace has no {{\"{HEADER_KEY}\":N}} header line: {reason}"
                )
            }
            TraceError::UnsupportedVersion(v) => write!(
                f,
                "trace version {v} is not supported (this build speaks version {TRACE_VERSION})"
            ),
            TraceError::Malformed { line, reason } => {
                write!(f, "trace line {line} is malformed: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One recorded request: when it arrived, on which wire format, and what
/// it asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedRequest {
    /// Arrival offset in microseconds since the recorder started.
    pub offset_us: u64,
    /// The wire format the request arrived on.
    pub format: WireFormat,
    /// The request itself, in the protocol's decoded form: a route, batch
    /// or cache request, as [`record_op`] leaves it.
    pub op: WireRequest<RouteRequest>,
}

/// The header line this build writes.
pub fn header_line() -> String {
    Json::Obj(vec![(HEADER_KEY.into(), Json::num(TRACE_VERSION as usize))]).to_string()
}

/// Parses a header line, returning the declared version (which must be
/// [`TRACE_VERSION`]).
pub fn parse_header(line: &str) -> Result<u64, TraceError> {
    let doc = Json::parse(line).map_err(|e| TraceError::MissingHeader(e.to_string()))?;
    let version = doc.get(HEADER_KEY).and_then(Json::as_u64).ok_or_else(|| {
        TraceError::MissingHeader(format!("missing integer field '{HEADER_KEY}'"))
    })?;
    if version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    Ok(version)
}

/// The topology of a recordable shape: positive, and within the record
/// cap.
fn record_topology(d: usize, g: usize) -> Result<PopsTopology, String> {
    match d.checked_mul(g) {
        Some(n) if d > 0 && g > 0 && n <= MAX_RECORD_N => Ok(PopsTopology::new(d, g)),
        _ => Err(format!(
            "shape {d}x{g} is outside the record cap: d, g > 0 and n <= {MAX_RECORD_N}"
        )),
    }
}

/// The trace record of a decoded request, as the recorder writes it, or
/// why a trace cannot hold it. Only route, batch and cache requests are
/// recorded. A route must be valid for `PopsTopology::new(d, g)` — the
/// server's own validation — and a batch must hold only valid items.
/// Two canonicalisations apply: a `theorem2` or `faults` route is kind
/// `faults` exactly when its fault list is non-empty, and `want_schedule`
/// takes the decoder's default (replay asks for schedules when it
/// verifies).
pub fn record_op(request: WireRequest<RouteRequest>) -> Result<WireRequest<RouteRequest>, String> {
    match request {
        WireRequest::Route { mut req, .. } => {
            let topology = record_topology(req.d, req.g)?;
            req.clone().service_request(&topology)?;
            if let Ok(RouteBody::Perm {
                kind: kind @ (RequestKind::Theorem2 | RequestKind::WithFaults),
                faults,
                ..
            }) = &mut req.body
            {
                *kind = match faults.is_empty() {
                    true => RequestKind::Theorem2,
                    false => RequestKind::WithFaults,
                };
            }
            Ok(WireRequest::Route {
                req,
                want_schedule: true,
            })
        }
        WireRequest::Batch { items, .. } => {
            if items.is_empty() {
                return Err("a batch record needs at least one item".into());
            }
            for item in &items {
                record_topology(item.d, item.g)?;
                item.perm.as_ref().map_err(|e| format!("batch item: {e}"))?;
            }
            Ok(WireRequest::Batch {
                items,
                want_schedule: false,
            })
        }
        WireRequest::Cache { action } => Ok(WireRequest::Cache { action }),
        _ => Err("only route, batch and cache requests are recorded".into()),
    }
}

/// Whether a record names its shapes: the recorder writes each resolved
/// `d` and `g`, so decoding a record never falls back to a default.
fn explicit_shapes(doc: &Json) -> bool {
    let shaped = |obj: &Json| obj.get("d").is_some() && obj.get("g").is_some();
    match doc.get("op").and_then(Json::as_str) {
        Some("route") => shaped(doc),
        _ => doc
            .get("items")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .all(shaped),
    }
}

/// Parses one record line (`line_no` is 1-based, for error reporting). A
/// line loads only if the recorder could have written it: its request
/// decodes with [`crate::proto::decode_request`], passes [`record_op`]
/// unchanged, and re-encodes to the same bytes.
pub fn parse_record(line_no: usize, line: &str) -> Result<RecordedRequest, TraceError> {
    let malformed = |reason: String| TraceError::Malformed {
        line: line_no,
        reason,
    };
    let doc = Json::parse(line).map_err(|e| malformed(e.to_string()))?;
    let offset_us = doc
        .get("t_us")
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed("missing integer field 't_us'".into()))?;
    let fmt_name = doc
        .get("fmt")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing string field 'fmt'".into()))?;
    let format = WireFormat::from_name(fmt_name)
        .ok_or_else(|| malformed(format!("unknown format '{fmt_name}' (json|binary)")))?;
    if !explicit_shapes(&doc) {
        return Err(malformed(
            "records name every shape with explicit 'd' and 'g'".into(),
        ));
    }
    // The shapes are explicit, so this default never applies.
    let op = decode_request(&doc, &PopsTopology::new(1, 1))
        .and_then(record_op)
        .map_err(malformed)?;
    let entry = RecordedRequest {
        offset_us,
        format,
        op,
    };
    if encode_record(&entry) != line {
        return Err(malformed(
            "not in the canonical form the recorder writes (fixed key order, fault \
             lists sorted and deduplicated, kind 'faults' exactly when the list is \
             non-empty)"
                .into(),
        ));
    }
    Ok(entry)
}

/// Encodes one record as its canonical single-line JSON form: `t_us` and
/// `fmt`, then the request as [`encode_request`] writes it, less the
/// `want_schedule` field a trace does not keep.
pub fn encode_record(entry: &RecordedRequest) -> String {
    let mut fields = vec![
        ("t_us".into(), Json::Num(entry.offset_us as f64)),
        ("fmt".into(), Json::str(entry.format.name())),
    ];
    if let Json::Obj(request) = encode_request(&entry.op) {
        fields.extend(
            request
                .into_iter()
                .filter(|(key, _)| key != "want_schedule"),
        );
    }
    Json::Obj(fields).to_string()
}

/// Parses a whole trace text: header first, then zero or more records.
/// Blank lines are skipped (append-friendly), anything else must parse.
pub fn parse_trace(text: &str) -> Result<Vec<RecordedRequest>, TraceError> {
    let mut entries = Vec::new();
    let mut saw_header = false;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            parse_header(line)?;
            saw_header = true;
            continue;
        }
        entries.push(parse_record(idx + 1, line)?);
    }
    if !saw_header {
        return Err(TraceError::MissingHeader("the trace is empty".into()));
    }
    Ok(entries)
}

/// Reads and parses a trace file.
pub fn read_trace(path: &Path) -> Result<Vec<RecordedRequest>, TraceError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    parse_trace(&text)
}

/// A thread-safe append-only trace writer. Each record is written and
/// flushed as one line, so a crashed server loses at most the record
/// being written; write failures increment [`TraceRecorder::dropped`]
/// instead of failing the request being served (recording never alters
/// wire behavior).
#[derive(Debug)]
pub struct TraceRecorder {
    started: Instant,
    out: Mutex<BufWriter<std::fs::File>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRecorder {
    /// Opens (or creates) `path` in append mode, writing the version
    /// header if the file is empty. Appending to an existing trace keeps
    /// its header; offsets restart from this recorder's start instant.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let fresh = file.metadata()?.len() == 0;
        let mut out = BufWriter::new(file);
        if fresh {
            writeln!(out, "{}", header_line())?;
            out.flush()?;
        }
        Ok(Self {
            started: Instant::now(),
            out: Mutex::new(out),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Appends the record of a decoded request as it arrived, if a trace
    /// can hold it ([`record_op`]). A batch keeps only the items that
    /// decoded on a recordable shape: the server answers the rest with
    /// per-item errors, so there is nothing of them to replay.
    pub fn tee(&self, format: WireFormat, mut request: WireRequest<RouteRequest>) {
        if let WireRequest::Batch { items, .. } = &mut request {
            items.retain(|item| item.perm.is_ok() && record_topology(item.d, item.g).is_ok());
        }
        if let Ok(op) = record_op(request) {
            self.record(format, op);
        }
    }

    /// Appends one record, stamped with the current offset.
    pub fn record(&self, format: WireFormat, op: WireRequest<RouteRequest>) {
        let entry = RecordedRequest {
            offset_us: self.started.elapsed().as_micros() as u64,
            format,
            op,
        };
        let text = encode_record(&entry);
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match writeln!(out, "{text}").and_then(|_| out.flush()) {
            Ok(()) => {
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records successfully written so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records lost to write failures so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// What a finished [`record_proxy`] loop saw.
#[derive(Debug, Clone, Copy)]
pub struct RecordProxySummary {
    /// Client connections proxied.
    pub connections: u64,
    /// Records successfully written to the trace.
    pub recorded: u64,
    /// Records lost to trace write failures.
    pub dropped: u64,
}

/// How long the proxy's accept loop sleeps between polls.
const PROXY_ACCEPT_POLL: Duration = Duration::from_millis(50);

/// Line/frame cap the proxy enforces while teeing (matches the server
/// default, so the proxy never accepts what the upstream would refuse by
/// a wide margin).
const PROXY_MAX_BYTES: usize = 16 << 20;

/// Most concurrent proxied connections.
const PROXY_MAX_CONNS: usize = 256;

/// The standalone recording tee behind `pops record`: accepts client
/// connections on `listener`, pipes each byte-for-byte to (and from) the
/// upstream server at `upstream`, and appends every decodable `route` /
/// `batch` / `cache` request to `recorder` on the way through. `default`
/// is the upstream's default topology (learned from its `info` op), used
/// to resolve requests that omit `d`/`g`.
///
/// The proxy reads and decodes requests with the server's own reader and
/// decoder and records them through the server's own
/// [`TraceRecorder::tee`], so it records what `pops serve --record` would
/// for the same traffic. It mirrors the
/// protocol's format negotiation: after a
/// `{"op":"hello","format":"binary"}` it reads frames. A
/// forwarded `{"op":"shutdown"}` also stops the proxy (after the upstream
/// acknowledges and closes). Undecodable requests are forwarded verbatim
/// and simply not recorded — the tee never rejects traffic.
pub fn record_proxy(
    listener: TcpListener,
    upstream: SocketAddr,
    default: PopsTopology,
    recorder: Arc<TraceRecorder>,
) -> std::io::Result<RecordProxySummary> {
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicU64::new(0));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut connections = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(PROXY_ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(PROXY_ACCEPT_POLL),
            Ok((client, _)) => {
                if live.load(Ordering::SeqCst) >= PROXY_MAX_CONNS as u64 {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                connections += 1;
                live.fetch_add(1, Ordering::SeqCst);
                let recorder = recorder.clone();
                let shutdown = shutdown.clone();
                let live_in_handler = live.clone();
                let spawned = std::thread::Builder::new()
                    .name("pops-record-conn".into())
                    .spawn(move || {
                        let _ = proxy_connection(client, upstream, &default, &recorder, &shutdown);
                        live_in_handler.fetch_sub(1, Ordering::SeqCst);
                    });
                match spawned {
                    Ok(join) => handles.push(join),
                    Err(_) => {
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                handles.retain(|h| !h.is_finished());
            }
        }
    }
    for join in handles {
        let _ = join.join();
    }
    Ok(RecordProxySummary {
        connections,
        recorded: recorder.recorded(),
        dropped: recorder.dropped(),
    })
}

/// Pipes one client connection through the upstream, recording decodable
/// requests on the way. The response direction is a raw byte pump — the
/// proxy never parses (or delays) responses.
fn proxy_connection(
    client: TcpStream,
    upstream: SocketAddr,
    default: &PopsTopology,
    recorder: &TraceRecorder,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    let pump = {
        let mut from_server = server.try_clone()?;
        let mut to_client = client.try_clone()?;
        std::thread::Builder::new()
            .name("pops-record-pump".into())
            .spawn(move || {
                let mut buf = [0u8; 8192];
                loop {
                    match from_server.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        // lint: allow(panic-freedom) -- n <= buf.len() by the Read contract
                        Ok(n) => {
                            if to_client.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = to_client.shutdown(Shutdown::Write);
            })?
    };
    let mut reader = MessageReader::new(client.try_clone()?);
    let mut to_server = server.try_clone()?;
    let mut framing = WireFormat::Json;
    while let ReadOutcome::Message(message) =
        reader.read_message(framing, PROXY_MAX_BYTES, None, shutdown)?
    {
        let mut next = framing;
        match decode_message(&message, framing, default).1 {
            Ok(WireRequest::Shutdown) => shutdown.store(true, Ordering::SeqCst),
            Ok(WireRequest::Hello { format }) if framing == WireFormat::Json => next = format,
            Ok(request) => recorder.tee(framing, request),
            Err(_) => {}
        }
        if framing == WireFormat::Json {
            to_server.write_all(&[message.as_slice(), b"\n"].concat())?;
        } else {
            frame::write_frame(&mut to_server, &message)?;
        }
        to_server.flush()?;
        framing = next;
    }
    // FIN the upstream so it can wind the connection down; the pump exits
    // on the resulting EOF.
    let _ = to_server.shutdown(Shutdown::Write);
    let _ = pump.join();
    Ok(())
}

/// Distinct `(d, g)` shapes a trace touches, in sorted order — soak
/// reporting and the CLI summarise topology churn with this.
pub fn trace_shapes(entries: &[RecordedRequest]) -> Vec<(usize, usize)> {
    let mut shapes: BTreeSet<(usize, usize)> = BTreeSet::new();
    for entry in entries {
        match &entry.op {
            WireRequest::Route { req, .. } => {
                shapes.insert((req.d, req.g));
            }
            WireRequest::Batch { items, .. } => {
                shapes.extend(items.iter().map(|item| (item.d, item.g)));
            }
            _ => {}
        }
    }
    shapes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{BatchItemRequest, CacheAction};
    use pops_permutation::families::vector_reversal;

    fn perm_route(d: usize, g: usize, kind: RequestKind, faults: Vec<usize>) -> RouteRequest {
        RouteRequest {
            d,
            g,
            body: Ok(RouteBody::Perm {
                kind,
                pi: vector_reversal(d * g),
                faults,
            }),
        }
    }

    fn sample_route() -> RecordedRequest {
        RecordedRequest {
            offset_us: 1234,
            format: WireFormat::Json,
            op: WireRequest::Route {
                req: perm_route(4, 4, RequestKind::WithFaults, vec![3, 7]),
                want_schedule: true,
            },
        }
    }

    #[test]
    fn records_round_trip_byte_stable() {
        let entries = vec![
            sample_route(),
            RecordedRequest {
                offset_us: 2000,
                format: WireFormat::Binary,
                op: WireRequest::Route {
                    req: RouteRequest {
                        d: 2,
                        g: 8,
                        body: Ok(RouteBody::HRelation(vec![(0, 5), (5, 0), (1, 1)])),
                    },
                    want_schedule: true,
                },
            },
            RecordedRequest {
                offset_us: 3000,
                format: WireFormat::Json,
                op: WireRequest::Batch {
                    items: vec![BatchItemRequest {
                        d: 4,
                        g: 4,
                        perm: Ok(vector_reversal(16)),
                        faults: vec![1],
                    }],
                    want_schedule: false,
                },
            },
            RecordedRequest {
                offset_us: 4000,
                format: WireFormat::Binary,
                op: WireRequest::Cache {
                    action: CacheAction::Stats,
                },
            },
        ];
        for entry in &entries {
            let text = encode_record(entry);
            let back = parse_record(1, &text).unwrap();
            assert_eq!(&back, entry);
            assert_eq!(encode_record(&back), text, "encode is canonical");
        }
    }

    #[test]
    fn lines_the_recorder_never_writes_are_malformed_at_their_line() {
        let perm16 = |head: &str| {
            let rest: Vec<String> = (0..16).rev().map(|v| v.to_string()).collect();
            format!("{head},\"perm\":[{}]", rest.join(","))
        };
        let route = |tail: &str| {
            format!("{{\"t_us\":1,\"fmt\":\"json\",\"op\":\"route\",\"d\":4,\"g\":4{tail}}}")
        };
        let bad = [
            // Not a bijection.
            r#"{"t_us":1,"fmt":"json","op":"route","d":2,"g":2,"kind":"theorem2","perm":[0,0,1,2]}"#.to_string(),
            // Coupler 99 does not exist on POPS(4, 4).
            route(&format!("{},\"faults\":[99]", perm16(",\"kind\":\"faults\""))),
            // Processor 500 does not exist on POPS(4, 4).
            route(r#","kind":"h-relation","requests":[[0,500]]"#),
            // The recorder writes fault lists sorted and deduplicated.
            route(&format!("{},\"faults\":[7,3,3]", perm16(",\"kind\":\"faults\""))),
            // A faulted route is recorded as kind 'faults'.
            route(&format!("{},\"faults\":[3]", perm16(",\"kind\":\"theorem2\""))),
            // An empty fault list is recorded as kind 'theorem2'.
            route(&format!("{},\"faults\":[]", perm16(",\"kind\":\"faults\""))),
            // Records name their shape.
            r#"{"t_us":1,"fmt":"json","op":"route","kind":"theorem2","perm":[0]}"#.to_string(),
            // Control ops are not recorded.
            r#"{"t_us":1,"fmt":"json","op":"ping"}"#.to_string(),
            // A batch holds only valid items.
            r#"{"t_us":1,"fmt":"json","op":"batch","items":[{"d":1,"g":2,"perm":[1,1]}]}"#.to_string(),
        ];
        // Case i follows i good records, so it sits on line i + 2.
        let mut text = header_line();
        for (i, line) in bad.iter().enumerate() {
            match parse_trace(&format!("{text}\n{line}\n")) {
                Err(TraceError::Malformed { line, .. }) if line == i + 2 => {}
                other => panic!(
                    "case {i} ({line}): expected Malformed at line {}, got {other:?}",
                    i + 2
                ),
            }
            text = format!("{text}\n{}", encode_record(&sample_route()));
        }
        // The canonical spelling of the same requests loads.
        let line = route(&format!(
            "{},\"faults\":[3,7]",
            perm16(",\"kind\":\"faults\"")
        ));
        assert_eq!(
            parse_record(1, &line).unwrap(),
            RecordedRequest {
                offset_us: 1,
                ..sample_route()
            }
        );
    }

    #[test]
    fn header_round_trips_and_wrong_versions_are_refused() {
        assert_eq!(parse_header(&header_line()).unwrap(), TRACE_VERSION);
        assert_eq!(
            parse_header("{\"pops-trace\":99}"),
            Err(TraceError::UnsupportedVersion(99))
        );
        assert!(matches!(
            parse_header("{\"something\":1}"),
            Err(TraceError::MissingHeader(_))
        ));
    }

    #[test]
    fn trace_without_header_is_refused() {
        let record = encode_record(&sample_route());
        assert!(matches!(
            parse_trace(&record),
            Err(TraceError::MissingHeader(_))
        ));
        let with_header = format!("{}\n{record}\n", header_line());
        assert_eq!(parse_trace(&with_header).unwrap().len(), 1);
    }

    #[test]
    fn empty_fault_sets_canonicalise_to_theorem2() {
        let request = WireRequest::Route {
            req: perm_route(4, 4, RequestKind::WithFaults, Vec::new()),
            want_schedule: false,
        };
        let expected = WireRequest::Route {
            req: perm_route(4, 4, RequestKind::Theorem2, Vec::new()),
            want_schedule: true,
        };
        assert_eq!(record_op(request), Ok(expected));
    }

    #[test]
    fn batches_record_only_items_a_trace_can_hold() {
        let doc = Json::parse(
            r#"{"op":"batch","items":[{"d":0,"g":5,"perm":[]},{"d":1,"g":2,"perm":[1,0]}]}"#,
        )
        .unwrap();
        let Ok(request @ WireRequest::Batch { .. }) =
            crate::proto::decode_request(&doc, &PopsTopology::new(4, 4))
        else {
            panic!("batch must decode");
        };
        assert!(
            record_op(request.clone()).is_err(),
            "a 0x5 item has no record"
        );
        let dir = std::env::temp_dir().join(format!(
            "pops-record-batch-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        TraceRecorder::create(&path)
            .unwrap()
            .tee(WireFormat::Json, request);
        match &read_trace(&path).unwrap()[..] {
            [RecordedRequest {
                op: WireRequest::Batch { items, .. },
                ..
            }] => assert_eq!((items.len(), items[0].d), (1, 1)),
            other => panic!("expected one batch record, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorder_writes_header_once_and_appends() {
        let dir = std::env::temp_dir().join(format!(
            "pops-record-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        {
            let rec = TraceRecorder::create(&path).unwrap();
            rec.record(WireFormat::Json, sample_route().op);
            assert_eq!(rec.recorded(), 1);
            assert_eq!(rec.dropped(), 0);
        }
        {
            let rec = TraceRecorder::create(&path).unwrap();
            rec.record(
                WireFormat::Binary,
                WireRequest::Cache {
                    action: CacheAction::Stats,
                },
            );
        }
        let entries = read_trace(&path).unwrap();
        assert_eq!(entries.len(), 2, "append keeps the single header");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().filter(|l| l.contains("pops-trace")).count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_proxy_records_what_the_server_tee_records() {
        use crate::client::{BatchItem, ServiceClient};
        use crate::router::{TopologyRouter, TopologyRouterConfig};
        use crate::server::{serve_router, ServerConfig};

        let dir = std::env::temp_dir().join(format!(
            "pops-proxy-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (server_trace, proxy_trace) = (dir.join("server.jsonl"), dir.join("proxy.jsonl"));

        // A server teeing its own trace, and the proxy in front of it.
        let default = PopsTopology::new(4, 4);
        let router = TopologyRouter::new(
            default,
            TopologyRouterConfig {
                max_topologies: 2,
                ..TopologyRouterConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let config = ServerConfig {
            record_path: Some(server_trace.clone()),
            ..ServerConfig::default()
        };
        let server = std::thread::spawn(move || serve_router(listener, Arc::new(router), config));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy_addr = listener.local_addr().unwrap();
        let recorder = Arc::new(TraceRecorder::create(&proxy_trace).unwrap());
        let proxy = std::thread::spawn(move || record_proxy(listener, upstream, default, recorder));

        let pi = vector_reversal(16);
        let item = |shape, faults| BatchItem {
            pi: pi.clone(),
            shape,
            faults,
        };
        let mut client = ServiceClient::connect(proxy_addr).unwrap();
        // JSON lines: a cache op and a faulted mixed-shape batch.
        client.cache_op("stats").unwrap();
        let items = [item(None, vec![]), item(Some((2, 8)), vec![3])];
        client.batch(&items, false).unwrap();
        // Binary frames: a dense route, a faulted TAG_JSON route, a dense
        // batch, a dense route on an explicit shape and a cache op.
        client.set_format(WireFormat::Binary).unwrap();
        client.route_permutation("theorem2", &pi).unwrap();
        client
            .route_permutation_with_faults("faults", &pi, None, &[1, 6])
            .unwrap();
        client
            .batch(&[item(None, vec![]), item(Some((2, 8)), vec![])], false)
            .unwrap();
        client
            .route_permutation_on("theorem2", &pi, Some((2, 8)))
            .unwrap();
        client.cache_op("stats").unwrap();
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
        let summary = proxy.join().unwrap().unwrap();
        assert_eq!(summary.dropped, 0);

        let ops = |path: &Path| -> Vec<(WireFormat, WireRequest<RouteRequest>)> {
            let entries = read_trace(path).unwrap();
            entries.into_iter().map(|e| (e.format, e.op)).collect()
        };
        let (served, proxied) = (ops(&server_trace), ops(&proxy_trace));
        assert_eq!(served.len(), 7, "{served:?}");
        assert_eq!(proxied, served);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
