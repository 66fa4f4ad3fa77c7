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
//! Every following non-empty line is one recorded request with a fixed,
//! canonical field order (so encode → decode → encode is byte-stable):
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
//! Two canonicalisations happen at record time: a `theorem2` route whose
//! effective request-level fault set is empty is recorded as plain
//! `theorem2` (and a `faults`-kind request with an empty list likewise),
//! so `kind == "faults"` always carries a non-empty `faults` array; and
//! fault ids are the sorted, deduped coupler ids the protocol layer
//! already produced. Recorded faults are the **request's own** fault
//! declarations only — a server-side `--fault` baseline is composition
//! the replay target re-applies itself, so traces port across baselines.
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
    decode_message, BatchItemRequest, CacheAction, RouteRequest, WireFormat, WireRequest,
};
use crate::server::{MessageReader, ReadOutcome};
use crate::service::ServiceRequest;

/// The trace format version this build writes and the only one it reads.
pub const TRACE_VERSION: u64 = 1;

/// The header's single key.
const HEADER_KEY: &str = "pops-trace";

/// Largest `d * g` a recorded shape may declare — matches the CLI's
/// topology cap, and bounds the scratch topology the proxy builds to
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

/// One item of a recorded batch request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedBatchItem {
    /// Processors per group of the item's topology.
    pub d: usize,
    /// Number of groups of the item's topology.
    pub g: usize,
    /// The permutation image.
    pub perm: Vec<usize>,
    /// The item's declared failed couplers (sorted, deduped; empty =
    /// healthy).
    pub faults: Vec<usize>,
}

/// The operation one trace record replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordedOp {
    /// One `route` request.
    Route {
        /// Processors per group of the request's topology.
        d: usize,
        /// Number of groups of the request's topology.
        g: usize,
        /// The routing kind.
        kind: RequestKind,
        /// The permutation image (empty for h-relations).
        perm: Vec<usize>,
        /// The `(source, destination)` pairs of an h-relation (empty for
        /// permutation kinds).
        requests: Vec<(usize, usize)>,
        /// Request-level failed couplers (sorted, deduped; non-empty
        /// exactly when `kind` is [`RequestKind::WithFaults`]).
        faults: Vec<usize>,
    },
    /// One `batch` request.
    Batch {
        /// The batch's items, in submission order.
        items: Vec<RecordedBatchItem>,
    },
    /// One `cache` management request.
    Cache {
        /// The cache action ([`CacheAction`] wire name).
        action: CacheAction,
    },
}

/// One recorded request: when it arrived, on which wire format, and what
/// it asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedRequest {
    /// Arrival offset in microseconds since the recorder started.
    pub offset_us: u64,
    /// The wire format the request arrived on.
    pub format: WireFormat,
    /// The operation itself.
    pub op: RecordedOp,
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

fn usize_array(value: &Json, field: &str) -> Result<Vec<usize>, String> {
    let arr = value
        .as_arr()
        .ok_or_else(|| format!("field '{field}' must be an array"))?;
    arr.iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| format!("field '{field}' must hold non-negative integers"))
        })
        .collect()
}

fn pair_array(value: &Json) -> Result<Vec<(usize, usize)>, String> {
    let arr = value
        .as_arr()
        .ok_or("field 'requests' must be an array of [src, dst] pairs")?;
    arr.iter()
        .map(|entry| {
            entry
                .as_arr()
                .filter(|p| p.len() == 2)
                .and_then(|p| Some((p.first()?.as_usize()?, p.get(1)?.as_usize()?)))
                .ok_or_else(|| "field 'requests' entries must be [src, dst] pairs".to_string())
        })
        .collect()
}

fn shape_fields(doc: &Json) -> Result<(usize, usize), String> {
    let field = |name: &str| {
        doc.get(name)
            .and_then(Json::as_usize)
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("field '{name}' must be a positive integer"))
    };
    let (d, g) = (field("d")?, field("g")?);
    match d.checked_mul(g) {
        Some(n) if n <= MAX_RECORD_N => Ok((d, g)),
        _ => Err(format!(
            "shape {d}x{g} exceeds the n <= {MAX_RECORD_N} record cap"
        )),
    }
}

fn parse_record_body(doc: &Json) -> Result<RecordedRequest, String> {
    let offset_us = doc
        .get("t_us")
        .and_then(Json::as_u64)
        .ok_or("missing integer field 't_us'")?;
    let fmt_name = doc
        .get("fmt")
        .and_then(Json::as_str)
        .ok_or("missing string field 'fmt'")?;
    let format = WireFormat::from_name(fmt_name)
        .ok_or_else(|| format!("unknown format '{fmt_name}' (json|binary)"))?;
    let op_name = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field 'op'")?;
    let op = match op_name {
        "route" => {
            let (d, g) = shape_fields(doc)?;
            let kind_name = doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("missing string field 'kind'")?;
            let kind = RequestKind::from_name(kind_name)
                .ok_or_else(|| format!("unknown request kind '{kind_name}'"))?;
            let faults = match doc.get("faults") {
                None => Vec::new(),
                Some(v) => usize_array(v, "faults")?,
            };
            match kind {
                RequestKind::WithFaults if faults.is_empty() => {
                    return Err(
                        "kind 'faults' records need a non-empty 'faults' array (empty \
                                fault sets are recorded as 'theorem2')"
                            .into(),
                    );
                }
                RequestKind::WithFaults => {}
                _ if !faults.is_empty() => {
                    return Err(format!(
                        "kind '{kind_name}' records carry no 'faults' (fault routes are \
                         recorded with kind 'faults')"
                    ));
                }
                _ => {}
            }
            let (perm, requests) = if kind == RequestKind::HRelation {
                let pairs = doc
                    .get("requests")
                    .ok_or("h-relation records need a 'requests' array")?;
                (Vec::new(), pair_array(pairs)?)
            } else {
                let perm_value = doc.get("perm").ok_or("route records need a 'perm' array")?;
                (usize_array(perm_value, "perm")?, Vec::new())
            };
            RecordedOp::Route {
                d,
                g,
                kind,
                perm,
                requests,
                faults,
            }
        }
        "batch" => {
            let items = doc
                .get("items")
                .and_then(Json::as_arr)
                .ok_or("batch records need an 'items' array")?;
            if items.is_empty() {
                return Err("batch records need at least one item".into());
            }
            let mut decoded = Vec::with_capacity(items.len());
            for item in items {
                let (d, g) = shape_fields(item)?;
                let perm_value = item.get("perm").ok_or("batch items need a 'perm' array")?;
                let perm = usize_array(perm_value, "perm")?;
                let faults = match item.get("faults") {
                    None => Vec::new(),
                    Some(v) => usize_array(v, "faults")?,
                };
                decoded.push(RecordedBatchItem { d, g, perm, faults });
            }
            RecordedOp::Batch { items: decoded }
        }
        "cache" => {
            let name = doc
                .get("action")
                .and_then(Json::as_str)
                .ok_or("cache records need a string 'action'")?;
            let action = CacheAction::from_name(name)
                .ok_or_else(|| format!("unknown cache action '{name}' (save|load|stats)"))?;
            RecordedOp::Cache { action }
        }
        other => return Err(format!("unknown record op '{other}' (route|batch|cache)")),
    };
    Ok(RecordedRequest {
        offset_us,
        format,
        op,
    })
}

/// Parses one record line (`line_no` is 1-based, for error reporting).
pub fn parse_record(line_no: usize, line: &str) -> Result<RecordedRequest, TraceError> {
    let doc = Json::parse(line).map_err(|e| TraceError::Malformed {
        line: line_no,
        reason: e.to_string(),
    })?;
    parse_record_body(&doc).map_err(|reason| TraceError::Malformed {
        line: line_no,
        reason,
    })
}

/// Encodes one record as its canonical single-line JSON form.
pub fn encode_record(entry: &RecordedRequest) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("t_us".into(), Json::Num(entry.offset_us as f64)),
        ("fmt".into(), Json::str(entry.format.name())),
    ];
    match &entry.op {
        RecordedOp::Route {
            d,
            g,
            kind,
            perm,
            requests,
            faults,
        } => {
            fields.push(("op".into(), Json::str("route")));
            fields.push(("d".into(), Json::num(*d)));
            fields.push(("g".into(), Json::num(*g)));
            fields.push(("kind".into(), Json::str(kind.name())));
            if *kind == RequestKind::HRelation {
                fields.push((
                    "requests".into(),
                    Json::Arr(
                        requests
                            .iter()
                            .map(|&(s, t)| Json::Arr(vec![Json::num(s), Json::num(t)]))
                            .collect(),
                    ),
                ));
            } else {
                fields.push((
                    "perm".into(),
                    Json::Arr(perm.iter().map(|&v| Json::num(v)).collect()),
                ));
            }
            if !faults.is_empty() {
                fields.push((
                    "faults".into(),
                    Json::Arr(faults.iter().map(|&c| Json::num(c)).collect()),
                ));
            }
        }
        RecordedOp::Batch { items } => {
            fields.push(("op".into(), Json::str("batch")));
            fields.push((
                "items".into(),
                Json::Arr(
                    items
                        .iter()
                        .map(|item| {
                            let mut entry = vec![
                                ("d".into(), Json::num(item.d)),
                                ("g".into(), Json::num(item.g)),
                                (
                                    "perm".into(),
                                    Json::Arr(item.perm.iter().map(|&v| Json::num(v)).collect()),
                                ),
                            ];
                            if !item.faults.is_empty() {
                                entry.push((
                                    "faults".into(),
                                    Json::Arr(item.faults.iter().map(|&c| Json::num(c)).collect()),
                                ));
                            }
                            Json::Obj(entry)
                        })
                        .collect(),
                ),
            ));
        }
        RecordedOp::Cache { action } => {
            fields.push(("op".into(), Json::str("cache")));
            fields.push(("action".into(), Json::str(action.name())));
        }
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

/// Builds the [`RecordedOp`] of one parsed route request. `d`/`g` are the
/// resolved shape the request selected. Empty effective fault sets are
/// canonicalised to `theorem2` (see the module docs).
pub fn recorded_route(d: usize, g: usize, req: &ServiceRequest) -> RecordedOp {
    let (kind, perm, requests, faults) = match req {
        ServiceRequest::HRelation { relation } => {
            let requests = relation.requests().to_vec();
            (RequestKind::HRelation, Vec::new(), requests, Vec::new())
        }
        ServiceRequest::WithFaults { pi, faults } => {
            let couplers = g.saturating_mul(g);
            let ids: Vec<usize> = (0..couplers).filter(|&c| faults.is_failed(c)).collect();
            let kind = if ids.is_empty() {
                RequestKind::Theorem2
            } else {
                RequestKind::WithFaults
            };
            (kind, pi.as_slice().to_vec(), Vec::new(), ids)
        }
        ServiceRequest::Theorem2 { pi }
        | ServiceRequest::SingleSlot { pi }
        | ServiceRequest::Direct { pi }
        | ServiceRequest::Structured { pi } => {
            (req.kind(), pi.as_slice().to_vec(), Vec::new(), Vec::new())
        }
    };
    RecordedOp::Route {
        d,
        g,
        kind,
        perm,
        requests,
        faults,
    }
}

/// Builds the [`RecordedOp`] of one parsed batch request. Items whose
/// permutation failed validation are skipped (the server answers them
/// with per-item errors; there is nothing to replay), and so are items of
/// a shape with a zero dimension, which no server admits and no trace
/// can hold. Returns `None` when no item survives.
pub fn recorded_batch(items: &[BatchItemRequest]) -> Option<RecordedOp> {
    let recorded: Vec<RecordedBatchItem> = items
        .iter()
        .filter(|item| item.d > 0 && item.g > 0)
        .filter_map(|item| {
            item.perm.as_ref().ok().map(|pi| RecordedBatchItem {
                d: item.d,
                g: item.g,
                perm: pi.as_slice().to_vec(),
                faults: item.faults.clone(),
            })
        })
        .collect();
    if recorded.is_empty() {
        None
    } else {
        Some(RecordedOp::Batch { items: recorded })
    }
}

/// Builds the [`RecordedOp`] of one cache management request.
pub fn recorded_cache(action: CacheAction) -> RecordedOp {
    RecordedOp::Cache { action }
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

    /// Appends one record, stamped with the current offset.
    pub fn record(&self, format: WireFormat, op: RecordedOp) {
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
/// decoder, and validates routes the way the server does, so it records
/// what `pops serve --record` would for the same traffic. It mirrors the
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
            Ok(request) => {
                if let Some(op) = recorded_request(request) {
                    recorder.record(framing, op);
                }
            }
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

/// The record of a request decoded by the server's own decoder, as the
/// server would record it. The proxy has no services, so a route is
/// validated against a topology of its own shape (within the record cap).
fn recorded_request(request: WireRequest<RouteRequest>) -> Option<RecordedOp> {
    match request {
        WireRequest::Route { req, .. } => {
            let (d, g) = (req.d, req.g);
            if d == 0 || g == 0 || d.checked_mul(g).is_none_or(|n| n > MAX_RECORD_N) {
                return None;
            }
            let req = req.service_request(&PopsTopology::new(d, g)).ok()?;
            Some(recorded_route(d, g, &req))
        }
        WireRequest::Batch { items, .. } => recorded_batch(&items),
        WireRequest::Cache { action } => Some(recorded_cache(action)),
        _ => None,
    }
}

/// Distinct `(d, g)` shapes a trace touches, in sorted order — soak
/// reporting and the CLI summarise topology churn with this.
pub fn trace_shapes(entries: &[RecordedRequest]) -> Vec<(usize, usize)> {
    let mut shapes: BTreeSet<(usize, usize)> = BTreeSet::new();
    for entry in entries {
        match &entry.op {
            RecordedOp::Route { d, g, .. } => {
                shapes.insert((*d, *g));
            }
            RecordedOp::Batch { items } => {
                shapes.extend(items.iter().map(|item| (item.d, item.g)));
            }
            RecordedOp::Cache { .. } => {}
        }
    }
    shapes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_permutation::families::vector_reversal;

    fn sample_route() -> RecordedRequest {
        RecordedRequest {
            offset_us: 1234,
            format: WireFormat::Json,
            op: RecordedOp::Route {
                d: 4,
                g: 4,
                kind: RequestKind::WithFaults,
                perm: vector_reversal(16).as_slice().to_vec(),
                requests: Vec::new(),
                faults: vec![3, 7],
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
                op: RecordedOp::Route {
                    d: 2,
                    g: 8,
                    kind: RequestKind::HRelation,
                    perm: Vec::new(),
                    requests: vec![(0, 5), (5, 0), (1, 1)],
                    faults: Vec::new(),
                },
            },
            RecordedRequest {
                offset_us: 3000,
                format: WireFormat::Json,
                op: RecordedOp::Batch {
                    items: vec![RecordedBatchItem {
                        d: 4,
                        g: 4,
                        perm: vector_reversal(16).as_slice().to_vec(),
                        faults: vec![1],
                    }],
                },
            },
            RecordedRequest {
                offset_us: 4000,
                format: WireFormat::Binary,
                op: RecordedOp::Cache {
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
        let t = PopsTopology::new(4, 4);
        let req = ServiceRequest::WithFaults {
            pi: vector_reversal(16),
            faults: pops_network::FaultSet::none(&t),
        };
        match recorded_route(4, 4, &req) {
            RecordedOp::Route { kind, faults, .. } => {
                assert_eq!(kind, RequestKind::Theorem2);
                assert!(faults.is_empty());
            }
            other => panic!("expected a route record, got {other:?}"),
        }
    }

    #[test]
    fn batches_record_only_items_a_trace_can_hold() {
        let doc = Json::parse(
            r#"{"op":"batch","items":[{"d":0,"g":5,"perm":[]},{"d":1,"g":2,"perm":[1,0]}]}"#,
        )
        .unwrap();
        let Ok(WireRequest::Batch { items, .. }) =
            crate::proto::decode_request(&doc, &PopsTopology::new(4, 4))
        else {
            panic!("batch must decode");
        };
        assert!(items[0].perm.is_ok(), "an empty image fits a 0x5 shape");
        let op = recorded_batch(&items).unwrap();
        let entry = RecordedRequest {
            offset_us: 0,
            format: WireFormat::Json,
            op,
        };
        let parsed = parse_record(1, &encode_record(&entry)).unwrap();
        match parsed.op {
            RecordedOp::Batch { items } => assert_eq!((items.len(), items[0].d), (1, 1)),
            other => panic!("expected a batch record, got {other:?}"),
        }
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
                RecordedOp::Cache {
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

        let ops = |path: &Path| -> Vec<(WireFormat, RecordedOp)> {
            let entries = read_trace(path).unwrap();
            entries.into_iter().map(|e| (e.format, e.op)).collect()
        };
        let (served, proxied) = (ops(&server_trace), ops(&proxy_trace));
        assert_eq!(served.len(), 7, "{served:?}");
        assert_eq!(proxied, served);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
