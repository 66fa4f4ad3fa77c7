//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"info"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! {"op":"route","kind":"theorem2","perm":[3,2,1,0]}
//! {"op":"route","kind":"h-relation","requests":[[0,1],[1,0]]}
//! {"op":"route","kind":"faults","perm":[...],"faults":[3,[0,2]]}
//! {"op":"cache","action":"stats"}
//! {"op":"cache","action":"save"}
//! {"op":"cache","action":"load"}
//! ```
//!
//! The full spec, with framing rules and copy-pasteable examples, is
//! `docs/PROTOCOL.md` at the repository root.
//!
//! Route and batch requests may carry `"d"`/`"g"`: on a multi-topology
//! server these **select** the serving backend (constructed lazily by
//! the [`crate::TopologyRouter`]); absent fields fall back to the
//! server's default topology, field by field. A shape the server cannot
//! admit is refused with a `topology-limit` or `bad-request` error — a
//! POPS(2, 8) request is never answered by a POPS(4, 4) backend even
//! though both have n = 16. `"want_schedule": false` suppresses the
//! schedule body for callers that only need the slot count.
//!
//! `{"op":"batch","items":[...]}` carries N permutations (optionally
//! mixed-topology) and is answered with **N + 1 lines**: one
//! `"op":"batch-item"` line per item in input order, then one
//! `"op":"batch"` summary line.
//!
//! Responses always carry `"ok"`; failures are
//! `{"ok":false,"kind":"...","error":"..."}` where `kind` is a machine-
//! readable [`WireErrorKind`] category (`parse`, `bad-request`,
//! `too-large`, `timeout`, `unavailable`, `routing`, `topology-limit`,
//! `overloaded`, `unroutable`).
//!
//! Permutation route requests (and batch items) may carry an optional
//! `"faults"` array declaring failed couplers — each entry a coupler id
//! or a `[src_group, dst_group]` pair — and the server composes it with
//! its operator-declared baseline fault set. A non-empty effective fault
//! set reroutes the request through the greedy fault-tolerant router and
//! the response carries `"degraded": true`; a fault set under which the
//! fabric is not fully routable is refused with kind `unroutable`.

use pops_core::HRelation;
use pops_network::{FaultSet, PopsTopology, Receivers, Schedule, SlotFrame, Transmission};
use pops_permutation::Permutation;

use crate::frame::{self, TAG_BATCH, TAG_JSON, TAG_ROUTE};
use crate::json::Json;
use crate::metrics::{Counter, Gauge, MetricsSnapshot, RequestKind};
use crate::router::RouterStats;
use crate::service::{ReplyOutcome, ServiceReply, ServiceRequest};

/// Machine-readable failure category carried in every error response's
/// `"kind"` field, so clients can react to limit violations without
/// string-matching the human-facing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The request line was not valid JSON.
    Parse,
    /// The document parsed but is not a valid request.
    BadRequest,
    /// The request line exceeded the server's `max_line_bytes` cap.
    TooLarge,
    /// The client did not deliver a complete line within the server's
    /// read timeout.
    Timeout,
    /// The server refused the connection (at its connection capacity).
    Unavailable,
    /// Routing itself failed (e.g. not single-slot routable).
    Routing,
    /// The requested `(d, g)` shape could not be admitted: the topology
    /// registry is full and every resident topology is pinned.
    TopologyLimit,
    /// The request was shed by overload control (the global in-flight
    /// watermark or a per-client quota); the error carries
    /// `retry-after-ms` — back off and retry.
    Overloaded,
    /// The request's effective fault set (per-request faults composed
    /// with the server's baseline) leaves the fabric not fully routable:
    /// some ordered group pair has no surviving path. Refused before
    /// planning — no degraded schedule exists for arbitrary traffic.
    Unroutable,
}

impl WireErrorKind {
    /// All kinds, in wire-name order — the index into per-kind arrays
    /// (e.g. the wire-error counters of [`crate::ServiceMetrics`]).
    pub const ALL: [WireErrorKind; 9] = [
        WireErrorKind::Parse,
        WireErrorKind::BadRequest,
        WireErrorKind::TooLarge,
        WireErrorKind::Timeout,
        WireErrorKind::Unavailable,
        WireErrorKind::Routing,
        WireErrorKind::TopologyLimit,
        WireErrorKind::Overloaded,
        WireErrorKind::Unroutable,
    ];

    /// The kind's index into [`WireErrorKind::ALL`]-ordered arrays.
    pub fn index(self) -> usize {
        match self {
            WireErrorKind::Parse => 0,
            WireErrorKind::BadRequest => 1,
            WireErrorKind::TooLarge => 2,
            WireErrorKind::Timeout => 3,
            WireErrorKind::Unavailable => 4,
            WireErrorKind::Routing => 5,
            WireErrorKind::TopologyLimit => 6,
            WireErrorKind::Overloaded => 7,
            WireErrorKind::Unroutable => 8,
        }
    }

    /// The kind's wire name.
    pub fn name(self) -> &'static str {
        match self {
            WireErrorKind::Parse => "parse",
            WireErrorKind::BadRequest => "bad-request",
            WireErrorKind::TooLarge => "too-large",
            WireErrorKind::Timeout => "timeout",
            WireErrorKind::Unavailable => "unavailable",
            WireErrorKind::Routing => "routing",
            WireErrorKind::TopologyLimit => "topology-limit",
            WireErrorKind::Overloaded => "overloaded",
            WireErrorKind::Unroutable => "unroutable",
        }
    }
}

/// The transport a connection speaks: JSON lines (the default every
/// connection starts in) or the length-prefixed binary framing of
/// [`crate::frame`], negotiated per connection with
/// `{"op":"hello","format":"binary"}`. Negotiation itself — and every
/// error sent before it completes — is always JSON, so a client that
/// never sends `hello` observes a pure JSON-lines server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// One JSON document per `\n`-terminated line, each direction.
    #[default]
    Json,
    /// Length-prefixed binary frames (see [`crate::frame`]).
    Binary,
}

impl WireFormat {
    /// The format's wire name (the `"format"` field of the `hello` op).
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "json" => Some(WireFormat::Json),
            "binary" => Some(WireFormat::Binary),
            _ => None,
        }
    }
}

/// What a `{"op":"cache"}` request asks of the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Spill both cache levels to the server's `--cache-dir`.
    Save,
    /// Restore both cache levels from the server's `--cache-dir`.
    Load,
    /// Report per-level occupancy and hit counters.
    Stats,
}

impl CacheAction {
    /// The action's wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheAction::Save => "save",
            CacheAction::Load => "load",
            CacheAction::Stats => "stats",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "save" => Some(CacheAction::Save),
            "load" => Some(CacheAction::Load),
            "stats" => Some(CacheAction::Stats),
            _ => None,
        }
    }
}

/// A protocol request. Every codec — a JSON line, a `TAG_JSON` frame, a
/// dense `TAG_ROUTE`/`TAG_BATCH` frame — decodes into one owned form,
/// `WireRequest<RouteRequest>`, whose routes are not yet checked against
/// a topology; the server, the `pops record` proxy, the client and the
/// trace format share it ([`decode_request`] reads it, [`encode_request`]
/// writes it). [`parse_request`] returns the form validated against one
/// topology, whose routes are [`ServiceRequest`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest<R = ServiceRequest> {
    /// Wire-format negotiation: the connection switches to `format`
    /// after the acknowledgement.
    Hello {
        /// The requested format.
        format: WireFormat,
    },
    /// Liveness probe.
    Ping,
    /// Serving-topology and configuration query.
    Info,
    /// Metrics snapshot query.
    Stats,
    /// Orderly server shutdown.
    Shutdown,
    /// Plan-cache management (persistence and per-level stats).
    Cache {
        /// What to do with the cache.
        action: CacheAction,
    },
    /// A routing request.
    Route {
        /// The request to route.
        req: R,
        /// Whether the response should carry the schedule body.
        want_schedule: bool,
    },
    /// A wire-level batch: N permutations, optionally mixed-topology.
    Batch {
        /// The items, in input order.
        items: Vec<BatchItemRequest>,
        /// Whether each item response should carry the schedule body
        /// (default **false** for batches — the summary and slot counts
        /// are usually what bulk callers want).
        want_schedule: bool,
    },
}

impl<R> WireRequest<R> {
    /// The same request with its route, if it is one, mapped through `f`.
    pub fn try_map_route<S, E>(
        self,
        f: impl FnOnce(R) -> Result<S, E>,
    ) -> Result<WireRequest<S>, E> {
        Ok(match self {
            WireRequest::Route { req, want_schedule } => WireRequest::Route {
                req: f(req)?,
                want_schedule,
            },
            WireRequest::Hello { format } => WireRequest::Hello { format },
            WireRequest::Ping => WireRequest::Ping,
            WireRequest::Info => WireRequest::Info,
            WireRequest::Stats => WireRequest::Stats,
            WireRequest::Shutdown => WireRequest::Shutdown,
            WireRequest::Cache { action } => WireRequest::Cache { action },
            WireRequest::Batch {
                items,
                want_schedule,
            } => WireRequest::Batch {
                items,
                want_schedule,
            },
        })
    }
}

/// A route request in the shared owned form: the shape `(d, g)` it
/// selects and its body, or why the body is malformed — answered
/// `bad-request` once the shape's service is selected. [`decode_request`]
/// resolves absent shape fields against the server's default; a request
/// being sent may leave both at 0 so that the server's default applies,
/// as in a dense frame. Nothing is checked against a topology here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRequest {
    /// Processors per group of the selected topology.
    pub d: usize,
    /// Number of groups of the selected topology.
    pub g: usize,
    /// What to route, or why the request's body could not be read.
    pub body: Result<RouteBody, String>,
}

/// What a route request asks to route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteBody {
    /// A permutation with its kind and its request-level failed couplers.
    /// Decoded fault ids are sorted, deduped and in `0..g²`; only
    /// `theorem2` and `faults` requests carry any.
    Perm {
        /// The routing kind (never `h-relation` in a valid request).
        kind: RequestKind,
        /// The permutation to route.
        pi: Permutation,
        /// Failed coupler ids.
        faults: Vec<usize>,
    },
    /// An h-relation's `(source, destination)` pairs.
    HRelation(Vec<(usize, usize)>),
}

impl RouteBody {
    /// The kind the body asks for.
    pub fn kind(&self) -> RequestKind {
        match self {
            RouteBody::Perm { kind, .. } => *kind,
            RouteBody::HRelation(_) => RequestKind::HRelation,
        }
    }
}

impl RouteRequest {
    /// Validates the request against `topology`, the one its shape
    /// selected, and builds the service request: a permutation must have
    /// length `n` and h-relation endpoints must lie in `0..n`. A
    /// `theorem2` request with no faults stays on the healthy Theorem-2
    /// path (and its healthy cache key).
    pub(crate) fn service_request(self, topology: &PopsTopology) -> Result<ServiceRequest, String> {
        let (kind, pi, ids) = match self.body? {
            RouteBody::HRelation(pairs) => {
                let relation = HRelation::new(topology.n(), pairs).map_err(|e| e.to_string())?;
                return Ok(ServiceRequest::HRelation { relation });
            }
            RouteBody::Perm { kind, pi, faults } => (kind, pi, faults),
        };
        if pi.len() != topology.n() {
            return Err(format!(
                "permutation has length {}, {topology} needs {}",
                pi.len(),
                topology.n()
            ));
        }
        Ok(match kind {
            RequestKind::Theorem2 if ids.is_empty() => ServiceRequest::Theorem2 { pi },
            RequestKind::SingleSlot => ServiceRequest::SingleSlot { pi },
            RequestKind::Direct => ServiceRequest::Direct { pi },
            RequestKind::Structured => ServiceRequest::Structured { pi },
            RequestKind::Theorem2 | RequestKind::WithFaults => {
                let mut faults = FaultSet::none(topology);
                for c in ids.into_iter().filter(|&c| c < topology.coupler_count()) {
                    faults.fail_coupler(c);
                }
                ServiceRequest::WithFaults { pi, faults }
            }
            RequestKind::HRelation => {
                return Err("h-relation requests carry 'requests', not 'perm'".into())
            }
        })
    }
}

/// One parsed item of a `{"op":"batch"}` request. The shape is already
/// resolved against the server's default topology (absent `d`/`g` fields
/// fall back field by field), so the dispatcher can group items by
/// `(d, g)` directly. A per-item parse problem is carried in `perm` and
/// answered with a per-item error line — one bad item does not poison
/// its siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItemRequest {
    /// Processors per group of the item's topology.
    pub d: usize,
    /// Number of groups of the item's topology.
    pub g: usize,
    /// The permutation to route, or why this item cannot be routed.
    pub perm: Result<Permutation, String>,
    /// The item's declared failed couplers: sorted, deduped coupler ids,
    /// already validated against the item's `g²` coupler range. Empty
    /// means a healthy fabric (the common case).
    pub faults: Vec<usize>,
}

/// Checks a batch item's permutation against its shape `(d, g)`.
fn item_perm(d: usize, g: usize, perm: Result<Permutation, String>) -> Result<Permutation, String> {
    let pi = perm?;
    match d.checked_mul(g) {
        Some(n) if n == pi.len() => Ok(pi),
        _ => Err(format!(
            "item permutation has length {}, POPS({d}, {g}) needs {}",
            pi.len(),
            d.saturating_mul(g)
        )),
    }
}

/// Resolves a wire `"faults"` array into sorted, deduped coupler ids on
/// a fabric with `g` groups (`g²` couplers). Each entry is either a
/// coupler id or a `[src_group, dst_group]` pair — the paper's coupler
/// `c(b, a)` with `b = dst_group`, `a = src_group`, i.e. id
/// `dst_group·g + src_group`.
pub fn parse_fault_ids(value: &Json, g: usize) -> Result<Vec<usize>, String> {
    let entries = value.as_arr().ok_or("'faults' must be an array")?;
    let couplers = g
        .checked_mul(g)
        .ok_or_else(|| format!("{g} groups overflow the coupler range"))?;
    let mut ids = Vec::with_capacity(entries.len());
    for entry in entries {
        let c = if let Some(c) = entry.as_usize() {
            if c >= couplers {
                return Err(format!(
                    "coupler {c} out of range (couplers: 0..{couplers})"
                ));
            }
            c
        } else if let Some(pair) = entry.as_arr().filter(|p| p.len() == 2) {
            let group = |i: usize| {
                pair.get(i)
                    .and_then(Json::as_usize)
                    .ok_or("fault pair entries must be integers")
            };
            let (src, dst) = (group(0)?, group(1)?);
            if src >= g || dst >= g {
                return Err(format!(
                    "fault pair [{src}, {dst}] out of range (groups: 0..{g})"
                ));
            }
            dst * g + src
        } else {
            return Err(
                "'faults' entries must be coupler ids or [src_group, dst_group] pairs".into(),
            );
        };
        ids.push(c);
    }
    ids.sort_unstable();
    ids.dedup();
    Ok(ids)
}

/// Parses one request document against the serving `topology`: a route
/// must select that topology and fit it.
pub fn parse_request(doc: &Json, topology: &PopsTopology) -> Result<WireRequest, String> {
    decode_request(doc, topology)?.try_map_route(|req| {
        for (field, got, expected) in [("d", req.d, topology.d()), ("g", req.g, topology.g())] {
            if got != expected {
                return Err(format!(
                    "request {field} = {got} does not match serving topology {topology}"
                ));
            }
        }
        req.service_request(topology)
    })
}

/// Decodes one request document into the shared owned request. Route and
/// batch shapes fall back to `default` field by field; nothing is checked
/// against a topology yet. [`encode_request`] is its inverse.
pub fn decode_request(
    doc: &Json,
    default: &PopsTopology,
) -> Result<WireRequest<RouteRequest>, String> {
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field 'op'")?;
    match op {
        "hello" => {
            let name = doc.get("format").and_then(Json::as_str).unwrap_or("json");
            let format = WireFormat::from_name(name)
                .ok_or_else(|| format!("unknown format '{name}' (json|binary)"))?;
            Ok(WireRequest::Hello { format })
        }
        "ping" => Ok(WireRequest::Ping),
        "info" => Ok(WireRequest::Info),
        "stats" => Ok(WireRequest::Stats),
        "shutdown" => Ok(WireRequest::Shutdown),
        "cache" => {
            let name = doc.get("action").and_then(Json::as_str).unwrap_or("stats");
            let action = CacheAction::from_name(name)
                .ok_or_else(|| format!("unknown cache action '{name}' (save|load|stats)"))?;
            Ok(WireRequest::Cache { action })
        }
        "route" => {
            let (d, g) = requested_shape(doc, default)?;
            let want_schedule = doc
                .get("want_schedule")
                .and_then(Json::as_bool)
                .unwrap_or(true);
            Ok(WireRequest::Route {
                req: RouteRequest {
                    d,
                    g,
                    body: route_body(doc, g),
                },
                want_schedule,
            })
        }
        "batch" => parse_batch(doc, default),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// The `(d, g)` a request document selects, falling back to `default`
/// **field by field** (a request carrying only `"d"` keeps the default
/// `g`). Ill-typed fields are a request-level error. The multi-topology
/// server resolves this *before* parsing the body, so the right backend's
/// topology is in hand for size validation.
pub fn requested_shape(doc: &Json, default: &PopsTopology) -> Result<(usize, usize), String> {
    let field = |name: &str, fallback: usize| match doc.get(name) {
        None => Ok(fallback),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("field '{name}' must be a non-negative integer")),
    };
    Ok((field("d", default.d())?, field("g", default.g())?))
}

/// A `"perm"` array as a permutation; `missing` is the error when the
/// field is absent or not an array.
fn parse_perm(value: Option<&Json>, missing: &str) -> Result<Permutation, String> {
    let image = value
        .and_then(Json::as_arr)
        .ok_or(missing)?
        .iter()
        .map(|v| v.as_usize().ok_or("'perm' entries must be integers"))
        .collect::<Result<Vec<_>, _>>()?;
    Permutation::new(image).map_err(|e| e.to_string())
}

/// Parses a `{"op":"batch"}` document. Top-level problems (missing or
/// empty `items`) are request-level errors; per-item problems are carried
/// inside each [`BatchItemRequest`] and answered line by line.
fn parse_batch(doc: &Json, default: &PopsTopology) -> Result<WireRequest<RouteRequest>, String> {
    let items = doc
        .get("items")
        .and_then(Json::as_arr)
        .ok_or("batch request needs an array field 'items'")?;
    if items.is_empty() {
        return Err("batch 'items' must not be empty".into());
    }
    let want_schedule = doc
        .get("want_schedule")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    Ok(WireRequest::Batch {
        items: items
            .iter()
            .map(|item| parse_batch_item(item, default))
            .collect(),
        want_schedule,
    })
}

fn parse_batch_item(item: &Json, default: &PopsTopology) -> BatchItemRequest {
    let (d, g, parsed) = match requested_shape(item, default) {
        Err(e) => (default.d(), default.g(), Err(e)),
        Ok((d, g)) => {
            let perm = parse_perm(item.get("perm"), "batch item needs an array field 'perm'");
            let parsed = item_perm(d, g, perm).and_then(|pi| {
                let faults = match item.get("faults") {
                    None => Vec::new(),
                    Some(value) => parse_fault_ids(value, g)?,
                };
                Ok((pi, faults))
            });
            (d, g, parsed)
        }
    };
    let (perm, faults) = match parsed {
        Ok((pi, faults)) => (Ok(pi), faults),
        Err(e) => (Err(e), Vec::new()),
    };
    BatchItemRequest { d, g, perm, faults }
}

/// A route document's body. `g` is the selected shape's group count, the
/// range fault ids are checked against.
fn route_body(doc: &Json, g: usize) -> Result<RouteBody, String> {
    let kind_name = doc.get("kind").and_then(Json::as_str).unwrap_or("theorem2");
    let kind =
        RequestKind::from_name(kind_name).ok_or_else(|| format!("unknown kind '{kind_name}'"))?;
    // Degraded routing is only meaningful on the kinds the fault router
    // plans (the production `theorem2` path and the explicit `faults`
    // kind); the diagnostic baselines and h-relations keep their exact
    // construction semantics and refuse the field outright.
    if doc.get("faults").is_some()
        && !matches!(kind, RequestKind::Theorem2 | RequestKind::WithFaults)
    {
        return Err(format!(
            "kind '{kind_name}' does not support a 'faults' field; use kind 'theorem2' or 'faults'"
        ));
    }
    if kind == RequestKind::HRelation {
        let pairs = doc
            .get("requests")
            .and_then(Json::as_arr)
            .ok_or("h-relation request needs an array field 'requests'")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("'requests' entries must be [source, destination] pairs")?;
                let endpoint = |i: usize| {
                    pair.get(i)
                        .and_then(Json::as_usize)
                        .ok_or("request endpoints must be integers")
                };
                Ok((endpoint(0)?, endpoint(1)?))
            })
            .collect::<Result<Vec<_>, &str>>()?;
        return Ok(RouteBody::HRelation(pairs));
    }
    let pi = parse_perm(doc.get("perm"), "route request needs an array field 'perm'")?;
    let faults = match doc.get("faults") {
        Some(value) => parse_fault_ids(value, g)?,
        None if kind == RequestKind::WithFaults => {
            return Err("faults request needs an array field 'faults'".into())
        }
        None => Vec::new(),
    };
    Ok(RouteBody::Perm { kind, pi, faults })
}

/// Encodes a request as the JSON document [`decode_request`] reads back:
/// the one body the client sends as a JSON line or `TAG_JSON` frame, and
/// the one a trace record holds. Keys come in a fixed order — a route
/// `op, d, g, kind, perm | requests, faults`, a batch item
/// `d, g, perm, faults`. Left out are a `d = g = 0` shape (the server's
/// default applies), an empty fault list, and a route's `want_schedule`
/// when true; a batch always carries its `want_schedule`. So a request
/// with an explicit shape, in the canonical form a trace records, decodes
/// back to itself. A route or batch item whose body failed to decode has
/// nothing to write in its place, so only its shape is written.
pub fn encode_request(request: &WireRequest<RouteRequest>) -> Json {
    let op = |name: &str| ("op".to_string(), Json::str(name));
    Json::Obj(match request {
        WireRequest::Hello { format } => {
            vec![op("hello"), ("format".into(), Json::str(format.name()))]
        }
        WireRequest::Ping => vec![op("ping")],
        WireRequest::Info => vec![op("info")],
        WireRequest::Stats => vec![op("stats")],
        WireRequest::Shutdown => vec![op("shutdown")],
        WireRequest::Cache { action } => {
            vec![op("cache"), ("action".into(), Json::str(action.name()))]
        }
        WireRequest::Route { req, want_schedule } => {
            let mut fields = vec![op("route")];
            push_shape(&mut fields, req.d, req.g);
            if let Ok(body) = &req.body {
                fields.push(("kind".into(), Json::str(body.kind().name())));
                match body {
                    RouteBody::Perm { pi, faults, .. } => {
                        fields.push(("perm".into(), usize_array(pi.as_slice())));
                        push_faults(&mut fields, faults);
                    }
                    RouteBody::HRelation(pairs) => {
                        let pairs = pairs.iter().map(|&(s, t)| usize_array(&[s, t]));
                        fields.push(("requests".into(), Json::Arr(pairs.collect())));
                    }
                }
            }
            if !want_schedule {
                fields.push(("want_schedule".into(), Json::Bool(false)));
            }
            fields
        }
        WireRequest::Batch {
            items,
            want_schedule,
        } => {
            let items = items.iter().map(|item| {
                let mut fields = Vec::with_capacity(4);
                push_shape(&mut fields, item.d, item.g);
                if let Ok(pi) = &item.perm {
                    fields.push(("perm".into(), usize_array(pi.as_slice())));
                }
                push_faults(&mut fields, &item.faults);
                Json::Obj(fields)
            });
            vec![
                op("batch"),
                ("items".into(), Json::Arr(items.collect())),
                ("want_schedule".into(), Json::Bool(*want_schedule)),
            ]
        }
    })
}

fn usize_array(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(v)).collect())
}

/// Appends `d` and `g` unless both are 0, the server's default.
fn push_shape(fields: &mut Vec<(String, Json)>, d: usize, g: usize) {
    if (d, g) != (0, 0) {
        fields.push(("d".into(), Json::num(d)));
        fields.push(("g".into(), Json::num(g)));
    }
}

/// Appends a non-empty fault list.
fn push_faults(fields: &mut Vec<(String, Json)>, faults: &[usize]) {
    if !faults.is_empty() {
        fields.push(("faults".into(), usize_array(faults)));
    }
}

/// How one request arrived, and so how its replies are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Codec {
    /// A JSON line; every reply is a JSON line.
    Line,
    /// A `TAG_JSON` frame; every reply is a `TAG_JSON` frame.
    JsonFrame,
    /// A dense `TAG_ROUTE`/`TAG_BATCH` frame; plans reply in dense
    /// frames, everything else in `TAG_JSON` frames.
    Dense,
}

/// A decoded message, or the typed error that answers it.
pub(crate) type Decoded = Result<WireRequest<RouteRequest>, (WireErrorKind, String)>;

/// Decodes one complete message read in the connection's `framing` — a
/// line, or a frame payload — into the shared owned request, with the
/// codec its replies use. Shapes fall back to `default`. Invalid UTF-8 in
/// a line flows through lossily and fails the JSON parse.
pub(crate) fn decode_message(
    message: &[u8],
    framing: WireFormat,
    default: &PopsTopology,
) -> (Codec, Decoded) {
    let json = |text: &str| -> Decoded {
        let doc = Json::parse(text).map_err(|e| (WireErrorKind::Parse, e.to_string()))?;
        decode_request(&doc, default).map_err(|e| (WireErrorKind::BadRequest, e))
    };
    let parse_error = |e: String| (WireErrorKind::Parse, e);
    // `(0, 0)` in a dense frame selects the default shape, mirroring a
    // JSON request without `d`/`g` fields.
    let shape = |shape| match shape {
        (0, 0) => (default.d(), default.g()),
        shape => shape,
    };
    if framing == WireFormat::Json {
        return (Codec::Line, json(&String::from_utf8_lossy(message)));
    }
    let Some((&tag, body)) = message.split_first() else {
        return (Codec::JsonFrame, Err(parse_error("empty frame".into())));
    };
    match tag {
        TAG_JSON => (
            Codec::JsonFrame,
            std::str::from_utf8(body)
                .map_err(|_| parse_error("TAG_JSON frame is not valid UTF-8".into()))
                .and_then(json),
        ),
        TAG_ROUTE => (
            Codec::Dense,
            frame::decode_route_request(body)
                .map_err(parse_error)
                .map(|route| {
                    let (d, g) = shape(route.shape);
                    let body = route.perm.map(|pi| RouteBody::Perm {
                        kind: route.kind,
                        pi,
                        faults: Vec::new(),
                    });
                    WireRequest::Route {
                        req: RouteRequest { d, g, body },
                        want_schedule: route.want_schedule,
                    }
                }),
        ),
        // The dense batch body carries no fault lists; a declared
        // baseline still applies per item.
        TAG_BATCH => (
            Codec::Dense,
            frame::decode_batch_request(body)
                .map_err(parse_error)
                .map(|(items, want_schedule)| WireRequest::Batch {
                    items: items
                        .into_iter()
                        .map(|item| {
                            let (d, g) = shape(item.shape);
                            let perm = item_perm(d, g, item.perm);
                            BatchItemRequest {
                                d,
                                g,
                                perm,
                                faults: Vec::new(),
                            }
                        })
                        .collect(),
                    want_schedule,
                }),
        ),
        other => (
            Codec::JsonFrame,
            Err((
                WireErrorKind::BadRequest,
                format!("unknown frame tag 0x{other:02x}"),
            )),
        ),
    }
}

/// One typed reply. It stays typed until the server encodes it in the
/// request's [`Codec`], so counters read its error kind, not the encoded
/// bytes.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A finished JSON document: a control-op answer or a batch summary.
    Doc(Json),
    /// A typed failure; a failed batch item carries its `index`.
    Error {
        kind: WireErrorKind,
        msg: String,
        index: Option<usize>,
    },
    /// A request shed by overload control, with its back-off hint.
    Overloaded { msg: String, retry_after_ms: u64 },
    /// A served route; `kind` is the kind routed after baseline
    /// composition.
    Route {
        kind: RequestKind,
        reply: ServiceReply,
        want_schedule: bool,
    },
    /// One routed batch item; `degraded` when the fault router planned it.
    Item {
        index: usize,
        d: usize,
        g: usize,
        plan: ItemPlan,
        want_schedule: bool,
        degraded: bool,
    },
}

/// The plan of one routed batch item.
#[derive(Debug)]
pub(crate) enum ItemPlan {
    /// A schedule fresh from the batch executor, which bypasses the cache.
    Fresh(Schedule),
    /// A plan served through the cache (an item with a fault set): the
    /// shared cache entry, decoded only if a JSON reply needs it.
    Cached(ReplyOutcome),
}

impl ItemPlan {
    /// Slots in the item's schedule.
    pub(crate) fn slot_count(&self) -> usize {
        match self {
            ItemPlan::Fresh(schedule) => schedule.slot_count(),
            ItemPlan::Cached(outcome) => outcome.slot_count(),
        }
    }

    /// The schedule, decoding a cached plan on first use.
    fn schedule(&self) -> &Schedule {
        match self {
            ItemPlan::Fresh(schedule) => schedule,
            ItemPlan::Cached(outcome) => outcome.schedule(),
        }
    }

    /// The dense body: a fresh schedule to encode, or a cached plan's
    /// bytes to copy.
    pub(crate) fn body(&self) -> frame::Body<'_> {
        match self {
            ItemPlan::Fresh(schedule) => frame::Body::Schedule(schedule),
            ItemPlan::Cached(outcome) => outcome.cached().body(),
        }
    }
}

impl Reply {
    /// A request-level failure.
    pub(crate) fn error(kind: WireErrorKind, msg: impl Into<String>) -> Self {
        Reply::Error {
            kind,
            msg: msg.into(),
            index: None,
        }
    }

    /// The failure category of an error reply, `None` on success.
    pub(crate) fn error_kind(&self) -> Option<WireErrorKind> {
        match self {
            Reply::Error { kind, .. } => Some(*kind),
            Reply::Overloaded { .. } => Some(WireErrorKind::Overloaded),
            Reply::Doc(_) | Reply::Route { .. } | Reply::Item { .. } => None,
        }
    }

    /// The reply as a JSON document.
    pub(crate) fn into_json(self) -> Json {
        match self {
            Reply::Doc(doc) => doc,
            Reply::Error {
                kind,
                msg,
                index: Some(index),
            } => batch_item_error(index, kind, msg),
            Reply::Error { kind, msg, .. } => error_response(kind, msg),
            Reply::Overloaded {
                msg,
                retry_after_ms,
            } => overloaded_response(msg, retry_after_ms),
            Reply::Route {
                kind,
                reply,
                want_schedule,
            } => route_response(kind, &reply, want_schedule),
            Reply::Item {
                index,
                d,
                g,
                plan,
                want_schedule,
                degraded,
            } => {
                let schedule = want_schedule.then(|| plan.schedule());
                batch_item_response(index, d, g, plan.slot_count(), schedule, degraded)
            }
        }
    }
}

/// The `hello` response acknowledging a format negotiation:
/// `{"ok":true,"op":"hello","format":"binary"}`. Always sent as a JSON
/// line — the switch to binary framing takes effect on the **next**
/// exchange, so the acknowledgement itself is readable in either format.
pub fn hello_response(format: WireFormat) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("hello")),
        ("format".into(), Json::str(format.name())),
    ])
}

/// `{"ok":true,"op":"pong"}`.
pub fn pong_response() -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("pong")),
    ])
}

/// The `info` response: default serving topology, service shape, the
/// topology registry (resident shapes and the residency bound), the
/// server's crate version, and its uptime in whole seconds.
pub fn info_response(
    topology: &PopsTopology,
    shards: usize,
    cache_capacity: usize,
    topologies: &[(usize, usize)],
    max_topologies: usize,
    version: &str,
    uptime_secs: u64,
) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("info")),
        ("d".into(), Json::num(topology.d())),
        ("g".into(), Json::num(topology.g())),
        ("n".into(), Json::num(topology.n())),
        ("couplers".into(), Json::num(topology.coupler_count())),
        ("shards".into(), Json::num(shards)),
        ("cache_capacity".into(), Json::num(cache_capacity)),
        ("topologies".into(), shapes_json(topologies)),
        ("max_topologies".into(), Json::num(max_topologies)),
        ("version".into(), Json::str(version)),
        ("uptime_secs".into(), Json::Num(uptime_secs as f64)),
    ])
}

/// `[[d, g], ...]` — the shape-list encoding shared by `info`, the batch
/// summary, and the stats `topologies` section.
fn shapes_json(shapes: &[(usize, usize)]) -> Json {
    Json::Arr(
        shapes
            .iter()
            .map(|&(d, g)| Json::Arr(vec![Json::num(d), Json::num(g)]))
            .collect(),
    )
}

/// The per-kind latency table of one snapshot (kinds with traffic only).
fn kinds_json(snap: &MetricsSnapshot) -> Json {
    Json::Arr(
        snap.per_kind
            .iter()
            .filter(|k| k.requests > 0 || k.errors > 0)
            .map(|k| {
                Json::Obj(vec![
                    ("kind".into(), Json::str(k.kind.name())),
                    ("requests".into(), Json::Num(k.requests as f64)),
                    ("errors".into(), Json::Num(k.errors as f64)),
                    ("avg_micros".into(), Json::Num(k.avg_micros() as f64)),
                    (
                        "p50_micros".into(),
                        Json::Num(k.quantile_micros(0.5) as f64),
                    ),
                    (
                        "p99_micros".into(),
                        Json::Num(k.quantile_micros(0.99) as f64),
                    ),
                ])
            })
            .collect(),
    )
}

/// The `stats` response. The top-level counters are the **fleet-wide
/// aggregate** (every topology's registry absorbed, plus the connection
/// layer); the `topologies` section breaks hits/misses/latency down per
/// resident `(d, g)`, and `router` reports the registry's own counters.
pub fn stats_response(
    snap: &MetricsSnapshot,
    topologies: &[(usize, usize, MetricsSnapshot)],
    router: &RouterStats,
) -> Json {
    let per_topology = topologies
        .iter()
        .map(|(d, g, topo)| {
            let c = |counter| Json::Num(topo.get(counter) as f64);
            Json::Obj(vec![
                ("d".into(), Json::num(*d)),
                ("g".into(), Json::num(*g)),
                ("requests".into(), Json::Num(topo.requests() as f64)),
                ("hits".into(), c(Counter::Hits)),
                ("misses".into(), c(Counter::Misses)),
                ("hit_rate".into(), Json::Num(topo.hit_rate())),
                ("errors".into(), c(Counter::Errors)),
                ("batches".into(), c(Counter::Batches)),
                ("batch_plans".into(), c(Counter::BatchPlans)),
                (
                    "arena_bytes".into(),
                    Json::Num(topo.gauge(Gauge::ArenaBytes) as f64),
                ),
                ("cache".into(), cache_levels_json(topo)),
                ("kinds".into(), kinds_json(topo)),
            ])
        })
        .collect();
    let c = |counter| Json::Num(snap.get(counter) as f64);
    let g = |gauge| Json::Num(snap.gauge(gauge) as f64);
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("stats")),
        ("hits".into(), c(Counter::Hits)),
        ("misses".into(), c(Counter::Misses)),
        ("hit_rate".into(), Json::Num(snap.hit_rate())),
        ("cache".into(), cache_levels_json(snap)),
        ("slots_emitted".into(), c(Counter::SlotsEmitted)),
        ("errors".into(), c(Counter::Errors)),
        (
            "pool".into(),
            Json::Obj(vec![
                ("fast".into(), c(Counter::PoolFast)),
                ("overflows".into(), c(Counter::PoolOverflows)),
                ("blocked".into(), c(Counter::PoolBlocked)),
            ]),
        ),
        ("admission_waits".into(), c(Counter::AdmissionWaits)),
        ("batches".into(), c(Counter::Batches)),
        ("batch_plans".into(), c(Counter::BatchPlans)),
        (
            "connections".into(),
            Json::Obj(vec![
                ("active".into(), Json::Num(snap.active_connections() as f64)),
                ("opened".into(), c(Counter::ConnsOpened)),
                ("closed".into(), c(Counter::ConnsClosed)),
                ("rejected".into(), c(Counter::ConnsRejected)),
                ("json".into(), Json::Num(snap.json_connections() as f64)),
                ("binary".into(), c(Counter::ConnsBinary)),
            ]),
        ),
        (
            "wire".into(),
            Json::Obj(vec![
                (
                    "json".into(),
                    Json::Obj(vec![
                        ("bytes_in".into(), c(Counter::JsonBytesIn)),
                        ("bytes_out".into(), c(Counter::JsonBytesOut)),
                    ]),
                ),
                (
                    "binary".into(),
                    Json::Obj(vec![
                        ("bytes_in".into(), c(Counter::BinaryBytesIn)),
                        ("bytes_out".into(), c(Counter::BinaryBytesOut)),
                    ]),
                ),
            ]),
        ),
        ("oversized_lines".into(), c(Counter::OversizedLines)),
        ("read_timeouts".into(), c(Counter::ReadTimeouts)),
        (
            "sheds".into(),
            Json::Obj(vec![
                ("total".into(), Json::Num(snap.sheds() as f64)),
                ("watermark".into(), c(Counter::ShedsWatermark)),
                ("quota".into(), c(Counter::ShedsQuota)),
            ]),
        ),
        (
            "slow_traces".into(),
            Json::Obj(vec![
                ("emitted".into(), c(Counter::SlowTraces)),
                ("suppressed".into(), c(Counter::SlowTracesSuppressed)),
            ]),
        ),
        (
            "degraded".into(),
            Json::Obj(vec![
                ("plans".into(), c(Counter::DegradedPlans)),
                ("hits".into(), c(Counter::DegradedHits)),
                ("unroutable_refusals".into(), c(Counter::UnroutableRefusals)),
            ]),
        ),
        (
            "wire_errors".into(),
            Json::Obj(
                WireErrorKind::ALL
                    .into_iter()
                    .zip(snap.wire_errors)
                    .map(|(kind, count)| (kind.name().to_string(), Json::Num(count as f64)))
                    .collect(),
            ),
        ),
        ("arena_bytes".into(), g(Gauge::ArenaBytes)),
        ("cache_entries".into(), g(Gauge::CacheEntries)),
        ("cache_capacity".into(), g(Gauge::CacheCapacity)),
        ("kinds".into(), kinds_json(snap)),
        ("topologies".into(), Json::Arr(per_topology)),
        (
            "router".into(),
            Json::Obj(vec![
                ("topologies".into(), Json::num(topologies.len())),
                ("hits".into(), Json::Num(router.hits as f64)),
                ("built".into(), Json::Num(router.built as f64)),
                ("evictions".into(), Json::Num(router.evictions as f64)),
                ("rejections".into(), Json::Num(router.rejections as f64)),
            ]),
        ),
    ])
}

/// The per-level cache view shared by the `stats` and `cache` ops:
/// `{"l1":{hits,misses,hit_rate,entries,capacity},"l2":{...}}` — level 1
/// counts whole-request lookups, level 2 counts h-relation phases, so the
/// phase cache's effectiveness is directly observable.
pub fn cache_levels_json(snap: &MetricsSnapshot) -> Json {
    let c = |counter| Json::Num(snap.get(counter) as f64);
    let g = |gauge| Json::Num(snap.gauge(gauge) as f64);
    Json::Obj(vec![
        (
            "l1".into(),
            Json::Obj(vec![
                ("hits".into(), c(Counter::Hits)),
                ("misses".into(), c(Counter::Misses)),
                ("hit_rate".into(), Json::Num(snap.hit_rate())),
                ("entries".into(), g(Gauge::CacheEntries)),
                ("capacity".into(), g(Gauge::CacheCapacity)),
            ]),
        ),
        (
            "l2".into(),
            Json::Obj(vec![
                ("hits".into(), c(Counter::PhaseHits)),
                ("misses".into(), c(Counter::PhaseMisses)),
                ("hit_rate".into(), Json::Num(snap.phase_hit_rate())),
                ("entries".into(), g(Gauge::PhaseCacheEntries)),
                ("capacity".into(), g(Gauge::PhaseCacheCapacity)),
            ]),
        ),
    ])
}

/// The `cache` response for the `stats` action.
pub fn cache_stats_response(snap: &MetricsSnapshot) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("cache")),
        ("action".into(), Json::str(CacheAction::Stats.name())),
        ("cache".into(), cache_levels_json(snap)),
    ])
}

/// The `cache` response for a completed `save` or `load`:
/// `{"ok":true,"op":"cache","action":...,"l1_entries":N,"l2_entries":M,
/// "skipped_files":K}`. Entry counts are totals across every resident
/// topology; `skipped_files` counts cache-dir files a load left alone
/// (stamped for a topology this server does not pin, or corrupt) — the
/// warn-and-skip contract, surfaced so operators can see a stale dir.
pub fn cache_persist_response(
    action: CacheAction,
    l1_entries: usize,
    l2_entries: usize,
    skipped_files: usize,
) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("cache")),
        ("action".into(), Json::str(action.name())),
        ("l1_entries".into(), Json::num(l1_entries)),
        ("l2_entries".into(), Json::num(l2_entries)),
        ("skipped_files".into(), Json::num(skipped_files)),
    ])
}

/// `{"ok":true,"op":"shutdown"}`.
pub fn shutdown_response() -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("shutdown")),
    ])
}

/// `{"ok":false,"kind":...,"error":...}`.
pub fn error_response(kind: WireErrorKind, msg: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("kind".into(), Json::str(kind.name())),
        ("error".into(), Json::Str(msg.into())),
    ])
}

/// The overload-control shed response:
/// `{"ok":false,"kind":"overloaded","error":...,"retry-after-ms":N}`.
/// `retry_after_ms` tells a well-behaved client how long to back off —
/// the token-bucket refill interval for quota sheds, a fixed backoff for
/// watermark sheds.
pub fn overloaded_response(msg: impl Into<String>, retry_after_ms: u64) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("kind".into(), Json::str(WireErrorKind::Overloaded.name())),
        ("error".into(), Json::Str(msg.into())),
        ("retry-after-ms".into(), Json::Num(retry_after_ms as f64)),
    ])
}

/// Appends a `"trace"` field carrying the request's trace id to a JSON
/// response document, so a wire response can be correlated with the
/// server's slow-request log lines. Non-object documents are returned
/// unchanged.
pub fn attach_trace(doc: Json, trace_id: &str) -> Json {
    match doc {
        Json::Obj(mut fields) => {
            fields.push(("trace".into(), Json::Str(trace_id.into())));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// The `route` response for a served request.
pub fn route_response(kind: RequestKind, reply: &ServiceReply, want_schedule: bool) -> Json {
    let mut fields = vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("route")),
        ("kind".into(), Json::str(kind.name())),
        ("slots".into(), Json::num(reply.outcome.slot_count())),
        (
            "cache".into(),
            Json::str(if reply.cache_hit { "hit" } else { "miss" }),
        ),
        ("micros".into(), Json::Num(reply.micros as f64)),
    ];
    if kind == RequestKind::HRelation {
        // How many of the relation's phases came from the level-2 cache
        // (0 on a level-1 hit, where no phases were assembled at all).
        fields.push(("phase_hits".into(), Json::Num(reply.phase_hits as f64)));
    }
    if reply.degraded {
        // The plan came from the greedy fault router, not the Theorem-2
        // construction — absent on healthy responses.
        fields.push(("degraded".into(), Json::Bool(true)));
    }
    if want_schedule {
        // The reply decodes its cached schedule here, on first use.
        fields.push((
            "schedule".into(),
            schedule_to_json(reply.outcome.schedule()),
        ));
    }
    Json::Obj(fields)
}

/// One successful `batch-item` line: index and shape identify the item,
/// `slots` (and the schedule, when one is given) carry the plan.
pub fn batch_item_response(
    index: usize,
    d: usize,
    g: usize,
    slots: usize,
    schedule: Option<&Schedule>,
    degraded: bool,
) -> Json {
    let mut fields = vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("batch-item")),
        ("index".into(), Json::num(index)),
        ("d".into(), Json::num(d)),
        ("g".into(), Json::num(g)),
        ("slots".into(), Json::num(slots)),
    ];
    if degraded {
        fields.push(("degraded".into(), Json::Bool(true)));
    }
    if let Some(schedule) = schedule {
        fields.push(("schedule".into(), schedule_to_json(schedule)));
    }
    Json::Obj(fields)
}

/// One failed `batch-item` line — a structured error that still carries
/// the item's index, so the stream stays in input order and one bad item
/// never poisons its siblings.
pub fn batch_item_error(index: usize, kind: WireErrorKind, msg: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("op".into(), Json::str("batch-item")),
        ("index".into(), Json::num(index)),
        ("kind".into(), Json::str(kind.name())),
        ("error".into(), Json::Str(msg.into())),
    ])
}

/// The trailing `batch` summary line: item accounting, total slots across
/// routed items, wall-clock service time, and the distinct topologies the
/// batch touched (in `(d, g)` order).
pub fn batch_summary_response(
    items: usize,
    routed: usize,
    failed: usize,
    slots: usize,
    micros: u64,
    topologies: &[(usize, usize)],
) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("batch")),
        ("items".into(), Json::num(items)),
        ("routed".into(), Json::num(routed)),
        ("failed".into(), Json::num(failed)),
        ("slots".into(), Json::num(slots)),
        ("micros".into(), Json::Num(micros as f64)),
        ("topologies".into(), shapes_json(topologies)),
    ])
}

/// Encodes a schedule as nested arrays: slots → transmissions →
/// `[sender, coupler, packet, receiver...]` (receivers flattened onto the
/// tail, one or more entries).
pub fn schedule_to_json(schedule: &Schedule) -> Json {
    Json::Arr(
        schedule
            .slots
            .iter()
            .map(|slot| {
                Json::Arr(
                    slot.transmissions
                        .iter()
                        .map(|tx| {
                            let mut cells = vec![
                                Json::num(tx.sender),
                                Json::num(tx.coupler),
                                Json::num(tx.packet),
                            ];
                            cells.extend(tx.receivers.iter().map(|&r| Json::num(r)));
                            Json::Arr(cells)
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Decodes [`schedule_to_json`]'s encoding.
pub fn schedule_from_json(value: &Json) -> Result<Schedule, String> {
    let slots = value.as_arr().ok_or("schedule must be an array of slots")?;
    let mut out = Schedule::new();
    for slot in slots {
        let txs = slot
            .as_arr()
            .ok_or("slot must be an array of transmissions")?;
        let mut frame = SlotFrame::new();
        for tx in txs {
            let Some([sender, coupler, packet, receivers @ ..]) =
                tx.as_arr().filter(|c| c.len() >= 4)
            else {
                return Err("transmission must be [sender, coupler, packet, receiver...]".into());
            };
            let num = |c: &Json| c.as_usize().ok_or("transmission cells must be integers");
            let (sender, coupler, packet) = (num(sender)?, num(coupler)?, num(packet)?);
            let receivers = match receivers {
                [one] => Receivers::One(num(one)?),
                many => Receivers::Many(many.iter().map(num).collect::<Result<_, _>>()?),
            };
            frame.transmissions.push(Transmission {
                sender,
                coupler,
                packet,
                receivers,
            });
        }
        out.slots.push(frame);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::RoutingService;
    use pops_permutation::families::vector_reversal;

    #[test]
    fn schedule_encoding_round_trips() {
        let service = RoutingService::new(PopsTopology::new(4, 4));
        let reply = service
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        let encoded = schedule_to_json(reply.outcome.schedule());
        let decoded = schedule_from_json(&encoded).unwrap();
        assert_eq!(&decoded, reply.outcome.schedule());
    }

    #[test]
    fn parse_route_accepts_matching_shape_fields() {
        let t = PopsTopology::new(2, 3);
        let doc = Json::parse(r#"{"op":"route","d":2,"g":3,"perm":[5,4,3,2,1,0]}"#).unwrap();
        assert!(matches!(
            parse_request(&doc, &t),
            Ok(WireRequest::Route {
                want_schedule: true,
                ..
            })
        ));
    }

    #[test]
    fn parse_route_rejects_shape_mismatch() {
        // Same n = 16, different grouping: must be refused, not re-keyed.
        let t = PopsTopology::new(4, 4);
        let perm: Vec<String> = (0..16).rev().map(|i| i.to_string()).collect();
        let doc = Json::parse(&format!(
            r#"{{"op":"route","d":2,"g":8,"perm":[{}]}}"#,
            perm.join(",")
        ))
        .unwrap();
        let err = parse_request(&doc, &t).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        let t = PopsTopology::new(2, 2);
        for doc in [
            r#"{"kind":"theorem2"}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"route","kind":"nope","perm":[0,1,2,3]}"#,
            r#"{"op":"route","kind":"theorem2"}"#,
            r#"{"op":"route","kind":"theorem2","perm":[0,0,1,2]}"#,
            r#"{"op":"route","kind":"h-relation","requests":[[0]]}"#,
            r#"{"op":"route","kind":"faults","perm":[0,1,2,3],"faults":[99]}"#,
            r#"{"op":"route","kind":"faults","perm":[0,1,2,3],"faults":[[0,7]]}"#,
            r#"{"op":"route","kind":"faults","perm":[0,1,2,3],"faults":[[0]]}"#,
            r#"{"op":"route","kind":"faults","perm":[0,1,2,3]}"#,
            r#"{"op":"route","kind":"single-slot","perm":[0,1,2,3],"faults":[1]}"#,
            r#"{"op":"route","kind":"h-relation","requests":[[0,1]],"faults":[1]}"#,
        ] {
            let doc = Json::parse(doc).unwrap();
            assert!(parse_request(&doc, &t).is_err(), "{doc}");
        }
    }

    #[test]
    fn faults_field_generalizes_across_route_kinds() {
        let t = PopsTopology::new(2, 3);
        // `theorem2` (the default kind) with a non-empty fault list is a
        // degraded request; ids and [src_group, dst_group] pairs mix.
        let doc = Json::parse(r#"{"op":"route","perm":[5,4,3,2,1,0],"faults":[4,[0,1]]}"#).unwrap();
        let Ok(WireRequest::Route {
            req: ServiceRequest::WithFaults { faults, .. },
            ..
        }) = parse_request(&doc, &t)
        else {
            panic!("theorem2 + faults must become a fault request");
        };
        // Pair [src 0, dst 1] is coupler c(1, 0) = 1·3 + 0 = 3.
        assert_eq!(faults.iter_failed().collect::<Vec<_>>(), vec![3, 4]);

        // An empty fault list keeps the healthy kind (and cache key).
        let doc = Json::parse(r#"{"op":"route","perm":[5,4,3,2,1,0],"faults":[]}"#).unwrap();
        assert!(matches!(
            parse_request(&doc, &t),
            Ok(WireRequest::Route {
                req: ServiceRequest::Theorem2 { .. },
                ..
            })
        ));

        // The explicit `faults` kind stays on the fault path even empty.
        let doc = Json::parse(r#"{"op":"route","kind":"faults","perm":[5,4,3,2,1,0],"faults":[]}"#)
            .unwrap();
        assert!(matches!(
            parse_request(&doc, &t),
            Ok(WireRequest::Route {
                req: ServiceRequest::WithFaults { .. },
                ..
            })
        ));
    }

    #[test]
    fn fault_ids_canonicalize_duplicates_and_pairs() {
        // Duplicates (including a pair aliasing an id) collapse; output
        // is sorted — the wire form of the cache key's fault component.
        let value = Json::parse(r#"[7,[1,2],7,[1,2],0]"#).unwrap();
        assert_eq!(parse_fault_ids(&value, 3).unwrap(), vec![0, 7]);
        assert!(parse_fault_ids(&Json::parse("[9]").unwrap(), 3).is_err());
        assert!(parse_fault_ids(&Json::parse("[[3,0]]").unwrap(), 3).is_err());
        assert!(parse_fault_ids(&Json::parse(r#"["x"]"#).unwrap(), 3).is_err());
    }

    #[test]
    fn responses_have_the_ok_discriminator() {
        assert_eq!(pong_response().get("ok"), Some(&Json::Bool(true)));
        let err = error_response(WireErrorKind::Routing, "nope");
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("routing"));
        let info = info_response(
            &PopsTopology::new(4, 4),
            2,
            64,
            &[(4, 4), (2, 8)],
            8,
            "1.2.3",
            42,
        );
        assert_eq!(info.get("n").unwrap().as_usize(), Some(16));
        assert_eq!(info.get("max_topologies").unwrap().as_usize(), Some(8));
        let shapes = info.get("topologies").unwrap().as_arr().unwrap();
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[1].as_arr().unwrap()[1].as_usize(), Some(8));
        assert_eq!(info.get("version").unwrap().as_str(), Some("1.2.3"));
        assert_eq!(info.get("uptime_secs").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let doc = overloaded_response("shed at watermark", 250);
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(doc.get("retry-after-ms").unwrap().as_u64(), Some(250));
    }

    #[test]
    fn attach_trace_appends_the_id() {
        let doc = attach_trace(pong_response(), "c3-r7");
        assert_eq!(doc.get("trace").unwrap().as_str(), Some("c3-r7"));
        // Non-object documents pass through unchanged.
        assert_eq!(attach_trace(Json::Bool(true), "x"), Json::Bool(true));
    }

    #[test]
    fn cache_op_parses_all_actions_and_defaults_to_stats() {
        let t = PopsTopology::new(2, 2);
        for (text, want) in [
            (r#"{"op":"cache"}"#, CacheAction::Stats),
            (r#"{"op":"cache","action":"stats"}"#, CacheAction::Stats),
            (r#"{"op":"cache","action":"save"}"#, CacheAction::Save),
            (r#"{"op":"cache","action":"load"}"#, CacheAction::Load),
        ] {
            let doc = Json::parse(text).unwrap();
            match parse_request(&doc, &t) {
                Ok(WireRequest::Cache { action }) => assert_eq!(action, want, "{text}"),
                other => panic!("{text}: {other:?}"),
            }
        }
        let doc = Json::parse(r#"{"op":"cache","action":"warp"}"#).unwrap();
        assert!(parse_request(&doc, &t).unwrap_err().contains("warp"));
    }

    #[test]
    fn stats_and_cache_responses_split_l1_and_l2() {
        let service = RoutingService::new(PopsTopology::new(4, 4));
        service
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        let snap = service.metrics();
        let per_topology = [(4usize, 4usize, snap.clone())];
        for doc in [
            stats_response(&snap, &per_topology, &RouterStats::default()),
            cache_stats_response(&snap),
        ] {
            let cache = doc.get("cache").expect("cache object");
            let l1 = cache.get("l1").expect("l1 object");
            let l2 = cache.get("l2").expect("l2 object");
            assert_eq!(l1.get("misses").unwrap().as_u64(), Some(1));
            assert_eq!(l1.get("entries").unwrap().as_u64(), Some(1));
            assert_eq!(l2.get("hits").unwrap().as_u64(), Some(0));
            assert_eq!(
                l2.get("entries").unwrap().as_u64(),
                Some(1),
                "theorem2 misses seed the phase cache"
            );
        }
        let persisted = cache_persist_response(CacheAction::Save, 3, 7, 1);
        assert_eq!(persisted.get("l1_entries").unwrap().as_u64(), Some(3));
        assert_eq!(persisted.get("l2_entries").unwrap().as_u64(), Some(7));
        assert_eq!(persisted.get("skipped_files").unwrap().as_u64(), Some(1));
        assert_eq!(persisted.get("action").unwrap().as_str(), Some("save"));
    }

    #[test]
    fn h_relation_route_response_reports_phase_hits() {
        let service = RoutingService::new(PopsTopology::new(2, 3));
        let reply = service
            .route(&ServiceRequest::HRelation {
                relation: pops_core::HRelation::new(6, vec![(0, 1), (1, 0), (2, 5)]).unwrap(),
            })
            .unwrap();
        let doc = route_response(RequestKind::HRelation, &reply, false);
        assert_eq!(doc.get("phase_hits").unwrap().as_u64(), Some(0));
        // Non-relation kinds do not carry the field.
        let doc = route_response(RequestKind::Theorem2, &reply, false);
        assert!(doc.get("phase_hits").is_none());
    }

    #[test]
    fn stats_response_breaks_down_per_topology() {
        let a = RoutingService::new(PopsTopology::new(4, 4));
        a.route(&ServiceRequest::Theorem2 {
            pi: vector_reversal(16),
        })
        .unwrap();
        let b = RoutingService::new(PopsTopology::new(2, 3));
        b.route(&ServiceRequest::Theorem2 {
            pi: vector_reversal(6),
        })
        .unwrap();
        let mut agg = MetricsSnapshot::zero();
        agg.absorb(&a.metrics());
        agg.absorb(&b.metrics());
        let per = [(4, 4, a.metrics()), (2, 3, b.metrics())];
        let router = RouterStats {
            hits: 5,
            built: 2,
            evictions: 1,
            rejections: 0,
        };
        let doc = stats_response(&agg, &per, &router);
        assert_eq!(doc.get("misses").unwrap().as_u64(), Some(2), "aggregate");
        let topos = doc.get("topologies").unwrap().as_arr().unwrap();
        assert_eq!(topos.len(), 2);
        assert_eq!(topos[0].get("d").unwrap().as_usize(), Some(4));
        assert_eq!(topos[0].get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(topos[1].get("g").unwrap().as_usize(), Some(3));
        let kinds = topos[1].get("kinds").unwrap().as_arr().unwrap();
        assert_eq!(kinds[0].get("kind").unwrap().as_str(), Some("theorem2"));
        let r = doc.get("router").unwrap();
        assert_eq!(r.get("built").unwrap().as_u64(), Some(2));
        assert_eq!(r.get("evictions").unwrap().as_u64(), Some(1));
        let sheds = doc.get("sheds").unwrap();
        assert_eq!(sheds.get("total").unwrap().as_u64(), Some(0));
        assert_eq!(sheds.get("watermark").unwrap().as_u64(), Some(0));
        let slow = doc.get("slow_traces").unwrap();
        assert_eq!(slow.get("emitted").unwrap().as_u64(), Some(0));
        let wire_errors = doc.get("wire_errors").unwrap();
        assert_eq!(wire_errors.get("overloaded").unwrap().as_u64(), Some(0));
        assert_eq!(wire_errors.get("parse").unwrap().as_u64(), Some(0));
        assert_eq!(wire_errors.get("unroutable").unwrap().as_u64(), Some(0));
        let degraded = doc.get("degraded").unwrap();
        assert_eq!(degraded.get("plans").unwrap().as_u64(), Some(0));
        assert_eq!(
            degraded.get("unroutable_refusals").unwrap().as_u64(),
            Some(0)
        );
    }

    #[test]
    fn batch_parses_mixed_topology_items_and_flags_bad_ones() {
        let default = PopsTopology::new(4, 4);
        let perm16: Vec<String> = (0..16).rev().map(|i| i.to_string()).collect();
        let doc = Json::parse(&format!(
            r#"{{"op":"batch","items":[
                {{"perm":[{p16}]}},
                {{"d":2,"g":3,"perm":[5,4,3,2,1,0]}},
                {{"d":2,"g":3,"perm":[{p16}]}},
                {{"perm":[0,0,1,2]}},
                {{"d":"x","perm":[0,1]}},
                {{"perm":[{p16}],"faults":[[0,1],4]}},
                {{"perm":[{p16}],"faults":[99]}}
            ]}}"#,
            p16 = perm16.join(",")
        ))
        .unwrap();
        let Ok(WireRequest::Batch {
            items,
            want_schedule,
        }) = parse_request(&doc, &default)
        else {
            panic!("batch must parse");
        };
        assert!(!want_schedule, "batch defaults to no schedule bodies");
        assert_eq!(items.len(), 7);
        assert_eq!((items[0].d, items[0].g), (4, 4), "defaults applied");
        assert!(items[0].perm.is_ok());
        assert!(items[0].faults.is_empty(), "no faults field means healthy");
        assert_eq!((items[1].d, items[1].g), (2, 3));
        assert!(items[1].perm.is_ok());
        assert!(
            items[2].perm.as_ref().unwrap_err().contains("length 16"),
            "size mismatch is a per-item error"
        );
        assert!(items[3].perm.is_err(), "not a permutation");
        assert!(items[4].perm.is_err(), "ill-typed shape field");
        assert!(items[5].perm.is_ok(), "per-item faults parse");
        // Pair [src 0, dst 1] on g = 4 is coupler 1·4 + 0 = 4; it aliases
        // the explicit id 4 and the two collapse.
        assert_eq!(items[5].faults, vec![4]);
        assert!(
            items[6].perm.as_ref().unwrap_err().contains("out of range"),
            "bad fault ids are per-item errors"
        );

        // Top-level problems are request-level errors.
        for bad in [r#"{"op":"batch"}"#, r#"{"op":"batch","items":[]}"#] {
            let doc = Json::parse(bad).unwrap();
            assert!(parse_request(&doc, &default).is_err(), "{bad}");
        }
    }

    #[test]
    fn batch_response_lines_carry_index_order_and_summary() {
        let service = RoutingService::new(PopsTopology::new(4, 4));
        let reply = service
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        let schedule = reply.outcome.schedule();
        let item = batch_item_response(3, 4, 4, 2, None, false);
        assert_eq!(item.get("op").unwrap().as_str(), Some("batch-item"));
        assert_eq!(item.get("index").unwrap().as_usize(), Some(3));
        assert_eq!(item.get("slots").unwrap().as_usize(), Some(2));
        assert!(item.get("schedule").is_none());
        assert!(
            item.get("degraded").is_none(),
            "healthy items omit the flag"
        );
        let degraded = batch_item_response(3, 4, 4, 2, None, true);
        assert_eq!(degraded.get("degraded"), Some(&Json::Bool(true)));
        let with_schedule = batch_item_response(0, 4, 4, 2, Some(schedule), false);
        let decoded = schedule_from_json(with_schedule.get("schedule").unwrap()).unwrap();
        assert_eq!(&decoded, schedule);

        let err = batch_item_error(7, WireErrorKind::BadRequest, "bad perm");
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(err.get("index").unwrap().as_usize(), Some(7));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("bad-request"));

        let summary = batch_summary_response(5, 4, 1, 12, 321, &[(2, 3), (4, 4)]);
        assert_eq!(summary.get("op").unwrap().as_str(), Some("batch"));
        assert_eq!(summary.get("items").unwrap().as_usize(), Some(5));
        assert_eq!(summary.get("routed").unwrap().as_usize(), Some(4));
        assert_eq!(summary.get("failed").unwrap().as_usize(), Some(1));
        let shapes = summary.get("topologies").unwrap().as_arr().unwrap();
        assert_eq!(shapes[0].as_arr().unwrap()[0].as_usize(), Some(2));
    }

    #[test]
    fn requested_shape_falls_back_field_by_field() {
        let default = PopsTopology::new(4, 4);
        let shape = |text: &str| requested_shape(&Json::parse(text).unwrap(), &default);
        assert_eq!(shape(r#"{"op":"route"}"#), Ok((4, 4)));
        assert_eq!(shape(r#"{"op":"route","d":2,"g":8}"#), Ok((2, 8)));
        assert_eq!(shape(r#"{"op":"route","g":2}"#), Ok((4, 2)));
        assert!(shape(r#"{"op":"route","d":-1}"#).is_err());
        assert!(shape(r#"{"op":"route","g":"x"}"#).is_err());
    }

    #[test]
    fn error_kinds_have_distinct_wire_names() {
        let kinds = [
            WireErrorKind::Parse,
            WireErrorKind::BadRequest,
            WireErrorKind::TooLarge,
            WireErrorKind::Timeout,
            WireErrorKind::Unavailable,
            WireErrorKind::Routing,
            WireErrorKind::TopologyLimit,
            WireErrorKind::Overloaded,
            WireErrorKind::Unroutable,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
