//! A blocking client for the service's TCP protocol — used by the
//! `pops request` CLI subcommand, the integration tests, and the CI
//! smoke check. Connections speak JSON lines; calling
//! [`ServiceClient::set_format`] with [`WireFormat::Binary`] negotiates
//! the length-prefixed binary framing of [`crate::frame`], after which
//! route and batch payloads travel as dense binary bodies (control ops
//! keep their JSON documents, wrapped in frames).
//!
//! Every request is the protocol's own [`WireRequest`]: its JSON body is
//! written by [`encode_request`], and replies in either framing are read
//! on one path, which hands back a JSON document or a dense frame.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pops_network::Schedule;
use pops_permutation::Permutation;

use crate::frame::{self, TAG_BATCH_ITEM, TAG_JSON, TAG_ROUTE_REPLY};
use crate::json::Json;
use crate::metrics::RequestKind;
use crate::proto::{
    encode_request, schedule_from_json, BatchItemRequest, CacheAction, RouteBody, RouteRequest,
    WireFormat, WireRequest,
};

/// Client-side cap on one incoming frame, so a hostile or corrupted
/// length prefix cannot make the client allocate unbounded memory.
const CLIENT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The configured client timeout expired waiting for the server.
    TimedOut,
    /// The server closed the connection cleanly (EOF before any response
    /// byte) — e.g. it rejected the connection or shut down between
    /// requests.
    Disconnected,
    /// The connection closed mid-response: bytes arrived but the line was
    /// never terminated.
    Truncated,
    /// A previous call failed mid-exchange (timeout, truncation, or I/O
    /// error), so responses can no longer be matched to requests —
    /// reconnect.
    Poisoned,
    /// The server sent something unparseable.
    Protocol(String),
    /// The server answered `{"ok":false,...}`; `kind` is the structured
    /// [`crate::proto::WireErrorKind`] wire name when present.
    Remote {
        /// Machine-readable failure category (`"error"` if absent).
        kind: String,
        /// Human-facing message.
        message: String,
        /// Back-off hint in milliseconds, carried by `overloaded`
        /// responses (the server's admission control shed the request).
        retry_after_ms: Option<u64>,
    },
}

impl ClientError {
    /// The structured error kind of a [`ClientError::Remote`], if any.
    pub fn remote_kind(&self) -> Option<&str> {
        match self {
            ClientError::Remote { kind, .. } => Some(kind),
            _ => None,
        }
    }

    /// The `retry-after-ms` back-off hint of an `overloaded`
    /// [`ClientError::Remote`], if any. Callers seeing `Some` should
    /// sleep that long before retrying instead of hammering a shedding
    /// server.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Remote { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::TimedOut => write!(f, "timed out waiting for the server"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Truncated => {
                write!(f, "connection closed mid-response (truncated line)")
            }
            ClientError::Poisoned => write!(
                f,
                "connection poisoned by an earlier mid-exchange failure; reconnect"
            ),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Remote {
                kind,
                message,
                retry_after_ms,
            } => {
                write!(f, "server error ({kind}): {message}")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::TimedOut,
            _ => ClientError::Io(e),
        }
    }
}

/// The serving topology and shape, from the `info` op.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Processors per group of the **default** topology.
    pub d: usize,
    /// Number of groups of the default topology.
    pub g: usize,
    /// Total processors of the default topology.
    pub n: usize,
    /// Engine-pool shards (of the default topology's service).
    pub shards: usize,
    /// Plan-cache capacity (of the default topology's service).
    pub cache_capacity: usize,
    /// Every topology currently resident on the server.
    pub topologies: Vec<(usize, usize)>,
    /// The server's topology residency bound.
    pub max_topologies: usize,
    /// The server's build version (empty when talking to a server that
    /// predates the field).
    pub version: String,
    /// Seconds since the server started accepting connections (zero when
    /// the server predates the field).
    pub uptime_secs: u64,
}

/// One item of a wire-level batch ([`ServiceClient::batch`]).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The permutation to route.
    pub pi: Permutation,
    /// The `(d, g)` topology to route it on; `None` uses the server's
    /// default topology.
    pub shape: Option<(usize, usize)>,
    /// Coupler ids to declare failed for this item (composed with any
    /// baseline the server was started with). Empty routes the healthy
    /// fabric. A batch carrying any faults rides the JSON body even on a
    /// binary connection — the dense batch frame has no fault lists.
    pub faults: Vec<usize>,
}

/// One successfully routed batch item.
#[derive(Debug, Clone)]
pub struct BatchItemReply {
    /// Processors per group of the topology that served this item.
    pub d: usize,
    /// Number of groups of the topology that served this item.
    pub g: usize,
    /// Slot count of the schedule.
    pub slots: usize,
    /// The schedule itself (empty unless the batch asked for schedules).
    pub schedule: Schedule,
    /// Whether the item was planned by the greedy fault router under a
    /// non-empty fault set (always `false` for dense binary items, whose
    /// reply frame carries no flag).
    pub degraded: bool,
}

/// A per-item failure inside an otherwise-delivered batch.
#[derive(Debug, Clone)]
pub struct BatchItemError {
    /// Machine-readable failure category (a
    /// [`crate::proto::WireErrorKind`] wire name).
    pub kind: String,
    /// Human-facing message.
    pub message: String,
}

/// The trailing summary line of a batch response.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Items the batch carried.
    pub items: usize,
    /// Items routed successfully.
    pub routed: usize,
    /// Items answered with per-item errors.
    pub failed: usize,
    /// Total slots across routed items.
    pub slots: usize,
    /// Server-side service time in microseconds.
    pub micros: u64,
    /// The distinct `(d, g)` topologies the batch touched.
    pub topologies: Vec<(usize, usize)>,
}

/// A decoded batch exchange: per-item results in input order, then the
/// summary.
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// One result per submitted item, in the order they were sent.
    pub items: Vec<Result<BatchItemReply, BatchItemError>>,
    /// The summary line.
    pub summary: BatchSummary,
}

/// A served route, from the `route` op.
#[derive(Debug, Clone)]
pub struct RouteReply {
    /// Slot count of the schedule.
    pub slots: usize,
    /// Whether the plan came from the server's cache.
    pub cache_hit: bool,
    /// Server-side service time in microseconds.
    pub micros: u64,
    /// The schedule itself (empty when requested with
    /// `want_schedule = false`).
    pub schedule: Schedule,
    /// Whether the plan came from the greedy fault router under a
    /// non-empty fault set (request faults, a server-side baseline, or
    /// both). Dense binary replies carry no flag, so this is always
    /// `false` on the binary route fast path.
    pub degraded: bool,
}

/// What [`ServiceClient::send`] read back for one request.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A route's reply.
    Route(RouteReply),
    /// A batch's per-item results and summary.
    Batch(BatchReply),
    /// Any other op's response document.
    Doc(Json),
}

/// One reply message in either framing: a JSON document (a line, or a
/// [`TAG_JSON`] frame) or a dense frame's payload, tag included.
enum Message {
    Doc(Json),
    Dense(Vec<u8>),
}

/// Whether a permutation kind has a dense [`frame::TAG_ROUTE`] body.
fn dense_kind(kind: RequestKind) -> bool {
    matches!(
        kind,
        RequestKind::Theorem2
            | RequestKind::SingleSlot
            | RequestKind::Direct
            | RequestKind::Structured
    )
}

/// A request's shape as the dense frames take it: `d = g = 0`, the
/// server's default, is no shape.
fn frame_shape(d: usize, g: usize) -> Option<(usize, usize)> {
    ((d, g) != (0, 0)).then_some((d, g))
}

/// A connected client. One request/response pair per [`ServiceClient::call`].
///
/// ```no_run
/// use std::time::Duration;
/// use pops_permutation::families::vector_reversal;
/// use pops_service::ServiceClient;
///
/// let mut client =
///     ServiceClient::connect_with_timeout("127.0.0.1:7077", Some(Duration::from_secs(5)))?;
/// let info = client.info()?; // serving topology: resolve sizes against it
/// let reply = client.route_permutation("theorem2", &vector_reversal(info.n))?;
/// println!("{} slots, cache {}", reply.slots, if reply.cache_hit { "hit" } else { "miss" });
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// A transport-level failure mid-exchange (timeout, truncation, I/O
/// error) **poisons** the connection: the line protocol has no way to
/// tell a late-arriving remainder of the failed response from the reply
/// to the next request, so every later call fails fast with
/// [`ClientError::Poisoned`] — reconnect instead of retrying in place.
/// Server-side (`Remote`) errors and clean disconnects do not poison.
#[derive(Debug)]
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    poisoned: bool,
    format: WireFormat,
}

impl ServiceClient {
    /// Connects to a serving address (e.g. `127.0.0.1:7077`) with no
    /// client-side timeouts — calls can block indefinitely. Prefer
    /// [`ServiceClient::connect_with_timeout`] for anything unattended.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            poisoned: false,
            format: WireFormat::Json,
        })
    }

    /// Connects with `timeout` applied to the connect itself and to every
    /// subsequent read and write, so a hung or hostile server surfaces as
    /// [`ClientError::TimedOut`] instead of blocking forever. `None`
    /// behaves like [`ServiceClient::connect`].
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let Some(timeout) = timeout else {
            return Self::connect(addr);
        };
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    let mut client = Self {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: stream,
                        poisoned: false,
                        format: WireFormat::Json,
                    };
                    client.set_timeout(Some(timeout))?;
                    return Ok(client);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }

    /// Sets (or clears) the read and write timeouts of the connection.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    /// Sets `TCP_NODELAY` on the connection — latency-sensitive callers
    /// (one small request line per round trip) pair this with a
    /// `--nodelay` server.
    pub fn set_nodelay(&mut self, nodelay: bool) -> std::io::Result<()> {
        self.writer.set_nodelay(nodelay)
    }

    /// The wire format this connection currently speaks.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Negotiates the connection's wire format with the `hello` op.
    /// Requesting the current format is a no-op; requesting
    /// [`WireFormat::Binary`] upgrades the connection for its remaining
    /// lifetime (the protocol has no downgrade — reconnect for JSON
    /// lines). After a successful upgrade, route and batch payloads
    /// travel as dense binary frames and every other op rides
    /// JSON-in-a-frame transparently.
    pub fn set_format(&mut self, format: WireFormat) -> Result<(), ClientError> {
        if format == self.format {
            return Ok(());
        }
        if format == WireFormat::Json {
            return Err(ClientError::Protocol(
                "the binary framing cannot be downgraded; reconnect for JSON lines".into(),
            ));
        }
        let doc = self.call(&encode_request(&WireRequest::Hello { format }))?;
        match doc.get("format").and_then(Json::as_str) {
            Some(name) if name == format.name() => {
                self.format = format;
                Ok(())
            }
            _ => Err(ClientError::Protocol(
                "hello response did not echo the requested format".into(),
            )),
        }
    }

    /// Sends one binary frame without reading anything back.
    fn send_payload(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        let sent = (|| -> Result<(), ClientError> {
            frame::write_frame(&mut self.writer, payload)?;
            self.writer.flush()?;
            Ok(())
        })();
        sent.inspect_err(|_| self.poisoned = true)
    }

    /// Sends one request document in whatever format the connection
    /// speaks: a bare line under JSON, a [`TAG_JSON`] frame under the
    /// binary framing.
    fn send_request(&mut self, line: &str) -> Result<(), ClientError> {
        if self.format == WireFormat::Binary {
            return self.send_payload(&[&[TAG_JSON], line.as_bytes()].concat());
        }
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        // One write per line: a separate newline write lets Nagle stall
        // the tail segment behind the server's delayed ACK.
        let sent = self
            .writer
            .write_all(&[line.as_bytes(), b"\n"].concat())
            .and_then(|()| self.writer.flush());
        sent.map_err(|e| {
            self.poisoned = true;
            e.into()
        })
    }

    /// Reads one frame payload. A clean EOF before any header byte is
    /// [`ClientError::Disconnected`]; an EOF mid-frame is
    /// [`ClientError::Truncated`]. Timeouts, truncation, oversized
    /// frames, and I/O errors poison the connection (see the type docs).
    fn read_payload(&mut self) -> Result<Vec<u8>, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        let exchange = |this: &mut Self| -> Result<Vec<u8>, ClientError> {
            if this.reader.fill_buf()?.is_empty() {
                return Err(ClientError::Disconnected);
            }
            frame::read_frame(&mut this.reader, CLIENT_MAX_FRAME_BYTES).map_err(|e| {
                match e.kind() {
                    std::io::ErrorKind::UnexpectedEof => ClientError::Truncated,
                    std::io::ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
                    _ => e.into(),
                }
            })
        };
        exchange(self).inspect_err(|e| {
            self.poisoned = !matches!(e, ClientError::Disconnected);
        })
    }

    /// Reads one reply message in the connection's framing. A clean EOF
    /// before any byte is [`ClientError::Disconnected`]; a line cut off
    /// mid-way is [`ClientError::Truncated`]. Timeouts, truncation, and
    /// I/O errors poison the connection (see the type docs).
    fn read_message(&mut self) -> Result<Message, ClientError> {
        let text = |bytes: &[u8]| {
            std::str::from_utf8(bytes)
                .map_err(|_| ClientError::Protocol("reply is not valid UTF-8".into()))
                .and_then(|text| {
                    Json::parse(text).map_err(|e| ClientError::Protocol(e.to_string()))
                })
        };
        if self.format == WireFormat::Binary {
            let payload = self.read_payload()?;
            return match payload.split_first() {
                Some((&TAG_JSON, body)) => text(body).map(Message::Doc),
                Some(_) => Ok(Message::Dense(payload)),
                None => Err(ClientError::Protocol("empty frame".into())),
            };
        }
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        let exchange = |this: &mut Self| -> Result<Vec<u8>, ClientError> {
            let mut response = Vec::new();
            let read = this.reader.read_until(b'\n', &mut response)?;
            if read == 0 {
                return Err(ClientError::Disconnected);
            }
            if response.pop() != Some(b'\n') {
                return Err(ClientError::Truncated);
            }
            Ok(response)
        };
        let response = exchange(self).inspect_err(|e| {
            // read_until may have consumed a partial line before failing,
            // so the stream can no longer be re-synchronised.
            self.poisoned = !matches!(e, ClientError::Disconnected);
        })?;
        text(&response).map(Message::Doc)
    }

    /// Reads one reply that must be a JSON document.
    fn read_doc(&mut self) -> Result<Json, ClientError> {
        match self.read_message()? {
            Message::Doc(doc) => Ok(doc),
            Message::Dense(payload) => Err(ClientError::Protocol(format!(
                "expected a JSON reply, got frame tag 0x{:02x}",
                payload.first().copied().unwrap_or_default()
            ))),
        }
    }

    /// Maps a `{"ok":false,...}` document to [`ClientError::Remote`].
    fn check_ok(doc: &Json) -> Result<(), ClientError> {
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            Some(false) => Err(ClientError::Remote {
                kind: doc
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("error")
                    .to_string(),
                message: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified failure")
                    .to_string(),
                retry_after_ms: doc.get("retry-after-ms").and_then(Json::as_u64),
            }),
            None => Err(ClientError::Protocol(
                "response is missing the 'ok' field".into(),
            )),
        }
    }

    /// Sends one raw request line and parses the response line, mapping
    /// `{"ok":false}` responses to [`ClientError::Remote`]. A clean EOF
    /// before any response byte is [`ClientError::Disconnected`]; a line
    /// cut off mid-way is [`ClientError::Truncated`]. Timeouts,
    /// truncation, and I/O errors poison the connection (see the type
    /// docs); later calls fail with [`ClientError::Poisoned`].
    pub fn call_raw(&mut self, line: &str) -> Result<Json, ClientError> {
        self.send_request(line)?;
        let doc = self.read_doc()?;
        Self::check_ok(&doc)?;
        Ok(doc)
    }

    /// Sends one request document.
    pub fn call(&mut self, request: &Json) -> Result<Json, ClientError> {
        self.call_raw(&request.to_string())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&encode_request(&WireRequest::Ping))?;
        Ok(())
    }

    /// Queries the serving topology and service shape.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        let doc = self.call(&encode_request(&WireRequest::Info))?;
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol(format!("info response lacks '{name}'")))
        };
        Ok(ServerInfo {
            d: field("d")?,
            g: field("g")?,
            n: field("n")?,
            shards: field("shards")?,
            cache_capacity: field("cache_capacity")?,
            topologies: Self::decode_shapes(&doc)?,
            max_topologies: doc
                .get("max_topologies")
                .and_then(Json::as_usize)
                .unwrap_or(1),
            version: doc
                .get("version")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            uptime_secs: doc.get("uptime_secs").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Decodes a `"topologies":[[d,g],...]` field (absent → empty). The
    /// one decoder both `info` and the batch summary use, so malformed
    /// entries fail loudly everywhere instead of being dropped in one
    /// path and erroring in the other.
    fn decode_shapes(doc: &Json) -> Result<Vec<(usize, usize)>, ClientError> {
        let mut topologies = Vec::new();
        if let Some(shapes) = doc.get("topologies").and_then(Json::as_arr) {
            for shape in shapes {
                let pair = shape
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .and_then(|p| Some((p.first()?.as_usize()?, p.get(1)?.as_usize()?)))
                    .ok_or_else(|| {
                        ClientError::Protocol("'topologies' entries must be [d, g]".into())
                    })?;
                topologies.push(pair);
            }
        }
        Ok(topologies)
    }

    /// Fetches the raw metrics snapshot document.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(&encode_request(&WireRequest::Stats))
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(&encode_request(&WireRequest::Shutdown))?;
        Ok(())
    }

    /// Sends a plan-cache management op (`action` is a
    /// [`crate::proto::CacheAction`] wire name: `save`, `load`, or
    /// `stats`) and returns the raw response document. `save`/`load`
    /// require the server to run with a `--cache-dir`.
    pub fn cache_op(&mut self, action: &str) -> Result<Json, ClientError> {
        let action = CacheAction::from_name(action).ok_or_else(|| {
            ClientError::Protocol(format!("unknown cache action '{action}' (save|load|stats)"))
        })?;
        self.call(&encode_request(&WireRequest::Cache { action }))
    }

    /// Sends one request and reads its whole reply — the one call a trace
    /// replay makes per record. On a binary connection a permutation route
    /// without faults, and a batch whose items all decoded and carry no
    /// faults, travel as dense frames; everything else travels as the JSON
    /// document [`encode_request`] writes, wrapped in a [`TAG_JSON`] frame
    /// on a binary connection.
    pub fn send(&mut self, request: &WireRequest<RouteRequest>) -> Result<Answer, ClientError> {
        let binary = self.format == WireFormat::Binary;
        match request {
            WireRequest::Route { req, want_schedule } => {
                match &req.body {
                    Ok(RouteBody::Perm { kind, pi, faults })
                        if binary && faults.is_empty() && dense_kind(*kind) =>
                    {
                        let shape = frame_shape(req.d, req.g);
                        let payload = frame::encode_route_request(*kind, *want_schedule, shape, pi);
                        self.send_payload(&payload)?
                    }
                    _ => self.send_request(&encode_request(request).to_string())?,
                }
                self.read_route().map(Answer::Route)
            }
            WireRequest::Batch {
                items,
                want_schedule,
            } => {
                let dense = binary.then(|| {
                    let items = items.iter().map(|item| {
                        let pi = item.perm.as_ref().ok().filter(|_| item.faults.is_empty())?;
                        Some((frame_shape(item.d, item.g), pi.clone()))
                    });
                    items.collect::<Option<Vec<_>>>()
                });
                let sent = match dense.flatten() {
                    Some(dense) => {
                        self.send_payload(&frame::encode_batch_request(*want_schedule, dense))
                    }
                    None => self.send_request(&encode_request(request).to_string()),
                };
                let reply = sent.and_then(|()| self.read_batch(items.len()));
                if matches!(&reply, Err(ClientError::Protocol(_))) {
                    // A malformed or out-of-order response mid-stream
                    // leaves an unknown number of batch responses unread
                    // on the socket; later replies could no longer be
                    // matched to requests.
                    self.poisoned = true;
                }
                reply.map(Answer::Batch)
            }
            _ => self.call(&encode_request(request)).map(Answer::Doc),
        }
    }

    /// Routes `pi` with the given request kind (a [`crate::RequestKind`]
    /// wire name) on the server's default topology and decodes the reply.
    pub fn route_permutation(
        &mut self,
        kind: &str,
        pi: &Permutation,
    ) -> Result<RouteReply, ClientError> {
        self.route_permutation_on(kind, pi, None)
    }

    /// Routes `pi` on an explicit `(d, g)` topology — on a multi-topology
    /// server the shape *selects* (and may lazily construct) the serving
    /// backend; `None` uses the server's default.
    pub fn route_permutation_on(
        &mut self,
        kind: &str,
        pi: &Permutation,
        shape: Option<(usize, usize)>,
    ) -> Result<RouteReply, ClientError> {
        self.route_permutation_with_faults(kind, pi, shape, &[])
    }

    /// Routes `pi` with `faults` declared failed — the wire story of
    /// `pops request --fault`. The fault ids are composed with any
    /// baseline the server was started with; a non-empty effective set
    /// routes through the greedy fault router and the reply's
    /// [`RouteReply::degraded`] flag is set. Fault-carrying requests ride
    /// the JSON body even on a binary connection (the dense route frame
    /// has no fault list), so the degraded flag always round-trips.
    pub fn route_permutation_with_faults(
        &mut self,
        kind: &str,
        pi: &Permutation,
        shape: Option<(usize, usize)>,
        faults: &[usize],
    ) -> Result<RouteReply, ClientError> {
        let kind = RequestKind::from_name(kind)
            .ok_or_else(|| ClientError::Protocol(format!("unknown kind '{kind}'")))?;
        if self.format == WireFormat::Binary && faults.is_empty() && dense_kind(kind) {
            // The dense frame reads the borrowed permutation in place.
            self.send_payload(&frame::encode_route_request(kind, true, shape, pi))?;
            return self.read_route();
        }
        let body = RouteBody::Perm {
            kind,
            pi: pi.clone(),
            faults: faults.to_vec(),
        };
        self.route_json(shape, body)
    }

    /// Routes an h-relation given as `(source, destination)` pairs.
    pub fn route_h_relation(
        &mut self,
        requests: &[(usize, usize)],
    ) -> Result<RouteReply, ClientError> {
        self.route_h_relation_on(requests, None)
    }

    /// Routes an h-relation on an explicit topology (`None` uses the
    /// server's default shape). H-relation bodies always ride JSON — even
    /// on a binary connection the request travels as a `TAG_JSON` frame —
    /// because the dense route frame has no request list.
    pub fn route_h_relation_on(
        &mut self,
        requests: &[(usize, usize)],
        shape: Option<(usize, usize)>,
    ) -> Result<RouteReply, ClientError> {
        self.route_json(shape, RouteBody::HRelation(requests.to_vec()))
    }

    /// Sends a route as its JSON document and reads the reply.
    fn route_json(
        &mut self,
        shape: Option<(usize, usize)>,
        body: RouteBody,
    ) -> Result<RouteReply, ClientError> {
        let (d, g) = shape.unwrap_or((0, 0));
        let request = WireRequest::Route {
            req: RouteRequest {
                d,
                g,
                body: Ok(body),
            },
            want_schedule: true,
        };
        self.send_request(&encode_request(&request).to_string())?;
        self.read_route()
    }

    /// Sends one `{"op":"batch"}` request carrying `items` (optionally
    /// mixed-topology) and reads the streamed response: one line per item
    /// in input order, then the summary line. Per-item failures come back
    /// as `Err` entries in [`BatchReply::items`]; only transport problems
    /// and whole-batch rejections (e.g. the server's batch-size cap) fail
    /// the call itself. A batch carrying any faults rides the JSON body
    /// even on a binary connection — the dense batch frame has no fault
    /// lists.
    ///
    /// ```no_run
    /// use pops_permutation::families::vector_reversal;
    /// use pops_service::{BatchItem, ServiceClient};
    ///
    /// let mut client = ServiceClient::connect("127.0.0.1:7077")?;
    /// let reply = client.batch(
    ///     &[
    ///         // server default topology, healthy fabric
    ///         BatchItem { pi: vector_reversal(16), shape: None, faults: vec![] },
    ///         // another shape, with coupler 3 declared failed
    ///         BatchItem { pi: vector_reversal(16), shape: Some((2, 8)), faults: vec![3] },
    ///     ],
    ///     false, // no schedule bodies — slot counts and the summary only
    /// )?;
    /// assert_eq!(reply.items.len(), 2);
    /// println!(
    ///     "routed {} of {} items, {} slots total, {} topologies",
    ///     reply.summary.routed,
    ///     reply.summary.items,
    ///     reply.summary.slots,
    ///     reply.summary.topologies.len(),
    /// );
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn batch(
        &mut self,
        items: &[BatchItem],
        want_schedule: bool,
    ) -> Result<BatchReply, ClientError> {
        let items = items
            .iter()
            .map(|item| {
                let (d, g) = item.shape.unwrap_or((0, 0));
                BatchItemRequest {
                    d,
                    g,
                    perm: Ok(item.pi.clone()),
                    faults: item.faults.clone(),
                }
            })
            .collect();
        match self.send(&WireRequest::Batch {
            items,
            want_schedule,
        })? {
            Answer::Batch(reply) => Ok(reply),
            _ => Err(ClientError::Protocol("expected a batch reply".into())),
        }
    }

    /// Reads one route reply: a dense [`TAG_ROUTE_REPLY`] frame, or a JSON
    /// document (a JSON route reply, or an error).
    fn read_route(&mut self) -> Result<RouteReply, ClientError> {
        let payload = match self.read_message()? {
            Message::Doc(doc) => {
                Self::check_ok(&doc)?;
                return Self::decode_route(&doc);
            }
            Message::Dense(payload) => payload,
        };
        let Some((&TAG_ROUTE_REPLY, body)) = payload.split_first() else {
            return Err(ClientError::Protocol("expected a route reply frame".into()));
        };
        let decoded = frame::decode_route_reply(body).map_err(ClientError::Protocol)?;
        Ok(RouteReply {
            slots: decoded.slots,
            cache_hit: decoded.cache_hit,
            micros: decoded.micros,
            schedule: decoded.schedule,
            degraded: false,
        })
    }

    /// Reads one batch response stream: item replies in input order, then
    /// the summary. On a binary connection successful dense items arrive
    /// as [`TAG_BATCH_ITEM`] frames; per-item errors, JSON items and the
    /// summary are JSON documents in either framing.
    fn read_batch(&mut self, expected: usize) -> Result<BatchReply, ClientError> {
        let mut items = Vec::new();
        loop {
            let (index, item) = match self.read_message()? {
                Message::Dense(payload) => {
                    let Some((&TAG_BATCH_ITEM, body)) = payload.split_first() else {
                        return Err(ClientError::Protocol(
                            "unexpected frame inside a batch exchange".into(),
                        ));
                    };
                    let item = frame::decode_batch_item(body).map_err(ClientError::Protocol)?;
                    let reply = BatchItemReply {
                        d: item.d,
                        g: item.g,
                        slots: item.slots,
                        schedule: item.schedule,
                        degraded: false,
                    };
                    (item.index, Ok(reply))
                }
                Message::Doc(doc) => match doc.get("op").and_then(Json::as_str) {
                    Some("batch-item") => {
                        let index = doc
                            .get("index")
                            .and_then(Json::as_usize)
                            .ok_or_else(|| ClientError::Protocol("item lacks 'index'".into()))?;
                        (index, Self::decode_batch_item(&doc)?)
                    }
                    Some("batch") => {
                        // The summary terminates the stream; it is only
                        // valid once every submitted item has been answered.
                        Self::check_ok(&doc)?;
                        if items.len() != expected {
                            return Err(ClientError::Protocol(format!(
                                "summary after {} of {expected} items",
                                items.len(),
                            )));
                        }
                        let summary = Self::decode_batch_summary(&doc)?;
                        return Ok(BatchReply { items, summary });
                    }
                    _ => {
                        // A whole-batch rejection (size cap, parse problem)
                        // is a single plain error response.
                        Self::check_ok(&doc)?;
                        return Err(ClientError::Protocol(
                            "unexpected response line inside a batch exchange".into(),
                        ));
                    }
                },
            };
            if index != items.len() || index >= expected {
                return Err(ClientError::Protocol(format!(
                    "item {index} arrived out of order (expected {})",
                    items.len()
                )));
            }
            items.push(item);
        }
    }

    fn decode_batch_item(
        doc: &Json,
    ) -> Result<Result<BatchItemReply, BatchItemError>, ClientError> {
        if let Err(ClientError::Remote { kind, message, .. }) = Self::check_ok(doc) {
            return Ok(Err(BatchItemError { kind, message }));
        }
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol(format!("batch item lacks '{name}'")))
        };
        Ok(Ok(BatchItemReply {
            d: field("d")?,
            g: field("g")?,
            slots: field("slots")?,
            schedule: Self::decode_schedule(doc)?,
            degraded: Self::degraded(doc),
        }))
    }

    fn decode_batch_summary(doc: &Json) -> Result<BatchSummary, ClientError> {
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol(format!("batch summary lacks '{name}'")))
        };
        Ok(BatchSummary {
            items: field("items")?,
            routed: field("routed")?,
            failed: field("failed")?,
            slots: field("slots")?,
            micros: doc.get("micros").and_then(Json::as_u64).unwrap_or(0),
            topologies: Self::decode_shapes(doc)?,
        })
    }

    fn decode_route(doc: &Json) -> Result<RouteReply, ClientError> {
        let slots = doc
            .get("slots")
            .and_then(Json::as_usize)
            .ok_or_else(|| ClientError::Protocol("route response lacks 'slots'".into()))?;
        let cache_hit = doc.get("cache").and_then(Json::as_str) == Some("hit");
        let micros = doc.get("micros").and_then(Json::as_u64).unwrap_or(0);
        Ok(RouteReply {
            slots,
            cache_hit,
            micros,
            schedule: Self::decode_schedule(doc)?,
            degraded: Self::degraded(doc),
        })
    }

    /// A reply's `schedule` member (empty when absent).
    fn decode_schedule(doc: &Json) -> Result<Schedule, ClientError> {
        doc.get("schedule").map_or(Ok(Schedule::new()), |body| {
            schedule_from_json(body).map_err(ClientError::Protocol)
        })
    }

    /// A reply's `degraded` flag (absent on healthy plans).
    fn degraded(doc: &Json) -> bool {
        doc.get("degraded").and_then(Json::as_bool).unwrap_or(false)
    }
}
