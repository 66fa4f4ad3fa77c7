//! The std-only TCP front door: a JSON-lines server over a
//! [`TopologyRouter`] of [`RoutingService`]s, hardened for hostile
//! traffic.
//!
//! One server fronts **many topologies**: each request's `d`/`g` fields
//! select (and lazily construct) the backend service, bounded by the
//! router's LRU registry; `{"op":"batch"}` requests fan a whole vector of
//! permutations through the per-topology batch fast path and stream one
//! response line per item plus a trailing summary.
//!
//! Connections speak JSON lines until (and unless) they negotiate the
//! opt-in binary framing with `{"op":"hello","format":"binary"}` — the
//! acknowledgement is the last JSON line, and both directions then switch
//! to the length-prefixed frames of [`crate::frame`]. The two wire
//! formats are codecs over **one request path**:
//!
//! ```text
//! read_message      one bounded reader; the framing only says when a
//!                   line or frame is complete (`MessageReader`)
//! decode_message    JSON line, TAG_JSON frame or dense TAG_ROUTE/TAG_BATCH
//!                   frame → one owned request (shared with `pops record`)
//! dispatch          one ordered sequence for every request: admission →
//!                   service selection → validation against the topology
//!                   → record → baseline composition → route (control ops
//!                   skip the steps that do not concern them)
//! encode_replies    typed replies → wire bytes in the request's codec;
//!                   error kinds are counted from the typed replies
//! ```
//!
//! Everything between reading and writing (`exchange`) runs without a
//! socket, and each trace stage is marked from one place, so every
//! request has the same stage sequence in every framing.
//!
//! One thread per connection (each service's admission gate, not the
//! thread count, bounds concurrent routing work), governed by a
//! [`ServerConfig`]:
//!
//! * **Bounded reads.** Requests are read through a capped reader — a
//!   line or frame longer than `max_line_bytes` is answered with a
//!   structured `too-large` error and the connection closed, instead of
//!   buffering an unterminated message without bound (a remote OOM).
//! * **Read deadlines.** `read_timeout` is the budget for receiving one
//!   *complete* message, measured from when the server starts waiting — a
//!   slow-loris client dripping a byte per second cannot reset it, and an
//!   idle connection is reclaimed after the same budget. Timed-out
//!   connections get a structured `timeout` error (best effort) and are
//!   closed; the handler thread exits rather than leaking.
//! * **Connection cap.** At `max_connections` live handlers, further
//!   accepts are answered with an `unavailable` error and closed.
//! * **Graceful drain.** Every accepted connection is tracked in a
//!   registry. `{"op":"shutdown"}` flips the shutdown flag and [`serve`]
//!   then **joins** every handler thread before returning. Handlers
//!   waiting for input observe the flag within two poll ticks and close
//!   their own sockets — nobody closes a socket out from under a request,
//!   so any request line fully delivered before shutdown is read and
//!   answered, and a handler mid-request finishes writing its complete
//!   response first. Only lines still partially in flight when the flag
//!   flips are dropped.
//!
//! `std::net` exposes no `SO_KEEPALIVE` setter (and this workspace takes
//! no socket crate), so dead-peer detection is subsumed by the read
//! deadline; `tcp_nodelay` is available for latency-sensitive callers.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::exposition::{self, Exposition};
use crate::frame::{self, TAG_JSON};
use crate::json::Json;
use crate::metrics::{Counter, MetricsSnapshot, RequestKind, ServiceMetrics};
use crate::proto::{
    attach_trace, batch_summary_response, cache_persist_response, cache_stats_response,
    decode_message, error_response, hello_response, info_response, pong_response,
    shutdown_response, stats_response, BatchItemRequest, CacheAction, Codec, ItemPlan, Reply,
    RouteBody, RouteRequest, WireErrorKind, WireFormat, WireRequest,
};
use crate::record::TraceRecorder;
use crate::router::{RouterError, TopologyRouter, TopologyRouterConfig};
use crate::service::{RoutingService, ServiceReply, ServiceRequest};
use crate::trace::{RequestTrace, SlowLog, SlowVerdict};
use pops_core::{FaultRoutingError, RoutingError};
use pops_network::{FaultSet, PopsTopology};
use pops_permutation::Permutation;

/// Limits and timeouts of one [`serve_with_config`] loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Budget for receiving one complete request line (also the idle
    /// timeout between requests). `None` disables the deadline.
    pub read_timeout: Option<Duration>,
    /// Per-write socket timeout for responses. `None` disables it.
    pub write_timeout: Option<Duration>,
    /// Maximum request-line length in bytes (newline excluded). Longer
    /// frames get a `too-large` error and the connection is closed.
    pub max_line_bytes: usize,
    /// Maximum live connections; further accepts are refused with an
    /// `unavailable` error.
    pub max_connections: usize,
    /// Whether to set `TCP_NODELAY` on accepted sockets.
    pub tcp_nodelay: bool,
    /// Directory the `{"op":"cache"}` save/load actions spill to and
    /// restore from (one file per topology,
    /// [`crate::persist::topology_file_path`]). `None` — the default —
    /// answers those actions with a `bad-request` error; clients never
    /// choose paths.
    pub cache_dir: Option<PathBuf>,
    /// Most items one `{"op":"batch"}` request may carry; larger batches
    /// are refused whole with a `too-large` error (never silently
    /// truncated).
    pub max_batch_items: usize,
    /// Most **distinct topologies** one batch may touch. Admitting a
    /// topology can construct a warm service, so without this cap a
    /// single batch line naming ~`max_batch_items` distinct shapes would
    /// amplify into that many expensive constructions (and LRU-evict
    /// every other client's warm shape on the way). Refused whole with
    /// `too-large`.
    pub max_batch_topologies: usize,
    /// Global admission watermark: the most route/batch requests allowed
    /// in service at once across every connection. A request beyond it is
    /// **shed** — answered immediately with a typed `overloaded` error
    /// carrying `retry-after-ms` — instead of queueing unboundedly at the
    /// per-service admission gate. Control ops (ping, info, stats, cache)
    /// are never shed, so the server stays observable under overload.
    /// `None` — the default — disables watermark shedding.
    pub overload_watermark: Option<usize>,
    /// Per-client token-bucket quota in route/batch requests per second,
    /// keyed by peer IP. Requests beyond the bucket are shed with an
    /// `overloaded` error whose `retry-after-ms` is the time until the
    /// next token. `None` — the default — disables quotas.
    pub quota_rps: Option<u64>,
    /// Token-bucket burst capacity (tokens a quiet client accumulates).
    /// `None` defaults to the rate, i.e. a one-second burst.
    pub quota_burst: Option<u64>,
    /// Threshold above which a finished request emits a rate-limited
    /// slow-request trace line (see [`crate::trace`]) to stderr. `None` —
    /// the default — disables the slow log; trace ids are still assigned
    /// and echoed on JSON responses either way.
    pub slow_threshold: Option<Duration>,
    /// Port for a dedicated metrics sidecar listener answering
    /// `GET /metrics`, bound on the same interface as the main listener
    /// (the main listener answers `GET /metrics` regardless, so scrapers
    /// work without this). `None` — the default — binds no sidecar.
    pub metrics_port: Option<u16>,
    /// Operator-declared baseline fault sets, keyed by `(d, g)`: the
    /// coupler ids listed for a shape are composed (set union) into every
    /// `theorem2`/`faults` route and batch item served on that shape —
    /// the wire story of `pops serve --fault DxG:c1,c2,...`. Diagnostic
    /// kinds (`single-slot`, `direct`, `structured`, `h-relation`) probe
    /// the *healthy* fabric and ignore the baseline. Ids must be in
    /// `0..g²`; [`serve_router`] refuses to start otherwise. Empty — the
    /// default — declares every topology healthy.
    pub baseline_faults: Vec<((usize, usize), Vec<usize>)>,
    /// Append-only JSONL trace file every decoded route/batch/cache
    /// request is teed to (see [`crate::record`]) — the wire story of
    /// `pops serve --record trace.jsonl`. Recording is a pure observer:
    /// responses, schedules, and errors are byte-identical with it on or
    /// off. `None` — the default — records nothing.
    pub record_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            // Large enough for a permutation over the biggest topology the
            // CLI accepts (n = 2^20 needs ~8 MiB of JSON), small enough to
            // bound a hostile unterminated line.
            max_line_bytes: 16 << 20,
            max_connections: 256,
            tcp_nodelay: false,
            cache_dir: None,
            max_batch_items: 1024,
            max_batch_topologies: 8,
            overload_watermark: None,
            quota_rps: None,
            quota_burst: None,
            slow_threshold: None,
            metrics_port: None,
            baseline_faults: Vec::new(),
            record_path: None,
        }
    }
}

/// What a finished [`serve`] loop saw.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// Connections accepted and handled (the shutdown wake-up and
    /// capacity-rejected connections excluded).
    pub connections: u64,
    /// Request lines answered.
    pub requests: u64,
    /// The fleet-wide aggregate snapshot at shutdown: every resident
    /// topology's registry absorbed, plus the connection layer.
    pub metrics: MetricsSnapshot,
}

/// What clients are told to wait when a watermark shed happens. The
/// watermark clears as soon as any in-flight request finishes, so this
/// is deliberately short.
const WATERMARK_RETRY_MS: u64 = 100;

/// Most peer IPs tracked by the quota map at once; beyond this, fully
/// refilled (idle) buckets are pruned, and as a last resort the map is
/// cleared — a source-address spray degrades quota precision, never
/// memory.
const MAX_QUOTA_CLIENTS: usize = 4096;

/// Why a request was shed, and what to tell the client.
#[derive(Debug)]
struct Shed {
    /// `true` for a per-client quota shed, `false` for the watermark.
    quota: bool,
    retry_after_ms: u64,
    msg: String,
}

/// One peer's token bucket: `tokens` refill at the configured rate up to
/// the burst capacity; each admitted route/batch request spends one.
struct TokenBucket {
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    fn refill(&mut self, now: Instant, rps: u64, burst: u64) {
        let elapsed = now.duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + elapsed * rps as f64).min(burst as f64);
        self.refilled = now;
    }
}

/// Overload control for route/batch work: a per-client token-bucket
/// quota (checked first — a noisy neighbour is shed before it can claim
/// a watermark slot) and a global in-flight watermark. Both default off;
/// with neither configured [`OverloadControl::try_admit`] is two `None`
/// checks and touches no shared state.
struct OverloadControl {
    watermark: Option<usize>,
    quota_rps: Option<u64>,
    quota_burst: u64,
    inflight: AtomicU64,
    buckets: Mutex<HashMap<IpAddr, TokenBucket>>,
}

impl OverloadControl {
    fn from_config(config: &ServerConfig) -> Self {
        Self {
            watermark: config.overload_watermark,
            quota_rps: config.quota_rps,
            quota_burst: config.quota_burst.or(config.quota_rps).unwrap_or(1).max(1),
            inflight: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Admits one route/batch request or says how it was shed. The
    /// returned guard releases the watermark slot when dropped — hold it
    /// for the request's whole time in service.
    fn try_admit(&self, peer: Option<IpAddr>) -> Result<InflightGuard<'_>, Shed> {
        if let (Some(rps), Some(ip)) = (self.quota_rps, peer) {
            let burst = self.quota_burst;
            let now = Instant::now();
            let mut buckets = self
                .buckets
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let bucket = buckets.entry(ip).or_insert(TokenBucket {
                tokens: burst as f64,
                refilled: now,
            });
            bucket.refill(now, rps, burst);
            if bucket.tokens < 1.0 {
                let deficit = 1.0 - bucket.tokens;
                let retry_after_ms = ((deficit / rps as f64) * 1000.0).ceil().max(1.0) as u64;
                drop(buckets);
                return Err(Shed {
                    quota: true,
                    retry_after_ms,
                    msg: format!("client quota exceeded ({rps} requests/s, burst {burst})"),
                });
            }
            bucket.tokens -= 1.0;
            if buckets.len() > MAX_QUOTA_CLIENTS {
                buckets.retain(|_, b| {
                    let mut probe = TokenBucket {
                        tokens: b.tokens,
                        refilled: b.refilled,
                    };
                    probe.refill(now, rps, burst);
                    probe.tokens < burst as f64
                });
                if buckets.len() > MAX_QUOTA_CLIENTS {
                    buckets.clear();
                }
            }
        }
        if let Some(watermark) = self.watermark {
            let previous = self.inflight.fetch_add(1, Ordering::SeqCst);
            if previous as usize >= watermark {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                return Err(Shed {
                    quota: false,
                    retry_after_ms: WATERMARK_RETRY_MS,
                    msg: format!("server is at its in-flight watermark ({watermark})"),
                });
            }
            return Ok(InflightGuard {
                control: self,
                counted: true,
            });
        }
        Ok(InflightGuard {
            control: self,
            counted: false,
        })
    }
}

/// Releases the watermark slot its request held.
struct InflightGuard<'a> {
    control: &'a OverloadControl,
    counted: bool,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if self.counted {
            self.control.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Shared state of one serve loop: the topology router, the shutdown
/// flag, the connection registry, and the counters the summary reports.
struct ServeState {
    router: Arc<TopologyRouter>,
    /// Connection-layer counters (opened/closed/rejected, oversized
    /// lines, read timeouts). Request counters live in each topology's
    /// own service registry; the `stats` op absorbs both into one
    /// fleet-wide view.
    server_metrics: Arc<ServiceMetrics>,
    config: ServerConfig,
    listener_addr: SocketAddr,
    /// When the server started, for `uptime_secs` and the exposition.
    started: Instant,
    /// The slow-request log, present when `slow_threshold` is set.
    slow_log: Option<SlowLog>,
    /// Overload control for route/batch work (no-op unless configured).
    overload: OverloadControl,
    shutdown: AtomicBool,
    /// Live connections by id: their join handles (joined by the accept
    /// loop's reaper or the final drain) — also the live-connection count
    /// the capacity cap checks.
    conns: Mutex<HashMap<u64, ConnHandle>>,
    /// Ids of handlers that have exited, awaiting a reap.
    finished: Mutex<Vec<u64>>,
    requests: AtomicU64,
    /// Live capacity-reject helper threads, capped at
    /// [`MAX_REJECT_THREADS`] so a connect flood against a full server
    /// cannot mint threads faster than they retire.
    reject_threads: AtomicU64,
    /// The request-trace tee, present when `record_path` is set. Purely
    /// observational: hooks fire after decode and never alter responses.
    recorder: Option<TraceRecorder>,
}

struct ConnHandle {
    join: Option<JoinHandle<()>>,
}

impl ServeState {
    /// The state of a serve loop whose listener is bound at
    /// `listener_addr`. Refuses a misconfigured baseline up front —
    /// `fail_coupler` panics on an out-of-range id, and a fault list that
    /// silently dropped entries would serve schedules that drive couplers
    /// the operator declared dead — and opens the trace file before
    /// anything is accepted: an unwritable recording target is a boot
    /// error, not a silently-dropped tee.
    fn new(
        router: Arc<TopologyRouter>,
        config: ServerConfig,
        listener_addr: SocketAddr,
    ) -> std::io::Result<Self> {
        for ((d, g), ids) in &config.baseline_faults {
            let couplers = g.saturating_mul(*g);
            if let Some(&c) = ids.iter().find(|&&c| c >= couplers) {
                return Err(std::io::Error::other(format!(
                    "baseline fault set for {d}x{g}: coupler {c} out of range (couplers: 0..{couplers})"
                )));
            }
        }
        let recorder = match &config.record_path {
            None => None,
            Some(path) => Some(TraceRecorder::create(path).map_err(|e| {
                std::io::Error::other(format!("cannot record to {}: {e}", path.display()))
            })?),
        };
        Ok(Self {
            router,
            server_metrics: Arc::new(ServiceMetrics::new()),
            listener_addr,
            started: Instant::now(),
            slow_log: config.slow_threshold.map(SlowLog::new),
            overload: OverloadControl::from_config(&config),
            config,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            finished: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            reject_threads: AtomicU64::new(0),
            recorder,
        })
    }

    /// Flips the shutdown flag and pokes the accept loop. Handlers notice
    /// the flag within [`SHUTDOWN_POLL`] (or finish their in-flight
    /// response first); [`serve_with_config`] joins them all.
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.listener_addr);
    }
}

/// Serves `service` on `listener` with the default [`ServerConfig`] until
/// a client sends `{"op":"shutdown"}`. Blocks the calling thread.
pub fn serve(
    listener: TcpListener,
    service: Arc<RoutingService>,
) -> std::io::Result<ServerSummary> {
    serve_with_config(listener, service, ServerConfig::default())
}

/// Serves `service` on `listener` under `config` until a client sends
/// `{"op":"shutdown"}` — the **single-topology** compatibility entry:
/// the service is wrapped as the pinned sole resident of a one-slot
/// [`TopologyRouter`], so requests for any other shape are refused with a
/// `topology-limit` error exactly as a fixed-shape server should. Blocks
/// the calling thread; returns only after **every** accepted connection's
/// handler thread has been joined.
pub fn serve_with_config(
    listener: TcpListener,
    service: Arc<RoutingService>,
    config: ServerConfig,
) -> std::io::Result<ServerSummary> {
    // The caller already built (and owns the memory of) this service, so
    // the router must accept its shape whatever its size — the size
    // limits exist to stop *remote* clients minting services, and with a
    // one-slot all-pinned registry no dynamic admission can happen.
    let router_config = TopologyRouterConfig {
        max_topologies: 1,
        ..TopologyRouterConfig::default()
    };
    let max_n = router_config.max_n.max(service.topology().n());
    let router = Arc::new(TopologyRouter::from_service(
        service,
        TopologyRouterConfig {
            max_n,
            ..router_config
        },
    ));
    serve_router(listener, router, config)
}

/// Serves a whole [`TopologyRouter`] on `listener` under `config` until a
/// client sends `{"op":"shutdown"}` — the multi-topology entry behind
/// `pops serve`. Blocks the calling thread; returns only after **every**
/// accepted connection's handler thread has been joined.
pub fn serve_router(
    listener: TcpListener,
    router: Arc<TopologyRouter>,
    config: ServerConfig,
) -> std::io::Result<ServerSummary> {
    let listener_addr = listener.local_addr()?;
    let state = Arc::new(ServeState::new(router, config, listener_addr)?);
    let metrics = state.server_metrics.clone();
    // Optional metrics sidecar: a second listener on the same interface
    // that only ever answers HTTP GETs, so a scraper never competes with
    // wire clients for the main accept loop or the connection cap.
    let sidecar = match state.config.metrics_port {
        None => None,
        Some(port) => {
            let sidecar_listener = TcpListener::bind((listener_addr.ip(), port))?;
            let sidecar_state = state.clone();
            Some(
                std::thread::Builder::new()
                    .name("pops-metrics".into())
                    .spawn(move || metrics_sidecar_loop(sidecar_listener, &sidecar_state))?,
            )
        }
    };
    let mut next_id: u64 = 0;
    let mut connections: u64 = 0;

    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        reap_finished(&state);
        let active = state
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        if active >= state.config.max_connections {
            metrics.add(Counter::ConnsRejected, 1);
            reject_at_capacity(stream, &state);
            continue;
        }
        connections += 1;
        metrics.add(Counter::ConnsOpened, 1);
        let id = next_id;
        next_id += 1;
        let handler_state = state.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("pops-conn-{id}"))
            .spawn(move || {
                let _ = handle_connection(stream, &handler_state, id);
                handler_state.server_metrics.add(Counter::ConnsClosed, 1);
                handler_state
                    .finished
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(id);
            });
        match spawned {
            Ok(join) => {
                state
                    .conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(id, ConnHandle { join: Some(join) });
            }
            Err(_) => {
                metrics.add(Counter::ConnsClosed, 1);
            }
        }
    }

    // Graceful drain: join every handler. Idle handlers observe the flag
    // within a poll tick; in-flight ones finish writing their complete
    // responses first.
    let drained: Vec<ConnHandle> = {
        let mut conns = state
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        conns.drain().map(|(_, conn)| conn).collect()
    };
    for mut conn in drained {
        if let Some(join) = conn.join.take() {
            let _ = join.join();
        }
    }
    if let Some(join) = sidecar {
        let _ = join.join();
    }

    let (aggregate, _) = aggregate_stats(&state);
    Ok(ServerSummary {
        connections,
        requests: state.requests.load(Ordering::Relaxed),
        metrics: aggregate,
    })
}

/// Joins handler threads that have already exited, keeping the registry
/// (and its join handles) from growing without bound on a long-lived
/// server.
fn reap_finished(state: &ServeState) {
    let finished: Vec<u64> = {
        let mut list = state
            .finished
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *list)
    };
    if finished.is_empty() {
        return;
    }
    let mut conns = state
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for id in finished {
        if let Some(mut conn) = conns.remove(&id) {
            if let Some(join) = conn.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// How often a waiting reader re-checks the shutdown flag. Short enough
/// that drain latency is imperceptible, long enough that an idle
/// connection costs ~20 wakeups per second.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Hard bounds on the post-error drain: total wall-clock and total bytes.
const DRAIN_BUDGET: Duration = Duration::from_millis(250);
const DRAIN_MAX_BYTES: usize = 64 * 1024;

/// Most capacity-reject helper threads alive at once; connections beyond
/// this under a connect flood are dropped without the polite error line.
const MAX_REJECT_THREADS: u64 = 32;

/// Answers a connection refused at the capacity limit with a structured
/// error (best effort) and drops it. The polite path runs on a
/// short-lived thread (its lifetime is bounded by a 1 s write timeout
/// plus the [`DRAIN_BUDGET`] drain) so a reject never stalls the accept
/// loop: after the error line the write side is FIN'd and any request
/// the client already pipelined is swallowed — closing with unread input
/// would RST the error line out of the peer's receive buffer. At most
/// [`MAX_REJECT_THREADS`] of these run concurrently; a flood beyond that
/// gets its sockets dropped on the spot, so rejected clients can never
/// mint unbounded threads. (The helpers are detached: up to 32 may
/// linger ~1 s past `serve` returning, holding nothing but a dead
/// socket.)
fn reject_at_capacity(stream: TcpStream, state: &Arc<ServeState>) {
    if state.reject_threads.fetch_add(1, Ordering::SeqCst) >= MAX_REJECT_THREADS {
        state.reject_threads.fetch_sub(1, Ordering::SeqCst);
        return; // flood mode: drop without the courtesy line
    }
    let helper_state = state.clone();
    let spawned = std::thread::Builder::new()
        .name("pops-conn-reject".into())
        .spawn(move || {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let mut writer = stream;
            let response = error_response(
                WireErrorKind::Unavailable,
                format!(
                    "server is at its connection capacity ({})",
                    helper_state.config.max_connections
                ),
            );
            let text = response.to_string();
            if writeln!(writer, "{text}").is_ok() {
                // Even a courtesy rejection is wire traffic and a typed
                // error — the counters must see both.
                helper_state
                    .server_metrics
                    .record_wire_bytes(false, 0, text.len() as u64 + 1);
                helper_state
                    .server_metrics
                    .record_wire_error(WireErrorKind::Unavailable);
            }
            close_after_error(&mut writer);
            helper_state.reject_threads.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        state.reject_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Politely closes a connection after a fatal error line: FIN the write
/// side, then briefly drain pending input — dropping a socket with
/// unread data makes the kernel RST it, which would discard the error
/// line out of the peer's receive buffer before it reads it. The drain
/// is hard-bounded by [`DRAIN_BUDGET`] wall-clock and [`DRAIN_MAX_BYTES`]
/// total, so a client dripping bytes cannot pin the thread.
fn close_after_error(writer: &mut TcpStream) {
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_BUDGET;
    let mut budget = DRAIN_MAX_BYTES;
    let mut sink = [0u8; 1024];
    while budget > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() || writer.set_read_timeout(Some(remaining)).is_err() {
            break;
        }
        match std::io::Read::read(writer, &mut sink) {
            Ok(n) if n > 0 => budget = budget.saturating_sub(n),
            _ => break, // EOF, timeout, or error — done draining
        }
    }
}

/// How reading one message ended. Shared with the recording proxy
/// ([`crate::record`]), which reads client traffic under the same caps.
pub(crate) enum ReadOutcome {
    /// A complete message: a line without its `\n` (and any `\r`), or a
    /// frame payload without its length prefix.
    Message(Vec<u8>),
    /// The peer closed the connection (partial messages are dropped).
    Eof,
    /// The message exceeded the configured cap; carries the bytes
    /// consumed before giving up, so the traffic counters still see them.
    TooLong { consumed: u64 },
    /// No complete message arrived within the read deadline; carries the
    /// partial bytes consumed while waiting.
    TimedOut { consumed: u64 },
    /// The server is shutting down — the handler should close quietly.
    ShuttingDown,
}

/// A connection's read side: the buffered socket, and the read timeout
/// last set on it.
pub(crate) struct MessageReader {
    inner: BufReader<TcpStream>,
    /// The socket's read timeout as last set here. A pass calls
    /// `set_read_timeout` (one `setsockopt`) only when its slice differs,
    /// so under a deadline longer than [`SHUTDOWN_POLL`] a connection sets
    /// it once, not once per pass.
    timeout: Option<Duration>,
}

impl MessageReader {
    /// A reader over `stream`, whose read timeout is set on first use.
    pub(crate) fn new(stream: TcpStream) -> Self {
        Self {
            inner: BufReader::new(stream),
            timeout: None,
        }
    }

    /// Reads one message in `framing`, enforcing the length cap and the
    /// whole-message deadline. The framing decides only when a message is
    /// complete: a line ends at `\n`, a frame after the payload length its
    /// 4-byte prefix declares. A line is capped on the bytes read; a frame
    /// on its **declared** length, refused before any of its payload is
    /// buffered, and its payload is read into a buffer of exactly that
    /// length.
    ///
    /// Waits in [`SHUTDOWN_POLL`] slices so the shutdown flag is noticed
    /// promptly — but only on a tick where no data was pending, and even
    /// then only after one extra grace tick (catching a request segment
    /// that was in flight when the flag flipped). A message delivered
    /// before shutdown is therefore read and served, and no socket is ever
    /// torn down mid-request; only partial messages are dropped. Pipelined
    /// messages stay buffered.
    pub(crate) fn read_message(
        &mut self,
        framing: WireFormat,
        max_bytes: usize,
        deadline: Option<Duration>,
        shutdown: &AtomicBool,
    ) -> std::io::Result<ReadOutcome> {
        // A line accumulates in `buf`. A frame reads its length prefix
        // into `header`, then its payload into `buf`, allocated once the
        // prefix has declared `frame_len`.
        let mut buf: Vec<u8> = Vec::new();
        let (mut header, mut header_len) = ([0u8; 4], 0usize);
        let mut frame_len: Option<usize> = None;
        let started = Instant::now();
        let mut shutdown_grace_used = false;
        loop {
            let mut slice = SHUTDOWN_POLL;
            if let Some(budget) = deadline {
                match budget.checked_sub(started.elapsed()) {
                    Some(remaining) if !remaining.is_zero() => slice = slice.min(remaining),
                    _ => {
                        let consumed = (header_len + buf.len()) as u64;
                        return Ok(ReadOutcome::TimedOut { consumed });
                    }
                }
            }
            if self.timeout != Some(slice) {
                self.inner.get_ref().set_read_timeout(Some(slice))?;
                self.timeout = Some(slice);
            }
            let available = match self.inner.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Nothing arrived this tick: notice a shutdown (after
                    // one grace tick for a segment racing the flag),
                    // otherwise keep waiting towards the deadline.
                    if shutdown.load(Ordering::SeqCst) {
                        if shutdown_grace_used {
                            return Ok(ReadOutcome::ShuttingDown);
                        }
                        shutdown_grace_used = true;
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(ReadOutcome::Eof);
            }
            match (framing, frame_len) {
                (WireFormat::Json, _) => {
                    // How many of the available bytes belong to this line,
                    // and whether its terminating newline is among them.
                    let (take, newline) = match available.iter().position(|&b| b == b'\n') {
                        Some(at) => (at, true),
                        None => (available.len(), false),
                    };
                    if buf.len() + take > max_bytes {
                        return Ok(ReadOutcome::TooLong {
                            consumed: (buf.len() + take) as u64,
                        });
                    }
                    buf.extend_from_slice(available.get(..take).unwrap_or_default());
                    self.inner.consume(take + usize::from(newline));
                    if newline {
                        if buf.last() == Some(&b'\r') {
                            buf.pop();
                        }
                        return Ok(ReadOutcome::Message(buf));
                    }
                }
                (WireFormat::Binary, None) => {
                    let missing = header.get_mut(header_len..).unwrap_or_default();
                    let take = missing.len().min(available.len());
                    for (byte, &read) in missing.iter_mut().zip(available) {
                        *byte = read;
                    }
                    self.inner.consume(take);
                    header_len += take;
                    if header_len == header.len() {
                        let len = u32::from_le_bytes(header) as usize;
                        if len > max_bytes {
                            return Ok(ReadOutcome::TooLong { consumed: 4 });
                        }
                        buf = Vec::with_capacity(len);
                        frame_len = Some(len);
                    }
                }
                (WireFormat::Binary, Some(len)) => {
                    let take = (len - buf.len()).min(available.len());
                    buf.extend_from_slice(available.get(..take).unwrap_or_default());
                    self.inner.consume(take);
                }
            }
            if frame_len == Some(buf.len()) {
                return Ok(ReadOutcome::Message(buf));
            }
            // Still mid-message: a shutdown abandons the partial (only
            // *complete* messages are owed a response). Without this, a
            // client dripping bytes would dodge the WouldBlock tick above
            // and stall the drain for the whole read deadline — or forever
            // with timeouts disabled.
            if shutdown.load(Ordering::SeqCst) {
                return Ok(ReadOutcome::ShuttingDown);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, state: &ServeState, conn_id: u64) -> std::io::Result<()> {
    if state.config.tcp_nodelay {
        let _ = stream.set_nodelay(true);
    }
    stream.set_write_timeout(state.config.write_timeout)?;
    let config = &state.config;
    let metrics = &state.server_metrics;
    let peer = stream.peer_addr().ok().map(|addr| addr.ip());
    let mut reader = MessageReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut framing = WireFormat::Json;
    let mut seq: u64 = 0;
    loop {
        // No shutdown check here: already-delivered requests (buffered or
        // still a segment in flight) must be served first, and the reader
        // notices the flag itself within two poll ticks.
        let binary = framing == WireFormat::Binary;
        let outcome = reader.read_message(
            framing,
            config.max_line_bytes,
            config.read_timeout,
            &state.shutdown,
        )?;
        let (kind, msg, bytes_in) = match outcome {
            ReadOutcome::Eof | ReadOutcome::ShuttingDown => break,
            ReadOutcome::TimedOut { consumed } => {
                metrics.add(Counter::ReadTimeouts, 1);
                let unit = if binary { "frame" } else { "request line" };
                let budget = config.read_timeout.unwrap_or_default();
                let msg = format!("no complete {unit} within {budget:?}");
                (WireErrorKind::Timeout, msg, consumed)
            }
            ReadOutcome::TooLong { consumed } => {
                metrics.add(Counter::OversizedLines, 1);
                let cap = config.max_line_bytes;
                let msg = if binary {
                    format!("frame exceeds the {cap}-byte payload cap")
                } else {
                    format!("request line exceeds the {cap}-byte cap")
                };
                (WireErrorKind::TooLarge, msg, consumed)
            }
            ReadOutcome::Message(message) => {
                let bytes_in = message.len() as u64 + if binary { 4 } else { 1 };
                if !binary {
                    let line = String::from_utf8_lossy(&message);
                    if line.trim().is_empty() {
                        continue;
                    }
                    // A scraper, not a wire client: answer the HTTP
                    // request and close.
                    if let Some(path) = exposition::http_request_path(&line) {
                        let bytes_out = answer_http(&mut writer, state, path);
                        metrics.record_wire_bytes(false, bytes_in, bytes_out);
                        break;
                    }
                }
                seq += 1;
                let mut trace = RequestTrace::start(conn_id, seq);
                state.requests.fetch_add(1, Ordering::Relaxed);
                let (wire, stop, negotiated) = exchange(state, framing, &message, peer, &mut trace);
                // Counted before the write, so a client that has read the
                // reply also sees it in the byte counters.
                metrics.record_wire_bytes(binary, bytes_in, wire.len() as u64);
                // The whole answer goes out in ONE write: per-response (or
                // worse, per-fragment) writes on a raw socket without
                // TCP_NODELAY let Nagle hold the tail segment until the
                // peer's delayed ACK fires — a ~40 ms stall per reply.
                writer.write_all(&wire)?;
                writer.flush()?;
                trace.stage("serialize");
                if let Some(slow_log) = &state.slow_log {
                    match slow_log.observe(&trace) {
                        SlowVerdict::Fast => {}
                        SlowVerdict::Emit(line) => {
                            metrics.add(Counter::SlowTraces, 1);
                            eprintln!("{line}");
                        }
                        SlowVerdict::Suppressed => metrics.add(Counter::SlowTracesSuppressed, 1),
                    }
                }
                if let Some(new_framing) = negotiated {
                    if new_framing == WireFormat::Binary && !binary {
                        metrics.add(Counter::ConnsBinary, 1);
                    }
                    framing = new_framing;
                }
                if stop {
                    state.initiate_shutdown();
                    break;
                }
                continue;
            }
        };
        // Fatal transport-level problem: answer in the connection's
        // framing (best effort) and close. The partial request bytes
        // consumed before giving up still count.
        let codec = if binary {
            Codec::JsonFrame
        } else {
            Codec::Line
        };
        let wire = encode_replies(metrics, codec, vec![Reply::error(kind, msg)], None);
        let bytes_out = match writer.write_all(&wire).and_then(|()| writer.flush()) {
            Ok(()) => wire.len() as u64,
            Err(_) => 0,
        };
        metrics.record_wire_bytes(binary, bytes_in, bytes_out);
        close_after_error(&mut writer);
        break;
    }
    Ok(())
}

/// Counts each typed error reply in the wire-error counters, then encodes
/// the replies in `codec` into one wire buffer: JSON lines, or
/// length-prefixed frames — dense for a dense request's plans, `TAG_JSON`
/// otherwise. JSON documents carry the `trace` id when one is given.
fn encode_replies(
    metrics: &ServiceMetrics,
    codec: Codec,
    replies: Vec<Reply>,
    trace: Option<&str>,
) -> Vec<u8> {
    let json = |reply: Reply| -> Json {
        match trace {
            Some(id) => attach_trace(reply.into_json(), id),
            None => reply.into_json(),
        }
    };
    let mut wire = Vec::new();
    for reply in replies {
        if let Some(kind) = reply.error_kind() {
            metrics.record_wire_error(kind);
        }
        match (codec, reply) {
            (Codec::Line, reply) => {
                wire.extend_from_slice(json(reply).to_string().as_bytes());
                wire.push(b'\n');
            }
            (
                Codec::Dense,
                Reply::Route {
                    reply,
                    want_schedule,
                    ..
                },
            ) => frame::push_frame(&mut wire, |w| {
                // The cached plan's bytes, hit or miss: no encode here.
                let body = reply.outcome.cached().body();
                frame::push_route_reply(w, reply.cache_hit, reply.micros, body, want_schedule)
            }),
            (
                Codec::Dense,
                Reply::Item {
                    index,
                    d,
                    g,
                    plan,
                    want_schedule,
                    ..
                },
            ) => frame::push_frame(&mut wire, |w| {
                frame::push_batch_item(w, index, d, g, plan.body(), want_schedule)
            }),
            (_, reply) => frame::push_frame(&mut wire, |w| {
                w.push(TAG_JSON);
                w.extend_from_slice(json(reply).to_string().as_bytes());
            }),
        }
    }
    wire
}

/// One request's way through the server, without the socket: decode the
/// message read in `framing`, dispatch it, and encode the typed replies in
/// the request's codec. Returns the wire bytes, whether the server stops,
/// and the framing a `hello` negotiated.
fn exchange(
    state: &ServeState,
    framing: WireFormat,
    message: &[u8],
    peer: Option<IpAddr>,
    trace: &mut RequestTrace,
) -> (Vec<u8>, bool, Option<WireFormat>) {
    let (codec, decoded) = decode_message(message, framing, &state.router.default_topology());
    trace.stage("parse");
    let (replies, stop, negotiated) = match decoded {
        Err((kind, msg)) => (vec![Reply::error(kind, msg)], false, None),
        Ok(request) => dispatch(state, framing, request, peer, trace),
    };
    let wire = encode_replies(&state.server_metrics, codec, replies, Some(trace.id()));
    (wire, stop, negotiated)
}

/// The dispatcher: answers one decoded request, whatever its codec, on a
/// connection speaking `framing`. Every request takes the same ordered
/// steps, each a no-op for the ops it does not concern: the batch item
/// cap, overload admission (route and batch only — control and cache ops
/// are never shed), service selection and validation against the
/// topology, the distinct-topology cap, the recording tee, then the
/// answer — for a route, baseline composition and routing. Each trace
/// stage is marked here and only here. The flags say "stop the server
/// after this" and "the connection negotiated this framing".
fn dispatch(
    state: &ServeState,
    framing: WireFormat,
    request: WireRequest<RouteRequest>,
    peer: Option<IpAddr>,
    trace: &mut RequestTrace,
) -> (Vec<Reply>, bool, Option<WireFormat>) {
    let (config, router) = (&state.config, &state.router);
    let one = |reply| (vec![reply], false, None);
    if let WireRequest::Batch { items, .. } = &request {
        if items.len() > config.max_batch_items {
            return one(Reply::error(
                WireErrorKind::TooLarge,
                format!(
                    "batch of {} items exceeds the {}-item cap",
                    items.len(),
                    config.max_batch_items
                ),
            ));
        }
    }
    // Overload control gates everything expensive: admitting a topology
    // (which may construct a warm service) and routing. A whole batch
    // spends one slot/token: its fan-out is bounded by max_batch_items,
    // and charging per item would let one batch starve every other
    // client's quota.
    let _admitted = match request {
        WireRequest::Route { .. } | WireRequest::Batch { .. } => {
            match state.overload.try_admit(peer) {
                Ok(guard) => {
                    trace.stage("admission");
                    Some(guard)
                }
                Err(shed) => {
                    let cause = if shed.quota {
                        Counter::ShedsQuota
                    } else {
                        Counter::ShedsWatermark
                    };
                    state.server_metrics.add(cause, 1);
                    return one(Reply::Overloaded {
                        msg: shed.msg,
                        retry_after_ms: shed.retry_after_ms,
                    });
                }
            }
        }
        _ => None,
    };
    // The tee keeps the request as the client sent it (request-level
    // faults only, no baseline), so traces port across baselines.
    let tee = state
        .recorder
        .as_ref()
        .map(|recorder| (recorder, request.clone()));
    let request = match request.try_map_route(|route| resolve(state, route)) {
        Ok(request) => request,
        Err((kind, msg)) => return one(Reply::error(kind, msg)),
    };
    if let WireRequest::Batch { items, .. } = &request {
        // Cap the distinct shapes BEFORE any lookup: admission can
        // construct a warm service per shape, so a batch spraying novel
        // shapes would otherwise amplify one request into hundreds of
        // builds (and churn every other client's warm topology out of
        // the registry).
        let shapes: BTreeSet<(usize, usize)> = items
            .iter()
            .filter(|item| item.perm.is_ok())
            .map(|item| (item.d, item.g))
            .collect();
        if shapes.len() > config.max_batch_topologies {
            return one(Reply::error(
                WireErrorKind::TooLarge,
                format!(
                    "batch touches {} distinct topologies, exceeding the {}-topology cap",
                    shapes.len(),
                    config.max_batch_topologies
                ),
            ));
        }
    }
    if let Some((recorder, request)) = tee {
        recorder.tee(framing, request);
    }
    // `planned` is whether the engine ran, and if so whether L1 answered.
    let (replies, planned) = match request {
        // The acknowledgement rides the current framing; the switch takes
        // effect on the next exchange.
        WireRequest::Hello { format } if framing == WireFormat::Json => {
            return (
                vec![Reply::Doc(hello_response(format))],
                false,
                Some(format),
            )
        }
        WireRequest::Hello { .. } => {
            let msg = "connection already negotiated the binary framing";
            (vec![Reply::error(WireErrorKind::BadRequest, msg)], None)
        }
        WireRequest::Shutdown => return (vec![Reply::Doc(shutdown_response())], true, None),
        WireRequest::Ping => (vec![Reply::Doc(pong_response())], None),
        WireRequest::Info => {
            let default = router.default_topology();
            let service = router.default_service();
            let shapes: Vec<(usize, usize)> = router
                .services()
                .iter()
                .map(|(t, _)| (t.d(), t.g()))
                .collect();
            let info = info_response(
                &default,
                service.shard_count(),
                service.cache_capacity(),
                &shapes,
                router.max_topologies(),
                env!("CARGO_PKG_VERSION"),
                state.started.elapsed().as_secs(),
            );
            (vec![Reply::Doc(info)], None)
        }
        WireRequest::Stats => {
            let (aggregate, per_topology) = aggregate_stats(state);
            let stats = stats_response(&aggregate, &per_topology, &router.stats());
            (vec![Reply::Doc(stats)], None)
        }
        WireRequest::Cache { action } => (vec![respond_cache(action, state)], None),
        WireRequest::Route {
            req: (service, req),
            want_schedule,
        } => match route_one(state, &service, req) {
            Ok((kind, reply)) => {
                let hit = reply.cache_hit;
                let reply = Reply::Route {
                    kind,
                    reply,
                    want_schedule,
                };
                (vec![reply], Some(hit))
            }
            Err((kind, msg)) => (vec![Reply::error(kind, msg)], Some(false)),
        },
        WireRequest::Batch {
            items,
            want_schedule,
        } => (run_batch(state, items, want_schedule), Some(false)),
    };
    if let Some(hit) = planned {
        trace.stage(if hit { "cache" } else { "plan" });
    }
    (replies, false, None)
}

/// Selects the service of a route's shape and validates the route
/// against that topology.
fn resolve(
    state: &ServeState,
    route: RouteRequest,
) -> Result<(Arc<RoutingService>, ServiceRequest), (WireErrorKind, String)> {
    let service = select_service(state, route.d, route.g)?;
    let req = route
        .service_request(&service.topology())
        .map_err(|e| (WireErrorKind::BadRequest, e))?;
    Ok((service, req))
}

/// Composes the shape's baseline fault set into a validated request and
/// routes it — the one place a single request (a route, or a batch item
/// with a fault set) meets its service. Returns the kind routed, which
/// the baseline may have turned from `theorem2` into `faults`.
fn route_one(
    state: &ServeState,
    service: &RoutingService,
    req: ServiceRequest,
) -> Result<(RequestKind, ServiceReply), (WireErrorKind, String)> {
    let topology = service.topology();
    let baseline = baseline_fault_ids(&state.config, topology.d(), topology.g());
    let req = compose_baseline_route(req, baseline, &topology);
    match service.route(&req) {
        Ok(reply) => Ok((req.kind(), reply)),
        Err(e) => Err((route_error_kind(&e), e.to_string())),
    }
}

/// The `(d, g)`-selected backend for one request, or the error line to
/// answer with: unacceptable shapes are `bad-request`, a full registry of
/// pinned topologies is `topology-limit`.
fn select_service(
    state: &ServeState,
    d: usize,
    g: usize,
) -> Result<Arc<RoutingService>, (WireErrorKind, String)> {
    state.router.get(d, g).map_err(|e| match e {
        RouterError::BadShape(_) => (WireErrorKind::BadRequest, e.to_string()),
        RouterError::AtCapacity { .. } => (WireErrorKind::TopologyLimit, e.to_string()),
    })
}

/// The operator-declared baseline fault ids for shape `(d, g)`, empty
/// when the shape has none.
fn baseline_fault_ids(config: &ServerConfig, d: usize, g: usize) -> &[usize] {
    config
        .baseline_faults
        .iter()
        .find(|((bd, bg), _)| (*bd, *bg) == (d, g))
        .map(|(_, ids)| ids.as_slice())
        .unwrap_or(&[])
}

/// Composes the baseline fault set into one route request: a `theorem2`
/// request on a shape with declared faults becomes a fault-routing
/// request, an explicit fault request gains the baseline's couplers (set
/// union), and the diagnostic kinds pass through untouched — they probe
/// the healthy fabric by definition. With an empty baseline this is the
/// identity.
fn compose_baseline_route(
    req: ServiceRequest,
    baseline: &[usize],
    topology: &PopsTopology,
) -> ServiceRequest {
    if baseline.is_empty() {
        return req;
    }
    let (pi, mut faults) = match req {
        ServiceRequest::Theorem2 { pi } => (pi, FaultSet::none(topology)),
        ServiceRequest::WithFaults { pi, faults } => (pi, faults),
        other => return other,
    };
    // Out-of-range ids were refused at boot; the filter keeps this
    // total (fail_coupler panics) whatever the config's provenance.
    for &c in baseline.iter().filter(|&&c| c < topology.coupler_count()) {
        faults.fail_coupler(c);
    }
    ServiceRequest::WithFaults { pi, faults }
}

/// The wire error kind for a routing failure: a fault set that
/// disconnects a group pair is the typed `unroutable` refusal (the
/// service's pre-flight check raises it before planning); everything
/// else stays the generic `routing` kind.
fn route_error_kind(e: &RoutingError) -> WireErrorKind {
    match e {
        RoutingError::Fault(FaultRoutingError::Disconnected { .. }) => WireErrorKind::Unroutable,
        _ => WireErrorKind::Routing,
    }
}

/// The fleet-wide aggregate snapshot plus the per-topology breakdown the
/// `stats` op reports. The aggregate includes the **retired ledger** —
/// counters of topologies evicted since boot — so fleet totals stay
/// monotonic across LRU churn.
fn aggregate_stats(state: &ServeState) -> (MetricsSnapshot, Vec<(usize, usize, MetricsSnapshot)>) {
    let mut aggregate = state.server_metrics.snapshot();
    aggregate.absorb(&state.router.retired_metrics());
    let mut per_topology = Vec::new();
    for (topology, service) in state.router.services() {
        let snap = service.metrics();
        aggregate.absorb(&snap);
        per_topology.push((topology.d(), topology.g(), snap));
    }
    (aggregate, per_topology)
}

/// Renders the Prometheus exposition for the current fleet state.
fn render_metrics(state: &ServeState) -> String {
    let (aggregate, per_topology) = aggregate_stats(state);
    exposition::render(&Exposition {
        aggregate: &aggregate,
        topologies: &per_topology,
        router: &state.router.stats(),
        version: env!("CARGO_PKG_VERSION"),
        uptime_secs: state.started.elapsed().as_secs(),
    })
}

/// Answers one HTTP request line on an already-sniffed connection:
/// `GET /metrics` gets the exposition, anything else a 404. Returns the
/// bytes written. The response is `HTTP/1.0` + `Connection: close`, so
/// the caller closes afterwards; any headers the client pipelined behind
/// the request line are swallowed by the close-side drain.
fn answer_http(writer: &mut TcpStream, state: &ServeState, path: &str) -> u64 {
    let response = if path == exposition::METRICS_PATH {
        exposition::http_ok(&render_metrics(state))
    } else {
        exposition::http_not_found()
    };
    let written = match writer.write_all(&response) {
        Ok(()) => response.len() as u64,
        Err(_) => 0,
    };
    let _ = writer.flush();
    close_after_error(writer);
    written
}

/// The metrics sidecar accept loop: answers `GET /metrics` (and 404s any
/// other path) until the server shuts down. Scrapes are short-lived
/// one-request connections handled inline — a scraper that stalls
/// mid-request is bounded by a short fixed read deadline, not the main
/// listener's configurable one.
fn metrics_sidecar_loop(listener: TcpListener, state: &Arc<ServeState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let mut reader = MessageReader::new(match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => continue,
                });
                let mut writer = stream;
                let outcome = reader.read_message(
                    WireFormat::Json,
                    8 * 1024,
                    Some(Duration::from_secs(2)),
                    &state.shutdown,
                );
                if let Ok(ReadOutcome::Message(line)) = outcome {
                    let text = String::from_utf8_lossy(&line);
                    let path = exposition::http_request_path(&text).unwrap_or("");
                    let bytes_out = answer_http(&mut writer, state, path);
                    state
                        .server_metrics
                        .record_wire_bytes(false, line.len() as u64 + 1, bytes_out);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(SHUTDOWN_POLL);
            }
            Err(_) => std::thread::sleep(SHUTDOWN_POLL),
        }
    }
}

/// Answers a batch with one item reply per item **in input order**, then
/// one summary. Healthy items are grouped by topology and each group
/// rides [`RoutingService::route_batch`] — the in-process threads +
/// no-artefacts fast path — so a mixed-shape batch costs one dispatch per
/// distinct shape, not one per item. Items whose effective fault set
/// (request faults ∪ the shape's declared baseline) is non-empty take the
/// single-route path instead, so their plans live under fault-keyed cache
/// entries and carry the degraded flag. Per-item problems (bad
/// permutation, unadmittable shape) get per-item errors without poisoning
/// their siblings.
fn run_batch(state: &ServeState, items: Vec<BatchItemRequest>, want_schedule: bool) -> Vec<Reply> {
    let start = Instant::now();
    let count = items.len();
    let item_error = |index, kind, msg| Reply::Error {
        kind,
        msg,
        index: Some(index),
    };
    let mut replies: Vec<(usize, Reply)> = Vec::with_capacity(count);
    let mut groups: BTreeMap<(usize, usize), Vec<(usize, Permutation)>> = BTreeMap::new();
    let mut degraded = Vec::new();
    for (index, item) in items.into_iter().enumerate() {
        let BatchItemRequest { d, g, perm, faults } = item;
        match perm {
            Err(e) => replies.push((index, item_error(index, WireErrorKind::BadRequest, e))),
            Ok(pi) if faults.is_empty() && baseline_fault_ids(&state.config, d, g).is_empty() => {
                groups.entry((d, g)).or_default().push((index, pi));
            }
            Ok(pi) => degraded.push((
                index,
                d,
                g,
                RouteBody::Perm {
                    kind: RequestKind::WithFaults,
                    pi,
                    faults,
                },
            )),
        }
    }
    for ((d, g), members) in groups {
        let (indices, perms): (Vec<usize>, Vec<Permutation>) = members.into_iter().unzip();
        match select_service(state, d, g) {
            Err((kind, msg)) => replies.extend(
                indices
                    .into_iter()
                    .map(|index| (index, item_error(index, kind, msg.clone()))),
            ),
            Ok(service) => {
                let plans = service.route_batch(&perms, None, false);
                for (index, plan) in indices.into_iter().zip(plans) {
                    let reply = Reply::Item {
                        index,
                        d,
                        g,
                        plan: ItemPlan::Fresh(plan.schedule),
                        want_schedule,
                        degraded: false,
                    };
                    replies.push((index, reply));
                }
            }
        }
    }
    for (index, d, g, body) in degraded {
        let route = RouteRequest {
            d,
            g,
            body: Ok(body),
        };
        let reply = match resolve(state, route)
            .and_then(|(service, req)| route_one(state, &service, req))
        {
            Ok((_, reply)) => Reply::Item {
                index,
                d,
                g,
                plan: ItemPlan::Cached(reply.outcome),
                want_schedule,
                degraded: reply.degraded,
            },
            Err((kind, msg)) => item_error(index, kind, msg),
        };
        replies.push((index, reply));
    }
    replies.sort_by_key(|(index, _)| *index);
    let mut out: Vec<Reply> = replies.into_iter().map(|(_, reply)| reply).collect();
    let (mut routed, mut slots) = (0, 0);
    let mut topologies: BTreeSet<(usize, usize)> = BTreeSet::new();
    for reply in &out {
        if let Reply::Item { d, g, plan, .. } = reply {
            routed += 1;
            slots += plan.slot_count();
            topologies.insert((*d, *g));
        }
    }
    let topologies: Vec<(usize, usize)> = topologies.into_iter().collect();
    out.push(Reply::Doc(batch_summary_response(
        count,
        routed,
        count - routed,
        slots,
        start.elapsed().as_micros() as u64,
        &topologies,
    )));
    out
}

/// Answers a `cache` op across **every resident topology**. The spill
/// paths are fixed server-side (one file per topology under
/// `--cache-dir`) — a client can trigger persistence but never chooses
/// where the bytes go; without a configured directory the persistence
/// actions are `bad-request`. A save stops at the first filesystem
/// failure (`unavailable`); a load skips unmatchable files (wrong
/// topology, corrupt) and reports how many, failing only if the
/// directory itself cannot be listed.
fn respond_cache(action: CacheAction, state: &ServeState) -> Reply {
    let router = &state.router;
    match action {
        CacheAction::Stats => {
            let (aggregate, _) = aggregate_stats(state);
            Reply::Doc(cache_stats_response(&aggregate))
        }
        CacheAction::Save | CacheAction::Load => {
            let Some(dir) = &state.config.cache_dir else {
                return Reply::error(
                    WireErrorKind::BadRequest,
                    "server started without --cache-dir; cache persistence is disabled",
                );
            };
            let done = match action {
                CacheAction::Save => match router.save_all(dir) {
                    Ok(written) => cache_persist_response(
                        action,
                        written.iter().map(|(_, s)| s.l1_entries).sum(),
                        written.iter().map(|(_, s)| s.l2_entries).sum(),
                        0,
                    ),
                    Err(e) => {
                        let msg = format!("cache save failed: {e}");
                        return Reply::error(WireErrorKind::Unavailable, msg);
                    }
                },
                CacheAction::Load => match router.load_dir(dir) {
                    Ok(report) => cache_persist_response(
                        action,
                        report.l1_entries(),
                        report.l2_entries(),
                        report.skipped.len(),
                    ),
                    Err(e) => {
                        let msg = format!("cache load failed: {e}");
                        return Reply::error(WireErrorKind::Unavailable, msg);
                    }
                },
                // lint: allow(panic-freedom) -- the outer match answers `Stats` before this arm can be reached
                CacheAction::Stats => unreachable!("handled above"),
            };
            Reply::Doc(done)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use crate::service::ServiceConfig;
    use pops_network::Simulator;
    use pops_permutation::families::vector_reversal;

    fn spawn_server(
        topology: PopsTopology,
    ) -> (SocketAddr, std::thread::JoinHandle<ServerSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(RoutingService::with_config(
            topology,
            ServiceConfig {
                shards: 2,
                cache_capacity: 32,
                max_in_flight: 4,
                ..ServiceConfig::default()
            },
        ));
        let handle = std::thread::spawn(move || serve(listener, service).unwrap());
        (addr, handle)
    }

    #[test]
    fn end_to_end_route_verify_stats_shutdown() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();

        client.ping().unwrap();
        let info = client.info().unwrap();
        assert_eq!((info.d, info.g), (4, 4));

        let pi = vector_reversal(16);
        let first = client.route_permutation("theorem2", &pi).unwrap();
        assert_eq!(first.slots, 2);
        assert!(!first.cache_hit);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&first.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();

        let again = client.route_permutation("theorem2", &pi).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.schedule, first.schedule);

        let stats = client.stats().unwrap();
        assert_eq!(stats.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
        // The new gauges ride along in the stats response.
        assert!(stats.get("arena_bytes").unwrap().as_u64().unwrap() > 0);
        assert_eq!(stats.get("cache_entries").unwrap().as_u64(), Some(1));

        client.shutdown().unwrap();
        let summary = handle.join().unwrap();
        assert!(summary.requests >= 5);
        assert!(summary.connections >= 1);
    }

    #[test]
    fn malformed_lines_get_error_responses_and_do_not_kill_the_server() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut client = ServiceClient::connect(addr).unwrap();
        for bad in [
            "this is not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"route","perm":[0,1]}"#,
        ] {
            let err = client.call_raw(bad).unwrap_err();
            assert!(err.to_string().contains("server error"), "{err}");
        }
        // Still alive and serving.
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn cache_op_persists_across_server_restarts() {
        let t = PopsTopology::new(4, 4);
        let dir = std::env::temp_dir().join(format!(
            "pops-server-cache-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let config = || ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let spawn = |config: ServerConfig| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let service = Arc::new(RoutingService::with_config(
                t,
                ServiceConfig {
                    shards: 1,
                    cache_capacity: 16,
                    max_in_flight: 2,
                    ..ServiceConfig::default()
                },
            ));
            let handle =
                std::thread::spawn(move || serve_with_config(listener, service, config).unwrap());
            (addr, handle)
        };

        // First server: route, save, shut down.
        let (addr, handle) = spawn(config());
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        assert!(!client.route_permutation("theorem2", &pi).unwrap().cache_hit);
        let saved = client.cache_op("save").unwrap();
        assert_eq!(saved.get("l1_entries").unwrap().as_u64(), Some(1));
        let stats = client.cache_op("stats").unwrap();
        assert_eq!(
            stats
                .get("cache")
                .unwrap()
                .get("l1")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        client.shutdown().unwrap();
        handle.join().unwrap();

        // Restarted server: load, and the very first repeat is a hit.
        let (addr, handle) = spawn(config());
        let mut client = ServiceClient::connect(addr).unwrap();
        let loaded = client.cache_op("load").unwrap();
        assert_eq!(loaded.get("l1_entries").unwrap().as_u64(), Some(1));
        let reply = client.route_permutation("theorem2", &pi).unwrap();
        assert!(reply.cache_hit, "warm restart must hit immediately");
        // The restored schedule still passes the client-side referee.
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&reply.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();

        // A server without --cache-dir refuses persistence, structurally.
        let (addr, handle) = spawn(ServerConfig::default());
        let mut client = ServiceClient::connect(addr).unwrap();
        let err = client.cache_op("save").unwrap_err();
        assert_eq!(err.remote_kind(), Some("bad-request"), "{err}");
        client.shutdown().unwrap();
        handle.join().unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_negotiation_routes_batches_and_counts_bytes() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();

        client.set_format(WireFormat::Binary).unwrap();
        assert_eq!(client.format(), WireFormat::Binary);
        // Re-negotiating the current format is a client-side no-op...
        client.set_format(WireFormat::Binary).unwrap();
        // ...but a second hello on the wire is a structural error.
        let err = client.call_raw(r#"{"op":"hello","format":"binary"}"#);
        assert_eq!(err.unwrap_err().remote_kind(), Some("bad-request"));

        // Control ops ride JSON-in-a-frame transparently.
        client.ping().unwrap();
        let info = client.info().unwrap();
        assert_eq!((info.d, info.g), (4, 4));

        // Dense binary route: referee the schedule, then hit the cache.
        let pi = vector_reversal(16);
        let first = client.route_permutation("theorem2", &pi).unwrap();
        assert_eq!(first.slots, 2);
        assert!(!first.cache_hit);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&first.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        let again = client.route_permutation("theorem2", &pi).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.schedule, first.schedule);

        // Dense binary batch, schedules included, default + explicit shape.
        let items = vec![
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: None,
                faults: vec![],
            },
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: Some((4, 4)),
                faults: vec![],
            },
        ];
        let batch = client.batch(&items, true).unwrap();
        assert_eq!(batch.summary.routed, 2);
        for item in &batch.items {
            let item = item.as_ref().unwrap();
            assert_eq!(item.slots, 2);
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(&item.schedule).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
        }

        // The stats op reports this connection as binary and the wire
        // byte counters from completed exchanges are non-zero. (Bytes
        // are recorded per exchange, so everything before this stats
        // request is already counted.)
        let stats = client.stats().unwrap();
        let conns = stats.get("connections").unwrap();
        assert_eq!(conns.get("binary").unwrap().as_u64(), Some(1));
        let wire = stats.get("wire").unwrap();
        let binary = wire.get("binary").unwrap();
        assert!(binary.get("bytes_in").unwrap().as_u64().unwrap() > 0);
        assert!(binary.get("bytes_out").unwrap().as_u64().unwrap() > 0);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn binary_and_json_clients_interoperate_on_one_server() {
        let t = PopsTopology::new(2, 8);
        let (addr, handle) = spawn_server(t);
        let pi = vector_reversal(16);

        let mut json_client = ServiceClient::connect(addr).unwrap();
        let mut binary_client = ServiceClient::connect(addr).unwrap();
        binary_client.set_format(WireFormat::Binary).unwrap();

        // Identical requests produce identical schedules regardless of
        // the transport (the second is the first's cache hit).
        let via_json = json_client.route_permutation("theorem2", &pi).unwrap();
        let via_binary = binary_client.route_permutation("theorem2", &pi).unwrap();
        assert_eq!(via_json.schedule, via_binary.schedule);
        assert!(via_binary.cache_hit);

        let stats = json_client.stats().unwrap();
        let conns = stats.get("connections").unwrap();
        assert_eq!(conns.get("binary").unwrap().as_u64(), Some(1));
        assert_eq!(conns.get("json").unwrap().as_u64(), Some(1));

        json_client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn malformed_binary_frames_get_error_frames_and_do_not_kill_the_connection() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(stream, r#"{{"op":"hello","format":"binary"}}"#).unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.contains(r#""format":"binary""#), "{ack}");

        // An unknown tag is answered with a structured JSON error frame
        // and the connection survives.
        crate::frame::write_frame(&mut stream, &[0xff]).unwrap();
        let payload = crate::frame::read_frame(&mut reader, 1 << 20).unwrap();
        assert_eq!(payload[0], TAG_JSON);
        let doc = Json::parse(std::str::from_utf8(&payload[1..]).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("bad-request"));

        // Still serving: a ping in a JSON frame round-trips.
        let json_frame = |body: &[u8]| {
            let mut payload = vec![TAG_JSON];
            payload.extend_from_slice(body);
            payload
        };
        crate::frame::write_frame(&mut stream, &json_frame(br#"{"op":"ping"}"#)).unwrap();
        let payload = crate::frame::read_frame(&mut reader, 1 << 20).unwrap();
        assert_eq!(payload[0], TAG_JSON);
        assert!(std::str::from_utf8(&payload[1..]).unwrap().contains("pong"));

        // A shutdown in a JSON frame stops the server.
        crate::frame::write_frame(&mut stream, &json_frame(br#"{"op":"shutdown"}"#)).unwrap();
        let _ = crate::frame::read_frame(&mut reader, 1 << 20).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_clients_share_the_cache() {
        let (addr, handle) = spawn_server(PopsTopology::new(4, 4));
        let pi = vector_reversal(16);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pi = pi.clone();
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    for _ in 0..5 {
                        let reply = client.route_permutation("theorem2", &pi).unwrap();
                        assert_eq!(reply.slots, 2);
                    }
                });
            }
        });
        let mut client = ServiceClient::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        // All 20 requests share one key. The service does not coalesce
        // in-flight duplicates, so each client's *first* request can race
        // into the miss window — between 1 and 4 misses, the rest hits.
        let misses = stats.get("misses").unwrap().as_u64().unwrap();
        let hits = stats.get("hits").unwrap().as_u64().unwrap();
        assert!((1..=4).contains(&misses), "misses {misses}");
        assert_eq!(hits + misses, 20);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    fn spawn_server_with(
        topology: PopsTopology,
        config: ServerConfig,
    ) -> (SocketAddr, std::thread::JoinHandle<ServerSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(RoutingService::with_config(
            topology,
            ServiceConfig {
                shards: 2,
                cache_capacity: 32,
                max_in_flight: 4,
                ..ServiceConfig::default()
            },
        ));
        let handle =
            std::thread::spawn(move || serve_with_config(listener, service, config).unwrap());
        (addr, handle)
    }

    /// One HTTP exchange against `addr`: request `path`, read to EOF.
    fn http_get(addr: SocketAddr, path: &str) -> String {
        use std::io::Read as _;
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: pops\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut page = String::new();
        stream.read_to_string(&mut page).unwrap();
        page
    }

    /// [`http_get`], but retrying the connect — for the sidecar listener,
    /// which binds on the serve thread after the test already holds the
    /// main address.
    fn http_get_retry(addr: SocketAddr, path: &str) -> String {
        for _ in 0..200 {
            if TcpStream::connect(addr).is_ok() {
                return http_get(addr, path);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("metrics sidecar on {addr} never came up");
    }

    #[test]
    fn overload_control_enforces_the_watermark_and_the_quota() {
        let peer = Some("10.0.0.1".parse().unwrap());

        // Watermark: one in-flight slot, released by the guard's drop.
        let control = OverloadControl::from_config(&ServerConfig {
            overload_watermark: Some(1),
            ..ServerConfig::default()
        });
        let guard = control.try_admit(peer).unwrap();
        let shed = control.try_admit(peer).err().expect("second admit sheds");
        assert!(!shed.quota);
        assert_eq!(shed.retry_after_ms, WATERMARK_RETRY_MS);
        drop(guard);
        assert!(control.try_admit(peer).is_ok(), "slot freed by drop");

        // Quota: a burst of two tokens, then a deficit-derived hint.
        let control = OverloadControl::from_config(&ServerConfig {
            quota_rps: Some(1),
            quota_burst: Some(2),
            ..ServerConfig::default()
        });
        assert!(control.try_admit(peer).is_ok());
        assert!(control.try_admit(peer).is_ok());
        let shed = control.try_admit(peer).err().expect("burst spent");
        assert!(shed.quota);
        assert!(shed.retry_after_ms >= 1, "{}", shed.retry_after_ms);
        // Another peer has its own bucket.
        let other = Some("10.0.0.2".parse().unwrap());
        assert!(control.try_admit(other).is_ok());

        // A peerless connection (no resolvable address) bypasses quota
        // but still honours the watermark.
        let control = OverloadControl::from_config(&ServerConfig {
            overload_watermark: Some(0),
            quota_rps: Some(1),
            ..ServerConfig::default()
        });
        let shed = control.try_admit(None).err().expect("watermark zero");
        assert!(!shed.quota);
    }

    #[test]
    fn quota_bucket_map_is_pruned_at_the_client_cap() {
        // A source-address spray must degrade quota precision, never
        // memory: crossing MAX_QUOTA_CLIENTS prunes refilled (idle)
        // buckets, and when no bucket is idle the map is cleared.
        let spray_ip = |i: usize| IpAddr::from([10, (i >> 16) as u8, (i >> 8) as u8, i as u8]);

        // rps = 1: no bucket can refill within the loop, so the prune
        // finds nothing idle and falls back to clearing the whole map.
        let control = OverloadControl::from_config(&ServerConfig {
            quota_rps: Some(1),
            quota_burst: Some(1),
            ..ServerConfig::default()
        });
        for i in 0..=MAX_QUOTA_CLIENTS {
            assert!(
                control.try_admit(Some(spray_ip(i))).is_ok(),
                "every distinct peer admits on its burst token"
            );
        }
        let len = control.buckets.lock().unwrap().len();
        assert_eq!(len, 0, "nothing idle: the cap clears the map");

        // A fast refill rate leaves earlier buckets idle by the time the
        // cap is crossed, so the prune keeps the map bounded without the
        // clear fallback.
        let control = OverloadControl::from_config(&ServerConfig {
            quota_rps: Some(1_000_000),
            quota_burst: Some(1),
            ..ServerConfig::default()
        });
        for i in 0..=MAX_QUOTA_CLIENTS {
            assert!(control.try_admit(Some(spray_ip(i))).is_ok());
        }
        let len = control.buckets.lock().unwrap().len();
        assert!(
            len <= MAX_QUOTA_CLIENTS,
            "the map stays bounded after the prune (kept {len})"
        );

        // Quota still functions for a fresh peer after prune/clear.
        assert!(control
            .try_admit(Some(IpAddr::from([192, 168, 0, 1])))
            .is_ok());
    }

    #[test]
    fn a_zero_watermark_sheds_routes_with_typed_errors_but_not_control_ops() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(4, 4),
            ServerConfig {
                overload_watermark: Some(0),
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        // Control ops are never shed: the server stays observable.
        client.ping().unwrap();
        let err = client
            .route_permutation("theorem2", &vector_reversal(16))
            .unwrap_err();
        assert_eq!(err.remote_kind(), Some("overloaded"), "{err}");
        assert_eq!(err.retry_after_ms(), Some(WATERMARK_RETRY_MS));
        // The connection survives a shed; the next call works.
        let stats = client.stats().unwrap();
        let sheds = stats.get("sheds").unwrap();
        assert_eq!(sheds.get("watermark").unwrap().as_u64(), Some(1));
        assert_eq!(sheds.get("quota").unwrap().as_u64(), Some(0));
        let wire_errors = stats.get("wire_errors").unwrap();
        assert_eq!(wire_errors.get("overloaded").unwrap().as_u64(), Some(1));
        // The shed reaches the exposition with its cause label.
        let page = http_get(addr, "/metrics");
        assert!(
            page.contains(r#"pops_sheds_total{cause="watermark"} 1"#),
            "{page}"
        );
        assert!(
            page.contains(r#"pops_wire_errors_total{error_kind="overloaded"} 1"#),
            "{page}"
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_quota_shed_carries_a_deficit_derived_retry_hint() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(4, 4),
            ServerConfig {
                quota_rps: Some(1),
                quota_burst: Some(1),
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        client.route_permutation("theorem2", &pi).unwrap();
        let err = client.route_permutation("theorem2", &pi).unwrap_err();
        assert_eq!(err.remote_kind(), Some("overloaded"), "{err}");
        assert!(err.retry_after_ms().unwrap() >= 1, "{err}");
        let stats = client.stats().unwrap();
        let quota_sheds = stats.get("sheds").unwrap().get("quota").unwrap();
        assert!(quota_sheds.as_u64().unwrap() >= 1);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn get_metrics_on_the_main_listener_returns_the_exposition() {
        let (addr, handle) = spawn_server(PopsTopology::new(4, 4));
        let mut client = ServiceClient::connect(addr).unwrap();
        client
            .route_permutation("theorem2", &vector_reversal(16))
            .unwrap();

        let page = http_get(addr, "/metrics");
        assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
        assert!(page.contains(exposition::CONTENT_TYPE), "{page}");
        assert!(
            page.contains("# TYPE pops_requests_total counter"),
            "{page}"
        );
        assert!(
            page.contains(r#"pops_requests_total{kind="theorem2"} 1"#),
            "{page}"
        );
        assert!(
            page.contains(r#"pops_topology_requests_total{topology="4x4"} 1"#),
            "{page}"
        );
        assert!(page.contains("pops_uptime_seconds"), "{page}");
        assert!(page.contains("pops_build_info{"), "{page}");

        // Unknown paths 404; the JSON protocol is undisturbed either way.
        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn the_metrics_sidecar_serves_the_exposition_and_stops_with_the_server() {
        // Reserve a free port, then hand it to the sidecar.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(2, 2),
            ServerConfig {
                metrics_port: Some(port),
                ..ServerConfig::default()
            },
        );
        let sidecar = SocketAddr::from(([127, 0, 0, 1], port));
        let page = http_get_retry(sidecar, "/metrics");
        assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
        assert!(page.contains("pops_build_info{"), "{page}");
        assert!(page.contains("pops_connections_active"), "{page}");

        // serve() joins the sidecar thread on shutdown — if it hangs,
        // this join hangs and the test harness times out.
        let mut client = ServiceClient::connect(addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_zero_slow_threshold_traces_every_request_and_rate_limits_the_log() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(2, 2),
            ServerConfig {
                slow_threshold: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        // Every JSON response echoes its trace id.
        let doc = client.call_raw(r#"{"op":"ping"}"#).unwrap();
        let trace = doc.get("trace").and_then(Json::as_str).unwrap();
        assert!(trace.starts_with('c') && trace.contains("-r"), "{trace}");
        for _ in 0..5 {
            client.ping().unwrap();
        }
        // Six exchanges observed so far (the stats request below is only
        // observed after its response is written): the limiter lets one
        // through per interval and suppresses the rest of the storm.
        let stats = client.stats().unwrap();
        let slow = stats.get("slow_traces").unwrap();
        let emitted = slow.get("emitted").unwrap().as_u64().unwrap();
        let suppressed = slow.get("suppressed").unwrap().as_u64().unwrap();
        assert!(emitted >= 1, "emitted={emitted}");
        assert!(suppressed >= 1, "suppressed={suppressed}");
        assert_eq!(emitted + suppressed, 6);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn trace_ids_are_echoed_even_without_a_slow_log() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut client = ServiceClient::connect(addr).unwrap();
        let doc = client.call_raw(r#"{"op":"ping"}"#).unwrap();
        assert!(doc.get("trace").and_then(Json::as_str).is_some());
        // Request sequence numbers advance per connection.
        let first = doc.get("trace").unwrap().as_str().unwrap().to_string();
        let doc = client.call_raw(r#"{"op":"ping"}"#).unwrap();
        let second = doc.get("trace").unwrap().as_str().unwrap();
        assert_ne!(first, second);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn fatal_oversized_lines_charge_consumed_bytes_and_the_error_response() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(2, 2),
            ServerConfig {
                max_line_bytes: 256,
                ..ServerConfig::default()
            },
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(&vec![b'x'; 1024]).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("too-large"), "{reply}");
        let error_len = reply.len() as u64;
        // Fatal framing errors close the connection.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);

        // A fresh connection's stats see the aborted exchange's bytes:
        // at least the refused prefix on the way in, and exactly the
        // error response on the way out.
        let mut client = ServiceClient::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        let json = stats.get("wire").unwrap().get("json").unwrap();
        let bytes_in = json.get("bytes_in").unwrap().as_u64().unwrap();
        assert!(bytes_in >= 256, "bytes_in={bytes_in}");
        assert_eq!(json.get("bytes_out").unwrap().as_u64(), Some(error_len));
        let wire_errors = stats.get("wire_errors").unwrap();
        assert_eq!(wire_errors.get("too-large").unwrap().as_u64(), Some(1));
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn baseline_faults_degrade_served_plans_and_key_them_apart() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server_with(
            t,
            ServerConfig {
                baseline_faults: vec![((4, 4), vec![1])],
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        // A plain theorem2 request degrades under the declared baseline,
        // and its schedule verifies on the degraded fabric.
        let reply = client.route_permutation("theorem2", &pi).unwrap();
        assert!(reply.degraded, "baseline fault must degrade theorem2");
        assert!(!reply.cache_hit);
        let mut faults = FaultSet::none(&t);
        faults.fail_coupler(1);
        let mut sim = Simulator::with_unit_packets_and_faults(t, faults);
        sim.execute_schedule(&reply.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        // Request faults compose with the baseline as a set union: the
        // same effective set is the same cache key, a wider one is not.
        let same = client
            .route_permutation_with_faults("theorem2", &pi, None, &[1])
            .unwrap();
        assert!(same.cache_hit, "identical effective fault set must hit");
        assert!(same.degraded);
        let wider = client
            .route_permutation_with_faults("theorem2", &pi, None, &[2])
            .unwrap();
        assert!(!wider.cache_hit, "a wider fault set is a distinct key");
        assert!(wider.degraded);
        let stats = client.stats().unwrap();
        let degraded = stats.get("degraded").unwrap();
        assert_eq!(degraded.get("plans").unwrap().as_u64(), Some(2));
        assert_eq!(degraded.get("hits").unwrap().as_u64(), Some(1));
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn an_unroutable_fault_set_is_refused_with_the_typed_wire_error() {
        let t = PopsTopology::new(2, 3);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();
        // Kill every coupler into group 1 — c(1, src) = 1·g + src — so no
        // packet can reach that group and the fabric is not fully
        // routable.
        let faults: Vec<usize> = (0..3).map(|src| 3 + src).collect();
        let pi = vector_reversal(6);
        let err = client
            .route_permutation_with_faults("theorem2", &pi, None, &faults)
            .unwrap_err();
        assert_eq!(err.remote_kind(), Some("unroutable"), "{err}");
        // The refusal reaches the stats document and the exposition.
        let stats = client.stats().unwrap();
        let wire_errors = stats.get("wire_errors").unwrap();
        assert_eq!(wire_errors.get("unroutable").unwrap().as_u64(), Some(1));
        let degraded = stats.get("degraded").unwrap();
        assert_eq!(
            degraded.get("unroutable_refusals").unwrap().as_u64(),
            Some(1)
        );
        let page = http_get(addr, "/metrics");
        assert!(page.contains("pops_unroutable_refusals_total 1"), "{page}");
        assert!(
            page.contains(r#"pops_wire_errors_total{error_kind="unroutable"} 1"#),
            "{page}"
        );
        // The connection and the server survive; healthy traffic routes.
        let healthy = client.route_permutation("theorem2", &pi).unwrap();
        assert!(!healthy.degraded);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn batch_items_carry_their_own_fault_sets() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        let items = vec![
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: None,
                faults: vec![],
            },
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: None,
                faults: vec![5],
            },
        ];
        let batch = client.batch(&items, true).unwrap();
        assert_eq!(batch.summary.routed, 2);
        let healthy = batch.items[0].as_ref().unwrap();
        assert!(!healthy.degraded);
        let degraded = batch.items[1].as_ref().unwrap();
        assert!(degraded.degraded, "faulted item must be flagged");
        // The degraded item's schedule verifies under its declared
        // fault set; the healthy one on the pristine fabric.
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&healthy.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        let mut faults = FaultSet::none(&t);
        faults.fail_coupler(5);
        let mut sim = Simulator::with_unit_packets_and_faults(t, faults);
        sim.execute_schedule(&degraded.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn an_out_of_range_baseline_fault_refuses_to_serve() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(2, 2),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                ..ServiceConfig::default()
            },
        ));
        let err = serve_with_config(
            listener,
            service,
            ServerConfig {
                baseline_faults: vec![((2, 2), vec![99])],
                ..ServerConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn the_hello_exchange_is_charged_to_the_json_byte_counters() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = r#"{"op":"hello","format":"binary"}"#;
        writeln!(stream, "{request}").unwrap();
        stream.flush().unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.contains(r#""format":"binary""#), "{ack}");

        // The negotiation itself happened in JSON, and is accounted as
        // such; no binary bytes have moved yet.
        let mut client = ServiceClient::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        let wire = stats.get("wire").unwrap();
        let json = wire.get("json").unwrap();
        assert_eq!(
            json.get("bytes_in").unwrap().as_u64(),
            Some(request.len() as u64 + 1)
        );
        assert_eq!(
            json.get("bytes_out").unwrap().as_u64(),
            Some(ack.len() as u64)
        );
        let binary = wire.get("binary").unwrap();
        assert_eq!(binary.get("bytes_in").unwrap().as_u64(), Some(0));
        assert_eq!(binary.get("bytes_out").unwrap().as_u64(), Some(0));
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// A server state with no socket behind it: POPS(4, 4) by default,
    /// room for one more shape.
    fn socket_free_state() -> ServeState {
        let router = TopologyRouter::new(
            PopsTopology::new(4, 4),
            TopologyRouterConfig {
                max_topologies: 2,
                ..TopologyRouterConfig::default()
            },
        );
        let addr = "127.0.0.1:9".parse().unwrap();
        ServeState::new(Arc::new(router), ServerConfig::default(), addr).unwrap()
    }

    /// The three ways a request reaches the server.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Framing {
        Line,
        JsonFrame,
        Dense,
    }

    /// One request in every framing: its JSON text, and its dense frame
    /// payload where the binary format has one (else a binary client
    /// sends the JSON text in a `TAG_JSON` frame).
    struct Case {
        name: &'static str,
        json: String,
        dense: Option<Vec<u8>>,
    }

    impl Case {
        fn message(&self, framing: Framing) -> (WireFormat, Vec<u8>) {
            let json_frame = [&[TAG_JSON][..], self.json.as_bytes()].concat();
            match (framing, &self.dense) {
                (Framing::Line, _) => (WireFormat::Json, self.json.clone().into_bytes()),
                (Framing::Dense, Some(dense)) => (WireFormat::Binary, dense.clone()),
                _ => (WireFormat::Binary, json_frame),
            }
        }
    }

    /// What a client can observe of one reply, whatever its encoding.
    #[derive(Debug, PartialEq)]
    struct Seen {
        ok: bool,
        kind: Option<String>,
        cache_hit: Option<bool>,
        slots: Option<u64>,
        schedule: Option<pops_network::Schedule>,
    }

    fn seen_json(doc: &Json) -> Seen {
        Seen {
            ok: doc.get("ok") == Some(&Json::Bool(true)),
            kind: doc
                .get("kind")
                .filter(|_| doc.get("ok") == Some(&Json::Bool(false)))
                .and_then(Json::as_str)
                .map(str::to_owned),
            cache_hit: doc.get("cache").and_then(Json::as_str).map(|c| c == "hit"),
            slots: doc.get("slots").and_then(Json::as_u64),
            schedule: doc
                .get("schedule")
                .map(|s| crate::proto::schedule_from_json(s).unwrap()),
        }
    }

    /// Decodes the wire bytes one exchange wrote, in its framing.
    fn decode_wire(framing: WireFormat, wire: &[u8]) -> Vec<Seen> {
        if framing == WireFormat::Json {
            let text = std::str::from_utf8(wire).unwrap();
            return text
                .lines()
                .map(|line| seen_json(&Json::parse(line).unwrap()))
                .collect();
        }
        let mut out = Vec::new();
        let mut rest = wire;
        while !rest.is_empty() {
            let payload = frame::read_frame(&mut rest, usize::MAX).unwrap();
            let (&tag, body) = payload.split_first().unwrap();
            out.push(match tag {
                TAG_JSON => seen_json(&Json::parse(std::str::from_utf8(body).unwrap()).unwrap()),
                frame::TAG_ROUTE_REPLY => {
                    let reply = frame::decode_route_reply(body).unwrap();
                    Seen {
                        ok: true,
                        kind: None,
                        cache_hit: Some(reply.cache_hit),
                        slots: Some(reply.slots as u64),
                        schedule: Some(reply.schedule),
                    }
                }
                frame::TAG_BATCH_ITEM => {
                    let item = frame::decode_batch_item(body).unwrap();
                    Seen {
                        ok: true,
                        kind: None,
                        cache_hit: None,
                        slots: Some(item.slots as u64),
                        schedule: Some(item.schedule),
                    }
                }
                other => panic!("unexpected reply tag 0x{other:02x}"),
            });
        }
        out
    }

    /// One socket-free exchange: the replies seen, the wire-error counter
    /// deltas, and the trace stages marked.
    fn observe(
        state: &ServeState,
        framing: WireFormat,
        message: &[u8],
    ) -> (
        Vec<Seen>,
        [u64; WireErrorKind::ALL.len()],
        Vec<&'static str>,
    ) {
        let before = state.server_metrics.snapshot().wire_errors;
        let mut trace = RequestTrace::start(0, 1);
        let (wire, stop, _) = exchange(state, framing, message, None, &mut trace);
        assert!(!stop);
        let after = state.server_metrics.snapshot().wire_errors;
        let mut delta = after;
        for (d, b) in delta.iter_mut().zip(before) {
            *d -= b;
        }
        let stages = trace.stages().iter().map(|(name, _)| *name).collect();
        (decode_wire(framing, &wire), delta, stages)
    }

    fn perm_json(pi: &[usize]) -> String {
        let cells: Vec<String> = pi.iter().map(usize::to_string).collect();
        format!("[{}]", cells.join(","))
    }

    /// A dense route frame built by hand, so it can carry images the
    /// encoder's `Permutation` argument cannot (non-bijections).
    fn dense_route(kind: RequestKind, shape: (u32, u32), image: &[u32]) -> Vec<u8> {
        let mut out = vec![
            frame::TAG_ROUTE,
            kind.index() as u8,
            frame::FLAG_WANT_SCHEDULE,
        ];
        for v in [shape.0, shape.1, image.len() as u32].iter().chain(image) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn differential_cases() -> Vec<Case> {
        let rev16 = vector_reversal(16);
        let rev8 = vector_reversal(8);
        let p16 = perm_json(rev16.as_slice());
        let p8 = perm_json(rev8.as_slice());
        let dense = |kind, shape| frame::encode_route_request(kind, true, shape, &rev16);
        let mut cases = vec![
            Case {
                name: "theorem2, default shape",
                json: format!(r#"{{"op":"route","perm":{p16}}}"#),
                dense: Some(dense(RequestKind::Theorem2, None)),
            },
            Case {
                name: "theorem2 again: a cache hit",
                json: format!(r#"{{"op":"route","kind":"theorem2","perm":{p16}}}"#),
                dense: Some(dense(RequestKind::Theorem2, None)),
            },
            Case {
                name: "theorem2, explicit shape",
                json: format!(r#"{{"op":"route","d":2,"g":8,"perm":{p16}}}"#),
                dense: Some(dense(RequestKind::Theorem2, Some((2, 8)))),
            },
            Case {
                name: "unknown shape",
                json: format!(r#"{{"op":"route","d":0,"g":4,"perm":{p16}}}"#),
                dense: Some(dense(RequestKind::Theorem2, Some((0, 4)))),
            },
            Case {
                name: "bad permutation",
                json: format!(r#"{{"op":"route","perm":{}}}"#, perm_json(&[0; 16])),
                dense: Some(dense_route(RequestKind::Theorem2, (0, 0), &[0; 16])),
            },
            Case {
                name: "wrong length",
                json: format!(r#"{{"op":"route","perm":{p8}}}"#),
                dense: Some(frame::encode_route_request(
                    RequestKind::Theorem2,
                    true,
                    None,
                    &rev8,
                )),
            },
            Case {
                name: "faults",
                json: format!(r#"{{"op":"route","kind":"faults","perm":{p16},"faults":[1]}}"#),
                dense: None,
            },
            Case {
                name: "theorem2 with faults",
                json: format!(r#"{{"op":"route","perm":{p16},"faults":[[0,1]]}}"#),
                dense: None,
            },
            Case {
                name: "h-relation",
                json: r#"{"op":"route","kind":"h-relation","requests":[[0,5],[5,0],[1,5]]}"#.into(),
                dense: None,
            },
            Case {
                name: "healthy batch",
                json: format!(
                    r#"{{"op":"batch","want_schedule":true,"items":[{{"perm":{p16}}},{{"perm":{p16}}}]}}"#
                ),
                dense: Some(frame::encode_batch_request(
                    true,
                    [(None, rev16.clone()), (None, rev16.clone())],
                )),
            },
            Case {
                name: "mixed-shape batch",
                json: format!(
                    r#"{{"op":"batch","want_schedule":true,"items":[{{"perm":{p16}}},{{"d":2,"g":8,"perm":{p16}}}]}}"#
                ),
                dense: Some(frame::encode_batch_request(
                    true,
                    [(None, rev16.clone()), (Some((2, 8)), rev16.clone())],
                )),
            },
            Case {
                name: "bad-item batch",
                json: format!(
                    r#"{{"op":"batch","want_schedule":true,"items":[{{"perm":{p8}}},{{"perm":{p16}}}]}}"#
                ),
                dense: Some(frame::encode_batch_request(
                    true,
                    [(None, rev8.clone()), (None, rev16.clone())],
                )),
            },
            Case {
                name: "cache stats",
                json: r#"{"op":"cache","action":"stats"}"#.into(),
                dense: None,
            },
            Case {
                name: "ping",
                json: r#"{"op":"ping"}"#.into(),
                dense: None,
            },
            Case {
                name: "not JSON",
                json: r#"{"op":"#.into(),
                dense: None,
            },
            Case {
                name: "unknown op",
                json: r#"{"op":"warp"}"#.into(),
                dense: None,
            },
        ];
        for kind in [
            RequestKind::SingleSlot,
            RequestKind::Direct,
            RequestKind::Structured,
        ] {
            cases.push(Case {
                name: kind.name(),
                json: format!(r#"{{"op":"route","kind":"{}","perm":{p16}}}"#, kind.name()),
                dense: Some(dense(kind, None)),
            });
        }
        cases
    }

    #[test]
    fn every_framing_gives_the_same_answers_counters_and_stages() {
        let cases = differential_cases();
        let run = |framing: Framing| {
            let state = socket_free_state();
            cases
                .iter()
                .map(|case| {
                    let (format, message) = case.message(framing);
                    observe(&state, format, &message)
                })
                .collect::<Vec<_>>()
        };
        let line = run(Framing::Line);
        for framing in [Framing::JsonFrame, Framing::Dense] {
            for (case, (want, got)) in cases.iter().zip(line.iter().zip(run(framing))) {
                assert_eq!(want.0, got.0, "{}: replies over {framing:?}", case.name);
                assert_eq!(want.1, got.1, "{}: wire errors over {framing:?}", case.name);
                assert_eq!(want.2, got.2, "{}: stages over {framing:?}", case.name);
            }
        }
        // The cases exercise what they claim to.
        let by_name = |name: &str| &line[cases.iter().position(|c| c.name == name).unwrap()];
        assert_eq!(
            by_name("theorem2 again: a cache hit").0[0].cache_hit,
            Some(true)
        );
        assert_eq!(by_name("theorem2, explicit shape").0[0].slots, Some(2));
        assert!(by_name("faults").0[0].ok);
        let bad_item = &by_name("bad-item batch").0;
        assert_eq!(bad_item[0].kind.as_deref(), Some("bad-request"));
        assert!(bad_item[1].ok && bad_item[1].schedule.is_some());
        for (name, stages) in [
            (
                "theorem2, default shape",
                &["parse", "admission", "plan"][..],
            ),
            (
                "theorem2 again: a cache hit",
                &["parse", "admission", "cache"],
            ),
            ("healthy batch", &["parse", "admission", "plan"]),
            ("wrong length", &["parse", "admission"]),
            ("ping", &["parse"]),
            ("not JSON", &["parse"]),
        ] {
            assert_eq!(by_name(name).2, stages, "{name}");
        }
    }

    #[test]
    fn a_dense_hit_copies_the_cached_encoding_without_encoding() {
        let state = socket_free_state();
        let pi = vector_reversal(16);
        let request = frame::encode_route_request(RequestKind::Theorem2, true, None, &pi);
        let answer = || {
            let encodes = frame::SCHEDULE_ENCODES.with(std::cell::Cell::get);
            let mut trace = RequestTrace::start(0, 1);
            let (wire, _, _) = exchange(&state, WireFormat::Binary, &request, None, &mut trace);
            let payload = frame::read_frame(&mut wire.as_slice(), usize::MAX).unwrap();
            let encoded = frame::SCHEDULE_ENCODES.with(std::cell::Cell::get) - encodes;
            (payload, encoded)
        };
        let (miss, miss_encodes) = answer();
        let (hit, hit_encodes) = answer();
        // The engine writes the miss's plan straight into its cache entry,
        // and both replies copy that entry's bytes behind their header:
        // nothing encodes a schedule.
        assert_eq!((miss_encodes, hit_encodes), (0, 0));
        assert_eq!(hit[1] & frame::FLAG_CACHE_HIT, frame::FLAG_CACHE_HIT);
        assert_eq!(hit[14..], miss[14..]);
        let again = state
            .router
            .default_service()
            .route(&ServiceRequest::Theorem2 { pi })
            .unwrap();
        assert!(again.cache_hit);
        assert_eq!(&hit[14..], again.outcome.cached().schedule_bytes());
    }

    #[test]
    fn a_wrong_length_route_is_a_bad_request_in_every_framing() {
        let want = "permutation has length 8, POPS(4, 4) needs 16";
        let pi = vector_reversal(8);
        let json = format!(r#"{{"op":"route","perm":{}}}"#, perm_json(pi.as_slice()));
        let messages = [
            (WireFormat::Json, json.clone().into_bytes()),
            (
                WireFormat::Binary,
                [&[TAG_JSON][..], json.as_bytes()].concat(),
            ),
            (
                WireFormat::Binary,
                frame::encode_route_request(RequestKind::Theorem2, true, None, &pi),
            ),
        ];
        let state = socket_free_state();
        for (framing, message) in messages {
            let mut trace = RequestTrace::start(0, 1);
            let (wire, _, _) = exchange(&state, framing, &message, None, &mut trace);
            let text = match framing {
                WireFormat::Json => String::from_utf8(wire).unwrap(),
                WireFormat::Binary => {
                    let payload = frame::read_frame(&mut wire.as_slice(), usize::MAX).unwrap();
                    assert_eq!(payload[0], TAG_JSON);
                    String::from_utf8(payload[1..].to_vec()).unwrap()
                }
            };
            let doc = Json::parse(text.trim()).unwrap();
            assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{text}");
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some("bad-request"));
            assert_eq!(doc.get("error").and_then(Json::as_str), Some(want));
        }
        // Refused before the engine: no request reached the service, so
        // none counts as a request error either.
        let (aggregate, _) = aggregate_stats(&state);
        assert_eq!(aggregate.requests(), 0);
        assert_eq!(aggregate.get(Counter::Errors), 0);
        assert_eq!(aggregate.wire_errors[WireErrorKind::BadRequest.index()], 3);
    }
}
