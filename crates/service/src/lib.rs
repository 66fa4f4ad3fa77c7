//! `pops-service` — Mei–Rizzi permutation routing as a **concurrent
//! service**: a sharded pool of warm zero-allocation engines behind an
//! LRU plan cache, a metrics registry, and a std-only TCP/JSON-lines
//! front door.
//!
//! # Why a service
//!
//! PR 1's [`pops_core::RoutingEngine`] made a single consumer fast; this
//! crate makes routing a shared facility. Real request streams repeat
//! permutations (collective phases, BPC families, hypercube simulation
//! rounds), so a canonical-key cache in front of warm engines converts
//! the `2⌈d/g⌉`-slot construction cost into an `Arc` clone — the
//! serve-many-queries-from-one-prepared-core shape.
//!
//! # Layers
//!
//! | module | role |
//! |---|---|
//! | [`pool`] | [`EnginePool`]: N warm engines, round-robin + overflow dispatch |
//! | [`cache`] | [`ShardedPlanCache`]: two-level canonical-key LRU (whole requests + per-phase plans) sharing one plan and one [`CacheKey`] per `theorem2` entry, key-hashed lock shards |
//! | [`persist`] | cache spill/restore — the stable on-disk byte format behind `--cache-dir` |
//! | [`service`] | [`RoutingService`]: admission → cache L1/L2 → pool → metrics |
//! | [`router`] | [`TopologyRouter`]: `(d, g)` → lazily-built `RoutingService`, LRU-bounded — one daemon, many topologies |
//! | [`metrics`] | [`ServiceMetrics`]: lock-free counters + latency histograms, L1 vs L2 hit accounting |
//! | [`exposition`] | Prometheus text exposition — `GET /metrics` on the main listener or a `--metrics-port` sidecar |
//! | [`trace`] | per-request trace ids and stage timings, plus the rate-limited slow-request log |
//! | [`json`], [`proto`] | dependency-free JSON and the wire protocol (per-request topology selection, the `batch` op) |
//! | [`frame`] | opt-in length-prefixed binary framing, negotiated per connection with the `hello` op |
//! | [`server`], [`client`] | TCP front door (`pops serve` / `pops request`): JSON lines by default, binary frames after negotiation |
//! | [`record`] | versioned JSONL request traces: the `--record` tee, the `pops record` proxy, encode/parse |
//! | [`replay`] | trace replay over real TCP with simulator re-refereeing, SLO gates, and the synthetic-trace generator (`pops replay` / soak) |
//!
//! # Quickstart
//!
//! ```
//! use pops_network::PopsTopology;
//! use pops_permutation::families::vector_reversal;
//! use pops_service::{RoutingService, ServiceRequest};
//!
//! let service = RoutingService::new(PopsTopology::new(4, 4));
//! let req = ServiceRequest::Theorem2 { pi: vector_reversal(16) };
//! assert!(!service.route(&req).unwrap().cache_hit); // computed
//! assert!(service.route(&req).unwrap().cache_hit);  // served from cache
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod exposition;
pub mod frame;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod proto;
pub mod record;
pub mod replay;
pub mod router;
pub mod server;
pub mod service;
pub mod trace;

pub use cache::{canonical_key, phase_key, CacheKey, CachedOutcome, PlanCache, ShardedPlanCache};
pub use client::{
    Answer, BatchItem, BatchItemError, BatchItemReply, BatchReply, BatchSummary, ClientError,
    RouteReply, ServerInfo, ServiceClient,
};
pub use json::{Json, JsonError, MAX_DEPTH};
pub use metrics::{Counter, Gauge, MetricsSnapshot, RequestKind, ServiceMetrics};
pub use persist::{PersistError, PersistSummary};
pub use pool::EnginePool;
pub use proto::{WireErrorKind, WireFormat};
pub use record::{
    read_trace, record_proxy, RecordProxySummary, RecordedRequest, TraceError, TraceRecorder,
    TRACE_VERSION,
};
pub use replay::{run_replay, synth_trace, ReplayOptions, ReplayReport, SloGates};
pub use router::{DirLoadReport, RouterError, RouterStats, TopologyRouter, TopologyRouterConfig};
pub use server::{serve, serve_router, serve_with_config, ServerConfig, ServerSummary};
pub use service::{ReplyOutcome, RoutingService, ServiceConfig, ServiceReply, ServiceRequest};
pub use trace::{RequestTrace, SlowLog, SlowVerdict};
