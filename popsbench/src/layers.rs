//! The traced run: the workload's requests pushed through each layer's
//! public functions in-process, with spans around every call.
//!
//! The traced requests are interleaved with the daemon's (see `main.rs`),
//! so both see the same moment's host load. Per request, the pipeline's
//! spans time the steps a served request takes, in the workload's codec:
//! client encode, server decode, `RoutingService::route` (an instance
//! configured like the daemon), server encode and client decode. Their sum
//! is the sum of parts. After them, the same request and reply go through
//! the other codec, a warm `RoutingEngine` plans the permutation on its
//! own, and `canonical_key` builds its cache key. On the miss workloads a
//! second `route` of the same request times the cache-hit path.
//!
//! Spans stay in memory; a layer's figure is the mean time of its spans.
//! Every span is a leaf: no span's time includes another's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pops_core::RoutingEngine;
use pops_network::{PopsTopology, Schedule};
use pops_permutation::Permutation;
use pops_service::proto::{self, WireRequest};
use pops_service::{
    canonical_key, frame, Json, RequestKind, RequestTrace, RoutingService, ServiceConfig,
    ServiceReply, ServiceRequest, WireFormat,
};

use crate::Metric;

/// An in-memory span recorder: per span name, the total time and count.
#[derive(Default)]
struct Tracer {
    totals: BTreeMap<&'static str, (u64, u64)>,
    /// Time of every span recorded so far.
    recorded_ns: u64,
}

impl Tracer {
    fn record(&mut self, name: &'static str, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        let entry = self.totals.entry(name).or_default();
        entry.0 += ns;
        entry.1 += 1;
        self.recorded_ns += ns;
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = black_box(f());
        self.record(name, start);
        out
    }
}

/// The in-process side of the traced run: a service configured like the
/// daemon, fed the same warm pass and every request the daemon gets, in the
/// same order, plus a warm engine for the standalone engine timings.
pub struct Layers {
    t: PopsTopology,
    format: WireFormat,
    repeat_misses: bool,
    service: RoutingService,
    engine: RoutingEngine,
    tr: Tracer,
    /// The service's cache answer to every request, in stream order.
    pub hits: Vec<bool>,
    /// Failed checks, for the caller to count.
    pub errors: Vec<String>,
    traced: usize,
    /// Time inside the pipeline's spans, over all traced requests.
    parts_ns: u64,
    frame_bytes: usize,
    json_bytes: usize,
}

impl Layers {
    /// A service configured by `config` and warmed with `warm`. With
    /// `repeat_misses`, each traced miss is routed a second time to time
    /// the cache-hit path.
    pub fn new(
        t: PopsTopology,
        config: &ServiceConfig,
        format: WireFormat,
        warm: &[Permutation],
        repeat_misses: bool,
    ) -> Result<Self, String> {
        let service = RoutingService::with_config(t, config.clone());
        for pi in warm {
            service
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .map_err(|e| format!("in-process warm pass: {e}"))?;
        }
        let mut engine = RoutingEngine::new(t);
        engine.warm();
        Ok(Self {
            t,
            format,
            repeat_misses,
            service,
            engine,
            tr: Tracer::default(),
            hits: Vec::new(),
            errors: Vec::new(),
            traced: 0,
            parts_ns: 0,
            frame_bytes: 0,
            json_bytes: 0,
        })
    }

    /// Routes request `pi` without spans, to keep the service's cache in
    /// step with the daemon's.
    pub fn follow(&mut self, pi: Permutation) {
        match self.service.route(&ServiceRequest::Theorem2 { pi }) {
            Ok(reply) => self.hits.push(reply.cache_hit),
            Err(e) => self.errors.push(format!("in-process route: {e}")),
        }
    }

    /// Pushes request `i` through every layer with spans.
    pub fn trace(&mut self, i: usize, pi: &Permutation) {
        if let Err(e) = self.trace_request(i, pi) {
            self.errors.push(format!("in-process request {i}: {e}"));
        }
    }

    fn trace_request(&mut self, i: usize, pi: &Permutation) -> Result<(), String> {
        let t = self.t;
        let tr = &mut self.tr;
        let trace_id = RequestTrace::start(1, i as u64).id().to_string();
        let before_ns = tr.recorded_ns;
        let req = encode_request(tr, self.format, pi, &t)?;
        let start = Instant::now();
        let reply = black_box(self.service.route(&req)).map_err(|e| e.to_string())?;
        tr.record(
            if reply.cache_hit {
                "service.route_hit"
            } else {
                "service.route_miss"
            },
            start,
        );
        let (decoded, bytes) = encode_reply(tr, self.format, &reply, &trace_id);
        self.parts_ns += tr.recorded_ns - before_ns;
        self.hits.push(reply.cache_hit);
        self.traced += 1;

        // Outside the pipeline: the other codec on the same request and
        // reply, the engine on its own, and the cache key.
        let other = match self.format {
            WireFormat::Binary => WireFormat::Json,
            WireFormat::Json => WireFormat::Binary,
        };
        let other_request = encode_request(tr, other, pi, &t);
        let (other_decoded, other_bytes) = encode_reply(tr, other, &reply, &trace_id);
        let (frame, json) = match self.format {
            WireFormat::Binary => (bytes, other_bytes),
            WireFormat::Json => (other_bytes, bytes),
        };
        self.frame_bytes += frame;
        self.json_bytes += json;
        let schedule = reply.outcome.schedule();
        other_request.map_err(|e| format!("other codec: {e}"))?;
        for (what, got) in [("decoded", decoded), ("other codec", other_decoded)] {
            if &got? != schedule {
                return Err(format!("{what} schedule differs from the service's"));
            }
        }
        let engine = &mut self.engine;
        let plan = tr.time("engine.plan", || engine.plan_theorem2(pi));
        if &plan.schedule != schedule {
            return Err("engine and service plans differ".into());
        }
        drop(plan);
        tr.time("engine.fair_distribution", || {
            engine.fair_distribution_targets(pi).len()
        });
        tr.time("cache.key", || canonical_key(t.d(), t.g(), &req));
        if self.repeat_misses && !reply.cache_hit {
            let service = &self.service;
            let again = tr.time("service.route_hit", || service.route(&req));
            if !again.is_ok_and(|r| r.cache_hit) {
                return Err("a repeat route missed the cache".into());
            }
        }
        Ok(())
    }

    /// The in-process per-layer metrics; `e2e_mean_us` is the mean round
    /// trip the pipeline's parts are subtracted from.
    pub fn metrics(&self, e2e_mean_us: f64) -> Result<Vec<Metric>, String> {
        if self.traced == 0 {
            return Err("the traced run traced no request".into());
        }
        let mean = |name: &str| match self.tr.totals.get(name) {
            Some(&(ns, count)) if count > 0 => Ok(ns as f64 / count as f64 / 1e3),
            _ => Err(format!("the traced run recorded no {name} span")),
        };
        let us = |name: &'static str, value: f64| Metric {
            name,
            value,
            unit: "us",
        };
        let plan = mean("engine.plan")?;
        let fair = mean("engine.fair_distribution")?;
        let miss = mean("service.route_miss")?;
        let mut out = vec![
            us("engine.plan_us", plan),
            us("engine.fair_distribution_us", fair),
            us("engine.emit_us", plan - fair),
            us("service.route_miss_us", miss),
            us("service.overhead_us", miss - plan),
            us("service.route_hit_us", mean("service.route_hit")?),
            us("cache.key_us", mean("cache.key")?),
        ];
        for (metric, span) in [
            ("frame.encode_request_us", "frame.encode_request"),
            ("frame.decode_request_us", "frame.decode_request"),
            ("frame.encode_reply_us", "frame.encode_reply"),
            ("frame.decode_reply_us", "frame.decode_reply"),
            ("json.encode_request_us", "json.encode_request"),
            ("json.parse_request_us", "json.parse_request"),
            ("json.encode_reply_us", "json.encode_reply"),
            ("json.decode_reply_us", "json.decode_reply"),
        ] {
            out.push(us(metric, mean(span)?));
        }
        let traced = self.traced as f64;
        out.extend([
            Metric {
                name: "frame.reply_bytes",
                value: self.frame_bytes as f64 / traced,
                unit: "bytes",
            },
            Metric {
                name: "json.reply_bytes",
                value: self.json_bytes as f64 / traced,
                unit: "bytes",
            },
            us(
                "trace.residual_us",
                e2e_mean_us - self.parts_ns as f64 / traced / 1e3,
            ),
        ]);
        Ok(out)
    }
}

/// The JSON request line `ServiceClient` sends for a theorem2 route.
fn json_request(pi: &Permutation) -> String {
    Json::Obj(vec![
        ("op".into(), Json::str("route")),
        ("kind".into(), Json::str("theorem2")),
        (
            "perm".into(),
            Json::Arr(pi.as_slice().iter().map(|&v| Json::num(v)).collect()),
        ),
    ])
    .to_string()
}

fn json_parse_request(line: &str, t: &PopsTopology) -> Result<ServiceRequest, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    match proto::parse_request(&doc, t)? {
        WireRequest::Route { req, .. } => Ok(req),
        other => Err(format!("parsed as {other:?}, not a route")),
    }
}

fn json_decode_reply(text: &str) -> Result<Schedule, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    proto::schedule_from_json(doc.get("schedule").ok_or("reply has no schedule")?)
}

fn frame_decode_request(payload: &[u8]) -> Result<ServiceRequest, String> {
    let route = frame::decode_route_request(payload.get(1..).ok_or("empty payload")?)?;
    Ok(ServiceRequest::Theorem2 { pi: route.perm? })
}

fn frame_decode_reply(payload: &[u8]) -> Result<Schedule, String> {
    Ok(frame::decode_route_reply(payload.get(1..).ok_or("empty payload")?)?.schedule)
}

/// Encodes a request as the client does and decodes it as the daemon does.
fn encode_request(
    tr: &mut Tracer,
    format: WireFormat,
    pi: &Permutation,
    t: &PopsTopology,
) -> Result<ServiceRequest, String> {
    match format {
        WireFormat::Binary => {
            let payload = tr.time("frame.encode_request", || {
                frame::encode_route_request(RequestKind::Theorem2, true, None, pi)
            });
            tr.time("frame.decode_request", || frame_decode_request(&payload))
        }
        WireFormat::Json => {
            let line = tr.time("json.encode_request", || json_request(pi));
            tr.time("json.parse_request", || json_parse_request(&line, t))
        }
    }
}

/// Encodes a reply as the daemon does and decodes it as the client does;
/// returns the decoded schedule and the bytes on the wire.
fn encode_reply(
    tr: &mut Tracer,
    format: WireFormat,
    reply: &ServiceReply,
    trace_id: &str,
) -> (Result<Schedule, String>, usize) {
    match format {
        WireFormat::Binary => {
            let payload = tr.time("frame.encode_reply", || {
                frame::encode_route_reply(
                    reply.cache_hit,
                    reply.micros,
                    reply.outcome.schedule(),
                    true,
                )
            });
            let decoded = tr.time("frame.decode_reply", || frame_decode_reply(&payload));
            // u32 length prefix + payload.
            (decoded, 4 + payload.len())
        }
        WireFormat::Json => {
            let text = tr.time("json.encode_reply", || {
                proto::attach_trace(
                    proto::route_response(RequestKind::Theorem2, reply, true),
                    trace_id,
                )
                .to_string()
            });
            let decoded = tr.time("json.decode_reply", || json_decode_reply(&text));
            // The line's newline.
            (decoded, text.len() + 1)
        }
    }
}
