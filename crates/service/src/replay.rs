//! Workload **replay**: drives a recorded (or synthesised) trace back at
//! a live server over real TCP — `pops replay` and the soak harness.
//!
//! The engine partitions a [`RecordedRequest`] trace round-robin across
//! `clients` worker threads. Each worker preserves its slice's order,
//! paces sends by the recorded arrival offsets divided by the rate
//! multiplier, and speaks each request on the wire format it was
//! recorded on (one JSON and one binary connection per worker, lazily
//! opened, reconnected after transport failures). Every returned
//! schedule is re-refereed on a [`Simulator`] carrying exactly the
//! request's declared fault set — a plan that leans on hardware the
//! request declared dead, or misdelivers a packet, is a **verification
//! failure**, the one count a soak run never tolerates. (H-relation
//! replies are executed for counts but not refereed: their phase
//! structure is not on the wire.)
//!
//! [`SloGates`] turns a finished [`ReplayReport`] into pass/fail: p99
//! latency, shed rate, verification failures, and hard failures each
//! gate independently, and `pops replay --soak` exits non-zero on any
//! breach.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pops_network::{FaultSet, PopsTopology, Schedule, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};

use crate::client::{Answer, ClientError, ServiceClient};
use crate::metrics::RequestKind;
use crate::proto::{
    BatchItemRequest, CacheAction, RouteBody, RouteRequest, WireErrorKind, WireFormat, WireRequest,
};
use crate::record::RecordedRequest;

/// Latency histogram buckets (log₂ microseconds), mirroring
/// [`crate::metrics::LatencyHistogram`].
const LATENCY_BUCKETS: usize = 64;

/// Most error / verification-failure sample messages a report keeps.
const MAX_SAMPLES: usize = 8;

/// How one replay run is shaped.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Concurrent client worker threads the trace is partitioned across.
    pub clients: usize,
    /// Arrival offsets are divided by this: `2.0` replays twice as fast
    /// as recorded, `0.5` half speed.
    pub rate_multiplier: f64,
    /// Wall-clock bound; workers stop starting new requests once it
    /// elapses. Required when `loop_trace` is set.
    pub duration: Option<Duration>,
    /// Replay the trace repeatedly until `duration` elapses (soak mode).
    pub loop_trace: bool,
    /// Re-referee every returned schedule on the simulator (requests
    /// schedule bodies; turning this off measures raw serving latency).
    pub verify: bool,
    /// Per-connection client timeout.
    pub timeout: Option<Duration>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            clients: 1,
            rate_multiplier: 1.0,
            duration: None,
            loop_trace: false,
            verify: true,
            timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// What a finished replay observed.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests attempted (every outcome included).
    pub sent: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests shed by the server's overload control (typed
    /// `overloaded` responses).
    pub sheds: u64,
    /// Hard failures: transport errors and non-`overloaded` server
    /// errors.
    pub failed: u64,
    /// Returned schedules the simulator refused to execute or that
    /// misdelivered packets.
    pub verify_failures: u64,
    /// Replies served from the server's plan cache (route ops only; the
    /// batch fast path reports no per-item flag).
    pub cache_hits: u64,
    /// Replies planned by the greedy fault router (degraded flag set).
    pub degraded: u64,
    /// Items carried by replayed batch requests.
    pub batch_items: u64,
    /// Requests per op label (`route:<kind>`, `batch`, `cache:<action>`).
    pub per_op: BTreeMap<String, u64>,
    /// Log₂-bucketed client-observed latency of successful requests, in
    /// microseconds.
    pub latency: Vec<u64>,
    /// First few hard-failure messages.
    pub error_samples: Vec<String>,
    /// First few verification-failure messages.
    pub verify_samples: Vec<String>,
    /// Wall-clock the replay took.
    pub wall: Duration,
    /// Complete passes over the trace (at least 1 unless stopped early).
    pub passes: u64,
}

impl Default for ReplayReport {
    fn default() -> Self {
        Self {
            sent: 0,
            ok: 0,
            sheds: 0,
            failed: 0,
            verify_failures: 0,
            cache_hits: 0,
            degraded: 0,
            batch_items: 0,
            per_op: BTreeMap::new(),
            latency: vec![0; LATENCY_BUCKETS],
            error_samples: Vec::new(),
            verify_samples: Vec::new(),
            wall: Duration::ZERO,
            passes: 0,
        }
    }
}

impl ReplayReport {
    fn observe_latency(&mut self, micros: u64) {
        let bucket = (u64::BITS - micros.leading_zeros()) as usize;
        let bucket = bucket.min(LATENCY_BUCKETS - 1);
        // lint: allow(panic-freedom) -- bucket is clamped below LATENCY_BUCKETS
        self.latency[bucket] += 1;
    }

    fn sample_error(&mut self, message: String) {
        if self.error_samples.len() < MAX_SAMPLES {
            self.error_samples.push(message);
        }
    }

    fn sample_verify(&mut self, message: String) {
        if self.verify_samples.len() < MAX_SAMPLES {
            self.verify_samples.push(message);
        }
    }

    fn merge(&mut self, other: ReplayReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.sheds += other.sheds;
        self.failed += other.failed;
        self.verify_failures += other.verify_failures;
        self.cache_hits += other.cache_hits;
        self.degraded += other.degraded;
        self.batch_items += other.batch_items;
        for (op, count) in other.per_op {
            *self.per_op.entry(op).or_insert(0) += count;
        }
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            *mine += theirs;
        }
        for sample in other.error_samples {
            self.sample_error(sample);
        }
        for sample in other.verify_samples {
            self.sample_verify(sample);
        }
        self.passes = self.passes.max(other.passes);
    }

    /// Fraction of attempted requests the server shed (`0.0` when
    /// nothing was sent).
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.sheds as f64 / self.sent as f64
        }
    }

    /// The `q`-quantile of successful-request latency in microseconds,
    /// reported as the upper edge of the histogram bucket containing it
    /// (log₂ buckets — a conservative estimate).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &count) in self.latency.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if bucket == 0 { 0 } else { (1u64 << bucket) - 1 };
            }
        }
        u64::MAX
    }

    /// A human-readable multi-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replayed {} requests in {:.2}s ({} passes)",
            self.sent,
            self.wall.as_secs_f64(),
            self.passes,
        );
        let _ = writeln!(
            out,
            "  ok {}  sheds {}  failures {}  verify-failures {}",
            self.ok, self.sheds, self.failed, self.verify_failures
        );
        let _ = writeln!(
            out,
            "  cache-hits {}  degraded {}  batch-items {}",
            self.cache_hits, self.degraded, self.batch_items
        );
        let _ = writeln!(
            out,
            "  latency p50 {} us  p99 {} us (successful requests, bucket upper edges)",
            self.quantile_micros(0.50),
            self.quantile_micros(0.99),
        );
        let ops: Vec<String> = self
            .per_op
            .iter()
            .map(|(op, count)| format!("{op}={count}"))
            .collect();
        let _ = writeln!(out, "  per-op: {}", ops.join("  "));
        for sample in &self.error_samples {
            let _ = writeln!(out, "  error: {sample}");
        }
        for sample in &self.verify_samples {
            let _ = writeln!(out, "  verify: {sample}");
        }
        out
    }
}

/// Declared SLO thresholds a soak run must hold. Every field is
/// independent; `None` disables that gate.
#[derive(Debug, Clone, Default)]
pub struct SloGates {
    /// Highest tolerated p99 latency of successful requests, in
    /// milliseconds.
    pub p99_ms: Option<f64>,
    /// Highest tolerated shed fraction (`0.05` = 5%).
    pub max_shed_rate: Option<f64>,
    /// Most tolerated verification failures (a soak gate is normally
    /// `Some(0)`).
    pub max_verify_failures: Option<u64>,
    /// Most tolerated hard failures.
    pub max_failures: Option<u64>,
}

impl SloGates {
    /// No gates — every report passes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Which gates `report` breaches (empty = pass).
    pub fn breaches(&self, report: &ReplayReport) -> Vec<String> {
        let mut breaches = Vec::new();
        if let Some(p99_ms) = self.p99_ms {
            let measured_ms = report.quantile_micros(0.99) as f64 / 1000.0;
            if measured_ms > p99_ms {
                breaches.push(format!(
                    "p99 latency {measured_ms:.3} ms exceeds the {p99_ms:.3} ms SLO"
                ));
            }
        }
        if let Some(max_shed) = self.max_shed_rate {
            let measured = report.shed_rate();
            if measured > max_shed {
                breaches.push(format!(
                    "shed rate {:.2}% exceeds the {:.2}% SLO",
                    measured * 100.0,
                    max_shed * 100.0
                ));
            }
        }
        if let Some(max_verify) = self.max_verify_failures {
            if report.verify_failures > max_verify {
                breaches.push(format!(
                    "{} verification failures exceed the tolerated {max_verify}",
                    report.verify_failures
                ));
            }
        }
        if let Some(max_failures) = self.max_failures {
            if report.failed > max_failures {
                breaches.push(format!(
                    "{} hard failures exceed the tolerated {max_failures}",
                    report.failed
                ));
            }
        }
        breaches
    }
}

/// Referees one returned schedule: it must execute legally on a
/// simulator with exactly `faults` failed and deliver every packet to
/// `pi`.
fn verify_route_schedule(
    d: usize,
    g: usize,
    faults: &[usize],
    pi: &Permutation,
    schedule: &Schedule,
) -> Result<(), String> {
    let t = PopsTopology::new(d, g);
    let mut set = FaultSet::none(&t);
    for &c in faults {
        if c >= t.coupler_count() {
            return Err(format!("fault id {c} out of range for {t}"));
        }
        set.fail_coupler(c);
    }
    let mut sim = Simulator::with_unit_packets_and_faults(t, set);
    sim.execute_schedule(schedule)
        .map_err(|(slot, e)| format!("illegal schedule at slot {slot}: {e}"))?;
    sim.verify_delivery(pi.as_slice())
        .map_err(|e| format!("misdelivery: {e}"))?;
    Ok(())
}

/// One worker's two lazily-opened connections (one per wire format).
struct ReplayWorker {
    addr: String,
    timeout: Option<Duration>,
    verify: bool,
    json: Option<ServiceClient>,
    binary: Option<ServiceClient>,
    report: ReplayReport,
}

impl ReplayWorker {
    fn new(addr: String, opts: &ReplayOptions) -> Self {
        Self {
            addr,
            timeout: opts.timeout,
            verify: opts.verify,
            json: None,
            binary: None,
            report: ReplayReport::default(),
        }
    }

    fn client_for(&mut self, format: WireFormat) -> Result<&mut ServiceClient, ClientError> {
        let slot = match format {
            WireFormat::Json => &mut self.json,
            WireFormat::Binary => &mut self.binary,
        };
        if let Some(client) = slot {
            return Ok(client);
        }
        let mut client = ServiceClient::connect_with_timeout(self.addr.as_str(), self.timeout)
            .map_err(ClientError::Io)?;
        // Without this the latency histogram measures Nagle +
        // delayed-ACK (~40-200 ms floors on loopback), not the server.
        let _ = client.set_nodelay(true);
        client.set_format(format)?;
        Ok(slot.insert(client))
    }

    /// Counts a failed call: a shed or a hard failure. A transport
    /// failure also drops the format's connection, which can no longer
    /// match responses to requests; the next request reconnects.
    fn note_error(&mut self, format: WireFormat, label: &str, e: &ClientError) {
        if e.remote_kind() == Some(WireErrorKind::Overloaded.name()) {
            self.report.sheds += 1;
        } else {
            self.report.failed += 1;
            self.report.sample_error(format!("{label}: {e}"));
        }
        if !matches!(e, ClientError::Remote { .. }) {
            match format {
                WireFormat::Json => self.json = None,
                WireFormat::Binary => self.binary = None,
            }
        }
    }

    /// Sends one record on its recorded wire format, and referees every
    /// schedule the reply carries.
    fn run_entry(&mut self, entry: &RecordedRequest) {
        self.report.sent += 1;
        let label = match &entry.op {
            WireRequest::Route { req, .. } => match &req.body {
                Ok(body) => format!("route:{}", body.kind().name()),
                Err(_) => "route".into(),
            },
            WireRequest::Batch { items, .. } => {
                self.report.batch_items += items.len() as u64;
                "batch".into()
            }
            WireRequest::Cache { action } => format!("cache:{}", action.name()),
            _ => "control".into(),
        };
        *self.report.per_op.entry(label.clone()).or_insert(0) += 1;
        let started = Instant::now();
        let answer = match self
            .client_for(entry.format)
            .and_then(|client| client.send(&entry.op))
        {
            Ok(answer) => answer,
            Err(e) => return self.note_error(entry.format, &label, &e),
        };
        self.report.ok += 1;
        let mut checks = Vec::new();
        match (&entry.op, &answer) {
            (WireRequest::Route { req, .. }, Answer::Route(reply)) => {
                self.report.cache_hits += reply.cache_hit as u64;
                self.report.degraded += reply.degraded as u64;
                // H-relation replies are not refereed: their phase
                // structure is not on the wire.
                if let Ok(RouteBody::Perm { pi, faults, .. }) = &req.body {
                    checks.push((req.d, req.g, faults, pi, &reply.schedule));
                }
            }
            (WireRequest::Batch { items, .. }, Answer::Batch(reply)) => {
                for (item, result) in items.iter().zip(&reply.items) {
                    if let (Ok(pi), Ok(item_reply)) = (&item.perm, result) {
                        checks.push((item.d, item.g, &item.faults, pi, &item_reply.schedule));
                    }
                }
            }
            // Cache ops do not count towards the latency histogram.
            _ => return,
        }
        self.report
            .observe_latency(started.elapsed().as_micros() as u64);
        if !self.verify {
            return;
        }
        for (d, g, faults, pi, schedule) in checks {
            if schedule.slots.is_empty() {
                continue;
            }
            if let Err(e) = verify_route_schedule(d, g, faults, pi, schedule) {
                self.report.verify_failures += 1;
                self.report
                    .sample_verify(format!("{label} on {d}x{g}: {e}"));
            }
        }
    }
}

/// Replays `trace` against the server at `addr` under `opts`, blocking
/// until the replay (or its duration budget) completes.
pub fn run_replay(
    addr: &str,
    trace: &[RecordedRequest],
    opts: &ReplayOptions,
) -> Result<ReplayReport, String> {
    if trace.is_empty() {
        return Err("the trace has no records to replay".into());
    }
    if opts.clients == 0 {
        return Err("replay needs at least one client".into());
    }
    if !(opts.rate_multiplier.is_finite() && opts.rate_multiplier > 0.0) {
        return Err("the rate multiplier must be a positive number".into());
    }
    if opts.loop_trace && opts.duration.is_none() {
        return Err("looping replay needs a duration bound".into());
    }
    let started = Instant::now();
    let deadline = opts.duration.map(|d| started + d);
    let base = trace.iter().map(|e| e.offset_us).min().unwrap_or(0);
    // Routes and batches ask for schedule bodies exactly when replay
    // referees them.
    let shared: Arc<Vec<RecordedRequest>> = Arc::new(
        trace
            .iter()
            .cloned()
            .map(|mut entry| {
                if let WireRequest::Route { want_schedule, .. }
                | WireRequest::Batch { want_schedule, .. } = &mut entry.op
                {
                    *want_schedule = opts.verify;
                }
                entry
            })
            .collect(),
    );
    let workers: Vec<std::thread::JoinHandle<ReplayReport>> = (0..opts.clients)
        .map(|w| {
            let trace = shared.clone();
            let opts = opts.clone();
            let addr = addr.to_string();
            let indices: Vec<usize> = (w..trace.len()).step_by(opts.clients).collect();
            std::thread::spawn(move || {
                let mut worker = ReplayWorker::new(addr, &opts);
                if indices.is_empty() {
                    return worker.report;
                }
                'passes: loop {
                    let pass_start = Instant::now();
                    for &i in &indices {
                        if let Some(deadline) = deadline {
                            if Instant::now() >= deadline {
                                break 'passes;
                            }
                        }
                        // lint: allow(panic-freedom) -- indices are built from 0..trace.len()
                        let entry = &trace[i];
                        let rel_us =
                            (entry.offset_us.saturating_sub(base)) as f64 / opts.rate_multiplier;
                        let mut target = pass_start + Duration::from_micros(rel_us as u64);
                        if let Some(deadline) = deadline {
                            target = target.min(deadline);
                        }
                        let now = Instant::now();
                        if target > now {
                            std::thread::sleep(target - now);
                        }
                        worker.run_entry(entry);
                    }
                    worker.report.passes += 1;
                    if !opts.loop_trace {
                        break;
                    }
                }
                worker.report
            })
        })
        .collect();
    let mut report = ReplayReport::default();
    for handle in workers {
        match handle.join() {
            Ok(partial) => report.merge(partial),
            Err(_) => return Err("a replay worker panicked".into()),
        }
    }
    report.wall = started.elapsed();
    Ok(report)
}

/// Parses a `DxG` shape token.
fn parse_shape(token: &str) -> Result<(usize, usize), String> {
    let (d, g) = token
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("shape '{token}' is not DxG"))?;
    let d: usize = d
        .trim()
        .parse()
        .map_err(|_| format!("shape '{token}': bad d"))?;
    let g: usize = g
        .trim()
        .parse()
        .map_err(|_| format!("shape '{token}': bad g"))?;
    if d == 0 || g == 0 {
        return Err(format!("shape '{token}': d and g must be positive"));
    }
    if d.saturating_mul(g) > 1 << 16 {
        return Err(format!(
            "shape '{token}': synthetic traces cap at n = d*g <= {}",
            1 << 16
        ));
    }
    Ok((d, g))
}

/// Picks a coupler whose single failure keeps `t` fully routable, or
/// `None` if the shape tolerates no single fault.
fn routable_fault(t: &PopsTopology, rng: &mut SplitMix64) -> Option<usize> {
    let couplers = t.coupler_count();
    let start = rng.next_below(couplers);
    for probe in 0..couplers {
        let c = (start + probe) % couplers;
        let mut set = FaultSet::none(t);
        set.fail_coupler(c);
        if set.fully_routable(t) {
            return Some(c);
        }
    }
    None
}

/// Generates a deterministic synthetic mixed trace — the no-recording
/// bootstrap for soak runs. `spec` is `mixed:DxG[,DxG...]`: shapes are
/// visited round-robin (topology churn); wire formats alternate per
/// request; every 4th-ish request declares a single routable coupler
/// failed; every 8th is a mixed-topology batch; every 16th a cache-stats
/// op; the rest are healthy `theorem2` singles. Arrival offsets advance
/// 500 µs per request, so `--rate-multiplier` is meaningful. The same
/// `(spec, count, seed)` always yields the same trace.
pub fn synth_trace(spec: &str, count: usize, seed: u64) -> Result<Vec<RecordedRequest>, String> {
    let shapes_spec = spec
        .strip_prefix("mixed:")
        .ok_or_else(|| format!("unknown synth spec '{spec}' (expected mixed:DxG[,DxG...])"))?;
    let shapes: Vec<(usize, usize)> = shapes_spec
        .split(',')
        .map(|token| parse_shape(token.trim()))
        .collect::<Result<_, _>>()?;
    if shapes.is_empty() {
        return Err("the synth spec names no shapes".into());
    }
    if count == 0 {
        return Err("synthetic traces need at least one request".into());
    }
    let mut rng = SplitMix64::new(seed);
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        // lint invariant: shapes is non-empty (checked above).
        let (d, g) = shapes[i % shapes.len()];
        let t = PopsTopology::new(d, g);
        let format = if i % 2 == 0 {
            WireFormat::Json
        } else {
            WireFormat::Binary
        };
        let offset_us = (i as u64) * 500;
        let op = if i % 16 == 7 {
            WireRequest::Cache {
                action: CacheAction::Stats,
            }
        } else if i % 8 == 3 {
            // A mixed-topology batch: one item per shape, the last one
            // faulted when the shape tolerates it.
            let items: Vec<BatchItemRequest> = shapes
                .iter()
                .enumerate()
                .map(|(j, &(bd, bg))| {
                    let bt = PopsTopology::new(bd, bg);
                    let faults = match j + 1 == shapes.len() {
                        true => routable_fault(&bt, &mut rng).into_iter().collect(),
                        false => Vec::new(),
                    };
                    BatchItemRequest {
                        d: bd,
                        g: bg,
                        perm: Ok(random_permutation(bt.n(), &mut rng)),
                        faults,
                    }
                })
                .collect();
            WireRequest::Batch {
                items,
                want_schedule: false,
            }
        } else {
            // Every 4th-ish request declares a routable coupler failed.
            let faults: Vec<usize> = match i % 4 {
                1 => routable_fault(&t, &mut rng).into_iter().collect(),
                _ => Vec::new(),
            };
            let kind = if faults.is_empty() {
                RequestKind::Theorem2
            } else {
                RequestKind::WithFaults
            };
            let pi = random_permutation(t.n(), &mut rng);
            WireRequest::Route {
                req: RouteRequest {
                    d,
                    g,
                    body: Ok(RouteBody::Perm { kind, pi, faults }),
                },
                want_schedule: true,
            }
        };
        entries.push(RecordedRequest {
            offset_us,
            format,
            op,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_traces_are_deterministic_and_mixed() {
        let a = synth_trace("mixed:4x4,2x8", 48, 7).unwrap();
        let b = synth_trace("mixed:4x4,2x8", 48, 7).unwrap();
        assert_eq!(a, b, "same spec+seed must give the same trace");
        let shapes = crate::record::trace_shapes(&a);
        assert_eq!(shapes, vec![(2, 8), (4, 4)], "topology churn present");
        let mut has_batch = false;
        let mut has_cache = false;
        let mut has_faults = false;
        let mut has_binary = false;
        for entry in &a {
            match &entry.op {
                WireRequest::Batch { .. } => has_batch = true,
                WireRequest::Cache { .. } => has_cache = true,
                WireRequest::Route { req, .. } => {
                    has_faults |= matches!(&req.body, Ok(RouteBody::Perm { faults, .. }) if !faults.is_empty());
                }
                _ => {}
            }
            has_binary |= entry.format == WireFormat::Binary;
        }
        assert!(has_batch && has_cache && has_faults && has_binary);
    }

    #[test]
    fn synth_rejects_bad_specs() {
        assert!(synth_trace("mixed:", 4, 0).is_err());
        assert!(synth_trace("uniform:4x4", 4, 0).is_err());
        assert!(synth_trace("mixed:0x4", 4, 0).is_err());
        assert!(synth_trace("mixed:4x4", 0, 0).is_err());
    }

    #[test]
    fn gates_flag_breaches() {
        let mut report = ReplayReport {
            sent: 100,
            ok: 90,
            sheds: 10,
            verify_failures: 1,
            ..ReplayReport::default()
        };
        report.observe_latency(5_000); // p99 bucket edge ≈ 8191 us
        let strict = SloGates {
            p99_ms: Some(1.0),
            max_shed_rate: Some(0.05),
            max_verify_failures: Some(0),
            max_failures: Some(0),
        };
        let breaches = strict.breaches(&report);
        assert_eq!(breaches.len(), 3, "{breaches:?}");
        assert!(SloGates::none().breaches(&report).is_empty());
        let loose = SloGates {
            p99_ms: Some(1_000.0),
            max_shed_rate: Some(0.5),
            max_verify_failures: Some(1),
            max_failures: Some(0),
        };
        assert!(loose.breaches(&report).is_empty());
    }

    #[test]
    fn quantiles_come_from_bucket_edges() {
        let mut report = ReplayReport::default();
        for _ in 0..99 {
            report.observe_latency(3); // bucket 2, edge 3
        }
        report.observe_latency(1_000_000); // bucket 20, edge (1<<20)-1
        assert_eq!(report.quantile_micros(0.50), 3);
        assert_eq!(report.quantile_micros(1.0), (1 << 20) - 1);
        assert_eq!(ReplayReport::default().quantile_micros(0.99), 0);
    }
}
