//! The service metrics registry: lock-free counters and log₂ latency
//! histograms, updated on every request and rendered as a snapshot.
//!
//! Everything is a relaxed atomic — metrics never serialize the request
//! path. A [`MetricsSnapshot`] is a plain-data copy taken at one instant;
//! the server's `stats` op and the CLI's exit summary both render from it.
//!
//! Each scalar metric is declared once, as a [`Counter`] or [`Gauge`]
//! variant. The variant indexes the registry's atomic array and the
//! snapshot's plain array, so recording, snapshotting and aggregating
//! need no per-metric code; the Prometheus family table in
//! [`crate::exposition`] names each variant's sample.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::proto::WireErrorKind;

/// Number of latency buckets: bucket `i` counts requests whose latency in
/// microseconds `µs` satisfies `2^(i-1) ≤ µs < 2^i` (bucket 0 is `< 1 µs`).
/// The last bucket also holds every slower observation (it is clamped).
pub const HISTOGRAM_BUCKETS: usize = 24;

/// Number of wire-error kinds tracked by the per-kind error counters
/// (one slot per [`WireErrorKind`], indexed by [`WireErrorKind::index`]).
pub const WIRE_ERROR_KINDS: usize = WireErrorKind::ALL.len();

/// Declares a fieldless enum whose variants index a metric array, with
/// `COUNT` (the array length) and `ALL` (every variant, in index order).
macro_rules! metric_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[doc = $doc:literal])* $variant:ident,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[doc = $doc])* $variant,)*
        }

        impl $name {
            /// Every variant, in index order.
            pub const ALL: [$name; $name::COUNT] = [$($name::$variant),*];
            /// Number of variants: the length of the arrays they index.
            pub const COUNT: usize = [$($name::$variant),*].len();
        }
    };
}

metric_enum! {
    /// A monotonic scalar counter of the registry. Recording one is a
    /// single relaxed `fetch_add` ([`ServiceMetrics::add`]); snapshots
    /// read it with [`MetricsSnapshot::get`].
    Counter {
        /// Level-1 (whole-request) plan-cache hits.
        Hits,
        /// Level-1 plan-cache misses (each one computed or assembled a plan).
        Misses,
        /// Level-2 (per-phase) cache hits: h-relation phases answered from
        /// the phase cache instead of the engine pool.
        PhaseHits,
        /// Level-2 misses: phases that had to be planned on an engine.
        PhaseMisses,
        /// Total slots across every schedule the service emitted.
        SlotsEmitted,
        /// Requests that returned a routing error.
        Errors,
        /// Engine-pool acquisitions that found their home shard free.
        PoolFast,
        /// Acquisitions that overflowed to another idle shard.
        PoolOverflows,
        /// Acquisitions that found every shard busy and had to block.
        PoolBlocked,
        /// Requests that had to wait at the admission gate.
        AdmissionWaits,
        /// Batch submissions.
        Batches,
        /// Plans produced by batch submissions.
        BatchPlans,
        /// Connections the server accepted and handed to a handler.
        ConnsOpened,
        /// Handler threads that have exited (their connection is done).
        ConnsClosed,
        /// Connections refused because the server was at capacity.
        ConnsRejected,
        /// Request lines rejected for exceeding the line-length cap.
        OversizedLines,
        /// Connections dropped because a complete line never arrived in time.
        ReadTimeouts,
        /// Requests shed at the global in-flight watermark (answered with
        /// an `overloaded` error instead of queueing).
        ShedsWatermark,
        /// Requests shed by a per-client token-bucket quota.
        ShedsQuota,
        /// Slow-request trace lines actually emitted to the log.
        SlowTraces,
        /// Slow-request trace lines suppressed by the rate limiter.
        SlowTracesSuppressed,
        /// Connections that negotiated the binary framing (every connection
        /// starts as JSON; `ConnsOpened - ConnsBinary` is the JSON count).
        ConnsBinary,
        /// Request bytes received on JSON-lines connections.
        JsonBytesIn,
        /// Response bytes written on JSON-lines connections.
        JsonBytesOut,
        /// Request bytes received on binary-framed connections (frames read
        /// after negotiation; the negotiation line itself counts as JSON).
        BinaryBytesIn,
        /// Response bytes written on binary-framed connections.
        BinaryBytesOut,
        /// Degraded plans computed: level-1 misses planned by the greedy
        /// fault router under a non-empty fault set (the fallback to the
        /// Theorem-2 construction).
        DegradedPlans,
        /// Level-1 hits answered from a degraded (fault-keyed) cache entry.
        DegradedHits,
        /// Requests refused because their effective fault set left the
        /// fabric not fully routable.
        UnroutableRefusals,
    }
}

metric_enum! {
    /// A gauge of service state the registry cannot see: filled into a
    /// snapshot by [`crate::RoutingService::metrics`] (0 from a bare
    /// registry) and read with [`MetricsSnapshot::gauge`].
    Gauge {
        /// Engine-arena bytes across the pool.
        ArenaBytes,
        /// Level-1 plans currently cached.
        CacheEntries,
        /// Level-1 plan-cache capacity.
        CacheCapacity,
        /// Level-2 phase plans currently cached.
        PhaseCacheEntries,
        /// Level-2 phase-cache capacity.
        PhaseCacheCapacity,
    }
}

metric_enum! {
    /// The request kinds the service distinguishes in its per-kind metrics —
    /// one per [`pops_core::RoutingRequest`] variant, in wire-name order.
    RequestKind {
        /// General Theorem-2 permutation routing.
        Theorem2,
        /// Single-slot routing (Gravenstreter–Melhem condition).
        SingleSlot,
        /// h-relation routing by König decomposition.
        HRelation,
        /// Fault-tolerant routing around failed couplers.
        WithFaults,
        /// The direct single-hop baseline.
        Direct,
        /// The structured (Sahni-style) baseline.
        Structured,
    }
}

impl RequestKind {
    /// The kind's index into per-kind metric arrays (and its wire byte).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The kind's wire name (used by the JSON protocol and reports).
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Theorem2 => "theorem2",
            RequestKind::SingleSlot => "single-slot",
            RequestKind::HRelation => "h-relation",
            RequestKind::WithFaults => "faults",
            RequestKind::Direct => "direct",
            RequestKind::Structured => "structured",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        RequestKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A log₂-bucketed latency histogram in microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, micros: u64) {
        let bucket = (u64::BITS - micros.leading_zeros()) as usize;
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-data copy of the bucket counts.
    pub fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed))
    }
}

/// Per-kind counters.
#[derive(Debug, Default)]
struct KindMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    total_micros: AtomicU64,
    latency: LatencyHistogram,
}

/// The registry. One instance lives in every [`crate::RoutingService`];
/// pools and the admission gate update it directly.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Every scalar counter, indexed by [`Counter`].
    counters: [AtomicU64; Counter::COUNT],
    /// Wire-level error responses written, by [`WireErrorKind`] index.
    wire_errors: [AtomicU64; WIRE_ERROR_KINDS],
    per_kind: [KindMetrics; RequestKind::COUNT],
}

impl ServiceMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records a cache hit for `kind`, `micros` in service.
    pub fn record_hit(&self, kind: RequestKind, micros: u64) {
        self.add(Counter::Hits, 1);
        self.record_kind(kind, micros);
    }

    /// Records a computed (cache-miss) plan for `kind` that emitted
    /// `slots` slots, `micros` in service.
    pub fn record_miss(&self, kind: RequestKind, slots: usize, micros: u64) {
        self.add(Counter::Misses, 1);
        self.add(Counter::SlotsEmitted, slots as u64);
        self.record_kind(kind, micros);
    }

    /// Records a failed request.
    pub fn record_error(&self, kind: RequestKind) {
        self.add(Counter::Errors, 1);
        self.per_kind[kind.index()]
            .errors
            .fetch_add(1, Ordering::Relaxed);
    }

    fn record_kind(&self, kind: RequestKind, micros: u64) {
        let k = &self.per_kind[kind.index()];
        k.requests.fetch_add(1, Ordering::Relaxed);
        k.total_micros.fetch_add(micros, Ordering::Relaxed);
        k.latency.record(micros);
    }

    /// Records a batch submission of `plans` plans totalling `slots` slots.
    pub fn record_batch(&self, plans: usize, slots: usize) {
        self.add(Counter::Batches, 1);
        self.add(Counter::BatchPlans, plans as u64);
        self.add(Counter::SlotsEmitted, slots as u64);
    }

    /// Records one wire-level error response of the given kind (the typed
    /// `"kind"` field the server put on an `ok: false` reply).
    pub fn record_wire_error(&self, kind: WireErrorKind) {
        self.wire_errors[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records wire traffic: `bytes_in` request bytes received and
    /// `bytes_out` response bytes written, attributed to the connection's
    /// negotiated format.
    pub fn record_wire_bytes(&self, binary: bool, bytes_in: u64, bytes_out: u64) {
        let (bytes_in_counter, bytes_out_counter) = if binary {
            (Counter::BinaryBytesIn, Counter::BinaryBytesOut)
        } else {
            (Counter::JsonBytesIn, Counter::JsonBytesOut)
        };
        self.add(bytes_in_counter, bytes_in);
        self.add(bytes_out_counter, bytes_out);
    }

    /// A plain-data copy of every counter at this instant (gauges 0).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            counters: self.counters.each_ref().map(load),
            gauges: [0; Gauge::COUNT],
            wire_errors: self.wire_errors.each_ref().map(load),
            per_kind: RequestKind::ALL.map(|kind| {
                let k = &self.per_kind[kind.index()];
                KindSnapshot {
                    kind,
                    requests: load(&k.requests),
                    errors: load(&k.errors),
                    total_micros: load(&k.total_micros),
                    latency: k.latency.snapshot(),
                }
            }),
        }
    }
}

/// Plain-data copy of one request kind's counters.
#[derive(Debug, Clone)]
pub struct KindSnapshot {
    /// The kind.
    pub kind: RequestKind,
    /// Requests served (hits + misses).
    pub requests: u64,
    /// Requests that errored.
    pub errors: u64,
    /// Total service latency in microseconds.
    pub total_micros: u64,
    /// The log₂ latency histogram.
    pub latency: [u64; HISTOGRAM_BUCKETS],
}

impl KindSnapshot {
    /// Adds `other`'s requests, errors, latency total and histogram into
    /// `self` (its kind is kept).
    pub fn absorb(&mut self, other: &KindSnapshot) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.total_micros += other.total_micros;
        add_slots(&mut self.latency, &other.latency);
    }

    /// Mean service latency in microseconds (0 when idle).
    pub fn avg_micros(&self) -> u64 {
        self.total_micros.checked_div(self.requests).unwrap_or(0)
    }

    /// Approximate p-quantile latency in microseconds from the histogram
    /// (upper bucket bound of the bucket containing the quantile). The
    /// last bucket is the clamped overflow (2²² µs and above) and has no
    /// upper bound, so a quantile there is `u64::MAX`.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().sum();
        if total == 0 {
            return 0;
        }
        let want = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &count) in self.latency.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
            seen += count;
            if seen >= want {
                return 1u64 << i;
            }
        }
        u64::MAX
    }
}

/// Plain-data copy of the whole registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Every scalar counter, indexed by [`Counter`]; read with
    /// [`MetricsSnapshot::get`].
    counters: [u64; Counter::COUNT],
    /// Every gauge, indexed by [`Gauge`]; read with
    /// [`MetricsSnapshot::gauge`].
    gauges: [u64; Gauge::COUNT],
    /// Wire-level error responses written, indexed by
    /// [`WireErrorKind::index`].
    pub wire_errors: [u64; WIRE_ERROR_KINDS],
    /// Per-kind counters.
    pub per_kind: [KindSnapshot; RequestKind::COUNT],
}

/// Adds `theirs` into `mine`, slot by slot.
fn add_slots(mine: &mut [u64], theirs: &[u64]) {
    for (slot, add) in mine.iter_mut().zip(theirs) {
        *slot += add;
    }
}

/// `part / whole`, or 0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl MetricsSnapshot {
    /// A zeroed snapshot — the identity of [`MetricsSnapshot::absorb`].
    pub fn zero() -> Self {
        ServiceMetrics::new().snapshot()
    }

    /// One counter's value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// One gauge's value.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// Sets one gauge.
    pub fn set_gauge(&mut self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize] = value;
    }

    /// Adds every counter (and gauge) of `other` into `self`.
    ///
    /// The multi-topology server keeps one metrics registry **per
    /// topology** plus one for the connection layer; absorbing them into a
    /// zero snapshot renders the single fleet-wide view the `stats` wire
    /// op reports at its top level. Gauges (arena bytes, cache occupancy
    /// and capacity) sum too, so the aggregate reads as fleet totals.
    ///
    /// ```
    /// use pops_service::{Counter, MetricsSnapshot, RequestKind, ServiceMetrics};
    ///
    /// let a = ServiceMetrics::new();
    /// a.record_miss(RequestKind::Theorem2, 2, 10);
    /// let b = ServiceMetrics::new();
    /// b.record_hit(RequestKind::Theorem2, 1);
    ///
    /// let mut total = MetricsSnapshot::zero();
    /// total.absorb(&a.snapshot());
    /// total.absorb(&b.snapshot());
    /// assert_eq!((total.get(Counter::Hits), total.get(Counter::Misses)), (1, 1));
    /// assert_eq!(total.per_kind[0].requests, 2);
    /// ```
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        add_slots(&mut self.counters, &other.counters);
        add_slots(&mut self.gauges, &other.gauges);
        add_slots(&mut self.wire_errors, &other.wire_errors);
        for (mine, theirs) in self.per_kind.iter_mut().zip(&other.per_kind) {
            debug_assert_eq!(mine.kind, theirs.kind);
            mine.absorb(theirs);
        }
    }

    /// Level-1 cache hit rate over single-request traffic (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.get(Counter::Hits), self.requests())
    }

    /// Level-2 (phase) cache hit rate over routed phases (0 when idle).
    pub fn phase_hit_rate(&self) -> f64 {
        let hits = self.get(Counter::PhaseHits);
        ratio(hits, hits + self.get(Counter::PhaseMisses))
    }

    /// Single requests served (hits + misses).
    pub fn requests(&self) -> u64 {
        self.get(Counter::Hits) + self.get(Counter::Misses)
    }

    /// Connections currently live (opened minus closed).
    pub fn active_connections(&self) -> u64 {
        self.get(Counter::ConnsOpened)
            .saturating_sub(self.get(Counter::ConnsClosed))
    }

    /// Connections that stayed on the default JSON-lines framing (opened
    /// minus binary-negotiated).
    pub fn json_connections(&self) -> u64 {
        self.get(Counter::ConnsOpened)
            .saturating_sub(self.get(Counter::ConnsBinary))
    }

    /// Requests shed by overload control, all causes combined.
    pub fn sheds(&self) -> u64 {
        self.get(Counter::ShedsWatermark) + self.get(Counter::ShedsQuota)
    }

    /// Wire-level error responses written, all kinds combined.
    pub fn wire_errors_total(&self) -> u64 {
        self.wire_errors.iter().sum()
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Counter as C;
        let c = |counter| self.get(counter);
        let g = |gauge| self.gauge(gauge);
        writeln!(
            f,
            "requests: {} ({} L1 hits, {} L1 misses, hit rate {:.1}%), {} errors",
            self.requests(),
            c(C::Hits),
            c(C::Misses),
            100.0 * self.hit_rate(),
            c(C::Errors),
        )?;
        writeln!(
            f,
            "phases (L2): {} hits, {} misses, hit rate {:.1}%",
            c(C::PhaseHits),
            c(C::PhaseMisses),
            100.0 * self.phase_hit_rate(),
        )?;
        writeln!(
            f,
            "slots emitted: {}   batches: {} ({} plans)",
            c(C::SlotsEmitted),
            c(C::Batches),
            c(C::BatchPlans)
        )?;
        writeln!(
            f,
            "degraded: {} plans, {} hits   unroutable refusals: {}",
            c(C::DegradedPlans),
            c(C::DegradedHits),
            c(C::UnroutableRefusals)
        )?;
        writeln!(
            f,
            "pool: {} fast, {} overflowed, {} blocked   admission waits: {}",
            c(C::PoolFast),
            c(C::PoolOverflows),
            c(C::PoolBlocked),
            c(C::AdmissionWaits)
        )?;
        writeln!(
            f,
            "connections: {} active ({} opened, {} closed, {} rejected)   \
             oversized lines: {}   read timeouts: {}",
            self.active_connections(),
            c(C::ConnsOpened),
            c(C::ConnsClosed),
            c(C::ConnsRejected),
            c(C::OversizedLines),
            c(C::ReadTimeouts),
        )?;
        writeln!(
            f,
            "sheds: {} ({} watermark, {} quota)   slow traces: {} emitted, \
             {} suppressed   wire errors: {}",
            self.sheds(),
            c(C::ShedsWatermark),
            c(C::ShedsQuota),
            c(C::SlowTraces),
            c(C::SlowTracesSuppressed),
            self.wire_errors_total(),
        )?;
        writeln!(
            f,
            "wire: {} json conn(s) ({} B in, {} B out), {} binary conn(s) \
             ({} B in, {} B out)",
            self.json_connections(),
            c(C::JsonBytesIn),
            c(C::JsonBytesOut),
            c(C::ConnsBinary),
            c(C::BinaryBytesIn),
            c(C::BinaryBytesOut),
        )?;
        writeln!(
            f,
            "arena footprint: {} bytes   plan cache: {}/{} entries   \
             phase cache: {}/{} entries",
            g(Gauge::ArenaBytes),
            g(Gauge::CacheEntries),
            g(Gauge::CacheCapacity),
            g(Gauge::PhaseCacheEntries),
            g(Gauge::PhaseCacheCapacity),
        )?;
        writeln!(
            f,
            "{:<12} {:>9} {:>7} {:>10} {:>10} {:>10}",
            "kind", "requests", "errors", "avg µs", "p50 µs", "p99 µs"
        )?;
        for k in &self.per_kind {
            if k.requests == 0 && k.errors == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<12} {:>9} {:>7} {:>10} {:>10} {:>10}",
                k.kind.name(),
                k.requests,
                k.errors,
                k.avg_micros(),
                QuantileCell(k.quantile_micros(0.5)),
                QuantileCell(k.quantile_micros(0.99)),
            )?;
        }
        Ok(())
    }
}

/// A quantile in the [`MetricsSnapshot`] summary table. A quantile in the
/// overflow bucket (`u64::MAX`, unbounded) prints as the open bound past
/// the last finite one, `>4194304`, so the column keeps its width.
struct QuantileCell(u64);

impl fmt::Display for QuantileCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            f.pad(&format!(">{}", 1u64 << (HISTOGRAM_BUCKETS - 2)))
        } else {
            f.pad(&self.0.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        h.record(u64::MAX); // clamped to last bucket
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[2], 2);
        assert_eq!(snap[11], 1);
        assert_eq!(snap[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn snapshot_reflects_recordings() {
        let m = ServiceMetrics::new();
        m.record_miss(RequestKind::Theorem2, 2, 100);
        m.record_hit(RequestKind::Theorem2, 1);
        m.record_error(RequestKind::SingleSlot);
        m.add(Counter::PoolFast, 1);
        m.add(Counter::PoolOverflows, 1);
        m.record_batch(8, 16);
        let s = m.snapshot();
        assert_eq!(s.get(Counter::Hits), 1);
        assert_eq!(s.get(Counter::Misses), 1);
        assert_eq!(s.get(Counter::SlotsEmitted), 2 + 16);
        assert_eq!(s.get(Counter::Errors), 1);
        assert_eq!(s.get(Counter::PoolFast), 1);
        assert_eq!(s.get(Counter::PoolOverflows), 1);
        assert_eq!(s.get(Counter::BatchPlans), 8);
        assert_eq!(s.per_kind[0].requests, 2);
        assert_eq!(s.per_kind[1].errors, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        let rendered = s.to_string();
        assert!(rendered.contains("hit rate 50.0%"), "{rendered}");
        assert!(rendered.contains("theorem2"), "{rendered}");
    }

    #[test]
    fn phase_counters_are_reported_separately_from_l1() {
        let m = ServiceMetrics::new();
        m.record_miss(RequestKind::HRelation, 8, 120);
        m.add(Counter::PhaseMisses, 1);
        m.add(Counter::PhaseHits, 1);
        m.add(Counter::PhaseHits, 1);
        m.add(Counter::PhaseHits, 1);
        let s = m.snapshot();
        assert_eq!(
            (s.get(Counter::Hits), s.get(Counter::Misses)),
            (0, 1),
            "L1 view"
        );
        assert_eq!(
            (s.get(Counter::PhaseHits), s.get(Counter::PhaseMisses)),
            (3, 1),
            "L2 view"
        );
        assert!((s.phase_hit_rate() - 0.75).abs() < 1e-9);
        let rendered = s.to_string();
        assert!(rendered.contains("L1 hits"), "{rendered}");
        assert!(
            rendered.contains("phases (L2): 3 hits, 1 misses"),
            "{rendered}"
        );
    }

    #[test]
    fn connection_and_limit_counters_round_trip() {
        let m = ServiceMetrics::new();
        for _ in 0..3 {
            m.add(Counter::ConnsOpened, 1);
        }
        m.add(Counter::ConnsClosed, 1);
        m.add(Counter::ConnsRejected, 1);
        m.add(Counter::OversizedLines, 1);
        m.add(Counter::ReadTimeouts, 1);
        let s = m.snapshot();
        assert_eq!(
            (s.get(Counter::ConnsOpened), s.get(Counter::ConnsClosed)),
            (3, 1)
        );
        assert_eq!(s.active_connections(), 2);
        assert_eq!(s.get(Counter::ConnsRejected), 1);
        assert_eq!(
            (s.get(Counter::OversizedLines), s.get(Counter::ReadTimeouts)),
            (1, 1)
        );
        let rendered = s.to_string();
        assert!(rendered.contains("2 active"), "{rendered}");
        assert!(rendered.contains("read timeouts: 1"), "{rendered}");
        assert!(rendered.contains("arena footprint"), "{rendered}");
    }

    #[test]
    fn per_format_wire_counters_round_trip() {
        let m = ServiceMetrics::new();
        for _ in 0..3 {
            m.add(Counter::ConnsOpened, 1);
        }
        m.add(Counter::ConnsBinary, 1);
        m.record_wire_bytes(false, 100, 900);
        m.record_wire_bytes(false, 20, 80);
        m.record_wire_bytes(true, 50, 200);
        let s = m.snapshot();
        assert_eq!(s.get(Counter::ConnsBinary), 1);
        assert_eq!(s.json_connections(), 2);
        assert_eq!(
            (s.get(Counter::JsonBytesIn), s.get(Counter::JsonBytesOut)),
            (120, 980)
        );
        assert_eq!(
            (
                s.get(Counter::BinaryBytesIn),
                s.get(Counter::BinaryBytesOut)
            ),
            (50, 200)
        );
        let rendered = s.to_string();
        assert!(
            rendered.contains("2 json conn(s) (120 B in, 980 B out)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("1 binary conn(s) (50 B in, 200 B out)"),
            "{rendered}"
        );

        // Aggregation across registries sums the per-format views too.
        let other = ServiceMetrics::new();
        other.record_wire_bytes(true, 1, 2);
        other.add(Counter::ConnsBinary, 1);
        let mut total = MetricsSnapshot::zero();
        total.absorb(&s);
        total.absorb(&other.snapshot());
        assert_eq!(total.get(Counter::ConnsBinary), 2);
        assert_eq!(
            (
                total.get(Counter::BinaryBytesIn),
                total.get(Counter::BinaryBytesOut)
            ),
            (51, 202)
        );
    }

    #[test]
    fn quantiles_from_histogram() {
        let mut k = KindSnapshot {
            kind: RequestKind::Theorem2,
            requests: 0,
            errors: 0,
            total_micros: 0,
            latency: [0; HISTOGRAM_BUCKETS],
        };
        assert_eq!(k.quantile_micros(0.5), 0);
        k.latency[3] = 99; // 4..8 µs
        k.latency[10] = 1; // one slow outlier
        assert_eq!(k.quantile_micros(0.5), 8);
        assert_eq!(k.quantile_micros(0.999), 1024);
    }

    #[test]
    fn a_quantile_in_the_overflow_bucket_is_unbounded() {
        let h = LatencyHistogram::default();
        h.record(1 << 22); // the first latency the last bucket clamps
        let mut k = KindSnapshot {
            kind: RequestKind::Theorem2,
            requests: 1,
            errors: 0,
            total_micros: 1 << 22,
            latency: h.snapshot(),
        };
        assert_eq!(k.latency[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(k.quantile_micros(0.5), u64::MAX);
        assert_eq!(k.quantile_micros(0.99), u64::MAX);
        // The summary table prints it as an open bound, in its column.
        assert_eq!(format!("{:>10}", QuantileCell(u64::MAX)), "  >4194304");
        assert_eq!(format!("{:>10}", QuantileCell(1 << 22)), "   4194304");
        // Just below the overflow bucket the bound is still finite.
        k.latency = [0; HISTOGRAM_BUCKETS];
        k.latency[HISTOGRAM_BUCKETS - 2] = 1;
        assert_eq!(k.quantile_micros(0.99), 1 << 22);
    }

    #[test]
    fn absorb_sums_counters_and_histograms() {
        let a = ServiceMetrics::new();
        a.record_miss(RequestKind::Theorem2, 2, 100);
        a.add(Counter::PhaseMisses, 1);
        a.add(Counter::ConnsOpened, 1);
        let b = ServiceMetrics::new();
        b.record_hit(RequestKind::Theorem2, 100);
        b.record_error(RequestKind::HRelation);
        b.add(Counter::PhaseHits, 1);

        let mut total = MetricsSnapshot::zero();
        total.absorb(&a.snapshot());
        total.absorb(&b.snapshot());
        assert_eq!(
            (total.get(Counter::Hits), total.get(Counter::Misses)),
            (1, 1)
        );
        assert_eq!(
            (
                total.get(Counter::PhaseHits),
                total.get(Counter::PhaseMisses)
            ),
            (1, 1)
        );
        assert_eq!(total.get(Counter::Errors), 1);
        assert_eq!(total.get(Counter::ConnsOpened), 1);
        assert_eq!(total.per_kind[0].requests, 2);
        assert_eq!(total.per_kind[2].errors, 1);
        // Both 100 µs observations land in the same histogram bucket.
        let bucket = (u64::BITS - 100u64.leading_zeros()) as usize;
        assert_eq!(total.per_kind[0].latency[bucket], 2);
    }

    #[test]
    fn shed_and_slow_trace_counters_round_trip() {
        let m = ServiceMetrics::new();
        m.add(Counter::ShedsWatermark, 1);
        m.add(Counter::ShedsWatermark, 1);
        m.add(Counter::ShedsQuota, 1);
        m.add(Counter::SlowTraces, 1);
        m.add(Counter::SlowTracesSuppressed, 1);
        m.add(Counter::SlowTracesSuppressed, 1);
        let s = m.snapshot();
        assert_eq!(
            (s.get(Counter::ShedsWatermark), s.get(Counter::ShedsQuota)),
            (2, 1)
        );
        assert_eq!(s.sheds(), 3);
        assert_eq!(
            (
                s.get(Counter::SlowTraces),
                s.get(Counter::SlowTracesSuppressed)
            ),
            (1, 2)
        );
        let rendered = s.to_string();
        assert!(
            rendered.contains("sheds: 3 (2 watermark, 1 quota)"),
            "{rendered}"
        );

        // Aggregation sums the overload view too.
        let mut total = MetricsSnapshot::zero();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.sheds(), 6);
        assert_eq!(total.get(Counter::SlowTracesSuppressed), 4);
    }

    #[test]
    fn wire_error_counters_round_trip_per_kind() {
        let m = ServiceMetrics::new();
        m.record_wire_error(WireErrorKind::Parse);
        m.record_wire_error(WireErrorKind::Parse);
        m.record_wire_error(WireErrorKind::Overloaded);
        let s = m.snapshot();
        assert_eq!(s.wire_errors[WireErrorKind::Parse.index()], 2);
        assert_eq!(s.wire_errors[WireErrorKind::Overloaded.index()], 1);
        assert_eq!(s.wire_errors_total(), 3);
        assert!(s.to_string().contains("wire errors: 3"), "{s}");

        let mut total = MetricsSnapshot::zero();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.wire_errors[WireErrorKind::Parse.index()], 4);
        assert_eq!(total.wire_errors_total(), 6);
    }

    #[test]
    fn kind_indices_are_the_wire_order() {
        // `index()` is the declaration position, and it is the kind byte
        // of cache keys and dense frames: reordering the enum must fail.
        let names = RequestKind::ALL.map(RequestKind::name);
        let wire = [
            "theorem2",
            "single-slot",
            "h-relation",
            "faults",
            "direct",
            "structured",
        ];
        assert_eq!(names, wire);
        for (i, kind) in RequestKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in RequestKind::ALL {
            assert_eq!(RequestKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(RequestKind::from_name("nope"), None);
    }
}
