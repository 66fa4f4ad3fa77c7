//! Prometheus text exposition for the serving daemon.
//!
//! [`render`] turns the fleet-wide [`MetricsSnapshot`] (plus the
//! per-topology breakdown and the [`TopologyRouter`](crate::TopologyRouter)
//! registry counters) into the Prometheus text format, version 0.0.4:
//! every family is announced with `# HELP`/`# TYPE` lines, counters carry
//! the `_total` suffix, and the log₂ latency histograms become proper
//! cumulative-`le` histogram families. Metric names are part of the
//! operational contract — dashboards and alert rules reference them — so
//! treat renames like wire-protocol changes (see docs/OPERATIONS.md for
//! the full name table).
//!
//! Label conventions:
//!
//! - `kind="theorem2"` … — the request kind, on fleet request/latency
//!   families ([`RequestKind::name`](crate::RequestKind::name)).
//! - `topology="4x4"` — a resident `(d, g)` shape, on `pops_topology_*`
//!   families. Fleet totals intentionally live in *separate* families:
//!   per-topology series disappear when a shape is evicted, while the
//!   fleet families keep counting (the retired-topology ledger keeps them
//!   monotonic).
//! - `format="json"|"binary"` — the wire framing, on connection and byte
//!   counters.
//! - `error_kind="parse"|…|"overloaded"` — the typed wire-error kind on
//!   `pops_wire_errors_total` ([`WireErrorKind::name`]).
//! - `cause="watermark"|"quota"` — why overload control shed a request.
//!
//! The module also owns the minimal HTTP plumbing the server needs to
//! answer `GET /metrics` on its main listener or a `--metrics-port`
//! sidecar: [`http_request_path`] sniffs an HTTP request line apart from
//! the JSON/binary wire protocol, and [`http_ok`]/[`http_not_found`]
//! build complete `HTTP/1.0` close-delimited responses.

use std::fmt::Write as _;

use crate::metrics::{Counter, Gauge, KindSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use crate::proto::WireErrorKind;
use crate::router::RouterStats;
use Value::{Counter as C, Derived, Gauge as G};

/// The content type of the rendered exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The path the exposition is served under.
pub const METRICS_PATH: &str = "/metrics";

/// Everything [`render`] needs, borrowed from the server at scrape time.
#[derive(Debug)]
pub struct Exposition<'a> {
    /// The fleet-wide aggregate (every topology's registry absorbed, plus
    /// the retired-topology ledger and the connection layer) — the same
    /// snapshot the `stats` op reports at its top level.
    pub aggregate: &'a MetricsSnapshot,
    /// Per-resident-topology `(d, g, snapshot)` breakdown.
    pub topologies: &'a [(usize, usize, MetricsSnapshot)],
    /// Topology-registry counters.
    pub router: &'a RouterStats,
    /// The server's crate version, for `pops_build_info`.
    pub version: &'a str,
    /// Seconds since the server started, for `pops_uptime_seconds`.
    pub uptime_secs: u64,
}

/// Renders the full exposition document.
pub fn render(x: &Exposition<'_>) -> String {
    let mut out = String::with_capacity(8192);
    let snap = x.aggregate;

    family(
        &mut out,
        "pops_build_info",
        "gauge",
        "Constant 1, labelled with the server's crate version.",
    );
    sample(&mut out, "pops_build_info", &[("version", x.version)], 1);
    family(
        &mut out,
        "pops_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
    );
    sample(&mut out, "pops_uptime_seconds", &[], x.uptime_secs);

    let per_kind: [(&str, &str, KindValue); 2] = [
        (
            "pops_requests_total",
            "Single routing requests served, by request kind.",
            |k| k.requests,
        ),
        (
            "pops_request_errors_total",
            "Routing requests that returned an error, by request kind.",
            |k| k.errors,
        ),
    ];
    for (name, help, value) in per_kind {
        family(&mut out, name, "counter", help);
        for k in &snap.per_kind {
            sample(&mut out, name, &[("kind", k.kind.name())], value(k));
        }
    }
    family(
        &mut out,
        "pops_request_duration_microseconds",
        "histogram",
        "Service latency of single routing requests, by request kind.",
    );
    for k in &snap.per_kind {
        histogram(
            &mut out,
            "pops_request_duration_microseconds",
            &[("kind", k.kind.name())],
            &k.latency,
            k.total_micros,
        );
    }

    for f in FAMILIES {
        family(&mut out, f.name, scalar_type(f.name), f.help);
        match f.samples {
            Samples::Fixed(samples) => {
                for (labels, value) in samples {
                    sample(&mut out, f.name, labels, value.read(snap));
                }
            }
            Samples::WireErrors => {
                for (kind, count) in WireErrorKind::ALL.into_iter().zip(snap.wire_errors) {
                    sample(&mut out, f.name, &[("error_kind", kind.name())], count);
                }
            }
        }
    }

    let router = [
        (
            "pops_router_topologies",
            "Topologies currently resident in the registry.",
            x.topologies.len() as u64,
        ),
        (
            "pops_router_hits_total",
            "Registry lookups answered by an already-resident service.",
            x.router.hits,
        ),
        (
            "pops_router_built_total",
            "Services constructed on demand.",
            x.router.built,
        ),
        (
            "pops_router_evictions_total",
            "Unpinned topologies evicted to make room.",
            x.router.evictions,
        ),
        (
            "pops_router_rejections_total",
            "Registry lookups refused at capacity.",
            x.router.rejections,
        ),
    ];
    for (name, help, value) in router {
        family(&mut out, name, scalar_type(name), help);
        sample(&mut out, name, &[], value);
    }

    // Per-topology families. These cover *resident* shapes only — series
    // vanish on eviction, which is why fleet totals live in the separate
    // (monotonic) families above.
    let labels: Vec<String> = x
        .topologies
        .iter()
        .map(|(d, g, _)| topology_label(*d, *g))
        .collect();
    let per_topology = [
        (
            "pops_topology_requests_total",
            "Single requests served by a resident topology.",
            Derived(MetricsSnapshot::requests),
        ),
        (
            "pops_topology_errors_total",
            "Routing errors on a resident topology.",
            C(Counter::Errors),
        ),
        (
            "pops_topology_cache_hits_total",
            "Level-1 plan-cache hits on a resident topology.",
            C(Counter::Hits),
        ),
        (
            "pops_topology_arena_bytes",
            "Engine-arena bytes held by a resident topology's pool.",
            G(Gauge::ArenaBytes),
        ),
    ];
    for (name, help, value) in per_topology {
        family(&mut out, name, scalar_type(name), help);
        for ((_, _, s), label) in x.topologies.iter().zip(&labels) {
            sample(&mut out, name, &[("topology", label)], value.read(s));
        }
    }
    family(
        &mut out,
        "pops_topology_request_duration_microseconds",
        "histogram",
        "Service latency on a resident topology, all request kinds merged.",
    );
    for ((_, _, s), label) in x.topologies.iter().zip(&labels) {
        let mut merged = s.per_kind[0].clone();
        for k in &s.per_kind[1..] {
            merged.absorb(k);
        }
        histogram(
            &mut out,
            "pops_topology_request_duration_microseconds",
            &[("topology", label)],
            &merged.latency,
            merged.total_micros,
        );
    }

    out
}

/// Reads one per-kind value.
type KindValue = fn(&KindSnapshot) -> u64;

/// Where a table sample's value comes from.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// One counter of the snapshot.
    Counter(Counter),
    /// One gauge of the snapshot.
    Gauge(Gauge),
    /// A value computed from several counters.
    Derived(fn(&MetricsSnapshot) -> u64),
}

impl Value {
    fn read(self, snap: &MetricsSnapshot) -> u64 {
        match self {
            Value::Counter(counter) => snap.get(counter),
            Value::Gauge(gauge) => snap.gauge(gauge),
            Value::Derived(derive) => derive(snap),
        }
    }
}

/// Sample labels: `(key, value)` pairs.
type Labels = &'static [(&'static str, &'static str)];

/// The samples of one table family.
#[derive(Debug)]
enum Samples {
    /// A fixed list of samples, each with its labels and value.
    Fixed(&'static [(Labels, Value)]),
    /// One sample per [`WireErrorKind`], labelled `error_kind`.
    WireErrors,
}

/// One row of the family table: a fleet-wide family whose every sample
/// reads the aggregate snapshot.
#[derive(Debug)]
struct Family {
    name: &'static str,
    help: &'static str,
    samples: Samples,
}

/// The fleet-wide scalar families, in exposition order. Every [`Counter`]
/// and [`Gauge`] is the value of exactly one sample here, except
/// [`Counter::Errors`]: the page carries it per kind and per topology.
static FAMILIES: &[Family] = &[
    Family {
        name: "pops_cache_hits_total",
        help: "Plan-cache hits: level l1 is whole plans, l2 is h-relation phases.",
        samples: Samples::Fixed(&[
            (&[("level", "l1")], C(Counter::Hits)),
            (&[("level", "l2")], C(Counter::PhaseHits)),
        ]),
    },
    Family {
        name: "pops_cache_misses_total",
        help: "Plan-cache misses, by cache level.",
        samples: Samples::Fixed(&[
            (&[("level", "l1")], C(Counter::Misses)),
            (&[("level", "l2")], C(Counter::PhaseMisses)),
        ]),
    },
    Family {
        name: "pops_cache_entries",
        help: "Plans currently cached, by cache level.",
        samples: Samples::Fixed(&[
            (&[("level", "l1")], G(Gauge::CacheEntries)),
            (&[("level", "l2")], G(Gauge::PhaseCacheEntries)),
        ]),
    },
    Family {
        name: "pops_cache_capacity",
        help: "Plan-cache capacity, by cache level.",
        samples: Samples::Fixed(&[
            (&[("level", "l1")], G(Gauge::CacheCapacity)),
            (&[("level", "l2")], G(Gauge::PhaseCacheCapacity)),
        ]),
    },
    Family {
        name: "pops_slots_emitted_total",
        help: "Total slots across every schedule the service emitted.",
        samples: Samples::Fixed(&[(&[], C(Counter::SlotsEmitted))]),
    },
    Family {
        name: "pops_pool_acquisitions_total",
        help: "Engine-pool acquisitions, by outcome.",
        samples: Samples::Fixed(&[
            (&[("outcome", "fast")], C(Counter::PoolFast)),
            (&[("outcome", "overflow")], C(Counter::PoolOverflows)),
            (&[("outcome", "blocked")], C(Counter::PoolBlocked)),
        ]),
    },
    Family {
        name: "pops_admission_waits_total",
        help: "Requests that had to wait at the admission gate.",
        samples: Samples::Fixed(&[(&[], C(Counter::AdmissionWaits))]),
    },
    Family {
        name: "pops_batches_total",
        help: "Batch submissions.",
        samples: Samples::Fixed(&[(&[], C(Counter::Batches))]),
    },
    Family {
        name: "pops_batch_plans_total",
        help: "Plans produced by batch submissions.",
        samples: Samples::Fixed(&[(&[], C(Counter::BatchPlans))]),
    },
    Family {
        name: "pops_connections_opened_total",
        help: "Connections accepted and handed to a handler.",
        samples: Samples::Fixed(&[(&[], C(Counter::ConnsOpened))]),
    },
    Family {
        name: "pops_connections_closed_total",
        help: "Connections whose handler has exited.",
        samples: Samples::Fixed(&[(&[], C(Counter::ConnsClosed))]),
    },
    Family {
        name: "pops_connections_rejected_total",
        help: "Connections refused at the capacity limit.",
        samples: Samples::Fixed(&[(&[], C(Counter::ConnsRejected))]),
    },
    Family {
        name: "pops_connections_active",
        help: "Connections currently live.",
        samples: Samples::Fixed(&[(&[], Derived(MetricsSnapshot::active_connections))]),
    },
    Family {
        name: "pops_connections_format_total",
        help: "Connections by negotiated wire format (every connection starts \
               as json; binary counts successful hello negotiations).",
        samples: Samples::Fixed(&[
            (&[("format", "json")], Derived(MetricsSnapshot::json_connections)),
            (&[("format", "binary")], C(Counter::ConnsBinary)),
        ]),
    },
    Family {
        name: "pops_wire_bytes_total",
        help: "Wire traffic in bytes, by format and direction.",
        samples: Samples::Fixed(&[
            (&[("format", "json"), ("direction", "in")], C(Counter::JsonBytesIn)),
            (&[("format", "json"), ("direction", "out")], C(Counter::JsonBytesOut)),
            (&[("format", "binary"), ("direction", "in")], C(Counter::BinaryBytesIn)),
            (&[("format", "binary"), ("direction", "out")], C(Counter::BinaryBytesOut)),
        ]),
    },
    Family {
        name: "pops_oversized_lines_total",
        help: "Request lines rejected for exceeding the length cap.",
        samples: Samples::Fixed(&[(&[], C(Counter::OversizedLines))]),
    },
    Family {
        name: "pops_read_timeouts_total",
        help: "Connections dropped because a complete request never arrived in time.",
        samples: Samples::Fixed(&[(&[], C(Counter::ReadTimeouts))]),
    },
    Family {
        name: "pops_sheds_total",
        help: "Requests shed by overload control, by cause.",
        samples: Samples::Fixed(&[
            (&[("cause", "watermark")], C(Counter::ShedsWatermark)),
            (&[("cause", "quota")], C(Counter::ShedsQuota)),
        ]),
    },
    Family {
        name: "pops_slow_traces_total",
        help: "Slow-request trace lines, by whether the rate limiter let them through.",
        samples: Samples::Fixed(&[
            (&[("outcome", "emitted")], C(Counter::SlowTraces)),
            (&[("outcome", "suppressed")], C(Counter::SlowTracesSuppressed)),
        ]),
    },
    Family {
        name: "pops_wire_errors_total",
        help: "Typed error responses written on the wire, by error kind.",
        samples: Samples::WireErrors,
    },
    Family {
        name: "pops_degraded_plans_total",
        help: "Plans computed by the greedy fault router under a non-empty fault set.",
        samples: Samples::Fixed(&[(&[], C(Counter::DegradedPlans))]),
    },
    Family {
        name: "pops_degraded_hits_total",
        help: "Plan-cache hits answered from a degraded (fault-keyed) cache entry.",
        samples: Samples::Fixed(&[(&[], C(Counter::DegradedHits))]),
    },
    Family {
        name: "pops_unroutable_refusals_total",
        help: "Requests refused before planning because the fault set left the fabric not fully routable.",
        samples: Samples::Fixed(&[(&[], C(Counter::UnroutableRefusals))]),
    },
    Family {
        name: "pops_arena_bytes",
        help: "Engine-arena bytes across every resident topology's pool.",
        samples: Samples::Fixed(&[(&[], G(Gauge::ArenaBytes))]),
    },
];

/// The `topology` label value for a `(d, g)` shape: `"4x4"`.
pub fn topology_label(d: usize, g: usize) -> String {
    format!("{d}x{g}")
}

/// The Prometheus type of a scalar family, from the naming convention
/// the table follows: a counter's name ends in `_total`, and every other
/// scalar family is a gauge.
fn scalar_type(name: &str) -> &'static str {
    if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    }
}

/// Writes the `# HELP` / `# TYPE` header for one family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one sample line: `name{k="v",...} value`.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    write_labels(out, labels);
    let _ = writeln!(out, " {value}");
}

/// Renders one log₂ histogram as cumulative `le` buckets plus `_sum` and
/// `_count`. Latencies are recorded in integer microseconds, so bucket
/// `i` (counting `2^(i-1) ≤ µs < 2^i`) has the **exact** inclusive upper
/// bound `2^i - 1`; the rendered bounds are `0, 1, 3, 7, …`. The last
/// bucket also holds every clamped observation above its range, so it
/// has no finite bound: only `+Inf` counts it.
fn histogram(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    buckets: &[u64; HISTOGRAM_BUCKETS],
    sum_micros: u64,
) {
    let bucket = format!("{name}_bucket");
    let bucket_line = |out: &mut String, le: &str, cumulative| {
        let mut with_le = labels.to_vec();
        with_le.push(("le", le));
        sample(out, &bucket, &with_le, cumulative);
    };
    let (finite, overflow) = buckets.split_at(HISTOGRAM_BUCKETS - 1);
    let mut cumulative = 0u64;
    for (i, count) in finite.iter().enumerate() {
        cumulative += count;
        let le = (1u64 << i) - 1;
        bucket_line(out, &le.to_string(), cumulative);
    }
    cumulative += overflow.iter().sum::<u64>();
    bucket_line(out, "+Inf", cumulative);
    sample(out, &format!("{name}_sum"), labels, sum_micros);
    sample(out, &format!("{name}_count"), labels, cumulative);
}

fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// If `line` is an HTTP GET request line (`GET <path> HTTP/1.x`, or a
/// bare `GET <path>`), returns the path (query string stripped). The
/// server uses this to tell a scraper apart from a JSON/binary wire
/// client: no JSON request starts with `GET `, and in the binary framing
/// the bytes `GET ` would be an implausibly huge little-endian length.
pub fn http_request_path(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("GET ")?;
    let path = rest.split_whitespace().next()?;
    let path = path.split('?').next().unwrap_or(path);
    if path.starts_with('/') {
        Some(path)
    } else {
        None
    }
}

/// A complete `HTTP/1.0 200` response carrying `body` with the
/// exposition content type. `HTTP/1.0` deliberately: the connection
/// closes after the response, which every scraper handles.
pub fn http_ok(body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// A complete `HTTP/1.0 404` response for any other path.
pub fn http_not_found() -> Vec<u8> {
    let body = "not found; try /metrics\n";
    format!(
        "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use super::*;
    use crate::metrics::ServiceMetrics;
    use crate::RequestKind;

    fn demo_exposition() -> String {
        let m = ServiceMetrics::new();
        m.record_miss(RequestKind::Theorem2, 4, 100);
        m.record_hit(RequestKind::Theorem2, 3);
        m.record_hit(RequestKind::HRelation, 900);
        m.record_error(RequestKind::SingleSlot);
        m.add(Counter::ShedsWatermark, 1);
        m.add(Counter::ShedsQuota, 1);
        m.record_wire_error(WireErrorKind::Overloaded);
        m.record_wire_bytes(true, 10, 20);
        m.add(Counter::DegradedPlans, 1);
        m.add(Counter::DegradedHits, 1);
        m.add(Counter::DegradedHits, 1);
        m.add(Counter::UnroutableRefusals, 1);
        let aggregate = m.snapshot();
        let per_topology = vec![
            (4, 4, m.snapshot()),
            (2, 8, ServiceMetrics::new().snapshot()),
        ];
        let router = RouterStats {
            hits: 5,
            built: 2,
            evictions: 1,
            rejections: 0,
        };
        render(&Exposition {
            aggregate: &aggregate,
            topologies: &per_topology,
            router: &router,
            version: "1.2.3",
            uptime_secs: 42,
        })
    }

    /// Strips histogram sample suffixes to recover the family name.
    fn family_of(sample_name: &str) -> &str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = sample_name.strip_suffix(suffix) {
                return base;
            }
        }
        sample_name
    }

    #[test]
    fn every_sample_is_preceded_by_its_type_and_families_are_unique() {
        let text = demo_exposition();
        let mut declared = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(declared.insert(name.to_string()), "duplicate family {name}");
            } else if !line.starts_with('#') && !line.is_empty() {
                let name_end = line.find(['{', ' ']).unwrap();
                let fam = family_of(&line[..name_end]);
                assert!(declared.contains(fam), "sample before # TYPE: {line}");
            }
        }
        assert!(declared.len() > 20, "expected a rich exposition");
    }

    #[test]
    fn every_counter_and_gauge_is_exactly_one_sample() {
        // Each counter and gauge holds its own power of 3. No sum or
        // difference of two powers of 3 is a power of 3, so a derived
        // sample cannot pose as one of them.
        let value = |i: usize| 3u64.pow(i as u32 + 1);
        let m = ServiceMetrics::new();
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            m.add(counter, value(i));
        }
        let mut snap = m.snapshot();
        for (i, gauge) in Gauge::ALL.into_iter().enumerate() {
            snap.set_gauge(gauge, value(Counter::COUNT + i));
        }
        let text = render(&Exposition {
            aggregate: &snap,
            topologies: &[(1, 1, snap.clone())],
            router: &RouterStats::default(),
            version: "1.2.3",
            uptime_secs: 0,
        });
        let (topology, fleet): (Vec<&str>, Vec<&str>) = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .partition(|line| line.starts_with("pops_topology_"));
        let count = |lines: &[&str], v: u64| {
            let is_v = |line: &&&str| line.rsplit(' ').next() == Some(v.to_string().as_str());
            lines.iter().filter(is_v).count()
        };
        let names = Counter::ALL
            .map(|c| format!("{c:?}"))
            .into_iter()
            .chain(Gauge::ALL.map(|g| format!("Gauge::{g:?}")));
        for (i, name) in names.enumerate() {
            let samples = (count(&fleet, value(i)), count(&topology, value(i)));
            // The fleet-wide error count is on the page per kind
            // (`pops_request_errors_total`, fed by the same
            // `record_error`) and per topology, not as a family of its own.
            let expected = if name == "Errors" {
                (0, 1)
            } else {
                (1, samples.1)
            };
            assert_eq!(samples, expected, "{name}: (fleet, topology) samples");
        }
    }

    /// The backticked names in `cell` outside parentheses, each cut at
    /// its first `=`: the label keys of an OPERATIONS.md table row.
    fn documented_label_keys(cell: &str) -> BTreeSet<String> {
        let mut depth = 0;
        let outside: String = cell
            .chars()
            .filter(|&c| {
                match c {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                depth == 0 && c != ')'
            })
            .collect();
        outside
            .split('`')
            .skip(1)
            .step_by(2)
            .map(|name| name.split('=').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn operations_md_rows_match_rendered_types_and_labels() {
        let text = demo_exposition();
        let mut rendered: HashMap<&str, (&str, BTreeSet<String>)> = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap();
                rendered.insert(name, (kind, BTreeSet::new()));
            } else if !line.starts_with('#') {
                let name_end = line.find(['{', ' ']).unwrap();
                let keys = &mut rendered.get_mut(family_of(&line[..name_end])).unwrap().1;
                if let Some(labels) = line[name_end..].strip_prefix('{') {
                    let labels = &labels[..labels.find('}').unwrap()];
                    for pair in labels.split(',') {
                        let key = pair.split('=').next().unwrap();
                        if key != "le" {
                            keys.insert(key.to_string());
                        }
                    }
                }
            }
        }
        let doc = include_str!("../../../docs/OPERATIONS.md");
        let mut rows = 0;
        for row in doc.lines().filter(|l| l.starts_with("| `pops_")) {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let name = cells[1].trim_matches('`');
            let kind = cells[2].split([' ', ',']).next().unwrap();
            let (rendered_kind, rendered_keys) = rendered
                .get(name)
                .unwrap_or_else(|| panic!("{name} is documented but not rendered"));
            assert_eq!(kind, *rendered_kind, "type of {name}");
            assert_eq!(
                documented_label_keys(cells[3]),
                *rendered_keys,
                "label keys of {name}"
            );
            rows += 1;
        }
        assert_eq!(
            rows,
            rendered.len(),
            "one OPERATIONS.md row per rendered family"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = demo_exposition();
        let prefix = "pops_request_duration_microseconds_bucket{kind=\"theorem2\",";
        let mut last = 0u64;
        let mut saw_inf = false;
        for line in text.lines().filter(|l| l.starts_with(prefix)) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "buckets must be cumulative: {line}");
            last = value;
            if line.contains("le=\"+Inf\"") {
                saw_inf = true;
                assert_eq!(value, 2, "theorem2 saw two requests");
            }
        }
        assert!(saw_inf, "+Inf bucket present");
        assert!(
            text.contains("pops_request_duration_microseconds_count{kind=\"theorem2\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pops_request_duration_microseconds_sum{kind=\"theorem2\"} 103"),
            "{text}"
        );
    }

    #[test]
    fn labels_cover_topology_format_and_error_kind() {
        let text = demo_exposition();
        assert!(
            text.contains("pops_topology_requests_total{topology=\"4x4\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("pops_topology_requests_total{topology=\"2x8\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("pops_wire_bytes_total{format=\"binary\",direction=\"out\"} 20"),
            "{text}"
        );
        assert!(
            text.contains("pops_wire_errors_total{error_kind=\"overloaded\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pops_sheds_total{cause=\"watermark\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pops_sheds_total{cause=\"quota\"} 1"),
            "{text}"
        );
        assert!(text.contains("pops_degraded_plans_total 1"), "{text}");
        assert!(text.contains("pops_degraded_hits_total 2"), "{text}");
        assert!(text.contains("pops_unroutable_refusals_total 1"), "{text}");
        assert!(
            text.contains("pops_wire_errors_total{error_kind=\"unroutable\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("pops_topology_request_duration_microseconds_bucket{topology=\"4x4\",le=\"+Inf\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn build_info_and_uptime_are_present() {
        let text = demo_exposition();
        assert!(
            text.contains("pops_build_info{version=\"1.2.3\"} 1"),
            "{text}"
        );
        assert!(text.contains("pops_uptime_seconds 42"), "{text}");
        assert!(text.contains("pops_router_evictions_total 1"), "{text}");
        assert!(text.contains("pops_router_topologies 2"), "{text}");
    }

    #[test]
    fn the_overflow_bucket_has_no_finite_bound() {
        let h = crate::metrics::LatencyHistogram::default();
        h.record(u64::MAX);
        let mut out = String::new();
        histogram(&mut out, "h", &[], &h.snapshot(), 0);
        for line in out.lines().filter(|l| l.starts_with("h_bucket")) {
            let count = line.rsplit(' ').next().unwrap();
            let expected = if line.contains("le=\"+Inf\"") {
                "1"
            } else {
                "0"
            };
            assert_eq!(count, expected, "{line}");
        }
        assert!(!out.contains("le=\"8388607\""), "{out}");
        assert!(out.contains("h_count 1"), "{out}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn http_request_lines_are_recognised() {
        assert_eq!(http_request_path("GET /metrics HTTP/1.1"), Some("/metrics"));
        assert_eq!(
            http_request_path("GET /metrics?x=1 HTTP/1.0"),
            Some("/metrics")
        );
        assert_eq!(http_request_path("GET /other"), Some("/other"));
        assert_eq!(http_request_path("{\"op\":\"ping\"}"), None);
        assert_eq!(http_request_path("GET metrics"), None);
    }

    #[test]
    fn http_responses_are_complete() {
        let ok = http_ok("hello\n");
        let text = String::from_utf8(ok).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4"),
            "{text}"
        );
        assert!(text.contains("Content-Length: 6\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello\n"), "{text}");
        let nf = String::from_utf8(http_not_found()).unwrap();
        assert!(nf.starts_with("HTTP/1.0 404"), "{nf}");
    }
}
