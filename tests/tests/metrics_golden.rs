//! Golden renderings of one metrics snapshot: the Prometheus exposition,
//! the `stats` and `cache stats` replies, and the `Display` summary.
//!
//! Every counter, gauge, wire-error kind and per-kind histogram of the
//! snapshot has its own value, so a renderer that reads the wrong counter
//! changes the output. The expected text lives in `tests/golden/`; run
//! with `BLESS_GOLDEN=1` to rewrite it after a deliberate change, and
//! review the diff.

use std::path::PathBuf;

use pops_service::{
    exposition, proto, Counter, Gauge, MetricsSnapshot, RequestKind, RouterStats, ServiceMetrics,
    WireErrorKind,
};

fn times(n: u64, mut record: impl FnMut()) {
    for _ in 0..n {
        record();
    }
}

/// A snapshot whose values all derive from `base`, so the aggregate and
/// the two topologies differ from one another too.
fn snapshot(base: u64) -> MetricsSnapshot {
    let m = ServiceMetrics::new();
    for (k, kind) in (0u64..).zip(RequestKind::ALL) {
        // Hits land in low buckets, misses in high ones; the misses of
        // the last kinds overflow the top finite bucket.
        times(base * (k + 1), || {
            m.record_hit(kind, 4u64.pow(k as u32) * base)
        });
        times(base * (k + 1) + 1, || {
            m.record_miss(kind, 2, 1000 * 8u64.pow(k as u32) * base)
        });
        times(k + 3, || m.record_error(kind));
    }
    let v = |i: u64| 100 * base + i;
    m.add(Counter::PhaseHits, v(2));
    m.add(Counter::PhaseMisses, v(3));
    m.add(Counter::PoolFast, v(6));
    m.add(Counter::PoolOverflows, v(7));
    m.add(Counter::PoolBlocked, v(8));
    m.add(Counter::AdmissionWaits, v(9));
    times(v(10), || m.record_batch(2, 3));
    m.add(Counter::ConnsOpened, v(12) + 400);
    m.add(Counter::ConnsClosed, v(13));
    m.add(Counter::ConnsRejected, v(14));
    m.add(Counter::OversizedLines, v(15));
    m.add(Counter::ReadTimeouts, v(16));
    m.add(Counter::ShedsWatermark, v(17));
    m.add(Counter::ShedsQuota, v(18));
    m.add(Counter::SlowTraces, v(19));
    m.add(Counter::SlowTracesSuppressed, v(20));
    m.add(Counter::ConnsBinary, v(21));
    m.record_wire_bytes(false, v(22), v(23));
    m.record_wire_bytes(true, v(24), v(25));
    m.add(Counter::DegradedPlans, v(26));
    m.add(Counter::DegradedHits, v(27));
    m.add(Counter::UnroutableRefusals, v(28));
    for (j, kind) in (1u64..).zip(WireErrorKind::ALL) {
        times(10 * base + j, || m.record_wire_error(kind));
    }
    let mut snap = m.snapshot();
    snap.set_gauge(Gauge::ArenaBytes, 10_000 * base + 29);
    snap.set_gauge(Gauge::CacheEntries, v(30));
    snap.set_gauge(Gauge::CacheCapacity, 1000 * base + 31);
    snap.set_gauge(Gauge::PhaseCacheEntries, v(32));
    snap.set_gauge(Gauge::PhaseCacheCapacity, 1000 * base + 33);
    snap
}

struct Fixture {
    aggregate: MetricsSnapshot,
    topologies: Vec<(usize, usize, MetricsSnapshot)>,
    router: RouterStats,
}

fn fixture() -> Fixture {
    Fixture {
        aggregate: snapshot(1),
        topologies: vec![(2, 8, snapshot(2)), (4, 4, snapshot(3))],
        router: RouterStats {
            hits: 41,
            built: 43,
            evictions: 47,
            rejections: 53,
        },
    }
}

/// Compares `actual` with the golden file `name`, or rewrites the file
/// when `BLESS_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "golden", name]
        .iter()
        .collect();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with BLESS_GOLDEN=1)", path.display()));
    if expected == actual {
        return;
    }
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or(expected.lines().count().min(actual.lines().count()));
    panic!(
        "{name} differs from its golden file at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         ({} golden lines, {} actual lines)",
        first + 1,
        expected.lines().nth(first),
        actual.lines().nth(first),
        expected.lines().count(),
        actual.lines().count(),
    );
}

#[test]
fn exposition_matches_golden() {
    let f = fixture();
    let text = exposition::render(&exposition::Exposition {
        aggregate: &f.aggregate,
        topologies: &f.topologies,
        router: &f.router,
        version: "1.2.3",
        uptime_secs: 42,
    });
    check_golden("metrics.prom", &text);
}

#[test]
fn stats_reply_matches_golden() {
    let f = fixture();
    let reply = proto::stats_response(&f.aggregate, &f.topologies, &f.router);
    check_golden("stats.json", &format!("{reply}\n"));
}

#[test]
fn cache_stats_reply_matches_golden() {
    let f = fixture();
    let reply = proto::cache_stats_response(&f.aggregate);
    check_golden("cache_stats.json", &format!("{reply}\n"));
}

#[test]
fn display_summary_matches_golden() {
    let f = fixture();
    check_golden("display.txt", &f.aggregate.to_string());
}
