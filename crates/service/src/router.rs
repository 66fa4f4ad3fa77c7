//! The topology router: one daemon, many POPS(d, g) shapes.
//!
//! A [`RoutingService`] is pinned to **one** topology — its engine pool,
//! both cache levels, and its canonical keys are all shaped by `(d, g)`.
//! Fronting a heterogeneous cluster therefore used to mean one daemon per
//! shape. A [`TopologyRouter`] lifts that: it is a registry mapping
//! `(d, g)` to a lazily-constructed `RoutingService`, so the per-request
//! `d`/`g` fields of the wire protocol *select a backend* instead of
//! being validated against a single fixed shape.
//!
//! # Admission and eviction
//!
//! The registry is bounded by `max_topologies` (the `--max-topologies`
//! flag): a warm service holds real memory (warm engine arenas, two cache
//! levels), so without a bound a hostile client could mint services until
//! the process dies. Within the bound:
//!
//! * the **default** topology (the `--d`/`--g` the server was started
//!   with) and every **pre-warmed** topology (`--topology` flags) are
//!   *pinned* — never evicted;
//! * dynamically admitted topologies are evicted **least-recently-used**
//!   when a new shape needs their slot;
//! * when every slot is pinned, new shapes are refused with
//!   [`RouterError::AtCapacity`] — the wire's `topology-limit` error;
//! * shapes with `d == 0`, `g == 0`, or `n > max_n` are refused outright
//!   ([`RouterError::BadShape`]) before any allocation — and dynamic
//!   (non-operator) admissions additionally require `g² ≤ max_n`,
//!   because warming a service allocates O(g²) engine scratch and the
//!   `n` bound alone would let `d = 1, g = 2^20` order terabytes.
//!
//! Handed-out services are `Arc`s, so evicting a topology never yanks it
//! from under an in-flight request — the registry just drops its
//! reference and the service dies with its last holder.
//!
//! ```
//! use pops_network::PopsTopology;
//! use pops_service::{ServiceConfig, TopologyRouter, TopologyRouterConfig};
//!
//! let router = TopologyRouter::new(
//!     PopsTopology::new(4, 4),
//!     TopologyRouterConfig {
//!         service: ServiceConfig { shards: 1, ..ServiceConfig::default() },
//!         max_topologies: 2,
//!         ..TopologyRouterConfig::default()
//!     },
//! );
//! // The default shape is pinned and already registered.
//! assert_eq!(router.len(), 1);
//! // A new shape is admitted lazily...
//! let svc = router.get(2, 8).unwrap();
//! assert_eq!((svc.topology().d(), svc.topology().g()), (2, 8));
//! // ...and the same shape comes back as the same service.
//! assert!(std::sync::Arc::ptr_eq(&svc, &router.get(2, 8).unwrap()));
//! // A third shape evicts the cold POPS(2, 8), never the pinned default.
//! router.get(8, 2).unwrap();
//! assert_eq!(router.len(), 2);
//! assert!(router.peek(4, 4).is_some(), "default is pinned");
//! assert!(router.peek(2, 8).is_none(), "cold shape was evicted");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pops_network::PopsTopology;

use crate::metrics::MetricsSnapshot;
use crate::persist::{self, PersistSummary};
use crate::service::{RoutingService, ServiceConfig};

/// Tuning of a [`TopologyRouter`].
#[derive(Debug, Clone)]
pub struct TopologyRouterConfig {
    /// The template every lazily-constructed [`RoutingService`] is built
    /// from (shards, cache capacities, admission bound).
    pub service: ServiceConfig,
    /// Most topologies resident at once (pinned ones included). Dynamic
    /// topologies beyond this evict the least-recently-used unpinned one;
    /// when all slots are pinned, new shapes are refused.
    pub max_topologies: usize,
    /// Largest `n = d * g` a dynamically requested shape may have —
    /// refused before any allocation (a warm service for a huge bogus
    /// shape is the cheapest memory bomb a hostile client could order).
    pub max_n: usize,
}

impl Default for TopologyRouterConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            max_topologies: 8,
            // The same ceiling the CLI enforces for one-shot commands.
            max_n: 1 << 20,
        }
    }
}

/// Why a topology lookup was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The shape itself is unacceptable (zero dimension or `n > max_n`).
    BadShape(String),
    /// The registry is full and every resident topology is pinned.
    AtCapacity {
        /// The configured `max_topologies`.
        max: usize,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::BadShape(msg) => write!(f, "{msg}"),
            RouterError::AtCapacity { max } => write!(
                f,
                "server is at its topology capacity ({max} resident, all pinned); \
                 retry with a served shape or raise --max-topologies"
            ),
        }
    }
}

impl std::error::Error for RouterError {}

/// Plain-data counters of the router itself (the per-topology request
/// counters live in each service's own registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Lookups answered by an already-resident service.
    pub hits: u64,
    /// Services constructed on demand.
    pub built: u64,
    /// Unpinned topologies evicted to make room.
    pub evictions: u64,
    /// Lookups refused at capacity (all pinned).
    pub rejections: u64,
}

#[derive(Debug)]
struct Entry {
    service: Arc<RoutingService>,
    pinned: bool,
    /// Logical clock of the last `get` — the LRU rank.
    last_used: u64,
}

#[derive(Debug, Default)]
struct Registry {
    entries: HashMap<(usize, usize), Entry>,
    clock: u64,
}

/// The registry mapping `(d, g)` to a lazily-constructed
/// [`RoutingService`]. See the [module docs](self) for admission and
/// eviction semantics.
#[derive(Debug)]
pub struct TopologyRouter {
    default_topology: PopsTopology,
    config: TopologyRouterConfig,
    registry: Mutex<Registry>,
    /// Counters of evicted topologies, folded in at eviction time so
    /// fleet-wide aggregates stay monotonic (see
    /// [`TopologyRouter::retired_metrics`]).
    retired: Mutex<MetricsSnapshot>,
    hits: AtomicU64,
    built: AtomicU64,
    evictions: AtomicU64,
    rejections: AtomicU64,
}

impl TopologyRouter {
    /// A router whose pinned default topology is `default`, built (and
    /// every later service constructed) from `config.service`.
    ///
    /// # Panics
    ///
    /// Panics if the default shape itself violates `config` (zero
    /// dimension, `n > max_n`, or `max_topologies == 0`) — operator
    /// configuration errors, not client input.
    pub fn new(default: PopsTopology, config: TopologyRouterConfig) -> Self {
        let service = Arc::new(RoutingService::with_config(default, config.service.clone()));
        Self::from_service(service, config)
    }

    /// Wraps an already-constructed service as the pinned default — the
    /// compatibility path for callers that built their `RoutingService`
    /// directly (e.g. [`crate::server::serve_with_config`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TopologyRouter::new`].
    #[allow(clippy::expect_used)] // documented "# Panics" boot contract
    pub fn from_service(service: Arc<RoutingService>, config: TopologyRouterConfig) -> Self {
        assert!(config.max_topologies > 0, "need room for the default");
        let default = service.topology();
        Self::check_shape(default.d(), default.g(), config.max_n, true)
            // lint: allow(panic-freedom) -- documented "# Panics" contract: operator
            // config error at boot, before any connection is accepted
            .expect("default topology must satisfy the router's own limits");
        let mut registry = Registry::default();
        registry.entries.insert(
            (default.d(), default.g()),
            Entry {
                service,
                pinned: true,
                last_used: 0,
            },
        );
        Self {
            default_topology: default,
            config,
            registry: Mutex::new(registry),
            retired: Mutex::new(MetricsSnapshot::zero()),
            hits: AtomicU64::new(0),
            built: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        }
    }

    /// Shape admission control. `operator` lookups (the pinned default
    /// and `--topology` pre-warms) are bounded on `n = d·g` only; shapes
    /// admitted **dynamically** by remote requests are additionally
    /// bounded on the coupler count `g²`, because the engine scratch a
    /// service warms is O(g²) — without this, `d = 1, g = 2^20` passes
    /// the `n` bound while ordering a multi-terabyte allocation.
    fn check_shape(d: usize, g: usize, max_n: usize, operator: bool) -> Result<(), RouterError> {
        if d == 0 || g == 0 {
            return Err(RouterError::BadShape(
                "topology dimensions must be positive".into(),
            ));
        }
        if d.checked_mul(g).is_none_or(|n| n > max_n) {
            return Err(RouterError::BadShape(format!(
                "topology POPS({d}, {g}) exceeds the server's size limit (n > {max_n})"
            )));
        }
        if !operator && g.checked_mul(g).is_none_or(|couplers| couplers > max_n) {
            return Err(RouterError::BadShape(format!(
                "topology POPS({d}, {g}) exceeds the server's coupler limit (g\u{b2} > {max_n}); \
                 the operator can still pin it with --topology"
            )));
        }
        Ok(())
    }

    /// The topology requests fall back to when they carry no `d`/`g`.
    pub fn default_topology(&self) -> PopsTopology {
        self.default_topology
    }

    /// The service of the default topology (always resident — pinned).
    #[allow(clippy::expect_used)] // the pinned-entry invariant below
    pub fn default_service(&self) -> Arc<RoutingService> {
        self.peek(self.default_topology.d(), self.default_topology.g())
            // lint: allow(panic-freedom) -- the default entry is pinned at
            // construction and eviction never removes pinned entries
            .expect("the default topology is pinned")
    }

    /// Topologies currently resident.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no topology is resident (never true: the default is
    /// pinned at construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured residency bound.
    pub fn max_topologies(&self) -> usize {
        self.config.max_topologies
    }

    /// The router's own counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            hits: self.hits.load(Ordering::Relaxed),
            built: self.built.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        // A panic mid-plan poisons nothing structural here: registry ops are
        // short map edits, so recover the guard rather than cascade the panic.
        self.registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The resident service for `(d, g)` without admitting, constructing,
    /// or touching recency — `None` if the shape is not resident.
    pub fn peek(&self, d: usize, g: usize) -> Option<Arc<RoutingService>> {
        self.lock().entries.get(&(d, g)).map(|e| e.service.clone())
    }

    /// Every resident service with its topology, sorted by `(d, g)` —
    /// the stats and persistence paths iterate this.
    pub fn services(&self) -> Vec<(PopsTopology, Arc<RoutingService>)> {
        let registry = self.lock();
        let mut all: Vec<_> = registry
            .entries
            .iter()
            .map(|(&(d, g), entry)| (PopsTopology::new(d, g), entry.service.clone()))
            .collect();
        drop(registry);
        all.sort_by_key(|(t, _)| (t.d(), t.g()));
        all
    }

    /// Registers `(d, g)` as **pinned** (never evicted), constructing its
    /// service now — the pre-warm path behind repeated `--topology` flags.
    /// Pinning an already-resident shape upgrades it to pinned (the
    /// upgrade happens under the registry lock, so a pinned shape can
    /// never slip out through a concurrent eviction). Operator surface:
    /// not subject to the dynamic coupler bound.
    pub fn pin(&self, d: usize, g: usize) -> Result<Arc<RoutingService>, RouterError> {
        self.admit(d, g, true)
    }

    /// The service for `(d, g)`: resident → recency-bumped hit;
    /// otherwise constructed on demand, evicting the least-recently-used
    /// unpinned topology if the registry is full. Refuses bad shapes and
    /// all-pinned-full registries (see [`RouterError`]).
    pub fn get(&self, d: usize, g: usize) -> Result<Arc<RoutingService>, RouterError> {
        self.admit(d, g, false)
    }

    fn admit(&self, d: usize, g: usize, pin: bool) -> Result<Arc<RoutingService>, RouterError> {
        Self::check_shape(d, g, self.config.max_n, pin)?;
        {
            let mut registry = self.lock();
            registry.clock += 1;
            let now = registry.clock;
            if let Some(entry) = registry.entries.get_mut(&(d, g)) {
                entry.last_used = now;
                entry.pinned |= pin;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.service.clone());
            }
            // Hopeless admissions are refused BEFORE construction: on a
            // full registry with nothing evictable, building a service
            // just to throw it away would hand every rejected request a
            // free memory-and-CPU burn.
            if registry.entries.len() >= self.config.max_topologies
                && !registry.entries.values().any(|e| !e.pinned)
            {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                return Err(RouterError::AtCapacity {
                    max: self.config.max_topologies,
                });
            }
        }
        // Construction happens OUTSIDE the registry lock: warming a
        // service routes a full permutation per engine shard, and holding
        // the lock for that would let one client's churn of novel shapes
        // stall every other topology's lookups. Two racing requests for
        // the same new shape may both build; the loser's service is
        // simply dropped below.
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(d, g),
            self.config.service.clone(),
        ));
        let mut registry = self.lock();
        registry.clock += 1;
        let now = registry.clock;
        if let Some(entry) = registry.entries.get_mut(&(d, g)) {
            // Lost the build race: keep the resident service.
            entry.last_used = now;
            entry.pinned |= pin;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry.service.clone());
        }
        if registry.entries.len() >= self.config.max_topologies {
            let coldest = registry
                .entries
                .iter()
                .filter(|(_, e)| !e.pinned)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&shape, _)| shape);
            match coldest {
                Some(shape) => {
                    if let Some(evicted) = registry.entries.remove(&shape) {
                        self.retire(&evicted.service);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(RouterError::AtCapacity {
                        max: self.config.max_topologies,
                    });
                }
            }
        }
        self.built.fetch_add(1, Ordering::Relaxed);
        registry.entries.insert(
            (d, g),
            Entry {
                service: service.clone(),
                pinned: pin,
                last_used: now,
            },
        );
        Ok(service)
    }

    /// Folds an evicted service's request counters into the retired
    /// ledger so fleet-wide stats stay monotonic across evictions (a
    /// metrics poll must never see totals go *down* because a cold shape
    /// was dropped). Gauges are not carried over — the evicted arenas and
    /// cache entries are genuinely gone — so this reads the bare registry,
    /// whose snapshot has every gauge at 0.
    fn retire(&self, service: &RoutingService) {
        let snap = service.metrics_registry().snapshot();
        self.retired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .absorb(&snap);
    }

    /// The accumulated counters of every topology evicted so far.
    pub fn retired_metrics(&self) -> MetricsSnapshot {
        self.retired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Spills every resident topology's cache to its own file under `dir`
    /// ([`persist::topology_file_path`]). Returns what was written, in
    /// `(d, g)` order. Stops at the first I/O error.
    pub fn save_all(&self, dir: &Path) -> std::io::Result<Vec<(PopsTopology, PersistSummary)>> {
        let mut written = Vec::new();
        for (topology, service) in self.services() {
            let path = persist::topology_file_path(dir, topology.d(), topology.g());
            let summary = service.save_cache(&path)?;
            written.push((topology, summary));
        }
        Ok(written)
    }

    /// Restores caches from every `*.popscache` file in `dir` whose
    /// stamped topology is **already resident** (pinned defaults and
    /// pre-warms — a cache file alone never admits a topology, so a
    /// directory full of foreign files cannot occupy registry slots).
    ///
    /// Files for non-resident topologies, files whose header does not
    /// parse, and files that fail full validation at load are
    /// **skipped with a reason** instead of failing the boot: a stale or
    /// mixed `--cache-dir` must not turn the warm-start optimization into
    /// a startup outage. Only the directory listing itself can error.
    pub fn load_dir(&self, dir: &Path) -> std::io::Result<DirLoadReport> {
        let mut report = DirLoadReport::default();
        // At most one file restores per topology. The scan is file-name
        // sorted, so the canonical `plans-DxG.popscache` name wins over a
        // legacy `plans.popscache` stamped with the same shape ('-'
        // sorts before '.') — without this, an upgraded cache dir would
        // re-import the stale legacy entries on every boot.
        let mut restored: HashMap<(usize, usize), std::path::PathBuf> = HashMap::new();
        for (path, peeked) in persist::scan_cache_dir(dir)? {
            let (d, g) = match peeked {
                Ok(shape) => shape,
                Err(e) => {
                    report.skipped.push((path, e.to_string()));
                    continue;
                }
            };
            let Some(service) = self.peek(d, g) else {
                report.skipped.push((
                    path,
                    format!("stamped POPS({d}, {g}), which this server does not pin"),
                ));
                continue;
            };
            if let Some(first) = restored.get(&(d, g)) {
                report.skipped.push((
                    path,
                    format!(
                        "stamped POPS({d}, {g}), already restored from {} \
                         (stale duplicate — safe to delete)",
                        first.display()
                    ),
                ));
                continue;
            }
            match service.load_cache(&path) {
                Ok(summary) => {
                    restored.insert((d, g), path);
                    report.loaded.push((PopsTopology::new(d, g), summary));
                }
                Err(e) => report.skipped.push((path, e.to_string())),
            }
        }
        Ok(report)
    }
}

/// What [`TopologyRouter::load_dir`] restored and what it skipped.
#[derive(Debug, Default)]
pub struct DirLoadReport {
    /// Per-topology restore summaries, in scan order.
    pub loaded: Vec<(PopsTopology, PersistSummary)>,
    /// Files not restored, each with the human-readable reason.
    pub skipped: Vec<(std::path::PathBuf, String)>,
}

impl DirLoadReport {
    /// Total level-1 entries restored across topologies.
    pub fn l1_entries(&self) -> usize {
        self.loaded.iter().map(|(_, s)| s.l1_entries).sum()
    }

    /// Total level-2 entries restored across topologies.
    pub fn l2_entries(&self) -> usize {
        self.loaded.iter().map(|(_, s)| s.l2_entries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Gauge};
    use crate::service::ServiceRequest;
    use pops_permutation::families::vector_reversal;

    fn small_router(max_topologies: usize) -> TopologyRouter {
        TopologyRouter::new(
            PopsTopology::new(4, 4),
            TopologyRouterConfig {
                service: ServiceConfig {
                    shards: 1,
                    cache_capacity: 8,
                    max_in_flight: 2,
                    ..ServiceConfig::default()
                },
                max_topologies,
                ..TopologyRouterConfig::default()
            },
        )
    }

    #[test]
    fn default_topology_is_resident_and_pinned() {
        let router = small_router(2);
        assert_eq!(router.len(), 1);
        assert_eq!(router.default_topology().d(), 4);
        let svc = router.get(4, 4).unwrap();
        assert!(Arc::ptr_eq(&svc, &router.default_service()));
        assert_eq!(router.stats().hits, 1);
        assert_eq!(router.stats().built, 0, "default was built up front");
    }

    #[test]
    fn lazy_construction_and_identity() {
        let router = small_router(3);
        let a = router.get(2, 8).unwrap();
        let b = router.get(2, 8).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same shape, same service");
        assert_eq!(a.topology().n(), 16);
        assert_eq!(router.stats().built, 1);
        // The service actually routes.
        let reply = a
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        assert!(reply.outcome.schedule().slot_count() > 0);
    }

    #[test]
    fn lru_evicts_the_coldest_unpinned_topology() {
        let router = small_router(3);
        router.get(2, 8).unwrap(); // resident: 4x4*, 2x8
        router.get(8, 2).unwrap(); // resident: 4x4*, 2x8, 8x2 (full)
        router.get(2, 8).unwrap(); // bump 2x8 — 8x2 is now coldest
        router.get(3, 3).unwrap(); // evicts 8x2
        assert_eq!(router.len(), 3);
        assert!(router.peek(8, 2).is_none(), "coldest unpinned evicted");
        assert!(router.peek(2, 8).is_some());
        assert!(router.peek(4, 4).is_some(), "pinned default survives");
        assert_eq!(router.stats().evictions, 1);
    }

    #[test]
    fn eviction_never_invalidates_handed_out_services() {
        let router = small_router(2);
        let held = router.get(2, 8).unwrap();
        router.get(8, 2).unwrap(); // evicts 2x8 from the registry
        assert!(router.peek(2, 8).is_none());
        // The Arc we hold still serves.
        let reply = held
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        assert_eq!(reply.outcome.schedule().slot_count(), 2);
    }

    #[test]
    fn all_pinned_full_registry_refuses_new_shapes() {
        let router = small_router(2);
        router.pin(2, 8).unwrap();
        let err = router.get(8, 2).unwrap_err();
        assert_eq!(err, RouterError::AtCapacity { max: 2 });
        assert!(err.to_string().contains("--max-topologies"), "{err}");
        assert_eq!(router.stats().rejections, 1);
        // Pinned shapes still answer.
        router.get(2, 8).unwrap();
        router.get(4, 4).unwrap();
    }

    #[test]
    fn bad_shapes_are_refused_before_allocation() {
        let router = small_router(4);
        assert!(matches!(router.get(0, 4), Err(RouterError::BadShape(_))));
        assert!(matches!(
            router.get(1 << 12, 1 << 12),
            Err(RouterError::BadShape(_))
        ));
        assert!(matches!(
            router.get(usize::MAX, 2),
            Err(RouterError::BadShape(_))
        ));
        assert_eq!(router.len(), 1, "nothing was admitted");
    }

    #[test]
    fn dynamic_admissions_are_coupler_bounded_but_operators_may_pin() {
        // n = 2^16 passes the size bound, but g² = 2^32 would be the
        // engine-scratch allocation — refused for remote (dynamic)
        // admission, allowed for the operator pin surface.
        let router = TopologyRouter::new(
            PopsTopology::new(4, 4),
            TopologyRouterConfig {
                service: ServiceConfig {
                    shards: 1,
                    max_in_flight: 2,
                    ..ServiceConfig::default()
                },
                max_topologies: 4,
                max_n: 1 << 16,
            },
        );
        let err = router.get(1, 1 << 16).unwrap_err();
        assert!(matches!(err, RouterError::BadShape(_)));
        assert!(err.to_string().contains("coupler"), "{err}");
        assert_eq!(router.len(), 1, "nothing was admitted");
        // A modest-g shape with the same n is fine dynamically...
        router.get(1 << 8, 1 << 8).unwrap();
        // ...and the operator may pin a high-g shape explicitly (small
        // here so the test stays cheap).
        let small = small_router(3);
        small.pin(1, 32).unwrap();
        assert!(small.peek(1, 32).is_some());
    }

    #[test]
    fn eviction_retires_counters_into_the_ledger() {
        let router = small_router(2);
        let svc = router.get(2, 8).unwrap();
        svc.route(&ServiceRequest::Theorem2 {
            pi: vector_reversal(16),
        })
        .unwrap();
        svc.route(&ServiceRequest::Theorem2 {
            pi: vector_reversal(16),
        })
        .unwrap();
        drop(svc);
        assert_eq!(
            router.retired_metrics().requests(),
            0,
            "nothing retired yet"
        );
        router.get(8, 2).unwrap(); // evicts 2x8
        let retired = router.retired_metrics();
        assert_eq!(
            (retired.get(Counter::Hits), retired.get(Counter::Misses)),
            (1, 1),
            "history preserved"
        );
        assert_eq!(
            retired.gauge(Gauge::ArenaBytes),
            0,
            "gauges are zeroed: arenas are gone"
        );
        assert_eq!(retired.gauge(Gauge::CacheEntries), 0);
    }

    #[test]
    fn pinning_a_resident_shape_upgrades_it() {
        let router = small_router(2);
        router.get(2, 8).unwrap(); // dynamic
        router.pin(2, 8).unwrap(); // upgrade
        let err = router.get(8, 2).unwrap_err();
        assert!(matches!(err, RouterError::AtCapacity { .. }));
    }

    #[test]
    fn services_listing_is_sorted() {
        let router = small_router(4);
        router.get(8, 2).unwrap();
        router.get(2, 8).unwrap();
        let shapes: Vec<(usize, usize)> = router
            .services()
            .iter()
            .map(|(t, _)| (t.d(), t.g()))
            .collect();
        assert_eq!(shapes, vec![(2, 8), (4, 4), (8, 2)]);
    }

    #[test]
    fn save_all_and_load_dir_round_trip_per_topology() {
        let dir = std::env::temp_dir().join(format!(
            "pops-router-persist-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let router = small_router(3);
        router.pin(2, 8).unwrap();
        router
            .get(4, 4)
            .unwrap()
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        router
            .get(2, 8)
            .unwrap()
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        let written = router.save_all(&dir).unwrap();
        assert_eq!(written.len(), 2, "one file per resident topology");
        assert!(dir.join("plans-4x4.popscache").exists());
        assert!(dir.join("plans-2x8.popscache").exists());

        // A restarted router pinning the same shapes restores both.
        let restarted = small_router(3);
        restarted.pin(2, 8).unwrap();
        let report = restarted.load_dir(&dir).unwrap();
        assert_eq!(report.loaded.len(), 2);
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(report.l1_entries(), 2);
        for (d, g) in [(4usize, 4usize), (2, 8)] {
            let reply = restarted
                .get(d, g)
                .unwrap()
                .route(&ServiceRequest::Theorem2 {
                    pi: vector_reversal(16),
                })
                .unwrap();
            assert!(reply.cache_hit, "POPS({d}, {g}) must restart warm");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_warns_and_skips_foreign_and_corrupt_files() {
        // The bugfix this PR ships: a mixed --cache-dir (files for
        // topologies this server does not pin, plus outright garbage)
        // must boot warm on the matching files instead of failing.
        let dir = std::env::temp_dir().join(format!(
            "pops-router-mixed-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // A good file for the pinned default...
        let donor = small_router(2);
        donor
            .default_service()
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        donor.save_all(&dir).unwrap();
        // ...a file for a topology the restarting server will not pin...
        std::fs::write(
            dir.join(persist::topology_file_name(2, 8)),
            persist::encode_cache_file(2, 8, &[], &[]),
        )
        .unwrap();
        // ...outright garbage, and a good header with a corrupt body for
        // a shape the server *does* pin.
        std::fs::write(dir.join("junk.popscache"), b"not a cache").unwrap();
        let mut bitrot = persist::encode_cache_file(8, 2, &[], &[]);
        let last = bitrot.len() - 1;
        bitrot[last] ^= 0x55;
        std::fs::write(dir.join("bitrot-8x2.popscache"), bitrot).unwrap();
        // ...and a stale legacy single-file spill stamped with the SAME
        // shape as the per-topology 4x4 file — only one may restore (the
        // canonical name sorts first), or every boot would re-import the
        // stale entries over the fresh ones.
        std::fs::write(
            persist::cache_file_path(&dir),
            persist::encode_cache_file(4, 4, &[], &[]),
        )
        .unwrap();

        let router = small_router(3);
        router.pin(8, 2).unwrap();
        let report = router.load_dir(&dir).unwrap();
        assert_eq!(report.loaded.len(), 1, "{:?}", report.loaded);
        assert_eq!(report.loaded[0].0.d(), 4);
        assert_eq!(report.skipped.len(), 4, "{:?}", report.skipped);
        let reasons: String = report
            .skipped
            .iter()
            .map(|(p, r)| format!("{}: {r}\n", p.display()))
            .collect();
        assert!(reasons.contains("does not pin"), "{reasons}");
        assert!(
            reasons.contains("checksum") || reasons.contains("magic"),
            "{reasons}"
        );
        assert!(
            reasons.contains("already restored from"),
            "the duplicate-stamp legacy file must be skipped: {reasons}"
        );
        assert!(
            reasons.contains("plans-4x4.popscache"),
            "the canonical per-topology name must be the one that won: {reasons}"
        );
        // The matching file still warm-started the default.
        assert!(
            router
                .default_service()
                .route(&ServiceRequest::Theorem2 {
                    pi: vector_reversal(16),
                })
                .unwrap()
                .cache_hit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
