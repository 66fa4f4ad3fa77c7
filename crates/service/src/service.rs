//! The routing service front door: admission → cache L1/L2 → pool →
//! metrics.
//!
//! A [`RoutingService`] serves Mei–Rizzi routing for **one** topology as a
//! shared, thread-safe facility:
//!
//! 1. the **admission gate** bounds in-flight requests (excess callers
//!    queue on a condvar rather than piling onto the engine shards);
//! 2. the **two-level plan cache** ([`crate::cache`]) answers repeated
//!    requests with an `Arc` clone of the previously computed outcome
//!    (level 1, whole-request keys) and assembles h-relations from cached
//!    per-phase Theorem-2 plans (level 2, completed-permutation keys) —
//!    both levels sharded so concurrent hits never serialize on one lock;
//! 3. misses run on the **engine pool** ([`crate::pool`]) of warm,
//!    zero-allocation engines;
//! 4. every step feeds the [`ServiceMetrics`] registry, and both cache
//!    levels can be spilled to and restored from disk ([`crate::persist`])
//!    so a restarted server starts warm.
//!
//! ```
//! use pops_permutation::families::vector_reversal;
//! use pops_network::PopsTopology;
//! use pops_service::{RoutingService, ServiceRequest};
//!
//! let service = RoutingService::new(PopsTopology::new(4, 4));
//! let req = ServiceRequest::Theorem2 { pi: vector_reversal(16) };
//! let first = service.route(&req).unwrap();
//! let again = service.route(&req).unwrap();
//! assert_eq!(first.outcome.schedule().slot_count(), 2);
//! assert!(!first.cache_hit && again.cache_hit);
//! ```

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use pops_bipartite::ColorerKind;
use pops_core::{
    BatchRouter, FaultRoutingError, HRelation, HRelationRouting, Router, RoutingError,
    RoutingOutcome, RoutingPlan, RoutingRequest,
};
use pops_network::{FaultSet, PopsTopology, UNREACHABLE};
use pops_permutation::{PartialPermutation, Permutation};

use crate::cache::{canonical_key, phase_key, CacheKey, CachedOutcome, ShardedPlanCache};
use crate::metrics::{Counter, Gauge, MetricsSnapshot, RequestKind, ServiceMetrics};
use crate::persist::{self, PersistSummary};
use crate::pool::EnginePool;

/// An owned routing query — the service-boundary mirror of the borrowing
/// [`RoutingRequest`].
#[derive(Debug, Clone)]
pub enum ServiceRequest {
    /// Route an arbitrary permutation with the Theorem-2 construction.
    Theorem2 {
        /// The permutation to route.
        pi: Permutation,
    },
    /// Route in a single slot if the demand condition holds.
    SingleSlot {
        /// The permutation to route.
        pi: Permutation,
    },
    /// Route an h-relation by König decomposition.
    HRelation {
        /// The relation to route.
        relation: HRelation,
    },
    /// Route a permutation around failed couplers.
    WithFaults {
        /// The permutation to route.
        pi: Permutation,
        /// The failed couplers.
        faults: FaultSet,
    },
    /// The direct single-hop baseline.
    Direct {
        /// The permutation to route.
        pi: Permutation,
    },
    /// The structured (Sahni-style) baseline.
    Structured {
        /// The permutation to route.
        pi: Permutation,
    },
}

impl ServiceRequest {
    /// The request's metrics kind.
    pub fn kind(&self) -> RequestKind {
        match self {
            ServiceRequest::Theorem2 { .. } => RequestKind::Theorem2,
            ServiceRequest::SingleSlot { .. } => RequestKind::SingleSlot,
            ServiceRequest::HRelation { .. } => RequestKind::HRelation,
            ServiceRequest::WithFaults { .. } => RequestKind::WithFaults,
            ServiceRequest::Direct { .. } => RequestKind::Direct,
            ServiceRequest::Structured { .. } => RequestKind::Structured,
        }
    }

    /// The borrowing engine request this owns.
    fn as_routing_request(&self) -> RoutingRequest<'_> {
        match self {
            ServiceRequest::Theorem2 { pi } => RoutingRequest::Theorem2 { pi },
            ServiceRequest::SingleSlot { pi } => RoutingRequest::SingleSlot { pi },
            ServiceRequest::HRelation { relation } => RoutingRequest::HRelation { relation },
            ServiceRequest::WithFaults { pi, faults } => RoutingRequest::WithFaults { pi, faults },
            ServiceRequest::Direct { pi } => RoutingRequest::DirectBaseline { pi },
            ServiceRequest::Structured { pi } => RoutingRequest::StructuredBaseline { pi },
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine-pool shards (default: available parallelism).
    pub shards: usize,
    /// Level-1 (whole-request) plan-cache capacity in entries; 0 disables
    /// that level.
    pub cache_capacity: usize,
    /// Level-2 (per-phase) cache capacity in entries; 0 disables phase
    /// caching (h-relations are still assembled phase by phase, every
    /// phase a miss).
    pub phase_cache_capacity: usize,
    /// Lock shards per cache level (clamped to the level's capacity). One
    /// mutex per shard: the single-lock LRU was the documented throughput
    /// ceiling above ~10⁶ hits/sec.
    pub cache_shards: usize,
    /// Maximum requests in flight; excess callers wait at the admission
    /// gate.
    pub max_in_flight: usize,
    /// Ignored: every engine plans with the one bitset edge-colouring
    /// kernel. The field stays only because the benchmark daemon spells
    /// out this struct in full; the benchmark change that stops naming it
    /// (ROADMAP P0) deletes it.
    pub colorer: ColorerKind,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
        Self {
            shards,
            cache_capacity: 1024,
            phase_cache_capacity: 1024,
            cache_shards: shards.next_power_of_two(),
            max_in_flight: 4 * shards,
            colorer: ColorerKind::AlternatingPath,
        }
    }
}

/// The plan a [`ServiceReply`] carries: the cache entry, shared with the
/// cache and every other caller holding the same plan, plus the plan as a
/// [`RoutingOutcome`], decoded from that entry on first use. A miss
/// decodes on demand exactly as a hit does: a `theorem2` or h-relation
/// miss plans straight into its entry and builds no schedule, and every
/// other miss encodes its plan into the entry. Dereferences to the
/// outcome, so `reply.outcome.schedule()` reads the schedule either way;
/// a dense wire reply reads [`ReplyOutcome::cached`] and never decodes.
///
/// The outcome is a [`RoutingOutcome::Schedule`], with one exception: an
/// h-relation miss keeps the König phases it was assembled from, and
/// decodes as a [`RoutingOutcome::HRelation`].
#[derive(Debug, Clone)]
pub struct ReplyOutcome {
    cached: CachedOutcome,
    /// An h-relation miss's phases, and the slots each phase takes.
    phases: Option<(Vec<PartialPermutation>, usize)>,
    decoded: OnceLock<RoutingOutcome>,
}

impl ReplyOutcome {
    /// An outcome decoded from `cached` when first read.
    fn new(cached: CachedOutcome) -> Self {
        Self {
            cached,
            phases: None,
            decoded: OnceLock::new(),
        }
    }

    /// The cached plan: the schedule's dense encoding and slot count.
    pub fn cached(&self) -> &CachedOutcome {
        &self.cached
    }

    /// Slots in the schedule, read without decoding it.
    pub(crate) fn slot_count(&self) -> usize {
        self.cached.slot_count()
    }

    /// Whether the outcome has been decoded.
    #[cfg(test)]
    pub(crate) fn is_decoded(&self) -> bool {
        self.decoded.get().is_some()
    }
}

impl std::ops::Deref for ReplyOutcome {
    type Target = RoutingOutcome;

    fn deref(&self) -> &RoutingOutcome {
        self.decoded.get_or_init(|| {
            let schedule = self.cached.decode();
            match &self.phases {
                Some((phases, slots_per_phase)) => RoutingOutcome::HRelation(HRelationRouting {
                    phases: phases.clone(),
                    schedule,
                    slots_per_phase: *slots_per_phase,
                }),
                None => RoutingOutcome::Schedule(schedule),
            }
        })
    }
}

/// What [`RoutingService::route`] hands back.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// The plan: its cache entry, and the routing outcome decoded on
    /// demand (see [`ReplyOutcome`]).
    pub outcome: ReplyOutcome,
    /// Whether the plan came from the level-1 cache.
    pub cache_hit: bool,
    /// For h-relation requests assembled on a level-1 miss: how many of
    /// the relation's phases were answered by the level-2 phase cache
    /// (0 for every other kind and for level-1 hits).
    pub phase_hits: u64,
    /// Whether the plan was produced by the greedy fault router under a
    /// **non-empty** fault set — the degraded fallback to the Theorem-2
    /// construction. Cache hits report the flag of the request that is
    /// being answered, so a degraded repeat stays visibly degraded.
    pub degraded: bool,
    /// Wall-clock service time in microseconds.
    pub micros: u64,
}

/// The admission gate: a counting semaphore on `Mutex<usize>` + `Condvar`.
#[derive(Debug)]
struct Admission {
    max: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    fn new(max: usize) -> Self {
        Self {
            max: max.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    fn acquire<'a>(&'a self, metrics: &ServiceMetrics) -> AdmissionGuard<'a> {
        let mut count = self
            .in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if *count >= self.max {
            metrics.add(Counter::AdmissionWaits, 1);
            while *count >= self.max {
                count = self
                    .freed
                    .wait(count)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        *count += 1;
        AdmissionGuard(self)
    }
}

struct AdmissionGuard<'a>(&'a Admission);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let mut count = self
            .0
            .in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *count -= 1;
        drop(count);
        self.0.freed.notify_one();
    }
}

/// The concurrent routing service. See the [module docs](self).
///
/// ```
/// use pops_permutation::families::vector_reversal;
/// use pops_network::PopsTopology;
/// use pops_service::{RoutingService, ServiceRequest};
///
/// let service = RoutingService::new(PopsTopology::new(4, 4));
/// let req = ServiceRequest::Theorem2 { pi: vector_reversal(16) };
/// assert!(!service.route(&req).unwrap().cache_hit); // computed
/// assert!(service.route(&req).unwrap().cache_hit); // level-1 hit
/// ```
#[derive(Debug)]
pub struct RoutingService {
    topology: PopsTopology,
    pool: EnginePool,
    /// Level 1: whole-request canonical keys → shared outcomes.
    cache: ShardedPlanCache<CachedOutcome>,
    /// Level 2: completed-permutation phase keys → Theorem-2 plans. A
    /// `theorem2` entry shares its key and plan with level 1.
    phase_cache: ShardedPlanCache<CachedOutcome>,
    /// Persistent batch executor: worker engines warmed by the first
    /// batch op and reused by every later one, so repeated wire batches
    /// stay on the zero-allocation hot path. Batches serialize on this
    /// lock (each already occupies a whole admission slot).
    batch_router: Mutex<BatchRouter>,
    metrics: Arc<ServiceMetrics>,
    admission: Admission,
}

impl RoutingService {
    /// A service for `topology` with the default configuration.
    pub fn new(topology: PopsTopology) -> Self {
        Self::with_config(topology, ServiceConfig::default())
    }

    /// A service for `topology` with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn with_config(topology: PopsTopology, config: ServiceConfig) -> Self {
        let metrics = Arc::new(ServiceMetrics::new());
        Self {
            topology,
            pool: EnginePool::new(topology, config.shards, metrics.clone()),
            cache: ShardedPlanCache::new(config.cache_capacity, config.cache_shards),
            phase_cache: ShardedPlanCache::new(config.phase_cache_capacity, config.cache_shards),
            batch_router: Mutex::new(BatchRouter::new(topology)),
            metrics,
            admission: Admission::new(config.max_in_flight),
        }
    }

    /// The topology this service routes on.
    pub fn topology(&self) -> PopsTopology {
        self.topology
    }

    /// The pool's shard count.
    pub fn shard_count(&self) -> usize {
        self.pool.shard_count()
    }

    /// The level-1 cache capacity.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Level-1 entries currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// The level-2 (phase) cache capacity.
    pub fn phase_cache_capacity(&self) -> usize {
        self.phase_cache.capacity()
    }

    /// Level-2 (phase) entries currently cached.
    pub fn cached_phases(&self) -> usize {
        self.phase_cache.len()
    }

    /// Lock shards per cache level.
    pub fn cache_shard_count(&self) -> usize {
        self.cache.shard_count()
    }

    /// A snapshot of the metrics registry, with the service-level gauges
    /// (arena footprint, occupancy of both cache levels) filled in — the
    /// raw registry cannot see the pool or the caches.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.set_gauge(Gauge::ArenaBytes, self.arena_footprint() as u64);
        snap.set_gauge(Gauge::CacheEntries, self.cache.len() as u64);
        snap.set_gauge(Gauge::CacheCapacity, self.cache.capacity() as u64);
        snap.set_gauge(Gauge::PhaseCacheEntries, self.phase_cache.len() as u64);
        snap.set_gauge(
            Gauge::PhaseCacheCapacity,
            self.phase_cache.capacity() as u64,
        );
        snap
    }

    /// The live metrics registry (shared with the pool).
    pub fn metrics_registry(&self) -> Arc<ServiceMetrics> {
        self.metrics.clone()
    }

    /// Total engine-arena bytes across the pool.
    pub fn arena_footprint(&self) -> usize {
        self.pool.arena_footprint()
    }

    /// Sheds pool arena memory and drops every cached plan on both levels.
    pub fn reset(&self) {
        self.pool.reset_all();
        self.cache.clear();
        self.phase_cache.clear();
    }

    /// Routes one request through admission, the two cache levels, and the
    /// pool.
    ///
    /// Successful outcomes are cached under the request's canonical key
    /// (level 1); h-relation requests are additionally routed **phase by
    /// phase** so shared phases across different relations are answered by
    /// the level-2 cache, and `theorem2` misses populate level 2 too (a
    /// permutation routed once later serves as a cached phase). Errors are
    /// returned (and counted) but never cached, so a transient client
    /// mistake cannot poison the cache.
    pub fn route(&self, req: &ServiceRequest) -> Result<ServiceReply, RoutingError> {
        let _slot = self.admission.acquire(&self.metrics);
        let start = Instant::now();
        let kind = req.kind();
        let degraded =
            matches!(req, ServiceRequest::WithFaults { faults, .. } if !faults.is_empty());
        let key = canonical_key(self.topology.d(), self.topology.g(), req);

        if let Some(cached) = self.cache.get(&key) {
            let micros = start.elapsed().as_micros() as u64;
            self.metrics.record_hit(kind, micros);
            if degraded {
                self.metrics.add(Counter::DegradedHits, 1);
            }
            return Ok(ServiceReply {
                outcome: ReplyOutcome::new(cached),
                cache_hit: true,
                phase_hits: 0,
                degraded,
                micros,
            });
        }

        // Pre-flight for degraded requests: a fault set under which some
        // ordered group pair has no surviving path cannot route arbitrary
        // permutations — refuse it with a typed error before planning
        // instead of letting the greedy router fail (or worse, a bogus
        // partial schedule escape).
        if degraded {
            if let ServiceRequest::WithFaults { faults, .. } = req {
                if let Some((src_group, dst_group)) = disconnected_pair(faults, &self.topology) {
                    self.metrics.record_error(kind);
                    self.metrics.add(Counter::UnroutableRefusals, 1);
                    return Err(RoutingError::Fault(FaultRoutingError::Disconnected {
                        src_group,
                        dst_group,
                    }));
                }
            }
        }

        let planned = match req {
            ServiceRequest::Theorem2 { pi } => self
                .plan_encoded(pi)
                .map(|cached| (ReplyOutcome::new(cached), 0)),
            ServiceRequest::HRelation { relation } => self.assemble_h_relation(relation),
            _ => self
                .pool
                .with_engine(|engine| engine.plan(&req.as_routing_request()))
                .map(|outcome| {
                    (
                        ReplyOutcome::new(CachedOutcome::encode(outcome.schedule())),
                        0,
                    )
                }),
        };
        match planned {
            Ok((outcome, phase_hits)) => {
                let cached = outcome.cached();
                if matches!(req, ServiceRequest::Theorem2 { .. }) {
                    // The theorem2 canonical key IS the phase key of the
                    // same permutation (see `phase_key`), so the same plan
                    // under the same key also becomes a level-2 entry for
                    // future h-relation phases: two pointer clones.
                    self.phase_cache.insert(key.clone(), cached.clone());
                }
                self.cache.insert(key, cached.clone());
                let micros = start.elapsed().as_micros() as u64;
                self.metrics.record_miss(kind, cached.slot_count(), micros);
                if degraded {
                    self.metrics.add(Counter::DegradedPlans, 1);
                }
                Ok(ServiceReply {
                    outcome,
                    cache_hit: false,
                    phase_hits,
                    degraded,
                    micros,
                })
            }
            Err(e) => {
                self.metrics.record_error(kind);
                Err(e)
            }
        }
    }

    /// Plans `pi` by Theorem 2 on the pool, straight into the exact-size
    /// encoding that becomes its cache entry: no schedule is built and
    /// nothing is encoded.
    fn plan_encoded(&self, pi: &Permutation) -> Result<CachedOutcome, RoutingError> {
        let n = self.topology.n();
        if pi.len() != n {
            return Err(RoutingError::SizeMismatch {
                expected: n,
                got: pi.len(),
            });
        }
        let mut bytes = Vec::new();
        let slots = self
            .pool
            .with_engine(|engine| engine.plan_theorem2_into(pi, &mut bytes));
        Ok(CachedOutcome::written(slots, bytes))
    }

    /// Routes an h-relation by König decomposition with per-phase caching:
    /// each completed-permutation phase is looked up in the level-2 cache
    /// and only the missing phases are planned on the pool, each straight
    /// into its level-2 entry. The relation's entry is its phases' entries
    /// joined, so it is byte-identical to the encoded
    /// [`pops_core::RoutingEngine::plan_h_relation`] schedule: both routes plan
    /// phases with the same deterministic construction. Returns the
    /// outcome, carrying the phases, and how many phases were level-2
    /// hits.
    fn assemble_h_relation(
        &self,
        relation: &HRelation,
    ) -> Result<(ReplyOutcome, u64), RoutingError> {
        let t = self.topology;
        if relation.n() != t.n() {
            return Err(RoutingError::SizeMismatch {
                expected: t.n(),
                got: relation.n(),
            });
        }
        let phases = self
            .pool
            .with_engine(|engine| engine.decompose_h_relation(relation));
        let slots_per_phase = pops_core::theorem2_slots(t.d(), t.g());
        let mut phase_hits = 0u64;
        let mut blocks: Vec<CachedOutcome> = Vec::with_capacity(phases.len());
        for phase in &phases {
            let completed = phase.complete();
            let pkey = phase_key(t.d(), t.g(), &completed);
            let block = if let Some(cached) = self.phase_cache.get(&pkey) {
                self.metrics.add(Counter::PhaseHits, 1);
                phase_hits += 1;
                cached
            } else {
                let planned = self.plan_encoded(&completed)?;
                self.metrics.add(Counter::PhaseMisses, 1);
                // Skip the level-2 insert when level 2 is off.
                if self.phase_cache.capacity() > 0 {
                    self.phase_cache.insert(pkey, planned.clone());
                }
                planned
            };
            // `load_cache` refuses phase entries of any other length.
            debug_assert_eq!(block.slot_count(), slots_per_phase);
            blocks.push(block);
        }
        let outcome = ReplyOutcome {
            cached: CachedOutcome::join(&blocks),
            phases: Some((phases, slots_per_phase)),
            decoded: OnceLock::new(),
        };
        Ok((outcome, phase_hits))
    }

    /// Spills both cache levels to `path` in the stable
    /// [`crate::persist`] byte format. Each entry's encoded schedule is
    /// written as it is (a plan both levels share is written in each
    /// section). Entries are written least-recently-used first
    /// per shard, so a restore into the same shard layout reproduces each
    /// shard's recency ranking (and approximates it otherwise). The file
    /// is written to a unique temporary sibling and atomically renamed
    /// into place, so a crash mid-spill (or a concurrent save) can never
    /// leave a truncated file where a good one was.
    pub fn save_cache(&self, path: &Path) -> std::io::Result<PersistSummary> {
        let entries = |level: &ShardedPlanCache<CachedOutcome>| {
            let mut out: Vec<(CacheKey, CachedOutcome)> = Vec::new();
            level.for_each_lru(|key, cached| out.push((key.clone(), cached.clone())));
            out
        };
        let (l1, l2) = (entries(&self.cache), entries(&self.phase_cache));
        let (d, g) = (self.topology.d(), self.topology.g());
        let bytes = persist::write_cache_file(d, g, &encoded(&l1), &encoded(&l2));
        // Unique temp name per call: concurrent saves each write their own
        // file and the (atomic) renames serialize on the final path.
        static SPILL_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SPILL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let written: std::io::Result<()> = (|| {
            std::fs::write(&tmp, bytes)?;
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(PersistSummary {
            l1_entries: l1.len(),
            l2_entries: l2.len(),
        })
    }

    /// Restores both cache levels from a file written by
    /// [`RoutingService::save_cache`] for the **same topology**. Every
    /// schedule record is validated by the schedule reader and kept as
    /// the bytes it is, so a restored entry is the identical plan a miss
    /// would have cached. A key stored
    /// in both sections with the same schedule (a `theorem2` request and
    /// its own phase) is restored as one key and one plan shared by both
    /// levels, as [`RoutingService::route`] stores it; restored
    /// entries land in their capacity-bounded shards, so loading a file
    /// larger than the cache keeps (approximately, per shard) its
    /// most-recently-used tail. Decode failures — wrong magic, wrong
    /// topology, truncation, a checksum mismatch, or a phase entry whose
    /// slot count is not this topology's Theorem-2 cost — surface as
    /// [`std::io::ErrorKind::InvalidData`] without touching the cache.
    pub fn load_cache(&self, path: &Path) -> std::io::Result<PersistSummary> {
        let bytes = std::fs::read(path)?;
        let invalid =
            |e: persist::PersistError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let file = persist::read_cache_file(&bytes, self.topology.d(), self.topology.g())
            .map_err(invalid)?;
        // Phase entries feed the h-relation assembler, which (rightly)
        // asserts every block is a Theorem-2 schedule — refuse a file
        // that would plant a panic in the serving path.
        let expect_slots = pops_core::theorem2_slots(self.topology.d(), self.topology.g());
        if let Some(bad) = file.l2.iter().find(|record| record.slots != expect_slots) {
            return Err(invalid(persist::PersistError(format!(
                "phase entry has {} slots, topology needs {expect_slots}",
                bad.slots
            ))));
        }
        let summary = PersistSummary {
            l1_entries: file.l1.len(),
            l2_entries: file.l2.len(),
        };
        let mut restored: HashMap<CacheKey, CachedOutcome> = HashMap::with_capacity(file.l1.len());
        for record in file.l1 {
            let key = CacheKey::from(record.key);
            let cached = CachedOutcome::from_validated(record.slots, record.schedule);
            self.cache.insert(key.clone(), cached.clone());
            restored.insert(key, cached);
        }
        for record in file.l2 {
            let key = CacheKey::from(record.key);
            match restored.get_key_value(&key) {
                Some((shared, cached)) if cached.schedule_bytes() == record.schedule => {
                    self.phase_cache.insert(shared.clone(), cached.clone());
                }
                _ => self.phase_cache.insert(
                    key,
                    CachedOutcome::from_validated(record.slots, record.schedule),
                ),
            }
        }
        Ok(summary)
    }

    /// Routes a whole batch of permutations, bypassing the cache and
    /// fanning out over worker threads via the service's persistent
    /// [`BatchRouter`] (worker engines stay warm across batch ops). One
    /// batch occupies one admission slot. With `emit_artefacts = false`
    /// (the fast path) the plans carry schedules only — no per-plan
    /// artefact clones.
    pub fn route_batch(
        &self,
        batch: &[Permutation],
        threads: Option<NonZeroUsize>,
        emit_artefacts: bool,
    ) -> Vec<RoutingPlan> {
        let _slot = self.admission.acquire(&self.metrics);
        let mut router = self
            .batch_router
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        router.set_emit_artefacts(emit_artefacts);
        let plans = router.route_batch(batch, threads);
        drop(router);
        let slots: usize = plans.iter().map(|p| p.schedule.slot_count()).sum();
        self.metrics.record_batch(plans.len(), slots);
        plans
    }
}

/// Each spilled entry's key bytes with its encoded schedule.
fn encoded(entries: &[(CacheKey, CachedOutcome)]) -> Vec<persist::EncodedEntry<'_>> {
    entries
        .iter()
        .map(|(key, cached)| (key.as_bytes(), cached.schedule_bytes()))
        .collect()
}

/// The first ordered group pair that cannot communicate under `faults`
/// (either no path at all, or no *non-empty* path for intra-group
/// traffic), or `None` when the fabric is fully routable — the witness
/// behind [`FaultSet::fully_routable`], needed here because the typed
/// refusal names the severed pair.
fn disconnected_pair(faults: &FaultSet, topology: &PopsTopology) -> Option<(usize, usize)> {
    let dist = faults.group_distances(topology);
    let g = topology.g();
    (0..g)
        .flat_map(|a| (0..g).map(move |b| (a, b)))
        .find(|&(a, b)| {
            dist[a][b] == UNREACHABLE
                || faults.group_distance_ge1(topology, &dist, a, b) == UNREACHABLE
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_core::{theorem2_slots, RoutingEngine};
    use pops_network::{Schedule, Simulator};
    use pops_permutation::families::{random_permutation, vector_reversal};
    use pops_permutation::SplitMix64;

    fn small_service() -> RoutingService {
        RoutingService::with_config(
            PopsTopology::new(4, 4),
            ServiceConfig {
                shards: 2,
                cache_capacity: 8,
                max_in_flight: 4,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn cache_hits_share_the_same_plan() {
        let service = small_service();
        let req = ServiceRequest::Theorem2 {
            pi: vector_reversal(16),
        };
        let a = service.route(&req).unwrap();
        let b = service.route(&req).unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        assert!(
            a.outcome.cached().ptr_eq(b.outcome.cached()),
            "hits share one plan"
        );
        assert!(!a.outcome.is_decoded(), "a miss decodes only on demand");
        assert!(!b.outcome.is_decoded(), "a hit decodes only on demand");
        assert_eq!(b.outcome.schedule(), a.outcome.schedule());
        assert!(a.outcome.is_decoded() && b.outcome.is_decoded());
        let snap = service.metrics();
        assert_eq!((snap.get(Counter::Hits), snap.get(Counter::Misses)), (1, 1));
        assert_eq!(
            snap.get(Counter::SlotsEmitted),
            2,
            "only the miss emits slots"
        );
    }

    #[test]
    fn schedules_verify_on_the_simulator() {
        let service = small_service();
        let mut rng = SplitMix64::new(11);
        for _ in 0..6 {
            let pi = random_permutation(16, &mut rng);
            let reply = service
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .unwrap();
            let mut sim = Simulator::with_unit_packets(service.topology());
            sim.execute_schedule(reply.outcome.schedule()).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
        }
    }

    /// An h-relation made of `h` random full permutations.
    fn random_relation(n: usize, h: usize, rng: &mut SplitMix64) -> HRelation {
        let mut requests = Vec::with_capacity(n * h);
        for _ in 0..h {
            let p = random_permutation(n, rng);
            requests.extend((0..n).map(|s| (s, p.apply(s))));
        }
        HRelation::new(n, requests).unwrap()
    }

    /// Executes each phase block of `reply` on a fresh simulator and
    /// checks the phase's completed permutation is delivered — the referee
    /// for assembled-from-phases schedules. The phases are recomputed from
    /// `relation` (the decomposition is deterministic), so the check reads
    /// only the reply's schedule, as it would a hit's.
    fn verify_phases(service: &RoutingService, relation: &HRelation, reply: &ServiceReply) {
        let t = service.topology();
        let phases = RoutingEngine::new(t).decompose_h_relation(relation);
        let schedule = reply.outcome.schedule();
        let per_phase = theorem2_slots(t.d(), t.g());
        assert_eq!(schedule.slot_count(), phases.len() * per_phase);
        for (idx, phase) in phases.iter().enumerate() {
            let completed = phase.complete();
            let mut sim = Simulator::with_unit_packets(service.topology());
            for frame in &schedule.slots[idx * per_phase..(idx + 1) * per_phase] {
                sim.execute_frame(frame)
                    .unwrap_or_else(|e| panic!("phase {idx}: {e}"));
            }
            sim.verify_delivery(completed.as_slice())
                .unwrap_or_else(|e| panic!("phase {idx}: {e}"));
        }
    }

    #[test]
    fn h_relations_assemble_from_cached_phases() {
        let service = small_service();
        let mut rng = SplitMix64::new(21);
        let relation = random_relation(16, 3, &mut rng);

        // Cold: every phase is a level-2 miss; the assembled schedule
        // passes the simulator referee phase by phase.
        let cold = service
            .route(&ServiceRequest::HRelation {
                relation: relation.clone(),
            })
            .unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.phase_hits, 0);
        verify_phases(&service, &relation, &cold);
        let snap = service.metrics();
        assert_eq!(
            (snap.get(Counter::PhaseHits), snap.get(Counter::PhaseMisses)),
            (0, 3)
        );
        assert_eq!(service.cached_phases(), 3);

        // The identical relation (requests reshuffled) is a level-1 hit.
        let mut shuffled = relation.requests().to_vec();
        shuffled.reverse();
        let again = service
            .route(&ServiceRequest::HRelation {
                relation: HRelation::new(16, shuffled).unwrap(),
            })
            .unwrap();
        assert!(again.cache_hit);

        // A *fresh* relation whose phases are already cached: decompose it
        // up front (same deterministic kernel as the service), route its
        // completed phases as plain theorem2 requests, then route the
        // relation itself — its L1 key is new, but every phase hits L2.
        let fresh = random_relation(16, 2, &mut rng);
        let phases = RoutingEngine::new(service.topology()).decompose_h_relation(&fresh);
        for phase in &phases {
            service
                .route(&ServiceRequest::Theorem2 {
                    pi: phase.complete(),
                })
                .unwrap();
        }
        let reply = service
            .route(&ServiceRequest::HRelation {
                relation: fresh.clone(),
            })
            .unwrap();
        assert!(!reply.cache_hit, "different relation, different L1 key");
        assert_eq!(
            reply.phase_hits, 2,
            "every phase must be served from level 2"
        );
        verify_phases(&service, &fresh, &reply);
    }

    #[test]
    fn theorem2_requests_seed_the_phase_cache() {
        let service = small_service();
        let mut rng = SplitMix64::new(22);
        let pi = random_permutation(16, &mut rng);
        // Route the permutation as a plain request first...
        service
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .unwrap();
        assert_eq!(service.cached_phases(), 1, "theorem2 misses seed level 2");
        // ...then as a 1-relation: its single phase is exactly `pi`, so
        // the assembly is all level-2 hits.
        let relation = HRelation::new(16, (0..16).map(|s| (s, pi.apply(s))).collect()).unwrap();
        let reply = service
            .route(&ServiceRequest::HRelation {
                relation: relation.clone(),
            })
            .unwrap();
        assert!(!reply.cache_hit);
        assert_eq!(reply.phase_hits, 1, "the phase rides the theorem2 plan");
        verify_phases(&service, &relation, &reply);
    }

    #[test]
    fn assembled_schedules_match_the_engine_exactly() {
        // The per-phase cached assembly must be byte-identical to a bare
        // engine's plan_h_relation, hits and misses alike.
        let mut rng = SplitMix64::new(23);
        let service = small_service();
        let mut engine = RoutingEngine::new(service.topology());
        for h in [1usize, 2, 4] {
            let relation = random_relation(16, h, &mut rng);
            let reply = service
                .route(&ServiceRequest::HRelation {
                    relation: relation.clone(),
                })
                .unwrap();
            let direct = engine.plan_h_relation(&relation);
            assert_eq!(reply.outcome.schedule(), &direct.schedule, "h = {h}");
        }
    }

    #[test]
    fn cache_spills_and_restores_across_service_instances() {
        let dir = std::env::temp_dir().join(format!(
            "pops-cache-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = crate::persist::cache_file_path(&dir);

        let mut rng = SplitMix64::new(24);
        let pi = random_permutation(16, &mut rng);
        let relation = random_relation(16, 2, &mut rng);

        let first = small_service();
        first
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .unwrap();
        first
            .route(&ServiceRequest::HRelation {
                relation: relation.clone(),
            })
            .unwrap();
        let saved = first.save_cache(&path).unwrap();
        assert_eq!(saved.l1_entries, 2);
        assert_eq!(saved.l2_entries, 3, "1 theorem2-seeded + 2 relation phases");

        // A restarted server: loads the spill, first repeats are hits.
        let second = small_service();
        let loaded = second.load_cache(&path).unwrap();
        assert_eq!((loaded.l1_entries, loaded.l2_entries), (2, 3));
        let reply = second
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .unwrap();
        assert!(reply.cache_hit, "warm restart must hit on repeats");
        // The restored schedule still routes correctly.
        let mut sim = Simulator::with_unit_packets(second.topology());
        sim.execute_schedule(reply.outcome.schedule()).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        assert!(
            second
                .route(&ServiceRequest::HRelation { relation })
                .unwrap()
                .cache_hit
        );

        // Loading onto the wrong topology is refused.
        let wrong = RoutingService::with_config(
            PopsTopology::new(2, 8),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                ..ServiceConfig::default()
            },
        );
        let err = wrong.load_cache(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A service with an explicit shard layout, so no entry of these
    /// tests is evicted whatever the host's core count.
    fn two_shard_service() -> RoutingService {
        RoutingService::with_config(
            PopsTopology::new(4, 4),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                phase_cache_capacity: 8,
                cache_shards: 2,
                max_in_flight: 2,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn theorem2_miss_stores_one_plan_and_one_key_for_both_levels() {
        let service = two_shard_service();
        let req = ServiceRequest::Theorem2 {
            pi: vector_reversal(16),
        };
        let reply = service.route(&req).unwrap();
        let probe = canonical_key(4, 4, &req);
        let (l1_key, l1_plan) = service.cache.peek(&probe).unwrap();
        let (l2_key, l2_plan) = service.phase_cache.peek(&probe).unwrap();
        assert!(l1_plan.ptr_eq(&l2_plan), "one plan for both levels");
        assert!(l1_plan.ptr_eq(reply.outcome.cached()));
        assert!(l1_key.shares_bytes_with(&l2_key), "one key for both levels");
        assert!(!l1_key.shares_bytes_with(&probe));
        // The reply, the two levels and `l1_plan`/`l2_plan`: no other copy.
        assert_eq!(reply.outcome.cached().holders(), 5);
    }

    #[test]
    fn misses_write_their_entries_without_encoding() {
        let service = two_shard_service();
        let mut rng = SplitMix64::new(26);
        let encodes = || crate::frame::SCHEDULE_ENCODES.with(std::cell::Cell::get);
        let before = encodes();
        let pi = random_permutation(16, &mut rng);
        let theorem2 = service
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .unwrap();
        let relation = random_relation(16, 2, &mut rng);
        let assembled = service
            .route(&ServiceRequest::HRelation {
                relation: relation.clone(),
            })
            .unwrap();
        assert!(!theorem2.cache_hit && !assembled.cache_hit);
        assert_eq!(assembled.phase_hits, 0, "both phases are level-2 misses");
        assert_eq!(encodes(), before, "the engine writes every entry");

        // Each entry is its plan's encoding, byte for byte: the relation's
        // is its phases' plans joined under one slot count.
        let mut engine = RoutingEngine::new(service.topology());
        let encoded = |schedule: &Schedule| {
            let mut bytes = Vec::new();
            pops_network::codec::encode_schedule(&mut bytes, schedule);
            bytes
        };
        let expected = encoded(&engine.plan_theorem2(&pi).schedule);
        assert_eq!(theorem2.outcome.cached().schedule_bytes(), &expected[..]);
        let expected = encoded(&engine.plan_h_relation(&relation).schedule);
        assert_eq!(assembled.outcome.cached().schedule_bytes(), &expected[..]);
        assert_eq!(assembled.outcome.slot_count(), 2 * theorem2_slots(4, 4));

        // An h-relation miss decodes with the phases it was assembled from.
        let RoutingOutcome::HRelation(routing) = &*assembled.outcome else {
            panic!("an h-relation miss decodes as an h-relation outcome");
        };
        assert_eq!(routing.phases, engine.decompose_h_relation(&relation));
        assert_eq!(routing.slots_per_phase, theorem2_slots(4, 4));
        assert!(matches!(
            &*theorem2.outcome,
            RoutingOutcome::Schedule(schedule) if schedule.slot_count() == 2
        ));
    }

    /// A unique spill path under the system temp directory.
    fn spill_path(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "pops-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = crate::persist::cache_file_path(&dir);
        (dir, path)
    }

    #[test]
    fn warm_restart_keeps_plans_shared_and_spills_identical_bytes() {
        let (dir, path) = spill_path("cache-share");
        let mut rng = SplitMix64::new(25);
        let first = two_shard_service();
        let pi = random_permutation(16, &mut rng);
        let theorem2 = ServiceRequest::Theorem2 { pi: pi.clone() };
        first.route(&theorem2).unwrap();
        first
            .route(&ServiceRequest::HRelation {
                relation: random_relation(16, 2, &mut rng),
            })
            .unwrap();
        first
            .route(&ServiceRequest::Direct { pi: pi.clone() })
            .unwrap();
        first.save_cache(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();

        let second = two_shard_service();
        assert_eq!(
            second.load_cache(&path).unwrap(),
            PersistSummary {
                l1_entries: 3,
                l2_entries: 3
            }
        );
        let probe = canonical_key(4, 4, &theorem2);
        let (l1_key, l1_plan) = second.cache.peek(&probe).unwrap();
        let (l2_key, l2_plan) = second.phase_cache.peek(&probe).unwrap();
        assert!(l1_plan.ptr_eq(&l2_plan), "restored levels share the plan");
        assert!(l1_key.shares_bytes_with(&l2_key), "and the key");
        // Phases that are not also level-1 keys are restored on their own.
        let mut shared = 0;
        second.phase_cache.for_each_lru(|key, _| {
            shared += usize::from(second.cache.peek(key).is_some());
        });
        assert_eq!(shared, 1);

        second.save_cache(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), saved, "save → load → save");
        assert!(second.route(&theorem2).unwrap().cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_counted_not_cached() {
        let service = small_service();
        let req = ServiceRequest::SingleSlot {
            pi: vector_reversal(16), // concentrates demand: not single-slot
        };
        assert!(matches!(
            service.route(&req),
            Err(RoutingError::NotSingleSlotRoutable)
        ));
        assert!(matches!(
            service.route(&req),
            Err(RoutingError::NotSingleSlotRoutable)
        ));
        let snap = service.metrics();
        assert_eq!(snap.get(Counter::Errors), 2);
        assert_eq!(service.cached_plans(), 0);
    }

    #[test]
    fn size_mismatch_is_an_error_not_a_panic() {
        let service = small_service();
        let req = ServiceRequest::Theorem2 {
            pi: vector_reversal(6),
        };
        assert!(matches!(
            service.route(&req),
            Err(RoutingError::SizeMismatch {
                expected: 16,
                got: 6
            })
        ));
    }

    #[test]
    fn lru_capacity_bounds_the_cache() {
        let service = small_service(); // capacity 8
        let mut rng = SplitMix64::new(12);
        for _ in 0..20 {
            let pi = random_permutation(16, &mut rng);
            service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
        }
        assert_eq!(service.cached_plans(), 8);
    }

    #[test]
    fn batch_counts_metrics_and_matches_single_plans() {
        let service = small_service();
        let mut rng = SplitMix64::new(13);
        let perms: Vec<_> = (0..10).map(|_| random_permutation(16, &mut rng)).collect();
        let plans = service.route_batch(&perms, NonZeroUsize::new(3), false);
        assert_eq!(plans.len(), 10);
        for (pi, plan) in perms.iter().zip(&plans) {
            assert!(plan.fair_distribution.is_none(), "fast path: no artefacts");
            let reply = service
                .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
                .unwrap();
            assert_eq!(reply.outcome.schedule(), &plan.schedule);
        }
        let snap = service.metrics();
        assert_eq!(snap.get(Counter::Batches), 1);
        assert_eq!(snap.get(Counter::BatchPlans), 10);
    }

    #[test]
    fn reset_sheds_arenas_and_cache() {
        let service = small_service();
        service
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        assert!(service.arena_footprint() > 0);
        assert_eq!(service.cached_plans(), 1);
        service.reset();
        assert_eq!(service.arena_footprint(), 0);
        assert_eq!(service.cached_plans(), 0);
        // Still serves correctly afterwards.
        let reply = service
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        assert_eq!(reply.outcome.schedule().slot_count(), 2);
    }

    #[test]
    fn metrics_snapshot_carries_memory_gauges() {
        let service = small_service();
        let before = service.metrics();
        assert_eq!(before.gauge(Gauge::CacheEntries), 0);
        assert_eq!(before.gauge(Gauge::CacheCapacity), 8);
        service
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            })
            .unwrap();
        let after = service.metrics();
        assert!(
            after.gauge(Gauge::ArenaBytes) > 0,
            "warm engines hold arena memory"
        );
        assert_eq!(after.gauge(Gauge::CacheEntries), 1);
        let rendered = after.to_string();
        assert!(rendered.contains("plan cache: 1/8 entries"), "{rendered}");
    }

    #[test]
    fn all_request_kinds_route() {
        let service = RoutingService::with_config(
            PopsTopology::new(2, 3),
            ServiceConfig {
                shards: 1,
                cache_capacity: 16,
                max_in_flight: 2,
                ..ServiceConfig::default()
            },
        );
        let pi = vector_reversal(6);
        let t = service.topology();
        let reqs = [
            ServiceRequest::Theorem2 { pi: pi.clone() },
            ServiceRequest::HRelation {
                relation: HRelation::new(6, vec![(0, 1), (1, 0), (2, 5)]).unwrap(),
            },
            ServiceRequest::WithFaults {
                pi: pi.clone(),
                faults: FaultSet::none(&t),
            },
            ServiceRequest::Direct { pi: pi.clone() },
            ServiceRequest::Structured { pi: pi.clone() },
        ];
        for req in &reqs {
            let reply = service.route(req).unwrap();
            assert!(reply.outcome.schedule().slot_count() > 0);
            assert!(service.route(req).unwrap().cache_hit, "{:?}", req.kind());
        }
    }

    #[test]
    fn degraded_plans_are_flagged_and_keyed_apart_from_healthy() {
        let service = small_service();
        let t = service.topology();
        let pi = vector_reversal(16);

        let healthy = service
            .route(&ServiceRequest::Theorem2 { pi: pi.clone() })
            .unwrap();
        assert!(!healthy.degraded);

        let mut faults = FaultSet::none(&t);
        faults.fail_coupler(1);
        let req = ServiceRequest::WithFaults {
            pi: pi.clone(),
            faults: faults.clone(),
        };
        let degraded = service.route(&req).unwrap();
        assert!(degraded.degraded);
        assert!(!degraded.cache_hit, "same pi, different fault set: new key");
        assert_eq!(service.cached_plans(), 2, "healthy and degraded coexist");
        // The degraded schedule avoids the failed coupler and delivers.
        let mut sim = pops_network::Simulator::with_unit_packets_and_faults(t, faults);
        sim.execute_schedule(degraded.outcome.schedule()).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        // The repeat is a hit and stays flagged degraded.
        let again = service.route(&req).unwrap();
        assert!(again.cache_hit && again.degraded);

        // An empty fault set is greedy-but-healthy: not degraded.
        let empty = service
            .route(&ServiceRequest::WithFaults {
                pi,
                faults: FaultSet::none(&t),
            })
            .unwrap();
        assert!(!empty.degraded);

        let snap = service.metrics();
        assert_eq!(snap.get(Counter::DegradedPlans), 1);
        assert_eq!(snap.get(Counter::DegradedHits), 1);
    }

    #[test]
    fn unroutable_fault_set_is_a_typed_error_not_a_panic() {
        let service = RoutingService::with_config(
            PopsTopology::new(2, 3),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                ..ServiceConfig::default()
            },
        );
        let t = service.topology();
        // Sever every coupler into group 1: no permutation can route.
        let mut faults = FaultSet::none(&t);
        for src in 0..3 {
            faults.fail_group_pair(&t, 1, src);
        }
        assert!(!faults.fully_routable(&t));
        let err = service
            .route(&ServiceRequest::WithFaults {
                pi: vector_reversal(6),
                faults,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            RoutingError::Fault(FaultRoutingError::Disconnected { dst_group: 1, .. })
        ));
        assert_eq!(service.cached_plans(), 0, "refusals are never cached");
        assert_eq!(service.metrics().get(Counter::UnroutableRefusals), 1);
        // The service still serves healthy traffic afterwards.
        assert!(service
            .route(&ServiceRequest::Theorem2 {
                pi: vector_reversal(6),
            })
            .is_ok());
    }
}
