//! The unified **routing engine**: every routing entry point of this
//! reproduction behind one trait, with reusable scratch arenas so that
//! repeated routing on one topology performs no per-call heap allocation
//! on the coloring/fair-distribution hot path.
//!
//! # Why an engine
//!
//! The free functions ([`crate::router::route`],
//! [`crate::single_slot::route_single_slot`],
//! [`crate::h_relation::route_h_relation`],
//! [`crate::fault_routing::route_with_faults`], and the two baselines in
//! `pops-baselines`) each rebuild their working state — the routing list
//! system, the Theorem-1 demand multigraph, its padding, the edge-colouring
//! tables, the fair-distribution arrays — on every call. For one-off
//! queries that is fine; for production-shaped workloads ("one topology,
//! millions of permutations") it is pure allocator churn. A
//! [`RoutingEngine`] owns one [`PopsTopology`] plus all of that state as
//! flat preallocated arenas, sized once, reused forever:
//!
//! ```
//! use pops_core::engine::{Router, RoutingEngine, RoutingRequest};
//! use pops_network::PopsTopology;
//! use pops_permutation::families::vector_reversal;
//!
//! let mut engine = RoutingEngine::new(PopsTopology::new(4, 4));
//! let pi = vector_reversal(16);
//! // First call warms the arenas; subsequent plans reuse them.
//! for _ in 0..3 {
//!     let outcome = engine.plan(&RoutingRequest::Theorem2 { pi: &pi }).unwrap();
//!     assert_eq!(outcome.schedule().slot_count(), 2);
//! }
//! ```
//!
//! # The zero-allocation hot path
//!
//! With the default [`ColorerKind::AlternatingPath`] colourer the entire
//! Theorem-2 construction — list system, Theorem-1 padding, proper edge
//! colouring, fair distribution — runs in the engine's arenas: after the
//! first (warming) call, [`RoutingEngine::fair_distribution_targets`]
//! performs **zero** heap allocations (asserted by the allocation-counting
//! integration test `engine_allocations.rs`). The edge colouring is
//! [`pops_bipartite::coloring::bitset::color_into`] run on the engine's
//! arenas, byte-identical to [`pops_bipartite::coloring::alternating`];
//! the Koenig/Euler-split engines fall back to the allocating legacy
//! pipeline (identical output to the pre-engine free functions).
//!
//! One emission walk writes a plan's transmissions, slot by slot, to
//! either of two outputs. [`RoutingEngine::plan_theorem2`] collects them
//! into the [`Schedule`] it hands to the caller, which necessarily
//! allocates. [`RoutingEngine::plan_theorem2_into`] appends them to a
//! byte buffer as the 20-byte records of [`pops_network::codec`], so a
//! caller that keeps plans encoded (the service's plan cache) gets the
//! exact bytes of the encoded schedule without building it, and a warm
//! engine allocates nothing when the buffer has room.
//!
//! # One trait, six routers
//!
//! [`Router::plan`] dispatches a [`RoutingRequest`] to the matching path:
//!
//! | request | legacy entry point | result |
//! |---|---|---|
//! | [`RoutingRequest::Theorem2`] | [`crate::router::route`] | [`RoutingOutcome::Plan`] |
//! | [`RoutingRequest::SingleSlot`] | [`crate::single_slot::route_single_slot`] | [`RoutingOutcome::Schedule`] |
//! | [`RoutingRequest::HRelation`] | [`crate::h_relation::route_h_relation`] | [`RoutingOutcome::HRelation`] |
//! | [`RoutingRequest::WithFaults`] | [`crate::fault_routing::route_with_faults`] | [`RoutingOutcome::FaultTolerant`] |
//! | [`RoutingRequest::DirectBaseline`] | `pops_baselines::route_direct` | [`RoutingOutcome::Schedule`] |
//! | [`RoutingRequest::StructuredBaseline`] | `pops_baselines::route_structured` | [`RoutingOutcome::Schedule`] |
//!
//! All legacy free functions are now thin wrappers over a fresh engine, so
//! engine-produced schedules are byte-identical to the historical output —
//! the `engine_equivalence.rs` integration suite sweeps `(d, g)` shapes and
//! permutation families asserting exactly that, warm engine included.

use pops_bipartite::coloring::bitset::{self, Side};
use pops_bipartite::BipartiteMultigraph;
use pops_bipartite::ColorerKind;
use pops_network::fault::FaultSet;
use pops_network::{codec, PopsTopology, Schedule, SlotFrame, Transmission};
use pops_permutation::{PartialPermutation, Permutation};

use crate::fair_distribution::FairDistribution;
use crate::fault_routing::{route_with_faults, FaultRouting, FaultRoutingError};
use crate::h_relation::{HRelation, HRelationRouting};
use crate::list_system::ListSystem;
use crate::router::{theorem2_slots, RoutingPlan};

use std::fmt;

/// A routing query against a fixed topology.
#[derive(Debug, Clone, Copy)]
pub enum RoutingRequest<'a> {
    /// Route an arbitrary permutation with the paper's Theorem-2
    /// construction (1 slot for `d = 1`, else `2⌈d/g⌉`).
    Theorem2 {
        /// The permutation to route.
        pi: &'a Permutation,
    },
    /// Route in a single slot if the Gravenstreter–Melhem demand condition
    /// holds; fails with [`RoutingError::NotSingleSlotRoutable`] otherwise.
    SingleSlot {
        /// The permutation to route.
        pi: &'a Permutation,
    },
    /// Route an h-relation by König decomposition into `h` phases.
    HRelation {
        /// The relation to route.
        relation: &'a HRelation,
    },
    /// Route a permutation around failed couplers with the greedy
    /// distance-decreasing multi-hop router.
    WithFaults {
        /// The permutation to route.
        pi: &'a Permutation,
        /// The failed couplers.
        faults: &'a FaultSet,
    },
    /// The optimal direct (single-hop) baseline: slot count equals the
    /// maximum moving-demand entry.
    DirectBaseline {
        /// The permutation to route.
        pi: &'a Permutation,
    },
    /// The Sahni-style structured baseline for group-uniform permutations;
    /// fails with [`RoutingError::NotGroupUniform`] on other inputs.
    StructuredBaseline {
        /// The permutation to route.
        pi: &'a Permutation,
    },
}

/// What a [`Router::plan`] call produced.
#[derive(Debug, Clone)]
pub enum RoutingOutcome {
    /// A full Theorem-2 routing plan (schedule + construction artefacts).
    Plan(RoutingPlan),
    /// A bare schedule (single-slot and baseline paths).
    Schedule(Schedule),
    /// An h-relation routing (phases + concatenated schedule).
    HRelation(HRelationRouting),
    /// A fault-tolerant routing (schedule + per-packet hop counts).
    FaultTolerant(FaultRouting),
}

impl RoutingOutcome {
    /// The executable schedule of the outcome, whatever the path.
    pub fn schedule(&self) -> &Schedule {
        match self {
            RoutingOutcome::Plan(plan) => &plan.schedule,
            RoutingOutcome::Schedule(schedule) => schedule,
            RoutingOutcome::HRelation(routing) => &routing.schedule,
            RoutingOutcome::FaultTolerant(routing) => &routing.schedule,
        }
    }

    /// Consumes the outcome, returning its schedule.
    pub fn into_schedule(self) -> Schedule {
        match self {
            RoutingOutcome::Plan(plan) => plan.schedule,
            RoutingOutcome::Schedule(schedule) => schedule,
            RoutingOutcome::HRelation(routing) => routing.schedule,
            RoutingOutcome::FaultTolerant(routing) => routing.schedule,
        }
    }
}

/// Why a [`Router::plan`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// The request's permutation/relation size does not match the engine
    /// topology.
    SizeMismatch {
        /// `n = d·g` of the engine topology.
        expected: usize,
        /// Size of the request.
        got: usize,
    },
    /// A [`RoutingRequest::SingleSlot`] request on a permutation whose
    /// moving demand matrix has an entry above 1.
    NotSingleSlotRoutable,
    /// A [`RoutingRequest::StructuredBaseline`] request on a permutation
    /// that is not group-uniform.
    NotGroupUniform,
    /// The fault router could not connect a group pair.
    Fault(FaultRoutingError),
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::SizeMismatch { expected, got } => {
                write!(
                    f,
                    "request size {got} does not match topology n = {expected}"
                )
            }
            RoutingError::NotSingleSlotRoutable => {
                write!(f, "permutation is not single-slot routable")
            }
            RoutingError::NotGroupUniform => {
                write!(
                    f,
                    "permutation is not group-uniform; use the general router"
                )
            }
            RoutingError::Fault(e) => write!(f, "fault routing failed: {e}"),
        }
    }
}

impl std::error::Error for RoutingError {}

/// A planner of routing requests on a fixed topology.
///
/// Implemented by [`RoutingEngine`] for all six routing paths of this
/// reproduction. `&mut self` is deliberate: implementations own reusable
/// scratch state.
pub trait Router {
    /// Plans one request.
    fn plan(&mut self, req: &RoutingRequest<'_>) -> Result<RoutingOutcome, RoutingError>;
}

/// Reusable arenas for every engine path. All vectors are grown on first
/// use (sizes depend only on the topology and stay fixed) and only
/// overwritten afterwards.
#[derive(Debug, Default, Clone)]
struct Scratch {
    /// `L(h, i) = group(π(h·d + i))`, flat at `h·d + i` (the routing list
    /// system).
    dest_group: Vec<usize>,
    /// Padded Theorem-1 demand multigraph, edge `e` = `(edge_u[e],
    /// edge_v[e])`; real edges first (`e = h·d + i`), pad edges appended.
    edge_u: Vec<u32>,
    /// Right endpoints, parallel to `edge_u`.
    edge_v: Vec<u32>,
    /// `left_table[u·n₂ + c]` = edge of colour `c` at left node `u`,
    /// packed with its right endpoint (see [`bitset::Side`]).
    left_table: Vec<u64>,
    /// Right-side colour table, as `left_table`.
    right_table: Vec<u64>,
    /// The fair distribution, flat: `f(h, i)` at `h·d + i`.
    fd_targets: Vec<usize>,
    /// `inv[h·d + j] = i` with `f(h, i) = j` (the `d > g` bijection).
    inv: Vec<usize>,
    /// Per-target fill cursor for bucket passes.
    bucket_cursor: Vec<usize>,
    /// Source group of the k-th entry routed to intermediate group `j`,
    /// flat at `j·d + k`.
    incoming_h: Vec<u32>,
    /// List position of the same entry.
    incoming_i: Vec<u32>,
    /// Flat sender/receiver workspace for the `d > g` rounds and the
    /// structured baseline (`g·g` and `g·d` slots respectively).
    receivers: Vec<usize>,
    /// Sender workspace for the structured baseline (`g·d`).
    senders: Vec<usize>,
    /// Group-to-group moving demand (single-slot/direct paths).
    demand: Vec<usize>,
    /// Per-coupler queue length (direct path).
    queue_len: Vec<usize>,
    /// `group_lut[p] = p / d` for every processor `p` — filled once per
    /// engine (the topology is fixed), so the Theorem-2 hot paths trade
    /// three hardware divisions per processor (destination-group list,
    /// delivery couplers) for L1 table lookups.
    group_lut: Vec<u32>,
    /// Per-left-node used-colour bitmask words (the word-parallel
    /// kernel's mirror of `left_table`): bit `c` of
    /// `left_used[u·W .. (u+1)·W]` is set iff `left_table[u·n₂ + c]`
    /// holds an edge, where `W = ⌈n₂/64⌉`.
    left_used: Vec<u64>,
    /// Right-side used-colour masks, as `left_used`.
    right_used: Vec<u64>,
    /// Intermediate processor of each packet after its first hop, written
    /// by the emission walk (`n` entries).
    intermediate: Vec<usize>,
    /// Retired transmission buffers handed back through
    /// [`RoutingEngine::recycle`]; schedule emission pops from here before
    /// asking the allocator, so steady-state batch routing recirculates
    /// the same cache-warm blocks instead of walking fresh cold pages for
    /// every plan.
    spare_tx: Vec<Vec<Transmission>>,
    /// Retired intermediate-placement buffers (same recycling loop).
    spare_intermediate: Vec<Vec<usize>>,
    /// Request multigraph of the h-relation path (cleared, not freed,
    /// between calls).
    hrel_graph: Option<BipartiteMultigraph>,
    /// Debug-only fair-distribution verification buffers (no allocation in
    /// `debug_assert!` paths either — the allocation-counting test runs in
    /// debug builds).
    #[cfg(debug_assertions)]
    verify_seen: Vec<bool>,
    /// Per-target fibre counters (debug verification).
    #[cfg(debug_assertions)]
    verify_counts: Vec<usize>,
    /// `(list value, target)` pair markers (debug verification).
    #[cfg(debug_assertions)]
    verify_pairs: Vec<bool>,
}

/// Grows `v` to `len` if shorter (no-op — and no allocation — once warm).
fn ensure<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// The unified routing engine: one topology, one colourer choice, reusable
/// scratch arenas for every routing path. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct RoutingEngine {
    topology: PopsTopology,
    colorer: ColorerKind,
    emit_artefacts: bool,
    scratch: Scratch,
}

impl RoutingEngine {
    /// Creates an engine for `topology` with the
    /// [`ColorerKind::AlternatingPath`] colourer — the colourer with the
    /// allocation-free arena implementation, hence the engine default (the
    /// free functions keep [`ColorerKind::default`]).
    pub fn new(topology: PopsTopology) -> Self {
        Self::with_colorer(topology, ColorerKind::AlternatingPath)
    }

    /// Creates an engine using a specific 1-factorization engine for the
    /// Theorem-1 construction.
    pub fn with_colorer(topology: PopsTopology, colorer: ColorerKind) -> Self {
        Self {
            topology,
            colorer,
            emit_artefacts: false,
            scratch: Scratch::default(),
        }
    }

    /// Whether Theorem-2 plans carry their construction artefacts (the
    /// list system and fair distribution, as the legacy free functions
    /// always did). Off by default: exporting artefacts clones them out of
    /// the arenas, which costs allocations on the hot path.
    pub fn emit_artefacts(mut self, yes: bool) -> Self {
        self.emit_artefacts = yes;
        self
    }

    /// Non-consuming form of [`RoutingEngine::emit_artefacts`], for engines
    /// owned behind a pool or another shared structure that cannot move
    /// them through the builder.
    pub fn set_emit_artefacts(&mut self, yes: bool) {
        self.emit_artefacts = yes;
    }

    /// Warms the scratch arenas by planning the identity permutation and
    /// discarding the plan: afterwards every Theorem-2 arena is at its
    /// final size for this topology, so the next `plan_*` call starts
    /// directly on the zero-allocation hot path. Service pools warm their
    /// shards at construction so no real request pays the arena growth.
    pub fn warm(&mut self) -> &mut Self {
        let pi = Permutation::identity(self.topology.n());
        let _ = self.theorem2_internal(&pi, false);
        self
    }

    /// Releases every scratch arena back to the allocator (capacities drop
    /// to zero; the next plan re-grows them). The reset hook for
    /// long-lived pools that want to shed memory after a burst of
    /// requests.
    pub fn reset(&mut self) {
        self.scratch = Scratch::default();
    }

    /// Hands a consumed plan's heap buffers back to the engine: the next
    /// emitted schedules are written into the recycled allocations instead
    /// of fresh ones. A batch executor that recycles the previous batch
    /// before routing the next keeps its steady-state memory fixed and
    /// cache-warm — the optimisation that lifts 1-thread batch throughput
    /// to (and past) the drop-each-plan single-plan loop, which gets the
    /// same recirculation from the allocator for free.
    ///
    /// Plans from any topology are accepted; only the buffers are kept,
    /// and the pool is capped so over-donation cannot grow memory without
    /// bound.
    pub fn recycle(&mut self, plan: RoutingPlan) {
        const SPARE_CAP: usize = 512;
        let scratch = &mut self.scratch;
        for frame in plan.schedule.slots {
            if scratch.spare_tx.len() >= SPARE_CAP {
                break;
            }
            let mut tx = frame.transmissions;
            tx.clear();
            scratch.spare_tx.push(tx);
        }
        if scratch.spare_intermediate.len() < SPARE_CAP {
            let mut intermediate = plan.intermediate;
            intermediate.clear();
            scratch.spare_intermediate.push(intermediate);
        }
    }

    /// Approximate heap footprint of the scratch arenas in bytes — the
    /// flat vectors only (the h-relation request graph, whose size is
    /// workload-dependent, is excluded). A metrics hook for pools.
    pub fn arena_footprint(&self) -> usize {
        let s = &self.scratch;
        let usize_cells = s.dest_group.capacity()
            + s.fd_targets.capacity()
            + s.intermediate.capacity()
            + s.inv.capacity()
            + s.bucket_cursor.capacity()
            + s.receivers.capacity()
            + s.senders.capacity()
            + s.demand.capacity()
            + s.queue_len.capacity();
        let u32_cells = s.edge_u.capacity()
            + s.edge_v.capacity()
            + s.incoming_h.capacity()
            + s.incoming_i.capacity()
            + s.group_lut.capacity();
        let u64_cells = s.left_table.capacity()
            + s.right_table.capacity()
            + s.left_used.capacity()
            + s.right_used.capacity();
        let spare_usize_cells: usize = s.spare_intermediate.iter().map(Vec::capacity).sum();
        let spare_tx_cells: usize = s.spare_tx.iter().map(Vec::capacity).sum();
        (usize_cells + spare_usize_cells) * std::mem::size_of::<usize>()
            + u32_cells * std::mem::size_of::<u32>()
            + u64_cells * std::mem::size_of::<u64>()
            + spare_tx_cells * std::mem::size_of::<Transmission>()
    }

    /// The engine's topology.
    pub fn topology(&self) -> PopsTopology {
        self.topology
    }

    /// The engine's colourer.
    pub fn colorer(&self) -> ColorerKind {
        self.colorer
    }

    /// Routes `pi` per Theorem 2, byte-identical to
    /// [`crate::router::route`] with the same colourer.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != topology.n()`.
    pub fn plan_theorem2(&mut self, pi: &Permutation) -> RoutingPlan {
        self.theorem2_internal(pi, self.emit_artefacts)
    }

    /// Routes `pi` per Theorem 2 straight into its dense encoding: appends
    /// to `out` exactly the bytes [`codec::encode_schedule`] writes for
    /// [`RoutingEngine::plan_theorem2`]'s schedule, and returns the slot
    /// count. The records are written as the plan is emitted; no
    /// [`Schedule`] is built.
    ///
    /// The output is `4 + 4·slots` bytes plus 20 per transmission: `n`
    /// transmissions for `d = 1`, else `2n`. `out` is grown to exactly
    /// that when it has less room, so an empty buffer ends up exact-size;
    /// a warm engine allocates nothing when `out` already has the room.
    ///
    /// ```
    /// use pops_core::RoutingEngine;
    /// use pops_network::{codec, PopsTopology};
    /// use pops_permutation::families::vector_reversal;
    ///
    /// let mut engine = RoutingEngine::new(PopsTopology::new(4, 4));
    /// let pi = vector_reversal(16);
    /// let mut bytes = Vec::new();
    /// assert_eq!(engine.plan_theorem2_into(&pi, &mut bytes), 2);
    /// assert_eq!(bytes.len(), 4 + 4 * 2 + 20 * 32);
    ///
    /// let mut encoded = Vec::new();
    /// codec::encode_schedule(&mut encoded, &engine.plan_theorem2(&pi).schedule);
    /// assert_eq!(bytes, encoded);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != topology.n()`.
    // lint: hot-path
    pub fn plan_theorem2_into(&mut self, pi: &Permutation, out: &mut Vec<u8>) -> usize {
        self.check_len(pi);
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let slots = theorem2_slots(d, g);
        let transmissions = if d == 1 { t.n() } else { 2 * t.n() };
        out.reserve_exact(codec::unicast_len(slots, transmissions));
        if d > 1 {
            self.compute_fair_distribution(pi);
        }
        codec::push_u32(out, slots);
        self.emit_theorem2(pi, &mut Records(out));
        slots
    }

    /// Computes the fair distribution of `pi`'s routing list system into
    /// the engine arenas and returns it as the flat slice `f(h, i)` at
    /// `h·d + i` (empty for `d = 1`, which needs no fair distribution).
    ///
    /// This is the zero-allocation hot path: with the
    /// [`ColorerKind::AlternatingPath`] colourer a warm engine performs no
    /// heap allocation here at all.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != topology.n()`.
    pub fn fair_distribution_targets(&mut self, pi: &Permutation) -> &[usize] {
        self.check_len(pi);
        if self.topology.d() == 1 {
            return &[];
        }
        self.compute_fair_distribution(pi);
        let len = self.topology.n();
        &self.scratch.fd_targets[..len]
    }

    /// Routes `pi` in one slot if possible — the engine form of
    /// [`crate::single_slot::route_single_slot`].
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != topology.n()`.
    pub fn plan_single_slot(&mut self, pi: &Permutation) -> Result<Schedule, RoutingError> {
        self.check_len(pi);
        if self.moving_demand_max(pi) > 1 {
            return Err(RoutingError::NotSingleSlotRoutable);
        }
        Ok(Schedule {
            slots: vec![self.one_hop_frame(pi, true)],
        })
    }

    /// One slot sending every packet straight through its unique coupler
    /// (legal when the demand matrix is 0/1 — the `d = 1` and single-slot
    /// cases). `skip_fixed` omits packets already at home.
    fn one_hop_frame(&self, pi: &Permutation, skip_fixed: bool) -> SlotFrame {
        let t = &self.topology;
        let transmissions = (0..t.n())
            .filter(|&i| !skip_fixed || pi.apply(i) != i)
            .map(|i| Transmission::unicast(i, t.coupler_between(i, pi.apply(i)), i, pi.apply(i)))
            .collect();
        SlotFrame { transmissions }
    }

    /// The optimal direct (single-hop) schedule — the engine form of
    /// `pops_baselines::route_direct`.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != topology.n()`.
    pub fn plan_direct(&mut self, pi: &Permutation) -> Schedule {
        self.check_len(pi);
        let slots_needed = self.moving_demand_max(pi);
        let t = self.topology;
        let scratch = &mut self.scratch;
        ensure(&mut scratch.queue_len, t.coupler_count());
        scratch.queue_len[..t.coupler_count()].fill(0);
        let mut slots = vec![SlotFrame::new(); slots_needed];
        for i in 0..t.n() {
            let dest = pi.apply(i);
            if dest == i {
                continue;
            }
            let coupler = t.coupler_between(i, dest);
            let slot = scratch.queue_len[coupler];
            scratch.queue_len[coupler] += 1;
            slots[slot]
                .transmissions
                .push(Transmission::unicast(i, coupler, i, dest));
        }
        Schedule { slots }
    }

    /// The Sahni-style structured routing for group-uniform permutations —
    /// the engine form of `pops_baselines::route_structured`.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != topology.n()`.
    pub fn plan_structured(&mut self, pi: &Permutation) -> Result<Schedule, RoutingError> {
        self.check_len(pi);
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        if !pi.is_group_uniform(d) {
            return Err(RoutingError::NotGroupUniform);
        }
        if d == 1 {
            return Ok(Schedule {
                slots: vec![self.one_hop_frame(pi, false)],
            });
        }

        let n2 = g.max(d);
        let mut slots = Vec::new();
        let scratch = &mut self.scratch;
        if d <= g {
            // f(h, i) = (h + i) mod g; receivers in source-group order per
            // intermediate group, exactly as the legacy baseline.
            ensure(&mut scratch.senders, g * d);
            ensure(&mut scratch.bucket_cursor, g);
            scratch.bucket_cursor[..g].fill(0);
            for h in 0..g {
                for i in 0..d {
                    let j = (h + i) % n2;
                    let k = scratch.bucket_cursor[j];
                    scratch.bucket_cursor[j] += 1;
                    scratch.senders[j * d + k] = t.processor(h, i);
                }
            }
            debug_assert!(scratch.bucket_cursor[..g].iter().all(|&c| c == d));
            let mut slot1 = SlotFrame::new();
            let mut slot2 = SlotFrame::new();
            for j in 0..g {
                for k in 0..d {
                    let sender = scratch.senders[j * d + k];
                    let mid = t.processor(j, k);
                    slot1.transmissions.push(Transmission::unicast(
                        sender,
                        t.coupler_id(j, t.group_of(sender)),
                        sender,
                        mid,
                    ));
                    let dest = pi.apply(sender);
                    slot2.transmissions.push(Transmission::unicast(
                        mid,
                        t.coupler_between(mid, dest),
                        sender,
                        dest,
                    ));
                }
            }
            slots.push(slot1);
            slots.push(slot2);
        } else {
            // d > g: f(h, i) = (i + h) mod d, inverse i = (j - h) mod d.
            ensure(&mut scratch.receivers, g * g);
            let rounds = d.div_ceil(g);
            for q in 0..rounds {
                let block = q * g..((q + 1) * g).min(d);
                let full_round = block.len() == g;
                let mut slot1 = SlotFrame::new();
                let mut slot2 = SlotFrame::new();
                for r in 0..g {
                    if full_round {
                        for (idx, j) in block.clone().enumerate() {
                            scratch.receivers[r * g + idx] = t.processor(r, (j + d - r % d) % d);
                        }
                        scratch.receivers[r * g..r * g + g].sort_unstable();
                    } else {
                        for h in 0..g {
                            scratch.receivers[r * g + h] = t.processor(r, h);
                        }
                    }
                }
                for h in 0..g {
                    for j in block.clone() {
                        let r = j - q * g;
                        let i = (j + d - h % d) % d;
                        let sender = t.processor(h, i);
                        let mid = scratch.receivers[r * g + h];
                        slot1.transmissions.push(Transmission::unicast(
                            sender,
                            t.coupler_id(r, h),
                            sender,
                            mid,
                        ));
                        let dest = pi.apply(sender);
                        slot2.transmissions.push(Transmission::unicast(
                            mid,
                            t.coupler_between(mid, dest),
                            sender,
                            dest,
                        ));
                    }
                }
                slots.push(slot1);
                slots.push(slot2);
            }
        }
        Ok(Schedule { slots })
    }

    /// König-decomposes `relation` into at most `h` partial permutations —
    /// the **phase-decomposition hook** of the h-relation path. Each colour
    /// class of the request multigraph (via the CSR
    /// [`pops_bipartite::coloring::EdgeColoring::classes_flat`]) is one
    /// phase; completing a phase and routing it by Theorem 2 yields the
    /// phase's slot block.
    ///
    /// The decomposition is deterministic for a given colourer, so callers
    /// (e.g. the service's per-phase plan cache) may key each phase by its
    /// completed permutation and route or cache phases individually:
    ///
    /// ```
    /// use pops_core::{HRelation, RoutingEngine};
    /// use pops_core::h_relation::HRelationRouting;
    /// use pops_network::PopsTopology;
    ///
    /// let topology = PopsTopology::new(2, 3);
    /// let mut engine = RoutingEngine::new(topology);
    /// let relation = HRelation::new(6, vec![(0, 1), (1, 0), (0, 2)]).unwrap();
    /// let phases = engine.decompose_h_relation(&relation);
    /// assert_eq!(phases.len(), relation.h());
    /// // Route each phase independently (a cache could answer some)...
    /// let blocks = phases
    ///     .iter()
    ///     .map(|p| engine.plan_theorem2(&p.complete()).schedule)
    ///     .collect();
    /// // ...and the assembled routing matches `plan_h_relation` exactly.
    /// let assembled = HRelationRouting::from_phase_schedules(topology, phases, blocks);
    /// assert_eq!(assembled.schedule, engine.plan_h_relation(&relation).schedule);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `relation.n() != topology.n()`.
    pub fn decompose_h_relation(&mut self, relation: &HRelation) -> Vec<PartialPermutation> {
        let t = self.topology;
        assert_eq!(relation.n(), t.n(), "size mismatch");
        let n = relation.n();
        let graph = self
            .scratch
            .hrel_graph
            .get_or_insert_with(|| BipartiteMultigraph::new(n, n));
        graph.clear();
        for &(src, dst) in relation.requests() {
            graph.add_edge(src, dst);
        }
        // The bitset kernel is a byte-identical drop-in for the
        // alternating-path colourer, so the request multigraph gets the
        // engine's kernel too; other colourers are untouched.
        let coloring = match self.colorer {
            ColorerKind::AlternatingPath => bitset::color(graph),
            _ => self.colorer.color(graph),
        };
        let (offsets, flat) = coloring.classes_flat();
        (0..coloring.num_colors)
            .map(|phase| {
                let mut image: Vec<Option<usize>> = vec![None; n];
                for &e in &flat[offsets[phase]..offsets[phase + 1]] {
                    let (src, dst) = graph.endpoints(e);
                    debug_assert!(image[src].is_none(), "colouring is proper");
                    image[src] = Some(dst);
                }
                PartialPermutation::new(image).expect("colour classes are partial permutations")
            })
            .collect()
    }

    /// Routes an h-relation: [`RoutingEngine::decompose_h_relation`] into
    /// phases, complete each, and route every phase through this engine's
    /// Theorem-2 arenas. Byte-identical to
    /// [`crate::h_relation::route_h_relation`] with the same colourer.
    ///
    /// # Panics
    ///
    /// Panics if `relation.n() != topology.n()`.
    pub fn plan_h_relation(&mut self, relation: &HRelation) -> HRelationRouting {
        let t = self.topology;
        let phases = self.decompose_h_relation(relation);
        let blocks: Vec<Schedule> = phases
            .iter()
            .map(|phase| self.theorem2_internal(&phase.complete(), false).schedule)
            .collect();
        HRelationRouting::from_phase_schedules(t, phases, blocks)
    }

    /// Routes `pi` around `faults` with the greedy distance-decreasing
    /// router (delegates to [`crate::fault_routing::route_with_faults`];
    /// that path's state is inherently per-call).
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != topology.n()`.
    pub fn plan_with_faults(
        &mut self,
        pi: &Permutation,
        faults: &FaultSet,
    ) -> Result<FaultRouting, RoutingError> {
        route_with_faults(pi, self.topology, faults).map_err(RoutingError::Fault)
    }

    fn check_len(&self, pi: &Permutation) {
        assert_eq!(
            pi.len(),
            self.topology.n(),
            "permutation length {} does not match {} with n = {}",
            pi.len(),
            self.topology,
            self.topology.n()
        );
    }

    /// Fills `scratch.demand` with the moving demand of `pi` and returns
    /// its maximum entry.
    fn moving_demand_max(&mut self, pi: &Permutation) -> usize {
        let t = &self.topology;
        let g = t.g();
        let scratch = &mut self.scratch;
        ensure(&mut scratch.demand, g * g);
        scratch.demand[..g * g].fill(0);
        let mut max = 0;
        for i in 0..t.n() {
            let dest = pi.apply(i);
            if dest != i {
                let cell = &mut scratch.demand[t.group_of(i) * g + t.group_of(dest)];
                *cell += 1;
                max = max.max(*cell);
            }
        }
        max
    }

    /// The Theorem-2 construction as a [`RoutingPlan`], shared by every
    /// caller that wants the built schedule.
    fn theorem2_internal(&mut self, pi: &Permutation, want_artefacts: bool) -> RoutingPlan {
        self.check_len(pi);
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let artefacts = if d > 1 {
            self.compute_fair_distribution_with_artefacts(pi, want_artefacts)
        } else {
            None
        };
        let mut frames = Frames {
            slots: Vec::with_capacity(theorem2_slots(d, g)),
            spare: std::mem::take(&mut self.scratch.spare_tx),
        };
        self.emit_theorem2(pi, &mut frames);
        self.scratch.spare_tx = frames.spare;
        let schedule = Schedule {
            slots: frames.slots,
        };
        debug_assert_eq!(schedule.slot_count(), theorem2_slots(d, g));
        let mut intermediate = self.scratch.spare_intermediate.pop().unwrap_or_default();
        intermediate.clear();
        intermediate.extend_from_slice(&self.scratch.intermediate[..t.n()]);
        let (list_system, fair_distribution) = match artefacts {
            Some((ls, fd)) => (Some(ls), Some(fd)),
            None => (None, None),
        };
        RoutingPlan {
            topology: t,
            schedule,
            fair_distribution,
            list_system,
            intermediate,
        }
    }

    /// Computes `scratch.fd_targets` for `pi` (which must match a `d > 1`
    /// topology), optionally also exporting the construction artefacts.
    fn compute_fair_distribution_with_artefacts(
        &mut self,
        pi: &Permutation,
        want_artefacts: bool,
    ) -> Option<(ListSystem, FairDistribution)> {
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let n2 = g.max(d);
        match self.colorer {
            ColorerKind::AlternatingPath => {
                self.compute_fair_distribution(pi);
                want_artefacts.then(|| {
                    let scratch = &self.scratch;
                    let lists: Vec<Vec<usize>> = (0..g)
                        .map(|h| scratch.dest_group[h * d..(h + 1) * d].to_vec())
                        .collect();
                    let assignments: Vec<Vec<usize>> = (0..g)
                        .map(|h| scratch.fd_targets[h * d..(h + 1) * d].to_vec())
                        .collect();
                    let ls = ListSystem::new(n2, lists)
                        .expect("routing list systems are always well-formed");
                    (ls, FairDistribution::from_assignments(n2, assignments))
                })
            }
            _ => {
                let (ls, fd) = self.legacy_fair_distribution_into_scratch(pi);
                want_artefacts.then_some((ls, fd))
            }
        }
    }

    /// The allocating legacy pipeline — identical to the pre-engine free
    /// functions for the Koenig and Euler-split engines. Computes the fair
    /// distribution with [`FairDistribution::compute`], mirrors it into
    /// `scratch.fd_targets`, and returns the artefact objects.
    fn legacy_fair_distribution_into_scratch(
        &mut self,
        pi: &Permutation,
    ) -> (ListSystem, FairDistribution) {
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let ls = ListSystem::for_routing(pi, d, g);
        let fd = FairDistribution::compute(&ls, self.colorer);
        let scratch = &mut self.scratch;
        ensure(&mut scratch.fd_targets, g * d);
        for h in 0..g {
            scratch.fd_targets[h * d..(h + 1) * d].copy_from_slice(fd.targets_of(h));
        }
        (ls, fd)
    }

    /// Fills `scratch.group_lut` with `p ↦ p / d` if it is not already at
    /// full size. The divisions run once per engine lifetime; every plan
    /// afterwards reads groups out of the table instead of dividing.
    fn ensure_group_lut(&mut self) {
        let n = self.topology.n();
        let d = self.topology.d();
        let lut = &mut self.scratch.group_lut;
        if lut.len() < n {
            lut.clear();
            lut.extend((0..n).map(|p| (p / d) as u32));
        }
    }

    /// Fills `scratch.fd_targets` for `pi` on a `d > 1` topology using the
    /// engine's colourer; allocation-free when warm for the
    /// alternating-path colourer.
    fn compute_fair_distribution(&mut self, pi: &Permutation) {
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        debug_assert!(d > 1);
        self.ensure_group_lut();
        if self.colorer != ColorerKind::AlternatingPath {
            let _ = self.legacy_fair_distribution_into_scratch(pi);
            return;
        }

        let n2 = g.max(d);
        let m_real = g * d;
        // Theorem-1 padding: for d ≤ g add `pad = g − d` nodes per side
        // with the (n₂, n₂ − Δ₁)-biregular H₁/H₂ graphs; for d > g the
        // demand graph is already n₂-regular.
        let pad = g.saturating_sub(d);
        let nodes = g + pad;
        let m_total = m_real + 2 * pad * g;

        let scratch = &mut self.scratch;
        ensure(&mut scratch.dest_group, m_real);
        ensure(&mut scratch.edge_u, m_total);
        ensure(&mut scratch.edge_v, m_total);
        ensure(&mut scratch.left_table, nodes * n2);
        ensure(&mut scratch.right_table, nodes * n2);
        ensure(&mut scratch.fd_targets, m_real);
        let words = bitset::words_per_node(n2);
        ensure(&mut scratch.left_used, nodes * words);
        ensure(&mut scratch.right_used, nodes * words);

        // The routing list system: L(h, i) = group(π(h·d + i)), with the
        // per-processor division replaced by the engine's group table.
        for p in 0..m_real {
            scratch.dest_group[p] = scratch.group_lut[pi.apply(p)] as usize;
        }
        // Real demand edges in (h, i) lexicographic order: edge h·d + i is
        // (h, L(h, i)) — the same ids the legacy pipeline assigns. The
        // left endpoint e / d is again a group-table read (m_real = n).
        for (e, &dest) in scratch.dest_group[..m_real].iter().enumerate() {
            scratch.edge_u[e] = scratch.group_lut[e];
            scratch.edge_v[e] = dest as u32;
        }
        // Pad edges, in the exact order `theorem1_pad` appends them:
        // H₁ = (V, S′) first, then H₂ = (V′, S).
        if pad > 0 {
            let b_deg = g - d; // n₂ − Δ₁
            for slot in 0..pad * g {
                scratch.edge_u[m_real + slot] = (g + slot / g) as u32;
                scratch.edge_v[m_real + slot] = (slot / b_deg) as u32;
            }
            let h2_base = m_real + pad * g;
            for slot in 0..pad * g {
                scratch.edge_u[h2_base + slot] = (slot / b_deg) as u32;
                scratch.edge_v[h2_base + slot] = (g + slot / g) as u32;
            }
        }

        // The padded graph is n₂-regular, so the shared bitset kernel
        // colours it with exactly n₂ colours, byte-identically to
        // `pops_bipartite::coloring::alternating`. Node ids are `u32`
        // in the edge arrays, and an edge id past 32 bits would need
        // each of those arrays to outgrow 16 GiB first.
        let Scratch {
            edge_u,
            edge_v,
            left_table,
            right_table,
            left_used,
            right_used,
            fd_targets,
            ..
        } = scratch;
        bitset::color_into(
            n2,
            m_total,
            |e| (edge_u[e] as usize, edge_v[e] as usize),
            Side {
                table: &mut left_table[..nodes * n2],
                used: &mut left_used[..nodes * words],
            },
            Side {
                table: &mut right_table[..nodes * n2],
                used: &mut right_used[..nodes * words],
            },
        );
        // The colour of real edge h·d + i *is* f(h, i). Real edges all
        // leave the g real left nodes, whose rows also hold H₂ pad edges
        // (ids ≥ m_real), which the read skips.
        bitset::read_colors(&left_table[..g * n2], n2, &mut fd_targets[..m_real]);

        #[cfg(debug_assertions)]
        self.debug_verify_fair_distribution();
    }

    /// Debug re-check of fair-distribution conditions (1)–(3) against the
    /// arena state, itself allocation-free so the allocation-counting test
    /// can run in debug builds.
    #[cfg(debug_assertions)]
    fn debug_verify_fair_distribution(&mut self) {
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let n2 = g.max(d);
        let delta2 = g * d / n2;
        let scratch = &mut self.scratch;
        ensure(&mut scratch.verify_seen, n2);
        ensure(&mut scratch.verify_counts, n2);
        ensure(&mut scratch.verify_pairs, g * n2);
        scratch.verify_counts[..n2].fill(0);
        scratch.verify_pairs[..g * n2].fill(false);
        for h in 0..g {
            scratch.verify_seen[..n2].fill(false);
            for i in 0..d {
                let target = scratch.fd_targets[h * d + i];
                let value = scratch.dest_group[h * d + i];
                assert!(target < n2, "fair-distribution target out of range");
                assert!(
                    !scratch.verify_seen[target],
                    "condition (1): source {h} repeats target {target}"
                );
                scratch.verify_seen[target] = true;
                scratch.verify_counts[target] += 1;
                assert!(
                    !scratch.verify_pairs[value * n2 + target],
                    "condition (3): list value {value} reuses target {target}"
                );
                scratch.verify_pairs[value * n2 + target] = true;
            }
        }
        assert!(
            scratch.verify_counts[..n2].iter().all(|&c| c == delta2),
            "condition (2): unbalanced target fibres"
        );
    }

    /// The Theorem-2 emission walk, one for both outputs: writes the
    /// plan's transmissions to `sink` slot by slot, in the legacy routers'
    /// order, and each packet's intermediate processor to
    /// `scratch.intermediate`. For `d > 1` the fair distribution must
    /// already be in `scratch.fd_targets`.
    // lint: hot-path
    fn emit_theorem2(&mut self, pi: &Permutation, sink: &mut impl Emit) {
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let n = t.n();
        ensure(&mut self.scratch.intermediate, n);
        if d == 1 {
            // One slot: every packet straight through its unique coupler.
            sink.slot(n);
            for p in 0..n {
                let dest = pi.apply(p);
                self.scratch.intermediate[p] = dest;
                sink.unicast(p, t.coupler_between(p, dest), p, dest);
            }
        } else {
            self.ensure_group_lut();
            if d <= g {
                self.emit_d_le_g(pi, sink);
            } else {
                self.emit_d_gt_g(pi, sink);
            }
        }
    }

    /// Emission for `1 < d ≤ g` — the two-slot case, identical
    /// transmission order to the legacy `route_d_le_g`.
    // lint: hot-path
    fn emit_d_le_g(&mut self, pi: &Permutation, sink: &mut impl Emit) {
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let n = t.n();
        let scratch = &mut self.scratch;
        ensure(&mut scratch.bucket_cursor, g);
        ensure(&mut scratch.incoming_h, g * d);
        ensure(&mut scratch.incoming_i, g * d);

        // Bucket the entries by intermediate group; each bucket holds
        // exactly d entries (equation (2)) in (h, i) lexicographic order.
        scratch.bucket_cursor[..g].fill(0);
        for h in 0..g {
            for i in 0..d {
                let j = scratch.fd_targets[h * d + i];
                let k = scratch.bucket_cursor[j];
                scratch.bucket_cursor[j] += 1;
                scratch.incoming_h[j * d + k] = h as u32;
                scratch.incoming_i[j * d + k] = i as u32;
            }
        }
        debug_assert!(
            scratch.bucket_cursor[..g].iter().all(|&c| c == d),
            "equation (2)"
        );

        let intermediate = &mut scratch.intermediate[..n];
        sink.slot(n);
        for j in 0..g {
            for k in 0..d {
                let h = scratch.incoming_h[j * d + k] as usize;
                let i = scratch.incoming_i[j * d + k] as usize;
                let sender = t.processor(h, i);
                let receiver = t.processor(j, k);
                intermediate[sender] = receiver;
                sink.unicast(sender, t.coupler_id(j, h), sender, receiver);
            }
        }

        // Slot 2: every packet is one hop from home (Fact 1). The coupler
        // c(group(dest), group(holder)) comes from the group table — no
        // divisions on the delivery path.
        sink.slot(n);
        for (p, &holder) in intermediate.iter().enumerate() {
            let dest = pi.apply(p);
            let coupler = scratch.group_lut[dest] as usize * g + scratch.group_lut[holder] as usize;
            sink.unicast(holder, coupler, p, dest);
        }
    }

    /// Emission for `d > g` — `⌈d/g⌉` rounds of two slots, identical
    /// transmission order to the legacy `route_d_gt_g`.
    // lint: hot-path
    fn emit_d_gt_g(&mut self, pi: &Permutation, sink: &mut impl Emit) {
        let t = self.topology;
        let (d, g) = (t.d(), t.g());
        let scratch = &mut self.scratch;
        ensure(&mut scratch.inv, g * d);
        ensure(&mut scratch.receivers, g * g);

        // inv[h·d + j] = the entry index i with f(h, i) = j (bijection).
        for h in 0..g {
            for i in 0..d {
                scratch.inv[h * d + scratch.fd_targets[h * d + i]] = i;
            }
        }

        for q in 0..d.div_ceil(g) {
            // The round's targets j run over lo..hi.
            let (lo, hi) = (q * g, ((q + 1) * g).min(d));
            let full_round = hi - lo == g;

            // Receivers per destination group r (see the router docs): the
            // round's own senders for full rounds, processors r·d + h for
            // the final partial round.
            for r in 0..g {
                if full_round {
                    for (idx, j) in (lo..hi).enumerate() {
                        scratch.receivers[r * g + idx] = t.processor(r, scratch.inv[r * d + j]);
                    }
                    scratch.receivers[r * g..r * g + g].sort_unstable();
                } else {
                    for h in 0..g {
                        scratch.receivers[r * g + h] = t.processor(r, h);
                    }
                }
            }

            // The round's packets, in (h, j) order in both of its slots.
            sink.slot(g * (hi - lo));
            for h in 0..g {
                for j in lo..hi {
                    let r = j - lo;
                    let sender = t.processor(h, scratch.inv[h * d + j]);
                    let receiver = scratch.receivers[r * g + h];
                    scratch.intermediate[sender] = receiver;
                    sink.unicast(sender, t.coupler_id(r, h), sender, receiver);
                }
            }

            // Second slot of the round: deliver the moved packets.
            sink.slot(g * (hi - lo));
            for h in 0..g {
                for j in lo..hi {
                    let packet = t.processor(h, scratch.inv[h * d + j]);
                    let holder = scratch.intermediate[packet];
                    let dest = pi.apply(packet);
                    let coupler =
                        scratch.group_lut[dest] as usize * g + scratch.group_lut[holder] as usize;
                    sink.unicast(holder, coupler, packet, dest);
                }
            }
        }
    }
}

/// Where the emission walk writes a Theorem-2 plan's transmissions, slot
/// by slot, in emission order.
trait Emit {
    /// Opens the next slot, which will carry `len` transmissions.
    fn slot(&mut self, len: usize);
    /// Appends the unicast transmission of `packet` from `sender` through
    /// `coupler` to `receiver` to the open slot.
    fn unicast(&mut self, sender: usize, coupler: usize, packet: usize, receiver: usize);
}

/// Collects the walk into the slots of a [`Schedule`], reusing recycled
/// transmission buffers before asking the allocator.
struct Frames {
    slots: Vec<SlotFrame>,
    spare: Vec<Vec<Transmission>>,
}

impl Emit for Frames {
    fn slot(&mut self, len: usize) {
        let mut transmissions = self.spare.pop().unwrap_or_default();
        transmissions.reserve_exact(len);
        self.slots.push(SlotFrame { transmissions });
    }

    fn unicast(&mut self, sender: usize, coupler: usize, packet: usize, receiver: usize) {
        if let Some(frame) = self.slots.last_mut() {
            let tx = Transmission::unicast(sender, coupler, packet, receiver);
            frame.transmissions.push(tx);
        }
    }
}

/// Appends the walk to a byte buffer in the dense schedule layout: a
/// transmission count per slot, then one 20-byte record per transmission.
struct Records<'a>(&'a mut Vec<u8>);

impl Emit for Records<'_> {
    // lint: hot-path
    fn slot(&mut self, len: usize) {
        codec::push_u32(self.0, len);
    }

    // lint: hot-path
    fn unicast(&mut self, sender: usize, coupler: usize, packet: usize, receiver: usize) {
        codec::push_unicast(self.0, sender, coupler, packet, receiver);
    }
}

impl Router for RoutingEngine {
    fn plan(&mut self, req: &RoutingRequest<'_>) -> Result<RoutingOutcome, RoutingError> {
        let n = self.topology.n();
        let check = |len: usize| -> Result<(), RoutingError> {
            if len == n {
                Ok(())
            } else {
                Err(RoutingError::SizeMismatch {
                    expected: n,
                    got: len,
                })
            }
        };
        match *req {
            RoutingRequest::Theorem2 { pi } => {
                check(pi.len())?;
                Ok(RoutingOutcome::Plan(self.plan_theorem2(pi)))
            }
            RoutingRequest::SingleSlot { pi } => {
                check(pi.len())?;
                self.plan_single_slot(pi).map(RoutingOutcome::Schedule)
            }
            RoutingRequest::HRelation { relation } => {
                check(relation.n())?;
                Ok(RoutingOutcome::HRelation(self.plan_h_relation(relation)))
            }
            RoutingRequest::WithFaults { pi, faults } => {
                check(pi.len())?;
                self.plan_with_faults(pi, faults)
                    .map(RoutingOutcome::FaultTolerant)
            }
            RoutingRequest::DirectBaseline { pi } => {
                check(pi.len())?;
                Ok(RoutingOutcome::Schedule(self.plan_direct(pi)))
            }
            RoutingRequest::StructuredBaseline { pi } => {
                check(pi.len())?;
                self.plan_structured(pi).map(RoutingOutcome::Schedule)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_network::Simulator;
    use pops_permutation::families::{random_permutation, vector_reversal};
    use pops_permutation::SplitMix64;

    const SHAPES: [(usize, usize); 10] = [
        (1, 5),
        (2, 2),
        (2, 4),
        (3, 3),
        (3, 5),
        (4, 4),
        (4, 2),
        (6, 3),
        (7, 3),
        (5, 1),
    ];

    #[test]
    fn warm_engine_matches_legacy_route_for_all_colorers() {
        let mut rng = SplitMix64::new(900);
        for kind in ColorerKind::ALL {
            for (d, g) in SHAPES {
                let t = PopsTopology::new(d, g);
                let mut engine = RoutingEngine::with_colorer(t, kind).emit_artefacts(true);
                for _ in 0..3 {
                    let pi = random_permutation(d * g, &mut rng);
                    let legacy = crate::router::route(&pi, t, kind);
                    let from_engine = engine.plan_theorem2(&pi);
                    assert_eq!(
                        legacy.schedule,
                        from_engine.schedule,
                        "{} d={d} g={g}",
                        kind.name()
                    );
                    assert_eq!(legacy.intermediate, from_engine.intermediate);
                    assert_eq!(legacy.fair_distribution, from_engine.fair_distribution);
                    assert_eq!(legacy.list_system, from_engine.list_system);
                }
            }
        }
    }

    #[test]
    fn scratch_colorer_matches_legacy_alternating_pipeline() {
        let mut rng = SplitMix64::new(901);
        for (d, g) in SHAPES {
            if d == 1 {
                continue;
            }
            let t = PopsTopology::new(d, g);
            let mut engine = RoutingEngine::new(t);
            for _ in 0..3 {
                let pi = random_permutation(d * g, &mut rng);
                let ls = ListSystem::for_routing(&pi, d, g);
                let fd = FairDistribution::compute(&ls, ColorerKind::AlternatingPath);
                let targets = engine.fair_distribution_targets(&pi);
                for h in 0..g {
                    assert_eq!(
                        &targets[h * d..(h + 1) * d],
                        fd.targets_of(h),
                        "d={d} g={g} h={h}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_schedules_execute_and_deliver() {
        let mut rng = SplitMix64::new(902);
        for (d, g) in SHAPES {
            let t = PopsTopology::new(d, g);
            let mut engine = RoutingEngine::new(t);
            for _ in 0..4 {
                let pi = random_permutation(d * g, &mut rng);
                let plan = engine.plan_theorem2(&pi);
                assert_eq!(plan.schedule.slot_count(), theorem2_slots(d, g));
                let mut sim = Simulator::with_unit_packets(t);
                sim.execute_schedule(&plan.schedule)
                    .unwrap_or_else(|(i, e)| panic!("d={d} g={g} slot {i}: {e}"));
                sim.verify_delivery(pi.as_slice())
                    .unwrap_or_else(|e| panic!("d={d} g={g}: {e}"));
            }
        }
    }

    #[test]
    fn trait_dispatch_covers_all_six_paths() {
        let t = PopsTopology::new(2, 3);
        let mut engine = RoutingEngine::new(t);
        let pi = vector_reversal(6);
        let relation = HRelation::new(6, vec![(0, 1), (1, 0), (2, 5)]).unwrap();
        let faults = FaultSet::none(&t);

        assert!(matches!(
            engine.plan(&RoutingRequest::Theorem2 { pi: &pi }),
            Ok(RoutingOutcome::Plan(_))
        ));
        assert!(matches!(
            engine.plan(&RoutingRequest::HRelation {
                relation: &relation
            }),
            Ok(RoutingOutcome::HRelation(_))
        ));
        assert!(matches!(
            engine.plan(&RoutingRequest::WithFaults {
                pi: &pi,
                faults: &faults
            }),
            Ok(RoutingOutcome::FaultTolerant(_))
        ));
        assert!(matches!(
            engine.plan(&RoutingRequest::DirectBaseline { pi: &pi }),
            Ok(RoutingOutcome::Schedule(_))
        ));
        // Reversal on POPS(2, 3) concentrates demand: not one slot.
        assert!(matches!(
            engine.plan(&RoutingRequest::SingleSlot { pi: &pi }),
            Err(RoutingError::NotSingleSlotRoutable)
        ));
        // Reversal is group-uniform, so the structured baseline applies.
        assert!(matches!(
            engine.plan(&RoutingRequest::StructuredBaseline { pi: &pi }),
            Ok(RoutingOutcome::Schedule(_))
        ));
    }

    #[test]
    fn trait_rejects_size_mismatch_without_panicking() {
        let mut engine = RoutingEngine::new(PopsTopology::new(2, 3));
        let small = Permutation::identity(4);
        assert!(matches!(
            engine.plan(&RoutingRequest::Theorem2 { pi: &small }),
            Err(RoutingError::SizeMismatch {
                expected: 6,
                got: 4
            })
        ));
    }

    #[test]
    fn outcome_schedule_accessors() {
        let mut engine = RoutingEngine::new(PopsTopology::new(2, 2));
        let pi = vector_reversal(4);
        let outcome = engine.plan(&RoutingRequest::Theorem2 { pi: &pi }).unwrap();
        assert_eq!(outcome.schedule().slot_count(), 2);
        assert_eq!(outcome.into_schedule().slot_count(), 2);
    }

    #[test]
    fn artefacts_are_opt_in() {
        let t = PopsTopology::new(3, 4);
        let pi = vector_reversal(12);
        let mut hot = RoutingEngine::new(t);
        assert!(hot.plan_theorem2(&pi).fair_distribution.is_none());
        let mut debuggable = RoutingEngine::new(t).emit_artefacts(true);
        let plan = debuggable.plan_theorem2(&pi);
        assert!(plan.fair_distribution.is_some());
        assert!(plan.list_system.is_some());
        let fd = plan.fair_distribution.unwrap();
        let ls = plan.list_system.unwrap();
        fd.verify(&ls).unwrap();
    }

    #[test]
    fn warm_reset_and_footprint_hooks() {
        let t = PopsTopology::new(4, 4);
        let mut engine = RoutingEngine::new(t);
        assert_eq!(engine.arena_footprint(), 0, "fresh engine has no arenas");
        engine.warm();
        let warmed = engine.arena_footprint();
        assert!(warmed > 0, "warming must size the arenas");
        // A warm engine's arenas do not grow further on real requests.
        let pi = vector_reversal(16);
        let plan = engine.plan_theorem2(&pi);
        assert_eq!(plan.schedule.slot_count(), 2);
        assert_eq!(engine.arena_footprint(), warmed);
        engine.reset();
        assert_eq!(engine.arena_footprint(), 0, "reset releases the arenas");
        // And the engine still routes correctly after a reset.
        let plan = engine.plan_theorem2(&pi);
        assert_eq!(plan.schedule.slot_count(), 2);
    }

    #[test]
    fn set_emit_artefacts_matches_builder() {
        let t = PopsTopology::new(3, 4);
        let pi = vector_reversal(12);
        let mut engine = RoutingEngine::new(t);
        assert!(engine.plan_theorem2(&pi).fair_distribution.is_none());
        engine.set_emit_artefacts(true);
        assert!(engine.plan_theorem2(&pi).fair_distribution.is_some());
        engine.set_emit_artefacts(false);
        assert!(engine.plan_theorem2(&pi).fair_distribution.is_none());
    }

    #[test]
    fn error_display() {
        assert!(RoutingError::NotSingleSlotRoutable
            .to_string()
            .contains("single-slot"));
        assert!(RoutingError::SizeMismatch {
            expected: 6,
            got: 4
        }
        .to_string()
        .contains("does not match"));
        assert!(RoutingError::NotGroupUniform
            .to_string()
            .contains("group-uniform"));
    }

    #[test]
    fn reuse_across_many_permutations_is_stateless() {
        // Interleave wildly different permutations on one warm engine and
        // check each plan against a fresh engine's output.
        let (d, g) = (4, 6);
        let t = PopsTopology::new(d, g);
        let mut warm = RoutingEngine::new(t);
        let mut rng = SplitMix64::new(903);
        for round in 0..12 {
            let pi = if round % 3 == 0 {
                vector_reversal(d * g)
            } else {
                random_permutation(d * g, &mut rng)
            };
            let warm_plan = warm.plan_theorem2(&pi);
            let fresh_plan = RoutingEngine::new(t).plan_theorem2(&pi);
            assert_eq!(warm_plan.schedule, fresh_plan.schedule, "round {round}");
            assert_eq!(warm_plan.intermediate, fresh_plan.intermediate);
        }
    }
}
